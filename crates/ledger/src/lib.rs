//! # hmpi-ledger — the host-time ledger
//!
//! The end-to-end benchmark of the HMPI reproduction: six workloads, the
//! end-to-end metrics a user of the simulator sees, and a per-layer
//! attribution of where the host time goes. See `README.md` in this crate
//! for the metric and workload tables and how to run and compare.
//!
//! The harness measures every layer **from outside** — `Instant` spans
//! around calls into the layers' public functions, differential runs, and
//! stand-alone calls to layer entry points on a workload's own inputs —
//! and uses only the non-deprecated public surface of the workspace.

#![deny(deprecated)]
#![warn(missing_docs)]

pub mod check;
pub mod cost;
pub mod drivers;
pub mod json;
pub mod runner;
pub mod span;
pub mod spec;
pub mod stats;
pub mod sys;
pub mod workloads;
