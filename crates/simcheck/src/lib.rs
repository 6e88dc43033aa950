//! # simcheck — deterministic scenario fuzzing for the HMPI stack
//!
//! The workspace's layers (hetsim's network model, mpisim's virtual-time
//! MPI, hmpi's recon/selection runtime, perfmodel's cost engine, the
//! application kernels) are unit-tested in isolation; this crate tests
//! them *together*, the way a randomised integration suite would: draw a
//! random heterogeneous cluster, a random fault schedule and a random
//! workload from a seed, execute the whole stack, and check global
//! invariants that must hold for **every** scenario (see [`exec::check`]).
//!
//! Everything is reproducible from the seed:
//!
//! ```text
//! cargo run -p simcheck -- --seeds 5000          # fuzz a seed range
//! cargo run -p simcheck -- --seed 0x1f2e         # re-run one seed
//! cargo run -p simcheck -- --replay corpus/      # replay saved repros
//! cargo run -p simcheck -- --seeds 5000 --crashy # crashy-collective batch
//! cargo run -p simcheck -- --seeds 5000 --hierarchy # multi-site batch
//! ```
//!
//! A failing seed is auto-shrunk (drop nodes → drop fault events → drop
//! link overrides → halve sizes; [`shrink_classified`] keeps the repro on
//! the violation kind that failed first) to a minimal one-line repro and
//! written to `corpus/`; the committed corpus replays as an ordinary
//! `cargo test -p simcheck` (see `tests/corpus.rs`).
//!
//! `--crashy` swaps in [`generate_crashy_collective`]: every seed is a
//! collective with node crashes, gating the fault-tolerant collective
//! contract (survivor bit-exactness or typed errors, unanimous agreement,
//! deterministic error surface) in CI.
//!
//! `--hierarchy` swaps in [`generate_hierarchical`]: every seed is a
//! multi-site cluster (slow WAN between sites, optional switch split
//! inside them), gating the hierarchy-aware collective selector — a
//! hierarchical pick must beat the flat argmin and execute with exact
//! values and `timeof` parity.

#![warn(missing_docs)]

pub mod exec;
pub mod gen;
pub mod scenario;
pub mod shrink;

pub use exec::{build_cluster, check, placement, Violation, TIMEOF_REL_BOUND};
pub use gen::{generate, generate_crashy_collective, generate_hierarchical};
pub use scenario::{parse, AppKind, LinkOverride, ParseError, Scenario, Workload};
pub use shrink::{shrink, shrink_classified};
