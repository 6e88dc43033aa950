//! # simcheck — deterministic scenario fuzzing for the HMPI stack
//!
//! The workspace's layers (hetsim's network model, mpisim's virtual-time
//! MPI, hmpi's recon/selection runtime, perfmodel's cost engine, the
//! application kernels) are unit-tested in isolation; this crate tests
//! them *together*, the way a randomised integration suite would: draw a
//! random heterogeneous cluster, a random fault schedule and a random
//! workload from a seed, execute the whole stack, and check global
//! invariants that must hold for **every** scenario (see [`check`]).
//!
//! Two halves. [`exec`] runs a scenario's workload and returns one run
//! record per universe run: per-rank outcomes, the run report (pool,
//! wake-ups, plans, trace), the fault plan and the workload's oracle
//! values. [`invariants`] holds the one table of invariants — a label, a
//! one-line doc, a predicate saying which runs a row applies to, and a
//! check — and the judge that walks it over every run. [`batch`] counts,
//! per row, the scenarios it applied to and those on which it reached a
//! verdict; a batch fails on a violation, and also when a row applied but
//! never reached a verdict, so a check that silently stopped firing shows
//! up. The CLI's seed ranges and corpus replay, and `tests/corpus.rs`, go
//! through [`batch`], and its summary line prints every row's counts.
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
pub mod invariants;
pub mod scenario;
pub mod shrink;

pub use exec::build_cluster;
pub use gen::{generate, generate_crashy_collective, generate_hierarchical};
pub use invariants::{batch, check, Batch, Violation, TIMEOF_REL_BOUND};
pub use scenario::{parse, AppKind, LinkOverride, ParseError, Scenario, Workload};
pub use shrink::{shrink, shrink_classified};
