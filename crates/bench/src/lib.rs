//! Every bench of the HMPI reproduction: the paper's evaluation (Section 5),
//! its ablations, and the benches beyond the paper.
//!
//! * [`paper`] — Figures 9–11 and the n-body extension (`BENCH_paper.json`):
//!   EM3D (paper: HMPI ≈1.5× faster), MM against the generalised block size
//!   `l` with the `l` `HMPI_Timeof` chooses, and MM across matrix sizes
//!   (paper: ≈3×), each row with its `HMPI_Timeof` prediction, gated on the
//!   paper's own sentences;
//! * [`ablation`] — the design-choice studies DESIGN.md calls out
//!   (`BENCH_ablation.json`): selection algorithm, network contention model,
//!   recon staleness, and the degradation curve of fault-tolerant EM3D under
//!   seeded random fail-stop crashes;
//! * [`selection`] — the selection-engine microbenchmark (beyond the
//!   paper): reused-evaluator and incremental-probe throughput vs a cold
//!   evaluator per call, and end-to-end `select_mapping` wall times and
//!   evaluation counts, gated on a cold evaluator pricing every chosen
//!   mapping to the reported bits and on `Exhaustive` never being beaten
//!   (`BENCH_selection.json`);
//! * [`deadlock`] — the robustness benchmark (beyond the paper): seeded
//!   wedges (receive cycles, crash-orphaned waits) measured from launch to
//!   every rank holding its typed verdict, gating the quiescence detector's
//!   sub-second wall-clock detection (`BENCH_deadlock.json`);
//! * [`throughput`] — the substrate benchmark (beyond the paper): the
//!   eager/rendezvous mailbox (per-sender lanes, indexed matcher,
//!   pool-leased payloads) over burst, backlog and steady traffic, gated on
//!   conservative absolute msgs/sec and bytes/sec floors
//!   (`BENCH_throughput.json`);
//! * [`trace`] — the observability benchmark (beyond the paper): tracing
//!   overhead (disabled vs enabled) on the EM3D selection workload, and
//!   `HMPI_Timeof` prediction error with per-phase compute/comm/wait
//!   breakdowns for EM3D and MM, gated on the model error staying under
//!   0.1 % (`BENCH_trace.json`, alongside the Chrome trace
//!   `TRACE_em3d.json`);
//! * [`parity`] — predicted vs measured virtual time of the engine
//!   collectives over three testbed lists: the paper LAN (`collectives`),
//!   the contended network models (`contention`) and a three-site WAN under
//!   the hierarchy-aware and flat-only selectors (`hierarchy`).
//!
//! Every bench is a `fn(quick) -> `[`Report`] listed in [`BENCHES`];
//! [`report`] owns the one text renderer, the one JSON writer and the one
//! gate check, and `src/bin/figures.rs` is one loop over them. The files
//! that hold virtual time only (paper, ablation, collectives, contention,
//! hierarchy) are their own baseline — CI regenerates them and fails on any
//! difference.
//!
//! Times are *virtual seconds* over the paper's 9-workstation LAN model
//! (speeds 46×6, 176, 106, 9; switched 100 Mbit Ethernet). Absolute values
//! are not comparable to the paper's wall-clock seconds; the shapes (who
//! wins, by what factor, where the optimum falls) are the reproduction
//! target.

#![warn(missing_docs)]

pub mod ablation;
pub mod deadlock;
mod extension;
mod faults;
mod fig10;
mod fig11;
mod fig9;
pub mod paper;
pub mod parity;
pub mod report;
pub mod selection;
pub mod throughput;
pub mod trace;

use hetsim::{Cluster, ClusterBuilder, ContentionModel, Link, Protocol, PAPER_EM3D_SPEEDS};
pub use report::Report;
use std::sync::Arc;

/// A bench: `quick` shrinks it to a CI smoke run (the virtual-time-only
/// `paper` and `ablation` have one size and ignore it).
pub type Bench = fn(quick: bool) -> Report;

/// Every bench, by `figures` name, in `figures -- all` order.
pub const BENCHES: [(&str, Bench); 9] = [
    ("paper", paper::run),
    ("ablation", ablation::run),
    ("selection", selection::run),
    ("trace", trace::run),
    ("collectives", parity::collectives),
    ("contention", parity::contention),
    ("deadlock", deadlock::run),
    ("throughput", throughput::run),
    ("hierarchy", parity::hierarchy),
];

/// The paper's 9-workstation LAN for EM3D experiments.
pub fn em3d_cluster() -> Arc<Cluster> {
    Arc::new(Cluster::paper_lan_em3d())
}

/// The paper's 9-workstation LAN for MM experiments.
pub fn matmul_cluster() -> Arc<Cluster> {
    Arc::new(Cluster::paper_lan_matmul())
}

/// The paper's 9-workstation speeds over 100 Mbit Ethernet, with the
/// link-sharing mode under test.
pub fn paper_lan_with(contention: ContentionModel) -> Arc<Cluster> {
    let mut b = ClusterBuilder::new();
    for (i, &s) in PAPER_EM3D_SPEEDS.iter().enumerate() {
        b = b.node(format!("ws{i:02}"), s);
    }
    Arc::new(
        b.all_to_all(Link::with_defaults(Protocol::Tcp))
            .contention(contention)
            .build(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The virtual-time-only studies have one size: a run is the checked-in
    /// file, byte for byte, and every gate holds.
    #[test]
    fn the_paper_studies_regenerate_their_checked_in_json_and_hold_their_gates() {
        for run in [paper::run, ablation::run] {
            let report = run(true);
            let dir = env!("CARGO_MANIFEST_DIR");
            let path = format!("{dir}/../../BENCH_{}.json", report.name);
            let checked_in = std::fs::read_to_string(&path).expect(&path);
            assert_eq!(report.to_json(), checked_in, "{path}");
            report
                .enforce()
                .unwrap_or_else(|e| panic!("{e}\n{}", report.render()));
        }
    }
}
