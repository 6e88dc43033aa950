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
//! * [`selection`] — the selection engine (beyond the paper): every
//!   `select_mapping` algorithm's evaluation counts, gated on a cold
//!   evaluator pricing every chosen mapping to the reported bits and on
//!   `Exhaustive` never being beaten (`BENCH_selection.json`);
//! * [`trace`] — prediction accuracy (beyond the paper): `HMPI_Timeof`
//!   model error with per-phase compute/comm/wait breakdowns for EM3D and
//!   MM, gated under 0.1 % (`BENCH_trace.json`, alongside the Chrome trace
//!   `TRACE_em3d.json`);
//! * [`parity`] — predicted vs measured virtual time of the engine
//!   collectives over three testbed lists: the paper LAN (`collectives`),
//!   the contended network models (`contention`) and a three-site WAN under
//!   the hierarchy-aware and flat-only selectors (`hierarchy`).
//!
//! Every bench is a `fn() -> `[`Report`] listed in [`BENCHES`];
//! [`report`] owns the one text renderer, the one JSON writer and the one
//! gate check, and `src/bin/figures.rs` is one loop over them. Every bench
//! reports virtual time only, so every file it writes is its own baseline:
//! a tier-1 test and CI regenerate them and fail on any difference. What
//! the simulator costs in host time is the ledger's (`crates/ledger`).
//!
//! Times are *virtual seconds* over the paper's 9-workstation LAN model
//! (speeds 46×6, 176, 106, 9; switched 100 Mbit Ethernet). Absolute values
//! are not comparable to the paper's wall-clock seconds; the shapes (who
//! wins, by what factor, where the optimum falls) are the reproduction
//! target.

#![warn(missing_docs)]

pub mod ablation;
mod extension;
mod faults;
mod fig10;
mod fig11;
mod fig9;
pub mod paper;
pub mod parity;
pub mod report;
pub mod selection;
pub mod trace;

use hetsim::{Cluster, ClusterBuilder, ContentionModel, Link, Protocol, PAPER_EM3D_SPEEDS};
pub use report::Report;
use std::sync::Arc;

/// A bench: one deterministic run.
pub type Bench = fn() -> Report;

/// Every bench, by `figures` name, in `figures -- all` order.
pub const BENCHES: [(&str, Bench); 7] = [
    ("paper", paper::run),
    ("ablation", ablation::run),
    ("selection", selection::run),
    ("trace", trace::run),
    ("collectives", parity::collectives),
    ("contention", parity::contention),
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

    /// Every study — the paper's and those beyond it — is virtual time
    /// only: a run is its checked-in files, byte for byte, and every gate
    /// holds.
    #[test]
    fn the_paper_studies_regenerate_their_checked_in_json_and_hold_their_gates() {
        let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
        let checked_in = |path: &str| {
            let path = format!("{root}/{path}");
            std::fs::read_to_string(&path).expect(&path)
        };
        for (name, run) in BENCHES {
            let report = run();
            assert_eq!(report.name, name);
            let json = format!("BENCH_{name}.json");
            assert_eq!(report.to_json(), checked_in(&json), "{json}");
            for (path, text) in &report.files {
                assert!(*text == checked_in(path), "{path} differs");
            }
            report
                .enforce()
                .unwrap_or_else(|e| panic!("{e}\n{}", report.render()));
        }
    }
}
