//! Benchmark harnesses regenerating the HMPI paper's evaluation (Section 5).
//!
//! The evaluation contains no tables; its results are Figures 9–11:
//!
//! * [`fig9`] — EM3D execution time, HMPI vs MPI, across problem sizes
//!   (Figure 9a), and the derived speedup (Figure 9b; paper: ≈1.5×);
//! * [`fig10`] — MM execution time vs the generalised block size `l` for
//!   `r = 8` (Figure 10), showing the interior optimum `HMPI_Timeof` finds;
//! * [`fig11`] — MM execution time, HMPI (heterogeneous distribution,
//!   Timeof-chosen `l`) vs MPI (homogeneous), across matrix sizes
//!   (Figure 11a) and the derived speedup (Figure 11b; paper: ≈3×);
//! * [`ablation`] — design-choice studies DESIGN.md calls out: selection
//!   algorithm, network contention model, and recon staleness;
//! * [`extension`] — the N-body workload (beyond the paper), showing the
//!   selection machinery generalises to a collective-heavy shape;
//! * [`faults`] — the degradation curve (beyond the paper): fault-tolerant
//!   EM3D under seeded random fail-stop crashes, virtual time and surviving
//!   group size versus the injected per-node failure rate;
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
//! The figure modules return plain [`ComparisonPoint`] series that
//! `src/bin/figures.rs` prints as aligned tables or CSV. Every bench beyond
//! the paper is a `fn(quick) -> `[`Report`] listed in [`BENCHES`];
//! [`report`] owns the one text renderer, the one JSON writer and the one
//! gate check they share. The deterministic files (virtual time only:
//! collectives, contention, hierarchy) are their own baseline — CI
//! regenerates them and fails on any difference.
//!
//! Times are *virtual seconds* over the paper's 9-workstation LAN model
//! (speeds 46×6, 176, 106, 9; switched 100 Mbit Ethernet). Absolute values
//! are not comparable to the paper's wall-clock seconds; the shapes (who
//! wins, by what factor, where the optimum falls) are the reproduction
//! target.

#![warn(missing_docs)]

pub mod ablation;
pub mod deadlock;
pub mod extension;
pub mod faults;
pub mod fig10;
pub mod fig11;
pub mod fig9;
pub mod parity;
pub mod report;
pub mod selection;
pub mod throughput;
pub mod trace;

use hetsim::{Cluster, ClusterBuilder, ContentionModel, Link, Protocol, PAPER_EM3D_SPEEDS};
pub use report::Report;
use std::sync::Arc;

/// A bench beyond the paper: `quick` shrinks it to a CI smoke run.
pub type Bench = fn(quick: bool) -> Report;

/// Every bench beyond the paper, by `figures` name, in `figures -- all`
/// order.
pub const BENCHES: [(&str, Bench); 7] = [
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

/// One (x, MPI time, HMPI time) row of a comparison figure.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ComparisonPoint {
    /// The x-axis value (problem size, block size, ...).
    pub x: usize,
    /// Plain-MPI execution time, virtual seconds.
    pub mpi: f64,
    /// HMPI execution time, virtual seconds.
    pub hmpi: f64,
}

impl ComparisonPoint {
    /// Speedup of HMPI over MPI.
    pub fn speedup(&self) -> f64 {
        self.mpi / self.hmpi
    }
}

/// Renders comparison points as an aligned text table.
pub fn render_table(title: &str, x_label: &str, points: &[ComparisonPoint]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "# {title}");
    let _ = writeln!(
        out,
        "{x_label:>12}  {:>14}  {:>14}  {:>8}",
        "MPI [s]", "HMPI [s]", "speedup"
    );
    for p in points {
        let _ = writeln!(
            out,
            "{:>12}  {:>14.4}  {:>14.4}  {:>8.2}",
            p.x,
            p.mpi,
            p.hmpi,
            p.speedup()
        );
    }
    out
}

/// Renders comparison points as CSV.
pub fn render_csv(x_label: &str, points: &[ComparisonPoint]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "{x_label},mpi_s,hmpi_s,speedup");
    for p in points {
        let _ = writeln!(out, "{},{},{},{}", p.x, p.mpi, p.hmpi, p.speedup());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn speedup_is_ratio() {
        let p = ComparisonPoint {
            x: 1,
            mpi: 3.0,
            hmpi: 1.5,
        };
        assert_eq!(p.speedup(), 2.0);
    }

    #[test]
    fn render_table_contains_rows() {
        let pts = [ComparisonPoint {
            x: 100,
            mpi: 2.0,
            hmpi: 1.0,
        }];
        let t = render_table("Fig X", "size", &pts);
        assert!(t.contains("Fig X"));
        assert!(t.contains("100"));
        assert!(t.contains("2.00"));
    }

    #[test]
    fn render_csv_has_header_and_rows() {
        let pts = [ComparisonPoint {
            x: 5,
            mpi: 1.0,
            hmpi: 0.5,
        }];
        let c = render_csv("l", &pts);
        assert!(c.starts_with("l,mpi_s,hmpi_s,speedup\n"));
        assert!(c.contains("5,1,0.5,2"));
    }
}
