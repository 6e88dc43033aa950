//! Hierarchical-collective benchmark: the topology-aware `Auto` selector
//! vs the flat-only selector on a multi-site testbed
//! (`figures -- hierarchy` → `BENCH_hierarchy.json`).
//!
//! The testbed is three sites of five workstations: a fast LAN inside
//! each site, a slow high-latency WAN between sites, serialized NICs.
//! Fifteen ranks misalign with the flat algorithms' structure, so flat
//! schedules queue WAN transfers on root NICs where the hierarchical
//! plan crosses the WAN once per remote site. Two gates ride on the
//! sweep: the hierarchical pricer must stay within 5% of the measured
//! makespan (it is bit-exact; the band matches the other pricing
//! gates), and the hierarchy-aware selector must beat the flat-only
//! selector by at least [`HIER_SPEEDUP_GATE`]× on at least one
//! collective at ≥64 KiB. A checked-in baseline additionally pins the
//! summed measured virtual time with a ±10% band.

use hetsim::{ContentionModel, Link, Protocol, Topology, TopologyBuilder};
use mpisim::{
    CollectiveKind, CollectivePolicy, PlanCacheReport, ReduceOp, Universe, UniverseConfig,
};

/// Minimum speedup of the hierarchy-aware selector over the flat-only
/// selector, required on at least one collective kind at ≥64 KiB.
pub const HIER_SPEEDUP_GATE: f64 = 1.5;

/// One (kind, size) measurement: the same collective under both selectors.
#[derive(Debug, Clone)]
pub struct HierarchyPoint {
    /// Collective kind ("bcast" / "reduce" / "allreduce" / "allgather").
    pub kind: &'static str,
    /// Communicator size (ranks).
    pub p: usize,
    /// Message size in bytes (f64 elements × 8).
    pub bytes: usize,
    /// Algorithm the hierarchy-aware `Auto` selector picked.
    pub hier_algo: &'static str,
    /// Algorithm the flat-only selector picked.
    pub flat_algo: &'static str,
    /// `timeof` prediction for the hierarchy-aware pick, seconds.
    pub hier_predicted_s: f64,
    /// Measured virtual makespan under the hierarchy-aware selector.
    pub hier_measured_s: f64,
    /// Measured virtual makespan under the flat-only selector.
    pub flat_measured_s: f64,
}

impl HierarchyPoint {
    /// Relative prediction error of the hierarchy-aware run, percent.
    pub fn error_pct(&self) -> f64 {
        if self.hier_measured_s <= 0.0 {
            return 0.0;
        }
        (self.hier_predicted_s - self.hier_measured_s).abs() / self.hier_measured_s * 100.0
    }

    /// Speedup of the hierarchy-aware selector over the flat-only one.
    pub fn speedup(&self) -> f64 {
        if self.hier_measured_s <= 0.0 {
            return 1.0;
        }
        self.flat_measured_s / self.hier_measured_s
    }
}

/// The whole benchmark.
#[derive(Debug, Clone)]
pub struct HierarchyBench {
    /// Every (kind, size) point, in sweep order.
    pub points: Vec<HierarchyPoint>,
    /// Plan-cache counters summed over the measuring runs (host side; not
    /// part of the JSON, whose numbers are all virtual time).
    pub plans: PlanCacheReport,
}

impl HierarchyBench {
    /// Worst prediction error over all points, percent — the 5% CI gate.
    pub fn max_error_pct(&self) -> f64 {
        self.points
            .iter()
            .map(HierarchyPoint::error_pct)
            .fold(0.0, f64::max)
    }

    /// Best hierarchical-over-flat speedup among points at ≥64 KiB where
    /// the selector actually left the flat family — the
    /// [`HIER_SPEEDUP_GATE`] metric.
    pub fn best_large_speedup(&self) -> f64 {
        self.points
            .iter()
            .filter(|c| c.bytes >= 64 * 1024 && c.hier_algo == "hierarchical")
            .map(HierarchyPoint::speedup)
            .fold(0.0, f64::max)
    }

    /// Never-worse check: the hierarchy-aware selector must not lose to
    /// the flat-only one anywhere (it prices the flat family too and only
    /// leaves it when strictly cheaper). Returns the worst speedup.
    pub fn min_speedup(&self) -> f64 {
        self.points
            .iter()
            .map(HierarchyPoint::speedup)
            .fold(f64::INFINITY, f64::min)
    }

    /// Summed measured virtual time over both selectors, seconds — the
    /// baseline-banded drift metric.
    pub fn total_measured_s(&self) -> f64 {
        self.points
            .iter()
            .map(|c| c.hier_measured_s + c.flat_measured_s)
            .sum()
    }
}

/// Three sites of five workstations: ~100 MB/s LAN within a site, a
/// ~1 MB/s 50 ms WAN between sites, serialized NICs.
pub fn multi_site_testbed() -> Topology {
    let lan = Link::new(1e-4, 100e6, Protocol::Tcp);
    let wan = Link::new(50e-3, 1e6, Protocol::Tcp);
    let mut b = TopologyBuilder::new()
        .intra_switch(lan)
        .inter_site(wan)
        .contention(ContentionModel::SerializedNic);
    for site in 0..3 {
        b = b.site();
        for i in 0..5 {
            b = b.node(format!("s{site}w{i}"), 80.0 + 15.0 * i as f64);
        }
    }
    b.build()
}

/// Runs one collective of `elems` f64 elements under the given policy and
/// returns `(picked algorithm, predicted, measured)` virtual seconds and
/// the run's plan-cache counters.
fn measure(
    topology: &Topology,
    policy: CollectivePolicy,
    kind: CollectiveKind,
    elems: usize,
) -> (&'static str, f64, f64, PlanCacheReport) {
    let u = Universe::from_topology(
        topology.clone(),
        UniverseConfig::new().collective_policy(policy),
    );
    let report = u.run(move |proc| {
        let world = proc.world();
        let p = world.size();
        // Allgather's predictor prices the total gathered payload; keep
        // the per-rank contribution exact.
        let (contrib_elems, pred_elems) = match kind {
            CollectiveKind::Allgather => (elems / p, (elems / p) * p),
            _ => (elems, elems),
        };
        let (algo, predicted) = world
            .predict_collective(kind, 0, pred_elems, 8)
            .expect("predictable collective");
        match kind {
            CollectiveKind::Bcast => {
                let mut buf = vec![1.0f64; contrib_elems];
                world.bcast_into(&mut buf, 0).expect("bcast");
            }
            CollectiveKind::Reduce => {
                let contrib = vec![1.0f64; contrib_elems];
                world
                    .reduce_eq_f64(&contrib, ReduceOp::Sum, 0)
                    .expect("reduce");
            }
            CollectiveKind::Allreduce => {
                let contrib = vec![1.0f64; contrib_elems];
                world
                    .allreduce_eq_f64(&contrib, ReduceOp::Sum)
                    .expect("allreduce");
            }
            CollectiveKind::Allgather => {
                let contrib = vec![1.0f64; contrib_elems];
                world.allgather_eq(&contrib).expect("allgather");
            }
        }
        (algo, predicted)
    });
    let (algo, predicted) = report.results[0];
    (
        algo.name(),
        predicted,
        report.makespan.as_secs(),
        report.plans,
    )
}

/// Runs the benchmark: every collective kind across the size sweep, once
/// under the hierarchy-aware selector and once flat-only.
pub fn run(quick: bool) -> HierarchyBench {
    let sizes: &[usize] = if quick {
        &[65_536]
    } else {
        &[1_024, 8_192, 65_536, 262_144]
    };
    let topology = multi_site_testbed();
    let p = topology.ranks();
    let mut bench = HierarchyBench {
        points: Vec::new(),
        plans: PlanCacheReport::default(),
    };
    for kind in [
        CollectiveKind::Bcast,
        CollectiveKind::Reduce,
        CollectiveKind::Allreduce,
        CollectiveKind::Allgather,
    ] {
        for &bytes in sizes {
            let elems = (bytes / 8).max(p);
            let (hier_algo, hier_predicted_s, hier_measured_s, hier_plans) =
                measure(&topology, CollectivePolicy::Auto, kind, elems);
            let (flat_algo, _, flat_measured_s, flat_plans) =
                measure(&topology, CollectivePolicy::FlatAuto, kind, elems);
            bench.plans += hier_plans;
            bench.plans += flat_plans;
            bench.points.push(HierarchyPoint {
                kind: kind.name(),
                p,
                bytes,
                hier_algo,
                flat_algo,
                hier_predicted_s,
                hier_measured_s,
                flat_measured_s,
            });
        }
    }
    bench
}

/// Text-table rendering.
pub fn render(b: &HierarchyBench) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "# Hierarchical collectives: topology-aware Auto vs flat-only selector \
         (3 sites x 5 nodes, WAN 1 MB/s / 50 ms, serialized NICs)"
    );
    let _ = writeln!(
        out,
        "{:>10} {:>3} {:>8} {:>14} {:>14} {:>13} {:>13} {:>8} {:>8}",
        "collective", "p", "bytes", "hier algo", "flat algo", "hier [s]", "flat [s]",
        "speedup", "err [%]"
    );
    for c in &b.points {
        let _ = writeln!(
            out,
            "{:>10} {:>3} {:>8} {:>14} {:>14} {:>13.6e} {:>13.6e} {:>8.2} {:>8.3}",
            c.kind,
            c.p,
            c.bytes,
            c.hier_algo,
            c.flat_algo,
            c.hier_measured_s,
            c.flat_measured_s,
            c.speedup(),
            c.error_pct(),
        );
    }
    let _ = writeln!(out);
    let _ = writeln!(out, "max prediction error: {:.3}%", b.max_error_pct());
    let _ = writeln!(
        out,
        "best speedup at >=64 KiB: {:.2}x (gate {:.1}x)",
        b.best_large_speedup(),
        HIER_SPEEDUP_GATE
    );
    let _ = writeln!(out, "worst speedup anywhere: {:.3}x", b.min_speedup());
    let _ = writeln!(out, "total measured virtual time: {:.6}s", b.total_measured_s());
    let _ = writeln!(out, "plan cache: {}", b.plans);
    out
}

/// Serialises the benchmark to JSON (hand-formatted; the workspace's serde
/// shim has no serializer).
pub fn to_json(b: &HierarchyBench) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "{{");
    let _ = writeln!(out, "  \"max_error_pct\": {:.4},", b.max_error_pct());
    let _ = writeln!(out, "  \"best_large_speedup\": {:.4},", b.best_large_speedup());
    let _ = writeln!(out, "  \"min_speedup\": {:.4},", b.min_speedup());
    let _ = writeln!(out, "  \"total_measured_s\": {:.9},", b.total_measured_s());
    let _ = writeln!(out, "  \"points\": [");
    let n = b.points.len();
    for (i, c) in b.points.iter().enumerate() {
        let comma = if i + 1 == n { "" } else { "," };
        let _ = writeln!(
            out,
            "    {{\"kind\": \"{}\", \"p\": {}, \"bytes\": {}, \"hier_algo\": \"{}\", \
             \"flat_algo\": \"{}\", \"hier_predicted_s\": {:.9e}, \"hier_measured_s\": {:.9e}, \
             \"flat_measured_s\": {:.9e}, \"speedup\": {:.4}, \"error_pct\": {:.4}}}{comma}",
            c.kind,
            c.p,
            c.bytes,
            c.hier_algo,
            c.flat_algo,
            c.hier_predicted_s,
            c.hier_measured_s,
            c.flat_measured_s,
            c.speedup(),
            c.error_pct()
        );
    }
    let _ = writeln!(out, "  ]");
    let _ = writeln!(out, "}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_selector_beats_flat_and_predictions_hold() {
        let b = run(true);
        assert!(!b.points.is_empty());
        assert!(
            b.points.iter().any(|c| c.hier_algo == "hierarchical"),
            "the selector never left the flat family:\n{}",
            render(&b)
        );
        assert!(
            b.max_error_pct() < 5.0,
            "hierarchical prediction error {:.3}% breaches the 5% gate",
            b.max_error_pct()
        );
        assert!(
            b.best_large_speedup() >= HIER_SPEEDUP_GATE,
            "best >=64 KiB speedup {:.2}x under the {:.1}x gate:\n{}",
            b.best_large_speedup(),
            HIER_SPEEDUP_GATE,
            render(&b)
        );
        assert!(
            b.min_speedup() >= 1.0 - 1e-9,
            "hierarchy-aware selector lost to flat somewhere:\n{}",
            render(&b)
        );
    }

    #[test]
    fn the_sweep_is_deterministic() {
        let (a, b) = (run(true), run(true));
        assert_eq!(a.points.len(), b.points.len());
        for (x, y) in a.points.iter().zip(&b.points) {
            assert_eq!(x.hier_measured_s.to_bits(), y.hier_measured_s.to_bits(), "{x:?}");
            assert_eq!(x.hier_predicted_s.to_bits(), y.hier_predicted_s.to_bits(), "{x:?}");
            assert_eq!(x.flat_measured_s.to_bits(), y.flat_measured_s.to_bits(), "{x:?}");
        }
    }
}
