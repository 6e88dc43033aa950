//! Collective-engine benchmark: measured virtual time vs `timeof`
//! prediction for every selectable algorithm, plus the selector's win over
//! the linear baseline, on the paper's 9-machine LAN
//! (`figures -- collectives` → `BENCH_collectives.json`).
//!
//! Two claims are checked (and gated in CI):
//!
//! * **pricing parity** — for every (kind, algorithm, size) the engine's
//!   prediction replays the exact schedule the executor runs, so the
//!   prediction error stays under 5% (under the paper LAN's parallel-links
//!   contention it is exact up to float noise);
//! * **selection quality** — at ≥64 KiB the `Auto`-selected broadcast and
//!   allreduce beat the linear baseline in measured virtual time.

use hetsim::Cluster;
use mpisim::{CollectiveAlgo, CollectiveKind, PlanCacheReport, ReduceOp, Universe};
use perfmodel::collective::algos_for;
use std::sync::Arc;

/// One (kind, algorithm, message size) measurement.
#[derive(Debug, Clone)]
pub struct CollPoint {
    /// Collective kind ("bcast" / "allreduce").
    pub kind: &'static str,
    /// Communicator size.
    pub p: usize,
    /// Message size in bytes (f64 elements × 8).
    pub bytes: usize,
    /// Algorithm name.
    pub algo: &'static str,
    /// `timeof`-style predicted virtual time, seconds.
    pub predicted_s: f64,
    /// Measured virtual makespan of a run executing only this collective.
    pub measured_s: f64,
    /// Whether the `Auto` selector would pick this algorithm at this size.
    pub selected: bool,
}

impl CollPoint {
    /// Relative prediction error, percent.
    pub fn error_pct(&self) -> f64 {
        if self.measured_s <= 0.0 {
            return 0.0;
        }
        (self.predicted_s - self.measured_s).abs() / self.measured_s * 100.0
    }

    /// Measured speedup of this algorithm over the same-size linear point.
    fn speedup_over(&self, linear_s: f64) -> f64 {
        if self.measured_s > 0.0 {
            linear_s / self.measured_s
        } else {
            f64::INFINITY
        }
    }
}

/// The whole benchmark.
#[derive(Debug, Clone)]
pub struct CollectivesBench {
    /// Every (kind, algorithm, size) point, in sweep order.
    pub points: Vec<CollPoint>,
    /// Plan-cache counters summed over the measuring runs (host side; not
    /// part of the JSON, whose numbers are all virtual time).
    pub plans: PlanCacheReport,
}

impl CollectivesBench {
    /// Worst prediction error over all points, percent — the CI gate.
    pub fn max_error_pct(&self) -> f64 {
        self.points
            .iter()
            .map(CollPoint::error_pct)
            .fold(0.0, f64::max)
    }

    /// The linear baseline's measured time for a (kind, p, bytes) cell.
    fn linear_s(&self, kind: &str, p: usize, bytes: usize) -> Option<f64> {
        self.points
            .iter()
            .find(|c| c.kind == kind && c.p == p && c.bytes == bytes && c.algo == "linear")
            .map(|c| c.measured_s)
    }

    /// Measured speedup of the selector's pick over linear, for every
    /// (kind, p, bytes) cell: `(kind, p, bytes, algo, speedup)`.
    pub fn selector_wins(&self) -> Vec<(&'static str, usize, usize, &'static str, f64)> {
        self.points
            .iter()
            .filter(|c| c.selected)
            .filter_map(|c| {
                let lin = self.linear_s(c.kind, c.p, c.bytes)?;
                Some((c.kind, c.p, c.bytes, c.algo, c.speedup_over(lin)))
            })
            .collect()
    }
}

fn kind_name(kind: CollectiveKind) -> &'static str {
    kind.name()
}

/// Runs one collective of `elems` f64 elements with a pinned algorithm on
/// its own universe and returns `(predicted, measured)` virtual seconds
/// and the run's plan-cache counters.
fn measure(
    cluster: &Arc<Cluster>,
    kind: CollectiveKind,
    algo: CollectiveAlgo,
    elems: usize,
) -> (f64, f64, PlanCacheReport) {
    let u = Universe::new(cluster.clone());
    let p = cluster.len();
    let report = u.run(move |proc| {
        let world = proc.world();
        let predicted = world
            .predict_collective_with(kind, algo, 0, elems, 8)
            .expect("eligible algorithm");
        match kind {
            CollectiveKind::Bcast => {
                let mut buf = vec![1.0f64; elems];
                world.bcast_into_with(algo, &mut buf, 0).expect("bcast");
            }
            CollectiveKind::Allreduce => {
                let contrib = vec![1.0f64; elems];
                world
                    .allreduce_eq_f64_with(algo, &contrib, ReduceOp::Sum)
                    .expect("allreduce");
            }
            CollectiveKind::Reduce => {
                let contrib = vec![1.0f64; elems];
                world
                    .reduce_eq_f64_with(algo, &contrib, ReduceOp::Sum, 0)
                    .expect("reduce");
            }
            CollectiveKind::Allgather => {
                let contrib = vec![1.0f64; elems / p];
                world.allgather_eq_with(algo, &contrib).expect("allgather");
            }
        }
        predicted
    });
    (report.results[0], report.makespan.as_secs(), report.plans)
}

/// The `Auto` selector's pick for a (kind, size) cell.
fn selected_algo(cluster: &Arc<Cluster>, kind: CollectiveKind, elems: usize) -> CollectiveAlgo {
    let u = Universe::new(cluster.clone());
    let report = u.run(move |proc| {
        proc.world()
            .predict_collective(kind, 0, elems, 8)
            .expect("root 0 is always valid")
            .0
    });
    report.results[0]
}

fn sweep(bench: &mut CollectivesBench, cluster: &Arc<Cluster>, sizes: &[usize]) {
    let p = cluster.len();
    for kind in [CollectiveKind::Bcast, CollectiveKind::Allreduce] {
        for &bytes in sizes {
            let elems = (bytes / 8).max(1);
            let chosen = selected_algo(cluster, kind, elems);
            for algo in algos_for(kind, p) {
                let (predicted_s, measured_s, plans) = measure(cluster, kind, algo, elems);
                bench.plans += plans;
                bench.points.push(CollPoint {
                    kind: kind_name(kind),
                    p,
                    bytes,
                    algo: algo.name(),
                    predicted_s,
                    measured_s,
                    selected: algo == chosen,
                });
            }
        }
    }
}

/// Runs the benchmark: the paper's 9-machine LAN at 1 B..512 KiB, plus an
/// 8-machine slice where recursive doubling becomes eligible.
pub fn run(quick: bool) -> CollectivesBench {
    let sizes: &[usize] = if quick {
        &[8, 65_536]
    } else {
        &[8, 8_192, 65_536, 524_288]
    };
    let mut bench = CollectivesBench {
        points: Vec::new(),
        plans: PlanCacheReport::default(),
    };
    let nine = Arc::new(Cluster::paper_lan_em3d());
    sweep(&mut bench, &nine, sizes);
    // Power-of-two communicator: recursive doubling joins the pool.
    let eight = Arc::new(Cluster::paper_lan(&hetsim::PAPER_EM3D_SPEEDS[..8]));
    sweep(&mut bench, &eight, if quick { &[65_536] } else { sizes });
    bench
}

/// Text-table rendering.
pub fn render(b: &CollectivesBench) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "# Collective engine: measured virtual time vs timeof prediction (paper LAN)"
    );
    let _ = writeln!(
        out,
        "{:>10} {:>3} {:>8} {:>18} {:>14} {:>14} {:>8} {:>5}",
        "collective", "p", "bytes", "algorithm", "measured [s]", "predicted [s]", "err [%]", "sel"
    );
    for c in &b.points {
        let _ = writeln!(
            out,
            "{:>10} {:>3} {:>8} {:>18} {:>14.6e} {:>14.6e} {:>8.3} {:>5}",
            c.kind,
            c.p,
            c.bytes,
            c.algo,
            c.measured_s,
            c.predicted_s,
            c.error_pct(),
            if c.selected { "*" } else { "" }
        );
    }
    let _ = writeln!(out);
    let _ = writeln!(out, "# Selector vs linear baseline (measured virtual time)");
    let _ = writeln!(
        out,
        "{:>10} {:>3} {:>8} {:>18} {:>8}",
        "collective", "p", "bytes", "chosen", "speedup"
    );
    for (kind, p, bytes, algo, speedup) in b.selector_wins() {
        let _ = writeln!(
            out,
            "{kind:>10} {p:>3} {bytes:>8} {algo:>18} {speedup:>8.2}"
        );
    }
    let _ = writeln!(out);
    let _ = writeln!(out, "max prediction error: {:.3}%", b.max_error_pct());
    let _ = writeln!(out, "plan cache: {}", b.plans);
    out
}

/// Serialises the benchmark to JSON (hand-formatted; the workspace's serde
/// shim has no serializer).
pub fn to_json(b: &CollectivesBench) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "{{");
    let _ = writeln!(out, "  \"max_error_pct\": {:.4},", b.max_error_pct());
    let _ = writeln!(out, "  \"points\": [");
    let n = b.points.len();
    for (i, c) in b.points.iter().enumerate() {
        let comma = if i + 1 == n { "" } else { "," };
        let _ = writeln!(
            out,
            "    {{\"kind\": \"{}\", \"p\": {}, \"bytes\": {}, \"algo\": \"{}\", \"predicted_s\": {:.9e}, \"measured_s\": {:.9e}, \"error_pct\": {:.4}, \"selected\": {}}}{comma}",
            c.kind, c.p, c.bytes, c.algo, c.predicted_s, c.measured_s, c.error_pct(), c.selected
        );
    }
    let _ = writeln!(out, "  ],");
    let _ = writeln!(out, "  \"selector_vs_linear\": [");
    let wins = b.selector_wins();
    let n = wins.len();
    for (i, (kind, p, bytes, algo, speedup)) in wins.iter().enumerate() {
        let comma = if i + 1 == n { "" } else { "," };
        let _ = writeln!(
            out,
            "    {{\"kind\": \"{kind}\", \"p\": {p}, \"bytes\": {bytes}, \"chosen\": \"{algo}\", \"speedup\": {speedup:.4}}}{comma}"
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
    fn predictions_stay_within_five_percent() {
        let b = run(true);
        assert!(!b.points.is_empty());
        assert!(
            b.max_error_pct() < 5.0,
            "worst prediction error {:.3}% breaches the 5% gate",
            b.max_error_pct()
        );
    }

    #[test]
    fn selector_beats_linear_at_64kib() {
        let b = run(true);
        for (kind, p, bytes, algo, speedup) in b.selector_wins() {
            if bytes >= 65_536 {
                assert!(
                    speedup > 1.0,
                    "{kind} p={p} at {bytes} B: selector chose {algo} with speedup {speedup:.3}"
                );
                assert_ne!(algo, "linear", "{kind} p={p} at {bytes} B");
            }
        }
        // Both headline kinds are present at 64 KiB on the 9-node LAN.
        for want in ["bcast", "allreduce"] {
            assert!(
                b.selector_wins()
                    .iter()
                    .any(|(k, p, bytes, _, _)| *k == want && *p == 9 && *bytes == 65_536),
                "missing 64 KiB selector row for {want}"
            );
        }
    }

    #[test]
    fn recursive_doubling_appears_on_the_power_of_two_slice() {
        let b = run(true);
        assert!(
            b.points
                .iter()
                .any(|c| c.p == 8 && c.algo == "recursive-doubling"),
            "p=8 sweep must include recursive doubling"
        );
        assert!(
            !b.points
                .iter()
                .any(|c| c.p == 9 && c.algo == "recursive-doubling"),
            "recursive doubling is ineligible at p=9"
        );
    }
}
