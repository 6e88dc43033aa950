//! Predicted vs measured virtual time of the engine collectives, over lists
//! of testbeds: one [`measure`], one sweep, three `figures` benches.
//!
//! * [`collectives`] (`BENCH_collectives.json`) — the paper's 9-machine LAN
//!   and its 8-machine slice (where recursive doubling becomes eligible),
//!   every selectable algorithm pinned in turn, plus what `Auto` picks and
//!   what that pick gains over the linear baseline. Parallel links: no
//!   transfer ever queues.
//! * [`contention`] (`BENCH_contention.json`) — the harder half of the
//!   parity claim: serialized NICs, the shared bus and a dual-slot
//!   memory-bus testbed, where every transfer contends and the pricer has to
//!   replay the transport's grant / settle arbitration to stay exact.
//! * [`hierarchy`] (`BENCH_hierarchy.json`) — three sites of five
//!   workstations behind a slow WAN, every kind under the topology-aware
//!   `Auto` selector and under the flat-only one.
//!
//! Every number here is virtual time, so the three files are deterministic:
//! the checked-in copy *is* the baseline and CI fails if a regenerated file
//! differs by a byte. The gates on top are the claims themselves: prediction
//! within 5 % of measurement (it is exact), the selector's pick beating
//! linear at ≥ 64 KiB, and hierarchy awareness worth at least
//! [`HIER_SPEEDUP_GATE`]× somewhere at ≥ 64 KiB while losing nowhere.

use crate::paper_lan_with;
use crate::report::{Fields, Report, Value};
use hetsim::{
    Cluster, ClusterBuilder, ContentionModel, Link, NodeId, Processor, Protocol, TopologyBuilder,
    PAPER_EM3D_SPEEDS,
};
use mpisim::{
    CollectiveAlgo, CollectiveKind, CollectivePolicy, PlanCacheReport, ReduceOp, Universe,
    UniverseConfig,
};
use perfmodel::collective::algos_for;
use std::sync::Arc;

/// Minimum speedup of the hierarchy-aware selector over the flat-only
/// selector, required on at least one collective kind at ≥64 KiB.
pub const HIER_SPEEDUP_GATE: f64 = 1.5;

const LARGE: usize = 64 * 1024;

/// A network and where the ranks sit on it.
pub struct Testbed {
    /// Row label (`BENCH_contention.json`'s `model` column).
    pub label: &'static str,
    /// The network.
    pub cluster: Arc<Cluster>,
    /// `placement[rank]` is the hosting node.
    pub placement: Vec<NodeId>,
}

impl Testbed {
    /// One rank per node, in node order.
    fn flat(label: &'static str, cluster: Arc<Cluster>) -> Self {
        let placement = cluster.node_ids().collect();
        Testbed {
            label,
            cluster,
            placement,
        }
    }
}

/// Runs one collective of `elems` f64 elements on its own universe under
/// `request` and returns the algorithm the request resolved to, its
/// `timeof`-style predicted virtual seconds, the measured virtual makespan,
/// and the run's plan-cache counters. The prediction is the very plan the
/// call then executes: `request` is the universe's policy, so the
/// un-suffixed collective resolves to the same cached plan.
pub fn measure(
    testbed: &Testbed,
    kind: CollectiveKind,
    request: CollectivePolicy,
    elems: usize,
) -> (CollectiveAlgo, f64, f64, PlanCacheReport) {
    let config = UniverseConfig::new()
        .placement(testbed.placement.clone())
        .collective_policy(request);
    let report = Universe::with_config(testbed.cluster.clone(), config).run(move |proc| {
        let world = proc.world();
        // An allgather plan prices the total gathered payload, which is a
        // whole number of equal per-rank contributions.
        let gathers = kind == CollectiveKind::Allgather;
        let shares = if gathers { world.size() } else { 1 };
        let (contrib, total) = (elems / shares, elems / shares * shares);
        let plan = world
            .collective_plan(kind, request, 0, total, 8)
            .expect("plannable collective");
        let mut buf = vec![1.0f64; contrib];
        match kind {
            CollectiveKind::Bcast => world.bcast_into(&mut buf, 0).expect("bcast"),
            CollectiveKind::Reduce => {
                world.reduce_eq_f64(&buf, ReduceOp::Sum, 0).expect("reduce");
            }
            CollectiveKind::Allreduce => {
                world
                    .allreduce_eq_f64(&buf, ReduceOp::Sum)
                    .expect("allreduce");
            }
            CollectiveKind::Allgather => {
                world.allgather_eq(&buf).expect("allgather");
            }
        }
        (plan.algo, plan.seconds)
    });
    let (algo, predicted_s) = report.results[0];
    (algo, predicted_s, report.makespan.as_secs(), report.plans)
}

/// One measured (testbed, kind, size, request) — see [`measure`].
#[derive(Debug, Clone, Copy, PartialEq)]
struct Point {
    /// The testbed's label.
    testbed: &'static str,
    /// Collective kind.
    kind: CollectiveKind,
    /// Communicator size (ranks).
    p: usize,
    /// Message size in bytes (f64 elements × 8).
    bytes: usize,
    /// What ran: the pinned algorithm, or the selector's pick.
    algo: CollectiveAlgo,
    /// Predicted virtual time, seconds.
    predicted_s: f64,
    /// Measured virtual makespan, seconds.
    measured_s: f64,
}

impl Point {
    /// Relative prediction error, percent.
    fn error_pct(&self) -> f64 {
        if self.measured_s <= 0.0 {
            return 0.0;
        }
        (self.predicted_s - self.measured_s).abs() / self.measured_s * 100.0
    }

    /// How many times faster than `other` this point measured.
    fn speedup_over(&self, other: &Point) -> f64 {
        if self.measured_s <= 0.0 {
            return 1.0;
        }
        other.measured_s / self.measured_s
    }

    fn same_cell(&self, other: &Point) -> bool {
        (self.testbed, self.kind, self.bytes) == (other.testbed, other.kind, other.bytes)
    }
}

/// The points of a run, in sweep order, and the plan-cache counters summed
/// over its universes.
#[derive(Debug, Default)]
struct Sweep {
    /// Every measured point.
    points: Vec<Point>,
    /// Host-side planning work (text only: it is not virtual time).
    plans: PlanCacheReport,
}

impl Sweep {
    /// Measures `kinds × sizes × requests(kind, p)` on one testbed. The
    /// requests of one (kind, size) *cell* stay adjacent ([`Sweep::cells`]).
    fn run(
        &mut self,
        testbed: &Testbed,
        kinds: &[CollectiveKind],
        sizes: &[usize],
        requests: impl Fn(CollectiveKind, usize) -> Vec<CollectivePolicy>,
    ) {
        let p = testbed.placement.len();
        for &kind in kinds {
            for &bytes in sizes {
                for request in requests(kind, p) {
                    let (algo, predicted_s, measured_s, plans) =
                        measure(testbed, kind, request, (bytes / 8).max(1));
                    self.plans += plans;
                    self.points.push(Point {
                        testbed: testbed.label,
                        kind,
                        p,
                        bytes,
                        algo,
                        predicted_s,
                        measured_s,
                    });
                }
            }
        }
    }

    fn cells(&self) -> impl Iterator<Item = &[Point]> {
        self.points.chunk_by(Point::same_cell)
    }

    fn total_measured_s(&self) -> f64 {
        self.points.iter().map(|c| c.measured_s).sum()
    }

    /// Starts the report every parity bench returns: the error summary, the
    /// 5 % gate and the plan-cache note.
    fn report(&self, name: &'static str, title: &str) -> Report {
        let err = (self.points.iter().map(Point::error_pct)).fold(0.0, f64::max);
        let mut r = Report::new(name, title);
        r.summary.push(("max_error_pct", Value::Fixed(err, 4)));
        let claim = format!("timeof prediction error {err:.3}% within 5% of measured");
        r.gate(err <= 5.0, claim);
        r.notes.push(format!("plan cache: {}", self.plans));
        r
    }
}

const HEADLINE_KINDS: [CollectiveKind; 2] = [CollectiveKind::Bcast, CollectiveKind::Allreduce];
const SIZES: [usize; 4] = [8, 8_192, LARGE, 524_288];
const WAN_SIZES: [usize; 4] = [1_024, 8_192, LARGE, 262_144];

/// Every eligible algorithm pinned in turn.
fn every_algo(kind: CollectiveKind, p: usize) -> Vec<CollectivePolicy> {
    algos_for(kind, p)
        .into_iter()
        .map(CollectivePolicy::Fixed)
        .collect()
}

/// The columns shared by the pinned-algorithm tables.
fn pinned_row(c: &Point) -> Fields {
    vec![
        ("kind", c.kind.name().into()),
        ("p", c.p.into()),
        ("bytes", c.bytes.into()),
        ("algo", c.algo.name().into()),
        ("predicted_s", Value::Sci(c.predicted_s, 9)),
        ("measured_s", Value::Sci(c.measured_s, 9)),
        ("error_pct", Value::Fixed(c.error_pct(), 4)),
    ]
}

fn lan_sweep(sizes: &[usize]) -> Sweep {
    let auto_then_every_algo = |kind, p| {
        let mut requests = vec![CollectivePolicy::Auto];
        requests.extend(every_algo(kind, p));
        requests
    };
    let mut sweep = Sweep::default();
    let nine = Testbed::flat("lan9", Arc::new(Cluster::paper_lan_em3d()));
    sweep.run(&nine, &HEADLINE_KINDS, sizes, auto_then_every_algo);
    // Power-of-two communicator: recursive doubling joins the pool.
    let eight = Testbed::flat(
        "lan8",
        Arc::new(Cluster::paper_lan(&PAPER_EM3D_SPEEDS[..8])),
    );
    sweep.run(&eight, &HEADLINE_KINDS, sizes, auto_then_every_algo);
    sweep
}

/// The `collectives` bench.
pub fn collectives() -> Report {
    collectives_report(&lan_sweep(&SIZES))
}

fn collectives_report(sweep: &Sweep) -> Report {
    let mut r = sweep.report(
        "collectives",
        "Collective engine: measured virtual time vs timeof prediction (paper LAN)",
    );
    let (mut points, mut wins) = (Vec::new(), Vec::new());
    let mut beats_linear = true;
    for cell in sweep.cells() {
        let (auto, pinned) = cell.split_first().expect("a cell starts with Auto");
        for c in pinned {
            let mut row = pinned_row(c);
            row.push(("selected", (c.algo == auto.algo).into()));
            points.push(row);
        }
        let linear = pinned.iter().find(|c| c.algo == CollectiveAlgo::Linear);
        let speedup = auto.speedup_over(linear.expect("linear is always eligible"));
        if auto.bytes >= LARGE {
            beats_linear &= speedup > 1.0 && auto.algo != CollectiveAlgo::Linear;
        }
        wins.push(vec![
            ("kind", auto.kind.name().into()),
            ("p", auto.p.into()),
            ("bytes", auto.bytes.into()),
            ("chosen", auto.algo.name().into()),
            ("speedup", Value::Fixed(speedup, 4)),
        ]);
    }
    r.tables = vec![("points", points), ("selector_vs_linear", wins)];
    let claim = "the selector's pick beats linear at every cell >= 64 KiB";
    r.gate(beats_linear, claim);
    r
}

/// Four dual-slot workstations with a modelled memory bus: eight ranks,
/// block-placed two per node, so half of every collective's traffic
/// crosses the intra-node memory bus instead of the wire.
fn mem_bus_testbed() -> Testbed {
    let mut b = ClusterBuilder::new();
    for (i, &s) in PAPER_EM3D_SPEEDS[..4].iter().enumerate() {
        b = b.processor(Processor::new(format!("smp{i:02}"), s).with_slots(2));
    }
    let cluster = b
        .all_to_all(Link::with_defaults(Protocol::Tcp))
        .contention(ContentionModel::ParallelLinks)
        .mem_bus(Link::new(1e-6, 1e9, Protocol::SharedMemory))
        .build();
    Testbed {
        label: "mem",
        cluster: Arc::new(cluster),
        placement: (0..8).map(|r| NodeId(r / 2)).collect(),
    }
}

fn contended_sweep(sizes: &[usize]) -> Sweep {
    let mut sweep = Sweep::default();
    for testbed in [
        Testbed::flat("nic", paper_lan_with(ContentionModel::SerializedNic)),
        Testbed::flat("bus", paper_lan_with(ContentionModel::SharedBus)),
        mem_bus_testbed(),
    ] {
        sweep.run(&testbed, &HEADLINE_KINDS, sizes, every_algo);
    }
    sweep
}

/// The `contention` bench.
pub fn contention() -> Report {
    contention_report(&contended_sweep(&SIZES))
}

fn contention_report(sweep: &Sweep) -> Report {
    let mut r = sweep.report(
        "contention",
        "Contended timeof: measured virtual time vs prediction (NIC / bus / memory bus)",
    );
    let total = Value::Fixed(sweep.total_measured_s(), 9);
    r.summary.push(("total_measured_s", total));
    let row = |c: &Point| [vec![("model", c.testbed.into())], pinned_row(c)].concat();
    r.tables
        .push(("points", sweep.points.iter().map(row).collect()));
    r
}

/// Three sites of five workstations: ~100 MB/s LAN within a site, a
/// ~1 MB/s 50 ms WAN between sites, serialized NICs. Fifteen ranks misalign
/// with the flat algorithms' structure, so flat schedules queue WAN
/// transfers on root NICs where the hierarchical plan crosses the WAN once
/// per remote site.
fn multi_site_testbed() -> Testbed {
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
    let (cluster, placement) = b.build().into_parts();
    Testbed {
        label: "wan",
        cluster: Arc::new(cluster),
        placement,
    }
}

fn wan_sweep(sizes: &[usize]) -> Sweep {
    let kinds = [
        CollectiveKind::Bcast,
        CollectiveKind::Reduce,
        CollectiveKind::Allreduce,
        CollectiveKind::Allgather,
    ];
    let mut sweep = Sweep::default();
    sweep.run(&multi_site_testbed(), &kinds, sizes, |_, _| {
        vec![CollectivePolicy::Auto, CollectivePolicy::FlatAuto]
    });
    sweep
}

/// The `hierarchy` bench.
pub fn hierarchy() -> Report {
    hierarchy_report(&wan_sweep(&WAN_SIZES))
}

fn hierarchy_report(sweep: &Sweep) -> Report {
    let mut r = sweep.report(
        "hierarchy",
        "Hierarchical collectives: topology-aware Auto vs flat-only selector \
         (3 sites x 5 nodes, WAN 1 MB/s / 50 ms, serialized NICs)",
    );
    // Best speedup at >= 64 KiB where the selector actually left the flat
    // family, and the worst anywhere: it prices the flat family too and
    // only leaves it when strictly cheaper, so it must never lose.
    let (mut best_large, mut worst) = (0.0, f64::INFINITY);
    let mut points = Vec::new();
    for cell in sweep.cells() {
        let (hier, flat) = (&cell[0], &cell[1]);
        let speedup = hier.speedup_over(flat);
        if hier.bytes >= LARGE && hier.algo == CollectiveAlgo::Hierarchical {
            best_large = f64::max(best_large, speedup);
        }
        worst = worst.min(speedup);
        points.push(vec![
            ("kind", hier.kind.name().into()),
            ("p", hier.p.into()),
            ("bytes", hier.bytes.into()),
            ("hier_algo", hier.algo.name().into()),
            ("flat_algo", flat.algo.name().into()),
            ("hier_predicted_s", Value::Sci(hier.predicted_s, 9)),
            ("hier_measured_s", Value::Sci(hier.measured_s, 9)),
            ("flat_measured_s", Value::Sci(flat.measured_s, 9)),
            ("speedup", Value::Fixed(speedup, 4)),
            ("error_pct", Value::Fixed(hier.error_pct(), 4)),
        ]);
    }
    r.summary.extend([
        ("best_large_speedup", Value::Fixed(best_large, 4)),
        ("min_speedup", Value::Fixed(worst, 4)),
        (
            "total_measured_s",
            Value::Fixed(sweep.total_measured_s(), 9),
        ),
    ]);
    r.tables.push(("points", points));
    let claim = format!("hierarchical selector {best_large:.2}x over flat at >= 64 KiB");
    r.gate(best_large >= HIER_SPEEDUP_GATE, claim);
    let claim = format!("hierarchy-aware selector never loses to flat (worst {worst:.3}x)");
    r.gate(worst >= 1.0 - 1e-9, claim);
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The benches' gates over the 64 KiB column alone, where every claim
    /// is made (the full sizes are the checked-in files' test).
    #[test]
    fn every_gate_holds_on_every_testbed_list() {
        for r in [
            collectives_report(&lan_sweep(&[LARGE])),
            contention_report(&contended_sweep(&[LARGE])),
            hierarchy_report(&wan_sweep(&[LARGE])),
        ] {
            assert!(!r.tables[0].1.is_empty());
            r.enforce()
                .unwrap_or_else(|e| panic!("{e}\n{}", r.render()));
        }
    }

    #[test]
    fn the_sweep_is_deterministic() {
        for sweep in [lan_sweep, contended_sweep, wan_sweep] {
            let (a, b) = (sweep(&[8, LARGE]), sweep(&[8, LARGE]));
            assert_eq!(a.points.len(), b.points.len());
            for (x, y) in a.points.iter().zip(&b.points) {
                assert_eq!(x.measured_s.to_bits(), y.measured_s.to_bits(), "{x:?}");
                assert_eq!(x.predicted_s.to_bits(), y.predicted_s.to_bits(), "{x:?}");
                assert_eq!(x.algo, y.algo, "{x:?}");
            }
        }
    }

    #[test]
    fn the_lists_cover_what_they_claim() {
        let lan = lan_sweep(&[LARGE]);
        let ran = |p: usize, algo| lan.points.iter().any(|c| c.p == p && c.algo == algo);
        assert!(
            ran(8, CollectiveAlgo::RecursiveDoubling),
            "p=8 must include recursive doubling"
        );
        assert!(
            !ran(9, CollectiveAlgo::RecursiveDoubling),
            "ineligible at p=9"
        );
        for kind in HEADLINE_KINDS {
            assert!(
                lan.points
                    .iter()
                    .any(|c| c.kind == kind && c.p == 9 && c.bytes == LARGE),
                "missing 64 KiB row for {}",
                kind.name()
            );
        }
        let contended = contended_sweep(&[LARGE]);
        for want in ["nic", "bus", "mem"] {
            assert!(
                contended.points.iter().any(|c| c.testbed == want),
                "missing {want} slice"
            );
        }
        let wan = wan_sweep(&[LARGE]);
        assert!(
            wan.points
                .iter()
                .any(|c| c.algo == CollectiveAlgo::Hierarchical),
            "the selector never left the flat family"
        );
    }
}
