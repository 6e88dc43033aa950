//! Deadlock-detection latency micro-bench
//! (`figures -- deadlock` → `BENCH_deadlock.json`).
//!
//! Before the quiescence detector, a wedged run sat out a 60 s wall-clock
//! watchdog before anything was reported. The detector classifies the
//! blocked state *exactly* the moment the last active rank blocks —
//! cyclic waits get [`MpiError::Deadlock`] with the wait graph, waits
//! orphaned by a crash get [`MpiError::NodeFailed`] — so detection is
//! event-driven, not timer-driven. This bench seeds both shapes at
//! several cluster sizes, measures the *wall-clock* time from launch to
//! every rank holding its typed verdict, and gates two claims in CI:
//!
//! * every seeded wedge is detected in **under one second** of real time
//!   (the timer-driven baseline took the full watchdog period);
//! * every rank's error is the *right type* — the cycle surfaces as
//!   `Deadlock` carrying a wait graph that names the waiting ranks, the
//!   orphan as `NodeFailed` naming the dead peer.

use crate::report::{Report, Value};
use hetsim::{ClusterBuilder, FaultEvent, FaultPlan, Link, NodeId, Protocol, SimTime};
use mpisim::{MpiError, Universe};
use std::sync::Arc;
use std::time::Instant;

/// One seeded-wedge measurement.
struct Wedge {
    /// Wedge shape: "cycle" (ring of receives, nobody sends) or "orphan"
    /// (every survivor receives from a rank that crashed before sending).
    scenario: &'static str,
    /// Cluster size.
    p: usize,
    /// Wall-clock seconds from launch to every rank returning.
    wall_s: f64,
    /// The error type the scenario must surface ("deadlock"/"node-failed").
    expect: &'static str,
    /// Whether every rank returned the expected typed error (and, for the
    /// cycle, a wait graph covering the whole ring).
    all_typed: bool,
}

/// Homogeneous `n`-node cluster (1 ms / 10 MB/s links).
fn cluster(n: usize, faults: FaultPlan) -> Arc<hetsim::Cluster> {
    let mut b = ClusterBuilder::new();
    for i in 0..n {
        b = b.node(format!("h{i}"), 100.0);
    }
    Arc::new(
        b.all_to_all(Link::new(1e-3, 1e7, Protocol::Tcp))
            .faults(faults)
            .build(),
    )
}

/// Seeds a receive ring with no senders: rank `r` blocks on `r+1 mod p`.
/// Every rank must come back with [`MpiError::Deadlock`] whose wait graph
/// has one edge per rank.
fn measure_cycle(p: usize) -> Wedge {
    let u = Universe::new(cluster(p, FaultPlan::none()));
    let started = Instant::now();
    let report = u.run(move |proc| {
        let world = proc.world();
        let right = (world.rank() + 1) % p;
        world.recv::<i64>(right, 7).err()
    });
    let wall_s = started.elapsed().as_secs_f64();
    let all_typed = report.results.iter().enumerate().all(|(r, e)| match e {
        Some(MpiError::Deadlock { waiting, on, graph }) => {
            *waiting == r && on.contains(&((r + 1) % p)) && graph.edges.len() == p
        }
        _ => false,
    });
    Wedge {
        scenario: "cycle",
        p,
        wall_s,
        expect: "deadlock",
        all_typed,
    }
}

/// Crashes rank `p-1` before it sends anything; every survivor blocks
/// receiving from it. The quiescence terminal round must hand every
/// survivor [`MpiError::NodeFailed`] naming the dead rank — this is a
/// fault orphan, not a deadlock.
fn measure_orphan(p: usize) -> Wedge {
    let dead = p - 1;
    let plan = FaultPlan::none().with(FaultEvent::NodeCrash {
        node: NodeId(dead),
        at: SimTime::from_secs(1e-6),
    });
    let u = Universe::new(cluster(p, plan));
    let started = Instant::now();
    let report = u.run(move |proc| {
        let world = proc.world();
        if world.rank() == dead {
            // Dies discovering its own crash; never sends.
            return proc.try_compute(1.0).err();
        }
        world.recv::<i64>(dead, 7).err()
    });
    let wall_s = started.elapsed().as_secs_f64();
    let all_typed = report
        .results
        .iter()
        .all(|e| matches!(e, Some(MpiError::NodeFailed { world_rank }) if *world_rank == dead));
    Wedge {
        scenario: "orphan",
        p,
        wall_s,
        expect: "node-failed",
        all_typed,
    }
}

/// Runs the benchmark over both wedge shapes at several cluster sizes.
pub fn run(quick: bool) -> Report {
    let sizes: &[usize] = if quick { &[2, 4] } else { &[2, 4, 9, 16] };
    let wedges: Vec<Wedge> = (sizes.iter())
        .flat_map(|&p| [measure_cycle(p), measure_orphan(p)])
        .collect();
    let max_wall_s = wedges.iter().map(|w| w.wall_s).fold(0.0, f64::max);
    let all_typed = wedges.iter().all(|w| w.all_typed);

    let mut r = Report::new(
        "deadlock",
        "Deadlock detection latency: seeded wedge -> typed verdict (wall clock)",
    );
    r.summary = vec![
        ("max_wall_s", Value::Fixed(max_wall_s, 6)),
        ("all_typed", all_typed.into()),
    ];
    let row = |w: &Wedge| {
        vec![
            ("scenario", w.scenario.into()),
            ("p", w.p.into()),
            ("expect", w.expect.into()),
            ("wall_s", Value::Fixed(w.wall_s, 6)),
            ("all_typed", w.all_typed.into()),
        ]
    };
    r.tables.push(("points", wedges.iter().map(row).collect()));
    let claim = "every seeded wedge surfaces its expected typed error on every rank";
    r.gate(all_typed, claim);
    let claim = format!("slowest detection {max_wall_s:.4}s wall under 1s (legacy watchdog: 60s)");
    r.gate(max_wall_s < 1.0, claim);
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_wedge_is_detected_typed_and_fast() {
        let r = run(true);
        assert_eq!(r.tables[0].1.len(), 4);
        r.enforce()
            .unwrap_or_else(|e| panic!("{e}\n{}", r.render()));
    }
}
