//! Hierarchical topology-aware collectives, end to end.
//!
//! A multi-site testbed built with [`hetsim::TopologyBuilder`] (slow WAN
//! between sites, fast LAN within, serialized NICs) must make the
//! hierarchy-aware `Auto` selector leave the flat algorithm family: one
//! WAN crossing per remote site instead of a root NIC queueing a WAN
//! transfer per remote rank. The hierarchical schedules are held to the
//! same contracts as the flat ones — bit-identical reduction values,
//! bit-exact `timeof` parity between prediction and execution, and
//! fault-shaped errors — while flat clusters must stay *bit-identical*
//! to their pre-topology behaviour under the hierarchy-aware selector.

use hetsim::{
    ContentionModel, FaultEvent, FaultPlan, Link, NodeId, Protocol, SimTime, TopologyBuilder,
};
use mpisim::{
    CollectiveAlgo, CollectiveKind, CollectivePolicy, MpiError, ReduceOp, Universe,
    UniverseConfig,
};
use std::sync::Arc;

/// Three sites of three workstations each: ~100 MB/s LAN inside a site,
/// a ~1 MB/s 50 ms WAN between sites. Nine ranks misalign with the flat
/// binomial tree's power-of-two structure, so flat schedules cross the
/// WAN repeatedly where a hierarchical schedule crosses it once per
/// remote site.
fn three_site_topology(cont: ContentionModel) -> hetsim::Topology {
    let lan = Link::new(1e-4, 100e6, Protocol::Tcp);
    let wan = Link::new(50e-3, 1e6, Protocol::Tcp);
    let mut b = TopologyBuilder::new()
        .intra_switch(lan)
        .inter_site(wan)
        .contention(cont);
    for site in 0..3 {
        b = b.site();
        for i in 0..3 {
            b = b.node(format!("s{site}n{i}"), 80.0 + 15.0 * i as f64);
        }
    }
    b.build()
}

fn universe(cont: ContentionModel, policy: CollectivePolicy, tracing: bool) -> Universe {
    Universe::from_topology(
        three_site_topology(cont),
        UniverseConfig::new().collective_policy(policy).tracing(tracing),
    )
}

/// Per-rank contribution with rank- and index-dependent bits.
fn contrib(rank: usize, n: usize) -> Vec<f64> {
    (0..n).map(|i| ((rank * 31 + i) % 23) as f64 * 0.75 + 1.0).collect()
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

const KINDS: [CollectiveKind; 4] = [
    CollectiveKind::Bcast,
    CollectiveKind::Reduce,
    CollectiveKind::Allreduce,
    CollectiveKind::Allgather,
];

/// The kind/contention pairs where the hierarchical plan must win on
/// the three-site testbed at 64 KiB. (Flat binomial already crosses the
/// WAN near-optimally for a serialized-NIC bcast, and the free-fan-in
/// linear reduce is unbeatable under parallel links — hierarchy is an
/// *option* the selector prices, not a mandate.)
const HIER_WINS: [(CollectiveKind, ContentionModel); 4] = [
    (CollectiveKind::Bcast, ContentionModel::ParallelLinks),
    (CollectiveKind::Reduce, ContentionModel::SerializedNic),
    (CollectiveKind::Allreduce, ContentionModel::SerializedNic),
    (CollectiveKind::Allgather, ContentionModel::SerializedNic),
];

/// On the three-site testbed the selector must route every collective
/// kind through a hierarchical schedule (under the contention model
/// where the flat family leaves room), strictly cheaper than the best
/// flat algorithm — and it must never do *worse* than the flat-only
/// selector on any kind under any model.
#[test]
fn auto_predicts_hierarchical_and_beats_flat_on_multi_site() {
    let elems = (64 * 1024) / 8; // 64 KiB of f64
    for cont in [ContentionModel::SerializedNic, ContentionModel::ParallelLinks] {
        for kind in KINDS {
            let predict = |policy: CollectivePolicy| {
                universe(cont, policy, false)
                    .run(move |proc| proc.world().predict_collective(kind, 0, elems, 8).unwrap())
                    .results[0]
            };
            let (algo, t_hier) = predict(CollectivePolicy::Auto);
            let (flat_algo, t_flat) = predict(CollectivePolicy::FlatAuto);
            assert_ne!(flat_algo, CollectiveAlgo::Hierarchical);
            assert!(
                t_hier <= t_flat,
                "{}/{cont:?}: hierarchy-aware Auto regressed: {t_hier:.6e}s vs {t_flat:.6e}s",
                kind.name()
            );
            if HIER_WINS.contains(&(kind, cont)) {
                assert_eq!(
                    algo,
                    CollectiveAlgo::Hierarchical,
                    "{}/{cont:?}: expected the hierarchical plan to win",
                    kind.name()
                );
                assert!(
                    t_hier < t_flat,
                    "{}/{cont:?}: hierarchical {t_hier:.6e}s must beat flat {t_flat:.6e}s",
                    kind.name()
                );
            }
        }
    }
}

/// Predicted == measured for hierarchical schedules: the pricer replays
/// the exact gather/movement schedule with the transport's grant/settle
/// arbitration, so fault-free parity is bit-exact (same bar as the flat
/// pricing-parity tests).
#[test]
fn hierarchical_prediction_matches_measured_makespan() {
    let elems = (64 * 1024) / 8;
    for (kind, cont) in HIER_WINS {
        let u = universe(cont, CollectivePolicy::Auto, true);
        let report = u.run(move |proc| {
            let world = proc.world();
            let me = world.rank();
            // Allgather's predictor prices the total gathered payload, so
            // round to an exact per-rank contribution first.
            let n_contrib = match kind {
                CollectiveKind::Allgather => elems / world.size(),
                _ => elems,
            };
            let pred_elems = match kind {
                CollectiveKind::Allgather => n_contrib * world.size(),
                _ => elems,
            };
            let (algo, predicted) = world.predict_collective(kind, 0, pred_elems, 8).unwrap();
            let mine = contrib(me, n_contrib);
            match kind {
                CollectiveKind::Bcast => {
                    let mut buf = contrib(0, elems);
                    world.bcast_into(&mut buf, 0).unwrap();
                }
                CollectiveKind::Reduce => {
                    world.reduce_eq_f64(&mine, ReduceOp::Sum, 0).unwrap();
                }
                CollectiveKind::Allreduce => {
                    world.allreduce_eq_f64(&mine, ReduceOp::Sum).unwrap();
                }
                CollectiveKind::Allgather => {
                    world.allgather_eq(&mine).unwrap();
                }
            }
            (algo, predicted)
        });
        let (algo, predicted) = report.results[0];
        assert_eq!(algo, CollectiveAlgo::Hierarchical, "{}", kind.name());
        let measured = report.makespan.as_secs();
        let rel = (predicted - measured).abs() / measured;
        assert!(
            rel < 1e-9,
            "{}: predicted {predicted:.9e}s vs measured {measured:.9e}s (rel {rel:.2e})",
            kind.name()
        );
        // The executed spans must name the hierarchical schedule.
        let trace = report.trace.expect("tracing enabled");
        assert!(
            trace
                .events
                .iter()
                .any(|e| e.collective && e.name == "hierarchical"),
            "{}: no hierarchical span in trace",
            kind.name()
        );
    }
}

/// Reduction results are deterministic across algorithm families: the
/// hierarchy-aware selector must hand back bitwise the same values as
/// the flat-only selector (identity-seeded ascending-rank fold on both
/// paths), for every kind.
#[test]
fn hierarchical_values_bitwise_match_flat_selector() {
    let elems = (64 * 1024) / 8;
    let run = |policy: CollectivePolicy| {
        let u = universe(ContentionModel::SerializedNic, policy, false);
        u.run(move |proc| {
            let world = proc.world();
            let me = world.rank();
            let mine = contrib(me, elems);
            let mut b = contrib(0, elems);
            world.bcast_into(&mut b, 0).unwrap();
            let r = world.reduce_eq_f64(&mine, ReduceOp::Sum, 0).unwrap();
            let ar = world.allreduce_eq_f64(&mine, ReduceOp::Prod).unwrap();
            let ag = world.allgather_eq(&mine).unwrap();
            (
                bits(&b),
                r.map(|v| bits(&v)),
                bits(&ar),
                bits(&ag),
            )
        })
    };
    let hier = run(CollectivePolicy::Auto);
    let flat = run(CollectivePolicy::FlatAuto);
    assert_eq!(hier.results, flat.results);
}

/// Flat clusters stay bit-identical under the hierarchy-aware selector:
/// with no declared topology and no latency structure to infer, `Auto`
/// and `FlatAuto` produce the same virtual times to the bit.
#[test]
fn flat_cluster_auto_is_bit_identical_to_flat_auto() {
    let cluster = || {
        let mut b = TopologyBuilder::new();
        for i in 0..6 {
            b = b.node(format!("h{i}"), 50.0 + 10.0 * i as f64);
        }
        Arc::new(
            b.intra_switch(Link::new(1e-4, 1e7, Protocol::Tcp))
                .build()
                .into_parts()
                .0,
        )
    };
    let run = |policy: CollectivePolicy| {
        let u = Universe::with_config(
            cluster(),
            UniverseConfig::new().collective_policy(policy),
        );
        u.run(|proc| {
            let world = proc.world();
            let mine = contrib(world.rank(), 256);
            let ar = world.allreduce_eq_f64(&mine, ReduceOp::Sum).unwrap();
            let ag = world.allgather_eq(&mine).unwrap();
            (bits(&ar), bits(&ag))
        })
    };
    let auto = run(CollectivePolicy::Auto);
    let flat = run(CollectivePolicy::FlatAuto);
    assert_eq!(auto.results, flat.results);
    assert_eq!(
        auto.makespan.as_secs().to_bits(),
        flat.makespan.as_secs().to_bits(),
        "virtual time diverged on a flat cluster"
    );
}

/// A one-level `TopologyBuilder` build run through its own placement is
/// the same universe as its bare cluster at one rank per node: same
/// links, same virtual times to the bit.
#[test]
fn one_level_topology_matches_flat_cluster_bitwise() {
    let speeds = [46.0, 176.0, 106.0, 9.0];
    let mut tb = TopologyBuilder::new().intra_switch(Link::new(2e-4, 5e6, Protocol::Tcp));
    for (i, &s) in speeds.iter().enumerate() {
        tb = tb.node(format!("ws{i}"), s);
    }
    let topo = tb.build();
    let flat = Arc::new(topo.cluster().clone());
    assert!(topo.cluster().topology().is_none(), "flat stays undeclared");
    let workload = |proc: &mpisim::Process| {
        let world = proc.world();
        let mine = contrib(world.rank(), 128);
        let sum = world.allreduce_eq_f64(&mine, ReduceOp::Sum).unwrap();
        let (rx, _) = world
            .sendrecv::<f64, f64>(
                &mine,
                (world.rank() + 1) % world.size(),
                5,
                (world.rank() + world.size() - 1) % world.size(),
                5,
            )
            .unwrap();
        (bits(&sum), bits(&rx))
    };
    let from_topo = Universe::from_topology(topo, UniverseConfig::new()).run(workload);
    let from_flat = Universe::new(flat).run(workload);
    assert_eq!(from_topo.results, from_flat.results);
    assert_eq!(
        from_topo.makespan.as_secs().to_bits(),
        from_flat.makespan.as_secs().to_bits()
    );
}

/// A node crash mid-collective surfaces as fault-shaped typed errors on
/// the ranks a hierarchical schedule strands, never as a hang or a
/// silent wrong answer.
#[test]
fn hierarchical_collectives_keep_the_fault_contract() {
    let lan = Link::new(1e-4, 100e6, Protocol::Tcp);
    let wan = Link::new(50e-3, 1e6, Protocol::Tcp);
    let plan = FaultPlan::none().with(FaultEvent::NodeCrash {
        node: NodeId(5),
        at: SimTime::from_secs(1e-3),
    });
    let mut b = TopologyBuilder::new()
        .intra_switch(lan)
        .inter_site(wan)
        .contention(ContentionModel::SerializedNic)
        .faults(plan);
    for site in 0..3 {
        b = b.site();
        for i in 0..3 {
            b = b.node(format!("s{site}n{i}"), 100.0);
        }
    }
    let u = Universe::from_topology(b.build(), UniverseConfig::new());
    let elems = (64 * 1024) / 8;
    let report = u.run(move |proc| {
        let world = proc.world();
        // The schedule must be hierarchical for the contract to be about
        // the hierarchical executor at all.
        let picked = world.predict_collective(CollectiveKind::Allreduce, 0, elems, 8);
        let mine = contrib(world.rank(), elems);
        let out = world.allreduce_eq_f64(&mine, ReduceOp::Sum);
        (picked.map(|(a, _)| a), out.err())
    });
    let (picked, _) = &report.results[0];
    assert_eq!(*picked, Ok(CollectiveAlgo::Hierarchical));
    let mut failures = 0;
    for (rank, (_, err)) in report.results.iter().enumerate() {
        if let Some(e) = err {
            failures += 1;
            assert!(
                matches!(e, MpiError::NodeFailed { .. } | MpiError::LinkDown { .. }),
                "rank {rank}: non-fault-shaped error {e:?}"
            );
        }
    }
    assert!(failures > 0, "the dead node must strand someone");
}
