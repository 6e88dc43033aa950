//! The universe-shared plan cache, from outside the crate.
//!
//! A cached [`Plan`] must be indistinguishable from one planned afresh:
//! [`mpisim::plan::build`] is a pure function of the key, the cache only
//! decides *who* runs it. These tests hold the cache to that — entry ≡
//! oracle on random topologies and sub-communicators, one build per
//! distinct call however many ranks ask, keys that differ only in the
//! rank → node map kept apart, and results, makespans and predictions
//! bit-identical whether a plan was shared, rebuilt after eviction, built
//! cold or kept from an earlier run of the same universe.

use hetsim::{ContentionModel, Link, NodeId, Protocol, SimTime, Topology, TopologyBuilder};
use mpisim::plan::build;
use mpisim::{
    CollectiveAlgo, CollectiveKind, CollectivePolicy, Comm, Plan, PlanKey, ReduceOp, Universe,
    UniverseConfig,
};
use proptest::prelude::*;
use std::sync::Arc;

const KINDS: [CollectiveKind; 4] = [
    CollectiveKind::Bcast,
    CollectiveKind::Reduce,
    CollectiveKind::Allreduce,
    CollectiveKind::Allgather,
];

const CONTENTION: [ContentionModel; 3] = [
    ContentionModel::ParallelLinks,
    ContentionModel::SerializedNic,
    ContentionModel::SharedBus,
];

/// `sites` sites of `per_site` nodes, `rpn` ranks on each node; one site
/// is a flat cluster. `mem` adds the intra-node memory bus.
fn topology(
    sites: usize,
    per_site: usize,
    rpn: usize,
    mem: bool,
    cont: ContentionModel,
) -> Topology {
    let mut b = TopologyBuilder::new()
        .intra_switch(Link::new(1e-4, 100e6, Protocol::Tcp))
        .inter_site(Link::new(20e-3, 2e6, Protocol::Tcp))
        .contention(cont);
    if mem {
        b = b.mem_bus(Link::new(1e-7, 4e9, Protocol::SharedMemory));
    }
    for s in 0..sites {
        b = b.site();
        for i in 0..per_site {
            b = b
                .node(format!("s{s}n{i}"), 60.0 + 20.0 * i as f64)
                .ranks(rpn);
        }
    }
    b.build()
}

fn nodes_of(comm: &Comm) -> Vec<NodeId> {
    (0..comm.size()).map(|r| comm.node_of(r)).collect()
}

fn contrib(rank: usize, n: usize) -> Vec<f64> {
    (0..n)
        .map(|i| ((rank * 31 + i) % 23) as f64 * 0.75 + 1.0)
        .collect()
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Every request a key can carry at this communicator size.
fn requests() -> Vec<CollectivePolicy> {
    let mut all = vec![CollectivePolicy::Auto, CollectivePolicy::FlatAuto];
    all.extend(CollectiveAlgo::ALL.map(CollectivePolicy::Fixed));
    all.push(CollectivePolicy::Fixed(CollectiveAlgo::Hierarchical));
    all
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Whatever the topology, sub-communicator and call, what the cache
    /// hands out is what `build` makes of the same key — algorithm,
    /// prediction bits, rounds, hierarchical plan — or the same error; and
    /// all members of one communicator hold the very same `Arc`.
    #[test]
    fn cached_plans_equal_fresh_builds(
        sites in 1usize..4,
        per_site in 1usize..4,
        // ranks per node × memory bus × contention model × split colours
        knobs in 0usize..24,
        root_pick in 0usize..64,
        elems in 0usize..5000,
        bytes_pick in 0usize..3,
    ) {
        let (rpn, mem, cont, colors) =
            (1 + knobs % 2, knobs / 2 % 2 == 1, CONTENTION[knobs / 4 % 3], 1 + knobs / 12);
        let topo = topology(sites, per_site, rpn, mem, cont);
        let elem_bytes = [1usize, 4, 8][bytes_pick];
        let u = Universe::from_topology(topo, UniverseConfig::new());
        let report = u.run(move |proc| -> Result<Vec<Option<Arc<Plan>>>, String> {
            let world = proc.world();
            let color = (world.rank() % colors) as i32;
            let comm = world
                .split(Some(color), world.rank() as i32)
                .map_err(|e| format!("{e:?}"))?
                .expect("every rank has a colour");
            let root = root_pick % comm.size();
            let mut held = Vec::new();
            for kind in KINDS {
                for request in requests() {
                    let cached = comm.collective_plan(kind, request, root, elems, elem_bytes);
                    // One member per communicator pays for the oracle.
                    if comm.rank() == 0 {
                        let fresh =
                            PlanKey::new(kind, request, nodes_of(&comm), root, elems, elem_bytes)
                                .and_then(|key| build(&key, proc.cluster()));
                        match (&cached, &fresh) {
                            (Ok(c), Ok(f)) => {
                                if **c != *f || c.seconds.to_bits() != f.seconds.to_bits() {
                                    return Err(format!(
                                        "{}/{request:?}: cached {c:?} != fresh {f:?}",
                                        kind.name()
                                    ));
                                }
                            }
                            (Err(c), Err(f)) if c == f => {}
                            _ => {
                                return Err(format!(
                                    "{}/{request:?}: cached {cached:?} vs fresh {fresh:?}",
                                    kind.name()
                                ))
                            }
                        }
                    }
                    held.push(cached.ok());
                }
            }
            Ok(held)
        });
        let p = report.results.len();
        let held: Vec<_> = report
            .results
            .into_iter()
            .collect::<Result<_, _>>()
            .map_err(TestCaseError::Fail)?;
        for r in colors..p {
            // Rank r shares a communicator with rank r − colors.
            for (mine, theirs) in held[r].iter().zip(&held[r - colors]) {
                match (mine, theirs) {
                    (Some(a), Some(b)) => prop_assert!(Arc::ptr_eq(a, b)),
                    (None, None) => {}
                    _ => prop_assert!(false, "members disagree on whether a plan exists"),
                }
            }
        }
        let plans = report.plans;
        prop_assert_eq!(plans.hits + plans.built, plans.lookups);
        // Communicators over the same node vector share entries, so the
        // distinct keys are at most one set per colour.
        prop_assert!(plans.built as usize <= colors * KINDS.len() * requests().len());
    }
}

/// Sixty-four ranks arriving at one call plan it once.
#[test]
fn one_build_serves_all_ranks_of_a_call() {
    let u = Universe::from_topology(
        topology(1, 64, 1, false, ContentionModel::ParallelLinks),
        UniverseConfig::new(),
    );
    let report = u.run(|proc| {
        let world = proc.world();
        let mut buf = contrib(world.rank(), 512);
        world.bcast_into(&mut buf, 5).unwrap();
        bits(&buf)
    });
    assert!(report.results.iter().all(|b| *b == bits(&contrib(5, 512))));
    let plans = report.plans;
    assert_eq!((plans.built, plans.hits, plans.lookups), (1, 63, 64));
    assert_eq!((plans.evicted, plans.resident_plans), (0, 1));
}

/// The key is the rank → node vector: equal-sized communicators over
/// different nodes — or the same nodes in another rank order — never
/// share an entry, while a `dup` (same vector, new context id) does.
#[test]
fn plans_are_keyed_by_the_rank_to_node_map() {
    let u = Universe::from_topology(
        topology(2, 2, 1, false, ContentionModel::SerializedNic),
        UniverseConfig::new(),
    );
    let report = u.run(|proc| {
        let world = proc.world();
        let me = world.rank() as i32;
        let plan_on = |c: &Comm| {
            c.collective_plan(CollectiveKind::Bcast, CollectivePolicy::Auto, 0, 256, 8)
                .unwrap()
        };
        let half = world.split(Some(me / 2), me).unwrap().unwrap();
        let reversed = world.split(Some(me / 2), -me).unwrap().unwrap();
        let dup = half.dup();
        (plan_on(&half), plan_on(&reversed), plan_on(&dup))
    });
    let r = &report.results;
    // Ranks 0,1 and ranks 2,3 form the two halves.
    assert!(Arc::ptr_eq(&r[0].0, &r[1].0) && Arc::ptr_eq(&r[2].0, &r[3].0));
    assert!(!Arc::ptr_eq(&r[0].0, &r[2].0), "different nodes, one entry");
    assert!(
        !Arc::ptr_eq(&r[0].0, &r[0].1),
        "different rank order, one entry"
    );
    assert!(
        Arc::ptr_eq(&r[0].0, &r[0].2),
        "a dup must share its parent's plans"
    );
    // Two halves × two rank orders; the dups add lookups, not plans.
    assert_eq!(report.plans.built, 4);
    assert_eq!(report.plans.lookups, 12);
}

/// Pricing a call, running it and pricing it again gives the same bits:
/// executing from the cache leaves the entry as the pricer made it, and
/// the measured makespan is that prediction.
#[test]
fn prediction_is_unmoved_by_execution() {
    for (sites, cont) in [
        (3, ContentionModel::SerializedNic),
        (1, ContentionModel::SharedBus),
    ] {
        let u = Universe::from_topology(topology(sites, 3, 1, false, cont), UniverseConfig::new());
        let n = 4096;
        let report = u.run(move |proc| {
            let world = proc.world();
            let before = world
                .predict_collective(CollectiveKind::Allreduce, 0, n, 8)
                .unwrap();
            let sum = world
                .allreduce_eq_f64(&contrib(world.rank(), n), ReduceOp::Sum)
                .unwrap();
            let after = world
                .predict_collective(CollectiveKind::Allreduce, 0, n, 8)
                .unwrap();
            (before, after, bits(&sum))
        });
        let (before, after, sum) = &report.results[0];
        assert_eq!(before.0, after.0);
        assert_eq!(before.1.to_bits(), after.1.to_bits());
        assert!(report.results.iter().all(|r| r.2 == *sum));
        let rel = (report.makespan.as_secs() - before.1).abs() / before.1;
        assert!(
            rel < 1e-9,
            "measured {} vs predicted {}",
            report.makespan.as_secs(),
            before.1
        );
        // One key, asked for three times by every rank.
        assert_eq!(report.plans.built, 1);
        assert_eq!(report.plans.lookups, 3 * report.results.len() as u64);
    }
}

/// Mirrors the private `plan::MAX_RESIDENT_XFERS`; if that grows, grow
/// [`SWEEP`] until this test evicts again.
const RESIDENT_BOUND: usize = 1 << 17;
/// Distinct payload sizes cycled through — enough plans to overflow the
/// bound (a 32-rank scatter-allgather allreduce schedules 1984 transfers).
const SWEEP: usize = 72;

/// More distinct keys than the cache holds, cycled twice: it stays under
/// its bound, evicts, rebuilds on the second cycle — and every call
/// returns the bits and the clock it has in a universe of its own (a cold
/// cache per call). Call `j` starts from the common instant `10·(j+1)` s
/// in both, so clocks compare exactly.
#[test]
fn eviction_changes_nothing_but_the_counters() {
    let p = 32;
    let topo = topology(1, p, 1, false, ContentionModel::SerializedNic);
    let call = |world: &Comm, j: usize| {
        world.clock().set(SimTime::from_secs(10.0 * (j + 1) as f64));
        let sum = world
            .allreduce_eq_f64_with(
                CollectiveAlgo::ScatterAllgather,
                &contrib(world.rank(), p + j % SWEEP),
                ReduceOp::Sum,
            )
            .unwrap();
        (bits(&sum), world.clock().now().as_secs().to_bits())
    };
    let warm = Universe::from_topology(topo.clone(), UniverseConfig::new()).run(|proc| {
        let world = proc.world();
        (0..2 * SWEEP).map(|j| call(&world, j)).collect::<Vec<_>>()
    });
    let plans = warm.plans;
    assert!(
        plans.evicted > 0,
        "the sweep must overflow the cache: {plans:?}"
    );
    assert!(plans.resident_xfers <= RESIDENT_BOUND, "{plans:?}");
    assert!(
        plans.built > SWEEP as u64,
        "evicted keys are rebuilt: {plans:?}"
    );
    assert!(plans.built <= SWEEP as u64 + plans.evicted, "{plans:?}");
    assert_eq!(plans.hits + plans.built, plans.lookups);
    for j in 0..2 * SWEEP {
        let cold = Universe::from_topology(topo.clone(), UniverseConfig::new())
            .run(|proc| call(&proc.world(), j));
        assert_eq!(cold.plans.built, 1);
        for (rank, got) in cold.results.iter().enumerate() {
            assert_eq!(*got, warm.results[rank][j], "call {j}, rank {rank}");
        }
    }
}

/// The root and the size are part of the key: calls on one communicator
/// that differ in either alone never share a plan.
#[test]
fn plans_are_keyed_by_root_and_size() {
    let u = Universe::from_topology(
        topology(1, 4, 1, false, ContentionModel::SerializedNic),
        UniverseConfig::new(),
    );
    let report = u.run(|proc| {
        let world = proc.world();
        let plan = |root, elems| {
            world
                .collective_plan(
                    CollectiveKind::Bcast,
                    CollectivePolicy::Auto,
                    root,
                    elems,
                    8,
                )
                .unwrap()
        };
        [plan(0, 256), plan(1, 256), plan(0, 257), plan(0, 256)]
    });
    let [base, rooted, bigger, again] = &report.results[0];
    assert!(!Arc::ptr_eq(base, rooted), "another root, one entry");
    assert!(!Arc::ptr_eq(base, bigger), "another size, one entry");
    assert!(Arc::ptr_eq(base, again));
    assert_eq!(report.plans.built, 3);
}

/// A mixed program: world collectives under the universe's policy and a
/// pinned algorithm, then the same on a split half.
fn mixed_program(world: &Comm) -> Vec<Vec<u64>> {
    let me = world.rank();
    let mut out = Vec::new();
    let mut buf = contrib(me, 300);
    world.bcast_into(&mut buf, 1).unwrap();
    out.push(bits(&buf));
    let sum = world
        .allreduce_eq_f64(&contrib(me, 700), ReduceOp::Sum)
        .unwrap();
    out.push(bits(&sum));
    let sum = world
        .allreduce_eq_f64_with(
            CollectiveAlgo::RecursiveDoubling,
            &contrib(me, 16),
            ReduceOp::Max,
        )
        .unwrap();
    out.push(bits(&sum));
    let half = world
        .split(Some((me % 2) as i32), me as i32)
        .unwrap()
        .unwrap();
    out.push(bits(&half.allgather_eq(&contrib(me, 5)).unwrap()));
    if let Some(r) = half
        .reduce_eq_f64(&contrib(me, 90), ReduceOp::Sum, 0)
        .unwrap()
    {
        out.push(bits(&r));
    }
    out
}

/// A universe keeps its plans across runs: the second run of one universe
/// plans nothing — every lookup hits — and its results, clocks and trace
/// are those of a universe that never ran before, bit for bit.
#[test]
fn a_second_run_plans_nothing_and_moves_no_bit() {
    let topo = topology(2, 2, 2, true, ContentionModel::SerializedNic);
    let config = || UniverseConfig::new().tracing(true);
    let warm = Universe::from_topology(topo.clone(), config());
    let first = warm.run(|proc| mixed_program(&proc.world()));
    let second = warm.run(|proc| mixed_program(&proc.world()));
    let cold = Universe::from_topology(topo, config()).run(|proc| mixed_program(&proc.world()));
    assert!(first.plans.built > 0, "{:?}", first.plans);
    assert_eq!(second.plans.built, 0, "{:?}", second.plans);
    assert_eq!(second.plans.hits, second.plans.lookups);
    assert_eq!(second.plans.lookups, first.plans.lookups);
    assert_eq!(second.plans.resident_plans, first.plans.resident_plans);
    for run in [&first, &second] {
        assert_eq!(run.results, cold.results);
        assert_eq!(run.rank_times, cold.rank_times);
        assert_eq!(run.trace, cold.trace);
    }
}

/// Clones of one universe share its store, also while they run at the
/// same time: each run's counters are its own and add up, and between
/// them the runs build every distinct plan exactly once.
#[test]
fn concurrent_runs_of_clones_count_their_own_lookups() {
    let topo = topology(2, 4, 1, false, ContentionModel::ParallelLinks);
    let cold = Universe::from_topology(topo.clone(), UniverseConfig::new())
        .run(|proc| mixed_program(&proc.world()));
    let u = Universe::from_topology(topo, UniverseConfig::new());
    let reports: Vec<_> = std::thread::scope(|s| {
        let threads: Vec<_> = (0..2)
            .map(|_| {
                let u = u.clone();
                s.spawn(move || {
                    (0..3)
                        .map(|_| u.run(|proc| mixed_program(&proc.world())))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        threads
            .into_iter()
            .flat_map(|t| t.join().unwrap())
            .collect()
    });
    for r in &reports {
        assert_eq!(
            r.plans.hits + r.plans.built,
            r.plans.lookups,
            "{:?}",
            r.plans
        );
        assert_eq!(r.plans.lookups, cold.plans.lookups);
        assert_eq!(r.results, cold.results);
        assert_eq!(r.rank_times, cold.rank_times);
    }
    let built: u64 = reports.iter().map(|r| r.plans.built).sum();
    assert_eq!(built, cold.plans.built);
}
