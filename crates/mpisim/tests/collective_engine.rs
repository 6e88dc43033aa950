//! The collective engine's contract, end to end:
//!
//! * every selectable algorithm is **bit-exact** against the linear
//!   reference — data-movement collectives reproduce the source buffer
//!   verbatim, reductions reproduce the identity-seeded ascending-rank
//!   left fold regardless of algorithm (proptests with mixed-magnitude
//!   values so f64 re-association cannot hide);
//! * virtual-time predictions match measured virtual time exactly under
//!   parallel links (the pricing-parity claim of DESIGN.md §10);
//! * a node failure mid-collective propagates as [`MpiError::NodeFailed`]
//!   on every rank — no hangs;
//! * engine calls emit per-algorithm [`TraceKind::Collective`] spans;
//! * mismatched buffer lengths across ranks surface as
//!   [`MpiError::InvalidCounts`], not a panic or a hang;
//! * payloads on either side of the engine's share threshold — raw origin
//!   ranges copied into one buffer below 8 KiB, shared by reference at and
//!   above it — give the same bits and return every pooled lease.

use hetsim::{
    Cluster, ClusterBuilder, ContentionModel, FaultEvent, FaultPlan, Link, NodeId, Protocol,
    SimTime, TopologyBuilder, TraceKind,
};
use mpisim::{
    CollectiveAlgo, CollectiveKind, CollectivePolicy, MpiError, ReduceOp, Universe,
    UniverseConfig,
};
use perfmodel::collective::algos_for;
use proptest::prelude::*;
use std::sync::Arc;

fn cluster(n: usize) -> Arc<Cluster> {
    let mut b = ClusterBuilder::new();
    for i in 0..n {
        b = b.node(format!("h{i}"), 50.0 + 10.0 * i as f64);
    }
    Arc::new(b.all_to_all(Link::new(1e-4, 1e7, Protocol::Tcp)).build())
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// The one true reduction semantics every algorithm must reproduce:
/// element `i` is the identity-seeded left fold of `contribs[0][i]`,
/// `contribs[1][i]`, ... in ascending rank order.
fn reference_fold(contribs: &[Vec<f64>], op: ReduceOp) -> Vec<f64> {
    let n = contribs[0].len();
    let mut acc = vec![op.identity_f64(); n];
    for c in contribs {
        op.fold_f64(&mut acc, c);
    }
    acc
}

fn op_strategy() -> BoxedStrategy<ReduceOp> {
    prop_oneof![
        Just(ReduceOp::Sum),
        Just(ReduceOp::Prod),
        Just(ReduceOp::Max),
        Just(ReduceOp::Min),
    ]
}

// Mixed magnitudes: any re-association or tree-shaped partial fold inside
// an algorithm shifts the low bits for these ranges. Zeros of both signs:
// a fold that skips the identity seed (`0.0 + -0.0` is `0.0`, a lone `-0.0`
// is not) or visits ranks out of order (`max(0.0, -0.0)` keeps whichever
// came first) shows in the sign bit.
fn value_strategy() -> BoxedStrategy<f64> {
    prop_oneof![
        -1e3..1e3f64,
        1e9..1e12f64,
        -1e-6..1e-6f64,
        Just(-0.0f64),
        Just(0.0f64)
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn bcast_all_algorithms_deliver_root_buffer_bitwise(
        p in 2usize..10,
        len in 0usize..33,
        root_pick in 0usize..100,
        flat in proptest::collection::vec(value_strategy(), 33),
    ) {
        let root = root_pick % p;
        let payload = flat[..len].to_vec();
        for algo in algos_for(CollectiveKind::Bcast, p) {
            let u = Universe::new(cluster(p));
            let sent = payload.clone();
            let report = u.run(move |proc| {
                let world = proc.world();
                let mut buf = if world.rank() == root {
                    sent.clone()
                } else {
                    vec![0.0; sent.len()]
                };
                world.bcast_into_with(algo, &mut buf, root).unwrap();
                buf
            });
            for (rank, got) in report.results.iter().enumerate() {
                prop_assert_eq!(
                    bits(got),
                    bits(&payload),
                    "{} p={} root={} rank={}",
                    algo.name(), p, root, rank
                );
            }
        }
    }

    #[test]
    fn allgather_all_algorithms_concatenate_in_rank_order(
        p in 2usize..10,
        per in 0usize..5,
        flat in proptest::collection::vec(value_strategy(), 45),
    ) {
        let contribs: Vec<Vec<f64>> =
            (0..p).map(|r| flat[r * per..(r + 1) * per].to_vec()).collect();
        let expect: Vec<f64> = contribs.iter().flatten().copied().collect();
        for algo in algos_for(CollectiveKind::Allgather, p) {
            let u = Universe::new(cluster(p));
            let contribs = contribs.clone();
            let report = u.run(move |proc| {
                let world = proc.world();
                world
                    .allgather_eq_with(algo, &contribs[world.rank()])
                    .unwrap()
            });
            for (rank, got) in report.results.iter().enumerate() {
                prop_assert_eq!(
                    bits(got),
                    bits(&expect),
                    "{} p={} rank={}",
                    algo.name(), p, rank
                );
            }
        }
    }

    // Every reduce algorithm must produce the identity-seeded
    // ascending-rank left fold, bit for bit, at every root.
    #[test]
    fn reduce_all_algorithms_match_reference_fold_bitwise(
        p in 2usize..10,
        len in 1usize..5,
        root_pick in 0usize..100,
        op in op_strategy(),
        flat in proptest::collection::vec(value_strategy(), 45),
    ) {
        let root = root_pick % p;
        let contribs: Vec<Vec<f64>> =
            (0..p).map(|r| flat[r * len..(r + 1) * len].to_vec()).collect();
        let expect = reference_fold(&contribs, op);
        for algo in algos_for(CollectiveKind::Reduce, p) {
            let u = Universe::new(cluster(p));
            let contribs = contribs.clone();
            let report = u.run(move |proc| {
                let world = proc.world();
                world
                    .reduce_eq_f64_with(algo, &contribs[world.rank()], op, root)
                    .unwrap()
            });
            for (rank, got) in report.results.iter().enumerate() {
                if rank == root {
                    let got = got.as_ref().expect("root gets the result");
                    prop_assert_eq!(
                        bits(got),
                        bits(&expect),
                        "{} p={} root={}",
                        algo.name(), p, root
                    );
                } else {
                    prop_assert!(got.is_none());
                }
            }
        }
    }

    // The same fold contract for every allreduce algorithm — including
    // ring's pipelined partials, recursive doubling's block gather (at
    // power-of-two sizes) and scatter-allgather's per-chunk folds.
    #[test]
    fn allreduce_all_algorithms_match_reference_fold_bitwise(
        p in 2usize..10,
        len in 0usize..7,
        op in op_strategy(),
        flat in proptest::collection::vec(value_strategy(), 63),
    ) {
        let contribs: Vec<Vec<f64>> =
            (0..p).map(|r| flat[r * len..(r + 1) * len].to_vec()).collect();
        let expect = reference_fold(&contribs, op);
        for algo in algos_for(CollectiveKind::Allreduce, p) {
            let u = Universe::new(cluster(p));
            let contribs = contribs.clone();
            let report = u.run(move |proc| {
                let world = proc.world();
                world
                    .allreduce_eq_f64_with(algo, &contribs[world.rank()], op)
                    .unwrap()
            });
            for (rank, got) in report.results.iter().enumerate() {
                prop_assert_eq!(
                    bits(got),
                    bits(&expect),
                    "{} p={} rank={}",
                    algo.name(), p, rank
                );
            }
        }
    }
}

#[test]
fn i64_engine_reductions_are_exact() {
    let p = 5;
    let contribs: Vec<Vec<i64>> = (0..p as i64).map(|r| vec![r + 1, -r, 3 * r]).collect();
    for algo in algos_for(CollectiveKind::Allreduce, p) {
        let u = Universe::new(cluster(p));
        let contribs = contribs.clone();
        let report = u.run(move |proc| {
            let world = proc.world();
            world
                .allreduce_eq_i64_with(algo, &contribs[world.rank()], ReduceOp::Sum)
                .unwrap()
        });
        for got in &report.results {
            assert_eq!(got, &vec![15, -10, 30], "{}", algo.name());
        }
    }
}

/// The pricing-parity claim: under parallel links, the predicted virtual
/// time of every selectable algorithm equals the measured makespan of a
/// run that executes exactly that collective.
#[test]
fn predictions_match_measured_virtual_time_under_parallel_links() {
    let p = 9;
    let elems = 1000usize;
    for kind in [
        CollectiveKind::Bcast,
        CollectiveKind::Reduce,
        CollectiveKind::Allreduce,
        CollectiveKind::Allgather,
    ] {
        for algo in algos_for(kind, p) {
            let u = Universe::new(cluster(p));
            let report = u.run(move |proc| {
                let world = proc.world();
                // Allgather prices the total payload, which the driver
                // derives from the per-rank contribution — keep them equal.
                let total = match kind {
                    CollectiveKind::Allgather => (elems / p) * p,
                    _ => elems,
                };
                let predicted = world
                    .predict_collective_with(kind, algo, 0, total, 8)
                    .unwrap();
                match kind {
                    CollectiveKind::Bcast => {
                        let mut buf = vec![1.5f64; elems];
                        world.bcast_into_with(algo, &mut buf, 0).unwrap();
                    }
                    CollectiveKind::Reduce => {
                        let contrib = vec![1.5f64; elems];
                        world
                            .reduce_eq_f64_with(algo, &contrib, ReduceOp::Sum, 0)
                            .unwrap();
                    }
                    CollectiveKind::Allreduce => {
                        let contrib = vec![1.5f64; elems];
                        world
                            .allreduce_eq_f64_with(algo, &contrib, ReduceOp::Sum)
                            .unwrap();
                    }
                    CollectiveKind::Allgather => {
                        let contrib = vec![1.5f64; elems / p];
                        world.allgather_eq_with(algo, &contrib).unwrap();
                    }
                }
                predicted
            });
            let predicted = report.results[0];
            let measured = report.makespan.as_secs();
            let err = (predicted - measured).abs() / measured.max(1e-30);
            assert!(
                err < 1e-9,
                "{} {}: predicted {predicted} vs measured {measured} (rel err {err:e})",
                kind.name(),
                algo.name()
            );
        }
    }
}

/// Allgather predictions price the *total* payload; the driver passes
/// `contrib.len() * p`, so use a multiple of p above. This test pins the
/// selector itself: Auto must pick the predicted-cheapest and beat linear
/// at large sizes on the paper-style LAN.
#[test]
fn auto_selection_beats_linear_at_large_sizes() {
    let p = 9;
    let elems = 8192; // 64 KiB of f64
    let u = Universe::new(cluster(p));
    let report = u.run(move |proc| {
        let world = proc.world();
        let (bcast_algo, bcast_t) = world
            .predict_collective(CollectiveKind::Bcast, 0, elems, 8)
            .unwrap();
        let (ar_algo, ar_t) = world
            .predict_collective(CollectiveKind::Allreduce, 0, elems, 8)
            .unwrap();
        let lin_bcast = world
            .predict_collective_with(CollectiveKind::Bcast, CollectiveAlgo::Linear, 0, elems, 8)
            .unwrap();
        let lin_ar = world
            .predict_collective_with(
                CollectiveKind::Allreduce,
                CollectiveAlgo::Linear,
                0,
                elems,
                8,
            )
            .unwrap();
        (bcast_algo, bcast_t, lin_bcast, ar_algo, ar_t, lin_ar)
    });
    let (bcast_algo, bcast_t, lin_bcast, ar_algo, ar_t, lin_ar) = report.results[0];
    assert_ne!(bcast_algo, CollectiveAlgo::Linear);
    assert!(bcast_t < lin_bcast, "{bcast_t} vs linear {lin_bcast}");
    assert_ne!(ar_algo, CollectiveAlgo::Linear);
    assert!(ar_t < lin_ar, "{ar_t} vs linear {lin_ar}");
}

#[test]
fn fixed_policy_pins_the_algorithm_and_rejects_ineligible_calls() {
    // Ring pinned: the trace must show ring spans.
    let u = Universe::with_config(
        cluster(4),
        UniverseConfig::new()
            .collective_policy(CollectivePolicy::Fixed(CollectiveAlgo::Ring))
            .tracing(true),
    );
    let report = u.run(|proc| {
        let world = proc.world();
        world.allreduce_eq_f64(&[1.0, 2.0], ReduceOp::Sum).unwrap()
    });
    let trace = report.trace.expect("tracing enabled");
    let spans: Vec<_> = trace
        .events
        .iter()
        .filter(|e| e.kind == TraceKind::Collective)
        .collect();
    assert_eq!(spans.len(), 4, "one span per rank");
    assert!(spans.iter().all(|e| e.name == "ring"));
    assert!(spans.iter().all(|e| e.collective));
    assert!(spans
        .iter()
        .all(|e| e.info.as_deref() == Some("allreduce p=4 elems=2")));

    // Recursive doubling pinned on a non-power-of-two communicator: every
    // call fails fast with InvalidCounts instead of running something else.
    let u = Universe::with_config(
        cluster(3),
        UniverseConfig::new()
            .collective_policy(CollectivePolicy::Fixed(CollectiveAlgo::RecursiveDoubling)),
    );
    let report = u.run(|proc| {
        let world = proc.world();
        world.allreduce_eq_f64(&[1.0], ReduceOp::Sum)
    });
    for res in &report.results {
        assert!(matches!(res, Err(MpiError::InvalidCounts(_))), "{res:?}");
    }
}

#[test]
fn engine_collectives_emit_spans_that_do_not_double_count_phases() {
    let u = Universe::with_config(cluster(3), UniverseConfig::new().tracing(true));
    let report = u.run(|proc| {
        let world = proc.world();
        let mut buf = vec![1.0f64; 64];
        world
            .bcast_into_with(CollectiveAlgo::Binomial, &mut buf, 0)
            .unwrap();
    });
    let trace = report.trace.expect("tracing enabled");
    // The collective span wraps inner sends/receives already counted by
    // phases(); the per-rank phase totals must not exceed the makespan.
    for (rank, ph) in trace.phases(3).iter().enumerate() {
        assert!(
            ph.total() <= report.makespan,
            "rank {rank} phase total {:?} exceeds makespan {:?}",
            ph.total(),
            report.makespan
        );
    }
    assert!(trace
        .events
        .iter()
        .any(|e| e.kind == TraceKind::Collective && e.name == "binomial"));
}

/// A node dying mid-collective must surface as NodeFailed on every rank —
/// for every algorithm — with nobody hanging.
#[test]
fn node_failure_propagates_through_every_algorithm() {
    for algo in algos_for(CollectiveKind::Allreduce, 4) {
        let plan = FaultPlan::none().with(FaultEvent::NodeCrash {
            node: NodeId(2),
            at: SimTime::from_secs(2.5),
        });
        let mut b = ClusterBuilder::new();
        for i in 0..4 {
            b = b.node(format!("h{i}"), 100.0);
        }
        let cluster = Arc::new(
            b.all_to_all(Link::new(1e-4, 1e7, Protocol::Tcp))
                .faults(plan)
                .build(),
        );
        let report = Universe::new(cluster).run(move |proc| {
            let world = proc.world();
            let contrib = vec![1.0f64; 256];
            for round in 0..4 {
                if proc.try_compute(100.0).is_err() {
                    return Err(round);
                }
                if world
                    .allreduce_eq_f64_with(algo, &contrib, ReduceOp::Sum)
                    .is_err()
                {
                    return Err(round);
                }
            }
            Ok(())
        });
        for (rank, res) in report.results.iter().enumerate() {
            assert!(
                res.is_err(),
                "{}: rank {rank} should observe the failure, got {res:?}",
                algo.name()
            );
        }
    }
}

#[test]
fn mismatched_buffer_lengths_error_instead_of_hanging() {
    // bcast: rank 1 sized its buffer wrong.
    let report = Universe::new(cluster(2)).run(|proc| {
        let world = proc.world();
        let mut buf = if world.rank() == 0 {
            vec![1.0f64; 8]
        } else {
            vec![0.0f64; 5]
        };
        world.bcast_into_with(CollectiveAlgo::Linear, &mut buf, 0)
    });
    assert!(report.results[0].is_ok());
    assert!(matches!(
        &report.results[1],
        Err(MpiError::InvalidCounts(_))
    ));

    // allreduce: contributions disagree; at least the fold side must error
    // with InvalidCounts and nobody may hang.
    let report = Universe::new(cluster(2)).run(|proc| {
        let world = proc.world();
        let contrib = vec![1.0f64; if world.rank() == 0 { 8 } else { 5 }];
        world.allreduce_eq_f64_with(CollectiveAlgo::Linear, &contrib, ReduceOp::Sum)
    });
    assert!(report.results.iter().any(|r| matches!(
        r,
        Err(MpiError::InvalidCounts(_))
    )));
    assert!(report.results.iter().all(|r| r.is_err()));
}

/// Large mismatched contributions — rank 1 passes 2048 elements where the
/// others pass 1025, so both sides' raw ranges are shared, not copied —
/// end in errors, at least one of them `InvalidCounts`: on every rank for
/// the allreduce forms, and on the root of a binomial reduce, the only rank
/// there that receives what rank 1 sent. No panic, no hang.
#[test]
fn mismatched_large_contributions_error_instead_of_hanging() {
    let cases = [
        (CollectiveKind::Reduce, CollectiveAlgo::Binomial),
        (CollectiveKind::Allreduce, CollectiveAlgo::Binomial),
        (CollectiveKind::Allreduce, CollectiveAlgo::RecursiveDoubling),
        (CollectiveKind::Allreduce, CollectiveAlgo::ScatterAllgather),
    ];
    let p = 4;
    for (kind, algo) in cases {
        let report = Universe::new(cluster(p)).run(move |proc| {
            let world = proc.world();
            let contrib = vec![1.5f64; if world.rank() == 1 { 2048 } else { 1025 }];
            match kind {
                CollectiveKind::Reduce => world
                    .reduce_eq_f64_with(algo, &contrib, ReduceOp::Sum, 0)
                    .map(|out| out.is_some()),
                _ => world
                    .allreduce_eq_f64_with(algo, &contrib, ReduceOp::Sum)
                    .map(|_| true),
            }
        });
        let label = format!("{}/{}", kind.name(), algo.name());
        assert!(
            report
                .results
                .iter()
                .any(|r| matches!(r, Err(MpiError::InvalidCounts(_)))),
            "{label}: {:?}",
            report.results
        );
        for (rank, r) in report.results.iter().enumerate() {
            // Only the reduce's root receives rank 1's contribution; the
            // others may finish, and then without output.
            let spared = kind == CollectiveKind::Reduce && rank != 0;
            assert!(
                r.is_err() || (spared && r == &Ok(false)),
                "{label}: rank {rank} {r:?}"
            );
        }
        assert_eq!(report.pool.outstanding, 0, "{label}: leaked leases");
    }
}

/// Elements of one 8 KiB `RENDEZVOUS_BLOCK` of `f64`: the engine copies raw
/// origin ranges shorter than this into one fresh buffer per send and
/// shares longer ones by reference.
const BLOCK_ELEMS: usize = 8192 / 8;

/// Rank `rank`'s contribution: mixed magnitudes and zeros of both signs,
/// so a fold in any other order, or a range read from the wrong origin or
/// offset, changes the bits.
fn mixed(rank: usize, n: usize) -> Vec<f64> {
    (0..n)
        .map(|i| match (rank * 7 + i * 13) % 5 {
            0 => (i as f64 + 0.5) * 1e10 + rank as f64,
            1 => -0.0,
            2 => (rank + i) as f64 * 1e-7,
            3 => 0.0,
            _ => -(((rank * 31 + i) % 997) as f64) * 0.37,
        })
        .collect()
}

/// Runs one `kind` call of `n` elements (each rank's contribution for
/// allgather) under `algo`, or the universe's policy when `None`, rooted at
/// the last rank, and checks every rank's result bit for bit: the root's
/// buffer, the reference fold, the concatenation. Returns the algorithm the
/// policy picks.
fn check_exact(
    u: Universe,
    kind: CollectiveKind,
    algo: Option<CollectiveAlgo>,
    n: usize,
    op: ReduceOp,
) -> CollectiveAlgo {
    let p = u.size();
    let root = p - 1;
    let label = format!("{} {algo:?} p={p} n={n}", kind.name());
    let report = u.run(move |proc| {
        let world = proc.world();
        let me = world.rank();
        let mine = mixed(me, n);
        let total = if kind == CollectiveKind::Allgather {
            n * p
        } else {
            n
        };
        let picked = match algo {
            Some(a) => a,
            None => world.predict_collective(kind, root, total, 8).unwrap().0,
        };
        let out = match kind {
            CollectiveKind::Bcast => {
                let mut buf = if me == root { mine } else { vec![0.0; n] };
                match algo {
                    Some(a) => world.bcast_into_with(a, &mut buf, root),
                    None => world.bcast_into(&mut buf, root),
                }
                .map(|()| Some(buf))
            }
            CollectiveKind::Reduce => match algo {
                Some(a) => world.reduce_eq_f64_with(a, &mine, op, root),
                None => world.reduce_eq_f64(&mine, op, root),
            },
            CollectiveKind::Allreduce => match algo {
                Some(a) => world.allreduce_eq_f64_with(a, &mine, op),
                None => world.allreduce_eq_f64(&mine, op),
            }
            .map(Some),
            CollectiveKind::Allgather => match algo {
                Some(a) => world.allgather_eq_with(a, &mine),
                None => world.allgather_eq(&mine),
            }
            .map(Some),
        };
        (out.unwrap(), picked)
    });
    let contribs: Vec<Vec<f64>> = (0..p).map(|r| mixed(r, n)).collect();
    let fold = reference_fold(&contribs, op);
    for (rank, (got, _)) in report.results.iter().enumerate() {
        let want = match kind {
            CollectiveKind::Bcast => Some(contribs[root].clone()),
            CollectiveKind::Reduce => (rank == root).then(|| fold.clone()),
            CollectiveKind::Allreduce => Some(fold.clone()),
            CollectiveKind::Allgather => Some(contribs.concat()),
        };
        assert_eq!(
            got.as_deref().map(bits),
            want.as_deref().map(bits),
            "{label}: rank {rank}"
        );
    }
    assert_eq!(report.pool.outstanding, 0, "{label}: leaked leases");
    report.results[0].1
}

/// Raw origin ranges one element short of the share threshold, exactly at
/// it and one past it, through every kind and every eligible algorithm
/// (scatter-allgather's per-origin range is a `p`-th of the call), and
/// through `Auto` on two sites, where the hierarchical plan gathers raw
/// contributions across the levels.
#[test]
fn payloads_around_the_share_threshold_are_bit_exact() {
    let kinds = [
        CollectiveKind::Bcast,
        CollectiveKind::Reduce,
        CollectiveKind::Allreduce,
        CollectiveKind::Allgather,
    ];
    let sizes = [BLOCK_ELEMS - 1, BLOCK_ELEMS, BLOCK_ELEMS + 1];
    let ops = [ReduceOp::Sum, ReduceOp::Max, ReduceOp::Sum];
    for p in [4, 8] {
        for kind in kinds {
            for algo in algos_for(kind, p) {
                for (&per_origin, &op) in sizes.iter().zip(&ops) {
                    let chunked =
                        algo == CollectiveAlgo::ScatterAllgather && kind != CollectiveKind::Bcast;
                    let n = if chunked { per_origin * p } else { per_origin };
                    check_exact(Universe::new(cluster(p)), kind, Some(algo), n, op);
                }
            }
        }
    }
    let two_sites = || {
        let mut b = TopologyBuilder::new()
            .intra_switch(Link::new(1e-4, 100e6, Protocol::Tcp))
            .inter_site(Link::new(50e-3, 1e6, Protocol::Tcp))
            .contention(ContentionModel::SerializedNic);
        for site in 0..2 {
            b = b.site();
            for i in 0..4 {
                b = b.node(format!("s{site}n{i}"), 80.0 + 15.0 * i as f64);
            }
        }
        b.build()
    };
    let mut hierarchical = Vec::new();
    for kind in kinds {
        for (&n, &op) in sizes.iter().zip(&ops) {
            let u = Universe::from_topology(two_sites(), UniverseConfig::new());
            if check_exact(u, kind, None, n, op) == CollectiveAlgo::Hierarchical {
                hierarchical.push(kind);
            }
        }
    }
    for kind in [CollectiveKind::Reduce, CollectiveKind::Allreduce] {
        assert!(
            hierarchical.contains(&kind),
            "Auto never ran a hierarchical {}",
            kind.name()
        );
    }
}

#[test]
fn single_rank_and_empty_payload_edge_cases() {
    let report = Universe::new(cluster(1)).run(|proc| {
        let world = proc.world();
        let mut buf = vec![7.0f64; 3];
        world.bcast_into(&mut buf, 0).unwrap();
        let ag = world.allgather_eq(&buf).unwrap();
        let red = world.reduce_eq_f64(&buf, ReduceOp::Sum, 0).unwrap();
        let ar = world.allreduce_eq_f64(&buf, ReduceOp::Max).unwrap();
        let zero = world.allreduce_eq_f64(&[-0.0], ReduceOp::Sum).unwrap();
        (buf, ag, red, ar, zero)
    });
    let (buf, ag, red, ar, zero) = &report.results[0];
    assert_eq!(buf, &vec![7.0; 3]);
    assert_eq!(ag, &vec![7.0; 3]);
    assert_eq!(red.as_ref().unwrap(), &vec![7.0; 3]);
    assert_eq!(ar, &vec![7.0; 3]);
    // Even alone, a rank folds onto the identity: 0.0 + -0.0.
    assert_eq!(bits(zero), bits(&[0.0]));

    // Empty payloads complete instantly on every algorithm.
    for algo in algos_for(CollectiveKind::Allreduce, 4) {
        let report = Universe::new(cluster(4)).run(move |proc| {
            let world = proc.world();
            world
                .allreduce_eq_f64_with(algo, &[], ReduceOp::Sum)
                .unwrap()
        });
        assert!(report.results.iter().all(Vec::is_empty), "{}", algo.name());
    }
}

/// Out-of-range roots are typed errors everywhere the engine accepts a
/// root — including the `Auto` paths that price algorithms before running
/// (an unvalidated root used to reach `perfmodel::collective::select` and
/// panic there).
#[test]
fn bad_root_is_invalid_rank_not_a_panic() {
    let report = Universe::new(cluster(3)).run(|proc| {
        let world = proc.world();
        let bad = world.size(); // first out-of-range rank
        let as_invalid = |e: MpiError| match e {
            MpiError::InvalidRank { rank, comm_size } => (rank, comm_size),
            other => panic!("expected InvalidRank, got {other:?}"),
        };
        let mut seen = Vec::new();
        // Auto dispatch (selection runs before execution).
        let mut buf = [1.0f64; 4];
        seen.push(as_invalid(world.bcast_into(&mut buf, bad).unwrap_err()));
        seen.push(as_invalid(
            world
                .reduce_eq_f64(&buf, ReduceOp::Sum, bad)
                .unwrap_err(),
        ));
        seen.push(as_invalid(
            world
                .reduce_eq_i64(&[1, 2], ReduceOp::Sum, bad)
                .unwrap_err(),
        ));
        // Prediction entry points.
        seen.push(as_invalid(
            world
                .predict_collective(CollectiveKind::Bcast, bad, 4, 8)
                .unwrap_err(),
        ));
        seen.push(as_invalid(
            world
                .predict_collective_with(CollectiveKind::Bcast, CollectiveAlgo::Linear, bad, 4, 8)
                .unwrap_err(),
        ));
        seen
    });
    for r in &report.results {
        for &(rank, comm_size) in r {
            assert_eq!((rank, comm_size), (3, 3));
        }
    }
}
