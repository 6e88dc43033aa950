//! The fault-tolerant collective contract (DESIGN.md §12), end to end:
//!
//! * **Survivor contract** — when a node crashes mid-collective, every
//!   rank returns either the *complete, bit-exact* result (identical to
//!   the fault-free reference fold / source buffer) or a typed
//!   fault-shaped error ([`MpiError::NodeFailed`] and friends) — never a
//!   torn buffer, never a hang, for every engine algorithm and for crash
//!   times before, inside and after the collective's virtual window;
//! * **Agreement unanimity** — the post-collective ULFM-style
//!   [`Comm::agree`] round yields the *same* verdict on every survivor:
//!   identical flag, identical failed set (a subset of the actually
//!   crashed ranks), identical completion time, and a flag equal to the
//!   AND of the depositors' collective outcomes;
//! * **Determinism** — under `ParallelLinks` (transfer timing free of
//!   host-schedule-ordered arbitration) the same cluster and fault plan
//!   replay the identical per-rank error surface, agreement verdicts and
//!   virtual makespan, run after run.
//!
//! [`Comm::agree`]: mpisim::Comm::agree

use hetsim::{ClusterBuilder, FaultEvent, FaultPlan, Link, NodeId, Protocol, SimTime};
use mpisim::{Agreement, CollectiveAlgo, CollectiveKind, MpiError, ReduceOp, Universe};
use perfmodel::collective::algos_for;
use proptest::prelude::*;
use std::sync::Arc;

/// One rank's observation: the collective's outcome (normalised to an
/// optional payload) and the agreement verdict that followed it.
type Outcome = (
    Result<Option<Vec<f64>>, MpiError>,
    Result<Agreement, MpiError>,
);

/// The errors a fault is allowed to surface as. Anything else (a value
/// error, a panic, an `InvalidCounts`) is a contract violation under a
/// pure crash plan.
fn fault_shaped(e: &MpiError) -> bool {
    matches!(
        e,
        MpiError::NodeFailed { .. }
            | MpiError::PeerTerminated { .. }
            | MpiError::LinkDown { .. }
            | MpiError::Timeout
            | MpiError::Deadlock { .. }
    )
}

/// Heterogeneous `n`-node cluster on parallel links with one crash.
fn crashy_cluster(n: usize, crash: usize, at: f64) -> Arc<hetsim::Cluster> {
    let mut b = ClusterBuilder::new();
    for i in 0..n {
        b = b.node(format!("h{i}"), 40.0 + 15.0 * i as f64);
    }
    Arc::new(
        b.all_to_all(Link::new(1e-4, 1e7, Protocol::Tcp))
            .faults(FaultPlan::none().with(FaultEvent::NodeCrash {
                node: NodeId(crash),
                at: SimTime::from_secs(at),
            }))
            .build(),
    )
}

/// Per-rank contribution with mixed magnitudes so any re-association or
/// partial fold an algorithm might do shifts low bits.
fn contrib(rank: usize, elems: usize) -> Vec<f64> {
    (0..elems)
        .map(|i| ((rank * 31 + i * 7 + 1) as f64) * 1e3f64.powi((i % 3) as i32 - 1))
        .collect()
}

/// The identity-seeded ascending-rank left fold every reduction must hit.
fn reference_fold(p: usize, elems: usize, op: ReduceOp) -> Vec<f64> {
    let mut acc = vec![op.identity_f64(); elems];
    for r in 0..p {
        op.fold_f64(&mut acc, &contrib(r, elems));
    }
    acc
}

/// The bit-exact payload rank `r` must observe on success, or `None`
/// where the kind leaves that rank without output (non-root reduce).
fn expected_payload(
    kind: CollectiveKind,
    p: usize,
    elems: usize,
    root: usize,
    r: usize,
) -> Option<Vec<f64>> {
    match kind {
        CollectiveKind::Bcast => Some(contrib(root, elems)),
        CollectiveKind::Reduce => {
            (r == root).then(|| reference_fold(p, elems, ReduceOp::Sum))
        }
        CollectiveKind::Allreduce => Some(reference_fold(p, elems, ReduceOp::Sum)),
        CollectiveKind::Allgather => {
            Some((0..p).flat_map(|s| contrib(s, elems)).collect())
        }
    }
}

/// Runs `kind` with a pinned `algo` on every rank of a crashy cluster,
/// following it with an agreement round on the collective's outcome.
/// Returns the per-rank observations and the run's virtual makespan.
fn run_crashy(
    kind: CollectiveKind,
    algo: CollectiveAlgo,
    p: usize,
    elems: usize,
    root: usize,
    crash: usize,
    at: f64,
) -> (Vec<Outcome>, SimTime) {
    let u = Universe::new(crashy_cluster(p, crash, at));
    let report = u.run(move |proc| -> Outcome {
        let world = proc.world();
        let r = world.rank();
        let coll = match kind {
            CollectiveKind::Bcast => {
                let mut buf = if r == root {
                    contrib(root, elems)
                } else {
                    vec![0.0; elems]
                };
                world.bcast_into_with(algo, &mut buf, root).map(|()| Some(buf))
            }
            CollectiveKind::Reduce => {
                world.reduce_eq_f64_with(algo, &contrib(r, elems), ReduceOp::Sum, root)
            }
            CollectiveKind::Allreduce => world
                .allreduce_eq_f64_with(algo, &contrib(r, elems), ReduceOp::Sum)
                .map(Some),
            CollectiveKind::Allgather => {
                world.allgather_eq_with(algo, &contrib(r, elems)).map(Some)
            }
        };
        let agreement = world.agree(coll.is_ok());
        (coll, agreement)
    });
    (report.results, report.makespan)
}

/// Every `(kind, algo)` pair the engine can run over `p` ranks.
fn all_pairs(p: usize) -> Vec<(CollectiveKind, CollectiveAlgo)> {
    [
        CollectiveKind::Bcast,
        CollectiveKind::Reduce,
        CollectiveKind::Allreduce,
        CollectiveKind::Allgather,
    ]
    .into_iter()
    .flat_map(|kind| algos_for(kind, p).into_iter().map(move |a| (kind, a)))
    .collect()
}

/// Checks the full contract on one run's observations; `label` prefixes
/// every assertion message with the scenario coordinates.
fn assert_contract(
    kind: CollectiveKind,
    p: usize,
    elems: usize,
    root: usize,
    crash: usize,
    outcomes: &[Outcome],
    label: &str,
) {
    // Survivor contract: bit-exact payload or fault-shaped error.
    for (r, (coll, _)) in outcomes.iter().enumerate() {
        match coll {
            Ok(got) => {
                let want = expected_payload(kind, p, elems, root, r);
                let bits = |v: &Option<Vec<f64>>| -> Option<Vec<u64>> {
                    v.as_ref().map(|v| v.iter().map(|x| x.to_bits()).collect())
                };
                assert_eq!(
                    bits(got),
                    bits(&want),
                    "{label}: rank {r} returned a torn or wrong result"
                );
            }
            Err(e) => assert!(
                fault_shaped(e),
                "{label}: rank {r} surfaced a non-fault error {e:?}"
            ),
        }
    }

    // Agreement unanimity: every completed verdict is identical, its
    // failed set only ever names the crashed rank, and the flag is the
    // AND of the depositors' collective outcomes.
    let verdicts: Vec<(usize, &Agreement)> = outcomes
        .iter()
        .enumerate()
        .filter_map(|(r, (_, a))| a.as_ref().ok().map(|a| (r, a)))
        .collect();
    for (r, a) in &verdicts {
        assert_eq!(
            Some(a),
            verdicts.first().map(|(_, a)| a),
            "{label}: rank {r} disagrees with rank {}",
            verdicts[0].0
        );
        assert!(
            a.failed.iter().all(|f| *f == crash),
            "{label}: failed set {:?} names a live rank",
            a.failed
        );
        let expected_flag = outcomes
            .iter()
            .enumerate()
            .filter(|(dep, _)| !a.failed.contains(dep))
            .all(|(_, (coll, _))| coll.is_ok());
        assert_eq!(
            a.flag, expected_flag,
            "{label}: flag does not AND the depositors' outcomes"
        );
    }
    // A crash can wedge at most the dead rank's own agreement; survivors
    // always reach a verdict (the round completes once the dead member is
    // observed) — so at most one rank may lack one.
    assert!(
        verdicts.len() >= p - 1,
        "{label}: {} rank(s) never reached an agreement verdict",
        p - verdicts.len()
    );
    for (r, (_, a)) in outcomes.iter().enumerate() {
        if let Err(e) = a {
            assert_eq!(
                r, crash,
                "{label}: live rank {r} failed its agreement round: {e:?}"
            );
            assert!(fault_shaped(e), "{label}: {e:?}");
        }
    }
}

/// Crash times straddling the collective window on this cluster scale:
/// before the first send, inside the movement, and long after completion.
const CRASH_TIMES: [f64; 4] = [1e-7, 5e-4, 5e-3, 10.0];

/// Runs every `(kind, algo)` pair at `p` = 4 and 6 with `elems(kind, algo,
/// p)` elements per contribution, crashing rank 0 or the root at every
/// [`CRASH_TIMES`] instant, and checks the contract on each run.
fn contract_across_crash_timings(elems: impl Fn(CollectiveKind, CollectiveAlgo, usize) -> usize) {
    for p in [4usize, 6] {
        let root = p - 2;
        for (kind, algo) in all_pairs(p) {
            let elems = elems(kind, algo, p);
            for crash in [0, root] {
                for at in CRASH_TIMES {
                    let label = format!(
                        "{}/{} p={p} elems={elems} crash={crash}@{at}",
                        kind.name(),
                        algo.name()
                    );
                    let (outcomes, _) = run_crashy(kind, algo, p, elems, root, crash, at);
                    assert_contract(kind, p, elems, root, crash, &outcomes, &label);
                }
            }
        }
    }
}

#[test]
fn every_algorithm_meets_the_contract_across_crash_timings() {
    contract_across_crash_timings(|_, _, _| 8);
}

/// The same contract while payloads travel by reference: 1025 elements
/// per raw origin range (`p` × 1025 where the schedule cuts the call into
/// chunks) is one past the engine's 8 KiB share threshold, so receivers
/// hold shared segments of senders that abort, and poison races them.
#[test]
fn every_algorithm_meets_the_contract_with_shared_payloads_in_flight() {
    contract_across_crash_timings(|kind, algo, p| {
        let chunked = matches!(
            algo,
            CollectiveAlgo::Ring | CollectiveAlgo::ScatterAllgather
        );
        match chunked && kind != CollectiveKind::Allgather {
            true => p * 1025,
            false => 1025,
        }
    });
}

#[test]
fn a_late_crash_leaves_the_collective_and_agreement_clean() {
    // Crash far past the window: the collective and the agreement round
    // both complete on every rank, unanimously successful.
    for p in [4usize, 6] {
        for (kind, algo) in all_pairs(p) {
            let (outcomes, _) = run_crashy(kind, algo, p, 8, 0, p - 1, 1e6);
            for (r, (coll, agreement)) in outcomes.iter().enumerate() {
                assert!(coll.is_ok(), "rank {r}: {:?}", coll);
                let a = agreement.as_ref().unwrap_or_else(|e| {
                    panic!("{}/{} rank {r}: {e:?}", kind.name(), algo.name())
                });
                assert!(a.flag && a.failed.is_empty(), "rank {r}: {a:?}");
            }
        }
    }
}

#[test]
fn the_same_fault_plan_replays_the_same_surface_under_parallel_links() {
    for p in [4usize, 6] {
        for (kind, algo) in all_pairs(p) {
            for at in [5e-4, 5e-3] {
                let (a, ma) = run_crashy(kind, algo, p, 8, 0, p - 1, at);
                let (b, mb) = run_crashy(kind, algo, p, 8, 0, p - 1, at);
                let label = format!("{}/{} p={p} at={at}", kind.name(), algo.name());
                assert_eq!(a, b, "{label}: error surface diverged between runs");
                assert_eq!(ma, mb, "{label}: makespan diverged between runs");
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random sizes, roots, crash ranks and timings: the contract holds
    /// for every selectable algorithm of a random kind, and the survivor
    /// set is identical across a replay.
    #[test]
    fn random_crashes_never_break_the_contract(
        p in 3usize..8,
        elems in 1usize..24,
        root_pick in 0usize..100,
        crash_pick in 0usize..100,
        kind_pick in 0usize..4,
        at_exp in -6.0f64..1.0,
    ) {
        let root = root_pick % p;
        let crash = crash_pick % p;
        let at = 10f64.powf(at_exp);
        let kind = [
            CollectiveKind::Bcast,
            CollectiveKind::Reduce,
            CollectiveKind::Allreduce,
            CollectiveKind::Allgather,
        ][kind_pick];
        for algo in algos_for(kind, p) {
            let label = format!(
                "{}/{} p={p} root={root} crash={crash}@{at:.2e}",
                kind.name(),
                algo.name()
            );
            let (outcomes, makespan) =
                run_crashy(kind, algo, p, elems, root, crash, at);
            assert_contract(kind, p, elems, root, crash, &outcomes, &label);
            let (replay, replay_makespan) =
                run_crashy(kind, algo, p, elems, root, crash, at);
            let survivors = |o: &[Outcome]| -> Vec<bool> {
                o.iter().map(|(c, _)| c.is_ok()).collect()
            };
            prop_assert_eq!(
                survivors(&outcomes),
                survivors(&replay),
                "{}: survivor set changed on replay",
                label
            );
            prop_assert_eq!(&outcomes, &replay, "{}: surface diverged", label);
            prop_assert_eq!(makespan, replay_makespan, "{}: makespan diverged", label);
        }
    }
}
