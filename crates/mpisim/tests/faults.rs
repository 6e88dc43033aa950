//! Fault-injection tests: failure-aware point-to-point, deadline receives,
//! collective failure propagation, and deterministic fault-plan replay.
//!
//! The invariant under test (the PR's acceptance bar): a blocked operation
//! involving a crashed peer *returns an error or times out* — it never hangs
//! and it never silently succeeds.

use hetsim::{FaultEvent, FaultPlan, Link, NodeId, Protocol, SimTime, TopologyBuilder};
use mpisim::{CollectiveKind, CollectivePolicy, MpiError, ReduceOp, Universe};
use perfmodel::collective::fault_impact;
use std::sync::Arc;

fn t(s: f64) -> SimTime {
    SimTime::from_secs(s)
}

/// A homogeneous cluster of `n` nodes (speed 100, 1 ms / 1 MB/s links) with
/// the given fault plan.
fn cluster_with(n: usize, faults: FaultPlan) -> Arc<hetsim::Cluster> {
    let mut b = TopologyBuilder::new();
    for i in 0..n {
        b = b.node(format!("h{i}"), 100.0);
    }
    Arc::new(
        b.intra_switch(Link::new(1e-3, 1e6, Protocol::Tcp))
            .faults(faults)
            .build()
            .into_parts()
            .0,
    )
}

#[test]
fn crashed_rank_discovers_its_own_death_in_compute() {
    // Node 1 crashes at t=1.5; its rank computes 100 units (1 s) twice.
    let plan = FaultPlan::none().with(FaultEvent::NodeCrash {
        node: NodeId(1),
        at: t(1.5),
    });
    let report = cluster_with(2, plan).pipe(Universe::new).run(|p| {
        let mut completed = 0u32;
        for _ in 0..3 {
            match p.try_compute(100.0) {
                Ok(()) => completed += 1,
                Err(e) => return (completed, Some(e)),
            }
        }
        (completed, None)
    });
    // Rank 0 finishes all three; rank 1 dies during its second unit.
    assert_eq!(report.results[0], (3, None));
    assert_eq!(
        report.results[1],
        (1, Some(MpiError::NodeFailed { world_rank: 1 }))
    );
    // The dead rank's clock is clamped to the crash time.
    assert_eq!(report.rank_times[1], t(1.5));
}

#[test]
fn work_ending_exactly_at_the_crash_dies_with_it() {
    // Node 1 crashes at t=2; its rank's second 1 s unit ends exactly then,
    // through the world communicator's handle this time. A dead rank that
    // computes again fails at once rather than panicking.
    let plan = FaultPlan::none().with(FaultEvent::NodeCrash {
        node: NodeId(1),
        at: t(2.0),
    });
    let report = cluster_with(2, plan).pipe(Universe::new).run(|p| {
        let first = p.try_compute(100.0);
        let second = p.world().try_compute(100.0);
        (first, second, p.try_compute(1.0))
    });
    let dead = Err(MpiError::NodeFailed { world_rank: 1 });
    assert_eq!(report.results[1], (Ok(()), dead.clone(), dead));
    assert_eq!(report.rank_times[1], t(2.0));
    assert_eq!(report.results[0], (Ok(()), Ok(()), Ok(())));
    assert_eq!(report.rank_times[0], t(2.01));
}

#[test]
fn recv_from_crashed_peer_returns_node_failed() {
    let plan = FaultPlan::none().with(FaultEvent::NodeCrash {
        node: NodeId(1),
        at: t(0.5),
    });
    let report = cluster_with(2, plan).pipe(Universe::new).run(|p| {
        let world = p.world();
        if p.world_rank() == 1 {
            // Dies before ever sending.
            return p.try_compute(100.0).err();
        }
        world.recv::<i64>(1, 7).err()
    });
    assert_eq!(
        report.results[0],
        Some(MpiError::NodeFailed { world_rank: 1 })
    );
    assert_eq!(
        report.results[1],
        Some(MpiError::NodeFailed { world_rank: 1 })
    );
}

#[test]
fn send_to_crashed_peer_returns_node_failed() {
    let plan = FaultPlan::none().with(FaultEvent::NodeCrash {
        node: NodeId(1),
        at: t(0.5),
    });
    let report = cluster_with(2, plan).pipe(Universe::new).run(|p| {
        let world = p.world();
        if p.world_rank() == 0 {
            // Advance past the peer's crash time, then try to send to it.
            p.compute(100.0); // 1 s > 0.5 s
            return world.send(&[1i64], 1, 7).err();
        }
        p.try_compute(100.0).err()
    });
    assert_eq!(
        report.results[0],
        Some(MpiError::NodeFailed { world_rank: 1 })
    );
}

#[test]
fn message_queued_before_crash_is_still_delivered() {
    // Sender posts at t≈0, then dies at t=1. Receiver computes 2 s first,
    // then receives: the queued message must still be delivered.
    let plan = FaultPlan::none().with(FaultEvent::NodeCrash {
        node: NodeId(0),
        at: t(1.0),
    });
    let report = cluster_with(2, plan).pipe(Universe::new).run(|p| {
        let world = p.world();
        if p.world_rank() == 0 {
            world.send(&[42i64], 1, 7).unwrap();
            return Ok(vec![0]);
        }
        p.compute(200.0); // 2 s: sender is long dead by now
        world.recv::<i64>(0, 7).map(|(v, _)| v)
    });
    assert_eq!(report.results[1], Ok(vec![42]));
}

#[test]
fn recv_from_terminated_peer_returns_peer_terminated() {
    let report = cluster_with(2, FaultPlan::none())
        .pipe(Universe::new)
        .run(|p| {
            let world = p.world();
            if p.world_rank() == 1 {
                return None; // exits immediately, never sends
            }
            world.recv::<i64>(1, 7).err()
        });
    assert_eq!(
        report.results[0],
        Some(MpiError::PeerTerminated { world_rank: 1 })
    );
}

#[test]
fn recv_deadline_times_out_and_advances_clock() {
    let report = cluster_with(2, FaultPlan::none())
        .pipe(Universe::new)
        .run(|p| {
            let world = p.world();
            if p.world_rank() == 1 {
                // Sends far too late for the deadline.
                p.compute(500.0); // 5 s
                world.send(&[1i64], 0, 7).unwrap();
                return None;
            }
            let err = world.recv_deadline::<i64>(1, 7, t(2.0)).err();
            assert_eq!(p.clock().now(), t(2.0), "timeout advances to deadline");
            // The late message is left queued: a later unbounded receive
            // still finds it.
            let (v, _) = world.recv::<i64>(1, 7).unwrap();
            assert_eq!(v, vec![1]);
            err
        });
    assert_eq!(report.results[0], Some(MpiError::Timeout));
}

#[test]
fn recv_deadline_delivers_message_arriving_in_time() {
    let report = cluster_with(2, FaultPlan::none())
        .pipe(Universe::new)
        .run(|p| {
            let world = p.world();
            if p.world_rank() == 1 {
                world.send(&[9i64], 0, 7).unwrap();
                return Vec::new();
            }
            let (v, _) = world.recv_deadline::<i64>(1, 7, t(2.0)).unwrap();
            v
        });
    assert_eq!(report.results[0], vec![9]);
}

#[test]
fn recv_timeout_measures_from_current_clock() {
    let report = cluster_with(2, FaultPlan::none())
        .pipe(Universe::new)
        .run(|p| {
            let world = p.world();
            if p.world_rank() == 1 {
                // Sends at virtual t=5, long after the receiver's deadline.
                p.compute(500.0);
                world.send(&[1i64], 0, 7).unwrap();
                return None;
            }
            p.compute(100.0); // now = 1 s
            let err = world.recv_timeout::<i64>(1, 7, t(0.5)).err();
            assert_eq!(p.clock().now(), t(1.5));
            err
        });
    assert_eq!(report.results[0], Some(MpiError::Timeout));
}

#[test]
fn deadline_recv_on_dead_peer_reports_the_death_not_the_timeout() {
    // Peer death is more informative than a timeout, so it takes precedence.
    let report = cluster_with(2, FaultPlan::none())
        .pipe(Universe::new)
        .run(|p| {
            let world = p.world();
            if p.world_rank() == 1 {
                return None; // terminates immediately
            }
            world.recv_deadline::<i64>(1, 7, t(1000.0)).err()
        });
    assert_eq!(
        report.results[0],
        Some(MpiError::PeerTerminated { world_rank: 1 })
    );
}

#[test]
fn collective_propagates_failure_to_all_participants() {
    // 4 ranks allreduce in a loop; node 2 dies at t=2.5. Every survivor's
    // collective must surface exactly the error the schedule's offline
    // fault replay predicts — nobody hangs, nobody guesses.
    let plan = FaultPlan::none().with(FaultEvent::NodeCrash {
        node: NodeId(2),
        at: t(2.5),
    });
    let report = cluster_with(4, plan).pipe(Universe::new).run(|p| {
        let world = p.world();
        let sched = world
            .collective_plan(CollectiveKind::Allreduce, CollectivePolicy::Auto, 0, 1, 8)
            .unwrap();
        for round in 0..4 {
            if let Err(e) = p.try_compute(100.0) {
                return (Err((round, e)), sched);
            }
            if let Err(e) = world.allreduce_eq_i64(&[1], ReduceOp::Sum) {
                return (Err((round, e)), sched);
            }
        }
        (Ok(()), sched)
    });
    // Rank 2 dies during round 2's compute (t goes 2 -> 3 across 2.5), so
    // round 2's allreduce starts after the crash on every survivor.
    let sched = &report.results[0].1;
    let blame = fault_impact(&sched.rounds, 4, &[2]);
    assert_eq!(blame[2], Some(2));
    for (rank, (res, _)) in report.results.iter().enumerate() {
        let expect = match blame[rank] {
            Some(b) => Err((2, MpiError::NodeFailed { world_rank: b })),
            None => Ok(()),
        };
        assert_eq!(res, &expect, "rank {rank} under {:?}", sched.algo);
    }
}

#[test]
fn barrier_aborts_when_a_member_dies() {
    let plan = FaultPlan::none().with(FaultEvent::NodeCrash {
        node: NodeId(3),
        at: t(0.5),
    });
    let report = cluster_with(4, plan).pipe(Universe::new).run(|p| {
        let world = p.world();
        if p.world_rank() == 3 {
            return p.try_compute(100.0).is_err();
        }
        world.barrier().is_err()
    });
    assert!(report.results.iter().all(|&aborted| aborted));
}

#[test]
fn link_drop_fails_the_send() {
    let plan = FaultPlan::none().with(FaultEvent::LinkDrop {
        from: NodeId(0),
        to: NodeId(1),
        at: t(0.0),
    });
    let report = cluster_with(2, plan).pipe(Universe::new).run(|p| {
        let world = p.world();
        if p.world_rank() == 0 {
            return world.send(&[1i64], 1, 7).err();
        }
        None
    });
    assert_eq!(report.results[0], Some(MpiError::LinkDown { from: 0, to: 1 }));
}

#[test]
fn link_degradation_slows_the_transfer() {
    // 1 MB/s link degraded to 25% from t=0: 1 MB takes ~4 s instead of ~1 s.
    let degraded = FaultPlan::none().with(FaultEvent::LinkDegrade {
        from: NodeId(0),
        to: NodeId(1),
        at: t(0.0),
        bandwidth_factor: 0.25,
    });
    let run = |plan: FaultPlan| {
        cluster_with(2, plan)
            .pipe(Universe::new)
            .run(|p| {
                let world = p.world();
                if p.world_rank() == 0 {
                    world.send(&vec![0u8; 1_000_000], 1, 7).unwrap();
                    return SimTime::ZERO;
                }
                let _ = world.recv::<u8>(0, 7).unwrap();
                p.clock().now()
            })
            .results[1]
    };
    let healthy = run(FaultPlan::none());
    let slow = run(degraded);
    assert!((healthy.as_secs() - 1.0).abs() < 0.1, "healthy ~1 s: {healthy:?}");
    assert!((slow.as_secs() - 4.0).abs() < 0.1, "degraded ~4 s: {slow:?}");
}

#[test]
fn transient_slowdown_stretches_compute() {
    let plan = FaultPlan::none().with(FaultEvent::NodeSlowdown {
        node: NodeId(0),
        from: t(0.0),
        until: t(100.0),
        factor: 0.5,
    });
    let report = cluster_with(1, plan).pipe(Universe::new).run(|p| {
        p.try_compute(100.0).unwrap();
        p.clock().now()
    });
    assert_eq!(report.results[0], t(2.0)); // 100 units at 50 u/s
}

#[test]
fn same_seed_same_fault_plan_same_makespan() {
    let run = |seed: u64| {
        let plan = FaultPlan::random_crashes(seed, (0..6).map(NodeId), 0.4, t(10.0));
        let survivors_only = plan.clone();
        let report = cluster_with(6, survivors_only).pipe(Universe::new).run(|p| {
            let mut rounds = 0u32;
            for _ in 0..8 {
                if p.try_compute(100.0).is_err() {
                    break;
                }
                rounds += 1;
            }
            rounds
        });
        (plan, report.results, report.makespan)
    };
    let (plan_a, rounds_a, span_a) = run(12345);
    let (plan_b, rounds_b, span_b) = run(12345);
    assert_eq!(plan_a, plan_b, "same seed must replay the same plan");
    assert_eq!(rounds_a, rounds_b);
    assert_eq!(span_a, span_b);
    let (plan_c, _, _) = run(54321);
    assert_ne!(plan_a, plan_c, "different seed should differ");
}

#[test]
fn a_member_dead_by_my_clock_aborts_the_collective_whatever_is_queued() {
    // Node 2 is gone at t=0.5. Rank 0 enters the barrier at t=1, rank 1 at
    // t=3 — so whether rank 1's message is already queued when rank 0 looks
    // is host scheduling. It must not matter: a member is dead in rank 0's
    // virtual present, so rank 0 aborts where it stands, every run.
    for _ in 0..40 {
        let plan = FaultPlan::none().with(FaultEvent::NodeCrash {
            node: NodeId(2),
            at: t(0.5),
        });
        let report = cluster_with(3, plan).pipe(Universe::new).run(|p| {
            let units = [100.0, 300.0, 100.0][p.world_rank()];
            p.try_compute(units)?;
            p.world().barrier()
        });
        for rank in 0..2 {
            let blamed = MpiError::NodeFailed { world_rank: 2 };
            assert_eq!(report.results[rank], Err(blamed), "rank {rank}");
        }
        assert_eq!(report.rank_times[0], t(1.0), "rank 0 waited for nobody");
    }
}

#[test]
fn agreement_waiters_all_read_the_round_a_wedged_member_completes() {
    // Rank 1 is wedged on a message nobody sends while the others wait for
    // it in an agreement round. Quiescence hands rank 1 its Deadlock; the
    // waiters are not stuck — rank 1 is about to deposit — so every member
    // must read the one completed round (same flag, same completion time),
    // never a verdict of its own that raced the deposit.
    for _ in 0..40 {
        let report = cluster_with(4, FaultPlan::none())
            .pipe(Universe::new)
            .run(|p| {
                let world = p.world();
                p.compute(100.0 * (1 + p.world_rank()) as f64);
                if p.world_rank() == 1 {
                    let wedged = world.recv::<i64>(0, 5).unwrap_err();
                    assert!(matches!(wedged, MpiError::Deadlock { .. }), "{wedged:?}");
                    return world.agree(false);
                }
                world.agree(true)
            });
        let first = report.results[0].clone().expect("the round completes");
        assert!(!first.flag && first.failed.is_empty());
        assert_eq!(first.at, t(4.0), "the latest deposit");
        for (rank, outcome) in report.results.iter().enumerate() {
            assert_eq!(outcome.as_ref(), Ok(&first), "rank {rank}");
        }
        assert!(report.rank_times.iter().all(|&at| at == t(4.0)));
    }
}

#[test]
fn terminated_bystander_does_not_stall_classification() {
    // Rank 2 returns at once. Rank 0 waits in a collective for rank 1, rank
    // 1 waits point-to-point for rank 0: a two-rank cycle. The bystander's
    // exit neither aborts rank 0's collective wait (it did not fail) nor
    // may it make that wait look resolvable to the classifier — which used
    // to happen, and left the run to the wall-clock watchdog.
    let run = || {
        cluster_with(3, FaultPlan::none())
            .pipe(Universe::new)
            .run(|p| {
                let world = p.world();
                match p.world_rank() {
                    0 => world.bcast(&mut vec![0i64], 1).err(),
                    1 => world.recv::<i64>(0, 5).err(),
                    _ => None,
                }
            })
    };
    let start = std::time::Instant::now();
    let first = run();
    assert!(start.elapsed() < std::time::Duration::from_secs(1));
    for rank in 0..2 {
        // The classifier's verdict carries the whole cycle; the watchdog
        // could only have named the caller's own edge.
        match &first.results[rank] {
            Some(MpiError::Deadlock { waiting, on, graph }) => {
                assert_eq!((*waiting, on), (rank, &vec![1 - rank]));
                assert_eq!(graph.edges, vec![(0, vec![1]), (1, vec![0])]);
            }
            other => panic!("rank {rank}: expected Deadlock, got {other:?}"),
        }
    }
    assert_eq!(first.results[2], None);
    assert_eq!(first.wakeups.missed, 0);
    for _ in 1..50 {
        let again = run();
        assert_eq!(again.results, first.results);
        assert_eq!(again.wakeups.missed, 0);
    }
}

/// `Arc<Cluster> -> Universe` plumbing helper so tests read top-down.
trait Pipe: Sized {
    fn pipe<T>(self, f: impl FnOnce(Self) -> T) -> T {
        f(self)
    }
}
impl Pipe for Arc<hetsim::Cluster> {}

#[test]
fn every_seeded_wedge_gets_its_typed_verdict_in_under_a_second() {
    // Two wedges at several sizes. The receive cycle — rank r waits on
    // r+1 mod p, nobody sends — is a `Deadlock` whose wait graph names every
    // rank. The crash orphan — every survivor waits on rank p-1, which dies
    // before it sends — is `NodeFailed` naming the dead rank, not a
    // deadlock. The quiescence detector decides both the moment the last
    // rank blocks, so each run takes milliseconds; no timer is involved.
    for p in [2, 4, 9, 16] {
        let start = std::time::Instant::now();
        let cycle = cluster_with(p, FaultPlan::none())
            .pipe(Universe::new)
            .run(move |proc| {
                let world = proc.world();
                world.recv::<i64>((world.rank() + 1) % p, 7).err()
            });
        assert!(
            start.elapsed() < std::time::Duration::from_secs(1),
            "cycle p={p}"
        );
        for (r, verdict) in cycle.results.iter().enumerate() {
            match verdict {
                Some(MpiError::Deadlock { waiting, on, graph }) => {
                    assert_eq!(*waiting, r, "p={p}");
                    assert!(on.contains(&((r + 1) % p)), "p={p} rank {r}: {on:?}");
                    assert_eq!(graph.edges.len(), p, "p={p}");
                }
                other => panic!("p={p} rank {r}: expected Deadlock, got {other:?}"),
            }
        }

        let dead = p - 1;
        let plan = FaultPlan::none().with(FaultEvent::NodeCrash {
            node: NodeId(dead),
            at: t(1e-6),
        });
        let start = std::time::Instant::now();
        let orphan = cluster_with(p, plan).pipe(Universe::new).run(move |proc| {
            let world = proc.world();
            if world.rank() == dead {
                // Dies discovering its own crash; never sends.
                return proc.try_compute(1.0).err();
            }
            world.recv::<i64>(dead, 7).err()
        });
        assert!(
            start.elapsed() < std::time::Duration::from_secs(1),
            "orphan p={p}"
        );
        for (r, verdict) in orphan.results.iter().enumerate() {
            let named =
                matches!(verdict, Some(MpiError::NodeFailed { world_rank }) if *world_rank == dead);
            assert!(
                named,
                "p={p} rank {r}: expected NodeFailed({dead}), got {verdict:?}"
            );
        }
    }
}
