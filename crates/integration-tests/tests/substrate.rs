//! Tests of the p2p substrate: the eager/rendezvous protocol split, the
//! arena-backed payload lifecycle, doorbell wakeups, and large worlds on
//! small thread stacks.

use hetsim::{Cluster, FaultEvent, FaultPlan, Link, NodeId, Protocol, SimTime, TopologyBuilder};
use mpisim::{CollectiveAlgo, MpiError, Universe, UniverseConfig, EAGER_LIMIT};
use proptest::prelude::*;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn uniform_builder(n: usize) -> TopologyBuilder {
    let mut b = TopologyBuilder::new();
    for i in 0..n {
        b = b.node(format!("n{i}"), 100.0);
    }
    b.intra_switch(Link::new(1e-4, 1e7, Protocol::Tcp))
}

fn uniform_cluster(n: usize) -> Arc<Cluster> {
    Arc::new(uniform_builder(n).build().into_parts().0)
}

/// Deterministic fill for a message: sender/sequence-tagged bytes, so a
/// reordered or torn delivery is visible in the payload, not just the
/// envelope.
fn fill(seq: usize, len: usize) -> Vec<u8> {
    (0..len).map(|j| ((seq * 31 + j) % 251) as u8).collect()
}

// ---------- satellite: 1024-rank worlds on small stacks ------------------

#[test]
fn kilorank_world_runs_on_small_stacks() {
    let n = 1024;
    let u = Universe::with_config(
        uniform_cluster(n),
        UniverseConfig::new().stack_size(256 * 1024),
    );
    let report = u.run(|proc| {
        let world = proc.world();
        let me = world.rank();
        let (right, left) = ((me + 1) % n, (me + n - 1) % n);
        let (rx, st) = world
            .sendrecv::<u32, u32>(&[me as u32], right, 7, left, 7)
            .expect("ring exchange");
        assert_eq!(rx, vec![left as u32], "rank {me} got the wrong neighbour");
        assert_eq!(st.source, left);
        me
    });
    assert_eq!(report.results.len(), n);
    for (i, &r) in report.results.iter().enumerate() {
        assert_eq!(r, i);
    }
    assert_eq!(report.pool.outstanding, 0, "leaked rendezvous leases");
}

// ---------- satellite: doorbell wakeups on peer failure -------------------

/// A receive blocked on a peer that exits must be woken by the
/// termination doorbell, not by the 250 ms wake backstop: the whole run
/// (spawn + block + verdict) has to finish well inside one backstop
/// period, and the receiver's virtual clock must not advance at all —
/// failure detection costs zero virtual time (well under one tick).
#[test]
fn guarded_receive_notices_terminated_peer_before_backstop() {
    let u = Universe::new(uniform_cluster(2));
    let start = Instant::now();
    let report = u.run(|proc| {
        let world = proc.world();
        if world.rank() == 1 {
            return Ok(()); // exit without sending
        }
        let before = proc.clock().now();
        let r = world.recv::<u8>(1, 0);
        let after = proc.clock().now();
        match r {
            Err(MpiError::PeerTerminated { world_rank: 1 }) => {
                assert_eq!(
                    after, before,
                    "failure detection must not advance virtual time"
                );
                Ok(())
            }
            other => Err(format!("expected PeerTerminated from rank 1, got {other:?}")),
        }
    });
    let elapsed = start.elapsed();
    for r in &report.results {
        assert_eq!(r, &Ok(()));
    }
    assert!(
        elapsed < Duration::from_millis(200),
        "receiver took {elapsed:?}; it waited out the wake backstop instead \
         of being woken by the termination doorbell"
    );
}

/// Same for a fail-stop crash mid-run: the dying rank's `mark_failed`
/// rings the mailbox of every rank blocked on it, so the blocked receiver
/// resolves immediately with the typed error instead of sleeping toward
/// the backstop.
#[test]
fn guarded_receive_notices_crashed_peer_before_backstop() {
    let cluster = Arc::new(
        TopologyBuilder::new()
            .node("a", 100.0)
            .node("b", 100.0)
            .intra_switch(Link::new(1e-4, 1e7, Protocol::Tcp))
            .faults(FaultPlan::new(vec![FaultEvent::NodeCrash {
                node: NodeId(1),
                at: SimTime::from_secs(0.5),
            }]))
            .build()
            .into_parts()
            .0,
    );
    let start = Instant::now();
    let report = Universe::new(cluster).run(|proc| {
        let world = proc.world();
        if world.rank() == 1 {
            // Compute past the crash time and die.
            return match proc.try_compute(1_000_000.0) {
                Err(MpiError::NodeFailed { world_rank: 1 }) => Ok(()),
                other => Err(format!("expected own crash, got {other:?}")),
            };
        }
        match world.recv::<u8>(1, 0) {
            Err(MpiError::NodeFailed { world_rank: 1 }) => Ok(()),
            other => Err(format!("expected NodeFailed(1), got {other:?}")),
        }
    });
    let elapsed = start.elapsed();
    for r in &report.results {
        assert_eq!(r, &Ok(()));
    }
    assert!(
        elapsed < Duration::from_millis(200),
        "receiver took {elapsed:?}; the crash doorbell did not wake it"
    );
}

// ---------- the death window: a death rings who it concerns ---------------

/// 300 universes of 8 ranks. In each, one rank dies — returns, or fail-stops
/// under the fault plan — after a 0–200 µs real-time stagger, while the
/// other seven enter a wait that only its death can end. The stagger sweeps
/// the death across the waiters' window between "checked the failure
/// detector" and "registered as blocked": a death rings only registered
/// waiters, so a waiter in that window must be turned back by the death
/// epoch. One lost ring is one 250 ms backstop expiry.
fn death_window(crash: bool) {
    use MpiError::{NodeFailed, PeerTerminated};
    const P: usize = 8;
    let clusters: Vec<Arc<Cluster>> = (0..P)
        .map(|victim| {
            let crashes = vec![FaultEvent::NodeCrash { node: NodeId(victim), at: SimTime::from_secs(0.5) }];
            let plan = FaultPlan::new(if crash { crashes } else { Vec::new() });
            Arc::new(uniform_builder(P).faults(plan).build().into_parts().0)
        })
        .collect();
    let start = Instant::now();
    for round in 0..300 {
        let (wait, victim) = (round % 4, (round / 4) % P);
        let stagger = Duration::from_micros((round * 37 % 201) as u64);
        let report = Universe::new(clusters[victim].clone()).run(|proc| {
            let world = proc.world();
            if world.rank() == victim {
                let until = Instant::now() + stagger;
                while Instant::now() < until {
                    std::hint::spin_loop();
                }
                if crash {
                    let died = proc.try_compute(1_000_000.0);
                    assert_eq!(died, Err(MpiError::NodeFailed { world_rank: victim }));
                }
                return None;
            }
            // The agreed `(flag, failed set)`; nothing was sent, so the
            // receives and the barrier can only end in an error.
            Some(match wait {
                0 => world.recv::<u8>(victim, 0).map(|_| None),
                1 => world.recv_any::<u8>(None, None).map(|_| None),
                2 => world.barrier().map(|()| None),
                _ => world.agree(true).map(|a| Some((a.flag, a.failed))),
            })
        });
        for (rank, got) in report.results.iter().enumerate() {
            let Some(got) = got else { continue };
            let ok = match (wait, got) {
                // Waiting on the dead rank itself: its kind of death.
                (0, Err(NodeFailed { world_rank })) => crash && *world_rank == victim,
                (0, Err(PeerTerminated { world_rank })) => !crash && *world_rank == victim,
                // Seven live `ANY_SOURCE` waiters are stuck for good once
                // the eighth is gone: one classification round blames the
                // victim for all seven, and no later round re-judges a
                // waiter before it has taken its verdict.
                (1, Err(NodeFailed { world_rank })) => *world_rank == victim,
                // A failed member aborts the legacy collective everywhere,
                // a returned one unravels it link by link — and a waiter
                // descheduled between its two looks at the failure detector
                // can see the unravelling before the failure behind it.
                (2, Err(NodeFailed { world_rank })) => crash && *world_rank == victim,
                (2, Err(PeerTerminated { .. })) => true,
                // Agreement excludes the dead member instead of failing.
                (3, Ok(Some((true, failed)))) => *failed == [victim],
                _ => false,
            };
            assert!(ok, "round {round} wait {wait} victim {victim}: rank {rank} got {got:?}");
        }
        let w = report.wakeups;
        assert_eq!((w.backstop, w.missed), (0, 0), "round {round} wait {wait}: lost ring, {w:?}");
    }
    let elapsed = start.elapsed();
    assert!(elapsed < Duration::from_secs(2), "300 rounds took {elapsed:?}");
}

#[test]
fn three_hundred_staggered_exits_lose_no_ring() {
    death_window(false);
}

#[test]
fn three_hundred_staggered_crashes_lose_no_ring() {
    death_window(true);
}

// ---------- the herd bound: a run sleeps O(p) times, not O(p^2) -----------

/// A pinned binomial broadcast at p = 256 is 255 messages, and with the
/// root spawned last every other rank is asleep when its message comes:
/// 255 sleeps. When every rank exit rang every mailbox, each still-blocked
/// rank also woke once per exit it was scheduled between — several times
/// this bound here, 50 000 sleeps at p = 1024. A closing barrier adds two
/// more waves of p - 1 messages.
#[test]
fn a_broadcast_sleeps_a_bounded_number_of_times_per_rank() {
    let p = 256;
    let u = Universe::with_config(uniform_cluster(p), UniverseConfig::new().stack_size(256 * 1024));
    for (barrier, bound) in [(false, 2 * p as u64), (true, 4 * p as u64)] {
        let report = u.run(|proc| {
            let world = proc.world();
            let mut buf = if world.rank() == p - 1 { vec![7u64; 1024] } else { vec![0; 1024] };
            world.bcast_into_with(CollectiveAlgo::Binomial, &mut buf, p - 1).expect("bcast");
            assert_eq!(buf, vec![7u64; 1024]);
            if barrier {
                world.barrier().expect("barrier");
            }
        });
        let w = report.wakeups;
        assert!(w.slept <= bound, "barrier {barrier}: a herd woke, {w:?}");
    }
}

// ---------- satellite: ordering across the protocol boundary --------------

proptest! {
    /// Per-pair non-overtaking holds when consecutive messages straddle
    /// the eager/rendezvous boundary in arbitrary patterns: the receiver
    /// sees them in send order with bit-exact payloads, whichever
    /// protocol each one rode.
    #[test]
    fn non_overtaking_across_protocol_boundary(
        sizes in proptest::collection::vec(0usize..4 * EAGER_LIMIT, 1..16)
    ) {
        let u = Universe::new(uniform_cluster(2));
        let szs = sizes.clone();
        let report = u.run(move |proc| {
            let world = proc.world();
            if world.rank() == 1 {
                for (i, &len) in szs.iter().enumerate() {
                    world.send(&fill(i, len), 0, 5).expect("send");
                }
            } else {
                for (i, &len) in szs.iter().enumerate() {
                    let (rx, st) = world.recv::<u8>(1, 5).expect("recv");
                    assert_eq!(st.bytes, len, "message {i} out of order");
                    assert_eq!(rx, fill(i, len), "message {i} corrupted");
                }
            }
        });
        prop_assert_eq!(report.pool.outstanding, 0, "leaked rendezvous leases");
    }

    /// `ANY_SOURCE`/`ANY_TAG` fan-in across the boundary: every message
    /// arrives exactly once, and per-sender sequence numbers are strictly
    /// increasing at the receiver (wildcards never break non-overtaking).
    #[test]
    fn wildcard_fan_in_across_protocol_boundary(
        msgs in proptest::collection::vec(
            (1usize..3, 1usize..4 * EAGER_LIMIT, 0i32..4),
            1..20,
        )
    ) {
        // msgs: (sender in {1, 2}, payload length, tag).
        let u = Universe::new(uniform_cluster(3));
        let plan = msgs.clone();
        let report = u.run(move |proc| {
            let world = proc.world();
            let me = world.rank();
            if me != 0 {
                for (seq, &(s, len, tag)) in plan.iter().enumerate() {
                    if s == me {
                        // First byte carries the per-sender sequence number.
                        let mut payload = fill(seq, len);
                        payload[0] = seq as u8;
                        world.send(&payload, 0, tag).expect("send");
                    }
                }
                return;
            }
            let total = plan.len();
            let mut last_seq = [None::<u8>; 3];
            let mut got = vec![false; total];
            for _ in 0..total {
                let (rx, st) = world.recv_any::<u8>(None, None).expect("recv_any");
                let seq = rx[0] as usize;
                assert!(seq < total && !got[seq], "message {seq} duplicated or bogus");
                got[seq] = true;
                let (s, len, tag) = plan[seq];
                assert_eq!(st.source, s, "message {seq} from the wrong sender");
                assert_eq!(st.tag, tag);
                assert_eq!(rx.len(), len);
                let mut expect = fill(seq, len);
                expect[0] = seq as u8;
                assert_eq!(rx, expect, "message {seq} corrupted");
                if let Some(prev) = last_seq[s] {
                    assert!(
                        (prev as usize) < seq,
                        "sender {s}: seq {seq} overtook {prev}"
                    );
                }
                last_seq[s] = Some(seq as u8);
            }
            assert!(got.iter().all(|&g| g), "messages lost");
        });
        prop_assert_eq!(report.pool.outstanding, 0, "leaked rendezvous leases");
    }
}
