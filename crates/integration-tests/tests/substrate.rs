//! Tests of the p2p substrate: the eager/rendezvous protocol split, the
//! arena-backed payload lifecycle, doorbell wakeups, and large worlds on
//! small thread stacks.

use hetsim::{Cluster, ClusterBuilder, FaultEvent, FaultPlan, Link, NodeId, Protocol, SimTime};
use mpisim::{MpiError, Universe, UniverseConfig, EAGER_LIMIT};
use proptest::prelude::*;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn uniform_cluster(n: usize) -> Arc<Cluster> {
    let mut b = ClusterBuilder::new();
    for i in 0..n {
        b = b.node(format!("n{i}"), 100.0);
    }
    Arc::new(b.all_to_all(Link::new(1e-4, 1e7, Protocol::Tcp)).build())
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
/// rings every mailbox, so the blocked receiver resolves immediately with
/// the typed error instead of sleeping toward the backstop.
#[test]
fn guarded_receive_notices_crashed_peer_before_backstop() {
    let cluster = Arc::new(
        ClusterBuilder::new()
            .node("a", 100.0)
            .node("b", 100.0)
            .all_to_all(Link::new(1e-4, 1e7, Protocol::Tcp))
            .faults(FaultPlan::new(vec![FaultEvent::NodeCrash {
                node: NodeId(1),
                at: SimTime::from_secs(0.5),
            }]))
            .build(),
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
