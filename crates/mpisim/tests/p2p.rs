//! Point-to-point semantics across real rank threads.

use hetsim::{Cluster, Link, Protocol, SimTime, TopologyBuilder};
use mpisim::{MpiError, Universe, UniverseConfig, EAGER_LIMIT};
use std::sync::Arc;

fn cluster(n: usize) -> Arc<Cluster> {
    let mut b = TopologyBuilder::new();
    for i in 0..n {
        b = b.node(format!("h{i}"), 100.0);
    }
    Arc::new(
        b.intra_switch(Link::new(1e-3, 1e6, Protocol::Tcp))
            .build()
            .into_parts()
            .0,
    )
}

#[test]
fn ping_pong_roundtrip() {
    let u = Universe::new(cluster(2));
    let report = u.run(|p| {
        let world = p.world();
        if world.rank() == 0 {
            world.send(&[1.0f64, 2.0, 3.0], 1, 0).unwrap();
            let (back, st) = world.recv::<f64>(1, 1).unwrap();
            assert_eq!(st.source, 1);
            back
        } else {
            let (data, st) = world.recv::<f64>(0, 0).unwrap();
            assert_eq!(st.source, 0);
            assert_eq!(st.tag, 0);
            let doubled: Vec<f64> = data.iter().map(|x| x * 2.0).collect();
            world.send(&doubled, 0, 1).unwrap();
            doubled
        }
    });
    assert_eq!(report.results[0], vec![2.0, 4.0, 6.0]);
}

#[test]
fn messages_between_many_pairs() {
    let n = 6;
    let u = Universe::new(cluster(n));
    let report = u.run(move |p| {
        let world = p.world();
        let me = world.rank();
        // Everyone sends its rank to everyone else, then sums what it gets.
        for dst in 0..n {
            if dst != me {
                world.send(&[me as i64], dst, 7).unwrap();
            }
        }
        let mut sum = 0i64;
        for src in 0..n {
            if src != me {
                let (v, _) = world.recv::<i64>(src, 7).unwrap();
                sum += v[0];
            }
        }
        sum
    });
    let total: i64 = (0..n as i64).sum();
    for (me, &s) in report.results.iter().enumerate() {
        assert_eq!(s, total - me as i64);
    }
}

#[test]
fn any_source_any_tag_wildcards() {
    let u = Universe::new(cluster(3));
    let report = u.run(|p| {
        let world = p.world();
        match world.rank() {
            0 => {
                let mut seen = Vec::new();
                for _ in 0..2 {
                    let (v, st) = world.recv_any::<i64>(None, None).unwrap();
                    seen.push((st.source, st.tag, v[0]));
                }
                seen.sort_unstable();
                seen
            }
            r => {
                world.send(&[r as i64 * 10], 0, r as i32).unwrap();
                Vec::new()
            }
        }
    });
    assert_eq!(report.results[0], vec![(1, 1, 10), (2, 2, 20)]);
}

#[test]
fn non_overtaking_order_per_pair() {
    let u = Universe::new(cluster(2));
    let report = u.run(|p| {
        let world = p.world();
        if world.rank() == 0 {
            for i in 0..10i64 {
                world.send(&[i], 1, 0).unwrap();
            }
            Vec::new()
        } else {
            (0..10)
                .map(|_| world.recv::<i64>(0, 0).unwrap().0[0])
                .collect::<Vec<_>>()
        }
    });
    assert_eq!(report.results[1], (0..10).collect::<Vec<i64>>());
}

#[test]
fn sendrecv_exchanges_without_deadlock() {
    let u = Universe::new(cluster(2));
    let report = u.run(|p| {
        let world = p.world();
        let me = world.rank();
        let other = 1 - me;
        let (got, _) = world
            .sendrecv::<i64, i64>(&[me as i64], other, 0, other, 0)
            .unwrap();
        got[0]
    });
    assert_eq!(report.results, vec![1, 0]);
}

#[test]
fn recv_into_reports_truncation() {
    let u = Universe::new(cluster(2));
    u.run(|p| {
        let world = p.world();
        if world.rank() == 0 {
            world.send(&[1.0f64; 8], 1, 0).unwrap();
        } else {
            let mut small = [0.0f64; 4];
            let err = world.recv_into(&mut small, 0, 0).unwrap_err();
            assert!(matches!(err, MpiError::Truncated { .. }));
        }
    });
}

#[test]
fn invalid_rank_errors() {
    let u = Universe::new(cluster(2));
    u.run(|p| {
        let world = p.world();
        let err = world.send(&[0i64], 5, 0).unwrap_err();
        assert!(matches!(err, MpiError::InvalidRank { rank: 5, .. }));
    });
}

#[test]
fn probe_then_sized_receive() {
    let u = Universe::new(cluster(2));
    u.run(|p| {
        let world = p.world();
        if world.rank() == 0 {
            world.send(&[9.0f64; 5], 1, 42).unwrap();
        } else {
            let st = world.probe(None, None).unwrap();
            assert_eq!(st.tag, 42);
            assert_eq!(st.bytes, 40);
            let mut buf = vec![0.0f64; st.bytes / 8];
            let (n, _) = world.recv_into(&mut buf, st.source, st.tag).unwrap();
            assert_eq!(n, 5);
            assert_eq!(buf, vec![9.0; 5]);
        }
    });
}

#[test]
fn iprobe_nonblocking() {
    let u = Universe::new(cluster(2));
    u.run(|p| {
        let world = p.world();
        if world.rank() == 1 {
            // Nothing sent to us with tag 99.
            assert!(world.iprobe(Some(0), Some(99)).unwrap().is_none());
            // Drain the real message so rank 0 isn't left hanging (eager
            // sends don't need draining, but be tidy).
            let (_, st) = world.recv_any::<u8>(None, None).unwrap();
            assert_eq!(st.tag, 1);
        } else {
            world.send(&[1u8], 1, 1).unwrap();
        }
    });
}

#[test]
fn virtual_time_message_costs_propagate() {
    // 1 ms latency, 1 MB/s: an 8000-byte message (1000 f64) costs
    // 1e-3 + 8e-3 = 9 ms on the wire.
    let u = Universe::new(cluster(2));
    let report = u.run(|p| {
        let world = p.world();
        if world.rank() == 0 {
            world.send(&vec![0.0f64; 1000], 1, 0).unwrap();
        } else {
            let _ = world.recv::<f64>(0, 0).unwrap();
        }
        world.clock().now()
    });
    // Sender paid only the injection overhead (latency).
    assert!((report.results[0].as_secs() - 1e-3).abs() < 1e-9);
    // Receiver advanced to the arrival time.
    assert!((report.results[1].as_secs() - 9e-3).abs() < 1e-9);
    assert_eq!(report.makespan, SimTime::from_secs(report.results[1].as_secs()));
}

#[test]
fn virtual_time_compute_heterogeneity() {
    let cluster = Arc::new(
        TopologyBuilder::new()
            .node("fast", 176.0)
            .node("slow", 9.0)
            .intra_switch(Link::with_defaults(Protocol::Tcp))
            .build()
            .into_parts()
            .0,
    );
    let u = Universe::new(cluster);
    let report = u.run(|p| {
        p.compute(176.0 * 9.0); // work divisible by both speeds
        p.clock().now().as_secs()
    });
    assert!((report.results[0] - 9.0).abs() < 1e-9);
    assert!((report.results[1] - 176.0).abs() < 1e-9);
}

#[test]
fn self_send_is_free_and_matches() {
    let u = Universe::new(cluster(1));
    let report = u.run(|p| {
        let world = p.world();
        world.send(&[7i64], 0, 0).unwrap();
        let (v, _) = world.recv::<i64>(0, 0).unwrap();
        (v[0], world.clock().now().as_secs())
    });
    assert_eq!(report.results[0].0, 7);
    assert_eq!(report.results[0].1, 0.0);
}

/// A message's protocol label follows its length: 200 bytes ride outside
/// the envelope's inline slot yet within `EAGER_LIMIT`, and count as eager.
#[test]
fn message_stats_count_a_message_by_its_length() {
    let u = Universe::with_config(cluster(2), UniverseConfig::new().tracing(true));
    let report = u.run(|p| {
        let world = p.world();
        if world.rank() == 0 {
            world.send(&[1u8; 200], 1, 0).unwrap();
            world.send(&[2u8; EAGER_LIMIT + 1], 1, 0).unwrap();
        } else {
            assert_eq!(world.recv::<u8>(0, 0).unwrap().0, [1; 200]);
            assert_eq!(world.recv::<u8>(0, 0).unwrap().0.len(), EAGER_LIMIT + 1);
        }
    });
    let stats = report.trace.expect("tracing was enabled").message_stats(2);
    let s = &stats[0];
    let labelled = (s.sent, s.eager_sent, s.rendezvous_sent);
    assert_eq!(labelled, (2, 1, 1), "{s:?}");
    assert_eq!(s.bytes_sent, 200 + EAGER_LIMIT as u64 + 1);
}
