//! Collective semantics across real rank threads.

use hetsim::{Cluster, Link, Protocol, TopologyBuilder};
use mpisim::{ReduceOp, Universe, UniverseConfig, EAGER_LIMIT};
use std::sync::Arc;

fn cluster(n: usize) -> Arc<Cluster> {
    let mut b = TopologyBuilder::new();
    for i in 0..n {
        b = b.node(format!("h{i}"), 100.0);
    }
    Arc::new(
        b.intra_switch(Link::new(1e-4, 1e7, Protocol::Tcp))
            .build()
            .into_parts()
            .0,
    )
}

#[test]
fn bcast_from_every_root() {
    for n in [1, 2, 3, 5, 8, 9] {
        for root in [0, n - 1, n / 2] {
            let u = Universe::new(cluster(n));
            let report = u.run(move |p| {
                let world = p.world();
                let mut data = if world.rank() == root {
                    vec![3.5f64, -1.0, root as f64]
                } else {
                    Vec::new()
                };
                world.bcast(&mut data, root).unwrap();
                data
            });
            for r in report.results {
                assert_eq!(r, vec![3.5, -1.0, root as f64], "n={n} root={root}");
            }
        }
    }
}

#[test]
fn gather_collects_in_rank_order_with_ragged_sizes() {
    let u = Universe::new(cluster(4));
    let report = u.run(|p| {
        let world = p.world();
        let me = world.rank();
        let contrib: Vec<i64> = (0..=me as i64).collect(); // rank r sends r+1 elems
        world.gather(&contrib, 1).unwrap()
    });
    assert!(report.results[0].is_none());
    let at_root = report.results[1].as_ref().unwrap();
    assert_eq!(at_root.len(), 4);
    for (r, part) in at_root.iter().enumerate() {
        assert_eq!(part, &(0..=r as i64).collect::<Vec<_>>());
    }
}

#[test]
fn allgather_everyone_sees_everything() {
    let u = Universe::new(cluster(5));
    let report = u.run(|p| {
        let world = p.world();
        let me = world.rank() as i64;
        world.allgather(&[me, me * me]).unwrap()
    });
    for r in report.results {
        for (src, part) in r.iter().enumerate() {
            assert_eq!(part, &vec![src as i64, (src * src) as i64]);
        }
    }
}

#[test]
fn allreduce_min_prod() {
    let u = Universe::new(cluster(5));
    let report = u.run(|p| {
        let world = p.world();
        let me = world.rank() as i64 + 1;
        let min = world.allreduce_eq_i64(&[me], ReduceOp::Min).unwrap()[0];
        let prod = world.allreduce_eq_i64(&[me], ReduceOp::Prod).unwrap()[0];
        (min, prod)
    });
    for (min, prod) in report.results {
        assert_eq!(min, 1);
        assert_eq!(prod, 120); // 5!
    }
}

#[test]
fn barrier_synchronises_clocks() {
    let cluster = Arc::new(
        TopologyBuilder::new()
            .node("fast", 100.0)
            .node("slow", 10.0)
            .intra_switch(Link::new(1e-4, 1e7, Protocol::Tcp))
            .build()
            .into_parts()
            .0,
    );
    let u = Universe::new(cluster);
    let report = u.run(|p| {
        p.compute(100.0); // fast: 1 s, slow: 10 s
        let world = p.world();
        world.barrier().unwrap();
        world.clock().now().as_secs()
    });
    // After the barrier, nobody can be earlier than the slow rank's entry.
    assert!(report.results[0] >= 10.0);
    assert!(report.results[1] >= 10.0);
    // And the barrier itself costs only microseconds.
    assert!(report.results[0] < 10.01);
}

#[test]
fn collectives_compose_back_to_back() {
    // Two identical collectives in a row must pair up correctly.
    let u = Universe::new(cluster(4));
    let report = u.run(|p| {
        let world = p.world();
        let a = world.allreduce_eq_i64(&[1], ReduceOp::Sum).unwrap()[0];
        let b = world.allreduce_eq_i64(&[10], ReduceOp::Sum).unwrap()[0];
        let mut v = vec![world.rank() as i64];
        world.bcast(&mut v, 0).unwrap();
        (a, b, v[0])
    });
    for r in report.results {
        assert_eq!(r, (4, 40, 0));
    }
}

#[test]
fn single_rank_collectives_are_identity() {
    let u = Universe::new(cluster(1));
    let report = u.run(|p| {
        let world = p.world();
        world.barrier().unwrap();
        let mut v = vec![1.5f64];
        world.bcast(&mut v, 0).unwrap();
        let g = world.gather(&v, 0).unwrap().unwrap();
        let ar = world.allreduce_eq_f64(&[2.0], ReduceOp::Sum).unwrap()[0];
        (v[0], g.len(), ar)
    });
    assert_eq!(report.results[0], (1.5, 1, 2.0));
}

/// A legacy collective's transfers are labelled like the transport's
/// messages: every one is eager or rendezvous, by its size. Ranks 2 and 3
/// gather more than `EAGER_LIMIT` bytes each.
#[test]
fn legacy_gather_sends_only_eager_or_rendezvous() {
    let n = 4;
    let u = Universe::with_config(cluster(n), UniverseConfig::new().tracing(true));
    let report = u.run(|p| {
        let world = p.world();
        let contrib = vec![world.rank() as f64; 20 * world.rank()];
        let gathered = world.gather(&contrib, 0).unwrap();
        gathered.map(|parts| parts[3].len())
    });
    assert_eq!(report.results[0], Some(60));
    let stats = report.trace.expect("tracing was enabled").message_stats(n);
    assert!(stats[3].bytes_sent > EAGER_LIMIT as u64, "{stats:?}");
    for (rank, s) in stats.iter().enumerate() {
        let labelled = s.eager_sent + s.rendezvous_sent;
        assert_eq!(labelled, s.sent, "rank {rank}: {s:?}");
    }
}
