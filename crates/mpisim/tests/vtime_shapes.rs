//! Virtual-time *shape* tests: the collective cost model must emerge from
//! the link model with the expected asymptotics (binomial trees are
//! logarithmic, contention serialises).

use hetsim::{Cluster, ContentionModel, Link, Protocol, TopologyBuilder};
use mpisim::{CollectiveAlgo, ReduceOp, Universe};
use std::sync::Arc;

const LAT: f64 = 1e-3;

fn cluster(n: usize, contention: ContentionModel) -> Arc<Cluster> {
    let mut b = TopologyBuilder::new();
    for i in 0..n {
        b = b.node(format!("h{i}"), 1e9); // compute is free
    }
    Arc::new(
        b.intra_switch(Link::new(LAT, 1e12, Protocol::Tcp))
            .contention(contention)
            .build()
            .into_parts()
            .0,
    )
}

/// Makespan of a tiny-payload broadcast across `n` ranks.
fn bcast_makespan(n: usize) -> f64 {
    let u = Universe::new(cluster(n, ContentionModel::ParallelLinks));
    let report = u.run(|p| {
        let world = p.world();
        let mut v = if world.rank() == 0 { vec![1u8] } else { vec![] };
        world.bcast(&mut v, 0).unwrap();
        world.clock().now().as_secs()
    });
    report.makespan.as_secs()
}

#[test]
fn binomial_bcast_is_logarithmic() {
    // With negligible payload, the critical path of a binomial broadcast is
    // ceil(log2(n)) link latencies.
    for (n, hops) in [(2usize, 1.0f64), (4, 2.0), (8, 3.0), (9, 4.0), (16, 4.0)] {
        let t = bcast_makespan(n);
        let expect = hops * LAT;
        assert!(
            (t - expect).abs() < 0.35 * expect,
            "bcast over {n}: {t:.4}s vs expected ~{expect:.4}s"
        );
    }
    // And it grows strictly slower than linear.
    assert!(bcast_makespan(16) < 8.0 * LAT);
}

#[test]
fn bandwidth_term_dominates_large_payloads() {
    // 1 MB over a 1 MB/s link: ~1 s per hop regardless of latency.
    let cluster = Arc::new(
        TopologyBuilder::new()
            .node("a", 1e9)
            .node("b", 1e9)
            .intra_switch(Link::new(LAT, 1e6, Protocol::Tcp))
            .build()
            .into_parts()
            .0,
    );
    let u = Universe::new(cluster);
    let report = u.run(|p| {
        let world = p.world();
        if world.rank() == 0 {
            world.send(&vec![0u8; 1_000_000], 1, 0).unwrap();
        } else {
            let _ = world.recv::<u8>(0, 0).unwrap();
        }
        world.clock().now().as_secs()
    });
    let t = report.results[1];
    assert!((t - 1.0).abs() < 0.01, "1 MB at 1 MB/s took {t:.3}s");
}

#[test]
fn shared_bus_serialises_a_fan_in() {
    // Everyone sends to rank 0 simultaneously. On the switch the arrivals
    // overlap (makespan ~ one transfer); on a shared bus they serialise
    // (makespan ~ (n-1) transfers).
    let n = 6;
    let payload = 100_000usize; // 0.1 s per transfer at 1 MB/s
    let run = |contention| {
        let mut b = TopologyBuilder::new();
        for i in 0..n {
            b = b.node(format!("h{i}"), 1e9);
        }
        let cluster = Arc::new(
            b.intra_switch(Link::new(1e-5, 1e6, Protocol::Tcp))
                .contention(contention)
                .build()
                .into_parts()
                .0,
        );
        let u = Universe::new(cluster);
        let report = u.run(move |p| {
            let world = p.world();
            if world.rank() == 0 {
                for _ in 1..n {
                    let _ = world.recv_any::<u8>(None, Some(0)).unwrap();
                }
            } else {
                world.send(&vec![0u8; payload], 0, 0).unwrap();
            }
            world.clock().now().as_secs()
        });
        report.makespan.as_secs()
    };
    let switch = run(ContentionModel::ParallelLinks);
    let bus = run(ContentionModel::SharedBus);
    assert!((switch - 0.1).abs() < 0.02, "switch fan-in {switch:.3}s");
    assert!(
        (bus - 0.5).abs() < 0.05,
        "bus fan-in should serialise 5 transfers: {bus:.3}s"
    );
}

#[test]
fn reduce_and_bcast_have_symmetric_cost() {
    // A binomial reduce is the mirror of a binomial bcast — the same tree
    // edges, walked leaves-first; with symmetric links their makespans
    // match.
    let n = 8;
    let u = Universe::new(cluster(n, ContentionModel::ParallelLinks));
    let reduce_t = u
        .run(|p| {
            let world = p.world();
            world
                .reduce_eq_f64_with(CollectiveAlgo::Binomial, &[1.0], ReduceOp::Sum, 0)
                .unwrap();
            world.clock().now().as_secs()
        })
        .makespan
        .as_secs();
    let bcast_t = bcast_makespan(n);
    assert!(
        (reduce_t - bcast_t).abs() < 0.3 * bcast_t,
        "reduce {reduce_t:.4} vs bcast {bcast_t:.4}"
    );
}

#[test]
fn loaded_processor_slows_only_its_own_rank() {
    use hetsim::{LoadModel, Processor, SimTime};
    let cluster = Arc::new(
        TopologyBuilder::new()
            .node("fast", 100.0)
            .processor(Processor::new("busy", 100.0).with_load(LoadModel::Constant {
                fraction: 0.75,
            }))
            .intra_switch(Link::new(1e-6, 1e12, Protocol::Tcp))
            .build()
            .into_parts()
            .0,
    );
    let u = Universe::new(cluster);
    let report = u.run(|p| {
        p.compute(100.0);
        p.clock().now()
    });
    assert_eq!(report.results[0], SimTime::from_secs(1.0));
    assert_eq!(report.results[1], SimTime::from_secs(4.0));
}
