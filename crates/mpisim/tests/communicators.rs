//! Communicator constructors: dup, split, create — the machinery the paper's
//! Figure 3 MPI program (`MPI_Comm_split` on `is_executing_algo`) relies on.

use hetsim::{Cluster, Link, Protocol, TopologyBuilder, TraceKind};
use mpisim::{Group, ReduceOp, Universe, UniverseConfig};
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
fn dup_isolates_contexts() {
    let u = Universe::new(cluster(2));
    u.run(|p| {
        let world = p.world();
        let dup = world.dup();
        if world.rank() == 0 {
            world.send(&[1i64], 1, 0).unwrap();
            dup.send(&[2i64], 1, 0).unwrap();
        } else {
            // Receive from the dup first: the world message must not match.
            let (v, _) = dup.recv::<i64>(0, 0).unwrap();
            assert_eq!(v, vec![2]);
            let (v, _) = world.recv::<i64>(0, 0).unwrap();
            assert_eq!(v, vec![1]);
        }
    });
}

#[test]
fn split_by_parity() {
    let n = 7;
    let u = Universe::new(cluster(n));
    let report = u.run(move |p| {
        let world = p.world();
        let me = world.rank();
        let color = (me % 2) as i32;
        let sub = world.split(Some(color), 0).unwrap().unwrap();
        // Sum the world ranks within each parity class.
        let sum = sub.allreduce_eq_i64(&[me as i64], ReduceOp::Sum).unwrap()[0];
        (sub.rank(), sub.size(), sum)
    });
    // Evens: 0,2,4,6 (4 ranks, sum 12); odds: 1,3,5 (3 ranks, sum 9).
    for me in 0..n {
        let (sub_rank, sub_size, sum) = report.results[me];
        if me % 2 == 0 {
            assert_eq!(sub_size, 4);
            assert_eq!(sum, 12);
            assert_eq!(sub_rank, me / 2);
        } else {
            assert_eq!(sub_size, 3);
            assert_eq!(sum, 9);
            assert_eq!(sub_rank, me / 2);
        }
    }
}

#[test]
fn split_with_undefined_color_returns_none() {
    // This is exactly the paper's Figure 3 pattern: processes with
    // is_executing_algo == MPI_UNDEFINED drop out of em3dcomm.
    let n = 5;
    let p_active = 3;
    let u = Universe::new(cluster(n));
    let report = u.run(move |p| {
        let world = p.world();
        let me = world.rank();
        let color = if me < p_active { Some(1) } else { None };
        let sub = world.split(color, 1).unwrap();
        match sub {
            Some(c) => {
                c.barrier().unwrap();
                Some((c.rank(), c.size()))
            }
            None => None,
        }
    });
    for me in 0..n {
        if me < p_active {
            assert_eq!(report.results[me], Some((me, p_active)));
        } else {
            assert_eq!(report.results[me], None);
        }
    }
}

#[test]
fn split_key_reorders_ranks() {
    let n = 4;
    let u = Universe::new(cluster(n));
    let report = u.run(move |p| {
        let world = p.world();
        let me = world.rank();
        // Reverse order: higher world rank gets lower key.
        let key = (n - me) as i32;
        let sub = world.split(Some(0), key).unwrap().unwrap();
        (me, sub.rank())
    });
    for (me, sub_rank) in report.results {
        assert_eq!(sub_rank, n - 1 - me);
    }
}

#[test]
fn create_from_group_subset() {
    let n = 6;
    let u = Universe::new(cluster(n));
    let report = u.run(move |p| {
        let world = p.world();
        let group = Group::from_world_ranks(vec![1, 3, 5]).unwrap();
        let sub = world.create(&group).unwrap();
        match sub {
            Some(c) => {
                let sum = c
                    .allreduce_eq_i64(&[world.rank() as i64], ReduceOp::Sum)
                    .unwrap()[0];
                Some((c.rank(), c.size(), sum))
            }
            None => None,
        }
    });
    assert_eq!(report.results[0], None);
    assert_eq!(report.results[1], Some((0, 3, 9)));
    assert_eq!(report.results[3], Some((1, 3, 9)));
    assert_eq!(report.results[5], Some((2, 3, 9)));
}

#[test]
fn create_rejects_non_subset() {
    let u = Universe::new(cluster(2));
    u.run(|p| {
        let world = p.world();
        let sub = world.split(Some(i32::from(world.rank() == 0)), 0).unwrap();
        if let Some(c) = sub {
            if c.size() == 1 {
                // A group naming a world rank outside this communicator.
                let bad = Group::from_world_ranks(vec![0, 1]).unwrap();
                assert!(c.create(&bad).is_err());
            }
        }
    });
}

#[test]
fn nested_splits() {
    // Split world into halves, then split each half again: a 2-level
    // decomposition as a 2x2 grid would use for row/column communicators.
    let n = 4;
    let u = Universe::new(cluster(n));
    let report = u.run(move |p| {
        let world = p.world();
        let me = world.rank();
        let row = world.split(Some((me / 2) as i32), 0).unwrap().unwrap();
        let col = world.split(Some((me % 2) as i32), 0).unwrap().unwrap();
        let row_sum = row.allreduce_eq_i64(&[me as i64], ReduceOp::Sum).unwrap()[0];
        let col_sum = col.allreduce_eq_i64(&[me as i64], ReduceOp::Sum).unwrap()[0];
        (row_sum, col_sum)
    });
    assert_eq!(report.results[0], (1, 2)); // row {0,1}, col {0,2}
    assert_eq!(report.results[1], (1, 4)); // row {0,1}, col {1,3}
    assert_eq!(report.results[2], (5, 2));
    assert_eq!(report.results[3], (5, 4));
}

#[test]
fn group_accessors_through_comm() {
    let u = Universe::new(cluster(3));
    u.run(|p| {
        let world = p.world();
        let g = world.group();
        assert_eq!(g.size(), 3);
        assert_eq!(world.world_rank_of(2), 2);
        assert_eq!(world.my_world_rank(), world.rank());
    });
}

#[test]
fn split_groups_are_disjoint_partition() {
    let n = 9;
    let u = Universe::new(cluster(n));
    let report = u.run(move |p| {
        let world = p.world();
        let me = world.rank();
        let sub = world.split(Some((me % 3) as i32), 0).unwrap().unwrap();
        sub.group().world_ranks().to_vec()
    });
    // Union of all distinct groups must be 0..9 without overlap.
    let mut all: Vec<usize> = report.results.into_iter().flatten().collect();
    all.sort_unstable();
    all.dedup();
    assert_eq!(all, (0..n).collect::<Vec<_>>());
}

#[test]
fn split_all_undefined_yields_none_everywhere() {
    let u = Universe::new(cluster(3));
    let report = u.run(|p| {
        let world = p.world();
        world.split(None, 0).unwrap().is_none()
    });
    assert_eq!(report.results, vec![true; 3]);
}

#[test]
fn create_with_empty_group_yields_none_everywhere() {
    let u = Universe::new(cluster(3));
    let report = u.run(|p| {
        let world = p.world();
        let empty = Group::empty();
        world.create(&empty).unwrap().is_none()
    });
    assert_eq!(report.results, vec![true; 3]);
}

#[test]
fn dup_of_dup_is_isolated_from_both_ancestors() {
    let u = Universe::new(cluster(2));
    u.run(|p| {
        let world = p.world();
        let d1 = world.dup();
        let d2 = d1.dup();
        if world.rank() == 0 {
            world.send(&[1i64], 1, 0).unwrap();
            d1.send(&[2i64], 1, 0).unwrap();
            d2.send(&[3i64], 1, 0).unwrap();
        } else {
            assert_eq!(d2.recv::<i64>(0, 0).unwrap().0, vec![3]);
            assert_eq!(d1.recv::<i64>(0, 0).unwrap().0, vec![2]);
            assert_eq!(world.recv::<i64>(0, 0).unwrap().0, vec![1]);
        }
    });
}

#[test]
fn split_single_member_color_gives_singleton_comm() {
    let u = Universe::new(cluster(4));
    let report = u.run(|p| {
        let world = p.world();
        // Every rank its own color: four singleton communicators.
        let sub = world
            .split(Some(world.rank() as i32), 0)
            .unwrap()
            .unwrap();
        (sub.rank(), sub.size())
    });
    for r in report.results {
        assert_eq!(r, (0, 1));
    }
}

#[test]
fn dup_local_agrees_without_communicating() {
    let u = Universe::new(cluster(3));
    u.run(|p| {
        let world = p.world();
        let a = world.dup();
        let b = world.dup();
        // The n-th dup on every rank lands on the same context; the first
        // and second are isolated from each other and from the parent.
        if world.rank() == 0 {
            world.send(&[1i64], 1, 0).unwrap();
            a.send(&[2i64], 1, 0).unwrap();
            b.send(&[3i64], 1, 0).unwrap();
        } else if world.rank() == 1 {
            assert_eq!(b.recv::<i64>(0, 0).unwrap().0, vec![3]);
            assert_eq!(a.recv::<i64>(0, 0).unwrap().0, vec![2]);
            assert_eq!(world.recv::<i64>(0, 0).unwrap().0, vec![1]);
        }
    });
}

#[test]
fn dup_local_works_while_a_node_is_dead() {
    use hetsim::{FaultEvent, FaultPlan, NodeId, SimTime};
    let mut b = TopologyBuilder::new();
    for i in 0..3 {
        b = b.node(format!("h{i}"), 100.0);
    }
    let cluster = Arc::new(
        b.intra_switch(Link::new(1e-4, 1e7, Protocol::Tcp))
            .faults(FaultPlan::new(vec![FaultEvent::NodeCrash {
                node: NodeId(2),
                at: SimTime::from_secs(0.0),
            }]))
            .build()
            .into_parts()
            .0,
    );
    let report = Universe::new(cluster).run(|p| {
        let world = p.world();
        // `dup` sends nothing, so it needs no cooperation from rank 2 and
        // succeeds on the survivors.
        let control = world.dup();
        if world.rank() == 0 {
            control.send(&[7i64], 1, 0).map(|_| 7)
        } else if world.rank() == 1 {
            control.recv::<i64>(0, 0).map(|(v, _)| v[0])
        } else {
            Ok(0)
        }
    });
    assert_eq!(*report.results[0].as_ref().unwrap(), 7);
    assert_eq!(*report.results[1].as_ref().unwrap(), 7);
}

/// Every `world()` handle of a rank is one communicator: the `n`-th
/// agreement on any of them is the rank's `n`-th world round. Rank 0 casts
/// its two votes on two handles, the others on one; every rank must see
/// rank 0's `false` in the second round.
#[test]
fn world_handles_of_one_rank_share_agreement_rounds() {
    let report = Universe::new(cluster(3)).run(|p| {
        let (first, second) = (p.world(), p.world());
        let a = first.agree(true).unwrap();
        let b = match p.world_rank() {
            0 => second.agree(false),
            _ => first.agree(true),
        }
        .unwrap();
        (a.flag, b.flag)
    });
    assert_eq!(report.results, vec![(true, false); 3]);
}

/// Every `world()` handle of a rank shares the world's constructor
/// ordinal: the `n`-th `dup` on any of them is the rank's `n`-th. Rank 0
/// dups on two handles, the others on one; messages on the second dups
/// must still match.
#[test]
fn world_handles_of_one_rank_share_constructor_ordinals() {
    let report = Universe::new(cluster(3)).run(|p| {
        let (first, second) = (p.world(), p.world());
        let a = first.dup();
        let b = match p.world_rank() {
            0 => second.dup(),
            _ => first.dup(),
        };
        if p.world_rank() == 0 {
            for dst in [1, 2] {
                a.send(&[1i64], dst, 0).unwrap();
                b.send(&[2i64], dst, 0).unwrap();
            }
            (0, 0)
        } else {
            let got = |c: &mpisim::Comm| c.recv::<i64>(0, 0).unwrap().0[0];
            (got(&b), got(&a))
        }
    });
    assert_eq!(report.results, vec![(0, 0), (2, 1), (2, 1)]);
}

/// `dup` and `create` agree through the run's context registry: a run that
/// only constructs communicators sends nothing.
#[test]
fn dup_and_create_send_nothing() {
    let u = Universe::with_config(cluster(4), UniverseConfig::new().tracing(true));
    let report = u.run(|p| {
        let dup = p.world().dup();
        let again = dup.dup();
        let group = Group::from_world_ranks(vec![0, 2]).unwrap();
        let sub = again.create(&group).unwrap();
        sub.map(|c| (c.rank(), c.size()))
    });
    assert_eq!(report.results, vec![Some((0, 2)), None, Some((1, 2)), None]);
    let events = report.trace.expect("tracing was enabled").events;
    assert!(events.iter().all(|e| e.kind != TraceKind::Send));
}

/// Every `world()` handle of a rank arbitrates against the rank's one
/// contention frontier: under `SerializedNic`, rank 0's two sends queue on
/// its NIC whether they leave on one handle or on two.
#[test]
fn world_handles_of_one_rank_share_the_contention_frontier() {
    let cluster = Arc::new(
        TopologyBuilder::new()
            .node("h0", 100.0)
            .node("h1", 100.0)
            .node("h2", 100.0)
            .intra_switch(Link::new(1e-4, 1e6, Protocol::Tcp))
            .contention(hetsim::ContentionModel::SerializedNic)
            .build()
            .into_parts()
            .0,
    );
    let clocks = |two_handles: bool| {
        let report = Universe::new(cluster.clone()).run(|p| {
            let (first, second) = (p.world(), p.world());
            let again = if two_handles { &second } else { &first };
            let data = vec![1.5f64; 4096];
            match p.world_rank() {
                0 => {
                    first.send(&data, 1, 0).unwrap();
                    again.send(&data, 2, 0).unwrap();
                }
                r => {
                    first.recv::<f64>(0, 0).unwrap();
                    assert_eq!(first.clock().now(), p.clock().now(), "rank {r}");
                }
            }
        });
        report.rank_times
    };
    let one = clocks(false);
    assert!(one[2] > one[1], "the second send must queue: {one:?}");
    assert_eq!(clocks(true), one);
}
