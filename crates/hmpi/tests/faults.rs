//! Fault tolerance at the HMPI layer: `HMPI_Recon` as a failure detector,
//! selection that routes around dead nodes, and `rebuild_group` shrink
//! recovery.

use hetsim::{FaultEvent, FaultPlan, Link, NodeId, Protocol, SimTime, TopologyBuilder};
use hmpi::{HmpiError, HmpiRuntime, SelectError};
use mpisim::ReduceOp;
use perfmodel::{CompiledModel, ModelInstance, ParamValue};
use proptest::prelude::*;
use std::sync::Arc;

fn t(s: f64) -> SimTime {
    SimTime::from_secs(s)
}

fn cluster(speeds: &[f64], faults: FaultPlan) -> Arc<hetsim::Cluster> {
    let mut b = TopologyBuilder::new();
    for (i, &s) in speeds.iter().enumerate() {
        b = b.node(format!("h{i}"), s);
    }
    Arc::new(
        b.intra_switch(Link::new(1e-3, 1e6, Protocol::Tcp))
            .faults(faults)
            .build()
            .into_parts()
            .0,
    )
}

fn uniform_model(p: usize) -> ModelInstance {
    CompiledModel::compile(
        "algorithm Uniform(int p) { coord I=p; node {I>=0: bench*(100);}; parent[0]; }",
    )
    .unwrap()
    .instantiate(&[ParamValue::Int(p as i64)])
    .unwrap()
}

#[test]
fn recon_detects_a_crash_and_marks_the_node_unavailable() {
    // Node 2 is the fastest machine but dies almost immediately: its rank
    // never finishes the recon benchmark, the host declares it dead, and
    // the estimates exclude it while refreshing everyone else.
    let plan = FaultPlan::none().with(FaultEvent::NodeCrash {
        node: NodeId(2),
        at: t(0.05),
    });
    let rt = HmpiRuntime::new(cluster(&[50.0, 100.0, 1000.0, 80.0], plan));
    let report = rt.run(|h| {
        let res = h.recon(100.0);
        if h.rank() == 2 {
            return (res.is_err(), Vec::new());
        }
        assert!(res.is_ok(), "survivor recon failed: {res:?}");
        let avail: Vec<bool> = (0..4)
            .map(|n| h.estimates().is_available(NodeId(n)))
            .collect();
        (false, avail)
    });
    assert!(report.results[2].0, "the dead rank must see its own failure");
    for r in [0, 1, 3] {
        assert_eq!(report.results[r].1, vec![true, true, false, true]);
    }
}

#[test]
fn recon_tolerates_a_transient_slowdown() {
    // Node 1 runs at 10% speed during the benchmark window. The host's
    // collection deadline is sized from the *delivered* speed, so the slow
    // report still arrives: the node stays available with an honest (low)
    // estimate instead of being declared dead.
    let plan = FaultPlan::none().with(FaultEvent::NodeSlowdown {
        node: NodeId(1),
        from: t(0.0),
        until: t(50.0),
        factor: 0.1,
    });
    let rt = HmpiRuntime::new(cluster(&[100.0, 100.0], plan));
    let report = rt.run(|h| {
        h.recon(100.0).unwrap();
        (
            h.estimates().is_available(NodeId(1)),
            h.estimates().speed(NodeId(1)),
        )
    });
    let (available, speed) = report.results[0];
    assert!(available, "a slow node is not a dead node");
    assert!((speed - 10.0).abs() < 1e-6, "estimate reflects the slowdown");
}

#[test]
fn group_create_routes_around_the_dead_node() {
    // Same layout as the crash test: node 2 (speed 1000) would dominate any
    // selection, but after the detecting recon the new group avoids it.
    let plan = FaultPlan::none().with(FaultEvent::NodeCrash {
        node: NodeId(2),
        at: t(0.05),
    });
    let rt = HmpiRuntime::new(cluster(&[50.0, 100.0, 1000.0, 80.0], plan));
    let report = rt.run(|h| {
        if h.recon(100.0).is_err() {
            return None; // the dead rank exits
        }
        let model = uniform_model(2);
        let group = h.group_create(&model).unwrap();
        let members = group.members().to_vec();
        if group.is_member() {
            h.group_free(group).unwrap();
        }
        Some(members)
    });
    let members = report.results[0].clone().unwrap();
    assert!(
        !members.contains(&2),
        "selection must exclude the dead node, got {members:?}"
    );
    // The host (parent) plus the fastest survivor.
    assert_eq!(members, vec![0, 1]);
}

#[test]
fn rebuild_group_shrinks_to_the_survivors() {
    // A 4-member group loses node 3 at t=2.5 (during round 2 of
    // compute+barrier). Survivors unwind, rebuild on the remaining three,
    // and the shrunk group is immediately usable.
    let plan = FaultPlan::none().with(FaultEvent::NodeCrash {
        node: NodeId(3),
        at: t(2.5),
    });
    let rt = HmpiRuntime::new(cluster(&[100.0; 4], plan));
    let report = rt.run(|h| {
        let group = h.group_create(&uniform_model(4)).unwrap();
        assert!(group.is_member(), "the 4-model selects everyone");
        let comm = group.comm().unwrap().clone();
        let mut failed_round = None;
        for round in 0..4 {
            if h.try_compute(100.0).is_err() {
                return Err(round); // this rank's node crashed
            }
            if comm.barrier().is_err() {
                failed_round = Some(round);
                break;
            }
        }
        let round = failed_round.expect("the crash must surface in a barrier");
        // Survivors collectively shrink the group.
        let rebuilt = h
            .rebuild_group(group, |survivors| Ok(uniform_model(survivors.len())))
            .unwrap();
        assert_eq!(rebuilt.members(), &[0, 1, 2]);
        assert!(rebuilt.is_member());
        assert!(rebuilt.predicted_time() > 0.0);
        let comm = rebuilt.comm().unwrap().clone();
        let survivors = comm.allreduce_eq_i64(&[1], ReduceOp::Sum).unwrap()[0];
        assert!(!h.estimates().is_available(NodeId(3)));
        h.group_free(rebuilt).unwrap();
        Ok((round, survivors))
    });
    // Rank 3 crashes in round 2's compute (t crosses 2.5 between 2 and 3).
    // Survivors abort a barrier no later than that round — the collective
    // plane aborts as soon as the failure is *observed*, which can be
    // earlier in wall-clock terms — and count 3 heads after the rebuild.
    assert_eq!(report.results[3], Err(2));
    for r in 0..3 {
        let (round, heads) = report.results[r].expect("survivors recover");
        assert!(round <= 2, "rank {r} aborted after the crash round: {round}");
        assert_eq!(heads, 3, "rank {r}");
    }
}

#[test]
fn rebuild_group_reports_an_infeasible_shrink_on_every_survivor() {
    // Nodes 2 and 3 die; the factory insists on a 3-processor model that
    // cannot fit on the two survivors. Both survivors — the host that ran
    // the selection and the rank that only saw the sentinel — get the same
    // typed error instead of hanging.
    let plan = FaultPlan::none()
        .with(FaultEvent::NodeCrash {
            node: NodeId(2),
            at: t(2.5),
        })
        .with(FaultEvent::NodeCrash {
            node: NodeId(3),
            at: t(2.5),
        });
    let rt = HmpiRuntime::new(cluster(&[100.0; 4], plan));
    let report = rt.run(|h| {
        let group = h.group_create(&uniform_model(4)).unwrap();
        let comm = group.comm().unwrap().clone();
        for _ in 0..4 {
            if h.try_compute(100.0).is_err() {
                return None;
            }
            if comm.barrier().is_err() {
                break;
            }
        }
        let err = h
            .rebuild_group(group, |survivors| {
                assert_eq!(survivors, [0, 1], "roll call finds the survivors");
                Ok(uniform_model(3))
            })
            .unwrap_err();
        Some(err)
    });
    for r in 0..2 {
        assert_eq!(
            report.results[r],
            Some(HmpiError::Select(SelectError::NotEnoughProcesses {
                required: 3,
                available: 2,
            })),
            "rank {r}"
        );
    }
    assert_eq!(report.results[2], None);
    assert_eq!(report.results[3], None);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Replaying a seeded fault plan through a full recon + group_create
    /// cycle is deterministic: same seed, same survivors, same selection.
    #[test]
    fn seeded_fault_plans_replay_deterministically(seed in 0u64..1000) {
        let run = || {
            let plan = FaultPlan::random_crashes(seed, (1..5).map(NodeId), 0.5, t(1.5));
            let rt = HmpiRuntime::new(cluster(&[50.0, 100.0, 150.0, 200.0, 250.0], plan));
            let report = rt.run(|h| {
                if h.recon(100.0).is_err() {
                    return None;
                }
                let model = uniform_model(2);
                // With enough crashes the selection is infeasible; the typed
                // error is part of the replayed outcome.
                let members = match h.group_create(&model) {
                    Ok(group) => {
                        let m = group.members().to_vec();
                        if group.is_member() {
                            h.group_free(group).unwrap();
                        }
                        m
                    }
                    Err(_) => vec![usize::MAX],
                };
                Some(members)
            });
            (report.results, report.makespan)
        };
        let (a, span_a) = run();
        let (b, span_b) = run();
        prop_assert_eq!(a, b);
        prop_assert_eq!(span_a, span_b);
    }
}
