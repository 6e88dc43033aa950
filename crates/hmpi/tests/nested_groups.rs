//! `GroupSpec::placement`: groups whose parent is not the host — the
//! paper's general rule that "every newly created group has exactly one
//! process shared with already existing groups".

use hetsim::{ClusterBuilder, Link, Protocol};
use hmpi::{GroupSpec, HmpiError, HmpiRuntime};
use perfmodel::{CompiledModel, ModelInstance, ParamValue};
use std::sync::Arc;

fn cluster(n: usize) -> Arc<hetsim::Cluster> {
    let mut b = ClusterBuilder::new();
    let speeds = [50.0, 100.0, 80.0, 60.0, 40.0, 20.0];
    for i in 0..n {
        b = b.node(format!("h{i}"), speeds[i % speeds.len()]);
    }
    Arc::new(b.all_to_all(Link::new(1e-4, 1e7, Protocol::Tcp)).build())
}

/// `volumes.len()` tasks of the given volumes, no communication.
fn tasks(volumes: &[i64]) -> ModelInstance {
    CompiledModel::compile(
        "algorithm Tasks(int p, int v[p]) { coord I=p; node {I>=0: bench*(v[I]);}; parent[0]; }",
    )
    .unwrap()
    .instantiate(&[
        ParamValue::Int(volumes.len() as i64),
        ParamValue::Array(volumes.to_vec()),
    ])
    .unwrap()
}

#[test]
fn non_host_parent_creates_a_subgroup() {
    let rt = HmpiRuntime::new(cluster(6));
    let report = rt.run(|h| {
        // Phase 1: the host creates a 2-member group {host, fastest}.
        let top = tasks(&[10, 10]);
        let g1 = h.group_create(&top).unwrap();
        let g1_members = g1.members().to_vec();
        let sub_parent = g1_members[1]; // the non-host member of g1

        // Phase 2: that member becomes the parent of a sub-group drawn from
        // the remaining free processes. Participants: the parent (busy in
        // g1) plus every free process.
        let mut sub_members = None;
        if h.rank() == sub_parent || h.is_free() {
            let sub = tasks(&[5, 50, 20]);
            let g2 = h
                .group_create(GroupSpec::new(&sub).placement(sub_parent))
                .unwrap();
            sub_members = Some(g2.members().to_vec());
            if let Some(comm) = g2.comm() {
                // The subgroup is a live communicator.
                let s = comm.allreduce_eq_i64(&[1], mpisim::ReduceOp::Sum).unwrap()[0];
                assert_eq!(s, 3);
            }
            if g2.is_member() {
                h.group_free(g2).unwrap();
            }
        }
        if g1.is_member() {
            h.group_free(g1).unwrap();
        }
        (g1_members, sub_members)
    });

    let (g1_members, _) = &report.results[0];
    assert_eq!(g1_members[0], 0, "host is g1's parent");
    let sub_parent = g1_members[1];
    let sub = report.results[sub_parent].1.as_ref().unwrap();
    assert_eq!(sub.len(), 3);
    // The sub-parent is pinned to the sub-group's parent slot (abstract 0).
    assert_eq!(sub[0], sub_parent);
    // The sub-group must not contain the host (busy in g1).
    assert!(!sub.contains(&0), "host is busy in g1: {sub:?}");
    // All ranks that saw the subgroup agree on it.
    for (_, s) in report.results.iter() {
        if let Some(s) = s {
            assert_eq!(s, sub);
        }
    }
}

#[test]
fn busy_non_parent_caller_is_rejected() {
    let rt = HmpiRuntime::new(cluster(4));
    rt.run(|h| {
        let all = tasks(&[1; 4]);
        let g = h.group_create(&all).unwrap();
        // Everyone is busy now; a busy rank that is not the named parent
        // cannot join a creation.
        if h.rank() == 2 {
            let m = tasks(&[1]);
            let err = h
                .group_create(GroupSpec::new(&m).placement(3))
                .unwrap_err();
            assert_eq!(err, HmpiError::NotEligible);
        }
        if g.is_member() {
            h.group_free(g).unwrap();
        }
    });
}

#[test]
fn parent_pinning_overrides_speed_ordering() {
    // The sub-parent is the slowest machine; it still must hold abstract
    // processor 0 of its group.
    let rt = HmpiRuntime::new(cluster(6));
    let report = rt.run(|h| {
        let slow_parent = 5; // speed 20
        if h.rank() == slow_parent || h.is_free() || h.is_host() {
            // Host is free-by-flag at start; it is a candidate too.
            let model = tasks(&[1, 1000]);
            let g = h
                .group_create(GroupSpec::new(&model).placement(slow_parent))
                .unwrap();
            let members = g.members().to_vec();
            if g.is_member() {
                h.group_free(g).unwrap();
            }
            Some(members)
        } else {
            None
        }
    });
    let members = report.results[5].as_ref().unwrap();
    assert_eq!(members[0], 5, "slow parent still holds the parent slot");
    assert_eq!(members[1], 1, "heavy work goes to the fastest machine");
}
