//! End-to-end HMPI runtime behaviour across real rank threads.

use hetsim::{Cluster, Link, LoadModel, Processor, Protocol, SimTime, TopologyBuilder};
use hmpi::{GroupSpec, HmpiError, HmpiRuntime, MappingAlgorithm, Recon, RuntimeConfig};
use mpisim::{CollectiveAlgo, CollectiveKind, MpiError};
use perfmodel::{CompiledModel, ModelInstance, ParamValue};
use std::sync::Arc;

fn paper_lan() -> Arc<Cluster> {
    Arc::new(Cluster::paper_lan_em3d())
}

fn small_cluster() -> Arc<Cluster> {
    Arc::new(
        TopologyBuilder::new()
            .node("host", 46.0)
            .node("fast", 176.0)
            .node("mid", 106.0)
            .node("slow", 9.0)
            .intra_switch(Link::new(150e-6, 11e6, Protocol::Tcp))
            .build()
            .into_parts()
            .0,
    )
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
fn roles_at_startup() {
    let rt = HmpiRuntime::new(small_cluster());
    let report = rt.run(|h| (h.is_host(), h.is_free()));
    assert_eq!(report.results[0], (true, false));
    for r in &report.results[1..] {
        assert_eq!(*r, (false, true));
    }
}

#[test]
fn group_create_selects_fast_nodes_and_excludes_slow() {
    let rt = HmpiRuntime::new(small_cluster());
    // 3 equal-volume processors on a 4-node cluster with speeds
    // 46/176/106/9: the selection must use nodes 0 (pinned parent), 1, 2 and
    // leave the speed-9 node out.
    let report = rt.run(|h| {
        let model = tasks(&[100, 100, 100]);
        let group = h.group_create(&model).unwrap();
        let picked = group.members().to_vec();
        let member = group.is_member();
        if member {
            h.group_free(group).unwrap();
        }
        (picked, member)
    });
    let (picked, _) = &report.results[0];
    let mut sorted = picked.clone();
    sorted.sort_unstable();
    assert_eq!(sorted, vec![0, 1, 2], "slow node 3 must be excluded");
    assert_eq!(picked[0], 0, "parent pinned to host");
    // Every rank observed the same member list.
    for (p, _) in &report.results {
        assert_eq!(p, picked);
    }
    // Members: ranks 0,1,2; rank 3 not a member.
    assert!(report.results[0].1);
    assert!(!report.results[3].1);
}

#[test]
fn group_members_communicate_over_group_comm() {
    let rt = HmpiRuntime::new(small_cluster());
    let report = rt.run(|h| {
        let model = tasks(&[50, 100]);
        let group = h.group_create(&model).unwrap();
        let out = if let Some(comm) = group.comm() {
            let sum = comm
                .allreduce_eq_i64(&[h.rank() as i64], mpisim::ReduceOp::Sum)
                .unwrap()[0];
            Some((comm.rank(), comm.size(), sum))
        } else {
            None
        };
        if group.is_member() {
            h.group_free(group).unwrap();
        }
        out
    });
    // Expected selection: parent host (rank 0, speed 46) runs the
    // 50-volume processor, rank 1 (speed 176) the 100-volume one.
    assert_eq!(report.results[0], Some((0, 2, 1)));
    assert_eq!(report.results[1], Some((1, 2, 1)));
    assert_eq!(report.results[2], None);
    assert_eq!(report.results[3], None);
}

#[test]
fn freed_processes_can_join_subsequent_groups() {
    let rt = HmpiRuntime::new(small_cluster());
    let report = rt.run(|h| {
        let model = tasks(&[10, 10, 10, 10]);
        let g1 = h.group_create(&model).unwrap();
        let first = g1.id();
        if g1.is_member() {
            h.group_free(g1).unwrap();
        }
        let g2 = h.group_create(&model).unwrap();
        let second = g2.id();
        let member2 = g2.is_member();
        if g2.is_member() {
            h.group_free(g2).unwrap();
        }
        (first, second, member2)
    });
    for (first, second, member2) in report.results {
        assert_ne!(first, second);
        assert!(member2, "all four processes fit a 4-processor model");
    }
}

#[test]
fn busy_processes_are_not_selected() {
    // Create a 2-processor group; while it lives, create another
    // 2-processor group from the remaining processes.
    let rt = HmpiRuntime::new(small_cluster());
    let report = rt.run(|h| {
        let m2 = tasks(&[10, 1000]);
        let g1 = h.group_create(&m2).unwrap();
        let g1_members = g1.members().to_vec();
        let in_g1 = g1.is_member();

        // Second group: only host + still-free processes call.
        let mut g2_members = None;
        if h.is_host() || h.is_free() {
            let g2 = h.group_create(&m2).unwrap();
            g2_members = Some(g2.members().to_vec());
            if g2.is_member() {
                h.group_free(g2).unwrap();
            }
        }
        if in_g1 {
            h.group_free(g1).unwrap();
        }
        (g1_members, g2_members)
    });
    let (g1m, g2m) = &report.results[0];
    let g2m = g2m.as_ref().unwrap();
    // g1 pairs the big volume with the fastest free node (1, speed 176).
    assert_eq!(g1m, &vec![0, 1]);
    // g2 must avoid the busy rank 1; next fastest is rank 2 (106).
    assert_eq!(g2m, &vec![0, 2]);
}

#[test]
fn group_create_from_busy_rank_is_rejected() {
    let rt = HmpiRuntime::new(small_cluster());
    rt.run(|h| {
        let model = tasks(&[1; 4]);
        let g = h.group_create(&model).unwrap();
        // Everyone is now busy (members of g). A second create must fail for
        // non-host members.
        if !h.is_host() {
            let err = h.group_create(&model).unwrap_err();
            assert_eq!(err, HmpiError::NotEligible);
        }
        if g.is_member() {
            h.group_free(g).unwrap();
        }
    });
}

#[test]
fn recon_tracks_dynamic_load() {
    // Node 1 loses half its speed from t=10 on; recon before and after.
    let cluster = Arc::new(
        TopologyBuilder::new()
            .node("host", 100.0)
            .processor(Processor::new("busy", 100.0).with_load(LoadModel::Step {
                start: SimTime::from_secs(10.0),
                end: SimTime::from_secs(1e9),
                fraction: 0.5,
            }))
            .intra_switch(Link::new(1e-4, 1e7, Protocol::Tcp))
            .build()
            .into_parts()
            .0,
    );
    let rt = HmpiRuntime::new(cluster);
    let estimates = rt.estimates().clone();
    rt.run(|h| {
        h.recon(10.0).unwrap();
        let before = h.estimates().snapshot();
        assert!((before[0] - 100.0).abs() < 1e-9);
        assert!((before[1] - 100.0).abs() < 1e-9);

        // Advance past the load onset and re-measure.
        h.compute(2000.0); // 20 s on the host; >= 20 s on the loaded node
        h.recon(10.0).unwrap();
        let after = h.estimates().snapshot();
        assert!((after[0] - 100.0).abs() < 1e-9);
        assert!((after[1] - 50.0).abs() < 1e-9, "loaded node re-measured at 50");
    });
    assert_eq!(estimates.generation(), 2);
}

#[test]
fn recon_with_custom_benchmark_body() {
    let rt = HmpiRuntime::new(small_cluster());
    rt.run(|h| {
        // The benchmark body performs 3 compute calls totalling 30 units.
        h.recon_opts(Recon::new(30.0).bench(|hh: &hmpi::Hmpi| {
            hh.compute(10.0);
            hh.compute(10.0);
            hh.compute(10.0);
        }))
        .unwrap();
        let snap = h.estimates().snapshot();
        for (got, want) in snap.iter().zip([46.0, 176.0, 106.0, 9.0]) {
            assert!((got - want).abs() < 1e-6, "{got} vs {want}");
        }
    });
}

#[test]
fn timeof_predicts_group_create_quality() {
    let rt = HmpiRuntime::new(paper_lan());
    let report = rt.run(|h| {
        let model = tasks(&[100, 100, 100]);
        let predicted = h.timeof(&model).unwrap();
        let group = h.group_create(&model).unwrap();
        let from_group = group.predicted_time();
        if group.is_member() {
            h.group_free(group).unwrap();
        }
        (predicted, from_group)
    });
    let (t, tg) = report.results[0];
    assert!((t - tg).abs() < 1e-12, "timeof and group_create agree");
    // Best 3 of the paper LAN for equal volumes: parent ws00 (46) plus the
    // 176 and 106 machines -> bottleneck 100/46.
    assert!((t - 100.0 / 46.0).abs() < 1e-9);
}

#[test]
fn timeof_is_usable_for_parameter_sweeps() {
    // The Figure 8 pattern: pick the parameter value minimising timeof.
    let rt = HmpiRuntime::new(paper_lan());
    rt.run(|h| {
        if !h.is_host() {
            return;
        }
        let mut best = (usize::MAX, f64::INFINITY);
        for p in 1..=9 {
            let model = CompiledModel::compile(
                "algorithm Sweep(int p) { coord I=p; node {I>=0: bench*(900/p);}; parent[0]; }",
            )
            .unwrap()
            .instantiate(&[ParamValue::Int(p as i64)])
            .unwrap();
            let t = h.timeof(&model).unwrap();
            if t < best.1 {
                best = (p, t);
            }
        }
        // With zero communication, more processes always help until the
        // slowest added node dominates; optimum excludes the speed-9 node.
        assert!(best.0 >= 3, "at least the three fast nodes get used");
        assert!(best.1 <= 900.0 / (46.0 * 6.0 + 176.0 + 106.0) * 3.0);
    });
}

#[test]
fn selection_respects_recon_updates() {
    // Before recon the runtime believes base speeds; a load change flips the
    // best node, and group_create follows only after recon.
    let cluster = Arc::new(
        TopologyBuilder::new()
            .node("host", 50.0)
            .node("a", 100.0)
            .processor(Processor::new("b", 200.0).with_load(LoadModel::Constant {
                fraction: 0.9, // truly delivers 20
            }))
            .intra_switch(Link::new(1e-4, 1e7, Protocol::Tcp))
            .build()
            .into_parts()
            .0,
    );
    let rt = HmpiRuntime::new(cluster);
    let report = rt.run(|h| {
        let model = tasks(&[1, 1000]);
        // Stale estimates (base speeds): node 2 looks fastest (200).
        let g1 = h.group_create(&model).unwrap();
        let stale_pick = g1.members()[1];
        if g1.is_member() {
            h.group_free(g1).unwrap();
        }
        // After recon, node 2 is measured at 20; node 1 (100) wins.
        h.recon(10.0).unwrap();
        let g2 = h.group_create(&model).unwrap();
        let fresh_pick = g2.members()[1];
        if g2.is_member() {
            h.group_free(g2).unwrap();
        }
        (stale_pick, fresh_pick)
    });
    assert_eq!(report.results[0], (2, 1));
}

#[test]
fn exhaustive_and_refined_agree_on_paper_lan() {
    let rt_e = HmpiRuntime::with_config(
        paper_lan(),
        RuntimeConfig::new().mapping_algorithm(MappingAlgorithm::Exhaustive),
    );
    let rt_r = HmpiRuntime::new(paper_lan());
    let m = tasks(&[300, 100, 50]);
    let re = rt_e.run(|h| h.timeof(&m).unwrap());
    let rr = rt_r.run(|h| h.timeof(&m).unwrap());
    let te = re.results[0];
    let tr = rr.results[0];
    assert!(te <= tr + 1e-12);
    assert!((te - tr).abs() < 0.05 * te, "refined search is near-optimal here");
}

#[test]
fn finalize_synchronises() {
    let rt = HmpiRuntime::new(small_cluster());
    let report = rt.run(|h| {
        if h.rank() == 3 {
            h.compute(90.0); // slow node: 10 s
        }
        h.finalize().unwrap();
        h.now().as_secs()
    });
    for t in report.results {
        assert!(t >= 10.0, "finalize waits for the slowest rank");
    }
}

#[test]
fn smp_nodes_host_multiple_ranks() {
    // Two ranks share one SMP node; recon must give both the same speed and
    // the selection must be able to use both slots (loopback link between
    // them is free).
    let topology = TopologyBuilder::new()
        .node("smp", 120.0)
        .ranks(2)
        .node("ws", 40.0)
        .intra_switch(Link::new(150e-6, 11e6, Protocol::Tcp))
        .build();
    let rt = HmpiRuntime::from_topology(
        topology,
        RuntimeConfig::new().mapping_algorithm(MappingAlgorithm::Exhaustive),
    );
    let report = rt.run(|h| {
        h.recon(12.0).unwrap();
        let snap = h.estimates().snapshot();
        assert!((snap[0] - 120.0).abs() < 1e-6);
        assert!((snap[1] - 40.0).abs() < 1e-6);

        // A chatty 2-processor model: the free intra-node link should make
        // the two SMP ranks the best pair.
        let model = CompiledModel::compile(
            "algorithm Chatty() { coord I=2; node {I>=0: bench*(10);};
               link (L=2) {I!=L: length*(50000000) [I]->[L];}; parent[0]; }",
        )
        .unwrap()
        .instantiate(&[])
        .unwrap();
        let g = h.group_create(&model).unwrap();
        let members = g.members().to_vec();
        if g.is_member() {
            h.group_free(g).unwrap();
        }
        members
    });
    assert_eq!(report.results[0], vec![0, 1], "both SMP slots win");
}

#[test]
fn timeof_prices_colocated_ranks_over_the_memory_bus() {
    // Two ranks on one node with a 1 ms, 1 MB/s memory bus: a 1 MB transfer
    // between them rides the bus, and `timeof` must charge what the
    // transport does (it used to price a same-node pair as free loopback).
    let bus = Link::new(1e-3, 1e6, Protocol::SharedMemory);
    let topology = TopologyBuilder::new()
        .node("smp", 100.0)
        .ranks(2)
        .mem_bus(bus)
        .build();
    let rt = HmpiRuntime::from_topology(topology, RuntimeConfig::new());
    let report = rt.run(|h| {
        let model = CompiledModel::compile(
            "algorithm Pair() { coord I=2; node {I>=0: bench*(0);};
               link {I==0: length*(1000000) [0]->[1];}; parent[0]; }",
        )
        .unwrap()
        .instantiate(&[])
        .unwrap();
        let predicted = h.timeof(&model).unwrap();
        let start = h.now();
        if h.rank() == 0 {
            h.world().send(&vec![0u8; 1_000_000], 1, 0).unwrap();
        } else {
            h.world().recv::<u8>(0, 0).unwrap();
        }
        (predicted, (h.now() - start).as_secs())
    });
    let (predicted, _) = report.results[0];
    let (_, measured) = report.results[1];
    assert!((measured - 1.001).abs() < 1e-9, "measured {measured}");
    assert!(
        (predicted - measured).abs() < 1e-9,
        "{predicted} vs {measured}"
    );
}

#[test]
fn recon_rejects_invalid_benchmark_volumes() {
    let rt = HmpiRuntime::new(small_cluster());
    let report = rt.run(|h| {
        // Validation happens before any computation or communication, so
        // every rank fails consistently and no rank blocks on a peer.
        let errs = [
            h.recon(-1.0).unwrap_err(),
            h.recon(f64::NAN).unwrap_err(),
            h.recon_opts(Recon::new(0.0).bench(|_: &hmpi::Hmpi| {}))
                .unwrap_err(),
            h.recon_opts(Recon::new(0.0).work_units(10.0).fault_tolerant(true))
                .unwrap_err(),
            h.recon_opts(
                Recon::new(10.0)
                    .work_units(f64::INFINITY)
                    .fault_tolerant(true),
            )
            .unwrap_err(),
        ];
        errs.iter()
            .all(|e| matches!(e, HmpiError::InvalidArgument(_)))
    });
    assert!(report.results.iter().all(|&ok| ok));
}

#[test]
fn zero_elapsed_recon_keeps_previous_estimates() {
    // A no-op benchmark body measures nothing (elapsed == 0); the naive
    // `units / elapsed` would be `+inf`. The estimates must keep their
    // previous (base-speed) values instead of being poisoned.
    let rt = HmpiRuntime::new(small_cluster());
    let base = rt.estimates().snapshot();
    let report = rt.run(|h| {
        h.recon_opts(Recon::new(10.0).bench(|_: &hmpi::Hmpi| {})).unwrap();
    });
    assert_eq!(report.results.len(), 4);
    let snap = rt.estimates().snapshot();
    assert_eq!(snap, base, "a zero-elapsed recon must not change estimates");
    assert!(snap.iter().all(|s| s.is_finite() && *s > 0.0));
}

#[test]
fn overflowing_speed_cannot_poison_estimates() {
    // Regression for the speed-estimate poisoning bug: a huge nominal
    // volume over a tiny measured elapsed overflows `nominal / elapsed` to
    // `+inf`. Pre-fix, that value sailed through the bare `s > 0.0` check
    // into the shared estimates and every subsequent selection planned
    // with an infinitely fast node. Now the rank falls back to its
    // previous estimate and the host additionally validates each report.
    let rt = HmpiRuntime::new(small_cluster());
    let base = rt.estimates().snapshot();
    let report = rt.run(|h| {
        h.recon_opts(
            Recon::new(1e300)
                .work_units(1e-300)
                .fault_tolerant(true),
        )
        .unwrap();
    });
    assert_eq!(report.results.len(), 4);
    let snap = rt.estimates().snapshot();
    assert!(
        snap.iter().all(|s| s.is_finite() && *s > 0.0),
        "estimates poisoned: {snap:?}"
    );
    assert_eq!(snap, base, "unusable measurements keep the old estimates");
    // The recon still completed a full generation (it refreshed, with
    // fallback values, rather than aborting).
    assert_eq!(rt.estimates().generation(), 1);
}

/// The recon protocol follows the fault plan: a cluster without one takes
/// the collective path, a cluster with one — even a plan that changes no
/// speed — the fault-tolerant point-to-point path, and both measure the
/// same speeds.
#[test]
fn recon_protocol_follows_the_fault_plan() {
    use hetsim::{FaultEvent, FaultPlan, NodeId, TraceKind, PAPER_EM3D_SPEEDS};
    use std::collections::BTreeSet;

    let recon = |cluster: Cluster| {
        let rt = HmpiRuntime::with_config(Arc::new(cluster), RuntimeConfig::new().tracing(true));
        let report = rt.run(|h| h.recon(10.0).unwrap());
        let trace = report.trace.expect("tracing was enabled");
        let spans: BTreeSet<&str> = trace
            .events
            .iter()
            .filter(|e| e.kind == TraceKind::Recon)
            .map(|e| e.name)
            .collect();
        let bits: Vec<u64> = rt.estimates().snapshot().iter().map(|s| s.to_bits()).collect();
        (spans, bits)
    };
    let plan = FaultPlan::new(vec![FaultEvent::NodeSlowdown {
        node: NodeId(8),
        from: SimTime::ZERO,
        until: SimTime::from_secs(1.0),
        factor: 1.0,
    }]);
    let (plain, plain_bits) = recon(Cluster::paper_lan_em3d());
    let (ft, ft_bits) = recon(Cluster::paper_lan_with_faults(&PAPER_EM3D_SPEEDS, plan));
    assert_eq!(plain, BTreeSet::from(["recon"]));
    assert_eq!(ft, BTreeSet::from(["recon_ft"]));
    assert_eq!(plain_bits, ft_bits, "both protocols measure the same speeds");
}

#[test]
fn traced_run_records_recon_and_selection_events() {
    use hetsim::TraceKind;

    let rt = HmpiRuntime::with_config(small_cluster(), RuntimeConfig::new().tracing(true));
    let report = rt.run(|h| {
        h.recon(10.0).unwrap();
        let model = tasks(&[50, 100]);
        let group = h.group_create(&model).unwrap();
        if group.is_member() {
            h.group_free(group).unwrap();
        }
        h.finalize().unwrap();
    });
    let trace = report.trace.as_ref().expect("tracing was enabled");
    let count = |k: TraceKind| trace.events.iter().filter(|e| e.kind == k).count();
    // recon() is collective: one Recon span per rank.
    assert_eq!(count(TraceKind::Recon), 4);
    // The selection search runs on the host only.
    assert_eq!(count(TraceKind::Selection), 1);
    let sel = trace
        .events
        .iter()
        .find(|e| e.kind == TraceKind::Selection)
        .unwrap();
    assert_eq!(sel.rank, 0);
    let info = sel.info.as_deref().unwrap();
    assert!(info.contains("evals="), "selection info: {info}");
    // The recon benchmark computed on every rank.
    assert!(count(TraceKind::Compute) >= 4);
    // Group-creation payloads flowed over the control communicator.
    assert!(count(TraceKind::Send) > 0);
    assert!(count(TraceKind::Recv) > 0);
}

#[test]
fn one_runtime_config_sets_algorithm_policy_and_tracing() {
    let rt = HmpiRuntime::with_config(
        small_cluster(),
        RuntimeConfig::new()
            .mapping_algorithm(MappingAlgorithm::Exhaustive)
            .collective_policy(hmpi::CollectivePolicy::Auto)
            .tracing(true),
    );
    let report = rt.run(|h| {
        h.recon_opts(hmpi::Recon::new(10.0).fault_tolerant(true))
            .unwrap();
        let model = tasks(&[10, 400]);
        let g = h
            .group_create(hmpi::GroupSpec::new(&model).placement(0))
            .unwrap();
        let members = g.members().to_vec();
        if g.is_member() {
            h.group_free(g).unwrap();
        }
        members
    });
    assert!(report.trace.is_some(), "tracing(true) records a trace");
    let members = &report.results[0];
    assert_eq!(members[0], 0, "parent stays pinned to the host");
    let snap = rt.estimates().snapshot();
    assert!(snap.iter().all(|s| s.is_finite() && *s > 0.0));
}

#[test]
fn timeof_collective_selects_and_prices() {
    let rt = HmpiRuntime::new(small_cluster());
    let report = rt.run(|h| {
        // Small payload: latency-dominated, a tree beats the linear star.
        let (small_algo, small_t) = h
            .world()
            .predict_collective(CollectiveKind::Bcast, 0, 1, 8)
            .unwrap();
        // Large payload on four ranks.
        let (large_algo, large_t) = h
            .world()
            .predict_collective(CollectiveKind::Allreduce, 0, 1 << 16, 8)
            .unwrap();
        (small_algo, small_t, large_algo, large_t)
    });
    let (small_algo, small_t, large_algo, large_t) = report.results[0];
    assert!(small_t > 0.0 && large_t > 0.0);
    // Predictions are pure functions of globally identical inputs: every
    // rank must agree with rank 0.
    for r in &report.results {
        assert_eq!(r, &report.results[0]);
    }
    // The selector returns eligible algorithms for a 4-rank world.
    assert!(CollectiveAlgo::ALL.contains(&small_algo));
    assert!(CollectiveAlgo::ALL.contains(&large_algo));
}

/// An out-of-range root in `predict_collective` is a typed error (it used to
/// reach the selector's schedule generator and panic).
#[test]
fn timeof_collective_bad_root_is_typed_error() {
    let rt = HmpiRuntime::new(small_cluster());
    let report = rt.run(|h| {
        let err = h
            .world()
            .predict_collective(CollectiveKind::Bcast, h.world().size(), 1, 8)
            .unwrap_err();
        matches!(err, MpiError::InvalidRank { .. })
    });
    assert!(report.results.iter().all(|ok| *ok));
}

/// An out-of-range `GroupSpec::placement` rank is rejected up front as
/// `InvalidArgument` on every rank (it used to index the placement table
/// out of bounds and panic inside the parent's selection context).
#[test]
fn group_create_bad_placement_is_typed_error() {
    let rt = HmpiRuntime::new(small_cluster());
    let report = rt.run(|h| {
        let model = tasks(&[1, 1]);
        let err = h
            .group_create(GroupSpec::new(&model).placement(h.world().size()))
            .unwrap_err();
        matches!(err, HmpiError::InvalidArgument(_))
    });
    assert!(report.results.iter().all(|ok| *ok));
}
