//! End-to-end tests of the full paper pipeline across every crate:
//! model source → compiled model → HMPI runtime → message-passing execution
//! on the simulated heterogeneous LAN.

use hetsim::{Cluster, ClusterBuilder, Link, Protocol};
use hmpi::{HmpiRuntime, RuntimeConfig};
use hmpi_apps::em3d::{self, Em3dConfig, Em3dSystem};
use hmpi_apps::matmul::{self, GeneralizedBlockDist};
use perfmodel::CompiledModel;
use std::sync::Arc;

#[test]
fn figure4_text_drives_group_create_end_to_end() {
    // Compile the *paper's* model text, instantiate it from a generated
    // system, and create a group with it on the paper LAN.
    let cluster = Arc::new(Cluster::paper_lan_em3d());
    let cfg = Em3dConfig::ramp(9, 80, 2.0, 99);
    let runtime = HmpiRuntime::new(cluster);
    let report = runtime.run(|h| {
        let system = Em3dSystem::generate(&cfg);
        let compiled = CompiledModel::compile(em3d::EM3D_MODEL_SOURCE).unwrap();
        let model = compiled
            .instantiate(&em3d::em3d_params(&system, 10))
            .unwrap();
        let group = h.group_create(&model).unwrap();
        let members = group.members().to_vec();
        if group.is_member() {
            h.group_free(group).unwrap();
        }
        members
    });
    let members = &report.results[0];
    assert_eq!(members.len(), 9);
    for r in &report.results {
        assert_eq!(r, members, "all ranks agree on the selection");
    }
}

#[test]
fn figure7_text_predicts_block_size_tradeoff() {
    // The Figure 8 sweep over the paper's Figure 7 text: predicted time
    // must vary with l and be minimal somewhere inside the range.
    let speeds = [46.0, 46.0, 46.0, 46.0, 46.0, 46.0, 176.0, 106.0, 9.0];
    let cluster = Arc::new(Cluster::paper_lan_matmul());
    let runtime = HmpiRuntime::new(cluster);
    let report = runtime.run(|h| {
        if !h.is_host() {
            return None;
        }
        let n = 18;
        let mut grid_speeds = vec![speeds[0]];
        let mut rest: Vec<f64> = speeds[1..].to_vec();
        rest.sort_by(|a, b| b.total_cmp(a));
        grid_speeds.extend(rest);
        let mut series = Vec::new();
        for l in 3..=n {
            let dist = GeneralizedBlockDist::heterogeneous(3, l, &grid_speeds);
            let model = matmul::matmul_model(&dist, 8, n).unwrap();
            series.push((l, h.timeof(&model).unwrap()));
        }
        Some(series)
    });
    let series = report.results[0].as_ref().unwrap();
    let best = series
        .iter()
        .min_by(|a, b| a.1.total_cmp(&b.1))
        .unwrap();
    let worst = series
        .iter()
        .max_by(|a, b| a.1.total_cmp(&b.1))
        .unwrap();
    assert!(
        worst.1 > best.1 * 1.2,
        "block size must matter: best {best:?} worst {worst:?}"
    );
    assert!(best.0 > 3, "the fully cyclic l=3 must not be optimal");
}

#[test]
fn virtual_times_are_deterministic_across_runs() {
    let cfg = Em3dConfig::ramp(6, 50, 2.0, 5);
    let cluster = Arc::new(Cluster::paper_lan_em3d());
    let a = em3d::run_mpi(cluster.clone(), &cfg, 3);
    let b = em3d::run_mpi(cluster, &cfg, 3);
    assert_eq!(a.time, b.time, "ParallelLinks timing is fully deterministic");
    let c = em3d::run_hmpi(Arc::new(Cluster::paper_lan_em3d()), &cfg, 3, 10);
    let d = em3d::run_hmpi(Arc::new(Cluster::paper_lan_em3d()), &cfg, 3, 10);
    assert_eq!(c.time, d.time);
    assert_eq!(c.members, d.members);
}

#[test]
fn hmpi_never_loses_to_rank_order_mpi() {
    // Across several seeds and decomposition shapes, the HMPI group must be
    // at least as fast as the rank-order MPI group (the paper's claim:
    // "the running time of the HMPI program will always be less than the
    // running time of the corresponding MPI program" — equality happens
    // when rank order is accidentally optimal).
    for seed in [1u64, 2, 3] {
        for spread in [1.0, 2.0, 4.0] {
            let cfg = Em3dConfig::ramp(9, 40, spread, seed);
            let mpi = em3d::run_mpi(Arc::new(Cluster::paper_lan_em3d()), &cfg, 2);
            let hmpi = em3d::run_hmpi(Arc::new(Cluster::paper_lan_em3d()), &cfg, 2, 10);
            assert!(
                hmpi.time <= mpi.time * 1.02,
                "seed {seed} spread {spread}: HMPI {} vs MPI {}",
                hmpi.time,
                mpi.time
            );
        }
    }
}

#[test]
fn smaller_models_leave_processes_free_for_second_group() {
    // Two disjoint 4-processor groups coexist on the 9-machine LAN and both
    // run a real collective.
    let cluster = Arc::new(Cluster::paper_lan_em3d());
    let runtime = HmpiRuntime::new(cluster);
    let report = runtime.run(|h| {
        let model = perfmodel::CompiledModel::compile(
            "algorithm Four() { coord I=4; node {I>=0: bench*(10);}; parent[0]; }",
        )
        .unwrap()
        .instantiate(&[])
        .unwrap();
        let g1 = h.group_create(&model).unwrap();
        let mut sums = Vec::new();
        if let Some(comm) = g1.comm() {
            sums.push(comm.allreduce_eq_i64(&[1], mpisim::ReduceOp::Sum).unwrap()[0]);
        }
        // Second group from the remaining free processes (plus host).
        if h.is_host() || h.is_free() {
            let g2 = h.group_create(&model).unwrap();
            if let Some(comm) = g2.comm() {
                sums.push(comm.allreduce_eq_i64(&[10], mpisim::ReduceOp::Sum).unwrap()[0]);
            }
            if g2.is_member() {
                h.group_free(g2).unwrap();
            }
        }
        if g1.is_member() {
            h.group_free(g1).unwrap();
        }
        sums
    });
    // Group collectives completed: members of g1 saw 4, members of g2 saw 40.
    let mut seen4 = 0;
    let mut seen40 = 0;
    for sums in &report.results {
        for s in sums {
            match s {
                4 => seen4 += 1,
                40 => seen40 += 1,
                other => panic!("unexpected sum {other}"),
            }
        }
    }
    assert_eq!(seen4, 4);
    assert_eq!(seen40, 4);
}

#[test]
fn multi_protocol_links_shift_the_selection() {
    // Two equally fast far nodes; one pair is connected by a fast custom
    // interconnect. A communication-heavy 2-processor model must pick the
    // well-connected pair.
    let fast_link = Link::new(2e-6, 1e9, Protocol::Custom("myrinet".into()));
    let cluster = Arc::new(
        ClusterBuilder::new()
            .node("host", 50.0)
            .node("a", 50.0)
            .node("b", 50.0)
            .all_to_all(Link::new(10e-3, 1e6, Protocol::Tcp))
            .link_between(0, 2, fast_link)
            .build(),
    );
    let runtime = HmpiRuntime::with_config(
        cluster,
        RuntimeConfig::new().mapping_algorithm(hmpi::MappingAlgorithm::Exhaustive),
    );
    let report = runtime.run(|h| {
        let model = perfmodel::CompiledModel::compile(
            "algorithm Chatty() { coord I=2; node {I>=0: bench*(1);};
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
    assert_eq!(
        report.results[0],
        vec![0, 2],
        "the myrinet-connected pair must win"
    );
}
