//! `Hmpi::timeof_sweep` — runtime algorithm selection via `HMPI_Timeof`.

use hetsim::{ClusterBuilder, Link, Protocol};
use hmpi::HmpiRuntime;
use perfmodel::{CompiledModel, ModelInstance, ParamValue, PerformanceModel};
use std::sync::Arc;

fn cluster(speeds: &[f64], latency: f64, bandwidth: f64) -> Arc<hetsim::Cluster> {
    let mut b = ClusterBuilder::new();
    for (i, &s) in speeds.iter().enumerate() {
        b = b.node(format!("h{i}"), s);
    }
    Arc::new(
        b.all_to_all(Link::new(latency, bandwidth, Protocol::Tcp))
            .build(),
    )
}

/// Two formulations of the same job: fully parallel with heavy
/// communication, or sequential on one machine with none. On a fast
/// network the parallel variant wins; on a slow network the sequential one
/// does — the sweep must flip with the network.
const VARIANTS: &str = r"
    algorithm Parallel(int p, int work, int bytes) {
        coord I=p;
        node {I>=0: bench*(work/p);};
        link (L=p) {I!=L: length*(bytes) [I]->[L];};
        parent[0];
    }
    algorithm Sequential(int work) { coord I=1; node {I>=0: bench*(work);}; parent[0]; }
    algorithm Uniform(int p) { coord I=p; node {I>=0: bench*(1);}; parent[0]; }
";

fn variant(name: &str, params: &[i64]) -> ModelInstance {
    let params: Vec<ParamValue> = params.iter().map(|&v| ParamValue::Int(v)).collect();
    CompiledModel::compile_named(VARIANTS, Some(name))
        .unwrap()
        .instantiate(&params)
        .unwrap()
}

fn variants(total_work: i64, comm_bytes: i64, p: i64) -> Vec<ModelInstance> {
    vec![
        variant("Parallel", &[p, total_work, comm_bytes]),
        variant("Sequential", &[total_work]),
    ]
}

#[test]
fn fast_network_prefers_the_parallel_variant() {
    let rt = HmpiRuntime::new(cluster(&[100.0; 4], 1e-6, 1e9));
    let report = rt.run(|h| {
        let vs = variants(4000, 1_000_000, 4);
        let refs: Vec<&dyn PerformanceModel> =
            vs.iter().map(|m| m as &dyn PerformanceModel).collect();
        h.timeof_sweep(refs).unwrap()
    });
    let (idx, t) = report.results[0].unwrap();
    assert_eq!(idx, 0, "parallel wins on a fast network");
    assert!(t < 40.0 * 1.5);
}

#[test]
fn slow_network_prefers_the_sequential_variant() {
    // 1 MB per pair over a 10 kB/s link dwarfs the compute saving.
    let rt = HmpiRuntime::new(cluster(&[100.0; 4], 0.5, 1e4));
    let report = rt.run(|h| {
        let vs = variants(4000, 1_000_000, 4);
        let refs: Vec<&dyn PerformanceModel> =
            vs.iter().map(|m| m as &dyn PerformanceModel).collect();
        h.timeof_sweep(refs).unwrap()
    });
    let (idx, _) = report.results[0].unwrap();
    assert_eq!(idx, 1, "sequential wins when the network is terrible");
}

#[test]
fn infeasible_variants_are_skipped() {
    // The 8-processor variant cannot run on 3 machines; the sweep must
    // fall through to the feasible one.
    let rt = HmpiRuntime::new(cluster(&[100.0; 3], 1e-4, 1e7));
    let report = rt.run(|h| {
        let big = variant("Uniform", &[8]);
        let ok = variant("Uniform", &[2]);
        let vs: Vec<&dyn PerformanceModel> = vec![&big, &ok];
        h.timeof_sweep(vs).unwrap()
    });
    let (idx, _) = report.results[0].unwrap();
    assert_eq!(idx, 1);
}

#[test]
fn empty_iterator_yields_none() {
    let rt = HmpiRuntime::new(cluster(&[100.0; 2], 1e-4, 1e7));
    let report = rt.run(|h| h.timeof_sweep(Vec::<&dyn PerformanceModel>::new()).unwrap());
    assert!(report.results[0].is_none());
}
