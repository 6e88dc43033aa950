//! Span-instrumented copies of the EM3D and MM HMPI drivers.
//!
//! `hmpi_apps::{em3d, matmul}::run_hmpi` are single calls, so the harness
//! cannot see recon, model construction, selection and the kernel apart
//! from outside. These copies are the same programs written against the
//! public API — `HmpiRuntime::with_config` → `recon_opts` → model build →
//! `timeof_sweep` / `group_create` → kernel — with a span per stage on the
//! host rank. The traced `paper_pipeline` runs them; the untraced run calls
//! `run_hmpi` itself, and `tests/equivalence.rs` pins that both return
//! bit-identical `time`, `members` and `predicted`.

use crate::span::{SpanId, Spans};
use hetsim::{Cluster, Trace};
use hmpi::{HmpiRuntime, Recon, RuntimeConfig};
use hmpi_apps::em3d::{
    em3d_params, Em3dConfig, Em3dRun, Em3dSystem, ParallelBody, EM3D_MODEL_SOURCE,
};
use hmpi_apps::matmul::driver::{SEED_A, SEED_B};
use hmpi_apps::matmul::{
    matmul_params, BlockMatrix, DistributedMatmul, GeneralizedBlockDist, MatmulRun,
    MATMUL_MODEL_SOURCE,
};
use perfmodel::{CompiledModel, ModelInstance, PerformanceModel};
use std::sync::Arc;

/// `matmul_model` / `em3d_model` with the compile and the instantiation
/// under their own spans (both helpers are exactly compile + instantiate).
fn build_model(
    spans: &Spans,
    parent: SpanId,
    source: &str,
    params: &[perfmodel::ParamValue],
) -> ModelInstance {
    let compiled = spans.scope("perfmodel.compile", parent, |_| {
        CompiledModel::compile(source).expect("shipped model source is valid")
    });
    spans.scope("perfmodel.instantiate", parent, |_| {
        compiled
            .instantiate(params)
            .expect("parameters match the model")
    })
}

/// The Figure 5 program (`hmpi_apps::em3d::run_hmpi`) with a span per
/// stage under `op`, tracing the virtual timeline when spans are on.
///
/// # Panics
/// Panics if the cluster hosts fewer processes than sub-bodies.
pub fn em3d_hmpi(
    cluster: Arc<Cluster>,
    cfg: &Em3dConfig,
    niter: usize,
    k: usize,
    spans: &Spans,
    op: SpanId,
) -> (Em3dRun, Option<Trace>) {
    type RankOutcome = Option<(f64, Vec<f64>, Vec<f64>)>;
    let p = cfg.nodes_per_body.len();
    let runtime = spans.scope("hmpi.runtime_new", op, |_| {
        HmpiRuntime::with_config(cluster, RuntimeConfig::new().tracing(spans.enabled()))
    });
    assert!(p <= runtime.universe().size(), "EM3D needs {p} processes");
    let run_span = spans.begin("mpisim.universe_run", op);
    let report = runtime.run(|h| -> (RankOutcome, Option<(Vec<usize>, f64)>) {
        // Only the host rank records: one thread, one timeline.
        let at = if h.is_host() { run_span } else { SpanId::OFF };
        spans.scope("hmpi.recon", at, |_| {
            h.recon_opts(Recon::new(1.0).work_units(k as f64))
                .expect("recon")
        });
        let system = spans.scope("apps.generate", at, |_| Em3dSystem::generate(cfg));
        let model = build_model(spans, at, EM3D_MODEL_SOURCE, &em3d_params(&system, k));
        let group = spans.scope("hmpi.group_create", at, |_| {
            h.group_create(&model).expect("group_create")
        });
        let meta = h
            .is_host()
            .then(|| (group.members().to_vec(), group.predicted_time()));
        let outcome = spans.scope("apps.kernel", at, |_| {
            group.comm().map(|comm| {
                let mut pb = ParallelBody::new(&system, comm.rank());
                let t0 = comm.clock().now();
                pb.run(comm, niter).expect("EM3D kernel");
                comm.barrier().expect("closing barrier");
                let dur = (comm.clock().now() - t0).as_secs();
                (dur, pb.body.e_values, pb.body.h_values)
            })
        });
        spans.scope("hmpi.finalize", at, |_| {
            if group.is_member() {
                h.group_free(group).expect("group_free");
            }
            h.finalize().expect("finalize");
        });
        (outcome, meta)
    });
    spans.end(run_span);

    spans.scope("apps.assemble", op, |_| {
        let mut outcomes = Vec::with_capacity(report.results.len());
        let mut meta = None;
        for (o, m) in report.results {
            outcomes.push(o);
            meta = meta.or(m);
        }
        let (members, predicted) = meta.expect("host reported the selection");
        let mut time = 0.0f64;
        let mut fields = vec![(Vec::new(), Vec::new()); members.len()];
        for (body, &world) in members.iter().enumerate() {
            let (dur, e, h) = outcomes[world]
                .take()
                .expect("every member produced an outcome");
            time = time.max(dur);
            fields[body] = (e, h);
        }
        let run = Em3dRun {
            time,
            members,
            fields,
            predicted: Some(predicted),
        };
        (run, report.trace)
    })
}

/// The Figure 8 program (`hmpi_apps::matmul::run_hmpi`) with a span per
/// stage under `op`; `l = None` runs the `HMPI_Timeof` block-size sweep.
///
/// # Panics
/// Panics if the cluster hosts fewer than `m²` processes.
pub fn matmul_hmpi(
    cluster: Arc<Cluster>,
    m: usize,
    n: usize,
    r: usize,
    l: Option<usize>,
    spans: &Spans,
    op: SpanId,
) -> (MatmulRun, Option<Trace>) {
    type Out = (
        Option<(f64, Option<BlockMatrix>)>,
        Option<(Vec<usize>, f64, usize)>,
    );
    let runtime = spans.scope("hmpi.runtime_new", op, |_| {
        HmpiRuntime::with_config(cluster, RuntimeConfig::new().tracing(spans.enabled()))
    });
    assert!(
        m * m <= runtime.universe().size(),
        "MM needs {} processes",
        m * m
    );
    let run_span = spans.begin("mpisim.universe_run", op);
    let report = runtime.run(|h| -> Out {
        let at = if h.is_host() { run_span } else { SpanId::OFF };
        spans.scope("hmpi.recon", at, |_| {
            h.recon_opts(Recon::new(1.0).bench(|hh: &hmpi::Hmpi| hh.compute(1.0)))
                .expect("recon")
        });

        let mut msg = vec![0.0f64; 1 + m * m];
        if h.is_host() {
            let placement = h.process().placement();
            let est = h.estimates();
            let mut others: Vec<f64> = (1..h.size())
                .map(|rank| est.speed(placement[rank]))
                .collect();
            others.sort_by(|a, b| b.total_cmp(a));
            let mut grid_speeds = Vec::with_capacity(m * m);
            grid_speeds.push(est.speed(placement[0]));
            grid_speeds.extend(others.into_iter().take(m * m - 1));

            let l = match l {
                Some(l) => l,
                None => {
                    let models: Vec<ModelInstance> = (m..=n)
                        .map(|cand| {
                            let dist = GeneralizedBlockDist::heterogeneous(m, cand, &grid_speeds);
                            build_model(spans, at, MATMUL_MODEL_SOURCE, &matmul_params(&dist, r, n))
                        })
                        .collect();
                    let (idx, _) = spans
                        .scope("hmpi.timeof_sweep", at, |_| {
                            h.timeof_sweep(models.iter().map(|mo| mo as &dyn PerformanceModel))
                        })
                        .expect("timeof sweep")
                        .expect("bsize sweep is non-empty");
                    m + idx
                }
            };
            msg[0] = l as f64;
            msg[1..].copy_from_slice(&grid_speeds);
        }
        spans.scope("mpisim.bcast", at, |_| {
            h.world().bcast_into(&mut msg, 0).expect("bcast l + speeds")
        });
        let l = msg[0] as usize;
        let grid_speeds = msg[1..].to_vec();

        let dist = GeneralizedBlockDist::heterogeneous(m, l, &grid_speeds);
        let model = build_model(spans, at, MATMUL_MODEL_SOURCE, &matmul_params(&dist, r, n));
        let group = spans.scope("hmpi.group_create", at, |_| {
            h.group_create(&model).expect("group_create")
        });
        let meta = h
            .is_host()
            .then(|| (group.members().to_vec(), group.predicted_time(), l));

        let outcome = spans.scope("apps.kernel", at, |_| {
            group.comm().map(|comm| {
                let mut mm = DistributedMatmul::new(dist, n, r, comm.rank(), SEED_A, SEED_B);
                let t0 = comm.clock().now();
                mm.run(comm).expect("MM kernel");
                comm.barrier().expect("closing barrier");
                let dur = (comm.clock().now() - t0).as_secs();
                let c = mm.gather_c(comm).expect("gather C");
                (dur, c)
            })
        });
        spans.scope("hmpi.finalize", at, |_| {
            if group.is_member() {
                h.group_free(group).expect("group_free");
            }
            h.finalize().expect("finalize");
        });
        (outcome, meta)
    });
    spans.end(run_span);

    spans.scope("apps.assemble", op, |_| {
        let mut time = 0.0f64;
        let mut c = None;
        let mut meta = None;
        for (outcome, m_) in report.results {
            if let Some((dur, cm)) = outcome {
                time = time.max(dur);
                c = cm.or(c);
            }
            meta = m_.or(meta);
        }
        let (members, predicted, l) = meta.expect("host reported the selection");
        let run = MatmulRun {
            time,
            members,
            c,
            predicted: Some(predicted),
            l,
        };
        (run, report.trace)
    })
}
