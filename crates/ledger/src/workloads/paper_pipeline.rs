//! `paper_pipeline`: what the paper's user does — whole application runs
//! on the 9-node LAN. One op is one run; a cycle is EM3D under HMPI, EM3D
//! under plain MPI, MM with the Figure-10 `HMPI_Timeof` block-size sweep,
//! MM at a fixed block size, and n-body under HMPI.
//!
//! `hmpi` (recon, mapping search, sweep) and `perfmodel` (compile,
//! evaluate) do most of the work; `mpisim` carries a few hundred messages
//! per run and collective planning does almost nothing. The plain-MPI and
//! fixed-`l` ops are the in-workload bypass for selection work.

use super::{
    max_abs_diff, ms_since, per_call_us, scaled, spawn_join_ms, Outcome, Side, SplitMix64, Workload,
};
use crate::drivers;
use crate::span::Spans;
use crate::stats::median;
use hetsim::{Cluster, Trace};
use hmpi_apps::em3d::{self, Em3dConfig, Em3dSystem};
use hmpi_apps::matmul::{self, BlockMatrix};
use hmpi_apps::nbody::{self, Bodies, NbodyConfig};
use std::sync::Arc;
use std::time::Instant;

/// Cycles at the calibrated run length (five ops each).
pub const CYCLES: usize = 250;
/// EM3D: sub-bodies, smallest body, size ramp, iterations, recon size.
pub const EM3D: (usize, usize, f64, usize, usize) = (9, 200, 1.6, 5, 10);
/// n-body: groups, smallest group, size ramp, iterations, recon size.
pub const NBODY: (usize, usize, f64, usize, usize) = (9, 30, 3.0, 5, 10);
/// MM: grid side `m`, matrix side in blocks `n`, block side `r`, and the
/// fixed generalised block size of the non-sweeping op.
pub const MM: (usize, usize, usize, usize) = (3, 18, 8, 9);
/// How far `HMPI_Group_create`'s prediction may sit from the measured
/// kernel time, as a ratio, before the op counts as failed. The Figure 4
/// and Figure 7 models are the paper's (they leave out the closing barrier
/// and per-message software overhead), so the band is the one the apps'
/// own tests hold them to; the bit-exact `timeof` parity lives in
/// `coll_plan`.
pub const PREDICTION_BAND: (f64, f64) = (0.3, 3.0);
/// Tolerance of the numeric results against the serial references.
pub const RESULT_TOL: f64 = 1e-9;

/// The five ops of a cycle, in issue order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// EM3D, `run_hmpi`.
    Em3dHmpi,
    /// EM3D, `run_mpi` (no recon, no selection).
    Em3dMpi,
    /// MM, `run_hmpi(.., None)`: the `timeof_sweep` over block sizes.
    MmSweep,
    /// MM, `run_hmpi(.., Some(l))`.
    MmFixed,
    /// n-body, `run_hmpi`.
    NbodyHmpi,
}

impl Kind {
    /// Every kind, in cycle order.
    pub const ALL: [Kind; 5] = [
        Kind::Em3dHmpi,
        Kind::Em3dMpi,
        Kind::MmSweep,
        Kind::MmFixed,
        Kind::NbodyHmpi,
    ];

    /// The per-layer metric carrying this kind's median op latency.
    pub fn metric(self) -> &'static str {
        match self {
            Kind::Em3dHmpi => "apps.em3d_hmpi_ms",
            Kind::Em3dMpi => "apps.em3d_mpi_ms",
            Kind::MmSweep => "apps.mm_sweep_ms",
            Kind::MmFixed => "apps.mm_fixed_ms",
            Kind::NbodyHmpi => "apps.nbody_hmpi_ms",
        }
    }

    fn span(self) -> &'static str {
        match self {
            Kind::Em3dHmpi => "apps.em3d_hmpi",
            Kind::Em3dMpi => "apps.em3d_mpi",
            Kind::MmSweep => "apps.mm_sweep",
            Kind::MmFixed => "apps.mm_fixed",
            Kind::NbodyHmpi => "apps.nbody_hmpi",
        }
    }
}

/// The workload's inputs, references and clusters.
pub struct PaperPipeline {
    cycles: usize,
    /// EM3D configuration (graph seed from `--seed`).
    pub em3d_cfg: Em3dConfig,
    em3d_ref: Vec<(Vec<f64>, Vec<f64>)>,
    /// n-body configuration (body seed from `--seed`).
    pub nbody_cfg: NbodyConfig,
    nbody_ref: Bodies,
    mm_ref: BlockMatrix,
    /// The paper's LAN with the EM3D speed vector.
    pub lan_em3d: Arc<Cluster>,
    /// The paper's LAN with the MM speed vector.
    pub lan_mm: Arc<Cluster>,
}

fn predicted_in_band(predicted: Option<f64>, scale: f64, time: f64) -> Result<(), String> {
    let predicted = predicted.ok_or("HMPI run carries no prediction")? * scale;
    let ratio = predicted / time;
    if ratio >= PREDICTION_BAND.0 && ratio <= PREDICTION_BAND.1 {
        Ok(())
    } else {
        Err(format!(
            "predicted {predicted:.6e}s vs measured {time:.6e}s (ratio {ratio:.3})"
        ))
    }
}

impl PaperPipeline {
    fn check_em3d(&self, run: &em3d::Em3dRun, hmpi: bool) -> Result<(), String> {
        if run.fields.len() != self.em3d_ref.len() {
            return Err("EM3D: wrong number of sub-bodies".into());
        }
        for (body, ((e, h), (se, sh))) in run.fields.iter().zip(&self.em3d_ref).enumerate() {
            let err = max_abs_diff(e, se).max(max_abs_diff(h, sh));
            if err.is_nan() || err > RESULT_TOL {
                return Err(format!(
                    "EM3D body {body} off the serial reference by {err:.3e}"
                ));
            }
        }
        if hmpi {
            // The Figure 4 model describes one iteration.
            predicted_in_band(run.predicted, EM3D.3 as f64, run.time)?;
        }
        Ok(())
    }

    fn check_mm(&self, run: &matmul::MatmulRun) -> Result<(), String> {
        let c = run.c.as_ref().ok_or("MM: grid root returned no C")?;
        let err = max_abs_diff(c.data(), self.mm_ref.data());
        if err.is_nan() || err > RESULT_TOL {
            return Err(format!("MM product off the serial reference by {err:.3e}"));
        }
        predicted_in_band(run.predicted, 1.0, run.time)
    }

    fn check_nbody(&self, run: &nbody::NbodyRun) -> Result<(), String> {
        let got = Bodies::concat(&run.groups);
        let err = max_abs_diff(&got.pos, &self.nbody_ref.pos);
        if err.is_nan() || err > RESULT_TOL {
            return Err(format!(
                "n-body positions off the serial reference by {err:.3e}"
            ));
        }
        predicted_in_band(run.predicted, NBODY.3 as f64, run.time)
    }

    /// Runs one op of `kind` as op number `op_id` and records it in `out`;
    /// returns the op's virtual-time trace when it was traced.
    fn one(&self, kind: Kind, op_id: u64, spans: &Spans, out: &mut Outcome) -> Option<Trace> {
        let (m, n, r, l_fixed) = MM;
        let op = spans.begin_op(op_id);
        let mut traced = None;
        let t0 = Instant::now();
        let (virtual_s, verdict) = spans.scope(kind.span(), op, |at| match kind {
            Kind::Em3dHmpi => {
                let run = if spans.enabled() {
                    let (run, trace) = drivers::em3d_hmpi(
                        self.lan_em3d.clone(),
                        &self.em3d_cfg,
                        EM3D.3,
                        EM3D.4,
                        spans,
                        at,
                    );
                    traced = trace;
                    run
                } else {
                    em3d::run_hmpi(self.lan_em3d.clone(), &self.em3d_cfg, EM3D.3, EM3D.4)
                };
                (run.time, self.check_em3d(&run, true))
            }
            Kind::Em3dMpi => {
                let run = em3d::run_mpi(self.lan_em3d.clone(), &self.em3d_cfg, EM3D.3);
                (run.time, self.check_em3d(&run, false))
            }
            Kind::MmSweep | Kind::MmFixed => {
                let l = (kind == Kind::MmFixed).then_some(l_fixed);
                let run = if spans.enabled() {
                    let (run, trace) =
                        drivers::matmul_hmpi(self.lan_mm.clone(), m, n, r, l, spans, at);
                    traced = trace;
                    run
                } else {
                    matmul::run_hmpi(self.lan_mm.clone(), m, n, r, l)
                };
                (run.time, self.check_mm(&run))
            }
            Kind::NbodyHmpi => {
                let run = nbody::run_hmpi(self.lan_em3d.clone(), &self.nbody_cfg, NBODY.3, NBODY.4);
                (run.time, self.check_nbody(&run))
            }
        });
        let host_ms = ms_since(t0);
        spans.end(op);
        out.op(host_ms, virtual_s, verdict);
        if let Some(t) = &traced {
            out.count_trace(t, self.lan_em3d.len());
        }
        traced
    }
}

impl Workload for PaperPipeline {
    const NAME: &'static str = "paper_pipeline";
    const RANKS: usize = 9;
    const WHY: &'static str = "whole EM3D / MM / n-body runs on the paper's LAN: recon, mapping \
        search, timeof sweep and model compile dominate; run_mpi and fixed-l ops bypass selection";

    fn setup(seed: u64, scale: f64) -> Self {
        let mut rng = SplitMix64(seed ^ 0x9A9E_2003);
        let em3d_cfg = Em3dConfig::ramp(EM3D.0, EM3D.1, EM3D.2, rng.next_u64());
        let nbody_cfg = NbodyConfig::ramp(NBODY.0, NBODY.1, NBODY.2, rng.next_u64());
        let (_, n, r, _) = MM;
        let w = PaperPipeline {
            cycles: scaled(CYCLES, scale),
            em3d_ref: em3d::serial_run(Em3dSystem::generate(&em3d_cfg), EM3D.3),
            nbody_ref: nbody::serial_run(&nbody_cfg, NBODY.3),
            mm_ref: matmul::block::serial_matmul(
                &BlockMatrix::deterministic(n, r, matmul::driver::SEED_A),
                &BlockMatrix::deterministic(n, r, matmul::driver::SEED_B),
            ),
            em3d_cfg,
            nbody_cfg,
            lan_em3d: Arc::new(Cluster::paper_lan_em3d()),
            lan_mm: Arc::new(Cluster::paper_lan_matmul()),
        };
        // Warm-up: one whole cycle.
        let mut sink = Outcome::default();
        let off = Spans::new(false);
        for (i, kind) in Kind::ALL.into_iter().enumerate() {
            w.one(kind, i as u64, &off, &mut sink);
        }
        assert!(
            sink.failed == 0,
            "paper_pipeline warm-up failed: {:?}",
            sink.first_failure
        );
        w
    }

    fn run(&self, rounds: usize, spans: &Spans) -> Outcome {
        let mut out = Outcome::default();
        let mut last_trace = None;
        for _ in 0..rounds {
            out.round(|out| {
                for _ in 0..self.cycles {
                    for kind in Kind::ALL {
                        let id = out.op_ms.len() as u64;
                        last_trace = self.one(kind, id, spans, out).or(last_trace.take());
                    }
                }
            });
        }
        let cycles = (self.cycles * rounds) as f64;
        for (i, kind) in Kind::ALL.into_iter().enumerate() {
            let of_kind: Vec<f64> = out
                .op_ms
                .iter()
                .skip(i)
                .step_by(Kind::ALL.len())
                .copied()
                .collect();
            out.side.insert(kind.metric(), median(&of_kind));
        }
        if spans.enabled() {
            // Stage costs on the host rank, from the instrumented drivers.
            out.side
                .insert("hmpi.recon_ms", median(&spans.durations_ms("hmpi.recon")));
            out.side.insert(
                "hmpi.group_create_ms",
                median(&spans.durations_ms("hmpi.group_create")),
            );
            let sweep = median(&spans.durations_ms("hmpi.timeof_sweep"));
            out.side.insert("hmpi.timeof_sweep_ms", sweep);
            let candidates = (MM.1 - MM.0 + 1) as f64;
            out.side.insert("hmpi.timeof_us", sweep * 1e3 / candidates);
            // Exact message counts of the traced kinds, per cycle.
            out.side
                .insert("apps.msgs_per_run", out.msgs as f64 / cycles);
            out.side
                .insert("apps.bytes_per_run", out.bytes as f64 / cycles);
            if let Some(trace) = last_trace {
                let t0 = Instant::now();
                std::hint::black_box(trace.to_chrome_json());
                out.side.insert("hetsim.chrome_export_ms", ms_since(t0));
            }
        }
        out
    }

    fn probes(&self, side: &mut Side) {
        use hetsim::{NodeId, SimTime, SpeedEstimates};
        use hmpi::{select_mapping, Evaluator, MappingAlgorithm, SelectionCtx};
        use hmpi_apps::em3d::{em3d_params, EM3D_MODEL_SOURCE};
        use hmpi_apps::matmul::{matmul_params, GeneralizedBlockDist, MATMUL_MODEL_SOURCE};
        use hmpi_apps::nbody::{nbody_params, NBODY_MODEL_SOURCE};
        use perfmodel::{CollectiveKind, CompiledModel, LinkSharing};
        use std::hint::black_box;

        // perfmodel: parse + compile, then instantiate, of the three
        // shipped models on this workload's parameters.
        let (m, n, r, l) = MM;
        let speeds: Vec<f64> = self.lan_mm.nodes().iter().map(|p| p.base_speed).collect();
        let dist = GeneralizedBlockDist::heterogeneous(m, l, &speeds);
        let system = Em3dSystem::generate(&self.em3d_cfg);
        let models = [
            (EM3D_MODEL_SOURCE, em3d_params(&system, EM3D.4)),
            (MATMUL_MODEL_SOURCE, matmul_params(&dist, r, n)),
            (NBODY_MODEL_SOURCE, nbody_params(&self.nbody_cfg, NBODY.4)),
        ];
        let (mut compile_us, mut instantiate_us) = (0.0, 0.0);
        for (source, params) in &models {
            compile_us += per_call_us(10, || {
                black_box(CompiledModel::compile(source).expect("shipped source"));
            });
            let compiled = CompiledModel::compile(source).expect("shipped source");
            instantiate_us += per_call_us(10, || {
                black_box(compiled.instantiate(params).expect("matching parameters"));
            });
        }
        side.insert("perfmodel.compile_us", compile_us / models.len() as f64);
        side.insert(
            "perfmodel.instantiate_us",
            instantiate_us / models.len() as f64,
        );

        // hmpi: the selection engine on the MM model, one rank per node.
        let mm_model = CompiledModel::compile(MATMUL_MODEL_SOURCE)
            .expect("shipped source")
            .instantiate(&matmul_params(&dist, r, n))
            .expect("matching parameters");
        let placement: Vec<NodeId> = self.lan_mm.node_ids().collect();
        let estimates = SpeedEstimates::from_base_speeds(&self.lan_mm);
        let ctx = SelectionCtx {
            cluster: &self.lan_mm,
            placement: &placement,
            estimates: &estimates,
            candidates: (0..placement.len()).collect(),
            pinned_parent: Some(0),
        };
        side.insert(
            "hmpi.evaluator_build_us",
            per_call_us(20, || {
                black_box(Evaluator::new(&mm_model, &ctx));
            }),
        );
        let mut ev = Evaluator::new(&mm_model, &ctx);
        let mut assignment: Vec<usize> = (0..m * m).collect();
        let mut rng = SplitMix64(7);
        let evals = 1000;
        let eval_us = per_call_us(evals, || {
            let (i, j) = (1 + rng.below(m * m - 1), 1 + rng.below(m * m - 1));
            assignment.swap(i, j);
            black_box(ev.eval(&assignment));
        });
        side.insert("hmpi.evals_per_s", 1e6 / eval_us);
        ev.rebase(&assignment);
        let probe_us = per_call_us(evals, || {
            let i = 1 + rng.below(m * m - 1);
            let j = 1 + (i + rng.below(m * m - 2)) % (m * m - 1);
            assignment.swap(i, j);
            black_box(ev.probe(&assignment, &[i, j]));
            assignment.swap(i, j);
        });
        side.insert("hmpi.probes_per_s", 1e6 / probe_us);
        for (time, evals, algo, calls) in [
            (
                "hmpi.select_mapping_ms.greedy_refined",
                "hmpi.select_evals.greedy_refined",
                MappingAlgorithm::GreedyRefined { max_rounds: 64 },
                10,
            ),
            (
                "hmpi.select_mapping_ms.annealing",
                "hmpi.select_evals.annealing",
                MappingAlgorithm::Annealing {
                    seed: 1,
                    iters: 500,
                },
                3,
            ),
            (
                "hmpi.select_mapping_ms.exhaustive",
                "hmpi.select_evals.exhaustive",
                MappingAlgorithm::Exhaustive,
                1,
            ),
        ] {
            let mut stats = hmpi::SearchStats::default();
            let us = per_call_us(calls, || {
                stats = select_mapping(algo, &mm_model, &ctx)
                    .expect("feasible selection")
                    .stats;
            });
            side.insert(time, us / 1e3);
            // Objective evaluations (full + incremental) the search made.
            side.insert(evals, (stats.evals + stats.probes) as f64);
        }

        // The bypass check: flat collective selection on nine ranks must
        // stay far below one percent of an op.
        let nodes: Vec<NodeId> = self.lan_em3d.node_ids().collect();
        let table = crate::cost::TableCost::new(self.lan_em3d.pair_table(&nodes), &nodes);
        let select_us = per_call_us(100, || {
            black_box(perfmodel::select(
                CollectiveKind::Allgather,
                nodes.len(),
                0,
                1024,
                8.0,
                &table,
                LinkSharing::Parallel,
            ));
        });
        side.insert("perfmodel.select_ms.p9", select_us / 1e3);

        // hetsim: one transfer priced over parallel links.
        let (a, b) = (NodeId(0), NodeId(8));
        let ns = per_call_us(100_000, || {
            black_box(
                self.lan_em3d
                    .rank_transfer_time_at(a, b, black_box(4096), SimTime::ZERO),
            );
        }) * 1e3;
        side.insert("hetsim.transfer_time_ns.par", ns);

        let universe = mpisim::Universe::new(self.lan_em3d.clone());
        side.insert("mpisim.spawn_join_ms.p9", spawn_join_ms(&universe, 30));
    }
}
