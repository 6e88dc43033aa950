//! EM3D drivers: the paper's Figure 3 (plain MPI) and Figure 5 (HMPI)
//! programs.
//!
//! Both run the *same* parallel kernel ([`crate::em3d::ParallelBody`]); the
//! only difference — exactly the paper's point — is how the group of
//! processes is formed. The MPI version picks the first `p` processes of
//! `MPI_COMM_WORLD` with `MPI_Comm_split` ("it is only a pure chance if the
//! MPI group of processes executes the parallel algorithm faster than any
//! other group"); the HMPI version runs `HMPI_Recon`, describes the Figure 4
//! performance model, and lets `HMPI_Group_create` select the processes.
//! The programs themselves are the crate's shared runners; this module is
//! the model and the kernel.

use crate::em3d::body::{Em3dConfig, Em3dSystem};
use crate::em3d::model::em3d_model;
use crate::em3d::parallel::ParallelBody;
use crate::program::{self, Kernel, TracedRun};
use hetsim::{Cluster, SimTime, Trace};
use hmpi::{Hmpi, HmpiError, MappingAlgorithm, Recon, RuntimeConfig};
use mpisim::{Comm, MpiResult};
use std::sync::{Arc, OnceLock};

/// Outcome of one EM3D execution.
#[derive(Debug, Clone)]
pub struct Em3dRun {
    /// Virtual execution time of the parallel algorithm (max over the
    /// executing processes), seconds.
    pub time: f64,
    /// `members[body index] = world rank` that executed that sub-body.
    pub members: Vec<usize>,
    /// Final `(e_values, h_values)` per body, for verification.
    pub fields: Vec<(Vec<f64>, Vec<f64>)>,
    /// `HMPI_Group_create`'s predicted time (HMPI runs only).
    pub predicted: Option<f64>,
}

/// One member's sub-body for `niter` iterations. With a `budget`, each
/// iteration's boundary receives give up that many virtual seconds after
/// it starts, so even a silent failure surfaces as an error.
struct Body {
    pb: ParallelBody,
    niter: usize,
    budget: Option<f64>,
}

impl Body {
    fn new(system: &Em3dSystem, comm: &Comm, niter: usize, budget: Option<f64>) -> Self {
        let pb = ParallelBody::new(system, comm.rank());
        Body { pb, niter, budget }
    }
}

impl Kernel for Body {
    type Out = (Vec<f64>, Vec<f64>);

    fn run(&mut self, comm: &Comm) -> MpiResult<()> {
        let Some(budget) = self.budget else {
            return self.pb.run(comm, self.niter);
        };
        (0..self.niter).try_for_each(|_| {
            let deadline = SimTime::from_secs(comm.clock().now().as_secs() + budget);
            self.pb.step_by(comm, deadline)
        })
    }

    fn finish(self, _: &Comm) -> MpiResult<Self::Out> {
        Ok((self.pb.body.e_values, self.pb.body.h_values))
    }
}

/// The Figure 3 program: plain MPI, sub-body `i` on world rank `i`.
///
/// # Panics
/// Panics if the cluster hosts fewer processes than sub-bodies.
pub fn run_mpi(cluster: Arc<Cluster>, cfg: &Em3dConfig, niter: usize) -> Em3dRun {
    let p = cfg.nodes_per_body.len();
    let system = Em3dSystem::generate(cfg);
    let (time, fields) = program::mpi(cluster, p, |comm| Body::new(&system, comm, niter, None));
    Em3dRun {
        time,
        members: (0..p).collect(),
        fields,
        predicted: None,
    }
}

/// The Figure 5 program: HMPI — recon, model, `group_create`, run.
///
/// `k` is the recon benchmark size in nodes (the model's `k` parameter).
///
/// # Panics
/// Panics if the cluster hosts fewer processes than sub-bodies.
pub fn run_hmpi(cluster: Arc<Cluster>, cfg: &Em3dConfig, niter: usize, k: usize) -> Em3dRun {
    run_hmpi_with(cluster, cfg, niter, k, MappingAlgorithm::default())
}

/// [`run_hmpi`] with an explicit selection algorithm (for ablations).
///
/// # Panics
/// As [`run_hmpi`].
pub fn run_hmpi_with(
    cluster: Arc<Cluster>,
    cfg: &Em3dConfig,
    niter: usize,
    k: usize,
    algo: MappingAlgorithm,
) -> Em3dRun {
    let config = RuntimeConfig::new().mapping_algorithm(algo);
    hmpi(cluster, cfg, niter, k, config).0
}

/// [`run_hmpi`] with tracing enabled (DESIGN.md §9). The Figure 4 model
/// describes one iteration, so the report's prediction is `niter` times
/// `HMPI_Group_create`'s.
///
/// # Panics
/// As [`run_hmpi`].
pub fn run_hmpi_traced(
    cluster: Arc<Cluster>,
    cfg: &Em3dConfig,
    niter: usize,
    k: usize,
) -> TracedRun<Em3dRun> {
    let n_ranks = cluster.len();
    let (run, trace) = hmpi(cluster, cfg, niter, k, RuntimeConfig::new().tracing(true));
    let predicted = run.predicted.expect("HMPI runs carry a prediction") * niter as f64;
    TracedRun::new(predicted, run.time, n_ranks, trace, run)
}

fn hmpi(
    cluster: Arc<Cluster>,
    cfg: &Em3dConfig,
    niter: usize,
    k: usize,
    config: RuntimeConfig,
) -> (Em3dRun, Option<Trace>) {
    let system = Em3dSystem::generate(cfg);
    let select = |h: &Hmpi| {
        // HMPI_Recon with a benchmark representative of the application:
        // computing the nodal values of k nodes of one sub-body (the model
        // counts in "k nodal values" units, hence the nominal/work split).
        h.recon_opts(Recon::new(1.0).work_units(k as f64))
            .expect("recon");
        let model = em3d_model(&system, k).expect("Figure 4 instantiation");
        (model, (), ())
    };
    let kernel = |comm: &Comm, ()| Body::new(&system, comm, niter, None);
    let run = program::hmpi(cluster, config, cfg.nodes_per_body.len(), select, kernel);
    let em3d = Em3dRun {
        time: run.time,
        members: run.members,
        fields: run.outs,
        predicted: Some(run.predicted),
    };
    (em3d, run.trace)
}

/// Outcome of one fault-tolerant EM3D execution ([`run_hmpi_ft`]).
#[derive(Debug, Clone)]
pub struct Em3dFtRun {
    /// The group `HMPI_Group_create` originally selected.
    pub initial_members: Vec<usize>,
    /// Predicted per-iteration time of the initial group, seconds.
    pub initial_predicted: f64,
    /// The group that completed the run (== initial when nothing failed).
    pub final_members: Vec<usize>,
    /// Predicted per-iteration time of the final group, seconds.
    pub final_predicted: f64,
    /// How many times the group was shrunk with `rebuild_group`.
    pub rebuilds: usize,
    /// Virtual time of the *final, successful* attempt (max over its
    /// members), seconds.
    pub time: f64,
    /// Virtual time of the whole run including failed attempts and
    /// recovery, seconds.
    pub makespan: f64,
    /// Final `(e_values, h_values)` per body of the shrunk system.
    pub fields: Vec<(Vec<f64>, Vec<f64>)>,
}

/// `cfg` restricted to its first `p` sub-bodies — the work the survivors
/// redistribute after a shrink.
fn shrunk(cfg: &Em3dConfig, p: usize) -> Em3dConfig {
    let mut c = cfg.clone();
    c.nodes_per_body.truncate(p);
    c
}

/// The fault-tolerant HMPI program: FT recon, `group_create`, then the
/// computation under [`hmpi::Hmpi::recover`] — every attempt ends in an
/// agreement round, and a failure verdict answers with `rebuild_group`
/// over the survivors and a restart of the (shrunk) computation from
/// scratch.
///
/// Each attempt runs the system for the current group size, so the result
/// after a mid-run crash equals a clean run of the shrunk problem. Each
/// size's system is generated once per run, by the first rank that needs
/// it, and shared.
/// Boundary receives carry a per-iteration deadline derived from the
/// group's own predicted time, so even a silent failure surfaces as an
/// error instead of a hang.
///
/// Returns `None` when the run could not complete at all: the host's node
/// died (host failure is unrecoverable, exactly like losing rank 0 of
/// `MPI_COMM_WORLD`), or so many nodes died that no feasible group
/// remained.
///
/// # Panics
/// Panics if the cluster hosts fewer processes than sub-bodies.
pub fn run_hmpi_ft(
    cluster: Arc<Cluster>,
    cfg: &Em3dConfig,
    niter: usize,
    k: usize,
) -> Option<Em3dFtRun> {
    let p = cfg.nodes_per_body.len();
    let systems: Vec<OnceLock<Em3dSystem>> = (0..=p).map(|_| OnceLock::new()).collect();
    let system = |p: usize| systems[p].get_or_init(|| Em3dSystem::generate(&shrunk(cfg, p)));
    let model = |p: usize| em3d_model(system(p), k);
    let run = program::hmpi_ft(
        cluster,
        p,
        |h| {
            h.recon_opts(Recon::new(1.0).work_units(k as f64)).ok()?;
            // Size the problem to what survived the recon: a node that
            // died before the application even started simply shrinks
            // the system.
            model(p.min(h.estimates().available_len())).ok()
        },
        |_, survivors| model(survivors.len()).map_err(|_| HmpiError::Aborted),
        |_, group, comm| {
            // Per-iteration deadline: generous versus the prediction,
            // tiny versus the deadlock timeout.
            let budget = (group.predicted_time() * 10.0).max(1.0);
            Body::new(system(group.size()), comm, niter, Some(budget))
        },
    )?;
    Some(Em3dFtRun {
        initial_members: run.initial.0,
        initial_predicted: run.initial.1,
        final_members: run.members,
        final_predicted: run.predicted,
        rebuilds: run.rebuilds,
        time: run.time,
        makespan: run.makespan,
        fields: run.outs,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::em3d::serial::serial_run;

    fn paper_cluster() -> Arc<Cluster> {
        Arc::new(Cluster::paper_lan_em3d())
    }

    fn cfg() -> Em3dConfig {
        Em3dConfig::ramp(9, 60, 4.0, 23)
    }

    #[test]
    fn mpi_and_hmpi_compute_identical_fields() {
        let niter = 3;
        let serial = serial_run(Em3dSystem::generate(&cfg()), niter);
        let mpi = run_mpi(paper_cluster(), &cfg(), niter);
        let hmpi = run_hmpi(paper_cluster(), &cfg(), niter, 10);
        for (body, (se, sh)) in serial.iter().enumerate() {
            for run in [&mpi, &hmpi] {
                let (e, h) = &run.fields[body];
                for (a, b) in e.iter().zip(se).chain(h.iter().zip(sh)) {
                    assert_eq!(a.to_bits(), b.to_bits(), "body {body}: {a} vs {b}");
                }
            }
        }
    }

    #[test]
    fn hmpi_beats_mpi_on_the_paper_lan() {
        // Irregular bodies on the paper's heterogeneous LAN: the MPI
        // rank-order assignment wastes the fast machines, HMPI pairs the
        // biggest bodies with them.
        let niter = 2;
        let mpi = run_mpi(paper_cluster(), &cfg(), niter);
        let hmpi = run_hmpi(paper_cluster(), &cfg(), niter, 10);
        assert!(
            hmpi.time < mpi.time,
            "HMPI ({}) must beat MPI ({})",
            hmpi.time,
            mpi.time
        );
        let speedup = mpi.time / hmpi.time;
        assert!(
            speedup > 1.2,
            "expected a paper-like speedup, got {speedup:.2}"
        );
    }

    #[test]
    fn hmpi_assigns_biggest_body_to_fastest_node() {
        let hmpi = run_hmpi(paper_cluster(), &cfg(), 2, 10);
        // Body 8 is the biggest; node 6 (speed 176) should host it — unless
        // communication shifts the optimum, it must at least avoid the
        // speed-9 node (8).
        let world_of_biggest = hmpi.members[8];
        assert_ne!(world_of_biggest, 8, "biggest body must not sit on speed-9");
        // And the speed-9 node, if used at all, gets one of the smallest
        // bodies.
        if let Some(body_on_slow) = hmpi.members.iter().position(|&w| w == 8) {
            assert!(body_on_slow <= 2, "speed-9 node got body {body_on_slow}");
        }
    }

    #[test]
    fn ft_driver_matches_plain_hmpi_without_faults() {
        // With an empty fault plan the FT driver is the Figure 5 program:
        // same group, same fields, same virtual time, zero rebuilds.
        let niter = 3;
        let plain = run_hmpi(paper_cluster(), &cfg(), niter, 10);
        let ft = run_hmpi_ft(paper_cluster(), &cfg(), niter, 10).expect("fault-free run");
        assert_eq!(ft.rebuilds, 0);
        assert_eq!(ft.initial_members, ft.final_members);
        assert!((ft.time - plain.time).abs() < 1e-9);
        let serial = serial_run(Em3dSystem::generate(&cfg()), niter);
        for (body, (se, sh)) in serial.iter().enumerate() {
            let (e, h) = &ft.fields[body];
            for (a, b) in e.iter().zip(se) {
                assert!((a - b).abs() < 1e-10);
            }
            for (a, b) in h.iter().zip(sh) {
                assert!((a - b).abs() < 1e-10);
            }
        }
    }

    #[test]
    fn ft_driver_recovers_from_a_mid_run_crash() {
        // Node 7 (speed 106) fail-stops at t=5.0 — during iteration 1 of 6
        // (the run spans roughly t=1.2..56). The survivors shrink to eight
        // processes with `rebuild_group`, restart the shrunk problem, and
        // finish; the dead rank sees its own failure and unwinds.
        use hetsim::{FaultEvent, FaultPlan, NodeId, PAPER_EM3D_SPEEDS};
        let plan = FaultPlan::none().with(FaultEvent::NodeCrash {
            node: NodeId(7),
            at: hetsim::SimTime::from_secs(5.0),
        });
        let cluster = Arc::new(Cluster::paper_lan_with_faults(&PAPER_EM3D_SPEEDS, plan));
        let niter = 6;
        let ft = run_hmpi_ft(cluster, &cfg(), niter, 10).expect("survivors complete");

        assert!(ft.rebuilds >= 1, "the crash must force a rebuild");
        assert_eq!(ft.initial_members.len(), 9, "everyone starts selected");
        assert_eq!(ft.final_members.len(), 8, "one node was lost");
        assert!(
            !ft.final_members.contains(&7),
            "the dead node must be excluded, got {:?}",
            ft.final_members
        );
        // The survivors computed the shrunk system correctly: the result
        // equals a clean serial run of the 8-body problem.
        let shrunk_cfg = {
            let mut c = cfg();
            c.nodes_per_body.truncate(8);
            c
        };
        let serial = serial_run(Em3dSystem::generate(&shrunk_cfg), niter);
        for (body, (se, sh)) in serial.iter().enumerate() {
            let (e, h) = &ft.fields[body];
            for (a, b) in e.iter().zip(se) {
                assert!((a - b).abs() < 1e-10, "E mismatch on body {body}");
            }
            for (a, b) in h.iter().zip(sh) {
                assert!((a - b).abs() < 1e-10, "H mismatch on body {body}");
            }
        }
        // The rebuilt group's prediction still tracks the final attempt.
        let converted = ft.final_predicted * niter as f64;
        let ratio = converted / ft.time;
        assert!(
            (0.3..3.0).contains(&ratio),
            "post-recovery prediction off by more than 3x: {converted} vs {}",
            ft.time
        );
        // The makespan pays for the aborted first attempt and the recovery.
        assert!(ft.makespan > ft.time);
    }

    #[test]
    fn traced_run_reports_prediction_accuracy() {
        let niter = 2;
        let traced = run_hmpi_traced(paper_cluster(), &cfg(), niter, 10);
        assert!(!traced.trace.is_empty(), "tracing must record events");
        let r = &traced.report;
        assert!(r.predicted > 0.0 && r.measured > 0.0);
        // Same accuracy band as `predicted_time_is_reasonable` (0.3x..3x).
        assert!(
            (-70.0..200.0).contains(&r.error_pct()),
            "model error {:+.1}%",
            r.error_pct()
        );
        // The phase breakdown accounts for real virtual time, and the
        // executing ranks show both compute and communication.
        let compute: f64 = r.phases.iter().map(|p| p.compute.as_secs()).sum();
        let comm: f64 = r.phases.iter().map(|p| p.comm.as_secs()).sum();
        assert!(compute > 0.0 && comm > 0.0);
        let json = traced.trace.to_chrome_json();
        assert!(json.starts_with("{\"traceEvents\":["));
        // The untraced path stays untraced and agrees on the result.
        let plain = run_hmpi(paper_cluster(), &cfg(), niter, 10);
        assert!((plain.time - traced.run.time).abs() < 1e-9);
    }

    #[test]
    fn predicted_time_is_reasonable() {
        let niter = 2;
        let hmpi = run_hmpi(paper_cluster(), &cfg(), niter, 10);
        let predicted = hmpi.predicted.unwrap();
        // Recon estimates speeds in bench units (k nodes) per second and the
        // model's volumes are in bench units, so the prediction comes out in
        // true seconds — per iteration (the model describes one iteration).
        let converted = predicted * niter as f64;
        let ratio = converted / hmpi.time;
        assert!(
            (0.3..3.0).contains(&ratio),
            "prediction off by more than 3x: predicted {converted}, measured {}",
            hmpi.time
        );
    }
}
