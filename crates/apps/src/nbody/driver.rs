//! N-body drivers: rank-order MPI baseline vs HMPI-selected group.

use crate::nbody::body::{Bodies, NbodyConfig};
use crate::nbody::model::nbody_model;
use crate::nbody::parallel::ParallelGroup;
use hetsim::Cluster;
use hmpi::HmpiRuntime;
use mpisim::Universe;
use std::sync::Arc;

/// Outcome of one N-body execution.
#[derive(Debug, Clone)]
pub struct NbodyRun {
    /// Virtual execution time (max over executing ranks), seconds.
    pub time: f64,
    /// `members[group index] = world rank`.
    pub members: Vec<usize>,
    /// Final bodies per group, for verification.
    pub groups: Vec<Bodies>,
    /// Predicted time (HMPI runs).
    pub predicted: Option<f64>,
}

type RankOutcome = Option<(f64, Bodies)>;

fn assemble(outcomes: Vec<RankOutcome>, members: Vec<usize>, predicted: Option<f64>) -> NbodyRun {
    let mut time = 0.0f64;
    let mut groups = vec![Bodies::default(); members.len()];
    for (g, &world) in members.iter().enumerate() {
        let (dur, bodies) = outcomes[world].clone().expect("member produced an outcome");
        time = time.max(dur);
        groups[g] = bodies;
    }
    NbodyRun {
        time,
        members,
        groups,
        predicted,
    }
}

/// Plain MPI: group `i` on world rank `i`.
///
/// # Panics
/// Panics if the cluster hosts fewer processes than groups.
pub fn run_mpi(cluster: Arc<Cluster>, cfg: &NbodyConfig, niter: usize, k: usize) -> NbodyRun {
    let p = cfg.p();
    let universe = Universe::new(cluster);
    assert!(p <= universe.size());
    let report = universe.run(|proc| -> RankOutcome {
        let world = proc.world();
        let comm = world.split((world.rank() < p).then_some(1), 1).unwrap()?;
        let mut pg = ParallelGroup::new(cfg, comm.rank());
        let t0 = comm.clock().now();
        pg.run(&comm, niter, k).expect("nbody kernel");
        comm.barrier().expect("closing barrier");
        let dur = (comm.clock().now() - t0).as_secs();
        Some((dur, pg.bodies))
    });
    assemble(report.results, (0..p).collect(), None)
}

/// HMPI: recon → model → `group_create` → run.
///
/// # Panics
/// Panics if the cluster hosts fewer processes than groups.
pub fn run_hmpi(cluster: Arc<Cluster>, cfg: &NbodyConfig, niter: usize, k: usize) -> NbodyRun {
    let p = cfg.p();
    let runtime = HmpiRuntime::new(cluster);
    assert!(p <= runtime.universe().size());
    let report = runtime.run(|h| -> (RankOutcome, Option<(Vec<usize>, f64)>) {
        // Recon benchmark: k body-body interactions.
        h.recon(1.0).expect("recon");
        let model = nbody_model(cfg, k).expect("model");
        let group = h.group_create(&model).expect("group_create");
        let meta = h
            .is_host()
            .then(|| (group.members().to_vec(), group.predicted_time()));
        let outcome = if let Some(comm) = group.comm() {
            let mut pg = ParallelGroup::new(cfg, comm.rank());
            let t0 = comm.clock().now();
            pg.run(comm, niter, k).expect("nbody kernel");
            comm.barrier().expect("closing barrier");
            let dur = (comm.clock().now() - t0).as_secs();
            Some((dur, pg.bodies.clone()))
        } else {
            None
        };
        if group.is_member() {
            h.group_free(group).expect("group_free");
        }
        h.finalize().expect("finalize");
        (outcome, meta)
    });

    let mut outcomes = Vec::with_capacity(report.results.len());
    let mut meta = None;
    for (o, m) in report.results {
        outcomes.push(o);
        if m.is_some() {
            meta = m;
        }
    }
    let (members, predicted) = meta.expect("host reported");
    assemble(outcomes, members, Some(predicted))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nbody::serial::serial_run;

    fn paper_cluster() -> Arc<Cluster> {
        Arc::new(Cluster::paper_lan_em3d())
    }

    #[test]
    fn both_drivers_match_serial() {
        let cfg = NbodyConfig::ramp(9, 6, 2.0, 77);
        let niter = 3;
        let want = serial_run(&cfg, niter);
        for run in [
            run_mpi(paper_cluster(), &cfg, niter, 10),
            run_hmpi(paper_cluster(), &cfg, niter, 10),
        ] {
            let got = Bodies::concat(&run.groups);
            for (a, b) in got.pos.iter().zip(&want.pos) {
                assert!((a - b).abs() < 1e-10);
            }
        }
    }

    #[test]
    fn hmpi_beats_rank_order_mpi() {
        let cfg = NbodyConfig::ramp(9, 20, 3.0, 31);
        let mpi = run_mpi(paper_cluster(), &cfg, 2, 10);
        let hmpi = run_hmpi(paper_cluster(), &cfg, 2, 10);
        assert!(
            hmpi.time < mpi.time,
            "HMPI {} vs MPI {}",
            hmpi.time,
            mpi.time
        );
    }

    #[test]
    fn biggest_group_avoids_the_slow_machine() {
        let cfg = NbodyConfig::ramp(9, 20, 3.0, 31);
        let hmpi = run_hmpi(paper_cluster(), &cfg, 2, 10);
        assert_ne!(hmpi.members[8], 8, "biggest group must not sit on speed-9");
    }
}
