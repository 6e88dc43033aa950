//! N-body drivers: rank-order MPI baseline vs HMPI-selected group, both
//! on the crate's shared runners.

use crate::nbody::body::{Bodies, NbodyConfig};
use crate::nbody::model::nbody_model;
use crate::nbody::parallel::ParallelGroup;
use crate::program::{self, Kernel};
use hetsim::Cluster;
use hmpi::RuntimeConfig;
use mpisim::{Comm, MpiResult};
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

/// One member's group for `niter` steps of `k` interactions per unit.
struct Group {
    pg: ParallelGroup,
    niter: usize,
    k: usize,
}

impl Group {
    fn new(cfg: &NbodyConfig, comm: &Comm, niter: usize, k: usize) -> Self {
        let pg = ParallelGroup::new(cfg, comm.rank());
        Group { pg, niter, k }
    }
}

impl Kernel for Group {
    type Out = Bodies;

    fn run(&mut self, comm: &Comm) -> MpiResult<()> {
        self.pg.run(comm, self.niter, self.k)
    }

    fn finish(self, _: &Comm) -> MpiResult<Bodies> {
        Ok(self.pg.bodies)
    }
}

/// Plain MPI: group `i` on world rank `i`.
///
/// # Panics
/// Panics if the cluster hosts fewer processes than groups.
pub fn run_mpi(cluster: Arc<Cluster>, cfg: &NbodyConfig, niter: usize, k: usize) -> NbodyRun {
    let p = cfg.p();
    let (time, groups) = program::mpi(cluster, p, |comm| Group::new(cfg, comm, niter, k));
    NbodyRun {
        time,
        members: (0..p).collect(),
        groups,
        predicted: None,
    }
}

/// HMPI: recon → model → `group_create` → run.
///
/// # Panics
/// Panics if the cluster hosts fewer processes than groups.
pub fn run_hmpi(cluster: Arc<Cluster>, cfg: &NbodyConfig, niter: usize, k: usize) -> NbodyRun {
    let run = program::hmpi(
        cluster,
        RuntimeConfig::new(),
        cfg.p(),
        |h| {
            // Recon benchmark: k body-body interactions.
            h.recon(1.0).expect("recon");
            (nbody_model(cfg, k).expect("model"), (), ())
        },
        |comm, ()| Group::new(cfg, comm, niter, k),
    );
    NbodyRun {
        time: run.time,
        members: run.members,
        groups: run.outs,
        predicted: Some(run.predicted),
    }
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
