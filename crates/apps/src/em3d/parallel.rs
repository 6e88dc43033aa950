//! Message-passing EM3D over an [`mpisim::Comm`].
//!
//! One process per sub-body (group rank `r` owns sub-body `r`), following
//! the paper's algorithm: gather remote H boundary values, compute E values,
//! gather remote E boundary values, compute H values. Communication uses
//! standard point-to-point operations on the group communicator — exactly
//! the "control is handed over to MPI" phase of an HMPI program.

use crate::em3d::body::{Em3dSystem, NodeRef, SubBody};
use hetsim::SimTime;
use mpisim::{Comm, MpiResult};

const TAG_H_BOUNDARY: i32 = 101;
const TAG_E_BOUNDARY: i32 = 102;

/// A rank's share of the system: its sub-body plus ghost buffers.
#[derive(Debug, Clone)]
pub struct ParallelBody {
    /// This rank's sub-body index (== group rank).
    pub me: usize,
    /// Number of sub-bodies (== group size).
    pub p: usize,
    /// The owned sub-body.
    pub body: SubBody,
    ghosts_h: Vec<Vec<f64>>,
    ghosts_e: Vec<Vec<f64>>,
}

impl ParallelBody {
    /// Extracts rank `me`'s share from a (deterministically generated)
    /// system — the paper's `Initialize_system`.
    pub fn new(system: &Em3dSystem, me: usize) -> Self {
        let p = system.p();
        assert!(me < p);
        let body = system.bodies[me].clone();
        let ghosts_h = body.h_imports.iter().map(|&n| vec![0.0; n]).collect();
        let ghosts_e = body.e_imports.iter().map(|&n| vec![0.0; n]).collect();
        ParallelBody {
            me,
            p,
            body,
            ghosts_h,
            ghosts_e,
        }
    }

    /// Gathers remote H boundary values (paper:
    /// `Gather_remote_H_boundary_values`).
    ///
    /// # Errors
    /// Propagates transport errors.
    pub fn gather_h_boundaries(&mut self, comm: &Comm) -> MpiResult<()> {
        self.gather_by(comm, true, None)
    }

    /// Gathers remote E boundary values.
    ///
    /// # Errors
    /// Propagates transport errors.
    pub fn gather_e_boundaries(&mut self, comm: &Comm) -> MpiResult<()> {
        self.gather_by(comm, false, None)
    }

    /// Sends the H (`h`) or E boundary values every peer imports, then
    /// receives the peers' into the ghost buffers. With a `deadline`, the
    /// receives give up at that virtual time.
    fn gather_by(&mut self, comm: &Comm, h: bool, deadline: Option<SimTime>) -> MpiResult<()> {
        let b = &self.body;
        let (exports, values, imports, tag) = if h {
            (&b.h_exports, &b.h_values, &b.h_imports, TAG_H_BOUNDARY)
        } else {
            (&b.e_exports, &b.e_values, &b.e_imports, TAG_E_BOUNDARY)
        };
        let ghosts = if h {
            &mut self.ghosts_h
        } else {
            &mut self.ghosts_e
        };
        // Eager sends first, then receives: no deadlock by construction.
        for (j, list) in exports.iter().enumerate() {
            if j != self.me && !list.is_empty() {
                let vals: Vec<f64> = list.iter().map(|&idx| values[idx]).collect();
                comm.send(&vals, j, tag)?;
            }
        }
        for (j, &count) in imports.iter().enumerate() {
            if j != self.me && count > 0 {
                let (vals, _) = match deadline {
                    None => comm.recv::<f64>(j, tag)?,
                    Some(d) => comm.recv_deadline::<f64>(j, tag, d)?,
                };
                debug_assert_eq!(vals.len(), count);
                ghosts[j] = vals;
            }
        }
        Ok(())
    }

    /// Computes new E values from H values (paper: `Compute_E_values`), and
    /// charges the virtual computation cost (one unit per node update).
    ///
    /// # Errors
    /// [`mpisim::MpiError::NodeFailed`] (own rank) if this rank's node
    /// fail-stops during the computation.
    pub fn compute_e(&mut self, comm: &Comm) -> MpiResult<()> {
        let new_e = update(&self.body.e_deps, &self.body.h_values, &self.ghosts_h);
        comm.try_compute(new_e.len() as f64)?;
        self.body.e_values = new_e;
        Ok(())
    }

    /// Computes new H values from E values (paper: `Compute_H_values`).
    ///
    /// # Errors
    /// As [`ParallelBody::compute_e`].
    pub fn compute_h(&mut self, comm: &Comm) -> MpiResult<()> {
        let new_h = update(&self.body.h_deps, &self.body.e_values, &self.ghosts_e);
        comm.try_compute(new_h.len() as f64)?;
        self.body.h_values = new_h;
        Ok(())
    }

    /// One full iteration of the paper's main loop.
    ///
    /// # Errors
    /// Propagates transport errors.
    pub fn step(&mut self, comm: &Comm) -> MpiResult<()> {
        self.gather_h_boundaries(comm)?;
        self.compute_e(comm)?;
        self.gather_e_boundaries(comm)?;
        self.compute_h(comm)?;
        Ok(())
    }

    /// Failure-aware iteration: boundary receives give up at `deadline`
    /// (virtual time), so a peer that fail-stops without a trace — or a
    /// partition that silences it — surfaces as [`mpisim::MpiError::Timeout`]
    /// instead of a hang, and this rank's own death surfaces as
    /// [`mpisim::MpiError::NodeFailed`]. The caller treats any error as the
    /// signal to enter its recovery path.
    ///
    /// # Errors
    /// As [`Comm::recv_deadline`] plus [`ParallelBody::compute_e`].
    pub fn step_by(&mut self, comm: &Comm, deadline: SimTime) -> MpiResult<()> {
        self.gather_by(comm, true, Some(deadline))?;
        self.compute_e(comm)?;
        self.gather_by(comm, false, Some(deadline))?;
        self.compute_h(comm)?;
        Ok(())
    }

    /// Runs `niter` iterations.
    ///
    /// # Errors
    /// Propagates transport errors.
    pub fn run(&mut self, comm: &Comm, niter: usize) -> MpiResult<()> {
        for _ in 0..niter {
            self.step(comm)?;
        }
        Ok(())
    }
}

/// One new value per row of `deps`: the weighted sum of the local and
/// ghost values it references.
fn update(deps: &[Vec<(NodeRef, f64)>], local: &[f64], ghosts: &[Vec<f64>]) -> Vec<f64> {
    let value = |r| match r {
        NodeRef::Local(idx) => local[idx],
        NodeRef::Remote { body, slot } => ghosts[body][slot],
    };
    deps.iter()
        .map(|row| row.iter().map(|&(r, w)| w * value(r)).sum())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::em3d::body::Em3dConfig;
    use crate::em3d::serial::serial_run;
    use hetsim::{ClusterBuilder, Link, Protocol};
    use mpisim::Universe;
    use std::sync::Arc;

    fn uniform_cluster(n: usize) -> Arc<hetsim::Cluster> {
        let mut b = ClusterBuilder::new();
        for i in 0..n {
            b = b.node(format!("h{i}"), 100.0);
        }
        Arc::new(b.all_to_all(Link::new(1e-4, 1e7, Protocol::Tcp)).build())
    }

    #[test]
    fn parallel_matches_serial() {
        let cfg = Em3dConfig::ramp(4, 40, 2.5, 13);
        let niter = 5;
        let serial = serial_run(Em3dSystem::generate(&cfg), niter);

        let u = Universe::new(uniform_cluster(4));
        let cfg2 = cfg.clone();
        let report = u.run(move |proc| {
            let world = proc.world();
            let system = Em3dSystem::generate(&cfg2);
            let mut pb = ParallelBody::new(&system, world.rank());
            pb.run(&world, niter).unwrap();
            (pb.body.e_values, pb.body.h_values)
        });

        for (rank, (e, h)) in report.results.iter().enumerate() {
            let (se, sh) = &serial[rank];
            for (a, b) in e.iter().zip(se) {
                assert!((a - b).abs() < 1e-10, "E mismatch on body {rank}");
            }
            for (a, b) in h.iter().zip(sh) {
                assert!((a - b).abs() < 1e-10, "H mismatch on body {rank}");
            }
        }
    }

    #[test]
    fn virtual_time_scales_with_body_size() {
        // Uniform speeds, irregular bodies: the rank with the biggest body
        // must finish last (compute dominates with a fast network).
        let cfg = Em3dConfig::ramp(3, 60, 4.0, 21);
        let u = Universe::new(uniform_cluster(3));
        let report = u.run(move |proc| {
            let world = proc.world();
            let system = Em3dSystem::generate(&cfg);
            let mut pb = ParallelBody::new(&system, world.rank());
            pb.run(&world, 3).unwrap();
            world.clock().now().as_secs()
        });
        // All ranks end nearly together (they synchronise via boundary
        // exchange), but total time is governed by the largest body:
        // d[2] = 240 nodes * 3 iters / speed 100.
        let expect = 240.0 * 3.0 / 100.0;
        assert!(report.makespan.as_secs() >= expect * 0.95);
        assert!(report.makespan.as_secs() <= expect * 1.3);
        let _ = report.results;
    }

    #[test]
    fn single_body_runs_without_comm() {
        let cfg = Em3dConfig::ramp(1, 30, 1.0, 3);
        let u = Universe::new(uniform_cluster(1));
        let serial = serial_run(Em3dSystem::generate(&cfg), 4);
        let report = u.run(move |proc| {
            let world = proc.world();
            let system = Em3dSystem::generate(&cfg);
            let mut pb = ParallelBody::new(&system, 0);
            pb.run(&world, 4).unwrap();
            pb.body.e_values
        });
        assert_eq!(report.results[0], serial[0].0);
    }
}
