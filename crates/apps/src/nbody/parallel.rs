//! Message-passing N-body over an [`mpisim::Comm`]: one body group per
//! rank, positions and masses exchanged with an allgather each step.

use crate::nbody::body::{accelerations, Bodies, NbodyConfig};
use mpisim::{Comm, MpiResult};

/// One rank's group plus the exchange/update logic.
#[derive(Debug, Clone)]
pub struct ParallelGroup {
    /// This rank's group index (== group rank).
    pub me: usize,
    /// The owned bodies.
    pub bodies: Bodies,
    dt: f64,
    /// Cached masses of every group (exchanged once; masses are constant).
    all_masses: Option<Vec<f64>>,
}

impl ParallelGroup {
    /// Builds rank `me`'s group.
    pub fn new(cfg: &NbodyConfig, me: usize) -> Self {
        ParallelGroup {
            me,
            bodies: Bodies::generate_group(cfg, me),
            dt: cfg.dt,
            all_masses: None,
        }
    }

    /// One step: allgather positions (and masses on the first step), compute
    /// accelerations of own bodies from all bodies, integrate. The virtual
    /// compute cost is `own_bodies × total_bodies` interaction units scaled
    /// by `1/k` (the recon benchmark computes `k` interactions).
    ///
    /// # Errors
    /// Propagates transport errors.
    #[allow(clippy::needless_range_loop)]
    pub fn step(&mut self, comm: &Comm, k: usize) -> MpiResult<()> {
        // Masses once (they never change), positions every step.
        if self.all_masses.is_none() {
            let masses = comm.allgather(&self.bodies.mass)?;
            self.all_masses = Some(masses.concat());
        }
        let all_pos = comm.allgather(&self.bodies.pos)?.concat();
        let all_mass = self.all_masses.as_ref().expect("gathered above");

        let acc = accelerations(&self.bodies.pos, &all_pos, all_mass);
        // d[me] * total interactions, in units of k-interaction benchmarks.
        let interactions = (self.bodies.len() * all_mass.len()) as f64;
        comm.compute(interactions / k as f64);

        for i in 0..self.bodies.vel.len() {
            self.bodies.vel[i] += self.dt * acc[i];
        }
        for i in 0..self.bodies.pos.len() {
            self.bodies.pos[i] += self.dt * self.bodies.vel[i];
        }
        Ok(())
    }

    /// Runs `niter` steps.
    ///
    /// # Errors
    /// Propagates transport errors.
    pub fn run(&mut self, comm: &Comm, niter: usize, k: usize) -> MpiResult<()> {
        for _ in 0..niter {
            self.step(comm, k)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nbody::serial::serial_run;
    use hetsim::{Link, Protocol, TopologyBuilder};
    use mpisim::Universe;
    use std::sync::Arc;

    #[test]
    fn parallel_matches_serial() {
        let cfg = NbodyConfig::ramp(4, 8, 2.5, 17);
        let niter = 4;
        let want = serial_run(&cfg, niter);

        let mut b = TopologyBuilder::new();
        for i in 0..4 {
            b = b.node(format!("h{i}"), 100.0);
        }
        let cluster = Arc::new(
            b.intra_switch(Link::new(1e-4, 1e7, Protocol::Tcp))
                .build()
                .into_parts()
                .0,
        );
        let u = Universe::new(cluster);
        let report = u.run(move |proc| {
            let world = proc.world();
            let mut pg = ParallelGroup::new(&cfg, world.rank());
            pg.run(&world, niter, 10).unwrap();
            pg.bodies
        });

        // Stitch the groups back together and compare.
        let got = Bodies::concat(&report.results);
        assert_eq!(got.mass, want.mass);
        for (a, b) in got.pos.iter().zip(&want.pos) {
            assert!((a - b).abs() < 1e-10, "position mismatch");
        }
        for (a, b) in got.vel.iter().zip(&want.vel) {
            assert!((a - b).abs() < 1e-10, "velocity mismatch");
        }
    }
}
