//! Beyond the paper: the N-body application, an allgather-per-step workload
//! that shows the selection machinery generalises to a collective-heavy
//! shape — the `nbody` table of the `paper` bench.

use crate::em3d_cluster;
use crate::paper::{Point, K, P};
use hmpi_apps::nbody::{run_hmpi, run_mpi, NbodyConfig};

/// Bodies in the smallest group.
pub(crate) const SIZES: [usize; 3] = [10, 20, 40];

/// Group-size spread (largest / smallest).
const SPREAD: f64 = 3.0;

/// Integration steps per run. The model covers one.
const NITER: usize = 3;

/// Runs one problem size; `base` is the smallest group's body count.
pub(crate) fn point(base: usize) -> Point {
    let cfg = NbodyConfig::ramp(P, base, SPREAD, 0xB0D1 + base as u64);
    let hmpi = run_hmpi(em3d_cluster(), &cfg, NITER, K);
    Point {
        x: cfg.total(),
        mpi: run_mpi(em3d_cluster(), &cfg, NITER, K).time,
        hmpi: hmpi.time,
        predicted: hmpi.predicted.expect("HMPI runs predict") * NITER as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hmpi_wins_on_the_extension_workload() {
        let p = point(10);
        assert!(
            p.speedup() > 1.3,
            "N-body speedup {:.2} unexpectedly small",
            p.speedup()
        );
    }

    #[test]
    fn x_axis_is_the_true_total() {
        let p = point(10);
        let cfg = NbodyConfig::ramp(P, 10, SPREAD, 0xB0D1 + 10);
        assert_eq!(p.x, cfg.total());
    }
}
