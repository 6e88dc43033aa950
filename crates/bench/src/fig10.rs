//! Figure 10: MM (r = 8) against the generalised block size `l` — the
//! `fig10` table of the `paper` bench. Small `l` limits how finely areas can
//! track speeds; large `l` makes the distribution coarse. The `HMPI_Timeof`
//! sweep of the Figure 8 program automates the choice.

use crate::matmul_cluster;
use crate::paper::{Point, M};
use hmpi_apps::matmul::{run_hmpi, run_mpi};

/// Block size in elements and matrix size in blocks.
const R: usize = 8;
pub(crate) const N: usize = 18;

/// The homogeneous MPI baseline for an `n`-block matrix; it does not depend
/// on `l`.
fn mpi(n: usize) -> f64 {
    run_mpi(matmul_cluster(), M, n, R, Some(M)).time
}

/// HMPI with generalised block size `l` against the MPI time `mpi`.
fn point(l: usize, n: usize, mpi: f64) -> Point {
    let hmpi = run_hmpi(matmul_cluster(), M, n, R, Some(l));
    Point {
        x: l,
        mpi,
        hmpi: hmpi.time,
        predicted: hmpi.predicted.expect("HMPI runs predict"),
    }
}

/// Every `l` in `m..=n` against one MPI baseline.
pub(crate) fn series(n: usize) -> Vec<Point> {
    let mpi = mpi(n);
    (M..=n).map(|l| point(l, n, mpi)).collect()
}

/// The `l` the `HMPI_Timeof` sweep chooses for an `n`-block matrix.
pub(crate) fn timeof_choice(n: usize) -> usize {
    run_hmpi(matmul_cluster(), M, n, R, None).l
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hmpi_beats_mpi_across_block_sizes() {
        let mpi = mpi(9);
        for p in [3, 9].map(|l| point(l, 9, mpi)) {
            assert!(p.speedup() > 1.0, "l = {}: speedup {:.2}", p.x, p.speedup());
        }
    }

    #[test]
    fn timeof_choice_is_within_sweep_range() {
        let l = timeof_choice(9);
        assert!((3..=9).contains(&l));
    }

    #[test]
    fn timeof_choice_is_near_the_measured_optimum() {
        let n = 9;
        let mpi = mpi(n);
        let series = [3, 4, 6, 9].map(|l| point(l, n, mpi));
        let measured_best = series
            .iter()
            .min_by(|a, b| a.hmpi.total_cmp(&b.hmpi))
            .unwrap();
        let chosen = timeof_choice(n);
        let chosen_time = series.iter().find(|p| p.x == chosen).map(|p| p.hmpi);
        if let Some(t) = chosen_time {
            assert!(
                t <= measured_best.hmpi * 1.25,
                "Timeof's l={chosen} at {t:.3}s vs best l={} at {:.3}s",
                measured_best.x,
                measured_best.hmpi
            );
        }
    }
}
