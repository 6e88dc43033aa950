//! Figure 9: EM3D across problem sizes, HMPI vs MPI — the `fig9` table of
//! the `paper` bench. Paper: HMPI is "almost 1.5 times faster".

use crate::em3d_cluster;
use crate::paper::{Point, K, P};
use hmpi_apps::em3d::{run_hmpi, run_mpi, Em3dConfig};

/// Base nodes of the smallest sub-body.
pub(crate) const SIZES: [usize; 5] = [50, 100, 200, 400, 800];

/// Size spread of the irregular decomposition (largest / smallest body).
/// The paper does not publish its decomposition; this spread sets the
/// attainable speedup (MPI's worst case is the biggest body on the slowest
/// machine), and 1.6 lands in the paper's ≈1.5× band.
const SPREAD: f64 = 1.6;

/// EM3D iterations per run. The Figure 4 model covers one.
const NITER: usize = 5;

/// Runs one problem size; `base` is the smallest sub-body's node count.
pub(crate) fn point(base: usize) -> Point {
    let cfg = Em3dConfig::ramp(P, base, SPREAD, 0xE3D + base as u64);
    let hmpi = run_hmpi(em3d_cluster(), &cfg, NITER, K);
    Point {
        x: cfg.nodes_per_body.iter().sum(),
        mpi: run_mpi(em3d_cluster(), &cfg, NITER).time,
        hmpi: hmpi.time,
        predicted: hmpi.predicted.expect("HMPI runs predict") * NITER as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hmpi_wins_at_every_size() {
        for p in [60, 150].map(point) {
            assert!(
                p.speedup() > 1.1,
                "size {}: speedup {:.2}",
                p.x,
                p.speedup()
            );
        }
    }

    #[test]
    fn speedup_is_paper_like() {
        // Paper: "almost 1.5 times faster". Accept a band around it.
        let p = point(150);
        assert!(
            (1.15..4.0).contains(&p.speedup()),
            "speedup {:.2} out of band",
            p.speedup()
        );
    }
}
