//! Heterogeneous matrix multiplication on the paper's LAN: the Figure 8
//! program end to end.
//!
//! Shows the `HMPI_Timeof` sweep choosing the generalised block size, the
//! heterogeneous generalised-block distribution it implies, and the ≈3×
//! win over the homogeneous MPI baseline the paper reports in Figure 11.
//!
//! ```text
//! cargo run --release -p hmpi-apps --example heterogeneous_matmul
//! ```

use hetsim::Cluster;
use hmpi_apps::matmul::{
    run_hmpi, run_mpi, GeneralizedBlockDist,
};
use hmpi_apps::matmul::block::{serial_matmul, BlockMatrix};
use hmpi_apps::matmul::driver::{SEED_A, SEED_B};
use std::sync::Arc;

fn main() {
    let m = 3; // 3x3 processor grid
    let n = 18; // matrix size in r-blocks
    let r = 9; // the paper's optimal r
    let cluster = Arc::new(Cluster::paper_lan_matmul());

    println!("C = A x B, {0}x{0} blocks of {1}x{1} doubles, 3x3 grid", n, r);

    let mpi = run_mpi(cluster.clone(), m, n, r, Some(m));
    println!("\nhomogeneous MPI distribution:    {:.3} virtual s", mpi.time);

    let hmpi = run_hmpi(cluster, m, n, r, None);
    println!(
        "HMPI heterogeneous distribution: {:.3} virtual s  (Timeof chose l = {})",
        hmpi.time, hmpi.l
    );
    println!("speedup: {:.2}x", mpi.time / hmpi.time);

    // Show the distribution the speeds imply.
    let speeds = [46.0, 46.0, 46.0, 46.0, 46.0, 46.0, 176.0, 106.0, 9.0];
    let mut grid_speeds = vec![speeds[0]];
    let mut rest: Vec<f64> = speeds[1..].to_vec();
    rest.sort_by(|a, b| b.total_cmp(a));
    grid_speeds.extend(rest);
    let dist = GeneralizedBlockDist::heterogeneous(m, hmpi.l, &grid_speeds);
    println!("\ngeneralised block ({0} x {0} r-blocks) partition:", hmpi.l);
    println!("  column widths w = {:?}", dist.w);
    for j in 0..m {
        println!("  column {j}: heights {:?}", dist.heights[j]);
    }
    println!("  (areas proportional to the grid speeds {grid_speeds:?})");

    // Verify the distributed product against the serial reference.
    let want = serial_matmul(
        &BlockMatrix::deterministic(n, r, SEED_A),
        &BlockMatrix::deterministic(n, r, SEED_B),
    );
    let got = hmpi.c.expect("gathered result");
    let max_err = got
        .data()
        .iter()
        .zip(want.data())
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f64, f64::max)
        ;
    println!("\nmax |error| vs serial reference: {max_err:.3e}");
    assert!(max_err < 1e-9);
    println!("distributed product is exact — only the schedule differs.");
}
