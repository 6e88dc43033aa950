//! N-body simulation (extension application): irregular body groups on the
//! paper's heterogeneous LAN, MPI vs HMPI.
//!
//! Unlike EM3D's sparse neighbour exchange, gravity is all-pairs: every
//! step each process allgathers every group's positions. The HMPI win comes
//! purely from pairing the big groups with the fast machines.
//!
//! ```text
//! cargo run --release -p hmpi-apps --example nbody_simulation
//! ```

use hetsim::Cluster;
use hmpi_apps::nbody::{run_hmpi, run_mpi, serial_run, Bodies, NbodyConfig};
use std::sync::Arc;

fn main() {
    let cfg = NbodyConfig::ramp(9, 30, 3.0, 0xB0D1);
    let niter = 5;
    let k = 10;

    println!(
        "N-body: {} groups, sizes {:?}, {} bodies total",
        cfg.p(),
        cfg.bodies_per_group,
        cfg.total()
    );

    let mpi = run_mpi(Arc::new(Cluster::paper_lan_em3d()), &cfg, niter, k);
    println!("\nplain MPI (group i on rank i): {:.3} virtual s", mpi.time);

    let hmpi = run_hmpi(Arc::new(Cluster::paper_lan_em3d()), &cfg, niter, k);
    println!("HMPI (selected group):         {:.3} virtual s", hmpi.time);
    println!("speedup: {:.2}x", mpi.time / hmpi.time);

    println!("\nassignment (group -> world rank):");
    let speeds = [46.0, 46.0, 46.0, 46.0, 46.0, 46.0, 176.0, 106.0, 9.0];
    for (g, &world) in hmpi.members.iter().enumerate() {
        println!(
            "  group {g} ({:>3} bodies) -> rank {world} (speed {:>5.0})",
            cfg.bodies_per_group[g], speeds[world]
        );
    }

    // Verify against the serial reference.
    let want = serial_run(&cfg, niter);
    let got = Bodies::concat(&hmpi.groups);
    let max_err = got
        .pos
        .iter()
        .zip(&want.pos)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f64, f64::max);
    println!("\nmax |position error| vs serial reference: {max_err:.3e}");
    assert!(max_err < 1e-9);
    println!("trajectories are identical — only the schedule differs.");
}
