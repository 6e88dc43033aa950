//! EM3D on the paper's 9-workstation LAN: plain MPI vs HMPI, side by side.
//!
//! Reproduces the Section 3 / Section 5 comparison: the same irregular
//! field simulation runs once with the rank-order MPI group (Figure 3) and
//! once with the HMPI-selected group (Figure 5), then prints both times,
//! the selected assignment, and a correctness check against the serial
//! reference.
//!
//! ```text
//! cargo run --release -p hmpi-apps --example em3d_simulation
//! ```

use hetsim::Cluster;
use hmpi_apps::em3d::{run_hmpi, run_mpi, serial_run, Em3dConfig, Em3dSystem};
use std::sync::Arc;

fn main() {
    let p = 9;
    let niter = 5;
    let k = 10;
    let cfg = Em3dConfig::ramp(p, 120, 1.6, 0xE3D);
    let cluster = Arc::new(Cluster::paper_lan_em3d());

    println!("EM3D: {p} sub-bodies, sizes {:?}", cfg.nodes_per_body);
    println!(
        "cluster speeds: {:?}",
        cluster.nodes().iter().map(|n| n.base_speed).collect::<Vec<_>>()
    );

    let mpi = run_mpi(cluster.clone(), &cfg, niter);
    println!("\nplain MPI  (body i on rank i):   {:.3} virtual s", mpi.time);

    let hmpi = run_hmpi(cluster, &cfg, niter, k);
    println!("HMPI       (selected group):     {:.3} virtual s", hmpi.time);
    println!("speedup: {:.2}x", mpi.time / hmpi.time);
    println!(
        "HMPI predicted one iteration at {:.4} s before running anything",
        hmpi.predicted.unwrap()
    );
    println!("\nassignment (sub-body -> world rank):");
    for (body, &world) in hmpi.members.iter().enumerate() {
        println!(
            "  body {body} ({:>4} nodes) -> rank {world} (speed {:>5.0})",
            cfg.nodes_per_body[body],
            Cluster::paper_lan_em3d().node(hetsim::NodeId(world)).base_speed
        );
    }

    // Verify both runs against the serial reference.
    let serial = serial_run(Em3dSystem::generate(&cfg), niter);
    for (run, name) in [(&mpi, "MPI"), (&hmpi, "HMPI")] {
        let mut max_err = 0.0f64;
        for (body, (se, sh)) in serial.iter().enumerate() {
            let (e, h) = &run.fields[body];
            for (a, b) in e.iter().zip(se).chain(h.iter().zip(sh)) {
                max_err = max_err.max((a - b).abs());
            }
        }
        println!("{name} max |error| vs serial reference: {max_err:.3e}");
        assert!(max_err < 1e-9, "{name} diverged from the serial reference");
    }
    println!("\nboth runs reproduce the serial fields exactly — only the time differs.");
}
