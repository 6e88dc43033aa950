//! Whole-stack end-to-end test: the paper's two applications on its LANs,
//! asserting the paper's headline claims hold.

use hetsim::Cluster;
use hmpi_apps::em3d::{self, Em3dConfig};
use hmpi_apps::matmul;
use std::sync::Arc;

#[test]
fn paper_headline_em3d_speedup() {
    // Paper Section 5 / Figure 9: "the HMPI application is almost 1.5 times
    // faster than the standard MPI one" on the 9-workstation LAN.
    let cfg = Em3dConfig::ramp(9, 100, 1.6, 0xE3D);
    let mpi = em3d::run_mpi(Arc::new(Cluster::paper_lan_em3d()), &cfg, 3);
    let hmpi = em3d::run_hmpi(Arc::new(Cluster::paper_lan_em3d()), &cfg, 3, 10);
    let speedup = mpi.time / hmpi.time;
    assert!(
        (1.2..2.2).contains(&speedup),
        "EM3D speedup {speedup:.2} outside the paper-like band"
    );
}

#[test]
fn paper_headline_matmul_speedup() {
    // Paper Section 5 / Figure 11: "the HMPI application is almost 3 times
    // faster than the standard MPI one".
    let cluster = Arc::new(Cluster::paper_lan_matmul());
    let mpi = matmul::run_mpi(cluster.clone(), 3, 9, 8, Some(3));
    let hmpi = matmul::run_hmpi(cluster, 3, 9, 8, Some(9));
    let speedup = mpi.time / hmpi.time;
    assert!(
        (2.0..4.5).contains(&speedup),
        "MM speedup {speedup:.2} outside the paper-like band"
    );
}

#[test]
fn paper_optimal_block_size_is_interior() {
    // Paper: "All results are obtained for r = l = 9, which have appeared
    // optimal" — the Timeof sweep must find an interior optimum, not the
    // smallest or an absurd block size.
    let hmpi = matmul::run_hmpi(Arc::new(Cluster::paper_lan_matmul()), 3, 18, 8, None);
    assert!(
        (6..=18).contains(&hmpi.l),
        "Timeof chose l = {} — not an interior optimum",
        hmpi.l
    );
}

#[test]
fn both_applications_compute_correct_results() {
    // Functional correctness end-to-end (results, not just times).
    let cfg = Em3dConfig::ramp(5, 40, 2.0, 7);
    let serial = em3d::serial_run(em3d::Em3dSystem::generate(&cfg), 3);
    let hmpi = em3d::run_hmpi(Arc::new(Cluster::paper_lan_em3d()), &cfg, 3, 10);
    for (body, (se, _)) in serial.iter().enumerate() {
        for (a, b) in hmpi.fields[body].0.iter().zip(se) {
            assert!((a - b).abs() < 1e-10);
        }
    }

    let run = matmul::run_hmpi(Arc::new(Cluster::paper_lan_matmul()), 3, 9, 3, Some(9));
    let want = matmul::block::serial_matmul(
        &matmul::block::BlockMatrix::deterministic(9, 3, matmul::driver::SEED_A),
        &matmul::block::BlockMatrix::deterministic(9, 3, matmul::driver::SEED_B),
    );
    let got = run.c.unwrap();
    for (x, y) in got.data().iter().zip(want.data()) {
        assert!((x - y).abs() < 1e-9);
    }
}
