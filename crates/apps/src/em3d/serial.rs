//! Serial EM3D reference.
//!
//! Operates on the whole [`Em3dSystem`] at once (ghost machinery resolved
//! directly against the owning body), providing both the ground truth the
//! parallel implementation is checked against and the `HMPI_Recon` benchmark
//! body (`Serial_em3d` in the paper's Figure 5).

use crate::em3d::body::{Em3dSystem, NodeRef};

/// Resolves a dependency reference against the global system state.
fn resolve(system: &Em3dSystem, me: usize, r: NodeRef, want_h: bool, exports_of_me: bool) -> f64 {
    let _ = exports_of_me;
    match r {
        NodeRef::Local(idx) => {
            if want_h {
                system.bodies[me].h_values[idx]
            } else {
                system.bodies[me].e_values[idx]
            }
        }
        NodeRef::Remote { body, slot } => {
            // The ghost slot indexes the owner's export list towards `me`.
            if want_h {
                let idx = system.bodies[body].h_exports[me][slot];
                system.bodies[body].h_values[idx]
            } else {
                let idx = system.bodies[body].e_exports[me][slot];
                system.bodies[body].e_values[idx]
            }
        }
    }
}

/// One full iteration: update every E node from H values, then every H node
/// from the *new* E values — the paper's algorithm order (gather H, compute
/// E, gather E, compute H).
pub fn serial_step(system: &mut Em3dSystem) {
    let p = system.p();
    // E phase.
    for me in 0..p {
        let new_e: Vec<f64> = system.bodies[me]
            .e_deps
            .iter()
            .map(|row| {
                row.iter()
                    .map(|&(r, w)| w * resolve(system, me, r, true, false))
                    .sum()
            })
            .collect();
        system.bodies[me].e_values = new_e;
    }
    // H phase (uses updated E values).
    for me in 0..p {
        let new_h: Vec<f64> = system.bodies[me]
            .h_deps
            .iter()
            .map(|row| {
                row.iter()
                    .map(|&(r, w)| w * resolve(system, me, r, false, false))
                    .sum()
            })
            .collect();
        system.bodies[me].h_values = new_h;
    }
}

/// Runs `niter` iterations and returns the final field values per body as
/// `(e_values, h_values)` pairs.
pub fn serial_run(mut system: Em3dSystem, niter: usize) -> Vec<(Vec<f64>, Vec<f64>)> {
    for _ in 0..niter {
        serial_step(&mut system);
    }
    system
        .bodies
        .into_iter()
        .map(|b| (b.e_values, b.h_values))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::em3d::body::Em3dConfig;

    #[test]
    fn step_is_deterministic() {
        let cfg = Em3dConfig::ramp(3, 30, 2.0, 5);
        let a = serial_run(Em3dSystem::generate(&cfg), 4);
        let b = serial_run(Em3dSystem::generate(&cfg), 4);
        assert_eq!(a, b);
    }

    #[test]
    fn fields_change_each_step() {
        let cfg = Em3dConfig::ramp(2, 30, 1.5, 5);
        let mut s = Em3dSystem::generate(&cfg);
        let before = s.bodies[0].e_values.clone();
        serial_step(&mut s);
        assert_ne!(s.bodies[0].e_values, before);
    }

    #[test]
    fn values_stay_finite_over_many_steps() {
        let cfg = Em3dConfig::ramp(3, 24, 2.0, 11);
        let out = serial_run(Em3dSystem::generate(&cfg), 20);
        for (e, h) in out {
            assert!(e.iter().all(|v| v.is_finite()));
            assert!(h.iter().all(|v| v.is_finite()));
        }
    }

    #[test]
    fn h_phase_sees_new_e_values() {
        // With a single body, H updates must read the E values computed in
        // the same step; verify by comparing against a manual computation.
        let cfg = Em3dConfig::ramp(1, 10, 1.0, 2);
        let mut s = Em3dSystem::generate(&cfg);
        let e0 = s.bodies[0].e_values.clone();
        let h0 = s.bodies[0].h_values.clone();
        let e_deps = s.bodies[0].e_deps.clone();
        let h_deps = s.bodies[0].h_deps.clone();
        serial_step(&mut s);
        // Manual E update.
        let e1: Vec<f64> = e_deps
            .iter()
            .map(|row| {
                row.iter()
                    .map(|&(r, w)| match r {
                        NodeRef::Local(i) => w * h0[i],
                        NodeRef::Remote { .. } => unreachable!("single body"),
                    })
                    .sum()
            })
            .collect();
        let h1: Vec<f64> = h_deps
            .iter()
            .map(|row| {
                row.iter()
                    .map(|&(r, w)| match r {
                        NodeRef::Local(i) => w * e1[i],
                        NodeRef::Remote { .. } => unreachable!("single body"),
                    })
                    .sum()
            })
            .collect();
        let _ = e0;
        assert_eq!(s.bodies[0].e_values, e1);
        assert_eq!(s.bodies[0].h_values, h1);
    }

    #[test]
    fn bench_units_scale_with_k() {
        // The Figure 5 recon benchmark performs `k` node updates and records
        // speeds in benchmarks per second, the unit of the model's `d/k`
        // volumes: doubling `k` halves every recorded speed.
        use hetsim::Cluster;
        use hmpi::{HmpiRuntime, Recon};
        use std::sync::Arc;
        let speeds = |k: f64| {
            let rt = HmpiRuntime::new(Arc::new(Cluster::paper_lan_em3d()));
            rt.run(|h| h.recon_opts(Recon::new(1.0).work_units(k)).unwrap());
            (0..9).map(|n| rt.estimates().speed(hetsim::NodeId(n))).collect::<Vec<_>>()
        };
        for (s50, s100) in speeds(50.0).into_iter().zip(speeds(100.0)) {
            assert!((s50 / s100 - 2.0).abs() < 1e-12, "{s50} vs {s100}");
        }
    }
}
