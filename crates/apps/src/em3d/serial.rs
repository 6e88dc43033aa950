//! Serial EM3D reference.
//!
//! Operates on the whole [`Em3dSystem`] at once (ghost machinery resolved
//! directly against the owning body), providing both the ground truth the
//! parallel implementation is checked against and the `HMPI_Recon` benchmark
//! body (`Serial_em3d` in the paper's Figure 5).

use crate::em3d::body::{Em3dSystem, NodeRef};

/// Resolves a dependency reference of body `me` against the global system
/// state: an H value when `want_h`, an E value otherwise.
fn resolve(system: &Em3dSystem, me: usize, r: NodeRef, want_h: bool) -> f64 {
    let field = |b: usize| {
        let body = &system.bodies[b];
        if want_h {
            (&body.h_values, &body.h_exports)
        } else {
            (&body.e_values, &body.e_exports)
        }
    };
    match r {
        NodeRef::Local(idx) => field(me).0[idx],
        // The ghost slot indexes the owner's export list towards `me`.
        NodeRef::Remote { body, slot } => {
            let (values, exports) = field(body);
            values[exports[me][slot]]
        }
    }
}

/// One full iteration: update every E node from H values, then every H node
/// from the *new* E values — the paper's algorithm order (gather H, compute
/// E, gather E, compute H).
pub fn serial_step(system: &mut Em3dSystem) {
    // The E phase reads H values, then the H phase reads the updated E.
    for want_h in [true, false] {
        for me in 0..system.p() {
            let value = |r| resolve(system, me, r, want_h);
            let body = &system.bodies[me];
            let deps = if want_h { &body.e_deps } else { &body.h_deps };
            let new: Vec<f64> = deps
                .iter()
                .map(|row| row.iter().map(|&(r, w)| w * value(r)).sum())
                .collect();
            let body = &mut system.bodies[me];
            if want_h {
                body.e_values = new;
            } else {
                body.h_values = new;
            }
        }
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
