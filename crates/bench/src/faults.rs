//! Degradation curve: fault-tolerant EM3D under injected fail-stop faults,
//! the `faults` table of the `ablation` bench.
//!
//! Beyond the paper's evaluation: we sweep the per-node crash probability,
//! inject seeded random fail-stop faults into the paper's 9-workstation
//! LAN, and run the fault-tolerant EM3D driver
//! ([`hmpi_apps::em3d::run_hmpi_ft`]). Each crash that hits a selected
//! process forces a `rebuild_group` shrink and a restart of the (smaller)
//! problem, so the curve shows how virtual execution time and the surviving
//! group size degrade as the network gets less reliable.
//!
//! Node 0 — the host, i.e. "the user's workstation" in HMPI terms — is
//! exempt from injection: losing the host is unrecoverable by design
//! (exactly like losing rank 0 of `MPI_COMM_WORLD`), so including it would
//! only dilute every point with runs that cannot complete. All other eight
//! machines crash independently with the given probability somewhere in the
//! injection window.

use crate::report::{Report, Value};
use hetsim::{Cluster, FaultPlan, NodeId, SimTime, PAPER_EM3D_SPEEDS};
use hmpi_apps::em3d::{run_hmpi_ft, Em3dConfig};
use std::sync::Arc;

/// Per-node crash probabilities within the window.
const RATES: [f64; 5] = [0.0, 0.1, 0.2, 0.3, 0.5];

/// Trials (seeds) per rate.
const TRIALS: usize = 8;

/// Sub-body count — the paper's 9-machine experiment.
const P: usize = 9;

/// Base nodes of the smallest sub-body (Figure 9's mid-size problem), and
/// the size spread of the irregular decomposition (as Figure 9).
const BASE: usize = 100;
const SPREAD: f64 = 1.6;

/// Iterations per run.
const NITER: usize = 5;

/// Recon benchmark size (the model's `k`).
const K: usize = 10;

/// Crashes are injected uniformly in `[0, HORIZON_SECS)` of virtual time —
/// sized to span recon, selection and most of the main loop.
const HORIZON_SECS: f64 = 40.0;

/// One rate's worth of seeded trials.
#[derive(Debug, PartialEq)]
struct FaultPoint {
    rate: f64,
    /// Trials that completed (a feasible group survived to the end).
    completed: usize,
    /// Mean virtual makespan of the completed trials, seconds — this pays
    /// for aborted attempts and recovery, not just the final run.
    mean_makespan: f64,
    /// Mean size of the group that finished the computation.
    mean_survivors: f64,
    /// Mean number of `rebuild_group` shrinks per completed trial.
    mean_rebuilds: f64,
}

/// Runs `trials` seeded trials at one crash rate.
fn point(rate: f64, trials: usize) -> FaultPoint {
    let cfg = Em3dConfig::ramp(P, BASE, SPREAD, 0xFA17);
    let mut completed = 0usize;
    let (mut makespan, mut survivors, mut rebuilds) = (0.0f64, 0.0f64, 0.0f64);
    for seed in 0..trials as u64 {
        let plan = FaultPlan::random_crashes(
            seed,
            (1..P).map(NodeId),
            rate,
            SimTime::from_secs(HORIZON_SECS),
        );
        let cluster = Arc::new(Cluster::paper_lan_with_faults(&PAPER_EM3D_SPEEDS, plan));
        if let Some(run) = run_hmpi_ft(cluster, &cfg, NITER, K) {
            completed += 1;
            makespan += run.makespan;
            survivors += run.final_members.len() as f64;
            rebuilds += run.rebuilds as f64;
        }
    }
    let n = completed.max(1) as f64;
    FaultPoint {
        rate,
        completed,
        mean_makespan: makespan / n,
        mean_survivors: survivors / n,
        mean_rebuilds: rebuilds / n,
    }
}

/// Adds the `faults` table and its gates: the fault-free rate completes
/// every trial whole, and every crashy rate shrinks the group, rebuilds and
/// pays for it in makespan.
pub(crate) fn curve(r: &mut Report) {
    let points: Vec<FaultPoint> = RATES.iter().map(|&rate| point(rate, TRIALS)).collect();
    let (base, crashy) = points.split_first().expect("rate 0 comes first");
    let whole = base.completed == TRIALS && base.mean_survivors == P as f64;
    let claim =
        format!("faults: rate 0 completes {TRIALS}/{TRIALS} with {P} survivors, 0 rebuilds");
    r.gate(whole && base.mean_rebuilds == 0.0, claim);
    let hurt = crashy.iter().all(|p| {
        p.mean_survivors < P as f64 && p.mean_rebuilds > 0.0 && p.mean_makespan > base.mean_makespan
    });
    let claim = "faults: every rate > 0 has fewer survivors, some rebuilds and a longer makespan";
    r.gate(hurt, claim);
    let rows = (points.iter())
        .map(|p| {
            vec![
                ("rate", Value::Fixed(p.rate, 2)),
                ("trials", TRIALS.into()),
                ("completed", p.completed.into()),
                ("mean_makespan_s", Value::Fixed(p.mean_makespan, 4)),
                ("mean_survivors", Value::Fixed(p.mean_survivors, 2)),
                ("mean_rebuilds", Value::Fixed(p.mean_rebuilds, 2)),
            ]
        })
        .collect();
    r.tables.push(("faults", rows));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_free_baseline_always_completes_with_nine_survivors() {
        let p = point(0.0, 2);
        assert_eq!(p.completed, 2);
        assert!((p.mean_survivors - 9.0).abs() < 1e-9);
        assert_eq!(p.mean_rebuilds, 0.0);
        assert!(p.mean_makespan > 0.0);
    }

    #[test]
    fn crashes_shrink_the_group_and_stretch_the_makespan() {
        let base = point(0.0, 2);
        // Certain death for every non-host node's independent coin flip:
        // each completed run must have lost someone and paid for recovery.
        let hurt = point(0.9, 3);
        assert!(hurt.completed >= 1, "some seeds must still complete");
        assert!(
            hurt.mean_survivors < 9.0,
            "survivor count must drop, got {}",
            hurt.mean_survivors
        );
        assert!(hurt.mean_rebuilds >= 1.0);
        assert!(
            hurt.mean_makespan > base.mean_makespan,
            "recovery is not free: {} vs baseline {}",
            hurt.mean_makespan,
            base.mean_makespan
        );
    }

    #[test]
    fn the_fault_free_point_is_exactly_reproducible() {
        assert_eq!(point(0.0, 2), point(0.0, 2));
    }
}
