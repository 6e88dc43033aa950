//! Ablation studies for the design choices DESIGN.md calls out, as one bench
//! (`figures -- ablation`, `BENCH_ablation.json`) with four tables:
//!
//! * `selection` — the selection search: exhaustive vs greedy vs
//!   greedy+local-search vs annealing on the paper LAN with the EM3D model;
//! * `contention` — how the network contention model changes MM (the
//!   paper's switch enables parallel pairwise communication; a shared bus or
//!   serialised NICs would not);
//! * `recon` — what stale speed estimates cost: group selection with fresh
//!   recon vs estimates measured before an external load appeared;
//! * `faults` — the degradation curve of fault-tolerant EM3D under injected
//!   crashes (`faults.rs`).
//!
//! Every number is virtual time, so the file has one size and is its own
//! baseline.

use crate::faults;
use crate::report::{Report, Value};
use hetsim::{
    Cluster, ContentionModel, LoadModel, Processor, SimTime, TopologyBuilder, PAPER_EM3D_SPEEDS,
};
use hmpi::MappingAlgorithm::{Annealing, Exhaustive, GreedyRefined};
use hmpi_apps::em3d::{run_hmpi, run_hmpi_with, run_mpi, Em3dConfig};
use hmpi_apps::matmul;
use std::sync::Arc;

/// EM3D iterations per selection and recon run. The Figure 4 model covers
/// one.
const NITER: usize = 3;

/// Recon benchmark size (the EM3D model's `k`).
const K: usize = 10;

/// Runs EM3D (smallest body `base` nodes) under each selection algorithm:
/// `(algo, measured s, predicted s)`, both for the whole run.
fn mapping_algorithms(base: usize) -> [(&'static str, f64, f64); 4] {
    let cfg = Em3dConfig::ramp(9, base, 4.0, 0xAB1A);
    let cluster = Arc::new(Cluster::paper_lan_em3d());
    let annealing = Annealing {
        seed: 42,
        iters: 400,
    };
    let algos = [
        ("greedy", GreedyRefined { max_rounds: 0 }),
        ("greedy+ls", GreedyRefined { max_rounds: 64 }),
        ("exhaustive", Exhaustive),
        ("annealing", annealing),
    ];
    algos.map(|(name, algo)| {
        let run = run_hmpi_with(cluster.clone(), &cfg, NITER, K, algo);
        let predicted = run.predicted.expect("HMPI runs predict") * NITER as f64;
        (name, run.time, predicted)
    })
}

/// The `selection` table: every arm's measured time against its own
/// prediction.
fn selection(r: &mut Report) {
    let runs = mapping_algorithms(150)
        .map(|(name, time, predicted)| (name, time, predicted, (predicted - time) / time * 100.0));
    let exhaustive = runs
        .iter()
        .find(|run| run.0 == "exhaustive")
        .expect("an arm")
        .2;
    let beaten = runs.iter().any(|run| run.2 < exhaustive - 1e-9);
    r.gate(!beaten, "selection: no arm predicts better than exhaustive");
    let worst = runs
        .iter()
        .fold(0.0, |worst, run| f64::max(worst, run.3.abs()));
    let claim = format!("selection: every arm's |prediction error| {worst:.3}% < 0.1%");
    r.gate(worst < 0.1, claim);
    let rows = runs.map(|(name, measured, predicted, err)| {
        vec![
            ("algo", name.into()),
            ("measured_s", Value::Fixed(measured, 4)),
            ("predicted_s", Value::Fixed(predicted, 4)),
            ("error_pct", Value::Fixed(err, 3)),
        ]
    });
    r.tables.push(("selection", rows.to_vec()));
}

/// Runs MM (n blocks, r = 8, l = 9) under each network contention model:
/// `(model, HMPI s)`.
fn contention_models(n: usize) -> [(&'static str, f64); 3] {
    let lan = |c| {
        let b = TopologyBuilder::paper_lan(&PAPER_EM3D_SPEEDS).contention(c);
        Arc::new(b.build().into_parts().0)
    };
    let hmpi_s = |c| matmul::run_hmpi(lan(c), 3, n, 8, Some(9)).time;
    [
        ("parallel-links", ContentionModel::ParallelLinks),
        ("serialized-nic", ContentionModel::SerializedNic),
        ("shared-bus", ContentionModel::SharedBus),
    ]
    .map(|(name, c)| (name, hmpi_s(c)))
}

/// The `contention` table at n = 9 blocks.
fn contention(r: &mut Report) {
    let times = contention_models(9);
    let parallel = times[0].1;
    let claim = format!("contention: parallel-links ({parallel:.4} s) <= both contended rows");
    r.gate(times.iter().all(|&(_, t)| parallel <= t), claim);
    let rows = times.map(|(name, t)| vec![("model", name.into()), ("hmpi_s", Value::Fixed(t, 4))]);
    r.tables.push(("contention", rows.to_vec()));
}

/// A cluster whose fastest machine loses 90 % of its speed from t = 0 — so
/// base-speed estimates (what a runtime that never recons believes) are
/// badly wrong.
fn loaded_cluster() -> Arc<Cluster> {
    let mut b = TopologyBuilder::new();
    b = b.node("host", 46.0);
    for i in 1..6 {
        b = b.node(format!("ws{i:02}"), 46.0);
    }
    b = b.processor(Processor::new("ws176", 176.0).with_load(LoadModel::Step {
        start: SimTime::ZERO,
        end: SimTime::from_secs(1e12),
        fraction: 0.9,
    }));
    b = b.node("ws106", 106.0).node("ws9", 9.0);
    Arc::new(b.build().into_parts().0)
}

/// Runs EM3D (smallest body `base` nodes) on the loaded cluster with a
/// recon-refreshed selection and with stale estimates: `(fresh s, stale s)`.
fn recon_staleness(base: usize) -> (f64, f64) {
    let cfg = Em3dConfig::ramp(9, base, 4.0, 0x57A1E);
    let fresh = run_hmpi(loaded_cluster(), &cfg, NITER, K);

    // The stale run executes the mapping HMPI selects on the unloaded LAN
    // on the loaded cluster, as an MPI run with each body on its rank.
    let believed = run_hmpi(Arc::new(Cluster::paper_lan_em3d()), &cfg, NITER, K);
    let mut nodes = vec![0usize; 9];
    for (body, &world) in believed.members.iter().enumerate() {
        nodes[world] = cfg.nodes_per_body[body];
    }
    let permuted = Em3dConfig {
        nodes_per_body: nodes,
        ..cfg.clone()
    };
    (fresh.time, run_mpi(loaded_cluster(), &permuted, NITER).time)
}

/// The `recon` table.
fn recon(r: &mut Report) {
    let (fresh, stale) = recon_staleness(120);
    let claim = format!("recon: fresh ({fresh:.4} s) < stale estimates ({stale:.4} s)");
    r.gate(fresh < stale, claim);
    let row = |s: &str, t| vec![("scenario", s.into()), ("time_s", Value::Fixed(t, 4))];
    let rows = vec![row("fresh-recon", fresh), row("stale-estimates", stale)];
    r.tables.push(("recon", rows));
}

/// The `ablation` bench.
pub fn run() -> Report {
    let mut r = Report::new(
        "ablation",
        "Ablations: selection algorithm (EM3D), contention model (MM), \
         recon freshness (EM3D, loaded cluster), fault-injection degradation (FT EM3D)",
    );
    selection(&mut r);
    contention(&mut r);
    recon(&mut r);
    faults::curve(&mut r);
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exhaustive_is_never_worse_predicted() {
        let arms = mapping_algorithms(60);
        let predicted = |n: &str| arms.iter().find(|a| a.0 == n).unwrap().2;
        let ex = predicted("exhaustive");
        for name in ["greedy", "greedy+ls", "annealing"] {
            assert!(
                ex <= predicted(name) + 1e-9,
                "exhaustive predicted {ex} vs {name} {}",
                predicted(name)
            );
        }
    }

    #[test]
    fn contention_slows_things_down() {
        let times = contention_models(9);
        let t = |n: &str| times.iter().find(|m| m.0 == n).unwrap().1;
        assert!(t("parallel-links") <= t("serialized-nic") + 1e-9);
        assert!(t("parallel-links") <= t("shared-bus") + 1e-9);
    }

    #[test]
    fn fresh_recon_beats_stale_estimates() {
        let (fresh, stale) = recon_staleness(80);
        assert!(fresh < stale, "fresh {fresh} vs stale {stale}");
    }
}
