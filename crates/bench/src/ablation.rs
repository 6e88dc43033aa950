//! Ablation studies for the design choices DESIGN.md calls out.
//!
//! * [`mapping_algorithms`] — quality/robustness of the selection search:
//!   exhaustive vs greedy vs greedy+local-search vs annealing on the paper
//!   LAN with the EM3D model;
//! * [`contention_models`] — how the network contention model changes the
//!   figures (the paper's switch enables parallel pairwise communication;
//!   a shared bus or serialised NICs would not);
//! * [`recon_staleness`] — what stale speed estimates cost: group selection
//!   with fresh recon vs estimates measured before an external load
//!   appeared.

use crate::paper_lan_with;
use hetsim::{Cluster, ClusterBuilder, ContentionModel, Link, LoadModel, Processor, Protocol,
             SimTime};
use hmpi::MappingAlgorithm;
use hmpi_apps::em3d::{run_hmpi_with, Em3dConfig};
use hmpi_apps::matmul;
use std::sync::Arc;

/// One row of the mapping-algorithm ablation.
#[derive(Debug, Clone)]
pub struct AlgoPoint {
    /// Algorithm label.
    pub algo: &'static str,
    /// Measured EM3D execution time under the produced mapping.
    pub time: f64,
    /// The runtime's own prediction for its selection.
    pub predicted: f64,
}

/// Runs the EM3D experiment under each selection algorithm.
pub fn mapping_algorithms(base: usize) -> Vec<AlgoPoint> {
    let cfg = Em3dConfig::ramp(9, base, 4.0, 0xAB1A);
    let cluster = Arc::new(Cluster::paper_lan_em3d());
    let algos: [(&'static str, MappingAlgorithm); 4] = [
        ("greedy", MappingAlgorithm::Greedy),
        ("greedy+ls", MappingAlgorithm::GreedyRefined { max_rounds: 64 }),
        ("exhaustive", MappingAlgorithm::Exhaustive),
        (
            "annealing",
            MappingAlgorithm::Annealing {
                seed: 42,
                iters: 400,
            },
        ),
    ];
    algos
        .into_iter()
        .map(|(name, algo)| {
            let run = run_hmpi_with(cluster.clone(), &cfg, 3, 10, algo);
            AlgoPoint {
                algo: name,
                time: run.time,
                predicted: run.predicted.unwrap_or(f64::NAN),
            }
        })
        .collect()
}

/// One row of the contention ablation.
#[derive(Debug, Clone)]
pub struct ContentionPoint {
    /// Contention model label.
    pub model: &'static str,
    /// MM execution time (HMPI, fixed l), virtual seconds.
    pub hmpi: f64,
}

/// Runs the MM experiment under each network contention model.
pub fn contention_models(n: usize) -> Vec<ContentionPoint> {
    [
        ("parallel-links", ContentionModel::ParallelLinks),
        ("serialized-nic", ContentionModel::SerializedNic),
        ("shared-bus", ContentionModel::SharedBus),
    ]
    .into_iter()
    .map(|(name, c)| {
        let run = matmul::run_hmpi(paper_lan_with(c), 3, n, 8, Some(9));
        ContentionPoint {
            model: name,
            hmpi: run.time,
        }
    })
    .collect()
}

/// One row of the recon-staleness ablation.
#[derive(Debug, Clone)]
pub struct StalenessPoint {
    /// Scenario label.
    pub scenario: &'static str,
    /// EM3D execution time, virtual seconds.
    pub time: f64,
}

/// A cluster whose fastest machine loses 90 % of its speed from t = 0 — so
/// base-speed estimates (what a runtime that never recons believes) are
/// badly wrong.
fn loaded_cluster() -> Arc<Cluster> {
    let mut b = ClusterBuilder::new();
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
    Arc::new(b.all_to_all(Link::with_defaults(Protocol::Tcp)).build())
}

/// Compares a recon-refreshed selection against a stale-estimate one on the
/// loaded cluster. The stale run is emulated by an HMPI run whose recon
/// benchmark is zero-cost (so estimates stay at base speeds — exactly what
/// skipping `HMPI_Recon` would leave behind).
pub fn recon_staleness(base: usize) -> Vec<StalenessPoint> {
    let cfg = Em3dConfig::ramp(9, base, 4.0, 0x57A1E);

    // Fresh: the normal driver recons before selecting.
    let fresh = run_hmpi_with(
        loaded_cluster(),
        &cfg,
        3,
        10,
        MappingAlgorithm::default(),
    );

    // Stale: select with base-speed estimates by running the plain-MPI
    // style assignment on the loaded cluster... but that changes two things
    // at once. Instead, reuse the HMPI driver on a cluster whose *true*
    // speeds equal the stale beliefs for selection purposes is impossible —
    // so emulate directly: run with an estimates snapshot taken before the
    // load (base speeds) by using the mapping the unloaded LAN would get.
    let stale = {
        // Selection under the unloaded LAN's beliefs:
        let believed = run_hmpi_with(
            Arc::new(Cluster::paper_lan_em3d()),
            &cfg,
            3,
            10,
            MappingAlgorithm::default(),
        );
        // Execute that member->body assignment on the loaded cluster by
        // replaying through the MPI driver with a permuted config: body i
        // on world rank members[i]. The MPI driver assigns body b to rank
        // b, so permute the body sizes accordingly.
        let mut nodes = vec![0usize; 9];
        for (body, &world) in believed.members.iter().enumerate() {
            nodes[world] = cfg.nodes_per_body[body];
        }
        let permuted = Em3dConfig {
            nodes_per_body: nodes,
            ..cfg.clone()
        };
        hmpi_apps::em3d::run_mpi(loaded_cluster(), &permuted, 3)
    };

    vec![
        StalenessPoint {
            scenario: "fresh-recon",
            time: fresh.time,
        },
        StalenessPoint {
            scenario: "stale-estimates",
            time: stale.time,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exhaustive_is_never_worse_predicted() {
        let pts = mapping_algorithms(60);
        let by_name = |n: &str| pts.iter().find(|p| p.algo == n).unwrap();
        let ex = by_name("exhaustive");
        for name in ["greedy", "greedy+ls", "annealing"] {
            assert!(
                ex.predicted <= by_name(name).predicted + 1e-9,
                "exhaustive predicted {} vs {name} {}",
                ex.predicted,
                by_name(name).predicted
            );
        }
    }

    #[test]
    fn contention_slows_things_down() {
        // Contended timing depends on real thread arrival order, so the two
        // contended models are not strictly ordered run-to-run; only the
        // uncontended switch is deterministic and must be the fastest.
        let pts = contention_models(9);
        let t = |n: &str| pts.iter().find(|p| p.model == n).unwrap().hmpi;
        assert!(t("parallel-links") <= t("serialized-nic") + 1e-9);
        assert!(t("parallel-links") <= t("shared-bus") + 1e-9);
    }

    #[test]
    fn fresh_recon_beats_stale_estimates() {
        let pts = recon_staleness(80);
        let t = |n: &str| pts.iter().find(|p| p.scenario == n).unwrap().time;
        assert!(
            t("fresh-recon") < t("stale-estimates"),
            "fresh {} vs stale {}",
            t("fresh-recon"),
            t("stale-estimates")
        );
    }
}
