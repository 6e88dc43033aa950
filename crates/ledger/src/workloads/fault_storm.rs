//! `fault_storm`: the failure paths. One op is one fault episode, drawn
//! from two kinds in a seed-shuffled order:
//!
//! * a `generate_crashy_collective` simcheck seed through `check` (a
//!   fixed pool, like `fuzz_batch`);
//! * a 16-rank program that wedges — a receive cycle, or waits orphaned by
//!   a crash — and must come back with the typed `Deadlock` /
//!   `NodeFailed` verdict on every rank.
//!
//! `quiesce`, poison propagation, `agree` and the wall-clock backstops do
//! the work here and are idle on every other workload, so a change to
//! wakeups or the watchdog shows here and nowhere else.
//!
//! EM3D `run_hmpi_ft` recoveries — a run on the paper's LAN that loses one
//! node mid-run and must finish on the survivors with the shrunk system's
//! exact result — are checked and timed by the traced run's probes, not
//! in the timed rounds: the host time of a recovery is a coin flip between
//! ~10 ms and ~260 ms (a wake-up lost to the 250 ms backstop, in about
//! four runs of ten, with identical virtual results), and inside the
//! rounds that coin would be the metric. `apps.em3d_ft_slow_share` reports
//! how often it lands.

use super::fuzz_batch::{check_seed, Gen};
use super::{max_abs_diff, ms_since, scaled, Outcome, Side, SplitMix64, Workload};
use crate::span::Spans;
use crate::stats::median;
use hetsim::{
    Cluster, ClusterBuilder, FaultEvent, FaultPlan, Link, NodeId, Protocol, SimTime,
    PAPER_EM3D_SPEEDS,
};
use hmpi_apps::em3d::{self, Em3dConfig, Em3dSystem};
use mpisim::{MpiError, Universe, UniverseConfig};
use std::sync::Arc;
use std::time::Instant;

/// Crashy simcheck seeds at the calibrated run length.
pub const CRASHY_SEEDS: usize = 50;
/// First seed of the crashy pool. A round at the benchmark's run length
/// checks seeds 15..=19: seed 19 spends ~0.7 s asleep in the 250 ms
/// wake-up backstop on every run, which is the signal a wake-up or
/// watchdog change must move. The pool stops short of seeds 3 and 20
/// (2.2 – 2.9 s each, seed 3 in a different multiple of 250 ms from run to
/// run): they would be the whole workload, and an unsteady one.
pub const CRASHY_BASE: u64 = 15;
/// Wedged programs at the calibrated run length (cycles and orphans
/// alternate).
pub const WEDGES: usize = 16000;
/// EM3D recoveries a traced run's probes make.
pub const RECOVERIES: usize = 12;
/// A recovery slower than this slept in the wake-up backstop.
pub const SLOW_RECOVERY_MS: f64 = 200.0;
/// Crashy seeds checked during set-up as warm-up: the head of the pool.
pub const WARMUP_CRASHY: u64 = 3;
/// Ranks of a wedged program.
pub const WEDGE_RANKS: usize = 16;
/// EM3D under faults: sub-bodies, smallest body, ramp, iterations, recon size.
pub const EM3D_FT: (usize, usize, f64, usize, usize) = (9, 60, 4.0, 6, 10);
/// Virtual-time window the injected crash falls in; the run spans roughly
/// 1.2 s – 56 s, so every crash lands mid-kernel.
pub const CRASH_WINDOW_S: (f64, f64) = (3.0, 30.0);

/// One fault episode.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Episode {
    /// A crashy-collective simcheck seed.
    Crashy(u64),
    /// Every rank receives from its right neighbour: a wait cycle.
    Cycle,
    /// The last node crashes at once; everyone else waits on it.
    Orphan,
}

/// The workload.
pub struct FaultStorm {
    episodes: Vec<Episode>,
    /// `(node, virtual time)` of the crash each probed recovery survives.
    recoveries: Vec<(usize, f64)>,
    em3d_cfg: Em3dConfig,
    /// Serial references of the system shrunk to 8 and kept at 9 bodies.
    em3d_refs: [Vec<(Vec<f64>, Vec<f64>)>; 2],
}

fn wedge_cluster(faults: FaultPlan) -> Arc<Cluster> {
    let mut b = ClusterBuilder::new();
    for i in 0..WEDGE_RANKS {
        b = b.node(format!("h{i}"), 100.0);
    }
    Arc::new(
        b.all_to_all(Link::new(1e-3, 1e7, Protocol::Tcp))
            .faults(faults)
            .build(),
    )
}

impl FaultStorm {
    /// Runs a wedging program; returns its virtual makespan and whether
    /// every rank got the expected typed verdict.
    fn wedge(&self, orphan: bool, spans: &Spans, out: &mut Outcome) -> (f64, Result<(), String>) {
        let p = WEDGE_RANKS;
        let dead = p - 1;
        let plan = if orphan {
            FaultPlan::none().with(FaultEvent::NodeCrash {
                node: NodeId(dead),
                at: SimTime::from_secs(1e-6),
            })
        } else {
            FaultPlan::none()
        };
        let universe = Universe::with_config(
            wedge_cluster(plan),
            UniverseConfig::new().tracing(spans.enabled()),
        );
        let report = universe.run(move |proc| {
            let world = proc.world();
            if orphan && world.rank() == dead {
                // Dies discovering its own crash; never sends.
                return proc.try_compute(1.0).err();
            }
            let from = if orphan { dead } else { (world.rank() + 1) % p };
            world.recv::<i64>(from, 7).err()
        });
        if let Some(trace) = &report.trace {
            out.count_trace(trace, p);
        }
        let typed = report.results.iter().enumerate().all(|(r, e)| match e {
            Some(MpiError::NodeFailed { world_rank }) => orphan && *world_rank == dead,
            Some(MpiError::Deadlock { waiting, on, graph }) => {
                !orphan && *waiting == r && on.contains(&((r + 1) % p)) && graph.edges.len() == p
            }
            _ => false,
        });
        let verdict = if typed {
            Ok(())
        } else {
            Err(format!(
                "wedge (orphan={orphan}) surfaced {:?}",
                report.results
            ))
        };
        (report.makespan.as_secs(), verdict)
    }

    fn recovery(&self, node: usize, at: f64) -> (f64, Result<(), String>) {
        let plan = FaultPlan::none().with(FaultEvent::NodeCrash {
            node: NodeId(node),
            at: SimTime::from_secs(at),
        });
        let cluster = Arc::new(Cluster::paper_lan_with_faults(&PAPER_EM3D_SPEEDS, plan));
        let Some(ft) = em3d::run_hmpi_ft(cluster, &self.em3d_cfg, EM3D_FT.3, EM3D_FT.4) else {
            return (
                0.0,
                Err(format!(
                    "recovery from node {node} @ {at}s did not complete"
                )),
            );
        };
        let survivors = ft.final_members.len();
        let verdict = (|| {
            if ft.final_members.contains(&node) || ft.rebuilds == 0 {
                return Err(format!(
                    "node {node} died @ {at}s but the group was not rebuilt"
                ));
            }
            let reference = match EM3D_FT.0 - survivors {
                1 => &self.em3d_refs[0],
                0 => &self.em3d_refs[1],
                _ => return Err(format!("{survivors} survivors after one crash")),
            };
            for (body, ((e, h), (se, sh))) in ft.fields.iter().zip(reference).enumerate() {
                let err = max_abs_diff(e, se).max(max_abs_diff(h, sh));
                if err.is_nan() || err > 1e-9 {
                    return Err(format!("recovered EM3D body {body} off by {err:.3e}"));
                }
            }
            Ok(())
        })();
        (ft.makespan, verdict)
    }

    /// Runs `episode` as op `op_id`; returns its host ms.
    fn one(&self, episode: Episode, op_id: u64, spans: &Spans, out: &mut Outcome) -> f64 {
        if let Episode::Crashy(seed) = episode {
            let (g, c, _) = check_seed(Gen::Crashy, seed, op_id, spans, out);
            return g + c;
        }
        let op = spans.begin_op(op_id);
        let t0 = Instant::now();
        let (virtual_s, verdict) = match episode {
            Episode::Cycle => spans.scope("mpisim.deadlock_detect", op, |_| {
                self.wedge(false, spans, out)
            }),
            Episode::Orphan => {
                spans.scope("mpisim.orphan_detect", op, |_| self.wedge(true, spans, out))
            }
            Episode::Crashy(_) => unreachable!("handled above"),
        };
        let host_ms = ms_since(t0);
        spans.end(op);
        out.op(host_ms, virtual_s, verdict);
        host_ms
    }
}

impl Workload for FaultStorm {
    const NAME: &'static str = "fault_storm";
    const RANKS: usize = 4;
    const WHY: &'static str = "crashy collectives and wedged programs that must end in typed \
        Deadlock/NodeFailed: quiesce, poison, agree and the wall-clock backstops, idle on every \
        other workload";

    fn setup(seed: u64, scale: f64) -> Self {
        let mut rng = SplitMix64(seed ^ 0xFA17_5702);
        let mut episodes: Vec<Episode> = (0..scaled(CRASHY_SEEDS, scale) as u64)
            .map(|i| Episode::Crashy(CRASHY_BASE + i))
            .collect();
        episodes.extend((0..scaled(WEDGES, scale)).map(|i| {
            if i % 2 == 0 {
                Episode::Cycle
            } else {
                Episode::Orphan
            }
        }));
        rng.shuffle(&mut episodes);
        let recoveries = (0..RECOVERIES)
            .map(|_| {
                let unit = rng.next_u64() as f64 / u64::MAX as f64;
                // Never the host's node: losing it is unrecoverable.
                let node = 1 + rng.below(EM3D_FT.0 - 1);
                (
                    node,
                    CRASH_WINDOW_S.0 + unit * (CRASH_WINDOW_S.1 - CRASH_WINDOW_S.0),
                )
            })
            .collect();
        let em3d_cfg = Em3dConfig::ramp(EM3D_FT.0, EM3D_FT.1, EM3D_FT.2, rng.next_u64());
        let reference = |bodies: usize| {
            let mut cfg = em3d_cfg.clone();
            cfg.nodes_per_body.truncate(bodies);
            em3d::serial_run(Em3dSystem::generate(&cfg), EM3D_FT.3)
        };
        let w = FaultStorm {
            episodes,
            recoveries,
            em3d_refs: [reference(EM3D_FT.0 - 1), reference(EM3D_FT.0)],
            em3d_cfg,
        };
        // Warm-up: episodes of each kind off the timed list.
        let mut warm = Outcome::default();
        let off = Spans::new(false);
        let warmup = (0..WARMUP_CRASHY)
            .map(|i| Episode::Crashy(CRASHY_BASE + i))
            .chain([Episode::Cycle, Episode::Orphan]);
        for (i, e) in warmup.enumerate() {
            w.one(e, i as u64, &off, &mut warm);
        }
        assert!(
            warm.failed == 0,
            "fault_storm warm-up failed: {:?}",
            warm.first_failure
        );
        w
    }

    fn run(&self, rounds: usize, spans: &Spans) -> Outcome {
        let mut out = Outcome::default();
        let (mut crashy, mut cycle, mut orphan) = (vec![], vec![], vec![]);
        for _ in 0..rounds {
            out.round(|out| {
                for &episode in &self.episodes {
                    let ms = self.one(episode, out.op_ms.len() as u64, spans, out);
                    match episode {
                        Episode::Crashy(_) => crashy.push(ms),
                        Episode::Cycle => cycle.push(ms),
                        Episode::Orphan => orphan.push(ms),
                    }
                }
            });
        }
        let crashy_s: f64 = crashy.iter().sum::<f64>() / 1e3;
        out.side.insert(
            "simcheck.crashy_seeds_per_s",
            crashy.len() as f64 / crashy_s,
        );
        out.side
            .insert("mpisim.deadlock_detect_ms.p16", median(&cycle));
        out.side
            .insert("mpisim.orphan_detect_ms.p16", median(&orphan));
        out
    }

    fn probes(&self, side: &mut Side) {
        let mut ms = Vec::with_capacity(self.recoveries.len());
        let mut all_ok = true;
        for &(node, at) in &self.recoveries {
            let t0 = Instant::now();
            let (_, verdict) = self.recovery(node, at);
            ms.push(ms_since(t0));
            if let Err(why) = verdict {
                eprintln!("ledger: fault_storm recovery probe failed: {why}");
                all_ok = false;
            }
        }
        let slow = ms.iter().filter(|t| **t > SLOW_RECOVERY_MS).count();
        // A recovery that fails its checks must not pass as a measurement.
        side.insert(
            "apps.em3d_ft_ms",
            if all_ok { median(&ms) } else { f64::NAN },
        );
        side.insert("apps.em3d_ft_slow_share", slow as f64 / ms.len() as f64);
    }
}
