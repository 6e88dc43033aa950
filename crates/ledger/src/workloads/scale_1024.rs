//! `scale_1024`: what a thousand rank threads cost. One op is one
//! `Universe::run` episode at 1024 ranks (4 sites × 256) on 256 KiB
//! stacks: barrier, a pinned binomial broadcast of 8 KiB, a pinned
//! recursive-doubling allreduce of 8 elements, four neighbour `sendrecv`
//! rounds, barrier.
//!
//! Every collective pins its algorithm, so nothing is planned: thread
//! spawn / join, park / wake and stack memory dominate. This is the data
//! the parked event-driven-executor decision is waiting for, and the
//! workload where `peak_rss_mb` matters.

use super::{ms_since, scaled, spawn_join_ms, Outcome, Side, SplitMix64, Workload};
use crate::span::{SpanId, Spans};
use hetsim::{Link, Protocol, TopologyBuilder};
use mpisim::{CollectiveAlgo, Comm, MpiError, ReduceOp, Universe, UniverseConfig};
use std::time::Instant;

/// Episodes at the calibrated run length.
pub const EPISODES: usize = 20;
/// Sites and ranks per site.
pub const SITES: usize = 4;
/// See [`SITES`].
pub const RANKS_PER_SITE: usize = 256;
/// Rank-thread stack size, bytes.
pub const STACK_BYTES: usize = 256 * 1024;
/// Broadcast payload, f64 elements (8 KiB).
pub const BCAST_ELEMS: usize = 1024;
/// Allreduce payload, f64 elements.
pub const ALLREDUCE_ELEMS: usize = 8;
/// Neighbour exchange rounds per episode.
pub const SENDRECV_ROUNDS: usize = 4;

const TAG_RING: i32 = 3;

/// The workload: one universe reused by every episode.
pub struct Scale1024 {
    episodes: usize,
    salt: usize,
    universe: Universe,
    bcast_root: usize,
    bcast_want: Vec<f64>,
    allreduce_want: Vec<f64>,
    /// Host ms of `TopologyBuilder::build` + `Universe::from_topology`.
    build_ms: f64,
}

fn payload(salt: usize, rank: usize, elems: usize) -> Vec<f64> {
    (0..elems)
        .map(|i| ((rank * 31 + i + salt) % 97) as f64 * 0.5 + 1.0)
        .collect()
}

fn build(tracing: bool) -> Universe {
    let mut b = TopologyBuilder::new()
        .intra_switch(Link::new(1e-4, 100e6, Protocol::Tcp))
        .inter_site(Link::new(50e-3, 1e6, Protocol::Tcp));
    for site in 0..SITES {
        b = b.site();
        for i in 0..RANKS_PER_SITE {
            b = b.node(format!("s{site}n{i}"), 100.0);
        }
    }
    Universe::from_topology(
        b.build(),
        UniverseConfig::new()
            .stack_size(STACK_BYTES)
            .tracing(tracing),
    )
}

fn typed(e: MpiError) -> String {
    format!("{e:?}")
}

impl Scale1024 {
    fn rank_program(&self, world: &Comm, spans: &Spans, at: SpanId) -> Result<(), String> {
        let (p, me) = (world.size(), world.rank());
        spans
            .scope("mpisim.barrier", at, |_| world.barrier())
            .map_err(typed)?;

        let mut buf = payload(self.salt, me, BCAST_ELEMS);
        spans
            .scope("mpisim.coll_fixed", at, |_| {
                world.bcast_into_with(CollectiveAlgo::Binomial, &mut buf, self.bcast_root)
            })
            .map_err(typed)?;
        if buf != self.bcast_want {
            return Err(format!("bcast delivered wrong values to rank {me}"));
        }

        let mine = payload(self.salt, me, ALLREDUCE_ELEMS);
        let sum = spans
            .scope("mpisim.coll_fixed", at, |_| {
                world.allreduce_eq_f64_with(CollectiveAlgo::RecursiveDoubling, &mine, ReduceOp::Sum)
            })
            .map_err(typed)?;
        if sum != self.allreduce_want {
            return Err(format!(
                "allreduce differs from the serial fold on rank {me}"
            ));
        }

        let (right, left) = ((me + 1) % p, (me + p - 1) % p);
        for round in 0..SENDRECV_ROUNDS {
            let out = [(me * SENDRECV_ROUNDS + round) as u64, self.salt as u64];
            let (got, _) = spans
                .scope("mpisim.sendrecv", at, |_| {
                    world.sendrecv::<u64, u64>(&out, right, TAG_RING, left, TAG_RING)
                })
                .map_err(typed)?;
            if got != [(left * SENDRECV_ROUNDS + round) as u64, self.salt as u64] {
                return Err(format!("rank {me} got {got:?} from its left neighbour"));
            }
        }
        spans
            .scope("mpisim.barrier", at, |_| world.barrier())
            .map_err(typed)
    }

    fn episode(&self, universe: &Universe, op_id: u64, spans: &Spans, out: &mut Outcome) {
        let op = spans.begin_op(op_id);
        let t0 = Instant::now();
        let run_span = spans.begin("mpisim.universe_run", op);
        let report = universe.run(|proc| {
            let world = proc.world();
            let at = if world.rank() == 0 {
                run_span
            } else {
                SpanId::OFF
            };
            self.rank_program(&world, spans, at)
        });
        spans.end(run_span);
        let host_ms = ms_since(t0);
        spans.end(op);
        if let Some(trace) = &report.trace {
            out.count_trace(trace, universe.size());
        }
        let mut verdict = report.results.into_iter().collect::<Result<(), String>>();
        if report.pool.outstanding != 0 {
            verdict = Err(format!("{} pool lease(s) leaked", report.pool.outstanding));
        }
        out.op(host_ms, report.makespan.as_secs(), verdict);
    }
}

impl Workload for Scale1024 {
    const NAME: &'static str = "scale_1024";
    const RANKS: usize = SITES * RANKS_PER_SITE;
    const WHY: &'static str = "1024 rank threads on 256 KiB stacks with pinned collectives: no \
        planning, so spawn/join, park/wake and stack memory dominate; where peak_rss_mb matters";

    fn setup(seed: u64, scale: f64) -> Self {
        let t0 = Instant::now();
        let universe = build(false);
        let build_ms = ms_since(t0);
        let mut rng = SplitMix64(seed ^ 0x5CA1_E400);
        let salt = rng.below(97);
        let p = universe.size();
        let bcast_root = rng.below(p);
        // Half-integer payloads: the sum is exact in any order, so the
        // recursive-doubling result must equal this ascending-rank fold.
        let mut allreduce_want = vec![0.0f64; ALLREDUCE_ELEMS];
        for rank in 0..p {
            for (acc, x) in allreduce_want
                .iter_mut()
                .zip(payload(salt, rank, ALLREDUCE_ELEMS))
            {
                *acc += x;
            }
        }
        let w = Scale1024 {
            episodes: scaled(EPISODES, scale),
            salt,
            universe,
            bcast_root,
            bcast_want: payload(salt, bcast_root, BCAST_ELEMS),
            allreduce_want,
            build_ms,
        };
        let mut warm = Outcome::default();
        w.episode(&w.universe, 0, &Spans::new(false), &mut warm);
        assert!(
            warm.failed == 0,
            "scale_1024 warm-up failed: {:?}",
            warm.first_failure
        );
        w
    }

    fn run(&self, rounds: usize, spans: &Spans) -> Outcome {
        let mut out = Outcome::default();
        // Tracing is fixed when a universe is built: a traced run needs its own.
        let traced = spans.enabled().then(|| build(true));
        let universe = traced.as_ref().unwrap_or(&self.universe);
        for _ in 0..rounds {
            out.round(|out| {
                for _ in 0..self.episodes {
                    self.episode(universe, out.op_ms.len() as u64, spans, out);
                }
            });
        }
        out.side
            .insert("hetsim.topology_build_ms.p1024", self.build_ms);
        if spans.enabled() {
            let median = |name| crate::stats::median(&spans.durations_ms(name));
            out.side
                .insert("mpisim.coll_fixed_ms.p1024", median("mpisim.coll_fixed"));
            out.side
                .insert("mpisim.barrier_ms.p1024", median("mpisim.barrier"));
            out.side
                .insert("mpisim.sendrecv_ms.p1024", median("mpisim.sendrecv"));
        }
        out
    }

    fn probes(&self, side: &mut Side) {
        side.insert(
            "mpisim.spawn_join_ms.p1024",
            spawn_join_ms(&self.universe, 2),
        );
    }
}
