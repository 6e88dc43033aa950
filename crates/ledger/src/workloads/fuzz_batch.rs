//! `fuzz_batch`: the simcheck mix CI pays for. One op is one seed —
//! `simcheck::check(&generate(seed))` for a block of mixed seeds, then
//! `generate_hierarchical` for a block a third as long.
//!
//! This is the whole stack at once, including the naive-selection oracle
//! and the trace checks. Host time per seed is heavy-tailed (a median
//! under a millisecond, the slowest seeds seconds), so `ops_per_s` and
//! `op_ms_p50` tell different stories, and which seeds are in the batch
//! decides the total far more than any commit would. The batch is
//! therefore a *fixed* pool of simcheck seeds; `--seed` picks the order
//! they are issued in.

use super::{ms_since, scaled, Outcome, Side, SplitMix64, Workload};
use crate::span::Spans;
use simcheck::Scenario;
use std::collections::BTreeMap;
use std::time::Instant;

/// Mixed seeds at the calibrated run length.
pub const MIXED_SEEDS: usize = 600;
/// Hierarchical seeds at the calibrated run length.
pub const HIER_SEEDS: usize = 200;
/// First simcheck seed of the mixed and hierarchical pools (the two
/// generators draw different scenarios from the same seed).
pub const POOL_BASE: u64 = 0;
/// Seeds checked during set-up as warm-up: the head of the mixed pool
/// (nothing in the program remembers a seed, so repeating them is free of
/// side effects).
pub const WARMUP_SEEDS: u64 = 20;

/// The `Workload::label`s `simcheck.wall_share.*` is reported for.
pub const SHARE_LABELS: [(&str, &str); 7] = [
    ("app", "simcheck.wall_share.app"),
    ("coll", "simcheck.wall_share.coll"),
    ("group", "simcheck.wall_share.group"),
    ("rand", "simcheck.wall_share.rand"),
    ("recon", "simcheck.wall_share.recon"),
    ("ring", "simcheck.wall_share.ring"),
    ("select", "simcheck.wall_share.select"),
];

/// Which generator a seed goes through.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Gen {
    /// `simcheck::generate`.
    Mixed,
    /// `simcheck::generate_hierarchical`.
    Hier,
    /// `simcheck::generate_crashy_collective`.
    Crashy,
}

impl Gen {
    /// Runs the generator.
    pub fn generate(self, seed: u64) -> Scenario {
        match self {
            Gen::Mixed => simcheck::generate(seed),
            Gen::Hier => simcheck::generate_hierarchical(seed),
            Gen::Crashy => simcheck::generate_crashy_collective(seed),
        }
    }
}

/// Generates and checks one simcheck seed as op `op_id`; returns
/// `(generate ms, check ms, workload label)`.
pub fn check_seed(
    gen: Gen,
    seed: u64,
    op_id: u64,
    spans: &Spans,
    out: &mut Outcome,
) -> (f64, f64, &'static str) {
    let op = spans.begin_op(op_id);
    let t0 = Instant::now();
    let scenario = spans.scope("simcheck.generate", op, |_| gen.generate(seed));
    let gen_ms = ms_since(t0);
    let t1 = Instant::now();
    let verdict = spans.scope("simcheck.check", op, |_| simcheck::check(&scenario));
    let check_ms = ms_since(t1);
    let host_ms = ms_since(t0);
    spans.end(op);
    // `check` hides the virtual makespans of the runs it makes.
    out.op(
        host_ms,
        0.0,
        verdict.map_err(|v| format!("seed {seed}: {v:?}")),
    );
    (gen_ms, check_ms, scenario.workload.label())
}

/// The workload: the seeds to check, in issue order.
pub struct FuzzBatch {
    mixed: Vec<u64>,
    hier: Vec<u64>,
}

impl Workload for FuzzBatch {
    const NAME: &'static str = "fuzz_batch";
    const RANKS: usize = 2;
    const WHY: &'static str = "a fixed pool of simcheck seeds (mixed, then hierarchical) through \
        generate + check: the whole stack in the mix CI pays for; heavy-tailed per-seed cost";

    fn setup(seed: u64, scale: f64) -> Self {
        let mut rng = SplitMix64(seed ^ 0xF022_BA7C);
        let mut mixed: Vec<u64> = (0..scaled(MIXED_SEEDS, scale) as u64)
            .map(|i| POOL_BASE + i)
            .collect();
        let mut hier: Vec<u64> = (0..scaled(HIER_SEEDS, scale) as u64)
            .map(|i| POOL_BASE + i)
            .collect();
        rng.shuffle(&mut mixed);
        rng.shuffle(&mut hier);
        let mut warm = Outcome::default();
        let off = Spans::new(false);
        for i in 0..WARMUP_SEEDS {
            check_seed(Gen::Mixed, POOL_BASE + i, i, &off, &mut warm);
        }
        assert!(
            warm.failed == 0,
            "fuzz_batch warm-up failed: {:?}",
            warm.first_failure
        );
        FuzzBatch { mixed, hier }
    }

    fn run(&self, rounds: usize, spans: &Spans) -> Outcome {
        let mut out = Outcome::default();
        let mut by_label: BTreeMap<&'static str, f64> = BTreeMap::new();
        let (mut gen_ms, mut mixed_s, mut hier_s) = (0.0, 0.0, 0.0);
        let mut block = |gen: Gen, seeds: &[u64], out: &mut Outcome| {
            let t0 = Instant::now();
            for &seed in seeds {
                let (g, c, label) = check_seed(gen, seed, out.op_ms.len() as u64, spans, out);
                gen_ms += g;
                *by_label.entry(label).or_default() += g + c;
            }
            t0.elapsed().as_secs_f64()
        };
        for _ in 0..rounds {
            out.round(|out| {
                mixed_s += block(Gen::Mixed, &self.mixed, out);
                hier_s += block(Gen::Hier, &self.hier, out);
            });
        }
        let r = rounds as f64;
        out.side.insert(
            "simcheck.mixed_seeds_per_s",
            self.mixed.len() as f64 * r / mixed_s,
        );
        out.side.insert(
            "simcheck.hier_seeds_per_s",
            self.hier.len() as f64 * r / hier_s,
        );
        out.side.insert(
            "simcheck.generate_us",
            gen_ms * 1e3 / out.op_ms.len() as f64,
        );
        let total: f64 = out.op_ms.iter().sum();
        for (label, metric) in SHARE_LABELS {
            out.side
                .insert(metric, by_label.get(label).copied().unwrap_or(0.0) / total);
        }
        out
    }

    fn probes(&self, _side: &mut Side) {
        // `check` is one opaque call: nothing to probe from outside.
    }
}
