//! The six workloads. Each one is a closed loop with a single client: the
//! driver thread issues the next op only after the previous one returned
//! (the rank threads belong to the program under test).
//!
//! A workload is built by [`Workload::setup`] — input generation from the
//! seed, cluster / topology / model construction and a fixed number of
//! warm-up ops, all of which `setup_s` pays for — and then measured by
//! [`Workload::run`], which executes a *fixed* number of ops (so the work
//! is identical on two commits) as a number of identical rounds, checks
//! every output and returns the per-op host latencies and the per-round
//! wall and CPU time. With `spans.enabled()` the same ops run with harness
//! spans and `UniverseConfig::tracing(true)` on.

pub mod coll_plan;
pub mod fault_storm;
pub mod fuzz_batch;
pub mod p2p_stream;
pub mod paper_pipeline;
pub mod scale_1024;

use crate::span::Spans;
use std::collections::BTreeMap;

/// Seconds of timed wall the base op counts below were calibrated for (on
/// the seed commit, two cores). `--seconds` scales every count by
/// `seconds / CALIBRATED_SECONDS`, one common factor for all workloads.
pub const CALIBRATED_SECONDS: f64 = 20.0;

/// Ops slower than this are counted in `simcheck.slow_ops`.
pub const SLOW_OP_MS: f64 = 200.0;

/// `base` ops scaled by `scale`, never below one.
pub fn scaled(base: usize, scale: f64) -> usize {
    ((base as f64 * scale).round() as usize).max(1)
}

/// Wall and CPU time of one round of ops.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RoundStat {
    /// Ops the round issued.
    pub ops: usize,
    /// Host wall seconds from its first op's start to its last op's end.
    pub wall_s: f64,
    /// Process CPU seconds (user + system, every thread) over the same span.
    pub cpu_s: f64,
}

/// What one measured run of a workload produced.
#[derive(Clone, Debug, Default)]
pub struct Outcome {
    /// One entry per round, in order.
    pub rounds: Vec<RoundStat>,
    /// Host latency of every op, milliseconds, in issue order.
    pub op_ms: Vec<f64>,
    /// Summed virtual makespan of the ops (0 where the program hides it).
    pub virtual_s: f64,
    /// Ops that failed a correctness check or returned an unexpected error.
    pub failed: u64,
    /// The first failure, for the log.
    pub first_failure: Option<String>,
    /// Messages the simulator delivered during the ops (traced runs only;
    /// exact, from the virtual-time trace).
    pub msgs: u64,
    /// Payload bytes of those messages.
    pub bytes: u64,
    /// Virtual-time trace events recorded (traced runs only; exact).
    pub events: u64,
    /// Per-layer metrics this workload measured on the way, by name.
    pub side: Side,
}

impl Outcome {
    /// Records one op: its host latency, the virtual time it simulated and
    /// the verdict of its correctness checks.
    pub fn op(&mut self, host_ms: f64, virtual_s: f64, verdict: Result<(), String>) {
        self.op_ms.push(host_ms);
        self.virtual_s += virtual_s;
        if let Err(why) = verdict {
            self.failed += 1;
            self.first_failure.get_or_insert(why);
        }
    }

    /// Runs one round of ops inside `f`, timing it. Rounds are the unit the
    /// run's rates are medians over, so every round must issue the same
    /// ops; the caller decides where the op loop lives (for a workload whose
    /// ops share one `Universe::run`, on rank 0 inside it).
    pub fn round<R>(&mut self, f: impl FnOnce(&mut Outcome) -> R) -> R {
        let ops0 = self.op_ms.len();
        let cpu0 = crate::sys::process_cpu().unwrap_or_default();
        let t0 = std::time::Instant::now();
        let result = f(self);
        let wall_s = t0.elapsed().as_secs_f64();
        let cpu1 = crate::sys::process_cpu().unwrap_or_default();
        self.rounds.push(RoundStat {
            ops: self.op_ms.len() - ops0,
            wall_s,
            cpu_s: cpu1.saturating_sub(cpu0).as_secs_f64(),
        });
        result
    }

    /// Folds a virtual-time trace's exact counters into the outcome.
    pub fn count_trace(&mut self, trace: &hetsim::Trace, n_ranks: usize) {
        self.events += trace.len() as u64;
        for s in trace.message_stats(n_ranks) {
            self.msgs += s.received as u64;
            self.bytes += s.bytes_received;
        }
    }
}

/// A benchmark workload; see the module docs for the contract.
pub trait Workload: Sized {
    /// The name in `BENCHMARK.json`.
    const NAME: &'static str;
    /// One line on why this workload exists (printed, and in the README).
    const WHY: &'static str;
    /// Fewest rank threads any phase runs at once: with fewer cores than
    /// this busy, the program is sleeping (`mpisim.sleep_share`).
    const RANKS: usize;

    /// Generates inputs from `seed`, builds everything the ops need and
    /// runs the warm-up ops. `scale` multiplies the base op counts, which
    /// size one round.
    fn setup(seed: u64, scale: f64) -> Self;

    /// Runs the timed ops: `rounds` identical rounds.
    fn run(&self, rounds: usize, spans: &Spans) -> Outcome;

    /// Stand-alone calls into layer entry points and differential runs on
    /// this workload's own inputs, filling per-layer metrics by name.
    /// Traced runs only, outside the timed section.
    fn probes(&self, side: &mut Side);
}

/// Per-layer metrics by name.
pub type Side = BTreeMap<&'static str, f64>;

/// Mean host microseconds of `f` over `calls` calls.
pub fn per_call_us(calls: usize, mut f: impl FnMut()) -> f64 {
    let t0 = std::time::Instant::now();
    for _ in 0..calls {
        f();
    }
    t0.elapsed().as_secs_f64() * 1e6 / calls as f64
}

/// Median host milliseconds of `Universe::run` with an empty rank body —
/// what spawning, joining and tearing down the rank threads costs.
pub fn spawn_join_ms(universe: &mpisim::Universe, reps: usize) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = std::time::Instant::now();
            std::hint::black_box(universe.run(|proc| proc.world_rank()));
            ms_since(t0)
        })
        .collect();
    crate::stats::median(&samples)
}

/// SplitMix64: the harness's own seed-stable generator, so inputs do not
/// change when the program's `rand` stand-in does.
#[derive(Clone, Debug)]
pub struct SplitMix64(pub u64);

impl SplitMix64 {
    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A value in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Largest absolute difference between two equally long slices (`inf` when
/// the lengths differ).
pub fn max_abs_diff(a: &[f64], b: &[f64]) -> f64 {
    if a.len() != b.len() {
        return f64::INFINITY;
    }
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, f64::max)
}

/// Milliseconds since `t0`.
pub fn ms_since(t0: std::time::Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e3
}
