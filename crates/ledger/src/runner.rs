//! One measured run of one workload in this process — what the benchmark
//! driver invokes (`--workload W --seed N --seconds S --trace 0|1`) and
//! what `all` spawns a fresh child for.
//!
//! The fixed op count is issued as [`ROUNDS`] identical rounds — the same
//! ops in the same order — and every rate is the *median over the rounds*,
//! so a burst of noise from the machine's other tenants costs one round,
//! not the run. An untraced run sets the workload up [`SETUP_REPS`] times
//! (reporting the median as `setup_s`), runs the rounds with spans off and
//! reports the end-to-end metrics. A traced run reports the per-layer
//! metrics: the rounds run at half the op count untraced and then again
//! with harness spans and virtual-time tracing on (the difference is
//! `trace.overhead_pct`), the workload's stand-alone probes run on its own
//! inputs, and every *other* workload runs one round at [`PROBE_SCALE`] so
//! that the per-layer metrics it owns are measured rather than missing.

use crate::json::Json;
use crate::span::{Ledger, Spans};
use crate::spec::{self, END_TO_END, HOST_US_PER_MSG, LAYER_SHARES, PER_LAYER, WORKLOADS};
use crate::stats::{median, tail};
use crate::sys;
use crate::workloads::coll_plan::CollPlan;
use crate::workloads::fault_storm::FaultStorm;
use crate::workloads::fuzz_batch::FuzzBatch;
use crate::workloads::p2p_stream::P2pStream;
use crate::workloads::paper_pipeline::PaperPipeline;
use crate::workloads::scale_1024::Scale1024;
use crate::workloads::{Outcome, Side, Workload, CALIBRATED_SECONDS, SLOW_OP_MS};
use std::collections::BTreeMap;
use std::time::Instant;

/// Evaluates `$body` with `$w` naming the workload type called `$name`;
/// `None` for a name that is no workload.
macro_rules! with_workload {
    ($name:expr, $w:ident => $body:expr) => {
        match $name {
            "paper_pipeline" => Some({
                type $w = PaperPipeline;
                $body
            }),
            "p2p_stream" => Some({
                type $w = P2pStream;
                $body
            }),
            "coll_plan" => Some({
                type $w = CollPlan;
                $body
            }),
            "scale_1024" => Some({
                type $w = Scale1024;
                $body
            }),
            "fuzz_batch" => Some({
                type $w = FuzzBatch;
                $body
            }),
            "fault_storm" => Some({
                type $w = FaultStorm;
                $body
            }),
            _ => None,
        }
    };
}

/// Set-ups per untraced run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;
/// Identical rounds the timed ops are issued in.
pub const ROUNDS: usize = 5;
/// Scale at which a traced run exercises the workloads it is not about —
/// the smoke test's scale.
pub const PROBE_SCALE: f64 = 0.02;

/// What a run is asked to do.
#[derive(Clone, Debug, PartialEq)]
pub struct RunArgs {
    /// Workload name, one of [`WORKLOADS`].
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Run length the op counts are scaled for.
    pub seconds: f64,
    /// Per-layer (traced) run instead of an end-to-end one.
    pub trace: bool,
}

impl RunArgs {
    /// The common factor applied to every workload's base op count.
    pub fn scale(&self) -> f64 {
        self.seconds / CALIBRATED_SECONDS
    }
}

/// What a run produced: the result line's content plus the text ledger.
#[derive(Clone, Debug, Default)]
pub struct RunResult {
    /// No op failed a check, here or in any probe run.
    pub correct: bool,
    /// Ops attempted on the workload being run.
    pub attempted: u64,
    /// Ops that failed.
    pub failed: u64,
    /// The first failure, for the log.
    pub first_failure: Option<String>,
    /// Every metric of the run's kind, by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Traced runs: the harness spans as a Chrome trace document.
    pub chrome_trace: Option<String>,
    /// Traced runs: where the host time went, as text.
    pub ledger_text: Option<String>,
}

impl RunResult {
    /// The one-line JSON object the benchmark driver reads: exactly the
    /// keys `correct`, `attempted`, `failed` and `metrics`.
    pub fn result_line(&self) -> String {
        let metrics = self.metrics.iter().fold(Json::obj(), |obj, (name, value)| {
            let unit = spec::unit_of(name).expect("only listed metrics are reported");
            obj.with(name, Json::obj().with("value", *value).with("unit", unit))
        });
        Json::obj()
            .with("correct", self.correct)
            .with("attempted", self.attempted)
            .with("failed", self.failed)
            .with("metrics", metrics)
            .render()
    }
}

/// One timed execution of a workload's ops.
struct Timed {
    outcome: Outcome,
    /// Summed wall and CPU seconds of the rounds.
    wall_s: f64,
    cpu_s: f64,
}

impl Timed {
    fn ops(&self) -> f64 {
        self.outcome.op_ms.len() as f64
    }
    /// Median over the rounds of ops per wall second.
    fn ops_per_s(&self) -> f64 {
        median(
            &self
                .outcome
                .rounds
                .iter()
                .map(|r| r.ops as f64 / r.wall_s)
                .collect::<Vec<_>>(),
        )
    }
    /// Median over the rounds of CPU milliseconds per op.
    fn cpu_ms_per_op(&self) -> f64 {
        let per_round: Vec<f64> = self
            .outcome
            .rounds
            .iter()
            .map(|r| r.cpu_s * 1e3 / r.ops as f64)
            .collect();
        median(&per_round)
    }
}

/// Runs `rounds` rounds of `w`, each the same ops.
fn timed<W: Workload>(w: &W, rounds: usize, spans: &Spans) -> Timed {
    let outcome = w.run(rounds, spans);
    Timed {
        wall_s: outcome.rounds.iter().map(|r| r.wall_s).sum(),
        cpu_s: outcome.rounds.iter().map(|r| r.cpu_s).sum(),
        outcome,
    }
}

fn end_to_end<W: Workload>(args: &RunArgs) -> RunResult {
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut built = None;
    for _ in 0..SETUP_REPS {
        // Drop the previous instance first: two never coexist.
        drop(built.take());
        let t0 = Instant::now();
        built = Some(W::setup(args.seed, args.scale() / ROUNDS as f64));
        setups.push(t0.elapsed().as_secs_f64());
    }
    let w = built.expect("SETUP_REPS >= 1");
    let run = timed(&w, ROUNDS, &Spans::new(false));
    let mut metrics = BTreeMap::new();
    metrics.insert("setup_s", median(&setups));
    metrics.insert("ops_per_s", run.ops_per_s());
    metrics.insert("op_ms_p50", median(&run.outcome.op_ms));
    metrics.insert("cpu_ms_per_op", run.cpu_ms_per_op());
    metrics.insert("peak_rss_mb", sys::peak_rss_mib().unwrap_or(0.0));
    RunResult {
        correct: run.outcome.failed == 0,
        attempted: run.outcome.op_ms.len() as u64,
        failed: run.outcome.failed,
        first_failure: run.outcome.first_failure,
        metrics,
        ..RunResult::default()
    }
}

/// Runs `rounds` traced rounds of `w` and folds the per-layer metrics it
/// owns into `side`; returns the traced execution and its spans.
fn traced_into<W: Workload>(w: &W, rounds: usize, side: &mut Side) -> (Timed, Spans) {
    let spans = Spans::new(true);
    let run = timed(w, rounds, &spans);
    side.extend(run.outcome.side.iter().map(|(k, v)| (*k, *v)));
    if let Some((_, metric)) = HOST_US_PER_MSG.iter().find(|m| m.0 == W::NAME) {
        side.insert(metric, run.wall_s * 1e6 / run.outcome.msgs.max(1) as f64);
    }
    w.probes(side);
    (run, spans)
}

/// A probe-scale traced run of a workload the traced run is not about.
fn probe_run<W: Workload>(seed: u64, side: &mut Side, failures: &mut Vec<String>) {
    let w = W::setup(seed, PROBE_SCALE);
    let (run, _) = traced_into(&w, 1, side);
    if let Some(why) = run.outcome.first_failure {
        failures.push(format!("{} probe: {why}", W::NAME));
    }
}

fn per_layer<W: Workload>(args: &RunArgs) -> RunResult {
    let mut side = Side::new();
    let mut failures = Vec::new();
    let half = args.scale() / 2.0;

    let w = W::setup(args.seed, half / ROUNDS as f64);
    let plain = timed(&w, ROUNDS, &Spans::new(false));
    let (traced, spans) = traced_into(&w, ROUNDS, &mut side);
    drop(w);
    let ledger = spans.ledger();

    let o = &traced.outcome;
    let t = tail(&o.op_ms);
    let cores = sys::nproc().min(W::RANKS) as f64;
    side.insert("virtual_s", o.virtual_s);
    side.insert("failed_share", o.failed as f64 / traced.ops());
    side.insert("tail.op_ms", t.value);
    side.insert("tail.pct", t.pct);
    side.insert("tail.samples", t.samples as f64);
    let overhead = plain.ops_per_s() / traced.ops_per_s() - 1.0;
    side.insert("trace.overhead_pct", overhead * 100.0);
    side.insert("trace.events", o.events as f64);
    side.insert(
        "mpisim.sleep_share",
        1.0 - traced.cpu_s / (traced.wall_s * cores),
    );
    side.insert(
        "simcheck.slow_ops",
        o.op_ms.iter().filter(|ms| **ms > SLOW_OP_MS).count() as f64,
    );
    for (layer, metric) in LAYER_SHARES {
        side.insert(metric, ledger.share(layer));
    }
    side.insert("ledger.accounted", ledger.accounted());

    // The per-layer metrics the other workloads own.
    for name in WORKLOADS.into_iter().filter(|n| *n != W::NAME) {
        with_workload!(name, V => probe_run::<V>(args.seed, &mut side, &mut failures));
    }

    let first_failure = plain
        .outcome
        .first_failure
        .clone()
        .or(o.first_failure.clone())
        .or(failures.into_iter().next());
    let mut metrics = BTreeMap::new();
    let mut complete = true;
    for (name, _, _) in PER_LAYER {
        // A metric that is missing or not a number is a harness bug or a
        // failed differential; it must not pass as a measurement.
        let value = side.get(name).copied().filter(|v| v.is_finite());
        complete &= value.is_some();
        metrics.insert(name, value.unwrap_or(0.0));
    }
    let failed = plain.outcome.failed + o.failed;
    RunResult {
        correct: failed == 0 && first_failure.is_none() && complete,
        attempted: (plain.ops() + traced.ops()) as u64,
        failed,
        first_failure: first_failure
            .or((!complete).then(|| "a per-layer metric is missing or not finite".to_string())),
        metrics,
        chrome_trace: Some(spans.to_chrome_json()),
        ledger_text: Some(render_ledger::<W>(&ledger, &traced)),
    }
}

fn render_ledger<W: Workload>(ledger: &Ledger, traced: &Timed) -> String {
    format!(
        "  where the host time of {} went ({} ops, {:.3} s traced wall):\n{}",
        W::NAME,
        traced.ops(),
        traced.wall_s,
        ledger.render()
    )
}

/// Runs `args` in this process.
///
/// # Errors
/// An unknown workload name.
pub fn run(args: &RunArgs) -> Result<RunResult, String> {
    with_workload!(args.workload.as_str(), W => {
        if args.trace {
            per_layer::<W>(args)
        } else {
            end_to_end::<W>(args)
        }
    })
    .ok_or_else(|| format!("unknown workload {:?}; one of {WORKLOADS:?}", args.workload))
}

/// The `why` line of a workload.
pub fn why(workload: &str) -> Option<&'static str> {
    with_workload!(workload, W => W::WHY)
}

/// The metric names a run of this kind reports.
pub fn metric_names(trace: bool) -> Vec<&'static str> {
    if trace {
        PER_LAYER.iter().map(|m| m.0).collect()
    } else {
        END_TO_END.iter().map(|m| m.0).collect()
    }
}
