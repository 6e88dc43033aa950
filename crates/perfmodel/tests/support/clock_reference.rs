//! Test support shared by `perfmodel`'s `compile` tests and `hmpi`'s
//! `tests/engine_equiv.rs` (each includes this file with `#[path]`): a
//! clock-vector interpreter of the model pricer's semantics that does not
//! use `CostProgram`, and a generator of random event streams to hold the
//! pricer to it.
//!
//! The includer brings `EvalError`, `PairCost`, `PerformanceModel` and
//! `SchemeSink` into scope.
#![allow(dead_code)]

use super::{EvalError, PairCost, PerformanceModel, SchemeSink};

/// The final clock of every processor after pricing `model`'s event stream
/// as it is emitted: prescaled activities, a snapshot at each `par` entry,
/// an elementwise `max` into the block's merge and a restore at each
/// `par_branch`, the merge at `par_end`. With `cost == None` the clocks are
/// the unit-speed computation totals `U_p`, transfers costing nothing.
pub fn clocks(
    model: &dyn PerformanceModel,
    cost: Option<&dyn PairCost>,
) -> Result<Vec<f64>, EvalError> {
    let mut sink = Clocks {
        model,
        cost,
        clocks: vec![0.0; model.num_processors()],
        frames: Vec::new(),
    };
    model.run_scheme(&mut sink)?;
    Ok(sink.clocks)
}

/// The makespan of a final clock vector.
pub fn makespan(clocks: &[f64]) -> f64 {
    clocks.iter().copied().fold(0.0, f64::max)
}

struct Clocks<'a> {
    model: &'a dyn PerformanceModel,
    cost: Option<&'a dyn PairCost>,
    clocks: Vec<f64>,
    /// `(snapshot, merge)` per open block.
    frames: Vec<(Vec<f64>, Vec<f64>)>,
}

impl SchemeSink for Clocks<'_> {
    fn compute(&mut self, p: usize, percent: f64) {
        let units = self.model.volumes()[p] * percent / 100.0;
        self.clocks[p] += units / self.cost.map_or(1.0, |c| c.speed(p));
    }

    fn transfer(&mut self, s: usize, d: usize, percent: f64) {
        let Some(cost) = self.cost.filter(|_| s != d) else {
            return;
        };
        let bytes = self.model.comm_bytes()[s][d] * percent / 100.0;
        if bytes <= 0.0 {
            return;
        }
        let lat = cost.latency(s, d);
        let total = lat + bytes / cost.bandwidth(s, d);
        let start = self.clocks[s];
        self.clocks[s] = start + lat;
        self.clocks[d] = self.clocks[d].max(start + total);
    }

    fn par_begin(&mut self) {
        self.frames.push((self.clocks.clone(), self.clocks.clone()));
    }

    fn par_branch(&mut self) {
        let (snap, merge) = self.frames.last_mut().expect("balanced stream");
        for (m, c) in merge.iter_mut().zip(&self.clocks) {
            *m = m.max(*c);
        }
        self.clocks.clone_from(snap);
    }

    fn par_end(&mut self) {
        self.clocks = self.frames.pop().expect("balanced stream").1;
    }
}

/// One scheme event of a generated stream.
#[derive(Debug, Clone, Copy)]
pub enum Ev {
    Compute(usize, f64),
    Transfer(usize, usize, f64),
    ParBegin,
    ParBranch,
    ParEnd,
}

/// A model that replays a fixed event stream: nested, empty and
/// zero-iteration `par` blocks, loopback `i -> i`, zero-byte transfers and
/// negative percentages included, which a lint-clean model program never
/// writes.
pub struct Replay {
    pub volumes: Vec<f64>,
    pub comm: Vec<Vec<f64>>,
    pub parent: usize,
    pub events: Vec<Ev>,
}

impl PerformanceModel for Replay {
    fn name(&self) -> &str {
        "replay"
    }
    fn num_processors(&self) -> usize {
        self.volumes.len()
    }
    fn volumes(&self) -> &[f64] {
        &self.volumes
    }
    fn comm_bytes(&self) -> &[Vec<f64>] {
        &self.comm
    }
    fn parent(&self) -> usize {
        self.parent
    }
    fn run_scheme(&self, sink: &mut dyn SchemeSink) -> Result<(), EvalError> {
        for &e in &self.events {
            match e {
                Ev::Compute(p, pct) => sink.compute(p, pct),
                Ev::Transfer(s, d, pct) => sink.transfer(s, d, pct),
                Ev::ParBegin => sink.par_begin(),
                Ev::ParBranch => sink.par_branch(),
                Ev::ParEnd => sink.par_end(),
            }
        }
        Ok(())
    }
}

impl Replay {
    /// Whether some computation prescales to negative units (which makes
    /// `CostProgram::compute_units` unusable).
    pub fn has_negative_units(&self) -> bool {
        self.events.iter().any(|e| match *e {
            Ev::Compute(p, pct) => self.volumes[p] * pct / 100.0 < 0.0,
            _ => false,
        })
    }
}

/// xorshift64: a dependency-free generator for the stream shapes.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        (self.0 % n as u64) as usize
    }

    /// Uniform in `[lo, hi)`.
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.below(1 << 30) as f64 / (1u64 << 30) as f64
    }
}

/// A random balanced event stream over `p` processors, nested up to depth 3
/// in the interpreter's emission discipline (each branch followed by
/// `par_branch`, the block closed by `par_end`), with zero-iteration blocks,
/// empty branches and, rarely, activities between a block's last
/// `par_branch` and its `par_end`, which join nothing.
pub fn gen_events(rng: &mut Rng, p: usize) -> Vec<Ev> {
    let mut out = Vec::new();
    gen_seq(rng, p, 3, &mut out);
    out
}

fn gen_seq(rng: &mut Rng, p: usize, depth: usize, out: &mut Vec<Ev>) {
    for _ in 0..1 + rng.below(3) {
        if depth == 0 || rng.below(3) == 0 {
            gen_activities(rng, p, out);
            continue;
        }
        out.push(Ev::ParBegin);
        for _ in 0..rng.below(4) {
            if rng.below(5) > 0 {
                gen_seq(rng, p, depth - 1, out);
            }
            out.push(Ev::ParBranch);
        }
        if rng.below(8) == 0 {
            gen_activities(rng, p, out);
        }
        out.push(Ev::ParEnd);
    }
}

/// 1-4 activities on random processors: computations of -20..60 percent
/// (negative units one time in twenty), transfers that may be loops `i -> i`
/// and carry zero percent one time in eight.
fn gen_activities(rng: &mut Rng, p: usize, out: &mut Vec<Ev>) {
    for _ in 0..1 + rng.below(4) {
        let ev = if rng.below(3) == 0 {
            let pct = if rng.below(20) == 0 {
                rng.range(-20.0, 0.0)
            } else {
                rng.range(0.0, 60.0)
            };
            Ev::Compute(rng.below(p), pct)
        } else {
            let pct = if rng.below(8) == 0 {
                0.0
            } else {
                rng.range(0.0, 60.0)
            };
            Ev::Transfer(rng.below(p), rng.below(p), pct)
        };
        out.push(ev);
    }
}
