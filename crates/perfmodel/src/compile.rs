//! The model pricer: a model's event stream lowered once to a flat cost
//! program, then priced per assignment.
//!
//! The event stream a model emits is *assignment-independent*: the scheme
//! sees only the model's own parameters (volumes, communication volumes,
//! coordinate space), never the speeds or link costs of the mapping being
//! priced. So the stream is recorded **once** per model and re-priced per
//! mapping. This is the only code that turns a scheme into seconds:
//! [`PerformanceModel::predict_time`], `HMPI_Timeof` and the
//! group-selection search all price through it.
//!
//! * [`CostProgram::record`] replays the scheme into a recording sink that
//!   prescales each activity by the model's volumes (`units = vol·pct/100`,
//!   `bytes = comm·pct/100`) and drops the transfers that cost nothing
//!   (`src == dst` or non-positive bytes), producing a flat op list;
//! * [`CostProgram::price`] replays the op list against a [`PairCost`]
//!   (per-processor speeds, pairwise latency/bandwidth). A computation
//!   advances its processor's clock by `units / speed`. A transfer charges
//!   the sender its latency and makes the receiver wait for arrival at
//!   `start + latency + bytes / bandwidth` (mpisim's eager-send timing).
//!   Every branch of a `par` block starts from the clocks at the block's
//!   entry, and the block ends at their elementwise maximum. The makespan
//!   is the largest clock;
//! * [`CostProgram::price_baseline`] + [`CostProgram::price_delta`] support
//!   incremental re-pricing: the program is split into top-level *segments*
//!   (a single activity, or one complete top-level `par` block), each with
//!   the set of processors it touches. A baseline evaluation checkpoints
//!   the clock vector at every segment boundary; re-pricing a mapping that
//!   differs on a few processors then re-executes only the segments whose
//!   touched set intersects the (growing) dirty set, reading every clean
//!   processor's clock from the checkpoint. Because an activity reads and
//!   writes only its own processors' clocks, and `par` merges are
//!   elementwise, the skipped work is bit-identical to the checkpointed
//!   values — delta pricing returns exactly what a full [`CostProgram::price`]
//!   would.
//!
//! [`CostProgram::compute_units`] additionally exposes the per-processor
//! computation totals `U_p` (obtained by replaying computes at unit speed
//! with transfers as no-ops). Since every op only advances clocks (given
//! non-negative latencies), `max_p U_p / speed_p` is an admissible lower
//! bound on the makespan — the bound behind the branch-and-bound
//! exhaustive search in `hmpi`.

use crate::error::EvalError;
use crate::model::PerformanceModel;
use crate::scheme::SchemeSink;

/// Per-assignment costs a [`CostProgram`] is priced against: estimated
/// speed of each abstract processor's host plus pairwise link costs.
///
/// Implemented by [`CostModel`] and by the selection engine's table-backed
/// evaluator in `hmpi` (which resolves pairs through a precomputed
/// node-pair matrix instead of materialising p×p matrices per assignment).
pub trait PairCost {
    /// Estimated speed of abstract processor `proc`'s host (benchmark
    /// units per second).
    fn speed(&self, proc: usize) -> f64;
    /// One-way latency between the hosts of `src` and `dst`, seconds.
    fn latency(&self, src: usize, dst: usize) -> f64;
    /// Bandwidth between the hosts of `src` and `dst`, bytes/second.
    fn bandwidth(&self, src: usize, dst: usize) -> f64;
    /// The physical host of abstract processor `proc`, as an opaque index:
    /// processors reporting the same host share per-node contention
    /// resources (NIC, memory bus) in [`crate::collective::price`]. The
    /// default places every processor on its own host, which is correct
    /// for the one-process-per-processor configurations the planner
    /// prices; executors with multi-rank nodes override it.
    fn node_of(&self, proc: usize) -> usize {
        proc
    }
}

/// The plain p×p [`PairCost`]: per-processor speeds plus pairwise link
/// costs, indexed by *abstract* processor (the caller maps them to
/// physical machines before building it).
#[derive(Debug, Clone)]
pub struct CostModel {
    /// Estimated speed of each abstract processor's host, in benchmark units
    /// per second.
    pub speeds: Vec<f64>,
    /// One-way latency between hosts of each pair, seconds.
    pub latency: Vec<Vec<f64>>,
    /// Bandwidth between hosts of each pair, bytes/second.
    pub bandwidth: Vec<Vec<f64>>,
}

impl CostModel {
    /// A homogeneous cost model (testing convenience): `n` processors of
    /// equal `speed`, all pairs with the same `latency`/`bandwidth`.
    pub fn homogeneous(n: usize, speed: f64, latency: f64, bandwidth: f64) -> Self {
        CostModel {
            speeds: vec![speed; n],
            latency: vec![vec![latency; n]; n],
            bandwidth: vec![vec![bandwidth; n]; n],
        }
    }
}

impl PairCost for CostModel {
    fn speed(&self, proc: usize) -> f64 {
        self.speeds[proc]
    }
    fn latency(&self, src: usize, dst: usize) -> f64 {
        self.latency[src][dst]
    }
    fn bandwidth(&self, src: usize, dst: usize) -> f64 {
        self.bandwidth[src][dst]
    }
}

/// One op of the flat program. Activity costs are prescaled at record time
/// so pricing performs no percentage arithmetic.
#[derive(Debug, Clone, Copy)]
enum CostOp {
    Compute { proc: u32, units: f64 },
    Transfer { src: u32, dst: u32, bytes: f64 },
    ParBegin,
    ParBranch,
    ParEnd,
}

/// A top-level span of ops (one activity or one complete top-level `par`
/// block) plus the bitset of processors whose clocks it reads or writes.
#[derive(Debug, Clone)]
struct Segment {
    start: usize,
    end: usize,
    touched: Vec<u64>,
}

#[inline]
fn bit_set(bits: &mut [u64], p: usize) {
    bits[p / 64] |= 1u64 << (p % 64);
}

#[inline]
fn bit_get(bits: &[u64], p: usize) -> bool {
    bits[p / 64] & (1u64 << (p % 64)) != 0
}

fn bits_intersect(a: &[u64], b: &[u64]) -> bool {
    a.iter().zip(b).any(|(x, y)| x & y != 0)
}

/// A model's scheme lowered to a flat, assignment-independent cost program.
#[derive(Debug, Clone)]
pub struct CostProgram {
    n: usize,
    ops: Vec<CostOp>,
    segments: Vec<Segment>,
    /// `U_p`: per-processor computation totals for the admissible bound;
    /// `None` when unusable (negative units or an unbalanced par structure).
    units: Option<Vec<f64>>,
}

/// Recording sink: prescales activities and drops the transfers that cost
/// nothing.
struct Recorder<'a> {
    volumes: &'a [f64],
    comm: &'a [Vec<f64>],
    ops: Vec<CostOp>,
    depth: usize,
    balanced: bool,
}

impl SchemeSink for Recorder<'_> {
    fn compute(&mut self, proc: usize, percent: f64) {
        let units = self.volumes[proc] * percent / 100.0;
        self.ops.push(CostOp::Compute {
            proc: proc as u32,
            units,
        });
    }

    fn transfer(&mut self, src: usize, dst: usize, percent: f64) {
        if src == dst {
            return;
        }
        let bytes = self.comm[src][dst] * percent / 100.0;
        if bytes <= 0.0 {
            return;
        }
        self.ops.push(CostOp::Transfer {
            src: src as u32,
            dst: dst as u32,
            bytes,
        });
    }

    fn par_begin(&mut self) {
        self.depth += 1;
        self.ops.push(CostOp::ParBegin);
    }

    fn par_branch(&mut self) {
        if self.depth == 0 {
            self.balanced = false;
        }
        self.ops.push(CostOp::ParBranch);
    }

    fn par_end(&mut self) {
        if self.depth == 0 {
            self.balanced = false;
        } else {
            self.depth -= 1;
        }
        self.ops.push(CostOp::ParEnd);
    }
}

/// Reusable pricing scratch: the clock vector, a pool of `par` frames and
/// the dirty bitset for delta pricing. After the first evaluation at a
/// given size, pricing allocates nothing.
#[derive(Debug, Clone)]
pub struct PriceScratch {
    clocks: Vec<f64>,
    snaps: Vec<Vec<f64>>,
    merges: Vec<Vec<f64>>,
    dirty: Vec<u64>,
}

impl PriceScratch {
    /// Scratch for programs over `n` abstract processors.
    pub fn new(n: usize) -> Self {
        PriceScratch {
            clocks: vec![0.0; n],
            snaps: Vec::new(),
            merges: Vec::new(),
            dirty: vec![0; n.div_ceil(64).max(1)],
        }
    }
}

/// Segment-boundary clock checkpoints from a baseline evaluation, consumed
/// by [`CostProgram::price_delta`].
#[derive(Debug, Clone, Default)]
pub struct DeltaBaseline {
    /// `(segments + 1) × n` clock checkpoints, row-major; row `s` holds the
    /// clocks *before* segment `s`, the final row the finished clocks.
    boundaries: Vec<f64>,
    time: f64,
}

impl DeltaBaseline {
    /// The baseline's full-evaluation makespan.
    pub fn time(&self) -> f64 {
        self.time
    }
}

impl CostProgram {
    /// Records `model`'s event stream once, prescaled by its volumes.
    ///
    /// # Errors
    /// Propagates scheme evaluation errors from
    /// [`PerformanceModel::run_scheme`]; a program cannot be recorded for a
    /// model whose scheme does not evaluate.
    pub fn record<M: PerformanceModel + ?Sized>(model: &M) -> Result<CostProgram, EvalError> {
        let n = model.num_processors();
        let mut rec = Recorder {
            volumes: model.volumes(),
            comm: model.comm_bytes(),
            ops: Vec::new(),
            depth: 0,
            balanced: true,
        };
        model.run_scheme(&mut rec)?;
        let balanced = rec.balanced && rec.depth == 0;
        let ops = rec.ops;
        let blocks = n.div_ceil(64).max(1);
        let segments = if balanced {
            segment_ops(&ops, blocks)
        } else {
            // Degenerate structure: a single segment touching everyone, so
            // delta pricing falls back to full re-execution (and panics
            // where a full price does).
            vec![Segment {
                start: 0,
                end: ops.len(),
                touched: vec![u64::MAX; blocks],
            }]
        };
        let units = if balanced { unit_totals(&ops, n) } else { None };
        Ok(CostProgram {
            n,
            ops,
            segments,
            units,
        })
    }

    /// Number of abstract processors the program spans.
    pub fn num_processors(&self) -> usize {
        self.n
    }

    /// Number of flat ops (for diagnostics and benchmarks).
    pub fn num_ops(&self) -> usize {
        self.ops.len()
    }

    /// Number of top-level segments.
    pub fn num_segments(&self) -> usize {
        self.segments.len()
    }

    /// Per-processor computation totals `U_p` at unit speed, if usable as
    /// an admissible bound (all units non-negative, balanced par
    /// structure). `max_p U_p / speed_p` never exceeds the true makespan
    /// for any cost with non-negative latencies and positive bandwidths.
    pub fn compute_units(&self) -> Option<&[f64]> {
        self.units.as_deref()
    }

    /// Full evaluation: the makespan of the program under `cost`.
    ///
    /// # Panics
    /// Panics if `scratch` was sized for another processor count, or if the
    /// recorded `par` structure is unbalanced.
    pub fn price<C: PairCost + ?Sized>(&self, cost: &C, scratch: &mut PriceScratch) -> f64 {
        assert_eq!(scratch.clocks.len(), self.n, "scratch sized for this program");
        let PriceScratch {
            clocks,
            snaps,
            merges,
            ..
        } = scratch;
        clocks.fill(0.0);
        run_ops(&self.ops, cost, clocks, snaps, merges);
        clocks.iter().copied().fold(0.0, f64::max)
    }

    /// Full evaluation that also checkpoints the clock vector at every
    /// segment boundary into `base`, enabling [`CostProgram::price_delta`].
    pub fn price_baseline<C: PairCost + ?Sized>(
        &self,
        cost: &C,
        scratch: &mut PriceScratch,
        base: &mut DeltaBaseline,
    ) -> f64 {
        assert_eq!(scratch.clocks.len(), self.n, "scratch sized for this program");
        let n = self.n;
        base.boundaries.resize((self.segments.len() + 1) * n, 0.0);
        let PriceScratch {
            clocks,
            snaps,
            merges,
            ..
        } = scratch;
        clocks.fill(0.0);
        for (s, seg) in self.segments.iter().enumerate() {
            base.boundaries[s * n..(s + 1) * n].copy_from_slice(clocks);
            run_ops(&self.ops[seg.start..seg.end], cost, clocks, snaps, merges);
        }
        let last = self.segments.len();
        base.boundaries[last * n..(last + 1) * n].copy_from_slice(clocks);
        base.time = clocks.iter().copied().fold(0.0, f64::max);
        base.time
    }

    /// Incremental evaluation of a cost differing from the baseline's only
    /// on the processors in `changed`: re-executes only the segments whose
    /// touched set intersects the dirty set (which grows as re-executed
    /// segments couple further processors in), reading clean processors'
    /// clocks from the baseline checkpoints. Returns exactly the value a
    /// full [`CostProgram::price`] of the changed cost would.
    pub fn price_delta<C: PairCost + ?Sized>(
        &self,
        cost: &C,
        base: &DeltaBaseline,
        changed: &[usize],
        scratch: &mut PriceScratch,
    ) -> f64 {
        let n = self.n;
        assert_eq!(
            base.boundaries.len(),
            (self.segments.len() + 1) * n,
            "baseline built by price_baseline on this program"
        );
        let PriceScratch {
            clocks,
            snaps,
            merges,
            dirty,
        } = scratch;
        dirty.fill(0);
        for &p in changed {
            bit_set(dirty, p);
        }
        let mut ran_any = false;
        for (s, seg) in self.segments.iter().enumerate() {
            if !bits_intersect(&seg.touched, dirty) {
                continue;
            }
            let boundary = &base.boundaries[s * n..(s + 1) * n];
            if ran_any {
                // Refresh clean processors; dirty clocks carry over.
                for (p, b) in boundary.iter().enumerate() {
                    if !bit_get(dirty, p) {
                        clocks[p] = *b;
                    }
                }
            } else {
                // Before the first affected segment the changed run is
                // indistinguishable from the baseline.
                clocks.copy_from_slice(boundary);
                ran_any = true;
            }
            run_ops(&self.ops[seg.start..seg.end], cost, clocks, snaps, merges);
            for (d, t) in dirty.iter_mut().zip(&seg.touched) {
                *d |= *t;
            }
        }
        if !ran_any {
            return base.time;
        }
        let last = &base.boundaries[self.segments.len() * n..];
        let mut t = 0.0f64;
        for (p, b) in last.iter().enumerate() {
            let c = if bit_get(dirty, p) { clocks[p] } else { *b };
            t = t.max(c);
        }
        t
    }
}

/// The core replay loop: the module's clock rules over prescaled ops, with
/// the frame pool reused across calls.
fn run_ops<C: PairCost + ?Sized>(
    ops: &[CostOp],
    cost: &C,
    clocks: &mut [f64],
    snaps: &mut Vec<Vec<f64>>,
    merges: &mut Vec<Vec<f64>>,
) {
    let mut depth = 0usize;
    for op in ops {
        match *op {
            CostOp::Compute { proc, units } => {
                let p = proc as usize;
                clocks[p] += units / cost.speed(p);
            }
            CostOp::Transfer { src, dst, bytes } => {
                let (s, d) = (src as usize, dst as usize);
                let lat = cost.latency(s, d);
                let total = lat + bytes / cost.bandwidth(s, d);
                let start = clocks[s];
                clocks[s] = start + lat;
                clocks[d] = clocks[d].max(start + total);
            }
            CostOp::ParBegin => {
                if depth == snaps.len() {
                    snaps.push(clocks.to_vec());
                    merges.push(clocks.to_vec());
                } else {
                    snaps[depth].copy_from_slice(clocks);
                    merges[depth].copy_from_slice(clocks);
                }
                depth += 1;
            }
            CostOp::ParBranch => {
                assert!(depth > 0, "par_branch inside par_begin");
                let frame = depth - 1;
                for (m, c) in merges[frame].iter_mut().zip(clocks.iter()) {
                    *m = m.max(*c);
                }
                clocks.copy_from_slice(&snaps[frame]);
            }
            CostOp::ParEnd => {
                assert!(depth > 0, "par_end matches par_begin");
                depth -= 1;
                clocks.copy_from_slice(&merges[depth]);
            }
        }
    }
}

/// Splits a balanced op list into top-level segments with touched bitsets.
fn segment_ops(ops: &[CostOp], blocks: usize) -> Vec<Segment> {
    let mut segments = Vec::new();
    let mut i = 0;
    while i < ops.len() {
        let start = i;
        let mut touched = vec![0u64; blocks];
        let mut depth = 0usize;
        loop {
            match ops[i] {
                CostOp::Compute { proc, .. } => bit_set(&mut touched, proc as usize),
                CostOp::Transfer { src, dst, .. } => {
                    bit_set(&mut touched, src as usize);
                    bit_set(&mut touched, dst as usize);
                }
                CostOp::ParBegin => depth += 1,
                CostOp::ParEnd => depth -= 1,
                CostOp::ParBranch => {}
            }
            i += 1;
            if depth == 0 {
                break;
            }
        }
        segments.push(Segment {
            start,
            end: i,
            touched,
        });
    }
    segments
}

/// `U_p`: computes replayed at unit speed through the par structure,
/// transfers as no-ops. `None` if any unit count is negative (the
/// monotonicity argument behind the bound needs non-negative advances).
fn unit_totals(ops: &[CostOp], n: usize) -> Option<Vec<f64>> {
    let mut clocks = vec![0.0f64; n];
    let mut stack: Vec<(Vec<f64>, Vec<f64>)> = Vec::new();
    for op in ops {
        match *op {
            CostOp::Compute { proc, units } => {
                if units < 0.0 {
                    return None;
                }
                clocks[proc as usize] += units;
            }
            CostOp::Transfer { .. } => {}
            CostOp::ParBegin => stack.push((clocks.clone(), clocks.clone())),
            CostOp::ParBranch => {
                let (snap, merged) = stack.last_mut().expect("balanced");
                for (m, c) in merged.iter_mut().zip(&clocks) {
                    *m = m.max(*c);
                }
                clocks.clone_from(snap);
            }
            CostOp::ParEnd => {
                let (_, merged) = stack.pop().expect("balanced");
                clocks = merged;
            }
        }
    }
    Some(clocks)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{CompiledModel, ParamValue};

    fn em3d_instance() -> crate::model::ModelInstance {
        let src = r"
            algorithm Em3d(int p, int k, int d[p], int dep[p][p]) {
                coord I=p;
                node {I>=0: bench*(d[I]/k);};
                link (L=p) {
                    I>=0 && I!=L && (dep[I][L] > 0) :
                        length*(dep[I][L]*sizeof(double)) [L]->[I];
                };
                parent[0];
                scheme {
                    int current, owner, remote;
                    par (owner = 0; owner < p; owner++)
                        par (remote = 0; remote < p; remote++)
                            if ((owner != remote) && (dep[owner][remote] > 0))
                                100%%[remote]->[owner];
                    par (current = 0; current < p; current++) 100%%[current];
                };
            }
        ";
        CompiledModel::compile(src)
            .unwrap()
            .instantiate(&[
                ParamValue::Int(4),
                ParamValue::Int(10),
                ParamValue::Array(vec![100, 200, 300, 150]),
                ParamValue::Array(vec![0, 5, 0, 3, 5, 0, 7, 0, 0, 7, 0, 2, 3, 0, 2, 0]),
            ])
            .unwrap()
    }

    fn hetero_cost(n: usize, seed: u64) -> CostModel {
        // Deterministic pseudo-random but fully reproducible costs.
        let mut x = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x >> 11) as f64 / (1u64 << 53) as f64
        };
        let speeds = (0..n).map(|_| 1.0 + 200.0 * next()).collect();
        let latency = (0..n)
            .map(|_| (0..n).map(|_| 1e-4 * next()).collect())
            .collect();
        let bandwidth = (0..n)
            .map(|_| (0..n).map(|_| 1e5 + 1e7 * next()).collect())
            .collect();
        CostModel {
            speeds,
            latency,
            bandwidth,
        }
    }

    #[test]
    fn price_matches_closed_form_em3d_makespans() {
        // Volumes d/k = [10, 20, 30, 15]; the exchange par receives
        // max(40, 24) B at 0, max(40, 56) at 1, max(56, 16) at 2 and
        // max(24, 16) at 3, every transfer starting from zero. At 8 B/s
        // and 0.5 s latency the exchange ends at [5.5, 7.5, 7.5, 3.5], and
        // the compute par adds volume / speed on top.
        let inst = em3d_instance();
        let prog = CostProgram::record(&inst).unwrap();
        let mut scratch = PriceScratch::new(4);
        let mut price = |cost: &CostModel| prog.price(cost, &mut scratch);

        // Uniform speed 10: processor 2 ends at 7.5 + 30 / 10.
        let uniform = CostModel::homogeneous(4, 10.0, 0.5, 8.0);
        assert_eq!(price(&uniform), 10.5);
        // Speeds matching the volumes: one second of compute each.
        let mut matched = uniform.clone();
        matched.speeds = vec![10.0, 20.0, 30.0, 15.0];
        assert_eq!(price(&matched), 8.5);
        // Latency alone: senders and receivers both finish the exchange at
        // the latency, so the slowest compute follows it.
        let latency = CostModel::homogeneous(4, 10.0, 100.0, f64::INFINITY);
        assert_eq!(price(&latency), 103.0);
        assert_eq!(inst.predict_time(&uniform).unwrap(), 10.5);
    }

    #[test]
    fn delta_is_bit_identical_to_full_price() {
        let inst = em3d_instance();
        let prog = CostProgram::record(&inst).unwrap();
        assert!(prog.num_segments() >= 2);
        let mut scratch = PriceScratch::new(4);
        let mut base = DeltaBaseline::default();
        let cost = hetero_cost(4, 1);
        let t0 = prog.price_baseline(&cost, &mut scratch, &mut base);
        assert_eq!(t0.to_bits(), prog.price(&cost, &mut scratch).to_bits());

        for changed in [vec![0usize], vec![2], vec![1, 3], vec![0, 1, 2, 3]] {
            let mut mutated = cost.clone();
            for &p in &changed {
                mutated.speeds[p] *= 0.5;
                for q in 0..4 {
                    mutated.latency[p][q] += 1e-5;
                    mutated.latency[q][p] += 1e-5;
                    mutated.bandwidth[p][q] *= 2.0;
                    mutated.bandwidth[q][p] *= 2.0;
                }
            }
            let delta = prog.price_delta(&mutated, &base, &changed, &mut scratch);
            let full = prog.price(&mutated, &mut scratch);
            assert_eq!(delta.to_bits(), full.to_bits(), "changed = {changed:?}");
        }
    }

    #[test]
    fn delta_with_no_affected_segment_returns_baseline() {
        // A model where processor 3 never appears in the scheme: changing
        // it re-executes nothing.
        let model = CompiledModel::compile(
            "algorithm Sparse() { coord I=4; node {I>=0: bench*(10*(I+1));}; parent[0];
               scheme { 100%%[0]; 100%%[1]; 100%%[2]; }; }",
        )
        .unwrap()
        .instantiate(&[])
        .unwrap();
        let prog = CostProgram::record(&model).unwrap();
        let mut scratch = PriceScratch::new(4);
        let mut base = DeltaBaseline::default();
        let cost = hetero_cost(4, 3);
        let t0 = prog.price_baseline(&cost, &mut scratch, &mut base);
        let mut mutated = cost.clone();
        mutated.speeds[3] = 0.25;
        let t = prog.price_delta(&mutated, &base, &[3], &mut scratch);
        assert_eq!(t.to_bits(), t0.to_bits());
    }

    #[test]
    fn compute_units_bound_the_makespan() {
        let inst = em3d_instance();
        let prog = CostProgram::record(&inst).unwrap();
        let units = prog.compute_units().unwrap().to_vec();
        let mut scratch = PriceScratch::new(4);
        for seed in 0..8 {
            let cost = hetero_cost(4, seed);
            let t = prog.price(&cost, &mut scratch);
            let lb = units
                .iter()
                .zip(&cost.speeds)
                .map(|(u, s)| u / s)
                .fold(0.0, f64::max);
            assert!(lb <= t + 1e-12, "lb {lb} vs makespan {t}");
        }
    }

    #[test]
    fn record_surfaces_scheme_errors() {
        struct Broken;
        impl PerformanceModel for Broken {
            fn name(&self) -> &str {
                "broken"
            }
            fn num_processors(&self) -> usize {
                1
            }
            fn volumes(&self) -> &[f64] {
                &[1.0]
            }
            fn comm_bytes(&self) -> &[Vec<f64>] {
                &[]
            }
            fn parent(&self) -> usize {
                0
            }
            fn run_scheme(&self, _sink: &mut dyn SchemeSink) -> Result<(), EvalError> {
                Err(EvalError::BadProcessor("boom".into()))
            }
        }
        assert!(CostProgram::record(&Broken).is_err());
    }

    #[test]
    fn prescaling_drops_noop_transfers() {
        // A self transfer and a zero-comm transfer are dropped; the
        // declared 0 -> 1 transfer and the computation are kept.
        let model = CompiledModel::compile(
            "algorithm Noop() { coord I=2; node {I>=0: bench*(1);};
               link {I==0: length*(100) [0]->[1];}; parent[0];
               scheme { 100%%[0]->[0]; 100%%[1]->[0]; 100%%[0]->[1]; 100%%[0]; }; }",
        )
        .unwrap()
        .instantiate(&[])
        .unwrap();
        let prog = CostProgram::record(&model).unwrap();
        assert_eq!(prog.num_ops(), 2);
        assert_eq!(prog.num_segments(), 2);
    }
}
