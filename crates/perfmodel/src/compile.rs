//! The model pricer: a model's event stream lowered once to
//! single-assignment max/plus code, then priced per assignment.
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
//!   `bytes = comm·pct/100`), drops the transfers that cost nothing
//!   (`src == dst` or non-positive bytes) and lowers the rest to
//!   single-assignment (SSA) instructions over a flat value array. Slots
//!   `0..n` hold the processors' starting clocks (zero); every instruction
//!   writes fresh slots, and the recorder tracks each processor's current
//!   slot. A computation is `out = in + units / speed`. A transfer charges
//!   the sender its latency, `s_out = start + latency`, and makes the
//!   receiver wait for arrival, `d_out = max(d_in, start + latency +
//!   bytes / bandwidth)` (mpisim's eager-send timing). Every branch of a
//!   `par` block starts from the slots at the block's entry; at each
//!   branch's end the recorder emits one `max` into the block's merge per
//!   processor whose slot the branch changed, and the block ends at the
//!   merge. A processor a branch did not change is skipped, which is exact:
//!   its merge started at the entry value, so the `max` would return the
//!   merge; a processor changed by a single branch still gets its
//!   `max(entry, branch)`, so non-monotone costs stay exact;
//! * [`CostProgram::price`] runs the instructions once, in order, against a
//!   [`PairCost`] (per-processor speeds, pairwise latency/bandwidth). The
//!   makespan is the largest final clock. It is the only pricing entry: a
//!   search prices every candidate with it.
//!
//! [`CostProgram::compute_units`] additionally exposes the per-processor
//! computation totals `U_p` (obtained by running the instructions at unit
//! speed with transfers as no-ops). Since every instruction only advances
//! clocks (given non-negative latencies), `max_p U_p / speed_p` is an
//! admissible lower bound on the makespan — the bound behind the
//! branch-and-bound exhaustive search in `hmpi`.

use crate::error::EvalError;
use crate::model::PerformanceModel;
use crate::scheme::SchemeSink;

/// Per-assignment costs a [`CostProgram`] is priced against: estimated
/// speed of each abstract processor's host plus pairwise link costs.
///
/// Implemented by [`CostModel`], by [`hetsim::PairTable`] (the cluster's
/// one pair-cost table, priced by rank position) and by the selection
/// engine's assignment view in `hmpi` (which looks an abstract processor's
/// pairs up in a world-rank [`hetsim::PairTable`] instead of materialising
/// p×p matrices per assignment).
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

/// A [`hetsim::PairTable`] priced by rank position: the table's latencies,
/// bandwidths and hosting nodes, with unit speeds (collective pricing
/// involves no computation).
impl PairCost for hetsim::PairTable {
    #[inline]
    fn speed(&self, _proc: usize) -> f64 {
        1.0
    }
    #[inline]
    fn latency(&self, src: usize, dst: usize) -> f64 {
        hetsim::PairTable::latency(self, src, dst)
    }
    #[inline]
    fn bandwidth(&self, src: usize, dst: usize) -> f64 {
        hetsim::PairTable::bandwidth(self, src, dst)
    }
    #[inline]
    fn node_of(&self, proc: usize) -> usize {
        self.nodes[proc].index()
    }
}

/// One single-assignment instruction. Each writes the next free value
/// slot(s) in program order; activity costs are prescaled at record time,
/// so pricing performs no percentage arithmetic.
#[derive(Debug, Clone, Copy)]
enum Ins {
    /// `v[input] + units / speed(proc)`.
    Compute { proc: u32, input: u32, units: f64 },
    /// Two slots: the sender's `v[s_in] + lat`, then the receiver's
    /// `max(v[d_in], v[s_in] + (lat + bytes / bw))`.
    Transfer {
        src: u32,
        dst: u32,
        s_in: u32,
        d_in: u32,
        bytes: f64,
    },
    /// `max(v[merge], v[branch])`: one processor's join of one `par` branch.
    Max { merge: u32, branch: u32 },
}

/// A model's scheme lowered to single-assignment, assignment-independent
/// max/plus code.
#[derive(Debug, Clone)]
pub struct CostProgram {
    n: usize,
    ins: Vec<Ins>,
    /// Each processor's final slot.
    last: Vec<u32>,
    /// Recorded events, `par` markers included.
    events: usize,
    /// `U_p`: per-processor computation totals for the admissible bound;
    /// `None` when unusable (negative units).
    units: Option<Vec<f64>>,
}

/// Recording sink: prescales activities, drops the transfers that cost
/// nothing and lowers the rest to SSA form.
struct Recorder<'a> {
    volumes: &'a [f64],
    comm: &'a [Vec<f64>],
    ins: Vec<Ins>,
    slots: u32,
    /// Each processor's current slot.
    cur: Vec<u32>,
    events: usize,
    /// The open `par` blocks, innermost at `depth - 1`; frames from `depth`
    /// on are kept for reuse by later blocks.
    frames: Vec<Frame>,
    depth: usize,
}

/// One open `par` block.
#[derive(Default)]
struct Frame {
    /// Each processor's slot at the block's entry.
    snap: Vec<u32>,
    /// The join of the finished branches.
    merge: Vec<u32>,
}

impl Recorder<'_> {
    /// Appends `ins` and returns the first of the `outs` slots it writes.
    fn emit(&mut self, ins: Ins, outs: u32) -> u32 {
        let out = self.slots;
        self.ins.push(ins);
        self.slots += outs;
        out
    }

    /// The index of the innermost open frame.
    fn open(&self, event: &str) -> usize {
        assert!(
            self.depth > 0,
            "PerformanceModel::run_scheme contract broken: {event} outside a par block"
        );
        self.depth - 1
    }
}

impl SchemeSink for Recorder<'_> {
    fn compute(&mut self, proc: usize, percent: f64) {
        self.events += 1;
        let ins = Ins::Compute {
            proc: proc as u32,
            input: self.cur[proc],
            units: self.volumes[proc] * percent / 100.0,
        };
        self.cur[proc] = self.emit(ins, 1);
    }

    fn transfer(&mut self, src: usize, dst: usize, percent: f64) {
        if src == dst {
            return;
        }
        let bytes = self.comm[src][dst] * percent / 100.0;
        if bytes <= 0.0 {
            return;
        }
        self.events += 1;
        let ins = Ins::Transfer {
            src: src as u32,
            dst: dst as u32,
            s_in: self.cur[src],
            d_in: self.cur[dst],
            bytes,
        };
        let out = self.emit(ins, 2);
        self.cur[src] = out;
        self.cur[dst] = out + 1;
    }

    fn par_begin(&mut self) {
        self.events += 1;
        if self.depth == self.frames.len() {
            self.frames.push(Frame::default());
        }
        let f = &mut self.frames[self.depth];
        f.snap.clone_from(&self.cur);
        f.merge.clone_from(&self.cur);
        self.depth += 1;
    }

    fn par_branch(&mut self) {
        self.events += 1;
        let d = self.open("par_branch");
        let f = &mut self.frames[d];
        for (p, &branch) in self.cur.iter().enumerate() {
            if branch != f.snap[p] {
                let merge = f.merge[p];
                self.ins.push(Ins::Max { merge, branch });
                f.merge[p] = self.slots;
                self.slots += 1;
            }
        }
        self.cur.clone_from(&f.snap);
    }

    fn par_end(&mut self) {
        self.events += 1;
        // Activities after the last `par_branch` join nothing.
        self.depth = self.open("par_end");
        self.cur.clone_from(&self.frames[self.depth].merge);
    }
}

/// Reusable pricing scratch: the value array. After the first evaluation
/// of a program, pricing allocates nothing.
#[derive(Debug, Clone)]
pub struct PriceScratch {
    n: usize,
    vals: Vec<f64>,
}

impl PriceScratch {
    /// Scratch for programs over `n` abstract processors.
    pub fn new(n: usize) -> Self {
        PriceScratch {
            n,
            vals: Vec::new(),
        }
    }
}

impl CostProgram {
    /// Records `model`'s event stream once, prescaled by its volumes, and
    /// lowers it to SSA form.
    ///
    /// # Errors
    /// Propagates scheme evaluation errors from
    /// [`PerformanceModel::run_scheme`]; a program cannot be recorded for a
    /// model whose scheme does not evaluate.
    ///
    /// # Panics
    /// Panics at the offending event if the model breaks the
    /// [`PerformanceModel::run_scheme`] contract on `par` structure: a
    /// `par_branch` or `par_end` outside a block, or a block still open
    /// when the scheme returns.
    pub fn record<M: PerformanceModel + ?Sized>(model: &M) -> Result<CostProgram, EvalError> {
        let n = model.num_processors();
        let mut rec = Recorder {
            volumes: model.volumes(),
            comm: model.comm_bytes(),
            ins: Vec::new(),
            slots: n as u32,
            cur: (0..n as u32).collect(),
            events: 0,
            frames: Vec::new(),
            depth: 0,
        };
        model.run_scheme(&mut rec)?;
        assert_eq!(
            rec.depth, 0,
            "PerformanceModel::run_scheme contract broken: par blocks still open at the end"
        );
        let mut program = CostProgram {
            n,
            ins: rec.ins,
            last: rec.cur,
            events: rec.events,
            units: None,
        };
        program.units = program.unit_totals();
        Ok(program)
    }

    /// Number of abstract processors the program spans.
    pub fn num_processors(&self) -> usize {
        self.n
    }

    /// Number of recorded events, `par` markers included and dropped
    /// transfers not (for diagnostics and benchmarks).
    pub fn num_ops(&self) -> usize {
        self.events
    }

    /// Per-processor computation totals `U_p` at unit speed, if usable as
    /// an admissible bound (all units non-negative). `max_p U_p / speed_p`
    /// never exceeds the true makespan for any cost with non-negative
    /// latencies and positive bandwidths.
    pub fn compute_units(&self) -> Option<&[f64]> {
        self.units.as_deref()
    }

    /// Full evaluation: the makespan of the program under `cost`.
    ///
    /// # Panics
    /// Panics if `scratch` was sized for another processor count.
    pub fn price<C: PairCost + ?Sized>(&self, cost: &C, scratch: &mut PriceScratch) -> f64 {
        assert_eq!(scratch.n, self.n, "scratch sized for this program");
        let vals = &mut scratch.vals;
        vals.clear();
        vals.resize(self.n, 0.0);
        for ins in &self.ins {
            match *ins {
                Ins::Compute { proc, input, units } => {
                    vals.push(vals[input as usize] + units / cost.speed(proc as usize));
                }
                Ins::Transfer {
                    src,
                    dst,
                    s_in,
                    d_in,
                    bytes,
                } => {
                    let (s, d) = (src as usize, dst as usize);
                    let lat = cost.latency(s, d);
                    let total = lat + bytes / cost.bandwidth(s, d);
                    let start = vals[s_in as usize];
                    let arrival = vals[d_in as usize].max(start + total);
                    vals.push(start + lat);
                    vals.push(arrival);
                }
                Ins::Max { merge, branch } => {
                    vals.push(vals[merge as usize].max(vals[branch as usize]));
                }
            }
        }
        // The largest final clock, folded in processor order.
        self.last.iter().fold(0.0, |t, &s| t.max(vals[s as usize]))
    }

    /// `U_p`: computes at unit speed, transfers passing their inputs
    /// through. `None` if any unit count is negative (the monotonicity
    /// argument behind the bound needs non-negative advances).
    fn unit_totals(&self) -> Option<Vec<f64>> {
        let mut v = vec![0.0f64; self.n];
        for ins in &self.ins {
            match *ins {
                Ins::Compute { units, .. } if units < 0.0 => return None,
                Ins::Compute { input, units, .. } => v.push(v[input as usize] + units),
                Ins::Transfer { s_in, d_in, .. } => {
                    v.push(v[s_in as usize]);
                    v.push(v[d_in as usize]);
                }
                Ins::Max { merge, branch } => v.push(v[merge as usize].max(v[branch as usize])),
            }
        }
        Some(self.last.iter().map(|&s| v[s as usize]).collect())
    }
}

#[cfg(test)]
#[path = "../tests/support/clock_reference.rs"]
mod clock_reference;

#[cfg(test)]
mod tests {
    use super::clock_reference::{clocks, gen_events, makespan, Ev, Replay, Rng};
    use super::*;
    use crate::model::{CompiledModel, ParamValue};
    use proptest::prelude::*;

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

    /// Reproducible heterogeneous costs: speeds in `[1, 200)`, latencies
    /// in `[0, 1e-4)`, bandwidths in `[1e5, 1e7)`.
    fn hetero_cost(n: usize, seed: u64) -> CostModel {
        let mut cost = CostModel::homogeneous(n, 1.0, 0.0, 1.0);
        let mut rng = Rng::new(seed);
        for p in 0..n {
            reroll(&mut cost, p, 0.0, &mut rng);
        }
        cost
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
        // One transfer and one computation.
        assert!(matches!(
            prog.ins[..],
            [
                Ins::Transfer { src: 0, dst: 1, .. },
                Ins::Compute { proc: 0, .. }
            ]
        ));
    }

    fn stream(events: Vec<Ev>) -> Replay {
        Replay {
            volumes: vec![1.0; 2],
            comm: vec![vec![1.0; 2]; 2],
            parent: 0,
            events,
        }
    }

    #[test]
    #[should_panic(expected = "contract broken: par_branch outside a par block")]
    fn a_stray_par_branch_panics_at_record() {
        let _ = CostProgram::record(&stream(vec![Ev::Compute(0, 100.0), Ev::ParBranch]));
    }

    #[test]
    #[should_panic(expected = "contract broken: par_end outside a par block")]
    fn a_stray_par_end_panics_at_record() {
        let events = vec![Ev::ParBegin, Ev::ParBranch, Ev::ParEnd, Ev::ParEnd];
        let _ = CostProgram::record(&stream(events));
    }

    #[test]
    #[should_panic(expected = "contract broken: par blocks still open")]
    fn a_par_block_left_open_panics_at_record() {
        let events = vec![Ev::ParBegin, Ev::Transfer(0, 1, 100.0), Ev::ParBranch];
        let _ = CostProgram::record(&stream(events));
    }

    /// Redraws every cost that involves processor `p`: its speed and the
    /// latency and bandwidth of each pair it is in. Latencies are drawn
    /// from `[lat_lo, 1e-4)`.
    fn reroll(cost: &mut CostModel, p: usize, lat_lo: f64, rng: &mut Rng) {
        cost.speeds[p] = rng.range(1.0, 200.0);
        for q in 0..cost.speeds.len() {
            cost.latency[p][q] = rng.range(lat_lo, 1e-4);
            cost.latency[q][p] = rng.range(lat_lo, 1e-4);
            cost.bandwidth[p][q] = rng.range(1e5, 1e7);
            cost.bandwidth[q][p] = rng.range(1e5, 1e7);
        }
    }

    fn bits(v: Option<&[f64]>) -> Option<Vec<u64>> {
        v.map(|v| v.iter().map(|x| x.to_bits()).collect())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// On random streams (nesting depth 3, zero-iteration blocks,
        /// empty branches, self and zero-byte transfers, negative units,
        /// negative latencies one case in three) `price`, once and again
        /// on the same scratch after every single and pair of processors
        /// has its costs redrawn, and `compute_units` hold the clock-vector
        /// reference's bits.
        #[test]
        fn pricing_matches_the_clock_vector_reference(seed in any::<u64>()) {
            let mut rng = Rng::new(seed);
            let n = 1 + rng.below(5);
            let model = Replay {
                volumes: (0..n).map(|_| rng.range(0.0, 1000.0)).collect(),
                comm: (0..n)
                    .map(|_| {
                        let mut cell = || if rng.below(3) == 0 { 0.0 } else { rng.range(0.0, 1e6) };
                        (0..n).map(|_| cell()).collect()
                    })
                    .collect(),
                parent: 0,
                events: gen_events(&mut rng, n),
            };
            let lat_lo = if rng.below(3) == 0 { -1e-4 } else { 0.0 };
            let mut cost = CostModel::homogeneous(n, 1.0, 0.0, 1.0);
            for p in 0..n {
                reroll(&mut cost, p, lat_lo, &mut rng);
            }
            let reference = |c: &CostModel| makespan(&clocks(&model, Some(c)).unwrap());
            let prog = CostProgram::record(&model).unwrap();
            let mut scratch = PriceScratch::new(n);
            let t0 = prog.price(&cost, &mut scratch);
            prop_assert_eq!(t0.to_bits(), reference(&cost).to_bits());

            let units = (!model.has_negative_units()).then(|| clocks(&model, None).unwrap());
            prop_assert_eq!(bits(prog.compute_units()), bits(units.as_deref()));

            for i in 0..n {
                for j in i..n {
                    let changed = if i == j { vec![i] } else { vec![i, j] };
                    let mut moved = cost.clone();
                    for &p in &changed {
                        reroll(&mut moved, p, lat_lo, &mut rng);
                    }
                    let t = prog.price(&moved, &mut scratch);
                    prop_assert_eq!(t.to_bits(), reference(&moved).to_bits(), "changed {:?}", changed);
                }
            }
        }
    }
}
