//! The selection engine: a reusable, allocation-free objective evaluator.
//!
//! [`Evaluator`] is created **once** per `select_mapping` search. At
//! construction it:
//!
//! * records the model's scheme into a flat [`CostProgram`] (the event
//!   stream is assignment-independent, so one recording prices every
//!   candidate mapping);
//! * snapshots the per-world-rank node index and estimated speed, and the
//!   full node-pair latency/bandwidth tables from the [`Cluster`](hetsim::Cluster) —
//!   pricing an assignment then resolves pair costs by two table lookups
//!   instead of materialising p×p matrices.
//!
//! Per evaluation, only two small per-processor scratch arrays are
//! refreshed (`proc → node`, `proc → speed`); the pricing itself reuses a
//! [`PriceScratch`]. Nothing is allocated on the hot path.
//!
//! For local-search and annealing moves the evaluator also supports
//! *incremental* pricing: [`Evaluator::rebase`] records a baseline
//! assignment with per-segment clock checkpoints, and [`Evaluator::probe`]
//! prices an assignment differing on a few processors by re-executing only
//! the affected segments (see [`perfmodel::compile`]). Delta pricing is
//! exact by construction — the same floating-point operations on the same
//! values as a full evaluation — so a probe is never re-priced in full:
//! `tests/engine_equiv.rs` holds every probe of a random walk to the bits
//! of the interpreter ([`crate::predicted_time`]), and a periodic full
//! re-price could only hide a wrong delta rule on the probes between two
//! of them.
//!
//! A model whose scheme fails to evaluate at record time yields an
//! evaluator pricing every assignment at `+inf` — what
//! `predicted_time(..).unwrap_or(INFINITY)` reads; `select_mapping` then
//! surfaces the typed [`crate::SelectError::Eval`] through its final
//! feasibility check.

use crate::mapping::SelectionCtx;
use hetsim::NodeId;
use perfmodel::{CostProgram, DeltaBaseline, PairCost, PerformanceModel, PriceScratch};

/// A reusable objective evaluator for one (model, selection context) pair:
/// the recorded program and cost tables, plus the scratch one search
/// prices with.
#[derive(Debug)]
pub struct Evaluator {
    /// `None` when recording failed: every evaluation prices at `+inf`.
    program: Option<CostProgram>,
    p: usize,
    n_nodes: usize,
    lat: Vec<f64>,
    bw: Vec<f64>,
    node_of_world: Vec<u32>,
    speed_of_world: Vec<f64>,
    links_monotone: bool,
    proc_node: Vec<u32>,
    proc_speed: Vec<f64>,
    scratch: PriceScratch,
    baseline: DeltaBaseline,
    base_assignment: Vec<usize>,
    evals: u64,
    probes: u64,
}

/// Table-backed [`PairCost`] view over the evaluator's scratch arrays.
struct AssignCost<'a> {
    proc_node: &'a [u32],
    proc_speed: &'a [f64],
    lat: &'a [f64],
    bw: &'a [f64],
    n_nodes: usize,
}

impl PairCost for AssignCost<'_> {
    #[inline]
    fn speed(&self, proc: usize) -> f64 {
        self.proc_speed[proc]
    }
    #[inline]
    fn latency(&self, src: usize, dst: usize) -> f64 {
        self.lat[self.proc_node[src] as usize * self.n_nodes + self.proc_node[dst] as usize]
    }
    #[inline]
    fn bandwidth(&self, src: usize, dst: usize) -> f64 {
        self.bw[self.proc_node[src] as usize * self.n_nodes + self.proc_node[dst] as usize]
    }
}

macro_rules! assign_cost {
    ($self:ident) => {
        AssignCost {
            proc_node: &$self.proc_node,
            proc_speed: &$self.proc_speed,
            lat: &$self.lat,
            bw: &$self.bw,
            n_nodes: $self.n_nodes,
        }
    };
}

impl Evaluator {
    /// Builds the evaluator: records the scheme once and snapshots the
    /// cluster's node-pair cost tables and the current speed estimates.
    pub fn new(model: &dyn PerformanceModel, ctx: &SelectionCtx<'_>) -> Self {
        let p = model.num_processors();
        let program = CostProgram::record(model).ok();
        let n_nodes = ctx.cluster.len();
        let mut lat = vec![0.0f64; n_nodes * n_nodes];
        let mut bw = vec![f64::INFINITY; n_nodes * n_nodes];
        for i in 0..n_nodes {
            for j in 0..n_nodes {
                let link = ctx.cluster.link(NodeId(i), NodeId(j));
                lat[i * n_nodes + j] = link.latency;
                bw[i * n_nodes + j] = link.bandwidth;
            }
        }
        // The admissible bound needs every op to only *advance* clocks.
        let links_monotone = lat.iter().all(|&l| l >= 0.0) && bw.iter().all(|&b| b > 0.0);
        let node_of_world: Vec<u32> = ctx.placement.iter().map(|n| n.index() as u32).collect();
        let speed_of_world: Vec<f64> = ctx
            .placement
            .iter()
            .map(|&n| ctx.estimates.speed(n))
            .collect();
        Evaluator {
            program,
            p,
            n_nodes,
            lat,
            bw,
            node_of_world,
            speed_of_world,
            links_monotone,
            proc_node: vec![0; p],
            proc_speed: vec![0.0; p],
            scratch: PriceScratch::new(p),
            baseline: DeltaBaseline::default(),
            base_assignment: Vec::new(),
            evals: 0,
            probes: 0,
        }
    }

    /// Points abstract processor `i` at world rank `w`'s node and speed.
    fn place(&mut self, i: usize, w: usize) {
        self.proc_node[i] = self.node_of_world[w];
        self.proc_speed[i] = self.speed_of_world[w];
    }

    fn load(&mut self, assignment: &[usize]) {
        debug_assert_eq!(assignment.len(), self.p);
        for (i, &w) in assignment.iter().enumerate() {
            self.place(i, w);
        }
    }

    /// Full evaluation of `assignment[abstract] = world rank`. Bit-identical
    /// to [`crate::predicted_time`]`.unwrap_or(INFINITY)` under the same
    /// estimates.
    pub fn eval(&mut self, assignment: &[usize]) -> f64 {
        self.evals += 1;
        self.load(assignment);
        let Some(program) = &self.program else {
            return f64::INFINITY;
        };
        program.price(&assign_cost!(self), &mut self.scratch)
    }

    /// Full evaluation that also makes `assignment` the baseline for
    /// subsequent [`Evaluator::probe`] calls.
    pub fn rebase(&mut self, assignment: &[usize]) -> f64 {
        self.evals += 1;
        self.load(assignment);
        self.base_assignment.clear();
        self.base_assignment.extend_from_slice(assignment);
        let Some(program) = &self.program else {
            return f64::INFINITY;
        };
        program.price_baseline(&assign_cost!(self), &mut self.scratch, &mut self.baseline)
    }

    /// Prices `assignment`, which differs from the current baseline exactly
    /// at the abstract processors in `changed`. Exact: the delta path
    /// performs the same floating-point operations on the same values as a
    /// full evaluation. Leaves the baseline untouched.
    ///
    /// # Panics
    /// Panics if no baseline was set with [`Evaluator::rebase`].
    pub fn probe(&mut self, assignment: &[usize], changed: &[usize]) -> f64 {
        self.probes += 1;
        assert_eq!(
            self.base_assignment.len(),
            assignment.len(),
            "probe needs a baseline of the same shape (call rebase first)"
        );
        for &i in changed {
            self.place(i, assignment[i]);
        }
        let t = match &self.program {
            Some(program) => program.price_delta(
                &assign_cost!(self),
                &self.baseline,
                changed,
                &mut self.scratch,
            ),
            None => f64::INFINITY,
        };
        for &i in changed {
            self.place(i, self.base_assignment[i]);
        }
        t
    }

    /// Per-processor computation totals `U_p` for the admissible
    /// branch-and-bound lower bound `max_p U_p / speed_p`, or `None` when
    /// the bound is unusable (recording failed, negative units, or link
    /// costs that could move clocks backwards).
    pub(crate) fn compute_units(&self) -> Option<&[f64]> {
        if !self.links_monotone {
            return None;
        }
        self.program.as_ref()?.compute_units()
    }

    /// The snapshotted speed estimate for a world rank.
    pub(crate) fn world_speed(&self, world: usize) -> f64 {
        self.speed_of_world[world]
    }

    /// Number of flat cost ops in the recorded program (0 if recording
    /// failed) — diagnostics for the bench harness.
    pub fn num_ops(&self) -> usize {
        self.program.as_ref().map_or(0, |p| p.num_ops())
    }

    /// Full objective evaluations performed so far ([`Evaluator::eval`]
    /// plus [`Evaluator::rebase`]) — selection-search observability.
    pub(crate) fn eval_count(&self) -> u64 {
        self.evals
    }

    /// Incremental delta probes performed so far.
    pub(crate) fn probe_count(&self) -> u64 {
        self.probes
    }
}
