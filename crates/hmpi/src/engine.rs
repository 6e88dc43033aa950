//! The selection engine: a reusable, allocation-free objective evaluator.
//!
//! [`Evaluator`] is created **once** per `select_mapping` search. At
//! construction it:
//!
//! * records the model's scheme into a flat [`CostProgram`] (the event
//!   stream is assignment-independent, so one recording prices every
//!   candidate mapping);
//! * snapshots the estimated speed of every world rank, and the
//!   world-rank pair table of the [`Cluster`](hetsim::Cluster)
//!   (`pair_table` over the placement: the link the transport sends
//!   between distinct ranks over, so two ranks on one node pay the memory
//!   bus when one is modelled) — the same table the collective planner
//!   prices against, so pricing an assignment resolves pair costs by one
//!   table lookup instead of materialising p×p matrices.
//!
//! An evaluation borrows the assignment itself as the cost view
//! (abstract processor → world rank → table row); the pricing reuses a
//! [`PriceScratch`]. Nothing is allocated or refilled on the hot path.
//! Every search prices each candidate it visits once, with
//! [`Evaluator::eval`]; `tests/engine_equiv.rs` holds every evaluation to
//! the bits of a clock-vector reference interpreter over a p×p cost model
//! built from the cluster.
//!
//! A model whose scheme fails to evaluate at record time yields an
//! evaluator pricing every assignment at `+inf`. The scheme never sees
//! costs, so it fails on every assignment or on none: `select_mapping`
//! reads the one recording's error and returns the typed
//! [`crate::SelectError::Eval`] before searching.

use crate::mapping::SelectionCtx;
use hetsim::PairTable;
use perfmodel::{CostProgram, EvalError, PairCost, PerformanceModel, PriceScratch};

/// A reusable objective evaluator for one (model, selection context) pair:
/// the recorded program, the world-rank pair table and speeds, plus the
/// scratch one search prices with.
#[derive(Debug)]
pub struct Evaluator {
    /// The one recording of the model's scheme; when it failed, every
    /// evaluation prices at `+inf`.
    program: Result<CostProgram, EvalError>,
    p: usize,
    /// Link costs by world-rank pair.
    table: PairTable,
    speed_of_world: Vec<f64>,
    links_monotone: bool,
    scratch: PriceScratch,
    evals: u64,
}

/// The [`PairCost`] of one assignment: abstract processor `i` runs as
/// world rank `assignment[i]`, with that rank's speed and links.
struct AssignCost<'a> {
    assignment: &'a [usize],
    speed_of_world: &'a [f64],
    table: &'a PairTable,
}

impl PairCost for AssignCost<'_> {
    #[inline]
    fn speed(&self, proc: usize) -> f64 {
        self.speed_of_world[self.assignment[proc]]
    }
    #[inline]
    fn latency(&self, src: usize, dst: usize) -> f64 {
        self.table
            .latency(self.assignment[src], self.assignment[dst])
    }
    #[inline]
    fn bandwidth(&self, src: usize, dst: usize) -> f64 {
        self.table
            .bandwidth(self.assignment[src], self.assignment[dst])
    }
}

impl Evaluator {
    /// Builds the evaluator: records the scheme once and snapshots the
    /// cluster's world-rank pair table and the current speed estimates.
    pub fn new(model: &dyn PerformanceModel, ctx: &SelectionCtx<'_>) -> Self {
        let p = model.num_processors();
        let program = CostProgram::record(model);
        let table = ctx.cluster.pair_table(ctx.placement);
        // The admissible bound needs every op to only *advance* clocks.
        let n = table.n;
        let links_monotone = (0..n)
            .all(|i| (0..n).all(|j| table.latency(i, j) >= 0.0 && table.bandwidth(i, j) > 0.0));
        let speed_of_world: Vec<f64> = ctx
            .placement
            .iter()
            .map(|&node| ctx.estimates.speed(node))
            .collect();
        Evaluator {
            program,
            p,
            table,
            speed_of_world,
            links_monotone,
            scratch: PriceScratch::new(p),
            evals: 0,
        }
    }

    /// Prices `assignment[abstract] = world rank` under the snapshotted
    /// estimates: the predicted execution time in seconds.
    pub fn eval(&mut self, assignment: &[usize]) -> f64 {
        debug_assert_eq!(assignment.len(), self.p);
        self.evals += 1;
        let Ok(program) = &self.program else {
            return f64::INFINITY;
        };
        let cost = AssignCost {
            assignment,
            speed_of_world: &self.speed_of_world,
            table: &self.table,
        };
        program.price(&cost, &mut self.scratch)
    }

    /// [`Evaluator::eval`] under its former baseline name, kept for the
    /// host-time ledger's probe micro-bench.
    pub fn rebase(&mut self, assignment: &[usize]) -> f64 {
        self.eval(assignment)
    }

    /// [`Evaluator::eval`] under its former probe name, kept for the
    /// host-time ledger's probe micro-bench; `changed` is ignored.
    pub fn probe(&mut self, assignment: &[usize], _changed: &[usize]) -> f64 {
        self.eval(assignment)
    }

    /// Per-processor computation totals `U_p` for the admissible
    /// branch-and-bound lower bound `max_p U_p / speed_p`, or `None` when
    /// the bound is unusable (recording failed, negative units, or link
    /// costs that could move clocks backwards).
    pub(crate) fn compute_units(&self) -> Option<&[f64]> {
        if !self.links_monotone {
            return None;
        }
        self.program.as_ref().ok()?.compute_units()
    }

    /// Why the scheme could not be recorded, if it could not.
    pub(crate) fn recording_error(&self) -> Option<&EvalError> {
        self.program.as_ref().err()
    }

    /// The snapshotted speed estimate for a world rank.
    pub(crate) fn world_speed(&self, world: usize) -> f64 {
        self.speed_of_world[world]
    }

    /// Number of recorded scheme events in the program (0 if recording
    /// failed) — diagnostics for the bench harness.
    pub fn num_ops(&self) -> usize {
        self.program.as_ref().map_or(0, CostProgram::num_ops)
    }

    /// Objective evaluations performed so far — selection-search
    /// observability.
    pub(crate) fn eval_count(&self) -> u64 {
        self.evals
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetsim::{Cluster, Link, NodeId, Protocol, SpeedEstimates, TopologyBuilder};

    fn model(src: &str) -> perfmodel::ModelInstance {
        perfmodel::CompiledModel::compile(src)
            .unwrap()
            .instantiate(&[])
            .unwrap()
    }

    fn cluster() -> Cluster {
        TopologyBuilder::new()
            .node("fast", 100.0)
            .node("slow", 10.0)
            .node("mid", 50.0)
            .intra_switch(Link::new(1e-3, 1e6, Protocol::Tcp))
            .build()
            .into_parts()
            .0
    }

    /// Prices `assignment` with a fresh evaluator over every world rank.
    fn eval(
        model: &dyn PerformanceModel,
        assignment: &[usize],
        cluster: &Cluster,
        placement: &[NodeId],
        estimates: &SpeedEstimates,
    ) -> f64 {
        let ctx = SelectionCtx {
            cluster,
            placement,
            estimates,
            candidates: (0..placement.len()).collect(),
            pinned_parent: None,
        };
        Evaluator::new(model, &ctx).eval(assignment)
    }

    #[test]
    fn eval_reflects_the_mapping() {
        // One 1 MB transfer 0 -> 1, then 100 units on each processor: the
        // speeds follow the assignment, the link costs 1 ms + 1 s.
        let c = cluster();
        let placement: Vec<NodeId> = c.node_ids().collect();
        let est = SpeedEstimates::from_base_speeds(&c);
        let model = model(
            "algorithm T() { coord I=2; node {I>=0: bench*(100);};
               link {I==0: length*(1000000) [0]->[1];}; parent[0]; }",
        );
        let slow_first = eval(&model, &[1, 0], &c, &placement, &est);
        assert!((slow_first - (1e-3 + 10.0)).abs() < 1e-9, "{slow_first}");
        let fast_first = eval(&model, &[0, 1], &c, &placement, &est);
        assert!(
            (fast_first - (1e-3 + 1.0 + 10.0)).abs() < 1e-9,
            "{fast_first}"
        );
    }

    #[test]
    fn same_node_pairs_price_as_loopback() {
        // Two ranks on one node: a gigabyte between them costs nothing.
        let (c, placement) = TopologyBuilder::new()
            .node("smp", 50.0)
            .ranks(2)
            .build()
            .into_parts();
        let est = SpeedEstimates::from_base_speeds(&c);
        let model = model(
            "algorithm T() { coord I=2; node {I>=0: bench*(50);};
               link (L=2) {I!=L: length*(1000000000) [I]->[L];}; parent[0]; }",
        );
        assert_eq!(eval(&model, &[0, 1], &c, &placement, &est), 1.0);
    }

    #[test]
    fn eval_prefers_faster_nodes() {
        let c = cluster();
        let placement: Vec<NodeId> = c.node_ids().collect();
        let est = SpeedEstimates::from_base_speeds(&c);
        let model = model("algorithm T() { coord I=1; node {I>=0: bench*(100);}; parent[0]; }");
        assert_eq!(eval(&model, &[0], &c, &placement, &est), 1.0);
        assert_eq!(eval(&model, &[1], &c, &placement, &est), 10.0);
    }

    #[test]
    fn eval_uses_estimates_not_truth() {
        let c = cluster();
        let placement: Vec<NodeId> = c.node_ids().collect();
        let est = SpeedEstimates::from_speeds(vec![1.0, 1000.0, 1.0]);
        let model = model("algorithm T() { coord I=1; node {I>=0: bench*(100);}; parent[0]; }");
        // Under (wrong) estimates the "slow" node looks fastest.
        assert_eq!(eval(&model, &[1], &c, &placement, &est), 0.1);
    }
}
