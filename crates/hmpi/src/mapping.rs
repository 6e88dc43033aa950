//! Group selection: mapping abstract processors onto physical processes.
//!
//! "During the creation of this group of processes, HMPI runtime system
//! solves the problem of selection of the optimal set of processes running
//! on different computers of the heterogeneous network." The objective is
//! the predicted execution time; this module provides the search
//! strategies:
//!
//! * [`MappingAlgorithm::Exhaustive`] — enumerate every injective mapping
//!   depth first, candidates in list order, pruning with an admissible
//!   computation-only lower bound (branch and bound). Exact: the first
//!   strict improver in lexicographic candidate order wins, with or
//!   without the bound. Falls back to the refined greedy beyond a work cap;
//! * [`MappingAlgorithm::GreedyRefined`] — greedy start (abstract
//!   processors sorted by volume paired off with candidates sorted by
//!   estimated speed, the optimal pairing for pure computation by the
//!   rearrangement inequality), then first-improvement local search over
//!   pairwise swaps and replacements with unused candidates (the default).
//!   `GreedyRefined { max_rounds: 0 }` is the bare greedy pairing;
//! * [`MappingAlgorithm::Annealing`] — seeded simulated annealing for
//!   rugged objective landscapes (heavy communication terms).
//!
//! The model's *parent* processor is pinned to the parent process ("every
//! newly created group has exactly one process shared with already existing
//! groups ... the connecting link, through which results of computations are
//! passed").
//!
//! There is one selection path. Every search prices assignments through one
//! [`Evaluator`] built once per call: the model's scheme recorded as a flat
//! cost program, and each candidate a search visits priced once with
//! [`Evaluator::eval`]; a search keeps the price of a move it accepts.
//! Every evaluation and every [`Mapping::predicted`] reproduce the bits of
//! a reference price — the model pricer over a freshly built p×p cost
//! model (`tests/engine_equiv.rs`). The search is sequential, so a [`Mapping`],
//! its [`SearchStats`] included, is a pure function of `select_mapping`'s
//! arguments.

use crate::engine::Evaluator;
use hetsim::{Cluster, NodeId, SpeedEstimates};
use perfmodel::PerformanceModel;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt;

/// Everything the search needs to price a candidate mapping.
#[derive(Debug, Clone)]
pub struct SelectionCtx<'a> {
    /// The cluster model.
    pub cluster: &'a Cluster,
    /// `placement[world_rank] = node`.
    pub placement: &'a [NodeId],
    /// Current speed estimates (from the latest `HMPI_Recon`).
    pub estimates: &'a SpeedEstimates,
    /// World ranks eligible for membership (the parent plus all free
    /// processes): distinct indices into `placement`, which
    /// [`select_mapping`] checks.
    pub candidates: Vec<usize>,
    /// World rank that must host the model's parent processor.
    pub pinned_parent: Option<usize>,
}

/// Objective-evaluation counters from one selection search — the
/// observability layer's view of how hard the search worked.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SearchStats {
    /// Objective evaluations: each candidate mapping the search priced.
    pub evals: u64,
    /// Always 0: every pricing is counted in `evals`. Kept because the
    /// host-time ledger still reads it.
    pub probes: u64,
}

/// A selection result.
#[derive(Debug, Clone, PartialEq)]
pub struct Mapping {
    /// `assignment[abstract processor] = world rank`.
    pub assignment: Vec<usize>,
    /// Predicted execution time in seconds under the current estimates.
    pub predicted: f64,
    /// How many objective evaluations the search performed.
    pub stats: SearchStats,
}

/// Search strategy for [`select_mapping`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MappingAlgorithm {
    /// Exact enumeration with branch-and-bound pruning (small instances;
    /// falls back to `GreedyRefined` above 5×10⁷ candidate mappings).
    Exhaustive,
    /// Greedy start plus swap/replace local search. The default;
    /// `max_rounds: 0` is the volume/speed sorted pairing alone.
    GreedyRefined {
        /// Maximum improvement rounds.
        max_rounds: usize,
    },
    /// Seeded simulated annealing.
    Annealing {
        /// RNG seed (results are deterministic per seed).
        seed: u64,
        /// Number of proposal steps.
        iters: usize,
    },
}

impl Default for MappingAlgorithm {
    fn default() -> Self {
        MappingAlgorithm::GreedyRefined { max_rounds: 64 }
    }
}

/// Work cap for exhaustive enumeration (number of mappings). Branch and
/// bound prunes most of the tree on computation-dominated instances and
/// the compiled evaluator prices a leaf in well under a microsecond per
/// cost op, so the cap sits far above what an interpreter could afford.
pub(crate) const EXHAUSTIVE_CAP: u64 = 50_000_000;

/// Errors from the selection search.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SelectError {
    /// The model needs more processes than there are candidates.
    NotEnoughProcesses {
        /// Abstract processors required.
        required: usize,
        /// Candidates available.
        available: usize,
    },
    /// The pinned parent is not among the candidates.
    ParentNotCandidate {
        /// The offending world rank.
        world_rank: usize,
    },
    /// A candidate is not a rank of the placement, or is listed twice (a
    /// search over such a list would index out of bounds or place two
    /// abstract processors on one process).
    InvalidCandidate {
        /// The offending world rank.
        world_rank: usize,
    },
    /// The model's scheme program failed to evaluate. The scheme never
    /// sees costs, so it fails on every assignment or on none.
    Eval(
        /// The evaluation error, rendered.
        String,
    ),
}

impl fmt::Display for SelectError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SelectError::NotEnoughProcesses {
                required,
                available,
            } => write!(
                f,
                "model needs {required} processes but only {available} are free"
            ),
            SelectError::ParentNotCandidate { world_rank } => {
                write!(f, "pinned parent rank {world_rank} is not a candidate")
            }
            SelectError::InvalidCandidate { world_rank } => write!(
                f,
                "candidate rank {world_rank} is outside the placement or listed twice"
            ),
            SelectError::Eval(msg) => {
                write!(f, "the model's scheme failed to evaluate: {msg}")
            }
        }
    }
}

impl std::error::Error for SelectError {}

/// Selects the mapping minimising predicted execution time.
///
/// # Errors
/// [`SelectError`] on infeasible instances, on a candidate list that is
/// not a set of placement ranks, and on a scheme that fails to evaluate.
pub fn select_mapping(
    algo: MappingAlgorithm,
    model: &dyn PerformanceModel,
    ctx: &SelectionCtx<'_>,
) -> Result<Mapping, SelectError> {
    let p = model.num_processors();
    validate(ctx, p)?;
    let algo = match algo {
        MappingAlgorithm::Exhaustive
            if exhaustive_count(ctx.candidates.len(), p) > EXHAUSTIVE_CAP =>
        {
            MappingAlgorithm::default()
        }
        other => other,
    };
    let mut ev = Evaluator::new(model, ctx);
    if let Some(e) = ev.recording_error() {
        return Err(SelectError::Eval(e.to_string()));
    }
    let (assignment, predicted) = match algo {
        MappingAlgorithm::GreedyRefined { max_rounds } => {
            local_search(greedy(model, ctx), model, ctx, &mut ev, max_rounds)
        }
        MappingAlgorithm::Exhaustive => {
            let bound = Bound::new(&ev, ctx);
            exhaustive(model, ctx, &mut ev, bound.as_ref())
        }
        MappingAlgorithm::Annealing { seed, iters } => {
            anneal(greedy(model, ctx), model, ctx, &mut ev, seed, iters)
        }
    };
    Ok(Mapping {
        assignment,
        predicted,
        stats: SearchStats {
            evals: ev.eval_count(),
            probes: 0,
        },
    })
}

/// `SelectionCtx` has public fields, so what the searches rely on is
/// checked here, once: enough candidates, every candidate a distinct rank
/// of the placement, the pinned parent among them.
fn validate(ctx: &SelectionCtx<'_>, p: usize) -> Result<(), SelectError> {
    if p > ctx.candidates.len() {
        return Err(SelectError::NotEnoughProcesses {
            required: p,
            available: ctx.candidates.len(),
        });
    }
    let mut listed = vec![false; ctx.placement.len()];
    for &w in &ctx.candidates {
        if w >= listed.len() || std::mem::replace(&mut listed[w], true) {
            return Err(SelectError::InvalidCandidate { world_rank: w });
        }
    }
    match ctx.pinned_parent {
        Some(parent) if !listed.get(parent).is_some_and(|&l| l) => {
            Err(SelectError::ParentNotCandidate { world_rank: parent })
        }
        _ => Ok(()),
    }
}

/// Number of injective mappings of `p` processors onto `c` candidates.
fn exhaustive_count(c: usize, p: usize) -> u64 {
    let mut n: u64 = 1;
    for i in 0..p {
        n = n.saturating_mul((c - i) as u64);
        if n > EXHAUSTIVE_CAP {
            return n;
        }
    }
    n
}

/// Volume-descending / speed-descending pairing, with the parent pinned.
fn greedy(model: &dyn PerformanceModel, ctx: &SelectionCtx<'_>) -> Vec<usize> {
    let p = model.num_processors();
    let volumes = model.volumes();
    let parent_abs = model.parent();

    let mut abs_order: Vec<usize> = (0..p).collect();
    abs_order.sort_by(|&a, &b| volumes[b].total_cmp(&volumes[a]));

    let speed_of = |w: usize| ctx.estimates.speed(ctx.placement[w]);
    let mut cand = ctx.candidates.clone();
    cand.sort_by(|&a, &b| speed_of(b).total_cmp(&speed_of(a)));

    let mut assignment = vec![usize::MAX; p];
    let mut used = vec![false; cand.len()];

    if let Some(parent_w) = ctx.pinned_parent {
        assignment[parent_abs] = parent_w;
        if let Some(pos) = cand.iter().position(|&w| w == parent_w) {
            used[pos] = true;
        }
    }

    for &abs in &abs_order {
        if assignment[abs] != usize::MAX {
            continue;
        }
        let pos = used
            .iter()
            .position(|&u| !u)
            .expect("feasibility checked by caller");
        assignment[abs] = cand[pos];
        used[pos] = true;
    }
    assignment
}

/// First-improvement local search over swaps and replace-with-unused moves.
/// Returns the refined assignment and its predicted time.
fn local_search(
    mut assignment: Vec<usize>,
    model: &dyn PerformanceModel,
    ctx: &SelectionCtx<'_>,
    ev: &mut Evaluator,
    max_rounds: usize,
) -> (Vec<usize>, f64) {
    let p = model.num_processors();
    let parent_abs = model.parent();
    let mut best = ev.eval(&assignment);
    for _ in 0..max_rounds {
        let mut improved = false;

        // Pairwise swaps.
        'swap: for i in 0..p {
            for j in (i + 1)..p {
                assignment.swap(i, j);
                let pin_ok = ctx
                    .pinned_parent
                    .is_none_or(|w| assignment[parent_abs] == w);
                if pin_ok {
                    let t = ev.eval(&assignment);
                    if t < best {
                        best = t;
                        improved = true;
                        continue 'swap;
                    }
                }
                assignment.swap(i, j); // revert
            }
        }

        // Replace an assignment with an unused candidate. Candidates
        // displaced by an accepted move become available immediately, so a
        // chain of replacements can complete within one round.
        for i in 0..p {
            if ctx.pinned_parent.is_some() && i == parent_abs {
                continue;
            }
            for wi in 0..ctx.candidates.len() {
                let w = ctx.candidates[wi];
                if assignment.contains(&w) {
                    continue;
                }
                let old = assignment[i];
                assignment[i] = w;
                let t = ev.eval(&assignment);
                if t < best {
                    best = t;
                    improved = true;
                } else {
                    assignment[i] = old;
                }
            }
        }

        if !improved {
            break;
        }
    }
    (assignment, best)
}

/// The admissible lower-bound data for branch and bound: per-processor
/// computation totals `U_p` (any feasible completion costs processor `p`
/// at least `U_p / speed`), the suffix maxima over the still-unassigned
/// tail, and the fastest candidate speed.
struct Bound {
    units: Vec<f64>,
    suffix_max: Vec<f64>,
    max_speed: f64,
}

impl Bound {
    /// `None` when no admissible bound exists for this instance; the
    /// search then enumerates without pruning.
    fn new(ev: &Evaluator, ctx: &SelectionCtx<'_>) -> Option<Bound> {
        let units = ev.compute_units()?.to_vec();
        let p = units.len();
        let mut max_speed = 0.0f64;
        for &w in &ctx.candidates {
            let s = ev.world_speed(w);
            if s.is_nan() || s <= 0.0 {
                // A non-positive speed can poison clocks with NaN; disable
                // pruning rather than risk cutting the true argmin.
                return None;
            }
            max_speed = max_speed.max(s);
        }
        let mut suffix_max = vec![0.0f64; p + 1];
        for d in (0..p).rev() {
            suffix_max[d] = suffix_max[d + 1].max(units[d]);
        }
        Some(Bound {
            units,
            suffix_max,
            max_speed,
        })
    }
}

/// Relative rounding slack between the bound's arithmetic and the
/// evaluator's: the bound divides a processor's *summed* units by its
/// speed, the evaluator sums the quotients, and the two can differ in the
/// last bits. A bare `lb > incumbent` could therefore cut a leaf that
/// improves on the incumbent by less than that rounding, and the pruned
/// search would stop agreeing with the plain enumeration. Pruning must
/// lose to it.
const BOUND_SLACK: f64 = 1e-9;

/// The state of one exhaustive search.
struct BranchAndBound<'a> {
    ctx: &'a SelectionCtx<'a>,
    ev: &'a mut Evaluator,
    bound: Option<&'a Bound>,
    parent_abs: usize,
    assignment: Vec<usize>,
    used: Vec<bool>,
    /// The incumbent: the best leaf priced so far.
    best: Option<(Vec<usize>, f64)>,
}

impl BranchAndBound<'_> {
    /// Places abstract processors `abs..` depth first, candidates in list
    /// order. `lb` is the bound of the partial assignment above.
    fn bb_rec(&mut self, abs: usize, lb: f64) {
        if let (Some(b), Some((_, incumbent))) = (self.bound, &self.best) {
            // Prune only on a *strict* bound violation, beyond the slack:
            // subtrees that tie with the incumbent survive, so what the
            // search returns does not depend on the bound.
            let tail = b.suffix_max[abs] / b.max_speed;
            if lb.max(tail) > incumbent * (1.0 + BOUND_SLACK) {
                return;
            }
        }
        if abs == self.assignment.len() {
            let t = self.ev.eval(&self.assignment);
            if self.best.as_ref().is_none_or(|(_, best)| t < *best) {
                self.best = Some((self.assignment.clone(), t));
            }
            return;
        }
        let pin = self.ctx.pinned_parent.filter(|_| abs == self.parent_abs);
        for ci in 0..self.ctx.candidates.len() {
            let w = self.ctx.candidates[ci];
            if self.used[ci] || pin.is_some_and(|pin| pin != w) {
                continue;
            }
            let child_lb = match self.bound {
                Some(b) => lb.max(b.units[abs] / self.ev.world_speed(w)),
                None => lb,
            };
            self.used[ci] = true;
            self.assignment[abs] = w;
            self.bb_rec(abs + 1, child_lb);
            self.used[ci] = false;
        }
    }
}

/// Exact search. Leaves are visited in lexicographic candidate order and
/// only a strictly better leaf replaces the incumbent, so the first optimum
/// in that order is returned — by construction, whatever `bound` cuts.
/// `bound: None` is the plain enumeration of every injective mapping, which
/// makes it the pruning's own oracle (`tests::pruning_never_changes_the_answer`).
fn exhaustive(
    model: &dyn PerformanceModel,
    ctx: &SelectionCtx<'_>,
    ev: &mut Evaluator,
    bound: Option<&Bound>,
) -> (Vec<usize>, f64) {
    let mut search = BranchAndBound {
        ctx,
        ev,
        bound,
        parent_abs: model.parent(),
        assignment: vec![usize::MAX; model.num_processors()],
        used: vec![false; ctx.candidates.len()],
        best: None,
    };
    search.bb_rec(0, 0.0);
    search.best.expect("feasibility checked by caller")
}

/// Simulated annealing from a greedy start. Returns the best assignment
/// visited and its predicted time.
fn anneal(
    start: Vec<usize>,
    model: &dyn PerformanceModel,
    ctx: &SelectionCtx<'_>,
    ev: &mut Evaluator,
    seed: u64,
    iters: usize,
) -> (Vec<usize>, f64) {
    let p = model.num_processors();
    let parent_abs = model.parent();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut current = start;
    let mut current_t = ev.eval(&current);
    let mut best = (current.clone(), current_t);

    let t0 = (current_t * 0.25).max(1e-9);
    for step in 0..iters {
        let temp = t0 * (1.0 - step as f64 / iters as f64).max(1e-3);
        let mut proposal = current.clone();

        let unused: Vec<usize> = ctx
            .candidates
            .iter()
            .copied()
            .filter(|w| !proposal.contains(w))
            .collect();
        let do_replace = !unused.is_empty() && rng.random_range(0..2) == 0;
        if do_replace {
            // Resample until the index is not the pinned parent: shifting
            // deterministically (the old `i + 1` trick) over-sampled the
            // parent's neighbour.
            if ctx.pinned_parent.is_some() && p == 1 {
                continue;
            }
            let i = loop {
                let i = rng.random_range(0..p);
                if ctx.pinned_parent.is_none() || i != parent_abs {
                    break i;
                }
            };
            proposal[i] = unused[rng.random_range(0..unused.len())];
        } else {
            if p < 2 {
                continue;
            }
            let i = rng.random_range(0..p);
            let j = rng.random_range(0..p);
            if i == j {
                continue;
            }
            proposal.swap(i, j);
            if let Some(pin) = ctx.pinned_parent {
                if proposal[parent_abs] != pin {
                    continue;
                }
            }
        }

        let t = ev.eval(&proposal);
        let accept = t < current_t || {
            let delta = t - current_t;
            rng.random_range(0.0..1.0) < (-delta / temp).exp()
        };
        if accept {
            current = proposal;
            current_t = t;
            if current_t < best.1 {
                best = (current.clone(), current_t);
            }
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetsim::{Link, Protocol, TopologyBuilder};
    use perfmodel::{CompiledModel, ModelInstance, ParamValue};

    /// The bare greedy pairing: no local-search round.
    const GREEDY: MappingAlgorithm = MappingAlgorithm::GreedyRefined { max_rounds: 0 };

    fn model(src: &str) -> ModelInstance {
        CompiledModel::compile(src)
            .unwrap()
            .instantiate(&[])
            .unwrap()
    }

    /// `volumes.len()` tasks of the given volumes, no communication.
    fn tasks(volumes: &[i64]) -> ModelInstance {
        CompiledModel::compile(
            "algorithm Tasks(int p, int v[p]) { coord I=p; node {I>=0: bench*(v[I]);}; parent[0]; }",
        )
        .unwrap()
        .instantiate(&[
            ParamValue::Int(volumes.len() as i64),
            ParamValue::Array(volumes.to_vec()),
        ])
        .unwrap()
    }

    fn paper_like_ctx<'a>(
        cluster: &'a Cluster,
        placement: &'a [NodeId],
        estimates: &'a SpeedEstimates,
    ) -> SelectionCtx<'a> {
        SelectionCtx {
            cluster,
            placement,
            estimates,
            candidates: (0..placement.len()).collect(),
            pinned_parent: Some(0),
        }
    }

    fn hetero_cluster() -> Cluster {
        TopologyBuilder::new()
            .node("a", 46.0)
            .node("b", 46.0)
            .node("c", 176.0)
            .node("d", 106.0)
            .node("e", 9.0)
            .intra_switch(Link::new(150e-6, 11e6, Protocol::Tcp))
            .build()
            .into_parts()
            .0
    }

    #[test]
    fn greedy_pairs_big_volume_with_fast_node() {
        let c = hetero_cluster();
        let placement: Vec<NodeId> = c.node_ids().collect();
        let est = SpeedEstimates::from_base_speeds(&c);
        let mut ctx = paper_like_ctx(&c, &placement, &est);
        ctx.pinned_parent = None;
        let model = tasks(&[10, 1000, 100]);
        let m = select_mapping(GREEDY, &model, &ctx).unwrap();
        // Volumes sorted: abs1 (1000) -> node 2 (176), abs2 (100) -> node 3
        // (106), abs0 (10) -> node 0/1 (46).
        assert_eq!(m.assignment[1], 2);
        assert_eq!(m.assignment[2], 3);
        assert!(m.assignment[0] == 0 || m.assignment[0] == 1);
    }

    #[test]
    fn a_posted_incumbent_never_cuts_a_subtree_that_ties_with_it() {
        // simcheck seed 0x13f, the rounding regression: three optimal
        // leaves tie bit for bit, and at the first of them the bound's
        // (Σ units) / speed sits an ulp *above* the evaluator's
        // Σ (units / speed) — in floating point the bound is admissible
        // only up to `BOUND_SLACK`. (When the search was threaded, a bare
        // `lb > incumbent` returned [0, 4, 1] one run in 3000.)
        let speeds = [
            268.08261426349793,
            98.28463767259001,
            255.85659325473588,
            125.27652761611463,
            201.5308272201636,
        ];
        let mut b = TopologyBuilder::new().contention(hetsim::ContentionModel::SerializedNic);
        for (i, s) in speeds.iter().enumerate() {
            b = b.node(format!("n{i}"), *s);
        }
        let link = Link::new(0.00006586649752459147, 11538322.81903161, Protocol::Tcp);
        let c = b.intra_switch(link).build().into_parts().0;
        let placement: Vec<NodeId> = c.node_ids().collect();
        let mut rng = StdRng::seed_from_u64(0x99b11669cdcf97b5);
        let est =
            SpeedEstimates::from_speeds((0..5).map(|_| rng.random_range(1.0..300.0)).collect());
        let mut ctx = paper_like_ctx(&c, &placement, &est);
        ctx.pinned_parent = None;
        // Volumes, bytes and shares are exact binary fractions of the
        // generated model the seed was found with.
        let model = model(
            "algorithm R() {
               coord I=3;
               node {
                 I==0: bench*(1758130729213177/17592186044416);
                 I==1: bench*(7333820761298573/140737488355328);
                 I==2: bench*(2657220670095599/35184372088832);
               };
               link {I==0: length*(6958522650688673/4398046511104) [0]->[1];};
               parent[0];
               scheme {
                 int b;
                 par (b = 0; b < 1; b++) (5433923267445577/140737488355328)%%[0];
                 par (b = 0; b < 3; b++) {
                   if (b == 0) (1871076838238573/35184372088832)%%[0];
                   if (b == 1) (7894489017393363/281474976710656)%%[0];
                   if (b == 2) (3244188251617575/1125899906842624)%%[1]->[2];
                 }
                 par (b = 0; b < 2; b++) {
                   if (b == 0) (4489887991601223/70368744177664)%%[0]->[2];
                   if (b == 1) (4029165761428711/70368744177664)%%[1];
                 }
               };
             }",
        );

        let pruned = select_mapping(MappingAlgorithm::Exhaustive, &model, &ctx).unwrap();
        let (plain, plain_t, _) = unpruned(&model, &ctx);
        assert_eq!(pruned.assignment, vec![0, 1, 2]);
        assert_eq!(plain, vec![0, 1, 2]);
        assert_eq!(pruned.predicted.to_bits(), plain_t.to_bits());

        // The bound at the optimum itself: above the leaf's price, inside
        // the slack. With `BOUND_SLACK = 0.0` the second assertion fails.
        let mut ev = Evaluator::new(&model, &ctx);
        let bound = Bound::new(&ev, &ctx).expect("positive speeds");
        let lb = (0..3)
            .map(|abs| bound.units[abs] / ev.world_speed(plain[abs]))
            .fold(0.0, f64::max);
        let t = ev.eval(&plain);
        assert!(
            lb > t,
            "the instance no longer shows the rounding: {lb} vs {t}"
        );
        assert!(lb <= t * (1.0 + BOUND_SLACK), "{lb} vs {t}");
    }

    /// Local search moves only on a strict gain: where every move ties —
    /// equal tasks on equal processors, more processors than tasks — the
    /// refined search keeps the greedy pairing as it is.
    #[test]
    fn local_search_keeps_its_incumbent_on_a_tie() {
        let mut b = TopologyBuilder::new();
        for i in 0..5 {
            b = b.node(format!("n{i}"), 100.0);
        }
        let c = b
            .intra_switch(Link::new(150e-6, 11e6, Protocol::Tcp))
            .build()
            .into_parts()
            .0;
        let placement: Vec<NodeId> = c.node_ids().collect();
        let est = SpeedEstimates::from_base_speeds(&c);
        let mut ctx = paper_like_ctx(&c, &placement, &est);
        ctx.pinned_parent = None;
        let model = tasks(&[50, 50, 50]);
        let greedy = select_mapping(GREEDY, &model, &ctx).unwrap();
        let refined = select_mapping(
            MappingAlgorithm::GreedyRefined { max_rounds: 4 },
            &model,
            &ctx,
        )
        .unwrap();
        assert_eq!(refined.assignment, greedy.assignment);
        assert_eq!(refined.predicted.to_bits(), greedy.predicted.to_bits());
    }

    #[test]
    fn exhaustive_matches_or_beats_greedy() {
        let c = hetero_cluster();
        let placement: Vec<NodeId> = c.node_ids().collect();
        let est = SpeedEstimates::from_base_speeds(&c);
        let ctx = paper_like_ctx(&c, &placement, &est);
        let model = &search_models()[0];
        let g = select_mapping(GREEDY, model, &ctx).unwrap();
        let e = select_mapping(MappingAlgorithm::Exhaustive, model, &ctx).unwrap();
        assert!(e.predicted <= g.predicted + 1e-12);
    }

    #[test]
    fn refined_matches_or_beats_greedy() {
        let c = hetero_cluster();
        let placement: Vec<NodeId> = c.node_ids().collect();
        let est = SpeedEstimates::from_base_speeds(&c);
        let ctx = paper_like_ctx(&c, &placement, &est);
        let model = &search_models()[1];
        let g = select_mapping(GREEDY, model, &ctx).unwrap();
        let r = select_mapping(MappingAlgorithm::default(), model, &ctx).unwrap();
        let e = select_mapping(MappingAlgorithm::Exhaustive, model, &ctx).unwrap();
        assert!(r.predicted <= g.predicted + 1e-12);
        assert!(e.predicted <= r.predicted + 1e-12);
        // On this instance local search should reach the optimum.
        assert!((r.predicted - e.predicted).abs() < 0.05 * e.predicted);
    }

    #[test]
    fn parent_stays_pinned() {
        let c = hetero_cluster();
        let placement: Vec<NodeId> = c.node_ids().collect();
        let est = SpeedEstimates::from_base_speeds(&c);
        let ctx = paper_like_ctx(&c, &placement, &est); // parent pinned to world 0
        let model = tasks(&[1000, 10, 10]);
        for algo in [
            GREEDY,
            MappingAlgorithm::default(),
            MappingAlgorithm::Exhaustive,
            MappingAlgorithm::Annealing {
                seed: 42,
                iters: 200,
            },
        ] {
            let m = select_mapping(algo, &model, &ctx).unwrap();
            assert_eq!(m.assignment[0], 0, "{algo:?} must keep the parent pinned");
            let mut sorted = m.assignment.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), 3, "{algo:?} produced a non-injective mapping");
        }
    }

    #[test]
    fn infeasible_instances_error() {
        let c = hetero_cluster();
        let placement: Vec<NodeId> = c.node_ids().collect();
        let est = SpeedEstimates::from_base_speeds(&c);
        let mut ctx = paper_like_ctx(&c, &placement, &est);
        let model = tasks(&[1, 1, 1, 1, 1, 1]);
        assert!(matches!(
            select_mapping(GREEDY, &model, &ctx),
            Err(SelectError::NotEnoughProcesses { required: 6, .. })
        ));
        ctx.candidates = vec![1, 2];
        ctx.pinned_parent = Some(0);
        let small = tasks(&[1, 1]);
        assert!(matches!(
            select_mapping(GREEDY, &small, &ctx),
            Err(SelectError::ParentNotCandidate { world_rank: 0 })
        ));
    }

    #[test]
    fn annealing_is_deterministic_per_seed() {
        let c = hetero_cluster();
        let placement: Vec<NodeId> = c.node_ids().collect();
        let est = SpeedEstimates::from_base_speeds(&c);
        let ctx = paper_like_ctx(&c, &placement, &est);
        let model = model(
            "algorithm T() { coord I=4; node {I>=0: bench*(100*(I+1));};
               link (L=4) {I!=L: length*(100000) [I]->[L];}; parent[0]; }",
        );
        let algo = MappingAlgorithm::Annealing {
            seed: 7,
            iters: 300,
        };
        let a = select_mapping(algo, &model, &ctx).unwrap();
        let b = select_mapping(algo, &model, &ctx).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn exhaustive_count_respects_cap() {
        assert_eq!(exhaustive_count(5, 3), 60);
        assert!(exhaustive_count(30, 15) > EXHAUSTIVE_CAP);
    }

    #[test]
    fn uses_fewer_processes_than_available_when_beneficial() {
        // One big task, five nodes: only the fastest should matter; the
        // mapping uses exactly p=1 process even though 5 are free.
        let c = hetero_cluster();
        let placement: Vec<NodeId> = c.node_ids().collect();
        let est = SpeedEstimates::from_base_speeds(&c);
        let mut ctx = paper_like_ctx(&c, &placement, &est);
        ctx.pinned_parent = None;
        let model = tasks(&[176]);
        let m = select_mapping(MappingAlgorithm::Exhaustive, &model, &ctx).unwrap();
        assert_eq!(m.assignment, vec![2]);
        assert!((m.predicted - 1.0).abs() < 1e-9);
    }

    #[test]
    fn a_model_that_never_evaluates_yields_a_typed_error() {
        struct Broken {
            vols: Vec<f64>,
            comm: Vec<Vec<f64>>,
        }
        impl perfmodel::PerformanceModel for Broken {
            fn name(&self) -> &str {
                "broken"
            }
            fn num_processors(&self) -> usize {
                2
            }
            fn volumes(&self) -> &[f64] {
                &self.vols
            }
            fn comm_bytes(&self) -> &[Vec<f64>] {
                &self.comm
            }
            fn parent(&self) -> usize {
                0
            }
            fn run_scheme(
                &self,
                _sink: &mut dyn perfmodel::SchemeSink,
            ) -> Result<(), perfmodel::EvalError> {
                Err(perfmodel::EvalError::BadProcessor("boom".into()))
            }
        }
        let cluster = TopologyBuilder::new()
            .node("a", 10.0)
            .node("b", 20.0)
            .intra_switch(Link::new(1e-3, 1e6, Protocol::Tcp))
            .build()
            .into_parts()
            .0;
        let placement: Vec<NodeId> = cluster.node_ids().collect();
        let est = SpeedEstimates::from_base_speeds(&cluster);
        let ctx = paper_like_ctx(&cluster, &placement, &est);
        let model = Broken {
            vols: vec![1.0, 1.0],
            comm: vec![vec![0.0; 2]; 2],
        };
        for algo in [
            GREEDY,
            MappingAlgorithm::Exhaustive,
            MappingAlgorithm::default(),
            MappingAlgorithm::Annealing { seed: 1, iters: 10 },
        ] {
            assert_eq!(
                select_mapping(algo, &model, &ctx),
                Err(SelectError::Eval("bad abstract processor: boom".into())),
                "{algo:?}"
            );
        }
    }

    #[test]
    fn a_scheme_that_overflows_is_a_typed_error() {
        // `x *= p` leaves i64 inside the scheme: a typed error from the
        // recording, not a panic on the selecting rank.
        let model = perfmodel::CompiledModel::compile(
            "algorithm O(int p) { coord I=2; node {I>=0: bench*(1);}; parent[0];
               scheme { int x; x = p; x *= p; }; }",
        )
        .unwrap()
        .instantiate(&[perfmodel::ParamValue::Int(i64::MAX)])
        .unwrap();
        let c = hetero_cluster();
        let placement: Vec<NodeId> = c.node_ids().collect();
        let est = SpeedEstimates::from_base_speeds(&c);
        let ctx = paper_like_ctx(&c, &placement, &est);
        assert_eq!(
            select_mapping(MappingAlgorithm::default(), &model, &ctx),
            Err(SelectError::Eval(
                "integer arithmetic overflowed 64 bits".into()
            ))
        );
    }

    fn search_models() -> [ModelInstance; 2] {
        [
            model(
                "algorithm Compute() { coord I=3;
                   node {I==0: bench*(50); I==1: bench*(500); I==2: bench*(200);};
                   link (L=3) {I!=L: length*(1000000) [I]->[L];}; parent[0]; }",
            ),
            model(
                "algorithm Chain() { coord I=4;
                   node {I==0: bench*(300); I==1: bench*(50); I==2: bench*(500); I==3: bench*(200);};
                   link (L=4) {I-L == 1 || L-I == 1: length*(5000000) [I]->[L];}; parent[0]; }",
            ),
        ]
    }

    /// Every search reports the bits a cold evaluator's price gives its
    /// assignment, whatever sequence of moves found it.
    #[test]
    fn every_algorithm_reports_the_references_bits() {
        let c = hetero_cluster();
        let placement: Vec<NodeId> = c.node_ids().collect();
        let est = SpeedEstimates::from_base_speeds(&c);
        for model in &search_models() {
            for pinned in [Some(0), None] {
                let mut ctx = paper_like_ctx(&c, &placement, &est);
                ctx.pinned_parent = pinned;
                let exact = select_mapping(MappingAlgorithm::Exhaustive, model, &ctx).unwrap();
                for algo in [
                    GREEDY,
                    MappingAlgorithm::default(),
                    MappingAlgorithm::Exhaustive,
                    MappingAlgorithm::Annealing {
                        seed: 11,
                        iters: 400,
                    },
                ] {
                    let m = select_mapping(algo, model, &ctx).unwrap();
                    let reference = Evaluator::new(model, &ctx).eval(&m.assignment);
                    assert_eq!(
                        m.predicted.to_bits(),
                        reference.to_bits(),
                        "{algo:?} pinned={pinned:?}"
                    );
                    assert!(exact.predicted <= m.predicted, "{algo:?} pinned={pinned:?}");
                }
            }
        }
    }

    /// The exhaustive search with the bound off: every injective mapping
    /// is priced. Returns the winner, its time and the leaves priced.
    fn unpruned(model: &dyn PerformanceModel, ctx: &SelectionCtx<'_>) -> (Vec<usize>, f64, u64) {
        let mut ev = Evaluator::new(model, ctx);
        let (a, t) = exhaustive(model, ctx, &mut ev, None);
        (a, t, ev.eval_count())
    }

    #[test]
    fn pruning_never_changes_the_answer() {
        let c = hetero_cluster();
        let placement: Vec<NodeId> = c.node_ids().collect();
        let est = SpeedEstimates::from_base_speeds(&c);
        let (mut priced, mut leaves) = (0, 0);
        for model in &search_models() {
            for pinned in [Some(0), None] {
                let mut ctx = paper_like_ctx(&c, &placement, &est);
                ctx.pinned_parent = pinned;
                let pruned = select_mapping(MappingAlgorithm::Exhaustive, model, &ctx).unwrap();
                let (a, t, n) = unpruned(model, &ctx);
                assert_eq!(pruned.assignment, a, "pinned={pinned:?}");
                assert_eq!(pruned.predicted.to_bits(), t.to_bits(), "pinned={pinned:?}");
                priced += pruned.stats.evals;
                leaves += n;
            }
        }
        assert!(
            priced < leaves,
            "the bound cut nothing: {priced} of {leaves}"
        );

        // A later leaf half a percent better than the incumbent, priced by
        // computation alone so the bound equals the leaf: a bound inflated
        // by as little as that cuts the optimum.
        let near = TopologyBuilder::new()
            .node("slower", 100.0)
            .node("faster", 100.5)
            .intra_switch(Link::new(150e-6, 11e6, Protocol::Tcp))
            .build()
            .into_parts()
            .0;
        let placement: Vec<NodeId> = near.node_ids().collect();
        let est = SpeedEstimates::from_base_speeds(&near);
        let mut ctx = paper_like_ctx(&near, &placement, &est);
        ctx.pinned_parent = None;
        let one = tasks(&[1000]);
        let pruned = select_mapping(MappingAlgorithm::Exhaustive, &one, &ctx).unwrap();
        assert_eq!(pruned.assignment, vec![1]);
        assert_eq!(pruned.assignment, unpruned(&one, &ctx).0);
    }

    #[test]
    fn a_candidate_outside_the_placement_is_a_typed_error() {
        let c = hetero_cluster();
        let placement: Vec<NodeId> = c.node_ids().collect();
        let est = SpeedEstimates::from_base_speeds(&c);
        let mut ctx = paper_like_ctx(&c, &placement, &est);
        ctx.candidates = vec![0, 1, 99];
        let model = tasks(&[1, 1]);
        for algo in [GREEDY, MappingAlgorithm::Exhaustive] {
            assert_eq!(
                select_mapping(algo, &model, &ctx),
                Err(SelectError::InvalidCandidate { world_rank: 99 })
            );
        }
    }

    #[test]
    fn a_candidate_listed_twice_is_a_typed_error() {
        let c = hetero_cluster();
        let placement: Vec<NodeId> = c.node_ids().collect();
        let est = SpeedEstimates::from_base_speeds(&c);
        let mut ctx = paper_like_ctx(&c, &placement, &est);
        ctx.candidates = vec![0, 1, 1, 2];
        let model = tasks(&[1, 1, 1, 1]);
        for algo in [GREEDY, MappingAlgorithm::Exhaustive] {
            assert_eq!(
                select_mapping(algo, &model, &ctx),
                Err(SelectError::InvalidCandidate { world_rank: 1 })
            );
        }
    }

    #[test]
    fn annealing_replace_move_no_longer_skews_off_the_parent() {
        // p = 2 with the parent at abs 0: the old `i + 1` shift mapped a
        // draw of the parent index deterministically onto index 1, doubling
        // its proposal rate. With resampling both outcomes remain possible
        // and the search still respects the pin.
        let c = hetero_cluster();
        let placement: Vec<NodeId> = c.node_ids().collect();
        let est = SpeedEstimates::from_base_speeds(&c);
        let ctx = paper_like_ctx(&c, &placement, &est);
        let model = tasks(&[400, 100]);
        for seed in 0..8 {
            let m = select_mapping(
                MappingAlgorithm::Annealing { seed, iters: 300 },
                &model,
                &ctx,
            )
            .unwrap();
            assert_eq!(m.assignment[0], 0, "parent must stay pinned (seed {seed})");
            assert!(m.predicted.is_finite());
        }
    }
}
