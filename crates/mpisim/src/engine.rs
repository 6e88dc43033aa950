//! The collective algorithm engine: schedule-driven collectives with
//! cost-model selection.
//!
//! Every collective here executes a [`perfmodel::collective`] *schedule* —
//! an ordered list of rounds of point-to-point transfers — as one
//! rendezvous: the call's collective slot (`crate::slot`), where every
//! member deposits its plan and input and lends its clock and contention
//! frontier, and whichever member's thread holds the slot runs every
//! member's program as far as the transfers already sent allow. Each step
//! is the transport's own send or receive half, run in the member's
//! program order on its own state, so the slot executes exactly the
//! message passing the schedule describes — one executor for every
//! algorithm, flat or hierarchical, movement or reduction, and no
//! algorithm is written down a second time here. A member sleeps at most
//! once per call, until its own program has finished or failed. That buys
//! three properties for free:
//!
//! * **a fault contract** — under fail-stop faults every surviving member
//!   returns either the *complete, correct* result or a typed
//!   [`MpiError::NodeFailed`]; never a torn buffer and never a hang.
//!   Faults propagate *along schedule edges*: a receive aborts when its
//!   specific scheduled sender is dead, and a member that aborts
//!   mid-schedule first *poisons* every scheduled transfer it has not yet
//!   sent (a transfer naming the failed world rank), so downstream members
//!   fail fast with the same root cause instead of blocking on a
//!   live-but-aborted peer. The whole error surface is a deterministic
//!   function of the fault plan — same seed, same survivor set — and is
//!   predicted offline by [`perfmodel::collective::fault_impact`];
//! * **tracing** — the inner sends/receives appear in the virtual-time
//!   trace, and the engine wraps each call in a [`TraceKind::Collective`]
//!   span named after the algorithm that ran;
//! * **prediction parity** — [`perfmodel::collective::price`] replays the
//!   identical schedule against the cluster's link table, so `timeof`-style
//!   predictions see exactly the communication the network will execute
//!   (bit-exact under every contention model — the replay mirrors the
//!   transport's endpoint-causal grant/settle arbitration; see DESIGN.md
//!   §10 and §14).
//!
//! Selection ([`CollectivePolicy::Auto`], the default) prices every eligible
//! algorithm from the message size, communicator size and the hetsim link
//! table, and runs the predicted-cheapest. All selection inputs are
//! rank-independent, so every member arrives at the same [`Plan`] without
//! any agreement traffic — and only one of them computes it: each public
//! entry point validates its arguments once and takes the call's plan from
//! the universe's plan cache ([`crate::plan`]), which builds it on first
//! use and hands every other rank, and every later identical call, the
//! same `Arc`.
//!
//! Reduction collectives preserve a **fixed deterministic fold order**
//! regardless of algorithm: the result element `i` is always the
//! identity-seeded left fold of contribution element `i` over ranks in
//! ascending communicator-rank order — which is what every schedule
//! computes, since schedules move raw contributions (or ascending-prefix
//! partial folds), never tree-shaped partials. So an algorithm decides
//! where the values meet and never how they combine, and switching
//! algorithms never changes a single result bit.
//!
//! No payload bytes travel through a schedule: a transfer in the slot is
//! its size and wire stamps. A member that finishes copies its result out
//! of the deposits — the root's buffer for bcast, the concatenated
//! contributions for allgather, the fold (built once per call) for reduce
//! and allreduce — the bits every schedule delivers.

use crate::comm::Comm;
use crate::datatype::MpiType;
use crate::error::{MpiError, MpiResult};
use crate::op::ReduceOp;
use crate::plan::{ineligible, Plan, PlanKey};
use crate::slot::{Data, Deposit, Rule, Slot};
use hetsim::{SimTime, TraceEvent, TraceKind};
use perfmodel::collective::{CollectiveAlgo, CollectiveKind};
use std::sync::Arc;

/// How the engine picks an algorithm for each collective call.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum CollectivePolicy {
    /// Price every eligible flat algorithm *and* the hierarchical plan for
    /// the communicator's topology (declared on the cluster, or inferred
    /// from the latency scale), and run the predicted-cheapest (the
    /// default). On a flat topology this degenerates to [`Self::FlatAuto`]
    /// exactly — no hierarchical plan exists, so selection and virtual
    /// times are bit-identical.
    #[default]
    Auto,
    /// Price only the flat algorithms, ignoring any topology — the
    /// pre-hierarchy selector, kept addressable so benches can measure what
    /// hierarchy awareness buys.
    FlatAuto,
    /// Always run the given algorithm; calls for which it is ineligible
    /// fail with [`MpiError::InvalidCounts`].
    Fixed(CollectiveAlgo),
}

impl Comm {
    fn plan_key(
        &self,
        kind: CollectiveKind,
        request: CollectivePolicy,
        root: usize,
        elems: usize,
        elem_bytes: usize,
    ) -> MpiResult<PlanKey> {
        PlanKey::on(kind, request, &self.nodes, root, elems, elem_bytes)
    }

    /// The [`Plan`] for one collective call on this communicator, from the
    /// universe's plan cache: the algorithm `request` resolves to, its
    /// predicted virtual time and its transfer rounds. Every member (and
    /// every later call with the same arguments) shares one plan; see
    /// [`crate::plan`]. For allgather `elems` is the total output length.
    ///
    /// # Errors
    /// [`MpiError::InvalidRank`] if `root` is outside the communicator;
    /// [`MpiError::InvalidCounts`] if a pinned algorithm is not eligible
    /// here, or the hierarchical plan is pinned on a flat topology.
    pub fn collective_plan(
        &self,
        kind: CollectiveKind,
        request: CollectivePolicy,
        root: usize,
        elems: usize,
        elem_bytes: usize,
    ) -> MpiResult<Arc<Plan>> {
        let key = self.plan_key(kind, request, root, elems, elem_bytes)?;
        self.shared.plans.get(&key, &self.shared.cluster)
    }

    /// The plan a call executes: an explicit algorithm or the universe's
    /// [`CollectivePolicy`]. The hierarchical plan is reached through
    /// [`CollectivePolicy::Auto`] only — it can be priced by name
    /// ([`Comm::predict_collective_with`]) but not pinned.
    fn exec_plan(
        &self,
        kind: CollectiveKind,
        explicit: Option<CollectiveAlgo>,
        root: usize,
        elems: usize,
        elem_bytes: usize,
    ) -> MpiResult<Arc<Plan>> {
        let request = explicit.map_or(self.shared.coll_policy, CollectivePolicy::Fixed);
        let key = self.plan_key(kind, request, root, elems, elem_bytes)?;
        if request == CollectivePolicy::Fixed(CollectiveAlgo::Hierarchical) {
            return Err(ineligible(kind, CollectiveAlgo::Hierarchical, self.size()));
        }
        self.shared.plans.get(&key, &self.shared.cluster)
    }

    /// Predicts the cheapest algorithm (and its virtual time in seconds) for
    /// a collective of `elems` elements of `elem_bytes` each, exactly as
    /// auto-selecting dispatch would choose it under the universe's policy:
    /// [`CollectiveAlgo::Hierarchical`] when the hierarchical plan strictly
    /// beats the flat winner (and the policy is not
    /// [`CollectivePolicy::FlatAuto`]), the flat winner otherwise. `root`
    /// is the communicator rank the operation is rooted at (pass 0 for
    /// rootless collectives).
    ///
    /// # Errors
    /// [`MpiError::InvalidRank`] if `root` is outside the communicator.
    pub fn predict_collective(
        &self,
        kind: CollectiveKind,
        root: usize,
        elems: usize,
        elem_bytes: usize,
    ) -> MpiResult<(CollectiveAlgo, f64)> {
        let request = match self.shared.coll_policy {
            CollectivePolicy::FlatAuto => CollectivePolicy::FlatAuto,
            _ => CollectivePolicy::Auto,
        };
        let plan = self.collective_plan(kind, request, root, elems, elem_bytes)?;
        Ok((plan.algo, plan.seconds))
    }

    /// Predicts the virtual time of one specific algorithm for a collective.
    /// [`CollectiveAlgo::Hierarchical`] prices the topology's hierarchical
    /// plan (an error when the topology is flat — no plan exists).
    ///
    /// # Errors
    /// [`MpiError::InvalidRank`] if `root` is outside the communicator;
    /// [`MpiError::InvalidCounts`] if the algorithm is not eligible on this
    /// communicator.
    pub fn predict_collective_with(
        &self,
        kind: CollectiveKind,
        algo: CollectiveAlgo,
        root: usize,
        elems: usize,
        elem_bytes: usize,
    ) -> MpiResult<f64> {
        let request = CollectivePolicy::Fixed(algo);
        Ok(self
            .collective_plan(kind, request, root, elems, elem_bytes)?
            .seconds)
    }

    /// Records a [`TraceKind::Collective`] span covering one engine call.
    fn trace_collective(
        &self,
        kind: CollectiveKind,
        algo: CollectiveAlgo,
        elems: usize,
        elem_bytes: usize,
        start: SimTime,
    ) {
        if let Some(tracer) = &self.shared.tracer {
            let mut ev =
                TraceEvent::new(self.my_world_rank(), TraceKind::Collective, algo.name(), start);
            ev.dur = self.clock.now().max(start) - start;
            ev.collective = true;
            ev.bytes = (elems * elem_bytes) as u64;
            ev.info = Some(format!(
                "{} p={} elems={elems}",
                kind.name(),
                self.size()
            ));
            tracer.record(ev);
        }
    }

    /// One engine call: plan (from the cache), run in the call's slot with
    /// `input` as this member's deposit, trace. The slot comes back once
    /// this member's program has run to its end, for the result to be
    /// copied out of.
    fn run_planned<T: MpiType>(
        &self,
        kind: CollectiveKind,
        explicit: Option<CollectiveAlgo>,
        root: usize,
        elems: usize,
        input: Option<Vec<T>>,
    ) -> MpiResult<Arc<Slot>> {
        let plan = self.exec_plan(kind, explicit, root, elems, T::WIRE_SIZE)?;
        let (start, algo) = (self.clock.now(), plan.algo);
        let input = Deposit {
            data: input.map(|v| Arc::new(v) as Data),
            ..Deposit::default()
        };
        let slot = self.run_slot(Rule::Engine, plan, T::WIRE_SIZE, input)?;
        self.trace_collective(kind, algo, elems, T::WIRE_SIZE, start);
        Ok(slot)
    }

    /// Engine broadcast: replaces every rank's `buf` with the root's. All
    /// ranks must pass equal-length buffers (unlike the legacy
    /// [`Comm::bcast`], non-roots size their buffer up front, which is what
    /// lets every rank arrive at the same plan locally). The algorithm is
    /// chosen by the universe's [`CollectivePolicy`].
    ///
    /// # Errors
    /// [`MpiError::InvalidRank`] for a bad root; [`MpiError::InvalidCounts`]
    /// for mismatched buffer lengths or an ineligible pinned algorithm;
    /// [`MpiError::NodeFailed`] if this rank's data path depends on a
    /// fail-stopped member — the fault contract guarantees every survivor
    /// returns the complete result or this error, never a torn buffer.
    pub fn bcast_into<T: MpiType>(&self, buf: &mut [T], root: usize) -> MpiResult<()> {
        self.bcast_planned(None, buf, root)
    }

    /// [`Comm::bcast_into`] with an explicit algorithm.
    ///
    /// # Errors
    /// As [`Comm::bcast_into`]; [`MpiError::InvalidCounts`] if `algo` is not
    /// eligible here.
    pub fn bcast_into_with<T: MpiType>(
        &self,
        algo: CollectiveAlgo,
        buf: &mut [T],
        root: usize,
    ) -> MpiResult<()> {
        self.bcast_planned(Some(algo), buf, root)
    }

    /// `buf` is written only once this rank's whole program has run.
    fn bcast_planned<T: MpiType>(
        &self,
        explicit: Option<CollectiveAlgo>,
        buf: &mut [T],
        root: usize,
    ) -> MpiResult<()> {
        let (kind, n, is_root) = (CollectiveKind::Bcast, buf.len(), self.rank() == root);
        let input = is_root.then(|| buf.to_vec());
        let slot = self.run_planned(kind, explicit, root, n, input)?;
        if !is_root && n > 0 {
            buf.copy_from_slice(deposit::<T>(slot.input(root).as_ref(), n)?);
        }
        Ok(())
    }

    /// Engine allgather for equal contributions: every rank contributes
    /// `contrib` and receives the concatenation in rank order. All ranks
    /// must contribute the same number of elements (use the legacy
    /// [`Comm::allgather`] for ragged contributions).
    ///
    /// # Errors
    /// [`MpiError::InvalidCounts`] for mismatched contribution lengths or an
    /// ineligible pinned algorithm; [`MpiError::NodeFailed`] if this rank's
    /// data path depends on a fail-stopped member (every survivor returns
    /// the complete result or that error, never a torn buffer).
    pub fn allgather_eq<T: MpiType + Copy + Default>(&self, contrib: &[T]) -> MpiResult<Vec<T>> {
        self.allgather_planned(None, contrib)
    }

    /// [`Comm::allgather_eq`] with an explicit algorithm.
    ///
    /// # Errors
    /// As [`Comm::allgather_eq`]; [`MpiError::InvalidCounts`] if `algo` is
    /// not eligible here.
    pub fn allgather_eq_with<T: MpiType + Copy + Default>(
        &self,
        algo: CollectiveAlgo,
        contrib: &[T],
    ) -> MpiResult<Vec<T>> {
        self.allgather_planned(Some(algo), contrib)
    }

    /// The concatenation is built once per call, in rank order.
    fn allgather_planned<T: MpiType + Copy + Default>(
        &self,
        explicit: Option<CollectiveAlgo>,
        contrib: &[T],
    ) -> MpiResult<Vec<T>> {
        let (m, total) = (contrib.len(), contrib.len() * self.size());
        let kind = CollectiveKind::Allgather;
        let slot = self.run_planned(kind, explicit, 0, total, Some(contrib.to_vec()))?;
        if m == 0 {
            return Ok(Vec::new());
        }
        let concat = |inputs: &[Option<Data>]| {
            let mut out = Vec::with_capacity(total);
            for input in inputs {
                out.extend_from_slice(deposit::<T>(input.as_ref(), m)?);
            }
            Ok(Arc::new(out) as Data)
        };
        let all = slot.built((None, m), concat)?;
        Ok(deposit::<T>(Some(&all), total)?.clone())
    }

    /// A reduce's result is the root's alone.
    fn reduce_planned<T: Reducible>(
        &self,
        explicit: Option<CollectiveAlgo>,
        contrib: &[T],
        op: ReduceOp,
        root: usize,
    ) -> MpiResult<Option<Vec<T>>> {
        let kind = CollectiveKind::Reduce;
        let slot = self.run_planned(kind, explicit, root, contrib.len(), Some(contrib.to_vec()))?;
        if self.rank() != root {
            return Ok(None);
        }
        folded(&slot, op, contrib.len()).map(Some)
    }

    fn allreduce_planned<T: Reducible>(
        &self,
        explicit: Option<CollectiveAlgo>,
        contrib: &[T],
        op: ReduceOp,
    ) -> MpiResult<Vec<T>> {
        let kind = CollectiveKind::Allreduce;
        let slot = self.run_planned(kind, explicit, 0, contrib.len(), Some(contrib.to_vec()))?;
        folded(&slot, op, contrib.len())
    }

    /// Engine reduce over equal-length `f64` contributions; the root
    /// receives the result: always the identity-seeded fold of the
    /// contributions in ascending communicator-rank order, bit-identical
    /// across every algorithm.
    ///
    /// # Errors
    /// [`MpiError::InvalidRank`] for a bad root; [`MpiError::InvalidCounts`]
    /// for mismatched contribution lengths or an ineligible pinned
    /// algorithm; [`MpiError::NodeFailed`] if this rank's data path depends
    /// on a fail-stopped member (every survivor returns the complete result
    /// or that error, never a torn result).
    pub fn reduce_eq_f64(
        &self,
        contrib: &[f64],
        op: ReduceOp,
        root: usize,
    ) -> MpiResult<Option<Vec<f64>>> {
        self.reduce_planned(None, contrib, op, root)
    }

    /// [`Comm::reduce_eq_f64`] with an explicit algorithm.
    ///
    /// # Errors
    /// As [`Comm::reduce_eq_f64`].
    pub fn reduce_eq_f64_with(
        &self,
        algo: CollectiveAlgo,
        contrib: &[f64],
        op: ReduceOp,
        root: usize,
    ) -> MpiResult<Option<Vec<f64>>> {
        self.reduce_planned(Some(algo), contrib, op, root)
    }

    /// [`Comm::reduce_eq_f64`] over `i64` contributions.
    ///
    /// # Errors
    /// As [`Comm::reduce_eq_f64`].
    pub fn reduce_eq_i64(
        &self,
        contrib: &[i64],
        op: ReduceOp,
        root: usize,
    ) -> MpiResult<Option<Vec<i64>>> {
        self.reduce_planned(None, contrib, op, root)
    }

    /// Engine allreduce over equal-length `f64` contributions: every rank
    /// receives the identity-seeded fold of the contributions in ascending
    /// communicator-rank order, bit-identical across every algorithm.
    ///
    /// # Errors
    /// [`MpiError::InvalidCounts`] for mismatched contribution lengths or an
    /// ineligible pinned algorithm; [`MpiError::NodeFailed`] if this rank's
    /// data path depends on a fail-stopped member (every survivor returns
    /// the complete result or that error, never a torn result).
    pub fn allreduce_eq_f64(&self, contrib: &[f64], op: ReduceOp) -> MpiResult<Vec<f64>> {
        self.allreduce_planned(None, contrib, op)
    }

    /// [`Comm::allreduce_eq_f64`] with an explicit algorithm.
    ///
    /// # Errors
    /// As [`Comm::allreduce_eq_f64`].
    pub fn allreduce_eq_f64_with(
        &self,
        algo: CollectiveAlgo,
        contrib: &[f64],
        op: ReduceOp,
    ) -> MpiResult<Vec<f64>> {
        self.allreduce_planned(Some(algo), contrib, op)
    }

    /// [`Comm::allreduce_eq_f64`] over `i64` contributions.
    ///
    /// # Errors
    /// As [`Comm::allreduce_eq_f64`].
    pub fn allreduce_eq_i64(&self, contrib: &[i64], op: ReduceOp) -> MpiResult<Vec<i64>> {
        self.allreduce_planned(None, contrib, op)
    }

    /// [`Comm::allreduce_eq_i64`] with an explicit algorithm.
    ///
    /// # Errors
    /// As [`Comm::allreduce_eq_f64`].
    pub fn allreduce_eq_i64_with(
        &self,
        algo: CollectiveAlgo,
        contrib: &[i64],
        op: ReduceOp,
    ) -> MpiResult<Vec<i64>> {
        self.allreduce_planned(Some(algo), contrib, op)
    }
}

/// A deposit of `n` elements of `T`: what a finished member copies its
/// result from. A deposit that is missing, of another type or of another
/// length is [`MpiError::InvalidCounts`] — ranks that called the
/// collective with different arguments.
fn deposit<T: MpiType>(d: Option<&Data>, n: usize) -> MpiResult<&Vec<T>> {
    match d.and_then(|d| d.downcast_ref::<Vec<T>>()) {
        Some(v) if v.len() == n => Ok(v),
        _ => Err(MpiError::InvalidCounts(format!(
            "no {n}-element deposit of this type to copy from \
             (mismatched arguments across ranks?)"
        ))),
    }
}

/// The identity-seeded fold of `op` over every member's `n`-element
/// contribution in ascending rank order, built once per call.
fn folded<T: Reducible>(slot: &Slot, op: ReduceOp, n: usize) -> MpiResult<Vec<T>> {
    if n == 0 {
        return Ok(Vec::new());
    }
    let fold = |inputs: &[Option<Data>]| {
        let mut acc = vec![T::identity(op); n];
        for input in inputs {
            for (a, &b) in acc.iter_mut().zip(deposit::<T>(input.as_ref(), n)?) {
                *a = T::apply(op, *a, b);
            }
        }
        Ok(Arc::new(acc) as Data)
    };
    let acc = slot.built((Some(op), n), fold)?;
    Ok(deposit::<T>(Some(&acc), n)?.clone())
}

/// An element type the engine reduces: the wire codec of [`MpiType`] plus
/// each [`ReduceOp`]'s identity and operation.
trait Reducible: MpiType {
    fn identity(op: ReduceOp) -> Self;
    fn apply(op: ReduceOp, a: Self, b: Self) -> Self;
}

impl Reducible for f64 {
    fn identity(op: ReduceOp) -> f64 {
        op.identity_f64()
    }
    fn apply(op: ReduceOp, a: f64, b: f64) -> f64 {
        op.apply_f64(a, b)
    }
}

impl Reducible for i64 {
    fn identity(op: ReduceOp) -> i64 {
        op.identity_i64()
    }
    fn apply(op: ReduceOp, a: i64, b: i64) -> i64 {
        op.apply_i64(a, b)
    }
}
