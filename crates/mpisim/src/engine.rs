//! The collective algorithm engine: schedule-driven collectives with
//! cost-model selection.
//!
//! Every collective here executes a [`perfmodel::collective`] *schedule* —
//! an ordered list of rounds of point-to-point transfers — through the same
//! eager transport (`Comm::post_bytes` / `Comm::recv_bytes`) the rest of
//! mpisim uses, on the communicator's collective plane. Each transfer says
//! what it carries ([`Payload`]), so one interpreter (`Comm::interpret`)
//! runs them all — flat or hierarchical, movement or reduction — and no
//! algorithm is written down a second time here. That buys three properties
//! for free:
//!
//! * **a fault contract** — under fail-stop faults every surviving member
//!   returns either the *complete, correct* result or a typed
//!   [`MpiError::NodeFailed`]; never a torn buffer and never a hang.
//!   Faults propagate *along schedule edges*: a receive aborts when its
//!   specific scheduled sender is dead (`Comm::recv_bytes_from`), and a
//!   rank that aborts mid-schedule first *poisons* every scheduled transfer
//!   it has not yet sent (a `TAG_POISON` message naming the failed world
//!   rank), so downstream ranks fail fast with the same root cause instead
//!   of blocking on a live-but-aborted peer. The whole error surface is a
//!   deterministic function of the fault plan — same seed, same survivor
//!   set — and is predicted offline by [`perfmodel::collective::fault_impact`];
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
//! ascending communicator-rank order. Schedules therefore move raw
//! contributions (or ascending-prefix partial folds), never tree-shaped
//! partials; the interpreter folds a range only once every rank's
//! contribution to it is present, always in that order, so an algorithm
//! decides where the values meet and never how they combine — switching
//! algorithms never changes a single result bit.

use crate::comm::Comm;
use crate::datatype::{decode, decode_into, encode, MpiType};
use crate::error::{MpiError, MpiResult};
use crate::op::ReduceOp;
use crate::plan::{ineligible, Plan, PlanKey};
use hetsim::{SimTime, TraceEvent, TraceKind};
use perfmodel::collective::{chunk_bounds, CollectiveAlgo, CollectiveKind, Payload, Xfer};
use std::sync::Arc;

/// Tag used by every engine-scheduled transfer. A single tag suffices:
/// transfers ride the communicator's collective plane, where the per-pair
/// FIFO (non-overtaking) guarantee plus the schedules' fixed per-pair send
/// order make matching unambiguous.
pub(crate) const TAG_COLL: i32 = 9;

/// Tag of a *poison* message: a rank aborting out of a schedule posts one of
/// these in place of every scheduled transfer it will no longer send. The
/// payload is the world rank of the failed node being blamed (one `i64`).
/// Because each scheduled edge carries exactly one message — data or poison
/// — the collective plane stays balanced and per-pair FIFO keeps matching
/// unambiguous.
pub(crate) const TAG_POISON: i32 = 10;

/// The world rank an engine collective should propagate blame for, if the
/// error is a fail-stop fault. Non-fault errors (count mismatches, link
/// drops) are not poisoned: their stuck peers are resolved by the
/// quiescence detector instead.
fn fault_blame(e: &MpiError) -> Option<usize> {
    match *e {
        MpiError::NodeFailed { world_rank } | MpiError::PeerTerminated { world_rank } => {
            Some(world_rank)
        }
        _ => None,
    }
}

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
        let nodes = (0..self.size()).map(|r| self.node_of(r)).collect();
        PlanKey::new(kind, request, nodes, root, elems, elem_bytes)
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

    /// Completes one scheduled receive from comm rank `src`: the data
    /// payload, or the failure the sender propagated in its place.
    ///
    /// The wait uses point-to-point abort semantics (only `src`'s own death
    /// aborts it), so the failure surface follows schedule edges
    /// deterministically instead of racing a real-time failure detector. A
    /// [`TAG_POISON`] message decodes to [`MpiError::NodeFailed`] blaming
    /// the world rank it carries; a terminated peer is normalised to
    /// [`MpiError::NodeFailed`] too, so the engine's fault contract exposes
    /// a single error type.
    fn recv_sched(&self, src: usize) -> MpiResult<Vec<u8>> {
        match self.recv_bytes_from(self.coll_plane(), src, None) {
            Ok((bytes, st)) if st.tag == TAG_POISON => {
                let v: Vec<i64> = decode(&bytes)?;
                let world_rank = v
                    .first()
                    .map(|&w| w as usize)
                    .unwrap_or_else(|| self.world_rank_of(src));
                Err(MpiError::NodeFailed { world_rank })
            }
            Ok((bytes, _)) => Ok(bytes.into_vec()),
            Err(MpiError::PeerTerminated { world_rank }) => {
                Err(MpiError::NodeFailed { world_rank })
            }
            Err(e) => Err(e),
        }
    }

    /// Runs `plan` on this rank: the one schedule interpreter behind every
    /// engine collective, flat or hierarchical, movement or reduction.
    ///
    /// `out` is the call's result buffer, holding what this rank starts with
    /// finished (a bcast root's data, an allgather contribution in its
    /// slot); `own` is its raw contribution to a reduction (empty otherwise)
    /// and `fold(acc, x)` folds `x` onto `acc` — onto the operation's
    /// identity when there is none. The rank walks its own transfers in
    /// round order, each round's sends before its receives, and every
    /// transfer says what it carries ([`Payload`]), so nothing here knows an
    /// algorithm.
    ///
    /// `out` is scratch: it comes back only when the whole schedule has run,
    /// so an abort leaves no torn result. On a fail-stop error every send
    /// this rank has not issued is replaced by a [`TAG_POISON`] message
    /// naming the blamed world rank (posts to dead destinations fail and are
    /// dropped — they need no notification), so downstream ranks abort with
    /// the same root cause.
    fn interpret<T: MpiType>(
        &self,
        plan: &Plan,
        out: Vec<T>,
        own: &[T],
        fold: &Fold<T>,
    ) -> MpiResult<Vec<T>> {
        let me = self.rank();
        let mut holds = Holdings::new(self.size(), me, out, own, fold);
        let mut program = plan.program(me);
        while let Some(x) = program.next() {
            let step = if x.src == me {
                self.post_bytes(self.coll_plane(), holds.payload(x), x.dst, TAG_COLL)
            } else {
                self.recv_sched(x.src)
                    .and_then(|bytes| holds.accept(x, &bytes))
            };
            if let Err(e) = step {
                if let Some(blame) = fault_blame(&e) {
                    let unsent = std::iter::once(x).chain(program).filter(|x| x.src == me);
                    for x in unsent {
                        let poison = encode(&[blame as i64]);
                        let _ = self.post_bytes(self.coll_plane(), poison, x.dst, TAG_POISON);
                    }
                }
                return Err(e);
            }
        }
        Ok(holds.out)
    }

    /// One engine call: plan (from the cache), interpret, trace.
    #[allow(clippy::too_many_arguments)]
    fn run_planned<T: MpiType>(
        &self,
        kind: CollectiveKind,
        explicit: Option<CollectiveAlgo>,
        root: usize,
        elems: usize,
        out: Vec<T>,
        own: &[T],
        fold: &Fold<T>,
    ) -> MpiResult<Vec<T>> {
        let plan = self.exec_plan(kind, explicit, root, elems, T::WIRE_SIZE)?;
        let start = self.clock.now();
        let out = self.interpret(&plan, out, own, fold)?;
        self.trace_collective(kind, plan.algo, elems, T::WIRE_SIZE, start);
        Ok(out)
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

    /// The plan runs on a copy: `buf` is written only once all of it has.
    fn bcast_planned<T: MpiType>(
        &self,
        explicit: Option<CollectiveAlgo>,
        buf: &mut [T],
        root: usize,
    ) -> MpiResult<()> {
        let (kind, n) = (CollectiveKind::Bcast, buf.len());
        let done = self.run_planned(kind, explicit, root, n, buf.to_vec(), &[], &no_fold)?;
        buf.copy_from_slice(&done);
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

    /// The output buffer starts with this rank's chunk in its slot.
    fn allgather_planned<T: MpiType + Copy + Default>(
        &self,
        explicit: Option<CollectiveAlgo>,
        contrib: &[T],
    ) -> MpiResult<Vec<T>> {
        let p = self.size();
        let total = contrib.len() * p;
        let mut buf = vec![T::default(); total];
        let (lo, hi) = chunk_bounds(total, p, self.rank());
        buf[lo..hi].copy_from_slice(contrib);
        self.run_planned(
            CollectiveKind::Allgather,
            explicit,
            0,
            total,
            buf,
            &[],
            &no_fold,
        )
    }

    /// A reduce plan finishes ranges on the root alone, so only the root
    /// brings a result buffer.
    fn reduce_planned<T: Reducible>(
        &self,
        explicit: Option<CollectiveAlgo>,
        contrib: &[T],
        op: ReduceOp,
        root: usize,
    ) -> MpiResult<Option<Vec<T>>> {
        let (kind, n) = (CollectiveKind::Reduce, contrib.len());
        let is_root = self.rank() == root;
        let out = vec![T::default(); if is_root { n } else { 0 }];
        let out = self.run_planned(kind, explicit, root, n, out, contrib, &folding(op))?;
        Ok(is_root.then_some(out))
    }

    fn allreduce_planned<T: Reducible>(
        &self,
        explicit: Option<CollectiveAlgo>,
        contrib: &[T],
        op: ReduceOp,
    ) -> MpiResult<Vec<T>> {
        let (kind, n) = (CollectiveKind::Allreduce, contrib.len());
        let out = vec![T::default(); n];
        self.run_planned(kind, explicit, 0, n, out, contrib, &folding(op))
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

/// Folds a contribution range onto an accumulator — onto the operation's
/// identity when there is none yet.
type Fold<T> = dyn Fn(Option<Vec<T>>, &[T]) -> Vec<T>;

/// The movement kinds' [`Fold`]: their plans carry finished data only, so
/// it never runs.
fn no_fold<T: MpiType>(_acc: Option<Vec<T>>, x: &[T]) -> Vec<T> {
    x.to_vec()
}

/// An element type the engine reduces: the wire codec of [`MpiType`] plus
/// each [`ReduceOp`]'s identity and fold.
trait Reducible: MpiType + Default {
    fn identity(op: ReduceOp) -> Self;
    fn fold(op: ReduceOp, acc: &mut [Self], x: &[Self]);
}

impl Reducible for f64 {
    fn identity(op: ReduceOp) -> f64 {
        op.identity_f64()
    }
    fn fold(op: ReduceOp, acc: &mut [f64], x: &[f64]) {
        op.fold_f64(acc, x);
    }
}

impl Reducible for i64 {
    fn identity(op: ReduceOp) -> i64 {
        op.identity_i64()
    }
    fn fold(op: ReduceOp, acc: &mut [i64], x: &[i64]) {
        op.fold_i64(acc, x);
    }
}

/// The [`Fold`] of `op` over `T`.
fn folding<T: Reducible>(op: ReduceOp) -> impl Fn(Option<Vec<T>>, &[T]) -> Vec<T> {
    move |acc, x| {
        let mut acc = acc.unwrap_or_else(|| vec![T::identity(op); x.len()]);
        T::fold(op, &mut acc, x);
        acc
    }
}

/// What one rank holds while it interprets a plan.
struct Holdings<'a, T> {
    p: usize,
    me: usize,
    /// The result buffer: ranges received finished, or folded here.
    out: Vec<T>,
    /// This rank's own raw contribution, over `[0, own.len())`.
    own: &'a [T],
    /// The raw payloads received, each kept as it arrived, …
    raw: Vec<Vec<T>>,
    /// … and where each origin's contribution sits, as `(payload, offset in
    /// it, lo, hi)`. Sized on the first arrival; a plan delivers no origin to
    /// a rank twice.
    at: Vec<Option<(usize, usize, usize, usize)>>,
    /// Origins held, this rank's own included.
    held: usize,
    /// Ascending-prefix partial folds through this rank, by first element,
    /// each waiting for the round that forwards it.
    partial: Vec<(usize, Vec<T>)>,
    fold: &'a Fold<T>,
}

impl<'a, T: MpiType> Holdings<'a, T> {
    fn new(p: usize, me: usize, out: Vec<T>, own: &'a [T], fold: &'a Fold<T>) -> Self {
        let (raw, at, partial) = (Vec::new(), Vec::new(), Vec::new());
        let mut holds = Holdings {
            p,
            me,
            out,
            own,
            raw,
            at,
            held: 0,
            partial,
            fold,
        };
        if !own.is_empty() {
            holds.now_holding(1, 0, own.len());
        }
        holds
    }

    /// Elements `[lo, hi)` of `origin`'s raw contribution.
    fn raw_of(&self, origin: usize, lo: usize, hi: usize) -> &[T] {
        if origin == self.me {
            return &self.own[lo..hi];
        }
        let (payload, offset, first, last) =
            self.at[origin].expect("plans move and fold held origins only");
        debug_assert!(first <= lo && hi <= last);
        &self.raw[payload][offset + lo - first..offset + hi - first]
    }

    /// Counts `origins` more raw contributions, held over `[lo, hi)`. The
    /// moment all `p` are present that range is finished: folded onto the
    /// identity in ascending rank order, whatever order they arrived in.
    fn now_holding(&mut self, origins: usize, lo: usize, hi: usize) {
        self.held += origins;
        if self.held == self.p {
            let through_0 = (self.fold)(None, self.raw_of(0, lo, hi));
            let folded = (1..self.p).fold(through_0, |acc, origin| {
                (self.fold)(Some(acc), self.raw_of(origin, lo, hi))
            });
            self.out[lo..hi].copy_from_slice(&folded);
        }
    }

    /// The wire bytes of `x`, a transfer this rank sends.
    fn payload(&mut self, x: &Xfer) -> Vec<u8> {
        match &x.carries {
            Payload::Slice => encode(&self.out[x.lo..x.hi]),
            Payload::Raw(origins) => {
                let mut bytes = Vec::with_capacity(x.elems() * T::WIRE_SIZE);
                for v in origins.iter().flat_map(|&o| self.raw_of(o, x.lo, x.hi)) {
                    v.write_to(&mut bytes);
                }
                bytes
            }
            // Rank 0 starts each chain; the others forward what they folded
            // their own contribution onto when it arrived.
            Payload::Prefix if self.me == 0 => encode(&(self.fold)(None, &self.own[x.lo..x.hi])),
            Payload::Prefix => {
                let waiting = self.partial.iter().position(|(lo, _)| *lo == x.lo);
                let through_me = self
                    .partial
                    .swap_remove(waiting.expect("the prefix arrived"));
                encode(&through_me.1)
            }
        }
    }

    /// Files `x`, a transfer this rank received as `bytes`. A payload whose
    /// size disagrees with the schedule is [`MpiError::InvalidCounts`] — the
    /// hallmark of ranks calling the collective with different lengths.
    fn accept(&mut self, x: &Xfer, bytes: &[u8]) -> MpiResult<()> {
        let (lo, hi) = (x.lo, x.hi);
        match &x.carries {
            Payload::Slice => {
                let want = x.elems() * T::WIRE_SIZE;
                if bytes.len() != want {
                    return Err(MpiError::InvalidCounts(format!(
                        "scheduled transfer carried {} bytes, expected {want} \
                         (mismatched buffer lengths across ranks?)",
                        bytes.len()
                    )));
                }
                decode_into(bytes, &mut self.out[lo..hi])?;
            }
            Payload::Raw(origins) => {
                let arrived = contributions(x, bytes)?;
                self.at.resize(self.p, None);
                for (i, &origin) in origins.iter().enumerate() {
                    self.at[origin] = Some((self.raw.len(), i * (hi - lo), lo, hi));
                }
                self.raw.push(arrived);
                self.now_holding(origins.len(), lo, hi);
            }
            Payload::Prefix => {
                let through_me = (self.fold)(Some(contributions(x, bytes)?), &self.own[lo..hi]);
                if self.me + 1 == self.p {
                    self.out[lo..hi].copy_from_slice(&through_me);
                } else {
                    self.partial.push((lo, through_me));
                }
            }
        }
        Ok(())
    }
}

/// Decodes a received reduction payload and checks its element count.
fn contributions<T: MpiType>(x: &Xfer, bytes: &[u8]) -> MpiResult<Vec<T>> {
    let v: Vec<T> = decode(bytes)?;
    if v.len() != x.elems() {
        return Err(MpiError::InvalidCounts(format!(
            "scheduled reduction transfer carried {} elements, expected {} \
             (mismatched contribution lengths across ranks?)",
            v.len(),
            x.elems()
        )));
    }
    Ok(v)
}
