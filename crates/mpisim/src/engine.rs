//! The collective algorithm engine: schedule-driven collectives with
//! cost-model selection.
//!
//! Every collective here executes a [`perfmodel::collective`] *schedule* —
//! an ordered list of rounds of point-to-point transfers — through the same
//! transport (`Comm::post_payload` / `Comm::recv_bytes_from`) the rest of
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
//!
//! Payloads are built from what a rank already holds, and read in place.
//! Finished ranges (`Slice`) and prefix folds (`Prefix`) are encoded once
//! per send: inline at or under the eager limit, into a pooled lease above
//! it. Raw contributions travel by reference: a rank encodes its own
//! contribution once per call, a receiver keeps the segments a payload
//! arrived in with a per-origin `(piece, offset)` table, and forwarding an
//! origin re-shares its piece — a reduce's raw bytes are written once,
//! however many hops they take, and each is decoded only by the fold that
//! finishes its range. Origin ranges under `RENDEZVOUS_BLOCK` bytes are
//! cheaper copied than shared: those are concatenated into one fresh
//! buffer per send. Either way a payload's length is its schedule's
//! `elems() × WIRE_SIZE` bytes, so virtual time never sees the difference.

use crate::comm::Comm;
use crate::datatype::{decode, decode_into, encode, encode_payload, write_all, MpiType};
use crate::error::{MpiError, MpiResult};
use crate::op::ReduceOp;
use crate::p2p::{self, Msg, Piece, EAGER_LIMIT, RENDEZVOUS_BLOCK};
use crate::plan::{ineligible, Plan, PlanKey};
use crate::pool::BufferPool;
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
    fn recv_sched(&self, src: usize) -> MpiResult<Msg> {
        match self.recv_bytes_from(self.coll_plane(), src, None) {
            Ok((msg, st)) if st.tag == TAG_POISON => {
                let v: Vec<i64> = decode(&msg.bytes())?;
                let world_rank = v
                    .first()
                    .map(|&w| w as usize)
                    .unwrap_or_else(|| self.world_rank_of(src));
                Err(MpiError::NodeFailed { world_rank })
            }
            Ok((msg, _)) => Ok(msg),
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
    /// and `fold` folds an operand onto an accumulator. The rank walks its
    /// own transfers in round order, each round's sends before its
    /// receives, and every transfer says what it carries ([`Payload`]), so
    /// nothing here knows an algorithm.
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
        let pool = &self.shared.pool;
        let mut holds = Holdings::new(self.size(), me, out, own, fold);
        let mut program = plan.program(me);
        while let Some(x) = program.next() {
            let step = if x.src == me {
                self.post_payload(self.coll_plane(), holds.payload(x, pool), x.dst, TAG_COLL)
            } else {
                self.recv_sched(x.src).and_then(|msg| holds.accept(x, msg))
            };
            if let Err(e) = step {
                if let Some(blame) = fault_blame(&e) {
                    let unsent = std::iter::once(x).chain(program).filter(|x| x.src == me);
                    for x in unsent {
                        let poison = [blame as i64];
                        let _ = self.post_typed(self.coll_plane(), &poison, x.dst, TAG_POISON);
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

/// One operand of a fold: this rank's own elements, or another origin's as
/// they arrived on the wire, decoded as the fold reads them.
enum Operand<'a, T> {
    Own(&'a [T]),
    Wire(&'a [u8]),
}

/// Folds an operand onto an accumulator of the same length, first reset to
/// the operation's identity when `seed` (the range's first operand).
type Fold<T> = dyn Fn(&mut [T], Operand<'_, T>, bool);

/// The movement kinds' [`Fold`]: their plans carry finished data only, so
/// it never runs.
fn no_fold<T>(_acc: &mut [T], _x: Operand<'_, T>, _seed: bool) {}

/// An element type the engine reduces: the wire codec of [`MpiType`] plus
/// each [`ReduceOp`]'s identity and operation.
trait Reducible: MpiType + Default {
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

/// The [`Fold`] of `op` over `T`.
fn folding<T: Reducible>(op: ReduceOp) -> impl Fn(&mut [T], Operand<'_, T>, bool) {
    move |acc, x, seed| {
        if seed {
            acc.fill(T::identity(op));
        }
        match x {
            Operand::Own(x) => {
                for (a, &b) in acc.iter_mut().zip(x) {
                    *a = T::apply(op, *a, b);
                }
            }
            Operand::Wire(x) => {
                for (a, b) in acc.iter_mut().zip(x.chunks_exact(T::WIRE_SIZE)) {
                    *a = T::apply(op, *a, T::read_from(b));
                }
            }
        }
    }
}

/// What one rank holds while it interprets a plan.
struct Holdings<'a, T> {
    p: usize,
    me: usize,
    /// The result buffer: ranges received finished, or folded here.
    out: Vec<T>,
    /// This rank's own raw contribution, over `[0, own.len())`, …
    own: &'a [T],
    /// … and its wire bytes, encoded the first time a range of it is
    /// shared.
    own_wire: Option<Piece>,
    /// The raw payloads received, each kept as the pieces it arrived in, …
    segs: Vec<Piece>,
    /// … and where each other origin's contribution sits, as `(piece, byte
    /// offset in it, lo)`: elements from `lo` on. Sized on the first
    /// arrival; a plan delivers no origin to a rank twice.
    at: Vec<Option<(usize, usize, usize)>>,
    /// Origins held, this rank's own included.
    held: usize,
    /// Ascending-prefix partial folds through this rank, by first element,
    /// each waiting for the round that forwards it.
    partial: Vec<(usize, Vec<T>)>,
    fold: &'a Fold<T>,
}

impl<'a, T: MpiType> Holdings<'a, T> {
    fn new(p: usize, me: usize, out: Vec<T>, own: &'a [T], fold: &'a Fold<T>) -> Self {
        let mut holds = Holdings {
            p,
            me,
            out,
            own,
            own_wire: None,
            segs: Vec::new(),
            at: Vec::new(),
            held: 0,
            partial: Vec::new(),
            fold,
        };
        if !own.is_empty() {
            holds.now_holding(1, 0, own.len());
        }
        holds
    }

    /// Where elements `[lo, hi)` of another origin's raw contribution sit:
    /// the index of a held piece and a byte range of it.
    fn held_at(&self, origin: usize, lo: usize, hi: usize) -> (usize, usize, usize) {
        let (seg, offset, first) = self.at[origin].expect("plans move and fold held origins only");
        let from = offset + (lo - first) * T::WIRE_SIZE;
        (seg, from, from + (hi - lo) * T::WIRE_SIZE)
    }

    /// [`Holdings::held_at`], with the piece.
    fn held(&self, origin: usize, lo: usize, hi: usize) -> (&Piece, usize, usize) {
        let (seg, from, to) = self.held_at(origin, lo, hi);
        (&self.segs[seg], from, to)
    }

    /// Elements `[lo, hi)` of `origin`'s raw contribution.
    fn operand(&self, origin: usize, lo: usize, hi: usize) -> Operand<'_, T> {
        if origin == self.me {
            return Operand::Own(&self.own[lo..hi]);
        }
        let (piece, from, to) = self.held(origin, lo, hi);
        Operand::Wire(&piece.bytes()[from..to])
    }

    /// Elements `[lo, hi)` of `origin`'s raw contribution as a shared piece.
    fn share(&mut self, origin: usize, lo: usize, hi: usize) -> Piece {
        if origin == self.me {
            let (own, w) = (self.own, T::WIRE_SIZE);
            let wire = self.own_wire.get_or_insert_with(|| Piece::new(encode(own)));
            return wire.slice(lo * w, hi * w);
        }
        let (piece, from, to) = self.held(origin, lo, hi);
        piece.slice(from, to)
    }

    /// Counts `origins` more raw contributions, held over `[lo, hi)`. The
    /// moment all `p` are present that range is finished: folded onto the
    /// identity in ascending rank order, whatever order they arrived in.
    fn now_holding(&mut self, origins: usize, lo: usize, hi: usize) {
        self.held += origins;
        if self.held == self.p {
            let mut out = std::mem::take(&mut self.out);
            for origin in 0..self.p {
                (self.fold)(&mut out[lo..hi], self.operand(origin, lo, hi), origin == 0);
            }
            self.out = out;
        }
    }

    /// The payload of `x`, a transfer this rank sends.
    fn payload(&mut self, x: &Xfer, pool: &Arc<BufferPool>) -> p2p::Payload {
        let (lo, hi) = (x.lo, x.hi);
        match &x.carries {
            Payload::Slice => encode_payload(&self.out[lo..hi], pool),
            Payload::Raw(origins) if (hi - lo) * T::WIRE_SIZE >= RENDEZVOUS_BLOCK => {
                p2p::Payload::shared(origins.iter().map(|&o| self.share(o, lo, hi)))
            }
            Payload::Raw(origins) => {
                // Too small to be worth sharing: one fresh buffer. Origins
                // that sit back to back in one held piece — as they arrived
                // together — go in one copy.
                let width = (hi - lo) * T::WIRE_SIZE;
                let mut bytes = vec![0; origins.len() * width];
                let mut i = 0;
                while i < origins.len() {
                    let slot = &mut bytes[i * width..];
                    if origins[i] == self.me {
                        write_all(&self.own[lo..hi], &mut slot[..width]);
                        i += 1;
                        continue;
                    }
                    let (seg, from, mut to) = self.held_at(origins[i], lo, hi);
                    let mut run = 1;
                    for &next in origins[i + 1..].iter().take_while(|&&o| o != self.me) {
                        let (s, f, t) = self.held_at(next, lo, hi);
                        if s != seg || f != to {
                            break;
                        }
                        (to, run) = (t, run + 1);
                    }
                    slot[..run * width].copy_from_slice(&self.segs[seg].bytes()[from..to]);
                    i += run;
                }
                match bytes.len() <= EAGER_LIMIT {
                    true => p2p::Payload::inline_from(&bytes),
                    false => p2p::Payload::Shared(vec![Piece::new(bytes)]),
                }
            }
            // Rank 0 starts each chain; the others forward what they folded
            // their own contribution onto when it arrived.
            Payload::Prefix if self.me == 0 => {
                let own = &self.own[lo..hi];
                let mut through_0 = own.to_vec();
                (self.fold)(&mut through_0, Operand::Own(own), true);
                encode_payload(&through_0, pool)
            }
            Payload::Prefix => {
                let waiting = self.partial.iter().position(|(first, _)| *first == lo);
                let through_me = self
                    .partial
                    .swap_remove(waiting.expect("the prefix arrived"));
                encode_payload(&through_me.1, pool)
            }
        }
    }

    /// Files `x`, a transfer this rank received as `msg`, reading it in
    /// place. A payload whose size disagrees with the schedule is
    /// [`MpiError::InvalidCounts`] — the hallmark of ranks calling the
    /// collective with different lengths.
    fn accept(&mut self, x: &Xfer, msg: Msg) -> MpiResult<()> {
        let (lo, hi) = (x.lo, x.hi);
        let want = x.elems() * T::WIRE_SIZE;
        if msg.len() != want {
            return Err(MpiError::InvalidCounts(format!(
                "scheduled transfer carried {} bytes, expected {want} \
                 (mismatched lengths across ranks?)",
                msg.len()
            )));
        }
        match &x.carries {
            Payload::Slice => {
                decode_into(&msg.bytes(), &mut self.out[lo..hi])?;
            }
            Payload::Raw(origins) => {
                let width = (hi - lo) * T::WIRE_SIZE;
                self.at.resize(self.p, None);
                let mut next = origins.iter();
                for piece in msg.into_pieces() {
                    let len = piece.bytes().len();
                    if len % width != 0 {
                        return Err(MpiError::InvalidCounts(format!(
                            "a {len}-byte payload piece splits {width}-byte \
                             contributions (mismatched lengths across ranks?)"
                        )));
                    }
                    for (i, &origin) in next.by_ref().take(len / width).enumerate() {
                        self.at[origin] = Some((self.segs.len(), i * width, lo));
                    }
                    self.segs.push(piece);
                }
                self.now_holding(origins.len(), lo, hi);
            }
            Payload::Prefix => {
                let mut through_me: Vec<T> = decode(&msg.bytes())?;
                (self.fold)(&mut through_me, Operand::Own(&self.own[lo..hi]), false);
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

#[cfg(test)]
mod tests {
    use super::*;

    /// The small-raw path copies the origins that sit back to back in one
    /// held piece at once. Origins of one piece sent as a subset, out of
    /// order, around this rank's own, or over part of their range are not
    /// back to back: every payload must equal the per-origin concatenation.
    #[test]
    fn small_raw_payloads_hold_exactly_the_origins_asked_for() {
        let (p, n) = (5, 4);
        let contrib = |o: usize| -> Vec<f64> { (0..n).map(|i| (10 * o + i) as f64).collect() };
        let fold = folding::<f64>(ReduceOp::Sum);
        let own = contrib(0);
        let mut holds = Holdings::new(p, 0, vec![0.0; n], &own, &fold);
        // Origins 1–3 arrive in one piece, origin 4 in another.
        for (origins, src) in [(vec![1, 2, 3], 1), (vec![4], 4)] {
            let bytes: Vec<u8> = origins.iter().flat_map(|&o| encode(&contrib(o))).collect();
            let x = Xfer {
                src,
                dst: 0,
                lo: 0,
                hi: n,
                carries: Payload::Raw(origins),
            };
            let msg = Msg::new(p2p::Payload::Shared(vec![Piece::new(bytes)]));
            holds.accept(&x, msg).unwrap();
        }
        let pool = BufferPool::new();
        for (origins, lo, hi) in [
            (vec![1, 2, 3], 0, n),
            (vec![1, 3], 0, n),
            (vec![3, 2, 1], 0, n),
            (vec![2, 0, 3, 4], 0, n),
            (vec![1, 2, 3, 4], 1, 3),
        ] {
            let want: Vec<u8> = origins
                .iter()
                .flat_map(|&o| encode(&contrib(o)[lo..hi]))
                .collect();
            let x = Xfer {
                src: 0,
                dst: 1,
                lo,
                hi,
                carries: Payload::Raw(origins.clone()),
            };
            let got = holds.payload(&x, &pool);
            assert_eq!(*got.bytes(), *want, "{origins:?} over [{lo}, {hi})");
        }
    }
}
