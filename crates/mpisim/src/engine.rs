//! The collective algorithm engine: schedule-driven collectives with
//! cost-model selection.
//!
//! Every collective here executes a [`perfmodel::collective`] *schedule* —
//! an ordered list of rounds of point-to-point transfers — through the same
//! eager transport ([`Comm::post_bytes`] / [`Comm::recv_bytes`]) the rest of
//! mpisim uses, on the communicator's collective plane. That buys three
//! properties for free:
//!
//! * **a fault contract** — under fail-stop faults every surviving member
//!   returns either the *complete, correct* result or a typed
//!   [`MpiError::NodeFailed`]; never a torn buffer and never a hang.
//!   Faults propagate *along schedule edges*: a receive aborts when its
//!   specific scheduled sender is dead ([`Comm::recv_bytes_from`]), and a
//!   rank that aborts mid-schedule first *poisons* every scheduled transfer
//!   it has not yet sent (a [`TAG_POISON`] message naming the failed world
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
//! partials, and switching algorithms never changes a single result bit.

use crate::comm::Comm;
use crate::datatype::{decode, decode_into, encode, MpiType};
use crate::error::{MpiError, MpiResult};
use crate::op::ReduceOp;
use crate::plan::{ineligible, Plan, PlanKey};
use hetsim::trace::{TraceEvent, TraceKind};
use hetsim::SimTime;
use perfmodel::collective::{chunk_bounds, CollectiveAlgo, CollectiveKind, Xfer};
use perfmodel::{GatherXfer, HierPlan};
use std::cell::Cell;
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

    /// Posts one scheduled data transfer and counts it, so an abort knows
    /// exactly which scheduled sends remain to be poisoned.
    fn post_sched(&self, bytes: Vec<u8>, dst: usize, sent: &Cell<usize>) -> MpiResult<()> {
        self.post_bytes(self.coll_plane(), bytes, dst, TAG_COLL)?;
        sent.set(sent.get() + 1);
        Ok(())
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

    /// Posts a poison message for every scheduled send of this rank that was
    /// never issued (`sent` were). Posts to already-dead destinations fail
    /// and are dropped — those ranks need no notification.
    fn poison_rest(&self, rounds: &[Vec<Xfer>], sent: usize, blame: usize) {
        let me = self.rank();
        for (i, x) in rounds
            .iter()
            .flatten()
            .filter(|x| x.src == me)
            .enumerate()
        {
            if i >= sent {
                let _ = self.post_bytes(
                    self.coll_plane(),
                    encode(&[blame as i64]),
                    x.dst,
                    TAG_POISON,
                );
            }
        }
    }

    /// Runs one engine collective under the fault contract: `body` threads
    /// the issued-send counter through the algorithm, and on a fail-stop
    /// error the un-issued remainder of this rank's schedule is poisoned so
    /// every downstream rank aborts with the same blamed world rank.
    fn with_fault_contract<R>(
        &self,
        rounds: &[Vec<Xfer>],
        body: impl FnOnce(&Cell<usize>) -> MpiResult<R>,
    ) -> MpiResult<R> {
        let sent = Cell::new(0usize);
        let out = body(&sent);
        if let Err(e) = &out {
            if let Some(blame) = fault_blame(e) {
                self.poison_rest(rounds, sent.get(), blame);
            }
        }
        out
    }

    /// Executes a data-movement schedule over `buf`: within each round, this
    /// rank issues all its sends in schedule order, then completes all its
    /// receives. A received payload whose size disagrees with the scheduled
    /// range is [`MpiError::InvalidCounts`] — the hallmark of ranks calling
    /// the collective with different buffer lengths.
    ///
    /// All receives land in a scratch copy that is committed to `buf` only
    /// when the whole schedule has run: an abort part-way through leaves
    /// `buf` exactly as the caller passed it (no torn results).
    fn run_movement<T: MpiType>(
        &self,
        rounds: &[Vec<Xfer>],
        buf: &mut [T],
        sent: &Cell<usize>,
    ) -> MpiResult<()> {
        let me = self.rank();
        let mut scratch: Vec<T> = buf.to_vec();
        for round in rounds {
            for x in round.iter().filter(|x| x.src == me) {
                self.post_sched(encode(&scratch[x.lo..x.hi]), x.dst, sent)?;
            }
            for x in round.iter().filter(|x| x.dst == me) {
                let bytes = self.recv_sched(x.src)?;
                let want = x.elems() * T::WIRE_SIZE;
                if bytes.len() != want {
                    return Err(MpiError::InvalidCounts(format!(
                        "scheduled transfer carried {} bytes, expected {want} \
                         (mismatched buffer lengths across ranks?)",
                        bytes.len()
                    )));
                }
                decode_into(&bytes, &mut scratch[x.lo..x.hi])?;
            }
        }
        buf.copy_from_slice(&scratch);
        Ok(())
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

    /// A bcast plan — flat or hierarchical — is pure movement: its rounds
    /// are the executed schedule, the pricer's replay and the poison
    /// reference all at once.
    fn bcast_planned<T: MpiType>(
        &self,
        explicit: Option<CollectiveAlgo>,
        buf: &mut [T],
        root: usize,
    ) -> MpiResult<()> {
        let kind = CollectiveKind::Bcast;
        let plan = self.exec_plan(kind, explicit, root, buf.len(), T::WIRE_SIZE)?;
        let start = self.clock.now();
        self.with_fault_contract(&plan.rounds, |sent| {
            self.run_movement(&plan.rounds, buf, sent)
        })?;
        self.trace_collective(kind, plan.algo, buf.len(), T::WIRE_SIZE, start);
        Ok(())
    }

    /// Engine allgather for equal contributions: every rank contributes
    /// `contrib` and receives the concatenation in rank order. All ranks
    /// must contribute the same number of elements (use the legacy
    /// [`Comm::allgatherv`] for ragged contributions).
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

    /// An allgather plan is pure chunk movement over the output buffer
    /// (hierarchically: runs gather leaders-up, leaders exchange, the full
    /// buffer broadcasts back down).
    fn allgather_planned<T: MpiType + Copy + Default>(
        &self,
        explicit: Option<CollectiveAlgo>,
        contrib: &[T],
    ) -> MpiResult<Vec<T>> {
        let kind = CollectiveKind::Allgather;
        let p = self.size();
        let total = contrib.len() * p;
        let plan = self.exec_plan(kind, explicit, 0, total, T::WIRE_SIZE)?;
        let mut buf = vec![T::default(); total];
        let (lo, hi) = chunk_bounds(total, p, self.rank());
        buf[lo..hi].copy_from_slice(contrib);
        let start = self.clock.now();
        self.with_fault_contract(&plan.rounds, |sent| {
            self.run_movement(&plan.rounds, &mut buf, sent)
        })?;
        self.trace_collective(kind, plan.algo, total, T::WIRE_SIZE, start);
        Ok(buf)
    }
}

/// Generates the typed engine reductions for one element type.
macro_rules! impl_engine_reductions {
    ($t:ty, $identity:ident, $fold:ident,
     $recv_contribs:ident, $linear_reduce:ident, $binomial_reduce:ident,
     $hier_gather:ident,
     $ring_allreduce:ident, $rd_allreduce:ident, $sag_allreduce:ident,
     $reduce:ident, $reduce_with:ident, $reduce_planned:ident,
     $allreduce:ident, $allreduce_with:ident, $allreduce_planned:ident,
     $reduce_doc:expr, $allreduce_doc:expr) => {
        impl Comm {
            /// Receives one scheduled reduction payload and checks its
            /// element count.
            fn $recv_contribs(&self, src: usize, want: usize) -> MpiResult<Vec<$t>> {
                let bytes = self.recv_sched(src)?;
                let v: Vec<$t> = decode(&bytes)?;
                if v.len() != want {
                    return Err(MpiError::InvalidCounts(format!(
                        "scheduled reduction transfer carried {} elements, expected {want} \
                         (mismatched contribution lengths across ranks?)",
                        v.len()
                    )));
                }
                Ok(v)
            }

            /// Flat reduce: every rank sends its raw contribution to the
            /// root, which folds in ascending rank order.
            fn $linear_reduce(
                &self,
                contrib: &[$t],
                op: ReduceOp,
                root: usize,
                sent: &Cell<usize>,
            ) -> MpiResult<Option<Vec<$t>>> {
                let p = self.size();
                let me = self.rank();
                let n = contrib.len();
                if me != root {
                    // An empty contribution is not scheduled (and the root
                    // never receives it) — posting one would leak a stray
                    // envelope onto the collective plane.
                    if n > 0 {
                        self.post_sched(encode(contrib), root, sent)?;
                    }
                    return Ok(None);
                }
                let mut raw: Vec<Option<Vec<$t>>> = vec![None; p];
                for src in 0..p {
                    if src != root && n > 0 {
                        raw[src] = Some(self.$recv_contribs(src, n)?);
                    }
                }
                let mut acc = vec![op.$identity(); n];
                for origin in 0..p {
                    match &raw[origin] {
                        Some(v) => op.$fold(&mut acc, v),
                        None => op.$fold(&mut acc, contrib),
                    }
                }
                Ok(Some(acc))
            }

            /// Binomial raw-contribution gather: each sender forwards every
            /// contribution its subtree holds (concatenated in ascending
            /// relative-rank order), and only the root folds — in ascending
            /// absolute rank order, so the result is bit-identical to
            /// the linear variant.
            fn $binomial_reduce(
                &self,
                contrib: &[$t],
                op: ReduceOp,
                root: usize,
                sent: &Cell<usize>,
            ) -> MpiResult<Option<Vec<$t>>> {
                let p = self.size();
                let n = contrib.len();
                let rel = (self.rank() + p - root) % p;
                let abs = |r: usize| (r + root) % p;
                let mut held: Vec<Option<Vec<$t>>> = vec![None; p];
                held[rel] = Some(contrib.to_vec());
                let mut span = 1;
                while span < p {
                    if rel >= span && (rel - span) % (2 * span) == 0 {
                        let cnt = span.min(p - rel);
                        let mut payload = Vec::with_capacity(cnt * n);
                        for o in rel..rel + cnt {
                            payload.extend_from_slice(held[o].as_ref().expect("subtree held"));
                        }
                        if !payload.is_empty() {
                            self.post_sched(encode(&payload), abs(rel - span), sent)?;
                        }
                        return Ok(None); // a sender's part in the gather is over
                    }
                    if rel % (2 * span) == 0 && rel + span < p {
                        let src_rel = rel + span;
                        let cnt = span.min(p - src_rel);
                        if cnt * n > 0 {
                            let v = self.$recv_contribs(abs(src_rel), cnt * n)?;
                            for i in 0..cnt {
                                held[src_rel + i] = Some(v[i * n..(i + 1) * n].to_vec());
                            }
                        } else {
                            for i in 0..cnt {
                                held[src_rel + i] = Some(Vec::new());
                            }
                        }
                    }
                    span <<= 1;
                }
                if rel != 0 {
                    return Ok(None);
                }
                let mut acc = vec![op.$identity(); n];
                for abs_rank in 0..p {
                    let r = (abs_rank + p - root) % p;
                    op.$fold(&mut acc, held[r].as_ref().expect("root gathered everything"));
                }
                Ok(Some(acc))
            }

            /// Hierarchical raw-contribution gather: each transfer of the
            /// plan forwards exactly the contributions its sender holds
            /// (ascending origins), so only the root folds — in ascending
            /// absolute rank order, bit-identical to every flat algorithm.
            /// The send/skip filter mirrors [`HierPlan::xfer_rounds`]
            /// exactly, so the fault contract's poison counting and the
            /// pricer's replay both see the executed transfer sequence.
            fn $hier_gather(
                &self,
                plan: &HierPlan,
                contrib: &[$t],
                op: ReduceOp,
                root: usize,
                sent: &Cell<usize>,
            ) -> MpiResult<Option<Vec<$t>>> {
                let p = self.size();
                let me = self.rank();
                let n = contrib.len();
                let live = |g: &&GatherXfer| !g.origins.is_empty() && n > 0 && g.src != g.dst;
                let mut held: Vec<Option<Vec<$t>>> = vec![None; p];
                held[me] = Some(contrib.to_vec());
                for round in &plan.gather {
                    for g in round.iter().filter(|g| g.src == me).filter(live) {
                        let mut payload = Vec::with_capacity(g.origins.len() * n);
                        for &o in &g.origins {
                            payload.extend_from_slice(
                                held[o].as_ref().expect("plan sends only held origins"),
                            );
                        }
                        self.post_sched(encode(&payload), g.dst, sent)?;
                    }
                    for g in round.iter().filter(|g| g.dst == me).filter(live) {
                        let v = self.$recv_contribs(g.src, g.origins.len() * n)?;
                        for (i, &o) in g.origins.iter().enumerate() {
                            held[o] = Some(v[i * n..(i + 1) * n].to_vec());
                        }
                    }
                }
                if me != root {
                    return Ok(None);
                }
                let mut acc = vec![op.$identity(); n];
                for origin in 0..p {
                    op.$fold(
                        &mut acc,
                        held[origin]
                            .as_ref()
                            .expect("plan funnels every contribution to the root"),
                    );
                }
                Ok(Some(acc))
            }

            /// Pipelined ring allreduce: ascending-prefix partial folds
            /// travel the chain forward chunk by chunk, finished chunks
            /// travel it backward, both directions pipelined through shared
            /// global rounds (mirroring the schedule generator exactly).
            fn $ring_allreduce(
                &self,
                contrib: &[$t],
                op: ReduceOp,
                sent: &Cell<usize>,
            ) -> MpiResult<Vec<$t>> {
                let p = self.size();
                let r = self.rank();
                let n = contrib.len();
                let nchunks = p;
                let mut result = contrib.to_vec();
                let mut partial: Vec<Option<Vec<$t>>> = vec![None; nchunks];
                for g in 0..nchunks + 2 * p - 3 {
                    if r < p - 1 {
                        if let Some(c) = g.checked_sub(r) {
                            if c < nchunks {
                                let (lo, hi) = chunk_bounds(n, nchunks, c);
                                if hi > lo {
                                    let payload = if r == 0 {
                                        let mut acc = vec![op.$identity(); hi - lo];
                                        op.$fold(&mut acc, &contrib[lo..hi]);
                                        acc
                                    } else {
                                        partial[c].take().expect("folded last round")
                                    };
                                    self.post_sched(encode(&payload), r + 1, sent)?;
                                }
                            }
                        }
                    }
                    if r > 0 {
                        if let Some(c) = (g + r).checked_sub(2 * (p - 1)) {
                            if c < nchunks {
                                let (lo, hi) = chunk_bounds(n, nchunks, c);
                                if hi > lo {
                                    self.post_sched(encode(&result[lo..hi]), r - 1, sent)?;
                                }
                            }
                        }
                    }
                    if r > 0 {
                        if let Some(c) = g.checked_sub(r - 1) {
                            if c < nchunks {
                                let (lo, hi) = chunk_bounds(n, nchunks, c);
                                if hi > lo {
                                    let mut v = self.$recv_contribs(r - 1, hi - lo)?;
                                    op.$fold(&mut v, &contrib[lo..hi]);
                                    if r == p - 1 {
                                        result[lo..hi].copy_from_slice(&v);
                                    } else {
                                        partial[c] = Some(v);
                                    }
                                }
                            }
                        }
                    }
                    if r < p - 1 {
                        if let Some(c) = (g + r + 1).checked_sub(2 * (p - 1)) {
                            if c < nchunks {
                                let (lo, hi) = chunk_bounds(n, nchunks, c);
                                if hi > lo {
                                    let v = self.$recv_contribs(r + 1, hi - lo)?;
                                    result[lo..hi].copy_from_slice(&v);
                                }
                            }
                        }
                    }
                }
                Ok(result)
            }

            /// Recursive-doubling allreduce as a doubling raw-contribution
            /// gather: round `k` exchanges the `2^k` contributions each
            /// partner holds (aligned blocks), and every rank folds all `p`
            /// contributions locally in ascending rank order. Requires a
            /// power-of-two communicator.
            fn $rd_allreduce(
                &self,
                contrib: &[$t],
                op: ReduceOp,
                sent: &Cell<usize>,
            ) -> MpiResult<Vec<$t>> {
                let p = self.size();
                let r = self.rank();
                let n = contrib.len();
                let mut held: Vec<Option<Vec<$t>>> = vec![None; p];
                held[r] = Some(contrib.to_vec());
                let mut span = 1;
                while span < p {
                    let partner = r ^ span;
                    let base = r & !(span - 1);
                    if span * n > 0 {
                        let mut payload = Vec::with_capacity(span * n);
                        for o in base..base + span {
                            payload.extend_from_slice(held[o].as_ref().expect("aligned block"));
                        }
                        self.post_sched(encode(&payload), partner, sent)?;
                        let pbase = partner & !(span - 1);
                        let v = self.$recv_contribs(partner, span * n)?;
                        for i in 0..span {
                            held[pbase + i] = Some(v[i * n..(i + 1) * n].to_vec());
                        }
                    } else {
                        let pbase = partner & !(span - 1);
                        for i in 0..span {
                            held[pbase + i] = Some(Vec::new());
                        }
                    }
                    span <<= 1;
                }
                let mut acc = vec![op.$identity(); n];
                for o in 0..p {
                    op.$fold(&mut acc, held[o].as_ref().expect("gathered all blocks"));
                }
                Ok(acc)
            }

            /// Rabenseifner-style allreduce: a direct reduce-scatter of raw
            /// chunks (rank `j` folds every rank's copy of chunk `j`, in
            /// ascending rank order) followed by a direct allgather of the
            /// reduced chunks.
            fn $sag_allreduce(
                &self,
                contrib: &[$t],
                op: ReduceOp,
                sent: &Cell<usize>,
            ) -> MpiResult<Vec<$t>> {
                let p = self.size();
                let me = self.rank();
                let n = contrib.len();
                for dst in 0..p {
                    if dst != me {
                        let (lo, hi) = chunk_bounds(n, p, dst);
                        if hi > lo {
                            self.post_sched(encode(&contrib[lo..hi]), dst, sent)?;
                        }
                    }
                }
                let (mlo, mhi) = chunk_bounds(n, p, me);
                let mut raw: Vec<Option<Vec<$t>>> = vec![None; p];
                for src in 0..p {
                    if src != me && mhi > mlo {
                        raw[src] = Some(self.$recv_contribs(src, mhi - mlo)?);
                    }
                }
                let mut acc = vec![op.$identity(); mhi - mlo];
                for origin in 0..p {
                    match &raw[origin] {
                        Some(v) => op.$fold(&mut acc, v),
                        None => op.$fold(&mut acc, &contrib[mlo..mhi]),
                    }
                }
                let mut result = contrib.to_vec();
                result[mlo..mhi].copy_from_slice(&acc);
                for dst in 0..p {
                    if dst != me && mhi > mlo {
                        self.post_sched(encode(&acc), dst, sent)?;
                    }
                }
                for src in 0..p {
                    if src != me {
                        let (lo, hi) = chunk_bounds(n, p, src);
                        if hi > lo {
                            let v = self.$recv_contribs(src, hi - lo)?;
                            result[lo..hi].copy_from_slice(&v);
                        }
                    }
                }
                Ok(result)
            }

            #[doc = $reduce_doc]
            ///
            /// The result is always the identity-seeded fold of the
            /// contributions in ascending communicator-rank order,
            /// bit-identical across every algorithm.
            ///
            /// # Errors
            /// [`MpiError::InvalidRank`] for a bad root;
            /// [`MpiError::InvalidCounts`] for mismatched contribution
            /// lengths or an ineligible pinned algorithm;
            /// [`MpiError::NodeFailed`] if this rank's data path depends on
            /// a fail-stopped member (every survivor returns the complete
            /// result or that error, never a torn result).
            pub fn $reduce(
                &self,
                contrib: &[$t],
                op: ReduceOp,
                root: usize,
            ) -> MpiResult<Option<Vec<$t>>> {
                self.$reduce_planned(None, contrib, op, root)
            }

            #[doc = concat!("[`Comm::", stringify!($reduce), "`] with an explicit algorithm.")]
            ///
            /// # Errors
            #[doc = concat!("As [`Comm::", stringify!($reduce), "`].")]
            pub fn $reduce_with(
                &self,
                algo: CollectiveAlgo,
                contrib: &[$t],
                op: ReduceOp,
                root: usize,
            ) -> MpiResult<Option<Vec<$t>>> {
                self.$reduce_planned(Some(algo), contrib, op, root)
            }

            fn $reduce_planned(
                &self,
                explicit: Option<CollectiveAlgo>,
                contrib: &[$t],
                op: ReduceOp,
                root: usize,
            ) -> MpiResult<Option<Vec<$t>>> {
                let kind = CollectiveKind::Reduce;
                let (n, elem_bytes) = (contrib.len(), std::mem::size_of::<$t>());
                let plan = self.exec_plan(kind, explicit, root, n, elem_bytes)?;
                let start = self.clock.now();
                let out =
                    self.with_fault_contract(&plan.rounds, |sent| match (&plan.hier, plan.algo) {
                        (Some(hier), _) => self.$hier_gather(hier, contrib, op, root, sent),
                        (None, CollectiveAlgo::Linear) => {
                            self.$linear_reduce(contrib, op, root, sent)
                        }
                        (None, CollectiveAlgo::Binomial) => {
                            self.$binomial_reduce(contrib, op, root, sent)
                        }
                        (None, algo) => unreachable!("no {} reduce plan exists", algo.name()),
                    })?;
                self.trace_collective(kind, plan.algo, n, elem_bytes, start);
                Ok(out)
            }

            #[doc = $allreduce_doc]
            ///
            /// The result is always the identity-seeded fold of the
            /// contributions in ascending communicator-rank order,
            /// bit-identical across every algorithm.
            ///
            /// # Errors
            /// [`MpiError::InvalidCounts`] for mismatched contribution
            /// lengths or an ineligible pinned algorithm;
            /// [`MpiError::NodeFailed`] if this rank's data path depends on
            /// a fail-stopped member (every survivor returns the complete
            /// result or that error, never a torn result).
            pub fn $allreduce(&self, contrib: &[$t], op: ReduceOp) -> MpiResult<Vec<$t>> {
                self.$allreduce_planned(None, contrib, op)
            }

            #[doc = concat!("[`Comm::", stringify!($allreduce), "`] with an explicit algorithm.")]
            ///
            /// # Errors
            #[doc = concat!("As [`Comm::", stringify!($allreduce), "`].")]
            pub fn $allreduce_with(
                &self,
                algo: CollectiveAlgo,
                contrib: &[$t],
                op: ReduceOp,
            ) -> MpiResult<Vec<$t>> {
                self.$allreduce_planned(Some(algo), contrib, op)
            }

            fn $allreduce_planned(
                &self,
                explicit: Option<CollectiveAlgo>,
                contrib: &[$t],
                op: ReduceOp,
            ) -> MpiResult<Vec<$t>> {
                let kind = CollectiveKind::Allreduce;
                let (n, elem_bytes) = (contrib.len(), std::mem::size_of::<$t>());
                let plan = self.exec_plan(kind, explicit, 0, n, elem_bytes)?;
                let start = self.clock.now();
                // One fault contract spans every phase: the send counter
                // runs through the plan's concatenated rounds.
                let out = self.with_fault_contract(&plan.rounds, |sent| {
                    let red = match (&plan.hier, plan.algo) {
                        (None, CollectiveAlgo::Ring) => {
                            return self.$ring_allreduce(contrib, op, sent)
                        }
                        (None, CollectiveAlgo::RecursiveDoubling) => {
                            return self.$rd_allreduce(contrib, op, sent)
                        }
                        (None, CollectiveAlgo::ScatterAllgather) => {
                            return self.$sag_allreduce(contrib, op, sent)
                        }
                        // The composed shapes: reduce to rank 0, then
                        // broadcast the fold back out over the plan's
                        // movement rounds.
                        (Some(hier), _) => self.$hier_gather(hier, contrib, op, 0, sent)?,
                        (None, CollectiveAlgo::Linear) => {
                            self.$linear_reduce(contrib, op, 0, sent)?
                        }
                        (None, CollectiveAlgo::Binomial) => {
                            self.$binomial_reduce(contrib, op, 0, sent)?
                        }
                        (None, CollectiveAlgo::Hierarchical) => {
                            unreachable!("a hierarchical plan carries its HierPlan")
                        }
                    };
                    let mut buf = red.unwrap_or_else(|| vec![<$t>::default(); n]);
                    self.run_movement(&plan.rounds[plan.movement_from..], &mut buf, sent)?;
                    Ok(buf)
                })?;
                self.trace_collective(kind, plan.algo, n, elem_bytes, start);
                Ok(out)
            }
        }
    };
}

impl_engine_reductions!(
    f64,
    identity_f64,
    fold_f64,
    recv_contribs_f64,
    linear_reduce_f64,
    binomial_reduce_f64,
    hier_gather_f64,
    ring_allreduce_f64,
    rd_allreduce_f64,
    sag_allreduce_f64,
    reduce_eq_f64,
    reduce_eq_f64_with,
    reduce_f64_planned,
    allreduce_eq_f64,
    allreduce_eq_f64_with,
    allreduce_f64_planned,
    "Engine reduce over equal-length `f64` contributions; the root receives the result.",
    "Engine allreduce over equal-length `f64` contributions."
);

impl_engine_reductions!(
    i64,
    identity_i64,
    fold_i64,
    recv_contribs_i64,
    linear_reduce_i64,
    binomial_reduce_i64,
    hier_gather_i64,
    ring_allreduce_i64,
    rd_allreduce_i64,
    sag_allreduce_i64,
    reduce_eq_i64,
    reduce_eq_i64_with,
    reduce_i64_planned,
    allreduce_eq_i64,
    allreduce_eq_i64_with,
    allreduce_i64_planned,
    "Engine reduce over equal-length `i64` contributions; the root receives the result.",
    "Engine allreduce over equal-length `i64` contributions."
);
