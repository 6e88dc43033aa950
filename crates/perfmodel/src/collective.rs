//! Collective algorithm schedules and their pricing.
//!
//! The collective engine (DESIGN.md §10) expresses every collective
//! algorithm as a *schedule*: an ordered list of rounds, each round an
//! ordered list of point-to-point transfers. The same schedule drives two
//! consumers that must never disagree:
//!
//! * the **executor** in `mpisim`, which runs each transfer as the
//!   transport's eager send half on the sender and its receive half on the
//!   receiver, every rank in its own program order, and
//! * the **pricer** here, which replays the rounds against a [`PairCost`]
//!   table to predict the collective's virtual time.
//!
//! The replay mirrors the transport exactly: within a round every rank
//! issues all of its sends first (each advancing the sender's clock by the
//! link latency, the eager injection overhead) and then merges the arrival
//! times of its receives. The transport's contention arbitration is
//! *endpoint-causal* — a sender grants a transfer against its own view of
//! the shared resource (NIC pair, bus, or intra-node memory bus) and the
//! receiver settles the stamped reservation against its own view at match
//! time — so each rank's state evolves only through its own program-order
//! actions. The replay keeps one clock and one [`hetsim::NetFrontier`] per
//! rank and calls the transport's own grant / settle functions in schedule
//! order, which *is* each rank's program order; the prediction is therefore
//! bit-exact under every contention model, not just parallel links.
//!
//! A transfer says what it carries ([`Payload`]), so the schedule is the
//! whole algorithm: the executor runs it, and has no per-algorithm code to
//! keep in step. Reduction schedules move **raw contributions** (or
//! ascending-prefix partial folds), never tree-shaped partial sums, so that
//! every algorithm yields the identical identity-seeded rank-ascending left
//! fold — selection can switch algorithms per call without perturbing
//! floating-point results. The pricer and [`fault_impact`] read only a
//! transfer's endpoints and size.

use crate::compile::PairCost;
use hetsim::{ContentionModel, NetFrontier, NodeId, SimTime, WireXfer};
use std::ops::Range;

/// Which collective a schedule implements.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CollectiveKind {
    /// One-to-all broadcast (`MPI_Bcast`).
    Bcast,
    /// All-to-one reduction (`MPI_Reduce`).
    Reduce,
    /// All-to-all reduction (`MPI_Allreduce`).
    Allreduce,
    /// All-to-all gather with equal contributions (`MPI_Allgather`).
    Allgather,
}

impl CollectiveKind {
    /// Stable lower-case label.
    pub fn name(self) -> &'static str {
        match self {
            CollectiveKind::Bcast => "bcast",
            CollectiveKind::Reduce => "reduce",
            CollectiveKind::Allreduce => "allreduce",
            CollectiveKind::Allgather => "allgather",
        }
    }
}

/// A collective algorithm the engine can schedule.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CollectiveAlgo {
    /// Flat root-fanout (or direct exchange): every transfer in one round.
    Linear,
    /// Binomial tree: ⌈log₂ p⌉ rounds of doubling fan-out (bcast) or
    /// raw-contribution gather (reduce).
    Binomial,
    /// Pipelined chain: the payload is cut into p chunks that travel the
    /// rank-ascending chain hop by hop (and back, for allreduce).
    Ring,
    /// Recursive doubling: log₂ p rounds of pairwise block exchange.
    /// Eligible only when the communicator size is a power of two.
    RecursiveDoubling,
    /// Rabenseifner-style scatter-allgather: chunk scatter (or direct
    /// reduce-scatter) followed by an all-to-all chunk allgather.
    ScatterAllgather,
    /// A topology-aware multi-level plan from [`crate::hier::plan`]: one
    /// per-group algorithm per hierarchy level, crossing each expensive
    /// boundary once. Not a flat schedule — it is never [`eligible`] here
    /// and never appears in [`CollectiveAlgo::ALL`]; the engine reaches it
    /// only through hierarchy-aware auto-selection, and this variant names
    /// the choice in traces, predictions and bench output.
    Hierarchical,
}

impl CollectiveAlgo {
    /// Every *flat* algorithm, in selection tie-break order.
    /// [`CollectiveAlgo::Hierarchical`] is deliberately absent: it has no
    /// flat schedule and competes against the flat winner separately.
    pub const ALL: [CollectiveAlgo; 5] = [
        CollectiveAlgo::Linear,
        CollectiveAlgo::Binomial,
        CollectiveAlgo::Ring,
        CollectiveAlgo::RecursiveDoubling,
        CollectiveAlgo::ScatterAllgather,
    ];

    /// Stable lower-case label (used for trace spans and bench output).
    pub fn name(self) -> &'static str {
        match self {
            CollectiveAlgo::Linear => "linear",
            CollectiveAlgo::Binomial => "binomial",
            CollectiveAlgo::Ring => "ring",
            CollectiveAlgo::RecursiveDoubling => "recursive-doubling",
            CollectiveAlgo::ScatterAllgather => "scatter-allgather",
            CollectiveAlgo::Hierarchical => "hierarchical",
        }
    }
}

/// What a scheduled transfer's payload is, for the `n`-element call it
/// belongs to.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Payload {
    /// Elements `[lo, hi)` of the result buffer, finished: the broadcast
    /// data, an allgather chunk, or a completed fold.
    Slice,
    /// Elements `[lo, hi)` of the raw contributions of the origins at
    /// positions `[start, end)` of the schedule's origin order (taken
    /// modulo p; see [`Xfer::origins`]), concatenated in that order. The
    /// sender holds every one of them (its own, or received earlier); no
    /// origin reaches a rank twice.
    Raw(Range<usize>),
    /// The identity-seeded left fold of elements `[lo, hi)` of the
    /// contributions of ranks `0..=src`, in ascending rank order. Always
    /// sent to rank `src + 1`, which folds its own contribution on.
    Prefix,
}

/// One scheduled point-to-point transfer: `elems()` payload elements from
/// communicator rank `src` to rank `dst`, about elements `[lo, hi)` of the
/// call's buffer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Xfer {
    /// Sending communicator rank.
    pub src: usize,
    /// Receiving communicator rank.
    pub dst: usize,
    /// First buffer element concerned (inclusive).
    pub lo: usize,
    /// Last buffer element concerned (exclusive).
    pub hi: usize,
    /// What the payload is.
    pub carries: Payload,
}

impl Xfer {
    /// Payload size in elements: the range once, or once per raw origin.
    #[inline]
    pub fn elems(&self) -> usize {
        let copies = match &self.carries {
            Payload::Raw(origins) => origins.len(),
            Payload::Slice | Payload::Prefix => 1,
        };
        copies * (self.hi - self.lo)
    }

    /// The origin ranks of a [`Payload::Raw`] transfer, in carried order
    /// (none for the other payloads). `order` is the schedule's origin
    /// order: rank order `0..p` for a flat schedule, [`HierPlan::order`]
    /// for a hierarchical plan.
    ///
    /// [`HierPlan::order`]: crate::HierPlan::order
    pub fn origins<'a>(&'a self, order: &'a [usize]) -> impl Iterator<Item = usize> + 'a {
        let positions = match &self.carries {
            Payload::Raw(positions) => positions.clone(),
            Payload::Slice | Payload::Prefix => 0..0,
        };
        positions.map(|i| order[i % order.len()])
    }
}

/// How concurrent transfers share the network: the pricing API's name for
/// hetsim's [`ContentionModel`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum LinkSharing {
    /// Every pair has a private link; transfers never contend.
    #[default]
    Parallel,
    /// One NIC per node: a node's transfers (in or out) serialise.
    PerEndpoint,
    /// One shared medium: every transfer serialises globally.
    Shared,
}

impl From<LinkSharing> for ContentionModel {
    fn from(sharing: LinkSharing) -> Self {
        match sharing {
            LinkSharing::Parallel => ContentionModel::ParallelLinks,
            LinkSharing::PerEndpoint => ContentionModel::SerializedNic,
            LinkSharing::Shared => ContentionModel::SharedBus,
        }
    }
}

/// The balanced chunk decomposition every chunked schedule uses: chunk `i`
/// of an `n`-element payload cut into `parts` is `[i*n/parts, (i+1)*n/parts)`.
#[inline]
pub fn chunk_bounds(n: usize, parts: usize, i: usize) -> (usize, usize) {
    (i * n / parts, (i + 1) * n / parts)
}

/// Whether `algo` can run `kind` on a `p`-rank communicator.
///
/// A single rank degenerates every collective to a local operation, so only
/// [`CollectiveAlgo::Linear`] (an empty schedule) is offered. Recursive
/// doubling needs a power-of-two communicator; everything else is
/// unrestricted.
pub fn eligible(kind: CollectiveKind, algo: CollectiveAlgo, p: usize) -> bool {
    if algo == CollectiveAlgo::Hierarchical {
        // Not a flat schedule: produced only by `crate::hier::plan`.
        return false;
    }
    if p <= 1 {
        return algo == CollectiveAlgo::Linear;
    }
    match (kind, algo) {
        (CollectiveKind::Bcast, CollectiveAlgo::RecursiveDoubling) => false,
        (CollectiveKind::Reduce, CollectiveAlgo::Ring | CollectiveAlgo::RecursiveDoubling | CollectiveAlgo::ScatterAllgather) => false,
        (CollectiveKind::Allreduce | CollectiveKind::Allgather, CollectiveAlgo::RecursiveDoubling) => p.is_power_of_two(),
        (CollectiveKind::Allgather, CollectiveAlgo::Binomial | CollectiveAlgo::ScatterAllgather) => false,
        _ => true,
    }
}

/// The algorithms eligible for `kind` on a `p`-rank communicator, in
/// tie-break order.
pub fn algos_for(kind: CollectiveKind, p: usize) -> Vec<CollectiveAlgo> {
    CollectiveAlgo::ALL
        .into_iter()
        .filter(|&a| eligible(kind, a, p))
        .collect()
}

/// Schedules a transfer unless it would be empty or a self-send.
fn push_as(carries: Payload, round: &mut Vec<Xfer>, src: usize, dst: usize, lo: usize, hi: usize) {
    if hi > lo && src != dst {
        round.push(Xfer {
            src,
            dst,
            lo,
            hi,
            carries,
        });
    }
}

/// Schedules the finished range `[lo, hi)` from `src` to `dst`.
pub(crate) fn push(round: &mut Vec<Xfer>, src: usize, dst: usize, lo: usize, hi: usize) {
    push_as(Payload::Slice, round, src, dst, lo, hi);
}

/// Every rank ships its own chunk of the `n`-element buffer to every other
/// rank: the direct allgather, and the closing round of both
/// scatter-allgather shapes.
fn chunk_exchange(p: usize, n: usize) -> Vec<Xfer> {
    let mut round = Vec::new();
    for src in 0..p {
        let (lo, hi) = chunk_bounds(n, p, src);
        for dst in 0..p {
            push(&mut round, src, dst, lo, hi);
        }
    }
    round
}

/// The schedule of `algo` running `kind` over `p` ranks rooted at `root`
/// (ignored for rootless kinds) on an `n`-element payload; `None` if the
/// algorithm is not [`eligible`].
///
/// For [`CollectiveKind::Allgather`], `n` is the *total* output length
/// (`p` equal contributions of `n / p` elements each).
pub fn schedule(
    kind: CollectiveKind,
    algo: CollectiveAlgo,
    p: usize,
    root: usize,
    n: usize,
) -> Option<Vec<Vec<Xfer>>> {
    if !eligible(kind, algo, p) || root >= p {
        return None;
    }
    if p <= 1 {
        return Some(Vec::new());
    }
    Some(match kind {
        CollectiveKind::Bcast => bcast_rounds(algo, p, root, n),
        CollectiveKind::Reduce => reduce_rounds(algo, p, root, n),
        CollectiveKind::Allreduce => allreduce_rounds(algo, p, n),
        CollectiveKind::Allgather => allgather_rounds(algo, p, n),
    })
}

/// The doubling spans `1, 2, 4, …` below `p`: one per round of a binomial
/// tree or a recursive-doubling exchange.
pub(crate) fn spans(p: usize) -> impl Iterator<Item = usize> {
    std::iter::successors(Some(1usize), |s| Some(s << 1)).take_while(move |&s| s < p)
}

fn bcast_rounds(algo: CollectiveAlgo, p: usize, root: usize, n: usize) -> Vec<Vec<Xfer>> {
    let abs = |rel: usize| (rel + root) % p;
    let mut rounds = Vec::new();
    match algo {
        CollectiveAlgo::Linear => {
            let mut r0 = Vec::new();
            for dst in 0..p {
                push(&mut r0, root, dst, 0, n);
            }
            rounds.push(r0);
        }
        CollectiveAlgo::Binomial => {
            for span in spans(p) {
                let mut round = Vec::new();
                for rel_src in 0..span.min(p - span) {
                    push(&mut round, abs(rel_src), abs(rel_src + span), 0, n);
                }
                rounds.push(round);
            }
        }
        CollectiveAlgo::Ring => {
            // Pipelined chain: chunk c leaves chain position r in round c+r.
            for t in 0..2 * p - 2 {
                let mut round = Vec::new();
                for rel in 0..p - 1 {
                    if let Some(c) = t.checked_sub(rel).filter(|&c| c < p) {
                        let (lo, hi) = chunk_bounds(n, p, c);
                        push(&mut round, abs(rel), abs(rel + 1), lo, hi);
                    }
                }
                rounds.push(round);
            }
        }
        CollectiveAlgo::ScatterAllgather => {
            // Chunk i belongs to absolute rank i. Scatter, then direct
            // all-to-all allgather of the chunks.
            let mut r0 = Vec::new();
            for i in 0..p {
                let (lo, hi) = chunk_bounds(n, p, i);
                push(&mut r0, root, i, lo, hi);
            }
            rounds.push(r0);
            rounds.push(chunk_exchange(p, n));
        }
        CollectiveAlgo::RecursiveDoubling | CollectiveAlgo::Hierarchical => {
            unreachable!("ineligible")
        }
    }
    rounds
}

fn reduce_rounds(algo: CollectiveAlgo, p: usize, root: usize, n: usize) -> Vec<Vec<Xfer>> {
    let abs = |rel: usize| (rel + root) % p;
    let mut rounds = Vec::new();
    match algo {
        CollectiveAlgo::Linear => {
            let mut r0 = Vec::new();
            for src in 0..p {
                push_as(Payload::Raw(src..src + 1), &mut r0, src, root, 0, n);
            }
            rounds.push(r0);
        }
        CollectiveAlgo::Binomial => {
            // Raw-contribution gather up the binomial tree: the sender at
            // distance `span` forwards every contribution its subtree holds
            // (relative ranks `rel..`, rotated by the root), so the root can
            // fold in ascending rank order.
            for span in spans(p) {
                let mut round = Vec::new();
                for rel in (span..p).step_by(span * 2) {
                    let first = abs(rel);
                    let subtree = first..first + p.min(rel + span) - rel;
                    push_as(
                        Payload::Raw(subtree),
                        &mut round,
                        abs(rel),
                        abs(rel - span),
                        0,
                        n,
                    );
                }
                rounds.push(round);
            }
        }
        _ => unreachable!("ineligible"),
    }
    rounds
}

fn allgather_rounds(algo: CollectiveAlgo, p: usize, n: usize) -> Vec<Vec<Xfer>> {
    let mut rounds = Vec::new();
    match algo {
        CollectiveAlgo::Linear => rounds.push(chunk_exchange(p, n)),
        CollectiveAlgo::Ring => {
            for t in 0..p - 1 {
                let mut round = Vec::new();
                for r in 0..p {
                    let c = (r + p - t) % p;
                    let (lo, hi) = chunk_bounds(n, p, c);
                    push(&mut round, r, (r + 1) % p, lo, hi);
                }
                rounds.push(round);
            }
        }
        CollectiveAlgo::RecursiveDoubling => {
            for span in spans(p) {
                let mut round = Vec::new();
                for r in 0..p {
                    let start = r & !(span - 1);
                    let lo = chunk_bounds(n, p, start).0;
                    let hi = chunk_bounds(n, p, start + span - 1).1;
                    push(&mut round, r, r ^ span, lo, hi);
                }
                rounds.push(round);
            }
        }
        _ => unreachable!("ineligible"),
    }
    rounds
}

fn allreduce_rounds(algo: CollectiveAlgo, p: usize, n: usize) -> Vec<Vec<Xfer>> {
    let mut rounds = Vec::new();
    match algo {
        CollectiveAlgo::Linear | CollectiveAlgo::Binomial => {
            // Rank 0 finishes the fold when the last contribution arrives,
            // and broadcasts the finished buffer.
            rounds = reduce_rounds(algo, p, 0, n);
            rounds.extend(bcast_rounds(algo, p, 0, n));
        }
        CollectiveAlgo::Ring => {
            // Forward: partial folds travel the ascending chain chunk by
            // chunk; backward: finished chunks travel the chain in reverse.
            // Both directions pipeline through shared global rounds so that
            // the tail rank turns each chunk around one round after it
            // completes it.
            for g in 0..3 * p - 3 {
                let mut round = Vec::new();
                for r in 0..p - 1 {
                    if let Some(c) = g.checked_sub(r).filter(|&c| c < p) {
                        let (lo, hi) = chunk_bounds(n, p, c);
                        push_as(Payload::Prefix, &mut round, r, r + 1, lo, hi);
                    }
                }
                for r in 1..p {
                    if let Some(c) = (g + r).checked_sub(2 * (p - 1)).filter(|&c| c < p) {
                        let (lo, hi) = chunk_bounds(n, p, c);
                        push(&mut round, r, r - 1, lo, hi);
                    }
                }
                rounds.push(round);
            }
        }
        CollectiveAlgo::RecursiveDoubling => {
            // Doubling gather of raw contributions: round k exchanges the
            // aligned block of 2^k contributions each partner holds, so the
            // payload doubles every round and each rank folds all p
            // contributions locally.
            for span in spans(p) {
                let mut round = Vec::new();
                for r in 0..p {
                    let base = r & !(span - 1);
                    push_as(Payload::Raw(base..base + span), &mut round, r, r ^ span, 0, n);
                }
                rounds.push(round);
            }
        }
        CollectiveAlgo::ScatterAllgather => {
            // Direct reduce-scatter of raw chunks (rank j owns chunk j and
            // folds every rank's copy of it), then a direct allgather of the
            // reduced chunks.
            let mut r0 = Vec::new();
            for src in 0..p {
                for dst in 0..p {
                    let (lo, hi) = chunk_bounds(n, p, dst);
                    push_as(Payload::Raw(src..src + 1), &mut r0, src, dst, lo, hi);
                }
            }
            rounds.push(r0);
            rounds.push(chunk_exchange(p, n));
        }
        CollectiveAlgo::Hierarchical => unreachable!("ineligible"),
    }
    rounds
}

/// Predicts the engine's fault surface for a schedule: which ranks complete
/// and which abort, when the ranks in `failed` are fail-stopped for the
/// whole run (the crash-before-collective case).
///
/// Returns one entry per schedule rank: `None` — the rank completes with
/// the full, correct result; `Some(b)` — the rank aborts blaming rank `b`
/// (a failed rank blames itself). The replay mirrors the executor's fault
/// propagation exactly:
///
/// * within a round every rank issues its sends in schedule order, then
///   completes its receives in schedule order;
/// * a send to a dead rank aborts the sender, blaming the dead rank;
/// * a receive from a dead rank aborts the receiver, blaming the dead rank;
/// * a rank that aborts stops at its first failing transfer and *poisons*
///   the rest of its scheduled sends, so a receive of a poisoned transfer
///   aborts the receiver with the same blame — faults propagate along
///   schedule edges, transitively, in deterministic schedule order.
///
/// Ranks are schedule (communicator) ranks throughout; callers working in
/// world-rank space translate on the way in and out.
pub fn fault_impact(rounds: &[Vec<Xfer>], p: usize, failed: &[usize]) -> Vec<Option<usize>> {
    let mut blame: Vec<Option<usize>> = vec![None; p];
    let mut dead = vec![false; p];
    for &f in failed {
        if f < p {
            dead[f] = true;
            blame[f] = Some(f);
        }
    }
    for round in rounds {
        // Send phase: what each transfer of this round carries — `None` for
        // data, `Some(b)` for poison (or, for a dead sender, the abort its
        // receiver's failure detector will raise).
        let payload: Vec<Option<usize>> = round
            .iter()
            .map(|x| {
                if let Some(b) = blame[x.src] {
                    Some(b)
                } else if dead[x.dst] {
                    // The send itself fails; the sender aborts here and
                    // poisons everything after this edge.
                    blame[x.src] = Some(x.dst);
                    Some(x.dst)
                } else {
                    None
                }
            })
            .collect();
        // Receive phase: a rank stops at its first failing receive.
        for (x, carried) in round.iter().zip(&payload) {
            if blame[x.dst].is_none() {
                if let Some(b) = carried {
                    blame[x.dst] = Some(*b);
                }
            }
        }
    }
    blame
}

/// Replays a schedule against a [`PairCost`] table and returns the predicted
/// completion time (seconds): the maximum rank clock after the last round.
///
/// `elem_bytes` converts element counts to wire bytes. The replay runs the
/// transport's own endpoint-causal arbitration ([`NetFrontier`]): each send
/// charges the link latency on the sender's clock (eager injection) and
/// *grants* the transfer against the sender's frontier; each receive
/// *settles* the stamped reservation against the receiver's frontier and
/// merges the settled arrival. Within a round every rank's sends run
/// before its receives, matching the executor's program order, so the
/// prediction is bit-exact under every contention model. Ranks sharing a
/// host ([`PairCost::node_of`]) contend for that node's NIC and, when the
/// pair table prices one, its memory bus.
pub fn price(
    p: usize,
    rounds: &[Vec<Xfer>],
    elem_bytes: f64,
    cost: &impl PairCost,
    sharing: LinkSharing,
) -> f64 {
    let nodes: Vec<NodeId> = (0..p).map(|r| NodeId(cost.node_of(r))).collect();
    let mut clocks = vec![SimTime::ZERO; p];
    let mut frontiers = vec![NetFrontier::new(sharing.into()); p];
    let mut pending: Vec<(usize, SimTime, Option<WireXfer>)> = Vec::new();
    for round in rounds {
        pending.clear();
        for x in round {
            let lat = cost.latency(x.src, x.dst);
            let bw = cost.bandwidth(x.src, x.dst);
            let bytes = x.elems() as f64 * elem_bytes;
            let total = lat + bytes / bw;
            let now = clocks[x.src];
            let (arrival, stamp) = frontiers[x.src].grant(
                nodes[x.src],
                nodes[x.dst],
                now,
                SimTime::from_secs(total),
            );
            clocks[x.src] = now + SimTime::from_secs(lat);
            pending.push((x.dst, arrival, stamp));
        }
        for &(dst, arrival, stamp) in &pending {
            let arrival = stamp.map_or(arrival, |w| frontiers[dst].settle(w));
            clocks[dst] = clocks[dst].max(arrival);
        }
    }
    clocks.into_iter().max().map_or(0.0, SimTime::as_secs)
}

/// Prices every eligible algorithm and returns the predicted-cheapest one
/// with its predicted time. Ties break toward the earlier entry of
/// [`CollectiveAlgo::ALL`], so selection is deterministic — every rank that
/// evaluates the same inputs picks the same algorithm.
///
/// # Panics
/// Panics if `root >= p` (no schedule exists for an out-of-range root);
/// callers with user-supplied roots must validate at their API boundary —
/// the mpisim engine returns `MpiError::InvalidRank` before reaching here.
pub fn select(
    kind: CollectiveKind,
    p: usize,
    root: usize,
    n: usize,
    elem_bytes: f64,
    cost: &impl PairCost,
    sharing: LinkSharing,
) -> (CollectiveAlgo, f64) {
    assert!(root < p, "select: root {root} outside 0..{p}");
    let mut best: Option<(CollectiveAlgo, f64)> = None;
    for algo in algos_for(kind, p) {
        let rounds = schedule(kind, algo, p, root, n).expect("eligible algorithm");
        let t = price(p, &rounds, elem_bytes, cost, sharing);
        if best.is_none_or(|(_, bt)| t < bt) {
            best = Some((algo, t));
        }
    }
    best.expect("Linear is always eligible")
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Uniform test network: every pair `lat` seconds away at `bw` B/s.
    struct Uniform {
        lat: f64,
        bw: f64,
    }

    impl PairCost for Uniform {
        fn speed(&self, _p: usize) -> f64 {
            1.0
        }
        fn latency(&self, _s: usize, _d: usize) -> f64 {
            self.lat
        }
        fn bandwidth(&self, _s: usize, _d: usize) -> f64 {
            self.bw
        }
    }

    const TCP: Uniform = Uniform {
        lat: 1.5e-4,
        bw: 11e6,
    };

    /// Replays a data-movement schedule symbolically: every rank's set of
    /// owned element intervals, starting from `init`, must cover `[0, n)`
    /// everywhere at the end. A transfer of elements the sender does not yet
    /// own is a schedule bug.
    fn check_coverage(n: usize, rounds: &[Vec<Xfer>], init: Vec<Vec<(usize, usize)>>) {
        let mut owned = init;
        for round in rounds {
            let snapshot = owned.clone();
            for x in round {
                assert!(
                    snapshot[x.src]
                        .iter()
                        .any(|&(lo, hi)| lo <= x.lo && x.hi <= hi),
                    "rank {} sends [{}, {}) it does not own",
                    x.src,
                    x.lo,
                    x.hi
                );
                owned[x.dst].push((x.lo, x.hi));
            }
            // Coalesce so later rounds can send merged ranges.
            for set in &mut owned {
                set.sort_unstable();
                let mut merged: Vec<(usize, usize)> = Vec::new();
                for &(lo, hi) in set.iter() {
                    match merged.last_mut() {
                        Some(last) if lo <= last.1 => last.1 = last.1.max(hi),
                        _ => merged.push((lo, hi)),
                    }
                }
                *set = merged;
            }
        }
        for (r, set) in owned.iter().enumerate() {
            assert_eq!(set, &vec![(0, n)], "rank {r} did not end with [0, {n})");
        }
    }

    #[test]
    fn bcast_schedules_deliver_everything() {
        for p in [2, 3, 5, 8, 9] {
            for root in [0, p - 1, p / 2] {
                for algo in algos_for(CollectiveKind::Bcast, p) {
                    let n = 40;
                    let rounds = schedule(CollectiveKind::Bcast, algo, p, root, n).unwrap();
                    let mut init = vec![Vec::new(); p];
                    init[root].push((0, n));
                    check_coverage(n, &rounds, init);
                }
            }
        }
    }

    #[test]
    fn allgather_schedules_deliver_everything() {
        for p in [2, 3, 4, 8, 9] {
            for algo in algos_for(CollectiveKind::Allgather, p) {
                let n = 4 * p;
                let rounds = schedule(CollectiveKind::Allgather, algo, p, 0, n).unwrap();
                let init = (0..p)
                    .map(|r| vec![chunk_bounds(n, p, r)])
                    .collect();
                check_coverage(n, &rounds, init);
            }
        }
    }

    #[test]
    fn payloads_hold_no_heap_data() {
        // Origins are a range of the schedule's origin order, not a list.
        assert!(!std::mem::needs_drop::<Payload>() && !std::mem::needs_drop::<Xfer>());
    }

    #[test]
    fn recursive_doubling_requires_power_of_two() {
        assert!(eligible(
            CollectiveKind::Allreduce,
            CollectiveAlgo::RecursiveDoubling,
            8
        ));
        assert!(!eligible(
            CollectiveKind::Allreduce,
            CollectiveAlgo::RecursiveDoubling,
            9
        ));
        assert!(schedule(CollectiveKind::Allreduce, CollectiveAlgo::RecursiveDoubling, 9, 0, 4)
            .is_none());
    }

    #[test]
    fn single_rank_offers_only_an_empty_linear_schedule() {
        for kind in [
            CollectiveKind::Bcast,
            CollectiveKind::Reduce,
            CollectiveKind::Allreduce,
            CollectiveKind::Allgather,
        ] {
            assert_eq!(algos_for(kind, 1), vec![CollectiveAlgo::Linear]);
            assert!(schedule(kind, CollectiveAlgo::Linear, 1, 0, 10)
                .unwrap()
                .is_empty());
        }
    }

    #[test]
    fn binomial_bcast_wins_small_linear_loses_latency() {
        // 1 element over 9 ranks: the linear root pays 8 serial injection
        // latencies; the binomial critical path is 4 rounds.
        let (p, n) = (9, 1);
        let lin = price(
            p,
            &schedule(CollectiveKind::Bcast, CollectiveAlgo::Linear, p, 0, n).unwrap(),
            8.0,
            &TCP,
            LinkSharing::Parallel,
        );
        let bin = price(
            p,
            &schedule(CollectiveKind::Bcast, CollectiveAlgo::Binomial, p, 0, n).unwrap(),
            8.0,
            &TCP,
            LinkSharing::Parallel,
        );
        assert!(bin < lin, "binomial {bin} vs linear {lin}");
        let (chosen, _) = select(CollectiveKind::Bcast, p, 0, n, 8.0, &TCP, LinkSharing::Parallel);
        assert_eq!(chosen, CollectiveAlgo::Binomial);
    }

    #[test]
    fn scatter_allgather_bcast_wins_large_under_parallel_links() {
        // 64 KiB over 9 ranks: two chunk-sized wire times beat one full-size
        // wire time plus the fan-out, and beat four full-size tree hops.
        let (p, n) = (9, 8192); // 8192 f64 = 64 KiB
        let prices: Vec<(CollectiveAlgo, f64)> = algos_for(CollectiveKind::Bcast, p)
            .into_iter()
            .map(|a| {
                let r = schedule(CollectiveKind::Bcast, a, p, 0, n).unwrap();
                (a, price(p, &r, 8.0, &TCP, LinkSharing::Parallel))
            })
            .collect();
        let linear = prices
            .iter()
            .find(|(a, _)| *a == CollectiveAlgo::Linear)
            .unwrap()
            .1;
        let (chosen, t) = select(CollectiveKind::Bcast, p, 0, n, 8.0, &TCP, LinkSharing::Parallel);
        assert_eq!(chosen, CollectiveAlgo::ScatterAllgather, "{prices:?}");
        assert!(t < linear, "selector {t} must beat linear {linear}");
    }

    #[test]
    fn selector_beats_linear_allreduce_at_large_sizes() {
        let (p, n) = (9, 8192);
        let lin = price(
            p,
            &schedule(CollectiveKind::Allreduce, CollectiveAlgo::Linear, p, 0, n).unwrap(),
            8.0,
            &TCP,
            LinkSharing::Parallel,
        );
        let (chosen, t) = select(
            CollectiveKind::Allreduce,
            p,
            0,
            n,
            8.0,
            &TCP,
            LinkSharing::Parallel,
        );
        assert!(t < lin, "selector {t} ({}) must beat linear {lin}", chosen.name());
    }

    #[test]
    fn serialized_nic_changes_the_ranking() {
        // Under parallel links the root's sends all overlap, so the flat
        // linear bcast finishes in roughly one transfer time and beats the
        // binomial tree's log-p sequential stages. Per-endpoint
        // serialisation reverses that: every linear transfer queues on the
        // root's NIC (p-1 back-to-back bandwidth terms) while the binomial
        // tree spreads its sends over distinct endpoints. The pricer must
        // see the flip.
        let (p, n) = (9, 8192);
        let at = |algo, sharing| {
            price(
                p,
                &schedule(CollectiveKind::Bcast, algo, p, 0, n).unwrap(),
                8.0,
                &TCP,
                sharing,
            )
        };
        let lin_par = at(CollectiveAlgo::Linear, LinkSharing::Parallel);
        let bin_par = at(CollectiveAlgo::Binomial, LinkSharing::Parallel);
        let lin_nic = at(CollectiveAlgo::Linear, LinkSharing::PerEndpoint);
        let bin_nic = at(CollectiveAlgo::Binomial, LinkSharing::PerEndpoint);
        assert!(
            lin_par < bin_par,
            "parallel links: overlapped linear {lin_par} should beat binomial {bin_par}"
        );
        assert!(
            bin_nic < lin_nic,
            "serialised NICs: binomial {bin_nic} should beat root-bound linear {lin_nic}"
        );
        // Contention never makes anything cheaper.
        assert!(lin_par <= lin_nic && bin_par <= bin_nic);
    }

    #[test]
    fn empty_payload_prices_to_pure_latency_or_zero() {
        let rounds = schedule(CollectiveKind::Bcast, CollectiveAlgo::ScatterAllgather, 4, 0, 0)
            .unwrap();
        assert!(rounds.iter().all(Vec::is_empty), "no transfers for n = 0");
        assert_eq!(price(4, &rounds, 8.0, &TCP, LinkSharing::Parallel), 0.0);
    }

    #[test]
    fn ring_allreduce_rounds_pipeline_both_directions() {
        // p = 3, chunked into 3: the backward phase must start before the
        // forward phase has drained (pipelining), and every rank other than
        // the tail must receive every finished chunk.
        let p = 3;
        let n = 6;
        let rounds = schedule(CollectiveKind::Allreduce, CollectiveAlgo::Ring, p, 0, n).unwrap();
        let backward_first = rounds
            .iter()
            .position(|r| r.iter().any(|x| x.dst < x.src))
            .unwrap();
        let forward_last = rounds
            .iter()
            .rposition(|r| r.iter().any(|x| x.dst > x.src))
            .unwrap();
        assert!(
            backward_first <= forward_last,
            "backward starts at {backward_first}, forward ends at {forward_last}"
        );
        for r in 0..p - 1 {
            let got: usize = rounds
                .iter()
                .flatten()
                .filter(|x| x.dst == r && x.src == r + 1)
                .map(Xfer::elems)
                .sum();
            assert_eq!(got, n, "rank {r} must receive all finished chunks");
        }
    }

    #[test]
    fn fault_impact_is_empty_without_faults() {
        for kind in [
            CollectiveKind::Bcast,
            CollectiveKind::Reduce,
            CollectiveKind::Allreduce,
            CollectiveKind::Allgather,
        ] {
            for p in [2, 4, 5] {
                for algo in algos_for(kind, p) {
                    let rounds = schedule(kind, algo, p, 0, 16).unwrap();
                    assert_eq!(fault_impact(&rounds, p, &[]), vec![None; p]);
                }
            }
        }
    }

    #[test]
    fn fault_impact_linear_bcast_root_death_reaches_everyone() {
        let rounds = schedule(CollectiveKind::Bcast, CollectiveAlgo::Linear, 4, 0, 8).unwrap();
        assert_eq!(
            fault_impact(&rounds, 4, &[0]),
            vec![Some(0), Some(0), Some(0), Some(0)]
        );
    }

    #[test]
    fn fault_impact_linear_bcast_leaf_death_is_contained() {
        // A dead leaf aborts only the root (its send to the leaf fails);
        // the root sends to ranks 1 and 2 first, so they still get data.
        let rounds = schedule(CollectiveKind::Bcast, CollectiveAlgo::Linear, 4, 0, 8).unwrap();
        assert_eq!(
            fault_impact(&rounds, 4, &[3]),
            vec![Some(3), None, None, Some(3)]
        );
    }

    #[test]
    fn fault_impact_binomial_bcast_blames_along_tree_edges() {
        // Binomial bcast over 8 ranks rooted at 0. Rank 1 is the root's
        // round-1 child, so the root aborts at its very first send and
        // every later tree edge carries poison: the whole tree blames the
        // dead rank. Kill a late leaf (rank 7, fed by 3 in the last round)
        // instead and everyone else finishes.
        let p = 8;
        let rounds = schedule(CollectiveKind::Bcast, CollectiveAlgo::Binomial, p, 0, 8).unwrap();
        assert_eq!(fault_impact(&rounds, p, &[1]), vec![Some(1); p]);
        let impact = fault_impact(&rounds, p, &[7]);
        assert_eq!(impact[7], Some(7));
        assert_eq!(impact[3], Some(7), "rank 7's parent aborts at its send");
        for r in [0, 1, 2, 4, 5, 6] {
            assert_eq!(impact[r], None, "rank {r} is off the failed path");
        }
    }

    #[test]
    fn fault_impact_ring_allreduce_poison_reaches_all_survivors() {
        // The ring's data dependencies pass through every rank, so one
        // death eventually aborts every survivor with the same blame.
        let p = 5;
        let rounds = schedule(CollectiveKind::Allreduce, CollectiveAlgo::Ring, p, 0, 10).unwrap();
        let impact = fault_impact(&rounds, p, &[2]);
        assert_eq!(impact, vec![Some(2); p]);
    }
}

