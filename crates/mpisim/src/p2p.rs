//! Point-to-point matching engine: eager lanes, pooled rendezvous
//! payloads, and an indexed matcher.
//!
//! Each rank owns one [`Mailbox`]. The substrate splits traffic into two
//! protocols at [`EAGER_LIMIT`] (a compile-time constant, like
//! jeffhammond/hmpi's `EAGER_LIMIT`):
//!
//! * **eager** — payloads at or under the limit are packed *inline* into
//!   the envelope ([`Payload::Inline`]) and travel through per-(sender,
//!   receiver) SPSC lanes (`crate::lane`); no per-message heap
//!   allocation, no shared lock between senders;
//! * **rendezvous** — larger payloads ride in zero-copy buffers leased
//!   from the universe's [`BufferPool`](crate::pool::BufferPool)
//!   ([`Payload::Pooled`]); the buffer returns to its size class when the
//!   receiver drops the [`Msg`], and copy-out happens in
//!   `RENDEZVOUS_BLOCK`-sized slabs;
//! * **owned** — a buffer the sender already built (the legacy
//!   collectives' encoded contributions) travels as it is when it is over
//!   the limit ([`Payload::from_vec`]), labelled "rendezvous" in traces.
//!
//! The schedule engine's collectives post nothing here: each call runs in
//! one collective slot (`crate::slot`).
//!
//! Matching is indexed instead of scanned: the mailbox keeps one FIFO
//! queue per `(context, sender)`. A specific-source receive looks at
//! exactly one queue; an `ANY_SOURCE` receive takes the minimum
//! `(arrival quantum, sender rank, sender seq)` key over the context's
//! queue heads — per-sender FIFO preserves MPI's non-overtaking
//! guarantee, and the key gives wildcard matches a *deterministic*
//! virtual-arrival order (ties within one arbitration quantum resolve by
//! rank, then send sequence, never by OS-thread arrival). The old
//! mailbox rescanned the whole queue per receive — O(queue) per match,
//! O(n²) to drain a burst; the index makes both O(1)-ish.
//!
//! Blocked ranks sleep on one *counted doorbell* (`Mailbox::ticket` /
//! `Mailbox::sleep`): every ring bumps a counter under the store lock, a
//! waiter reads the counter *before* it evaluates what it waits for and
//! sleeps only while the counter still holds that value — so no sleep can
//! begin after the event it waits for was published, whatever the event
//! (a message, a peer's death, a verdict, an agreement deposit). Producers
//! ring only when a waiter is registered, so the hot path posts without
//! ever touching the receiver's lock.

use crate::lane::LaneSet;
use crate::pool::Lease;
use crate::vtime::{quantum_of, WireXfer};
use hetsim::SimTime;
use parking_lot::{Condvar, Mutex, MutexGuard};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// The eager/rendezvous protocol split and the capacity of an envelope's
/// inline payload slot, bytes (the hmpi snippet's `EAGER_LIMIT`).
pub const EAGER_LIMIT: usize = 256;

/// Copy-out slab size for rendezvous payloads, bytes (the hmpi snippet's
/// `BLOCK_SIZE`): [`Msg::into_vec`] copies pooled payloads out in blocks
/// of this size so the lease returns to the pool as one pipelined pass
/// completes, rather than lingering element-by-element.
pub(crate) const RENDEZVOUS_BLOCK: usize = 8192;

/// A message payload in one of the two protocol representations, or an
/// owned buffer.
// The size skew is the design: eager bytes live in the envelope so the
// hot path never allocates. Boxing `Inline` would put them back on the
// heap.
#[allow(clippy::large_enum_variant)]
pub enum Payload {
    /// Eager: bytes packed into the envelope itself.
    Inline {
        /// Number of valid bytes in `buf`.
        len: u16,
        /// Inline storage; only `buf[..len]` is meaningful.
        buf: [u8; EAGER_LIMIT],
    },
    /// Rendezvous: a buffer leased from the universe's arena; returns to
    /// its size class on drop.
    Pooled(Lease),
    /// A buffer the sender built, moved to the receiver as it is.
    Owned(Vec<u8>),
}

impl Payload {
    /// Packs `bytes` inline. Panics if `bytes.len() > EAGER_LIMIT`.
    pub fn inline_from(bytes: &[u8]) -> Payload {
        assert!(bytes.len() <= EAGER_LIMIT, "inline payload over capacity");
        let mut buf = [0u8; EAGER_LIMIT];
        buf[..bytes.len()].copy_from_slice(bytes);
        Payload::Inline {
            len: bytes.len() as u16,
            buf,
        }
    }

    /// Wraps an owned vector: inline when it fits under [`EAGER_LIMIT`],
    /// else as it is (no copy, no pool lease).
    pub(crate) fn from_vec(v: Vec<u8>) -> Payload {
        if v.len() <= EAGER_LIMIT {
            Payload::inline_from(&v)
        } else {
            Payload::Owned(v)
        }
    }

    /// The payload bytes.
    pub(crate) fn bytes(&self) -> &[u8] {
        match self {
            Payload::Inline { len, buf } => &buf[..*len as usize],
            Payload::Pooled(lease) => lease.bytes(),
            Payload::Owned(v) => v,
        }
    }

    /// Payload size in bytes.
    pub(crate) fn len(&self) -> usize {
        self.bytes().len()
    }

    /// Protocol label for traces/diagnostics.
    pub(crate) fn protocol(&self) -> &'static str {
        match self {
            Payload::Inline { .. } => "eager",
            Payload::Pooled(_) | Payload::Owned(_) => "rendezvous",
        }
    }
}

impl std::fmt::Debug for Payload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Payload::{}({}B)", self.protocol(), self.len())
    }
}

/// A received payload.
///
/// Dropping a `Msg` whose payload was pooled returns the buffer to the
/// universe's arena — receivers that only borrow (`decode(&msg.bytes())`)
/// recycle the buffer the moment the message goes out of scope.
pub struct Msg {
    payload: Payload,
}

impl Msg {
    /// Wraps a payload.
    pub(crate) fn new(payload: Payload) -> Msg {
        Msg { payload }
    }

    /// The payload bytes.
    pub(crate) fn bytes(&self) -> &[u8] {
        self.payload.bytes()
    }

    /// Copies the payload out into an owned vector.
    ///
    /// An owned buffer moves out without copying. Pooled payloads copy out
    /// in [`RENDEZVOUS_BLOCK`]-sized slabs (the block-pipelined copy of the
    /// rendezvous protocol) and the lease returns to the pool on return.
    pub(crate) fn into_vec(self) -> Vec<u8> {
        match self.payload {
            Payload::Owned(v) => v,
            Payload::Pooled(lease) => {
                let src = lease.bytes();
                let mut out = Vec::with_capacity(src.len());
                for block in src.chunks(RENDEZVOUS_BLOCK) {
                    out.extend_from_slice(block);
                }
                out
            }
            other => other.bytes().to_vec(),
        }
    }
}

/// What one transfer put on the wire, as the sender stamped it: all a
/// receiver reads besides the payload. A message carries it in its
/// envelope; an engine collective's transfer is nothing else.
#[derive(Clone, Copy, Debug)]
pub struct Wire {
    /// Virtual time the sender posted the transfer.
    pub sent_at: SimTime,
    /// Virtual time the transfer reaches the receiver (tentative when a
    /// contended reservation is stamped in `xfer`: the receiver settles
    /// the final arrival against its own frontier when it takes it).
    pub arrival: SimTime,
    /// Sender's per-rank send sequence number — with the arrival quantum
    /// and the sender rank, the deterministic wildcard tie-break key.
    pub seq: u64,
    /// Contended-wire reservation granted by the sender, settled by the
    /// receiver ([`crate::vtime::NetFrontier::settle`]). `None` for
    /// uncontended transfers.
    pub xfer: Option<WireXfer>,
}

/// A message in flight or queued at the receiver.
#[derive(Debug)]
pub struct Envelope {
    /// Context id (communicator + p2p/collective plane).
    pub ctx: u64,
    /// Sender's world rank.
    pub src_world: usize,
    /// Message tag.
    pub tag: i32,
    /// Payload in its protocol representation.
    pub payload: Payload,
    /// The sender's stamps.
    pub wire: Wire,
}

impl Envelope {
    /// Payload size in bytes.
    pub(crate) fn len(&self) -> usize {
        self.payload.len()
    }

    /// Consumes the envelope into its received payload.
    pub fn into_msg(self) -> Msg {
        Msg::new(self.payload)
    }
}

/// Completion information for a receive or probe (`MPI_Status`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Status {
    /// Source rank *within the communicator the operation was issued on*.
    pub source: usize,
    /// Tag of the matched message.
    pub tag: i32,
    /// Payload size in bytes (`MPI_Get_count` precursor).
    pub bytes: usize,
}

/// A receive-side matching pattern.
#[derive(Debug, Clone, Copy)]
pub struct Pattern {
    /// Context id the receive is posted on.
    pub ctx: u64,
    /// Required sender world rank, or `None` for `ANY_SOURCE`.
    pub src_world: Option<usize>,
    /// Required tag, or `None` for `ANY_TAG`.
    pub tag: Option<i32>,
}

impl Pattern {
    fn tag_matches(&self, tag: i32) -> bool {
        self.tag.is_none_or(|t| t == tag)
    }
}

/// What one attempt to finish a (possibly deadline-bounded) wait concluded:
/// a mailbox claim, and more generally the "try to finish" step of every
/// guarded wait.
#[derive(Debug)]
// `Matched` carries the envelope (and its inline payload) by value so a
// claim stays allocation-free; the enum lives only on the stack between
// the match and the caller.
#[allow(clippy::large_enum_variant)]
pub(crate) enum Claim<T = Envelope> {
    /// The wait is over: a qualifying envelope was removed from the queue
    /// (or peeked, or the awaited outcome read).
    Matched(T),
    /// The first matching envelope from the *specific* awaited source is
    /// queued with `arrival > deadline`: non-overtaking means it must be
    /// received first, so the deadline is provably missed.
    DeadlineMissed,
    /// Nothing qualifying is queued (yet).
    Nothing,
}

/// Where a located match lives in the index.
enum Locate {
    Hit { key: (u64, usize), pos: usize },
    Missed,
    Nothing,
}

/// The indexed message store: one FIFO per `(ctx, sender)`. Wildcard
/// matches order across senders by the deterministic `(arrival quantum,
/// rank, seq)` key.
#[derive(Debug, Default)]
struct Store {
    queues: HashMap<(u64, usize), VecDeque<Envelope>>,
    total: usize,
}

impl Store {
    fn ingest(&mut self, env: Envelope) {
        self.total += 1;
        self.queues
            .entry((env.ctx, env.src_world))
            .or_default()
            .push_back(env);
    }

    /// The first entry in one queue whose tag matches, if it is deliverable:
    /// on time when a deadline bounds the receive. No later match overtakes
    /// it (MPI's non-overtaking rule), however early that one arrives — a
    /// small message posted after a large one can have the earlier arrival
    /// stamp. Returns its position.
    fn hit_in(q: &VecDeque<Envelope>, pat: &Pattern, deadline: Option<SimTime>) -> Option<usize> {
        let i = q.iter().position(|env| pat.tag_matches(env.tag))?;
        deadline.is_none_or(|d| q[i].wire.arrival <= d).then_some(i)
    }

    /// Whether any entry in `q` matches `pat` ignoring arrival times.
    fn any_match_in(q: &VecDeque<Envelope>, pat: &Pattern) -> bool {
        q.iter().any(|env| pat.tag_matches(env.tag))
    }

    fn locate(&self, pat: Pattern, deadline: Option<SimTime>) -> Locate {
        match pat.src_world {
            Some(src) => {
                let key = (pat.ctx, src);
                let Some(q) = self.queues.get(&key) else {
                    return Locate::Nothing;
                };
                if let Some(pos) = Self::hit_in(q, &pat, deadline) {
                    return Locate::Hit { key, pos };
                }
                if deadline.is_some() && Self::any_match_in(q, &pat) {
                    // The first match arrives after the deadline, and
                    // nothing from this source may be received before it:
                    // the deadline is already missed.
                    return Locate::Missed;
                }
                Locate::Nothing
            }
            None => {
                // Wildcard: per-sender FIFO picks the head match in each
                // queue; across senders the winner holds the minimum
                // `(arrival quantum, sender rank, sender seq)` key — the
                // same deterministic order the contention arbiter grants
                // in — so simultaneous arrivals resolve by rank and send
                // order, never by which OS thread reached the mailbox
                // first.
                type ArrivalKey = (u64, usize, u64);
                let mut best: Option<((u64, usize), usize, ArrivalKey)> = None;
                for (key, q) in &self.queues {
                    if key.0 != pat.ctx {
                        continue;
                    }
                    if let Some(pos) = Self::hit_in(q, &pat, deadline) {
                        let env = &q[pos];
                        let k = (quantum_of(env.wire.arrival), env.src_world, env.wire.seq);
                        if best.as_ref().is_none_or(|&(_, _, b)| k < b) {
                            best = Some((*key, pos, k));
                        }
                    }
                }
                match best {
                    Some((key, pos, _)) => Locate::Hit { key, pos },
                    None => Locate::Nothing,
                }
            }
        }
    }

    fn claim(&mut self, pat: Pattern, deadline: Option<SimTime>) -> Claim {
        match self.locate(pat, deadline) {
            Locate::Hit { key, pos } => {
                let q = self.queues.get_mut(&key).expect("located queue exists");
                let env = q.remove(pos).expect("located position exists");
                if q.is_empty() {
                    self.queues.remove(&key);
                }
                self.total -= 1;
                Claim::Matched(env)
            }
            Locate::Missed => Claim::DeadlineMissed,
            Locate::Nothing => Claim::Nothing,
        }
    }

    /// Metadata of the match a claim would take, without removal.
    fn peek(&self, pat: Pattern) -> Option<(usize, i32, usize, SimTime)> {
        match self.locate(pat, None) {
            Locate::Hit { key, pos } => {
                let env = &self.queues[&key][pos];
                Some((env.src_world, env.tag, env.len(), env.wire.arrival))
            }
            _ => None,
        }
    }
}

/// How one mailbox's sleeps ended. One relaxed increment per *sleep*,
/// none per message; summed over the mailboxes into
/// [`WakeupReport`](crate::runtime::WakeupReport) after a run.
#[derive(Debug, Default)]
pub(crate) struct WakeCounts {
    /// Sleeps ended by a ring.
    pub(crate) rung: AtomicU64,
    /// Sleeps that ran their whole timeout.
    pub(crate) expired: AtomicU64,
    /// Expired sleeps after which the wait turned out to be resolvable: a
    /// ring was lost. Counted by the guarded wait, not by the mailbox.
    pub(crate) missed: AtomicU64,
}

/// One rank's incoming-message endpoint: per-sender eager lanes feeding
/// an indexed store, with a counted doorbell for the rank's blocked waits.
#[derive(Debug)]
pub struct Mailbox {
    state: Mutex<Store>,
    cond: Condvar,
    lanes: LaneSet<Envelope>,
    /// Sleepers registered for a doorbell ring, each *before* it takes the
    /// store lock. Lane producers skip the ring (and its lock) when zero;
    /// a ring skips the condvar when zero.
    waiters: AtomicUsize,
    /// The doorbell's ring count. Written only under the store lock — so a
    /// ring that finds no registered sleeper may skip the notify: that
    /// sleeper's under-lock comparison comes later and sees the bump. Read
    /// lock-free by [`Mailbox::ticket`].
    rings: AtomicU64,
    pub(crate) wakes: WakeCounts,
}

impl Mailbox {
    /// A mailbox with one eager lane per sender in an `n`-rank world (with
    /// `n = 0`, no lanes: posts go straight to the store).
    pub fn for_world(n: usize) -> Self {
        Mailbox {
            state: Mutex::new(Store::default()),
            cond: Condvar::new(),
            lanes: LaneSet::new(n),
            waiters: AtomicUsize::new(0),
            rings: AtomicU64::new(0),
            wakes: WakeCounts::default(),
        }
    }

    /// Rings the doorbell: bumps the counter and wakes every registered
    /// sleeper, both under the store lock (which the caller holds,
    /// witnessed by `_st`) — so a ring either precedes a sleeper's
    /// under-lock counter comparison and is seen by it, or follows the
    /// start of its wait and wakes it. A sleeper registers in `waiters`
    /// before it takes the lock, so reading 0 here, under the lock, proves
    /// every sleeper-to-be is of the first kind and nobody is in the
    /// condvar: the notify (a futex syscall) is skipped.
    fn ring(&self, _st: &mut Store) {
        self.rings.fetch_add(1, Ordering::SeqCst);
        if self.waiters.load(Ordering::SeqCst) > 0 {
            self.cond.notify_all();
        }
    }

    /// Locks the store with every message parked in the eager lanes pulled
    /// into the index, so lane traffic is visible to whoever looks — this
    /// rank's own attempts *and* the quiescence classifier, on another
    /// thread. Ingesting is publishing (from here on a claim can match the
    /// message), so it rings: a sleeper-to-be whose lane post was drained
    /// from under it by the classifier finds the ring counted.
    fn store(&self) -> MutexGuard<'_, Store> {
        let mut st = self.state.lock();
        if self.lanes.any_dirty() {
            self.lanes.drain_into(|_, env| st.ingest(env));
            self.ring(&mut st);
        }
        st
    }

    /// Posts a message straight into the indexed store (sender thread).
    ///
    /// Lane traffic already queued by the same sender is drained first,
    /// so mixing [`Mailbox::post`] and [`Mailbox::post_lane`] from one
    /// thread preserves that sender's FIFO order.
    pub(crate) fn post(&self, env: Envelope) {
        let mut st = self.store();
        st.ingest(env);
        self.ring(&mut st);
    }

    /// Posts a message through the sender's eager lane — the hot path.
    /// Never touches the store lock unless a sleeper is registered on
    /// the doorbell (or the mailbox was built without lanes). A post that
    /// finds no sleeper rings nothing; its message is counted when it is
    /// ingested, which `Mailbox::sleep` does after registering.
    pub fn post_lane(&self, env: Envelope) {
        if self.lanes.senders() == 0 {
            return self.post(env);
        }
        debug_assert!(env.src_world < self.lanes.senders());
        self.lanes.push(env.src_world, env);
        if self.waiters.load(Ordering::SeqCst) > 0 {
            self.ring(&mut self.state.lock());
        }
    }

    /// Rings the doorbell so a rank blocked on this mailbox re-evaluates
    /// its wait. Called *after* publishing what the wait may be looking
    /// at: a liveness change, a quiescence verdict, an agreement deposit.
    pub(crate) fn wake_all(&self) {
        self.ring(&mut self.state.lock());
    }

    /// The doorbell's current ring count. A waiter reads it *before*
    /// evaluating the conditions it waits on and hands it to
    /// [`Mailbox::sleep`]: anything published before the read is visible
    /// to those evaluations, anything rung after it cancels the sleep.
    pub(crate) fn ticket(&self) -> u64 {
        self.rings.load(Ordering::SeqCst)
    }

    /// The one sleep: blocks until the doorbell is rung or `timeout`
    /// elapses — unless it was already rung since `ticket` was read, in
    /// which case it returns at once. Returns false only when a sleep ran
    /// its whole timeout.
    pub(crate) fn sleep(&self, ticket: u64, timeout: Duration) -> bool {
        // Register *before* looking at the lanes: a producer that misses
        // the registration pushed before it, so `store` ingests its message
        // and counts that as a ring; one that sees it rings under the lock
        // we are about to hold until the wait begins.
        self.waiters.fetch_add(1, Ordering::SeqCst);
        let mut st = self.store();
        let mut rung = true;
        if self.rings.load(Ordering::SeqCst) == ticket {
            rung = !self.cond.wait_for(&mut st, timeout).timed_out();
            let ended = match rung {
                true => &self.wakes.rung,
                false => &self.wakes.expired,
            };
            ended.fetch_add(1, Ordering::Relaxed);
        }
        self.waiters.fetch_sub(1, Ordering::SeqCst);
        rung
    }

    /// One atomic match-and-remove attempt for a (possibly
    /// deadline-bounded) receive.
    pub(crate) fn claim(&self, pat: Pattern, deadline: Option<SimTime>) -> Claim {
        self.store().claim(pat, deadline)
    }

    /// True if [`Mailbox::claim`] over `pat` would resolve (match, or prove
    /// the deadline missed) — the quiescence classifier's view of a blocked
    /// receive, read off the same [`Store::locate`] the claim itself runs.
    pub(crate) fn can_progress(&self, pat: Pattern, deadline: Option<SimTime>) -> bool {
        !matches!(self.store().locate(pat, deadline), Locate::Nothing)
    }

    /// Non-blocking probe (`MPI_Iprobe`): metadata of the first match, if any.
    pub fn try_probe(&self, pat: Pattern) -> Option<(usize, i32, usize, SimTime)> {
        self.store().peek(pat)
    }

    /// Removes and returns every queued message (end-of-run drain, so
    /// pooled payloads return to the arena before leak accounting).
    pub(crate) fn drain_all(&self) -> usize {
        let mut st = self.store();
        let n = st.total;
        st.queues.clear();
        st.total = 0;
        n
    }
}

/// A universe's mailboxes, kept across its runs and shared by its clones:
/// the first run builds the set, a run that ends without a panic hands it
/// back drained (its wake counts taken into the run's report), and the
/// next run takes it with its lanes and their allocations. A run that finds
/// the set taken — a clone's run is using it — builds one of its own.
#[derive(Default)]
pub(crate) struct KeptMailboxes(Mutex<Option<Arc<[Mailbox]>>>);

impl KeptMailboxes {
    /// A drained set for an `n`-rank run: the kept one, unless a concurrent
    /// run holds it.
    pub(crate) fn take(&self, n: usize) -> Arc<[Mailbox]> {
        let kept = self.0.lock().take();
        kept.unwrap_or_else(|| (0..n).map(|_| Mailbox::for_world(n)).collect())
    }

    /// Keeps `set`, drained by the run that used it, for the next run.
    pub(crate) fn give_back(&self, set: Arc<[Mailbox]>) {
        *self.0.lock() = Some(set);
    }
}

impl std::fmt::Debug for KeptMailboxes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let kept = self.0.lock().as_ref().map(|set| set.len());
        write!(f, "KeptMailboxes({kept:?})")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn env(ctx: u64, src: usize, tag: i32, data: &[u8]) -> Envelope {
        Envelope {
            ctx,
            src_world: src,
            tag,
            payload: Payload::from_vec(data.to_vec()),
            wire: Wire {
                sent_at: SimTime::ZERO,
                arrival: SimTime::from_secs(1.0),
                seq: 0,
                xfer: None,
            },
        }
    }

    /// A blocking receive: the ticket / claim / sleep loop `Comm::wait`
    /// runs, without its classifier or backstops.
    fn recv(mb: &Mailbox, pat: Pattern) -> Envelope {
        loop {
            let ticket = mb.ticket();
            if let Claim::Matched(env) = mb.claim(pat, None) {
                return env;
            }
            let rung = mb.sleep(ticket, Duration::from_secs(10));
            assert!(rung, "nothing matched {pat:?}");
        }
    }

    fn env_at(ctx: u64, src: usize, tag: i32, arrival: f64) -> Envelope {
        let mut e = env(ctx, src, tag, b"x");
        e.wire.arrival = SimTime::from_secs(arrival);
        e
    }

    #[test]
    fn exact_match_removes_message() {
        let mb = Mailbox::for_world(0);
        mb.post(env(1, 0, 7, b"hi"));
        let got = recv(&mb, Pattern {
            ctx: 1,
            src_world: Some(0),
            tag: Some(7),
        });
        assert_eq!(got.payload.bytes(), b"hi");
        assert_eq!(mb.store().total, 0);
    }

    #[test]
    fn wildcards_match_anything_in_context() {
        let mb = Mailbox::for_world(0);
        mb.post(env(1, 3, 9, b"x"));
        let got = recv(&mb, Pattern {
            ctx: 1,
            src_world: None,
            tag: None,
        });
        assert_eq!(got.src_world, 3);
        assert_eq!(got.tag, 9);
    }

    #[test]
    fn context_isolates_messages() {
        let mb = Mailbox::for_world(0);
        mb.post(env(1, 0, 7, b"ctx1"));
        mb.post(env(2, 0, 7, b"ctx2"));
        let got = recv(&mb, Pattern {
            ctx: 2,
            src_world: Some(0),
            tag: Some(7),
        });
        assert_eq!(got.payload.bytes(), b"ctx2");
        assert_eq!(mb.store().total, 1);
    }

    #[test]
    fn non_overtaking_same_source_same_tag() {
        let mb = Mailbox::for_world(0);
        mb.post(env(1, 0, 7, b"first"));
        mb.post(env(1, 0, 7, b"second"));
        let a = recv(&mb, Pattern {
            ctx: 1,
            src_world: Some(0),
            tag: Some(7),
        });
        let b = recv(&mb, Pattern {
            ctx: 1,
            src_world: Some(0),
            tag: Some(7),
        });
        assert_eq!(a.payload.bytes(), b"first");
        assert_eq!(b.payload.bytes(), b"second");
    }

    #[test]
    fn selective_tag_skips_earlier_nonmatching() {
        let mb = Mailbox::for_world(0);
        mb.post(env(1, 0, 1, b"tag1"));
        mb.post(env(1, 0, 2, b"tag2"));
        let got = recv(&mb, Pattern {
            ctx: 1,
            src_world: Some(0),
            tag: Some(2),
        });
        assert_eq!(got.payload.bytes(), b"tag2");
        assert_eq!(mb.store().total, 1);
    }

    #[test]
    fn wildcard_matches_in_virtual_arrival_order() {
        // Posted in the "wrong" wall-clock order: the earlier *virtual*
        // arrival wins regardless of which sender reached the mailbox
        // first.
        let mb = Mailbox::for_world(0);
        mb.post(env_at(1, 2, 7, 2.0));
        mb.post(env_at(1, 5, 7, 1.0));
        let pat = Pattern {
            ctx: 1,
            src_world: None,
            tag: None,
        };
        let a = recv(&mb, pat);
        let b = recv(&mb, pat);
        assert_eq!(a.src_world, 5);
        assert_eq!(b.src_world, 2);
    }

    #[test]
    fn wildcard_ties_in_one_quantum_resolve_by_rank() {
        // Identical virtual arrivals (same arbitration quantum): the lower
        // sender rank wins, independent of post order.
        let mb = Mailbox::for_world(0);
        mb.post(env_at(1, 7, 4, 1.0));
        mb.post(env_at(1, 3, 4, 1.0));
        let pat = Pattern {
            ctx: 1,
            src_world: None,
            tag: Some(4),
        };
        assert_eq!(recv(&mb, pat).src_world, 3);
        assert_eq!(recv(&mb, pat).src_world, 7);
        // Sub-quantum noise does not reorder the tie-break.
        mb.post(env_at(1, 9, 4, 1.0 + 2e-10));
        mb.post(env_at(1, 4, 4, 1.0));
        assert_eq!(recv(&mb, pat).src_world, 4);
        assert_eq!(recv(&mb, pat).src_world, 9);
    }

    #[test]
    fn wildcard_same_rank_ties_resolve_by_send_seq() {
        // Same quantum, same sender: the per-rank send sequence (FIFO
        // within the sender's queue) orders the matches.
        let mb = Mailbox::for_world(0);
        let mut first = env_at(1, 2, 4, 1.0);
        first.wire.seq = 10;
        let mut second = env_at(1, 2, 4, 1.0);
        second.wire.seq = 11;
        mb.post(first);
        mb.post(second);
        let pat = Pattern {
            ctx: 1,
            src_world: None,
            tag: Some(4),
        };
        assert_eq!(recv(&mb, pat).wire.seq, 10);
        assert_eq!(recv(&mb, pat).wire.seq, 11);
    }

    #[test]
    fn lane_posts_preserve_sender_fifo_and_are_matchable() {
        let mb = Mailbox::for_world(4);
        mb.post_lane(env(1, 2, 7, b"a"));
        mb.post_lane(env(1, 2, 7, b"b"));
        mb.post_lane(env(1, 3, 7, b"c"));
        assert_eq!(mb.store().total, 3);
        let pat = Pattern {
            ctx: 1,
            src_world: Some(2),
            tag: Some(7),
        };
        assert_eq!(recv(&mb, pat).payload.bytes(), b"a");
        assert_eq!(recv(&mb, pat).payload.bytes(), b"b");
        assert_eq!(mb.try_probe(Pattern {
            ctx: 1,
            src_world: None,
            tag: None,
        }).map(|(s, ..)| s), Some(3));
    }

    #[test]
    fn deadline_missed_is_proved_for_specific_source_only() {
        let mb = Mailbox::for_world(0);
        mb.post(env_at(1, 0, 7, 10.0));
        let d = Some(SimTime::from_secs(5.0));
        let specific = Pattern {
            ctx: 1,
            src_world: Some(0),
            tag: Some(7),
        };
        let wildcard = Pattern {
            ctx: 1,
            src_world: None,
            tag: Some(7),
        };
        assert!(matches!(mb.claim(specific, d), Claim::DeadlineMissed));
        assert!(matches!(mb.claim(wildcard, d), Claim::Nothing));
    }

    /// A late match is not overtaken by a later, earlier-arriving one from
    /// the same source (a large message, then a small one): the deadline is
    /// missed whether or not the second has been posted yet, so the verdict
    /// never depends on when the sender's thread got to post it. A
    /// non-matching tag does not block.
    #[test]
    fn deadline_claim_never_overtakes_a_late_match() {
        let mb = Mailbox::for_world(0);
        mb.post(env_at(1, 0, 8, 10.0));
        mb.post(env_at(1, 0, 7, 10.0));
        mb.post(env_at(1, 0, 7, 2.0));
        let d = Some(SimTime::from_secs(5.0));
        let pat = |src_world| Pattern {
            ctx: 1,
            src_world,
            tag: Some(7),
        };
        assert!(matches!(mb.claim(pat(Some(0)), d), Claim::DeadlineMissed));
        assert!(matches!(mb.claim(pat(None), d), Claim::Nothing));
        match mb.claim(pat(Some(0)), None) {
            Claim::Matched(env) => assert_eq!(env.wire.arrival, SimTime::from_secs(10.0)),
            other => panic!("expected the first tag-7 match, got {other:?}"),
        }
        match mb.claim(pat(Some(0)), d) {
            Claim::Matched(env) => assert_eq!(env.wire.arrival, SimTime::from_secs(2.0)),
            other => panic!("expected the on-time match, got {other:?}"),
        }
    }

    #[test]
    fn probe_leaves_message_queued() {
        let mb = Mailbox::for_world(0);
        mb.post(env(1, 4, 5, b"abc"));
        let (src, tag, len, _) = mb
            .try_probe(Pattern {
                ctx: 1,
                src_world: None,
                tag: None,
            })
            .expect("posted message is visible to a probe");
        assert_eq!((src, tag, len), (4, 5, 3));
        assert_eq!(mb.store().total, 1);
    }

    #[test]
    fn try_probe_returns_none_when_empty() {
        let mb = Mailbox::for_world(0);
        assert!(mb
            .try_probe(Pattern {
                ctx: 1,
                src_world: None,
                tag: None
            })
            .is_none());
    }

    #[test]
    fn blocked_recv_wakes_on_lane_post() {
        let mb = Arc::new(Mailbox::for_world(2));
        let mb2 = mb.clone();
        let h = std::thread::spawn(move || {
            recv(&mb2, Pattern {
                ctx: 1,
                src_world: Some(0),
                tag: Some(0),
            })
        });
        std::thread::sleep(Duration::from_millis(20));
        mb.post_lane(env(1, 0, 0, b"late"));
        let got = h.join().unwrap();
        assert_eq!(got.payload.bytes(), b"late");
    }

    #[test]
    fn payload_protocol_split_at_eager_limit() {
        let small = Payload::from_vec(vec![7u8; EAGER_LIMIT]);
        let big = Payload::from_vec(vec![7u8; EAGER_LIMIT + 1]);
        assert_eq!(small.protocol(), "eager");
        assert_eq!(big.protocol(), "rendezvous");
        assert_eq!(small.len(), EAGER_LIMIT);
        assert_eq!(big.len(), EAGER_LIMIT + 1);
    }

    #[test]
    fn ring_after_ticket_cancels_the_sleep() {
        // The lost-wake-up window, made deterministic on one thread: the
        // ring lands between reading the ticket and going to sleep.
        let mb = Mailbox::for_world(2);
        let ticket = mb.ticket();
        mb.wake_all();
        let start = std::time::Instant::now();
        assert!(mb.sleep(ticket, Duration::from_secs(10)));
        assert!(start.elapsed() < Duration::from_millis(100));
        // An unrung lane post in the same window cancels it too — also
        // when somebody else (the classifier) ingests it first.
        for foreign_drain in [false, true] {
            let ticket = mb.ticket();
            mb.post_lane(env(1, 0, 0, b"x"));
            assert_eq!(mb.ticket(), ticket, "no sleeper registered: no ring");
            if foreign_drain {
                assert_eq!(mb.store().total, 2);
            }
            assert!(mb.sleep(ticket, Duration::from_secs(10)));
            assert!(start.elapsed() < Duration::from_millis(100));
        }
        let slept =
            mb.wakes.rung.load(Ordering::Relaxed) + mb.wakes.expired.load(Ordering::Relaxed);
        assert_eq!(slept, 0, "neither call entered the condvar");
    }

    #[test]
    fn ring_with_no_sleeper_is_counted_though_nothing_is_notified() {
        // `ring` skips the condvar when `waiters` is 0. The bump alone must
        // carry the ring to a sleeper that registers afterwards: it compares
        // under the lock the ringer held, and does not sleep.
        let mb = Mailbox::for_world(2);
        let ticket = mb.ticket();
        assert_eq!(mb.waiters.load(Ordering::SeqCst), 0);
        mb.wake_all();
        assert_eq!(mb.ticket(), ticket + 1);
        let start = std::time::Instant::now();
        assert!(mb.sleep(ticket, Duration::from_secs(5)));
        assert!(start.elapsed() < Duration::from_millis(100));
        assert_eq!(mb.wakes.rung.load(Ordering::Relaxed), 0, "never entered the condvar");
    }

    #[test]
    fn ring_before_ticket_does_not_cancel_the_sleep() {
        // A ring the waiter has already accounted for must not keep it
        // awake: the counter is a ticket, not a sticky flag.
        let mb = Mailbox::for_world(2);
        mb.wake_all();
        let ticket = mb.ticket();
        let start = std::time::Instant::now();
        assert!(!mb.sleep(ticket, Duration::from_millis(50)));
        assert!(start.elapsed() >= Duration::from_millis(50));
        assert_eq!(mb.wakes.expired.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn msg_into_vec_round_trips_all_protocols() {
        let data: Vec<u8> = (0..=255u8).cycle().take(3 * RENDEZVOUS_BLOCK + 17).collect();
        let whole = Msg::new(Payload::from_vec(data.clone()));
        let at = whole.bytes().as_ptr();
        let out = whole.into_vec();
        assert_eq!(out, data);
        assert_eq!(out.as_ptr(), at, "an owned buffer moves out uncopied");
        let inline = Msg::new(Payload::inline_from(&data[..100]));
        assert_eq!(inline.into_vec(), &data[..100]);
        let pool = crate::pool::BufferPool::new();
        let mut lease = pool.lease(data.len());
        lease.buf_mut().extend_from_slice(&data);
        let pooled = Msg::new(Payload::Pooled(lease));
        assert_eq!(pooled.bytes(), &data[..]);
        assert_eq!(pooled.into_vec(), data);
        assert_eq!(pool.report().outstanding, 0, "lease returned after copy-out");
    }
}
