//! Per-(sender, receiver) eager lanes with a dirty-lane index.
//!
//! The old mailbox funnelled every sender through one mutex and one
//! `Vec<Envelope>`; under fan-in, senders serialised against each other
//! *and* against the receiver's O(queue) scans. A [`LaneSet`] gives each
//! sender its own lane: a producer touches only its lane's lock (never
//! contended by other senders, and by the consumer only during a drain)
//! plus two atomics, so concurrent senders to one receiver scale
//! independently.
//!
//! Consumers don't poll `n` lanes — a producer flags its lane on a
//! lock-free Treiber stack of lane indices (`dirty`), and the consumer
//! drains exactly the flagged lanes. The flag-clearing order closes the
//! classic lost-wakeup race:
//!
//! * producer: lock lane → push → unlock → `queued.swap(true)`; if the
//!   swap returned `false`, push the lane index onto the dirty stack
//!   (the mailbox then rings the owner's doorbell only if a sleeper is
//!   registered — one that registers later ingests the lane itself);
//! * consumer: pop the whole dirty stack; for each lane **clear `queued`
//!   first**, then drain the lane. A producer racing in after the clear
//!   re-flags the lane, so its item is seen by this drain or the next —
//!   never lost.
//!
//! A drain swaps the lane's queue with an empty spare the consumer keeps
//! and empties the swapped-out one after unlocking, so a producer waits
//! on its lane lock only for the swap, and queue buffers pass between the
//! lanes and the consumer instead of being allocated per drain.
//!
//! Lanes are allocated in chunks of [`CHUNK`] senders, each on its
//! chunk's first push, so a fresh `p`-rank mailbox costs `p / 64` chunk
//! pointers and a receiver that hears from a handful of neighbours holds
//! one or two chunks: at 1024 ranks a universe's mailboxes hold about
//! 400 KB of chunk pointers plus the chunks its traffic touched, not one
//! slot per rank pair. A universe keeps its mailboxes, and with them
//! every chunk allocated so far, across its runs
//! (`crate::p2p::KeptMailboxes`): a drained set has every lane empty and
//! unflagged, and the dirty stack empty.
//!
//! Memory-ordering note: all flag/stack operations are `SeqCst`. The
//! quiescence detector's soundness argument (DESIGN.md §13) needs
//! "a message whose sender has reached `block()` is visible to any
//! subsequent drain", which follows because the producer's mark is
//! sequenced before its `block()` and the consumer's drain reads the
//! mark under `SeqCst`.

use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Sentinel for "no entry" in the dirty stack's intrusive links.
const NONE: usize = usize::MAX;

/// Senders per chunk of lanes.
const CHUNK: usize = 64;

/// One sender's private queue into a receiver.
#[derive(Debug)]
struct Lane<T> {
    queue: Mutex<VecDeque<T>>,
    /// True while the lane sits on the dirty stack (or is being drained).
    queued: AtomicBool,
    /// The dirty lane below this one on the stack ([`NONE`] = bottom).
    next: AtomicUsize,
}

impl<T> Default for Lane<T> {
    fn default() -> Self {
        Lane {
            queue: Mutex::new(VecDeque::new()),
            queued: AtomicBool::new(false),
            next: AtomicUsize::new(NONE),
        }
    }
}

/// The lanes of up to [`CHUNK`] consecutive senders.
type Chunk<T> = Box<[Lane<T>]>;

/// A receiver's set of per-sender lanes plus the dirty-lane stack.
#[derive(Debug)]
pub(crate) struct LaneSet<T> {
    /// Chunk `k` holds the lanes of senders `64 k ..`, allocated on its
    /// first push.
    chunks: Box<[OnceLock<Chunk<T>>]>,
    senders: usize,
    /// Head of the Treiber stack of dirty lane indices ([`NONE`] = empty).
    dirty_head: AtomicUsize,
}

impl<T> LaneSet<T> {
    /// Lanes for `n` senders (world ranks `0..n`).
    pub(crate) fn new(n: usize) -> Self {
        LaneSet {
            chunks: (0..n.div_ceil(CHUNK)).map(|_| OnceLock::new()).collect(),
            senders: n,
            dirty_head: AtomicUsize::new(NONE),
        }
    }

    /// Sender `src`'s lane, allocating its chunk on first use.
    fn lane(&self, src: usize) -> &Lane<T> {
        let k = src / CHUNK;
        let chunk = self.chunks[k].get_or_init(|| {
            let len = CHUNK.min(self.senders - k * CHUNK);
            (0..len).map(|_| Lane::default()).collect()
        });
        &chunk[src % CHUNK]
    }

    /// Number of sender slots.
    pub(crate) fn senders(&self) -> usize {
        self.senders
    }

    /// Producer side: queue `item` on sender `src`'s lane.
    ///
    /// Returns `true` when the lane was newly flagged dirty — the caller
    /// should then ring the receiver's doorbell. (A `false` return means
    /// an earlier un-drained push already flagged it, so the receiver is
    /// provably not asleep past its pre-sleep drain.)
    pub(crate) fn push(&self, src: usize, item: T) -> bool {
        let lane = self.lane(src);
        lane.queue.lock().push_back(item);
        if lane.queued.swap(true, Ordering::SeqCst) {
            return false;
        }
        // Newly dirty: link onto the stack.
        let mut head = self.dirty_head.load(Ordering::SeqCst);
        loop {
            lane.next.store(head, Ordering::SeqCst);
            match self
                .dirty_head
                .compare_exchange(head, src, Ordering::SeqCst, Ordering::SeqCst)
            {
                Ok(_) => return true,
                Err(h) => head = h,
            }
        }
    }

    /// Cheap consumer-side check: is any lane flagged dirty?
    pub(crate) fn any_dirty(&self) -> bool {
        self.dirty_head.load(Ordering::SeqCst) != NONE
    }

    /// Consumer side: drain every dirty lane into `sink(src, item)`,
    /// preserving each lane's FIFO order. `spare` is the consumer's empty
    /// queue, swapped for each lane's; it is empty again on return.
    ///
    /// Only one consumer may drain at a time (the mailbox store lock
    /// serialises callers).
    pub(crate) fn drain_into(&self, spare: &mut VecDeque<T>, mut sink: impl FnMut(usize, T)) {
        loop {
            // Detach the whole stack at once.
            let mut cur = self.dirty_head.swap(NONE, Ordering::SeqCst);
            if cur == NONE {
                return;
            }
            while cur != NONE {
                let lane = self.lane(cur);
                let next = lane.next.swap(NONE, Ordering::SeqCst);
                // Clear-then-drain: a producer racing in after this store
                // re-flags the lane and re-links it, so nothing is lost.
                lane.queued.store(false, Ordering::SeqCst);
                std::mem::swap(&mut *lane.queue.lock(), spare);
                spare.drain(..).for_each(|item| sink(cur, item));
                cur = next;
            }
            // Re-check: producers may have re-flagged lanes mid-drain.
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_then_drain_preserves_per_lane_fifo() {
        let set: LaneSet<u32> = LaneSet::new(3);
        assert!(set.push(1, 10));
        assert!(!set.push(1, 11), "second push finds the lane flagged");
        assert!(set.push(2, 20));
        let mut seen = Vec::new();
        set.drain_into(&mut VecDeque::new(), |src, v| seen.push((src, v)));
        let lane1: Vec<u32> = seen
            .iter()
            .filter(|(s, _)| *s == 1)
            .map(|(_, v)| *v)
            .collect();
        assert_eq!(lane1, vec![10, 11]);
        assert!(seen.contains(&(2, 20)));
        assert!(!set.any_dirty());
    }

    #[test]
    fn drain_on_empty_is_noop() {
        let set: LaneSet<u32> = LaneSet::new(2);
        let mut n = 0;
        set.drain_into(&mut VecDeque::new(), |_, _| n += 1);
        assert_eq!(n, 0);
    }

    #[test]
    fn redirty_after_drain_flags_again() {
        let set: LaneSet<u32> = LaneSet::new(1);
        assert!(set.push(0, 1));
        set.drain_into(&mut VecDeque::new(), |_, _| {});
        assert!(set.push(0, 2), "a drained lane flags dirty again");
        let mut seen = Vec::new();
        set.drain_into(&mut VecDeque::new(), |_, v| seen.push(v));
        assert_eq!(seen, vec![2]);
    }

    #[test]
    fn concurrent_producers_never_lose_items() {
        let set = LaneSet::new(8);
        let per = 2000;
        for lane in drain_while_pushing(&set, &[0, 1, 2, 3, 4, 5, 6, 7], per) {
            assert_eq!(lane, (0..per).collect::<Vec<_>>(), "per-lane FIFO violated");
        }
    }

    /// Pushes `(src, i)` for `i` in `0..per` from one thread per sender
    /// while this thread drains, until every producer has finished (a
    /// panicked producer fails the test rather than hanging it), and
    /// returns each lane's `i`s in drain order, checking that each item
    /// surfaced on its own sender's lane.
    fn drain_while_pushing(
        set: &LaneSet<(usize, usize)>,
        senders: &[usize],
        per: usize,
    ) -> Vec<Vec<usize>> {
        let mut got = vec![Vec::new(); set.senders()];
        let mut spare = VecDeque::new();
        std::thread::scope(|s| {
            let producers: Vec<_> = senders
                .iter()
                .map(|&src| {
                    s.spawn(move || {
                        for i in 0..per {
                            set.push(src, (src, i));
                        }
                    })
                })
                .collect();
            loop {
                let done = producers.iter().all(|p| p.is_finished());
                set.drain_into(&mut spare, |src, (from, i)| {
                    assert_eq!(src, from, "an item surfaced on another sender's lane");
                    got[src].push(i);
                });
                assert!(spare.is_empty(), "a drain hands its spare back empty");
                if done {
                    break;
                }
                std::thread::yield_now();
            }
        });
        got
    }

    impl<T> LaneSet<T> {
        /// Number of lanes allocated so far.
        fn allocated(&self) -> usize {
            self.chunks
                .iter()
                .filter_map(OnceLock::get)
                .map(|c| c.len())
                .sum()
        }
    }

    #[test]
    fn a_fresh_lane_set_allocates_no_lane_until_its_first_push() {
        let set: LaneSet<u32> = LaneSet::new(1024);
        assert_eq!((set.chunks.len(), set.allocated()), (16, 0));
        set.drain_into(&mut VecDeque::new(), |_, _| {
            unreachable!("nothing was pushed")
        });
        assert_eq!(set.allocated(), 0, "a drain allocates nothing");
        set.push(1023, 7);
        assert_eq!(set.allocated(), CHUNK, "one chunk, the last");
        set.push(960, 8);
        assert_eq!(set.allocated(), CHUNK, "960 shares 1023's chunk");
        // A short last chunk holds only the senders there are.
        let short: LaneSet<u32> = LaneSet::new(1000);
        short.push(999, 1);
        assert_eq!(short.allocated(), 1000 - 960);
    }

    #[test]
    fn concurrent_producers_across_chunk_boundaries_keep_lane_fifo() {
        const SENDERS: [usize; 4] = [0, 63, 64, 1023];
        let set = LaneSet::new(1024);
        let per = 2000;
        let got = drain_while_pushing(&set, &SENDERS, per);
        for src in SENDERS {
            assert_eq!(
                got[src],
                (0..per).collect::<Vec<_>>(),
                "lane {src} out of order"
            );
        }
        // Every producer is done and everything drained: no lane is left
        // flagged or linked, and the stack is empty.
        assert!(!set.any_dirty());
        for src in SENDERS {
            let lane = set.lane(src);
            assert!(
                !lane.queued.load(Ordering::SeqCst),
                "lane {src} still flagged"
            );
            assert_eq!(
                lane.next.load(Ordering::SeqCst),
                NONE,
                "lane {src} still linked"
            );
        }
        assert_eq!(set.allocated(), 3 * CHUNK, "chunks 0, 1 and 15");
    }
}
