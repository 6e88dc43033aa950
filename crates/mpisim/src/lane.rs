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
//! Lanes are allocated lazily (`OnceLock`) so a `p`-rank world costs
//! `O(p)` pointers per mailbox, not `O(p)` queues — at 1024 ranks the
//! per-universe overhead is a few tens of MB of indices rather than
//! gigabytes of preallocated rings.
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

/// One sender's private queue into a receiver.
#[derive(Debug)]
struct Lane<T> {
    queue: Mutex<VecDeque<T>>,
    /// True while the lane sits on the dirty stack (or is being drained).
    queued: AtomicBool,
}

impl<T> Default for Lane<T> {
    fn default() -> Self {
        Lane {
            queue: Mutex::new(VecDeque::new()),
            queued: AtomicBool::new(false),
        }
    }
}

/// A receiver's set of per-sender lanes plus the dirty-lane stack.
#[derive(Debug)]
pub(crate) struct LaneSet<T> {
    lanes: Box<[OnceLock<Box<Lane<T>>>]>,
    /// Head of the Treiber stack of dirty lane indices ([`NONE`] = empty).
    dirty_head: AtomicUsize,
    /// Intrusive next-links, one slot per lane.
    dirty_next: Box<[AtomicUsize]>,
}

impl<T> LaneSet<T> {
    /// Lanes for `n` senders (world ranks `0..n`).
    pub(crate) fn new(n: usize) -> Self {
        LaneSet {
            lanes: (0..n).map(|_| OnceLock::new()).collect(),
            dirty_head: AtomicUsize::new(NONE),
            dirty_next: (0..n).map(|_| AtomicUsize::new(NONE)).collect(),
        }
    }

    /// Number of sender slots.
    pub(crate) fn senders(&self) -> usize {
        self.lanes.len()
    }

    /// Producer side: queue `item` on sender `src`'s lane.
    ///
    /// Returns `true` when the lane was newly flagged dirty — the caller
    /// should then ring the receiver's doorbell. (A `false` return means
    /// an earlier un-drained push already flagged it, so the receiver is
    /// provably not asleep past its pre-sleep drain.)
    pub(crate) fn push(&self, src: usize, item: T) -> bool {
        let lane = self.lanes[src].get_or_init(Box::default);
        lane.queue.lock().push_back(item);
        if lane.queued.swap(true, Ordering::SeqCst) {
            return false;
        }
        // Newly dirty: link onto the stack.
        let mut head = self.dirty_head.load(Ordering::SeqCst);
        loop {
            self.dirty_next[src].store(head, Ordering::SeqCst);
            match self.dirty_head.compare_exchange(
                head,
                src,
                Ordering::SeqCst,
                Ordering::SeqCst,
            ) {
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
    /// preserving each lane's FIFO order.
    ///
    /// Only one consumer may drain at a time (the mailbox store lock
    /// serialises callers).
    pub(crate) fn drain_into(&self, mut sink: impl FnMut(usize, T)) {
        loop {
            // Detach the whole stack at once.
            let mut cur = self.dirty_head.swap(NONE, Ordering::SeqCst);
            if cur == NONE {
                return;
            }
            while cur != NONE {
                let next = self.dirty_next[cur].swap(NONE, Ordering::SeqCst);
                let lane = self.lanes[cur].get_or_init(Box::default);
                // Clear-then-drain: a producer racing in after this store
                // re-flags the lane and re-links it, so nothing is lost.
                lane.queued.store(false, Ordering::SeqCst);
                let drained: Vec<T> = {
                    let mut q = lane.queue.lock();
                    q.drain(..).collect()
                };
                for item in drained {
                    sink(cur, item);
                }
                cur = next;
            }
            // Re-check: producers may have re-flagged lanes mid-drain.
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn push_then_drain_preserves_per_lane_fifo() {
        let set: LaneSet<u32> = LaneSet::new(3);
        assert!(set.push(1, 10));
        assert!(!set.push(1, 11), "second push finds the lane flagged");
        assert!(set.push(2, 20));
        let mut seen = Vec::new();
        set.drain_into(|src, v| seen.push((src, v)));
        let lane1: Vec<u32> = seen.iter().filter(|(s, _)| *s == 1).map(|(_, v)| *v).collect();
        assert_eq!(lane1, vec![10, 11]);
        assert!(seen.contains(&(2, 20)));
        assert!(!set.any_dirty());
    }

    #[test]
    fn drain_on_empty_is_noop() {
        let set: LaneSet<u32> = LaneSet::new(2);
        let mut n = 0;
        set.drain_into(|_, _| n += 1);
        assert_eq!(n, 0);
    }

    #[test]
    fn redirty_after_drain_flags_again() {
        let set: LaneSet<u32> = LaneSet::new(1);
        assert!(set.push(0, 1));
        set.drain_into(|_, _| {});
        assert!(set.push(0, 2), "a drained lane flags dirty again");
        let mut seen = Vec::new();
        set.drain_into(|_, v| seen.push(v));
        assert_eq!(seen, vec![2]);
    }

    #[test]
    fn concurrent_producers_never_lose_items() {
        let set: Arc<LaneSet<usize>> = Arc::new(LaneSet::new(8));
        let per = 2000;
        std::thread::scope(|s| {
            for src in 0..8 {
                let set = Arc::clone(&set);
                s.spawn(move || {
                    for i in 0..per {
                        set.push(src, i);
                    }
                });
            }
            let set2 = Arc::clone(&set);
            s.spawn(move || {
                let mut got = vec![Vec::new(); 8];
                while got.iter().map(Vec::len).sum::<usize>() < 8 * per {
                    set2.drain_into(|src, v| got[src].push(v));
                    std::thread::yield_now();
                }
                for lane in &got {
                    let sorted: Vec<usize> = (0..per).collect();
                    assert_eq!(lane, &sorted, "per-lane FIFO violated");
                }
            });
        });
    }
}
