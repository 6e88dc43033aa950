//! Virtual time: per-rank logical clocks and each rank's side of the
//! deterministic contention arbitration.
//!
//! Timing model (documented here once; everything else derives from it):
//!
//! * Each rank owns a [`LocalClock`]. Computation of `v` benchmark units on
//!   the rank's processor advances it by `v / speed(node, now)`.
//! * A message of `b` bytes from node `s` to node `d` costs
//!   `latency(s,d) + b / bandwidth(s,d)` on the wire. The *sender* is an
//!   eager, buffered sender (MPI `Bsend` semantics): its clock advances only
//!   by the link latency (the CPU-side injection overhead); the message is
//!   stamped with its **arrival time** `start + cost`. The *receiver's*
//!   clock becomes `max(own clock, arrival)` when the message is matched.
//! * Contention ([`hetsim::ContentionModel`]) and the optional intra-node
//!   memory bus are arbitrated by [`hetsim::NetFrontier`]'s endpoint-causal
//!   grant / settle rule: each rank owns one [`NetFrontier`] (inside its
//!   `RankNet`) mutated only by that rank's own sends and matched
//!   receives, in program order, so identical seeds produce bit-identical
//!   virtual times on **every** contention model — no matter how the OS
//!   schedules the rank threads.
//!
//! Grants on one resource are totally ordered by
//! `(quantum_of(ready), world_rank, seq)`: the matching layer uses the same
//! key to pick among simultaneously-arrived wildcard candidates, so ties
//! within one arbitration quantum resolve by rank, then by the sender's
//! per-rank send sequence — never by OS-thread arrival.
//!
//! The model is deliberately first-order — it is the same
//! latency/bandwidth/speed abstraction the HMPI runtime itself plans with,
//! which is the fidelity level the paper's experiments exercise.

pub(crate) use hetsim::{NetFrontier, WireXfer};
use hetsim::SimTime;
use std::cell::Cell;
use std::rc::Rc;

/// Width of one arbitration quantum in seconds: virtual instants within the
/// same nanosecond count as simultaneous, and simultaneous grants are
/// ordered by `(world_rank, seq)` instead of sub-quantum noise.
const GRANT_QUANTUM: f64 = 1e-9;

/// The arbitration quantum containing virtual time `t`.
#[inline]
pub(crate) fn quantum_of(t: SimTime) -> u64 {
    (t.as_secs() / GRANT_QUANTUM).round() as u64
}

/// A rank-local virtual clock. Cheap to clone; clones share the same
/// underlying instant (the rank's communicators all tick one clock).
///
/// Not `Send`: a clock belongs to exactly one rank thread.
#[derive(Clone, Debug)]
pub struct LocalClock {
    now: Rc<Cell<SimTime>>,
}

impl LocalClock {
    /// A clock starting at time zero.
    pub(crate) fn new() -> Self {
        LocalClock {
            now: Rc::new(Cell::new(SimTime::ZERO)),
        }
    }

    /// The current virtual time.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now.get()
    }

    /// Advances the clock by a duration.
    #[inline]
    pub fn advance(&self, dt: SimTime) {
        self.now.set(self.now.get() + dt);
    }

    /// Moves the clock forward to `t` if `t` is later (receiving a message
    /// stamped with its arrival time).
    #[inline]
    pub(crate) fn merge(&self, t: SimTime) {
        if t > self.now.get() {
            self.now.set(t);
        }
    }

    /// Sets the clock to an absolute time (used by the runtime when starting
    /// a rank at a non-zero epoch).
    #[inline]
    pub fn set(&self, t: SimTime) {
        self.now.set(t);
    }
}

/// A rank's sending state: its view of the shared network resources and its
/// monotone send sequence. Grants on one resource are ordered by
/// `(quantum_of(ready), world_rank, seq)`, so the sequence travels with the
/// frontier that issues the grants.
///
/// Not `Send`: like [`LocalClock`], it belongs to exactly one rank thread
/// (the rank's communicators share one through an `Rc<RefCell<_>>`).
#[derive(Debug)]
pub(crate) struct RankNet {
    /// This rank's busy-until view, advanced by its grants and settlements.
    pub(crate) net: NetFrontier,
    next_seq: u64,
}

impl RankNet {
    /// The sending state of a rank that has not communicated yet.
    pub(crate) fn new(net: NetFrontier) -> Self {
        RankNet { net, next_seq: 0 }
    }

    /// The next per-rank send sequence number (monotone from 0).
    #[inline]
    pub(crate) fn take_seq(&mut self) -> u64 {
        let s = self.next_seq;
        self.next_seq += 1;
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: f64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn clock_advance_and_merge() {
        let c = LocalClock::new();
        assert_eq!(c.now(), SimTime::ZERO);
        c.advance(t(2.0));
        assert_eq!(c.now(), t(2.0));
        c.merge(t(1.0)); // earlier: no effect
        assert_eq!(c.now(), t(2.0));
        c.merge(t(5.0));
        assert_eq!(c.now(), t(5.0));
    }

    #[test]
    fn clock_clones_share_time() {
        let a = LocalClock::new();
        let b = a.clone();
        a.advance(t(3.0));
        assert_eq!(b.now(), t(3.0));
    }

    #[test]
    fn quantum_of_buckets_nanoseconds() {
        assert_eq!(quantum_of(SimTime::ZERO), 0);
        assert_eq!(quantum_of(t(1e-9)), 1);
        assert_eq!(quantum_of(t(1.0)), 1_000_000_000);
        // Sub-quantum noise lands in the same bucket.
        assert_eq!(quantum_of(t(1.0 + 2e-10)), quantum_of(t(1.0)));
    }

    #[test]
    fn take_seq_is_monotone() {
        let mut f = RankNet::new(NetFrontier::new(hetsim::ContentionModel::ParallelLinks, 1));
        assert_eq!(f.take_seq(), 0);
        assert_eq!(f.take_seq(), 1);
        assert_eq!(f.take_seq(), 2);
    }
}
