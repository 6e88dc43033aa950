//! Exact virtual-time quiescence detection.
//!
//! The old no-hang story was a 60 s wall-clock watchdog: if a blocked
//! receive made no progress for a minute of real time, the program was
//! declared deadlocked. Slow, and inexact — a slow-but-live sender and a
//! true deadlock looked the same until the timer ran out.
//!
//! This module replaces it with a *quiescence detector*. Every rank
//! registers its state with a shared [`Registry`]: `Active` while running,
//! `Blocked` (with a [`WaitRecord`] describing exactly what could unblock
//! it) while waiting, `Done` when its closure ends. Whenever the last
//! active rank blocks or exits, the registry classifies the global state
//! under one lock:
//!
//! 1. **Stability.** If any blocked rank can still make progress on its own
//!    — a matching message is queued for it, its awaited peer is already
//!    dead (so its failure-detector abort will fire), or its agreement
//!    round is completable — the system is *not* quiescent: no verdict is
//!    issued, and that rank resolves organically at its next wake-up (the
//!    change that made it resolvable rang its doorbell). Nor is it while
//!    any rank holds a verdict it has not taken yet: that rank is about to
//!    act, and a new round would re-judge a state its waking changes.
//!    Fault chains therefore unravel link-by-link in virtual-time order,
//!    which keeps the error surface deterministic.
//! 2. **Timeout round.** Otherwise, if any stuck rank has a virtual-time
//!    deadline, the ranks holding the *minimum* deadline receive
//!    [`MpiError::Timeout`] verdicts — in virtual time nothing can reach
//!    them before their deadline, because every rank that could send is
//!    itself stuck. Ranks with later deadlines keep waiting: the resumed
//!    ranks may yet send to them. A rank whose "deadline" is its own node's
//!    crash time converts the verdict into its own fail-stop, so doomed
//!    ranks die in milliseconds of real time instead of dragging out a
//!    real-time grace period.
//! 3. **Terminal round.** No deadlines anywhere: the state can never
//!    change. The registry builds the exact wait graph over the stuck
//!    ranks and classifies each one — a rank that transitively waits on a
//!    dead rank is a *fault-induced orphan* and gets
//!    [`MpiError::NodeFailed`] naming the dead root cause; a rank stuck in
//!    a cycle of live ranks is *truly deadlocked* and gets
//!    [`MpiError::Deadlock`] carrying the wait graph. One kind of wait is
//!    spared: an agreement round pending on a rank judged in this very
//!    round. That rank is about to wake and deposit (or die), so its
//!    waiters are not stuck, and judging them too would make each one's
//!    outcome — the completed round or its own verdict — a race against
//!    the deposit.
//!
//! Detection is exact (no false verdicts: a verdict is only issued when no
//! message is queued and no rank is running) and fast (classification runs
//! at the moment of quiescence, so wall time is milliseconds). A
//! wall-clock watchdog survives only as a private belt-and-braces constant
//! of the one guarded wait (`Comm::wait`) behind this detector.
//!
//! The waiter and the classifier read *one* description of a wait, the
//! [`WaitRecord`]: the same [`WaitRecord::abort`] decides "a dead peer ends
//! this wait" in the wait loop and in the stability check, and the same
//! `Registry::edge` gives the wait's edge to the terminal round and to the
//! watchdog.

use crate::agree::{AgreeKey, AgreeTable};
use crate::error::{MpiError, WaitGraph};
use crate::group::Group;
use crate::p2p::{Claim, Mailbox, Pattern};
use crate::runtime::{Liveness, RankState};
use crate::slot::Slot;
use hetsim::SimTime;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// What a blocked rank is waiting for.
#[derive(Debug, Clone)]
pub(crate) enum WaitKind {
    /// Blocked in a mailbox receive/probe: unblocked by a deliverable
    /// envelope matching the pattern.
    Mailbox {
        /// The receive's or probe's match.
        pat: Pattern,
    },
    /// Blocked in an agreement round: unblocked by slot completion.
    Agreement {
        /// The round being waited on.
        key: AgreeKey,
    },
    /// Blocked in an engine collective: unblocked once the call's slot
    /// holds the member's outcome. Until then it is a receive from the one
    /// sender the member's program awaits ([`Slot::awaiting`]), which the
    /// slot keeps current as it runs the program.
    Collective {
        /// The call's slot.
        slot: Arc<Slot>,
        /// The member's communicator rank.
        member: usize,
    },
}

/// A blocked rank's registration: exactly what could unblock it, and what
/// ends the wait when nothing can.
#[derive(Debug, Clone)]
pub(crate) struct WaitRecord {
    /// The communicator waited on. Its other members are who an
    /// `ANY_SOURCE` pattern waits for.
    pub group: Arc<Group>,
    /// A legacy collective-plane wait: one *failed* member makes the
    /// collective impossible to complete and aborts the wait everywhere,
    /// which is what propagates the failure to ranks not blocked on the
    /// dead rank itself. (The schedule engine's waits are point-to-point
    /// and propagate along schedule edges with poison instead.)
    pub collective: bool,
    /// Virtual-time deadline bounding the wait, if any. A doomed rank's own
    /// crash time is registered here, making death an implicit deadline.
    pub deadline: Option<SimTime>,
    /// The unblocking condition proper.
    pub kind: WaitKind,
}

impl WaitRecord {
    fn peers(&self, me: usize) -> impl Iterator<Item = usize> + '_ {
        self.group.world_ranks().iter().copied().filter(move |&w| w != me)
    }

    /// Who could send `me` what it waits for: a mailbox pattern's named
    /// source, or for `ANY_SOURCE` every other member; the sender a
    /// collective member's program awaits. Nobody for an agreement.
    fn senders(&self, me: usize) -> impl Iterator<Item = usize> + '_ {
        let (named, others) = match &self.kind {
            WaitKind::Mailbox { pat } => (pat.src_world, pat.src_world.is_none()),
            WaitKind::Collective { slot, member } => (slot.awaiting(*member), false),
            WaitKind::Agreement { .. } => (None, false),
        };
        let others = if others { usize::MAX } else { 0 };
        named.into_iter().chain(self.peers(me).take(others))
    }

    /// The dead-peer rule: the error that ends `me`'s wait because nobody
    /// who could satisfy it is left, given each rank's liveness. Runs on
    /// every wake-up of every blocked rank, so it reads no lock and scans
    /// the members for a failed one only once some rank has failed.
    ///
    /// A mailbox wait dead-ends when nobody who could send its match is
    /// alive — a specific source when that sender is dead, `ANY_SOURCE`
    /// when every other member is — so p2p between live ranks keeps
    /// working during recovery. A [`Self::collective`]
    /// wait also aborts on any *failed* member; a member that merely
    /// returned has done its part and neither aborts the wait nor makes it
    /// look resolvable. Agreement waits never abort: dead members are
    /// excluded from the round instead.
    pub(crate) fn abort(&self, me: usize, live: &Liveness) -> Option<MpiError> {
        if let WaitKind::Agreement { .. } = self.kind {
            return None;
        }
        if self.collective && live.any_failed() {
            let failed = |w: &usize| live.of(*w) == RankState::Failed;
            if let Some(world_rank) = self.peers(me).find(failed) {
                return Some(MpiError::NodeFailed { world_rank });
            }
        }
        let mut verdict = None;
        for w in self.senders(me) {
            match live.of(w) {
                RankState::Alive => return None,
                RankState::Failed => verdict = Some(MpiError::NodeFailed { world_rank: w }),
                RankState::Terminated => {
                    verdict = verdict.or(Some(MpiError::PeerTerminated { world_rank: w }));
                }
            }
        }
        verdict
    }

    /// True if the death of world rank `dead` (now in `state`) can end this
    /// wait — change what [`Self::abort`] or an agreement's outcome says:
    /// the pattern names it, a collective member's program awaits it, or it
    /// is one of the members an `ANY_SOURCE` pattern, a legacy collective
    /// wait (failures only) or an agreement round looks at. The named
    /// sender first: membership is a linear scan.
    fn concerns(&self, dead: usize, state: RankState) -> bool {
        let any_member = match &self.kind {
            WaitKind::Mailbox { pat } => {
                if pat.src_world == Some(dead) {
                    return true;
                }
                (self.collective && state == RankState::Failed) || pat.src_world.is_none()
            }
            WaitKind::Collective { slot, member } => return slot.awaiting(*member) == Some(dead),
            WaitKind::Agreement { .. } => true,
        };
        any_member && self.group.contains_world(dead)
    }
}

#[derive(Debug)]
enum Phase {
    Active,
    Blocked(WaitRecord),
    Done,
}

#[derive(Debug)]
struct Inner {
    phase: Vec<Phase>,
    /// How many ranks are `Active`, so the classifier need not scan for
    /// one. Kept by [`Inner::set_phase`], the only writer of `phase`.
    active: usize,
    /// Per-rank wait epoch, bumped on every transition to `Blocked`. A
    /// verdict is stamped with the epoch it was issued for and is never
    /// delivered across epochs: a verdict that outlives the wait it judged
    /// (the rank resolved organically and blocked again) is stale by
    /// construction and must be dropped, not delivered to the new wait.
    epoch: Vec<u64>,
    /// Verdicts issued by classification — `(wait epoch, error)` — consumed
    /// once by their rank after epoch and re-validation checks.
    verdicts: Vec<Option<(u64, MpiError)>>,
}

impl Inner {
    fn set_phase(&mut self, r: usize, phase: Phase) {
        self.active -= matches!(self.phase[r], Phase::Active) as usize;
        self.active += matches!(phase, Phase::Active) as usize;
        self.phase[r] = phase;
    }
}

/// The universe-wide quiescence registry.
#[derive(Debug)]
pub(crate) struct Registry {
    mailboxes: Vec<Arc<Mailbox>>,
    agreements: Arc<AgreeTable>,
    /// Each world rank's liveness as last published by its own thread. A
    /// rank that is not `Alive` — fail-stopped *or* terminated — will never
    /// send again.
    live: Arc<Liveness>,
    /// The death epoch: bumped under the registry lock by every
    /// [`Registry::mark_dead`], after the death reached `live`. A waiter
    /// reads it before it looks at what it waits for; [`Registry::block`]
    /// refuses to register against an epoch that has moved since.
    deaths: AtomicU64,
    inner: Mutex<Inner>,
}

impl Registry {
    pub(crate) fn new(
        mailboxes: Vec<Arc<Mailbox>>,
        agreements: Arc<AgreeTable>,
        live: Arc<Liveness>,
    ) -> Self {
        let n = mailboxes.len();
        Registry {
            mailboxes,
            agreements,
            live,
            deaths: AtomicU64::new(0),
            inner: Mutex::new(Inner {
                phase: (0..n).map(|_| Phase::Active).collect(),
                active: n,
                epoch: vec![0; n],
                verdicts: vec![None; n],
            }),
        }
    }

    /// The current death epoch (see [`Registry::block`]).
    pub(crate) fn deaths(&self) -> u64 {
        self.deaths.load(Ordering::SeqCst)
    }

    /// Records that `world_rank` is dead (`state`: fail-stopped or
    /// terminated, already published to the failure detector): it will
    /// never send again. Moves the death epoch and returns the blocked
    /// ranks whose wait this death can end, for the caller to ring.
    /// Classification is *not* triggered here — the rank's own thread is
    /// still unwinding (it counts as active until [`Registry::done`]).
    pub(crate) fn mark_dead(&self, world_rank: usize, state: RankState) -> Vec<usize> {
        let inner = self.inner.lock();
        self.deaths.fetch_add(1, Ordering::SeqCst);
        let concerned = |(r, p): (usize, &Phase)| match p {
            Phase::Blocked(rec) if r != world_rank && rec.concerns(world_rank, state) => Some(r),
            _ => None,
        };
        inner.phase.iter().enumerate().filter_map(concerned).collect()
    }

    /// Registers `me` as blocked — unless a death was published since `me`
    /// read the epoch `seen`, before the checks it has just run: that death
    /// found `me` unregistered and rang nothing, so `Ok(false)` sends `me`
    /// round its checks again. Under the one registry lock a waiter is
    /// either `Blocked` when a death scans (and stays so across wake-ups)
    /// or registers against the epoch the death moved. Registering may
    /// trigger classification (if `me` was the last active rank); a verdict
    /// landing on `me` is returned at once, in which case `me` is back to
    /// `Active` and must not wait.
    ///
    /// Must be called while holding **no** mailbox lock: classification
    /// takes mailbox locks under the registry lock.
    pub(crate) fn block(&self, me: usize, rec: &WaitRecord, seen: u64) -> Result<bool, MpiError> {
        let mut inner = self.inner.lock();
        if self.deaths() != seen {
            return Ok(false);
        }
        // Every transition to Blocked opens a new wait epoch, fencing off
        // any verdict issued for an earlier wait of this rank.
        inner.epoch[me] = inner.epoch[me].wrapping_add(1);
        inner.set_phase(me, Phase::Blocked(rec.clone()));
        self.classify(&mut inner);
        self.take_verdict(&mut inner, me).map_or(Ok(true), Err)
    }

    /// Takes a pending verdict for `me`, if classification issued one while
    /// it was waiting. Consuming the verdict returns `me` to `Active`.
    pub(crate) fn check(&self, me: usize) -> Option<MpiError> {
        let mut inner = self.inner.lock();
        self.take_verdict(&mut inner, me)
    }

    /// Delivers `me`'s pending verdict only if it was issued for `me`'s
    /// *current* wait (epoch match) and that wait, re-validated under the
    /// registry lock, still cannot resolve *productively* (a deliverable
    /// envelope, a completable agreement). A verdict failing either check
    /// is dropped and classification re-runs from the current state — a
    /// fresh verdict issued by that re-run is delivered on the second pass
    /// (it is valid by construction). Consuming a verdict returns `me` to
    /// `Active`.
    ///
    /// The re-validation deliberately ignores the abort path (waited-on
    /// peers dying *after* the verdict was issued): a peer consuming its
    /// own verdict from the same classification round and terminating must
    /// not flip the survivors' verdicts to `PeerTerminated` — which rank
    /// wins that race is wall-clock scheduling, and every member of a
    /// judged cycle must report the same `Deadlock`.
    fn take_verdict(&self, inner: &mut Inner, me: usize) -> Option<MpiError> {
        for _ in 0..2 {
            let Some((epoch, _)) = &inner.verdicts[me] else {
                return None;
            };
            let valid = *epoch == inner.epoch[me]
                && match &inner.phase[me] {
                    Phase::Blocked(rec) => !self.can_deliver(me, rec),
                    _ => false,
                };
            if valid {
                let (_, v) = inner.verdicts[me].take().expect("checked above");
                inner.set_phase(me, Phase::Active);
                return Some(v);
            }
            inner.verdicts[me] = None;
            self.classify(inner);
        }
        None
    }

    /// Deregisters `me` (its wait resolved organically: a match was
    /// delivered, its abort fired, or its deadline was observed missed). A
    /// verdict racing with organic resolution is dropped — classification
    /// only issues verdicts consistent with organic outcomes.
    pub(crate) fn unblock(&self, me: usize) {
        let mut inner = self.inner.lock();
        inner.set_phase(me, Phase::Active);
        inner.verdicts[me] = None;
    }

    /// Atomic try-and-unblock: runs `me`'s "try to finish" step (claim an
    /// envelope, read an outcome) and, if it resolves the wait, flips `me`
    /// back to `Active` — all under the registry lock, so the classifier
    /// can never observe a rank that has consumed its message but still
    /// looks blocked (which would fabricate deadlock verdicts for its
    /// peers).
    pub(crate) fn attempt<T>(&self, me: usize, f: impl FnOnce() -> Claim<T>) -> Claim<T> {
        let mut inner = self.inner.lock();
        let c = f();
        if !matches!(c, Claim::Nothing) {
            inner.set_phase(me, Phase::Active);
            inner.verdicts[me] = None;
        }
        c
    }

    /// Deregisters `me` because its wall-clock watchdog ran out, returning
    /// the edge its wait had at that moment.
    pub(crate) fn give_up(&self, me: usize) -> Vec<usize> {
        let mut inner = self.inner.lock();
        let on = match &inner.phase[me] {
            Phase::Blocked(rec) => self.edge(me, rec),
            _ => Vec::new(),
        };
        inner.set_phase(me, Phase::Active);
        inner.verdicts[me] = None;
        on
    }

    /// Records that `me`'s closure ended; may trigger classification.
    pub(crate) fn done(&self, me: usize) {
        let mut inner = self.inner.lock();
        inner.set_phase(me, Phase::Done);
        inner.verdicts[me] = None;
        self.classify(&mut inner);
    }

    /// True if the blocked rank `r` can resolve without anyone else acting:
    /// a deliverable (or provably-late) envelope is queued, its dead-peer
    /// abort would fire, or its agreement round is completable.
    fn can_resolve(&self, r: usize, rec: &WaitRecord) -> bool {
        rec.abort(r, &self.live).is_some() || self.can_deliver(r, rec)
    }

    /// True if the blocked rank `r` can resolve *productively*: a
    /// deliverable (or provably-late) envelope is queued, or its agreement
    /// round is completable. Excludes the dead-peer abort path — used by
    /// [`Registry::take_verdict`], where a peer death after verdict issue
    /// must not invalidate the verdict.
    fn can_deliver(&self, r: usize, rec: &WaitRecord) -> bool {
        match &rec.kind {
            WaitKind::Mailbox { pat } => self.mailboxes[r].can_progress(*pat, rec.deadline),
            WaitKind::Agreement { key } => {
                self.agreements.try_outcome(*key, |w| self.dead(w)).is_some()
            }
            // The slot ran the member's program to its end: the
            // classifier must not judge a member it already finished.
            WaitKind::Collective { slot, member } => slot.finished(*member),
        }
    }

    fn dead(&self, w: usize) -> bool {
        self.live.of(w) != RankState::Alive
    }

    /// `r`'s edge in the wait graph: the senders a mailbox or collective
    /// wait awaits (every other member for `ANY_SOURCE`); for an agreement
    /// wait, re-derived fresh, the live members that have not deposited —
    /// only they actually block the round.
    fn edge(&self, r: usize, rec: &WaitRecord) -> Vec<usize> {
        match &rec.kind {
            WaitKind::Agreement { key } => self.agreements.pending_live(*key, |w| self.dead(w)),
            _ => rec.senders(r).collect(),
        }
    }

    /// The classifier. Runs under the registry lock whenever the system
    /// *may* have quiesced; issues verdicts only when it provably has.
    fn classify(&self, inner: &mut Inner) {
        let is_active = |p: &&Phase| matches!(p, Phase::Active);
        debug_assert_eq!(inner.active, inner.phase.iter().filter(is_active).count());
        // A rank holding a verdict it has not taken yet is about to act
        // (die, deposit, send poison). Judging the others before it has
        // would overwrite verdicts, or judge a state that only lasts until
        // it wakes — and which of the two happens is host scheduling.
        if inner.active > 0 || inner.verdicts.iter().any(Option::is_some) {
            return;
        }
        let blocked: Vec<usize> = inner
            .phase
            .iter()
            .enumerate()
            .filter_map(|(r, p)| matches!(p, Phase::Blocked(_)).then_some(r))
            .collect();
        if blocked.is_empty() {
            return;
        }
        // Stability: every blocked rank must be truly stuck, or the state
        // is still evolving and any verdict could be wrong.
        for &r in &blocked {
            let Phase::Blocked(rec) = &inner.phase[r] else {
                unreachable!()
            };
            if self.can_resolve(r, rec) {
                return;
            }
        }
        // Timeout round: the minimum deadline is unreachable — nothing can
        // be sent before it, because every possible sender is stuck.
        let dmin = blocked
            .iter()
            .filter_map(|&r| match &inner.phase[r] {
                Phase::Blocked(rec) => rec.deadline,
                _ => None,
            })
            .min();
        if let Some(dmin) = dmin {
            for &r in &blocked {
                let Phase::Blocked(rec) = &inner.phase[r] else {
                    unreachable!()
                };
                if rec.deadline == Some(dmin) {
                    inner.verdicts[r] = Some((inner.epoch[r], MpiError::Timeout));
                    self.mailboxes[r].wake_all();
                }
            }
            return;
        }
        // Terminal round: no deadline anywhere, so the state can never
        // change. Build the exact wait graph and classify every rank.
        let edges: Vec<(usize, Vec<usize>)> = blocked
            .iter()
            .map(|&r| {
                let Phase::Blocked(rec) = &inner.phase[r] else {
                    unreachable!()
                };
                (r, self.edge(r, rec))
            })
            .collect();
        // Fault-orphan fixpoint: a rank waiting (transitively) on a dead
        // rank is an orphan of that fault; blame the smallest reachable
        // dead rank for a deterministic error surface.
        let n = inner.phase.len();
        let mut cause: Vec<Option<usize>> = vec![None; n];
        loop {
            let mut changed = false;
            for (r, on) in &edges {
                let blame = on
                    .iter()
                    .filter_map(|&w| {
                        if self.dead(w) {
                            Some(w)
                        } else {
                            cause[w]
                        }
                    })
                    .min();
                if blame.is_some() && (cause[*r].is_none() || blame < cause[*r]) {
                    cause[*r] = blame;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        // An agreement round pending on a rank that is handed a verdict
        // here is not stuck: that rank wakes, and deposits or dies. Judging
        // its waiters in the same round would race the deposit — whether a
        // waiter sees the completed round or its verdict first is host
        // scheduling — so they keep waiting, for the round or for the next
        // quiescence.
        let on_sender = |r: usize| match &inner.phase[r] {
            Phase::Blocked(rec) => !matches!(rec.kind, WaitKind::Agreement { .. }),
            _ => false,
        };
        let mut spared = vec![false; n];
        loop {
            let mut changed = false;
            for (r, on) in &edges {
                let pending_on_judged = on.iter().any(|&w| on_sender(w) || spared[w]);
                if !on_sender(*r) && !spared[*r] && pending_on_judged {
                    spared[*r] = true;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        let graph = WaitGraph {
            edges: edges.clone(),
        };
        for (r, on) in edges.into_iter().filter(|(r, _)| !spared[*r]) {
            let v = match cause[r] {
                Some(w) => MpiError::NodeFailed { world_rank: w },
                None => MpiError::Deadlock {
                    waiting: r,
                    on,
                    graph: graph.clone(),
                },
            };
            inner.verdicts[r] = Some((inner.epoch[r], v));
            self.mailboxes[r].wake_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn registry(n: usize) -> (Registry, Arc<Liveness>) {
        let live = Arc::new(Liveness::new(n));
        let mailboxes = (0..n).map(|_| Arc::new(Mailbox::for_world(n))).collect();
        (Registry::new(mailboxes, Arc::new(AgreeTable::new()), live.clone()), live)
    }

    fn mailbox_wait(group: &Arc<Group>, src_world: Option<usize>, collective: bool) -> WaitRecord {
        WaitRecord {
            group: group.clone(),
            collective,
            deadline: None,
            kind: WaitKind::Mailbox { pat: Pattern { ctx: 0, src_world, tag: None } },
        }
    }

    fn agreement_wait(group: &Arc<Group>) -> WaitRecord {
        WaitRecord { kind: WaitKind::Agreement { key: (1, 0) }, ..mailbox_wait(group, None, false) }
    }

    /// A death rings exactly the blocked ranks whose wait it can end.
    #[test]
    fn mark_dead_returns_exactly_the_concerned_ranks() {
        // Members 0..=4 of a 6-rank world; world rank 5 is an outsider.
        let (reg, live) = registry(6);
        let group = Arc::new(Group::from_world_ranks((0..5).collect()).unwrap());
        let waits = [
            mailbox_wait(&group, Some(4), false), // rank 0: named source 4
            mailbox_wait(&group, None, false),    // rank 1: ANY_SOURCE
            mailbox_wait(&group, Some(1), true),  // rank 2: collective, from 1
            agreement_wait(&group),               // rank 3: agreement
        ];
        for (r, rec) in waits.iter().enumerate() {
            assert_eq!(reg.block(r, rec, reg.deaths()), Ok(true));
        }
        let dies = |w, state| {
            let before = reg.deaths();
            live.publish(w, state);
            let rung = reg.mark_dead(w, state);
            assert_eq!(reg.deaths(), before + 1, "every death moves the epoch");
            rung
        };
        // An outsider concerns nobody, not even `ANY_SOURCE` or an
        // agreement; a collective wait ignores a member that merely
        // returned, and hears of one that failed.
        assert_eq!(dies(5, RankState::Failed), Vec::<usize>::new());
        assert_eq!(dies(4, RankState::Terminated), vec![0, 1, 3]);
        assert_eq!(dies(4, RankState::Failed), vec![0, 1, 2, 3]);
        // A rank that is not blocked is never rung.
        reg.unblock(1);
        assert_eq!(dies(4, RankState::Failed), vec![0, 2, 3]);
    }

    /// A death published between a waiter's checks and its `block` finds it
    /// unregistered and rings nothing: the moved epoch must refuse the
    /// registration.
    #[test]
    fn block_refuses_an_epoch_a_death_has_moved() {
        let (reg, live) = registry(3);
        let rec = mailbox_wait(&Arc::new(Group::world(3)), Some(1), false);
        let seen = reg.deaths();
        live.publish(2, RankState::Terminated);
        assert!(reg.mark_dead(2, RankState::Terminated).is_empty());
        assert_eq!(reg.block(0, &rec, seen), Ok(false));
        assert_eq!(reg.inner.lock().active, 3, "a refused rank stays Active");
        assert_eq!(reg.block(0, &rec, reg.deaths()), Ok(true));
        assert_eq!(reg.inner.lock().active, 2);
    }

    proptest! {
        /// `Inner::active` is the number of `Active` phases after any
        /// sequence of registry calls — including the verdicts the
        /// classifier hands out when the last active rank blocks or exits.
        #[test]
        fn active_count_equals_the_phase_scan(
            ops in proptest::collection::vec((0usize..7, 0usize..4, 0usize..4), 1..60)
        ) {
            let (reg, _) = registry(4);
            let group = Arc::new(Group::world(4));
            for (op, me, other) in ops {
                match op {
                    0 => drop(reg.block(me, &mailbox_wait(&group, Some(other), false), reg.deaths())),
                    1 => drop(reg.block(me, &agreement_wait(&group), reg.deaths())),
                    2 => drop(reg.attempt(me, || if other < 2 { Claim::Matched(()) } else { Claim::Nothing })),
                    3 => reg.unblock(me),
                    4 => drop(reg.check(me)),
                    5 => drop(reg.give_up(me)),
                    _ => reg.done(me),
                }
                let inner = reg.inner.lock();
                let scan = inner.phase.iter().filter(|p| matches!(p, Phase::Active)).count();
                prop_assert_eq!(inner.active, scan);
            }
        }
    }
}
