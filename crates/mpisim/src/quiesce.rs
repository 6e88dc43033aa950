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
use crate::slot::{Rule, Slot};
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
    /// Blocked in a collective: unblocked once the call's slot holds the
    /// member's outcome. Until then it is a receive from the one sender the
    /// member's program awaits ([`Slot::awaiting`]), which the slot keeps
    /// current as it runs the program.
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
    /// working during recovery. A collective slot's wait follows its
    /// slot's rule ([`Slot::dead_peer`]). Agreement waits never abort: dead
    /// members are excluded from the round instead.
    pub(crate) fn abort(&self, me: usize, live: &Liveness) -> Option<MpiError> {
        match &self.kind {
            WaitKind::Agreement { .. } => return None,
            WaitKind::Collective { slot, member } => return slot.dead_peer(*member, live),
            WaitKind::Mailbox { .. } => {}
        }
        let mut verdict = None;
        for w in self.senders(me) {
            match dead_sender(w, live) {
                None => return None,
                Some(e @ MpiError::NodeFailed { .. }) => verdict = Some(e),
                Some(e) => verdict = verdict.or(Some(e)),
            }
        }
        verdict
    }

    /// True if the death of world rank `dead` (now in `state`) can end this
    /// wait — change what [`Self::abort`] or an agreement's outcome says:
    /// the pattern names it, a collective member's program awaits it, or it
    /// is one of the members an `ANY_SOURCE` pattern, an unfinished member
    /// of a [`Rule::Legacy`] slot (failures only), or an agreement round
    /// looks at. The named sender first: membership is a linear scan.
    fn concerns(&self, dead: usize, state: RankState) -> bool {
        let failed = state == RankState::Failed;
        let any_member = match &self.kind {
            WaitKind::Mailbox { pat } => {
                if pat.src_world == Some(dead) {
                    return true;
                }
                pat.src_world.is_none()
            }
            WaitKind::Collective { slot, member } => {
                if slot.awaiting(*member) == Some(dead) {
                    return true;
                }
                slot.rule() == Rule::Legacy && failed && !slot.finished(*member)
            }
            WaitKind::Agreement { .. } => true,
        };
        any_member && self.group.contains_world(dead)
    }
}

/// The legacy collectives' rule: the first member of `group` other than
/// world rank `me` that has failed, in group order, as the error that
/// aborts `me`'s wait — once any rank has failed at all.
pub(crate) fn failed_member(group: &Group, me: usize, live: &Liveness) -> Option<MpiError> {
    if !live.any_failed() {
        return None;
    }
    let failed = |&w: &usize| w != me && live.of(w) == RankState::Failed;
    let world_rank = group.world_ranks().iter().copied().find(failed)?;
    Some(MpiError::NodeFailed { world_rank })
}

/// What an awaited sender's death says: [`MpiError::NodeFailed`] if it
/// fail-stopped, [`MpiError::PeerTerminated`] if it returned, nothing while
/// it is alive.
pub(crate) fn dead_sender(w: usize, live: &Liveness) -> Option<MpiError> {
    match live.of(w) {
        RankState::Alive => None,
        RankState::Failed => Some(MpiError::NodeFailed { world_rank: w }),
        RankState::Terminated => Some(MpiError::PeerTerminated { world_rank: w }),
    }
}

#[derive(Debug)]
enum Phase {
    Active,
    Blocked(WaitRecord),
    Done,
}

/// The blocked waits filed by the deaths that may end them, so a death
/// visits the waits it can concern rather than every rank. `lists[w]`
/// (for `w < n`) holds the waits whose pattern names sender `w`;
/// `lists[n]` the waits any member's death may end (`ANY_SOURCE`,
/// agreement, and collective slot, whose awaited sender moves as the slot
/// runs). A slot wait whose member the slot has finished leaves `lists[n]`
/// at the next death ([`Inner::prune_finished`]): no death concerns it
/// any more.
#[derive(Debug)]
struct Watch {
    lists: Vec<Vec<usize>>,
    /// `at[r]`: rank `r`'s position in its list while it is filed there;
    /// [`GONE`] once it is not.
    at: Vec<usize>,
}

/// [`Watch::at`]'s "not filed".
const GONE: usize = usize::MAX;

impl Watch {
    fn new(n: usize) -> Self {
        Watch {
            lists: vec![Vec::new(); n + 1],
            at: vec![GONE; n],
        }
    }

    /// The list `rec` is filed in.
    fn list_of(&self, rec: &WaitRecord) -> usize {
        match rec.kind {
            WaitKind::Mailbox { pat } => pat.src_world.unwrap_or(self.at.len()),
            WaitKind::Agreement { .. } | WaitKind::Collective { .. } => self.at.len(),
        }
    }

    fn file(&mut self, r: usize, rec: &WaitRecord) {
        let l = self.list_of(rec);
        self.at[r] = self.lists[l].len();
        self.lists[l].push(r);
    }

    fn unfile(&mut self, r: usize, rec: &WaitRecord) {
        if self.at[r] != GONE {
            self.remove(self.list_of(rec), self.at[r]);
        }
    }

    /// Takes the entry at `pos` out of list `l`.
    fn remove(&mut self, l: usize, pos: usize) {
        let r = self.lists[l].swap_remove(pos);
        self.at[r] = GONE;
        if let Some(&moved) = self.lists[l].get(pos) {
            self.at[moved] = pos;
        }
    }

    /// The blocked ranks whose wait the death of `dead` may concern: those
    /// naming it, and those any member's death may end.
    fn candidates(&self, dead: usize) -> impl Iterator<Item = usize> + '_ {
        let n = self.at.len();
        self.lists[dead].iter().chain(&self.lists[n]).copied()
    }
}

#[derive(Debug)]
struct Inner {
    phase: Vec<Phase>,
    /// How many ranks are `Active`, so the classifier need not scan for
    /// one. Kept by [`Inner::set_phase`], the only writer of `phase`.
    active: usize,
    /// The `Blocked` ranks filed by who may end their wait, kept by
    /// [`Inner::set_phase`] too.
    watch: Watch,
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
        if let Phase::Blocked(old) = &self.phase[r] {
            self.watch.unfile(r, old);
        }
        if let Phase::Blocked(rec) = &phase {
            self.watch.file(r, rec);
        }
        self.phase[r] = phase;
    }

    /// Takes out of the any-member list the slot waits whose member the
    /// slot has finished: they stay `Blocked` until their thread wakes, but
    /// no death concerns them any more ([`WaitRecord::concerns`]). A run
    /// that ends in a collective leaves nearly every member so, and each
    /// rank's exit would scan them all.
    fn prune_finished(&mut self) {
        let n = self.phase.len();
        let mut pos = 0;
        while let Some(&r) = self.watch.lists[n].get(pos) {
            let done = match &self.phase[r] {
                Phase::Blocked(WaitRecord {
                    kind: WaitKind::Collective { slot, member },
                    ..
                }) => slot.finished(*member),
                _ => false,
            };
            if done {
                self.watch.remove(n, pos);
            } else {
                pos += 1;
            }
        }
    }
}

/// The universe-wide quiescence registry.
#[derive(Debug)]
pub(crate) struct Registry {
    mailboxes: Arc<[Mailbox]>,
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
        mailboxes: Arc<[Mailbox]>,
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
                watch: Watch::new(n),
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
    /// never send again. Moves the death epoch and returns, in ascending
    /// order, the blocked ranks whose wait this death can end
    /// ([`WaitRecord::concerns`]), for the caller to ring. It looks only at
    /// the waits filed under the dead rank and the waits any death may end
    /// (once each for a slot wait whose member has finished) — not at every
    /// rank — so its cost under the lock is the waits it may concern. It reads slots' atomics
    /// only, never a slot's lock: a member's own death is published with
    /// its slot's executor held.
    /// Classification is *not* triggered here — the rank's own thread is
    /// still unwinding (it counts as active until [`Registry::done`]).
    pub(crate) fn mark_dead(&self, world_rank: usize, state: RankState) -> Vec<usize> {
        let mut inner = self.inner.lock();
        self.deaths.fetch_add(1, Ordering::SeqCst);
        inner.prune_finished();
        let concerned = |&r: &usize| match &inner.phase[r] {
            Phase::Blocked(rec) => r != world_rank && rec.concerns(world_rank, state),
            _ => false,
        };
        let mut rung: Vec<usize> = inner
            .watch
            .candidates(world_rank)
            .filter(concerned)
            .collect();
        rung.sort_unstable();
        rung.dedup();
        rung
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
        // Stability: every blocked rank must be truly stuck, or the state
        // is still evolving and any verdict could be wrong. (Checked before
        // anything is collected: nearly every classification stops here.)
        let mut waits = inner.phase.iter().enumerate().filter_map(|(r, p)| match p {
            Phase::Blocked(rec) => Some((r, rec)),
            _ => None,
        });
        if waits.any(|(r, rec)| self.can_resolve(r, rec)) {
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
    use crate::comm::Doomed;
    use crate::slot::{SlotKey, SlotTable};
    use proptest::prelude::*;

    fn registry(n: usize) -> (Registry, Arc<Liveness>) {
        let live = Arc::new(Liveness::new(n));
        let mailboxes = (0..n).map(|_| Mailbox::for_world(n)).collect();
        (Registry::new(mailboxes, Arc::new(AgreeTable::new()), live.clone()), live)
    }

    fn mailbox_wait(group: &Arc<Group>, src_world: Option<usize>) -> WaitRecord {
        WaitRecord {
            group: group.clone(),
            deadline: None,
            kind: WaitKind::Mailbox { pat: Pattern { ctx: 0, src_world, tag: None } },
        }
    }

    /// The doomed list of a fault-free run.
    fn no_doom(group: &Group) -> Doomed {
        let n = group.world_ranks().iter().max().map_or(0, |&w| w + 1);
        Doomed::of(group, &vec![None; n])
    }

    fn agreement_wait(group: &Arc<Group>) -> WaitRecord {
        WaitRecord { kind: WaitKind::Agreement { key: (1, 0) }, ..mailbox_wait(group, None) }
    }

    /// A wait in a [`Rule::Legacy`] slot over `group` (keyed `key` in
    /// `slots`), its member 0 awaiting world rank `w`.
    fn legacy_wait(slots: &SlotTable, key: SlotKey, group: &Arc<Group>, w: usize) -> WaitRecord {
        let slot = slots.open(key, group, &no_doom(group), Rule::Legacy);
        slot.set_awaiting(0, Some(w));
        WaitRecord {
            kind: WaitKind::Collective { slot, member: 0 },
            ..mailbox_wait(group, None)
        }
    }

    /// A death rings exactly the blocked ranks whose wait it can end.
    #[test]
    fn mark_dead_returns_exactly_the_concerned_ranks() {
        // Members 0..=4 of a 6-rank world; world rank 5 is an outsider.
        let (reg, live) = registry(6);
        let group = Arc::new(Group::from_world_ranks((0..5).collect()).unwrap());
        let slots = SlotTable::default();
        let waits = [
            mailbox_wait(&group, Some(4)),          // rank 0: named source 4
            mailbox_wait(&group, None),             // rank 1: ANY_SOURCE
            legacy_wait(&slots, (0, 0), &group, 1), // rank 2: collective, from 1
            agreement_wait(&group),                 // rank 3: agreement
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
        let rec = mailbox_wait(&Arc::new(Group::world(3)), Some(1));
        let seen = reg.deaths();
        live.publish(2, RankState::Terminated);
        assert!(reg.mark_dead(2, RankState::Terminated).is_empty());
        assert_eq!(reg.block(0, &rec, seen), Ok(false));
        assert_eq!(reg.inner.lock().active, 3, "a refused rank stays Active");
        assert_eq!(reg.block(0, &rec, reg.deaths()), Ok(true));
        assert_eq!(reg.inner.lock().active, 2);
    }

    /// The definition `mark_dead` answers to: every blocked rank but the
    /// dead one whose wait the death concerns, found by scanning all phases.
    fn concerned_by_scan(reg: &Registry, dead: usize, state: RankState) -> Vec<usize> {
        let inner = reg.inner.lock();
        let concerned = |(r, p): (usize, &Phase)| match p {
            Phase::Blocked(rec) if r != dead && rec.concerns(dead, state) => Some(r),
            _ => None,
        };
        inner
            .phase
            .iter()
            .enumerate()
            .filter_map(concerned)
            .collect()
    }

    /// Over seeded random registry states — named-source, `ANY_SOURCE`,
    /// agreement and collective-slot (under either rule) waits,
    /// registered, re-registered while blocked,
    /// resolved and ended in any order, with slots moving on to other
    /// senders and finishing members — the index returns exactly the
    /// ascending set the all-phases scan does, for every rank's
    /// termination and failure.
    #[test]
    fn mark_dead_index_returns_what_the_phase_scan_does() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let n = 6;
        let groups = [vec![0, 1, 2, 3, 4, 5], vec![0, 1, 2, 3, 4], vec![5, 3, 1]];
        let groups: Vec<Arc<Group>> = groups
            .into_iter()
            .map(|g| Arc::new(Group::from_world_ranks(g).unwrap()))
            .collect();
        let slots = SlotTable::default();
        let mut reblocked = 0;
        for seed in 0..64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let (reg, _) = registry(n);
            let mut open: Vec<(Arc<Slot>, usize)> = Vec::new();
            for _ in 0..40 {
                let me = rng.random_range(0..n);
                match rng.random_range(0..8) {
                    0..=2 => {
                        let group = &groups[rng.random_range(0..groups.len())];
                        let kind = match rng.random_range(0..5) {
                            0 | 1 => WaitKind::Mailbox {
                                pat: Pattern {
                                    ctx: 0,
                                    src_world: Some(rng.random_range(0..n)),
                                    tag: None,
                                },
                            },
                            2 => WaitKind::Mailbox {
                                pat: Pattern {
                                    ctx: 0,
                                    src_world: None,
                                    tag: None,
                                },
                            },
                            3 => WaitKind::Agreement { key: (1, 0) },
                            _ => {
                                let key = (seed, open.len() as u64);
                                let rule = [Rule::Engine, Rule::Legacy][rng.random_range(0..2)];
                                let slot = slots.open(key, group, &no_doom(group), rule);
                                open.push((slot.clone(), group.size()));
                                WaitKind::Collective {
                                    slot,
                                    member: rng.random_range(0..group.size()),
                                }
                            }
                        };
                        let rec = WaitRecord {
                            group: group.clone(),
                            deadline: None,
                            kind,
                        };
                        reblocked +=
                            matches!(reg.inner.lock().phase[me], Phase::Blocked(_)) as usize;
                        drop(reg.block(me, &rec, reg.deaths()));
                    }
                    3 => reg.unblock(me),
                    4 => drop(reg.attempt(me, || Claim::Matched(()))),
                    5 => reg.done(me),
                    6 => drop(reg.give_up(me)),
                    _ => {
                        // A slot moves its member on to another sender, or
                        // finishes it.
                        if let Some((slot, p)) = open.last() {
                            let (m, w) = (rng.random_range(0..*p), rng.random_range(0..n + 2));
                            match w < n + 1 {
                                true => slot.set_awaiting(m, (w < n).then_some(w)),
                                false => slot.set_finished(m),
                            }
                        }
                    }
                }
                for dead in 0..n {
                    for state in [RankState::Terminated, RankState::Failed] {
                        let want = concerned_by_scan(&reg, dead, state);
                        assert_eq!(
                            reg.mark_dead(dead, state),
                            want,
                            "seed {seed}: {dead} {state:?}"
                        );
                    }
                }
            }
        }
        assert!(
            reblocked > 0,
            "no Blocked → Blocked re-registration was drawn"
        );
    }

    /// A wait in a [`Rule::Legacy`] slot (the barrier's) ends on the
    /// failure of any member, not only of the sender its program awaits:
    /// such a failure must ring it. A member that merely returned, and any
    /// failure once the member has finished, ring nobody.
    #[test]
    fn a_failure_rings_a_legacy_slot_wait_on_another_sender() {
        let (reg, live) = registry(4);
        let group = Arc::new(Group::world(4));
        let slots = SlotTable::default();
        let wait = |key, rule| {
            let slot = slots.open(key, &group, &no_doom(&group), rule);
            slot.set_awaiting(0, Some(1));
            let rec = WaitRecord {
                kind: WaitKind::Collective {
                    slot: slot.clone(),
                    member: 0,
                },
                ..mailbox_wait(&group, None)
            };
            assert_eq!(reg.block(0, &rec, reg.deaths()), Ok(true));
            (slot, rec)
        };
        let (legacy, rec) = wait((1, 0), Rule::Legacy);
        live.publish(2, RankState::Terminated);
        assert!(reg.mark_dead(2, RankState::Terminated).is_empty());
        assert_eq!(
            rec.abort(0, &live),
            None,
            "a returned bystander ends nothing"
        );
        live.publish(3, RankState::Failed);
        assert_eq!(reg.mark_dead(3, RankState::Failed), vec![0]);
        let failed = MpiError::NodeFailed { world_rank: 3 };
        assert_eq!(rec.abort(0, &live), Some(failed.clone()));
        assert_eq!(legacy.dead_peer(0, &live), Some(failed));
        // The engine's rule hears of its awaited sender only.
        let (_, rec) = wait((1, 1), Rule::Engine);
        assert!(reg.mark_dead(3, RankState::Failed).is_empty());
        assert_eq!(rec.abort(0, &live), None);
        // A finished member's wait is over; its filing goes at the next
        // death.
        let (legacy, rec) = wait((1, 2), Rule::Legacy);
        legacy.set_finished(0);
        assert_eq!(rec.abort(0, &live), None);
        assert!(reg.mark_dead(3, RankState::Failed).is_empty());
        let n = 4;
        assert!(reg.inner.lock().watch.lists[n].is_empty());
    }

    /// A death looks only at the waits filed under it and at the waits any
    /// death may end.
    #[test]
    fn a_death_visits_only_the_waits_it_may_concern() {
        let (reg, _) = registry(64);
        let group = Arc::new(Group::world(64));
        for r in 1..60 {
            assert_eq!(
                reg.block(r, &mailbox_wait(&group, Some(0)), reg.deaths()),
                Ok(true)
            );
        }
        assert_eq!(
            reg.block(60, &mailbox_wait(&group, None), reg.deaths()),
            Ok(true)
        );
        assert_eq!(
            reg.block(61, &mailbox_wait(&group, Some(1)), reg.deaths()),
            Ok(true)
        );
        let visits = |dead| reg.inner.lock().watch.candidates(dead).count();
        assert_eq!(visits(5), 1, "the ANY_SOURCE wait only");
        assert_eq!(visits(1), 2, "and the one naming it");
        assert_eq!(visits(0), 60);
        reg.unblock(7);
        assert_eq!(visits(0), 59);
        assert_eq!(reg.mark_dead(0, RankState::Terminated).len(), 59);
    }

    proptest! {
        /// A death that ends a wait — turns its [`WaitRecord::abort`]
        /// from `None` to `Some` — concerns it, so `mark_dead` rings it:
        /// for mailbox waits (named or `ANY_SOURCE`) and for slot waits
        /// under either rule, awaiting a sender or not, finished or not,
        /// over any liveness before the death.
        #[test]
        fn a_death_that_ends_a_wait_concerns_it(
            before in proptest::collection::vec(0u8..3, 5),
            shape in 0usize..8,
            named in 0usize..6,
            death in 2usize..10,
        ) {
            let (slot, legacy, finished) = (shape % 2 == 1, shape / 2 % 2 == 1, shape / 4 == 1);
            let (dead, failed) = (death / 2, death % 2 == 1);
            // World rank 0 waits on a communicator over world ranks 0..=3;
            // world rank 4 is an outsider.
            let live = Liveness::new(5);
            let states = [RankState::Alive, RankState::Failed, RankState::Terminated];
            for (w, &s) in before.iter().enumerate().skip(1) {
                if s > 0 {
                    live.publish(w, states[s as usize]);
                }
            }
            let group = Arc::new(Group::from_world_ranks(vec![0, 1, 2, 3]).unwrap());
            let named = (named < 5).then_some(named);
            let rec = match slot {
                false => mailbox_wait(&group, named),
                true => {
                    let rule = [Rule::Engine, Rule::Legacy][legacy as usize];
                    let slots = SlotTable::default();
                    let slot = slots.open((0, 0), &group, &no_doom(&group), rule);
                    slot.set_awaiting(0, named);
                    if finished {
                        slot.set_finished(0);
                    }
                    WaitRecord {
                        kind: WaitKind::Collective { slot, member: 0 },
                        ..mailbox_wait(&group, None)
                    }
                }
            };
            let state = [RankState::Terminated, RankState::Failed][failed as usize];
            let was = rec.abort(0, &live);
            live.publish(dead, state);
            let now = rec.abort(0, &live);
            if was.is_none() && now.is_some() {
                prop_assert!(
                    rec.concerns(dead, state),
                    "{:?} ends on {dead} {state:?} unconcerned",
                    rec.kind
                );
            }
        }

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
                    0 => drop(reg.block(me, &mailbox_wait(&group, Some(other)), reg.deaths())),
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
