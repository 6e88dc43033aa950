//! Collective slots: every collective call — each engine call, and each
//! legacy barrier, bcast, gather and scatter — runs as one rendezvous.
//!
//! The `n`-th engine call a member issues on a communicator lands in slot
//! `(collective-plane context, n)` of the run's [`SlotTable`], as the
//! agreement rounds do (`crate::agree`); its `n`-th legacy call in slot
//! `(point-to-point context, n)`, so legacy calls and engine calls pair up
//! apart. Every member deposits its plan, its input, and lends the slot its
//! clock and its `RankNet`; whichever member's thread holds the slot's
//! executor advances *every* arrived member's program as far as the
//! transfers already issued allow, and a member's thread sleeps at most
//! once: until its own program has finished or failed. A member that
//! finds the executor held leaves its arrival for the holder, which looks
//! for new arrivals again after it unlocks — so no member queues on the
//! lock.
//!
//! The steps are the transport's own halves ([`Endpoint::send`] and
//! [`Endpoint::recv`]), run for each member in its own program order on
//! its own lent state, so virtual times, traces and the error surface are
//! what per-rank message passing gives: a transfer is a record in the slot
//! instead of a mailbox post, taken by the `nth` receive of its
//! sender–receiver pair (per-pair FIFO). No payload travels: a transfer
//! record carries its size — the plan's, or for a legacy call's ragged
//! contributions that of the deposit it carries (`Plan::carried`) — its
//! wire stamps and, in place of a transfer a failing member will never
//! send, the world rank it blames (*poison*). A member that finishes
//! copies its result out of the deposits.
//!
//! A slot runs under one of two fault rules ([`Rule`]): the engine's,
//! which propagates faults along schedule edges with poison, or the
//! legacy calls', which keeps the mailbox collectives' "any failed member"
//! rule. Quiescence sees a blocked member as a receive from the one sender
//! its program awaits (`WaitKind::Collective`), ended by the rule's
//! [`Slot::dead_peer`]: [`Slot::awaiting`] and [`Slot::finished`] are
//! atomics, read without the slot's lock.

use crate::comm::{Doomed, Endpoint};
use crate::datatype::MpiType;
use crate::error::{MpiError, MpiResult};
use crate::group::Group;
use crate::p2p::{protocol, Wire};
use crate::plan::Plan;
use crate::quiesce::{dead_sender, failed_member};
use crate::runtime::{Liveness, RankState, SharedState};
use crate::vtime::RankNet;
use hetsim::SimTime;
use parking_lot::{Mutex, MutexGuard};
use std::any::Any;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

/// Key of one call's slot: `(context id, call ordinal)`, on the collective
/// plane's id for an engine call and the point-to-point plane's for a
/// legacy call.
pub(crate) type SlotKey = (u64, u64);

/// A deposited input or a result built from the deposits: a `Vec<T>` of
/// the call's element type (a legacy call's: a `Vec<Vec<T>>` of parts).
pub(crate) type Data = Arc<dyn Any + Send + Sync>;

/// [`Slot::awaiting`]'s "no sender".
const NONE: usize = usize::MAX;

/// Wire size of a poison transfer: the blamed world rank, as one `i64`.
const POISON_BYTES: usize = 8;

/// The world rank an engine collective propagates blame for, if the error
/// is a fail-stop fault. Non-fault errors (count mismatches, link drops)
/// are not poisoned: their stuck peers are resolved by the quiescence
/// detector instead.
fn fault_blame(e: &MpiError) -> Option<usize> {
    match *e {
        MpiError::NodeFailed { world_rank } | MpiError::PeerTerminated { world_rank } => {
            Some(world_rank)
        }
        _ => None,
    }
}

/// The fault rule a slot's members follow.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Rule {
    /// The engine collectives': faults travel along schedule edges. A
    /// member's wait ends on the death of the one sender its program
    /// awaits, a receive's dead sender is a failed node whether it crashed
    /// or returned, and a member that fails poisons every transfer it has
    /// not sent.
    Engine,
    /// The legacy calls' (barrier, bcast, gather, scatter): a member whose
    /// node has crashed by the receiver's clock fails the receive, any failed
    /// member ends a waiting member's wait, a returned sender gives
    /// [`MpiError::PeerTerminated`], and a failure sends no poison.
    Legacy,
}

/// The run's open collective slots.
#[derive(Debug, Default)]
pub(crate) struct SlotTable {
    open: Mutex<HashMap<SlotKey, Arc<Slot>>>,
}

impl SlotTable {
    /// The slot of call `key` on the communicator over `group` (whose
    /// doomed members are `doomed`), opened under `rule` by its first
    /// member to arrive.
    pub(crate) fn open(
        &self,
        key: SlotKey,
        group: &Arc<Group>,
        doomed: &Doomed,
        rule: Rule,
    ) -> Arc<Slot> {
        let mut open = self.open.lock();
        let slot = open
            .entry(key)
            .or_insert_with(|| Arc::new(Slot::new(key, group, doomed, rule)));
        Arc::clone(slot)
    }
}

/// What a member brings to its call.
pub(crate) struct Arrival {
    pub(crate) plan: Arc<Plan>,
    /// Wire size of one element of the call's type.
    pub(crate) elem_bytes: usize,
    /// The member's clock and sending state, lent until it takes its
    /// outcome.
    pub(crate) clock: SimTime,
    pub(crate) net: RankNet,
    pub(crate) deposit: Deposit,
}

/// What a member leaves in the slot for results to be copied out of.
#[derive(Default)]
pub(crate) struct Deposit {
    /// A bcast root's buffer, a contribution, a scatter root's parts;
    /// `None` where the member contributes nothing.
    pub(crate) data: Option<Data>,
    /// The wire size of each part of `data` a legacy call's transfer can
    /// carry (`Plan::carried`); empty for an engine call, whose plan sizes
    /// its transfers.
    pub(crate) bytes: Vec<usize>,
}

impl Deposit {
    /// A legacy call's parts, a `Vec<Vec<T>>`: one for a buffer or a
    /// contribution, one per member for a scatter root.
    pub(crate) fn parts<T: MpiType>(parts: Vec<Vec<T>>) -> Deposit {
        Deposit {
            bytes: parts.iter().map(|v| v.len() * T::WIRE_SIZE).collect(),
            data: Some(Arc::new(parts)),
        }
    }
}

/// What a result built from the deposits is: the fold of one operation, or
/// the concatenation (`None`), over inputs of one length.
pub(crate) type BuiltKey = (Option<crate::op::ReduceOp>, usize);

/// A result built once per slot, with the key it was built for.
type Built = (BuiltKey, MpiResult<Data>);

/// What a finished member takes back: its outcome, clock and sending state.
pub(crate) type Exit = (MpiResult<()>, SimTime, RankNet);

/// One collective call's rendezvous.
///
/// Only the executor — the members' programs and the issued transfers —
/// is under the slot's lock, and no member queues for it: an arrival is
/// left in `pending` for whichever thread holds the executor, and that
/// thread looks at `pending` again after it unlocks. A member's deposit
/// and its exit sit in cells of their own, so reading a deposit, building
/// a result and taking an outcome never touch the executor.
pub(crate) struct Slot {
    key: SlotKey,
    group: Arc<Group>,
    doomed: Doomed,
    rule: Rule,
    /// Per member: the world rank whose transfer its program waits for,
    /// or [`NONE`].
    awaiting: Vec<AtomicUsize>,
    /// Per member: its outcome is final.
    finished: Vec<AtomicBool>,
    /// Per member: its deposit, set as it arrives.
    inputs: Vec<OnceLock<Deposit>>,
    /// Per member: its exit, left by whichever thread finished it.
    exits: Vec<Mutex<Option<Exit>>>,
    /// Arrived members the executor has not taken in yet.
    pending: Mutex<Vec<(usize, Member)>>,
    exec: Mutex<Exec>,
    arrived: AtomicUsize,
    taken: AtomicUsize,
    built: OnceLock<Built>,
}

impl std::fmt::Debug for Slot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Slot{:?}", self.key)
    }
}

/// The executor's state, under the slot's lock.
struct Exec {
    /// By communicator rank: the members running, `None` before a member
    /// is taken in and once it has finished.
    members: Vec<Option<Member>>,
    /// Issued transfers not yet taken, by `(sender, receiver, nth)`.
    records: HashMap<(u32, u32, u32), Record>,
    /// Members a new record may have unblocked.
    work: Vec<usize>,
}

/// One arrived member's program state.
struct Member {
    plan: Arc<Plan>,
    elem_bytes: usize,
    /// Its next step.
    pc: usize,
    clock: SimTime,
    net: RankNet,
    /// The transfer its program waits for, as `(sender, nth)`.
    blocked_on: Option<(usize, u32)>,
}

/// One issued transfer.
struct Record {
    bytes: usize,
    wire: Wire,
    /// The world rank a poison transfer blames.
    poison: Option<usize>,
}

impl Slot {
    fn new(key: SlotKey, group: &Arc<Group>, doomed: &Doomed, rule: Rule) -> Slot {
        let p = group.size();
        Slot {
            key,
            group: Arc::clone(group),
            doomed: doomed.clone(),
            rule,
            awaiting: (0..p).map(|_| AtomicUsize::new(NONE)).collect(),
            finished: (0..p).map(|_| AtomicBool::new(false)).collect(),
            inputs: (0..p).map(|_| OnceLock::new()).collect(),
            exits: (0..p).map(|_| Mutex::new(None)).collect(),
            pending: Mutex::new(Vec::new()),
            exec: Mutex::new(Exec {
                members: (0..p).map(|_| None).collect(),
                records: HashMap::new(),
                work: Vec::new(),
            }),
            arrived: AtomicUsize::new(0),
            taken: AtomicUsize::new(0),
            built: OnceLock::new(),
        }
    }

    /// The fault rule the slot's members follow.
    pub(crate) fn rule(&self) -> Rule {
        self.rule
    }

    /// True once member `m`'s outcome is final.
    pub(crate) fn finished(&self, m: usize) -> bool {
        self.finished[m].load(Ordering::SeqCst)
    }

    /// The world rank whose transfer member `m`'s program waits for.
    pub(crate) fn awaiting(&self, m: usize) -> Option<usize> {
        Some(self.awaiting[m].load(Ordering::SeqCst)).filter(|&w| w != NONE)
    }

    /// The dead-peer rule of member `m`'s wait: the error that ends it
    /// because a death means its program can not go on, given each rank's
    /// liveness. Nothing once `m` has finished; under [`Rule::Legacy`] the
    /// first failed member other than `m`, in group order; else the death
    /// of the sender its program awaits. Read without the slot's lock by
    /// the member's wait and the quiescence classifier
    /// (`WaitRecord::abort`), and again under it by [`Slot::abandon`].
    pub(crate) fn dead_peer(&self, m: usize, live: &Liveness) -> Option<MpiError> {
        if self.finished(m) {
            return None;
        }
        if self.rule == Rule::Legacy {
            let me = self.group.world_rank_of(m);
            if let Some(e) = failed_member(&self.group, me, live) {
                return Some(e);
            }
        }
        dead_sender(self.awaiting(m)?, live)
    }

    /// The legacy rule's receive check: under [`Rule::Legacy`] a member
    /// whose node has crashed by the receiver's clock `now` fails the
    /// receive of world rank `me`, whatever is issued already.
    fn doomed_by(&self, me: usize, now: SimTime) -> MpiResult<()> {
        match self.rule {
            Rule::Legacy => self.doomed.check(me, now),
            Rule::Engine => Ok(()),
        }
    }

    /// Deposits member `m` and, unless another thread holds the executor
    /// (which then runs `m` too), advances every member as far as the
    /// issued transfers allow, ringing the members that finished or now
    /// await a dead sender.
    pub(crate) fn arrive(&self, shared: &SharedState, m: usize, a: Arrival) {
        self.arrived.fetch_add(1, Ordering::SeqCst);
        let _ = self.inputs[m].set(a.deposit);
        let member = Member {
            plan: a.plan,
            elem_bytes: a.elem_bytes,
            pc: 0,
            clock: a.clock,
            net: a.net,
            blocked_on: None,
        };
        self.pending.lock().push((m, member));
        if let Some(ex) = self.exec.try_lock() {
            self.advance(ex, shared, m, None);
        }
    }

    /// Ends member `m`'s wait, which ended without its outcome: with
    /// `verdict` (a quiescence verdict, the member's own death at its crash
    /// time, the watchdog), or, for `None`, by the dead-peer rule. That
    /// rule is read again here, under the slot's lock and once every
    /// arrival has run: the slot may have moved `m` on to a live sender's
    /// transfer since the wait looked, and then `m` waits on. A finished
    /// member keeps its outcome.
    pub(crate) fn abandon(&self, shared: &SharedState, m: usize, verdict: Option<MpiError>) {
        let ex = self.exec.lock();
        self.advance(ex, shared, m, Some(verdict));
    }

    /// Runs the executor on behalf of member `me`'s thread: takes in the
    /// pending arrivals, runs every member that can move, then judges
    /// `me`'s abandoned wait if asked to; unlocks and rings who must hear
    /// of it. An arrival that found the lock held while this ran is still
    /// pending after the unlock, and is run here too unless another thread
    /// has taken the lock meanwhile (and with it the same duty).
    fn advance<'s>(
        &'s self,
        mut ex: MutexGuard<'s, Exec>,
        shared: &SharedState,
        me: usize,
        mut abandon: Option<Option<MpiError>>,
    ) {
        let mut wake = Vec::new();
        loop {
            let arrivals = std::mem::take(&mut *self.pending.lock());
            for (m, member) in arrivals {
                ex.members[m] = Some(member);
                ex.work.push(m);
            }
            ex.drain(self, shared, &mut wake);
            if let Some(verdict) = abandon.take() {
                if let Some(e) = ex.judge(self, shared, me, verdict) {
                    ex.fail(self, shared, me, e, &mut wake);
                    ex.drain(self, shared, &mut wake);
                }
            }
            drop(ex);
            for r in wake.drain(..).filter(|&r| r != me) {
                shared.mailboxes[self.group.world_rank_of(r)].wake_all();
            }
            if self.pending.lock().is_empty() {
                return;
            }
            match self.exec.try_lock() {
                Some(again) => ex = again,
                None => return,
            }
        }
    }

    /// Member `m` takes back its clock and sending state with its outcome;
    /// the last member to leave closes the slot.
    pub(crate) fn take(&self, shared: &SharedState, m: usize) -> Exit {
        let exit = self.exits[m].lock().take().expect("taken once finished");
        let taken = self.taken.fetch_add(1, Ordering::SeqCst) + 1;
        if taken == self.arrived.load(Ordering::SeqCst) {
            // Nobody still inside; close unless a live member may yet come.
            let came = |r: usize| self.inputs[r].get().is_some();
            let dead =
                |r: usize| shared.liveness.of(self.group.world_rank_of(r)) != RankState::Alive;
            if (0..self.inputs.len()).all(|r| came(r) || dead(r)) {
                shared.slots.open.lock().remove(&self.key);
            }
        }
        exit
    }

    /// Member `r`'s deposit.
    pub(crate) fn input(&self, r: usize) -> Option<Data> {
        self.inputs[r].get()?.data.clone()
    }

    /// The wire size of part `part` of member `r`'s deposit; 0 for a part
    /// it did not deposit (members that disagree about the call).
    pub(crate) fn bytes(&self, r: usize, part: usize) -> usize {
        let bytes = self.inputs[r].get().and_then(|d| d.bytes.get(part));
        bytes.copied().unwrap_or(0)
    }

    /// The result `key` names, built from every deposit by `build` once per
    /// slot; a member that asks for another key (a program that mixes
    /// operations across ranks) builds its own.
    pub(crate) fn built(
        &self,
        key: BuiltKey,
        build: impl Fn(&[Option<Data>]) -> MpiResult<Data>,
    ) -> MpiResult<Data> {
        let inputs = || {
            (0..self.inputs.len())
                .map(|r| self.input(r))
                .collect::<Vec<_>>()
        };
        let (k, shared) = self.built.get_or_init(|| (key, build(&inputs())));
        if *k == key {
            shared.clone()
        } else {
            build(&inputs())
        }
    }
}

impl Exec {
    /// Runs every member a new record or arrival may have unblocked.
    fn drain(&mut self, slot: &Slot, shared: &SharedState, wake: &mut Vec<usize>) {
        while let Some(r) = self.work.pop() {
            self.run(slot, shared, r, wake);
        }
    }

    /// What ends member `m`'s abandoned wait: `verdict`, or else the
    /// dead-peer rule; nothing once `m` has finished. A wait that resolved
    /// as the member's own death clamps its clock to the crash time.
    fn judge(
        &mut self,
        slot: &Slot,
        shared: &SharedState,
        m: usize,
        verdict: Option<MpiError>,
    ) -> Option<MpiError> {
        let member = self.members[m].as_mut()?;
        let e = verdict.or_else(|| slot.dead_peer(m, &shared.liveness))?;
        let world = slot.group.world_rank_of(m);
        if e == (MpiError::NodeFailed { world_rank: world }) {
            if let Some(tc) = shared.doom[world] {
                member.clock = member.clock.max(tc);
            }
        }
        Some(e)
    }

    /// Runs member `m`'s program until it blocks on a transfer not yet
    /// issued, or finishes.
    fn run(&mut self, slot: &Slot, shared: &SharedState, m: usize, wake: &mut Vec<usize>) {
        let Some(member) = self.members[m].as_mut() else {
            return;
        };
        member.blocked_on = None;
        let plan = Arc::clone(&member.plan);
        let world = slot.group.world_rank_of(m);
        loop {
            let member = self.members[m].as_mut().expect("running");
            let Some((x, nth)) = plan.step(m, member.pc) else {
                self.finish(slot, m, Ok(()), wake);
                return;
            };
            let mut ep = Endpoint {
                shared,
                world,
                clock: &mut member.clock,
                net: &mut member.net,
            };
            // A legacy transfer is sized by the deposit it carries, which
            // the plan's order has in place by the time it is sent; its
            // receiver takes whatever size comes.
            let scheduled = x.elems() * member.elem_bytes;
            let carried = plan.carried(x);
            let step = if x.src == m {
                let dst = slot.group.world_rank_of(x.dst);
                let bytes = carried.map_or(scheduled, |(r, part)| slot.bytes(r, part));
                ep.send(dst, bytes, protocol(bytes), true).map(|wire| {
                    let rec = Record {
                        bytes,
                        wire,
                        poison: None,
                    };
                    Some((x.dst, rec))
                })
            } else {
                let src = slot.group.world_rank_of(x.src);
                let key = (x.src as u32, m as u32, nth);
                let look = ep
                    .check_alive()
                    .and_then(|()| slot.doomed_by(world, *ep.clock));
                match look.map(|()| self.records.remove(&key)) {
                    Ok(None) => {
                        member.blocked_on = Some((x.src, nth));
                        slot.awaiting[m].store(src, Ordering::SeqCst);
                        // A death published before the store rang nobody
                        // about this wait: ring the member's thread, which
                        // reads the dead-peer rule itself.
                        if slot.dead_peer(m, &shared.liveness).is_some() {
                            wake.push(m);
                        }
                        return;
                    }
                    Ok(Some(rec)) => {
                        let expect = carried.map_or(scheduled, |_| rec.bytes);
                        receive(&mut ep, src, &rec, expect).map(|()| None)
                    }
                    Err(e) => Err(e),
                }
            };
            match step {
                Ok(sent) => {
                    self.members[m].as_mut().expect("running").pc += 1;
                    if let Some((dst, rec)) = sent {
                        self.issue(m, dst, nth, rec);
                    }
                }
                Err(e) => {
                    self.fail(slot, shared, m, e, wake);
                    return;
                }
            }
        }
    }

    /// Files transfer `nth` from `src` to `dst`, waking `dst`'s program if
    /// it waits for exactly that.
    fn issue(&mut self, src: usize, dst: usize, nth: u32, rec: Record) {
        self.records.insert((src as u32, dst as u32, nth), rec);
        let waits = |d: &Member| d.blocked_on == Some((src, nth));
        if self.members[dst].as_ref().is_some_and(waits) {
            self.work.push(dst);
        }
    }

    /// Member `m`'s program fails with `e` at its current step. Under
    /// [`Rule::Engine`], on a fail-stop error every transfer it has not
    /// sent becomes poison naming the blamed world rank (a send that fails
    /// — to a dead destination, from a dead member — is dropped), so
    /// downstream members fail with the same root cause. Under
    /// [`Rule::Legacy`] the failure sends nothing: the members left waiting
    /// hear of it from the failure detector.
    fn fail(
        &mut self,
        slot: &Slot,
        shared: &SharedState,
        m: usize,
        e: MpiError,
        wake: &mut Vec<usize>,
    ) {
        let e = match (slot.rule, e) {
            // A receive's dead sender is a failed node to the engine's
            // fault contract, whether it crashed or returned.
            (Rule::Engine, MpiError::PeerTerminated { world_rank }) => {
                MpiError::NodeFailed { world_rank }
            }
            (_, e) => e,
        };
        if let Some(blame) = fault_blame(&e).filter(|_| slot.rule == Rule::Engine) {
            let member = self.members[m].as_mut().expect("failing member arrived");
            let plan = Arc::clone(&member.plan);
            let mut ep = Endpoint {
                shared,
                world: slot.group.world_rank_of(m),
                clock: &mut member.clock,
                net: &mut member.net,
            };
            let mut poison = Vec::new();
            for (x, nth) in (member.pc..).map_while(|pc| plan.step(m, pc)) {
                if x.src != m {
                    continue;
                }
                let dst = slot.group.world_rank_of(x.dst);
                if let Ok(wire) = ep.send(dst, POISON_BYTES, protocol(POISON_BYTES), true) {
                    let rec = Record {
                        bytes: POISON_BYTES,
                        wire,
                        poison: Some(blame),
                    };
                    poison.push((x.dst, nth, rec));
                }
            }
            for (dst, nth, rec) in poison {
                self.issue(m, dst, nth, rec);
            }
        }
        self.finish(slot, m, Err(e), wake);
    }

    /// Member `m`'s outcome is final: leave its exit, publish it, and ring
    /// it.
    fn finish(&mut self, slot: &Slot, m: usize, outcome: MpiResult<()>, wake: &mut Vec<usize>) {
        let member = self.members[m].take().expect("finishing member arrived");
        *slot.exits[m].lock() = Some((outcome, member.clock, member.net));
        slot.awaiting[m].store(NONE, Ordering::SeqCst);
        slot.finished[m].store(true, Ordering::SeqCst);
        wake.push(m);
    }
}

/// The receiver's step on an issued transfer, as a deadline-bounded
/// receive takes a message: a doomed member's crash time bounds every
/// wait, so a transfer arriving after it kills the member instead;
/// otherwise the transport's receive half runs, and then a poison transfer
/// fails the step with its blame, and a size other than the schedule's
/// with [`MpiError::InvalidCounts`] — the hallmark of ranks calling the
/// collective with different lengths.
fn receive(ep: &mut Endpoint<'_>, src: usize, rec: &Record, expect: usize) -> MpiResult<()> {
    if let Some(tc) = ep.shared.doom[ep.world].filter(|&tc| rec.wire.arrival > tc) {
        return Err(ep.die(tc));
    }
    ep.recv(src, &rec.wire, rec.bytes, protocol(rec.bytes), true)?;
    if let Some(world_rank) = rec.poison {
        return Err(MpiError::NodeFailed { world_rank });
    }
    if rec.bytes != expect {
        return Err(MpiError::InvalidCounts(format!(
            "scheduled transfer carried {} bytes, expected {expect} \
             (mismatched lengths across ranks?)",
            rec.bytes
        )));
    }
    Ok(())
}

#[cfg(test)]
impl Slot {
    /// Points member `m`'s wait at sender `w`, as the executor does.
    pub(crate) fn set_awaiting(&self, m: usize, w: Option<usize>) {
        self.awaiting[m].store(w.unwrap_or(NONE), Ordering::SeqCst);
    }

    /// Marks member `m`'s outcome final, as the executor does.
    pub(crate) fn set_finished(&self, m: usize) {
        self.set_awaiting(m, None);
        self.finished[m].store(true, Ordering::SeqCst);
    }
}
