//! Collective slots: each engine collective call runs as one rendezvous.
//!
//! The `n`-th engine call a member issues on a communicator lands in slot
//! `(collective-plane context, n)` of the run's [`SlotTable`], as the
//! agreement rounds do (`crate::agree`). Every member deposits its plan, its
//! input, and lends the slot its clock and its `RankNet`; whichever member's
//! thread holds the slot advances *every* arrived member's program as far
//! as the transfers already issued allow, and a member's thread sleeps at
//! most once: until its own program has finished or failed.
//!
//! The steps are the transport's own halves ([`Endpoint::send`] and
//! [`Endpoint::recv`]), run for each member in its own program order on
//! its own lent state, so virtual times, traces and the error surface are
//! what per-rank message passing gives: a transfer is a record in the slot
//! instead of a mailbox post, taken by the `nth` receive of its
//! sender–receiver pair (per-pair FIFO). No payload travels: a transfer
//! record carries its size, its wire stamps and, in place of a transfer a
//! failing member will never send, the world rank it blames (*poison*). A
//! member that finishes copies its result out of the deposits.
//!
//! Quiescence sees a blocked member as a receive from the one sender its
//! program awaits (`WaitKind::Collective`): [`Slot::awaiting`] and
//! [`Slot::finished`] are atomics, read without the slot's lock.

use crate::comm::Endpoint;
use crate::error::{MpiError, MpiResult};
use crate::group::Group;
use crate::p2p::{Wire, EAGER_LIMIT};
use crate::plan::Plan;
use crate::runtime::{RankState, SharedState};
use crate::vtime::{NetFrontier, RankNet};
use hetsim::SimTime;
use parking_lot::Mutex;
use std::any::Any;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

/// Key of one call's slot: `(collective-plane context id, call ordinal)`.
pub(crate) type SlotKey = (u64, u64);

/// A deposited input or a result built from the deposits: a `Vec<T>` of
/// the call's element type.
pub(crate) type Data = Arc<dyn Any + Send + Sync>;

/// [`Slot::awaiting`]'s "no sender".
const NONE: usize = usize::MAX;

/// Wire size of a poison transfer: the blamed world rank, as one `i64`.
const POISON_BYTES: usize = 8;

/// The protocol label a `bytes`-byte payload rides under.
fn protocol(bytes: usize) -> &'static str {
    if bytes <= EAGER_LIMIT {
        "eager"
    } else {
        "rendezvous"
    }
}

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

/// The run's open collective slots.
#[derive(Debug, Default)]
pub(crate) struct SlotTable {
    open: Mutex<HashMap<SlotKey, Arc<Slot>>>,
}

impl SlotTable {
    /// The slot of call `key` on the communicator over `group`, opened by
    /// its first member to arrive.
    pub(crate) fn open(&self, key: SlotKey, group: &Arc<Group>) -> Arc<Slot> {
        let mut open = self.open.lock();
        let slot = open
            .entry(key)
            .or_insert_with(|| Arc::new(Slot::new(key, group)));
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
    /// What the result is built from: a bcast root's buffer, a
    /// contribution; `None` where the member contributes nothing.
    pub(crate) input: Option<Data>,
}

/// What a result built from the deposits is: the fold of one operation, or
/// the concatenation (`None`), over inputs of one length.
pub(crate) type BuiltKey = (Option<crate::op::ReduceOp>, usize);

/// A result built once per slot, with the key it was built for.
type Built = (BuiltKey, MpiResult<Data>);

/// One engine call's rendezvous.
pub(crate) struct Slot {
    key: SlotKey,
    group: Arc<Group>,
    /// Per member: the world rank whose transfer its program waits for,
    /// or [`NONE`].
    awaiting: Vec<AtomicUsize>,
    /// Per member: its outcome is final.
    finished: Vec<AtomicBool>,
    exec: Mutex<Exec>,
    built: OnceLock<Built>,
}

impl std::fmt::Debug for Slot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Slot{:?}", self.key)
    }
}

/// The executor's state, under the slot's lock.
struct Exec {
    /// By communicator rank; `None` until the member arrives.
    members: Vec<Option<Member>>,
    inputs: Vec<Option<Data>>,
    /// Issued transfers not yet taken, by `(sender, receiver, nth)`.
    records: HashMap<(u32, u32, u32), Record>,
    arrived: usize,
    taken: usize,
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
    outcome: Option<MpiResult<()>>,
}

/// One issued transfer.
struct Record {
    bytes: usize,
    wire: Wire,
    /// The world rank a poison transfer blames.
    poison: Option<usize>,
}

impl Slot {
    fn new(key: SlotKey, group: &Arc<Group>) -> Slot {
        let p = group.size();
        Slot {
            key,
            group: Arc::clone(group),
            awaiting: (0..p).map(|_| AtomicUsize::new(NONE)).collect(),
            finished: (0..p).map(|_| AtomicBool::new(false)).collect(),
            exec: Mutex::new(Exec {
                members: (0..p).map(|_| None).collect(),
                inputs: vec![None; p],
                records: HashMap::new(),
                arrived: 0,
                taken: 0,
                work: Vec::new(),
            }),
            built: OnceLock::new(),
        }
    }

    /// True once member `m`'s outcome is final.
    pub(crate) fn finished(&self, m: usize) -> bool {
        self.finished[m].load(Ordering::SeqCst)
    }

    /// The world rank whose transfer member `m`'s program waits for.
    pub(crate) fn awaiting(&self, m: usize) -> Option<usize> {
        Some(self.awaiting[m].load(Ordering::SeqCst)).filter(|&w| w != NONE)
    }

    /// Deposits member `m` and advances every member as far as the issued
    /// transfers allow, ringing the members that finished or now await a
    /// dead sender.
    pub(crate) fn arrive(&self, shared: &SharedState, m: usize, a: Arrival) {
        let mut ex = self.exec.lock();
        ex.members[m] = Some(Member {
            plan: a.plan,
            elem_bytes: a.elem_bytes,
            pc: 0,
            clock: a.clock,
            net: a.net,
            blocked_on: None,
            outcome: None,
        });
        ex.inputs[m] = a.input;
        ex.arrived += 1;
        self.advance(ex, shared, m, None);
    }

    /// Ends member `m`'s wait, which ended without its outcome: with
    /// `verdict` (a quiescence verdict, the member's own death at its crash
    /// time, the watchdog), or, for `None`, by the dead-sender rule. That
    /// rule is read again here, under the slot's lock: the slot may have
    /// moved `m` on to a live sender's transfer since the wait looked, and
    /// then `m` waits on. A finished member keeps its outcome.
    pub(crate) fn abandon(&self, shared: &SharedState, m: usize, verdict: Option<MpiError>) {
        let mut ex = self.exec.lock();
        let member = ex.members[m].as_mut().expect("a waiting member arrived");
        if member.outcome.is_some() {
            return;
        }
        let world = self.group.world_rank_of(m);
        let e = match verdict {
            Some(e) => e,
            None => match self.awaiting(m) {
                Some(s) if shared.liveness.of(s) != RankState::Alive => {
                    MpiError::NodeFailed { world_rank: s }
                }
                _ => return,
            },
        };
        if e == (MpiError::NodeFailed { world_rank: world }) {
            // The wait resolved as the member's own death, which clamps its
            // clock to the crash time.
            if let Some(tc) = shared.doom[world] {
                member.clock = member.clock.max(tc);
            }
        }
        self.advance(ex, shared, m, Some(e));
    }

    /// Runs the executor from member `m`, first failing it with `e` if
    /// given, then rings who must hear of it.
    fn advance(
        &self,
        mut ex: parking_lot::MutexGuard<'_, Exec>,
        shared: &SharedState,
        m: usize,
        e: Option<MpiError>,
    ) {
        let mut wake = Vec::new();
        if let Some(e) = e {
            ex.fail(self, shared, m, e, &mut wake);
        }
        ex.work.push(m);
        while let Some(r) = ex.work.pop() {
            ex.run(self, shared, r, &mut wake);
        }
        drop(ex);
        for r in wake.into_iter().filter(|&r| r != m) {
            shared.mailboxes[self.group.world_rank_of(r)].wake_all();
        }
    }

    /// Member `m` takes back its clock and sending state with its outcome;
    /// the last member to leave closes the slot.
    pub(crate) fn take(&self, shared: &SharedState, m: usize) -> (MpiResult<()>, SimTime, RankNet) {
        let mut ex = self.exec.lock();
        let member = ex.members[m].as_mut().expect("a member takes what it lent");
        let outcome = member.outcome.take().expect("taken once finished");
        let fresh = RankNet::new(NetFrontier::new(shared.cluster.contention()));
        let net = std::mem::replace(&mut member.net, fresh);
        let clock = member.clock;
        ex.taken += 1;
        if ex.taken == ex.arrived {
            // Nobody still inside; close unless a live member may yet come.
            let dead =
                |r: usize| shared.liveness.of(self.group.world_rank_of(r)) != RankState::Alive;
            let all_done = (0..ex.members.len()).all(|r| ex.members[r].is_some() || dead(r));
            if all_done {
                shared.slots.open.lock().remove(&self.key);
            }
        }
        (outcome, clock, net)
    }

    /// Member `r`'s deposit.
    pub(crate) fn input(&self, r: usize) -> Option<Data> {
        self.exec.lock().inputs[r].clone()
    }

    /// The result `key` names, built from every deposit by `build` once per
    /// slot; a member that asks for another key (a program that mixes
    /// operations across ranks) builds its own.
    pub(crate) fn built(
        &self,
        key: BuiltKey,
        build: impl Fn(&[Option<Data>]) -> MpiResult<Data>,
    ) -> MpiResult<Data> {
        let inputs = || self.exec.lock().inputs.clone();
        let (k, shared) = self.built.get_or_init(|| (key, build(&inputs())));
        if *k == key {
            shared.clone()
        } else {
            build(&inputs())
        }
    }
}

impl Exec {
    /// Runs member `m`'s program until it blocks on a transfer not yet
    /// issued, or finishes.
    fn run(&mut self, slot: &Slot, shared: &SharedState, m: usize, wake: &mut Vec<usize>) {
        let Some(member) = self.members[m].as_mut() else {
            return;
        };
        if member.outcome.is_some() {
            return;
        }
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
            let expect = x.elems() * member.elem_bytes;
            let step = if x.src == m {
                let dst = slot.group.world_rank_of(x.dst);
                ep.send(dst, expect, protocol(expect), true).map(|wire| {
                    let rec = Record {
                        bytes: expect,
                        wire,
                        poison: None,
                    };
                    Some((x.dst, rec))
                })
            } else {
                let src = slot.group.world_rank_of(x.src);
                let key = (x.src as u32, m as u32, nth);
                match ep.check_alive().map(|()| self.records.remove(&key)) {
                    Ok(None) => {
                        member.blocked_on = Some((x.src, nth));
                        slot.awaiting[m].store(src, Ordering::SeqCst);
                        // A death published before the store rang nobody
                        // about this wait: ring the member's thread, which
                        // reads the dead-sender rule itself.
                        if shared.liveness.of(src) != RankState::Alive {
                            wake.push(m);
                        }
                        return;
                    }
                    Ok(Some(rec)) => receive(&mut ep, src, &rec, expect).map(|()| None),
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

    /// Member `m`'s program fails with `e` at its current step. On a
    /// fail-stop error every transfer it has not sent becomes poison
    /// naming the blamed world rank (a send that fails — to a dead
    /// destination, from a dead member — is dropped), so downstream
    /// members fail with the same root cause.
    fn fail(
        &mut self,
        slot: &Slot,
        shared: &SharedState,
        m: usize,
        e: MpiError,
        wake: &mut Vec<usize>,
    ) {
        // A receive's dead sender is a failed node to the fault contract,
        // whether it crashed or returned.
        let e = match e {
            MpiError::PeerTerminated { world_rank } => MpiError::NodeFailed { world_rank },
            e => e,
        };
        if let Some(blame) = fault_blame(&e) {
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

    /// Member `m`'s outcome is final: publish it, and ring it.
    fn finish(&mut self, slot: &Slot, m: usize, outcome: MpiResult<()>, wake: &mut Vec<usize>) {
        let member = self.members[m].as_mut().expect("finishing member arrived");
        member.outcome = Some(outcome);
        member.blocked_on = None;
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
