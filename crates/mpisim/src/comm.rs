//! Communicators.
//!
//! A [`Comm`] binds a [`Group`] to a pair of context ids and carries the
//! calling rank's virtual clock. Point-to-point messages travel on the
//! first id, through the ranks' mailboxes; collectives post nothing there,
//! but rendezvous in slots keyed by the context and their ordinal.
//! Constructors mirror MPI: [`Comm::dup`], [`Comm::split`],
//! [`Comm::create`].

use crate::agree::Agreement;
use crate::datatype::{decode, decode_into, encode_payload, MpiType};
use crate::error::{MpiError, MpiResult, WaitGraph};
use crate::group::Group;
use crate::p2p::{Claim, Envelope, Msg, Pattern, Status, Wire};
use crate::plan::{NodeVec, Plan};
use crate::quiesce::{WaitKind, WaitRecord};
use crate::runtime::{RankState, SharedState};
use crate::slot::{Arrival, Deposit, Rule, Slot};
use crate::vtime::{LocalClock, NetFrontier, RankNet};
use hetsim::{NodeId, SimTime, TraceEvent, TraceKind};
use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Sleep slice of the guarded wait ([`Comm::wait`]). Everything a wait can
/// be looking at rings the counted doorbell after it is published, and the
/// wait reads the doorbell before it looks, so no sleep should ever run this
/// out while resolvable; `RunReport::wakeups.missed` counts the times one did.
const WAKE_BACKSTOP: Duration = Duration::from_millis(250);

/// Wall-clock patience of the guarded wait. The quiescence detector
/// classifies every stuck state in milliseconds; this only catches programs
/// that defeat it (a rank busy-polling outside the runtime forever).
const WATCHDOG: Duration = Duration::from_secs(60);

/// A communicator: an isolated communication context over a group of ranks.
///
/// `Comm` is rank-local (not `Send`): each rank holds its own handle, all
/// handles of one rank share that rank's clock.
#[derive(Debug, Clone)]
pub struct Comm {
    pub(crate) shared: Arc<SharedState>,
    group: Arc<Group>,
    /// Base context id: `ctx` carries point-to-point messages and keys the
    /// legacy collectives' slots; `ctx + 1`, the collective plane, keys the
    /// engine's slots and the agreement rounds.
    ctx: u64,
    /// Calling process's rank within this communicator.
    rank: usize,
    /// `nodes[r]` = the cluster node hosting communicator rank `r`: the
    /// plan key's node vector, built once per communicator.
    pub(crate) nodes: NodeVec,
    pub(crate) clock: LocalClock,
    /// This rank's deterministic view of the shared network resources
    /// ([`NetFrontier`]) and its send sequence: sender-side grants and
    /// receiver-side settlements both run against it, in the rank's own
    /// program order. Like the clock, shared by every communicator handle
    /// of one rank ([`crate::Process`] owns it).
    pub(crate) frontier: Rc<RefCell<RankNet>>,
    /// The members doomed under the fault plan, built once per
    /// communicator.
    doomed: Doomed,
    /// Rank-local counts of the calls that pair up across members by
    /// ordinal. Shared between clones of one handle (cloning a
    /// communicator does not fork its numbering), and between a rank's
    /// world handles.
    ordinals: Rc<Ordinals>,
}

/// Every member counts its own calls of each kind, so the `n`-th call on
/// each member lands in the same shared slot.
#[derive(Debug, Default)]
pub(crate) struct Ordinals {
    /// [`Comm::agree`] rounds: the key of the shared agreement slot.
    agree: Cell<u64>,
    /// [`Comm::dup`] / [`Comm::create`] calls: the key of the context
    /// registry entry.
    ctor: Cell<u64>,
    /// Engine collective calls: the key of the call's collective slot.
    coll: Cell<u64>,
    /// Legacy collective calls (barrier, bcast, gather, scatter): the key
    /// of the call's slot. One count for all four, as MPI has every member
    /// issue a communicator's collectives in the same order.
    legacy: Cell<u64>,
}

/// Returns the count and bumps it.
fn take(count: &Cell<u64>) -> u64 {
    count.replace(count.get() + 1)
}

/// A communicator's members doomed under the fault plan, in group order,
/// with their nodes' crash times: empty in a fault-free run.
#[derive(Clone, Debug)]
pub(crate) struct Doomed(Arc<[(usize, SimTime)]>);

impl Doomed {
    /// The members of `group` that `doom` (by world rank) dooms.
    pub(crate) fn of(group: &Group, doom: &[Option<SimTime>]) -> Doomed {
        let members = group.world_ranks().iter();
        Doomed(members.filter_map(|&w| Some((w, doom[w]?))).collect())
    }

    /// The legacy collectives' receive rule: a member whose node has
    /// crashed by the receiver's clock `now` is dead in its virtual
    /// present, so the collective can not complete — whatever is queued
    /// already. Judged from the fault plan, like a send to a crashed
    /// destination, so the outcome never follows host order: the first
    /// such member other than world rank `me` fails the receive.
    pub(crate) fn check(&self, me: usize, now: SimTime) -> MpiResult<()> {
        match self.0.iter().find(|&&(w, tc)| w != me && tc <= now) {
            Some(&(world_rank, _)) => Err(MpiError::NodeFailed { world_rank }),
            None => Ok(()),
        }
    }
}

/// One rank's transport state, wherever it is held at the moment: its clock
/// value and its [`RankNet`]. A [`Comm`] lends its rank's own for one call;
/// a collective slot holds each member's for the length of the collective.
/// Both sides of every transfer run here, so a send or receive does the
/// same thing whoever's thread runs it.
pub(crate) struct Endpoint<'a> {
    pub(crate) shared: &'a SharedState,
    /// The rank's world rank.
    pub(crate) world: usize,
    pub(crate) clock: &'a mut SimTime,
    pub(crate) net: &'a mut RankNet,
}

impl Endpoint<'_> {
    /// A doomed rank does not live to see virtual time `at` if its node
    /// crashes at or before it: the rank dies first — clock clamped to the
    /// crash time, failure published, [`MpiError::NodeFailed`] (own world
    /// rank).
    pub(crate) fn outlive(&mut self, at: SimTime) -> MpiResult<()> {
        match self.shared.doom[self.world] {
            Some(tc) if at >= tc => Err(self.die(tc)),
            _ => Ok(()),
        }
    }

    /// Errors with [`MpiError::NodeFailed`] (own world rank) if the rank's
    /// node has fail-stopped by its current virtual time.
    pub(crate) fn check_alive(&mut self) -> MpiResult<()> {
        self.outlive(*self.clock)
    }

    /// The rank's death at its node's crash time `tc`.
    pub(crate) fn die(&mut self, tc: SimTime) -> MpiError {
        *self.clock = (*self.clock).max(tc);
        self.shared.mark_failed(self.world);
        MpiError::NodeFailed {
            world_rank: self.world,
        }
    }

    /// The sender's half of a `bytes`-byte transfer to world rank `dst`:
    /// the liveness checks, the link's cost at the sender's clock, the
    /// grant against the sender's frontier, the injection overhead and the
    /// `send` span. `collective` marks the span as a collective's transfer.
    ///
    /// # Errors
    /// [`MpiError::NodeFailed`] if the sender's own node has crashed (own
    /// world rank) or the destination's node has crashed by the sender's
    /// clock (destination world rank); [`MpiError::LinkDown`] if the fault
    /// plan has dropped the link.
    pub(crate) fn send(
        &mut self,
        dst: usize,
        bytes: usize,
        protocol: &'static str,
        collective: bool,
    ) -> MpiResult<Wire> {
        self.check_alive()?;
        let shared = self.shared;
        let (src_node, dst_node) = (shared.placement[self.world], shared.placement[dst]);
        let now = *self.clock;
        if shared.doom[dst].is_some_and(|tc| now >= tc) {
            return Err(MpiError::NodeFailed { world_rank: dst });
        }
        let (overhead, cost) = if self.world == dst {
            // Self-sends stay on the free loopback even when a memory bus
            // is modelled; only distinct co-located ranks fight for it.
            (SimTime::ZERO, SimTime::ZERO)
        } else {
            let link = shared.cluster.rank_link(src_node, dst_node);
            let cost = shared
                .cluster
                .rank_transfer_time_at(src_node, dst_node, bytes, now)
                .ok_or(MpiError::LinkDown {
                    from: src_node.index(),
                    to: dst_node.index(),
                })?;
            (SimTime::from_secs(link.latency), cost)
        };
        // Sender-side arbitration against this rank's own frontier; the
        // receiver settles the stamped window when it takes the transfer
        // (see `crate::vtime` — the two steps make contention
        // deterministic).
        let (arrival, xfer) = self.net.net.grant(src_node, dst_node, now, cost);
        let seq = self.net.take_seq();
        *self.clock = now + overhead;
        if let Some(tracer) = &shared.tracer {
            let mut ev = TraceEvent::new(self.world, TraceKind::Send, "send", now);
            ev.dur = overhead;
            ev.bytes = bytes as u64;
            ev.protocol = Some(protocol);
            ev.peer = Some(dst);
            ev.collective = collective;
            tracer.record(ev);
        }
        Ok(Wire {
            sent_at: now,
            arrival,
            seq,
            xfer,
        })
    }

    /// The receiver's half of a `bytes`-byte transfer from world rank
    /// `src`: settles the wire's contended reservation against this rank's
    /// frontier (uncontended transfers pass their stamped arrival through),
    /// lets the rank die first if its node crashes before the transfer is
    /// in, merges the clock and records the `recv` span.
    pub(crate) fn recv(
        &mut self,
        src: usize,
        wire: &Wire,
        bytes: usize,
        protocol: &'static str,
        collective: bool,
    ) -> MpiResult<()> {
        let arrival = match wire.xfer {
            Some(x) => self.net.net.settle(x),
            None => wire.arrival,
        };
        self.outlive(arrival)?;
        let before = *self.clock;
        *self.clock = before.max(arrival);
        if let Some(tracer) = &self.shared.tracer {
            let dur = arrival.max(before) - before;
            let mut ev = TraceEvent::new(self.world, TraceKind::Recv, "recv", before);
            ev.dur = dur;
            // The idle part of the span: time spent blocked before the
            // sender had even reached its send.
            ev.wait = (wire.sent_at.max(before) - before).min(dur);
            ev.bytes = bytes as u64;
            ev.protocol = Some(protocol);
            ev.peer = Some(src);
            ev.collective = collective;
            tracer.record(ev);
        }
        Ok(())
    }
}

impl Comm {
    pub(crate) fn world(
        world_rank: usize,
        shared: Arc<SharedState>,
        clock: LocalClock,
        frontier: Rc<RefCell<RankNet>>,
        ordinals: Rc<Ordinals>,
    ) -> Comm {
        Comm {
            group: shared.world.clone(),
            nodes: shared.placement.clone(),
            doomed: shared.world_doomed.clone(),
            shared,
            ctx: 0,
            rank: world_rank,
            clock,
            frontier,
            ordinals,
        }
    }

    /// This rank's handle on the same members under context `ctx`, with
    /// ordinals of its own.
    fn with_ctx(&self, ctx: u64) -> Comm {
        Comm {
            ctx,
            ordinals: Rc::default(),
            ..self.clone()
        }
    }

    /// This rank's handle, as rank `rank`, over `group` under context `ctx`.
    fn over(&self, group: Group, ctx: u64, rank: usize) -> Comm {
        let placement = &self.shared.placement;
        let nodes = NodeVec::new(group.world_ranks().iter().map(|&w| placement[w]).collect());
        Comm {
            doomed: Doomed::of(&group, &self.shared.doom),
            group: Arc::new(group),
            nodes,
            rank,
            ..self.with_ctx(ctx)
        }
    }

    /// This process's rank in the communicator (`MPI_Comm_rank`).
    #[inline]
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of ranks in the communicator (`MPI_Comm_size`).
    #[inline]
    pub fn size(&self) -> usize {
        self.group.size()
    }

    /// The communicator's group (`MPI_Comm_group`).
    #[inline]
    pub fn group(&self) -> &Group {
        &self.group
    }

    /// The world rank behind a communicator rank.
    ///
    /// # Panics
    /// Panics if `rank` is out of range.
    #[inline]
    pub fn world_rank_of(&self, rank: usize) -> usize {
        self.group.world_rank_of(rank)
    }

    /// The calling process's world rank.
    #[inline]
    pub fn my_world_rank(&self) -> usize {
        self.group.world_rank_of(self.rank)
    }

    /// The cluster node hosting a communicator rank.
    #[inline]
    pub fn node_of(&self, rank: usize) -> NodeId {
        self.nodes[rank]
    }

    /// This rank's virtual clock.
    #[inline]
    pub fn clock(&self) -> &LocalClock {
        &self.clock
    }

    /// Performs `units` benchmark units of computation on the calling rank's
    /// processor, advancing its clock.
    ///
    /// # Panics
    /// Panics if this rank's node has fail-stopped. Fault-aware programs use
    /// [`Comm::try_compute`].
    pub fn compute(&self, units: f64) {
        // Without fail-stop the step cannot fail.
        let _ = self
            .shared
            .compute(self.my_world_rank(), &self.clock, units, false);
    }

    /// Failure-aware computation: if this rank's node fail-stops before the
    /// work completes, the clock is clamped to the crash time, the failure is
    /// published, and [`MpiError::NodeFailed`] (with the caller's own world
    /// rank) is returned.
    pub fn try_compute(&self, units: f64) -> MpiResult<()> {
        self.shared
            .compute(self.my_world_rank(), &self.clock, units, true)
    }

    /// Errors with [`MpiError::NodeFailed`] (own world rank) if the calling
    /// rank's node has fail-stopped by its current virtual time, publishing
    /// the failure as a side effect.
    fn check_self_alive(&self) -> MpiResult<()> {
        self.endpoint(|e| e.check_alive())
    }

    /// [`Endpoint::outlive`] on this rank's clock.
    fn outlive(&self, at: SimTime) -> MpiResult<()> {
        self.endpoint(|e| e.outlive(at))
    }

    /// Runs `f` on this rank's transport state, lent for the call.
    fn endpoint<R>(&self, f: impl FnOnce(&mut Endpoint<'_>) -> R) -> R {
        let mut now = self.clock.now();
        let out = f(&mut Endpoint {
            shared: &self.shared,
            world: self.my_world_rank(),
            clock: &mut now,
            net: &mut self.frontier.borrow_mut(),
        });
        self.clock.set(now);
        out
    }

    fn check_rank(&self, rank: usize) -> MpiResult<()> {
        if rank >= self.size() {
            return Err(MpiError::InvalidRank {
                rank: rank as isize,
                comm_size: self.size(),
            });
        }
        Ok(())
    }

    // ----- point-to-point ---------------------------------------------------

    /// The delivery epilogue of every receive: [`Endpoint::recv`] on the
    /// matched envelope, on the receiving rank's own thread at the moment
    /// the envelope is consumed.
    fn deliver(&self, env: Envelope) -> MpiResult<(Msg, Status)> {
        let (len, protocol) = (env.len(), env.payload.protocol());
        self.endpoint(|e| e.recv(env.src_world, &env.wire, len, protocol, false))?;
        let status = self.status(env.src_world, env.tag, env.len());
        Ok((env.into_msg(), status))
    }

    /// Resolution of a provably-missed receive deadline: a doomed rank dies
    /// (the crash time was the binding deadline); otherwise the clock
    /// advances to the deadline and [`MpiError::Timeout`] is returned.
    fn resolve_timeout(
        &self,
        death_binding: bool,
        own_tc: Option<SimTime>,
        deadline: Option<SimTime>,
    ) -> MpiError {
        let my_world = self.my_world_rank();
        if death_binding {
            // Nothing can reach this rank before its node dies.
            let tc = own_tc.expect("death_binding implies a crash time");
            self.clock.merge(tc);
            self.shared.mark_failed(my_world);
            MpiError::NodeFailed {
                world_rank: my_world,
            }
        } else {
            if let Some(d) = deadline {
                self.clock.merge(d);
            }
            MpiError::Timeout
        }
    }

    /// The one guarded wait: blocks until `attempt` — the caller's "try to
    /// finish" step, given the effective virtual deadline — resolves, or
    /// until something proves it never will. Every blocking operation
    /// (receive, probe, agreement) is a thin caller.
    ///
    /// * **Fast path.** `attempt` already resolves: no record is built, no
    ///   registry lock taken, nothing allocated.
    /// * **Dead peer.** What is awaited — `kind`, built only now — becomes
    ///   one [`WaitRecord`]; if its
    ///   [`abort`](WaitRecord::abort) rule fires the wait ends with that
    ///   error, unless one more `attempt` succeeds: a sender may have
    ///   posted and *then* died, and the queued match wins.
    /// * **Blocked.** The record is registered with the quiescence detector
    ///   ([`crate::quiesce`]), which reads the same record — including the
    ///   same abort rule — and, if the whole universe is stuck, delivers a
    ///   typed verdict ([`MpiError::Timeout`], [`MpiError::NodeFailed`], or
    ///   [`MpiError::Deadlock`] with the wait graph) in milliseconds. After
    ///   every wake-up `attempt` re-runs atomically with the registry, so
    ///   the classifier never sees a rank blocked *after* it consumed its
    ///   message.
    /// * **Deadlines.** `deadline` bounds the wait in virtual time, and a
    ///   doomed rank's own crash time is an implicit deadline on every wait
    ///   (a fail-stopped machine cannot sit in `MPI_Recv` forever). A miss
    ///   is concluded *exactly* — `attempt` proves it, or the detector
    ///   proves nothing qualifying can be sent any more — and resolves as
    ///   the rank's own death when the crash time was binding.
    ///
    /// No sleep starts after the event it waits for: the doorbell ticket is
    /// read before each round of checks and everything that can end the
    /// wait rings the doorbell after publishing itself
    /// ([`crate::p2p::Mailbox::sleep`]). A death rings only the ranks
    /// already registered as blocked on something it can end, so the death
    /// epoch is read before each round of checks too, and
    /// [`Registry::block`](crate::quiesce::Registry::block) refuses to
    /// register — no sleep, one more round — when a death was published
    /// since. `WAKE_BACKSTOP` and `WATCHDOG` remain as safety nets.
    fn wait<T>(
        &self,
        deadline: Option<SimTime>,
        attempt: impl FnMut(Option<SimTime>) -> Claim<T>,
        kind: impl FnOnce() -> WaitKind,
    ) -> MpiResult<T> {
        self.wait_until(deadline, attempt, kind).map_err(|(_, e)| e)
    }

    /// [`Comm::wait`], telling an end by the dead-peer rule (`true`) from
    /// every other error: a verdict, a missed deadline, the watchdog.
    fn wait_until<T>(
        &self,
        deadline: Option<SimTime>,
        mut attempt: impl FnMut(Option<SimTime>) -> Claim<T>,
        kind: impl FnOnce() -> WaitKind,
    ) -> Result<T, (bool, MpiError)> {
        let my_world = self.my_world_rank();
        let own_tc = self.shared.doom[my_world];
        let death_binding = own_tc.is_some_and(|tc| deadline.is_none_or(|d| tc <= d));
        let deadline_eff = if death_binding { own_tc } else { deadline };
        // Every exit is one `MpiResult`; until the very end `Timeout` stands
        // for "the deadline is provably missed", however that was learnt.
        let outcome = |c: Claim<T>| match c {
            Claim::Matched(t) => Some(Ok(t)),
            Claim::DeadlineMissed => Some(Err(MpiError::Timeout)),
            Claim::Nothing => None,
        };
        let resolve = |err: MpiError| match err {
            MpiError::Timeout => self.resolve_timeout(death_binding, own_tc, deadline),
            other => other,
        };
        let mb = &self.shared.mailboxes[my_world];
        let reg = &self.shared.quiesce;

        let mut seen = reg.deaths();
        let mut ticket = mb.ticket();
        if let Some(done) = outcome(attempt(deadline_eff)) {
            return done.map_err(|e| (false, resolve(e)));
        }
        let rec = WaitRecord {
            group: self.group.clone(),
            deadline: deadline_eff,
            kind: kind(),
        };
        let start = Instant::now();
        let mut registered = false;
        let mut expired = false;
        let done = loop {
            if let Some(err) = rec.abort(my_world, &self.shared.liveness) {
                let late = outcome(reg.attempt(my_world, || attempt(deadline_eff)));
                let Some(done) = late else {
                    reg.unblock(my_world);
                    return Err((true, err));
                };
                break done;
            }
            if start.elapsed() >= WATCHDOG {
                // Belt and braces: the detector should have classified
                // this state long ago.
                let on = reg.give_up(my_world);
                break Err(match deadline_eff {
                    Some(_) => MpiError::Timeout,
                    None => MpiError::Deadlock {
                        waiting: my_world,
                        on: on.clone(),
                        graph: WaitGraph {
                            edges: vec![(my_world, on)],
                        },
                    },
                });
            }
            if !registered {
                // Classification triggered by our own block may verdict us
                // immediately (taking the verdict resets us to Active).
                match reg.block(my_world, &rec, seen) {
                    Ok(now) => registered = now,
                    Err(verdict) => break Err(verdict),
                }
            }
            if registered {
                expired = !mb.sleep(ticket, WAKE_BACKSTOP);
            }
            seen = reg.deaths();
            ticket = mb.ticket();
            if let Some(done) = outcome(reg.attempt(my_world, || attempt(deadline_eff))) {
                break done;
            }
            if let Some(verdict) = reg.check(my_world) {
                break Err(verdict);
            }
        };
        if expired {
            // The last sleep ran out its backstop and yet the wait was
            // resolvable right after: whatever resolved it should have
            // rung the doorbell, and the ring was lost.
            mb.wakes.missed.fetch_add(1, Ordering::Relaxed);
        }
        done.map_err(|e| (false, resolve(e)))
    }

    /// Internal transport: the one matched receive, with failure detection
    /// and an optional virtual-time deadline, on top of [`Comm::wait`].
    ///
    /// * A message already queued from a now-dead sender is still delivered
    ///   (it was sent before the sender died).
    /// * The wait aborts only when the awaited sender is dead (every other
    ///   member, for `ANY_SOURCE`) → [`MpiError::NodeFailed`] /
    ///   [`MpiError::PeerTerminated`] (see [`WaitRecord::abort`]).
    /// * `deadline` exceeded → [`MpiError::Timeout`], with the clock advanced
    ///   to the deadline and any late message left queued. The deadline
    ///   bounds the *wire* arrival stamped by the sender; a message on the
    ///   wire in time is delivered even if receiver-side contention
    ///   settlement pushes its final arrival past the deadline.
    /// * If the matched message would arrive after this rank's own node
    ///   crashes, the rank dies first: clock clamps to the crash time and
    ///   [`MpiError::NodeFailed`] (own rank) is returned.
    fn recv_msg(
        &self,
        src: Option<usize>,
        tag: Option<i32>,
        deadline: Option<SimTime>,
    ) -> MpiResult<(Msg, Status)> {
        self.check_self_alive()?;
        let pat = self.pattern(src, tag);
        let mb = &self.shared.mailboxes[self.my_world_rank()];
        let env = self.wait(
            deadline,
            |deadline| mb.claim(pat, deadline),
            || WaitKind::Mailbox { pat },
        )?;
        self.deliver(env)
    }

    /// The matching pattern of a receive or probe (`src` a communicator
    /// rank).
    fn pattern(&self, src: Option<usize>, tag: Option<i32>) -> Pattern {
        Pattern {
            ctx: self.ctx,
            src_world: src.map(|r| self.world_rank_of(r)),
            tag,
        }
    }

    /// The completion status of a message from world rank `src_world`.
    fn status(&self, src_world: usize, tag: i32, bytes: usize) -> Status {
        Status {
            source: self
                .group
                .rank_of_world(src_world)
                .expect("sender is in this communicator by construction"),
            tag,
            bytes,
        }
    }

    /// Standard-mode send (`MPI_Send`; eager/buffered, never blocks).
    ///
    /// `data` is encoded straight into its protocol representation —
    /// inline (no allocation) up to the envelope's inline slot, an arena
    /// lease above the eager limit — and posted: the sender's clock
    /// advances by the injection overhead, the envelope is stamped with its
    /// arrival time and goes through the sender's eager lane into the
    /// destination mailbox, so concurrent senders never contend on a shared
    /// lock.
    ///
    /// # Errors
    /// [`MpiError::InvalidRank`] if `dest` is outside the communicator;
    /// [`MpiError::NodeFailed`] if the caller's own node has fail-stopped
    /// (own world rank) or the destination's has by the caller's clock
    /// (destination world rank); [`MpiError::LinkDown`] if the fault plan
    /// has dropped the link. All judged in deterministic virtual time.
    pub fn send<T: MpiType>(&self, data: &[T], dest: usize, tag: i32) -> MpiResult<()> {
        self.check_rank(dest)?;
        let dst_world = self.world_rank_of(dest);
        let payload = encode_payload(data, &self.shared.pool);
        let (len, protocol) = (payload.len(), payload.protocol());
        let wire = self.endpoint(|e| e.send(dst_world, len, protocol, false))?;
        self.shared.mailboxes[dst_world].post_lane(Envelope {
            ctx: self.ctx,
            src_world: self.my_world_rank(),
            tag,
            payload,
            wire,
        });
        Ok(())
    }

    /// Blocking receive of a whole message from a specific source and tag.
    ///
    /// # Errors
    /// [`MpiError::InvalidRank`] for a bad source;
    /// [`MpiError::TypeMismatch`] if the payload is not a whole number of
    /// `T` elements; [`MpiError::NodeFailed`] / [`MpiError::PeerTerminated`]
    /// if the awaited sender is dead and nothing from it is queued.
    pub fn recv<T: MpiType>(&self, src: usize, tag: i32) -> MpiResult<(Vec<T>, Status)> {
        self.check_rank(src)?;
        let (msg, status) = self.recv_msg(Some(src), Some(tag), None)?;
        Ok((decode(msg.bytes())?, status))
    }

    /// Blocking receive that gives up at a virtual-time `deadline`: if no
    /// matching message has arrival time `<= deadline`, returns
    /// [`MpiError::Timeout`] with the clock advanced to the deadline (a late
    /// message stays queued for a later receive). Peer death is still
    /// reported as [`MpiError::NodeFailed`] / [`MpiError::PeerTerminated`].
    ///
    /// The miss is concluded *exactly* in virtual time: either a queued
    /// later message proves the deadline unreachable (non-overtaking), or
    /// the quiescence detector proves no qualifying message can be sent any
    /// more. Real elapsed time plays no part, so a slow host cannot turn a
    /// would-be delivery into a timeout.
    ///
    /// # Errors
    /// As [`Comm::recv`], plus [`MpiError::Timeout`].
    pub fn recv_deadline<T: MpiType>(
        &self,
        src: usize,
        tag: i32,
        deadline: SimTime,
    ) -> MpiResult<(Vec<T>, Status)> {
        self.check_rank(src)?;
        let (msg, status) = self.recv_msg(Some(src), Some(tag), Some(deadline))?;
        Ok((decode(msg.bytes())?, status))
    }

    /// [`Comm::recv_deadline`] with the deadline expressed as a duration from
    /// the caller's current virtual time.
    ///
    /// # Errors
    /// As [`Comm::recv_deadline`].
    pub fn recv_timeout<T: MpiType>(
        &self,
        src: usize,
        tag: i32,
        timeout: SimTime,
    ) -> MpiResult<(Vec<T>, Status)> {
        self.recv_deadline(src, tag, self.clock.now() + timeout)
    }

    /// Blocking receive with optional wildcards (`None` = `MPI_ANY_SOURCE` /
    /// `MPI_ANY_TAG`).
    ///
    /// # Errors
    /// As [`Comm::recv`].
    pub fn recv_any<T: MpiType>(
        &self,
        src: Option<usize>,
        tag: Option<i32>,
    ) -> MpiResult<(Vec<T>, Status)> {
        if let Some(s) = src {
            self.check_rank(s)?;
        }
        let (msg, status) = self.recv_msg(src, tag, None)?;
        Ok((decode(msg.bytes())?, status))
    }

    /// Blocking receive into a caller-supplied buffer, with truncation
    /// checking (`MPI_Recv` proper). Returns the element count received.
    ///
    /// # Errors
    /// [`MpiError::Truncated`] if the message exceeds the buffer.
    pub fn recv_into<T: MpiType>(
        &self,
        buf: &mut [T],
        src: usize,
        tag: i32,
    ) -> MpiResult<(usize, Status)> {
        self.check_rank(src)?;
        let (msg, status) = self.recv_msg(Some(src), Some(tag), None)?;
        let n = decode_into(msg.bytes(), buf)?;
        Ok((n, status))
    }

    /// Combined send and receive (`MPI_Sendrecv`). Never deadlocks because
    /// sends are eager.
    ///
    /// # Errors
    /// As [`Comm::send`] / [`Comm::recv`].
    pub fn sendrecv<T: MpiType, U: MpiType>(
        &self,
        send_data: &[T],
        dest: usize,
        send_tag: i32,
        src: usize,
        recv_tag: i32,
    ) -> MpiResult<(Vec<U>, Status)> {
        self.send(send_data, dest, send_tag)?;
        self.recv(src, recv_tag)
    }

    /// Blocking probe (`MPI_Probe`): metadata of the next matching message
    /// without receiving it. Advances the clock to the message's *wire*
    /// arrival; receiver-side contention settlement is charged only when
    /// the message is actually received (a probe consumes nothing, so it
    /// must not advance the frontier).
    ///
    /// Failure-aware like [`Comm::recv`]: a dead awaited peer (or, for a
    /// doomed caller, its own crash) resolves the wait with a typed error
    /// instead of hanging, and the wait is registered with the quiescence
    /// detector.
    pub fn probe(&self, src: Option<usize>, tag: Option<i32>) -> MpiResult<Status> {
        if let Some(s) = src {
            self.check_rank(s)?;
        }
        self.check_self_alive()?;
        let my_world = self.my_world_rank();
        let pat = self.pattern(src, tag);
        let mb = &self.shared.mailboxes[my_world];
        let hit = self.wait(
            None,
            |_| mb.try_probe(pat).map_or(Claim::Nothing, Claim::Matched),
            || WaitKind::Mailbox { pat },
        )?;
        let (src_world, tag, bytes, arrival) = hit;
        self.outlive(arrival)?;
        self.clock.merge(arrival);
        Ok(self.status(src_world, tag, bytes))
    }

    /// Nonblocking probe (`MPI_Iprobe`).
    pub fn iprobe(&self, src: Option<usize>, tag: Option<i32>) -> MpiResult<Option<Status>> {
        if let Some(s) = src {
            self.check_rank(s)?;
        }
        let pat = self.pattern(src, tag);
        let hit = self.shared.mailboxes[self.my_world_rank()].try_probe(pat);
        Ok(hit.map(|(src_world, tag, bytes, _)| self.status(src_world, tag, bytes)))
    }

    // ----- communicator constructors ---------------------------------------

    /// The collective context plane.
    #[inline]
    fn coll_plane(&self) -> u64 {
        self.ctx + 1
    }

    /// Duplicates the communicator with a fresh context (`MPI_Comm_dup`).
    /// Collective over all members, yet it sends nothing, so it cannot
    /// block or fail, even while nodes are crashing: the `n`-th `dup` or
    /// [`Comm::create`] each member issues on this communicator reads entry
    /// `n` of the run's context registry, which the first member to ask
    /// allocates. (Real MPI agrees by communicating; this leans on the
    /// simulator's shared memory the way `MPI_Comm_idup` leans on deferred
    /// agreement.)
    pub fn dup(&self) -> Comm {
        self.with_ctx(self.registry_ctx())
    }

    /// The context of this rank's next `dup` / `create` on this
    /// communicator (see [`Comm::dup`]).
    fn registry_ctx(&self) -> u64 {
        let ordinal = take(&self.ordinals.ctor);
        self.shared.registry_ctx(self.ctx, ordinal)
    }

    /// Creates a communicator over a subgroup (`MPI_Comm_create`).
    /// Collective over **all** members of `self`, and like [`Comm::dup`]
    /// it sends nothing; members of `group` receive `Some(comm)`, others
    /// `None`.
    ///
    /// # Errors
    /// [`MpiError::InvalidGroup`] if `group` is not a subset of this
    /// communicator's group.
    pub fn create(&self, group: &Group) -> MpiResult<Option<Comm>> {
        self.subset(group, || self.registry_ctx())
    }

    /// Allocates a fresh context-id pair from the universe's allocator
    /// *without* any communication. Building block for runtimes layered on
    /// mpisim (HMPI's group-create protocol has one coordinator allocate the
    /// context and distribute it point-to-point).
    pub fn alloc_ctx(&self) -> u64 {
        self.shared.alloc_ctx_pair()
    }

    /// Constructs a communicator over `group` with an externally agreed
    /// context id (from [`Comm::alloc_ctx`] on some coordinator), without
    /// collective communication. Returns `None` if the caller is not in
    /// `group`. All members must use the same `ctx` or their messages will
    /// never match — that agreement is the caller's protocol's business.
    ///
    /// # Errors
    /// [`MpiError::InvalidGroup`] if `group` is not a subset of this
    /// communicator's group.
    pub fn subset_with_ctx(&self, group: &Group, ctx: u64) -> MpiResult<Option<Comm>> {
        self.subset(group, || ctx)
    }

    /// The subset constructor behind [`Comm::create`] and
    /// [`Comm::subset_with_ctx`]: checks that `group` lies within this
    /// communicator, then gives its members a handle under context `ctx()`.
    fn subset(&self, group: &Group, ctx: impl FnOnce() -> u64) -> MpiResult<Option<Comm>> {
        let outside = group
            .world_ranks()
            .iter()
            .find(|&&w| !self.group.contains_world(w));
        if let Some(w) = outside {
            return Err(MpiError::InvalidGroup(format!(
                "world rank {w} is not in the parent communicator"
            )));
        }
        let ctx = ctx();
        Ok(group
            .rank_of_world(self.my_world_rank())
            .map(|rank| self.over(group.clone(), ctx, rank)))
    }

    /// Partitions the communicator by color (`MPI_Comm_split`). `None` color
    /// (`MPI_UNDEFINED`) yields `Ok(None)`. Within a color, ranks are ordered
    /// by `(key, rank in parent)`.
    ///
    /// # Errors
    /// Propagates transport errors from the internal gather/scatter.
    pub fn split(&self, color: Option<i32>, key: i32) -> MpiResult<Option<Comm>> {
        const UNDEF: i64 = i64::MIN;
        let contrib = [
            color.map_or(UNDEF, |c| c as i64),
            key as i64,
        ];
        let gathered = self.gather(&contrib, 0)?;

        // Root computes each color's member list (world ranks, ordered by
        // (key, parent rank)) and allocates a context pair per color.
        let mut parts: Vec<Vec<i64>> = vec![Vec::new(); self.size()];
        if let Some(rows) = gathered {
            let mut colors: Vec<i32> = rows
                .iter()
                .filter(|r| r[0] != UNDEF)
                .map(|r| r[0] as i32)
                .collect();
            colors.sort_unstable();
            colors.dedup();
            for color in colors {
                let mut members: Vec<(i64, usize)> = rows
                    .iter()
                    .enumerate()
                    .filter(|(_, r)| r[0] != UNDEF && r[0] as i32 == color)
                    .map(|(parent_rank, r)| (r[1], parent_rank))
                    .collect();
                members.sort_unstable();
                let ctx = self.shared.alloc_ctx_pair() as i64;
                let world_members: Vec<i64> = members
                    .iter()
                    .map(|&(_, pr)| self.world_rank_of(pr) as i64)
                    .collect();
                for &(_, parent_rank) in &members {
                    let mut msg = vec![ctx];
                    msg.extend_from_slice(&world_members);
                    parts[parent_rank] = msg;
                }
            }
        }

        let mine = self.scatter(&parts)?;
        if mine.is_empty() {
            return Ok(None);
        }
        let ctx = mine[0] as u64;
        let members: Vec<usize> = mine[1..].iter().map(|&w| w as usize).collect();
        let group = Group::from_world_ranks(members)?;
        let rank = group
            .rank_of_world(self.my_world_rank())
            .expect("split member lists include the contributing rank");
        Ok(Some(self.over(group, ctx, rank)))
    }

    // ----- engine collectives ----------------------------------------------

    /// Runs `plan` in the call's collective slot under `rule`: the `n`-th
    /// engine call on this communicator joins slot `(collective plane, n)`,
    /// the `n`-th legacy call slot `(point-to-point plane, n)`. This rank
    /// leaves `deposit` and lends the slot its clock and sending state,
    /// runs every member's program as far as it can (or leaves that to the
    /// member already running them), and then sleeps — at most once, unless
    /// a death or a verdict ends the wait — until its own program has
    /// finished or failed; it takes its state back with the outcome. The
    /// slot comes back for the result to be copied out of.
    ///
    /// While blocked, the rank's wait is a receive from the one sender its
    /// program awaits (`WaitKind::Collective`): the rule's dead-peer check
    /// ([`Slot::dead_peer`]) ends it, and a doomed rank's crash time
    /// bounds it, exactly as the scheduled receive it stands for.
    pub(crate) fn run_slot(
        &self,
        rule: Rule,
        plan: Arc<Plan>,
        elem_bytes: usize,
        deposit: Deposit,
    ) -> MpiResult<Arc<Slot>> {
        let key = match rule {
            Rule::Engine => (self.coll_plane(), take(&self.ordinals.coll)),
            Rule::Legacy => (self.ctx, take(&self.ordinals.legacy)),
        };
        let slot = self.shared.slots.open(key, &self.group, &self.doomed, rule);
        let me = self.rank();
        let fresh = RankNet::new(NetFrontier::new(self.shared.cluster.contention()));
        let arrival = Arrival {
            plan,
            elem_bytes,
            clock: self.clock.now(),
            net: std::mem::replace(&mut *self.frontier.borrow_mut(), fresh),
            deposit,
        };
        slot.arrive(&self.shared, me, arrival);
        while !slot.finished(me) {
            let waited = self.wait_until(
                None,
                |_| match slot.finished(me) {
                    true => Claim::Matched(()),
                    false => Claim::Nothing,
                },
                || WaitKind::Collective {
                    slot: Arc::clone(&slot),
                    member: me,
                },
            );
            if let Err((dead_peer, e)) = waited {
                slot.abandon(&self.shared, me, (!dead_peer).then_some(e));
            }
        }
        let (outcome, clock, net) = slot.take(&self.shared, me);
        self.clock.set(clock);
        *self.frontier.borrow_mut() = net;
        outcome.map(|()| slot)
    }

    // ----- fault-tolerant agreement -----------------------------------------

    /// ULFM-style agreement (`MPIX_Comm_agree`): every *live* member
    /// contributes a boolean; the call returns the AND-fold of the
    /// contributions plus the exact set of members that died without
    /// contributing. Unlike the data collectives, agreement **tolerates
    /// failures mid-flight**: dead members are excluded rather than
    /// aborting the round, so it is the primitive survivors use to reach a
    /// consistent verdict after a failed collective.
    ///
    /// Guarantees:
    /// * every survivor returns the *same* [`Agreement`] — the outcome is
    ///   computed from one shared round slot, so unanimity is structural;
    /// * a member that deposited and died afterwards still counts as agreed
    ///   (its contribution was made); `failed` lists only members that died
    ///   *without* contributing;
    /// * the round is a virtual-time synchronisation point among survivors:
    ///   the caller's clock advances to the latest deposit time;
    /// * deterministic: whether a member deposits or dies first is decided
    ///   by the fault plan in virtual time, so the same seed yields the
    ///   same verdict and failed set.
    ///
    /// Every member must call `agree` the same number of times on a given
    /// communicator (the `n`-th calls form one round).
    ///
    /// # Errors
    /// [`MpiError::NodeFailed`] (own rank) if the caller's node crashes
    /// before the round completes.
    pub fn agree(&self, flag: bool) -> MpiResult<Agreement> {
        self.check_self_alive()?;
        let my_world = self.my_world_rank();
        let key = (self.coll_plane(), take(&self.ordinals.agree));
        let members = self.group.world_ranks();
        let table = &self.shared.agreements;
        let is_dead = |w: usize| w != my_world && self.shared.liveness.of(w) != RankState::Alive;
        // Members blocked on this round sleep on their own doorbells. Only
        // the deposit that completes the round can change what they find;
        // a death that completes it rings them through `Registry::mark_dead`.
        if table.deposit(key, members, my_world, flag, self.clock.now(), is_dead) {
            for &w in members.iter().filter(|&&w| w != my_world) {
                self.shared.mailboxes[w].wake_all();
            }
        }
        let outcome = |_| match table.try_outcome(key, is_dead) {
            Some(agreed) => Claim::Matched(agreed),
            None => Claim::Nothing,
        };
        let a = self.wait(None, outcome, || WaitKind::Agreement { key })?;
        // The round may complete only after this rank's own death.
        self.outlive(a.at)?;
        self.clock.merge(a.at);
        Ok(a)
    }
}
