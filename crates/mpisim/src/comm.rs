//! Communicators.
//!
//! A [`Comm`] binds a [`Group`] to a pair of context ids (one for
//! point-to-point traffic, one for collectives, so a collective can never
//! intercept an application message) and carries the calling rank's virtual
//! clock. Constructors mirror MPI: [`Comm::dup`], [`Comm::split`],
//! [`Comm::create`].

use crate::agree::Agreement;
use crate::datatype::{decode, decode_into, encode_payload, MpiType};
use crate::error::{MpiError, MpiResult, WaitGraph};
use crate::group::Group;
use crate::p2p::{Claim, Envelope, Msg, Pattern, Payload, Status};
use crate::quiesce::{WaitKind, WaitRecord};
use crate::runtime::{RankState, SharedState};
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
    /// Base context id; `ctx` is the p2p plane, `ctx + 1` the collective one.
    ctx: u64,
    /// Calling process's rank within this communicator.
    rank: usize,
    pub(crate) clock: LocalClock,
    /// This rank's deterministic view of the shared network resources
    /// ([`NetFrontier`]) and its send sequence: sender-side grants and
    /// receiver-side settlements both run against it, in the rank's own
    /// program order. Like the clock, shared by every communicator handle
    /// of one rank.
    pub(crate) frontier: Rc<RefCell<RankNet>>,
    /// Rank-local count of [`Comm::agree`] rounds issued on this
    /// communicator; every member counts its own calls, so the `n`-th call
    /// on each member lands in the same shared agreement slot. Shared
    /// between clones of one handle (cloning a communicator does not fork
    /// its round numbering).
    agree_seq: Rc<Cell<u64>>,
}

impl Comm {
    pub(crate) fn world(world_rank: usize, shared: Arc<SharedState>, clock: LocalClock) -> Comm {
        let frontier = NetFrontier::new(shared.cluster.contention(), shared.cluster.len());
        Comm {
            group: shared.world.clone(),
            shared,
            ctx: 0,
            rank: world_rank,
            clock,
            frontier: Rc::new(RefCell::new(RankNet::new(frontier))),
            agree_seq: Rc::new(Cell::new(0)),
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
        self.shared.placement[self.world_rank_of(rank)]
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
        let node = self.node_of(self.rank);
        let start = self.clock.now();
        let dt = self.shared.cluster.compute_time(node, units, start);
        self.clock.advance(dt);
        self.trace_compute(start, dt);
    }

    /// Records a compute span when tracing is enabled (one `Option` check
    /// otherwise).
    fn trace_compute(&self, start: SimTime, dur: SimTime) {
        if let Some(tracer) = &self.shared.tracer {
            let mut ev =
                TraceEvent::new(self.my_world_rank(), TraceKind::Compute, "compute", start);
            ev.dur = dur;
            tracer.record(ev);
        }
    }

    /// Failure-aware computation: if this rank's node fail-stops before the
    /// work completes, the clock is clamped to the crash time, the failure is
    /// published, and [`MpiError::NodeFailed`] (with the caller's own world
    /// rank) is returned.
    pub fn try_compute(&self, units: f64) -> MpiResult<()> {
        let me = self.my_world_rank();
        let node = self.shared.placement[me];
        let now = self.clock.now();
        if let Some(tc) = self.shared.cluster.crash_time(node) {
            if now >= tc {
                self.shared.mark_failed(me);
                return Err(MpiError::NodeFailed { world_rank: me });
            }
            let dt = self.shared.cluster.compute_time(node, units, now);
            if now + dt >= tc {
                self.clock.set(tc);
                self.shared.mark_failed(me);
                return Err(MpiError::NodeFailed { world_rank: me });
            }
            self.clock.advance(dt);
            self.trace_compute(now, dt);
            return Ok(());
        }
        self.compute(units);
        Ok(())
    }

    /// Errors with [`MpiError::NodeFailed`] (own world rank) if the calling
    /// rank's node has fail-stopped by its current virtual time, publishing
    /// the failure as a side effect.
    fn check_self_alive(&self) -> MpiResult<()> {
        self.outlive(self.clock.now())
    }

    /// A doomed rank does not live to see virtual time `at` if its node
    /// crashes at or before it: the rank dies first — clock clamped to the
    /// crash time, failure published, [`MpiError::NodeFailed`] (own world
    /// rank).
    fn outlive(&self, at: SimTime) -> MpiResult<()> {
        let world_rank = self.my_world_rank();
        match self.shared.doom[world_rank] {
            Some(tc) if at >= tc => {
                self.clock.merge(tc);
                self.shared.mark_failed(world_rank);
                Err(MpiError::NodeFailed { world_rank })
            }
            _ => Ok(()),
        }
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

    /// Internal transport: posts `bytes` to `dest` (a comm rank) on the given
    /// context plane. Legacy `Vec<u8>` entry point — small payloads are
    /// repacked inline (eager); larger ones ride as heap payloads.
    pub(crate) fn post_bytes(
        &self,
        plane: u64,
        bytes: Vec<u8>,
        dest: usize,
        tag: i32,
    ) -> MpiResult<()> {
        let payload = Payload::from_vec(bytes);
        self.post_payload(plane, payload, dest, tag)
    }

    /// Internal transport: encodes `data` straight into its protocol
    /// representation — inline (no allocation) under the eager limit, an
    /// arena lease above it — and posts it. The preferred send path.
    pub(crate) fn post_typed<T: MpiType>(
        &self,
        plane: u64,
        data: &[T],
        dest: usize,
        tag: i32,
    ) -> MpiResult<()> {
        let payload = encode_payload(data, &self.shared.pool);
        self.post_payload(plane, payload, dest, tag)
    }

    /// Internal transport core: posts a ready payload to `dest` (a comm
    /// rank) on the given context plane, advancing the sender clock by the
    /// injection overhead and stamping the envelope with its arrival time.
    /// Delivery goes through the sender's eager lane into the destination
    /// mailbox, so concurrent senders never contend on a shared lock.
    ///
    /// Failure semantics (all judged in deterministic virtual time):
    /// [`MpiError::NodeFailed`] if the sender's own node has crashed (own
    /// world rank) or the destination's node has crashed by the sender's
    /// current time (destination world rank); [`MpiError::LinkDown`] if the
    /// fault plan has dropped the link.
    pub(crate) fn post_payload(
        &self,
        plane: u64,
        payload: Payload,
        dest: usize,
        tag: i32,
    ) -> MpiResult<()> {
        self.check_self_alive()?;
        let src_world = self.my_world_rank();
        let dst_world = self.world_rank_of(dest);
        let src_node = self.shared.placement[src_world];
        let dst_node = self.shared.placement[dst_world];
        let now = self.clock.now();
        if let Some(tc) = self.shared.cluster.crash_time(dst_node) {
            if now >= tc {
                return Err(MpiError::NodeFailed {
                    world_rank: dst_world,
                });
            }
        }
        let (overhead, cost) = if src_world == dst_world {
            // Self-sends stay on the free loopback even when a memory bus
            // is modelled; only distinct co-located ranks fight for it.
            (SimTime::ZERO, SimTime::ZERO)
        } else {
            let link = self.shared.cluster.rank_link(src_node, dst_node);
            let cost = self
                .shared
                .cluster
                .rank_transfer_time_at(src_node, dst_node, payload.len(), now)
                .ok_or(MpiError::LinkDown {
                    from: src_node.index(),
                    to: dst_node.index(),
                })?;
            (SimTime::from_secs(link.latency), cost)
        };
        // Sender-side arbitration against this rank's own frontier; the
        // receiver settles the stamped window at match time (see
        // `crate::vtime` — the two steps make contention deterministic).
        let (arrival, xfer, seq) = {
            let mut f = self.frontier.borrow_mut();
            let (arrival, xfer) = f.net.grant(src_node, dst_node, now, cost);
            (arrival, xfer, f.take_seq())
        };
        self.clock.advance(overhead);
        if let Some(tracer) = &self.shared.tracer {
            let mut ev = TraceEvent::new(src_world, TraceKind::Send, "send", now);
            ev.dur = overhead;
            ev.bytes = payload.len() as u64;
            ev.protocol = Some(payload.protocol());
            ev.peer = Some(dst_world);
            // Context-id pairs have an even p2p plane and an odd collective
            // plane (the allocator hands out even bases).
            ev.collective = plane & 1 == 1;
            tracer.record(ev);
        }
        self.shared.mailboxes[dst_world].post_lane(Envelope {
            ctx: plane,
            src_world,
            tag,
            payload,
            sent_at: now,
            arrival,
            seq,
            xfer,
        });
        Ok(())
    }

    /// The delivery epilogue of every receive: settles the matched
    /// envelope's contended-wire reservation against this rank's frontier
    /// (the receiver-side arbitration step — uncontended envelopes pass
    /// their stamped arrival through), lets the rank die first if its node
    /// crashes before the message is in, merges the clock, and records the
    /// `recv` span. Runs on the receiving rank's own thread at the moment
    /// the envelope is consumed.
    fn deliver(&self, env: Envelope) -> MpiResult<(Msg, Status)> {
        let my_world = self.my_world_rank();
        let arrival = match env.xfer {
            Some(x) => self.frontier.borrow_mut().net.settle(x),
            None => env.arrival,
        };
        self.outlive(arrival)?;
        let before = self.clock.now();
        self.clock.merge(arrival);
        if let Some(tracer) = &self.shared.tracer {
            let dur = arrival.max(before) - before;
            let mut ev = TraceEvent::new(my_world, TraceKind::Recv, "recv", before);
            ev.dur = dur;
            // The idle part of the span: time spent blocked before the
            // sender had even reached its send.
            ev.wait = (env.sent_at.max(before) - before).min(dur);
            ev.bytes = env.len() as u64;
            ev.protocol = Some(env.payload.protocol());
            ev.peer = Some(env.src_world);
            ev.collective = env.ctx & 1 == 1;
            tracer.record(ev);
        }
        let status = self.status(env.src_world, env.tag, env.len());
        Ok((env.into_msg(), status))
    }

    /// Internal transport: blocking matched receive on a context plane.
    pub(crate) fn recv_bytes(
        &self,
        plane: u64,
        src: Option<usize>,
        tag: Option<i32>,
    ) -> MpiResult<(Msg, Status)> {
        let collective = plane == self.coll_plane();
        self.recv_bytes_opts(plane, src, tag, None, collective)
    }

    /// [`Comm::recv_bytes`] with *point-to-point* abort semantics even on
    /// the collective plane: the wait aborts only when the awaited sender
    /// itself is dead, not when any group member has failed. The schedule
    /// engine uses this so a fault propagates along schedule edges — a rank
    /// whose data path does not touch the dead rank finishes its receives
    /// and learns of the failure deterministically, at its next dependence
    /// on the failure, rather than via a real-time race.
    pub(crate) fn recv_bytes_from(
        &self,
        plane: u64,
        src: usize,
        tag: Option<i32>,
    ) -> MpiResult<(Msg, Status)> {
        self.recv_bytes_opts(plane, Some(src), tag, None, false)
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
    /// * **Dead peer.** What is awaited — `collective` and `kind`, built
    ///   only now — becomes one [`WaitRecord`]; if its
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
        collective: bool,
        mut attempt: impl FnMut(Option<SimTime>) -> Claim<T>,
        kind: impl FnOnce() -> WaitKind,
    ) -> MpiResult<T> {
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
            return done.map_err(resolve);
        }
        let rec = WaitRecord {
            group: self.group.clone(),
            collective,
            deadline: deadline_eff,
            kind: kind(),
        };
        let start = Instant::now();
        let mut registered = false;
        let mut expired = false;
        let done = loop {
            if let Some(err) = rec.abort(my_world, &self.shared.liveness) {
                let late = outcome(reg.attempt(my_world, || attempt(deadline_eff)));
                break late.unwrap_or_else(|| {
                    reg.unblock(my_world);
                    Err(err)
                });
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
        done.map_err(resolve)
    }

    /// Internal transport: matched receive with failure detection and an
    /// optional virtual-time deadline, on top of [`Comm::wait`].
    ///
    /// * A message already queued from a now-dead sender is still delivered
    ///   (it was sent before the sender died).
    /// * Blocked with the awaited peer dead → [`MpiError::NodeFailed`] /
    ///   [`MpiError::PeerTerminated`]; with `collective_abort` any *failed*
    ///   group member aborts the wait (see [`WaitRecord::abort`]), and a
    ///   member whose node has crashed by the caller's clock fails the
    ///   call before it looks at the mailbox at all.
    /// * `deadline` exceeded → [`MpiError::Timeout`], with the clock advanced
    ///   to the deadline and any late message left queued. The deadline
    ///   bounds the *wire* arrival stamped by the sender; a message on the
    ///   wire in time is delivered even if receiver-side contention
    ///   settlement pushes its final arrival past the deadline.
    /// * If the matched message would arrive after this rank's own node
    ///   crashes, the rank dies first: clock clamps to the crash time and
    ///   [`MpiError::NodeFailed`] (own rank) is returned.
    pub(crate) fn recv_bytes_opts(
        &self,
        plane: u64,
        src: Option<usize>,
        tag: Option<i32>,
        deadline: Option<SimTime>,
        collective_abort: bool,
    ) -> MpiResult<(Msg, Status)> {
        self.check_self_alive()?;
        let my_world = self.my_world_rank();
        if collective_abort {
            // A member whose node has crashed by this rank's own clock is
            // dead in its virtual present: the collective cannot complete,
            // whether or not a message from some live member happens to be
            // queued already. Judged from the fault plan, like a send to a
            // crashed destination, so the outcome never follows host order
            // (and does not depend on when the dead rank's thread got to
            // publish its death).
            let now = self.clock.now();
            let crashed = |w: &&usize| {
                **w != my_world && self.shared.doom[**w].is_some_and(|tc| tc <= now)
            };
            if let Some(&world_rank) = self.group.world_ranks().iter().find(crashed) {
                return Err(MpiError::NodeFailed { world_rank });
            }
        }
        let pat = self.pattern(plane, src, tag);
        let mb = &self.shared.mailboxes[my_world];
        let env = self.wait(
            deadline,
            collective_abort,
            |deadline| mb.claim(pat, deadline),
            || WaitKind::Mailbox { pat },
        )?;
        self.deliver(env)
    }

    /// The matching pattern of a receive or probe on `plane` (`src` a
    /// communicator rank).
    fn pattern(&self, plane: u64, src: Option<usize>, tag: Option<i32>) -> Pattern {
        Pattern {
            ctx: plane,
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
    /// # Errors
    /// [`MpiError::InvalidRank`] if `dest` is outside the communicator;
    /// [`MpiError::NodeFailed`] if the destination's node (or the caller's
    /// own) has fail-stopped; [`MpiError::LinkDown`] if the link is dropped.
    pub fn send<T: MpiType>(&self, data: &[T], dest: usize, tag: i32) -> MpiResult<()> {
        self.check_rank(dest)?;
        self.post_typed(self.ctx, data, dest, tag)
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
        let (bytes, status) = self.recv_bytes(self.ctx, Some(src), Some(tag))?;
        Ok((decode(&bytes)?, status))
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
        let (bytes, status) =
            self.recv_bytes_opts(self.ctx, Some(src), Some(tag), Some(deadline), false)?;
        Ok((decode(&bytes)?, status))
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
        let (bytes, status) = self.recv_bytes(self.ctx, src, tag)?;
        Ok((decode(&bytes)?, status))
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
        let (bytes, status) = self.recv_bytes(self.ctx, Some(src), Some(tag))?;
        let n = decode_into(&bytes, buf)?;
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
        let pat = self.pattern(self.ctx, src, tag);
        let mb = &self.shared.mailboxes[my_world];
        let hit = self.wait(
            None,
            false,
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
        let pat = self.pattern(self.ctx, src, tag);
        let hit = self.shared.mailboxes[self.my_world_rank()].try_probe(pat);
        Ok(hit.map(|(src_world, tag, bytes, _)| self.status(src_world, tag, bytes)))
    }

    // ----- communicator constructors ---------------------------------------

    /// The collective context plane.
    #[inline]
    pub(crate) fn coll_plane(&self) -> u64 {
        self.ctx + 1
    }

    /// Duplicates the communicator with a fresh context (`MPI_Comm_dup`).
    /// Collective over all members.
    ///
    /// # Errors
    /// Propagates transport errors from the internal broadcast.
    pub fn dup(&self) -> MpiResult<Comm> {
        let ctx = self.agree_ctx()?;
        Ok(Comm {
            shared: self.shared.clone(),
            group: self.group.clone(),
            ctx,
            rank: self.rank,
            clock: self.clock.clone(),
            frontier: self.frontier.clone(),
            agree_seq: Rc::new(Cell::new(0)),
        })
    }

    /// Duplicates the communicator **without communicating**: context
    /// agreement goes through the universe's shared context registry, so
    /// the call cannot block or fail even while nodes are crashing — a
    /// collective [`Comm::dup`] would abort on the first dead relay in
    /// its broadcast tree. Intended for control planes set up at init
    /// time, before any failure can be tolerated.
    ///
    /// Every member must call it with the same `seq`; calls with equal
    /// `(parent, seq)` yield the *same* communicator, distinct `seq`s
    /// yield distinct ones. (Real MPI has no equivalent; this leans on
    /// the simulator's shared memory the way `MPI_Comm_idup` leans on
    /// deferred agreement.)
    pub fn dup_local(&self, seq: u64) -> Comm {
        let ctx = self.shared.ctx_for_local_dup(self.ctx, seq);
        Comm {
            shared: self.shared.clone(),
            group: self.group.clone(),
            ctx,
            rank: self.rank,
            clock: self.clock.clone(),
            frontier: self.frontier.clone(),
            agree_seq: Rc::new(Cell::new(0)),
        }
    }

    /// Rank 0 allocates a context-id pair and broadcasts it.
    fn agree_ctx(&self) -> MpiResult<u64> {
        let mut v = if self.rank == 0 {
            vec![self.shared.alloc_ctx_pair() as i64]
        } else {
            Vec::new()
        };
        self.bcast(&mut v, 0)?;
        Ok(v[0] as u64)
    }

    /// Creates a communicator over a subgroup (`MPI_Comm_create`).
    /// Collective over **all** members of `self`; members of `group` receive
    /// `Some(comm)`, others `None`.
    ///
    /// # Errors
    /// [`MpiError::InvalidGroup`] if `group` is not a subset of this
    /// communicator's group.
    pub fn create(&self, group: &Group) -> MpiResult<Option<Comm>> {
        for &w in group.world_ranks() {
            if !self.group.contains_world(w) {
                return Err(MpiError::InvalidGroup(format!(
                    "world rank {w} is not in the parent communicator"
                )));
            }
        }
        let ctx = self.agree_ctx()?;
        Ok(group.rank_of_world(self.my_world_rank()).map(|rank| Comm {
            shared: self.shared.clone(),
            group: Arc::new(group.clone()),
            ctx,
            rank,
            clock: self.clock.clone(),
            frontier: self.frontier.clone(),
            agree_seq: Rc::new(Cell::new(0)),
        }))
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
        for &w in group.world_ranks() {
            if !self.group.contains_world(w) {
                return Err(MpiError::InvalidGroup(format!(
                    "world rank {w} is not in the parent communicator"
                )));
            }
        }
        Ok(group.rank_of_world(self.my_world_rank()).map(|rank| Comm {
            shared: self.shared.clone(),
            group: Arc::new(group.clone()),
            ctx,
            rank,
            clock: self.clock.clone(),
            frontier: self.frontier.clone(),
            agree_seq: Rc::new(Cell::new(0)),
        }))
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
        Ok(Some(Comm {
            shared: self.shared.clone(),
            group: Arc::new(group),
            ctx,
            rank,
            clock: self.clock.clone(),
            frontier: self.frontier.clone(),
            agree_seq: Rc::new(Cell::new(0)),
        }))
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
        let seq = self.agree_seq.get();
        self.agree_seq.set(seq + 1);
        let key = (self.coll_plane(), seq);
        let members = self.group.world_ranks();
        let table = &self.shared.agreements;
        table.deposit(key, members, my_world, flag, self.clock.now());
        // Members blocked on this round sleep on their own doorbells.
        for &w in members {
            self.shared.mailboxes[w].wake_all();
        }
        let is_dead = |w: usize| w != my_world && self.shared.liveness.of(w) != RankState::Alive;
        let outcome = |_| match table.try_outcome(key, is_dead) {
            Some(agreed) => Claim::Matched(agreed),
            None => Claim::Nothing,
        };
        let a = self.wait(None, false, outcome, || WaitKind::Agreement { key })?;
        // The round may complete only after this rank's own death.
        self.outlive(a.at)?;
        self.clock.merge(a.at);
        Ok(a)
    }
}
