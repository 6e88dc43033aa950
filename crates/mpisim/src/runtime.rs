//! The SPMD runtime: running ranks on pooled worker threads over a simulated
//! cluster.

use crate::agree::AgreeTable;
use crate::comm::Comm;
use crate::engine::CollectivePolicy;
use crate::error::{MpiError, MpiResult};
use crate::group::Group;
use crate::p2p::Mailbox;
use crate::plan::{NodeVec, PlanCache, PlanCacheReport, PlanStore};
use crate::pool::{BufferPool, PoolReport};
use crate::quiesce::Registry;
use crate::vtime::{LocalClock, NetFrontier, RankNet};
use hetsim::{Cluster, NodeId, SimTime, Topology, Trace, TraceEvent, TraceKind, Tracer};
use parking_lot::Mutex;
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::convert::Infallible;
use std::panic::AssertUnwindSafe;
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};

/// What the failure detector knows about one world rank.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) enum RankState {
    /// Still running (as far as anyone can tell).
    Alive = 0,
    /// The rank's node fail-stopped and the rank observed it. Sticky: a
    /// later closure exit does not overwrite this.
    Failed = 1,
    /// The rank's closure returned (or panicked) without a node crash.
    Terminated = 2,
}

/// The failure detector: per-world-rank liveness, read without a lock —
/// every blocked wait consults it on every wake-up. Each rank's state is
/// written by that rank's own thread only.
#[derive(Debug)]
pub(crate) struct Liveness {
    state: Vec<AtomicU8>,
    /// How many ranks are `Failed`. Published *before* the rank's state, so
    /// a reader that finds 0 here may skip looking for a failed rank: any
    /// `Failed` state it could have seen had already been counted.
    failed: AtomicUsize,
}

impl Liveness {
    pub(crate) fn new(n: usize) -> Self {
        Liveness {
            state: (0..n).map(|_| AtomicU8::new(RankState::Alive as u8)).collect(),
            failed: AtomicUsize::new(0),
        }
    }

    /// The current view of a world rank.
    pub(crate) fn of(&self, world_rank: usize) -> RankState {
        const BY_CODE: [RankState; 3] = [RankState::Alive, RankState::Failed, RankState::Terminated];
        BY_CODE[self.state[world_rank].load(Ordering::SeqCst) as usize]
    }

    /// True once any rank has been seen to fail-stop.
    pub(crate) fn any_failed(&self) -> bool {
        self.failed.load(Ordering::SeqCst) > 0
    }

    /// Publishes `state` — `Failed` or `Terminated` — for `world_rank`,
    /// from its own thread. False if there was nothing new to publish:
    /// the state is already in force, or `Failed` is (it is sticky — the
    /// crash is the more precise cause of death).
    pub(crate) fn publish(&self, world_rank: usize, state: RankState) -> bool {
        let now = self.of(world_rank);
        if now == RankState::Failed || now == state {
            return false;
        }
        if state == RankState::Failed {
            self.failed.fetch_add(1, Ordering::SeqCst);
        }
        self.state[world_rank].store(state as u8, Ordering::SeqCst);
        true
    }
}

/// State shared by every rank of a running universe.
#[derive(Debug)]
pub(crate) struct SharedState {
    pub(crate) cluster: Arc<Cluster>,
    /// `placement[world_rank]` = the cluster node hosting that rank: the
    /// universe's own vector, which is also the world communicator's.
    pub(crate) placement: NodeVec,
    pub(crate) mailboxes: Vec<Arc<Mailbox>>,
    /// The world group, built once and shared by every [`Process::world`].
    pub(crate) world: Arc<Group>,
    /// Per-world-rank liveness, the substrate of failure detection: blocked
    /// receives consult it to avoid waiting forever on a dead peer.
    pub(crate) liveness: Arc<Liveness>,
    /// Allocator for communicator context ids. Each communicator takes two
    /// consecutive ids (point-to-point plane and collective plane); the world
    /// communicator owns ids 0 and 1.
    next_ctx: AtomicU64,
    /// Context agreement for [`Comm::dup_local`]: `(parent ctx, seq)` →
    /// the allocated context. The first member to ask allocates; the rest
    /// read the same id, so agreement needs no communication.
    local_dups: Mutex<std::collections::HashMap<(u64, u64), u64>>,
    /// This run's virtual-time event collector, present only when the
    /// universe was built with [`UniverseConfig::tracing`]. Every
    /// instrumentation site costs exactly one `Option` discriminant check
    /// when absent.
    pub(crate) tracer: Option<Arc<Tracer>>,
    /// How the collective engine picks an algorithm per call (see
    /// [`UniverseConfig::collective_policy`]).
    pub(crate) coll_policy: CollectivePolicy,
    /// One plan per distinct collective call, shared by all ranks and kept
    /// in the universe's store across runs; the counters are this run's
    /// (see [`crate::plan`]).
    pub(crate) plans: PlanCache,
    /// The virtual-time quiescence detector (see [`crate::quiesce`]).
    pub(crate) quiesce: Arc<Registry>,
    /// Agreement rounds ([`Comm::agree`] / [`Comm::shrink`]).
    pub(crate) agreements: Arc<AgreeTable>,
    /// `doom[world_rank]` = that rank's node's crash time under the fault
    /// plan, if it is doomed. Resolved once at launch so receive paths do
    /// not hit the cluster model on every call.
    pub(crate) doom: Vec<Option<SimTime>>,
    /// The rendezvous payload arena (see [`crate::pool`]).
    pub(crate) pool: Arc<BufferPool>,
}

impl SharedState {
    /// Allocates a fresh context-id pair, returning the base id.
    pub(crate) fn alloc_ctx_pair(&self) -> u64 {
        self.next_ctx.fetch_add(2, Ordering::Relaxed)
    }

    /// The agreed context for the `seq`-th local dup of the communicator
    /// with context `parent_ctx` (see [`Comm::dup_local`]).
    pub(crate) fn ctx_for_local_dup(&self, parent_ctx: u64, seq: u64) -> u64 {
        let mut m = self.local_dups.lock();
        *m.entry((parent_ctx, seq)).or_insert_with(|| self.alloc_ctx_pair())
    }

    /// Records that `world_rank`'s node fail-stopped (idempotent).
    pub(crate) fn mark_failed(&self, world_rank: usize) {
        self.mark_dead(world_rank, RankState::Failed);
    }

    /// Records that `world_rank`'s closure ended. Does not overwrite a
    /// `Failed` mark.
    pub(crate) fn mark_terminated(&self, world_rank: usize) {
        self.mark_dead(world_rank, RankState::Terminated);
    }

    /// Publishes a death, if it is news — to the failure detector, then to
    /// the quiescence registry — and only then rings the doorbells of the
    /// blocked ranks whose wait it can end (see [`Registry::mark_dead`]),
    /// so a woken waiter sees the death. A rank not yet blocked is not
    /// rung: its `block` is refused by the death epoch and it looks again.
    fn mark_dead(&self, world_rank: usize, state: RankState) {
        if self.liveness.publish(world_rank, state) {
            for r in self.quiesce.mark_dead(world_rank, state) {
                self.mailboxes[r].wake_all();
            }
        }
    }
}

/// Marks a rank `Terminated` when its closure ends — normally or by panic —
/// so peers blocked on it observe [`MpiError::PeerTerminated`] instead of
/// deadlocking.
struct TerminationGuard {
    world_rank: usize,
    shared: Arc<SharedState>,
}

impl Drop for TerminationGuard {
    fn drop(&mut self) {
        self.shared.mark_terminated(self.world_rank);
        // The rank no longer counts as active: if it was the last one
        // running, its exit may be the moment of quiescence.
        self.shared.quiesce.done(self.world_rank);
    }
}

/// One rank's whole life on a lent worker thread (see `lend_workers`).
type Job = Box<dyn FnOnce() + Send>;

/// The process's parked rank workers, keyed by stack size (`None`: the
/// `std::thread` default). Each entry is the job queue of one idle OS thread.
static IDLE: Mutex<BTreeMap<Option<usize>, Vec<mpsc::Sender<Job>>>> = Mutex::new(BTreeMap::new());

/// Takes `n` idle workers with `stack_size` from the pool and spawns the
/// shortfall, so the pool grows to the high-water rank count. It never waits
/// for a busy worker: nested and concurrent runs each get their own. A worker
/// runs jobs until its queue's sender is dropped; workers are never joined,
/// since they serve the whole process and a job never unwinds into one.
fn lend_workers(n: usize, stack_size: Option<usize>) -> Vec<mpsc::Sender<Job>> {
    let mut workers = {
        let mut idle = IDLE.lock();
        let idle = idle.entry(stack_size).or_default();
        idle.split_off(idle.len().saturating_sub(n))
    };
    while workers.len() < n {
        let (tx, rx) = mpsc::channel::<Job>();
        let mut builder = std::thread::Builder::new().name("mpisim-rank".into());
        if let Some(bytes) = stack_size {
            builder = builder.stack_size(bytes);
        }
        builder
            .spawn(move || rx.into_iter().for_each(|job| job()))
            .expect("failed to spawn rank thread");
        workers.push(tx);
    }
    workers
}

/// The completion latch of one run: dropping it (on return or unwind) blocks
/// until every job has dropped its clone of `done`.
struct AllJobsEnded {
    done: Option<mpsc::Sender<Infallible>>,
    all_done: mpsc::Receiver<Infallible>,
}

impl Drop for AllJobsEnded {
    fn drop(&mut self) {
        self.done = None;
        // Nothing is ever sent: `recv` returns once the last clone is gone.
        let _ = self.all_done.recv();
    }
}

/// Typed, consolidated configuration for a [`Universe`]: one value covering
/// what used to be separately-chained `with_*` builders (placement,
/// collective policy, stack size, tracing).
/// Build one with the fluent setters and hand it to
/// [`Universe::with_config`] or [`Universe::from_topology`]; the default
/// value reproduces `Universe::new` exactly.
///
/// ```
/// use hetsim::Cluster;
/// use mpisim::{CollectivePolicy, Universe, UniverseConfig};
/// use std::sync::Arc;
///
/// let u = Universe::with_config(
///     Arc::new(Cluster::paper_lan_em3d()),
///     UniverseConfig::new()
///         .collective_policy(CollectivePolicy::Auto)
///         .tracing(true),
/// );
/// assert_eq!(u.size(), 9);
/// ```
#[derive(Clone, Debug, Default)]
pub struct UniverseConfig {
    placement: Option<Vec<NodeId>>,
    collective_policy: CollectivePolicy,
    stack_size: Option<usize>,
    tracing: bool,
}

impl UniverseConfig {
    /// The default configuration: one rank per cluster node, default
    /// stack size, [`CollectivePolicy::Auto`], no tracing.
    pub fn new() -> Self {
        Self::default()
    }

    /// Explicit placement: `placement[world_rank]` is the hosting node.
    /// Unset, the universe runs one rank per cluster node, rank `i` on
    /// node `i` — the paper's "one process per processor" configuration.
    pub fn placement(mut self, placement: Vec<NodeId>) -> Self {
        self.placement = Some(placement);
        self
    }

    /// The collective engine's algorithm policy:
    /// [`CollectivePolicy::Auto`] (the default) prices every eligible flat
    /// algorithm plus the topology's hierarchical plan per call and runs
    /// the predicted-cheapest; [`CollectivePolicy::FlatAuto`] restricts
    /// the choice to flat algorithms; [`CollectivePolicy::Fixed`] pins one
    /// algorithm for every engine collective.
    pub fn collective_policy(mut self, policy: CollectivePolicy) -> Self {
        self.collective_policy = policy;
        self
    }

    /// The stack size (bytes) of the rank worker threads that
    /// [`Universe::run`] lends; workers are pooled per stack size. Unset,
    /// it is the `std::thread` default: 2 MiB, or `RUST_MIN_STACK`. Large
    /// worlds (1k+ ranks) want less; the rank closures used by the benches
    /// and tests run comfortably in a few hundred KiB.
    pub fn stack_size(mut self, bytes: usize) -> Self {
        self.stack_size = Some(bytes);
        self
    }

    /// Virtual-time tracing: when enabled, each run records compute spans,
    /// sends, receives (with their idle-wait split) and higher-level
    /// events into a [`Tracer`] of its own, returned in
    /// [`RunReport::trace`].
    pub fn tracing(mut self, enabled: bool) -> Self {
        self.tracing = enabled;
        self
    }
}

/// A universe describes how many ranks run and where they are placed on the
/// cluster; [`Universe::run`] executes an SPMD closure across them.
///
/// ```
/// use hetsim::{ClusterBuilder, Link, Protocol};
/// use mpisim::{ReduceOp, Universe};
/// use std::sync::Arc;
///
/// let cluster = Arc::new(
///     ClusterBuilder::new()
///         .node("a", 100.0)
///         .node("b", 50.0)
///         .all_to_all(Link::with_defaults(Protocol::Tcp))
///         .build(),
/// );
/// let report = Universe::new(cluster).run(|proc| {
///     let world = proc.world();
///     proc.compute(100.0); // 1 s on "a", 2 s on "b" (virtual time)
///     world.allreduce_eq_i64(&[world.rank() as i64], ReduceOp::Sum).unwrap()[0]
/// });
/// assert_eq!(report.results, vec![1, 1]);
/// assert!(report.makespan.as_secs() >= 2.0);
/// ```
///
/// A universe keeps its collective plans and the pair tables they were
/// priced on across runs, and shares them with its clones: a later run that
/// issues the same calls plans nothing.
#[derive(Clone, Debug)]
pub struct Universe {
    cluster: Arc<Cluster>,
    placement: NodeVec,
    tracing: bool,
    coll_policy: CollectivePolicy,
    stack_size: Option<usize>,
    plans: Arc<PlanStore>,
}

impl Universe {
    /// One rank per cluster node, rank `i` on node `i` — the paper's
    /// "one process per processor" configuration. Shorthand for
    /// [`Universe::with_config`] with the default [`UniverseConfig`].
    pub fn new(cluster: Arc<Cluster>) -> Self {
        Universe::with_config(cluster, UniverseConfig::new())
    }

    /// A universe from a consolidated [`UniverseConfig`] — the one
    /// constructor every knob flows through.
    ///
    /// # Panics
    /// Panics if the configured placement is empty, references a node
    /// outside the cluster, or exceeds a node's slot count.
    pub fn with_config(cluster: Arc<Cluster>, config: UniverseConfig) -> Self {
        let placement = config
            .placement
            .unwrap_or_else(|| cluster.node_ids().collect());
        assert!(!placement.is_empty(), "universe needs at least one rank");
        let mut used = vec![0usize; cluster.len()];
        for &n in &placement {
            assert!(
                n.index() < cluster.len(),
                "placement references node {n:?} outside cluster of {} nodes",
                cluster.len()
            );
            used[n.index()] += 1;
        }
        for (i, &u) in used.iter().enumerate() {
            let slots = cluster.node(NodeId(i)).slots;
            assert!(
                u <= slots,
                "node {i} hosts {u} ranks but has only {slots} slot(s)"
            );
        }
        Universe {
            cluster,
            placement: NodeVec::new(placement.into()),
            tracing: config.tracing,
            coll_policy: config.collective_policy,
            stack_size: config.stack_size,
            plans: Arc::default(),
        }
    }

    /// A universe from a built [`hetsim::Topology`]: the topology's cluster
    /// and placement, plus everything else from `config`. An explicit
    /// [`UniverseConfig::placement`] overrides the topology's own placement
    /// (it must still fit the cluster).
    ///
    /// # Panics
    /// As [`Universe::with_config`].
    pub fn from_topology(topology: Topology, config: UniverseConfig) -> Self {
        let (cluster, placement) = topology.into_parts();
        let config = match config.placement {
            Some(_) => config,
            None => config.placement(placement),
        };
        Universe::with_config(Arc::new(cluster), config)
    }

    /// Number of ranks.
    pub fn size(&self) -> usize {
        self.placement.len()
    }

    /// The cluster the ranks run on.
    pub fn cluster(&self) -> &Arc<Cluster> {
        &self.cluster
    }

    /// Runs `f` on every rank concurrently and collects the per-rank
    /// results and final virtual clocks. Each rank runs on its own OS
    /// thread, a parked worker lent from a process-wide pool (spawned only
    /// when too few with this universe's stack size are idle) and returned
    /// once every rank has finished.
    ///
    /// # Panics
    /// Propagates the lowest-numbered panicking rank's panic (with its rank
    /// number) after every rank has finished.
    pub fn run<R, F>(&self, f: F) -> RunReport<R>
    where
        R: Send,
        F: Fn(&Process) -> R + Sync,
    {
        let n = self.size();
        let mailboxes: Vec<Arc<Mailbox>> = (0..n).map(|_| Arc::new(Mailbox::for_world(n))).collect();
        let agreements = Arc::new(AgreeTable::new());
        let liveness = Arc::new(Liveness::new(n));
        let shared = Arc::new(SharedState {
            cluster: self.cluster.clone(),
            placement: self.placement.clone(),
            quiesce: Arc::new(Registry::new(mailboxes.clone(), agreements.clone(), liveness.clone())),
            doom: {
                let times = self.cluster.crash_times();
                self.placement
                    .iter()
                    .map(|&node| times[node.index()])
                    .collect()
            },
            mailboxes,
            world: Arc::new(Group::world(n)),
            liveness,
            next_ctx: AtomicU64::new(2),
            local_dups: Mutex::new(std::collections::HashMap::new()),
            // Each run traces into its own collector, so concurrent runs
            // of clones never see each other's events.
            tracer: self.tracing.then(|| Arc::new(Tracer::new())),
            coll_policy: self.coll_policy,
            plans: PlanCache::new(self.plans.clone()),
            agreements,
            pool: BufferPool::new(),
        });

        let workers = lend_workers(n, self.stack_size);
        let slots: Vec<_> = (0..n).map(|_| Mutex::new(None)).collect();
        let (done, all_done) = mpsc::channel();
        let wait = AllJobsEnded {
            done: Some(done),
            all_done,
        };
        for (rank, worker) in workers.iter().enumerate() {
            let (shared, f, slot) = (shared.clone(), &f, &slots[rank]);
            let done = wait.done.clone();
            let job = move || {
                let out = std::panic::catch_unwind(AssertUnwindSafe(|| {
                    let _guard = TerminationGuard {
                        world_rank: rank,
                        shared: shared.clone(),
                    };
                    let proc = Process::new(rank, shared);
                    let out = f(&proc);
                    (out, proc.clock().now())
                }));
                *slot.lock() = Some(out);
                drop(done);
            };
            // SAFETY: the job borrows `f` and `slots`, which outlive `wait`.
            // Dropping `wait`, on return or unwind, blocks until every job
            // has dropped its clone of `done`, its last act (or the job was
            // dropped unrun). So no job touches a borrow after `run` leaves.
            let job =
                unsafe { std::mem::transmute::<Box<dyn FnOnce() + Send + '_>, Job>(Box::new(job)) };
            worker.send(job).expect("rank worker exited");
        }
        drop(wait);
        IDLE.lock()
            .entry(self.stack_size)
            .or_default()
            .extend(workers);

        let mut results = Vec::with_capacity(n);
        let mut clocks = Vec::with_capacity(n);
        for (rank, slot) in slots.into_iter().enumerate() {
            match slot.into_inner().expect("every job ended") {
                Ok((r, c)) => {
                    results.push(r);
                    clocks.push(c);
                }
                Err(payload) => {
                    let msg = payload
                        .downcast_ref::<String>()
                        .map(String::as_str)
                        .or_else(|| payload.downcast_ref::<&str>().copied())
                        .unwrap_or("<non-string panic>");
                    panic!("rank {rank} panicked: {msg}");
                }
            }
        }
        let makespan = clocks.iter().copied().fold(SimTime::ZERO, SimTime::max);
        // Drain undelivered messages (fault scenarios leave some behind) so
        // their pooled payloads return to the arena; after this, a nonzero
        // `outstanding` in the pool report is a genuine leak.
        for mb in &shared.mailboxes {
            mb.drain_all();
        }
        RunReport {
            results,
            rank_times: clocks,
            makespan,
            trace: shared.tracer.as_ref().map(|t| t.drain()),
            pool: shared.pool.report(),
            plans: shared.plans.report(),
            wakeups: WakeupReport::sum(&shared.mailboxes),
        }
    }
}

/// What a completed universe run produced.
#[derive(Debug)]
pub struct RunReport<R> {
    /// Per-rank return values, in world-rank order.
    pub results: Vec<R>,
    /// Per-rank final virtual clocks.
    pub rank_times: Vec<SimTime>,
    /// The program's virtual execution time: the maximum final clock.
    pub makespan: SimTime,
    /// The run's virtual-time trace, when the universe was built with
    /// [`UniverseConfig::tracing`].
    pub trace: Option<Trace>,
    /// Snapshot of the rendezvous buffer arena after the run drained:
    /// [`PoolReport::outstanding`] must be zero (simcheck's leak
    /// invariant), and the reuse counters feed the throughput bench.
    pub pool: PoolReport,
    /// The collective plan cache's counters: how many plans the engine
    /// handed out, how many of those were shared rather than built.
    /// Host-side only — never part of the virtual-time trace.
    pub plans: PlanCacheReport,
    /// What the doorbells did: how the run's sleeps ended. Host-side only.
    pub wakeups: WakeupReport,
}

/// How the blocked waits of one run slept, summed over every rank's
/// mailbox doorbell. One counter bump per *sleep*; a receive that finds
/// its message queued never shows up here.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WakeupReport {
    /// Sleeps entered (`rung + backstop`).
    pub slept: u64,
    /// Sleeps ended by a doorbell ring.
    pub rung: u64,
    /// Sleeps that ran their whole wake-up backstop. Legitimate when the
    /// awaited peer is genuinely busy that long in real time.
    pub backstop: u64,
    /// Backstop expiries after which the wait *did* resolve — a message, a
    /// verdict, a dead peer or an agreement outcome was already there, so a
    /// ring was lost. Must be zero (simcheck's `no-missed-wakeup`).
    pub missed: u64,
}

impl WakeupReport {
    fn sum(mailboxes: &[Arc<Mailbox>]) -> Self {
        let mut sum = WakeupReport::default();
        for mb in mailboxes {
            sum.rung += mb.wakes.rung.load(Ordering::Relaxed);
            sum.backstop += mb.wakes.expired.load(Ordering::Relaxed);
            sum.missed += mb.wakes.missed.load(Ordering::Relaxed);
        }
        sum.slept = sum.rung + sum.backstop;
        sum
    }
}

/// A rank's handle to the running universe. Not `Send`: it lives on its
/// rank's thread.
#[derive(Debug)]
pub struct Process {
    world_rank: usize,
    shared: Arc<SharedState>,
    clock: LocalClock,
    /// The rank's contention frontier and send sequence, shared by every
    /// communicator handle it makes.
    net: Rc<RefCell<RankNet>>,
    /// The world communicator's agreement round count, shared by every
    /// [`Process::world`] handle.
    world_agree: Rc<Cell<u64>>,
}

impl Process {
    pub(crate) fn new(world_rank: usize, shared: Arc<SharedState>) -> Self {
        let net = RankNet::new(NetFrontier::new(shared.cluster.contention()));
        Process {
            world_rank,
            shared,
            clock: LocalClock::new(),
            net: Rc::new(RefCell::new(net)),
            world_agree: Rc::new(Cell::new(0)),
        }
    }

    /// This rank's world rank.
    #[inline]
    pub fn world_rank(&self) -> usize {
        self.world_rank
    }

    /// The cluster node hosting this rank.
    #[inline]
    pub fn node(&self) -> NodeId {
        self.shared.placement[self.world_rank]
    }

    /// The cluster node hosting an arbitrary world rank.
    #[inline]
    pub fn node_of(&self, world_rank: usize) -> NodeId {
        self.shared.placement[world_rank]
    }

    /// The full placement vector: `placement[world_rank] = node`.
    #[inline]
    pub fn placement(&self) -> &[NodeId] {
        &self.shared.placement
    }

    /// The run's tracer, when tracing was enabled with
    /// [`UniverseConfig::tracing`] — lets layers above mpisim (e.g. the HMPI
    /// runtime) record their own spans into the same event stream.
    #[inline]
    pub fn tracer(&self) -> Option<&Arc<Tracer>> {
        self.shared.tracer.as_ref()
    }

    /// The cluster model.
    #[inline]
    pub fn cluster(&self) -> &Arc<Cluster> {
        &self.shared.cluster
    }

    /// This rank's virtual clock.
    #[inline]
    pub fn clock(&self) -> &LocalClock {
        &self.clock
    }

    /// Performs `units` benchmark units of computation: advances the clock by
    /// `units / speed(node, now)`.
    ///
    /// # Panics
    /// Panics if this rank's node has fail-stopped (its delivered speed is
    /// zero). Fault-aware programs use [`Process::try_compute`].
    pub fn compute(&self, units: f64) {
        let start = self.clock.now();
        let dt = self.shared.cluster.compute_time(self.node(), units, start);
        self.clock.advance(dt);
        if let Some(tracer) = &self.shared.tracer {
            let mut ev = TraceEvent::new(self.world_rank, TraceKind::Compute, "compute", start);
            ev.dur = dt;
            tracer.record(ev);
        }
    }

    /// Failure-aware computation: like [`Process::compute`] but if this
    /// rank's node fail-stops before the work completes, the clock is clamped
    /// to the crash time, the failure is published to the other ranks, and
    /// [`MpiError::NodeFailed`] (with this rank's own world rank) is
    /// returned. The caller should unwind — this process is dead.
    pub fn try_compute(&self, units: f64) -> MpiResult<()> {
        let node = self.node();
        let now = self.clock.now();
        if let Some(tc) = self.shared.cluster.crash_time(node) {
            if now >= tc {
                self.shared.mark_failed(self.world_rank);
                return Err(MpiError::NodeFailed {
                    world_rank: self.world_rank,
                });
            }
            let dt = self.shared.cluster.compute_time(node, units, now);
            if now + dt >= tc {
                self.clock.set(tc);
                self.shared.mark_failed(self.world_rank);
                return Err(MpiError::NodeFailed {
                    world_rank: self.world_rank,
                });
            }
            self.clock.advance(dt);
            if let Some(tracer) = &self.shared.tracer {
                let mut ev = TraceEvent::new(self.world_rank, TraceKind::Compute, "compute", now);
                ev.dur = dt;
                tracer.record(ev);
            }
            return Ok(());
        }
        self.compute(units);
        Ok(())
    }

    /// True if the failure detector still considers `world_rank` alive —
    /// neither fail-stopped nor exited. A rank is trivially alive to itself.
    pub fn rank_alive(&self, world_rank: usize) -> bool {
        world_rank == self.world_rank || self.shared.liveness.of(world_rank) == RankState::Alive
    }

    /// True if the failure detector has seen `world_rank` fail-stop. A rank
    /// that merely exited its SPMD closure is *not* failed.
    pub fn rank_failed(&self, world_rank: usize) -> bool {
        self.shared.liveness.of(world_rank) == RankState::Failed
    }

    /// The world communicator (`MPI_COMM_WORLD`). Context ids 0/1. Every
    /// handle this returns is the same communicator: they share the rank's
    /// clock, contention frontier, send sequence and agreement rounds, so
    /// asking twice is the same as cloning the first handle.
    pub fn world(&self) -> Comm {
        Comm::world(
            self.world_rank,
            self.shared.clone(),
            self.clock.clone(),
            self.net.clone(),
            self.world_agree.clone(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ReduceOp;
    use hetsim::ClusterBuilder;

    fn tiny_cluster() -> Arc<Cluster> {
        Arc::new(
            ClusterBuilder::new()
                .node("a", 100.0)
                .node("b", 50.0)
                .node("c", 25.0)
                .build(),
        )
    }

    #[test]
    fn ranks_see_their_identity() {
        let u = Universe::new(tiny_cluster());
        let report = u.run(|p| (p.world_rank(), p.world().size(), p.node().index()));
        assert_eq!(report.results, vec![(0, 3, 0), (1, 3, 1), (2, 3, 2)]);
    }

    #[test]
    fn compute_advances_clock_by_speed() {
        let u = Universe::new(tiny_cluster());
        let report = u.run(|p| {
            p.compute(100.0);
            p.clock().now().as_secs()
        });
        // speeds 100, 50, 25 -> times 1, 2, 4
        assert_eq!(report.results, vec![1.0, 2.0, 4.0]);
        assert_eq!(report.makespan.as_secs(), 4.0);
        assert_eq!(report.rank_times[1].as_secs(), 2.0);
    }

    #[test]
    fn custom_placement_reuses_nodes() {
        let cluster = Arc::new(
            ClusterBuilder::new()
                .processor(hetsim::Processor::new("smp", 100.0).with_slots(2))
                .node("b", 50.0)
                .build(),
        );
        let u = Universe::with_config(
            cluster,
            UniverseConfig::new().placement(vec![NodeId(0), NodeId(0), NodeId(1)]),
        );
        let report = u.run(|p| p.node().index());
        assert_eq!(report.results, vec![0, 0, 1]);
    }

    #[test]
    #[should_panic]
    fn placement_overflowing_slots_rejected() {
        let cluster = tiny_cluster();
        let _ = Universe::with_config(
            cluster,
            UniverseConfig::new().placement(vec![NodeId(0), NodeId(0)]),
        );
    }

    #[test]
    fn untraced_runs_carry_no_trace() {
        let u = Universe::new(tiny_cluster());
        let report = u.run(|p| p.compute(10.0));
        assert!(report.trace.is_none());
    }

    #[test]
    fn traced_run_records_compute_and_messages() {
        let u = Universe::with_config(tiny_cluster(), UniverseConfig::new().tracing(true));
        let report = u.run(|p| {
            let world = p.world();
            p.compute(100.0);
            if p.world_rank() == 0 {
                world.send(&[1.0f64, 2.0], 1, 7).unwrap();
            } else if p.world_rank() == 1 {
                let _ = world.recv::<f64>(0, 7).unwrap();
            }
        });
        let trace = report.trace.expect("tracing was enabled");
        assert!(!trace.is_empty());
        let phases = trace.phases(3);
        // speeds 100, 50, 25 -> compute times 1, 2, 4
        assert!((phases[0].compute.as_secs() - 1.0).abs() < 1e-12);
        assert!((phases[2].compute.as_secs() - 4.0).abs() < 1e-12);
        let stats = trace.message_stats(3);
        assert_eq!(stats[0].sent, 1);
        assert_eq!(stats[1].received, 1);
        assert_eq!(stats[0].bytes_sent, 16);
        // A 16-byte payload rides the eager protocol, and the trace says so.
        assert_eq!(stats[0].eager_sent, 1);
        assert_eq!(stats[0].rendezvous_sent, 0);
        let json = trace.to_chrome_json();
        assert!(json.contains("\"cat\":\"send\""));
        assert!(json.contains("\"cat\":\"recv\""));
    }

    /// A universe of `n` ranks on one node with `n` slots.
    fn smp(n: usize, config: UniverseConfig) -> Universe {
        let cluster = Arc::new(
            ClusterBuilder::new()
                .processor(hetsim::Processor::new("smp", 100.0).with_slots(n))
                .build(),
        );
        Universe::with_config(cluster, config.placement(vec![NodeId(0); n]))
    }

    /// The set of worker threads one run of `u` was lent.
    fn worker_ids(u: &Universe) -> std::collections::HashSet<std::thread::ThreadId> {
        u.run(|_| std::thread::current().id())
            .results
            .into_iter()
            .collect()
    }

    #[test]
    fn runs_reuse_parked_workers_of_their_stack_size() {
        // Stack sizes no other test uses, so no parallel test can take
        // these workers between the two runs.
        let u = smp(4, UniverseConfig::new().stack_size(417 * 1024));
        let first = worker_ids(&u);
        assert_eq!(first.len(), 4);
        assert_eq!(worker_ids(&u), first);
        let other = smp(4, UniverseConfig::new().stack_size(419 * 1024));
        assert!(worker_ids(&other).is_disjoint(&first));
    }

    #[test]
    fn a_panicking_rank_terminates_its_peers_and_leaves_the_pool_usable() {
        let u = smp(3, UniverseConfig::new().stack_size(421 * 1024));
        let seen = Mutex::new(None);
        let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
            u.run(|p| match p.world_rank() {
                1 => panic!("boom"),
                0 => *seen.lock() = Some(p.world().recv::<f64>(1, 7).map(|_| ())),
                _ => {}
            })
        }));
        let payload = outcome.expect_err("rank 1's panic propagates");
        let msg = payload
            .downcast_ref::<String>()
            .expect("a formatted message");
        assert_eq!(msg, "rank 1 panicked: boom");
        let peer_terminated = Err(MpiError::PeerTerminated { world_rank: 1 });
        assert_eq!(seen.into_inner(), Some(peer_terminated));
        let sums = u.run(|p| {
            let world = p.world();
            world
                .allreduce_eq_i64(&[world.rank() as i64 + 1], ReduceOp::Sum)
                .unwrap()[0]
        });
        assert_eq!(sums.results, vec![6; 3]);
    }

    #[test]
    fn a_rank_may_run_a_nested_universe() {
        let outer = Universe::new(tiny_cluster());
        let report = outer.run(|p| {
            let (inner, me) = (smp(2, UniverseConfig::new()), p.world_rank());
            let r = inner.run(|q| q.world_rank() + 10 * me);
            r.results.iter().sum::<usize>()
        });
        assert_eq!(report.results, vec![1, 21, 41]);
    }

    #[test]
    fn concurrent_universes_each_get_exact_results() {
        let run_fifty = |ranks: usize| {
            move || {
                for i in 0..50i64 {
                    let u = smp(ranks, UniverseConfig::new());
                    let report = u.run(|p| {
                        let world = p.world();
                        let mine = [world.rank() as i64 * i];
                        world.allreduce_eq_i64(&mine, ReduceOp::Sum).unwrap()[0]
                    });
                    let expect = i * (ranks * (ranks - 1) / 2) as i64;
                    assert_eq!(report.results, vec![expect; ranks]);
                }
            }
        };
        let a = std::thread::spawn(run_fifty(3));
        let b = std::thread::spawn(run_fifty(5));
        a.join().unwrap();
        b.join().unwrap();
    }

    /// Each run collects its own trace: two traced runs of clones of one
    /// universe at the same time get two events each, not all four in one
    /// report and none in the other.
    #[test]
    fn concurrent_traced_runs_of_clones_keep_their_own_events() {
        let u = smp(2, UniverseConfig::new().tracing(true));
        let computed = std::sync::Barrier::new(4);
        let lens: Vec<usize> = std::thread::scope(|s| {
            let runs: Vec<_> = (0..2)
                .map(|_| {
                    let (u, computed) = (u.clone(), &computed);
                    s.spawn(move || {
                        let report = u.run(|p| {
                            p.compute(10.0);
                            computed.wait();
                        });
                        report.trace.expect("tracing was enabled").len()
                    })
                })
                .collect();
            runs.into_iter().map(|r| r.join().unwrap()).collect()
        });
        assert_eq!(lens, vec![2, 2]);
    }

    /// A run that panics before draining its trace leaves no events behind
    /// for the universe's next run.
    #[test]
    fn a_panicked_run_leaves_no_trace_events_behind() {
        let u = smp(2, UniverseConfig::new().tracing(true));
        let panicked = std::panic::catch_unwind(AssertUnwindSafe(|| {
            u.run(|p| {
                p.compute(10.0);
                assert_ne!(p.world_rank(), 1, "boom");
            })
        }));
        assert!(panicked.is_err());
        let report = u.run(|p| p.compute(10.0));
        assert_eq!(report.trace.expect("tracing was enabled").len(), 2);
    }

    #[test]
    #[should_panic(expected = "rank 1 panicked")]
    fn rank_panics_propagate_with_rank() {
        let u = Universe::new(tiny_cluster());
        u.run(|p| {
            if p.world_rank() == 1 {
                panic!("boom");
            }
        });
    }
}
