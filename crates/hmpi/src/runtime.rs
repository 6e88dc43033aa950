//! The HMPI runtime system.
//!
//! [`HmpiRuntime`] owns the simulated cluster and the shared speed
//! estimates; [`HmpiRuntime::run`] executes an SPMD closure with one
//! [`Hmpi`] handle per rank (the per-process face of the runtime, created by
//! `HMPI_Init` in the paper). Group creation follows the paper's protocol:
//! it is "a collective operation and must be called by the parent and all
//! the processes, which are not members of any HMPI group"; the host
//! process solves the selection problem and distributes the result.

use crate::group::HmpiGroup;
use crate::mapping::{select_mapping, Mapping, MappingAlgorithm, SelectError, SelectionCtx};
use crate::spec::{GroupSpec, Recon};
use hetsim::{Cluster, NodeId, SimTime, SpeedEstimates, Topology, TraceEvent, TraceKind};
use mpisim::{
    CollectiveAlgo, CollectiveKind, CollectivePolicy, Comm, MpiError, Process, RunReport, Universe,
    UniverseConfig,
};
use parking_lot::RwLock;
use std::cell::Cell;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Tag used on the control communicator for group-creation messages.
const TAG_GROUP_CREATE: i32 = 1_000_001;
/// Tag for fault-tolerant recon speed reports (rank -> host).
const TAG_RECON: i32 = 1_000_002;
/// Tag for fault-tolerant recon completion acks (host -> rank).
const TAG_RECON_ACK: i32 = 1_000_003;
/// Tag for group-rebuild READY messages (survivor -> host).
const TAG_REBUILD: i32 = 1_000_004;

/// How many times the host re-waits (with exponentially growing deadline)
/// for a recon report before declaring the rank dead.
const RECON_ATTEMPTS: u32 = 3;

/// Errors surfaced by the HMPI layer.
#[derive(Debug, Clone, PartialEq)]
pub enum HmpiError {
    /// The group-selection search failed.
    Select(SelectError),
    /// An underlying message-passing operation failed.
    Mpi(MpiError),
    /// The calling process is neither the host nor free, so it may not take
    /// part in `group_create`.
    NotEligible,
    /// `group_free` was called by a process that is not a member.
    NotMember,
    /// The coordinator aborted a collective group operation for a reason it
    /// could not transmit (e.g. its model factory failed during a rebuild).
    Aborted,
    /// A caller-supplied argument was unusable (e.g. a non-positive or
    /// non-finite benchmark volume passed to a recon).
    InvalidArgument(String),
}

impl fmt::Display for HmpiError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HmpiError::Select(e) => write!(f, "selection failed: {e}"),
            HmpiError::Mpi(e) => write!(f, "MPI error: {e}"),
            HmpiError::NotEligible => write!(
                f,
                "group_create may only be called by the host and free processes"
            ),
            HmpiError::NotMember => write!(f, "calling process is not a member of the group"),
            HmpiError::Aborted => {
                write!(f, "the coordinator aborted the collective group operation")
            }
            HmpiError::InvalidArgument(msg) => write!(f, "invalid argument: {msg}"),
        }
    }
}

impl std::error::Error for HmpiError {}

impl From<MpiError> for HmpiError {
    fn from(e: MpiError) -> Self {
        HmpiError::Mpi(e)
    }
}

impl From<SelectError> for HmpiError {
    fn from(e: SelectError) -> Self {
        HmpiError::Select(e)
    }
}

/// Result alias for HMPI operations.
pub type HmpiResult<T> = Result<T, HmpiError>;

/// A speed measurement or report that may safely enter the shared
/// [`SpeedEstimates`]: positive and finite. Anything else (`+inf` from a
/// zero or subnormal elapsed time, `NaN`, a garbage report from a
/// misbehaving rank) would poison every subsequent group selection.
fn usable_speed(s: f64) -> bool {
    s.is_finite() && s > 0.0
}

/// Validates a caller-supplied benchmark volume.
fn validate_volume(name: &str, v: f64) -> HmpiResult<()> {
    if v.is_finite() && v > 0.0 {
        Ok(())
    } else {
        Err(HmpiError::InvalidArgument(format!(
            "{name} must be positive and finite, got {v}"
        )))
    }
}

/// Encodes a coordinator-side failure as a group-creation abort sentinel.
/// Real payloads start with a group id `>= 1`, so a leading `0` is
/// unambiguous.
fn encode_group_abort(e: &HmpiError) -> Vec<i64> {
    match e {
        HmpiError::Select(SelectError::NotEnoughProcesses {
            required,
            available,
        }) => vec![0, 0, *required as i64, *available as i64],
        HmpiError::Select(SelectError::ParentNotCandidate { world_rank }) => {
            vec![0, 1, *world_rank as i64, 0]
        }
        _ => vec![0, 2, 0, 0],
    }
}

/// Inverse of [`encode_group_abort`] on the participant side.
fn decode_group_abort(payload: &[i64]) -> HmpiError {
    match payload.get(1) {
        Some(0) => HmpiError::Select(SelectError::NotEnoughProcesses {
            required: payload.get(2).map_or(0, |&n| n as usize),
            available: payload.get(3).map_or(0, |&n| n as usize),
        }),
        Some(1) => HmpiError::Select(SelectError::ParentNotCandidate {
            world_rank: payload.get(2).map_or(0, |&n| n as usize),
        }),
        _ => HmpiError::Aborted,
    }
}

/// Which collective operation is running the group-formation protocol.
/// `group_create` and `rebuild_group` share it and differ in three places:
/// the `Selection` trace span, whether the payload header carries the
/// model's parent (3 words vs 4), and whether an unreachable participant
/// fails the call.
#[derive(Clone, Copy, PartialEq)]
enum Formation {
    Create,
    Rebuild,
}

/// Typed configuration for an [`HmpiRuntime`], consolidating the former
/// `HmpiRuntime::with_*` builder pile (and, through the wrapped
/// [`UniverseConfig`], the `Universe::with_*` pile) into one value that is
/// handed to [`HmpiRuntime::with_config`] or [`HmpiRuntime::from_topology`].
///
/// ```
/// use hmpi::{HmpiRuntime, MappingAlgorithm, RuntimeConfig};
/// use hetsim::Cluster;
/// use std::sync::Arc;
///
/// let rt = HmpiRuntime::with_config(
///     Arc::new(Cluster::paper_lan_em3d()),
///     RuntimeConfig::new()
///         .mapping_algorithm(MappingAlgorithm::Exhaustive)
///         .tracing(true),
/// );
/// assert_eq!(rt.universe().size(), 9);
/// ```
#[derive(Clone, Debug, Default)]
pub struct RuntimeConfig {
    universe: UniverseConfig,
    mapping_algorithm: MappingAlgorithm,
}

impl RuntimeConfig {
    /// All defaults: one rank per node, automatic collective selection,
    /// the default group-selection algorithm, no tracing.
    pub fn new() -> Self {
        Self::default()
    }

    /// Explicit rank placement (see [`UniverseConfig::placement`]).
    pub fn placement(mut self, placement: Vec<NodeId>) -> Self {
        self.universe = self.universe.placement(placement);
        self
    }

    /// Collective-algorithm policy of the underlying universe (see
    /// [`UniverseConfig::collective_policy`]).
    pub fn collective_policy(mut self, policy: CollectivePolicy) -> Self {
        self.universe = self.universe.collective_policy(policy);
        self
    }

    /// Per-rank OS thread stack size (see [`UniverseConfig::stack_size`]).
    pub fn stack_size(mut self, bytes: usize) -> Self {
        self.universe = self.universe.stack_size(bytes);
        self
    }

    /// Enables virtual-time tracing (see [`UniverseConfig::tracing`]).
    pub fn tracing(mut self, enabled: bool) -> Self {
        self.universe = self.universe.tracing(enabled);
        self
    }

    /// Default group-selection algorithm for [`Hmpi::group_create`] calls
    /// that do not pin one via [`crate::GroupSpec::algorithm`].
    pub fn mapping_algorithm(mut self, algo: MappingAlgorithm) -> Self {
        self.mapping_algorithm = algo;
        self
    }
}

/// Global (cross-rank) state of a running HMPI universe.
#[derive(Debug)]
struct HmpiShared {
    /// `free[world_rank]`: not currently a member of any HMPI group.
    free: RwLock<Vec<bool>>,
    next_group_id: AtomicU64,
}

/// The HMPI runtime: a simulated heterogeneous cluster plus the shared,
/// `HMPI_Recon`-refreshable speed estimates.
///
/// ```
/// use hetsim::{ClusterBuilder, Link, Protocol};
/// use hmpi::HmpiRuntime;
/// use perfmodel::ModelBuilder;
/// use std::sync::Arc;
///
/// let cluster = Arc::new(
///     ClusterBuilder::new()
///         .node("host", 50.0)
///         .node("fast", 200.0)
///         .node("slow", 10.0)
///         .all_to_all(Link::with_defaults(Protocol::Tcp))
///         .build(),
/// );
/// let runtime = HmpiRuntime::new(cluster);
/// let report = runtime.run(|h| {
///     h.recon(10.0).unwrap();
///     let model = ModelBuilder::new("two-tasks")
///         .processors(2)
///         .volumes(vec![10.0, 400.0])
///         .build()
///         .unwrap();
///     let group = h.group_create(&model).unwrap();
///     let members = group.members().to_vec();
///     if group.is_member() {
///         h.group_free(group).unwrap();
///     }
///     members
/// });
/// // The heavy abstract processor lands on the fast machine; the parent
/// // stays on the host.
/// assert_eq!(report.results[0], vec![0, 1]);
/// ```
#[derive(Debug, Clone)]
pub struct HmpiRuntime {
    universe: Universe,
    estimates: SpeedEstimates,
    default_algo: MappingAlgorithm,
}

impl HmpiRuntime {
    /// A runtime with one process per cluster node and all defaults (the
    /// paper's standard configuration).
    pub fn new(cluster: Arc<Cluster>) -> Self {
        HmpiRuntime::with_config(cluster, RuntimeConfig::new())
    }

    /// A runtime configured by a [`RuntimeConfig`] — the one constructor
    /// every other entry point forwards to.
    pub fn with_config(cluster: Arc<Cluster>, config: RuntimeConfig) -> Self {
        let estimates = SpeedEstimates::from_base_speeds(&cluster);
        HmpiRuntime {
            universe: Universe::with_config(cluster, config.universe),
            estimates,
            default_algo: config.mapping_algorithm,
        }
    }

    /// A runtime over a [`hetsim::Topology`] (cluster plus rank placement,
    /// as produced by [`hetsim::TopologyBuilder::build`]). An explicit
    /// [`RuntimeConfig::placement`] overrides the topology's own.
    pub fn from_topology(topology: Topology, config: RuntimeConfig) -> Self {
        let universe = Universe::from_topology(topology, config.universe);
        let estimates = SpeedEstimates::from_base_speeds(universe.cluster());
        HmpiRuntime {
            universe,
            estimates,
            default_algo: config.mapping_algorithm,
        }
    }

    /// The shared speed estimates (initially the cluster's base speeds;
    /// refreshed by [`Hmpi::recon`]).
    pub fn estimates(&self) -> &SpeedEstimates {
        &self.estimates
    }

    /// The underlying universe.
    pub fn universe(&self) -> &Universe {
        &self.universe
    }

    /// Runs an SPMD closure on every rank, giving each its [`Hmpi`] handle.
    /// Corresponds to launching the application and having every process
    /// call `HMPI_Init`.
    pub fn run<R, F>(&self, f: F) -> RunReport<R>
    where
        R: Send,
        F: Fn(&Hmpi) -> R + Sync,
    {
        let n = self.universe.size();
        let shared = Arc::new(HmpiShared {
            free: RwLock::new(vec![true; n]),
            next_group_id: AtomicU64::new(1),
        });
        let estimates = self.estimates.clone();
        let algo = self.default_algo;
        self.universe.run(move |proc| {
            let world = proc.world();
            // The control communicator carries the group-creation protocol,
            // so it can never collide with application traffic on
            // HMPI_COMM_WORLD. It is created with the non-collective dup:
            // a collective dup's broadcast would abort init with
            // `NodeFailed` if any node crashed before every rank got
            // through it, and init must succeed on live ranks — failures
            // surface later as typed errors from actual operations.
            let control = world.dup_local(0);
            let hmpi = Hmpi {
                proc,
                world,
                control,
                estimates: estimates.clone(),
                shared: shared.clone(),
                memberships: Cell::new(0),
                default_algo: algo,
            };
            f(&hmpi)
        })
    }
}

/// A rank's handle to the HMPI runtime (what the paper's per-process
/// `HMPI_Init` sets up). Not `Send` — it belongs to its rank thread.
#[derive(Debug)]
pub struct Hmpi<'a> {
    proc: &'a Process,
    world: Comm,
    control: Comm,
    estimates: SpeedEstimates,
    shared: Arc<HmpiShared>,
    memberships: Cell<usize>,
    default_algo: MappingAlgorithm,
}

impl Hmpi<'_> {
    /// `HMPI_COMM_WORLD`: the predefined communication universe.
    pub fn world(&self) -> &Comm {
        &self.world
    }

    /// The underlying process handle.
    pub fn process(&self) -> &Process {
        self.proc
    }

    /// This process's rank in `HMPI_COMM_WORLD`.
    pub fn rank(&self) -> usize {
        self.world.rank()
    }

    /// Number of processes in the universe.
    pub fn size(&self) -> usize {
        self.world.size()
    }

    /// `HMPI_Is_host`: the host is the process with world rank 0 (the mpC
    /// host-process notion).
    pub fn is_host(&self) -> bool {
        self.world.rank() == 0
    }

    /// `HMPI_Is_free`: not the host and not currently a member of any HMPI
    /// group.
    pub fn is_free(&self) -> bool {
        !self.is_host() && self.memberships.get() == 0
    }

    /// The cluster node hosting this rank.
    pub fn node(&self) -> NodeId {
        self.proc.node()
    }

    /// Current virtual time on this rank.
    pub fn now(&self) -> SimTime {
        self.proc.clock().now()
    }

    /// Performs `units` benchmark units of computation (advances virtual
    /// time by `units / true_speed(node, now)`).
    ///
    /// # Panics
    /// Panics if this rank's node has fail-stopped; fault-aware programs use
    /// [`Hmpi::try_compute`].
    pub fn compute(&self, units: f64) {
        self.proc.compute(units);
    }

    /// Failure-aware computation: if this rank's node fail-stops before the
    /// work completes, the failure is published to the runtime and
    /// `HmpiError::Mpi(MpiError::NodeFailed)` (own world rank) is returned —
    /// the caller should unwind into its recovery path.
    pub fn try_compute(&self, units: f64) -> HmpiResult<()> {
        Ok(self.proc.try_compute(units)?)
    }

    /// World ranks the runtime still believes alive: neither observed
    /// fail-stopped or exited by the failure detector, nor marked
    /// unavailable in the speed estimates by a recon.
    pub fn alive_world_ranks(&self) -> Vec<usize> {
        (0..self.size())
            .filter(|&r| {
                self.proc.rank_alive(r) && self.estimates.is_available(self.proc.node_of(r))
            })
            .collect()
    }

    /// The runtime's current speed estimates.
    pub fn estimates(&self) -> &SpeedEstimates {
        &self.estimates
    }

    /// `HMPI_Recon`: every process runs a benchmark of `units` benchmark
    /// units in parallel; the elapsed virtual times refresh the shared speed
    /// estimates. Collective over `HMPI_COMM_WORLD`.
    ///
    /// On a cluster with a fault plan this takes the fault-tolerant
    /// point-to-point protocol (doubling as the runtime's failure
    /// detector); on a fault-free cluster it takes the classic collective
    /// path. Equivalent to `recon_opts(Recon::new(units))`; see
    /// [`Hmpi::recon_opts`] for the full option set.
    ///
    /// # Errors
    /// As [`Hmpi::recon_opts`].
    pub fn recon(&self, units: f64) -> HmpiResult<()> {
        self.recon_opts(Recon::new(units))
    }

    /// `HMPI_Recon` with the full option set, gathered in a [`Recon`]
    /// builder: a custom nominal/work split, a caller-supplied benchmark
    /// body, and an explicit choice of protocol. Collective over
    /// `HMPI_COMM_WORLD` (on the fault-tolerant path: over the host and
    /// every live process).
    ///
    /// On the fault-tolerant path, instead of an allgather (which a single
    /// dead rank would abort), every process reports its measured speed to
    /// the host point-to-point; the host collects the reports with
    /// virtual-time deadlines, retrying up to `RECON_ATTEMPTS` (3) times
    /// with exponential backoff so a transiently slowed node
    /// (`FaultEvent::NodeSlowdown`) gets time to answer. A rank that stays
    /// silent — or whose death the failure detector has already observed —
    /// has its node marked unavailable in the [`SpeedEstimates`], excluding
    /// it from all future group selections. Speeds of live nodes are
    /// refreshed; dead nodes keep their last estimate but are never planned
    /// with again. The host is assumed to survive (the paper's host process
    /// anchors the whole runtime; its failure is unrecoverable).
    ///
    /// # Errors
    /// [`HmpiError::InvalidArgument`] for a non-positive or non-finite
    /// benchmark volume (checked before any computation or communication,
    /// so every rank fails consistently); transport errors from the
    /// internal allgather (collective path); on the fault-tolerant path,
    /// `HmpiError::Mpi(MpiError::NodeFailed)` if the caller's node crashes
    /// during the benchmark, and on non-host ranks transport errors if the
    /// host dies.
    pub fn recon_opts<F>(&self, opts: Recon<F>) -> HmpiResult<()>
    where
        F: FnOnce(&Self),
    {
        validate_volume("nominal_units", opts.nominal_units)?;
        let work = opts.work_units.unwrap_or(opts.nominal_units);
        validate_volume("work_units", work)?;
        let ft = opts
            .fault_tolerant
            .unwrap_or_else(|| !self.proc.cluster().faults().is_empty());
        match (ft, opts.bench) {
            (true, Some(b)) => self.recon_p2p(opts.nominal_units, work, |h| {
                b(h);
                Ok(())
            }),
            (true, None) => self.recon_p2p(opts.nominal_units, work, |h| h.try_compute(work)),
            (false, Some(b)) => self.recon_collective(opts.nominal_units, b),
            (false, None) => self.recon_collective(opts.nominal_units, |h| h.compute(work)),
        }
    }

    /// The fault-tolerant point-to-point recon protocol (see
    /// [`Hmpi::recon_opts`]). `work_units` sizes the host's per-rank
    /// deadlines; `bench` performs the actual benchmark on the calling
    /// rank. Volumes are pre-validated by the caller.
    fn recon_p2p(
        &self,
        nominal_units: f64,
        work_units: f64,
        bench: impl FnOnce(&Self) -> HmpiResult<()>,
    ) -> HmpiResult<()> {
        let t0 = self.now();
        bench(self)?;
        let elapsed = (self.now() - t0).as_secs();
        let my_speed = self.derive_speed(nominal_units, elapsed);

        if !self.is_host() {
            self.control.send(&[my_speed], 0, TAG_RECON)?;
            // Wait (unbounded) for the host's ack that the refresh landed;
            // aborts with an error if the host dies.
            let (ack, _) = self.control.recv::<i64>(0, TAG_RECON_ACK)?;
            self.trace_span(
                TraceKind::Recon,
                "recon_ft",
                t0,
                Some(format!("generation={}", ack.first().copied().unwrap_or(0))),
            );
            return Ok(());
        }

        let cluster = self.proc.cluster().clone();
        let mut speeds = self.estimates.snapshot();
        speeds[self.node().index()] = my_speed;
        let mut responded = vec![false; self.size()];
        let mut missing = Vec::new();
        for (r, responded_r) in responded.iter_mut().enumerate().skip(1) {
            let node = self.proc.node_of(r);
            if !self.estimates.is_available(node) {
                continue; // declared dead by an earlier recon
            }
            // Size the deadline from the *true* delivered speed (what the
            // benchmark will actually experience), so an active slowdown
            // cannot masquerade as a death.
            let true_speed = cluster.speed_at(node, self.now());
            if true_speed <= 0.0 {
                // The node has crashed by the host's current virtual time.
                self.estimates.mark_unavailable(node);
                continue;
            }
            let mut timeout = SimTime::from_secs(2.0 * work_units / true_speed + 1.0);
            let mut report = None;
            for _ in 0..RECON_ATTEMPTS {
                match self.control.recv_timeout::<f64>(r, TAG_RECON, timeout) {
                    Ok((v, _)) => {
                        report = Some(v[0]);
                        break;
                    }
                    Err(MpiError::Timeout) => timeout = timeout + timeout,
                    Err(_) => break, // observed dead: no point retrying
                }
            }
            match report {
                // A live rank whose report is unusable (it should have
                // guarded the division itself, but the host cannot trust
                // that) keeps its previous estimate — the snapshot value
                // already in `speeds` — and still gets its ack.
                Some(s) => {
                    if usable_speed(s) {
                        speeds[node.index()] = s;
                    }
                    *responded_r = true;
                }
                None => missing.push((r, node)),
            }
        }
        // Late-report sweep: a rank that missed every per-rank deadline may
        // still be live — its report merely landed after the host gave up
        // (deadlines are sized from delivered speeds and can run short
        // under contention). Condemning it without an ack would strand the
        // rank in its unbounded ack wait and turn mere slowness into a real
        // deadlock at the next collective, so probe for a queued report
        // before declaring anyone dead. The probe is non-blocking: a rank
        // that truly crashed has nothing queued and stays condemned.
        for (r, node) in missing {
            if self.control.iprobe(Some(r), Some(TAG_RECON))?.is_some() {
                let (v, _) = self.control.recv::<f64>(r, TAG_RECON)?;
                if v.first().copied().is_some_and(usable_speed) {
                    speeds[node.index()] = v[0];
                }
                responded[r] = true;
            } else {
                self.estimates.mark_unavailable(node);
            }
        }
        self.estimates.refresh_available(speeds);
        let generation = self.estimates.generation() as i64;
        for (r, &ok) in responded.iter().enumerate() {
            if ok {
                // A rank that died right after reporting makes this send
                // fail; it no longer needs the ack, so ignore the error.
                let _ = self.control.send(&[generation], r, TAG_RECON_ACK);
            }
        }
        self.trace_span(
            TraceKind::Recon,
            "recon_ft",
            t0,
            Some(format!("generation={generation}")),
        );
        Ok(())
    }

    /// The classic collective recon path (see [`Hmpi::recon_opts`]). The
    /// nominal volume is pre-validated by the caller.
    fn recon_collective(&self, nominal_units: f64, bench: impl FnOnce(&Self)) -> HmpiResult<()> {
        let t0 = self.now();
        bench(self);
        let elapsed = (self.now() - t0).as_secs();
        let my_speed = self.derive_speed(nominal_units, elapsed);
        let all = self.world.allgather(&[my_speed])?;
        // Synchronise before refreshing so every rank sees the update.
        self.world.barrier()?;
        if self.is_host() {
            let mut per_node = self.estimates.snapshot();
            for (rank, speeds) in all.iter().enumerate() {
                // An unusable gathered value (a rank that skipped its own
                // guard) keeps that node's previous estimate rather than
                // poisoning the shared state with `+inf`/`NaN`.
                if speeds.first().copied().is_some_and(usable_speed) {
                    per_node[self.proc.node_of(rank).index()] = speeds[0];
                }
            }
            self.estimates.refresh(per_node);
        }
        self.world.barrier()?;
        self.trace_span(
            TraceKind::Recon,
            "recon",
            t0,
            Some(format!("generation={}", self.estimates.generation())),
        );
        Ok(())
    }

    /// Speed measured by a benchmark run, guarded against the zero/subnormal
    /// `elapsed` that would overflow the division to `+inf`: an unusable
    /// measurement keeps the node's previous estimate ("a zero-cost
    /// benchmark measures nothing").
    fn derive_speed(&self, nominal_units: f64, elapsed: f64) -> f64 {
        let s = nominal_units / elapsed;
        if elapsed > 0.0 && usable_speed(s) {
            s
        } else {
            self.estimates.speed(self.node())
        }
    }

    /// Records a span `[start, now]` into the universe's tracer, when
    /// tracing is on. One `Option` check when it is not.
    fn trace_span(
        &self,
        kind: TraceKind,
        name: &'static str,
        start: SimTime,
        info: Option<String>,
    ) {
        if let Some(tracer) = self.proc.tracer() {
            let mut ev = TraceEvent::new(self.rank(), kind, name, start);
            ev.dur = self.now() - start;
            ev.info = info;
            tracer.record(ev);
        }
    }

    /// The selection problem a parent at `parent_world` may solve now: over
    /// itself plus every free rank believed alive.
    fn selection_ctx_for(&self, parent_world: usize) -> SelectionCtx<'_> {
        let free = self.shared.free.read();
        let mut candidates: Vec<usize> = vec![parent_world];
        // Free ranks that are also believed alive: ranks observed
        // fail-stopped by the failure detector or marked unavailable by a
        // recon never enter the selection search, so new groups route around
        // failures.
        candidates.extend((0..self.size()).filter(|&r| {
            r != parent_world
                && free[r]
                && !self.proc.rank_failed(r)
                && self.estimates.is_available(self.proc.node_of(r))
        }));
        self.selection_ctx_over(candidates, parent_world)
    }

    /// The one place a [`SelectionCtx`] is built: `candidates` (distinct
    /// world ranks, the parent among them) under the runtime's current
    /// view of the network.
    fn selection_ctx_over(&self, candidates: Vec<usize>, parent_world: usize) -> SelectionCtx<'_> {
        SelectionCtx {
            cluster: self.proc.cluster(),
            placement: self.proc.placement(),
            estimates: &self.estimates,
            candidates,
            pinned_parent: Some(parent_world),
        }
    }

    /// `HMPI_Timeof`: predicts the execution time of the algorithm described
    /// by `model` on the best group the runtime could currently select,
    /// without executing it. Local operation.
    ///
    /// # Errors
    /// [`HmpiError::Select`] if the model needs more processes than are
    /// available.
    pub fn timeof(&self, model: &dyn perfmodel::PerformanceModel) -> HmpiResult<f64> {
        Ok(self.timeof_mapping(model)?.predicted)
    }

    /// Like [`Hmpi::timeof`] but also reports the mapping the prediction is
    /// for.
    ///
    /// # Errors
    /// As [`Hmpi::timeof`].
    pub fn timeof_mapping(
        &self,
        model: &dyn perfmodel::PerformanceModel,
    ) -> HmpiResult<Mapping> {
        let ctx = self.selection_ctx_for(0);
        Ok(select_mapping(self.default_algo, model, &ctx)?)
    }

    /// `HMPI_Timeof` for the collective engine: the algorithm the engine
    /// would select for a `kind` collective of `elems` elements of
    /// `elem_bytes` bytes over `HMPI_COMM_WORLD`, plus its predicted
    /// virtual time — without executing anything. Local operation.
    ///
    /// The prediction replays the exact communication schedule the engine
    /// would run against the cluster's link table, so it carries the same
    /// accuracy contract as the engine itself (see `mpisim::engine`).
    ///
    /// # Errors
    /// [`HmpiError::Mpi`] wrapping `MpiError::InvalidRank` if `root` is
    /// outside `HMPI_COMM_WORLD`.
    pub fn timeof_collective(
        &self,
        kind: CollectiveKind,
        root: usize,
        elems: usize,
        elem_bytes: usize,
    ) -> HmpiResult<(CollectiveAlgo, f64)> {
        Ok(self.world.predict_collective(kind, root, elems, elem_bytes)?)
    }

    /// Chooses among algorithm variants by predicted execution time — the
    /// paper's motivation for `HMPI_Timeof`: "write such a parallel
    /// application that can follow different parallel algorithms to solve
    /// the same problem, making choice at runtime depending on the
    /// particular executing network and its actual performance."
    ///
    /// Returns `(index, predicted_time)` of the fastest variant, or `None`
    /// if the iterator is empty or no variant is feasible. Local operation.
    pub fn choose_best<'m>(
        &self,
        variants: impl IntoIterator<Item = &'m dyn perfmodel::PerformanceModel>,
    ) -> Option<(usize, f64)> {
        self.timeof_sweep(variants).unwrap_or(None)
    }

    /// Like [`Hmpi::choose_best`] but does not swallow failures: infeasible
    /// or broken variants are still skipped while any variant succeeds, but
    /// if *every* variant fails the first error is returned instead of a
    /// silent `None` — an always-failing model can't masquerade as an empty
    /// sweep. `Ok(None)` means the iterator was empty.
    ///
    /// # Errors
    /// The first `timeof` error, when no variant evaluates successfully.
    pub fn timeof_sweep<'m>(
        &self,
        variants: impl IntoIterator<Item = &'m dyn perfmodel::PerformanceModel>,
    ) -> HmpiResult<Option<(usize, f64)>> {
        let mut best: Option<(usize, f64)> = None;
        let mut first_err: Option<HmpiError> = None;
        let mut any_ok = false;
        for (i, model) in variants.into_iter().enumerate() {
            match self.timeof(model) {
                Ok(t) => {
                    any_ok = true;
                    if best.is_none_or(|(_, bt)| t < bt) {
                        best = Some((i, t));
                    }
                }
                Err(e) => {
                    if first_err.is_none() {
                        first_err = Some(e);
                    }
                }
            }
        }
        match (any_ok, first_err) {
            (false, Some(e)) => Err(e),
            _ => Ok(best),
        }
    }

    /// `HMPI_Group_create`: collectively creates a group of processes that
    /// executes the modelled algorithm faster than any other group. Must be
    /// called by the parent (the host, unless [`GroupSpec::placement`] says
    /// otherwise) and by every free process.
    ///
    /// Takes anything convertible into a [`GroupSpec`]: a plain model
    /// reference for the all-defaults case (`h.group_create(&model)`), or a
    /// builder chain for the selection algorithm and parent placement
    /// (`h.group_create(GroupSpec::new(&model).algorithm(a).placement(p))`).
    /// A non-host parent pins the model's `parent` processor to that rank —
    /// the paper's general form where "every newly created group has
    /// exactly one process shared with already existing groups".
    ///
    /// The parent solves the selection problem against the current speed
    /// estimates and distributes `(group id, context, member list)` to every
    /// participant; selected processes construct the group communicator,
    /// unselected ones receive a non-member handle and stay free.
    ///
    /// Concurrent creations by *different* parents are not serialised by the
    /// runtime; the program must order them (as the paper's collective
    /// calling convention implies).
    ///
    /// # Errors
    /// [`HmpiError::NotEligible`] if the caller is neither the parent nor
    /// free; [`HmpiError::InvalidArgument`] if the spec's placement rank is
    /// outside the world; [`HmpiError::Select`] on infeasible models;
    /// transport errors otherwise.
    pub fn group_create<'m>(&self, spec: impl Into<GroupSpec<'m>>) -> HmpiResult<HmpiGroup> {
        let GroupSpec {
            model,
            algorithm,
            parent_world,
        } = spec.into();
        if parent_world >= self.size() {
            return Err(HmpiError::InvalidArgument(format!(
                "group parent rank {parent_world} outside world 0..{}",
                self.size()
            )));
        }
        if self.rank() != parent_world {
            // Eligibility is judged from rank-local state: the coordinator
            // may already have flipped this rank's shared flag for the
            // in-flight creation before the rank reaches this call.
            if self.memberships.get() > 0 {
                return Err(HmpiError::NotEligible);
            }
            return self.join_group(parent_world, Some(model.parent()));
        }
        let algo = algorithm.unwrap_or(self.default_algo);
        let ctx = self.selection_ctx_for(parent_world);
        self.form_group(Formation::Create, algo, model, &ctx)
    }

    /// Parent side of the group-formation protocol `group_create` and
    /// `rebuild_group` share: solve the selection problem over `ctx`, mark
    /// the chosen members busy, allocate the group's id and communication
    /// context, and send `[id, context, predicted bits, members..]` to every
    /// other candidate — or the abort sentinel when the selection is
    /// infeasible.
    fn form_group(
        &self,
        how: Formation,
        algo: MappingAlgorithm,
        model: &dyn perfmodel::PerformanceModel,
        ctx: &SelectionCtx<'_>,
    ) -> HmpiResult<HmpiGroup> {
        let start = self.now();
        let mapping = match select_mapping(algo, model, ctx) {
            Ok(m) => m,
            Err(e) => return Err(self.abort_formation(&ctx.candidates, e.into())),
        };
        let n = ctx.candidates.len();
        let (span, scope) = match how {
            Formation::Create => ("group_create", format!("algo={algo:?} candidates={n}")),
            Formation::Rebuild => ("rebuild_group", format!("survivors={n}")),
        };
        self.trace_span(
            TraceKind::Selection,
            span,
            start,
            Some(format!(
                "{scope} evals={} probes={} predicted={:.6e}",
                mapping.stats.evals, mapping.stats.probes, mapping.predicted
            )),
        );
        // The parent marks the selected members busy immediately, so a
        // subsequent group_create on it cannot re-select a member that has
        // not yet processed its payload.
        self.set_free(&mapping.assignment, false);
        let id = self.shared.next_group_id.fetch_add(1, Ordering::Relaxed);
        let ctx_id = self.control.alloc_ctx();
        // A rebuild's joiners never see the model the host selected
        // against, so there the header carries its parent.
        let known_parent = (how == Formation::Create).then(|| model.parent());
        let mut payload = vec![id as i64, ctx_id as i64, mapping.predicted.to_bits() as i64];
        if known_parent.is_none() {
            payload.push(model.parent() as i64);
        }
        payload.extend(mapping.assignment.iter().map(|&w| w as i64));
        for &r in ctx.candidates.iter().filter(|&&r| r != self.rank()) {
            let sent = self.control.send(&payload, r, TAG_GROUP_CREATE);
            // A survivor that dies here misses a rebuild's payload; the
            // next rebuild round catches it.
            if how == Formation::Create {
                sent?;
            }
        }
        self.adopt_group(&payload, known_parent)
    }

    /// Flips the shared free flags of `ranks`.
    fn set_free(&self, ranks: &[usize], free: bool) {
        let mut flags = self.shared.free.write();
        for &w in ranks {
            flags[w] = free;
        }
    }

    /// Tells every waiting participant that a group formation is off — or
    /// it would block on a payload that never comes — and hands `e` back.
    fn abort_formation(&self, participants: &[usize], e: HmpiError) -> HmpiError {
        let sentinel = encode_group_abort(&e);
        for &r in participants.iter().filter(|&&r| r != self.rank()) {
            let _ = self.control.send(&sentinel, r, TAG_GROUP_CREATE);
        }
        e
    }

    /// Joiner side of the group-formation protocol: wait for the parent's
    /// outcome. `parent_abs` is `None` when the payload header carries it
    /// (a rebuild).
    fn join_group(&self, parent_world: usize, parent_abs: Option<usize>) -> HmpiResult<HmpiGroup> {
        let (payload, _) = self.control.recv::<i64>(parent_world, TAG_GROUP_CREATE)?;
        self.adopt_group(&payload, parent_abs)
    }

    /// Last step on both sides, the parent reading the payload it sent:
    /// selected processes construct the group's communicator and count the
    /// membership, the others get a non-member handle and stay free.
    fn adopt_group(&self, payload: &[i64], parent_abs: Option<usize>) -> HmpiResult<HmpiGroup> {
        if payload[0] == 0 {
            return Err(decode_group_abort(payload));
        }
        let (parent_abs, members) = match parent_abs {
            Some(abs) => (abs, &payload[3..]),
            None => (payload[3] as usize, &payload[4..]),
        };
        let members: Vec<usize> = members.iter().map(|&w| w as usize).collect();
        let group = mpisim::Group::from_world_ranks(members.clone())?;
        let comm = self.control.subset_with_ctx(&group, payload[1] as u64)?;
        if comm.is_some() {
            self.memberships.set(self.memberships.get() + 1);
        }
        Ok(HmpiGroup {
            id: payload[0] as u64,
            members,
            comm,
            parent_abs,
            predicted: f64::from_bits(payload[2] as u64),
        })
    }

    /// Shrink recovery: collectively rebuilds a group whose members started
    /// failing, on the survivors only.
    ///
    /// The old handle is consumed. Every *surviving* member (including the
    /// host, which must be the group's parent-side anchor) calls this after
    /// unwinding from a failed operation. Because only the host learns who
    /// survived, the performance model of the remaining work is supplied as
    /// a *factory*: the host calls `model_for(&survivors)` (world ranks,
    /// host first) once the roll call is complete and selects against the
    /// model it returns; the other survivors' factories are never invoked —
    /// they learn the outcome from the payload. The protocol:
    ///
    /// 1. each survivor announces itself to the host (`TAG_REBUILD`);
    /// 2. the host waits a bounded virtual-time window per old member, sized
    ///    from the old group's predicted execution time (a survivor's clock
    ///    cannot lag the host's by more than the algorithm's span); members
    ///    that stay silent or are already known dead have their nodes marked
    ///    unavailable in the [`SpeedEstimates`];
    /// 3. the host re-runs the selection problem restricted to the surviving
    ///    members and distributes the result exactly as `group_create` does.
    ///
    /// Survivors the new selection leaves out become free again. A member
    /// that dies *during* the rebuild simply never joins the new group's
    /// communicator; the next failed operation on the new group triggers
    /// another rebuild — recovery converges by iteration.
    ///
    /// # Errors
    /// [`HmpiError::NotMember`] if the caller was not a member of the old
    /// group; [`HmpiError::Select`] if the model no longer fits the
    /// survivors (or the factory itself failed — non-host survivors then
    /// see `SelectError::NotEnoughProcesses`); transport errors if the host
    /// dies mid-rebuild (host failure is unrecoverable).
    pub fn rebuild_group<M, F>(&self, group: HmpiGroup, model_for: F) -> HmpiResult<HmpiGroup>
    where
        M: perfmodel::PerformanceModel,
        F: FnOnce(&[usize]) -> HmpiResult<M>,
    {
        let me = self.rank();
        let old_id = group.id();
        let old_members = group.members().to_vec();
        let old_predicted = group.predicted_time();
        if !group.is_member() {
            return Err(HmpiError::NotMember);
        }
        // Consume the old handle: release its communicator and membership.
        self.memberships.set(self.memberships.get() - 1);
        drop(group);

        if !self.is_host() {
            self.control.send(&[old_id as i64], 0, TAG_REBUILD)?;
            return self.join_group(0, None);
        }
        let now = self.now();
        let cluster = self.proc.cluster().clone();
        // No live survivor can lag the host by more than the span of the
        // algorithm the group was executing.
        let window = SimTime::from_secs(2.0 * old_predicted.max(0.0) + 1.0);
        let mut survivors = vec![me];
        for &w in &old_members {
            if w == me {
                continue;
            }
            let node = self.proc.node_of(w);
            let known_dead = !self.proc.rank_alive(w) || cluster.speed_at(node, now) <= 0.0;
            let announced = !known_dead
                && self
                    .control
                    .recv_timeout::<i64>(w, TAG_REBUILD, window)
                    .is_ok_and(|(ready, _)| ready.first() == Some(&(old_id as i64)));
            if announced {
                survivors.push(w);
            } else {
                self.estimates.mark_unavailable(node);
            }
        }
        // Every old member's slot is released before re-selection; the
        // survivors the new mapping picks are re-marked busy by the shared
        // step, dead ones are fenced off by their unavailable nodes.
        self.set_free(&old_members, true);
        // With the roll call complete, build the model for the shrunk
        // problem and re-run the selection on the survivors.
        let model = match model_for(&survivors) {
            Ok(m) => m,
            Err(e) => return Err(self.abort_formation(&survivors, e)),
        };
        let ctx = self.selection_ctx_over(survivors, me);
        self.form_group(Formation::Rebuild, self.default_algo, &model, &ctx)
    }

    /// `HMPI_Group_free`: collectively releases a group. Must be called by
    /// all members; member processes become free again. Calling it with a
    /// non-member handle is a no-op for the process state and returns
    /// [`HmpiError::NotMember`].
    ///
    /// # Errors
    /// [`HmpiError::NotMember`] when the caller was not selected into the
    /// group; transport errors from the closing barrier.
    pub fn group_free(&self, group: HmpiGroup) -> HmpiResult<()> {
        let comm = match group.comm {
            Some(c) => c,
            None => return Err(HmpiError::NotMember),
        };
        // Two-phase release. The free flags must flip at a moment the host
        // can reason about: (a) a rank must not look free while the program
        // may still route around it (the host could select it into a new
        // group it will never join), and (b) once any member has finished
        // group_free, every member must look free (a create immediately
        // after a collective free must see them all).
        //
        // Both hold because the parent (host) is a member of every group:
        // no member passes the first barrier before the host itself enters
        // group_free, so flags cannot flip while the host is elsewhere; and
        // every member flips its flag before its second-barrier message, so
        // when anyone exits the second barrier all flags are set.
        comm.barrier()?;
        self.memberships.set(self.memberships.get() - 1);
        self.set_free(&[self.rank()], true);
        comm.barrier()?;
        Ok(())
    }

    /// `HMPI_Finalize`: a final synchronisation over `HMPI_COMM_WORLD`.
    ///
    /// # Errors
    /// Propagates transport errors from the barrier.
    pub fn finalize(&self) -> HmpiResult<()> {
        self.world.barrier()?;
        Ok(())
    }
}
