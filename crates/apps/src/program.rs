//! The programs of the paper's Figures 3, 5 and 8, written once for every
//! application.
//!
//! An application brings its model and its kernel; the runners here own
//! everything in between. [`mpi`] is the baseline: the first `p` world
//! ranks split off and run the kernel. [`hmpi`] is the HMPI program:
//! `select` (`HMPI_Recon` and the model), `HMPI_Group_create`, the
//! members' kernel, `HMPI_Group_free` and `HMPI_Finalize`. [`hmpi_ft`] is
//! its fault-tolerant variant: the kernel runs under
//! [`hmpi::Hmpi::recover`], which answers a failure verdict with
//! `rebuild_group` and a retry. Every runner times the kernel the same
//! way: from the member's clock at the start through a closing barrier.
//!
//! A runner's closures run on every rank, and all ranks of a run share one
//! address space. So a driver builds the inputs that do not depend on the
//! rank (EM3D's system, MM's `A` and `B`) once, before the run, and the
//! closures borrow them read-only.

use hetsim::{Cluster, PredictionReport, SimTime, Trace};
use hmpi::{Hmpi, HmpiGroup, HmpiResult, HmpiRuntime, RuntimeConfig};
use mpisim::{Comm, MpiResult, Universe};
use perfmodel::PerformanceModel;
use std::sync::Arc;

/// One member's share of an application run.
pub(crate) trait Kernel {
    /// The member's part of the result.
    type Out: Send;
    /// The computation, timed together with the closing barrier.
    fn run(&mut self, comm: &Comm) -> MpiResult<()>;
    /// Untimed work after the closing barrier (MM gathers `C` here).
    fn finish(self, comm: &Comm) -> MpiResult<Self::Out>;
}

/// Runs `kernel` and the closing barrier on `comm`, then its finish: the
/// virtual seconds through the barrier and the member's output.
fn timed<K: Kernel>(mut kernel: K, comm: &Comm) -> MpiResult<(f64, K::Out)> {
    let t0 = comm.clock().now();
    kernel.run(comm)?;
    comm.barrier()?;
    let time = (comm.clock().now() - t0).as_secs();
    Ok((time, kernel.finish(comm)?))
}

/// The members' outputs in member order and the slowest member's time;
/// `None` if a member has no outcome.
fn gather<T>(mut outcomes: Vec<Option<(f64, T)>>, members: &[usize]) -> Option<(f64, Vec<T>)> {
    let runs: Vec<_> = members
        .iter()
        .map(|&w| outcomes[w].take())
        .collect::<Option<_>>()?;
    let time = runs.iter().fold(0.0f64, |time, run| time.max(run.0));
    Some((time, runs.into_iter().map(|run| run.1).collect()))
}

fn check_size(p: usize, size: usize) {
    assert!(
        p <= size,
        "the application needs {p} processes, the universe has {size}"
    );
}

/// The MPI baseline (Figure 3): world ranks `0..p` split off and run the
/// kernel — the group "chosen by pure chance". Returns the slowest
/// member's time and the outputs of ranks `0..p`.
///
/// # Panics
/// Panics if the cluster hosts fewer than `p` processes, or if the kernel
/// fails.
pub(crate) fn mpi<K: Kernel>(
    cluster: Arc<Cluster>,
    p: usize,
    kernel: impl Fn(&Comm) -> K + Sync,
) -> (f64, Vec<K::Out>) {
    let universe = Universe::new(cluster);
    check_size(p, universe.size());
    let report = universe.run(|proc| {
        let world = proc.world();
        // MPI_Comm_split(MPI_COMM_WORLD, is_executing, 1, &comm)
        let comm = world
            .split((world.rank() < p).then_some(1), 1)
            .expect("split cannot fail")?;
        Some(timed(kernel(&comm), &comm).expect("kernel"))
    });
    gather(report.results, &(0..p).collect::<Vec<_>>()).expect("every member ran the kernel")
}

/// An HMPI run as its host saw it ([`hmpi`]).
pub(crate) struct Selected<T, X> {
    /// The slowest member's kernel time, seconds.
    pub time: f64,
    /// `outs[i]` is the output of abstract processor `i`.
    pub outs: Vec<T>,
    /// `members[i]` is the world rank that ran abstract processor `i`.
    pub members: Vec<usize>,
    /// `HMPI_Group_create`'s predicted time.
    pub predicted: f64,
    /// What `select` returned on the host besides the model (MM's `l`).
    pub extra: X,
    /// The run's trace, when the configuration enabled tracing.
    pub trace: Option<Trace>,
}

/// The HMPI program (Figures 5 and 8). On every rank `select` runs the
/// recon and returns the model, the state `kernel` starts from and an
/// extra value for the host to report; `HMPI_Group_create` selects the
/// members, they run the kernel, and every rank frees the group and
/// finalizes.
///
/// # Panics
/// Panics if the cluster hosts fewer than `p` processes, or if any HMPI
/// call or the kernel fails.
pub(crate) fn hmpi<M, S, X, K>(
    cluster: Arc<Cluster>,
    config: RuntimeConfig,
    p: usize,
    select: impl Fn(&Hmpi) -> (M, S, X) + Sync,
    kernel: impl Fn(&Comm, S) -> K + Sync,
) -> Selected<K::Out, X>
where
    M: PerformanceModel,
    X: Send,
    K: Kernel,
{
    let runtime = HmpiRuntime::with_config(cluster, config);
    check_size(p, runtime.universe().size());
    let report = runtime.run(|h| {
        let (model, state, extra) = select(h);
        let group = h.group_create(&model).expect("group_create");
        let host = h
            .is_host()
            .then(|| (group.members().to_vec(), group.predicted_time(), extra));
        let outcome = group
            .comm()
            .map(|comm| timed(kernel(comm, state), comm).expect("kernel"));
        if group.is_member() {
            h.group_free(group).expect("group_free");
        }
        h.finalize().expect("finalize");
        (outcome, host)
    });
    let (outcomes, hosts): (Vec<_>, Vec<_>) = report.results.into_iter().unzip();
    let host = hosts.into_iter().flatten().next();
    let (members, predicted, extra) = host.expect("the host reports the selection");
    let (time, outs) = gather(outcomes, &members).expect("every member ran the kernel");
    Selected {
        time,
        outs,
        members,
        predicted,
        extra,
        trace: report.trace,
    }
}

/// A fault-tolerant run that completed ([`hmpi_ft`]).
pub(crate) struct Recovered<T> {
    /// The group `HMPI_Group_create` first selected, and its prediction.
    pub initial: (Vec<usize>, f64),
    /// The group that completed the run (== initial when nothing failed).
    pub members: Vec<usize>,
    /// The completing group's predicted time.
    pub predicted: f64,
    /// How many times the group was shrunk with `rebuild_group`.
    pub rebuilds: usize,
    /// The slowest member's time in the successful attempt, seconds.
    pub time: f64,
    /// Virtual time of the whole run, failed attempts included, seconds.
    pub makespan: f64,
    /// `outs[i]` is the output of the completing group's member `i`.
    pub outs: Vec<T>,
}

/// The fault-tolerant HMPI program. `select` runs the recon (on a faulty
/// cluster the fault-tolerant one, which doubles as the failure detector)
/// and returns the initial model, or `None` when this rank cannot go on;
/// `HMPI_Group_create` selects the members and free processes stand by.
/// Each member's attempts run under [`hmpi::Hmpi::recover`]: `kernel`
/// builds the attempt from the current group, every attempt ends in an
/// agreement round, and a failure verdict answers with `rebuild_group`
/// over the survivors with `model_for`'s model. The group is freed
/// leniently: a peer may die between the success verdict and the free.
///
/// Returns `None` when the run could not complete: the host's node died
/// (unrecoverable, like losing rank 0 of `MPI_COMM_WORLD`) or no feasible
/// group remained.
///
/// # Panics
/// Panics if the cluster hosts fewer than `p` processes.
pub(crate) fn hmpi_ft<M, K>(
    cluster: Arc<Cluster>,
    p: usize,
    select: impl Fn(&Hmpi) -> Option<M> + Sync,
    model_for: impl Fn(&Hmpi, &[usize]) -> HmpiResult<M> + Sync,
    kernel: impl Fn(&Hmpi, &HmpiGroup, &Comm) -> K + Sync,
) -> Option<Recovered<K::Out>>
where
    M: PerformanceModel,
    K: Kernel,
{
    let runtime = HmpiRuntime::new(cluster);
    check_size(p, runtime.universe().size());
    let report = runtime.run(|h| {
        let Some(group) = select(h).and_then(|model| h.group_create(&model).ok()) else {
            return (None, None);
        };
        let initial = h
            .is_host()
            .then(|| (group.members().to_vec(), group.predicted_time()));
        if !group.is_member() {
            return (None, initial.map(|initial| (initial, None, 0)));
        }
        let attempt = |group: &HmpiGroup, _round: usize| {
            let comm = group.comm().expect("member has a comm");
            timed(kernel(h, group, comm), comm)
        };
        let model_for = |survivors: &[usize]| model_for(h, survivors);
        let (outcome, fin, rebuilds) = match h.recover(group, model_for, attempt) {
            Ok(rec) => {
                let fin = (rec.group.members().to_vec(), rec.group.predicted_time());
                let _ = h.group_free(rec.group);
                (Some(rec.result), Some(fin), rec.rebuilds)
            }
            // Own node fail-stopped, no feasible shrink remained, or the
            // rebuilt selection left this process out.
            Err(e) => (None, None, e.rebuilds),
        };
        (outcome, initial.map(|initial| (initial, fin, rebuilds)))
    });
    let (outcomes, hosts): (Vec<_>, Vec<_>) = report.results.into_iter().unzip();
    let (initial, fin, rebuilds) = hosts.into_iter().flatten().next()?;
    let (members, predicted) = fin?;
    let (time, outs) = gather(outcomes, &members)?;
    Some(Recovered {
        initial,
        members,
        predicted,
        rebuilds,
        time,
        makespan: report.makespan.as_secs(),
        outs,
    })
}

/// A traced HMPI run (DESIGN.md §9): the run itself, the full
/// virtual-time trace, and the report comparing `HMPI_Group_create`'s
/// prediction for the whole run against the measured kernel time, with
/// the per-rank compute / comm / wait breakdown of the traced run.
#[derive(Debug, Clone)]
pub struct TracedRun<R> {
    /// The run outcome, as the untraced driver returns it.
    pub run: R,
    /// Every recorded span: recon, selection, compute, sends, receives.
    pub trace: Trace,
    /// Prediction accuracy plus phase breakdown.
    pub report: PredictionReport,
}

impl<R> TracedRun<R> {
    /// Builds the report of a run on `n_ranks` ranks whose whole-run
    /// prediction is `predicted` and whose kernel took `measured` seconds.
    pub(crate) fn new(
        predicted: f64,
        measured: f64,
        n_ranks: usize,
        trace: Option<Trace>,
        run: R,
    ) -> Self {
        let trace = trace.expect("tracing was enabled");
        let report =
            PredictionReport::new(predicted, SimTime::from_secs(measured), &trace, n_ranks);
        TracedRun { run, trace, report }
    }
}
