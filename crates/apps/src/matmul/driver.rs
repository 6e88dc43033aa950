//! Matrix-multiplication drivers: homogeneous MPI baseline vs the paper's
//! Figure 8 HMPI program.
//!
//! The HMPI driver follows Figure 8 step by step: `HMPI_Recon` with the
//! `rMxM` benchmark, a `HMPI_Timeof` sweep choosing the optimal generalised
//! block size `l`, `HMPI_Group_create` with the Figure 7 model, then the
//! block-cyclic computation over the group communicator. The MPI baseline
//! uses the homogeneous distribution on the first `m²` processes of
//! `MPI_COMM_WORLD` — the paper's "pure chance" group. The programs
//! themselves are the crate's shared runners; this module is the model,
//! the kernel and the checks of the sizes.

use crate::matmul::block::BlockMatrix;
use crate::matmul::dist::GeneralizedBlockDist;
use crate::matmul::model::matmul_model;
use crate::matmul::parallel::DistributedMatmul;
use crate::program::{self, Kernel, TracedRun};
use hetsim::{Cluster, Trace};
use hmpi::{Hmpi, HmpiError, Recon, RuntimeConfig};
use mpisim::{Comm, MpiResult};
use perfmodel::PerformanceModel;
use std::sync::Arc;

/// Seeds for the deterministic input matrices (shared by every driver so
/// results are comparable).
pub const SEED_A: u64 = 101;
/// Seed for matrix B.
pub const SEED_B: u64 = 202;

/// Outcome of one matrix-multiplication execution.
#[derive(Debug, Clone)]
pub struct MatmulRun {
    /// Virtual execution time of the parallel algorithm, seconds.
    pub time: f64,
    /// `members[grid linear index] = world rank`.
    pub members: Vec<usize>,
    /// The gathered result matrix (from the grid root), for verification.
    pub c: Option<BlockMatrix>,
    /// `HMPI_Group_create`'s predicted time (HMPI runs only).
    pub predicted: Option<f64>,
    /// The generalised block size used.
    pub l: usize,
}

impl Kernel for DistributedMatmul {
    type Out = Option<BlockMatrix>;

    fn run(&mut self, comm: &Comm) -> MpiResult<()> {
        DistributedMatmul::run(self, comm)
    }

    fn finish(self, comm: &Comm) -> MpiResult<Self::Out> {
        self.gather_c(comm)
    }
}

/// The run's input matrices `A` and `B`, built once on the caller's thread
/// and lent to every rank.
fn inputs(n: usize, r: usize) -> [Arc<BlockMatrix>; 2] {
    [SEED_A, SEED_B].map(|seed| Arc::new(BlockMatrix::deterministic(n, r, seed)))
}

/// The checks every driver makes on the caller's thread, before any rank
/// starts: an `m × m` grid of `n × n` blocks needs `1 <= m <= n` and `m²`
/// processes.
fn check_grid(cluster: &Cluster, m: usize, n: usize) {
    assert!(
        (1..=n).contains(&m),
        "the paper requires 1 <= m <= n, got m = {m}, n = {n}"
    );
    assert!(
        m * m <= cluster.len(),
        "an m = {m} grid needs {} processes, the cluster has {}",
        m * m,
        cluster.len()
    );
}

/// A fixed generalised block size must satisfy `m <= l <= n`.
fn check_l(m: usize, l: usize, n: usize) {
    assert!(
        (m..=n).contains(&l),
        "the paper requires m <= l <= n, got m = {m}, l = {l}, n = {n}"
    );
}

/// The MPI baseline: homogeneous 2D block-cyclic distribution on the first
/// `m²` world ranks. `l` must be a multiple of `m` (default the paper-style
/// fully cyclic `l = m` when `None`).
///
/// # Panics
/// Panics unless `1 <= m <= n`, the cluster hosts `m²` processes,
/// `m <= l <= n` and `m` divides `l`.
pub fn run_mpi(cluster: Arc<Cluster>, m: usize, n: usize, r: usize, l: Option<usize>) -> MatmulRun {
    check_grid(&cluster, m, n);
    let l = l.unwrap_or(m);
    check_l(m, l, n);
    assert!(
        l.is_multiple_of(m),
        "the homogeneous distribution needs m | l and l <= n, got m = {m}, l = {l}, n = {n}"
    );
    let [a, b] = inputs(n, r);
    let (time, cs) = program::mpi(cluster, m * m, |comm| {
        let dist = GeneralizedBlockDist::homogeneous(m, l);
        DistributedMatmul::with_inputs(dist, a.clone(), b.clone(), comm.rank())
    });
    MatmulRun {
        time,
        members: (0..m * m).collect(),
        c: cs.into_iter().flatten().next(), // only the grid root gathers C
        predicted: None,
        l,
    }
}

/// The Figure 8 HMPI program. With `l = None`, the host selects the optimal
/// generalised block size by an `HMPI_Timeof` sweep over `m..=n`.
///
/// # Panics
/// Panics unless `1 <= m <= n` and the cluster hosts `m²` processes, or if
/// a fixed `l` is outside `m..=n`.
pub fn run_hmpi(
    cluster: Arc<Cluster>,
    m: usize,
    n: usize,
    r: usize,
    l: Option<usize>,
) -> MatmulRun {
    hmpi(cluster, m, n, r, l, false).0
}

/// [`run_hmpi`] with tracing enabled (DESIGN.md §9). The Figure 7 model
/// describes the whole multiplication, so the report's prediction is
/// `HMPI_Group_create`'s.
///
/// # Panics
/// As [`run_hmpi`].
pub fn run_hmpi_traced(
    cluster: Arc<Cluster>,
    m: usize,
    n: usize,
    r: usize,
    l: Option<usize>,
) -> TracedRun<MatmulRun> {
    let n_ranks = cluster.len();
    let (run, trace) = hmpi(cluster, m, n, r, l, true);
    let predicted = run.predicted.expect("HMPI runs carry a prediction");
    TracedRun::new(predicted, run.time, n_ranks, trace, run)
}

/// The estimated speeds of the processors that host world `ranks`.
fn speeds_of(h: &Hmpi, ranks: &[usize]) -> Vec<f64> {
    let placement = h.process().placement();
    ranks
        .iter()
        .map(|&w| h.estimates().speed(placement[w]))
        .collect()
}

/// Speeds of an `m × m` grid over `ranks` (the host first): the host at
/// the parent position `(0, 0)`, then the fastest of the others.
fn grid_speeds(h: &Hmpi, ranks: &[usize], m: usize) -> Vec<f64> {
    let mut others = speeds_of(h, &ranks[1..]);
    others.sort_by(|a, b| b.total_cmp(a));
    let mut speeds = speeds_of(h, &ranks[..1]);
    speeds.extend(others.into_iter().take(m * m - 1));
    speeds
}

fn hmpi(
    cluster: Arc<Cluster>,
    m: usize,
    n: usize,
    r: usize,
    l: Option<usize>,
    tracing: bool,
) -> (MatmulRun, Option<Trace>) {
    check_grid(&cluster, m, n);
    if let Some(l) = l {
        check_l(m, l, n);
    }
    let [a, b] = inputs(n, r);
    let select = |h: &Hmpi| {
        // HMPI_Recon with the rMxM benchmark: one r x r block update.
        h.recon_opts(Recon::new(1.0).bench(|hh: &Hmpi| hh.compute(1.0)))
            .expect("recon");
        // The host arranges the m^2 best processors on the grid and picks
        // l by Timeof sweep. Every rank pre-sizes the [l, grid speeds...]
        // message so the engine's schedule-driven broadcast can ship it.
        let mut msg = vec![0.0f64; 1 + m * m];
        if h.is_host() {
            let speeds = grid_speeds(h, &(0..h.size()).collect::<Vec<_>>(), m);
            // Figure 8: sweep bsize, keep the predicted minimum.
            // timeof_sweep keeps the first strict minimum (same tie-break
            // as a manual loop) and surfaces the first error if every
            // candidate fails to evaluate.
            let l = l.unwrap_or_else(|| {
                let models: Vec<_> = (m..=n)
                    .map(|cand| {
                        let dist = GeneralizedBlockDist::heterogeneous(m, cand, &speeds);
                        matmul_model(&dist, r, n).expect("Figure 7 model")
                    })
                    .collect();
                let sweep = models.iter().map(|mo| mo as &dyn PerformanceModel);
                let (idx, _) = h
                    .timeof_sweep(sweep)
                    .expect("timeof sweep")
                    .expect("m <= n, so the sweep is non-empty");
                m + idx
            });
            msg[0] = l as f64;
            msg[1..].copy_from_slice(&speeds);
        }
        h.world().bcast_into(&mut msg, 0).expect("bcast l + speeds");
        let l = msg[0] as usize;
        let dist = GeneralizedBlockDist::heterogeneous(m, l, &msg[1..]);
        (matmul_model(&dist, r, n).expect("Figure 7 model"), dist, l)
    };
    let config = RuntimeConfig::new().tracing(tracing);
    let run = program::hmpi(cluster, config, m * m, select, |comm, dist| {
        DistributedMatmul::with_inputs(dist, a.clone(), b.clone(), comm.rank())
    });
    let mm = MatmulRun {
        time: run.time,
        members: run.members,
        c: run.outs.into_iter().flatten().next(),
        predicted: Some(run.predicted),
        l: run.extra,
    };
    (mm, run.trace)
}

/// Outcome of one fault-tolerant matrix multiplication ([`run_hmpi_ft`]).
///
/// Unlike EM3D, the *problem* never shrinks — only the process grid does: a
/// rebuild drops to the largest `m' x m'` grid the survivors can fill, so
/// the final `C` always equals the full serial product.
#[derive(Debug, Clone)]
pub struct MatmulFtRun {
    /// The grid `HMPI_Group_create` originally selected.
    pub initial_members: Vec<usize>,
    /// Predicted time of the initial grid, seconds.
    pub initial_predicted: f64,
    /// The grid that completed the run (== initial when nothing failed).
    pub final_members: Vec<usize>,
    /// Predicted time of the final grid, seconds.
    pub final_predicted: f64,
    /// How many times the grid was shrunk with `rebuild_group`.
    pub rebuilds: usize,
    /// Side of the final process grid (`final_members.len() == final_m²`).
    pub final_m: usize,
    /// Generalised block size of the final attempt.
    pub l: usize,
    /// Virtual time of the final, successful attempt, seconds.
    pub time: f64,
    /// Virtual time of the whole run including failed attempts, seconds.
    pub makespan: f64,
    /// The gathered result matrix (from the final grid root).
    pub c: Option<BlockMatrix>,
}

/// The largest grid side `m' <= m_max` with `m'²` processes available.
fn grid_for(m_max: usize, procs: usize) -> usize {
    (1..=m_max).rev().find(|&mm| mm * mm <= procs).unwrap_or(0)
}

/// The generalised block size for an `m_eff` grid: the requested `l`
/// clamped into the feasible `[m_eff, n]` range (default fully blocked).
fn block_for(l: Option<usize>, m_eff: usize, n: usize) -> usize {
    l.unwrap_or(n).clamp(m_eff, n)
}

/// Exact integer square root of a perfect square (group sizes are `m'²`).
///
/// # Panics
/// Panics if `procs` is not a perfect square.
fn grid_side(procs: usize) -> usize {
    let s = (procs as f64).sqrt().round() as usize;
    assert_eq!(s * s, procs, "FT grids are square, got a group of {procs}");
    s
}

/// The fault-tolerant HMPI matmul: FT recon, `group_create`, then the
/// multiplication under [`hmpi::Hmpi::recover`] — every attempt ends in an
/// agreement round, and a failure verdict answers with `rebuild_group`
/// and a restart on a smaller grid.
///
/// Each attempt rebuilds the distribution for the current grid from the
/// shared speed estimates (grid position `i` holds group member `i`), so
/// every member derives the identical partitioning without a broadcast on
/// a possibly-dirty communicator. Every attempt reads the same input
/// matrices, so the result after any number of mid-run crashes equals the
/// full serial product.
///
/// Returns `None` when the run could not complete at all: the host's node
/// died (host failure is unrecoverable), or too few nodes survived to fill
/// even a 1 x 1 grid.
///
/// # Panics
/// Panics unless `1 <= m <= n` and the cluster hosts `m²` processes. A
/// fixed `l` is clamped into each grid's feasible range instead.
pub fn run_hmpi_ft(
    cluster: Arc<Cluster>,
    m: usize,
    n: usize,
    r: usize,
    l: Option<usize>,
) -> Option<MatmulFtRun> {
    check_grid(&cluster, m, n);
    let [a, b] = inputs(n, r);
    // The model factory runs on the host with the roll-call survivors
    // (host first); at creation time every rank evaluates it with the same
    // alive list, computed from the shared estimates.
    let model_for = |h: &Hmpi, survivors: &[usize]| {
        let m_eff = grid_for(m, survivors.len());
        if m_eff == 0 {
            return Err(HmpiError::Aborted);
        }
        let speeds = grid_speeds(h, survivors, m_eff);
        let dist = GeneralizedBlockDist::heterogeneous(m_eff, block_for(l, m_eff, n), &speeds);
        matmul_model(&dist, r, n).map_err(|_| HmpiError::Aborted)
    };
    let run = program::hmpi_ft(
        cluster,
        m * m,
        |h| {
            h.recon_opts(Recon::new(1.0).bench(|hh: &Hmpi| hh.compute(1.0)))
                .ok()?;
            let alive = h.alive_world_ranks();
            if alive.first() != Some(&0) {
                return None; // the host's node is gone: unrecoverable
            }
            model_for(h, &alive).ok()
        },
        model_for,
        |h, group, comm| {
            // Grid position i = group member i: the same distribution on
            // every member, derived purely from shared state.
            let m_eff = grid_side(group.size());
            let speeds = speeds_of(h, group.members());
            let dist = GeneralizedBlockDist::heterogeneous(m_eff, block_for(l, m_eff, n), &speeds);
            DistributedMatmul::with_inputs(dist, a.clone(), b.clone(), comm.rank())
        },
    )?;
    let final_m = grid_side(run.members.len());
    Some(MatmulFtRun {
        initial_members: run.initial.0,
        initial_predicted: run.initial.1,
        final_members: run.members,
        final_predicted: run.predicted,
        rebuilds: run.rebuilds,
        final_m,
        l: block_for(l, final_m, n),
        time: run.time,
        makespan: run.makespan,
        c: run.outs.into_iter().flatten().next(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matmul::block::{serial_matmul, BlockMatrix};

    fn paper_cluster() -> Arc<Cluster> {
        Arc::new(Cluster::paper_lan_matmul())
    }

    fn reference(n: usize, r: usize) -> BlockMatrix {
        serial_matmul(
            &BlockMatrix::deterministic(n, r, SEED_A),
            &BlockMatrix::deterministic(n, r, SEED_B),
        )
    }

    fn assert_matches(c: &BlockMatrix, want: &BlockMatrix) {
        for (x, y) in c.data().iter().zip(want.data()) {
            assert!((x - y).abs() < 1e-9);
        }
    }

    #[test]
    fn mpi_baseline_is_correct() {
        let n = 9;
        let r = 4;
        let run = run_mpi(paper_cluster(), 3, n, r, None);
        assert_matches(run.c.as_ref().unwrap(), &reference(n, r));
    }

    #[test]
    fn hmpi_is_correct_with_fixed_l() {
        let n = 9;
        let r = 4;
        let run = run_hmpi(paper_cluster(), 3, n, r, Some(9));
        assert_matches(run.c.as_ref().unwrap(), &reference(n, r));
        assert_eq!(run.l, 9);
    }

    #[test]
    fn hmpi_beats_homogeneous_mpi_on_paper_lan() {
        // The paper's headline MM result: ~3x on the 9-machine LAN.
        let n = 9;
        let r = 8;
        let mpi = run_mpi(paper_cluster(), 3, n, r, None);
        let hmpi = run_hmpi(paper_cluster(), 3, n, r, Some(9));
        assert!(
            hmpi.time < mpi.time,
            "HMPI ({}) must beat MPI ({})",
            hmpi.time,
            mpi.time
        );
        let speedup = mpi.time / hmpi.time;
        assert!(speedup > 1.5, "expected a large speedup, got {speedup:.2}");
    }

    #[test]
    fn timeof_sweep_chooses_a_valid_l() {
        let n = 9;
        let r = 4;
        let run = run_hmpi(paper_cluster(), 3, n, r, None);
        assert!((3..=9).contains(&run.l), "chosen l = {}", run.l);
        assert_matches(run.c.as_ref().unwrap(), &reference(n, r));
    }

    #[test]
    fn traced_run_reports_prediction_accuracy() {
        let n = 9;
        let r = 4;
        let traced = run_hmpi_traced(paper_cluster(), 3, n, r, Some(9));
        assert_matches(traced.run.c.as_ref().unwrap(), &reference(n, r));
        assert!(!traced.trace.is_empty(), "tracing must record events");
        let rep = &traced.report;
        assert!(rep.predicted > 0.0 && rep.measured > 0.0);
        let compute: f64 = rep.phases.iter().map(|p| p.compute.as_secs()).sum();
        assert!(compute > 0.0);
    }

    #[test]
    fn ft_driver_is_exact_without_faults() {
        // With an empty fault plan the FT driver completes on the full
        // 3 x 3 grid with zero rebuilds and an exact product.
        let n = 9;
        let r = 4;
        let ft = run_hmpi_ft(paper_cluster(), 3, n, r, Some(9)).expect("fault-free run");
        assert_eq!(ft.rebuilds, 0);
        assert_eq!(ft.final_m, 3);
        assert_eq!(ft.initial_members, ft.final_members);
        assert_matches(ft.c.as_ref().unwrap(), &reference(n, r));
    }

    /// Node 7 (speed 106) fail-stops at t=1.5 — mid-multiplication (the
    /// fault-free kernel spans roughly t=0.12..3.1).
    fn run_with_node_7_crashing(n: usize, r: usize) -> MatmulFtRun {
        use hetsim::{FaultEvent, FaultPlan, NodeId, SimTime};
        let plan = FaultPlan::none().with(FaultEvent::NodeCrash {
            node: NodeId(7),
            at: SimTime::from_secs(1.5),
        });
        let speeds = [46.0, 46.0, 46.0, 46.0, 46.0, 46.0, 176.0, 106.0, 9.0];
        let cluster = Arc::new(Cluster::paper_lan_with_faults(&speeds, plan));
        run_hmpi_ft(cluster, 3, n, r, Some(9)).expect("survivors complete")
    }

    #[test]
    fn ft_driver_recovers_onto_a_smaller_grid() {
        // Eight survivors cannot fill a 3 x 3 grid, so recovery drops to
        // 2 x 2 — and the product is still the exact full-problem result,
        // because the problem never shrinks, only the grid does.
        let n = 9;
        let r = 4;
        let ft = run_with_node_7_crashing(n, r);

        assert!(ft.rebuilds >= 1, "the crash must force a rebuild");
        assert_eq!(ft.initial_members.len(), 9, "everyone starts on the grid");
        assert_eq!(ft.final_m, 2, "eight survivors fill a 2x2 grid");
        assert_eq!(ft.final_members.len(), 4);
        assert!(
            !ft.final_members.contains(&7),
            "the dead node must be excluded, got {:?}",
            ft.final_members
        );
        // The survivors still computed the *full* product, exactly.
        assert_matches(ft.c.as_ref().unwrap(), &reference(n, r));
        // The makespan pays for the aborted attempt and the recovery.
        assert!(ft.makespan > ft.time);
    }

    #[test]
    fn ft_recovery_replays_bit_for_bit() {
        // The recovery used to follow host scheduling (which agreement
        // waiter saw the round complete, who reached the barrier first):
        // the same plan ended on [0, 6, 4, 2], [0, 6, 2, 1] or [0] at
        // three different makespans. Fifty whole runs in release, where
        // the race was widest (CI runs that); a handful otherwise.
        let runs = if cfg!(debug_assertions) { 8 } else { 50 };
        let observe = |ft: MatmulFtRun| {
            let bits = [ft.final_predicted, ft.time, ft.makespan].map(f64::to_bits);
            (ft.final_members, ft.rebuilds, bits)
        };
        let first = observe(run_with_node_7_crashing(9, 4));
        for run in 1..runs {
            assert_eq!(observe(run_with_node_7_crashing(9, 4)), first, "run {run}");
        }
    }

    #[test]
    fn members_are_distinct_and_parent_hosted() {
        let run = run_hmpi(paper_cluster(), 3, 9, 4, Some(9));
        assert_eq!(run.members.len(), 9);
        let mut sorted = run.members.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 9);
        assert_eq!(run.members[0], 0, "grid (0,0) is the parent/host");
    }

    // Bad sizes fail on the caller's thread, before any rank starts, with
    // one message that names the values.

    #[test]
    #[should_panic(expected = "the paper requires 1 <= m <= n, got m = 3, n = 2")]
    fn ft_driver_rejects_a_grid_wider_than_the_matrix() {
        run_hmpi_ft(paper_cluster(), 3, 2, 4, None);
    }

    #[test]
    #[should_panic(expected = "the paper requires 1 <= m <= n, got m = 3, n = 2")]
    fn hmpi_rejects_a_grid_wider_than_the_matrix() {
        run_hmpi(paper_cluster(), 3, 2, 4, None);
    }

    #[test]
    #[should_panic(expected = "the paper requires 1 <= m <= n, got m = 3, n = 2")]
    fn mpi_rejects_a_grid_wider_than_the_matrix() {
        run_mpi(paper_cluster(), 3, 2, 4, None);
    }

    #[test]
    #[should_panic(expected = "the paper requires 1 <= m <= n, got m = 0, n = 9")]
    fn hmpi_rejects_an_empty_grid() {
        run_hmpi(paper_cluster(), 0, 9, 4, None);
    }

    #[test]
    #[should_panic(expected = "an m = 4 grid needs 16 processes, the cluster has 9")]
    fn traced_hmpi_rejects_a_grid_larger_than_the_cluster() {
        run_hmpi_traced(paper_cluster(), 4, 9, 4, None);
    }

    #[test]
    #[should_panic(expected = "the paper requires m <= l <= n, got m = 3, l = 10, n = 9")]
    fn hmpi_rejects_a_fixed_l_beyond_n() {
        run_hmpi(paper_cluster(), 3, 9, 4, Some(10));
    }

    #[test]
    #[should_panic(
        expected = "the homogeneous distribution needs m | l and l <= n, got m = 3, l = 4, n = 9"
    )]
    fn mpi_rejects_a_fixed_l_that_m_does_not_divide() {
        run_mpi(paper_cluster(), 3, 9, 4, Some(4));
    }

    #[test]
    #[should_panic(expected = "the paper requires m <= l <= n, got m = 3, l = 0, n = 9")]
    fn mpi_rejects_a_fixed_l_below_m() {
        run_mpi(paper_cluster(), 3, 9, 4, Some(0));
    }

    #[test]
    #[should_panic(expected = "FT grids are square, got a group of 8")]
    fn grid_side_rejects_a_non_square_group() {
        grid_side(8);
    }
}

#[cfg(test)]
mod grid_size_tests {
    use super::*;
    use crate::matmul::block::{serial_matmul, BlockMatrix};
    use hetsim::{Link, Protocol, TopologyBuilder};

    #[test]
    fn two_by_two_grid_on_a_five_node_cluster() {
        // m = 2 uses 4 of 5 machines; the speed-5 node must be left out and
        // the result must still be exact.
        // Declared through the topology builder: one level, so the cluster
        // is bit-identical to the classic flat construction.
        let (cluster, _) = TopologyBuilder::new()
            .node("host", 60.0)
            .node("big", 150.0)
            .node("mid", 90.0)
            .node("ok", 70.0)
            .node("tiny", 5.0)
            .intra_switch(Link::with_defaults(Protocol::Tcp))
            .build()
            .into_parts();
        let cluster = Arc::new(cluster);
        let n = 8;
        let r = 3;
        let run = run_hmpi(cluster, 2, n, r, None);
        assert_eq!(run.members.len(), 4);
        assert!(!run.members.contains(&4), "speed-5 node must be excluded");
        let want = serial_matmul(
            &BlockMatrix::deterministic(n, r, SEED_A),
            &BlockMatrix::deterministic(n, r, SEED_B),
        );
        let got = run.c.unwrap();
        for (x, y) in got.data().iter().zip(want.data()) {
            assert!((x - y).abs() < 1e-9);
        }
    }
}
