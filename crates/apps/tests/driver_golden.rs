//! Golden outcomes of every public application driver.
//!
//! Each case runs one driver at a small size on the paper's LANs and folds
//! what a caller can observe into one line: the exact bits of every time
//! and prediction, the selected members, `l` and the rebuild count, the
//! trace's event count, and an FNV-1a hash of the output bits (EM3D
//! fields, MM's `C`, n-body groups). Every virtual time and every result
//! is deterministic, so the drivers' programs may be restructured only in
//! ways that leave these lines as they are.

use hetsim::{Cluster, FaultEvent, FaultPlan, NodeId, SimTime, PAPER_EM3D_SPEEDS};
use hmpi_apps::em3d::{self, Em3dConfig};
use hmpi_apps::matmul::{self, BlockMatrix};
use hmpi_apps::nbody::{self, Bodies, NbodyConfig};
use std::sync::Arc;

/// FNV-1a, 64 bits: stable across platforms and toolchains.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn f64s(mut self, values: &[f64]) -> Self {
        self.0 = (self.0 ^ values.len() as u64).wrapping_mul(0x0100_0000_01b3);
        for b in values.iter().flat_map(|v| v.to_bits().to_le_bytes()) {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
        self
    }
}

fn bits(v: f64) -> String {
    format!("{:#018x}", v.to_bits())
}

fn opt_bits(v: Option<f64>) -> String {
    v.map_or_else(|| "none".to_string(), bits)
}

fn fields_hash(fields: &[(Vec<f64>, Vec<f64>)]) -> String {
    let h = fields
        .iter()
        .fold(Fnv::new(), |h, (e, hv)| h.f64s(e).f64s(hv));
    format!("{:#018x}", h.0)
}

fn c_hash(c: &Option<BlockMatrix>) -> String {
    c.as_ref().map_or_else(
        || "none".to_string(),
        |c| format!("{:#018x}", Fnv::new().f64s(c.data()).0),
    )
}

fn groups_hash(groups: &[Bodies]) -> String {
    let h = groups
        .iter()
        .fold(Fnv::new(), |h, g| h.f64s(&g.pos).f64s(&g.vel).f64s(&g.mass));
    format!("{:#018x}", h.0)
}

fn em3d_line(run: &em3d::Em3dRun) -> String {
    format!(
        "time={} predicted={} members={:?} fields={}",
        bits(run.time),
        opt_bits(run.predicted),
        run.members,
        fields_hash(&run.fields)
    )
}

fn em3d_ft_line(run: Option<em3d::Em3dFtRun>) -> String {
    let Some(run) = run else {
        return "none".to_string();
    };
    format!(
        "initial={:?}@{} final={:?}@{} rebuilds={} time={} makespan={} fields={}",
        run.initial_members,
        bits(run.initial_predicted),
        run.final_members,
        bits(run.final_predicted),
        run.rebuilds,
        bits(run.time),
        bits(run.makespan),
        fields_hash(&run.fields)
    )
}

fn mm_line(run: &matmul::MatmulRun) -> String {
    format!(
        "time={} predicted={} members={:?} l={} c={}",
        bits(run.time),
        opt_bits(run.predicted),
        run.members,
        run.l,
        c_hash(&run.c)
    )
}

fn mm_ft_line(run: Option<matmul::driver::MatmulFtRun>) -> String {
    let Some(run) = run else {
        return "none".to_string();
    };
    format!(
        "initial={:?}@{} final={:?}@{} rebuilds={} m={} l={} time={} makespan={} c={}",
        run.initial_members,
        bits(run.initial_predicted),
        run.final_members,
        bits(run.final_predicted),
        run.rebuilds,
        run.final_m,
        run.l,
        bits(run.time),
        bits(run.makespan),
        c_hash(&run.c)
    )
}

fn nbody_line(run: &nbody::NbodyRun) -> String {
    format!(
        "time={} predicted={} members={:?} groups={}",
        bits(run.time),
        opt_bits(run.predicted),
        run.members,
        groups_hash(&run.groups)
    )
}

fn em3d_lan() -> Arc<Cluster> {
    Arc::new(Cluster::paper_lan_em3d())
}

fn mm_lan() -> Arc<Cluster> {
    Arc::new(Cluster::paper_lan_matmul())
}

fn crash(speeds: &[f64], node: usize, at: f64) -> Arc<Cluster> {
    let plan = FaultPlan::none().with(FaultEvent::NodeCrash {
        node: NodeId(node),
        at: SimTime::from_secs(at),
    });
    Arc::new(Cluster::paper_lan_with_faults(speeds, plan))
}

fn em3d_cfg() -> Em3dConfig {
    Em3dConfig::ramp(9, 60, 4.0, 23)
}

/// The MM paper LAN's speeds, for its faulty copies.
const MM_SPEEDS: [f64; 9] = [46.0, 46.0, 46.0, 46.0, 46.0, 46.0, 176.0, 106.0, 9.0];

#[test]
fn em3d_mpi() {
    assert_eq!(
        em3d_line(&em3d::run_mpi(em3d_lan(), &em3d_cfg(), 2)),
        "time=0x404aab0d10e4d5f8 predicted=none members=[0, 1, 2, 3, 4, 5, 6, 7, 8] fields=0xa4292287b09244b5"
    );
}

#[test]
fn em3d_hmpi() {
    assert_eq!(
        em3d_line(&em3d::run_hmpi(em3d_lan(), &em3d_cfg(), 2, 10)),
        "time=0x403239a829dec6e4 predicted=0x402238f874a10136 members=[0, 8, 5, 4, 3, 2, 1, 7, 6] fields=0xa4292287b09244b5"
    );
}

#[test]
fn em3d_ft_fault_free() {
    assert_eq!(
        em3d_ft_line(em3d::run_hmpi_ft(em3d_lan(), &em3d_cfg(), 3, 10)),
        "initial=[0, 8, 5, 4, 3, 2, 1, 7, 6]@0x402238f874a10136 final=[0, 8, 5, 4, 3, 2, 1, 7, 6]@0x402238f874a10136 rebuilds=0 time=0x403b5641434f9958 makespan=0x403c742a809e2247 fields=0x091a164598149cd2"
    );
}

#[test]
fn em3d_ft_node_7_crashes_mid_kernel() {
    let cluster = crash(&PAPER_EM3D_SPEEDS, 7, 5.0);
    assert_eq!(
        em3d_ft_line(em3d::run_hmpi_ft(cluster, &em3d_cfg(), 6, 10)),
        "initial=[0, 8, 5, 4, 3, 2, 1, 7, 6]@0x402238f874a10136 final=[0, 8, 1, 2, 3, 4, 5, 6]@0x402238f874a10136 rebuilds=1 time=0x404b55f75822f0a6 makespan=0x40655dd1baf9dde4 fields=0x112953e1e93f8ab3"
    );
}

#[test]
fn em3d_traced() {
    let traced = em3d::run_hmpi_traced(em3d_lan(), &em3d_cfg(), 2, 10);
    let line = format!(
        "{} events={} report={}/{}",
        em3d_line(&traced.run),
        traced.trace.len(),
        bits(traced.report.predicted),
        bits(traced.report.measured)
    );
    assert_eq!(line, "time=0x403239a829dec6e4 predicted=0x402238f874a10136 members=[0, 8, 5, 4, 3, 2, 1, 7, 6] fields=0xa4292287b09244b5 events=455 report=0x403238f874a10136/0x403239a829dec6e4");
}

#[test]
fn mm_mpi() {
    assert_eq!(mm_line(&matmul::run_mpi(mm_lan(), 3, 9, 4, None)), "time=0x402203ffe3056b88 predicted=none members=[0, 1, 2, 3, 4, 5, 6, 7, 8] l=3 c=0x4b770f3dfaf78af8");
}

#[test]
fn mm_hmpi_sweeps_l() {
    assert_eq!(mm_line(&matmul::run_hmpi(mm_lan(), 3, 9, 4, None)), "time=0x400808eec0ec4f9b predicted=0x400801fc76cafde8 members=[0, 6, 7, 4, 2, 1, 5, 3, 8] l=9 c=0x4b770f3dfaf78af8");
}

#[test]
fn mm_hmpi_fixed_l() {
    assert_eq!(mm_line(&matmul::run_hmpi(mm_lan(), 3, 9, 4, Some(9))), "time=0x400808eec0ec4f9b predicted=0x400801fc76cafde8 members=[0, 6, 7, 4, 2, 1, 5, 3, 8] l=9 c=0x4b770f3dfaf78af8");
}

#[test]
fn mm_ft_fault_free() {
    assert_eq!(
        mm_ft_line(matmul::driver::run_hmpi_ft(mm_lan(), 3, 9, 4, Some(9))),
        "initial=[0, 6, 7, 4, 2, 1, 5, 3, 8]@0x400801fc76cafde8 final=[0, 6, 7, 4, 2, 1, 5, 3, 8]@0x400801fc76cafde8 rebuilds=0 m=3 l=9 time=0x400808eec0ec4f9c makespan=0x4008f91094ad9266 c=0x4b770f3dfaf78af8"
    );
}

#[test]
fn mm_ft_node_7_crashes_at_one_and_a_half_seconds() {
    let cluster = crash(&MM_SPEEDS, 7, 1.5);
    assert_eq!(
        mm_ft_line(matmul::driver::run_hmpi_ft(cluster, 3, 9, 4, Some(9))),
        "initial=[0, 6, 7, 4, 2, 1, 5, 3, 8]@0x400801fc76cafde8 final=[0, 6, 4, 2]@0x40077ce4732fc7df rebuilds=1 m=2 l=9 time=0x40078618b20f3b51 makespan=0x4017feba13baaaf2 c=0x4b770f3dfaf78af8"
    );
}

#[test]
fn mm_traced() {
    let traced = matmul::run_hmpi_traced(mm_lan(), 3, 9, 4, Some(9));
    let line = format!(
        "{} events={} report={}/{}",
        mm_line(&traced.run),
        traced.trace.len(),
        bits(traced.report.predicted),
        bits(traced.report.measured)
    );
    assert_eq!(line, "time=0x400808eec0ec4f9b predicted=0x400801fc76cafde8 members=[0, 6, 7, 4, 2, 1, 5, 3, 8] l=9 c=0x4b770f3dfaf78af8 events=1045 report=0x400801fc76cafde8/0x400808eec0ec4f9b");
}

#[test]
fn nbody_mpi() {
    let cfg = NbodyConfig::ramp(9, 6, 2.0, 77);
    assert_eq!(nbody_line(&nbody::run_mpi(em3d_lan(), &cfg, 3, 10)), "time=0x403f34e4c635ed5f predicted=none members=[0, 1, 2, 3, 4, 5, 6, 7, 8] groups=0x18d65300665e8fda");
}

#[test]
fn nbody_hmpi() {
    let cfg = NbodyConfig::ramp(9, 6, 2.0, 77);
    assert_eq!(nbody_line(&nbody::run_hmpi(em3d_lan(), &cfg, 3, 10)), "time=0x402f37434ac4e599 predicted=0x4014ccfd45d6caf1 members=[0, 8, 5, 4, 2, 3, 1, 7, 6] groups=0x18d65300665e8fda");
}
