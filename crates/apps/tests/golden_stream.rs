//! Golden streams of the three shipped performance models.
//!
//! Each case instantiates a model and hashes everything a caller can
//! observe: the `volumes`, `comm_bytes` and `parent` of the instance and the
//! scheme's full event stream as a `RecordingSink` sees it (processor
//! indices and the exact bits of every percentage), or the evaluation error
//! in its place. The constants pin the interpreter's output bit for bit, so
//! any change to how models are evaluated must leave them alone.

use hmpi_apps::em3d::{em3d_model, Em3dConfig, Em3dSystem};
use hmpi_apps::matmul::{matmul_model, GeneralizedBlockDist};
use hmpi_apps::nbody::{nbody_model, NbodyConfig};
use perfmodel::{EvalError, ModelInstance, PerformanceModel, RecordingSink, SchemeEvent};

/// FNV-1a, 64 bits: stable across platforms and toolchains.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
}

/// Folds one instantiation (or its error) into `h`.
fn fold(h: &mut Fnv, model: Result<ModelInstance, EvalError>) {
    let inst = match model {
        Ok(inst) => inst,
        Err(e) => {
            h.bytes(format!("instantiate: {e}").as_bytes());
            return;
        }
    };
    inst.volumes().iter().for_each(|&v| h.f64(v));
    inst.comm_bytes().iter().flatten().for_each(|&b| h.f64(b));
    h.u64(inst.parent() as u64);
    let mut sink = RecordingSink::default();
    if let Err(e) = inst.run_scheme(&mut sink) {
        h.bytes(format!("run_scheme: {e}").as_bytes());
    }
    h.u64(sink.events.len() as u64);
    for e in &sink.events {
        match *e {
            SchemeEvent::Compute { proc, percent } => {
                h.u64(1);
                h.u64(proc as u64);
                h.f64(percent);
            }
            SchemeEvent::Transfer { src, dst, percent } => {
                h.u64(2);
                h.u64(src as u64);
                h.u64(dst as u64);
                h.f64(percent);
            }
            SchemeEvent::ParBegin => h.u64(3),
            SchemeEvent::ParBranch => h.u64(4),
            SchemeEvent::ParEnd => h.u64(5),
        }
    }
}

/// The paper's LAN speeds for the matrix multiplication (Figure 10).
const MM_SPEEDS: [f64; 9] = [46.0, 46.0, 46.0, 46.0, 46.0, 46.0, 176.0, 106.0, 9.0];

#[test]
fn figure7_streams_at_every_block_size() {
    // One constant per matrix size n: every generalised block size l in
    // 3..=18 on the 3 × 3 grid, block size r = 8, as the Figure 8 sweep
    // instantiates them.
    let want: [(usize, u64); 4] = [
        (9, 3_844_800_555_461_834_029),
        (12, 3_223_952_130_984_175_704),
        (18, 4_809_348_141_667_033_658),
        (24, 14_913_308_712_389_751_387),
    ];
    let got = want.map(|(n, _)| {
        let mut h = Fnv::new();
        for l in 3..=18 {
            let dist = GeneralizedBlockDist::heterogeneous(3, l, &MM_SPEEDS);
            fold(&mut h, matmul_model(&dist, 8, n));
        }
        (n, h.0)
    });
    assert_eq!(got, want, "Figure 7 streams, per n");
}

#[test]
fn em3d_streams_at_the_ledger_and_bench_sizes() {
    // p = 9 sub-bodies and k = 10 everywhere; the ledger's base 200 with
    // spread 1.6, then the paper bench's five Figure 9 sizes.
    let mut h = Fnv::new();
    let bench = [50, 100, 200, 400, 800].map(|base| (base, 0xE3D + base as u64));
    for (base, seed) in [(200, 1)].into_iter().chain(bench) {
        let system = Em3dSystem::generate(&Em3dConfig::ramp(9, base, 1.6, seed));
        fold(&mut h, em3d_model(&system, 10));
    }
    assert_eq!(h.0, 16_458_456_214_742_664_021, "EM3D stream");
}

#[test]
fn nbody_streams_at_the_ledger_and_bench_sizes() {
    // p = 9 groups and k = 10 everywhere; the ledger's base 30 with spread
    // 3.0, then the paper bench's three n-body sizes.
    let mut h = Fnv::new();
    for (base, seed) in [
        (30, 2),
        (10, 0xB0D1 + 10),
        (20, 0xB0D1 + 20),
        (40, 0xB0D1 + 40),
    ] {
        fold(
            &mut h,
            nbody_model(&NbodyConfig::ramp(9, base, 3.0, seed), 10),
        );
    }
    assert_eq!(h.0, 6_212_443_419_961_190_720, "n-body stream");
}
