//! The EM3D performance model — the paper's Figure 4, verbatim.
//!
//! The model has four parameters: `p` (number of abstract processors), `k`
//! (nodes computed by the recon benchmark), `d[p]` (nodes per sub-body) and
//! `dep[p][p]` (nodal values communicated between pairs of sub-bodies). The
//! `node` declaration scales each processor's volume by `d[I]/k` benchmark
//! units; the `link` declaration transfers `dep[I][L]*sizeof(double)` bytes
//! from `L` to `I`; the `scheme` declaration performs all boundary transfers
//! in parallel, then all computations in parallel — one iteration of the
//! algorithm, which is "accurate enough because at any iteration each
//! processor performs the same volume of computations".

use crate::em3d::body::Em3dSystem;
use perfmodel::{CompiledModel, EvalError, ModelInstance, ParamValue};
use std::sync::LazyLock;

/// Figure 4 of the paper, character-for-character up to whitespace.
pub const EM3D_MODEL_SOURCE: &str = r"
algorithm Em3d(int p, int k, int d[p], int dep[p][p]) {
  coord I=p;
  node {I>=0: bench*(d[I]/k);};
  link (L=p) {
    I>=0 && I!=L && (dep[I][L] > 0) :
      length*(dep[I][L]*sizeof(double)) [L]->[I];
  };
  parent[0];
  scheme {
    int current, owner, remote;
    par (owner = 0; owner < p; owner++)
        par (remote = 0; remote < p; remote++)
             if ((owner != remote) && (dep[owner][remote] > 0))
                100%%[remote]->[owner];
    par (current = 0; current < p; current++) 100%%[current];
  };
}
";

/// The Figure 4 model, compiled once per process.
static COMPILED: LazyLock<CompiledModel> =
    LazyLock::new(|| CompiledModel::compile(EM3D_MODEL_SOURCE).expect("Figure 4 source is valid"));

/// Packs the model parameters from a generated system — the paper's
/// `HMPI_Pack_model_parameters(p, k, d, dep, ...)`.
pub fn em3d_params(system: &Em3dSystem, k: usize) -> Vec<ParamValue> {
    let p = system.p();
    let d: Vec<i64> = system.d().iter().map(|&x| x as i64).collect();
    let dep: Vec<i64> = system
        .dep
        .iter()
        .flat_map(|row| row.iter().map(|&x| x as i64))
        .collect();
    vec![
        ParamValue::Int(p as i64),
        ParamValue::Int(k as i64),
        ParamValue::Array(d),
        ParamValue::Array(dep),
    ]
}

/// Instantiates the model (compiled once per process) for a system — the
/// `HMPI_Model_Em3d` handle of Figure 5.
///
/// # Errors
/// [`EvalError`] on parameter mismatch (shapes are derived from the system,
/// so this indicates an internal inconsistency).
pub fn em3d_model(system: &Em3dSystem, k: usize) -> Result<ModelInstance, EvalError> {
    COMPILED.instantiate(&em3d_params(system, k))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::em3d::body::Em3dConfig;
    use perfmodel::{PerformanceModel, RecordingSink, SchemeEvent};

    fn system() -> Em3dSystem {
        Em3dSystem::generate(&Em3dConfig::ramp(4, 40, 3.0, 17))
    }

    #[test]
    fn figure4_source_parses() {
        let m = CompiledModel::compile(EM3D_MODEL_SOURCE).unwrap();
        assert_eq!(m.name(), "Em3d");
        assert_eq!(m.param_names(), vec!["p", "k", "d", "dep"]);
    }

    #[test]
    fn volumes_are_d_over_k() {
        let s = system();
        let inst = em3d_model(&s, 10).unwrap();
        let d = s.d();
        for (i, &v) in inst.volumes().iter().enumerate() {
            assert!((v - d[i] as f64 / 10.0).abs() < 1e-12);
        }
        assert_eq!(inst.parent(), 0);
    }

    #[test]
    fn comm_matches_dep_times_eight() {
        let s = system();
        let inst = em3d_model(&s, 10).unwrap();
        for i in 0..s.p() {
            for j in 0..s.p() {
                // dep[i][j] values flow from j to i.
                assert_eq!(
                    inst.comm_bytes()[j][i],
                    (s.dep[i][j] * 8) as f64,
                    "pair ({j}->{i})"
                );
            }
        }
    }

    #[test]
    fn scheme_transfers_then_computes() {
        let s = system();
        let inst = em3d_model(&s, 10).unwrap();
        let mut sink = RecordingSink::default();
        inst.run_scheme(&mut sink).unwrap();
        let first_compute = sink
            .events
            .iter()
            .position(|e| matches!(e, SchemeEvent::Compute { .. }))
            .unwrap();
        let last_transfer = sink
            .events
            .iter()
            .rposition(|e| matches!(e, SchemeEvent::Transfer { .. }))
            .unwrap();
        assert!(
            last_transfer < first_compute,
            "all transfers precede all computations in one iteration"
        );
        let computes = sink
            .events
            .iter()
            .filter(|e| matches!(e, SchemeEvent::Compute { .. }))
            .count();
        assert_eq!(computes, s.p());
    }
}
