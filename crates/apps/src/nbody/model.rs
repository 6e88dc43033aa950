//! The N-body performance model, written in the paper's model-definition
//! language (following the Figure 4 conventions).
//!
//! Parameters: `p` groups, benchmark size `k` (interactions computed by the
//! recon benchmark), `d[p]` bodies per group, and `total` bodies overall.
//! Processor `I` computes `d[I] * total / k` benchmark units per step and
//! sends its group state (3 position doubles + 1 mass double per body) to
//! every other processor — an all-to-all pattern, unlike EM3D's sparse
//! neighbour exchange.

use crate::nbody::body::NbodyConfig;
use perfmodel::{CompiledModel, EvalError, ModelInstance, ParamValue};
use std::sync::LazyLock;

/// The model source.
pub const NBODY_MODEL_SOURCE: &str = r"
algorithm Nbody(int p, int k, int d[p], int total) {
  coord I=p;
  node {I>=0: bench*(d[I]*total/k);};
  link (L=p) {
    I>=0 && I!=L :
      length*(d[I]*4*sizeof(double)) [I]->[L];
  };
  parent[0];
  scheme {
    int i, j;
    par (i = 0; i < p; i++)
      par (j = 0; j < p; j++)
        if (i != j) 100%%[i]->[j];
    par (i = 0; i < p; i++) 100%%[i];
  };
}
";

/// The N-body model, compiled once per process.
static COMPILED: LazyLock<CompiledModel> = LazyLock::new(|| {
    CompiledModel::compile(NBODY_MODEL_SOURCE).expect("N-body model source is valid")
});

/// Packs the model parameters for a configuration.
pub fn nbody_params(cfg: &NbodyConfig, k: usize) -> Vec<ParamValue> {
    vec![
        ParamValue::Int(cfg.p() as i64),
        ParamValue::Int(k as i64),
        ParamValue::Array(
            cfg.bodies_per_group
                .iter()
                .map(|&d| d as i64)
                .collect(),
        ),
        ParamValue::Int(cfg.total() as i64),
    ]
}

/// Instantiates the model (compiled once per process) for a configuration.
///
/// # Errors
/// [`EvalError`] on inconsistent parameters.
pub fn nbody_model(cfg: &NbodyConfig, k: usize) -> Result<ModelInstance, EvalError> {
    COMPILED.instantiate(&nbody_params(cfg, k))
}

#[cfg(test)]
#[allow(clippy::needless_range_loop)]
mod tests {
    use super::*;
    use perfmodel::{analyze, PerformanceModel};

    #[test]
    fn source_parses_and_volumes_scale() {
        let cfg = NbodyConfig::ramp(4, 10, 3.0, 1);
        let inst = nbody_model(&cfg, 10).unwrap();
        assert_eq!(inst.num_processors(), 4);
        let total = cfg.total() as f64;
        for (i, &v) in inst.volumes().iter().enumerate() {
            let want = cfg.bodies_per_group[i] as f64 * total / 10.0;
            assert!((v - want).abs() < 1e-9);
        }
    }

    #[test]
    fn comm_is_all_to_all_with_group_sized_payloads() {
        let cfg = NbodyConfig::ramp(3, 10, 2.0, 1);
        let inst = nbody_model(&cfg, 10).unwrap();
        let comm = inst.comm_bytes();
        for i in 0..3 {
            for j in 0..3 {
                if i == j {
                    assert_eq!(comm[i][j], 0.0);
                } else {
                    assert_eq!(comm[i][j], (cfg.bodies_per_group[i] * 32) as f64);
                }
            }
        }
    }

    #[test]
    fn model_lints_clean() {
        let cfg = NbodyConfig::ramp(5, 8, 2.0, 2);
        let inst = nbody_model(&cfg, 10).unwrap();
        let report = analyze(&inst).unwrap();
        assert!(report.is_clean(), "{:?}", report.findings);
    }
}
