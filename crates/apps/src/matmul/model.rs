//! The matrix-multiplication performance model — the paper's Figure 7.
//!
//! Six parameters: `m` (grid side), `r` (block size), `n` (matrix size in
//! blocks), `l` (generalised block size), `w[m]` (column slice widths) and
//! `h[m][m][m][m]` (pairwise rectangle row overlaps). The `scheme` walks the
//! `n` steps of the algorithm: the pivot column of `A` is broadcast
//! horizontally, the pivot row of `B` vertically, then every processor
//! updates its rectangle of `C` — `100/n` percent of its total volume per
//! step.
//!
//! One transcription note: the paper's figure prints the vertical (matrix
//! `B`) link volume as `w[I]*...`; the accompanying text derives
//! `w[J]*h[I][J][I][J]*(n/l)*(n/l)` — the number of `r × r` blocks of `B`
//! assigned to `P_IJ` — so `w[J]` is used here.

use crate::matmul::dist::GeneralizedBlockDist;
use perfmodel::{CompiledModel, EvalError, ModelInstance, ParamValue};
use std::sync::LazyLock;

/// Figure 7 of the paper (with the `w[I]`→`w[J]` fix described in the
/// module docs).
pub const MATMUL_MODEL_SOURCE: &str = r"
typedef struct {int I; int J;} Processor;

algorithm ParallelAxB(int m, int r, int n, int l, int w[m],
                      int h[m][m][m][m])
{
  coord I=m, J=m;
  node {I>=0 && J>=0: bench*(w[J]*(h[I][J][I][J])*(n/l)*(n/l)*n);};
  link (K=m, L=m)
  {
    I>=0 && J>=0 && I!=K :
      length*(w[J]*(h[I][J][I][J])*(n/l)*(n/l)*(r*r)*sizeof(double))
             [I, J] -> [K, J];
    I>=0 && J>=0 && J!=L && ((h[I][J][K][L]) > 0) :
      length*(w[J]*(h[I][J][K][L])*(n/l)*(n/l)*(r*r)*sizeof(double))
             [I, J] -> [K, L];
  };
  parent[0,0];
  scheme
  {
    int k;
    Processor Root, Receiver, Current;
    for(k = 0; k < n; k++)
    {
      int Acolumn = k%l, Arow;
      int Brow = k%l, Bcolumn;
      par(Arow = 0; Arow < l; )
      {
        GetProcessor(Arow, Acolumn, m, h, w, &Root);
        par(Receiver.I = 0; Receiver.I < m; Receiver.I++)
          par(Receiver.J = 0; Receiver.J < m; Receiver.J++)
            if((Root.I != Receiver.I || Root.J != Receiver.J) &&
               Root.J != Receiver.J)
              if((h[Root.I][Root.J][Receiver.I][Receiver.J]) > 0)
                (100/(w[Root.J]*(n/l)))%%
                       [Root.I, Root.J] -> [Receiver.I, Receiver.J];
        Arow += h[Root.I][Root.J][Root.I][Root.J];
      }
      par(Bcolumn = 0; Bcolumn < l; )
      {
        GetProcessor(Brow, Bcolumn, m, h, w, &Root);
        par(Receiver.I = 0; Receiver.I < m; Receiver.I++)
          if(Root.I != Receiver.I)
            (100/((h[Root.I][Root.J][Root.I][Root.J])*(n/l))) %%
                  [Root.I, Root.J] -> [Receiver.I, Root.J];
        Bcolumn += w[Root.J];
      }
      par(Current.I = 0; Current.I < m; Current.I++)
        par(Current.J = 0; Current.J < m; Current.J++)
          (100/n) %% [Current.I, Current.J];
    }
  };
};
";

/// The Figure 7 model, compiled once per process.
static COMPILED: LazyLock<CompiledModel> = LazyLock::new(|| {
    CompiledModel::compile(MATMUL_MODEL_SOURCE).expect("Figure 7 source is valid")
});

/// Packs the model parameters for a distribution — the Figure 8 program's
/// `model_params` with `param_count = 4 + m + m*m*m*m`.
pub fn matmul_params(
    dist: &GeneralizedBlockDist,
    r: usize,
    n: usize,
) -> Vec<ParamValue> {
    vec![
        ParamValue::Int(dist.m as i64),
        ParamValue::Int(r as i64),
        ParamValue::Int(n as i64),
        ParamValue::Int(dist.l as i64),
        ParamValue::Array(dist.w_array()),
        ParamValue::Array(dist.h_array()),
    ]
}

/// Instantiates the Figure 7 model (compiled once per process) for a
/// distribution — the `HMPI_Model_ParallelAxB` handle.
///
/// # Errors
/// [`EvalError`] on inconsistent parameters.
pub fn matmul_model(
    dist: &GeneralizedBlockDist,
    r: usize,
    n: usize,
) -> Result<ModelInstance, EvalError> {
    COMPILED.instantiate(&matmul_params(dist, r, n))
}

#[cfg(test)]
#[allow(clippy::needless_range_loop)]
mod tests {
    use super::*;
    use perfmodel::{PerformanceModel, RecordingSink, SchemeEvent};

    fn paper_speeds() -> Vec<f64> {
        vec![46.0, 46.0, 46.0, 46.0, 46.0, 46.0, 176.0, 106.0, 9.0]
    }

    #[test]
    fn figure7_source_parses() {
        let m = CompiledModel::compile(MATMUL_MODEL_SOURCE).unwrap();
        assert_eq!(m.name(), "ParallelAxB");
        assert_eq!(m.param_names(), vec!["m", "r", "n", "l", "w", "h"]);
    }

    #[test]
    fn volumes_match_rectangle_areas() {
        let dist = GeneralizedBlockDist::heterogeneous(3, 9, &paper_speeds());
        let n = 18;
        let inst = matmul_model(&dist, 8, n).unwrap();
        assert_eq!(inst.num_processors(), 9);
        let ng = (n / dist.l) * (n / dist.l);
        for gi in 0..3 {
            for gj in 0..3 {
                let linear = gi * 3 + gj;
                let want = (dist.area(gi, gj) * ng * n) as f64;
                assert!(
                    (inst.volumes()[linear] - want).abs() < 1e-9,
                    "volume of ({gi},{gj})"
                );
            }
        }
        assert_eq!(inst.parent(), 0);
    }

    #[test]
    fn vertical_links_cover_columns() {
        let dist = GeneralizedBlockDist::heterogeneous(3, 9, &paper_speeds());
        let n = 9;
        let inst = matmul_model(&dist, 8, n).unwrap();
        let comm = inst.comm_bytes();
        // Same-column pairs (vertical, matrix B): P(0,0) -> P(1,0) carries
        // all of P(0,0)'s B blocks: w[0]*h[0][0][0][0]*(n/l)^2*r^2*8 bytes.
        let bytes = (dist.w[0] * dist.heights[0][0]) as f64 * 1.0 * (8.0 * 8.0) * 8.0;
        assert!((comm[0][3] - bytes).abs() < 1e-9, "{} vs {bytes}", comm[0][3]);
        // A processor never sends to itself.
        for i in 0..9 {
            assert_eq!(comm[i][i], 0.0);
        }
    }

    #[test]
    fn horizontal_links_follow_row_overlap() {
        let dist = GeneralizedBlockDist::heterogeneous(3, 9, &paper_speeds());
        let n = 9;
        let inst = matmul_model(&dist, 8, n).unwrap();
        let comm = inst.comm_bytes();
        let h = dist.h_array();
        let m = 3;
        let at = |i: usize, j: usize, k: usize, l: usize| h[((i * m + j) * m + k) * m + l];
        // P(0,0) -> P(k,l) for l != 0 carries w[0]*h[0][0][k][l] blocks.
        for k in 0..3 {
            for l in 1..3usize {
                let want = (dist.w[0] as i64 * at(0, 0, k, l)) as f64 * 64.0 * 8.0;
                let got = comm[0][k * 3 + l];
                assert!((got - want).abs() < 1e-9, "pair (0,0)->({k},{l})");
            }
        }
    }

    #[test]
    fn scheme_emits_n_compute_rounds() {
        let dist = GeneralizedBlockDist::heterogeneous(2, 4, &[46.0, 176.0, 106.0, 9.0]);
        let n = 8;
        let inst = matmul_model(&dist, 4, n).unwrap();
        let mut sink = RecordingSink::default();
        inst.run_scheme(&mut sink).unwrap();
        let computes: Vec<(usize, f64)> = sink
            .events
            .iter()
            .filter_map(|e| match e {
                SchemeEvent::Compute { proc, percent } => Some((*proc, *percent)),
                _ => None,
            })
            .collect();
        // n steps x m^2 processors, each at 100/n percent.
        assert_eq!(computes.len(), n * 4);
        for (_, pct) in computes {
            assert!((pct - 100.0 / n as f64).abs() < 1e-12);
        }
    }

    #[test]
    fn scheme_transfer_percentages_sum_to_about_100() {
        // Over all n steps, each pair's transfer percentages should total
        // ~100% of the declared volume.
        let dist = GeneralizedBlockDist::heterogeneous(2, 4, &[46.0, 176.0, 106.0, 9.0]);
        let n = 8;
        let inst = matmul_model(&dist, 4, n).unwrap();
        let mut sink = RecordingSink::default();
        inst.run_scheme(&mut sink).unwrap();
        let mut totals = vec![vec![0.0f64; 4]; 4];
        for e in &sink.events {
            if let SchemeEvent::Transfer { src, dst, percent } = e {
                totals[*src][*dst] += percent;
            }
        }
        for s in 0..4 {
            for d in 0..4 {
                if inst.comm_bytes()[s][d] > 0.0 {
                    assert!(
                        (totals[s][d] - 100.0).abs() < 1.0,
                        "pair {s}->{d} transferred {:.2}%",
                        totals[s][d]
                    );
                }
            }
        }
    }

    #[test]
    fn predicted_time_has_block_size_tradeoff_inputs() {
        // Larger l -> better balance granularity but the model stays
        // well-defined across the sweep range.
        let speeds = paper_speeds();
        for l in [3usize, 9, 18] {
            let dist = GeneralizedBlockDist::heterogeneous(3, l, &speeds);
            let inst = matmul_model(&dist, 8, 18).unwrap();
            let cost = perfmodel::CostModel::homogeneous(9, 50.0, 1e-4, 1e7);
            let t = inst.predict_time(&cost).unwrap();
            assert!(t.is_finite() && t > 0.0, "l={l}");
        }
    }
}
