//! Model analysis ("linter"): does the `scheme` actually account for the
//! volumes the `node` and `link` sections declare?
//!
//! A performance model is only as good as its internal consistency: if the
//! scheme's computation steps sum to 40 % of a processor's declared volume,
//! `HMPI_Timeof` will underestimate by 2.5× and `HMPI_Group_create` will
//! optimise the wrong objective. [`analyze`] replays the scheme through a
//! coverage-accumulating sink and reports, per processor and per pair, how
//! much of the declared volume the scheme actually exercises — plus a list
//! of typed [`Finding`]s for anything suspicious. The shipped Figure 4 and
//! Figure 7 models pass clean (see the paper-model tests).

use crate::error::EvalError;
use crate::model::PerformanceModel;
use crate::scheme::SchemeSink;

/// Accumulates percentage coverage per processor and per pair.
#[derive(Debug, Clone)]
pub struct CoverageSink {
    /// Summed computation percentages per processor.
    pub compute: Vec<f64>,
    /// Summed transfer percentages per ordered pair.
    pub transfer: Vec<Vec<f64>>,
    /// Maximum observed `par` nesting depth.
    pub max_par_depth: usize,
    depth: usize,
}

impl CoverageSink {
    /// A sink for `n` processors.
    pub fn new(n: usize) -> Self {
        CoverageSink {
            compute: vec![0.0; n],
            transfer: vec![vec![0.0; n]; n],
            max_par_depth: 0,
            depth: 0,
        }
    }
}

impl SchemeSink for CoverageSink {
    fn compute(&mut self, proc: usize, percent: f64) {
        self.compute[proc] += percent;
    }
    fn transfer(&mut self, src: usize, dst: usize, percent: f64) {
        self.transfer[src][dst] += percent;
    }
    fn par_begin(&mut self) {
        self.depth += 1;
        self.max_par_depth = self.max_par_depth.max(self.depth);
    }
    fn par_end(&mut self) {
        self.depth -= 1;
    }
}

/// One analysis finding.
#[derive(Debug, Clone, PartialEq)]
pub enum Finding {
    /// A processor's scheme computation percentages are far from 100 %.
    ComputeCoverage {
        /// Linear processor index.
        proc: usize,
        /// Total percentage the scheme performs.
        total_percent: f64,
    },
    /// A pair's scheme transfer percentages are far from 100 %.
    TransferCoverage {
        /// Source index.
        src: usize,
        /// Destination index.
        dst: usize,
        /// Total percentage the scheme transfers.
        total_percent: f64,
    },
    /// The scheme transfers on a pair whose declared volume is zero (the
    /// step is free — usually a link-rule guard mistake).
    TransferWithoutVolume {
        /// Source index.
        src: usize,
        /// Destination index.
        dst: usize,
    },
    /// A processor has zero declared computation volume (idle by model).
    IdleProcessor {
        /// Linear processor index.
        proc: usize,
    },
    /// The scheme performed no activity at all for a processor that has
    /// declared volume.
    UnexercisedProcessor {
        /// Linear processor index.
        proc: usize,
    },
}

/// The analysis result.
#[derive(Debug, Clone)]
pub struct ModelReport {
    /// Coverage data the findings were derived from.
    pub coverage: CoverageSink,
    /// Suspicious aspects, in detection order.
    pub findings: Vec<Finding>,
}

impl ModelReport {
    /// True if the model passed with no findings.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }
}

/// Coverage within `100 ± COVERAGE_TOLERANCE` percent counts as complete.
pub const COVERAGE_TOLERANCE: f64 = 2.0;

/// Replays the scheme and checks it against the declared volumes.
///
/// # Errors
/// Propagates scheme evaluation errors.
#[allow(clippy::needless_range_loop)]
pub fn analyze(model: &dyn PerformanceModel) -> Result<ModelReport, EvalError> {
    let n = model.num_processors();
    let mut sink = CoverageSink::new(n);
    model.run_scheme(&mut sink)?;

    let mut findings = Vec::new();
    let volumes = model.volumes();
    let comm = model.comm_bytes();

    for p in 0..n {
        if volumes[p] == 0.0 {
            findings.push(Finding::IdleProcessor { proc: p });
            continue;
        }
        let total = sink.compute[p];
        if total == 0.0 {
            findings.push(Finding::UnexercisedProcessor { proc: p });
        } else if (total - 100.0).abs() > COVERAGE_TOLERANCE {
            findings.push(Finding::ComputeCoverage {
                proc: p,
                total_percent: total,
            });
        }
    }
    for s in 0..n {
        for d in 0..n {
            let total = sink.transfer[s][d];
            if comm[s][d] > 0.0 {
                if (total - 100.0).abs() > COVERAGE_TOLERANCE {
                    findings.push(Finding::TransferCoverage {
                        src: s,
                        dst: d,
                        total_percent: total,
                    });
                }
            } else if total > 0.0 {
                findings.push(Finding::TransferWithoutVolume { src: s, dst: d });
            }
        }
    }

    Ok(ModelReport {
        coverage: sink,
        findings,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{CompiledModel, ModelInstance};

    fn model(src: &str) -> ModelInstance {
        CompiledModel::compile(src)
            .unwrap()
            .instantiate(&[])
            .unwrap()
    }

    #[test]
    fn default_scheme_is_clean() {
        let model = model(
            "algorithm Ok() { coord I=3; node {I>=0: bench*(10*(I+1));};
               link (L=3) {I<L: length*(100) [I]->[L];}; parent[0]; }",
        );
        let report = analyze(&model).unwrap();
        assert!(report.is_clean(), "findings: {:?}", report.findings);
        assert_eq!(report.coverage.compute, vec![100.0; 3]);
    }

    #[test]
    fn undercovered_compute_is_flagged() {
        // Only half of processor 1's volume.
        let model = model(
            "algorithm Half() { coord I=2; node {I>=0: bench*(10);}; parent[0];
               scheme { 100%%[0]; 50%%[1]; }; }",
        );
        let report = analyze(&model).unwrap();
        assert!(report
            .findings
            .iter()
            .any(|f| matches!(f, Finding::ComputeCoverage { proc: 1, .. })));
    }

    #[test]
    fn unexercised_processor_is_flagged() {
        let model = model(
            "algorithm Skip() { coord I=2; node {I>=0: bench*(10);}; parent[0];
               scheme { 100%%[0]; }; }",
        );
        let report = analyze(&model).unwrap();
        assert_eq!(
            report.findings,
            vec![Finding::UnexercisedProcessor { proc: 1 }]
        );
    }

    #[test]
    fn transfer_on_zero_volume_pair_is_flagged() {
        // No declared link volume for the transfer.
        let model = model(
            "algorithm Ghost() { coord I=2; node {I>=0: bench*(10);}; parent[0];
               scheme { 100%%[0]; 100%%[1]; 100%%[0]->[1]; }; }",
        );
        let report = analyze(&model).unwrap();
        assert!(report
            .findings
            .iter()
            .any(|f| matches!(f, Finding::TransferWithoutVolume { src: 0, dst: 1 })));
    }

    #[test]
    fn idle_processor_is_flagged_not_counted_as_unexercised() {
        let model = model(
            "algorithm Idle() { coord I=2; node {I==0: bench*(10);}; parent[0];
               scheme { 100%%[0]; }; }",
        );
        let report = analyze(&model).unwrap();
        assert_eq!(report.findings, vec![Finding::IdleProcessor { proc: 1 }]);
    }

    #[test]
    fn iterated_partial_steps_sum_to_full_coverage() {
        let model = model(
            "algorithm Steps() { coord I=1; node {I>=0: bench*(10);}; parent[0];
               scheme { int k; for (k = 0; k < 4; k++) 25%%[0]; }; }",
        );
        let report = analyze(&model).unwrap();
        assert!(report.is_clean());
    }

    #[test]
    fn par_depth_is_tracked() {
        let model = model(
            "algorithm Nest() { coord I=1; node {I>=0: bench*(1);}; parent[0];
               scheme { int a, b; par (a = 0; a < 1; a++) par (b = 0; b < 1; b++) 100%%[0]; }; }",
        );
        let report = analyze(&model).unwrap();
        assert_eq!(report.coverage.max_par_depth, 2);
    }
}
