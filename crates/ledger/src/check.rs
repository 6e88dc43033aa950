//! `ledger check A.json B.json`: do two result sets agree within the
//! benchmark's own bounds?
//!
//! * exact metrics (and the attempted / failed op counts) must be
//!   identical in every run of both sets — compared only when both sets
//!   used the same seed and run length;
//! * each bounded end-to-end metric: B's median may not be worse than A's
//!   by more than the bound in `BENCHMARK.json`;
//! * where either set's own run-to-run spread (inter-quartile distance
//!   over the median) is wider than the bound, the verdict is
//!   `unresolved` rather than `ok` — unless every run of one side beats
//!   every run of the other.

use crate::spec::{Better, EXACT};
use crate::stats::{median, spread};
use hetsim::json::JsonValue;
use std::collections::BTreeMap;
use std::fmt;

/// One end-to-end metric's gate, from `BENCHMARK.json`.
#[derive(Clone, Debug, PartialEq)]
pub struct Bound {
    /// Metric name.
    pub name: String,
    /// Direction.
    pub better: Better,
    /// Share of A's median by which B may be worse.
    pub bound: f64,
}

/// Reads the `end_to_end` gates out of a parsed `BENCHMARK.json`.
///
/// # Errors
/// A description of the first malformed entry.
pub fn bounds_of(bench: &JsonValue) -> Result<Vec<Bound>, String> {
    let list = bench
        .get("end_to_end")
        .and_then(JsonValue::as_array)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    list.iter()
        .map(|m| {
            let name = m
                .get("name")
                .and_then(JsonValue::as_str)
                .ok_or("metric without a name")?;
            let better = match m.get("better").and_then(JsonValue::as_str) {
                Some("higher") => Better::Higher,
                Some("lower") => Better::Lower,
                other => return Err(format!("{name}: better is {other:?}")),
            };
            let bound = m
                .get("bound")
                .and_then(JsonValue::as_f64)
                .filter(|b| (0.0..=1.0).contains(b))
                .ok_or(format!("{name}: bound missing or outside 0..=1"))?;
            Ok(Bound {
                name: name.to_string(),
                better,
                bound,
            })
        })
        .collect()
}

/// The runs of one workload in a result set: metric name → one value per
/// resolved run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Runs {
    /// Values of each metric over the runs whose status is `ok`.
    pub values: BTreeMap<String, Vec<f64>>,
    /// Runs recorded as `unresolved` (load average above the core count).
    pub unresolved_runs: usize,
}

/// A parsed result file.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ResultSet {
    /// `(seed, seconds)` the set was measured at.
    pub inputs: (u64, u64),
    /// Workload name → its runs.
    pub workloads: BTreeMap<String, Runs>,
}

/// Reads a result file written by `ledger all`.
///
/// # Errors
/// A description of what is missing.
pub fn result_set(doc: &JsonValue) -> Result<ResultSet, String> {
    let number = |key: &str| {
        doc.get(key)
            .and_then(JsonValue::as_f64)
            .ok_or(format!("result file has no {key}"))
    };
    let mut set = ResultSet {
        inputs: (number("seed")? as u64, number("seconds")? as u64),
        workloads: BTreeMap::new(),
    };
    let JsonValue::Object(workloads) =
        doc.get("workloads").ok_or("result file has no workloads")?
    else {
        return Err("workloads is not an object".into());
    };
    for (name, w) in workloads {
        let mut runs = Runs::default();
        for run in w
            .get("runs")
            .and_then(JsonValue::as_array)
            .ok_or("workload without runs")?
        {
            if run.get("status").and_then(JsonValue::as_str) != Some("ok") {
                runs.unresolved_runs += 1;
                continue;
            }
            for key in ["attempted", "failed"] {
                let v = run
                    .get(key)
                    .and_then(JsonValue::as_f64)
                    .ok_or(format!("run without {key}"))?;
                runs.values.entry(key.to_string()).or_default().push(v);
            }
            let JsonValue::Object(metrics) = run.get("metrics").ok_or("run without metrics")?
            else {
                return Err("metrics is not an object".into());
            };
            for (metric, v) in metrics {
                let value = v
                    .get("value")
                    .and_then(JsonValue::as_f64)
                    .ok_or("metric without value")?;
                runs.values.entry(metric.clone()).or_default().push(value);
            }
        }
        set.workloads.insert(name.clone(), runs);
    }
    Ok(set)
}

/// How one (workload, metric) pairing compares.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound (or, for exact metrics, identical).
    Ok,
    /// B is better than A by more than the bound.
    Improved,
    /// B is worse than A by more than the bound.
    Regressed,
    /// An exact metric differs.
    Mismatch,
    /// The spread is wider than the bound, or a side has no resolved run.
    Unresolved,
}

impl Verdict {
    /// Whether this verdict means the two sets disagree.
    pub fn disagrees(self) -> bool {
        matches!(self, Verdict::Regressed | Verdict::Mismatch)
    }
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Verdict::Ok => "ok",
            Verdict::Improved => "improved",
            Verdict::Regressed => "REGRESSED",
            Verdict::Mismatch => "MISMATCH",
            Verdict::Unresolved => "unresolved",
        })
    }
}

/// One row of the comparison.
#[derive(Clone, Debug, PartialEq)]
pub struct Row {
    /// Workload.
    pub workload: String,
    /// Metric.
    pub metric: String,
    /// A's and B's medians.
    pub medians: (f64, f64),
    /// A's and B's spreads.
    pub spreads: (f64, f64),
    /// The gate (0 for exact metrics).
    pub bound: f64,
    /// The outcome.
    pub verdict: Verdict,
}

/// Compares one bounded metric.
pub fn compare_bounded(a: &[f64], b: &[f64], gate: &Bound) -> (Verdict, (f64, f64), (f64, f64)) {
    let medians = (median(a), median(b));
    let spreads = (spread(a), spread(b));
    if a.is_empty() || b.is_empty() || medians.0 == 0.0 {
        return (Verdict::Unresolved, medians, spreads);
    }
    // Positive = B worse, as a share of A's median.
    let sign = if gate.better == Better::Lower {
        1.0
    } else {
        -1.0
    };
    let worse = sign * (medians.1 - medians.0) / medians.0.abs();
    let beats = |x: &[f64], y: &[f64]| {
        // every run of x is better than every run of y
        x.iter().all(|xv| y.iter().all(|yv| sign * (yv - xv) > 0.0))
    };
    let verdict = if spreads.0.max(spreads.1) > gate.bound {
        if beats(b, a) {
            Verdict::Improved
        } else if beats(a, b) && worse > gate.bound {
            Verdict::Regressed
        } else {
            Verdict::Unresolved
        }
    } else if worse > gate.bound {
        Verdict::Regressed
    } else if worse < -gate.bound {
        Verdict::Improved
    } else {
        Verdict::Ok
    };
    (verdict, medians, spreads)
}

/// Compares two result sets against the gates.
pub fn compare(a: &ResultSet, b: &ResultSet, gates: &[Bound]) -> Vec<Row> {
    let mut rows = Vec::new();
    let same_inputs = a.inputs == b.inputs;
    let empty = Runs::default();
    for (workload, ra) in &a.workloads {
        let rb = b.workloads.get(workload).unwrap_or(&empty);
        for gate in gates {
            let (Some(va), Some(vb)) = (ra.values.get(&gate.name), rb.values.get(&gate.name))
            else {
                // A traced set carries no end-to-end metrics, and the
                // other way round.
                continue;
            };
            let (verdict, medians, spreads) = compare_bounded(va, vb, gate);
            rows.push(Row {
                workload: workload.clone(),
                metric: gate.name.clone(),
                medians,
                spreads,
                bound: gate.bound,
                verdict,
            });
        }
        if !same_inputs {
            continue;
        }
        for name in EXACT.into_iter().chain(["attempted", "failed"]) {
            let (Some(va), Some(vb)) = (ra.values.get(name), rb.values.get(name)) else {
                continue;
            };
            let Some(first) = va.first().or(vb.first()) else {
                continue;
            };
            let identical = va.iter().chain(vb).all(|v| v.to_bits() == first.to_bits());
            rows.push(Row {
                workload: workload.clone(),
                metric: name.to_string(),
                medians: (median(va), median(vb)),
                spreads: (0.0, 0.0),
                bound: 0.0,
                verdict: if identical {
                    Verdict::Ok
                } else {
                    Verdict::Mismatch
                },
            });
        }
        if ra.unresolved_runs + rb.unresolved_runs > 0
            && (ra.values.is_empty() || rb.values.is_empty())
        {
            rows.push(Row {
                workload: workload.clone(),
                metric: "(every run under load)".into(),
                medians: (0.0, 0.0),
                spreads: (0.0, 0.0),
                bound: 0.0,
                verdict: Verdict::Unresolved,
            });
        }
    }
    rows
}

/// The comparison as an aligned table.
pub fn render(rows: &[Row]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<15} {:<20} {:>14} {:>14} {:>8} {:>8} {:>8} {:>6}  verdict",
        "workload", "metric", "median A", "median B", "change", "iqr A", "iqr B", "bound"
    );
    for r in rows {
        let change = if r.medians.0 != 0.0 {
            (r.medians.1 - r.medians.0) / r.medians.0.abs() * 100.0
        } else {
            0.0
        };
        let _ = writeln!(
            out,
            "{:<15} {:<20} {:>14.6} {:>14.6} {:>+7.2}% {:>7.2}% {:>7.2}% {:>5.0}%  {}",
            r.workload,
            r.metric,
            r.medians.0,
            r.medians.1,
            change,
            r.spreads.0 * 100.0,
            r.spreads.1 * 100.0,
            r.bound * 100.0,
            r.verdict
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gate(better: Better, bound: f64) -> Bound {
        Bound {
            name: "m".into(),
            better,
            bound,
        }
    }

    #[test]
    fn bounded_verdicts_follow_direction_and_bound() {
        let lower = gate(Better::Lower, 0.10);
        let a = [100.0, 101.0, 99.0];
        assert_eq!(
            compare_bounded(&a, &[105.0, 104.0, 106.0], &lower).0,
            Verdict::Ok
        );
        assert_eq!(
            compare_bounded(&a, &[115.0, 114.0, 116.0], &lower).0,
            Verdict::Regressed
        );
        assert_eq!(
            compare_bounded(&a, &[85.0, 84.0, 86.0], &lower).0,
            Verdict::Improved
        );
        let higher = gate(Better::Higher, 0.10);
        assert_eq!(
            compare_bounded(&a, &[85.0, 84.0, 86.0], &higher).0,
            Verdict::Regressed
        );
        assert_eq!(
            compare_bounded(&a, &[115.0, 114.0, 116.0], &higher).0,
            Verdict::Improved
        );
        assert_eq!(compare_bounded(&a, &[], &lower).0, Verdict::Unresolved);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_unless_one_side_sweeps() {
        let lower = gate(Better::Lower, 0.10);
        let noisy = [80.0, 100.0, 125.0, 90.0, 110.0];
        // Overlapping: nothing can be said.
        assert_eq!(
            compare_bounded(&noisy, &[85.0, 105.0, 120.0], &lower).0,
            Verdict::Unresolved
        );
        // Every run of B below every run of A.
        assert_eq!(
            compare_bounded(&noisy, &[50.0, 60.0, 70.0], &lower).0,
            Verdict::Improved
        );
        // Every run of B above every run of A, by more than the bound.
        assert_eq!(
            compare_bounded(&noisy, &[150.0, 160.0, 190.0], &lower).0,
            Verdict::Regressed
        );
    }

    #[test]
    fn exact_metrics_must_match_bit_for_bit_at_equal_inputs() {
        let set = |virtual_s: f64, seed: u64| {
            let mut runs = Runs::default();
            runs.values
                .insert("virtual_s".into(), vec![virtual_s, virtual_s]);
            runs.values.insert("ops_per_s".into(), vec![10.0, 10.1]);
            ResultSet {
                inputs: (seed, 10),
                workloads: BTreeMap::from([("w".to_string(), runs)]),
            }
        };
        let gates = [Bound {
            name: "ops_per_s".into(),
            better: Better::Higher,
            bound: 0.1,
        }];
        let rows = compare(&set(1.5, 1), &set(1.5, 1), &gates);
        assert!(
            rows.iter().all(|r| r.verdict == Verdict::Ok),
            "{}",
            render(&rows)
        );
        assert_eq!(rows.len(), 2);
        let rows = compare(&set(1.5, 1), &set(1.5000000000000002, 1), &gates);
        assert!(rows
            .iter()
            .any(|r| r.metric == "virtual_s" && r.verdict == Verdict::Mismatch));
        // Different seeds: exact metrics are not comparable and are skipped.
        let rows = compare(&set(1.5, 1), &set(2.5, 2), &gates);
        assert_eq!(rows.len(), 1);
        assert!(!rows[0].verdict.disagrees());
    }

    #[test]
    fn gates_and_result_files_parse() {
        let bench = hetsim::json::parse(
            r#"{"end_to_end":[{"name":"ops_per_s","unit":"op/s","better":"higher","bound":0.1}]}"#,
        )
        .unwrap();
        assert_eq!(
            bounds_of(&bench).unwrap(),
            vec![Bound {
                name: "ops_per_s".into(),
                better: Better::Higher,
                bound: 0.1
            }]
        );
        let doc = hetsim::json::parse(
            r#"{"seed":3,"seconds":10,"workloads":{"w":{"runs":[
                {"status":"ok","attempted":5,"failed":0,"metrics":{"ops_per_s":{"value":2.5,"unit":"op/s"}}},
                {"status":"unresolved","attempted":5,"failed":0,"metrics":{}}]}}}"#,
        )
        .unwrap();
        let set = result_set(&doc).unwrap();
        assert_eq!(set.inputs, (3, 10));
        assert_eq!(set.workloads["w"].values["ops_per_s"], vec![2.5]);
        assert_eq!(set.workloads["w"].unresolved_runs, 1);
    }
}
