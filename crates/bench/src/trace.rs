//! Prediction-accuracy bench (`figures -- trace`, `BENCH_trace.json`).
//!
//! EM3D and MM on the paper's 9-workstation LAN run once each with tracing
//! enabled; the [`hetsim::PredictionReport`] gives the signed
//! `HMPI_Timeof` model error and the per-phase compute/comm/wait
//! breakdown, gated under 0.1 % for both applications. The run also writes
//! the EM3D Chrome trace `TRACE_em3d.json` (loadable in `about:tracing` /
//! Perfetto). What tracing costs in host time is the ledger's
//! `trace.overhead_pct`.

use crate::report::{Fields, Report, Value};
use crate::{em3d_cluster, matmul_cluster};
use hmpi_apps::em3d::{run_hmpi_traced, Em3dConfig};
use hmpi_apps::matmul;

/// Sub-bodies of the traced EM3D run (the paper's 9 machines).
pub const P: usize = 9;
/// EM3D iterations of the traced run.
pub const NITER: usize = 5;
/// Recon benchmark size.
pub const K: usize = 10;

/// Prediction accuracy of one traced application run, as a `model_error`
/// row: prediction, measurement, signed error (percent of measured;
/// positive: over-predicted), compute / communication / receive-wait totals
/// across ranks (virtual seconds), and messages and payload bytes sent.
fn model_error_row(
    app: &str,
    report: &hetsim::PredictionReport,
    trace: &hetsim::Trace,
    n_ranks: usize,
) -> Fields {
    let (mut compute, mut comm, mut wait) = (0.0, 0.0, 0.0);
    for ph in &report.phases {
        compute += ph.compute.as_secs();
        comm += ph.comm.as_secs();
        wait += ph.wait.as_secs();
    }
    let stats = trace.message_stats(n_ranks);
    let (sent, bytes) = stats
        .iter()
        .fold((0, 0), |(n, b), s| (n + s.sent, b + s.bytes_sent));
    vec![
        ("app", app.into()),
        ("predicted_s", Value::Fixed(report.predicted, 6)),
        ("measured_s", Value::Fixed(report.measured, 6)),
        ("error_pct", Value::Fixed(report.error_pct(), 2)),
        ("compute_s", Value::Fixed(compute, 6)),
        ("comm_s", Value::Fixed(comm, 6)),
        ("wait_s", Value::Fixed(wait, 6)),
        ("messages", sent.into()),
        ("bytes", Value::Int(bytes as i64)),
    ]
}

/// Runs the bench.
pub fn run() -> Report {
    let cfg = Em3dConfig::ramp(P, 150, 1.6, 0x7AACE);
    let em3d_cl = em3d_cluster();
    let em3d_ranks = em3d_cl.len();
    let traced = run_hmpi_traced(em3d_cl, &cfg, NITER, K);
    let events = traced.trace.events.len();
    let em3d = model_error_row("EM3D", &traced.report, &traced.trace, em3d_ranks);

    let mm_cl = matmul_cluster();
    let mm_ranks = mm_cl.len();
    let mm = matmul::run_hmpi_traced(mm_cl, 3, 12, 9, None);
    let matmul = model_error_row("MM", &mm.report, &mm.trace, mm_ranks);
    let worst_error_pct = f64::max(traced.report.error_pct().abs(), mm.report.error_pct().abs());

    let mut r = Report::new(
        "trace",
        format!("Prediction accuracy: traced EM3D and MM, {P}-node paper LAN"),
    );
    r.summary = vec![
        (
            "workload",
            format!("em3d p={P} niter={NITER}").as_str().into(),
        ),
        ("events_enabled", events.into()),
    ];
    r.tables.push(("model_error", vec![em3d, matmul]));
    // The traced EM3D run above, loadable in `about:tracing` / Perfetto.
    r.files
        .push(("TRACE_em3d.json", traced.trace.to_chrome_json()));
    r.gate(
        worst_error_pct < 0.1,
        format!("HMPI_Timeof model error {worst_error_pct:.3}% under 0.1% for EM3D and MM"),
    );
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_bench_runs_and_reports_are_sane() {
        let r = run();
        let (file, chrome) = &r.files[0];
        assert_eq!(*file, "TRACE_em3d.json");
        assert!(chrome.contains("\"traceEvents\"") && chrome.contains("\"ph\":\"X\""));
        let doc = hetsim::json::parse(&r.to_json()).expect("valid JSON");
        let number = |v: &hetsim::json::JsonValue, key: &str| {
            v.get(key).and_then(|x| x.as_f64()).expect(key)
        };
        assert!(
            number(&doc, "events_enabled") > 0.0,
            "enabled run must record events"
        );
        let rows = doc
            .get("model_error")
            .and_then(|v| v.as_array())
            .expect("model_error");
        assert_eq!(rows.len(), 2);
        for row in rows {
            for key in [
                "predicted_s",
                "measured_s",
                "compute_s",
                "comm_s",
                "messages",
                "bytes",
            ] {
                assert!(number(row, key) > 0.0, "{key} must be recorded: {row:?}");
            }
            assert!(
                number(row, "error_pct").abs() < 200.0,
                "model error out of band: {row:?}"
            );
        }
    }
}
