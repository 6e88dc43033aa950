//! Tracing-overhead and prediction-accuracy benchmark (`figures -- trace`).
//!
//! Two questions, both on the paper's 9-workstation LAN:
//!
//! * **what does the instrumentation cost?** Every hook compiles to a single
//!   `Option` discriminant check when tracing is off, so the disabled-mode
//!   overhead cannot be separated from run-to-run noise inside one binary.
//!   The bench therefore times the EM3D selection workload (recon +
//!   `group_create` search + iterations — every hook site fires) in three
//!   interleaved batches: tracing off (A), tracing on, tracing off (B),
//!   min-of-N each. The spread between the two disabled batches *is* the
//!   empirical bound on the disabled-mode overhead; the enabled column shows
//!   what actually recording every span costs.
//! * **how good are the `HMPI_Timeof` predictions?** EM3D and MM run once
//!   with tracing enabled; the [`hetsim::PredictionReport`] gives the signed
//!   model error and the per-phase compute/comm/wait breakdown. The
//!   full-size run gates the error under 0.1 % for both applications.
//!
//! `figures -- trace` renders the table; the non-`--quick` run also writes
//! `BENCH_trace.json` and the EM3D Chrome trace `TRACE_em3d.json` (loadable
//! in `about:tracing` / Perfetto).

use crate::report::{Fields, Report, Value};
use crate::{em3d_cluster, matmul_cluster};
use hmpi_apps::em3d::{run_hmpi, run_hmpi_traced, Em3dConfig};
use hmpi_apps::matmul;
use std::time::Instant;

/// Sub-bodies of the EM3D overhead workload (the paper's 9 machines).
pub const P: usize = 9;
/// EM3D iterations per overhead run.
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

fn min_ms(samples: &[f64]) -> f64 {
    samples.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Runs the benchmark. `quick` shrinks the workload and repetition counts
/// for CI smoke runs.
pub fn run(quick: bool) -> Report {
    let base = if quick { 60 } else { 150 };
    // The quick workload is a few milliseconds, so it takes more samples
    // for the two disabled batches' minima to settle on the same floor.
    let reps = if quick { 9 } else { 5 };
    let cfg = Em3dConfig::ramp(P, base, 1.6, 0x7AACE);

    // --- overhead: interleaved disabled / enabled / disabled batches ------
    let (mut dis_a, mut ena, mut dis_b) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..reps {
        let t0 = Instant::now();
        let _ = run_hmpi(em3d_cluster(), &cfg, NITER, K);
        dis_a.push(t0.elapsed().as_secs_f64() * 1e3);

        let t0 = Instant::now();
        let _ = run_hmpi_traced(em3d_cluster(), &cfg, NITER, K);
        ena.push(t0.elapsed().as_secs_f64() * 1e3);

        let t0 = Instant::now();
        let _ = run_hmpi(em3d_cluster(), &cfg, NITER, K);
        dis_b.push(t0.elapsed().as_secs_f64() * 1e3);
    }

    // --- prediction accuracy ----------------------------------------------
    let em3d_cl = em3d_cluster();
    let em3d_ranks = em3d_cl.len();
    let traced = run_hmpi_traced(em3d_cl, &cfg, NITER, K);
    let events = traced.trace.events.len();
    let em3d = model_error_row("EM3D", &traced.report, &traced.trace, em3d_ranks);

    let mm_cl = matmul_cluster();
    let mm_ranks = mm_cl.len();
    let n = if quick { 9 } else { 12 };
    let mm = matmul::run_hmpi_traced(mm_cl, 3, n, 9, None);
    let matmul = model_error_row("MM", &mm.report, &mm.trace, mm_ranks);
    let worst_error_pct = f64::max(traced.report.error_pct().abs(), mm.report.error_pct().abs());

    // The two disabled batches are interleaved with the enabled one, so
    // their relative spread is the empirical bound on the disabled-mode
    // overhead (plus timer noise); the enabled figure is what recording
    // every span costs over the faster disabled batch.
    let (disabled_a_ms, disabled_b_ms, enabled_ms) = (min_ms(&dis_a), min_ms(&dis_b), min_ms(&ena));
    let lo = disabled_a_ms.min(disabled_b_ms);
    let mut r = Report::new(
        "trace",
        format!(
            "Tracing overhead and prediction accuracy: EM3D selection workload, {P}-node paper LAN"
        ),
    );
    r.summary = vec![
        (
            "workload",
            format!("em3d p={P} niter={NITER}").as_str().into(),
        ),
        ("events_enabled", events.into()),
        ("disabled_a_ms", Value::Fixed(disabled_a_ms, 3)),
        ("disabled_b_ms", Value::Fixed(disabled_b_ms, 3)),
        ("enabled_ms", Value::Fixed(enabled_ms, 3)),
        (
            "disabled_overhead_pct",
            Value::Fixed((disabled_a_ms - disabled_b_ms).abs() / lo * 100.0, 2),
        ),
        (
            "enabled_overhead_pct",
            Value::Fixed((enabled_ms - lo) / lo * 100.0, 2),
        ),
    ];
    r.tables.push(("model_error", vec![em3d, matmul]));
    // The traced EM3D run above, loadable in `about:tracing` / Perfetto.
    r.files
        .push(("TRACE_em3d.json", traced.trace.to_chrome_json()));
    // Virtual time, so deterministic; the quick sizes are smaller than the
    // ones the < 0.1 % claim is made for (MM at n = 9 sits at -0.103 %).
    if !quick {
        r.gate(
            worst_error_pct < 0.1,
            format!("HMPI_Timeof model error {worst_error_pct:.3}% under 0.1% for EM3D and MM"),
        );
    }
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_bench_runs_and_reports_are_sane() {
        let r = run(true);
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
        assert!(number(&doc, "disabled_a_ms") > 0.0 && number(&doc, "enabled_ms") > 0.0);
        // The spread is a wall-clock ratio of a ~5 ms workload on cores this
        // test shares with its neighbours, so the bound is kept loose and a
        // noisy attempt is retried (best of three). The release-mode JSON is
        // where the < 5% acceptance figure lives.
        let mut spread = number(&doc, "disabled_overhead_pct");
        for _ in 0..2 {
            if spread < 30.0 {
                break;
            }
            let again = hetsim::json::parse(&run(true).to_json()).expect("valid JSON");
            spread = spread.min(number(&again, "disabled_overhead_pct"));
        }
        assert!(
            spread < 30.0,
            "disabled-batch spread {spread:.2}% implausibly high"
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
