//! The benchmark in miniature, so `cargo test --workspace` covers it: one
//! traced run at 1/50 of the calibrated op counts. A traced run of one
//! workload probes the other five at that same scale, so this exercises
//! all six workloads, every correctness check, every stand-alone probe and
//! every per-layer metric name; an untraced run covers the end-to-end
//! names. Also holds `BENCHMARK.json` to the names in `spec`.

#![deny(deprecated)]

use hetsim::json::{parse, JsonValue};
use hmpi_ledger::runner::{self, RunArgs, PROBE_SCALE};
use hmpi_ledger::spec::{self, END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS};
use hmpi_ledger::workloads::CALIBRATED_SECONDS;

fn args(workload: &str, trace: bool) -> RunArgs {
    RunArgs {
        workload: workload.to_string(),
        seed: 7,
        seconds: PROBE_SCALE * CALIBRATED_SECONDS,
        trace,
    }
}

/// Parses a result line and returns its metrics object, checking the keys
/// the benchmark contract fixes.
fn metrics_of(line: &str) -> std::collections::BTreeMap<String, JsonValue> {
    let doc = parse(line).expect("the result line is JSON");
    let JsonValue::Object(top) = &doc else {
        panic!("the result line is not an object")
    };
    let keys: Vec<&str> = top.keys().map(String::as_str).collect();
    assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
    assert_eq!(doc.get("correct"), Some(&JsonValue::Bool(true)));
    assert!(doc.get("attempted").and_then(JsonValue::as_f64).unwrap() >= 1.0);
    assert_eq!(doc.get("failed").and_then(JsonValue::as_f64), Some(0.0));
    match doc.get("metrics") {
        Some(JsonValue::Object(m)) => m.clone(),
        other => panic!("metrics is {other:?}"),
    }
}

#[test]
fn a_traced_run_exercises_all_six_workloads_and_reports_every_per_layer_metric() {
    let result = runner::run(&args("fuzz_batch", true)).expect("known workload");
    assert!(result.correct, "first failure: {:?}", result.first_failure);
    assert_eq!(result.failed, 0);
    assert_eq!(result.metrics["failed_share"], 0.0);
    let metrics = metrics_of(&result.result_line());
    assert_eq!(metrics.len(), PER_LAYER.len());
    for (name, unit, _) in PER_LAYER {
        let m = metrics
            .get(name)
            .unwrap_or_else(|| panic!("{name} missing"));
        assert!(
            m.get("value").and_then(JsonValue::as_f64).is_some(),
            "{name} has no value"
        );
        assert_eq!(
            m.get("unit").and_then(JsonValue::as_str),
            Some(unit),
            "{name}"
        );
    }
    // Every other workload really ran: the metrics only it can fill moved.
    for owned in [
        "apps.mm_sweep_ms",
        "mpisim.rndv_mb_per_s",
        "mpisim.coll_auto_ms.p128",
        "mpisim.spawn_join_ms.p1024",
        "simcheck.mixed_seeds_per_s",
        "apps.em3d_ft_ms",
    ] {
        assert!(
            result.metrics[owned] > 0.0,
            "{owned} = {}",
            result.metrics[owned]
        );
    }
    let share = result.metrics["mpisim.plan_share.p128"];
    assert!((0.0..1.0).contains(&share), "plan share {share}");
    assert!(
        result.chrome_trace.is_some_and(|t| parse(&t).is_ok()),
        "chrome trace parses"
    );
    assert!(result
        .ledger_text
        .is_some_and(|t| t.contains("simcheck.check")));
}

#[test]
fn an_untraced_run_reports_every_end_to_end_metric() {
    let result = runner::run(&args("fault_storm", false)).expect("known workload");
    assert!(result.correct, "first failure: {:?}", result.first_failure);
    let metrics = metrics_of(&result.result_line());
    assert_eq!(metrics.len(), END_TO_END.len());
    for (name, unit, _) in END_TO_END {
        let m = metrics
            .get(name)
            .unwrap_or_else(|| panic!("{name} missing"));
        let value = m.get("value").and_then(JsonValue::as_f64).unwrap();
        assert!(
            value > 0.0,
            "{name} = {value}: end-to-end metrics are never zero"
        );
        assert_eq!(m.get("unit").and_then(JsonValue::as_str), Some(unit));
    }
    assert!(runner::run(&args("no_such_workload", false)).is_err());
}

#[test]
fn benchmark_json_lists_exactly_the_names_in_spec() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
    let doc = parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root"))
        .expect("BENCHMARK.json parses");
    let list = |key: &str| {
        doc.get(key)
            .and_then(JsonValue::as_array)
            .unwrap_or_else(|| panic!("{key}"))
            .to_vec()
    };
    let field = |v: &JsonValue, key: &str| {
        v.get(key)
            .and_then(JsonValue::as_str)
            .unwrap_or_else(|| panic!("{key}"))
            .to_string()
    };

    assert_eq!(
        doc.get("run_seconds").and_then(JsonValue::as_f64),
        Some(RUN_SECONDS as f64)
    );
    assert_eq!(
        list("paths")
            .iter()
            .filter_map(JsonValue::as_str)
            .collect::<Vec<_>>(),
        ["crates/ledger"]
    );
    let names: Vec<String> = list("workloads").iter().map(|w| field(w, "name")).collect();
    assert_eq!(names, WORKLOADS);
    for w in list("workloads") {
        assert_eq!(
            Some(field(&w, "why").as_str()),
            runner::why(&field(&w, "name"))
        );
    }
    for (key, want) in [
        ("end_to_end", &END_TO_END[..]),
        ("per_layer", &PER_LAYER[..]),
    ] {
        let got: Vec<(String, String, String)> = list(key)
            .iter()
            .map(|m| (field(m, "name"), field(m, "unit"), field(m, "better")))
            .collect();
        let want: Vec<(String, String, String)> = want
            .iter()
            .map(|(n, u, b)| (n.to_string(), u.to_string(), b.name().to_string()))
            .collect();
        assert_eq!(got, want, "{key}");
    }
    // Every gate is a share of the parent's median, at most a quarter.
    let gates = hmpi_ledger::check::bounds_of(&doc).expect("gates parse");
    assert!(gates.iter().all(|g| g.bound > 0.0 && g.bound <= 0.25));
    assert!(spec::valid_name("setup_s") && gates.iter().any(|g| g.name == "setup_s"));
}
