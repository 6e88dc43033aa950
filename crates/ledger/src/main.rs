//! `ledger` — the benchmark's command line.
//!
//! ```text
//! ledger --workload W --seed N --seconds S --trace 0|1    one measured run (what BENCHMARK.json's command receives)
//! ledger all --seed N [--seconds S] [--runs K] [--trace] [--label L]
//! ledger check A.json B.json [--bench BENCHMARK.json]
//! ```

#![deny(deprecated)]

use hmpi_ledger::check;
use hmpi_ledger::json::Json;
use hmpi_ledger::runner::{self, RunArgs};
use hmpi_ledger::spec::{self, RUN_SECONDS, WORKLOADS};
use hmpi_ledger::sys;
use hmpi_ledger::workloads::CALIBRATED_SECONDS;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, ExitCode, Stdio};

const USAGE: &str = "usage:
  ledger --workload <name> --seed <n> --seconds <s> --trace <0|1>
  ledger all --seed <n> [--seconds <s>] [--runs <k>] [--trace] [--label <text>]
  ledger check <A.json> <B.json> [--bench <BENCHMARK.json>]";

/// Where result files and traces go: `crates/ledger/results/`.
fn results_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("results")
}

/// `--key value` pairs and bare flags, after the subcommand.
struct Flags(Vec<String>);

impl Flags {
    fn value(&self, key: &str) -> Option<&str> {
        let i = self.0.iter().position(|a| a == key)?;
        self.0.get(i + 1).map(String::as_str)
    }
    fn has(&self, key: &str) -> bool {
        self.0.iter().any(|a| a == key)
    }
    fn parsed<T: std::str::FromStr>(&self, key: &str) -> Result<Option<T>, String> {
        match self.value(key) {
            None if self.has(key) => Err(format!("{key} needs a value")),
            None => Ok(None),
            Some(v) => v
                .parse()
                .map(Some)
                .map_err(|_| format!("{key}: cannot read {v:?}")),
        }
    }
    fn required<T: std::str::FromStr>(&self, key: &str) -> Result<T, String> {
        self.parsed(key)?.ok_or(format!("{key} is required"))
    }
}

fn run_args(flags: &Flags) -> Result<RunArgs, String> {
    let seconds: f64 = flags.required("--seconds")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds} is outside 0..=600"));
    }
    let trace = match flags.required::<u8>("--trace")? {
        0 => false,
        1 => true,
        other => return Err(format!("--trace is 0 or 1, not {other}")),
    };
    Ok(RunArgs {
        workload: flags.required("--workload")?,
        seed: flags.required("--seed")?,
        seconds,
        trace,
    })
}

/// One measured run in this process; the result line goes last on stdout.
fn run_one(flags: &Flags) -> Result<ExitCode, String> {
    let args = run_args(flags)?;
    let busy = sys::runnable_others().unwrap_or(0.0);
    if busy > sys::nproc() as f64 {
        eprintln!(
            "ledger: {busy:.1} other runnable threads on {} core(s); treat this run as unresolved",
            sys::nproc()
        );
    }
    let result = runner::run(&args)?;
    if let Some(text) = &result.ledger_text {
        eprint!("{text}");
    }
    if let Some(trace) = &result.chrome_trace {
        let dir = results_dir();
        let path = dir.join(format!("trace_{}.json", args.workload));
        if let Err(e) = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, trace)) {
            eprintln!("ledger: could not write {}: {e}", path.display());
        }
    }
    if let Some(why) = &result.first_failure {
        eprintln!("ledger: {} failed: {why}", args.workload);
    }
    println!("{}", result.result_line());
    Ok(ExitCode::SUCCESS)
}

/// The single child `all` may have alive.
#[derive(Default)]
struct OneChild(Option<Child>);

impl OneChild {
    /// Starts a measured run in a fresh process.
    fn spawn(&mut self, args: &RunArgs) -> Result<(), String> {
        if let Some(child) = &mut self.0 {
            if child.try_wait().map_err(|e| e.to_string())?.is_none() {
                return Err(format!(
                    "refusing to start {}: child {} is still alive",
                    args.workload,
                    child.id()
                ));
            }
        }
        let exe = std::env::current_exe().map_err(|e| e.to_string())?;
        let child = Command::new(exe)
            .args(["--workload", &args.workload])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start a child: {e}"))?;
        self.0 = Some(child);
        Ok(())
    }

    /// Waits for the child and returns the last line of its stdout.
    fn result_line(&mut self) -> Result<String, String> {
        let child = self.0.take().ok_or("no child was started")?;
        let out = child.wait_with_output().map_err(|e| e.to_string())?;
        if !out.status.success() {
            return Err(format!("child exited with {}", out.status));
        }
        let stdout = String::from_utf8_lossy(&out.stdout);
        stdout
            .lines()
            .last()
            .map(str::to_string)
            .ok_or_else(|| "child printed nothing".to_string())
    }
}

impl Drop for OneChild {
    fn drop(&mut self) {
        // Never leave a measuring process behind, whatever went wrong.
        if let Some(child) = &mut self.0 {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// Every workload, each run in its own fresh child, one at a time.
fn run_all(flags: &Flags) -> Result<ExitCode, String> {
    let seed: u64 = flags.required("--seed")?;
    let seconds: f64 = flags.parsed("--seconds")?.unwrap_or(RUN_SECONDS as f64);
    let runs: usize = flags.parsed("--runs")?.unwrap_or(1).max(1);
    let trace = flags.has("--trace");
    let default_label = format!("{}seed{seed}", if trace { "trace_" } else { "" });
    let label = flags.value("--label").map_or(default_label, str::to_string);
    if !spec::valid_name(&label) {
        return Err(format!(
            "--label {label:?}: letters, digits, '_', '.', '-' only"
        ));
    }
    let cores = sys::nproc();
    let scale = seconds / CALIBRATED_SECONDS;
    println!("# ledger all: seed {seed}, {seconds} s per run (scale {scale}), {runs} run(s), nproc {cores}, trace {trace}");

    let mut child = OneChild::default();
    let mut failed_ops = 0.0;
    let mut workloads = Json::obj();
    for name in WORKLOADS {
        println!("\n## {name} — {}", runner::why(name).unwrap_or(""));
        let mut records = Vec::new();
        for run in 0..runs {
            let args = RunArgs {
                workload: name.to_string(),
                seed,
                seconds,
                trace,
            };
            // A loaded machine measures the load, not the commit. The
            // 1-minute average still carries the previous child's rank
            // threads, so it is recorded but the gate is the run queue
            // right now, with no child of ours alive.
            let load_before = sys::load_average().unwrap_or(0.0);
            let busy = sys::runnable_others().unwrap_or(0.0);
            child.spawn(&args)?;
            let line = child.result_line().map_err(|e| format!("{name}: {e}"))?;
            let load_after = sys::load_average().unwrap_or(0.0);
            let doc = hetsim::json::parse(&line)
                .map_err(|e| format!("{name}: bad result line: {e:?}"))?;
            let number = |key: &str| doc.get(key).and_then(|v| v.as_f64()).unwrap_or(0.0);
            let status = if busy <= cores as f64 {
                "ok"
            } else {
                "unresolved"
            };
            println!(
                "run {} of {runs}: {status} ({busy:.1} foreign runnable; load {load_before:.2} -> {load_after:.2}), {} ops, {} failed",
                run + 1,
                number("attempted"),
                number("failed")
            );
            failed_ops += number("failed");
            let mut metrics = Json::obj();
            for metric in runner::metric_names(trace) {
                let value = doc
                    .get("metrics")
                    .and_then(|m| m.get(metric))
                    .and_then(|m| m.get("value"))
                    .and_then(|v| v.as_f64());
                let unit = spec::unit_of(metric).unwrap_or("");
                match value {
                    Some(v) => {
                        println!("  {metric:<40} {v:>18.6} {unit}");
                        metrics =
                            metrics.with(metric, Json::obj().with("value", v).with("unit", unit));
                    }
                    None => return Err(format!("{name}: the child did not report {metric}")),
                }
            }
            records.push(
                Json::obj()
                    .with("status", status)
                    .with("runnable_before", busy)
                    .with("load_before", load_before)
                    .with("load_after", load_after)
                    .with("attempted", number("attempted") as u64)
                    .with("failed", number("failed") as u64)
                    .with("metrics", metrics),
            );
        }
        let entry = Json::obj()
            .with("why", runner::why(name).unwrap_or(""))
            .with("runs", records);
        workloads = workloads.with(name, entry);
    }
    let doc = Json::obj()
        .with("label", label.as_str())
        .with("seed", seed)
        .with("seconds", seconds)
        .with("scale", scale)
        .with("calibrated_seconds", CALIBRATED_SECONDS)
        .with("nproc", cores)
        .with("trace", trace)
        .with("runs", runs)
        .with("workloads", workloads);
    let dir = results_dir();
    let path = dir.join(format!("{label}.json"));
    std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, doc.pretty()))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!("\nwrote {}", path.display());
    Ok(if failed_ops > 0.0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

fn read_json(path: &str) -> Result<hetsim::json::JsonValue, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    hetsim::json::parse(&text).map_err(|e| format!("{path}: {e:?}"))
}

fn run_check(flags: &Flags) -> Result<ExitCode, String> {
    let (Some(a), Some(b)) = (flags.0.first(), flags.0.get(1)) else {
        return Err("check takes two result files".into());
    };
    if a.starts_with("--") || b.starts_with("--") {
        return Err("check takes the two result files first".into());
    }
    let default_bench = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCHMARK.json");
    let bench = flags.value("--bench").map_or(default_bench, PathBuf::from);
    let gates = check::bounds_of(&read_json(&bench.to_string_lossy())?)?;
    let (set_a, set_b) = (
        check::result_set(&read_json(a)?)?,
        check::result_set(&read_json(b)?)?,
    );
    if set_a.inputs != set_b.inputs {
        println!("# different seed or run length: exact metrics are not compared");
    }
    let rows = check::compare(&set_a, &set_b, &gates);
    print!("{}", check::render(&rows));
    let disagree = rows.iter().filter(|r| r.verdict.disagrees()).count();
    let unresolved = rows
        .iter()
        .filter(|r| r.verdict == check::Verdict::Unresolved)
        .count();
    println!(
        "\n{} pairing(s): {disagree} disagree, {unresolved} unresolved",
        rows.len()
    );
    Ok(if disagree > 0 || rows.is_empty() {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

fn main() -> ExitCode {
    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match argv.first().map(String::as_str) {
        Some("all") => run_all(&Flags(argv.split_off(1))),
        Some("check") => run_check(&Flags(argv.split_off(1))),
        Some(flag) if flag.starts_with("--") => run_one(&Flags(argv)),
        _ => Err("no command".to_string()),
    };
    outcome.unwrap_or_else(|why| {
        eprintln!("ledger: {why}\n{USAGE}");
        ExitCode::from(2)
    })
}
