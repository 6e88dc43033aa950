//! Regenerates the paper's evaluation figures as text tables (or CSV) and
//! runs the benches beyond the paper.
//!
//! ```text
//! cargo run --release -p hmpi-bench --bin figures -- all
//! cargo run --release -p hmpi-bench --bin figures -- fig9a fig9b
//! cargo run --release -p hmpi-bench --bin figures -- --csv fig10
//! cargo run --release -p hmpi-bench --bin figures -- --quick all
//! ```
//!
//! A bench ([`BENCHES`]) prints its report, writes `BENCH_<name>.json` (and
//! any other file the report carries) unless `--quick`, and makes the
//! process exit 1 if any of its gates failed.

use hmpi_bench::{
    ablation, extension, faults, fig10, fig11, fig9, render_csv, render_table, ComparisonPoint,
    BENCHES,
};

/// The paper's figures and the print-only studies, in `all` order; the
/// [`BENCHES`] follow them.
const FIGURES: [&str; 8] = [
    "fig9a",
    "fig9b",
    "fig10",
    "fig11a",
    "fig11b",
    "ablations",
    "ext-nbody",
    "faults",
];

/// Every name `figures` accepts besides `all`.
fn names() -> Vec<&'static str> {
    FIGURES
        .into_iter()
        .chain(BENCHES.map(|(name, _)| name))
        .collect()
}

struct Options {
    csv: bool,
    quick: bool,
}

fn emit(opts: &Options, title: &str, x_label: &str, pts: &[ComparisonPoint]) {
    if opts.csv {
        print!("{}", render_csv(x_label, pts));
    } else {
        print!("{}", render_table(title, x_label, pts));
    }
    println!();
}

/// The (b) half of a comparison figure: the speedup column alone.
fn emit_speedup(opts: &Options, title: &str, x_label: &str, pts: &[ComparisonPoint]) {
    if opts.csv {
        println!("{},speedup", x_label.replace(' ', "_"));
        for p in pts {
            println!("{},{}", p.x, p.speedup());
        }
    } else {
        println!("# {title}");
        println!("{x_label:>12}  {:>8}", "speedup");
        for p in pts {
            println!("{:>12}  {:>8.2}", p.x, p.speedup());
        }
    }
    println!();
}

fn write(path: &str, text: &str) {
    std::fs::write(path, text).unwrap_or_else(|e| panic!("write {path}: {e}"));
    println!("wrote {path}");
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = Options {
        csv: args.iter().any(|a| a == "--csv"),
        quick: args.iter().any(|a| a == "--quick"),
    };
    let mut wanted: Vec<&str> = args
        .iter()
        .filter(|a| !a.starts_with("--"))
        .map(String::as_str)
        .collect();
    if wanted.is_empty() || wanted.contains(&"all") {
        wanted = names();
    }
    if let Some(other) = wanted.iter().find(|w| !names().contains(w)) {
        eprintln!("unknown figure `{other}`; known: {} all", names().join(" "));
        std::process::exit(2);
    }

    // Figures 9 and 11 each print as an (a) and a (b) half of one series.
    let wants = |prefix: &str| wanted.iter().any(|w| w.starts_with(prefix));
    let sizes: &[usize] = if opts.quick {
        &[60, 150]
    } else {
        fig9::DEFAULT_SIZES
    };
    let fig9_pts = if wants("fig9") {
        fig9::series(sizes)
    } else {
        Vec::new()
    };
    let sizes: &[usize] = if opts.quick {
        &[9, 12]
    } else {
        fig11::DEFAULT_NS
    };
    let fig11_pts = if wants("fig11") {
        fig11::series(sizes)
    } else {
        Vec::new()
    };

    let mut gate_failed = false;
    for w in wanted {
        if let Some((name, run)) = BENCHES.iter().find(|(name, _)| *name == w) {
            let report = run(opts.quick);
            println!("{}", report.render());
            if !opts.quick {
                write(&format!("BENCH_{name}.json"), &report.to_json());
                for (path, text) in &report.files {
                    write(path, text);
                }
                println!();
            }
            if let Err(failure) = report.enforce() {
                eprintln!("{failure}");
                gate_failed = true;
            }
            continue;
        }
        match w {
            "fig9a" => emit(
                &opts,
                "Figure 9(a): EM3D execution time, HMPI vs MPI (9-machine paper LAN)",
                "total nodes",
                &fig9_pts,
            ),
            "fig9b" => emit_speedup(
                &opts,
                "Figure 9(b): EM3D speedup of HMPI over MPI",
                "total nodes",
                &fig9_pts,
            ),
            "fig10" => {
                let n = if opts.quick { 9 } else { fig10::N };
                let ls: &[usize] = if opts.quick { &[3, 4, 6, 9] } else { fig10::DEFAULT_LS };
                let title = format!(
                    "Figure 10: MM execution time vs generalised block size l (r = {}, n = {n} blocks)",
                    fig10::R
                );
                emit(&opts, &title, "l", &fig10::series(ls, n));
                if !opts.csv {
                    println!("HMPI_Timeof would choose l = {}\n", fig10::timeof_choice(n));
                }
            }
            "fig11a" => emit(
                &opts,
                "Figure 11(a): MM execution time, HMPI (hetero dist, Timeof l) vs MPI (homogeneous)",
                "matrix size",
                &fig11_pts,
            ),
            "fig11b" => emit_speedup(
                &opts,
                "Figure 11(b): MM speedup of HMPI over MPI",
                "matrix size",
                &fig11_pts,
            ),
            "ablations" => {
                println!("# Ablation: selection algorithm (EM3D, paper LAN)");
                println!("{:>12}  {:>14}  {:>14}", "algorithm", "measured [s]", "predicted [s]");
                for p in ablation::mapping_algorithms(if opts.quick { 60 } else { 150 }) {
                    println!("{:>12}  {:>14.4}  {:>14.4}", p.algo, p.time, p.predicted);
                }
                println!();
                println!("# Ablation: network contention model (MM, l = 9)");
                println!("{:>16}  {:>14}", "model", "HMPI [s]");
                for p in ablation::contention_models(9) {
                    println!("{:>16}  {:>14.4}", p.model, p.hmpi);
                }
                println!();
                println!("# Ablation: recon freshness (EM3D, loaded cluster)");
                println!("{:>18}  {:>14}", "scenario", "time [s]");
                for p in ablation::recon_staleness(if opts.quick { 60 } else { 120 }) {
                    println!("{:>18}  {:>14.4}", p.scenario, p.time);
                }
                println!();
            }
            "ext-nbody" => {
                let sizes: &[usize] = if opts.quick { &[10] } else { extension::DEFAULT_SIZES };
                emit(
                    &opts,
                    "Extension: N-body execution time, HMPI vs MPI (beyond the paper)",
                    "total bodies",
                    &extension::series(sizes),
                );
            }
            "faults" => {
                let rates: &[f64] = if opts.quick { &[0.0, 0.3] } else { faults::DEFAULT_RATES };
                let trials = if opts.quick { 2 } else { faults::TRIALS };
                let pts = faults::series(rates, trials);
                if opts.csv {
                    println!("rate,completed,trials,mean_makespan,mean_survivors,mean_rebuilds");
                } else {
                    println!(
                        "# Degradation: FT EM3D vs injected per-node crash rate ({trials} seeds/rate, host exempt)"
                    );
                    println!(
                        "{:>6}  {:>9}  {:>14}  {:>10}  {:>9}",
                        "rate", "completed", "makespan [s]", "survivors", "rebuilds"
                    );
                }
                for p in &pts {
                    if opts.csv {
                        println!(
                            "{},{},{},{},{},{}",
                            p.rate, p.completed, p.trials, p.mean_makespan, p.mean_survivors,
                            p.mean_rebuilds
                        );
                    } else {
                        println!(
                            "{:>6.2}  {:>6}/{:<2}  {:>14.4}  {:>10.2}  {:>9.2}",
                            p.rate, p.completed, p.trials, p.mean_makespan, p.mean_survivors,
                            p.mean_rebuilds
                        );
                    }
                }
                println!();
            }
            other => unreachable!("`{other}` passed the name check"),
        }
    }
    if gate_failed {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The names following every `figures -- ` in `text`, flags skipped; a
    /// closing backtick or other punctuation ends the command.
    fn invoked(text: &str) -> Vec<&str> {
        let mut found = Vec::new();
        for command in text.split("figures -- ").skip(1) {
            for token in command.lines().next().unwrap_or("").split_whitespace() {
                let name = token.trim_end_matches(|c: char| !c.is_ascii_alphanumeric());
                if name.is_empty() {
                    break;
                }
                if !name.starts_with("--") {
                    found.push(name);
                }
                if name.len() != token.len() {
                    break;
                }
            }
        }
        found
    }

    #[test]
    fn every_name_ci_and_the_readme_invoke_is_in_the_table() {
        let ci = include_str!("../../../../.github/workflows/ci.yml");
        let readme = include_str!("../../../../README.md");
        let invoked: Vec<&str> = [ci, readme].into_iter().flat_map(invoked).collect();
        for bench in BENCHES.map(|(name, _)| name) {
            assert!(
                invoked.contains(&bench),
                "neither CI nor the README runs `{bench}`"
            );
        }
        for name in invoked {
            assert!(
                name == "all" || names().contains(&name),
                "`figures -- {name}` is not a figure"
            );
        }
    }
}
