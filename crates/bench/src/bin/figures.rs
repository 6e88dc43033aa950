//! Runs the benches ([`BENCHES`]): the paper's evaluation, its ablations
//! and the benches beyond the paper.
//!
//! ```text
//! cargo run --release -p hmpi-bench --bin figures -- all
//! cargo run --release -p hmpi-bench --bin figures -- paper ablation
//! cargo run --release -p hmpi-bench --bin figures -- --quick all
//! ```
//!
//! Each bench prints its report, writes `BENCH_<name>.json` (and any other
//! file the report carries) unless `--quick`, and makes the process exit 1
//! if any of its gates failed. An unknown name or flag exits 2.

use hmpi_bench::BENCHES;

/// Every name `figures` accepts besides `all`.
fn names() -> Vec<&'static str> {
    BENCHES.map(|(name, _)| name).to_vec()
}

fn write(path: &str, text: &str) {
    std::fs::write(path, text).unwrap_or_else(|e| panic!("write {path}: {e}"));
    println!("wrote {path}");
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let mut wanted: Vec<&str> = (args.iter().map(String::as_str))
        .filter(|a| *a != "--quick")
        .collect();
    if wanted.is_empty() || wanted.contains(&"all") {
        wanted = names();
    }
    if let Some(other) = wanted.iter().find(|w| !names().contains(w)) {
        eprintln!(
            "unknown bench `{other}`; usage: figures [--quick] [all | {}]",
            names().join(" | ")
        );
        std::process::exit(2);
    }

    let mut gate_failed = false;
    for (name, run) in wanted
        .iter()
        .filter_map(|w| BENCHES.iter().find(|(n, _)| n == w))
    {
        let report = run(quick);
        println!("{}", report.render());
        if !quick {
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
