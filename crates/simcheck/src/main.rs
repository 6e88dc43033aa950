//! The simcheck CLI: fuzz a seed range, re-run one seed, or replay the
//! committed corpus. See the crate docs for the invariants checked.

use simcheck::{
    batch, check, generate, generate_crashy_collective, generate_hierarchical, parse,
    shrink_classified, Scenario, Violation,
};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

#[derive(Default)]
struct Opts {
    seed: Option<u64>,
    seeds: Option<u64>,
    base: u64,
    replay: Option<PathBuf>,
    out: PathBuf,
    no_shrink: bool,
    print_only: bool,
    crashy: bool,
    hierarchy: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: simcheck [--seeds N] [--base SEED] [--seed SEED] [--replay PATH]\n\
         \x20               [--out DIR] [--no-shrink] [--print] [--crashy] [--hierarchy]\n\
         \n\
         --seeds N     fuzz N consecutive seeds starting at --base (default 500)\n\
         --base SEED   first seed of the range (default 0; hex with 0x prefix)\n\
         --seed SEED   run exactly one seed, verbosely\n\
         --replay PATH re-run every scenario line in a .scn file or directory\n\
         --out DIR     where minimized repros are written (default: the crate's corpus/)\n\
         --no-shrink   report failures without minimising them\n\
         --print       print the generated scenario line(s) without executing\n\
         --crashy      generate crashy-collective scenarios only (fault-tolerant\n\
         \x20              collective contract batch: every seed crashes nodes under\n\
         \x20              a collective)\n\
         --hierarchy   generate multi-site scenarios only (hierarchy-aware\n\
         \x20              collective selector batch: slow WAN between sites, fast\n\
         \x20              LAN within)"
    );
    std::process::exit(2)
}

fn parse_seed_arg(s: &str) -> u64 {
    let r = if let Some(hex) = s.strip_prefix("0x") {
        u64::from_str_radix(hex, 16)
    } else {
        s.parse()
    };
    r.unwrap_or_else(|_| usage())
}

fn parse_opts() -> Opts {
    let out = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/corpus"));
    let mut opts = Opts {
        out,
        ..Opts::default()
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut val = || args.next().unwrap_or_else(|| usage());
        match arg.as_str() {
            "--seed" => opts.seed = Some(parse_seed_arg(&val())),
            "--seeds" => opts.seeds = Some(parse_seed_arg(&val())),
            "--base" => opts.base = parse_seed_arg(&val()),
            "--replay" => opts.replay = Some(PathBuf::from(val())),
            "--out" => opts.out = PathBuf::from(val()),
            "--no-shrink" => opts.no_shrink = true,
            "--print" => opts.print_only = true,
            "--crashy" => opts.crashy = true,
            "--hierarchy" => opts.hierarchy = true,
            _ => usage(),
        }
    }
    opts
}

/// Optionally shrinks a failing scenario, and writes its repro.
fn write_repro(sc: &Scenario, v: &Violation, opts: &Opts) {
    let minimal = if opts.no_shrink {
        sc.clone()
    } else {
        // Shrinking classifies every candidate by the invariant it
        // breaks, so the minimised repro keeps reproducing the *same*
        // violation kind wherever a same-kind reduction exists.
        let m = shrink_classified(sc, &|cand| {
            check(cand).err().map(|cv| cv.invariant.to_string())
        });
        eprintln!("  shrunk:   {m}");
        m
    };
    let v = check(&minimal).err().unwrap_or_else(|| v.clone());
    let _ = std::fs::create_dir_all(&opts.out);
    let path = opts.out.join(format!("repro-{:016x}.scn", sc.seed));
    let body = format!(
        "# auto-minimised repro for seed {:#x}\n# violation: {v}\n{minimal}\n",
        sc.seed
    );
    match std::fs::write(&path, body) {
        Ok(()) => eprintln!("  repro written to {}", path.display()),
        Err(e) => eprintln!("  could not write repro: {e}"),
    }
}

/// Every scenario line of a `.scn` file, or of every `.scn` file in a
/// directory, with its `file:line`.
fn corpus(path: &Path) -> Result<Vec<(String, Scenario)>, String> {
    let mut files = vec![path.to_path_buf()];
    if path.is_dir() {
        let entries = std::fs::read_dir(path).map_err(|e| format!("{}: {e}", path.display()))?;
        files = entries.filter_map(|e| e.ok().map(|e| e.path())).collect();
        files.retain(|p| p.extension().is_some_and(|x| x == "scn"));
        files.sort();
    }
    let mut scenarios = Vec::new();
    for file in &files {
        let text = std::fs::read_to_string(file).map_err(|e| format!("{}: {e}", file.display()))?;
        for (lineno, line) in text.lines().enumerate() {
            let place = format!("{}:{}", file.display(), lineno + 1);
            let line = line.trim();
            if !line.is_empty() && !line.starts_with('#') {
                let sc = parse(line).map_err(|e| format!("{place}: {e}"))?;
                scenarios.push((place, sc));
            }
        }
    }
    Ok(scenarios)
}

fn main() -> ExitCode {
    let opts = parse_opts();
    let gen_fn: fn(u64) -> Scenario = if opts.crashy {
        generate_crashy_collective
    } else if opts.hierarchy {
        generate_hierarchical
    } else {
        generate
    };
    let (base, n) = opts
        .seed
        .map_or((opts.base, opts.seeds.unwrap_or(500)), |s| (s, 1));
    let seeds: Vec<u64> = (0..n).map(|i| base.wrapping_add(i)).collect();
    if opts.print_only {
        for &seed in &seeds {
            println!("{}", gen_fn(seed));
        }
        return ExitCode::SUCCESS;
    }

    // Rank threads legitimately unwind through the deadlock watchdog and
    // crash-injection paths; the harness reports those as violations, so
    // silence the per-thread panic spew.
    std::panic::set_hook(Box::new(|_| {}));
    let started = Instant::now();
    let (b, places) = match &opts.replay {
        None => (batch(seeds.iter().map(|&seed| gen_fn(seed))), Vec::new()),
        Some(path) => match corpus(path) {
            Ok(lines) => {
                let (places, scenarios): (Vec<String>, Vec<Scenario>) = lines.into_iter().unzip();
                (batch(scenarios), places)
            }
            Err(msg) => {
                eprintln!("FAIL {msg}");
                return ExitCode::FAILURE;
            }
        },
    };
    let verdict = b.verdict();
    if let Err(e) = &verdict {
        eprintln!("FAIL {e}");
    }
    match (&b.failure, places.is_empty()) {
        (Some((i, ..)), false) => eprintln!("  at {}", places[*i]),
        (Some((_, sc, v)), true) => write_repro(sc, v, &opts),
        (None, _) => {}
    }
    let secs = started.elapsed().as_secs_f64();
    println!("simcheck: {secs:.1}s  {b}");
    if verdict.is_ok() {
        println!("all invariants hold");
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
