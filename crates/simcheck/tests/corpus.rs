//! Replays the committed corpus as an ordinary test, so every curated
//! scenario (and every minimised repro of a past failure) is re-checked
//! by `cargo test`. Lines starting with `#` are comments; each other
//! line is one scenario in the `v1 seed=...` encoding. Every check here
//! goes through `batch`, so a row of the invariant table that applies but
//! never reaches a verdict fails the test like a violation does.

use simcheck::{batch, generate, generate_hierarchical, parse, Scenario, Workload};
use std::path::Path;

#[test]
fn the_committed_corpus_holds_every_invariant() {
    let dir = Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/corpus"));
    let mut files: Vec<_> = std::fs::read_dir(dir)
        .expect("corpus directory exists")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "scn"))
        .collect();
    files.sort();
    assert!(!files.is_empty(), "corpus has no .scn files");

    let (mut places, mut scenarios): (Vec<String>, Vec<Scenario>) = (Vec::new(), Vec::new());
    for file in &files {
        let text = std::fs::read_to_string(file).unwrap();
        for (lineno, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let place = format!("{}:{}", file.display(), lineno + 1);
            let sc = parse(line).unwrap_or_else(|e| panic!("{place}: parse error: {e}"));
            // The committed encoding is canonical: every line must
            // re-encode byte-for-byte, so new scenario fields (placement,
            // topology, ...) can never silently change the corpus format.
            assert_eq!(
                sc.to_string(),
                line,
                "{place}: line does not re-encode byte-identically"
            );
            places.push(place);
            scenarios.push(sc);
        }
    }
    assert!(
        scenarios.len() >= 10,
        "corpus has only {} scenarios; keep at least 10 curated cases",
        scenarios.len()
    );
    let storms = scenarios
        .iter()
        .filter(|sc| matches!(sc.workload, Workload::CollStorm { .. }))
        .count() as u64;
    let b = batch(scenarios);
    if let Err(e) = b.verdict() {
        match &b.failure {
            Some((i, ..)) => panic!("{}: {e}", places[*i]),
            None => panic!("{e}"),
        }
    }
    // No generator draws a storm, so the corpus's storm lines are the only
    // runs whose traces are replayed and compared.
    let traces = b
        .rows
        .iter()
        .find(|(label, ..)| *label == "trace-determinism");
    assert_eq!(traces, Some(&("trace-determinism", storms, storms)));
}

/// A fixed-seed smoke slice of the fuzzer itself, so `cargo test` alone
/// exercises generation + execution end to end even if the corpus is
/// ever pruned.
#[test]
fn a_fixed_seed_slice_of_the_fuzzer_passes() {
    if let Err(e) = batch((0..25).map(generate)).verdict() {
        panic!("{e}");
    }
}

/// The same smoke slice for the hierarchical batch: multi-site clusters
/// through the hierarchy-aware auto-selection, parity and value checks.
#[test]
fn a_fixed_seed_slice_of_the_hierarchical_fuzzer_passes() {
    if let Err(e) = batch((0..15).map(generate_hierarchical)).verdict() {
        panic!("{e}");
    }
}
