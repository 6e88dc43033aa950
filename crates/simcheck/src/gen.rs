//! Seed → scenario: the random test-case generator.
//!
//! All randomness flows from the single `u64` seed through a [`StdRng`],
//! so the same seed always yields the same scenario — a failing seed
//! printed by the CLI *is* the repro. The generator materialises every
//! drawn value into the [`Scenario`] (rather than re-deriving it at
//! execution time) so the shrinker can edit the case afterwards.

use crate::scenario::{AppKind, LinkOverride, Scenario, Workload};
use hetsim::{ContentionModel, FaultEvent, NodeId, SimTime};
use mpisim::CollectiveKind;
use perfmodel::ParamValue;
use rand::{Rng, SeedableRng, StdRng};

fn log_uniform(rng: &mut StdRng, lo: f64, hi: f64) -> f64 {
    lo * (hi / lo).powf(rng.random())
}

fn draw_contention(rng: &mut StdRng) -> ContentionModel {
    match rng.random_range(0u32..3) {
        0 => ContentionModel::ParallelLinks,
        1 => ContentionModel::SerializedNic,
        _ => ContentionModel::SharedBus,
    }
}

fn draw_workload(rng: &mut StdRng, n: usize) -> Workload {
    match rng.random_range(0u32..8) {
        0 => Workload::P2pRing {
            elems: log_uniform(rng, 1.0, 4096.0) as usize + 1,
            rounds: rng.random_range(1..4),
        },
        1 => Workload::P2pRandom {
            pattern_seed: rng.random_range(0..u64::MAX),
            msgs: rng.random_range(1..17),
            max_elems: log_uniform(rng, 1.0, 2048.0) as usize + 1,
        },
        2 => Workload::Collective {
            kind: match rng.random_range(0u32..4) {
                0 => CollectiveKind::Bcast,
                1 => CollectiveKind::Reduce,
                2 => CollectiveKind::Allreduce,
                _ => CollectiveKind::Allgather,
            },
            elems: log_uniform(rng, 1.0, 4096.0) as usize + 1,
            root: rng.random_range(0..n),
        },
        3 => Workload::GroupCycle {
            model_seed: rng.random_range(0..u64::MAX),
            cycles: rng.random_range(1..4),
        },
        4 => Workload::ReconRounds {
            units: rng.random_range(0.5..20.0),
            rounds: rng.random_range(1..4),
        },
        5 => Workload::Selection {
            model_seed: rng.random_range(0..u64::MAX),
            est_seed: rng.random_range(0..u64::MAX),
        },
        6 => Workload::ShrinkRecovery {
            rounds: rng.random_range(2..5),
            units: rng.random_range(10.0..100.0),
        },
        _ => Workload::AppKernel {
            app: match rng.random_range(0u32..3) {
                0 => AppKind::Em3d,
                1 => AppKind::Matmul,
                _ => AppKind::Nbody,
            },
        },
    }
}

/// Whether a workload tolerates injected faults. The kernels are checked
/// fault-free (they `expect` their way through setup); the pure selection
/// check has no simulation for faults to touch. Collectives *are*
/// faultable: the fault-tolerant contract (survivors return bit-exact
/// values or typed errors, agreement verdicts are unanimous, the error
/// surface replays deterministically) is checked by `check_collective`.
fn faultable(w: &Workload) -> bool {
    !matches!(w, Workload::AppKernel { .. } | Workload::Selection { .. })
}

/// Materialises 1..=`max_events` random fault events. Node 0 is exempt
/// from crashes (it hosts HMPI's parent rank; a run where the host dies at
/// t=0 exercises nothing).
fn draw_faults(rng: &mut StdRng, n: usize, horizon: f64) -> Vec<FaultEvent> {
    let mut events = Vec::new();
    let mut crashed = vec![false; n];
    for _ in 0..rng.random_range(1..5) {
        let at = SimTime::from_secs(rng.random_range(0.0..horizon).max(1e-9));
        let node = NodeId(rng.random_range(0..n));
        match rng.random_range(0u32..4) {
            0 if node.0 != 0 && !crashed[node.0] => {
                crashed[node.0] = true;
                events.push(FaultEvent::NodeCrash { node, at });
            }
            1 => {
                let span = rng.random_range(0.05..horizon);
                events.push(FaultEvent::NodeSlowdown {
                    node,
                    from: at,
                    until: at + SimTime::from_secs(span),
                    factor: rng.random_range(0.05..1.0),
                });
            }
            2 if n >= 2 => {
                let to = NodeId((node.0 + rng.random_range(1..n)) % n);
                events.push(FaultEvent::LinkDegrade {
                    from: node,
                    to,
                    at,
                    bandwidth_factor: rng.random_range(0.05..1.0),
                });
            }
            3 if n >= 2 => {
                let to = NodeId((node.0 + rng.random_range(1..n)) % n);
                events.push(FaultEvent::LinkDrop { from: node, to, at });
            }
            _ => {}
        }
    }
    events
}

/// Generates the scenario for `seed`.
pub fn generate(seed: u64) -> Scenario {
    let mut rng = StdRng::seed_from_u64(seed);
    // Node count 1..=32, quadratically skewed towards small clusters so
    // the seed budget spends most of its time on fast cases while still
    // reaching paper-scale (9 nodes) and beyond regularly.
    let r: f64 = rng.random();
    let n = 1 + (r * r * 31.0) as usize;

    let speeds: Vec<f64> = (0..n).map(|_| rng.random_range(5.0..500.0)).collect();
    let base_lat = log_uniform(&mut rng, 1e-6, 1e-3);
    let base_bw = log_uniform(&mut rng, 1e6, 1e9);

    let mut overrides = Vec::new();
    if n >= 2 {
        for _ in 0..rng.random_range(0..n) {
            let a = rng.random_range(0..n);
            let b = (a + rng.random_range(1..n)) % n;
            overrides.push(LinkOverride {
                a,
                b,
                lat: log_uniform(&mut rng, 1e-6, 1e-2),
                bw: log_uniform(&mut rng, 1e5, 1e9),
            });
        }
    }

    let contention = draw_contention(&mut rng);
    let workload = draw_workload(&mut rng, n);

    let mut faults = Vec::new();
    if let Workload::ShrinkRecovery { rounds, units } = workload {
        // The crash must land inside the compute window so the shrink
        // path actually runs; aim for the middle rounds. Speeds are at
        // least 5, so `units / 5` bounds one round's duration above.
        if n >= 2 {
            let round_time = units / 5.0;
            let at = rng.random_range(0.2..rounds as f64 - 0.2) * round_time;
            faults.push(FaultEvent::NodeCrash {
                node: NodeId(rng.random_range(1..n)),
                at: SimTime::from_secs(at),
            });
        }
    } else if faultable(&workload) && rng.random_range(0u32..5) < 2 {
        faults = draw_faults(&mut rng, n, 10.0);
    }

    // Intra-node placement and the memory-bus domain, drawn *after* every
    // other field so pre-existing seeds keep producing the exact scenarios
    // they always did. Multi-rank placement only executes on the mpisim
    // workloads, and large clusters stay one-rank-per-node to bound the
    // thread count.
    let mpisim_workload = matches!(
        workload,
        Workload::P2pRing { .. } | Workload::P2pRandom { .. } | Workload::Collective { .. }
    );
    let (ranks_per_node, mem) = if mpisim_workload && n <= 8 && rng.random_range(0u32..4) == 0 {
        let rpn = rng.random_range(2..5);
        let mem = (rng.random_range(0u32..4) > 0).then(|| {
            (
                log_uniform(&mut rng, 1e-7, 1e-5),
                log_uniform(&mut rng, 1e8, 1e10),
            )
        });
        (rpn, mem)
    } else {
        (1, None)
    };

    // A declared multi-level topology, drawn last (after every other
    // field, like the placement fields before it) so pre-existing seeds
    // keep their cluster, faults and workload unchanged. One node in
    // five-ish gains a 2–3-site split with a slow WAN; link overrides are
    // dropped then so the hierarchy actually governs the inter-site cost.
    let mut site = Vec::new();
    let mut wan = None;
    if n >= 4 && rng.random_range(0u32..5) == 0 {
        let sites = rng.random_range(2..(n / 2).min(3) + 1);
        site = (0..n).map(|i| i * sites / n).collect();
        wan = Some((
            log_uniform(&mut rng, 1e-3, 1e-1),
            log_uniform(&mut rng, 1e5, 1e7),
        ));
        overrides.clear();
    }

    Scenario {
        seed,
        speeds,
        base_lat,
        base_bw,
        overrides,
        contention,
        ranks_per_node,
        mem,
        site,
        switch: Vec::new(),
        wan,
        backbone: None,
        faults,
        workload,
    }
}

/// Generates the *hierarchical* scenario for `seed`: always a multi-site
/// cluster (2–4 sites of 2–4 nodes, optionally split further into
/// switches), a fast LAN inside switches, a slower backbone between
/// switches and a slow WAN between sites. The workload is usually a
/// collective — gating the hierarchy-aware auto-selection invariant (a
/// hierarchical pick must beat the flat argmin *and* execute with exact
/// values and `timeof` parity) — with p2p workloads mixed in so routing
/// over the resolved hierarchy links is covered too.
pub fn generate_hierarchical(seed: u64) -> Scenario {
    // Salted so the batch is decorrelated from the other generators.
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5bd1_e995_85eb_ca6b);
    let sites = rng.random_range(2..5usize);
    let per_site = rng.random_range(2..5usize);
    let n = sites * per_site;

    let speeds: Vec<f64> = (0..n).map(|_| rng.random_range(20.0..500.0)).collect();
    let base_lat = log_uniform(&mut rng, 1e-5, 1e-3);
    let base_bw = log_uniform(&mut rng, 1e7, 1e9);
    let wan = (
        log_uniform(&mut rng, 1e-3, 1e-1),
        log_uniform(&mut rng, 1e5, 1e7),
    );

    let site: Vec<usize> = (0..n).map(|i| i / per_site).collect();
    // Half the scenarios split each site into two switches joined by a
    // backbone slower than the LAN but faster than the WAN.
    let (switch, backbone) = if per_site >= 3 && rng.random_range(0u32..2) == 0 {
        let switch = (0..n)
            .map(|i| 2 * (i / per_site) + usize::from(i % per_site >= per_site.div_ceil(2)))
            .collect();
        let backbone = (
            log_uniform(&mut rng, 1e-4, 1e-2),
            log_uniform(&mut rng, 1e6, 1e8),
        );
        (switch, Some(backbone))
    } else {
        (Vec::new(), None)
    };

    let contention = draw_contention(&mut rng);
    let workload = match rng.random_range(0u32..4) {
        0 => Workload::P2pRing {
            elems: log_uniform(&mut rng, 1.0, 4096.0) as usize + 1,
            rounds: rng.random_range(1..4),
        },
        _ => Workload::Collective {
            kind: match rng.random_range(0u32..4) {
                0 => CollectiveKind::Bcast,
                1 => CollectiveKind::Reduce,
                2 => CollectiveKind::Allreduce,
                _ => CollectiveKind::Allgather,
            },
            // Skewed large: hierarchy pays off in the bandwidth regime.
            elems: log_uniform(&mut rng, 64.0, 16384.0) as usize + 1,
            root: rng.random_range(0..n),
        },
    };

    let faults = if faultable(&workload) && rng.random_range(0u32..5) == 0 {
        draw_faults(&mut rng, n, 10.0)
    } else {
        Vec::new()
    };

    Scenario {
        seed,
        speeds,
        base_lat,
        base_bw,
        overrides: Vec::new(),
        contention,
        ranks_per_node: 1,
        mem: None,
        site,
        switch,
        wan: Some(wan),
        backbone,
        faults,
        workload,
    }
}

/// Generates the *crashy collective* scenario for `seed`: always a
/// collective workload on at least four nodes, with one to three node
/// crashes timed log-uniformly so they land before, inside and after the
/// collective's short virtual window. This is the CI batch for the
/// fault-tolerant collective contract (DESIGN.md §12): survivors return
/// bit-exact values or typed fault-shaped errors, post-failure agreement
/// is unanimous, and the same seed replays the same error surface.
///
/// Unlike [`generate`], node 0 is *not* exempt from crashes — a dying
/// root or rank 0 is exactly the coverage this batch exists for.
pub fn generate_crashy_collective(seed: u64) -> Scenario {
    // Salted so the batch is decorrelated from the main generator's
    // scenarios for the same seed range.
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15);
    let r: f64 = rng.random();
    let n = 4 + (r * r * 28.0) as usize; // 4..=32, skewed small

    let speeds: Vec<f64> = (0..n).map(|_| rng.random_range(5.0..500.0)).collect();
    let base_lat = log_uniform(&mut rng, 1e-6, 1e-3);
    let base_bw = log_uniform(&mut rng, 1e6, 1e9);

    let mut overrides = Vec::new();
    for _ in 0..rng.random_range(0..n / 2) {
        let a = rng.random_range(0..n);
        let b = (a + rng.random_range(1..n)) % n;
        overrides.push(LinkOverride {
            a,
            b,
            lat: log_uniform(&mut rng, 1e-6, 1e-2),
            bw: log_uniform(&mut rng, 1e5, 1e9),
        });
    }

    let contention = draw_contention(&mut rng);
    let workload = Workload::Collective {
        kind: match rng.random_range(0u32..4) {
            0 => CollectiveKind::Bcast,
            1 => CollectiveKind::Reduce,
            2 => CollectiveKind::Allreduce,
            _ => CollectiveKind::Allgather,
        },
        elems: log_uniform(&mut rng, 1.0, 4096.0) as usize + 1,
        root: rng.random_range(0..n),
    };

    let mut faults = Vec::new();
    let mut crashed = vec![false; n];
    for _ in 0..rng.random_range(1..4) {
        let node = NodeId(rng.random_range(0..n));
        if crashed[node.0] {
            continue;
        }
        crashed[node.0] = true;
        faults.push(FaultEvent::NodeCrash {
            node,
            at: SimTime::from_secs(log_uniform(&mut rng, 1e-6, 2.0)),
        });
    }

    Scenario {
        seed,
        speeds,
        base_lat,
        base_bw,
        overrides,
        contention,
        ranks_per_node: 1,
        mem: None,
        site: Vec::new(),
        switch: Vec::new(),
        wan: None,
        backbone: None,
        faults,
        workload,
    }
}

/// A generated performance model: an `algorithm` in the model language and
/// the actual parameters `p`, `v[p]`, `c[p][p]` it is instantiated with.
#[derive(Debug, PartialEq)]
pub(crate) struct ModelProgram {
    /// The model source.
    pub src: String,
    /// Actual parameters, in declaration order.
    pub params: Vec<ParamValue>,
}

/// Draws a random model program with `1..=max_p` abstract processors:
/// volumes `v[I]` of 1–99 benchmark units, `c[L][I]` bytes of 64–65535 at
/// a random density, a random literal parent and — for half the seeds — a
/// `scheme` of 1–3 serial (`for`) or `par` steps. A scheme splits every
/// processor's computation and every nonzero pair's transfer into shares
/// that sum to 100 % across the steps, so the model lints clean by
/// construction; without one the model runs the default bulk-synchronous
/// pattern. The same `(seed, max_p)` always writes the same program.
///
/// # Panics
/// Panics if `max_p == 0`.
pub(crate) fn random_model(seed: u64, max_p: usize) -> ModelProgram {
    assert!(max_p > 0, "need room for at least one processor");
    let mut rng = StdRng::seed_from_u64(seed);
    let p = rng.random_range(0..max_p) + 1;
    let v: Vec<i64> = (0..p).map(|_| rng.random_range(1..100)).collect();
    let density = rng.random_range(0.0..1.0);
    let c: Vec<i64> = (0..p * p)
        .map(|k| {
            let drawn = k / p != k % p && rng.random_range(0.0..1.0) < density;
            if drawn {
                rng.random_range(64..65536)
            } else {
                0
            }
        })
        .collect();
    let parent = rng.random_range(0..p);
    let scheme = if rng.random_range(0u32..2) == 0 {
        String::new()
    } else {
        random_scheme(&mut rng, p, &c)
    };
    let src = format!(
        "algorithm Random(int p, int v[p], int c[p][p]) {{
  coord I=p;
  node {{I>=0: bench*(v[I]);}};
  link (L=p) {{c[L][I] > 0: length*(c[L][I]) [L]->[I];}};
  parent[{parent}];
{scheme}}}
"
    );
    let params = vec![
        ParamValue::Int(p as i64),
        ParamValue::Array(v),
        ParamValue::Array(c),
    ];
    ModelProgram { src, params }
}

/// The `scheme` section of [`random_model`]: each step is a `for` or `par`
/// loop over branches `b`, and each activity's nonzero share for the step
/// (a multiple of 5 %) lands in a random branch.
fn random_scheme(rng: &mut StdRng, p: usize, c: &[i64]) -> String {
    let steps = rng.random_range(1..4);
    let activities: Vec<(String, Vec<u32>)> = (0..p)
        .map(|i| format!("%%[{i}]"))
        .chain(
            (0..p * p)
                .filter(|&k| c[k] > 0)
                .map(|k| format!("%%[{}]->[{}]", k / p, k % p)),
        )
        .map(|a| {
            let mut cuts: Vec<u32> = (1..steps).map(|_| rng.random_range(0..21)).collect();
            cuts.extend([0, 20]);
            cuts.sort_unstable();
            (a, cuts.windows(2).map(|w| 5 * (w[1] - w[0])).collect())
        })
        .collect();
    let mut out = String::from("  scheme {\n    int b;\n");
    for step in 0..steps {
        let branches = rng.random_range(1..4);
        let mut body = vec![String::new(); branches];
        for (a, shares) in activities.iter().filter(|(_, s)| s[step] > 0) {
            body[rng.random_range(0..branches)] += &format!(" {}{a};", shares[step]);
        }
        let kw = if rng.random_range(0u32..2) == 0 {
            "for"
        } else {
            "par"
        };
        out += &format!("    {kw} (b = 0; b < {branches}; b++) {{\n");
        for (j, stmts) in body.iter().enumerate() {
            out += &format!("      if (b == {j}) {{{stmts} }}\n");
        }
        out += "    }\n";
    }
    out + "  };\n"
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::parse;
    use perfmodel::PerformanceModel;
    use std::collections::HashSet;

    #[test]
    fn generation_is_deterministic() {
        for seed in 0..200 {
            assert_eq!(generate(seed), generate(seed), "seed {seed}");
        }
    }

    #[test]
    fn every_scenario_round_trips_through_its_line() {
        for seed in 0..500 {
            let sc = generate(seed);
            let line = sc.to_string();
            let back = parse(&line).unwrap_or_else(|e| panic!("seed {seed}: {e}\n{line}"));
            assert_eq!(sc, back, "seed {seed} did not round-trip:\n{line}");
        }
    }

    #[test]
    fn the_generator_covers_the_space() {
        let mut workloads = HashSet::new();
        let mut contentions = HashSet::new();
        let mut any_faults = false;
        let mut any_faulty_collective = false;
        let mut any_multirank = false;
        let mut any_mem_bus = false;
        let mut any_hier = false;
        let mut max_n = 0;
        for seed in 0..400 {
            let sc = generate(seed);
            workloads.insert(sc.workload.label());
            contentions.insert(format!("{:?}", sc.contention));
            any_faults |= !sc.faults.is_empty();
            any_faulty_collective |= !sc.faults.is_empty()
                && matches!(sc.workload, Workload::Collective { .. });
            any_multirank |= sc.ranks_per_node > 1;
            any_mem_bus |= sc.mem.is_some();
            any_hier |= sc.is_hierarchical();
            if sc.ranks_per_node > 1 {
                assert!(sc.nodes() <= 8, "seed {seed}: {} nodes multi-rank", sc.nodes());
            }
            max_n = max_n.max(sc.nodes());
        }
        assert_eq!(workloads.len(), 8, "missing workloads: {workloads:?}");
        assert_eq!(contentions.len(), 3);
        assert!(any_faults, "no faulty scenario in 400 seeds");
        assert!(
            any_faulty_collective,
            "no fault-bearing collective in 400 seeds"
        );
        assert!(any_multirank, "no multi-rank placement in 400 seeds");
        assert!(any_mem_bus, "no memory-bus scenario in 400 seeds");
        assert!(any_hier, "no multi-site scenario in 400 seeds");
        assert!(max_n >= 16, "clusters never got large: max {max_n}");
    }

    #[test]
    fn hierarchical_scenarios_are_multi_site_and_round_trip() {
        let mut any_switch_split = false;
        let mut any_collective = false;
        let mut any_p2p = false;
        let mut any_faults = false;
        for seed in 0..300 {
            let sc = generate_hierarchical(seed);
            assert_eq!(generate_hierarchical(seed), sc, "seed {seed}");
            assert!(sc.is_hierarchical(), "seed {seed}: flat scenario {sc}");
            let sites = sc.site.iter().collect::<HashSet<_>>().len();
            assert!(sites >= 2, "seed {seed}: single site in {sc}");
            assert!(sc.wan.is_some(), "seed {seed}: no WAN in {sc}");
            any_switch_split |= !sc.switch.is_empty();
            any_collective |= matches!(sc.workload, Workload::Collective { .. });
            any_p2p |= matches!(sc.workload, Workload::P2pRing { .. });
            any_faults |= !sc.faults.is_empty();
            assert_eq!(parse(&sc.to_string()).unwrap(), sc, "seed {seed}");
        }
        assert!(any_switch_split, "no switch split in 300 seeds");
        assert!(any_collective, "no hierarchical collective in 300 seeds");
        assert!(any_p2p, "no hierarchical p2p in 300 seeds");
        assert!(any_faults, "no hierarchical faults in 300 seeds");
    }

    #[test]
    fn random_models_are_deterministic_clean_and_round_trip() {
        let (mut with_scheme, mut par, mut serial) = (0, false, false);
        for seed in 0..1000 {
            let prog = random_model(seed, 8);
            assert_eq!(random_model(seed, 8), prog, "seed {seed}");
            let model = crate::exec::compile_model(&prog)
                .unwrap_or_else(|v| panic!("seed {seed}: {v}\n{}", prog.src));
            assert!((1..=8).contains(&model.num_processors()), "seed {seed}");
            with_scheme += usize::from(prog.src.contains("scheme"));
            par |= prog.src.contains("par (");
            serial |= prog.src.contains("for (");
        }
        assert!(
            (400..600).contains(&with_scheme),
            "{with_scheme} of 1000 have a scheme"
        );
        assert!(par && serial, "steps are not both serial and par");
    }

    #[test]
    fn dropping_one_share_fails_model_lint() {
        let mut dropped = 0;
        for seed in 0..100 {
            let mut prog = random_model(seed, 4);
            let Some(at) = prog.src.find("%%") else {
                continue;
            };
            // Every share is at least 5 %, beyond the linter's tolerance.
            let start = prog.src[..at].rfind(' ').unwrap();
            let end = at + prog.src[at..].find(';').unwrap() + 1;
            prog.src.replace_range(start..end, "");
            let err = crate::exec::compile_model(&prog).unwrap_err();
            assert_eq!(err.invariant, "model-lint", "seed {seed}: {err}");
            dropped += 1;
        }
        assert!(dropped > 20, "only {dropped} schemes in 100 seeds");
    }

    #[test]
    fn mutated_models_fail_to_compile() {
        // A misspelt parameter, or an undefined name in a branch no
        // parameters take, is a compile error, as in C: `from_program`
        // itself fails, before `instantiate` or `analyze` run.
        let renames = [
            ("coord I=p", "coord I=q"),
            ("bench*(v[I])", "bench*(w[I])"),
            ("link (L=p)", "link (L=q)"),
            ("length*(c[L][I])", "length*(d[L][I])"),
        ];
        for seed in 0..100u64 {
            let prog = random_model(seed, 4);
            let (from, to) = renames[seed as usize % renames.len()];
            let renamed = prog.src.replacen(from, to, 1);
            let untaken = "if (p < 0) nosuch%%[0];";
            let guarded = match prog.src.find("int b;") {
                Some(at) => format!("{}{untaken}{}", &prog.src[..at], &prog.src[at..]),
                None => {
                    let scheme = format!("scheme {{ {untaken} }};\n  parent[");
                    prog.src.replacen("parent[", &scheme, 1)
                }
            };
            for src in [renamed, guarded] {
                assert_ne!(src, prog.src, "seed {seed}: nothing mutated");
                let tree = perfmodel::parse_program(&src).unwrap();
                let err = perfmodel::CompiledModel::from_program(tree, None).unwrap_err();
                let undefined = err.message.starts_with("undefined name");
                assert!(undefined, "seed {seed}: {err}");
                let mutated = ModelProgram {
                    src,
                    params: prog.params.clone(),
                };
                let err = crate::exec::compile_model(&mutated).unwrap_err();
                assert_eq!(err.invariant, "model-lint", "seed {seed}: {err}");
            }
        }
    }

    #[test]
    fn crashy_collectives_always_crash_a_collective() {
        for seed in 0..300 {
            let sc = generate_crashy_collective(seed);
            assert_eq!(generate_crashy_collective(seed), sc, "seed {seed}");
            assert!(
                matches!(sc.workload, Workload::Collective { .. }),
                "seed {seed}: {sc}"
            );
            assert!(sc.nodes() >= 4, "seed {seed}: only {} nodes", sc.nodes());
            let crashes = sc
                .faults
                .iter()
                .filter(|ev| matches!(ev, FaultEvent::NodeCrash { .. }))
                .count();
            assert!(crashes >= 1, "seed {seed}: no crash in {sc}");
            // The repro line round-trips like any other scenario.
            assert_eq!(parse(&sc.to_string()).unwrap(), sc, "seed {seed}");
        }
    }
}
