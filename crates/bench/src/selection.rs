//! Selection-engine benchmark: a reused evaluator vs a cold one per call.
//!
//! Measures, on the paper's 9-workstation LAN with a 16-abstract-processor
//! ring model written in the modelling language:
//!
//! * **objective throughput** — full evaluations per second through a cold
//!   evaluator per call (the "naive" rate: [`hmpi::Evaluator::new`]
//!   re-records the scheme and rebuilds the node tables, then one
//!   [`hmpi::Evaluator::eval`]) vs one reused evaluator
//!   ([`hmpi::Evaluator::eval`], recorded cost program and table lookups)
//!   vs incremental probes ([`hmpi::Evaluator::probe`], re-pricing only
//!   segments touched by the move);
//! * **end-to-end search wall time** — `select_mapping` per
//!   [`MappingAlgorithm`], with its evaluation counts, gated on a cold
//!   evaluator pricing the chosen assignment to the same bits and on
//!   `Exhaustive` being no worse than any other algorithm's pick.
//!
//! `figures -- selection` renders the table; the non-`--quick` run also
//! writes `BENCH_selection.json`.

use crate::report::{Report, Value};
use hetsim::{NodeId, SpeedEstimates};
use hmpi::{select_mapping, Evaluator, MappingAlgorithm, SelectionCtx};
use perfmodel::{CompiledModel, ModelInstance, ParamValue};
use std::time::Instant;

/// A 1-D ring pattern in the paper's modelling language: `n` steps, each a
/// par of neighbour transfers followed by a par of local updates. Sized by
/// the `p` parameter — the bench instantiates it with 16 processors.
pub const RING_MODEL_SOURCE: &str = r"
    algorithm Ring(int p, int n, int d[p]) {
        coord I=p;
        node {I>=0: bench*(d[I]);};
        link (L=p) {
            I>=0 && L==((I+1)%p) :
                length*(d[I]*1000*sizeof(double)) [I]->[L];
        };
        parent[0];
        scheme {
            int k, i;
            for (k = 0; k < n; k++) {
                par (i = 0; i < p; i++) (100/n)%%[i]->[(i+1)%p];
                par (i = 0; i < p; i++) (100/n)%%[i];
            }
        };
    }
";

/// A pairwise pipeline in the modelling language: per step, independent
/// per-processor half-updates around a transfer inside disjoint processor
/// pairs. Its top-level activities each touch only one or two processors,
/// so an incremental probe of a swap re-prices only the few segments the
/// moved processors appear in — the shape delta evaluation exists for
/// (the ring model's `par` blocks, by contrast, each touch every
/// processor, so nothing can be skipped there).
pub const PAIRS_MODEL_SOURCE: &str = r"
    algorithm Pairs(int p, int n, int d[p]) {
        coord I=p;
        node {I>=0: bench*(d[I]);};
        link (L=p) {
            I>=0 && L==I+1 && (I%2)==0 :
                length*(d[I]*1000*sizeof(double)) [I]->[L];
        };
        parent[0];
        scheme {
            int k, i;
            for (k = 0; k < n; k++) {
                for (i = 0; i < p; i++) (100/(2*n))%%[i];
                for (i = 0; i < p; i += 2) (100/n)%%[i]->[i+1];
                for (i = 0; i < p; i++) (100/(2*n))%%[i];
            }
        };
    }
";

fn instantiate(src: &str, what: &str, p: usize, n: i64) -> ModelInstance {
    let volumes: Vec<i64> = (0..p).map(|i| 60 + 17 * (i as i64 % 7)).collect();
    CompiledModel::compile(src)
        .unwrap_or_else(|e| panic!("{what} model parses: {e}"))
        .instantiate(&[
            ParamValue::Int(p as i64),
            ParamValue::Int(n),
            ParamValue::Array(volumes),
        ])
        .unwrap_or_else(|e| panic!("{what} model instantiates: {e}"))
}

/// Instantiates the ring model with `p` processors and `n` steps.
///
/// # Panics
/// Never in practice: the source is a compile-time constant covered by
/// tests.
pub fn ring_model(p: usize, n: i64) -> ModelInstance {
    instantiate(RING_MODEL_SOURCE, "ring", p, n)
}

/// Instantiates the pairwise-pipeline model with `p` processors and `n`
/// steps.
///
/// # Panics
/// As [`ring_model`].
pub fn pairs_model(p: usize, n: i64) -> ModelInstance {
    instantiate(PAIRS_MODEL_SOURCE, "pairs", p, n)
}

/// Deterministic xorshift for assignment shuffles (no RNG dependency).
struct XorShift(u64);
impl XorShift {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }
    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// `count` random injective assignments of `p` processors onto `world`
/// ranks, abs 0 kept on rank 0 (the pinned parent).
fn sample_assignments(count: usize, p: usize, world: usize, seed: u64) -> Vec<Vec<usize>> {
    let mut rng = XorShift(seed | 1);
    (0..count)
        .map(|_| {
            let mut pool: Vec<usize> = (0..world).collect();
            for i in 1..p {
                let j = i + rng.below(pool.len() - i);
                pool.swap(i, j);
            }
            pool.truncate(p);
            pool
        })
        .collect()
}

fn time_per_call(mut f: impl FnMut(), calls: usize) -> f64 {
    let start = Instant::now();
    for _ in 0..calls {
        f();
    }
    start.elapsed().as_secs_f64() / calls as f64
}

/// Runs the benchmark. `quick` shrinks iteration counts for CI smoke runs;
/// the reported speedups remain meaningful, just noisier.
pub fn run(quick: bool) -> Report {
    let cluster = hetsim::Cluster::paper_lan_matmul();
    let nodes = cluster.len();
    let world = 16;
    let placement: Vec<NodeId> = (0..world).map(|r| NodeId(r % nodes)).collect();
    let estimates = SpeedEstimates::from_base_speeds(&cluster);
    let p = 16;
    let model = ring_model(p, 8);
    let ctx = SelectionCtx {
        cluster: &cluster,
        placement: &placement,
        estimates: &estimates,
        candidates: (0..world).collect(),
        pinned_parent: Some(0),
    };

    // --- objective throughput ---------------------------------------------
    let assignments = sample_assignments(64, p, world, 0xB0B5);
    let (naive_calls, engine_calls) = if quick { (60, 600) } else { (1_500, 60_000) };

    let mut k = 0usize;
    let mut sink = 0.0f64;
    let naive_s = time_per_call(
        || {
            let a = &assignments[k % assignments.len()];
            k += 1;
            sink += Evaluator::new(&model, &ctx).eval(a);
        },
        naive_calls,
    );

    let mut ev = Evaluator::new(&model, &ctx);
    let ops = ev.num_ops();
    k = 0;
    let engine_s = time_per_call(
        || {
            let a = &assignments[k % assignments.len()];
            k += 1;
            sink += ev.eval(a);
        },
        engine_calls,
    );

    // Probe throughput: swap moves against a fixed baseline.
    let mut current = assignments[0].clone();
    ev.rebase(&current);
    let mut rng = XorShift(0xFEED);
    let probe_s = time_per_call(
        || {
            let i = 1 + rng.below(p - 1);
            let mut j = 1 + rng.below(p - 1);
            if i == j {
                j = 1 + (j % (p - 1));
            }
            current.swap(i, j);
            sink += ev.probe(&current, &[i, j]);
            current.swap(i, j);
        },
        engine_calls,
    );

    // The pairs model: sparse per-processor segments, where an incremental
    // probe skips most of the program.
    let pairs = pairs_model(p, 8);
    k = 0;
    let pairs_naive_s = time_per_call(
        || {
            let a = &assignments[k % assignments.len()];
            k += 1;
            sink += Evaluator::new(&pairs, &ctx).eval(a);
        },
        naive_calls,
    );
    let mut pairs_ev = Evaluator::new(&pairs, &ctx);
    pairs_ev.rebase(&current);
    let pairs_probe_s = time_per_call(
        || {
            let i = 1 + rng.below(p - 1);
            let mut j = 1 + rng.below(p - 1);
            if i == j {
                j = 1 + (j % (p - 1));
            }
            current.swap(i, j);
            sink += pairs_ev.probe(&current, &[i, j]);
            current.swap(i, j);
        },
        engine_calls,
    );
    assert!(sink.is_finite(), "all benched evaluations must be finite");

    // --- end-to-end searches ----------------------------------------------
    let mut searches = Vec::new();
    let mut all_identical = true;
    let anneal_iters = if quick { 300 } else { 4_000 };
    let refined = MappingAlgorithm::GreedyRefined { max_rounds: 64 };
    let annealing = MappingAlgorithm::Annealing {
        seed: 42,
        iters: anneal_iters,
    };
    // Exhaustive runs on a smaller model: 5 processors over 16 candidates
    // with the parent pinned is 32 760 leaves, of which branch and bound
    // prices about a hundred.
    let small_p = if quick { 4 } else { 5 };
    let small = ring_model(small_p, 8);
    for (label, algo, model_p) in [
        ("GreedyRefined", refined, p),
        ("Annealing", annealing, p),
        ("Exhaustive", MappingAlgorithm::Exhaustive, small_p),
    ] {
        let model_ref = if model_p == p { &model } else { &small };
        let t0 = Instant::now();
        let chosen = select_mapping(algo, model_ref, &ctx).expect("feasible search");
        let engine_ms = t0.elapsed().as_secs_f64() * 1e3;
        // A cold evaluator must price the chosen assignment to the bits the
        // search reported, and no algorithm may beat the exact search.
        let reference = Evaluator::new(model_ref, &ctx).eval(&chosen.assignment);
        let mut identical = chosen.predicted.to_bits() == reference.to_bits();
        if algo == MappingAlgorithm::Exhaustive {
            identical &= [MappingAlgorithm::Greedy, refined, annealing]
                .iter()
                .all(|&other| {
                    let m = select_mapping(other, model_ref, &ctx).expect("feasible search");
                    chosen.predicted <= m.predicted
                });
        }
        all_identical &= identical;
        searches.push(vec![
            ("algo", label.into()),
            ("processors", model_p.into()),
            ("engine_ms", Value::Fixed(engine_ms, 3)),
            ("evals", (chosen.stats.evals as usize).into()),
            ("probes", (chosen.stats.probes as usize).into()),
            ("identical", identical.into()),
        ]);
    }

    // Rates are evaluations per second; every speedup is over a cold
    // evaluator per call on the same model. The ring's `par` blocks touch
    // every processor, so its probes are the delta-evaluation *floor*; the
    // pairs model's sparse segments are what delta evaluation exploits.
    let rate = |s: f64| Value::Fixed(1.0 / s, 1);
    let speedup = |naive_s: f64, s: f64| Value::Fixed(naive_s / s, 2);
    let mut r = Report::new(
        "selection",
        format!(
            "Selection engine: {nodes}-node paper LAN, {world} world ranks, \
             {p}-processor ring model ({ops} cost ops)"
        ),
    );
    r.summary = vec![
        (
            "instance",
            Value::Obj(vec![
                ("nodes", nodes.into()),
                ("world_ranks", world.into()),
                ("processors", p.into()),
                ("cost_ops", ops.into()),
            ]),
        ),
        ("naive_evals_per_sec", rate(naive_s)),
        ("engine_evals_per_sec", rate(engine_s)),
        ("engine_probes_per_sec", rate(probe_s)),
        ("eval_speedup", speedup(naive_s, engine_s)),
        ("probe_speedup", speedup(naive_s, probe_s)),
        ("pairs_naive_evals_per_sec", rate(pairs_naive_s)),
        ("pairs_probes_per_sec", rate(pairs_probe_s)),
        ("pairs_probe_speedup", speedup(pairs_naive_s, pairs_probe_s)),
    ];
    r.tables.push(("searches", searches));
    r.gate(
        all_identical,
        "a cold evaluator prices every chosen mapping to the reported bits and Exhaustive is never beaten",
    );
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_bench_runs_and_paths_agree() {
        let r = run(true);
        r.enforce()
            .unwrap_or_else(|e| panic!("{e}\n{}", r.render()));
        let doc = hetsim::json::parse(&r.to_json()).expect("valid JSON");
        let number = |key: &str| doc.get(key).and_then(|v| v.as_f64()).expect(key);
        assert!(
            doc.get("instance")
                .and_then(|i| i.get("cost_ops"))
                .and_then(|v| v.as_f64())
                > Some(0.0),
            "the ring model must record a non-empty program"
        );
        // The acceptance bar is 10x in the release-mode JSON; in (possibly
        // debug-mode) tests assert a conservative floor.
        assert!(number("eval_speedup") > 3.0, "engine eval speedup too low");
        assert!(
            number("probe_speedup") > 1.0,
            "probes must still beat a cold evaluator"
        );
        assert!(
            number("pairs_probe_speedup") > 3.0,
            "sparse-segment delta probes too slow"
        );
    }

    #[test]
    fn exhaustive_search_is_a_pure_function_of_its_input() {
        // The bench's ring 5-on-16 instance. While the search split its
        // first levels over threads, `stats.evals` read 101 or 104 here
        // depending on which thread posted its incumbent first.
        let cluster = hetsim::Cluster::paper_lan_matmul();
        let placement: Vec<NodeId> = (0..16).map(|r| NodeId(r % cluster.len())).collect();
        let estimates = SpeedEstimates::from_base_speeds(&cluster);
        let ctx = SelectionCtx {
            cluster: &cluster,
            placement: &placement,
            estimates: &estimates,
            candidates: (0..16).collect(),
            pinned_parent: Some(0),
        };
        let model = ring_model(5, 8);
        let search = || select_mapping(MappingAlgorithm::Exhaustive, &model, &ctx).unwrap();
        let first = search();
        for run in 1..200 {
            assert_eq!(search(), first, "run {run}");
        }
    }

    #[test]
    fn ring_model_parses_at_bench_size() {
        let m = ring_model(16, 8);
        use perfmodel::PerformanceModel as _;
        assert_eq!(m.num_processors(), 16);
        assert_eq!(m.parent(), 0);
    }
}
