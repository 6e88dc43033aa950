//! Selection-engine bench (`figures -- selection`, `BENCH_selection.json`).
//!
//! On the paper's 9-workstation LAN with a 16-abstract-processor ring model
//! written in the modelling language, runs `select_mapping` per
//! [`MappingAlgorithm`] and reports how many mappings it priced (a pure
//! function of the input), gated on a cold [`Evaluator`] pricing the chosen
//! assignment to the same bits and on `Exhaustive` being no worse than any
//! other algorithm's pick. What the searches cost in host time is the
//! ledger's `hmpi.select_mapping_ms.*`.

use crate::report::{Report, Value};
use hetsim::{NodeId, SpeedEstimates};
use hmpi::{select_mapping, Evaluator, MappingAlgorithm, SelectionCtx};
use perfmodel::{CompiledModel, ModelInstance, ParamValue};

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

/// Instantiates the ring model with `p` processors and `n` steps.
///
/// # Panics
/// Never in practice: the source is a compile-time constant covered by
/// tests.
pub fn ring_model(p: usize, n: i64) -> ModelInstance {
    let volumes: Vec<i64> = (0..p).map(|i| 60 + 17 * (i as i64 % 7)).collect();
    CompiledModel::compile(RING_MODEL_SOURCE)
        .unwrap_or_else(|e| panic!("ring model parses: {e}"))
        .instantiate(&[
            ParamValue::Int(p as i64),
            ParamValue::Int(n),
            ParamValue::Array(volumes),
        ])
        .unwrap_or_else(|e| panic!("ring model instantiates: {e}"))
}

/// Runs the bench.
pub fn run() -> Report {
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
    let ops = Evaluator::new(&model, &ctx).num_ops();

    let mut searches = Vec::new();
    let mut all_identical = true;
    let refined = MappingAlgorithm::GreedyRefined { max_rounds: 64 };
    let annealing = MappingAlgorithm::Annealing {
        seed: 42,
        iters: 4_000,
    };
    // Exhaustive runs on a smaller model: 5 processors over 16 candidates
    // with the parent pinned is 32 760 leaves, of which branch and bound
    // prices about a hundred.
    let small_p = 5;
    let small = ring_model(small_p, 8);
    for (label, algo, model_p) in [
        ("GreedyRefined", refined, p),
        ("Annealing", annealing, p),
        ("Exhaustive", MappingAlgorithm::Exhaustive, small_p),
    ] {
        let model_ref = if model_p == p { &model } else { &small };
        let chosen = select_mapping(algo, model_ref, &ctx).expect("feasible search");
        // A cold evaluator must price the chosen assignment to the bits the
        // search reported, and no algorithm may beat the exact search.
        let reference = Evaluator::new(model_ref, &ctx).eval(&chosen.assignment);
        let mut identical = chosen.predicted.to_bits() == reference.to_bits();
        if algo == MappingAlgorithm::Exhaustive {
            let greedy = MappingAlgorithm::GreedyRefined { max_rounds: 0 };
            identical &= [greedy, refined, annealing].iter().all(|&other| {
                let m = select_mapping(other, model_ref, &ctx).expect("feasible search");
                chosen.predicted <= m.predicted
            });
        }
        all_identical &= identical;
        searches.push(vec![
            ("algo", label.into()),
            ("processors", model_p.into()),
            ("evals", (chosen.stats.evals as usize).into()),
            ("identical", identical.into()),
        ]);
    }

    let mut r = Report::new(
        "selection",
        format!(
            "Selection engine: {nodes}-node paper LAN, {world} world ranks, \
             {p}-processor ring model ({ops} cost ops)"
        ),
    );
    r.summary = vec![(
        "instance",
        Value::Obj(vec![
            ("nodes", nodes.into()),
            ("world_ranks", world.into()),
            ("processors", p.into()),
            ("cost_ops", ops.into()),
        ]),
    )];
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
        let r = run();
        r.enforce()
            .unwrap_or_else(|e| panic!("{e}\n{}", r.render()));
        let doc = hetsim::json::parse(&r.to_json()).expect("valid JSON");
        assert!(
            doc.get("instance")
                .and_then(|i| i.get("cost_ops"))
                .and_then(|v| v.as_f64())
                > Some(0.0),
            "the ring model must record a non-empty program"
        );
        let searches = doc.get("searches").and_then(|v| v.as_array());
        for row in searches.expect("searches") {
            let evals = row.get("evals").and_then(|v| v.as_f64());
            assert!(evals >= Some(1.0), "every search prices a mapping: {row:?}");
        }
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
