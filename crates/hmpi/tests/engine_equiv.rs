//! Property tests: the selection engine (compiled program, table-backed
//! pair costs) agrees with a reference price (the clock-vector interpreter
//! shared with `perfmodel`'s pricer tests, over a p×p `CostModel` built
//! straight from the cluster's rank links) on random models, clusters, and
//! assignments — including pinned-parent instances and placements with
//! several world ranks per node, priced as loopback pairs or over a memory
//! bus — and every search is held to that reference: each algorithm
//! reports its bits, the branch-and-bound exhaustive search returns the
//! exact mapping of a brute-force enumeration over it, a converged local
//! search sits in a local optimum of it.

use hetsim::{Cluster, Link, NodeId, Protocol, SpeedEstimates, TopologyBuilder};
use hmpi::{select_mapping, Evaluator, MappingAlgorithm, SelectionCtx};
use perfmodel::{CostModel, EvalError, PairCost, PerformanceModel, SchemeSink};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

#[path = "../../perfmodel/tests/support/clock_reference.rs"]
mod clock_reference;

use clock_reference::{clocks, gen_events, makespan, Ev, Replay};

struct Instance {
    cluster: Cluster,
    placement: Vec<NodeId>,
    estimates: SpeedEstimates,
    model: Replay,
    p: usize,
}

fn gen_instance(rng: &mut StdRng) -> Instance {
    let n_nodes = rng.random_range(1..5);
    let mut b = TopologyBuilder::new();
    for i in 0..n_nodes {
        b = b.node(format!("n{i}"), rng.random_range(1.0..200.0));
    }
    b = b.intra_switch(Link::new(
        rng.random_range(0.0..1e-3),
        rng.random_range(1e5..1e8),
        Protocol::Tcp,
    ));
    // Half the clusters model a memory bus between ranks on one node.
    if rng.random_range(0..2) == 0 {
        b = b.mem_bus(Link::new(
            rng.random_range(0.0..1e-4),
            rng.random_range(1e6..1e10),
            Protocol::SharedMemory,
        ));
    }
    let cluster = b.build().into_parts().0;
    // Several world ranks per node => same-node pairs (loopback, or the
    // memory bus when there is one).
    let ranks_per_node = rng.random_range(1..4);
    let world = n_nodes * ranks_per_node;
    let placement: Vec<NodeId> = (0..world).map(|r| NodeId(r % n_nodes)).collect();
    let estimates =
        SpeedEstimates::from_speeds((0..n_nodes).map(|_| rng.random_range(1.0..300.0)).collect());

    let p = rng.random_range(1..world.min(5) + 1);
    let volumes: Vec<f64> = (0..p).map(|_| rng.random_range(0.0..1000.0)).collect();
    let comm: Vec<Vec<f64>> = (0..p)
        .map(|_| {
            (0..p)
                .map(|_| {
                    if rng.random_range(0..3) == 0 {
                        0.0
                    } else {
                        rng.random_range(0.0..1e6)
                    }
                })
                .collect()
        })
        .collect();
    let parent = rng.random_range(0..p);
    // Half the models use a random custom interaction pattern instead of
    // the default scheme: all transfers in a par, then all computations.
    let events = if rng.random_range(0..2) == 0 {
        let seed = rng.random_range(0..u64::MAX);
        gen_events(&mut clock_reference::Rng::new(seed), p)
    } else {
        let mut out = vec![Ev::ParBegin];
        for (s, row) in comm.iter().enumerate() {
            let sends = (0..p).filter(|&d| s != d && row[d] > 0.0);
            out.extend(sends.map(|d| Ev::Transfer(s, d, 100.0)));
            out.push(Ev::ParBranch);
        }
        out.extend([Ev::ParEnd, Ev::ParBegin]);
        out.extend((0..p).flat_map(|q| [Ev::Compute(q, 100.0), Ev::ParBranch]));
        out.push(Ev::ParEnd);
        out
    };
    let model = Replay {
        volumes,
        comm,
        parent,
        events,
    };
    Instance {
        cluster,
        placement,
        estimates,
        model,
        p,
    }
}

/// The reference objective: the clock-vector interpreter over a p×p cost
/// model built from the cluster's rank links (the links distinct ranks
/// send over) and the speed estimates of the assigned nodes — independent
/// of `CostProgram` and of the `Cluster::pair_table` the evaluator reads.
/// Failures price as infeasible.
fn reference(model: &dyn PerformanceModel, a: &[usize], ctx: &SelectionCtx<'_>) -> f64 {
    let nodes: Vec<NodeId> = a.iter().map(|&w| ctx.placement[w]).collect();
    let pairs = |f: fn(&Link) -> f64| -> Vec<Vec<f64>> {
        let row = |i| {
            nodes
                .iter()
                .map(|&j| f(ctx.cluster.rank_link(i, j)))
                .collect()
        };
        nodes.iter().map(|&i| row(i)).collect()
    };
    let cost = CostModel {
        speeds: nodes.iter().map(|&n| ctx.estimates.speed(n)).collect(),
        latency: pairs(|l| l.latency),
        bandwidth: pairs(|l| l.bandwidth),
    };
    clocks(model, Some(&cost)).map_or(f64::INFINITY, |c| makespan(&c))
}

/// Brute force over the reference: every injective mapping (parent
/// pinned) in lexicographic candidate order, first strict improver wins.
fn brute_force(model: &dyn PerformanceModel, ctx: &SelectionCtx<'_>) -> (Vec<usize>, f64) {
    fn rec(
        model: &dyn PerformanceModel,
        ctx: &SelectionCtx<'_>,
        a: &mut Vec<usize>,
        best: &mut Option<(Vec<usize>, f64)>,
    ) {
        if a.len() == model.num_processors() {
            let t = reference(model, a, ctx);
            if best.as_ref().is_none_or(|(_, b)| t < *b) {
                *best = Some((a.clone(), t));
            }
            return;
        }
        for &w in &ctx.candidates {
            let pinned_elsewhere =
                a.len() == model.parent() && ctx.pinned_parent.is_some_and(|pin| pin != w);
            if a.contains(&w) || pinned_elsewhere {
                continue;
            }
            a.push(w);
            rec(model, ctx, a, best);
            a.pop();
        }
    }
    let mut best = None;
    rec(model, ctx, &mut Vec::new(), &mut best);
    best.expect("at least one feasible mapping")
}

/// Draws a random injective assignment of `p` processors to candidates.
fn gen_assignment(
    rng: &mut StdRng,
    candidates: &[usize],
    p: usize,
    pin: Option<(usize, usize)>,
) -> Vec<usize> {
    let mut pool: Vec<usize> = candidates.to_vec();
    // Fisher-Yates prefix shuffle.
    for i in 0..p {
        let j = rng.random_range(i..pool.len());
        pool.swap(i, j);
    }
    let mut a: Vec<usize> = pool[..p].to_vec();
    if let Some((parent_abs, parent_w)) = pin {
        if let Some(pos) = a.iter().position(|&w| w == parent_w) {
            a.swap(parent_abs, pos);
        } else {
            a[parent_abs] = parent_w;
        }
    }
    a
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Full evaluation: `Evaluator::eval` is bit-identical to the reference
    /// (well within the 1e-9 agreement the spec asks for) on random
    /// instances.
    #[test]
    fn engine_eval_matches_reference(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let inst = gen_instance(&mut rng);
        let candidates: Vec<usize> = (0..inst.placement.len()).collect();
        let pinned = if rng.random_range(0..2) == 0 {
            Some(candidates[rng.random_range(0..candidates.len())])
        } else {
            None
        };
        let ctx = SelectionCtx {
            cluster: &inst.cluster,
            placement: &inst.placement,
            estimates: &inst.estimates,
            candidates: candidates.clone(),
            pinned_parent: pinned,
        };
        let mut ev = Evaluator::new(&inst.model, &ctx);
        for _ in 0..8 {
            let pin = pinned.map(|w| (inst.model.parent(), w));
            let a = gen_assignment(&mut rng, &candidates, inst.p, pin);
            let fast = ev.eval(&a);
            let slow = reference(&inst.model, &a, &ctx);
            prop_assert_eq!(fast.to_bits(), slow.to_bits(), "assignment {:?}", a);
            prop_assert!((fast - slow).abs() <= 1e-9 * slow.abs().max(1.0) || fast == slow);
        }
    }

    /// End-to-end, every algorithm against the reference: the reported
    /// time is the reference price of the reported assignment, bit for
    /// bit; `Exhaustive` is the brute-force enumeration's answer and no
    /// other algorithm beats it; a converged local search admits no
    /// improving swap or replacement; annealing repeats itself per seed
    /// and never ends above its greedy start.
    #[test]
    fn every_algorithm_is_held_to_the_reference(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let inst = gen_instance(&mut rng);
        let candidates: Vec<usize> = (0..inst.placement.len()).collect();
        let pinned = if rng.random_range(0..2) == 0 {
            Some(candidates[rng.random_range(0..candidates.len())])
        } else {
            None
        };
        let ctx = SelectionCtx {
            cluster: &inst.cluster,
            placement: &inst.placement,
            estimates: &inst.estimates,
            candidates,
            pinned_parent: pinned,
        };
        let select = |algo| select_mapping(algo, &inst.model, &ctx).expect("feasible instance");
        let annealing = MappingAlgorithm::Annealing { seed, iters: 120 };
        // Rounds to spare: each one strictly improves, on at most 5
        // processors. (Not `usize::MAX`: a wrong pricing rule could promise
        // improvements forever.)
        let converged = MappingAlgorithm::GreedyRefined { max_rounds: 1_000 };
        let bare_greedy = MappingAlgorithm::GreedyRefined { max_rounds: 0 };
        let greedy = select(bare_greedy);
        let exact = select(MappingAlgorithm::Exhaustive);
        for algo in [
            bare_greedy,
            MappingAlgorithm::GreedyRefined { max_rounds: 8 },
            converged,
            MappingAlgorithm::Exhaustive,
            annealing,
        ] {
            let m = select(algo);
            prop_assert_eq!(
                m.predicted.to_bits(),
                reference(&inst.model, &m.assignment, &ctx).to_bits(),
                "algo {:?}", algo
            );
            prop_assert!(exact.predicted <= m.predicted, "algo {:?} beats Exhaustive", algo);
        }

        let (brute, brute_t) = brute_force(&inst.model, &ctx);
        prop_assert_eq!(&exact.assignment, &brute);
        prop_assert_eq!(exact.predicted.to_bits(), brute_t.to_bits());

        let local = select(converged);
        let parent_abs = inst.model.parent();
        for i in 0..inst.p {
            for j in (i + 1)..inst.p {
                let mut swapped = local.assignment.clone();
                swapped.swap(i, j);
                if pinned.is_none_or(|w| swapped[parent_abs] == w) {
                    prop_assert!(
                        reference(&inst.model, &swapped, &ctx) >= local.predicted,
                        "swap {} <-> {} improves a converged search", i, j
                    );
                }
            }
            if pinned.is_some() && i == parent_abs {
                continue;
            }
            for &w in ctx.candidates.iter().filter(|w| !local.assignment.contains(w)) {
                let mut replaced = local.assignment.clone();
                replaced[i] = w;
                prop_assert!(
                    reference(&inst.model, &replaced, &ctx) >= local.predicted,
                    "replacing {} with rank {} improves a converged search", i, w
                );
            }
        }

        let annealed = select(annealing);
        prop_assert_eq!(&select(annealing), &annealed);
        prop_assert!(annealed.predicted <= greedy.predicted);
    }
}

/// Deterministic regression: on a *parsed* model (the paper's modelling
/// language, EM3D-like dependence pattern) the branch-and-bound exhaustive
/// search returns the mapping of the sequential enumeration over the
/// reference, bit for bit, on a cluster with several ranks per node.
#[test]
fn parsed_model_exhaustive_bb_matches_sequential() {
    let src = r"
        algorithm Em3d(int p, int k, int d[p], int dep[p][p]) {
            coord I=p;
            node {I>=0: bench*(d[I]/k);};
            link (L=p) {
                I>=0 && I!=L && (dep[I][L] > 0) :
                    length*(dep[I][L]*sizeof(double)) [L]->[I];
            };
            parent[0];
            scheme {
                int current, owner, remote;
                par (owner = 0; owner < p; owner++)
                    par (remote = 0; remote < p; remote++)
                        if ((owner != remote) && (dep[owner][remote] > 0))
                            100%%[remote]->[owner];
                par (current = 0; current < p; current++) 100%%[current];
            };
        }
    ";
    let model = perfmodel::CompiledModel::compile(src)
        .unwrap()
        .instantiate(&[
            perfmodel::ParamValue::Int(4),
            perfmodel::ParamValue::Int(10),
            perfmodel::ParamValue::Array(vec![100, 200, 300, 150]),
            perfmodel::ParamValue::Array(vec![0, 5, 0, 3, 5, 0, 7, 0, 0, 7, 0, 2, 3, 0, 2, 0]),
        ])
        .unwrap();

    let cluster = TopologyBuilder::new()
        .node("a", 46.0)
        .node("b", 176.0)
        .node("c", 106.0)
        .intra_switch(Link::new(150e-6, 11e6, Protocol::Tcp))
        .build()
        .into_parts()
        .0;
    // Two ranks per node: exercises loopback pairs inside the search.
    let placement: Vec<NodeId> = (0..6).map(|r| NodeId(r % 3)).collect();
    let estimates = SpeedEstimates::from_base_speeds(&cluster);
    for pinned in [Some(0), None] {
        let ctx = SelectionCtx {
            cluster: &cluster,
            placement: &placement,
            estimates: &estimates,
            candidates: (0..6).collect(),
            pinned_parent: pinned,
        };
        let fast = select_mapping(MappingAlgorithm::Exhaustive, &model, &ctx).unwrap();
        let (brute, brute_t) = brute_force(&model, &ctx);
        assert_eq!(fast.assignment, brute, "pinned={pinned:?}");
        assert_eq!(
            fast.predicted.to_bits(),
            brute_t.to_bits(),
            "pinned={pinned:?}"
        );
        let leaves = if pinned.is_some() {
            5 * 4 * 3
        } else {
            6 * 5 * 4 * 3
        };
        assert!(
            fast.stats.evals < leaves,
            "pinned={pinned:?}: nothing was pruned"
        );
    }
}
