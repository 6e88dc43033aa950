//! Property-based tests over the core data structures and invariants.

use hetsim::{Cluster, Link, NodeId, Protocol, SpeedEstimates, TopologyBuilder};
use hmpi::{select_mapping, MappingAlgorithm, SelectionCtx};
use hmpi_apps::matmul::dist::{proportional_partition, GeneralizedBlockDist};
use mpisim::{datatype, Group};
use perfmodel::{CompiledModel, CostModel, ModelInstance, ParamValue, PerformanceModel};
use proptest::prelude::*;

// ---------- mpisim: datatype codec --------------------------------------

proptest! {
    #[test]
    fn f64_codec_roundtrips(data in proptest::collection::vec(any::<f64>(), 0..64)) {
        let bytes = datatype::encode(&data);
        let back: Vec<f64> = datatype::decode(&bytes).unwrap();
        // Compare bit patterns so NaNs round-trip too.
        let a: Vec<u64> = data.iter().map(|x| x.to_bits()).collect();
        let b: Vec<u64> = back.iter().map(|x| x.to_bits()).collect();
        prop_assert_eq!(a, b);
    }

    #[test]
    fn i64_codec_roundtrips(data in proptest::collection::vec(any::<i64>(), 0..64)) {
        let bytes = datatype::encode(&data);
        let back: Vec<i64> = datatype::decode(&bytes).unwrap();
        prop_assert_eq!(back, data);
    }
}

// ---------- mpisim: group algebra ----------------------------------------

fn group_strategy(world: usize) -> impl Strategy<Value = Group> {
    proptest::collection::vec(0..world, 0..world)
        .prop_map(|mut v| {
            v.sort_unstable();
            v.dedup();
            Group::from_world_ranks(v).unwrap()
        })
}

proptest! {
    #[test]
    fn group_set_laws(a in group_strategy(12), b in group_strategy(12)) {
        let union = a.union(&b);
        let inter = a.intersection(&b);
        let diff = a.difference(&b);

        // |A ∪ B| = |A| + |B| - |A ∩ B|
        prop_assert_eq!(union.size(), a.size() + b.size() - inter.size());
        // A \ B and A ∩ B partition A.
        prop_assert_eq!(diff.size() + inter.size(), a.size());
        // Every member of the intersection is in both.
        for &w in inter.world_ranks() {
            prop_assert!(a.contains_world(w) && b.contains_world(w));
        }
        // Difference has no member of B.
        for &w in diff.world_ranks() {
            prop_assert!(!b.contains_world(w));
        }
        // Union keeps A as a prefix.
        prop_assert_eq!(&union.world_ranks()[..a.size()], a.world_ranks());
    }
}

// ---------- hetsim: link and load invariants ------------------------------

proptest! {
    #[test]
    fn transfer_time_is_monotone_in_size(
        latency in 0.0..1e-2f64,
        bandwidth in 1e3..1e9f64,
        small in 0usize..100_000,
        extra in 1usize..100_000,
    ) {
        let link = Link::new(latency, bandwidth, Protocol::Tcp);
        let t1 = link.transfer_time(small);
        let t2 = link.transfer_time(small + extra);
        prop_assert!(t2 > t1);
        prop_assert!(t1.as_secs() >= latency);
    }

    #[test]
    fn speed_estimates_refresh_is_last_writer_wins(
        s1 in proptest::collection::vec(0.1..1e4f64, 4),
        s2 in proptest::collection::vec(0.1..1e4f64, 4),
    ) {
        let est = SpeedEstimates::from_speeds(vec![1.0; 4]);
        est.refresh(s1);
        est.refresh(s2.clone());
        prop_assert_eq!(est.snapshot(), s2);
        prop_assert_eq!(est.generation(), 2);
    }
}

// ---------- matmul distribution invariants --------------------------------

proptest! {
    #[test]
    fn partition_sums_and_bounds(
        total in 3usize..200,
        weights in proptest::collection::vec(0.01..100.0f64, 1..8),
    ) {
        prop_assume!(total >= weights.len());
        let parts = proportional_partition(total, &weights);
        prop_assert_eq!(parts.iter().sum::<usize>(), total);
        prop_assert!(parts.iter().all(|&p| p >= 1));
    }

    #[test]
    fn generalized_block_covers_exactly(
        m in 2usize..4,
        l_extra in 0usize..8,
        speeds in proptest::collection::vec(1.0..200.0f64, 16),
    ) {
        let l = m + l_extra;
        let speeds = &speeds[..m * m];
        let dist = GeneralizedBlockDist::heterogeneous(m, l, speeds);
        // Widths and heights tile the l x l square exactly.
        prop_assert_eq!(dist.w.iter().sum::<usize>(), l);
        for j in 0..m {
            prop_assert_eq!(dist.heights[j].iter().sum::<usize>(), l);
        }
        // Every cell has exactly one owner and areas add up.
        let mut count = 0;
        for i in 0..l {
            for j in 0..l {
                let (gi, gj) = dist.owner_of_block(i, j);
                prop_assert!(gi < m && gj < m);
                count += 1;
            }
        }
        prop_assert_eq!(count, l * l);
        let area_sum: usize = (0..m)
            .flat_map(|i| (0..m).map(move |j| (i, j)))
            .map(|(i, j)| dist.area(i, j))
            .sum();
        prop_assert_eq!(area_sum, l * l);
    }

    #[test]
    fn h_array_is_symmetric_and_diagonal_correct(
        m in 2usize..4,
        l_extra in 0usize..6,
        speeds in proptest::collection::vec(1.0..200.0f64, 16),
    ) {
        let l = m + l_extra;
        let dist = GeneralizedBlockDist::heterogeneous(m, l, &speeds[..m * m]);
        let h = dist.h_array();
        let at = |i: usize, j: usize, k: usize, q: usize| h[((i * m + j) * m + k) * m + q];
        for i in 0..m {
            for j in 0..m {
                prop_assert_eq!(at(i, j, i, j) as usize, dist.heights[j][i]);
                for k in 0..m {
                    for q in 0..m {
                        prop_assert_eq!(at(i, j, k, q), at(k, q, i, j));
                    }
                }
            }
        }
    }
}

// ---------- hmpi: mapping invariants --------------------------------------

/// Instantiates `src`, whose parameters are `int p, int v[p]` and then one
/// `int` per entry of `extra`, for `volumes.len()` processors.
fn tasks(src: &str, volumes: &[i64], extra: &[i64]) -> ModelInstance {
    let mut params = vec![
        ParamValue::Int(volumes.len() as i64),
        ParamValue::Array(volumes.to_vec()),
    ];
    params.extend(extra.iter().map(|&x| ParamValue::Int(x)));
    CompiledModel::compile(src)
        .unwrap()
        .instantiate(&params)
        .unwrap()
}

/// Computation only: processor `I` performs `v[I]` benchmark units.
const VOLUMES: &str =
    "algorithm V(int p, int v[p]) { coord I=p; node {I>=0: bench*(v[I]);}; parent[0]; }";

fn hetero_cluster(speeds: &[f64]) -> Cluster {
    let mut b = TopologyBuilder::new();
    for (i, &s) in speeds.iter().enumerate() {
        b = b.node(format!("n{i}"), s);
    }
    b.intra_switch(Link::new(1e-4, 1e7, Protocol::Tcp))
        .build()
        .into_parts()
        .0
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn mappings_are_injective_and_within_candidates(
        speeds in proptest::collection::vec(1.0..200.0f64, 4..8),
        volumes in proptest::collection::vec(1i64..1000, 2..4),
    ) {
        prop_assume!(volumes.len() <= speeds.len());
        let cluster = hetero_cluster(&speeds);
        let placement: Vec<NodeId> = cluster.node_ids().collect();
        let estimates = SpeedEstimates::from_base_speeds(&cluster);
        let ctx = SelectionCtx {
            cluster: &cluster,
            placement: &placement,
            estimates: &estimates,
            candidates: (0..speeds.len()).collect(),
            pinned_parent: Some(0),
        };
        let model = tasks(VOLUMES, &volumes, &[]);
        for algo in [
            MappingAlgorithm::GreedyRefined { max_rounds: 0 },
            MappingAlgorithm::GreedyRefined { max_rounds: 16 },
            MappingAlgorithm::Annealing { seed: 3, iters: 100 },
        ] {
            let m = select_mapping(algo, &model, &ctx).unwrap();
            prop_assert_eq!(m.assignment.len(), volumes.len());
            prop_assert_eq!(m.assignment[model.parent()], 0);
            let mut sorted = m.assignment.clone();
            sorted.sort_unstable();
            sorted.dedup();
            prop_assert_eq!(sorted.len(), volumes.len(), "injective");
            prop_assert!(m.predicted.is_finite() && m.predicted > 0.0);
        }
    }

    #[test]
    fn refined_never_predicts_worse_than_greedy(
        speeds in proptest::collection::vec(1.0..200.0f64, 4..7),
        volumes in proptest::collection::vec(1i64..1000, 3..5),
    ) {
        prop_assume!(volumes.len() <= speeds.len());
        let cluster = hetero_cluster(&speeds);
        let placement: Vec<NodeId> = cluster.node_ids().collect();
        let estimates = SpeedEstimates::from_base_speeds(&cluster);
        let ctx = SelectionCtx {
            cluster: &cluster,
            placement: &placement,
            estimates: &estimates,
            candidates: (0..speeds.len()).collect(),
            pinned_parent: Some(0),
        };
        let model = tasks(
            "algorithm P(int p, int v[p]) { coord I=p; node {I>=0: bench*(v[I]);};
               link (L=p) {I!=L: length*((I+L)%3*100000) [I]->[L];}; parent[0]; }",
            &volumes,
            &[],
        );
        let g = select_mapping(MappingAlgorithm::GreedyRefined { max_rounds: 0 }, &model, &ctx)
            .unwrap();
        let r = select_mapping(
            MappingAlgorithm::GreedyRefined { max_rounds: 16 },
            &model,
            &ctx,
        )
        .unwrap();
        prop_assert!(r.predicted <= g.predicted + 1e-9);
    }
}

// ---------- perfmodel: timeline invariants ---------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn predicted_time_scales_inversely_with_uniform_speed(
        volumes in proptest::collection::vec(1i64..100, 1..6),
        speed in 1.0..100.0f64,
    ) {
        let model = tasks(VOLUMES, &volumes, &[]);
        let t1 = model
            .predict_time(&CostModel::homogeneous(volumes.len(), speed, 0.0, 1e12))
            .unwrap();
        let t2 = model
            .predict_time(&CostModel::homogeneous(volumes.len(), 2.0 * speed, 0.0, 1e12))
            .unwrap();
        prop_assert!((t1 - 2.0 * t2).abs() < 1e-9 * t1.max(1.0));
        // And equals the bottleneck volume / speed.
        let bottleneck = *volumes.iter().max().unwrap() as f64;
        prop_assert!((t1 - bottleneck / speed).abs() < 1e-9);
    }

    #[test]
    fn adding_communication_never_speeds_things_up(
        volumes in proptest::collection::vec(1i64..100, 2..5),
        bytes in 1i64..10_000_000,
    ) {
        let n = volumes.len();
        let quiet = tasks(VOLUMES, &volumes, &[]);
        let chatty = tasks(
            "algorithm C(int p, int v[p], int bytes) { coord I=p; node {I>=0: bench*(v[I]);};
               link (L=p) {I!=L: length*(bytes) [I]->[L];}; parent[0]; }",
            &volumes,
            &[bytes],
        );
        let cost = CostModel::homogeneous(n, 10.0, 1e-4, 1e6);
        let tq = quiet.predict_time(&cost).unwrap();
        let tc = chatty.predict_time(&cost).unwrap();
        prop_assert!(tc >= tq - 1e-12);
    }
}
