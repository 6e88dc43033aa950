//! Link lookups against a dense reference built from the documented rules.
//!
//! Each case draws a random `TopologyBuilder` configuration (1–3 sites and
//! switches, 1–40 nodes, 1–3 ranks per node, `Protocol::Custom` links,
//! 0–20 `link_between` overrides with repeated pairs, memory bus on or
//! off) and checks `Cluster::link`, `Cluster::rank_link` and
//! `Cluster::pair_table` against an `n × n` table of `Link`s resolved by
//! hand:
//!
//! * a node's link to itself is the loopback;
//! * other pairs take the inter-site link across sites (the intra-switch
//!   link when no inter-site link is set) and the intra-switch link within
//!   a site (TCP defaults when unset);
//! * `link_between(a, b, l)` sets both directions, and a later override of
//!   a pair wins;
//! * distinct ranks on one node ride the memory bus when one is modelled;
//! * a pair table's diagonal is the free loopback (0 s, infinite
//!   bandwidth), and its other cells price the rank link of the two
//!   positions' nodes.

use hetsim::{Link, NodeId, Protocol, TopologyBuilder};
use rand::{Rng, SeedableRng, StdRng};

const CASES: u64 = 400;

fn random_link(rng: &mut StdRng) -> Link {
    let protocol = match rng.random_range(0u32..3) {
        0 => Protocol::Tcp,
        1 => Protocol::SharedMemory,
        _ => Protocol::Custom(format!("net{}", rng.random_range(0u32..4))),
    };
    let latency = 1e-7 * 10f64.powf(rng.random_range(0.0..5.0));
    let bandwidth = 1e5 * 10f64.powf(rng.random_range(0.0..5.0));
    Link::new(latency, bandwidth, protocol)
}

/// A drawn configuration, its builder, and the dense reference.
struct Case {
    builder: TopologyBuilder,
    /// `dense[i][j]`: the link node `i` sends to node `j` over.
    dense: Vec<Vec<Link>>,
    mem_bus: Option<Link>,
    ranks_per_node: Vec<usize>,
}

fn draw(seed: u64) -> Case {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = TopologyBuilder::new();
    let intra = (rng.random_range(0u32..4) > 0).then(|| random_link(&mut rng));
    let inter = (rng.random_range(0u32..3) > 0).then(|| random_link(&mut rng));
    if let Some(l) = &intra {
        b = b.intra_switch(l.clone());
    }
    if let Some(l) = &inter {
        b = b.inter_site(l.clone());
    }
    let n = rng.random_range(1usize..41);
    let declared = rng.random_range(0u32..2) == 1;
    let (mut sites, mut switches) = (0usize, 0usize);
    let mut site_of = Vec::with_capacity(n);
    let mut ranks_per_node = Vec::with_capacity(n);
    for i in 0..n {
        if declared {
            if sites == 0 || (sites < 3 && rng.random_range(0u32..8) == 0) {
                b = b.site();
                sites += 1;
                switches = 1;
            } else if switches < 3 && rng.random_range(0u32..8) == 0 {
                b = b.switch();
                switches += 1;
            }
        }
        b = b.node(format!("n{i}"), rng.random_range(1.0..100.0));
        let ranks = rng.random_range(1usize..4);
        b = b.ranks(ranks);
        ranks_per_node.push(ranks);
        site_of.push(sites.saturating_sub(1));
    }

    let intra = intra.unwrap_or_else(|| Link::with_defaults(Protocol::Tcp));
    let wan = inter.unwrap_or_else(|| intra.clone());
    let mut dense: Vec<Vec<Link>> = (0..n)
        .map(|i| {
            (0..n)
                .map(|j| match (i == j, site_of[i] == site_of[j]) {
                    (true, _) => Link::loopback(),
                    (false, true) => intra.clone(),
                    (false, false) => wan.clone(),
                })
                .collect()
        })
        .collect();
    if n >= 2 {
        // A small pool of pairs, so that overrides repeat pairs (in either
        // order) and the later one must win.
        let pool: Vec<(usize, usize)> = (0..4)
            .map(|_| {
                let a = rng.random_range(0..n);
                let c = (a + rng.random_range(1..n)) % n;
                (a, c)
            })
            .collect();
        for _ in 0..rng.random_range(0usize..21) {
            let (mut a, mut c) = pool[rng.random_range(0..pool.len())];
            if rng.random_range(0u32..2) == 1 {
                (a, c) = (c, a);
            }
            let link = random_link(&mut rng);
            b = b.link_between(a, c, link.clone());
            dense[a][c] = link.clone();
            dense[c][a] = link;
        }
    }
    let mem_bus = (rng.random_range(0u32..2) == 1).then(|| random_link(&mut rng));
    if let Some(m) = &mem_bus {
        b = b.mem_bus(m.clone());
    }
    Case {
        builder: b,
        dense,
        mem_bus,
        ranks_per_node,
    }
}

impl Case {
    fn rank_link(&self, a: NodeId, b: NodeId) -> &Link {
        match &self.mem_bus {
            Some(m) if a == b => m,
            _ => &self.dense[a.0][b.0],
        }
    }
}

#[test]
fn link_lookups_match_the_dense_reference() {
    for seed in 0..CASES {
        let case = draw(seed);
        let topo = case.builder.clone().build();
        let c = topo.cluster();
        let n = case.dense.len();
        assert_eq!(c.len(), n, "seed {seed}");
        for i in c.node_ids() {
            for j in c.node_ids() {
                assert_eq!(
                    c.link(i, j),
                    &case.dense[i.0][j.0],
                    "seed {seed} link {i}-{j}"
                );
                assert_eq!(
                    c.rank_link(i, j),
                    case.rank_link(i, j),
                    "seed {seed} rank_link {i}-{j}"
                );
            }
        }
        let want: Vec<NodeId> = case
            .ranks_per_node
            .iter()
            .enumerate()
            .flat_map(|(i, &r)| std::iter::repeat_n(NodeId(i), r))
            .collect();
        assert_eq!(topo.placement(), &want[..], "seed {seed}");
    }
}

#[test]
fn pair_tables_match_the_dense_reference() {
    for seed in 0..CASES {
        let case = draw(seed);
        let topo = case.builder.clone().build();
        let c = topo.cluster();
        let mut rng = StdRng::seed_from_u64(seed ^ 0x9A1B_7AB1);
        let sub: Vec<NodeId> = (0..rng.random_range(1usize..13))
            .map(|_| NodeId(rng.random_range(0..c.len())))
            .collect();
        for nodes in [topo.placement(), &sub[..]] {
            let t = c.pair_table(nodes);
            assert_eq!(t.n, nodes.len(), "seed {seed}");
            assert_eq!(t.nodes, nodes, "seed {seed}");
            for (i, &a) in nodes.iter().enumerate() {
                for (j, &b) in nodes.iter().enumerate() {
                    let (lat, bw) = if i == j {
                        (0.0, f64::INFINITY)
                    } else {
                        let l = case.rank_link(a, b);
                        (l.latency, l.bandwidth)
                    };
                    let got = (t.latency(i, j), t.bandwidth(i, j));
                    assert_eq!(got, (lat, bw), "seed {seed} cell {i},{j} ({a}-{b})");
                }
            }
            assert_eq!(
                t,
                c.pair_table(nodes),
                "seed {seed}: a rebuilt table differs"
            );
        }
    }
}
