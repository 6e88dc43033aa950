//! Pins every testbed the stack builds: a canonical text rendering of each
//! cluster and rank placement, folded into one FNV-1a hash per family.
//! The rendering covers node names, speeds and load models, every ordered
//! link's latency, bandwidth and protocol, the contention model, the fault
//! plan, the memory bus, the declared site / switch of each node (or none)
//! and the rank placement. Floats render as their bit patterns, so a hash
//! holds only while every testbed is bit-identical.
//!
//! The families: `build_cluster` for seeds `0..2000` of each generator and
//! for every corpus line, `Cluster::random(seed, 12)` for seeds `0..1000`,
//! and the paper's LANs with and without a fault plan. A change to how
//! testbeds are described must leave these constants as they are.

use hetsim::{Cluster, FaultEvent, FaultPlan, NodeId, SimTime, PAPER_EM3D_SPEEDS};
use simcheck::{build_cluster, generate, generate_crashy_collective, generate_hierarchical};
use simcheck::{parse, Scenario};
use std::fmt::Write;
use std::path::Path;

fn bits(x: f64) -> String {
    format!("{:016x}", x.to_bits())
}

fn secs(t: SimTime) -> String {
    bits(t.as_secs())
}

fn render(c: &Cluster, placement: &[NodeId]) -> String {
    let mut s = String::new();
    for id in c.node_ids() {
        let p = c.node(id);
        let level = c.topology().map(|_| (c.site_of(id), c.switch_of(id)));
        let (name, speed) = (&p.name, bits(p.base_speed));
        writeln!(s, "node {name} {speed} {:?} {level:?}", p.load).unwrap();
    }
    for i in c.node_ids() {
        for j in c.node_ids() {
            let l = c.link(i, j);
            let (lat, bw) = (bits(l.latency), bits(l.bandwidth));
            writeln!(s, "link {i}-{j} {lat} {bw} {:?}", l.protocol).unwrap();
        }
    }
    writeln!(s, "contention {:?}", c.contention()).unwrap();
    for ev in c.faults().events() {
        let line = match *ev {
            FaultEvent::NodeCrash { node, at } => format!("crash {node} {}", secs(at)),
            FaultEvent::NodeSlowdown {
                node,
                from,
                until,
                factor,
            } => {
                format!(
                    "slow {node} {} {} {}",
                    secs(from),
                    secs(until),
                    bits(factor)
                )
            }
            FaultEvent::LinkDegrade {
                from,
                to,
                at,
                bandwidth_factor,
            } => {
                format!(
                    "degrade {from}-{to} {} {}",
                    secs(at),
                    bits(bandwidth_factor)
                )
            }
            FaultEvent::LinkDrop { from, to, at } => format!("drop {from}-{to} {}", secs(at)),
        };
        writeln!(s, "fault {line}").unwrap();
    }
    if let Some(m) = c.mem_bus() {
        let (lat, bw) = (bits(m.latency), bits(m.bandwidth));
        writeln!(s, "mem {lat} {bw} {:?}", m.protocol).unwrap();
    }
    writeln!(s, "placement {placement:?}").unwrap();
    s
}

/// One FNV-1a hash over the renderings of a family, in order.
fn fnv1a(renderings: impl IntoIterator<Item = String>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for r in renderings {
        for b in r.bytes().chain([0]) {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

fn scenario_testbed(sc: &Scenario) -> String {
    let topology = build_cluster(sc);
    render(topology.cluster(), topology.placement())
}

fn one_rank_per_node(c: &Cluster) -> String {
    render(c, &c.node_ids().collect::<Vec<_>>())
}

fn assert_pinned(family: &str, got: u64, pinned: u64) {
    assert_eq!(
        got, pinned,
        "{family}: testbed hash {got:#018x}, pinned {pinned:#018x}"
    );
}

#[test]
fn mixed_scenario_testbeds_are_pinned() {
    let h = fnv1a((0..2000).map(|seed| scenario_testbed(&generate(seed))));
    assert_pinned("generate 0..2000", h, 0x85a9_b3fa_7d33_1d4c);
}

#[test]
fn hierarchical_scenario_testbeds_are_pinned() {
    let h = fnv1a((0..2000).map(|seed| scenario_testbed(&generate_hierarchical(seed))));
    assert_pinned("generate_hierarchical 0..2000", h, 0xedc4_5874_8a92_5b03);
}

#[test]
fn crashy_scenario_testbeds_are_pinned() {
    let h = fnv1a((0..2000).map(|seed| scenario_testbed(&generate_crashy_collective(seed))));
    assert_pinned(
        "generate_crashy_collective 0..2000",
        h,
        0x7440_cf9a_b7b0_81aa,
    );
}

#[test]
fn corpus_testbeds_are_pinned() {
    let dir = Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/corpus"));
    let mut files: Vec<_> = std::fs::read_dir(dir)
        .expect("corpus directory exists")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "scn"))
        .collect();
    files.sort();
    let mut lines = Vec::new();
    for file in &files {
        let text = std::fs::read_to_string(file).unwrap();
        let scenarios = text.lines().map(str::trim);
        lines.extend(
            scenarios
                .filter(|l| !l.is_empty() && !l.starts_with('#'))
                .map(String::from),
        );
    }
    let h = fnv1a(lines.iter().map(|l| scenario_testbed(&parse(l).unwrap())));
    assert_pinned("corpus", h, 0x9a29_5a51_368f_33fe);
}

#[test]
fn random_clusters_are_pinned() {
    let h = fnv1a((0..1000).map(|seed| one_rank_per_node(&Cluster::random(seed, 12))));
    assert_pinned("Cluster::random(0..1000, 12)", h, 0xac23_f4b9_44cc_d6d6);
}

#[test]
fn paper_lans_are_pinned() {
    let plan = FaultPlan::none()
        .with(FaultEvent::NodeCrash {
            node: NodeId(2),
            at: SimTime::from_secs(1.5),
        })
        .with(FaultEvent::NodeSlowdown {
            node: NodeId(6),
            from: SimTime::from_secs(0.25),
            until: SimTime::from_secs(2.0),
            factor: 0.5,
        })
        .with(FaultEvent::LinkDegrade {
            from: NodeId(0),
            to: NodeId(7),
            at: SimTime::from_secs(0.125),
            bandwidth_factor: 0.3,
        })
        .with(FaultEvent::LinkDrop {
            from: NodeId(1),
            to: NodeId(3),
            at: SimTime::from_secs(3.0),
        });
    let lans = [
        Cluster::paper_lan_em3d(),
        Cluster::paper_lan_matmul(),
        Cluster::paper_lan(&PAPER_EM3D_SPEEDS[..8]),
        Cluster::paper_lan_with_faults(&PAPER_EM3D_SPEEDS, plan.clone()),
        Cluster::paper_lan_with_faults(&PAPER_EM3D_SPEEDS[..8], plan),
    ];
    assert_pinned(
        "paper LANs",
        fnv1a(lans.iter().map(one_rank_per_node)),
        0x9fa7_69ad_e9f1_756a,
    );
}
