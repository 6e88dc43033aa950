//! Golden outcomes of `Comm::barrier`: three consecutive barriers with
//! staggered compute on seeded random testbeds — every contention model,
//! flat and multi-site, with and without multi-rank nodes on a memory bus.
//!
//! A fault-free row pins every rank's clock bits after each barrier and the
//! whole trace's hash. Fault rows pin every rank's outcome (barriers passed
//! and the typed error with the rank it blames) and clock bits under three
//! faults: a node crashing before any rank enters the first barrier, a
//! node crashing while its ranks are inside the second barrier and every
//! other rank is still computing towards it, and a rank that
//! returns instead of entering the second one. The constants were taken
//! from the mailbox barrier and any barrier must reproduce every row: its
//! messages, clocks, trace and error surface are functions of the testbed
//! and the fault plan alone.

mod support;

use hetsim::{FaultPlan, NodeId, SimTime};
use mpisim::{MpiError, Process, Universe, UniverseConfig};
use support::{crash, diff_golden, error_label, testbed, trace_hash, Fnv, MODELS};

/// The work before barrier `k` of a rank on node `node`: never zero, so
/// every rank enters the first barrier after a crash timed before the
/// earliest entry, and alike for co-located ranks, so a node's ranks can
/// all be inside a barrier before any other rank enters it.
fn units(node: NodeId, k: usize) -> f64 {
    5.0 + ((node.index() * 7 + k * 3) % 5) as f64 * 10.0
}

/// What a rank saw: its clock on entering and on leaving each barrier it
/// passed, and the error that stopped it, if any.
#[derive(Debug, Default)]
struct Seen {
    entries: Vec<SimTime>,
    exits: Vec<SimTime>,
    err: Option<MpiError>,
}

/// Three rounds of compute then barrier; rank `exit` returns instead of
/// entering the second barrier.
fn program(proc: &Process, exit: Option<usize>) -> Seen {
    let world = proc.world();
    let r = world.rank();
    let mut seen = Seen::default();
    for k in 0..3 {
        if exit == Some(r) && k == 1 {
            break;
        }
        if let Err(e) = proc.try_compute(units(world.node_of(r), k)) {
            seen.err = Some(e);
            break;
        }
        seen.entries.push(world.clock().now());
        if let Err(e) = world.barrier() {
            seen.err = Some(e);
            break;
        }
        seen.exits.push(world.clock().now());
    }
    seen
}

/// A rank's outcome: barriers passed, then the error's variant and the
/// rank it blames.
fn label(seen: &Seen) -> String {
    let err = seen.err.as_ref().map_or("ok".into(), error_label);
    format!("{}{err}", seen.exits.len())
}

/// One run: every rank's outcome, the hash of its clock bits after each
/// barrier and at the end, and the trace's hash when traced.
fn run(seed: u64, faults: FaultPlan, exit: Option<usize>, traced: bool) -> Run {
    let u = Universe::from_topology(testbed(seed, faults), UniverseConfig::new().tracing(traced));
    let report = u.run(|proc| program(proc, exit));
    let mut h = Fnv::new();
    for (seen, end) in report.results.iter().zip(&report.rank_times) {
        for t in seen.exits.iter().chain([end]) {
            h.word(t.as_secs().to_bits());
        }
    }
    Run {
        labels: report
            .results
            .iter()
            .map(label)
            .collect::<Vec<_>>()
            .join(" "),
        clocks: h.0,
        trace: report.trace.map(|t| trace_hash(&t.events)),
        seen: report.results,
    }
}

struct Run {
    labels: String,
    clocks: u64,
    trace: Option<u64>,
    seen: Vec<Seen>,
}

/// The "during" crash of a testbed whose ranks entered barrier `k` at
/// `entries[r][k]`: the first node whose ranks all enter a barrier (the
/// second, else the third, else the first) before any other rank does
/// dies halfway between the two, so its ranks are inside the barrier and
/// every other rank meets the crash on entry. `None` if no node does.
fn crash_inside(entries: &[Vec<SimTime>], placement: &[NodeId]) -> Option<FaultPlan> {
    let split = |k: usize, node: NodeId| {
        let (mut inside, mut outside) = (0.0f64, f64::INFINITY);
        for (r, seen) in entries.iter().enumerate() {
            let at = seen[k].as_secs();
            if placement[r] == node {
                inside = inside.max(at);
            } else {
                outside = outside.min(at);
            }
        }
        let at = SimTime::from_secs((inside + outside) / 2.0);
        (inside < outside).then(|| crash(node, at))
    };
    [1, 2, 0]
        .into_iter()
        .find_map(|k| placement.iter().find_map(|&node| split(k, node)))
}

/// Every row's golden line, in a fixed order.
fn table() -> Vec<String> {
    let mut lines = Vec::new();
    for seed in 0..24 {
        let clean = run(seed, FaultPlan::none(), None, true);
        let p = clean.seen.len();
        let model = format!("{:?}", MODELS[seed as usize % 3]);
        lines.push(format!(
            "{seed:2} {model} p={p} clean: {} #{:016x} trace#{:016x}",
            clean.labels,
            clean.clocks,
            clean.trace.expect("traced")
        ));
        let placement = testbed(seed, FaultPlan::none()).placement().to_vec();
        // Before entry: the last rank's node dies at half the earliest
        // entry time, while every rank is still computing.
        let first_entry = clean
            .seen
            .iter()
            .map(|s| s.entries[0])
            .min()
            .expect("p > 0");
        let before = crash(
            placement[p - 1],
            SimTime::from_secs(first_entry.as_secs() / 2.0),
        );
        // During: a node's ranks are inside a barrier, every other rank
        // meets the crash on entry. A testbed without such a node has no
        // such row.
        let entries: Vec<Vec<SimTime>> = clean.seen.iter().map(|s| s.entries.clone()).collect();
        let during = crash_inside(&entries, &placement);
        let cases = [
            ("before", Some(before), None),
            ("during", during, None),
            ("exit", Some(FaultPlan::none()), Some(p / 2)),
        ];
        for (case, faults, exit) in cases {
            let Some(faults) = faults else {
                lines.push(format!("{seed:2} {case}: -"));
                continue;
            };
            let r = run(seed, faults, exit, false);
            lines.push(format!("{seed:2} {case}: {} #{:016x}", r.labels, r.clocks));
        }
    }
    lines
}

#[test]
fn every_barrier_row_reproduces_its_golden_outcome() {
    if let Some(differ) = diff_golden(&table(), GOLDEN) {
        panic!("{differ}");
    }
}

/// One line per row: `seed model p=P clean: outcomes #clocks trace#hash`,
/// then the seed's three fault rows, `seed case: outcomes #clocks`.
const GOLDEN: &str = "
0 ParallelLinks p=6 clean: 3ok 3ok 3ok 3ok 3ok 3ok #6cf7faa622fa88cd trace#0bdf4ab5f9ae47bf
0 before: 0N5 0N5 0N5 0N5 0N5 0N5 #92e561ae119d6195
0 during: 1N1 1P0 1N1 1N1 1N1 1N1 #0d0aed806af3e784
0 exit: 1P2 1P0 1P3 1ok 1P0 1P4 #684d9efee5f4123f
1 SerializedNic p=2 clean: 3ok 3ok #4ec120c3e4c8acf9 trace#3f505904877725ac
1 before: 0N1 0N1 #90422ac30858dd69
1 during: 1N1 1P0 #f5efbfb7e28e98f7
1 exit: 1P1 1ok #ca1da66989fcdd7a
2 SharedBus p=2 clean: 3ok 3ok #085aca77cfbcce49 trace#b0ec8a245e6fa402
2 before: 0N1 0N1 #68c68e4641f52499
2 during: 1N1 1P0 #c6d2605ee8e2e414
2 exit: 1P1 1ok #4d0e696a5781a51e
3 ParallelLinks p=4 clean: 3ok 3ok 3ok 3ok #0e83d53530338959 trace#456d606cacd550f7
3 before: 0N3 0N3 0N3 0N3 #fa24a0c004835bc3
3 during: 1N1 1P0 1N1 1N1 #4dac44a1345ff5a5
3 exit: 1P2 1P0 1ok 1P2 #9b769559aae02881
4 SerializedNic p=6 clean: 3ok 3ok 3ok 3ok 3ok 3ok #c355034e3e1e1fb9 trace#3f480932182e3395
4 before: 0N5 0N5 0N5 0N5 0N5 0N5 #a36728871754bb01
4 during: 1N1 1P0 1N1 1N1 1N1 1N1 #1d70694ba432b27b
4 exit: 1P2 1P0 1P3 1ok 1P0 1P4 #413081eb25214cf4
5 SharedBus p=6 clean: 3ok 3ok 3ok 3ok 3ok 3ok #298bd3c3e126a969 trace#c1d9ce5617127668
5 before: 0N5 0N5 0N5 0N5 0N5 0N5 #2258e7132e42ab2d
5 during: 1N2 1N2 1P3 1N2 1N2 1N2 #f43ada52cb4bddd6
5 exit: 1P2 1P0 1P3 1ok 1P0 1P4 #b1b8390b5c9df9ee
6 ParallelLinks p=7 clean: 3ok 3ok 3ok 3ok 3ok 3ok 3ok #1779b20e271205af trace#cb2e8f12230f81ac
6 before: 0N6 0N6 0N6 0N6 0N6 0N6 0N6 #cb5e025bf660f318
6 during: 1N3 1N3 1N3 1P2 1P5 1N4 1N4 #0be9f92d067644a6
6 exit: 1P2 1P0 1P3 1ok 1P0 1P4 1P4 #b66909f383df491c
7 SerializedNic p=7 clean: 3ok 3ok 3ok 3ok 3ok 3ok 3ok #05f77342b8b5d8ea trace#56159643204b0922
7 before: 0N6 0N6 0N6 0N6 0N6 0N6 0N6 #343f5a3593589a4c
7 during: 1N1 1P0 1N1 1N1 1N1 1N1 1N1 #faf11f2761c07ff2
7 exit: 1P2 1P0 1P3 1ok 1P0 1P4 1P4 #c6ff43325ea1b3f4
8 SharedBus p=12 clean: 3ok 3ok 3ok 3ok 3ok 3ok 3ok 3ok 3ok 3ok 3ok 3ok #2a35e457b80f3465 trace#3c95b0798b9f9f2d
8 before: 0N10 0N10 0N10 0N10 0N10 0N10 0N10 0N10 0N10 0N10 0N10 0N11 #d03bc4cf8848474e
8 during: 1N3 1N3 1N3 1P2 1P5 1N4 1N3 1N3 1N3 1N3 1N3 1N3 #1790fd265ed07916
8 exit: 1P4 1P0 1P0 1P2 1P6 1P4 1ok 1P6 1P0 1P8 1P8 1P10 #4db3896bdd9e9187
9 ParallelLinks p=6 clean: 3ok 3ok 3ok 3ok 3ok 3ok #db3110d1b23f5821 trace#a39ecb307e57f766
9 before: 0N3 0N3 0N3 0N3 0N4 0N5 #9f33c12ef198e827
9 during: 1N1 1P0 1P3 1N2 1N1 1N1 #ffd89b98863331ce
9 exit: 1P2 1P0 1P3 1ok 1P0 1P4 #f596ebeaf86eba28
10 SerializedNic p=11 clean: 3ok 3ok 3ok 3ok 3ok 3ok 3ok 3ok 3ok 3ok 3ok #2fb9970342800475 trace#fb3622423da365f7
10 before: 0N8 0N8 0N8 0N8 0N8 0N8 0N8 0N8 0N8 0N9 0N10 #f6e311432be2c408
10 during: 1N2 1N2 1P3 1N2 1N2 1N2 1N2 1N2 1N2 1N2 1N2 #59a70d276199f442
10 exit: 1P4 1P0 1P0 1P2 1P5 1ok 1P4 1P6 1P0 1P8 1P8 #15bf27eff397f8e2
11 SharedBus p=6 clean: 3ok 3ok 3ok 3ok 3ok 3ok #7ed36e3f385ac8e5 trace#9244bb2438dca357
11 before: 0N4 0N4 0N4 0N4 0N4 0N5 #4b5cd18b60325948
11 during: 1N1 1P0 1P0 1P2 1N1 1N1 #2941c949df817406
11 exit: 1P2 1P0 1P3 1ok 1P0 1P4 #fa9c65985dfbd981
12 ParallelLinks p=4 clean: 3ok 3ok 3ok 3ok #d486c01d3aa163c5 trace#d527954c9ae688dc
12 before: 0N3 0N3 0N3 0N3 #ca9e71ac1d0035c9
12 during: 1N1 1P0 1N1 1N1 #58a9925fba16d10d
12 exit: 1P2 1P0 1ok 1P2 #b8cb94bfa081862e
13 SerializedNic p=5 clean: 3ok 3ok 3ok 3ok 3ok #9b272a91ffe451fe trace#2749f7ded9fbd33c
13 before: 0N4 0N4 0N4 0N4 0N4 #26f86da285abc4a5
13 during: 1N1 1P0 1N1 1N1 1N1 #80dc06b138657ece
13 exit: 1P2 1P0 1ok 1P2 1P0 #2fd026a922209f43
14 SharedBus p=3 clean: 3ok 3ok 3ok #69328ae1a65f6d73 trace#7467ceaa60022813
14 before: 0N2 0N2 0N2 #47a7beb34c3f1f08
14 during: 1N1 1P0 1N1 #42c10cada818b8a7
14 exit: 1P1 1ok 1P0 #e11ff1f66e274003
15 ParallelLinks p=5 clean: 3ok 3ok 3ok 3ok 3ok #ed58c073834480e2 trace#40b926d5a7d0dbec
15 before: 0N4 0N4 0N4 0N4 0N4 #2d621a03a79332d3
15 during: 1N1 1P0 1N1 1N1 1N1 #96abf0b7b2703085
15 exit: 1P2 1P0 1ok 1P2 1P0 #58481aa862f9f9fb
16 SerializedNic p=6 clean: 3ok 3ok 3ok 3ok 3ok 3ok #16f662567c4b602d trace#26eb6312b626e065
16 before: 0N5 0N5 0N5 0N5 0N5 0N5 #905a4a0e0206a836
16 during: 1N1 1P0 1N1 1N1 1N1 1N1 #6517699c142165e7
16 exit: 1P2 1P0 1P3 1ok 1P0 1P4 #34eac27061635692
17 SharedBus p=2 clean: 3ok 3ok #38e86e4a4806ba85 trace#87316adc389e1bac
17 before: 0N1 0N1 #2bd7eedbe85a613d
17 during: 1N1 1P0 #6df564f424a87725
17 exit: 1P1 1ok #7cead99a8f259c37
18 ParallelLinks p=13 clean: 3ok 3ok 3ok 3ok 3ok 3ok 3ok 3ok 3ok 3ok 3ok 3ok 3ok #80e3a8616d4b004f trace#dbbc209d5a487b15
18 before: 0N10 0N10 0N10 0N10 0N10 0N10 0N10 0N10 0N10 0N10 0N10 0N11 0N12 #902797b81b09b0ed
18 during: 1N3 1N3 1N3 1P2 1P6 1P4 1N3 1N3 1N3 1N3 1N3 1N3 1N3 #88c86fcd45af2832
18 exit: 1P4 1P0 1P0 1P2 1P6 1P4 1ok 1P6 1P0 1P8 1P8 1P10 1P8 #3ecf81935a849ac9
19 SerializedNic p=4 clean: 3ok 3ok 3ok 3ok #dcc5b580f815cb55 trace#7da61c03b35c66f5
19 before: 0N2 0N2 0N2 0N3 #14c07ea4e42f3b4d
19 during: 1N1 1P0 1N1 1N1 #4217a24d0ead9498
19 exit: 1P2 1P0 1ok 1P2 #53191c969b2b4a1f
20 SharedBus p=6 clean: 3ok 3ok 3ok 3ok 3ok 3ok #97064f70fc041869 trace#99d71c7f5b57a73e
20 before: 0N5 0N5 0N5 0N5 0N5 0N5 #4b6a40308dd2964a
20 during: 1N3 1N3 1N3 1P2 1P5 1N4 #bc5dd4b8e9299578
20 exit: 1P2 1P0 1P3 1ok 1P0 1P4 #e489aaff35689a2a
21 ParallelLinks p=6 clean: 3ok 3ok 3ok 3ok 3ok 3ok #646c0638797ae0e9 trace#37aa476516055625
21 before: 0N5 0N5 0N5 0N5 0N5 0N5 #87105da76445aef7
21 during: 1N3 1N3 1N3 1P2 1N3 1N3 #238d221b029eacb9
21 exit: 1P2 1P0 1P3 1ok 1P0 1P4 #4ed93a1169845fe0
22 SerializedNic p=5 clean: 3ok 3ok 3ok 3ok 3ok #4cea8571176ee700 trace#10791787e032eac5
22 before: 0N4 0N4 0N4 0N4 0N4 #9df6b2b061d72335
22 during: 1N2 1N2 1P0 1P2 1N2 #c67d497023f23812
22 exit: 1P2 1P0 1ok 1P2 1P0 #98245073c3b2c2ce
23 SharedBus p=8 clean: 3ok 3ok 3ok 3ok 3ok 3ok 3ok 3ok #2a4373c0cf1d5865 trace#42595d3c6e5268e7
23 before: 0N5 0N5 0N5 0N5 0N5 0N5 0N6 0N7 #f609226389cc0fd1
23 during: 1N1 1P0 1P0 1P2 1N1 1N1 1N1 1N1 #34408125f7e4239a
23 exit: 1P4 1P0 1P0 1P2 1ok 1P4 1P4 1P6 #3664d398606749ee
";
