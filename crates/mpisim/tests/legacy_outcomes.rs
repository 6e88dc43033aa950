//! Golden outcomes of the legacy collectives — `gather`, `bcast`,
//! `allgather` and `split` — on the seeded testbeds of
//! `barrier_outcomes.rs`: every contention model, flat and multi-site,
//! with and without multi-rank nodes on a memory bus.
//!
//! Each rank runs five calls with staggered compute before each: a gather
//! to rank 0, a broadcast from rank `p / 2`, a ragged allgather, a gather
//! to rank `p − 1` and a two-colour split. Contributions are `i64`s of 0,
//! 8, 9 and 33 elements, so the transfers cross both the 64-byte inline
//! slot and the 256-byte eager limit. A row pins every rank's outcome
//! (calls passed and the typed error with the rank it blames), the hash of
//! every result it received, its clock bits after each call, and the
//! trace's hash: fault-free, with a node crashing before any rank enters
//! the first call, with a node crashing while its one rank waits inside a
//! call and every other rank is still computing towards it, and with a
//! rank that returns instead of entering the allgather. The constants were
//! taken from the mailbox collectives, and any implementation must
//! reproduce every row: messages, clocks, traces, results and error
//! surface are functions of the testbed and the fault plan alone.

mod support;

use hetsim::{FaultPlan, NodeId, SimTime};
use mpisim::{Comm, MpiError, MpiResult, Process, Universe, UniverseConfig};
use support::{crash, diff_golden, error_label, testbed, trace_hash, Fnv, MODELS};

/// Contribution lengths, in `i64`s: empty, the inline slot exactly, just
/// over it, and just over the eager limit.
const LENS: [usize; 4] = [0, 8, 9, 33];

/// Calls per run.
const CALLS: usize = 5;

/// Where the rank that returns early stops: before the allgather.
const EXIT_AT: usize = 2;

/// The work before call `k` of a rank on node `node`: never zero, and
/// alike for co-located ranks (see `barrier_outcomes.rs`).
fn units(node: NodeId, k: usize) -> f64 {
    5.0 + ((node.index() * 7 + k * 3) % 5) as f64 * 10.0
}

/// Rank `r`'s contribution to call `k`.
fn contrib(r: usize, k: usize) -> Vec<i64> {
    let len = LENS[(r + k) % LENS.len()];
    (0..len).map(|i| (r * 1000 + k * 100 + i) as i64).collect()
}

/// What a rank saw: its clock on entering and on leaving each call it
/// passed, the hash of what each returned, and the error that stopped
/// it, if any.
struct Seen {
    entries: Vec<SimTime>,
    exits: Vec<SimTime>,
    results: Fnv,
    err: Option<MpiError>,
}

fn vecs(h: &mut Fnv, parts: &[Vec<i64>]) {
    h.word(parts.len() as u64);
    for part in parts {
        h.word(part.len() as u64);
        part.iter().for_each(|&x| h.word(x as u64));
    }
}

/// Call `k` of rank `r` on `world`, hashing what it returns into `h`.
fn call(world: &Comm, k: usize, h: &mut Fnv) -> MpiResult<()> {
    let (r, p) = (world.rank(), world.size());
    match k {
        0 | 3 => {
            let root = if k == 0 { 0 } else { p - 1 };
            match world.gather(&contrib(r, k), root)? {
                Some(parts) => vecs(h, &parts),
                None => h.word(u64::MAX),
            }
        }
        1 => {
            let root = p / 2;
            let mut data = if r == root { contrib(r, k) } else { Vec::new() };
            world.bcast(&mut data, root)?;
            vecs(h, &[data]);
        }
        2 => vecs(h, &world.allgather(&contrib(r, k))?),
        _ => {
            let sub = world.split(Some((r % 2) as i32), (p - r) as i32)?;
            let sub = sub.expect("every rank has a colour");
            h.word(sub.rank() as u64);
            h.word(sub.size() as u64);
            (0..sub.size()).for_each(|s| h.word(sub.world_rank_of(s) as u64));
        }
    }
    Ok(())
}

/// The five calls with compute before each; rank `exit` returns instead
/// of entering call `EXIT_AT`.
fn program(proc: &Process, exit: Option<usize>) -> Seen {
    let world = proc.world();
    let r = world.rank();
    let mut seen = Seen {
        entries: Vec::new(),
        exits: Vec::new(),
        results: Fnv::new(),
        err: None,
    };
    for k in 0..CALLS {
        if exit == Some(r) && k == EXIT_AT {
            break;
        }
        if let Err(e) = proc.try_compute(units(world.node_of(r), k)) {
            seen.err = Some(e);
            break;
        }
        seen.entries.push(world.clock().now());
        if let Err(e) = call(&world, k, &mut seen.results) {
            seen.err = Some(e);
            break;
        }
        seen.exits.push(world.clock().now());
    }
    seen
}

/// A rank's outcome: calls passed, then the error's variant and the rank
/// it blames.
fn label(seen: &Seen) -> String {
    let err = seen.err.as_ref().map_or("ok".into(), error_label);
    format!("{}{err}", seen.exits.len())
}

struct Run {
    labels: String,
    results: u64,
    clocks: u64,
    trace: u64,
    seen: Vec<Seen>,
}

/// One traced run: every rank's outcome, the hash of its results, of its
/// clock bits after each call and at the end, and of the trace.
fn run(seed: u64, faults: FaultPlan, exit: Option<usize>) -> Run {
    let u = Universe::from_topology(testbed(seed, faults), UniverseConfig::new().tracing(true));
    let report = u.run(|proc| program(proc, exit));
    let (mut results, mut clocks) = (Fnv::new(), Fnv::new());
    for (seen, end) in report.results.iter().zip(&report.rank_times) {
        results.word(seen.results.0);
        for t in seen.exits.iter().chain([end]) {
            clocks.word(t.as_secs().to_bits());
        }
    }
    let labels: Vec<String> = report.results.iter().map(label).collect();
    Run {
        labels: labels.join(" "),
        results: results.0,
        clocks: clocks.0,
        trace: trace_hash(&report.trace.expect("traced").events),
        seen: report.results,
    }
}

/// The "during" crash of a testbed where rank `r` entered and left call
/// `k` at `seen[r].entries[k]` and `seen[r].exits[k]`: the node of the
/// first rank that is alone on its node and inside a call (the broadcast,
/// else the allgather, the first gather, the second, the split) from
/// before any other rank enters it to after the crash dies halfway
/// between the two entries. So that rank waits inside the call when it
/// dies, and every other rank is still computing towards it: no survivor
/// is inside a call, and none ever receives from the dead rank after its
/// death. `None` if no rank is.
fn crash_inside(seen: &[Seen], placement: &[NodeId]) -> Option<FaultPlan> {
    let alone = |r: usize| placement.iter().filter(|&&n| n == placement[r]).count() == 1;
    [1, 2, 0, 3, 4].into_iter().find_map(|k| {
        (0..seen.len()).filter(|&r| alone(r)).find_map(|r| {
            let inside = seen[r].entries[k].as_secs();
            let others = (0..seen.len()).filter(|&o| o != r);
            let outside = others.map(|o| seen[o].entries[k].as_secs());
            let at = (inside + outside.fold(f64::INFINITY, f64::min)) / 2.0;
            let waits = inside < at && at < seen[r].exits[k].as_secs();
            waits.then(|| crash(placement[r], SimTime::from_secs(at)))
        })
    })
}

/// Every row's golden line, in a fixed order.
fn table() -> Vec<String> {
    let mut lines = Vec::new();
    for seed in 0..24 {
        let clean = run(seed, FaultPlan::none(), None);
        let p = clean.seen.len();
        let model = format!("{:?}", MODELS[seed as usize % 3]);
        let row = |case: &str, r: &Run| {
            format!(
                "{seed:2} {case}: {} r#{:016x} #{:016x} trace#{:016x}",
                r.labels, r.results, r.clocks, r.trace
            )
        };
        lines.push(row(&format!("{model} p={p} clean"), &clean));
        let placement = testbed(seed, FaultPlan::none()).placement().to_vec();
        // Before entry: the last rank's node dies at half the earliest
        // entry time, while every rank is still computing.
        let first_entry = clean.seen.iter().map(|s| s.entries[0]).min();
        let before = crash(
            placement[p - 1],
            SimTime::from_secs(first_entry.expect("p > 0").as_secs() / 2.0),
        );
        let cases = [
            ("before", Some(before), None),
            ("during", crash_inside(&clean.seen, &placement), None),
            ("exit", Some(FaultPlan::none()), Some(p / 2)),
        ];
        for (case, faults, exit) in cases {
            match faults {
                Some(faults) => lines.push(row(case, &run(seed, faults, exit))),
                None => lines.push(format!("{seed:2} {case}: -")),
            }
        }
    }
    lines
}

#[test]
fn every_legacy_collective_row_reproduces_its_golden_outcome() {
    if let Some(differ) = diff_golden(&table(), GOLDEN) {
        panic!("{differ}");
    }
}

/// One line per row: `seed model p=P clean: outcomes r#results #clocks
/// trace#hash`, then the seed's three fault rows, `seed case: …` alike.
const GOLDEN: &str = "
0 ParallelLinks p=6 clean: 5ok 5ok 5ok 5ok 5ok 5ok r#937e17c33b74de81 #be3a25a3ca865014 trace#7a3d3331e3d0fde6
0 before: 0N5 1N5 1N5 1N5 1N5 0N5 r#2d9d0fad09e8b325 #ff25d6aa547153a1 trace#d22d849a0a1acb38
0 during: 0N1 1P3 1N1 1N1 1N1 1N1 r#3930e3f09425f0a6 #3578f4ec75043148 trace#ce6ae7b8854fd981
0 exit: 2P3 2P0 2P0 2ok 2P0 2P4 r#f65c076fbd1b13e5 #0247aa95e8fc9f3f trace#07437429586688fd
1 SerializedNic p=2 clean: 5ok 5ok r#c36d339744187cd0 #5006183aa95b6a2d trace#31e29ce956ee5c25
1 before: 0N1 0N1 r#64b9bc1dafc8c0a5 #90422ac30858dd69 trace#120711f6412337c6
1 during: 2N1 2P0 r#1a92ab9e4c9db857 #e03da761da3a97c2 trace#05073a07f60f792b
1 exit: 2P1 2ok r#1a92ab9e4c9db857 #2da0c49b97dd9936 trace#b5fcc89f47404771
2 SharedBus p=2 clean: 5ok 5ok r#c36d339744187cd0 #4c7906cc8ac14bfd trace#23fe11ade26b78d8
2 before: 0N1 0N1 r#64b9bc1dafc8c0a5 #68c68e4641f52499 trace#29170001dd8efb12
2 during: 2P1 2N0 r#1a92ab9e4c9db857 #b85cf698af3071c8 trace#edb26137bd8a9436
2 exit: 2P1 2ok r#1a92ab9e4c9db857 #4daebdb98048fa77 trace#c9b1a4e60df04981
3 ParallelLinks p=4 clean: 5ok 5ok 5ok 5ok r#925472fe400190b5 #0692f0464e208424 trace#eb5aff4bfe991d62
3 before: 0N3 1N3 1N3 0N3 r#e966295f22b4dee5 #0c435bb31c97273e trace#a2187ffe5d0b4972
3 during: 0N1 1P0 2N1 1N1 r#d3c480dcf85e679a #fe24619f8cd45abd trace#8a5c83ff57346d85
3 exit: 2P2 2P0 2ok 2P2 r#898176f47737f2dc #bb90544d9be2320c trace#d3c8fef72223faaa
4 SerializedNic p=6 clean: 5ok 5ok 5ok 5ok 5ok 5ok r#937e17c33b74de81 #2de967e8b933ed45 trace#d079983ae2897da3
4 before: 0N5 1N5 1N5 1N5 1N5 0N5 r#2d9d0fad09e8b325 #27a97c200ef60f55 trace#4c286565f39a35cc
4 during: 0N1 1P3 1N1 1N1 1N1 1N1 r#3930e3f09425f0a6 #34272b4e16a363a8 trace#d1a7d34c98aed856
4 exit: 2P3 2P0 2P0 2ok 2P0 2P4 r#f65c076fbd1b13e5 #f3e4287500f84d2d trace#cb96cfe923d3226f
5 SharedBus p=6 clean: 5ok 5ok 5ok 5ok 5ok 5ok r#937e17c33b74de81 #824cb74438102aa6 trace#5ff3ebd6135625f5
5 before: 0N5 1N5 1N5 1N5 1N5 0N5 r#2d9d0fad09e8b325 #5881fe93e75868e6 trace#4f1b55a525b8f507
5 during: 0N5 1N5 1N5 1N5 1N5 1P3 r#3930e3f09425f0a6 #9d0642df4ca50e12 trace#8120bc52e9453219
5 exit: 2P3 2P0 2P0 2ok 2P0 2P4 r#f65c076fbd1b13e5 #0d7a94c28d676c90 trace#8cc728dedcaf3cf5
6 ParallelLinks p=7 clean: 5ok 5ok 5ok 5ok 5ok 5ok 5ok r#e2de10931e2346c0 #f08dafc0b729259f trace#6d03c06fe41a43ff
6 before: 0N6 1N6 1N6 2N6 1N6 1N6 0N6 r#c765b7485062603a #4e884f463266a961 trace#81802fb6effd4012
6 during: 3N6 3N6 3N6 3N6 3N6 3N6 3P0 r#99057305c9f68447 #d64f4c0dd47660af trace#de2bcf3fc2815c1e
6 exit: 2P3 2P0 2P0 2ok 2P0 2P4 2P4 r#4f446cbe9c1f5217 #92897a87441b08dd trace#f5069fb9b47e5071
7 SerializedNic p=7 clean: 5ok 5ok 5ok 5ok 5ok 5ok 5ok r#e2de10931e2346c0 #aae7031e106143a0 trace#bef6474de992478d
7 before: 0N6 1N6 1N6 2N6 1N6 1N6 0N6 r#c765b7485062603a #9b01b92fa5f93731 trace#49b30d71e55b7a0f
7 during: 1N1 1P0 1N1 2N1 1N1 1N1 1N1 r#96534e5748a1bfcb #e5b1c25cae55a4ed trace#bf6490048192d487
7 exit: 2P3 2P0 2P0 2ok 2P0 2P4 2P4 r#4f446cbe9c1f5217 #17e92ca06bb73709 trace#7089887b3e8253f5
8 SharedBus p=12 clean: 5ok 5ok 5ok 5ok 5ok 5ok 5ok 5ok 5ok 5ok 5ok 5ok r#d660e1e5ffaa9390 #efed52caff4c6ecb trace#486862492b77a5b3
8 before: 0N10 1N10 1N10 1N10 1N10 1N10 1N10 1N10 1N10 1N10 0N10 0N11 r#f5d253f6ed0bea76 #eee5a11aaa6b966c trace#8b947add9ceaf189
8 during: -
8 exit: 2P6 2P0 2P0 2P2 2P0 2P4 2ok 2P6 2P0 2P8 2P8 2P10 r#af2e5af65bbe86f5 #7c6da3fce3f9d0e7 trace#99ec27d783515f3b
9 ParallelLinks p=6 clean: 5ok 5ok 5ok 5ok 5ok 5ok r#937e17c33b74de81 #7caee9c3b9cb7c25 trace#5a7622ea32c08aad
9 before: 0N3 1N3 1N3 0N3 0N4 0N5 r#252310bad1738d65 #fca2c3905dc68b85 trace#bbc08723ab6ce87a
9 during: 0P1 0N0 0N0 0N0 0N0 0N0 r#987bb05229ae5ba5 #778b181b30b09490 trace#6dbc30926008aad5
9 exit: 2P3 2P0 2P0 2ok 2P0 2P4 r#f65c076fbd1b13e5 #da8f27beb5bbb7eb trace#dd053a432ab24dc8
10 SerializedNic p=11 clean: 5ok 5ok 5ok 5ok 5ok 5ok 5ok 5ok 5ok 5ok 5ok r#a10ed061fb1bd728 #d26b77fd744a5ed5 trace#64477af7f82df6d8
10 before: 0N8 1N8 1N8 1N8 1N8 1N9 1N8 1N8 0N8 0N9 0N10 r#4b44722f10686427 #5f27b42189391d45 trace#bdb69a9feb66ca3b
10 during: 1N2 1N2 1P5 1N2 1N2 1N2 1N2 1N2 1N2 1N2 1N2 r#e72697210eceee5c #f8338b6309a41744 trace#abc09969bc22c278
10 exit: 2P5 2P0 2P0 2P2 2P0 2ok 2P4 2P6 2P0 2P8 2P8 r#1ed5a2ce5425eeee #3f270390c57bd722 trace#8f7403d11e11df35
11 SharedBus p=6 clean: 5ok 5ok 5ok 5ok 5ok 5ok r#937e17c33b74de81 #7d02cbe72cfb34f1 trace#39ae8b007187f029
11 before: 0N4 1N4 1N4 1N5 0N4 0N5 r#a5e6ba62257ce436 #fd5e32c5a6f2bb70 trace#72d766354b7a0182
11 during: -
11 exit: 2P3 2P0 2P0 2ok 2P0 2P4 r#f65c076fbd1b13e5 #1ab93e47df72d9d2 trace#526667621071390f
12 ParallelLinks p=4 clean: 5ok 5ok 5ok 5ok r#925472fe400190b5 #7f3fc755c6768146 trace#0637a65caff2d59b
12 before: 0N3 1N3 1N3 0N3 r#e966295f22b4dee5 #93342c7dbbeb2d8a trace#30452501fff7f685
12 during: 0N1 1P0 2N1 1N1 r#d3c480dcf85e679a #ddbd40f0aca05913 trace#7b4054b189d16bfc
12 exit: 2P2 2P0 2ok 2P2 r#898176f47737f2dc #ca10e0eb0e884bcb trace#3294a967d04df82b
13 SerializedNic p=5 clean: 5ok 5ok 5ok 5ok 5ok r#b1a03f07ed75e409 #e6b5481ea0f9ca0d trace#786c387d6380654e
13 before: 0N4 1N4 1N4 1N4 0N4 r#a1a56d33f9739517 #b4bc18815b7ac214 trace#0a1015c0548b6832
13 during: 0N3 1N3 1N3 1P2 1N3 r#ac7cc89392a42d4c #ee273c5b60814710 trace#54620bec563408e0
13 exit: 2P2 2P0 2ok 2P2 2P0 r#722ff92401de84c7 #3a17a36b60872b4a trace#009a442965118ad5
14 SharedBus p=3 clean: 5ok 5ok 5ok r#56e571d311f908df #74939bbf63c92f67 trace#74d35e22212c7874
14 before: 0N2 1N2 0N2 r#857c6a62e8a813d7 #4e4e37b9f814a300 trace#27f39e7786b3408f
14 during: 1N1 2P0 1N1 r#c56e4b89ebbd8923 #d050bbcf34d102c6 trace#9d0c838de68ebde1
14 exit: 2P1 2ok 2P0 r#3ab94e5927c30cbb #d2cad81df955aa77 trace#aef09fc623f84753
15 ParallelLinks p=5 clean: 5ok 5ok 5ok 5ok 5ok r#b1a03f07ed75e409 #584bcd8faf23a1a5 trace#2eee0203835b6016
15 before: 0N4 1N4 1N4 1N4 0N4 r#a1a56d33f9739517 #452c517be357efd4 trace#84738b363407ab6e
15 during: 1N1 1P2 1N1 1N1 1N1 r#e38f0cb01eee8f7a #6d21d72a81c6ecdc trace#df134fbd900e33e2
15 exit: 2P2 2P0 2ok 2P2 2P0 r#722ff92401de84c7 #67291e934d8275db trace#578ed755d4cf06b2
16 SerializedNic p=6 clean: 5ok 5ok 5ok 5ok 5ok 5ok r#937e17c33b74de81 #53eb288e7fc4e6c7 trace#167caeaca46a1a8e
16 before: 0N5 1N5 1N5 1N5 1N5 0N5 r#2d9d0fad09e8b325 #53a68b45eda9cc18 trace#076c0ab20f115fcc
16 during: 0N5 1N5 1N5 1N5 1N5 1P3 r#3930e3f09425f0a6 #ab58a21ad61e6d32 trace#798e2ad31b1b227d
16 exit: 2P3 2P0 2P0 2ok 2P0 2P4 r#f65c076fbd1b13e5 #ef5e6a5fc4cb11ae trace#8f308ac7a66d2c00
17 SharedBus p=2 clean: 5ok 5ok r#c36d339744187cd0 #f9fa516062258c1e trace#e4061e81f3d49c9b
17 before: 0N1 0N1 r#64b9bc1dafc8c0a5 #2bd7eedbe85a613d trace#0587e8581188f557
17 during: 2P1 2N0 r#1a92ab9e4c9db857 #d47aa9cd77e7dc0c trace#fbb23006d094a0b1
17 exit: 2P1 2ok r#1a92ab9e4c9db857 #eb23c9de1277c4c7 trace#7ff7a59fe52239e7
18 ParallelLinks p=13 clean: 5ok 5ok 5ok 5ok 5ok 5ok 5ok 5ok 5ok 5ok 5ok 5ok 5ok r#d6c41689cfabfed4 #6a42b9482325924e trace#110508b021f2ee6e
18 before: 0N10 1N10 1N10 1N10 1N10 1N10 1N10 1N10 1N10 1N10 0N10 0N11 0N12 r#4e79b1885008ce67 #b8ac27b6ad220a48 trace#8c7d6b317927895f
18 during: -
18 exit: 2P6 2P0 2P0 2P2 2P0 2P4 2ok 2P6 2P0 2P8 2P8 2P10 2P8 r#8816dbab8e3e4a18 #7c49908a55305ff8 trace#d8a5f3f97b534e13
19 SerializedNic p=4 clean: 5ok 5ok 5ok 5ok r#925472fe400190b5 #8c4cf1aa39106dc1 trace#af6aa08418de339b
19 before: 0N2 1N2 0N2 0N3 r#801a5bf2df278776 #47b2e90c1735f851 trace#e6894d8760529b92
19 during: 1N1 1P0 2N1 1N1 r#ab4ed1c8397da03d #ac9a877e572dd56f trace#12edc7368800d98a
19 exit: 2P2 2P0 2ok 2P2 r#898176f47737f2dc #6e634f99eedcd706 trace#ba175861a26362b5
20 SharedBus p=6 clean: 5ok 5ok 5ok 5ok 5ok 5ok r#937e17c33b74de81 #abd6a549a5c8b9b4 trace#86fc6e291466ca9a
20 before: 0N5 1N5 1N5 1N5 1N5 0N5 r#2d9d0fad09e8b325 #9e421335d63140f2 trace#f611d38445f2e904
20 during: -
20 exit: 2P3 2P0 2P0 2ok 2P0 2P4 r#f65c076fbd1b13e5 #f712900d23794363 trace#1ce68bb9cd621c56
21 ParallelLinks p=6 clean: 5ok 5ok 5ok 5ok 5ok 5ok r#937e17c33b74de81 #6fa45806872570c3 trace#09fd0565c5c3b93a
21 before: 0N5 1N5 1N5 1N5 1N5 0N5 r#2d9d0fad09e8b325 #ceb9d23a7d241c22 trace#1c6e4b7d09912b47
21 during: 3N5 3N5 3N5 3N5 3N5 3P0 r#46cd60821785e967 #b7f0adc830b776c3 trace#1a2b4da7326f2f29
21 exit: 2P3 2P0 2P0 2ok 2P0 2P4 r#f65c076fbd1b13e5 #19d756bad41392cd trace#e2cdc8cbb2ab3577
22 SerializedNic p=5 clean: 5ok 5ok 5ok 5ok 5ok r#b1a03f07ed75e409 #31fb88c40d792d05 trace#9960019d3181af6d
22 before: 0N4 1N4 1N4 1N4 0N4 r#a1a56d33f9739517 #e7edc184c38fdff8 trace#3468713439d8d3c9
22 during: -
22 exit: 2P2 2P0 2ok 2P2 2P0 r#722ff92401de84c7 #03d5e4240d5155b7 trace#2b2c564f3134900a
23 SharedBus p=8 clean: 5ok 5ok 5ok 5ok 5ok 5ok 5ok 5ok r#934c14c0c0baee26 #340d8ca46eafaacf trace#1319798deec4bd0c
23 before: 0N5 1N5 1N5 1N5 1N6 0N5 0N6 0N7 r#2514e38c14b350a5 #2a2d6cbd352912da trace#d3be2ea849b7f061
23 during: 2N4 2N4 2N4 2N4 2P0 2N4 2N4 2N4 r#75f94c3a0615ee23 #d869f2a69d510bab trace#4eb4f9c264dc6d71
23 exit: 2P4 2P0 2P0 2P2 2ok 2P4 2P4 2P6 r#75f94c3a0615ee23 #3b145fba06a8febd trace#8e6768fa4b4999c2
";
