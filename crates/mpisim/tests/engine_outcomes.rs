//! Golden outcomes of the collective engine: every kind × eligible
//! algorithm (and the `Auto` choice) × p ∈ {5, 8, 13}, each fault-free,
//! with one node crashing mid-schedule, and with one link dropped.
//!
//! For every rank a row records the result's bits (or the typed error and
//! the rank it blames) and the final virtual clock's bits; one traced row
//! per kind also pins the whole trace. The constants were taken from the
//! executor they pin, and any executor must reproduce every row: the error
//! surface, the clocks and the trace are functions of the fault plan alone.

use hetsim::{
    ContentionModel, FaultEvent, FaultPlan, Link, NodeId, Protocol, SimTime, Topology,
    TopologyBuilder, TraceEvent,
};
use mpisim::{
    CollectiveAlgo, CollectiveKind, CollectivePolicy, MpiError, ReduceOp, Universe, UniverseConfig,
};
use perfmodel::collective::algos_for;
use std::fmt::Write;

const KINDS: [CollectiveKind; 4] = [
    CollectiveKind::Bcast,
    CollectiveKind::Reduce,
    CollectiveKind::Allreduce,
    CollectiveKind::Allgather,
];

/// The faults a row runs under.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Case {
    Clean,
    /// The middle rank's node crashes at 60 % of the clean makespan.
    Crash,
    /// Link 0 → 1 drops at 30 % of the clean makespan.
    LinkDown,
}

/// Two sites of serialized-NIC nodes with rank-dependent speeds: the
/// contended frontier, the hierarchical plans and the crash deadlines all
/// take part.
fn topology(p: usize, faults: FaultPlan) -> Topology {
    let mut b = TopologyBuilder::new()
        .intra_switch(Link::new(1e-4, 1e7, Protocol::Tcp))
        .inter_site(Link::new(5e-3, 1e6, Protocol::Tcp))
        .contention(ContentionModel::SerializedNic)
        .faults(faults);
    for r in 0..p {
        if r == 0 || r == p.div_ceil(2) {
            b = b.site();
        }
        b = b.node(format!("n{r}"), 40.0 + 15.0 * (r % 4) as f64);
    }
    b.build()
}

fn faults(case: Case, p: usize, clean_makespan: f64) -> FaultPlan {
    let at = |share: f64| SimTime::from_secs(share * clean_makespan);
    match case {
        Case::Clean => FaultPlan::none(),
        Case::Crash => FaultPlan::none().with(FaultEvent::NodeCrash {
            node: NodeId(p / 2),
            at: at(0.6),
        }),
        Case::LinkDown => FaultPlan::none().with(FaultEvent::LinkDrop {
            from: NodeId(0),
            to: NodeId(1),
            at: at(0.3),
        }),
    }
}

/// Rank `r`'s input: `n` elements with rank- and index-dependent bits.
fn input(r: usize, n: usize) -> Vec<f64> {
    (0..n)
        .map(|i| ((r * 31 + i * 7 + 1) as f64) * 1e3f64.powi((i % 3) as i32 - 1))
        .collect()
}

const ROOT: usize = 1;

/// One rank's program: a little rank-dependent work, then the call.
fn program(
    proc: &mpisim::Process,
    kind: CollectiveKind,
    algo: Option<CollectiveAlgo>,
) -> Result<Vec<f64>, MpiError> {
    let world = proc.world();
    let r = world.rank();
    proc.try_compute(10.0 * (r % 3) as f64)?;
    let n = 40;
    match (kind, algo) {
        (CollectiveKind::Bcast, _) => {
            let mut buf = if r == ROOT { input(r, n) } else { vec![0.0; n] };
            match algo {
                Some(a) => world.bcast_into_with(a, &mut buf, ROOT),
                None => world.bcast_into(&mut buf, ROOT),
            }
            .map(|()| buf)
        }
        (CollectiveKind::Reduce, Some(a)) => world
            .reduce_eq_f64_with(a, &input(r, n), ReduceOp::Sum, ROOT)
            .map(Option::unwrap_or_default),
        (CollectiveKind::Reduce, None) => world
            .reduce_eq_f64(&input(r, n), ReduceOp::Sum, ROOT)
            .map(Option::unwrap_or_default),
        (CollectiveKind::Allreduce, Some(a)) => {
            world.allreduce_eq_f64_with(a, &input(r, n), ReduceOp::Max)
        }
        (CollectiveKind::Allreduce, None) => world.allreduce_eq_f64(&input(r, n), ReduceOp::Max),
        (CollectiveKind::Allgather, Some(a)) => world.allgather_eq_with(a, &input(r, 5)),
        (CollectiveKind::Allgather, None) => world.allgather_eq(&input(r, 5)),
    }
}

/// FNV-1a over 64-bit words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x100_0000_01b3);
        }
    }
    fn str(&mut self, s: &str) {
        self.word(s.len() as u64);
        for b in s.bytes() {
            self.word(b as u64);
        }
    }
}

/// The error's variant and the rank it blames.
fn label(r: &Result<Vec<f64>, MpiError>) -> String {
    match r {
        Ok(_) => "ok".into(),
        Err(MpiError::NodeFailed { world_rank }) => format!("N{world_rank}"),
        Err(MpiError::PeerTerminated { world_rank }) => format!("P{world_rank}"),
        Err(MpiError::LinkDown { from, to }) => format!("L{from}-{to}"),
        Err(MpiError::InvalidCounts(_)) => "I".into(),
        Err(MpiError::Timeout) => "T".into(),
        Err(MpiError::Deadlock { .. }) => "D".into(),
        Err(e) => format!("?{e:?}"),
    }
}

fn trace_hash(events: &[TraceEvent]) -> u64 {
    let mut h = Fnv::new();
    for ev in events {
        h.word(ev.rank as u64);
        h.str(&format!("{:?}", ev.kind));
        h.str(ev.name);
        h.word(ev.start.as_secs().to_bits());
        h.word(ev.dur.as_secs().to_bits());
        h.word(ev.wait.as_secs().to_bits());
        h.word(ev.bytes);
        h.str(ev.protocol.unwrap_or("-"));
        h.word(ev.peer.map_or(u64::MAX, |w| w as u64));
        h.word(ev.collective as u64);
        h.str(ev.info.as_deref().unwrap_or("-"));
    }
    h.0
}

/// One row: per-rank labels, a hash of every rank's result and clock
/// bits, the makespan, and the trace's hash when traced.
fn run_row(
    kind: CollectiveKind,
    algo: Option<CollectiveAlgo>,
    p: usize,
    plan: FaultPlan,
    traced: bool,
) -> (String, u64, f64, Option<u64>) {
    let policy = algo.map_or(CollectivePolicy::Auto, CollectivePolicy::Fixed);
    let config = UniverseConfig::new()
        .collective_policy(policy)
        .tracing(traced);
    let u = Universe::from_topology(topology(p, plan), config);
    let report = u.run(|proc| program(proc, kind, algo));
    let mut h = Fnv::new();
    let mut labels = Vec::new();
    for (res, clock) in report.results.iter().zip(&report.rank_times) {
        let l = label(res);
        h.str(&l);
        for x in res.as_deref().unwrap_or(&[]) {
            h.word(x.to_bits());
        }
        h.word(clock.as_secs().to_bits());
        labels.push(l);
    }
    let trace = report.trace.map(|t| trace_hash(&t.events));
    (labels.join(" "), h.0, report.makespan.as_secs(), trace)
}

/// Every row's golden line, in a fixed order.
fn table() -> Vec<String> {
    let mut lines = Vec::new();
    for p in [5, 8, 13] {
        for kind in KINDS {
            let algos = algos_for(kind, p).into_iter().map(Some).chain([None]);
            for (i, algo) in algos.enumerate() {
                let name = algo.map_or("auto", CollectiveAlgo::name);
                let (_, _, clean, _) = run_row(kind, algo, p, FaultPlan::none(), false);
                for case in [Case::Clean, Case::Crash, Case::LinkDown] {
                    // One traced row per kind: the crash at p = 13 under
                    // the kind's second algorithm.
                    let traced = p == 13 && case == Case::Crash && i == 1;
                    let plan = faults(case, p, clean);
                    let (labels, hash, _, trace) = run_row(kind, algo, p, plan, traced);
                    let mut line = format!(
                        "{} {name} p={p} {case:?}: {labels} #{hash:016x}",
                        kind.name()
                    );
                    if let Some(t) = trace {
                        write!(line, " trace#{t:016x}").unwrap();
                    }
                    lines.push(line);
                }
            }
        }
    }
    lines
}

#[test]
fn every_row_reproduces_its_golden_outcome() {
    let got = table();
    let want: Vec<&str> = GOLDEN
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty())
        .collect();
    let differ: Vec<String> = got
        .iter()
        .zip(want.iter().map(|w| Some(*w)).chain(std::iter::repeat(None)))
        .filter(|(g, w)| w.is_none_or(|w| w != g.as_str()))
        .map(|(g, w)| format!("  got  {g}\n  want {}", w.unwrap_or("<none>")))
        .collect();
    assert!(
        differ.is_empty() && got.len() == want.len(),
        "{} of {} rows differ ({} golden):\n{}\nthe whole table:\n{}",
        differ.len(),
        got.len(),
        want.len(),
        differ.join("\n"),
        got.join("\n")
    );
}

/// One line per row: `kind algo p=P case: per-rank outcomes #hash`.
const GOLDEN: &str = "
bcast linear p=5 Clean: ok ok ok ok ok #010f771d6d487602
bcast linear p=5 Crash: ok N2 N2 N2 N2 #1eb01dd8f7ccfd18
bcast linear p=5 LinkDown: ok ok ok ok ok #010f771d6d487602
bcast binomial p=5 Clean: ok ok ok ok ok #901505585e508f47
bcast binomial p=5 Crash: N2 N2 N2 N2 N2 #84b55492f484300f
bcast binomial p=5 LinkDown: ok ok ok ok ok #901505585e508f47
bcast ring p=5 Clean: ok ok ok ok ok #9b5664adbd992dd0
bcast ring p=5 Crash: N2 ok N2 N2 N2 #5207b2818f8595b9
bcast ring p=5 LinkDown: ok ok ok ok ok #9b5664adbd992dd0
bcast scatter-allgather p=5 Clean: ok ok ok ok ok #8d3c6a1e34545b73
bcast scatter-allgather p=5 Crash: N2 N2 N2 N2 N2 #0bd3adc5ac5ba7cc
bcast scatter-allgather p=5 LinkDown: L0-1 N0 N0 N0 N0 #66c75509269d808a
bcast auto p=5 Clean: ok ok ok ok ok #901505585e508f47
bcast auto p=5 Crash: N2 N2 N2 N2 N2 #84b55492f484300f
bcast auto p=5 LinkDown: ok ok ok ok ok #901505585e508f47
reduce linear p=5 Clean: ok ok ok ok ok #96d3a249e30845bb
reduce linear p=5 Crash: ok N2 N2 ok ok #caee34133d56c35e
reduce linear p=5 LinkDown: ok ok ok ok ok #96d3a249e30845bb
reduce binomial p=5 Clean: ok ok ok ok ok #9d3eb2ae86869b60
reduce binomial p=5 Crash: ok N2 N2 ok ok #5c6f6b21d8ae36d0
reduce binomial p=5 LinkDown: ok ok ok ok ok #9d3eb2ae86869b60
reduce auto p=5 Clean: ok ok ok ok ok #9d3eb2ae86869b60
reduce auto p=5 Crash: ok N2 N2 ok ok #5c6f6b21d8ae36d0
reduce auto p=5 LinkDown: ok ok ok ok ok #9d3eb2ae86869b60
allreduce linear p=5 Clean: ok ok ok ok ok #9a8f1733f130c8a7
allreduce linear p=5 Crash: N2 N2 N2 N2 N2 #025c4cfbb7d2689b
allreduce linear p=5 LinkDown: L0-1 N0 N0 N0 N0 #acdab5fca1198a80
allreduce binomial p=5 Clean: ok ok ok ok ok #b6b9122b81331f40
allreduce binomial p=5 Crash: N2 N2 N2 N2 N2 #9e67efd6d64aeedb
allreduce binomial p=5 LinkDown: L0-1 N0 N0 N0 N0 #1fad72d5d452438c
allreduce ring p=5 Clean: ok ok ok ok ok #bfb3b8673f512a13
allreduce ring p=5 Crash: N2 N2 N2 N2 N2 #b8fb16742ab71ae6
allreduce ring p=5 LinkDown: ok ok ok ok ok #bfb3b8673f512a13
allreduce scatter-allgather p=5 Clean: ok ok ok ok ok #606f95ef73e60ae2
allreduce scatter-allgather p=5 Crash: N2 N2 N2 N2 N2 #43c19e89611018fc
allreduce scatter-allgather p=5 LinkDown: L0-1 N0 N0 N0 N0 #700f6a1bb94c7b10
allreduce auto p=5 Clean: ok ok ok ok ok #b5849563d2b81dac
allreduce auto p=5 Crash: N2 N2 N2 N2 N2 #cec53675aa51472e
allreduce auto p=5 LinkDown: L0-1 N0 N0 ok ok #d47413c8700a3d90
allgather linear p=5 Clean: ok ok ok ok ok #e48bfebe2c92e02a
allgather linear p=5 Crash: N2 N2 N2 N2 N2 #4cb434342c189e8f
allgather linear p=5 LinkDown: ok ok ok ok ok #e48bfebe2c92e02a
allgather ring p=5 Clean: ok ok ok ok ok #f2d67366e750eba7
allgather ring p=5 Crash: N2 N2 N2 N2 N2 #b1311b5ec225ead7
allgather ring p=5 LinkDown: L0-1 N0 N0 N0 ok #bfdc5c42f12e85bf
allgather auto p=5 Clean: ok ok ok ok ok #09e9976cf9ee4262
allgather auto p=5 Crash: N2 N2 N2 N2 N2 #3b5c7d2c01d1f1eb
allgather auto p=5 LinkDown: L0-1 N0 N0 ok ok #ec994b7b0253c38d
bcast linear p=8 Clean: ok ok ok ok ok ok ok ok #f6241cdb6694b12c
bcast linear p=8 Crash: ok ok ok ok N4 ok ok ok #ad5e797dfaca1e99
bcast linear p=8 LinkDown: ok ok ok ok ok ok ok ok #f6241cdb6694b12c
bcast binomial p=8 Clean: ok ok ok ok ok ok ok ok #f1e2f1f08fcfc130
bcast binomial p=8 Crash: N4 ok N4 ok N4 ok N4 ok #c75d45f9fc28d237
bcast binomial p=8 LinkDown: ok ok ok ok ok ok ok ok #f1e2f1f08fcfc130
bcast ring p=8 Clean: ok ok ok ok ok ok ok ok #843cbff549404db3
bcast ring p=8 Crash: N4 ok ok N4 N4 N4 N4 N4 #07f255e22d416224
bcast ring p=8 LinkDown: ok ok ok ok ok ok ok ok #843cbff549404db3
bcast scatter-allgather p=8 Clean: ok ok ok ok ok ok ok ok #a7d93f1831c0403b
bcast scatter-allgather p=8 Crash: N4 N4 N4 N4 N4 N4 N4 N4 #8b46047125ee17e6
bcast scatter-allgather p=8 LinkDown: L0-1 N0 N0 N0 N0 N0 N0 N0 #6d9cb90ac9a92332
bcast auto p=8 Clean: ok ok ok ok ok ok ok ok #14de9f712d8ad356
bcast auto p=8 Crash: ok ok ok ok N4 N4 N4 N4 #3ac458a43f97c19d
bcast auto p=8 LinkDown: ok ok ok ok ok ok ok ok #14de9f712d8ad356
reduce linear p=8 Clean: ok ok ok ok ok ok ok ok #0411033931c607a7
reduce linear p=8 Crash: ok N4 ok ok N4 ok ok ok #37cb6920e4b1c290
reduce linear p=8 LinkDown: ok ok ok ok ok ok ok ok #0411033931c607a7
reduce binomial p=8 Clean: ok ok ok ok ok ok ok ok #04a30e94e02b4ea8
reduce binomial p=8 Crash: ok N4 ok N4 N4 ok ok ok #e1f3447437b5831e
reduce binomial p=8 LinkDown: ok ok ok ok ok ok ok ok #04a30e94e02b4ea8
reduce auto p=8 Clean: ok ok ok ok ok ok ok ok #eb7d9109ddaefa88
reduce auto p=8 Crash: ok N4 ok ok N4 N4 ok ok #510e3ef460fb8f26
reduce auto p=8 LinkDown: ok ok ok ok ok ok ok ok #eb7d9109ddaefa88
allreduce linear p=8 Clean: ok ok ok ok ok ok ok ok #6159f06d32255fc7
allreduce linear p=8 Crash: N4 N4 N4 N4 N4 N4 N4 N4 #649fd1cf782c3460
allreduce linear p=8 LinkDown: L0-1 N0 N0 N0 N0 N0 N0 N0 #ce106b4228ebe43c
allreduce binomial p=8 Clean: ok ok ok ok ok ok ok ok #b6c6c23d098c86d4
allreduce binomial p=8 Crash: N4 N4 N4 N4 N4 N4 N4 N4 #09c83993974fc17b
allreduce binomial p=8 LinkDown: L0-1 N0 N0 N0 N0 N0 N0 N0 #4eb84c9eabf3ced8
allreduce ring p=8 Clean: ok ok ok ok ok ok ok ok #374bf91bad32c0d9
allreduce ring p=8 Crash: N4 N4 N4 N4 N4 N4 N4 N4 #d253c7359fd4c062
allreduce ring p=8 LinkDown: ok ok ok ok ok ok ok ok #374bf91bad32c0d9
allreduce recursive-doubling p=8 Clean: ok ok ok ok ok ok ok ok #4aa968f6551cab5f
allreduce recursive-doubling p=8 Crash: N4 N4 N4 N4 N4 N4 N4 N4 #ee238b1de3b14a2d
allreduce recursive-doubling p=8 LinkDown: ok ok ok ok ok ok ok ok #4aa968f6551cab5f
allreduce scatter-allgather p=8 Clean: ok ok ok ok ok ok ok ok #80f5f341ae9776a5
allreduce scatter-allgather p=8 Crash: N4 N4 N4 N4 N4 N4 N4 N4 #1e483a60975194b5
allreduce scatter-allgather p=8 LinkDown: L0-1 N0 N0 N0 N0 N0 N0 N0 #a7cacbc68cccd0f3
allreduce auto p=8 Clean: ok ok ok ok ok ok ok ok #b6c6c23d098c86d4
allreduce auto p=8 Crash: N4 N4 N4 N4 N4 N4 N4 N4 #09c83993974fc17b
allreduce auto p=8 LinkDown: L0-1 N0 N0 N0 N0 N0 N0 N0 #4eb84c9eabf3ced8
allgather linear p=8 Clean: ok ok ok ok ok ok ok ok #1faea10a42e0f4ef
allgather linear p=8 Crash: N4 N4 N4 N4 N4 N4 N4 N4 #8b46047125ee17e6
allgather linear p=8 LinkDown: ok ok ok ok ok ok ok ok #1faea10a42e0f4ef
allgather ring p=8 Clean: ok ok ok ok ok ok ok ok #19aea2272b85e98b
allgather ring p=8 Crash: N4 N4 N4 N4 N4 N4 N4 N4 #4128aab9f34cdadd
allgather ring p=8 LinkDown: L0-1 N0 N0 N0 N0 N0 N0 ok #47bc23fe76225c4d
allgather recursive-doubling p=8 Clean: ok ok ok ok ok ok ok ok #91ca23a5bf1eab8c
allgather recursive-doubling p=8 Crash: N4 N4 N4 N4 N4 N4 N4 N4 #16c3dde3a4fa1f05
allgather recursive-doubling p=8 LinkDown: ok ok ok ok ok ok ok ok #91ca23a5bf1eab8c
allgather auto p=8 Clean: ok ok ok ok ok ok ok ok #91ca23a5bf1eab8c
allgather auto p=8 Crash: N4 N4 N4 N4 N4 N4 N4 N4 #16c3dde3a4fa1f05
allgather auto p=8 LinkDown: ok ok ok ok ok ok ok ok #91ca23a5bf1eab8c
bcast linear p=13 Clean: ok ok ok ok ok ok ok ok ok ok ok ok ok #5fa420a493fd162d
bcast linear p=13 Crash: ok ok ok ok ok ok ok ok ok ok ok ok ok #5fa420a493fd162d
bcast linear p=13 LinkDown: ok ok ok ok ok ok ok ok ok ok ok ok ok #5fa420a493fd162d
bcast binomial p=13 Clean: ok ok ok ok ok ok ok ok ok ok ok ok ok #4bfc3ebc8b841d81
bcast binomial p=13 Crash: ok ok ok ok ok ok ok ok ok ok ok ok ok #4bfc3ebc8b841d81 trace#3792288829d64b4d
bcast binomial p=13 LinkDown: ok ok ok ok ok ok ok ok ok ok ok ok ok #4bfc3ebc8b841d81
bcast ring p=13 Clean: ok ok ok ok ok ok ok ok ok ok ok ok ok #f96d6c5798dca18e
bcast ring p=13 Crash: N5 ok ok ok ok N6 N5 N5 N5 N5 N5 N5 N5 #ac667832b8fa58b6
bcast ring p=13 LinkDown: ok ok ok ok ok ok ok ok ok ok ok ok ok #f96d6c5798dca18e
bcast scatter-allgather p=13 Clean: ok ok ok ok ok ok ok ok ok ok ok ok ok #ec0327c1519463b9
bcast scatter-allgather p=13 Crash: ok ok ok ok ok N6 N5 N6 N6 N6 N6 N6 N6 #13413984db17b9a9
bcast scatter-allgather p=13 LinkDown: L0-1 N0 N0 N0 N0 N0 N0 N0 N0 N0 N0 N0 N0 #b67a0bc57bde0d97
bcast auto p=13 Clean: ok ok ok ok ok ok ok ok ok ok ok ok ok #ab73d1988ad6741c
bcast auto p=13 Crash: ok ok ok ok ok ok ok ok ok ok ok ok ok #ab73d1988ad6741c
bcast auto p=13 LinkDown: ok ok ok ok ok ok ok ok ok ok ok ok ok #ab73d1988ad6741c
reduce linear p=13 Clean: ok ok ok ok ok ok ok ok ok ok ok ok ok #dc7d0cbcfeb6cb45
reduce linear p=13 Crash: ok ok ok ok ok ok ok ok ok ok ok ok ok #dc7d0cbcfeb6cb45
reduce linear p=13 LinkDown: ok ok ok ok ok ok ok ok ok ok ok ok ok #dc7d0cbcfeb6cb45
reduce binomial p=13 Clean: ok ok ok ok ok ok ok ok ok ok ok ok ok #e8ae0042c9e6f664
reduce binomial p=13 Crash: ok ok ok ok ok ok ok ok ok ok ok ok ok #e8ae0042c9e6f664 trace#82043b56726f41a0
reduce binomial p=13 LinkDown: ok ok ok ok ok ok ok ok ok ok ok ok ok #e8ae0042c9e6f664
reduce auto p=13 Clean: ok ok ok ok ok ok ok ok ok ok ok ok ok #30aefb48bb2d2d37
reduce auto p=13 Crash: ok ok ok ok ok ok ok ok ok ok ok ok ok #30aefb48bb2d2d37
reduce auto p=13 LinkDown: ok ok ok ok ok ok ok ok ok ok ok ok ok #30aefb48bb2d2d37
allreduce linear p=13 Clean: ok ok ok ok ok ok ok ok ok ok ok ok ok #94f3f05812d89780
allreduce linear p=13 Crash: N6 ok ok ok ok ok N0 N6 N6 N6 N6 N6 N6 #0a5ad81a7f958e3e
allreduce linear p=13 LinkDown: L0-1 N0 N0 N0 N0 N0 N0 N0 N0 N0 N0 N0 N0 #2f4ad7150fc5eaae
allreduce binomial p=13 Clean: ok ok ok ok ok ok ok ok ok ok ok ok ok #aed516dc033c2f77
allreduce binomial p=13 Crash: ok ok N6 ok ok ok N2 ok ok ok N6 ok ok #967b7015c94ec661 trace#ee7fdc3e7b37d951
allreduce binomial p=13 LinkDown: L0-1 N0 N0 N0 N0 N0 N0 N0 N0 N0 N0 N0 N0 #6f8d7b498e5f8f19
allreduce ring p=13 Clean: ok ok ok ok ok ok ok ok ok ok ok ok ok #a2a50569a4443d68
allreduce ring p=13 Crash: N6 N6 N6 N6 N6 N6 N5 N5 N5 N5 N5 N5 N5 #2867df78bd3a7bc7
allreduce ring p=13 LinkDown: ok ok ok ok ok ok ok ok ok ok ok ok ok #a2a50569a4443d68
allreduce scatter-allgather p=13 Clean: ok ok ok ok ok ok ok ok ok ok ok ok ok #2b80d00c0880967e
allreduce scatter-allgather p=13 Crash: N6 N6 N6 N6 N6 N6 N8 N6 N6 N6 N6 N6 N6 #31f54f415236dac4
allreduce scatter-allgather p=13 LinkDown: L0-1 N0 N0 N0 N0 N0 N0 N0 N0 N0 N0 N0 N0 #7d6056f6a27924a9
allreduce auto p=13 Clean: ok ok ok ok ok ok ok ok ok ok ok ok ok #65346c226bb5812b
allreduce auto p=13 Crash: ok ok N6 ok ok ok N2 ok ok ok ok ok ok #466c41dc1dec0580
allreduce auto p=13 LinkDown: L0-1 N0 N0 N0 N0 N0 N0 ok ok ok ok ok ok #4770dd4506aa5add
allgather linear p=13 Clean: ok ok ok ok ok ok ok ok ok ok ok ok ok #f716331e4887b53a
allgather linear p=13 Crash: ok ok ok ok ok N6 N5 N6 N6 N6 N6 N6 N6 #6d28a1bee3f5a1e6
allgather linear p=13 LinkDown: ok ok ok ok ok ok ok ok ok ok ok ok ok #f716331e4887b53a
allgather ring p=13 Clean: ok ok ok ok ok ok ok ok ok ok ok ok ok #9d6371be1a5cd1ff
allgather ring p=13 Crash: N5 N5 N5 N5 N5 N6 N5 N5 N5 N5 N5 N5 N5 #c0243de66f28c811 trace#b92340982b06cc80
allgather ring p=13 LinkDown: L0-1 N0 N0 N0 N0 N0 N0 N0 N0 N0 N0 ok ok #f9eebfba5277b0b9
allgather auto p=13 Clean: ok ok ok ok ok ok ok ok ok ok ok ok ok #b2032f933ae3fbe6
allgather auto p=13 Crash: ok ok N6 ok ok ok N2 ok ok ok ok ok ok #8cb4b85f0be5da17
allgather auto p=13 LinkDown: L0-1 N0 N0 N0 N0 N0 N0 ok ok ok ok ok ok #100215066861c15c
";
