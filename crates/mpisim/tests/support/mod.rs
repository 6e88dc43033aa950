//! What the golden outcome tables share: the seeded testbeds, the fault
//! plans they crash, and the FNV-1a hashes their rows print.

use hetsim::{
    ContentionModel, FaultEvent, FaultPlan, Link, NodeId, Protocol, SimTime, Topology,
    TopologyBuilder, TraceEvent,
};
use mpisim::MpiError;
use rand::{rngs::StdRng, Rng, SeedableRng};

pub const MODELS: [ContentionModel; 3] = [
    ContentionModel::ParallelLinks,
    ContentionModel::SerializedNic,
    ContentionModel::SharedBus,
];

/// Testbed `seed`: its contention model is `MODELS[seed % 3]`, its shape
/// `seed / 3 % 4` — flat, sites, multi-rank nodes on a memory bus, or both
/// — and its node count, speeds, links and ranks per node are drawn from
/// the seed (the fault plan draws nothing).
pub fn testbed(seed: u64, faults: FaultPlan) -> Topology {
    let mut rng = StdRng::seed_from_u64(seed);
    let shape = seed / 3 % 4;
    let (sites, shared) = (shape % 2 == 1, shape >= 2);
    let mut link = |scale: f64| {
        let lat = scale * 1e-5 * 10f64.powf(rng.random_range(0.0..2.0));
        let bw = 1e7 / scale * 10f64.powf(rng.random_range(0.0..2.0));
        Link::new(lat, bw, Protocol::Tcp)
    };
    let mut b = TopologyBuilder::new()
        .intra_switch(link(1.0))
        .inter_site(link(30.0))
        .contention(MODELS[seed as usize % 3])
        .faults(faults);
    if shared {
        b = b.mem_bus(link(0.1));
    }
    let nodes = rng.random_range(2..7);
    for i in 0..nodes {
        if sites && (i == 0 || rng.random_range(0..3) == 0) {
            b = b.site();
        }
        b = b.node(format!("n{i}"), rng.random_range(20.0..200.0));
        if shared {
            b = b.ranks(rng.random_range(1..4));
        }
    }
    b.build()
}

/// A fault plan that crashes `node` at `at`.
pub fn crash(node: NodeId, at: SimTime) -> FaultPlan {
    FaultPlan::none().with(FaultEvent::NodeCrash { node, at })
}

/// FNV-1a over 64-bit words.
pub struct Fnv(pub u64);

impl Fnv {
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x100_0000_01b3);
        }
    }
    pub fn str(&mut self, s: &str) {
        self.word(s.len() as u64);
        for b in s.bytes() {
            self.word(b as u64);
        }
    }
}

pub fn trace_hash(events: &[TraceEvent]) -> u64 {
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

/// An error's variant and the rank it blames: `N5`, `P0`, `T`, `D`.
pub fn error_label(e: &MpiError) -> String {
    match e {
        MpiError::NodeFailed { world_rank } => format!("N{world_rank}"),
        MpiError::PeerTerminated { world_rank } => format!("P{world_rank}"),
        MpiError::Timeout => "T".into(),
        MpiError::Deadlock { .. } => "D".into(),
        e => format!("?{e:?}"),
    }
}

/// The rows of a table that differ from its golden text, as an assertion
/// message with the whole table; `None` when every row matches.
pub fn diff_golden(got: &[String], golden: &str) -> Option<String> {
    let want: Vec<&str> = golden
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty())
        .collect();
    let differ: Vec<String> = got
        .iter()
        .zip(want.iter().map(|w| Some(*w)).chain(std::iter::repeat(None)))
        .filter(|(g, w)| w.is_none_or(|w| w != g.trim()))
        .map(|(g, w)| format!("  got  {g}\n  want {}", w.unwrap_or("<none>")))
        .collect();
    (!differ.is_empty() || got.len() != want.len()).then(|| {
        format!(
            "{} of {} rows differ ({} golden):\n{}\nthe whole table:\n{}",
            differ.len(),
            got.len(),
            want.len(),
            differ.join("\n"),
            got.join("\n")
        )
    })
}
