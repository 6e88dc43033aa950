//! What a schedule puts on the wire, and what it means.
//!
//! * **Wire shape is pinned.** [`price`](perfmodel::price) and
//!   [`fault_impact`](perfmodel::collective::fault_impact) read only a
//!   transfer's endpoints and size, so an FNV-1a hash over every schedule's
//!   `(src, dst, first element, size)` sequence — recorded before transfers
//!   learned to say what they carry — proves that no predicted second and no
//!   poison edge can have moved since.
//! * **Meaning is replayed.** The executor moves only a transfer's size
//!   and hands every output rank the finished result once its program has
//!   run, which is sound only if the schedule really brings that rank
//!   everything: a symbolic replay of the [`Payload`] annotations checks
//!   every schedule end to end — no transfer carries something its sender
//!   does not hold, and every output rank ends with every element folded
//!   over each origin exactly once, in ascending rank order.

use perfmodel::collective::{
    algos_for, chunk_bounds, schedule, CollectiveAlgo, CollectiveKind, LinkSharing, Payload, Xfer,
};
use perfmodel::{hier_plan, PairCost, RankTopology};

const KINDS: [CollectiveKind; 4] = [
    CollectiveKind::Bcast,
    CollectiveKind::Reduce,
    CollectiveKind::Allreduce,
    CollectiveKind::Allgather,
];
const SHARINGS: [LinkSharing; 3] = [
    LinkSharing::Parallel,
    LinkSharing::PerEndpoint,
    LinkSharing::Shared,
];

fn sizes(p: usize) -> [usize; 4] {
    [0, 1, p - 1, 4 * p + 3]
}

/// Sites of four ranks, switches of two, one rank per node; per-level
/// latencies `[switch, site, wan]`.
struct Sites {
    lat: [f64; 3],
}

/// The two- and the three-site testbed.
const TESTBEDS: [(usize, Sites); 2] = [
    (
        8,
        Sites {
            lat: [1e-4, 1e-4, 0.1],
        },
    ),
    (
        12,
        Sites {
            lat: [1e-5, 1e-4, 0.05],
        },
    ),
];

impl Sites {
    fn topo(p: usize) -> RankTopology {
        RankTopology::new(
            (0..p).map(|r| r / 4).collect(),
            (0..p).map(|r| r / 2).collect(),
            (0..p).collect(),
        )
    }
}

impl PairCost for Sites {
    fn speed(&self, _p: usize) -> f64 {
        1.0
    }
    fn latency(&self, s: usize, d: usize) -> f64 {
        if s / 2 == d / 2 {
            self.lat[0]
        } else if s / 4 == d / 4 {
            self.lat[1]
        } else {
            self.lat[2]
        }
    }
    fn bandwidth(&self, _s: usize, _d: usize) -> f64 {
        1e7
    }
}

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    fn word(&mut self, w: usize) {
        for b in (w as u64).to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    fn rounds(&mut self, rounds: Option<&[Vec<Xfer>]>) {
        let Some(rounds) = rounds else {
            return self.word(usize::MAX - 1);
        };
        for round in rounds {
            self.word(usize::MAX);
            for x in round {
                for w in [x.src, x.dst, x.lo, x.lo + x.elems()] {
                    self.word(w);
                }
            }
        }
    }
}

/// Recorded at commit ab4f0da, where `lo + elems()` was the plain `hi`.
const FLAT_PINS: [(&str, &str, u64); 14] = [
    ("bcast", "linear", 0x97a59d96b2a71a3f),
    ("bcast", "binomial", 0x2877020494dd1285),
    ("bcast", "ring", 0x336780ec9a981f75),
    ("bcast", "scatter-allgather", 0x2002d11433ee27e3),
    ("reduce", "linear", 0x787f804386a5eb7f),
    ("reduce", "binomial", 0xf30e653e9ef5855f),
    ("allreduce", "linear", 0x4c5274d47e880805),
    ("allreduce", "binomial", 0x8c7146ea98949795),
    ("allreduce", "ring", 0x20d4aba1f31f3565),
    ("allreduce", "recursive-doubling", 0x7642b01b840c58a5),
    ("allreduce", "scatter-allgather", 0x0fad5cda61997c45),
    ("allgather", "linear", 0x2d1c549fb0cf0be5),
    ("allgather", "ring", 0x879481688d086a25),
    ("allgather", "recursive-doubling", 0x9d3a06ed9c878de5),
];

/// Recorded at commit ab4f0da over `HierPlan::xfer_rounds`.
const HIER_PINS: [(usize, &str, u64); 8] = [
    (8, "bcast", 0xf3c11233b632af07),
    (8, "reduce", 0x8352e836ad20cd27),
    (8, "allreduce", 0x83ddfd23eaa48555),
    (8, "allgather", 0xc6fd8a7204617365),
    (12, "bcast", 0xa6a4263bc11baf1c),
    (12, "reduce", 0x8ff38c585b1ab41c),
    (12, "allreduce", 0xe9e9ec287ac71745),
    (12, "allgather", 0x549eb50ba5ce8135),
];

#[test]
fn flat_schedules_put_the_recorded_transfers_on_the_wire() {
    let mut seen = Vec::new();
    for kind in KINDS {
        for algo in CollectiveAlgo::ALL {
            let mut h = Fnv::new();
            let mut any = false;
            for p in [2usize, 3, 8, 9, 16] {
                if !algos_for(kind, p).contains(&algo) {
                    continue;
                }
                any = true;
                for root in [0, p - 1] {
                    for n in sizes(p) {
                        h.word(p);
                        h.rounds(schedule(kind, algo, p, root, n).as_deref());
                    }
                }
            }
            if any {
                seen.push((kind.name(), algo.name(), h.0));
            }
        }
    }
    assert_eq!(seen, FLAT_PINS);
}

#[test]
fn hierarchical_plans_put_the_recorded_transfers_on_the_wire() {
    let mut seen = Vec::new();
    for (p, cost) in &TESTBEDS {
        let (p, topo) = (*p, Sites::topo(*p));
        for kind in KINDS {
            let mut h = Fnv::new();
            for sharing in SHARINGS {
                for root in [0, p - 1] {
                    for n in sizes(p) {
                        let plan = hier_plan(kind, p, root, n, 8.0, &topo, cost, sharing);
                        h.rounds(plan.as_ref().map(|plan| &plan.rounds[..]));
                    }
                }
            }
            seen.push((p, kind.name(), h.0));
        }
    }
    assert_eq!(seen, HIER_PINS);
}

/// A flat schedule's origin order: rank order.
fn rank_order(p: usize) -> Vec<usize> {
    (0..p).collect()
}

/// Hashes every transfer's origin set, ascending (empty for a finished
/// slice or a prefix), round by round.
fn origin_sets(h: &mut Fnv, rounds: &[Vec<Xfer>], order: &[usize]) {
    for round in rounds {
        h.word(usize::MAX);
        for x in round {
            let mut set: Vec<usize> = x.origins(order).collect();
            set.sort_unstable();
            h.word(set.len());
            set.into_iter().for_each(|o| h.word(o));
        }
    }
}

/// Origin-set digests, recorded over the origin lists before they became
/// ranges of an origin order.
const FLAT_ORIGIN_PINS: [(&str, &str, u64); 14] = [
    ("bcast", "linear", 0xfd24fb33ead78c85),
    ("bcast", "binomial", 0x333b36abe9f66e13),
    ("bcast", "ring", 0x533ac919c118c6a3),
    ("bcast", "scatter-allgather", 0xe92185579a3085a3),
    ("reduce", "linear", 0xeac15f4fdd2ef605),
    ("reduce", "binomial", 0x6fc8cf7f5952c832),
    ("allreduce", "linear", 0x5bf48d63795fdea5),
    ("allreduce", "binomial", 0x95d969e71f6ab4c2),
    ("allreduce", "ring", 0x402b0f05600621c3),
    ("allreduce", "recursive-doubling", 0x761c38be187be8e5),
    ("allreduce", "scatter-allgather", 0x1a4528b3b6dfc1a3),
    ("allgather", "linear", 0x5db645c8e26a3645),
    ("allgather", "ring", 0x40005eacf8af93c3),
    ("allgather", "recursive-doubling", 0x2d3dd2497af7af85),
];

/// See [`FLAT_ORIGIN_PINS`].
const HIER_ORIGIN_PINS: [(usize, &str, u64); 8] = [
    (8, "bcast", 0x57b7daccc6156625),
    (8, "reduce", 0xe395f227d8753ba5),
    (8, "allreduce", 0x86609219e1891565),
    (8, "allgather", 0xe1b7acc097c53025),
    (12, "bcast", 0x73f04bd2f147d2e5),
    (12, "reduce", 0x315b4edf3d1275e5),
    (12, "allreduce", 0xe7a9f35ae6807aa5),
    (12, "allgather", 0x1888bd99fa865ea5),
];

#[test]
fn flat_schedules_carry_the_recorded_origins() {
    let mut seen = Vec::new();
    for kind in KINDS {
        for algo in CollectiveAlgo::ALL {
            let mut h = Fnv::new();
            let mut any = false;
            for p in 1..=40 {
                if !algos_for(kind, p).contains(&algo) {
                    continue;
                }
                any = true;
                let order = rank_order(p);
                for root in 0..p {
                    for n in sizes(p) {
                        let rounds = schedule(kind, algo, p, root, n).expect("eligible");
                        [p, root, n].into_iter().for_each(|w| h.word(w));
                        origin_sets(&mut h, &rounds, &order);
                    }
                }
            }
            if any {
                seen.push((kind.name(), algo.name(), h.0));
            }
        }
    }
    assert_eq!(seen, FLAT_ORIGIN_PINS);
}

#[test]
fn hierarchical_plans_carry_the_recorded_origins() {
    let mut seen = Vec::new();
    for (p, cost) in &TESTBEDS {
        let (p, topo) = (*p, Sites::topo(*p));
        for kind in KINDS {
            let mut h = Fnv::new();
            for sharing in SHARINGS {
                for root in 0..p {
                    for n in sizes(p) {
                        [root, n].into_iter().for_each(|w| h.word(w));
                        match hier_plan(kind, p, root, n, 8.0, &topo, cost, sharing) {
                            Some(plan) => origin_sets(&mut h, &plan.rounds, &plan.order),
                            None => h.word(usize::MAX - 1),
                        }
                    }
                }
            }
            seen.push((p, kind.name(), h.0));
        }
    }
    assert_eq!(seen, HIER_ORIGIN_PINS);
}

#[test]
fn every_flat_origin_list_is_one_run_of_ranks_modulo_p() {
    for kind in KINDS {
        for p in 1..=40 {
            let order = rank_order(p);
            for algo in algos_for(kind, p) {
                for root in 0..p {
                    for n in sizes(p) {
                        let rounds = schedule(kind, algo, p, root, n).expect("eligible");
                        for x in rounds.iter().flatten() {
                            let origins: Vec<usize> = x.origins(&order).collect();
                            let Some(&first) = origins.first() else {
                                continue;
                            };
                            let run: Vec<usize> =
                                (first..first + origins.len()).map(|o| o % p).collect();
                            assert_eq!(
                                origins,
                                run,
                                "{} {} p={p} root={root} n={n}: {}->{}",
                                kind.name(),
                                algo.name(),
                                x.src,
                                x.dst
                            );
                        }
                    }
                }
            }
        }
    }
}

/// A symbolic value: the origins folded into it, in fold order.
type Folded = Vec<usize>;

/// What one rank holds, by the annotations' rules.
struct Held {
    /// Raw contributions: `raw[origin]` = the range held of it.
    raw: Vec<Option<(usize, usize)>>,
    /// Per element, the ascending-prefix partial fold passing through.
    prefix: Vec<Option<Folded>>,
    /// Per element, the finished value.
    done: Vec<Option<Folded>>,
}

impl Held {
    /// Files raw contributions of `origins` over `[lo, hi)`; the moment all
    /// `p` origins are present the range is folded in ascending rank order.
    fn hold(&mut self, origins: &[usize], lo: usize, hi: usize, who: &str) {
        for &o in origins {
            assert!(self.raw[o].is_none(), "{who}: origin {o} arrives twice");
            self.raw[o] = Some((lo, hi));
        }
        if self.raw.iter().all(Option::is_some) {
            for (o, held) in self.raw.iter().enumerate() {
                let (l, h) = held.expect("all present");
                assert!(
                    l <= lo && hi <= h,
                    "{who}: origin {o} held over [{l}, {h}) only"
                );
            }
            for i in lo..hi {
                self.done[i] = Some((0..self.raw.len()).collect());
            }
        }
    }
}

/// What a transfer moves, read off its sender.
enum Carried {
    Finished(Vec<Folded>),
    Raw(Vec<usize>),
    Partial(Vec<Folded>),
}

/// Replays `rounds` by the annotations' rules — per round every send reads its
/// sender's holdings as the round begins, then the receives land in schedule
/// order — and checks that every output rank (the root of a reduce, everyone
/// otherwise) ends with each of the `n` elements finished: folded over all
/// `p` origins ascending, or, for a movement kind, received from a rank that
/// started with it.
/// Raw origins are read through `order`, the schedule's origin order.
fn replay(
    kind: CollectiveKind,
    p: usize,
    root: usize,
    n: usize,
    (rounds, order): (&[Vec<Xfer>], &[usize]),
    tag: &str,
) {
    let reduces = matches!(kind, CollectiveKind::Reduce | CollectiveKind::Allreduce);
    let everything: Folded = (0..p).collect();
    let mut ranks: Vec<Held> = (0..p)
        .map(|r| {
            let mut h = Held {
                raw: vec![None; p],
                prefix: vec![None; n],
                done: vec![None; n],
            };
            let (lo, hi) = match kind {
                CollectiveKind::Bcast if r == root => (0, n),
                CollectiveKind::Allgather => chunk_bounds(n, p, r),
                _ => (0, 0),
            };
            h.done[lo..hi].fill(Some(everything.clone()));
            if reduces && n > 0 {
                h.hold(&[r], 0, n, tag);
            }
            h
        })
        .collect();
    for (k, round) in rounds.iter().enumerate() {
        let carried: Vec<Carried> = round
            .iter()
            .map(|x| {
                let who = format!("{tag} round {k} {}->{} [{}, {})", x.src, x.dst, x.lo, x.hi);
                assert!(
                    x.src != x.dst && x.lo < x.hi && x.hi <= n,
                    "{who}: malformed"
                );
                let from = &ranks[x.src];
                match &x.carries {
                    Payload::Slice => Carried::Finished(
                        (x.lo..x.hi)
                            .map(|i| {
                                from.done[i]
                                    .clone()
                                    .unwrap_or_else(|| panic!("{who}: element {i} unfinished"))
                            })
                            .collect(),
                    ),
                    Payload::Raw(_) => {
                        let origins: Vec<usize> = x.origins(order).collect();
                        assert!(reduces && !origins.is_empty(), "{who}: raw payload");
                        for &o in &origins {
                            let held =
                                from.raw[o].unwrap_or_else(|| panic!("{who}: origin {o} not held"));
                            assert!(
                                held.0 <= x.lo && x.hi <= held.1,
                                "{who}: origin {o} held over {held:?}"
                            );
                        }
                        Carried::Raw(origins)
                    }
                    Payload::Prefix => {
                        assert!(
                            reduces && x.dst == x.src + 1,
                            "{who}: prefixes ascend the chain"
                        );
                        Carried::Partial(
                            (x.lo..x.hi)
                                .map(|i| match x.src {
                                    0 => vec![0],
                                    _ => from.prefix[i]
                                        .clone()
                                        .unwrap_or_else(|| panic!("{who}: no partial for {i}")),
                                })
                                .collect(),
                        )
                    }
                }
            })
            .collect();
        for (x, carried) in round.iter().zip(carried) {
            let to = &mut ranks[x.dst];
            match carried {
                Carried::Finished(values) => {
                    for (i, v) in (x.lo..x.hi).zip(values) {
                        to.done[i] = Some(v);
                    }
                }
                Carried::Raw(origins) => to.hold(&origins, x.lo, x.hi, tag),
                Carried::Partial(values) => {
                    for (i, mut v) in (x.lo..x.hi).zip(values) {
                        v.push(x.dst);
                        if x.dst == p - 1 {
                            to.done[i] = Some(v);
                        } else {
                            to.prefix[i] = Some(v);
                        }
                    }
                }
            }
        }
    }
    for (r, h) in ranks.iter().enumerate() {
        if kind == CollectiveKind::Reduce && r != root {
            continue;
        }
        for (i, v) in h.done.iter().enumerate() {
            assert_eq!(v.as_ref(), Some(&everything), "{tag}: rank {r} element {i}");
        }
    }
}

#[test]
fn every_flat_schedule_means_the_ascending_fold() {
    for kind in KINDS {
        for p in [1usize, 2, 3, 5, 8, 9, 16] {
            for algo in algos_for(kind, p) {
                for root in [0, p - 1, p / 2] {
                    for n in [0, 1, p.saturating_sub(1), 7, 4 * p + 3] {
                        let rounds = schedule(kind, algo, p, root, n).unwrap();
                        let tag =
                            format!("{} {} p={p} root={root} n={n}", kind.name(), algo.name());
                        replay(kind, p, root, n, (&rounds, &rank_order(p)), &tag);
                    }
                }
            }
        }
    }
}

#[test]
fn every_hierarchical_plan_means_the_ascending_fold() {
    let mut planned = 0;
    for (p, cost) in &TESTBEDS {
        let (p, topo) = (*p, Sites::topo(*p));
        for kind in KINDS {
            for sharing in SHARINGS {
                for root in [0, p - 1, 5] {
                    for n in [1, p - 1, 4 * p + 3] {
                        let Some(plan) = hier_plan(kind, p, root, n, 8.0, &topo, cost, sharing)
                        else {
                            continue;
                        };
                        planned += 1;
                        let tag =
                            format!("hier {} p={p} root={root} n={n} {sharing:?}", kind.name());
                        replay(kind, p, root, n, (&plan.rounds, &plan.order), &tag);
                    }
                }
            }
        }
    }
    assert_eq!(
        planned,
        2 * 4 * 3 * 3 * 3,
        "every testbed call plans hierarchically"
    );
}
