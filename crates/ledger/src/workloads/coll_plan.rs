//! `coll_plan`: collectives whose *planning* is the cost. One op is one
//! collective call on 4 sites × 32 ranks over serialized NICs under
//! `CollectivePolicy::Auto`, timed on rank 0; a single `Universe::run`
//! issues every call, cycling {bcast, reduce, allreduce, allgather} ×
//! {16, 1 Ki, 32 Ki} f64 elements × rotating roots in a seed-shuffled
//! order.
//!
//! Under `Auto` every rank rebuilds the pair table and prices every
//! eligible flat schedule plus the hierarchical plan on every call, so
//! `perfmodel::collective`, `perfmodel::hier` and `Cluster::pair_table` are
//! nearly all of the host time and the transport a few percent. The same
//! call list under `FlatAuto` and with pinned algorithms ([`Policy`]) is
//! the differential that isolates planning.
//!
//! Before each call every rank's clock is set to one common instant, so
//! the call's virtual makespan (max clock after − that instant, taken with
//! a pinned-algorithm allreduce that does no planning) is the quantity
//! `predict_collective` prices from a synchronised start.

use super::{ms_since, per_call_us, scaled, spawn_join_ms, Outcome, Side, SplitMix64, Workload};
use crate::span::{SpanId, Spans};
use hetsim::{ContentionModel, Link, Protocol, SimTime, Topology, TopologyBuilder};
use mpisim::{
    CollectiveAlgo, CollectiveKind, CollectivePolicy, Comm, MpiError, ReduceOp, Universe,
    UniverseConfig,
};
use std::collections::BTreeMap;
use std::time::Instant;

/// Calls at the calibrated run length.
pub const CALLS: usize = 144;
/// Sites and ranks per site.
pub const SITES: usize = 4;
/// See [`SITES`].
pub const RANKS_PER_SITE: usize = 32;
/// Payload sizes, f64 elements.
pub const SIZES: [usize; 3] = [16, 1024, 32 * 1024];
/// Roots the rooted kinds rotate through (one per site, off the leaders).
pub const ROOTS: [usize; 4] = [0, 37, 70, 127];
/// Virtual seconds between the end of one call and the common start of the
/// next; must exceed what the clock-collecting allreduce costs.
pub const SYNC_GAP_S: f64 = 2.0;
/// Relative bound on `predict_collective` against the measured makespan.
pub const PARITY_REL: f64 = 1e-9;

const KINDS: [CollectiveKind; 4] = [
    CollectiveKind::Bcast,
    CollectiveKind::Reduce,
    CollectiveKind::Allreduce,
    CollectiveKind::Allgather,
];

/// How a call picks its algorithm — the differential axis.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Policy {
    /// `CollectivePolicy::Auto`: flat selection plus the hierarchical plan.
    Auto,
    /// `CollectivePolicy::FlatAuto`: flat selection only.
    FlatAuto,
    /// An explicit algorithm per call (`*_with`): no planning at all.
    Pinned,
}

/// One collective call.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Call {
    /// Which collective.
    pub kind: CollectiveKind,
    /// Payload elements (total output for allgather).
    pub elems: usize,
    /// Root rank (0 for the rootless kinds).
    pub root: usize,
}

impl Call {
    /// Elements each rank contributes.
    pub fn contrib(&self, p: usize) -> usize {
        match self.kind {
            CollectiveKind::Allgather => self.elems / p,
            _ => self.elems,
        }
    }
}

// CollectiveKind has no Ord; key maps through a stable index.
fn kind_index(kind: CollectiveKind) -> usize {
    KINDS.iter().position(|k| *k == kind).expect("a known kind")
}

/// The workload.
pub struct CollPlan {
    /// The call list, in issue order.
    pub calls: Vec<Call>,
    topology: Topology,
    salt: usize,
    /// Ascending-rank fold of every rank's payload, longest size.
    fold: Vec<f64>,
}

/// Four sites of 32 single-rank workstations: a LAN inside each site, a
/// WAN between sites, serialized NICs.
pub fn testbed() -> Topology {
    let mut b = TopologyBuilder::new()
        .intra_switch(Link::new(1e-4, 100e6, Protocol::Tcp))
        .inter_site(Link::new(50e-3, 1e6, Protocol::Tcp))
        .contention(ContentionModel::SerializedNic);
    for site in 0..SITES {
        b = b.site();
        for i in 0..RANKS_PER_SITE {
            b = b.node(format!("s{site}w{i}"), 80.0 + (i % 5) as f64 * 15.0);
        }
    }
    b.build()
}

/// Rank `rank`'s contribution: small half-integers, so every association
/// order of the sum is exact and the result must be *bit*-equal to the
/// serial ascending-rank fold whatever algorithm ran.
fn payload(salt: usize, rank: usize, elems: usize) -> Vec<f64> {
    (0..elems)
        .map(|i| ((rank * 31 + i + salt) % 97) as f64 * 0.5 + 1.0)
        .collect()
}

fn bit_equal(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

fn typed(e: MpiError) -> String {
    format!("{e:?}")
}

impl CollPlan {
    /// Ranks in the communicator.
    pub fn ranks(&self) -> usize {
        self.topology.ranks()
    }

    /// Runs `call` on this rank and checks this rank's output.
    fn execute(&self, world: &Comm, call: Call, policy: Policy) -> Result<(), String> {
        let (p, me) = (world.size(), world.rank());
        let n = call.contrib(p);
        let mine = payload(self.salt, me, n);
        let pinned = policy == Policy::Pinned;
        match call.kind {
            CollectiveKind::Bcast => {
                let mut buf = mine;
                if pinned {
                    world.bcast_into_with(CollectiveAlgo::Binomial, &mut buf, call.root)
                } else {
                    world.bcast_into(&mut buf, call.root)
                }
                .map_err(typed)?;
                if !bit_equal(&buf, &payload(self.salt, call.root, n)) {
                    return Err(format!(
                        "bcast from {} delivered wrong bits to rank {me}",
                        call.root
                    ));
                }
            }
            CollectiveKind::Reduce => {
                let out = if pinned {
                    world.reduce_eq_f64_with(
                        CollectiveAlgo::Binomial,
                        &mine,
                        ReduceOp::Sum,
                        call.root,
                    )
                } else {
                    world.reduce_eq_f64(&mine, ReduceOp::Sum, call.root)
                }
                .map_err(typed)?;
                match out {
                    Some(v) if me == call.root && bit_equal(&v, &self.fold[..n]) => {}
                    None if me != call.root => {}
                    _ => return Err(format!("reduce to {} wrong on rank {me}", call.root)),
                }
            }
            CollectiveKind::Allreduce => {
                let out = if pinned {
                    world.allreduce_eq_f64_with(
                        CollectiveAlgo::RecursiveDoubling,
                        &mine,
                        ReduceOp::Sum,
                    )
                } else {
                    world.allreduce_eq_f64(&mine, ReduceOp::Sum)
                }
                .map_err(typed)?;
                if !bit_equal(&out, &self.fold[..n]) {
                    return Err(format!(
                        "allreduce differs from the serial fold on rank {me}"
                    ));
                }
            }
            CollectiveKind::Allgather => {
                let out = if pinned {
                    world.allgather_eq_with(CollectiveAlgo::RecursiveDoubling, &mine)
                } else {
                    world.allgather_eq(&mine)
                }
                .map_err(typed)?;
                let ok = out.len() == n * p
                    && out
                        .chunks(n)
                        .enumerate()
                        .all(|(r, c)| bit_equal(c, &payload(self.salt, r, n)));
                if !ok {
                    return Err(format!("allgather delivered wrong bits to rank {me}"));
                }
            }
        }
        Ok(())
    }

    /// The rank program: `rounds` passes over `calls`, every call from a
    /// common virtual start, rank 0 timing the host side and keeping the
    /// [`Outcome`]. `predict` makes rank 0 price each call first and hold
    /// the measured makespan to it (warm-up only: pricing is as expensive
    /// as the planning being measured).
    fn rank_program(
        &self,
        world: &Comm,
        calls: &[Call],
        rounds: usize,
        policy: Policy,
        predict: bool,
        spans: &Spans,
    ) -> Result<Option<Outcome>, String> {
        let rank0 = world.rank() == 0;
        let mut out = Outcome::default();
        // The makespan each distinct call showed first; repeats must match.
        let mut seen: BTreeMap<(usize, usize, usize), f64> = BTreeMap::new();
        let mut start = 0.0f64;
        let mut pass = |out: &mut Outcome| -> Result<(), String> {
            for &call in calls {
                let op = if rank0 {
                    spans.begin_op(out.op_ms.len() as u64)
                } else {
                    SpanId::OFF
                };
                let predicted = match predict && rank0 {
                    true => Some(
                        world
                            .predict_collective(call.kind, call.root, call.elems, 8)
                            .map_err(typed)?
                            .1,
                    ),
                    false => None,
                };
                let late = world.clock().now().as_secs() > start;
                world.clock().set(SimTime::from_secs(start));
                let t0 = Instant::now();
                let mut verdict = spans.scope("mpisim.collective", op, |_| {
                    self.execute(world, call, policy)
                });
                let after = world.clock().now().as_secs();
                // The call is over when its last rank returns: rank 0's own
                // return only says that rank 0 finished planning first. The
                // clock-collecting allreduce is that wait (pinned
                // algorithm, so it plans nothing itself).
                let end = spans.scope("mpisim.collective_wait", op, |_| {
                    world.allreduce_eq_f64_with(CollectiveAlgo::Binomial, &[after], ReduceOp::Max)
                });
                let host_ms = ms_since(t0);
                let end = end.map_err(typed)?[0];
                let makespan = end - start;
                start = end + SYNC_GAP_S;
                if late {
                    verdict = Err(format!("{call:?}: a clock had passed the common start"));
                }
                if !rank0 {
                    verdict?;
                    continue;
                }
                if let Some(pred) = predicted {
                    if (pred - makespan).abs() > PARITY_REL * makespan.abs() {
                        verdict = Err(format!(
                            "{call:?}: predicted {pred:.12e}s, measured {makespan:.12e}s"
                        ));
                    }
                }
                let key = (kind_index(call.kind), call.elems, call.root);
                let first = *seen.entry(key).or_insert(makespan);
                if (first - makespan).abs() > PARITY_REL * makespan.abs() {
                    verdict = Err(format!(
                        "{call:?}: makespan {makespan:.12e}s, earlier {first:.12e}s"
                    ));
                }
                out.op(host_ms, makespan, verdict);
                spans.end(op);
            }
            Ok(())
        };
        for _ in 0..rounds {
            if rank0 {
                out.round(&mut pass)?;
            } else {
                pass(&mut out)?;
            }
        }
        Ok(rank0.then_some(out))
    }

    /// Issues `rounds` passes over `calls` under `policy` in one
    /// `Universe::run` and returns rank 0's measurements.
    pub fn run_calls(
        &self,
        calls: &[Call],
        rounds: usize,
        policy: Policy,
        predict: bool,
        spans: &Spans,
    ) -> Outcome {
        let coll_policy = match policy {
            Policy::FlatAuto => CollectivePolicy::FlatAuto,
            Policy::Auto | Policy::Pinned => CollectivePolicy::Auto,
        };
        let universe = Universe::from_topology(
            self.topology.clone(),
            UniverseConfig::new()
                .collective_policy(coll_policy)
                .tracing(spans.enabled()),
        );
        let report = universe
            .run(|proc| self.rank_program(&proc.world(), calls, rounds, policy, predict, spans));
        let mut out = Outcome::default();
        let mut trouble = None;
        for (rank, r) in report.results.into_iter().enumerate() {
            match r {
                Ok(Some(o)) => out = o,
                Ok(None) => {}
                Err(e) => trouble = trouble.or(Some(format!("rank {rank}: {e}"))),
            }
        }
        if report.pool.outstanding != 0 {
            trouble = Some(format!("{} pool lease(s) leaked", report.pool.outstanding));
        }
        if out.op_ms.len() != calls.len() * rounds {
            trouble = trouble.or(Some("rank 0 did not finish the call list".into()));
        }
        if let Some(why) = trouble {
            // A violation seen off rank 0 has no op of its own.
            out.op(0.0, 0.0, Err(why));
        }
        if let Some(trace) = &report.trace {
            out.count_trace(trace, universe.size());
        }
        out
    }

    /// One call of every kind at the middle size: the warm-up list, and
    /// what the probes time under the other policies.
    pub fn one_of_each(&self) -> Vec<Call> {
        let p = self.ranks();
        KINDS
            .into_iter()
            .enumerate()
            .map(|(i, kind)| call(kind, SIZES[1], ROOTS[i % ROOTS.len()], p))
            .collect()
    }
}

fn call(kind: CollectiveKind, size: usize, root: usize, p: usize) -> Call {
    let rooted = matches!(kind, CollectiveKind::Bcast | CollectiveKind::Reduce);
    Call {
        kind,
        // Allgather moves whole contributions: round to a multiple of p.
        elems: match kind {
            CollectiveKind::Allgather => (size.max(p) / p) * p,
            _ => size,
        },
        root: if rooted { root } else { 0 },
    }
}

impl Workload for CollPlan {
    const NAME: &'static str = "coll_plan";
    const RANKS: usize = SITES * RANKS_PER_SITE;
    const WHY: &'static str = "Auto collectives at p=128 over 4 sites: per-call planning (pair \
        table, schedule + price, hierarchical plan) is nearly all of the host time; where a plan \
        cache must show";

    fn setup(seed: u64, scale: f64) -> Self {
        let mut rng = SplitMix64(seed ^ 0xC011_9A17);
        let topology = testbed();
        let p = topology.ranks();
        let salt = rng.below(97);
        // The same multiset of calls for every seed — every (kind, size)
        // equally often, roots rotating — in a seed-shuffled order.
        let combos = KINDS.len() * SIZES.len();
        let mut calls: Vec<Call> = (0..scaled(CALLS, scale))
            .map(|i| {
                let kind = KINDS[i % KINDS.len()];
                let size = SIZES[(i / KINDS.len()) % SIZES.len()];
                call(kind, size, ROOTS[(i / combos) % ROOTS.len()], p)
            })
            .collect();
        rng.shuffle(&mut calls);
        let longest = SIZES[SIZES.len() - 1];
        let mut fold = vec![0.0f64; longest];
        for rank in 0..p {
            for (acc, x) in fold.iter_mut().zip(payload(salt, rank, longest)) {
                *acc += x;
            }
        }
        let w = CollPlan {
            calls,
            topology,
            salt,
            fold,
        };
        // Warm-up doubles as the timeof-parity check: one call per kind,
        // each priced by `predict_collective` first.
        let warm = w.run_calls(&w.one_of_each(), 1, Policy::Auto, true, &Spans::new(false));
        assert!(
            warm.failed == 0,
            "coll_plan warm-up failed: {:?}",
            warm.first_failure
        );
        w
    }

    fn run(&self, rounds: usize, spans: &Spans) -> Outcome {
        let mut out = self.run_calls(&self.calls, rounds, Policy::Auto, false, spans);
        out.side
            .insert("mpisim.coll_auto_ms.p128", crate::stats::median(&out.op_ms));
        out
    }

    fn probes(&self, side: &mut Side) {
        use crate::cost::TableCost;
        use perfmodel::{algos_for, hier_plan, price, schedule, select, LinkSharing, RankTopology};
        use std::hint::black_box;

        // The pieces of one `Auto` resolution, called stand-alone on this
        // workload's own communicator, sizes and roots.
        let cluster = self.topology.cluster();
        let nodes = self.topology.placement();
        let p = nodes.len();
        let pair_table_us = per_call_us(10, || {
            black_box(cluster.pair_table(nodes));
        });
        side.insert("hetsim.pair_table_ms.p128", pair_table_us / 1e3);
        let cost = TableCost::new(cluster.pair_table(nodes), nodes);
        let sharing = LinkSharing::PerEndpoint;

        let (mut schedule_us, mut price_us, mut pairs) = (0.0, 0.0, 0usize);
        let (mut select_us, mut hier_us, mut combos) = (0.0, 0.0, 0usize);
        let info = cluster.topology().expect("the testbed declares its sites");
        let topo = RankTopology::new(
            nodes.iter().map(|&n| info.site_of(n)).collect(),
            nodes.iter().map(|&n| info.switch_of(n)).collect(),
            nodes.iter().map(|n| n.index()).collect(),
        );
        for (i, kind) in KINDS.into_iter().enumerate() {
            for size in SIZES {
                let c = call(kind, size, ROOTS[i % ROOTS.len()], p);
                for algo in algos_for(kind, p) {
                    schedule_us += per_call_us(2, || {
                        black_box(schedule(kind, algo, p, c.root, c.elems));
                    });
                    let rounds = schedule(kind, algo, p, c.root, c.elems).expect("eligible");
                    price_us += per_call_us(2, || {
                        black_box(price(p, &rounds, 8.0, &cost, sharing));
                    });
                    pairs += 1;
                }
                select_us += per_call_us(1, || {
                    black_box(select(kind, p, c.root, c.elems, 8.0, &cost, sharing));
                });
                hier_us += per_call_us(1, || {
                    black_box(hier_plan(
                        kind, p, c.root, c.elems, 8.0, &topo, &cost, sharing,
                    ));
                });
                combos += 1;
            }
        }
        side.insert("perfmodel.schedule_us.p128", schedule_us / pairs as f64);
        side.insert("perfmodel.price_us.p128", price_us / pairs as f64);
        side.insert("perfmodel.select_ms.p128", select_us / combos as f64 / 1e3);
        side.insert("perfmodel.hier_plan_ms.p128", hier_us / combos as f64 / 1e3);

        // The differential: the same call list with flat-only selection,
        // and with pinned algorithms (no planning at all).
        let off = Spans::new(false);
        let flat = self.run_calls(&self.calls, 1, Policy::FlatAuto, false, &off);
        let pinned = self.run_calls(&self.calls, 1, Policy::Pinned, false, &off);
        let (flat_ms, pinned_ms) = (
            crate::stats::median(&flat.op_ms),
            crate::stats::median(&pinned.op_ms),
        );
        side.insert("mpisim.coll_flatauto_ms.p128", flat_ms);
        side.insert("mpisim.coll_fixed_ms.p128", pinned_ms);
        if let Some(&auto_ms) = side.get("mpisim.coll_auto_ms.p128") {
            side.insert("mpisim.plan_share.p128", 1.0 - pinned_ms / auto_ms);
        }
        if flat.failed + pinned.failed > 0 {
            // A differential run that fails its checks must not pass as a
            // measurement.
            side.insert("mpisim.plan_share.p128", f64::NAN);
        }

        let universe = Universe::from_topology(self.topology.clone(), UniverseConfig::new());
        side.insert("mpisim.spawn_join_ms.p128", spawn_join_ms(&universe, 10));
    }
}
