//! Scenario execution and the invariants it checks.
//!
//! [`check`] builds the scenario's cluster, runs its workload, and
//! verifies the global invariants of the stack:
//!
//! * **no-panic / no-hang** — whatever the scenario does, the stack
//!   terminates and reports typed errors; any panic that reaches the
//!   harness (including the deadlock watchdog's) is a violation;
//! * **fault-free completion** — with no injected faults, every rank
//!   finishes without error;
//! * **value integrity** — payloads arrive bit-exact, reductions agree
//!   bit-for-bit with a serial ascending-rank fold across *every*
//!   eligible algorithm, and HMPI group selection never changes an
//!   application kernel's numerics (placement neutrality);
//! * **timeof parity** — fault-free, the engine's `predict_collective`
//!   price tracks the measured virtual makespan within
//!   [`TIMEOF_REL_BOUND`] under *every* contention model (the pricer
//!   replays the transport's endpoint-causal grant/settle arbitration,
//!   so shared-NIC, shared-bus and memory-bus queueing are all priced);
//! * **fault-tolerant collective contract** — with injected faults, a
//!   collective's survivors either hold the bit-exact result or a typed
//!   fault-shaped error (never a torn output), a post-collective
//!   ULFM-style agreement round reaches one unanimous verdict consistent
//!   with the per-rank outcomes, and re-running the same scenario
//!   replays the identical error surface and virtual makespan under
//!   every contention model — contended transfers are granted in
//!   endpoint-causal order, never host-schedule order;
//! * **selection consistency** — every algorithm's mapping is injective,
//!   inside the candidates and keeps the parent pinned; a fresh
//!   `hmpi::Evaluator`'s price of it equals the bits the search reported,
//!   so the price a search kept from its walk is held to a cold one; no
//!   algorithm beats `Exhaustive`; typed errors match across algorithms;
//! * **trace well-formedness** — every run's trace, checked in memory, is
//!   sorted by (start, rank), names only its ranks, has finite
//!   non-negative times, and its spans nest per rank (container-first at
//!   start ties);
//! * **estimate discipline** — recon advances the estimate generation
//!   (exactly +1 fault-free; more when deaths are also recorded) and
//!   leaves finite, positive speeds for available nodes;
//! * **arena hygiene** — after every run, all rendezvous buffer leases
//!   have returned to the universe's pool (`report.pool.outstanding == 0`);
//!   a leak means a payload escaped the envelope lifecycle;
//! * **no missed wake-up** — after every run, no blocked wait slept out
//!   its wake-up backstop while it was resolvable
//!   (`report.wakeups.missed == 0`): every message, death, verdict and
//!   agreement deposit reached its waiter by a doorbell ring;
//! * **plan-cache coherence** — after every collective run the universe's
//!   plan cache accounts for itself (`hits + built == lookups`) and planned
//!   no more than the distinct calls issued (plus re-builds of evicted
//!   plans); a storm replayed in a fresh universe — different hit/miss
//!   interleaving, same keys — reproduces results, makespan and the whole
//!   trace bit for bit, so nothing host-ordered leaks out of the cache;
//! * **model-roundtrip** — every generated model program
//!   (`gen::random_model`) parses, and printing its syntax tree
//!   and parsing the text back gives the same tree;
//! * **model-lint** — every model a scenario selects with (generated, or
//!   an application kernel's) compiles, instantiates and lints clean: its
//!   `scheme` performs each processor's declared computation and each
//!   pair's declared transfer in full (`perfmodel::analyze`).

use crate::gen::{random_model, ModelProgram};
use crate::scenario::{AppKind, Scenario, Workload};
use hetsim::{
    Cluster, ClusterBuilder, FaultEvent, FaultPlan, Link, NodeId, Protocol, SpeedEstimates,
    TopologyInfo, Trace,
};
use hmpi::{select_mapping, Evaluator, HmpiRuntime, MappingAlgorithm, SelectionCtx};
use mpisim::{
    CollectiveAlgo, CollectiveKind, Comm, MpiError, PlanCacheReport, ReduceOp, RunReport,
    Universe, UniverseConfig,
};
use perfmodel::collective::algos_for;
use perfmodel::pretty::print_program;
use perfmodel::{
    analyze, parse_program, CompiledModel, EvalError, ModelInstance, ParamValue, PerformanceModel,
};
use rand::{Rng, SeedableRng, StdRng};
use std::fmt;
use std::panic::{self, AssertUnwindSafe};
use std::sync::Arc;

/// Relative `timeof`-vs-measured bound for fault-free collectives on
/// every contention model (matches the collectives bench's CI gate).
pub const TIMEOF_REL_BOUND: f64 = 0.05;

/// A violated invariant: what broke and how.
#[derive(Clone, Debug, PartialEq)]
pub struct Violation {
    /// Which invariant (stable kebab-case label).
    pub invariant: &'static str,
    /// Human-readable specifics.
    pub detail: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}", self.invariant, self.detail)
    }
}

fn viol(invariant: &'static str, detail: impl Into<String>) -> Violation {
    Violation {
        invariant,
        detail: detail.into(),
    }
}

/// A per-rank workload failure: either a genuine value bug (always a
/// violation) or a typed runtime error (allowed when faults are injected).
type RankFail = (bool, String);

fn value_bug(msg: impl Into<String>) -> RankFail {
    (true, msg.into())
}

fn typed(msg: impl fmt::Debug) -> RankFail {
    (false, format!("{msg:?}"))
}

/// Runs the scenario and checks every applicable invariant.
///
/// # Errors
/// The first [`Violation`] found. Panics anywhere in the stack (including
/// the simulator's deadlock watchdog) are caught and reported as
/// `no-panic` violations rather than unwinding into the harness.
pub fn check(sc: &Scenario) -> Result<(), Violation> {
    match panic::catch_unwind(AssertUnwindSafe(|| run_workload(sc))) {
        Ok(r) => r,
        Err(payload) => {
            let msg = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| payload.downcast_ref::<&str>().copied())
                .unwrap_or("<non-string panic>");
            Err(viol("no-panic", msg.to_string()))
        }
    }
}

/// Materialises the scenario's cluster: speeds, links, overrides, the
/// optional memory bus, contention model and fault plan. Public so the
/// integration tests and benches can run scenarios against the exact
/// cluster the checker uses.
pub fn build_cluster(sc: &Scenario) -> Arc<Cluster> {
    let mut b = ClusterBuilder::new();
    for (i, &s) in sc.speeds.iter().enumerate() {
        b = b.processor(
            hetsim::Processor::new(format!("f{i:02}"), s).with_slots(sc.ranks_per_node.max(1)),
        );
    }
    b = b.all_to_all(Link::new(sc.base_lat, sc.base_bw, Protocol::Tcp));
    // The declared hierarchy resolves pair links exactly like
    // `TopologyBuilder::build`: intra-switch pairs ride the base LAN,
    // inter-switch pairs the backbone, inter-site pairs the WAN — with
    // explicit `ov=` overrides (applied after) still winning.
    let switch = sc.effective_switch();
    if sc.is_hierarchical() {
        let wan = sc.wan.map(|(lat, bw)| Link::new(lat, bw, Protocol::Tcp));
        let bb = sc
            .backbone
            .map(|(lat, bw)| Link::new(lat, bw, Protocol::Tcp));
        for i in 0..sc.nodes() {
            for j in (i + 1)..sc.nodes() {
                let link = if sc.site[i] != sc.site[j] {
                    wan.clone()
                } else if switch[i] != switch[j] {
                    bb.clone().or_else(|| wan.clone())
                } else {
                    None
                };
                if let Some(link) = link {
                    b = b.link_between(i, j, link);
                }
            }
        }
    }
    for o in &sc.overrides {
        b = b.link_between(o.a, o.b, Link::new(o.lat, o.bw, Protocol::Tcp));
    }
    if let Some((lat, bw)) = sc.mem {
        b = b.mem_bus(Link::new(lat, bw, Protocol::SharedMemory));
    }
    let mut cluster = b
        .contention(sc.contention)
        .faults(FaultPlan::new(sc.faults.clone()))
        .build();
    if sc.is_hierarchical() {
        cluster = cluster.with_topology(TopologyInfo::new(sc.site.clone(), switch));
    }
    Arc::new(cluster)
}

/// Block placement: ranks `r*k..(r+1)*k` live on node `r`, so ring
/// neighbours and collective round partners land on shared nodes and
/// exercise the memory-bus domain.
pub fn placement(sc: &Scenario) -> Vec<NodeId> {
    let k = sc.ranks_per_node.max(1);
    (0..sc.nodes() * k).map(|r| NodeId(r / k)).collect()
}

fn run_workload(sc: &Scenario) -> Result<(), Violation> {
    match sc.workload.clone() {
        Workload::P2pRing { elems, rounds } => check_ring(sc, elems, rounds),
        Workload::P2pRandom {
            pattern_seed,
            msgs,
            max_elems,
        } => check_rand(sc, pattern_seed, msgs, max_elems),
        Workload::Collective { kind, elems, root } => check_collective(sc, kind, elems, root),
        Workload::CollStorm {
            kind,
            elems,
            calls,
            colors,
        } => check_storm(sc, kind, elems, calls, colors),
        Workload::GroupCycle { model_seed, cycles } => check_group_cycle(sc, model_seed, cycles),
        Workload::ReconRounds { units, rounds } => check_recon(sc, units, rounds),
        Workload::Selection {
            model_seed,
            est_seed,
        } => check_selection(sc, model_seed, est_seed),
        Workload::ShrinkRecovery { rounds, units } => check_shrink(sc, rounds, units),
        Workload::AppKernel { app } => check_app(sc, app),
    }
}

/// Host-side hygiene of a finished run. Arena: every rendezvous lease must
/// be back in the pool — the universe drains all mailboxes (including
/// messages stranded by faults) before snapshotting the report, so an
/// outstanding lease is a payload that escaped the envelope lifecycle.
/// Doorbell: no blocked wait may have slept out its backstop while it was
/// resolvable — whatever resolved it should have rung.
fn judge_host<R>(tag: &str, report: &RunReport<R>) -> Result<(), Violation> {
    let (pool, wakeups) = (&report.pool, &report.wakeups);
    if pool.outstanding != 0 {
        return Err(viol(
            "pool-leak",
            format!(
                "{tag}: {} of {} leases still outstanding after the run \
                 (high water {})",
                pool.outstanding, pool.leased, pool.high_water
            ),
        ));
    }
    if wakeups.missed != 0 {
        return Err(viol(
            "no-missed-wakeup",
            format!("{tag}: a lost doorbell ring cost a backstop sleep: {wakeups:?}"),
        ));
    }
    Ok(())
}

/// Plan-cache coherence: every plan handed out was either shared or built
/// on the spot, and the cache built no more plans than the run issued
/// `distinct_calls` distinct calls — except to re-build what it evicted.
fn judge_plans(tag: &str, plans: &PlanCacheReport, distinct_calls: usize) -> Result<(), Violation> {
    if plans.hits + plans.built != plans.lookups
        || plans.built > distinct_calls as u64 + plans.evicted
    {
        return Err(viol(
            "plan-cache-coherence",
            format!("{tag}: {distinct_calls} distinct call(s) issued, cache reports {plans:?}"),
        ));
    }
    Ok(())
}

/// Turns per-rank results into violations: value bugs always, typed
/// errors only when the scenario is fault-free.
fn judge_ranks(sc: &Scenario, results: &[Result<(), RankFail>]) -> Result<(), Violation> {
    for (rank, r) in results.iter().enumerate() {
        match r {
            Ok(()) => {}
            Err((true, msg)) => {
                return Err(viol("value-integrity", format!("rank {rank}: {msg}")))
            }
            Err((false, msg)) if sc.faults.is_empty() => {
                return Err(viol(
                    "fault-free-completion",
                    format!("rank {rank} errored on a fault-free run: {msg}"),
                ))
            }
            Err(_) => {}
        }
    }
    Ok(())
}

/// Trace well-formedness ([`Trace::check_well_formed`]) as a violation.
fn validate_trace(trace: &Trace, ranks: usize) -> Result<(), Violation> {
    trace
        .check_well_formed(ranks)
        .map_err(|defect| viol("trace-well-formed", defect))
}

fn ring_payload(rank: usize, elems: usize) -> Vec<i64> {
    (0..elems).map(|i| (rank * 1_000_003 + i) as i64).collect()
}

fn f64_payload(rank: usize, elems: usize) -> Vec<f64> {
    (0..elems)
        .map(|i| ((rank * 31 + i) % 97) as f64 * 0.5 + 1.0)
        .collect()
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn check_ring(sc: &Scenario, elems: usize, rounds: usize) -> Result<(), Violation> {
    let n = sc.ranks();
    let u = Universe::with_config(
        build_cluster(sc),
        UniverseConfig::new().placement(placement(sc)).tracing(true),
    );
    let report = u.run(move |proc| -> Result<(), RankFail> {
        let world = proc.world();
        let me = world.rank();
        let (right, left) = ((me + 1) % n, (me + n - 1) % n);
        for round in 0..rounds {
            let (rx, _) = world
                .sendrecv::<i64, i64>(&ring_payload(me, elems), right, round as i32, left, round as i32)
                .map_err(typed)?;
            if rx != ring_payload(left, elems) {
                return Err(value_bug(format!(
                    "round {round}: payload from {left} corrupted"
                )));
            }
        }
        Ok(())
    });
    judge_host("p2p-ring", &report)?;
    judge_ranks(sc, &report.results)?;
    validate_trace(report.trace.as_ref().expect("tracing enabled"), n)
}

fn check_rand(
    sc: &Scenario,
    pattern_seed: u64,
    msgs: usize,
    max_elems: usize,
) -> Result<(), Violation> {
    let n = sc.ranks();
    if n < 2 {
        return Ok(()); // no pairs to message
    }
    // The pattern every rank walks in the same global order: (src, dst,
    // elems, tag). Sends are eager, so walking in order cannot deadlock.
    let mut rng = StdRng::seed_from_u64(pattern_seed);
    let pattern: Vec<(usize, usize, usize)> = (0..msgs)
        .map(|_| {
            let src = rng.random_range(0..n);
            let dst = (src + rng.random_range(1..n)) % n;
            (src, dst, rng.random_range(1..max_elems + 1))
        })
        .collect();
    let u = Universe::with_config(
        build_cluster(sc),
        UniverseConfig::new().placement(placement(sc)).tracing(true),
    );
    let pat = pattern.clone();
    let report = u.run(move |proc| -> Result<(), RankFail> {
        let world = proc.world();
        let me = world.rank();
        for (i, &(src, dst, elems)) in pat.iter().enumerate() {
            if me == src {
                world
                    .send(&ring_payload(i, elems), dst, i as i32)
                    .map_err(typed)?;
            } else if me == dst {
                let (rx, status) = world.recv::<i64>(src, i as i32).map_err(typed)?;
                if rx != ring_payload(i, elems) {
                    return Err(value_bug(format!("msg {i}: payload corrupted")));
                }
                if status.source != src || status.tag != i as i32 {
                    return Err(value_bug(format!(
                        "msg {i}: status says ({}, {}), expected ({src}, {i})",
                        status.source, status.tag
                    )));
                }
            }
        }
        Ok(())
    });
    judge_host("p2p-random", &report)?;
    judge_ranks(sc, &report.results)?;
    validate_trace(report.trace.as_ref().expect("tracing enabled"), n)
}

/// Serial left fold of the given ranks' payloads, in the order given
/// (ascending communicator rank) — the reduction reference every algorithm
/// must match bit-for-bit.
fn serial_fold(ranks: impl IntoIterator<Item = usize>, elems: usize) -> Vec<f64> {
    ranks
        .into_iter()
        .map(|r| f64_payload(r, elems))
        .reduce(|mut acc, p| {
            acc.iter_mut().zip(&p).for_each(|(a, b)| *a += b);
            acc
        })
        .unwrap_or_default()
}

/// Runs one engine collective of `kind` on `comm`: `algo` pinned, or the
/// universe's policy when `None`. Returns this rank's output (`None` off
/// the root of a reduce).
fn run_kind(
    comm: &Comm,
    kind: CollectiveKind,
    algo: Option<CollectiveAlgo>,
    contrib: Vec<f64>,
    root: usize,
) -> Result<Option<Vec<f64>>, MpiError> {
    Ok(match (kind, algo) {
        (CollectiveKind::Bcast, algo) => {
            let mut buf = contrib;
            match algo {
                Some(a) => comm.bcast_into_with(a, &mut buf, root)?,
                None => comm.bcast_into(&mut buf, root)?,
            }
            Some(buf)
        }
        (CollectiveKind::Reduce, Some(a)) => {
            comm.reduce_eq_f64_with(a, &contrib, ReduceOp::Sum, root)?
        }
        (CollectiveKind::Reduce, None) => comm.reduce_eq_f64(&contrib, ReduceOp::Sum, root)?,
        (CollectiveKind::Allreduce, Some(a)) => {
            Some(comm.allreduce_eq_f64_with(a, &contrib, ReduceOp::Sum)?)
        }
        (CollectiveKind::Allreduce, None) => Some(comm.allreduce_eq_f64(&contrib, ReduceOp::Sum)?),
        (CollectiveKind::Allgather, Some(a)) => Some(comm.allgather_eq_with(a, &contrib)?),
        (CollectiveKind::Allgather, None) => Some(comm.allgather_eq(&contrib)?),
    })
}

/// One rank's record of a collective run: the algorithm's price, the
/// collective's typed error (`None` = completed and value-checked), and —
/// on fault-bearing runs only — the post-collective agreement verdict
/// (`Err` = the rank could not finish the round, e.g. its own node died).
type FtRecord = (f64, Option<String>, Option<Result<(bool, Vec<usize>), String>>);

/// Typed errors a fault plan is allowed to surface. Anything else escaping
/// a crashy collective (truncation, count mismatches, torn internal state)
/// is a contract violation, not a legal fault outcome.
fn fault_shaped(msg: &str) -> bool {
    ["NodeFailed", "PeerTerminated", "LinkDown", "Timeout", "Deadlock"]
        .iter()
        .any(|p| msg.starts_with(p))
}

fn check_collective(
    sc: &Scenario,
    kind: CollectiveKind,
    elems: usize,
    root: usize,
) -> Result<(), Violation> {
    let n = sc.ranks();
    let root = root % n; // the shrinker may have dropped the root's node
    let has_faults = !sc.faults.is_empty();
    let cluster = build_cluster(sc);
    let rank_placement = placement(sc);
    // Per-rank contribution length and the element count the predictor is
    // asked to price (total payload for allgather, as in the bench).
    let contrib_len = match kind {
        CollectiveKind::Allgather => (elems / n).max(1),
        _ => elems,
    };
    let pred_elems = match kind {
        CollectiveKind::Allgather => contrib_len * n,
        _ => elems,
    };
    let expected: Vec<f64> = match kind {
        CollectiveKind::Bcast => f64_payload(root, contrib_len),
        CollectiveKind::Reduce | CollectiveKind::Allreduce => serial_fold(0..n, contrib_len),
        CollectiveKind::Allgather => (0..n).flat_map(|r| f64_payload(r, contrib_len)).collect(),
    };

    let algos = algos_for(kind, n);
    let mut predictions: Vec<(CollectiveAlgo, f64)> = Vec::new();
    for &algo in &algos {
        // Factored so fault-bearing runs can be replayed for the
        // determinism invariant: same cluster, same fault plan, same
        // closure — the second run must reproduce the first bit-for-bit.
        let run_once = || {
            let u = Universe::with_config(
                cluster.clone(),
                UniverseConfig::new()
                    .placement(rank_placement.clone())
                    .tracing(true),
            );
            let exp = expected.clone();
            u.run(move |proc| -> Result<FtRecord, RankFail> {
                let world = proc.world();
                let me = world.rank();
                let predicted = world
                    .predict_collective_with(kind, algo, root, pred_elems, 8)
                    .map_err(typed)?;
                let out = run_kind(&world, kind, Some(algo), f64_payload(me, contrib_len), root);
                let coll_err = match out {
                    Ok(v) => {
                        // Survivor value integrity: a rank that reports
                        // success must hold the bit-exact result, faults
                        // or not — no torn outputs.
                        let should_have_output =
                            !matches!(kind, CollectiveKind::Reduce) || me == root;
                        match v {
                            Some(v) if should_have_output => {
                                if bits(&v) != bits(&exp) {
                                    return Err(value_bug(format!(
                                        "{}/{} diverges from the serial reference",
                                        kind.name(),
                                        algo.name()
                                    )));
                                }
                            }
                            None if !should_have_output => {}
                            _ => {
                                return Err(value_bug(format!(
                                    "{}/{}: output presence wrong for rank {me} (root {root})",
                                    kind.name(),
                                    algo.name()
                                )))
                            }
                        }
                        None
                    }
                    Err(e) if has_faults => Some(format!("{e:?}")),
                    Err(e) => return Err(typed(e)),
                };
                // Fault-tolerant contract: after a crashy collective every
                // surviving rank must still reach a verdict on whether the
                // operation committed, via a ULFM-style agreement round.
                let agreement = has_faults.then(|| {
                    world
                        .agree(coll_err.is_none())
                        .map(|a| (a.flag, a.failed))
                        .map_err(|e| format!("{e:?}"))
                });
                Ok((predicted, coll_err, agreement))
            })
        };
        let report = run_once();
        judge_host(kind.name(), &report)?;
        // Pricing and running the pinned algorithm are one call, one key.
        judge_plans(kind.name(), &report.plans, 1)?;
        let judged: Vec<Result<(), RankFail>> = report
            .results
            .iter()
            .map(|r| match r {
                Ok((_, Some(e), _)) => Err((false, e.clone())),
                Ok(_) => Ok(()),
                Err(f) => Err(f.clone()),
            })
            .collect();
        judge_ranks(sc, &judged)?;
        validate_trace(report.trace.as_ref().expect("tracing enabled"), n)?;
        if has_faults {
            check_fault_contract(kind, algo, &report.results)?;
        }
        // Same seed, same plan: the per-rank error surface, the agreement
        // verdicts and the virtual makespan must replay exactly — on
        // every contention model. Grants are endpoint-causal (each rank's
        // frontier advances only with its own program order), so the host
        // thread schedule cannot leak into clocks even near a crash
        // boundary.
        if has_faults {
            let replay = run_once();
            judge_host(kind.name(), &replay)?;
            judge_plans(kind.name(), &replay.plans, 1)?;
            if replay.results != report.results || replay.makespan != report.makespan {
                let first_diff = (0..n)
                    .find(|&r| replay.results[r] != report.results[r])
                    .map(|r| {
                        format!(
                            "rank {r}: {:?} then {:?}",
                            report.results[r], replay.results[r]
                        )
                    })
                    .unwrap_or_else(|| {
                        format!(
                            "makespan {} then {}",
                            report.makespan.as_secs(),
                            replay.makespan.as_secs()
                        )
                    });
                return Err(viol(
                    "fault-determinism",
                    format!(
                        "{}/{}: two runs of the same faulty scenario diverged ({first_diff})",
                        kind.name(),
                        algo.name()
                    ),
                ));
            }
        }
        if let Ok((predicted, _, _)) = &report.results[0] {
            predictions.push((algo, *predicted));
            // `timeof` parity: the pricer replays the exact schedule with
            // the transport's own grant/settle arbitration, so fault-free
            // it must track the measured virtual makespan under every
            // contention model.
            if sc.faults.is_empty() {
                let measured = report.makespan.as_secs();
                if (predicted - measured).abs() > TIMEOF_REL_BOUND * measured + 1e-9 {
                    return Err(viol(
                        "timeof-parity",
                        format!(
                            "{}/{} on {n} ranks, {pred_elems} elems: predicted {predicted:.6e}s, \
                             measured {measured:.6e}s",
                            kind.name(),
                            algo.name()
                        ),
                    ));
                }
            }
        }
    }

    // The Auto selector must pick the cheapest priced algorithm (first in
    // tie-break order), and running it must preserve the values too. The
    // comparison only holds when every algorithm was priced — under faults
    // rank 0 may legitimately die before pricing.
    if predictions.len() == algos.len() {
        let best = predictions
            .iter()
            .copied()
            .reduce(|acc, cand| if cand.1 < acc.1 { cand } else { acc })
            .expect("non-empty");
        let u = Universe::with_config(cluster, UniverseConfig::new().placement(rank_placement));
        let report = u.run(move |proc| {
            proc.world()
                .predict_collective(kind, root, pred_elems, 8)
                .map_err(typed)
        });
        judge_host("auto-selection", &report)?;
        judge_plans("auto-selection", &report.plans, 1)?;
        match &report.results[0] {
            Ok((CollectiveAlgo::Hierarchical, t)) => {
                // The hierarchy-aware selector may leave the flat family
                // entirely — legal only when the (inferred or declared)
                // hierarchical plan is *strictly* cheaper than every flat
                // algorithm, and the prediction must survive execution.
                if *t >= best.1 {
                    return Err(viol(
                        "auto-selection",
                        format!(
                            "Auto picked hierarchical@{t:.6e} but flat argmin {}@{:.6e} \
                             is no worse",
                            best.0.name(),
                            best.1
                        ),
                    ));
                }
                if !has_faults {
                    check_hier_execution(sc, kind, root, contrib_len, *t, &expected)?;
                }
            }
            Ok((algo, t)) => {
                if *algo != best.0 || t.to_bits() != best.1.to_bits() {
                    return Err(viol(
                        "auto-selection",
                        format!(
                            "Auto picked {}@{t:.6e}, manual argmin is {}@{:.6e}",
                            algo.name(),
                            best.0.name(),
                            best.1
                        ),
                    ));
                }
            }
            // Rank 0 died between the per-algo pricings and this one
            // (both price at virtual time zero, so this is unreachable
            // in practice, but a dead rank's typed error is always
            // legal under faults).
            Err((_, msg)) if has_faults => {
                let _ = msg;
            }
            Err((_, msg)) => {
                return Err(viol(
                    "auto-selection",
                    format!("Auto pricing failed: {msg}"),
                ))
            }
        }
    }
    Ok(())
}

/// Executes a collective that the Auto selector routed to a hierarchical
/// plan and holds it to the same bar as the flat algorithms: every rank's
/// values are bit-identical to the reference fold, and the fault-free
/// measured makespan tracks the prediction within the `timeof` parity
/// bound (the pricer replays the exact gather/movement schedule with the
/// transport's own grant/settle arbitration).
fn check_hier_execution(
    sc: &Scenario,
    kind: CollectiveKind,
    root: usize,
    contrib_len: usize,
    predicted: f64,
    expected: &[f64],
) -> Result<(), Violation> {
    let u = Universe::with_config(
        build_cluster(sc),
        UniverseConfig::new().placement(placement(sc)),
    );
    let exp_bits = bits(expected);
    let report = u.run(move |proc| -> Result<Option<Vec<u64>>, RankFail> {
        let world = proc.world();
        let contrib = f64_payload(world.rank(), contrib_len);
        let out = run_kind(&world, kind, None, contrib, root).map_err(typed)?;
        Ok(out.map(|v| bits(&v)))
    });
    judge_host("auto-selection", &report)?;
    judge_plans("auto-selection", &report.plans, 1)?;
    for (rank, r) in report.results.iter().enumerate() {
        match r {
            Ok(Some(got)) if *got != exp_bits => {
                return Err(viol(
                    "auto-selection",
                    format!(
                        "hierarchical {} corrupted values on rank {rank}",
                        kind.name()
                    ),
                ));
            }
            Ok(_) => {}
            Err((_, msg)) => {
                return Err(viol(
                    "auto-selection",
                    format!("hierarchical {} failed on rank {rank}: {msg}", kind.name()),
                ));
            }
        }
    }
    let measured = report.makespan.as_secs();
    if (predicted - measured).abs() > TIMEOF_REL_BOUND * measured + 1e-9 {
        return Err(viol(
            "timeof-parity",
            format!(
                "hierarchical {}: predicted {predicted:.6e}s, measured {measured:.6e}s",
                kind.name()
            ),
        ));
    }
    Ok(())
}

/// One storm rank's outcome: `Ok` after every call value-checked, or the
/// typed error that stopped it.
type StormRecord = Result<(), RankFail>;

/// A collective storm inside one universe (see [`Workload::CollStorm`]):
/// many distinct plan keys over split sub-communicators, values checked per
/// call, the plan cache held to its accounting, and the whole run replayed
/// to show that who hit and who built cannot be seen from inside.
fn check_storm(
    sc: &Scenario,
    kind: CollectiveKind,
    elems: usize,
    calls: usize,
    colors: usize,
) -> Result<(), Violation> {
    let n = sc.ranks();
    let colors = colors.clamp(1, n);
    let has_faults = !sc.faults.is_empty();
    let cluster = build_cluster(sc);
    let rank_placement = placement(sc);
    let run_once = || {
        let u = Universe::with_config(
            cluster.clone(),
            UniverseConfig::new()
                .placement(rank_placement.clone())
                .tracing(true),
        );
        u.run(move |proc| -> StormRecord {
            let world = proc.world();
            let color = world.rank() % colors;
            let comm = world
                .split(Some(color as i32), world.rank() as i32)
                .map_err(typed)?
                .expect("every rank has a colour");
            // World ranks of the members, in communicator-rank order.
            let members: Vec<usize> = (color..n).step_by(colors).collect();
            let p = comm.size();
            let mut choices = vec![None];
            choices.extend(algos_for(kind, p).into_iter().map(Some));
            for i in 0..calls {
                let (len, root, algo) = (elems + i, i % p, choices[i % choices.len()]);
                // Price every way of making the call, then make it one
                // way — the `timeof` sweep idiom, and several keys planned
                // per call executed.
                let total = if kind == CollectiveKind::Allgather {
                    len * p
                } else {
                    len
                };
                for &choice in &choices {
                    match choice {
                        Some(a) => comm
                            .predict_collective_with(kind, a, root, total, 8)
                            .map(drop),
                        None => comm.predict_collective(kind, root, total, 8).map(drop),
                    }
                    .map_err(typed)?;
                }
                let mine = f64_payload(world.rank(), len);
                let out = run_kind(&comm, kind, algo, mine, root).map_err(typed)?;
                let expected: Option<Vec<f64>> = match kind {
                    CollectiveKind::Bcast => Some(f64_payload(members[root], len)),
                    CollectiveKind::Reduce if comm.rank() != root => None,
                    CollectiveKind::Reduce | CollectiveKind::Allreduce => {
                        Some(serial_fold(members.iter().copied(), len))
                    }
                    CollectiveKind::Allgather => {
                        Some(members.iter().flat_map(|&w| f64_payload(w, len)).collect())
                    }
                };
                if out.as_deref().map(bits) != expected.as_deref().map(bits) {
                    return Err(value_bug(format!(
                        "storm call {i}: {} on colour {color} diverges from the serial reference",
                        kind.name()
                    )));
                }
            }
            Ok(())
        })
    };
    let report = run_once();
    let tag = format!("storm/{}", kind.name());
    judge_host(&tag, &report)?;
    // Every call has its own size, so each sub-communicator issues one
    // distinct key per call and choice (fewer when two colours cover the
    // same node vector and share entries).
    let distinct = calls * colors * (1 + CollectiveAlgo::ALL.len());
    judge_plans(&tag, &report.plans, distinct)?;
    judge_ranks(sc, &report.results)?;
    if has_faults {
        for (rank, r) in report.results.iter().enumerate() {
            if let Err((false, msg)) = r {
                if !fault_shaped(msg) {
                    return Err(viol(
                        "fault-error-surface",
                        format!(
                            "{tag}: rank {rank} surfaced a non-fault error under faults: {msg}"
                        ),
                    ));
                }
            }
        }
    }
    // The replay meets the same keys in a fresh cache under a different
    // thread interleaving: other ranks build, other ranks hit, evictions
    // fall elsewhere. Nothing observable may move.
    let replay = run_once();
    judge_host(&tag, &replay)?;
    judge_plans(&tag, &replay.plans, distinct)?;
    if replay.results != report.results || replay.makespan != report.makespan {
        return Err(viol(
            "fault-determinism",
            format!(
                "{tag}: two runs diverged (makespan {} then {})",
                report.makespan.as_secs(),
                replay.makespan.as_secs()
            ),
        ));
    }
    if replay.trace != report.trace {
        return Err(viol(
            "trace-determinism",
            format!("{tag}: two runs of one scenario recorded different traces"),
        ));
    }
    Ok(())
}

/// Fault-bearing collective invariants: every typed error is
/// fault-shaped, agreement verdicts are unanimous across the ranks that
/// completed the round, and the agreed flag equals the AND of the
/// recorded outcomes of the members that deposited.
fn check_fault_contract(
    kind: CollectiveKind,
    algo: CollectiveAlgo,
    results: &[Result<FtRecord, RankFail>],
) -> Result<(), Violation> {
    let tag = format!("{}/{}", kind.name(), algo.name());
    for (rank, r) in results.iter().enumerate() {
        let errs: [Option<&String>; 2] = match r {
            Ok((_, e, ag)) => [
                e.as_ref(),
                match ag {
                    Some(Err(m)) => Some(m),
                    _ => None,
                },
            ],
            Err((false, m)) => [Some(m), None],
            Err((true, _)) => [None, None], // value bugs were judged already
        };
        for msg in errs.into_iter().flatten() {
            if !fault_shaped(msg) {
                return Err(viol(
                    "fault-error-surface",
                    format!("{tag}: rank {rank} surfaced a non-fault error under faults: {msg}"),
                ));
            }
        }
    }
    let agreements: Vec<(usize, &(bool, Vec<usize>))> = results
        .iter()
        .enumerate()
        .filter_map(|(rank, r)| match r {
            Ok((_, _, Some(Ok(a)))) => Some((rank, a)),
            _ => None,
        })
        .collect();
    if let Some((first_rank, first)) = agreements.first() {
        for (rank, a) in &agreements[1..] {
            if a != first {
                return Err(viol(
                    "agreement-unanimity",
                    format!(
                        "{tag}: rank {rank} agreed {a:?}, rank {first_rank} agreed {first:?}"
                    ),
                ));
            }
        }
        // A member outside `failed` deposited its recorded outcome, so
        // the AND-fold is recomputable from the per-rank records. (Ranks
        // that unwound before depositing are observed dead and land in
        // `failed`; ranks that deposited and died afterwards still carry
        // their record.)
        let (flag, failed) = first;
        let expected_flag = results.iter().enumerate().all(|(rank, r)| match r {
            Ok((_, err, _)) if !failed.contains(&rank) => err.is_none(),
            _ => true,
        });
        if *flag != expected_flag {
            return Err(viol(
                "agreement-unanimity",
                format!(
                    "{tag}: agreed flag {flag} contradicts the recorded outcomes \
                     (expected {expected_flag}, failed {failed:?})"
                ),
            ));
        }
    }
    Ok(())
}

fn check_group_cycle(sc: &Scenario, model_seed: u64, cycles: usize) -> Result<(), Violation> {
    let n = sc.nodes();
    let models = (0..cycles)
        .map(|c| compile_model(&random_model(model_seed.wrapping_add(c as u64), n.min(5))))
        .collect::<Result<Vec<_>, _>>()?;
    let rt = HmpiRuntime::new(build_cluster(sc));
    let report = rt.run(|h| -> Result<(), RankFail> {
        if let Err(e) = h.recon(1.0) {
            // Typed failures are legal under faults; every rank sees the
            // same verdict, so returning keeps the run collective.
            return Err(typed(e));
        }
        for (c, model) in models.iter().enumerate() {
            match h.group_create(model) {
                Ok(g) => {
                    let members = g.members().to_vec();
                    if !distinct_below(&members, n) {
                        return Err(value_bug(format!(
                            "cycle {c}: bad member list {members:?} (world size {n})"
                        )));
                    }
                    if !g.predicted_time().is_finite() || g.predicted_time() < 0.0 {
                        return Err(value_bug(format!(
                            "cycle {c}: predicted time {} is not a sane duration",
                            g.predicted_time()
                        )));
                    }
                    let me_in = members.contains(&h.world().rank());
                    if me_in != g.is_member() {
                        return Err(value_bug(format!(
                            "cycle {c}: is_member() disagrees with the member list"
                        )));
                    }
                    if g.is_member() {
                        h.group_free(g).map_err(typed)?;
                    }
                }
                Err(e) => return Err(typed(e)),
            }
        }
        Ok(())
    });
    judge_host("group-cycle", &report)?;
    judge_ranks(sc, &report.results)
}

fn check_recon(sc: &Scenario, units: f64, rounds: usize) -> Result<(), Violation> {
    let n = sc.nodes();
    let rt = HmpiRuntime::new(build_cluster(sc));
    let report = rt.run(move |h| -> Result<(), RankFail> {
        let mut last_gen = h.estimates().generation();
        let mut failed = false;
        for round in 0..rounds {
            match h.recon(units) {
                Ok(()) => {
                    // The generation is a *change* counter: the refresh
                    // bumps it once, and each death the failure detector
                    // observes bumps it again. Fault-free that means
                    // exactly +1 per recon; with faults it must still
                    // strictly increase.
                    let gen = h.estimates().generation();
                    let ok = if sc.faults.is_empty() {
                        gen == last_gen + 1
                    } else {
                        gen > last_gen
                    };
                    if !ok {
                        return Err(value_bug(format!(
                            "round {round}: generation went {last_gen} -> {gen}"
                        )));
                    }
                    last_gen = gen;
                    let snap = h.estimates().snapshot();
                    if snap.len() != n {
                        return Err(value_bug(format!(
                            "round {round}: snapshot has {} entries for {n} nodes",
                            snap.len()
                        )));
                    }
                    for (i, &s) in snap.iter().enumerate() {
                        if !s.is_finite() {
                            return Err(value_bug(format!(
                                "round {round}: estimate for node {i} is {s}"
                            )));
                        }
                        if h.estimates().is_available(NodeId(i)) && s <= 0.0 {
                            return Err(value_bug(format!(
                                "round {round}: available node {i} estimated at {s}"
                            )));
                        }
                    }
                }
                Err(e) => {
                    failed = true;
                    let _ = e;
                }
            }
        }
        if failed {
            Err(typed("recon round failed"))
        } else {
            Ok(())
        }
    });
    judge_host("recon-rounds", &report)?;
    judge_ranks(sc, &report.results)
}

fn check_selection(sc: &Scenario, model_seed: u64, est_seed: u64) -> Result<(), Violation> {
    let n = sc.nodes();
    let cluster = build_cluster(sc);
    let placement: Vec<NodeId> = (0..n).map(NodeId).collect();
    let mut erng = StdRng::seed_from_u64(est_seed);
    let estimates =
        SpeedEstimates::from_speeds((0..n).map(|_| erng.random_range(1.0..300.0)).collect());
    let ctx = SelectionCtx {
        cluster: &cluster,
        placement: &placement,
        estimates: &estimates,
        candidates: (0..n).collect(),
        pinned_parent: est_seed.is_multiple_of(2).then_some(0),
    };
    let model = compile_model(&random_model(model_seed, n.min(4)))?;
    let mut cold = Evaluator::new(&model, &ctx);
    // Exhaustive first, so every other pick is held against the optimum.
    let exhaustive = (n <= 6).then_some(MappingAlgorithm::Exhaustive);
    let heuristics = [
        MappingAlgorithm::GreedyRefined { max_rounds: 0 },
        MappingAlgorithm::GreedyRefined { max_rounds: 2 },
        MappingAlgorithm::Annealing {
            seed: model_seed,
            iters: 30,
        },
    ];
    let mut optimum = f64::NEG_INFINITY;
    let mut first_error = None;
    for algo in exhaustive.into_iter().chain(heuristics) {
        let picked = select_mapping(algo, &model, &ctx);
        let error = picked.as_ref().err().cloned();
        let consistent = *first_error.get_or_insert_with(|| error.clone()) == error
            && picked.as_ref().map_or(true, |m| {
                let a = &m.assignment;
                cold.eval(a).to_bits() == m.predicted.to_bits()
                    && distinct_below(a, n)
                    && ctx.pinned_parent.is_none_or(|w| a[model.parent()] == w)
                    && m.predicted >= optimum
            });
        if !consistent {
            let detail = format!("{algo:?}: {picked:?}; exact {optimum:e}, first {first_error:?}");
            return Err(viol("selection-consistency", detail));
        }
        if algo == MappingAlgorithm::Exhaustive {
            optimum = picked.map_or(optimum, |m| m.predicted);
        }
    }
    Ok(())
}

fn check_shrink(sc: &Scenario, rounds: usize, units: f64) -> Result<(), Violation> {
    let n = sc.nodes();
    let crashed: Vec<usize> = sc
        .faults
        .iter()
        .filter_map(|ev| match ev {
            FaultEvent::NodeCrash { node, .. } => Some(node.0),
            _ => None,
        })
        .collect();
    // One program for every group size: `p` tasks of `units` each, with
    // `units` passed exactly as `num / den`.
    let tasks = CompiledModel::compile(
        "algorithm Tasks(int p, int num, int den) {
           coord I=p; node {I>=0: bench*(num/den);}; parent[0]; }",
    )
    .expect("the Tasks program compiles");
    let [num, den] = exact_ratio(units);
    let model_for = |p: usize| {
        tasks
            .instantiate(&[
                ParamValue::Int(p as i64),
                ParamValue::Int(num),
                ParamValue::Int(den),
            ])
            .expect("any positive group size instantiates")
    };
    let full = model_for(n);
    let rt = HmpiRuntime::new(build_cluster(sc));
    let report = rt.run(|h| -> Result<(), RankFail> {
        let group = match h.group_create(&full) {
            Ok(g) => g,
            Err(e) => return Err(typed(e)), // crash may predate the create
        };
        // A p == n model places every live rank; with everyone alive at
        // create time that is all of us.
        let comm = match group.comm() {
            Some(c) => c.clone(),
            None => return Err(typed("not a member of the full group")),
        };
        let mut saw_failure = false;
        for _ in 0..rounds {
            if h.try_compute(units).is_err() {
                return Err(typed("own node crashed")); // this rank died
            }
            if comm.barrier().is_err() {
                saw_failure = true;
                break;
            }
        }
        if !saw_failure {
            h.group_free(group).map_err(typed)?;
            return Ok(());
        }
        match h.rebuild_group(group, |survivors| Ok(model_for(survivors.len()))) {
            Ok(rebuilt) => {
                let members = rebuilt.members().to_vec();
                if let Some(&dead) = members.iter().find(|m| crashed.contains(m)) {
                    return Err(value_bug(format!(
                        "rebuilt group contains crashed rank {dead}: {members:?}"
                    )));
                }
                if rebuilt.is_member() {
                    let c = rebuilt.comm().expect("members have a comm").clone();
                    c.barrier().map_err(typed)?;
                }
                h.group_free(rebuilt).map_err(typed)?;
                Ok(())
            }
            Err(e) => Err(typed(e)),
        }
    });
    judge_host("shrink-recovery", &report)?;
    judge_ranks(sc, &report.results)
}

fn check_app(sc: &Scenario, app: AppKind) -> Result<(), Violation> {
    let n = sc.nodes();
    let cluster = build_cluster(sc);
    match app {
        AppKind::Em3d => {
            let p = n.min(3);
            let cfg = hmpi_apps::em3d::Em3dConfig::ramp(p, 6, 2.0, sc.seed);
            let system = hmpi_apps::em3d::Em3dSystem::generate(&cfg);
            lint(hmpi_apps::em3d::em3d_model(&system, 8))?;
            let mpi = hmpi_apps::em3d::run_mpi(cluster.clone(), &cfg, 2);
            let hmpi = hmpi_apps::em3d::run_hmpi(cluster, &cfg, 2, 8);
            check_members("em3d", &hmpi.members, n)?;
            if mpi.fields != hmpi.fields {
                return Err(viol(
                    "placement-neutrality",
                    "EM3D fields differ between the MPI and HMPI placements",
                ));
            }
            check_app_times("em3d", &[mpi.time, hmpi.time])
        }
        AppKind::Matmul => {
            let m = if n >= 4 { 2 } else { 1 };
            let (size, r) = (2 * m, 2);
            // At `l = m` every slice is one block wide whatever the speeds.
            let dist = hmpi_apps::matmul::GeneralizedBlockDist::homogeneous(m, m);
            lint(hmpi_apps::matmul::matmul_model(&dist, r, size))?;
            let mpi = hmpi_apps::matmul::run_mpi(cluster.clone(), m, size, r, Some(m));
            let hmpi = hmpi_apps::matmul::run_hmpi(cluster, m, size, r, Some(m));
            check_members("matmul", &hmpi.members, n)?;
            if mpi.c != hmpi.c {
                return Err(viol(
                    "placement-neutrality",
                    "matmul products differ between the MPI and HMPI placements",
                ));
            }
            check_app_times("matmul", &[mpi.time, hmpi.time])
        }
        AppKind::Nbody => {
            let p = n.min(3);
            let cfg = hmpi_apps::nbody::NbodyConfig::ramp(p, 2, 2.0, sc.seed);
            lint(hmpi_apps::nbody::nbody_model(&cfg, 1))?;
            let mpi = hmpi_apps::nbody::run_mpi(cluster.clone(), &cfg, 2, 1);
            let hmpi = hmpi_apps::nbody::run_hmpi(cluster, &cfg, 2, 1);
            check_members("nbody", &hmpi.members, n)?;
            if mpi.groups != hmpi.groups {
                return Err(viol(
                    "placement-neutrality",
                    "N-body trajectories differ between the MPI and HMPI placements",
                ));
            }
            check_app_times("nbody", &[mpi.time, hmpi.time])
        }
    }
}

/// Compiles and instantiates a generated model program, holding it to
/// `model-roundtrip` and `model-lint`.
pub(crate) fn compile_model(prog: &ModelProgram) -> Result<ModelInstance, Violation> {
    let tree = parse_program(&prog.src)
        .map_err(|e| viol("model-roundtrip", format!("{e}\n{}", prog.src)))?;
    let printed = print_program(&tree);
    if parse_program(&printed).ok().as_ref() != Some(&tree) {
        return Err(viol(
            "model-roundtrip",
            format!("{}\nprinted as\n{printed}", prog.src),
        ));
    }
    let compiled = CompiledModel::from_program(tree, None)
        .map_err(|e| viol("model-lint", format!("{e}\n{}", prog.src)))?;
    lint(compiled.instantiate(&prog.params))
}

/// `model-lint`: the model instantiates, and its scheme performs every
/// declared volume in full.
fn lint<M: PerformanceModel>(model: Result<M, EvalError>) -> Result<M, Violation> {
    match model.and_then(|m| analyze(&m).map(|report| (m, report.findings))) {
        Ok((m, findings)) if findings.is_empty() => Ok(m),
        verdict => Err(viol("model-lint", format!("{:?}", verdict.map(|(_, f)| f)))),
    }
}

/// `x` as `[num, den]` with `den` a power of two: `num / den` evaluates
/// back to `x` exactly whenever `x * 2^62` is an integer.
fn exact_ratio(x: f64) -> [i64; 2] {
    let mut den = 1i64;
    while (x * den as f64).fract() != 0.0 && den < 1 << 62 {
        den *= 2;
    }
    [(x * den as f64) as i64, den]
}

/// What every member list and assignment must be: distinct world ranks.
fn distinct_below(ranks: &[usize], n: usize) -> bool {
    (0..ranks.len()).all(|i| ranks[i] < n && !ranks[..i].contains(&ranks[i]))
}

fn check_members(app: &str, members: &[usize], n: usize) -> Result<(), Violation> {
    if distinct_below(members, n) {
        return Ok(());
    }
    Err(viol(
        "value-integrity",
        format!("{app}: HMPI member list {members:?} invalid for world size {n}"),
    ))
}

fn check_app_times(app: &str, times: &[f64]) -> Result<(), Violation> {
    for &t in times {
        if !t.is_finite() || t < 0.0 {
            return Err(viol(
                "value-integrity",
                format!("{app}: virtual time {t} is not a sane duration"),
            ));
        }
    }
    Ok(())
}
