//! Scenario execution: each workload runs the stack and returns one `Run`
//! record per universe run, for the judge in `invariants.rs`.

use crate::gen::{random_model, ModelProgram};
use crate::invariants::{distinct_below, fault_free, faulty_calls, replayed, typed, viol};
use crate::invariants::{Fail, Rec, Run, Shape, Violation};
use crate::scenario::{AppKind, Scenario, Workload};
use hetsim::{
    Cluster, FaultEvent, FaultPlan, Link, NodeId, Protocol, SpeedEstimates, Topology,
    TopologyBuilder,
};
use hmpi::{select_mapping, Evaluator, HmpiRuntime, MappingAlgorithm, SelectionCtx};
use mpisim::CollectiveAlgo::{self, Hierarchical};
use mpisim::CollectiveKind::{self, Allgather, Allreduce, Bcast, Reduce};
use mpisim::{Comm, MpiError, ReduceOp, Universe, UniverseConfig};
use perfmodel::collective::algos_for;
use perfmodel::pretty::print_program;
use perfmodel::{
    analyze, parse_program, CompiledModel, EvalError, ModelInstance, ParamValue, PerformanceModel,
};
use rand::{Rng, SeedableRng, StdRng};
use std::panic::{self, AssertUnwindSafe};
use std::sync::Arc;

/// Runs the scenario's workload; a panic anywhere in the stack becomes
/// one run that only `no-panic` judges.
pub(crate) fn execute(sc: &Scenario) -> Vec<Run<'_>> {
    panic::catch_unwind(AssertUnwindSafe(|| run_workload(sc))).unwrap_or_else(|payload| {
        let msg = payload
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| payload.downcast_ref::<&str>().copied())
            .unwrap_or("<non-string panic>");
        let label = sc.workload.label();
        vec![Run::new(sc, Shape::Panicked(msg.to_string()), label, None)]
    })
}

/// Materialises the scenario's testbed: speeds, `rpn` ranks on each node
/// (block placement: ranks `r*k..(r+1)*k` on node `r`, so ring neighbours
/// and collective round partners share nodes and exercise the memory-bus
/// domain), the declared sites and switches, links, overrides, the
/// optional memory bus, contention model and fault plan. Public so the
/// integration tests and benches can run scenarios against the exact
/// testbed the checker uses.
pub fn build_cluster(sc: &Scenario) -> Topology {
    let tcp = |(lat, bw)| Link::new(lat, bw, Protocol::Tcp);
    let mut b = TopologyBuilder::new().intra_switch(tcp((sc.base_lat, sc.base_bw)));
    let switch = sc.effective_switch();
    for (i, &s) in sc.speeds.iter().enumerate() {
        if sc.is_hierarchical() && (i == 0 || sc.site[i] != sc.site[i - 1]) {
            b = b.site();
        } else if sc.is_hierarchical() && switch[i] != switch[i - 1] {
            b = b.switch();
        }
        b = b
            .node(format!("f{i:02}"), s)
            .ranks(sc.ranks_per_node.max(1));
    }
    if sc.is_hierarchical() {
        // Inter-site pairs ride the WAN; pairs on two switches of one site
        // the backbone, or else the WAN; explicit `ov=` overrides still win.
        if let Some(wan) = sc.wan {
            b = b.inter_site(tcp(wan));
        }
        if let Some(bb) = sc.backbone.or(sc.wan) {
            for i in 0..sc.nodes() {
                for j in (i + 1)..sc.nodes() {
                    if sc.site[i] == sc.site[j] && switch[i] != switch[j] {
                        b = b.link_between(i, j, tcp(bb));
                    }
                }
            }
        }
    }
    for o in &sc.overrides {
        b = b.link_between(o.a, o.b, tcp((o.lat, o.bw)));
    }
    if let Some((lat, bw)) = sc.mem {
        b = b.mem_bus(Link::new(lat, bw, Protocol::SharedMemory));
    }
    b.contention(sc.contention)
        .faults(FaultPlan::new(sc.faults.clone()))
        .build()
}

/// The scenario's cluster at one rank per node: the HMPI and application
/// workloads' testbed.
fn one_rank_per_node(sc: &Scenario) -> Arc<Cluster> {
    Arc::new(build_cluster(sc).into_parts().0)
}

fn universe(topology: Topology, traced: bool) -> Universe {
    Universe::from_topology(topology, UniverseConfig::new().tracing(traced))
}

fn run_workload(sc: &Scenario) -> Vec<Run<'_>> {
    let n = sc.ranks();
    match sc.workload {
        Workload::P2pRing { elems, rounds } => vec![ring(sc, elems, rounds)],
        // No pairs to message.
        Workload::P2pRandom { .. } if n < 2 => vec![Run::new(sc, Shape::P2p, "p2p-random", None)],
        Workload::P2pRandom {
            pattern_seed,
            msgs,
            max_elems,
        } => {
            vec![random(sc, pattern_seed, msgs, max_elems)]
        }
        Workload::Collective { kind, elems, root } => collective(sc, kind, elems, root),
        Workload::CollStorm {
            kind,
            elems,
            calls,
            colors,
        } => {
            let st = Storm::new(sc, kind, elems, 0, calls, colors.clamp(1, n));
            vec![storm(sc, &st, Shape::Storm)]
        }
        Workload::GroupCycle { model_seed, cycles } => vec![group_cycle(sc, model_seed, cycles)],
        Workload::ReconRounds { units, rounds } => vec![recon(sc, units, rounds)],
        Workload::Selection {
            model_seed,
            est_seed,
        } => vec![select(sc, model_seed, est_seed)],
        Workload::ShrinkRecovery { rounds, units } => vec![shrink(sc, rounds, units)],
        Workload::AppKernel { app } => vec![app_run(sc, app)],
    }
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

fn ring(sc: &Scenario, elems: usize, rounds: usize) -> Run<'_> {
    let n = sc.ranks();
    let report = universe(build_cluster(sc), true).run(|proc| {
        let world = proc.world();
        let me = world.rank();
        let (right, left) = ((me + 1) % n, (me + n - 1) % n);
        for round in 0..rounds {
            let (mine, tag) = (ring_payload(me, elems), round as i32);
            let (rx, _) = world
                .sendrecv::<i64, i64>(&mine, right, tag, left, tag)
                .map_err(typed)?;
            if rx != ring_payload(left, elems) {
                return Err(Fail::Bug(format!(
                    "round {round}: payload from {left} corrupted"
                )));
            }
        }
        Ok(Rec::default())
    });
    Run::new(sc, Shape::P2p, "p2p-ring", Some(report))
}

fn random(sc: &Scenario, pattern_seed: u64, msgs: usize, max_elems: usize) -> Run<'_> {
    let n = sc.ranks();
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
    let report = universe(build_cluster(sc), true).run(|proc| {
        let world = proc.world();
        let me = world.rank();
        for (i, &(src, dst, elems)) in pattern.iter().enumerate() {
            let tag = i as i32;
            if me == src {
                world
                    .send(&ring_payload(i, elems), dst, tag)
                    .map_err(typed)?;
            } else if me == dst {
                let (rx, status) = world.recv::<i64>(src, tag).map_err(typed)?;
                let from = (status.source, status.tag);
                if rx != ring_payload(i, elems) || from != (src, tag) {
                    return Err(Fail::Bug(format!(
                        "msg {i}: payload or status {from:?} wrong"
                    )));
                }
            }
        }
        Ok(Rec::default())
    });
    Run::new(sc, Shape::P2p, "p2p-random", Some(report))
}

/// What a collective of `kind` with `len` elements per rank from `root`
/// leaves on the communicator whose ranks are the world ranks `members`:
/// reductions are the serial left fold in ascending communicator rank,
/// which every algorithm must match bit for bit.
fn expected(kind: CollectiveKind, members: &[usize], root: usize, len: usize) -> Vec<f64> {
    let mut payloads = members.iter().map(|&w| f64_payload(w, len));
    match kind {
        Bcast => f64_payload(members[root], len),
        Allgather => payloads.flatten().collect(),
        Reduce | Allreduce => payloads.next().map_or(Vec::new(), |first| {
            payloads.fold(first, |mut acc, p| {
                acc.iter_mut().zip(&p).for_each(|(a, b)| *a += b);
                acc
            })
        }),
    }
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
    let sum = ReduceOp::Sum;
    Ok(match (kind, algo) {
        (Bcast, algo) => {
            let mut buf = contrib;
            match algo {
                Some(a) => comm.bcast_into_with(a, &mut buf, root)?,
                None => comm.bcast_into(&mut buf, root)?,
            }
            Some(buf)
        }
        (Reduce, Some(a)) => comm.reduce_eq_f64_with(a, &contrib, sum, root)?,
        (Reduce, None) => comm.reduce_eq_f64(&contrib, sum, root)?,
        (Allreduce, Some(a)) => Some(comm.allreduce_eq_f64_with(a, &contrib, sum)?),
        (Allreduce, None) => Some(comm.allreduce_eq_f64(&contrib, sum)?),
        (Allgather, Some(a)) => Some(comm.allgather_eq_with(a, &contrib)?),
        (Allgather, None) => Some(comm.allgather_eq(&contrib)?),
    })
}

/// A storm (see [`Workload::CollStorm`]): `calls` calls of `kind` on each
/// of the sub-communicators `split(rank % colors)` (the world itself for
/// one colour), call `i` moving `len + i` elements per rank from root
/// `(root + i) % p`, on the scenario's cluster. A [`Workload::Collective`]
/// is a one-colour, one-call storm.
struct Storm {
    kind: CollectiveKind,
    len: usize,
    root: usize,
    calls: usize,
    colors: usize,
    topology: Topology,
    /// Every colour's expected output of every call.
    oracle: Vec<Vec<Vec<f64>>>,
}

impl Storm {
    fn new(
        sc: &Scenario,
        kind: CollectiveKind,
        len: usize,
        root: usize,
        calls: usize,
        colors: usize,
    ) -> Self {
        let n = sc.ranks();
        let call = |m: &[usize], i| expected(kind, m, (root + i) % m.len(), len + i);
        let oracle = (0..colors)
            .map(|c| (c..n).step_by(colors).collect::<Vec<_>>())
            .map(|m| (0..calls).map(|i| call(&m, i)).collect())
            .collect();
        Storm {
            kind,
            len,
            root,
            calls,
            colors,
            topology: build_cluster(sc),
            oracle,
        }
    }
}

fn collective(sc: &Scenario, kind: CollectiveKind, elems: usize, root: usize) -> Vec<Run<'_>> {
    let n = sc.ranks();
    // Allgather's elements are the total payload, as in the bench; the
    // shrinker may have dropped the root's node.
    let len = if kind == Allgather {
        (elems / n).max(1)
    } else {
        elems
    };
    let st = Storm::new(sc, kind, len, root % n, 1, 1);
    let pinned = algos_for(kind, n).into_iter().map(Shape::Pinned);
    let mut runs: Vec<Run> = pinned.map(|shape| storm(sc, &st, shape)).collect();
    // `Auto` is held to the cheapest priced algorithm (first in tie-break
    // order), which is known only when rank 0 priced every one.
    let prices: Option<Vec<(CollectiveAlgo, f64)>> =
        runs.iter().map(|r| r.rank0()?.price).collect();
    let cheapest = prices.and_then(|p| p.into_iter().reduce(|a, c| if c.1 < a.1 { c } else { a }));
    if let Some((best, t)) = cheapest {
        runs.push(storm(sc, &st, Shape::Auto(best, t)));
    }
    runs
}

/// Makes a storm's calls as `shape` says. A storm prices each call under
/// `Auto` and every eligible algorithm pinned, then makes call `i` the
/// `i`-th way in turn; a pinned run prices and makes its call with one
/// algorithm; an `Auto` run prices under `Auto` and makes the call only on
/// a hierarchical pick where `timeof-parity` applies. Every rank holds
/// each output to `oracle`; where `agreement-unanimity` applies the ranks
/// then agree on whether their calls committed, and where
/// `fault-determinism` applies the run is made twice.
fn storm<'s>(sc: &'s Scenario, st: &Storm, shape: Shape) -> Run<'s> {
    let (kind, colors, oracle) = (st.kind, st.colors, &st.oracle);
    let pinned = match shape {
        Shape::Pinned(a) => Some(a),
        _ => None,
    };
    let auto = matches!(shape, Shape::Auto(..));
    let is_storm = matches!(shape, Shape::Storm);
    let how = pinned.map_or(if auto { "auto" } else { "storm" }, |a| a.name());
    let mut run = Run::new(sc, shape, format!("{}/{how}", kind.name()), None);
    // Every storm call has its own size, so each sub-communicator issues
    // one distinct key per call and way it is priced: one way for a pinned
    // or an `Auto` run, `Auto` and every algorithm pinned for a storm.
    run.keys = colors * st.calls * (1 + usize::from(is_storm) * CollectiveAlgo::ALL.len());
    let (agree, clean) = (faulty_calls(&run), fault_free(&run));
    let once = || {
        universe(st.topology.clone(), !auto).run(|proc| -> Result<Rec, Fail> {
            let world = proc.world();
            let color = world.rank() % colors;
            let split;
            let comm = if colors == 1 {
                &world
            } else {
                let me = world.rank() as i32;
                split = world.split(Some(color as i32), me).map_err(typed)?;
                split.as_ref().expect("every rank has a colour")
            };
            let p = comm.size();
            let mut ways = vec![pinned];
            if is_storm {
                ways.extend(algos_for(kind, p).into_iter().map(Some));
            }
            let mut rec = Rec::default();
            for i in 0..st.calls {
                let (len, root) = (st.len + i, (st.root + i) % p);
                let total = if kind == Allgather { len * p } else { len };
                for &way in &ways {
                    let price = match way {
                        Some(a) => comm
                            .predict_collective_with(kind, a, root, total, 8)
                            .map(|t| (a, t)),
                        None => comm.predict_collective(kind, root, total, 8),
                    };
                    rec.price.get_or_insert(price.map_err(typed)?);
                }
                let hier = matches!(rec.price, Some((Hierarchical, _)));
                if auto && !(hier && clean) {
                    break;
                }
                let mine = f64_payload(world.rank(), len);
                match run_kind(comm, kind, ways[i % ways.len()], mine, root) {
                    Ok(out) => {
                        let has_output = kind != Reduce || comm.rank() == root;
                        let want = has_output.then(|| &oracle[color][i][..]);
                        if out.as_deref().map(bits) != want.map(bits) {
                            let msg = format!("call {i} on colour {color} is not the serial fold");
                            return Err(Fail::Bug(msg));
                        }
                    }
                    Err(e) if agree => {
                        rec.err = Some(format!("{e:?}"));
                        break;
                    }
                    Err(e) => return Err(typed(e)),
                }
            }
            if agree {
                let agreed = comm.agree(rec.err.is_none()).map(|a| (a.flag, a.failed));
                rec.agreed = Some(agreed.map_err(|e| format!("{e:?}")));
            }
            Ok(rec)
        })
    };
    run.report = Some(once());
    // The replay meets the same keys in a fresh cache under a different
    // thread interleaving: other ranks build, other ranks hit, evictions
    // fall elsewhere, and grants stay endpoint-causal near a crash.
    if replayed(&run) {
        run.replay = Some(once());
    }
    run
}

fn group_cycle(sc: &Scenario, model_seed: u64, cycles: usize) -> Run<'_> {
    let n = sc.nodes();
    let seeds = (0..cycles as u64).map(|c| model_seed.wrapping_add(c));
    let models = seeds.map(|seed| compile_model(&random_model(seed, n.min(5))));
    let models = match models.collect::<Result<Vec<_>, _>>() {
        Ok(models) => models,
        Err(v) => {
            return Run {
                model: Err(v),
                ..Run::new(sc, Shape::Group, "group-cycle", None)
            }
        }
    };
    let report = HmpiRuntime::new(one_rank_per_node(sc)).run(|h| {
        // Typed failures are legal under faults; every rank sees the same
        // verdict, so returning keeps the run collective.
        h.recon(1.0).map_err(typed)?;
        for (c, model) in models.iter().enumerate() {
            let g = h.group_create(model).map_err(typed)?;
            let (members, t) = (g.members().to_vec(), g.predicted_time());
            let me_in = members.contains(&h.world().rank());
            if !distinct_below(&members, n) || !t.is_finite() || t < 0.0 || me_in != g.is_member() {
                let what = format!("members {members:?} of {n}, time {t}, member {me_in}");
                return Err(Fail::Bug(format!("cycle {c}: {what}")));
            }
            if g.is_member() {
                h.group_free(g).map_err(typed)?;
            }
        }
        Ok(Rec::default())
    });
    Run::new(sc, Shape::Group, "group-cycle", Some(report))
}

fn recon(sc: &Scenario, units: f64, rounds: usize) -> Run<'_> {
    let report = HmpiRuntime::new(one_rank_per_node(sc)).run(|h| {
        let est = h.estimates();
        let mut rec = Rec {
            rounds: vec![(est.generation(), Vec::new())],
            ..Rec::default()
        };
        for _ in 0..rounds {
            if let Err(e) = h.recon(units) {
                rec.err.get_or_insert(format!("{e:?}"));
                continue;
            }
            let speeds = est.snapshot().into_iter().enumerate();
            let speeds = speeds.map(|(i, s)| (s, est.is_available(NodeId(i))));
            rec.rounds.push((est.generation(), speeds.collect()));
        }
        Ok(rec)
    });
    Run::new(sc, Shape::Recon, "recon-rounds", Some(report))
}

fn select(sc: &Scenario, model_seed: u64, est_seed: u64) -> Run<'_> {
    let n = sc.nodes();
    let (cluster, placement) = (
        one_rank_per_node(sc),
        (0..n).map(NodeId).collect::<Vec<_>>(),
    );
    let mut erng = StdRng::seed_from_u64(est_seed);
    let speeds = (0..n).map(|_| erng.random_range(1.0..300.0)).collect();
    let estimates = SpeedEstimates::from_speeds(speeds);
    let ctx = SelectionCtx {
        cluster: &cluster,
        placement: &placement,
        estimates: &estimates,
        candidates: (0..n).collect(),
        pinned_parent: est_seed.is_multiple_of(2).then_some(0),
    };
    let model = match compile_model(&random_model(model_seed, n.min(4))) {
        Ok(model) => model,
        Err(v) => {
            let run = Run::new(sc, Shape::Select(None, Vec::new()), "selection", None);
            return Run {
                model: Err(v),
                ..run
            };
        }
    };
    let mut cold = Evaluator::new(&model, &ctx);
    // Exhaustive first, so every other pick is held against the optimum.
    let greedy = |max_rounds| MappingAlgorithm::GreedyRefined { max_rounds };
    let annealing = MappingAlgorithm::Annealing {
        seed: model_seed,
        iters: 30,
    };
    let exhaustive = (n <= 6).then_some(MappingAlgorithm::Exhaustive);
    let algos = exhaustive
        .into_iter()
        .chain([greedy(0), greedy(2), annealing]);
    let picks = algos.map(|algo| {
        let picked = select_mapping(algo, &model, &ctx);
        let price = picked
            .as_ref()
            .map_or(0, |m| cold.eval(&m.assignment).to_bits());
        (algo, picked, price)
    });
    let pin = ctx.pinned_parent.map(|w| (model.parent(), w));
    Run::new(sc, Shape::Select(pin, picks.collect()), "selection", None)
}

fn shrink(sc: &Scenario, rounds: usize, units: f64) -> Run<'_> {
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
        let params = [
            ParamValue::Int(p as i64),
            ParamValue::Int(num),
            ParamValue::Int(den),
        ];
        tasks
            .instantiate(&params)
            .expect("any positive group size instantiates")
    };
    let full = model_for(n);
    let report = HmpiRuntime::new(one_rank_per_node(sc)).run(|h| {
        // The crash may predate the create.
        let group = h.group_create(&full).map_err(typed)?;
        // A p == n model places every live rank; with everyone alive at
        // create time that is all of us.
        let Some(comm) = group.comm().cloned() else {
            return Err(typed("not a member of the full group"));
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
            return Ok(Rec::default());
        }
        let rebuilt = h.rebuild_group(group, |survivors| Ok(model_for(survivors.len())));
        let rebuilt = rebuilt.map_err(typed)?;
        let members = rebuilt.members().to_vec();
        if let Some(&dead) = members.iter().find(|m| crashed.contains(m)) {
            let msg = format!("rebuilt group contains crashed rank {dead}: {members:?}");
            return Err(Fail::Bug(msg));
        }
        if rebuilt.is_member() {
            let c = rebuilt.comm().expect("members have a comm");
            c.barrier().map_err(typed)?;
        }
        h.group_free(rebuilt).map_err(typed)?;
        Ok(Rec::default())
    });
    Run::new(sc, Shape::Shrink, "shrink-recovery", Some(report))
}

/// Runs a kernel under the MPI and the HMPI placement, and lints the model
/// the HMPI run selects with.
fn app_run(sc: &Scenario, app: AppKind) -> Run<'_> {
    use hmpi_apps::{em3d, matmul, nbody};
    let (n, cluster) = (sc.nodes(), one_rank_per_node(sc));
    let p = n.min(3);
    let (model, members, times, same) = match app {
        AppKind::Em3d => {
            let cfg = em3d::Em3dConfig::ramp(p, 6, 2.0, sc.seed);
            let model = lint(em3d::em3d_model(&em3d::Em3dSystem::generate(&cfg), 8)).map(drop);
            let mpi = em3d::run_mpi(cluster.clone(), &cfg, 2);
            let hmpi = em3d::run_hmpi(cluster, &cfg, 2, 8);
            (
                model,
                hmpi.members,
                [mpi.time, hmpi.time],
                mpi.fields == hmpi.fields,
            )
        }
        AppKind::Matmul => {
            let m = if n >= 4 { 2 } else { 1 };
            let (size, r) = (2 * m, 2);
            // At `l = m` every slice is one block wide whatever the speeds.
            let dist = matmul::GeneralizedBlockDist::homogeneous(m, m);
            let model = lint(matmul::matmul_model(&dist, r, size)).map(drop);
            let mpi = matmul::run_mpi(cluster.clone(), m, size, r, Some(m));
            let hmpi = matmul::run_hmpi(cluster, m, size, r, Some(m));
            (model, hmpi.members, [mpi.time, hmpi.time], mpi.c == hmpi.c)
        }
        AppKind::Nbody => {
            let cfg = nbody::NbodyConfig::ramp(p, 2, 2.0, sc.seed);
            let model = lint(nbody::nbody_model(&cfg, 1)).map(drop);
            let mpi = nbody::run_mpi(cluster.clone(), &cfg, 2, 1);
            let hmpi = nbody::run_hmpi(cluster, &cfg, 2, 1);
            (
                model,
                hmpi.members,
                [mpi.time, hmpi.time],
                mpi.groups == hmpi.groups,
            )
        }
    };
    let shape = Shape::App(members, times, same);
    Run {
        model,
        ..Run::new(sc, shape, app.name(), None)
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
