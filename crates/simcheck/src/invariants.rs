//! The table of invariants every run is judged by, and the judge.
//!
//! A workload (`exec.rs`) only runs the stack and returns one `Run` record
//! per universe run: every rank's outcome, the `RunReport` (pool,
//! wake-ups, plans, trace, makespan) and, for a run made twice, the
//! replay's, the scenario with its fault plan, and the oracle values the
//! workload compares against (the serial fold each rank holds its output
//! to, the price a makespan must match, the cheapest pinned algorithm
//! `Auto` must find, the MPI run an HMPI run must agree with). One judge
//! walks the table `ROWS` over every run, in order. A row is one
//! invariant: a stable label, a predicate saying which runs it applies to,
//! a check that reaches a verdict or finds nothing to judge, and a
//! one-line doc. The rows' docs are the list of invariants; DESIGN.md §11
//! prints them as a table. As in an MP net, an invariant is a property of
//! a run's trace and outputs, not of the code that made them.
//!
//! [`batch`] counts, per row, the scenarios it applied to and those on
//! which its check reached a verdict, and fails when a row applied but
//! never reached one: a check that stopped firing shows up there.

use crate::exec::execute;
use crate::scenario::Scenario;
use hmpi::{Mapping, MappingAlgorithm, SelectError};
use mpisim::CollectiveAlgo::{self, Hierarchical};
use mpisim::RunReport;
use std::collections::BTreeMap;
use std::fmt;

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

pub(crate) fn viol(invariant: &'static str, detail: impl Into<String>) -> Violation {
    Violation {
        invariant,
        detail: detail.into(),
    }
}

/// One invariant of the table.
struct Row {
    /// Stable kebab-case label: violations, the shrinker and the corpus
    /// repros quote it.
    label: &'static str,
    /// Which runs it applies to.
    applies: fn(&Run) -> bool,
    /// The check, made where the predicate holds.
    check: fn(&Run) -> Verdict,
    /// What the invariant says, in one line.
    doc: &'static str,
}

/// A check's outcome: `None` when the run gave it nothing to judge.
type Verdict = Option<Result<(), String>>;

/// The invariants, in the order the judge walks them over each run.
#[rustfmt::skip]
const ROWS: [Row; 18] = [
    Row { label: "no-panic", applies: |_| true, check: no_panic,
        doc: "the stack ends every scenario in values or typed errors: a panic is a bug" },
    Row { label: "model-roundtrip", applies: generated, check: |r| model(r, "model-roundtrip"),
        doc: "a generated model parses, and printing and re-parsing it gives the same tree" },
    Row { label: "model-lint", applies: |r| generated(r) || app(r), check: |r| model(r, "model-lint"),
        doc: "every model a run selects with compiles, instantiates and performs its volumes" },
    Row { label: "pool-leak", applies: ran, check: pool_leak,
        doc: "after every run, every rendezvous buffer lease is back in the universe's pool" },
    Row { label: "no-missed-wakeup", applies: ran, check: wakeups,
        doc: "no blocked wait slept out its backstop while a doorbell ring was due" },
    Row { label: "plan-cache-coherence", applies: |r| r.keys > 0, check: plans,
        doc: "hits + built == lookups, and built <= the distinct calls issued + evicted plans" },
    Row { label: "value-integrity", applies: |r| ran(r) || app(r), check: values,
        doc: "payloads and every collective's output are bit-exact; members and times are sane" },
    Row { label: "fault-free-completion", applies: |r| ran(r) && fault_free(r), check: completion,
        doc: "with no injected faults, every rank finishes without error" },
    Row { label: "trace-well-formed", applies: |r| trace(r).is_some(), check: well_formed,
        doc: "a trace is sorted, names only its ranks, has sane times and nested spans" },
    Row { label: "fault-error-surface", applies: faulty_calls, check: surface,
        doc: "every error a faulty collective run surfaces is fault-shaped, never torn state" },
    Row { label: "agreement-unanimity", applies: faulty_calls, check: agreement,
        doc: "after faulty calls, one agreement verdict, whose flag ANDs the depositors' outcomes" },
    Row { label: "fault-determinism", applies: replayed, check: replay,
        doc: "a run made twice replays every rank's outcome and the makespan exactly" },
    Row { label: "trace-determinism", applies: |r| matches!(r.shape, Shape::Storm), check: traces,
        doc: "a storm made twice, its plan cache hit and built by other ranks, traces the same" },
    Row { label: "timeof-parity", applies: |r| fault_free(r) && priced(r), check: timeof,
        doc: "fault-free, a made call's price is its makespan within TIMEOF_REL_BOUND" },
    Row { label: "auto-selection", applies: |r| matches!(r.shape, Shape::Auto(..)), check: auto,
        doc: "Auto picks the cheapest pinned price, or a strictly cheaper hierarchical plan" },
    Row { label: "estimate-discipline", applies: |r| matches!(r.shape, Shape::Recon),
        check: estimates,
        doc: "recon advances the generation (+1 fault-free) and leaves finite, positive speeds" },
    Row { label: "selection-consistency", applies: |r| matches!(r.shape, Shape::Select(..)),
        check: consistent,
        doc: "mappings are injective, parent-pinned, priced as a cold Evaluator does, >= Exhaustive" },
    Row { label: "placement-neutrality", applies: app, check: neutral,
        doc: "a kernel's outputs are bit-identical under the MPI and the HMPI placement" },
];

/// What made a run, with the oracle values only that kind of run has.
pub(crate) enum Shape {
    /// The workload panicked before it returned its runs.
    Panicked(String),
    /// A point-to-point ring or random pattern.
    P2p,
    /// A collective priced and made with one pinned algorithm.
    Pinned(CollectiveAlgo),
    /// A collective priced under `Auto`, and made only when `Auto` picks
    /// the hierarchical plan on a fault-free scenario. The oracle is the
    /// cheapest pinned algorithm and its price.
    Auto(CollectiveAlgo, f64),
    /// A storm of calls on split sub-communicators, made twice.
    Storm,
    /// Recon, `group_create` and `group_free` cycles on generated models.
    Group,
    /// Recon rounds.
    Recon,
    /// Compute and barrier rounds until a crash, then `rebuild_group`.
    Shrink,
    /// Every selection algorithm on one generated model (no universe): the
    /// parent processor and the world rank it is pinned to, and each
    /// algorithm's pick with a cold `Evaluator`'s price bits.
    Select(
        Option<(usize, usize)>,
        Vec<(MappingAlgorithm, Result<Mapping, SelectError>, u64)>,
    ),
    /// A kernel under the MPI and the HMPI placement (its own universes):
    /// the HMPI run's members, both virtual times, and whether the outputs
    /// are bit-identical.
    App(Vec<usize>, [f64; 2], bool),
}

/// How a rank's part of a run failed.
#[derive(Clone, Debug, PartialEq)]
pub(crate) enum Fail {
    /// A value the rank held to its oracle came out wrong: always a
    /// violation.
    Bug(String),
    /// A typed runtime error: legal when the scenario injects faults.
    Typed(String),
}

pub(crate) fn typed(e: impl fmt::Debug) -> Fail {
    Fail::Typed(format!("{e:?}"))
}

/// What a rank recorded besides its value checks.
#[derive(Clone, Debug, Default, PartialEq)]
pub(crate) struct Rec {
    /// The first price the rank asked for: the algorithm and its time.
    pub(crate) price: Option<(CollectiveAlgo, f64)>,
    /// The typed error that ended the rank's calls on a faulty run (the
    /// rank went on to agree), or its first failed recon round.
    pub(crate) err: Option<String>,
    /// The post-call agreement on a faulty run: flag and failed ranks, or
    /// why the rank could not finish the round.
    pub(crate) agreed: Option<Result<(bool, Vec<usize>), String>>,
    /// The estimate generation before the first recon, then the
    /// generation and every node's `(speed, available)` after each
    /// successful round.
    pub(crate) rounds: Vec<(u64, Vec<(f64, bool)>)>,
}

pub(crate) type Report = RunReport<Result<Rec, Fail>>;

/// What one run of a workload left for the judge.
pub(crate) struct Run<'s> {
    pub(crate) sc: &'s Scenario,
    pub(crate) shape: Shape,
    /// Names the run in violation details.
    pub(crate) tag: String,
    /// Compiling, round-tripping and linting the run's models.
    pub(crate) model: Result<(), Violation>,
    pub(crate) report: Option<Report>,
    /// The same run made again in a fresh universe.
    pub(crate) replay: Option<Report>,
    /// The distinct plan keys the run's collective calls can have built.
    pub(crate) keys: usize,
}

impl<'s> Run<'s> {
    pub(crate) fn new(
        sc: &'s Scenario,
        shape: Shape,
        tag: impl Into<String>,
        report: Option<Report>,
    ) -> Self {
        let (model, replay, keys, tag) = (Ok(()), None, 0, tag.into());
        Run {
            sc,
            shape,
            tag,
            model,
            report,
            replay,
            keys,
        }
    }

    fn results(&self) -> &[Result<Rec, Fail>] {
        self.report.as_ref().map_or(&[], |rep| &rep.results)
    }

    pub(crate) fn rank0(&self) -> Option<&Rec> {
        self.results().first()?.as_ref().ok()
    }

    /// Every typed error a rank recorded, with the rank.
    fn errors(&self) -> Vec<(usize, &str)> {
        let mut errs = Vec::new();
        for (rank, outcome) in self.results().iter().enumerate() {
            match outcome {
                Err(Fail::Typed(msg)) => errs.push((rank, msg.as_str())),
                Err(Fail::Bug(_)) => {}
                Ok(rec) => {
                    let agreed = rec.agreed.iter().filter_map(|a| a.as_ref().err());
                    errs.extend(rec.err.iter().chain(agreed).map(|m| (rank, m.as_str())));
                }
            }
        }
        errs
    }
}

pub(crate) fn fault_free(r: &Run) -> bool {
    r.sc.faults.is_empty()
}

/// The run went through a universe and left its report.
fn ran(r: &Run) -> bool {
    r.report.is_some()
}

fn trace<'a>(r: &'a Run) -> Option<&'a hetsim::Trace> {
    r.report.as_ref()?.trace.as_ref()
}

fn generated(r: &Run) -> bool {
    matches!(r.shape, Shape::Group | Shape::Select(..))
}

fn app(r: &Run) -> bool {
    matches!(r.shape, Shape::App(..))
}

/// A collective run whose call is priced first.
fn priced(r: &Run) -> bool {
    matches!(r.shape, Shape::Pinned(_) | Shape::Auto(..))
}

/// A pinned collective or a storm on a faulty scenario: its ranks agree
/// after their calls.
pub(crate) fn faulty_calls(r: &Run) -> bool {
    !fault_free(r) && matches!(r.shape, Shape::Pinned(_) | Shape::Storm)
}

/// A storm, or a pinned collective on a faulty scenario: the workload
/// makes it twice.
pub(crate) fn replayed(r: &Run) -> bool {
    matches!(r.shape, Shape::Storm) || faulty_calls(r)
}

fn ensure(ok: bool, detail: impl FnOnce() -> String) -> Result<(), String> {
    ok.then_some(()).ok_or_else(detail)
}

fn holds(ok: bool, detail: impl FnOnce() -> String) -> Verdict {
    Some(ensure(ok, detail))
}

/// Holds `each` on the run's report and on its replay's.
fn each_report(r: &Run, each: impl Fn(&Report) -> Result<(), String>) -> Verdict {
    Some(r.report.iter().chain(&r.replay).try_for_each(each))
}

fn no_panic(r: &Run) -> Verdict {
    match &r.shape {
        Shape::Panicked(msg) => Some(Err(msg.clone())),
        _ => Some(Ok(())),
    }
}

fn model(r: &Run, label: &str) -> Verdict {
    match &r.model {
        Ok(()) => Some(Ok(())),
        Err(v) if v.invariant == label => Some(Err(v.detail.clone())),
        Err(_) => None,
    }
}

fn pool_leak(r: &Run) -> Verdict {
    each_report(r, |rep| {
        let (out, leased, high) = (rep.pool.outstanding, rep.pool.leased, rep.pool.high_water);
        ensure(out == 0, || {
            format!("{out} of {leased} leases outstanding (high water {high})")
        })
    })
}

fn wakeups(r: &Run) -> Verdict {
    each_report(r, |rep| {
        let w = &rep.wakeups;
        ensure(w.missed == 0, || {
            format!("a lost doorbell ring cost a backstop sleep: {w:?}")
        })
    })
}

fn plans(r: &Run) -> Verdict {
    each_report(r, |rep| {
        let p = &rep.plans;
        let ok = p.hits + p.built == p.lookups && p.built <= r.keys as u64 + p.evicted;
        ensure(ok, || {
            format!("{} distinct call(s) issued, cache reports {p:?}", r.keys)
        })
    })
}

fn values(r: &Run) -> Verdict {
    if let Shape::App(members, times, _) = &r.shape {
        let n = r.sc.nodes();
        let sane = times.iter().all(|t| t.is_finite() && *t >= 0.0);
        return holds(distinct_below(members, n) && sane, || {
            format!("HMPI members {members:?} of {n}, virtual times {times:?}")
        });
    }
    let bug = r
        .results()
        .iter()
        .enumerate()
        .find_map(|(rank, outcome)| match outcome {
            Err(Fail::Bug(msg)) => Some(format!("rank {rank}: {msg}")),
            _ => None,
        });
    Some(bug.map_or(Ok(()), Err))
}

fn completion(r: &Run) -> Verdict {
    let first = r
        .errors()
        .first()
        .map(|(rank, msg)| format!("rank {rank} errored: {msg}"));
    Some(first.map_or(Ok(()), Err))
}

fn well_formed(r: &Run) -> Verdict {
    Some(trace(r)?.check_well_formed(r.results().len()))
}

/// Typed errors a fault plan is allowed to surface. Anything else escaping
/// a crashy collective (truncation, count mismatches, torn internal state)
/// is a contract violation, not a legal fault outcome.
fn fault_shaped(msg: &str) -> bool {
    [
        "NodeFailed",
        "PeerTerminated",
        "LinkDown",
        "Timeout",
        "Deadlock",
    ]
    .iter()
    .any(|p| msg.starts_with(p))
}

fn surface(r: &Run) -> Verdict {
    Some(r.errors().into_iter().try_for_each(|(rank, msg)| {
        ensure(fault_shaped(msg), || {
            format!("rank {rank} surfaced a non-fault error: {msg}")
        })
    }))
}

fn agreement(r: &Run) -> Verdict {
    let results = r.results();
    let agreed: Vec<(usize, &(bool, Vec<usize>))> = results
        .iter()
        .enumerate()
        .filter_map(|(k, o)| Some((k, o.as_ref().ok()?.agreed.as_ref()?.as_ref().ok()?)))
        .collect();
    let &(first_rank, first) = agreed.first()?;
    if let Some((rank, a)) = agreed.iter().find(|(_, a)| *a != first) {
        return Some(Err(format!(
            "rank {rank} agreed {a:?}, rank {first_rank} agreed {first:?}"
        )));
    }
    // A member outside `failed` deposited its recorded outcome, so the
    // AND-fold is recomputable from the per-rank records. (Ranks that
    // unwound before depositing are observed dead and land in `failed`;
    // ranks that deposited and died afterwards still carry their record.)
    let (flag, failed) = first;
    let mut depositors = results
        .iter()
        .enumerate()
        .filter(|(k, _)| !failed.contains(k));
    let expected = depositors.all(|(_, o)| o.as_ref().map_or(true, |rec| rec.err.is_none()));
    holds(*flag == expected, || {
        format!("agreed flag {flag}, recorded outcomes say {expected} (failed {failed:?})")
    })
}

fn replay(r: &Run) -> Verdict {
    let (a, b) = (r.report.as_ref()?, r.replay.as_ref()?);
    let diff = (0..a.results.len()).find(|&k| a.results[k] != b.results[k]);
    let diff = diff.map(|k| format!("rank {k}: {:?} then {:?}", a.results[k], b.results[k]));
    let (t, u) = (a.makespan.as_secs(), b.makespan.as_secs());
    holds(diff.is_none() && t == u, || {
        let diff = diff.unwrap_or_else(|| format!("makespan {t} then {u}"));
        format!("two runs of the same scenario diverged ({diff})")
    })
}

fn traces(r: &Run) -> Verdict {
    let (first, again) = (r.report.as_ref()?, r.replay.as_ref()?);
    holds(first.trace == again.trace, || {
        "two runs recorded different traces".into()
    })
}

fn timeof(r: &Run) -> Verdict {
    let (algo, predicted) = r.rank0()?.price?;
    // A pinned run made the call it priced; an `Auto` run made it only on
    // a hierarchical pick.
    if !matches!(r.shape, Shape::Pinned(_)) && algo != Hierarchical {
        return None;
    }
    let measured = r.report.as_ref()?.makespan.as_secs();
    holds(
        (predicted - measured).abs() <= TIMEOF_REL_BOUND * measured + 1e-9,
        || format!("predicted {predicted:.6e}s, measured {measured:.6e}s"),
    )
}

fn auto(r: &Run) -> Verdict {
    let Shape::Auto(best, flat) = r.shape else {
        return None;
    };
    let (algo, t) = r.rank0()?.price?;
    // The hierarchy-aware selector may leave the flat family only for a
    // strictly cheaper plan.
    let ok = algo == Hierarchical && t < flat || algo == best && t.to_bits() == flat.to_bits();
    let (algo, best) = (algo.name(), best.name());
    holds(ok, || {
        format!("Auto picked {algo}@{t:.6e}, flat argmin {best}@{flat:.6e}")
    })
}

fn estimates(r: &Run) -> Verdict {
    let n = r.sc.nodes();
    let mut verdict = None;
    for (rank, outcome) in r.results().iter().enumerate() {
        let rounds = outcome.as_ref().map_or(&[][..], |rec| &rec.rounds);
        for pair in rounds.windows(2) {
            let ((last, _), (gen, speeds)) = (&pair[0], &pair[1]);
            // The generation is a change counter: the refresh bumps it
            // once, and each death the failure detector observes bumps it
            // again.
            let advanced = *gen == last + 1 || !fault_free(r) && gen > last;
            let sane = |&(s, up): &(f64, bool)| s.is_finite() && (!up || s > 0.0);
            if !advanced || speeds.len() != n || !speeds.iter().all(sane) {
                let what = format!("generation {last} -> {gen}, estimates {speeds:?} of {n}");
                return Some(Err(format!("rank {rank}: {what}")));
            }
            verdict = Some(Ok(()));
        }
    }
    verdict
}

fn consistent(r: &Run) -> Verdict {
    let Shape::Select(pin, picks) = &r.shape else {
        return None;
    };
    let n = r.sc.nodes();
    let first = picks.first()?.1.as_ref().err();
    let mut optimum = f64::NEG_INFINITY;
    for (algo, picked, cold) in picks {
        let ok = picked.as_ref().err() == first
            && picked.as_ref().map_or(true, |m| {
                let a = &m.assignment;
                *cold == m.predicted.to_bits()
                    && distinct_below(a, n)
                    && pin.is_none_or(|(at, w)| a[at] == w)
                    && m.predicted >= optimum
            });
        if !ok {
            return Some(Err(format!(
                "{algo:?}: {picked:?}; exact {optimum:e}, first {first:?}"
            )));
        }
        if *algo == MappingAlgorithm::Exhaustive {
            optimum = picked.as_ref().map_or(optimum, |m| m.predicted);
        }
    }
    Some(Ok(()))
}

fn neutral(r: &Run) -> Verdict {
    let same = matches!(r.shape, Shape::App(_, _, true));
    holds(same, || {
        "outputs differ between the MPI and the HMPI placement".into()
    })
}

/// Walks the table over a scenario's runs in order, marking in `seen` each
/// row that applied and each that reached a verdict; stops at the first
/// violation.
fn judge(runs: &[Run], seen: &mut [[bool; 2]; ROWS.len()]) -> Result<(), Violation> {
    for run in runs {
        for (row, seen) in ROWS.iter().zip(seen.iter_mut()) {
            if !(row.applies)(run) {
                continue;
            }
            seen[0] = true;
            if let Some(verdict) = (row.check)(run) {
                seen[1] = true;
                verdict.map_err(|detail| viol(row.label, format!("{}: {detail}", run.tag)))?;
            }
        }
    }
    Ok(())
}

/// Runs the scenario and checks every invariant that applies.
///
/// # Errors
/// The first [`Violation`] found. Panics anywhere in the stack (including
/// the simulator's deadlock watchdog) are caught and reported as
/// `no-panic` violations rather than unwinding into the harness.
pub fn check(sc: &Scenario) -> Result<(), Violation> {
    judge(&execute(sc), &mut [[false; 2]; ROWS.len()])
}

/// What [`batch`] found.
#[derive(Debug)]
pub struct Batch {
    /// Scenarios checked, per workload label.
    pub mix: BTreeMap<&'static str, usize>,
    /// Per row of the invariant table, in table order: its label, the
    /// scenarios it applied to, and those on which its check reached a
    /// verdict.
    pub rows: Vec<(&'static str, u64, u64)>,
    /// The first scenario that broke an invariant (the batch stops there),
    /// with its position in the batch.
    pub failure: Option<(usize, Scenario, Violation)>,
}

impl Batch {
    /// The batch's verdict.
    ///
    /// # Errors
    /// The first violation, with its scenario; else the first row that
    /// applied to some scenario but never reached a verdict.
    pub fn verdict(&self) -> Result<(), String> {
        if let Some((_, sc, v)) = &self.failure {
            return Err(format!("seed {:#x}: {v}\n  scenario: {sc}", sc.seed));
        }
        let gap = ROWS
            .iter()
            .zip(&self.rows)
            .find(|(_, &(_, a, j))| a > 0 && j == 0);
        gap.map_or(Ok(()), |(row, (label, applied, _))| {
            let doc = row.doc;
            Err(format!(
                "[{label}] applied to {applied} scenario(s), judged none ({doc})"
            ))
        })
    }
}

/// The summary line: scenarios per workload, and each row's
/// `applied/judged` counts.
impl fmt::Display for Batch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mix: Vec<String> = self.mix.iter().map(|(k, v)| format!("{k}:{v}")).collect();
        let rows: Vec<String> = self
            .rows
            .iter()
            .map(|(l, a, j)| format!("{l} {a}/{j}"))
            .collect();
        let n: usize = self.mix.values().sum();
        write!(
            f,
            "{n} scenario(s) [{}] applied/judged: {}",
            mix.join(" "),
            rows.join(" ")
        )
    }
}

/// Checks scenarios in order, counting for every row the scenarios it
/// applied to and those it judged, until the first violation.
pub fn batch(scenarios: impl IntoIterator<Item = Scenario>) -> Batch {
    let rows = ROWS.iter().map(|row| (row.label, 0, 0)).collect();
    let mut b = Batch {
        mix: BTreeMap::new(),
        rows,
        failure: None,
    };
    for (i, sc) in scenarios.into_iter().enumerate() {
        *b.mix.entry(sc.workload.label()).or_default() += 1;
        let mut seen = [[false; 2]; ROWS.len()];
        let verdict = judge(&execute(&sc), &mut seen);
        for ((_, applied, judged), [a, j]) in b.rows.iter_mut().zip(seen) {
            *applied += u64::from(a);
            *judged += u64::from(j);
        }
        if let Err(v) = verdict {
            b.failure = Some((i, sc, v));
            break;
        }
    }
    b
}

/// What every member list and assignment must be: distinct world ranks.
pub(crate) fn distinct_below(ranks: &[usize], n: usize) -> bool {
    (0..ranks.len()).all(|i| ranks[i] < n && !ranks[..i].contains(&ranks[i]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_row_that_applied_but_never_reached_a_verdict_fails_the_batch() {
        let mut b = batch(std::iter::empty());
        let at = b
            .rows
            .iter()
            .position(|row| row.0 == "timeof-parity")
            .unwrap();
        b.rows[at] = ("timeof-parity", 3, 0);
        let err = b.verdict().unwrap_err();
        assert!(
            err.starts_with("[timeof-parity] applied to 3 scenario(s)"),
            "{err}"
        );
        b.rows[at].2 = 1;
        assert_eq!(b.verdict(), Ok(()));
        // A row that applied to nothing is not a gap.
        b.rows[at] = ("timeof-parity", 0, 0);
        assert_eq!(b.verdict(), Ok(()));
    }

    #[test]
    fn every_row_has_its_own_label() {
        for (i, row) in ROWS.iter().enumerate() {
            assert!(
                ROWS[..i].iter().all(|r| r.label != row.label),
                "{}",
                row.label
            );
        }
    }
}
