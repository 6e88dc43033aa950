//! Virtual-time tracing: cheap span/event recording for simulated runs.
//!
//! The HMPI paper's central claim is that `HMPI_Timeof` predicts an
//! algorithm's execution time *without running it*. Checking that claim
//! needs visibility into where virtual time actually goes inside a run:
//! how much each rank computed, how long it idled waiting for senders, and
//! how much raw link time its messages cost. This module provides that
//! visibility:
//!
//! * [`TraceEvent`] — one span on one rank's virtual timeline (a compute
//!   phase, a send, a receive with its idle-wait split, a recon round, a
//!   group-selection search);
//! * [`Tracer`] — a shared, thread-safe collector the simulator records
//!   into. Tracing is opt-in: when no tracer is installed the
//!   instrumentation sites cost a single `Option` check (see DESIGN.md §9
//!   for the zero-overhead-when-disabled argument);
//! * [`Trace`] — the finished, time-sorted event list, with per-rank
//!   [phase breakdowns](Trace::phases) (compute / comm / wait),
//!   [message statistics](Trace::message_stats), and a
//!   [Chrome-trace exporter](Trace::to_chrome_json) loadable in
//!   `about:tracing` / Perfetto.
//!
//! All timestamps are [`SimTime`] — virtual seconds, not wall clock.

use crate::clock::SimTime;
use std::sync::Mutex;

/// What kind of work a [`TraceEvent`] represents.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceKind {
    /// A compute phase advancing the rank's clock by `units / speed`.
    Compute,
    /// A message send (the span covers the sender-side overhead).
    Send,
    /// A message receive (the span covers the receiver's clock advance;
    /// [`TraceEvent::wait`] is the idle portion spent before the sender
    /// had even sent).
    Recv,
    /// An `HMPI_Recon` benchmark round.
    Recon,
    /// An `HMPI_Group_create` selection search.
    Selection,
    /// One collective call executed by the collective engine; the span
    /// name is the algorithm chosen and the inner sends/receives carry
    /// the actual traffic.
    Collective,
    /// A free-form marker.
    Marker,
}

impl TraceKind {
    /// Short lowercase label used as the Chrome-trace category.
    pub fn label(self) -> &'static str {
        match self {
            TraceKind::Compute => "compute",
            TraceKind::Send => "send",
            TraceKind::Recv => "recv",
            TraceKind::Recon => "recon",
            TraceKind::Selection => "selection",
            TraceKind::Collective => "collective",
            TraceKind::Marker => "marker",
        }
    }
}

/// One span on one rank's virtual timeline.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// World rank the event happened on.
    pub rank: usize,
    /// What kind of work the span covers.
    pub kind: TraceKind,
    /// True when the event belongs to a collective's communication plane
    /// rather than plain point-to-point traffic.
    pub collective: bool,
    /// Short display name.
    pub name: &'static str,
    /// Virtual start time.
    pub start: SimTime,
    /// Virtual duration (how far the span advanced the rank's clock).
    pub dur: SimTime,
    /// For [`TraceKind::Recv`]: the idle portion of `dur` spent waiting
    /// for the sender to reach its send. Zero for every other kind.
    pub wait: SimTime,
    /// Payload size in bytes (sends/receives), zero otherwise.
    pub bytes: u64,
    /// Which transport protocol carried the message ("eager" for inline
    /// payloads, "rendezvous" for arena-leased buffers); `None` for
    /// non-message events.
    pub protocol: Option<&'static str>,
    /// The peer world rank for sends/receives.
    pub peer: Option<usize>,
    /// Free-form extra detail (recon generation, selection stats, ...).
    pub info: Option<String>,
}

impl TraceEvent {
    /// A blank event of the given kind on `rank` starting at `start`;
    /// callers fill in the fields that apply.
    pub fn new(rank: usize, kind: TraceKind, name: &'static str, start: SimTime) -> Self {
        TraceEvent {
            rank,
            kind,
            collective: false,
            name,
            start,
            dur: SimTime::ZERO,
            wait: SimTime::ZERO,
            bytes: 0,
            protocol: None,
            peer: None,
            info: None,
        }
    }
}

/// A shared, thread-safe collector of [`TraceEvent`]s.
///
/// Ranks run as OS threads and record concurrently; events are kept in a
/// single mutex-protected buffer and sorted once at [`Tracer::drain`]
/// time. Recording is off the simulated clock — it never perturbs virtual
/// time.
#[derive(Debug, Default)]
pub struct Tracer {
    events: Mutex<Vec<TraceEvent>>,
}

impl Tracer {
    /// An empty tracer.
    pub fn new() -> Self {
        Tracer::default()
    }

    /// Records one event.
    pub fn record(&self, ev: TraceEvent) {
        self.events
            .lock()
            .expect("tracer poisoned by a panicking rank")
            .push(ev);
    }

    /// Number of events recorded so far.
    pub fn len(&self) -> usize {
        self.events
            .lock()
            .expect("tracer poisoned by a panicking rank")
            .len()
    }

    /// True when nothing has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Takes every recorded event, leaving the tracer empty, and returns
    /// them sorted by (start time, rank).
    pub fn drain(&self) -> Trace {
        let mut events = std::mem::take(
            &mut *self
                .events
                .lock()
                .expect("tracer poisoned by a panicking rank"),
        );
        events.sort_by(|a, b| a.start.cmp(&b.start).then(a.rank.cmp(&b.rank)));
        Trace { events }
    }
}

/// Per-rank virtual-time phase breakdown derived from a [`Trace`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RankPhases {
    /// Time spent computing.
    pub compute: SimTime,
    /// Time spent on communication proper (send overheads plus the
    /// non-idle portion of receive spans).
    pub comm: SimTime,
    /// Idle time spent waiting for senders that had not sent yet.
    pub wait: SimTime,
}

impl RankPhases {
    /// Total accounted time.
    pub fn total(&self) -> SimTime {
        self.compute + self.comm + self.wait
    }
}

/// Per-rank message counters derived from a [`Trace`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MessageStats {
    /// Messages sent.
    pub sent: usize,
    /// Messages received.
    pub received: usize,
    /// Payload bytes sent.
    pub bytes_sent: u64,
    /// Payload bytes received.
    pub bytes_received: u64,
    /// Messages sent on the eager protocol (inline payloads).
    pub eager_sent: usize,
    /// Messages sent on the rendezvous protocol (arena-leased payloads).
    pub rendezvous_sent: usize,
}

/// A finished, time-sorted trace.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Trace {
    /// The events, sorted by (start time, rank).
    pub events: Vec<TraceEvent>,
}

impl Trace {
    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when the trace holds no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Per-rank compute / comm / wait breakdown over `n_ranks` ranks.
    ///
    /// Only the primitive clock-advancing spans are summed (compute,
    /// send, recv); composite spans such as recon rounds or selection
    /// searches wrap primitives already counted and are skipped, so the
    /// breakdown never double-counts.
    pub fn phases(&self, n_ranks: usize) -> Vec<RankPhases> {
        let mut out = vec![RankPhases::default(); n_ranks];
        for ev in &self.events {
            let Some(slot) = out.get_mut(ev.rank) else {
                continue;
            };
            match ev.kind {
                TraceKind::Compute => slot.compute += ev.dur,
                TraceKind::Send => slot.comm += ev.dur,
                TraceKind::Recv => {
                    slot.wait += ev.wait;
                    slot.comm += ev.dur - ev.wait.min(ev.dur);
                }
                TraceKind::Recon
                | TraceKind::Selection
                | TraceKind::Collective
                | TraceKind::Marker => {}
            }
        }
        out
    }

    /// Per-rank message counters over `n_ranks` ranks.
    pub fn message_stats(&self, n_ranks: usize) -> Vec<MessageStats> {
        let mut out = vec![MessageStats::default(); n_ranks];
        for ev in &self.events {
            let Some(slot) = out.get_mut(ev.rank) else {
                continue;
            };
            match ev.kind {
                TraceKind::Send => {
                    slot.sent += 1;
                    slot.bytes_sent += ev.bytes;
                    match ev.protocol {
                        Some("eager") => slot.eager_sent += 1,
                        Some("rendezvous") => slot.rendezvous_sent += 1,
                        _ => {}
                    }
                }
                TraceKind::Recv => {
                    slot.received += 1;
                    slot.bytes_received += ev.bytes;
                }
                _ => {}
            }
        }
        out
    }

    /// Checks what every drained trace of an `n_ranks`-rank run must hold:
    /// events sorted by (start, rank), every rank below `n_ranks`, finite
    /// non-negative times, and per-rank spans that nest rather than
    /// partially overlap. The drain does not order start ties, so a
    /// container and its first child may tie with the child first; ties
    /// are read container-first (longer span first).
    ///
    /// # Errors
    /// A description of the first defect found.
    pub fn check_well_formed(&self, n_ranks: usize) -> Result<(), String> {
        let mut spans: Vec<Vec<(f64, f64)>> = vec![Vec::new(); n_ranks];
        for (i, ev) in self.events.iter().enumerate() {
            let (start, dur) = (ev.start.as_secs(), ev.dur.as_secs());
            if !(start.is_finite() && dur.is_finite() && start >= 0.0 && dur >= 0.0) {
                return Err(format!("event {i}: start {start} / dur {dur}"));
            }
            let Some(rank_spans) = spans.get_mut(ev.rank) else {
                return Err(format!("event {i}: rank {} of {n_ranks}", ev.rank));
            };
            if let Some(prev) = i.checked_sub(1).map(|j| &self.events[j]) {
                if (prev.start, prev.rank) > (ev.start, ev.rank) {
                    return Err(format!("event {i}: out of (start, rank) order"));
                }
            }
            rank_spans.push((start, (ev.start + ev.dur).as_secs()));
        }
        let eps = 1e-9;
        for (rank, spans) in spans.iter_mut().enumerate() {
            spans.sort_by(|a, b| a.0.total_cmp(&b.0).then(b.1.total_cmp(&a.1)));
            let mut open: Vec<f64> = Vec::new();
            for &(s, e) in spans.iter() {
                while open.last().is_some_and(|&oe| s >= oe - eps) {
                    open.pop();
                }
                if let Some(&oe) = open.last() {
                    if e > oe + eps {
                        return Err(format!(
                            "rank {rank}: span [{s}, {e}] partially overlaps [.., {oe}]"
                        ));
                    }
                }
                open.push(e);
            }
        }
        Ok(())
    }

    /// Serialises the trace in Chrome's `trace_event` JSON format
    /// (complete `"X"` events; `ts`/`dur` in microseconds of virtual
    /// time, `tid` = rank). The output loads directly in
    /// `about:tracing` and Perfetto.
    pub fn to_chrome_json(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::with_capacity(64 + self.events.len() * 160);
        out.push_str("{\"traceEvents\":[");
        for (i, ev) in self.events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let cat = if ev.collective {
                format!("{},collective", ev.kind.label())
            } else {
                ev.kind.label().to_string()
            };
            let _ = write!(
                out,
                "\n{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":0,\"tid\":{},\"ts\":{},\"dur\":{},\"args\":{{",
                escape_json(ev.name),
                cat,
                ev.rank,
                ev.start.as_secs() * 1e6,
                ev.dur.as_secs() * 1e6,
            );
            let mut first = true;
            let mut sep = |out: &mut String| {
                if !first {
                    out.push(',');
                }
                first = false;
            };
            if ev.bytes > 0 {
                sep(&mut out);
                let _ = write!(out, "\"bytes\":{}", ev.bytes);
            }
            if let Some(peer) = ev.peer {
                sep(&mut out);
                let _ = write!(out, "\"peer\":{peer}");
            }
            if let Some(protocol) = ev.protocol {
                sep(&mut out);
                let _ = write!(out, "\"protocol\":\"{protocol}\"");
            }
            if !ev.wait.is_zero() {
                sep(&mut out);
                let _ = write!(out, "\"wait_us\":{}", ev.wait.as_secs() * 1e6);
            }
            if let Some(info) = &ev.info {
                sep(&mut out);
                let _ = write!(out, "\"info\":\"{}\"", escape_json(info));
            }
            out.push_str("}}");
        }
        out.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
        out
    }
}

/// Minimal JSON string escaping for names and info fields.
fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                use std::fmt::Write as _;
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Prediction-vs-actual accuracy report for one run.
///
/// `HMPI_Timeof` prices an algorithm under the current speed estimates;
/// the simulator then measures the actual virtual makespan. The gap
/// between the two is the model error this report quantifies, alongside
/// the per-rank phase breakdown that explains *where* the measured time
/// went.
#[derive(Debug, Clone, PartialEq)]
pub struct PredictionReport {
    /// The `HMPI_Timeof` prediction for the whole run, in virtual seconds.
    pub predicted: f64,
    /// The measured virtual makespan, in seconds.
    pub measured: f64,
    /// Per-rank compute / comm / wait breakdown.
    pub phases: Vec<RankPhases>,
}

impl PredictionReport {
    /// Builds a report from a prediction, a measured makespan and the
    /// run's trace.
    pub fn new(predicted: f64, measured: SimTime, trace: &Trace, n_ranks: usize) -> Self {
        PredictionReport {
            predicted,
            measured: measured.as_secs(),
            phases: trace.phases(n_ranks),
        }
    }

    /// Signed model error as a percentage of the measured time
    /// (positive: the model over-predicted).
    pub fn error_pct(&self) -> f64 {
        if self.measured == 0.0 {
            return 0.0;
        }
        (self.predicted - self.measured) / self.measured * 100.0
    }

    /// Renders the report as an aligned text table.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "predicted {:.4} s, measured {:.4} s, model error {:+.1}%",
            self.predicted,
            self.measured,
            self.error_pct()
        );
        let _ = writeln!(
            out,
            "{:>5}  {:>12}  {:>12}  {:>12}",
            "rank", "compute [s]", "comm [s]", "wait [s]"
        );
        for (r, p) in self.phases.iter().enumerate() {
            let _ = writeln!(
                out,
                "{:>5}  {:>12.4}  {:>12.4}  {:>12.4}",
                r,
                p.compute.as_secs(),
                p.comm.as_secs(),
                p.wait.as_secs()
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(rank: usize, kind: TraceKind, start: f64, dur: f64) -> TraceEvent {
        let mut e = TraceEvent::new(rank, kind, "t", SimTime::from_secs(start));
        e.dur = SimTime::from_secs(dur);
        e
    }

    #[test]
    fn drain_sorts_by_time_then_rank() {
        let t = Tracer::new();
        t.record(ev(1, TraceKind::Compute, 2.0, 1.0));
        t.record(ev(0, TraceKind::Compute, 1.0, 1.0));
        t.record(ev(0, TraceKind::Compute, 2.0, 1.0));
        let tr = t.drain();
        assert_eq!(tr.len(), 3);
        assert_eq!(tr.events[0].start, SimTime::from_secs(1.0));
        assert_eq!(tr.events[1].rank, 0);
        assert_eq!(tr.events[2].rank, 1);
        assert!(t.is_empty(), "drain must leave the tracer empty");
    }

    #[test]
    fn phases_split_recv_into_wait_and_comm() {
        let t = Tracer::new();
        t.record(ev(0, TraceKind::Compute, 0.0, 2.0));
        let mut send = ev(0, TraceKind::Send, 2.0, 0.1);
        send.bytes = 800;
        send.peer = Some(1);
        t.record(send);
        let mut recv = ev(1, TraceKind::Recv, 0.0, 3.0);
        recv.wait = SimTime::from_secs(2.0);
        recv.bytes = 800;
        recv.peer = Some(0);
        t.record(recv);
        let tr = t.drain();
        let phases = tr.phases(2);
        assert_eq!(phases[0].compute.as_secs(), 2.0);
        assert!((phases[0].comm.as_secs() - 0.1).abs() < 1e-12);
        assert_eq!(phases[1].wait.as_secs(), 2.0);
        assert_eq!(phases[1].comm.as_secs(), 1.0);
        let stats = tr.message_stats(2);
        assert_eq!(stats[0].sent, 1);
        assert_eq!(stats[0].bytes_sent, 800);
        assert_eq!(stats[1].received, 1);
        assert_eq!(stats[1].bytes_received, 800);
    }

    #[test]
    fn composite_spans_do_not_double_count() {
        let t = Tracer::new();
        t.record(ev(0, TraceKind::Compute, 0.0, 1.0));
        t.record(ev(0, TraceKind::Recon, 0.0, 1.0));
        t.record(ev(0, TraceKind::Selection, 1.0, 0.5));
        let phases = t.drain().phases(1);
        assert_eq!(phases[0].compute.as_secs(), 1.0);
        assert_eq!(phases[0].total().as_secs(), 1.0);
    }

    #[test]
    fn chrome_json_is_well_formed() {
        let t = Tracer::new();
        let mut e = ev(3, TraceKind::Recv, 0.5, 0.25);
        e.wait = SimTime::from_secs(0.1);
        e.bytes = 64;
        e.peer = Some(1);
        e.collective = true;
        e.info = Some("tag \"7\"".into());
        t.record(e);
        let json = t.drain().to_chrome_json();
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"tid\":3"));
        assert!(json.contains("\"ts\":500000"));
        assert!(json.contains("\"dur\":250000"));
        assert!(json.contains("\"cat\":\"recv,collective\""));
        assert!(json.contains("\"bytes\":64"));
        assert!(json.contains("\\\"7\\\""), "info must be escaped");
        // Balanced braces/brackets => structurally sound for this subset.
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "unbalanced braces"
        );
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn well_formed_traces_nest_and_defects_are_named() {
        // A container with its first child tied on start and drained
        // child-first, then a disjoint span on another rank.
        let good = Trace {
            events: vec![
                ev(0, TraceKind::Send, 1.0, 0.5),
                ev(0, TraceKind::Collective, 1.0, 2.0),
                ev(1, TraceKind::Compute, 1.0, 4.0),
                ev(0, TraceKind::Recv, 2.0, 1.0),
            ],
        };
        assert_eq!(good.check_well_formed(2), Ok(()));
        assert_eq!(Trace::default().check_well_formed(0), Ok(()));

        let defect = |events: Vec<TraceEvent>, ranks: usize| {
            Trace { events }.check_well_formed(ranks).unwrap_err()
        };
        let overlap = defect(
            vec![
                ev(0, TraceKind::Collective, 0.0, 2.0),
                ev(0, TraceKind::Send, 1.0, 2.0),
            ],
            1,
        );
        assert!(overlap.contains("partially overlaps"), "{overlap}");
        let unsorted = defect(
            vec![
                ev(0, TraceKind::Compute, 2.0, 1.0),
                ev(0, TraceKind::Compute, 1.0, 1.0),
            ],
            1,
        );
        assert!(unsorted.contains("order"), "{unsorted}");
        let rank_ties = defect(
            vec![
                ev(1, TraceKind::Compute, 1.0, 1.0),
                ev(0, TraceKind::Compute, 1.0, 1.0),
            ],
            2,
        );
        assert!(rank_ties.contains("order"), "{rank_ties}");
        assert!(defect(vec![ev(2, TraceKind::Compute, 0.0, 1.0)], 2).contains("rank 2 of 2"));
        // `SimTime` refuses NaN and negative values in debug builds, so
        // only the infinite ones can be built here.
        for (start, dur) in [(f64::INFINITY, 1.0), (0.0, f64::INFINITY)] {
            let bad = defect(vec![ev(0, TraceKind::Compute, start, dur)], 1);
            assert!(bad.contains("start"), "{bad}");
        }
    }

    #[test]
    fn prediction_report_error_pct_is_signed() {
        let tr = Trace::default();
        let r = PredictionReport::new(1.2, SimTime::from_secs(1.0), &tr, 2);
        assert!((r.error_pct() - 20.0).abs() < 1e-9);
        let r = PredictionReport::new(0.8, SimTime::from_secs(1.0), &tr, 2);
        assert!((r.error_pct() + 20.0).abs() < 1e-9);
        assert!(r.render().contains("model error"));
    }
}
