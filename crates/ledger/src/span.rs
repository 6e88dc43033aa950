//! Harness-side spans: host-time intervals recorded *around* calls into
//! the layers' public functions. Spans stay in memory until the run ends;
//! [`Spans::ledger`] then charges every op's wall time to the layer whose
//! span was innermost at each instant (self time = a span's duration minus
//! the part its children cover), and [`Spans::to_chrome_json`] writes them
//! for `about:tracing` / Perfetto.
//!
//! A span's layer is the part of its name before the first `.`
//! (`hmpi.recon` → `hmpi`); the per-op root span is named [`OP`] and its
//! self time is the harness's own overhead.

use crate::json::Json;
use std::collections::BTreeMap;
use std::sync::Mutex;
use std::thread::ThreadId;
use std::time::Instant;

/// Name of the per-op root span.
pub const OP: &str = "op";
/// Layer the root span's self time is charged to.
pub const HARNESS: &str = "harness";

/// Handle to an open or closed span; `None`-like when recording is off.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanId(Option<u32>);

impl SpanId {
    /// The handle handed out while recording is off.
    pub const OFF: SpanId = SpanId(None);
}

#[derive(Clone, Debug)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<u32>,
    op: u64,
    on_driver: bool,
}

/// The span recorder. One per measured run; shared by reference with the
/// rank closures that record from the host rank's thread.
#[derive(Debug)]
pub struct Spans {
    enabled: bool,
    epoch: Instant,
    driver: ThreadId,
    spans: Mutex<Vec<Span>>,
}

impl Spans {
    /// A recorder; with `enabled == false` every call is a no-op costing
    /// one branch, so the untraced run executes the same harness code.
    pub fn new(enabled: bool) -> Spans {
        Spans {
            enabled,
            epoch: Instant::now(),
            driver: std::thread::current().id(),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn push(&self, name: &'static str, parent: Option<u32>, op: u64) -> SpanId {
        let now = self.epoch.elapsed().as_nanos() as u64;
        let on_driver = std::thread::current().id() == self.driver;
        let mut spans = self
            .spans
            .lock()
            .expect("span recorder poisoned by a panicking rank");
        let op = parent.map_or(op, |p| spans[p as usize].op);
        spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent,
            op,
            on_driver,
        });
        SpanId(Some((spans.len() - 1) as u32))
    }

    /// Opens the root span of op number `op`.
    pub fn begin_op(&self, op: u64) -> SpanId {
        if !self.enabled {
            return SpanId::OFF;
        }
        self.push(OP, None, op)
    }

    /// Opens a span caused by `parent` (it inherits the parent's op id).
    pub fn begin(&self, name: &'static str, parent: SpanId) -> SpanId {
        match (self.enabled, parent.0) {
            (true, Some(p)) => self.push(name, Some(p), 0),
            _ => SpanId::OFF,
        }
    }

    /// Closes a span.
    pub fn end(&self, id: SpanId) {
        if let Some(i) = id.0 {
            let now = self.epoch.elapsed().as_nanos() as u64;
            self.spans
                .lock()
                .expect("span recorder poisoned by a panicking rank")[i as usize]
                .end_ns = now;
        }
    }

    /// Runs `f` inside a child span of `parent`, handing it the new span so
    /// it can nest further.
    pub fn scope<R>(&self, name: &'static str, parent: SpanId, f: impl FnOnce(SpanId) -> R) -> R {
        let id = self.begin(name, parent);
        let out = f(id);
        self.end(id);
        out
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.spans
            .lock()
            .expect("span recorder poisoned by a panicking rank")
            .is_empty()
    }

    /// Self time in seconds per span name, and per layer.
    pub fn ledger(&self) -> Ledger {
        let spans = self
            .spans
            .lock()
            .expect("span recorder poisoned by a panicking rank");
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
        for s in spans.iter() {
            if let Some(p) = s.parent {
                children[p as usize].push((s.start_ns, s.end_ns));
            }
        }
        let mut by_name: BTreeMap<&'static str, f64> = BTreeMap::new();
        let mut total_ns = 0u64;
        for (s, kids) in spans.iter().zip(children.iter_mut()) {
            let own = self_time_ns((s.start_ns, s.end_ns), kids);
            *by_name.entry(s.name).or_default() += own as f64 / 1e9;
            if s.parent.is_none() {
                total_ns += s.end_ns - s.start_ns;
            }
        }
        let mut by_layer: BTreeMap<&'static str, f64> = BTreeMap::new();
        for (name, secs) in &by_name {
            *by_layer.entry(layer_of(name)).or_default() += secs;
        }
        Ledger {
            by_name,
            by_layer,
            total_s: total_ns as f64 / 1e9,
        }
    }

    /// Durations in milliseconds of every span called `name`, in order.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        let spans = self
            .spans
            .lock()
            .expect("span recorder poisoned by a panicking rank");
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
            .collect()
    }

    /// The spans as a Chrome `trace_event` document: complete (`"X"`)
    /// events, `ts`/`dur` in microseconds of host time, `tid` 0 for the
    /// driver thread and 1 for the host rank's thread, the op id and the
    /// causing span in `args`.
    pub fn to_chrome_json(&self) -> String {
        let spans = self
            .spans
            .lock()
            .expect("span recorder poisoned by a panicking rank");
        let events = spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let mut args = Json::obj().with("op", s.op).with("id", i);
                if let Some(p) = s.parent {
                    args = args.with("parent", p as usize);
                }
                Json::obj()
                    .with("name", s.name)
                    .with("cat", layer_of(s.name))
                    .with("ph", "X")
                    .with("pid", 0u64)
                    .with("tid", u64::from(!s.on_driver))
                    .with("ts", s.start_ns as f64 / 1e3)
                    .with("dur", (s.end_ns - s.start_ns) as f64 / 1e3)
                    .with("args", args)
            })
            .collect::<Vec<_>>();
        Json::obj().with("traceEvents", events).render()
    }
}

/// The layer a span name belongs to.
pub fn layer_of(name: &'static str) -> &'static str {
    if name == OP {
        HARNESS
    } else {
        name.split('.').next().unwrap_or(name)
    }
}

/// `span`'s length minus the union of the `children` intervals clipped to
/// it (children may overlap each other or stick out when they were recorded
/// from another thread). Sorts `children` in place.
pub fn self_time_ns(span: (u64, u64), children: &mut [(u64, u64)]) -> u64 {
    let (start, end) = span;
    children.sort_unstable();
    let mut covered = 0u64;
    let mut frontier = start;
    for &(cs, ce) in children.iter() {
        let cs = cs.clamp(frontier, end);
        let ce = ce.clamp(frontier, end);
        covered += ce - cs;
        frontier = frontier.max(ce);
    }
    (end - start) - covered
}

/// Where the host time of the recorded ops went.
#[derive(Clone, Debug, Default)]
pub struct Ledger {
    /// Self time per span name, seconds.
    pub by_name: BTreeMap<&'static str, f64>,
    /// Self time per layer, seconds.
    pub by_layer: BTreeMap<&'static str, f64>,
    /// Summed duration of the root spans, seconds.
    pub total_s: f64,
}

impl Ledger {
    /// A layer's share of the ops' wall time (0 when nothing was recorded).
    pub fn share(&self, layer: &str) -> f64 {
        if self.total_s <= 0.0 {
            return 0.0;
        }
        self.by_layer.get(layer).copied().unwrap_or(0.0) / self.total_s
    }

    /// Share of op wall time charged to a named layer rather than left in
    /// the root span.
    pub fn accounted(&self) -> f64 {
        if self.total_s <= 0.0 {
            return 0.0;
        }
        1.0 - self.share(HARNESS)
    }

    /// Aligned text table, largest share first.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut rows: Vec<(&str, f64)> = self.by_name.iter().map(|(k, v)| (*k, *v)).collect();
        rows.sort_by(|a, b| b.1.total_cmp(&a.1));
        let mut out = String::new();
        for (name, secs) in rows {
            let share = if self.total_s > 0.0 {
                secs / self.total_s * 100.0
            } else {
                0.0
            };
            let _ = writeln!(out, "    {name:<28} {secs:>10.4} s {share:>6.1} %");
        }
        let _ = writeln!(
            out,
            "    {:<28} {:>10.4} s {:>6.1} % accounted",
            "(ops)",
            self.total_s,
            self.accounted() * 100.0
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // No children: the whole span.
        assert_eq!(self_time_ns((10, 110), &mut []), 100);
        // Disjoint children.
        assert_eq!(self_time_ns((0, 100), &mut [(10, 20), (50, 80)]), 60);
        // Overlapping children count once; order does not matter.
        assert_eq!(self_time_ns((0, 100), &mut [(40, 70), (10, 50)]), 40);
        // A child nested in another adds nothing.
        assert_eq!(self_time_ns((0, 100), &mut [(10, 90), (20, 30)]), 20);
        // Children sticking out of the parent are clipped to it.
        assert_eq!(self_time_ns((50, 100), &mut [(0, 60), (90, 200)]), 30);
        // Fully covered.
        assert_eq!(self_time_ns((0, 10), &mut [(0, 10)]), 0);
    }

    #[test]
    fn ledger_shares_sum_to_one_and_charge_the_innermost_span() {
        let spans = Spans::new(true);
        let op = spans.begin_op(7);
        spans.scope("hmpi.recon", op, |recon| {
            spans.scope("mpisim.bcast", recon, |_| {
                std::thread::sleep(std::time::Duration::from_millis(5));
            });
        });
        spans.scope("perfmodel.compile", op, |_| {
            std::thread::sleep(std::time::Duration::from_millis(5));
        });
        spans.end(op);
        let ledger = spans.ledger();
        let sum: f64 = ledger.by_layer.values().sum();
        assert!(
            (sum - ledger.total_s).abs() < 1e-9,
            "{sum} vs {}",
            ledger.total_s
        );
        // The sleeping happened inside mpisim.bcast, not in its parent.
        assert!(ledger.by_name["mpisim.bcast"] > 0.004);
        assert!(ledger.by_name["hmpi.recon"] < 0.002);
        assert!(ledger.accounted() > 0.9, "{}", ledger.render());
        assert_eq!(layer_of("hmpi.recon"), "hmpi");
        assert_eq!(layer_of(OP), HARNESS);
    }

    #[test]
    fn children_inherit_the_op_id_and_the_export_parses() {
        let spans = Spans::new(true);
        let op = spans.begin_op(42);
        let child = spans.begin("apps.kernel", op);
        spans.end(child);
        spans.end(op);
        let doc = hetsim::json::parse(&spans.to_chrome_json()).expect("chrome export parses");
        let events = doc.get("traceEvents").and_then(|e| e.as_array()).unwrap();
        assert_eq!(events.len(), 2);
        for ev in events {
            assert_eq!(
                ev.get("args")
                    .and_then(|a| a.get("op"))
                    .and_then(|o| o.as_f64()),
                Some(42.0)
            );
        }
        assert_eq!(
            events[1]
                .get("args")
                .and_then(|a| a.get("parent"))
                .and_then(|o| o.as_f64()),
            Some(0.0)
        );
    }

    #[test]
    fn a_disabled_recorder_records_nothing() {
        let spans = Spans::new(false);
        let op = spans.begin_op(1);
        assert_eq!(op, SpanId::OFF);
        let got = spans.scope("hmpi.recon", op, |id| id);
        assert_eq!(got, SpanId::OFF);
        spans.end(op);
        assert!(spans.is_empty());
        assert_eq!(spans.ledger().accounted(), 0.0);
    }
}
