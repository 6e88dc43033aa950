//! The Chrome `trace_event` exporter, validated by actually reading the
//! JSON back (via `hetsim::json`): the document parses, every event
//! carries the `ph`/`pid`/`tid`/`ts`/`dur` fields Perfetto expects and
//! timestamps are monotone per rank. This is the one export → parse round
//! trip; simcheck checks every scenario's trace in memory
//! (`Trace::check_well_formed`), which this file also runs. Exercised over
//! a real traced run mixing compute, p2p and engine collectives.

use hetsim::json::{parse, JsonValue};
use hetsim::{Link, Protocol, SimTime, TopologyBuilder, Trace, TraceEvent, TraceKind};
use mpisim::{ReduceOp, Universe, UniverseConfig};
use std::sync::Arc;

fn cluster(n: usize) -> Arc<hetsim::Cluster> {
    let mut b = TopologyBuilder::new();
    for i in 0..n {
        b = b.node(format!("h{i}"), 80.0 + 15.0 * i as f64);
    }
    Arc::new(
        b.intra_switch(Link::new(1e-4, 1e7, Protocol::Tcp))
            .build()
            .into_parts()
            .0,
    )
}

/// A traced run with a bit of everything in it.
fn traced_run(p: usize) -> Trace {
    let u = Universe::with_config(cluster(p), UniverseConfig::new().tracing(true));
    let report = u.run(move |proc| {
        let world = proc.world();
        proc.compute(10.0 * (world.rank() + 1) as f64);
        // Ring sendrecv.
        let right = (world.rank() + 1) % p;
        let left = (world.rank() + p - 1) % p;
        world
            .sendrecv::<i64, i64>(&[world.rank() as i64], right, 5, left, 5)
            .unwrap();
        // Engine collectives (spans plus inner transfers).
        let mut buf = vec![world.rank() as f64; 64];
        world.bcast_into(&mut buf, 0).unwrap();
        world.allreduce_eq_f64(&buf, ReduceOp::Sum).unwrap();
    });
    report.trace.expect("tracing was enabled")
}

#[test]
fn chrome_export_parses_and_is_well_formed() {
    let p = 4;
    let trace = traced_run(p);
    assert!(!trace.events.is_empty());
    let doc = parse(&trace.to_chrome_json()).expect("exporter must emit valid JSON");

    assert_eq!(
        doc.get("displayTimeUnit").and_then(JsonValue::as_str),
        Some("ms")
    );
    let events = doc
        .get("traceEvents")
        .and_then(JsonValue::as_array)
        .expect("traceEvents array");
    assert_eq!(events.len(), trace.events.len());

    let mut last_ts = vec![0.0f64; p];
    let mut global_last = 0.0f64;
    for ev in events {
        // The complete-event fields Perfetto requires.
        assert_eq!(ev.get("ph").and_then(JsonValue::as_str), Some("X"));
        assert_eq!(ev.get("pid").and_then(JsonValue::as_f64), Some(0.0));
        assert!(!ev.get("name").unwrap().as_str().unwrap().is_empty());
        assert!(!ev.get("cat").unwrap().as_str().unwrap().is_empty());
        let tid = ev.get("tid").and_then(JsonValue::as_f64).unwrap();
        assert_eq!(tid.fract(), 0.0, "tid must be an integer rank");
        let tid = tid as usize;
        assert!(tid < p, "tid {tid} outside 0..{p}");
        let ts = ev.get("ts").and_then(JsonValue::as_f64).unwrap();
        let dur = ev.get("dur").and_then(JsonValue::as_f64).unwrap();
        assert!(ts >= 0.0 && dur >= 0.0, "negative time: ts={ts} dur={dur}");
        // Events are drained sorted by (start, rank): timestamps are
        // monotone globally, hence per rank too.
        assert!(ts >= global_last, "ts {ts} went backwards (global)");
        assert!(ts >= last_ts[tid], "ts {ts} went backwards on rank {tid}");
        global_last = ts;
        last_ts[tid] = ts;
    }
}

#[test]
fn spans_nest_per_rank() {
    let p = 4;
    let trace = traced_run(p);
    // Within a rank, two spans either touch disjointly or nest (a
    // collective span contains its inner transfers); partial overlap
    // would render as garbage in Perfetto and signals a broken clock.
    for rank in 0..p {
        assert!(
            trace.events.iter().any(|e| e.rank == rank),
            "rank {rank} traced nothing"
        );
    }
    assert_eq!(trace.check_well_formed(p), Ok(()));
}

#[test]
fn exporter_escapes_hostile_strings() {
    // A hand-built trace with every character class the escaper handles:
    // quotes, backslashes, newlines, tabs and raw control bytes.
    let nasty = "he said \"hi\\\" then\nleft\tquickly\u{1}";
    let mut ev = TraceEvent::new(0, TraceKind::Marker, "marker", SimTime::ZERO);
    ev.dur = SimTime::from_secs(1.0);
    ev.info = Some(nasty.to_string());
    ev.bytes = 17;
    ev.peer = Some(3);
    ev.wait = SimTime::from_secs(0.25);
    let trace = Trace { events: vec![ev] };

    let doc = parse(&trace.to_chrome_json()).expect("hostile strings must still parse");
    let events = doc.get("traceEvents").unwrap().as_array().unwrap();
    let args = events[0].get("args").unwrap();
    // The decoded string round-trips exactly.
    assert_eq!(args.get("info").and_then(JsonValue::as_str), Some(nasty));
    assert_eq!(args.get("bytes").and_then(JsonValue::as_f64), Some(17.0));
    assert_eq!(args.get("peer").and_then(JsonValue::as_f64), Some(3.0));
    assert_eq!(
        args.get("wait_us").and_then(JsonValue::as_f64),
        Some(0.25e6)
    );
}

#[test]
fn untraced_runs_export_nothing() {
    let u = Universe::new(cluster(2));
    let report = u.run(|proc| proc.compute(1.0));
    assert!(report.trace.is_none(), "tracing must be strictly opt-in");

    // An empty trace still exports a valid document.
    let doc = parse(&Trace { events: vec![] }.to_chrome_json()).unwrap();
    assert_eq!(doc.get("traceEvents").unwrap().as_array().unwrap().len(), 0);
}
