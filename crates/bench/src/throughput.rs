//! p2p substrate throughput micro-bench
//! (`figures -- throughput` → `BENCH_throughput.json`).
//!
//! p2p traffic is split into an eager protocol (inline payloads, no
//! per-message heap allocation) and a rendezvous protocol (arena-leased
//! zero-copy buffers), delivered through per-sender lanes feeding an indexed
//! matcher (per-`(ctx, src)` `VecDeque`s plus wildcard order tickets). This
//! bench drives the real [`mpisim::p2p::Mailbox`] through its public
//! posting/matching API with real [`Payload`] representations, including
//! pool-leased rendezvous buffers.
//!
//! Three phases per point:
//!
//! * **burst** — `k` senders flood all messages, then the receiver drains
//!   with specific-source round-robin receives. This is the fan-in shape
//!   collectives produce: a flat scan-and-remove queue drains `n` queued
//!   messages in `O(n²)` envelope moves, the indexed matcher pops each one
//!   in `O(1)`.
//! * **backlog** — same flood-then-drain, but with an unexpected-message
//!   backlog parked on a *different context plane* (the shape a
//!   collective fan-in leaves behind while p2p traffic continues). The
//!   indexed matcher keys queues by `(ctx, src)` and never looks at it.
//! * **steady** — senders and receiver run concurrently, so queues stay
//!   shallow and the point isolates per-message constant costs
//!   (inline/lease, lock traffic, wakeups).
//!
//! The mailbox this one replaced (one `Mutex<Vec<Envelope>>`, front-to-back
//! scan, `Vec::remove`) used to be raced here as a bench-only replica; its
//! last measured table is frozen in
//! `crates/bench/baselines/throughput_baseline.json` as history, and the CI
//! gates (checked by `figures -- throughput`, release build) are absolute
//! floors read from the same file:
//!
//! * burst eager (≤ 256 B) messages/sec, minimum over the gated points;
//! * backlog rendezvous (64 KiB) bytes/sec — twice what the legacy mailbox
//!   moved on the same point;
//! * no rendezvous lease leaked by the bench itself.

use crate::report::{Report, Value};
use mpisim::p2p::{Envelope, Mailbox, Pattern, Payload};
use mpisim::pool::BufferPool;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use hetsim::SimTime;

/// The floors the gates enforce and, as history, the legacy mailbox's last
/// measured table.
const BASELINE: &str = include_str!("../baselines/throughput_baseline.json");

/// One (phase, protocol, fan-in, size) measurement.
struct Point {
    /// "burst" (flood then drain), "backlog" (flood then drain behind an
    /// unexpected-message backlog on another plane), or "steady"
    /// (concurrent produce/consume).
    phase: &'static str,
    /// "eager" (inline payloads) or "rendezvous" (pool-leased payloads).
    protocol: &'static str,
    /// Number of concurrent senders (fan-in width).
    senders: usize,
    /// Payload size in bytes.
    size: usize,
    /// Total messages moved.
    msgs: usize,
    /// Unexpected messages parked on an unrelated context plane for the
    /// duration of the timed section (zero outside the backlog phase).
    backlog: usize,
    /// Wall-clock seconds, best of two runs.
    wall_s: f64,
    /// Whether this point participates in the CI floors.
    gated: bool,
}

impl Point {
    fn msgs_per_s(&self) -> f64 {
        self.msgs as f64 / self.wall_s
    }

    fn bytes_per_s(&self) -> f64 {
        self.msgs_per_s() * self.size as f64
    }
}

/// Context id used for every benched message (a single p2p plane).
const CTX: u64 = 1;

/// Context id of the unexpected-message backlog (a different plane, the
/// way collective traffic is segregated from p2p traffic).
const BG_CTX: u64 = 2;

/// Payload size of each parked backlog message.
const BG_SIZE: usize = 64;

/// Builds the payload a sender posts: inline for eager-sized messages, a
/// pool lease filled from the template for rendezvous-sized ones — the same
/// representations `Comm::send` produces.
fn payload(template: &[u8], pool: &Arc<BufferPool>, eager: bool) -> Payload {
    if eager {
        Payload::inline_from(template)
    } else {
        let mut lease = pool.lease(template.len());
        lease.buf_mut().extend_from_slice(template);
        Payload::Pooled(lease)
    }
}

/// Consumes a received payload the way an application would: touch the
/// bytes so the message has to be materialised.
fn consume(bytes: &[u8], sink: &mut u64) {
    if let (Some(first), Some(last)) = (bytes.first(), bytes.last()) {
        *sink += *first as u64 + *last as u64;
    }
}

/// Times `k` senders each moving `per_sender` messages of `size` bytes to
/// one receiver through the real [`Mailbox`] (`post_lane`/`recv_match`). In
/// burst mode the flood completes before the drain starts; in steady mode
/// they run concurrently. The drain is a specific-source round-robin, the
/// access pattern collective fan-in produces.
fn time_traffic(
    k: usize,
    per_sender: usize,
    size: usize,
    burst: bool,
    backlog: usize,
    pool: &Arc<BufferPool>,
) -> f64 {
    let mb = Mailbox::for_world(k);
    let template = vec![0xA5u8; size];
    let eager = size <= mpisim::EAGER_LIMIT;
    let total = k * per_sender;
    let mut sink = 0u64;
    // Park the unexpected backlog (untimed): it sits in its own
    // (BG_CTX, src) queues and the timed receives never touch it.
    let bg = [0u8; BG_SIZE];
    for i in 0..backlog {
        mb.post_lane(Envelope {
            ctx: BG_CTX,
            src_world: i % k,
            tag: 9,
            payload: Payload::inline_from(&bg),
            sent_at: SimTime::from_secs(0.0),
            arrival: SimTime::from_secs(0.0),
            seq: i as u64,
            xfer: None,
        });
    }
    if backlog > 0 {
        // Settle the parked messages into the indexed store (untimed).
        let _ = mb.try_probe(Pattern {
            ctx: BG_CTX,
            src_world: Some(0),
            tag: Some(9),
        });
    }
    let start = Instant::now();
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for s in 0..k {
            let mb = &mb;
            let template = &template;
            handles.push(scope.spawn(move || {
                for _ in 0..per_sender {
                    mb.post_lane(Envelope {
                        ctx: CTX,
                        src_world: s,
                        tag: 0,
                        payload: payload(template, pool, eager),
                        sent_at: SimTime::from_secs(0.0),
                        arrival: SimTime::from_secs(0.0),
                        seq: 0,
                        xfer: None,
                    });
                }
            }));
        }
        if burst {
            for h in handles {
                h.join().unwrap();
            }
        }
        for i in 0..total {
            let env = mb.recv_match(Pattern {
                ctx: CTX,
                src_world: Some(i % k),
                tag: Some(0),
            });
            let msg = env.into_msg();
            consume(&msg, &mut sink);
        }
    });
    black_box(sink);
    start.elapsed().as_secs_f64()
}

// The positional args read as a sweep-table row at the call sites.
#[allow(clippy::too_many_arguments)]
fn measure(
    phase: &'static str,
    protocol: &'static str,
    k: usize,
    per_sender: usize,
    size: usize,
    backlog: usize,
    gated: bool,
    pool: &Arc<BufferPool>,
) -> Point {
    let burst = phase != "steady";
    // Warm once at full depth (thread spawn, pool free lists, and the
    // allocator arenas a deep flood's cold-miss leases are carved from),
    // then take the better of two timed runs to shed scheduler noise.
    time_traffic(k, per_sender, size, burst, backlog, pool);
    let wall_s = (0..2)
        .map(|_| time_traffic(k, per_sender, size, burst, backlog, pool))
        .fold(f64::INFINITY, f64::min);
    Point {
        phase,
        protocol,
        senders: k,
        size,
        msgs: k * per_sender,
        backlog,
        wall_s,
        gated,
    }
}

/// Unexpected-message backlog depth for the gated rendezvous point.
/// Unexpected-queue blowup is a classic MPI pathology (fan-in senders
/// outrunning a receiver park tens of thousands of unmatched messages);
/// at this depth a flat queue no longer fits in L2, so every scan would
/// walk it at DRAM latency, while the indexed matcher never looks at it.
const RDV_BACKLOG: usize = 131_072;

/// Runs the full sweep. `quick` trims the ungated sweep dimensions but
/// keeps the gated points at full depth, so the floors mean the same thing
/// in both modes.
pub fn run(quick: bool) -> Report {
    let pool = BufferPool::new();
    let mut points = Vec::new();

    // Gated burst eager sweep: message-size axis at fixed fan-in, at full
    // queue depth (k * per_sender) in quick mode too.
    let eager_sizes: &[usize] = if quick { &[8, 256] } else { &[8, 64, 256] };
    for &size in eager_sizes {
        points.push(measure("burst", "eager", 8, 2000, size, 0, true, &pool));
    }

    // Ungated world-size axis: same total traffic, narrower fan-in.
    if !quick {
        for &k in &[2usize, 4] {
            points.push(measure(
                "burst",
                "eager",
                k,
                16_000 / k,
                256,
                0,
                false,
                &pool,
            ));
        }
    }

    // Gated rendezvous point: large-message fan-in drained from behind a
    // parked unexpected-message backlog on another plane.
    points.push(measure(
        "backlog",
        "rendezvous",
        8,
        150,
        64 * 1024,
        RDV_BACKLOG,
        true,
        &pool,
    ));

    // Ungated rendezvous axes: clean burst (allocator vs pool under deep
    // queues) and larger sizes.
    if !quick {
        points.push(measure(
            "burst",
            "rendezvous",
            8,
            250,
            64 * 1024,
            0,
            false,
            &pool,
        ));
        points.push(measure(
            "burst",
            "rendezvous",
            8,
            100,
            256 * 1024,
            0,
            false,
            &pool,
        ));
    }

    // Ungated steady-state points: shallow queues, per-message constants.
    points.push(measure(
        "steady",
        "eager",
        4,
        if quick { 500 } else { 2000 },
        64,
        0,
        false,
        &pool,
    ));
    if !quick {
        points.push(measure(
            "steady",
            "rendezvous",
            4,
            32,
            1 << 20,
            0,
            false,
            &pool,
        ));
    }

    let pool_outstanding = pool.outstanding();

    let floors = hetsim::json::parse(BASELINE).expect("baseline is valid JSON");
    let floor = |key: &str| floors.get(key).and_then(|v| v.as_f64()).expect(key);
    // The most conservative gated figure per protocol.
    let worst = |protocol: &str, figure: fn(&Point) -> f64| {
        (points.iter())
            .filter(|p| p.gated && p.protocol == protocol)
            .map(figure)
            .fold(f64::INFINITY, f64::min)
    };
    let eager = worst("eager", Point::msgs_per_s);
    let rendezvous = worst("rendezvous", Point::bytes_per_s);

    let mut r = Report::new(
        "throughput",
        "p2p mailbox throughput: per-sender lanes + indexed matcher, eager and rendezvous",
    );
    r.summary = vec![
        ("eager_msgs_per_s", Value::Fixed(eager, 1)),
        ("pool_outstanding", pool_outstanding.into()),
    ];
    let row = |p: &Point| {
        vec![
            ("phase", p.phase.into()),
            ("protocol", p.protocol.into()),
            ("senders", p.senders.into()),
            ("size", p.size.into()),
            ("msgs", p.msgs.into()),
            ("backlog", p.backlog.into()),
            ("new_msgs_per_s", Value::Fixed(p.msgs_per_s(), 1)),
            ("new_bytes_per_s", Value::Fixed(p.bytes_per_s(), 1)),
            ("gated", p.gated.into()),
        ]
    };
    r.tables.push(("points", points.iter().map(row).collect()));
    let claim = format!("no rendezvous lease leaked ({pool_outstanding} outstanding)");
    r.gate(pool_outstanding == 0, claim);
    let at_least = floor("eager_msgs_per_s");
    let claim = format!("burst eager {eager:.0} msgs/s at or above the {at_least:.0} floor");
    r.gate(eager >= at_least, claim);
    let at_least = floor("rendezvous_bytes_per_s");
    let claim = format!("backlog rendezvous {rendezvous:.3e} B/s at or above {at_least:.3e}");
    r.gate(rendezvous >= at_least, claim);
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::Fields;

    // The absolute floors are release-build figures checked by `figures --
    // throughput`; these tests run under the debug profile, so they assert
    // the structural invariants only.
    #[test]
    fn both_protocols_are_gated_and_nothing_leaks() {
        let r = run(true);
        let gated = |protocol: &str| {
            let row = |row: &Fields| row[1].1 == protocol.into() && row[8].1 == true.into();
            r.tables[0].1.iter().any(row)
        };
        assert!(gated("eager") && gated("rendezvous"));
        assert!(r.gates[0].ok, "{}", r.gates[0].what);
    }
}
