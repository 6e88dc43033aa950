//! p2p substrate throughput micro-bench
//! (`figures -- throughput` → `BENCH_throughput.json`).
//!
//! The substrate rework split p2p traffic into an eager protocol (inline
//! payloads, no per-message heap allocation) and a rendezvous protocol
//! (arena-leased zero-copy buffers), and replaced the single
//! `Mutex<Vec<Envelope>>` mailbox — front-to-back scan to match, `Vec::remove`
//! to claim — with per-sender lanes feeding an indexed matcher
//! (per-`(ctx, src)` `VecDeque`s plus wildcard order tickets).
//!
//! This bench races the two mailbox structures head to head. The legacy
//! side is a faithful replica of the pre-rework mailbox (same lock shape,
//! same scan-and-remove matching, same per-message `Vec<u8>` payload,
//! same 25 ms guard poll); the new side is the real
//! [`mpisim::p2p::Mailbox`] driven through its public posting/matching
//! API with real [`Payload`] representations, including pool-leased
//! rendezvous buffers.
//!
//! Three phases per point:
//!
//! * **burst** — `k` senders flood all messages, then the receiver drains
//!   with specific-source round-robin receives. This is the fan-in shape
//!   collectives produce, and it is where the legacy structure collapses:
//!   each claim near the queue head shifts the entire tail
//!   (`Vec::remove`), so draining `n` queued messages costs `O(n²)`
//!   envelope moves. The indexed matcher pops each one in `O(1)`.
//! * **backlog** — same flood-then-drain, but with an unexpected-message
//!   backlog parked on a *different context plane* (the shape a
//!   collective fan-in leaves behind while p2p traffic continues). The
//!   legacy mailbox is one flat `Vec` across all planes, so every match
//!   walks the entire backlog before reaching its message; the indexed
//!   matcher keys queues by `(ctx, src)` and never looks at it.
//! * **steady** — senders and receiver run concurrently, so queues stay
//!   shallow and the comparison isolates per-message constant costs
//!   (allocation vs inline/lease, lock traffic, wakeups).
//!
//! CI gates (checked by `figures -- throughput`, release build):
//!
//! * burst eager (≤ 256 B) messages/sec ≥ [`EAGER_SPEEDUP_GATE`] × legacy;
//! * burst rendezvous (≥ 64 KiB) bytes/sec ≥ [`RENDEZVOUS_SPEEDUP_GATE`] ×
//!   legacy;
//! * absolute eager msgs/sec no more than 10 % below the conservative
//!   checked-in baseline (`crates/bench/baselines/throughput_baseline.json`);
//! * no rendezvous lease leaked by the bench itself.

use mpisim::p2p::{Envelope, Mailbox, Pattern, Payload};
use mpisim::pool::BufferPool;
use std::hint::black_box;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use hetsim::SimTime;

/// Minimum burst-eager speedup (new vs legacy msgs/sec) the CI gate demands.
pub const EAGER_SPEEDUP_GATE: f64 = 5.0;

/// Minimum burst-rendezvous speedup (new vs legacy bytes/sec) the CI gate
/// demands.
pub const RENDEZVOUS_SPEEDUP_GATE: f64 = 2.0;

// ---------------------------------------------------------------------------
// Legacy mailbox replica
// ---------------------------------------------------------------------------

/// The pre-rework envelope: a heap `Vec<u8>` payload per message.
struct LegacyEnvelope {
    ctx: u64,
    src: usize,
    tag: i32,
    data: Vec<u8>,
}

/// Faithful replica of the pre-rework mailbox: one `Mutex<Vec<Envelope>>`
/// guarded by a condvar, matching by front-to-back scan, claiming by
/// `Vec::remove(i)`, and waking sleepers on a 25 ms guard poll — the
/// structure this PR replaced (see git history of `mpisim::p2p`).
struct LegacyMailbox {
    inner: Mutex<Vec<LegacyEnvelope>>,
    cond: Condvar,
}

/// The legacy guard-poll period (the old `GUARD_POLL`).
const LEGACY_GUARD_POLL: Duration = Duration::from_millis(25);

impl LegacyMailbox {
    fn new() -> Self {
        LegacyMailbox {
            inner: Mutex::new(Vec::new()),
            cond: Condvar::new(),
        }
    }

    fn post(&self, env: LegacyEnvelope) {
        self.inner.lock().unwrap().push(env);
        self.cond.notify_all();
    }

    /// Blocking matched receive, exactly as the old `recv_match`: scan the
    /// queue front to back for the first match, `Vec::remove` it, else
    /// sleep out a guard-poll period and rescan.
    fn recv(&self, ctx: u64, src: Option<usize>, tag: Option<i32>) -> LegacyEnvelope {
        let mut q = self.inner.lock().unwrap();
        loop {
            if let Some(i) = q.iter().position(|e| {
                e.ctx == ctx
                    && src.is_none_or(|s| s == e.src)
                    && tag.is_none_or(|t| t == e.tag)
            }) {
                return q.remove(i);
            }
            let (guard, _) = self.cond.wait_timeout(q, LEGACY_GUARD_POLL).unwrap();
            q = guard;
        }
    }
}

// ---------------------------------------------------------------------------
// Measurement points
// ---------------------------------------------------------------------------

/// One (phase, protocol, fan-in, size) measurement of both mailboxes.
#[derive(Debug, Clone)]
pub struct ThroughputPoint {
    /// "burst" (flood then drain), "backlog" (flood then drain behind an
    /// unexpected-message backlog on another plane), or "steady"
    /// (concurrent produce/consume).
    pub phase: &'static str,
    /// Unexpected messages parked on an unrelated context plane for the
    /// duration of the timed section (zero outside the backlog phase).
    pub backlog: usize,
    /// "eager" (inline payloads) or "rendezvous" (pool-leased payloads).
    pub protocol: &'static str,
    /// Number of concurrent senders (fan-in width).
    pub senders: usize,
    /// Payload size in bytes.
    pub size: usize,
    /// Total messages moved per side.
    pub msgs: usize,
    /// Wall-clock seconds for the legacy mailbox replica.
    pub legacy_s: f64,
    /// Wall-clock seconds for the new substrate mailbox.
    pub new_s: f64,
    /// Whether this point participates in the speedup CI gates.
    pub gated: bool,
}

impl ThroughputPoint {
    /// Legacy messages per second.
    pub fn legacy_msgs_s(&self) -> f64 {
        self.msgs as f64 / self.legacy_s
    }

    /// New-substrate messages per second.
    pub fn new_msgs_s(&self) -> f64 {
        self.msgs as f64 / self.new_s
    }

    /// New-substrate payload bytes per second.
    pub fn new_bytes_s(&self) -> f64 {
        self.new_msgs_s() * self.size as f64
    }

    /// Legacy payload bytes per second.
    pub fn legacy_bytes_s(&self) -> f64 {
        self.legacy_msgs_s() * self.size as f64
    }

    /// Throughput ratio, new over legacy (same for msgs/sec and bytes/sec).
    pub fn speedup(&self) -> f64 {
        self.legacy_s / self.new_s
    }
}

/// The whole benchmark.
#[derive(Debug, Clone)]
pub struct ThroughputBench {
    /// Every measured point, in sweep order.
    pub points: Vec<ThroughputPoint>,
    /// Leases still outstanding in the bench's pool after all points ran —
    /// must be zero (arena hygiene gate).
    pub pool_outstanding: usize,
}

impl ThroughputBench {
    fn gated<'a>(&'a self, protocol: &'a str) -> impl Iterator<Item = &'a ThroughputPoint> + 'a {
        self.points
            .iter()
            .filter(move |p| p.gated && p.protocol == protocol)
    }

    /// Worst gated eager speedup (msgs/sec, new vs legacy) — the ≥ 5× gate.
    pub fn min_eager_speedup(&self) -> f64 {
        self.gated("eager")
            .map(ThroughputPoint::speedup)
            .fold(f64::INFINITY, f64::min)
    }

    /// Worst gated rendezvous speedup (bytes/sec) — the ≥ 2× gate.
    pub fn min_rendezvous_speedup(&self) -> f64 {
        self.gated("rendezvous")
            .map(ThroughputPoint::speedup)
            .fold(f64::INFINITY, f64::min)
    }

    /// Most conservative absolute eager throughput on the new substrate
    /// (msgs/sec, minimum over gated eager points) — compared against the
    /// checked-in baseline for the regression gate.
    pub fn eager_msgs_s(&self) -> f64 {
        self.gated("eager")
            .map(ThroughputPoint::new_msgs_s)
            .fold(f64::INFINITY, f64::min)
    }
}

// ---------------------------------------------------------------------------
// Drivers
// ---------------------------------------------------------------------------

/// Context id used for every benched message (a single p2p plane).
const CTX: u64 = 1;

/// Context id of the unexpected-message backlog (a different plane, the
/// way collective traffic is segregated from p2p traffic).
const BG_CTX: u64 = 2;

/// Payload size of each parked backlog message.
const BG_SIZE: usize = 64;

/// Builds the payload a sender posts on the new substrate: inline for
/// eager-sized messages, a pool lease filled from the template for
/// rendezvous-sized ones — the same representations `Comm::send` produces.
fn new_payload(template: &[u8], pool: &Arc<BufferPool>, eager: bool) -> Payload {
    if eager {
        Payload::inline_from(template)
    } else {
        let mut lease = pool.lease(template.len());
        lease.buf_mut().extend_from_slice(template);
        Payload::Pooled(lease)
    }
}

fn legacy_payload(template: &[u8]) -> Vec<u8> {
    let mut v = Vec::with_capacity(template.len());
    v.extend_from_slice(template);
    v
}

/// Consumes a received payload the way an application would: touch the
/// bytes so neither side can skip materialising the message.
fn consume(bytes: &[u8], sink: &mut u64) {
    if let (Some(first), Some(last)) = (bytes.first(), bytes.last()) {
        *sink += *first as u64 + *last as u64;
    }
}

/// Times the legacy replica: `k` senders each move `per_sender` messages of
/// `size` bytes to one receiver. In burst mode the flood completes before
/// the drain starts; in steady mode they run concurrently. The drain is a
/// specific-source round-robin, the access pattern collective fan-in
/// produces.
fn run_legacy(k: usize, per_sender: usize, size: usize, burst: bool, backlog: usize) -> f64 {
    let mb = LegacyMailbox::new();
    let template = vec![0xA5u8; size];
    let total = k * per_sender;
    let mut sink = 0u64;
    // Park the unexpected backlog (untimed): in the legacy structure it
    // lands in the same flat Vec every receive scans.
    for i in 0..backlog {
        mb.post(LegacyEnvelope {
            ctx: BG_CTX,
            src: i % k,
            tag: 9,
            data: vec![0u8; BG_SIZE],
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
                    mb.post(LegacyEnvelope {
                        ctx: CTX,
                        src: s,
                        tag: 0,
                        data: legacy_payload(template),
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
            let env = mb.recv(CTX, Some(i % k), Some(0));
            consume(&env.data, &mut sink);
        }
    });
    black_box(sink);
    start.elapsed().as_secs_f64()
}

/// Times the new substrate over the identical traffic pattern, driving the
/// real [`Mailbox`] through `post_lane`/`recv_match`.
fn run_new(
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
    // Park the same unexpected backlog (untimed): it sits in its own
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
        // Settle the parked messages into the indexed store (untimed),
        // mirroring the legacy side's untimed queue build-up.
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
                        payload: new_payload(template, pool, eager),
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
) -> ThroughputPoint {
    let burst = phase != "steady";
    // Warm both sides once (thread spawn, allocator, pool free lists), then
    // take the better of two timed runs to shed scheduler noise.
    run_legacy(k, per_sender.min(32), size, burst, backlog.min(256));
    run_new(k, per_sender.min(32), size, burst, backlog.min(256), pool);
    let legacy_s = (0..2)
        .map(|_| run_legacy(k, per_sender, size, burst, backlog))
        .fold(f64::INFINITY, f64::min);
    let new_s = (0..2)
        .map(|_| run_new(k, per_sender, size, burst, backlog, pool))
        .fold(f64::INFINITY, f64::min);
    ThroughputPoint {
        phase,
        backlog,
        protocol,
        senders: k,
        size,
        msgs: k * per_sender,
        legacy_s,
        new_s,
        gated,
    }
}

/// Unexpected-message backlog depth for the gated rendezvous point.
/// Unexpected-queue blowup is a classic MPI pathology (fan-in senders
/// outrunning a receiver park tens of thousands of unmatched messages);
/// at this depth the legacy flat Vec no longer fits in L2, so every scan
/// walks it at DRAM latency, while the indexed matcher never looks at it.
const RDV_BACKLOG: usize = 131_072;

/// Runs the full sweep. `quick` trims the ungated sweep dimensions but
/// keeps the gated points at full depth, so the speedup gates mean the
/// same thing in both modes.
pub fn run(quick: bool) -> ThroughputBench {
    let pool = BufferPool::new();
    let mut points = Vec::new();

    // Gated burst eager sweep: message-size axis at fixed fan-in. Queue
    // depth (k * per_sender) is what exposes the legacy O(n²) drain, so
    // quick mode keeps it.
    let eager_sizes: &[usize] = if quick { &[8, 256] } else { &[8, 64, 256] };
    for &size in eager_sizes {
        points.push(measure("burst", "eager", 8, 2000, size, 0, true, &pool));
    }

    // Ungated world-size axis: same total traffic, narrower fan-in.
    if !quick {
        for &k in &[2usize, 4] {
            points.push(measure("burst", "eager", k, 16_000 / k, 256, 0, false, &pool));
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
        points.push(measure("burst", "rendezvous", 8, 250, 64 * 1024, 0, false, &pool));
        points.push(measure("burst", "rendezvous", 8, 100, 256 * 1024, 0, false, &pool));
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
        points.push(measure("steady", "rendezvous", 4, 32, 1 << 20, 0, false, &pool));
    }

    ThroughputBench {
        points,
        pool_outstanding: pool.outstanding(),
    }
}

// ---------------------------------------------------------------------------
// Rendering
// ---------------------------------------------------------------------------

fn human_size(size: usize) -> String {
    if size >= 1 << 20 {
        format!("{}MiB", size >> 20)
    } else if size >= 1 << 10 {
        format!("{}KiB", size >> 10)
    } else {
        format!("{size}B")
    }
}

/// Text-table rendering.
pub fn render(b: &ThroughputBench) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "# p2p mailbox throughput: legacy scan/remove mailbox vs lane+indexed substrate"
    );
    let _ = writeln!(
        out,
        "{:>7} {:>10} {:>3} {:>7} {:>6} {:>7} {:>13} {:>13} {:>12} {:>8} {:>5}",
        "phase", "protocol", "k", "size", "msgs", "parked", "legacy [m/s]", "new [m/s]", "new [MB/s]", "speedup", "gate"
    );
    for p in &b.points {
        let _ = writeln!(
            out,
            "{:>7} {:>10} {:>3} {:>7} {:>6} {:>7} {:>13.0} {:>13.0} {:>12.1} {:>7.1}x {:>5}",
            p.phase,
            p.protocol,
            p.senders,
            human_size(p.size),
            p.msgs,
            p.backlog,
            p.legacy_msgs_s(),
            p.new_msgs_s(),
            p.new_bytes_s() / 1e6,
            p.speedup(),
            if p.gated { "yes" } else { "-" }
        );
    }
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "worst gated eager speedup:      {:.1}x (gate: >= {EAGER_SPEEDUP_GATE:.0}x msgs/sec)",
        b.min_eager_speedup()
    );
    let _ = writeln!(
        out,
        "worst gated rendezvous speedup: {:.1}x (gate: >= {RENDEZVOUS_SPEEDUP_GATE:.0}x bytes/sec)",
        b.min_rendezvous_speedup()
    );
    let _ = writeln!(
        out,
        "eager msgs/sec (conservative):  {:.0} (regression gate vs checked-in baseline)",
        b.eager_msgs_s()
    );
    let _ = writeln!(
        out,
        "pool leases outstanding:        {} (gate: 0)",
        b.pool_outstanding
    );
    out
}

/// Serialises the benchmark to JSON (hand-formatted; the workspace's serde
/// shim has no serializer).
pub fn to_json(b: &ThroughputBench) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "{{");
    let _ = writeln!(out, "  \"min_eager_speedup\": {:.3},", b.min_eager_speedup());
    let _ = writeln!(
        out,
        "  \"min_rendezvous_speedup\": {:.3},",
        b.min_rendezvous_speedup()
    );
    let _ = writeln!(out, "  \"eager_msgs_per_s\": {:.1},", b.eager_msgs_s());
    let _ = writeln!(out, "  \"pool_outstanding\": {},", b.pool_outstanding);
    let _ = writeln!(out, "  \"points\": [");
    let n = b.points.len();
    for (i, p) in b.points.iter().enumerate() {
        let comma = if i + 1 == n { "" } else { "," };
        let _ = writeln!(
            out,
            "    {{\"phase\": \"{}\", \"protocol\": \"{}\", \"senders\": {}, \"size\": {}, \
             \"msgs\": {}, \"backlog\": {}, \"legacy_msgs_per_s\": {:.1}, \
             \"new_msgs_per_s\": {:.1}, \"legacy_bytes_per_s\": {:.1}, \
             \"new_bytes_per_s\": {:.1}, \"speedup\": {:.3}, \"gated\": {}}}{comma}",
            p.phase,
            p.protocol,
            p.senders,
            p.size,
            p.msgs,
            p.backlog,
            p.legacy_msgs_s(),
            p.new_msgs_s(),
            p.legacy_bytes_s(),
            p.new_bytes_s(),
            p.speedup(),
            p.gated
        );
    }
    let _ = writeln!(out, "  ]");
    let _ = writeln!(out, "}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    // The hard >= 5x / >= 2x gates run in `figures -- throughput` on a
    // release build; these tests run under the debug profile, where the new
    // substrate's per-message constants are unoptimised, so they assert a
    // loose floor plus the structural invariants.

    #[test]
    fn burst_points_beat_legacy_and_leak_nothing() {
        let b = run(true);
        assert!(b.points.iter().any(|p| p.protocol == "eager" && p.gated));
        assert!(b.points.iter().any(|p| p.protocol == "rendezvous" && p.gated));
        for p in b.points.iter().filter(|p| p.gated) {
            assert!(
                p.speedup() > 1.2,
                "{} {} {} at {}B: speedup {:.2}x — indexed drain not beating scan/remove",
                p.phase,
                p.protocol,
                p.senders,
                p.size,
                p.speedup()
            );
        }
        assert_eq!(b.pool_outstanding, 0, "bench leaked rendezvous leases");
    }

    #[test]
    fn json_reports_gates_and_points() {
        let b = run(true);
        let j = to_json(&b);
        assert!(j.contains("\"min_eager_speedup\""));
        assert!(j.contains("\"min_rendezvous_speedup\""));
        assert!(j.contains("\"eager_msgs_per_s\""));
        assert!(j.contains("\"rendezvous\""));
        assert!(j.contains("\"pool_outstanding\": 0"));
    }
}
