//! `p2p_stream`: the point-to-point transport alone. One op is a batch of
//! 1000 delivered messages, timed on rank 0 inside the rank closure; four
//! phases, time-balanced, each in its own `Universe::run`:
//!
//! * `pingpong` — 2 ranks, 64 B eager, strict request/echo;
//! * `stream` — 2 ranks, 64 B eager, a window of 50 then a one-word ack;
//! * `rndv` — 2 ranks, 64 KiB rendezvous, a window of 8 then an ack;
//! * `fanin` — 8 senders into one `recv_any` loop over serialized NICs,
//!   so the `vtime` grant/settle arbitration runs.
//!
//! `mpisim`'s p2p / lane / pool / vtime code does all the work here and
//! `hmpi` / `perfmodel` none, so a selection or planning change must read
//! "no change" on this workload; eager beside rendezvous and parallel
//! links beside contended ones show a gain for one use that costs another.

use super::{ms_since, per_call_us, scaled, Outcome, Side, SplitMix64, Workload};
use crate::span::Spans;
use hetsim::{ContentionModel, Link, Protocol, Topology, TopologyBuilder};
use mpisim::{Comm, MpiError, Universe, UniverseConfig};
use std::collections::BTreeMap;
use std::time::Instant;

/// Messages per op.
pub const BATCH: usize = 1000;
/// Batches per phase at the calibrated run length.
pub const PINGPONG_BATCHES: usize = 190;
/// See [`PINGPONG_BATCHES`].
pub const STREAM_BATCHES: usize = 2200;
/// See [`PINGPONG_BATCHES`].
pub const RNDV_BATCHES: usize = 285;
/// See [`PINGPONG_BATCHES`].
pub const FANIN_BATCHES: usize = 7000;
/// Senders of the fan-in phase.
pub const FANIN_SENDERS: usize = 8;
/// Batches each phase runs during set-up as warm-up.
pub const WARMUP_BATCHES: usize = 2;

const TAG_DATA: i32 = 1;
const TAG_ACK: i32 = 2;
/// Multiplier stamping word 1 of every message from its sequence number.
const STAMP: u64 = 0x9E37_79B9_7F4A_7C15;

/// One two-rank phase: rank 0 sends `window` messages of `words` u64s,
/// then waits for one reply (`echo`: a full-size message it verifies;
/// otherwise a one-word ack).
#[derive(Clone, Copy, Debug)]
struct Pair {
    name: &'static str,
    words: usize,
    window: usize,
    echo: bool,
    batches: usize,
}

/// What rank 0 measured for one batch.
type Batch = (f64, f64, Result<(), String>);

/// The workload: phase sizes and the seed-derived payload.
pub struct P2pStream {
    pairs: [Pair; 3],
    fanin_batches: usize,
    /// Payload body shared by every message (words 0 and 1 are stamped per
    /// message); long enough for the largest phase.
    body: Vec<u64>,
}

fn checksum(words: &[u64]) -> u64 {
    words.iter().fold(0u64, |acc, w| acc.wrapping_add(*w))
}

/// Stamps `buf` as message number `seq`.
fn stamp(buf: &mut [u64], seq: u64) {
    buf[0] = seq;
    buf[1] = seq.wrapping_mul(STAMP);
}

/// Verifies a received message: the expected sequence number (per-pair
/// FIFO), its stamp, and the checksum of the body.
fn verify(got: &[u64], seq: u64, body_sum: u64) -> Result<(), String> {
    if got.len() < 2 || got[0] != seq {
        return Err(format!(
            "FIFO order broken: expected message {seq}, got {:?}",
            got.first()
        ));
    }
    if got[1] != seq.wrapping_mul(STAMP) || checksum(&got[2..]) != body_sum {
        return Err(format!("payload of message {seq} corrupted"));
    }
    Ok(())
}

fn two_nodes() -> Topology {
    TopologyBuilder::new()
        .intra_switch(Link::new(1e-4, 100e6, Protocol::Tcp))
        .site()
        .node("a", 100.0)
        .node("b", 100.0)
        .build()
}

fn fanin_nodes() -> Topology {
    let mut b = TopologyBuilder::new()
        .intra_switch(Link::new(1e-4, 100e6, Protocol::Tcp))
        .contention(ContentionModel::SerializedNic)
        .site();
    for i in 0..=FANIN_SENDERS {
        b = b.node(format!("n{i}"), 100.0);
    }
    b.build()
}

fn typed(e: MpiError) -> String {
    format!("{e:?}")
}

impl P2pStream {
    fn pair_rank0(&self, world: &Comm, ph: Pair, batches: usize) -> Vec<Batch> {
        let body_sum = checksum(&self.body[2..ph.words]);
        let mut buf = self.body[..ph.words].to_vec();
        let per_round = if ph.echo { ph.window + 1 } else { ph.window };
        let rounds = BATCH / per_round;
        let (mut seq, mut echo_seq) = (0u64, 0u64);
        (0..batches)
            .map(|_| {
                let v0 = world.clock().now();
                let t0 = Instant::now();
                let verdict = (0..rounds).try_for_each(|_| {
                    for _ in 0..ph.window {
                        stamp(&mut buf, seq);
                        seq += 1;
                        world.send(&buf, 1, TAG_DATA).map_err(typed)?;
                    }
                    let (reply, _) = world.recv::<u64>(1, TAG_ACK).map_err(typed)?;
                    if ph.echo {
                        verify(&reply, echo_seq, body_sum)?;
                        echo_seq += 1;
                    }
                    Ok(())
                });
                (ms_since(t0), (world.clock().now() - v0).as_secs(), verdict)
            })
            .collect()
    }

    /// Rank 1 of a two-rank phase; returns the first violation it saw.
    fn pair_rank1(&self, world: &Comm, ph: Pair, batches: usize) -> Result<(), String> {
        let body_sum = checksum(&self.body[2..ph.words]);
        let per_round = if ph.echo { ph.window + 1 } else { ph.window };
        let rounds = batches * (BATCH / per_round);
        let mut seq = 0u64;
        let mut verdict = Ok(());
        for round in 0..rounds {
            for _ in 0..ph.window {
                let (got, _) = world.recv::<u64>(0, TAG_DATA).map_err(typed)?;
                let v = verify(&got, seq, body_sum);
                seq += 1;
                if ph.echo {
                    // The echo carries the reply's own sequence number.
                    let mut reply = got;
                    stamp(&mut reply, round as u64);
                    world.send(&reply, 0, TAG_ACK).map_err(typed)?;
                }
                verdict = verdict.and(v);
            }
            if !ph.echo {
                world.send(&[seq], 0, TAG_ACK).map_err(typed)?;
            }
        }
        verdict
    }

    fn fanin_rank0(&self, world: &Comm, batches: usize) -> Vec<Batch> {
        let words = self.pairs[0].words;
        let body_sum = checksum(&self.body[2..words]);
        let mut next = [0u64; FANIN_SENDERS + 1];
        (0..batches)
            .map(|_| {
                let v0 = world.clock().now();
                let t0 = Instant::now();
                let verdict = (|| {
                    let mut verdict = Ok(());
                    for _ in 0..BATCH {
                        let (got, status) =
                            world.recv_any::<u64>(None, Some(TAG_DATA)).map_err(typed)?;
                        let v = verify(&got, next[status.source], body_sum);
                        next[status.source] += 1;
                        verdict = verdict.and(v);
                    }
                    for dst in 1..=FANIN_SENDERS {
                        world.send(&[0u64], dst, TAG_ACK).map_err(typed)?;
                    }
                    verdict
                })();
                (ms_since(t0), (world.clock().now() - v0).as_secs(), verdict)
            })
            .collect()
    }

    fn fanin_sender(&self, world: &Comm, batches: usize) -> Result<(), String> {
        let words = self.pairs[0].words;
        let mut buf = self.body[..words].to_vec();
        let mut seq = 0u64;
        for _ in 0..batches {
            for _ in 0..BATCH / FANIN_SENDERS {
                stamp(&mut buf, seq);
                seq += 1;
                world.send(&buf, 0, TAG_DATA).map_err(typed)?;
            }
            world.recv::<u64>(0, TAG_ACK).map_err(typed)?;
        }
        Ok(())
    }

    /// Runs one phase in its own universe and folds its batches into `out`;
    /// returns its wall seconds and the universe's pool report.
    fn phase(
        &self,
        index: usize,
        batches: usize,
        spans: &Spans,
        out: &mut Outcome,
    ) -> (f64, mpisim::PoolReport) {
        let config = UniverseConfig::new().tracing(spans.enabled());
        let pair = self.pairs.get(index).copied();
        let universe = match pair {
            Some(_) => Universe::from_topology(two_nodes(), config),
            None => Universe::from_topology(fanin_nodes(), config),
        };
        let op = spans.begin_op(out.op_ms.len() as u64);
        let span = spans.begin(pair.map_or("mpisim.fanin", |p| p.name), op);
        let t0 = Instant::now();
        let report = universe.run(|proc| -> Result<Vec<Batch>, String> {
            let world = proc.world();
            match (pair, world.rank()) {
                (Some(ph), 0) => Ok(self.pair_rank0(&world, ph, batches)),
                (Some(ph), _) => self.pair_rank1(&world, ph, batches).map(|()| Vec::new()),
                (None, 0) => Ok(self.fanin_rank0(&world, batches)),
                (None, _) => self.fanin_sender(&world, batches).map(|()| Vec::new()),
            }
        });
        let wall_s = t0.elapsed().as_secs_f64();
        spans.end(span);
        spans.end(op);
        if let Some(trace) = &report.trace {
            out.count_trace(trace, universe.size());
        }
        let mut peers_ok = Ok(());
        let mut timed = Vec::new();
        for r in report.results {
            match r {
                Ok(b) if !b.is_empty() => timed = b,
                Ok(_) => {}
                Err(e) => peers_ok = peers_ok.and(Err(e)),
            }
        }
        if report.pool.outstanding != 0 {
            peers_ok = Err(format!("{} pool lease(s) leaked", report.pool.outstanding));
        }
        if timed.len() != batches {
            peers_ok = Err(format!("rank 0 timed {} of {batches} batches", timed.len()));
            timed.resize(batches, (0.0, 0.0, Ok(())));
        }
        // A violation seen by a peer has no batch of its own: charge it to
        // the phase's last batch.
        if let (Err(e), Some(last)) = (peers_ok, timed.last_mut()) {
            last.2 = Err(e);
        }
        for (ms, virt, verdict) in timed {
            out.op(ms, virt, verdict);
        }
        (wall_s, report.pool)
    }

    /// One round: the four phases, each in a fresh universe.
    fn round(&self, warmup: bool, spans: &Spans, out: &mut Outcome) {
        let count = |n: usize| if warmup { WARMUP_BATCHES } else { n };
        let msgs = |n: usize| (n * BATCH) as f64;
        for (i, ph) in self.pairs.into_iter().enumerate() {
            let n = count(ph.batches);
            let (wall_s, pool) = self.phase(i, n, spans, out);
            // By position in `pairs`: ping-pong, stream, rendezvous.
            match i {
                0 => {
                    // One message one way: half a round trip.
                    out.side
                        .insert("mpisim.pingpong_us", wall_s * 1e6 / msgs(n));
                }
                1 => {
                    out.side.insert("mpisim.eager_msgs_per_s", msgs(n) / wall_s);
                }
                _ => {
                    let mb = msgs(n) * (ph.words * 8) as f64 / 1e6;
                    out.side.insert("mpisim.rndv_mb_per_s", mb / wall_s);
                    let reuse = pool.reused as f64 / (pool.leased.max(1)) as f64;
                    out.side.insert("mpisim.pool_reuse_ratio", reuse);
                    out.side.insert(
                        "mpisim.pool_high_water_mb",
                        pool.high_water_bytes as f64 / (1024.0 * 1024.0),
                    );
                }
            }
        }
        let n = count(self.fanin_batches);
        let (wall_s, _) = self.phase(self.pairs.len(), n, spans, out);
        out.side.insert("mpisim.fanin_msgs_per_s", msgs(n) / wall_s);
    }
}

impl Workload for P2pStream {
    const NAME: &'static str = "p2p_stream";
    const RANKS: usize = 2;
    const WHY: &'static str = "mpisim p2p/lane/pool/vtime alone: eager ping-pong, eager stream, \
        64 KiB rendezvous, contended 8-to-1 fan-in; selection and planning changes must not show";

    fn setup(seed: u64, scale: f64) -> Self {
        let mut rng = SplitMix64(seed ^ 0x0502_5712);
        let rndv_words = 64 * 1024 / 8;
        let pair = |name, words, window, echo, base| Pair {
            name,
            words,
            window,
            echo,
            batches: scaled(base, scale),
        };
        let w = P2pStream {
            pairs: [
                pair("mpisim.pingpong", 8, 1, true, PINGPONG_BATCHES),
                pair("mpisim.stream", 8, 50, false, STREAM_BATCHES),
                pair("mpisim.rndv", rndv_words, 8, false, RNDV_BATCHES),
            ],
            fanin_batches: scaled(FANIN_BATCHES, scale),
            body: (0..rndv_words).map(|_| rng.next_u64()).collect(),
        };
        let mut warm = Outcome::default();
        w.round(true, &Spans::new(false), &mut warm);
        assert!(
            warm.failed == 0,
            "p2p_stream warm-up failed: {:?}",
            warm.first_failure
        );
        w
    }

    fn run(&self, rounds: usize, spans: &Spans) -> Outcome {
        let mut out = Outcome::default();
        let mut rates: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for _ in 0..rounds {
            out.round(|out| self.round(false, spans, out));
            // Each round leaves its phase rates in `side`: keep them all
            // and report the median.
            for (name, value) in std::mem::take(&mut out.side) {
                rates.entry(name).or_default().push(value);
            }
        }
        out.side = rates
            .into_iter()
            .map(|(name, v)| (name, crate::stats::median(&v)))
            .collect();
        out
    }

    fn probes(&self, side: &mut Side) {
        use hetsim::{NodeId, SimTime};
        use std::hint::black_box;
        // hetsim: one transfer priced on the contended fan-in cluster, and
        // one between two ranks of a node over its memory bus.
        let nic = fanin_nodes();
        let bus = TopologyBuilder::new()
            .intra_switch(Link::new(1e-4, 100e6, Protocol::Tcp))
            .mem_bus(Link::new(1e-6, 5e9, Protocol::Tcp))
            .site()
            .node("smp", 100.0)
            .ranks(2)
            .node("peer", 100.0)
            .build();
        for (metric, topology, to) in [
            ("hetsim.transfer_time_ns.nic", &nic, NodeId(1)),
            ("hetsim.transfer_time_ns.bus", &bus, NodeId(0)),
        ] {
            let cluster = topology.cluster();
            let ns = per_call_us(100_000, || {
                black_box(cluster.rank_transfer_time_at(
                    NodeId(0),
                    to,
                    black_box(4096),
                    SimTime::ZERO,
                ));
            }) * 1e3;
            side.insert(metric, ns);
        }
    }
}
