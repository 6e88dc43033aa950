//! The scenario: a fully materialised test case for the HMPI stack.
//!
//! A scenario owns concrete values — node speeds, link parameters, fault
//! events, workload sizes — rather than just the seed that produced them,
//! so the shrinker can delete nodes, drop fault events and halve message
//! sizes while preserving everything else. Every scenario round-trips
//! through a one-line text encoding (`encode` / `parse`), which is what
//! the corpus files store and what a failing fuzz run prints as its repro.

use hetsim::{ContentionModel, FaultEvent, NodeId, SimTime};
use mpisim::CollectiveKind;
use std::fmt;

/// A point-to-point link override: `a <-> b` gets `(lat, bw)` instead of
/// the cluster-wide default.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LinkOverride {
    /// One endpoint (node index).
    pub a: usize,
    /// The other endpoint (node index).
    pub b: usize,
    /// Latency, seconds.
    pub lat: f64,
    /// Bandwidth, bytes/second.
    pub bw: f64,
}

/// Which application kernel an [`Workload::AppKernel`] scenario runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AppKind {
    /// The paper's EM3D electromagnetic kernel.
    Em3d,
    /// Heterogeneous block-cyclic matrix multiplication.
    Matmul,
    /// The N-body kernel.
    Nbody,
}

impl AppKind {
    /// Stable lower-case label.
    pub fn name(self) -> &'static str {
        match self {
            AppKind::Em3d => "em3d",
            AppKind::Matmul => "matmul",
            AppKind::Nbody => "nbody",
        }
    }
}

/// What the scenario actually executes against the cluster.
#[derive(Clone, Debug, PartialEq)]
pub enum Workload {
    /// Every rank exchanges `elems` i64s with both ring neighbours,
    /// `rounds` times, verifying payload contents.
    P2pRing {
        /// Payload elements per message.
        elems: usize,
        /// Exchange rounds.
        rounds: usize,
    },
    /// A deterministic random pattern of `msgs` point-to-point messages
    /// (pairs, sizes and tags drawn from `pattern_seed`).
    P2pRandom {
        /// Seed for the message pattern.
        pattern_seed: u64,
        /// Number of messages.
        msgs: usize,
        /// Upper bound on payload elements per message.
        max_elems: usize,
    },
    /// One collective of `elems` f64 elements (the total payload for
    /// allgather), run as a one-colour, one-call storm once per eligible
    /// algorithm plus once through the `Auto` selector, checking bit-exact
    /// reduction neutrality and (fault-free) `timeof` parity.
    Collective {
        /// Which collective.
        kind: CollectiveKind,
        /// Payload elements.
        elems: usize,
        /// Root rank (ignored by the rootless kinds).
        root: usize,
    },
    /// A storm of `calls` engine collectives issued inside *one* universe,
    /// on the sub-communicators `split(rank % colors)` (the world itself
    /// for one colour): call `i` moves
    /// `elems + i` elements (every call its own plan keys) from root
    /// `i % p'`; it is first priced under `Auto` and under each eligible
    /// algorithm pinned, then run under one of them in turn. Checks values
    /// against the serial fold over each sub-communicator, plan-cache
    /// coherence, and — by replaying the run — that results, makespan and
    /// trace are bit-identical however the cache's hits and misses fell.
    CollStorm {
        /// Which collective.
        kind: CollectiveKind,
        /// Payload elements of the first call.
        elems: usize,
        /// Calls per sub-communicator.
        calls: usize,
        /// Sub-communicators the world is split into (`1` = the world).
        colors: usize,
    },
    /// `cycles` rounds of recon → `group_create` on a random model →
    /// member validation → `group_free`.
    GroupCycle {
        /// Seed for the per-cycle random models.
        model_seed: u64,
        /// Create/free cycles.
        cycles: usize,
    },
    /// `rounds` rounds of `HMPI_Recon`, checking estimate sanity and
    /// generation discipline.
    ReconRounds {
        /// Benchmark units per recon.
        units: f64,
        /// Recon rounds.
        rounds: usize,
    },
    /// Pure (no simulation) check: on a random model every selection
    /// algorithm returns a valid mapping priced to the interpreter's bits,
    /// and none beats `Exhaustive`.
    Selection {
        /// Seed for the random performance model.
        model_seed: u64,
        /// Seed for the random speed estimates.
        est_seed: u64,
    },
    /// Crash-driven group shrink: compute+barrier rounds until the
    /// injected crash surfaces, then `rebuild_group` on the survivors.
    ShrinkRecovery {
        /// Compute+barrier rounds to attempt.
        rounds: usize,
        /// Compute units per round.
        units: f64,
    },
    /// A small fault-free run of one of the paper's application kernels,
    /// checking that HMPI group selection does not change the numerics.
    AppKernel {
        /// Which kernel.
        app: AppKind,
    },
}

impl Workload {
    /// Stable label for statistics and corpus curation.
    pub fn label(&self) -> &'static str {
        match self {
            Workload::P2pRing { .. } => "ring",
            Workload::P2pRandom { .. } => "rand",
            Workload::Collective { .. } | Workload::CollStorm { .. } => "coll",
            Workload::GroupCycle { .. } => "group",
            Workload::ReconRounds { .. } => "recon",
            Workload::Selection { .. } => "select",
            Workload::ShrinkRecovery { .. } => "shrink",
            Workload::AppKernel { .. } => "app",
        }
    }
}

/// One fully materialised test case.
#[derive(Clone, Debug, PartialEq)]
pub struct Scenario {
    /// The seed that generated this scenario (provenance; re-running the
    /// generator with it reproduces the original, pre-shrink scenario).
    pub seed: u64,
    /// Node speeds (benchmark units per second); the length is the node
    /// count, with one rank placed per node.
    pub speeds: Vec<f64>,
    /// Default link latency, seconds.
    pub base_lat: f64,
    /// Default link bandwidth, bytes/second.
    pub base_bw: f64,
    /// Per-pair link overrides.
    pub overrides: Vec<LinkOverride>,
    /// The cluster's link-sharing mode.
    pub contention: ContentionModel,
    /// Ranks placed on each node (block placement: ranks `r*k..(r+1)*k`
    /// live on node `r`). `1` — the default, omitted from the encoding —
    /// is the classic one-rank-per-node layout. Only the mpisim workloads
    /// (`ring`, `rand`, `coll`) execute multi-rank placement.
    pub ranks_per_node: usize,
    /// Intra-node memory bus `(latency, bandwidth)`: the shared link that
    /// serialises transfers between distinct ranks on the same node.
    /// `None` (the default, omitted from the encoding) leaves intra-node
    /// transfers free, as before the memory-bus domain existed.
    pub mem: Option<(f64, f64)>,
    /// Per-node site index (`site[i]` hosts node `i`). Empty — the
    /// default, omitted from the encoding — is a flat cluster, exactly as
    /// every scenario was before the topology level existed.
    pub site: Vec<usize>,
    /// Per-node switch index (globally numbered; each switch nests inside
    /// one site). Empty defaults to one switch per site.
    pub switch: Vec<usize>,
    /// Inter-site WAN `(latency, bandwidth)` replacing the base link for
    /// node pairs in different sites. `None` keeps the base link.
    pub wan: Option<(f64, f64)>,
    /// Intra-site inter-switch backbone `(latency, bandwidth)` for node
    /// pairs on different switches of the same site. `None` keeps the
    /// base link.
    pub backbone: Option<(f64, f64)>,
    /// Scheduled faults.
    pub faults: Vec<FaultEvent>,
    /// What to run.
    pub workload: Workload,
}

impl Scenario {
    /// Number of nodes.
    pub fn nodes(&self) -> usize {
        self.speeds.len()
    }

    /// Number of ranks (`nodes * ranks_per_node`).
    pub fn ranks(&self) -> usize {
        self.speeds.len() * self.ranks_per_node.max(1)
    }

    /// Whether the scenario declares a multi-level topology.
    pub fn is_hierarchical(&self) -> bool {
        !self.site.is_empty()
    }

    /// The effective per-node switch vector: the declared one, or one
    /// switch per site when none was declared.
    pub fn effective_switch(&self) -> Vec<usize> {
        if self.switch.is_empty() {
            self.site.clone()
        } else {
            self.switch.clone()
        }
    }
}

fn fmt_indices(f: &mut fmt::Formatter<'_>, key: &str, v: &[usize]) -> fmt::Result {
    write!(f, " {key}=")?;
    for (i, s) in v.iter().enumerate() {
        if i > 0 {
            write!(f, ",")?;
        }
        write!(f, "{s}")?;
    }
    Ok(())
}

fn cont_name(c: ContentionModel) -> &'static str {
    match c {
        ContentionModel::ParallelLinks => "par",
        ContentionModel::SerializedNic => "nic",
        ContentionModel::SharedBus => "bus",
    }
}

fn kind_name(k: CollectiveKind) -> &'static str {
    k.name()
}

impl fmt::Display for Scenario {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v1 seed={:#x}", self.seed)?;
        write!(f, " sp=")?;
        for (i, s) in self.speeds.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{s}")?;
        }
        write!(f, " lat={} bw={}", self.base_lat, self.base_bw)?;
        write!(f, " cont={}", cont_name(self.contention))?;
        if self.ranks_per_node != 1 {
            write!(f, " rpn={}", self.ranks_per_node)?;
        }
        if let Some((lat, bw)) = self.mem {
            write!(f, " mem={lat}:{bw}")?;
        }
        if !self.site.is_empty() {
            fmt_indices(f, "site", &self.site)?;
        }
        if !self.switch.is_empty() {
            fmt_indices(f, "switch", &self.switch)?;
        }
        if let Some((lat, bw)) = self.wan {
            write!(f, " wan={lat}:{bw}")?;
        }
        if let Some((lat, bw)) = self.backbone {
            write!(f, " bb={lat}:{bw}")?;
        }
        for o in &self.overrides {
            write!(f, " ov={}-{}:{}:{}", o.a, o.b, o.lat, o.bw)?;
        }
        for ev in &self.faults {
            match *ev {
                FaultEvent::NodeCrash { node, at } => {
                    write!(f, " f=crash:{}:{}", node.0, at.as_secs())?;
                }
                FaultEvent::NodeSlowdown {
                    node,
                    from,
                    until,
                    factor,
                } => {
                    write!(
                        f,
                        " f=slow:{}:{}:{}:{}",
                        node.0,
                        from.as_secs(),
                        until.as_secs(),
                        factor
                    )?;
                }
                FaultEvent::LinkDegrade {
                    from,
                    to,
                    at,
                    bandwidth_factor,
                } => {
                    write!(
                        f,
                        " f=deg:{}-{}:{}:{}",
                        from.0,
                        to.0,
                        at.as_secs(),
                        bandwidth_factor
                    )?;
                }
                FaultEvent::LinkDrop { from, to, at } => {
                    write!(f, " f=drop:{}-{}:{}", from.0, to.0, at.as_secs())?;
                }
            }
        }
        match &self.workload {
            Workload::P2pRing { elems, rounds } => write!(f, " w=ring:{elems}:{rounds}"),
            Workload::P2pRandom {
                pattern_seed,
                msgs,
                max_elems,
            } => write!(f, " w=rand:{pattern_seed:#x}:{msgs}:{max_elems}"),
            Workload::Collective { kind, elems, root } => {
                write!(f, " w=coll:{}:{elems}:{root}", kind_name(*kind))
            }
            Workload::CollStorm {
                kind,
                elems,
                calls,
                colors,
            } => write!(f, " w=storm:{}:{elems}:{calls}:{colors}", kind.name()),
            Workload::GroupCycle { model_seed, cycles } => {
                write!(f, " w=group:{model_seed:#x}:{cycles}")
            }
            Workload::ReconRounds { units, rounds } => write!(f, " w=recon:{units}:{rounds}"),
            Workload::Selection {
                model_seed,
                est_seed,
            } => write!(f, " w=select:{model_seed:#x}:{est_seed:#x}"),
            Workload::ShrinkRecovery { rounds, units } => {
                write!(f, " w=shrink:{rounds}:{units}")
            }
            Workload::AppKernel { app } => write!(f, " w=app:{}", app.name()),
        }
    }
}

/// Why a scenario line failed to parse.
#[derive(Clone, Debug, PartialEq)]
pub struct ParseError(pub String);

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "scenario parse error: {}", self.0)
    }
}

impl std::error::Error for ParseError {}

fn bad(msg: impl Into<String>) -> ParseError {
    ParseError(msg.into())
}

fn parse_u64(s: &str) -> Result<u64, ParseError> {
    let r = if let Some(hex) = s.strip_prefix("0x") {
        u64::from_str_radix(hex, 16)
    } else {
        s.parse()
    };
    r.map_err(|_| bad(format!("bad integer {s:?}")))
}

fn parse_usize(s: &str) -> Result<usize, ParseError> {
    s.parse().map_err(|_| bad(format!("bad integer {s:?}")))
}

fn parse_f64(s: &str) -> Result<f64, ParseError> {
    let v: f64 = s.parse().map_err(|_| bad(format!("bad number {s:?}")))?;
    if !v.is_finite() {
        return Err(bad(format!("non-finite number {s:?}")));
    }
    Ok(v)
}

fn parse_pair(s: &str) -> Result<(usize, usize), ParseError> {
    let (a, b) = s
        .split_once('-')
        .ok_or_else(|| bad(format!("expected A-B pair, got {s:?}")))?;
    Ok((parse_usize(a)?, parse_usize(b)?))
}

fn parse_time(s: &str) -> Result<SimTime, ParseError> {
    Ok(SimTime::from_secs(parse_f64(s)?))
}

/// A `lat:bw` link parameter pair, validated like `mem=`.
fn parse_link_params(key: &str, s: &str) -> Result<(f64, f64), ParseError> {
    let (lat, bw) = s
        .split_once(':')
        .ok_or_else(|| bad(format!("bad {key} {s:?}")))?;
    let (lat, bw) = (parse_f64(lat)?, parse_f64(bw)?);
    if bw <= 0.0 || lat < 0.0 {
        return Err(bad(format!("bad {key} link parameters {s:?}")));
    }
    Ok((lat, bw))
}

/// A comma-separated index list (`site=`/`switch=` values).
fn parse_indices(s: &str) -> Result<Vec<usize>, ParseError> {
    s.split(',').map(parse_usize).collect()
}

fn parse_fault(body: &str) -> Result<FaultEvent, ParseError> {
    let parts: Vec<&str> = body.split(':').collect();
    match parts.as_slice() {
        ["crash", node, at] => Ok(FaultEvent::NodeCrash {
            node: NodeId(parse_usize(node)?),
            at: parse_time(at)?,
        }),
        ["slow", node, from, until, factor] => Ok(FaultEvent::NodeSlowdown {
            node: NodeId(parse_usize(node)?),
            from: parse_time(from)?,
            until: parse_time(until)?,
            factor: parse_f64(factor)?,
        }),
        ["deg", pair, at, bwf] => {
            let (from, to) = parse_pair(pair)?;
            Ok(FaultEvent::LinkDegrade {
                from: NodeId(from),
                to: NodeId(to),
                at: parse_time(at)?,
                bandwidth_factor: parse_f64(bwf)?,
            })
        }
        ["drop", pair, at] => {
            let (from, to) = parse_pair(pair)?;
            Ok(FaultEvent::LinkDrop {
                from: NodeId(from),
                to: NodeId(to),
                at: parse_time(at)?,
            })
        }
        _ => Err(bad(format!("bad fault {body:?}"))),
    }
}

fn parse_kind(s: &str) -> Result<CollectiveKind, ParseError> {
    match s {
        "bcast" => Ok(CollectiveKind::Bcast),
        "reduce" => Ok(CollectiveKind::Reduce),
        "allreduce" => Ok(CollectiveKind::Allreduce),
        "allgather" => Ok(CollectiveKind::Allgather),
        _ => Err(bad(format!("bad collective kind {s:?}"))),
    }
}

fn parse_workload(body: &str) -> Result<Workload, ParseError> {
    let parts: Vec<&str> = body.split(':').collect();
    match parts.as_slice() {
        ["ring", elems, rounds] => Ok(Workload::P2pRing {
            elems: parse_usize(elems)?,
            rounds: parse_usize(rounds)?,
        }),
        ["rand", pseed, msgs, max_elems] => Ok(Workload::P2pRandom {
            pattern_seed: parse_u64(pseed)?,
            msgs: parse_usize(msgs)?,
            max_elems: parse_usize(max_elems)?,
        }),
        ["coll", kind, elems, root] => Ok(Workload::Collective {
            kind: parse_kind(kind)?,
            elems: parse_usize(elems)?,
            root: parse_usize(root)?,
        }),
        ["storm", kind, elems, calls, colors] => {
            let colors = parse_usize(colors)?;
            if colors == 0 {
                return Err(bad("a storm needs at least one colour"));
            }
            Ok(Workload::CollStorm {
                kind: parse_kind(kind)?,
                elems: parse_usize(elems)?,
                calls: parse_usize(calls)?,
                colors,
            })
        }
        ["group", mseed, cycles] => Ok(Workload::GroupCycle {
            model_seed: parse_u64(mseed)?,
            cycles: parse_usize(cycles)?,
        }),
        ["recon", units, rounds] => Ok(Workload::ReconRounds {
            units: parse_f64(units)?,
            rounds: parse_usize(rounds)?,
        }),
        ["select", mseed, eseed] => Ok(Workload::Selection {
            model_seed: parse_u64(mseed)?,
            est_seed: parse_u64(eseed)?,
        }),
        ["shrink", rounds, units] => Ok(Workload::ShrinkRecovery {
            rounds: parse_usize(rounds)?,
            units: parse_f64(units)?,
        }),
        ["app", app] => Ok(Workload::AppKernel {
            app: match *app {
                "em3d" => AppKind::Em3d,
                "matmul" => AppKind::Matmul,
                "nbody" => AppKind::Nbody,
                other => return Err(bad(format!("bad app kernel {other:?}"))),
            },
        }),
        _ => Err(bad(format!("bad workload {body:?}"))),
    }
}

/// Parses one scenario line (the inverse of [`Scenario`]'s `Display`).
///
/// # Errors
/// [`ParseError`] on any malformed, missing or out-of-range field.
pub fn parse(line: &str) -> Result<Scenario, ParseError> {
    let mut tokens = line.split_whitespace();
    if tokens.next() != Some("v1") {
        return Err(bad("missing 'v1' version tag"));
    }
    let mut seed = None;
    let mut speeds: Option<Vec<f64>> = None;
    let mut base_lat = None;
    let mut base_bw = None;
    let mut contention = None;
    let mut ranks_per_node = 1usize;
    let mut mem = None;
    let mut site = Vec::new();
    let mut switch = Vec::new();
    let mut wan = None;
    let mut backbone = None;
    let mut overrides = Vec::new();
    let mut faults = Vec::new();
    let mut workload = None;
    for tok in tokens {
        let (key, val) = tok
            .split_once('=')
            .ok_or_else(|| bad(format!("bad token {tok:?}")))?;
        match key {
            "seed" => seed = Some(parse_u64(val)?),
            "sp" => {
                speeds = Some(
                    val.split(',')
                        .map(parse_f64)
                        .collect::<Result<Vec<_>, _>>()?,
                )
            }
            "lat" => base_lat = Some(parse_f64(val)?),
            "bw" => base_bw = Some(parse_f64(val)?),
            "cont" => {
                contention = Some(match val {
                    "par" => ContentionModel::ParallelLinks,
                    "nic" => ContentionModel::SerializedNic,
                    "bus" => ContentionModel::SharedBus,
                    _ => return Err(bad(format!("bad contention {val:?}"))),
                })
            }
            "rpn" => {
                ranks_per_node = parse_usize(val)?;
                if ranks_per_node == 0 {
                    return Err(bad("rpn= must be at least 1"));
                }
            }
            "mem" => {
                let (lat, bw) = val
                    .split_once(':')
                    .ok_or_else(|| bad(format!("bad mem {val:?}")))?;
                let (lat, bw) = (parse_f64(lat)?, parse_f64(bw)?);
                if bw <= 0.0 || lat < 0.0 {
                    return Err(bad(format!("bad mem link parameters {val:?}")));
                }
                mem = Some((lat, bw));
            }
            "site" => site = parse_indices(val)?,
            "switch" => switch = parse_indices(val)?,
            "wan" => wan = Some(parse_link_params("wan", val)?),
            "bb" => backbone = Some(parse_link_params("bb", val)?),
            "ov" => {
                let (pair, link) = val
                    .split_once(':')
                    .ok_or_else(|| bad(format!("bad override {val:?}")))?;
                let ((a, b), (lat, bw)) = (parse_pair(pair)?, parse_link_params("ov", link)?);
                overrides.push(LinkOverride { a, b, lat, bw });
            }
            "f" => faults.push(parse_fault(val)?),
            "w" => workload = Some(parse_workload(val)?),
            _ => return Err(bad(format!("unknown key {key:?}"))),
        }
    }
    let speeds = speeds.ok_or_else(|| bad("missing sp="))?;
    let n = speeds.len();
    if let Some(o) = overrides.iter().find(|o| o.a == o.b || o.a.max(o.b) >= n) {
        let (a, b) = (o.a, o.b);
        return Err(bad(format!("ov={a}-{b}: not two nodes of 0..{n}")));
    }
    // The hierarchy declaration, when present, must cover exactly the
    // nodes, keep switches nested inside sites and say what
    // `hetsim::TopologyBuilder` can build: sites and switches opened in
    // node order, numbered from 0, and more than one of either.
    if site.is_empty() && (!switch.is_empty() || wan.is_some() || backbone.is_some()) {
        return Err(bad("switch=/wan=/bb= require a site= declaration"));
    }
    if !site.is_empty() {
        if site.len() != speeds.len() {
            return Err(bad(format!(
                "site= covers {} nodes but sp= has {}",
                site.len(),
                speeds.len()
            )));
        }
        if !switch.is_empty() && switch.len() != speeds.len() {
            return Err(bad(format!(
                "switch= covers {} nodes but sp= has {}",
                switch.len(),
                speeds.len()
            )));
        }
        let switches = if switch.is_empty() { &site } else { &switch };
        for levels in [&site, switches] {
            if levels[0] != 0 || levels.windows(2).any(|w| w[1] != w[0] && w[1] != w[0] + 1) {
                return Err(bad(format!("{levels:?} is out of node order")));
            }
        }
        let spans = (1..n).find(|&i| site[i] != site[i - 1] && switches[i] == switches[i - 1]);
        if let Some(i) = spans {
            return Err(bad(format!("switch {} spans two sites", switches[i])));
        }
        if switches[n - 1] == 0 {
            return Err(bad("one site, one switch: a flat cluster"));
        }
    }
    Ok(Scenario {
        seed: seed.ok_or_else(|| bad("missing seed="))?,
        speeds,
        base_lat: base_lat.ok_or_else(|| bad("missing lat="))?,
        base_bw: base_bw.ok_or_else(|| bad("missing bw="))?,
        overrides,
        contention: contention.ok_or_else(|| bad("missing cont="))?,
        ranks_per_node,
        mem,
        site,
        switch,
        wan,
        backbone,
        faults,
        workload: workload.ok_or_else(|| bad("missing w="))?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_full_line_round_trips() {
        let line = "v1 seed=0x2a sp=44.5,100,9.125 lat=0.0001 bw=10000000 cont=bus \
                    rpn=2 mem=0.0000001:4000000000 \
                    ov=0-2:0.002:500000 f=crash:1:1.5 f=slow:2:0.5:2:0.25 \
                    f=deg:0-1:1:0.5 f=drop:1-2:2.5 w=coll:allreduce:1024:1";
        let sc = parse(line).unwrap();
        assert_eq!(sc.nodes(), 3);
        assert_eq!(sc.ranks(), 6);
        assert_eq!(sc.contention, ContentionModel::SharedBus);
        assert_eq!(sc.mem, Some((1e-7, 4e9)));
        assert_eq!(sc.faults.len(), 4);
        let reparsed = parse(&sc.to_string()).unwrap();
        assert_eq!(sc, reparsed);
    }

    #[test]
    fn placement_defaults_stay_out_of_the_encoding() {
        // One rank per node, no memory bus: the line must look exactly as
        // it did before the placement fields existed, so the committed
        // corpus keeps parsing and re-encoding byte-identically.
        let line = "v1 seed=0x1 sp=10,20 lat=0.001 bw=1000000 cont=par w=ring:8:1";
        let sc = parse(line).unwrap();
        assert_eq!(sc.ranks_per_node, 1);
        assert_eq!(sc.mem, None);
        assert_eq!(sc.ranks(), sc.nodes());
        assert_eq!(sc.to_string(), line);
    }

    #[test]
    fn hierarchical_lines_round_trip() {
        let line = "v1 seed=0x7 sp=10,20,30,40,50,60 lat=0.0001 bw=100000000 cont=nic \
                    site=0,0,0,1,1,1 switch=0,0,1,2,2,2 wan=0.05:1000000 \
                    bb=0.001:50000000 w=coll:allgather:2048:0";
        let sc = parse(line).unwrap();
        assert!(sc.is_hierarchical());
        assert_eq!(sc.site, vec![0, 0, 0, 1, 1, 1]);
        assert_eq!(sc.switch, vec![0, 0, 1, 2, 2, 2]);
        assert_eq!(sc.wan, Some((0.05, 1e6)));
        assert_eq!(sc.backbone, Some((0.001, 5e7)));
        assert_eq!(sc.to_string(), line);
        assert_eq!(parse(&sc.to_string()).unwrap(), sc);
        // One switch per site is the default for an omitted switch=.
        let no_switch = parse(
            "v1 seed=1 sp=1,2,3,4 lat=0.001 bw=1000000 cont=par site=0,0,1,1 w=ring:8:1",
        )
        .unwrap();
        assert_eq!(no_switch.effective_switch(), vec![0, 0, 1, 1]);
    }

    #[test]
    fn storm_lines_round_trip() {
        let line = "v1 seed=0x5 sp=10,20,30,40 lat=0.0001 bw=100000000 cont=nic rpn=2 \
                    w=storm:allreduce:64:12:2";
        let sc = parse(line).unwrap();
        assert_eq!(
            sc.workload,
            Workload::CollStorm {
                kind: CollectiveKind::Allreduce,
                elems: 64,
                calls: 12,
                colors: 2
            }
        );
        assert_eq!(sc.workload.label(), "coll");
        assert_eq!(parse(&sc.to_string()).unwrap(), sc);
    }

    #[test]
    fn malformed_lines_are_typed_errors() {
        for bad_line in [
            "",
            "v2 seed=1 sp=1 lat=1 bw=1 cont=par w=ring:1:1",
            "v1 sp=1 lat=1 bw=1 cont=par w=ring:1:1",
            "v1 seed=1 sp=1 lat=1 bw=1 cont=par",
            "v1 seed=1 sp=1 lat=1 bw=1 cont=quantum w=ring:1:1",
            "v1 seed=1 sp=nan lat=1 bw=1 cont=par w=ring:1:1",
            "v1 seed=1 sp=1 lat=1 bw=1 cont=par w=coll:scan:8:0",
            "v1 seed=1 sp=1 lat=1 bw=1 cont=par w=storm:bcast:8:4:0",
            "v1 seed=1 sp=1 lat=1 bw=1 cont=par w=ring:1:1 f=melt:0:1",
            "v1 seed=1 sp=1 lat=1 bw=1 cont=par rpn=0 w=ring:1:1",
            "v1 seed=1 sp=1 lat=1 bw=1 cont=par mem=0.001 w=ring:1:1",
            "v1 seed=1 sp=1 lat=1 bw=1 cont=par mem=0.001:0 w=ring:1:1",
            // Hierarchy declarations must cover the nodes and nest.
            "v1 seed=1 sp=1,2 lat=1 bw=1 cont=par site=0 w=ring:1:1",
            "v1 seed=1 sp=1,2 lat=1 bw=1 cont=par site=0,1 switch=0 w=ring:1:1",
            "v1 seed=1 sp=1,2 lat=1 bw=1 cont=par site=0,1 switch=0,0 w=ring:1:1",
            "v1 seed=1 sp=1,2 lat=1 bw=1 cont=par wan=0.1:1000 w=ring:1:1",
            "v1 seed=1 sp=1,2 lat=1 bw=1 cont=par site=0,1 wan=0.1:0 w=ring:1:1",
            // ... and be what `TopologyBuilder` builds: numbered in node
            // order from 0, and more than one site or switch.
            "v1 seed=1 sp=1,2,3 lat=1 bw=1 cont=par site=0,1,0 w=ring:1:1",
            "v1 seed=1 sp=1,2 lat=1 bw=1 cont=par site=1,2 w=ring:1:1",
            "v1 seed=1 sp=1,2 lat=1 bw=1 cont=par site=0,2 w=ring:1:1",
            "v1 seed=1 sp=1,2,3,4 lat=1 bw=1 cont=par site=0,0,1,1 switch=0,2,3,3 w=ring:1:1",
            "v1 seed=1 sp=1,2 lat=1 bw=1 cont=par site=0,0 w=ring:1:1",
            // Link overrides join two distinct nodes over a valid link.
            "v1 seed=1 sp=1,2,3 lat=1 bw=1 cont=par ov=0-7:0.001:1000 w=ring:1:1",
            "v1 seed=1 sp=1,2,3 lat=1 bw=1 cont=par ov=0-1:-5:1000 w=ring:1:1",
            "v1 seed=1 sp=1,2,3 lat=1 bw=1 cont=par rpn=2 ov=1-1:0.5:1000 w=ring:1:1",
            "v1 seed=1 sp=1,2,3 lat=1 bw=1 cont=par ov=0-1:0.001:0 w=ring:1:1",
            "v1 seed=1 sp=1,2,3 lat=1 bw=1 cont=par ov=0-1:0.001 w=ring:1:1",
        ] {
            assert!(parse(bad_line).is_err(), "accepted {bad_line:?}");
        }
    }
}
