//! Cluster topology: processors plus a pairwise link matrix.
//!
//! A [`Cluster`] is the complete model of the executing network of computers
//! that the HMPI runtime plans against. [`Cluster::paper_lan`] encodes the
//! testbed of the paper's Section 5: nine workstations with relative speeds
//! 46, 46, 46, 46, 46, 46, 176, 106 and 9, connected by 100 Mbit switched
//! Ethernet ("with a switch enabling parallel communications between the
//! computers" — i.e. [`ContentionModel::ParallelLinks`]).

use crate::clock::SimTime;
use crate::fault::FaultPlan;
use crate::link::Link;
use crate::node::{NodeId, Processor};
use crate::protocol::Protocol;

/// How concurrent transfers share the network.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum ContentionModel {
    /// Every pair of computers can communicate at full link speed
    /// simultaneously (a non-blocking switch, as in the paper's testbed).
    #[default]
    ParallelLinks,
    /// Each computer's network interface serialises its transfers (sends and
    /// receives share the NIC), as on a half-duplex or host-limited network.
    SerializedNic,
    /// The whole network is one shared medium (hub/bus Ethernet): all
    /// transfers serialise.
    SharedBus,
}

/// The nine workstation speeds of the paper's Section 5 LAN (46×6, 176,
/// 106, 9), in node-id order.
pub const PAPER_EM3D_SPEEDS: [f64; 9] =
    [46.0, 46.0, 46.0, 46.0, 46.0, 46.0, 176.0, 106.0, 9.0];

/// A dense pairwise link-cost table over a node subset, produced by
/// [`Cluster::pair_table`]. Indices are positions in the subset, not
/// [`NodeId`]s, so the table maps directly onto communicator ranks.
#[derive(Clone, Debug, PartialEq)]
pub struct PairTable {
    /// Number of endpoints in the subset.
    pub n: usize,
    /// Row-major `n × n` link latencies in seconds (zero on the diagonal).
    pub latency: Vec<f64>,
    /// Row-major `n × n` link bandwidths in bytes/second (zero on the
    /// diagonal; a zero bandwidth means "free", matching the transport's
    /// treatment of same-node transfers).
    pub bandwidth: Vec<f64>,
}

impl PairTable {
    /// Latency from subset position `i` to position `j`.
    #[inline]
    pub fn latency(&self, i: usize, j: usize) -> f64 {
        self.latency[i * self.n + j]
    }

    /// Bandwidth from subset position `i` to position `j`.
    #[inline]
    pub fn bandwidth(&self, i: usize, j: usize) -> f64 {
        self.bandwidth[i * self.n + j]
    }
}

/// Declared multi-level structure over a cluster's nodes: which switch and
/// which site each node hangs off. Together with a placement (ranks → nodes)
/// and the optional memory bus this yields the full
/// core → memory-bus domain → node → switch → site hierarchy the
/// topology-aware collective engine plans against. Produced by
/// [`TopologyBuilder`]; absent (`None` on [`Cluster::topology`]) for flat
/// clusters, where every node implicitly shares switch 0 of site 0.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TopologyInfo {
    /// `site_of[node]` = the site index hosting that node.
    site_of: Vec<usize>,
    /// `switch_of[node]` = the globally-numbered switch the node hangs off
    /// (switch indices are unique across sites, not per-site).
    switch_of: Vec<usize>,
}

impl TopologyInfo {
    /// Builds the declaration from explicit per-node coordinates.
    ///
    /// # Panics
    /// Panics if the two vectors differ in length or a node's switch is
    /// shared across two sites (switches are strictly nested inside sites).
    pub fn new(site_of: Vec<usize>, switch_of: Vec<usize>) -> Self {
        assert_eq!(
            site_of.len(),
            switch_of.len(),
            "site and switch vectors must cover the same nodes"
        );
        let mut owner: std::collections::HashMap<usize, usize> = std::collections::HashMap::new();
        for (node, (&site, &sw)) in site_of.iter().zip(&switch_of).enumerate() {
            if let Some(&prev) = owner.get(&sw) {
                assert_eq!(
                    prev, site,
                    "switch {sw} (node {node}) appears in both site {prev} and site {site}"
                );
            } else {
                owner.insert(sw, site);
            }
        }
        TopologyInfo { site_of, switch_of }
    }

    /// The site hosting `node`.
    #[inline]
    pub fn site_of(&self, node: NodeId) -> usize {
        self.site_of[node.0]
    }

    /// The switch `node` hangs off (globally numbered).
    #[inline]
    pub fn switch_of(&self, node: NodeId) -> usize {
        self.switch_of[node.0]
    }

    /// Number of distinct sites.
    pub fn sites(&self) -> usize {
        let mut s: Vec<usize> = self.site_of.clone();
        s.sort_unstable();
        s.dedup();
        s.len()
    }

    /// Number of distinct switches across all sites.
    pub fn switches(&self) -> usize {
        let mut s: Vec<usize> = self.switch_of.clone();
        s.sort_unstable();
        s.dedup();
        s.len()
    }

}

/// The model of a heterogeneous network of computers.
#[derive(Clone, Debug)]
pub struct Cluster {
    nodes: Vec<Processor>,
    /// `links[i][j]` is the link used when node `i` sends to node `j`.
    links: Vec<Vec<Link>>,
    contention: ContentionModel,
    /// Scheduled faults; empty for a fault-free run.
    faults: FaultPlan,
    /// Intra-node memory bus: when present, transfers between *distinct
    /// ranks* placed on the same node travel this link and serialise per
    /// node (many ranks fighting one memory bus). `None` keeps the
    /// historical free loopback for co-located ranks.
    mem_bus: Option<Link>,
    /// Declared switch/site structure over the nodes; `None` for flat
    /// clusters.
    topology: Option<TopologyInfo>,
}

impl Cluster {
    /// Builds a cluster from explicit parts. Prefer [`ClusterBuilder`].
    ///
    /// # Panics
    /// Panics if the link matrix is not `n × n` for `n` nodes.
    pub(crate) fn from_parts(
        nodes: Vec<Processor>,
        links: Vec<Vec<Link>>,
        contention: ContentionModel,
    ) -> Self {
        let n = nodes.len();
        assert!(n > 0, "a cluster needs at least one processor");
        assert_eq!(links.len(), n, "link matrix must have one row per node");
        for (i, row) in links.iter().enumerate() {
            assert_eq!(
                row.len(),
                n,
                "link matrix row {i} must have one entry per node"
            );
        }
        Cluster {
            nodes,
            links,
            contention,
            faults: FaultPlan::none(),
            mem_bus: None,
            topology: None,
        }
    }

    /// Attaches a declared switch/site structure (builder style). Prefer
    /// [`TopologyBuilder`], which derives the declaration from construction.
    ///
    /// # Panics
    /// Panics if the declaration does not cover exactly this cluster's nodes.
    pub fn with_topology(mut self, info: TopologyInfo) -> Self {
        assert_eq!(
            info.site_of.len(),
            self.nodes.len(),
            "topology declaration must cover every node"
        );
        self.topology = Some(info);
        self
    }

    /// The declared switch/site structure, when one was attached.
    #[inline]
    pub fn topology(&self) -> Option<&TopologyInfo> {
        self.topology.as_ref()
    }

    /// The site hosting `id` (0 for flat clusters).
    #[inline]
    pub fn site_of(&self, id: NodeId) -> usize {
        self.topology.as_ref().map_or(0, |t| t.site_of(id))
    }

    /// The switch `id` hangs off (0 for flat clusters).
    #[inline]
    pub fn switch_of(&self, id: NodeId) -> usize {
        self.topology.as_ref().map_or(0, |t| t.switch_of(id))
    }

    /// The intra-node memory-bus link, if one is modelled.
    #[inline]
    pub fn mem_bus(&self) -> Option<&Link> {
        self.mem_bus.as_ref()
    }

    /// Attaches a fault-injection plan (builder style). Replaces any
    /// previously attached plan.
    pub(crate) fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// The fault plan in force (empty for a fault-free cluster).
    #[inline]
    pub fn faults(&self) -> &FaultPlan {
        &self.faults
    }

    /// Number of processors in the cluster.
    #[inline]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True if the cluster has no processors (never true by construction,
    /// provided for API completeness).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// All node ids, in order.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.nodes.len()).map(NodeId)
    }

    /// The processor with the given id.
    #[inline]
    pub fn node(&self, id: NodeId) -> &Processor {
        &self.nodes[id.0]
    }

    /// All processors, in id order.
    #[inline]
    pub fn nodes(&self) -> &[Processor] {
        &self.nodes
    }

    /// The link used when `from` sends to `to`.
    #[inline]
    pub fn link(&self, from: NodeId, to: NodeId) -> &Link {
        &self.links[from.0][to.0]
    }

    /// The link a message between *distinct ranks* placed on `from` and
    /// `to` travels: the inter-node link, or the intra-node memory bus when
    /// both ranks share a node and a bus is modelled. Same-rank self-sends
    /// do not route through this (they stay on the free loopback).
    #[inline]
    pub fn rank_link(&self, from: NodeId, to: NodeId) -> &Link {
        match &self.mem_bus {
            Some(mem) if from == to => mem,
            _ => &self.links[from.0][to.0],
        }
    }

    /// Fault-honouring transfer time between distinct ranks placed on
    /// `from` and `to`: same-node pairs ride the memory bus (which network
    /// link faults cannot sever) when one is modelled, otherwise the
    /// network link: `None` once it has been dropped, else its cost at the
    /// degraded bandwidth in force at `t`.
    pub fn rank_transfer_time_at(
        &self,
        from: NodeId,
        to: NodeId,
        bytes: usize,
        t: SimTime,
    ) -> Option<SimTime> {
        if from == to {
            if let Some(mem) = &self.mem_bus {
                return Some(mem.transfer_time(bytes));
            }
        }
        self.transfer_time_at(from, to, bytes, t)
    }

    /// The contention model in force.
    #[inline]
    pub fn contention(&self) -> ContentionModel {
        self.contention
    }

    /// A dense latency/bandwidth table for the given node subset, indexed
    /// by *position* in `nodes` (so row `i`, column `j` prices a message
    /// from `nodes[i]` to `nodes[j]`). This is the link-cost view the
    /// collective engine selects algorithms against; it reports the
    /// healthy base link parameters, ignoring transient faults. Distinct
    /// positions sharing a node price over the memory bus when one is
    /// modelled ([`Cluster::rank_link`]).
    pub fn pair_table(&self, nodes: &[NodeId]) -> PairTable {
        let n = nodes.len();
        let mut latency = vec![0.0; n * n];
        let mut bandwidth = vec![0.0; n * n];
        for (i, &a) in nodes.iter().enumerate() {
            for (j, &b) in nodes.iter().enumerate() {
                if i == j {
                    continue;
                }
                let link = self.rank_link(a, b);
                latency[i * n + j] = link.latency;
                bandwidth[i * n + j] = link.bandwidth;
            }
        }
        PairTable {
            n,
            latency,
            bandwidth,
        }
    }

    /// True speed of node `id` at virtual time `t` (benchmark units/second),
    /// including any transient fault slowdown in force at `t`. A crashed
    /// node's speed is reported as `0.0`; check [`Cluster::crash_time`]
    /// before dividing by this.
    #[inline]
    pub fn speed_at(&self, id: NodeId, t: SimTime) -> f64 {
        if !self.faults.node_available(id, t) {
            return 0.0;
        }
        self.nodes[id.0].speed_at(t) * self.faults.slowdown_factor(id, t)
    }

    /// Time for node `id` to execute `units` benchmark units starting at `t`,
    /// including any transient fault slowdown in force at `t`.
    ///
    /// # Panics
    /// Panics if the node has crashed at `t` (its speed is zero); callers
    /// must check [`Cluster::crash_time`] first.
    #[inline]
    pub fn compute_time(&self, id: NodeId, units: f64, start: SimTime) -> SimTime {
        assert!(
            self.faults.node_available(id, start),
            "node {id:?} has crashed by t={start:?}; check crash_time first"
        );
        self.nodes[id.0].compute_time_scaled(units, start, self.faults.slowdown_factor(id, start))
    }

    /// The virtual time at which node `id` fail-stops, if it ever does.
    #[inline]
    pub fn crash_time(&self, id: NodeId) -> Option<SimTime> {
        self.faults.crash_time(id)
    }

    /// Crash times of every node, indexed by node: one pass over the fault
    /// plan instead of a scan per node.
    pub fn crash_times(&self) -> Vec<Option<SimTime>> {
        self.faults.crash_times(self.nodes.len())
    }

    /// Time to move `bytes` from `from` to `to` (ignoring contention, which
    /// is the message-passing layer's concern), at the link's healthy
    /// bandwidth. For the fault-adjusted cost use
    /// [`Cluster::rank_transfer_time_at`].
    #[inline]
    pub fn transfer_time(&self, from: NodeId, to: NodeId, bytes: usize) -> SimTime {
        self.link(from, to).transfer_time(bytes)
    }

    /// Time to move `bytes` from `from` to `to` for a transfer starting at
    /// virtual time `t`, honouring the fault plan: `None` if the link has
    /// been dropped by `t`, otherwise the cost at the degraded bandwidth in
    /// force at `t`.
    pub(crate) fn transfer_time_at(
        &self,
        from: NodeId,
        to: NodeId,
        bytes: usize,
        t: SimTime,
    ) -> Option<SimTime> {
        if !self.faults.link_available(from, to, t) {
            return None;
        }
        let factor = self.faults.link_bandwidth_factor(from, to, t);
        Some(self.link(from, to).transfer_time_degraded(bytes, factor))
    }

    /// The paper's 9-workstation heterogeneous LAN with the speeds measured
    /// for a given application kernel, over switched 100 Mbit Ethernet.
    ///
    /// Section 5 reports the speeds demonstrated on the EM3D core computation
    /// as `[46, 46, 46, 46, 46, 46, 176, 106, 9]` (use
    /// [`Cluster::paper_lan_em3d`]) and on the matrix-multiplication core as
    /// `[46, 46, 46, 46, 46, 46, 106, 9]`-family (use
    /// [`Cluster::paper_lan_matmul`]).
    pub fn paper_lan(speeds: &[f64]) -> Self {
        let mut b = ClusterBuilder::new();
        for (i, &s) in speeds.iter().enumerate() {
            b = b.node(format!("ws{i:02}"), s);
        }
        b.all_to_all(Link::with_defaults(Protocol::Tcp))
            .contention(ContentionModel::ParallelLinks)
            .build()
    }

    /// The EM3D testbed of Section 5 (speeds 46×6, 176, 106, 9).
    ///
    /// The speed vector itself is [`PAPER_EM3D_SPEEDS`].
    pub fn paper_lan_em3d() -> Self {
        Cluster::paper_lan(&PAPER_EM3D_SPEEDS)
    }

    /// [`Cluster::paper_lan`] with a [`FaultPlan`] attached — the testbed of
    /// the fault-tolerance experiments.
    pub fn paper_lan_with_faults(speeds: &[f64], faults: FaultPlan) -> Self {
        let mut b = ClusterBuilder::new();
        for (i, &s) in speeds.iter().enumerate() {
            b = b.node(format!("ws{i:02}"), s);
        }
        b.all_to_all(Link::with_defaults(Protocol::Tcp))
            .contention(ContentionModel::ParallelLinks)
            .faults(faults)
            .build()
    }

    /// Draws an arbitrary heterogeneous cluster: `1..=max_nodes` processors
    /// with base speeds spanning two orders of magnitude, a random default
    /// link, a handful of per-pair link overrides, and a random
    /// [`ContentionModel`]. No fault plan is attached.
    ///
    /// The same `(seed, max_nodes)` always produces the identical cluster —
    /// this is the arbitrary-instance generator backing the scenario fuzzer.
    ///
    /// # Panics
    /// Panics if `max_nodes == 0`.
    pub fn random(seed: u64, max_nodes: usize) -> Self {
        use rand::{Rng, SeedableRng, StdRng};
        assert!(max_nodes > 0, "need room for at least one node");
        let mut rng = StdRng::seed_from_u64(seed);
        let n = rng.random_range(1..max_nodes + 1);
        let mut b = ClusterBuilder::new();
        for i in 0..n {
            // Speeds in [5, 500): the paper's testbed spans 9..176, the
            // fuzzer goes a little wider.
            b = b.node(format!("rnd{i:02}"), rng.random_range(5.0..500.0));
        }
        // Latency 1 µs .. 10 ms, bandwidth 1 MB/s .. 1 GB/s (log-uniform).
        let rnd_link = |rng: &mut StdRng| {
            let lat = 1e-6 * 10f64.powf(rng.random_range(0.0..4.0));
            let bw = 1e6 * 10f64.powf(rng.random_range(0.0..3.0));
            Link::new(lat, bw, Protocol::Tcp)
        };
        b = b.all_to_all(rnd_link(&mut rng));
        if n >= 2 {
            for _ in 0..rng.random_range(0..n) {
                let a = rng.random_range(0..n);
                let mut c = rng.random_range(0..n);
                while c == a {
                    c = rng.random_range(0..n);
                }
                let link = rnd_link(&mut rng);
                b = b.link_between(a, c, link);
            }
        }
        let contention = match rng.random_range(0u32..3) {
            0 => ContentionModel::ParallelLinks,
            1 => ContentionModel::SerializedNic,
            _ => ContentionModel::SharedBus,
        };
        b.contention(contention).build()
    }

    /// The matrix-multiplication testbed of Section 5. The paper lists the
    /// speeds demonstrated on the MM core computation as
    /// "46, 46, 46, 46, 46, 46, 106, and 9" for its nine-machine network; the
    /// ninth value (the 176 machine, re-measured on the MM kernel) is taken
    /// to complete the 3 × 3 grid.
    pub fn paper_lan_matmul() -> Self {
        Cluster::paper_lan(&[46.0, 46.0, 46.0, 46.0, 46.0, 46.0, 176.0, 106.0, 9.0])
    }
}

/// Incremental construction of a [`Cluster`].
#[derive(Clone, Debug, Default)]
pub struct ClusterBuilder {
    nodes: Vec<Processor>,
    default_link: Option<Link>,
    overrides: Vec<(usize, usize, Link)>,
    contention: ContentionModel,
    faults: FaultPlan,
    mem_bus: Option<Link>,
}

impl ClusterBuilder {
    /// An empty builder.
    pub fn new() -> Self {
        ClusterBuilder::default()
    }

    /// Adds a processor with the given name and base speed.
    pub fn node(mut self, name: impl Into<String>, base_speed: f64) -> Self {
        self.nodes.push(Processor::new(name, base_speed));
        self
    }

    /// Adds an already-configured processor (e.g. with a load model).
    pub fn processor(mut self, p: Processor) -> Self {
        self.nodes.push(p);
        self
    }

    /// Uses `link` between every distinct pair of processors.
    pub fn all_to_all(mut self, link: Link) -> Self {
        self.default_link = Some(link);
        self
    }

    /// Overrides the link between a specific pair, in both directions.
    pub fn link_between(mut self, a: usize, b: usize, link: Link) -> Self {
        self.overrides.push((a, b, link));
        self
    }

    /// Sets the contention model.
    pub fn contention(mut self, c: ContentionModel) -> Self {
        self.contention = c;
        self
    }

    /// Attaches a fault-injection plan.
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.faults = plan;
        self
    }

    /// Models an intra-node memory bus: transfers between distinct ranks on
    /// the same node travel `link` and serialise per node.
    pub fn mem_bus(mut self, link: Link) -> Self {
        self.mem_bus = Some(link);
        self
    }

    /// Finishes construction.
    ///
    /// # Panics
    /// Panics if no processors were added, if an override references an
    /// unknown node, or if no default link was given and some pair is left
    /// without a link.
    pub fn build(self) -> Cluster {
        let n = self.nodes.len();
        assert!(n > 0, "a cluster needs at least one processor");
        let default = self
            .default_link
            .unwrap_or_else(|| Link::with_defaults(Protocol::Tcp));
        let mut links = vec![vec![default; n]; n];
        for (i, row) in links.iter_mut().enumerate() {
            row[i] = Link::loopback();
        }
        for (a, b, link) in self.overrides {
            assert!(a < n && b < n, "link override ({a},{b}) out of range 0..{n}");
            links[a][b] = link.clone();
            links[b][a] = link;
        }
        let mut c = Cluster::from_parts(self.nodes, links, self.contention).with_faults(self.faults);
        c.mem_bus = self.mem_bus;
        c
    }
}

/// A built multi-level testbed: the [`Cluster`] (with its declared
/// switch/site structure, when non-trivial) plus the rank placement the
/// builder accumulated. Feed it to `Universe::from_topology` /
/// `HmpiRuntime::from_topology`, or take the parts apart by hand.
#[derive(Clone, Debug)]
pub struct Topology {
    cluster: Cluster,
    placement: Vec<NodeId>,
}

impl Topology {
    /// The built cluster.
    #[inline]
    pub fn cluster(&self) -> &Cluster {
        &self.cluster
    }

    /// `placement[world_rank]` = the hosting node.
    #[inline]
    pub fn placement(&self) -> &[NodeId] {
        &self.placement
    }

    /// Number of ranks the placement hosts.
    #[inline]
    pub fn ranks(&self) -> usize {
        self.placement.len()
    }

    /// Decomposes into `(cluster, placement)`.
    pub fn into_parts(self) -> (Cluster, Vec<NodeId>) {
        (self.cluster, self.placement)
    }
}

/// Single-entry construction of a hierarchical testbed: sites contain
/// switches contain nodes contain ranks, with per-level default link
/// classes. This subsumes the flat [`ClusterBuilder`] +
/// [`Processor::with_slots`] + explicit-placement idiom: a one-site,
/// one-switch topology with one rank per node builds a [`Cluster`]
/// structurally identical to the equivalent `ClusterBuilder` output (no
/// declaration attached, same links, same placement) — flat stays flat.
///
/// ```
/// use hetsim::{Link, Protocol, TopologyBuilder};
///
/// let topo = TopologyBuilder::new()
///     .inter_site(Link::new(5e-3, 1e6, Protocol::Tcp))    // WAN
///     .intra_switch(Link::new(1e-4, 1e8, Protocol::Tcp))  // LAN
///     .site()
///     .node("a0", 100.0)
///     .node("a1", 50.0)
///     .site()
///     .node("b0", 80.0)
///     .build();
/// let c = topo.cluster();
/// assert_eq!(c.site_of(hetsim::NodeId(2)), 1);
/// assert_eq!(c.link(hetsim::NodeId(0), hetsim::NodeId(1)).latency, 1e-4);
/// assert_eq!(c.link(hetsim::NodeId(0), hetsim::NodeId(2)).latency, 5e-3);
/// ```
#[derive(Clone, Debug, Default)]
pub struct TopologyBuilder {
    nodes: Vec<Processor>,
    node_site: Vec<usize>,
    node_switch: Vec<usize>,
    node_ranks: Vec<usize>,
    /// Number of sites opened so far (`0` until the first `site()`/node).
    sites: usize,
    /// Number of switches opened so far, globally numbered.
    switches: usize,
    intra_switch: Option<Link>,
    inter_site: Option<Link>,
    overrides: Vec<(usize, usize, Link)>,
    contention: ContentionModel,
    faults: FaultPlan,
    mem_bus: Option<Link>,
}

impl TopologyBuilder {
    /// An empty builder. The first node added before any explicit
    /// [`TopologyBuilder::site`] call opens site 0 / switch 0 implicitly.
    pub fn new() -> Self {
        TopologyBuilder::default()
    }

    /// Opens a new site (and its first switch); subsequent nodes land here.
    pub fn site(mut self) -> Self {
        self.sites += 1;
        self.switches += 1;
        self
    }

    /// Opens a new switch within the current site.
    ///
    /// # Panics
    /// Panics if no site is open yet.
    pub fn switch(mut self) -> Self {
        assert!(self.sites > 0, "switch() needs an open site (call site() first)");
        self.switches += 1;
        self
    }

    /// Adds a processor to the current switch, hosting one rank.
    pub fn node(mut self, name: impl Into<String>, base_speed: f64) -> Self {
        self.push(Processor::new(name, base_speed));
        self
    }

    /// Adds an already-configured processor to the current switch.
    pub fn processor(mut self, p: Processor) -> Self {
        self.push(p);
        self
    }

    /// Sets how many ranks the most recently added node hosts (its slot
    /// count is raised to match) — the SMP / co-located-ranks idiom that
    /// used to need `Processor::with_slots` plus an explicit placement.
    ///
    /// # Panics
    /// Panics if no node has been added yet or `ranks == 0`.
    pub fn ranks(mut self, ranks: usize) -> Self {
        assert!(ranks >= 1, "a node hosts at least one rank");
        let last = self
            .node_ranks
            .last_mut()
            .expect("ranks() applies to the most recent node(); add one first");
        *last = ranks;
        let p = self.nodes.last_mut().expect("nodes and ranks move together");
        if p.slots < ranks {
            p.slots = ranks;
        }
        self
    }

    fn push(&mut self, p: Processor) {
        if self.sites == 0 {
            self.sites = 1;
            self.switches = 1;
        }
        self.nodes.push(p);
        self.node_site.push(self.sites - 1);
        self.node_switch.push(self.switches - 1);
        self.node_ranks.push(1);
    }

    /// Default link between nodes of one site, whether or not they share a
    /// switch (the LAN class).
    pub fn intra_switch(mut self, link: Link) -> Self {
        self.intra_switch = Some(link);
        self
    }

    /// Default link between sites (the WAN class). Falls back to the
    /// intra-switch link when unset.
    pub fn inter_site(mut self, link: Link) -> Self {
        self.inter_site = Some(link);
        self
    }

    /// Overrides the link between a specific node pair, in both
    /// directions, on top of the level defaults.
    pub fn link_between(mut self, a: usize, b: usize, link: Link) -> Self {
        self.overrides.push((a, b, link));
        self
    }

    /// Sets the contention model.
    pub fn contention(mut self, c: ContentionModel) -> Self {
        self.contention = c;
        self
    }

    /// Attaches a fault-injection plan.
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.faults = plan;
        self
    }

    /// Models the innermost hierarchy level: transfers between distinct
    /// ranks co-located on one node travel this memory bus.
    pub fn mem_bus(mut self, link: Link) -> Self {
        self.mem_bus = Some(link);
        self
    }

    /// Finishes construction: resolves each pair's link class from the
    /// hierarchy (same site → intra-switch, otherwise inter-site), applies
    /// overrides, and lays ranks out in node order.
    ///
    /// # Panics
    /// Panics if no nodes were added or an override references an unknown
    /// node.
    pub fn build(self) -> Topology {
        let n = self.nodes.len();
        assert!(n > 0, "a topology needs at least one processor");
        let intra = self
            .intra_switch
            .unwrap_or_else(|| Link::with_defaults(Protocol::Tcp));
        let wan = self.inter_site.unwrap_or_else(|| intra.clone());
        let mut links = vec![vec![intra.clone(); n]; n];
        for (i, row) in links.iter_mut().enumerate() {
            for (j, slot) in row.iter_mut().enumerate() {
                if i == j {
                    *slot = Link::loopback();
                } else if self.node_site[i] != self.node_site[j] {
                    *slot = wan.clone();
                }
            }
        }
        for (a, b, link) in self.overrides {
            assert!(a < n && b < n, "link override ({a},{b}) out of range 0..{n}");
            links[a][b] = link.clone();
            links[b][a] = link;
        }
        let placement: Vec<NodeId> = self
            .node_ranks
            .iter()
            .enumerate()
            .flat_map(|(i, &r)| std::iter::repeat_n(NodeId(i), r))
            .collect();
        let mut cluster =
            Cluster::from_parts(self.nodes, links, self.contention).with_faults(self.faults);
        cluster.mem_bus = self.mem_bus;
        // A flat build must stay structurally identical to the equivalent
        // ClusterBuilder output, so the declaration is attached only when
        // it actually says something.
        if self.sites > 1 || self.switches > 1 {
            cluster.topology = Some(TopologyInfo::new(self.node_site, self.node_switch));
        }
        Topology { cluster, placement }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_lan_em3d_matches_section5() {
        let c = Cluster::paper_lan_em3d();
        assert_eq!(c.len(), 9);
        let speeds: Vec<f64> = c.nodes().iter().map(|n| n.base_speed).collect();
        assert_eq!(
            speeds,
            vec![46.0, 46.0, 46.0, 46.0, 46.0, 46.0, 176.0, 106.0, 9.0]
        );
        assert_eq!(c.contention(), ContentionModel::ParallelLinks);
    }

    #[test]
    fn self_links_are_loopback() {
        let c = Cluster::paper_lan_em3d();
        for id in c.node_ids() {
            assert_eq!(c.link(id, id).protocol, Protocol::Loopback);
            assert!(c.transfer_time(id, id, 1_000_000).is_zero());
        }
    }

    #[test]
    fn cross_links_are_tcp_100mbit() {
        let c = Cluster::paper_lan_em3d();
        let l = c.link(NodeId(0), NodeId(1));
        assert_eq!(l.protocol, Protocol::Tcp);
        // ~11 MB/s: 11 MB should take about a second plus latency.
        let t = c.transfer_time(NodeId(0), NodeId(1), 11_000_000);
        assert!((t.as_secs() - 1.0).abs() < 0.01);
    }

    #[test]
    fn builder_overrides_are_symmetric_by_default() {
        let fast = Link::new(1e-6, 1e9, Protocol::Custom("myrinet".into()));
        let c = ClusterBuilder::new()
            .node("a", 10.0)
            .node("b", 20.0)
            .node("c", 30.0)
            .all_to_all(Link::with_defaults(Protocol::Tcp))
            .link_between(0, 1, fast.clone())
            .build();
        assert_eq!(c.link(NodeId(0), NodeId(1)), &fast);
        assert_eq!(c.link(NodeId(1), NodeId(0)), &fast);
        assert_eq!(c.link(NodeId(0), NodeId(2)).protocol, Protocol::Tcp);
    }

    #[test]
    #[should_panic]
    fn builder_rejects_empty_cluster() {
        let _ = ClusterBuilder::new().build();
    }

    #[test]
    #[should_panic]
    fn builder_rejects_out_of_range_override() {
        let _ = ClusterBuilder::new()
            .node("a", 1.0)
            .link_between(0, 5, Link::default())
            .build();
    }

    #[test]
    fn random_cluster_is_deterministic_and_in_range() {
        for seed in 0..50u64 {
            let a = Cluster::random(seed, 32);
            let b = Cluster::random(seed, 32);
            assert_eq!(a.len(), b.len(), "seed {seed} node count differs");
            assert!((1..=32).contains(&a.len()));
            for (na, nb) in a.nodes().iter().zip(b.nodes()) {
                assert_eq!(na.base_speed, nb.base_speed, "seed {seed} speeds differ");
                assert!((5.0..500.0).contains(&na.base_speed));
            }
            assert_eq!(a.contention(), b.contention());
            for i in a.node_ids() {
                for j in a.node_ids() {
                    let (la, lb) = (a.link(i, j), b.link(i, j));
                    assert_eq!(la.latency, lb.latency, "seed {seed} link differs");
                    assert_eq!(la.bandwidth, lb.bandwidth);
                    if i != j {
                        assert!((1e-6..1e-2).contains(&la.latency));
                        assert!((1e6..1e9).contains(&la.bandwidth));
                    }
                }
            }
            assert!(a.faults().is_empty(), "generator must not attach faults");
        }
    }

    #[test]
    fn random_cluster_covers_all_contention_modes() {
        let mut seen = std::collections::HashSet::new();
        for seed in 0..60u64 {
            seen.insert(Cluster::random(seed, 8).contention());
        }
        assert_eq!(seen.len(), 3, "expected all three contention modes");
    }

    #[test]
    fn mem_bus_prices_same_node_rank_pairs() {
        let mem = Link::new(1e-7, 1e10, Protocol::Custom("membus".into()));
        let c = ClusterBuilder::new()
            .node("a", 10.0)
            .node("b", 20.0)
            .all_to_all(Link::with_defaults(Protocol::Tcp))
            .mem_bus(mem.clone())
            .build();
        // Two ranks on node 0, one on node 1.
        assert_eq!(c.rank_link(NodeId(0), NodeId(0)), &mem);
        assert_eq!(c.rank_link(NodeId(0), NodeId(1)).protocol, Protocol::Tcp);
        let t = c.pair_table(&[NodeId(0), NodeId(0), NodeId(1)]);
        assert_eq!(t.latency(0, 1), 1e-7);
        assert_eq!(t.bandwidth(0, 1), 1e10);
        assert_eq!(t.latency(0, 0), 0.0); // diagonal stays free
        assert!(t.latency(0, 2) > 1e-7); // cross-node stays on the network
        // Fault-honouring path: the bus is immune to network link faults.
        let at = c
            .rank_transfer_time_at(NodeId(0), NodeId(0), 1_000_000, SimTime::ZERO)
            .unwrap();
        assert!((at.as_secs() - (1e-7 + 1e-4)).abs() < 1e-12);
    }

    #[test]
    fn without_mem_bus_same_node_ranks_stay_free() {
        let c = Cluster::paper_lan_em3d();
        assert!(c.mem_bus().is_none());
        assert!(c
            .rank_transfer_time_at(NodeId(0), NodeId(0), 1_000_000, SimTime::ZERO)
            .unwrap()
            .is_zero());
        let t = c.pair_table(&[NodeId(0), NodeId(0)]);
        assert_eq!(t.latency(0, 1), 0.0);
        assert!(t.bandwidth(0, 1).is_infinite());
    }

    #[test]
    fn compute_time_uses_node_speed() {
        let c = Cluster::paper_lan_em3d();
        // Node 8 has speed 9: 18 units take 2 virtual seconds.
        let t = c.compute_time(NodeId(8), 18.0, SimTime::ZERO);
        assert!((t.as_secs() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn flat_topology_build_matches_cluster_builder_exactly() {
        let fast = Link::new(1e-6, 1e9, Protocol::Custom("myrinet".into()));
        let mem = Link::new(1e-7, 1e10, Protocol::SharedMemory);
        let flat = ClusterBuilder::new()
            .node("a", 10.0)
            .node("b", 20.0)
            .node("c", 30.0)
            .all_to_all(Link::with_defaults(Protocol::Tcp))
            .link_between(0, 2, fast.clone())
            .contention(ContentionModel::SerializedNic)
            .mem_bus(mem.clone())
            .build();
        let topo = TopologyBuilder::new()
            .node("a", 10.0)
            .node("b", 20.0)
            .node("c", 30.0)
            .intra_switch(Link::with_defaults(Protocol::Tcp))
            .link_between(0, 2, fast)
            .contention(ContentionModel::SerializedNic)
            .mem_bus(mem)
            .build();
        let c = topo.cluster();
        assert!(c.topology().is_none(), "flat build must not declare structure");
        assert_eq!(topo.placement(), &[NodeId(0), NodeId(1), NodeId(2)]);
        assert_eq!(c.nodes(), flat.nodes());
        assert_eq!(c.contention(), flat.contention());
        assert_eq!(c.mem_bus(), flat.mem_bus());
        for i in c.node_ids() {
            for j in c.node_ids() {
                assert_eq!(c.link(i, j), flat.link(i, j), "link {i:?}->{j:?}");
            }
        }
    }

    #[test]
    fn hierarchical_build_routes_link_classes_by_level() {
        let topo = TopologyBuilder::new()
            .intra_switch(Link::new(1e-4, 1e8, Protocol::Tcp))
            .inter_site(Link::new(5e-3, 1e6, Protocol::Tcp))
            .site()
            .node("a0", 10.0)
            .node("a1", 10.0)
            .switch()
            .node("a2", 10.0)
            .site()
            .node("b0", 10.0)
            .build();
        let c = topo.cluster();
        let info = c.topology().expect("two sites declare structure");
        assert_eq!(info.sites(), 2);
        assert_eq!(info.switches(), 3);
        assert_eq!(c.site_of(NodeId(0)), 0);
        assert_eq!(c.site_of(NodeId(3)), 1);
        assert_eq!(c.switch_of(NodeId(2)), 1);
        // Same site, on either switch → intra; cross-site → WAN.
        assert_eq!(c.link(NodeId(0), NodeId(1)).latency, 1e-4);
        assert_eq!(c.link(NodeId(0), NodeId(2)).latency, 1e-4);
        assert_eq!(c.link(NodeId(0), NodeId(3)).latency, 5e-3);
        assert_eq!(c.link(NodeId(3), NodeId(2)).latency, 5e-3);
    }

    #[test]
    fn ranks_expand_placement_and_slots() {
        let topo = TopologyBuilder::new()
            .node("smp", 100.0)
            .ranks(3)
            .node("uni", 50.0)
            .build();
        assert_eq!(topo.ranks(), 4);
        assert_eq!(
            topo.placement(),
            &[NodeId(0), NodeId(0), NodeId(0), NodeId(1)]
        );
        assert_eq!(topo.cluster().node(NodeId(0)).slots, 3);
        assert_eq!(topo.cluster().node(NodeId(1)).slots, 1);
    }

    #[test]
    fn flat_clusters_report_level_zero_everywhere() {
        let c = Cluster::paper_lan_em3d();
        assert!(c.topology().is_none());
        for id in c.node_ids() {
            assert_eq!(c.site_of(id), 0);
            assert_eq!(c.switch_of(id), 0);
        }
    }

    #[test]
    #[should_panic(expected = "switch 0")]
    fn topology_info_rejects_switch_spanning_sites() {
        let _ = TopologyInfo::new(vec![0, 1], vec![0, 0]);
    }
}
