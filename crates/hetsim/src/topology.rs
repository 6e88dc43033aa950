//! Cluster topology: processors plus the link class of every node pair.
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
use std::sync::Arc;

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

/// A pairwise link-cost table over a node subset, produced by
/// [`Cluster::pair_table`]. Indices are positions in the subset, not
/// [`NodeId`]s, so the table maps directly onto ranks (a communicator's, or
/// the world's when built over the whole placement). It is a view of the
/// cluster's class index, shared with the cluster: a position pair reads
/// the class of its two nodes' link, or the memory-bus class for two
/// distinct positions on one node, so it holds O(n) data, not a cell per
/// pair. Two tables are equal when every pair costs the same, however
/// their classes are numbered.
#[derive(Clone, Debug)]
pub struct PairTable {
    /// Number of endpoints in the subset.
    pub n: usize,
    /// `nodes[i]` = the node hosting position `i`: positions sharing a
    /// node share its contention resources (NIC, memory bus).
    pub nodes: Vec<NodeId>,
    /// `(latency, bandwidth)` of each class, in seconds and bytes/second.
    /// Class `LOOPBACK` is the free diagonal (0 s, infinite bandwidth).
    costs: Vec<(f64, f64)>,
    /// The cluster's row-major node-pair class index, `width × width`.
    class_of: Arc<[u32]>,
    width: usize,
    /// The class of the intra-node memory bus, when one is modelled.
    mem_bus: Option<u32>,
}

impl PairTable {
    /// Latency from subset position `i` to position `j`.
    #[inline]
    pub fn latency(&self, i: usize, j: usize) -> f64 {
        self.cost(i, j).0
    }

    /// Bandwidth from subset position `i` to position `j`.
    #[inline]
    pub fn bandwidth(&self, i: usize, j: usize) -> f64 {
        self.cost(i, j).1
    }

    #[inline]
    fn cost(&self, i: usize, j: usize) -> (f64, f64) {
        let (a, b) = (self.nodes[i].0, self.nodes[j].0);
        let class = match self.mem_bus {
            Some(bus) if a == b && i != j => bus,
            _ => self.class_of[a * self.width + b],
        };
        self.costs[class as usize]
    }
}

impl PartialEq for PairTable {
    fn eq(&self, other: &Self) -> bool {
        let pairs = || (0..self.n).flat_map(|i| (0..self.n).map(move |j| (i, j)));
        self.n == other.n
            && self.nodes == other.nodes
            && pairs().all(|(i, j)| self.cost(i, j) == other.cost(i, j))
    }
}

/// The class of a node's link to itself, in a cluster and a pair table.
const LOOPBACK: u32 = 0;
/// The class of a pair within one site.
const INTRA_SWITCH: u32 = 1;
/// The class of a pair across sites; `link_between` overrides follow.
const INTER_SITE: u32 = 2;

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
    /// The link classes: loopback, intra-switch and inter-site, then one
    /// per `link_between` override.
    classes: Arc<[Link]>,
    /// Row-major `n × n`: `class_of[i * n + j]` indexes `classes` with the
    /// link used when node `i` sends to node `j`. Clones share it.
    class_of: Arc<[u32]>,
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
        &self.classes[self.row(from)[to.0] as usize]
    }

    /// The classes of the links `from` sends over, indexed by receiver.
    #[inline]
    fn row(&self, from: NodeId) -> &[u32] {
        let n = self.nodes.len();
        &self.class_of[from.0 * n..][..n]
    }

    /// The link a message between *distinct ranks* placed on `from` and
    /// `to` travels: the inter-node link, or the intra-node memory bus when
    /// both ranks share a node and a bus is modelled. Same-rank self-sends
    /// do not route through this (they stay on the free loopback).
    #[inline]
    pub fn rank_link(&self, from: NodeId, to: NodeId) -> &Link {
        match &self.mem_bus {
            Some(mem) if from == to => mem,
            _ => self.link(from, to),
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

    /// A latency/bandwidth table for the given node subset, indexed by
    /// *position* in `nodes` (so row `i`, column `j` prices a message from
    /// `nodes[i]` to `nodes[j]`). This is the one link-cost view of the
    /// stack: the collective planner selects algorithms against it (over a
    /// communicator's nodes) and HMPI's selection search prices candidate
    /// mappings against it (over the world placement). It reports the
    /// healthy base link parameters, ignoring transient faults. Distinct
    /// positions sharing a node price over the memory bus when one is
    /// modelled ([`Cluster::rank_link`]); the diagonal is the free loopback
    /// a self-send rides (0 s, infinite bandwidth). It is a view of the
    /// cluster's class index: it copies `nodes` and one cost per link class.
    pub fn pair_table(&self, nodes: &[NodeId]) -> PairTable {
        let mut costs: Vec<(f64, f64)> = self
            .classes
            .iter()
            .map(|l| (l.latency, l.bandwidth))
            .collect();
        let mem_bus = self.mem_bus.as_ref().map(|m| {
            costs.push((m.latency, m.bandwidth));
            (costs.len() - 1) as u32
        });
        PairTable {
            n: nodes.len(),
            nodes: nodes.to_vec(),
            costs,
            class_of: Arc::clone(&self.class_of),
            width: self.nodes.len(),
            mem_bus,
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
        TopologyBuilder::paper_lan(speeds).build().into_parts().0
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
        TopologyBuilder::paper_lan(speeds)
            .faults(faults)
            .build()
            .into_parts()
            .0
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
        let mut b = TopologyBuilder::new();
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
        b = b.intra_switch(rnd_link(&mut rng));
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
        b.contention(contention).build().into_parts().0
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

/// The flat, one-level case of [`TopologyBuilder`], kept only for
/// callers that still name it: each method forwards to the builder
/// (`all_to_all` is [`TopologyBuilder::intra_switch`]) and
/// [`ClusterBuilder::build`] keeps the cluster of the built [`Topology`].
#[derive(Clone, Debug, Default)]
pub struct ClusterBuilder(TopologyBuilder);

impl ClusterBuilder {
    /// An empty builder.
    pub fn new() -> Self {
        ClusterBuilder::default()
    }

    /// [`TopologyBuilder::node`].
    pub fn node(self, name: impl Into<String>, base_speed: f64) -> Self {
        ClusterBuilder(self.0.node(name, base_speed))
    }

    /// [`TopologyBuilder::intra_switch`]: `link` between every distinct pair.
    pub fn all_to_all(self, link: Link) -> Self {
        ClusterBuilder(self.0.intra_switch(link))
    }

    /// [`TopologyBuilder::faults`].
    pub fn faults(self, plan: FaultPlan) -> Self {
        ClusterBuilder(self.0.faults(plan))
    }

    /// [`TopologyBuilder::build`], keeping the cluster.
    pub fn build(self) -> Cluster {
        self.0.build().into_parts().0
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

/// The one way to describe a testbed: sites contain switches contain
/// nodes contain ranks, with per-level default link classes. A build with
/// no `site()` / `switch()` call is flat (no declaration attached), and
/// [`TopologyBuilder::ranks`] co-locates ranks on a node.
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

    /// The paper's LAN ([`Cluster::paper_lan`]) as a builder: workstations
    /// `ws00`, `ws01`, … with the given speeds on one switch of default
    /// TCP links, one rank each. Chain further settings (contention,
    /// faults) before [`TopologyBuilder::build`].
    pub fn paper_lan(speeds: &[f64]) -> Self {
        let b = TopologyBuilder::new().intra_switch(Link::with_defaults(Protocol::Tcp));
        speeds
            .iter()
            .enumerate()
            .fold(b, |b, (i, &s)| b.node(format!("ws{i:02}"), s))
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

    /// Sets how many ranks the most recently added node hosts (an SMP
    /// node, or ranks sharing a memory bus).
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
    ///
    /// # Panics
    /// Panics if `a == b`: a node's loopback is not a link.
    pub fn link_between(mut self, a: usize, b: usize, link: Link) -> Self {
        assert_ne!(
            a, b,
            "link_between({a}, {b}): a node's loopback cannot be overridden"
        );
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
        let mut classes = vec![Link::loopback(), intra, wan];
        let mut class_of = Vec::with_capacity(n * n);
        for i in 0..n {
            for j in 0..n {
                class_of.push(if i == j {
                    LOOPBACK
                } else if self.node_site[i] != self.node_site[j] {
                    INTER_SITE
                } else {
                    INTRA_SWITCH
                });
            }
        }
        for (a, b, link) in self.overrides {
            assert!(a < n && b < n, "link override ({a},{b}) out of range 0..{n}");
            let class = classes.len() as u32;
            classes.push(link);
            class_of[a * n + b] = class;
            class_of[b * n + a] = class;
        }
        let placement: Vec<NodeId> = self
            .node_ranks
            .iter()
            .enumerate()
            .flat_map(|(i, &r)| std::iter::repeat_n(NodeId(i), r))
            .collect();
        // A flat build attaches no declaration: one site and one switch say
        // nothing the flat cluster does not.
        let declared = self.sites > 1 || self.switches > 1;
        let cluster = Cluster {
            nodes: self.nodes,
            classes: classes.into(),
            class_of: class_of.into(),
            contention: self.contention,
            faults: self.faults,
            mem_bus: self.mem_bus,
            topology: declared.then_some(TopologyInfo {
                site_of: self.node_site,
                switch_of: self.node_switch,
            }),
        };
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
        let topo = TopologyBuilder::new()
            .node("a", 10.0)
            .node("b", 20.0)
            .node("c", 30.0)
            .link_between(0, 1, fast.clone())
            .build();
        let c = topo.cluster();
        assert_eq!(c.link(NodeId(0), NodeId(1)), &fast);
        assert_eq!(c.link(NodeId(1), NodeId(0)), &fast);
        assert_eq!(c.link(NodeId(0), NodeId(2)).protocol, Protocol::Tcp);
    }

    #[test]
    #[should_panic]
    fn builder_rejects_empty_cluster() {
        let _ = TopologyBuilder::new().build();
    }

    #[test]
    #[should_panic]
    fn builder_rejects_out_of_range_override() {
        let _ = TopologyBuilder::new()
            .node("a", 1.0)
            .link_between(0, 5, Link::default())
            .build();
    }

    #[test]
    #[should_panic(expected = "loopback cannot be overridden")]
    fn builder_rejects_a_self_link_override() {
        let _ = TopologyBuilder::new()
            .node("a", 1.0)
            .node("b", 1.0)
            .link_between(1, 1, Link::default());
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
        let topo = TopologyBuilder::new()
            .node("a", 10.0)
            .node("b", 20.0)
            .mem_bus(mem.clone())
            .build();
        let c = topo.cluster();
        // Two ranks on node 0, one on node 1.
        assert_eq!(c.rank_link(NodeId(0), NodeId(0)), &mem);
        assert_eq!(c.rank_link(NodeId(0), NodeId(1)).protocol, Protocol::Tcp);
        let t = c.pair_table(&[NodeId(0), NodeId(0), NodeId(1)]);
        assert_eq!(t.nodes, [NodeId(0), NodeId(0), NodeId(1)]);
        assert_eq!(t.latency(0, 1), 1e-7);
        assert_eq!(t.bandwidth(0, 1), 1e10);
        // The diagonal is the free loopback, memory bus or not.
        assert_eq!((t.latency(0, 0), t.bandwidth(0, 0)), (0.0, f64::INFINITY));
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
    }

    #[test]
    fn link_reads_the_sender_row() {
        // Builders only make symmetric indices; pin the layout with one
        // that is not: node 0 sends over class 1, node 1 over class 2.
        let built = TopologyBuilder::new()
            .intra_switch(Link::new(1e-4, 1e8, Protocol::Tcp))
            .inter_site(Link::new(5e-3, 1e6, Protocol::Tcp))
            .node("a", 1.0)
            .node("b", 1.0)
            .build();
        let c = Cluster {
            class_of: vec![LOOPBACK, INTRA_SWITCH, INTER_SITE, LOOPBACK].into(),
            ..built.into_parts().0
        };
        assert_eq!(c.link(NodeId(0), NodeId(1)).latency, 1e-4);
        assert_eq!(c.link(NodeId(1), NodeId(0)).latency, 5e-3);
        let t = c.pair_table(&[NodeId(1), NodeId(0)]);
        assert_eq!((t.latency(0, 1), t.latency(1, 0)), (5e-3, 1e-4));
    }

    #[test]
    fn clones_share_the_class_index() {
        let topo = TopologyBuilder::paper_lan(&PAPER_EM3D_SPEEDS).build();
        let (a, b) = (topo.cluster(), topo.clone().into_parts().0);
        assert!(Arc::ptr_eq(&a.class_of, &b.class_of));
        assert!(Arc::ptr_eq(&a.classes, &b.classes));
    }

    #[test]
    fn pair_tables_compare_costs_not_class_numbers() {
        let lan = Link::new(1e-4, 1e8, Protocol::Tcp);
        let plain = TopologyBuilder::new()
            .intra_switch(lan.clone())
            .node("a", 1.0)
            .node("b", 1.0)
            .build();
        // The same costs, reached through an override's class.
        let overridden = TopologyBuilder::new()
            .node("a", 1.0)
            .node("b", 1.0)
            .link_between(0, 1, lan)
            .build();
        let nodes = [NodeId(0), NodeId(1), NodeId(1)];
        let t = plain.cluster().pair_table(&nodes);
        assert_eq!(t, overridden.cluster().pair_table(&nodes));
        let slower = TopologyBuilder::new()
            .intra_switch(Link::new(2e-4, 1e8, Protocol::Tcp))
            .node("a", 1.0)
            .node("b", 1.0)
            .build();
        assert_ne!(t, slower.cluster().pair_table(&nodes));
        assert_ne!(t, plain.cluster().pair_table(&nodes[..2]));
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
}
