//! One plan per collective call, shared by every rank of the universe.
//!
//! A [`Plan`] is everything the engine derives from a call's arguments
//! before it moves a byte: the algorithm that runs, its predicted virtual
//! time, and the transfer rounds that are executed, poisoned on abort and
//! priced by `timeof`. Plans are a *pure function* of their [`PlanKey`]
//! ([`build`]), so instead of every rank re-deriving the same plan on every
//! call, the universe keeps them in a `PlanCache`: the first rank to
//! arrive at a call plans it, the other `p − 1` ranks — and every later
//! call with the same key — take an [`Arc`] clone.
//!
//! The key is exactly what the pricer reads and nothing else: kind,
//! requested algorithm, the communicator's rank → node vector, root,
//! element count and element size. The cluster, its contention model and
//! the collective policy are constants of a universe, and pricing reads
//! the *healthy* base links ([`Cluster::pair_table`]), never fault state,
//! so a key needs no epoch: a plan can not go stale within a run.
//!
//! Because a plan depends on its key alone, hit, miss and eviction order —
//! which follow host thread scheduling — can never change an algorithm
//! choice, a virtual time, a reduction bit or a poison edge. For the same
//! reason the cache writes nothing into the virtual-time trace; its
//! counters surface host-side only, in
//! [`RunReport::plans`](crate::RunReport).

use crate::engine::CollectivePolicy;
use crate::error::{MpiError, MpiResult};
use hetsim::{Cluster, ContentionModel, NodeId, PairTable};
use parking_lot::{Mutex, RwLock};
use perfmodel::collective::{
    algos_for, eligible, price, schedule, CollectiveAlgo, CollectiveKind, LinkSharing, Xfer,
};
use perfmodel::{hier_plan, PairCost, RankTopology};
use std::collections::{HashMap, VecDeque};
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// Resident-plan bound, in scheduled transfers (72 bytes each with their
/// two [`Plan::program`] slots, plus 8 per raw origin carried): past it the
/// longest-resident plans are dropped. Ranks mid-collective keep the
/// [`Arc`] they hold, and a dropped plan is rebuilt — identically — the next
/// time its key is asked for.
const MAX_RESIDENT_XFERS: usize = 1 << 17;

/// Cost-view bound, in pair-table cells (16 bytes each).
const MAX_VIEW_CELLS: usize = 1 << 22;

pub(crate) fn ineligible(kind: CollectiveKind, algo: CollectiveAlgo, p: usize) -> MpiError {
    MpiError::InvalidCounts(format!(
        "algorithm {} is not eligible for {} over {p} rank(s)",
        algo.name(),
        kind.name(),
    ))
}

/// What identifies a collective call to the planner. Only
/// [`PlanKey::new`] builds one, so a key in hand has a root inside the
/// communicator and a request some plan can exist for.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct PlanKey {
    kind: CollectiveKind,
    request: CollectivePolicy,
    nodes: Vec<NodeId>,
    root: usize,
    elems: usize,
    elem_bytes: usize,
}

impl PlanKey {
    /// The key of a `kind` collective over `elems` elements of `elem_bytes`
    /// each (for allgather, `elems` is the total output length), rooted at
    /// communicator rank `root`, on a communicator whose rank `r` lives on
    /// `nodes[r]`. `request` is how the algorithm is chosen:
    /// [`CollectivePolicy::Auto`] / [`CollectivePolicy::FlatAuto`] select by
    /// price, [`CollectivePolicy::Fixed`] pins one —
    /// `Fixed(Hierarchical)` asks for the topology's hierarchical plan
    /// whether or not it beats the flat winner.
    ///
    /// The node vector, not the communicator's context id, identifies the
    /// member set: two communicators over the same nodes in the same rank
    /// order price identically and share plans.
    ///
    /// # Errors
    /// [`MpiError::InvalidRank`] if `root` is outside the communicator;
    /// [`MpiError::InvalidCounts`] if a pinned flat algorithm is not
    /// eligible for `kind` at this size.
    pub fn new(
        kind: CollectiveKind,
        request: CollectivePolicy,
        nodes: Vec<NodeId>,
        root: usize,
        elems: usize,
        elem_bytes: usize,
    ) -> MpiResult<PlanKey> {
        let p = nodes.len();
        if root >= p {
            return Err(MpiError::InvalidRank {
                rank: root as isize,
                comm_size: p,
            });
        }
        if let CollectivePolicy::Fixed(algo) = request {
            if algo != CollectiveAlgo::Hierarchical && !eligible(kind, algo, p) {
                return Err(ineligible(kind, algo, p));
            }
        }
        // Rootless kinds funnel through rank 0 whatever the caller passed.
        let root = match kind {
            CollectiveKind::Bcast | CollectiveKind::Reduce => root,
            CollectiveKind::Allreduce | CollectiveKind::Allgather => 0,
        };
        Ok(PlanKey {
            kind,
            request,
            nodes,
            root,
            elems,
            elem_bytes,
        })
    }
}

/// How one collective call runs: the product of [`build`].
#[derive(Clone, Debug, PartialEq)]
pub struct Plan {
    /// The algorithm that runs ([`CollectiveAlgo::Hierarchical`] for a
    /// multi-level plan).
    pub algo: CollectiveAlgo,
    /// Predicted virtual seconds from a synchronised start:
    /// [`price`] over [`Plan::rounds`].
    pub seconds: f64,
    /// The transfer rounds: interpreted by the engine, poisoned from on an
    /// abort, replayed by the pricer.
    pub rounds: Vec<Vec<Xfer>>,
    /// `own[r]`: where rank `r`'s transfers sit in `rounds`, as
    /// `(round, index)` in the order `r` runs them — each round's sends,
    /// then its receives — so no rank scans the other ranks' transfers.
    own: Vec<Vec<(u32, u32)>>,
}

impl Plan {
    fn new(algo: CollectiveAlgo, seconds: f64, rounds: Vec<Vec<Xfer>>, p: usize) -> Plan {
        let mut own = vec![Vec::new(); p];
        for (r, round) in rounds.iter().enumerate() {
            let at = |i: usize| (r as u32, i as u32);
            for (i, x) in round.iter().enumerate() {
                own[x.src].push(at(i));
            }
            for (i, x) in round.iter().enumerate() {
                own[x.dst].push(at(i));
            }
        }
        Plan {
            algo,
            seconds,
            rounds,
            own,
        }
    }

    /// Scheduled transfers, the unit the cache's bound counts.
    pub(crate) fn xfers(&self) -> usize {
        self.rounds.iter().map(Vec::len).sum()
    }

    /// The transfers `rank` sends or receives, in the order it runs them.
    pub(crate) fn program(&self, rank: usize) -> impl Iterator<Item = &Xfer> {
        self.own[rank]
            .iter()
            .map(|&(r, i)| &self.rounds[r as usize][i as usize])
    }
}

/// The pricer's view of a communicator: pairwise link costs by
/// communicator rank, uniform unit speeds (collective pricing involves no
/// computation).
struct CostView {
    table: PairTable,
    /// `nodes[comm_rank]` = hosting cluster node, so the pricer's per-node
    /// contention resources (NIC, memory bus) group co-located ranks.
    nodes: Vec<NodeId>,
}

impl PairCost for CostView {
    fn speed(&self, _proc: usize) -> f64 {
        1.0
    }
    fn latency(&self, src: usize, dst: usize) -> f64 {
        self.table.latency(src, dst)
    }
    fn bandwidth(&self, src: usize, dst: usize) -> f64 {
        self.table.bandwidth(src, dst)
    }
    fn node_of(&self, proc: usize) -> usize {
        self.nodes[proc].index()
    }
}

fn sharing_of(c: ContentionModel) -> LinkSharing {
    match c {
        ContentionModel::ParallelLinks => LinkSharing::Parallel,
        ContentionModel::SerializedNic => LinkSharing::PerEndpoint,
        ContentionModel::SharedBus => LinkSharing::Shared,
    }
}

/// Everything about a rank → node vector that planning reads: the p × p
/// pair table, and — only once a hierarchical plan is wanted — the
/// per-rank hierarchy coordinates.
struct View {
    cost: CostView,
    topo: OnceLock<RankTopology>,
}

impl View {
    fn new(cluster: &Cluster, nodes: &[NodeId]) -> View {
        View {
            cost: CostView {
                table: cluster.pair_table(nodes),
                nodes: nodes.to_vec(),
            },
            topo: OnceLock::new(),
        }
    }

    /// Hierarchy coordinates: read off the cluster's declared
    /// [`hetsim::TopologyInfo`] when one exists, otherwise inferred from
    /// the pair table's latency scale ([`RankTopology::infer`]). A flat
    /// cluster yields flat coordinates either way, and [`hier_plan`] then
    /// declines to plan.
    fn topo(&self, cluster: &Cluster) -> &RankTopology {
        self.topo.get_or_init(|| {
            let nodes = &self.cost.nodes;
            match cluster.topology() {
                Some(info) => RankTopology::new(
                    nodes.iter().map(|&n| info.site_of(n)).collect(),
                    nodes.iter().map(|&n| info.switch_of(n)).collect(),
                    nodes.iter().map(|n| n.index()).collect(),
                ),
                None => RankTopology::infer(nodes.len(), &self.cost),
            }
        })
    }
}

/// Plans one collective call: a pure function of the key and the cluster's
/// healthy links, contention model and declared topology. This is what the
/// cache runs on a miss, and the oracle its tests compare entries against.
///
/// A pinned algorithm is scheduled and priced. The auto requests price
/// every eligible flat algorithm (strict minimum, ties to the earlier
/// entry of [`CollectiveAlgo::ALL`]); [`CollectivePolicy::Auto`] then
/// adopts the hierarchical plan only when *strictly* cheaper, so flat
/// topologies — where none exists — and ties keep the flat choice.
///
/// # Errors
/// [`MpiError::InvalidCounts`] when the hierarchical plan is pinned and the
/// topology offers none.
pub fn build(key: &PlanKey, cluster: &Cluster) -> MpiResult<Plan> {
    build_on(key, &View::new(cluster, &key.nodes), cluster)
}

fn build_on(key: &PlanKey, view: &View, cluster: &Cluster) -> MpiResult<Plan> {
    let &PlanKey {
        kind, root, elems, ..
    } = key;
    let p = key.nodes.len();
    let bytes = key.elem_bytes as f64;
    let sharing = sharing_of(cluster.contention());
    let flat = |algo: CollectiveAlgo| {
        let rounds =
            schedule(kind, algo, p, root, elems).expect("PlanKey::new checked eligibility");
        (algo, price(p, &rounds, bytes, &view.cost, sharing), rounds)
    };
    let hier = || {
        let topo = view.topo(cluster);
        let rounds = hier_plan(kind, p, root, elems, bytes, topo, &view.cost, sharing)?.rounds;
        let seconds = price(p, &rounds, bytes, &view.cost, sharing);
        Some((CollectiveAlgo::Hierarchical, seconds, rounds))
    };
    let (algo, seconds, rounds) = match key.request {
        CollectivePolicy::Fixed(CollectiveAlgo::Hierarchical) => hier().ok_or_else(|| {
            MpiError::InvalidCounts(format!(
                "no hierarchical plan exists for {} over {p} rank(s) \
                 (flat topology?)",
                kind.name(),
            ))
        })?,
        CollectivePolicy::Fixed(algo) => flat(algo),
        auto => {
            let mut best = None;
            for cand in algos_for(kind, p).into_iter().map(flat) {
                if best.as_ref().is_none_or(|b: &(_, f64, _)| cand.1 < b.1) {
                    best = Some(cand);
                }
            }
            let best = best.expect("Linear is always eligible");
            let hier = if auto == CollectivePolicy::Auto {
                hier()
            } else {
                None
            };
            hier.filter(|h| h.1 < best.1).unwrap_or(best)
        }
    };
    Ok(Plan::new(algo, seconds, rounds, p))
}

/// A once-cell whose build may fail or panic and leave it empty: readers
/// take `value` without a lock, would-be builders queue on `building`.
struct Cell<T> {
    value: OnceLock<Arc<T>>,
    building: Mutex<()>,
}

/// The lockable part of a [`OnceMap`].
struct Entries<K, T> {
    /// Every cell with its weight — zero while *pending* (empty or being
    /// built), when it is outside the eviction order.
    map: HashMap<K, (Arc<Cell<T>>, usize)>,
    /// Keys of the built cells, longest resident first.
    order: VecDeque<K>,
    weight: usize,
}

/// A keyed store of build-once values, bounded by the summed weight of the
/// built ones: past `cap` the longest-resident go first (never the one just
/// built, never a pending one).
struct OnceMap<K, T> {
    entries: RwLock<Entries<K, T>>,
    cap: usize,
}

impl<K: Clone + Eq + Hash, T> OnceMap<K, T> {
    fn new(cap: usize) -> Self {
        let entries = Entries {
            map: HashMap::new(),
            order: VecDeque::new(),
            weight: 0,
        };
        OnceMap {
            entries: RwLock::new(entries),
            cap,
        }
    }

    /// The value for `key` and, when this call built it, how many entries
    /// that evicted (`None` for a shared value). The first caller to arrive
    /// builds while the rest queue on the cell — no map lock is held
    /// meanwhile. An `Err` or a panic from `build` leaves no value behind:
    /// the next arrival builds again.
    fn get_or_build<E>(
        &self,
        key: &K,
        weigh: impl FnOnce(&T) -> usize,
        build: impl FnOnce() -> Result<T, E>,
    ) -> Result<(Arc<T>, Option<u64>), E> {
        let resident = self.entries.read().map.get(key).map(|e| e.0.clone());
        let cell = resident.unwrap_or_else(|| {
            let fresh = || {
                let cell = Cell {
                    value: OnceLock::new(),
                    building: Mutex::new(()),
                };
                (Arc::new(cell), 0)
            };
            let mut entries = self.entries.write();
            entries
                .map
                .entry(key.clone())
                .or_insert_with(fresh)
                .0
                .clone()
        });
        if let Some(value) = cell.value.get() {
            return Ok((value.clone(), None));
        }
        let _building = cell.building.lock();
        if let Some(value) = cell.value.get() {
            return Ok((value.clone(), None));
        }
        let built = build().map(Arc::new);
        let evicted = self.settle(key, &cell, built.as_ref().ok().map(|v| weigh(v)));
        built.map(|value| {
            let _ = cell.value.set(value.clone());
            (value, Some(evicted))
        })
    }

    /// Ends `cell`'s pending state: with a weight it joins the eviction
    /// order and the longest-resident entries past `cap` go (returns how
    /// many); without one — its build failed — it is dropped.
    fn settle(&self, key: &K, cell: &Arc<Cell<T>>, weight: Option<usize>) -> u64 {
        let mut entries = self.entries.write();
        let entries = &mut *entries;
        // Ours unless a failed build dropped it and someone re-entered.
        let Some(entry) = entries.map.get_mut(key).filter(|e| Arc::ptr_eq(&e.0, cell)) else {
            return 0;
        };
        let Some(weight) = weight else {
            entries.map.remove(key);
            return 0;
        };
        entry.1 = weight;
        entries.weight += weight;
        entries.order.push_back(key.clone());
        let mut evicted = 0;
        while entries.weight > self.cap && entries.order.len() > 1 {
            let old = entries.order.pop_front().expect("length checked");
            let (_, w) = entries.map.remove(&old).expect("order mirrors built cells");
            entries.weight -= w;
            evicted += 1;
        }
        evicted
    }
}

/// The universe-shared plan store (see the module docs).
pub(crate) struct PlanCache {
    plans: OnceMap<PlanKey, Plan>,
    /// Cost views by rank → node vector, so a miss on a new size or root
    /// does not rebuild the p² pair table.
    views: OnceMap<Vec<NodeId>, View>,
    lookups: AtomicU64,
    hits: AtomicU64,
    built: AtomicU64,
    evicted: AtomicU64,
}

impl std::fmt::Debug for PlanCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.report().fmt(f)
    }
}

impl PlanCache {
    pub(crate) fn new() -> Self {
        PlanCache {
            plans: OnceMap::new(MAX_RESIDENT_XFERS),
            views: OnceMap::new(MAX_VIEW_CELLS),
            lookups: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            built: AtomicU64::new(0),
            evicted: AtomicU64::new(0),
        }
    }

    /// The plan for `key`: shared if resident (or being built by another
    /// rank — the caller then waits for it), built here otherwise. Errors
    /// are returned to each caller and leave no entry behind.
    pub(crate) fn get(&self, key: &PlanKey, cluster: &Cluster) -> MpiResult<Arc<Plan>> {
        let p = key.nodes.len();
        let (plan, built) = self.plans.get_or_build(key, Plan::xfers, || {
            let new_view = || Ok::<_, MpiError>(View::new(cluster, &key.nodes));
            let (view, _) = self.views.get_or_build(&key.nodes, |_| p * p, new_view)?;
            build_on(key, &view, cluster)
        })?;
        self.lookups.fetch_add(1, Ordering::Relaxed);
        match built {
            None => self.hits.fetch_add(1, Ordering::Relaxed),
            Some(evicted) => {
                self.evicted.fetch_add(evicted, Ordering::Relaxed);
                self.built.fetch_add(1, Ordering::Relaxed)
            }
        };
        Ok(plan)
    }

    pub(crate) fn report(&self) -> PlanCacheReport {
        let plans = self.plans.entries.read();
        PlanCacheReport {
            lookups: self.lookups.load(Ordering::Relaxed),
            hits: self.hits.load(Ordering::Relaxed),
            built: self.built.load(Ordering::Relaxed),
            evicted: self.evicted.load(Ordering::Relaxed),
            resident_plans: plans.order.len(),
            resident_xfers: plans.weight,
        }
    }
}

/// Counter snapshot of a universe's plan cache, carried in
/// [`RunReport`](crate::RunReport). Host-side only: which rank hit and
/// which built follows thread scheduling, so none of this reaches the
/// virtual-time trace. `hits + built == lookups` always; `built` exceeds
/// the number of distinct calls issued only by re-builds after eviction.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlanCacheReport {
    /// Plans handed out (calls that ended in a typed error are not counted).
    pub lookups: u64,
    /// … of which shared: resident, or built by another rank meanwhile.
    pub hits: u64,
    /// … of which planned by the asking rank ([`build`] ran).
    pub built: u64,
    /// Plans dropped to stay under the resident bound.
    pub evicted: u64,
    /// Plans resident at snapshot time.
    pub resident_plans: usize,
    /// Their scheduled transfers — what the bound counts.
    pub resident_xfers: usize,
}

/// Totals over several runs (each run owns a fresh cache).
impl std::ops::AddAssign for PlanCacheReport {
    fn add_assign(&mut self, r: Self) {
        self.lookups += r.lookups;
        self.hits += r.hits;
        self.built += r.built;
        self.evicted += r.evicted;
        self.resident_plans += r.resident_plans;
        self.resident_xfers += r.resident_xfers;
    }
}

impl std::fmt::Display for PlanCacheReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} lookups, {} hits ({:.1}%), {} built, {} evicted, {} plans / {} transfers resident",
            self.lookups,
            self.hits,
            100.0 * self.hits as f64 / self.lookups.max(1) as f64,
            self.built,
            self.evicted,
            self.resident_plans,
            self.resident_xfers
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetsim::ClusterBuilder;
    use std::sync::Barrier;

    fn cluster(n: usize) -> Cluster {
        let mut b = ClusterBuilder::new();
        for i in 0..n {
            b = b.node(format!("n{i}"), 100.0);
        }
        b.build()
    }

    fn key(n: usize, elems: usize) -> PlanKey {
        PlanKey::new(
            CollectiveKind::Bcast,
            CollectivePolicy::Auto,
            (0..n).map(NodeId).collect(),
            0,
            elems,
            8,
        )
        .unwrap()
    }

    #[test]
    fn once_map_evicts_longest_resident_never_pending_or_the_newcomer() {
        let m: OnceMap<u32, u32> = OnceMap::new(10);
        let put = |k: u32, w: usize| m.get_or_build(&k, |_| w, || Ok::<_, ()>(k)).unwrap();
        // A failed build leaves nothing; a panicked one a pending cell.
        assert!(m.get_or_build(&6, |_| 1, || Err::<u32, _>(())).is_err());
        assert!(m.entries.read().map.is_empty());
        let boom = || m.get_or_build(&7, |_| 1, || -> Result<u32, ()> { panic!("boom") });
        assert!(std::panic::catch_unwind(std::panic::AssertUnwindSafe(boom)).is_err());
        for k in 0..3 {
            assert_eq!(put(k, 4), (Arc::new(k), Some(u64::from(k == 2))));
        }
        assert_eq!(put(1, 4), (Arc::new(1), None), "resident: shared");
        assert_eq!(put(0, 4).1, Some(1), "evicted: built again, 1 goes");
        // Alone over the cap: everything older goes, the newcomer stays.
        assert_eq!(put(9, 50).1, Some(2));
        let e = m.entries.read();
        assert_eq!((e.order.len(), e.weight), (1, 50));
        assert!(e.map.contains_key(&7) && e.map.contains_key(&9) && e.map.len() == 2);
    }

    #[test]
    fn auto_selection_is_perfmodels_select_plus_a_strictly_cheaper_hierarchy() {
        // Homogeneous clusters make the candidates tie, so the tie-break
        // is pinned too; the two-site one makes the hierarchical plan win.
        let two_sites = hetsim::TopologyBuilder::new()
            .intra_switch(hetsim::Link::new(1e-4, 1e8, hetsim::Protocol::Tcp))
            .inter_site(hetsim::Link::new(2e-2, 1e6, hetsim::Protocol::Tcp))
            .contention(ContentionModel::SerializedNic);
        let two_sites = (0..8).fold(two_sites, |b, i| {
            let b = if i % 4 == 0 { b.site() } else { b };
            b.node(format!("n{i}"), 100.0)
        });
        let mut hier_wins = 0;
        for c in [
            cluster(2),
            cluster(7),
            cluster(8),
            two_sites.build().cluster().clone(),
        ] {
            let nodes: Vec<NodeId> = (0..c.len()).map(NodeId).collect();
            let view = View::new(&c, &nodes);
            let sharing = sharing_of(c.contention());
            for kind in [
                CollectiveKind::Bcast,
                CollectiveKind::Reduce,
                CollectiveKind::Allreduce,
                CollectiveKind::Allgather,
            ] {
                for elems in [0, 8, 1 << 14] {
                    let key = |request| {
                        let root = elems % nodes.len();
                        PlanKey::new(kind, request, nodes.clone(), root, elems, 8).unwrap()
                    };
                    let flat = build(&key(CollectivePolicy::FlatAuto), &c).unwrap();
                    let auto = build(&key(CollectivePolicy::Auto), &c).unwrap();
                    let root = key(CollectivePolicy::Auto).root;
                    let (algo, t) = perfmodel::collective::select(
                        kind,
                        nodes.len(),
                        root,
                        elems,
                        8.0,
                        &view.cost,
                        sharing,
                    );
                    assert_eq!((flat.algo, flat.seconds.to_bits()), (algo, t.to_bits()));
                    if auto.algo == CollectiveAlgo::Hierarchical {
                        assert!(auto.seconds < flat.seconds);
                        hier_wins += 1;
                    } else {
                        assert_eq!(auto, flat);
                    }
                }
            }
        }
        assert!(
            hier_wins > 0,
            "the two-site cluster never chose its hierarchy"
        );
    }

    #[test]
    fn a_panicking_build_leaves_the_slot_for_the_next_arrival() {
        let cache = PlanCache::new();
        let c = cluster(4);
        let k = key(4, 64);
        let others = 7;
        // The panicking builder holds the slot before anyone else asks.
        let building = Barrier::new(others + 1);
        std::thread::scope(|s| {
            let doomed = s.spawn(|| {
                cache
                    .plans
                    .get_or_build(&k, Plan::xfers, || -> MpiResult<Plan> {
                        building.wait();
                        panic!("planner bug");
                    })
            });
            let waiters: Vec<_> = (0..others)
                .map(|_| {
                    s.spawn(|| {
                        building.wait();
                        cache.get(&k, &c).unwrap()
                    })
                })
                .collect();
            assert!(doomed.join().is_err());
            let plans: Vec<_> = waiters.into_iter().map(|h| h.join().unwrap()).collect();
            assert!(plans.iter().all(|p| Arc::ptr_eq(p, &plans[0])));
            assert_eq!(*plans[0], build(&k, &c).unwrap());
        });
        let r = cache.report();
        assert_eq!(
            (r.built, r.hits, r.lookups),
            (1, others as u64 - 1, others as u64)
        );
    }

    #[test]
    fn errors_are_returned_and_leave_no_entry() {
        let cache = PlanCache::new();
        let c = cluster(4); // flat: no hierarchical plan exists
        let k = PlanKey::new(
            CollectiveKind::Bcast,
            CollectivePolicy::Fixed(CollectiveAlgo::Hierarchical),
            (0..4).map(NodeId).collect(),
            0,
            64,
            8,
        )
        .unwrap();
        for _ in 0..2 {
            let e = cache.get(&k, &c).unwrap_err();
            assert!(matches!(e, MpiError::InvalidCounts(m) if m.contains("no hierarchical plan")));
        }
        assert_eq!(cache.report(), PlanCacheReport::default());
    }

    #[test]
    fn the_resident_bound_holds_and_evicted_plans_rebuild_identically() {
        let cache = PlanCache::new();
        let c = cluster(16);
        let pinned = |elems| {
            PlanKey::new(
                CollectiveKind::Allreduce,
                CollectivePolicy::Fixed(CollectiveAlgo::ScatterAllgather),
                (0..16).map(NodeId).collect(),
                0,
                elems,
                8,
            )
            .unwrap()
        };
        let first = cache.get(&pinned(16), &c).unwrap();
        let per_plan = first.xfers();
        let sweep = MAX_RESIDENT_XFERS / per_plan + 8;
        for elems in 17..17 + sweep {
            cache.get(&pinned(elems), &c).unwrap();
            assert!(cache.report().resident_xfers <= MAX_RESIDENT_XFERS);
        }
        let r = cache.report();
        assert!(r.evicted >= 8, "{r:?}");
        assert_eq!(r.resident_plans as u64, r.built - r.evicted);
        // The first key went long ago; asking again plans it again, to the
        // same plan, while the old Arc is still good.
        let again = cache.get(&pinned(16), &c).unwrap();
        assert!(!Arc::ptr_eq(&first, &again));
        assert_eq!(*first, *again);
        assert_eq!(cache.report().built, r.built + 1);
    }
}
