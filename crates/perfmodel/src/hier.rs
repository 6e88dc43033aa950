//! Hierarchical (topology-aware) collective planning.
//!
//! A flat pair-table selector treats every rank pair as independent, so on a
//! multi-site testbed it happily schedules p − 1 WAN transfers out of one
//! root. The hierarchical planner instead mirrors the structure MPICH-G2
//! exploits and Barchet-Estefanel & Mounié formalise: partition the ranks
//! into logical homogeneous sub-clusters (memory-bus domain → node → switch
//! → site), run a per-group algorithm at each level, and cross each
//! expensive boundary exactly once per group.
//!
//! The output is a [`HierPlan`]: rounds of the same annotated [`Xfer`]s the
//! flat generators emit — raw contributions flowing leaders-up, finished
//! ranges flowing leaders-down or chunks-up — priced by the same grant/settle
//! replay ([`price`]) and run by the same executor, so the contended
//! `timeof` prediction stays bit-exact against the executor.
//!
//! Rank coordinates come from a declared cluster topology when one exists;
//! otherwise [`RankTopology::infer`] recovers sites and switches from the
//! pair table alone by clustering on the largest multiplicative latency gap
//! — the Estefanel–Mounié observation that real hierarchies separate by
//! orders of magnitude, not percentages.

use crate::collective::{
    algos_for, chunk_bounds, price, push, schedule, spans, CollectiveAlgo, CollectiveKind,
    LinkSharing, Payload, Xfer,
};
use crate::compile::PairCost;
use std::collections::BTreeMap;
use std::ops::Range;

/// Ratio two latency scales must differ by before the inference pass calls
/// them separate hierarchy levels. Real site boundaries separate by orders
/// of magnitude; anything tighter is heterogeneity within one level.
const GAP: f64 = 8.0;

/// Per-rank hierarchy coordinates: which site, switch and node host each
/// communicator rank. Produced from a declared cluster topology or by
/// [`RankTopology::infer`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RankTopology {
    /// `site[r]` = the site hosting rank `r`.
    pub site: Vec<usize>,
    /// `switch[r]` = the switch hosting rank `r` (globally numbered).
    pub switch: Vec<usize>,
    /// `node[r]` = the physical node hosting rank `r` (the
    /// [`PairCost::node_of`] index).
    pub node: Vec<usize>,
}

impl RankTopology {
    /// Builds coordinates from explicit per-rank vectors.
    ///
    /// # Panics
    /// Panics if the vectors differ in length.
    pub fn new(site: Vec<usize>, switch: Vec<usize>, node: Vec<usize>) -> Self {
        assert!(
            site.len() == switch.len() && switch.len() == node.len(),
            "rank coordinate vectors must cover the same ranks"
        );
        RankTopology { site, switch, node }
    }

    /// Number of ranks covered.
    #[inline]
    pub fn len(&self) -> usize {
        self.site.len()
    }

    /// True when no ranks are covered.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.site.is_empty()
    }

    /// Recovers hierarchy coordinates from the pair table alone: ranks
    /// sharing a [`PairCost::node_of`] host share a node; sites are the
    /// components left after cutting every pair whose round-trip-symmetric
    /// latency sits above the largest multiplicative gap (≥ `GAP`×) in
    /// the sorted latency scale; switches repeat the cut once within each
    /// site. With no such gap every rank shares site 0 / switch 0 — a flat
    /// network stays flat.
    pub fn infer(p: usize, cost: &impl PairCost) -> Self {
        let node: Vec<usize> = (0..p).map(|r| cost.node_of(r)).collect();
        let d = |i: usize, j: usize| cost.latency(i, j).max(cost.latency(j, i));
        let all: Vec<usize> = (0..p).collect();
        let site_groups = gap_split(&all, &node, &d);
        let mut site = vec![0usize; p];
        let mut switch = vec![0usize; p];
        let mut next_switch = 0usize;
        for (s, group) in site_groups.iter().enumerate() {
            for &r in group {
                site[r] = s;
            }
            let switch_groups = gap_split(group, &node, &d);
            for sub in &switch_groups {
                for &r in sub {
                    switch[r] = next_switch;
                }
                next_switch += 1;
            }
        }
        RankTopology { site, switch, node }
    }
}

/// Splits `members` (ascending ranks) into components by cutting every
/// cross-node pair whose distance lies above the largest multiplicative gap
/// in the sorted distance scale, provided that gap is at least [`GAP`]×.
/// Returns one group (no split) when the scale has no such gap. Components
/// are ordered by smallest member.
fn gap_split(
    members: &[usize],
    node: &[usize],
    d: &impl Fn(usize, usize) -> f64,
) -> Vec<Vec<usize>> {
    let mut vals: Vec<f64> = Vec::new();
    for (a, &i) in members.iter().enumerate() {
        for &j in &members[a + 1..] {
            if node[i] != node[j] {
                let v = d(i, j);
                if v > 0.0 && v.is_finite() {
                    vals.push(v);
                }
            }
        }
    }
    vals.sort_by(f64::total_cmp);
    vals.dedup();
    let mut cut = None;
    let mut best = GAP;
    for w in vals.windows(2) {
        let ratio = w[1] / w[0];
        if ratio >= best {
            best = ratio;
            cut = Some((w[0] * w[1]).sqrt());
        }
    }
    let Some(threshold) = cut else {
        return vec![members.to_vec()];
    };
    // Union-find over member positions: same node, or below the cut.
    let m = members.len();
    let mut parent: Vec<usize> = (0..m).collect();
    fn find(parent: &mut [usize], x: usize) -> usize {
        let mut r = x;
        while parent[r] != r {
            parent[r] = parent[parent[r]];
            r = parent[r];
        }
        r
    }
    for a in 0..m {
        for b in a + 1..m {
            let (i, j) = (members[a], members[b]);
            if node[i] == node[j] || d(i, j) < threshold {
                let (ra, rb) = (find(&mut parent, a), find(&mut parent, b));
                if ra != rb {
                    parent[ra.max(rb)] = ra.min(rb);
                }
            }
        }
    }
    let mut groups: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    for (a, &member) in members.iter().enumerate() {
        let root = find(&mut parent, a);
        groups.entry(root).or_default().push(member);
    }
    groups.into_values().collect()
}

/// A hierarchical collective plan: transfer rounds in the flat schedules'
/// own vocabulary ([`Xfer`] with its [`Payload`]), so [`price`],
/// [`crate::collective::fault_impact`] and the executor treat it exactly like
/// a flat schedule. Reductions gather raw contributions leaders-up,
/// innermost level first; finished data then moves leaders-down.
#[derive(Clone, Debug, PartialEq)]
pub struct HierPlan {
    /// The rounds, in execution order.
    pub rounds: Vec<Vec<Xfer>>,
    /// The plan's origin order, which its raw transfers' origins are read
    /// through ([`Xfer::origins`]): a depth-first walk of the level
    /// partitions, outermost first, each group's leader first, so the ranks
    /// gathered under any group member form one run of it.
    pub order: Vec<usize>,
}

/// What every stage prices its candidates against.
struct Pricer<'a, C: PairCost> {
    p: usize,
    n: usize,
    elem_bytes: f64,
    cost: &'a C,
    sharing: LinkSharing,
}

impl<C: PairCost> Pricer<'_, C> {
    fn time(&self, rounds: &[Vec<Xfer>]) -> f64 {
        price(self.p, rounds, self.elem_bytes, self.cost, self.sharing)
    }
}

/// The strictly cheapest candidate under `time`, ties to the earliest.
fn cheapest(
    candidates: impl Iterator<Item = Vec<Vec<Xfer>>>,
    time: impl Fn(&[Vec<Xfer>]) -> f64,
) -> Vec<Vec<Xfer>> {
    let mut best: Option<(f64, Vec<Vec<Xfer>>)> = None;
    for rounds in candidates {
        let t = time(&rounds);
        if best.as_ref().is_none_or(|(bt, _)| t < *bt) {
            best = Some((t, rounds));
        }
    }
    best.expect("at least one candidate").1
}

/// Partitions `participants` (ascending) by `key`, groups ordered by
/// smallest member, members ascending.
fn partition<K: Ord>(participants: &[usize], key: impl Fn(usize) -> K) -> Vec<Vec<usize>> {
    let mut map: BTreeMap<K, Vec<usize>> = BTreeMap::new();
    for &r in participants {
        map.entry(key(r)).or_default().push(r);
    }
    let mut groups: Vec<Vec<usize>> = map.into_values().collect();
    groups.sort_by_key(|g| g[0]);
    groups
}

/// The leader a group's traffic funnels through: the root when the group
/// contains it, else the smallest member — deterministic, and the root
/// always ends up leading its whole chain up to the top.
fn leader(group: &[usize], root: usize) -> usize {
    if group.contains(&root) {
        root
    } else {
        group[0]
    }
}

/// A group's members in per-group schedule order: the leader, then the rest
/// ascending.
fn leader_first(group: &[usize], root: usize) -> Vec<usize> {
    let lead = leader(group, root);
    let mut pos = vec![lead];
    pos.extend(group.iter().copied().filter(|&r| r != lead));
    pos
}

/// The nested level partitions, innermost first: node groups over all
/// ranks, then switch groups over the node leaders, site groups over the
/// switch leaders, and the single top group of site leaders.
fn level_partitions(topo: &RankTopology, root: usize) -> Vec<Vec<Vec<usize>>> {
    let p = topo.len();
    let mut parts: Vec<Vec<Vec<usize>>> = Vec::with_capacity(4);
    let mut participants: Vec<usize> = (0..p).collect();
    let node_groups = partition(&participants, |r| topo.node[r]);
    participants = advance(&node_groups, root);
    parts.push(node_groups);
    let switch_groups = partition(&participants, |r| (topo.site[r], topo.switch[r]));
    participants = advance(&switch_groups, root);
    parts.push(switch_groups);
    let site_groups = partition(&participants, |r| topo.site[r]);
    participants = advance(&site_groups, root);
    parts.push(site_groups);
    parts.push(vec![participants]);
    parts
}

fn advance(groups: &[Vec<usize>], root: usize) -> Vec<usize> {
    let mut leaders: Vec<usize> = groups.iter().map(|g| leader(g, root)).collect();
    leaders.sort_unstable();
    leaders
}

/// The depth-first walk of `parts` from the top group: each member in
/// [`leader_first`] order, then, below the node level, the group it leads
/// one level down (every participant of a level leads one group below it).
fn origin_order(parts: &[Vec<Vec<usize>>], root: usize, p: usize) -> Vec<usize> {
    // `led[k][r]`: the group of `parts[k]` that rank `r` leads.
    let led: Vec<Vec<usize>> = parts[..parts.len() - 1]
        .iter()
        .map(|groups| {
            let mut led = vec![usize::MAX; p];
            for (i, g) in groups.iter().enumerate() {
                led[leader(g, root)] = i;
            }
            led
        })
        .collect();
    let mut order = Vec::with_capacity(p);
    let mut stack = vec![(parts.len() - 1, 0)];
    while let Some((k, i)) = stack.pop() {
        let members = leader_first(&parts[k][i], root);
        if k == 0 {
            order.extend(members);
        } else {
            stack.extend(members.iter().rev().map(|&m| (k - 1, led[k - 1][m])));
        }
    }
    order
}

/// The positions of the plan's origin order whose raw contributions a
/// gather transfer carries.
fn run_of(x: &Xfer) -> Range<usize> {
    match &x.carries {
        Payload::Raw(run) => run.clone(),
        Payload::Slice | Payload::Prefix => unreachable!("a gather transfer carries raw origins"),
    }
}

/// A receiver's held run with a gathered run delivered to it. Groups list
/// their leader first and every member's subtree follows its predecessor's
/// in the plan's order, so what a gather delivers continues the receiver's
/// run; anything else is a planner bug.
fn append(held: &Range<usize>, carried: &Range<usize>) -> Range<usize> {
    assert_eq!(
        held.end, carried.start,
        "gathered origins {carried:?} do not continue the receiver's run {held:?}"
    );
    held.start..carried.end
}

/// Gather rounds for one group under `algo` (Linear or Binomial), starting
/// from the members' current holdings: each transfer forwards the raw
/// `n`-element contributions its sender holds at that point, one run of
/// the plan's origin order. Linear: every member forwards to the leader in
/// one round. Binomial: the reduce-tree pattern over [`leader_first`]
/// positions.
fn gather_group(
    algo: CollectiveAlgo,
    group: &[usize],
    root: usize,
    held: &[Range<usize>],
    n: usize,
) -> Vec<Vec<Xfer>> {
    let pos = leader_first(group, root);
    let m = pos.len();
    let mut local: Vec<Range<usize>> = pos.iter().map(|&r| held[r].clone()).collect();
    let raw = |rel: usize, to: usize, origins: Range<usize>| Xfer {
        src: pos[rel],
        dst: pos[to],
        lo: 0,
        hi: n,
        carries: Payload::Raw(origins),
    };
    if algo == CollectiveAlgo::Linear {
        return vec![(1..m).map(|rel| raw(rel, 0, local[rel].clone())).collect()];
    }
    let mut rounds = Vec::new();
    for span in spans(m) {
        let mut round = Vec::new();
        for rel in (span..m).step_by(span * 2) {
            let carried = local[rel].clone();
            local[rel - span] = append(&local[rel - span], &carried);
            round.push(raw(rel, rel - span, carried));
        }
        rounds.push(round);
    }
    rounds
}

/// Gather rounds as allgather chunk movements: each transfer carries the
/// maximal runs of consecutive origin chunks its sender holds, as finished
/// `[lo, hi)` ranges of the `n`-element output buffer.
fn chunk_run_xfers(rounds: &[Vec<Xfer>], n: usize, order: &[usize]) -> Vec<Vec<Xfer>> {
    rounds
        .iter()
        .map(|round| {
            let mut out = Vec::new();
            for x in round {
                for (lo, hi) in chunk_runs(n, order, run_of(x)) {
                    out.push(Xfer {
                        lo,
                        hi,
                        carries: Payload::Slice,
                        ..*x
                    });
                }
            }
            out
        })
        .collect()
}

/// The non-empty `[lo, hi)` buffer ranges of the chunks of the origins at
/// `positions` of `order`: one per maximal run of consecutive ranks, in
/// ascending rank order.
fn chunk_runs(n: usize, order: &[usize], positions: Range<usize>) -> Vec<(usize, usize)> {
    let p = order.len();
    let mut ranks = order[positions].to_vec();
    ranks.sort_unstable();
    let mut runs: Vec<(usize, usize)> = Vec::new();
    for r in ranks {
        match runs.last_mut() {
            Some((_, last)) if *last + 1 == r => *last = r,
            _ => runs.push((r, r)),
        }
    }
    runs.into_iter()
        .map(|(first, last)| (chunk_bounds(n, p, first).0, chunk_bounds(n, p, last).1))
        .filter(|(lo, hi)| hi > lo)
        .collect()
}

/// Appends the per-group rounds of one stage to `out`, merged positionally
/// so sibling groups overlap.
fn overlap(groups: &[Vec<Vec<Xfer>>], out: &mut Vec<Vec<Xfer>>) {
    let depth = groups.iter().map(Vec::len).max().unwrap_or(0);
    for k in 0..depth {
        let round: Vec<Xfer> = groups
            .iter()
            .filter_map(|g| g.get(k))
            .flatten()
            .cloned()
            .collect();
        if !round.is_empty() {
            out.push(round);
        }
    }
}

/// Builds one gather stage across `groups`: chooses Linear vs Binomial per
/// group by pricing the candidate in isolation — with `chunks` (allgather:
/// the plan's origin order) as the chunk runs it will become, as raw
/// contributions otherwise — appends the chosen rounds to `out`, and files
/// what they deliver in `held`.
fn gather_stage(
    groups: &[Vec<usize>],
    root: usize,
    held: &mut [Range<usize>],
    out: &mut Vec<Vec<Xfer>>,
    pricer: &Pricer<'_, impl PairCost>,
    chunks: Option<&[usize]>,
) {
    let time = |rounds: &[Vec<Xfer>]| match chunks {
        Some(order) => pricer.time(&chunk_run_xfers(rounds, pricer.n, order)),
        None => pricer.time(rounds),
    };
    let mut best: Vec<Vec<Vec<Xfer>>> = Vec::new();
    for g in groups.iter().filter(|g| g.len() >= 2) {
        let candidates = [CollectiveAlgo::Linear, CollectiveAlgo::Binomial]
            .into_iter()
            .map(|algo| gather_group(algo, g, root, held, pricer.n));
        best.push(cheapest(candidates, time));
    }
    let from = out.len();
    overlap(&best, out);
    for x in out[from..].iter().flatten() {
        held[x.dst] = append(&held[x.dst], &run_of(x));
    }
}

/// Builds one broadcast stage across `groups`: the leader fans the full
/// `n`-element payload out to its group, per-group algorithm chosen by
/// pricing every eligible flat bcast schedule remapped onto the group's
/// ranks (ties break in [`CollectiveAlgo::ALL`] order).
fn bcast_stage(
    groups: &[Vec<usize>],
    root: usize,
    out: &mut Vec<Vec<Xfer>>,
    pricer: &Pricer<'_, impl PairCost>,
) {
    let mut best: Vec<Vec<Vec<Xfer>>> = Vec::new();
    for g in groups.iter().filter(|g| g.len() >= 2) {
        let pos = leader_first(g, root);
        let candidates = algos_for(CollectiveKind::Bcast, pos.len())
            .into_iter()
            .map(|algo| {
                let mut rounds = schedule(CollectiveKind::Bcast, algo, pos.len(), 0, pricer.n)
                    .expect("eligible algorithm");
                for x in rounds.iter_mut().flatten() {
                    (x.src, x.dst) = (pos[x.src], pos[x.dst]);
                }
                rounds
            });
        best.push(cheapest(candidates, |rounds| pricer.time(rounds)));
    }
    overlap(&best, out);
}

/// Plans a hierarchical schedule for `kind` over `p` ranks with hierarchy
/// coordinates `topo`, or `None` when the hierarchy offers nothing a flat
/// schedule would not (fewer than two levels actually group ranks, a
/// single rank, or an empty payload).
///
/// Shapes (per level, per group, algorithm chosen by pricing):
///
/// * **Bcast** — the root fans out through the leader chain, top level
///   first: across sites, then across each site's switches, each switch's
///   nodes, each node's ranks.
/// * **Reduce** — raw contributions gather leaders-up, innermost first;
///   the root's chain of groups all elect it leader, so it ends up holding
///   every contribution and folds in ascending rank order.
/// * **Allreduce** — a reduce rooted at rank 0 followed by the bcast of
///   the folded result, exactly the flat Linear/Binomial composition.
/// * **Allgather** — chunk runs gather leaders-up (innermost three
///   levels), the site leaders exchange their accumulated runs directly,
///   and the full buffer broadcasts leaders-down.
///
/// The plan is a pure function of its arguments — every rank that plans
/// the same collective over the same cost view emits the identical plan,
/// so no agreement traffic is needed.
///
/// # Panics
/// Panics if `root >= p` or `topo` does not cover exactly `p` ranks.
#[allow(clippy::too_many_arguments)]
pub fn plan(
    kind: CollectiveKind,
    p: usize,
    root: usize,
    n: usize,
    elem_bytes: f64,
    topo: &RankTopology,
    cost: &impl PairCost,
    sharing: LinkSharing,
) -> Option<HierPlan> {
    assert!(root < p.max(1), "plan: root {root} outside 0..{p}");
    assert_eq!(topo.len(), p, "plan: topology covers {} ranks, not {p}", topo.len());
    if p <= 1 || n == 0 {
        return None;
    }
    // Rootless kinds funnel through rank 0, like the flat compositions.
    let root = match kind {
        CollectiveKind::Bcast | CollectiveKind::Reduce => root,
        CollectiveKind::Allreduce | CollectiveKind::Allgather => 0,
    };
    let parts = level_partitions(topo, root);
    let emitting = parts
        .iter()
        .filter(|groups| groups.iter().any(|g| g.len() >= 2))
        .count();
    if emitting < 2 {
        // At most one level does any work: the plan would be a flat
        // schedule the selector already prices.
        return None;
    }
    let pricer = Pricer {
        p,
        n,
        elem_bytes,
        cost,
        sharing,
    };
    // Every rank starts holding its own contribution: one position of the
    // plan's order.
    let order = origin_order(&parts, root, p);
    let mut held: Vec<Range<usize>> = vec![0..0; p];
    for (i, &r) in order.iter().enumerate() {
        held[r] = i..i + 1;
    }
    let mut rounds: Vec<Vec<Xfer>> = Vec::new();
    // Up: everything but a bcast gathers; allgather's site leaders exchange
    // directly instead of funnelling through one of them.
    let up = match kind {
        CollectiveKind::Bcast => &parts[..0],
        CollectiveKind::Reduce | CollectiveKind::Allreduce => &parts[..],
        CollectiveKind::Allgather => &parts[..parts.len() - 1],
    };
    let chunked = kind == CollectiveKind::Allgather;
    let chunks = chunked.then_some(&order[..]);
    for groups in up {
        gather_stage(groups, root, &mut held, &mut rounds, &pricer, chunks);
    }
    if chunked {
        rounds = chunk_run_xfers(&rounds, n, &order);
        let leaders = &parts[parts.len() - 1][0];
        let mut round = Vec::new();
        for &src in leaders {
            for (lo, hi) in chunk_runs(n, &order, held[src].clone()) {
                for &dst in leaders {
                    push(&mut round, src, dst, lo, hi);
                }
            }
        }
        if !round.is_empty() {
            rounds.push(round);
        }
    }
    // Down: everything but a reduce broadcasts, over the levels it gathered
    // through (all of them for a bcast).
    if kind != CollectiveKind::Reduce {
        let down = if chunked { up } else { &parts[..] };
        for groups in down.iter().rev() {
            bcast_stage(groups, root, &mut rounds, &pricer);
        }
    }
    if rounds.is_empty() {
        return None;
    }
    Some(HierPlan { rounds, order })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two-site testbed: `sites × per_site` ranks, LAN latency inside a
    /// site, WAN latency (1000×) across.
    struct TwoScale {
        per_site: usize,
        lan: f64,
        wan: f64,
        bw: f64,
    }

    impl TwoScale {
        fn site_of(&self, r: usize) -> usize {
            r / self.per_site
        }
    }

    impl PairCost for TwoScale {
        fn speed(&self, _p: usize) -> f64 {
            1.0
        }
        fn latency(&self, s: usize, d: usize) -> f64 {
            if self.site_of(s) == self.site_of(d) {
                self.lan
            } else {
                self.wan
            }
        }
        fn bandwidth(&self, _s: usize, _d: usize) -> f64 {
            self.bw
        }
    }

    const NET: TwoScale = TwoScale {
        per_site: 4,
        lan: 1e-4,
        wan: 0.1,
        bw: 1e7,
    };

    fn two_site_topo(p: usize) -> RankTopology {
        let site: Vec<usize> = (0..p).map(|r| NET.site_of(r)).collect();
        RankTopology::new(site.clone(), site, (0..p).collect())
    }

    #[test]
    fn infer_recovers_two_sites_from_the_latency_gap() {
        let topo = RankTopology::infer(8, &NET);
        assert_eq!(topo.site, vec![0, 0, 0, 0, 1, 1, 1, 1]);
        // No second-scale gap inside a site: one switch each.
        assert_eq!(topo.switch, vec![0, 0, 0, 0, 1, 1, 1, 1]);
    }

    #[test]
    fn infer_keeps_flat_networks_flat() {
        struct Uniform;
        impl PairCost for Uniform {
            fn speed(&self, _p: usize) -> f64 {
                1.0
            }
            fn latency(&self, _s: usize, _d: usize) -> f64 {
                1.5e-4
            }
            fn bandwidth(&self, _s: usize, _d: usize) -> f64 {
                11e6
            }
        }
        let topo = RankTopology::infer(9, &Uniform);
        assert!(topo.site.iter().all(|&s| s == 0));
        assert!(topo.switch.iter().all(|&s| s == 0));
    }

    #[test]
    fn flat_topology_yields_no_plan() {
        let p = 6;
        let topo = RankTopology::new(vec![0; p], vec![0; p], (0..p).collect());
        for kind in [
            CollectiveKind::Bcast,
            CollectiveKind::Reduce,
            CollectiveKind::Allreduce,
            CollectiveKind::Allgather,
        ] {
            assert!(
                plan(kind, p, 0, 64, 8.0, &topo, &NET, LinkSharing::Parallel).is_none(),
                "{} must not plan hierarchically on a flat topology",
                kind.name()
            );
        }
    }

    #[test]
    fn bcast_plan_crosses_the_site_boundary_once() {
        let p = 8;
        let topo = two_site_topo(p);
        let hp = plan(
            CollectiveKind::Bcast,
            p,
            0,
            1024,
            8.0,
            &topo,
            &NET,
            LinkSharing::Parallel,
        )
        .expect("two emitting levels");
        assert!(hp
            .rounds
            .iter()
            .flatten()
            .all(|x| x.carries == Payload::Slice));
        let cross: Vec<&Xfer> = hp
            .rounds
            .iter()
            .flatten()
            .filter(|x| NET.site_of(x.src) != NET.site_of(x.dst))
            .collect();
        assert_eq!(cross.len(), 1, "exactly one WAN transfer: {cross:?}");
        assert_eq!((cross[0].src, cross[0].dst), (0, 4));
    }

    #[test]
    fn bcast_plan_covers_every_rank() {
        // Symbolic coverage replay, like the flat schedule tests.
        let p = 8;
        let n = 64;
        let topo = two_site_topo(p);
        let hp = plan(
            CollectiveKind::Bcast,
            p,
            3,
            n,
            8.0,
            &topo,
            &NET,
            LinkSharing::Parallel,
        )
        .unwrap();
        let mut owned: Vec<Vec<(usize, usize)>> = vec![Vec::new(); p];
        owned[3].push((0, n));
        for round in &hp.rounds {
            let snapshot = owned.clone();
            for x in round {
                assert!(
                    snapshot[x.src].iter().any(|&(lo, hi)| lo <= x.lo && x.hi <= hi),
                    "rank {} sends [{}, {}) it does not own",
                    x.src,
                    x.lo,
                    x.hi
                );
                owned[x.dst].push((x.lo, x.hi));
            }
            for set in &mut owned {
                set.sort_unstable();
                let mut merged: Vec<(usize, usize)> = Vec::new();
                for &(lo, hi) in set.iter() {
                    match merged.last_mut() {
                        Some(last) if lo <= last.1 => last.1 = last.1.max(hi),
                        _ => merged.push((lo, hi)),
                    }
                }
                *set = merged;
            }
        }
        for (r, set) in owned.iter().enumerate() {
            assert_eq!(set, &vec![(0, n)], "rank {r} did not end with [0, {n})");
        }
    }

    #[test]
    fn reduce_plan_funnels_every_contribution_to_the_root() {
        let p = 8;
        let n = 16;
        for root in [0, 5] {
            let topo = two_site_topo(p);
            let hp = plan(
                CollectiveKind::Reduce,
                p,
                root,
                n,
                8.0,
                &topo,
                &NET,
                LinkSharing::Parallel,
            )
            .unwrap();
            // Replay holdings: the root must end holding all p origins.
            let mut held: Vec<Vec<usize>> = (0..p).map(|r| vec![r]).collect();
            for round in &hp.rounds {
                for g in round {
                    assert_eq!((g.lo, g.hi), (0, n), "raw contributions travel whole");
                    let mut carried: Vec<usize> = g.origins(&hp.order).collect();
                    carried.sort_unstable();
                    assert_eq!(
                        carried, held[g.src],
                        "transfer must carry exactly the sender's holdings"
                    );
                    held[g.dst].extend(carried);
                    held[g.dst].sort_unstable();
                }
            }
            assert_eq!(held[root], (0..p).collect::<Vec<_>>(), "root {root}");
            // One WAN crossing only.
            let cross = hp
                .rounds
                .iter()
                .flatten()
                .filter(|g| NET.site_of(g.src) != NET.site_of(g.dst))
                .count();
            assert_eq!(cross, 1);
        }
    }

    #[test]
    fn allgather_plan_delivers_every_chunk_everywhere() {
        let p = 8;
        let n = 8 * p;
        let topo = two_site_topo(p);
        let hp = plan(
            CollectiveKind::Allgather,
            p,
            0,
            n,
            8.0,
            &topo,
            &NET,
            LinkSharing::Parallel,
        )
        .unwrap();
        assert!(
            hp.rounds
                .iter()
                .flatten()
                .all(|x| x.carries == Payload::Slice),
            "allgather plans are pure movement"
        );
        let mut owned: Vec<Vec<(usize, usize)>> = (0..p)
            .map(|r| vec![chunk_bounds(n, p, r)])
            .collect();
        for round in &hp.rounds {
            let snapshot = owned.clone();
            for x in round {
                assert!(
                    snapshot[x.src].iter().any(|&(lo, hi)| lo <= x.lo && x.hi <= hi),
                    "rank {} sends [{}, {}) it does not own",
                    x.src,
                    x.lo,
                    x.hi
                );
                owned[x.dst].push((x.lo, x.hi));
            }
            for set in &mut owned {
                set.sort_unstable();
                let mut merged: Vec<(usize, usize)> = Vec::new();
                for &(lo, hi) in set.iter() {
                    match merged.last_mut() {
                        Some(last) if lo <= last.1 => last.1 = last.1.max(hi),
                        _ => merged.push((lo, hi)),
                    }
                }
                *set = merged;
            }
        }
        for (r, set) in owned.iter().enumerate() {
            assert_eq!(set, &vec![(0, n)], "rank {r} did not end with [0, {n})");
        }
    }

    #[test]
    fn hierarchical_beats_flat_under_nic_contention_across_sites() {
        // Under serialised NICs a flat schedule queues its WAN transfers on
        // the root's NIC; the hierarchical plan crosses the WAN once.
        let p = 8;
        let n = 8192;
        let topo = two_site_topo(p);
        let hp = plan(
            CollectiveKind::Bcast,
            p,
            0,
            n,
            8.0,
            &topo,
            &NET,
            LinkSharing::PerEndpoint,
        )
        .unwrap();
        let hier = price(p, &hp.rounds, 8.0, &NET, LinkSharing::PerEndpoint);
        let (flat_algo, flat) = crate::collective::select(
            CollectiveKind::Bcast,
            p,
            0,
            n,
            8.0,
            &NET,
            LinkSharing::PerEndpoint,
        );
        assert!(
            hier < flat,
            "hierarchical {hier} must beat flat {} ({flat})",
            flat_algo.name()
        );
    }

    #[test]
    fn plans_are_deterministic() {
        let p = 8;
        let topo = two_site_topo(p);
        for kind in [
            CollectiveKind::Bcast,
            CollectiveKind::Reduce,
            CollectiveKind::Allreduce,
            CollectiveKind::Allgather,
        ] {
            let a = plan(kind, p, 0, 256, 8.0, &topo, &NET, LinkSharing::PerEndpoint);
            let b = plan(kind, p, 0, 256, 8.0, &topo, &NET, LinkSharing::PerEndpoint);
            assert_eq!(a, b, "{}", kind.name());
        }
    }

    #[test]
    fn allreduce_plan_is_reduce_then_bcast() {
        let p = 8;
        let n = 32;
        let topo = two_site_topo(p);
        let hp = plan(
            CollectiveKind::Allreduce,
            p,
            0,
            n,
            8.0,
            &topo,
            &NET,
            LinkSharing::Parallel,
        )
        .unwrap();
        // Raw rounds funnel to rank 0, then nothing but finished data moves;
        // every range is the full buffer.
        let gathers = hp
            .rounds
            .iter()
            .take_while(|round| round.iter().all(|x| x.carries != Payload::Slice))
            .count();
        assert!(0 < gathers && gathers < hp.rounds.len());
        let mut held: Vec<Vec<usize>> = (0..p).map(|r| vec![r]).collect();
        for g in hp.rounds[..gathers].iter().flatten() {
            held[g.dst].extend(g.origins(&hp.order));
            held[g.dst].sort_unstable();
        }
        assert_eq!(held[0], (0..p).collect::<Vec<_>>());
        let fan_out = hp.rounds[gathers..].iter().flatten();
        assert!(fan_out.clone().all(|x| x.carries == Payload::Slice));
        assert!(hp.rounds.iter().flatten().all(|x| x.lo == 0 && x.hi == n));
    }

    #[test]
    fn mem_bus_only_structure_plans_node_then_network() {
        // Two nodes × two co-located ranks, one site: the node level and
        // the top level both emit — the PR 8 memory-bus domain is the
        // innermost hierarchy level.
        let topo = RankTopology::new(vec![0; 4], vec![0; 4], vec![0, 0, 1, 1]);
        struct BusNet;
        impl PairCost for BusNet {
            fn speed(&self, _p: usize) -> f64 {
                1.0
            }
            fn latency(&self, s: usize, d: usize) -> f64 {
                if s / 2 == d / 2 {
                    1e-6
                } else {
                    1e-4
                }
            }
            fn bandwidth(&self, s: usize, d: usize) -> f64 {
                if s / 2 == d / 2 {
                    1e10
                } else {
                    1e7
                }
            }
            fn node_of(&self, proc: usize) -> usize {
                proc / 2
            }
        }
        let hp = plan(
            CollectiveKind::Reduce,
            4,
            0,
            16,
            8.0,
            &topo,
            &BusNet,
            LinkSharing::Parallel,
        )
        .expect("node + top levels emit");
        // Stage 1: within-node gathers (1→0, 3→2); stage 2: node leaders.
        let flat: Vec<(usize, usize)> = hp
            .rounds
            .iter()
            .flatten()
            .map(|g| (g.src, g.dst))
            .collect();
        assert_eq!(flat, vec![(1, 0), (3, 2), (2, 0)]);
    }
}
