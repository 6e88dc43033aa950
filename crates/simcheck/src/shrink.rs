//! Scenario minimisation: once a seed fails, boil the case down.
//!
//! Greedy delta-debugging over the materialised scenario: try dropping
//! whole nodes (remapping links, faults and roots), then dropping fault
//! events, then dropping link overrides, then halving workload sizes —
//! keeping any edit under which the scenario *still fails*. The result is
//! the one-line repro written to the corpus.
//!
//! [`shrink_classified`] additionally keeps the repro *on topic*: the CLI
//! records which invariant broke first and the shrinker prefers
//! candidates that fail with the same violation kind, falling back to a
//! differently-failing candidate only when no same-kind reduction exists
//! — so a `fault-determinism` repro does not silently decay into an
//! easier-to-hit `no-panic` one mid-shrink.

use crate::scenario::{Scenario, Workload};
use hetsim::{FaultEvent, NodeId};

fn remap(id: NodeId, dropped: usize) -> NodeId {
    NodeId(if id.0 > dropped { id.0 - 1 } else { id.0 })
}

/// Keeps a shrunk hierarchy one the parser accepts: a site or switch
/// emptied by a dropped node leaves a gap, so runs are numbered 0, 1, ...
/// again, and one site with one switch is a flat cluster.
fn settle_levels(sc: &mut Scenario) {
    for levels in [&mut sc.site, &mut sc.switch] {
        let mut next = 0;
        for k in 0..levels.len() {
            let stays = k + 1 < levels.len() && levels[k + 1] == levels[k];
            levels[k] = next;
            next += usize::from(!stays);
        }
    }
    if sc.site.iter().chain(&sc.switch).all(|&l| l == 0) {
        (sc.site, sc.switch, sc.wan, sc.backbone) = (Vec::new(), Vec::new(), None, None);
    }
}

/// The scenario with node `i` removed: links, faults and workload
/// references are remapped; anything touching the node is dropped.
fn drop_node(sc: &Scenario, i: usize) -> Scenario {
    let mut out = sc.clone();
    out.speeds.remove(i);
    for levels in [&mut out.site, &mut out.switch] {
        if !levels.is_empty() {
            levels.remove(i);
        }
    }
    settle_levels(&mut out);
    let n = out.speeds.len();
    out.overrides.retain(|o| o.a != i && o.b != i);
    for o in &mut out.overrides {
        if o.a > i {
            o.a -= 1;
        }
        if o.b > i {
            o.b -= 1;
        }
    }
    out.faults.retain(|ev| match ev {
        FaultEvent::NodeCrash { node, .. } | FaultEvent::NodeSlowdown { node, .. } => node.0 != i,
        FaultEvent::LinkDegrade { from, to, .. } | FaultEvent::LinkDrop { from, to, .. } => {
            from.0 != i && to.0 != i
        }
    });
    for ev in &mut out.faults {
        match ev {
            FaultEvent::NodeCrash { node, .. } | FaultEvent::NodeSlowdown { node, .. } => {
                *node = remap(*node, i)
            }
            FaultEvent::LinkDegrade { from, to, .. } | FaultEvent::LinkDrop { from, to, .. } => {
                *from = remap(*from, i);
                *to = remap(*to, i);
            }
        }
    }
    if let Workload::Collective { root, .. } = &mut out.workload {
        *root %= n;
    }
    out
}

fn half(x: usize) -> Option<usize> {
    (x > 1).then_some(x / 2)
}

/// Smaller-workload variants, cheapest reductions first.
fn workload_shrinks(sc: &Scenario) -> Vec<Scenario> {
    let mut out = Vec::new();
    let mut push = |w: Workload| {
        let mut cand = sc.clone();
        cand.workload = w;
        out.push(cand);
    };
    match sc.workload {
        Workload::P2pRing { elems, rounds } => {
            if let Some(e) = half(elems) {
                push(Workload::P2pRing { elems: e, rounds });
            }
            if let Some(r) = half(rounds) {
                push(Workload::P2pRing { elems, rounds: r });
            }
        }
        Workload::P2pRandom {
            pattern_seed,
            msgs,
            max_elems,
        } => {
            if let Some(m) = half(msgs) {
                push(Workload::P2pRandom {
                    pattern_seed,
                    msgs: m,
                    max_elems,
                });
            }
            if let Some(e) = half(max_elems) {
                push(Workload::P2pRandom {
                    pattern_seed,
                    msgs,
                    max_elems: e,
                });
            }
        }
        Workload::Collective { kind, elems, root } => {
            if let Some(e) = half(elems) {
                push(Workload::Collective {
                    kind,
                    elems: e,
                    root,
                });
            }
        }
        Workload::GroupCycle { model_seed, cycles } => {
            if let Some(c) = half(cycles) {
                push(Workload::GroupCycle {
                    model_seed,
                    cycles: c,
                });
            }
        }
        Workload::ReconRounds { units, rounds } => {
            if let Some(r) = half(rounds) {
                push(Workload::ReconRounds { units, rounds: r });
            }
        }
        Workload::ShrinkRecovery { rounds, units } => {
            if let Some(r) = half(rounds) {
                push(Workload::ShrinkRecovery { rounds: r, units });
            }
        }
        // Storms are corpus-only (no generator draws one), so nothing
        // ever asks for a smaller one.
        Workload::CollStorm { .. } | Workload::Selection { .. } | Workload::AppKernel { .. } => {}
    }
    out
}

fn candidates(sc: &Scenario) -> Vec<Scenario> {
    let mut out = Vec::new();
    if sc.nodes() > 1 {
        for i in (0..sc.nodes()).rev() {
            out.push(drop_node(sc, i));
        }
    }
    for j in (0..sc.faults.len()).rev() {
        let mut cand = sc.clone();
        cand.faults.remove(j);
        out.push(cand);
    }
    for j in (0..sc.overrides.len()).rev() {
        let mut cand = sc.clone();
        cand.overrides.remove(j);
        out.push(cand);
    }
    if sc.ranks_per_node > 1 {
        let mut cand = sc.clone();
        cand.ranks_per_node = 1;
        out.push(cand);
    }
    if sc.mem.is_some() {
        let mut cand = sc.clone();
        cand.mem = None;
        out.push(cand);
    }
    if sc.is_hierarchical() {
        // Flatten the hierarchy entirely (every pair back on the base
        // link), and — cheaper — drop just the switch split within sites.
        let mut cand = sc.clone();
        cand.site.clear();
        cand.switch.clear();
        cand.wan = None;
        cand.backbone = None;
        out.push(cand);
        if !sc.switch.is_empty() {
            let mut cand = sc.clone();
            cand.switch.clear();
            cand.backbone = None;
            settle_levels(&mut cand);
            out.push(cand);
        }
    }
    out.extend(workload_shrinks(sc));
    out
}

/// Greedily minimises `sc` under `classify`, preferring candidates that
/// reproduce the *same* violation kind the original scenario failed with.
///
/// `classify` returns `Some(kind)` when a scenario still fails (the kind
/// is the violation's stable label) and `None` when it passes. On every
/// pass a same-kind candidate wins outright; when a pass yields only
/// differently-failing candidates, the first of those is taken as a
/// fallback — any failure is worth keeping, as in classic shrinking —
/// and the target kind follows it. Returns `sc` unchanged when it does
/// not fail at all. Bounded by a fixed probe budget so shrinking a slow
/// scenario cannot run away.
pub fn shrink_classified(
    sc: &Scenario,
    classify: &dyn Fn(&Scenario) -> Option<String>,
) -> Scenario {
    let Some(mut kind) = classify(sc) else {
        return sc.clone();
    };
    let mut current = sc.clone();
    let mut budget = 300usize;
    'outer: loop {
        let mut fallback: Option<(Scenario, String)> = None;
        for cand in candidates(&current) {
            if budget == 0 {
                return current;
            }
            budget -= 1;
            match classify(&cand) {
                Some(k) if k == kind => {
                    current = cand;
                    continue 'outer;
                }
                Some(k) if fallback.is_none() => fallback = Some((cand, k)),
                Some(_) | None => {}
            }
        }
        match fallback {
            Some((cand, k)) => {
                current = cand;
                kind = k;
            }
            None => return current,
        }
    }
}

/// Kind-oblivious greedy minimisation: any failing candidate is kept.
/// A thin wrapper over [`shrink_classified`] with a single anonymous
/// violation kind.
pub fn shrink(sc: &Scenario, fails: &dyn Fn(&Scenario) -> bool) -> Scenario {
    shrink_classified(sc, &|c| fails(c).then(String::new))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::generate;

    /// An artificial failure predicate: "fails whenever node count >= 2 or
    /// any fault is scheduled". The only fixed points are (2 nodes, no
    /// faults) and (1 node, exactly 1 fault); the shrinker must land on
    /// one, and every intermediate must stay well-formed.
    #[test]
    fn shrinks_to_a_minimal_failing_case() {
        let fails = |s: &Scenario| s.nodes() >= 2 || !s.faults.is_empty();
        for seed in 0..60 {
            let sc = generate(seed);
            if !fails(&sc) {
                continue;
            }
            let min = shrink(&sc, &fails);
            assert!(fails(&min), "seed {seed}: shrank past the failure");
            assert!(
                (min.nodes() == 2 && min.faults.is_empty())
                    || (min.nodes() == 1 && min.faults.len() == 1),
                "seed {seed}: not minimal: {min}"
            );
            // The repro line round-trips.
            assert_eq!(crate::scenario::parse(&min.to_string()).unwrap(), min);
        }
    }

    /// Kind preference: with a classifier that calls >= 4 nodes "big" and
    /// anything faulty "faulty", shrinking a big case must stay "big" —
    /// draining faults, overrides and workload while 4 nodes remain —
    /// because every same-kind reduction is preferred over the "faulty"
    /// fallback that dropping a node would switch to.
    #[test]
    fn classified_shrink_prefers_the_original_kind() {
        let classify = |s: &Scenario| {
            if s.nodes() >= 4 {
                Some("big".to_string())
            } else if !s.faults.is_empty() {
                Some("faulty".to_string())
            } else {
                None
            }
        };
        let mut tried = 0;
        for seed in 0..200 {
            let sc = generate(seed);
            // Keep the probe count well inside the budget so the fixed
            // point is actually reached.
            if !(4..=12).contains(&sc.nodes()) {
                continue;
            }
            tried += 1;
            let min = shrink_classified(&sc, &classify);
            assert_eq!(
                classify(&min).as_deref(),
                Some("big"),
                "seed {seed}: left the original kind: {min}"
            );
            assert_eq!(min.nodes(), 4, "seed {seed}: not minimal: {min}");
            assert!(
                min.faults.is_empty() && min.overrides.is_empty(),
                "seed {seed}: same-kind reductions left on the table: {min}"
            );
            assert_eq!(crate::scenario::parse(&min.to_string()).unwrap(), min);
        }
        assert!(tried >= 10, "only {tried} scenarios exercised the shrinker");
    }

    #[test]
    fn dropping_nodes_keeps_references_in_range() {
        for seed in 0..120 {
            let sc = generate(seed);
            if sc.nodes() < 2 {
                continue;
            }
            let smaller = drop_node(&sc, sc.nodes() / 2);
            let n = smaller.nodes();
            for o in &smaller.overrides {
                assert!(o.a < n && o.b < n && o.a != o.b, "seed {seed}: {smaller}");
            }
            for ev in &smaller.faults {
                let ok = match ev {
                    FaultEvent::NodeCrash { node, .. }
                    | FaultEvent::NodeSlowdown { node, .. } => node.0 < n,
                    FaultEvent::LinkDegrade { from, to, .. }
                    | FaultEvent::LinkDrop { from, to, .. } => from.0 < n && to.0 < n,
                };
                assert!(ok, "seed {seed}: fault out of range in {smaller}");
            }
        }
    }

    #[test]
    fn every_shrink_candidate_of_a_hierarchy_re_parses() {
        for seed in 0..40 {
            let sc = crate::gen::generate_hierarchical(seed);
            let drops = (0..sc.nodes()).map(|i| drop_node(&sc, i));
            for cand in drops.chain(candidates(&sc)) {
                let line = cand.to_string();
                let back = crate::scenario::parse(&line);
                assert!(back.is_ok_and(|b| b == cand), "seed {seed}: {line}");
            }
        }
        let line = "v1 seed=1 sp=1,2,3 lat=1 bw=1 cont=par site=0,0,1 wan=0.1:1000 w=ring:1:1";
        let flat = drop_node(&crate::scenario::parse(line).unwrap(), 2);
        assert!(!flat.is_hierarchical() && flat.wan.is_none(), "{flat}");
    }
}
