//! `HMPI_Recon`-style speed measurement.
//!
//! The HMPI runtime never plans with the *true* speeds (on real hardware it
//! could not know them); it plans with **estimates** obtained by running a
//! benchmark code on every processor and timing it — that is what
//! `HMPI_Recon` does. [`SpeedEstimates`] stores the estimates; a recon
//! (`hmpi::Hmpi::recon`) refreshes them against the simulated cluster:
//! running a benchmark of `v` units on node `i` at virtual time `t` takes
//! `v / true_speed_i(t)` seconds, so the derived estimate is exactly the
//! speed delivered at `t`. If the external load later changes, the estimate
//! goes stale until the next recon — reproducing the dynamics the paper's
//! `HMPI_Recon` is designed for.

use crate::clock::SimTime;
use crate::node::NodeId;
use crate::topology::Cluster;
use parking_lot::RwLock;
use std::sync::Arc;

/// Shared, refreshable estimates of processor speeds (benchmark units per
/// second), as observed by the most recent recon.
#[derive(Debug, Clone)]
pub struct SpeedEstimates {
    inner: Arc<RwLock<Inner>>,
}

#[derive(Debug)]
struct Inner {
    speeds: Vec<f64>,
    /// `false` for nodes the failure detector has declared dead. Speeds of
    /// unavailable nodes are retained (last known value) but must not be
    /// planned with — see [`SpeedEstimates::available_nodes`].
    available: Vec<bool>,
    measured_at: SimTime,
    generation: u64,
}

impl SpeedEstimates {
    /// Estimates initialised from the cluster's *base* speeds (what a
    /// freshly started runtime would assume before any recon).
    pub fn from_base_speeds(cluster: &Cluster) -> Self {
        let speeds: Vec<f64> = cluster.nodes().iter().map(|n| n.base_speed).collect();
        let available = vec![true; speeds.len()];
        SpeedEstimates {
            inner: Arc::new(RwLock::new(Inner {
                speeds,
                available,
                measured_at: SimTime::ZERO,
                generation: 0,
            })),
        }
    }

    /// Estimates with explicit per-node speeds.
    ///
    /// # Panics
    /// Panics if any speed is not positive and finite.
    pub fn from_speeds(speeds: Vec<f64>) -> Self {
        assert!(
            speeds.iter().all(|&s| valid_speed(s)),
            "estimated speeds must be positive and finite"
        );
        let available = vec![true; speeds.len()];
        SpeedEstimates {
            inner: Arc::new(RwLock::new(Inner {
                speeds,
                available,
                measured_at: SimTime::ZERO,
                generation: 0,
            })),
        }
    }

    /// The estimated speed of a node.
    pub fn speed(&self, id: NodeId) -> f64 {
        self.inner.read().speeds[id.0]
    }

    /// A snapshot of all estimated speeds, in node order.
    pub fn snapshot(&self) -> Vec<f64> {
        self.inner.read().speeds.clone()
    }

    /// Number of nodes covered.
    pub fn len(&self) -> usize {
        self.inner.read().speeds.len()
    }

    /// True if no nodes are covered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Virtual time of the most recent refresh.
    pub fn measured_at(&self) -> SimTime {
        self.inner.read().measured_at
    }

    /// Monotonically increasing refresh counter (0 before any recon).
    pub fn generation(&self) -> u64 {
        self.inner.read().generation
    }

    /// True if the failure detector still considers `id` alive. New
    /// estimates start with every node available.
    pub fn is_available(&self, id: NodeId) -> bool {
        self.inner.read().available[id.0]
    }

    /// Marks `id` dead. Permanent for the lifetime of these estimates: a
    /// fail-stopped node never comes back (rejoin would be a new runtime).
    pub fn mark_unavailable(&self, id: NodeId) {
        let mut g = self.inner.write();
        g.available[id.0] = false;
        g.generation += 1;
    }

    /// Ids of all nodes still considered alive, in node order.
    pub fn available_nodes(&self) -> Vec<NodeId> {
        self.inner
            .read()
            .available
            .iter()
            .enumerate()
            .filter_map(|(i, &ok)| ok.then_some(NodeId(i)))
            .collect()
    }

    /// Number of nodes still considered alive.
    pub fn available_len(&self) -> usize {
        self.inner.read().available.iter().filter(|&&ok| ok).count()
    }

    /// Replaces all estimates at once (a completed recon).
    ///
    /// # Panics
    /// Panics if the length differs from the current estimate vector or any
    /// speed is not positive and finite. A zero-elapsed benchmark derives
    /// `units / 0 = +inf`; letting that through would poison every
    /// subsequent selection, so non-finite speeds are rejected here as the
    /// last line of defence (callers validate first and keep the previous
    /// estimate instead).
    pub fn refresh(&self, speeds: Vec<f64>, measured_at: SimTime) {
        let mut g = self.inner.write();
        assert_eq!(
            speeds.len(),
            g.speeds.len(),
            "refresh must cover every node"
        );
        assert!(
            speeds.iter().all(|&s| valid_speed(s)),
            "estimated speeds must be positive and finite"
        );
        g.speeds = speeds;
        g.measured_at = measured_at;
        g.generation += 1;
    }

    /// Like [`SpeedEstimates::refresh`] but only overwrites the speeds of
    /// nodes still marked available, leaving dead nodes at their last known
    /// value. `speeds[i]` is ignored for unavailable node `i`, so callers
    /// may pass any positive placeholder there.
    ///
    /// # Panics
    /// Panics if the length differs from the current estimate vector or any
    /// speed for an *available* node is not positive and finite (see
    /// [`SpeedEstimates::refresh`] on why infinities are rejected).
    pub fn refresh_available(&self, speeds: Vec<f64>, measured_at: SimTime) {
        let mut g = self.inner.write();
        assert_eq!(
            speeds.len(),
            g.speeds.len(),
            "refresh must cover every node"
        );
        for (i, &s) in speeds.iter().enumerate() {
            if g.available[i] {
                assert!(
                    valid_speed(s),
                    "estimated speed for live node {i} must be positive and finite"
                );
                g.speeds[i] = s;
            }
        }
        g.measured_at = measured_at;
        g.generation += 1;
    }
}

/// True for speeds that may safely enter the estimate table: positive and
/// finite. `+inf` (from a zero-elapsed benchmark) and NaN both pass a bare
/// `s > 0.0` check in the infinite case, so the guard is explicit.
#[inline]
fn valid_speed(s: f64) -> bool {
    s.is_finite() && s > 0.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::load::LoadModel;
    use crate::node::Processor;
    use crate::topology::ClusterBuilder;

    fn loaded_cluster() -> Arc<Cluster> {
        Arc::new(
            ClusterBuilder::new()
                .node("steady", 100.0)
                .processor(Processor::new("busy", 100.0).with_load(LoadModel::Step {
                    start: SimTime::from_secs(10.0),
                    end: SimTime::from_secs(20.0),
                    fraction: 0.5,
                }))
                .build(),
        )
    }

    #[test]
    fn estimates_start_at_base_speeds() {
        let c = Cluster::paper_lan_em3d();
        let e = SpeedEstimates::from_base_speeds(&c);
        assert_eq!(e.snapshot(), c.nodes().iter().map(|n| n.base_speed).collect::<Vec<_>>());
        assert_eq!(e.generation(), 0);
    }

    /// What a recon does: every node runs `units` of benchmark starting at
    /// `now`, and the estimates are refreshed with `units / elapsed`.
    fn recon(c: &Cluster, e: &SpeedEstimates, units: f64, now: SimTime) {
        let speeds = c
            .node_ids()
            .map(|n| units / c.compute_time(n, units, now).as_secs())
            .collect();
        e.refresh(speeds, now);
    }

    #[test]
    fn a_benchmark_measures_the_true_speed_when_idle() {
        let c = loaded_cluster();
        let elapsed = c.compute_time(NodeId(0), 50.0, SimTime::ZERO);
        assert!((elapsed.as_secs() - 0.5).abs() < 1e-12);
        assert!((50.0 / elapsed.as_secs() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn recon_sees_load_when_it_is_active() {
        let c = loaded_cluster();
        let e = SpeedEstimates::from_base_speeds(&c);

        // Before the external job: both nodes look like 100.
        recon(&c, &e, 10.0, SimTime::ZERO);
        assert_eq!(e.snapshot(), vec![100.0, 100.0]);
        assert_eq!(e.generation(), 1);

        // During the external job: the busy node looks like 50.
        recon(&c, &e, 10.0, SimTime::from_secs(15.0));
        let snap = e.snapshot();
        assert!((snap[0] - 100.0).abs() < 1e-9);
        assert!((snap[1] - 50.0).abs() < 1e-9);
        assert_eq!(e.generation(), 2);
        assert_eq!(e.measured_at(), SimTime::from_secs(15.0));
    }

    #[test]
    fn stale_estimates_do_not_track_load() {
        let c = loaded_cluster();
        let e = SpeedEstimates::from_base_speeds(&c);
        recon(&c, &e, 10.0, SimTime::ZERO);
        // The load turns on at t=10, but without a new recon the estimate
        // still claims 100 — exactly the staleness HMPI_Recon fights.
        assert_eq!(e.speed(NodeId(1)), 100.0);
        assert_eq!(c.speed_at(NodeId(1), SimTime::from_secs(15.0)), 50.0);
    }

    #[test]
    #[should_panic]
    fn refresh_with_wrong_length_panics() {
        let c = Cluster::paper_lan_em3d();
        let e = SpeedEstimates::from_base_speeds(&c);
        e.refresh(vec![1.0], SimTime::ZERO);
    }

    #[test]
    #[should_panic(expected = "positive and finite")]
    fn refresh_rejects_infinite_speed() {
        // `nominal_units / 0.0 = +inf` passes a bare `> 0.0` check; the
        // estimate table must reject it outright.
        let c = Cluster::paper_lan_em3d();
        let e = SpeedEstimates::from_base_speeds(&c);
        let mut speeds = e.snapshot();
        speeds[3] = f64::INFINITY;
        e.refresh(speeds, SimTime::from_secs(1.0));
    }

    #[test]
    #[should_panic(expected = "positive and finite")]
    fn refresh_available_rejects_poisoned_estimate() {
        let c = Cluster::paper_lan_em3d();
        let e = SpeedEstimates::from_base_speeds(&c);
        let mut speeds = e.snapshot();
        speeds[2] = f64::INFINITY;
        e.refresh_available(speeds, SimTime::from_secs(1.0));
    }

    #[test]
    fn refresh_available_ignores_placeholder_for_dead_nodes() {
        let c = Cluster::paper_lan_em3d();
        let e = SpeedEstimates::from_base_speeds(&c);
        let before = e.speed(NodeId(4));
        e.mark_unavailable(NodeId(4));
        let mut speeds = e.snapshot();
        speeds[4] = 1.0; // placeholder, must be ignored
        e.refresh_available(speeds, SimTime::from_secs(1.0));
        assert_eq!(e.speed(NodeId(4)), before);
    }

    #[test]
    fn estimates_are_shared_between_clones() {
        let c = Cluster::paper_lan_em3d();
        let e = SpeedEstimates::from_base_speeds(&c);
        let e2 = e.clone();
        e.refresh(vec![1.0; 9], SimTime::from_secs(1.0));
        assert_eq!(e2.speed(NodeId(0)), 1.0);
        assert_eq!(e2.generation(), 1);
    }
}
