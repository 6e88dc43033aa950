//! Deterministic fault injection.
//!
//! The paper names fault tolerance (in the FT-MPI tradition) as the key open
//! challenge for message passing on heterogeneous networks: common networks
//! of computers lose nodes, see links degrade, and suffer transient load
//! spikes mid-run. A [`FaultPlan`] is a *deterministic, seeded* schedule of
//! such events in virtual time, attached to a [`crate::Cluster`] so that
//! every layer above (the message-passing substrate, the HMPI runtime, the
//! experiments) can query availability at any virtual instant and replay the
//! exact same failure scenario from the same seed.
//!
//! The plan is purely declarative — it never mutates the cluster. Layers
//! consume it through queries:
//!
//! * [`FaultPlan::crash_time`] / [`FaultPlan::node_available`] — permanent
//!   node failures (fail-stop);
//! * [`FaultPlan::slowdown_factor`] — transient slowdowns (a load spike or
//!   thermal throttle) multiplying delivered speed on a time window;
//! * [`FaultPlan::link_bandwidth_factor`] / [`FaultPlan::link_available`] —
//!   permanent link degradation and link drops from an event time onward.

use crate::clock::SimTime;
use crate::node::NodeId;

/// One scheduled fault, in virtual time.
#[derive(Clone, Debug, PartialEq)]
pub enum FaultEvent {
    /// The node fail-stops at `at`: it performs no computation and sends no
    /// messages from that instant on. Crashes are permanent.
    NodeCrash {
        /// The crashing node.
        node: NodeId,
        /// Virtual time of the crash.
        at: SimTime,
    },
    /// The node's delivered speed is multiplied by `factor` (in `(0, 1]`)
    /// while `from <= t < until` — a transient fault the runtime should ride
    /// out rather than treat as a failure.
    NodeSlowdown {
        /// The slowed node.
        node: NodeId,
        /// Start of the slowdown window.
        from: SimTime,
        /// End of the slowdown window (exclusive).
        until: SimTime,
        /// Speed multiplier in `(0, 1]`.
        factor: f64,
    },
    /// The directed link `from -> to` keeps only `bandwidth_factor` of its
    /// bandwidth from `at` onward (cable fault, route flap, congestion).
    LinkDegrade {
        /// Sending side of the degraded link.
        from: NodeId,
        /// Receiving side of the degraded link.
        to: NodeId,
        /// Virtual time the degradation begins.
        at: SimTime,
        /// Remaining fraction of bandwidth, in `(0, 1]`.
        bandwidth_factor: f64,
    },
    /// The directed link `from -> to` carries no traffic from `at` onward.
    LinkDrop {
        /// Sending side of the dropped link.
        from: NodeId,
        /// Receiving side of the dropped link.
        to: NodeId,
        /// Virtual time the link goes down.
        at: SimTime,
    },
}

impl FaultEvent {
    fn validate(&self) {
        match *self {
            FaultEvent::NodeCrash { .. } => {}
            FaultEvent::NodeSlowdown {
                from,
                until,
                factor,
                ..
            } => {
                assert!(
                    factor > 0.0 && factor <= 1.0,
                    "slowdown factor must be in (0, 1], got {factor}"
                );
                assert!(from < until, "slowdown window must be non-empty");
            }
            FaultEvent::LinkDegrade {
                bandwidth_factor, ..
            } => {
                assert!(
                    bandwidth_factor > 0.0 && bandwidth_factor <= 1.0,
                    "bandwidth factor must be in (0, 1], got {bandwidth_factor}"
                );
            }
            FaultEvent::LinkDrop { .. } => {}
        }
    }
}

/// A deterministic schedule of [`FaultEvent`]s.
///
/// The default plan is empty (a fault-free run); all queries then report
/// full availability, so attaching an empty plan changes nothing.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// The empty, fault-free plan.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// A plan with the given events.
    ///
    /// # Panics
    /// Panics if an event is malformed (slowdown/bandwidth factor outside
    /// `(0, 1]`, empty slowdown window).
    pub fn new(events: Vec<FaultEvent>) -> Self {
        for e in &events {
            e.validate();
        }
        FaultPlan { events }
    }

    /// Adds one event (builder style).
    pub fn with(mut self, event: FaultEvent) -> Self {
        event.validate();
        self.events.push(event);
        self
    }

    /// Draws a random crash schedule: each node in `nodes` independently
    /// fail-stops with probability `crash_rate`, at a time uniform in
    /// `(0, horizon)`. The same `(seed, nodes, crash_rate, horizon)` always
    /// produces the identical plan — experiments replay bit-for-bit.
    pub fn random_crashes(
        seed: u64,
        nodes: impl IntoIterator<Item = NodeId>,
        crash_rate: f64,
        horizon: SimTime,
    ) -> Self {
        use rand::{Rng, SeedableRng, StdRng};
        assert!(
            (0.0..=1.0).contains(&crash_rate),
            "crash rate must be a probability, got {crash_rate}"
        );
        assert!(horizon > SimTime::ZERO, "horizon must be positive");
        let mut rng = StdRng::seed_from_u64(seed);
        let mut events = Vec::new();
        for node in nodes {
            // Draw both numbers unconditionally so each node consumes the
            // same amount of randomness regardless of the rate: raising the
            // rate only *adds* crashes, it never reshuffles survivors.
            let dice = rng.random_range(0.0..1.0);
            let frac = rng.random_range(0.0..1.0);
            if dice < crash_rate {
                let at = SimTime::from_secs(f64::max(
                    horizon.as_secs() * frac,
                    f64::MIN_POSITIVE,
                ));
                events.push(FaultEvent::NodeCrash { node, at });
            }
        }
        FaultPlan { events }
    }

    /// All scheduled events, in insertion order.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// True if no faults are scheduled.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The virtual time at which `node` fail-stops, if it ever does (the
    /// earliest of its scheduled crashes).
    pub fn crash_time(&self, node: NodeId) -> Option<SimTime> {
        self.events
            .iter()
            .filter_map(|e| match *e {
                FaultEvent::NodeCrash { node: n, at } if n == node => Some(at),
                _ => None,
            })
            .min()
    }

    /// Crash times of every node in `0..n_nodes`, in one pass over the
    /// plan: entry `i` is the earliest scheduled crash of node `i`, `None`
    /// if it never fail-stops. The bulk form of [`FaultPlan::crash_time`],
    /// for callers building per-rank doom tables.
    pub fn crash_times(&self, n_nodes: usize) -> Vec<Option<SimTime>> {
        let mut times = vec![None; n_nodes];
        for e in &self.events {
            if let FaultEvent::NodeCrash { node, at } = *e {
                if node.index() < n_nodes {
                    let slot: &mut Option<SimTime> = &mut times[node.index()];
                    *slot = Some(slot.map_or(at, |t: SimTime| t.min(at)));
                }
            }
        }
        times
    }

    /// True if `node` has not crashed strictly before or at `t`.
    pub(crate) fn node_available(&self, node: NodeId, t: SimTime) -> bool {
        match self.crash_time(node) {
            Some(at) => t < at,
            None => true,
        }
    }

    /// Combined speed multiplier for `node` at time `t` (product of all
    /// active slowdowns; `1.0` when none are active).
    pub(crate) fn slowdown_factor(&self, node: NodeId, t: SimTime) -> f64 {
        self.events
            .iter()
            .filter_map(|e| match *e {
                FaultEvent::NodeSlowdown {
                    node: n,
                    from,
                    until,
                    factor,
                } if n == node && from <= t && t < until => Some(factor),
                _ => None,
            })
            .product()
    }

    /// True if the directed link `from -> to` has not been dropped at `t`.
    pub(crate) fn link_available(&self, from: NodeId, to: NodeId, t: SimTime) -> bool {
        !self.events.iter().any(|e| matches!(*e,
            FaultEvent::LinkDrop { from: f, to: d, at } if f == from && d == to && at <= t))
    }

    /// Combined bandwidth multiplier for the directed link `from -> to` at
    /// time `t` (product of all degradations in force; `1.0` when none).
    pub(crate) fn link_bandwidth_factor(&self, from: NodeId, to: NodeId, t: SimTime) -> f64 {
        self.events
            .iter()
            .filter_map(|e| match *e {
                FaultEvent::LinkDegrade {
                    from: f,
                    to: d,
                    at,
                    bandwidth_factor,
                } if f == from && d == to && at <= t => Some(bandwidth_factor),
                _ => None,
            })
            .product()
    }

}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_reports_full_availability() {
        let p = FaultPlan::none();
        let t = SimTime::from_secs(1e6);
        assert!(p.node_available(NodeId(0), t));
        assert_eq!(p.crash_time(NodeId(0)), None);
        assert_eq!(p.slowdown_factor(NodeId(0), t), 1.0);
        assert!(p.link_available(NodeId(0), NodeId(1), t));
        assert_eq!(p.link_bandwidth_factor(NodeId(0), NodeId(1), t), 1.0);
        assert!(p.is_empty());
    }

    #[test]
    fn crash_is_permanent_and_earliest_wins() {
        let p = FaultPlan::new(vec![
            FaultEvent::NodeCrash {
                node: NodeId(3),
                at: SimTime::from_secs(5.0),
            },
            FaultEvent::NodeCrash {
                node: NodeId(3),
                at: SimTime::from_secs(2.0),
            },
        ]);
        assert_eq!(p.crash_time(NodeId(3)), Some(SimTime::from_secs(2.0)));
        assert!(p.node_available(NodeId(3), SimTime::from_secs(1.9)));
        assert!(!p.node_available(NodeId(3), SimTime::from_secs(2.0)));
        assert!(!p.node_available(NodeId(3), SimTime::from_secs(100.0)));
        assert!(p.node_available(NodeId(4), SimTime::from_secs(100.0)));
    }

    #[test]
    fn slowdowns_compose_within_their_window() {
        let p = FaultPlan::new(vec![
            FaultEvent::NodeSlowdown {
                node: NodeId(1),
                from: SimTime::from_secs(1.0),
                until: SimTime::from_secs(3.0),
                factor: 0.5,
            },
            FaultEvent::NodeSlowdown {
                node: NodeId(1),
                from: SimTime::from_secs(2.0),
                until: SimTime::from_secs(4.0),
                factor: 0.5,
            },
        ]);
        assert_eq!(p.slowdown_factor(NodeId(1), SimTime::from_secs(0.5)), 1.0);
        assert_eq!(p.slowdown_factor(NodeId(1), SimTime::from_secs(1.5)), 0.5);
        assert_eq!(p.slowdown_factor(NodeId(1), SimTime::from_secs(2.5)), 0.25);
        assert_eq!(p.slowdown_factor(NodeId(1), SimTime::from_secs(3.5)), 0.5);
        assert_eq!(p.slowdown_factor(NodeId(1), SimTime::from_secs(4.0)), 1.0);
    }

    #[test]
    fn link_faults_are_directional() {
        let p = FaultPlan::new(vec![
            FaultEvent::LinkDrop {
                from: NodeId(0),
                to: NodeId(1),
                at: SimTime::from_secs(1.0),
            },
            FaultEvent::LinkDegrade {
                from: NodeId(2),
                to: NodeId(3),
                at: SimTime::from_secs(2.0),
                bandwidth_factor: 0.1,
            },
        ]);
        assert!(p.link_available(NodeId(0), NodeId(1), SimTime::from_secs(0.5)));
        assert!(!p.link_available(NodeId(0), NodeId(1), SimTime::from_secs(1.0)));
        // Reverse direction unaffected.
        assert!(p.link_available(NodeId(1), NodeId(0), SimTime::from_secs(9.0)));
        assert_eq!(
            p.link_bandwidth_factor(NodeId(2), NodeId(3), SimTime::from_secs(3.0)),
            0.1
        );
        assert_eq!(
            p.link_bandwidth_factor(NodeId(3), NodeId(2), SimTime::from_secs(3.0)),
            1.0
        );
    }

    #[test]
    fn random_crashes_replay_identically_for_same_seed() {
        let nodes: Vec<NodeId> = (0..16).map(NodeId).collect();
        let a = FaultPlan::random_crashes(7, nodes.clone(), 0.5, SimTime::from_secs(100.0));
        let b = FaultPlan::random_crashes(7, nodes.clone(), 0.5, SimTime::from_secs(100.0));
        assert_eq!(a, b);
        let c = FaultPlan::random_crashes(8, nodes, 0.5, SimTime::from_secs(100.0));
        assert_ne!(a, c, "different seeds should give different plans");
    }

    #[test]
    fn raising_the_rate_only_adds_crashes() {
        let nodes: Vec<NodeId> = (0..32).map(NodeId).collect();
        let low = FaultPlan::random_crashes(3, nodes.clone(), 0.2, SimTime::from_secs(50.0));
        let high = FaultPlan::random_crashes(3, nodes, 0.6, SimTime::from_secs(50.0));
        for e in low.events() {
            assert!(high.events().contains(e), "missing {e:?} at higher rate");
        }
        assert!(high.events().len() >= low.events().len());
    }

    #[test]
    fn random_crash_rates_are_roughly_honoured() {
        let nodes: Vec<NodeId> = (0..200).map(NodeId).collect();
        let p = FaultPlan::random_crashes(11, nodes, 0.3, SimTime::from_secs(10.0));
        let n = p.events().len() as f64;
        assert!((n / 200.0 - 0.3).abs() < 0.1, "got {n} crashes of 200");
        for e in p.events() {
            if let FaultEvent::NodeCrash { at, .. } = e {
                assert!(*at > SimTime::ZERO && *at < SimTime::from_secs(10.0));
            }
        }
    }

    #[test]
    #[should_panic]
    fn zero_slowdown_factor_rejected() {
        let _ = FaultPlan::new(vec![FaultEvent::NodeSlowdown {
            node: NodeId(0),
            from: SimTime::ZERO,
            until: SimTime::from_secs(1.0),
            factor: 0.0,
        }]);
    }
}
