//! Processor model.
//!
//! A [`Processor`] is one computer of the heterogeneous network. Its speed is
//! expressed the way the paper expresses it: in *benchmark units per second*,
//! where one benchmark unit is the volume of computation performed by the
//! application's `HMPI_Recon` benchmark code (e.g. updating `k` nodes of one
//! EM3D sub-body, or multiplying two `r × r` matrices). The paper's testbed
//! speeds — 46, 46, 46, 46, 46, 46, 176, 106, 9 — are exactly such relative
//! numbers.

use crate::clock::SimTime;
use crate::load::LoadModel;
use std::fmt;

/// Identifies a processor (computer) within a [`crate::Cluster`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub usize);

impl NodeId {
    /// The index into the cluster's processor list.
    #[inline]
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// One computer of the heterogeneous network.
#[derive(Clone, Debug, PartialEq)]
pub struct Processor {
    /// Human-readable host name (e.g. `"csultra01"`).
    pub name: String,
    /// Base speed in benchmark units per second, as delivered when the
    /// machine is otherwise idle.
    pub base_speed: f64,
    /// External load stealing a time-varying fraction of the processor.
    pub load: LoadModel,
    /// How many application processes this computer can usefully host
    /// (the paper runs one process per processor; SMP nodes may host more).
    pub slots: usize,
}

impl Processor {
    /// A processor with the given name and base speed, no external load and
    /// one process slot.
    pub fn new(name: impl Into<String>, base_speed: f64) -> Self {
        assert!(
            base_speed > 0.0,
            "processor speed must be positive, got {base_speed}"
        );
        Processor {
            name: name.into(),
            base_speed,
            load: LoadModel::None,
            slots: 1,
        }
    }

    /// Attaches an external-load model (builder style).
    pub fn with_load(mut self, load: LoadModel) -> Self {
        self.load = load;
        self
    }

    /// Sets the number of process slots (builder style).
    pub fn with_slots(mut self, slots: usize) -> Self {
        assert!(slots >= 1, "a processor must have at least one slot");
        self.slots = slots;
        self
    }

    /// The speed actually delivered to the application at virtual time `t`,
    /// in benchmark units per second.
    #[inline]
    pub fn speed_at(&self, t: SimTime) -> f64 {
        self.base_speed * self.load.available_at(t)
    }

    /// Virtual time needed to execute `units` benchmark units starting at
    /// time `start`, assuming the delivered speed stays at its `start` value
    /// for the duration (a first-order model; load changes mid-computation
    /// are picked up by the next call).
    #[inline]
    pub fn compute_time(&self, units: f64, start: SimTime) -> SimTime {
        debug_assert!(units >= 0.0, "computation volume cannot be negative");
        SimTime::from_secs(units / self.speed_at(start))
    }

    /// Like [`Processor::compute_time`] but with the delivered speed further
    /// multiplied by `speed_factor` — how the fault layer applies a transient
    /// slowdown (see [`crate::fault::FaultPlan::slowdown_factor`]).
    #[inline]
    pub fn compute_time_scaled(&self, units: f64, start: SimTime, speed_factor: f64) -> SimTime {
        debug_assert!(units >= 0.0, "computation volume cannot be negative");
        debug_assert!(
            speed_factor > 0.0,
            "speed factor must be positive, got {speed_factor}"
        );
        SimTime::from_secs(units / (self.speed_at(start) * speed_factor))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_processor_delivers_base_speed() {
        let p = Processor::new("host0", 46.0);
        assert_eq!(p.speed_at(SimTime::ZERO), 46.0);
        assert_eq!(p.speed_at(SimTime::from_secs(1e9)), 46.0);
    }

    #[test]
    fn loaded_processor_delivers_reduced_speed() {
        let p = Processor::new("host0", 100.0).with_load(LoadModel::Constant { fraction: 0.25 });
        assert_eq!(p.speed_at(SimTime::ZERO), 75.0);
    }

    #[test]
    fn compute_time_is_volume_over_speed() {
        let p = Processor::new("fast", 176.0);
        let t = p.compute_time(88.0, SimTime::ZERO);
        assert!((t.as_secs() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn compute_time_respects_load_at_start() {
        let p = Processor::new("host", 100.0).with_load(LoadModel::Step {
            start: SimTime::from_secs(10.0),
            end: SimTime::from_secs(20.0),
            fraction: 0.5,
        });
        assert_eq!(p.compute_time(100.0, SimTime::ZERO).as_secs(), 1.0);
        assert_eq!(p.compute_time(100.0, SimTime::from_secs(15.0)).as_secs(), 2.0);
    }

    #[test]
    #[should_panic]
    fn zero_speed_rejected() {
        let _ = Processor::new("bad", 0.0);
    }

    #[test]
    fn builder_slots() {
        let p = Processor::new("smp", 50.0).with_slots(4);
        assert_eq!(p.slots, 4);
    }
}
