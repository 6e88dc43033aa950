//! Point-to-point link model.
//!
//! The cost of moving `b` bytes across a [`Link`] is the classic
//! latency-plus-bandwidth model `latency + b / bandwidth`. This is the level
//! of detail HMPI's model of the executing network operates at: "the speed
//! and bandwidth of communication links between different pairs of
//! processors may differ significantly".

use crate::clock::SimTime;
use crate::protocol::Protocol;

/// A directed point-to-point communication link.
#[derive(Clone, Debug, PartialEq)]
pub struct Link {
    /// One-way latency in seconds.
    pub latency: f64,
    /// Sustained bandwidth in bytes per second.
    pub bandwidth: f64,
    /// The protocol this link uses.
    pub protocol: Protocol,
}

impl Link {
    /// A link with the given latency (seconds) and bandwidth (bytes/second).
    pub fn new(latency: f64, bandwidth: f64, protocol: Protocol) -> Self {
        assert!(latency >= 0.0, "latency cannot be negative: {latency}");
        assert!(bandwidth > 0.0, "bandwidth must be positive: {bandwidth}");
        Link {
            latency,
            bandwidth,
            protocol,
        }
    }

    /// A link using the protocol's default characteristics.
    pub fn with_defaults(protocol: Protocol) -> Self {
        Link {
            latency: protocol.default_latency(),
            bandwidth: protocol.default_bandwidth(),
            protocol,
        }
    }

    /// The free (zero-cost) loopback link.
    pub fn loopback() -> Self {
        Link::with_defaults(Protocol::Loopback)
    }

    /// Time to move `bytes` bytes across this link.
    #[inline]
    pub fn transfer_time(&self, bytes: usize) -> SimTime {
        if self.bandwidth.is_infinite() {
            return SimTime::from_secs(self.latency);
        }
        SimTime::from_secs(self.latency + bytes as f64 / self.bandwidth)
    }

    /// Like [`Link::transfer_time`] but with the bandwidth reduced to
    /// `bandwidth_factor` of its healthy value — how the fault layer applies
    /// a link degradation (see
    /// [`crate::fault::FaultPlan::link_bandwidth_factor`]).
    #[inline]
    pub(crate) fn transfer_time_degraded(&self, bytes: usize, bandwidth_factor: f64) -> SimTime {
        debug_assert!(
            bandwidth_factor > 0.0 && bandwidth_factor <= 1.0,
            "bandwidth factor must be in (0, 1], got {bandwidth_factor}"
        );
        if self.bandwidth.is_infinite() {
            return SimTime::from_secs(self.latency);
        }
        SimTime::from_secs(self.latency + bytes as f64 / (self.bandwidth * bandwidth_factor))
    }
}

impl Default for Link {
    fn default() -> Self {
        Link::with_defaults(Protocol::Tcp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transfer_time_is_latency_plus_size_over_bandwidth() {
        let l = Link::new(0.001, 1000.0, Protocol::Tcp);
        let t = l.transfer_time(500);
        assert!((t.as_secs() - 0.501).abs() < 1e-12);
    }

    #[test]
    fn zero_bytes_costs_latency_only() {
        let l = Link::new(0.002, 1e6, Protocol::Tcp);
        assert!((l.transfer_time(0).as_secs() - 0.002).abs() < 1e-15);
    }

    #[test]
    fn loopback_is_free() {
        let l = Link::loopback();
        assert_eq!(l.transfer_time(1_000_000_000).as_secs(), 0.0);
    }

    #[test]
    fn effective_throughput_approaches_bandwidth_for_large_messages() {
        let l = Link::new(150e-6, 11e6, Protocol::Tcp);
        // Size over the whole transfer time: latency dominates tiny
        // messages, which is why heterogeneous schedulers model it at all.
        let throughput = |bytes: usize| bytes as f64 / l.transfer_time(bytes).as_secs();
        let (small, large) = (throughput(100), throughput(100_000_000));
        assert!(small < 0.1 * 11e6, "latency should dominate small messages");
        assert!(large > 0.99 * 11e6, "bandwidth should dominate large ones");
    }

    #[test]
    #[should_panic]
    fn negative_latency_rejected() {
        let _ = Link::new(-1.0, 1e6, Protocol::Tcp);
    }

    #[test]
    #[should_panic]
    fn zero_bandwidth_rejected() {
        let _ = Link::new(0.0, 0.0, Protocol::Tcp);
    }

    #[test]
    fn default_is_tcp() {
        assert_eq!(Link::default().protocol, Protocol::Tcp);
    }
}
