//! Communication protocols.
//!
//! The paper's first HNOC challenge is that "the common communication network
//! can use multiple network protocols for communication between different
//! pairs of processors" — e.g. shared memory between processes on the same
//! SMP node, TCP/IP across the LAN, or a faster proprietary interconnect
//! between a subset of machines. A [`Protocol`] tags a [`crate::Link`] and
//! supplies default performance characteristics; HMPI's model of the
//! executing network then sees different costs for different pairs, which is
//! all the selection algorithm needs.

use std::fmt;

/// The protocol a link uses, with typical early-2000s characteristics used
/// as the defaults of [`Link::with_defaults`](crate::Link::with_defaults).
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum Protocol {
    /// Intra-process / loopback communication (a rank talking to itself).
    Loopback,
    /// Shared memory between processes on the same computer.
    SharedMemory,
    /// TCP/IP over the LAN — the paper's 100 Mbit switched Ethernet.
    Tcp,
    /// A user-defined protocol with a name (e.g. `"myrinet"`).
    Custom(String),
}

impl Protocol {
    /// Typical one-way latency in seconds.
    pub(crate) fn default_latency(&self) -> f64 {
        match self {
            Protocol::Loopback => 0.0,
            Protocol::SharedMemory => 2e-6,
            Protocol::Tcp => 150e-6,
            Protocol::Custom(_) => 50e-6,
        }
    }

    /// Typical sustained bandwidth in bytes per second.
    pub(crate) fn default_bandwidth(&self) -> f64 {
        match self {
            Protocol::Loopback => f64::INFINITY,
            Protocol::SharedMemory => 400e6,
            // 100 Mbit Ethernet delivers ~11 MB/s of payload in practice.
            Protocol::Tcp => 11e6,
            Protocol::Custom(_) => 100e6,
        }
    }
}

impl fmt::Display for Protocol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Protocol::Loopback => write!(f, "loopback"),
            Protocol::SharedMemory => write!(f, "shm"),
            Protocol::Tcp => write!(f, "tcp"),
            Protocol::Custom(name) => write!(f, "{name}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loopback_is_free() {
        assert_eq!(Protocol::Loopback.default_latency(), 0.0);
        assert!(Protocol::Loopback.default_bandwidth().is_infinite());
    }

    #[test]
    fn shm_beats_tcp() {
        assert!(Protocol::SharedMemory.default_latency() < Protocol::Tcp.default_latency());
        assert!(Protocol::SharedMemory.default_bandwidth() > Protocol::Tcp.default_bandwidth());
    }

    #[test]
    fn display_names() {
        assert_eq!(Protocol::Tcp.to_string(), "tcp");
        assert_eq!(Protocol::SharedMemory.to_string(), "shm");
        assert_eq!(Protocol::Custom("myrinet".into()).to_string(), "myrinet");
    }
}
