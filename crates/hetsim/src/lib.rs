//! # hetsim — a heterogeneous network-of-computers substrate
//!
//! The HMPI paper (Lastovetsky & Reddy, IPPS 2003) evaluates its library on a
//! physical heterogeneous LAN: nine Solaris and Linux workstations with
//! relative speeds 46, 46, 46, 46, 46, 46, 176, 106 and 9 connected by
//! 100 Mbit switched Ethernet. That hardware is not available here, so this
//! crate provides the *model* of such a network that the rest of the
//! reproduction runs against:
//!
//! * [`Processor`] — a computer with a base speed (in benchmark units per
//!   second) and an optional external [`LoadModel`] making the speed vary over
//!   time, reproducing the paper's "multi-user decentralized computer system"
//!   challenge;
//! * [`Link`] — a point-to-point communication link with latency, bandwidth
//!   and a [`Protocol`] (the paper's "ad hoc communication network" with
//!   multiple protocols between different pairs of processors);
//! * [`Cluster`] — the full network: processors plus a pairwise link matrix,
//!   with builders and presets that encode the paper's testbed;
//! * [`SimTime`] — virtual time, the unit in which every reproduced
//!   experiment reports results;
//! * [`mod@bench`] — the *estimated* speeds an `HMPI_Recon`-style benchmark
//!   produces and the HMPI runtime plans with (distinct from the true,
//!   possibly time-varying speeds);
//! * [`mod@frontier`] — the deterministic grant / settle arbitration by which
//!   transfers share a contended resource, called by both the transport and
//!   the collective pricer;
//! * [`mod@trace`] — opt-in virtual-time span recording ([`Tracer`]) with a
//!   Chrome-trace exporter and per-rank compute/comm/wait breakdowns, the
//!   substrate of the prediction-accuracy observability layer.
//!
//! The separation between **true speed** (what the simulated hardware
//! delivers) and **estimated speed** (what a benchmark observed at some point
//! in time) is deliberate: it is exactly the gap `HMPI_Recon` exists to
//! close, and the ablation benches measure what happens when the estimates
//! go stale.

#![warn(missing_docs)]

pub mod bench;
pub mod clock;
pub mod fault;
pub mod frontier;
pub mod json;
pub mod link;
pub mod load;
pub mod node;
pub mod protocol;
pub mod topology;
pub mod trace;

pub use bench::SpeedEstimates;
pub use clock::SimTime;
pub use fault::{FaultEvent, FaultPlan};
pub use frontier::{NetFrontier, WireRes, WireXfer};
pub use link::Link;
pub use load::LoadModel;
pub use node::{NodeId, Processor};
pub use protocol::Protocol;
pub use topology::{
    Cluster, ClusterBuilder, ContentionModel, PairTable, Topology, TopologyBuilder, TopologyInfo,
    PAPER_EM3D_SPEEDS,
};
pub use trace::{PredictionReport, RankPhases, Trace, TraceEvent, TraceKind, Tracer};
