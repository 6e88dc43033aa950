//! # mpisim — an in-process MPI-subset message-passing substrate
//!
//! HMPI is "a small set of extensions to MPI"; reproducing it therefore needs
//! an MPI to extend. Real MPI implementations (and the thin `rsmpi` binding)
//! are unavailable/unsuitable here, so this crate implements the subset of
//! MPI that HMPI and the paper's two applications rest on, from scratch:
//!
//! * **ranks as threads** — [`Universe::run`] lends one pooled OS thread per
//!   rank, each executing the same SPMD closure with its own [`Process`]
//!   handle;
//! * **groups** ([`Group`]): ordered world-rank lists with membership, rank
//!   translation and `union` / `intersection` / `difference`;
//! * **communicators** ([`Comm`]) with `dup`, `split` and `create`, each with
//!   its own context id so messages never cross communicators;
//! * **point-to-point** typed blocking `send` / `recv` / `sendrecv` / `probe`
//!   (plus `iprobe`) with `None` as the `MPI_ANY_SOURCE` / `MPI_ANY_TAG`
//!   wildcard and MPI's per-pair non-overtaking guarantee;
//! * **collectives** built *on top of* point-to-point, so their cost model
//!   emerges from the link model rather than being postulated: the schedule
//!   engine's `bcast_into` / `allgather_eq` / `reduce_eq_*` /
//!   `allreduce_eq_*`, priced and selected per call ([`CollectivePolicy`]),
//!   and the legacy binomial-tree `barrier` / `bcast`, linear `gather` and
//!   gather-then-broadcast `allgather` (ragged contributions) the
//!   applications call;
//! * **fault tolerance**: typed errors instead of hangs, ULFM-style
//!   `agree`, and a quiescence detector that turns a wedged program into a
//!   typed verdict;
//! * **virtual time** — every rank carries a logical clock
//!   ([`LocalClock`]); [`Process::compute`] advances it by
//!   `volume / speed(node, now)` against the [`hetsim::Cluster`] the ranks
//!   are placed on, and every message carries its arrival time
//!   `send_time + latency + bytes/bandwidth` (plus contention, if the
//!   cluster's [`hetsim::ContentionModel`] serialises NICs or the bus). The
//!   receiver's clock advances to `max(own, arrival)`. The reported program
//!   time is the maximum final clock over all ranks.
//!
//! The result is a *functionally real* message-passing program — the EM3D
//! fields and matrix products computed through this crate are checked against
//! serial references — whose *timing* is a deterministic model of the
//! paper's heterogeneous LAN.

#![warn(missing_docs)]

mod agree;
mod collective;
mod comm;
pub mod datatype;
pub mod engine;
mod error;
mod group;
mod lane;
mod op;
mod p2p;
pub mod plan;
mod pool;
mod quiesce;
mod runtime;
mod vtime;

pub use agree::Agreement;
pub use comm::Comm;
pub use datatype::MpiType;
pub use engine::CollectivePolicy;
pub use error::{MpiError, MpiResult, WaitGraph};
pub use perfmodel::collective::{CollectiveAlgo, CollectiveKind};
pub use group::Group;
pub use op::ReduceOp;
pub use p2p::{Status, EAGER_LIMIT};
pub use plan::{Plan, PlanCacheReport, PlanKey};
pub use pool::PoolReport;
pub use runtime::{Process, RunReport, Universe, UniverseConfig, WakeupReport};
pub use vtime::LocalClock;
