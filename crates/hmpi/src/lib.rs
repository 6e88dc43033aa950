//! # hmpi — Heterogeneous MPI (Lastovetsky & Reddy, IPPS 2003)
//!
//! The paper's contribution: "a small set of extensions to MPI aimed at
//! efficient parallel computing on heterogeneous networks of computers".
//! The application programmer describes a performance model of the
//! implemented algorithm (see the [`perfmodel`] crate); given that model,
//! the HMPI runtime "creates a group of processes executing the algorithm
//! faster than any other group of processes".
//!
//! API correspondence with the paper:
//!
//! | Paper                       | This crate                                   |
//! |-----------------------------|----------------------------------------------|
//! | `HMPI_Init` / `HMPI_Finalize` | [`HmpiRuntime::run`] wraps each rank; [`Hmpi::finalize`] |
//! | `HMPI_COMM_WORLD`           | [`Hmpi::world`]                              |
//! | `HMPI_Is_host`              | [`Hmpi::is_host`]                            |
//! | `HMPI_Is_free`              | [`Hmpi::is_free`]                            |
//! | `HMPI_Is_member`            | [`HmpiGroup::is_member`]                     |
//! | `HMPI_Recon`                | [`Hmpi::recon`] / [`Hmpi::recon_opts`] (options in [`Recon`]) |
//! | `HMPI_Timeof`               | [`Hmpi::timeof`] / [`Hmpi::timeof_sweep`]     |
//! | `HMPI_Group_create`         | [`Hmpi::group_create`] (options in [`GroupSpec`]) |
//! | `HMPI_Group_free`           | [`Hmpi::group_free`]                         |
//! | `HMPI_Group_rank` / `_size` | [`HmpiGroup::rank`] / [`HmpiGroup::size`]    |
//! | `HMPI_Get_comm`             | [`HmpiGroup::comm`]                          |
//!
//! Fault-tolerant extensions (beyond the paper; DESIGN.md §7):
//!
//! | Extension                   | This crate                                   |
//! |-----------------------------|----------------------------------------------|
//! | Recon as failure detector   | [`Hmpi::recon_opts`] with [`Recon::fault_tolerant`] (what [`Hmpi::recon`] dispatches to on a faulty cluster) |
//! | Group shrink recovery       | [`Hmpi::rebuild_group`]                      |
//! | Liveness helpers            | [`Hmpi::try_compute`], [`Hmpi::alive_world_ranks`] |
//! | Collective-engine timing    | [`mpisim::Comm::predict_collective`] on [`Hmpi::world`], [`RuntimeConfig::collective_policy`] |
//! | Recover-and-retry loop      | [`Hmpi::recover`] (agreement + bounded rebuilds, DESIGN.md §12) |
//!
//! The group-selection problem — map each *abstract processor* of the model
//! onto a physical process so the predicted execution time is minimal — is
//! solved by [`select_mapping`] (exhaustive search for small models, greedy
//! load-balancing plus pairwise-swap local search in general, optional
//! simulated annealing; see [`MappingAlgorithm`]). There is one selection
//! path and one pricer: every search prices assignments through one
//! [`Evaluator`], which records the model's scheme once as a
//! [`perfmodel::CostProgram`] and prices it against the current speed
//! estimates (refreshed by `HMPI_Recon`) and the links the cluster's ranks
//! send over — allocation-free, each candidate mapping priced once.

#![warn(missing_docs)]

mod engine;
mod group;
mod mapping;
mod recovery;
mod runtime;
mod spec;

pub use engine::Evaluator;
pub use group::HmpiGroup;
pub use mapping::{
    select_mapping, Mapping, MappingAlgorithm, SearchStats, SelectError, SelectionCtx,
};
pub use mpisim::CollectivePolicy;
pub use recovery::{Recovered, RecoveryError};
pub use runtime::{Hmpi, HmpiError, HmpiResult, HmpiRuntime, RuntimeConfig};
pub use spec::{DefaultBench, GroupSpec, Recon};
