//! EM3D: irregular electric/magnetic field simulation (paper Section 3).
//!
//! "The system consists of a few large subbodies resulting from a
//! decomposition of the three-dimensional object. The subbodies contain
//! varying number of E nodes where electric field values are calculated and
//! H nodes where magnetic fields are calculated. The changes in the electric
//! field of an E node are calculated as a linear function of the magnetic
//! field values of its neighboring H nodes and vice versa."

pub mod body;
pub mod driver;
pub mod model;
pub mod parallel;
pub mod serial;

pub use body::{Em3dConfig, Em3dSystem, NodeRef, SubBody};
pub use driver::{
    run_hmpi, run_hmpi_ft, run_hmpi_traced, run_hmpi_with, run_mpi, Em3dFtRun, Em3dRun,
};
pub use model::{em3d_model, em3d_params, EM3D_MODEL_SOURCE};
pub use parallel::ParallelBody;
pub use serial::{serial_run, serial_step};
