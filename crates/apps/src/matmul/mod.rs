//! Heterogeneous parallel matrix multiplication (paper Section 4).
//!
//! "The main idea of efficient solving a regular problem is to reduce it to
//! such an irregular problem, the structure of which is determined by the
//! irregularity of underlying hardware rather than the irregularity of the
//! problem itself." The algorithm is the ScaLAPACK 2D block-cyclic matrix
//! multiplication, modified to use the heterogeneous generalised-block data
//! distribution of Kalinov–Lastovetsky (the paper's reference \[6\]).

pub mod block;
pub mod dist;
pub mod driver;
pub mod model;
pub mod parallel;

pub use block::BlockMatrix;
pub use dist::GeneralizedBlockDist;
pub use driver::{run_hmpi, run_hmpi_traced, run_mpi, MatmulRun};
pub use model::{matmul_model, matmul_params, MATMUL_MODEL_SOURCE};
pub use parallel::DistributedMatmul;
