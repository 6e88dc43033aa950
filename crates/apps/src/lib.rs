//! # hmpi-apps — the paper's two applications
//!
//! Section 3 and Section 4 of the paper demonstrate HMPI with:
//!
//! * [`em3d`] — an *irregular* problem: simulation of interacting electric
//!   and magnetic fields on a three-dimensional object decomposed into
//!   sub-bodies, with a bipartite dependency graph between E and H nodes
//!   (after Culler et al.'s Split-C EM3D benchmark). The HMPI performance
//!   model is the paper's Figure 4, shipped here as model source text and
//!   parsed by the [`perfmodel`] pipeline.
//! * [`nbody`] — a third application in the same lineage (the mpC papers'
//!   galaxy-of-groups example): all-pairs gravity over irregular body
//!   groups, exchanged with allgather collectives each step.
//! * [`matmul`] — a *regular* problem made irregular by the hardware:
//!   ScaLAPACK-style 2D block-cyclic matrix multiplication with the
//!   heterogeneous generalised-block distribution of Kalinov–Lastovetsky
//!   (reference \[6\] of the paper). The performance model is Figure 7.
//!
//! Each application provides a serial reference implementation, a real
//! message-passing parallel implementation over [`mpisim`], a performance
//! model, and drivers for the paper's comparisons. The drivers are only the
//! app's model and kernel: the programs themselves are written once, in a
//! private module, for all three applications — the plain-MPI baseline
//! (processes chosen "by pure chance", i.e. the first `p` world ranks), the
//! HMPI program (recon → model → `group_create` → timed kernel →
//! `group_free` → finalize) and its fault-tolerant variant (the kernel under
//! `Hmpi::recover`). Traced HMPI runs return one [`TracedRun`].
//!
//! ## Unit conventions
//!
//! Virtual-time units follow the paper's benchmark-code convention. For
//! EM3D, one cluster speed unit is *one node update per second*; the model's
//! `bench` is `k` node updates, so recon-derived estimates are in units of
//! `1/k` of the cluster's — consistently on both sides of every division,
//! which is all that matters. For MM, one unit is *one `r × r` block
//! update*.

#![warn(missing_docs)]

pub mod em3d;
pub mod matmul;
pub mod nbody;
mod program;

pub use program::TracedRun;
