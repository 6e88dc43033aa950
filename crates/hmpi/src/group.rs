//! HMPI groups.
//!
//! An [`HmpiGroup`] is the handle `HMPI_Group_create` returns: the ordered
//! list of selected processes (ordered by the abstract processor they
//! implement, so group rank *r* runs abstract processor *r*), the MPI
//! communicator over them (`HMPI_Get_comm`), and the selection's predicted
//! execution time.

use mpisim::Comm;

/// A group of MPI processes selected by the HMPI runtime to execute one
/// parallel algorithm.
#[derive(Debug)]
pub struct HmpiGroup {
    pub(crate) id: u64,
    /// `members[abstract processor] = world rank`.
    pub(crate) members: Vec<usize>,
    /// The communicator over the members — `Some` on member processes,
    /// `None` on processes that took part in the creation but were not
    /// selected.
    pub(crate) comm: Option<Comm>,
    /// The abstract index of the parent processor.
    pub(crate) parent_abs: usize,
    /// Predicted execution time of the algorithm on this group, seconds.
    pub(crate) predicted: f64,
}

impl HmpiGroup {
    /// Unique id of the group within the runtime.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// `HMPI_Is_member`: did the selection include the calling process?
    pub fn is_member(&self) -> bool {
        self.comm.is_some()
    }

    /// `HMPI_Group_rank`: the calling process's rank in the group (equal to
    /// the abstract processor index it implements), or `None` if not a
    /// member.
    pub fn rank(&self) -> Option<usize> {
        self.comm.as_ref().map(Comm::rank)
    }

    /// `HMPI_Group_size`: number of member processes.
    pub fn size(&self) -> usize {
        self.members.len()
    }

    /// `HMPI_Get_comm`: the MPI communicator over the members. "Application
    /// programmers can use this communicator to call the standard MPI
    /// communication routines during the execution of the parallel
    /// algorithm."
    pub fn comm(&self) -> Option<&Comm> {
        self.comm.as_ref()
    }

    /// The selected world ranks, indexed by abstract processor.
    pub fn members(&self) -> &[usize] {
        &self.members
    }

    /// Group rank of the parent process.
    pub fn parent_rank(&self) -> usize {
        self.parent_abs
    }

    /// The predicted execution time the selection was optimised for.
    pub fn predicted_time(&self) -> f64 {
        self.predicted
    }
}
