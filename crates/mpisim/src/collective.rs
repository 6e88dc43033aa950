//! The legacy collectives: the `barrier`, `bcast`, `gather` and
//! `allgather` the applications and HMPI's runtime call, plus the
//! `scatter` half of [`Comm::split`].
//!
//! Each call runs as one collective-slot rendezvous (`crate::slot`) under
//! the legacy fault rule, on a private plan that sends the messages of
//! MPICH's classic algorithms: the barrier's binomial reduce of nothing to
//! rank 0 then its binomial broadcast of nothing; a binomial-tree
//! broadcast; a linear gather, received in ascending rank order; a linear
//! scatter from rank 0. `allgather` is a gather to rank 0 followed by two
//! broadcasts from it, of the lengths and of the flattened payload. Their
//! virtual-time cost emerges from the link model rather than being
//! postulated: a broadcast over 9 hosts takes ⌈log₂ 9⌉ = 4 link
//! traversals of critical path, a gather `p − 1` messages into the root's
//! NIC, and so on. Each member sleeps at most once per call, and a
//! transfer carries the size of the deposit it names, not its bytes: a
//! finished member copies its result out of the deposits. Reductions run
//! on the schedule engine ([`crate::engine`]).

use crate::comm::Comm;
use crate::datatype::MpiType;
use crate::error::{MpiError, MpiResult};
use crate::plan::Legacy;
use crate::slot::{Deposit, Rule, Slot};
use std::sync::Arc;

/// Part `i` of member `r`'s deposit in `slot`, copied out as `T`s.
///
/// # Errors
/// [`MpiError::TypeMismatch`] if `r` deposited another element type — the
/// bytes a transfer stood for are never reinterpreted — or no such part
/// (members that disagree about the call).
fn part<T: MpiType>(slot: &Slot, r: usize, i: usize) -> MpiResult<Vec<T>> {
    let mismatch = MpiError::TypeMismatch {
        message_bytes: slot.bytes(r, i),
        elem_bytes: T::WIRE_SIZE,
    };
    let data = slot.input(r);
    let parts = data.as_ref().and_then(|d| d.downcast_ref::<Vec<Vec<T>>>());
    parts.and_then(|v| v.get(i).cloned()).ok_or(mismatch)
}

impl Comm {
    fn check_root(&self, root: usize) -> MpiResult<()> {
        if root >= self.size() {
            return Err(MpiError::InvalidRank {
                rank: root as isize,
                comm_size: self.size(),
            });
        }
        Ok(())
    }

    /// Runs legacy call `shape` rooted at `root` in its slot, depositing
    /// `deposit`; the slot comes back for the result to be copied out of.
    fn legacy(&self, shape: Legacy, root: usize, deposit: Deposit) -> MpiResult<Arc<Slot>> {
        let plan = self.shared.plans.legacy(shape, self.size(), root);
        self.run_slot(Rule::Legacy, plan, 0, deposit)
    }

    /// Broadcast (`MPI_Bcast`): `data` is the payload at `root` and is
    /// replaced with the broadcast value everywhere else.
    ///
    /// Like every collective here, a fault surfacing anywhere in the tree
    /// (dead parent, dead child, dropped link) propagates as an `Err` on
    /// every participant instead of deadlocking: members blocked on the
    /// dead member abort directly, and the legacy fault rule (any failed
    /// member ends a wait) aborts everyone else.
    ///
    /// # Errors
    /// [`MpiError::InvalidRank`] for a bad root; [`MpiError::TypeMismatch`]
    /// if the root broadcast another element type; the fault errors of
    /// [`Comm::barrier`].
    pub fn bcast<T: MpiType>(&self, data: &mut Vec<T>, root: usize) -> MpiResult<()> {
        self.check_root(root)?;
        let is_root = self.rank() == root;
        let deposit = match is_root {
            true => Deposit::parts(vec![data.clone()]),
            false => Deposit::default(),
        };
        let slot = self.legacy(Legacy::Bcast, root, deposit)?;
        if !is_root {
            *data = part(&slot, root, 0)?;
        }
        Ok(())
    }

    /// Barrier (`MPI_Barrier`): an empty-payload binomial reduce to rank 0
    /// followed by an empty broadcast from it. On return, every rank's clock
    /// is at least the time at which the last rank entered the barrier plus
    /// the tree traversal cost. It records no collective span.
    ///
    /// # Errors
    /// [`MpiError::NodeFailed`] naming a member whose node has crashed by
    /// this rank's clock at one of its receives, or any member that has
    /// failed while this rank waits; [`MpiError::PeerTerminated`] if a
    /// member this rank waits for returned without entering; the errors of
    /// a send.
    pub fn barrier(&self) -> MpiResult<()> {
        self.legacy(Legacy::Barrier, 0, Deposit::default())
            .map(drop)
    }

    /// Gather (`MPI_Gatherv`-style): every rank contributes a slice (lengths
    /// may differ); `root` receives `Some(vec_of_contributions)` in rank
    /// order, everyone else `None`.
    ///
    /// # Errors
    /// [`MpiError::InvalidRank`] for a bad root; [`MpiError::TypeMismatch`]
    /// at the root if a member contributed another element type; the fault
    /// errors of [`Comm::barrier`].
    pub fn gather<T: MpiType>(&self, contrib: &[T], root: usize) -> MpiResult<Option<Vec<Vec<T>>>> {
        self.check_root(root)?;
        let slot = self.legacy(Legacy::Gather, root, Deposit::parts(vec![contrib.to_vec()]))?;
        if self.rank() != root {
            return Ok(None);
        }
        let parts = (0..self.size()).map(|r| part(&slot, r, 0));
        parts.collect::<MpiResult<_>>().map(Some)
    }

    /// Scatter from rank 0 (`MPI_Scatterv`-style), the second half of
    /// [`Comm::split`]: rank 0 sends `parts[r]` to every rank `r` (the
    /// other ranks' `parts` are ignored); each rank returns its part.
    pub(crate) fn scatter<T: MpiType>(&self, parts: &[Vec<T>]) -> MpiResult<Vec<T>> {
        let deposit = match self.rank() {
            0 => Deposit::parts(parts.to_vec()),
            _ => Deposit::default(),
        };
        let slot = self.legacy(Legacy::Scatter, 0, deposit)?;
        part(&slot, 0, self.rank())
    }

    /// Allgather (`MPI_Allgatherv`-style): every rank receives every rank's
    /// contribution, in rank order. Implemented as gather-to-0 plus two
    /// broadcasts (lengths, then the flattened payload).
    ///
    /// # Errors
    /// As [`Comm::gather`] and [`Comm::bcast`].
    pub fn allgather<T: MpiType>(&self, contrib: &[T]) -> MpiResult<Vec<Vec<T>>> {
        let gathered = self.gather(contrib, 0)?;
        let (mut lens, mut flat): (Vec<usize>, Vec<T>) = match gathered {
            Some(parts) => (
                parts.iter().map(Vec::len).collect(),
                parts.into_iter().flatten().collect(),
            ),
            None => (Vec::new(), Vec::new()),
        };
        self.bcast(&mut lens, 0)?;
        self.bcast(&mut flat, 0)?;
        let mut out = Vec::with_capacity(lens.len());
        let mut off = 0;
        for len in lens {
            out.push(flat[off..off + len].to_vec());
            off += len;
        }
        Ok(out)
    }
}
