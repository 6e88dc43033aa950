//! The legacy collectives, built on point-to-point: the `barrier`, `bcast`,
//! `gather` and `allgather` the applications and HMPI's runtime call, plus
//! the `scatter` half of [`Comm::split`].
//!
//! Every collective here is implemented in terms of [`Comm`]'s transport
//! primitives on the communicator's *collective context plane*, so (a)
//! collectives can never intercept application point-to-point traffic, and
//! (b) their virtual-time cost emerges from the link model rather than being
//! postulated: a binomial-tree broadcast over 9 hosts takes ⌈log₂ 9⌉ = 4
//! link traversals of critical path, a linear gather takes `p − 1` messages
//! into the root's NIC, and so on. Reductions run on the schedule engine
//! ([`crate::engine`]).

use crate::comm::Comm;
use crate::datatype::{decode, encode, MpiType};
use crate::error::{MpiError, MpiResult};

// Collective opcodes, used as tags on the collective plane. Two successive
// collectives of the same kind pair up correctly thanks to the per-(source,
// context) non-overtaking guarantee.
const TAG_BARRIER_UP: i32 = 1;
const TAG_BARRIER_DOWN: i32 = 2;
const TAG_BCAST: i32 = 3;
const TAG_GATHER: i32 = 4;
const TAG_SCATTER: i32 = 5;

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

    /// Broadcast raw bytes along a binomial tree rooted at `root`.
    ///
    /// Like every collective here, a fault surfacing anywhere in the tree
    /// (dead parent, dead child, dropped link) propagates as an `Err` on
    /// every participant instead of deadlocking: ranks blocked on the dead
    /// member abort directly, and the collective-plane abort rule (see
    /// `WaitRecord::abort`) aborts everyone else.
    fn bcast_bytes(&self, mut bytes: Vec<u8>, root: usize, tag: i32) -> MpiResult<Vec<u8>> {
        let size = self.size();
        let rank = self.rank();
        if size == 1 {
            return Ok(bytes);
        }
        let rel = (rank + size - root) % size;

        // Receive phase: wait for the subtree parent.
        let mut mask = 1usize;
        while mask < size {
            if rel & mask != 0 {
                let src = (rel - mask + root) % size;
                let (data, _) = self.recv_bytes(self.coll_plane(), Some(src), Some(tag))?;
                bytes = data.into_vec();
                break;
            }
            mask <<= 1;
        }
        // Send phase: fan out to children.
        mask >>= 1;
        while mask > 0 {
            if rel + mask < size {
                let dst = (rel + mask + root) % size;
                self.post_bytes(self.coll_plane(), bytes.clone(), dst, tag)?;
            }
            mask >>= 1;
        }
        Ok(bytes)
    }

    /// Broadcast (`MPI_Bcast`): `data` is the payload at `root` and is
    /// replaced with the broadcast value everywhere else.
    ///
    /// # Errors
    /// [`MpiError::InvalidRank`] for a bad root; [`MpiError::TypeMismatch`]
    /// on decode (cannot happen for matched types).
    pub fn bcast<T: MpiType>(&self, data: &mut Vec<T>, root: usize) -> MpiResult<()> {
        self.check_root(root)?;
        let bytes = if self.rank() == root {
            encode(&*data)
        } else {
            Vec::new()
        };
        let out = self.bcast_bytes(bytes, root, TAG_BCAST)?;
        *data = decode(&out)?;
        Ok(())
    }

    /// Barrier (`MPI_Barrier`): an empty-payload binomial reduce to rank 0
    /// followed by an empty broadcast. On return, every rank's clock is at
    /// least the time at which the last rank entered the barrier plus the
    /// tree traversal cost.
    ///
    /// # Errors
    /// Propagates transport errors (none under normal operation).
    pub fn barrier(&self) -> MpiResult<()> {
        let size = self.size();
        let rank = self.rank();
        if size == 1 {
            return Ok(());
        }
        // Up phase: binomial reduce of nothing.
        let mut mask = 1usize;
        while mask < size {
            if rank & mask == 0 {
                let src = rank | mask;
                if src < size {
                    self.recv_bytes(self.coll_plane(), Some(src), Some(TAG_BARRIER_UP))?;
                }
            } else {
                let dst = rank & !mask;
                self.post_bytes(self.coll_plane(), Vec::new(), dst, TAG_BARRIER_UP)?;
                break;
            }
            mask <<= 1;
        }
        // Down phase: empty bcast from 0.
        self.bcast_bytes(Vec::new(), 0, TAG_BARRIER_DOWN)?;
        Ok(())
    }

    /// Gather (`MPI_Gatherv`-style): every rank contributes a slice (lengths
    /// may differ); `root` receives `Some(vec_of_contributions)` in rank
    /// order, everyone else `None`.
    ///
    /// # Errors
    /// [`MpiError::InvalidRank`] for a bad root.
    pub fn gather<T: MpiType>(&self, contrib: &[T], root: usize) -> MpiResult<Option<Vec<Vec<T>>>> {
        self.check_root(root)?;
        if self.rank() != root {
            self.post_bytes(self.coll_plane(), encode(contrib), root, TAG_GATHER)?;
            return Ok(None);
        }
        let mut out = Vec::with_capacity(self.size());
        for src in 0..self.size() {
            if src == root {
                out.push(contrib.to_vec());
            } else {
                let (bytes, _) = self.recv_bytes(self.coll_plane(), Some(src), Some(TAG_GATHER))?;
                out.push(decode(&bytes)?);
            }
        }
        Ok(Some(out))
    }

    /// Scatter from rank 0 (`MPI_Scatterv`-style), the second half of
    /// [`Comm::split`]: rank 0 sends `parts[r]` to every rank `r` (the
    /// other ranks' `parts` are ignored); each rank returns its part.
    pub(crate) fn scatter<T: MpiType>(&self, parts: &[Vec<T>]) -> MpiResult<Vec<T>> {
        if self.rank() != 0 {
            let (bytes, _) = self.recv_bytes(self.coll_plane(), Some(0), Some(TAG_SCATTER))?;
            return decode(&bytes);
        }
        for (dst, part) in parts.iter().enumerate().skip(1) {
            self.post_bytes(self.coll_plane(), encode(part), dst, TAG_SCATTER)?;
        }
        Ok(parts[0].clone())
    }

    /// Allgather (`MPI_Allgatherv`-style): every rank receives every rank's
    /// contribution, in rank order. Implemented as gather-to-0 plus two
    /// broadcasts (lengths, then the flattened payload).
    ///
    /// # Errors
    /// Propagates transport errors.
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
