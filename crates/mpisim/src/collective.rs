//! Collective operations, built on point-to-point.
//!
//! Every collective here is implemented in terms of [`Comm`]'s transport
//! primitives on the communicator's *collective context plane*, so (a)
//! collectives can never intercept application point-to-point traffic, and
//! (b) their virtual-time cost emerges from the link model rather than being
//! postulated: a binomial-tree broadcast over 9 hosts takes ⌈log₂ 9⌉ = 4
//! link traversals of critical path, a linear gather takes `p − 1` messages
//! into the root's NIC, and so on.

use crate::comm::Comm;
use crate::datatype::{decode, encode, MpiType};
use crate::error::{MpiError, MpiResult};
use crate::op::ReduceOp;

// Collective opcodes, used as tags on the collective plane. Two successive
// collectives of the same kind pair up correctly thanks to the per-(source,
// context) non-overtaking guarantee.
const TAG_BARRIER_UP: i32 = 1;
const TAG_BARRIER_DOWN: i32 = 2;
const TAG_BCAST: i32 = 3;
const TAG_GATHER: i32 = 4;
const TAG_SCATTER: i32 = 5;
const TAG_ALLTOALL: i32 = 6;
const TAG_REDUCE: i32 = 7;
const TAG_SCAN: i32 = 8;

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

    /// Broadcasts a single value from `root`.
    ///
    /// # Errors
    /// As [`Comm::bcast`].
    pub fn bcast_one<T: MpiType + Default>(&self, value: T, root: usize) -> MpiResult<T> {
        let mut v = if self.rank() == root {
            vec![value]
        } else {
            Vec::new()
        };
        self.bcast(&mut v, root)?;
        Ok(v[0])
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

    /// Gather with equal contribution lengths, flattened in rank order
    /// (`MPI_Gather`).
    ///
    /// # Errors
    /// [`MpiError::InvalidCounts`] if contributions differ in length.
    pub fn gather_flat<T: MpiType>(
        &self,
        contrib: &[T],
        root: usize,
    ) -> MpiResult<Option<Vec<T>>> {
        let per = contrib.len();
        match self.gather(contrib, root)? {
            None => Ok(None),
            Some(parts) => {
                if parts.iter().any(|p| p.len() != per) {
                    return Err(MpiError::InvalidCounts(
                        "gather_flat requires equal contribution lengths".into(),
                    ));
                }
                Ok(Some(parts.into_iter().flatten().collect()))
            }
        }
    }

    /// Scatter (`MPI_Scatterv`-style): `root` supplies one vector per rank
    /// (`parts.len() == size`); each rank receives its part.
    ///
    /// # Errors
    /// [`MpiError::InvalidCounts`] if root's `parts` has the wrong arity;
    /// [`MpiError::InvalidRank`] for a bad root.
    pub fn scatter<T: MpiType>(
        &self,
        parts: Option<&[Vec<T>]>,
        root: usize,
    ) -> MpiResult<Vec<T>> {
        self.check_root(root)?;
        if self.rank() == root {
            let parts = parts.ok_or_else(|| {
                MpiError::InvalidCounts("root must supply scatter parts".into())
            })?;
            if parts.len() != self.size() {
                return Err(MpiError::InvalidCounts(format!(
                    "scatter needs {} parts, got {}",
                    self.size(),
                    parts.len()
                )));
            }
            for (dst, part) in parts.iter().enumerate() {
                if dst != root {
                    self.post_bytes(self.coll_plane(), encode(part), dst, TAG_SCATTER)?;
                }
            }
            Ok(parts[root].clone())
        } else {
            let (bytes, _) = self.recv_bytes(self.coll_plane(), Some(root), Some(TAG_SCATTER))?;
            decode(&bytes)
        }
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

    /// All-to-all personalised exchange (`MPI_Alltoallv`-style): rank `i`'s
    /// `sends[j]` is delivered as rank `j`'s result `[i]`.
    ///
    /// # Errors
    /// [`MpiError::InvalidCounts`] if `sends.len() != size`.
    pub fn alltoall<T: MpiType>(&self, sends: &[Vec<T>]) -> MpiResult<Vec<Vec<T>>> {
        if sends.len() != self.size() {
            return Err(MpiError::InvalidCounts(format!(
                "alltoall needs {} send vectors, got {}",
                self.size(),
                sends.len()
            )));
        }
        let rank = self.rank();
        for (dst, payload) in sends.iter().enumerate() {
            if dst != rank {
                self.post_bytes(self.coll_plane(), encode(payload), dst, TAG_ALLTOALL)?;
            }
        }
        let mut out = Vec::with_capacity(self.size());
        for src in 0..self.size() {
            if src == rank {
                out.push(sends[rank].clone());
            } else {
                let (bytes, _) =
                    self.recv_bytes(self.coll_plane(), Some(src), Some(TAG_ALLTOALL))?;
                out.push(decode(&bytes)?);
            }
        }
        Ok(out)
    }
}

macro_rules! impl_typed_reductions {
    ($t:ty, $fold:ident, $identity:ident, $check_operand:ident, $reduce:ident,
     $allreduce:ident, $scan:ident, $exscan:ident, $reduce_scatter_block:ident,
     $reduce_one:ident, $allreduce_one:ident) => {
        impl Comm {
            /// Checks that a reduction operand decoded off the wire matches
            /// the local contribution length, so mismatched calls surface as
            /// [`MpiError::InvalidCounts`] instead of a panic inside the
            /// elementwise fold.
            fn $check_operand(rhs: &[$t], want: usize) -> MpiResult<()> {
                if rhs.len() != want {
                    return Err(MpiError::InvalidCounts(format!(
                        "reduction operand has {} elements, local contribution has {want} \
                         (ranks called the collective with different lengths?)",
                        rhs.len()
                    )));
                }
                Ok(())
            }

            /// Binomial-tree reduction to `root` (`MPI_Reduce`); `Some` at
            /// root, `None` elsewhere.
            ///
            /// # Errors
            /// [`MpiError::InvalidRank`] for a bad root;
            /// [`MpiError::InvalidCounts`] if ranks contribute different
            /// lengths.
            pub fn $reduce(
                &self,
                contrib: &[$t],
                op: ReduceOp,
                root: usize,
            ) -> MpiResult<Option<Vec<$t>>> {
                self.check_root(root)?;
                let size = self.size();
                let rel = (self.rank() + size - root) % size;
                let mut acc = contrib.to_vec();
                let mut mask = 1usize;
                while mask < size {
                    if rel & mask == 0 {
                        let src_rel = rel | mask;
                        if src_rel < size {
                            let src = (src_rel + root) % size;
                            let (bytes, _) =
                                self.recv_bytes(self.coll_plane(), Some(src), Some(TAG_REDUCE))?;
                            let rhs: Vec<$t> = decode(&bytes)?;
                            Self::$check_operand(&rhs, acc.len())?;
                            op.$fold(&mut acc, &rhs);
                        }
                    } else {
                        let dst = ((rel & !mask) + root) % size;
                        self.post_bytes(self.coll_plane(), encode(&acc), dst, TAG_REDUCE)?;
                        return Ok(None);
                    }
                    mask <<= 1;
                }
                Ok(Some(acc))
            }

            /// Reduce + broadcast (`MPI_Allreduce`).
            ///
            /// # Errors
            /// Propagates transport errors.
            pub fn $allreduce(&self, contrib: &[$t], op: ReduceOp) -> MpiResult<Vec<$t>> {
                let reduced = self.$reduce(contrib, op, 0)?;
                let mut data = reduced.unwrap_or_default();
                self.bcast(&mut data, 0)?;
                Ok(data)
            }

            /// Inclusive prefix reduction (`MPI_Scan`): rank `i` receives the
            /// reduction of contributions from ranks `0..=i`. Implemented as
            /// a linear chain.
            ///
            /// # Errors
            /// Propagates transport errors.
            pub fn $scan(&self, contrib: &[$t], op: ReduceOp) -> MpiResult<Vec<$t>> {
                let rank = self.rank();
                let mut acc = contrib.to_vec();
                if rank > 0 {
                    let (bytes, _) =
                        self.recv_bytes(self.coll_plane(), Some(rank - 1), Some(TAG_SCAN))?;
                    let prefix: Vec<$t> = decode(&bytes)?;
                    Self::$check_operand(&prefix, acc.len())?;
                    let mut merged = prefix;
                    op.$fold(&mut merged, &acc);
                    acc = merged;
                }
                if rank + 1 < self.size() {
                    self.post_bytes(self.coll_plane(), encode(&acc), rank + 1, TAG_SCAN)?;
                }
                Ok(acc)
            }

            /// Exclusive prefix reduction (`MPI_Exscan`): rank `i` receives
            /// the reduction of contributions from ranks `0..i`; rank 0
            /// receives the identity.
            ///
            /// # Errors
            /// Propagates transport errors.
            pub fn $exscan(&self, contrib: &[$t], op: ReduceOp) -> MpiResult<Vec<$t>> {
                let rank = self.rank();
                let prefix: Vec<$t> = if rank == 0 {
                    vec![op.$identity(); contrib.len()]
                } else {
                    let (bytes, _) =
                        self.recv_bytes(self.coll_plane(), Some(rank - 1), Some(TAG_SCAN))?;
                    let prefix: Vec<$t> = decode(&bytes)?;
                    Self::$check_operand(&prefix, contrib.len())?;
                    prefix
                };
                if rank + 1 < self.size() {
                    let mut inclusive = prefix.clone();
                    op.$fold(&mut inclusive, contrib);
                    self.post_bytes(
                        self.coll_plane(),
                        encode(&inclusive),
                        rank + 1,
                        TAG_SCAN,
                    )?;
                }
                Ok(prefix)
            }

            /// Reduce-scatter with equal block sizes
            /// (`MPI_Reduce_scatter_block`): the elementwise reduction of
            /// every rank's `contrib` (length `size * block`) is computed and
            /// rank `i` receives elements `i*block .. (i+1)*block`.
            ///
            /// # Errors
            /// [`MpiError::InvalidCounts`] if the contribution length is not
            /// `size * block`.
            pub fn $reduce_scatter_block(
                &self,
                contrib: &[$t],
                block: usize,
                op: ReduceOp,
            ) -> MpiResult<Vec<$t>> {
                if block == 0 {
                    return Err(MpiError::InvalidCounts(
                        "reduce_scatter_block needs a non-zero block size".into(),
                    ));
                }
                if contrib.len() != self.size() * block {
                    return Err(MpiError::InvalidCounts(format!(
                        "reduce_scatter_block needs {} elements, got {}",
                        self.size() * block,
                        contrib.len()
                    )));
                }
                let reduced = self.$reduce(contrib, op, 0)?;
                let parts: Option<Vec<Vec<$t>>> = reduced
                    .map(|full| full.chunks(block).map(<[$t]>::to_vec).collect());
                self.scatter(parts.as_deref(), 0)
            }

            /// Scalar reduce convenience.
            ///
            /// # Errors
            /// As the vector form.
            pub fn $reduce_one(
                &self,
                value: $t,
                op: ReduceOp,
                root: usize,
            ) -> MpiResult<Option<$t>> {
                Ok(self.$reduce(&[value], op, root)?.map(|v| v[0]))
            }

            /// Scalar allreduce convenience.
            ///
            /// # Errors
            /// As the vector form.
            pub fn $allreduce_one(&self, value: $t, op: ReduceOp) -> MpiResult<$t> {
                Ok(self.$allreduce(&[value], op)?[0])
            }
        }
    };
}

impl_typed_reductions!(
    f64, fold_f64, identity_f64, check_operand_f64, reduce_f64, allreduce_f64,
    scan_f64, exscan_f64, reduce_scatter_block_f64, reduce_one_f64, allreduce_one_f64
);
impl_typed_reductions!(
    i64, fold_i64, identity_i64, check_operand_i64, reduce_i64, allreduce_i64,
    scan_i64, exscan_i64, reduce_scatter_block_i64, reduce_one_i64, allreduce_one_i64
);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Universe;
    use hetsim::{Cluster, ClusterBuilder, Link, Protocol};
    use proptest::prelude::*;
    use std::sync::Arc;

    fn cluster(n: usize) -> Arc<Cluster> {
        let mut b = ClusterBuilder::new();
        for i in 0..n {
            b = b.node(format!("h{i}"), 50.0 + 10.0 * i as f64);
        }
        Arc::new(b.all_to_all(Link::new(1e-4, 1e7, Protocol::Tcp)).build())
    }

    fn op_strategy() -> BoxedStrategy<ReduceOp> {
        prop_oneof![
            Just(ReduceOp::Sum),
            Just(ReduceOp::Prod),
            Just(ReduceOp::Max),
            Just(ReduceOp::Min),
        ]
    }

    // Mixed magnitudes so that f64 rounding exposes any re-association:
    // (a + b) + c and a + (b + c) differ in the low bits for these ranges.
    fn value_strategy() -> BoxedStrategy<f64> {
        prop_oneof![-1e3..1e3f64, 1e9..1e12f64, -1e-6..1e-6f64]
    }

    /// The serial reference for `scan`: the left fold in strict rank order
    /// that the linear chain performs. Returned per rank; bit-exact.
    fn serial_inclusive_prefixes(contribs: &[Vec<f64>], op: ReduceOp) -> Vec<Vec<f64>> {
        let mut out: Vec<Vec<f64>> = Vec::with_capacity(contribs.len());
        for (i, c) in contribs.iter().enumerate() {
            let acc = if i == 0 {
                c.clone()
            } else {
                let mut merged = out[i - 1].clone();
                op.fold_f64(&mut merged, c);
                merged
            };
            out.push(acc);
        }
        out
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    fn chunked(flat: &[f64], len: usize) -> Vec<Vec<f64>> {
        if len == 0 {
            // Zero-length contributions: one empty vector per rank.
            return vec![Vec::new(); flat.len().max(1)];
        }
        flat.chunks(len).map(<[f64]>::to_vec).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        // `scan` must reproduce the serial left fold *bit for bit*: the
        // chain is ordered, and floating-point addition is not associative,
        // so any re-association inside the implementation shows up here.
        #[test]
        fn scan_matches_serial_left_fold_bitwise(
            n in 1usize..7,
            len in 1usize..4,
            op in op_strategy(),
            flat in proptest::collection::vec(value_strategy(), 18),
        ) {
            let contribs: Vec<Vec<f64>> = chunked(&flat[..n * len], len);
            let expect = serial_inclusive_prefixes(&contribs, op);
            let u = Universe::new(cluster(n));
            let per_rank = contribs.clone();
            let report = u.run(move |p| {
                let world = p.world();
                world.scan_f64(&per_rank[world.rank()], op).unwrap()
            });
            for (rank, got) in report.results.iter().enumerate() {
                prop_assert_eq!(bits(got), bits(&expect[rank]), "rank {}", rank);
            }
        }

        // `exscan` is the scan shifted by one rank: rank 0 receives the
        // operation's identity, rank i > 0 receives the inclusive prefix of
        // ranks 0..i — again bit-exact against the serial left fold.
        #[test]
        fn exscan_is_scan_shifted_by_one_rank(
            n in 1usize..7,
            len in 1usize..4,
            op in op_strategy(),
            flat in proptest::collection::vec(value_strategy(), 18),
        ) {
            let contribs: Vec<Vec<f64>> = chunked(&flat[..n * len], len);
            let expect = serial_inclusive_prefixes(&contribs, op);
            let u = Universe::new(cluster(n));
            let per_rank = contribs.clone();
            let report = u.run(move |p| {
                let world = p.world();
                world.exscan_f64(&per_rank[world.rank()], op).unwrap()
            });
            for (rank, got) in report.results.iter().enumerate() {
                if rank == 0 {
                    prop_assert_eq!(got.len(), len);
                    for x in got {
                        prop_assert_eq!(x.to_bits(), op.identity_f64().to_bits());
                    }
                } else {
                    prop_assert_eq!(bits(got), bits(&expect[rank - 1]), "rank {}", rank);
                }
            }
        }

        // `reduce_scatter_block` over i64, where every op is exact: the
        // concatenation of the per-rank blocks must equal the elementwise
        // reduction of all contributions, regardless of the tree order the
        // binomial reduce uses. Values stay small so Prod cannot overflow.
        #[test]
        fn reduce_scatter_block_matches_serial_reduction(
            n in 1usize..7,
            block in 1usize..4,
            op in op_strategy(),
            flat in proptest::collection::vec(-4i64..5, 108),
        ) {
            let contribs: Vec<Vec<i64>> = flat[..n * n * block]
                .chunks(n * block)
                .map(<[i64]>::to_vec)
                .collect();
            let mut expect = contribs[0].clone();
            for c in &contribs[1..] {
                op.fold_i64(&mut expect, c);
            }
            let u = Universe::new(cluster(n));
            let per_rank = contribs.clone();
            let report = u.run(move |p| {
                let world = p.world();
                world
                    .reduce_scatter_block_i64(&per_rank[world.rank()], block, op)
                    .unwrap()
            });
            let mut rejoined = Vec::new();
            for got in &report.results {
                prop_assert_eq!(got.len(), block);
                rejoined.extend_from_slice(got);
            }
            prop_assert_eq!(rejoined, expect);
        }

        // A single-rank communicator must make every prefix/reduce-scatter
        // collective the identity operation on the local contribution.
        #[test]
        fn single_rank_collectives_are_local_identities(
            len in 0usize..5,
            op in op_strategy(),
            flat in proptest::collection::vec(value_strategy(), 4),
        ) {
            let contrib = flat[..len].to_vec();
            let u = Universe::new(cluster(1));
            let c = contrib.clone();
            let report = u.run(move |p| {
                let world = p.world();
                let scan = world.scan_f64(&c, op).unwrap();
                let exscan = world.exscan_f64(&c, op).unwrap();
                let rsb = world.reduce_scatter_block_f64(&c, c.len(), op);
                (scan, exscan, rsb)
            });
            let (scan, exscan, rsb) = &report.results[0];
            prop_assert_eq!(bits(scan), bits(&contrib));
            for x in exscan {
                prop_assert_eq!(x.to_bits(), op.identity_f64().to_bits());
            }
            if len > 0 {
                prop_assert_eq!(bits(rsb.as_ref().unwrap()), bits(&contrib));
            } else {
                // A zero block size is a caller error, not a panic.
                prop_assert!(matches!(rsb, Err(MpiError::InvalidCounts(_))));
            }
        }
    }
}
