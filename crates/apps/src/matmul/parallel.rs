//! Distributed 2D block-cyclic matrix multiplication over an
//! [`mpisim::Comm`].
//!
//! At each step `k`, owners of the pivot column of `A` send their blocks
//! horizontally, owners of the pivot row of `B` send vertically (paper
//! Figure 6), and every processor updates its rectangle of `C` with one
//! block-multiply per owned block. The same code runs the heterogeneous
//! distribution (HMPI) and the homogeneous one (the MPI baseline) — only the
//! [`GeneralizedBlockDist`] differs.

use crate::matmul::block::{block_multiply_add, BlockMatrix};
use crate::matmul::dist::GeneralizedBlockDist;
use mpisim::{Comm, MpiResult};
use std::sync::Arc;

const TAG_A_BASE: i32 = 10_000;
const TAG_B_BASE: i32 = 2_000_000;

/// One grid processor's share of the computation. The input matrices are
/// shared by every rank of a run and only read; each rank owns its `C`
/// blocks and two pivot buffers.
#[derive(Debug, Clone)]
pub struct DistributedMatmul {
    /// Matrix size in blocks.
    pub n: usize,
    /// Block side in elements.
    pub r: usize,
    /// Grid side.
    pub m: usize,
    /// The data distribution.
    pub dist: GeneralizedBlockDist,
    /// My grid row.
    pub my_i: usize,
    /// My grid column.
    pub my_j: usize,
    a: Arc<BlockMatrix>,
    b: Arc<BlockMatrix>,
    /// The `(i, j)` of every owned `C` block, in `(i, j)` order.
    owned: Vec<(usize, usize)>,
    /// The owned `C` blocks, `r * r` elements each, in `owned`'s order.
    c: Vec<f64>,
    /// This step's pivot `a(i, k)` in slot `i`, for `i` in `my_rows`.
    a_pivot: Vec<f64>,
    /// This step's pivot `b(k, j)` in slot `j`, for `j` in `my_cols`.
    b_pivot: Vec<f64>,
    /// Block rows `i` with at least one owned `C` block.
    my_rows: Vec<usize>,
    /// Block columns `j` with at least one owned `C` block.
    my_cols: Vec<usize>,
}

impl DistributedMatmul {
    /// Builds rank `rank`'s share (grid position `(rank / m, rank % m)`)
    /// from deterministic input matrices generated from the two seeds.
    pub fn new(
        dist: GeneralizedBlockDist,
        n: usize,
        r: usize,
        rank: usize,
        seed_a: u64,
        seed_b: u64,
    ) -> Self {
        let [a, b] = [seed_a, seed_b].map(|seed| Arc::new(BlockMatrix::deterministic(n, r, seed)));
        Self::with_inputs(dist, a, b, rank)
    }

    /// Builds rank `rank`'s share of `a × b`, reading the inputs in place.
    ///
    /// # Panics
    /// Panics if `a` and `b` differ in shape, `rank` is off the grid or
    /// `l > n`.
    pub fn with_inputs(
        dist: GeneralizedBlockDist,
        a: Arc<BlockMatrix>,
        b: Arc<BlockMatrix>,
        rank: usize,
    ) -> Self {
        let (n, r, m) = (a.n, a.r, dist.m);
        assert_eq!((b.n, b.r), (n, r), "A and B must have the same shape");
        assert!(rank < m * m);
        assert!(n >= dist.l, "the paper requires l <= n");
        let (my_i, my_j) = (rank / m, rank % m);
        let owned: Vec<_> = (0..n)
            .flat_map(|i| (0..n).map(move |j| (i, j)))
            .filter(|&(i, j)| dist.owner_of_block(i, j) == (my_i, my_j))
            .collect();
        let my_rows: Vec<usize> = (0..n)
            .filter(|&i| dist.row_slice(i % dist.l, my_j) == my_i)
            .collect();
        let my_cols: Vec<usize> = (0..n)
            .filter(|&j| dist.col_slice(j % dist.l) == my_j)
            .collect();
        DistributedMatmul {
            n,
            r,
            m,
            dist,
            my_i,
            my_j,
            a,
            b,
            c: vec![0.0; owned.len() * r * r],
            owned,
            a_pivot: vec![0.0; n * r * r],
            b_pivot: vec![0.0; n * r * r],
            my_rows,
            my_cols,
        }
    }

    /// Grid position to communicator rank.
    fn rank_of(&self, (gi, gj): (usize, usize)) -> usize {
        gi * self.m + gj
    }

    /// Number of owned `C` blocks — the per-step computation volume in
    /// block updates.
    pub fn owned_blocks(&self) -> usize {
        self.owned.len()
    }

    /// One step `k` of the algorithm: pivot-column broadcast of `A`,
    /// pivot-row broadcast of `B`, rank-1 block update of `C`.
    ///
    /// # Errors
    /// Propagates transport errors.
    pub fn step(&mut self, k: usize, comm: &Comm) -> MpiResult<()> {
        let me = (self.my_i, self.my_j);
        let (dist, rr) = (&self.dist, self.r * self.r);

        // Send my pivot-column A blocks horizontally: a(i, k) goes to the
        // owner of c(i, ·) in every grid column.
        for i in (0..self.n).filter(|&i| dist.owner_of_block(i, k) == me) {
            for gj in 0..self.m {
                let to = (dist.row_slice(i % dist.l, gj), gj);
                if to != me {
                    comm.send(self.a.block(i, k), self.rank_of(to), TAG_A_BASE + i as i32)?;
                }
            }
        }
        // Send my pivot-row B blocks vertically: b(k, j) goes to every grid
        // row of my column slice.
        for j in (0..self.n).filter(|&j| dist.owner_of_block(k, j) == me) {
            for gi in (0..self.m).filter(|&gi| gi != self.my_i) {
                let to = self.rank_of((gi, self.my_j));
                comm.send(self.b.block(k, j), to, TAG_B_BASE + j as i32)?;
            }
        }

        // Fill the pivot slots I need: my own blocks from the inputs, the
        // others from their owners.
        for &i in &self.my_rows {
            let owner = dist.owner_of_block(i, k);
            let from = self.rank_of(owner);
            let slot = &mut self.a_pivot[i * rr..(i + 1) * rr];
            if owner == me {
                slot.copy_from_slice(self.a.block(i, k));
            } else {
                comm.recv_into(slot, from, TAG_A_BASE + i as i32)?;
            }
        }
        for &j in &self.my_cols {
            let owner = dist.owner_of_block(k, j);
            let from = self.rank_of(owner);
            let slot = &mut self.b_pivot[j * rr..(j + 1) * rr];
            if owner == me {
                slot.copy_from_slice(self.b.block(k, j));
            } else {
                comm.recv_into(slot, from, TAG_B_BASE + j as i32)?;
            }
        }

        // Update every owned C block: c(i,j) += a(i,k) * b(k,j).
        for (&(i, j), cblock) in self.owned.iter().zip(self.c.chunks_exact_mut(rr)) {
            let ab = &self.a_pivot[i * rr..(i + 1) * rr];
            let bb = &self.b_pivot[j * rr..(j + 1) * rr];
            block_multiply_add(cblock, ab, bb, self.r);
        }
        // Virtual cost: one block update per owned block.
        comm.compute(self.owned.len() as f64);
        Ok(())
    }

    /// Runs all `n` steps.
    ///
    /// # Errors
    /// Propagates transport errors.
    pub fn run(&mut self, comm: &Comm) -> MpiResult<()> {
        for k in 0..self.n {
            self.step(k, comm)?;
        }
        Ok(())
    }

    /// Gathers the distributed `C` to communicator rank 0 for verification.
    /// Encodes each block as `[i, j, elements...]`, in `(i, j)` order.
    ///
    /// # Errors
    /// Propagates transport errors.
    pub fn gather_c(&self, comm: &Comm) -> MpiResult<Option<BlockMatrix>> {
        let r = self.r;
        let stride = 2 + r * r;
        let mut payload: Vec<f64> = Vec::with_capacity(self.owned.len() * stride);
        for (&(i, j), block) in self.owned.iter().zip(self.c.chunks_exact(r * r)) {
            payload.extend([i as f64, j as f64]);
            payload.extend_from_slice(block);
        }
        let gathered = comm.gather(&payload, 0)?;
        Ok(gathered.map(|parts| {
            let mut full = BlockMatrix::zeros(self.n, r);
            for part in parts {
                assert_eq!(part.len() % stride, 0);
                for chunk in part.chunks_exact(stride) {
                    let (i, j) = (chunk[0] as usize, chunk[1] as usize);
                    full.block_mut(i, j).copy_from_slice(&chunk[2..]);
                }
            }
            full
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matmul::block::serial_matmul;
    use hetsim::{ClusterBuilder, Link, Protocol};
    use mpisim::Universe;
    use std::sync::Arc;

    fn uniform_cluster(n: usize) -> Arc<hetsim::Cluster> {
        let mut b = ClusterBuilder::new();
        for i in 0..n {
            b = b.node(format!("h{i}"), 100.0);
        }
        Arc::new(b.all_to_all(Link::new(1e-4, 1e7, Protocol::Tcp)).build())
    }

    fn check_against_serial(dist: GeneralizedBlockDist, n: usize, r: usize) {
        let m = dist.m;
        let u = Universe::new(uniform_cluster(m * m));
        let report = u.run(move |proc| {
            let world = proc.world();
            let mut mm = DistributedMatmul::new(dist.clone(), n, r, world.rank(), 5, 11);
            mm.run(&world).unwrap();
            mm.gather_c(&world).unwrap()
        });
        let a = BlockMatrix::deterministic(n, r, 5);
        let b = BlockMatrix::deterministic(n, r, 11);
        let want = serial_matmul(&a, &b);
        let got = report.results[0].as_ref().unwrap();
        for (x, y) in got.data().iter().zip(want.data()) {
            assert_eq!(x.to_bits(), y.to_bits(), "{x} vs {y}");
        }
    }

    #[test]
    fn homogeneous_distribution_matches_serial() {
        check_against_serial(GeneralizedBlockDist::homogeneous(2, 4), 8, 3);
    }

    #[test]
    fn heterogeneous_distribution_matches_serial() {
        let speeds = vec![46.0, 176.0, 106.0, 9.0];
        check_against_serial(GeneralizedBlockDist::heterogeneous(2, 6, &speeds), 12, 2);
    }

    #[test]
    fn heterogeneous_3x3_matches_serial() {
        let speeds = vec![46.0, 46.0, 46.0, 46.0, 46.0, 46.0, 176.0, 106.0, 9.0];
        check_against_serial(GeneralizedBlockDist::heterogeneous(3, 6, &speeds), 6, 2);
    }

    #[test]
    fn non_dividing_generalised_block_still_correct() {
        // l = 5 does not divide n = 8: partial generalised blocks at the
        // edges must still multiply correctly.
        let speeds = vec![100.0, 50.0, 25.0, 10.0];
        check_against_serial(GeneralizedBlockDist::heterogeneous(2, 5, &speeds), 8, 2);
    }

    #[test]
    fn every_generalised_block_size_is_bit_exact() {
        // The paper's MM speeds, every l in m..=n, ragged tails included.
        let speeds = [46.0, 46.0, 46.0, 46.0, 46.0, 46.0, 176.0, 106.0, 9.0];
        for (n, r) in [(9, 3), (18, 2)] {
            for l in 3..=n {
                check_against_serial(GeneralizedBlockDist::heterogeneous(3, l, &speeds), n, r);
            }
        }
    }

    #[test]
    fn owned_blocks_sum_to_n_squared() {
        let speeds = vec![46.0, 46.0, 46.0, 46.0, 46.0, 46.0, 176.0, 106.0, 9.0];
        let dist = GeneralizedBlockDist::heterogeneous(3, 9, &speeds);
        let n = 9;
        let total: usize = (0..9)
            .map(|rank| DistributedMatmul::new(dist.clone(), n, 2, rank, 1, 2).owned_blocks())
            .sum();
        assert_eq!(total, n * n);
    }

    #[test]
    fn heterogeneous_balances_virtual_time() {
        // With the distribution matched to the speeds, per-step compute time
        // should be nearly equal across ranks; with homogeneous it is not.
        let speeds = vec![100.0, 100.0, 100.0, 10.0];
        let cluster = Arc::new(
            ClusterBuilder::new()
                .node("a", 100.0)
                .node("b", 100.0)
                .node("c", 100.0)
                .node("d", 10.0)
                .all_to_all(Link::new(1e-5, 1e9, Protocol::Tcp))
                .build(),
        );
        let n = 8;
        let run = |dist: GeneralizedBlockDist| {
            let u = Universe::new(cluster.clone());
            let report = u.run(move |proc| {
                let world = proc.world();
                let mut mm = DistributedMatmul::new(dist.clone(), n, 2, world.rank(), 1, 2);
                mm.run(&world).unwrap();
                world.barrier().unwrap();
                world.clock().now().as_secs()
            });
            report.makespan.as_secs()
        };
        let hom = run(GeneralizedBlockDist::homogeneous(2, 8));
        let het = run(GeneralizedBlockDist::heterogeneous(2, 8, &speeds));
        assert!(
            het < hom,
            "heterogeneous ({het}) must beat homogeneous ({hom})"
        );
    }
}
