//! The heterogeneous generalised-block distribution (paper reference \[6\]).
//!
//! "Each matrix is partitioned into generalized blocks of the same size
//! (l×r)×(l×r), where m ≤ l ≤ n. The generalized blocks are identically
//! partitioned into m² rectangles, each being assigned to a different
//! processor. The area of each rectangle is proportional to the speed of the
//! processor": first the `l × l` square is cut into `m` vertical slices with
//! areas proportional to the column speed sums, then each vertical slice is
//! cut independently into `m` horizontal slices proportional to the
//! individual processor speeds.

/// Partitions `total` into `weights.len()` non-negative integers summing to
/// `total`, proportional to `weights`, each at least 1 (largest-remainder
/// method).
///
/// # Panics
/// Panics if `total < weights.len()` or all weights are zero/negative.
pub fn proportional_partition(total: usize, weights: &[f64]) -> Vec<usize> {
    let k = weights.len();
    assert!(k >= 1);
    assert!(
        total >= k,
        "cannot give each of {k} parts at least 1 out of {total}"
    );
    let sum: f64 = weights.iter().sum();
    assert!(sum > 0.0, "weights must have positive sum");

    // Start from the floor of the proportional share, but at least 1.
    let spare = total - k; // amount distributable above the per-part minimum
    let shares: Vec<f64> = weights.iter().map(|w| spare as f64 * w / sum).collect();
    let mut parts: Vec<usize> = shares.iter().map(|s| 1 + s.floor() as usize).collect();
    let assigned: usize = parts.iter().sum();
    let mut remaining = total - assigned;

    // Largest fractional remainders get the leftovers.
    let mut order: Vec<usize> = (0..k).collect();
    order.sort_by(|&a, &b| {
        let fa = shares[a] - shares[a].floor();
        let fb = shares[b] - shares[b].floor();
        fb.total_cmp(&fa).then(a.cmp(&b))
    });
    for &i in order.iter().cycle().take(remaining.min(k * 2)) {
        if remaining == 0 {
            break;
        }
        parts[i] += 1;
        remaining -= 1;
    }
    debug_assert_eq!(parts.iter().sum::<usize>(), total);
    parts
}

/// A generalised-block data distribution over an `m × m` processor grid.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GeneralizedBlockDist {
    /// Grid side.
    pub m: usize,
    /// Generalised block side, in `r × r` blocks.
    pub l: usize,
    /// Vertical slice widths `w[J]`, summing to `l`.
    pub w: Vec<usize>,
    /// Horizontal slice heights per column: `heights[J][I]`, each column
    /// summing to `l`.
    pub heights: Vec<Vec<usize>>,
}

impl GeneralizedBlockDist {
    /// The heterogeneous distribution: rectangle areas proportional to
    /// processor speeds. `speeds[I * m + J]` is the speed of grid processor
    /// `(I, J)`.
    ///
    /// # Panics
    /// Panics if `l < m` or the speed vector has the wrong length.
    pub fn heterogeneous(m: usize, l: usize, speeds: &[f64]) -> Self {
        assert!(m >= 1 && l >= m, "the paper requires m <= l");
        assert_eq!(speeds.len(), m * m);
        // Column slice areas proportional to column speed sums.
        let col_speed: Vec<f64> = (0..m)
            .map(|j| (0..m).map(|i| speeds[i * m + j]).sum())
            .collect();
        let w = proportional_partition(l, &col_speed);
        // Rows within each column proportional to the individual speeds.
        let heights = (0..m)
            .map(|j| {
                let col: Vec<f64> = (0..m).map(|i| speeds[i * m + j]).collect();
                proportional_partition(l, &col)
            })
            .collect();
        GeneralizedBlockDist { m, l, w, heights }
    }

    /// The homogeneous (standard ScaLAPACK block-cyclic) distribution:
    /// equal rectangles.
    ///
    /// # Panics
    /// Panics if `l < m` or `m` does not divide `l`.
    pub fn homogeneous(m: usize, l: usize) -> Self {
        assert!(m >= 1 && l >= m, "the paper requires m <= l");
        assert!(l.is_multiple_of(m), "homogeneous distribution needs m | l");
        GeneralizedBlockDist {
            m,
            l,
            w: vec![l / m; m],
            heights: vec![vec![l / m; m]; m],
        }
    }

    /// Grid column owning column `c` of a generalised block (`0 <= c < l`).
    ///
    /// # Panics
    /// Panics if `c >= l`.
    pub fn col_slice(&self, c: usize) -> usize {
        assert!(c < self.l);
        let mut acc = 0;
        for (j, &wj) in self.w.iter().enumerate() {
            acc += wj;
            if c < acc {
                return j;
            }
        }
        unreachable!("widths sum to l")
    }

    /// Grid row owning row `rrow` of a generalised block, within grid
    /// column `j`.
    ///
    /// # Panics
    /// Panics if `rrow >= l`.
    pub fn row_slice(&self, rrow: usize, j: usize) -> usize {
        assert!(rrow < self.l);
        let mut acc = 0;
        for (i, &h) in self.heights[j].iter().enumerate() {
            acc += h;
            if rrow < acc {
                return i;
            }
        }
        unreachable!("heights sum to l")
    }

    /// Owner `(I, J)` of matrix block `(i, j)` (block coordinates).
    pub fn owner_of_block(&self, i: usize, j: usize) -> (usize, usize) {
        let jj = self.col_slice(j % self.l);
        let ii = self.row_slice(i % self.l, jj);
        (ii, jj)
    }

    /// Row range `[start, end)` of rectangle `(I, J)` within a generalised
    /// block.
    pub fn row_range(&self, i: usize, j: usize) -> (usize, usize) {
        let start: usize = self.heights[j][..i].iter().sum();
        (start, start + self.heights[j][i])
    }

    /// The paper's `h[I][J][K][L]` parameter: the height of the rectangle
    /// area of `R_IJ` required by processor `P_KL` — the overlap of the two
    /// rectangles' row ranges. Flattened row-major `m⁴` for the model.
    pub fn h_array(&self) -> Vec<i64> {
        let m = self.m;
        let mut h = vec![0i64; m * m * m * m];
        for i in 0..m {
            for j in 0..m {
                let (s1, e1) = self.row_range(i, j);
                for k in 0..m {
                    for l in 0..m {
                        let (s2, e2) = self.row_range(k, l);
                        let overlap = e1.min(e2).saturating_sub(s1.max(s2));
                        h[((i * m + j) * m + k) * m + l] = overlap as i64;
                    }
                }
            }
        }
        h
    }

    /// The `w` parameter as `i64` for the model.
    pub fn w_array(&self) -> Vec<i64> {
        self.w.iter().map(|&x| x as i64).collect()
    }

    /// Rectangle area (in blocks) of processor `(I, J)` per generalised
    /// block — proportional to its share of the work.
    pub fn area(&self, i: usize, j: usize) -> usize {
        self.w[j] * self.heights[j][i]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proportional_partition_sums_and_minimum() {
        let p = proportional_partition(10, &[1.0, 1.0, 8.0]);
        assert_eq!(p.iter().sum::<usize>(), 10);
        assert!(p.iter().all(|&x| x >= 1));
        assert!(p[2] > p[0]);
    }

    #[test]
    fn proportional_partition_equal_weights() {
        assert_eq!(proportional_partition(9, &[1.0, 1.0, 1.0]), vec![3, 3, 3]);
    }

    #[test]
    fn proportional_partition_tiny_weight_still_gets_one() {
        let p = proportional_partition(6, &[1e-9, 1.0, 1.0]);
        assert_eq!(p.iter().sum::<usize>(), 6);
        assert_eq!(p[0], 1);
    }

    #[test]
    #[should_panic]
    fn proportional_partition_rejects_too_small_total() {
        proportional_partition(2, &[1.0, 1.0, 1.0]);
    }

    #[test]
    fn homogeneous_is_equal_split() {
        let d = GeneralizedBlockDist::homogeneous(3, 9);
        assert_eq!(d.w, vec![3, 3, 3]);
        for j in 0..3 {
            assert_eq!(d.heights[j], vec![3, 3, 3]);
        }
        assert_eq!(d.owner_of_block(4, 7), (1, 2));
        // Cyclic repetition beyond one generalised block.
        assert_eq!(d.owner_of_block(13, 16), (1, 2));
    }

    fn paper_speeds() -> Vec<f64> {
        // 3x3 grid from the paper LAN: rows of [46,46,46 / 46,46,46 /
        // 176,106,9].
        vec![46.0, 46.0, 46.0, 46.0, 46.0, 46.0, 176.0, 106.0, 9.0]
    }

    #[test]
    fn heterogeneous_areas_track_speeds() {
        let d = GeneralizedBlockDist::heterogeneous(3, 9, &paper_speeds());
        assert_eq!(d.w.iter().sum::<usize>(), 9);
        for j in 0..3 {
            assert_eq!(d.heights[j].iter().sum::<usize>(), 9);
        }
        // Column 0 (total 268) gets the widest slice; column 2 (101) the
        // narrowest.
        assert!(d.w[0] >= d.w[1]);
        assert!(d.w[1] >= d.w[2]);
        // Within column 0, the 176-speed processor (grid row 2) gets the
        // tallest slice.
        assert!(d.heights[0][2] >= d.heights[0][0]);
        // Area of the fastest processor exceeds the slowest's.
        assert!(d.area(2, 0) > d.area(2, 2));
    }

    #[test]
    fn every_block_has_exactly_one_owner() {
        let d = GeneralizedBlockDist::heterogeneous(3, 9, &paper_speeds());
        let mut counts = [0usize; 9];
        for i in 0..9 {
            for j in 0..9 {
                let (gi, gj) = d.owner_of_block(i, j);
                counts[gi * 3 + gj] += 1;
            }
        }
        assert_eq!(counts.iter().sum::<usize>(), 81);
        // Each processor's count equals its rectangle area.
        for gi in 0..3 {
            for gj in 0..3 {
                assert_eq!(counts[gi * 3 + gj], d.area(gi, gj));
            }
        }
    }

    #[test]
    fn h_array_properties() {
        let d = GeneralizedBlockDist::heterogeneous(3, 9, &paper_speeds());
        let m = 3;
        let h = d.h_array();
        let at = |i: usize, j: usize, k: usize, l: usize| h[((i * m + j) * m + k) * m + l];
        for i in 0..m {
            for j in 0..m {
                // Diagonal: h[I][J][I][J] is the rectangle's own height.
                assert_eq!(at(i, j, i, j) as usize, d.heights[j][i]);
                for k in 0..m {
                    for l in 0..m {
                        // Symmetry promised by the paper.
                        assert_eq!(at(i, j, k, l), at(k, l, i, j));
                        assert!(at(i, j, k, l) >= 0);
                    }
                }
            }
        }
    }

    #[test]
    fn row_and_col_slices_cover_block() {
        let d = GeneralizedBlockDist::heterogeneous(3, 12, &paper_speeds());
        for c in 0..12 {
            assert!(d.col_slice(c) < 3);
        }
        for rr in 0..12 {
            for j in 0..3 {
                assert!(d.row_slice(rr, j) < 3);
            }
        }
    }

    #[test]
    fn homogeneous_equals_heterogeneous_with_equal_speeds() {
        let hom = GeneralizedBlockDist::homogeneous(2, 6);
        let het = GeneralizedBlockDist::heterogeneous(2, 6, &[1.0; 4]);
        assert_eq!(hom, het);
    }
}
