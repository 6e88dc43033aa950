//! Reduction operations.

/// The predefined reduction operations (`MPI_SUM`, `MPI_PROD`, `MPI_MAX`,
/// `MPI_MIN`), plus logical and/or for `bool`-like uses over numeric types.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ReduceOp {
    /// Elementwise sum.
    Sum,
    /// Elementwise product.
    Prod,
    /// Elementwise maximum.
    Max,
    /// Elementwise minimum.
    Min,
}

impl ReduceOp {
    /// Applies the operation to two `f64` operands.
    #[inline]
    pub(crate) fn apply_f64(self, a: f64, b: f64) -> f64 {
        match self {
            ReduceOp::Sum => a + b,
            ReduceOp::Prod => a * b,
            ReduceOp::Max => a.max(b),
            ReduceOp::Min => a.min(b),
        }
    }

    /// Applies the operation to two `i64` operands.
    #[inline]
    pub(crate) fn apply_i64(self, a: i64, b: i64) -> i64 {
        match self {
            ReduceOp::Sum => a + b,
            ReduceOp::Prod => a * b,
            ReduceOp::Max => a.max(b),
            ReduceOp::Min => a.min(b),
        }
    }

    /// Combines two equal-length `f64` vectors elementwise, accumulating into
    /// `acc`.
    ///
    /// # Panics
    /// Panics if lengths differ (caller bugs, not wire conditions).
    pub fn fold_f64(self, acc: &mut [f64], rhs: &[f64]) {
        assert_eq!(acc.len(), rhs.len(), "reduction operands must match");
        for (a, b) in acc.iter_mut().zip(rhs) {
            *a = self.apply_f64(*a, *b);
        }
    }

    /// Combines two equal-length `i64` vectors elementwise, accumulating into
    /// `acc`.
    ///
    /// # Panics
    /// Panics if lengths differ.
    pub(crate) fn fold_i64(self, acc: &mut [i64], rhs: &[i64]) {
        assert_eq!(acc.len(), rhs.len(), "reduction operands must match");
        for (a, b) in acc.iter_mut().zip(rhs) {
            *a = self.apply_i64(*a, *b);
        }
    }

    /// The identity element for `f64` (the value `x` with `op(id, x) = x`).
    pub fn identity_f64(self) -> f64 {
        match self {
            ReduceOp::Sum => 0.0,
            ReduceOp::Prod => 1.0,
            ReduceOp::Max => f64::NEG_INFINITY,
            ReduceOp::Min => f64::INFINITY,
        }
    }

    /// The identity element for `i64`.
    pub(crate) fn identity_i64(self) -> i64 {
        match self {
            ReduceOp::Sum => 0,
            ReduceOp::Prod => 1,
            ReduceOp::Max => i64::MIN,
            ReduceOp::Min => i64::MAX,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_ops() {
        assert_eq!(ReduceOp::Sum.apply_f64(2.0, 3.0), 5.0);
        assert_eq!(ReduceOp::Prod.apply_f64(2.0, 3.0), 6.0);
        assert_eq!(ReduceOp::Max.apply_f64(2.0, 3.0), 3.0);
        assert_eq!(ReduceOp::Min.apply_i64(-2, 3), -2);
    }

    #[test]
    fn fold_elementwise() {
        let mut acc = vec![1.0, 2.0, 3.0];
        ReduceOp::Sum.fold_f64(&mut acc, &[10.0, 20.0, 30.0]);
        assert_eq!(acc, vec![11.0, 22.0, 33.0]);
    }

    #[test]
    fn identities_are_identities() {
        for op in [ReduceOp::Sum, ReduceOp::Prod, ReduceOp::Max, ReduceOp::Min] {
            assert_eq!(op.apply_f64(op.identity_f64(), 7.5), 7.5);
            assert_eq!(op.apply_i64(op.identity_i64(), -7), -7);
        }
    }

    #[test]
    #[should_panic]
    fn fold_length_mismatch_panics() {
        let mut acc = vec![1.0];
        ReduceOp::Sum.fold_f64(&mut acc, &[1.0, 2.0]);
    }
}
