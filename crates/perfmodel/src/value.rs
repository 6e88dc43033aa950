//! Array parameters of the model language.

use crate::error::EvalError;
use std::sync::Arc;

/// The product of `extents`.
///
/// # Errors
/// [`EvalError::Overflow`] if it does not fit a `usize`.
pub(crate) fn product(extents: &[usize]) -> Result<usize, EvalError> {
    extents
        .iter()
        .try_fold(1usize, |acc, &x| acc.checked_mul(x))
        .ok_or(EvalError::Overflow)
}

/// A multi-dimensional integer array (model parameters like `int d[p]` or
/// `int h[m][m][m][m]`), stored flat in row-major order. Shared cheaply via
/// `Arc` — parameter arrays can be large and are read-only after binding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArrayVal {
    /// Extent of each dimension.
    pub dims: Vec<usize>,
    /// Row-major data; `data.len() == dims.iter().product()`.
    pub data: Arc<Vec<i64>>,
}

impl ArrayVal {
    /// Builds an array, checking the shape.
    ///
    /// # Errors
    /// [`EvalError::BadParameters`] if `data.len()` does not match the dims.
    pub fn new(dims: Vec<usize>, data: Vec<i64>) -> Result<Self, EvalError> {
        let expect = product(&dims)?;
        if data.len() != expect {
            return Err(EvalError::BadParameters(format!(
                "array data has {} elements but dims {:?} require {}",
                data.len(),
                dims,
                expect
            )));
        }
        Ok(ArrayVal {
            dims,
            data: Arc::new(data),
        })
    }

    /// Indexes with a full coordinate vector.
    ///
    /// # Errors
    /// [`EvalError::IndexOutOfBounds`] on any out-of-range coordinate.
    ///
    /// # Panics
    /// Panics on a wrong arity: lowering checks every rank (a lowering bug).
    pub(crate) fn get(&self, name: &str, idx: &[i64]) -> Result<i64, EvalError> {
        assert_eq!(idx.len(), self.dims.len(), "rank of `{name}`");
        let mut flat = 0usize;
        for (&i, &extent) in idx.iter().zip(&self.dims) {
            if i < 0 || i as usize >= extent {
                return Err(EvalError::IndexOutOfBounds {
                    name: name.to_string(),
                    index: i,
                    extent,
                });
            }
            flat = flat * extent + i as usize;
        }
        Ok(self.data[flat])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn array_shape_checked() {
        assert!(ArrayVal::new(vec![2, 3], vec![0; 6]).is_ok());
        assert!(ArrayVal::new(vec![2, 3], vec![0; 5]).is_err());
    }

    #[test]
    fn row_major_indexing() {
        let a = ArrayVal::new(vec![2, 3], (0..6).collect()).unwrap();
        assert_eq!(a.get("a", &[0, 0]).unwrap(), 0);
        assert_eq!(a.get("a", &[0, 2]).unwrap(), 2);
        assert_eq!(a.get("a", &[1, 0]).unwrap(), 3);
        assert_eq!(a.get("a", &[1, 2]).unwrap(), 5);
    }

    #[test]
    fn four_dimensional_indexing() {
        // h[m][m][m][m] with m=2: h[i][j][k][l] = 8i+4j+2k+l
        let a = ArrayVal::new(vec![2, 2, 2, 2], (0..16).collect()).unwrap();
        assert_eq!(a.get("h", &[1, 0, 1, 1]).unwrap(), 11);
    }

    #[test]
    fn bounds_and_arity_errors() {
        let a = ArrayVal::new(vec![2, 3], (0..6).collect()).unwrap();
        assert!(matches!(
            a.get("a", &[2, 0]),
            Err(EvalError::IndexOutOfBounds { .. })
        ));
        assert!(matches!(
            a.get("a", &[-1, 0]),
            Err(EvalError::IndexOutOfBounds { .. })
        ));
        let arity = std::panic::catch_unwind(|| a.get("a", &[0]));
        assert!(arity.is_err(), "a wrong arity is a lowering bug");
    }

    #[test]
    fn value_extractors() {
        // A value's kind is checked where the name is lowered: an integer
        // reads as an integer, an array is a compile error, and a struct's
        // field reads by name, an undeclared one a compile error.
        use crate::ast::{Expr, StructDef};
        use crate::eval::tests::{eval_int, Bindings};
        let b = Bindings::new(&[("x", 5)]).array("a", ArrayVal::new(vec![1], vec![0]).unwrap());
        assert_eq!(eval_int(&b, &Expr::Var("x".into())).unwrap(), 5);
        let err = b.lower(&Expr::Var("a".into())).unwrap_err();
        assert_eq!(
            err.message,
            "type error: expected int, found int array of rank 1"
        );
        let processor = [StructDef {
            name: "Processor".into(),
            fields: vec!["I".into()],
        }];
        let mut scope = crate::eval::Scope::new(&processor, 0);
        let (base, _) = scope.strukt("s", "Processor").unwrap();
        let i = Expr::Member(Box::new(Expr::Var("s".into())), "I".into());
        let frame = crate::eval::Frame::new(vec![1], &[], &[]);
        assert_eq!(frame.int(&scope.lower(&i).unwrap()).unwrap(), 1);
        let j = Expr::Member(Box::new(Expr::Var("s".into())), "J".into());
        let err = scope.lower(&j).unwrap_err();
        assert_eq!(err.message, "struct `Processor` has no field `J`");
        assert_eq!(base, 0);
    }
}
