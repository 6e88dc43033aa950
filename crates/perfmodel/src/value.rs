//! Runtime values of the model language.

use crate::error::EvalError;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

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
        let expect: usize = dims.iter().product();
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
    /// [`EvalError::IndexOutOfBounds`] on any out-of-range coordinate,
    /// [`EvalError::TypeError`] on wrong arity.
    pub fn get(&self, name: &str, idx: &[i64]) -> Result<i64, EvalError> {
        if idx.len() != self.dims.len() {
            return Err(EvalError::TypeError(format!(
                "`{name}` has rank {} but was indexed with {} subscripts",
                self.dims.len(),
                idx.len()
            )));
        }
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

/// A struct value (all fields are ints), e.g. the Figure 7 `Processor`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StructVal {
    /// Typedef name.
    pub type_name: String,
    /// Field values.
    pub fields: BTreeMap<String, i64>,
}

/// Any runtime value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// A 64-bit integer.
    Int(i64),
    /// An integer array.
    Array(ArrayVal),
    /// A struct of integer fields.
    Struct(StructVal),
}

impl Value {
    /// Extracts an integer.
    ///
    /// # Errors
    /// [`EvalError::TypeError`] otherwise.
    pub fn as_int(&self) -> Result<i64, EvalError> {
        match self {
            Value::Int(n) => Ok(*n),
            other => Err(EvalError::TypeError(format!(
                "expected int, found {other}"
            ))),
        }
    }

    /// Extracts an array.
    ///
    /// # Errors
    /// [`EvalError::TypeError`] otherwise.
    pub fn as_array(&self) -> Result<&ArrayVal, EvalError> {
        match self {
            Value::Array(a) => Ok(a),
            other => Err(EvalError::TypeError(format!(
                "expected array, found {other}"
            ))),
        }
    }

    /// Extracts a struct.
    ///
    /// # Errors
    /// [`EvalError::TypeError`] otherwise.
    pub fn as_struct(&self) -> Result<&StructVal, EvalError> {
        match self {
            Value::Struct(s) => Ok(s),
            other => Err(EvalError::TypeError(format!(
                "expected struct, found {other}"
            ))),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(n) => write!(f, "{n}"),
            Value::Array(a) => write!(f, "int[{:?}]", a.dims),
            Value::Struct(s) => write!(f, "{} {{..}}", s.type_name),
        }
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
        assert!(matches!(a.get("a", &[0]), Err(EvalError::TypeError(_))));
    }

    #[test]
    fn value_extractors() {
        assert_eq!(Value::Int(5).as_int().unwrap(), 5);
        assert!(Value::Int(5).as_array().is_err());
        let s = Value::Struct(StructVal {
            type_name: "Processor".into(),
            fields: [("I".to_string(), 1i64)].into_iter().collect(),
        });
        assert_eq!(s.as_struct().unwrap().fields["I"], 1);
    }
}
