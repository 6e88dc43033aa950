//! Errors of the model-language pipeline.

use std::fmt;

/// A lexing or parsing failure, with 1-based line/column of the offending
/// token.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// What went wrong.
    pub message: String,
    /// 1-based source line.
    pub line: usize,
    /// 1-based source column.
    pub col: usize,
}

impl ParseError {
    /// Creates an error pinned to a source position.
    pub fn new(message: impl Into<String>, line: usize, col: usize) -> Self {
        ParseError {
            message: message.into(),
            line,
            col,
        }
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at {}:{}: {}", self.line, self.col, self.message)
    }
}

impl std::error::Error for ParseError {}

/// A runtime failure while evaluating model expressions or interpreting a
/// scheme. Every variant depends on parameter values: a name or kind error
/// is a [`ParseError`] when the model is compiled.
#[derive(Debug, Clone, PartialEq)]
pub enum EvalError {
    /// Array subscript out of bounds.
    IndexOutOfBounds {
        /// The array or parameter name.
        name: String,
        /// The offending flat index.
        index: i64,
        /// The dimension's extent.
        extent: usize,
    },
    /// Division or modulo by zero in an integer context.
    DivisionByZero,
    /// Integer arithmetic left the 64-bit range (`i64::MIN / -1`, a
    /// product or sum too large, ...).
    Overflow,
    /// Wrong number or shape of model parameters at instantiation.
    BadParameters(String),
    /// An extern function rejected its arguments' values.
    ExternError {
        /// Function name.
        name: String,
        /// Its complaint.
        message: String,
    },
    /// An activity referenced an abstract processor outside the coordinate
    /// space.
    BadProcessor(String),
    /// A scheme loop exceeded the iteration safety cap (runaway model).
    IterationLimit(u64),
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalError::IndexOutOfBounds {
                name,
                index,
                extent,
            } => write!(f, "index {index} out of bounds for `{name}` (extent {extent})"),
            EvalError::DivisionByZero => write!(f, "integer division by zero"),
            EvalError::Overflow => write!(f, "integer arithmetic overflowed 64 bits"),
            EvalError::BadParameters(m) => write!(f, "bad model parameters: {m}"),
            EvalError::ExternError { name, message } => {
                write!(f, "extern function `{name}`: {message}")
            }
            EvalError::BadProcessor(m) => write!(f, "bad abstract processor: {m}"),
            EvalError::IterationLimit(n) => {
                write!(f, "scheme exceeded the {n}-iteration safety cap")
            }
        }
    }
}

impl std::error::Error for EvalError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_contains_position() {
        let e = ParseError::new("unexpected `}`", 3, 14);
        assert!(e.to_string().contains("3:14"));
    }

    #[test]
    fn eval_errors_display() {
        let bad = EvalError::BadProcessor("coordinate 9 outside 0..4".into());
        assert!(bad.to_string().contains("0..4"));
        assert!(EvalError::IndexOutOfBounds {
            name: "d".into(),
            index: 9,
            extent: 4
        }
        .to_string()
        .contains("extent 4"));
    }
}
