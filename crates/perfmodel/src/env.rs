//! Lexically scoped variable environments for model evaluation.

use crate::error::EvalError;
use crate::value::Value;
use std::collections::HashMap;

/// A stack of scopes. Parameters and coordinate variables live in the
/// outermost scope; scheme blocks push and pop inner scopes.
#[derive(Debug, Default)]
pub struct Env {
    scopes: Vec<HashMap<String, Value>>,
}

impl Env {
    /// An environment with a single (global) scope.
    pub fn new() -> Self {
        Env {
            scopes: vec![HashMap::new()],
        }
    }

    /// Enters a nested scope.
    pub fn push(&mut self) {
        self.scopes.push(HashMap::new());
    }

    /// Leaves the innermost scope.
    ///
    /// # Panics
    /// Panics if only the global scope remains (interpreter bug).
    pub fn pop(&mut self) {
        assert!(self.scopes.len() > 1, "cannot pop the global scope");
        self.scopes.pop();
    }

    /// Declares a variable in the innermost scope (shadowing outer ones).
    pub fn declare(&mut self, name: impl Into<String>, value: Value) {
        self.scopes
            .last_mut()
            .expect("at least the global scope exists")
            .insert(name.into(), value);
    }

    /// Looks a name up, innermost scope first.
    ///
    /// # Errors
    /// [`EvalError::Undefined`] if not found.
    pub fn get(&self, name: &str) -> Result<&Value, EvalError> {
        self.scopes
            .iter()
            .rev()
            .find_map(|s| s.get(name))
            .ok_or_else(|| EvalError::Undefined(name.to_string()))
    }

    /// Mutable lookup, innermost scope first.
    ///
    /// # Errors
    /// [`EvalError::Undefined`] if not found.
    pub fn get_mut(&mut self, name: &str) -> Result<&mut Value, EvalError> {
        self.scopes
            .iter_mut()
            .rev()
            .find_map(|s| s.get_mut(name))
            .ok_or_else(|| EvalError::Undefined(name.to_string()))
    }

    /// Assigns to an existing variable (the innermost binding).
    ///
    /// # Errors
    /// [`EvalError::Undefined`] if the name was never declared.
    pub fn assign(&mut self, name: &str, value: Value) -> Result<(), EvalError> {
        *self.get_mut(name)? = value;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn declare_and_get() {
        let mut env = Env::new();
        env.declare("x", Value::Int(3));
        assert_eq!(env.get("x").unwrap().as_int().unwrap(), 3);
        assert!(env.get("y").is_err());
    }

    #[test]
    fn inner_scope_shadows_and_pops() {
        let mut env = Env::new();
        env.declare("x", Value::Int(1));
        env.push();
        env.declare("x", Value::Int(2));
        assert_eq!(env.get("x").unwrap().as_int().unwrap(), 2);
        env.pop();
        assert_eq!(env.get("x").unwrap().as_int().unwrap(), 1);
    }

    #[test]
    fn assign_updates_innermost_binding() {
        let mut env = Env::new();
        env.declare("x", Value::Int(1));
        env.push();
        env.assign("x", Value::Int(9)).unwrap();
        env.pop();
        assert_eq!(env.get("x").unwrap().as_int().unwrap(), 9);
    }

    #[test]
    fn assign_to_undeclared_fails() {
        let mut env = Env::new();
        assert!(env.assign("nope", Value::Int(0)).is_err());
    }

    #[test]
    #[should_panic]
    fn popping_global_scope_panics() {
        let mut env = Env::new();
        env.pop();
    }
}
