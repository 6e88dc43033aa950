//! Compiled performance models.
//!
//! "A compiler compiles the description of this performance model to
//! generate a set of functions. The functions make up an algorithm-specific
//! part of the HMPI runtime system." — [`CompiledModel`] is the compiled
//! artefact; binding actual parameters ([`CompiledModel::instantiate`],
//! mirroring `HMPI_Pack_model_parameters`) yields a [`ModelInstance`] whose
//! [`PerformanceModel`] methods are exactly those generated functions:
//! per-processor computation volumes, pairwise communication volumes, the
//! parent, and the replayable interaction scheme.

use crate::ast::{AlgorithmDef, Program};
use crate::compile::{CostModel, CostProgram, PriceScratch};
use crate::env::Env;
use crate::error::{EvalError, ParseError};
use crate::eval::{eval_int, eval_num};
use crate::parser::parse_program;
use crate::scheme::{run_scheme, SchemeSink};
use crate::value::{ArrayVal, Value};
use std::collections::HashMap;
use std::sync::Arc;

/// An actual parameter supplied at instantiation.
#[derive(Debug, Clone, PartialEq)]
pub enum ParamValue {
    /// A scalar `int` parameter.
    Int(i64),
    /// A (possibly multi-dimensional) `int` array parameter, flattened
    /// row-major; the declared dimensions are checked at binding time.
    Array(Vec<i64>),
}

impl From<i64> for ParamValue {
    fn from(v: i64) -> Self {
        ParamValue::Int(v)
    }
}

impl From<Vec<i64>> for ParamValue {
    fn from(v: Vec<i64>) -> Self {
        ParamValue::Array(v)
    }
}

/// The generated functions every performance model exposes. Model source
/// compiled with [`CompiledModel`] and instantiated is the one front end
/// ([`ModelInstance`]); the trait is the seam callers price through, and
/// where tests substitute hand-written models.
pub trait PerformanceModel: Send + Sync {
    /// Model name (for diagnostics).
    fn name(&self) -> &str;
    /// Number of abstract processors (the product of coordinate extents).
    fn num_processors(&self) -> usize;
    /// Total computation volume of each abstract processor, in benchmark
    /// units, indexed linearly.
    fn volumes(&self) -> &[f64];
    /// Total bytes transferred between each ordered pair of abstract
    /// processors.
    fn comm_bytes(&self) -> &[Vec<f64>];
    /// Linear index of the parent processor.
    fn parent(&self) -> usize;
    /// Replays the interaction pattern into `sink`.
    ///
    /// # Errors
    /// Propagates evaluation errors from the scheme body.
    fn run_scheme(&self, sink: &mut dyn SchemeSink) -> Result<(), EvalError>;

    /// Predicted execution time against a cost model: records the scheme
    /// into a [`CostProgram`] and prices it, returning the makespan in
    /// seconds.
    ///
    /// # Errors
    /// As [`PerformanceModel::run_scheme`].
    ///
    /// # Panics
    /// Panics if `cost` does not give a speed for every processor.
    fn predict_time(&self, cost: &CostModel) -> Result<f64, EvalError> {
        let n = self.num_processors();
        assert_eq!(cost.speeds.len(), n, "cost model covers every processor");
        Ok(CostProgram::record(self)?.price(cost, &mut PriceScratch::new(n)))
    }
}

/// A compiled (parsed and checked) model definition, ready to be
/// instantiated with actual parameters any number of times.
///
/// ```
/// use perfmodel::{CompiledModel, CostModel, ParamValue, PerformanceModel};
///
/// let model = CompiledModel::compile(r"
///     algorithm Jobs(int p, int work[p]) {
///         coord I=p;
///         node {I>=0: bench*(work[I]);};
///         parent[0];
///         scheme {
///             int i;
///             par (i = 0; i < p; i++) 100%%[i];
///         };
///     }
/// ").unwrap();
/// let inst = model
///     .instantiate(&[ParamValue::Int(2), ParamValue::Array(vec![30, 60])])
///     .unwrap();
/// assert_eq!(inst.volumes(), &[30.0, 60.0]);
/// // Two processors of speed 30: the 60-unit one paces the program.
/// let t = inst
///     .predict_time(&CostModel::homogeneous(2, 30.0, 0.0, 1e9))
///     .unwrap();
/// assert!((t - 2.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone)]
pub struct CompiledModel {
    algorithm: Arc<AlgorithmDef>,
    structs: Arc<HashMap<String, Vec<String>>>,
}

impl CompiledModel {
    /// Compiles the first `algorithm` in `src`. Its one extern function is
    /// Figure 7's `GetProcessor`.
    ///
    /// # Errors
    /// [`ParseError`] on syntax errors or if no algorithm is present.
    pub fn compile(src: &str) -> Result<CompiledModel, ParseError> {
        Self::compile_named(src, None)
    }

    /// Compiles the algorithm called `name` from `src` (a file may define
    /// several).
    ///
    /// # Errors
    /// [`ParseError`] if the algorithm is missing.
    pub fn compile_named(src: &str, name: Option<&str>) -> Result<CompiledModel, ParseError> {
        Self::from_program(parse_program(src)?, name)
    }

    /// Compiles the algorithm called `name` (the first one, with `None`)
    /// from an already parsed program.
    ///
    /// # Errors
    /// [`ParseError`] if the algorithm is missing.
    pub fn from_program(program: Program, name: Option<&str>) -> Result<CompiledModel, ParseError> {
        let structs: HashMap<String, Vec<String>> = program
            .typedefs
            .iter()
            .map(|t| (t.name.clone(), t.fields.clone()))
            .collect();
        let algorithm = match name {
            None => program
                .algorithms
                .into_iter()
                .next()
                .ok_or_else(|| ParseError::new("source defines no algorithm", 1, 1))?,
            Some(n) => program
                .algorithms
                .into_iter()
                .find(|a| a.name == n)
                .ok_or_else(|| ParseError::new(format!("no algorithm named `{n}`"), 1, 1))?,
        };
        Ok(CompiledModel {
            algorithm: Arc::new(algorithm),
            structs: Arc::new(structs),
        })
    }

    /// The model's name.
    pub fn name(&self) -> &str {
        &self.algorithm.name
    }

    /// Formal parameter names, in order.
    pub fn param_names(&self) -> Vec<&str> {
        self.algorithm.params.iter().map(|p| p.name.as_str()).collect()
    }

    /// Binds actual parameters, evaluates the `coord`, `node`, `link` and
    /// `parent` sections, and returns the instance.
    ///
    /// # Errors
    /// [`EvalError::BadParameters`] on arity/shape mismatches; other
    /// [`EvalError`]s from section evaluation.
    pub fn instantiate(&self, params: &[ParamValue]) -> Result<ModelInstance, EvalError> {
        let alg = &self.algorithm;
        if params.len() != alg.params.len() {
            return Err(EvalError::BadParameters(format!(
                "model `{}` takes {} parameters, got {}",
                alg.name,
                alg.params.len(),
                params.len()
            )));
        }

        // Bind parameters left-to-right; array dims may reference earlier
        // parameters (e.g. `int d[p]` after `int p`).
        let mut env = Env::new();
        let mut bindings: Vec<(String, Value)> = Vec::with_capacity(params.len());
        for (decl, actual) in alg.params.iter().zip(params) {
            let value = match (&decl.dims.is_empty(), actual) {
                (true, ParamValue::Int(v)) => Value::Int(*v),
                (false, ParamValue::Array(data)) => {
                    let mut dims = Vec::with_capacity(decl.dims.len());
                    for d in &decl.dims {
                        let extent = eval_int(&env, d)?;
                        if extent <= 0 {
                            return Err(EvalError::BadParameters(format!(
                                "dimension of `{}` evaluated to {extent}",
                                decl.name
                            )));
                        }
                        dims.push(extent as usize);
                    }
                    Value::Array(ArrayVal::new(dims, data.clone())?)
                }
                (true, ParamValue::Array(_)) => {
                    return Err(EvalError::BadParameters(format!(
                        "parameter `{}` is scalar but an array was supplied",
                        decl.name
                    )))
                }
                (false, ParamValue::Int(_)) => {
                    return Err(EvalError::BadParameters(format!(
                        "parameter `{}` is an array but a scalar was supplied",
                        decl.name
                    )))
                }
            };
            env.declare(decl.name.clone(), value.clone());
            bindings.push((decl.name.clone(), value));
        }

        // Coordinate space.
        let mut extents = Vec::with_capacity(alg.coords.len());
        for (cname, e) in &alg.coords {
            let extent = eval_int(&env, e)?;
            if extent <= 0 {
                return Err(EvalError::BadParameters(format!(
                    "coordinate `{cname}` has non-positive extent {extent}"
                )));
            }
            extents.push(extent as usize);
        }
        let n: usize = extents.iter().product();

        // Node volumes: for each processor, the first matching rule.
        let mut volumes = vec![0.0f64; n];
        for (linear, vol) in volumes.iter_mut().enumerate() {
            env.push();
            bind_coords(&mut env, &alg.coords, &extents, linear);
            for rule in &alg.node_rules {
                if eval_int(&env, &rule.guard)? != 0 {
                    *vol = eval_num(&env, &rule.volume)?;
                    break;
                }
            }
            env.pop();
        }

        // Link volumes: iterate the coordinate space x the binder space.
        let mut comm = vec![vec![0.0f64; n]; n];
        let binder_extents: Vec<usize> = {
            let mut v = Vec::with_capacity(alg.link_binders.len());
            for (bname, e) in &alg.link_binders {
                let extent = eval_int(&env, e)?;
                if extent <= 0 {
                    return Err(EvalError::BadParameters(format!(
                        "link binder `{bname}` has non-positive extent {extent}"
                    )));
                }
                v.push(extent as usize);
            }
            v
        };
        let binder_total: usize = binder_extents.iter().product::<usize>().max(1);
        for linear in 0..n {
            for bflat in 0..binder_total {
                env.push();
                bind_coords(&mut env, &alg.coords, &extents, linear);
                // Unflatten the binder tuple (row-major like coordinates).
                let mut rem = bflat;
                for (i, (bname, _)) in alg.link_binders.iter().enumerate().rev() {
                    let extent = binder_extents[i];
                    env.declare(bname.clone(), Value::Int((rem % extent) as i64));
                    rem /= extent;
                }
                for rule in &alg.link_rules {
                    if eval_int(&env, &rule.guard)? != 0 {
                        let src = linearise(&env, &rule.src, &extents)?;
                        let dst = linearise(&env, &rule.dst, &extents)?;
                        let vol = eval_num(&env, &rule.volume)?;
                        // Link rules *define* pair volumes (a rule not
                        // mentioning some binder matches once per binding of
                        // it); assignment rather than accumulation keeps
                        // those duplicates harmless.
                        comm[src][dst] = vol;
                    }
                }
                env.pop();
            }
        }

        // Parent.
        let parent = if alg.parent.is_empty() {
            0
        } else {
            linearise(&env, &alg.parent, &extents)?
        };

        Ok(ModelInstance {
            name: alg.name.clone(),
            algorithm: self.algorithm.clone(),
            structs: self.structs.clone(),
            bindings,
            extents,
            volumes,
            comm,
            parent,
        })
    }
}

fn bind_coords(env: &mut Env, coords: &[(String, crate::ast::Expr)], extents: &[usize], linear: usize) {
    let mut rem = linear;
    let mut vals = vec![0i64; coords.len()];
    for i in (0..coords.len()).rev() {
        vals[i] = (rem % extents[i]) as i64;
        rem /= extents[i];
    }
    for ((name, _), v) in coords.iter().zip(vals) {
        env.declare(name.clone(), Value::Int(v));
    }
}

fn linearise(
    env: &Env,
    coords: &[crate::ast::Expr],
    extents: &[usize],
) -> Result<usize, EvalError> {
    if coords.len() != extents.len() {
        return Err(EvalError::BadProcessor(format!(
            "{} coordinates given, {} expected",
            coords.len(),
            extents.len()
        )));
    }
    let mut linear = 0usize;
    for (e, &extent) in coords.iter().zip(extents) {
        let c = eval_int(env, e)?;
        if c < 0 || c as usize >= extent {
            return Err(EvalError::BadProcessor(format!(
                "coordinate {c} outside 0..{extent}"
            )));
        }
        linear = linear * extent + c as usize;
    }
    Ok(linear)
}

/// A model with bound parameters — the algorithm-specific part of the HMPI
/// runtime system.
#[derive(Debug, Clone)]
pub struct ModelInstance {
    name: String,
    algorithm: Arc<AlgorithmDef>,
    structs: Arc<HashMap<String, Vec<String>>>,
    bindings: Vec<(String, Value)>,
    extents: Vec<usize>,
    volumes: Vec<f64>,
    comm: Vec<Vec<f64>>,
    parent: usize,
}

impl ModelInstance {
    /// The coordinate extents (e.g. `[p]` or `[m, m]`).
    pub fn extents(&self) -> &[usize] {
        &self.extents
    }
}

impl PerformanceModel for ModelInstance {
    fn name(&self) -> &str {
        &self.name
    }

    fn num_processors(&self) -> usize {
        self.volumes.len()
    }

    fn volumes(&self) -> &[f64] {
        &self.volumes
    }

    fn comm_bytes(&self) -> &[Vec<f64>] {
        &self.comm
    }

    fn parent(&self) -> usize {
        self.parent
    }

    fn run_scheme(&self, sink: &mut dyn SchemeSink) -> Result<(), EvalError> {
        let mut env = Env::new();
        for (name, value) in &self.bindings {
            env.declare(name.clone(), value.clone());
        }
        // Coordinate variables are in scope (initialised to 0) so schemes may
        // reuse them as loop variables.
        for (cname, _) in &self.algorithm.coords {
            env.declare(cname.clone(), Value::Int(0));
        }
        if self.algorithm.scheme.is_empty() {
            // Default pattern: all transfers in parallel, then all
            // computations in parallel (one step of a bulk-synchronous
            // algorithm).
            sink.par_begin();
            for s in 0..self.num_processors() {
                for d in 0..self.num_processors() {
                    if s != d && self.comm[s][d] > 0.0 {
                        sink.transfer(s, d, 100.0);
                    }
                }
                sink.par_branch();
            }
            sink.par_end();
            sink.par_begin();
            for p in 0..self.num_processors() {
                sink.compute(p, 100.0);
                sink.par_branch();
            }
            sink.par_end();
            return Ok(());
        }
        run_scheme(
            &self.algorithm.scheme,
            &mut env,
            &self.structs,
            &self.extents,
            sink,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheme::RecordingSink;

    const EM3D_LIKE: &str = r"
        algorithm Em3d(int p, int k, int d[p], int dep[p][p]) {
            coord I=p;
            node {I>=0: bench*(d[I]/k);};
            link (L=p) {
                I>=0 && I!=L && (dep[I][L] > 0) :
                    length*(dep[I][L]*sizeof(double)) [L]->[I];
            };
            parent[0];
            scheme {
                int current, owner, remote;
                par (owner = 0; owner < p; owner++)
                    par (remote = 0; remote < p; remote++)
                        if ((owner != remote) && (dep[owner][remote] > 0))
                            100%%[remote]->[owner];
                par (current = 0; current < p; current++) 100%%[current];
            };
        }
    ";

    fn em3d_instance() -> ModelInstance {
        let model = CompiledModel::compile(EM3D_LIKE).unwrap();
        // p=3, k=10, d=[100, 200, 300], dep row-major 3x3.
        model
            .instantiate(&[
                ParamValue::Int(3),
                ParamValue::Int(10),
                ParamValue::Array(vec![100, 200, 300]),
                ParamValue::Array(vec![0, 5, 0, 5, 0, 7, 0, 7, 0]),
            ])
            .unwrap()
    }

    #[test]
    fn node_volumes_follow_d_over_k() {
        let inst = em3d_instance();
        assert_eq!(inst.num_processors(), 3);
        assert_eq!(inst.volumes(), &[10.0, 20.0, 30.0]);
        assert_eq!(inst.parent(), 0);
    }

    #[test]
    fn link_volumes_follow_dep_times_sizeof_double() {
        let inst = em3d_instance();
        let comm = inst.comm_bytes();
        // dep[I][L] counts values I needs from L; data flows L -> I.
        assert_eq!(comm[1][0], 40.0); // dep[0][1] = 5 doubles from 1 to 0
        assert_eq!(comm[0][1], 40.0); // dep[1][0] = 5
        assert_eq!(comm[2][1], 56.0); // dep[1][2] = 7
        assert_eq!(comm[1][2], 56.0); // dep[2][1] = 7
        assert_eq!(comm[0][2], 0.0);
        assert_eq!(comm[2][0], 0.0);
        assert_eq!(comm[0][0], 0.0);
    }

    #[test]
    fn scheme_replays_transfers_then_computes() {
        let inst = em3d_instance();
        let mut sink = RecordingSink::default();
        inst.run_scheme(&mut sink).unwrap();
        use crate::scheme::SchemeEvent as E;
        let transfers: Vec<_> = sink
            .events
            .iter()
            .filter_map(|e| match e {
                E::Transfer { src, dst, .. } => Some((*src, *dst)),
                _ => None,
            })
            .collect();
        assert_eq!(transfers, vec![(1, 0), (0, 1), (2, 1), (1, 2)]);
        let computes = sink
            .events
            .iter()
            .filter(|e| matches!(e, E::Compute { .. }))
            .count();
        assert_eq!(computes, 3);
    }

    #[test]
    fn predict_time_balances_by_speed() {
        let inst = em3d_instance();
        // Fast enough network that compute dominates: volumes 10/20/30 on
        // speeds 10/20/30 -> one second each, total 1 s.
        let cost = CostModel {
            speeds: vec![10.0, 20.0, 30.0],
            latency: vec![vec![0.0; 3]; 3],
            bandwidth: vec![vec![1e12; 3]; 3],
        };
        let t = inst.predict_time(&cost).unwrap();
        assert!((t - 1.0).abs() < 1e-9);

        // Same volumes on a uniform speed-10 machine: the 30-unit processor
        // dominates at 3 s.
        let cost = CostModel::homogeneous(3, 10.0, 0.0, 1e12);
        let t = inst.predict_time(&cost).unwrap();
        assert!((t - 3.0).abs() < 1e-9);
    }

    #[test]
    fn wrong_arity_and_shape_rejected() {
        let model = CompiledModel::compile(EM3D_LIKE).unwrap();
        assert!(matches!(
            model.instantiate(&[ParamValue::Int(3)]),
            Err(EvalError::BadParameters(_))
        ));
        assert!(matches!(
            model.instantiate(&[
                ParamValue::Int(3),
                ParamValue::Int(10),
                ParamValue::Array(vec![1, 2]), // wrong length for d[3]
                ParamValue::Array(vec![0; 9]),
            ]),
            Err(EvalError::BadParameters(_))
        ));
        assert!(matches!(
            model.instantiate(&[
                ParamValue::Int(3),
                ParamValue::Array(vec![1]), // scalar expected
                ParamValue::Array(vec![1, 2, 3]),
                ParamValue::Array(vec![0; 9]),
            ]),
            Err(EvalError::BadParameters(_))
        ));
    }

    #[test]
    fn two_dim_coordinate_space() {
        let src = r"
            algorithm Grid(int m, int work[m][m]) {
                coord I=m, J=m;
                node {I>=0 && J>=0: bench*(work[I][J]);};
                parent[0,0];
                scheme {;};
            }
        ";
        let model = CompiledModel::compile(src).unwrap();
        let inst = model
            .instantiate(&[
                ParamValue::Int(2),
                ParamValue::Array(vec![1, 2, 3, 4]),
            ])
            .unwrap();
        assert_eq!(inst.num_processors(), 4);
        assert_eq!(inst.volumes(), &[1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn integer_overflow_in_instantiation_is_a_typed_error() {
        // A coordinate extent and a node guard that leave i64: both used to
        // panic (or wrap, in release) inside `instantiate`.
        let extent = CompiledModel::compile(
            "algorithm E(int p) { coord I=p*p; node {I>=0: bench*(1);}; parent[0]; scheme {;}; }",
        )
        .unwrap();
        let huge = [ParamValue::Int(i64::MAX)];
        assert_eq!(extent.instantiate(&huge).unwrap_err(), EvalError::Overflow);
        let guard = CompiledModel::compile(
            "algorithm G(int p) { coord I=1; node {p/(0-1) != 0: bench*(1);}; parent[0]; scheme {;}; }",
        )
        .unwrap();
        let err = guard.instantiate(&[ParamValue::Int(i64::MIN)]).unwrap_err();
        assert_eq!(err, EvalError::Overflow);
        assert_eq!(err.to_string(), "integer arithmetic overflowed 64 bits");
        assert!(guard.instantiate(&[ParamValue::Int(7)]).is_ok());
    }

    #[test]
    fn compile_named_selects_algorithm() {
        let src = r"
            algorithm A(int p) { coord I=p; node {I>=0: bench*(1);}; parent[0]; scheme {;}; }
            algorithm B(int p) { coord I=p; node {I>=0: bench*(2);}; parent[0]; scheme {;}; }
        ";
        let m = CompiledModel::compile_named(src, Some("B")).unwrap();
        assert_eq!(m.name(), "B");
        assert!(CompiledModel::compile_named(src, Some("C")).is_err());
    }

    #[test]
    fn empty_scheme_uses_default_pattern() {
        let src = r"
            algorithm D(int p, int dep[p][p]) {
                coord I=p;
                node {I>=0: bench*(10);};
                link (L=p) {
                    I>=0 && I!=L && dep[I][L] > 0 :
                        length*(dep[I][L]) [L]->[I];
                };
                parent[0];
            }
        ";
        let model = CompiledModel::compile(src).unwrap();
        let inst = model
            .instantiate(&[ParamValue::Int(2), ParamValue::Array(vec![0, 8, 8, 0])])
            .unwrap();
        let mut sink = RecordingSink::default();
        inst.run_scheme(&mut sink).unwrap();
        use crate::scheme::SchemeEvent as E;
        assert!(sink.events.iter().any(|e| matches!(e, E::Transfer { .. })));
        assert_eq!(
            sink.events
                .iter()
                .filter(|e| matches!(e, E::Compute { .. }))
                .count(),
            2
        );
    }
}
