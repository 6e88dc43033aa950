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
//!
//! Compiling parses the source and *lowers* the algorithm once: every name
//! resolves to a slot of one flat `i64` frame (parameters, coordinates,
//! link binders and scheme locals, shadowed names in slots of their own,
//! struct variables one slot per field) or to an array parameter, and the
//! `coord`, `node`, `link`, `parent` and `scheme` sections become trees
//! over those slots. `instantiate` and `run_scheme` walk the lowered form
//! over a copy of the frame; nothing on either path looks a name up.

use crate::ast::{AlgorithmDef, Expr, Program, StructDef};
use crate::compile::{CostModel, CostProgram, PriceScratch};
use crate::error::{EvalError, ParseError};
use crate::eval::{Ex, Frame, Place, Scope};
use crate::parser::parse_program;
use crate::scheme::{Op, SchemeSink};
use crate::value::{product, ArrayVal};
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
    /// Replays the interaction pattern into `sink`. The `par` structure
    /// must balance: every `par_branch` and `par_end` falls inside a block
    /// opened by `par_begin`, and every block is closed before returning
    /// ([`CostProgram::record`] panics otherwise).
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
    /// Panics if `cost` does not give a speed for every processor, or if
    /// the scheme's `par` structure does not balance.
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
    lowered: Arc<Lowered>,
}

/// A model lowered to frame slots: what [`CompiledModel::compile`] builds
/// once and every instantiation and scheme replay walks.
#[derive(Debug)]
struct Lowered {
    name: String,
    /// Each formal parameter's name and binding, in order.
    params: Vec<(String, Param)>,
    /// Each coordinate's name, slot and extent.
    coords: Vec<(String, usize, Ex)>,
    /// `node` rules: guard and volume.
    nodes: Vec<(Ex, Ex)>,
    /// Each `link` binder's name, slot and extent.
    binders: Vec<(String, usize, Ex)>,
    /// `link` rules: guard, volume, source and destination.
    links: Vec<(Ex, Ex, Place, Place)>,
    /// The parent's coordinates (none, for a model without a `parent`
    /// section: processor 0).
    parent: Place,
    /// The scheme, or `None` for the default pattern.
    scheme: Option<Box<[Op]>>,
    /// Frame size.
    slots: usize,
}

/// Where a formal parameter binds: an integer slot, or the next array
/// with these dimension extents.
#[derive(Debug)]
enum Param {
    Int(usize),
    Array(Box<[Ex]>),
}

impl CompiledModel {
    /// Compiles the first `algorithm` in `src`. Its one extern function is
    /// Figure 7's `GetProcessor`.
    ///
    /// # Errors
    /// [`ParseError`] on syntax errors, if no algorithm is present, or as
    /// [`CompiledModel::from_program`].
    pub fn compile(src: &str) -> Result<CompiledModel, ParseError> {
        Self::compile_named(src, None)
    }

    /// Compiles the algorithm called `name` from `src` (a file may define
    /// several).
    ///
    /// # Errors
    /// [`ParseError`] on syntax errors, if the algorithm is missing, or as
    /// [`CompiledModel::from_program`].
    pub fn compile_named(src: &str, name: Option<&str>) -> Result<CompiledModel, ParseError> {
        Self::from_program(parse_program(src)?, name)
    }

    /// Compiles the algorithm called `name` (the first one, with `None`)
    /// from an already parsed program, lowering it to frame slots.
    ///
    /// # Errors
    /// [`ParseError`] if the algorithm is missing, and for every error C
    /// would report at compile time: an unresolved name or struct field; an
    /// array or struct used as an integer, an index into a non-array or
    /// with the wrong subscript count, or a field of an integer; an
    /// assignment that changes a variable's kind; an unknown `sizeof` or
    /// struct type, or a struct declaration with an initialiser; a `for` or
    /// `par` without a condition; a call to any extern function but
    /// `GetProcessor`, or a `GetProcessor` call in an expression, with the
    /// wrong arguments, or with `h` not of rank 4 or `w` not of rank 1; an
    /// activity, `link` end or `parent` with the wrong coordinate count;
    /// and a declaration that is the whole body of an `if`, `for` or `par`.
    /// The error's position is 1:1: the syntax tree carries no positions.
    pub fn from_program(program: Program, name: Option<&str>) -> Result<CompiledModel, ParseError> {
        let alg = match name {
            None => program.algorithms.first(),
            Some(n) => program.algorithms.iter().find(|a| a.name == n),
        };
        let alg = alg.ok_or_else(|| match name {
            None => ParseError::new("source defines no algorithm", 1, 1),
            Some(n) => ParseError::new(format!("no algorithm named `{n}`"), 1, 1),
        })?;
        let lowered = Arc::new(lower(alg, &program.typedefs)?);
        Ok(CompiledModel { lowered })
    }

    /// The model's name.
    pub fn name(&self) -> &str {
        &self.lowered.name
    }

    /// Formal parameter names, in order.
    pub fn param_names(&self) -> Vec<&str> {
        self.lowered.params.iter().map(|p| p.0.as_str()).collect()
    }

    /// Binds actual parameters, evaluates the `coord`, `node`, `link` and
    /// `parent` sections, and returns the instance.
    ///
    /// # Errors
    /// [`EvalError::BadParameters`] on arity/shape mismatches or a
    /// non-positive extent, [`EvalError::Overflow`] if the processor or
    /// binder count does not fit a `usize`, [`EvalError::BadProcessor`] for a
    /// `link` end or `parent` outside the coordinate space; other
    /// [`EvalError`]s from section evaluation.
    pub fn instantiate(&self, params: &[ParamValue]) -> Result<ModelInstance, EvalError> {
        let lw = &*self.lowered;
        if params.len() != lw.params.len() {
            return Err(EvalError::BadParameters(format!(
                "model `{}` takes {} parameters, got {}",
                lw.name,
                lw.params.len(),
                params.len()
            )));
        }

        // Bind parameters left-to-right; array dims may reference earlier
        // parameters (e.g. `int d[p]` after `int p`).
        let mut slots = vec![0i64; lw.slots];
        let mut arrays = Vec::new();
        for ((name, decl), actual) in lw.params.iter().zip(params) {
            match (decl, actual) {
                (Param::Int(s), ParamValue::Int(v)) => slots[*s] = *v,
                (Param::Array(dims), ParamValue::Array(data)) => {
                    let f = Frame::new(slots.clone(), &arrays, &[]);
                    let dims = dims.iter().map(|d| (name, d));
                    let dims = positive(&f, dims, |n, e| {
                        format!("dimension of `{n}` evaluated to {e}")
                    })?;
                    arrays.push((name.clone(), ArrayVal::new(dims, data.clone())?));
                }
                _ => {
                    let (is, given) = match decl {
                        Param::Int(_) => ("scalar", "an array"),
                        Param::Array(_) => ("an array", "a scalar"),
                    };
                    let msg = format!("parameter `{name}` is {is} but {given} was supplied");
                    return Err(EvalError::BadParameters(msg));
                }
            }
        }
        // The scheme starts from the bound parameters, everything else 0.
        let frame = slots.clone();

        // Coordinate space.
        let coords = lw.coords.iter().map(|(name, _, e)| (name, e));
        let f = Frame::new(slots.clone(), &arrays, &[]);
        let extents = positive(&f, coords, |n, x| {
            format!("coordinate `{n}` has non-positive extent {x}")
        })?;
        let n = product(&extents)?;
        let mut f = Frame::new(slots, &arrays, &extents);

        // Node volumes: for each processor, the first matching rule.
        let mut volumes = vec![0.0f64; n];
        for (linear, vol) in volumes.iter_mut().enumerate() {
            f.unflatten(lw.coords.iter().map(|c| c.1), &extents, linear);
            for (guard, volume) in &lw.nodes {
                if f.int(guard)? != 0 {
                    *vol = f.num(volume)?;
                    break;
                }
            }
        }

        // Link volumes: iterate the coordinate space x the binder space.
        let binders = lw.binders.iter().map(|(name, _, e)| (name, e));
        let binder_extents = positive(&f, binders, |n, x| {
            format!("link binder `{n}` has non-positive extent {x}")
        })?;
        let binder_total = product(&binder_extents)?.max(1);
        let mut comm = vec![vec![0.0f64; n]; n];
        for linear in 0..n {
            for bflat in 0..binder_total {
                f.unflatten(lw.coords.iter().map(|c| c.1), &extents, linear);
                f.unflatten(lw.binders.iter().map(|b| b.1), &binder_extents, bflat);
                for (guard, volume, src, dst) in &lw.links {
                    if f.int(guard)? != 0 {
                        let (src, dst) = (f.linear(src)?, f.linear(dst)?);
                        // Link rules *define* pair volumes (a rule not
                        // mentioning some binder matches once per binding of
                        // it); assignment rather than accumulation keeps
                        // those duplicates harmless.
                        comm[src][dst] = f.num(volume)?;
                    }
                }
            }
        }

        let parent = f.linear(&lw.parent)?;
        Ok(ModelInstance {
            model: self.lowered.clone(),
            arrays,
            frame,
            extents,
            volumes,
            comm,
            parent,
        })
    }
}

/// Evaluates named extents, each of which must be positive; `message`
/// describes a non-positive one.
fn positive<'e>(
    f: &Frame,
    extents: impl Iterator<Item = (&'e String, &'e Ex)>,
    message: impl Fn(&str, i64) -> String,
) -> Result<Vec<usize>, EvalError> {
    extents
        .map(|(name, e)| match f.int(e)? {
            x if x <= 0 => Err(EvalError::BadParameters(message(name, x))),
            x => Ok(x as usize),
        })
        .collect()
}

/// Lowers an algorithm: parameters, then each section in the scope its
/// evaluation sees. Coordinate and binder extents and the parent see the
/// parameters only; `node` rules also the coordinates, `link` rules also
/// the binders, and the scheme the coordinates and its own locals.
fn lower(alg: &AlgorithmDef, structs: &[StructDef]) -> Result<Lowered, ParseError> {
    let mut scope = Scope::new(structs, alg.coords.len());
    let mut params = Vec::with_capacity(alg.params.len());
    for p in &alg.params {
        let bound = if p.dims.is_empty() {
            Param::Int(scope.int(&p.name))
        } else {
            let dims = p
                .dims
                .iter()
                .map(|d| scope.lower(d))
                .collect::<Result<_, _>>()?;
            scope.array(&p.name, p.dims.len());
            Param::Array(dims)
        };
        params.push((p.name.clone(), bound));
    }
    let parent = if alg.parent.is_empty() {
        Box::default()
    } else {
        scope.place(&alg.parent)?
    };
    // Coordinate and binder extents see the parameters only.
    let extents = |named: &[(String, Expr)]| -> Result<Vec<(String, usize, Ex)>, ParseError> {
        named
            .iter()
            .map(|(n, e)| Ok((n.clone(), 0, scope.lower(e)?)))
            .collect()
    };
    let (mut coords, mut binders) = (extents(&alg.coords)?, extents(&alg.link_binders)?);

    scope.push();
    for (c, (name, _)) in coords.iter_mut().zip(&alg.coords) {
        c.1 = scope.int(name);
    }
    let nodes = alg
        .node_rules
        .iter()
        .map(|r| Ok((scope.lower(&r.guard)?, scope.lower(&r.volume)?)))
        .collect::<Result<_, ParseError>>()?;
    scope.push();
    // Declared last to first: of two binders with one name, the first
    // wins, as it did when they were bound in that order.
    for (b, (name, _)) in binders.iter_mut().zip(&alg.link_binders).rev() {
        b.1 = scope.int(name);
    }
    let links = alg
        .link_rules
        .iter()
        .map(|r| {
            Ok((
                scope.lower(&r.guard)?,
                scope.lower(&r.volume)?,
                scope.place(&r.src)?,
                scope.place(&r.dst)?,
            ))
        })
        .collect::<Result<_, ParseError>>()?;
    scope.pop();
    let scheme = if alg.scheme.is_empty() {
        None
    } else {
        Some(scope.scheme(&alg.scheme)?)
    };
    scope.pop();
    Ok(Lowered {
        name: alg.name.clone(),
        params,
        coords,
        nodes,
        binders,
        links,
        parent,
        scheme,
        slots: scope.slots,
    })
}

/// A model with bound parameters — the algorithm-specific part of the HMPI
/// runtime system.
#[derive(Debug, Clone)]
pub struct ModelInstance {
    model: Arc<Lowered>,
    /// The array parameters, with their names.
    arrays: Vec<(String, ArrayVal)>,
    /// The frame a scheme replay starts from: parameters bound, every
    /// other slot 0.
    frame: Vec<i64>,
    extents: Vec<usize>,
    volumes: Vec<f64>,
    comm: Vec<Vec<f64>>,
    parent: usize,
}

impl PerformanceModel for ModelInstance {
    fn name(&self) -> &str {
        &self.model.name
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
        let Some(ops) = &self.model.scheme else {
            // Default pattern: all transfers in parallel, then all
            // computations in parallel (one step of a bulk-synchronous
            // algorithm).
            let n = self.num_processors();
            sink.par_begin();
            for s in 0..n {
                for d in (0..n).filter(|&d| s != d && self.comm[s][d] > 0.0) {
                    sink.transfer(s, d, 100.0);
                }
                sink.par_branch();
            }
            sink.par_end();
            sink.par_begin();
            for p in 0..n {
                sink.compute(p, 100.0);
                sink.par_branch();
            }
            sink.par_end();
            return Ok(());
        };
        // Coordinate variables start at 0, so schemes may reuse them as
        // loop variables.
        let mut f = Frame::new(self.frame.clone(), &self.arrays, &self.extents);
        f.exec(ops, sink)
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
            .instantiate(&[ParamValue::Int(2), ParamValue::Array(vec![1, 2, 3, 4])])
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
    fn processor_count_overflow_in_instantiation_is_a_typed_error() {
        // p³ processors with p = 2^22 leave usize; so does a binder space
        // that size. Both used to multiply unchecked (a panic in debug, a
        // wrong count in release).
        let p = ParamValue::Int(1 << 22);
        let coords = CompiledModel::compile(
            "algorithm C(int p) { coord I=p, J=p, K=p; node {I>=0: bench*(1);}; parent[0,0,0]; }",
        )
        .unwrap();
        assert_eq!(
            coords.instantiate(std::slice::from_ref(&p)).unwrap_err(),
            EvalError::Overflow
        );
        let binders = CompiledModel::compile(
            "algorithm B(int p) { coord I=1; node {I>=0: bench*(1);};
               link (K=p, L=p, M=p) { I>=0: length*(1) [0]->[0]; }; parent[0]; }",
        )
        .unwrap();
        assert_eq!(binders.instantiate(&[p]).unwrap_err(), EvalError::Overflow);
    }

    #[test]
    fn coordinate_counts_are_checked_at_compile_time() {
        // The `parent` and each `link` end name every coordinate: in a 1-D
        // model, `parent[0, 0]` fails to compile, not to instantiate.
        for (sections, named) in [
            ("parent[0, 0];", "[0, 0]"),
            ("link {I>=0: length*(1) [0]->[0, 1];}; parent[0];", "[0, 1]"),
            ("link {I>=0: length*(1) [0, 1]->[0];};", "[0, 1]"),
        ] {
            let err = CompiledModel::compile(&format!(
                "algorithm C(int p) {{ coord I=p; node {{I>=0: bench*(1);}}; {sections} }}"
            ))
            .unwrap_err();
            let msg = format!(
                "bad abstract processor: {named} names 2 coordinates but the coordinate space \
                 has 1"
            );
            assert_eq!(err.message, msg, "{sections}");
        }
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
