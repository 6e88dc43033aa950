//! The `scheme { ... }` interpreter.
//!
//! A scheme describes "how exactly the processes interact during the
//! execution of the algorithm". Interpreting it produces a stream of
//! *activities* — `e %% [i]` computations and `e %% [i] -> [j]` transfers —
//! structured by `par` blocks whose activities overlap in time. The stream
//! is delivered to a [`SchemeSink`]: the model pricer's recorder
//! ([`crate::CostProgram::record`], which turns it into seconds) or a
//! [`RecordingSink`] capturing the raw event stream for tests and tools.
//!
//! `par` semantics: variable bindings evolve *sequentially* across the
//! iterations (Figure 7 even increments its loop variable inside the body),
//! but the pricer starts every iteration's activities from the clock state
//! at the `par` entry, and the block completes at the elementwise maximum
//! over iterations — "data transfer between different pairs of processors
//! is carried out in parallel".

use crate::ast::{AssignOp, CallArg, Expr, LValue, Stmt};
use crate::env::Env;
use crate::error::EvalError;
use crate::eval::{eval_int, eval_num, eval_value, extern_fn};
use crate::value::{StructVal, Value};
use std::collections::HashMap;

/// Safety cap on total loop iterations while interpreting one scheme.
pub const ITERATION_LIMIT: u64 = 200_000_000;

/// Receives the activity stream of a scheme.
pub trait SchemeSink {
    /// The processor with the given linear index performs `percent` percent
    /// of its total computation volume.
    fn compute(&mut self, proc: usize, percent: f64);
    /// `percent` percent of the total `src → dst` communication volume is
    /// transferred.
    fn transfer(&mut self, src: usize, dst: usize, percent: f64);
    /// A `par` block begins.
    fn par_begin(&mut self) {}
    /// One `par` iteration's activities are complete.
    fn par_branch(&mut self) {}
    /// The `par` block ends (join).
    fn par_end(&mut self) {}
}

/// One recorded scheme event.
#[derive(Debug, Clone, PartialEq)]
pub enum SchemeEvent {
    /// Computation activity.
    Compute {
        /// Linear processor index.
        proc: usize,
        /// Percentage of the processor's total volume.
        percent: f64,
    },
    /// Transfer activity.
    Transfer {
        /// Linear source index.
        src: usize,
        /// Linear destination index.
        dst: usize,
        /// Percentage of the pair's total volume.
        percent: f64,
    },
    /// `par` entry.
    ParBegin,
    /// `par` branch boundary.
    ParBranch,
    /// `par` join.
    ParEnd,
}

/// A sink that records every event (for tests and model debugging).
#[derive(Debug, Default, Clone)]
pub struct RecordingSink {
    /// The recorded stream.
    pub events: Vec<SchemeEvent>,
}

impl SchemeSink for RecordingSink {
    fn compute(&mut self, proc: usize, percent: f64) {
        self.events.push(SchemeEvent::Compute { proc, percent });
    }
    fn transfer(&mut self, src: usize, dst: usize, percent: f64) {
        self.events.push(SchemeEvent::Transfer { src, dst, percent });
    }
    fn par_begin(&mut self) {
        self.events.push(SchemeEvent::ParBegin);
    }
    fn par_branch(&mut self) {
        self.events.push(SchemeEvent::ParBranch);
    }
    fn par_end(&mut self) {
        self.events.push(SchemeEvent::ParEnd);
    }
}

/// Interprets a scheme body, feeding activities to `sink`.
///
/// `extents` is the coordinate space (from the `coord` declaration); activity
/// coordinates are linearised row-major against it.
///
/// # Errors
/// Any [`EvalError`] from expression evaluation, plus
/// [`EvalError::IterationLimit`] if loops run away and
/// [`EvalError::BadProcessor`] for activities outside the coordinate space.
pub fn run_scheme(
    stmts: &[Stmt],
    env: &mut Env,
    structs: &HashMap<String, Vec<String>>,
    extents: &[usize],
    sink: &mut dyn SchemeSink,
) -> Result<(), EvalError> {
    let mut interp = Interp {
        structs,
        extents,
        iterations: 0,
    };
    env.push();
    let result = stmts.iter().try_for_each(|s| interp.exec(env, s, sink));
    env.pop();
    result
}

struct Interp<'a> {
    structs: &'a HashMap<String, Vec<String>>,
    extents: &'a [usize],
    iterations: u64,
}

impl Interp<'_> {
    fn tick(&mut self) -> Result<(), EvalError> {
        self.iterations += 1;
        if self.iterations > ITERATION_LIMIT {
            return Err(EvalError::IterationLimit(ITERATION_LIMIT));
        }
        Ok(())
    }

    fn linearise(&self, env: &Env, coords: &[Expr]) -> Result<usize, EvalError> {
        if coords.len() != self.extents.len() {
            return Err(EvalError::BadProcessor(format!(
                "activity names {} coordinates but the coordinate space has {}",
                coords.len(),
                self.extents.len()
            )));
        }
        let mut linear = 0usize;
        for (e, &extent) in coords.iter().zip(self.extents) {
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

    fn read_lvalue(&self, env: &Env, lv: &LValue) -> Result<Value, EvalError> {
        match lv {
            LValue::Var(name) => Ok(env.get(name)?.clone()),
            LValue::Member(name, field) => {
                let s = env.get(name)?.as_struct()?;
                s.fields
                    .get(field)
                    .copied()
                    .map(Value::Int)
                    .ok_or_else(|| EvalError::Undefined(format!("field {field}")))
            }
        }
    }

    fn write_lvalue(&self, env: &mut Env, lv: &LValue, value: Value) -> Result<(), EvalError> {
        match lv {
            LValue::Var(name) => env.assign(name, value),
            LValue::Member(name, field) => {
                let slot = env.get_mut(name)?;
                match slot {
                    Value::Struct(s) => {
                        let v = value.as_int()?;
                        *s.fields
                            .entry(field.clone())
                            .or_insert(0) = v;
                        Ok(())
                    }
                    other => Err(EvalError::TypeError(format!(
                        "member assignment into non-struct {other}"
                    ))),
                }
            }
        }
    }

    fn exec(
        &mut self,
        env: &mut Env,
        stmt: &Stmt,
        sink: &mut dyn SchemeSink,
    ) -> Result<(), EvalError> {
        match stmt {
            Stmt::Empty => Ok(()),
            Stmt::Block(body) => {
                env.push();
                let r = body.iter().try_for_each(|s| self.exec(env, s, sink));
                env.pop();
                r
            }
            Stmt::Decl { ty, vars } => {
                for (name, init) in vars {
                    let value = if ty == "int" {
                        match init {
                            Some(e) => Value::Int(eval_int(env, e)?),
                            None => Value::Int(0),
                        }
                    } else {
                        let fields = self.structs.get(ty).ok_or_else(|| {
                            EvalError::TypeError(format!("unknown struct type `{ty}`"))
                        })?;
                        if init.is_some() {
                            return Err(EvalError::TypeError(
                                "struct declarations cannot take initialisers".into(),
                            ));
                        }
                        Value::Struct(StructVal {
                            type_name: ty.clone(),
                            fields: fields.iter().map(|f| (f.clone(), 0)).collect(),
                        })
                    };
                    env.declare(name.clone(), value);
                }
                Ok(())
            }
            Stmt::Assign { lv, op, rhs } => {
                let new = match op {
                    AssignOp::Set => eval_value(env, rhs)?,
                    AssignOp::Add | AssignOp::Sub | AssignOp::Mul => {
                        let old = self.read_lvalue(env, lv)?.as_int()?;
                        let r = eval_int(env, rhs)?;
                        let new = match op {
                            AssignOp::Add => old.checked_add(r),
                            AssignOp::Sub => old.checked_sub(r),
                            AssignOp::Mul => old.checked_mul(r),
                            AssignOp::Set => unreachable!(),
                        };
                        Value::Int(new.ok_or(EvalError::Overflow)?)
                    }
                };
                self.write_lvalue(env, lv, new)
            }
            Stmt::If { cond, then, els } => {
                if eval_int(env, cond)? != 0 {
                    self.exec(env, then, sink)
                } else if let Some(e) = els {
                    self.exec(env, e, sink)
                } else {
                    Ok(())
                }
            }
            Stmt::For {
                init,
                cond,
                step,
                body,
            } => {
                if let Some(i) = init {
                    self.exec(env, i, sink)?;
                }
                loop {
                    match cond {
                        Some(c) if eval_int(env, c)? == 0 => break,
                        None => {
                            return Err(EvalError::TypeError(
                                "for loop without a condition never terminates".into(),
                            ))
                        }
                        _ => {}
                    }
                    self.tick()?;
                    self.exec(env, body, sink)?;
                    if let Some(s) = step {
                        self.exec(env, s, sink)?;
                    }
                }
                Ok(())
            }
            Stmt::Par {
                init,
                cond,
                step,
                body,
            } => {
                if let Some(i) = init {
                    self.exec(env, i, sink)?;
                }
                sink.par_begin();
                let result = (|| -> Result<(), EvalError> {
                    loop {
                        match cond {
                            Some(c) if eval_int(env, c)? == 0 => break,
                            None => {
                                return Err(EvalError::TypeError(
                                    "par loop without a condition never terminates".into(),
                                ))
                            }
                            _ => {}
                        }
                        self.tick()?;
                        self.exec(env, body, sink)?;
                        if let Some(s) = step {
                            self.exec(env, s, sink)?;
                        }
                        sink.par_branch();
                    }
                    Ok(())
                })();
                sink.par_end();
                result
            }
            Stmt::Compute { percent, proc } => {
                let pct = eval_num(env, percent)?;
                let p = self.linearise(env, proc)?;
                sink.compute(p, pct);
                Ok(())
            }
            Stmt::Transfer { percent, src, dst } => {
                let pct = eval_num(env, percent)?;
                let s = self.linearise(env, src)?;
                let d = self.linearise(env, dst)?;
                sink.transfer(s, d, pct);
                Ok(())
            }
            Stmt::CallStmt { name, args } => {
                let f = extern_fn(name)?;
                let mut vals = Vec::with_capacity(args.len());
                for a in args {
                    vals.push(match a {
                        CallArg::Value(e) => eval_value(env, e)?,
                        CallArg::OutRef(lv) => self.read_lvalue(env, lv)?,
                    });
                }
                let result = f(&vals)?;
                let out_refs: Vec<&LValue> = args
                    .iter()
                    .filter_map(|a| match a {
                        CallArg::OutRef(lv) => Some(lv),
                        CallArg::Value(_) => None,
                    })
                    .collect();
                if out_refs.len() != result.outs.len() {
                    return Err(EvalError::ExternError {
                        name: name.clone(),
                        message: format!(
                            "returned {} out-values for {} &-arguments",
                            result.outs.len(),
                            out_refs.len()
                        ),
                    });
                }
                for (lv, v) in out_refs.into_iter().zip(result.outs) {
                    self.write_lvalue(env, lv, v)?;
                }
                Ok(())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;

    fn scheme_of(src: &str) -> (Vec<Stmt>, Vec<usize>, HashMap<String, Vec<String>>) {
        let prog = parse_program(src).unwrap();
        let a = &prog.algorithms[0];
        let structs = prog
            .typedefs
            .iter()
            .map(|t| (t.name.clone(), t.fields.clone()))
            .collect();
        // Coordinates are tests' business: extents resolved by the caller.
        (a.scheme.clone(), Vec::new(), structs)
    }

    fn run(
        src: &str,
        params: &[(&str, i64)],
        extents: Vec<usize>,
    ) -> Result<RecordingSink, EvalError> {
        let (stmts, _, structs) = scheme_of(src);
        let mut env = Env::new();
        for (n, v) in params {
            env.declare(*n, Value::Int(*v));
        }
        let mut sink = RecordingSink::default();
        run_scheme(&stmts, &mut env, &structs, &extents, &mut sink)?;
        Ok(sink)
    }

    #[test]
    fn par_emits_fork_join_structure() {
        let src = r"
            algorithm T(int p) {
                coord I=p;
                node {I>=0: bench*(1);};
                parent[0];
                scheme {
                    int i;
                    par (i = 0; i < p; i++) 100%%[i];
                };
            }
        ";
        let sink = run(src, &[("p", 3)], vec![3]).unwrap();
        assert_eq!(
            sink.events,
            vec![
                SchemeEvent::ParBegin,
                SchemeEvent::Compute {
                    proc: 0,
                    percent: 100.0
                },
                SchemeEvent::ParBranch,
                SchemeEvent::Compute {
                    proc: 1,
                    percent: 100.0
                },
                SchemeEvent::ParBranch,
                SchemeEvent::Compute {
                    proc: 2,
                    percent: 100.0
                },
                SchemeEvent::ParBranch,
                SchemeEvent::ParEnd,
            ]
        );
    }

    #[test]
    fn two_dim_coordinates_linearise_row_major() {
        let src = r"
            algorithm T(int m) {
                coord I=m, J=m;
                node {I>=0 && J>=0: bench*(1);};
                parent[0,0];
                scheme {
                    (100)%%[1, 2];
                };
            }
        ";
        let sink = run(src, &[("m", 3)], vec![3, 3]).unwrap();
        assert_eq!(
            sink.events,
            vec![SchemeEvent::Compute {
                proc: 5,
                percent: 100.0
            }]
        );
    }

    #[test]
    fn out_of_range_coordinate_rejected() {
        let src = r"
            algorithm T(int p) {
                coord I=p;
                node {I>=0: bench*(1);};
                parent[0];
                scheme { 100%%[p]; };
            }
        ";
        let err = run(src, &[("p", 2)], vec![2]).unwrap_err();
        assert!(matches!(err, EvalError::BadProcessor(_)));
    }

    #[test]
    fn percent_expressions_use_true_division() {
        let src = r"
            algorithm T(int n) {
                coord I=1;
                node {I>=0: bench*(1);};
                parent[0];
                scheme { (100/n)%%[0]; };
            }
        ";
        let sink = run(src, &[("n", 400)], vec![1]).unwrap();
        assert_eq!(
            sink.events,
            vec![SchemeEvent::Compute {
                proc: 0,
                percent: 0.25
            }]
        );
    }

    #[test]
    fn loop_variable_mutation_inside_par_body() {
        // The Figure 7 pattern: par with an empty step, stepping inside.
        let src = r"
            algorithm T(int l) {
                coord I=1;
                node {I>=0: bench*(1);};
                parent[0];
                scheme {
                    int Arow, count;
                    count = 0;
                    par (Arow = 0; Arow < l; ) {
                        count++;
                        Arow += 2;
                    }
                };
            }
        ";
        // l = 7, step 2 -> iterations at 0,2,4,6 -> 4 branches.
        let sink = run(src, &[("l", 7)], vec![1]).unwrap();
        let branches = sink
            .events
            .iter()
            .filter(|e| **e == SchemeEvent::ParBranch)
            .count();
        assert_eq!(branches, 4);
    }

    #[test]
    fn struct_vars_and_getprocessor() {
        let src = r"
            typedef struct {int I; int J;} Processor;
            algorithm T(int m, int w[m], int h[m][m][m][m]) {
                coord I=m, J=m;
                node {I>=0 && J>=0: bench*(1);};
                parent[0,0];
                scheme {
                    Processor Root;
                    GetProcessor(0, 1, m, h, w, &Root);
                    100%%[Root.I, Root.J];
                };
            }
        ";
        let (stmts, _, structs) = scheme_of(src);
        let mut env = Env::new();
        env.declare("m", Value::Int(2));
        env.declare(
            "w",
            Value::Array(crate::value::ArrayVal::new(vec![2], vec![1, 1]).unwrap()),
        );
        let mut h = vec![0i64; 16];
        let at = |i: usize, j: usize, k: usize, l: usize| ((i * 2 + j) * 2 + k) * 2 + l;
        h[at(0, 0, 0, 0)] = 1;
        h[at(1, 0, 1, 0)] = 1;
        h[at(0, 1, 0, 1)] = 1;
        h[at(1, 1, 1, 1)] = 1;
        env.declare(
            "h",
            Value::Array(crate::value::ArrayVal::new(vec![2, 2, 2, 2], h).unwrap()),
        );
        let mut sink = RecordingSink::default();
        run_scheme(&stmts, &mut env, &structs, &[2, 2], &mut sink).unwrap();
        // Block (0,1) belongs to grid processor (0,1) -> linear index 1.
        assert_eq!(
            sink.events,
            vec![SchemeEvent::Compute {
                proc: 1,
                percent: 100.0
            }]
        );
    }

    /// The model pricer's makespan for the parameterless model `src`, at
    /// unit speed with `latency` and `bandwidth` between every pair.
    fn makespan(src: &str, latency: f64, bandwidth: f64) -> f64 {
        let model = crate::CompiledModel::compile(src)
            .unwrap()
            .instantiate(&[])
            .unwrap();
        let n = crate::PerformanceModel::num_processors(&model);
        let cost = crate::CostModel::homogeneous(n, 1.0, latency, bandwidth);
        crate::CostProgram::record(&model)
            .unwrap()
            .price(&cost, &mut crate::PriceScratch::new(n))
    }

    #[test]
    fn timeline_par_overlaps_and_seq_chains() {
        // Two computations in a par overlap; in sequence they chain.
        let model = |scheme: &str| {
            format!(
                "algorithm T() {{ coord I=2; node {{I>=0: bench*(10*(I+1));}}; parent[0];
                   scheme {{ {scheme} }}; }}"
            )
        };
        let par = model("int i; par (i = 0; i < 2; i++) 100%%[i];");
        let overlapped = makespan(&par, 0.0, 1e9);
        assert_eq!(overlapped, 20.0);
        let chained = makespan(&model("100%%[0]; 100%%[0];"), 0.0, 1e9);
        assert_eq!(chained, 20.0); // same proc twice: serial
    }

    #[test]
    fn timeline_transfer_couples_clocks() {
        // 100 of 200 bytes at 100 B/s and 0.5 s latency: the receiver
        // finishes at 0.5 + 1.0 = 1.5 s, the sender pays the 0.5 s latency
        // only, so its 2 s computation afterwards ends at 2.5 s.
        let model = |scheme: &str| {
            format!(
                "algorithm T() {{ coord I=2; node {{I==0: bench*(2);}};
                   link {{I==0: length*(200) [0]->[1];}}; parent[0]; scheme {{ {scheme} }}; }}"
            )
        };
        let received = makespan(&model("50%%[0]->[1];"), 0.5, 100.0);
        assert_eq!(received, 1.5);
        let sender = makespan(&model("50%%[0]->[1]; 100%%[0];"), 0.5, 100.0);
        assert_eq!(sender, 0.5 + 2.0);
    }

    #[test]
    fn compound_assignment_overflow_is_a_typed_error() {
        for (op, start) in [("+=", i64::MAX), ("-=", i64::MIN), ("*=", i64::MAX)] {
            let src = format!(
                "algorithm T(int p) {{ coord I=1; node {{I>=0: bench*(1);}}; parent[0];
                   scheme {{ int x; x = p; x {op} 2; }}; }}"
            );
            let err = run(&src, &[("p", start)], vec![1]).unwrap_err();
            assert_eq!(err, EvalError::Overflow, "x = {start}; x {op} 2");
            assert!(run(&src, &[("p", 3)], vec![1]).is_ok());
        }
    }

    #[test]
    fn for_loop_without_condition_is_rejected() {
        // `for (;;)` would never terminate; the interpreter refuses it
        // instead of hitting the iteration cap.
        let src = r"
            algorithm T(int p) {
                coord I=1;
                node {I>=0: bench*(1);};
                parent[0];
                scheme {
                    int i;
                    for (i = 0; ; i++) { ; }
                };
            }
        ";
        let err = run(src, &[("p", 1)], vec![1]).unwrap_err();
        assert!(matches!(err, EvalError::TypeError(_)));
    }

    #[test]
    fn nested_par_timeline() {
        // Outer par of two branches; each branch computes on a different
        // processor; inner activities overlap globally.
        let src = "algorithm T() { coord I=3; node {I>=0: bench*(5+2*I);}; parent[0];
            scheme { int a, b;
                par (a = 0; a < 2; a++) {
                    if (a == 0) par (b = 0; b < 2; b++) 100%%[b];
                    if (a == 1) 100%%[2];
                }
            }; }";
        assert_eq!(makespan(src, 0.0, 1e9), 9.0);
    }
}
