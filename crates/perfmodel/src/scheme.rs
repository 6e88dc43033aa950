//! The `scheme { ... }` section: lowered once, replayed per instance.
//!
//! A scheme describes "how exactly the processes interact during the
//! execution of the algorithm". [`Scope::scheme`] turns its statements into
//! [`Op`]s over the model's frame slots once, when the model is compiled;
//! [`Frame::exec`] replays them. Replaying produces a stream of
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
use crate::error::{EvalError, ParseError};
use crate::eval::{fail, unknown_extern, Call, Ex, Frame, Operand, Place, Scope, Var};

/// Safety cap on total loop iterations while replaying one scheme.
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
        self.events
            .push(SchemeEvent::Transfer { src, dst, percent });
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

/// A lowered scheme statement.
#[derive(Debug, Clone)]
pub(crate) enum Op {
    /// `slot = e`: declarations and plain assignments.
    Set(usize, Ex),
    /// `slot += e`, `-=` or `*=`, checked.
    Update(usize, AssignOp, Ex),
    /// A statement that raises when it runs: evaluates a `Fail` node.
    Check(Ex),
    /// `if (cond) then else`.
    If(Ex, Box<[Op]>, Box<[Op]>),
    /// A `for` (`false`) or `par` (`true`) loop: its condition, then its
    /// body followed by its step. The init runs before, as its own ops.
    Loop(bool, Ex, Box<[Op]>),
    /// `e %% [proc]`.
    Compute(Ex, Place),
    /// `e %% [src] -> [dst]`.
    Transfer(Ex, Place, Place),
    /// `to.. = from..`: a whole-struct assignment of `.2` fields.
    Copy(usize, usize, usize),
    /// `GetProcessor(..., &out)`: the lookup, then the `I` and `J` slots
    /// it writes, or the error it raises instead.
    Call(Box<Call>, Result<(usize, usize), EvalError>),
}

impl<'a> Scope<'a> {
    /// Lowers a scheme body in a scope of its own.
    ///
    /// # Errors
    /// [`ParseError`] for the two forms static slots cannot express: a
    /// declaration that is the whole body of an `if`, `for` or `par` (it
    /// would declare a name only when the branch runs), and a
    /// `GetProcessor` out-argument that is not a struct with fields `I` and
    /// `J`.
    pub(crate) fn scheme(&mut self, stmts: &'a [Stmt]) -> Result<Box<[Op]>, ParseError> {
        let mut ops = Vec::new();
        self.push();
        let done = stmts.iter().try_for_each(|s| self.stmt(s, &mut ops));
        self.pop();
        done.map(|()| ops.into())
    }

    /// Lowers the body of an `if`, `for` or `par`, which may not be a bare
    /// declaration.
    fn body(&mut self, s: &'a Stmt, ops: &mut Vec<Op>) -> Result<(), ParseError> {
        if matches!(s, Stmt::Decl { .. }) {
            let msg = "a declaration cannot be the whole body of an `if`, `for` or `par`";
            return Err(ParseError::new(msg, 1, 1));
        }
        self.stmt(s, ops)
    }

    fn stmt(&mut self, stmt: &'a Stmt, ops: &mut Vec<Op>) -> Result<(), ParseError> {
        match stmt {
            Stmt::Empty => {}
            Stmt::Block(body) => {
                self.push();
                let done = body.iter().try_for_each(|s| self.stmt(s, ops));
                self.pop();
                done?;
            }
            Stmt::Decl { ty, vars } => self.decl(ty, vars, ops),
            Stmt::Assign { lv, op, rhs } => ops.push(self.assign(lv, *op, rhs)),
            Stmt::If { cond, then, els } => {
                let (cond, mut t, mut e) = (self.lower(cond), Vec::new(), Vec::new());
                self.body(then, &mut t)?;
                if let Some(els) = els {
                    self.body(els, &mut e)?;
                }
                ops.push(Op::If(cond, t.into(), e.into()));
            }
            Stmt::For {
                init,
                cond,
                step,
                body,
            }
            | Stmt::Par {
                init,
                cond,
                step,
                body,
            } => {
                let par = matches!(stmt, Stmt::Par { .. });
                if let Some(i) = init {
                    self.stmt(i, ops)?;
                }
                let kw = if par { "par" } else { "for" };
                let endless =
                    EvalError::TypeError(format!("{kw} loop without a condition never terminates"));
                let cond = cond
                    .as_ref()
                    .map_or_else(|| fail(vec![], endless), |c| self.lower(c));
                let mut looped = Vec::new();
                self.body(body, &mut looped)?;
                if let Some(s) = step {
                    self.body(s, &mut looped)?;
                }
                ops.push(Op::Loop(par, cond, looped.into()));
            }
            Stmt::Compute { percent, proc } => {
                ops.push(Op::Compute(self.lower(percent), self.place(proc, true)));
            }
            Stmt::Transfer { percent, src, dst } => {
                let pct = self.lower(percent);
                ops.push(Op::Transfer(
                    pct,
                    self.place(src, true),
                    self.place(dst, true),
                ));
            }
            Stmt::CallStmt { name, args } if name == "GetProcessor" => {
                let mut outs = Vec::new();
                let mut operands = Vec::new();
                for a in args {
                    operands.push(match a {
                        CallArg::Value(e) => self.operand(e),
                        CallArg::OutRef(lv) => {
                            let (var, slots) = self.processor(lv).ok_or_else(|| {
                                let msg = "a GetProcessor `&` argument must be a struct \
                                           variable with exactly the fields I and J";
                                ParseError::new(msg, 1, 1)
                            })?;
                            outs.push(slots);
                            Operand::Whole(var)
                        }
                    });
                }
                let out = match outs[..] {
                    [slots] => Ok(slots),
                    _ => Err(EvalError::ExternError {
                        name: name.clone(),
                        message: format!("returned 1 out-values for {} &-arguments", outs.len()),
                    }),
                };
                ops.push(Op::Call(Box::new(self.call(operands)), out));
            }
            Stmt::CallStmt { name, .. } => ops.push(Op::Check(fail(vec![], unknown_extern(name)))),
        }
        Ok(())
    }

    fn decl(&mut self, ty: &str, vars: &'a [(String, Option<Expr>)], ops: &mut Vec<Op>) {
        for (name, init) in vars {
            if ty == "int" {
                let e = init.as_ref().map_or(Ex::Int(0), |e| self.lower(e));
                ops.push(Op::Set(self.int(name), e));
                continue;
            }
            let err = match (init, self.strukt(name, ty)) {
                (None, Some((base, len))) => {
                    ops.extend((base..base + len).map(|s| Op::Set(s, Ex::Int(0))));
                    continue;
                }
                (_, None) => format!("unknown struct type `{ty}`"),
                (Some(_), _) => "struct declarations cannot take initialisers".into(),
            };
            // The statement raises here, so nothing after it runs.
            ops.push(Op::Check(fail(vec![], EvalError::TypeError(err))));
            break;
        }
    }

    /// Lowers `lv op= rhs`. A variable keeps the kind it was declared with:
    /// assigning a whole array or struct to anything but a struct variable
    /// with the same fields, or anything to a field its struct does not
    /// declare, raises when it runs.
    fn assign(&self, lv: &LValue, op: AssignOp, rhs: &Expr) -> Op {
        let (LValue::Var(name) | LValue::Member(name, _)) = lv;
        let target = self.get(name);
        // The integer slot written, or the error raised once the right-hand
        // side is evaluated.
        let slot = target.clone().and_then(|v| match (lv, v) {
            (LValue::Var(_), Var::Int(s)) => Ok(s),
            (LValue::Var(_), v) => Err(self.kind_error("int", Some(v))),
            (LValue::Member(_, field), v) => self.field(v, field),
        });
        if op != AssignOp::Set {
            // A compound assignment reads its target before its right-hand
            // side.
            return match slot {
                Ok(s) => Op::Update(s, op, self.lower(rhs)),
                Err(e) => Op::Check(fail(vec![], e)),
            };
        }
        let err = match (self.operand(rhs), slot, lv, target) {
            (Operand::Int(x), Ok(s), ..) => return Op::Set(s, x),
            (Operand::Int(x), Err(e), ..) => return Op::Check(fail(vec![x], e)),
            (Operand::Whole(Var::Struct(b, from)), _, LValue::Var(_), Ok(Var::Struct(a, to)))
                if self.fields(a) == self.fields(b) =>
            {
                return Op::Copy(to, from, self.fields(a).len());
            }
            (Operand::Whole(_), _, _, Err(u)) => u,
            (Operand::Whole(whole), _, LValue::Var(_), Ok(_)) => {
                self.kind_error("a value of the variable's declared kind", Some(whole))
            }
            (Operand::Whole(whole), ..) => self.kind_error("int", Some(whole)),
        };
        Op::Check(fail(vec![], err))
    }
}

impl Frame<'_> {
    /// Replays lowered statements, feeding activities to `sink`.
    ///
    /// # Errors
    /// Any [`EvalError`] from expression evaluation, plus
    /// [`EvalError::IterationLimit`] if loops run away and
    /// [`EvalError::BadProcessor`] for activities outside the coordinate
    /// space.
    pub(crate) fn exec(&mut self, ops: &[Op], sink: &mut dyn SchemeSink) -> Result<(), EvalError> {
        for op in ops {
            match op {
                Op::Set(s, e) => self.slots[*s] = self.int(e)?,
                Op::Update(s, op, e) => {
                    let (old, r) = (self.slots[*s], self.int(e)?);
                    let new = match op {
                        AssignOp::Add => old.checked_add(r),
                        AssignOp::Sub => old.checked_sub(r),
                        AssignOp::Mul => old.checked_mul(r),
                        AssignOp::Set => Some(r),
                    };
                    self.slots[*s] = new.ok_or(EvalError::Overflow)?;
                }
                Op::Copy(to, from, len) => self.slots.copy_within(*from..from + len, *to),
                Op::Check(e) => {
                    self.int(e)?;
                }
                Op::If(cond, then, els) => {
                    let taken = if self.int(cond)? != 0 { then } else { els };
                    self.exec(taken, sink)?;
                }
                Op::Loop(false, cond, body) => self.iterate(false, cond, body, sink)?,
                Op::Loop(true, cond, body) => {
                    // The join is emitted even when an iteration fails.
                    sink.par_begin();
                    let done = self.iterate(true, cond, body, sink);
                    sink.par_end();
                    done?;
                }
                Op::Compute(pct, proc) => {
                    let pct = self.num(pct)?;
                    sink.compute(self.linear(proc)?, pct);
                }
                Op::Transfer(pct, src, dst) => {
                    let pct = self.num(pct)?;
                    let s = self.linear(src)?;
                    sink.transfer(s, self.linear(dst)?, pct);
                }
                Op::Call(call, out) => {
                    let (i, j) = self.lookup(call)?;
                    let (si, sj) = out.clone()?;
                    (self.slots[si], self.slots[sj]) = (i, j);
                }
            }
        }
        Ok(())
    }

    fn iterate(
        &mut self,
        par: bool,
        cond: &Ex,
        body: &[Op],
        sink: &mut dyn SchemeSink,
    ) -> Result<(), EvalError> {
        while self.int(cond)? != 0 {
            self.iterations += 1;
            if self.iterations > ITERATION_LIMIT {
                return Err(EvalError::IterationLimit(ITERATION_LIMIT));
            }
            self.exec(body, sink)?;
            if par {
                sink.par_branch();
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;
    use crate::{CompiledModel, ParamValue, PerformanceModel};

    /// Runs the scheme of the model `src`, instantiated with the integer
    /// parameters `params` (by name, in declaration order).
    fn run(src: &str, params: &[(&str, i64)]) -> Result<RecordingSink, EvalError> {
        let model = CompiledModel::compile(src).unwrap();
        assert_eq!(
            model.param_names(),
            params.iter().map(|p| p.0).collect::<Vec<_>>()
        );
        let params: Vec<ParamValue> = params.iter().map(|&(_, v)| ParamValue::Int(v)).collect();
        let mut sink = RecordingSink::default();
        model.instantiate(&params)?.run_scheme(&mut sink)?;
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
        let sink = run(src, &[("p", 3)]).unwrap();
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
        let sink = run(src, &[("m", 3)]).unwrap();
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
        let err = run(src, &[("p", 2)]).unwrap_err();
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
        let sink = run(src, &[("n", 400)]).unwrap();
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
        let sink = run(src, &[("l", 7)]).unwrap();
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
        let mut h = vec![0i64; 16];
        let at = |i: usize, j: usize, k: usize, l: usize| ((i * 2 + j) * 2 + k) * 2 + l;
        h[at(0, 0, 0, 0)] = 1;
        h[at(1, 0, 1, 0)] = 1;
        h[at(0, 1, 0, 1)] = 1;
        h[at(1, 1, 1, 1)] = 1;
        let params = [
            ParamValue::Int(2),
            ParamValue::Array(vec![1, 1]),
            ParamValue::Array(h),
        ];
        let inst = CompiledModel::compile(src)
            .unwrap()
            .instantiate(&params)
            .unwrap();
        let mut sink = RecordingSink::default();
        inst.run_scheme(&mut sink).unwrap();
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
            let err = run(&src, &[("p", start)]).unwrap_err();
            assert_eq!(err, EvalError::Overflow, "x = {start}; x {op} 2");
            assert!(run(&src, &[("p", 3)]).is_ok());
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
        let err = run(src, &[("p", 1)]).unwrap_err();
        assert!(matches!(err, EvalError::TypeError(_)));
    }

    /// Runs `scheme` in a one-parameter model over four processors, with
    /// `spent` loop iterations already counted against the safety cap, and
    /// renders the outcome: the computed percentages, or the error.
    fn corner(scheme: &str, p: i64, spent: u64) -> String {
        let src = format!(
            "typedef struct {{int I; int J;}} Processor;
             algorithm T(int p) {{ coord I=4; node {{I>=0: bench*(1);}}; parent[0];
               scheme {{ {scheme} }}; }}"
        );
        let prog = parse_program(&src).unwrap();
        let mut scope = Scope::new(&prog.typedefs, 1);
        let p_slot = scope.int("p");
        scope.int("I");
        let ops = scope.scheme(&prog.algorithms[0].scheme).unwrap();
        let mut slots = vec![0; scope.slots];
        slots[p_slot] = p;
        let mut frame = Frame {
            iterations: spent,
            ..Frame::new(slots, &[], &[4])
        };
        let mut sink = RecordingSink::default();
        let run = frame.exec(&ops, &mut sink);
        match run {
            Ok(()) => format!(
                "{:?}",
                sink.events
                    .iter()
                    .filter_map(|e| match e {
                        SchemeEvent::Compute { percent, .. } => Some(*percent),
                        _ => None,
                    })
                    .collect::<Vec<_>>()
            ),
            Err(e) => format!("{e:?}"),
        }
    }

    #[test]
    fn language_corners() {
        let limit = ITERATION_LIMIT;
        // Two loops of 2 and 2 × 3 iterations tick the cap eight times.
        let eight = "int i, j; for (i = 0; i < 2; i++) par (j = 0; j < 3; j++) ;";
        let table: [(&str, i64, u64, &str); 12] = [
            // Names resolve only when evaluated: an untaken branch may
            // name anything.
            ("if (p < 0) mystery%%[0]; 100%%[0];", 1, 0, "[100.0]"),
            ("if (p > 0) ; else mystery%%[0];", 1, 0, "[]"),
            ("if (p > 0) mystery%%[0];", 1, 0, r#"Undefined("mystery")"#),
            (
                "Processor R; if (R) 100%%[0];",
                1,
                0,
                r#"TypeError("expected int, found Processor {..}")"#,
            ),
            (
                "Processor R; R.I %%[0]; R.K %%[0];",
                1,
                0,
                r#"Undefined("field K")"#,
            ),
            // A block-local declaration is fresh on every iteration.
            (
                "int i; for (i = 0; i < 3; i++) { int c; c += 1; c%%[0]; }",
                1,
                0,
                "[1.0, 1.0, 1.0]",
            ),
            // An inner declaration shadows, and the outer one comes back.
            (
                "int x = 5; { int x = 7; x%%[0]; } x%%[0];",
                1,
                0,
                "[7.0, 5.0]",
            ),
            (
                "int x = p; { int y = x; x = 9; y%%[0]; } x%%[0];",
                3,
                0,
                "[3.0, 9.0]",
            ),
            ("int x = p; x *= 2;", i64::MAX, 0, "Overflow"),
            (
                "int i; for (i = 0; ; i++) ;",
                1,
                0,
                r#"TypeError("for loop without a condition never terminates")"#,
            ),
            (eight, 1, limit - 8, "[]"),
            (eight, 1, limit - 7, "IterationLimit(200000000)"),
        ];
        for (scheme, p, spent, want) in table {
            assert_eq!(corner(scheme, p, spent), want, "{scheme}");
        }
    }

    #[test]
    fn forms_static_slots_cannot_express_are_rejected_at_compile_time() {
        let model = |scheme: &str| {
            CompiledModel::compile(&format!(
                "typedef struct {{int I; int J;}} Processor;
                 typedef struct {{int I; int J; int K;}} Triple;
                 algorithm T(int m, int w[m], int h[m][m][m][m]) {{ coord I=m, J=m;
                   node {{I>=0: bench*(1);}}; parent[0,0]; scheme {{ {scheme} }}; }}"
            ))
        };
        // A declaration as the whole body of an `if`, `for` or `par` would
        // declare its name only when the branch runs.
        for (head, decl) in [
            ("if (m > 0)", "int x;"),
            ("if (m > 0) ; else", "int x;"),
            ("int i; for (i = 0; i < m; i++)", "int x = i;"),
            ("int i; par (i = 0; i < m; i++)", "Processor R;"),
        ] {
            assert!(model(&format!("{head} {decl}")).is_err(), "{head} {decl}");
            // Braced, the declaration is block-local and fine.
            assert!(
                model(&format!("{head} {{ {decl} }}")).is_ok(),
                "{head} {{ {decl} }}"
            );
        }
        // GetProcessor writes I and J into a struct with exactly those fields.
        for out in [
            "int x; GetProcessor(0, 0, m, h, w, &x);",
            "Triple R; GetProcessor(0, 0, m, h, w, &R);",
            "Processor R; GetProcessor(0, 0, m, h, w, &R.I);",
            "GetProcessor(0, 0, m, h, w, &nowhere);",
        ] {
            assert!(model(out).is_err(), "{out}");
        }
        assert!(model("Processor R; GetProcessor(0, 0, m, h, w, &R);").is_ok());
    }

    #[test]
    fn a_variable_keeps_its_declared_kind() {
        // Assigning a whole struct or array to an integer, or an integer to
        // a struct, raises when (and only when) it runs; a struct copies
        // into a struct with the same fields.
        let src = |scheme: &str| {
            format!(
                "typedef struct {{int I; int J;}} Processor;
                 algorithm T(int p, int d[p]) {{ coord I=p; node {{I>=0: bench*(1);}}; parent[0];
                   scheme {{ Processor A, B; int x; {scheme} }}; }}"
            )
        };
        let run = |scheme: &str| {
            let model = CompiledModel::compile(&src(scheme)).unwrap();
            let inst = model
                .instantiate(&[ParamValue::Int(2), ParamValue::Array(vec![5, 6])])
                .unwrap();
            let mut sink = RecordingSink::default();
            inst.run_scheme(&mut sink).map(|()| sink.events)
        };
        for scheme in [
            "x = A;", "x = d;", "A = x;", "A = d;", "A.I = B;", "x.I = 1;",
        ] {
            assert!(
                matches!(run(scheme), Err(EvalError::TypeError(_))),
                "{scheme}"
            );
            assert!(
                run(&format!("if (p < 0) {{ {scheme} }}")).is_ok(),
                "untaken {scheme}"
            );
        }
        assert_eq!(run("A.K = 1;"), Err(EvalError::Undefined("field K".into())));
        let copied = run("B.I = 1; B.J = 1; A = B; (A.I + A.J)%%[A.J];").unwrap();
        assert_eq!(
            copied,
            vec![SchemeEvent::Compute {
                proc: 1,
                percent: 2.0
            }]
        );
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
