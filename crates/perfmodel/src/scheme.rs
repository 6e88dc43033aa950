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

use crate::ast::{AssignOp, Expr, LValue, Stmt};
use crate::error::{EvalError, ParseError};
use crate::eval::{compile_error, Call, Ex, Frame, Operand, Place, Scope, Var};

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

/// A lowered scheme statement. Lowering has resolved every name and
/// checked every kind, so a statement can fail only on values.
#[derive(Debug, Clone)]
pub(crate) enum Op {
    /// `slot = e`: declarations and plain assignments.
    Set(usize, Ex),
    /// `slot += e`, `-=` or `*=`, checked.
    Update(usize, AssignOp, Ex),
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
    /// it writes.
    Call(Box<Call>, (usize, usize)),
}

impl<'a> Scope<'a> {
    /// Lowers a scheme body in a scope of its own.
    ///
    /// # Errors
    /// [`ParseError`] for every error [`Scope::lower`] reports, and for a
    /// statement C would not compile either: an assignment that changes a
    /// variable's kind, a struct declaration of an unknown type or with an
    /// initialiser, a `for` or `par` without a condition, a call to an
    /// extern function other than `GetProcessor` or with the wrong
    /// arguments, and an activity with the wrong number of coordinates.
    /// Also for a declaration that is the whole body of an `if`, `for` or
    /// `par`, which would declare a name only when the branch runs.
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
            return Err(compile_error(msg));
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
            Stmt::Decl { ty, vars } => self.decl(ty, vars, ops)?,
            Stmt::Assign { lv, op, rhs } => ops.push(self.assign(lv, *op, rhs)?),
            Stmt::If { cond, then, els } => {
                let (cond, mut t, mut e) = (self.lower(cond)?, Vec::new(), Vec::new());
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
                let Some(cond) = cond else {
                    let kw = if par { "par" } else { "for" };
                    let msg = format!("{kw} loop without a condition never terminates");
                    return Err(compile_error(msg));
                };
                let (cond, mut looped) = (self.lower(cond)?, Vec::new());
                self.body(body, &mut looped)?;
                if let Some(s) = step {
                    self.body(s, &mut looped)?;
                }
                ops.push(Op::Loop(par, cond, looped.into()));
            }
            Stmt::Compute { percent, proc } => {
                ops.push(Op::Compute(self.lower(percent)?, self.place(proc)?));
            }
            Stmt::Transfer { percent, src, dst } => {
                let pct = self.lower(percent)?;
                ops.push(Op::Transfer(pct, self.place(src)?, self.place(dst)?));
            }
            Stmt::CallStmt { name, args } if name == "GetProcessor" => {
                let (call, out) = self.call(args)?;
                ops.push(Op::Call(Box::new(call), out));
            }
            Stmt::CallStmt { name, .. } => {
                return Err(compile_error(format!("undefined extern function `{name}`")))
            }
        }
        Ok(())
    }

    fn decl(
        &mut self,
        ty: &str,
        vars: &'a [(String, Option<Expr>)],
        ops: &mut Vec<Op>,
    ) -> Result<(), ParseError> {
        for (name, init) in vars {
            if ty == "int" {
                let e = init.as_ref().map_or(Ok(Ex::Int(0)), |e| self.lower(e))?;
                ops.push(Op::Set(self.int(name), e));
            } else if init.is_some() {
                return Err(compile_error(
                    "struct declarations cannot take initialisers",
                ));
            } else {
                let (base, len) = self
                    .strukt(name, ty)
                    .ok_or_else(|| compile_error(format!("unknown struct type `{ty}`")))?;
                ops.extend((base..base + len).map(|s| Op::Set(s, Ex::Int(0))));
            }
        }
        Ok(())
    }

    /// Lowers `lv op= rhs`. A variable keeps the kind it was declared with:
    /// only a struct variable with the same fields may be assigned a whole
    /// struct, and only an integer variable or a declared field an integer.
    fn assign(&self, lv: &LValue, op: AssignOp, rhs: &Expr) -> Result<Op, ParseError> {
        let (LValue::Var(name) | LValue::Member(name, _)) = lv;
        let target = self.get(name)?;
        // The integer slot written, if the target is one.
        let slot = match (lv, target) {
            (LValue::Var(_), Var::Int(s)) => Ok(s),
            (LValue::Var(_), v) => Err(self.kind_error("int", Some(v))),
            (LValue::Member(_, field), v) => self.field(v, field),
        };
        if op != AssignOp::Set {
            return Ok(Op::Update(slot?, op, self.lower(rhs)?));
        }
        match (self.operand(rhs)?, lv, target) {
            (Operand::Int(x), ..) => Ok(Op::Set(slot?, x)),
            (Operand::Whole(Var::Struct(b, from)), LValue::Var(_), Var::Struct(a, to))
                if self.fields(a) == self.fields(b) =>
            {
                Ok(Op::Copy(to, from, self.fields(a).len()))
            }
            (Operand::Whole(whole), LValue::Var(_), _) => {
                Err(self.kind_error("a value of the variable's declared kind", Some(whole)))
            }
            (Operand::Whole(whole), ..) => Err(self.kind_error("int", Some(whole))),
        }
    }
}

impl Frame<'_> {
    /// Replays lowered statements, feeding activities to `sink`.
    ///
    /// # Errors
    /// Any [`EvalError`] from expression evaluation or `GetProcessor`, plus
    /// [`EvalError::IterationLimit`] if loops run away and
    /// [`EvalError::BadProcessor`] for a coordinate outside the coordinate
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
                Op::Call(call, (si, sj)) => {
                    (self.slots[*si], self.slots[*sj]) = self.lookup(call)?;
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
        // `for (;;)` would never terminate; the compiler refuses it instead
        // of letting the interpreter hit the iteration cap.
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
        let err = CompiledModel::compile(src).unwrap_err();
        assert_eq!(err.message, "for loop without a condition never terminates");
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
        // Name and kind errors are compile errors, even in an untaken
        // branch: they sit in the compile-error table of
        // `forms_static_slots_cannot_express_are_rejected_at_compile_time`.
        let table: [(&str, i64, u64, &str); 6] = [
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
                 algorithm T(int m, int w[m], int h[m][m][m][m], int d[m]) {{ coord I=m, J=m;
                   node {{I>=0: bench*(1);}}; parent[0,0];
                   scheme {{ Processor A, B; int x; {scheme} }}; }}"
            ))
        };
        // A declaration as the whole body of an `if`, `for` or `par` would
        // declare its name only when the branch runs.
        for (head, decl) in [
            ("if (m > 0)", "int y;"),
            ("if (m > 0) ; else", "int y;"),
            ("int i; for (i = 0; i < m; i++)", "int y = i;"),
            ("int i; par (i = 0; i < m; i++)", "Processor R;"),
        ] {
            let err = model(&format!("{head} {decl}")).unwrap_err();
            let msg = "a declaration cannot be the whole body of an `if`, `for` or `par`";
            assert_eq!(err.message, msg, "{head} {decl}");
            // Braced, the declaration is block-local and fine.
            assert!(
                model(&format!("{head} {{ {decl} }}")).is_ok(),
                "{head} {{ {decl} }}"
            );
        }
        // As in C, every name and kind is checked at compile time, in
        // taken and untaken branches alike.
        let out = "extern function `GetProcessor`: the last argument must be `&` a struct \
                   variable with exactly the fields I and J";
        let activity = "bad abstract processor: [0] names 1 coordinates but the \
                        coordinate space has 2";
        for (scheme, want) in [
            ("if (m > 0) mystery%%[0, 0];", "undefined name `mystery`"),
            ("if (m < 0) mystery%%[0, 0];", "undefined name `mystery`"),
            ("if (m > 0) ; else mystery%%[0, 0];", "undefined name `mystery`"),
            ("if (m > 3) 100%%[Ii, 0]; else 100%%[0, 0];", "undefined name `Ii`"),
            ("if (m < 0) nope += 1;", "undefined name `nope`"),
            ("if (A) 100%%[0, 0];", "type error: expected int, found Processor {..}"),
            ("A.I %%[0, 0]; A.K %%[0, 0];", "struct `Processor` has no field `K`"),
            ("m.I %%[0, 0];", "type error: expected struct, found int"),
            ("w.I %%[0, 0];", "type error: expected struct, found int array of rank 1"),
            ("m[0] %%[0, 0];", "type error: expected array, found int"),
            ("(m + 1)[0] %%[0, 0];", "type error: cannot index into `(m + 1)`"),
            (
                "h[0][0] %%[0, 0];",
                "type error: `h` has rank 4 but was indexed with 2 subscripts",
            ),
            ("x = sizeof(quux);", "type error: sizeof unknown type `quux`"),
            ("Triple R = 1;", "struct declarations cannot take initialisers"),
            // A variable keeps its declared kind, in an untaken branch too.
            (
                "if (m < 0) { x = A; }",
                "type error: expected a value of the variable's declared kind, found Processor {..}",
            ),
            (
                "if (m < 0) { x = d; }",
                "type error: expected a value of the variable's declared kind, found int array of rank 1",
            ),
            ("if (m < 0) { A = x; }", "type error: expected int, found Processor {..}"),
            (
                "if (m < 0) { A = d; }",
                "type error: expected a value of the variable's declared kind, found int array of rank 1",
            ),
            ("if (m < 0) { A.I = B; }", "type error: expected int, found Processor {..}"),
            ("if (m < 0) { x.I = 1; }", "type error: expected struct, found int"),
            ("if (m < 0) { A.K = 1; }", "struct `Processor` has no field `K`"),
            (
                "Triple R; if (m < 0) { A = R; }",
                "type error: expected a value of the variable's declared kind, found Triple {..}",
            ),
            (
                "int i; for (i = 0; ; i++) ;",
                "for loop without a condition never terminates",
            ),
            (
                "int i; par (i = 0; ; i++) ;",
                "par loop without a condition never terminates",
            ),
            // `GetProcessor` is the one extern function, and a statement.
            ("if (m < 0) Frobnicate(m);", "undefined extern function `Frobnicate`"),
            ("x = sqrt(m);", "undefined extern function `sqrt`"),
            (
                "x = GetProcessor(0, 0, m, h, w);",
                "extern function `GetProcessor`: used in expression position but returns no value",
            ),
            (
                "GetProcessor(0, 0, m, h, &A);",
                "extern function `GetProcessor`: expected 6 arguments, got 5",
            ),
            (
                "GetProcessor(0, A, m, h, w, &A);",
                "type error: expected int, found Processor {..}",
            ),
            (
                "GetProcessor(0, 0, m, h, &A, &A);",
                "extern function `GetProcessor`: only the last argument is passed by `&`",
            ),
            (
                "GetProcessor(0, 0, m, m, w, &A);",
                "type error: expected int array of rank 4, found int",
            ),
            (
                "GetProcessor(0, 0, m, d, w, &A);",
                "type error: expected int array of rank 4, found int array of rank 1",
            ),
            (
                "GetProcessor(0, 0, m, h, h, &A);",
                "type error: expected int array of rank 1, found int array of rank 4",
            ),
            // It writes I and J into a struct with exactly those fields.
            ("GetProcessor(0, 0, m, h, w, &x);", out),
            ("Triple R; GetProcessor(0, 0, m, h, w, &R);", out),
            ("GetProcessor(0, 0, m, h, w, &A.I);", out),
            ("GetProcessor(0, 0, m, h, w, &nowhere);", out),
            ("GetProcessor(0, 0, m, h, w, A);", out),
            // An activity names every coordinate.
            ("if (m < 0) 100%%[0];", activity),
            ("100%%[0, 0]->[0];", activity),
        ] {
            let err = model(scheme).unwrap_err();
            assert_eq!((err.message.as_str(), err.line, err.col), (want, 1, 1), "{scheme}");
        }
        assert!(model("GetProcessor(0, 0, m, h, w, &A);").is_ok());
    }

    #[test]
    fn a_variable_keeps_its_declared_kind() {
        // Assigning a whole struct or array to an integer, or an integer to
        // a struct, is a compile error (the untaken forms sit in the
        // compile-error table above); a struct copies into a struct with
        // the same fields.
        let src = |scheme: &str| {
            format!(
                "typedef struct {{int I; int J;}} Processor;
                 algorithm T(int p, int d[p]) {{ coord I=p; node {{I>=0: bench*(1);}}; parent[0];
                   scheme {{ Processor A, B; int x; {scheme} }}; }}"
            )
        };
        for (scheme, want) in [
            ("x = A;", "found Processor {..}"),
            ("x = d;", "found int array of rank 1"),
            ("A = x;", "found Processor {..}"),
            ("A = d;", "found int array of rank 1"),
            ("A.I = B;", "found Processor {..}"),
            ("x.I = 1;", "found int"),
            ("A.K = 1;", "no field `K`"),
        ] {
            let err = CompiledModel::compile(&src(scheme)).unwrap_err();
            assert!(err.message.ends_with(want), "{scheme}: {err}");
        }
        let model =
            CompiledModel::compile(&src("B.I = 1; B.J = 1; A = B; (A.I + A.J)%%[A.J];")).unwrap();
        let inst = model
            .instantiate(&[ParamValue::Int(2), ParamValue::Array(vec![5, 6])])
            .unwrap();
        let mut sink = RecordingSink::default();
        inst.run_scheme(&mut sink).unwrap();
        assert_eq!(
            sink.events,
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
