//! Expressions, lowered once and evaluated over a flat frame.
//!
//! [`Scope`] lowers an [`Expr`] to an [`Ex`] at compile time: every name
//! resolves lexically to a frame slot (a struct variable is one slot per
//! field) or to an array parameter, and `sizeof` folds to its constant. A
//! name that does not resolve, or a value of the wrong kind, lowers to an
//! [`Ex::Fail`] node that raises the error only when it is evaluated, so an
//! untaken branch still cannot fail.
//!
//! Two evaluation contexts walk the same tree, per the crate-level
//! semantics note: [`Frame::int`] (array subscripts, loop control, guards —
//! checked `i64` with C truncating division) and [`Frame::num`] (volume and
//! percentage expressions — `f64` with true division).

use crate::ast::{BinOp, Expr, LValue, StructDef, UnOp};
use crate::error::EvalError;
use crate::value::ArrayVal;

/// A lowered expression.
#[derive(Debug, Clone)]
pub(crate) enum Ex {
    /// A constant.
    Int(i64),
    /// An integer variable, or one field of a struct variable.
    Slot(usize),
    /// An element of array parameter `.0`; the subscripts are stored left
    /// to right and evaluated right to left, as the source chain nests.
    Elem(usize, Box<[Ex]>),
    /// A unary operation.
    Unary(UnOp, Box<Ex>),
    /// A binary operation.
    Binary(BinOp, Box<Ex>, Box<Ex>),
    /// Evaluates `.0` in order for their errors, then raises `.1`.
    Fail(Box<[Ex]>, Box<EvalError>),
    /// A `GetProcessor` lookup evaluated for its errors only: the call
    /// returns no value, so this node sits inside a `Fail`.
    Call(Box<Call>),
}

/// The lowered coordinates of an abstract processor.
pub(crate) type Place = Box<[Ex]>;

/// A node that evaluates `first` and then raises `err`.
pub(crate) fn fail(first: Vec<Ex>, err: EvalError) -> Ex {
    Ex::Fail(first.into(), Box::new(err))
}

/// A lowered `GetProcessor(row, col, m, h, w, &out)` lookup.
#[derive(Debug, Clone)]
pub(crate) struct Call {
    /// The integer-valued arguments, in order; in a well-formed call
    /// `row`, `col` and `m` come first.
    args: Vec<Ex>,
    /// The `h` and `w` array parameters, or the arity or kind error the
    /// call raises once its arguments are evaluated.
    arrays: Result<(usize, usize), EvalError>,
}

/// What a name resolves to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Var {
    /// An integer in this slot.
    Int(usize),
    /// An array parameter: its index among the instance's arrays, and its
    /// rank.
    Array(usize, usize),
    /// A struct variable: its typedef and the slot of its first field.
    Struct(usize, usize),
}

/// A lowered call argument (or assignment right-hand side): an integer
/// expression, or a whole array or struct variable.
pub(crate) enum Operand {
    /// Evaluates to an integer (or fails).
    Int(Ex),
    /// An array or struct variable, passed whole.
    Whole(Var),
}

/// The lexical scopes of the lowering pass, innermost last. Every
/// declaration takes fresh slots, so shadowed names keep distinct ones.
#[derive(Debug, Default)]
pub(crate) struct Scope<'a> {
    structs: &'a [StructDef],
    vars: Vec<(&'a str, Var)>,
    marks: Vec<usize>,
    /// Slots allocated so far: the frame size.
    pub(crate) slots: usize,
    /// Array parameters declared so far.
    arrays: usize,
    /// The number of coordinates an activity names.
    pub(crate) rank: usize,
}

impl<'a> Scope<'a> {
    /// An empty global scope over the program's struct typedefs, for a
    /// model of `rank` coordinates.
    pub(crate) fn new(structs: &'a [StructDef], rank: usize) -> Self {
        Scope {
            structs,
            rank,
            ..Scope::default()
        }
    }

    /// Enters a nested scope.
    pub(crate) fn push(&mut self) {
        self.marks.push(self.vars.len());
    }

    /// Leaves the innermost scope.
    ///
    /// # Panics
    /// Panics if only the global scope remains (a lowering bug).
    pub(crate) fn pop(&mut self) {
        let mark = self.marks.pop().expect("cannot pop the global scope");
        self.vars.truncate(mark);
    }

    /// Declares an integer variable in a fresh slot, shadowing outer
    /// bindings of `name`.
    pub(crate) fn int(&mut self, name: &'a str) -> usize {
        self.vars.push((name, Var::Int(self.slots)));
        self.slots += 1;
        self.slots - 1
    }

    /// Declares an array parameter of the given rank.
    pub(crate) fn array(&mut self, name: &'a str, rank: usize) {
        self.vars.push((name, Var::Array(self.arrays, rank)));
        self.arrays += 1;
    }

    /// Declares a variable of struct type `ty` (the last typedef of that
    /// name), returning its first slot and field count; `None` for an
    /// unknown type.
    pub(crate) fn strukt(&mut self, name: &'a str, ty: &str) -> Option<(usize, usize)> {
        let t = self.structs.iter().rposition(|s| s.name == ty)?;
        let (base, len) = (self.slots, self.structs[t].fields.len());
        self.slots += len;
        self.vars.push((name, Var::Struct(t, base)));
        Some((base, len))
    }

    /// Resolves a name, innermost binding first.
    ///
    /// # Errors
    /// [`EvalError::Undefined`] if nothing of that name is in scope.
    pub(crate) fn get(&self, name: &str) -> Result<Var, EvalError> {
        self.vars
            .iter()
            .rev()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
            .ok_or_else(|| EvalError::Undefined(name.to_string()))
    }

    /// The fields of struct typedef `ty`.
    pub(crate) fn fields(&self, ty: usize) -> &'a [String] {
        &self.structs[ty].fields
    }

    /// The slot of `var.field`.
    ///
    /// # Errors
    /// [`EvalError::TypeError`] if `var` is not a struct,
    /// [`EvalError::Undefined`] if it has no such field.
    pub(crate) fn field(&self, var: Var, field: &str) -> Result<usize, EvalError> {
        let Var::Struct(ty, base) = var else {
            return Err(self.kind_error("struct", Some(var)));
        };
        let k = self.fields(ty).iter().position(|f| f == field);
        k.map(|k| base + k)
            .ok_or_else(|| EvalError::Undefined(format!("field {field}")))
    }

    /// The `I` and `J` slots of a `GetProcessor` out-argument: a struct
    /// variable whose fields are exactly `I` and `J`.
    pub(crate) fn processor(&self, lv: &LValue) -> Option<(Var, (usize, usize))> {
        let LValue::Var(name) = lv else { return None };
        let var = self.get(name).ok()?;
        let Var::Struct(ty, _) = var else { return None };
        let slots = (self.field(var, "I").ok()?, self.field(var, "J").ok()?);
        (self.fields(ty).len() == 2).then_some((var, slots))
    }

    /// `expected {want}, found ...` for a value of the wrong kind (`None`
    /// is an integer).
    pub(crate) fn kind_error(&self, want: &str, found: Option<Var>) -> EvalError {
        let found = match found {
            None | Some(Var::Int(_)) => "int".to_string(),
            Some(Var::Array(_, rank)) => format!("int array of rank {rank}"),
            Some(Var::Struct(ty, _)) => format!("{} {{..}}", self.structs[ty].name),
        };
        EvalError::TypeError(format!("expected {want}, found {found}"))
    }

    /// Lowers an expression for either evaluation context.
    pub(crate) fn lower(&self, e: &Expr) -> Ex {
        match e {
            Expr::Int(n) => Ex::Int(*n),
            Expr::Var(name) => match self.get(name) {
                Ok(Var::Int(s)) => Ex::Slot(s),
                Ok(v) => fail(vec![], self.kind_error("int", Some(v))),
                Err(u) => fail(vec![], u),
            },
            Expr::SizeOf(ty) => sizeof(ty).map_or_else(|e| fail(vec![], e), Ex::Int),
            Expr::Member(base, field) => match self.operand(base) {
                Operand::Whole(v) => self
                    .field(v, field)
                    .map_or_else(|e| fail(vec![], e), Ex::Slot),
                Operand::Int(x) => fail(vec![x], self.kind_error("struct", None)),
            },
            Expr::Index(..) => self.index(e),
            Expr::Unary(op, x) => Ex::Unary(*op, Box::new(self.lower(x))),
            Expr::Binary(op, a, b) => {
                Ex::Binary(*op, Box::new(self.lower(a)), Box::new(self.lower(b)))
            }
            Expr::Call(name, args) if name == "GetProcessor" => {
                let call = self.call(args.iter().map(|a| self.operand(a)).collect());
                fail(
                    vec![Ex::Call(Box::new(call))],
                    extern_error("used in expression position but returned no value".into()),
                )
            }
            Expr::Call(name, _) => fail(vec![], unknown_extern(name)),
        }
    }

    /// Lowers a call argument: a whole array or struct variable, or an
    /// integer expression.
    pub(crate) fn operand(&self, e: &Expr) -> Operand {
        match e {
            Expr::Var(name) => match self.get(name) {
                Ok(v @ (Var::Array(..) | Var::Struct(..))) => Operand::Whole(v),
                _ => Operand::Int(self.lower(e)),
            },
            _ => Operand::Int(self.lower(e)),
        }
    }

    /// Lowers a subscript chain `a[i][j]...`. Every subscript is evaluated
    /// before the array is looked up and any bound is checked.
    fn index(&self, e: &Expr) -> Ex {
        let mut subs = Vec::new();
        let mut cur = e;
        while let Expr::Index(base, idx) = cur {
            subs.push(self.lower(idx));
            cur = base;
        }
        let err = match cur {
            Expr::Var(name) => match self.get(name) {
                Ok(Var::Array(a, rank)) if rank == subs.len() => {
                    subs.reverse();
                    return Ex::Elem(a, subs.into());
                }
                Ok(Var::Array(_, rank)) => EvalError::TypeError(format!(
                    "`{name}` has rank {rank} but was indexed with {} subscripts",
                    subs.len()
                )),
                Ok(v) => self.kind_error("array", Some(v)),
                Err(u) => u,
            },
            other => EvalError::TypeError(format!("cannot index into {other:?}")),
        };
        fail(subs, err)
    }

    /// Lowers a `GetProcessor` call over its lowered arguments.
    pub(crate) fn call(&self, operands: Vec<Operand>) -> Call {
        let arity = operands.len();
        let (mut args, mut kinds) = (Vec::new(), Vec::new());
        for a in operands {
            kinds.push(match a {
                Operand::Int(x) => {
                    args.push(x);
                    None
                }
                Operand::Whole(v) => Some(v),
            });
        }
        let arrays = if arity != 6 {
            Err(extern_error(format!("expected 6 arguments, got {arity}")))
        } else if let Some(&found) = kinds[..3].iter().find(|k| k.is_some()) {
            Err(self.kind_error("int", found))
        } else {
            match (kinds[3], kinds[4]) {
                (Some(Var::Array(h, _)), Some(Var::Array(w, _))) => Ok((h, w)),
                (Some(Var::Array(..)), found) | (found, _) => Err(self.kind_error("array", found)),
            }
        };
        Call { args, arrays }
    }

    /// Lowers the coordinates of an abstract processor: a scheme
    /// `activity`, or a `link` end or the `parent`. A wrong count raises
    /// `BadProcessor` when evaluated.
    pub(crate) fn place(&self, coords: &[Expr], activity: bool) -> Place {
        let (n, rank) = (coords.len(), self.rank);
        if n == rank {
            return coords.iter().map(|c| self.lower(c)).collect();
        }
        let msg = if activity {
            format!("activity names {n} coordinates but the coordinate space has {rank}")
        } else {
            format!("{n} coordinates given, {rank} expected")
        };
        Box::new([fail(vec![], EvalError::BadProcessor(msg))])
    }
}

fn extern_error(message: String) -> EvalError {
    EvalError::ExternError {
        name: "GetProcessor".into(),
        message,
    }
}

/// The error for a call to any extern function but `GetProcessor`.
pub(crate) fn unknown_extern(name: &str) -> EvalError {
    EvalError::Undefined(format!("extern function {name}"))
}

/// C byte size of a named type (`sizeof(double)` in Figure 4/7).
///
/// # Errors
/// [`EvalError::TypeError`] for unknown type names.
pub fn sizeof(ty: &str) -> Result<i64, EvalError> {
    match ty {
        "char" => Ok(1),
        "short" => Ok(2),
        "int" | "float" => Ok(4),
        "long" | "double" => Ok(8),
        other => Err(EvalError::TypeError(format!(
            "sizeof unknown type `{other}`"
        ))),
    }
}

/// The Figure 7 builtin: `GetProcessor(row, col, m, h, w, &Root)`, called
/// with `at = [row, col, m]`, returns in
/// `Root` the grid coordinates `(I, J)` of the abstract processor whose
/// rectangle of a generalised block contains the `r × r` block at
/// `(row, col)`.
///
/// Column slices have widths `w[J]`; within the column slice `J`, row slices
/// have heights `h[I][J][I][J]`.
///
/// # Errors
/// [`EvalError::ExternError`] for coordinates outside the generalised
/// block, [`EvalError::Overflow`] if the running sum of `w` or `h` leaves
/// `i64`, and the array lookups' errors.
pub fn get_processor(at: [i64; 3], h: &ArrayVal, w: &ArrayVal) -> Result<(i64, i64), EvalError> {
    let [row, col, m] = at;
    let j = first_slice(m, col, |j| w.get("w", &[j]))?
        .ok_or_else(|| extern_error(format!("column {col} beyond the generalised block")))?;
    let i = first_slice(m, row, |i| h.get("h", &[i, j, i, j]))?
        .ok_or_else(|| extern_error(format!("row {row} beyond the generalised block")))?;
    Ok((i, j))
}

/// The smallest `k` in `0..m` whose running sum of `size(0..=k)` exceeds
/// `at`.
fn first_slice(
    m: i64,
    at: i64,
    size: impl Fn(i64) -> Result<i64, EvalError>,
) -> Result<Option<i64>, EvalError> {
    let mut acc = 0i64;
    for k in 0..m {
        acc = acc.checked_add(size(k)?).ok_or(EvalError::Overflow)?;
        if at < acc {
            return Ok(Some(k));
        }
    }
    Ok(None)
}

/// An evaluation frame: the slots, the instance's array parameters and its
/// coordinate space.
#[derive(Debug)]
pub(crate) struct Frame<'a> {
    /// One `i64` per slot of the lowered model.
    pub(crate) slots: Vec<i64>,
    /// The array parameters bound so far, with their names.
    pub(crate) arrays: &'a [(String, ArrayVal)],
    /// The coordinate extents activities linearise against.
    pub(crate) extents: &'a [usize],
    /// Loop iterations run so far, against `ITERATION_LIMIT`.
    pub(crate) iterations: u64,
}

impl<'a> Frame<'a> {
    /// A frame over `slots` that has run no loop iteration yet.
    pub(crate) fn new(
        slots: Vec<i64>,
        arrays: &'a [(String, ArrayVal)],
        extents: &'a [usize],
    ) -> Self {
        Frame {
            slots,
            arrays,
            extents,
            iterations: 0,
        }
    }

    /// Sets `slots` to the row-major coordinates of `linear` in `extents`.
    pub(crate) fn unflatten(
        &mut self,
        slots: impl DoubleEndedIterator<Item = usize>,
        extents: &[usize],
        mut linear: usize,
    ) {
        for (s, &extent) in slots.rev().zip(extents.iter().rev()) {
            self.slots[s] = (linear % extent) as i64;
            linear /= extent;
        }
    }

    /// Integer-context evaluation (guards, indices, loop control). C
    /// semantics: truncating division, comparisons yield 0/1, `&&`/`||`
    /// short-circuit over zero/nonzero.
    ///
    /// # Errors
    /// [`EvalError::DivisionByZero`], [`EvalError::Overflow`],
    /// [`EvalError::IndexOutOfBounds`] and whatever a `Fail` node raises.
    pub(crate) fn int(&self, e: &Ex) -> Result<i64, EvalError> {
        match e {
            Ex::Int(n) => Ok(*n),
            Ex::Slot(s) => Ok(self.slots[*s]),
            Ex::Elem(a, subs) => self.elem(*a, subs),
            Ex::Unary(UnOp::Neg, x) => self.int(x)?.checked_neg().ok_or(EvalError::Overflow),
            Ex::Unary(UnOp::Not, x) => Ok(i64::from(self.int(x)? == 0)),
            // `&&` and `||` short-circuit, as Rust's do.
            Ex::Binary(BinOp::And, a, b) => Ok(i64::from(self.int(a)? != 0 && self.int(b)? != 0)),
            Ex::Binary(BinOp::Or, a, b) => Ok(i64::from(self.int(a)? != 0 || self.int(b)? != 0)),
            Ex::Binary(op, a, b) => {
                let x = self.int(a)?;
                let y = self.int(b)?;
                if y == 0 && matches!(op, BinOp::Div | BinOp::Rem) {
                    return Err(EvalError::DivisionByZero);
                }
                match op {
                    BinOp::Add => x.checked_add(y),
                    BinOp::Sub => x.checked_sub(y),
                    BinOp::Mul => x.checked_mul(y),
                    BinOp::Div => x.checked_div(y),
                    BinOp::Rem => x.checked_rem(y),
                    BinOp::Eq => Some(i64::from(x == y)),
                    BinOp::Ne => Some(i64::from(x != y)),
                    BinOp::Lt => Some(i64::from(x < y)),
                    BinOp::Gt => Some(i64::from(x > y)),
                    BinOp::Le => Some(i64::from(x <= y)),
                    BinOp::Ge => Some(i64::from(x >= y)),
                    BinOp::And | BinOp::Or => unreachable!("handled above"),
                }
                .ok_or(EvalError::Overflow)
            }
            Ex::Fail(first, err) => {
                for x in first.iter() {
                    self.int(x)?;
                }
                Err((**err).clone())
            }
            Ex::Call(c) => self.lookup(c).map(|_| 0),
        }
    }

    /// Numeric-context evaluation (volumes and percentages): everything
    /// promotes to `f64`, `/` is true division, and both sides of `&&` and
    /// `||` are evaluated.
    ///
    /// # Errors
    /// As [`Frame::int`]; division by (exact) zero is reported rather than
    /// producing infinity.
    pub(crate) fn num(&self, e: &Ex) -> Result<f64, EvalError> {
        match e {
            Ex::Int(n) => Ok(*n as f64),
            Ex::Unary(UnOp::Neg, x) => Ok(-self.num(x)?),
            Ex::Unary(UnOp::Not, x) => Ok(f64::from(self.num(x)? == 0.0)),
            Ex::Binary(op, a, b) => {
                let x = self.num(a)?;
                let y = self.num(b)?;
                if y == 0.0 && matches!(op, BinOp::Div | BinOp::Rem) {
                    return Err(EvalError::DivisionByZero);
                }
                Ok(match op {
                    BinOp::Add => x + y,
                    BinOp::Sub => x - y,
                    BinOp::Mul => x * y,
                    BinOp::Div => x / y,
                    BinOp::Rem => x % y,
                    BinOp::Eq => f64::from(x == y),
                    BinOp::Ne => f64::from(x != y),
                    BinOp::Lt => f64::from(x < y),
                    BinOp::Gt => f64::from(x > y),
                    BinOp::Le => f64::from(x <= y),
                    BinOp::Ge => f64::from(x >= y),
                    BinOp::And => f64::from(x != 0.0 && y != 0.0),
                    BinOp::Or => f64::from(x != 0.0 || y != 0.0),
                })
            }
            _ => Ok(self.int(e)? as f64),
        }
    }

    /// `a[subs...]`: all subscripts evaluated (right to left), then the
    /// leftmost one out of bounds reported.
    fn elem(&self, a: usize, subs: &[Ex]) -> Result<i64, EvalError> {
        let (name, arr) = &self.arrays[a];
        let (mut flat, mut stride, mut bad) = (0, 1, None);
        for (e, &extent) in subs.iter().zip(&arr.dims).rev() {
            let i = self.int(e)?;
            if i < 0 || i as usize >= extent {
                bad = Some((i, extent));
            } else {
                flat += i as usize * stride;
            }
            stride *= extent;
        }
        match bad {
            None => Ok(arr.data[flat]),
            Some((index, extent)) => Err(EvalError::IndexOutOfBounds {
                name: name.clone(),
                index,
                extent,
            }),
        }
    }

    /// Runs a `GetProcessor` lookup, returning `(I, J)`.
    pub(crate) fn lookup(&self, c: &Call) -> Result<(i64, i64), EvalError> {
        let mut v = [0; 3];
        for (k, x) in c.args.iter().enumerate() {
            let n = self.int(x)?;
            if k < 3 {
                v[k] = n;
            }
        }
        let (h, w) = c.arrays.clone()?;
        get_processor(v, &self.arrays[h].1, &self.arrays[w].1)
    }

    /// The linear (row-major) index of the processor at `coords`.
    ///
    /// # Errors
    /// [`EvalError::BadProcessor`] for a coordinate outside the space.
    pub(crate) fn linear(&self, coords: &[Ex]) -> Result<usize, EvalError> {
        let mut linear = 0usize;
        for (k, e) in coords.iter().enumerate() {
            let c = self.int(e)?;
            let extent = self.extents[k];
            if c < 0 || c as usize >= extent {
                return Err(EvalError::BadProcessor(format!(
                    "coordinate {c} outside 0..{extent}"
                )));
            }
            linear = linear * extent + c as usize;
        }
        Ok(linear)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::parser::parse_program;

    /// Named test bindings: integers, then array parameters.
    #[derive(Default)]
    pub(crate) struct Bindings {
        ints: Vec<(&'static str, i64)>,
        arrays: Vec<(&'static str, ArrayVal)>,
    }

    impl Bindings {
        pub(crate) fn new(ints: &[(&'static str, i64)]) -> Self {
            Bindings {
                ints: ints.to_vec(),
                arrays: Vec::new(),
            }
        }

        pub(crate) fn array(mut self, name: &'static str, a: ArrayVal) -> Self {
            self.arrays.push((name, a));
            self
        }

        /// Lowers `e` with these bindings in scope and evaluates it.
        fn eval<T>(&self, e: &Expr, f: impl Fn(&Frame, &Ex) -> T) -> T {
            let mut scope = Scope::default();
            for (name, _) in &self.ints {
                scope.int(name);
            }
            for (name, a) in &self.arrays {
                scope.array(name, a.dims.len());
            }
            let ex = scope.lower(e);
            let arrays: Vec<_> = self
                .arrays
                .iter()
                .map(|(n, a)| (n.to_string(), a.clone()))
                .collect();
            let frame = Frame {
                slots: self.ints.iter().map(|&(_, v)| v).collect(),
                arrays: &arrays,
                extents: &[],
                iterations: 0,
            };
            f(&frame, &ex)
        }
    }

    /// Integer-context evaluation of an AST expression.
    pub(crate) fn eval_int(b: &Bindings, e: &Expr) -> Result<i64, EvalError> {
        b.eval(e, |f, ex| f.int(ex))
    }

    /// Numeric-context evaluation of an AST expression.
    pub(crate) fn eval_num(b: &Bindings, e: &Expr) -> Result<f64, EvalError> {
        b.eval(e, |f, ex| f.num(ex))
    }

    fn expr(src: &str) -> Expr {
        // Wrap in a minimal algorithm so we can reuse the real parser.
        let prog = parse_program(&format!(
            "algorithm T(int p) {{ coord I=p; node {{I>=0: bench*({src});}}; parent[0]; scheme {{;}}; }}"
        ))
        .unwrap();
        prog.algorithms[0].node_rules[0].volume.clone()
    }

    fn env_with(vars: &[(&'static str, i64)]) -> Bindings {
        Bindings::new(vars)
    }

    #[test]
    fn declare_and_get() {
        let env = env_with(&[("x", 3)]);
        assert_eq!(eval_int(&env, &expr("x")).unwrap(), 3);
        assert!(eval_int(&env, &expr("y")).is_err());
    }

    #[test]
    fn inner_scope_shadows_and_pops() {
        let mut scope = Scope::default();
        let outer = scope.int("x");
        scope.push();
        let inner = scope.int("x");
        assert_eq!(scope.get("x"), Ok(Var::Int(inner)));
        scope.pop();
        assert_eq!(scope.get("x"), Ok(Var::Int(outer)));
        assert_ne!(inner, outer);
    }

    #[test]
    fn assign_updates_innermost_binding() {
        let model = crate::CompiledModel::compile(
            "algorithm T() { coord I=1; node {I>=0: bench*(1);}; parent[0];
               scheme { int x = 1; { x = 9; } x%%[0]; }; }",
        )
        .unwrap();
        let mut sink = crate::RecordingSink::default();
        let inst = model.instantiate(&[]).unwrap();
        crate::PerformanceModel::run_scheme(&inst, &mut sink).unwrap();
        let x9 = crate::SchemeEvent::Compute {
            proc: 0,
            percent: 9.0,
        };
        assert_eq!(sink.events, vec![x9]);
    }

    #[test]
    fn assign_to_undeclared_fails() {
        let model = crate::CompiledModel::compile(
            "algorithm T() { coord I=1; node {I>=0: bench*(1);}; parent[0];
               scheme { nope = 0; }; }",
        )
        .unwrap();
        let inst = model.instantiate(&[]).unwrap();
        let mut sink = crate::RecordingSink::default();
        assert!(crate::PerformanceModel::run_scheme(&inst, &mut sink).is_err());
    }

    #[test]
    #[should_panic]
    fn popping_global_scope_panics() {
        let mut scope = Scope::default();
        scope.pop();
    }

    #[test]
    fn int_arithmetic_is_c_like() {
        let env = env_with(&[("k", 7), ("l", 3)]);
        assert_eq!(eval_int(&env, &expr("k/l")).unwrap(), 2);
        assert_eq!(eval_int(&env, &expr("k%l")).unwrap(), 1);
        assert_eq!(eval_int(&env, &expr("-k+1")).unwrap(), -6);
    }

    #[test]
    fn num_division_is_true_division() {
        let env = env_with(&[("n", 200)]);
        let v = eval_num(&env, &expr("100/n")).unwrap();
        assert!((v - 0.5).abs() < 1e-12);
        // The same expression in int context is zero: the exact trap the
        // crate-level semantics note documents.
        assert_eq!(eval_int(&env, &expr("100/n")).unwrap(), 0);
    }

    #[test]
    fn comparisons_and_logic() {
        let env = env_with(&[("I", 2), ("L", 2)]);
        assert_eq!(eval_int(&env, &expr("I>=0 && I!=L")).unwrap(), 0);
        assert_eq!(eval_int(&env, &expr("I>=0 || I!=L")).unwrap(), 1);
        assert_eq!(eval_int(&env, &expr("!(I==L)")).unwrap(), 0);
    }

    #[test]
    fn short_circuit_protects_rhs() {
        // I != 0 && d[I] > 0 with I = -1 must not index d.
        let env = env_with(&[("I", -1)]).array("d", ArrayVal::new(vec![2], vec![5, 6]).unwrap());
        assert_eq!(eval_int(&env, &expr("I>=0 && d[I]>0")).unwrap(), 0);
    }

    #[test]
    fn array_indexing_multi_dim() {
        let dep = ArrayVal::new(vec![2, 2], vec![0, 1, 2, 3]).unwrap();
        let env = env_with(&[("I", 1), ("L", 0)]).array("dep", dep);
        assert_eq!(eval_int(&env, &expr("dep[I][L]")).unwrap(), 2);
        assert_eq!(
            eval_num(&env, &expr("dep[I][L]*sizeof(double)")).unwrap(),
            16.0
        );
    }

    #[test]
    fn division_by_zero_reported() {
        let env = env_with(&[("z", 0)]);
        assert_eq!(eval_int(&env, &expr("1/z")), Err(EvalError::DivisionByZero));
        assert_eq!(eval_num(&env, &expr("1/z")), Err(EvalError::DivisionByZero));
    }

    #[test]
    fn integer_overflow_reported() {
        let env = env_with(&[("lo", i64::MIN), ("hi", i64::MAX)]);
        for src in ["lo/(0-1)", "lo%(0-1)", "-lo", "hi*hi", "hi+1", "lo-1"] {
            let got = eval_int(&env, &expr(src));
            assert_eq!(got, Err(EvalError::Overflow), "{src}");
        }
        // Division by zero keeps its own error; in-range edges still work.
        let by_zero = eval_int(&env, &expr("lo/0"));
        assert_eq!(by_zero, Err(EvalError::DivisionByZero));
        assert_eq!(eval_int(&env, &expr("lo/1")).unwrap(), i64::MIN);
        assert_eq!(eval_int(&env, &expr("-hi")).unwrap(), -i64::MAX);
    }

    #[test]
    fn sizeof_table() {
        assert_eq!(sizeof("double").unwrap(), 8);
        assert_eq!(sizeof("int").unwrap(), 4);
        assert_eq!(sizeof("char").unwrap(), 1);
        assert!(sizeof("quux").is_err());
    }

    #[test]
    fn get_processor_builtin_maps_block_coords() {
        // m = 2; widths w = [3, 1] (l = 4); heights in column 0: [1, 3],
        // column 1: [2, 2].
        let m = 2i64;
        // h[I][J][I][J]: only diagonal entries matter here.
        let mut h = vec![0i64; 16];
        let at = |i: usize, j: usize, k: usize, l: usize| ((i * 2 + j) * 2 + k) * 2 + l;
        h[at(0, 0, 0, 0)] = 1;
        h[at(1, 0, 1, 0)] = 3;
        h[at(0, 1, 0, 1)] = 2;
        h[at(1, 1, 1, 1)] = 2;
        let h = ArrayVal::new(vec![2, 2, 2, 2], h).unwrap();
        let w = ArrayVal::new(vec![2], vec![3, 1]).unwrap();
        let coords = |row: i64, col: i64| get_processor([row, col, m], &h, &w).unwrap();
        assert_eq!(coords(0, 0), (0, 0));
        assert_eq!(coords(0, 2), (0, 0));
        assert_eq!(coords(0, 3), (0, 1));
        assert_eq!(coords(1, 0), (1, 0)); // row 1 is past column-0's first slice (height 1)
        assert_eq!(coords(1, 3), (0, 1)); // column 1's first slice has height 2
        assert_eq!(coords(3, 3), (1, 1));
    }

    #[test]
    fn get_processor_rejects_out_of_block() {
        let h = ArrayVal::new(vec![1, 1, 1, 1], vec![1]).unwrap();
        let w = ArrayVal::new(vec![1], vec![1]).unwrap();
        assert!(matches!(
            get_processor([0, 99, 1], &h, &w),
            Err(EvalError::ExternError { .. })
        ));
    }

    #[test]
    fn get_processor_running_sums_overflow_as_a_typed_error() {
        // w = [i64::MAX, 1] with col = i64::MAX: the second column's running
        // sum leaves i64 before any slice matches.
        let h = ArrayVal::new(vec![2, 2, 2, 2], vec![1; 16]).unwrap();
        let w = ArrayVal::new(vec![2], vec![i64::MAX, 1]).unwrap();
        let err = get_processor([0, i64::MAX, 2], &h, &w).unwrap_err();
        assert_eq!(err, EvalError::Overflow);
        // The same for the rows of column 0.
        let mut tall = vec![1; 16];
        tall[0] = i64::MAX;
        let h = ArrayVal::new(vec![2, 2, 2, 2], tall).unwrap();
        let w = ArrayVal::new(vec![2], vec![1, 1]).unwrap();
        assert_eq!(
            get_processor([i64::MAX, 0, 2], &h, &w),
            Err(EvalError::Overflow)
        );
    }
}
