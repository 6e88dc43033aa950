//! Expressions, lowered once and evaluated over a flat frame.
//!
//! [`Scope`] lowers an [`Expr`] to an [`Ex`] at compile time: every name
//! resolves lexically to a frame slot (a struct variable is one slot per
//! field) or to an array parameter, and `sizeof` folds to its constant. As
//! in C, a name that does not resolve, or a value of the wrong kind, is a
//! compile error ([`ParseError`]), so a lowered tree can only fail on
//! values: a bad subscript, a division by zero, an overflow.
//!
//! Two evaluation contexts walk the same tree, per the crate-level
//! semantics note: [`Frame::int`] (array subscripts, loop control, guards —
//! checked `i64` with C truncating division) and [`Frame::num`] (volume and
//! percentage expressions — `f64` with true division).

use crate::ast::{BinOp, CallArg, Expr, LValue, StructDef, UnOp};
use crate::error::{EvalError, ParseError};
use crate::pretty::print_expr;
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
}

/// The lowered coordinates of an abstract processor.
pub(crate) type Place = Box<[Ex]>;

/// A lowered `GetProcessor(row, col, m, h, w, &out)` lookup.
#[derive(Debug, Clone)]
pub(crate) struct Call {
    /// `row`, `col` and `m`.
    args: [Ex; 3],
    /// The `h` (rank 4) and `w` (rank 1) array parameters.
    arrays: (usize, usize),
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
    /// Evaluates to an integer.
    Int(Ex),
    /// An array or struct variable, passed whole.
    Whole(Var),
}

/// A compile error found while lowering. The syntax tree carries no
/// positions, so it points at the start of the source.
pub(crate) fn compile_error(message: impl Into<String>) -> ParseError {
    ParseError::new(message, 1, 1)
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
    /// [`ParseError`] if nothing of that name is in scope.
    pub(crate) fn get(&self, name: &str) -> Result<Var, ParseError> {
        self.vars
            .iter()
            .rev()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
            .ok_or_else(|| compile_error(format!("undefined name `{name}`")))
    }

    /// The fields of struct typedef `ty`.
    pub(crate) fn fields(&self, ty: usize) -> &'a [String] {
        &self.structs[ty].fields
    }

    /// The slot of `var.field`.
    ///
    /// # Errors
    /// [`ParseError`] if `var` is not a struct or has no such field.
    pub(crate) fn field(&self, var: Var, field: &str) -> Result<usize, ParseError> {
        let Var::Struct(ty, base) = var else {
            return Err(self.kind_error("struct", Some(var)));
        };
        let k = self.fields(ty).iter().position(|f| f == field);
        k.map(|k| base + k).ok_or_else(|| {
            let ty = &self.structs[ty].name;
            compile_error(format!("struct `{ty}` has no field `{field}`"))
        })
    }

    /// `expected {want}, found ...` for a value of the wrong kind (`None`
    /// is an integer).
    pub(crate) fn kind_error(&self, want: &str, found: Option<Var>) -> ParseError {
        let found = match found {
            None | Some(Var::Int(_)) => "int".to_string(),
            Some(Var::Array(_, rank)) => format!("int array of rank {rank}"),
            Some(Var::Struct(ty, _)) => format!("{} {{..}}", self.structs[ty].name),
        };
        compile_error(format!("type error: expected {want}, found {found}"))
    }

    /// Lowers an expression for either evaluation context.
    ///
    /// # Errors
    /// [`ParseError`] for an unresolved name or field, a value of the wrong
    /// kind, an unknown `sizeof` type, and any call: `GetProcessor`, the
    /// one extern function, is a statement.
    pub(crate) fn lower(&self, e: &Expr) -> Result<Ex, ParseError> {
        Ok(match e {
            Expr::Int(n) => Ex::Int(*n),
            Expr::Var(name) => match self.get(name)? {
                Var::Int(s) => Ex::Slot(s),
                v => return Err(self.kind_error("int", Some(v))),
            },
            Expr::SizeOf(ty) => Ex::Int(sizeof(ty)?),
            Expr::Member(base, field) => match self.operand(base)? {
                Operand::Whole(v) => Ex::Slot(self.field(v, field)?),
                Operand::Int(_) => return Err(self.kind_error("struct", None)),
            },
            Expr::Index(..) => self.index(e)?,
            Expr::Unary(op, x) => Ex::Unary(*op, Box::new(self.lower(x)?)),
            Expr::Binary(op, a, b) => {
                Ex::Binary(*op, Box::new(self.lower(a)?), Box::new(self.lower(b)?))
            }
            Expr::Call(name, _) if name == "GetProcessor" => {
                let msg = "used in expression position but returns no value";
                return Err(extern_error(msg));
            }
            Expr::Call(name, _) => {
                return Err(compile_error(format!("undefined extern function `{name}`")))
            }
        })
    }

    /// Lowers a call argument or assignment right-hand side: a whole array
    /// or struct variable, or an integer expression.
    pub(crate) fn operand(&self, e: &Expr) -> Result<Operand, ParseError> {
        if let Expr::Var(name) = e {
            if let v @ (Var::Array(..) | Var::Struct(..)) = self.get(name)? {
                return Ok(Operand::Whole(v));
            }
        }
        self.lower(e).map(Operand::Int)
    }

    /// Lowers a subscript chain `a[i][j]...`: the array, then its
    /// subscripts left to right.
    fn index(&self, e: &Expr) -> Result<Ex, ParseError> {
        let mut idx = Vec::new();
        let mut cur = e;
        while let Expr::Index(base, i) = cur {
            idx.push(i);
            cur = base;
        }
        let Expr::Var(name) = cur else {
            return Err(compile_error(format!(
                "type error: cannot index into `{}`",
                print_expr(cur)
            )));
        };
        match self.get(name)? {
            Var::Array(a, rank) if rank == idx.len() => {
                let subs = idx.iter().rev().map(|i| self.lower(i));
                Ok(Ex::Elem(a, subs.collect::<Result<_, _>>()?))
            }
            Var::Array(_, rank) => Err(compile_error(format!(
                "type error: `{name}` has rank {rank} but was indexed with {} subscripts",
                idx.len()
            ))),
            v => Err(self.kind_error("array", Some(v))),
        }
    }

    /// Lowers a `GetProcessor(row, col, m, h, w, &out)` statement: the
    /// lookup, and the `I` and `J` slots of `out`.
    ///
    /// # Errors
    /// [`ParseError`] unless `row`, `col` and `m` are integers, `h` and `w`
    /// array parameters of rank 4 and 1, and `out` a struct variable whose
    /// fields are exactly `I` and `J`.
    pub(crate) fn call(&self, args: &[CallArg]) -> Result<(Call, (usize, usize)), ParseError> {
        let [row, col, m, h, w, out] = args else {
            return Err(extern_error(&format!(
                "expected 6 arguments, got {}",
                args.len()
            )));
        };
        let value = |a: &CallArg| match a {
            CallArg::Value(e) => self.operand(e),
            CallArg::OutRef(_) => Err(extern_error("only the last argument is passed by `&`")),
        };
        let int = |a: &CallArg| match value(a)? {
            Operand::Int(x) => Ok(x),
            Operand::Whole(v) => Err(self.kind_error("int", Some(v))),
        };
        let array = |a: &CallArg, rank: usize| match value(a)? {
            Operand::Whole(Var::Array(k, r)) if r == rank => Ok(k),
            Operand::Whole(v) => {
                Err(self.kind_error(&format!("int array of rank {rank}"), Some(v)))
            }
            Operand::Int(_) => Err(self.kind_error(&format!("int array of rank {rank}"), None)),
        };
        let args = [int(row)?, int(col)?, int(m)?];
        let arrays = (array(h, 4)?, array(w, 1)?);
        // `out` is a struct variable whose fields are exactly `I` and `J`.
        let out = match out {
            CallArg::OutRef(LValue::Var(name)) => match self.get(name) {
                Ok(v @ Var::Struct(ty, _)) if self.fields(ty).len() == 2 => {
                    self.field(v, "I").ok().zip(self.field(v, "J").ok())
                }
                _ => None,
            },
            _ => None,
        };
        let out = out.ok_or_else(|| {
            extern_error(
                "the last argument must be `&` a struct variable with exactly the fields I and J",
            )
        })?;
        Ok((Call { args, arrays }, out))
    }

    /// Lowers the coordinates of an abstract processor: a scheme
    /// activity, a `link` end or the `parent`.
    ///
    /// # Errors
    /// [`ParseError`] for a wrong coordinate count, and as [`Scope::lower`].
    pub(crate) fn place(&self, coords: &[Expr]) -> Result<Place, ParseError> {
        let (n, rank) = (coords.len(), self.rank);
        if n != rank {
            let named: Vec<_> = coords.iter().map(print_expr).collect();
            return Err(compile_error(format!(
                "bad abstract processor: [{}] names {n} coordinates but the coordinate space has {rank}",
                named.join(", ")
            )));
        }
        coords.iter().map(|c| self.lower(c)).collect()
    }
}

fn extern_error(message: &str) -> ParseError {
    compile_error(format!("extern function `GetProcessor`: {message}"))
}

/// C byte size of a named type (`sizeof(double)` in Figure 4/7).
///
/// # Errors
/// [`ParseError`] for unknown type names.
pub(crate) fn sizeof(ty: &str) -> Result<i64, ParseError> {
    match ty {
        "char" => Ok(1),
        "short" => Ok(2),
        "int" | "float" => Ok(4),
        "long" | "double" => Ok(8),
        other => Err(compile_error(format!(
            "type error: sizeof unknown type `{other}`"
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
/// `i64`, and [`EvalError::IndexOutOfBounds`] if `m` exceeds an extent.
///
/// # Panics
/// Panics unless `h` has rank 4 and `w` rank 1, which lowering checks.
pub fn get_processor(at: [i64; 3], h: &ArrayVal, w: &ArrayVal) -> Result<(i64, i64), EvalError> {
    let [row, col, m] = at;
    let beyond = |what: &str, at: i64| EvalError::ExternError {
        name: "GetProcessor".into(),
        message: format!("{what} {at} beyond the generalised block"),
    };
    let j = first_slice(m, col, |j| w.get("w", &[j]))?.ok_or_else(|| beyond("column", col))?;
    let i =
        first_slice(m, row, |i| h.get("h", &[i, j, i, j]))?.ok_or_else(|| beyond("row", row))?;
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
    /// [`EvalError::DivisionByZero`], [`EvalError::Overflow`] and
    /// [`EvalError::IndexOutOfBounds`].
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
        let mut at = [0; 3];
        for (v, x) in at.iter_mut().zip(&c.args) {
            *v = self.int(x)?;
        }
        let (h, w) = c.arrays;
        get_processor(at, &self.arrays[h].1, &self.arrays[w].1)
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

        /// Lowers `e` with these bindings in scope.
        pub(crate) fn lower(&self, e: &Expr) -> Result<Ex, ParseError> {
            let mut scope = Scope::default();
            for (name, _) in &self.ints {
                scope.int(name);
            }
            for (name, a) in &self.arrays {
                scope.array(name, a.dims.len());
            }
            scope.lower(e)
        }

        /// Lowers `e` with these bindings in scope and evaluates it.
        fn eval<T>(&self, e: &Expr, f: impl Fn(&Frame, &Ex) -> T) -> T {
            let ex = self.lower(e).expect("the expression lowers");
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
        let err = env.lower(&expr("y")).unwrap_err();
        assert_eq!(err.message, "undefined name `y`");
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
        let err = crate::CompiledModel::compile(
            "algorithm T() { coord I=1; node {I>=0: bench*(1);}; parent[0];
               scheme { nope = 0; }; }",
        )
        .unwrap_err();
        assert_eq!(err.message, "undefined name `nope`");
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
