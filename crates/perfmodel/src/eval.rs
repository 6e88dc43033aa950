//! Expression evaluation.
//!
//! Two evaluation contexts exist, per the crate-level semantics note:
//! [`eval_int`] (array subscripts, loop control, guards — C integer
//! semantics with truncating division) and [`eval_num`] (volume and
//! percentage expressions — `f64` with true division).

use crate::ast::{BinOp, Expr, UnOp};
use crate::env::Env;
use crate::error::EvalError;
use crate::value::{StructVal, Value};

/// What an extern function produced.
#[derive(Debug, Clone)]
pub struct ExternResult {
    /// Value returned in expression position (if any).
    pub ret: Option<Value>,
    /// Values stored into the `&lvalue` out-parameters, in order.
    pub outs: Vec<Value>,
}

/// An extern function: receives the evaluated values of *all* arguments
/// (out-parameters contribute their current value) and returns the values to
/// write back.
pub(crate) type Builtin = fn(&[Value]) -> Result<ExternResult, EvalError>;

/// Looks up the extern function `name`. The only one is Figure 7's
/// `GetProcessor` ([`get_processor`]).
///
/// # Errors
/// [`EvalError::Undefined`] for any other name.
pub(crate) fn extern_fn(name: &str) -> Result<Builtin, EvalError> {
    match name {
        "GetProcessor" => Ok(get_processor),
        _ => Err(EvalError::Undefined(format!("extern function {name}"))),
    }
}

/// The Figure 7 builtin: `GetProcessor(row, col, m, h, w, &Root)` returns in
/// `Root` the grid coordinates `(I, J)` of the abstract processor whose
/// rectangle of a generalised block contains the `r × r` block at
/// `(row, col)`.
///
/// Column slices have widths `w[J]`; within the column slice `J`, row slices
/// have heights `h[I][J][I][J]`.
///
/// # Errors
/// [`EvalError::ExternError`] on wrong arity/shape or coordinates outside
/// the generalised block.
pub fn get_processor(args: &[Value]) -> Result<ExternResult, EvalError> {
    let fail = |message: String| EvalError::ExternError {
        name: "GetProcessor".into(),
        message,
    };
    if args.len() != 6 {
        return Err(fail(format!("expected 6 arguments, got {}", args.len())));
    }
    let row = args[0].as_int()?;
    let col = args[1].as_int()?;
    let m = args[2].as_int()?;
    let h = args[3].as_array()?;
    let w = args[4].as_array()?;

    // Column slice: smallest J with col < sum(w[0..=J]).
    let mut acc = 0i64;
    let mut grid_j = None;
    for j in 0..m {
        acc += w.get("w", &[j])?;
        if col < acc {
            grid_j = Some(j);
            break;
        }
    }
    let grid_j = grid_j.ok_or_else(|| fail(format!("column {col} beyond the generalised block")))?;

    // Row slice within column grid_j: smallest I with row < sum(h[0..=I][J][..]).
    let mut acc = 0i64;
    let mut grid_i = None;
    for i in 0..m {
        acc += h.get("h", &[i, grid_j, i, grid_j])?;
        if row < acc {
            grid_i = Some(i);
            break;
        }
    }
    let grid_i = grid_i.ok_or_else(|| fail(format!("row {row} beyond the generalised block")))?;

    let mut fields = std::collections::BTreeMap::new();
    fields.insert("I".to_string(), grid_i);
    fields.insert("J".to_string(), grid_j);
    Ok(ExternResult {
        ret: None,
        outs: vec![Value::Struct(StructVal {
            type_name: "Processor".into(),
            fields,
        })],
    })
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
        other => Err(EvalError::TypeError(format!("sizeof unknown type `{other}`"))),
    }
}

/// Evaluates an expression as a general [`Value`] (needed for extern-call
/// arguments which may be arrays or structs).
///
/// # Errors
/// Any [`EvalError`] raised by sub-evaluation.
pub fn eval_value(env: &Env, e: &Expr) -> Result<Value, EvalError> {
    match e {
        Expr::Var(name) => Ok(env.get(name)?.clone()),
        Expr::Member(base, field) => {
            let base = eval_value(env, base)?;
            let s = base.as_struct()?;
            s.fields
                .get(field)
                .copied()
                .map(Value::Int)
                .ok_or_else(|| EvalError::Undefined(format!("field {field}")))
        }
        Expr::Index(..) => Ok(Value::Int(eval_int(env, e)?)),
        _ => Ok(Value::Int(eval_int(env, e)?)),
    }
}

/// Integer-context evaluation (guards, indices, loop control). C semantics:
/// truncating division, comparisons yield 0/1, `&&`/`||` short-circuit over
/// zero/nonzero.
///
/// # Errors
/// [`EvalError::DivisionByZero`], [`EvalError::Overflow`],
/// [`EvalError::Undefined`], [`EvalError::TypeError`],
/// [`EvalError::IndexOutOfBounds`].
pub fn eval_int(env: &Env, e: &Expr) -> Result<i64, EvalError> {
    match e {
        Expr::Int(n) => Ok(*n),
        Expr::Var(name) => env.get(name)?.as_int(),
        Expr::SizeOf(ty) => sizeof(ty),
        Expr::Member(base, field) => {
            let v = eval_value(env, base)?;
            let s = v.as_struct()?;
            s.fields
                .get(field)
                .copied()
                .ok_or_else(|| EvalError::Undefined(format!("field {field}")))
        }
        Expr::Index(..) => {
            let (name, idx) = collect_index_chain(env, e)?;
            let arr = env.get(&name)?.as_array()?.clone();
            arr.get(&name, &idx)
        }
        Expr::Unary(UnOp::Neg, x) => eval_int(env, x)?.checked_neg().ok_or(EvalError::Overflow),
        Expr::Unary(UnOp::Not, x) => Ok(i64::from(eval_int(env, x)? == 0)),
        Expr::Binary(op, a, b) => {
            match op {
                BinOp::And => {
                    return Ok(if eval_int(env, a)? != 0 {
                        i64::from(eval_int(env, b)? != 0)
                    } else {
                        0
                    })
                }
                BinOp::Or => {
                    return Ok(if eval_int(env, a)? != 0 {
                        1
                    } else {
                        i64::from(eval_int(env, b)? != 0)
                    })
                }
                _ => {}
            }
            let x = eval_int(env, a)?;
            let y = eval_int(env, b)?;
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
        Expr::Call(name, args) => {
            let f = extern_fn(name)?;
            let vals: Vec<Value> = args
                .iter()
                .map(|a| eval_value(env, a))
                .collect::<Result<_, _>>()?;
            let res = f(&vals)?;
            res.ret
                .ok_or_else(|| EvalError::ExternError {
                    name: name.clone(),
                    message: "used in expression position but returned no value".into(),
                })?
                .as_int()
        }
    }
}

/// Numeric-context evaluation (volumes and percentages): everything promotes
/// to `f64`, `/` is true division.
///
/// # Errors
/// As [`eval_int`]; division by (exact) zero is reported rather than
/// producing infinity.
pub fn eval_num(env: &Env, e: &Expr) -> Result<f64, EvalError> {
    match e {
        Expr::Int(n) => Ok(*n as f64),
        Expr::Var(_) | Expr::Member(..) | Expr::Index(..) | Expr::SizeOf(_) | Expr::Call(..) => {
            Ok(eval_int(env, e)? as f64)
        }
        Expr::Unary(UnOp::Neg, x) => Ok(-eval_num(env, x)?),
        Expr::Unary(UnOp::Not, x) => Ok(f64::from(eval_num(env, x)? == 0.0)),
        Expr::Binary(op, a, b) => {
            let x = eval_num(env, a)?;
            let y = eval_num(env, b)?;
            Ok(match op {
                BinOp::Add => x + y,
                BinOp::Sub => x - y,
                BinOp::Mul => x * y,
                BinOp::Div => {
                    if y == 0.0 {
                        return Err(EvalError::DivisionByZero);
                    }
                    x / y
                }
                BinOp::Rem => {
                    if y == 0.0 {
                        return Err(EvalError::DivisionByZero);
                    }
                    x % y
                }
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
    }
}

/// Peels an `Expr::Index` chain down to `(array name, index vector)`.
fn collect_index_chain(env: &Env, e: &Expr) -> Result<(String, Vec<i64>), EvalError> {
    let mut indices = Vec::new();
    let mut cur = e;
    loop {
        match cur {
            Expr::Index(base, idx) => {
                indices.push(eval_int(env, idx)?);
                cur = base;
            }
            Expr::Var(name) => {
                indices.reverse();
                return Ok((name.clone(), indices));
            }
            other => return Err(EvalError::TypeError(format!("cannot index into {other:?}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;
    use crate::value::ArrayVal;

    fn expr(src: &str) -> Expr {
        // Wrap in a minimal algorithm so we can reuse the real parser.
        let prog = parse_program(&format!(
            "algorithm T(int p) {{ coord I=p; node {{I>=0: bench*({src});}}; parent[0]; scheme {{;}}; }}"
        ))
        .unwrap();
        prog.algorithms[0].node_rules[0].volume.clone()
    }

    fn env_with(vars: &[(&str, i64)]) -> Env {
        let mut env = Env::new();
        for (n, v) in vars {
            env.declare(*n, Value::Int(*v));
        }
        env
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
        let mut env = env_with(&[("I", -1)]);
        env.declare(
            "d",
            Value::Array(ArrayVal::new(vec![2], vec![5, 6]).unwrap()),
        );
        assert_eq!(eval_int(&env, &expr("I>=0 && d[I]>0")).unwrap(), 0);
    }

    #[test]
    fn array_indexing_multi_dim() {
        let mut env = env_with(&[("I", 1), ("L", 0)]);
        env.declare(
            "dep",
            Value::Array(ArrayVal::new(vec![2, 2], vec![0, 1, 2, 3]).unwrap()),
        );
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
        let args = |row: i64, col: i64| {
            vec![
                Value::Int(row),
                Value::Int(col),
                Value::Int(m),
                Value::Array(ArrayVal::new(vec![2, 2, 2, 2], h.clone()).unwrap()),
                Value::Array(ArrayVal::new(vec![2], vec![3, 1]).unwrap()),
                Value::Int(0), // placeholder for &Root's current value
            ]
        };
        let coords = |row: i64, col: i64| {
            let res = get_processor(&args(row, col)).unwrap();
            let s = res.outs[0].as_struct().unwrap().clone();
            (s.fields["I"], s.fields["J"])
        };
        assert_eq!(coords(0, 0), (0, 0));
        assert_eq!(coords(0, 2), (0, 0));
        assert_eq!(coords(0, 3), (0, 1));
        assert_eq!(coords(1, 0), (1, 0)); // row 1 is past column-0's first slice (height 1)
        assert_eq!(coords(1, 3), (0, 1)); // column 1's first slice has height 2
        assert_eq!(coords(3, 3), (1, 1));
    }

    #[test]
    fn get_processor_rejects_out_of_block() {
        let args = vec![
            Value::Int(0),
            Value::Int(99),
            Value::Int(1),
            Value::Array(ArrayVal::new(vec![1, 1, 1, 1], vec![1]).unwrap()),
            Value::Array(ArrayVal::new(vec![1], vec![1]).unwrap()),
            Value::Int(0),
        ];
        assert!(matches!(
            get_processor(&args),
            Err(EvalError::ExternError { .. })
        ));
    }
}
