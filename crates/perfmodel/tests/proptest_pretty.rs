//! Property tests for the parser/pretty-printer pair: for any expression
//! the generator can produce, `parse(print(e))` must yield an AST that both
//! round-trips structurally and evaluates to the same value.

use perfmodel::ast::{BinOp, Expr, UnOp};
use perfmodel::env::Env;
use perfmodel::eval::{eval_int, eval_num};
use perfmodel::value::{ArrayVal, Value};
use perfmodel::{parse_program, pretty};
use proptest::prelude::*;

/// Random expressions over variables `a`, `b`, the 1-D array `d[4]` and the
/// coordinate `I`. Leaf magnitudes and depth are bounded so products cannot
/// overflow `i64` (debug builds panic on overflow).
fn expr_strategy() -> impl Strategy<Value = Expr> {
    let leaf = prop_oneof![
        (0i64..8).prop_map(Expr::Int),
        Just(Expr::Var("a".into())),
        Just(Expr::Var("b".into())),
        Just(Expr::Var("I".into())),
        Just(Expr::SizeOf("double".into())),
        (0i64..4).prop_map(|i| Expr::Index(
            Box::new(Expr::Var("d".into())),
            Box::new(Expr::Int(i))
        )),
    ];
    leaf.prop_recursive(3, 24, 3, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone(), any::<u8>()).prop_map(|(x, y, op)| {
                let op = match op % 11 {
                    0 => BinOp::Add,
                    1 => BinOp::Sub,
                    2 => BinOp::Mul,
                    3 => BinOp::Div,
                    4 => BinOp::Rem,
                    5 => BinOp::Eq,
                    6 => BinOp::Ne,
                    7 => BinOp::Lt,
                    8 => BinOp::Gt,
                    9 => BinOp::And,
                    _ => BinOp::Or,
                };
                Expr::Binary(op, Box::new(x), Box::new(y))
            }),
            inner
                .clone()
                .prop_map(|x| Expr::Unary(UnOp::Neg, Box::new(x))),
            inner.prop_map(|x| Expr::Unary(UnOp::Not, Box::new(x))),
        ]
    })
}

fn env() -> Env {
    let mut env = Env::new();
    env.declare("a", Value::Int(7));
    env.declare("b", Value::Int(3));
    env.declare("I", Value::Int(2));
    env.declare(
        "d",
        Value::Array(ArrayVal::new(vec![4], vec![10, 20, 30, 40]).unwrap()),
    );
    env
}

/// Embeds an expression (as printed source) into a minimal algorithm and
/// re-extracts the parsed volume expression.
fn reparse(printed: &str) -> Expr {
    let src = format!(
        "algorithm T(int a, int b, int d[4]) {{ coord I=4; node {{I>=0: bench*({printed});}}; parent[0]; scheme {{;}}; }}"
    );
    let prog = parse_program(&src).unwrap_or_else(|e| panic!("printed `{printed}` fails to parse: {e}"));
    prog.algorithms[0].node_rules[0].volume.clone()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn printed_expressions_reparse_to_the_same_ast(e in expr_strategy()) {
        let printed = pretty::print_expr(&e);
        let back = reparse(&printed);
        prop_assert_eq!(&back, &e, "printed as `{}`", printed);
    }

    #[test]
    fn printed_expressions_evaluate_identically(e in expr_strategy()) {
        let printed = pretty::print_expr(&e);
        let back = reparse(&printed);
        let env = env();
        // Integer context.
        let v1 = eval_int(&env, &e);
        let v2 = eval_int(&env, &back);
        prop_assert_eq!(&v1, &v2, "int eval of `{}`", printed);
        // Numeric context.
        let n1 = eval_num(&env, &e);
        let n2 = eval_num(&env, &back);
        match (n1, n2) {
            (Ok(x), Ok(y)) => prop_assert!(
                (x - y).abs() < 1e-9 || (x.is_nan() && y.is_nan()),
                "num eval of `{}`: {} vs {}",
                printed, x, y
            ),
            (Err(a), Err(b)) => prop_assert_eq!(a, b),
            other => prop_assert!(false, "eval divergence on `{}`: {:?}", printed, other),
        }
    }

    #[test]
    fn int_and_num_semantics_agree_when_no_division(
        e in expr_strategy().prop_filter("division-free", |e| {
            fn has_div(e: &Expr) -> bool {
                match e {
                    Expr::Binary(BinOp::Div | BinOp::Rem, ..) => true,
                    Expr::Binary(_, a, b) => has_div(a) || has_div(b),
                    Expr::Unary(_, x) => has_div(x),
                    Expr::Index(a, b) => has_div(a) || has_div(b),
                    Expr::Member(a, _) => has_div(a),
                    _ => false,
                }
            }
            !has_div(e)
        })
    ) {
        // Without division/modulo, the int and float evaluators must agree
        // exactly (all values stay integral).
        let env = env();
        if let (Ok(i), Ok(n)) = (eval_int(&env, &e), eval_num(&env, &e)) {
            prop_assert_eq!(i as f64, n);
        }
    }
}
