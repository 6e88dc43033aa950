//! Pretty-printer: AST back to model source.
//!
//! Useful for tooling (dumping a model, error reporting) and for testing
//! the parser: `parse(print(parse(src)))` must equal `parse(src)` for every
//! model we ship (round-trip tests live in `tests/paper_models.rs`) and for
//! every model simcheck generates (its `model-roundtrip` invariant).

use crate::ast::*;
use std::fmt::Write;

/// Renders a whole program.
pub fn print_program(p: &Program) -> String {
    let mut out = String::new();
    for td in &p.typedefs {
        let _ = write!(out, "typedef struct {{");
        for f in &td.fields {
            let _ = write!(out, "int {f}; ");
        }
        let _ = writeln!(out, "}} {};", td.name);
    }
    for a in &p.algorithms {
        out.push_str(&print_algorithm(a));
    }
    out
}

/// Renders one algorithm definition.
pub fn print_algorithm(a: &AlgorithmDef) -> String {
    let mut out = String::new();
    let params: Vec<String> = a
        .params
        .iter()
        .map(|p| {
            let dims: String = p.dims.iter().map(|d| format!("[{}]", print_expr(d))).collect();
            format!("int {}{dims}", p.name)
        })
        .collect();
    let _ = writeln!(out, "algorithm {}({}) {{", a.name, params.join(", "));

    let coords: Vec<String> = a
        .coords
        .iter()
        .map(|(n, e)| format!("{n}={}", print_expr(e)))
        .collect();
    let _ = writeln!(out, "  coord {};", coords.join(", "));

    if !a.node_rules.is_empty() {
        let _ = writeln!(out, "  node {{");
        for r in &a.node_rules {
            let _ = writeln!(
                out,
                "    {}: bench*({});",
                print_expr(&r.guard),
                print_expr(&r.volume)
            );
        }
        let _ = writeln!(out, "  }};");
    }

    if !a.link_rules.is_empty() {
        let binders: Vec<String> = a
            .link_binders
            .iter()
            .map(|(n, e)| format!("{n}={}", print_expr(e)))
            .collect();
        if binders.is_empty() {
            let _ = writeln!(out, "  link {{");
        } else {
            let _ = writeln!(out, "  link ({}) {{", binders.join(", "));
        }
        for r in &a.link_rules {
            let _ = writeln!(
                out,
                "    {}: length*({}) [{}] -> [{}];",
                print_expr(&r.guard),
                print_expr(&r.volume),
                print_exprs(&r.src),
                print_exprs(&r.dst)
            );
        }
        let _ = writeln!(out, "  }};");
    }

    if !a.parent.is_empty() {
        let _ = writeln!(out, "  parent[{}];", print_exprs(&a.parent));
    }

    let _ = writeln!(out, "  scheme {{");
    for s in &a.scheme {
        out.push_str(&print_stmt(s, 2));
    }
    let _ = writeln!(out, "  }};");
    let _ = writeln!(out, "}}");
    out
}

fn print_exprs(es: &[Expr]) -> String {
    es.iter().map(print_expr).collect::<Vec<_>>().join(", ")
}

fn indent(depth: usize) -> String {
    "  ".repeat(depth)
}

/// Renders a statement at the given indentation depth.
pub fn print_stmt(s: &Stmt, depth: usize) -> String {
    let pad = indent(depth);
    match s {
        Stmt::Empty => format!("{pad};\n"),
        Stmt::Block(body) => {
            let mut out = format!("{pad}{{\n");
            for st in body {
                out.push_str(&print_stmt(st, depth + 1));
            }
            out.push_str(&format!("{pad}}}\n"));
            out
        }
        Stmt::Decl { ty, vars } => {
            let vs: Vec<String> = vars
                .iter()
                .map(|(n, init)| match init {
                    Some(e) => format!("{n} = {}", print_expr(e)),
                    None => n.clone(),
                })
                .collect();
            format!("{pad}{ty} {};\n", vs.join(", "))
        }
        Stmt::Assign { lv, op, rhs } => {
            let op_str = match op {
                AssignOp::Set => "=",
                AssignOp::Add => "+=",
                AssignOp::Sub => "-=",
                AssignOp::Mul => "*=",
            };
            format!("{pad}{} {op_str} {};\n", print_lvalue(lv), print_expr(rhs))
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
            let kw = if matches!(s, Stmt::For { .. }) { "for" } else { "par" };
            let init_s = init.as_ref().map_or(String::new(), |i| print_header_stmt(i));
            let cond_s = cond.as_ref().map_or(String::new(), print_expr);
            let step_s = step.as_ref().map_or(String::new(), |i| print_header_stmt(i));
            let mut out = format!("{pad}{kw} ({init_s}; {cond_s}; {step_s})\n");
            out.push_str(&print_stmt(body, depth + 1));
            out
        }
        Stmt::If { cond, then, els } => {
            let mut out = format!("{pad}if ({})\n", print_expr(cond));
            out.push_str(&print_stmt(then, depth + 1));
            if let Some(e) = els {
                out.push_str(&format!("{pad}else\n"));
                out.push_str(&print_stmt(e, depth + 1));
            }
            out
        }
        Stmt::Compute { percent, proc } => {
            format!("{pad}({}) %% [{}];\n", print_expr(percent), print_exprs(proc))
        }
        Stmt::Transfer { percent, src, dst } => format!(
            "{pad}({}) %% [{}] -> [{}];\n",
            print_expr(percent),
            print_exprs(src),
            print_exprs(dst)
        ),
        Stmt::CallStmt { name, args } => {
            let rendered: Vec<String> = args
                .iter()
                .map(|a| match a {
                    CallArg::Value(e) => print_expr(e),
                    CallArg::OutRef(lv) => format!("&{}", print_lvalue(lv)),
                })
                .collect();
            format!("{pad}{name}({});\n", rendered.join(", "))
        }
    }
}

/// Renders the assignment inside a `for`/`par` header (no semicolon).
fn print_header_stmt(s: &Stmt) -> String {
    match s {
        Stmt::Assign { lv, op, rhs } => {
            let op_str = match op {
                AssignOp::Set => "=",
                AssignOp::Add => "+=",
                AssignOp::Sub => "-=",
                AssignOp::Mul => "*=",
            };
            format!("{} {op_str} {}", print_lvalue(lv), print_expr(rhs))
        }
        other => print_stmt(other, 0).trim_end().trim_end_matches(';').to_string(),
    }
}

fn print_lvalue(lv: &LValue) -> String {
    match lv {
        LValue::Var(n) => n.clone(),
        LValue::Member(n, f) => format!("{n}.{f}"),
    }
}

/// Renders an expression (fully parenthesised where precedence matters).
pub fn print_expr(e: &Expr) -> String {
    match e {
        Expr::Int(n) => n.to_string(),
        Expr::Var(n) => n.clone(),
        Expr::Member(base, f) => format!("{}.{f}", print_expr(base)),
        Expr::Index(base, idx) => format!("{}[{}]", print_expr(base), print_expr(idx)),
        Expr::Unary(UnOp::Neg, x) => format!("(-{})", print_expr(x)),
        Expr::Unary(UnOp::Not, x) => format!("(!{})", print_expr(x)),
        Expr::Binary(op, a, b) => {
            let sym = match op {
                BinOp::Add => "+",
                BinOp::Sub => "-",
                BinOp::Mul => "*",
                BinOp::Div => "/",
                BinOp::Rem => "%",
                BinOp::Eq => "==",
                BinOp::Ne => "!=",
                BinOp::Lt => "<",
                BinOp::Gt => ">",
                BinOp::Le => "<=",
                BinOp::Ge => ">=",
                BinOp::And => "&&",
                BinOp::Or => "||",
            };
            format!("({} {sym} {})", print_expr(a), print_expr(b))
        }
        Expr::SizeOf(ty) => format!("sizeof({ty})"),
        Expr::Call(name, args) => format!("{name}({})", print_exprs(args)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::tests::{eval_int, eval_num, Bindings};
    use crate::parser::parse_program;
    use crate::value::ArrayVal;
    use proptest::prelude::*;

    #[test]
    fn simple_roundtrip() {
        let src = r"
            algorithm T(int p, int d[p]) {
                coord I=p;
                node {I>=0: bench*(d[I]);};
                link (L=p) { I!=L: length*(d[I]*8) [I]->[L]; };
                parent[0];
                scheme {
                    int i;
                    par (i = 0; i < p; i++) 100%%[i];
                };
            }
        ";
        let ast1 = parse_program(src).unwrap();
        let printed = print_program(&ast1);
        let ast2 = parse_program(&printed).unwrap();
        assert_eq!(ast1, ast2, "printed:\n{printed}");
    }

    #[test]
    fn expr_precedence_is_preserved_by_parens() {
        let src = r"
            algorithm T(int a, int b, int c) {
                coord I=1;
                node {I>=0: bench*(a+b*c);};
                parent[0];
                scheme {;};
            }
        ";
        let ast1 = parse_program(src).unwrap();
        let printed = print_program(&ast1);
        let ast2 = parse_program(&printed).unwrap();
        assert_eq!(
            ast1.algorithms[0].node_rules[0].volume,
            ast2.algorithms[0].node_rules[0].volume
        );
    }

    #[test]
    fn statements_roundtrip() {
        let src = r"
            typedef struct {int I; int J;} Processor;
            algorithm T(int m, int w[m], int h[m][m][m][m]) {
                coord I=m, J=m;
                node {I>=0 && J>=0: bench*(1);};
                parent[0,0];
                scheme {
                    int k;
                    Processor Root;
                    for (k = 0; k < m; k++) {
                        int a = k%2, b;
                        GetProcessor(0, a, m, h, w, &Root);
                        if (Root.I != 0)
                            (100/m)%%[Root.I, Root.J];
                        else
                            b = 1;
                        b += a;
                        Root.J++;
                    }
                };
            }
        ";
        let ast1 = parse_program(src).unwrap();
        let printed = print_program(&ast1);
        let ast2 = parse_program(&printed).unwrap();
        assert_eq!(ast1, ast2, "printed:\n{printed}");
    }

    // Property tests for the parser/printer pair: for any expression the
    // generator can produce, `parse(print(e))` must yield an AST that both
    // round-trips structurally and evaluates to the same value.

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

    fn env() -> Bindings {
        Bindings::new(&[("a", 7), ("b", 3), ("I", 2)])
            .array("d", ArrayVal::new(vec![4], vec![10, 20, 30, 40]).unwrap())
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
            let printed = print_expr(&e);
            let back = reparse(&printed);
            prop_assert_eq!(&back, &e, "printed as `{}`", printed);
        }

        #[test]
        fn printed_expressions_evaluate_identically(e in expr_strategy()) {
            let printed = print_expr(&e);
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
}
