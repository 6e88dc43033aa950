//! Recursive-descent parser for the model-definition language.
//!
//! The grammar covers exactly what the paper's Figures 4 and 7 use:
//! `typedef struct`, `algorithm` with `coord` / `node` / `link` / `parent` /
//! `scheme` sections, C-style expressions, `for`/`par`/`if` statements,
//! declarations with initialisers, extern calls with `&` out-parameters, and
//! `%%` activity steps.

use crate::ast::*;
use crate::error::ParseError;
use crate::lexer::{lex, Spanned, Tok};
use std::collections::HashSet;

/// The deepest nesting the parser accepts (C guarantees 127 nested
/// blocks). Parentheses, unary operators, calls, subscripts, member
/// accesses, each operator of a binary chain and each nested statement
/// count one level, so every later walk of the tree (lowering, evaluation,
/// printing, `Drop`) recurses at most this deep and fits a 2 MiB rank
/// worker's stack, even in a debug build.
const MAX_DEPTH: usize = 128;

/// Parses a complete model source file.
///
/// # Errors
/// [`ParseError`] with source position on any syntax error.
pub fn parse_program(src: &str) -> Result<Program, ParseError> {
    let toks = lex(src)?;
    let mut p = Parser {
        toks,
        pos: 0,
        struct_names: HashSet::new(),
        depth: 0,
    };
    p.program()
}

struct Parser {
    toks: Vec<Spanned>,
    pos: usize,
    struct_names: HashSet<String>,
    /// The nesting level at the current token, against `MAX_DEPTH`.
    depth: usize,
}

impl Parser {
    fn peek(&self) -> &Tok {
        &self.toks[self.pos].tok
    }

    fn peek2(&self) -> &Tok {
        &self.toks[(self.pos + 1).min(self.toks.len() - 1)].tok
    }

    fn here(&self) -> (usize, usize) {
        let s = &self.toks[self.pos];
        (s.line, s.col)
    }

    fn err(&self, msg: impl Into<String>) -> ParseError {
        let (line, col) = self.here();
        ParseError::new(msg, line, col)
    }

    /// Enters one more level of nesting at the current token.
    fn nest(&mut self) -> Result<(), ParseError> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(self.err(format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        Ok(())
    }

    fn bump(&mut self) -> Tok {
        let t = self.toks[self.pos].tok.clone();
        if self.pos + 1 < self.toks.len() {
            self.pos += 1;
        }
        t
    }

    fn eat(&mut self, want: &Tok) -> Result<(), ParseError> {
        if self.peek() == want {
            self.bump();
            Ok(())
        } else {
            Err(self.err(format!("expected {want}, found {}", self.peek())))
        }
    }

    fn eat_kw(&mut self, kw: &str) -> Result<(), ParseError> {
        match self.peek() {
            Tok::Ident(s) if s == kw => {
                self.bump();
                Ok(())
            }
            other => Err(self.err(format!("expected keyword `{kw}`, found {other}"))),
        }
    }

    fn is_kw(&self, kw: &str) -> bool {
        matches!(self.peek(), Tok::Ident(s) if s == kw)
    }

    fn ident(&mut self) -> Result<String, ParseError> {
        match self.peek().clone() {
            Tok::Ident(s) => {
                self.bump();
                Ok(s)
            }
            other => Err(self.err(format!("expected identifier, found {other}"))),
        }
    }

    // ----- top level --------------------------------------------------------

    fn program(&mut self) -> Result<Program, ParseError> {
        let mut typedefs = Vec::new();
        let mut algorithms = Vec::new();
        while self.peek() != &Tok::Eof {
            if self.is_kw("typedef") {
                let td = self.typedef()?;
                self.struct_names.insert(td.name.clone());
                typedefs.push(td);
            } else if self.is_kw("algorithm") {
                algorithms.push(self.algorithm()?);
            } else {
                return Err(self.err(format!(
                    "expected `typedef` or `algorithm`, found {}",
                    self.peek()
                )));
            }
        }
        Ok(Program {
            typedefs,
            algorithms,
        })
    }

    fn typedef(&mut self) -> Result<StructDef, ParseError> {
        self.eat_kw("typedef")?;
        self.eat_kw("struct")?;
        self.eat(&Tok::LBrace)?;
        let mut fields = Vec::new();
        while self.peek() != &Tok::RBrace {
            self.eat_kw("int")?;
            fields.push(self.ident()?);
            self.eat(&Tok::Semi)?;
        }
        self.eat(&Tok::RBrace)?;
        let name = self.ident()?;
        self.eat(&Tok::Semi)?;
        Ok(StructDef { name, fields })
    }

    fn algorithm(&mut self) -> Result<AlgorithmDef, ParseError> {
        self.eat_kw("algorithm")?;
        let name = self.ident()?;
        self.eat(&Tok::LParen)?;
        let mut params = Vec::new();
        if self.peek() != &Tok::RParen {
            loop {
                self.eat_kw("int")?;
                let pname = self.ident()?;
                let mut dims = Vec::new();
                while self.peek() == &Tok::LBracket {
                    self.bump();
                    dims.push(self.expr()?);
                    self.eat(&Tok::RBracket)?;
                }
                params.push(ParamDecl { name: pname, dims });
                if self.peek() == &Tok::Comma {
                    self.bump();
                } else {
                    break;
                }
            }
        }
        self.eat(&Tok::RParen)?;
        self.eat(&Tok::LBrace)?;

        let mut coords = Vec::new();
        let mut node_rules = Vec::new();
        let mut link_binders = Vec::new();
        let mut link_rules = Vec::new();
        let mut parent = Vec::new();
        let mut scheme = Vec::new();

        while self.peek() != &Tok::RBrace {
            if self.is_kw("coord") {
                self.bump();
                loop {
                    let cname = self.ident()?;
                    self.eat(&Tok::Assign)?;
                    let extent = self.expr()?;
                    coords.push((cname, extent));
                    if self.peek() == &Tok::Comma {
                        self.bump();
                    } else {
                        break;
                    }
                }
                self.eat(&Tok::Semi)?;
            } else if self.is_kw("node") {
                self.bump();
                self.eat(&Tok::LBrace)?;
                while self.peek() != &Tok::RBrace {
                    let guard = self.expr()?;
                    self.eat(&Tok::Colon)?;
                    self.eat_kw("bench")?;
                    let volume = if self.peek() == &Tok::Star {
                        self.bump();
                        self.eat(&Tok::LParen)?;
                        let v = self.expr()?;
                        self.eat(&Tok::RParen)?;
                        v
                    } else {
                        Expr::Int(1)
                    };
                    self.eat(&Tok::Semi)?;
                    node_rules.push(NodeRule { guard, volume });
                }
                self.eat(&Tok::RBrace)?;
                self.eat(&Tok::Semi)?;
            } else if self.is_kw("link") {
                self.bump();
                if self.peek() == &Tok::LParen {
                    self.bump();
                    loop {
                        let bname = self.ident()?;
                        self.eat(&Tok::Assign)?;
                        let extent = self.expr()?;
                        link_binders.push((bname, extent));
                        if self.peek() == &Tok::Comma {
                            self.bump();
                        } else {
                            break;
                        }
                    }
                    self.eat(&Tok::RParen)?;
                }
                self.eat(&Tok::LBrace)?;
                while self.peek() != &Tok::RBrace {
                    let guard = self.expr()?;
                    self.eat(&Tok::Colon)?;
                    self.eat_kw("length")?;
                    self.eat(&Tok::Star)?;
                    self.eat(&Tok::LParen)?;
                    let volume = self.expr()?;
                    self.eat(&Tok::RParen)?;
                    self.eat(&Tok::LBracket)?;
                    let src = self.expr_list(&Tok::RBracket)?;
                    self.eat(&Tok::RBracket)?;
                    self.eat(&Tok::Arrow)?;
                    self.eat(&Tok::LBracket)?;
                    let dst = self.expr_list(&Tok::RBracket)?;
                    self.eat(&Tok::RBracket)?;
                    self.eat(&Tok::Semi)?;
                    link_rules.push(LinkRule {
                        guard,
                        volume,
                        src,
                        dst,
                    });
                }
                self.eat(&Tok::RBrace)?;
                self.eat(&Tok::Semi)?;
            } else if self.is_kw("parent") {
                self.bump();
                self.eat(&Tok::LBracket)?;
                parent = self.expr_list(&Tok::RBracket)?;
                self.eat(&Tok::RBracket)?;
                self.eat(&Tok::Semi)?;
            } else if self.is_kw("scheme") {
                self.bump();
                self.eat(&Tok::LBrace)?;
                while self.peek() != &Tok::RBrace {
                    scheme.push(self.stmt()?);
                }
                self.eat(&Tok::RBrace)?;
                self.eat(&Tok::Semi)?;
            } else {
                return Err(self.err(format!(
                    "expected a section (coord/node/link/parent/scheme), found {}",
                    self.peek()
                )));
            }
        }
        self.eat(&Tok::RBrace)?;
        // Figure 7 closes the algorithm with `};`.
        if self.peek() == &Tok::Semi {
            self.bump();
        }

        if coords.is_empty() {
            return Err(self.err(format!("algorithm `{name}` has no coord declaration")));
        }
        Ok(AlgorithmDef {
            name,
            params,
            coords,
            node_rules,
            link_binders,
            link_rules,
            parent,
            scheme,
        })
    }

    fn expr_list(&mut self, terminator: &Tok) -> Result<Vec<Expr>, ParseError> {
        let mut out = Vec::new();
        if self.peek() == terminator {
            return Ok(out);
        }
        loop {
            out.push(self.expr()?);
            if self.peek() == &Tok::Comma {
                self.bump();
            } else {
                break;
            }
        }
        Ok(out)
    }

    // ----- statements -------------------------------------------------------

    fn stmt(&mut self) -> Result<Stmt, ParseError> {
        match self.peek().clone() {
            Tok::Semi => {
                self.bump();
                Ok(Stmt::Empty)
            }
            Tok::LBrace => {
                self.bump();
                let mut body = Vec::new();
                while self.peek() != &Tok::RBrace {
                    body.push(self.nested_stmt()?);
                }
                self.eat(&Tok::RBrace)?;
                Ok(Stmt::Block(body))
            }
            Tok::Ident(kw) if kw == "for" || kw == "par" => {
                self.bump();
                self.eat(&Tok::LParen)?;
                let init = if self.peek() == &Tok::Semi {
                    None
                } else {
                    Some(Box::new(self.simple_stmt()?))
                };
                self.eat(&Tok::Semi)?;
                let cond = if self.peek() == &Tok::Semi {
                    None
                } else {
                    Some(self.expr()?)
                };
                self.eat(&Tok::Semi)?;
                let step = if self.peek() == &Tok::RParen {
                    None
                } else {
                    Some(Box::new(self.simple_stmt()?))
                };
                self.eat(&Tok::RParen)?;
                let body = Box::new(self.nested_stmt()?);
                Ok(if kw == "for" {
                    Stmt::For {
                        init,
                        cond,
                        step,
                        body,
                    }
                } else {
                    Stmt::Par {
                        init,
                        cond,
                        step,
                        body,
                    }
                })
            }
            Tok::Ident(kw) if kw == "if" => {
                self.bump();
                self.eat(&Tok::LParen)?;
                let cond = self.expr()?;
                self.eat(&Tok::RParen)?;
                let then = Box::new(self.nested_stmt()?);
                let els = if self.is_kw("else") {
                    self.bump();
                    Some(Box::new(self.nested_stmt()?))
                } else {
                    None
                };
                Ok(Stmt::If { cond, then, els })
            }
            Tok::Ident(ty) if ty == "int" || self.struct_names.contains(&ty) => {
                self.bump();
                let mut vars = Vec::new();
                loop {
                    let name = self.ident()?;
                    let init = if self.peek() == &Tok::Assign {
                        self.bump();
                        Some(self.expr()?)
                    } else {
                        None
                    };
                    vars.push((name, init));
                    if self.peek() == &Tok::Comma {
                        self.bump();
                    } else {
                        break;
                    }
                }
                self.eat(&Tok::Semi)?;
                Ok(Stmt::Decl { ty, vars })
            }
            Tok::Ident(name) if self.peek2() == &Tok::LParen => {
                // Extern call statement, possibly with & out-parameters.
                self.bump();
                self.bump();
                let mut args = Vec::new();
                if self.peek() != &Tok::RParen {
                    loop {
                        if self.peek() == &Tok::Amp {
                            self.bump();
                            let lv = self.lvalue()?;
                            args.push(CallArg::OutRef(lv));
                        } else {
                            args.push(CallArg::Value(self.expr()?));
                        }
                        if self.peek() == &Tok::Comma {
                            self.bump();
                        } else {
                            break;
                        }
                    }
                }
                self.eat(&Tok::RParen)?;
                self.eat(&Tok::Semi)?;
                Ok(Stmt::CallStmt { name, args })
            }
            _ => {
                // Expression-led: activity, or assignment.
                let e = self.expr()?;
                match self.peek().clone() {
                    Tok::PercentPercent => {
                        self.bump();
                        self.eat(&Tok::LBracket)?;
                        let first = self.expr_list(&Tok::RBracket)?;
                        self.eat(&Tok::RBracket)?;
                        if self.peek() == &Tok::Arrow {
                            self.bump();
                            self.eat(&Tok::LBracket)?;
                            let dst = self.expr_list(&Tok::RBracket)?;
                            self.eat(&Tok::RBracket)?;
                            self.eat(&Tok::Semi)?;
                            Ok(Stmt::Transfer {
                                percent: e,
                                src: first,
                                dst,
                            })
                        } else {
                            self.eat(&Tok::Semi)?;
                            Ok(Stmt::Compute {
                                percent: e,
                                proc: first,
                            })
                        }
                    }
                    _ => self.finish_assignment(e),
                }
            }
        }
    }

    /// A statement one level inside another.
    fn nested_stmt(&mut self) -> Result<Stmt, ParseError> {
        let depth = self.depth;
        self.nest()?;
        let s = self.stmt()?;
        self.depth = depth;
        Ok(s)
    }

    /// An assignment without the trailing semicolon (for `for`/`par` headers)
    /// or a full assignment statement when called from `stmt`.
    fn simple_stmt(&mut self) -> Result<Stmt, ParseError> {
        let e = self.expr()?;
        self.assignment_after(e)
    }

    fn finish_assignment(&mut self, e: Expr) -> Result<Stmt, ParseError> {
        let s = self.assignment_after(e)?;
        self.eat(&Tok::Semi)?;
        Ok(s)
    }

    fn assignment_after(&mut self, e: Expr) -> Result<Stmt, ParseError> {
        let op = match self.peek() {
            Tok::Assign => AssignOp::Set,
            Tok::PlusAssign => AssignOp::Add,
            Tok::MinusAssign => AssignOp::Sub,
            Tok::StarAssign => AssignOp::Mul,
            Tok::Incr => {
                self.bump();
                return Ok(Stmt::Assign {
                    lv: self.as_lvalue(e)?,
                    op: AssignOp::Add,
                    rhs: Expr::Int(1),
                });
            }
            Tok::Decr => {
                self.bump();
                return Ok(Stmt::Assign {
                    lv: self.as_lvalue(e)?,
                    op: AssignOp::Sub,
                    rhs: Expr::Int(1),
                });
            }
            other => {
                return Err(self.err(format!(
                    "expected an assignment operator or `%%`, found {other}"
                )))
            }
        };
        self.bump();
        let rhs = self.expr()?;
        Ok(Stmt::Assign {
            lv: self.as_lvalue(e)?,
            op,
            rhs,
        })
    }

    fn as_lvalue(&self, e: Expr) -> Result<LValue, ParseError> {
        match e {
            Expr::Var(name) => Ok(LValue::Var(name)),
            Expr::Member(base, field) => match *base {
                Expr::Var(name) => Ok(LValue::Member(name, field)),
                _ => Err(self.err("only `var.field` member assignment is supported")),
            },
            _ => Err(self.err("expression is not assignable")),
        }
    }

    fn lvalue(&mut self) -> Result<LValue, ParseError> {
        let name = self.ident()?;
        if self.peek() == &Tok::Dot {
            self.bump();
            let field = self.ident()?;
            Ok(LValue::Member(name, field))
        } else {
            Ok(LValue::Var(name))
        }
    }

    // ----- expressions ------------------------------------------------------

    fn expr(&mut self) -> Result<Expr, ParseError> {
        let depth = self.depth;
        let e = self.or_expr()?;
        self.depth = depth;
        Ok(e)
    }

    fn or_expr(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.and_expr()?;
        while self.peek() == &Tok::OrOr {
            self.nest()?;
            self.bump();
            let rhs = self.and_expr()?;
            lhs = Expr::Binary(BinOp::Or, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn and_expr(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.cmp_expr()?;
        while self.peek() == &Tok::AndAnd {
            self.nest()?;
            self.bump();
            let rhs = self.cmp_expr()?;
            lhs = Expr::Binary(BinOp::And, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn cmp_expr(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.add_expr()?;
        loop {
            let op = match self.peek() {
                Tok::Eq => BinOp::Eq,
                Tok::Ne => BinOp::Ne,
                Tok::Lt => BinOp::Lt,
                Tok::Gt => BinOp::Gt,
                Tok::Le => BinOp::Le,
                Tok::Ge => BinOp::Ge,
                _ => break,
            };
            self.nest()?;
            self.bump();
            let rhs = self.add_expr()?;
            lhs = Expr::Binary(op, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn add_expr(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.mul_expr()?;
        loop {
            let op = match self.peek() {
                Tok::Plus => BinOp::Add,
                Tok::Minus => BinOp::Sub,
                _ => break,
            };
            self.nest()?;
            self.bump();
            let rhs = self.mul_expr()?;
            lhs = Expr::Binary(op, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn mul_expr(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.unary_expr()?;
        loop {
            let op = match self.peek() {
                Tok::Star => BinOp::Mul,
                Tok::Slash => BinOp::Div,
                Tok::Percent => BinOp::Rem,
                _ => break,
            };
            self.nest()?;
            self.bump();
            let rhs = self.unary_expr()?;
            lhs = Expr::Binary(op, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn unary_expr(&mut self) -> Result<Expr, ParseError> {
        match self.peek() {
            Tok::Minus => {
                self.nest()?;
                self.bump();
                Ok(Expr::Unary(UnOp::Neg, Box::new(self.unary_expr()?)))
            }
            Tok::Not => {
                self.nest()?;
                self.bump();
                Ok(Expr::Unary(UnOp::Not, Box::new(self.unary_expr()?)))
            }
            _ => self.postfix_expr(),
        }
    }

    fn postfix_expr(&mut self) -> Result<Expr, ParseError> {
        let mut e = self.primary_expr()?;
        loop {
            match self.peek() {
                Tok::LBracket => {
                    self.nest()?;
                    self.bump();
                    let idx = self.expr()?;
                    self.eat(&Tok::RBracket)?;
                    e = Expr::Index(Box::new(e), Box::new(idx));
                }
                Tok::Dot => {
                    self.nest()?;
                    self.bump();
                    let field = self.ident()?;
                    e = Expr::Member(Box::new(e), field);
                }
                _ => break,
            }
        }
        Ok(e)
    }

    fn primary_expr(&mut self) -> Result<Expr, ParseError> {
        match self.peek().clone() {
            Tok::Int(n) => {
                self.bump();
                Ok(Expr::Int(n))
            }
            Tok::LParen => {
                self.nest()?;
                self.bump();
                let e = self.expr()?;
                self.eat(&Tok::RParen)?;
                Ok(e)
            }
            Tok::Ident(name) if name == "sizeof" => {
                self.bump();
                self.eat(&Tok::LParen)?;
                let ty = self.ident()?;
                self.eat(&Tok::RParen)?;
                Ok(Expr::SizeOf(ty))
            }
            Tok::Ident(name) => {
                self.bump();
                if self.peek() == &Tok::LParen {
                    self.nest()?;
                    self.bump();
                    let args = self.expr_list(&Tok::RParen)?;
                    self.eat(&Tok::RParen)?;
                    Ok(Expr::Call(name, args))
                } else {
                    Ok(Expr::Var(name))
                }
            }
            other => Err(self.err(format!("expected an expression, found {other}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_minimal_algorithm() {
        let src = r"
            algorithm Tiny(int p) {
                coord I=p;
                node {I>=0: bench*(1);};
                parent[0];
                scheme {
                    par (I = 0; I < p; I++) 100%%[I];
                };
            }
        ";
        let prog = parse_program(src).unwrap();
        assert_eq!(prog.algorithms.len(), 1);
        let a = &prog.algorithms[0];
        assert_eq!(a.name, "Tiny");
        assert_eq!(a.coords.len(), 1);
        assert_eq!(a.node_rules.len(), 1);
        assert_eq!(a.parent, vec![Expr::Int(0)]);
        assert_eq!(a.scheme.len(), 1);
    }

    #[test]
    fn parses_link_section_with_binder() {
        let src = r"
            algorithm L(int p, int dep[p][p]) {
                coord I=p;
                node {I>=0: bench*(1);};
                link (L=p) {
                    I>=0 && I!=L && (dep[I][L] > 0) :
                        length*(dep[I][L]*sizeof(double)) [L]->[I];
                };
                parent[0];
                scheme { 100%%[0]; };
            }
        ";
        let prog = parse_program(src).unwrap();
        let a = &prog.algorithms[0];
        assert_eq!(a.link_binders, vec![("L".to_string(), Expr::Var("p".into()))]);
        assert_eq!(a.link_rules.len(), 1);
        let r = &a.link_rules[0];
        assert_eq!(r.src, vec![Expr::Var("L".into())]);
        assert_eq!(r.dst, vec![Expr::Var("I".into())]);
    }

    #[test]
    fn parses_typedef_and_member_access() {
        let src = r"
            typedef struct {int I; int J;} Processor;
            algorithm G(int m) {
                coord I=m, J=m;
                node {I>=0 && J>=0: bench*(1);};
                parent[0,0];
                scheme {
                    Processor Root;
                    Root.I = 0;
                    par(Root.J = 0; Root.J < m; Root.J++)
                        (100/m)%%[Root.I, Root.J];
                };
            }
        ";
        let prog = parse_program(src).unwrap();
        assert_eq!(prog.typedefs[0].name, "Processor");
        assert_eq!(prog.typedefs[0].fields, vec!["I", "J"]);
        let a = &prog.algorithms[0];
        assert_eq!(a.coords.len(), 2);
        assert_eq!(a.parent.len(), 2);
    }

    #[test]
    fn parses_call_statement_with_outref() {
        let src = r"
            typedef struct {int I; int J;} Processor;
            algorithm C(int m) {
                coord I=m;
                node {I>=0: bench*(1);};
                parent[0];
                scheme {
                    Processor Root;
                    GetProcessor(0, 0, m, &Root);
                };
            }
        ";
        let prog = parse_program(src).unwrap();
        match &prog.algorithms[0].scheme[1] {
            Stmt::CallStmt { name, args } => {
                assert_eq!(name, "GetProcessor");
                assert_eq!(args.len(), 4);
                assert!(matches!(args[3], CallArg::OutRef(LValue::Var(ref v)) if v == "Root"));
            }
            other => panic!("expected call stmt, got {other:?}"),
        }
    }

    #[test]
    fn parses_for_with_compound_assign_in_body() {
        let src = r"
            algorithm F(int n) {
                coord I=n;
                node {I>=0: bench*(1);};
                parent[0];
                scheme {
                    int k;
                    for (k = 0; k < n; k++) {
                        int a = k%2, b;
                        b = 0;
                        b += a;
                        (100/n)%%[0];
                    }
                };
            }
        ";
        let prog = parse_program(src).unwrap();
        assert_eq!(prog.algorithms[0].scheme.len(), 2);
    }

    #[test]
    fn parses_par_with_empty_step() {
        let src = r"
            algorithm P(int l) {
                coord I=l;
                node {I>=0: bench*(1);};
                parent[0];
                scheme {
                    int Arow;
                    par(Arow = 0; Arow < l; ) {
                        100%%[0];
                        Arow += 2;
                    }
                };
            }
        ";
        let prog = parse_program(src).unwrap();
        match &prog.algorithms[0].scheme[1] {
            Stmt::Par { step, .. } => assert!(step.is_none()),
            other => panic!("expected par, got {other:?}"),
        }
    }

    #[test]
    fn error_positions_are_reported() {
        let err = parse_program("algorithm X(int p) { coord I=p; node }").unwrap_err();
        assert!(err.line >= 1);
        assert!(err.to_string().contains("expected"));
    }

    #[test]
    fn missing_coord_is_rejected() {
        let err = parse_program("algorithm X(int p) { parent[0]; }").unwrap_err();
        assert!(err.to_string().contains("no coord"));
    }

    #[test]
    fn nesting_beyond_the_bound_is_a_parse_error_not_a_stack_overflow() {
        use crate::{CompiledModel, PerformanceModel, RecordingSink};
        // Each shape nests `depth` levels: parentheses and a binary chain as
        // a volume and a share, and blocks around an activity.
        type Shape = fn(usize) -> (String, String);
        let shapes: [Shape; 3] = [
            |d| {
                let e = format!("{}1{}", "(".repeat(d), ")".repeat(d));
                (e.clone(), format!("{e}%%[0];"))
            },
            |d| {
                let e = format!("1{}", "+1".repeat(d));
                (e.clone(), format!("{e}%%[0];"))
            },
            |d| {
                let blocks = format!("{}100%%[0];{}", "{".repeat(d), "}".repeat(d));
                ("1".into(), blocks)
            },
        ];
        let compile = |(volume, scheme): (String, String)| {
            CompiledModel::compile(&format!(
                "algorithm Deep() {{ coord I=1; node {{I>=0: bench*({volume});}}; parent[0];
                   scheme {{ {scheme} }}; }}"
            ))
        };
        // A rank worker's stack.
        let worker = std::thread::Builder::new().stack_size(2 << 20);
        let run = move || {
            for shape in shapes {
                for deep in [MAX_DEPTH + 1, 10_000, 20_000] {
                    let err = compile(shape(deep)).unwrap_err();
                    assert!(err.message.contains("nesting deeper"), "{err}");
                }
                let inst = compile(shape(MAX_DEPTH)).unwrap().instantiate(&[]).unwrap();
                inst.run_scheme(&mut RecordingSink::default()).unwrap();
            }
        };
        worker.spawn(run).unwrap().join().unwrap();
    }

    #[test]
    fn nested_if_else() {
        let src = r"
            algorithm N(int p) {
                coord I=p;
                node {I>=0: bench*(1);};
                parent[0];
                scheme {
                    int x;
                    if (p > 1) x = 1; else if (p > 0) x = 2; else x = 3;
                };
            }
        ";
        assert!(parse_program(src).is_ok());
    }
}
