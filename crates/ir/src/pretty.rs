//! Pretty-printers for the surface AST and the core SSA form.
//!
//! The surface printer emits parseable concrete syntax (round-trips through
//! [`crate::parser::parse`], which the property tests verify); the core
//! printer emits a readable listing of lowered functions, indenting by
//! guard nesting so the control structure reconstructed in [`crate::cfg`]
//! is visible.

use crate::ast::{self, BinOp, Expr, Stmt, UnOp};
use crate::interner::Interner;
use crate::ssa::{DefKind, Function, Op, Program};
use std::fmt::Write as _;

fn surface_binop(op: BinOp) -> &'static str {
    match op {
        BinOp::Add => "+",
        BinOp::Sub => "-",
        BinOp::Mul => "*",
        BinOp::Div => "/",
        BinOp::Rem => "%",
        BinOp::BitAnd => "&",
        BinOp::BitOr => "|",
        BinOp::BitXor => "^",
        BinOp::Shl => "<<",
        BinOp::Shr => ">>",
        BinOp::Lt => "<",
        BinOp::Le => "<=",
        BinOp::Gt => ">",
        BinOp::Ge => ">=",
        BinOp::Eq => "==",
        BinOp::Ne => "!=",
        BinOp::And => "&&",
        BinOp::Or => "||",
    }
}

fn surface_expr(e: &Expr, interner: &Interner, out: &mut String) {
    match e {
        Expr::Int(v) => {
            let _ = write!(out, "{v}");
        }
        Expr::Null => out.push_str("null"),
        Expr::Var(s) => out.push_str(interner.resolve(*s)),
        Expr::Unary(op, inner) => {
            out.push_str(match op {
                UnOp::Not => "!",
                UnOp::Neg => "-",
                UnOp::BitNot => "~",
            });
            out.push('(');
            surface_expr(inner, interner, out);
            out.push(')');
        }
        Expr::Binary(op, a, b) => {
            // Fully parenthesized: precedence-proof round trips.
            out.push('(');
            surface_expr(a, interner, out);
            let _ = write!(out, " {} ", surface_binop(*op));
            surface_expr(b, interner, out);
            out.push(')');
        }
        Expr::Call(name, args) => {
            out.push_str(interner.resolve(*name));
            out.push('(');
            for (i, a) in args.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                surface_expr(a, interner, out);
            }
            out.push(')');
        }
    }
}

fn surface_stmts(stmts: &[Stmt], interner: &Interner, indent: usize, out: &mut String) {
    let pad = "    ".repeat(indent);
    for s in stmts {
        out.push_str(&pad);
        match s {
            Stmt::Let(name, e) => {
                let _ = write!(out, "let {} = ", interner.resolve(*name));
                surface_expr(e, interner, out);
                out.push_str(";\n");
            }
            Stmt::Assign(name, e) => {
                let _ = write!(out, "{} = ", interner.resolve(*name));
                surface_expr(e, interner, out);
                out.push_str(";\n");
            }
            Stmt::Return(e) => {
                out.push_str("return ");
                surface_expr(e, interner, out);
                out.push_str(";\n");
            }
            Stmt::Expr(e) => {
                surface_expr(e, interner, out);
                out.push_str(";\n");
            }
            Stmt::If(c, t, el) => {
                out.push_str("if (");
                surface_expr(c, interner, out);
                out.push_str(") {\n");
                surface_stmts(t, interner, indent + 1, out);
                out.push_str(&pad);
                out.push('}');
                if !el.is_empty() {
                    out.push_str(" else {\n");
                    surface_stmts(el, interner, indent + 1, out);
                    out.push_str(&pad);
                    out.push('}');
                }
                out.push('\n');
            }
            Stmt::While(c, b) => {
                out.push_str("while (");
                surface_expr(c, interner, out);
                out.push_str(") {\n");
                surface_stmts(b, interner, indent + 1, out);
                out.push_str(&pad);
                out.push_str("}\n");
            }
        }
    }
}

/// Renders a surface program back to parseable concrete syntax.
pub fn surface_to_string(program: &ast::Program, interner: &Interner) -> String {
    let mut out = String::new();
    for f in &program.functions {
        if f.is_extern {
            out.push_str("extern ");
        }
        let _ = write!(out, "fn {}(", interner.resolve(f.name));
        for (i, p) in f.params.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(interner.resolve(*p));
        }
        out.push(')');
        if f.is_extern {
            out.push_str(";\n");
        } else {
            out.push_str(" {\n");
            surface_stmts(&f.body, interner, 1, &mut out);
            out.push_str("}\n");
        }
        out.push('\n');
    }
    out
}

fn op_str(op: Op) -> &'static str {
    match op {
        Op::Add => "+",
        Op::Sub => "-",
        Op::Mul => "*",
        Op::Udiv => "/u",
        Op::Urem => "%u",
        Op::And => "&",
        Op::Or => "|",
        Op::Xor => "^",
        Op::Shl => "<<",
        Op::Lshr => ">>u",
        Op::Ashr => ">>s",
        Op::Slt => "<s",
        Op::Sle => "<=s",
        Op::Ult => "<u",
        Op::Ule => "<=u",
        Op::Eq => "==",
        Op::Ne => "!=",
    }
}

/// Renders one function as an indented listing.
pub fn function_to_string(program: &Program, func: &Function) -> String {
    let mut s = String::new();
    let name = program.name(func.name);
    if func.is_extern {
        let _ = writeln!(s, "extern fn {name}/{};", func.params.len());
        return s;
    }
    let params: Vec<String> = func
        .params
        .iter()
        .map(|p| format!("{}:{}", program.def_name(func.def(*p)), p))
        .collect();
    let _ = writeln!(s, "fn {name}({}) {{", params.join(", "));
    for def in &func.defs {
        let depth = func.guards(def.var).len();
        let indent = "  ".repeat(depth + 1);
        let nm = program.def_name(def);
        let rhs = match &def.kind {
            DefKind::Param { index } => format!("param #{index}"),
            DefKind::Const {
                value,
                is_null: true,
            } => format!("null ({value})"),
            DefKind::Const {
                value,
                is_null: false,
            } => format!("{value}"),
            DefKind::Copy { src } => format!("{src}"),
            DefKind::Binary { op, lhs, rhs } => format!("{lhs} {} {rhs}", op_str(*op)),
            DefKind::Ite {
                cond,
                then_v,
                else_v,
            } => {
                format!("ite({cond}, {then_v}, {else_v})")
            }
            DefKind::Call { callee, args, site } => {
                let callee_name = program.name(program.func(*callee).name);
                let args: Vec<String> = args.iter().map(ToString::to_string).collect();
                format!("call {callee_name}({}) [{site}]", args.join(", "))
            }
            DefKind::Branch { cond } => format!("branch if {cond}"),
            DefKind::Return { src } => format!("return {src}"),
        };
        let _ = writeln!(s, "{indent}{} ({nm}) = {rhs}", def.var);
    }
    let _ = writeln!(s, "}}");
    s
}

/// Renders a whole core program.
pub fn program_to_string(program: &Program) -> String {
    let mut s = String::new();
    for f in &program.functions {
        s.push_str(&function_to_string(program, f));
        s.push('\n');
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interner::Interner;
    use crate::lower::{lower, LowerOptions};
    use crate::parser::parse;

    #[test]
    fn renders_nesting_and_calls() {
        let mut i = Interner::new();
        let s = parse(
            "fn g(x) { return x; } fn f(a) { let r = 0; if (a) { r = g(a); } return r; }",
            &mut i,
        )
        .unwrap();
        let p = lower(&s, &mut i, LowerOptions::default()).unwrap();
        let text = program_to_string(&p);
        assert!(text.contains("fn f("));
        assert!(text.contains("branch if"));
        assert!(text.contains("call g("));
        assert!(text.contains("return"));
        // Guarded defs are indented deeper than the branch.
        let branch_line = text.lines().find(|l| l.contains("branch if")).unwrap();
        let call_line = text.lines().find(|l| l.contains("call g(")).unwrap();
        let lead = |l: &str| l.chars().take_while(|c| *c == ' ').count();
        assert!(lead(call_line) > lead(branch_line));
    }

    /// One definition of every kind, named exactly as lowering has always
    /// named them.
    #[test]
    fn definition_names_are_pinned() {
        let p = crate::compile(
            "extern fn g(x);\n\
             fn f(a) {\n\
                 let p = null;\n\
                 let r = 1;\n\
                 if (a > 2) { r = g(a); } else { r = 3; }\n\
                 if (r == 4) { return p; }\n\
                 return r + 5;\n\
             }",
            crate::CompileOptions::default(),
        )
        .unwrap();
        let f = p.func_by_name("f").unwrap();
        assert_eq!(
            function_to_string(&p, f),
            "fn f(a:v0) {
  v0 (a) = param #0
  v1 (null.1) = null (0)
  v2 (c1.2) = 1
  v3 (c2.3) = 2
  v4 (t.4) = v3 <s v0
  v5 (if.5) = branch if v4
    v6 (r_g.6) = call g(v0) [cs0]
  v7 (c0.7) = 0
  v8 (t.8) = v4 == v7
  v9 (else.9) = branch if v8
    v10 (c3.10) = 3
  v11 (r.11) = ite(v4, v6, v10)
  v12 (c4.12) = 4
  v13 (t.13) = v11 == v12
  v14 (if.14) = branch if v13
  v15 (__ret_val.15) = ite(v13, v1, v7)
  v16 (__ret_taken.16) = ite(v13, v2, v7)
  v17 (not_returned.17) = v16 == v7
  v18 (cont.18) = branch if v17
    v19 (c5.19) = 5
    v20 (t.20) = v11 + v19
  v21 (__ret_val.21) = ite(v17, v20, v15)
  v22 (__ret_taken.22) = ite(v17, v2, v16)
  v23 (ret.23) = return v21
}
"
        );
    }

    #[test]
    fn renders_externs() {
        let mut i = Interner::new();
        let s = parse("extern fn gets();", &mut i).unwrap();
        let p = lower(&s, &mut i, LowerOptions::default()).unwrap();
        assert!(program_to_string(&p).contains("extern fn gets/0;"));
    }
}
