//! Property test: surface programs survive a print → parse round trip.
//!
//! The printer emits fully parenthesized concrete syntax; printing the
//! reparsed program must reproduce the text byte-for-byte (a fixpoint
//! check that is insensitive to symbol identity).

use fusion_ir::ast::{BinOp, Builder, Expr, ExprId, Program, Stmt, UnOp};
use fusion_ir::interner::Interner;
use fusion_ir::parser::parse;
use fusion_ir::pretty::surface_to_string;
use proptest::prelude::*;

/// Expressions over local slots `l0..l2`, encoded by index so the strategy
/// stays interner-free.
#[derive(Debug, Clone)]
enum EAst {
    Int(i64),
    Null,
    Var(usize),
    Un(u8, Box<EAst>),
    Bin(u8, Box<EAst>, Box<EAst>),
}

fn east() -> impl Strategy<Value = EAst> {
    let leaf = prop_oneof![
        (0i64..1000).prop_map(EAst::Int),
        Just(EAst::Null),
        (0usize..3).prop_map(EAst::Var),
    ];
    leaf.prop_recursive(3, 24, 2, |inner| {
        prop_oneof![
            (0u8..18, inner.clone(), inner.clone()).prop_map(|(op, a, b)| EAst::Bin(
                op,
                Box::new(a),
                Box::new(b)
            )),
            (0u8..3, inner).prop_map(|(op, a)| EAst::Un(op, Box::new(a))),
        ]
    })
}

fn materialize(e: &EAst, locals: &[fusion_ir::Symbol], b: &mut Builder) -> ExprId {
    const BINOPS: [BinOp; 18] = [
        BinOp::Add,
        BinOp::Sub,
        BinOp::Mul,
        BinOp::Div,
        BinOp::Rem,
        BinOp::BitAnd,
        BinOp::BitOr,
        BinOp::BitXor,
        BinOp::Shl,
        BinOp::Shr,
        BinOp::Lt,
        BinOp::Le,
        BinOp::Gt,
        BinOp::Ge,
        BinOp::Eq,
        BinOp::Ne,
        BinOp::And,
        BinOp::Or,
    ];
    const UNOPS: [UnOp; 3] = [UnOp::Not, UnOp::Neg, UnOp::BitNot];
    match e {
        EAst::Int(v) => b.int(*v),
        EAst::Null => b.expr(Expr::Null),
        EAst::Var(i) => b.var(locals[*i]),
        EAst::Un(op, x) => {
            let x = materialize(x, locals, b);
            b.expr(Expr::Unary(UNOPS[*op as usize % 3], x))
        }
        EAst::Bin(op, x, y) => {
            let x = materialize(x, locals, b);
            let y = materialize(y, locals, b);
            b.bin(BINOPS[*op as usize % 18], x, y)
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn print_parse_round_trip(items in prop::collection::vec((0usize..3, east(), any::<bool>()), 0..6)) {
        let mut interner = Interner::new();
        let locals = [interner.intern("l0"), interner.intern("l1"), interner.intern("l2")];
        let fname = interner.intern("f");
        let mut b = Builder::new();
        let mut body = Vec::new();
        for &l in &locals {
            let zero = b.int(0);
            body.push(b.stmt(Stmt::Let(l, zero)));
        }
        for (slot, e, branch) in &items {
            let expr = materialize(e, &locals, &mut b);
            if *branch {
                let one = b.int(1);
                let then_s = b.stmt(Stmt::Assign(locals[*slot], one));
                let then_b = b.block(&[then_s]);
                let two = b.int(2);
                let else_s = b.stmt(Stmt::Assign(locals[*slot], two));
                let else_b = b.block(&[else_s]);
                body.push(b.stmt(Stmt::If(expr, then_b, else_b)));
            } else {
                body.push(b.stmt(Stmt::Assign(locals[*slot], expr)));
            }
        }
        let ret = b.var(locals[0]);
        body.push(b.stmt(Stmt::Return(ret)));
        let body = b.block(&body);
        let program = Program {
            functions: vec![b.finish(fname, vec![], body)],
        };
        let text = surface_to_string(&program, &interner);
        let mut interner2 = Interner::new();
        let reparsed = parse(&text, &mut interner2)
            .unwrap_or_else(|e| panic!("reparse failed: {e}\n{text}"));
        let text2 = surface_to_string(&reparsed, &interner2);
        prop_assert_eq!(text, text2);
    }
}

#[test]
fn round_trip_fixture() {
    let src = "extern fn sink(x);\n\
        fn f(a, b) { let r = 0; if (a < b) { r = a * 2; } else { r = ~(b); } \
        while (r < 10) { r = r + 1; } sink(r); return r; }";
    let mut i1 = Interner::new();
    let p1 = parse(src, &mut i1).unwrap();
    let text = surface_to_string(&p1, &i1);
    let mut i2 = Interner::new();
    let p2 = parse(&text, &mut i2).unwrap();
    assert_eq!(surface_to_string(&p2, &i2), text);
}
