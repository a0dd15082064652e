//! Lexer and recursive-descent parser for the surface language.
//!
//! The concrete syntax is a small C-like notation for the Fig. 4 language:
//!
//! ```text
//! extern fn gets();
//! fn bar(x) { let y = x * 2; let z = y; return z; }
//! fn foo(a, b) {
//!     let p = null;
//!     let c = bar(a);
//!     let d = bar(b);
//!     if (c < d) { return p; }
//!     return 1;
//! }
//! ```
//!
//! # Errors
//!
//! All entry points return [`ParseError`] with a line/column position and a
//! human-readable message on malformed input.

use crate::ast::{BinOp, Expr, Function, Program, Stmt, UnOp};
use crate::interner::{Interner, Symbol};
use std::error::Error;
use std::fmt;

/// A parse failure with source position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line of the offending token.
    pub line: u32,
    /// 1-based column of the offending token.
    pub col: u32,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "parse error at {}:{}: {}",
            self.line, self.col, self.message
        )
    }
}

impl Error for ParseError {}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Tok {
    Ident(Symbol),
    Int(i64),
    KwFn,
    KwExtern,
    KwLet,
    KwIf,
    KwElse,
    KwWhile,
    KwReturn,
    KwNull,
    LParen,
    RParen,
    LBrace,
    RBrace,
    Comma,
    Semi,
    Assign,
    // operators
    Plus,
    Minus,
    Star,
    Slash,
    Percent,
    Amp,
    Pipe,
    Caret,
    Tilde,
    Bang,
    Shl,
    Shr,
    Lt,
    Le,
    Gt,
    Ge,
    EqEq,
    Ne,
    AndAnd,
    OrOr,
    Eof,
}

#[derive(Debug, Clone, Copy)]
struct SpannedTok {
    tok: Tok,
    line: u32,
    col: u32,
}

/// Splits source text into tokens one at a time, as the parser asks for
/// them. Identifiers are interned as they are lexed, so in source order.
struct Lexer<'s> {
    src: &'s str,
    /// Byte offset of the next unlexed character.
    pos: usize,
    line: u32,
    col: u32,
}

impl<'s> Lexer<'s> {
    fn new(src: &'s str) -> Self {
        Lexer {
            src,
            pos: 0,
            line: 1,
            col: 1,
        }
    }

    /// The next token, or [`Tok::Eof`] (again and again) at the end of the
    /// input. A lexical error leaves the position at the offending
    /// character, so asking again repeats it.
    fn next_tok(&mut self, interner: &mut Interner) -> Result<SpannedTok, ParseError> {
        let bytes = self.src.as_bytes();
        // Whitespace and comments.
        while let Some(&b) = bytes.get(self.pos) {
            match b {
                b'\n' => {
                    self.pos += 1;
                    self.line += 1;
                    self.col = 1;
                }
                b' ' | b'\t' | b'\r' => {
                    self.pos += 1;
                    self.col += 1;
                }
                b'/' if bytes.get(self.pos + 1) == Some(&b'/') => {
                    while self.pos < bytes.len() && bytes[self.pos] != b'\n' {
                        self.pos += 1;
                    }
                }
                _ => break,
            }
        }
        let (line, col) = (self.line, self.col);
        let spanned = |tok| SpannedTok { tok, line, col };
        let Some(&b) = bytes.get(self.pos) else {
            return Ok(spanned(Tok::Eof));
        };
        let second = bytes.get(self.pos + 1).copied();
        // Operators and punctuation: the token and its length.
        let punct = match (b, second) {
            (b'(', _) => Some((Tok::LParen, 1)),
            (b')', _) => Some((Tok::RParen, 1)),
            (b'{', _) => Some((Tok::LBrace, 1)),
            (b'}', _) => Some((Tok::RBrace, 1)),
            (b',', _) => Some((Tok::Comma, 1)),
            (b';', _) => Some((Tok::Semi, 1)),
            (b'+', _) => Some((Tok::Plus, 1)),
            (b'-', _) => Some((Tok::Minus, 1)),
            (b'*', _) => Some((Tok::Star, 1)),
            (b'/', _) => Some((Tok::Slash, 1)),
            (b'%', _) => Some((Tok::Percent, 1)),
            (b'^', _) => Some((Tok::Caret, 1)),
            (b'~', _) => Some((Tok::Tilde, 1)),
            (b'&', Some(b'&')) => Some((Tok::AndAnd, 2)),
            (b'&', _) => Some((Tok::Amp, 1)),
            (b'|', Some(b'|')) => Some((Tok::OrOr, 2)),
            (b'|', _) => Some((Tok::Pipe, 1)),
            (b'!', Some(b'=')) => Some((Tok::Ne, 2)),
            (b'!', _) => Some((Tok::Bang, 1)),
            (b'<', Some(b'=')) => Some((Tok::Le, 2)),
            (b'<', Some(b'<')) => Some((Tok::Shl, 2)),
            (b'<', _) => Some((Tok::Lt, 1)),
            (b'>', Some(b'=')) => Some((Tok::Ge, 2)),
            (b'>', Some(b'>')) => Some((Tok::Shr, 2)),
            (b'>', _) => Some((Tok::Gt, 1)),
            (b'=', Some(b'=')) => Some((Tok::EqEq, 2)),
            (b'=', _) => Some((Tok::Assign, 1)),
            _ => None,
        };
        if let Some((tok, len)) = punct {
            self.pos += len;
            self.col += len as u32;
            return Ok(spanned(tok));
        }
        let start = self.pos;
        let run = |accept: fn(u8) -> bool| {
            bytes[start..]
                .iter()
                .position(|&c| !accept(c))
                .map_or(bytes.len(), |k| start + k)
        };
        let tok = if b.is_ascii_digit() {
            let end = run(|c| c.is_ascii_digit());
            let text = &self.src[start..end];
            let value: i64 = text.parse().map_err(|_| ParseError {
                line,
                col,
                message: format!("integer literal `{text}` out of range"),
            })?;
            self.pos = end;
            Tok::Int(value)
        } else if b.is_ascii_alphabetic() || b == b'_' {
            let end = run(|c| c.is_ascii_alphanumeric() || c == b'_' || c == b'#' || c == b'.');
            self.pos = end;
            match &self.src[start..end] {
                "fn" => Tok::KwFn,
                "extern" => Tok::KwExtern,
                "let" => Tok::KwLet,
                "if" => Tok::KwIf,
                "else" => Tok::KwElse,
                "while" => Tok::KwWhile,
                "return" => Tok::KwReturn,
                "null" => Tok::KwNull,
                text => Tok::Ident(interner.intern(text)),
            }
        } else {
            return Err(ParseError {
                line,
                col,
                message: format!("unexpected character `{}`", b as char),
            });
        };
        self.col += (self.pos - start) as u32;
        Ok(spanned(tok))
    }
}

/// The deepest nesting the parser accepts. A function body is level 1;
/// every nested block (an `else if` counts as one), parenthesis (grouping
/// or a call's argument list), unary operator and link of a binary
/// operator chain adds one level.
///
/// The parser, lowering and the AST's `Drop` recurse once per level, so
/// the bound keeps hostile input from overflowing the stack. Unoptimized
/// builds spend up to ~3.8 KiB of stack per level (nested `if`s through
/// lowering) and overflow a 2 MiB thread stack near 550 levels; 256 keeps
/// a 2x margin there and far more in release builds. Generated subjects
/// nest about 6 levels.
pub const MAX_NESTING: usize = 256;

/// A recursive-descent parser over a two-token window of the input: the
/// current token and the one after it, lexed on demand.
struct Parser<'s, 'i> {
    lexer: Lexer<'s>,
    cur: SpannedTok,
    next: SpannedTok,
    /// Interns identifiers as they are lexed and renders them in error
    /// messages.
    interner: &'i mut Interner,
    /// Nesting level of the construct being parsed (see [`MAX_NESTING`]).
    depth: usize,
}

impl<'s, 'i> Parser<'s, 'i> {
    fn new(src: &'s str, interner: &'i mut Interner) -> Result<Self, ParseError> {
        let mut lexer = Lexer::new(src);
        let cur = lexer.next_tok(interner)?;
        let next = lexer.next_tok(interner)?;
        Ok(Parser {
            lexer,
            cur,
            next,
            interner,
            depth: 0,
        })
    }

    /// Runs `parse`, keeping the rule that a lexical error anywhere in the
    /// input beats an earlier syntax or nesting error: on any error, the
    /// rest of the input is lexed and its first lexical error, if it has
    /// one, is reported instead. Everything before the lexer's position
    /// lexed cleanly, so that is the input's first lexical error.
    fn run<T>(
        &mut self,
        parse: impl FnOnce(&mut Self) -> Result<T, ParseError>,
    ) -> Result<T, ParseError> {
        parse(self).map_err(|syntax| loop {
            match self.lexer.next_tok(self.interner) {
                Err(lexical) => break lexical,
                Ok(t) if t.tok == Tok::Eof => break syntax,
                Ok(_) => {}
            }
        })
    }

    fn peek(&self) -> Tok {
        self.cur.tok
    }

    fn err(&self, message: impl Into<String>) -> ParseError {
        ParseError {
            line: self.cur.line,
            col: self.cur.col,
            message: message.into(),
        }
    }

    /// `expected {what}, found {token}` at the current token; an identifier
    /// reads `Ident("name")`.
    fn expected(&self, what: &str) -> ParseError {
        let found = match self.peek() {
            Tok::Ident(sym) => format!("Ident({:?})", self.interner.resolve(sym)),
            other => format!("{other:?}"),
        };
        self.err(format!("expected {what}, found {found}"))
    }

    /// Moves the window one token on; at the end it stays on `Eof`.
    fn bump(&mut self) -> Result<(), ParseError> {
        if self.cur.tok != Tok::Eof {
            self.cur = self.next;
            if self.next.tok != Tok::Eof {
                self.next = self.lexer.next_tok(self.interner)?;
            }
        }
        Ok(())
    }

    fn expect(&mut self, want: Tok, what: &str) -> Result<(), ParseError> {
        if self.peek() == want {
            self.bump()?;
            Ok(())
        } else {
            Err(self.expected(what))
        }
    }

    fn ident(&mut self, what: &str) -> Result<Symbol, ParseError> {
        match self.peek() {
            Tok::Ident(sym) => {
                self.bump()?;
                Ok(sym)
            }
            _ => Err(self.expected(what)),
        }
    }

    /// Fails at the current token if a construct `levels` below the
    /// current depth would nest deeper than [`MAX_NESTING`].
    fn check_depth(&self, levels: usize) -> Result<(), ParseError> {
        if self.depth + levels > MAX_NESTING {
            Err(self.err(format!("nesting deeper than {MAX_NESTING} levels")))
        } else {
            Ok(())
        }
    }

    /// Opens one nesting level at the current token. Callers close it with
    /// `self.depth -= 1` on success only: a parse error ends the parse.
    fn enter(&mut self) -> Result<(), ParseError> {
        self.check_depth(1)?;
        self.depth += 1;
        Ok(())
    }

    fn program(&mut self) -> Result<Program, ParseError> {
        let mut functions = Vec::new();
        while self.peek() != Tok::Eof {
            functions.push(self.function()?);
        }
        Ok(Program { functions })
    }

    fn function(&mut self) -> Result<Function, ParseError> {
        let is_extern = if self.peek() == Tok::KwExtern {
            self.bump()?;
            true
        } else {
            false
        };
        self.expect(Tok::KwFn, "`fn`")?;
        let name = self.ident("function name")?;
        self.expect(Tok::LParen, "`(`")?;
        let mut params = Vec::new();
        if self.peek() != Tok::RParen {
            loop {
                params.push(self.ident("parameter name")?);
                if self.peek() == Tok::Comma {
                    self.bump()?;
                } else {
                    break;
                }
            }
        }
        self.expect(Tok::RParen, "`)`")?;
        let body = if is_extern {
            self.expect(Tok::Semi, "`;` after extern declaration")?;
            Vec::new()
        } else {
            self.block()?
        };
        Ok(Function {
            name,
            params,
            body,
            is_extern,
        })
    }

    /// `{ stmts }`, one nesting level deeper than its surroundings.
    fn block(&mut self) -> Result<Vec<Stmt>, ParseError> {
        self.enter()?;
        self.expect(Tok::LBrace, "`{`")?;
        let mut stmts = Vec::new();
        while self.peek() != Tok::RBrace {
            if self.peek() == Tok::Eof {
                return Err(self.err("unexpected end of input in block"));
            }
            stmts.push(self.stmt()?);
        }
        self.bump()?; // RBrace
        self.depth -= 1;
        Ok(stmts)
    }

    /// One statement. Each kind is parsed by its own function, which keeps
    /// the frames on a nested block's path small in unoptimized builds.
    fn stmt(&mut self) -> Result<Stmt, ParseError> {
        match self.peek() {
            Tok::KwLet => self.let_stmt(),
            Tok::KwIf => self.if_stmt(),
            Tok::KwWhile => self.while_stmt(),
            Tok::KwReturn => {
                self.bump()?;
                self.expr_then_semi().map(Stmt::Return)
            }
            Tok::Ident(sym) if self.next.tok == Tok::Assign => {
                self.bump()?;
                self.bump()?;
                self.expr_then_semi().map(|e| Stmt::Assign(sym, e))
            }
            _ => self.expr_then_semi().map(Stmt::Expr),
        }
    }

    fn let_stmt(&mut self) -> Result<Stmt, ParseError> {
        self.bump()?;
        let name = self.ident("binding name")?;
        self.expect(Tok::Assign, "`=`")?;
        let e = self.expr_then_semi()?;
        Ok(Stmt::Let(name, e))
    }

    /// `if (c) { .. }`, optionally followed by `else { .. }` or by
    /// `else if ..`, which nests one level like a block.
    fn if_stmt(&mut self) -> Result<Stmt, ParseError> {
        let c = self.condition()?;
        let then_b = self.block()?;
        let mut else_b = Vec::new();
        if self.peek() == Tok::KwElse {
            self.bump()?;
            if self.peek() == Tok::KwIf {
                self.enter()?;
                else_b.push(self.if_stmt()?);
                self.depth -= 1;
            } else {
                else_b = self.block()?;
            }
        }
        Ok(Stmt::If(c, then_b, else_b))
    }

    fn while_stmt(&mut self) -> Result<Stmt, ParseError> {
        let c = self.condition()?;
        let body = self.block()?;
        Ok(Stmt::While(c, body))
    }

    /// The keyword and parenthesized condition of an `if` or `while`.
    fn condition(&mut self) -> Result<Expr, ParseError> {
        self.bump()?;
        self.expect(Tok::LParen, "`(`")?;
        let c = self.expr()?;
        self.expect(Tok::RParen, "`)`")?;
        Ok(c)
    }

    fn expr_then_semi(&mut self) -> Result<Expr, ParseError> {
        let e = self.expr()?;
        self.expect(Tok::Semi, "`;`")?;
        Ok(e)
    }

    fn expr(&mut self) -> Result<Expr, ParseError> {
        Ok(self.bin_expr(0)?.0)
    }

    /// Precedence-climbing binary expression parser (levels in
    /// [`binop`]).
    ///
    /// Returns the expression with its height: the nesting levels it spans
    /// below the current depth. A chain is built iteratively, each link
    /// pushing everything parsed so far one level down.
    fn bin_expr(&mut self, min_level: u8) -> Result<(Expr, usize), ParseError> {
        let (mut lhs, mut height) = self.unary()?;
        while let Some((level, op)) = binop(self.peek()) {
            if level < min_level {
                break;
            }
            self.check_depth(height + 1)?;
            self.bump()?;
            self.depth += 1;
            let (rhs, rhs_height) = self.bin_expr(level + 1)?;
            self.depth -= 1;
            height = height.max(rhs_height) + 1;
            lhs = Expr::bin(op, lhs, rhs);
        }
        Ok((lhs, height))
    }

    fn unary(&mut self) -> Result<(Expr, usize), ParseError> {
        let op = match self.peek() {
            Tok::Bang => UnOp::Not,
            Tok::Minus => UnOp::Neg,
            Tok::Tilde => UnOp::BitNot,
            _ => return self.primary(),
        };
        self.enter()?;
        self.bump()?;
        let (e, height) = self.unary()?;
        self.depth -= 1;
        Ok((Expr::un(op, e), height + 1))
    }

    fn primary(&mut self) -> Result<(Expr, usize), ParseError> {
        match self.peek() {
            Tok::Int(v) => {
                self.bump()?;
                Ok((Expr::Int(v), 0))
            }
            Tok::KwNull => {
                self.bump()?;
                Ok((Expr::Null, 0))
            }
            Tok::LParen => {
                self.enter()?;
                self.bump()?;
                let (e, height) = self.bin_expr(0)?;
                self.expect(Tok::RParen, "`)`")?;
                self.depth -= 1;
                Ok((e, height + 1))
            }
            Tok::Ident(sym) => {
                self.bump()?;
                if self.peek() == Tok::LParen {
                    self.call(sym)
                } else {
                    Ok((Expr::Var(sym), 0))
                }
            }
            _ => Err(self.expected("expression")),
        }
    }

    /// The argument list of a call to `callee`, one nesting level deeper.
    fn call(&mut self, callee: Symbol) -> Result<(Expr, usize), ParseError> {
        self.enter()?;
        self.bump()?;
        let mut args = Vec::new();
        let mut height = 0;
        if self.peek() != Tok::RParen {
            loop {
                let (arg, h) = self.bin_expr(0)?;
                args.push(arg);
                height = height.max(h);
                if self.peek() == Tok::Comma {
                    self.bump()?;
                } else {
                    break;
                }
            }
        }
        self.expect(Tok::RParen, "`)`")?;
        self.depth -= 1;
        Ok((Expr::Call(callee, args), height + 1))
    }
}

/// Binding level (loosest first) and operator of a binary operator token:
/// `||`, `&&`, `|`, `^`, `&`, `== !=`, `< <= > >=`, `<< >>`, `+ -`,
/// `* / %`.
fn binop(tok: Tok) -> Option<(u8, BinOp)> {
    Some(match tok {
        Tok::OrOr => (0, BinOp::Or),
        Tok::AndAnd => (1, BinOp::And),
        Tok::Pipe => (2, BinOp::BitOr),
        Tok::Caret => (3, BinOp::BitXor),
        Tok::Amp => (4, BinOp::BitAnd),
        Tok::EqEq => (5, BinOp::Eq),
        Tok::Ne => (5, BinOp::Ne),
        Tok::Lt => (6, BinOp::Lt),
        Tok::Le => (6, BinOp::Le),
        Tok::Gt => (6, BinOp::Gt),
        Tok::Ge => (6, BinOp::Ge),
        Tok::Shl => (7, BinOp::Shl),
        Tok::Shr => (7, BinOp::Shr),
        Tok::Plus => (8, BinOp::Add),
        Tok::Minus => (8, BinOp::Sub),
        Tok::Star => (9, BinOp::Mul),
        Tok::Slash => (9, BinOp::Div),
        Tok::Percent => (9, BinOp::Rem),
        _ => return None,
    })
}

/// Parses a whole program, interning names into `interner` in source
/// order.
///
/// Tokens are lexed as the parser reaches them, but a lexical error
/// anywhere in the input still wins over an earlier syntax or nesting
/// error: on a syntax error the rest of the input is lexed, and its first
/// lexical error is reported instead.
///
/// # Errors
///
/// Returns [`ParseError`] on any lexical or syntactic problem, including
/// nesting deeper than [`MAX_NESTING`].
///
/// # Examples
///
/// ```
/// use fusion_ir::interner::Interner;
/// use fusion_ir::parser::parse;
///
/// let mut interner = Interner::new();
/// let prog = parse("fn id(x) { return x; }", &mut interner)?;
/// assert_eq!(prog.functions.len(), 1);
/// # Ok::<(), fusion_ir::parser::ParseError>(())
/// ```
pub fn parse(src: &str, interner: &mut Interner) -> Result<Program, ParseError> {
    Parser::new(src, interner)?.run(Parser::program)
}

/// Parses a single expression (useful in tests).
///
/// # Errors
///
/// Returns [`ParseError`] on malformed input or trailing tokens.
pub fn parse_expr(src: &str, interner: &mut Interner) -> Result<Expr, ParseError> {
    Parser::new(src, interner)?.run(|p| {
        let e = p.expr()?;
        if p.peek() != Tok::Eof {
            return Err(p.err("trailing input after expression"));
        }
        Ok(e)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{BinOp, Expr, Stmt};

    fn parse_ok(src: &str) -> (Program, Interner) {
        let mut i = Interner::new();
        let p = parse(src, &mut i).expect("parse");
        (p, i)
    }

    #[test]
    fn parses_figure_1_program() {
        let (p, i) = parse_ok(
            "fn bar(x) { let y = x * 2; let z = y; return z; }\n\
             fn foo(a, b) {\n\
               let p = null;\n\
               let c = bar(a);\n\
               let d = bar(b);\n\
               if (c < d) { return p; }\n\
               return 1;\n\
             }",
        );
        assert_eq!(p.functions.len(), 2);
        let foo = p.function(i.lookup("foo").unwrap()).unwrap();
        assert_eq!(foo.params.len(), 2);
        assert_eq!(foo.body.len(), 5);
    }

    #[test]
    fn parses_extern_declaration() {
        let (p, _) = parse_ok("extern fn gets(); extern fn fopen(path);");
        assert!(p.functions.iter().all(|f| f.is_extern));
        assert_eq!(p.functions[1].params.len(), 1);
    }

    #[test]
    fn precedence_mul_binds_tighter_than_add() {
        let mut i = Interner::new();
        let e = parse_expr("1 + 2 * 3", &mut i).unwrap();
        assert_eq!(
            e,
            Expr::bin(
                BinOp::Add,
                Expr::Int(1),
                Expr::bin(BinOp::Mul, Expr::Int(2), Expr::Int(3))
            )
        );
    }

    #[test]
    fn precedence_comparison_vs_logic() {
        let mut i = Interner::new();
        let e = parse_expr("a < b && c < d", &mut i).unwrap();
        match e {
            Expr::Binary(BinOp::And, l, r) => {
                assert!(matches!(*l, Expr::Binary(BinOp::Lt, _, _)));
                assert!(matches!(*r, Expr::Binary(BinOp::Lt, _, _)));
            }
            other => panic!("bad parse: {other:?}"),
        }
    }

    #[test]
    fn else_if_chains() {
        let (p, _) = parse_ok(
            "fn f(x) { if (x) { return 1; } else if (x > 1) { return 2; } else { return 3; } }",
        );
        match &p.functions[0].body[0] {
            Stmt::If(_, _, else_b) => {
                assert_eq!(else_b.len(), 1);
                assert!(matches!(else_b[0], Stmt::If(_, _, _)));
            }
            other => panic!("bad parse: {other:?}"),
        }
    }

    #[test]
    fn while_and_comments() {
        let (p, _) = parse_ok(
            "// leading comment\nfn f(n) { let i = 0; while (i < n) { i = i + 1; } return i; }",
        );
        assert!(matches!(p.functions[0].body[1], Stmt::While(_, _)));
    }

    #[test]
    fn error_reports_position() {
        let mut i = Interner::new();
        let err = parse("fn f( { }", &mut i).unwrap_err();
        assert_eq!(err.line, 1);
        assert!(err.message.contains("parameter name"));
    }

    #[test]
    fn unexpected_identifier_messages_name_it() {
        for (src, want) in [
            (
                "fn f(a b) { return a; }",
                "parse error at 1:8: expected `)`, found Ident(\"b\")",
            ),
            (
                "fn f(a) { return a b; }",
                "parse error at 1:20: expected `;`, found Ident(\"b\")",
            ),
            (
                "fn f(a) { return a; } b",
                "parse error at 1:23: expected `fn`, found Ident(\"b\")",
            ),
        ] {
            let err = parse(src, &mut Interner::new()).unwrap_err();
            assert_eq!(err.to_string(), want, "{src}");
        }
    }

    /// A source nesting exactly `n` levels deep, counting the function body.
    type Nested = fn(usize) -> String;

    /// Each shape that nests, with the token that opens level
    /// `MAX_NESTING + 1`: its character and how many of that character
    /// precede it.
    const NESTED_SHAPES: [(&str, Nested, char, usize); 5] = [
        (
            "parens",
            |n| {
                let (open, close) = ("(".repeat(n - 1), ")".repeat(n - 1));
                format!("fn f(x) {{ return {open}x{close}; }}")
            },
            '(',
            MAX_NESTING,
        ),
        (
            "unary",
            |n| format!("fn f(x) {{ return {}x; }}", "-".repeat(n - 1)),
            '-',
            MAX_NESTING - 1,
        ),
        (
            "chain",
            |n| format!("fn f(x) {{ return x{}; }}", " + x".repeat(n - 1)),
            '+',
            MAX_NESTING - 1,
        ),
        (
            "nested if",
            |n| {
                let (open, close) = ("if (x) { ".repeat(n - 1), "} ".repeat(n - 1));
                format!("fn f(x) {{ {open}x = 1; {close}return x; }}")
            },
            '{',
            MAX_NESTING,
        ),
        (
            "else if",
            |n| {
                let chain = " else if (x) { x = 1; }".repeat(n - 2);
                format!("fn f(x) {{ if (x) {{ x = 1; }}{chain} return x; }}")
            },
            '{',
            MAX_NESTING,
        ),
    ];

    /// At the limit every shape compiles and drops on a 2 MiB stack; one
    /// level deeper, and far deeper, it is a parse error at the token that
    /// opens the extra level.
    #[test]
    fn nesting_is_bounded_on_a_small_stack() {
        for (shape, source, opener, skip) in NESTED_SHAPES {
            let run = move || {
                let at_limit = source(MAX_NESTING);
                crate::compile(&at_limit, crate::CompileOptions::default())
                    .unwrap_or_else(|e| panic!("{shape} at the limit: {e}"));
                for n in [MAX_NESTING + 1, 100_000] {
                    let src = source(n);
                    let Err(crate::CompileError::Parse(err)) =
                        crate::compile(&src, crate::CompileOptions::default())
                    else {
                        panic!("{shape} at {n} must be a parse error");
                    };
                    let col = src.match_indices(opener).nth(skip).unwrap().0 + 1;
                    assert_eq!(
                        err.to_string(),
                        format!("parse error at 1:{col}: nesting deeper than {MAX_NESTING} levels"),
                        "{shape} at {n}"
                    );
                }
            };
            let thread = std::thread::Builder::new().stack_size(2 << 20);
            assert!(thread.spawn(run).unwrap().join().is_ok(), "{shape}");
        }
    }

    /// Each link of a chain pushes everything parsed before it one level
    /// down, so a deep left operand counts in full below the links.
    #[test]
    fn chain_links_count_below_a_deep_left_operand() {
        let inner = MAX_NESTING / 2;
        let source = |outer: usize| {
            let (a, b) = (" + x".repeat(inner), " + x".repeat(outer));
            format!("fn f(x) {{ return (x{a}){b}; }}")
        };
        // Body, parenthesis and inner links leave `MAX_NESTING - inner - 2`
        // levels for the outer links.
        let fits = MAX_NESTING - inner - 2;
        assert!(parse(&source(fits), &mut Interner::new()).is_ok());
        let err = parse(&source(fits + 1), &mut Interner::new()).unwrap_err();
        assert!(err.message.starts_with("nesting deeper"), "{err}");
    }

    #[test]
    fn error_on_unterminated_block() {
        let mut i = Interner::new();
        let err = parse("fn f() { let x = 1;", &mut i).unwrap_err();
        assert!(err.message.contains("end of input"));
    }

    #[test]
    fn rejects_huge_int_literal() {
        let mut i = Interner::new();
        assert!(parse("fn f() { return 99999999999999999999; }", &mut i).is_err());
    }

    /// A lexical error anywhere in the input beats an earlier syntax or
    /// nesting error, however far the parser got before it.
    #[test]
    fn lexical_errors_beat_earlier_syntax_and_nesting_errors() {
        let deep = format!(
            "fn f(x) {{ return {}x{}; }}\nfn g() {{ return 1 @ 2; }}",
            "(".repeat(300),
            ")".repeat(300)
        );
        for (src, want) in [
            (
                "fn f( { } $",
                "parse error at 1:11: unexpected character `$`",
            ),
            (
                "fn f() { return 1 2; } fn g() { return 99999999999999999999; }",
                "parse error at 1:40: integer literal `99999999999999999999` out of range",
            ),
            (&deep, "parse error at 2:19: unexpected character `@`"),
        ] {
            let err = parse(src, &mut Interner::new()).unwrap_err();
            assert_eq!(err.to_string(), want, "{}", &src[..src.len().min(40)]);
        }
        // Without the stray `@`, the same input is a nesting error.
        let err = parse(&deep.replace('@', "+"), &mut Interner::new()).unwrap_err();
        assert!(err.message.starts_with("nesting deeper"), "{err}");
    }

    /// Identifiers are interned in the order they first occur in the
    /// source, keywords never.
    #[test]
    fn names_are_interned_in_first_occurrence_order() {
        let src = "extern fn sink(v);\n\
                   fn zeta(b, a) { let c = a + b; if (c) { c = sink(zz); } return c; }\n\
                   fn alpha() { return zeta(1, 2); }";
        let mut i = Interner::new();
        parse(src, &mut i).unwrap();
        let order = ["sink", "v", "zeta", "b", "a", "c", "zz", "alpha"];
        assert_eq!(i.len(), order.len());
        for (k, name) in order.iter().enumerate() {
            assert_eq!(i.lookup(name).unwrap().index(), k, "{name}");
        }
    }

    #[test]
    fn unary_operators_nest() {
        let mut i = Interner::new();
        let e = parse_expr("!!x", &mut i).unwrap();
        assert!(matches!(e, Expr::Unary(crate::ast::UnOp::Not, _)));
    }

    #[test]
    fn call_with_no_args_and_nested_calls() {
        let mut i = Interner::new();
        let e = parse_expr("f(g(), h(1, 2))", &mut i).unwrap();
        match e {
            Expr::Call(_, args) => assert_eq!(args.len(), 2),
            other => panic!("bad parse: {other:?}"),
        }
    }
}
