//! Deterministic synthetic program generation.
//!
//! The evaluation's subjects (SPEC CINT2000 + four MLoC projects) cannot be
//! shipped; what the evaluation actually varies is the *shape* of the
//! dependence graph — function count, call-graph depth and fan-out,
//! branching density, and where feasible/infeasible flows sit. The
//! generator reproduces those shapes at a configurable scale, from a fixed
//! seed, and records ground truth for every seeded bug so precision/recall
//! (Table 5) can be measured exactly.
//!
//! Generated programs are plain surface ASTs: they go through the same
//! parser-grade validation, recursion unrolling and lowering as hand-
//! written code.

use crate::bugseed::{BugSite, SeededBug};
use fusion::checkers::CheckKind;
use fusion_ir::ast::{BinOp, Block, Builder, Expr, ExprId, Function, Program, Stmt, StmtId};
use fusion_ir::interner::{Interner, Symbol};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Re-export: which checker a seeded bug belongs to.
pub use fusion::checkers::CheckKind as BugKind;

/// Generator configuration.
#[derive(Debug, Clone)]
pub struct GenConfig {
    /// RNG seed — everything is deterministic in it.
    pub seed: u64,
    /// Number of ordinary (filler) functions.
    pub functions: usize,
    /// Average statements per filler function.
    pub stmts_per_function: usize,
    /// Probability that a statement is a call to a later function.
    pub call_density: f64,
    /// Probability that a statement opens a branch.
    pub branch_density: f64,
    /// Probability that a statement opens a (to-be-unrolled) loop.
    pub loop_density: f64,
    /// Seeded feasible null-dereference bugs.
    pub null_feasible: usize,
    /// Seeded infeasible null-dereference candidates.
    pub null_infeasible: usize,
    /// Seeded feasible CWE-23 flows.
    pub cwe23_feasible: usize,
    /// Seeded infeasible CWE-23 candidates.
    pub cwe23_infeasible: usize,
    /// Seeded feasible CWE-402 flows.
    pub cwe402_feasible: usize,
    /// Seeded infeasible CWE-402 candidates.
    pub cwe402_infeasible: usize,
    /// How many affine helper functions to mint (quick-path fodder).
    pub affine_helpers: usize,
    /// How many opaque (branching) helpers to mint.
    pub opaque_helpers: usize,
}

impl Default for GenConfig {
    fn default() -> Self {
        Self {
            seed: 0xF051_0000,
            functions: 20,
            stmts_per_function: 12,
            call_density: 0.25,
            branch_density: 0.2,
            loop_density: 0.05,
            null_feasible: 2,
            null_infeasible: 2,
            cwe23_feasible: 1,
            cwe23_infeasible: 1,
            cwe402_feasible: 1,
            cwe402_infeasible: 1,
            affine_helpers: 4,
            opaque_helpers: 2,
        }
    }
}

/// A generated subject: the surface program, its interner, and the ground
/// truth of every seeded bug.
#[derive(Debug, Clone)]
pub struct GeneratedSubject {
    /// The surface program (run it through [`fusion_ir::compile_ast`]).
    pub surface: Program,
    /// The interner holding all names.
    pub interner: Interner,
    /// Ground truth for precision/recall accounting.
    pub bugs: Vec<SeededBug>,
}

impl GeneratedSubject {
    /// Renders the subject as concrete source text — a corpus on disk for
    /// `fusion-scan`, external diffing, or archiving alongside results.
    pub fn to_source(&self) -> String {
        fusion_ir::pretty::surface_to_string(&self.surface, &self.interner)
    }
}

struct Gen {
    rng: StdRng,
    interner: Interner,
    functions: Vec<Function>,
    /// The nodes of the function being generated.
    b: Builder,
    bugs: Vec<SeededBug>,
    affine_helpers: Vec<Symbol>,
    opaque_helpers: Vec<Symbol>,
    /// Identity pass-through chain, shallowest first (`pass0(x) = x`,
    /// `passK(x) = pass(K-1)(x)`): facts routed through it cross K call
    /// levels.
    passthrough: Vec<Symbol>,
    next_local: usize,
}

impl Gen {
    fn sym(&mut self, s: &str) -> Symbol {
        self.interner.intern(s)
    }

    fn fresh_local(&mut self) -> Symbol {
        let n = format!("v{}", self.next_local);
        self.next_local += 1;
        self.sym(&n)
    }

    /// Adds `stmt` as a one-statement block.
    fn block1(&mut self, stmt: Stmt) -> Block {
        let s = self.b.stmt(stmt);
        self.b.block(&[s])
    }

    /// Finishes the function being generated.
    fn finish(&mut self, name: Symbol, params: Vec<Symbol>, body: &[StmtId]) {
        let body = self.b.block(body);
        let f = self.b.finish(name, params, body);
        self.functions.push(f);
    }

    /// A random pure expression over the given variables.
    fn expr(&mut self, vars: &[Symbol], depth: usize) -> ExprId {
        if depth == 0 || vars.is_empty() || self.rng.gen_bool(0.3) {
            if !vars.is_empty() && self.rng.gen_bool(0.7) {
                let v = vars[self.rng.gen_range(0..vars.len())];
                self.b.var(v)
            } else {
                self.b.int(self.rng.gen_range(0..1000))
            }
        } else {
            let ops = [
                BinOp::Add,
                BinOp::Sub,
                BinOp::Mul,
                BinOp::BitAnd,
                BinOp::BitOr,
                BinOp::BitXor,
                BinOp::Shr,
            ];
            let op = ops[self.rng.gen_range(0..ops.len())];
            let lhs = self.expr(vars, depth - 1);
            let rhs = self.expr(vars, depth - 1);
            self.b.bin(op, lhs, rhs)
        }
    }

    /// A random comparison usable as a branch condition.
    fn cond(&mut self, vars: &[Symbol]) -> ExprId {
        let ops = [
            BinOp::Lt,
            BinOp::Le,
            BinOp::Gt,
            BinOp::Ge,
            BinOp::Eq,
            BinOp::Ne,
        ];
        let op = ops[self.rng.gen_range(0..ops.len())];
        let lhs = self.expr(vars, 1);
        let rhs = self.expr(vars, 1);
        self.b.bin(op, lhs, rhs)
    }

    /// A call of `callee` on `arity` random arguments.
    fn call(&mut self, vars: &[Symbol], callee: Symbol, arity: usize) -> ExprId {
        let args: Vec<ExprId> = (0..arity).map(|_| self.expr(vars, 1)).collect();
        self.b.call(callee, &args)
    }

    /// A call into a random filler function — its backward slice crosses
    /// the call graph, which is what makes conditions expensive for the
    /// conventional design.
    fn deep_call(&mut self, vars: &[Symbol], callees: &[(Symbol, usize)]) -> Option<ExprId> {
        if callees.is_empty() {
            return None;
        }
        let (callee, arity) = callees[self.rng.gen_range(0..callees.len())];
        Some(self.call(vars, callee, arity))
    }

    /// `2a op 2b + 1` over two deep calls. With `op` `!=` the condition is
    /// *provably satisfiable* (parity: it holds for every `a`, `b`), with
    /// `==` *provably unsatisfiable* (even = odd) — but proving either
    /// requires slicing through the callees.
    fn deep_parity_cond(
        &mut self,
        op: BinOp,
        vars: &[Symbol],
        callees: &[(Symbol, usize)],
    ) -> Option<ExprId> {
        let a = self.deep_call(vars, callees)?;
        let b = self.deep_call(vars, callees)?;
        let two = self.b.int(2);
        let lhs = self.b.bin(BinOp::Mul, a, two);
        let two = self.b.int(2);
        let b2 = self.b.bin(BinOp::Mul, b, two);
        let one = self.b.int(1);
        let rhs = self.b.bin(BinOp::Add, b2, one);
        Some(self.b.bin(op, lhs, rhs))
    }

    /// A condition that is satisfiable (used to gate feasible bugs).
    fn feasible_cond(&mut self, vars: &[Symbol]) -> ExprId {
        if vars.is_empty() {
            let (one, also_one) = (self.b.int(1), self.b.int(1));
            return self.b.bin(BinOp::Eq, one, also_one);
        }
        let v = vars[self.rng.gen_range(0..vars.len())];
        match self.rng.gen_range(0..3) {
            0 => {
                let v = self.b.var(v);
                let k = self.b.int(self.rng.gen_range(0..100));
                self.b.bin(BinOp::Gt, v, k)
            }
            1 => {
                let (v, one) = (self.b.var(v), self.b.int(1));
                let low = self.b.bin(BinOp::BitAnd, v, one);
                let zero = self.b.int(0);
                self.b.bin(BinOp::Eq, low, zero)
            }
            _ => {
                // Two helpers of independent inputs compared — exercises
                // the quick path + affine-coset preprocessing.
                if self.affine_helpers.len() >= 2 && vars.len() >= 2 {
                    let h1 = self.affine_helpers[self.rng.gen_range(0..self.affine_helpers.len())];
                    let h2 = self.affine_helpers[self.rng.gen_range(0..self.affine_helpers.len())];
                    let a = self.b.var(vars[0]);
                    let a = self.b.call(h1, &[a]);
                    let b = self.b.var(vars[vars.len() - 1]);
                    let b = self.b.call(h2, &[b]);
                    self.b.bin(BinOp::Lt, a, b)
                } else {
                    let (v, k) = (self.b.var(v), self.b.int(500));
                    self.b.bin(BinOp::Lt, v, k)
                }
            }
        }
    }

    /// An `if` on an unsatisfiable condition around `body` (used to gate
    /// infeasible bugs); two nested `if`s when two guards are needed.
    fn infeasible_guard(&mut self, vars: &[Symbol], body: Block) -> Stmt {
        let v = if vars.is_empty() {
            Expr::Int(3)
        } else {
            Expr::Var(vars[self.rng.gen_range(0..vars.len())])
        };
        match self.rng.gen_range(0..3) {
            0 => {
                // x > 10 && x < 5 via nesting.
                let (x, ten) = (self.b.expr(v), self.b.int(10));
                let outer = self.b.bin(BinOp::Gt, x, ten);
                let (x, five) = (self.b.expr(v), self.b.int(5));
                let inner = self.b.bin(BinOp::Lt, x, five);
                let nested = self.block1(Stmt::If(inner, body, Block::EMPTY));
                Stmt::If(outer, nested, Block::EMPTY)
            }
            1 => {
                // 2x == odd constant (parity).
                let c = self.rng.gen_range(0..500) * 2 + 1;
                let (x, two) = (self.b.expr(v), self.b.int(2));
                let double = self.b.bin(BinOp::Mul, x, two);
                let odd = self.b.int(c);
                let cond = self.b.bin(BinOp::Eq, double, odd);
                Stmt::If(cond, body, Block::EMPTY)
            }
            _ => {
                // (x & 1) == 2 (mask range).
                let (x, one) = (self.b.expr(v), self.b.int(1));
                let low = self.b.bin(BinOp::BitAnd, x, one);
                let two = self.b.int(2);
                let cond = self.b.bin(BinOp::Eq, low, two);
                Stmt::If(cond, body, Block::EMPTY)
            }
        }
    }

    /// Appends `count` filler statements to `body`.
    fn filler(
        &mut self,
        cfg: &GenConfig,
        vars: &mut Vec<Symbol>,
        mutables: &[Symbol],
        callees: &[(Symbol, usize)],
        count: usize,
        body: &mut Vec<StmtId>,
    ) {
        for _ in 0..count {
            let roll: f64 = self.rng.gen();
            let stmt = if roll < cfg.call_density && !callees.is_empty() {
                let (callee, arity) = callees[self.rng.gen_range(0..callees.len())];
                let call = self.call(vars, callee, arity);
                let l = self.fresh_local();
                vars.push(l);
                Stmt::Let(l, call)
            } else if roll < cfg.call_density + cfg.branch_density && !mutables.is_empty() {
                let cond = self.cond(vars);
                let m = mutables[self.rng.gen_range(0..mutables.len())];
                let then_e = self.expr(vars, 2);
                let else_b = if self.rng.gen_bool(0.5) {
                    let e = self.expr(vars, 2);
                    self.block1(Stmt::Assign(m, e))
                } else {
                    Block::EMPTY
                };
                let then_b = self.block1(Stmt::Assign(m, then_e));
                Stmt::If(cond, then_b, else_b)
            } else if roll < cfg.call_density + cfg.branch_density + cfg.loop_density
                && !mutables.is_empty()
            {
                let m = mutables[self.rng.gen_range(0..mutables.len())];
                let bound = self.rng.gen_range(1..4);
                let (var, bound) = (self.b.var(m), self.b.int(bound));
                let cond = self.b.bin(BinOp::Lt, var, bound);
                let (var, one) = (self.b.var(m), self.b.int(1));
                let step = self.b.bin(BinOp::Add, var, one);
                let body = self.block1(Stmt::Assign(m, step));
                Stmt::While(cond, body)
            } else {
                let l = self.fresh_local();
                let e = self.expr(vars, 2);
                vars.push(l);
                Stmt::Let(l, e)
            };
            body.push(self.b.stmt(stmt));
        }
    }

    /// Emits a dedicated host function carrying one seeded bug, plus the
    /// ground-truth record. The *source* always lives in the host, so
    /// reports can be matched back by (host, kind).
    fn seed_bug(
        &mut self,
        kind: CheckKind,
        feasible: bool,
        idx: usize,
        callees: &[(Symbol, usize)],
    ) {
        let fword = if feasible { "ok" } else { "no" };
        let kword = match kind {
            CheckKind::NullDeref => "null",
            CheckKind::Cwe23 => "cwe23",
            CheckKind::Cwe402 => "cwe402",
        };
        let name = self.sym(&format!("seed_{kword}_{fword}_{idx}"));
        let p0 = self.sym("sa");
        let p1 = self.sym("sb");
        let fact = self.sym("fact");
        let hold = self.sym("hold");
        let (source, sink_name) = match kind {
            CheckKind::NullDeref => (self.b.expr(Expr::Null), self.sym("deref")),
            CheckKind::Cwe23 => {
                let gets = self.sym("gets");
                (self.b.call(gets, &[]), self.sym("fopen"))
            }
            CheckKind::Cwe402 => {
                let getpass = self.sym("getpass");
                (self.b.call(getpass, &[]), self.sym("sendmsg"))
            }
        };
        let mut body = vec![self.b.stmt(Stmt::Let(fact, source))];
        let one = self.b.int(1);
        body.push(self.b.stmt(Stmt::Let(hold, one)));
        // Route the fact through the identity pass-through chain (all
        // checkers: null survives copies/returns) and, for taint, through
        // arithmetic and an affine helper.
        let mut carried = self.b.var(fact);
        if !self.passthrough.is_empty() && self.rng.gen_bool(0.6) {
            let depth = self.rng.gen_range(0..self.passthrough.len());
            carried = self.b.call(self.passthrough[depth], &[carried]);
        }
        if kind != CheckKind::NullDeref {
            let k = self.b.int(self.rng.gen_range(1..9));
            carried = self.b.bin(BinOp::Add, carried, k);
            if !callees.is_empty() && self.rng.gen_bool(0.5) {
                // Through an identity-ish affine helper.
                if let Some(&h) = self.affine_helpers.first() {
                    carried = self.b.call(h, &[carried]);
                }
            }
        }
        let gated = self.block1(Stmt::Assign(hold, carried));
        let params = vec![p0, p1];
        // Most guards reach deep into the call graph — that is where the
        // conventional design's cloning cost lives.
        let deep = self.rng.gen_bool(0.7);
        let guard = if feasible {
            let cond = if deep {
                self.deep_parity_cond(BinOp::Ne, &params, callees)
                    .unwrap_or_else(|| self.feasible_cond(&params))
            } else {
                self.feasible_cond(&params)
            };
            Stmt::If(cond, gated, Block::EMPTY)
        } else {
            match deep
                .then(|| self.deep_parity_cond(BinOp::Eq, &params, callees))
                .flatten()
            {
                Some(cond) => Stmt::If(cond, gated, Block::EMPTY),
                None => self.infeasible_guard(&params, gated),
            }
        };
        body.push(self.b.stmt(guard));
        let held = self.b.var(hold);
        let sink = self.b.call(sink_name, &[held]);
        body.push(self.b.stmt(Stmt::Expr(sink)));
        let zero = self.b.int(0);
        body.push(self.b.stmt(Stmt::Return(zero)));
        self.bugs.push(SeededBug {
            kind,
            host: name,
            feasible,
            site: BugSite {
                source_fn: name,
                sink_fn: name,
            },
        });
        self.finish(name, params, &body);
    }
}

/// Generates one subject from the configuration.
pub fn generate(cfg: &GenConfig) -> GeneratedSubject {
    let mut g = Gen {
        rng: StdRng::seed_from_u64(cfg.seed),
        interner: Interner::new(),
        functions: Vec::new(),
        b: Builder::new(),
        bugs: Vec::new(),
        affine_helpers: Vec::new(),
        opaque_helpers: Vec::new(),
        passthrough: Vec::new(),
        next_local: 0,
    };

    // Checker externs.
    for name in ["deref", "gets", "fopen", "getpass", "sendmsg", "libmisc"] {
        let sym = g.sym(name);
        let params = match name {
            "gets" | "getpass" => vec![],
            _ => vec![g.sym("x")],
        };
        g.functions.push(Function::external(sym, params));
    }

    // Affine helpers: quick-path fodder (`x * M + C`).
    for i in 0..cfg.affine_helpers {
        let name = g.sym(&format!("aff{i}"));
        let x = g.sym("x");
        let m = g.rng.gen_range(1..6);
        let c = g.rng.gen_range(0..50);
        let (vx, m) = (g.b.var(x), g.b.int(m));
        let scaled = g.b.bin(BinOp::Mul, vx, m);
        let c = g.b.int(c);
        let sum = g.b.bin(BinOp::Add, scaled, c);
        let ret = g.b.stmt(Stmt::Return(sum));
        g.affine_helpers.push(name);
        g.finish(name, vec![x], &[ret]);
    }
    // Opaque helpers: branching, so their summaries stay opaque and the
    // solvers must clone them.
    for i in 0..cfg.opaque_helpers {
        let name = g.sym(&format!("opq{i}"));
        let x = g.sym("x");
        let y = g.sym("y");
        let t = g.rng.gen_range(1..100);
        let (vx, t) = (g.b.var(x), g.b.int(t));
        let cond = g.b.bin(BinOp::Gt, vx, t);
        let (vx, vy) = (g.b.var(x), g.b.var(y));
        let sum = g.b.bin(BinOp::Add, vx, vy);
        let early = g.block1(Stmt::Return(sum));
        let branch = g.b.stmt(Stmt::If(cond, early, Block::EMPTY));
        let (vy, vx) = (g.b.var(y), g.b.var(x));
        let diff = g.b.bin(BinOp::Sub, vy, vx);
        let ret = g.b.stmt(Stmt::Return(diff));
        g.opaque_helpers.push(name);
        g.finish(name, vec![x, y], &[branch, ret]);
    }

    // Identity pass-through chain (facts travel through K call levels;
    // the Infer-like baseline's bounded composition misses the deep ones).
    let chain_len = 6usize;
    for i in 0..chain_len {
        let name = g.sym(&format!("pass{i}"));
        let x = g.sym("x");
        let mut value = g.b.var(x);
        if i > 0 {
            value = g.b.call(g.passthrough[i - 1], &[value]);
        }
        let ret = g.b.stmt(Stmt::Return(value));
        g.passthrough.push(name);
        g.finish(name, vec![x], &[ret]);
    }

    // Filler functions in reverse order so calls go to already-emitted
    // (higher-index in call DAG) functions.
    let mut emitted: Vec<(Symbol, usize)> = g
        .functions
        .iter()
        .filter(|f| !f.is_extern)
        .map(|f| (f.name, f.params.len()))
        .collect();
    for i in 0..cfg.functions {
        let name = g.sym(&format!("fn{i}"));
        let arity = g.rng.gen_range(1..4usize);
        let params: Vec<Symbol> = (0..arity)
            .map(|k| g.interner.intern(&format!("p{k}")))
            .collect();
        let mut vars = params.clone();
        // A couple of mutable locals that branches can assign.
        let mut mutables = Vec::new();
        let mut body = Vec::new();
        for _ in 0..2 {
            let m = g.fresh_local();
            let init = g.expr(&vars, 1);
            body.push(g.b.stmt(Stmt::Let(m, init)));
            vars.push(m);
            mutables.push(m);
        }
        let stmts = cfg.stmts_per_function.saturating_sub(3).max(1);
        let callee_window: Vec<(Symbol, usize)> = emitted.iter().rev().take(8).copied().collect();
        g.filler(cfg, &mut vars, &mutables, &callee_window, stmts, &mut body);
        let ret = g.expr(&vars, 1);
        body.push(g.b.stmt(Stmt::Return(ret)));
        g.finish(name, params, &body);
        emitted.push((name, arity));
    }

    // Seeded bugs, one host function each.
    let callee_window: Vec<(Symbol, usize)> = emitted.iter().rev().take(8).copied().collect();
    let plan: Vec<(CheckKind, bool, usize)> = [
        (CheckKind::NullDeref, true, cfg.null_feasible),
        (CheckKind::NullDeref, false, cfg.null_infeasible),
        (CheckKind::Cwe23, true, cfg.cwe23_feasible),
        (CheckKind::Cwe23, false, cfg.cwe23_infeasible),
        (CheckKind::Cwe402, true, cfg.cwe402_feasible),
        (CheckKind::Cwe402, false, cfg.cwe402_infeasible),
    ]
    .into_iter()
    .flat_map(|(k, f, n)| (0..n).map(move |i| (k, f, i)))
    .collect();
    for (kind, feasible, idx) in plan {
        g.seed_bug(kind, feasible, idx, &callee_window);
    }

    GeneratedSubject {
        surface: Program {
            functions: g.functions,
        },
        interner: g.interner,
        bugs: g.bugs,
    }
}

/// Replaces identifier tokens per `map`, leaving everything else (and
/// identifiers not in the map) untouched. Operates on whole tokens, so
/// `fn1` never rewrites inside `fn12`.
fn rename_idents(text: &str, map: &std::collections::HashMap<String, String>) -> String {
    let mut out = String::with_capacity(text.len() + text.len() / 8);
    let bytes = text.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i];
        if c.is_ascii_alphabetic() || c == b'_' {
            let start = i;
            while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
                i += 1;
            }
            let word = &text[start..i];
            match map.get(word) {
                Some(r) => out.push_str(r),
                None => out.push_str(word),
            }
        } else {
            out.push(c as char);
            i += 1;
        }
    }
    out
}

/// Generates `modules` independent subjects and merges them into one
/// translation unit of *disconnected* call-graph components: module `m`
/// is generated from `cfg.seed + m` and every one of its non-extern
/// function names is prefixed `m{m}_`, so the only symbols the modules
/// share are the extern library declarations (which carry no
/// definitions and never weld components together). This is the shape
/// partitioned scans need to show a real per-shard memory win — a
/// single generated module is one connected component, so its shard
/// closure would be the whole program.
pub fn generate_multi(cfg: &GenConfig, modules: usize) -> String {
    let mut out = String::new();
    for m in 0..modules.max(1) {
        let sub = generate(&GenConfig {
            seed: cfg.seed.wrapping_add(m as u64),
            ..cfg.clone()
        });
        let mut map = std::collections::HashMap::new();
        for f in sub.surface.functions.iter().filter(|f| !f.is_extern) {
            let name = sub.interner.resolve(f.name);
            map.insert(name.to_owned(), format!("m{m}_{name}"));
        }
        let text = rename_idents(&sub.to_source(), &map);
        for line in text.lines() {
            // Every module declares the same externs; keep one copy.
            if m > 0 && line.trim_start().starts_with("extern fn") {
                continue;
            }
            out.push_str(line);
            out.push('\n');
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use fusion_ir::{compile_ast, CompileOptions};

    #[test]
    fn generated_programs_compile_and_validate() {
        for seed in [1u64, 2, 42, 0xdead] {
            let cfg = GenConfig {
                seed,
                ..Default::default()
            };
            let mut s = generate(&cfg);
            let program = compile_ast(&s.surface, &mut s.interner, CompileOptions::default())
                .expect("generated program must compile");
            assert!(program.size() > 100);
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let cfg = GenConfig::default();
        let a = generate(&cfg);
        let b = generate(&cfg);
        assert_eq!(a.surface, b.surface);
        assert_eq!(a.bugs.len(), b.bugs.len());
    }

    #[test]
    fn different_seeds_differ() {
        let a = generate(&GenConfig {
            seed: 1,
            ..Default::default()
        });
        let b = generate(&GenConfig {
            seed: 2,
            ..Default::default()
        });
        assert_ne!(a.surface, b.surface);
    }

    #[test]
    fn bug_counts_match_config() {
        let cfg = GenConfig {
            null_feasible: 3,
            null_infeasible: 2,
            cwe23_feasible: 1,
            cwe23_infeasible: 0,
            cwe402_feasible: 2,
            cwe402_infeasible: 1,
            ..Default::default()
        };
        let s = generate(&cfg);
        assert_eq!(s.bugs.len(), 9);
        assert_eq!(s.bugs.iter().filter(|b| b.feasible).count(), 6);
    }

    #[test]
    fn scales_with_function_count() {
        let small = generate(&GenConfig {
            functions: 5,
            ..Default::default()
        });
        let large = generate(&GenConfig {
            functions: 50,
            ..Default::default()
        });
        let count = |s: &GeneratedSubject| s.surface.functions.len();
        assert!(count(&large) > count(&small) + 40);
    }
}
#[cfg(test)]
mod source_tests {
    use super::*;
    use fusion_ir::parser::parse;

    #[test]
    fn multi_module_merge_compiles_into_disconnected_components() {
        let cfg = GenConfig {
            functions: 6,
            ..Default::default()
        };
        let text = generate_multi(&cfg, 3);
        let program =
            fusion_ir::compile(&text, fusion_ir::CompileOptions::default()).expect("compiles");
        let errs = fusion_ir::validate::check_program(&program);
        assert!(errs.is_empty(), "{errs:?}");
        // Each module's functions survive under their prefixes, and the
        // single shared extern block didn't triple.
        let names: Vec<&str> = program
            .functions
            .iter()
            .map(|f| program.name(f.name))
            .collect();
        for m in 0..3 {
            assert!(
                names.iter().any(|n| n.starts_with(&format!("m{m}_"))),
                "module {m} missing"
            );
        }
        assert_eq!(names.iter().filter(|n| **n == "deref").count(), 1);
        // Roughly three modules' worth of functions.
        let single = generate(&cfg).surface.functions.len();
        assert!(program.functions.len() > 2 * single);
    }

    #[test]
    fn emitted_source_reparses_and_matches() {
        let subject = generate(&GenConfig {
            functions: 6,
            ..Default::default()
        });
        let text = subject.to_source();
        let mut interner = fusion_ir::Interner::new();
        let reparsed = parse(&text, &mut interner).expect("generated source parses");
        assert_eq!(reparsed.functions.len(), subject.surface.functions.len());
        // Fixpoint: printing the reparsed program reproduces the text.
        let text2 = fusion_ir::pretty::surface_to_string(&reparsed, &interner);
        assert_eq!(text, text2);
    }
}
