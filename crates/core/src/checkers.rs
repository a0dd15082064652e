//! Checker specifications: what is a source, what is a sink, and through
//! which dependence edges a fact propagates.
//!
//! §4 of the paper: Fusion detects *null exceptions* and two taint issues —
//! relative path traversal (CWE-23, "from `input = gets(..)` to
//! `fopen(..)`") and transmission of private resources (CWE-402, "from
//! `password = getpass(..)` to `sendmsg(..)`"). Checkers are data: lists of
//! external source/sink function names plus a propagation policy, so new
//! checkers need no engine changes.

use fusion_ir::ssa::{DefKind, Function, Op, Program, VarId};

/// Which bug class a checker reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CheckKind {
    /// Null-pointer dereference.
    NullDeref,
    /// CWE-23 relative path traversal.
    Cwe23,
    /// CWE-402 transmission of private resources.
    Cwe402,
}

impl std::fmt::Display for CheckKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            CheckKind::NullDeref => "null-deref",
            CheckKind::Cwe23 => "cwe-23",
            CheckKind::Cwe402 => "cwe-402",
        };
        f.write_str(s)
    }
}

/// A checker: sources, sinks, and propagation policy.
#[derive(Debug, Clone)]
pub struct Checker {
    /// The reported bug class.
    pub kind: CheckKind,
    /// Names of external functions whose results are sources (taint
    /// checkers; empty for the null checker, which seeds from `null`
    /// constants).
    pub source_fns: Vec<String>,
    /// Names of external functions whose arguments are sinks.
    pub sink_fns: Vec<String>,
    /// Whether the fact survives arithmetic (`taint(a) → taint(a + 1)`).
    /// Null-ness does not; taint does.
    pub through_binary: bool,
    /// Whether the fact flows through external library calls
    /// (`taint(x) → taint(lib(x))`, the empty-function rule). Null-ness
    /// does not; taint does.
    pub through_extern: bool,
    /// Names of external functions that *kill* the fact: a value passing
    /// through them comes out clean (e.g. `realpath` for CWE-23, `hash`
    /// for CWE-402).
    pub sanitizer_fns: Vec<String>,
}

impl Checker {
    /// The null-dereference checker: sources are `null` literals; sinks are
    /// arguments of `deref`.
    pub fn null_deref() -> Checker {
        Checker {
            kind: CheckKind::NullDeref,
            source_fns: Vec::new(),
            sink_fns: vec!["deref".into()],
            through_binary: false,
            through_extern: false,
            sanitizer_fns: Vec::new(),
        }
    }

    /// CWE-23: external input reaching file-system operations.
    pub fn cwe23() -> Checker {
        Checker {
            kind: CheckKind::Cwe23,
            source_fns: vec![
                "gets".into(),
                "recv".into(),
                "read_input".into(),
                "getenv".into(),
            ],
            sink_fns: vec!["fopen".into(), "open_file".into(), "remove".into()],
            through_binary: true,
            through_extern: true,
            sanitizer_fns: vec!["realpath".into(), "basename".into()],
        }
    }

    /// CWE-402: private data reaching I/O operations.
    pub fn cwe402() -> Checker {
        Checker {
            kind: CheckKind::Cwe402,
            source_fns: vec!["getpass".into(), "read_key".into(), "load_secret".into()],
            sink_fns: vec!["sendmsg".into(), "send".into(), "write_log".into()],
            through_binary: true,
            through_extern: true,
            sanitizer_fns: vec!["hash".into(), "redact".into()],
        }
    }

    /// Whether `def` in `func` is a source for this checker.
    pub fn is_source(&self, program: &Program, func: &Function, var: VarId) -> bool {
        match &func.def(var).kind {
            DefKind::Const { is_null: true, .. } => self.kind == CheckKind::NullDeref,
            DefKind::Call { callee, .. } => {
                let callee_f = program.func(*callee);
                callee_f.is_extern
                    && self
                        .source_fns
                        .iter()
                        .any(|n| n == program.name(callee_f.name))
            }
            _ => false,
        }
    }

    /// Whether `def` is a call to a sanitizer: the fact does not survive
    /// passing through it.
    pub fn is_sanitizer(&self, program: &Program, func: &Function, var: VarId) -> bool {
        match &func.def(var).kind {
            DefKind::Call { callee, .. } => {
                let callee_f = program.func(*callee);
                callee_f.is_extern
                    && self
                        .sanitizer_fns
                        .iter()
                        .any(|n| n == program.name(callee_f.name))
            }
            _ => false,
        }
    }

    /// Whether `def` is a sink call; facts arriving in any argument
    /// position trigger a report.
    pub fn is_sink(&self, program: &Program, func: &Function, var: VarId) -> bool {
        match &func.def(var).kind {
            DefKind::Call { callee, .. } => {
                let callee_f = program.func(*callee);
                callee_f.is_extern
                    && self
                        .sink_fns
                        .iter()
                        .any(|n| n == program.name(callee_f.name))
            }
            _ => false,
        }
    }

    /// Whether the fact propagates from operand slot `slot` of `def` to the
    /// value `def` produces (the transfer-function policy of Algorithm 1).
    pub fn propagates_through(&self, func: &Function, user: VarId, slot: usize) -> bool {
        self.takes(slot_flow(&func.def(user).kind, slot))
    }

    /// Whether arithmetic that *discards* the operand still counts; used to
    /// prune silly flows like `x - x`.
    pub fn keeps_fact(&self, func: &Function, user: VarId) -> bool {
        !discards_operands(&func.def(user).kind)
    }

    /// Whether this checker moves its fact along a local edge of the
    /// given class.
    pub(crate) fn takes(&self, flow: LocalFlow) -> bool {
        match flow {
            LocalFlow::Always => true,
            LocalFlow::Arithmetic => self.through_binary,
            LocalFlow::Never => false,
        }
    }

    /// What a fact passed to the external function named `name` does for
    /// this checker: a sink reports it, otherwise it flows on to the
    /// call's result unless the checker does not flow through externs or
    /// the callee is a sanitizer.
    pub(crate) fn extern_role(&self, name: &str) -> ExternRole {
        if self.sink_fns.iter().any(|n| n == name) {
            ExternRole::Sink
        } else if self.through_extern && !self.sanitizer_fns.iter().any(|n| n == name) {
            ExternRole::Pass
        } else {
            ExternRole::Stop
        }
    }
}

/// A checker's view of one external callee ([`Checker::extern_role`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ExternRole {
    /// An argument reaching the call triggers a report.
    Sink,
    /// The fact flows on to the call's result.
    Pass,
    /// The fact stops at the call.
    Stop,
}

/// The checker-independent class of an intra-procedural def→use edge: a
/// checker takes the edge iff [`Checker::takes`] its class. This is the
/// one statement of the local transfer rules; [`Checker::propagates_through`]
/// and [`Checker::keeps_fact`] are views of it, and the compaction pass
/// classifies its shared flow graph with [`local_flow`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum LocalFlow {
    /// Every checker's fact moves along the edge (copies, returns, the
    /// data inputs of an `ite`).
    Always,
    /// Only checkers whose fact survives arithmetic take the edge
    /// (non-predicate `Binary` other than `x - x`).
    Arithmetic,
    /// No checker's fact moves along the edge.
    Never,
}

/// The class of the local edge from operand slot `slot` into `user`:
/// the slot rule of [`Checker::propagates_through`] combined with the
/// `x - x` rule of [`Checker::keeps_fact`].
pub(crate) fn local_flow(func: &Function, user: VarId, slot: usize) -> LocalFlow {
    let kind = &func.def(user).kind;
    if discards_operands(kind) {
        LocalFlow::Never
    } else {
        slot_flow(kind, slot)
    }
}

/// The operand-slot rule alone.
fn slot_flow(kind: &DefKind, slot: usize) -> LocalFlow {
    match kind {
        DefKind::Copy { .. } | DefKind::Return { .. } => LocalFlow::Always,
        // Through either data input of an ite, not its condition.
        DefKind::Ite { .. } if slot == 1 || slot == 2 => LocalFlow::Always,
        DefKind::Ite { .. } => LocalFlow::Never,
        // Even for taint, comparisons produce a 0/1 word, not the tainted
        // datum.
        DefKind::Binary { op, .. } if op.is_predicate() => LocalFlow::Never,
        DefKind::Binary { .. } => LocalFlow::Arithmetic,
        // Branch conditions consume the value; nothing flows on.
        DefKind::Branch { .. } => LocalFlow::Never,
        // Call arguments are handled by the inter-procedural edges.
        DefKind::Call { .. } => LocalFlow::Always,
        DefKind::Param { .. } | DefKind::Const { .. } => LocalFlow::Never,
    }
}

/// Whether the definition discards its operands' value (`x - x`).
fn discards_operands(kind: &DefKind) -> bool {
    matches!(kind, DefKind::Binary { op: Op::Sub, lhs, rhs } if lhs == rhs)
}

/// The three checkers of the paper's evaluation.
pub fn default_checkers() -> Vec<Checker> {
    vec![Checker::null_deref(), Checker::cwe23(), Checker::cwe402()]
}

/// The index of a checker within a [`CheckerSet`] — the client identity a
/// fused multi-client pass carries on every work item and candidate so
/// results can be split back per checker deterministically.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CheckerId(pub usize);

impl std::fmt::Display for CheckerId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "c{}", self.0)
    }
}

/// An ordered set of checkers analyzed in **one fused pass** (§4 runs all
/// three clients over one shared PDG). The order is canonical: discovery
/// fans out over `(checker, source)` work items in `(checker_idx,
/// source_idx)` order, so per-checker results are byte-identical to
/// running each checker alone, at any shard or thread count.
#[derive(Debug, Clone)]
pub struct CheckerSet {
    checkers: Vec<Checker>,
}

impl CheckerSet {
    /// A set over the given checkers, in the given (canonical) order.
    pub fn new(checkers: Vec<Checker>) -> CheckerSet {
        CheckerSet { checkers }
    }

    /// A singleton set — how the single-checker `analyze*` entry points
    /// ride the fused pipeline.
    pub fn single(checker: Checker) -> CheckerSet {
        CheckerSet {
            checkers: vec![checker],
        }
    }

    /// The paper's three clients ([`default_checkers`]).
    pub fn all() -> CheckerSet {
        CheckerSet {
            checkers: default_checkers(),
        }
    }

    /// Number of checkers in the set.
    pub fn len(&self) -> usize {
        self.checkers.len()
    }

    /// Whether the set holds no checkers.
    pub fn is_empty(&self) -> bool {
        self.checkers.is_empty()
    }

    /// The checker with the given id.
    ///
    /// # Panics
    ///
    /// Panics when `id` is out of range for this set.
    pub fn get(&self, id: CheckerId) -> &Checker {
        &self.checkers[id.0]
    }

    /// The checkers in canonical order.
    pub fn checkers(&self) -> &[Checker] {
        &self.checkers
    }

    /// Iterates `(id, checker)` pairs in canonical order.
    pub fn iter(&self) -> impl Iterator<Item = (CheckerId, &Checker)> {
        self.checkers
            .iter()
            .enumerate()
            .map(|(i, c)| (CheckerId(i), c))
    }
}

impl From<Vec<Checker>> for CheckerSet {
    fn from(checkers: Vec<Checker>) -> CheckerSet {
        CheckerSet::new(checkers)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fusion_ir::{compile, CompileOptions};

    #[test]
    fn null_checker_finds_sources_and_sinks() {
        let p = compile(
            "extern fn deref(p); fn f() { let q = null; deref(q); return 0; }",
            CompileOptions::default(),
        )
        .unwrap();
        let c = Checker::null_deref();
        let f = p.func_by_name("f").unwrap();
        let sources: Vec<_> = f
            .defs
            .iter()
            .filter(|d| c.is_source(&p, f, d.var))
            .collect();
        let sinks: Vec<_> = f.defs.iter().filter(|d| c.is_sink(&p, f, d.var)).collect();
        assert_eq!(sources.len(), 1);
        assert_eq!(sinks.len(), 1);
    }

    #[test]
    fn taint_checker_uses_function_names() {
        let p = compile(
            "extern fn gets(); extern fn fopen(path); extern fn misc(x);\n\
             fn f() { let input = gets(); fopen(input); misc(input); return 0; }",
            CompileOptions::default(),
        )
        .unwrap();
        let c = Checker::cwe23();
        let f = p.func_by_name("f").unwrap();
        assert_eq!(
            f.defs.iter().filter(|d| c.is_source(&p, f, d.var)).count(),
            1
        );
        assert_eq!(f.defs.iter().filter(|d| c.is_sink(&p, f, d.var)).count(), 1);
    }

    #[test]
    fn sanitizers_are_recognized() {
        let p = compile(
            "extern fn gets(); extern fn realpath(x); extern fn fopen(p);\n\
             fn f() { let i = gets(); let c = realpath(i); fopen(c); return 0; }",
            CompileOptions::default(),
        )
        .unwrap();
        let c = Checker::cwe23();
        let f = p.func_by_name("f").unwrap();
        assert_eq!(
            f.defs
                .iter()
                .filter(|d| c.is_sanitizer(&p, f, d.var))
                .count(),
            1
        );
    }

    #[test]
    fn null_does_not_flow_through_arithmetic_but_taint_does() {
        let p = compile(
            "fn f(a, b) { let x = a + b; return x; }",
            CompileOptions::default(),
        )
        .unwrap();
        let f = p.func_by_name("f").unwrap();
        let add = f
            .defs
            .iter()
            .find(|d| matches!(d.kind, DefKind::Binary { op: Op::Add, .. }))
            .unwrap();
        assert!(!Checker::null_deref().propagates_through(f, add.var, 0));
        assert!(Checker::cwe23().propagates_through(f, add.var, 0));
    }

    #[test]
    fn checker_set_orders_and_indexes() {
        let set = CheckerSet::all();
        assert_eq!(set.len(), 3);
        assert!(!set.is_empty());
        assert_eq!(set.get(CheckerId(0)).kind, CheckKind::NullDeref);
        assert_eq!(set.get(CheckerId(1)).kind, CheckKind::Cwe23);
        assert_eq!(set.get(CheckerId(2)).kind, CheckKind::Cwe402);
        let ids: Vec<CheckerId> = set.iter().map(|(id, _)| id).collect();
        assert_eq!(ids, vec![CheckerId(0), CheckerId(1), CheckerId(2)]);
        let single = CheckerSet::single(Checker::cwe23());
        assert_eq!(single.len(), 1);
        assert_eq!(single.get(CheckerId(0)).kind, CheckKind::Cwe23);
        let from: CheckerSet = vec![Checker::cwe402()].into();
        assert_eq!(from.checkers()[0].kind, CheckKind::Cwe402);
        assert_eq!(CheckerId(2).to_string(), "c2");
    }

    #[test]
    fn nothing_flows_through_predicates() {
        let p = compile(
            "fn f(a, b) { let x = a < b; return x; }",
            CompileOptions::default(),
        )
        .unwrap();
        let f = p.func_by_name("f").unwrap();
        let cmp = f
            .defs
            .iter()
            .find(|d| matches!(d.kind, DefKind::Binary { op: Op::Slt, .. }))
            .unwrap();
        assert!(!Checker::cwe23().propagates_through(f, cmp.var, 0));
    }
}
