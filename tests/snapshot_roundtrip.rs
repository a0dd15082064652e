//! The snapshot codec must be lossless and paranoid.
//!
//! Lossless: writing an arbitrary generated program (and its absint
//! facts) into a [`fusion::snapshot`] container and reading it back
//! yields a program with identical structure, names, and — the real
//! invariant — identical analysis reports. Paranoid: *any* corruption —
//! a flipped byte, a truncation at any offset, a version skew — must
//! surface as a position-annotated [`fusion::SnapshotError`], never a
//! panic, a hang, or a silently wrong program.

use fusion::cache::VerdictCache;
use fusion::checkers::CheckerSet;
use fusion::engine::{analyze_multi_with_cache, AnalysisOptions, Feasibility, MultiAnalysisRun};
use fusion::graph_solver::FusionSolver;
use fusion::snapshot::{self, open_bytes, SnapshotWriter};
use fusion::ProgramFacts;
use fusion_ir::{compile, CompileOptions, Program};
use fusion_pdg::graph::Pdg;
use fusion_smt::solver::SolverConfig;
use fusion_workloads::{generate, GenConfig};
use proptest::prelude::*;

fn compile_src(src: &str) -> Program {
    compile(src, CompileOptions::default()).expect("compile")
}

fn container(program: &Program) -> Vec<u8> {
    let mut w = SnapshotWriter::new();
    snapshot::write_program(&mut w, program);
    let facts = ProgramFacts::compute(program);
    snapshot::write_facts(&mut w, program, &facts);
    w.finish()
}

fn report(program: &Program) -> Vec<(usize, Feasibility, usize)> {
    let pdg = Pdg::build(program);
    let set = CheckerSet::new(fusion::checkers::default_checkers());
    let cache = VerdictCache::new();
    let mut engine = FusionSolver::new(SolverConfig::default());
    let run: MultiAnalysisRun = analyze_multi_with_cache(
        program,
        &pdg,
        &set,
        &mut engine,
        &AnalysisOptions::new(),
        Some(&cache),
    );
    run.checkers
        .iter()
        .enumerate()
        .flat_map(|(i, b)| {
            b.reports
                .iter()
                .map(move |r| (i, r.verdict, r.path.nodes.len()))
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Write → read is the identity on structure, names, and reports.
    #[test]
    fn program_and_facts_round_trip(seed in 0u64..100_000) {
        let cfg = GenConfig { seed, functions: 6, ..Default::default() };
        let program = compile_src(&generate(&cfg).to_source());
        let snap = open_bytes(container(&program)).expect("open");
        let reread = snapshot::read_program(&snap).expect("read program");

        prop_assert_eq!(program.functions.len(), reread.functions.len());
        prop_assert_eq!(program.call_sites.len(), reread.call_sites.len());
        for (a, b) in program.functions.iter().zip(&reread.functions) {
            prop_assert_eq!(program.name(a.name), reread.name(b.name));
            prop_assert_eq!(a.is_extern, b.is_extern);
            prop_assert_eq!(&a.params, &b.params);
            prop_assert_eq!(a.ret, b.ret);
            prop_assert_eq!(a.defs.len(), b.defs.len());
            for (da, db) in a.defs.iter().zip(&b.defs) {
                prop_assert_eq!(da.var, db.var);
                prop_assert_eq!(da.guard, db.guard);
                prop_assert_eq!(&da.kind, &db.kind);
                prop_assert_eq!(program.def_name(da), reread.def_name(db));
            }
        }
        prop_assert!(
            fusion_ir::validate::check_program(&reread).is_empty(),
            "reread program passes the full invariant suite"
        );
        // Facts survive byte-for-byte: recomputing from the reread
        // program equals reading the serialized section.
        let read_facts = snapshot::read_facts(&snap, &reread).expect("read facts");
        let computed = ProgramFacts::compute(&reread);
        for f in &reread.functions {
            for d in &f.defs {
                prop_assert_eq!(
                    read_facts.value(f.id, d.var),
                    computed.value(f.id, d.var),
                    "facts diverge at {:?}/{:?}", f.id, d.var
                );
            }
        }
        // The invariant that matters: the restored program analyzes
        // identically.
        prop_assert_eq!(report(&program), report(&reread), "seed {}", seed);
    }

    /// A flipped byte anywhere is an error (or, if it lands in dead
    /// padding, a still-consistent read) — never a panic.
    #[test]
    fn corruption_never_panics(seed in 0u64..100_000, pos in 0usize..10_000, flip in 1u8..255) {
        let cfg = GenConfig { seed, functions: 3, ..Default::default() };
        let program = compile_src(&generate(&cfg).to_source());
        let mut bytes = container(&program);
        let pos = pos % bytes.len();
        bytes[pos] ^= flip;
        // Every decode path must return, not panic; when it returns Ok
        // the decoded program must still satisfy program invariants.
        if let Ok(snap) = open_bytes(bytes) {
            match snapshot::read_program(&snap) {
                Ok(p) => {
                    // A checksum collision is effectively impossible; a
                    // flip that decodes cleanly must have hit a section
                    // we didn't read. The result must still be sane.
                    prop_assert!(fusion_ir::validate::check_program(&p).is_empty());
                }
                Err(e) => {
                    prop_assert!(!e.to_string().is_empty());
                }
            }
            let _ = snapshot::read_callgraph(&snap);
            let _ = snapshot::read_meta(&snap);
        }
    }

    /// Truncation at every prefix length is an error, never a panic.
    #[test]
    fn truncation_never_panics(seed in 0u64..100_000, cut in 0usize..10_000) {
        let cfg = GenConfig { seed, functions: 3, ..Default::default() };
        let program = compile_src(&generate(&cfg).to_source());
        let bytes = container(&program);
        let cut = cut % bytes.len();
        let truncated = bytes[..cut].to_vec();
        match open_bytes(truncated) {
            Ok(snap) => {
                // The header may survive the cut; the payload reads must
                // then fail cleanly.
                prop_assert!(snapshot::read_program(&snap).is_err());
            }
            Err(e) => prop_assert!(!e.to_string().is_empty()),
        }
    }
}

/// Version skew and a bad magic are position-annotated errors.
#[test]
fn version_and_magic_are_checked() {
    let program = compile_src("fn f(x) { return x; }");
    let bytes = container(&program);
    let mut wrong_version = bytes.clone();
    wrong_version[4..8].copy_from_slice(&99u32.to_le_bytes());
    let err = open_bytes(wrong_version).expect_err("version skew");
    assert_eq!(err.offset, 4);
    assert!(err.to_string().contains("99"), "{err}");
    // Version 1 stored rendered definition names; a version-2 reader
    // rejects it rather than misreading them as base names.
    let mut version_1 = bytes.clone();
    version_1[4..8].copy_from_slice(&1u32.to_le_bytes());
    let err = open_bytes(version_1).expect_err("version 1");
    assert_eq!(err.offset, 4);
    assert!(
        err.to_string().contains("unsupported snapshot version 1 "),
        "{err}"
    );
    let mut bad_magic = bytes;
    bad_magic[0] = b'X';
    let err = open_bytes(bad_magic).expect_err("bad magic");
    assert_eq!(err.offset, 0);
}
