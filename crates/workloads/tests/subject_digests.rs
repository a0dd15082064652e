//! Pins the bytes of generated subjects: FNV-1a 64 digests of the source
//! text and of the seeded-bug list (kind, host name, feasibility) of the
//! wine-shaped Table 2 subject, the default configuration and a
//! multi-module program.
//!
//! Every §5 table, the determinism suites and the benchmark's answer keys
//! are computed from these subjects, so a change to the generator or to
//! the surface printer that moves one byte must show up here, not only as
//! a shifted table.

use fusion_workloads::{generate, generate_multi, GenConfig, GeneratedSubject, SubjectSpec};

/// FNV-1a, 64-bit.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Digests of `subject`'s source text and of its seeded-bug list.
fn digests(subject: &GeneratedSubject) -> (u64, u64) {
    let mut bugs = String::new();
    for bug in &subject.bugs {
        let host = subject.interner.resolve(bug.host);
        bugs.push_str(&format!("{} {host} {}\n", bug.kind, bug.feasible));
    }
    (
        fnv1a(subject.to_source().as_bytes()),
        fnv1a(bugs.as_bytes()),
    )
}

fn wine(seed: u64) -> GenConfig {
    let spec = SubjectSpec::by_name("wine").expect("wine is a Table 2 subject");
    GenConfig {
        seed,
        ..spec.gen_config(0.002)
    }
}

#[test]
fn wine_subjects_are_pinned() {
    for (seed, want) in [
        (7, (0x0432_88ef_41d9_7799, 0x7a59_e97d_3cc6_ab09)),
        (11, (0x729e_8fe7_5f2d_fdef, 0x7a59_e97d_3cc6_ab09)),
    ] {
        let got = digests(&generate(&wine(seed)));
        assert_eq!(
            got, want,
            "wine seed {seed}: {:#018x}, {:#018x}",
            got.0, got.1
        );
    }
}

#[test]
fn default_subject_is_pinned() {
    let got = digests(&generate(&GenConfig::default()));
    assert_eq!(
        got,
        (0xa769_dea4_9a2a_c6a5, 0x40cb_e103_8785_e639),
        "{:#018x}, {:#018x}",
        got.0,
        got.1
    );
}

/// The multi-module shape of the benchmark's `edit-rescan` workload:
/// eight modules of twelve functions.
#[test]
fn multi_module_source_is_pinned() {
    let cfg = GenConfig {
        seed: 3,
        functions: 12,
        stmts_per_function: 60,
        branch_density: 0.3,
        null_feasible: 4,
        null_infeasible: 12,
        cwe23_feasible: 2,
        cwe23_infeasible: 6,
        cwe402_feasible: 2,
        cwe402_infeasible: 6,
        ..GenConfig::default()
    };
    let text = generate_multi(&cfg, 8);
    let got = fnv1a(text.as_bytes());
    assert_eq!(got, 0xb43d_ccfb_7cf5_284d, "{got:#018x}");
}
