//! Seeded fuzzing of the snapshot reader behind serve `load`: a saved
//! session's bytes mutated by bit flips, truncation, insertion and
//! section-table edits, and section payloads mutated and then re-sealed
//! with `SnapshotWriter::add`, so that their checksums hold and the case
//! reaches the section decoders behind them.
//!
//! For every input, `open_bytes` and every section reader must return
//! (never panic). Some inputs are also loaded into a resident session: a
//! load that fails must leave `resident()` unchanged, and an unchanged
//! `rescan` after it must re-analyze no candidate and report what the
//! scan reported. The case count is fixed, so every run checks the same
//! inputs.

use fusion::checkers::CheckerSet;
use fusion::engine::{AnalysisOptions, Feasibility, FeasibilityEngine, MultiAnalysisRun};
use fusion::graph_solver::FusionSolver;
use fusion::incremental::AnalysisSession;
use fusion::snapshot::{self, open_bytes, tag, Snapshot, SnapshotError, SnapshotWriter};
use fusion_ir::{compile, CompileOptions, Program};
use fusion_pdg::graph::Vertex;
use fusion_smt::solver::SolverConfig;
use proptest::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::OnceLock;

/// A deterministic stream (SplitMix64) expanding one sampled seed into an
/// input.
struct Stream(u64);

impl Stream {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn pick<T: Copy>(&mut self, items: &[T]) -> T {
        items[self.below(items.len())]
    }
}

/// Calls, externs, null and taint flows, and guards the solver decides
/// both ways, so the saved session holds facts, verdicts, provenance and
/// reports whose paths enter and leave callees.
const SRC: &str = "extern fn deref(p); extern fn gets(); extern fn fopen(x);\n\
    extern fn getpass(); extern fn sendmsg(y);\n\
    fn id(x) { return x; }\n\
    fn callee(x) { let b = x & 3; return b; }\n\
    fn caller(a) { let v = callee(a); let q = null; let r = 1; if (v > 0) { r = id(q); } deref(r); return 0; }\n\
    fn square(c) { let q = null; let r = 1; if (c * c == 7) { r = q; } deref(r); return 0; }\n\
    fn taint(c) { let t = gets(); let u = id(t); if (c * 3 == 10) { fopen(u); } return 0; }\n\
    fn leak(c) { let s = getpass(); let w = id(s); if (c > 4) { sendmsg(w); } return 0; }\n";

fn program() -> Program {
    compile(SRC, CompileOptions::default()).expect("compile")
}

fn factory() -> Box<dyn FeasibilityEngine> {
    Box::new(FusionSolver::new(SolverConfig::default()))
}

/// A session with [`SRC`] scanned and resident.
fn scanned() -> AnalysisSession {
    let mut session = AnalysisSession::new(CheckerSet::all(), AnalysisOptions::new(), 1);
    session.scan(program(), &factory);
    session
}

/// A file path of this test process, unique per `name`.
fn scratch(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "fusion-snapshot-fuzz-{}-{name}",
        std::process::id()
    ))
}

/// The saved session every case starts from.
fn saved() -> &'static [u8] {
    static SAVED: OnceLock<Vec<u8>> = OnceLock::new();
    SAVED.get_or_init(|| {
        let path = scratch("saved.fsnp");
        scanned().save(&path).expect("save");
        let bytes = std::fs::read(&path).expect("read the saved session");
        std::fs::remove_file(&path).ok();
        bytes
    })
}

fn u32_at(bytes: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap())
}

/// The `(tag, index, payload)` sections of a well-formed container, in
/// table order.
fn sections(bytes: &[u8]) -> Vec<(u32, u32, Vec<u8>)> {
    let u64_at = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap()) as usize;
    (0..u32_at(bytes, 8) as usize)
        .map(|i| {
            let entry = 12 + 32 * i;
            let (offset, len) = (u64_at(entry + 8), u64_at(entry + 16));
            (
                u32_at(bytes, entry),
                u32_at(bytes, entry + 4),
                bytes[offset..offset + len].to_vec(),
            )
        })
        .collect()
}

/// A value near a boundary a decoder checks: small counts, tags and
/// codes, the extremes, and a random word.
fn edge_u32(s: &mut Stream) -> u32 {
    match s.below(8) {
        0 => 0,
        1 => 1,
        2 => s.below(12) as u32,
        3 => u32::MAX,
        4 => u32::MAX - s.below(4) as u32,
        5 => 1 << s.below(32),
        6 => s.below(300) as u32,
        _ => s.next() as u32,
    }
}

fn edge_u64(s: &mut Stream, total: u64) -> u64 {
    match s.below(7) {
        0 => 0,
        1 => total.saturating_sub(s.below(40) as u64),
        2 => total + s.below(3) as u64,
        3 => u64::MAX - s.below(4) as u64,
        4 => 1 << s.below(64),
        5 => s.below(600) as u64,
        _ => s.next(),
    }
}

/// Random bytes, `1..=max` of them.
fn noise(s: &mut Stream, max: usize) -> Vec<u8> {
    (0..1 + s.below(max)).map(|_| s.next() as u8).collect()
}

/// One byte-level edit of `bytes`: a bit flip, a truncation, an
/// insertion, or a word overwritten with a boundary value.
fn edit(s: &mut Stream, bytes: &mut Vec<u8>) {
    let len = bytes.len();
    let at = s.below(len + 1);
    match s.below(5) {
        0 if len > 0 => bytes[at.min(len - 1)] ^= 1 << s.below(8),
        1 => bytes.truncate(at),
        2 => {
            let n = noise(s, 8);
            bytes.splice(at..at, n);
        }
        3 if at + 4 <= len => {
            let v = edge_u32(s);
            bytes[at..at + 4].copy_from_slice(&v.to_le_bytes());
        }
        _ if at + 8 <= len => {
            let v = edge_u64(s, len as u64);
            bytes[at..at + 8].copy_from_slice(&v.to_le_bytes());
        }
        _ => bytes.truncate(at),
    }
}

/// One to three mutations of the saved container's bytes; half of them
/// edit the header or the section table.
fn mutate_container(s: &mut Stream) -> Vec<u8> {
    let mut bytes = saved().to_vec();
    for _ in 0..1 + s.below(3) {
        let count = if bytes.len() >= 12 {
            u32_at(&bytes, 8) as usize
        } else {
            0
        };
        let table = 12 + 32 * count;
        if s.below(2) == 0 && count > 0 && table <= bytes.len() {
            // A section-table field: tag, index, offset, length or
            // checksum; or the section count.
            let entry = 12 + 32 * s.below(count);
            let total = bytes.len() as u64;
            match s.below(6) {
                0 => {
                    let v = edge_u32(s);
                    bytes[8..12].copy_from_slice(&v.to_le_bytes());
                }
                f @ (1 | 2) => {
                    let edge = edge_u32(s);
                    let v = s.pick(&[0, 2, 5, 8, 10, tag::META, tag::OUTCOMES, edge]);
                    let at = entry + 4 * (f - 1);
                    bytes[at..at + 4].copy_from_slice(&v.to_le_bytes());
                }
                f => {
                    let at = entry + 8 * (f - 2);
                    let v = edge_u64(s, total);
                    bytes[at..at + 8].copy_from_slice(&v.to_le_bytes());
                }
            }
        } else {
            edit(s, &mut bytes);
        }
    }
    bytes
}

/// The saved container with one section's payload mutated (or the
/// section dropped, duplicated or renumbered) and every section re-sealed
/// under a fresh checksum. The section is picked by tag first, so the
/// whole-program sections are mutated as often as the per-function ones.
fn mutate_payload(s: &mut Stream) -> Vec<u8> {
    let mut parts = sections(saved());
    let mut tags: Vec<u32> = parts.iter().map(|p| p.0).collect();
    tags.sort_unstable();
    tags.dedup();
    let t = s.pick(&tags);
    let of_tag: Vec<usize> = (0..parts.len()).filter(|&i| parts[i].0 == t).collect();
    let i = s.pick(&of_tag);
    match s.below(10) {
        0 => {
            parts.remove(i);
        }
        1 => {
            let copy = parts[i].clone();
            parts.insert(s.below(parts.len() + 1), copy);
        }
        2 => parts[i].1 = edge_u32(s),
        _ => {
            for _ in 0..1 + s.below(3) {
                edit(s, &mut parts[i].2);
            }
        }
    }
    let mut w = SnapshotWriter::new();
    for (tag, index, payload) in parts {
        w.add(tag, index, payload);
    }
    w.finish()
}

/// The readers a case can reach, in the order [`read_all`] calls them
/// (and [`READERS`] lists them).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Reader {
    Open,
    Program,
    Facts,
    Outcomes,
    Verdicts,
    Provenance,
}

const READERS: [Reader; 6] = [
    Reader::Open,
    Reader::Program,
    Reader::Facts,
    Reader::Outcomes,
    Reader::Verdicts,
    Reader::Provenance,
];

/// Whether `e` came from decoding a section, not from finding or
/// checksumming it.
fn decode_error(e: &SnapshotError) -> bool {
    !e.what.starts_with("checksum mismatch") && !e.what.starts_with("missing section")
}

/// Opens `bytes` and runs every section reader on them, as serve `load`
/// and the shard steps do. Returns the readers that rejected a section
/// they decoded.
fn read_all(bytes: Vec<u8>) -> Vec<Reader> {
    let mut rejected = Vec::new();
    let mut note = |reader: Reader, r: Result<(), SnapshotError>| {
        if r.as_ref().is_err_and(decode_error) {
            rejected.push(reader);
        }
    };
    let snap: Snapshot = match open_bytes(bytes) {
        Ok(snap) => snap,
        Err(e) => {
            note(Reader::Open, Err(e));
            return rejected;
        }
    };
    match snapshot::read_program(&snap) {
        Ok(program) => {
            note(Reader::Program, Ok(()));
            if snap.has(tag::FACTS, 0) {
                note(
                    Reader::Facts,
                    snapshot::read_facts(&snap, &program).map(drop),
                );
            }
            if snap.has(tag::OUTCOMES, 0) {
                let outcomes = snapshot::read_outcomes(&snap, &program);
                note(Reader::Outcomes, outcomes.map(drop));
            }
        }
        Err(e) => note(Reader::Program, Err(e)),
    }
    if snap.has(tag::VERDICTS, 0) {
        note(Reader::Verdicts, snapshot::read_verdicts(&snap).map(drop));
    }
    if snap.has(tag::PROV_VERDICTS, 0) {
        note(
            Reader::Provenance,
            snapshot::read_provenance(&snap).map(drop),
        );
    }
    rejected
}

/// Runs [`read_all`], failing the case on a panic.
fn check_readers(bytes: Vec<u8>) -> Result<(), TestCaseError> {
    let len = bytes.len();
    let run = catch_unwind(AssertUnwindSafe(|| read_all(bytes)));
    prop_assert!(run.is_ok(), "a snapshot reader panicked on {len} bytes");
    Ok(())
}

type ReportKey = (usize, Vertex, Vertex, Feasibility, Vec<Vertex>);

fn reports(run: &MultiAnalysisRun) -> Vec<ReportKey> {
    run.checkers
        .iter()
        .enumerate()
        .flat_map(|(i, b)| {
            b.reports
                .iter()
                .map(move |r| (i, r.source, r.sink, r.verdict, r.path.nodes.clone()))
        })
        .collect()
}

/// The reports of a cold scan of [`SRC`].
fn scan_reports() -> &'static [ReportKey] {
    static REPORTS: OnceLock<Vec<ReportKey>> = OnceLock::new();
    REPORTS.get_or_init(|| {
        let mut session = AnalysisSession::new(CheckerSet::all(), AnalysisOptions::new(), 1);
        reports(&session.scan(program(), &factory))
    })
}

/// Loads `bytes` into a resident session. A failed load must leave the
/// session as it was: the same resident counts, and an unchanged rescan
/// that re-analyzes nothing and reports what the scan reported. A load
/// that succeeds must leave a session that still rescans.
fn check_load(bytes: &[u8], name: &str) -> Result<(), TestCaseError> {
    let path = scratch(name);
    std::fs::write(&path, bytes).expect("write the mutated session");
    let run = catch_unwind(AssertUnwindSafe(|| {
        let mut session = scanned();
        let before = session.resident();
        let loaded = session.load(&path);
        let after = session.resident();
        let rescan = session.rescan(program(), &factory);
        (loaded.is_ok(), before, after, rescan)
    }));
    std::fs::remove_file(&path).ok();
    prop_assert!(
        run.is_ok(),
        "load or rescan panicked on {} bytes",
        bytes.len()
    );
    let (loaded, before, after, rescan) = run.unwrap();
    if !loaded {
        prop_assert_eq!(after, before, "a failed load changed the resident state");
        prop_assert_eq!(rescan.stages.candidates_reanalyzed, 0);
        prop_assert_eq!(reports(&rescan), scan_reports().to_vec());
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4_000))]

    #[test]
    fn mutated_containers_never_panic(seed in any::<u64>()) {
        check_readers(mutate_container(&mut Stream(seed)))?;
    }

    #[test]
    fn resealed_payloads_never_panic(seed in any::<u64>()) {
        check_readers(mutate_payload(&mut Stream(seed)))?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    #[test]
    fn failed_loads_leave_the_session_resident(seed in any::<u64>()) {
        let mut s = Stream(seed);
        let bytes = if s.below(2) == 0 {
            mutate_container(&mut s)
        } else {
            mutate_payload(&mut s)
        };
        check_load(&bytes, &format!("load-{seed:x}.fsnp"))?;
    }
}

/// The generators cover what the fuzz targets are for: re-sealed
/// payloads get past the checksums into every section decoder, which
/// rejects some of them, and container edits reach the header and table
/// checks.
#[test]
fn inputs_reach_every_decoder() {
    // The whole-program sections hold entries, not just a zero count.
    let saved = open_bytes(saved().to_vec()).expect("the saved session opens");
    for t in [tag::OUTCOMES, tag::VERDICTS, tag::PROV_VERDICTS] {
        let payload = saved
            .section(t, 0)
            .expect("the saved session has the section");
        assert!(payload.len() > 4, "section tag {t} is empty");
    }
    let mut payload = [0usize; READERS.len()];
    let mut container = [0usize; READERS.len()];
    for seed in 0..1_000 {
        let mut s = Stream(seed);
        for r in read_all(mutate_payload(&mut s)) {
            payload[r as usize] += 1;
        }
        for r in read_all(mutate_container(&mut s)) {
            container[r as usize] += 1;
        }
    }
    for (reader, n) in READERS.iter().zip(payload).skip(1) {
        assert!(
            n >= 10,
            "{reader:?} rejected {n} of 1000 re-sealed payloads"
        );
    }
    assert!(
        container[0] >= 100,
        "the header and table checks rejected {} of 1000 containers",
        container[0]
    );
}
