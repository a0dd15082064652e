//! The versioned on-disk snapshot format behind partitioned analysis and
//! serve-mode `save`/`load` (ROADMAP item 3).
//!
//! A snapshot is a single file (or byte buffer) holding a set of
//! independently addressable, FNV-checksummed **sections**:
//!
//! ```text
//! "FSNP" | version u32 | section count u32
//! table: (tag u32, index u32, offset u64, len u64, checksum u64) ×count
//! payloads...
//! ```
//!
//! Sections come in whole-program flavors (call-graph summary, recorded
//! work-item outcomes, verdict-cache entries, provenance spans) and
//! **per-function** flavors (IR body, abstract facts, PDG partition), so
//! a reader can materialize exactly the functions it needs: a shard
//! worker ([`crate::shard`]) loads only its closure's `FUNC`/`FACTS`
//! sections and never decodes the rest of the program. Reads are lazy —
//! [`Snapshot::section`] seeks to one payload, validates its checksum,
//! and decodes nothing else.
//!
//! §3.2.2 discipline: the format carries dependence *structure* (SSA
//! bodies, adjacency, call edges), unconditional *facts* (absint
//! values, return summaries), and three-valued *verdicts* — never a
//! path condition. There is deliberately no section a formula could
//! round-trip through.
//!
//! Every decode error is position-annotated ([`SnapshotError`] carries
//! the absolute byte offset) and recoverable — corrupt, truncated, or
//! version-skewed input returns `Err`, never panics.

use crate::absint::ProgramFacts;
use crate::cache::{Key128, VerdictCache};
use crate::compact::IsoVerdicts;
use crate::engine::{CandVerdict, Feasibility, ItemOutcomes, ItemRecord};
use crate::incremental::Provenance;
use crate::quickpath::RetSummary;
use fusion_ir::interner::Interner;
use fusion_ir::ssa::{CallSite, CallSiteId, Def, DefKind, FuncId, Function, Op, Program, VarId};
use fusion_pdg::graph::{Pdg, Vertex};
use fusion_pdg::paths::{DependencePath, Link};
use std::fmt;
use std::fs::File;
use std::io::{Read, Seek, SeekFrom};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// File magic: "FSNP" (Fusion SNaPshot).
pub const MAGIC: [u8; 4] = *b"FSNP";
/// Current format version. Readers reject any other version with a
/// position-annotated error (no silent best-effort decoding). Version 2
/// stores each definition's base name ([`Def::name`]) in `FUNC`
/// sections; version 1 stored the rendered `{base}.{var}` text.
pub const VERSION: u32 = 2;

/// Section tags. Per-function sections pair the tag with the function's
/// global index; whole-program sections use index 0.
pub mod tag {
    /// Whole-program metadata: function and call-site counts.
    pub const META: u32 = 1;
    /// Call-graph summary: per-function externality, def count, name,
    /// and deduplicated callee list — everything the partitioner needs
    /// without touching a single body.
    pub const CALLGRAPH: u32 = 2;
    /// One function's full SSA body (per-function index); definitions
    /// carry their base names.
    pub const FUNC: u32 = 3;
    /// One function's abstract facts + return fact (per-function index).
    pub const FACTS: u32 = 4;
    /// One function's PDG partition: the def→uses adjacency
    /// (per-function index).
    pub const PDG: u32 = 5;
    /// Recorded `(checker, source)` work-item outcomes.
    pub const OUTCOMES: u32 = 6;
    /// Verdict-cache entries (`Key128 → Feasibility`).
    pub const VERDICTS: u32 = 7;
    /// Iso-memo entries (`Key128 → Feasibility`).
    pub const ISO: u32 = 8;
    /// Verdict provenance spans (`Key128 → function ids`).
    pub const PROV_VERDICTS: u32 = 9;
    /// Iso provenance spans (`Key128 → function ids`).
    pub const PROV_ISO: u32 = 10;
}

/// A position-annotated snapshot decode/IO error. Never produced by a
/// panic: every read is bounds-checked and every checksum verified.
#[derive(Debug)]
pub struct SnapshotError {
    /// Absolute byte offset (into the file/buffer) nearest the problem.
    pub offset: u64,
    /// What went wrong.
    pub what: String,
}

impl SnapshotError {
    fn new(offset: u64, what: impl Into<String>) -> SnapshotError {
        SnapshotError {
            offset,
            what: what.into(),
        }
    }
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "snapshot error at byte {}: {}", self.offset, self.what)
    }
}

impl std::error::Error for SnapshotError {}

/// FNV-1a over raw bytes (single stream; the section integrity check).
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

/// Little-endian primitive encoders over a growing byte buffer.
struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    fn new() -> Enc {
        Enc { buf: Vec::new() }
    }

    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }

    fn opt_var(&mut self, v: Option<VarId>) {
        match v {
            None => self.u8(0),
            Some(x) => {
                self.u8(1);
                self.u32(x.0);
            }
        }
    }
}

/// Builds a snapshot: accumulate sections, then [`SnapshotWriter::finish`]
/// into the container bytes (or write them to a path).
pub struct SnapshotWriter {
    sections: Vec<(u32, u32, Vec<u8>)>,
}

impl Default for SnapshotWriter {
    fn default() -> Self {
        Self::new()
    }
}

impl SnapshotWriter {
    /// An empty snapshot under construction.
    pub fn new() -> SnapshotWriter {
        SnapshotWriter {
            sections: Vec::new(),
        }
    }

    /// Adds one section payload under `(tag, index)`.
    pub fn add(&mut self, tag: u32, index: u32, payload: Vec<u8>) {
        self.sections.push((tag, index, payload));
    }

    /// Assembles the container: header, checksummed section table,
    /// payloads.
    pub fn finish(self) -> Vec<u8> {
        let header = 12 + self.sections.len() * 32;
        let mut out = Vec::with_capacity(
            header + self.sections.iter().map(|(_, _, p)| p.len()).sum::<usize>(),
        );
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&VERSION.to_le_bytes());
        out.extend_from_slice(&(self.sections.len() as u32).to_le_bytes());
        let mut offset = header as u64;
        for (tag, index, payload) in &self.sections {
            out.extend_from_slice(&tag.to_le_bytes());
            out.extend_from_slice(&index.to_le_bytes());
            out.extend_from_slice(&offset.to_le_bytes());
            out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
            out.extend_from_slice(&fnv1a(payload).to_le_bytes());
            offset += payload.len() as u64;
        }
        for (_, _, payload) in self.sections {
            out.extend_from_slice(&payload);
        }
        out
    }

    /// Assembles and writes the container to `path`, returning the byte
    /// count written.
    pub fn write_to(self, path: &std::path::Path) -> Result<u64, SnapshotError> {
        let bytes = self.finish();
        std::fs::write(path, &bytes)
            .map_err(|e| SnapshotError::new(0, format!("write {}: {e}", path.display())))?;
        Ok(bytes.len() as u64)
    }
}

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

/// Bounds-checked little-endian decoders over one section's payload.
/// Every error carries the absolute byte offset (`base + position`).
struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
    base: u64,
}

impl<'a> Dec<'a> {
    fn new(buf: &'a [u8], base: u64) -> Dec<'a> {
        Dec { buf, pos: 0, base }
    }

    fn err(&self, what: impl Into<String>) -> SnapshotError {
        SnapshotError::new(self.base + self.pos as u64, what)
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        if self.pos + n > self.buf.len() {
            return Err(self.err(format!(
                "truncated: need {n} bytes, {} remain",
                self.buf.len() - self.pos
            )));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, SnapshotError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, SnapshotError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// A length-prefixed count that must be plausible for the remaining
    /// payload (guards against a corrupt length causing a huge
    /// allocation).
    fn count(&mut self, per_item: usize) -> Result<usize, SnapshotError> {
        let n = self.u32()? as usize;
        let remaining = self.buf.len() - self.pos;
        if n.saturating_mul(per_item.max(1)) > remaining {
            return Err(self.err(format!(
                "corrupt count {n}: exceeds remaining {remaining} bytes"
            )));
        }
        Ok(n)
    }

    fn str(&mut self) -> Result<String, SnapshotError> {
        let n = self.count(1)?;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|e| self.err(format!("invalid UTF-8: {e}")))
    }

    fn opt_var(&mut self) -> Result<Option<VarId>, SnapshotError> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(VarId(self.u32()?))),
            t => Err(self.err(format!("invalid option tag {t}"))),
        }
    }

    fn done(&self) -> Result<(), SnapshotError> {
        if self.pos != self.buf.len() {
            return Err(self.err(format!(
                "{} trailing bytes in section",
                self.buf.len() - self.pos
            )));
        }
        Ok(())
    }
}

struct SectionEntry {
    tag: u32,
    index: u32,
    offset: u64,
    len: u64,
    checksum: u64,
}

enum Source {
    Mem(Vec<u8>),
    File(Mutex<File>),
}

/// An opened snapshot: parsed header + section table over a lazily-read
/// byte source. Payloads are fetched and checksum-verified one section
/// at a time — opening a snapshot of a million-function program reads
/// only the table.
pub struct Snapshot {
    source: Source,
    table: Vec<SectionEntry>,
    bytes_read: AtomicU64,
}

impl fmt::Debug for Snapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Snapshot")
            .field("sections", &self.table.len())
            .field("bytes_read", &self.bytes_read())
            .finish()
    }
}

impl Snapshot {
    /// Total bytes fetched from the source so far (header + every
    /// section payload read), for the `snapshot_bytes_read` counter.
    pub fn bytes_read(&self) -> u64 {
        self.bytes_read.load(Ordering::Relaxed)
    }

    /// Whether a `(tag, index)` section exists.
    pub fn has(&self, tag: u32, index: u32) -> bool {
        self.table.iter().any(|s| s.tag == tag && s.index == index)
    }

    /// Reads and checksum-verifies one section payload.
    pub fn section(&self, tag: u32, index: u32) -> Result<Vec<u8>, SnapshotError> {
        let entry = self
            .table
            .iter()
            .find(|s| s.tag == tag && s.index == index)
            .ok_or_else(|| {
                SnapshotError::new(0, format!("missing section tag {tag} index {index}"))
            })?;
        let payload = match &self.source {
            Source::Mem(bytes) => {
                bytes[entry.offset as usize..(entry.offset + entry.len) as usize].to_vec()
            }
            Source::File(file) => {
                let mut file = file.lock().expect("snapshot file poisoned");
                file.seek(SeekFrom::Start(entry.offset))
                    .map_err(|e| SnapshotError::new(entry.offset, format!("seek section: {e}")))?;
                let mut buf = vec![0u8; entry.len as usize];
                file.read_exact(&mut buf)
                    .map_err(|e| SnapshotError::new(entry.offset, format!("read section: {e}")))?;
                buf
            }
        };
        self.bytes_read.fetch_add(entry.len, Ordering::Relaxed);
        let sum = fnv1a(&payload);
        if sum != entry.checksum {
            return Err(SnapshotError::new(
                entry.offset,
                format!(
                    "checksum mismatch in section tag {tag} index {index}: \
                     stored {:#018x}, computed {sum:#018x}",
                    entry.checksum
                ),
            ));
        }
        Ok(payload)
    }

    /// The absolute payload offset of `(tag, index)`, for error bases.
    fn offset_of(&self, tag: u32, index: u32) -> u64 {
        self.table
            .iter()
            .find(|s| s.tag == tag && s.index == index)
            .map(|s| s.offset)
            .unwrap_or(0)
    }
}

fn parse_header(head: &[u8], total_len: u64) -> Result<Vec<SectionEntry>, SnapshotError> {
    let mut d = Dec::new(head, 0);
    let magic = d.take(4)?;
    if magic != MAGIC {
        return Err(SnapshotError::new(
            0,
            format!("bad magic {magic:?}, expected {MAGIC:?}"),
        ));
    }
    let version = d.u32()?;
    if version != VERSION {
        return Err(SnapshotError::new(
            4,
            format!("unsupported snapshot version {version} (reader supports {VERSION})"),
        ));
    }
    let count = d.u32()? as u64;
    let table_end = 12 + count * 32;
    if table_end > total_len {
        return Err(SnapshotError::new(
            8,
            format!(
                "truncated section table: {count} entries need {table_end} bytes, file has {total_len}"
            ),
        ));
    }
    if head.len() < table_end as usize {
        return Err(SnapshotError::new(
            12,
            "header buffer too short".to_string(),
        ));
    }
    let mut table = Vec::with_capacity(count as usize);
    for i in 0..count {
        let base = 12 + i * 32;
        let mut e = Dec::new(&head[base as usize..base as usize + 32], base);
        let entry = SectionEntry {
            tag: e.u32()?,
            index: e.u32()?,
            offset: e.u64()?,
            len: e.u64()?,
            checksum: e.u64()?,
        };
        if entry.offset < table_end
            || entry.offset.checked_add(entry.len).is_none()
            || entry.offset + entry.len > total_len
        {
            return Err(SnapshotError::new(
                base,
                format!(
                    "section tag {} index {} spans {}..{} outside file of {} bytes",
                    entry.tag,
                    entry.index,
                    entry.offset,
                    entry.offset.saturating_add(entry.len),
                    total_len
                ),
            ));
        }
        table.push(entry);
    }
    Ok(table)
}

/// Opens a snapshot file, reading header + full section table eagerly;
/// payloads stay on disk until [`Snapshot::section`] asks for them.
pub fn open_file(path: &std::path::Path) -> Result<Snapshot, SnapshotError> {
    let mut file = File::open(path)
        .map_err(|e| SnapshotError::new(0, format!("open {}: {e}", path.display())))?;
    let total_len = file
        .metadata()
        .map_err(|e| SnapshotError::new(0, format!("stat {}: {e}", path.display())))?
        .len();
    if total_len < 12 {
        return Err(SnapshotError::new(
            total_len,
            format!("truncated header: {total_len} bytes, need at least 12"),
        ));
    }
    let mut prefix = [0u8; 12];
    file.read_exact(&mut prefix)
        .map_err(|e| SnapshotError::new(0, format!("read header: {e}")))?;
    let count = u32::from_le_bytes(prefix[8..12].try_into().unwrap()) as u64;
    let head_len = (12 + count * 32).min(total_len) as usize;
    let mut head = vec![0u8; head_len];
    head[..12].copy_from_slice(&prefix);
    file.read_exact(&mut head[12..])
        .map_err(|e| SnapshotError::new(12, format!("read section table: {e}")))?;
    let table = parse_header(&head, total_len)?;
    Ok(Snapshot {
        source: Source::File(Mutex::new(file)),
        table,
        bytes_read: AtomicU64::new(head_len as u64),
    })
}

/// Opens an in-memory snapshot, parsing header + full section table.
pub fn open_bytes(bytes: Vec<u8>) -> Result<Snapshot, SnapshotError> {
    let total_len = bytes.len() as u64;
    if total_len < 12 {
        return Err(SnapshotError::new(
            total_len,
            format!("truncated header: {total_len} bytes, need at least 12"),
        ));
    }
    let count = u32::from_le_bytes(bytes[8..12].try_into().unwrap()) as u64;
    let head_len = (12 + count * 32).min(total_len) as usize;
    let table = parse_header(&bytes[..head_len], total_len)?;
    Ok(Snapshot {
        source: Source::Mem(bytes),
        table,
        bytes_read: AtomicU64::new(head_len as u64),
    })
}

// ---------------------------------------------------------------------------
// Program sections
// ---------------------------------------------------------------------------

/// A decoded function with *global* identities (callee [`FuncId`]s and
/// [`CallSiteId`]s as in the snapshotted program) and names as strings
/// (symbols are interner-relative and never serialized). The shard layer
/// re-interns and renumbers these into a dense sub-program.
#[derive(Debug, Clone)]
pub struct RawFunction {
    /// Function name.
    pub name: String,
    /// External declaration (no body)?
    pub is_extern: bool,
    /// Parameter variables.
    pub params: Vec<VarId>,
    /// The return definition, if any.
    pub ret: Option<VarId>,
    /// Definitions in program order: `(diagnostic name, kind, guard)`.
    pub defs: Vec<(String, DefKind, Option<VarId>)>,
}

/// Per-function call-graph summary decoded from [`tag::CALLGRAPH`] —
/// everything partitioning needs without materializing any body.
#[derive(Debug, Clone)]
pub struct CallGraphInfo {
    /// Per-function externality.
    pub is_extern: Vec<bool>,
    /// Per-function definition count (the partition balance weight).
    pub def_counts: Vec<u64>,
    /// Per-function deduplicated callee list.
    pub callees: Vec<Vec<u32>>,
}

impl CallGraphInfo {
    /// Builds the summary directly from a program (the writer side and
    /// the in-process coordinator use this; workers decode it from the
    /// snapshot).
    pub fn of_program(program: &Program) -> CallGraphInfo {
        let n = program.functions.len();
        let mut info = CallGraphInfo {
            is_extern: Vec::with_capacity(n),
            def_counts: Vec::with_capacity(n),
            callees: Vec::with_capacity(n),
        };
        for f in &program.functions {
            let mut callees: Vec<u32> = f
                .defs
                .iter()
                .filter_map(|d| match &d.kind {
                    DefKind::Call { callee, .. } => Some(callee.0),
                    _ => None,
                })
                .collect();
            callees.sort_unstable();
            callees.dedup();
            info.is_extern.push(f.is_extern);
            info.def_counts.push(f.defs.len() as u64);
            info.callees.push(callees);
        }
        info
    }

    /// Number of functions.
    pub fn len(&self) -> usize {
        self.is_extern.len()
    }

    /// Whether the program has no functions.
    pub fn is_empty(&self) -> bool {
        self.is_extern.is_empty()
    }
}

fn encode_def_kind(e: &mut Enc, kind: &DefKind) {
    match kind {
        DefKind::Param { index } => {
            e.u8(0);
            e.u32(*index as u32);
        }
        DefKind::Const { value, is_null } => {
            e.u8(1);
            e.u32(*value);
            e.u8(*is_null as u8);
        }
        DefKind::Copy { src } => {
            e.u8(2);
            e.u32(src.0);
        }
        DefKind::Binary { op, lhs, rhs } => {
            e.u8(3);
            e.u8(op_code(*op));
            e.u32(lhs.0);
            e.u32(rhs.0);
        }
        DefKind::Ite {
            cond,
            then_v,
            else_v,
        } => {
            e.u8(4);
            e.u32(cond.0);
            e.u32(then_v.0);
            e.u32(else_v.0);
        }
        DefKind::Call { callee, args, site } => {
            e.u8(5);
            e.u32(callee.0);
            e.u32(site.0);
            e.u32(args.len() as u32);
            for a in args {
                e.u32(a.0);
            }
        }
        DefKind::Branch { cond } => {
            e.u8(6);
            e.u32(cond.0);
        }
        DefKind::Return { src } => {
            e.u8(7);
            e.u32(src.0);
        }
    }
}

fn decode_def_kind(d: &mut Dec<'_>) -> Result<DefKind, SnapshotError> {
    Ok(match d.u8()? {
        0 => DefKind::Param {
            index: d.u32()? as usize,
        },
        1 => DefKind::Const {
            value: d.u32()?,
            is_null: d.u8()? != 0,
        },
        2 => DefKind::Copy {
            src: VarId(d.u32()?),
        },
        3 => DefKind::Binary {
            op: op_from_code(d.u8()?).ok_or_else(|| d.err("invalid binary op code"))?,
            lhs: VarId(d.u32()?),
            rhs: VarId(d.u32()?),
        },
        4 => DefKind::Ite {
            cond: VarId(d.u32()?),
            then_v: VarId(d.u32()?),
            else_v: VarId(d.u32()?),
        },
        5 => {
            let callee = FuncId(d.u32()?);
            let site = CallSiteId(d.u32()?);
            let n = d.count(4)?;
            let mut args = Vec::with_capacity(n);
            for _ in 0..n {
                args.push(VarId(d.u32()?));
            }
            DefKind::Call { callee, args, site }
        }
        6 => DefKind::Branch {
            cond: VarId(d.u32()?),
        },
        7 => DefKind::Return {
            src: VarId(d.u32()?),
        },
        t => return Err(d.err(format!("invalid def kind tag {t}"))),
    })
}

fn op_code(op: Op) -> u8 {
    match op {
        Op::Add => 0,
        Op::Sub => 1,
        Op::Mul => 2,
        Op::Udiv => 3,
        Op::Urem => 4,
        Op::And => 5,
        Op::Or => 6,
        Op::Xor => 7,
        Op::Shl => 8,
        Op::Lshr => 9,
        Op::Ashr => 10,
        Op::Slt => 11,
        Op::Sle => 12,
        Op::Ult => 13,
        Op::Ule => 14,
        Op::Eq => 15,
        Op::Ne => 16,
    }
}

fn op_from_code(c: u8) -> Option<Op> {
    Some(match c {
        0 => Op::Add,
        1 => Op::Sub,
        2 => Op::Mul,
        3 => Op::Udiv,
        4 => Op::Urem,
        5 => Op::And,
        6 => Op::Or,
        7 => Op::Xor,
        8 => Op::Shl,
        9 => Op::Lshr,
        10 => Op::Ashr,
        11 => Op::Slt,
        12 => Op::Sle,
        13 => Op::Ult,
        14 => Op::Ule,
        15 => Op::Eq,
        16 => Op::Ne,
        _ => return None,
    })
}

/// Adds the program sections: [`tag::META`], [`tag::CALLGRAPH`], and one
/// [`tag::FUNC`] per function. Call-site metadata is *not* stored — the
/// table is reconstructed exactly from the call definitions on read.
pub fn write_program(w: &mut SnapshotWriter, program: &Program) {
    let mut meta = Enc::new();
    meta.u32(program.functions.len() as u32);
    meta.u32(program.call_sites.len() as u32);
    w.add(tag::META, 0, meta.buf);

    let info = CallGraphInfo::of_program(program);
    let mut cg = Enc::new();
    cg.u32(info.len() as u32);
    for i in 0..info.len() {
        cg.u8(info.is_extern[i] as u8);
        cg.u64(info.def_counts[i]);
        cg.str(program.name(program.functions[i].name));
        cg.u32(info.callees[i].len() as u32);
        for &c in &info.callees[i] {
            cg.u32(c);
        }
    }
    w.add(tag::CALLGRAPH, 0, cg.buf);

    for f in &program.functions {
        let mut e = Enc::new();
        e.str(program.name(f.name));
        e.u8(f.is_extern as u8);
        e.u32(f.params.len() as u32);
        for p in &f.params {
            e.u32(p.0);
        }
        e.opt_var(f.ret);
        e.u32(f.defs.len() as u32);
        for def in &f.defs {
            e.u32(def.var.0);
            e.str(program.name(def.name));
            e.opt_var(def.guard);
            encode_def_kind(&mut e, &def.kind);
        }
        w.add(tag::FUNC, f.id.0, e.buf);
    }
}

/// Decodes `(function count, call-site count)` from [`tag::META`].
pub fn read_meta(snap: &Snapshot) -> Result<(usize, usize), SnapshotError> {
    let payload = snap.section(tag::META, 0)?;
    let mut d = Dec::new(&payload, snap.offset_of(tag::META, 0));
    let funcs = d.u32()? as usize;
    let sites = d.u32()? as usize;
    d.done()?;
    Ok((funcs, sites))
}

/// Decodes the call-graph summary from [`tag::CALLGRAPH`].
pub fn read_callgraph(snap: &Snapshot) -> Result<CallGraphInfo, SnapshotError> {
    let payload = snap.section(tag::CALLGRAPH, 0)?;
    let mut d = Dec::new(&payload, snap.offset_of(tag::CALLGRAPH, 0));
    let n = d.count(10)?;
    let mut info = CallGraphInfo {
        is_extern: Vec::with_capacity(n),
        def_counts: Vec::with_capacity(n),
        callees: Vec::with_capacity(n),
    };
    for _ in 0..n {
        info.is_extern.push(d.u8()? != 0);
        info.def_counts.push(d.u64()?);
        let _name = d.str()?;
        let m = d.count(4)?;
        let mut callees = Vec::with_capacity(m);
        for _ in 0..m {
            let c = d.u32()?;
            if c as usize >= n {
                return Err(d.err(format!("callee id {c} out of range ({n} functions)")));
            }
            callees.push(c);
        }
        info.callees.push(callees);
    }
    d.done()?;
    Ok(info)
}

/// Decodes one function's body from its [`tag::FUNC`] section, with
/// global identities intact.
pub fn read_function(snap: &Snapshot, index: u32) -> Result<RawFunction, SnapshotError> {
    let payload = snap.section(tag::FUNC, index)?;
    let mut d = Dec::new(&payload, snap.offset_of(tag::FUNC, index));
    let name = d.str()?;
    let is_extern = d.u8()? != 0;
    let np = d.count(4)?;
    let mut params = Vec::with_capacity(np);
    for _ in 0..np {
        params.push(VarId(d.u32()?));
    }
    let ret = d.opt_var()?;
    let nd = d.count(8)?;
    let mut defs = Vec::with_capacity(nd);
    for i in 0..nd {
        let var = d.u32()?;
        if var as usize != i {
            return Err(d.err(format!("def {i} declares var {var} (must be dense)")));
        }
        let dname = d.str()?;
        let guard = d.opt_var()?;
        let kind = decode_def_kind(&mut d)?;
        defs.push((dname, kind, guard));
    }
    d.done()?;
    Ok(RawFunction {
        name,
        is_extern,
        params,
        ret,
        defs,
    })
}

/// Decodes the whole program (every function section), re-interning all
/// names and reconstructing the call-site table from the call
/// definitions. The serve `load` path uses this; shard workers use
/// [`read_function`] per closure member instead.
pub fn read_program(snap: &Snapshot) -> Result<Program, SnapshotError> {
    let (nfuncs, nsites) = read_meta(snap)?;
    let mut interner = Interner::new();
    let mut functions = Vec::with_capacity(nfuncs);
    let mut call_sites: Vec<Option<CallSite>> = vec![None; nsites];
    for i in 0..nfuncs {
        let raw = read_function(snap, i as u32)?;
        let name = interner.intern(&raw.name);
        let id = FuncId(i as u32);
        let mut defs = Vec::with_capacity(raw.defs.len());
        for (j, (dname, kind, guard)) in raw.defs.into_iter().enumerate() {
            if let DefKind::Call { callee, site, .. } = &kind {
                let s = site.index();
                if s >= nsites {
                    return Err(SnapshotError::new(
                        snap.offset_of(tag::FUNC, i as u32),
                        format!("call site {s} out of range ({nsites} sites)"),
                    ));
                }
                call_sites[s] = Some(CallSite {
                    caller: id,
                    stmt: VarId(j as u32),
                    callee: *callee,
                });
            }
            defs.push(Def {
                var: VarId(j as u32),
                kind,
                guard,
                name: interner.intern(&dname),
            });
        }
        functions.push(Function {
            name,
            id,
            params: raw.params,
            defs,
            ret: raw.ret,
            is_extern: raw.is_extern,
        });
    }
    let call_sites: Vec<CallSite> = call_sites
        .into_iter()
        .enumerate()
        .map(|(i, s)| {
            s.ok_or_else(|| {
                SnapshotError::new(0, format!("call site {i} referenced by no call definition"))
            })
        })
        .collect::<Result<_, _>>()?;
    Ok(Program {
        functions,
        call_sites,
        interner,
    })
}

// ---------------------------------------------------------------------------
// Facts sections
// ---------------------------------------------------------------------------

fn encode_absval(e: &mut Enc, v: &crate::absint::AbsVal) {
    match v.shape {
        RetSummary::Const(c) => {
            e.u8(0);
            e.u32(c);
        }
        RetSummary::Affine { index, mul, add } => {
            e.u8(1);
            e.u32(index as u32);
            e.u32(mul);
            e.u32(add);
        }
        RetSummary::Opaque => e.u8(2),
    }
    e.u32(v.lo);
    e.u32(v.hi);
    e.u32(v.known);
    e.u32(v.value);
}

fn decode_absval(d: &mut Dec<'_>) -> Result<crate::absint::AbsVal, SnapshotError> {
    let shape = match d.u8()? {
        0 => RetSummary::Const(d.u32()?),
        1 => RetSummary::Affine {
            index: d.u32()? as usize,
            mul: d.u32()?,
            add: d.u32()?,
        },
        2 => RetSummary::Opaque,
        t => return Err(d.err(format!("invalid shape tag {t}"))),
    };
    Ok(crate::absint::AbsVal {
        shape,
        lo: d.u32()?,
        hi: d.u32()?,
        known: d.u32()?,
        value: d.u32()?,
    })
}

/// Adds one [`tag::FACTS`] section per function: the per-definition
/// abstract values and the return fact.
pub fn write_facts(w: &mut SnapshotWriter, program: &Program, facts: &ProgramFacts) {
    for f in &program.functions {
        let mut e = Enc::new();
        let vals = facts.function(f.id);
        e.u32(vals.len() as u32);
        for v in vals {
            encode_absval(&mut e, v);
        }
        encode_absval(&mut e, &facts.ret_fact(f.id));
        w.add(tag::FACTS, f.id.0, e.buf);
    }
}

/// Decodes one function's `(per-def values, return fact)` from its
/// [`tag::FACTS`] section.
pub fn read_func_facts(
    snap: &Snapshot,
    index: u32,
) -> Result<(Vec<crate::absint::AbsVal>, crate::absint::AbsVal), SnapshotError> {
    let payload = snap.section(tag::FACTS, index)?;
    let mut d = Dec::new(&payload, snap.offset_of(tag::FACTS, index));
    let n = d.count(17)?;
    let mut vals = Vec::with_capacity(n);
    for _ in 0..n {
        vals.push(decode_absval(&mut d)?);
    }
    let ret = decode_absval(&mut d)?;
    d.done()?;
    Ok((vals, ret))
}

/// Decodes every function's facts into a whole-program [`ProgramFacts`]
/// (the serve `load` path).
pub fn read_facts(snap: &Snapshot, program: &Program) -> Result<ProgramFacts, SnapshotError> {
    let n = program.functions.len();
    let mut funcs = Vec::with_capacity(n);
    let mut rets = Vec::with_capacity(n);
    for i in 0..n {
        let (vals, ret) = read_func_facts(snap, i as u32)?;
        funcs.push(vals);
        rets.push(ret);
    }
    Ok(ProgramFacts::from_parts(n, program.size(), funcs, rets))
}

// ---------------------------------------------------------------------------
// PDG partition sections
// ---------------------------------------------------------------------------

/// Adds one [`tag::PDG`] section per function: the def→uses adjacency
/// partition. A reader can verify or reconstruct a shard's dependence
/// structure without re-deriving it from the bodies.
pub fn write_pdg(w: &mut SnapshotWriter, program: &Program, pdg: &Pdg) {
    for f in &program.functions {
        let mut e = Enc::new();
        e.u32(f.defs.len() as u32);
        for def in &f.defs {
            let uses = pdg.uses(f.id, def.var);
            e.u32(uses.len() as u32);
            for (user, slot) in uses {
                e.u32(user.0);
                e.u32(*slot as u32);
            }
        }
        w.add(tag::PDG, f.id.0, e.buf);
    }
}

/// Decodes one function's PDG partition (`uses[v] = [(user, slot)]`).
pub fn read_func_pdg(
    snap: &Snapshot,
    index: u32,
) -> Result<Vec<Vec<(VarId, usize)>>, SnapshotError> {
    let payload = snap.section(tag::PDG, index)?;
    let mut d = Dec::new(&payload, snap.offset_of(tag::PDG, index));
    let n = d.count(4)?;
    let mut uses = Vec::with_capacity(n);
    for _ in 0..n {
        let m = d.count(8)?;
        let mut row = Vec::with_capacity(m);
        for _ in 0..m {
            let user = VarId(d.u32()?);
            let slot = d.u32()? as usize;
            row.push((user, slot));
        }
        uses.push(row);
    }
    d.done()?;
    Ok(uses)
}

// ---------------------------------------------------------------------------
// Verdict / feasibility sections
// ---------------------------------------------------------------------------

fn feas_code(f: Feasibility) -> u8 {
    match f {
        Feasibility::Feasible => 0,
        Feasibility::Infeasible => 1,
        Feasibility::Unknown => 2,
    }
}

fn feas_from_code(c: u8) -> Option<Feasibility> {
    Some(match c {
        0 => Feasibility::Feasible,
        1 => Feasibility::Infeasible,
        2 => Feasibility::Unknown,
        _ => return None,
    })
}

fn encode_key_map(entries: &[(Key128, Feasibility)]) -> Vec<u8> {
    let mut e = Enc::new();
    let mut entries: Vec<_> = entries.to_vec();
    entries.sort_unstable_by_key(|(k, _)| *k);
    e.u32(entries.len() as u32);
    for (k, v) in entries {
        e.u64(k.lo);
        e.u64(k.hi);
        e.u8(feas_code(v));
    }
    e.buf
}

fn decode_key_map(d: &mut Dec<'_>) -> Result<Vec<(Key128, Feasibility)>, SnapshotError> {
    let n = d.count(17)?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let lo = d.u64()?;
        let hi = d.u64()?;
        let v = feas_from_code(d.u8()?).ok_or_else(|| d.err("invalid feasibility code"))?;
        out.push((Key128::from_parts(lo, hi), v));
    }
    Ok(out)
}

/// Adds the verdict-cache contents as [`tag::VERDICTS`].
pub fn write_verdicts(w: &mut SnapshotWriter, cache: &VerdictCache) {
    w.add(tag::VERDICTS, 0, encode_key_map(&cache.entries()));
}

/// Decodes [`tag::VERDICTS`] into a fresh [`VerdictCache`].
pub fn read_verdicts(snap: &Snapshot) -> Result<VerdictCache, SnapshotError> {
    let payload = snap.section(tag::VERDICTS, 0)?;
    let mut d = Dec::new(&payload, snap.offset_of(tag::VERDICTS, 0));
    let entries = decode_key_map(&mut d)?;
    d.done()?;
    let cache = VerdictCache::new();
    for (k, v) in entries {
        cache.insert(k, v);
    }
    Ok(cache)
}

/// Adds the iso-memo contents as [`tag::ISO`].
pub fn write_iso(w: &mut SnapshotWriter, iso: &IsoVerdicts) {
    w.add(tag::ISO, 0, encode_key_map(&iso.entries()));
}

/// Decodes [`tag::ISO`] into raw entries (re-inserted into a rebuilt
/// [`crate::compact::CompactPdg`]'s memo on load).
pub fn read_iso(snap: &Snapshot) -> Result<Vec<(Key128, Feasibility)>, SnapshotError> {
    let payload = snap.section(tag::ISO, 0)?;
    let mut d = Dec::new(&payload, snap.offset_of(tag::ISO, 0));
    let entries = decode_key_map(&mut d)?;
    d.done()?;
    Ok(entries)
}

/// Adds one provenance index (`key → sorted function span`) under the
/// given tag ([`tag::PROV_VERDICTS`] or [`tag::PROV_ISO`]).
pub fn write_provenance(w: &mut SnapshotWriter, t: u32, prov: &Provenance) {
    let mut entries = prov.entries();
    entries.sort_unstable_by_key(|(k, _)| *k);
    let mut e = Enc::new();
    e.u32(entries.len() as u32);
    for (k, funcs) in entries {
        e.u64(k.lo);
        e.u64(k.hi);
        e.u32(funcs.len() as u32);
        for f in funcs.iter() {
            e.u32(*f);
        }
    }
    w.add(t, 0, e.buf);
}

/// Decodes a provenance index written by [`write_provenance`].
pub fn read_provenance(snap: &Snapshot, t: u32) -> Result<Provenance, SnapshotError> {
    let payload = snap.section(t, 0)?;
    let mut d = Dec::new(&payload, snap.offset_of(t, 0));
    let n = d.count(20)?;
    let prov = Provenance::default();
    for _ in 0..n {
        let lo = d.u64()?;
        let hi = d.u64()?;
        let m = d.count(4)?;
        let mut funcs = Vec::with_capacity(m);
        for _ in 0..m {
            funcs.push(d.u32()?);
        }
        prov.insert_raw(Key128::from_parts(lo, hi), funcs.into_boxed_slice());
    }
    d.done()?;
    Ok(prov)
}

// ---------------------------------------------------------------------------
// Work-item outcome sections
// ---------------------------------------------------------------------------

fn encode_path(e: &mut Enc, path: &DependencePath) {
    e.u32(path.nodes.len() as u32);
    for v in &path.nodes {
        e.u32(v.func.0);
        e.u32(v.var.0);
    }
    e.u32(path.links.len() as u32);
    for l in &path.links {
        match l {
            Link::Local => e.u8(0),
            Link::Enter(s) => {
                e.u8(1);
                e.u32(s.0);
            }
            Link::Exit(s) => {
                e.u8(2);
                e.u32(s.0);
            }
        }
    }
}

fn decode_path(d: &mut Dec<'_>) -> Result<DependencePath, SnapshotError> {
    let nn = d.count(8)?;
    let mut nodes = Vec::with_capacity(nn);
    for _ in 0..nn {
        nodes.push(Vertex {
            func: FuncId(d.u32()?),
            var: VarId(d.u32()?),
        });
    }
    let nl = d.count(1)?;
    let mut links = Vec::with_capacity(nl);
    for _ in 0..nl {
        links.push(match d.u8()? {
            0 => Link::Local,
            1 => Link::Enter(CallSiteId(d.u32()?)),
            2 => Link::Exit(CallSiteId(d.u32()?)),
            t => return Err(d.err(format!("invalid link tag {t}"))),
        });
    }
    if nodes.is_empty() || links.len() + 1 != nodes.len() {
        return Err(d.err(format!(
            "malformed path: {} nodes, {} links",
            nodes.len(),
            links.len()
        )));
    }
    Ok(DependencePath { nodes, links })
}

/// Adds the recorded work-item outcomes as [`tag::OUTCOMES`]. Records
/// are written in sorted `(checker, source)` order so equal outcome sets
/// serialize to identical bytes.
pub fn write_outcomes(w: &mut SnapshotWriter, outcomes: &ItemOutcomes) {
    let mut records: Vec<(&(usize, Vertex), &ItemRecord)> = outcomes.records().collect();
    records.sort_unstable_by_key(|(k, _)| **k);
    let mut e = Enc::new();
    e.u32(records.len() as u32);
    for ((checker, src), rec) in records {
        e.u32(*checker as u32);
        e.u32(src.func.0);
        e.u32(src.var.0);
        e.u64(rec.steps);
        e.u32(rec.verdicts.len() as u32);
        for v in &rec.verdicts {
            match v {
                CandVerdict::Suppressed => e.u8(0),
                CandVerdict::Report(r) => {
                    e.u8(1);
                    e.u32(r.source.func.0);
                    e.u32(r.source.var.0);
                    e.u32(r.sink.func.0);
                    e.u32(r.sink.var.0);
                    e.u8(feas_code(r.verdict));
                    encode_path(&mut e, &r.path);
                }
            }
        }
    }
    w.add(tag::OUTCOMES, 0, e.buf);
}

/// Decodes [`tag::OUTCOMES`] back into an [`ItemOutcomes`].
pub fn read_outcomes(snap: &Snapshot) -> Result<ItemOutcomes, SnapshotError> {
    let payload = snap.section(tag::OUTCOMES, 0)?;
    let mut d = Dec::new(&payload, snap.offset_of(tag::OUTCOMES, 0));
    let n = d.count(24)?;
    let mut outcomes = ItemOutcomes::default();
    for _ in 0..n {
        let checker = d.u32()? as usize;
        let src = Vertex {
            func: FuncId(d.u32()?),
            var: VarId(d.u32()?),
        };
        let steps = d.u64()?;
        let nv = d.count(1)?;
        let mut verdicts = Vec::with_capacity(nv);
        for _ in 0..nv {
            verdicts.push(match d.u8()? {
                0 => CandVerdict::Suppressed,
                1 => {
                    let source = Vertex {
                        func: FuncId(d.u32()?),
                        var: VarId(d.u32()?),
                    };
                    let sink = Vertex {
                        func: FuncId(d.u32()?),
                        var: VarId(d.u32()?),
                    };
                    let verdict =
                        feas_from_code(d.u8()?).ok_or_else(|| d.err("invalid verdict code"))?;
                    let path = decode_path(&mut d)?;
                    CandVerdict::Report(crate::engine::BugReport {
                        source,
                        sink,
                        verdict,
                        path,
                    })
                }
                t => return Err(d.err(format!("invalid verdict tag {t}"))),
            });
        }
        outcomes.insert_record((checker, src), ItemRecord { verdicts, steps });
    }
    d.done()?;
    Ok(outcomes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fusion_ir::{compile, CompileOptions};

    const SRC: &str = "extern fn deref(p);\n\
        fn callee(x) { let b = x & 3; return b; }\n\
        fn caller(a) { let v = callee(a); let q = null; let r = 1; if (v > 0) { r = q; } deref(r); return 0; }";

    fn program() -> Program {
        compile(SRC, CompileOptions::default()).expect("compile")
    }

    fn snapshot_bytes(program: &Program) -> Vec<u8> {
        let mut w = SnapshotWriter::new();
        write_program(&mut w, program);
        let facts = ProgramFacts::compute(program);
        write_facts(&mut w, program, &facts);
        let pdg = Pdg::build(program);
        write_pdg(&mut w, program, &pdg);
        w.finish()
    }

    /// Structural equality witness for programs (Program has no
    /// PartialEq; symbols are compared through their strings).
    fn assert_same_program(a: &Program, b: &Program) {
        assert_eq!(a.functions.len(), b.functions.len());
        assert_eq!(a.call_sites.len(), b.call_sites.len());
        for (fa, fb) in a.functions.iter().zip(&b.functions) {
            assert_eq!(a.name(fa.name), b.name(fb.name));
            assert_eq!(fa.id, fb.id);
            assert_eq!(fa.params, fb.params);
            assert_eq!(fa.ret, fb.ret);
            assert_eq!(fa.is_extern, fb.is_extern);
            assert_eq!(fa.defs.len(), fb.defs.len());
            for (da, db) in fa.defs.iter().zip(&fb.defs) {
                assert_eq!(da.var, db.var);
                assert_eq!(da.kind, db.kind);
                assert_eq!(da.guard, db.guard);
                assert_eq!(a.name(da.name), b.name(db.name));
                assert_eq!(a.def_name(da), b.def_name(db));
            }
        }
        assert_eq!(a.call_sites, b.call_sites);
    }

    #[test]
    fn program_round_trips() {
        let p = program();
        let snap = open_bytes(snapshot_bytes(&p)).expect("open");
        let q = read_program(&snap).expect("read program");
        assert_same_program(&p, &q);
        let errs = fusion_ir::validate::check_program(&q);
        assert!(errs.is_empty(), "round-tripped program validates: {errs:?}");
    }

    #[test]
    fn facts_and_pdg_round_trip() {
        let p = program();
        let snap = open_bytes(snapshot_bytes(&p)).expect("open");
        let facts = ProgramFacts::compute(&p);
        let got = read_facts(&snap, &p).expect("read facts");
        for f in &p.functions {
            assert_eq!(facts.function(f.id), got.function(f.id));
            assert_eq!(facts.ret_fact(f.id), got.ret_fact(f.id));
        }
        let pdg = Pdg::build(&p);
        for f in &p.functions {
            let uses = read_func_pdg(&snap, f.id.0).expect("read pdg");
            assert_eq!(uses.len(), f.defs.len());
            for def in &f.defs {
                assert_eq!(pdg.uses(f.id, def.var), &uses[def.var.index()][..]);
            }
        }
    }

    #[test]
    fn callgraph_section_matches_program() {
        let p = program();
        let snap = open_bytes(snapshot_bytes(&p)).expect("open");
        let info = read_callgraph(&snap).expect("read callgraph");
        let want = CallGraphInfo::of_program(&p);
        assert_eq!(info.is_extern, want.is_extern);
        assert_eq!(info.def_counts, want.def_counts);
        assert_eq!(info.callees, want.callees);
    }

    #[test]
    fn lazy_reads_are_partial() {
        let p = program();
        let bytes = snapshot_bytes(&p);
        let total = bytes.len() as u64;
        let snap = open_bytes(bytes).expect("open");
        let _ = read_callgraph(&snap).expect("callgraph");
        let _ = read_function(&snap, 1).expect("one function");
        assert!(
            snap.bytes_read() < total,
            "lazy reader fetched {} of {} bytes",
            snap.bytes_read(),
            total
        );
    }

    #[test]
    fn bad_magic_is_an_error() {
        let mut bytes = snapshot_bytes(&program());
        bytes[0] = b'X';
        let err = open_bytes(bytes).expect_err("bad magic must fail");
        assert_eq!(err.offset, 0);
        assert!(err.what.contains("magic"), "{err}");
    }

    #[test]
    fn version_skew_is_an_error() {
        let mut bytes = snapshot_bytes(&program());
        bytes[4..8].copy_from_slice(&99u32.to_le_bytes());
        let err = open_bytes(bytes).expect_err("version skew must fail");
        assert_eq!(err.offset, 4);
        assert!(err.what.contains("version 99"), "{err}");
    }

    #[test]
    fn corrupt_payload_fails_checksum() {
        let bytes = snapshot_bytes(&program());
        let mut corrupted = bytes.clone();
        let last = corrupted.len() - 1;
        corrupted[last] ^= 0xFF;
        let snap = open_bytes(corrupted).expect("header still parses");
        // Some section's payload contains the flipped byte; reading every
        // section must surface exactly one checksum error, never a panic.
        let mut failures = 0;
        let (n, _) = read_meta(&snap).map_or((3, 0), |(n, s)| (n, s));
        for i in 0..n as u32 {
            if snap.has(tag::FUNC, i) && snap.section(tag::FUNC, i).is_err() {
                failures += 1;
            }
            if snap.has(tag::FACTS, i) && snap.section(tag::FACTS, i).is_err() {
                failures += 1;
            }
            if snap.has(tag::PDG, i) && snap.section(tag::PDG, i).is_err() {
                failures += 1;
            }
        }
        assert_eq!(failures, 1, "exactly the corrupted section fails");
    }

    #[test]
    fn truncated_file_is_an_error() {
        let bytes = snapshot_bytes(&program());
        for cut in [0usize, 7, 11, 40, bytes.len() / 2] {
            let truncated = bytes[..cut.min(bytes.len())].to_vec();
            match open_bytes(truncated) {
                Err(_) => {}
                Ok(snap) => {
                    // Table may parse when the cut only removed payloads;
                    // then every out-of-range section read must error.
                    assert!(
                        read_program(&snap).is_err(),
                        "cut at {cut} silently decoded"
                    );
                }
            }
        }
    }

    #[test]
    fn file_round_trip() {
        let p = program();
        let dir = std::env::temp_dir().join(format!("fsnp-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("prog.fsnp");
        let mut w = SnapshotWriter::new();
        write_program(&mut w, &p);
        let written = w.write_to(&path).expect("write");
        assert!(written > 0);
        let snap = open_file(&path).expect("open file");
        let q = read_program(&snap).expect("read");
        assert_same_program(&p, &q);
        assert!(snap.bytes_read() <= written);
        std::fs::remove_dir_all(&dir).ok();
    }
}
