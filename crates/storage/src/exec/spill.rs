//! Spill-to-disk materialization points: memory-budgeted counterparts of
//! the executor's unbounded buffers.
//!
//! The chunked executor ([`super::stream`](mod@super::stream)) pipelines most operators,
//! but several places materialize: the hash build sides of keyed joins
//! and anti-joins, `Aggregate`, `Sort`, and `Distinct`'s seen-set.
//! Without a budget those grow with the input and cap the
//! larger-than-memory story. This module supplies the standard fixes,
//! all sharing one framed run-file format:
//!
//! * **grace hash join** — when the build side exceeds its budget, build
//!   *and* probe rows are hash-partitioned into [`SPILL_PARTITIONS`] run
//!   files on the join key; each partition pair then joins independently
//!   (an oversized partition re-partitions with a different hash seed,
//!   up to `MAX_RECURSION` levels). The keyed **anti-join** build side
//!   spills the same way, with the probe phase inverted: a left row is
//!   emitted iff its partition's build table holds no residual-
//!   satisfying match;
//! * **external merge sort** — input rows accumulate up to the budget,
//!   are sorted (stably) into run files, and a k-way merge (fan-in
//!   capped at `MAX_MERGE_FANIN`, multi-pass beyond that) streams the
//!   result back out in chunks. Ties break by run index, so the output
//!   order is **identical** to the in-memory stable sort;
//! * **spilling aggregate** — accumulators are *mergeable* (count sums,
//!   min/max compose), so when the group table exceeds the budget the
//!   partial accumulator rows are hash-partitioned to disk and the table
//!   cleared; partitions merge their partials independently at the end;
//! * **spilling distinct** — first occurrences stream out exactly as in
//!   memory until the seen-set exceeds the budget; then the seen rows
//!   (tagged "already emitted") and all remaining input (tagged "fresh")
//!   are hash-partitioned, and each partition deduplicates independently.
//!
//! ## Budget model
//!
//! A query gets one global [`SpillOptions::budget`] (bytes), split evenly
//! across the plan's materialization points ([`spill_points`]). `None`
//! means unlimited: every operator takes its pre-existing in-memory path
//! **byte for byte** — the spill machinery is not even constructed.
//!
//! ## Run-file format
//!
//! Run files reuse the durability layer's codec ([`crate::persist::format`]):
//! each record is a **block** of rows,
//! `[payload_len: u32 LE][crc32: u32 LE][tag: u8][count: u32 LE][fmt: u8][data…]`,
//! with the CRC covering everything after itself, so a torn or
//! bit-flipped spill file surfaces as [`StorageError::Corrupt`], never
//! as wrong answers. `fmt` selects the block body:
//!
//! * **`0` — row-major**: `count` `put_row` records (the fallback when a
//!   block mixes row arities);
//! * **`1` — columnar**: `[arity: u32]`, then per column a type byte —
//!   `0` NULL (no data), `1` Bool (validity + one byte per cell), `2`
//!   Int (validity + one `i64` per cell), `3` Str (validity + a sorted
//!   dictionary of length-prefixed strings + one `u16 LE` code per
//!   cell; a block holds at most `BLOCK_ROWS` rows, so codes cannot
//!   overflow), `4` Mixed (one `put_value` per cell) — where `validity`
//!   is `[has: u8]` plus, when `has == 1`, `ceil(count / 8)` LSB-first
//!   bitmap bytes (bit set = value present). This is the same column
//!   classification the executor's scan chunks use
//!   ([`crate::column::ColumnSet`]), so typed columns cost 1–8 bytes per
//!   cell instead of a tagged boxed value, and repeated strings are
//!   written once per block.
//!
//! Every writer — sort runs and hash partitioners alike — buffers rows
//! into a per-file block builder that flushes a frame per
//! `BLOCK_ROWS` rows, so the header, CRC, and transpose amortize over
//! the block. Files
//! live in [`SpillOptions::dir`] (the OS temp dir by default) and are
//! deleted when their owner drops — on success, on error, and on early
//! stream abandonment alike.
//!
//! ## Error semantics
//!
//! Materialization points that already consumed their input eagerly
//! (sort, aggregate, the join build side) keep erroring at open time.
//! The spilling paths of the *lazy* operators (the grace join's probe
//! partitioning, distinct's drain phase) must consume upstream before
//! emitting, so upstream errors are surfaced in encounter order but
//! ahead of the delayed rows; the multiset of rows and the sequence of
//! errors match the in-memory executor (the `exec_spill` differential
//! suite pins this), only the interleaving may differ once spilling has
//! actually engaged.

use super::{fresh_accs, merge_accs, update_accs, Acc};
use crate::column::{Bitmap, Column, ColumnSet};
use crate::error::{Result, StorageError};
use crate::expr::Expr;
use crate::obs::metrics::{metrics, Metric};
use crate::obs::profile::{bump, raise, ProfNode};
use crate::persist::format::{crc32, Dec, Enc};
use crate::plan::{Agg, Plan, SortKey};
use crate::row::Row;
use crate::value::Value;
use std::collections::{HashMap, HashSet, VecDeque};
use std::fs::File;
use std::io::{BufReader, BufWriter, Read, Write};
use std::path::{Path, PathBuf};
use std::rc::Rc;

/// The profiling handle spill machinery threads alongside run files:
/// the operator's [`ProfNode`] when `EXPLAIN ANALYZE` is on, `None`
/// otherwise (every hook is then a single branch).
pub(crate) type SpillProf = Option<Rc<ProfNode>>;

/// Fan-out of one partitioning pass (join, aggregate, and distinct
/// spills). 16 partitions cut an over-budget input to 1/16 per pass;
/// two levels cover a 256× overshoot.
pub const SPILL_PARTITIONS: usize = 16;

/// Maximum re-partitioning depth before an oversized partition is
/// processed in memory anyway (heavy key skew — e.g. every row sharing
/// one join key — cannot be split by hashing, only detected).
const MAX_RECURSION: u32 = 4;

/// Partitions at or below this many rows are always processed in
/// memory: re-partitioning a handful of rows cannot pay for its file
/// traffic, and under a degenerate budget (0 bytes) it would recurse to
/// `MAX_RECURSION` on every partition. This floors the effective
/// working set at a few dozen rows per point, not at zero.
const MIN_PARTITION_ROWS: u64 = 64;

/// Rows per block record: every writer (sort runs and hash
/// partitioners alike) buffers rows into the current block and flushes
/// a frame once it holds this many — amortizing the frame header, CRC,
/// and encode-buffer fill — while keeping one decoded block per merge
/// input small.
const BLOCK_ROWS: usize = 128;

/// Soft payload cap forcing an early block flush for very wide rows.
const SOFT_BLOCK_PAYLOAD: usize = 1 << 20;

/// Maximum runs merged in one pass of the external sort; more runs
/// first merge in groups of this size (multi-pass). This bounds merge
/// memory at `fan-in x (decoded block + file buffers)` — a constant —
/// no matter how many runs a large input produced.
const MAX_MERGE_FANIN: usize = 16;

/// Upper bound on one spill-block payload; a corrupt length field must
/// surface as [`StorageError::Corrupt`], not a giant allocation (same
/// defense as the WAL's frame limit). Writers stay far below this:
/// writers flush at `BLOCK_ROWS` rows or [`SOFT_BLOCK_PAYLOAD`]
/// bytes, whichever comes first.
const MAX_BLOCK_PAYLOAD: usize = 1 << 26;

/// Block-body format byte: `count` plain `put_row` records (the
/// fallback when a block mixes row arities).
const FMT_ROWS: u8 = 0;

/// Block-body format byte: the columnar transpose (see the module doc).
const FMT_COLUMNAR: u8 = 1;

/// Approximate per-entry bookkeeping overhead of a hash table slot
/// (hashbrown control bytes + bucket + Vec headers), used by the budget
/// accounting so tiny rows do not undercount wildly.
const HASH_ENTRY_OVERHEAD: usize = 48;

// ---------------------------------------------------------------------------
// Options and per-query context
// ---------------------------------------------------------------------------

/// How a query may spill: the global memory budget and where run files
/// go. `budget: None` (the default) disables spilling entirely.
#[derive(Debug, Clone, Default)]
pub struct SpillOptions {
    /// Total bytes the query's materialization points may hold in
    /// memory, split evenly across them. `None` = unlimited.
    pub budget: Option<usize>,
    /// Directory for run files; `None` = `std::env::temp_dir()`.
    pub dir: Option<PathBuf>,
}

impl SpillOptions {
    /// Unlimited memory — the executor behaves exactly as before.
    pub fn unlimited() -> SpillOptions {
        SpillOptions::default()
    }

    /// A budget of `bytes`, run files in the OS temp dir.
    pub fn with_budget(bytes: usize) -> SpillOptions {
        SpillOptions {
            budget: Some(bytes),
            dir: None,
        }
    }

    /// Override the run-file directory (tests assert cleanup there).
    pub fn in_dir(mut self, dir: impl Into<PathBuf>) -> SpillOptions {
        self.dir = Some(dir.into());
        self
    }
}

/// The per-query spill context threaded through plan compilation: the
/// per-materialization-point share of the global budget, and the run
/// directory.
#[derive(Debug, Clone)]
pub(crate) struct SpillCtx {
    pub(crate) per_point: Option<usize>,
    pub(crate) dir: PathBuf,
}

impl SpillCtx {
    /// Split `opts` across the materialization points of `plan`.
    pub(crate) fn for_plan(opts: &SpillOptions, plan: &Plan) -> SpillCtx {
        let points = spill_points(plan).max(1);
        SpillCtx {
            per_point: opts.budget.map(|b| b / points),
            dir: opts.dir.clone().unwrap_or_else(std::env::temp_dir),
        }
    }
}

/// Number of memory-budgeted materialization points in a plan: every
/// `Sort`, `Aggregate`, `Distinct`, and `Join` (the hash build side of
/// a keyed join, the materialized right side of a cross join), plus
/// every `AntiJoin` (the hash build side when keyed, the collected
/// right side when residual-only). The global budget is divided by
/// this count.
pub fn spill_points(plan: &Plan) -> usize {
    let own = match plan {
        Plan::Sort { .. }
        | Plan::Aggregate { .. }
        | Plan::Distinct { .. }
        | Plan::Join { .. }
        | Plan::AntiJoin { .. } => 1,
        _ => 0,
    };
    own + plan.children().into_iter().map(spill_points).sum::<usize>()
}

/// Approximate in-memory footprint of a row: the `Row` header, one
/// `Value` slot per column, and string payloads. Used for budget
/// accounting only — it does not have to be exact, just monotone in the
/// real footprint.
pub(crate) fn row_bytes(row: &Row) -> usize {
    std::mem::size_of::<Row>()
        + row
            .values()
            .iter()
            .map(|v| {
                std::mem::size_of::<Value>()
                    + match v {
                        Value::Str(s) => s.len(),
                        _ => 0,
                    }
            })
            .sum::<usize>()
}

/// Deterministic hash of a value sequence at a re-partitioning level.
/// Levels shuffle differently, so an oversized partition does not
/// re-partition into a single identical sub-partition.
fn hash_values<'v>(vals: impl Iterator<Item = &'v Value>, level: u32) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = std::collections::hash_map::DefaultHasher::new();
    (0x9E37_79B9_7F4A_7C15u64 ^ (level as u64).rotate_left(17)).hash(&mut h);
    for v in vals {
        v.hash(&mut h);
    }
    h.finish()
}

fn partition_of<'v>(vals: impl Iterator<Item = &'v Value>, level: u32) -> usize {
    (hash_values(vals, level) % SPILL_PARTITIONS as u64) as usize
}

// ---------------------------------------------------------------------------
// Run files
// ---------------------------------------------------------------------------

/// A self-deleting spill file of tagged, CRC-framed rows. The file is
/// removed when the `RunFile` drops — success, error, and abandonment
/// paths all clean up.
pub(crate) struct RunFile {
    path: PathBuf,
    /// Opened lazily on the first block flush, so empty partitions never
    /// touch the filesystem at all.
    writer: Option<BufWriter<File>>,
    rows: u64,
    /// Approximate in-memory bytes of the rows written (not file bytes):
    /// the number the budget compares against when deciding to recurse.
    mem_bytes: usize,
    /// Reused encode buffer for block frames.
    enc: Enc,
    /// The block under construction: rows buffer here and are transposed
    /// into the columnar block encoding when a frame is emitted — once
    /// `BLOCK_ROWS` rows (or the soft payload cap) is reached. One
    /// header + CRC + transpose per block, not per row.
    block: Vec<Row>,
    /// Approximate in-memory bytes of the buffered block (soft-cap
    /// check).
    block_bytes: usize,
    block_tag: u8,
    /// The owning operator's profile node (`None` = profiling off):
    /// bytes written and file creations are charged to it.
    prof: SpillProf,
}

impl RunFile {
    pub(crate) fn create(dir: &Path, prof: SpillProf) -> Result<RunFile> {
        use std::sync::atomic::{AtomicU64, Ordering};
        static N: AtomicU64 = AtomicU64::new(0);
        let path = dir.join(format!(
            "beliefdb-spill-{}-{}.run",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ));
        Ok(RunFile {
            path,
            writer: None,
            rows: 0,
            mem_bytes: 0,
            enc: Enc::new(),
            block: Vec::new(),
            block_bytes: 0,
            block_tag: 0,
            prof,
        })
    }

    /// Append one row to the current block, flushing a frame when the
    /// block fills. A tag change flushes too, so every frame carries a
    /// single tag.
    pub(crate) fn write(&mut self, tag: u8, row: &Row) -> Result<()> {
        if !self.block.is_empty() && tag != self.block_tag {
            self.flush_block()?;
        }
        self.block_tag = tag;
        let rb = row_bytes(row);
        self.block.push(row.clone());
        self.block_bytes += rb;
        self.rows += 1;
        self.mem_bytes += rb;
        if let Some(n) = &self.prof {
            bump(&n.spill_bytes, rb as u64);
        }
        if self.block.len() >= BLOCK_ROWS || self.block_bytes >= SOFT_BLOCK_PAYLOAD {
            self.flush_block()?;
        }
        Ok(())
    }

    /// Transpose and emit the block under construction as one framed
    /// record (see the module doc's run-file format).
    fn flush_block(&mut self) -> Result<()> {
        if self.block.is_empty() {
            return Ok(());
        }
        self.enc.clear();
        self.enc.put_u8(self.block_tag);
        self.enc.put_u32(self.block.len() as u32);
        encode_block(&mut self.enc, &self.block);
        self.block.clear();
        self.block_bytes = 0;
        if self.enc.bytes().len() > MAX_BLOCK_PAYLOAD {
            // Mirrors the reader-side cap: a block the reader would
            // reject must not be written in the first place (reachable
            // only via a single >64 MiB row).
            return Err(StorageError::Io(format!(
                "spill block of {} bytes exceeds the {MAX_BLOCK_PAYLOAD}-byte frame limit",
                self.enc.bytes().len()
            )));
        }
        if self.writer.is_none() {
            let file = File::create(&self.path).map_err(|e| {
                StorageError::Io(format!("create spill file {}: {e}", self.path.display()))
            })?;
            self.writer = Some(BufWriter::new(file));
            // Count run files when they materialize on disk (lazily
            // created partitions that stay empty never count).
            metrics().incr(Metric::SpillRunFiles);
            if let Some(n) = &self.prof {
                bump(&n.spill_partitions, 1);
            }
        }
        let payload = self.enc.bytes();
        let w = self.writer.as_mut().expect("opened above");
        w.write_all(&(payload.len() as u32).to_le_bytes())?;
        w.write_all(&crc32(payload).to_le_bytes())?;
        w.write_all(payload)?;
        // Global spill accounting: payload plus the 8-byte len+crc frame.
        metrics().add(Metric::SpillBytes, payload.len() as u64 + 8);
        Ok(())
    }

    /// Should this partition be split further instead of processed in
    /// memory? Only when it is over budget, non-trivial in size, and the
    /// recursion limit has room.
    fn should_recurse(&self, budget: usize, level: u32) -> bool {
        self.mem_bytes > budget && self.rows > MIN_PARTITION_ROWS && level < MAX_RECURSION
    }

    pub(crate) fn rows(&self) -> u64 {
        self.rows
    }

    /// Flush and drop the write buffer: call when a file is done being
    /// written but will sit in a work queue before being read. Queued
    /// partitions would otherwise each pin a `BufWriter` buffer, making
    /// the drain phase O(partitions), not O(budget).
    pub(crate) fn seal(&mut self) -> Result<()> {
        self.flush_block()?;
        self.release_write_buffers();
        if let Some(mut w) = self.writer.take() {
            w.flush()?;
        }
        Ok(())
    }

    /// Drop the block and encode buffer capacity once writing is done.
    /// Queued partitions each retain a full block's worth of row clones
    /// and encode bytes otherwise, and recursion stacks whole partition
    /// sets — the retained capacity would scale with depth, not budget.
    fn release_write_buffers(&mut self) {
        self.block = Vec::new();
        self.block_bytes = 0;
        self.enc = Enc::new();
    }

    /// Flush writes and open the file for reading; the `RunFile` must be
    /// kept alive while the reader is used (it owns the deletion).
    pub(crate) fn reader(&mut self) -> Result<RunReader> {
        self.flush_block()?;
        self.release_write_buffers();
        if let Some(mut w) = self.writer.take() {
            w.flush()?;
        }
        if self.rows == 0 {
            // Never written: there is no file to open.
            return Ok(RunReader {
                inner: None,
                remaining: 0,
                scratch: Vec::new(),
                block: VecDeque::new(),
                block_tag: 0,
            });
        }
        let file = File::open(&self.path).map_err(|e| {
            StorageError::Io(format!("open spill file {}: {e}", self.path.display()))
        })?;
        Ok(RunReader {
            inner: Some(BufReader::new(file)),
            remaining: self.rows,
            scratch: Vec::new(),
            block: VecDeque::new(),
            block_tag: 0,
        })
    }
}

impl Drop for RunFile {
    fn drop(&mut self) {
        if self.writer.take().is_some() || self.rows > 0 {
            let _ = std::fs::remove_file(&self.path);
        }
    }
}

/// Encode a block body: the columnar transpose when every row shares
/// one arity (the normal case), plain rows otherwise. `rows` is
/// non-empty and holds at most `BLOCK_ROWS` rows — which also caps a
/// string dictionary at `BLOCK_ROWS` entries, so the `u16` code
/// encoding cannot overflow.
fn encode_block(enc: &mut Enc, rows: &[Row]) {
    let arity = rows[0].arity();
    if rows.iter().any(|r| r.arity() != arity) {
        enc.put_u8(FMT_ROWS);
        for r in rows {
            enc.put_row(r);
        }
        return;
    }
    enc.put_u8(FMT_COLUMNAR);
    enc.put_u32(arity as u32);
    let refs: Vec<&Row> = rows.iter().collect();
    let set = ColumnSet::from_rows(arity, &refs);
    let put_validity = |enc: &mut Enc, validity: &Option<Bitmap>| match validity {
        None => enc.put_u8(0),
        Some(b) => {
            enc.put_u8(1);
            for byte in b.to_bytes() {
                enc.put_u8(byte);
            }
        }
    };
    for c in 0..arity {
        match set.col(c) {
            Column::Null(_) => enc.put_u8(0),
            Column::Bool { vals, validity } => {
                enc.put_u8(1);
                put_validity(enc, validity);
                for &b in vals {
                    enc.put_u8(b as u8);
                }
            }
            Column::Int { vals, validity } => {
                enc.put_u8(2);
                put_validity(enc, validity);
                for &x in vals {
                    enc.put_i64(x);
                }
            }
            Column::Str {
                dict,
                codes,
                validity,
            } => {
                debug_assert!(dict.len() <= u16::MAX as usize, "BLOCK_ROWS caps the dict");
                enc.put_u8(3);
                put_validity(enc, validity);
                enc.put_u32(dict.len() as u32);
                for s in dict {
                    enc.put_str(s);
                }
                for &code in codes {
                    let code = code as u16;
                    enc.put_u8((code & 0xFF) as u8);
                    enc.put_u8((code >> 8) as u8);
                }
            }
            Column::Mixed(vals) => {
                enc.put_u8(4);
                for v in vals {
                    enc.put_value(v);
                }
            }
        }
    }
}

/// Decode one column of a columnar block body into boxed cell values.
fn take_column(dec: &mut Dec, count: usize) -> Result<Vec<Value>> {
    let take_validity = |dec: &mut Dec| -> Result<Option<Bitmap>> {
        if dec.take_u8()? == 0 {
            return Ok(None);
        }
        let nbytes = count.div_ceil(8);
        let mut bytes = Vec::with_capacity(nbytes);
        for _ in 0..nbytes {
            bytes.push(dec.take_u8()?);
        }
        Ok(Some(Bitmap::from_bytes(&bytes, count)))
    };
    let valid = |v: &Option<Bitmap>, i: usize| v.as_ref().is_none_or(|b| b.get(i));
    Ok(match dec.take_u8()? {
        0 => vec![Value::Null; count],
        1 => {
            let validity = take_validity(dec)?;
            let mut vals = Vec::with_capacity(count);
            for i in 0..count {
                let b = dec.take_u8()? != 0;
                vals.push(if valid(&validity, i) {
                    Value::Bool(b)
                } else {
                    Value::Null
                });
            }
            vals
        }
        2 => {
            let validity = take_validity(dec)?;
            let mut vals = Vec::with_capacity(count);
            for i in 0..count {
                let x = dec.take_i64()?;
                vals.push(if valid(&validity, i) {
                    Value::Int(x)
                } else {
                    Value::Null
                });
            }
            vals
        }
        3 => {
            let validity = take_validity(dec)?;
            let dict_len = dec.take_u32()? as usize;
            if dict_len > count {
                return Err(StorageError::Corrupt(format!(
                    "spill block dictionary of {dict_len} entries for {count} rows"
                )));
            }
            let mut dict: Vec<Value> = Vec::with_capacity(dict_len);
            for _ in 0..dict_len {
                dict.push(Value::str(dec.take_str()?));
            }
            let mut vals = Vec::with_capacity(count);
            for i in 0..count {
                let lo = dec.take_u8()? as usize;
                let hi = dec.take_u8()? as usize;
                let code = hi << 8 | lo;
                if !valid(&validity, i) {
                    vals.push(Value::Null);
                    continue;
                }
                let Some(v) = dict.get(code) else {
                    return Err(StorageError::Corrupt(format!(
                        "spill block string code {code} out of dictionary range {dict_len}"
                    )));
                };
                vals.push(v.clone());
            }
            vals
        }
        4 => {
            let mut vals = Vec::with_capacity(count);
            for _ in 0..count {
                vals.push(dec.take_value()?);
            }
            vals
        }
        t => {
            return Err(StorageError::Corrupt(format!(
                "unknown spill column type {t}"
            )))
        }
    })
}

/// Streaming reader over a run file's records.
pub(crate) struct RunReader {
    inner: Option<BufReader<File>>,
    /// Rows (not blocks) left to hand out.
    remaining: u64,
    /// Reused payload buffer.
    scratch: Vec<u8>,
    /// Decoded rows of the current block, handed out front to back.
    block: VecDeque<Row>,
    block_tag: u8,
}

impl RunReader {
    /// Next `(tag, row)` record, `None` at end of run.
    pub(crate) fn next(&mut self) -> Result<Option<(u8, Row)>> {
        if let Some(row) = self.block.pop_front() {
            self.remaining -= 1;
            return Ok(Some((self.block_tag, row)));
        }
        if self.remaining == 0 {
            return Ok(None);
        }
        let inner = self.inner.as_mut().expect("rows > 0 implies a file");
        let mut header = [0u8; 8];
        inner
            .read_exact(&mut header)
            .map_err(|e| StorageError::Corrupt(format!("truncated spill record: {e}")))?;
        let len = u32::from_le_bytes(header[0..4].try_into().expect("4")) as usize;
        if len > MAX_BLOCK_PAYLOAD {
            return Err(StorageError::Corrupt(format!(
                "spill block length {len} exceeds the {MAX_BLOCK_PAYLOAD}-byte limit"
            )));
        }
        let crc = u32::from_le_bytes(header[4..8].try_into().expect("4"));
        self.scratch.clear();
        self.scratch.resize(len, 0);
        inner
            .read_exact(&mut self.scratch)
            .map_err(|e| StorageError::Corrupt(format!("truncated spill record: {e}")))?;
        if crc32(&self.scratch) != crc {
            return Err(StorageError::Corrupt(
                "spill record checksum mismatch".into(),
            ));
        }
        let mut dec = Dec::new(&self.scratch);
        let tag = dec.take_u8()?;
        let count = dec.take_u32()? as usize;
        if count == 0 || count as u64 > self.remaining {
            return Err(StorageError::Corrupt(format!(
                "spill block of {count} rows with {} remaining",
                self.remaining
            )));
        }
        let mut rows = VecDeque::with_capacity(count);
        match dec.take_u8()? {
            FMT_ROWS => {
                for _ in 0..count {
                    rows.push_back(dec.take_row()?);
                }
            }
            FMT_COLUMNAR => {
                let arity = dec.take_u32()? as usize;
                if arity > dec.remaining() {
                    // Each column costs at least its type byte; reject
                    // absurd arities before allocating.
                    return Err(StorageError::Corrupt(format!(
                        "spill block arity {arity} exceeds remaining {} bytes",
                        dec.remaining()
                    )));
                }
                let mut cols = Vec::with_capacity(arity);
                for _ in 0..arity {
                    cols.push(take_column(&mut dec, count)?.into_iter());
                }
                for _ in 0..count {
                    rows.push_back(Row::new(
                        cols.iter_mut()
                            .map(|c| c.next().expect("count cells per column")),
                    ));
                }
            }
            f => {
                return Err(StorageError::Corrupt(format!(
                    "unknown spill block format {f}"
                )))
            }
        }
        dec.finish()?;
        self.block = rows;
        self.block_tag = tag;
        let row = self.block.pop_front().expect("count >= 1");
        self.remaining -= 1;
        Ok(Some((tag, row)))
    }
}

/// A fresh set of [`SPILL_PARTITIONS`] run files.
fn new_partitions(dir: &Path, prof: &SpillProf) -> Result<Vec<RunFile>> {
    (0..SPILL_PARTITIONS)
        .map(|_| RunFile::create(dir, prof.clone()))
        .collect()
}

// ---------------------------------------------------------------------------
// External merge sort
// ---------------------------------------------------------------------------

/// The sort comparator shared with the in-memory `Plan::Sort` path.
pub(crate) fn cmp_by(by: &[SortKey], a: &Row, b: &Row) -> std::cmp::Ordering {
    for k in by {
        let ord = a[k.col].cmp(&b[k.col]);
        if ord != std::cmp::Ordering::Equal {
            return if k.desc { ord.reverse() } else { ord };
        }
    }
    std::cmp::Ordering::Equal
}

/// Sort `input` by `by`, spilling sorted runs past `budget` bytes and
/// k-way merging them back. With zero runs spilled the result is the
/// plain in-memory stable sort; with runs, stability is preserved by
/// breaking ties toward the earlier run, so the output order is
/// identical either way.
pub(crate) fn external_sort<'a>(
    input: impl Iterator<Item = Result<super::Chunk>> + 'a,
    by: &'a [SortKey],
    budget: usize,
    dir: &Path,
    batch: usize,
    prof: SpillProf,
) -> Result<Box<dyn Iterator<Item = Result<super::Chunk>> + 'a>> {
    let mut buf: Vec<Row> = Vec::new();
    let mut buf_bytes = 0usize;
    let mut runs: Vec<RunFile> = Vec::new();
    for chunk in input {
        let before = buf.len();
        chunk?.drain_into(&mut buf);
        buf_bytes += buf[before..].iter().map(row_bytes).sum::<usize>();
        if let Some(n) = &prof {
            raise(&n.peak_bytes, buf_bytes as u64);
        }
        if buf_bytes > budget && !buf.is_empty() {
            buf.sort_by(|a, b| cmp_by(by, a, b));
            let mut run = RunFile::create(dir, prof.clone())?;
            for row in &buf {
                run.write(0, row)?;
            }
            buf.clear();
            run.seal()?;
            runs.push(run);
            buf_bytes = 0;
        }
    }
    buf.sort_by(|a, b| cmp_by(by, a, b));
    if runs.is_empty() {
        // Everything fit: exactly the in-memory path.
        return Ok(super::chunked_owned(buf, batch));
    }
    if !buf.is_empty() {
        let mut run = RunFile::create(dir, prof.clone())?;
        for row in &buf {
            run.write(0, row)?;
        }
        buf.clear();
        run.seal()?;
        runs.push(run);
    }
    // Multi-pass merge down to a final-mergeable set of runs: each pass
    // merges *disjoint* groups of up to MAX_MERGE_FANIN runs, in order,
    // into a new generation — total I/O is O(input · log₁₆ runs), and
    // because groups are disjoint and kept in order, run order still
    // equals input order, so the tie-break toward the earlier run keeps
    // the overall sort stable.
    while runs.len() > MAX_MERGE_FANIN {
        if let Some(n) = &prof {
            bump(&n.spill_passes, 1);
        }
        let mut next: Vec<RunFile> = Vec::with_capacity(runs.len().div_ceil(MAX_MERGE_FANIN));
        while !runs.is_empty() {
            let take = MAX_MERGE_FANIN.min(runs.len());
            let mut group: Vec<RunFile> = runs.drain(..take).collect();
            if group.len() == 1 {
                next.push(group.pop().expect("one run"));
                continue;
            }
            let mut merged = RunFile::create(dir, prof.clone())?;
            let mut merge = MergeState::open(group, by.to_vec())?;
            while let Some(row) = merge.next_row()? {
                merged.write(0, &row)?;
            }
            merged.seal()?;
            next.push(merged);
        }
        runs = next;
    }
    let mut merge = MergeState::open(runs, by.to_vec())?;
    let mut done = false;
    Ok(Box::new(std::iter::from_fn(move || {
        if done {
            return None;
        }
        let mut out: Vec<Row> = Vec::with_capacity(batch);
        loop {
            match merge.next_row() {
                Err(e) => {
                    done = true;
                    return Some(Err(e));
                }
                Ok(Some(row)) => {
                    out.push(row);
                    if out.len() >= batch {
                        return Some(Ok(super::Chunk::new(out)));
                    }
                }
                Ok(None) => {
                    done = true;
                    if out.is_empty() {
                        return None;
                    }
                    return Some(Ok(super::Chunk::new(out)));
                }
            }
        }
    })))
}

/// K-way merge over sorted runs: one head row per run, minimum picked
/// by the sort key with ties toward the earlier run (stability).
struct MergeState {
    /// Keeps the run files alive (and their deletion armed).
    _runs: Vec<RunFile>,
    readers: Vec<RunReader>,
    heads: Vec<Option<Row>>,
    by: Vec<SortKey>,
}

impl MergeState {
    fn open(mut runs: Vec<RunFile>, by: Vec<SortKey>) -> Result<MergeState> {
        let mut readers = Vec::with_capacity(runs.len());
        for run in &mut runs {
            readers.push(run.reader()?);
        }
        let mut heads = Vec::with_capacity(readers.len());
        for r in &mut readers {
            heads.push(r.next()?.map(|(_, row)| row));
        }
        Ok(MergeState {
            _runs: runs,
            readers,
            heads,
            by,
        })
    }

    fn next_row(&mut self) -> Result<Option<Row>> {
        let mut best: Option<usize> = None;
        for (i, head) in self.heads.iter().enumerate() {
            let Some(row) = head else { continue };
            match best {
                None => best = Some(i),
                Some(b) => {
                    if cmp_by(
                        &self.by,
                        row,
                        self.heads[b].as_ref().expect("best head present"),
                    ) == std::cmp::Ordering::Less
                    {
                        best = Some(i);
                    }
                }
            }
        }
        let Some(i) = best else { return Ok(None) };
        let next = self.readers[i].next()?.map(|(_, row)| row);
        Ok(std::mem::replace(&mut self.heads[i], next))
    }
}

// ---------------------------------------------------------------------------
// Spilling aggregate
// ---------------------------------------------------------------------------

/// Encode one group's partial accumulators as a row `key ++ acc-values`
/// (count as `Int`, min/max as the value or `Null` for "none yet" — the
/// encodings compose under [`merge_accs`], see `super::Acc`).
fn partial_row(key: &[Value], accs: &[Acc]) -> Row {
    let mut vals: Vec<Value> = key.to_vec();
    for acc in accs {
        vals.push(match acc {
            Acc::Count(n) => Value::Int(*n),
            Acc::Max(m) | Acc::Min(m) => m.clone().unwrap_or(Value::Null),
        });
    }
    Row::new(vals)
}

/// Decode a partial row written by [`partial_row`].
fn partial_accs(aggs: &[Agg], row: &Row, key_len: usize) -> Result<Vec<Acc>> {
    let mut out = Vec::with_capacity(aggs.len());
    for (i, agg) in aggs.iter().enumerate() {
        let v = &row[key_len + i];
        out.push(match agg {
            Agg::Count => match v {
                Value::Int(n) => Acc::Count(*n),
                _ => {
                    return Err(StorageError::Corrupt(
                        "spilled aggregate partial: count is not an int".into(),
                    ))
                }
            },
            Agg::Max(_) => Acc::Max(Some(v.clone())),
            Agg::Min(_) => Acc::Min(Some(v.clone())),
        });
    }
    Ok(out)
}

/// Approximate footprint of one group-table entry.
fn group_bytes(key: &[Value], aggs_len: usize) -> usize {
    HASH_ENTRY_OVERHEAD
        + key
            .iter()
            .map(|v| {
                std::mem::size_of::<Value>()
                    + match v {
                        Value::Str(s) => s.len(),
                        _ => 0,
                    }
            })
            .sum::<usize>()
        + aggs_len * std::mem::size_of::<Value>()
}

/// Hash aggregation with grace-style partial spilling: when the group
/// table exceeds `budget`, the partial accumulator rows are partitioned
/// to disk and the table cleared; partitions then merge independently
/// (recursing on oversized partitions with a deeper hash level).
///
/// The input is consumed here, so input errors surface at open time —
/// exactly like the in-memory aggregate. Output rows are sorted within
/// the in-memory case (identical to `aggregate_stream`) and within each
/// partition otherwise (same multiset, deterministic order).
pub(crate) fn grace_aggregate<'a>(
    input: impl Iterator<Item = Result<super::Chunk>> + 'a,
    group_by: &'a [usize],
    aggs: &'a [Agg],
    budget: usize,
    dir: &Path,
    batch: usize,
    prof: SpillProf,
) -> Result<Box<dyn Iterator<Item = Result<super::Chunk>> + 'a>> {
    let mut groups: HashMap<Box<[Value]>, Vec<Acc>> = HashMap::new();
    let mut bytes = 0usize;
    let mut partitions: Option<Vec<RunFile>> = None;
    if group_by.is_empty() {
        bytes += group_bytes(&[], aggs.len());
        groups.insert(Box::from([]), fresh_accs(aggs));
    }
    let mut scratch: Vec<Row> = Vec::new();
    for chunk in input {
        let chunk = chunk?;
        if chunk.is_empty() {
            chunk.recycle();
            continue;
        }
        chunk.drain_into(&mut scratch);
        for row in scratch.drain(..) {
            let key: Box<[Value]> = group_by.iter().map(|&c| row[c].clone()).collect();
            let key_bytes = group_bytes(&key, aggs.len());
            match groups.entry(key) {
                std::collections::hash_map::Entry::Occupied(mut e) => {
                    update_accs(e.get_mut(), aggs, &row)?
                }
                std::collections::hash_map::Entry::Vacant(e) => {
                    bytes += key_bytes;
                    update_accs(e.insert(fresh_accs(aggs)), aggs, &row)?
                }
            }
        }
        // Flush the group table past the budget (the footprint estimate
        // counts keys and accumulator slots, not transient string
        // growth inside min/max — approximate but monotone).
        if let Some(n) = &prof {
            raise(&n.peak_bytes, bytes as u64);
        }
        if bytes > budget && !groups.is_empty() {
            let parts = match &mut partitions {
                Some(p) => p,
                None => partitions.insert(new_partitions(dir, &prof)?),
            };
            for (key, accs) in groups.drain() {
                let p = partition_of(key.iter(), 0);
                parts[p].write(0, &partial_row(&key, &accs))?;
            }
            bytes = 0;
        }
    }
    let Some(mut parts) = partitions else {
        // Everything fit: identical to the in-memory aggregate
        // (including the sorted output order).
        let mut out: Vec<Row> = groups
            .into_iter()
            .map(|(k, accs)| partial_row(&k, &accs))
            .collect();
        out.sort();
        return Ok(super::chunked_owned(out, batch));
    };
    // Flush the remainder, then merge partition by partition, lazily.
    for (key, accs) in groups.drain() {
        let p = partition_of(key.iter(), 0);
        parts[p].write(0, &partial_row(&key, &accs))?;
    }
    let key_len = group_by.len();
    for f in &mut parts {
        f.seal()?;
    }
    let mut tasks: VecDeque<(RunFile, u32)> = parts.drain(..).map(|f| (f, 1)).collect();
    let mut ready: VecDeque<Row> = VecDeque::new();
    let mut failed = false;
    let dir = dir.to_path_buf();
    Ok(Box::new(std::iter::from_fn(move || loop {
        if failed {
            return None;
        }
        if !ready.is_empty() {
            let take = ready.len().min(batch);
            let rows: Vec<Row> = ready.drain(..take).collect();
            return Some(Ok(super::Chunk::new(rows)));
        }
        let (mut file, level) = tasks.pop_front()?;
        let result = (|| -> Result<()> {
            if file.should_recurse(budget, level) {
                // Oversized partition: re-partition at a deeper level.
                if let Some(n) = &prof {
                    bump(&n.spill_passes, 1);
                }
                let mut sub = new_partitions(&dir, &prof)?;
                let mut reader = file.reader()?;
                while let Some((_, row)) = reader.next()? {
                    let p = partition_of(row.values()[..key_len].iter(), level);
                    sub[p].write(0, &row)?;
                }
                for mut f in sub {
                    if f.rows() > 0 {
                        f.seal()?;
                        tasks.push_back((f, level + 1));
                    }
                }
                return Ok(());
            }
            let mut merged: HashMap<Box<[Value]>, Vec<Acc>> = HashMap::new();
            let mut reader = file.reader()?;
            while let Some((_, row)) = reader.next()? {
                let key: Box<[Value]> = row.values()[..key_len].to_vec().into();
                let accs = partial_accs(aggs, &row, key_len)?;
                match merged.entry(key) {
                    std::collections::hash_map::Entry::Occupied(mut e) => {
                        merge_accs(e.get_mut(), &accs)
                    }
                    std::collections::hash_map::Entry::Vacant(e) => {
                        e.insert(accs);
                    }
                }
            }
            let mut rows: Vec<Row> = merged
                .into_iter()
                .map(|(k, accs)| partial_row(&k, &accs))
                .collect();
            rows.sort();
            ready.extend(rows);
            Ok(())
        })();
        if let Err(e) = result {
            failed = true;
            return Some(Err(e));
        }
    })))
}

// ---------------------------------------------------------------------------
// Spilling distinct
// ---------------------------------------------------------------------------

/// Record tags in a distinct partition file.
const TAG_EMITTED: u8 = 0;
const TAG_FRESH: u8 = 1;

/// Hybrid streaming/spilling distinct.
///
/// Streams first occurrences exactly like the in-memory operator while
/// the seen-set fits `budget`. Once exceeded, the seen rows are
/// partitioned to disk tagged [`TAG_EMITTED`], all remaining input is
/// partitioned tagged [`TAG_FRESH`], and each partition then emits its
/// fresh-and-unseen rows (oversized partitions recurse). Rows emitted
/// before the switch keep their order; spilled rows arrive partition by
/// partition in input order — the multiset matches the in-memory
/// operator exactly.
pub(crate) struct SpillDistinct<'a> {
    input: Box<dyn Iterator<Item = Result<super::Chunk>> + 'a>,
    seen: HashSet<Row>,
    seen_bytes: usize,
    budget: usize,
    dir: PathBuf,
    batch: usize,
    state: DistinctState,
    pending: VecDeque<Result<super::Chunk>>,
    prof: SpillProf,
}

enum DistinctState {
    Streaming,
    Spilling {
        parts: Vec<RunFile>,
    },
    Draining {
        tasks: VecDeque<(RunFile, u32)>,
        ready: VecDeque<Row>,
    },
    Done,
}

impl<'a> SpillDistinct<'a> {
    pub(crate) fn new(
        input: Box<dyn Iterator<Item = Result<super::Chunk>> + 'a>,
        budget: usize,
        dir: &Path,
        batch: usize,
        prof: SpillProf,
    ) -> SpillDistinct<'a> {
        SpillDistinct {
            input,
            seen: HashSet::new(),
            seen_bytes: 0,
            budget,
            dir: dir.to_path_buf(),
            batch,
            state: DistinctState::Streaming,
            pending: VecDeque::new(),
            prof,
        }
    }

    /// Transition Streaming → Spilling: partition the seen rows.
    fn spill_seen(&mut self) -> Result<()> {
        let mut parts = new_partitions(&self.dir, &self.prof)?;
        for row in self.seen.drain() {
            let p = partition_of(row.values().iter(), 0);
            parts[p].write(TAG_EMITTED, &row)?;
        }
        self.seen_bytes = 0;
        self.state = DistinctState::Spilling { parts };
        Ok(())
    }
}

impl Iterator for SpillDistinct<'_> {
    type Item = Result<super::Chunk>;

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            if let Some(item) = self.pending.pop_front() {
                return Some(item);
            }
            match &mut self.state {
                DistinctState::Streaming => match self.input.next() {
                    Some(Err(e)) => return Some(Err(e)),
                    Some(Ok(mut chunk)) => {
                        let seen = &mut self.seen;
                        let mut added = 0usize;
                        chunk.filter_in_place(|row| {
                            if seen.insert(row.clone()) {
                                added += row_bytes(row) + HASH_ENTRY_OVERHEAD;
                                true
                            } else {
                                false
                            }
                        });
                        self.seen_bytes += added;
                        if let Some(n) = &self.prof {
                            raise(&n.peak_bytes, self.seen_bytes as u64);
                        }
                        let over = self.seen_bytes > self.budget;
                        let out = if chunk.is_empty() {
                            chunk.recycle();
                            None
                        } else {
                            Some(Ok(chunk))
                        };
                        if over {
                            if let Err(e) = self.spill_seen() {
                                self.state = DistinctState::Done;
                                if let Some(out) = out {
                                    self.pending.push_back(out);
                                }
                                self.pending.push_back(Err(e));
                                continue;
                            }
                        }
                        match out {
                            Some(out) => return Some(out),
                            None => continue,
                        }
                    }
                    None => {
                        self.state = DistinctState::Done;
                        return None;
                    }
                },
                DistinctState::Spilling { parts } => match self.input.next() {
                    Some(Err(e)) => return Some(Err(e)),
                    Some(Ok(mut chunk)) => {
                        chunk.ensure_rows();
                        let mut failed = None;
                        for row in chunk.iter() {
                            let p = partition_of(row.values().iter(), 0);
                            if let Err(e) = parts[p].write(TAG_FRESH, row) {
                                failed = Some(e);
                                break;
                            }
                        }
                        chunk.recycle();
                        if let Some(e) = failed {
                            self.state = DistinctState::Done;
                            return Some(Err(e));
                        }
                    }
                    None => {
                        let mut parts =
                            match std::mem::replace(&mut self.state, DistinctState::Done) {
                                DistinctState::Spilling { parts } => parts,
                                _ => unreachable!("matched Spilling above"),
                            };
                        if let Err(e) = parts.iter_mut().try_for_each(RunFile::seal) {
                            return Some(Err(e));
                        }
                        self.state = DistinctState::Draining {
                            tasks: parts.into_iter().map(|f| (f, 1)).collect(),
                            ready: VecDeque::new(),
                        };
                    }
                },
                DistinctState::Draining { tasks, ready } => {
                    if !ready.is_empty() {
                        let take = ready.len().min(self.batch);
                        let rows: Vec<Row> = ready.drain(..take).collect();
                        return Some(Ok(super::Chunk::new(rows)));
                    }
                    let Some((mut file, level)) = tasks.pop_front() else {
                        self.state = DistinctState::Done;
                        return None;
                    };
                    let budget = self.budget;
                    let dir = self.dir.clone();
                    let prof = self.prof.clone();
                    let result = (|| -> Result<()> {
                        if file.should_recurse(budget, level) {
                            if let Some(n) = &prof {
                                bump(&n.spill_passes, 1);
                            }
                            let mut sub = new_partitions(&dir, &prof)?;
                            let mut reader = file.reader()?;
                            while let Some((tag, row)) = reader.next()? {
                                let p = partition_of(row.values().iter(), level);
                                sub[p].write(tag, &row)?;
                            }
                            for mut f in sub {
                                if f.rows() > 0 {
                                    f.seal()?;
                                    tasks.push_back((f, level + 1));
                                }
                            }
                            return Ok(());
                        }
                        let mut local: HashSet<Row> = HashSet::new();
                        let mut reader = file.reader()?;
                        while let Some((tag, row)) = reader.next()? {
                            let fresh = local.insert(row.clone());
                            if fresh && tag == TAG_FRESH {
                                ready.push_back(row);
                            }
                        }
                        Ok(())
                    })();
                    if let Err(e) = result {
                        self.state = DistinctState::Done;
                        return Some(Err(e));
                    }
                }
                DistinctState::Done => return None,
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Grace hash join
// ---------------------------------------------------------------------------

/// The outcome of consuming a join's build side under a budget: either
/// the familiar in-memory hash table, or build partitions on disk.
pub(crate) enum BuildSide {
    InMemory(HashMap<Box<[Value]>, Vec<Row>>),
    Spilled(Vec<RunFile>),
}

/// Consume the build input into a hash table, partitioning everything to
/// disk the moment the table exceeds `budget`. Build-side errors surface
/// here (open time), exactly like the in-memory build.
pub(crate) fn build_or_spill(
    input: impl Iterator<Item = Result<super::Chunk>>,
    key_cols: &[usize],
    budget: usize,
    dir: &Path,
    prof: SpillProf,
) -> Result<BuildSide> {
    let mut map: HashMap<Box<[Value]>, Vec<Row>> = HashMap::new();
    let mut bytes = 0usize;
    let mut parts: Option<Vec<RunFile>> = None;
    let mut scratch: Vec<Row> = Vec::new();
    for chunk in input {
        chunk?.drain_into(&mut scratch);
        for row in scratch.drain(..) {
            match &mut parts {
                None => {
                    bytes += row_bytes(&row) + HASH_ENTRY_OVERHEAD;
                    if let Some(n) = &prof {
                        raise(&n.peak_bytes, bytes as u64);
                    }
                    let key: Box<[Value]> = key_cols.iter().map(|&c| row[c].clone()).collect();
                    map.entry(key).or_default().push(row);
                    if bytes > budget {
                        let files = parts.insert(new_partitions(dir, &prof)?);
                        for (_, rows) in map.drain() {
                            for row in rows {
                                let p = partition_of(key_cols.iter().map(|&c| &row[c]), 0);
                                files[p].write(0, &row)?;
                            }
                        }
                        bytes = 0;
                    }
                }
                Some(files) => {
                    let p = partition_of(key_cols.iter().map(|&c| &row[c]), 0);
                    files[p].write(0, &row)?;
                }
            }
        }
    }
    Ok(match parts {
        None => BuildSide::InMemory(map),
        Some(mut files) => {
            files.iter_mut().try_for_each(RunFile::seal)?;
            BuildSide::Spilled(files)
        }
    })
}

/// The grace hash join's partition-pair processor: a lazy chunk iterator
/// that first partitions the probe stream to disk, then joins partition
/// pairs one at a time (re-partitioning oversized build partitions).
///
/// With `anti` set the probe phase inverts: a probe (left) row is
/// emitted iff its partition's build table holds **no** row satisfying
/// the residual — the grace-partitioned anti-join. Partitioning by the
/// key hash keeps this exact: a left row's potential matches live in
/// exactly one build partition.
pub(crate) struct GraceJoin<'a> {
    probe: Option<Box<dyn Iterator<Item = Result<super::Chunk>> + 'a>>,
    on: &'a [(usize, usize)],
    residual: Option<&'a Expr>,
    budget: usize,
    dir: PathBuf,
    batch: usize,
    anti: bool,
    prof: SpillProf,
    /// (build partition, probe partition, level) pairs awaiting work.
    tasks: VecDeque<(RunFile, RunFile, u32)>,
    /// Queued output (chunks and split-off residual errors) in order.
    pending: VecDeque<Result<super::Chunk>>,
    /// The partition pair currently streaming probes.
    current: Option<CurrentPair>,
    build_parts: Option<Vec<RunFile>>,
    done: bool,
}

struct CurrentPair {
    table: HashMap<Box<[Value]>, Vec<Row>>,
    /// Keeps the pair's files alive until the probe stream finishes.
    _build: RunFile,
    _probe: RunFile,
    reader: RunReader,
}

impl<'a> GraceJoin<'a> {
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        probe: Box<dyn Iterator<Item = Result<super::Chunk>> + 'a>,
        build_parts: Vec<RunFile>,
        on: &'a [(usize, usize)],
        residual: Option<&'a Expr>,
        budget: usize,
        dir: &Path,
        batch: usize,
        prof: SpillProf,
    ) -> GraceJoin<'a> {
        GraceJoin {
            probe: Some(probe),
            on,
            residual,
            budget,
            dir: dir.to_path_buf(),
            batch,
            anti: false,
            prof,
            tasks: VecDeque::new(),
            pending: VecDeque::new(),
            current: None,
            build_parts: Some(build_parts),
            done: false,
        }
    }

    /// The anti-join flavor: emit probe rows *without* a residual-
    /// satisfying build match. Pairs whose build partition is empty are
    /// still processed (their probe rows all pass).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new_anti(
        probe: Box<dyn Iterator<Item = Result<super::Chunk>> + 'a>,
        build_parts: Vec<RunFile>,
        on: &'a [(usize, usize)],
        residual: Option<&'a Expr>,
        budget: usize,
        dir: &Path,
        batch: usize,
        prof: SpillProf,
    ) -> GraceJoin<'a> {
        let mut join = GraceJoin::new(probe, build_parts, on, residual, budget, dir, batch, prof);
        join.anti = true;
        join
    }

    /// Drain the probe stream into partitions matching the build's. Probe
    /// errors are queued in encounter order (they precede all join
    /// output: nothing has been emitted yet).
    fn partition_probe(&mut self) -> Result<()> {
        let probe = self.probe.take().expect("probe partitioned once");
        let mut parts = new_partitions(&self.dir, &self.prof)?;
        for item in probe {
            match item {
                Err(e) => self.pending.push_back(Err(e)),
                Ok(mut chunk) => {
                    chunk.ensure_rows();
                    for row in chunk.iter() {
                        let p = partition_of(self.on.iter().map(|&(lc, _)| &row[lc]), 0);
                        parts[p].write(0, row)?;
                    }
                    chunk.recycle();
                }
            }
        }
        let build = self.build_parts.take().expect("build partitions present");
        for (b, mut p) in build.into_iter().zip(parts) {
            // A join pair needs rows on both sides; an anti-join pair
            // with an empty build side still emits all its probe rows.
            if p.rows() > 0 && (self.anti || b.rows() > 0) {
                p.seal()?;
                self.tasks.push_back((b, p, 1));
            }
        }
        Ok(())
    }

    /// Load one build partition (re-partitioning the pair if oversized)
    /// and set it up as the current probe target.
    fn start_task(&mut self, mut build: RunFile, mut probe: RunFile, level: u32) -> Result<()> {
        if build.should_recurse(self.budget, level) {
            if let Some(n) = &self.prof {
                bump(&n.spill_passes, 1);
            }
            let rcols: Vec<usize> = self.on.iter().map(|&(_, rc)| rc).collect();
            let lcols: Vec<usize> = self.on.iter().map(|&(lc, _)| lc).collect();
            let mut bsub = new_partitions(&self.dir, &self.prof)?;
            let mut reader = build.reader()?;
            while let Some((_, row)) = reader.next()? {
                let p = partition_of(rcols.iter().map(|&c| &row[c]), level);
                bsub[p].write(0, &row)?;
            }
            let mut psub = new_partitions(&self.dir, &self.prof)?;
            let mut reader = probe.reader()?;
            while let Some((_, row)) = reader.next()? {
                let p = partition_of(lcols.iter().map(|&c| &row[c]), level);
                psub[p].write(0, &row)?;
            }
            for (mut b, mut p) in bsub.into_iter().zip(psub) {
                if p.rows() > 0 && (self.anti || b.rows() > 0) {
                    b.seal()?;
                    p.seal()?;
                    self.tasks.push_back((b, p, level + 1));
                }
            }
            return Ok(());
        }
        let mut table: HashMap<Box<[Value]>, Vec<Row>> = HashMap::new();
        let mut reader = build.reader()?;
        while let Some((_, row)) = reader.next()? {
            let key: Box<[Value]> = self.on.iter().map(|&(_, rc)| row[rc].clone()).collect();
            table.entry(key).or_default().push(row);
        }
        let reader = probe.reader()?;
        self.current = Some(CurrentPair {
            table,
            _build: build,
            _probe: probe,
            reader,
        });
        Ok(())
    }

    /// Probe up to `batch` output rows from the current pair. Residual
    /// evaluation errors split the output exactly like the in-memory
    /// probe loop: the successful prefix first, then the error.
    fn pump_current(&mut self) -> Result<()> {
        let Some(pair) = &mut self.current else {
            return Ok(());
        };
        let mut out: Vec<Row> = Vec::with_capacity(self.batch);
        loop {
            let Some((_, lrow)) = pair.reader.next()? else {
                self.current = None;
                break;
            };
            let key: Box<[Value]> = self.on.iter().map(|&(lc, _)| lrow[lc].clone()).collect();
            if self.anti {
                // Emit the left row iff no build row satisfies the
                // residual; a residual error drops the row and splits
                // the output, like the in-memory anti filter.
                match pair.table.get(&key) {
                    None => out.push(lrow),
                    Some(hits) => match self.residual {
                        None => {}
                        Some(e) => {
                            let mut keep = true;
                            for rrow in hits {
                                match e.eval_bool(&lrow.concat(rrow)) {
                                    Ok(true) => {
                                        keep = false;
                                        break;
                                    }
                                    Ok(false) => {}
                                    Err(err) => {
                                        if !out.is_empty() {
                                            self.pending.push_back(Ok(super::Chunk::new(
                                                std::mem::take(&mut out),
                                            )));
                                        }
                                        self.pending.push_back(Err(err));
                                        keep = false;
                                        break;
                                    }
                                }
                            }
                            if keep {
                                out.push(lrow);
                            }
                        }
                    },
                }
            } else if let Some(hits) = pair.table.get(&key) {
                for rrow in hits {
                    let joined = lrow.concat(rrow);
                    match self.residual {
                        None => out.push(joined),
                        Some(e) => match e.eval_bool(&joined) {
                            Ok(true) => out.push(joined),
                            Ok(false) => {}
                            Err(err) => {
                                if !out.is_empty() {
                                    self.pending
                                        .push_back(Ok(super::Chunk::new(std::mem::take(&mut out))));
                                }
                                self.pending.push_back(Err(err));
                                // One error per failing probe row: its
                                // remaining matches are abandoned,
                                // exactly like the in-memory probe
                                // closure returning `Err`.
                                break;
                            }
                        },
                    }
                }
            }
            if out.len() >= self.batch {
                break;
            }
        }
        if !out.is_empty() {
            self.pending.push_back(Ok(super::Chunk::new(out)));
        }
        Ok(())
    }
}

impl Iterator for GraceJoin<'_> {
    type Item = Result<super::Chunk>;

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            if let Some(item) = self.pending.pop_front() {
                return Some(item);
            }
            if self.done {
                return None;
            }
            let step = (|| -> Result<bool> {
                if self.probe.is_some() {
                    self.partition_probe()?;
                    return Ok(true);
                }
                if self.current.is_some() {
                    self.pump_current()?;
                    return Ok(true);
                }
                match self.tasks.pop_front() {
                    Some((b, p, level)) => {
                        self.start_task(b, p, level)?;
                        Ok(true)
                    }
                    None => Ok(false),
                }
            })();
            match step {
                Err(e) => {
                    self.done = true;
                    return Some(Err(e));
                }
                Ok(true) => continue,
                Ok(false) => {
                    self.done = true;
                    return None;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::row;

    fn tmp() -> PathBuf {
        use std::sync::atomic::{AtomicU64, Ordering};
        static N: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "beliefdb-spill-test-{}-{}",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn run_file_round_trips_and_self_deletes() {
        let dir = tmp();
        let rows = [row![1, "alpha"], row![Value::Null, true], row![-7, ""]];
        let path;
        {
            let mut run = RunFile::create(&dir, None).unwrap();
            for (i, r) in rows.iter().enumerate() {
                run.write(i as u8, r).unwrap();
            }
            path = run.path.clone();
            assert!(path.exists());
            let mut reader = run.reader().unwrap();
            for (i, r) in rows.iter().enumerate() {
                let (tag, row) = reader.next().unwrap().unwrap();
                assert_eq!(tag, i as u8);
                assert_eq!(&row, r);
            }
            assert!(reader.next().unwrap().is_none());
        }
        assert!(!path.exists(), "run file must delete itself on drop");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_run_records_error_cleanly() {
        let dir = tmp();
        let mut run = RunFile::create(&dir, None).unwrap();
        run.write(0, &row![1, "payload"]).unwrap();
        // Flush the pending block to disk, then flip a payload byte
        // behind the writer's back.
        run.seal().unwrap();
        let mut bytes = std::fs::read(&run.path).unwrap();
        let n = bytes.len();
        bytes[n - 2] ^= 0x20;
        std::fs::write(&run.path, &bytes).unwrap();
        let mut reader = run.reader().unwrap();
        assert!(matches!(reader.next(), Err(StorageError::Corrupt(_))));
        drop(run);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn spill_points_counts_materialization_points() {
        let plan = Plan::scan("T")
            .join(Plan::scan("S"), vec![(0, 0)])
            .distinct()
            .sort(vec![0]);
        assert_eq!(spill_points(&plan), 3);
        let agg = Plan::Aggregate {
            input: Box::new(Plan::scan("T").join_where(
                Plan::scan("S"),
                vec![],
                Expr::col_eq_col(0, 1),
            )),
            group_by: vec![0],
            aggs: vec![Agg::Count],
        };
        // The cross join's materialized right side counts alongside the
        // aggregate.
        assert_eq!(spill_points(&agg), 2);
        // Anti-joins count whether keyed (hash build) or residual-only
        // (collected right side with overflow runs).
        let keyed = Plan::scan("T").anti_join(Plan::scan("S"), vec![(0, 0)]);
        assert_eq!(spill_points(&keyed), 1);
        let residual_only = Plan::AntiJoin {
            left: Box::new(Plan::scan("T")),
            right: Box::new(Plan::scan("S")),
            on: vec![],
            residual: Some(Expr::col_eq_col(0, 2)),
        };
        assert_eq!(spill_points(&residual_only), 1);
    }

    #[test]
    fn residual_only_anti_join_right_side_is_budgeted() {
        use crate::exec::Executor;
        use crate::schema::TableSchema;
        let dir = tmp();
        let mut db = crate::catalog::Database::new();
        let t = db
            .create_table(TableSchema::keyless("T", &["a", "b"]))
            .unwrap();
        for i in 0..500i64 {
            t.insert(row![i, (i * 3) % 101]).unwrap();
        }
        let s = db
            .create_table(TableSchema::keyless("S", &["k", "tag"]))
            .unwrap();
        for i in 0..400i64 {
            s.insert(row![i * 2, i]).unwrap();
        }
        // No equality keys, only a residual: T rows with no S row of the
        // same parity-scaled key survive.
        let plan = Plan::AntiJoin {
            left: Box::new(Plan::scan("T")),
            right: Box::new(Plan::scan("S")),
            on: vec![],
            residual: Some(Expr::col_eq_col(0, 2)),
        };
        let unlimited = Executor::new(&db)
            .open_chunks(&plan)
            .unwrap()
            .collect_rows()
            .unwrap();
        assert!(!unlimited.is_empty());
        for budget in [0usize, 64, 4096, 1 << 20] {
            let opts = SpillOptions::with_budget(budget).in_dir(&dir);
            let got = Executor::with_spill(&db, opts)
                .open_chunks(&plan)
                .unwrap()
                .collect_rows()
                .unwrap();
            // The anti-join is a pure left filter: overflowing the right
            // side to runs must not even change the output *order*.
            assert_eq!(got, unlimited, "budget {budget} diverged");
        }
        assert_eq!(
            std::fs::read_dir(&dir).unwrap().count(),
            0,
            "spill files left behind"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn budgeted_executor_matches_unlimited_on_every_materialization_point() {
        use crate::exec::Executor;
        use crate::schema::TableSchema;
        let dir = tmp();
        let mut db = crate::catalog::Database::new();
        let t = db
            .create_table(TableSchema::keyless("T", &["a", "b"]))
            .unwrap();
        for i in 0..2_000i64 {
            t.insert(row![i % 331, (i * 7) % 97]).unwrap();
        }
        let s = db
            .create_table(TableSchema::keyless("S", &["k", "tag"]))
            .unwrap();
        for i in 0..600i64 {
            s.insert(row![i % 331, i]).unwrap();
        }
        let plans = vec![
            Plan::scan("T").sort(vec![1, 0]),
            Plan::scan("T").distinct(),
            Plan::scan("T").join(Plan::scan("S"), vec![(0, 0)]),
            Plan::Aggregate {
                input: Box::new(Plan::scan("T")),
                group_by: vec![0],
                aggs: vec![Agg::Count, Agg::Max(1), Agg::Min(1)],
            },
            Plan::Aggregate {
                input: Box::new(Plan::scan("T")),
                group_by: vec![],
                aggs: vec![Agg::Count, Agg::Min(1)],
            },
        ];
        for plan in &plans {
            let unlimited = Executor::new(&db)
                .open_chunks(plan)
                .unwrap()
                .collect_rows()
                .unwrap();
            for budget in [0usize, 64, 4096, 1 << 20] {
                let opts = SpillOptions::with_budget(budget).in_dir(&dir);
                let mut got = Executor::with_spill(&db, opts)
                    .open_chunks(plan)
                    .unwrap()
                    .collect_rows()
                    .unwrap();
                let mut want = unlimited.clone();
                // Sort output must match exactly; everything else as a
                // multiset.
                if matches!(plan, Plan::Sort { .. }) {
                    assert_eq!(got, want, "sort order diverged at budget {budget}");
                } else {
                    got.sort();
                    want.sort();
                    assert_eq!(got, want, "budget {budget} diverged on {plan:?}");
                }
            }
        }
        // Every spill file was cleaned up.
        assert_eq!(
            std::fs::read_dir(&dir).unwrap().count(),
            0,
            "spill files left behind"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn level_changes_the_partition_shuffle() {
        let rows: Vec<Row> = (0..64i64).map(|i| row![i]).collect();
        let level0: Vec<usize> = rows
            .iter()
            .map(|r| partition_of(r.values().iter(), 0))
            .collect();
        let level1: Vec<usize> = rows
            .iter()
            .map(|r| partition_of(r.values().iter(), 1))
            .collect();
        assert_ne!(level0, level1, "levels must shuffle differently");
    }
}
