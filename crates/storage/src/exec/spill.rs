//! Spill-to-disk materialization points: memory-budgeted counterparts of
//! the executor's unbounded buffers.
//!
//! The chunked executor ([`super::stream`](mod@super::stream)) pipelines most operators,
//! but several places materialize: the hash build sides of keyed joins
//! and anti-joins, the right sides of cross joins and residual-only
//! anti-joins, and `Distinct`'s seen-set.
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
//! `[payload_len: u32 LE][crc32: u32 LE][tag: u8][count: var][fmt: u8][data…]`,
//! with the CRC covering everything after itself, so a torn or
//! bit-flipped spill file surfaces as [`StorageError::Corrupt`], never
//! as wrong answers. Counts, lengths and codes are varints and integers
//! zig-zag varints, as everywhere in the codec. `fmt` selects the block
//! body:
//!
//! * **`0` — row-major**: `count` `put_row` records (the fallback when a
//!   block mixes row arities);
//! * **`1` — columnar**: `[arity: var]`, then per column a type byte —
//!   `0` NULL (no data), `1` Bool (validity + one byte per cell), `2`
//!   Int (validity + one zig-zag varint per cell), `3` Str (validity + a
//!   sorted dictionary of length-prefixed strings + one varint code per
//!   cell), `4` Mixed (one `put_value` per cell) — where `validity`
//!   is `[has: u8]` plus, when `has == 1`, `ceil(count / 8)` LSB-first
//!   bitmap bytes (bit set = value present). This is the same column
//!   classification the executor's scan chunks use
//!   ([`crate::column::ColumnSet`]), so typed columns cost a few bytes
//!   per cell instead of a tagged boxed value, and repeated strings are
//!   written once per block.
//!
//! Every writer — hash partitioners and bounded right sides alike — buffers rows
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
//! (the join build side) keep erroring at open time.
//! The spilling paths of the *lazy* operators (the grace join's probe
//! partitioning, distinct's drain phase) must consume upstream before
//! emitting, so upstream errors are surfaced in encounter order but
//! ahead of the delayed rows; the multiset of rows and the sequence of
//! errors match the in-memory executor (the `exec_spill` differential
//! suite pins this), only the interleaving may differ once spilling has
//! actually engaged.

use crate::catalog::Database;
use crate::column::{Bitmap, Column, ColumnSet};
use crate::error::{Result, StorageError};
use crate::exec::access::probes_right;
use crate::expr::Expr;
use crate::index::CellHash;
use crate::obs::metrics::{metrics, Metric};
use crate::obs::profile::{bump, raise, ProfNode};
use crate::persist::format::{crc32, Dec, Enc};
use crate::plan::Plan;
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

/// Fan-out of one partitioning pass (join and distinct spills). 16
/// partitions cut an over-budget input to 1/16 per pass; two levels
/// cover a 256× overshoot.
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

/// Rows per block record: every writer buffers rows into the current
/// block and flushes a frame once it holds this many — amortizing the
/// frame header, CRC, and encode-buffer fill — while keeping one decoded
/// block per reader small.
const BLOCK_ROWS: usize = 128;

/// Soft payload cap forcing an early block flush for very wide rows.
const SOFT_BLOCK_PAYLOAD: usize = 1 << 20;

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
    pub(crate) fn for_plan(opts: &SpillOptions, db: &Database, plan: &Plan) -> SpillCtx {
        SpillCtx {
            per_point: opts.budget.map(|b| b / spill_points(db, plan).max(1)),
            dir: opts.dir.clone().unwrap_or_else(std::env::temp_dir),
        }
    }
}

/// Number of memory-budgeted materialization points in a plan over `db`:
/// every `Distinct` and `Join` (the hash build side of a keyed
/// join, the materialized right side of a cross join), plus every
/// `AntiJoin` (the hash build side when keyed, the collected right side
/// when residual-only) — except a join or an anti-join that probes its
/// right side through an index, which builds nothing. The global budget
/// is divided by this count.
pub fn spill_points(db: &Database, plan: &Plan) -> usize {
    let own = match plan {
        Plan::Distinct { .. } => 1,
        Plan::Join { .. } | Plan::AntiJoin { .. } => usize::from(!probes_right(db, plan)),
        _ => 0,
    };
    own + plan
        .children()
        .into_iter()
        .map(|child| spill_points(db, child))
        .sum::<usize>()
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
                        Value::Str(s) => s.as_bytes().len(),
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
        self.enc.put_var(self.block.len() as u64);
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
/// non-empty and holds at most `BLOCK_ROWS` rows.
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
    enc.put_var(arity as u64);
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
                    enc.put_zig(x);
                }
            }
            Column::Str {
                dict,
                codes,
                validity,
            } => {
                enc.put_u8(3);
                put_validity(enc, validity);
                enc.put_var(dict.len() as u64);
                for s in dict {
                    enc.put_bytes(s.as_bytes());
                }
                for &code in codes {
                    enc.put_var(u64::from(code));
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
                let x = dec.take_zig()?;
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
            let dict_len = dec.take_len()?;
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
                let code = dec.take_var()?;
                if !valid(&validity, i) {
                    vals.push(Value::Null);
                    continue;
                }
                let Some(v) = usize::try_from(code).ok().and_then(|c| dict.get(c)) else {
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
        // Not `take_len`: a block of NULL columns holds no byte per row.
        let count = dec.take_var()?;
        if count == 0 || count > self.remaining {
            return Err(StorageError::Corrupt(format!(
                "spill block of {count} rows with {} remaining",
                self.remaining
            )));
        }
        let count = count as usize;
        let mut rows = VecDeque::with_capacity(count);
        match dec.take_u8()? {
            FMT_ROWS => {
                for _ in 0..count {
                    rows.push_back(dec.take_row()?);
                }
            }
            FMT_COLUMNAR => {
                // Each column costs at least its type byte.
                let arity = dec.take_len()?;
                let mut cols = Vec::new();
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
    seen: HashSet<Row, CellHash>,
    seen_bytes: usize,
    budget: usize,
    dir: PathBuf,
    batch: usize,
    state: DistinctState,
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
            seen: HashSet::default(),
            seen_bytes: 0,
            budget,
            dir: dir.to_path_buf(),
            batch,
            state: DistinctState::Streaming,
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

impl SpillDistinct<'_> {
    /// One unit of work in the current state, returning the chunk it
    /// made, if any.
    fn step(&mut self) -> Result<Option<super::Chunk>> {
        match &mut self.state {
            // The seen-set outgrew the budget with the chunk streamed
            // last: partition it before reading on.
            DistinctState::Streaming if self.seen_bytes > self.budget => self.spill_seen()?,
            DistinctState::Streaming => match self.input.next().transpose()? {
                Some(mut chunk) => {
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
                    if !chunk.is_empty() {
                        return Ok(Some(chunk));
                    }
                    chunk.recycle();
                }
                None => self.state = DistinctState::Done,
            },
            DistinctState::Spilling { parts } => match self.input.next().transpose()? {
                Some(mut chunk) => {
                    chunk.ensure_rows();
                    for row in chunk.iter() {
                        let p = partition_of(row.values().iter(), 0);
                        parts[p].write(TAG_FRESH, row)?;
                    }
                    chunk.recycle();
                }
                None => {
                    let mut parts = std::mem::take(parts);
                    parts.iter_mut().try_for_each(RunFile::seal)?;
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
                    return Ok(Some(super::Chunk::new(rows)));
                }
                let Some((mut file, level)) = tasks.pop_front() else {
                    self.state = DistinctState::Done;
                    return Ok(None);
                };
                if file.should_recurse(self.budget, level) {
                    if let Some(n) = &self.prof {
                        bump(&n.spill_passes, 1);
                    }
                    let mut sub = new_partitions(&self.dir, &self.prof)?;
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
                } else {
                    let mut local: HashSet<Row, CellHash> = HashSet::default();
                    let mut reader = file.reader()?;
                    while let Some((tag, row)) = reader.next()? {
                        let fresh = local.insert(row.clone());
                        if fresh && tag == TAG_FRESH {
                            ready.push_back(row);
                        }
                    }
                }
            }
            DistinctState::Done => {}
        }
        Ok(None)
    }
}

impl Iterator for SpillDistinct<'_> {
    type Item = Result<super::Chunk>;

    fn next(&mut self) -> Option<Self::Item> {
        while !matches!(self.state, DistinctState::Done) {
            match self.step() {
                Ok(Some(chunk)) => return Some(Ok(chunk)),
                Ok(None) => {}
                Err(e) => {
                    self.state = DistinctState::Done;
                    return Some(Err(e));
                }
            }
        }
        None
    }
}

// ---------------------------------------------------------------------------
// Grace hash join
// ---------------------------------------------------------------------------

/// The outcome of consuming a join's build side under a budget: either
/// the familiar in-memory hash table, or build partitions on disk.
pub(crate) enum BuildSide {
    InMemory(HashMap<Box<[Value]>, Vec<Row>, CellHash>),
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
    let mut map: HashMap<Box<[Value]>, Vec<Row>, CellHash> = HashMap::default();
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
    /// The partition pair currently streaming probes.
    current: Option<CurrentPair>,
    build_parts: Option<Vec<RunFile>>,
    done: bool,
}

struct CurrentPair {
    table: HashMap<Box<[Value]>, Vec<Row>, CellHash>,
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

    /// Drain the probe stream into partitions matching the build's.
    fn partition_probe(&mut self) -> Result<()> {
        let probe = self.probe.take().expect("probe partitioned once");
        let mut parts = new_partitions(&self.dir, &self.prof)?;
        for chunk in probe {
            let mut chunk = chunk?;
            chunk.ensure_rows();
            for row in chunk.iter() {
                let p = partition_of(self.on.iter().map(|&(lc, _)| &row[lc]), 0);
                parts[p].write(0, row)?;
            }
            chunk.recycle();
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
        let mut table: HashMap<Box<[Value]>, Vec<Row>, CellHash> = HashMap::default();
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

    /// Probe up to `batch` output rows from the current pair.
    fn pump_current(&mut self) -> Result<Option<super::Chunk>> {
        let Some(pair) = &mut self.current else {
            return Ok(None);
        };
        let mut out: Vec<Row> = Vec::with_capacity(self.batch);
        while out.len() < self.batch {
            let Some((_, lrow)) = pair.reader.next()? else {
                self.current = None;
                break;
            };
            let key: Box<[Value]> = self.on.iter().map(|&(lc, _)| lrow[lc].clone()).collect();
            let hits = pair.table.get(&key);
            if self.anti {
                // Emit the left row iff no build row satisfies the
                // residual.
                let matched = hits.is_some_and(|hits| {
                    self.residual
                        .is_none_or(|e| hits.iter().any(|rrow| e.eval_bool(&lrow.concat(rrow))))
                });
                if !matched {
                    out.push(lrow);
                }
            } else {
                for rrow in hits.into_iter().flatten() {
                    let joined = lrow.concat(rrow);
                    if self.residual.is_none_or(|e| e.eval_bool(&joined)) {
                        out.push(joined);
                    }
                }
            }
        }
        Ok((!out.is_empty()).then(|| super::Chunk::new(out)))
    }

    /// One unit of work: partition the probe side, set up the next
    /// partition pair, or probe the current pair, returning its rows.
    /// Sets `done` when no work is left.
    fn step(&mut self) -> Result<Option<super::Chunk>> {
        if self.probe.is_some() {
            self.partition_probe()?;
        } else if self.current.is_some() {
            return self.pump_current();
        } else if let Some((b, p, level)) = self.tasks.pop_front() {
            self.start_task(b, p, level)?;
        } else {
            self.done = true;
        }
        Ok(None)
    }
}

impl Iterator for GraceJoin<'_> {
    type Item = Result<super::Chunk>;

    fn next(&mut self) -> Option<Self::Item> {
        while !self.done {
            match self.step() {
                Ok(Some(chunk)) => return Some(Ok(chunk)),
                Ok(None) => {}
                Err(e) => {
                    self.done = true;
                    return Some(Err(e));
                }
            }
        }
        None
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
        use crate::schema::TableSchema;
        // Index-free tables: every join builds or buffers its right side.
        let mut db = crate::catalog::Database::new();
        db.create_table(TableSchema::keyless("T", &["a", "b"]))
            .unwrap();
        db.create_table(TableSchema::keyless("S", &["k", "tag"]))
            .unwrap();
        let plan = Plan::scan("T")
            .join(Plan::scan("S"), vec![(0, 0)])
            .distinct();
        assert_eq!(spill_points(&db, &plan), 2);
        let cross = Plan::scan("T")
            .join_where(Plan::scan("S"), vec![], Expr::col_eq_col(0, 1))
            .distinct();
        // The cross join's materialized right side counts alongside the
        // distinct.
        assert_eq!(spill_points(&db, &cross), 2);
        // Anti-joins count whether keyed (hash build) or residual-only
        // (collected right side with overflow runs).
        let keyed = Plan::scan("T").anti_join(Plan::scan("S"), vec![(0, 0)]);
        assert_eq!(spill_points(&db, &keyed), 1);
        let residual_only = Plan::AntiJoin {
            left: Box::new(Plan::scan("T")),
            right: Box::new(Plan::scan("S")),
            on: vec![],
            residual: Some(Expr::col_eq_col(0, 2)),
        };
        assert_eq!(spill_points(&db, &residual_only), 1);
        // An index on `S.k` turns the keyed join and anti-join into
        // probes, which build nothing; the cross join still buffers.
        db.table_mut("S")
            .unwrap()
            .create_index("by_k", &["k"])
            .unwrap();
        assert_eq!(spill_points(&db, &plan), 1);
        assert_eq!(spill_points(&db, &keyed), 0);
        assert_eq!(spill_points(&db, &cross), 2);
        assert_eq!(spill_points(&db, &residual_only), 1);
    }

    #[test]
    fn a_probed_join_leaves_the_whole_budget_to_the_distinct() {
        use crate::exec::Executor;
        use crate::schema::TableSchema;
        let dir = tmp();
        let mut db = crate::catalog::Database::new();
        let t = db
            .create_table(TableSchema::keyless("T", &["a", "b"]))
            .unwrap();
        for i in 0..300i64 {
            t.insert(row![i % 50, (i * 7) % 97]).unwrap();
        }
        let s = db
            .create_table(TableSchema::with_key("S", &["k", "tag"]))
            .unwrap();
        for k in 0..40i64 {
            s.insert(row![k, format!("tag{k}").as_str()]).unwrap();
        }
        let plan = Plan::scan("T")
            .join(Plan::scan("S"), vec![(0, 0)])
            .distinct();
        assert_eq!(spill_points(&db, &plan), 1);
        let budget = 4096;
        let opts = SpillOptions::with_budget(budget).in_dir(&dir);
        assert_eq!(
            SpillCtx::for_plan(&opts, &db, &plan).per_point,
            Some(budget)
        );
        let explain = crate::opt::render(
            &db,
            &crate::opt::StatsCatalog::snapshot(&db),
            &plan,
            Some(budget),
        );
        let lines: Vec<&str> = explain.lines().collect();
        assert!(
            lines[0].starts_with("Distinct") && lines[0].contains("[spill budget=4096 "),
            "{explain}"
        );
        assert!(
            lines[1].contains("[probe S.pk]") && !lines[1].contains("[spill"),
            "{explain}"
        );
        let mut unlimited = Executor::new(&db)
            .open_chunks(&plan)
            .unwrap()
            .collect_rows()
            .unwrap();
        assert_eq!(unlimited.len(), 240);
        let mut budgeted = Executor::with_spill(&db, opts)
            .open_chunks(&plan)
            .unwrap()
            .collect_rows()
            .unwrap();
        // Distinct's spill keeps the multiset, not the order.
        budgeted.sort();
        unlimited.sort();
        assert_eq!(budgeted, unlimited);
        assert_eq!(
            std::fs::read_dir(&dir).unwrap().count(),
            0,
            "spill files left behind"
        );
        std::fs::remove_dir_all(&dir).unwrap();
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
            Plan::scan("T").distinct(),
            Plan::scan("T").join(Plan::scan("S"), vec![(0, 0)]),
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
                got.sort();
                want.sort();
                assert_eq!(got, want, "budget {budget} diverged on {plan:?}");
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
