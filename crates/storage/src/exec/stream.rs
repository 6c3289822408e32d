//! The vectorized (chunk-at-a-time) streaming executor — the engine's one
//! production executor.
//!
//! [`Executor::open_chunks`] compiles a [`Plan`] into a [`ChunkStream`]
//! — a pull-based iterator of `Result<Chunk>` where a [`Chunk`] is a
//! batch of up to [`BATCH_SIZE`] rows plus an optional **selection
//! vector**. Every operator produces and consumes whole chunks, so the
//! per-row cost of a tuple-at-a-time pipeline — one dynamic-dispatch
//! `next()` call plus an `Expr` interpretation per row — is amortized
//! over up to `BATCH_SIZE` rows per call:
//!
//! * **Scan** emits columnar windows over the table's column vectors
//!   (no row is cloned); a selection directly over a scan runs its
//!   kernel over those windows, so non-qualifying rows are never
//!   materialized; **Values** emits row-major batches of its literals;
//! * **Selection** evaluates its predicate into the selection vector —
//!   no row is moved or cloned by a filter. `col op literal` predicates
//!   compile to a `ColLitKernel` with specialized fast paths for
//!   `=`/`<`/`<=` on int and string columns (no interpreter walk, no
//!   `Value` clones); everything else falls back to the row-wise `Expr`
//!   interpreter inside the chunk loop;
//! * **Projection** uses a [`Projector`] precompiled and validated once
//!   at open time when all expressions are plain columns — the per-row
//!   `Result` and bounds re-check disappear from the inner loop;
//! * **hash joins** build once, then probe an entire chunk per call;
//!   a base-table right side takes the adaptive bounded-buffer
//!   index-nested-loop path instead (buffer left rows up to
//!   `|table|/4`, probe the index if the left side exhausts, replay into
//!   a hash join if not);
//! * **Distinct** marks first occurrences in the selection vector;
//!   **Limit** truncates mid-chunk and stops pulling upstream — and
//!   additionally caps its subtree's batch size at `n`, so a `LIMIT 100`
//!   never drags 1024-row batches through the pipeline;
//! * **Aggregate**, **Sort**, and join build sides remain the
//!   materialization points, exactly as before.
//!
//! ## Error order is preserved
//!
//! Tuple-at-a-time execution surfaces a row's evaluation error only when
//! that row is demanded; rows before it flow through untouched. Chunked
//! operators keep that contract by **splitting** a chunk at the first
//! failing row: the successfully processed prefix is emitted first, the
//! error after it, and processing resumes behind it. A `Limit` that is
//! satisfied by the prefix therefore never observes the error.
//!
//! [`RowStream`] ([`super::rows`]) is a thin row-at-a-time adapter over
//! [`ChunkStream`] for sinks written against `Iterator<Item = Result<Row>>`.

use super::rows::RowStream;
use super::spill::{self, SpillCtx, SpillOptions};
use super::{aggregate_stream, try_index_selection};
use crate::catalog::Database;
use crate::column::{self, Column, ColumnSet};
use crate::error::Result;
use crate::expr::{CmpOp, Expr};
use crate::obs::metrics::{metrics, Metric};
use crate::obs::profile::{bump, raise, NodeObs, ProfNode, Profile};
use crate::plan::Plan;
use crate::row::{Projector, Row};
use crate::value::Value;
use std::collections::{HashMap, HashSet, VecDeque};
use std::rc::Rc;
use std::sync::Arc;

/// Default number of rows per chunk. Large enough to amortize per-chunk
/// dispatch to noise, small enough that one in-flight chunk per operator
/// stays cache- and memory-friendly.
pub const BATCH_SIZE: usize = 1024;

// ---------------------------------------------------------------------------
// Buffer pool
// ---------------------------------------------------------------------------

/// Thread-local recycling pool for chunk backing buffers.
///
/// The steady state of a long pipeline is "allocate a `Vec<Row>` (and a
/// selection vector) per chunk, drop it one operator later" — pure
/// allocator churn. Operators instead take buffers from this pool and
/// consumers hand them back ([`Chunk::recycle`] / [`Chunk::drain_into`]
/// / the row adapter), so after warm-up the hot loop allocates rows,
/// never buffers. The pool is bounded (a handful of buffers per
/// thread) and thread-local, so there is no locking and no cross-query
/// pinning beyond a few dozen KiB.
mod pool {
    use crate::obs::metrics::{metrics, Metric};
    use crate::row::Row;
    use std::cell::RefCell;

    /// Max buffers of each kind kept per thread (more than the deepest
    /// pipeline keeps in flight; excess is dropped, not pooled).
    const MAX_POOLED: usize = 8;

    thread_local! {
        static ROW_BUFS: RefCell<Vec<Vec<Row>>> = const { RefCell::new(Vec::new()) };
        static SEL_BUFS: RefCell<Vec<Vec<u32>>> = const { RefCell::new(Vec::new()) };
    }

    /// An empty row buffer with at least `cap` capacity.
    pub(super) fn take_rows(cap: usize) -> Vec<Row> {
        let mut buf = match ROW_BUFS.with(|p| p.borrow_mut().pop()) {
            Some(buf) => {
                metrics().incr(Metric::PoolHits);
                buf
            }
            None => {
                metrics().incr(Metric::PoolMisses);
                Vec::new()
            }
        };
        // `reserve` is a no-op when the recycled capacity already
        // suffices; the buffer is empty, so this guarantees `cap`.
        buf.reserve(cap);
        buf
    }

    /// Return a row buffer (cleared here) to the pool.
    pub(super) fn give_rows(mut buf: Vec<Row>) {
        buf.clear();
        if buf.capacity() == 0 {
            return;
        }
        ROW_BUFS.with(|p| {
            let mut p = p.borrow_mut();
            if p.len() < MAX_POOLED {
                p.push(buf);
            }
        });
    }

    /// An empty selection-vector buffer with at least `cap` capacity.
    pub(super) fn take_sel(cap: usize) -> Vec<u32> {
        let mut buf = SEL_BUFS.with(|p| p.borrow_mut().pop()).unwrap_or_default();
        buf.reserve(cap);
        buf
    }

    /// Return a selection-vector buffer (cleared here) to the pool.
    pub(super) fn give_sel(mut buf: Vec<u32>) {
        buf.clear();
        if buf.capacity() == 0 {
            return;
        }
        SEL_BUFS.with(|p| {
            let mut p = p.borrow_mut();
            if p.len() < MAX_POOLED {
                p.push(buf);
            }
        });
    }
}

// ---------------------------------------------------------------------------
// Chunk
// ---------------------------------------------------------------------------

/// A batch of rows with an optional selection vector, in one of two
/// physical layouts:
///
/// * **columnar** — a `(Arc<ColumnSet>, start, len)` window over shared
///   column vectors (table storage or a transposed batch). Scans emit
///   these without cloning a single row; kernels filter them by running
///   over primitive slices.
/// * **row-major** — a `Vec<Row>` of boxed values, used where rows are
///   genuinely built (projection output, join output, materialization
///   points).
///
/// `sel == None` means every row in the window is live. A filter never
/// moves or clones rows — it writes the **window-relative** indices of
/// surviving rows into `sel`; downstream operators iterate only the live
/// rows. Compaction to rows happens where boxed rows are needed anyway
/// (join probes, sort inputs, the row-stream adapter) via
/// [`Chunk::ensure_rows`].
#[derive(Debug, Clone)]
pub struct Chunk {
    repr: Repr,
    /// Strictly increasing window-relative indices of the live rows, if
    /// filtered.
    sel: Option<Vec<u32>>,
}

/// The physical layout of a chunk's backing storage.
#[derive(Debug, Clone)]
enum Repr {
    Rows(Vec<Row>),
    Cols(ColWindow),
}

/// A window into a shared columnar batch.
#[derive(Debug, Clone)]
struct ColWindow {
    cols: Arc<ColumnSet>,
    start: usize,
    len: usize,
}

impl Chunk {
    /// A row-major chunk with every row live.
    pub fn new(rows: Vec<Row>) -> Chunk {
        Chunk {
            repr: Repr::Rows(rows),
            sel: None,
        }
    }

    /// A columnar chunk: a `len`-row window into `cols` starting at
    /// `start`, every row live. No rows are copied.
    pub fn from_cols(cols: Arc<ColumnSet>, start: usize, len: usize) -> Chunk {
        debug_assert!(start + len <= cols.len());
        Chunk {
            repr: Repr::Cols(ColWindow { cols, start, len }),
            sel: None,
        }
    }

    /// Rows in the backing window, live or not.
    fn window_len(&self) -> usize {
        match &self.repr {
            Repr::Rows(rows) => rows.len(),
            Repr::Cols(w) => w.len,
        }
    }

    /// Number of live rows.
    pub fn len(&self) -> usize {
        match &self.sel {
            Some(sel) => sel.len(),
            None => self.window_len(),
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// True when the chunk is a columnar window (no boxed rows behind
    /// it).
    pub fn is_columnar(&self) -> bool {
        matches!(self.repr, Repr::Cols(_))
    }

    /// Convert a columnar chunk to row-major in place, materializing
    /// only the live rows (the selection vector is consumed). Row-major
    /// chunks are untouched. This is the row boundary: operators that
    /// need `&Row`s (interpreted predicates, join probes, sinks) call it
    /// once per chunk.
    pub fn ensure_rows(&mut self) {
        let Repr::Cols(w) = &self.repr else { return };
        let mut rows = pool::take_rows(self.len());
        match self.sel.take() {
            None => {
                for i in 0..w.len {
                    rows.push(w.cols.row_at(w.start + i));
                }
            }
            Some(sel) => {
                for &i in &sel {
                    rows.push(w.cols.row_at(w.start + i as usize));
                }
                pool::give_sel(sel);
            }
        }
        self.repr = Repr::Rows(rows);
    }

    /// Iterate the live rows of a **row-major** chunk in order.
    ///
    /// # Panics
    /// Panics on a columnar chunk — call [`Chunk::ensure_rows`] first
    /// (borrowed `&Row`s cannot be served from column vectors).
    pub fn iter(&self) -> ChunkIter<'_> {
        let Repr::Rows(rows) = &self.repr else {
            panic!("Chunk::iter on a columnar chunk; call ensure_rows first")
        };
        match &self.sel {
            None => ChunkIter::All(rows.iter()),
            Some(sel) => ChunkIter::Sel(rows, sel.iter()),
        }
    }

    /// Take ownership of the live rows (compacting if filtered;
    /// columnar windows materialize; discarded backing buffers go back
    /// to the thread-local pool).
    pub fn into_rows(mut self) -> Vec<Row> {
        self.ensure_rows();
        let Repr::Rows(rows) = self.repr else {
            unreachable!("ensure_rows leaves a row-major repr")
        };
        match self.sel {
            None => rows,
            Some(sel) => {
                let mut rows = rows;
                let mut out = pool::take_rows(sel.len());
                for &i in &sel {
                    out.push(std::mem::replace(&mut rows[i as usize], Row::new(vec![])));
                }
                pool::give_sel(sel);
                pool::give_rows(rows);
                out
            }
        }
    }

    /// Append the live rows to `out` and recycle the chunk's buffers —
    /// the draining counterpart of [`Chunk::into_rows`] for consumers
    /// that accumulate across chunks (collectors, derived relations).
    pub fn drain_into(mut self, out: &mut Vec<Row>) {
        let sel = self.sel.take();
        match self.repr {
            Repr::Cols(w) => match sel {
                None => {
                    out.reserve(w.len);
                    for i in 0..w.len {
                        out.push(w.cols.row_at(w.start + i));
                    }
                }
                Some(sel) => {
                    out.reserve(sel.len());
                    for &i in &sel {
                        out.push(w.cols.row_at(w.start + i as usize));
                    }
                    pool::give_sel(sel);
                }
            },
            Repr::Rows(mut rows) => match sel {
                None => {
                    out.append(&mut rows);
                    pool::give_rows(rows);
                }
                Some(sel) => {
                    out.reserve(sel.len());
                    for &i in &sel {
                        out.push(std::mem::replace(&mut rows[i as usize], Row::new(vec![])));
                    }
                    pool::give_sel(sel);
                    rows.clear();
                    pool::give_rows(rows);
                }
            },
        }
    }

    /// Drop the chunk, returning its backing buffers to the pool. Call
    /// this instead of letting a chunk fall out of scope on hot paths.
    pub fn recycle(mut self) {
        if let Some(sel) = self.sel.take() {
            pool::give_sel(sel);
        }
        if let Repr::Rows(mut rows) = self.repr {
            rows.clear();
            pool::give_rows(rows);
        }
    }

    /// Restrict the live rows by `keep`, refining the selection vector
    /// in place; no rows are moved. Columnar cells are materialized one
    /// scratch row at a time for the predicate (compiled kernels bypass
    /// this entirely via [`FilterKernel::filter_chunk`]).
    pub(crate) fn filter_in_place(&mut self, mut keep: impl FnMut(&Row) -> bool) {
        let mut sel = pool::take_sel(self.len());
        match &self.repr {
            Repr::Rows(rows) => match self.sel.take() {
                Some(old) => {
                    sel.extend(old.iter().copied().filter(|&i| keep(&rows[i as usize])));
                    pool::give_sel(old);
                }
                None => sel.extend((0..rows.len() as u32).filter(|&i| keep(&rows[i as usize]))),
            },
            Repr::Cols(w) => {
                let mut keep_at = |i: u32| keep(&w.cols.row_at(w.start + i as usize));
                match self.sel.take() {
                    Some(old) => {
                        sel.extend(old.iter().copied().filter(|&i| keep_at(i)));
                        pool::give_sel(old);
                    }
                    None => sel.extend((0..w.len as u32).filter(|&i| keep_at(i))),
                }
            }
        }
        self.sel = Some(sel);
    }

    /// Keep only the first `n` live rows (a `Limit` landing mid-chunk).
    fn truncate_live(&mut self, n: usize) {
        match &mut self.sel {
            Some(sel) => sel.truncate(n),
            None => match &mut self.repr {
                Repr::Rows(rows) => rows.truncate(n),
                Repr::Cols(w) => w.len = w.len.min(n),
            },
        }
    }

    /// Window-relative index of the `k`-th live row.
    pub(super) fn live_at(&self, k: usize) -> u32 {
        match &self.sel {
            Some(sel) => sel[k],
            None => k as u32,
        }
    }

    /// Borrow the backing row at a window-relative index (row-major
    /// chunks only; columnar callers go through [`Chunk::ensure_rows`]).
    fn row(&self, i: u32) -> &Row {
        let Repr::Rows(rows) = &self.repr else {
            panic!("Chunk::row on a columnar chunk; call ensure_rows first")
        };
        &rows[i as usize]
    }

    /// Move the backing row at a window-relative index out of the chunk
    /// (row-major chunks leave a placeholder; columnar chunks
    /// materialize the row — the window is immutable shared storage).
    pub(super) fn take_row(&mut self, i: u32) -> Row {
        match &mut self.repr {
            Repr::Rows(rows) => std::mem::replace(&mut rows[i as usize], Row::new(vec![])),
            Repr::Cols(w) => w.cols.row_at(w.start + i as usize),
        }
    }

    /// Clone the single cell at window-relative index `i`, column `c`,
    /// without materializing the row — how the join probe reads its key
    /// columns from a columnar window.
    fn cell(&self, i: u32, c: usize) -> Value {
        match &self.repr {
            Repr::Rows(rows) => rows[i as usize][c].clone(),
            Repr::Cols(w) => w.cols.value_at(c, w.start + i as usize),
        }
    }

    /// Build `row(i) ++ right` straight from the backing storage. For a
    /// columnar window the cells are cloned directly into the output
    /// row, skipping the intermediate left-row allocation that
    /// `ensure_rows` + [`Row::concat`] would pay per probe row.
    fn concat_row(&self, i: u32, right: &Row) -> Row {
        match &self.repr {
            Repr::Rows(rows) => rows[i as usize].concat(right),
            Repr::Cols(w) => {
                let at = w.start + i as usize;
                let mut vals = Vec::with_capacity(w.cols.arity() + right.arity());
                for c in 0..w.cols.arity() {
                    vals.push(w.cols.value_at(c, at));
                }
                vals.extend_from_slice(right.values());
                Row::new(vals)
            }
        }
    }
}

/// Iterator over a row-major chunk's live rows.
pub enum ChunkIter<'a> {
    All(std::slice::Iter<'a, Row>),
    Sel(&'a [Row], std::slice::Iter<'a, u32>),
}

impl<'a> Iterator for ChunkIter<'a> {
    type Item = &'a Row;

    fn next(&mut self) -> Option<&'a Row> {
        match self {
            ChunkIter::All(it) => it.next(),
            ChunkIter::Sel(rows, it) => it.next().map(|&i| &rows[i as usize]),
        }
    }
}

// ---------------------------------------------------------------------------
// Streams
// ---------------------------------------------------------------------------

/// A boxed iterator of fallible chunks — the wire between operators.
pub(crate) type BoxChunkIter<'a> = Box<dyn Iterator<Item = Result<Chunk>> + 'a>;

/// A pull-based stream of chunks produced by [`Executor::open_chunks`].
///
/// Chunks are computed on demand: dropping the stream early abandons the
/// rest of the computation. An `Err` item reports an evaluation error at
/// its position in row order; pulling past it is allowed and yields
/// whatever the underlying operators produce next.
pub struct ChunkStream<'a> {
    inner: BoxChunkIter<'a>,
}

impl<'a> ChunkStream<'a> {
    fn new(inner: BoxChunkIter<'a>) -> Self {
        ChunkStream { inner }
    }

    /// Drain the stream into a row vector, stopping at the first error.
    /// Chunk buffers are recycled as they are drained.
    pub fn collect_rows(self) -> Result<Vec<Row>> {
        let mut out = Vec::new();
        for chunk in self.inner {
            chunk?.drain_into(&mut out);
        }
        Ok(out)
    }

    /// Adapt to a row-at-a-time stream (see [`super::rows`]).
    pub fn rows(self) -> RowStream<'a> {
        RowStream::from_chunks(self.inner)
    }
}

impl Iterator for ChunkStream<'_> {
    type Item = Result<Chunk>;

    fn next(&mut self) -> Option<Self::Item> {
        self.inner.next()
    }
}

// ---------------------------------------------------------------------------
// Executor
// ---------------------------------------------------------------------------

/// Entry point of the vectorized executor.
pub struct Executor<'a> {
    db: &'a Database,
    batch: usize,
    spill: SpillOptions,
}

impl<'a> Executor<'a> {
    pub fn new(db: &'a Database) -> Self {
        Executor {
            db,
            batch: BATCH_SIZE,
            spill: SpillOptions::unlimited(),
        }
    }

    /// An executor with an explicit batch size (benchmark sweeps and
    /// memory-constrained embedders).
    pub fn with_batch_size(db: &'a Database, batch: usize) -> Self {
        Executor {
            batch: batch.max(1),
            ..Executor::new(db)
        }
    }

    /// An executor whose materialization points spill to disk under the
    /// given memory budget (see [`super::spill`]). With
    /// [`SpillOptions::unlimited`] this is exactly [`Executor::new`].
    pub fn with_spill(db: &'a Database, spill: SpillOptions) -> Self {
        Executor {
            spill,
            ..Executor::new(db)
        }
    }

    /// Replace this executor's spill options (builder style).
    pub fn spill(mut self, spill: SpillOptions) -> Self {
        self.spill = spill;
        self
    }

    /// Open a plan as a chunk stream. Arities are validated once up
    /// front; materialization points (aggregate/sort inputs, join build
    /// sides) do their buffering eagerly here, pipelined operators do no
    /// work until the stream is pulled.
    pub fn open_chunks(&self, plan: &'a Plan) -> Result<ChunkStream<'a>> {
        plan.arity(self.db)?;
        // Last verification boundary before execution: whatever
        // plan reaches the executor — optimized, cached, or hand-built —
        // is checked once more with the verifier armed.
        crate::sema::verify_plan_if_enabled(self.db, plan, "exec_open")?;
        let spill = SpillCtx::for_plan(&self.spill, plan);
        Ok(ChunkStream::new(open_node(
            self.db,
            plan,
            Batch::new(self.batch),
            &spill,
            &NodeObs::disabled(),
        )?))
    }

    /// Open a plan with per-operator profiling on: every operator's
    /// rows/chunks/time (and any spill activity) is recorded into the
    /// returned [`Profile`], whose counters are live — read them after
    /// draining the stream. This is the `EXPLAIN ANALYZE` entry point.
    pub fn open_chunks_profiled(&self, plan: &'a Plan) -> Result<(ChunkStream<'a>, Profile)> {
        plan.arity(self.db)?;
        crate::sema::verify_plan_if_enabled(self.db, plan, "exec_open_profiled")?;
        let spill = SpillCtx::for_plan(&self.spill, plan);
        let root = ProfNode::new();
        let stream = ChunkStream::new(open_node(
            self.db,
            plan,
            Batch::new(self.batch),
            &spill,
            &NodeObs::enabled(Rc::clone(&root)),
        )?);
        Ok((stream, Profile::new(root)))
    }

    /// Open a plan as a row stream (the chunked pipeline behind the
    /// row-at-a-time adapter).
    pub fn open(&self, plan: &'a Plan) -> Result<RowStream<'a>> {
        Ok(self.open_chunks(plan)?.rows())
    }
}

/// Convenience: open `plan` against `db` as a [`RowStream`] backed by the
/// vectorized executor.
pub fn stream<'a>(db: &'a Database, plan: &'a Plan) -> Result<RowStream<'a>> {
    Executor::new(db).open(plan)
}

/// Convenience: open `plan` against `db` as a [`ChunkStream`].
pub fn stream_chunks<'a>(db: &'a Database, plan: &'a Plan) -> Result<ChunkStream<'a>> {
    Executor::new(db).open_chunks(plan)
}

// ---------------------------------------------------------------------------
// Filter kernels
// ---------------------------------------------------------------------------

/// A compiled `column op literal` filter: the columnar kernel a chunked
/// `Selection` runs instead of interpreting the `Expr` tree per row.
///
/// The specialized variants replicate [`Value`]'s cross-type total order
/// (`Null < Bool < Int < Str`) exactly, so a kernel and the interpreter
/// always agree. Comparisons never yield non-boolean values, so kernels
/// are infallible.
pub(crate) enum ColLitKernel {
    EqInt(usize, i64),
    LtInt(usize, i64),
    LeInt(usize, i64),
    EqStr(usize, Arc<str>),
    LtStr(usize, Arc<str>),
    LeStr(usize, Arc<str>),
    /// Any other `column op literal` comparison: still a tight loop over
    /// [`CmpOp::eval`], just without the specialized match.
    Cmp(usize, CmpOp, Value),
}

impl ColLitKernel {
    /// Compile a predicate if it is a single `col op lit` comparison (in
    /// either operand order).
    pub(crate) fn compile(pred: &Expr) -> Option<ColLitKernel> {
        let Expr::Cmp(op, a, b) = pred else {
            return None;
        };
        let (col, lit, op) = match (a.as_ref(), b.as_ref()) {
            (Expr::Col(c), Expr::Lit(v)) => (*c, v, *op),
            (Expr::Lit(v), Expr::Col(c)) => (*c, v, op.flip()),
            _ => return None,
        };
        Some(match (op, lit) {
            (CmpOp::Eq, Value::Int(i)) => ColLitKernel::EqInt(col, *i),
            (CmpOp::Lt, Value::Int(i)) => ColLitKernel::LtInt(col, *i),
            (CmpOp::Le, Value::Int(i)) => ColLitKernel::LeInt(col, *i),
            (CmpOp::Eq, Value::Str(s)) => ColLitKernel::EqStr(col, Arc::clone(s)),
            (CmpOp::Lt, Value::Str(s)) => ColLitKernel::LtStr(col, Arc::clone(s)),
            (CmpOp::Le, Value::Str(s)) => ColLitKernel::LeStr(col, Arc::clone(s)),
            _ => ColLitKernel::Cmp(col, op, lit.clone()),
        })
    }

    /// Deterministic label for `EXPLAIN`'s `[vectorized]` annotation.
    pub(crate) fn label(&self) -> &'static str {
        match self {
            ColLitKernel::EqInt(..) => "eq:int",
            ColLitKernel::LtInt(..) => "lt:int",
            ColLitKernel::LeInt(..) => "le:int",
            ColLitKernel::EqStr(..) => "eq:str",
            ColLitKernel::LtStr(..) => "lt:str",
            ColLitKernel::LeStr(..) => "le:str",
            ColLitKernel::Cmp(..) => "cmp:lit",
        }
    }

    /// The column this kernel reads.
    fn col(&self) -> usize {
        match self {
            ColLitKernel::EqInt(c, _)
            | ColLitKernel::LtInt(c, _)
            | ColLitKernel::LeInt(c, _)
            | ColLitKernel::EqStr(c, _)
            | ColLitKernel::LtStr(c, _)
            | ColLitKernel::LeStr(c, _)
            | ColLitKernel::Cmp(c, _, _) => *c,
        }
    }

    /// The kernel's predicate on one boxed cell value (the row-major
    /// path, and `Mixed` columns of the columnar path).
    #[inline]
    fn test_value(&self, v: &Value) -> bool {
        match self {
            ColLitKernel::EqInt(_, k) => matches!(v, Value::Int(x) if x == k),
            // Cross-type order: Null and Bool rank below Int, Str above.
            ColLitKernel::LtInt(_, k) => match v {
                Value::Int(x) => x < k,
                Value::Null | Value::Bool(_) => true,
                Value::Str(_) => false,
            },
            ColLitKernel::LeInt(_, k) => match v {
                Value::Int(x) => x <= k,
                Value::Null | Value::Bool(_) => true,
                Value::Str(_) => false,
            },
            ColLitKernel::EqStr(_, s) => matches!(v, Value::Str(x) if **x == **s),
            // Null, Bool, and Int all rank below Str.
            ColLitKernel::LtStr(_, s) => match v {
                Value::Str(x) => **x < **s,
                _ => true,
            },
            ColLitKernel::LeStr(_, s) => match v {
                Value::Str(x) => **x <= **s,
                _ => true,
            },
            ColLitKernel::Cmp(_, op, lit) => op.eval(v, lit),
        }
    }

    #[inline]
    pub(crate) fn test(&self, row: &Row) -> bool {
        self.test_value(&row[self.col()])
    }

    /// One selection-vector pass over a columnar window: retain the
    /// window-relative indices in `sel` whose cell satisfies the kernel,
    /// reading primitive slices directly — no `Value` is materialized on
    /// any typed column. The per-column-type arms replicate the
    /// cross-type total order (`Null < Bool < Int < Str`) exactly, so a
    /// whole pass can collapse to "keep everything" (e.g. `< int` over a
    /// `Bool` column) or "drop everything" (`= str` over an `Int`
    /// column) without touching a single cell.
    fn filter_sel(&self, cols: &ColumnSet, start: usize, sel: &mut Vec<u32>) {
        let col = cols.col(self.col());
        match (self, col) {
            // --- int-literal kernels ---
            (ColLitKernel::EqInt(_, k), Column::Int { vals, validity }) => sel.retain(|&i| {
                let j = start + i as usize;
                is_valid(validity, j) && vals[j] == *k
            }),
            (ColLitKernel::EqInt(..), Column::Mixed(vals)) => self.retain_mixed(vals, start, sel),
            // NULL, Bool, and Str cells never equal an int literal.
            (ColLitKernel::EqInt(..), _) => sel.clear(),
            (ColLitKernel::LtInt(_, k), Column::Int { vals, validity }) => sel.retain(|&i| {
                let j = start + i as usize;
                // NULL ranks below every int, so invalid cells pass.
                !is_valid(validity, j) || vals[j] < *k
            }),
            (ColLitKernel::LeInt(_, k), Column::Int { vals, validity }) => sel.retain(|&i| {
                let j = start + i as usize;
                !is_valid(validity, j) || vals[j] <= *k
            }),
            // NULL and Bool cells all rank below any int literal.
            (
                ColLitKernel::LtInt(..) | ColLitKernel::LeInt(..),
                Column::Null(_) | Column::Bool { .. },
            ) => {}
            // Str cells rank above ints: only the NULL cells pass.
            (ColLitKernel::LtInt(..) | ColLitKernel::LeInt(..), Column::Str { validity, .. }) => {
                match validity {
                    None => sel.clear(),
                    Some(v) => sel.retain(|&i| !v.get(start + i as usize)),
                }
            }
            (ColLitKernel::LtInt(..) | ColLitKernel::LeInt(..), Column::Mixed(vals)) => {
                self.retain_mixed(vals, start, sel)
            }
            // --- string-literal kernels ---
            // `= lit` over a dictionary column: one binary search, then a
            // code-equality loop.
            (
                ColLitKernel::EqStr(_, s),
                Column::Str {
                    dict,
                    codes,
                    validity,
                },
            ) => match column::dict_code(dict, s) {
                None => sel.clear(),
                Some(code) => sel.retain(|&i| {
                    let j = start + i as usize;
                    is_valid(validity, j) && codes[j] == code
                }),
            },
            (ColLitKernel::EqStr(..), Column::Mixed(vals)) => self.retain_mixed(vals, start, sel),
            (ColLitKernel::EqStr(..), _) => sel.clear(),
            // `< lit` / `<= lit`: the sorted dictionary turns the string
            // comparison into a code bound (code order is string order).
            (
                ColLitKernel::LtStr(_, s),
                Column::Str {
                    dict,
                    codes,
                    validity,
                },
            ) => {
                let bound = column::dict_lower_bound(dict, s);
                sel.retain(|&i| {
                    let j = start + i as usize;
                    !is_valid(validity, j) || codes[j] < bound
                });
            }
            (
                ColLitKernel::LeStr(_, s),
                Column::Str {
                    dict,
                    codes,
                    validity,
                },
            ) => {
                let bound = column::dict_upper_bound(dict, s);
                sel.retain(|&i| {
                    let j = start + i as usize;
                    !is_valid(validity, j) || codes[j] < bound
                });
            }
            (ColLitKernel::LtStr(..) | ColLitKernel::LeStr(..), Column::Mixed(vals)) => {
                self.retain_mixed(vals, start, sel)
            }
            // NULL, Bool, and Int cells all rank below any string.
            (ColLitKernel::LtStr(..) | ColLitKernel::LeStr(..), _) => {}
            // --- generic comparison ---
            (ColLitKernel::Cmp(_, op, v), Column::Mixed(vals)) => {
                sel.retain(|&i| op.eval(&vals[start + i as usize], v))
            }
            (ColLitKernel::Cmp(c, op, v), _) => {
                sel.retain(|&i| op.eval(&cols.value_at(*c, start + i as usize), v))
            }
        }
    }

    /// The `Mixed`-column pass: boxed cells, same per-value predicate as
    /// the row-major path.
    fn retain_mixed(&self, vals: &[Value], start: usize, sel: &mut Vec<u32>) {
        sel.retain(|&i| self.test_value(&vals[start + i as usize]));
    }
}

/// Validity check for an unboxed column: `None` means every cell valid.
#[inline]
fn is_valid(validity: &Option<column::Bitmap>, j: usize) -> bool {
    validity.as_ref().is_none_or(|v| v.get(j))
}

/// A compiled filter: either one `col op lit` kernel or a **fused
/// conjunction** of them. An `AND` whose every conjunct is a col-op-lit
/// comparison no longer falls back to the row-wise `Expr` interpreter —
/// it runs as a sequence of selection-vector kernel passes, each pass
/// refining the survivors of the previous one (so later kernels only
/// visit rows the earlier ones kept).
pub(crate) enum FilterKernel {
    One(ColLitKernel),
    And(Vec<ColLitKernel>),
}

impl FilterKernel {
    /// Compile a predicate if it is a col-op-lit comparison or a flat
    /// conjunction of them.
    pub(crate) fn compile(pred: &Expr) -> Option<FilterKernel> {
        if let Some(k) = ColLitKernel::compile(pred) {
            return Some(FilterKernel::One(k));
        }
        if let Expr::And(parts) = pred {
            if parts.len() >= 2 {
                let kernels: Option<Vec<ColLitKernel>> =
                    parts.iter().map(ColLitKernel::compile).collect();
                return kernels.map(FilterKernel::And);
            }
        }
        None
    }

    /// Deterministic label for `EXPLAIN` (`eq:int`,
    /// `and[eq:int,lt:int]`, ...).
    pub(crate) fn label(&self) -> String {
        match self {
            FilterKernel::One(k) => k.label().to_string(),
            FilterKernel::And(ks) => {
                let parts: Vec<&str> = ks.iter().map(|k| k.label()).collect();
                format!("and[{}]", parts.join(","))
            }
        }
    }

    #[cfg(test)]
    fn test(&self, row: &Row) -> bool {
        match self {
            FilterKernel::One(k) => k.test(row),
            FilterKernel::And(ks) => ks.iter().all(|k| k.test(row)),
        }
    }

    /// Run the kernel over a chunk as selection-vector passes: one pass
    /// for a single comparison, one per conjunct for a fused `AND`.
    /// Columnar chunks run the passes over primitive column slices
    /// ([`ColLitKernel::filter_sel`]); later `AND` passes only visit the
    /// survivors of earlier ones.
    fn filter_chunk(&self, chunk: &mut Chunk) {
        if let Repr::Cols(w) = &chunk.repr {
            let mut sel = match chunk.sel.take() {
                Some(sel) => sel,
                None => {
                    let mut sel = pool::take_sel(w.len);
                    sel.extend(0..w.len as u32);
                    sel
                }
            };
            match self {
                FilterKernel::One(k) => k.filter_sel(&w.cols, w.start, &mut sel),
                FilterKernel::And(ks) => {
                    for k in ks {
                        if sel.is_empty() {
                            break;
                        }
                        k.filter_sel(&w.cols, w.start, &mut sel);
                    }
                }
            }
            chunk.sel = Some(sel);
            return;
        }
        match self {
            FilterKernel::One(k) => chunk.filter_in_place(|row| k.test(row)),
            FilterKernel::And(ks) => {
                for k in ks {
                    if chunk.is_empty() {
                        break;
                    }
                    chunk.filter_in_place(|row| k.test(row));
                }
            }
        }
    }
}

/// The kernel label a chunked `Selection` would use for this predicate,
/// or `None` when it falls back to the row-wise interpreter. Used by
/// `EXPLAIN` so the rendered plan reports what the executor will do.
pub(crate) fn selection_kernel_label(pred: &Expr) -> Option<String> {
    FilterKernel::compile(pred).map(|k| k.label())
}

// ---------------------------------------------------------------------------
// Plan compilation
// ---------------------------------------------------------------------------

/// The batch size in effect while compiling a subtree.
///
/// `configured` is the executor's batch size ([`Executor::with_batch_size`]
/// or [`BATCH_SIZE`]); `effective` is what pipelined operators in the
/// current subtree actually use — a `Limit n` caps it at `n` so
/// first-rows queries pull right-sized batches. Materialization points
/// (Aggregate, Sort, join build and cross-join right sides) consume
/// their whole input regardless of any Limit above, so they restore
/// `effective` to `configured` — never to a hard-coded constant, which
/// would override the embedder's configured bound.
#[derive(Clone, Copy)]
struct Batch {
    configured: usize,
    effective: usize,
}

impl Batch {
    fn new(configured: usize) -> Batch {
        Batch {
            configured,
            effective: configured,
        }
    }

    /// Cap the effective size (a `Limit n` subtree).
    fn capped(self, n: usize) -> Batch {
        Batch {
            effective: self.effective.min(n.max(1)),
            ..self
        }
    }

    /// Restore the configured size (a materialization point's input).
    fn full(self) -> Batch {
        Batch {
            effective: self.configured,
            ..self
        }
    }
}

fn open_node<'a>(
    db: &'a Database,
    plan: &'a Plan,
    batch: Batch,
    spill: &SpillCtx,
    obs: &NodeObs,
) -> Result<BoxChunkIter<'a>> {
    // Children are opened under `obs.child(slot)` where `slot` is the
    // plan-child index (left = 0, right = 1, union input = i); the
    // profile renderer walks plan and profile in slot lockstep.
    let iter: BoxChunkIter<'a> = match plan {
        Plan::Scan { table } => match db.table(table) {
            Ok(t) => {
                t.note_seq_scan(t.len() as u64);
                chunked_cols(t.columnar(), batch.effective)
            }
            // Virtual (`sys.*`) relation: snapshot the provider's rows
            // into a ColumnSet at open time and stream it through the
            // same chunked path as a base-table scan.
            Err(e) => {
                let Some(vt) = db.virtual_table(table) else {
                    return Err(e);
                };
                let rows = vt.rows(db);
                let refs: Vec<&Row> = rows.iter().collect();
                let set = Arc::new(ColumnSet::from_rows(vt.schema().arity(), &refs));
                chunked_cols(set, batch.effective)
            }
        },
        Plan::Values { rows, .. } => chunked_rows(rows.iter().cloned(), batch.effective),
        Plan::Selection { input, predicate } => {
            open_selection(db, input, predicate, batch, spill, obs)?
        }
        Plan::Projection { input, exprs } => {
            let arity = input.arity(db)?;
            let input = open_node(db, input, batch, spill, &obs.child(0))?;
            // All-column projections compile to an infallible Projector
            // validated here, once; the per-row Result disappears.
            let cols: Option<Vec<usize>> = exprs
                .iter()
                .map(|e| match e {
                    Expr::Col(c) => Some(*c),
                    _ => None,
                })
                .collect();
            if let Some(cols) = cols {
                let proj = Projector::new(cols, arity)?;
                Box::new(ProjectChunks { input, proj })
            } else {
                map_chunks(input, batch.effective, move |row, out| {
                    let mut vals = Vec::with_capacity(exprs.len());
                    for e in exprs {
                        vals.push(e.eval(row)?);
                    }
                    out.push(Row::new(vals));
                    Ok(())
                })
            }
        }
        Plan::Join {
            left,
            right,
            on,
            residual,
        } => open_join(db, left, right, on, residual.as_ref(), batch, spill, obs)?,
        Plan::AntiJoin {
            left,
            right,
            on,
            residual,
        } => open_anti_join(db, left, right, on, residual.as_ref(), batch, spill, obs)?,
        Plan::Distinct { input } => {
            let input = open_node(db, input, batch, spill, &obs.child(0))?;
            match spill.per_point {
                // Unlimited: the pre-existing streaming seen-set.
                None => {
                    let mut seen: HashSet<Row> = HashSet::new();
                    filter_chunks(input, move |row| Ok(seen.insert(row.clone())))
                }
                // Budgeted: stream identically while the seen-set fits,
                // partition to disk past the budget.
                Some(budget) => Box::new(spill::SpillDistinct::new(
                    input,
                    budget,
                    &spill.dir,
                    batch.effective,
                    obs.spill_prof(),
                )),
            }
        }
        Plan::Union { inputs } => {
            let mut streams = Vec::with_capacity(inputs.len());
            for (i, p) in inputs.iter().enumerate() {
                streams.push(open_node(db, p, batch, spill, &obs.child(i))?);
            }
            Box::new(streams.into_iter().flatten())
        }
        Plan::Aggregate {
            input,
            group_by,
            aggs,
        } => {
            // Materialization point: the accumulators must see every input
            // row, but only one row per group is ever held. The input runs
            // at the executor's full batch size regardless of any Limit
            // above (the aggregate consumes everything anyway).
            let input = open_node(db, input, batch.full(), spill, &obs.child(0))?;
            match spill.per_point {
                None => {
                    let rows = aggregate_stream(ChunkStream::new(input).rows(), group_by, aggs)?;
                    chunked_owned(rows, batch.effective)
                }
                // Budgeted: partial accumulators partition to disk when
                // the group table exceeds its share.
                Some(budget) => spill::grace_aggregate(
                    input,
                    group_by,
                    aggs,
                    budget,
                    &spill.dir,
                    batch.effective,
                    obs.spill_prof(),
                )?,
            }
        }
        Plan::Sort { input, by } => {
            // Materialization point.
            let input = open_node(db, input, batch.full(), spill, &obs.child(0))?;
            match spill.per_point {
                None => {
                    let mut rows = ChunkStream::new(input).collect_rows()?;
                    rows.sort_by(|a, b| spill::cmp_by(by, a, b));
                    chunked_owned(rows, batch.effective)
                }
                // Budgeted: sorted run generation + k-way merge. Produces
                // the identical (stable) order.
                Some(budget) => spill::external_sort(
                    input,
                    by,
                    budget,
                    &spill.dir,
                    batch.effective,
                    obs.spill_prof(),
                )?,
            }
        }
        Plan::Limit { input, n } => {
            // Cap the subtree's batch size at n: a first-rows query pulls
            // one right-sized batch through the pipeline instead of a full
            // one (materialization points below reset to the full batch).
            let input = open_node(db, input, batch.capped(*n), spill, &obs.child(0))?;
            Box::new(LimitChunks {
                input,
                remaining: *n,
            })
        }
    };
    Ok(obs.wrap(iter))
}

/// First-chunk size of the leaf ramp-up: scans and literal relations
/// start with a small batch and double up to the configured size, so a
/// first-rows consumer (`Limit`, an abandoned stream) touches tens of
/// rows, not a full batch, while steady-state throughput still runs at
/// `batch`.
const RAMP_START: usize = 32;

/// Gather the rows of a literal relation into batches, lazily, ramping
/// the chunk size up from [`RAMP_START`] to `batch`. Batch buffers come
/// from the thread-local pool.
fn chunked_rows<'a>(iter: impl Iterator<Item = Row> + 'a, batch: usize) -> BoxChunkIter<'a> {
    let mut iter = iter.peekable();
    let mut size = RAMP_START.min(batch);
    Box::new(std::iter::from_fn(move || {
        iter.peek()?;
        let mut rows = pool::take_rows(size);
        rows.extend(iter.by_ref().take(size));
        size = (size * 2).min(batch);
        metrics().add(Metric::RowsScanned, rows.len() as u64);
        Some(Ok(Chunk::new(rows)))
    }))
}

/// Slice a columnar batch into window chunks without touching a single
/// row, ramping the chunk size up from [`RAMP_START`] to `batch` exactly
/// like [`chunked_rows`]. Each chunk is an `Arc` clone plus two offsets.
fn chunked_cols<'a>(cols: Arc<ColumnSet>, batch: usize) -> BoxChunkIter<'a> {
    let total = cols.len();
    let mut start = 0usize;
    let mut size = RAMP_START.min(batch);
    Box::new(std::iter::from_fn(move || {
        if start >= total {
            return None;
        }
        let n = size.min(total - start);
        let chunk = Chunk::from_cols(Arc::clone(&cols), start, n);
        start += n;
        size = (size * 2).min(batch);
        metrics().add(Metric::RowsScanned, n as u64);
        metrics().incr(Metric::ColumnarChunks);
        Some(Ok(chunk))
    }))
}

/// Batch an owned row vector (materialization-point outputs). A vector
/// that fits one batch is passed through as-is — no copy, no split.
pub(crate) fn chunked_owned<'a>(rows: Vec<Row>, batch: usize) -> BoxChunkIter<'a> {
    if rows.len() <= batch {
        if rows.is_empty() {
            return Box::new(std::iter::empty());
        }
        return Box::new(std::iter::once(Ok(Chunk::new(rows))));
    }
    let mut iter = rows.into_iter().peekable();
    Box::new(std::iter::from_fn(move || {
        iter.peek()?;
        let mut rows = pool::take_rows(batch);
        rows.extend(iter.by_ref().take(batch));
        Some(Ok(Chunk::new(rows)))
    }))
}

// ---------------------------------------------------------------------------
// Selection
// ---------------------------------------------------------------------------

fn open_selection<'a>(
    db: &'a Database,
    input: &'a Plan,
    predicate: &'a Expr,
    batch: Batch,
    spill: &SpillCtx,
    obs: &NodeObs,
) -> Result<BoxChunkIter<'a>> {
    // Index access path: a selection directly over a scan whose predicate
    // pins indexed columns fetches candidates through the index (a small,
    // already-filtered set). Virtual (`sys.*`) scans have no indexes or
    // columnar cache: they fall through to the generic path below.
    if let Plan::Scan { table } = input {
        if let Ok(t) = db.table(table) {
            if let Some(rows) = try_index_selection(t, predicate)? {
                if let Some(n) = obs.node() {
                    bump(&n.rows_in, rows.len() as u64);
                }
                return Ok(chunked_owned(rows, batch.effective));
            }
            t.note_seq_scan(t.len() as u64);
            // Filter-over-scan fusion: slice the table's column vectors
            // into windows and run the kernel's selection-vector passes
            // over primitive slices — no row is cloned or materialized
            // anywhere, survivors included.
            if let Some(kernel) = FilterKernel::compile(predicate) {
                let prof = obs.spill_prof();
                return Ok(Box::new(
                    chunked_cols(t.columnar(), batch.effective).filter_map(
                        move |item| match item {
                            Ok(mut chunk) => {
                                if let Some(n) = &prof {
                                    bump(&n.rows_in, chunk.len() as u64);
                                    bump(&n.kernel_rows, chunk.len() as u64);
                                }
                                kernel.filter_chunk(&mut chunk);
                                if chunk.is_empty() {
                                    chunk.recycle();
                                    return None;
                                }
                                Some(Ok(chunk))
                            }
                            Err(e) => Some(Err(e)),
                        },
                    ),
                ));
            }
            let rows = t.iter().map(|(_, r)| r);
            let prof = obs.spill_prof();
            return Ok(filtered_scan(
                rows.inspect(move |_| {
                    if let Some(n) = &prof {
                        bump(&n.rows_in, 1);
                        bump(&n.fallback_rows, 1);
                    }
                }),
                predicate,
                batch.effective,
            ));
        }
    }
    let input = open_node(db, input, batch, spill, &obs.child(0))?;
    if let Some(kernel) = FilterKernel::compile(predicate) {
        // Kernel filters are infallible: pure selection-vector updates
        // (a fused AND runs one pass per conjunct).
        let prof = obs.spill_prof();
        return Ok(Box::new(input.filter_map(move |item| match item {
            Ok(mut chunk) => {
                if let Some(n) = &prof {
                    bump(&n.rows_in, chunk.len() as u64);
                    bump(&n.kernel_rows, chunk.len() as u64);
                }
                kernel.filter_chunk(&mut chunk);
                (!chunk.is_empty()).then_some(Ok(chunk))
            }
            Err(e) => Some(Err(e)),
        })));
    }
    let prof = obs.spill_prof();
    Ok(filter_chunks(input, move |row| {
        if let Some(n) = &prof {
            bump(&n.rows_in, 1);
            bump(&n.fallback_rows, 1);
        }
        predicate.eval_bool(row)
    }))
}

/// Interpreter filter over scan rows with error splitting: rows before a
/// failing row are emitted ahead of the error, and scanning resumes
/// behind it.
fn filtered_scan<'a>(
    rows: impl Iterator<Item = Row> + 'a,
    predicate: &'a Expr,
    batch: usize,
) -> BoxChunkIter<'a> {
    let mut refs = rows.peekable();
    let mut pending: VecDeque<Result<Chunk>> = VecDeque::new();
    Box::new(std::iter::from_fn(move || loop {
        if let Some(item) = pending.pop_front() {
            return Some(item);
        }
        refs.peek()?;
        let mut out: Vec<Row> = pool::take_rows(batch.min(RAMP_START));
        for row in refs.by_ref() {
            match predicate.eval_bool(&row) {
                Ok(true) => {
                    out.push(row);
                    if out.len() >= batch {
                        break;
                    }
                }
                Ok(false) => {}
                Err(e) => {
                    if !out.is_empty() {
                        pending.push_back(Ok(Chunk::new(std::mem::take(&mut out))));
                    }
                    pending.push_back(Err(e));
                    break;
                }
            }
        }
        if !out.is_empty() {
            pending.push_back(Ok(Chunk::new(out)));
        }
    }))
}

/// Selection-vector filter with a fallible per-row predicate.
///
/// Clean chunks (the overwhelmingly common case) are filtered in place —
/// only the selection vector is written. A chunk containing failing rows
/// is split: passing rows before each error are emitted (cloned) ahead
/// of it, preserving tuple-at-a-time error order.
fn filter_chunks<'a>(
    input: BoxChunkIter<'a>,
    mut pred: impl FnMut(&Row) -> Result<bool> + 'a,
) -> BoxChunkIter<'a> {
    let mut input = input;
    let mut pending: VecDeque<Result<Chunk>> = VecDeque::new();
    Box::new(std::iter::from_fn(move || loop {
        if let Some(item) = pending.pop_front() {
            return Some(item);
        }
        match input.next()? {
            Err(e) => return Some(Err(e)),
            Ok(mut chunk) => {
                // Fallible predicates want `&Row`s: materialize columnar
                // windows once per chunk (live rows only).
                chunk.ensure_rows();
                let n = chunk.len();
                let mut sel = pool::take_sel(n);
                let mut first_err = None;
                let mut k = 0;
                while k < n {
                    let i = chunk.live_at(k);
                    match pred(chunk.row(i)) {
                        Ok(true) => sel.push(i),
                        Ok(false) => {}
                        Err(e) => {
                            first_err = Some(e);
                            k += 1;
                            break;
                        }
                    }
                    k += 1;
                }
                let Some(first_err) = first_err else {
                    // Clean chunk (the overwhelmingly common case):
                    // only the selection vector changes hands.
                    if sel.is_empty() {
                        pool::give_sel(sel);
                        chunk.recycle();
                        continue;
                    }
                    if let Some(old) = chunk.sel.take() {
                        pool::give_sel(old);
                    }
                    chunk.sel = Some(sel);
                    return Some(Ok(chunk));
                };
                // Rare error path: emit the passing prefix (rows moved
                // out — the chunk is recycled below), then the error,
                // then keep splitting the remainder in row order.
                let emit_segment =
                    |sel: &mut Vec<u32>,
                     chunk: &mut Chunk,
                     pending: &mut VecDeque<Result<Chunk>>| {
                        if sel.is_empty() {
                            return;
                        }
                        let mut rows = pool::take_rows(sel.len());
                        rows.extend(sel.drain(..).map(|i| chunk.take_row(i)));
                        pending.push_back(Ok(Chunk::new(rows)));
                    };
                emit_segment(&mut sel, &mut chunk, &mut pending);
                pending.push_back(Err(first_err));
                while k < n {
                    let i = chunk.live_at(k);
                    match pred(chunk.row(i)) {
                        Ok(true) => sel.push(i),
                        Ok(false) => {}
                        Err(e) => {
                            emit_segment(&mut sel, &mut chunk, &mut pending);
                            pending.push_back(Err(e));
                        }
                    }
                    k += 1;
                }
                emit_segment(&mut sel, &mut chunk, &mut pending);
                pool::give_sel(sel);
                chunk.recycle();
            }
        }
    }))
}

/// Fallible per-row flat-map over chunks: `f` pushes zero or more output
/// rows per live input row. Output flushes the moment a `batch`-sized
/// chunk fills — **mid-input-chunk** — and processing resumes from the
/// saved position on the next pull, so a satisfied `Limit` downstream
/// never pays for the rest of the batch (first-rows latency does not
/// regress under chunking). An error splits the output so rows produced
/// before it are emitted first (tuple-at-a-time error order).
fn map_chunks<'a>(
    input: BoxChunkIter<'a>,
    batch: usize,
    mut f: impl FnMut(&Row, &mut Vec<Row>) -> Result<()> + 'a,
) -> BoxChunkIter<'a> {
    map_cells(input, batch, true, move |chunk, i, out| {
        f(chunk.row(i), out)
    })
}

/// Like [`map_chunks`] but hands the closure `(chunk, window index)`
/// instead of a materialized `&Row`, so a columnar-aware consumer (the
/// hash-join probe) can read just the cells it needs via
/// [`Chunk::cell`] and keep the window unmaterialized. `materialize`
/// preserves the row-major guarantee for closures that call
/// [`Chunk::row`].
fn map_cells<'a>(
    input: BoxChunkIter<'a>,
    batch: usize,
    materialize: bool,
    f: impl FnMut(&Chunk, u32, &mut Vec<Row>) -> Result<()> + 'a,
) -> BoxChunkIter<'a> {
    Box::new(MapChunks {
        input,
        f,
        batch,
        materialize,
        pending: VecDeque::new(),
        current: None,
        out: Vec::new(),
        done: false,
    })
}

struct MapChunks<'a, F> {
    input: BoxChunkIter<'a>,
    f: F,
    batch: usize,
    /// Convert incoming columnar windows to rows up front (required by
    /// closures that borrow `&Row`s via [`Chunk::row`]).
    materialize: bool,
    /// Emitted-but-not-yet-pulled items, in row order.
    pending: VecDeque<Result<Chunk>>,
    /// The partially processed input chunk and the next live position —
    /// resumption state for mid-chunk flushes.
    current: Option<(Chunk, usize)>,
    /// Output rows accumulated toward the next batch (carried across
    /// input chunks so output chunks stay full).
    out: Vec<Row>,
    done: bool,
}

impl<F: FnMut(&Chunk, u32, &mut Vec<Row>) -> Result<()>> Iterator for MapChunks<'_, F> {
    type Item = Result<Chunk>;

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            if let Some(item) = self.pending.pop_front() {
                return Some(item);
            }
            if let Some((chunk, pos)) = &mut self.current {
                let n = chunk.len();
                while *pos < n {
                    let i = chunk.live_at(*pos);
                    *pos += 1;
                    match (self.f)(chunk, i, &mut self.out) {
                        Ok(()) => {
                            if self.out.len() >= self.batch {
                                let out =
                                    std::mem::replace(&mut self.out, pool::take_rows(self.batch));
                                self.pending.push_back(Ok(Chunk::new(out)));
                                break;
                            }
                        }
                        Err(e) => {
                            if !self.out.is_empty() {
                                let out =
                                    std::mem::replace(&mut self.out, pool::take_rows(self.batch));
                                self.pending.push_back(Ok(Chunk::new(out)));
                            }
                            self.pending.push_back(Err(e));
                            break;
                        }
                    }
                }
                if self
                    .current
                    .as_ref()
                    .is_some_and(|(chunk, pos)| *pos >= chunk.len())
                {
                    if let Some((chunk, _)) = self.current.take() {
                        chunk.recycle();
                    }
                }
                continue;
            }
            if self.done {
                return None;
            }
            match self.input.next() {
                None => {
                    self.done = true;
                    if !self.out.is_empty() {
                        return Some(Ok(Chunk::new(std::mem::take(&mut self.out))));
                    }
                    return None;
                }
                Some(Err(e)) => {
                    // Flush accumulated output first: it precedes the
                    // error in row order.
                    if !self.out.is_empty() {
                        let out = std::mem::replace(&mut self.out, pool::take_rows(self.batch));
                        self.pending.push_back(Ok(Chunk::new(out)));
                    }
                    self.pending.push_back(Err(e));
                }
                Some(Ok(mut chunk)) => {
                    // `&Row`-borrowing closures need row-major storage:
                    // materialize columnar windows once per chunk.
                    if self.materialize {
                        chunk.ensure_rows();
                    }
                    self.current = Some((chunk, 0));
                }
            }
        }
    }
}

/// Precompiled all-column projection: one infallible clone loop per
/// chunk, compacting as it goes.
struct ProjectChunks<'a> {
    input: BoxChunkIter<'a>,
    proj: Projector,
}

impl Iterator for ProjectChunks<'_> {
    type Item = Result<Chunk>;

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            match self.input.next()? {
                Err(e) => return Some(Err(e)),
                Ok(chunk) => {
                    if chunk.is_empty() {
                        chunk.recycle();
                        continue;
                    }
                    let mut rows = pool::take_rows(chunk.len());
                    match &chunk.repr {
                        // Columnar input: gather straight from the
                        // projected columns — untouched columns are
                        // never read, dropped rows never materialized.
                        Repr::Cols(w) => {
                            let idx = self.proj.indices();
                            for k in 0..chunk.len() {
                                let i = w.start + chunk.live_at(k) as usize;
                                rows.push(Row::new(idx.iter().map(|&c| w.cols.value_at(c, i))));
                            }
                        }
                        Repr::Rows(_) => {
                            for row in chunk.iter() {
                                rows.push(self.proj.apply(row));
                            }
                        }
                    }
                    chunk.recycle();
                    return Some(Ok(Chunk::new(rows)));
                }
            }
        }
    }
}

/// `Limit`: pass chunks through, truncating the one that crosses the
/// boundary; once satisfied, upstream is never pulled again. An error
/// consumes one of the remaining slots, exactly like the row executor's
/// `take(n)` over an `Iterator<Item = Result<Row>>` — a consumer
/// pulling past errors sees the same item sequence from both executors.
struct LimitChunks<'a> {
    input: BoxChunkIter<'a>,
    remaining: usize,
}

impl Iterator for LimitChunks<'_> {
    type Item = Result<Chunk>;

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            if self.remaining == 0 {
                return None;
            }
            match self.input.next()? {
                Err(e) => {
                    self.remaining -= 1;
                    return Some(Err(e));
                }
                Ok(mut chunk) => {
                    let n = chunk.len();
                    if n == 0 {
                        chunk.recycle();
                        continue;
                    }
                    if n <= self.remaining {
                        self.remaining -= n;
                    } else {
                        chunk.truncate_live(self.remaining);
                        self.remaining = 0;
                    }
                    return Some(Ok(chunk));
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Joins
// ---------------------------------------------------------------------------

/// The right side of a join as a base-table access: `(table, selection)`
/// for a `Scan`, or a `Selection` directly over one — the shape the
/// index-nested-loop paths of both executors can probe.
pub(super) fn base_access(plan: &Plan) -> Option<(&str, Option<&Expr>)> {
    match plan {
        Plan::Scan { table } => Some((table, None)),
        Plan::Selection { input, predicate } => match input.as_ref() {
            Plan::Scan { table } => Some((table, Some(predicate))),
            _ => None,
        },
        _ => None,
    }
}

#[allow(clippy::too_many_arguments)]
fn open_join<'a>(
    db: &'a Database,
    left: &'a Plan,
    right: &'a Plan,
    on: &'a [(usize, usize)],
    residual: Option<&'a Expr>,
    batch: Batch,
    spill: &SpillCtx,
    obs: &NodeObs,
) -> Result<BoxChunkIter<'a>> {
    if !on.is_empty() {
        // Base tables only: virtual (`sys.*`) relations have no indexes,
        // so they take the generic hash-join path below.
        if let Some((table_name, pred)) = base_access(right).filter(|(n, _)| db.has_table(n)) {
            let table = db.table(table_name)?;
            let rcols: Vec<usize> = on.iter().map(|&(_, rc)| rc).collect();
            let pk_path = table.schema().key_column() == Some(0) && rcols == [0];
            let index = if pk_path {
                None
            } else {
                table
                    .find_index_for(&rcols)
                    .map(|(name, order)| (name.to_string(), order.to_vec()))
            };
            if pk_path || index.is_some() {
                // Adaptive index-nested-loop: buffer left rows (by whole
                // chunks) up to the break-even point of the materializing
                // heuristic (`4·|left| ≤ |table|`) — and, under a memory
                // budget, no further than this join's byte share (the
                // buffered left side is materialized state like any
                // other; past the share we fall back to the hash join,
                // which spills).
                let budget = table.len().max(1) / 4;
                let mut left_stream = open_node(db, left, batch, spill, &obs.child(0))?;
                let mut buf: Vec<Row> = Vec::new();
                let mut buf_bytes = 0usize;
                let mut small_left = true;
                loop {
                    if buf.len() > budget || spill.per_point.is_some_and(|b| buf_bytes > b) {
                        small_left = false;
                        break;
                    }
                    match left_stream.next() {
                        Some(chunk) => {
                            let before = buf.len();
                            chunk?.drain_into(&mut buf);
                            buf_bytes += buf[before..].iter().map(spill::row_bytes).sum::<usize>();
                            if let Some(n) = obs.node() {
                                raise(&n.peak_bytes, buf_bytes as u64);
                            }
                        }
                        None => break,
                    }
                }
                if small_left {
                    let probe = chunked_owned(buf, batch.effective);
                    return Ok(map_chunks(probe, batch.effective, move |lrow, out| {
                        index_probe(table, lrow, on, pred, residual, pk_path, &index, out)
                    }));
                }
                // Too many left rows: replay the buffer in front of the
                // rest of the stream and hash-join instead.
                let probe: BoxChunkIter<'a> =
                    Box::new(chunked_owned(buf, batch.effective).chain(left_stream));
                return hash_join(db, probe, right, on, residual, batch, spill, obs);
            }
        }
        let probe = open_node(db, left, batch, spill, &obs.child(0))?;
        return hash_join(db, probe, right, on, residual, batch, spill, obs);
    }
    // Cross/theta join: the right side is a materialization point. Under
    // a memory budget only this point's byte share stays in memory; once
    // the share is exceeded every further right row overflows — in
    // arrival order — to a spill run file, which the probe loop replays
    // after the in-memory prefix for each left row. The replay reopens
    // the run per left row (sequential reads of an OS-cached file), a
    // deliberate trade: right-side memory stays bounded by the budget
    // while the output order stays byte-for-byte the left-major order of
    // the unbudgeted nested loop.
    let mut mem: Vec<Row> = Vec::new();
    let mut mem_bytes = 0usize;
    let mut overflow: Option<spill::RunFile> = None;
    {
        let right_stream = open_node(db, right, batch.full(), spill, &obs.child(1))?;
        let mut scratch: Vec<Row> = Vec::new();
        for chunk in right_stream {
            chunk?.drain_into(&mut scratch);
            for row in scratch.drain(..) {
                if let Some(run) = &mut overflow {
                    run.write(0, &row)?;
                    continue;
                }
                match spill.per_point {
                    Some(budget) if mem_bytes + spill::row_bytes(&row) > budget => {
                        let mut run = spill::RunFile::create(&spill.dir, obs.spill_prof())?;
                        run.write(0, &row)?;
                        overflow = Some(run);
                    }
                    _ => {
                        mem_bytes += spill::row_bytes(&row);
                        mem.push(row);
                    }
                }
            }
        }
        if let Some(n) = obs.node() {
            raise(&n.peak_bytes, mem_bytes as u64);
        }
        if let Some(run) = &mut overflow {
            run.seal()?;
        }
    }
    let left = open_node(db, left, batch, spill, &obs.child(0))?;
    Ok(map_chunks(left, batch.effective, move |lrow, out| {
        let emit = |joined: Row, out: &mut Vec<Row>| -> Result<()> {
            match residual {
                None => out.push(joined),
                Some(e) => {
                    if e.eval_bool(&joined)? {
                        out.push(joined);
                    }
                }
            }
            Ok(())
        };
        for rrow in &mem {
            emit(lrow.concat(rrow), out)?;
        }
        if let Some(run) = &mut overflow {
            let mut reader = run.reader()?;
            while let Some((_, rrow)) = reader.next()? {
                emit(lrow.concat(&rrow), out)?;
            }
        }
        Ok(())
    }))
}

/// Probe the right table's primary key or covering index for one left
/// row, re-verifying every join pair and applying the right-side
/// selection and residual (shared by the chunked index-nested-loop).
#[allow(clippy::too_many_arguments)]
fn index_probe(
    table: &crate::table::Table,
    lrow: &Row,
    on: &[(usize, usize)],
    pred: Option<&Expr>,
    residual: Option<&Expr>,
    pk_path: bool,
    index: &Option<(String, Vec<usize>)>,
    out: &mut Vec<Row>,
) -> Result<()> {
    let hits: Vec<Row> = if pk_path {
        let lc = on[0].0;
        table.get_by_key(&lrow[lc]).into_iter().collect()
    } else {
        let (name, order) = index.as_ref().expect("index path");
        let key: Vec<Value> = order
            .iter()
            .map(|rc| {
                let (lc, _) = on.iter().find(|(_, r)| r == rc).expect("covered");
                lrow[*lc].clone()
            })
            .collect();
        table.index_rows(name, &key)?
    };
    for rrow in &hits {
        // Re-verify every join pair: with duplicate right columns in `on`
        // the index key only pins one left column per right column.
        if on.iter().any(|&(lc, rc)| lrow[lc] != rrow[rc]) {
            continue;
        }
        if let Some(p) = pred {
            if !p.eval_bool(rrow)? {
                continue;
            }
        }
        let joined = lrow.concat(rrow);
        match residual {
            None => out.push(joined),
            Some(e) => {
                if e.eval_bool(&joined)? {
                    out.push(joined);
                }
            }
        }
    }
    Ok(())
}

/// Build a hash table over the right side, then probe whole chunks.
/// Under a memory budget the build side may spill, turning this into a
/// grace hash join (build and probe partitioned to disk on the key).
#[allow(clippy::too_many_arguments)]
fn hash_join<'a>(
    db: &'a Database,
    probe: BoxChunkIter<'a>,
    right: &'a Plan,
    on: &'a [(usize, usize)],
    residual: Option<&'a Expr>,
    batch: Batch,
    spill: &SpillCtx,
    obs: &NodeObs,
) -> Result<BoxChunkIter<'a>> {
    let build = match spill.per_point {
        // Unlimited: the pre-existing in-memory build.
        None => build_side(db, right, on, batch, spill, &obs.child(1))?,
        Some(budget) => {
            let rcols: Vec<usize> = on.iter().map(|&(_, rc)| rc).collect();
            let input = ChunkStream::new(open_node(db, right, batch.full(), spill, &obs.child(1))?);
            match spill::build_or_spill(input, &rcols, budget, &spill.dir, obs.spill_prof())? {
                spill::BuildSide::InMemory(map) => map,
                spill::BuildSide::Spilled(parts) => {
                    return Ok(Box::new(spill::GraceJoin::new(
                        probe,
                        parts,
                        on,
                        residual,
                        budget,
                        &spill.dir,
                        batch.effective,
                        obs.spill_prof(),
                    )))
                }
            }
        }
    };
    // Cell-level probe: keys are read straight out of the probe chunk
    // (one cell clone per key column), and full joined rows are only
    // built for matches — a columnar probe side never materializes
    // unmatched rows at all.
    Ok(map_cells(
        probe,
        batch.effective,
        false,
        move |chunk, i, out| {
            let key: Box<[Value]> = on.iter().map(|&(lc, _)| chunk.cell(i, lc)).collect();
            if let Some(hits) = build.get(&key) {
                for rrow in hits {
                    let joined = chunk.concat_row(i, rrow);
                    match residual {
                        None => out.push(joined),
                        Some(e) => {
                            if e.eval_bool(&joined)? {
                                out.push(joined);
                            }
                        }
                    }
                }
            }
            Ok(())
        },
    ))
}

/// Materialize a join's build (right) side into a hash table keyed by
/// the `on` columns. The build input always runs at the full batch size.
fn build_side(
    db: &Database,
    right: &Plan,
    on: &[(usize, usize)],
    batch: Batch,
    spill: &SpillCtx,
    obs: &NodeObs,
) -> Result<HashMap<Box<[Value]>, Vec<Row>>> {
    let mut build: HashMap<Box<[Value]>, Vec<Row>> = HashMap::new();
    let mut scratch: Vec<Row> = Vec::new();
    for chunk in ChunkStream::new(open_node(db, right, batch.full(), spill, obs)?) {
        chunk?.drain_into(&mut scratch);
        for row in scratch.drain(..) {
            let key: Box<[Value]> = on.iter().map(|&(_, rc)| row[rc].clone()).collect();
            build.entry(key).or_default().push(row);
        }
    }
    Ok(build)
}

#[allow(clippy::too_many_arguments)]
fn open_anti_join<'a>(
    db: &'a Database,
    left: &'a Plan,
    right: &'a Plan,
    on: &'a [(usize, usize)],
    residual: Option<&'a Expr>,
    batch: Batch,
    spill: &SpillCtx,
    obs: &NodeObs,
) -> Result<BoxChunkIter<'a>> {
    let left_stream = open_node(db, left, batch, spill, &obs.child(0))?;
    if on.is_empty() {
        // A left row survives iff no right row makes the residual hold.
        // Anti-joins keep left rows unchanged, so this is a pure
        // selection-vector filter. The collected right side is a
        // materialization point: under a memory budget only its byte
        // share stays in memory; past it further right rows overflow —
        // in arrival order — to a spill run the filter replays after
        // the in-memory prefix for each left row (the same bounded
        // template as the cross-join build).
        let mut mem: Vec<Row> = Vec::new();
        let mut mem_bytes = 0usize;
        let mut overflow: Option<spill::RunFile> = None;
        {
            let right_stream = open_node(db, right, batch.full(), spill, &obs.child(1))?;
            let mut scratch: Vec<Row> = Vec::new();
            for chunk in right_stream {
                chunk?.drain_into(&mut scratch);
                for row in scratch.drain(..) {
                    if let Some(run) = &mut overflow {
                        run.write(0, &row)?;
                        continue;
                    }
                    match spill.per_point {
                        Some(budget) if mem_bytes + spill::row_bytes(&row) > budget => {
                            let mut run = spill::RunFile::create(&spill.dir, obs.spill_prof())?;
                            run.write(0, &row)?;
                            overflow = Some(run);
                        }
                        _ => {
                            mem_bytes += spill::row_bytes(&row);
                            mem.push(row);
                        }
                    }
                }
            }
            if let Some(n) = obs.node() {
                raise(&n.peak_bytes, mem_bytes as u64);
            }
            if let Some(run) = &mut overflow {
                run.seal()?;
            }
        }
        return Ok(filter_chunks(left_stream, move |lrow| {
            let killed = |rrow: &Row| -> Result<bool> {
                match residual {
                    None => Ok(true),
                    Some(e) => e.eval_bool(&lrow.concat(rrow)),
                }
            };
            for rrow in &mem {
                if killed(rrow)? {
                    return Ok(false);
                }
            }
            if let Some(run) = &mut overflow {
                let mut reader = run.reader()?;
                while let Some((_, rrow)) = reader.next()? {
                    if killed(&rrow)? {
                        return Ok(false);
                    }
                }
            }
            Ok(true)
        }));
    }
    // Keyed anti-join: the build side is a materialization point, so
    // under a memory budget it counts against this point's byte share
    // and grace-partitions to disk past it (mirroring `hash_join`).
    if let Some(budget) = spill.per_point {
        let rcols: Vec<usize> = on.iter().map(|&(_, rc)| rc).collect();
        let input = ChunkStream::new(open_node(db, right, batch.full(), spill, &obs.child(1))?);
        let build =
            match spill::build_or_spill(input, &rcols, budget, &spill.dir, obs.spill_prof())? {
                spill::BuildSide::InMemory(map) => map,
                spill::BuildSide::Spilled(parts) => {
                    return Ok(Box::new(spill::GraceJoin::new_anti(
                        left_stream,
                        parts,
                        on,
                        residual,
                        budget,
                        &spill.dir,
                        batch.effective,
                        obs.spill_prof(),
                    )));
                }
            };
        return Ok(anti_filter(left_stream, build, on, residual));
    }
    let build = build_side(db, right, on, batch, spill, &obs.child(1))?;
    Ok(anti_filter(left_stream, build, on, residual))
}

/// Filter `left` down to the rows with no residual-satisfying match in
/// the build table — the anti-join's probe phase (a pure
/// selection-vector filter: left rows pass through unchanged).
fn anti_filter<'a>(
    left: BoxChunkIter<'a>,
    build: HashMap<Box<[Value]>, Vec<Row>>,
    on: &'a [(usize, usize)],
    residual: Option<&'a Expr>,
) -> BoxChunkIter<'a> {
    filter_chunks(left, move |lrow| {
        let key: Box<[Value]> = on.iter().map(|&(lc, _)| lrow[lc].clone()).collect();
        match build.get(&key) {
            None => Ok(true),
            Some(hits) => match residual {
                None => Ok(false),
                Some(e) => {
                    for rrow in hits {
                        if e.eval_bool(&lrow.concat(rrow))? {
                            return Ok(false);
                        }
                    }
                    Ok(true)
                }
            },
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{execute, execute_materialized};
    use crate::row;
    use crate::schema::TableSchema;

    fn db() -> Database {
        let mut db = Database::new();
        let users = db
            .create_table(TableSchema::with_key("Users", &["uid", "name"]))
            .unwrap();
        users.insert(row![1, "Alice"]).unwrap();
        users.insert(row![2, "Bob"]).unwrap();
        users.insert(row![3, "Carol"]).unwrap();
        let e = db
            .create_table(TableSchema::keyless("E", &["w1", "u", "w2"]))
            .unwrap();
        e.create_index("by_w1_u", &["w1", "u"]).unwrap();
        e.insert(row![0, 1, 1]).unwrap();
        e.insert(row![0, 2, 2]).unwrap();
        e.insert(row![0, 3, 0]).unwrap();
        e.insert(row![1, 2, 2]).unwrap();
        e.insert(row![1, 3, 0]).unwrap();
        db
    }

    fn sorted(mut rows: Vec<Row>) -> Vec<Row> {
        rows.sort();
        rows
    }

    /// Rows in a chunk's backing window, live or not (tests only).
    fn backing_len(chunk: &Chunk) -> usize {
        chunk.window_len()
    }

    #[test]
    fn chunked_matches_materializing_on_basic_operators() {
        let db = db();
        let plans = vec![
            Plan::scan("Users"),
            Plan::scan("Users").select(Expr::col_eq_lit(1, "Bob")),
            Plan::scan("E").project_cols(&[2, 0]),
            Plan::scan("Users").join(Plan::scan("E"), vec![(0, 1)]),
            Plan::scan("Users").join_where(
                Plan::scan("Users"),
                vec![],
                Expr::cmp(CmpOp::Lt, Expr::Col(0), Expr::Col(2)),
            ),
            Plan::scan("Users").anti_join(Plan::scan("E"), vec![(0, 1)]),
            Plan::Union {
                inputs: vec![Plan::scan("Users"), Plan::scan("Users")],
            }
            .distinct(),
            Plan::Aggregate {
                input: Box::new(Plan::scan("E")),
                group_by: vec![0],
                aggs: vec![crate::plan::Agg::Count, crate::plan::Agg::Max(2)],
            },
            Plan::scan("Users").sort(vec![1]).limit(2),
        ];
        for plan in &plans {
            assert_eq!(
                sorted(execute(&db, plan).unwrap()),
                sorted(execute_materialized(&db, plan).unwrap()),
                "chunked and materializing disagree on {plan:?}"
            );
        }
    }

    #[test]
    fn chunked_preserves_scan_order() {
        let db = db();
        let plan = Plan::scan("Users");
        let rows = stream(&db, &plan).unwrap().collect_rows().unwrap();
        assert_eq!(
            rows,
            vec![row![1, "Alice"], row![2, "Bob"], row![3, "Carol"]]
        );
    }

    #[test]
    fn limit_short_circuits_upstream_errors_mid_chunk() {
        // Both Values rows land in the *same* chunk; the selection splits
        // the chunk at the failing row, so Limit(1) is satisfied by the
        // prefix and the error is never demanded — identical to the
        // tuple-at-a-time semantics.
        let db = db();
        let plan = Plan::Values {
            arity: 1,
            rows: vec![row![true], row![1]],
        }
        .select(Expr::Col(0))
        .limit(1);
        assert_eq!(execute(&db, &plan).unwrap(), vec![row![true]]);
        assert!(execute_materialized(&db, &plan).is_err());
    }

    #[test]
    fn distinct_streams_first_occurrences_in_order() {
        let db = db();
        let plan = Plan::Values {
            arity: 1,
            rows: vec![row![2], row![1], row![2], row![3], row![1]],
        }
        .distinct();
        let rows = stream(&db, &plan).unwrap().collect_rows().unwrap();
        assert_eq!(rows, vec![row![2], row![1], row![3]]);
    }

    #[test]
    fn errors_propagate_through_pipelines() {
        let db = db();
        // Bare-column predicate over non-boolean rows errors mid-stream.
        let plan = Plan::Values {
            arity: 1,
            rows: vec![row![1]],
        }
        .select(Expr::Col(0));
        assert!(execute(&db, &plan).is_err());
        // And through a projection above it.
        let plan = plan.project_cols(&[0]);
        assert!(execute(&db, &plan).is_err());
    }

    #[test]
    fn error_splitting_preserves_row_order_around_errors() {
        // Rows 1 and 3 pass, row 2 errors: the stream must yield
        // Ok(1), Err, Ok(3) in that order.
        let db = db();
        let plan = Plan::Values {
            arity: 1,
            rows: vec![row![true], row![7], row![true]],
        }
        .select(Expr::Col(0));
        let stream = stream_chunks(&db, &plan).unwrap();
        let items: Vec<Result<Vec<Row>>> = stream.map(|item| item.map(Chunk::into_rows)).collect();
        assert_eq!(items.len(), 3, "{items:?}");
        assert_eq!(items[0].as_ref().unwrap(), &vec![row![true]]);
        assert!(items[1].is_err());
        assert_eq!(items[2].as_ref().unwrap(), &vec![row![true]]);
    }

    #[test]
    fn adaptive_index_join_takes_index_path_for_small_left() {
        let mut db = Database::new();
        let v = db
            .create_table(TableSchema::keyless("V", &["wid", "tid"]))
            .unwrap();
        v.create_index("by_wid", &["wid"]).unwrap();
        for i in 0..400i64 {
            v.insert(row![i % 20, i]).unwrap();
        }
        let probe = db
            .create_table(TableSchema::keyless("Probe", &["w"]))
            .unwrap();
        probe.insert(row![3]).unwrap();
        probe.insert(row![7]).unwrap();
        let plan = Plan::scan("Probe").join(Plan::scan("V"), vec![(0, 0)]);
        let rows = execute(&db, &plan).unwrap();
        assert_eq!(rows.len(), 40);
        assert_eq!(
            sorted(rows),
            sorted(execute_materialized(&db, &plan).unwrap())
        );
    }

    #[test]
    fn adaptive_index_join_falls_back_for_large_left() {
        let mut db = Database::new();
        let v = db
            .create_table(TableSchema::keyless("V", &["wid", "tid"]))
            .unwrap();
        v.create_index("by_wid", &["wid"]).unwrap();
        for i in 0..40i64 {
            v.insert(row![i % 4, i]).unwrap();
        }
        let probe = db
            .create_table(TableSchema::keyless("Probe", &["w"]))
            .unwrap();
        // More probe rows than |V|/4: the buffer overflows and the join
        // falls back to a hash build, replaying the buffered rows.
        for i in 0..30i64 {
            probe.insert(row![i % 5]).unwrap();
        }
        let plan = Plan::scan("Probe").join(Plan::scan("V"), vec![(0, 0)]);
        assert_eq!(
            sorted(execute(&db, &plan).unwrap()),
            sorted(execute_materialized(&db, &plan).unwrap())
        );
    }

    #[test]
    fn kernels_match_interpreter_on_cross_type_columns() {
        // A column holding every Value type: each specialized kernel must
        // agree with Expr::eval_bool row for row (cross-type total order:
        // Null < Bool < Int < Str).
        let db = db();
        let rows = vec![
            row![Value::Null],
            row![false],
            row![true],
            row![-3],
            row![5],
            row![17],
            row!["apple"],
            row!["zebra"],
        ];
        let lits = [Value::int(5), Value::str("mango"), Value::Bool(true)];
        for op in [
            CmpOp::Eq,
            CmpOp::Ne,
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Gt,
            CmpOp::Ge,
        ] {
            for lit in &lits {
                for flipped in [false, true] {
                    let pred = if flipped {
                        Expr::cmp(op.flip(), Expr::Lit(lit.clone()), Expr::Col(0))
                    } else {
                        Expr::cmp(op, Expr::Col(0), Expr::Lit(lit.clone()))
                    };
                    let kernel = ColLitKernel::compile(&pred).expect("col-lit compiles");
                    for r in &rows {
                        assert_eq!(
                            kernel.test(r),
                            pred.eval_bool(r).unwrap(),
                            "kernel disagrees with interpreter on {pred} over {r}"
                        );
                    }
                    let plan = Plan::Values {
                        arity: 1,
                        rows: rows.clone(),
                    }
                    .select(pred);
                    assert_eq!(
                        sorted(execute(&db, &plan).unwrap()),
                        sorted(execute_materialized(&db, &plan).unwrap()),
                        "kernel execution diverged"
                    );
                }
            }
        }
    }

    #[test]
    fn and_conjunctions_fuse_into_kernel_passes() {
        // Every AND of col-op-lit comparisons must compile (no row-wise
        // fallback) and agree with the interpreter on a column holding
        // every value type, in every conjunct order.
        let db = db();
        let rows: Vec<Row> = vec![
            row![Value::Null, Value::Null],
            row![false, 3],
            row![-3, "pear"],
            row![5, 5],
            row![17, "apple"],
            row!["apple", 17],
            row!["zebra", true],
        ];
        let conjuncts = [
            Expr::cmp(CmpOp::Le, Expr::Col(0), Expr::lit(10i64)),
            Expr::cmp(CmpOp::Ne, Expr::Col(1), Expr::lit("pear")),
            Expr::cmp(CmpOp::Gt, Expr::lit(4i64), Expr::Col(0)),
        ];
        for i in 0..conjuncts.len() {
            for j in 0..conjuncts.len() {
                if i == j {
                    continue;
                }
                let pred = Expr::and(vec![conjuncts[i].clone(), conjuncts[j].clone()]);
                let kernel = FilterKernel::compile(&pred).expect("AND of col-lit compiles");
                assert!(matches!(kernel, FilterKernel::And(_)));
                for r in &rows {
                    assert_eq!(
                        kernel.test(r),
                        pred.eval_bool(r).unwrap(),
                        "fused kernel disagrees with interpreter on {pred} over {r}"
                    );
                }
                let plan = Plan::Values {
                    arity: 2,
                    rows: rows.clone(),
                }
                .select(pred);
                assert_eq!(
                    sorted(execute(&db, &plan).unwrap()),
                    sorted(execute_materialized(&db, &plan).unwrap()),
                    "fused AND execution diverged"
                );
            }
        }
        // Three-way conjunction, over a scan (filter-before-clone path)
        // and over a non-scan input (selection-vector passes).
        let pred = Expr::and(conjuncts.to_vec());
        assert_eq!(
            FilterKernel::compile(&pred).unwrap().label(),
            "and[le:int,cmp:lit,lt:int]"
        );
        let over_values = Plan::Values {
            arity: 2,
            rows: rows.clone(),
        }
        .project_cols(&[0, 1])
        .select(pred.clone());
        assert_eq!(
            sorted(execute(&db, &over_values).unwrap()),
            sorted(execute_materialized(&db, &over_values).unwrap())
        );
        // Empty-AND and single-element AND collapse elsewhere; an AND
        // with a non-col-lit conjunct must not compile.
        let mixed = Expr::And(vec![conjuncts[0].clone(), Expr::col_eq_col(0, 1)]);
        assert!(FilterKernel::compile(&mixed).is_none());
    }

    #[test]
    fn fused_and_uses_selection_vectors() {
        // The fused conjunction refines the selection vector in place:
        // backing rows stay put, only `sel` shrinks pass by pass.
        let db = db();
        let plan = Plan::scan("E")
            .project_cols(&[0, 1, 2])
            .select(Expr::and(vec![
                Expr::col_eq_lit(0, 0i64),
                Expr::cmp(CmpOp::Le, Expr::Col(1), Expr::lit(2i64)),
            ]));
        let chunks: Vec<Chunk> = stream_chunks(&db, &plan)
            .unwrap()
            .map(|c| c.unwrap())
            .collect();
        assert_eq!(chunks.len(), 1);
        assert!(
            chunks[0].sel.is_some(),
            "fused AND must use a selection vector"
        );
        assert_eq!(backing_len(&chunks[0]), 5, "backing rows are not compacted");
        assert_eq!(chunks[0].len(), 2); // rows (0,1,1) and (0,2,2)
    }

    #[test]
    fn filters_set_selection_vectors_without_copying() {
        // A filter over a non-scan input refines the selection vector in
        // place: the chunk keeps its backing rows, only `sel` changes.
        let db = db();
        let plan = Plan::scan("E")
            .project_cols(&[1, 0])
            .select(Expr::col_eq_lit(1, 0i64));
        let chunks: Vec<Chunk> = stream_chunks(&db, &plan)
            .unwrap()
            .map(|c| c.unwrap())
            .collect();
        assert_eq!(chunks.len(), 1);
        assert!(
            chunks[0].sel.is_some(),
            "filter must use a selection vector"
        );
        assert_eq!(backing_len(&chunks[0]), 5, "backing rows are not compacted");
        assert_eq!(chunks[0].len(), 3);
    }

    #[test]
    fn batch_size_bounds_chunks_and_limit_caps_them() {
        let mut db = Database::new();
        let t = db.create_table(TableSchema::keyless("T", &["a"])).unwrap();
        for i in 0..2500i64 {
            t.insert(row![i]).unwrap();
        }
        // Scan chunks ramp up from 64 and saturate at the batch size.
        let plan = Plan::scan("T");
        let sizes: Vec<usize> = Executor::new(&db)
            .open_chunks(&plan)
            .unwrap()
            .map(|c| c.unwrap().len())
            .collect();
        assert_eq!(sizes, vec![32, 64, 128, 256, 512, 1024, 484]);
        assert_eq!(sizes.iter().sum::<usize>(), 2500);
        let sizes: Vec<usize> = Executor::with_batch_size(&db, 100)
            .open_chunks(&plan)
            .unwrap()
            .map(|c| c.unwrap().len())
            .collect();
        assert!(sizes.iter().all(|&s| s <= 100), "{sizes:?}");
        assert_eq!(sizes.iter().sum::<usize>(), 2500);
        // A Limit caps its subtree's batch: one 10-row chunk, not 1024.
        let limited = Plan::scan("T").limit(10);
        let sizes: Vec<usize> = Executor::new(&db)
            .open_chunks(&limited)
            .unwrap()
            .map(|c| c.unwrap().len())
            .collect();
        assert_eq!(sizes, vec![10]);
    }

    #[test]
    fn limit_counts_errors_like_the_row_executor() {
        // A tuple-at-a-time `take(n)` over `Result<Row>` items counts an
        // Err toward the limit; the chunked Limit does too, so a consumer
        // pulling past errors sees exactly that item sequence.
        let db = db();
        let plan = Plan::Values {
            arity: 1,
            rows: vec![row![7], row![true], row![true]],
        }
        .select(Expr::Col(0))
        .limit(1);
        let chunked: Vec<Result<Row>> = stream(&db, &plan).unwrap().collect();
        assert_eq!(chunked.len(), 1, "{chunked:?}");
        assert!(chunked[0].is_err());
        // With room for two items: the error plus exactly one row.
        let plan = Plan::Values {
            arity: 1,
            rows: vec![row![7], row![true], row![true]],
        }
        .select(Expr::Col(0))
        .limit(2);
        let chunked: Vec<Result<Row>> = stream(&db, &plan).unwrap().collect();
        assert_eq!(chunked.len(), 2, "{chunked:?}");
        assert!(chunked[0].is_err());
        assert_eq!(chunked[1].as_ref().unwrap(), &row![true]);
    }

    #[test]
    fn with_batch_size_is_honored_through_materialization_points() {
        let mut db = Database::new();
        let t = db.create_table(TableSchema::keyless("T", &["a"])).unwrap();
        for i in 0..300i64 {
            t.insert(row![(i * 7) % 300]).unwrap();
        }
        // A Sort (materialization point) between the scan and the
        // output: chunks on both sides of it respect the configured
        // batch, not a hard-coded constant.
        let plan = Plan::scan("T").sort(vec![0]).distinct();
        let small = Executor::with_batch_size(&db, 8);
        let sizes: Vec<usize> = small
            .open_chunks(&plan)
            .unwrap()
            .map(|c| c.unwrap().len())
            .collect();
        assert!(sizes.iter().all(|&s| s <= 8), "{sizes:?}");
        assert_eq!(sizes.iter().sum::<usize>(), 300);
        // And a configured batch *larger* than the default survives a
        // Limit cap: the sort output above the Limit's subtree is
        // re-batched at min(configured, n), not min(1024, n).
        let plan = Plan::scan("T").sort(vec![0]).limit(290);
        let big = Executor::with_batch_size(&db, 4096);
        let sizes: Vec<usize> = big
            .open_chunks(&plan)
            .unwrap()
            .map(|c| c.unwrap().len())
            .collect();
        assert_eq!(sizes, vec![290]);
    }

    #[test]
    fn limit_truncates_mid_chunk() {
        let db = db();
        let plan = Plan::Values {
            arity: 1,
            rows: (0..7i64).map(|i| row![i]).collect(),
        }
        .limit(3);
        assert_eq!(
            execute(&db, &plan).unwrap(),
            vec![row![0], row![1], row![2]]
        );
    }

    #[test]
    fn projector_path_matches_generic_projection() {
        let db = db();
        // All-column projection (Projector) vs one forced through the
        // generic expression path by a literal.
        let fast = Plan::scan("E").project_cols(&[2, 0, 1]);
        let slow = Plan::scan("E").project(vec![Expr::Col(2), Expr::Col(0), Expr::Col(1)]);
        assert_eq!(execute(&db, &fast).unwrap(), execute(&db, &slow).unwrap());
        let mixed = Plan::scan("E").project(vec![Expr::Col(2), Expr::lit("x")]);
        let rows = execute(&db, &mixed).unwrap();
        assert_eq!(rows.len(), 5);
        assert!(rows.iter().all(|r| r[1] == Value::str("x")));
    }
}
