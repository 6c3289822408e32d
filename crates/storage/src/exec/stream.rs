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
//!   a join over a base table with its key or an index on the join
//!   columns, and a keyed anti-join over one with its key or an index on
//!   some of its key columns, instead probe it for every left row as they
//!   stream by, building nothing;
//! * **Distinct** marks first occurrences in the selection vector;
//! * join build sides and Distinct's seen-set are the materialization
//!   points.
//!
//! ## Errors
//!
//! A plan that opens cannot fail per row: [`Plan::arity`] checked every
//! column and every predicate's shape, so evaluating an expression cannot
//! fail. The errors left are a spill file's I/O errors and internal
//! ones. A stream ends at its first error: the operator that meets one
//! yields it and stops, and [`ChunkStream`] yields nothing after it.

use super::access::{self, IndexAccess, Read};
use super::spill::{self, SpillCtx, SpillOptions};
use crate::catalog::Database;
use crate::column::{self, Column, ColumnSet};
use crate::error::Result;
use crate::expr::{CmpOp, Expr};
use crate::index::CellHash;
use crate::obs::metrics::{metrics, Metric};
use crate::obs::profile::{bump, raise, NodeObs, ProfNode, Profile};
use crate::plan::Plan;
use crate::row::{Projector, Row};
use crate::value::{Str, Value};
use std::collections::{HashMap, HashSet};
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
/// consumers hand them back ([`Chunk::recycle`] / [`Chunk::drain_into`]),
/// so after warm-up the hot loop allocates rows, never buffers. The pool is bounded (a handful of buffers per
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
/// (join probes, build sides) via
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
                    out.push(std::mem::replace(&mut rows[i as usize], Row::empty()));
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
                        out.push(std::mem::replace(&mut rows[i as usize], Row::empty()));
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

    /// Window-relative index of the `k`-th live row.
    fn live_at(&self, k: usize) -> u32 {
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
                let left = (0..w.cols.arity()).map(|c| w.cols.value_at(c, at));
                Row::new(left.chain(right.values().iter().cloned()))
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
type BoxChunkIter<'a> = Box<dyn Iterator<Item = Result<Chunk>> + 'a>;

/// A pull-based stream of chunks produced by [`Executor::open_chunks`].
///
/// Chunks are computed on demand: dropping the stream early abandons the
/// rest of the computation. An `Err` item is the last item: the stream
/// drops its operators (and their spill files) and ends there.
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
}

impl Iterator for ChunkStream<'_> {
    type Item = Result<Chunk>;

    fn next(&mut self) -> Option<Self::Item> {
        let item = self.inner.next()?;
        if item.is_err() {
            self.inner = Box::new(std::iter::empty());
        }
        Some(item)
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

    /// An executor with an explicit batch size: the seam tests use to
    /// force chunk boundaries (batch-edge cases, re-batching
    /// at materialization points) without building kilorow inputs.
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

    /// Open a plan as a chunk stream. Arities are validated once up
    /// front; materialization points (join build sides) do their
    /// buffering eagerly here, pipelined operators do no work until the
    /// stream is pulled.
    pub fn open_chunks(&self, plan: &'a Plan) -> Result<ChunkStream<'a>> {
        self.open_with(plan, NodeObs::disabled())
    }

    /// Open a plan with per-operator profiling on: every operator's
    /// rows/chunks/time (and any spill activity) is recorded into the
    /// returned [`Profile`], whose counters are live — read them after
    /// draining the stream. This is the `EXPLAIN ANALYZE` entry point.
    pub fn open_chunks_profiled(&self, plan: &'a Plan) -> Result<(ChunkStream<'a>, Profile)> {
        let root = ProfNode::new();
        let stream = self.open_with(plan, NodeObs::enabled(Rc::clone(&root)))?;
        Ok((stream, Profile::new(root)))
    }

    /// The one body behind both `open_chunks*`: validate, verify, and
    /// compile the operator tree with `obs` at its root.
    fn open_with(&self, plan: &'a Plan, obs: NodeObs) -> Result<ChunkStream<'a>> {
        plan.arity(self.db)?;
        // Last verification boundary before execution: whatever
        // plan reaches the executor — optimized, cached, or hand-built —
        // is checked once more with the verifier armed.
        crate::sema::verify_plan_if_enabled(self.db, plan, "exec_open")?;
        let spill = SpillCtx::for_plan(&self.spill, self.db, plan);
        Ok(ChunkStream::new(open_node(
            self.db, plan, self.batch, &spill, &obs,
        )?))
    }
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
    EqStr(usize, Str),
    LtStr(usize, Str),
    LeStr(usize, Str),
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
            (CmpOp::Eq, Value::Str(s)) => ColLitKernel::EqStr(col, s.clone()),
            (CmpOp::Lt, Value::Str(s)) => ColLitKernel::LtStr(col, s.clone()),
            (CmpOp::Le, Value::Str(s)) => ColLitKernel::LeStr(col, s.clone()),
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
            ColLitKernel::EqStr(_, s) => matches!(v, Value::Str(x) if x == s),
            // Null, Bool, and Int all rank below Str.
            ColLitKernel::LtStr(_, s) => match v {
                Value::Str(x) => x < s,
                _ => true,
            },
            ColLitKernel::LeStr(_, s) => match v {
                Value::Str(x) => x <= s,
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

fn open_node<'a>(
    db: &'a Database,
    plan: &'a Plan,
    batch: usize,
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
                chunked_cols(t.columnar(), batch)
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
                chunked_cols(set, batch)
            }
        },
        Plan::Values { rows, .. } => Box::new(batches(rows.iter().cloned(), batch).map(|rows| {
            metrics().add(Metric::RowsScanned, rows.len() as u64);
            Ok(Chunk::new(rows))
        })),
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
                map_chunks(input, batch, move |row, out| {
                    out.push(Row::new(exprs.iter().map(|e| e.eval(row))));
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
                    let mut seen: HashSet<Row, CellHash> = HashSet::default();
                    filter_chunks(input, move |row| Ok(seen.insert(row.clone())))
                }
                // Budgeted: stream identically while the seen-set fits,
                // partition to disk past the budget.
                Some(budget) => Box::new(spill::SpillDistinct::new(
                    input,
                    budget,
                    &spill.dir,
                    batch,
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
    };
    Ok(obs.wrap(iter))
}

/// Gather rows into batches of `batch` rows, lazily, the last one
/// shorter. Each buffer comes from the thread-local pool, sized for the
/// rows the iterator can still yield, so a three-row literal relation
/// does not take a batch-sized buffer.
fn batches<'a>(
    iter: impl Iterator<Item = Row> + 'a,
    batch: usize,
) -> impl Iterator<Item = Vec<Row>> + 'a {
    let mut iter = iter.peekable();
    std::iter::from_fn(move || {
        iter.peek()?;
        let left = iter.size_hint().1.unwrap_or(batch);
        let mut rows = pool::take_rows(left.min(batch));
        rows.extend(iter.by_ref().take(batch));
        Some(rows)
    })
}

/// Slice a columnar batch into window chunks of `batch` rows (the last
/// one shorter) without touching a single row. Each chunk is an `Arc`
/// clone plus two offsets.
fn chunked_cols<'a>(cols: Arc<ColumnSet>, batch: usize) -> BoxChunkIter<'a> {
    let total = cols.len();
    Box::new((0..total).step_by(batch).map(move |start| {
        let n = batch.min(total - start);
        metrics().add(Metric::RowsScanned, n as u64);
        metrics().incr(Metric::ColumnarChunks);
        Ok(Chunk::from_cols(Arc::clone(&cols), start, n))
    }))
}

/// Batch an owned row vector (an index-served selection's rows). A
/// vector that fits one batch is passed through as-is — no copy, no
/// split.
fn chunked_owned<'a>(rows: Vec<Row>, batch: usize) -> BoxChunkIter<'a> {
    if rows.len() <= batch {
        if rows.is_empty() {
            return Box::new(std::iter::empty());
        }
        return Box::new(std::iter::once(Ok(Chunk::new(rows))));
    }
    Box::new(batches(rows.into_iter(), batch).map(|rows| Ok(Chunk::new(rows))))
}

// ---------------------------------------------------------------------------
// Selection
// ---------------------------------------------------------------------------

fn open_selection<'a>(
    db: &'a Database,
    input: &'a Plan,
    predicate: &'a Expr,
    batch: usize,
    spill: &SpillCtx,
    obs: &NodeObs,
) -> Result<BoxChunkIter<'a>> {
    // Index access path: a selection directly over a scan whose predicate
    // pins indexed columns fetches candidates through the index (a small,
    // already-filtered set). Virtual (`sys.*`) scans have no indexes or
    // columnar cache: they fall through to the generic path below.
    if let Plan::Scan { table } = input {
        if let Ok(t) = db.table(table) {
            if let Some(rows) = access::select_rows(t, predicate)? {
                if let Some(n) = obs.node() {
                    bump(&n.rows_in, rows.len() as u64);
                }
                return Ok(chunked_owned(rows, batch));
            }
            t.note_seq_scan(t.len() as u64);
            // Filter-over-scan fusion: slice the table's column vectors
            // into windows and run the kernel's selection-vector passes
            // over primitive slices — no row is cloned or materialized
            // anywhere, survivors included.
            if let Some(kernel) = FilterKernel::compile(predicate) {
                let prof = obs.spill_prof();
                return Ok(Box::new(chunked_cols(t.columnar(), batch).filter_map(
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
                )));
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
                batch,
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
        Ok(predicate.eval_bool(row))
    }))
}

/// Interpreter filter over scan rows, batching the rows that pass.
fn filtered_scan<'a>(
    rows: impl Iterator<Item = Row> + 'a,
    predicate: &'a Expr,
    batch: usize,
) -> BoxChunkIter<'a> {
    let passed = rows.filter(move |row| predicate.eval_bool(row));
    Box::new(batches(passed, batch).map(|rows| Ok(Chunk::new(rows))))
}

/// Selection-vector filter: only the selection vector is written, no row
/// is moved. A `pred` error (a spill file's read) ends the stream.
fn filter_chunks<'a>(
    mut input: BoxChunkIter<'a>,
    mut pred: impl FnMut(&Row) -> Result<bool> + 'a,
) -> BoxChunkIter<'a> {
    Box::new(std::iter::from_fn(move || loop {
        let mut chunk = match input.next()? {
            Ok(chunk) => chunk,
            Err(e) => return Some(Err(e)),
        };
        // The predicate wants `&Row`s: materialize columnar windows once
        // per chunk (live rows only).
        chunk.ensure_rows();
        let mut sel = pool::take_sel(chunk.len());
        for k in 0..chunk.len() {
            let i = chunk.live_at(k);
            match pred(chunk.row(i)) {
                Ok(true) => sel.push(i),
                Ok(false) => {}
                Err(e) => {
                    pool::give_sel(sel);
                    chunk.recycle();
                    return Some(Err(e));
                }
            }
        }
        if sel.is_empty() {
            pool::give_sel(sel);
            chunk.recycle();
            continue;
        }
        if let Some(old) = chunk.sel.replace(sel) {
            pool::give_sel(old);
        }
        return Some(Ok(chunk));
    }))
}

/// Per-row flat-map over chunks: `f` pushes zero or more output rows per
/// live input row. Output chunks hold `batch` rows (the last one fewer):
/// rows past a full batch wait for the next pull, and processing resumes
/// from the saved input position. An error from `f` (a spill file's
/// read) ends the stream.
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
            if self.done {
                return None;
            }
            if self.out.len() >= self.batch {
                // Emit one batch; rows past it (a row's fan-out) stay.
                let mut full = std::mem::replace(&mut self.out, pool::take_rows(self.batch));
                self.out.extend(full.drain(self.batch..));
                return Some(Ok(Chunk::new(full)));
            }
            if let Some((chunk, pos)) = &mut self.current {
                let n = chunk.len();
                while *pos < n && self.out.len() < self.batch {
                    let i = chunk.live_at(*pos);
                    *pos += 1;
                    if let Err(e) = (self.f)(chunk, i, &mut self.out) {
                        self.done = true;
                        return Some(Err(e));
                    }
                }
                if *pos >= n {
                    if let Some((chunk, _)) = self.current.take() {
                        chunk.recycle();
                    }
                }
                continue;
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
                    self.done = true;
                    return Some(Err(e));
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

// ---------------------------------------------------------------------------
// Joins
// ---------------------------------------------------------------------------

#[allow(clippy::too_many_arguments)]
fn open_join<'a>(
    db: &'a Database,
    left: &'a Plan,
    right: &'a Plan,
    on: &'a [(usize, usize)],
    residual: Option<&'a Expr>,
    batch: usize,
    spill: &SpillCtx,
    obs: &NodeObs,
) -> Result<BoxChunkIter<'a>> {
    if !on.is_empty() {
        let left = open_node(db, left, batch, spill, &obs.child(0))?;
        // A base-table right side with a path for the join columns is
        // probed for every left row as it streams by, building nothing;
        // any other right side is hashed.
        if let Some(access) = IndexAccess::resolve(db, right, on, residual, Read::Join) {
            return Ok(map_chunks(left, batch, move |lrow, out| {
                access.probe(lrow, out)
            }));
        }
        return hash_join(db, left, right, on, residual, batch, spill, obs);
    }
    // Cross/theta join: the right side is a materialization point,
    // replayed for every left row in the left-major order of a nested
    // loop.
    let mut right = BoundedSide::collect(db, right, batch, spill, obs)?;
    let left = open_node(db, left, batch, spill, &obs.child(0))?;
    Ok(map_chunks(left, batch, move |lrow, out| {
        right.each(|rrow| {
            let joined = lrow.concat(rrow);
            if residual.is_none_or(|e| e.eval_bool(&joined)) {
                out.push(joined);
            }
            true
        })
    }))
}

/// The right side of a cross join or of a residual-only anti-join, which
/// every left row replays. Under a memory budget only this point's byte
/// share stays in memory; past it every further right row overflows, in
/// arrival order, to a spill run file replayed after the in-memory prefix.
/// The replay reopens the run per left row (sequential reads of an
/// OS-cached file), a deliberate trade: right-side memory stays bounded by
/// the budget while the output order stays byte-for-byte that of the
/// unbudgeted nested loop.
struct BoundedSide {
    mem: Vec<Row>,
    overflow: Option<spill::RunFile>,
}

impl BoundedSide {
    fn collect(
        db: &Database,
        right: &Plan,
        batch: usize,
        spill: &SpillCtx,
        obs: &NodeObs,
    ) -> Result<BoundedSide> {
        let mut mem: Vec<Row> = Vec::new();
        let mut mem_bytes = 0usize;
        let mut overflow: Option<spill::RunFile> = None;
        let right_stream = open_node(db, right, batch, spill, &obs.child(1))?;
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
        Ok(BoundedSide { mem, overflow })
    }

    /// Call `f` on every row, in arrival order, until it returns false.
    /// The one error is reading the overflow run back.
    fn each(&mut self, mut f: impl FnMut(&Row) -> bool) -> Result<()> {
        for row in &self.mem {
            if !f(row) {
                return Ok(());
            }
        }
        if let Some(run) = &mut self.overflow {
            let mut reader = run.reader()?;
            while let Some((_, row)) = reader.next()? {
                if !f(&row) {
                    return Ok(());
                }
            }
        }
        Ok(())
    }
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
    batch: usize,
    spill: &SpillCtx,
    obs: &NodeObs,
) -> Result<BoxChunkIter<'a>> {
    let build = match spill.per_point {
        // Unlimited: the pre-existing in-memory build.
        None => build_side(db, right, on, batch, spill, &obs.child(1))?,
        Some(budget) => {
            let rcols: Vec<usize> = on.iter().map(|&(_, rc)| rc).collect();
            let input = ChunkStream::new(open_node(db, right, batch, spill, &obs.child(1))?);
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
                        batch,
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
    Ok(map_cells(probe, batch, false, move |chunk, i, out| {
        let key: Box<[Value]> = on.iter().map(|&(lc, _)| chunk.cell(i, lc)).collect();
        if let Some(hits) = build.get(&key) {
            for rrow in hits {
                let joined = chunk.concat_row(i, rrow);
                if residual.is_none_or(|e| e.eval_bool(&joined)) {
                    out.push(joined);
                }
            }
        }
        Ok(())
    }))
}

/// Materialize a join's build (right) side into a hash table keyed by
/// the `on` columns. The build input always runs at the full batch size.
fn build_side(
    db: &Database,
    right: &Plan,
    on: &[(usize, usize)],
    batch: usize,
    spill: &SpillCtx,
    obs: &NodeObs,
) -> Result<HashMap<Box<[Value]>, Vec<Row>, CellHash>> {
    let mut build: HashMap<Box<[Value]>, Vec<Row>, CellHash> = HashMap::default();
    let mut scratch: Vec<Row> = Vec::new();
    for chunk in ChunkStream::new(open_node(db, right, batch, spill, obs)?) {
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
    batch: usize,
    spill: &SpillCtx,
    obs: &NodeObs,
) -> Result<BoxChunkIter<'a>> {
    let left_stream = open_node(db, left, batch, spill, &obs.child(0))?;
    if !on.is_empty() {
        // A base-table right side with an index over some of the key
        // columns is probed row by row instead of hashed whole: the left
        // rows stream through, nothing is materialized, and a selective
        // index (`V`'s `(wid, key)` under the lazy view) makes each probe
        // a few entries.
        if let Some(access) = IndexAccess::resolve(db, right, on, residual, Read::AntiJoin) {
            return Ok(filter_chunks(left_stream, move |lrow| {
                Ok(!access.any_match(lrow)?)
            }));
        }
    }
    if on.is_empty() {
        // A left row survives iff no right row makes the residual hold.
        // Anti-joins keep left rows unchanged, so this is a pure
        // selection-vector filter over the collected right side, bounded
        // like the cross join's.
        let mut right = BoundedSide::collect(db, right, batch, spill, obs)?;
        return Ok(filter_chunks(left_stream, move |lrow| {
            let mut survives = true;
            right.each(|rrow| {
                survives = residual.is_some_and(|e| !e.eval_bool(&lrow.concat(rrow)));
                survives
            })?;
            Ok(survives)
        }));
    }
    // Keyed anti-join: the build side is a materialization point, so
    // under a memory budget it counts against this point's byte share
    // and grace-partitions to disk past it (mirroring `hash_join`).
    if let Some(budget) = spill.per_point {
        let rcols: Vec<usize> = on.iter().map(|&(_, rc)| rc).collect();
        let input = ChunkStream::new(open_node(db, right, batch, spill, &obs.child(1))?);
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
                        batch,
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
    build: HashMap<Box<[Value]>, Vec<Row>, CellHash>,
    on: &'a [(usize, usize)],
    residual: Option<&'a Expr>,
) -> BoxChunkIter<'a> {
    filter_chunks(left, move |lrow| {
        let key: Box<[Value]> = on.iter().map(|&(lc, _)| lrow[lc].clone()).collect();
        Ok(build.get(&key).is_none_or(|hits| {
            residual.is_some_and(|e| !hits.iter().any(|rrow| e.eval_bool(&lrow.concat(rrow))))
        }))
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
        let rows = execute(&db, &plan).unwrap();
        assert_eq!(
            rows,
            vec![row![1, "Alice"], row![2, "Bob"], row![3, "Carol"]]
        );
    }

    #[test]
    fn distinct_streams_first_occurrences_in_order() {
        let db = db();
        let plan = Plan::Values {
            arity: 1,
            rows: vec![row![2], row![1], row![2], row![3], row![1]],
        }
        .distinct();
        let rows = execute(&db, &plan).unwrap();
        assert_eq!(rows, vec![row![2], row![1], row![3]]);
    }

    #[test]
    fn errors_propagate_through_pipelines() {
        let db = db();
        // A bare-column predicate is refused when the plan opens ...
        let plan = Plan::Values {
            arity: 1,
            rows: vec![row![1]],
        }
        .select(Expr::Col(0));
        assert!(execute(&db, &plan).is_err());
        // ... and so is a plan above it.
        let plan = plan.project_cols(&[0]);
        assert!(execute(&db, &plan).is_err());
    }

    #[test]
    fn fan_out_keeps_output_chunks_at_the_batch_size() {
        // Every left row matches ten right rows, more than a batch: the
        // join's output chunks hold the batch, never more, and no row is
        // lost.
        let mut db = Database::new();
        let t = db.create_table(TableSchema::keyless("T", &["a"])).unwrap();
        for i in 0..100i64 {
            t.insert(row![i % 10]).unwrap();
        }
        let plan = Plan::scan("T")
            .join(Plan::scan("T"), vec![(0, 0)])
            .project_cols(&[0, 1]);
        let sizes: Vec<usize> = Executor::with_batch_size(&db, 7)
            .open_chunks(&plan)
            .unwrap()
            .map(|c| c.unwrap().len())
            .collect();
        let (last, full) = sizes.split_last().unwrap();
        assert!(full.iter().all(|&s| s == 7), "{sizes:?}");
        assert_eq!(*last, 1000 % 7);
        assert_eq!(sizes.iter().sum::<usize>(), 1000);
    }

    #[test]
    fn index_join_probes_a_small_left_side() {
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
    fn index_probes_test_heap_cells_like_the_row_evaluator() {
        // R(k, a, b) behind an index on k, probed for a few left rows
        // L(j, x): the right-side selection and the residual are tested
        // on R's heap cells in place. Every comparison operator, And / Or
        // / Not and literals on either side, over cells of every type —
        // NULL, booleans, integers and strings that print alike — must
        // keep and drop what the materializing executor does, under the
        // index-probe join and anti-join alike.
        let cells = [
            Value::Null,
            Value::Bool(true),
            Value::int(1),
            Value::int(2),
            Value::str("1"),
            Value::str("2"),
        ];
        let mut db = Database::new();
        let r = db
            .create_table(TableSchema::keyless("R", &["k", "a", "b"]))
            .unwrap();
        r.create_index("by_k", &["k"]).unwrap();
        for (i, a) in cells.iter().enumerate() {
            for (j, b) in cells.iter().enumerate() {
                r.insert(Row::new([
                    Value::int(((i + j) % 3) as i64),
                    a.clone(),
                    b.clone(),
                ]))
                .unwrap();
            }
        }
        let l = db
            .create_table(TableSchema::keyless("L", &["j", "x"]))
            .unwrap();
        for (j, x) in [(0, 2), (1, 4), (2, 0), (3, 3), (0, 1)] {
            l.insert(Row::new([Value::int(j), cells[x].clone()]))
                .unwrap();
        }
        let ops = [
            CmpOp::Eq,
            CmpOp::Ne,
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Gt,
            CmpOp::Ge,
        ];
        // Columns of R alone (the selection) and of L ++ R (the residual).
        let (ra, rb, lx, ja, jb) = (1, 2, 1, 3, 4);
        let mut right_preds = Vec::new();
        let mut joined_preds = Vec::new();
        for op in ops {
            for lit in &cells {
                right_preds.push(Expr::cmp(op, Expr::col(ra), Expr::Lit(lit.clone())));
                right_preds.push(Expr::cmp(op, Expr::Lit(lit.clone()), Expr::col(rb)));
            }
            right_preds.push(Expr::cmp(op, Expr::col(ra), Expr::col(rb)));
            joined_preds.push(Expr::cmp(op, Expr::col(lx), Expr::col(ja)));
            joined_preds.push(Expr::cmp(op, Expr::col(jb), Expr::col(lx)));
        }
        let connected = |preds: &[Expr], a: usize, b: usize| {
            let lt = Expr::cmp(CmpOp::Lt, Expr::col(a), Expr::lit(2));
            let ne = Expr::cmp(CmpOp::Ne, Expr::Lit(Value::Null), Expr::col(b));
            let mut out = preds.to_vec();
            out.push(Expr::And(vec![lt.clone(), ne.clone()]));
            out.push(Expr::Or(vec![lt.clone(), Expr::Not(Box::new(ne.clone()))]));
            out.push(Expr::Not(Box::new(Expr::Or(vec![lt, ne]))));
            out.push(Expr::And(vec![]));
            out.push(Expr::Or(vec![]));
            out
        };
        let right_preds = connected(&right_preds, ra, rb);
        let joined_preds = connected(&joined_preds, ja, lx);

        let anti = |right: Plan, residual: Option<Expr>| Plan::AntiJoin {
            left: Box::new(Plan::scan("L")),
            right: Box::new(right),
            on: vec![(0, 0)],
            residual,
        };
        let mut plans = Vec::new();
        for p in right_preds {
            let right = Plan::scan("R").select(p);
            plans.push(Plan::scan("L").join(right.clone(), vec![(0, 0)]));
            plans.push(anti(right, None));
        }
        for p in joined_preds {
            plans.push(Plan::scan("L").join_where(Plan::scan("R"), vec![(0, 0)], p.clone()));
            plans.push(anti(Plan::scan("R"), Some(p)));
        }
        let (mut kept, mut dropped) = (0, 0);
        for plan in &plans {
            let scans = db.table("R").unwrap().access().snapshot()[0];
            let rows = sorted(execute(&db, plan).unwrap());
            assert_eq!(
                db.table("R").unwrap().access().snapshot()[0],
                scans,
                "{plan:?} must probe R's index, not scan R"
            );
            assert_eq!(
                rows,
                sorted(execute_materialized(&db, plan).unwrap()),
                "{plan:?}"
            );
            if matches!(plan, Plan::Join { .. }) {
                kept += rows.len();
                dropped += usize::from(rows.is_empty());
            }
        }
        assert!(kept > 0 && dropped > 0, "the predicates keep and drop rows");
    }

    #[test]
    fn primary_key_probe_rechecks_the_other_join_pairs() {
        // `V(z, t, x₁) ⋈ R*(t, x₁)`: a join on the key column *and* a
        // second column goes through the primary key and re-checks the
        // second pair on the one row it finds.
        let mut db = Database::new();
        let r = db
            .create_table(TableSchema::with_key("R", &["tid", "key", "val"]))
            .unwrap();
        for i in 0..40i64 {
            r.insert(row![i, format!("k{i}").as_str(), i * 10]).unwrap();
        }
        let left = db
            .create_table(TableSchema::keyless("L", &["l_tid", "l_key"]))
            .unwrap();
        left.insert(row![1, "k1"]).unwrap(); // both match
        left.insert(row![2, "k9"]).unwrap(); // key matches, second pair not
        left.insert(row![3, "k3"]).unwrap(); // both match
        left.insert(row![77, "k77"]).unwrap(); // no such key
        let plan = Plan::scan("L").join(Plan::scan("R"), vec![(0, 0), (1, 1)]);
        let scans_before = db.table("R").unwrap().access().snapshot()[0];
        let rows = sorted(execute(&db, &plan).unwrap());
        assert_eq!(
            db.table("R").unwrap().access().snapshot()[0],
            scans_before,
            "the join must probe R's primary key, not scan R"
        );
        assert_eq!(
            rows,
            vec![row![1, "k1", 1, "k1", 10], row![3, "k3", 3, "k3", 30]]
        );
        assert_eq!(rows, sorted(execute_materialized(&db, &plan).unwrap()));
    }

    #[test]
    fn index_join_probes_a_large_left_side() {
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
        // Almost as many probe rows as `V` has: the join still probes
        // `by_wid` for each of them and never scans `V`.
        for i in 0..30i64 {
            probe.insert(row![i % 5]).unwrap();
        }
        let plan = Plan::scan("Probe").join(Plan::scan("V"), vec![(0, 0)]);
        let scans = || db.table("V").unwrap().access().snapshot()[0];
        let before = scans();
        let rows = execute(&db, &plan).unwrap();
        assert_eq!(scans(), before, "the join must probe V, not scan it");
        assert_eq!(
            sorted(rows),
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
                            pred.eval_bool(r),
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
                        pred.eval_bool(r),
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
    fn batch_size_bounds_chunks() {
        let mut db = Database::new();
        let t = db.create_table(TableSchema::keyless("T", &["a"])).unwrap();
        for i in 0..2500i64 {
            t.insert(row![i]).unwrap();
        }
        // Scan chunks hold the batch size, the last one the rest.
        let plan = Plan::scan("T");
        let sizes: Vec<usize> = Executor::new(&db)
            .open_chunks(&plan)
            .unwrap()
            .map(|c| c.unwrap().len())
            .collect();
        assert_eq!(sizes, vec![1024, 1024, 452]);
        assert_eq!(sizes.iter().sum::<usize>(), 2500);
        let sizes: Vec<usize> = Executor::with_batch_size(&db, 100)
            .open_chunks(&plan)
            .unwrap()
            .map(|c| c.unwrap().len())
            .collect();
        assert!(sizes.iter().all(|&s| s <= 100), "{sizes:?}");
        assert_eq!(sizes.iter().sum::<usize>(), 2500);
    }

    #[test]
    fn with_batch_size_is_honored_through_materialization_points() {
        let mut db = Database::new();
        let t = db.create_table(TableSchema::keyless("T", &["a"])).unwrap();
        for i in 0..5000i64 {
            t.insert(row![(i * 7) % 5000]).unwrap();
        }
        // A hash join (its build side is a materialization point) and a
        // Distinct between the scan and the output: chunks on every side
        // respect the configured batch, not a hard-coded constant.
        let plan = Plan::scan("T")
            .join(Plan::scan("T"), vec![(0, 0)])
            .distinct();
        let sizes: Vec<usize> = Executor::with_batch_size(&db, 8)
            .open_chunks(&plan)
            .unwrap()
            .map(|c| c.unwrap().len())
            .collect();
        assert!(sizes.iter().all(|&s| s <= 8), "{sizes:?}");
        assert_eq!(sizes.iter().sum::<usize>(), 5000);
        // And a configured batch *larger* than the default is reached,
        // not clipped at BATCH_SIZE.
        let sizes: Vec<usize> = Executor::with_batch_size(&db, 4096)
            .open_chunks(&plan)
            .unwrap()
            .map(|c| c.unwrap().len())
            .collect();
        assert!(sizes.iter().all(|&s| s <= 4096), "{sizes:?}");
        assert!(sizes.iter().any(|&s| s > BATCH_SIZE), "{sizes:?}");
        assert_eq!(sizes.iter().sum::<usize>(), 5000);
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
