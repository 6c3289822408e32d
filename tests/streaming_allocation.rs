//! Peak-allocation guard for the (now chunk-at-a-time) streaming
//! executor: a selective scan→filter→project pipeline must allocate
//! O(batch), not O(input) — the working set is one in-flight chunk plus
//! the (tiny) output, independent of table size — and a pipelined join
//! must not materialize its probe side. The chunk-recycling section
//! additionally proves the steady state allocates *rows*, not chunk
//! buffers: large (buffer-sized) allocations stay O(1) in the number of
//! chunks drained once the thread-local pool is warm.
//!
//! Measured with a counting global allocator tracking live bytes and
//! large-allocation counts (the whole binary holds exactly one
//! `#[test]` so no other thread skews the counters).

use beliefdb::storage::{execute, execute_materialized, row, stream_chunks};
use beliefdb::storage::{CmpOp, Database, Expr, Plan, TableSchema};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, AtomicUsize, Ordering};

struct PeakTracking;

static CURRENT: AtomicIsize = AtomicIsize::new(0);
static PEAK: AtomicIsize = AtomicIsize::new(0);
static BIG_ALLOCS: AtomicUsize = AtomicUsize::new(0);
static ALLOCS: AtomicUsize = AtomicUsize::new(0);

/// Allocations at least this large count as "chunk-buffer sized": a
/// full 1024-row chunk buffer is 16 KiB, a selection vector 4 KiB,
/// while individual rows are tens of bytes.
const BIG: usize = 4096;

unsafe impl GlobalAlloc for PeakTracking {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            let cur = CURRENT.fetch_add(layout.size() as isize, Ordering::Relaxed)
                + layout.size() as isize;
            PEAK.fetch_max(cur, Ordering::Relaxed);
            if layout.size() >= BIG {
                BIG_ALLOCS.fetch_add(1, Ordering::Relaxed);
            }
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        p
    }

    unsafe fn realloc(&self, p: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let q = System.realloc(p, layout, new_size);
        if !q.is_null() {
            let delta = new_size as isize - layout.size() as isize;
            let cur = CURRENT.fetch_add(delta, Ordering::Relaxed) + delta;
            PEAK.fetch_max(cur, Ordering::Relaxed);
            if new_size >= BIG {
                BIG_ALLOCS.fetch_add(1, Ordering::Relaxed);
            }
        }
        q
    }

    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        System.dealloc(p, layout);
        CURRENT.fetch_sub(layout.size() as isize, Ordering::Relaxed);
    }
}

#[global_allocator]
static ALLOCATOR: PeakTracking = PeakTracking;

/// Run `f` and return (result, peak live bytes allocated above the
/// baseline while it ran).
fn peak_of<R>(f: impl FnOnce() -> R) -> (R, usize) {
    let base = CURRENT.load(Ordering::Relaxed);
    PEAK.store(base, Ordering::Relaxed);
    let out = f();
    let peak = (PEAK.load(Ordering::Relaxed) - base).max(0) as usize;
    (out, peak)
}

/// Run `f` and return (result, number of allocations of at least
/// [`BIG`] bytes it performed).
fn big_allocs_of<R>(f: impl FnOnce() -> R) -> (R, usize) {
    let before = BIG_ALLOCS.load(Ordering::Relaxed);
    let out = f();
    (out, BIG_ALLOCS.load(Ordering::Relaxed) - before)
}

/// Run `f` and return (result, total number of heap allocations of any
/// size it performed).
fn allocs_of<R>(f: impl FnOnce() -> R) -> (R, usize) {
    let before = ALLOCS.load(Ordering::Relaxed);
    let out = f();
    (out, ALLOCS.load(Ordering::Relaxed) - before)
}

#[test]
fn selective_pipelines_do_not_materialize_their_input() {
    const N: i64 = 50_000;
    let mut db = Database::new();
    let t = db
        .create_table(TableSchema::keyless("T", &["a", "b", "c"]))
        .unwrap();
    for i in 0..N {
        t.insert(row![i, i % 977, i % 7]).unwrap();
    }
    // Build the version-cached columnar transpose up front: it is
    // table-resident acceleration state (like an index), not per-query
    // working memory, and would otherwise land in the first measured
    // query's peak.
    t.columnar();

    // --- selective scan → filter → project ------------------------------
    // ~51 of 50 000 rows survive; no index covers column 1, so both
    // executors walk the heap.
    let pipeline = Plan::scan("T")
        .select(Expr::col_eq_lit(1, 3i64))
        .project_cols(&[0]);

    let (materialized, peak_mat) = peak_of(|| execute_materialized(&db, &pipeline).unwrap());
    let (streamed, peak_stream) = peak_of(|| execute(&db, &pipeline).unwrap());
    let mut a = materialized.clone();
    let mut b = streamed;
    a.sort();
    b.sort();
    assert_eq!(a, b);
    assert_eq!(materialized.len(), (N as usize).div_ceil(977));
    // The materializing executor clones the whole scan (O(input) live
    // rows); the streaming pipeline holds a constant number of rows plus
    // the (tiny) output. An order of magnitude of headroom keeps the
    // assertion robust across allocator/layout changes.
    assert!(
        peak_stream * 10 < peak_mat,
        "streaming peak {peak_stream}B is not ≪ materializing peak {peak_mat}B"
    );

    // --- pipelined hash join --------------------------------------------
    // T (50 000 rows) probes a small build side: only the build hash
    // table and the survivors may be live, never the probe input or the
    // full join output.
    let s = db
        .create_table(TableSchema::keyless("S", &["k", "tag"]))
        .unwrap();
    for i in 0..8i64 {
        s.insert(row![i, i * 10]).unwrap();
    }
    s.columnar();
    let join = Plan::scan("T")
        .join(Plan::scan("S"), vec![(2, 0)])
        .select(Expr::cmp(CmpOp::Lt, Expr::Col(0), Expr::lit(32i64)))
        .project_cols(&[0, 4]);
    let (join_mat, peak_join_mat) = peak_of(|| execute_materialized(&db, &join).unwrap());
    let (join_stream, peak_join_stream) = peak_of(|| execute(&db, &join).unwrap());
    let mut a = join_mat;
    let mut b = join_stream;
    a.sort();
    b.sort();
    assert_eq!(a, b);
    assert!(
        peak_join_stream * 10 < peak_join_mat,
        "join streaming peak {peak_join_stream}B is not ≪ materializing peak {peak_join_mat}B"
    );

    // --- early termination -----------------------------------------------
    // Pulling three rows from the pipeline costs one batch of work
    // (1024 rows of the 50 000-row scan), no matter how large the input
    // is — far below materializing anything.
    let wide = Plan::scan("T").project_cols(&[0, 1]);
    let ((), peak_take) = peak_of(|| {
        let mut chunks = stream_chunks(&db, &wide).unwrap();
        let first = chunks.next().unwrap().unwrap().into_rows();
        assert_eq!(first.into_iter().take(3).count(), 3);
    });
    assert!(
        peak_take * 10 < peak_mat,
        "pulling 3 rows peaked at {peak_take}B — upstream was materialized"
    );

    // --- O(batch), not O(input) ------------------------------------------
    // Drain a 1/7-selective pipeline (output ≫ one batch) at the chunk
    // level without collecting: the working set is one in-flight chunk.
    // Quadrupling the table must leave that peak unmoved, while the
    // materializing peak scales with the input.
    let big = db
        .create_table(TableSchema::keyless("T4", &["a", "b", "c"]))
        .unwrap();
    for i in 0..4 * N {
        big.insert(row![i, i % 977, i % 7]).unwrap();
    }
    big.columnar();
    let drain = |plan: &Plan, want: usize| {
        let mut live = 0usize;
        for chunk in stream_chunks(&db, plan).unwrap() {
            live += chunk.unwrap().len();
        }
        assert_eq!(live, want);
    };
    let matching = |n: i64| (0..n).filter(|i| i % 7 == 3).count();
    let sevenths = Plan::scan("T").select(Expr::col_eq_lit(2, 3i64));
    let sevenths4 = Plan::scan("T4").select(Expr::col_eq_lit(2, 3i64));
    let ((), peak_drain) = peak_of(|| drain(&sevenths, matching(N)));
    let ((), peak_drain4) = peak_of(|| drain(&sevenths4, matching(4 * N)));
    let (rows4, peak_mat4) = peak_of(|| execute_materialized(&db, &sevenths4).unwrap());
    assert_eq!(rows4.len(), matching(4 * N));
    assert!(
        peak_mat4 > peak_mat * 3,
        "materializing peak must scale with input: {peak_mat4}B vs {peak_mat}B"
    );
    assert!(
        peak_drain4 < peak_drain * 2,
        "chunked peak scales with input, not batch: {peak_drain4}B vs {peak_drain}B on 4x rows"
    );
    assert!(
        peak_drain4 * 20 < peak_mat4,
        "chunk-level drain peaked at {peak_drain4}B — input was materialized"
    );

    // --- chunk recycling --------------------------------------------------
    // Steady-state drain with chunks handed back via `Chunk::recycle`:
    // after warm-up the batch buffers cycle through the executor's
    // thread-local pool, so the number of *large* (buffer-sized)
    // allocations is O(1) — not O(chunks) as a fresh `Vec<Row>` per
    // batch would make it. Rows themselves are still allocated (they
    // are the output), but they are far below the BIG threshold.
    let wide4 = Plan::scan("T4").project_cols(&[0, 1]);
    let drain_recycling = || {
        let mut chunks = 0usize;
        let mut rows = 0usize;
        for chunk in stream_chunks(&db, &wide4).unwrap() {
            let chunk = chunk.unwrap();
            chunks += 1;
            rows += chunk.len();
            chunk.recycle();
        }
        (chunks, rows)
    };
    drain_recycling(); // warm the pool
    let ((chunks, rows), big) = big_allocs_of(drain_recycling);
    assert_eq!(rows, 4 * N as usize);
    assert!(chunks > 150, "expected O(input/batch) chunks, got {chunks}");
    assert!(
        big <= 24,
        "steady-state drain of {chunks} chunks performed {big} large allocations — \
         chunk buffers are not being recycled"
    );

    // Collectors recycle internally too: draining every chunk into one
    // reused scratch vector with `Chunk::drain_into` (how the Datalog
    // evaluator consumes plans) must also keep large allocations flat
    // (the drained rows are tiny; only buffers cross the BIG threshold).
    let (n_rows, big) = big_allocs_of(|| {
        let mut scratch = Vec::new();
        let mut n = 0usize;
        for chunk in stream_chunks(&db, &wide4).unwrap() {
            chunk.unwrap().drain_into(&mut scratch);
            n += scratch.len();
            scratch.clear();
        }
        n
    });
    assert_eq!(n_rows, 4 * N as usize);
    assert!(
        big <= 24,
        "draining collector performed {big} large allocations — buffers leak from the pool"
    );

    // --- zero-copy columnar scans -----------------------------------------
    // A bare scan drained at the chunk level hands out windows over the
    // table's column cache: no row is cloned, no buffer is filled. The
    // total allocation *count* must be O(chunks) — a row-cloning scan
    // would perform at least one allocation per row (200 000 here).
    let bare = Plan::scan("T4");
    let drain_windows = || {
        let mut live = 0usize;
        for chunk in stream_chunks(&db, &bare).unwrap() {
            live += chunk.unwrap().len();
        }
        live
    };
    drain_windows(); // warm any lazy state
    let (live, allocs) = allocs_of(drain_windows);
    assert_eq!(live, 4 * N as usize);
    assert!(
        allocs < 2_000,
        "bare columnar scan of {live} rows performed {allocs} allocations — \
         rows are being cloned instead of windowed"
    );
}
