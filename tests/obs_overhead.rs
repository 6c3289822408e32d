//! Overhead guard for the observability layer: with obs **disabled**
//! (no `EXPLAIN ANALYZE`, slowlog off), the hot paths must cost
//! essentially nothing.
//!
//! Three claims, checked with a counting global allocator (same
//! technique as `tests/spill_allocation.rs`; one `#[test]` per binary
//! so no other thread skews the counters):
//!
//! 1. The always-on primitives are allocation-free: metric increments,
//!    latency recording, disabled-`Recorder` spans, the slowlog's
//!    armed check, the statement-tracking gate, and the disabled plan
//!    verifier allocate **zero** bytes.
//! 2. Query execution with obs disabled allocates **identically** run
//!    to run — the disabled profile path adds no per-run allocations
//!    (a `NodeObs::disabled()` is a `None`, not a node tree), and the
//!    same holds through the session with statement tracking off (the
//!    fingerprint path is never reached).
//! 3. (Release builds only) a disabled run is not slower than a fully
//!    profiled run — i.e. the disabled path cannot be accidentally
//!    paying the profiling cost. Profiling does strictly more work
//!    (a timestamp pair per `next()`), so disabled ≤ 2× profiled on
//!    medians is a generous, noise-proof bound.

use beliefdb::storage::obs::{
    clear_statements, set_statements_enabled, statements_enabled, statements_snapshot,
};
use beliefdb::storage::sema;
use beliefdb::storage::{
    metrics, row, CmpOp, Database, Executor, Expr, Metric, Plan, Recorder, SlowLog, TableSchema,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

struct Counting;

/// Bytes ever allocated (monotonic; realloc counts only growth).
static TOTAL: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            TOTAL.fetch_add(layout.size(), Ordering::Relaxed);
        }
        p
    }

    unsafe fn realloc(&self, p: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let q = System.realloc(p, layout, new_size);
        if !q.is_null() {
            TOTAL.fetch_add(new_size.saturating_sub(layout.size()), Ordering::Relaxed);
        }
        q
    }

    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        System.dealloc(p, layout);
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Run `f` and return (result, bytes allocated while it ran).
fn allocated_by<R>(f: impl FnOnce() -> R) -> (R, usize) {
    let before = TOTAL.load(Ordering::Relaxed);
    let out = f();
    (out, TOTAL.load(Ordering::Relaxed) - before)
}

fn database() -> Database {
    let mut db = Database::new();
    let t = db
        .create_table(TableSchema::keyless("T", &["k", "a", "b"]))
        .unwrap();
    for i in 0..4_000i64 {
        t.insert(row![i % 97, i, (i * 31) % 613]).unwrap();
    }
    let b = db
        .create_table(TableSchema::keyless("B", &["k", "tag"]))
        .unwrap();
    for i in 0..400i64 {
        b.insert(row![i % 97, i]).unwrap();
    }
    db
}

/// A representative pipeline: scan → filter → join → distinct.
fn workload() -> Plan {
    Plan::scan("T")
        .select(Expr::cmp(CmpOp::Gt, Expr::Col(1), Expr::lit(100i64)))
        .join(Plan::scan("B"), vec![(0, 0)])
        .distinct()
}

/// Drain the plan with obs disabled; returns the produced row count.
fn drain(db: &Database, plan: &Plan) -> usize {
    let exec = Executor::new(db);
    let mut out = 0usize;
    for chunk in exec.open_chunks(plan).unwrap() {
        out += chunk.unwrap().len();
    }
    out
}

/// Drain the plan with per-operator profiling on.
fn drain_profiled(db: &Database, plan: &Plan) -> usize {
    let exec = Executor::new(db);
    let (stream, profile) = exec.open_chunks_profiled(plan).unwrap();
    let mut out = 0usize;
    for chunk in stream {
        out += chunk.unwrap().len();
    }
    assert_eq!(profile.rows_out() as usize, out);
    out
}

fn median_nanos(mut f: impl FnMut(), runs: usize) -> u64 {
    let mut samples: Vec<u64> = (0..runs)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_nanos() as u64
        })
        .collect();
    samples.sort_unstable();
    samples[runs / 2]
}

#[test]
fn disabled_observability_is_free() {
    let db = database();
    let plan = workload();

    // Warm up everything lazily initialized: thread-locals (metric
    // shard index, chunk pools), the slowlog env read, and both
    // executor paths.
    metrics().incr(Metric::RowsScanned);
    metrics().record_latency(1);
    let slowlog = SlowLog::new();
    let expect = drain(&db, &plan);
    assert!(expect > 0, "workload must produce rows");
    assert_eq!(drain_profiled(&db, &plan), expect);
    drain(&db, &plan);

    // 1a. Metric increments never allocate.
    let ((), bytes) = allocated_by(|| {
        for _ in 0..10_000 {
            metrics().incr(Metric::RowsScanned);
            metrics().add(Metric::RowsEmitted, 7);
        }
    });
    assert_eq!(bytes, 0, "metric increments allocated {bytes}B");

    // 1b. Latency recording never allocates.
    let ((), bytes) = allocated_by(|| {
        for n in 0..10_000u64 {
            metrics().record_latency(n * 131);
        }
    });
    assert_eq!(bytes, 0, "latency recording allocated {bytes}B");

    // 1c. A disabled recorder costs nothing: creation, spans (the
    // closure still runs), and finish are all allocation-free.
    let (acc, bytes) = allocated_by(|| {
        let mut acc = 0u64;
        for i in 0..10_000u64 {
            let mut rec = Recorder::disabled();
            acc += rec.span("parse", || i + 1);
            acc += rec.span("execute", || i * 2);
            assert!(rec.finish().is_none());
        }
        acc
    });
    assert!(acc > 0);
    assert_eq!(bytes, 0, "disabled recorder allocated {bytes}B");

    // 1d. The slowlog's hot check (one relaxed load) never allocates.
    let (armed, bytes) = allocated_by(|| {
        let mut armed = 0u32;
        for _ in 0..10_000 {
            armed += slowlog.enabled() as u32;
        }
        armed
    });
    assert_eq!(armed, 0, "slowlog must be off by default");
    assert_eq!(bytes, 0, "slowlog armed-check allocated {bytes}B");

    // 1e. The statement-tracking gate (one relaxed load, checked on
    // every session statement) never allocates while tracking is off —
    // the fingerprint/normalize machinery must only run when enabled.
    set_statements_enabled(false);
    clear_statements();
    let (on, bytes) = allocated_by(|| {
        let mut on = 0u32;
        for _ in 0..10_000 {
            on += statements_enabled() as u32;
        }
        on
    });
    assert_eq!(on, 0, "statement tracking must be off here");
    assert_eq!(bytes, 0, "statement-tracking gate allocated {bytes}B");

    // 1f. The plan verifier's disabled path (one relaxed load, checked
    // after every optimizer pass and at executor open) never allocates:
    // neither the bare gate nor the full `verify_plan_if_enabled` call.
    sema::set_verify(false);
    let (armed, bytes) = allocated_by(|| {
        let mut armed = 0u32;
        for _ in 0..10_000 {
            armed += sema::verify_enabled() as u32;
        }
        armed
    });
    assert_eq!(armed, 0, "verifier must be forced off here");
    assert_eq!(bytes, 0, "verifier gate allocated {bytes}B");
    let (ok, bytes) = allocated_by(|| {
        let mut ok = 0u32;
        for _ in 0..1_000 {
            ok += sema::verify_plan_if_enabled(&db, &plan, "overhead_test").is_ok() as u32;
        }
        ok
    });
    assert_eq!(ok, 1_000);
    assert_eq!(
        bytes, 0,
        "disabled verify_plan_if_enabled allocated {bytes}B"
    );
    sema::reset_verify();

    // 2. With obs disabled, repeated identical runs allocate byte-for-
    // byte identically: the disabled profile path contributes no
    // allocations of its own (pools are warm, hash-map growth is
    // load-factor-driven and input-deterministic).
    let (rows_a, bytes_a) = allocated_by(|| drain(&db, &plan));
    let (rows_b, bytes_b) = allocated_by(|| drain(&db, &plan));
    assert_eq!(rows_a, expect);
    assert_eq!(rows_b, expect);
    assert_eq!(
        bytes_a, bytes_b,
        "disabled runs allocated differently: {bytes_a}B vs {bytes_b}B"
    );

    // 2b. Session hot path with statement tracking disabled: the
    // capture wrapper is a single gate check, so repeated identical
    // SELECTs allocate byte-for-byte identically and nothing lands in
    // sys.statements. (Tracking was switched off in 1e.)
    {
        use beliefdb::core::ExternalSchema;
        use beliefdb::sql::Session;
        assert!(!statements_enabled());
        let mut session =
            Session::new(ExternalSchema::new().with_relation("R", &["x", "y"])).unwrap();
        session.execute("insert into R values ('a','b')").unwrap();
        let run = |s: &Session| s.query("select S.x from R as S").unwrap().rows().len();
        run(&session); // warm the plan cache, pools, and thread-locals
        run(&session);
        let (rows_a, bytes_a) = allocated_by(|| run(&session));
        let (rows_b, bytes_b) = allocated_by(|| run(&session));
        assert_eq!(rows_a, 1);
        assert_eq!(rows_b, 1);
        assert_eq!(
            bytes_a, bytes_b,
            "disabled statement tracking changed per-run allocation: {bytes_a}B vs {bytes_b}B"
        );
        assert!(
            statements_snapshot().is_empty(),
            "disabled tracking must record no statements"
        );
    }
    set_statements_enabled(true);

    // 3. Timing (release only — debug timings are noise): the disabled
    // path must not be paying for profiling. Profiling does strictly
    // more work, so disabled ≤ 2× profiled on medians.
    if cfg!(debug_assertions) {
        eprintln!("debug build: skipping the release timing bound");
        return;
    }
    const RUNS: usize = 9;
    let disabled = median_nanos(
        || {
            drain(&db, &plan);
        },
        RUNS,
    );
    let profiled = median_nanos(
        || {
            drain_profiled(&db, &plan);
        },
        RUNS,
    );
    assert!(
        Duration::from_nanos(disabled) <= 2 * Duration::from_nanos(profiled),
        "disabled path ({disabled}ns median) slower than 2x the profiled path ({profiled}ns)"
    );
}
