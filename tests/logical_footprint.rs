//! Footprint guard for the logical layer: the belief database of Sect. 3
//! that `Bdms::to_belief_database` exports, and the Def. 14 evaluator
//! (`Bdms::query_naive`) that answers over its closure — the oracle the
//! differential tests and beliefbench's checks run after every step.
//!
//! A clone of a `Row`, a `GroundTuple`, a `BeliefPath` of up to five users
//! or a `BeliefStatement` must allocate nothing: rows are shared slices and
//! short paths are inline, so a tuple that many statements, worlds and
//! answers mention is held once. Building a row of five short strings (a
//! `Sightings` row of the paper's §6.1 workload) allocates exactly one
//! block, the row's own 136 B: strings of up to 22 bytes are inline in
//! their `Value`. A sign's value allocates nothing.
//!
//! On the `Lazy` Table 2 store at n = 2,000 (seed 7) this test bounds
//!
//! * the live bytes the exported belief database holds per explicit
//!   statement, and the bytes the export allocates per statement,
//!   temporaries included,
//! * the live bytes `BeliefDatabase::statements()` adds per statement on
//!   top of the export, and
//! * the peak bytes `query_naive` allocates on top of the store for q3
//!   (the export, the entailed worlds of its closure and the answers).
//!
//! With a belief world kept as a map of one `BTreeSet` of rows per
//! `(relation, key)` the export held 500 B per statement and q3's oracle
//! peaked at 1,767 KB above the store; with the world as two ordered sets
//! of tuples, 213 B and 720 KB. With boxed rows and paths `statements()`
//! copied every tuple and path (182 B a statement); with shared rows and
//! inline paths it holds 56 B a statement (the statement itself), the
//! export 227 B (a row's reference counts cost 16 B) and q3's oracle peaks
//! at 525 KB. The budgets are the last figures + 15 %, except the export's,
//! which stays 245 B. Reading a tuple through a `Vec` allocated 515 B a
//! statement for the export; straight into the row, 227 B, what it keeps.
//!
//! Measured with a counting global allocator (the whole binary holds
//! exactly one `#[test]`, so no other thread skews the counters).

use beliefdb::core::path::path;
use beliefdb::core::{BeliefStatement, DefaultPolicy, GroundTuple, RelId, Sign};
use beliefdb::gen::generate_bdms_with_policy;
use beliefdb::gen::scenarios::table2_config;
use beliefdb::storage::row;
use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::sync::atomic::{AtomicIsize, AtomicUsize, Ordering};

struct CountingBytes;

static LIVE: AtomicIsize = AtomicIsize::new(0);
static PEAK: AtomicIsize = AtomicIsize::new(0);
/// Bytes ever requested, frees not subtracted.
static ALLOCATED: AtomicUsize = AtomicUsize::new(0);
/// Blocks ever requested (a `realloc` counts as one).
static BLOCKS: AtomicUsize = AtomicUsize::new(0);

fn grow(by: isize) {
    let now = LIVE.fetch_add(by, Ordering::Relaxed) + by;
    PEAK.fetch_max(now, Ordering::Relaxed);
}

unsafe impl GlobalAlloc for CountingBytes {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            grow(layout.size() as isize);
            ALLOCATED.fetch_add(layout.size(), Ordering::Relaxed);
            BLOCKS.fetch_add(1, Ordering::Relaxed);
        }
        p
    }

    unsafe fn realloc(&self, p: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let q = System.realloc(p, layout, new_size);
        if !q.is_null() {
            grow(new_size as isize - layout.size() as isize);
            ALLOCATED.fetch_add(new_size, Ordering::Relaxed);
            BLOCKS.fetch_add(1, Ordering::Relaxed);
        }
        q
    }

    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        System.dealloc(p, layout);
        LIVE.fetch_sub(layout.size() as isize, Ordering::Relaxed);
    }
}

#[global_allocator]
static ALLOCATOR: CountingBytes = CountingBytes;

/// Upper bound on live bytes per explicit statement of the exported
/// belief database.
const MAX_EXPORT_BYTES_PER_STATEMENT: f64 = 245.0;
/// Upper bound on the bytes the export allocates per explicit statement,
/// whatever it frees.
const MAX_EXPORT_ALLOCATED_BYTES_PER_STATEMENT: f64 = 261.0;
/// Upper bound on the live bytes `statements()` adds per statement.
const MAX_LISTED_BYTES_PER_STATEMENT: f64 = 64.0;
/// Upper bound on the peak bytes of `query_naive` on q3 above the store.
const MAX_ORACLE_PEAK_KB: f64 = 604.0;

/// The bytes `f` allocates, whatever it frees.
fn allocated_by(f: impl FnOnce()) -> usize {
    blocks_and_bytes_by(f).1
}

/// The blocks and the bytes `f` allocates, whatever it frees.
fn blocks_and_bytes_by(f: impl FnOnce()) -> (usize, usize) {
    let (blocks, bytes) = (
        BLOCKS.load(Ordering::Relaxed),
        ALLOCATED.load(Ordering::Relaxed),
    );
    f();
    (
        BLOCKS.load(Ordering::Relaxed) - blocks,
        ALLOCATED.load(Ordering::Relaxed) - bytes,
    )
}

#[test]
fn the_logical_export_and_the_oracle_stay_under_budget() {
    let tuple = GroundTuple::new(RelId(0), row!["s1", "Carol", "crow", 614]);
    let row = tuple.row.clone();
    assert_eq!(allocated_by(|| drop(black_box(row.clone()))), 0, "Row");
    assert_eq!(
        allocated_by(|| drop(black_box(tuple.clone()))),
        0,
        "GroundTuple"
    );
    let mut users = vec![];
    for u in [1, 2, 1, 3, 2] {
        let w = path(&users);
        assert_eq!(allocated_by(|| drop(black_box(w.clone()))), 0, "path {w}");
        users.push(u);
    }
    let w = path(&users);
    assert_eq!(allocated_by(|| drop(black_box(w.clone()))), 0, "path {w}");
    let stmt = BeliefStatement::negative(w, tuple);
    assert_eq!(
        allocated_by(|| drop(black_box(stmt.clone()))),
        0,
        "BeliefStatement"
    );
    println!("clones: 0 B for a Row, a GroundTuple, a 0-5 user BeliefPath and a BeliefStatement");

    let sighting = blocks_and_bytes_by(|| {
        drop(black_box(row![
            black_box("s1234"),
            black_box("u17"),
            black_box("species3"),
            black_box("6-14-08"),
            black_box("loc5")
        ]))
    });
    assert_eq!(sighting, (1, 136), "a row of five short strings");
    assert_eq!(
        allocated_by(|| drop(black_box(Sign::Pos.value()))),
        0,
        "Sign::Pos.value()"
    );
    println!(
        "rows: {} block of {} B for five short strings; 0 B for a sign's value",
        sighting.0, sighting.1
    );

    let (bdms, _) =
        generate_bdms_with_policy(&table2_config(2_000, 7), DefaultPolicy::Lazy).unwrap();
    let (_, q3) = beliefdb_bench::table2_queries(&bdms)
        .unwrap()
        .into_iter()
        .find(|(name, _)| name == "q3")
        .unwrap();

    let before = LIVE.load(Ordering::Relaxed);
    let allocated_before = ALLOCATED.load(Ordering::Relaxed);
    let logical = bdms.to_belief_database().unwrap();
    let allocated = (ALLOCATED.load(Ordering::Relaxed) - allocated_before) as f64;
    let held = (LIVE.load(Ordering::Relaxed) - before) as f64;
    let statements = logical.len();
    assert!(
        statements >= 2_000,
        "not the Table 2 store: {statements} statements"
    );
    let per_statement = held / statements as f64;
    let allocated_per_statement = allocated / statements as f64;
    println!(
        "export: {held} B live for {statements} statements: {per_statement:.0} B per statement \
         ({allocated_per_statement:.0} B allocated per statement)"
    );
    let before = LIVE.load(Ordering::Relaxed);
    let listed = logical.statements();
    let listed_bytes = (LIVE.load(Ordering::Relaxed) - before) as f64;
    assert_eq!(listed.len(), statements);
    drop(listed);
    drop(logical);
    let listed_per_statement = listed_bytes / statements as f64;
    println!(
        "statements(): {listed_bytes} B live on top of the export: \
         {listed_per_statement:.0} B per statement"
    );

    let base = LIVE.load(Ordering::Relaxed);
    PEAK.store(base, Ordering::Relaxed);
    let oracle = bdms.query_naive(&q3).unwrap();
    let peak_kb = (PEAK.load(Ordering::Relaxed) - base) as f64 / 1024.0;
    println!(
        "oracle: q3 peaks {peak_kb:.0} KB above the store, {} rows",
        oracle.len()
    );
    assert_eq!(
        oracle,
        bdms.query(&q3).unwrap(),
        "the oracle disagrees with the engine on q3"
    );

    assert!(
        per_statement <= MAX_EXPORT_BYTES_PER_STATEMENT,
        "{per_statement:.0} B per exported statement, budget {MAX_EXPORT_BYTES_PER_STATEMENT} B"
    );
    assert!(
        allocated_per_statement <= MAX_EXPORT_ALLOCATED_BYTES_PER_STATEMENT,
        "the export allocates {allocated_per_statement:.0} B per statement, \
         budget {MAX_EXPORT_ALLOCATED_BYTES_PER_STATEMENT} B"
    );
    assert!(
        listed_per_statement <= MAX_LISTED_BYTES_PER_STATEMENT,
        "statements() holds {listed_per_statement:.0} B per statement, \
         budget {MAX_LISTED_BYTES_PER_STATEMENT} B"
    );
    assert!(
        peak_kb <= MAX_ORACLE_PEAK_KB,
        "q3's oracle peaks {peak_kb:.0} KB above the store, budget {MAX_ORACLE_PEAK_KB} KB"
    );
}
