//! Footprint guard for the logical layer: the belief database of Sect. 3
//! that `Bdms::to_belief_database` exports, and the Def. 14 evaluator
//! (`Bdms::query_naive`) that answers over its closure — the oracle the
//! differential tests and beliefbench's checks run after every step.
//!
//! On the `Lazy` Table 2 store at n = 2,000 (seed 7) this test bounds
//!
//! * the live bytes the exported belief database holds per explicit
//!   statement, and
//! * the peak bytes `query_naive` allocates on top of the store for q3
//!   (the export, the entailed worlds of its closure and the answers).
//!
//! With a belief world kept as a map of one `BTreeSet` of rows per
//! `(relation, key)` the export held 500 B per statement and q3's oracle
//! peaked at 1,767 KB above the store; with the world as two ordered sets
//! of tuples, 213 B and 720 KB (each budget is that + 15 %).
//!
//! Measured with a counting global allocator (the whole binary holds
//! exactly one `#[test]`, so no other thread skews the counters).

use beliefdb::core::DefaultPolicy;
use beliefdb::gen::generate_bdms_with_policy;
use beliefdb::gen::scenarios::table2_config;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};

struct CountingBytes;

static LIVE: AtomicIsize = AtomicIsize::new(0);
static PEAK: AtomicIsize = AtomicIsize::new(0);

fn grow(by: isize) {
    let now = LIVE.fetch_add(by, Ordering::Relaxed) + by;
    PEAK.fetch_max(now, Ordering::Relaxed);
}

unsafe impl GlobalAlloc for CountingBytes {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            grow(layout.size() as isize);
        }
        p
    }

    unsafe fn realloc(&self, p: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let q = System.realloc(p, layout, new_size);
        if !q.is_null() {
            grow(new_size as isize - layout.size() as isize);
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
/// Upper bound on the peak bytes of `query_naive` on q3 above the store.
const MAX_ORACLE_PEAK_KB: f64 = 828.0;

#[test]
fn the_logical_export_and_the_oracle_stay_under_budget() {
    let (bdms, _) =
        generate_bdms_with_policy(&table2_config(2_000, 7), DefaultPolicy::Lazy).unwrap();
    let (_, q3) = beliefdb_bench::table2_queries(&bdms)
        .unwrap()
        .into_iter()
        .find(|(name, _)| name == "q3")
        .unwrap();

    let before = LIVE.load(Ordering::Relaxed);
    let logical = bdms.to_belief_database().unwrap();
    let held = (LIVE.load(Ordering::Relaxed) - before) as f64;
    let statements = logical.len();
    assert!(
        statements >= 2_000,
        "not the Table 2 store: {statements} statements"
    );
    drop(logical);
    let per_statement = held / statements as f64;
    println!(
        "export: {held} B live for {statements} statements: {per_statement:.0} B per statement"
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
        peak_kb <= MAX_ORACLE_PEAK_KB,
        "q3's oracle peaks {peak_kb:.0} KB above the store, budget {MAX_ORACLE_PEAK_KB} KB"
    );
}
