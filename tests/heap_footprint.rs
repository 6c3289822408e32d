//! Footprint guard: resident bytes per tuple of the canonical
//! representation `R*`.
//!
//! The paper's cost axis is `|R*|` (Sect. 6): every annotation becomes
//! 34–81 internal tuples on our grids, so each byte spent per tuple is
//! multiplied by that ratio. This test builds the Table 2 store at
//! n = 2,000 and bounds the live heap bytes the process requested per
//! tuple — rows, primary-key maps, secondary indexes and the in-memory
//! mirrors together — so the per-tuple cost cannot creep up unnoticed.
//! History of the same store: 277 B per tuple with key-copying indexes and
//! rows as boxed `Value` slices, 184 B with key-less indexes, 71 B with the
//! column heap and two hash maps of 16-byte entries on `V`, 57.7 B with one
//! index of 8-byte entries grouped by world, 36.4 B with heap cells in the
//! narrowest lanes that hold them (8 B a `V` row, not 28) and index runs
//! that allocate what they use, 27.9 B once a tuple's tid is found through
//! an index over `R*` itself instead of a hash map holding a second, owned
//! copy of every `R*` tuple (the budget is that + 15 %), 27.5 B with each
//! interned string held once, and 25.2 B once the world relations `E`, `D`
//! and `S` are no longer stored beside the world directory (their rows
//! still count as tuples: they are the paper's size measure).
//!
//! The store is built under the `Eager` default policy, the representation
//! those numbers describe. Under `Lazy`, `V` keeps only the explicit
//! statements and 3.9 tuples an annotation remain, so the bound is per
//! annotation instead: 556 B measured with that copy, 279 B without it
//! (`R*`'s heap and its `by_tuple` index are most of it), budget + 15 %,
//! then 266 B, and 193 B without the stored `E`, `D` and `S`, where the
//! `Eager` store holds 822 B an annotation — the test checks that the
//! budget would fail it.
//!
//! Measured with a counting global allocator (the whole binary holds
//! exactly one `#[test]`, so no other thread skews the counter).

use beliefdb::core::DefaultPolicy;
use beliefdb::gen::generate_bdms_with_policy;
use beliefdb::gen::scenarios::table2_config;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};

struct LiveBytes;

static LIVE: AtomicIsize = AtomicIsize::new(0);

unsafe impl GlobalAlloc for LiveBytes {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        }
        p
    }

    unsafe fn realloc(&self, p: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let q = System.realloc(p, layout, new_size);
        if !q.is_null() {
            LIVE.fetch_add(
                new_size as isize - layout.size() as isize,
                Ordering::Relaxed,
            );
        }
        q
    }

    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        System.dealloc(p, layout);
        LIVE.fetch_sub(layout.size() as isize, Ordering::Relaxed);
    }
}

#[global_allocator]
static ALLOCATOR: LiveBytes = LiveBytes;

/// Upper bound on live requested bytes per `R*` tuple of the `Eager` store.
const MAX_BYTES_PER_TUPLE: f64 = 32.0;
/// Upper bound on live requested bytes per annotation of the `Lazy` store.
const MAX_LAZY_BYTES_PER_ANNOTATION: f64 = 320.0;

/// Build the Table 2 store at n = 2,000 under `policy` and drop it; returns
/// the live bytes it held, its `R*` tuples and its accepted annotations.
fn footprint(policy: DefaultPolicy) -> (f64, usize, usize) {
    let before = LIVE.load(Ordering::Relaxed);
    let (bdms, report) = generate_bdms_with_policy(&table2_config(2_000, 7), policy).unwrap();
    let held = (LIVE.load(Ordering::Relaxed) - before) as f64;
    (held, bdms.stats().total_tuples, report.accepted)
}

#[test]
fn table2_store_stays_under_the_per_tuple_budget() {
    let (held, tuples, accepted) = footprint(DefaultPolicy::Eager);
    assert!(
        accepted >= 2_000 && tuples > 20 * accepted,
        "not the Table 2 store: {accepted} annotations, {tuples} tuples"
    );
    let per_tuple = held / tuples as f64;
    let eager_per_annotation = held / accepted as f64;
    println!(
        "Eager: {held} B live for {tuples} tuples: {per_tuple:.1} B per tuple, \
         {eager_per_annotation:.0} B per annotation"
    );
    assert!(
        per_tuple <= MAX_BYTES_PER_TUPLE,
        "{per_tuple:.1} B per R* tuple, budget {MAX_BYTES_PER_TUPLE} B"
    );

    let (held, tuples, accepted) = footprint(DefaultPolicy::Lazy);
    let per_annotation = held / accepted as f64;
    println!("Lazy: {held} B live for {tuples} tuples: {per_annotation:.0} B per annotation");
    assert!(
        per_annotation <= MAX_LAZY_BYTES_PER_ANNOTATION,
        "{per_annotation:.0} B per annotation, budget {MAX_LAZY_BYTES_PER_ANNOTATION} B"
    );
    assert!(
        eager_per_annotation > MAX_LAZY_BYTES_PER_ANNOTATION,
        "the Lazy budget does not tell the policies apart"
    );
}
