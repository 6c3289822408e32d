//! Model-based property test of the column heap: random insert /
//! `insert_cells` / `copy_row` / `copy_group` / delete /
//! `delete_by_index_where` / get / iterate / `columnar()` sequences on a
//! [`Table`] against a `Vec<Option<Row>>` of slots with a free list, once
//! with the real index hasher and once with every key in one group.
//!
//! The columns cover what a heap column can go through: one stays `Int`,
//! one is `Bool` or NULL, one is a string or NULL, one takes every value
//! type (so `Int(1)` meets `Str("1")` and the column is demoted), one is
//! NULL except for a rare late integer. NULLs come first, last or in the
//! middle as the case generator pleases. Integers come from both sides of
//! every lane width of the heap's narrow vectors (`EDGES`), in rows and as
//! the override of a copy, so a column is re-typed wider by an insert, by
//! one row copy and in the middle of a group copy, before and after slots
//! were freed. (Dictionaries past 255 and 65,535 entries need more rows
//! than a case has: `heap.rs` has those, with the exact byte estimates.)

use crate::column::ColumnSet;
use crate::heap::Heap;
use crate::index::{tag_of_cells, CollideAll, Index, IndexRid, RowId};
use crate::row::Row;
use crate::schema::TableSchema;
use crate::table::Table;
use crate::value::{Cell, Value};
use proptest::prelude::*;
use std::collections::BTreeSet;

const COLUMNS: [&str; 5] = ["i", "b", "s", "any", "late"];
const BY_ANY_S: [usize; 2] = [3, 2];

#[derive(Debug, Clone)]
enum Op {
    Insert(Row),
    /// The same row through `insert_cells`, borrowed.
    InsertCells(Row),
    /// `copy_row` of the n-th live row (modulo the live count) with these
    /// columns overridden: a column may meet a value of another type (and
    /// be demoted), the NULL-only `late` column its first value, and the
    /// copy lands in a reused slot whenever one is free.
    CopyRow(usize, Vec<(usize, Value)>),
    /// `copy_group` on `(any, s)` of the rows with this `any`, or on `i` of
    /// the rows with the n-th live row's `i`, with these columns
    /// overridden: the copies fill the free slots, lowest first, in index
    /// order.
    CopyGroup(Option<Value>, usize, Vec<(usize, Value)>),
    /// Delete the n-th live row (modulo the live count).
    Delete(usize),
    /// `delete_by_index_where` on `(any, s)`, keeping rows whose `i` is odd.
    DeleteEvenByKey(Value, Value),
    /// `get` and `cell` on slot n, live or not.
    Get(usize),
    /// Iteration, `scan`, `columnar()` and the indexes against the model.
    Check,
}

fn or_null(v: impl Strategy<Value = Value> + 'static) -> impl Strategy<Value = Value> {
    prop_oneof![3 => v, 1 => Just(Value::Null)]
}

/// Integers next to the limits of one-, two- and four-byte lanes, zig-zag
/// mapped (−128..=127, ..) and plain (0..=255, ..), and the two ends.
const EDGES: [i64; 20] = [
    127,
    128,
    -128,
    -129,
    255,
    256,
    32_767,
    32_768,
    -32_768,
    -32_769,
    65_535,
    65_536,
    i32::MAX as i64,
    i32::MAX as i64 + 1,
    i32::MIN as i64,
    i32::MIN as i64 - 1,
    u32::MAX as i64,
    u32::MAX as i64 + 1,
    i64::MAX,
    i64::MIN,
];

fn edge_int() -> impl Strategy<Value = Value> {
    (0..EDGES.len()).prop_map(|n| Value::int(EDGES[n]))
}

fn string() -> impl Strategy<Value = Value> {
    (0i64..4).prop_map(|i| Value::str(i.to_string()))
}

/// Few values of every type, so keys repeat and `Int(1)` meets `Str("1")`,
/// and now and then an integer that needs wider lanes.
fn any_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        3 => (0i64..3).prop_map(Value::int),
        3 => string(),
        3 => Just(Value::Null),
        3 => proptest::bool::ANY.prop_map(Value::Bool),
        2 => edge_int(),
    ]
}

fn row() -> impl Strategy<Value = Row> {
    (
        prop_oneof![7 => (0i64..100).prop_map(Value::int), 1 => edge_int()],
        or_null(proptest::bool::ANY.prop_map(Value::Bool)),
        or_null(string()),
        any_value(),
        prop_oneof![9 => Just(Value::Null), 1 => (0i64..3).prop_map(Value::int)],
    )
        .prop_map(|(i, b, s, any, late)| Row::new([i, b, s, any, late]))
}

/// Overrides: any value for every column but `i`, which the delete
/// operation needs to stay an integer and which gets one that may widen it.
fn overrides() -> impl Strategy<Value = Vec<(usize, Value)>> {
    let one = prop_oneof![
        5 => (1..COLUMNS.len(), any_value()),
        1 => (Just(0usize), edge_int()),
    ];
    proptest::collection::vec(one, 0..4)
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => row().prop_map(Op::Insert),
        2 => row().prop_map(Op::InsertCells),
        3 => ((0usize..64), overrides()).prop_map(|(n, over)| Op::CopyRow(n, over)),
        2 => (prop_oneof![any_value().prop_map(Some), Just(None)], 0usize..64, overrides())
            .prop_map(|(any, n, over)| Op::CopyGroup(any, n, over)),
        3 => (0usize..64).prop_map(Op::Delete),
        1 => (any_value(), or_null(string())).prop_map(|(a, s)| Op::DeleteEvenByKey(a, s)),
        1 => (0usize..48).prop_map(Op::Get),
        1 => Just(Op::Check),
    ]
}

/// The slots of a heap and the order its free slots are reused in.
#[derive(Default)]
struct Model {
    slots: Vec<Option<Row>>,
    free: Vec<RowId>,
}

impl Model {
    fn insert(&mut self, row: Row) -> RowId {
        let rid = self.free.pop().unwrap_or(self.slots.len());
        if rid == self.slots.len() {
            self.slots.push(None);
        }
        self.slots[rid] = Some(row);
        rid
    }

    fn delete(&mut self, rid: RowId) -> Row {
        self.free.push(rid);
        self.slots[rid].take().expect("live row")
    }

    fn live(&self) -> impl Iterator<Item = (RowId, &Row)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(rid, slot)| Some((rid, slot.as_ref()?)))
    }

    fn keys(&self, cols: &[usize]) -> BTreeSet<Vec<Value>> {
        self.live()
            .map(|(_, row)| cols.iter().map(|&c| row[c].clone()).collect())
            .collect()
    }

    /// The rows holding `key` — all of `cols` or the first alone — in the
    /// order an index over `cols` lists them: by the tag of the remaining
    /// indexed cells, then by row id.
    fn sequence(&self, cols: &[usize], key: &[Value]) -> Vec<RowId> {
        let mut hits: Vec<(u32, RowId)> = self
            .live()
            .filter(|(_, r)| cols.iter().zip(key).all(|(&c, k)| r[c] == *k))
            .map(|(rid, r)| (tag_of_cells(cols[1..].iter().map(|&c| r[c].as_cell())), rid))
            .collect();
        hits.sort_unstable();
        hits.into_iter().map(|(_, rid)| rid).collect()
    }

    /// Copies of the rows `src` with `over` applied (of two entries for one
    /// column the first counts), stored the way `Heap::copy_rows` does:
    /// the free slots taken last-freed first but filled lowest first, then
    /// new ones.
    fn copy_rows(&mut self, src: &[RowId], over: &[(usize, Value)]) -> Vec<RowId> {
        let reused = self.free.len().min(src.len());
        let mut slots = self.free.split_off(self.free.len() - reused);
        slots.sort_unstable();
        slots.extend((self.slots.len()..).take(src.len() - reused));
        self.slots
            .resize(self.slots.len() + src.len() - reused, None);
        for (&from, &slot) in src.iter().zip(&slots) {
            let mut copy = self.slots[from].clone().expect("live row").into_values();
            for (col, v) in over.iter().rev() {
                copy[*col] = v.clone();
            }
            self.slots[slot] = Some(Row::new(copy));
        }
        slots
    }
}

fn check(t: &Table, model: &Model) -> Result<(), TestCaseError> {
    let live: Vec<(RowId, Row)> = model.live().map(|(rid, r)| (rid, r.clone())).collect();
    prop_assert_eq!(
        &t.iter().collect::<Vec<_>>(),
        &live,
        "live rows in slot order"
    );
    prop_assert_eq!(
        t.row_ids().collect::<Vec<_>>(),
        live.iter().map(|(rid, _)| *rid).collect::<Vec<_>>()
    );
    prop_assert_eq!(
        t.scan(),
        live.iter().map(|(_, r)| r.clone()).collect::<Vec<_>>()
    );

    // The same typed vectors, sorted dictionaries and validity bitmaps a
    // transpose of the live rows would build.
    let refs: Vec<&Row> = live.iter().map(|(_, r)| r).collect();
    let want = ColumnSet::from_rows(COLUMNS.len(), &refs);
    let got = t.columnar();
    for (i, (_, row)) in live.iter().enumerate() {
        prop_assert_eq!(&got.row_at(i), row, "columnar row {}", i);
    }
    prop_assert_eq!(&*got, &want);

    for (index, cols) in [("by_any_s", &BY_ANY_S[..]), ("by_i", &[0][..])] {
        let keys = model.keys(cols);
        let firsts = model.keys(&cols[..1]);
        let stats = t.index_stats();
        let distinct = |cols: &[usize]| stats.iter().find(|s| s.0 == index && s.1 == cols);
        prop_assert_eq!(distinct(cols).unwrap().2, keys.len(), "keys of {}", index);
        let (.., groups) = distinct(&cols[..1]).unwrap();
        prop_assert_eq!(*groups, firsts.len(), "first-column values of {}", index);
        for key in keys.iter().chain(&firsts) {
            let hits: Vec<RowId> = t.index_lookup(index, key).unwrap().collect();
            prop_assert_eq!(hits, model.sequence(cols, key), "{} {:?}", index, key);
        }
    }
    Ok(())
}

fn run(ops: &[Op]) -> Result<(), TestCaseError> {
    let mut t = Table::new(TableSchema::keyless("T", &COLUMNS));
    t.create_index("by_any_s", &["any", "s"]).unwrap();
    t.create_index("by_i", &["i"]).unwrap();
    let mut model = Model::default();
    for op in ops {
        match op {
            Op::Insert(row) => {
                let rid = t.insert(row.clone()).unwrap();
                prop_assert_eq!(rid, model.insert(row.clone()), "slot of the new row");
            }
            Op::InsertCells(row) => {
                let rid = t.insert_cells(&row.cells()).unwrap();
                prop_assert_eq!(rid, model.insert(row.clone()), "slot of the new row");
            }
            Op::CopyRow(n, over) => {
                let live: Vec<RowId> = model.live().map(|(rid, _)| rid).collect();
                let Some(&src) = live.get(n % live.len().max(1)) else {
                    continue;
                };
                // Of two entries for one column the first counts.
                let mut copy = model.slots[src].clone().expect("live row").into_values();
                for (col, v) in over.iter().rev() {
                    copy[*col] = v.clone();
                }
                let cells: Vec<(usize, Cell<'_>)> =
                    over.iter().map(|(col, v)| (*col, v.as_cell())).collect();
                let rid = t.copy_row(src, &cells).unwrap();
                prop_assert_eq!(rid, model.insert(Row::new(copy)), "slot of the copy");
                prop_assert_eq!(&t.get(rid).unwrap(), model.slots[rid].as_ref().unwrap());
            }
            Op::CopyGroup(any, n, over) => {
                let live: Vec<&Row> = model.live().map(|(_, row)| row).collect();
                let (index, cols, key) = match (any, live.get(n % live.len().max(1))) {
                    (Some(any), _) => ("by_any_s", &BY_ANY_S[..], any.clone()),
                    (None, Some(row)) => ("by_i", &[0][..], row[0].clone()),
                    (None, None) => continue,
                };
                let src = model.sequence(cols, std::slice::from_ref(&key));
                let cells: Vec<(usize, Cell<'_>)> =
                    over.iter().map(|(col, v)| (*col, v.as_cell())).collect();
                let index = t.index_id(index).unwrap();
                prop_assert_eq!(t.copy_group(index, &[key], &cells).unwrap(), src.len());
                for rid in model.copy_rows(&src, over) {
                    prop_assert_eq!(&t.get(rid).unwrap(), model.slots[rid].as_ref().unwrap());
                }
                check(&t, &model)?;
            }
            Op::Delete(n) => {
                let live: Vec<RowId> = model.live().map(|(rid, _)| rid).collect();
                if let Some(&rid) = live.get(n % live.len().max(1)) {
                    prop_assert_eq!(t.delete(rid).unwrap(), model.delete(rid));
                    prop_assert!(t.delete(rid).is_err(), "deleted twice");
                }
            }
            Op::DeleteEvenByKey(any, s) => {
                let even = |r: &Row| r[0].as_int().unwrap() % 2 == 0;
                let key = [any.clone(), s.clone()];
                // Index order is not slot order: free the slots as the
                // table does.
                let victims: Vec<RowId> = t.index_lookup("by_any_s", &key).unwrap().collect();
                let deleted = t.delete_by_index_where("by_any_s", &key, even).unwrap();
                let mut expected = 0;
                for rid in victims {
                    if model.slots[rid].as_ref().is_some_and(even) {
                        model.delete(rid);
                        expected += 1;
                    }
                }
                prop_assert_eq!(deleted, expected);
                let left = model
                    .live()
                    .filter(|(_, r)| r[3] == *any && r[2] == *s && even(r))
                    .count();
                prop_assert_eq!(left, 0, "an even row with the key survived");
            }
            Op::Get(rid) => match model.slots.get(*rid).and_then(Option::as_ref) {
                Some(row) => {
                    prop_assert_eq!(&t.get(*rid).unwrap(), row);
                    for (c, v) in row.values().iter().enumerate() {
                        prop_assert_eq!(t.cell(*rid, c).unwrap(), v.as_cell());
                    }
                }
                None => prop_assert!(t.get(*rid).is_err() && t.cell(*rid, 0).is_err()),
            },
            Op::Check => check(&t, &model)?,
        }
        prop_assert_eq!(
            (t.len(), t.slots()),
            (model.live().count(), model.slots.len())
        );
        // Cell for cell after every step: a column re-typed by this one
        // still holds what every other row wrote.
        for (rid, row) in model.live() {
            for (c, v) in row.values().iter().enumerate() {
                prop_assert_eq!(
                    t.cell(rid, c).unwrap(),
                    v.as_cell(),
                    "row {} col {}",
                    rid,
                    c
                );
            }
        }
    }
    check(&t, &model)
}

/// An index asked about a slot the heap has cleared but the index still
/// lists — the order `heap.remove`, `index.remove` — must not see it.
fn run_cleared_slots(ops: &[Op]) -> Result<(), TestCaseError> {
    let mut heap = Heap::new(COLUMNS.len());
    let mut idx = Index::new("by_any_s", BY_ANY_S.to_vec());
    let mut model = Model::default();
    for op in ops {
        match op {
            Op::Insert(row) | Op::InsertCells(row) => {
                let rid = heap.insert_cells(&row.cells());
                prop_assert_eq!(rid, model.insert(row.clone()));
                idx.insert(&heap, rid as IndexRid).unwrap();
            }
            Op::Delete(n) => {
                let live: Vec<RowId> = model.live().map(|(rid, _)| rid).collect();
                let Some(&rid) = live.get(n % live.len().max(1)) else {
                    continue;
                };
                let row = model.delete(rid);
                let key: Vec<Value> = BY_ANY_S.iter().map(|&c| row[c].clone()).collect();
                heap.remove(rid);
                for key in [&key[..], &key[..1]] {
                    let hits: Vec<RowId> = idx.matches(&heap, key).collect();
                    let want = model.sequence(&BY_ANY_S, key);
                    prop_assert_eq!(hits, want, "cleared slot {} under {:?}", rid, key);
                }
                idx.remove(&heap, rid as IndexRid).unwrap();
                prop_assert_eq!(idx.distinct_keys(), model.keys(&BY_ANY_S).len());
                prop_assert_eq!(idx.distinct_firsts(), model.keys(&BY_ANY_S[..1]).len());
            }
            _ => {}
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn heap_follows_the_model_with_the_real_hasher(
        ops in proptest::collection::vec(op(), 0..160)
    ) {
        run(&ops)?;
        run_cleared_slots(&ops)?;
    }

    #[test]
    fn heap_follows_the_model_when_every_key_collides(
        ops in proptest::collection::vec(op(), 0..160)
    ) {
        let _collide = CollideAll::on();
        run(&ops)?;
        run_cleared_slots(&ops)?;
    }
}

/// The column states a random case may or may not reach, spelled out.
#[test]
fn nulls_first_last_and_between_and_a_demotion() {
    let null = || Value::Null;
    let mut t = Table::new(TableSchema::keyless(
        "T",
        &["first", "last", "mid", "demoted", "never"],
    ));
    let rows = [
        Row::new([
            null(),
            Value::int(1),
            Value::str("a"),
            Value::int(1),
            null(),
        ]),
        Row::new([
            Value::int(7),
            Value::int(2),
            null(),
            Value::str("1"),
            null(),
        ]),
        Row::new([
            Value::int(8),
            null(),
            Value::str("b"),
            Value::Bool(true),
            null(),
        ]),
    ];
    for row in &rows {
        t.insert(row.clone()).unwrap();
    }
    assert_eq!(t.scan(), rows);
    let refs: Vec<&Row> = rows.iter().collect();
    assert_eq!(*t.columnar(), ColumnSet::from_rows(5, &refs));
    // Delete the string and the boolean: the demoted column's live cells
    // are integers again, and `first` is NULL in every live row.
    t.delete(1).unwrap();
    t.delete(2).unwrap();
    assert_eq!(*t.columnar(), ColumnSet::from_rows(5, &refs[..1]));
    // The freed slots take rows of yet another shape.
    let late = Row::new([Value::str("x"), null(), null(), null(), Value::Bool(false)]);
    assert_eq!(t.insert(late.clone()).unwrap(), 2);
    assert_eq!(t.scan(), [rows[0].clone(), late.clone()]);
    assert_eq!(*t.columnar(), ColumnSet::from_rows(5, &[&rows[0], &late]));
}

/// The copies a random case may or may not reach, spelled out: an override
/// that demotes its column, one on a column that has only ever held NULL,
/// and a copy into a reused slot.
#[test]
fn copies_override_demote_and_reuse_slots() {
    let mut t = Table::new(TableSchema::keyless("T", &["w", "k", "flag", "never"]));
    t.create_index("by_w_k", &["w", "k"]).unwrap();
    let first = Row::new([
        Value::int(1),
        Value::str("s1"),
        Value::str("y"),
        Value::Null,
    ]);
    let src = t.insert(first.clone()).unwrap();
    let dead = t
        .insert(Row::new([
            Value::int(1),
            Value::str("s2"),
            Value::str("y"),
            Value::Null,
        ]))
        .unwrap();
    t.delete(dead).unwrap();

    // Into the reused slot: integer and string overrides, `k` copied as a
    // code, `never` copied as the NULL it is.
    let n = Value::str("n");
    let copy = t
        .copy_row(src, &[(0, Cell::Int(2)), (2, n.as_cell())])
        .unwrap();
    assert_eq!(copy, dead);
    let second = Row::new([Value::int(2), Value::str("s1"), n.clone(), Value::Null]);
    assert_eq!(t.get(copy).unwrap(), second);
    // The NULL-only column takes a type from an override ...
    let typed = t.copy_row(copy, &[(3, Cell::Bool(true))]).unwrap();
    let third = Row::new([Value::int(2), Value::str("s1"), n, Value::Bool(true)]);
    assert_eq!(t.get(typed).unwrap(), third);
    // ... and a string column is demoted by an integer.
    let demoted = t.copy_row(src, &[(1, Cell::Int(7))]).unwrap();
    let fourth = Row::new([Value::int(1), Value::int(7), Value::str("y"), Value::Null]);
    assert_eq!(t.get(demoted).unwrap(), fourth);
    // A copy of the demoted row copies the boxed value.
    let again = t.copy_row(demoted, &[]).unwrap();
    assert_eq!(t.get(again).unwrap(), fourth);

    let rows = [first, second, third, fourth.clone(), fourth];
    assert_eq!(t.scan(), rows);
    let refs: Vec<&Row> = rows.iter().collect();
    assert_eq!(*t.columnar(), ColumnSet::from_rows(4, &refs));
    let key = [Value::int(2), Value::str("s1")];
    let hits: Vec<RowId> = t.index_lookup("by_w_k", &key).unwrap().collect();
    assert_eq!(hits, vec![copy, typed]);
}

/// The group copies a random case may or may not reach, spelled out: into
/// a table with free slots (lowest first, the rest appended, in index
/// order), with an override that demotes its column, and over a second
/// index that is not the one copied by.
#[test]
fn group_copies_reuse_slots_and_demote() {
    let mut t = Table::new(TableSchema::keyless("T", &["w", "k", "flag"]));
    t.create_index("by_w_k", &["w", "k"]).unwrap();
    t.create_index("by_flag", &["flag"]).unwrap();
    let by_w_k = t.index_id("by_w_k").unwrap();
    let row =
        |w: i64, k: &str, flag: &str| Row::new([Value::int(w), Value::str(k), Value::str(flag)]);
    for k in ["a", "b", "c", "d", "e"] {
        t.insert(row(1, k, "y")).unwrap();
    }
    // Slots 3 and 1 are free, in that order.
    t.delete(3).unwrap();
    t.delete(1).unwrap();
    let source: Vec<RowId> = t
        .index_lookup("by_w_k", &[Value::int(1)])
        .unwrap()
        .collect();
    assert_eq!(source.len(), 3);

    let n = Value::str("n");
    let over = [(0, Cell::Int(2)), (2, n.as_cell())];
    assert_eq!(t.copy_group(by_w_k, &[Cell::Int(1)], &over).unwrap(), 3);
    let copies: Vec<RowId> = t
        .index_lookup("by_w_k", &[Value::int(2)])
        .unwrap()
        .collect();
    assert_eq!(copies, [1, 3, 5], "free slots lowest first, then a new one");
    for (&copy, &from) in copies.iter().zip(&source) {
        let key = t.get(from).unwrap()[1].clone();
        assert_eq!(
            t.get(copy).unwrap(),
            Row::new([Value::int(2), key, n.clone()])
        );
    }
    assert_eq!(t.slots(), 6);
    let flagged = |flag: &str| {
        t.index_lookup("by_flag", &[Value::str(flag)])
            .unwrap()
            .count()
    };
    assert_eq!((flagged("y"), flagged("n")), (3, 3));

    // The integer column takes a string: demoted, the copies hold the
    // string and the sources their integers.
    let w = Value::str("two");
    assert_eq!(
        t.copy_group(by_w_k, &[Cell::Int(2)], &[(0, w.as_cell())])
            .unwrap(),
        3
    );
    let demoted: Vec<Row> = t
        .index_lookup("by_w_k", std::slice::from_ref(&w))
        .unwrap()
        .map(|rid| t.get(rid).unwrap())
        .collect();
    assert_eq!(demoted.len(), 3);
    assert!(demoted.iter().all(|r| r[0] == w && r[2] == n));
    assert_eq!(
        t.index_lookup("by_w_k", &[Value::int(2)]).unwrap().count(),
        3
    );
    let rows = t.scan();
    let refs: Vec<&Row> = rows.iter().collect();
    assert_eq!(*t.columnar(), ColumnSet::from_rows(3, &refs));
    assert_eq!(
        t.index_stats(),
        [
            ("by_w_k", &[0, 1][..], 9),
            ("by_w_k", &[0][..], 3),
            ("by_flag", &[2][..], 2)
        ]
    );
}
