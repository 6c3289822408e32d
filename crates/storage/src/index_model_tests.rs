//! Model-based property test of the grouped secondary indexes: random
//! insert / delete / `delete_by_index_where` / `copy_group` / lookup
//! sequences on a [`Table`] against a `BTreeMap<key, BTreeSet<RowId>>`
//! model, once with the real hasher and once with every key forced into
//! one group and one tag, so the collision paths of insert, remove, lookup,
//! group copy and the two distinct counters all run. Probes — for the full
//! key and for the first column alone, by name and by handle — are held to
//! the model's id *sequence*: the `(tag, row id)` order is part of the
//! contract, so the model is given the tag function.

use crate::index::{tag_of_cells, CollideAll, RowId};
use crate::row::Row;
use crate::schema::TableSchema;
use crate::table::Table;
use crate::value::{Cell, Value};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

#[derive(Debug, Clone)]
enum Op {
    Insert(Value, Value, i64),
    /// Delete the n-th live row (modulo the live count).
    Delete(usize),
    /// `delete_by_index_where` on `(a, b)`, keeping rows whose `c` is odd.
    DeleteEvenByKey(Value, Value),
    Lookup(Value, Value),
    /// A probe for the first column alone.
    LookupFirst(Value),
    /// `copy_group` of the rows with this `a`, these columns overridden:
    /// the run is cloned when `a` alone (or `a` and `c`) changes to a
    /// value no row holds, and rebuilt row by row otherwise.
    CopyGroup(Value, Vec<(usize, Value)>),
}

/// Few values of every type, so keys repeat and `Int(1)` meets `Str("1")`.
fn value() -> impl Strategy<Value = Value> {
    prop_oneof![
        (0i64..3).prop_map(Value::int),
        (0i64..3).prop_map(|i| Value::str(i.to_string())),
        Just(Value::Null),
        proptest::bool::ANY.prop_map(Value::Bool),
    ]
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (value(), value(), 0i64..100).prop_map(|(a, b, c)| Op::Insert(a, b, c)),
        2 => (0usize..64).prop_map(Op::Delete),
        1 => (value(), value()).prop_map(|(a, b)| Op::DeleteEvenByKey(a, b)),
        2 => (value(), value()).prop_map(|(a, b)| Op::Lookup(a, b)),
        1 => value().prop_map(Op::LookupFirst),
        2 => (value(), overrides()).prop_map(|(a, over)| Op::CopyGroup(a, over)),
    ]
}

/// Mostly `a` alone, to a value that is often new; sometimes `b` or `c`
/// as well, or nothing at all.
fn overrides() -> impl Strategy<Value = Vec<(usize, Value)>> {
    let fresh = prop_oneof![value(), (10i64..14).prop_map(Value::int)];
    let a = prop_oneof![6 => fresh.prop_map(|v| vec![(0, v)]), 1 => Just(Vec::new())];
    let more = proptest::collection::vec(
        prop_oneof![
            (Just(1), value()),
            (Just(2), (0i64..100).prop_map(Value::int))
        ],
        0..2,
    );
    (a, more).prop_map(|(a, more)| a.into_iter().chain(more).collect())
}

type Model = BTreeMap<Vec<Value>, BTreeSet<RowId>>;

/// The model of an index over `cols`, built from the live rows.
fn model_of(live: &BTreeMap<RowId, Row>, cols: &[usize]) -> Model {
    let mut model = Model::new();
    for (&rid, row) in live {
        let key = cols.iter().map(|&c| row[c].clone()).collect();
        model.entry(key).or_default().insert(rid);
    }
    model
}

/// The row ids the model holds under `key`, a full key or the first column
/// alone, in the order the index must list them: by the tag of the
/// remaining indexed cells, then by row id.
fn model_sequence(live: &BTreeMap<RowId, Row>, cols: &[usize], key: &[Value]) -> Vec<RowId> {
    let mut hits: Vec<(u32, RowId)> = live
        .iter()
        .filter(|(_, row)| cols.iter().zip(key).all(|(&c, k)| row[c] == *k))
        .map(|(&rid, row)| {
            let rest = cols[1..].iter().map(|&c| row[c].as_cell());
            (tag_of_cells(rest), rid)
        })
        .collect();
    hits.sort_unstable();
    hits.into_iter().map(|(_, rid)| rid).collect()
}

/// One lookup by name with owned values, and the same through the index
/// handle with borrowed cells: the model's sequence.
fn lookup(
    t: &Table,
    live: &BTreeMap<RowId, Row>,
    index: &str,
    cols: &[usize],
    key: &[Value],
) -> Result<(), TestCaseError> {
    let hits: Vec<RowId> = t.index_lookup(index, key).unwrap().collect();
    prop_assert_eq!(
        &hits,
        &model_sequence(live, cols, key),
        "{} {:?}",
        index,
        key
    );
    let cells: Vec<Cell<'_>> = key.iter().map(Value::as_cell).collect();
    let probed: Vec<RowId> = t
        .probe(t.index_id(index).unwrap(), &cells)
        .unwrap()
        .collect();
    prop_assert_eq!(probed, hits, "probe by handle and cells");
    Ok(())
}

/// Every key of the model, every value of its first column, and one key
/// and one value it lacks, answer as the model does; the two distinct
/// statistics are the model's counts.
fn check(
    t: &Table,
    live: &BTreeMap<RowId, Row>,
    index: &str,
    cols: &[usize],
) -> Result<(), TestCaseError> {
    let model = model_of(live, cols);
    let firsts = model_of(live, &cols[..1]);
    for (key, rids) in &model {
        lookup(t, live, index, cols, key)?;
        let in_order: Vec<RowId> = rids.iter().copied().collect();
        prop_assert_eq!(in_order, model_sequence(live, cols, key), "row-id order");
    }
    for first in firsts.keys() {
        lookup(t, live, index, cols, first)?;
    }
    lookup(t, live, index, cols, &vec![Value::int(99); cols.len()])?;
    lookup(t, live, index, cols, &[Value::int(99)])?;
    let stats = t.index_stats();
    let distinct = |cols: &[usize]| stats.iter().find(|s| s.0 == index && s.1 == cols);
    prop_assert_eq!(distinct(cols).unwrap().2, model.len(), "keys of {}", index);
    let (.., groups) = distinct(&cols[..1]).unwrap();
    prop_assert_eq!(*groups, firsts.len(), "first-column values of {}", index);
    Ok(())
}

fn run(ops: &[Op]) -> Result<(), TestCaseError> {
    let mut t = Table::new(TableSchema::keyless("T", &["a", "b", "c"]));
    t.create_index("by_ab", &["a", "b"]).unwrap();
    let mut live: BTreeMap<RowId, Row> = BTreeMap::new();
    for op in ops {
        match op {
            Op::Insert(a, b, c) => {
                let row = Row::new([a.clone(), b.clone(), Value::int(*c)]);
                let rid = t.insert(row.clone()).unwrap();
                prop_assert!(live.insert(rid, row).is_none(), "row id reused");
            }
            Op::Delete(n) => {
                if let Some(&rid) = live.keys().nth(n % live.len().max(1)) {
                    prop_assert_eq!(&t.delete(rid).unwrap(), &live[&rid]);
                    live.remove(&rid);
                }
            }
            Op::DeleteEvenByKey(a, b) => {
                let even = |r: &Row| r[2].as_int().unwrap() % 2 == 0;
                let key = [a.clone(), b.clone()];
                let deleted = t.delete_by_index_where("by_ab", &key, even).unwrap();
                let before = live.len();
                live.retain(|_, r| !(r[0] == *a && r[1] == *b && even(r)));
                prop_assert_eq!(deleted, before - live.len());
            }
            Op::Lookup(a, b) => lookup(&t, &live, "by_ab", &[0, 1], &[a.clone(), b.clone()])?,
            Op::LookupFirst(a) => lookup(&t, &live, "by_ab", &[0, 1], std::slice::from_ref(a))?,
            Op::CopyGroup(a, over) => {
                // Of two entries for one column the first counts.
                let mut want: Vec<Row> = model_sequence(&live, &[0, 1], std::slice::from_ref(a))
                    .into_iter()
                    .map(|rid| {
                        let mut copy = live[&rid].clone().into_values();
                        for (col, v) in over.iter().rev() {
                            copy[*col] = v.clone();
                        }
                        Row::new(copy)
                    })
                    .collect();
                let cells: Vec<(usize, Cell<'_>)> =
                    over.iter().map(|(col, v)| (*col, v.as_cell())).collect();
                let by_ab = t.index_id("by_ab").unwrap();
                let copied = t
                    .copy_group(by_ab, std::slice::from_ref(a), &cells)
                    .unwrap();
                prop_assert_eq!(copied, want.len());
                // The rows the table holds now and the model does not.
                let new: Vec<RowId> = t.row_ids().filter(|r| !live.contains_key(r)).collect();
                let mut got: Vec<Row> = new.iter().map(|&rid| t.get(rid).unwrap()).collect();
                got.sort();
                want.sort();
                prop_assert_eq!(&got, &want, "copies of group {:?}", a);
                live.extend(new.into_iter().map(|rid| (rid, t.get(rid).unwrap())));
                check(&t, &live, "by_ab", &[0, 1])?;
            }
        }
        prop_assert_eq!(t.len(), live.len());
    }
    check(&t, &live, "by_ab", &[0, 1])?;

    // An index created now is backfilled over a heap with dead slots.
    t.create_index("late_by_b", &["b"]).unwrap();
    check(&t, &live, "late_by_b", &[1])?;
    // ... and both indexes follow the deletes that empty the table.
    let rids: Vec<RowId> = live.keys().copied().collect();
    for (n, rid) in rids.into_iter().enumerate() {
        t.delete(rid).unwrap();
        live.remove(&rid);
        if n % 8 == 0 {
            check(&t, &live, "by_ab", &[0, 1])?;
            check(&t, &live, "late_by_b", &[1])?;
        }
    }
    prop_assert_eq!(t.index_bytes(), 0);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn index_follows_the_model_with_the_real_hasher(
        ops in proptest::collection::vec(op(), 0..120)
    ) {
        run(&ops)?;
    }

    #[test]
    fn index_follows_the_model_when_every_key_collides(
        ops in proptest::collection::vec(op(), 0..120)
    ) {
        let _collide = CollideAll::on();
        run(&ops)?;
    }
}
