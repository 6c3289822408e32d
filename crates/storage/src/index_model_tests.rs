//! Model-based property test of the key-less secondary indexes: random
//! insert / delete / `delete_by_index_where` / lookup sequences on a
//! [`Table`] against a `BTreeMap<key, BTreeSet<RowId>>` model, once with
//! the real hasher and once with every key forced into one bucket, so the
//! collision paths of insert, remove, lookup and the distinct-key counter
//! all run.

use crate::index::{CollideAll, RowId};
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
    ]
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

/// One lookup by name with owned values, and the same through the index
/// handle with borrowed cells.
fn lookup(t: &Table, index: &str, key: &[Value]) -> Result<BTreeSet<RowId>, TestCaseError> {
    let hits: Vec<RowId> = t.index_lookup(index, key).unwrap().collect();
    let set: BTreeSet<RowId> = hits.iter().copied().collect();
    prop_assert_eq!(set.len(), hits.len(), "a row id came back twice");
    let cells: Vec<Cell<'_>> = key.iter().map(Value::as_cell).collect();
    let probed: Vec<RowId> = t
        .probe(t.index_id(index).unwrap(), &cells)
        .unwrap()
        .collect();
    prop_assert_eq!(probed, hits, "probe by handle and cells");
    Ok(set)
}

/// Every key of the model, and one key it lacks, answer as the model does;
/// the distinct-key statistic is the model's key count.
fn check(t: &Table, index: &str, model: &Model) -> Result<(), TestCaseError> {
    for (key, rids) in model {
        prop_assert_eq!(&lookup(t, index, key)?, rids, "{} {:?}", index, key);
    }
    let absent = vec![Value::int(99); model.keys().next().map_or(1, Vec::len)];
    prop_assert!(lookup(t, index, &absent)?.is_empty());
    let stats = t.index_stats();
    let (_, _, distinct) = stats.iter().find(|s| s.0 == index).unwrap();
    prop_assert_eq!(*distinct, model.len(), "distinct keys of {}", index);
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
            Op::Lookup(a, b) => {
                let model = model_of(&live, &[0, 1]);
                let key = [a.clone(), b.clone()];
                let want = model.get(&key[..]).cloned().unwrap_or_default();
                prop_assert_eq!(lookup(&t, "by_ab", &key)?, want);
            }
        }
        prop_assert_eq!(t.len(), live.len());
    }
    check(&t, "by_ab", &model_of(&live, &[0, 1]))?;

    // An index created now is backfilled over a heap with dead slots.
    t.create_index("late_by_b", &["b"]).unwrap();
    check(&t, "late_by_b", &model_of(&live, &[1]))?;
    // ... and both indexes follow the deletes that empty the table.
    let rids: Vec<RowId> = live.keys().copied().collect();
    for (n, rid) in rids.into_iter().enumerate() {
        t.delete(rid).unwrap();
        live.remove(&rid);
        if n % 8 == 0 {
            check(&t, "by_ab", &model_of(&live, &[0, 1]))?;
            check(&t, "late_by_b", &model_of(&live, &[1]))?;
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
