//! Secondary hash indexes.
//!
//! An index stores no copy of the keys it covers: it maps the 64-bit hash
//! of a row's indexed columns to the ids of the rows holding them, and
//! resolves hash collisions by comparing those columns in the table heap,
//! which [`crate::table::Table`] passes down on every call. See
//! `docs/execution.md`, "Heap and index layout".

use crate::error::{Result, StorageError};
use crate::row::Row;
use crate::value::Value;
use std::collections::hash_map::{DefaultHasher, Entry};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};

/// Identifier of a row slot inside a [`crate::table::Table`].
pub type RowId = usize;

/// Row ids as indexes store them: half the width of [`RowId`].
/// `Table::insert` refuses to grow a heap past `u32::MAX` slots.
pub(crate) type IndexRid = u32;

/// Hasher for the map's `u64` keys, which already are hashes.
#[derive(Debug, Default, Clone, Copy)]
struct PassThrough(u64);

impl Hasher for PassThrough {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _: &[u8]) {
        unreachable!("index map keys are u64 hashes");
    }

    fn write_u64(&mut self, hash: u64) {
        self.0 = hash;
    }
}

/// The row ids sharing one key hash. Almost always a single id (the
/// `(wid, key)` slices of `V`), which is held inline; `Many` holds two or
/// more, in insertion order up to `swap_remove`. The `Vec` is boxed to
/// keep a map entry at 24 bytes instead of 32: the map is sized for the
/// common single-id case.
#[derive(Debug, Clone)]
#[allow(clippy::box_collection)]
enum Bucket {
    One(IndexRid),
    Many(Box<Vec<IndexRid>>),
}

impl Bucket {
    fn ids(&self) -> &[IndexRid] {
        match self {
            Bucket::One(rid) => std::slice::from_ref(rid),
            Bucket::Many(rids) => rids,
        }
    }
}

#[cfg(test)]
thread_local! {
    /// Test-only: hash every key to the same bucket on this thread, so
    /// every lookup, removal and distinct-key update takes the collision
    /// path.
    pub(crate) static COLLIDE_ALL: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Hash of a key, the same for a lookup key and for the projection of a
/// row holding it. `DefaultHasher::new()` is SipHash with a fixed key, so
/// bucket contents — and with them lookup order — repeat across runs.
fn hash_key<'a>(key: impl Iterator<Item = &'a Value>) -> u64 {
    #[cfg(test)]
    if COLLIDE_ALL.with(|c| c.get()) {
        return 0;
    }
    let mut hasher = DefaultHasher::new();
    for value in key {
        value.hash(&mut hasher);
    }
    hasher.finish()
}

/// Does one of the live rows `ids` of `heap` agree with `row` on `cols`?
fn holds_key(cols: &[usize], heap: &[Option<Row>], ids: &[IndexRid], row: &Row) -> bool {
    ids.iter().any(|&rid| {
        heap[rid as usize]
            .as_ref()
            .is_some_and(|other| cols.iter().all(|&c| other[c] == row[c]))
    })
}

/// A hash index over one or more columns of a table.
///
/// Maps the hash of the projected key to the ids of the rows currently
/// holding a key with that hash. The index is maintained eagerly by
/// `Table::insert` / `Table::delete`, which hand it the table heap: ids
/// in the index always name live rows of that heap.
#[derive(Debug, Clone)]
pub struct Index {
    name: String,
    cols: Vec<usize>,
    map: HashMap<u64, Bucket, BuildHasherDefault<PassThrough>>,
    /// Distinct keys (not hashes) currently indexed.
    distinct: usize,
}

impl Index {
    pub fn new(name: impl Into<String>, cols: Vec<usize>) -> Self {
        assert!(!cols.is_empty(), "index must cover at least one column");
        Index {
            name: name.into(),
            cols,
            map: HashMap::default(),
            distinct: 0,
        }
    }

    pub fn name(&self) -> &str {
        &self.name
    }

    pub fn columns(&self) -> &[usize] {
        &self.cols
    }

    /// Error unless `row` has every indexed column.
    pub(crate) fn check_row(&self, row: &Row) -> Result<()> {
        match self.cols.iter().find(|&&c| c >= row.arity()) {
            Some(&index) => Err(StorageError::ColumnOutOfRange {
                index,
                arity: row.arity(),
            }),
            None => Ok(()),
        }
    }

    fn row_hash(&self, row: &Row) -> u64 {
        hash_key(self.cols.iter().map(|&c| &row[c]))
    }

    /// Index `row` under `rid`. `heap` is the table heap holding the rows
    /// already indexed; `row` itself need not be in it yet. Fails, with the
    /// index unchanged, if `row` lacks an indexed column.
    pub(crate) fn insert(&mut self, heap: &[Option<Row>], row: &Row, rid: IndexRid) -> Result<()> {
        self.check_row(row)?;
        match self.map.entry(self.row_hash(row)) {
            Entry::Vacant(slot) => {
                slot.insert(Bucket::One(rid));
                self.distinct += 1;
            }
            Entry::Occupied(mut slot) => {
                let bucket = slot.get_mut();
                if !holds_key(&self.cols, heap, bucket.ids(), row) {
                    self.distinct += 1;
                }
                match bucket {
                    Bucket::One(first) => *bucket = Bucket::Many(Box::new(vec![*first, rid])),
                    Bucket::Many(rids) => rids.push(rid),
                }
            }
        }
        Ok(())
    }

    /// Drop `rid`, whose row `row` has already left `heap`. A `rid` the
    /// index does not hold is ignored. Fails, with the index unchanged, if
    /// `row` lacks an indexed column.
    pub(crate) fn remove(&mut self, heap: &[Option<Row>], row: &Row, rid: IndexRid) -> Result<()> {
        self.check_row(row)?;
        let Entry::Occupied(mut slot) = self.map.entry(self.row_hash(row)) else {
            return Ok(());
        };
        match slot.get_mut() {
            Bucket::One(only) => {
                if *only != rid {
                    return Ok(());
                }
                slot.remove();
                self.distinct -= 1;
            }
            Bucket::Many(rids) => {
                let Some(pos) = rids.iter().position(|&r| r == rid) else {
                    return Ok(());
                };
                rids.swap_remove(pos);
                if !holds_key(&self.cols, heap, rids, row) {
                    self.distinct -= 1;
                }
                if let [last] = rids[..] {
                    *slot.get_mut() = Bucket::One(last);
                }
            }
        }
        Ok(())
    }

    /// The rows of `heap` whose projection equals `key`, with their ids, in
    /// index order (insertion order up to `swap_remove`). A key of the
    /// wrong length matches nothing.
    pub(crate) fn matches<'a, 'k>(
        &'a self,
        heap: &'a [Option<Row>],
        key: &'k [Value],
    ) -> impl Iterator<Item = (RowId, &'a Row)> + use<'a, 'k> {
        let candidates = if key.len() == self.cols.len() {
            self.map.get(&hash_key(key.iter())).map(Bucket::ids)
        } else {
            None
        };
        candidates
            .unwrap_or_default()
            .iter()
            .filter_map(move |&rid| {
                let row = heap[rid as usize].as_ref()?;
                let hit = self.cols.iter().zip(key).all(|(&c, k)| row[c] == *k);
                hit.then_some((rid as RowId, row))
            })
    }

    /// Number of distinct keys in the index. Exact: a hash shared by two
    /// keys counts twice.
    pub fn distinct_keys(&self) -> usize {
        self.distinct
    }

    /// Estimated bytes held by the index when it covers `rows` rows (every
    /// live row of its table, once): one map entry (hash, inline id or
    /// `Vec` pointer, control byte) per distinct hash, plus four bytes for
    /// every further row id sharing a hash. Capacity slack of the map and
    /// of the id vectors is not counted.
    pub(crate) fn approx_bytes(&self, rows: usize) -> usize {
        let entry = std::mem::size_of::<(u64, Bucket)>() + 1;
        let further = rows.saturating_sub(self.map.len());
        self.map.len() * entry + further * std::mem::size_of::<IndexRid>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::row;

    /// A heap plus one index over it, kept in step the way `Table` does.
    struct Indexed {
        heap: Vec<Option<Row>>,
        idx: Index,
    }

    impl Indexed {
        fn new(cols: Vec<usize>) -> Self {
            Indexed {
                heap: Vec::new(),
                idx: Index::new("i", cols),
            }
        }

        fn insert(&mut self, row: Row) -> IndexRid {
            let rid = self.heap.len() as IndexRid;
            self.idx.insert(&self.heap, &row, rid).unwrap();
            self.heap.push(Some(row));
            rid
        }

        fn remove(&mut self, rid: IndexRid) {
            let row = self.heap[rid as usize].take().unwrap();
            self.idx.remove(&self.heap, &row, rid).unwrap();
        }

        fn get(&self, key: &[Value]) -> Vec<RowId> {
            self.idx.matches(&self.heap, key).map(|(r, _)| r).collect()
        }
    }

    #[test]
    fn insert_get_remove() {
        let mut t = Indexed::new(vec![0, 2]);
        let r1 = t.insert(row![1, "t1", "s1"]);
        let r2 = t.insert(row![1, "t2", "s1"]);
        let r3 = t.insert(row![2, "t1", "s1"]);

        let key = [Value::int(1), Value::str("s1")];
        assert_eq!(t.get(&key), vec![0, 1]);
        assert_eq!(t.get(&[Value::int(2), Value::str("s1")]), vec![r3 as RowId]);
        assert!(t.get(&[Value::int(9), Value::str("s1")]).is_empty());
        assert_eq!(t.idx.distinct_keys(), 2);

        t.remove(r1);
        assert_eq!(t.get(&key), vec![r2 as RowId]);
        t.remove(r2);
        assert!(t.get(&key).is_empty());
        assert_eq!(t.idx.distinct_keys(), 1);
    }

    #[test]
    fn remove_is_idempotent_for_missing_rid() {
        let mut t = Indexed::new(vec![0]);
        t.insert(row![5]);
        t.idx.remove(&t.heap, &row![5], 99).unwrap();
        t.idx.remove(&t.heap, &row![6], 0).unwrap();
        assert_eq!(t.get(&[Value::int(5)]), vec![0]);
        assert_eq!(t.idx.distinct_keys(), 1);
    }

    #[test]
    fn wrong_length_key_matches_nothing() {
        let mut t = Indexed::new(vec![0, 1]);
        t.insert(row![1, 2]);
        assert!(t.get(&[Value::int(1)]).is_empty());
        assert!(t
            .get(&[Value::int(1), Value::int(2), Value::int(3)])
            .is_empty());
    }

    #[test]
    fn colliding_keys_stay_apart_and_are_counted_apart() {
        COLLIDE_ALL.with(|c| c.set(true));
        let mut t = Indexed::new(vec![0]);
        let a1 = t.insert(row![1, "a"]);
        let s1 = t.insert(row!["1", "b"]);
        let a2 = t.insert(row![1, "c"]);
        assert_eq!(t.idx.distinct_keys(), 2);
        assert_eq!(t.get(&[Value::int(1)]), vec![a1 as RowId, a2 as RowId]);
        assert_eq!(t.get(&[Value::str("1")]), vec![s1 as RowId]);
        assert!(t.get(&[Value::int(2)]).is_empty());

        t.remove(a1);
        assert_eq!(t.idx.distinct_keys(), 2);
        t.remove(a2);
        assert_eq!(t.idx.distinct_keys(), 1);
        assert!(t.get(&[Value::int(1)]).is_empty());
        assert_eq!(t.get(&[Value::str("1")]), vec![s1 as RowId]);
    }

    #[test]
    fn out_of_range_column_fails_before_the_map_changes() {
        let mut t = Indexed::new(vec![0, 3]);
        let err = t.idx.insert(&t.heap, &row![1, 2], 0).unwrap_err();
        assert_eq!(err, StorageError::ColumnOutOfRange { index: 3, arity: 2 });
        let err = t.idx.remove(&t.heap, &row![1, 2], 0).unwrap_err();
        assert_eq!(err, StorageError::ColumnOutOfRange { index: 3, arity: 2 });
        assert_eq!((t.idx.distinct_keys(), t.idx.approx_bytes(0)), (0, 0));
    }

    #[test]
    fn approx_bytes_counts_entries_and_further_ids() {
        let mut t = Indexed::new(vec![0]);
        t.insert(row![1]);
        t.insert(row![2]);
        let two_entries = t.idx.approx_bytes(2);
        // The layout docs/execution.md and docs/observability.md quote.
        assert_eq!(std::mem::size_of::<(u64, Bucket)>(), 24);
        assert_eq!(std::mem::size_of::<Option<Row>>(), 16);
        assert_eq!(two_entries, 2 * (24 + 1));
        t.insert(row![2]);
        assert_eq!(t.idx.approx_bytes(3), two_entries + 4);
    }

    #[test]
    #[should_panic(expected = "at least one column")]
    fn empty_column_list_panics() {
        let _ = Index::new("bad", vec![]);
    }
}
