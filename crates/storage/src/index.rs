//! Secondary hash indexes.
//!
//! An index stores no copy of the keys it covers: it maps the 64-bit hash
//! of a row's indexed columns to the ids of the rows holding them, and
//! resolves hash collisions by comparing those cells in the table's column
//! heap, which [`crate::table::Table`] passes down on every call. See
//! `docs/execution.md`, "Heap and index layout".

use crate::error::{Result, StorageError};
use crate::heap::Heap;
use crate::value::{AsCell, Cell};
use std::collections::hash_map::Entry;
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
/// `(wid, key)` slices of `V`), which is held inline; `Many` is the number
/// of a list in [`Index::lists`] holding two or more, in insertion order
/// up to `swap_remove`. Eight bytes, so a map entry is 16: the map is
/// sized for the common single-id case and is the largest structure of a
/// belief database.
#[derive(Debug, Clone, Copy)]
enum Bucket {
    One(IndexRid),
    Many(u32),
}

impl Bucket {
    fn ids<'a>(&'a self, lists: &'a [Vec<IndexRid>]) -> &'a [IndexRid] {
        match self {
            Bucket::One(rid) => std::slice::from_ref(rid),
            Bucket::Many(list) => &lists[*list as usize],
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

/// Test-only: [`COLLIDE_ALL`] on for as long as the guard lives; the real
/// hasher is back when a case ends, also by `?` or panic.
#[cfg(test)]
pub(crate) struct CollideAll;

#[cfg(test)]
impl CollideAll {
    pub(crate) fn on() -> Self {
        COLLIDE_ALL.with(|c| c.set(true));
        CollideAll
    }
}

#[cfg(test)]
impl Drop for CollideAll {
    fn drop(&mut self) {
        COLLIDE_ALL.with(|c| c.set(false));
    }
}

/// The hasher of index keys: one rotate, xor and multiply per word fed to
/// it, and an avalanche at the end (the 64-bit finalizer of MurmurHash3)
/// so that the low bits the map picks a bucket by and the top seven it
/// tags entries with depend on every input bit. It has no key: index keys
/// are cells of the user's own tables, and collisions are resolved against
/// the heap, so a bad key set costs time, never an answer.
#[derive(Default)]
struct KeyHasher(u64);

impl KeyHasher {
    #[inline]
    fn mix(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
}

impl Hasher for KeyHasher {
    #[inline]
    fn finish(&self) -> u64 {
        let mut h = self.0;
        h ^= h >> 33;
        h = h.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
        h ^= h >> 33;
        h = h.wrapping_mul(0xC4CE_B9FE_1A85_EC53);
        h ^ (h >> 33)
    }

    /// Eight bytes a word, the last one zero-padded: `[u8]`'s `Hash` feeds
    /// the length first, so padding cannot make two strings alike.
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.mix(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, byte: u8) {
        self.mix(u64::from(byte));
    }

    #[inline]
    fn write_u64(&mut self, word: u64) {
        self.mix(word);
    }

    #[inline]
    fn write_usize(&mut self, word: usize) {
        self.mix(word as u64);
    }
}

/// Hash of a key, the same for a lookup key and for the cells of a row
/// holding it, and the same in every run: the map is only ever probed,
/// never iterated, so the hash decides which keys share a bucket and
/// nothing about the order of the ids inside one.
fn hash_key<'a>(key: impl Iterator<Item = Cell<'a>>) -> u64 {
    #[cfg(test)]
    if COLLIDE_ALL.with(|c| c.get()) {
        return 0;
    }
    let mut hasher = KeyHasher::default();
    for value in key {
        value.hash(&mut hasher);
    }
    hasher.finish()
}

/// Does one of the live rows `ids` of `heap` agree on `cols` with the row
/// in slot `rid`?
fn holds_key(cols: &[usize], heap: &Heap, ids: &[IndexRid], rid: IndexRid) -> bool {
    let rid = rid as usize;
    ids.iter().map(|&other| other as usize).any(|other| {
        heap.is_live(other)
            && cols
                .iter()
                .all(|&c| heap.cell(other, c) == heap.cell(rid, c))
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
    /// The id lists of the [`Bucket::Many`] entries, by list number.
    lists: Vec<Vec<IndexRid>>,
    /// Numbers of the lists no entry uses: emptied, capacity kept.
    free_lists: Vec<u32>,
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
            lists: Vec::new(),
            free_lists: Vec::new(),
            distinct: 0,
        }
    }

    pub fn name(&self) -> &str {
        &self.name
    }

    pub fn columns(&self) -> &[usize] {
        &self.cols
    }

    /// Error unless rows of `arity` columns have every indexed column.
    pub(crate) fn check_arity(&self, arity: usize) -> Result<()> {
        match self.cols.iter().find(|&&c| c >= arity) {
            Some(&index) => Err(StorageError::ColumnOutOfRange { index, arity }),
            None => Ok(()),
        }
    }

    fn row_hash(&self, heap: &Heap, rid: IndexRid) -> u64 {
        hash_key(self.cols.iter().map(|&c| heap.cell(rid as usize, c)))
    }

    /// Index the row `heap` holds in slot `rid`. Fails, with the index
    /// unchanged, if the heap's rows lack an indexed column.
    pub(crate) fn insert(&mut self, heap: &Heap, rid: IndexRid) -> Result<()> {
        self.check_arity(heap.arity())?;
        match self.map.entry(self.row_hash(heap, rid)) {
            Entry::Vacant(slot) => {
                slot.insert(Bucket::One(rid));
                self.distinct += 1;
            }
            Entry::Occupied(mut slot) => {
                let bucket = slot.get_mut();
                if !holds_key(&self.cols, heap, bucket.ids(&self.lists), rid) {
                    self.distinct += 1;
                }
                match *bucket {
                    Bucket::One(first) => {
                        let list = self.free_lists.pop().unwrap_or_else(|| {
                            self.lists.push(Vec::new());
                            // Fewer lists than rows, and those fit `u32`.
                            (self.lists.len() - 1) as u32
                        });
                        self.lists[list as usize].extend([first, rid]);
                        *bucket = Bucket::Many(list);
                    }
                    Bucket::Many(list) => self.lists[list as usize].push(rid),
                }
            }
        }
        Ok(())
    }

    /// Drop `rid`, whose row is still in its slot of `heap`: the table
    /// clears the slot once every index has let go of it. A `rid` the
    /// index does not hold is ignored. Fails, with the index unchanged, if
    /// the heap's rows lack an indexed column.
    pub(crate) fn remove(&mut self, heap: &Heap, rid: IndexRid) -> Result<()> {
        self.check_arity(heap.arity())?;
        let Entry::Occupied(mut slot) = self.map.entry(self.row_hash(heap, rid)) else {
            return Ok(());
        };
        match *slot.get() {
            Bucket::One(only) => {
                if only != rid {
                    return Ok(());
                }
                slot.remove();
                self.distinct -= 1;
            }
            Bucket::Many(list) => {
                let rids = &mut self.lists[list as usize];
                let Some(pos) = rids.iter().position(|&r| r == rid) else {
                    return Ok(());
                };
                rids.swap_remove(pos);
                if !holds_key(&self.cols, heap, rids, rid) {
                    self.distinct -= 1;
                }
                if let [last] = rids[..] {
                    rids.clear();
                    self.free_lists.push(list);
                    *slot.get_mut() = Bucket::One(last);
                }
            }
        }
        Ok(())
    }

    /// The ids of the live rows of `heap` whose indexed cells equal `key`,
    /// in index order (insertion order up to `swap_remove`). A key of the
    /// wrong length matches nothing. A cleared slot keeps its cells, so
    /// the live bit, not the comparison, is what hides a dead row.
    pub(crate) fn matches<'a, 'k, K: AsCell>(
        &'a self,
        heap: &'a Heap,
        key: &'k [K],
    ) -> impl Iterator<Item = RowId> + use<'a, 'k, K> {
        let candidates = if key.len() == self.cols.len() {
            self.map
                .get(&hash_key(key.iter().map(AsCell::as_cell)))
                .map(|bucket| bucket.ids(&self.lists))
        } else {
            None
        };
        candidates
            .unwrap_or_default()
            .iter()
            .map(|&rid| rid as RowId)
            .filter(move |&rid| {
                heap.is_live(rid)
                    && self
                        .cols
                        .iter()
                        .zip(key)
                        .all(|(&c, k)| heap.cell(rid, c) == k.as_cell())
            })
    }

    /// Number of distinct keys in the index. Exact: a hash shared by two
    /// keys counts twice.
    pub fn distinct_keys(&self) -> usize {
        self.distinct
    }

    /// Estimated bytes held by the index when it covers `rows` rows (every
    /// live row of its table, once): one map entry (hash, inline id or
    /// list number, control byte) per distinct hash, plus four bytes for
    /// every further row id sharing a hash. Capacity slack of the map and
    /// of the id lists is not counted.
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
    use crate::row::Row;
    use crate::value::Value;

    /// A heap plus one index over it, kept in step the way `Table` does.
    struct Indexed {
        heap: Heap,
        idx: Index,
    }

    impl Indexed {
        fn new(arity: usize, cols: Vec<usize>) -> Self {
            Indexed {
                heap: Heap::new(arity),
                idx: Index::new("i", cols),
            }
        }

        fn insert(&mut self, row: Row) -> IndexRid {
            let rid = self.heap.insert_cells(&row.cells()) as IndexRid;
            self.idx.insert(&self.heap, rid).unwrap();
            rid
        }

        fn remove(&mut self, rid: IndexRid) {
            self.idx.remove(&self.heap, rid).unwrap();
            self.heap.remove(rid as usize);
        }

        fn get(&self, key: &[Value]) -> Vec<RowId> {
            self.idx.matches(&self.heap, key).collect()
        }
    }

    #[test]
    fn insert_get_remove() {
        let mut t = Indexed::new(3, vec![0, 2]);
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
        let mut t = Indexed::new(1, vec![0]);
        t.insert(row![5]);
        // A row the index was never told about, in a bucket of its own and
        // in the bucket of the indexed row.
        for row in [row![6], row![5]] {
            let unindexed = t.heap.insert_cells(&row.cells()) as IndexRid;
            t.idx.remove(&t.heap, unindexed).unwrap();
            t.heap.remove(unindexed as usize);
        }
        assert_eq!(t.get(&[Value::int(5)]), vec![0]);
        assert_eq!(t.idx.distinct_keys(), 1);
    }

    #[test]
    fn cleared_slot_is_invisible_even_while_listed() {
        // The state inside `Table::delete` had it cleared the slot first:
        // the cells are still there, only the live bit says the row is gone.
        let mut t = Indexed::new(1, vec![0]);
        let rid = t.insert(row![5]);
        t.heap.remove(rid as usize);
        assert!(t.get(&[Value::int(5)]).is_empty());
    }

    #[test]
    fn wrong_length_key_matches_nothing() {
        let mut t = Indexed::new(2, vec![0, 1]);
        t.insert(row![1, 2]);
        assert!(t.get(&[Value::int(1)]).is_empty());
        assert!(t
            .get(&[Value::int(1), Value::int(2), Value::int(3)])
            .is_empty());
    }

    #[test]
    fn colliding_keys_stay_apart_and_are_counted_apart() {
        let _collide = CollideAll::on();
        let mut t = Indexed::new(2, vec![0]);
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
        let mut t = Indexed::new(2, vec![0, 3]);
        let rid = t.heap.insert_cells(&row![1, 2].cells()) as IndexRid;
        let err = t.idx.insert(&t.heap, rid).unwrap_err();
        assert_eq!(err, StorageError::ColumnOutOfRange { index: 3, arity: 2 });
        let err = t.idx.remove(&t.heap, rid).unwrap_err();
        assert_eq!(err, StorageError::ColumnOutOfRange { index: 3, arity: 2 });
        assert_eq!((t.idx.distinct_keys(), t.idx.approx_bytes(0)), (0, 0));
    }

    #[test]
    fn approx_bytes_counts_entries_and_further_ids() {
        let mut t = Indexed::new(1, vec![0]);
        t.insert(row![1]);
        t.insert(row![2]);
        let two_entries = t.idx.approx_bytes(2);
        // The layout docs/execution.md and docs/observability.md quote.
        assert_eq!(std::mem::size_of::<(u64, Bucket)>(), 16);
        assert_eq!(crate::heap::DICT_ENTRY_BYTES, 41);
        assert_eq!(two_entries, 2 * (16 + 1));
        t.insert(row![2]);
        assert_eq!(t.idx.approx_bytes(3), two_entries + 4);
    }

    /// Pearson's statistic of `counts` against the uniform distribution
    /// over its buckets, and the value eight standard deviations above its
    /// mean under a random function (`df + 8·√(2·df)`).
    fn chi_square(counts: &[u32]) -> (f64, f64) {
        let total: f64 = counts.iter().map(|&c| f64::from(c)).sum();
        let expected = total / counts.len() as f64;
        let chi2 = counts
            .iter()
            .map(|&c| (f64::from(c) - expected).powi(2) / expected)
            .sum();
        let df = (counts.len() - 1) as f64;
        (chi2, df + 8.0 * (2.0 * df).sqrt())
    }

    /// The key shape of the largest index of a belief database: `(wid,
    /// key)` with small dense world ids and keys `"s<n>"`. All 10⁷ hashes
    /// differ, and the bits hashbrown picks a bucket by (the low ones) and
    /// tags entries with (the top seven) are as even as a random function
    /// would leave them.
    #[test]
    fn hashes_of_wid_key_pairs_are_distinct_and_even() {
        let keys: Vec<Value> = (0..10_000).map(|n| Value::str(format!("s{n}"))).collect();
        let mut hashes = Vec::with_capacity(1_000 * keys.len());
        let mut low16 = vec![0u32; 1 << 16];
        let mut top7 = vec![0u32; 1 << 7];
        for wid in 0..1_000 {
            for key in &keys {
                let h = hash_key([Cell::Int(wid), key.as_cell()].into_iter());
                low16[(h & 0xFFFF) as usize] += 1;
                top7[(h >> 57) as usize] += 1;
                hashes.push(h);
            }
        }
        hashes.sort_unstable();
        assert!(
            hashes.windows(2).all(|w| w[0] != w[1]),
            "two keys share a hash"
        );
        for (bits, counts) in [("low 16", &low16), ("top 7", &top7)] {
            let (chi2, limit) = chi_square(counts);
            assert!(
                chi2 < limit,
                "{bits} bits uneven: chi² {chi2:.0}, limit {limit:.0}"
            );
        }
        // The same keys with integer-typed and string-typed ids stay apart.
        assert_ne!(
            hash_key([Cell::Int(1)].into_iter()),
            hash_key([Value::str("1").as_cell()].into_iter())
        );
    }

    #[test]
    #[should_panic(expected = "at least one column")]
    fn empty_column_list_panics() {
        let _ = Index::new("bad", vec![]);
    }
}
