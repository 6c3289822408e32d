//! Secondary indexes, grouped by their first column.
//!
//! An index over columns `c0, c1, ..` keeps the rows of a table in
//! *groups*: all rows agreeing on `c0` share one, found through a small
//! directory from the hash of that cell. A group is one contiguous *run*
//! of eight-byte entries `(tag, rid)` — `tag` is 32 bits of the hash of the
//! remaining indexed cells `c1, ..`, `rid` the row's slot in the heap —
//! kept in ascending `(tag, rid)` order. There is no table spanning the
//! groups and so nothing that is rehashed as a whole.
//!
//! The index stores no copy of the keys. A probe for a full key finds the
//! group, binary-searches the tag and compares the candidates' cells in the
//! table's column heap, which [`crate::table::Table`] passes down on every
//! call; a probe for `c0` alone walks the whole run. Both return row ids in
//! run order, which depends on the rows indexed and not on the order they
//! arrived in. Two values of `c0` with one hash share a group and two keys
//! with one tag sit side by side in it: either costs comparisons, never an
//! answer. A tag does not depend on `c0`, so a group can be copied under
//! another `c0` value with its tags as they are
//! (`Index::insert_copies`). See `docs/execution.md`, "Heap and index
//! layout".

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

/// Hasher for map keys that already are hashes: the directory's `u64`
/// ones, and the `u32` ones of a column's string dictionary
/// (`crate::heap`), spread over all 64 bits by one multiply so that the
/// high bits a table's control bytes take are not all zero.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct PassThrough(u64);

impl Hasher for PassThrough {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _: &[u8]) {
        unreachable!("keys are hashes");
    }

    fn write_u32(&mut self, hash: u32) {
        self.0 = u64::from(hash).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    fn write_u64(&mut self, hash: u64) {
        self.0 = hash;
    }
}

#[cfg(test)]
thread_local! {
    /// Test-only: hash every cell list to zero on this thread, so all rows
    /// share one group and one tag and every lookup, removal and
    /// distinct-key update takes the collision path.
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

/// The hasher of index keys and of every map the engine keys by cells,
/// rows, tuples or paths: one rotate, xor and multiply per word fed to
/// it, and an avalanche at the end (the 64-bit finalizer of MurmurHash3)
/// so that the low bits a table picks a bucket by and the 32 a run is
/// ordered by depend on every input bit. It has no key: what it hashes
/// are cells of the user's own tables, and collisions are resolved by
/// comparing them (against the heap in an index, by `Eq` in a map), so a
/// bad key set costs time, never an answer. Use it through [`CellHash`].
#[derive(Debug, Default, Clone, Copy)]
pub struct KeyHasher(u64);

/// The [`std::hash::BuildHasher`] of [`KeyHasher`], zero-sized: the hasher
/// parameter of the engine's maps and sets keyed by values, rows, tuples
/// and paths (`HashMap<K, V, CellHash>`), in place of the keyed SipHash of
/// `RandomState`.
pub type CellHash = BuildHasherDefault<KeyHasher>;

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

/// Hash of a list of cells, the same for the cells of a lookup key and for
/// those of a row holding it, and the same in every run. No cells hash to
/// zero.
pub(crate) fn hash_cells<'a>(cells: impl Iterator<Item = Cell<'a>>) -> u64 {
    #[cfg(test)]
    if COLLIDE_ALL.with(|c| c.get()) {
        return 0;
    }
    let mut hasher = KeyHasher::default();
    for value in cells {
        value.hash(&mut hasher);
    }
    hasher.finish()
}

/// What a run is ordered by: the low half of the hash of the indexed cells
/// after the first. Constant for a one-column index, whose runs are
/// therefore in row-id order.
pub(crate) fn tag_of_cells<'a>(rest: impl Iterator<Item = Cell<'a>>) -> u32 {
    hash_cells(rest) as u32
}

/// One row of a run: its tag above its row id, so that entries compare as
/// `(tag, rid)` pairs.
type RunEntry = u64;

fn run_entry(tag: u32, rid: IndexRid) -> RunEntry {
    u64::from(tag) << 32 | u64::from(rid)
}

fn entry_tag(entry: RunEntry) -> u32 {
    (entry >> 32) as u32
}

fn entry_rid(entry: RunEntry) -> IndexRid {
    entry as IndexRid
}

/// What a free slot of a [`Run`] holds. No entry looks like it: a row id
/// stays below `u32::MAX`.
const EMPTY: RunEntry = u64::MAX;

/// The entries of one group: an open-addressing table whose entries also
/// ascend from slot to slot, so that it reads as a sorted run with gaps.
///
/// An entry's home slot is its tag scaled to `homes`, which grows with the
/// tag. An entry sits in its home slot or to the right of it with no free
/// slot in between (linear probing), and entries that compete for slots
/// keep their order. That fixes the layout for a set of entries whatever
/// the order they came in, and lets an insert move a few neighbours where
/// a packed array would move half the run.
#[derive(Debug, Clone, Default)]
struct Run {
    /// `homes` slots, and further ones while entries are pushed past the
    /// last home.
    slots: Vec<RunEntry>,
    homes: usize,
    len: usize,
}

/// Slots a run reserves at a time past its last home. The vector is sized
/// to its homes exactly, so a plain `push` there would double it.
const SPILL: usize = 4;

impl Run {
    /// Append a slot past the last home.
    fn spill(&mut self, entry: RunEntry) {
        if self.slots.len() == self.slots.capacity() {
            self.slots.reserve_exact(SPILL);
        }
        self.slots.push(entry);
    }

    fn home(&self, entry: RunEntry) -> usize {
        (((entry >> 32) * self.homes as u64) >> 32) as usize
    }

    /// The slot `entry` is in or would go to: the first one from its home
    /// on that is free or holds an entry not below it. Everything before
    /// it is smaller and everything after it is free or larger, so the
    /// search may gallop.
    fn slot_of(&self, entry: RunEntry) -> usize {
        let below = |at: usize| self.slots.get(at).is_some_and(|&e| e < entry);
        let (mut from, mut to, mut step) = (self.home(entry), self.home(entry), 1);
        while below(to) {
            from = to + 1;
            to += step;
            step *= 2;
        }
        while from < to {
            let mid = from + (to - from) / 2;
            if below(mid) {
                from = mid + 1;
            } else {
                to = mid;
            }
        }
        from
    }

    /// Lay the entries out over `homes` home slots.
    fn resize(&mut self, homes: usize) {
        let old = std::mem::replace(&mut self.slots, vec![EMPTY; homes]);
        self.homes = homes;
        let mut free = 0;
        for entry in old.into_iter().filter(|&e| e != EMPTY) {
            let at = self.home(entry).max(free);
            match self.slots.get_mut(at) {
                Some(slot) => *slot = entry,
                None => self.spill(entry),
            }
            free = at + 1;
        }
    }

    fn insert(&mut self, entry: RunEntry) {
        // At most seven slots of eight are taken.
        if (self.len + 1) * 8 > self.homes * 7 {
            self.resize((self.homes * 2).max(4));
        }
        let at = self.slot_of(entry);
        let tail = self.slots[at..].iter().position(|&e| e == EMPTY);
        let free = tail.map_or(self.slots.len(), |n| at + n);
        if free == self.slots.len() {
            self.spill(EMPTY);
        }
        self.slots.copy_within(at..free, at + 1);
        self.slots[at] = entry;
        self.len += 1;
    }

    /// Take `entry` out; false if the run does not hold it.
    fn remove(&mut self, entry: RunEntry) -> bool {
        let at = self.slot_of(entry);
        if self.slots.get(at) != Some(&entry) {
            return false;
        }
        // The entries that follow without a gap and away from home move up.
        let moved = self.slots[at + 1..]
            .iter()
            .zip(at + 1..)
            .take_while(|&(&e, slot)| e != EMPTY && self.home(e) < slot)
            .count();
        self.slots.copy_within(at + 1..at + 1 + moved, at);
        self.slots[at + moved] = EMPTY;
        self.len -= 1;
        while self.slots.len() > self.homes && self.slots.last() == Some(&EMPTY) {
            self.slots.pop();
        }
        // At least one slot of eight is taken, so that the first entry is
        // never far from the first slot.
        if self.len * 8 < self.homes && self.homes > 4 {
            self.resize(self.homes / 2);
        }
        true
    }

    /// The entries carrying `tag`, or all of them, ascending.
    fn entries(&self, tag: Option<u32>) -> impl Iterator<Item = RunEntry> + '_ {
        let from = tag.map_or(0, |tag| self.slot_of(run_entry(tag, 0)));
        self.slots[from..]
            .iter()
            .copied()
            .take_while(move |&e| tag.is_none_or(|tag| entry_tag(e) == tag))
            .filter(|&e| e != EMPTY)
    }

    /// This run with the row id of its n-th entry replaced by `rids[n]`.
    /// `rids` ascend, so the copy is in order slot for slot.
    fn with_rids(&self, rids: &[IndexRid]) -> Run {
        debug_assert!(rids.len() == self.len && rids.is_sorted());
        let mut rids = rids.iter();
        let slots = self.slots.iter().map(|&e| match e {
            EMPTY => EMPTY,
            _ => run_entry(entry_tag(e), *rids.next().expect("one id per entry")),
        });
        Run {
            slots: slots.collect(),
            ..*self
        }
    }
}

/// The rows sharing one hash of the first indexed column.
#[derive(Debug, Clone, Default)]
struct Group {
    run: Run,
    /// Distinct values of the first indexed column among the rows: one,
    /// unless two values share the hash.
    firsts: u32,
    /// Distinct keys (all indexed columns) among the rows.
    keys: u32,
}

/// Does a row of `entries` agree on `cols` with the row in slot `rid`?
/// While `entries` are known to agree with each other (`alike`), the first
/// one answers for all.
fn holds(
    cols: &[usize],
    heap: &Heap,
    entries: impl Iterator<Item = RunEntry>,
    alike: bool,
    rid: IndexRid,
) -> bool {
    let rid = rid as usize;
    let considered = if alike { 1 } else { usize::MAX };
    entries.take(considered).any(|other| {
        let other = entry_rid(other) as usize;
        cols.iter()
            .all(|&c| heap.cell(other, c) == heap.cell(rid, c))
    })
}

/// A grouped index over one or more columns of a table.
///
/// The index is maintained eagerly by `Table::insert` / `Table::delete`,
/// which hand it the table heap: ids in the index always name live rows of
/// that heap.
#[derive(Debug, Clone)]
pub struct Index {
    name: String,
    cols: Vec<usize>,
    /// The groups by the hash of their rows' first indexed cell.
    groups: HashMap<u64, Group, BuildHasherDefault<PassThrough>>,
    /// Distinct values (not hashes) of the first indexed column.
    distinct_firsts: usize,
    /// Distinct keys (not hashes) currently indexed.
    distinct: usize,
}

impl Index {
    pub fn new(name: impl Into<String>, cols: Vec<usize>) -> Self {
        assert!(!cols.is_empty(), "index must cover at least one column");
        Index {
            name: name.into(),
            cols,
            groups: HashMap::default(),
            distinct_firsts: 0,
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

    /// The directory hash and the run entry of the row in slot `rid`.
    fn locate(&self, heap: &Heap, rid: IndexRid) -> (u64, RunEntry) {
        let mut cells = self.cols.iter().map(|&c| heap.cell(rid as usize, c));
        let first = hash_cells(cells.next().into_iter());
        (first, run_entry(tag_of_cells(cells), rid))
    }

    /// Index the row `heap` holds in slot `rid`. Fails, with the index
    /// unchanged, if the heap's rows lack an indexed column.
    pub(crate) fn insert(&mut self, heap: &Heap, rid: IndexRid) -> Result<()> {
        self.check_arity(heap.arity())?;
        let (first, entry) = self.locate(heap, rid);
        let group = self.groups.entry(first).or_default();
        let alike = group.firsts == 1;
        if !holds(&self.cols[..1], heap, group.run.entries(None), alike, rid) {
            group.firsts += 1;
            self.distinct_firsts += 1;
        }
        let tagged = group.run.entries(Some(entry_tag(entry)));
        if !holds(&self.cols, heap, tagged, false, rid) {
            group.keys += 1;
            self.distinct += 1;
        }
        group.run.insert(entry);
        Ok(())
    }

    /// Drop `rid`, whose row is still in its slot of `heap`: the table
    /// clears the slot once every index has let go of it. A `rid` the
    /// index does not hold is ignored. Fails, with the index unchanged, if
    /// the heap's rows lack an indexed column.
    pub(crate) fn remove(&mut self, heap: &Heap, rid: IndexRid) -> Result<()> {
        self.check_arity(heap.arity())?;
        let (first, entry) = self.locate(heap, rid);
        let Entry::Occupied(mut slot) = self.groups.entry(first) else {
            return Ok(());
        };
        let group = slot.get_mut();
        if !group.run.remove(entry) {
            return Ok(());
        }
        let tagged = group.run.entries(Some(entry_tag(entry)));
        if !holds(&self.cols, heap, tagged, false, rid) {
            group.keys -= 1;
            self.distinct -= 1;
        }
        let alike = group.firsts == 1;
        if !holds(&self.cols[..1], heap, group.run.entries(None), alike, rid) {
            group.firsts -= 1;
            self.distinct_firsts -= 1;
        }
        if group.run.len == 0 {
            slot.remove();
        }
        Ok(())
    }

    /// Index the rows in the slots `copies` of `heap`: copies
    /// ([`Heap::copy_rows`]) of the rows [`Index::matches`] lists for the
    /// one-column key `[from]`, in that order and in ascending slots,
    /// holding the cells `overrides` in the columns named there.
    ///
    /// If the copies differ from their sources in the first indexed column
    /// and in no other, form a group of their own and the sources are a
    /// whole group, that group's run is cloned with the row ids replaced:
    /// the tags do not depend on the first column and the order does not
    /// change. Otherwise the copies are indexed one by one.
    pub(crate) fn insert_copies<K: AsCell>(
        &mut self,
        heap: &Heap,
        from: &K,
        copies: &[IndexRid],
        overrides: &[(usize, Cell<'_>)],
    ) -> Result<()> {
        self.check_arity(heap.arity())?;
        let Some(&copy) = copies.first() else {
            return Ok(());
        };
        let overridden = |col: &usize| overrides.iter().any(|(over, _)| over == col);
        let (to, _) = self.locate(heap, copy);
        let source = self.groups.get(&hash_cells([from.as_cell()].into_iter()));
        match source {
            Some(source)
                if overridden(&self.cols[0])
                    && !self.cols[1..].iter().any(overridden)
                    && source.firsts == 1
                    && source.run.len == copies.len()
                    && !self.groups.contains_key(&to) =>
            {
                let group = Group {
                    run: source.run.with_rids(copies),
                    ..*source
                };
                self.distinct_firsts += 1;
                self.distinct += group.keys as usize;
                self.groups.insert(to, group);
            }
            _ => {
                for &rid in copies {
                    self.insert(heap, rid)?;
                }
            }
        }
        Ok(())
    }

    /// The ids of the live rows of `heap` whose first `key.len()` indexed
    /// cells equal `key`, for a key over all indexed columns or over the
    /// first alone, in ascending `(tag, row id)` order — which is row-id
    /// order among the rows of one full key. A key of any other length
    /// matches nothing. A cleared slot keeps its cells, so the live bit,
    /// not the comparison, is what hides a dead row.
    pub(crate) fn matches<'a, 'k, K: AsCell>(
        &'a self,
        heap: &'a Heap,
        key: &'k [K],
    ) -> impl Iterator<Item = RowId> + use<'a, 'k, K> {
        let tag = match key.len() {
            n if n == self.cols.len() => {
                Some(Some(tag_of_cells(key[1..].iter().map(AsCell::as_cell))))
            }
            1 => Some(None),
            _ => None,
        };
        let candidates = tag.and_then(|tag| {
            let first = hash_cells(key[..1].iter().map(AsCell::as_cell));
            Some(self.groups.get(&first)?.run.entries(tag))
        });
        candidates
            .into_iter()
            .flatten()
            .map(|entry| entry_rid(entry) as RowId)
            .filter(move |&rid| {
                heap.is_live(rid)
                    && self
                        .cols
                        .iter()
                        .zip(key)
                        .all(|(&c, k)| heap.cell(rid, c) == k.as_cell())
            })
    }

    /// Number of distinct keys in the index. Exact: a tag shared by two
    /// keys counts twice.
    pub fn distinct_keys(&self) -> usize {
        self.distinct
    }

    /// Number of distinct values of the first indexed column. Exact: a
    /// group shared by two values counts twice.
    pub fn distinct_firsts(&self) -> usize {
        self.distinct_firsts
    }

    /// Estimated bytes held by the index: the slots of every run, taken
    /// or free (a run keeps between one and seven of eight taken), and one
    /// directory entry (hash, group, control byte) per group. Capacity
    /// slack of the directory is not counted. O(groups).
    pub(crate) fn approx_bytes(&self) -> usize {
        let group = std::mem::size_of::<(u64, Group)>() + 1;
        let slots: usize = self.groups.values().map(|g| g.run.slots.len()).sum();
        slots * std::mem::size_of::<RunEntry>() + self.groups.len() * group
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

        fn distinct(&self) -> (usize, usize) {
            (self.idx.distinct_firsts(), self.idx.distinct_keys())
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
        assert_eq!(t.distinct(), (2, 2));

        t.remove(r1);
        assert_eq!(t.get(&key), vec![r2 as RowId]);
        t.remove(r2);
        assert!(t.get(&key).is_empty());
        assert_eq!(t.distinct(), (1, 1));
    }

    #[test]
    fn the_first_column_alone_lists_its_group_in_tag_order() {
        let mut t = Indexed::new(2, vec![0, 1]);
        let keys = ["s3", "s1", "s2", "s1", "s9"];
        let rids: Vec<IndexRid> = keys.iter().map(|&k| t.insert(row![1, k])).collect();
        let other = t.insert(row![2, "s1"]);
        assert_eq!(t.distinct(), (2, 5));

        // The order a probe for `1` must come back in: by tag, and by row
        // id where two rows carry one key.
        let mut want: Vec<(u32, RowId)> = keys
            .iter()
            .zip(&rids)
            .map(|(&k, &rid)| {
                let tag = tag_of_cells([Value::str(k).as_cell()].into_iter());
                (tag, rid as RowId)
            })
            .collect();
        want.sort_unstable();
        let want: Vec<RowId> = want.into_iter().map(|(_, rid)| rid).collect();
        assert_eq!(t.get(&[Value::int(1)]), want);
        assert_eq!(t.get(&[Value::int(2)]), vec![other as RowId]);
        assert!(t.get(&[Value::int(3)]).is_empty());
        assert!(
            t.get(&[Value::str("s1")]).is_empty(),
            "not the first column"
        );

        // The same rows written in another order come back the same way.
        let mut again = Indexed::new(2, vec![0, 1]);
        for &k in keys.iter().rev() {
            again.insert(row![1, k]);
        }
        let read = |t: &Indexed| -> Vec<Row> {
            let rids = t.get(&[Value::int(1)]);
            rids.into_iter().map(|rid| t.heap.row(rid)).collect()
        };
        assert_eq!(read(&again), read(&t));
    }

    #[test]
    fn one_column_index_runs_in_row_id_order() {
        let mut t = Indexed::new(2, vec![0]);
        let rids: Vec<IndexRid> = (0..40).map(|n| t.insert(row![7, n])).collect();
        // Free every third slot and refill them: last freed first, so the
        // new rows arrive in descending slot order.
        for &rid in rids.iter().step_by(3) {
            t.remove(rid);
        }
        for n in 0..14 {
            t.insert(row![7, 100 + n]);
        }
        let hits = t.get(&[Value::int(7)]);
        assert_eq!(hits, (0..40).collect::<Vec<RowId>>());
        assert_eq!(t.distinct(), (1, 1));
        assert_eq!(tag_of_cells(std::iter::empty()), 0);
    }

    #[test]
    fn remove_is_idempotent_for_missing_rid() {
        let mut t = Indexed::new(1, vec![0]);
        t.insert(row![5]);
        // A row the index was never told about, in a group of its own and
        // in the group of the indexed row.
        for row in [row![6], row![5]] {
            let unindexed = t.heap.insert_cells(&row.cells()) as IndexRid;
            t.idx.remove(&t.heap, unindexed).unwrap();
            t.heap.remove(unindexed as usize);
        }
        assert_eq!(t.get(&[Value::int(5)]), vec![0]);
        assert_eq!(t.distinct(), (1, 1));
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
    fn key_of_another_length_matches_nothing() {
        let mut t = Indexed::new(3, vec![0, 1, 2]);
        t.insert(row![1, 2, 3]);
        assert_eq!(t.get(&[Value::int(1)]), vec![0]);
        assert_eq!(t.get(&[Value::int(1), Value::int(2), Value::int(3)]), [0]);
        assert!(t.get(&[]).is_empty());
        assert!(t.get(&[Value::int(1), Value::int(2)]).is_empty());
        assert!(t.get(&vec![Value::int(1); 4]).is_empty());
    }

    #[test]
    fn colliding_keys_stay_apart_and_are_counted_apart() {
        let _collide = CollideAll::on();
        let mut t = Indexed::new(2, vec![0]);
        let a1 = t.insert(row![1, "a"]);
        let s1 = t.insert(row!["1", "b"]);
        let a2 = t.insert(row![1, "c"]);
        assert_eq!(t.distinct(), (2, 2));
        assert_eq!(t.idx.groups.len(), 1, "one group for both values");
        assert_eq!(t.get(&[Value::int(1)]), vec![a1 as RowId, a2 as RowId]);
        assert_eq!(t.get(&[Value::str("1")]), vec![s1 as RowId]);
        assert!(t.get(&[Value::int(2)]).is_empty());

        t.remove(a1);
        assert_eq!(t.distinct(), (2, 2));
        t.remove(a2);
        assert_eq!(t.distinct(), (1, 1));
        assert!(t.get(&[Value::int(1)]).is_empty());
        assert_eq!(t.get(&[Value::str("1")]), vec![s1 as RowId]);
    }

    #[test]
    fn out_of_range_column_fails_before_the_index_changes() {
        let mut t = Indexed::new(2, vec![0, 3]);
        let rid = t.heap.insert_cells(&row![1, 2].cells()) as IndexRid;
        let err = t.idx.insert(&t.heap, rid).unwrap_err();
        assert_eq!(err, StorageError::ColumnOutOfRange { index: 3, arity: 2 });
        let err = t.idx.remove(&t.heap, rid).unwrap_err();
        assert_eq!(err, StorageError::ColumnOutOfRange { index: 3, arity: 2 });
        let err = t.idx.insert_copies(&t.heap, &Cell::Int(1), &[rid], &[]);
        assert_eq!(
            err.unwrap_err(),
            StorageError::ColumnOutOfRange { index: 3, arity: 2 }
        );
        assert_eq!((t.distinct(), t.idx.approx_bytes()), ((0, 0), 0));
    }

    #[test]
    fn approx_bytes_counts_run_slots_and_groups() {
        let mut t = Indexed::new(1, vec![0]);
        t.insert(row![1]);
        t.insert(row![2]);
        let two_groups = t.idx.approx_bytes();
        // The layout docs/execution.md and docs/observability.md quote.
        assert_eq!(std::mem::size_of::<RunEntry>(), 8);
        assert_eq!(std::mem::size_of::<(u64, Group)>(), 56);
        assert_eq!(crate::heap::DICT_ENTRY_BYTES, 33);
        // A run starts with four slots, taken or not.
        assert_eq!(two_groups, 2 * 4 * 8 + 2 * (56 + 1));
        t.insert(row![2]);
        t.insert(row![2]);
        assert_eq!(t.idx.approx_bytes(), two_groups, "three of four slots");
        // The fourth entry doubles that run.
        let fourth = t.insert(row![2]);
        assert_eq!(t.idx.approx_bytes(), two_groups + 4 * 8);
        t.remove(fourth);
        assert_eq!(t.idx.approx_bytes(), two_groups + 4 * 8, "not halved yet");
    }

    /// A run of `n` random-looking entries, some tags taken several times,
    /// written in the order `order` permutes them into.
    fn run_of(entries: &[RunEntry], order: impl Fn(usize) -> usize) -> Run {
        let mut run = Run::default();
        for n in 0..entries.len() {
            run.insert(entries[order(n)]);
        }
        run
    }

    #[test]
    fn a_run_is_laid_out_by_its_entries_not_by_their_history() {
        let n = 999;
        let entries: Vec<RunEntry> = (0..n as u64)
            .map(|i| {
                let tag = hash_cells([Cell::Int((i / 3) as i64)].into_iter()) >> 32;
                run_entry(tag as u32, i as IndexRid)
            })
            .collect();
        let forward = run_of(&entries, |i| i);
        let backward = run_of(&entries, |i| n - 1 - i);
        let strided = run_of(&entries, |i| i * 7 % n);
        assert_eq!(forward.slots, backward.slots);
        assert_eq!(forward.slots, strided.slots);

        let mut sorted = entries.clone();
        sorted.sort_unstable();
        assert_eq!(forward.entries(None).collect::<Vec<_>>(), sorted);
        assert!(forward.homes * 7 >= n * 8 && forward.homes < 4 * n);
        for &e in &entries {
            let tagged: Vec<RunEntry> = forward.entries(Some(entry_tag(e))).collect();
            assert!(tagged.contains(&e) && tagged.len() == 3 && tagged.is_sorted());
        }

        // Taking entries out leaves the layout of what remains, and gives
        // the slots back.
        let mut thinned = forward.clone();
        for &e in entries.iter().filter(|&&e| !entry_rid(e).is_multiple_of(5)) {
            assert!(thinned.remove(e));
            assert!(!thinned.remove(e));
        }
        let kept: Vec<RunEntry> = entries
            .iter()
            .copied()
            .filter(|&e| entry_rid(e).is_multiple_of(5))
            .collect();
        let mut rebuilt = run_of(&kept, |i| i);
        assert_eq!(thinned.entries(None).collect::<Vec<_>>().len(), kept.len());
        assert!(thinned.homes <= 8 * kept.len());
        rebuilt.resize(thinned.homes);
        assert_eq!(thinned.slots, rebuilt.slots);
    }

    #[test]
    fn a_run_of_one_tag_spills_past_its_homes_in_order() {
        // Every entry wants the last home slot.
        let mut run = Run::default();
        for rid in [5, 1, 9, 3, 7, 2, 8] {
            run.insert(run_entry(u32::MAX - 1, rid));
        }
        let rids: Vec<IndexRid> = run.entries(None).map(entry_rid).collect();
        assert_eq!(rids, [1, 2, 3, 5, 7, 8, 9]);
        assert!(run.slots.len() > run.homes);
        assert_eq!(run.entries(Some(u32::MAX - 1)).count(), 7);
        assert_eq!(run.entries(Some(u32::MAX)).count(), 0);
        assert_eq!(run.entries(Some(0)).count(), 0);
        for rid in [1, 2, 3, 5, 7, 8] {
            assert!(run.remove(run_entry(u32::MAX - 1, rid)));
        }
        assert_eq!(
            run.entries(None).collect::<Vec<_>>(),
            [run_entry(u32::MAX - 1, 9)]
        );
        assert_eq!(run.slots.len(), run.homes, "the spill-over is given back");
    }

    /// What a run has allocated stays within a few slots of what it uses:
    /// entries pushed past the last home must not double the vector.
    #[test]
    fn a_run_allocates_its_homes_and_a_few_spill_slots() {
        fn check(run: &Run, when: &str) {
            let (used, held) = (run.slots.len(), run.slots.capacity());
            assert!(used >= run.homes && held < used + SPILL, "{when}: {run:?}");
            // Random tags overflow the last home by a cluster, not more.
            assert!(held <= run.homes + 64, "{when}: {held} of {}", run.homes);
        }
        let entry = |i: u64| {
            let tag = hash_cells([Cell::Int(i as i64)].into_iter()) >> 32;
            run_entry(tag as u32, i as IndexRid)
        };
        let mut run = Run::default();
        let mut spilled = 0;
        for i in 0..20_000 {
            run.insert(entry(i));
            check(&run, "insert");
            spilled += usize::from(run.slots.len() > run.homes);
        }
        assert!(spilled > 0, "no insert went past the last home");
        let rids: Vec<IndexRid> = (0..20_000).collect();
        let copy = run.with_rids(&rids);
        check(&copy, "copy");
        assert_eq!(copy.slots.capacity(), copy.slots.len());
        // Down to an eighth of the entries and up again, through every
        // halving and doubling.
        for i in 0..17_500 {
            assert!(run.remove(entry(i)));
            check(&run, "remove");
        }
        for i in 0..17_500 {
            run.insert(entry(i));
            check(&run, "reinsert");
        }
        // Every entry on the last home: the spill-over is as long as the
        // run, and still not doubled.
        let mut run = Run::default();
        for rid in 0..1_000 {
            run.insert(run_entry(u32::MAX, rid));
            assert!(run.slots.capacity() < run.slots.len() + SPILL);
        }
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
    /// key)` with small dense world ids and keys `"s<n>"`. Within one
    /// world's group the tags of 10,000 keys, and of a million, collide no
    /// more often than those of a random function would (8 σ above the
    /// birthday bound: none of the 10,000 do), the bits a run picks a home
    /// slot by (the top ones) are as even, and the worlds get hashes of
    /// their own for the directory.
    #[test]
    fn hashes_of_wid_key_pairs_are_distinct_and_even() {
        let mut tags: Vec<u32> = (0..1_000_000)
            .map(|n| tag_of_cells([Value::str(format!("s{n}")).as_cell()].into_iter()))
            .collect();
        let mut top10 = vec![0u32; 1 << 10];
        for &tag in &tags[..10_000] {
            top10[(tag >> 22) as usize] += 1;
        }
        for keys in [10_000, tags.len()] {
            let tags = &mut tags[..keys];
            tags.sort_unstable();
            let shared = tags.windows(2).filter(|w| w[0] == w[1]).count() as f64;
            let expected = (keys * (keys - 1) / 2) as f64 / 2f64.powi(32);
            assert!(
                shared <= expected + 8.0 * expected.sqrt(),
                "{shared} pairs of {keys} keys share a tag, a random function gives {expected:.3}"
            );
        }
        let (chi2, limit) = chi_square(&top10);
        assert!(
            chi2 < limit,
            "top 10 bits uneven: chi² {chi2:.0}, limit {limit:.0}"
        );

        let mut worlds: Vec<u64> = (0..100_000)
            .map(|wid| hash_cells([Cell::Int(wid)].into_iter()))
            .collect();
        let mut low10 = vec![0u32; 1 << 10];
        for &h in &worlds {
            low10[(h & 0x3FF) as usize] += 1;
        }
        worlds.sort_unstable();
        assert!(
            worlds.windows(2).all(|w| w[0] != w[1]),
            "two worlds share a group"
        );
        let (chi2, limit) = chi_square(&low10);
        assert!(
            chi2 < limit,
            "low 10 bits uneven: chi² {chi2:.0}, limit {limit:.0}"
        );
        // The same keys with integer-typed and string-typed ids stay apart.
        assert_ne!(
            hash_cells([Cell::Int(1)].into_iter()),
            hash_cells([Value::str("1").as_cell()].into_iter())
        );
    }

    #[test]
    #[should_panic(expected = "at least one column")]
    fn empty_column_list_panics() {
        let _ = Index::new("bad", vec![]);
    }
}
