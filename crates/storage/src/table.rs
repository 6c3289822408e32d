//! Tables: a column heap of rows with primary-key enforcement and secondary
//! indexes.
//!
//! A table does not hold [`Row`]s. Its cells live in the typed,
//! dictionary-coded vectors of `crate::heap`, integers and codes in the
//! narrowest lanes that have held every value of their column; a row is a
//! slot number there. A column re-typed to wider lanes by a write is not an
//! event at this level: [`Table::version`] counts rows written, whatever
//! their width, and only [`Table::heap_bytes`] tells. `get`, `iter`,
//! `scan` and `delete` hand out owned rows; `cell`, `row_ids`,
//! `rid_by_key`, `index_lookup` and `probe` read in place, and
//! `insert_cells`, `copy_row`, `copy_group` and `remove` write without a
//! [`Row`] in between.
//!
//! A secondary index ([`crate::index`]) groups the rows by its first
//! column, so one index over `(a, b)` answers probes for `(a, b)` and for
//! `a` alone, and [`Table::copy_group`] copies all rows of one `a` at once.
//! A table only lists its indexes (`Table::indexes`); which key or index
//! serves a read is decided by the executor's access-path resolver. See
//! `docs/execution.md`, "Heap and index layout".

use crate::column::ColumnSet;
use crate::error::{Result, StorageError};
use crate::heap::Heap;
use crate::index::{CellHash, Index, IndexRid, RowId};
use crate::row::Row;
use crate::schema::{KeyMode, TableSchema};
use crate::value::{AsCell, Cell, Str, Value};
use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Cumulative access counters for one table, surfaced via `sys.tables`.
///
/// Held behind an `Arc` so clones of a [`Table`] (checkpoint snapshots,
/// `Database::clone`) keep feeding the *same* counters — access stats
/// describe the logical table, not one copy of it. All bumps are relaxed
/// atomics: monotone counters with no ordering requirements.
#[derive(Debug, Default)]
pub struct TableAccess {
    /// Sequential scans opened by the executor.
    pub seq_scans: AtomicU64,
    /// Rows made visible to sequential scans (live rows at scan open).
    pub rows_read: AtomicU64,
    /// Key and secondary-index point lookups.
    pub index_probes: AtomicU64,
    /// The executor's primary-key lookups (`[access=pk]`, `[probe T.pk]`),
    /// counted in `index_probes` too, so `index_probes - key_probes` are
    /// the probes of secondary indexes. Not part of
    /// [`TableAccess::snapshot`].
    pub key_probes: AtomicU64,
    /// Rows inserted.
    pub inserts: AtomicU64,
    /// Rows deleted.
    pub deletes: AtomicU64,
    /// Rows updated (bumped by the update path, which internally
    /// deletes + reinserts; those bumps are counted separately).
    pub updates: AtomicU64,
    /// Columnar-transpose cache rebuilds (a proxy for mutation churn on
    /// scanned tables).
    pub transpose_rebuilds: AtomicU64,
    /// Secondary-index entries written: one per index for every row
    /// inserted or deleted. Not part of [`TableAccess::snapshot`].
    pub index_writes: AtomicU64,
    /// Rows inserted by [`Table::copy_group`] (counted in `inserts` too).
    /// Not part of [`TableAccess::snapshot`].
    pub group_copied: AtomicU64,
}

impl TableAccess {
    #[inline]
    pub(crate) fn bump(counter: &AtomicU64, by: u64) {
        counter.fetch_add(by, Ordering::Relaxed);
    }

    pub(crate) fn get(counter: &AtomicU64) -> u64 {
        counter.load(Ordering::Relaxed)
    }

    /// Snapshot the counters `sys.tables` shows as `(seq_scans, rows_read,
    /// index_probes, inserts, deletes, updates, transpose_rebuilds)`.
    pub fn snapshot(&self) -> [u64; 7] {
        [
            Self::get(&self.seq_scans),
            Self::get(&self.rows_read),
            Self::get(&self.index_probes),
            Self::get(&self.inserts),
            Self::get(&self.deletes),
            Self::get(&self.updates),
            Self::get(&self.transpose_rebuilds),
        ]
    }
}

/// A secondary index of one table, resolved from its name once by
/// [`Table::index_id`]. Indexes are never dropped, so an id stays good for
/// the life of the table (and of its clones).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IndexId(usize);

/// An in-memory table: a column heap of rows (`crate::heap`), an optional
/// primary-key map (over the first column, per the paper's schema
/// convention), and any number of secondary indexes.
///
/// Rows are not stored as [`Row`]s. [`Table::get`], [`Table::iter`],
/// [`Table::scan`] and [`Table::delete`] materialize owned rows;
/// [`Table::cell`], [`Table::rid_by_key`] and [`Table::probe`] read the
/// heap without allocating.
#[derive(Debug, Clone)]
pub struct Table {
    schema: TableSchema,
    heap: Heap,
    pk: HashMap<Value, RowId, CellHash>,
    indexes: Vec<Index>,
    /// Bumped on every insert/delete; lets the optimizer's statistics
    /// catalog detect stale snapshots without rescanning.
    version: u64,
    /// Lazily built columnar copy of the live rows, keyed by the version
    /// it was built at (see [`Table::columnar`]).
    columnar: RefCell<Option<(u64, Arc<ColumnSet>)>>,
    /// Cumulative access stats, shared across clones (see [`TableAccess`]).
    access: Arc<TableAccess>,
}

impl Table {
    pub fn new(schema: TableSchema) -> Self {
        Table {
            heap: Heap::new(schema.arity()),
            schema,
            pk: HashMap::default(),
            indexes: Vec::new(),
            version: 0,
            columnar: RefCell::new(None),
            access: Arc::new(TableAccess::default()),
        }
    }

    /// Cumulative access counters (shared across clones of this table).
    pub fn access(&self) -> &TableAccess {
        &self.access
    }

    /// Record one sequential scan making `rows` rows visible. Called by
    /// the executors when a `Scan` node opens.
    pub fn note_seq_scan(&self, rows: u64) {
        TableAccess::bump(&self.access.seq_scans, 1);
        TableAccess::bump(&self.access.rows_read, rows);
    }

    /// Record one logical row update (the DML layer's delete+reinsert).
    pub fn note_update(&self) {
        TableAccess::bump(&self.access.updates, 1);
    }

    pub fn schema(&self) -> &TableSchema {
        &self.schema
    }

    /// Number of live rows.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    pub fn is_empty(&self) -> bool {
        self.heap.len() == 0
    }

    /// Number of heap slots, live and dead. Deleting a row leaves its slot
    /// for a later insert to reuse, so this is the largest number of rows
    /// the table has held at once.
    pub fn slots(&self) -> usize {
        self.heap.slots()
    }

    /// Create a secondary index over the named columns, grouped by the
    /// first: it serves probes for all of them and for the first alone.
    pub fn create_index(&mut self, name: &str, columns: &[&str]) -> Result<()> {
        if self.indexes.iter().any(|i| i.name() == name) {
            return Err(StorageError::IndexExists {
                table: self.schema.name().to_string(),
                name: name.to_string(),
            });
        }
        let cols = columns
            .iter()
            .map(|c| self.schema.column_index(c))
            .collect::<Result<Vec<_>>>()?;
        let mut idx = Index::new(name, cols);
        for rid in self.heap.live_slots() {
            // Slots were counted in `u32` when they were filled.
            idx.insert(&self.heap, rid as IndexRid)?;
        }
        self.indexes.push(idx);
        // A new index changes the statistics surface (exact distinct-key
        // counts become available): invalidate cached stats snapshots.
        self.version += 1;
        Ok(())
    }

    fn check_arity(&self, got: usize) -> Result<()> {
        if got != self.schema.arity() {
            return Err(StorageError::ArityMismatch {
                table: self.schema.name().to_string(),
                expected: self.schema.arity(),
                got,
            });
        }
        Ok(())
    }

    fn check_column(&self, col: usize) -> Result<()> {
        if col >= self.schema.arity() {
            return Err(StorageError::ColumnOutOfRange {
                index: col,
                arity: self.schema.arity(),
            });
        }
        Ok(())
    }

    /// The id of heap slot number `slot`, as indexes store it. A heap holds
    /// at most `u32::MAX` slots; since dead slots are reused, that bounds
    /// the rows a table can hold at once.
    fn index_rid(&self, slot: usize) -> Result<IndexRid> {
        match IndexRid::try_from(slot) {
            Ok(rid) if rid < IndexRid::MAX => Ok(rid),
            _ => Err(StorageError::TableFull {
                table: self.schema.name().to_string(),
                max_slots: IndexRid::MAX as usize,
            }),
        }
    }

    fn invalid_row_id(&self, rid: RowId) -> StorageError {
        StorageError::InvalidRowId {
            table: self.schema.name().to_string(),
            row_id: rid,
        }
    }

    /// Insert a row. [`Table::insert_cells`] on the row's values.
    pub fn insert(&mut self, row: Row) -> Result<RowId> {
        self.insert_cells(&row.cells())
    }

    /// Insert a row given as one cell per column, enforcing the primary-key
    /// constraint when the schema declares one. Strings are shared with the
    /// caller, not copied, and a string the column already holds costs no
    /// reference count either. Returns the new row's id: the slot of the
    /// row deleted last, if one is free, else a new one. Ids of live rows
    /// never change. A failed insert leaves the heap, the primary-key map
    /// and every index as they were: every check runs before the first of
    /// them is touched.
    pub fn insert_cells(&mut self, cells: &[Cell<'_>]) -> Result<RowId> {
        self.check_arity(cells.len())?;
        let rid = self.admit(cells.first().copied())?;
        let slot = self.heap.insert_cells(cells);
        self.index_new_row(rid, slot)
    }

    /// Insert a copy of the live row `src` in which the columns listed in
    /// `overrides` hold the given cells (of two entries for one column the
    /// first counts). Every other cell is copied the way the heap holds it
    /// — a typed value or a dictionary code — so nothing is interned, boxed
    /// or reference counted for it. Checks, result and failure behaviour
    /// are those of [`Table::insert_cells`].
    pub fn copy_row(&mut self, src: RowId, overrides: &[(usize, Cell<'_>)]) -> Result<RowId> {
        if !self.heap.is_live(src) {
            return Err(self.invalid_row_id(src));
        }
        for &(col, _) in overrides {
            self.check_column(col)?;
        }
        let key = match overrides.iter().find(|&&(col, _)| col == 0) {
            Some(&(_, cell)) => Some(cell.to_value()),
            None => (self.schema.arity() > 0).then(|| self.heap.cell(src, 0).to_value()),
        };
        let rid = self.admit(key.as_ref().map(Value::as_cell))?;
        let slot = self.heap.copy_row(src, overrides);
        self.index_new_row(rid, slot)
    }

    /// Every check an insert makes, and the primary-key entry of the row
    /// about to fill [`Heap::next_slot`], whose first cell is `key`.
    fn admit(&mut self, key: Option<Cell<'_>>) -> Result<IndexRid> {
        let rid = self.index_rid(self.heap.next_slot())?;
        for idx in &self.indexes {
            idx.check_arity(self.schema.arity())?;
        }
        if self.schema.key_mode() == KeyMode::PrimaryKey {
            let key = key.ok_or(StorageError::ColumnOutOfRange { index: 0, arity: 0 })?;
            let key = key.to_value();
            if self.pk.contains_key(&key) {
                return Err(StorageError::DuplicateKey {
                    table: self.schema.name().to_string(),
                    key: format!("{key}"),
                });
            }
            self.pk.insert(key, rid as RowId);
        }
        Ok(rid)
    }

    /// Index the row the heap just stored in `slot`, the one [`Table::admit`]
    /// announced as `rid`.
    fn index_new_row(&mut self, rid: IndexRid, slot: usize) -> Result<RowId> {
        debug_assert_eq!(slot, rid as usize);
        for idx in &mut self.indexes {
            idx.insert(&self.heap, rid)?;
        }
        self.note_inserts(1);
        Ok(rid as RowId)
    }

    /// Count `rows` inserted rows, indexed everywhere.
    fn note_inserts(&mut self, rows: usize) {
        self.version += rows as u64;
        TableAccess::bump(&self.access.inserts, rows as u64);
        let entries = rows * self.indexes.len();
        TableAccess::bump(&self.access.index_writes, entries as u64);
    }

    /// Insert a copy of every live row matching `key` on `index` — a key
    /// [`Table::probe`] accepts — in which the columns listed in
    /// `overrides` hold the given cells: [`Table::copy_row`] applied to a
    /// group. The heap copies column by column, and when `key` is the
    /// index's first column alone and `overrides` changes that column and
    /// no other indexed one, the index clones the group's run instead of
    /// placing row after row. Returns the number of rows copied; they fill
    /// the free slots first. Counts as one index probe. Every check runs
    /// before the first change, as for [`Table::insert_cells`].
    pub fn copy_group<K: AsCell>(
        &mut self,
        index: IndexId,
        key: &[K],
        overrides: &[(usize, Cell<'_>)],
    ) -> Result<usize> {
        let src: Vec<RowId> = self.probe(index, key)?.collect();
        for &(col, _) in overrides {
            self.check_column(col)?;
        }
        for idx in &self.indexes {
            idx.check_arity(self.schema.arity())?;
        }
        let fresh = src
            .len()
            .saturating_sub(self.heap.slots() - self.heap.len());
        if fresh > 0 {
            self.index_rid(self.heap.slots() + fresh - 1)?;
        }
        if let (KeyMode::PrimaryKey, Some(&first)) = (self.schema.key_mode(), src.first()) {
            // A copy keeps its source's key or shares the overriding one
            // with every other copy.
            let over = overrides.iter().find(|&&(col, _)| col == 0);
            match over.map(|&(_, cell)| cell.to_value()) {
                Some(key) if src.len() == 1 && !self.pk.contains_key(&key) => {
                    self.pk.insert(key, self.heap.next_slot());
                }
                taken => {
                    let key = taken.unwrap_or_else(|| self.heap.cell(first, 0).to_value());
                    return Err(StorageError::DuplicateKey {
                        table: self.schema.name().to_string(),
                        key: format!("{key}"),
                    });
                }
            }
        }
        let copies = self.heap.copy_rows(&src, overrides);
        for (i, idx) in self.indexes.iter_mut().enumerate() {
            match key {
                [from] if i == index.0 => {
                    idx.insert_copies(&self.heap, from, &copies, overrides)?
                }
                _ => {
                    for &rid in &copies {
                        idx.insert(&self.heap, rid)?;
                    }
                }
            }
        }
        self.note_inserts(copies.len());
        TableAccess::bump(&self.access.group_copied, copies.len() as u64);
        Ok(copies.len())
    }

    /// Fetch a live row by id (materialized; see [`Table::cell`]).
    pub fn get(&self, rid: RowId) -> Result<Row> {
        if !self.heap.is_live(rid) {
            return Err(self.invalid_row_id(rid));
        }
        Ok(self.heap.row(rid))
    }

    /// One cell of a live row, borrowed from the heap: no allocation and
    /// no reference-count traffic.
    pub fn cell(&self, rid: RowId, col: usize) -> Result<Cell<'_>> {
        if !self.heap.is_live(rid) {
            return Err(self.invalid_row_id(rid));
        }
        self.check_column(col)?;
        Ok(self.heap.cell(rid, col))
    }

    /// [`Table::cell`] without its checks: for a row id this table's key or
    /// one of its indexes just handed out, and a column checked against
    /// the schema (the executor's probes, whose plan was checked when it
    /// opened).
    pub(crate) fn heap_cell(&self, rid: RowId, col: usize) -> Cell<'_> {
        self.heap.cell(rid, col)
    }

    /// The strings the live rows `rids` hold in column `col`, in byte
    /// order, and each row's rank among them (`None` for a NULL cell):
    /// what a column of strings and NULLs is written out as without
    /// hashing a string. `None` for any other column.
    #[allow(clippy::type_complexity)]
    pub fn ranked_strings(
        &self,
        col: usize,
        rids: &[RowId],
    ) -> Result<Option<(Vec<&Str>, Vec<Option<u32>>)>> {
        self.check_column(col)?;
        if let Some(&rid) = rids.iter().find(|&&rid| !self.heap.is_live(rid)) {
            return Err(self.invalid_row_id(rid));
        }
        Ok(self.heap.ranked_strings(col, rids))
    }

    /// Delete a row by id, returning it.
    pub fn delete(&mut self, rid: RowId) -> Result<Row> {
        let row = self.get(rid)?;
        self.remove_live(rid)?;
        Ok(row)
    }

    /// Delete a row by id without materializing it.
    pub fn remove(&mut self, rid: RowId) -> Result<()> {
        if !self.heap.is_live(rid) {
            return Err(self.invalid_row_id(rid));
        }
        self.remove_live(rid)
    }

    /// Drop the live row `rid` from the key map, every index and the heap,
    /// without materializing it.
    fn remove_live(&mut self, rid: RowId) -> Result<()> {
        if self.schema.key_mode() == KeyMode::PrimaryKey {
            self.pk.remove(&self.heap.cell(rid, 0).to_value());
        }
        for idx in &mut self.indexes {
            // `rid` names a filled slot, and those are counted in `u32`.
            idx.remove(&self.heap, rid as IndexRid)?;
        }
        self.heap.remove(rid);
        self.version += 1;
        TableAccess::bump(&self.access.deletes, 1);
        TableAccess::bump(&self.access.index_writes, self.indexes.len() as u64);
        Ok(())
    }

    fn remove_all(&mut self, victims: Vec<RowId>) -> Result<usize> {
        for &rid in &victims {
            self.remove_live(rid)?;
        }
        Ok(victims.len())
    }

    /// Delete every row matching `pred`; returns the number deleted.
    ///
    /// Scans the whole heap — prefer [`Table::delete_by_index_where`] on
    /// large tables when an index covers the selection.
    pub fn delete_where(&mut self, mut pred: impl FnMut(&Row) -> bool) -> Result<usize> {
        let victims = self
            .iter()
            .filter(|(_, row)| pred(row))
            .map(|(rid, _)| rid)
            .collect();
        self.remove_all(victims)
    }

    /// Delete the rows matching `key` on the named index that also satisfy
    /// `pred`; returns the number deleted. O(matching rows), not O(table).
    pub fn delete_by_index_where(
        &mut self,
        index: &str,
        key: &[Value],
        mut pred: impl FnMut(&Row) -> bool,
    ) -> Result<usize> {
        let victims = self
            .index_lookup(index, key)?
            .filter(|&rid| pred(&self.heap.row(rid)))
            .collect();
        self.remove_all(victims)
    }

    /// Row id for a primary key.
    pub fn rid_by_key(&self, key: &Value) -> Option<RowId> {
        self.pk.get(key).copied()
    }

    /// The handle of the named secondary index, for [`Table::probe`].
    pub fn index_id(&self, index: &str) -> Result<IndexId> {
        self.indexes
            .iter()
            .position(|i| i.name() == index)
            .map(IndexId)
            .ok_or_else(|| StorageError::NoSuchIndex {
                table: self.schema.name().to_string(),
                name: index.to_string(),
            })
    }

    /// One probe of the named secondary index: [`Table::probe`] after
    /// [`Table::index_id`].
    pub fn index_lookup<'a, 'k, K: AsCell>(
        &'a self,
        index: &str,
        key: &'k [K],
    ) -> Result<impl Iterator<Item = RowId> + use<'a, 'k, K>> {
        self.probe(self.index_id(index)?, key)
    }

    /// One probe of a secondary index: the ids of the live rows matching
    /// `key`, which may be [`Value`]s or borrowed [`Cell`]s and covers
    /// every indexed column or the first alone (any other length matches
    /// nothing). The ids come in the index's `(tag, row id)` order: the
    /// same for the same rows whatever the order they were written in, and
    /// ascending among the rows of one full key. Read their cells with
    /// [`Table::cell`].
    pub fn probe<'a, 'k, K: AsCell>(
        &'a self,
        index: IndexId,
        key: &'k [K],
    ) -> Result<impl Iterator<Item = RowId> + use<'a, 'k, K>> {
        let idx = self.index(index)?;
        TableAccess::bump(&self.access.index_probes, 1);
        Ok(idx.matches(&self.heap, key))
    }

    /// The columns a secondary index covers, in key order.
    pub fn index_columns(&self, index: IndexId) -> Result<&[usize]> {
        Ok(self.index(index)?.columns())
    }

    /// Every secondary index — its handle, name and columns in key order —
    /// in the order they were created. Which one serves a read is decided
    /// in one place, `exec::access`.
    pub(crate) fn indexes(&self) -> impl Iterator<Item = (IndexId, &str, &[usize])> + '_ {
        self.indexes
            .iter()
            .enumerate()
            .map(|(i, idx)| (IndexId(i), idx.name(), idx.columns()))
    }

    fn index(&self, index: IndexId) -> Result<&Index> {
        self.indexes
            .get(index.0)
            .ok_or_else(|| StorageError::NoSuchIndex {
                table: self.schema.name().to_string(),
                name: format!("#{}", index.0),
            })
    }

    /// Ids of the live rows, ascending. Read their cells with
    /// [`Table::cell`].
    pub fn row_ids(&self) -> impl Iterator<Item = RowId> + '_ {
        self.heap.live_slots()
    }

    /// Iterate over live rows with their ids, in slot order, materializing
    /// each.
    pub fn iter(&self) -> impl Iterator<Item = (RowId, Row)> + '_ {
        self.row_ids().map(|rid| (rid, self.heap.row(rid)))
    }

    /// All live rows (used by the materializing executor's `Scan`).
    pub fn scan(&self) -> Vec<Row> {
        self.iter().map(|(_, r)| r).collect()
    }

    /// The live rows as a [`ColumnSet`], built lazily from the heap's
    /// column vectors and cached per [`Table::version`]. The vectorized
    /// executor's `Scan` slices this shared set into chunk windows instead
    /// of materializing rows; a mutation invalidates the cache by bumping
    /// the version.
    pub fn columnar(&self) -> Arc<ColumnSet> {
        let mut cache = self.columnar.borrow_mut();
        if let Some((version, set)) = cache.as_ref() {
            if *version == self.version {
                return Arc::clone(set);
            }
        }
        let set = Arc::new(self.heap.columnar());
        *cache = Some((self.version, Arc::clone(&set)));
        TableAccess::bump(&self.access.transpose_rebuilds, 1);
        set
    }

    /// Monotone mutation counter (insert/delete), used by the optimizer's
    /// statistics catalog to detect stale snapshots.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Number of secondary indexes.
    pub fn index_count(&self) -> usize {
        self.indexes.len()
    }

    /// Per-index statistics: `(name, columns, distinct keys)` for every
    /// index, followed for an index over several columns by `(name, first
    /// column, distinct values)` — the two probe shapes it serves. Both
    /// counts are exact and maintained incrementally by insert/delete, so
    /// this is O(#indexes).
    pub fn index_stats(&self) -> Vec<(&str, &[usize], usize)> {
        let mut stats = Vec::with_capacity(2 * self.indexes.len());
        for i in &self.indexes {
            stats.push((i.name(), i.columns(), i.distinct_keys()));
            if i.columns().len() > 1 {
                stats.push((i.name(), &i.columns()[..1], i.distinct_firsts()));
            }
        }
        stats
    }

    /// Estimated bytes of the column heap, from the widths its column
    /// vectors have now (1, 2, 4 or 8 bytes a cell for integers and string
    /// codes) over all slots, its dictionary entries and its bitmaps (the
    /// formula is in `docs/observability.md`). A short string's text is
    /// inside its dictionary entry; a long one's is a shared `Arc<str>`
    /// and not counted.
    pub fn heap_bytes(&self) -> usize {
        self.heap.approx_bytes()
    }

    /// Estimated bytes of all secondary indexes, from the slots of their
    /// runs and their group counts.
    pub fn index_bytes(&self) -> usize {
        self.indexes.iter().map(Index::approx_bytes).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::row;

    fn users() -> Table {
        let mut t = Table::new(TableSchema::with_key("Users", &["uid", "name"]));
        t.insert(row![1, "Alice"]).unwrap();
        t.insert(row![2, "Bob"]).unwrap();
        t.insert(row![3, "Carol"]).unwrap();
        t
    }

    #[test]
    fn insert_and_key_lookup() {
        let t = users();
        assert_eq!(t.len(), 3);
        let bob = t.rid_by_key(&Value::int(2)).unwrap();
        assert_eq!(t.get(bob).unwrap()[1], Value::str("Bob"));
        assert!(t.rid_by_key(&Value::int(9)).is_none());
    }

    #[test]
    fn duplicate_key_rejected() {
        let mut t = users();
        let err = t.insert(row![1, "Imposter"]).unwrap_err();
        assert!(matches!(err, StorageError::DuplicateKey { .. }));
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn keyless_table_allows_duplicates() {
        let mut t = Table::new(TableSchema::keyless("E", &["wid1", "uid", "wid2"]));
        t.insert(row![0, 1, 1]).unwrap();
        t.insert(row![0, 1, 1]).unwrap();
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn arity_enforced() {
        let mut t = users();
        assert!(matches!(
            t.insert(row![4]),
            Err(StorageError::ArityMismatch {
                expected: 2,
                got: 1,
                ..
            })
        ));
    }

    #[test]
    fn delete_frees_key_and_slot() {
        let mut t = users();
        let rid = t.rid_by_key(&Value::int(2)).unwrap();
        let row = t.delete(rid).unwrap();
        assert_eq!(row[1], Value::str("Bob"));
        assert_eq!(t.len(), 2);
        assert!(t.get(rid).is_err());
        assert!(t.rid_by_key(&Value::int(2)).is_none());
        // key can be reused after delete
        t.insert(row![2, "Bobby"]).unwrap();
        let bobby = t.rid_by_key(&Value::int(2)).unwrap();
        assert_eq!(t.get(bobby).unwrap()[1], Value::str("Bobby"));
    }

    #[test]
    fn dead_slots_are_reused_and_live_ids_stay_put() {
        let mut t = Table::new(TableSchema::with_key("T", &["k", "v"]));
        t.create_index("by_v", &["v"]).unwrap();
        for k in 0..100 {
            t.insert(row![k, k % 7]).unwrap();
        }
        let keeper = t.rid_by_key(&Value::int(42)).unwrap();
        let (slots, heap_bytes) = (t.slots(), t.heap_bytes());
        assert_eq!(slots, 100);
        for cycle in 0..10_000i64 {
            let victim = if cycle % 100 == 42 { 43 } else { cycle % 100 };
            let rid = t.rid_by_key(&Value::int(victim)).unwrap();
            assert_eq!(t.delete(rid).unwrap(), row![victim, victim % 7]);
            // The freed slot is the one the next insert fills.
            assert_eq!(t.insert(row![victim, victim % 7]).unwrap(), rid);
        }
        assert_eq!(
            (t.len(), t.slots(), t.heap_bytes()),
            (100, slots, heap_bytes)
        );
        assert_eq!(t.rid_by_key(&Value::int(42)), Some(keeper));
        assert_eq!(t.get(keeper).unwrap(), row![42, 0]);
        assert_eq!(
            t.index_lookup("by_v", &[Value::int(0)]).unwrap().count(),
            15
        );
        // Several free slots are handed out last-freed first.
        let freed: Vec<RowId> = (0..3)
            .map(|k| t.rid_by_key(&Value::int(k)).unwrap())
            .collect();
        for &rid in &freed {
            t.delete(rid).unwrap();
        }
        let refilled: Vec<RowId> = (0..3).map(|k| t.insert(row![k, 0]).unwrap()).collect();
        assert_eq!(refilled, freed.into_iter().rev().collect::<Vec<_>>());
        assert_eq!(t.slots(), slots);
    }

    #[test]
    fn cells_are_read_in_place() {
        let mut t = users();
        let rid = t.rid_by_key(&Value::int(2)).unwrap();
        assert_eq!(t.cell(rid, 0).unwrap().as_int(), Some(2));
        assert_eq!(t.cell(rid, 1).unwrap().as_str(), Some("Bob"));
        assert_eq!(t.cell(rid, 1).unwrap(), Value::str("Bob"));
        assert!(matches!(
            t.cell(rid, 2),
            Err(StorageError::ColumnOutOfRange { index: 2, arity: 2 })
        ));
        t.delete(rid).unwrap();
        assert!(matches!(
            t.cell(rid, 0),
            Err(StorageError::InvalidRowId { .. })
        ));
        assert!(matches!(
            t.cell(99, 0),
            Err(StorageError::InvalidRowId { .. })
        ));
        assert_eq!(t.row_ids().collect::<Vec<_>>(), vec![0, 2]);
    }

    #[test]
    fn delete_twice_fails() {
        let mut t = users();
        let rid = t.rid_by_key(&Value::int(1)).unwrap();
        t.delete(rid).unwrap();
        assert!(t.delete(rid).is_err());
    }

    #[test]
    fn secondary_index_tracks_mutations() {
        let mut t = Table::new(TableSchema::keyless("V", &["wid", "tid", "key", "s", "e"]));
        t.create_index("by_wid_key", &["wid", "key"]).unwrap();
        t.insert(row![1, "t1", "s1", "+", "y"]).unwrap();
        t.insert(row![1, "t2", "s1", "-", "n"]).unwrap();
        t.insert(row![2, "t1", "s1", "+", "n"]).unwrap();

        let key = [Value::int(1), Value::str("s1")];
        assert_eq!(t.index_lookup("by_wid_key", &key).unwrap().count(), 2);

        t.delete_where(|r| r[3] == Value::str("-")).unwrap();
        assert_eq!(t.index_lookup("by_wid_key", &key).unwrap().count(), 1);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn index_created_after_data_backfills() {
        let mut t = users();
        t.create_index("by_name", &["name"]).unwrap();
        let carol = [Value::str("Carol")];
        let hits: Vec<RowId> = t.index_lookup("by_name", &carol).unwrap().collect();
        assert_eq!(hits.len(), 1);
        assert_eq!(t.cell(hits[0], 0).unwrap(), Value::int(3));
    }

    #[test]
    fn duplicate_index_name_rejected() {
        let mut t = users();
        t.create_index("i", &["name"]).unwrap();
        assert!(matches!(
            t.create_index("i", &["uid"]),
            Err(StorageError::IndexExists { .. })
        ));
    }

    #[test]
    fn an_index_serves_its_first_column_alone() {
        let mut t = Table::new(TableSchema::keyless("V", &["wid", "tid", "key"]));
        t.create_index("by_wid_key", &["wid", "key"]).unwrap();
        for (wid, tid, key) in [(1, 10, "s1"), (1, 11, "s2"), (2, 10, "s1")] {
            t.insert(row![wid, tid, key]).unwrap();
        }
        // Both probe shapes have their statistics row, both exact.
        assert_eq!(
            t.index_stats(),
            [("by_wid_key", &[0, 2][..], 3), ("by_wid_key", &[0][..], 2)]
        );
        assert_eq!(t.index_count(), 1);
        let first = [Value::int(1)];
        assert_eq!(t.index_lookup("by_wid_key", &first).unwrap().count(), 2);
        let wid_1 = t.delete_by_index_where("by_wid_key", &[Value::int(1)], |_| true);
        assert_eq!(wid_1.unwrap(), 2);
        assert_eq!(t.scan(), [row![2, 10, "s1"]]);

        t.create_index("by_wid", &["wid"]).unwrap();
        assert_eq!(t.index_stats().len(), 3);
    }

    #[test]
    fn columnar_cache_tracks_versions_and_skips_dead_rows() {
        let mut t = users();
        let first = t.columnar();
        // Unchanged table: the same Arc comes back.
        assert!(Arc::ptr_eq(&first, &t.columnar()));
        assert_eq!(first.len(), 3);
        assert_eq!(first.row_at(1), row![2, "Bob"]);
        // A mutation invalidates the cache; dead rows are not windows.
        let rid = t.rid_by_key(&Value::int(2)).unwrap();
        t.delete(rid).unwrap();
        let second = t.columnar();
        assert!(!Arc::ptr_eq(&first, &second));
        assert_eq!(second.len(), 2);
        assert_eq!(second.row_at(1), row![3, "Carol"]);
    }

    /// A value that re-types a heap column wider is a write like any other:
    /// the version moves by the rows written, the columnar copy is rebuilt
    /// once per read after a write, and only `heap_bytes` tells.
    #[test]
    fn widening_a_column_is_invisible_above_the_heap() {
        let run = |w: i64, k: i64| {
            let mut t = Table::new(TableSchema::keyless("T", &["w", "k"]));
            t.create_index("by_w_k", &["w", "k"]).unwrap();
            let by_w_k = t.index_id("by_w_k").unwrap();
            for n in 0..100 {
                t.insert(row![1, n]).unwrap();
            }
            let first = t.columnar();
            let (version, bytes) = (t.version(), t.heap_bytes());
            // `k` takes the value by an insert, `w` in the middle of a
            // group copy.
            t.insert(row![1, k]).unwrap();
            let over = [(0, Cell::Int(w))];
            assert_eq!(t.copy_group(by_w_k, &[Cell::Int(1)], &over).unwrap(), 101);
            let second = t.columnar();
            assert!(!Arc::ptr_eq(&first, &second) && Arc::ptr_eq(&second, &t.columnar()));
            assert_eq!(second.len(), 202);
            assert_eq!(second.row_at(100), row![1, k]);
            assert!((101..202).all(|n| second.row_at(n)[0] == Value::int(w)));
            assert_eq!(
                t.index_lookup("by_w_k", &[Value::int(w)]).unwrap().count(),
                101
            );
            let rebuilds = t.access().snapshot()[6];
            (t.version() - version, rebuilds, t.heap_bytes() - bytes)
        };
        let (narrow, wide) = (run(2, 100), run(70_000, -200));
        assert_eq!(narrow, (102, 2, 2 * 102 + 16));
        // `w` in four-byte lanes, `k` in two-byte ones, all 202 slots.
        assert_eq!(wide, (102, 2, (4 + 2) * 202 - 2 * 100 + 16));
    }

    #[test]
    fn access_counters_track_mutations_and_shared_across_clones() {
        let mut t = users();
        let clone = t.clone();
        let rid = t.rid_by_key(&Value::int(1)).unwrap();
        t.delete(rid).unwrap();
        t.note_seq_scan(2);
        t.note_update();
        t.create_index("by_name", &["name"]).unwrap();
        let bob = [Value::str("Bob")];
        let hits: Vec<RowId> = t.index_lookup("by_name", &bob).unwrap().collect();
        assert_eq!(hits, vec![1]);
        let _ = t.columnar();
        let [seq, read, probes, ins, del, upd, rebuilds] = t.access().snapshot();
        assert_eq!((seq, read), (1, 2));
        assert_eq!(probes, 1);
        assert_eq!(ins, 3);
        assert_eq!(del, 1);
        assert_eq!(upd, 1);
        assert_eq!(rebuilds, 1);
        // The clone observes the same counters (Arc-shared).
        assert_eq!(clone.access().snapshot(), t.access().snapshot());
    }

    /// Everything a failed insert must leave alone.
    fn footprint(t: &Table) -> (usize, usize, u64, Vec<usize>, usize, u64) {
        let distinct = t.index_stats().iter().map(|s| s.2).collect();
        let written = TableAccess::get(&t.access.index_writes);
        let bytes = t.index_bytes();
        (t.len(), t.pk.len(), t.version(), distinct, bytes, written)
    }

    #[test]
    fn failed_insert_leaves_heap_key_map_and_indexes_unchanged() {
        let mut t = users();
        t.create_index("by_name", &["name"]).unwrap();
        // An index no `create_index` call can build: it covers a column the
        // schema lacks, so it refuses every row. It comes after the key map
        // and `by_name`, which an insert that stopped half-way would
        // already have changed.
        t.indexes.push(Index::new("broken", vec![7]));
        let before = footprint(&t);

        let err = t.insert(row![4, "Dave"]).unwrap_err();
        assert_eq!(err, StorageError::ColumnOutOfRange { index: 7, arity: 2 });
        assert_eq!(footprint(&t), before);
        assert!(t.rid_by_key(&Value::int(4)).is_none());
        let dave = [Value::str("Dave")];
        assert_eq!(t.index_lookup("by_name", &dave).unwrap().count(), 0);

        t.indexes.pop();
        let before = footprint(&t);
        for bad in [row![1, "Imposter"], row![5]] {
            t.insert(bad).unwrap_err();
            assert_eq!(footprint(&t), before);
        }
        let imposter = [Value::str("Imposter")];
        assert_eq!(t.index_lookup("by_name", &imposter).unwrap().count(), 0);
    }

    #[test]
    fn failed_copy_leaves_heap_key_map_and_indexes_unchanged() {
        let mut t = users();
        t.create_index("by_name", &["name"]).unwrap();
        let before = footprint(&t);
        let src = t.rid_by_key(&Value::int(1)).unwrap();
        // The copy keeps the key, the override names a column the schema
        // lacks, the source is gone.
        let dup = t.copy_row(src, &[(1, Cell::Null)]).unwrap_err();
        assert!(matches!(dup, StorageError::DuplicateKey { .. }));
        let range = t.copy_row(src, &[(0, Cell::Int(9)), (2, Cell::Null)]);
        assert_eq!(
            range.unwrap_err(),
            StorageError::ColumnOutOfRange { index: 2, arity: 2 }
        );
        assert!(matches!(
            t.copy_row(99, &[(0, Cell::Int(9))]),
            Err(StorageError::InvalidRowId { .. })
        ));
        assert_eq!(footprint(&t), before);
        assert!(t.rid_by_key(&Value::int(9)).is_none());

        // With a fresh key the copy goes through, name and all.
        let rid = t.copy_row(src, &[(0, Cell::Int(9))]).unwrap();
        assert_eq!(t.get(rid).unwrap(), row![9, "Alice"]);
        assert_eq!(t.rid_by_key(&Value::int(9)), Some(rid));
        let alice = [Value::str("Alice")];
        assert_eq!(t.index_lookup("by_name", &alice).unwrap().count(), 2);
    }

    #[test]
    fn failed_copy_group_leaves_heap_key_map_and_indexes_unchanged() {
        let mut t = users();
        t.create_index("by_name", &["name"]).unwrap();
        let by_name = t.index_id("by_name").unwrap();
        t.insert(row![4, "Alice"]).unwrap();
        let before = footprint(&t);
        let alice = [Value::str("Alice")];

        // Two copies would share the overriding key, one copy keeps its
        // own, the key is taken, the override names a column the schema
        // lacks, the handle is of another table.
        let shared = t.copy_group(by_name, &alice, &[(0, Cell::Int(9))]);
        assert!(matches!(shared, Err(StorageError::DuplicateKey { .. })));
        let bob = [Value::str("Bob")];
        let kept = t.copy_group(by_name, &bob, &[(1, Cell::Null)]);
        assert!(matches!(kept, Err(StorageError::DuplicateKey { .. })));
        let taken = t.copy_group(by_name, &bob, &[(0, Cell::Int(3))]);
        assert!(matches!(taken, Err(StorageError::DuplicateKey { .. })));
        let range = t.copy_group(by_name, &bob, &[(0, Cell::Int(9)), (2, Cell::Null)]);
        assert_eq!(
            range.unwrap_err(),
            StorageError::ColumnOutOfRange { index: 2, arity: 2 }
        );
        assert!(matches!(
            t.copy_group(IndexId(5), &bob, &[(0, Cell::Int(9))]),
            Err(StorageError::NoSuchIndex { .. })
        ));
        // ... or an index refuses the rows, after the heap and the key map
        // would have taken them.
        t.indexes.push(Index::new("broken", vec![7]));
        let broken = t.copy_group(by_name, &bob, &[(0, Cell::Int(9))]);
        assert_eq!(
            broken.unwrap_err(),
            StorageError::ColumnOutOfRange { index: 7, arity: 2 }
        );
        t.indexes.pop();
        assert_eq!(footprint(&t), before);
        assert!(t.rid_by_key(&Value::int(9)).is_none());

        // A key nobody holds copies nothing; one row with a fresh key goes
        // through, name and all.
        let nobody = [Value::str("Zoe")];
        assert_eq!(t.copy_group(by_name, &nobody, &[]).unwrap(), 0);
        assert_eq!(footprint(&t), before);
        assert_eq!(
            t.copy_group(by_name, &bob, &[(0, Cell::Int(9))]).unwrap(),
            1
        );
        let nine = t.rid_by_key(&Value::int(9)).unwrap();
        assert_eq!(t.get(nine).unwrap(), row![9, "Bob"]);
        assert_eq!(t.index_lookup("by_name", &bob).unwrap().count(), 2);
        assert_eq!(t.version(), before.2 + 1);
    }

    #[test]
    fn a_group_is_copied_in_one_call() {
        let mut t = Table::new(TableSchema::keyless("V", &["wid", "key", "e"]));
        t.create_index("by_wid_key", &["wid", "key"]).unwrap();
        let by_wid_key = t.index_id("by_wid_key").unwrap();
        for key in ["s1", "s2", "s3", "s2"] {
            t.insert(row![1, key, "y"]).unwrap();
        }
        t.insert(row![2, "s1", "y"]).unwrap();
        let n = Value::str("n");
        let implicit = [(0, Cell::Int(3)), (2, n.as_cell())];
        // A world's rows in index order.
        let world = |t: &Table, wid: i64| -> Vec<Row> {
            let key = [Cell::Int(wid)];
            let rids: Vec<RowId> = t.probe(by_wid_key, &key).unwrap().collect();
            rids.into_iter().map(|rid| t.get(rid).unwrap()).collect()
        };

        assert_eq!(
            t.copy_group(by_wid_key, &[Cell::Int(1)], &implicit)
                .unwrap(),
            4
        );
        let [.., probes, inserts, _, _, _] = t.access().snapshot();
        assert_eq!((probes, inserts), (1, 9), "a group copy is one probe");
        let copy = world(&t, 3);
        let source = world(&t, 1);
        assert_eq!(copy.len(), 4);
        for (copy, source) in copy.iter().zip(&source) {
            // Same keys in the same order: the run was cloned.
            assert_eq!(copy, &row![3, source[1].clone(), "n"]);
        }
        let key = [Value::int(3), Value::str("s2")];
        let pair: Vec<RowId> = t.index_lookup("by_wid_key", &key).unwrap().collect();
        assert_eq!(pair.len(), 2);
        assert!(pair[0] < pair[1]);
        assert_eq!(
            t.index_stats(),
            [("by_wid_key", &[0, 1][..], 7), ("by_wid_key", &[0][..], 3)]
        );

        // Into a world that exists, and onto itself: row by row, same
        // result.
        assert_eq!(
            t.copy_group(by_wid_key, &[Cell::Int(2)], &implicit)
                .unwrap(),
            1
        );
        assert_eq!(world(&t, 3).len(), 5);
        assert_eq!(t.copy_group(by_wid_key, &[Cell::Int(2)], &[]).unwrap(), 1);
        assert_eq!(world(&t, 2), [row![2, "s1", "y"], row![2, "s1", "y"]]);
        // A full key copies its slice.
        let slice = [Value::int(1), Value::str("s2")];
        assert_eq!(
            t.copy_group(by_wid_key, &slice, &[(0, Cell::Int(4))])
                .unwrap(),
            2
        );
        assert_eq!(world(&t, 4), [row![4, "s2", "y"], row![4, "s2", "y"]]);
        assert_eq!(
            t.index_stats(),
            [("by_wid_key", &[0, 1][..], 8), ("by_wid_key", &[0][..], 4)]
        );

        let [.., inserts, deletes, _, _] = t.access().snapshot();
        assert_eq!((inserts, deletes, t.len()), (13, 0, 13));
        assert_eq!(TableAccess::get(&t.access.group_copied), 8);
        assert_eq!(TableAccess::get(&t.access.index_writes), 13);
        assert_eq!(t.version(), 1 + 13);
    }

    #[test]
    fn rows_are_written_probed_and_removed_without_a_row() {
        let mut t = Table::new(TableSchema::keyless("V", &["wid", "key", "e"]));
        t.create_index("by_wid_key", &["wid", "key"]).unwrap();
        let by_wid_key = t.index_id("by_wid_key").unwrap();
        assert!(matches!(
            t.index_id("by_key"),
            Err(StorageError::NoSuchIndex { .. })
        ));
        let (s1, y) = (Value::str("s1"), Value::str("y"));
        let a = t
            .insert_cells(&[Cell::Int(1), s1.as_cell(), y.as_cell()])
            .unwrap();
        let b = t.copy_row(a, &[(0, Cell::Int(2))]).unwrap();
        assert_eq!(t.get(b).unwrap(), row![2, "s1", "y"]);
        assert!(matches!(
            t.insert_cells(&[Cell::Int(1)]),
            Err(StorageError::ArityMismatch { got: 1, .. })
        ));

        let key = [Cell::Int(2), s1.as_cell()];
        assert_eq!(t.probe(by_wid_key, &key).unwrap().collect::<Vec<_>>(), [b]);
        t.remove(b).unwrap();
        assert_eq!(t.probe(by_wid_key, &key).unwrap().count(), 0);
        assert!(matches!(
            t.remove(b),
            Err(StorageError::InvalidRowId { .. })
        ));
        let [.., probes, inserts, deletes, _, _] = t.access().snapshot();
        assert_eq!((probes, inserts, deletes, t.len()), (2, 2, 1, 1));
    }

    #[test]
    fn heap_refuses_slots_its_indexes_cannot_address() {
        let t = users();
        let last = u32::MAX as usize - 1;
        assert_eq!(t.index_rid(last).unwrap(), u32::MAX - 1);
        for slot in [u32::MAX as usize, u32::MAX as usize + 1, usize::MAX] {
            assert_eq!(
                t.index_rid(slot).unwrap_err(),
                StorageError::TableFull {
                    table: "Users".into(),
                    max_slots: u32::MAX as usize,
                }
            );
        }
    }

    #[test]
    fn scan_returns_live_rows_only() {
        let mut t = users();
        let rid = t.rid_by_key(&Value::int(1)).unwrap();
        t.delete(rid).unwrap();
        let rows = t.scan();
        assert_eq!(rows.len(), 2);
        assert!(rows.iter().all(|r| r[1] != Value::str("Alice")));
    }
}
