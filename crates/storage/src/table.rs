//! Heap tables with primary-key enforcement and secondary indexes.

use crate::column::ColumnSet;
use crate::error::{Result, StorageError};
use crate::index::{Index, IndexRid, RowId};
use crate::row::Row;
use crate::schema::{KeyMode, TableSchema};
use crate::value::Value;
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
    /// Secondary-index point lookups.
    pub index_probes: AtomicU64,
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
}

impl TableAccess {
    #[inline]
    fn bump(counter: &AtomicU64, by: u64) {
        counter.fetch_add(by, Ordering::Relaxed);
    }

    fn get(counter: &AtomicU64) -> u64 {
        counter.load(Ordering::Relaxed)
    }

    /// Snapshot all counters as `(seq_scans, rows_read, index_probes,
    /// inserts, deletes, updates, transpose_rebuilds)`.
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

/// An in-memory table: a slotted heap of rows, an optional primary-key map
/// (over the first column, per the paper's schema convention), and any
/// number of secondary hash indexes.
#[derive(Debug, Clone)]
pub struct Table {
    schema: TableSchema,
    rows: Vec<Option<Row>>,
    live: usize,
    pk: HashMap<Value, RowId>,
    indexes: Vec<Index>,
    /// Bumped on every insert/delete; lets the optimizer's statistics
    /// catalog detect stale snapshots without rescanning.
    version: u64,
    /// Lazily built columnar transpose of the live rows, keyed by the
    /// version it was built at (see [`Table::columnar`]).
    columnar: RefCell<Option<(u64, Arc<ColumnSet>)>>,
    /// Cumulative access stats, shared across clones (see [`TableAccess`]).
    access: Arc<TableAccess>,
}

impl Table {
    pub fn new(schema: TableSchema) -> Self {
        Table {
            schema,
            rows: Vec::new(),
            live: 0,
            pk: HashMap::new(),
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
        self.live
    }

    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Create a secondary hash index over the named columns.
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
        for (rid, slot) in self.rows.iter().enumerate() {
            if let Some(row) = slot {
                // Slots were counted in `u32` when they were filled.
                idx.insert(&self.rows, row, rid as IndexRid)?;
            }
        }
        self.indexes.push(idx);
        // A new index changes the statistics surface (exact distinct-key
        // counts become available): invalidate cached stats snapshots.
        self.version += 1;
        Ok(())
    }

    fn check_arity(&self, row: &Row) -> Result<()> {
        if row.arity() != self.schema.arity() {
            return Err(StorageError::ArityMismatch {
                table: self.schema.name().to_string(),
                expected: self.schema.arity(),
                got: row.arity(),
            });
        }
        Ok(())
    }

    /// The id of heap slot number `slot`, as indexes store it. A heap holds
    /// at most `u32::MAX` slots and never reuses one, so this bounds the
    /// rows a table can ever have held.
    fn index_rid(&self, slot: usize) -> Result<IndexRid> {
        match IndexRid::try_from(slot) {
            Ok(rid) if rid < IndexRid::MAX => Ok(rid),
            _ => Err(StorageError::TableFull {
                table: self.schema.name().to_string(),
                max_slots: IndexRid::MAX as usize,
            }),
        }
    }

    /// Insert a row, enforcing the primary-key constraint when the schema
    /// declares one. Returns the new row's id. A failed insert leaves the
    /// heap, the primary-key map and every index as they were: every check
    /// runs before the first of them is touched.
    pub fn insert(&mut self, row: Row) -> Result<RowId> {
        self.check_arity(&row)?;
        let rid = self.index_rid(self.rows.len())?;
        for idx in &self.indexes {
            idx.check_row(&row)?;
        }
        if self.schema.key_mode() == KeyMode::PrimaryKey {
            let key = row.get(0)?;
            if self.pk.contains_key(key) {
                return Err(StorageError::DuplicateKey {
                    table: self.schema.name().to_string(),
                    key: format!("{key}"),
                });
            }
            self.pk.insert(key.clone(), rid as RowId);
        }
        for idx in &mut self.indexes {
            idx.insert(&self.rows, &row, rid)?;
        }
        let rid = rid as RowId;
        self.rows.push(Some(row));
        self.live += 1;
        self.version += 1;
        TableAccess::bump(&self.access.inserts, 1);
        Ok(rid)
    }

    /// Fetch a live row by id.
    pub fn get(&self, rid: RowId) -> Result<&Row> {
        self.rows
            .get(rid)
            .and_then(|s| s.as_ref())
            .ok_or(StorageError::InvalidRowId {
                table: self.schema.name().to_string(),
                row_id: rid,
            })
    }

    /// Delete a row by id, returning it.
    pub fn delete(&mut self, rid: RowId) -> Result<Row> {
        let slot = self.rows.get_mut(rid).ok_or(StorageError::InvalidRowId {
            table: self.schema.name().to_string(),
            row_id: rid,
        })?;
        let row = slot.take().ok_or(StorageError::InvalidRowId {
            table: self.schema.name().to_string(),
            row_id: rid,
        })?;
        if self.schema.key_mode() == KeyMode::PrimaryKey {
            self.pk.remove(row.get(0)?);
        }
        for idx in &mut self.indexes {
            // `rid` named a filled slot, and those are counted in `u32`.
            idx.remove(&self.rows, &row, rid as IndexRid)?;
        }
        self.live -= 1;
        self.version += 1;
        TableAccess::bump(&self.access.deletes, 1);
        Ok(row)
    }

    /// Delete every row matching `pred`; returns the number deleted.
    ///
    /// Scans the whole heap — prefer [`Table::delete_by_index_where`] on
    /// large tables when an index covers the selection.
    pub fn delete_where(&mut self, mut pred: impl FnMut(&Row) -> bool) -> Result<usize> {
        let victims: Vec<RowId> = self
            .rows
            .iter()
            .enumerate()
            .filter_map(|(rid, s)| s.as_ref().filter(|r| pred(r)).map(|_| rid))
            .collect();
        for rid in &victims {
            self.delete(*rid)?;
        }
        Ok(victims.len())
    }

    /// Delete the rows matching `key` on the named index that also satisfy
    /// `pred`; returns the number deleted. O(matching rows), not O(table).
    pub fn delete_by_index_where(
        &mut self,
        index: &str,
        key: &[Value],
        mut pred: impl FnMut(&Row) -> bool,
    ) -> Result<usize> {
        let victims: Vec<RowId> = self
            .index_matches(index, key)?
            .filter(|(_, row)| pred(row))
            .map(|(rid, _)| rid)
            .collect();
        for rid in &victims {
            self.delete(*rid)?;
        }
        Ok(victims.len())
    }

    /// Delete all rows with this index key.
    pub fn delete_by_index(&mut self, index: &str, key: &[Value]) -> Result<usize> {
        self.delete_by_index_where(index, key, |_| true)
    }

    /// Look up a row by primary key.
    pub fn get_by_key(&self, key: &Value) -> Option<&Row> {
        let rid = *self.pk.get(key)?;
        self.rows[rid].as_ref()
    }

    /// Row id for a primary key.
    pub fn rid_by_key(&self, key: &Value) -> Option<RowId> {
        self.pk.get(key).copied()
    }

    /// One probe of the named secondary index: the live rows matching
    /// `key`, with their ids.
    fn index_matches<'a, 'k>(
        &'a self,
        index: &str,
        key: &'k [Value],
    ) -> Result<impl Iterator<Item = (RowId, &'a Row)> + use<'a, 'k>> {
        let idx = self
            .indexes
            .iter()
            .find(|i| i.name() == index)
            .ok_or_else(|| StorageError::NoSuchIndex {
                table: self.schema.name().to_string(),
                name: index.to_string(),
            })?;
        TableAccess::bump(&self.access.index_probes, 1);
        Ok(idx.matches(&self.rows, key))
    }

    /// Row ids matching `key` on the named secondary index.
    pub fn index_lookup<'a, 'k>(
        &'a self,
        index: &str,
        key: &'k [Value],
    ) -> Result<impl Iterator<Item = RowId> + use<'a, 'k>> {
        Ok(self.index_matches(index, key)?.map(|(rid, _)| rid))
    }

    /// Rows matching `key` on the named secondary index.
    pub fn index_rows(&self, index: &str, key: &[Value]) -> Result<Vec<&Row>> {
        Ok(self
            .index_matches(index, key)?
            .map(|(_, row)| row)
            .collect())
    }

    /// Iterate over live rows with their ids.
    pub fn iter(&self) -> impl Iterator<Item = (RowId, &Row)> {
        self.rows
            .iter()
            .enumerate()
            .filter_map(|(rid, s)| s.as_ref().map(|r| (rid, r)))
    }

    /// Clone all live rows (used by the materializing executor's `Scan`).
    pub fn scan(&self) -> Vec<Row> {
        self.iter().map(|(_, r)| r.clone()).collect()
    }

    /// The columnar transpose of the live rows, built lazily and cached
    /// per [`Table::version`]. The vectorized executor's `Scan` slices
    /// this shared set into chunk windows instead of cloning rows; a
    /// mutation invalidates the cache by bumping the version.
    pub fn columnar(&self) -> Arc<ColumnSet> {
        let mut cache = self.columnar.borrow_mut();
        if let Some((version, set)) = cache.as_ref() {
            if *version == self.version {
                return Arc::clone(set);
            }
        }
        let refs: Vec<&Row> = self.iter().map(|(_, r)| r).collect();
        let set = Arc::new(ColumnSet::from_rows(self.schema.arity(), &refs));
        *cache = Some((self.version, Arc::clone(&set)));
        TableAccess::bump(&self.access.transpose_rebuilds, 1);
        set
    }

    /// True iff the table has an index with this exact column list.
    pub fn has_index_on(&self, cols: &[usize]) -> Option<&str> {
        self.indexes
            .iter()
            .find(|i| i.columns() == cols)
            .map(|i| i.name())
    }

    /// Monotone mutation counter (insert/delete), used by the optimizer's
    /// statistics catalog to detect stale snapshots.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Per-index statistics: `(name, columns, distinct keys)`. Distinct-key
    /// counts are maintained incrementally by insert/delete, so this is
    /// O(#indexes).
    pub fn index_stats(&self) -> Vec<(&str, &[usize], usize)> {
        self.indexes
            .iter()
            .map(|i| (i.name(), i.columns(), i.distinct_keys()))
            .collect()
    }

    /// Estimated bytes of the row heap, from counts: one slot header per
    /// slot ever filled (dead slots are not reused) plus the values of the
    /// live rows. String payloads are shared `Arc<str>` and not counted.
    pub fn heap_bytes(&self) -> usize {
        self.rows.len() * std::mem::size_of::<Option<Row>>()
            + self.live * self.schema.arity() * std::mem::size_of::<Value>()
    }

    /// Estimated bytes of all secondary indexes, from their entry and
    /// row-id counts.
    pub fn index_bytes(&self) -> usize {
        self.indexes
            .iter()
            .map(|idx| idx.approx_bytes(self.live))
            .sum()
    }

    /// Find an index over exactly this *set* of columns (order-insensitive).
    /// Returns the index name and its column order, which callers must use
    /// when assembling lookup keys.
    pub fn find_index_for(&self, cols: &[usize]) -> Option<(&str, &[usize])> {
        let mut want: Vec<usize> = cols.to_vec();
        want.sort_unstable();
        self.indexes
            .iter()
            .find(|i| {
                let mut have: Vec<usize> = i.columns().to_vec();
                have.sort_unstable();
                have == want
            })
            .map(|i| (i.name(), i.columns()))
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
        assert_eq!(t.get_by_key(&Value::int(2)).unwrap()[1], Value::str("Bob"));
        assert!(t.get_by_key(&Value::int(9)).is_none());
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
        assert!(t.get_by_key(&Value::int(2)).is_none());
        // key can be reused after delete
        t.insert(row![2, "Bobby"]).unwrap();
        assert_eq!(
            t.get_by_key(&Value::int(2)).unwrap()[1],
            Value::str("Bobby")
        );
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
        assert_eq!(t.index_rows("by_wid_key", &key).unwrap().len(), 2);

        t.delete_where(|r| r[3] == Value::str("-")).unwrap();
        assert_eq!(t.index_rows("by_wid_key", &key).unwrap().len(), 1);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn index_created_after_data_backfills() {
        let mut t = users();
        t.create_index("by_name", &["name"]).unwrap();
        let hits = t.index_rows("by_name", &[Value::str("Carol")]).unwrap();
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0][0], Value::int(3));
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
    fn has_index_on_matches_exact_columns() {
        let mut t = users();
        t.create_index("by_name", &["name"]).unwrap();
        assert_eq!(t.has_index_on(&[1]), Some("by_name"));
        assert_eq!(t.has_index_on(&[0]), None);
        assert_eq!(t.has_index_on(&[1, 0]), None);
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
    fn footprint(t: &Table) -> (usize, usize, u64, Vec<usize>, usize) {
        let distinct = t.index_stats().iter().map(|s| s.2).collect();
        (t.len(), t.pk.len(), t.version(), distinct, t.index_bytes())
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
        assert!(t.get_by_key(&Value::int(4)).is_none());
        assert!(t
            .index_rows("by_name", &[Value::str("Dave")])
            .unwrap()
            .is_empty());

        t.indexes.pop();
        let before = footprint(&t);
        for bad in [row![1, "Imposter"], row![5]] {
            t.insert(bad).unwrap_err();
            assert_eq!(footprint(&t), before);
        }
        assert!(t
            .index_rows("by_name", &[Value::str("Imposter")])
            .unwrap()
            .is_empty());
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
