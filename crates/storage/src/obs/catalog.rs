//! `sys.*` virtual-table providers — the queryable introspection catalog.
//!
//! Each provider snapshots one observability source (the global metrics
//! registry, the statement-statistics map, the base-table catalog, the
//! plan cache, the slow-query log, the WAL) into plain rows at scan
//! time; the executor turns the snapshot into a `ColumnSet` and streams
//! it through the ordinary chunked pipeline. The tables this module
//! defines — and their columns — are documented in
//! `docs/observability.md` ("System catalog").
//!
//! Providers that need engine-owned state (`sys.plan_cache`,
//! `sys.slowlog`, `sys.wal`) take shared handles at construction; the
//! stateless ones (`sys.metrics`, `sys.statements`, `sys.tables`) read
//! the process-wide registries or the scanned `Database` itself.

use super::metrics::metrics;
use super::statements::statements_snapshot;
use crate::catalog::{Database, VirtualTable, SYS_PREFIX};
use crate::datalog::PlanCache;
use crate::obs::trace::SlowLog;
use crate::persist::WalStats;
use crate::row::Row;
use crate::schema::TableSchema;
use crate::table::TableAccess;
use crate::value::Value;
use std::sync::{Arc, Mutex};

/// A virtual table defined by a schema plus a row-producing closure.
pub struct FnTable<F> {
    schema: TableSchema,
    rows: F,
}

impl<F> FnTable<F>
where
    F: Fn(&Database) -> Vec<Row> + Send + Sync + 'static,
{
    /// Build a provider for `sys.<name>` with the given columns.
    #[allow(clippy::new_ret_no_self)]
    pub fn new(name: &str, columns: &[&str], rows: F) -> Arc<dyn VirtualTable> {
        assert!(name.starts_with(SYS_PREFIX), "virtual table outside sys.");
        Arc::new(FnTable {
            schema: TableSchema::keyless(name, columns),
            rows,
        })
    }
}

impl<F> VirtualTable for FnTable<F>
where
    F: Fn(&Database) -> Vec<Row> + Send + Sync,
{
    fn schema(&self) -> &TableSchema {
        &self.schema
    }

    fn rows(&self, db: &Database) -> Vec<Row> {
        (self.rows)(db)
    }
}

fn uint(v: u64) -> Value {
    Value::Int(v as i64)
}

/// `sys.metrics (name, value)` — one row per global counter, in
/// declaration order; exactly the pairs of `metrics().snapshot()`.
pub fn metrics_table() -> Arc<dyn VirtualTable> {
    FnTable::new("sys.metrics", &["name", "value"], |_db| {
        metrics()
            .snapshot()
            .counters()
            .map(|(name, value)| Row::new([Value::str(name), uint(value)]))
            .collect()
    })
}

/// `sys.statements` — cumulative per-fingerprint statement statistics,
/// one row per tracked fingerprint (see `obs::statements`).
pub fn statements_table() -> Arc<dyn VirtualTable> {
    FnTable::new(
        "sys.statements",
        &[
            "fingerprint",
            "statement",
            "calls",
            "errors",
            "total_time_ns",
            "min_time_ns",
            "max_time_ns",
            "mean_time_ns",
            "rows_returned",
            "cache_hits",
            "cache_misses",
            "spill_bytes",
            "peak_buffered_bytes",
        ],
        |_db| {
            statements_snapshot()
                .into_iter()
                .map(|s| {
                    Row::new([
                        Value::str(format!("{:016x}", s.fingerprint)),
                        Value::str(&s.statement),
                        uint(s.calls),
                        uint(s.errors),
                        uint(s.total_ns),
                        uint(s.min_ns),
                        uint(s.max_ns),
                        uint(s.mean_ns()),
                        uint(s.rows),
                        uint(s.cache_hits),
                        uint(s.cache_misses),
                        uint(s.spill_bytes),
                        uint(s.peak_buffered),
                    ])
                })
                .collect()
        },
    )
}

/// `sys.tables` — one row per *base* table in the scanned database:
/// shape (rows, columns, indexes, version), the cumulative
/// [`TableAccess`] counters, and where its
/// memory is (`heap_bytes`, `index_bytes`: estimates from slot counts at
/// the width each column's cells have, dictionary entries and the slots of
/// the index runs, not allocator measurements).
pub fn tables_table() -> Arc<dyn VirtualTable> {
    FnTable::new(
        "sys.tables",
        &[
            "name",
            "rows",
            "columns",
            "indexes",
            "version",
            "seq_scans",
            "rows_read",
            "index_probes",
            "key_probes",
            "inserts",
            "deletes",
            "updates",
            "transpose_rebuilds",
            "heap_bytes",
            "index_bytes",
        ],
        |db| {
            db.table_names()
                .into_iter()
                .map(|name| {
                    let t = db.table(name).expect("listed table exists");
                    let [seq, read, probes, ins, del, upd, rebuilds] = t.access().snapshot();
                    Row::new([
                        Value::str(name),
                        uint(t.len() as u64),
                        uint(t.schema().arity() as u64),
                        uint(t.index_count() as u64),
                        uint(t.version()),
                        uint(seq),
                        uint(read),
                        uint(probes),
                        uint(TableAccess::get(&t.access().key_probes)),
                        uint(ins),
                        uint(del),
                        uint(upd),
                        uint(rebuilds),
                        uint(t.heap_bytes() as u64),
                        uint(t.index_bytes() as u64),
                    ])
                })
                .collect()
        },
    )
}

/// `sys.plan_cache (hits, misses, entries, embedded_rows, answer_rows,
/// query_hits, queries)` — a single row snapshotting the engine's plan
/// cache; `query_hits` are the hits its query memo answered and `queries`
/// the memo's entries.
pub fn plan_cache_table(cache: Arc<Mutex<PlanCache>>) -> Arc<dyn VirtualTable> {
    FnTable::new(
        "sys.plan_cache",
        &[
            "hits",
            "misses",
            "entries",
            "embedded_rows",
            "answer_rows",
            "query_hits",
            "queries",
        ],
        move |_db| {
            let c = cache.lock().expect("plan cache poisoned");
            vec![Row::new([
                uint(c.hits()),
                uint(c.misses()),
                uint(c.len() as u64),
                uint(c.embedded_row_count() as u64),
                uint(c.answer_row_count() as u64),
                uint(c.query_hits()),
                uint(c.query_count() as u64),
            ])]
        },
    )
}

/// `sys.slowlog (statement, total_ns, spans)` — the slow-query ring,
/// oldest first; `spans` is a `name=nanos` list.
pub fn slowlog_table(log: Arc<SlowLog>) -> Arc<dyn VirtualTable> {
    FnTable::new(
        "sys.slowlog",
        &["statement", "total_ns", "spans"],
        move |_db| {
            log.entries()
                .into_iter()
                .map(|t| {
                    let spans = t
                        .spans
                        .iter()
                        .map(|s| format!("{}={}", s.name, s.nanos))
                        .collect::<Vec<_>>()
                        .join(" ");
                    Row::new([
                        Value::str(t.statement),
                        uint(t.total_nanos),
                        Value::str(spans),
                    ])
                })
                .collect()
        },
    )
}

/// `sys.wal` — one row of WAL statistics when the store is durable,
/// empty otherwise. The closure re-reads the live engine on every scan.
pub fn wal_table(
    stats: impl Fn() -> Option<WalStats> + Send + Sync + 'static,
) -> Arc<dyn VirtualTable> {
    FnTable::new(
        "sys.wal",
        &[
            "segments",
            "frames",
            "wal_bytes",
            "next_lsn",
            "snapshot_hwm",
            "checkpoints",
            "syncs",
            "truncated_on_open",
            "snapshot_bytes",
            "checkpoint_us",
        ],
        move |_db| {
            stats()
                .map(|s| {
                    Row::new([
                        uint(s.segments as u64),
                        uint(s.frames),
                        uint(s.wal_bytes),
                        uint(s.next_lsn),
                        uint(s.snapshot_hwm),
                        uint(s.checkpoints),
                        uint(s.syncs),
                        Value::Bool(s.truncated_on_open),
                        uint(s.snapshot_bytes),
                        uint(s.checkpoint_us),
                    ])
                })
                .into_iter()
                .collect()
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs::statements::{clear_statements, record_statement, StatementObs};
    use crate::obs::Metric;
    use crate::row;

    #[test]
    fn metrics_rows_mirror_snapshot() {
        let db = Database::new();
        let vt = metrics_table();
        assert_eq!(vt.schema().name(), "sys.metrics");
        let rows = vt.rows(&db);
        assert_eq!(rows.len(), Metric::ALL.len());
        // Every counter name appears, values are non-negative ints.
        for (row, metric) in rows.iter().zip(Metric::ALL.iter()) {
            assert_eq!(row.get(0).unwrap().as_str(), Some(metric.name()));
            assert!(row.get(1).unwrap().as_int().unwrap() >= 0);
        }
    }

    #[test]
    fn statements_rows_carry_all_columns() {
        clear_statements();
        let sql = "select * from ProvidersStatementsTable where k = 3";
        record_statement(
            sql,
            StatementObs {
                wall_ns: 200,
                rows: 4,
                ..Default::default()
            },
        );
        let db = Database::new();
        let vt = statements_table();
        assert_eq!(vt.schema().arity(), 13);
        let rows = vt.rows(&db);
        let row = rows
            .iter()
            .find(|r| {
                r.get(1).unwrap().as_str()
                    == Some("select * from providersstatementstable where k = ?")
            })
            .expect("recorded statement visible");
        assert_eq!(row.get(2).unwrap().as_int(), Some(1)); // calls
        assert_eq!(row.get(4).unwrap().as_int(), Some(200)); // total
        assert_eq!(row.get(8).unwrap().as_int(), Some(4)); // rows
        assert_eq!(row.get(0).unwrap().as_str().unwrap().len(), 16); // hex fp
        clear_statements();
    }

    #[test]
    fn tables_rows_reflect_catalog_state() {
        let mut db = Database::new();
        db.create_table(TableSchema::with_key("Users", &["uid", "name"]))
            .unwrap();
        db.table_mut("Users").unwrap().insert(row![1, "a"]).unwrap();
        db.table_mut("Users").unwrap().insert(row![2, "b"]).unwrap();
        let vt = tables_table();
        let rows = vt.rows(&db);
        assert_eq!(rows.len(), 1);
        let r = &rows[0];
        assert_eq!(r.get(0).unwrap().as_str(), Some("Users"));
        assert_eq!(r.get(1).unwrap().as_int(), Some(2)); // rows
        assert_eq!(r.get(2).unwrap().as_int(), Some(2)); // columns
        assert_eq!(r.get(9).unwrap().as_int(), Some(2)); // inserts

        // Two slots: an integer column and a code column with two
        // dictionary entries, a byte a cell, and one word of live bits.
        let heap = 2 + (2 + 2 * 33) + 8;
        assert_eq!(r.get(13).unwrap().as_int(), Some(heap)); // heap_bytes
        assert_eq!(r.get(14).unwrap().as_int(), Some(0)); // index_bytes: no index

        // An integer past the byte lanes re-types its column, and the
        // estimate follows the width.
        db.table_mut("Users")
            .unwrap()
            .insert(row![300, "a"])
            .unwrap();
        let r = &vt.rows(&db)[0];
        let heap = 3 * 2 + (3 + 2 * 33) + 8;
        assert_eq!(r.get(13).unwrap().as_int(), Some(heap));
    }

    #[test]
    fn plan_cache_and_slowlog_and_wal_providers() {
        let db = Database::new();
        let cache = Arc::new(Mutex::new(PlanCache::new()));
        let vt = plan_cache_table(Arc::clone(&cache));
        let rows = vt.rows(&db);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].arity(), 7);

        let log = Arc::new(SlowLog::new());
        log.set_threshold_ms(Some(0));
        log.observe(crate::obs::QueryTrace {
            statement: "select 1".into(),
            total_nanos: 5,
            spans: vec![crate::obs::SpanRecord {
                name: "parse",
                nanos: 2,
            }],
            profile: None,
        });
        let vt = slowlog_table(Arc::clone(&log));
        let rows = vt.rows(&db);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].get(0).unwrap().as_str(), Some("select 1"));
        assert_eq!(rows[0].get(2).unwrap().as_str(), Some("parse=2"));

        // Non-durable store: sys.wal is empty, not an error.
        let vt = wal_table(|| None);
        assert!(vt.rows(&db).is_empty());
        let vt = wal_table(|| {
            Some(WalStats {
                segments: 1,
                frames: 2,
                wal_bytes: 3,
                next_lsn: 4,
                snapshot_hwm: 0,
                checkpoints: 0,
                snapshot_bytes: 10,
                checkpoint_us: 11,
                syncs: 9,
                truncated_on_open: false,
            })
        });
        let rows = vt.rows(&db);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].get(6).unwrap().as_int(), Some(9));
        assert_eq!(rows[0].get(8).unwrap().as_int(), Some(10));
        assert_eq!(rows[0].get(9).unwrap().as_int(), Some(11));
    }
}
