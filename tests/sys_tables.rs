//! End-to-end suite for the `sys.*` system catalog: virtual tables
//! scanned through the ordinary parse → plan → optimize → chunked
//! executor path, plus the fingerprinted cumulative statement
//! statistics behind `sys.statements`.
//!
//! Covered here (unit tests live with the providers in
//! `beliefdb-storage::obs`):
//!
//! * the acceptance query `SELECT * FROM sys.statements ORDER BY
//!   total_time_ns DESC LIMIT 5` end-to-end through a session, and an
//!   ORDER BY on a column outside the select list, checked row for row
//!   against the catalog sorted in the test, with `LIMIT 4` and
//!   `LIMIT 0`;
//! * plan-cache non-interaction — sys scans are never cached and never
//!   count as hits or misses, and their snapshots are never stale;
//! * `sys.plan_cache.answer_rows` — an answer is kept from the miss
//!   that collected it, apart from `embedded_rows`, its repeat counts a
//!   `query_hits`, and the row agrees with `Bdms::plan_cache_stats`;
//! * `sys.metrics` vs `metrics().snapshot()` — every counter row is
//!   bracketed by snapshots taken around the scan (counters are
//!   monotonic, so `before ≤ scanned ≤ after` is exact under
//!   concurrency);
//! * a fuzzed differential: per-fingerprint `rows_returned` totals in
//!   `sys.statements` equal `calls ×` the actual row count reported by
//!   `EXPLAIN ANALYZE` for that statement;
//! * `sys.tables.heap_bytes` / `index_bytes` follow inserts and deletes
//!   by the documented formulas;
//! * named regressions: DML on `sys.*` rejected cleanly, durable
//!   sessions (`\open`) register the catalog but never persist it, and
//!   the magic-sets rewrite refuses programs touching `sys.*`.

use beliefdb::core::{Bdms, DefaultPolicy, ExternalSchema};
use beliefdb::sql::Session;
use beliefdb::storage::datalog::{Atom, BodyLit, Program, Rule, Term};
use beliefdb::storage::obs::{fingerprint, statements_snapshot};
use beliefdb::storage::{metrics, Database, Metric, Row, StorageError, TableSchema, Value};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

fn schema() -> ExternalSchema {
    ExternalSchema::new().with_relation("Sightings", &["sid", "species"])
}

fn session_with_rows(n: i64) -> Session {
    session_under(DefaultPolicy::default(), n)
}

fn session_under(policy: DefaultPolicy, n: i64) -> Session {
    let mut s = Session::from_bdms(Bdms::with_policy(schema(), policy).unwrap());
    for i in 0..n {
        s.execute(&format!(
            "insert into Sightings values ('s{i}','sp{}')",
            i % 3
        ))
        .unwrap();
    }
    s
}

fn cell_int(row: &Row, i: usize) -> i64 {
    row.values()[i].as_int().expect("integer cell")
}

fn cell_str(row: &Row, i: usize) -> String {
    match &row.values()[i] {
        Value::Str(s) => s.to_string(),
        other => panic!("expected string cell, got {other:?}"),
    }
}

#[test]
fn acceptance_query_end_to_end() {
    let session = session_with_rows(4);
    // Accumulate more distinct statements than the LIMIT keeps.
    for i in 0..6 {
        session
            .query(&format!("select A{i}.sid from Sightings as A{i}"))
            .unwrap();
    }

    let result = session
        .query("SELECT * FROM sys.statements ORDER BY total_time_ns DESC LIMIT 5")
        .unwrap();
    assert_eq!(
        result.columns(),
        [
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
        ]
    );
    let rows = result.rows();
    assert_eq!(rows.len(), 5, "LIMIT 5 must cap rows");
    // ORDER BY total_time_ns DESC: non-increasing down the result.
    for pair in rows.windows(2) {
        assert!(
            cell_int(&pair[0], 4) >= cell_int(&pair[1], 4),
            "rows not sorted by total_time_ns desc"
        );
    }
    // The fingerprint column is the 16-hex-digit rendering of the
    // statement's normalized hash.
    for row in rows {
        assert_eq!(cell_str(row, 0).len(), 16);
        assert!(cell_int(row, 2) >= 1, "calls is at least 1");
    }
}

#[test]
fn sys_order_by_sorts_on_unselected_columns_and_limit_cuts_after_it() {
    let session = session_with_rows(5);
    // The catalog's (name, rows), sorted here: rows descending, ties by
    // name in either direction. Two tables share a row count, and the
    // scan lists them by name, so only `name desc` tells a sort on both
    // keys from one on `rows` alone; the limit keeps those two and cuts
    // `U`, which the scan lists between them.
    let catalog = session.query("select name, rows from sys.tables").unwrap();
    let catalog: Vec<(i64, String)> = catalog
        .rows()
        .iter()
        .map(|r| (cell_int(r, 1), cell_str(r, 0)))
        .collect();
    for (order, names_desc) in [("rows desc, name", false), ("rows desc, name desc", true)] {
        let mut want = catalog.clone();
        want.sort_by(|a, b| {
            let by_name = if names_desc {
                b.1.cmp(&a.1)
            } else {
                a.1.cmp(&b.1)
            };
            b.0.cmp(&a.0).then(by_name)
        });
        let want: Vec<String> = want.into_iter().take(2).map(|(_, name)| name).collect();
        assert_eq!(want.len(), 2, "fewer than two tables");
        assert!(!want.contains(&"U".to_string()), "{want:?}");

        let sql = format!("select name from sys.tables order by {order} limit 2");
        let got = session.query(&sql).unwrap();
        assert_eq!(got.columns(), ["name"]);
        let got: Vec<String> = got.rows().iter().map(|r| cell_str(r, 0)).collect();
        assert_eq!(got, want, "{sql}");
        assert_eq!(explain_analyze_rows(&session, &sql), 2);
    }

    // LIMIT 0 keeps the columns and returns no row.
    let sql = "select name from sys.tables order by rows desc, name limit 0";
    let none = session.query(sql).unwrap();
    assert_eq!(none.columns(), ["name"]);
    assert!(none.rows().is_empty());
    assert_eq!(explain_analyze_rows(&session, sql), 0);
}

#[test]
fn sys_scans_never_touch_the_plan_cache_and_never_go_stale() {
    let mut session = session_with_rows(3);
    // Warm the plan cache with a belief query so there is real state to
    // disturb.
    session.query("select B1.sid from Sightings as B1").unwrap();
    session.query("select B1.sid from Sightings as B1").unwrap();

    let cache_row = |s: &Session| {
        s.query("select * from sys.plan_cache").unwrap().rows()[0]
            .values()
            .to_vec()
    };
    let before = cache_row(&session);
    assert!(
        before[2].as_int().unwrap() >= 1,
        "warm-up should have cached a program"
    );

    // A burst of sys scans — including repeated identical ones, which
    // would be prime cache candidates if the path consulted the cache.
    for _ in 0..3 {
        session.query("select * from sys.metrics").unwrap();
        session.query("select * from sys.tables").unwrap();
        session
            .query("select * from sys.statements order by total_time_ns desc limit 2")
            .unwrap();
    }
    let after = cache_row(&session);
    assert_eq!(
        before, after,
        "sys.* scans must not count plan-cache hits/misses or add entries"
    );

    // Never stale, part 1: a base-table mutation is visible in the very
    // next sys.tables scan (scan-time snapshot, no cached plan rows).
    let rows_of = |s: &Session, table: &str| {
        s.query(&format!(
            "select T.rows from sys.tables as T where T.name = '{table}'"
        ))
        .unwrap()
        .rows()
        .first()
        .map(|r| cell_int(r, 0))
        .expect("table listed")
    };
    let n0 = rows_of(&session, "Sightings__star");
    session
        .execute("insert into Sightings values ('zz','owl')")
        .unwrap();
    assert_eq!(
        rows_of(&session, "Sightings__star"),
        n0 + 1,
        "sys.tables served a stale row count"
    );

    // Never stale, part 2: a freshly executed statement is visible in
    // the immediately following sys.statements scan.
    let probe = "select B2.species from Sightings as B2";
    session.query(probe).unwrap();
    let fp = format!("{:016x}", fingerprint(probe));
    let found = session
        .query("select * from sys.statements")
        .unwrap()
        .rows()
        .iter()
        .any(|r| cell_str(r, 0) == fp);
    assert!(found, "sys.statements missed a statement just executed");
}

#[test]
fn sys_plan_cache_counts_answer_rows_apart_from_embedded_rows() {
    let mut session = session_with_rows(5);
    let sql = "select B1.sid, B1.species from Sightings as B1";
    let cache = |s: &Session| -> Vec<i64> {
        let result = s.query("select * from sys.plan_cache").unwrap();
        assert_eq!(
            result.columns(),
            [
                "hits",
                "misses",
                "entries",
                "embedded_rows",
                "answer_rows",
                "query_hits",
                "queries"
            ]
        );
        let row = &result.rows()[0];
        let cells: Vec<i64> = (0..7).map(|i| cell_int(row, i)).collect();
        // The engine's own snapshot says the same.
        let stats = s.bdms().plan_cache_stats();
        assert_eq!(
            cells,
            [
                stats.hits as i64,
                stats.misses as i64,
                stats.entries as i64,
                stats.embedded_rows as i64,
                stats.answer_rows as i64,
                stats.query_hits as i64,
                stats.queries as i64,
            ]
        );
        cells
    };
    assert_eq!(cache(&session), [0, 0, 0, 0, 0, 0, 0]);

    // The miss stores the plans and keeps the answer it collected beside
    // them; the memo maps the query to them.
    let answer = session.query(sql).unwrap().rows().to_vec();
    assert_eq!(answer.len(), 5);
    let miss = cache(&session);
    assert_eq!((miss[1], miss[2], miss[4], miss[6]), (1, 1, 5, 1));
    // A repeat reads it through the memo; nothing is added.
    assert_eq!(session.query(sql).unwrap().rows(), answer);
    let hit = cache(&session);
    assert_eq!((hit[0], hit[5]), (1, 1));
    assert_eq!(hit[3], miss[3], "embedded_rows keeps its meaning");
    assert_eq!(hit[1..5], miss[1..5]);
    assert_eq!(hit[6], miss[6]);

    // A write to the program's read set voids the entry; replanning
    // under its key drops the answer with it, and the miss keeps the new
    // one.
    session
        .execute("insert into Sightings values ('s9','owl')")
        .unwrap();
    assert_eq!(session.query(sql).unwrap().rows().len(), 6);
    let after = cache(&session);
    assert_eq!((after[1], after[2], after[4], after[6]), (2, 1, 6, 1));
}

#[test]
fn sys_metrics_rows_bracketed_by_registry_snapshots() {
    let session = session_with_rows(2);
    let before = metrics().snapshot();
    let result = session.query("select * from sys.metrics").unwrap();
    let after = metrics().snapshot();

    let rows = result.rows();
    assert_eq!(rows.len(), Metric::ALL.len());
    for (row, metric) in rows.iter().zip(Metric::ALL.iter()) {
        assert_eq!(cell_str(row, 0), metric.name());
        let scanned = cell_int(row, 1) as u64;
        assert!(
            before.get(*metric) <= scanned && scanned <= after.get(*metric),
            "{}: scanned {scanned} outside [{}, {}]",
            metric.name(),
            before.get(*metric),
            after.get(*metric)
        );
    }
}

/// Deterministic LCG so the fuzz is reproducible without a rand dep.
fn lcg(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *state >> 33
}

/// The actual row count reported by `EXPLAIN ANALYZE` for a sys query
/// (the trailing `-- N row(s) returned` line).
fn explain_analyze_rows(session: &Session, sql: &str) -> u64 {
    let text = session
        .query(&format!("explain analyze {sql}"))
        .unwrap()
        .to_string();
    let line = text
        .lines()
        .find(|l| l.starts_with("--") && l.ends_with("returned"))
        .unwrap_or_else(|| panic!("no actual-rows line in:\n{text}"));
    line.split_whitespace()
        .nth(1)
        .and_then(|n| n.parse().ok())
        .unwrap_or_else(|| panic!("unparsable actual-rows line: {line}"))
}

#[test]
fn fuzzed_statement_totals_match_explain_analyze_actuals() {
    let session = session_with_rows(3);
    let mut state = 0x9e3779b97f4a7c15u64;

    // Table names are stable for the whole test (no DDL), so sys.tables
    // row counts cannot drift between the EXPLAIN ANALYZE run and the
    // recorded runs. Each query gets a unique alias, giving it a unique
    // fingerprint no other test in this binary can touch.
    let names = ["Sightings__star", "V__Sightings", "nosuch"];
    let cols = ["name", "rows", "seq_scans", "inserts"];
    for i in 0..24 {
        let alias = format!("fz{i}");
        let mut sql = format!("select {alias}.name from sys.tables as {alias}");
        if lcg(&mut state).is_multiple_of(2) {
            let name = names[(lcg(&mut state) % names.len() as u64) as usize];
            let op = if lcg(&mut state).is_multiple_of(2) {
                "="
            } else {
                "!="
            };
            sql.push_str(&format!(" where {alias}.name {op} '{name}'"));
        }
        if lcg(&mut state).is_multiple_of(2) {
            let key = cols[(lcg(&mut state) % cols.len() as u64) as usize];
            let dir = if lcg(&mut state).is_multiple_of(2) {
                " desc"
            } else {
                ""
            };
            sql.push_str(&format!(" order by {key}{dir}"));
        }
        if lcg(&mut state).is_multiple_of(2) {
            sql.push_str(&format!(" limit {}", lcg(&mut state) % 5));
        }

        let actual = explain_analyze_rows(&session, &sql);
        let calls = 1 + lcg(&mut state) % 3;
        for _ in 0..calls {
            assert_eq!(session.query(&sql).unwrap().rows().len() as u64, actual);
        }

        let fp = fingerprint(&sql);
        let stats = statements_snapshot()
            .into_iter()
            .find(|s| s.fingerprint == fp)
            .unwrap_or_else(|| panic!("no sys.statements entry for: {sql}"));
        assert_eq!(stats.calls, calls, "calls differ for: {sql}");
        assert_eq!(stats.errors, 0);
        assert_eq!(
            stats.rows,
            calls * actual,
            "cumulative rows_returned != calls x EXPLAIN ANALYZE actuals for: {sql}"
        );
        assert!(stats.total_ns >= stats.min_ns);
        assert!(stats.max_ns <= stats.total_ns);
    }
}

/// `(rows, columns, indexes, heap_bytes, index_bytes)` of one base table.
fn memory_row(session: &Session, table: &str) -> [i64; 5] {
    let answer = session
        .query(&format!(
            "select T.rows, T.columns, T.indexes, T.heap_bytes, T.index_bytes \
             from sys.tables as T where T.name = '{table}'"
        ))
        .unwrap();
    let row = answer.rows().first().expect("table listed");
    std::array::from_fn(|i| cell_int(row, i))
}

#[test]
fn sys_tables_says_where_the_memory_is() {
    // The column heap's layout constants (docs/observability.md): an
    // integer cell and a string cell (a dictionary code) in the narrowest
    // lanes that have held every value of the column — one byte below 128
    // and for the first 256 strings —, one dictionary entry (a string in
    // the vector, a hash → code map entry, the control byte; a string of
    // up to 22 bytes is inline in the vector's `Str`, a longer one's text
    // is shared and not counted), one word of live bits per 64 slots, and one free-list
    // entry per dead slot.
    const INT: i64 = 1;
    const CODE: i64 = 1;
    const DICT_ENTRY: i64 = 24 + 8 + 1;
    const FREE_SLOT: i64 = 4;
    let live_bits = |slots: i64| (slots + 63) / 64 * 8;
    // The sizes below are those of the `Eager` layout, where a new world
    // copies its suffix parent's rows.
    let mut session = session_under(DefaultPolicy::Eager, 30);
    session.add_user("Alice").unwrap();

    // An index (docs/observability.md) holds the slots of each group's
    // run, taken or free, and one directory entry (hash, group, control
    // byte) per group. A run starts at four home slots.
    const RUN_SLOT: i64 = 8;
    const GROUP: i64 = 8 + 48 + 1;
    const FIRST_RUN: i64 = 4;

    // R* (tid, sid, species): a primary key and `by_tuple` over (sid,
    // species), grouped by sid; 30 distinct sids and 3 species, so 30
    // groups of one entry each.
    let [rows, cols, indexes, heap, index] = memory_row(&session, "Sightings__star");
    assert_eq!((rows, cols, indexes), (30, 3, 1));
    assert_eq!(
        heap,
        rows * (INT + 2 * CODE) + (30 + 3) * DICT_ENTRY + live_bits(rows)
    );
    assert_eq!(index, 30 * (FIRST_RUN * RUN_SLOT + GROUP));

    // V (wid, tid, key, s, e): 5 bytes of cells per row at this size (8
    // at the paper's), 30 keys, one sign and one flag so far; one index,
    // grouped by world.
    let [rows, cols, indexes, heap, index] = memory_row(&session, "V__Sightings");
    assert_eq!((rows, cols, indexes), (30, 5, 1));
    assert_eq!(
        heap,
        rows * (2 * INT + 3 * CODE) + (30 + 1 + 1) * DICT_ENTRY + live_bits(rows)
    );
    // `by_wid_key`: one group per world — the root is the only one so far.
    // A run doubles its home slots when seven of eight are taken, and a
    // few more slots follow the last home while entries are pushed past
    // it.
    let homes = |entries: i64| {
        let fits = |homes: &i64| entries * 8 <= homes * 7;
        (2..).map(|n| 1i64 << n).find(fits).unwrap()
    };
    let slots_past_homes = |index: i64, groups: i64, homes: i64| {
        let slots = (index - groups * GROUP) / RUN_SLOT;
        assert_eq!(slots * RUN_SLOT + groups * GROUP, index);
        assert!(
            (0..8).contains(&(slots - homes)),
            "{slots} slots, {homes} homes"
        );
        slots - homes
    };
    assert_eq!(homes(rows), 64);
    let spilled = slots_past_homes(index, 1, homes(rows));
    // The same index lists the world for the first column alone.
    let v = session.bdms().storage().table("V__Sightings").unwrap();
    let world = [Value::int(0)];
    let world = v.index_lookup("by_wid_key", &world).unwrap().count();
    assert_eq!(world as i64, rows);

    // A delete drops the index entries; the slot stays, now on the free
    // list, and so does the key's dictionary entry.
    session
        .execute("delete from Sightings where sid = 's0'")
        .unwrap();
    let [rows2, _, _, heap2, index2] = memory_row(&session, "V__Sightings");
    assert_eq!(rows2, rows - 1);
    assert_eq!(heap2, heap + FREE_SLOT);
    assert!(
        slots_past_homes(index2, 1, homes(rows)) <= spilled,
        "a run is not rebuilt by a delete"
    );

    // A belief world copies the root's rows: more of both.
    session
        .execute("insert into BELIEF 'Alice' Sightings values ('s1','owl')")
        .unwrap();
    let [rows3, _, _, heap3, index3] = memory_row(&session, "V__Sightings");
    assert!(rows3 > rows2 && heap3 > heap2);
    // Alice's world is the root's run cloned slot for slot, with her owl
    // in the place of the root's `s1`.
    assert_eq!(rows3, 2 * rows2);
    slots_past_homes(index3, 2, 2 * homes(rows2));
}

#[test]
fn dml_on_system_tables_is_rejected_cleanly() {
    let mut session = session_with_rows(1);
    for sql in [
        "insert into sys.metrics values ('x', 1)",
        "delete from sys.statements",
        "update sys.tables set name = 'y'",
        "insert into sys.statements values ('a','b',1,2,3,4,5,6,7,8,9,10,11)",
    ] {
        let err = session.execute(sql).unwrap_err().to_string();
        assert!(
            err.contains("read-only"),
            "DML `{sql}` must fail with the read-only error, got: {err}"
        );
    }
    // The base catalog refuses the namespace too: no user table can
    // shadow a system relation.
    let mut db = Database::new();
    let err = db
        .create_table(TableSchema::keyless("sys.mine", &["a"]))
        .unwrap_err();
    assert!(matches!(err, StorageError::ReservedName(_)));
}

fn temp_dir(tag: &str) -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    std::env::temp_dir().join(format!(
        "beliefdb-systables-{tag}-{}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ))
}

#[test]
fn durable_sessions_register_but_never_persist_the_catalog() {
    let dir = temp_dir("durable");
    {
        let mut session = Session::create(&dir, schema()).unwrap();
        session
            .execute("insert into Sightings values ('d1','heron')")
            .unwrap();
        // The catalog is live in a durable session...
        assert_eq!(
            session.query("select * from sys.wal").unwrap().rows().len(),
            1,
            "durable session must expose one sys.wal row"
        );
        // ...but is not itself a WAL or snapshot target: checkpointing
        // succeeds and persists only base tables.
        session.checkpoint().unwrap();
        let err = session
            .execute("insert into sys.wal values (1,2,3,4,5,6,7,8)")
            .unwrap_err()
            .to_string();
        assert!(err.contains("read-only"));
    }
    {
        // Recovery re-registers the catalog over the recovered store;
        // nothing sys-prefixed came back from disk as a base table.
        let session = Session::open(&dir).unwrap();
        let listed = session.query("select * from sys.tables").unwrap();
        assert!(
            listed
                .rows()
                .iter()
                .all(|r| !cell_str(r, 0).starts_with("sys.")),
            "a sys.* relation was persisted as a base table"
        );
        let wal = session.query("select * from sys.wal").unwrap();
        assert_eq!(wal.rows().len(), 1);
        let n = session
            .query("select S.sid from Sightings as S")
            .unwrap()
            .rows()
            .len();
        assert_eq!(n, 1, "base data must survive the round trip");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// `sys.wal` reports the size of the newest snapshot and what the last
/// checkpoint cost: both are set once this session has checkpointed, and
/// they are the values `Bdms::wal_stats` returns.
#[test]
fn sys_wal_reports_snapshot_bytes_and_checkpoint_time() {
    let dir = temp_dir("wal-cost");
    let mut session = Session::create(&dir, schema()).unwrap();
    session.add_user("Alice").unwrap();
    session
        .execute("insert into BELIEF 'Alice' Sightings values ('w1','wren')")
        .unwrap();
    session.checkpoint().unwrap();
    let result = session
        .query("select W.snapshot_bytes, W.checkpoint_us from sys.wal as W")
        .unwrap();
    let row = &result.rows()[0];
    let (bytes, us) = (cell_int(row, 0), cell_int(row, 1));
    assert!(
        bytes > 0 && us > 0,
        "snapshot_bytes {bytes}, checkpoint_us {us}"
    );
    let stats = session.bdms().wal_stats().unwrap();
    assert_eq!(bytes as u64, stats.snapshot_bytes);
    assert_eq!(us as u64, stats.checkpoint_us);
    drop(session);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn magic_rewrite_refuses_system_relations() {
    use beliefdb::storage::opt::magic::rewrite_checked;
    let read_sys = Program {
        rules: vec![Rule {
            head: Atom::new("Out", vec![Term::var("x")]),
            body: vec![BodyLit::Pos(Atom::new(
                "sys.metrics",
                vec![Term::var("x"), Term::Any],
            ))],
        }],
    };
    let err = rewrite_checked(&read_sys).unwrap_err();
    assert!(matches!(err, StorageError::ReservedName(_)));
    assert!(err.to_string().contains("sys.metrics"));

    let derive_into_sys = Program {
        rules: vec![Rule {
            head: Atom::new("sys.out", vec![Term::var("x")]),
            body: vec![BodyLit::Pos(Atom::new("E", vec![Term::var("x")]))],
        }],
    };
    assert!(rewrite_checked(&derive_into_sys).is_err());
}
