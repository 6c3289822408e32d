//! Access-path agreement: for every set of pinned columns of a selection
//! over a scan, and every column set of a join and an anti-join, over a
//! table with a primary key and several secondary indexes (two of them
//! sharing a first column, two over the same columns in different orders),
//!
//! * `EXPLAIN` names the path the executor really takes, read from the
//!   table's `seq_scans` / `index_probes` / `key_probes` counters: a key
//!   lookup counts one probe and one key probe per probing row and no
//!   scan, an index probe one probe per probing row and no key probe or
//!   scan, a scan or a hash build one scan and no probe;
//! * the path is the one the access-path rule below picks, tie-break
//!   included;
//! * the rows equal the reference executor's, which scans and hash-joins.

use beliefdb::storage::opt::render_with_snapshot;
use beliefdb::storage::{
    execute, execute_materialized, row, Database, Expr, Plan, Row, TableSchema, Value,
};
use std::sync::atomic::Ordering;

const COLUMNS: [&str; 5] = ["k", "a", "b", "c", "d"];

/// The secondary indexes of `T`, in creation order.
const INDEXES: [(&str, &[usize]); 5] = [
    ("i_ab", &[1, 2]),
    ("i_ac", &[1, 3]),
    ("i_b", &[2]),
    ("i_cd", &[3, 4]),
    ("i_dc", &[4, 3]),
];

fn db() -> Database {
    let mut db = Database::new();
    let t = db
        .create_table(TableSchema::with_key("T", &COLUMNS))
        .unwrap();
    for (name, cols) in INDEXES {
        let names: Vec<&str> = cols.iter().map(|&c| COLUMNS[c]).collect();
        t.create_index(name, &names).unwrap();
    }
    for k in 0..240i64 {
        t.insert(row![k, k % 3, k % 4, k % 5, format!("d{}", k % 2).as_str()])
            .unwrap();
    }
    db
}

/// The value row `k` of `T` holds in column `c`.
fn cell(k: i64, c: usize) -> Value {
    match c {
        0 => Value::int(k),
        1 => Value::int(k % 3),
        2 => Value::int(k % 4),
        3 => Value::int(k % 5),
        _ => Value::str(format!("d{}", k % 2)),
    }
}

#[derive(Clone, Copy, PartialEq)]
enum Read {
    Select,
    Join,
    AntiJoin,
}

/// The rule every read follows, written out independently of the
/// executor: the primary key when the columns include it; otherwise the
/// widest index shape inside the columns — an index's columns or its
/// first column alone — a whole index beating a first-column probe of
/// the same width and then the index created first; a join only takes a
/// shape that covers all of its columns.
fn expected(cols: &[usize], read: Read) -> Option<String> {
    if cols.contains(&0) {
        return Some("pk".into());
    }
    let mut best: Option<(usize, bool, &str)> = None;
    for (name, icols) in INDEXES {
        let inside = |shape: &[usize]| shape.iter().all(|c| cols.contains(c));
        let shape = if inside(icols) {
            (icols.len(), true)
        } else if inside(&icols[..1]) {
            (1, icols.len() == 1)
        } else {
            continue;
        };
        if best.is_none_or(|(w, whole, _)| shape > (w, whole)) {
            best = Some((shape.0, shape.1, name));
        }
    }
    let (width, _, name) = best?;
    (read != Read::Join || width == cols.len()).then(|| name.to_string())
}

/// The access note on the root line of `plan`'s `EXPLAIN`: the index
/// name, `pk`, or `None`.
fn explained(db: &Database, plan: &Plan) -> Option<String> {
    let text = render_with_snapshot(db, plan);
    let root = text.lines().next().unwrap();
    let note = ["[access=index:", "[access=", "[probe T."]
        .iter()
        .find_map(|tag| root.split_once(tag))?
        .1;
    Some(note[..note.find(']').unwrap()].to_string())
}

/// Run `plan` and report the path the counters of `T` show: `Some("pk")`
/// for the key, `Some("index")` for an index path, `None` for a scan.
fn executed(db: &Database, plan: &Plan, probing_rows: u64) -> (Vec<Row>, Option<String>) {
    let counters = || {
        let access = db.table("T").unwrap().access();
        let [scans, _, probes, ..] = access.snapshot();
        (scans, probes, access.key_probes.load(Ordering::Relaxed))
    };
    let before = counters();
    let rows = execute(db, plan).unwrap();
    let after = counters();
    let deltas = (after.0 - before.0, after.1 - before.1, after.2 - before.2);
    let path = match deltas {
        (0, probes, keys) if probes == probing_rows && keys == probing_rows => Some("pk"),
        (0, probes, 0) if probes == probing_rows => Some("index"),
        (1, 0, 0) => None,
        deltas => panic!("{plan:?}: unexpected counter deltas {deltas:?}"),
    };
    (rows, path.map(str::to_string))
}

/// Every subset of the columns of `T`, as sorted column lists.
fn column_sets() -> Vec<Vec<usize>> {
    (0u32..1 << COLUMNS.len())
        .map(|mask| {
            (0..COLUMNS.len())
                .filter(|c| mask & (1 << c) != 0)
                .collect()
        })
        .collect()
}

fn check(read: Read, cols: &[usize], explain: Option<String>, ran: Option<String>) {
    let want = expected(cols, read);
    assert_eq!(explain, want, "columns {cols:?}: EXPLAIN against the rule");
    // The key, or which index: the counters tell the key apart.
    let kind = want.map(|path| if path == "pk" { path } else { "index".into() });
    assert_eq!(ran, kind, "columns {cols:?}: the executor against EXPLAIN");
}

#[test]
fn selections_take_the_path_explain_names() {
    let db = db();
    for cols in column_sets() {
        for k in [7i64, 118, 1000] {
            let pins = cols.iter().map(|&c| Expr::col_eq_lit(c, cell(k, c)));
            let plan = Plan::scan("T").select(Expr::and(pins.collect()));
            let (rows, ran) = executed(&db, &plan, 1);
            check(Read::Select, &cols, explained(&db, &plan), ran);
            // Slot order on every path, a first-column probe included.
            assert_eq!(rows, execute_materialized(&db, &plan).unwrap(), "{cols:?}");
        }
    }
}

#[test]
fn joins_and_anti_joins_take_the_path_explain_names() {
    let db = db();
    for cols in column_sets().into_iter().filter(|c| !c.is_empty()) {
        // Three rows of `T` and one that matches nothing.
        let mut left: Vec<Row> = [5i64, 42, 131]
            .iter()
            .map(|&k| Row::new(cols.iter().map(|&c| cell(k, c))))
            .collect();
        left.push(Row::new(cols.iter().map(|_| Value::int(-1))));
        let n = left.len() as u64;
        let values = Plan::Values {
            arity: cols.len(),
            rows: left,
        };
        let on: Vec<(usize, usize)> = cols.iter().copied().enumerate().collect();
        let join = values.clone().join(Plan::scan("T"), on.clone());
        let anti = values.anti_join(Plan::scan("T"), on);
        for (read, plan) in [(Read::Join, join), (Read::AntiJoin, anti)] {
            let (rows, ran) = executed(&db, &plan, n);
            check(read, &cols, explained(&db, &plan), ran);
            let mut want = execute_materialized(&db, &plan).unwrap();
            let mut got = rows;
            want.sort();
            got.sort();
            assert_eq!(got, want, "{cols:?}");
            let matched = if read == Read::Join { 3 } else { 1 };
            assert!(got.len() >= matched, "{cols:?}: the probes find rows");
        }
    }
}

/// A selection pinning seven columns whose only index is on the seventh
/// probes that index; no cap on the pinned columns hides it.
#[test]
fn a_seventh_pinned_column_still_finds_its_index() {
    let mut db = Database::new();
    let names = ["c0", "c1", "c2", "c3", "c4", "c5", "c6", "c7"];
    let w = db.create_table(TableSchema::keyless("T", &names)).unwrap();
    w.create_index("by_c6", &["c6"]).unwrap();
    for i in 0..64i64 {
        w.insert(Row::new((0..8).map(|c| Value::int((i + c) % 4))))
            .unwrap();
    }
    let pins = (0..7).map(|c| Expr::col_eq_lit(c as usize, (1 + c) % 4));
    let plan = Plan::scan("T").select(Expr::and(pins.collect()));
    assert_eq!(explained(&db, &plan).as_deref(), Some("by_c6"));
    let (rows, ran) = executed(&db, &plan, 1);
    assert_eq!(ran.as_deref(), Some("index"));
    assert_eq!(rows.len(), 16);
    assert_eq!(rows, execute_materialized(&db, &plan).unwrap());
}

/// An index join probes for every left row, however many there are: a
/// join of the 240-row `T(k, b)` on its index over `b` from 10, 70, 240
/// and 1,000 `Values` rows probes `i_b` once per left row and never scans
/// `T`, as `EXPLAIN` says.
#[test]
fn an_index_join_probes_for_every_left_row() {
    let mut db = Database::new();
    let t = db
        .create_table(TableSchema::with_key("T", &["k", "b"]))
        .unwrap();
    t.create_index("i_b", &["b"]).unwrap();
    for k in 0..240i64 {
        t.insert(row![k, k % 60]).unwrap();
    }
    for left in [10i64, 70, 240, 1000] {
        let values = Plan::Values {
            arity: 1,
            rows: (0..left).map(|b| row![b]).collect(),
        };
        let plan = values.join(Plan::scan("T"), vec![(0, 1)]);
        assert_eq!(
            explained(&db, &plan).as_deref(),
            Some("i_b"),
            "{left} left rows"
        );
        let (rows, ran) = executed(&db, &plan, left as u64);
        assert_eq!(ran.as_deref(), Some("index"), "{left} left rows");
        let mut expect = execute_materialized(&db, &plan).unwrap();
        let mut got = rows;
        expect.sort();
        got.sort();
        assert_eq!(got, expect, "{left} left rows");
        assert_eq!(got.len(), 4 * left.min(60) as usize);
    }
}
