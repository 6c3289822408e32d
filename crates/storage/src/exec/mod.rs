//! Plan execution: one production executor and one executable
//! specification it is differentially tested against.
//!
//! * The **vectorized streaming executor** ([`stream`](mod@stream),
//!   [`stream_chunks`], [`Executor`], [`Chunk`], [`ChunkStream`]) runs
//!   every query. Operators exchange batches of up to [`BATCH_SIZE`]
//!   rows with selection vectors; leaf scans emit **columnar windows**
//!   over the table's typed column vectors ([`crate::column`]) without
//!   cloning a row, filters run kernel passes over primitive column
//!   slices into the selection vector, projections precompile their
//!   column maps and gather straight from columns, and hash joins probe
//!   a whole chunk per call. Scan, Selection, Projection, Union, Limit,
//!   and the probe side of (anti-)joins pipeline; the **materialization
//!   points** are the hash build sides of keyed joins and anti-joins,
//!   cross-join right sides, Aggregate, Sort, and Distinct's seen-set
//!   (Distinct streams first occurrences but still accumulates every
//!   distinct row). Each of those points can spill to disk under a
//!   per-query memory budget — grace hash (anti-)join, external merge
//!   sort, partial-aggregate and distinct partitioning, cross-join and
//!   residual-only anti-join right-side overflow runs; see [`spill`].
//!   [`RowStream`] adapts the chunk pipeline to a row-at-a-time
//!   iterator for external sinks, and [`execute`] collects it into a
//!   `Vec<Row>`.
//! * The **materializing executor** ([`execute_materialized`]) is the
//!   original operator-at-a-time evaluator: every operator's full output
//!   is built before its parent runs. It is the reference side of the
//!   differential suites, not a production path.
//!
//! Both apply the same access-path optimization, mirroring what the
//! paper gets from SQL Server's "clustered indexes over the internal
//! keys": a `Selection` directly over a `Scan` uses the table's primary
//! key or a covering secondary index when the predicate pins those
//! columns with equality conjuncts, and small join inputs probe indexes
//! on a base-table right side instead of materializing it.

pub mod rows;
pub mod spill;
pub mod stream;

pub use rows::RowStream;
pub use spill::{spill_points, SpillOptions, SPILL_PARTITIONS};
use stream::base_access;
pub(crate) use stream::{chunked_owned, selection_kernel_label};
pub use stream::{stream, stream_chunks, Chunk, ChunkStream, Executor, BATCH_SIZE};

use crate::catalog::Database;
use crate::error::{Result, StorageError};
use crate::expr::{CmpOp, Expr};
use crate::plan::{Agg, Plan};
use crate::row::Row;
use crate::table::Table;
use crate::value::Value;
use std::collections::HashMap;

/// Execute a plan against a database, returning materialized rows.
///
/// This is a thin wrapper collecting the vectorized executor's chunks;
/// use [`stream_chunks`] (or [`stream()`] for a row-at-a-time view) to
/// consume results without building the vector.
pub fn execute(db: &Database, plan: &Plan) -> Result<Vec<Row>> {
    stream::stream_chunks(db, plan)?.collect_rows()
}

/// Run the plan through the cost-based optimizer (see [`crate::opt`]),
/// then execute it. Semantics are identical to [`execute`]; only the
/// evaluation order (and therefore the running time) changes.
pub fn execute_optimized(db: &Database, plan: &Plan) -> Result<Vec<Row>> {
    let optimized = crate::opt::optimize(db, plan.clone())?;
    let rows = stream::stream_chunks(db, &optimized)?.collect_rows();
    rows
}

/// Execute with the original operator-at-a-time evaluator, which
/// materializes every operator's full output. Kept as the executable
/// specification the streaming executor is differentially tested against.
pub fn execute_materialized(db: &Database, plan: &Plan) -> Result<Vec<Row>> {
    // Validate arities once at the root; recursion below assumes shapes are
    // consistent.
    plan.arity(db)?;
    run(db, plan)
}

fn run(db: &Database, plan: &Plan) -> Result<Vec<Row>> {
    match plan {
        Plan::Scan { table } => match db.table(table) {
            Ok(t) => Ok(t.scan()),
            // Virtual (`sys.*`) relation: snapshot the provider's rows.
            Err(e) => db.virtual_table(table).map(|vt| vt.rows(db)).ok_or(e),
        },
        Plan::Selection { input, predicate } => {
            if let Plan::Scan { table } = input.as_ref() {
                if let Ok(t) = db.table(table) {
                    if let Some(rows) = try_index_selection(t, predicate)? {
                        return Ok(rows);
                    }
                }
            }
            let rows = run(db, input)?;
            let mut out = Vec::new();
            for r in rows {
                if predicate.eval_bool(&r)? {
                    out.push(r);
                }
            }
            Ok(out)
        }
        Plan::Projection { input, exprs } => {
            let rows = run(db, input)?;
            let mut out = Vec::with_capacity(rows.len());
            for r in rows {
                let mut vals = Vec::with_capacity(exprs.len());
                for e in exprs {
                    vals.push(e.eval(&r)?);
                }
                out.push(Row::new(vals));
            }
            Ok(out)
        }
        Plan::Join {
            left,
            right,
            on,
            residual,
        } => {
            let lrows = run(db, left)?;
            if let Some(out) = try_index_join(db, &lrows, right, on, residual.as_ref())? {
                return Ok(out);
            }
            let rrows = run(db, right)?;
            join_rows(&lrows, &rrows, on, residual.as_ref())
        }
        Plan::AntiJoin {
            left,
            right,
            on,
            residual,
        } => {
            let lrows = run(db, left)?;
            let rrows = run(db, right)?;
            anti_join_rows(lrows, &rrows, on, residual.as_ref())
        }
        Plan::Distinct { input } => {
            let rows = run(db, input)?;
            let mut seen = std::collections::HashSet::with_capacity(rows.len());
            let mut out = Vec::new();
            for r in rows {
                if seen.insert(r.clone()) {
                    out.push(r);
                }
            }
            Ok(out)
        }
        Plan::Union { inputs } => {
            let mut out = Vec::new();
            for p in inputs {
                out.extend(run(db, p)?);
            }
            Ok(out)
        }
        Plan::Aggregate {
            input,
            group_by,
            aggs,
        } => {
            let rows = run(db, input)?;
            aggregate_stream(rows.into_iter().map(Ok), group_by, aggs)
        }
        Plan::Values { rows, .. } => Ok(rows.clone()),
        Plan::Sort { input, by } => {
            let mut rows = run(db, input)?;
            rows.sort_by(|a, b| spill::cmp_by(by, a, b));
            Ok(rows)
        }
        Plan::Limit { input, n } => {
            let mut rows = run(db, input)?;
            rows.truncate(*n);
            Ok(rows)
        }
    }
}

/// Index nested-loop join: when the right side is a base-table access
/// (scan, or selection over a scan) whose join columns are covered by the
/// primary key or a secondary index, and the left side is small relative to
/// the table, probe the index per left row instead of materializing the
/// whole table. This is what turns the Algorithm 1 plans — a one-row world
/// walk joined against the multi-million-row `V` relation — from scans into
/// point lookups, mirroring the paper's "clustered indexes over the
/// internal keys".
fn try_index_join(
    db: &Database,
    lrows: &[Row],
    right: &Plan,
    on: &[(usize, usize)],
    residual: Option<&Expr>,
) -> Result<Option<Vec<Row>>> {
    if on.is_empty() {
        return Ok(None);
    }
    let Some((table_name, pred)) = base_access(right) else {
        return Ok(None);
    };
    let Ok(table) = db.table(table_name) else {
        // Virtual relation (or resolution error): no index to probe; the
        // generic join path will re-resolve and report any real error.
        return Ok(None);
    };
    // Heuristic: probing must beat building a hash table over the base
    // table (which also clones every row).
    if lrows.len().saturating_mul(4) > table.len().max(1) {
        return Ok(None);
    }
    let rcols: Vec<usize> = on.iter().map(|&(_, rc)| rc).collect();

    // Primary-key fast path: joining on exactly the key column.
    let pk_path = table.schema().key_column() == Some(0) && rcols == [0];
    let index = if pk_path {
        None
    } else {
        table.find_index_for(&rcols)
    };
    if !pk_path && index.is_none() {
        return Ok(None);
    }

    let mut out = Vec::new();
    let mut emit = |lrow: &Row, rrow: &Row| -> Result<()> {
        // Re-verify every join pair: with duplicate right columns in `on`
        // the index key only pins one left column per right column.
        for &(lc, rc) in on {
            if lrow[lc] != rrow[rc] {
                return Ok(());
            }
        }
        if let Some(p) = pred {
            if !p.eval_bool(rrow)? {
                return Ok(());
            }
        }
        let joined = lrow.concat(rrow);
        if match residual {
            Some(e) => e.eval_bool(&joined)?,
            None => true,
        } {
            out.push(joined);
        }
        Ok(())
    };
    if pk_path {
        let lc = on[0].0;
        for lrow in lrows {
            if let Some(rrow) = table.get_by_key(&lrow[lc]) {
                emit(lrow, &rrow)?;
            }
        }
    } else {
        let (index_name, order) = index.expect("checked above");
        let index_name = index_name.to_string();
        let order: Vec<usize> = order.to_vec();
        for lrow in lrows {
            let key: Vec<Value> = order
                .iter()
                .map(|rc| {
                    let (lc, _) = on.iter().find(|(_, r)| r == rc).expect("covered");
                    lrow[*lc].clone()
                })
                .collect();
            for rrow in table.index_rows(&index_name, &key)? {
                emit(lrow, &rrow)?;
            }
        }
    }
    Ok(Some(out))
}

/// If `predicate` pins the table's key or an indexed column set with
/// equality conjuncts, fetch candidates through the index and post-filter.
fn try_index_selection(table: &Table, predicate: &Expr) -> Result<Option<Vec<Row>>> {
    let eqs = equality_conjuncts(predicate);
    if eqs.is_empty() {
        return Ok(None);
    }
    // Primary key: a single exact match.
    if let Some(kc) = table.schema().key_column() {
        if let Some((_, v)) = eqs.iter().find(|(c, _)| *c == kc) {
            let mut out = Vec::new();
            if let Some(row) = table.get_by_key(v) {
                if predicate.eval_bool(&row)? {
                    out.push(row);
                }
            }
            return Ok(Some(out));
        }
    }
    // Secondary index whose columns are all pinned: try the widest covering
    // index first so the candidate set coming back is smallest.
    let pinned: Vec<usize> = eqs.iter().map(|(c, _)| *c).collect();
    let candidates: Vec<Vec<usize>> = subsets_in_order(&pinned);
    for cols in candidates {
        if let Some((name, index_order)) = table.find_index_for(&cols) {
            let key: Vec<Value> = index_order
                .iter()
                .map(|c| {
                    eqs.iter()
                        .find(|(ec, _)| ec == c)
                        .map(|(_, v)| v.clone())
                        .expect("pinned column")
                })
                .collect();
            let mut out = Vec::new();
            for row in table.index_rows(name, &key)? {
                if predicate.eval_bool(&row)? {
                    out.push(row);
                }
            }
            return Ok(Some(out));
        }
    }
    Ok(None)
}

/// All non-empty subsets of `cols` (as sorted column lists), widest first.
/// `cols` is small (a handful of equality conjuncts), so the 2^n blowup is
/// irrelevant; we cap it defensively anyway.
fn subsets_in_order(cols: &[usize]) -> Vec<Vec<usize>> {
    let mut cols: Vec<usize> = cols.to_vec();
    cols.sort_unstable();
    cols.dedup();
    let n = cols.len().min(6);
    let mut subsets: Vec<Vec<usize>> = Vec::new();
    for mask in 1u32..(1 << n) {
        let mut s = Vec::new();
        for (i, &c) in cols.iter().take(n).enumerate() {
            if mask & (1 << i) != 0 {
                s.push(c);
            }
        }
        subsets.push(s);
    }
    subsets.sort_by_key(|s| std::cmp::Reverse(s.len()));
    subsets
}

/// Extract `col = literal` conjuncts from the top-level AND structure.
fn equality_conjuncts(e: &Expr) -> Vec<(usize, Value)> {
    let mut out = Vec::new();
    collect_eqs(e, &mut out);
    out
}

/// Which access path [`try_index_selection`] would take for this
/// predicate over this table — used by `EXPLAIN` so the rendered plan
/// reports what the executor will actually do.
pub(crate) fn access_path_note(db: &Database, table: &str, predicate: &Expr) -> Option<String> {
    let table = db.table(table).ok()?;
    let eqs = equality_conjuncts(predicate);
    if eqs.is_empty() {
        return None;
    }
    if let Some(kc) = table.schema().key_column() {
        if eqs.iter().any(|(c, _)| *c == kc) {
            return Some("access=pk".to_string());
        }
    }
    let pinned: Vec<usize> = eqs.iter().map(|(c, _)| *c).collect();
    for cols in subsets_in_order(&pinned) {
        if let Some((name, _)) = table.find_index_for(&cols) {
            return Some(format!("access=index:{name}"));
        }
    }
    None
}

fn collect_eqs(e: &Expr, out: &mut Vec<(usize, Value)>) {
    match e {
        Expr::And(parts) => {
            for p in parts {
                collect_eqs(p, out);
            }
        }
        Expr::Cmp(CmpOp::Eq, a, b) => match (a.as_ref(), b.as_ref()) {
            (Expr::Col(c), Expr::Lit(v)) | (Expr::Lit(v), Expr::Col(c)) => {
                out.push((*c, v.clone()));
            }
            _ => {}
        },
        _ => {}
    }
}

fn join_rows(
    lrows: &[Row],
    rrows: &[Row],
    on: &[(usize, usize)],
    residual: Option<&Expr>,
) -> Result<Vec<Row>> {
    let mut out = Vec::new();
    if on.is_empty() {
        // Nested loop (theta or cross join).
        for l in lrows {
            for r in rrows {
                let joined = l.concat(r);
                if match residual {
                    Some(e) => e.eval_bool(&joined)?,
                    None => true,
                } {
                    out.push(joined);
                }
            }
        }
        return Ok(out);
    }
    // Hash join: build on the smaller side.
    let build_left = lrows.len() <= rrows.len();
    let (build, probe) = if build_left {
        (lrows, rrows)
    } else {
        (rrows, lrows)
    };
    let key_of = |row: &Row, left_side: bool| -> Box<[Value]> {
        on.iter()
            .map(|&(lc, rc)| row[if left_side { lc } else { rc }].clone())
            .collect()
    };
    let mut map: HashMap<Box<[Value]>, Vec<usize>> = HashMap::with_capacity(build.len());
    for (i, row) in build.iter().enumerate() {
        map.entry(key_of(row, build_left)).or_default().push(i);
    }
    for probe_row in probe {
        let key = key_of(probe_row, !build_left);
        if let Some(hits) = map.get(&key) {
            for &i in hits {
                let joined = if build_left {
                    build[i].concat(probe_row)
                } else {
                    probe_row.concat(&build[i])
                };
                if match residual {
                    Some(e) => e.eval_bool(&joined)?,
                    None => true,
                } {
                    out.push(joined);
                }
            }
        }
    }
    Ok(out)
}

fn anti_join_rows(
    lrows: Vec<Row>,
    rrows: &[Row],
    on: &[(usize, usize)],
    residual: Option<&Expr>,
) -> Result<Vec<Row>> {
    if on.is_empty() {
        // A left row survives iff no right row matches the residual.
        let mut out = Vec::new();
        'next: for l in lrows {
            for r in rrows {
                let joined = l.concat(r);
                if match residual {
                    Some(e) => e.eval_bool(&joined)?,
                    None => true,
                } {
                    continue 'next;
                }
            }
            out.push(l);
        }
        return Ok(out);
    }
    let mut map: HashMap<Box<[Value]>, Vec<usize>> = HashMap::with_capacity(rrows.len());
    for (i, row) in rrows.iter().enumerate() {
        let key: Box<[Value]> = on.iter().map(|&(_, rc)| row[rc].clone()).collect();
        map.entry(key).or_default().push(i);
    }
    let mut out = Vec::new();
    'outer: for l in lrows {
        let key: Box<[Value]> = on.iter().map(|&(lc, _)| l[lc].clone()).collect();
        if let Some(hits) = map.get(&key) {
            match residual {
                None => continue 'outer,
                Some(e) => {
                    for &i in hits {
                        let joined = l.concat(&rrows[i]);
                        if e.eval_bool(&joined)? {
                            continue 'outer;
                        }
                    }
                }
            }
        }
        out.push(l);
    }
    Ok(out)
}

/// One aggregate accumulator. Deliberately **mergeable**: counts sum and
/// min/max compose, so the spilling aggregate ([`spill`]) can write
/// partial accumulator rows to disk and combine them later. A `None`
/// min/max means "no row seen yet" and encodes as `Null` in a partial
/// row — sound because `Null` is the bottom of the value order (max
/// ignores it) and a group is only ever created by a real row (min never
/// sees a phantom `None` next to real values).
#[derive(Clone)]
pub(crate) enum Acc {
    Count(i64),
    Max(Option<Value>),
    Min(Option<Value>),
}

/// Fresh accumulators for an aggregate list.
pub(crate) fn fresh_accs(aggs: &[Agg]) -> Vec<Acc> {
    aggs.iter()
        .map(|a| match a {
            Agg::Count => Acc::Count(0),
            Agg::Max(_) => Acc::Max(None),
            Agg::Min(_) => Acc::Min(None),
        })
        .collect()
}

/// Fold one input row into a group's accumulators.
pub(crate) fn update_accs(accs: &mut [Acc], aggs: &[Agg], row: &Row) -> Result<()> {
    for (acc, agg) in accs.iter_mut().zip(aggs) {
        match (acc, agg) {
            (Acc::Count(n), Agg::Count) => *n += 1,
            (Acc::Max(m), Agg::Max(c)) => {
                let v = &row[*c];
                if m.as_ref().is_none_or(|cur| v > cur) {
                    *m = Some(v.clone());
                }
            }
            (Acc::Min(m), Agg::Min(c)) => {
                let v = &row[*c];
                if m.as_ref().is_none_or(|cur| v < cur) {
                    *m = Some(v.clone());
                }
            }
            _ => {
                return Err(StorageError::PlanError(
                    "aggregate accumulator mismatch".into(),
                ))
            }
        }
    }
    Ok(())
}

/// Merge one set of partial accumulators into another (the spilling
/// aggregate's combine step). Counts sum; min/max take the extremum,
/// with `None` acting as the identity.
pub(crate) fn merge_accs(into: &mut [Acc], from: &[Acc]) {
    for (a, b) in into.iter_mut().zip(from) {
        match (a, b) {
            (Acc::Count(x), Acc::Count(y)) => *x += y,
            (Acc::Max(x), Acc::Max(y)) => {
                if let Some(v) = y {
                    if x.as_ref().is_none_or(|cur| v > cur) {
                        *x = Some(v.clone());
                    }
                }
            }
            (Acc::Min(x), Acc::Min(y)) => {
                if let Some(v) = y {
                    if x.as_ref().is_none_or(|cur| v < cur) {
                        *x = Some(v.clone());
                    }
                }
            }
            _ => debug_assert!(false, "merging mismatched accumulators"),
        }
    }
}

/// Hash aggregation over a stream of rows. Shared by both executors: the
/// accumulators consume rows one at a time, so only one row per group is
/// ever held (the aggregate's output, not its input, bounds the memory).
/// The memory-budgeted counterpart is [`spill::grace_aggregate`].
fn aggregate_stream(
    rows: impl Iterator<Item = Result<Row>>,
    group_by: &[usize],
    aggs: &[Agg],
) -> Result<Vec<Row>> {
    let mut groups: HashMap<Box<[Value]>, Vec<Acc>> = HashMap::new();
    // Global aggregation over zero rows must still produce one row.
    if group_by.is_empty() {
        groups.insert(Box::from([]), fresh_accs(aggs));
    }
    for row in rows {
        let row = row?;
        let key: Box<[Value]> = group_by.iter().map(|&c| row[c].clone()).collect();
        let accs = groups.entry(key).or_insert_with(|| fresh_accs(aggs));
        update_accs(accs, aggs, &row)?;
    }
    let mut out = Vec::with_capacity(groups.len());
    for (key, accs) in groups {
        let mut vals: Vec<Value> = key.to_vec();
        for acc in accs {
            vals.push(match acc {
                Acc::Count(n) => Value::Int(n),
                Acc::Max(m) | Acc::Min(m) => m.unwrap_or(Value::Null),
            });
        }
        out.push(Row::new(vals));
    }
    // Deterministic output order.
    out.sort();
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::row;
    use crate::schema::TableSchema;

    fn db() -> Database {
        let mut db = Database::new();
        let users = db
            .create_table(TableSchema::with_key("Users", &["uid", "name"]))
            .unwrap();
        users.insert(row![1, "Alice"]).unwrap();
        users.insert(row![2, "Bob"]).unwrap();
        users.insert(row![3, "Carol"]).unwrap();
        let e = db
            .create_table(TableSchema::keyless("E", &["w1", "u", "w2"]))
            .unwrap();
        e.create_index("by_w1_u", &["w1", "u"]).unwrap();
        e.insert(row![0, 1, 1]).unwrap();
        e.insert(row![0, 2, 2]).unwrap();
        e.insert(row![0, 3, 0]).unwrap();
        e.insert(row![1, 2, 2]).unwrap();
        e.insert(row![1, 3, 0]).unwrap();
        db
    }

    #[test]
    fn scan_and_filter() {
        let db = db();
        let p = Plan::scan("Users").select(Expr::col_eq_lit(1, "Bob"));
        let rows = execute(&db, &p).unwrap();
        assert_eq!(rows, vec![row![2, "Bob"]]);
    }

    #[test]
    fn index_accelerated_selection_matches_scan() {
        let db = db();
        // Pins both columns of the secondary index.
        let p = Plan::scan("E").select(Expr::and(vec![
            Expr::col_eq_lit(0, 0),
            Expr::col_eq_lit(1, 2),
        ]));
        let rows = execute(&db, &p).unwrap();
        assert_eq!(rows, vec![row![0, 2, 2]]);
        // Primary-key path.
        let p = Plan::scan("Users").select(Expr::col_eq_lit(0, 3));
        assert_eq!(execute(&db, &p).unwrap(), vec![row![3, "Carol"]]);
        // Key pinned but row fails the rest of the predicate.
        let p = Plan::scan("Users").select(Expr::and(vec![
            Expr::col_eq_lit(0, 3),
            Expr::col_eq_lit(1, "Bob"),
        ]));
        assert!(execute(&db, &p).unwrap().is_empty());
    }

    #[test]
    fn projection_and_exprs() {
        let db = db();
        let p = Plan::scan("Users").project(vec![Expr::Col(1), Expr::lit("x")]);
        let rows = execute(&db, &p).unwrap();
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0].arity(), 2);
        assert_eq!(rows[0][1], Value::str("x"));
    }

    #[test]
    fn hash_join() {
        let db = db();
        let p = Plan::scan("Users")
            .join(Plan::scan("E"), vec![(0, 1)])
            .project_cols(&[1, 2, 4])
            .sort(vec![0, 1, 2]);
        let rows = execute(&db, &p).unwrap();
        // Each user joins to the E rows with u = uid.
        assert_eq!(
            rows,
            vec![
                row!["Alice", 0, 1],
                row!["Bob", 0, 2],
                row!["Bob", 1, 2],
                row!["Carol", 0, 0],
                row!["Carol", 1, 0],
            ]
        );
    }

    #[test]
    fn theta_join_with_residual() {
        let db = db();
        // Users × Users where left.uid < right.uid
        let p = Plan::scan("Users")
            .join_where(
                Plan::scan("Users"),
                vec![],
                Expr::cmp(CmpOp::Lt, Expr::Col(0), Expr::Col(2)),
            )
            .project_cols(&[1, 3])
            .sort(vec![0, 1]);
        let rows = execute(&db, &p).unwrap();
        assert_eq!(
            rows,
            vec![
                row!["Alice", "Bob"],
                row!["Alice", "Carol"],
                row!["Bob", "Carol"],
            ]
        );
    }

    #[test]
    fn equi_join_with_residual() {
        let db = db();
        // E join E on w2 = w1 of the next hop, keeping only hops ending at 0.
        let p = Plan::scan("E").join_where(Plan::scan("E"), vec![(2, 0)], Expr::col_eq_lit(5, 0));
        let rows = execute(&db, &p).unwrap();
        assert!(rows.iter().all(|r| r[5] == Value::int(0)));
        assert!(!rows.is_empty());
    }

    #[test]
    fn anti_join_filters_matches() {
        let db = db();
        // Users with no outgoing edge from world 1 labelled by their uid:
        // E rows with w1=1 have u ∈ {2,3}, so Alice survives.
        let edges_from_1 = Plan::scan("E").select(Expr::col_eq_lit(0, 1));
        let p = Plan::scan("Users").anti_join(edges_from_1, vec![(0, 1)]);
        let rows = execute(&db, &p).unwrap();
        assert_eq!(rows, vec![row![1, "Alice"]]);
    }

    #[test]
    fn anti_join_with_residual() {
        let db = db();
        // Keep users for whom there is no edge (any w1) with w2 > 1.
        let p = Plan::scan("Users").anti_join(
            Plan::AntiJoin {
                left: Box::new(Plan::scan("E")),
                right: Box::new(Plan::Values {
                    arity: 0,
                    rows: vec![],
                }),
                on: vec![],
                residual: None,
            },
            vec![(0, 1)],
        );
        // inner anti-join against empty right = identity on E
        let rows = execute(&db, &p).unwrap();
        // Alice has edge (0,1,1): w2 = 1; Bob has w2 = 2; Carol w2 = 0.
        // Anti-join on uid = u removes every user that appears in E.u.
        assert!(rows.is_empty());
    }

    #[test]
    fn distinct_and_union() {
        let db = db();
        let p = Plan::Union {
            inputs: vec![Plan::scan("Users"), Plan::scan("Users")],
        };
        assert_eq!(execute(&db, &p).unwrap().len(), 6);
        let p = p.distinct();
        assert_eq!(execute(&db, &p).unwrap().len(), 3);
    }

    #[test]
    fn aggregate_count_and_max() {
        let db = db();
        let p = Plan::Aggregate {
            input: Box::new(Plan::scan("E")),
            group_by: vec![0],
            aggs: vec![Agg::Count, Agg::Max(2)],
        };
        let rows = execute(&db, &p).unwrap();
        assert_eq!(rows, vec![row![0, 3, 2], row![1, 2, 2]]);
    }

    #[test]
    fn global_aggregate_on_empty_input() {
        let db = db();
        let p = Plan::Aggregate {
            input: Box::new(Plan::Values {
                arity: 2,
                rows: vec![],
            }),
            group_by: vec![],
            aggs: vec![Agg::Count, Agg::Max(0)],
        };
        let rows = execute(&db, &p).unwrap();
        assert_eq!(rows, vec![row![0, Value::Null]]);
    }

    #[test]
    fn min_aggregate() {
        let db = db();
        let p = Plan::Aggregate {
            input: Box::new(Plan::scan("E")),
            group_by: vec![],
            aggs: vec![Agg::Min(2)],
        };
        assert_eq!(execute(&db, &p).unwrap(), vec![row![0]]);
    }

    #[test]
    fn sort_limit_values_unit() {
        let db = db();
        let p = Plan::scan("Users")
            .sort(vec![1])
            .limit(2)
            .project_cols(&[1]);
        assert_eq!(execute(&db, &p).unwrap(), vec![row!["Alice"], row!["Bob"]]);
        assert_eq!(execute(&db, &Plan::unit()).unwrap().len(), 1);
    }

    #[test]
    fn empty_join_sides() {
        let db = db();
        let empty = Plan::Values {
            arity: 2,
            rows: vec![],
        };
        let p = Plan::scan("Users").join(empty.clone(), vec![(0, 0)]);
        assert!(execute(&db, &p).unwrap().is_empty());
        let p = empty.join(Plan::scan("Users"), vec![(0, 0)]);
        assert!(execute(&db, &p).unwrap().is_empty());
    }
}

#[cfg(test)]
mod index_join_tests {
    use super::*;
    use crate::row;
    use crate::schema::TableSchema;

    /// A database large enough that the index-join heuristic fires.
    fn big_db() -> Database {
        let mut db = Database::new();
        let v = db
            .create_table(TableSchema::keyless("V", &["wid", "tid", "s"]))
            .unwrap();
        v.create_index("by_wid", &["wid"]).unwrap();
        for i in 0..500i64 {
            v.insert(row![i % 20, i, if i % 3 == 0 { "+" } else { "-" }])
                .unwrap();
        }
        let r = db
            .create_table(TableSchema::with_key("R", &["tid", "val"]))
            .unwrap();
        for i in 0..500i64 {
            r.insert(row![i, format!("v{i}").as_str()]).unwrap();
        }
        let probe = db
            .create_table(TableSchema::keyless("Probe", &["w"]))
            .unwrap();
        probe.insert(row![3]).unwrap();
        probe.insert(row![7]).unwrap();
        db
    }

    /// The same join evaluated with and without the index path must agree.
    fn assert_same_as_hash_join(db: &Database, plan: &Plan) {
        let via_exec = execute(db, plan).unwrap();
        // Force the generic path by evaluating both sides and joining
        // manually.
        if let Plan::Join {
            left,
            right,
            on,
            residual,
        } = plan
        {
            let l = execute(db, left).unwrap();
            let r = execute(db, right).unwrap();
            let mut generic = join_rows(&l, &r, on, residual.as_ref()).unwrap();
            let mut indexed = via_exec;
            generic.sort();
            indexed.sort();
            assert_eq!(indexed, generic);
        } else {
            panic!("test plan must be a join");
        }
    }

    #[test]
    fn secondary_index_join_matches_hash_join() {
        let db = big_db();
        let plan = Plan::scan("Probe").join(Plan::scan("V"), vec![(0, 0)]);
        assert_same_as_hash_join(&db, &plan);
        let rows = execute(&db, &plan).unwrap();
        assert_eq!(rows.len(), 50, "25 V rows per probed wid");
    }

    #[test]
    fn pk_index_join_matches_hash_join() {
        let db = big_db();
        // V ⋈ R on tid = R.key — but V is large (left side), so shrink it
        // first to trigger the heuristic.
        let small_v = Plan::scan("V").select(Expr::col_eq_lit(0, 3i64));
        let plan = small_v.join(Plan::scan("R"), vec![(1, 0)]);
        assert_same_as_hash_join(&db, &plan);
        let rows = execute(&db, &plan).unwrap();
        assert_eq!(rows.len(), 25);
        assert_eq!(rows[0].arity(), 5);
    }

    #[test]
    fn index_join_through_selection() {
        let db = big_db();
        // Right side is Selection over Scan: predicate must still apply.
        let positives = Plan::scan("V").select(Expr::col_eq_lit(2, "+"));
        let plan = Plan::scan("Probe").join(positives, vec![(0, 0)]);
        assert_same_as_hash_join(&db, &plan);
        let rows = execute(&db, &plan).unwrap();
        assert!(rows.iter().all(|r| r[3] == Value::str("+")));
        assert!(!rows.is_empty());
    }

    #[test]
    fn index_join_with_residual() {
        let db = big_db();
        let plan = Plan::scan("Probe").join_where(
            Plan::scan("V"),
            vec![(0, 0)],
            Expr::cmp(CmpOp::Gt, Expr::Col(2), Expr::lit(100i64)),
        );
        assert_same_as_hash_join(&db, &plan);
        let rows = execute(&db, &plan).unwrap();
        assert!(rows.iter().all(|r| r[2].as_int().unwrap() > 100));
    }

    #[test]
    fn duplicate_right_columns_are_reverified() {
        let mut db = big_db();
        // Probe2(w, w2): join on V.wid twice — (0,0) and (1,0). The index
        // key only pins one; the pair check must reject mismatches.
        let p2 = db
            .create_table(TableSchema::keyless("Probe2", &["a", "b"]))
            .unwrap();
        p2.insert(row![3, 3]).unwrap(); // matches
        p2.insert(row![3, 7]).unwrap(); // must NOT match
        let plan = Plan::scan("Probe2").join(Plan::scan("V"), vec![(0, 0), (1, 0)]);
        assert_same_as_hash_join(&db, &plan);
        let rows = execute(&db, &plan).unwrap();
        assert!(rows.iter().all(|r| r[0] == r[1]));
        assert_eq!(rows.len(), 25);
    }

    #[test]
    fn heuristic_declines_large_left_sides() {
        let db = big_db();
        // Left side as big as the table: try_index_join must decline (and
        // the hash join still gives the right answer).
        let plan = Plan::scan("V").join(Plan::scan("V"), vec![(1, 1)]);
        let rows = execute(&db, &plan).unwrap();
        assert_eq!(rows.len(), 500);
    }

    #[test]
    fn no_index_falls_back_to_hash_join() {
        let db = big_db();
        // Join on V.s — no index covers it.
        let plan = Plan::scan("Probe").join(Plan::scan("V"), vec![(0, 1)]);
        let rows = execute(&db, &plan).unwrap();
        // Probe values 3 and 7 match V.tid 3 and 7 exactly once each.
        assert_eq!(rows.len(), 2);
    }
}
