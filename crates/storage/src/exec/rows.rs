//! The row-at-a-time (tuple-at-a-time) streaming executor.
//!
//! This is the PR 2 pull-based pipeline, kept intact after the executor
//! went chunk-at-a-time ([`super::stream`]): one dynamic-dispatch
//! `next()` call per row, one `Expr` interpretation per predicate per
//! row. It remains for two reasons:
//!
//! * it is the **baseline** the `exec_vectorized` bench measures the
//!   vectorized executor against (the speedup claim is relative to this
//!   code, not to the materializing evaluator);
//! * it is a third voice in the differential suites: chunked,
//!   row-at-a-time, and materializing execution must agree on every
//!   fuzzed plan and BCQ.
//!
//! Operator classification is identical to the chunked executor: Scan,
//! Selection, Projection, Union, Limit, Distinct, and the probe side of
//! (anti-)joins pipeline; hash-join build sides, Aggregate, and Sort
//! materialize. The index-nested-loop path buffers left rows up to the
//! `|table|/4` break-even budget and falls back to a hash build past it.

use super::stream::RowStream;
use super::{aggregate_stream, try_index_selection};
use crate::catalog::Database;
use crate::error::Result;
use crate::expr::Expr;
use crate::plan::Plan;
use crate::row::Row;
use crate::table::Table;
use crate::value::Value;
use std::collections::{HashMap, HashSet};

/// A boxed iterator of fallible rows — the wire between operators.
type BoxRowIter<'a> = Box<dyn Iterator<Item = Result<Row>> + 'a>;

/// Entry point of the row-at-a-time executor.
pub struct RowExecutor<'a> {
    db: &'a Database,
}

impl<'a> RowExecutor<'a> {
    pub fn new(db: &'a Database) -> Self {
        RowExecutor { db }
    }

    /// Open a plan as a row stream. Arities are validated once up front;
    /// materialization points (aggregate/sort inputs, join build sides)
    /// do their buffering eagerly here, pipelined operators do no work
    /// until the stream is pulled.
    pub fn open(&self, plan: &'a Plan) -> Result<RowStream<'a>> {
        plan.arity(self.db)?;
        Ok(RowStream::new(open_node(self.db, plan)?))
    }
}

/// Open `plan` against `db` as a tuple-at-a-time [`RowStream`].
pub fn stream_rows<'a>(db: &'a Database, plan: &'a Plan) -> Result<RowStream<'a>> {
    RowExecutor::new(db).open(plan)
}

fn collect(iter: BoxRowIter<'_>) -> Result<Vec<Row>> {
    iter.collect()
}

fn open_node<'a>(db: &'a Database, plan: &'a Plan) -> Result<BoxRowIter<'a>> {
    match plan {
        Plan::Scan { table } => match db.table(table) {
            Ok(t) => Ok(Box::new(t.iter().map(|(_, r)| Ok(r)))),
            // Virtual (`sys.*`) relation: snapshot the provider's rows.
            Err(e) => match db.virtual_table(table) {
                Some(vt) => Ok(Box::new(vt.rows(db).into_iter().map(Ok))),
                None => Err(e),
            },
        },
        Plan::Values { rows, .. } => Ok(Box::new(rows.iter().map(|r| Ok(r.clone())))),
        Plan::Selection { input, predicate } => {
            // Index access path: a selection directly over a scan whose
            // predicate pins indexed columns fetches candidates through
            // the index (a small, already-filtered set).
            if let Plan::Scan { table } = input.as_ref() {
                if let Ok(t) = db.table(table) {
                    if let Some(rows) = try_index_selection(t, predicate)? {
                        return Ok(Box::new(rows.into_iter().map(Ok)));
                    }
                }
            }
            let input = open_node(db, input)?;
            Ok(Box::new(input.filter_map(move |item| match item {
                Ok(row) => match predicate.eval_bool(&row) {
                    Ok(true) => Some(Ok(row)),
                    Ok(false) => None,
                    Err(e) => Some(Err(e)),
                },
                Err(e) => Some(Err(e)),
            })))
        }
        Plan::Projection { input, exprs } => {
            let input = open_node(db, input)?;
            Ok(Box::new(input.map(move |item| {
                let row = item?;
                let mut vals = Vec::with_capacity(exprs.len());
                for e in exprs {
                    vals.push(e.eval(&row)?);
                }
                Ok(Row::new(vals))
            })))
        }
        Plan::Join {
            left,
            right,
            on,
            residual,
        } => open_join(db, left, right, on, residual.as_ref()),
        Plan::AntiJoin {
            left,
            right,
            on,
            residual,
        } => open_anti_join(db, left, right, on, residual.as_ref()),
        Plan::Distinct { input } => {
            let input = open_node(db, input)?;
            let mut seen: HashSet<Row> = HashSet::new();
            Ok(Box::new(input.filter_map(move |item| match item {
                Ok(row) => seen.insert(row.clone()).then_some(Ok(row)),
                Err(e) => Some(Err(e)),
            })))
        }
        Plan::Union { inputs } => {
            let mut streams = Vec::with_capacity(inputs.len());
            for p in inputs {
                streams.push(open_node(db, p)?);
            }
            Ok(Box::new(streams.into_iter().flatten()))
        }
        Plan::Aggregate {
            input,
            group_by,
            aggs,
        } => {
            // Materialization point: the accumulators must see every input
            // row, but only one row per group is ever held.
            let input = open_node(db, input)?;
            let rows = aggregate_stream(input, group_by, aggs)?;
            Ok(Box::new(rows.into_iter().map(Ok)))
        }
        Plan::Sort { input, by } => {
            // Materialization point.
            let mut rows = collect(open_node(db, input)?)?;
            rows.sort_by(|a, b| super::spill::cmp_by(by, a, b));
            Ok(Box::new(rows.into_iter().map(Ok)))
        }
        Plan::Limit { input, n } => {
            let input = open_node(db, input)?;
            Ok(Box::new(input.take(*n)))
        }
    }
}

// ---------------------------------------------------------------------------
// Joins
// ---------------------------------------------------------------------------

/// The right side of a join as a base-table access: `(table, selection)`.
pub(super) fn base_access(plan: &Plan) -> Option<(&str, Option<&Expr>)> {
    match plan {
        Plan::Scan { table } => Some((table, None)),
        Plan::Selection { input, predicate } => match input.as_ref() {
            Plan::Scan { table } => Some((table, Some(predicate))),
            _ => None,
        },
        _ => None,
    }
}

fn open_join<'a>(
    db: &'a Database,
    left: &'a Plan,
    right: &'a Plan,
    on: &'a [(usize, usize)],
    residual: Option<&'a Expr>,
) -> Result<BoxRowIter<'a>> {
    if !on.is_empty() {
        // Base tables only: virtual (`sys.*`) relations have no indexes,
        // so they take the generic hash-join path below.
        if let Some((table_name, pred)) = base_access(right).filter(|(n, _)| db.has_table(n)) {
            let table = db.table(table_name)?;
            let rcols: Vec<usize> = on.iter().map(|&(_, rc)| rc).collect();
            let pk_path = table.schema().key_column() == Some(0) && rcols == [0];
            let index = if pk_path {
                None
            } else {
                table
                    .find_index_for(&rcols)
                    .map(|(name, order)| (name.to_string(), order.to_vec()))
            };
            if pk_path || index.is_some() {
                // Adaptive index-nested-loop: buffer left rows up to the
                // break-even point of the materializing heuristic
                // (`4·|left| ≤ |table|`). Exhausting within the budget
                // means probing beats building a hash over the table.
                let budget = table.len().max(1) / 4;
                let mut left_stream = open_node(db, left)?;
                let mut buf: Vec<Row> = Vec::new();
                let mut small_left = true;
                loop {
                    if buf.len() > budget {
                        small_left = false;
                        break;
                    }
                    match left_stream.next() {
                        Some(row) => buf.push(row?),
                        None => break,
                    }
                }
                if small_left {
                    return Ok(Box::new(IndexJoin {
                        table,
                        lrows: buf.into_iter(),
                        on,
                        pred,
                        residual,
                        pk_path,
                        index,
                        current: None,
                        pos: 0,
                    }));
                }
                // Too many left rows: replay the buffer in front of the
                // rest of the stream and hash-join instead.
                let probe: BoxRowIter<'a> = Box::new(buf.into_iter().map(Ok).chain(left_stream));
                return hash_join(db, probe, right, on, residual);
            }
        }
        let probe = open_node(db, left)?;
        return hash_join(db, probe, right, on, residual);
    }
    // Cross/theta join: the right side is materialized once, the left
    // side pipelines through the nested loop.
    let rrows = collect(open_node(db, right)?)?;
    let left = open_node(db, left)?;
    Ok(Box::new(NestedLoopJoin {
        left,
        rrows,
        residual,
        current: None,
        pos: 0,
    }))
}

/// Build a hash table over the right side, then stream the probe rows.
fn hash_join<'a>(
    db: &'a Database,
    probe: BoxRowIter<'a>,
    right: &'a Plan,
    on: &'a [(usize, usize)],
    residual: Option<&'a Expr>,
) -> Result<BoxRowIter<'a>> {
    let mut build: HashMap<Box<[Value]>, Vec<Row>> = HashMap::new();
    for item in open_node(db, right)? {
        let row = item?;
        let key: Box<[Value]> = on.iter().map(|&(_, rc)| row[rc].clone()).collect();
        build.entry(key).or_default().push(row);
    }
    Ok(Box::new(HashJoin {
        probe,
        build,
        on,
        residual,
        current: None,
        pos: 0,
    }))
}

/// Streaming probe over a pre-built hash table. Output rows are
/// `probe ++ build` (the probe side is the join's left input).
struct HashJoin<'a> {
    probe: BoxRowIter<'a>,
    build: HashMap<Box<[Value]>, Vec<Row>>,
    on: &'a [(usize, usize)],
    residual: Option<&'a Expr>,
    current: Option<(Row, Box<[Value]>)>,
    pos: usize,
}

impl Iterator for HashJoin<'_> {
    type Item = Result<Row>;

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            if let Some((lrow, key)) = &self.current {
                let hits = self.build.get(key).expect("current key has matches");
                while self.pos < hits.len() {
                    let rrow = &hits[self.pos];
                    self.pos += 1;
                    let joined = lrow.concat(rrow);
                    match self.residual {
                        None => return Some(Ok(joined)),
                        Some(e) => match e.eval_bool(&joined) {
                            Ok(true) => return Some(Ok(joined)),
                            Ok(false) => {}
                            Err(err) => return Some(Err(err)),
                        },
                    }
                }
                self.current = None;
            }
            match self.probe.next()? {
                Ok(lrow) => {
                    let key: Box<[Value]> =
                        self.on.iter().map(|&(lc, _)| lrow[lc].clone()).collect();
                    if self.build.contains_key(&key) {
                        self.current = Some((lrow, key));
                        self.pos = 0;
                    }
                }
                Err(e) => return Some(Err(e)),
            }
        }
    }
}

/// Index-nested-loop join: bounded buffered left rows probe the right
/// table's primary key or a covering secondary index, emitting matches
/// one at a time.
struct IndexJoin<'a> {
    table: &'a Table,
    lrows: std::vec::IntoIter<Row>,
    on: &'a [(usize, usize)],
    /// Selection predicate of a `Selection`-over-`Scan` right side.
    pred: Option<&'a Expr>,
    residual: Option<&'a Expr>,
    pk_path: bool,
    index: Option<(String, Vec<usize>)>,
    current: Option<(Row, Vec<Row>)>,
    pos: usize,
}

impl IndexJoin<'_> {
    /// Re-verify every join pair (with duplicate right columns in `on` the
    /// index key only pins one left column per right column), apply the
    /// right-side selection and the residual.
    fn try_emit(&self, lrow: &Row, rrow: &Row) -> Result<Option<Row>> {
        for &(lc, rc) in self.on {
            if lrow[lc] != rrow[rc] {
                return Ok(None);
            }
        }
        if let Some(p) = self.pred {
            if !p.eval_bool(rrow)? {
                return Ok(None);
            }
        }
        let joined = lrow.concat(rrow);
        let keep = match self.residual {
            Some(e) => e.eval_bool(&joined)?,
            None => true,
        };
        Ok(keep.then_some(joined))
    }
}

impl Iterator for IndexJoin<'_> {
    type Item = Result<Row>;

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            if let Some((lrow, hits)) = &self.current {
                while self.pos < hits.len() {
                    let rrow = &hits[self.pos];
                    self.pos += 1;
                    match self.try_emit(lrow, rrow) {
                        Ok(Some(joined)) => return Some(Ok(joined)),
                        Ok(None) => {}
                        Err(e) => return Some(Err(e)),
                    }
                }
                self.current = None;
            }
            let lrow = self.lrows.next()?;
            let hits: Vec<Row> = if self.pk_path {
                let lc = self.on[0].0;
                self.table.get_by_key(&lrow[lc]).into_iter().collect()
            } else {
                let (name, order) = self.index.as_ref().expect("index path");
                let key: Vec<Value> = order
                    .iter()
                    .map(|rc| {
                        let (lc, _) = self.on.iter().find(|(_, r)| r == rc).expect("covered");
                        lrow[*lc].clone()
                    })
                    .collect();
                match self.table.index_rows(name, &key) {
                    Ok(rows) => rows,
                    Err(e) => return Some(Err(e)),
                }
            };
            if !hits.is_empty() {
                self.current = Some((lrow, hits));
                self.pos = 0;
            }
        }
    }
}

/// Cross/theta join: materialized right rows, streaming left.
struct NestedLoopJoin<'a> {
    left: BoxRowIter<'a>,
    rrows: Vec<Row>,
    residual: Option<&'a Expr>,
    current: Option<Row>,
    pos: usize,
}

impl Iterator for NestedLoopJoin<'_> {
    type Item = Result<Row>;

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            if let Some(lrow) = &self.current {
                while self.pos < self.rrows.len() {
                    let rrow = &self.rrows[self.pos];
                    self.pos += 1;
                    let joined = lrow.concat(rrow);
                    match self.residual {
                        None => return Some(Ok(joined)),
                        Some(e) => match e.eval_bool(&joined) {
                            Ok(true) => return Some(Ok(joined)),
                            Ok(false) => {}
                            Err(err) => return Some(Err(err)),
                        },
                    }
                }
                self.current = None;
            }
            match self.left.next()? {
                Ok(lrow) => {
                    if !self.rrows.is_empty() {
                        self.current = Some(lrow);
                        self.pos = 0;
                    }
                }
                Err(e) => return Some(Err(e)),
            }
        }
    }
}

fn open_anti_join<'a>(
    db: &'a Database,
    left: &'a Plan,
    right: &'a Plan,
    on: &'a [(usize, usize)],
    residual: Option<&'a Expr>,
) -> Result<BoxRowIter<'a>> {
    let left_stream = open_node(db, left)?;
    if on.is_empty() {
        // A left row survives iff no right row makes the residual hold.
        let rrows = collect(open_node(db, right)?)?;
        return Ok(Box::new(left_stream.filter_map(move |item| match item {
            Ok(lrow) => {
                for rrow in &rrows {
                    let joined = lrow.concat(rrow);
                    match residual {
                        None => return None,
                        Some(e) => match e.eval_bool(&joined) {
                            Ok(true) => return None,
                            Ok(false) => {}
                            Err(err) => return Some(Err(err)),
                        },
                    }
                }
                Some(Ok(lrow))
            }
            Err(e) => Some(Err(e)),
        })));
    }
    let mut build: HashMap<Box<[Value]>, Vec<Row>> = HashMap::new();
    for item in open_node(db, right)? {
        let row = item?;
        let key: Box<[Value]> = on.iter().map(|&(_, rc)| row[rc].clone()).collect();
        build.entry(key).or_default().push(row);
    }
    Ok(Box::new(left_stream.filter_map(move |item| match item {
        Ok(lrow) => {
            let key: Box<[Value]> = on.iter().map(|&(lc, _)| lrow[lc].clone()).collect();
            match build.get(&key) {
                None => Some(Ok(lrow)),
                Some(hits) => match residual {
                    None => None,
                    Some(e) => {
                        for rrow in hits {
                            let joined = lrow.concat(rrow);
                            match e.eval_bool(&joined) {
                                Ok(true) => return None,
                                Ok(false) => {}
                                Err(err) => return Some(Err(err)),
                            }
                        }
                        Some(Ok(lrow))
                    }
                },
            }
        }
        Err(e) => Some(Err(e)),
    })))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{execute_materialized, execute_rows};
    use crate::expr::CmpOp;
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

    fn sorted(mut rows: Vec<Row>) -> Vec<Row> {
        rows.sort();
        rows
    }

    #[test]
    fn row_streaming_matches_materializing_on_basic_operators() {
        let db = db();
        let plans = vec![
            Plan::scan("Users"),
            Plan::scan("Users").select(Expr::col_eq_lit(1, "Bob")),
            Plan::scan("E").project_cols(&[2, 0]),
            Plan::scan("Users").join(Plan::scan("E"), vec![(0, 1)]),
            Plan::scan("Users").join_where(
                Plan::scan("Users"),
                vec![],
                Expr::cmp(CmpOp::Lt, Expr::Col(0), Expr::Col(2)),
            ),
            Plan::scan("Users").anti_join(Plan::scan("E"), vec![(0, 1)]),
            Plan::Union {
                inputs: vec![Plan::scan("Users"), Plan::scan("Users")],
            }
            .distinct(),
            Plan::Aggregate {
                input: Box::new(Plan::scan("E")),
                group_by: vec![0],
                aggs: vec![crate::plan::Agg::Count, crate::plan::Agg::Max(2)],
            },
            Plan::scan("Users").sort(vec![1]).limit(2),
        ];
        for plan in &plans {
            assert_eq!(
                sorted(execute_rows(&db, plan).unwrap()),
                sorted(execute_materialized(&db, plan).unwrap()),
                "row-streaming and materializing disagree on {plan:?}"
            );
        }
    }

    #[test]
    fn row_streaming_preserves_scan_order() {
        let db = db();
        let plan = Plan::scan("Users");
        let rows = stream_rows(&db, &plan).unwrap().collect_rows().unwrap();
        assert_eq!(
            rows,
            vec![row![1, "Alice"], row![2, "Bob"], row![3, "Carol"]]
        );
    }

    #[test]
    fn limit_short_circuits_upstream_errors() {
        // The second Values row makes the predicate non-boolean; a
        // streaming Limit(1) never reaches it, while the materializing
        // executor (which filters everything first) errors out.
        let db = db();
        let plan = Plan::Values {
            arity: 1,
            rows: vec![row![true], row![1]],
        }
        .select(Expr::Col(0))
        .limit(1);
        assert_eq!(execute_rows(&db, &plan).unwrap(), vec![row![true]]);
        assert!(execute_materialized(&db, &plan).is_err());
    }

    #[test]
    fn distinct_streams_first_occurrences_in_order() {
        let db = db();
        let plan = Plan::Values {
            arity: 1,
            rows: vec![row![2], row![1], row![2], row![3], row![1]],
        }
        .distinct();
        let rows = stream_rows(&db, &plan).unwrap().collect_rows().unwrap();
        assert_eq!(rows, vec![row![2], row![1], row![3]]);
    }

    #[test]
    fn errors_propagate_through_pipelines() {
        let db = db();
        // Bare-column predicate over non-boolean rows errors mid-stream.
        let plan = Plan::Values {
            arity: 1,
            rows: vec![row![1]],
        }
        .select(Expr::Col(0));
        assert!(execute_rows(&db, &plan).is_err());
        // And through a projection above it.
        let plan = plan.project_cols(&[0]);
        assert!(execute_rows(&db, &plan).is_err());
    }

    #[test]
    fn adaptive_index_join_takes_index_path_for_small_left() {
        let mut db = Database::new();
        let v = db
            .create_table(TableSchema::keyless("V", &["wid", "tid"]))
            .unwrap();
        v.create_index("by_wid", &["wid"]).unwrap();
        for i in 0..400i64 {
            v.insert(row![i % 20, i]).unwrap();
        }
        let probe = db
            .create_table(TableSchema::keyless("Probe", &["w"]))
            .unwrap();
        probe.insert(row![3]).unwrap();
        probe.insert(row![7]).unwrap();
        let plan = Plan::scan("Probe").join(Plan::scan("V"), vec![(0, 0)]);
        let rows = execute_rows(&db, &plan).unwrap();
        assert_eq!(rows.len(), 40);
        assert_eq!(
            sorted(rows),
            sorted(execute_materialized(&db, &plan).unwrap())
        );
    }

    #[test]
    fn adaptive_index_join_falls_back_for_large_left() {
        let mut db = Database::new();
        let v = db
            .create_table(TableSchema::keyless("V", &["wid", "tid"]))
            .unwrap();
        v.create_index("by_wid", &["wid"]).unwrap();
        for i in 0..40i64 {
            v.insert(row![i % 4, i]).unwrap();
        }
        let probe = db
            .create_table(TableSchema::keyless("Probe", &["w"]))
            .unwrap();
        // More probe rows than |V|/4: the buffer overflows and the join
        // falls back to a hash build, replaying the buffered rows.
        for i in 0..30i64 {
            probe.insert(row![i % 5]).unwrap();
        }
        let plan = Plan::scan("Probe").join(Plan::scan("V"), vec![(0, 0)]);
        assert_eq!(
            sorted(execute_rows(&db, &plan).unwrap()),
            sorted(execute_materialized(&db, &plan).unwrap())
        );
    }
}
