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
//!   a whole chunk per call. Scan, Selection, Projection, Union, and the
//!   probe side of (anti-)joins pipeline; the **materialization points**
//!   are the hash build sides of keyed joins and anti-joins, cross-join
//!   and residual-only anti-join right sides, and Distinct's seen-set
//!   (Distinct streams first occurrences but still accumulates every
//!   distinct row). Each of those points can spill to disk under a
//!   per-query memory budget — grace hash (anti-)join, distinct
//!   partitioning, cross-join and residual-only anti-join right-side
//!   overflow runs; see [`spill`]. ORDER BY and LIMIT are not plan
//!   operators: they shape a finished answer in the SQL session.
//!   [`Executor::open_chunks`] (and its profiled twin
//!   [`Executor::open_chunks_profiled`], the `EXPLAIN ANALYZE` backend)
//!   is the one way a plan is opened; [`stream_chunks`] opens one with
//!   default settings, and [`execute`] collects it into a `Vec<Row>`.
//! * The **materializing executor** ([`execute_materialized`]) is the
//!   original operator-at-a-time evaluator: every operator's full output
//!   is built before its parent runs. It is the reference side of the
//!   differential suites, not a production path, and a plain
//!   specification: it scans every table and hash-joins every keyed join,
//!   so the suites check the streaming executor's index paths against
//!   scans rather than against a second copy of the index logic.
//!
//! Which key or index serves a base-table read — a `Selection` directly
//! over a `Scan` whose predicate pins columns with equality conjuncts, or
//! the base-table right side of a join or anti-join — is decided once, in
//! `exec::access`, mirroring what the paper gets from SQL
//! Server's "clustered indexes over the internal keys".

pub(crate) mod access;
pub mod spill;
pub mod stream;

pub use spill::{spill_points, SpillOptions, SPILL_PARTITIONS};
pub(crate) use stream::selection_kernel_label;
pub use stream::{stream_chunks, Chunk, ChunkStream, Executor, BATCH_SIZE};

use crate::catalog::Database;
use crate::error::Result;
use crate::expr::Expr;
use crate::index::CellHash;
use crate::plan::Plan;
use crate::row::Row;
use crate::value::Value;
use std::collections::HashMap;

/// Execute a plan against a database, returning materialized rows.
///
/// This is a thin wrapper collecting the vectorized executor's chunks;
/// use [`stream_chunks`] to consume results without building the vector.
pub fn execute(db: &Database, plan: &Plan) -> Result<Vec<Row>> {
    stream::stream_chunks(db, plan)?.collect_rows()
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
            let mut rows = run(db, input)?;
            rows.retain(|r| predicate.eval_bool(r));
            Ok(rows)
        }
        Plan::Projection { input, exprs } => {
            let rows = run(db, input)?;
            Ok(rows
                .iter()
                .map(|r| Row::new(exprs.iter().map(|e| e.eval(r))))
                .collect())
        }
        Plan::Join {
            left,
            right,
            on,
            residual,
        } => {
            let lrows = run(db, left)?;
            let rrows = run(db, right)?;
            Ok(join_rows(&lrows, &rrows, on, residual.as_ref()))
        }
        Plan::AntiJoin {
            left,
            right,
            on,
            residual,
        } => {
            let lrows = run(db, left)?;
            let rrows = run(db, right)?;
            Ok(anti_join_rows(lrows, &rrows, on, residual.as_ref()))
        }
        Plan::Distinct { input } => {
            let rows = run(db, input)?;
            let mut seen: std::collections::HashSet<Row, CellHash> =
                std::collections::HashSet::with_capacity_and_hasher(
                    rows.len(),
                    CellHash::default(),
                );
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
        Plan::Values { rows, .. } => Ok(rows.clone()),
    }
}

fn join_rows(
    lrows: &[Row],
    rrows: &[Row],
    on: &[(usize, usize)],
    residual: Option<&Expr>,
) -> Vec<Row> {
    let holds = |joined: &Row| residual.is_none_or(|e| e.eval_bool(joined));
    let mut out = Vec::new();
    if on.is_empty() {
        // Nested loop (theta or cross join).
        for l in lrows {
            for r in rrows {
                let joined = l.concat(r);
                if holds(&joined) {
                    out.push(joined);
                }
            }
        }
        return out;
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
    let mut map: HashMap<Box<[Value]>, Vec<usize>, CellHash> =
        HashMap::with_capacity_and_hasher(build.len(), CellHash::default());
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
                if holds(&joined) {
                    out.push(joined);
                }
            }
        }
    }
    out
}

fn anti_join_rows(
    mut lrows: Vec<Row>,
    rrows: &[Row],
    on: &[(usize, usize)],
    residual: Option<&Expr>,
) -> Vec<Row> {
    // A left row survives iff no right row matches it on `on` and the
    // residual.
    let matches = |l: &Row, r: &Row| residual.is_none_or(|e| e.eval_bool(&l.concat(r)));
    if on.is_empty() {
        lrows.retain(|l| !rrows.iter().any(|r| matches(l, r)));
        return lrows;
    }
    let mut map: HashMap<Box<[Value]>, Vec<usize>, CellHash> =
        HashMap::with_capacity_and_hasher(rrows.len(), CellHash::default());
    for (i, row) in rrows.iter().enumerate() {
        let key: Box<[Value]> = on.iter().map(|&(_, rc)| row[rc].clone()).collect();
        map.entry(key).or_default().push(i);
    }
    lrows.retain(|l| {
        let key: Box<[Value]> = on.iter().map(|&(lc, _)| l[lc].clone()).collect();
        map.get(&key)
            .is_none_or(|hits| !hits.iter().any(|&i| matches(l, &rrows[i])))
    });
    lrows
}

#[cfg(test)]
mod tests {
    use super::*;
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
            .project_cols(&[1, 2, 4]);
        let mut rows = execute(&db, &p).unwrap();
        rows.sort();
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
            .project_cols(&[1, 3]);
        let mut rows = execute(&db, &p).unwrap();
        rows.sort();
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
    use crate::expr::CmpOp;
    use crate::row;
    use crate::schema::TableSchema;

    /// `V` indexed on `wid`, `R` keyed on `tid`, and a two-row probe side.
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
            let mut generic = join_rows(&l, &r, on, residual.as_ref());
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
        // Left side as big as the table, joined on `V.tid`, which no index
        // covers: the hash join gives the right answer.
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
