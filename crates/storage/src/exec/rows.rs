//! The row-at-a-time view of the chunked executor.
//!
//! [`RowStream`] flattens a [`ChunkStream`](super::ChunkStream) into
//! single rows for sinks written against `Iterator<Item = Result<Row>>`
//! (the shell, `Output::Stream` callbacks, embedders). Rows of the current
//! chunk are handed out one by one; the next chunk is pulled only when
//! they run out, and each exhausted chunk's buffers return to the pool.
//! An `Err` chunk becomes one `Err` row item at the same position, so the
//! chunked executor's error order carries over row for row.

use super::stream::{BoxChunkIter, Chunk};
use crate::error::Result;
use crate::row::Row;

/// A pull-based stream of rows: the row-at-a-time adapter over
/// [`ChunkStream`](super::ChunkStream).
///
/// Rows are computed on demand: dropping the stream early (or wrapping it
/// in a `take`) abandons the rest of the computation. An `Err` item
/// reports an evaluation error; pulling past it is allowed but yields
/// whatever the underlying operators produce next.
pub struct RowStream<'a> {
    inner: Box<dyn Iterator<Item = Result<Row>> + 'a>,
}

impl<'a> RowStream<'a> {
    /// Flatten a chunk iterator into rows.
    pub(super) fn from_chunks(chunks: BoxChunkIter<'a>) -> Self {
        RowStream {
            inner: Box::new(chunks.flat_map(|item| match item {
                Ok(chunk) => ChunkRows::Rows(Some(chunk), 0),
                Err(e) => ChunkRows::Err(std::iter::once(Err(e))),
            })),
        }
    }

    /// Drain the stream into a vector, stopping at the first error.
    pub fn collect_rows(self) -> Result<Vec<Row>> {
        self.inner.collect()
    }
}

impl Iterator for RowStream<'_> {
    type Item = Result<Row>;

    fn next(&mut self) -> Option<Self::Item> {
        self.inner.next()
    }
}

/// Flattening adapter behind [`RowStream::from_chunks`]: hands out the
/// chunk's live rows one by one and recycles the chunk's buffers once
/// the last row is gone (abandoned chunks just drop their buffers).
enum ChunkRows {
    Rows(Option<Chunk>, usize),
    Err(std::iter::Once<Result<Row>>),
}

impl Iterator for ChunkRows {
    type Item = Result<Row>;

    fn next(&mut self) -> Option<Self::Item> {
        match self {
            ChunkRows::Rows(slot, pos) => {
                let chunk = slot.as_mut()?;
                if *pos < chunk.len() {
                    let i = chunk.live_at(*pos);
                    *pos += 1;
                    Some(Ok(chunk.take_row(i)))
                } else {
                    slot.take().expect("checked above").recycle();
                    None
                }
            }
            ChunkRows::Err(it) => it.next(),
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::catalog::Database;
    use crate::error::Result;
    use crate::exec::{execute_materialized, stream};
    use crate::expr::{CmpOp, Expr};
    use crate::plan::Plan;
    use crate::row;
    use crate::row::Row;
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

    /// Every row of `plan`, pulled one at a time through [`RowStream`].
    fn pull_rows(db: &Database, plan: &Plan) -> Result<Vec<Row>> {
        stream(db, plan)?.collect()
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
                sorted(pull_rows(&db, plan).unwrap()),
                sorted(execute_materialized(&db, plan).unwrap()),
                "row-streaming and materializing disagree on {plan:?}"
            );
        }
    }

    #[test]
    fn row_streaming_preserves_scan_order() {
        let db = db();
        let plan = Plan::scan("Users");
        let rows = stream(&db, &plan).unwrap().collect_rows().unwrap();
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
        assert_eq!(pull_rows(&db, &plan).unwrap(), vec![row![true]]);
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
        let rows = stream(&db, &plan).unwrap().collect_rows().unwrap();
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
        assert!(pull_rows(&db, &plan).is_err());
        // And through a projection above it.
        let plan = plan.project_cols(&[0]);
        assert!(pull_rows(&db, &plan).is_err());
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
        let rows = pull_rows(&db, &plan).unwrap();
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
            sorted(pull_rows(&db, &plan).unwrap()),
            sorted(execute_materialized(&db, &plan).unwrap())
        );
    }
}
