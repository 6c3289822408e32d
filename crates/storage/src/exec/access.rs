//! Access paths: how a read finds a base table's rows by equality on some
//! of its columns, and the read itself.
//!
//! [`resolve`] is the one place that chooses between the primary key, a
//! secondary index and no index at all, mirroring what the paper gets
//! from SQL Server's "clustered indexes over the internal keys". Every
//! reader asks it: the streaming executor's selections, joins and
//! anti-joins, `EXPLAIN`'s `[access=…]` / `[probe …]` notes
//! ([`explain_label`]) and the join orderer's index discount. What
//! `EXPLAIN` prints is therefore what runs.
//!
//! Every path is read in place. A candidate row is tested on the heap's
//! cells — the selection, the join pairs, the residual — and a row is
//! built only for a survivor. See `docs/execution.md`, "Probing in place".

use crate::catalog::Database;
use crate::error::Result;
use crate::expr::{CmpOp, ColumnSource, Expr};
use crate::index::RowId;
use crate::plan::Plan;
use crate::row::Row;
use crate::table::{IndexId, Table, TableAccess};
use crate::value::{Cell, Value};

/// The three reads of a base table by equal columns, each with its rule
/// (see [`resolve`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Read {
    /// A selection right over a scan, by the columns its `col = literal`
    /// conjuncts pin.
    Select,
    /// The right side of a join, by its join columns.
    Join,
    /// The right side of an anti-join, by its key columns.
    AntiJoin,
}

/// How a read reaches its candidate rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum AccessPath<'t> {
    /// The primary key, column 0: at most one row.
    Key,
    /// A secondary index, probed by the table columns `cols` in key order:
    /// all of the index's columns, or its first alone (`prefix`). The
    /// index lists a first-column group by tag; a read visits it in slot
    /// order instead.
    Index {
        id: IndexId,
        name: &'t str,
        cols: &'t [usize],
        prefix: bool,
    },
}

impl AccessPath<'_> {
    /// The table columns whose values make up the probe key, in key order.
    fn key_columns(&self) -> &[usize] {
        match self {
            AccessPath::Key => &[0],
            AccessPath::Index { cols, .. } => cols,
        }
    }

    /// The note `EXPLAIN` prints for this path on `table` under `read`.
    fn label(&self, table: &Table, read: Read) -> String {
        let name = match self {
            AccessPath::Key => "pk",
            AccessPath::Index { name, .. } => name,
        };
        match (read, self) {
            (Read::Select, AccessPath::Key) => "[access=pk]".to_string(),
            (Read::Select, AccessPath::Index { .. }) => format!("[access=index:{name}]"),
            (Read::Join | Read::AntiJoin, _) => format!("[probe {}.{name}]", table.schema().name()),
        }
    }
}

/// The path a `read` of `table` by equality on `cols` takes; `None` means
/// no index serves it (a selection scans, a join builds a hash table).
///
/// * Any read whose columns include the primary key goes through it; the
///   one row it finds is re-checked against the rest.
/// * A selection or an anti-join otherwise takes the widest index shape
///   inside `cols`, and re-checks the columns it leaves out.
/// * A join takes only a shape that covers `cols` exactly.
///
/// An index offers two shapes: all its columns, and its first column
/// alone. Between shapes of one width a whole index beats a first-column
/// probe, and then the index created first wins.
pub(crate) fn resolve<'t>(table: &'t Table, cols: &[usize], read: Read) -> Option<AccessPath<'t>> {
    if table
        .schema()
        .key_column()
        .is_some_and(|k| cols.contains(&k))
    {
        return Some(AccessPath::Key);
    }
    let mut best: Option<((usize, bool), AccessPath<'t>)> = None;
    for (id, name, index_cols) in table.indexes() {
        // An index covers at least one column (`Index::new`).
        let shapes = [
            (index_cols, false),
            (&index_cols[..1], index_cols.len() > 1),
        ];
        let Some(&(shape, prefix)) = shapes
            .iter()
            .find(|(shape, _)| shape.iter().all(|c| cols.contains(c)))
        else {
            continue;
        };
        let rank = (shape.len(), !prefix);
        if best.is_none_or(|(best, _)| rank > best) {
            let path = AccessPath::Index {
                id,
                name,
                cols: shape,
                prefix,
            };
            best = Some((rank, path));
        }
    }
    let (_, path) = best?;
    (read != Read::Join || path.key_columns().len() == cols.len()).then_some(path)
}

/// The base table `plan` reads directly — a `Scan`, or a `Selection`
/// right over one — and that selection's predicate. `None` for any other
/// plan and for virtual (`sys.*`) relations, which have no indexes.
pub(crate) fn base_table<'a>(
    db: &'a Database,
    plan: &'a Plan,
) -> Option<(&'a Table, Option<&'a Expr>)> {
    let (name, predicate) = match plan {
        Plan::Scan { table } => (table, None),
        Plan::Selection { input, predicate } => match input.as_ref() {
            Plan::Scan { table } => (table, Some(predicate)),
            _ => return None,
        },
        _ => return None,
    };
    Some((db.table(name).ok()?, predicate))
}

/// The path of a selection over `table` with `predicate`, and the literal
/// each key column is pinned to, in key order. A column pinned twice
/// probes with its first literal; the predicate re-checks the second.
pub(crate) fn select_path<'t, 'p>(
    table: &'t Table,
    predicate: &'p Expr,
) -> Option<(AccessPath<'t>, Vec<&'p Value>)> {
    let mut eqs = Vec::new();
    collect_eqs(predicate, &mut eqs);
    let pinned: Vec<usize> = eqs.iter().map(|&(c, _)| c).collect();
    let path = resolve(table, &pinned, Read::Select)?;
    let key = path
        .key_columns()
        .iter()
        .map(|c| {
            eqs.iter()
                .find(|(e, _)| e == c)
                .expect("a key column is pinned")
                .1
        })
        .collect();
    Some((path, key))
}

/// The `col = literal` conjuncts of the top-level AND structure.
fn collect_eqs<'p>(e: &'p Expr, out: &mut Vec<(usize, &'p Value)>) {
    match e {
        Expr::And(parts) => {
            for p in parts {
                collect_eqs(p, out);
            }
        }
        Expr::Cmp(CmpOp::Eq, a, b) => match (a.as_ref(), b.as_ref()) {
            (Expr::Col(c), Expr::Lit(v)) | (Expr::Lit(v), Expr::Col(c)) => out.push((*c, v)),
            _ => {}
        },
        _ => {}
    }
}

/// The rows a selection right over `table` keeps, read through its access
/// path; `None` when it has none and must scan. The predicate is tested on
/// the heap's cells and only the rows it keeps are built. They come in
/// slot order: a full key's rows are listed that way by the index, a
/// first-column group is sorted into it.
pub(crate) fn select_rows(table: &Table, predicate: &Expr) -> Result<Option<Vec<Row>>> {
    let Some((path, key)) = select_path(table, predicate) else {
        return Ok(None);
    };
    let mut out = Vec::new();
    each_row(
        table,
        &path,
        |i| key[i],
        |rid| {
            if predicate.eval_bool(&Probed::new(&[], table, rid)) {
                out.push(table.get(rid)?);
            }
            Ok(true)
        },
    )?;
    Ok(Some(out))
}

/// The `EXPLAIN` note of the access path under `plan`: `[access=…]` on a
/// selection right over a base table, `[probe …]` on a join or anti-join
/// whose right side the executor probes; `None` elsewhere.
pub(crate) fn explain_label(db: &Database, plan: &Plan) -> Option<String> {
    match plan {
        Plan::Selection { input, predicate } if matches!(input.as_ref(), Plan::Scan { .. }) => {
            let (table, _) = base_table(db, plan)?;
            let (path, _) = select_path(table, predicate)?;
            Some(path.label(table, Read::Select))
        }
        _ => probe_access(db, plan).map(|(a, read)| a.path.label(a.table, read)),
    }
}

/// The access a join or an anti-join probes its right side by, and the
/// read it makes; `None` for any other operator and for a join that
/// hashes or buffers its right side.
fn probe_access<'a>(db: &'a Database, plan: &'a Plan) -> Option<(IndexAccess<'a>, Read)> {
    let (right, on, read) = match plan {
        Plan::Join { right, on, .. } => (right, on, Read::Join),
        Plan::AntiJoin { right, on, .. } => (right, on, Read::AntiJoin),
        _ => return None,
    };
    IndexAccess::resolve(db, right, on, None, read).map(|a| (a, read))
}

/// True iff `plan` is a join or an anti-join whose right side the
/// executor probes row by row. Such a join builds nothing, so it is no
/// materialization point ([`crate::exec::spill_points`]).
pub(crate) fn probes_right(db: &Database, plan: &Plan) -> bool {
    probe_access(db, plan).is_some()
}

/// Key cells a probe carries inline; a longer key is collected.
const INLINE_KEY: usize = 8;

/// Call `visit` with the id of every live row of `table` whose key under
/// `path` is `key(0), key(1), …`, until it returns false: one primary-key
/// lookup or one index probe, either counted in the table's
/// `index_probes`, a key lookup in its `key_probes` as well. A
/// first-column probe visits its rows in slot order.
fn each_row<'k>(
    table: &Table,
    path: &AccessPath<'_>,
    key: impl Fn(usize) -> &'k Value,
    mut visit: impl FnMut(RowId) -> Result<bool>,
) -> Result<()> {
    let AccessPath::Index {
        id, cols, prefix, ..
    } = *path
    else {
        TableAccess::bump(&table.access().index_probes, 1);
        TableAccess::bump(&table.access().key_probes, 1);
        if let Some(rid) = table.rid_by_key(key(0)) {
            visit(rid)?;
        }
        return Ok(());
    };
    let mut inline = [Cell::Null; INLINE_KEY];
    let collected: Vec<Cell<'k>>;
    let cells: &[Cell<'k>] = if cols.len() <= INLINE_KEY {
        for (i, slot) in inline.iter_mut().enumerate().take(cols.len()) {
            *slot = key(i).as_cell();
        }
        &inline[..cols.len()]
    } else {
        collected = (0..cols.len()).map(|i| key(i).as_cell()).collect();
        &collected
    };
    let mut walk = |rids: &mut dyn Iterator<Item = RowId>| -> Result<()> {
        for rid in rids {
            if !visit(rid)? {
                break;
            }
        }
        Ok(())
    };
    let mut rids = table.probe(id, cells)?;
    if prefix {
        let mut sorted: Vec<RowId> = rids.collect();
        sorted.sort_unstable();
        walk(&mut sorted.into_iter())
    } else {
        walk(&mut rids)
    }
}

/// The columns of a left row followed by those of a table row, read in
/// place: what a selection (no left columns) and a residual test a
/// candidate on before a row is built. The row id comes from the table's
/// own key or index and the columns were checked when the plan opened, so
/// the heap's cells are read unchecked.
struct Probed<'a> {
    left: &'a [Value],
    table: &'a Table,
    rid: RowId,
}

impl<'a> Probed<'a> {
    fn new(left: &'a [Value], table: &'a Table, rid: RowId) -> Self {
        Probed { left, table, rid }
    }
}

impl ColumnSource for Probed<'_> {
    fn cell(&self, i: usize) -> Cell<'_> {
        match i.checked_sub(self.left.len()) {
            None => self.left[i].as_cell(),
            Some(c) => self.table.heap_cell(self.rid, c),
        }
    }
}

/// A base-table right side that an index-nested loop probes for the join
/// pairs `on` and the `residual`: the table, the selection over it, its
/// access path and the left column that fills each key column.
pub(crate) struct IndexAccess<'a> {
    table: &'a Table,
    pred: Option<&'a Expr>,
    path: AccessPath<'a>,
    key_from: Vec<usize>,
    on: &'a [(usize, usize)],
    residual: Option<&'a Expr>,
}

impl<'a> IndexAccess<'a> {
    /// The probe access to `right` for `on` and `residual` under `read`'s
    /// rule (a join or an anti-join), if `right` is a base table with a
    /// path for the right columns of `on`.
    pub(crate) fn resolve(
        db: &'a Database,
        right: &'a Plan,
        on: &'a [(usize, usize)],
        residual: Option<&'a Expr>,
        read: Read,
    ) -> Option<IndexAccess<'a>> {
        if on.is_empty() {
            return None;
        }
        let (table, pred) = base_table(db, right)?;
        let rcols: Vec<usize> = on.iter().map(|&(_, rc)| rc).collect();
        let path = resolve(table, &rcols, read)?;
        let key_from = path
            .key_columns()
            .iter()
            .map(|rc| {
                on.iter()
                    .find(|(_, r)| r == rc)
                    .expect("a key column is joined")
                    .0
            })
            .collect();
        Some(IndexAccess {
            table,
            pred,
            path,
            key_from,
            on,
            residual,
        })
    }

    /// Call `hit` with the id of every table row that joins `lrow` under
    /// the join pairs, the selection and the residual, until it returns
    /// false. Join pairs (re-checked: the key pins one left column per key
    /// column, and a key or a narrower index leaves pairs out), selection
    /// and residual are tested against the heap's cells; no row is built
    /// here.
    fn each_match(&self, lrow: &Row, mut hit: impl FnMut(RowId) -> Result<bool>) -> Result<()> {
        let table = self.table;
        let joins = |rid: RowId| {
            self.on
                .iter()
                .all(|&(lc, rc)| table.heap_cell(rid, rc) == lrow[lc])
                && self
                    .pred
                    .is_none_or(|p| p.eval_bool(&Probed::new(&[], table, rid)))
                && self
                    .residual
                    .is_none_or(|e| e.eval_bool(&Probed::new(lrow.values(), table, rid)))
        };
        each_row(
            table,
            &self.path,
            |i| &lrow[self.key_from[i]],
            |rid| Ok(!joins(rid) || hit(rid)?),
        )
    }

    /// Push the joined rows `lrow` has in the table: each built once, from
    /// the left row and the heap cells.
    pub(crate) fn probe(&self, lrow: &Row, out: &mut Vec<Row>) -> Result<()> {
        let arity = self.table.schema().arity();
        let left = lrow.arity();
        self.each_match(lrow, |rid| {
            out.push(Row::new((0..left + arity).map(
                |i| match i.checked_sub(left) {
                    None => lrow[i].clone(),
                    Some(c) => self.table.heap_cell(rid, c).to_value(),
                },
            )));
            Ok(true)
        })
    }

    /// Does `lrow` have a row in the table? Stops at the first, building
    /// nothing.
    pub(crate) fn any_match(&self, lrow: &Row) -> Result<bool> {
        let mut found = false;
        self.each_match(lrow, |_| {
            found = true;
            Ok(false)
        })?;
        Ok(found)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::row;
    use crate::schema::TableSchema;

    /// A path as `(index name, key columns, prefix)`, `("pk", [0], false)`
    /// for the key.
    fn shape(path: Option<AccessPath<'_>>) -> Option<(&str, Vec<usize>, bool)> {
        path.map(|p| match p {
            AccessPath::Key => ("pk", vec![0], false),
            AccessPath::Index {
                name, cols, prefix, ..
            } => (name, cols.to_vec(), prefix),
        })
    }

    #[test]
    fn a_join_takes_the_key_or_an_index_over_exactly_its_columns() {
        let mut t = Table::new(TableSchema::with_key("Users", &["uid", "name"]));
        t.insert(row![1, "Alice"]).unwrap();
        t.create_index("by_name", &["name"]).unwrap();
        let join = |cols: &[usize]| shape(resolve(&t, cols, Read::Join));
        assert_eq!(join(&[1]), Some(("by_name", vec![1], false)));
        assert_eq!(join(&[0]), Some(("pk", vec![0], false)));
        assert_eq!(join(&[1, 0]), Some(("pk", vec![0], false)));
        assert_eq!(join(&[]), None);
    }

    #[test]
    fn selections_and_anti_joins_take_the_widest_shape_inside_their_columns() {
        let mut t = Table::new(TableSchema::keyless("V", &["wid", "tid", "key"]));
        t.create_index("by_wid_key", &["wid", "key"]).unwrap();
        let read = |t: &Table, cols: &[usize], read| {
            shape(resolve(t, cols, read)).map(|(n, c, p)| (n.to_string(), c, p))
        };
        let wid_key = Some(("by_wid_key".to_string(), vec![0, 2], false));
        let wid = Some(("by_wid_key".to_string(), vec![0], true));
        // A join needs a shape over exactly its columns, in any order.
        assert_eq!(read(&t, &[0], Read::Join), wid);
        assert_eq!(read(&t, &[2, 0], Read::Join), wid_key);
        assert_eq!(read(&t, &[2], Read::Join), None);
        assert_eq!(read(&t, &[1, 0], Read::Join), None);
        // Within a wider key the whole index narrows a probe best, the
        // first column alone when the second is not in the key.
        for r in [Read::Select, Read::AntiJoin] {
            assert_eq!(read(&t, &[2, 1, 0], r), wid_key);
            assert_eq!(read(&t, &[1, 0], r), wid);
            assert_eq!(read(&t, &[1, 2], r), None);
        }
        // An index over exactly the column beats a first-column probe.
        t.create_index("by_wid", &["wid"]).unwrap();
        let by_wid = Some(("by_wid".to_string(), vec![0], false));
        for r in [Read::Select, Read::Join, Read::AntiJoin] {
            assert_eq!(read(&t, &[0], r), by_wid);
            assert_eq!(
                read(&t, &[0, 1], r),
                by_wid.clone().filter(|_| r != Read::Join)
            );
        }
    }
}
