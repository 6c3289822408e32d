//! The statistics catalog: row counts and per-column distinct-value
//! estimates, plus the cardinality model the rewrite rules and the join
//! reorderer consume.
//!
//! Row counts and index distinct-key counts are maintained incrementally
//! by [`Table`] on insert/delete; a snapshot records
//! each table's mutation [`version`](crate::table::Table::version) so
//! callers can detect staleness in O(#tables). Distinct estimates for
//! non-indexed columns come from a bounded deterministic sample of the
//! heap (first `SAMPLE_CAP` live rows) with the classic "every sampled
//! value repeated ⇒ domain saturated" extrapolation.

use crate::catalog::Database;
use crate::expr::{CmpOp, Expr};
use crate::plan::{Agg, Plan};
use crate::row::Row;
use crate::table::Table;
use crate::value::Value;
use std::collections::{BTreeMap, HashMap, HashSet};

/// Rows sampled per column when no index covers it.
const SAMPLE_CAP: usize = 512;

/// Most-common values kept per column.
const MCV_CAP: usize = 8;

/// Default selectivity of a range predicate (`<`, `<=`, `>`, `>=`)
/// when no histogram covers the column.
const RANGE_SELECTIVITY: f64 = 1.0 / 3.0;

/// Buckets per equi-depth histogram (the 512-row sample puts ~32 rows
/// in each).
const HIST_BUCKETS: usize = 16;

/// An equi-depth histogram over one column: `bounds` holds the sampled
/// values at the `HIST_BUCKETS` + 1 equally-spaced rank positions of
/// the sorted sample (natural [`Value`] order, so NULLs sort first and
/// mixed-type columns still work). Each adjacent pair of bounds brackets
/// an equal share of the sampled rows, so heavy values simply repeat as
/// bounds — skew costs resolution only around itself.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    bounds: Vec<Value>,
}

impl Histogram {
    /// Build from one column's sample; `None` when the sample is too
    /// small or constant (a histogram adds nothing over MCVs there).
    fn from_sample(mut vals: Vec<Value>) -> Option<Histogram> {
        let n = vals.len();
        if n < HIST_BUCKETS || vals.iter().min() == vals.iter().max() {
            return None;
        }
        vals.sort();
        let bounds = (0..=HIST_BUCKETS)
            .map(|i| vals[i * (n - 1) / HIST_BUCKETS].clone())
            .collect();
        Some(Histogram { bounds })
    }

    /// Estimated fraction of rows with value strictly below `k`.
    pub fn frac_lt(&self, k: &Value) -> f64 {
        self.frac(k, |b| b < k)
    }

    /// Estimated fraction of rows with value at most `k`.
    pub fn frac_le(&self, k: &Value) -> f64 {
        self.frac(k, |b| b <= k)
    }

    /// Shared rank lookup: `below` is the bound predicate (`< k` or
    /// `<= k`). `k` falls in the bucket between the last bound it is
    /// beyond and the next one; within that bucket, interpolate linearly
    /// for integer bounds and assume the midpoint otherwise.
    fn frac(&self, k: &Value, below: impl FnMut(&Value) -> bool) -> f64 {
        let pos = self.bounds.partition_point(below);
        if pos == 0 {
            return 0.0;
        }
        if pos == self.bounds.len() {
            return 1.0;
        }
        let within = match (&self.bounds[pos - 1], &self.bounds[pos], k) {
            (Value::Int(lo), Value::Int(hi), Value::Int(kv)) if hi > lo => {
                ((kv - lo) as f64 / (hi - lo) as f64).clamp(0.0, 1.0)
            }
            _ => 0.5,
        };
        (pos as f64 - 1.0 + within) / (self.bounds.len() - 1) as f64
    }
}

/// Build per-column histograms from a bounded row sample.
fn hist_lists<'a>(arity: usize, rows: impl Iterator<Item = &'a Row>) -> Vec<Option<Histogram>> {
    let mut cols: Vec<Vec<Value>> = vec![Vec::new(); arity];
    for row in rows {
        for (c, col) in cols.iter_mut().enumerate() {
            col.push(row[c].clone());
        }
    }
    cols.into_iter().map(Histogram::from_sample).collect()
}

/// Statistics for one table.
#[derive(Debug, Clone, PartialEq)]
pub struct TableStats {
    /// Live row count (exact; maintained by insert/delete).
    pub rows: usize,
    /// Estimated number of distinct values per column.
    pub distinct: Vec<f64>,
    /// Per-column most-common-value list: up to `MCV_CAP` `(value,
    /// fraction-of-rows)` pairs, most frequent first. Only values seen
    /// at least twice in the sample qualify, so key-like columns carry
    /// empty lists and equality selectivity falls back to `1/distinct`.
    /// This is what fixes the skew error on Zipf-participation columns:
    /// a scalar distinct count prices every value at `1/d`, while the
    /// hot value of a Zipf column covers a large constant fraction.
    pub mcv: Vec<Vec<(Value, f64)>>,
    /// Per-column equi-depth histogram from the same sample prefix
    /// (`None` for tiny or constant columns). Prices range predicates:
    /// without it every `<`/`<=`/`>`/`>=` is a flat
    /// `RANGE_SELECTIVITY` regardless of the constant.
    pub hist: Vec<Option<Histogram>>,
    /// The table's mutation version at snapshot time.
    pub version: u64,
}

impl TableStats {
    /// Compute statistics for a table.
    pub fn of_table(table: &Table) -> TableStats {
        let rows = table.len();
        let arity = table.schema().arity();
        let mut distinct = vec![0.0f64; arity];

        // Exact count for the primary key; index distinct-key counts for
        // single-column secondary indexes (both maintained incrementally).
        let mut resolved = vec![false; arity];
        if let Some(kc) = table.schema().key_column() {
            if kc < arity {
                distinct[kc] = rows as f64;
                resolved[kc] = true;
            }
        }
        for (_, cols, keys) in table.index_stats() {
            if let [c] = cols {
                if !resolved[*c] {
                    distinct[*c] = keys as f64;
                    resolved[*c] = true;
                }
            }
        }

        // Deterministic bounded sample for the rest, materialized once.
        let sample: Vec<Row> = table.iter().map(|(_, r)| r).take(SAMPLE_CAP).collect();
        let unresolved: Vec<usize> = (0..arity).filter(|&c| !resolved[c]).collect();
        if !unresolved.is_empty() && rows > 0 {
            let mut seen: Vec<HashSet<&crate::value::Value>> =
                unresolved.iter().map(|_| HashSet::new()).collect();
            for row in &sample {
                for (slot, &c) in unresolved.iter().enumerate() {
                    seen[slot].insert(&row[c]);
                }
            }
            for (slot, &c) in unresolved.iter().enumerate() {
                distinct[c] = extrapolate_distinct(seen[slot].len(), sample.len(), rows);
            }
        }

        // Most-common values and histograms from the same deterministic
        // sample prefix.
        let (mcv, hist) = if rows > 0 {
            (
                mcv_lists(arity, sample.iter()),
                hist_lists(arity, sample.iter()),
            )
        } else {
            (vec![Vec::new(); arity], vec![None; arity])
        };
        TableStats {
            rows,
            distinct,
            mcv,
            hist,
            version: table.version(),
        }
    }
}

/// Count a bounded row sample into per-column most-common-value lists:
/// top `MCV_CAP` values seen at least twice, as fractions of the
/// sample, most frequent first (ties broken by value for determinism).
fn mcv_lists<'a>(arity: usize, rows: impl Iterator<Item = &'a Row>) -> Vec<Vec<(Value, f64)>> {
    let mut counts: Vec<HashMap<&Value, usize>> = vec![HashMap::new(); arity];
    let mut sampled = 0usize;
    for row in rows {
        sampled += 1;
        for (c, col_counts) in counts.iter_mut().enumerate() {
            *col_counts.entry(&row[c]).or_insert(0) += 1;
        }
    }
    if sampled == 0 {
        return vec![Vec::new(); arity];
    }
    counts
        .into_iter()
        .map(|col_counts| {
            let mut common: Vec<(&Value, usize)> =
                col_counts.into_iter().filter(|&(_, n)| n >= 2).collect();
            common.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(b.0)));
            common.truncate(MCV_CAP);
            common
                .into_iter()
                .map(|(v, n)| (v.clone(), n as f64 / sampled as f64))
                .collect()
        })
        .collect()
}

/// Scale a sampled distinct count up to the full table: if nearly every
/// sampled row introduced a new value, assume the column is key-like and
/// scale linearly; if values repeat heavily, assume the sample saw the
/// whole domain.
fn extrapolate_distinct(observed: usize, sampled: usize, rows: usize) -> f64 {
    if sampled == 0 {
        return 0.0;
    }
    let ratio = observed as f64 / sampled as f64;
    let estimate = if ratio > 0.9 {
        // Key-like: distinct grows with the table.
        rows as f64 * ratio
    } else {
        // Repetitive: the sample likely saturated the domain.
        observed as f64
    };
    estimate.clamp(1.0, rows as f64)
}

/// A point-in-time statistics snapshot over a whole database.
#[derive(Debug, Clone, Default)]
pub struct StatsCatalog {
    tables: BTreeMap<String, TableStats>,
}

impl StatsCatalog {
    /// Snapshot every table in the database.
    pub fn snapshot(db: &Database) -> StatsCatalog {
        let mut tables = BTreeMap::new();
        for name in db.table_names() {
            let t = db.table(name).expect("name from catalog");
            tables.insert(name.to_string(), TableStats::of_table(t));
        }
        StatsCatalog { tables }
    }

    pub fn table(&self, name: &str) -> Option<&TableStats> {
        self.tables.get(name)
    }

    /// Bring the snapshot up to date, recomputing only tables whose
    /// mutation version changed (and adding/removing tables as needed).
    /// O(#tables) when nothing changed.
    pub fn refresh(&mut self, db: &Database) {
        let names = db.table_names();
        self.tables.retain(|n, _| names.contains(&n.as_str()));
        for name in names {
            let t = db.table(name).expect("name from catalog");
            let fresh = !matches!(self.tables.get(name), Some(s) if s.version == t.version());
            if fresh {
                self.tables
                    .insert(name.to_string(), TableStats::of_table(t));
            }
        }
    }

    /// True iff any table mutated (or appeared/disappeared) since the
    /// snapshot was taken.
    pub fn is_stale(&self, db: &Database) -> bool {
        let names = db.table_names();
        if names.len() != self.tables.len() {
            return true;
        }
        names.iter().any(|n| match self.tables.get(*n) {
            Some(s) => db
                .table(n)
                .map(|t| t.version() != s.version)
                .unwrap_or(true),
            None => true,
        })
    }
}

/// Cardinality estimate of a plan node: row count plus per-output-column
/// distinct-value estimates (propagated so join selectivities compose).
#[derive(Debug, Clone, PartialEq)]
pub struct RelEstimate {
    pub rows: f64,
    pub distinct: Vec<f64>,
    /// Per-column most-common-value fractions, propagated from base
    /// tables through column-preserving operators (selection,
    /// projection-of-columns, join concatenation, sort, limit). May be
    /// shorter than `distinct` — columns past the end simply have no
    /// list. Operators that reshape frequencies (distinct, union,
    /// aggregate) drop the lists.
    pub mcv: Vec<Vec<(Value, f64)>>,
    /// Per-column equi-depth histograms, propagated exactly like `mcv`.
    pub hist: Vec<Option<Histogram>>,
}

impl RelEstimate {
    fn capped(mut self) -> RelEstimate {
        for d in &mut self.distinct {
            *d = d.max(1.0).min(self.rows.max(1.0));
        }
        self
    }
}

/// Estimate the output cardinality of `plan`, recursing into children.
///
/// Unknown tables (derived relations registered elsewhere) get a small
/// default so estimation never fails: the optimizer must behave on any
/// plan the executor accepts.
pub fn estimate(catalog: &StatsCatalog, plan: &Plan) -> RelEstimate {
    let children: Vec<RelEstimate> = plan
        .children()
        .into_iter()
        .map(|c| estimate(catalog, c))
        .collect();
    combine(catalog, plan, &children)
}

/// Combine pre-computed child estimates (in [`Plan::children`] order) into
/// this node's estimate — the non-recursive core of [`estimate`].
///
/// `EXPLAIN` uses this to annotate a whole plan tree in one bottom-up
/// pass: each node (in particular each sampled `Values` leaf) is
/// estimated exactly once instead of once per ancestor.
pub fn combine(catalog: &StatsCatalog, plan: &Plan, children: &[RelEstimate]) -> RelEstimate {
    match plan {
        Plan::Scan { table } => match catalog.table(table) {
            Some(s) => RelEstimate {
                rows: s.rows as f64,
                distinct: s.distinct.clone(),
                mcv: s.mcv.clone(),
                hist: s.hist.clone(),
            }
            .capped(),
            None => RelEstimate {
                rows: 100.0,
                distinct: Vec::new(),
                mcv: Vec::new(),
                hist: Vec::new(),
            },
        },
        Plan::Values { arity, rows } => values_estimate(*arity, rows),
        Plan::Selection { predicate, .. } => {
            let mut est = children[0].clone();
            let sel = selectivity(predicate, &est);
            est.rows *= sel;
            est.capped()
        }
        Plan::Projection { exprs, .. } => {
            let inner = &children[0];
            let distinct = exprs
                .iter()
                .map(|e| match e {
                    Expr::Col(c) => inner.distinct.get(*c).copied().unwrap_or(inner.rows),
                    Expr::Lit(_) => 1.0,
                    _ => inner.rows,
                })
                .collect();
            let mcv = exprs
                .iter()
                .map(|e| match e {
                    Expr::Col(c) => inner.mcv.get(*c).cloned().unwrap_or_default(),
                    _ => Vec::new(),
                })
                .collect();
            let hist = exprs
                .iter()
                .map(|e| match e {
                    Expr::Col(c) => inner.hist.get(*c).cloned().flatten(),
                    _ => None,
                })
                .collect();
            RelEstimate {
                rows: inner.rows,
                distinct,
                mcv,
                hist,
            }
            .capped()
        }
        Plan::Join { on, residual, .. } => {
            let (l, r) = (&children[0], &children[1]);
            let mut rows = l.rows * r.rows;
            for &(lc, rc) in on {
                let dl = l.distinct.get(lc).copied().unwrap_or(l.rows);
                let dr = r.distinct.get(rc).copied().unwrap_or(r.rows);
                rows /= dl.max(dr).max(1.0);
            }
            let mut distinct = l.distinct.clone();
            distinct.extend(r.distinct.iter().copied());
            // Joined rows keep both sides' columns; pad the left lists to
            // its full arity so right-side lists line up positionally.
            let mut mcv = l.mcv.clone();
            mcv.resize(l.distinct.len(), Vec::new());
            mcv.extend(r.mcv.iter().cloned());
            let mut hist = l.hist.clone();
            hist.resize(l.distinct.len(), None);
            hist.extend(r.hist.iter().cloned());
            let mut est = RelEstimate {
                rows,
                distinct,
                mcv,
                hist,
            };
            if let Some(pred) = residual {
                est.rows *= selectivity(pred, &est);
            }
            est.capped()
        }
        Plan::AntiJoin { on, .. } => {
            let (l, r) = (&children[0], &children[1]);
            // Fraction of left rows with no partner; crude but monotone in
            // the right side's coverage of the key domain.
            let survive = if on.is_empty() || r.rows <= 0.0 {
                if r.rows > 0.0 {
                    0.1
                } else {
                    1.0
                }
            } else {
                let covered: f64 = on
                    .iter()
                    .map(|&(lc, rc)| {
                        let dl = l.distinct.get(lc).copied().unwrap_or(l.rows).max(1.0);
                        let dr = r.distinct.get(rc).copied().unwrap_or(r.rows);
                        (dr / dl).min(1.0)
                    })
                    .fold(1.0, f64::min);
                (1.0 - covered).max(0.05)
            };
            RelEstimate {
                rows: l.rows * survive,
                distinct: l.distinct.clone(),
                mcv: l.mcv.clone(),
                hist: l.hist.clone(),
            }
            .capped()
        }
        Plan::Distinct { .. } => {
            let inner = &children[0];
            let combos: f64 = inner
                .distinct
                .iter()
                .fold(1.0f64, |acc, d| (acc * d.max(1.0)).min(inner.rows.max(1.0)));
            let rows = if inner.distinct.is_empty() {
                inner.rows.min(1.0)
            } else {
                inner.rows.min(combos)
            };
            RelEstimate {
                rows,
                distinct: inner.distinct.clone(),
                mcv: Vec::new(),
                hist: Vec::new(),
            }
            .capped()
        }
        Plan::Union { .. } => {
            let mut rows = 0.0;
            let mut distinct: Vec<f64> = Vec::new();
            for e in children {
                rows += e.rows;
                if distinct.is_empty() {
                    distinct = e.distinct.clone();
                } else {
                    for (a, b) in distinct.iter_mut().zip(&e.distinct) {
                        *a += b;
                    }
                }
            }
            RelEstimate {
                rows,
                distinct,
                mcv: Vec::new(),
                hist: Vec::new(),
            }
            .capped()
        }
        Plan::Aggregate { group_by, aggs, .. } => {
            let inner = &children[0];
            let groups: f64 = group_by
                .iter()
                .map(|&g| inner.distinct.get(g).copied().unwrap_or(inner.rows))
                .fold(1.0f64, |acc, d| (acc * d.max(1.0)).min(inner.rows.max(1.0)));
            let rows = if group_by.is_empty() { 1.0 } else { groups };
            let mut distinct: Vec<f64> = group_by
                .iter()
                .map(|&g| inner.distinct.get(g).copied().unwrap_or(rows))
                .collect();
            distinct.extend(aggs.iter().map(|a| match a {
                Agg::Count => rows,
                Agg::Max(c) | Agg::Min(c) => inner.distinct.get(*c).copied().unwrap_or(rows),
            }));
            RelEstimate {
                rows,
                distinct,
                mcv: Vec::new(),
                hist: Vec::new(),
            }
            .capped()
        }
        Plan::Sort { .. } => children[0].clone(),
        Plan::Limit { n, .. } => {
            let inner = &children[0];
            RelEstimate {
                rows: inner.rows.min(*n as f64),
                distinct: inner.distinct.clone(),
                mcv: inner.mcv.clone(),
                hist: inner.hist.clone(),
            }
            .capped()
        }
    }
}

/// Sampled statistics for a literal relation (bounded work per call —
/// temp tables can hold thousands of materialized rows and `estimate`
/// runs on the query path).
fn values_estimate(arity: usize, rows: &[Row]) -> RelEstimate {
    let mut distinct = vec![0.0f64; arity];
    let mut mcv = vec![Vec::new(); arity];
    let mut hist = vec![None; arity];
    if !rows.is_empty() {
        let cap = rows.len().min(SAMPLE_CAP);
        for (c, d) in distinct.iter_mut().enumerate() {
            let seen: HashSet<_> = rows[..cap].iter().map(|r| &r[c]).collect();
            *d = extrapolate_distinct(seen.len(), cap, rows.len());
        }
        mcv = mcv_lists(arity, rows[..cap].iter());
        hist = hist_lists(arity, rows[..cap].iter());
    }
    RelEstimate {
        rows: rows.len() as f64,
        distinct,
        mcv,
        hist,
    }
    .capped()
}

/// Estimated fraction of rows satisfying `pred`, given the input estimate.
pub fn selectivity(pred: &Expr, input: &RelEstimate) -> f64 {
    match pred {
        Expr::Lit(v) => match v {
            crate::value::Value::Bool(true) => 1.0,
            crate::value::Value::Bool(false) => 0.0,
            _ => 1.0,
        },
        Expr::Col(_) => 0.5,
        Expr::Cmp(op, a, b) => {
            let eq = match (a.as_ref(), b.as_ref()) {
                (Expr::Col(c), Expr::Lit(v)) | (Expr::Lit(v), Expr::Col(c)) => {
                    eq_lit_selectivity(*c, v, input)
                }
                (Expr::Col(c1), Expr::Col(c2)) => {
                    let d1 = input.distinct.get(*c1).copied().unwrap_or(10.0);
                    let d2 = input.distinct.get(*c2).copied().unwrap_or(10.0);
                    1.0 / d1.max(d2).max(1.0)
                }
                _ => 0.1,
            };
            match op {
                CmpOp::Eq => eq,
                CmpOp::Ne => (1.0 - eq).max(0.0),
                CmpOp::Lt | CmpOp::Le | CmpOp::Gt | CmpOp::Ge => {
                    range_lit_selectivity(*op, a, b, input)
                }
            }
        }
        Expr::And(parts) => parts.iter().map(|p| selectivity(p, input)).product(),
        Expr::Or(parts) => {
            let miss: f64 = parts.iter().map(|p| 1.0 - selectivity(p, input)).product();
            (1.0 - miss).clamp(0.0, 1.0)
        }
        Expr::Not(inner) => (1.0 - selectivity(inner, input)).clamp(0.0, 1.0),
    }
}

/// Selectivity of `col = literal`: consult the column's most-common-value
/// list first — on skewed (Zipf) columns the hot value covers a large
/// constant fraction that `1/distinct` misses by the skew factor. A value
/// absent from the list gets the residual probability mass spread over
/// the remaining distinct values; columns without a list fall back to the
/// scalar `1/distinct`.
/// Selectivity of a range comparison: when one side is a column with an
/// equi-depth histogram and the other a literal, read the fraction off
/// the histogram's rank function (flipping the operator when the
/// literal is on the left). Anything else — no histogram, column-column,
/// computed operands — keeps the flat `RANGE_SELECTIVITY` guess.
fn range_lit_selectivity(op: CmpOp, a: &Expr, b: &Expr, input: &RelEstimate) -> f64 {
    let (c, v, op) = match (a, b) {
        (Expr::Col(c), Expr::Lit(v)) => (*c, v, op),
        // `lit op col` reads as `col flipped-op lit`.
        (Expr::Lit(v), Expr::Col(c)) => {
            let flipped = match op {
                CmpOp::Lt => CmpOp::Gt,
                CmpOp::Le => CmpOp::Ge,
                CmpOp::Gt => CmpOp::Lt,
                CmpOp::Ge => CmpOp::Le,
                CmpOp::Eq | CmpOp::Ne => op,
            };
            (*c, v, flipped)
        }
        _ => return RANGE_SELECTIVITY,
    };
    let Some(Some(h)) = input.hist.get(c) else {
        return RANGE_SELECTIVITY;
    };
    let frac = match op {
        CmpOp::Lt => h.frac_lt(v),
        CmpOp::Le => h.frac_le(v),
        CmpOp::Gt => 1.0 - h.frac_le(v),
        CmpOp::Ge => 1.0 - h.frac_lt(v),
        CmpOp::Eq | CmpOp::Ne => return RANGE_SELECTIVITY,
    };
    frac.clamp(0.0, 1.0)
}

fn eq_lit_selectivity(c: usize, v: &Value, input: &RelEstimate) -> f64 {
    let d = input.distinct.get(c).copied().unwrap_or(10.0).max(1.0);
    let Some(list) = input.mcv.get(c).filter(|l| !l.is_empty()) else {
        return 1.0 / d;
    };
    if let Some((_, frac)) = list.iter().find(|(val, _)| val == v) {
        return frac.clamp(0.0, 1.0);
    }
    let mass: f64 = list.iter().map(|(_, f)| f).sum();
    let rest = (d - list.len() as f64).max(1.0);
    ((1.0 - mass).max(0.0) / rest).clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::row;
    use crate::schema::TableSchema;

    fn sample_db() -> Database {
        let mut db = Database::new();
        let v = db
            .create_table(TableSchema::keyless("V", &["wid", "tid", "s"]))
            .unwrap();
        v.create_index("by_wid", &["wid"]).unwrap();
        for i in 0..200i64 {
            v.insert(row![i % 10, i, if i % 2 == 0 { "+" } else { "-" }])
                .unwrap();
        }
        let r = db
            .create_table(TableSchema::with_key("R", &["tid", "val"]))
            .unwrap();
        for i in 0..50i64 {
            r.insert(row![i, format!("v{}", i % 5).as_str()]).unwrap();
        }
        db
    }

    #[test]
    fn snapshot_uses_incremental_counters() {
        let db = sample_db();
        let cat = StatsCatalog::snapshot(&db);
        let v = cat.table("V").unwrap();
        assert_eq!(v.rows, 200);
        // wid is covered by a single-column index: exact distinct count.
        assert_eq!(v.distinct[0], 10.0);
        // tid is key-like: sampled estimate should be near the row count.
        assert!(v.distinct[1] > 100.0, "tid distinct {}", v.distinct[1]);
        // s has two values: the sample saturates the domain.
        assert!(v.distinct[2] <= 4.0, "s distinct {}", v.distinct[2]);
        let r = cat.table("R").unwrap();
        // Primary key: exact.
        assert_eq!(r.distinct[0], 50.0);
    }

    #[test]
    fn staleness_tracks_table_versions() {
        let mut db = sample_db();
        let cat = StatsCatalog::snapshot(&db);
        assert!(!cat.is_stale(&db));
        db.table_mut("R").unwrap().insert(row![99i64, "x"]).unwrap();
        assert!(cat.is_stale(&db));
    }

    #[test]
    fn create_index_invalidates_snapshot() {
        let mut db = sample_db();
        let mut cat = StatsCatalog::snapshot(&db);
        // Column 2 of R ("val") has 5 distinct values but is estimated by
        // sampling; creating an index makes the count exact — the snapshot
        // must notice.
        db.table_mut("R")
            .unwrap()
            .create_index("by_val", &["val"])
            .unwrap();
        assert!(cat.is_stale(&db));
        cat.refresh(&db);
        assert_eq!(cat.table("R").unwrap().distinct[1], 5.0);
    }

    #[test]
    fn selection_estimate_shrinks_by_selectivity() {
        let db = sample_db();
        let cat = StatsCatalog::snapshot(&db);
        let scan = Plan::scan("V");
        let full = estimate(&cat, &scan);
        assert_eq!(full.rows, 200.0);
        let sel = scan.select(Expr::col_eq_lit(0, 3i64));
        let est = estimate(&cat, &sel);
        assert!((est.rows - 20.0).abs() < 1.0, "estimated {}", est.rows);
    }

    #[test]
    fn join_estimate_uses_distinct_counts() {
        let db = sample_db();
        let cat = StatsCatalog::snapshot(&db);
        // V ⋈ R on tid = R.tid: tid is key-like on both sides, so the join
        // should estimate ≈ |V| matches at most.
        let plan = Plan::scan("V").join(Plan::scan("R"), vec![(1, 0)]);
        let est = estimate(&cat, &plan);
        assert!(est.rows <= 210.0, "estimated {}", est.rows);
        assert!(est.rows >= 10.0, "estimated {}", est.rows);
        assert_eq!(est.distinct.len(), 5);
    }

    #[test]
    fn union_and_limit_estimates() {
        let db = sample_db();
        let cat = StatsCatalog::snapshot(&db);
        let u = Plan::Union {
            inputs: vec![Plan::scan("R"), Plan::scan("R")],
        };
        assert_eq!(estimate(&cat, &u).rows, 100.0);
        let l = Plan::scan("R").limit(7);
        assert_eq!(estimate(&cat, &l).rows, 7.0);
    }

    #[test]
    fn unknown_relation_gets_default() {
        let cat = StatsCatalog::default();
        let est = estimate(&cat, &Plan::scan("Ghost"));
        assert!(est.rows > 0.0);
    }

    #[test]
    fn mcv_lists_capture_skew_and_skip_key_like_columns() {
        let mut db = Database::new();
        let t = db
            .create_table(TableSchema::keyless("Z", &["k", "u"]))
            .unwrap();
        // Zipf-ish participation: value 0 takes ~60% of the rows, the
        // rest spread over 40 values. Column u is key-like.
        for i in 0..400i64 {
            let k = if i % 5 < 3 { 0 } else { i % 40 };
            t.insert(row![k, i]).unwrap();
        }
        let cat = StatsCatalog::snapshot(&db);
        let stats = cat.table("Z").unwrap();
        let hot = &stats.mcv[0][0];
        assert_eq!(hot.0, Value::int(0));
        assert!(hot.1 > 0.5, "hot-value fraction {} not captured", hot.1);
        assert!(stats.mcv[0].len() <= 8);
        // Key-like column: nothing repeats in the sample, list stays empty.
        assert!(stats.mcv[1].is_empty(), "{:?}", stats.mcv[1]);
    }

    #[test]
    fn equality_selectivity_uses_mcv_on_zipf_columns() {
        let mut db = Database::new();
        let t = db.create_table(TableSchema::keyless("Z", &["k"])).unwrap();
        for i in 0..400i64 {
            let k = if i % 5 < 3 { 0 } else { i % 40 };
            t.insert(row![k]).unwrap();
        }
        let cat = StatsCatalog::snapshot(&db);
        // Hot value: the scalar 1/distinct estimate would price this at
        // ~400/40 = 10 rows; the true answer is 240. The MCV estimate
        // must land near the truth, not off by the skew factor.
        let hot = Plan::scan("Z").select(Expr::col_eq_lit(0, 0i64));
        let est = estimate(&cat, &hot);
        assert!(
            est.rows > 150.0,
            "hot-value estimate {} still off by the skew factor",
            est.rows
        );
        // Uncommon value: stays near the residual-mass estimate, far
        // below the hot value.
        let cold = Plan::scan("Z").select(Expr::col_eq_lit(0, 7i64));
        let cold_est = estimate(&cat, &cold);
        assert!(
            cold_est.rows < est.rows / 5.0,
            "cold {} vs hot {}",
            cold_est.rows,
            est.rows
        );
        // A column with no MCV list falls back to 1/distinct: build the
        // same shape without repetitions in the sample.
        let input = RelEstimate {
            rows: 400.0,
            distinct: vec![40.0],
            mcv: vec![Vec::new()],
            hist: vec![None],
        };
        let sel = selectivity(&Expr::col_eq_lit(0, 3i64), &input);
        assert!((sel - 1.0 / 40.0).abs() < 1e-9);
    }

    #[test]
    fn histograms_price_range_predicates() {
        let mut db = Database::new();
        let t = db.create_table(TableSchema::keyless("U", &["a"])).unwrap();
        // Uniform 0..400: `a < 100` is truly 25% — the flat 1/3 guess
        // the histogram replaces would put it at ~133 rows.
        for i in 0..400i64 {
            t.insert(row![i]).unwrap();
        }
        let cat = StatsCatalog::snapshot(&db);
        let est = |plan: &Plan| estimate(&cat, plan);
        let lt =
            est(&Plan::scan("U").select(Expr::cmp(CmpOp::Lt, Expr::Col(0), Expr::lit(100i64))));
        // The sample covers the first 512 rows — here the whole table —
        // so the estimate should land near the truth, not at 133.
        assert!(
            (est(&Plan::scan("U")).rows - 400.0).abs() < 1e-9,
            "scan estimate moved"
        );
        assert!(
            lt.rows > 60.0 && lt.rows < 140.0,
            "a<100 estimated {} rows, want ~100",
            lt.rows
        );
        // Complements: Ge is the histogram complement of Lt.
        let ge =
            est(&Plan::scan("U").select(Expr::cmp(CmpOp::Ge, Expr::Col(0), Expr::lit(100i64))));
        assert!(
            (lt.rows + ge.rows - 400.0).abs() < 1.0,
            "lt {} + ge {} should cover the table",
            lt.rows,
            ge.rows
        );
        // Out-of-range constants price at (near) zero and the full table.
        let none =
            est(&Plan::scan("U").select(Expr::cmp(CmpOp::Lt, Expr::Col(0), Expr::lit(-5i64))));
        assert!(none.rows < 5.0, "a<-5 estimated {} rows", none.rows);
        let all =
            est(&Plan::scan("U").select(Expr::cmp(CmpOp::Le, Expr::Col(0), Expr::lit(10_000i64))));
        assert!((all.rows - 400.0).abs() < 1.0, "a<=10000 {} rows", all.rows);
        // A literal on the left flips the operator: 100 > a ⇔ a < 100.
        let flipped =
            est(&Plan::scan("U").select(Expr::cmp(CmpOp::Gt, Expr::lit(100i64), Expr::Col(0))));
        assert!((flipped.rows - lt.rows).abs() < 1e-9);
        // No histogram (constant column) keeps the flat fallback.
        let c = db.create_table(TableSchema::keyless("C", &["a"])).unwrap();
        for _ in 0..100 {
            c.insert(row![7i64]).unwrap();
        }
        let cat = StatsCatalog::snapshot(&db);
        assert!(cat.table("C").unwrap().hist[0].is_none());
        let flat = estimate(
            &cat,
            &Plan::scan("C").select(Expr::cmp(CmpOp::Lt, Expr::Col(0), Expr::lit(3i64))),
        );
        assert!(
            (flat.rows - 100.0 * RANGE_SELECTIVITY).abs() < 1e-6,
            "fallback moved: {}",
            flat.rows
        );
    }

    #[test]
    fn histograms_survive_column_preserving_operators() {
        let db = sample_db();
        let cat = StatsCatalog::snapshot(&db);
        // V has 200 rows with tid = 0..200 uniform; project then range.
        let plan = Plan::scan("V").project_cols(&[1]).select(Expr::cmp(
            CmpOp::Lt,
            Expr::Col(0),
            Expr::lit(50i64),
        ));
        let est = estimate(&cat, &plan);
        assert!(
            est.rows > 25.0 && est.rows < 80.0,
            "projected tid<50 estimated {} rows, want ~50",
            est.rows
        );
        // Join concatenation keeps right-side histograms aligned.
        let join = Plan::scan("V").join(Plan::scan("R"), vec![(1, 0)]);
        let est = estimate(&cat, &join);
        assert_eq!(est.hist.len(), 5);
        assert!(est.hist[3].is_some(), "right-side histogram lost");
    }

    #[test]
    fn range_estimates_keep_optimizer_equivalent() {
        // The histogram changes cardinalities, not semantics: an
        // optimized plan with range predicates must return exactly what
        // the unoptimized plan returns.
        let db = sample_db();
        let plan = Plan::scan("V")
            .select(Expr::cmp(CmpOp::Lt, Expr::Col(1), Expr::lit(120i64)))
            .join(
                Plan::scan("R").select(Expr::cmp(CmpOp::Ge, Expr::Col(0), Expr::lit(10i64))),
                vec![(1, 0)],
            )
            .sort(vec![0]);
        let optimized = crate::opt::optimize(&db, plan.clone()).unwrap();
        let a = crate::exec::stream(&db, &plan)
            .unwrap()
            .collect::<crate::error::Result<Vec<_>>>()
            .unwrap();
        let b = crate::exec::stream(&db, &optimized)
            .unwrap()
            .collect::<crate::error::Result<Vec<_>>>()
            .unwrap();
        assert_eq!(a, b);
        assert!(!a.is_empty(), "workload degenerated to empty");
    }

    #[test]
    fn selectivity_composes() {
        let input = RelEstimate {
            rows: 100.0,
            distinct: vec![10.0, 2.0],
            mcv: Vec::new(),
            hist: Vec::new(),
        };
        let eq = Expr::col_eq_lit(0, 1i64);
        assert!((selectivity(&eq, &input) - 0.1).abs() < 1e-9);
        let both = Expr::and(vec![eq.clone(), Expr::col_eq_lit(1, "x")]);
        assert!((selectivity(&both, &input) - 0.05).abs() < 1e-9);
        let either = Expr::or(vec![eq, Expr::col_eq_lit(1, "x")]);
        assert!(selectivity(&either, &input) > 0.5);
    }
}
