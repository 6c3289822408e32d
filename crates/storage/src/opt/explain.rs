//! `EXPLAIN`: a stable, deterministic rendering of a physical plan tree,
//! annotated with estimated cardinalities, the access path the executor
//! will pick (primary-key lookup, secondary-index probe, or scan), and
//! whether each operator pipelines rows or materializes its input under
//! the streaming executor ([`crate::exec::stream`](mod@crate::exec::stream)).
//!
//! Estimates are computed in **one bottom-up pass** shared with the
//! rendering (`EstTree`): every node — in particular every sampled
//! `Values` leaf — is estimated exactly once, so rendering is linear in
//! plan size instead of quadratic.

use super::stats::{combine, RelEstimate, StatsCatalog};
use crate::catalog::Database;
use crate::exec::{
    access_path_note, selection_kernel_label, spill_points, BATCH_SIZE, SPILL_PARTITIONS,
};
use crate::obs::profile::{ProfNode, Profile};
use crate::plan::{Agg, Plan};
use std::rc::Rc;

/// Render a plan as an indented tree. Deterministic: node order follows
/// the plan structure, estimates are integers, and no hash-map iteration
/// is involved. Under a per-query memory `budget` every materialization
/// point (sort, aggregate, distinct, hash-join build) additionally
/// carries a `[spill budget=… partitions=…]` tag showing its share of
/// the budget and the partition fan-out a spill would use.
pub fn render(db: &Database, catalog: &StatsCatalog, plan: &Plan, budget: Option<usize>) -> String {
    let est = EstTree::build(catalog, plan);
    let mut out = String::new();
    render_node(
        db,
        plan,
        &est,
        0,
        &spill_tag(plan, budget),
        &ProfCtx::Off,
        &mut out,
    );
    out
}

/// The `[spill …]` suffix of every materialization point under `budget`
/// (empty without one).
fn spill_tag(plan: &Plan, budget: Option<usize>) -> String {
    budget
        .map(|b| {
            let per_point = b / spill_points(plan).max(1);
            format!(" [spill budget={per_point} partitions={SPILL_PARTITIONS}]")
        })
        .unwrap_or_default()
}

/// Render with a fresh statistics snapshot and no memory budget.
pub fn render_with_snapshot(db: &Database, plan: &Plan) -> String {
    render(db, &StatsCatalog::snapshot(db), plan, None)
}

/// `EXPLAIN ANALYZE`: the [`render`] tree with a ` | actual …`
/// suffix on every line reporting what the executor really did — rows and
/// chunks emitted, inclusive and exclusive wall time, kernel-vs-fallback
/// filter rows, spill bytes / run files / extra passes, and the peak bytes
/// a budgeted build held in memory. Estimates stay on the line (`est=` vs
/// `actual rows=` is the misestimation delta). Operators the executor
/// never opened (a selection fused into its scan, the probed side of an
/// index nested-loop join) render as `| actual fused`. Partial profiles
/// from error-path executions render whatever was counted before the
/// error surfaced.
pub fn render_analyze(
    db: &Database,
    catalog: &StatsCatalog,
    plan: &Plan,
    profile: &Profile,
    budget: Option<usize>,
) -> String {
    let est = EstTree::build(catalog, plan);
    let mut out = String::new();
    let prof = ProfCtx::On(Some(Rc::clone(profile.root())));
    render_node(db, plan, &est, 0, &spill_tag(plan, budget), &prof, &mut out);
    out
}

/// Profile context threaded through the render walk: `Off` for plain
/// `EXPLAIN`, `On(node)` for `EXPLAIN ANALYZE` where the node mirrors the
/// current plan position (`None` = the executor never opened it).
enum ProfCtx {
    Off,
    On(Option<Rc<ProfNode>>),
}

impl ProfCtx {
    fn child(&self, slot: usize) -> ProfCtx {
        match self {
            ProfCtx::Off => ProfCtx::Off,
            ProfCtx::On(n) => ProfCtx::On(n.as_ref().and_then(|n| n.child_at(slot))),
        }
    }
}

fn fmt_nanos(n: u64) -> String {
    if n >= 1_000_000_000 {
        format!("{:.2}s", n as f64 / 1e9)
    } else if n >= 1_000_000 {
        format!("{:.2}ms", n as f64 / 1e6)
    } else if n >= 1_000 {
        format!("{:.1}us", n as f64 / 1e3)
    } else {
        format!("{n}ns")
    }
}

/// The ` | actual …` suffix for one opened operator. Zero-valued optional
/// counters are omitted so lines stay short on the common path.
fn actual_note(node: &ProfNode) -> String {
    let mut s = format!(
        " | actual rows={} chunks={} time={} self={}",
        node.rows_out.get(),
        node.chunks_out.get(),
        fmt_nanos(node.nanos.get()),
        fmt_nanos(node.self_nanos()),
    );
    if node.rows_in.get() > 0 {
        s.push_str(&format!(" rows_in={}", node.rows_in.get()));
    }
    if node.kernel_rows.get() > 0 {
        s.push_str(&format!(" kernel_rows={}", node.kernel_rows.get()));
    }
    if node.fallback_rows.get() > 0 {
        s.push_str(&format!(" fallback_rows={}", node.fallback_rows.get()));
    }
    if node.spill_bytes.get() > 0 || node.spill_partitions.get() > 0 {
        s.push_str(&format!(
            " spill_bytes={} spill_partitions={} spill_passes={}",
            node.spill_bytes.get(),
            node.spill_partitions.get(),
            node.spill_passes.get(),
        ));
    }
    if node.peak_bytes.get() > 0 {
        s.push_str(&format!(" peak_bytes={}", node.peak_bytes.get()));
    }
    s
}

/// Per-node estimates memoized in plan shape: children mirror
/// [`Plan::children`] order.
struct EstTree {
    est: RelEstimate,
    children: Vec<EstTree>,
}

impl EstTree {
    fn build(catalog: &StatsCatalog, plan: &Plan) -> EstTree {
        let children: Vec<EstTree> = plan
            .children()
            .into_iter()
            .map(|c| EstTree::build(catalog, c))
            .collect();
        let child_ests: Vec<RelEstimate> = children.iter().map(|c| c.est.clone()).collect();
        EstTree {
            est: combine(catalog, plan, &child_ests),
            children,
        }
    }
}

fn indent(depth: usize, out: &mut String) {
    for _ in 0..depth {
        out.push_str("  ");
    }
}

fn est_note(est: &EstTree) -> String {
    format!(" (est={})", est.est.rows.round().max(0.0) as u64)
}

/// How the streaming executor evaluates this operator: forwarding rows
/// one at a time, or consuming its whole input first. Joins and
/// anti-joins pipeline their probe (left) side while the build (right)
/// side is materialized into the hash table.
fn exec_note(plan: &Plan) -> &'static str {
    match plan {
        Plan::Scan { .. }
        | Plan::Values { .. }
        | Plan::Selection { .. }
        | Plan::Projection { .. }
        | Plan::Union { .. }
        | Plan::Distinct { .. }
        | Plan::Limit { .. } => " [pipeline]",
        Plan::Join { .. } | Plan::AntiJoin { .. } => " [pipeline; build=right]",
        Plan::Aggregate { .. } | Plan::Sort { .. } => " [materialize]",
    }
}

/// The vectorization annotation: pipelined operators exchange chunks of
/// up to [`BATCH_SIZE`] rows. Scans additionally report the columnar
/// layout — they emit zero-copy windows over the table's column cache
/// rather than cloned row batches. Aggregate and Sort consume chunks
/// but emit materialized output, so they carry no tag of their own; the
/// `Selection` kernel annotation is handled in [`render_node`] because
/// it depends on the access path (an index-served selection runs no
/// filter kernel at all).
fn vectorized_note(plan: &Plan) -> String {
    match plan {
        Plan::Scan { .. } => format!(" [vectorized batch={BATCH_SIZE} layout=columnar]"),
        Plan::Values { .. }
        | Plan::Selection { .. }
        | Plan::Projection { .. }
        | Plan::Union { .. }
        | Plan::Distinct { .. }
        | Plan::Limit { .. }
        | Plan::Join { .. }
        | Plan::AntiJoin { .. } => format!(" [vectorized batch={BATCH_SIZE}]"),
        Plan::Aggregate { .. } | Plan::Sort { .. } => String::new(),
    }
}

fn on_note(on: &[(usize, usize)]) -> String {
    if on.is_empty() {
        return String::new();
    }
    let pairs: Vec<String> = on.iter().map(|(l, r)| format!("#{l}=#{r}")).collect();
    format!(" on [{}]", pairs.join(", "))
}

/// The `[spill …]` tag for this node, or empty when it is not a
/// materialization point (pipelined operators never spill). Every join
/// materializes its right side — keyed joins build a hash table, cross
/// joins buffer the right input — so every join and anti-join is a
/// spill point (the residual-only anti-join's buffered right side
/// overflows to a replayed run, like the cross join's).
fn spill_note<'s>(plan: &Plan, tag: &'s str) -> &'s str {
    match plan {
        Plan::Sort { .. }
        | Plan::Aggregate { .. }
        | Plan::Distinct { .. }
        | Plan::Join { .. }
        | Plan::AntiJoin { .. } => tag,
        _ => "",
    }
}

fn render_node(
    db: &Database,
    plan: &Plan,
    est: &EstTree,
    depth: usize,
    spill_tag: &str,
    prof: &ProfCtx,
    out: &mut String,
) {
    indent(depth, out);
    out.push_str(&node_line(db, plan, est, spill_tag));
    match prof {
        ProfCtx::Off => {}
        ProfCtx::On(Some(n)) => out.push_str(&actual_note(n)),
        ProfCtx::On(None) => out.push_str(" | actual fused"),
    }
    out.push('\n');
    for (slot, (child, child_est)) in plan.children().into_iter().zip(&est.children).enumerate() {
        render_node(
            db,
            child,
            child_est,
            depth + 1,
            spill_tag,
            &prof.child(slot),
            out,
        );
    }
}

/// One operator's line, without indentation, profile suffix, or newline.
fn node_line(db: &Database, plan: &Plan, est: &EstTree, spill_tag: &str) -> String {
    let exec = format!(
        "{}{}{}",
        exec_note(plan),
        vectorized_note(plan),
        spill_note(plan, spill_tag)
    );
    match plan {
        Plan::Scan { table } => {
            let rows = db.table(table).map(|t| t.len()).unwrap_or(0);
            format!("Scan {table} (rows={rows}){exec}")
        }
        Plan::Selection { input, predicate } => {
            let access = match input.as_ref() {
                Plan::Scan { table } => access_path_note(db, table, predicate),
                _ => None,
            };
            // The filter kernel only runs when no index serves the
            // selection — an access-path hit fetches pre-filtered rows
            // and never evaluates the kernel, so report one or the
            // other, not both.
            let exec = match &access {
                Some(_) => exec.clone(),
                None => {
                    // A compiled kernel fused directly over a scan runs
                    // its selection passes on the columnar windows (a
                    // selection vector over primitive column slices);
                    // the row-wise interpreter and non-scan inputs see
                    // row chunks.
                    let kernel = selection_kernel_label(predicate);
                    let layout = match (&kernel, input.as_ref()) {
                        (Some(_), Plan::Scan { .. }) => " layout=columnar",
                        _ => "",
                    };
                    let kernel = kernel.unwrap_or_else(|| "rowwise".to_string());
                    format!(
                        "{} [vectorized batch={BATCH_SIZE} kernel={kernel}{layout}]",
                        exec_note(plan)
                    )
                }
            };
            let access = access.map(|a| format!(" [{a}]")).unwrap_or_default();
            format!("Select {predicate}{access}{}{exec}", est_note(est))
        }
        Plan::Projection { input: _, exprs } => {
            let cols: Vec<String> = exprs.iter().map(|e| e.to_string()).collect();
            format!("Project [{}]{}{exec}", cols.join(", "), est_note(est))
        }
        Plan::Join {
            left: _,
            right,
            on,
            residual,
        } => {
            let res = residual
                .as_ref()
                .map(|r| format!(" where {r}"))
                .unwrap_or_default();
            let probe = join_probe_note(db, right, on);
            format!("Join{}{res}{probe}{}{exec}", on_note(on), est_note(est))
        }
        Plan::AntiJoin { on, residual, .. } => {
            let res = residual
                .as_ref()
                .map(|r| format!(" where {r}"))
                .unwrap_or_default();
            format!("AntiJoin{}{res}{}{exec}", on_note(on), est_note(est))
        }
        Plan::Distinct { .. } => format!("Distinct{}{exec}", est_note(est)),
        Plan::Union { .. } => format!("Union{}{exec}", est_note(est)),
        Plan::Aggregate {
            input: _,
            group_by,
            aggs,
        } => {
            let aggs: Vec<String> = aggs
                .iter()
                .map(|a| match a {
                    Agg::Count => "count".to_string(),
                    Agg::Max(c) => format!("max(#{c})"),
                    Agg::Min(c) => format!("min(#{c})"),
                })
                .collect();
            let groups: Vec<String> = group_by.iter().map(|g| format!("#{g}")).collect();
            format!(
                "Aggregate group=[{}] aggs=[{}]{}{exec}",
                groups.join(", "),
                aggs.join(", "),
                est_note(est)
            )
        }
        Plan::Values { arity, rows } => format!("Values {}x{arity}{exec}", rows.len()),
        Plan::Sort { input: _, by } => {
            // Ascending keys render exactly as before the direction flag
            // existed ("#0"), keeping pinned EXPLAIN output stable.
            let by: Vec<String> = by
                .iter()
                .map(|k| {
                    if k.desc {
                        format!("#{} desc", k.col)
                    } else {
                        format!("#{}", k.col)
                    }
                })
                .collect();
            format!("Sort by [{}]{exec}", by.join(", "))
        }
        Plan::Limit { input: _, n } => format!("Limit {n}{exec}"),
    }
}

/// Annotation when the executor's index-nested-loop join can probe the
/// right side of a join through an index instead of materializing it.
fn join_probe_note(db: &Database, right: &Plan, on: &[(usize, usize)]) -> String {
    if on.is_empty() {
        return String::new();
    }
    let table = match right {
        Plan::Scan { table } => table,
        Plan::Selection { input, .. } => match input.as_ref() {
            Plan::Scan { table } => table,
            _ => return String::new(),
        },
        _ => return String::new(),
    };
    let Ok(t) = db.table(table) else {
        return String::new();
    };
    let rcols: Vec<usize> = on.iter().map(|&(_, rc)| rc).collect();
    if t.schema().key_column() == Some(0) && rcols == [0] {
        return format!(" [probe {table}.pk]");
    }
    if let Some((name, _)) = t.find_index_for(&rcols) {
        return format!(" [probe {table}.{name}]");
    }
    String::new()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Expr;
    use crate::row;
    use crate::schema::TableSchema;

    fn db() -> Database {
        let mut db = Database::new();
        let v = db
            .create_table(TableSchema::keyless("V", &["wid", "tid", "s"]))
            .unwrap();
        v.create_index("by_wid", &["wid"]).unwrap();
        for i in 0..50i64 {
            v.insert(row![i % 5, i, "+"]).unwrap();
        }
        let r = db
            .create_table(TableSchema::with_key("R", &["tid", "val"]))
            .unwrap();
        r.insert(row![1, "x"]).unwrap();
        db
    }

    #[test]
    fn renders_tree_with_estimates() {
        let db = db();
        let plan = Plan::scan("V")
            .select(Expr::col_eq_lit(0, 3i64))
            .join(Plan::scan("R"), vec![(1, 0)])
            .project_cols(&[1, 4]);
        let text = render_with_snapshot(&db, &plan);
        assert!(text.contains("Project"), "{text}");
        assert!(text.contains("Join on [#1=#0]"), "{text}");
        assert!(text.contains("Scan V (rows=50)"), "{text}");
        assert!(text.contains("est="), "{text}");
        // Indentation encodes the tree.
        assert!(text.lines().any(|l| l.starts_with("    ")), "{text}");
    }

    #[test]
    fn annotates_index_and_pk_access() {
        let db = db();
        // Selection pinning the indexed column.
        let sel = Plan::scan("V").select(Expr::col_eq_lit(0, 3i64));
        let text = render_with_snapshot(&db, &sel);
        assert!(text.contains("index"), "{text}");
        // Join probing the primary key.
        let join = Plan::scan("V").join(Plan::scan("R"), vec![(1, 0)]);
        let text = render_with_snapshot(&db, &join);
        assert!(text.contains("[probe R.pk]"), "{text}");
        // Join probing a secondary index.
        let join = Plan::Values {
            arity: 1,
            rows: vec![row![1]],
        }
        .join(Plan::scan("V"), vec![(0, 0)]);
        let text = render_with_snapshot(&db, &join);
        assert!(text.contains("[probe V.by_wid]"), "{text}");
    }

    #[test]
    fn annotates_pipeline_vs_materialization() {
        let db = db();
        let plan = Plan::scan("V")
            .select(Expr::col_eq_lit(2, "+"))
            .join(Plan::scan("R"), vec![(1, 0)])
            .sort(vec![0])
            .limit(3);
        let text = render_with_snapshot(&db, &plan);
        assert!(text.contains("Limit 3 [pipeline]"), "{text}");
        assert!(text.contains("Sort by [#0] [materialize]"), "{text}");
        assert!(text.contains("[pipeline; build=right]"), "{text}");
        assert!(text.contains("Scan R (rows=1) [pipeline]"), "{text}");
        let agg = Plan::Aggregate {
            input: Box::new(Plan::scan("V")),
            group_by: vec![0],
            aggs: vec![Agg::Count],
        };
        let text = render_with_snapshot(&db, &agg);
        assert!(text.contains("[materialize]"), "{text}");
    }

    #[test]
    fn annotates_vectorized_operators_and_batch_size() {
        let db = db();
        let plan = Plan::scan("V")
            .select(Expr::col_eq_lit(1, 3i64))
            .project_cols(&[1])
            .sort(vec![0])
            .limit(3);
        let text = render_with_snapshot(&db, &plan);
        // Pipelined operators carry the batch size; the int-equality
        // selection reports its specialized kernel.
        assert!(
            text.contains("Limit 3 [pipeline] [vectorized batch=1024]"),
            "{text}"
        );
        assert!(text.contains("kernel=eq:int layout=columnar"), "{text}");
        // Scans report the zero-copy columnar window layout.
        assert!(
            text.contains("[vectorized batch=1024 layout=columnar]"),
            "{text}"
        );
        // Materialization points carry no vectorized tag.
        assert!(
            !text.contains("Sort by [#0] [materialize] [vectorized"),
            "{text}"
        );
        // An AND of col-op-lit comparisons fuses into a sequence of
        // kernel passes — and the tag lists them in conjunct order.
        // (Cols 1 and 2 are not covered by any index, so no access path
        // fires.)
        let fused = Plan::scan("V").select(Expr::and(vec![
            Expr::col_eq_lit(1, 2i64),
            Expr::col_eq_lit(2, "+"),
        ]));
        let text = render_with_snapshot(&db, &fused);
        assert!(text.contains("kernel=and[eq:int,eq:str]"), "{text}");
        // Deterministic.
        assert_eq!(text, render_with_snapshot(&db, &fused));
        // A predicate the kernel compiler rejects falls back to the
        // row-wise interpreter — and says so.
        let fallback = Plan::scan("V").select(Expr::or(vec![
            Expr::col_eq_lit(1, 2i64),
            Expr::col_eq_lit(2, "+"),
        ]));
        let text = render_with_snapshot(&db, &fallback);
        assert!(text.contains("kernel=rowwise"), "{text}");
        // An AND with a non-compilable conjunct also falls back.
        let mixed = Plan::scan("V").select(Expr::and(vec![
            Expr::col_eq_lit(1, 2i64),
            Expr::col_eq_col(1, 2),
        ]));
        let text = render_with_snapshot(&db, &mixed);
        assert!(text.contains("kernel=rowwise"), "{text}");
        // An index-served selection runs no filter kernel: the access
        // note and the kernel note are mutually exclusive.
        let indexed = Plan::scan("V").select(Expr::col_eq_lit(0, 3i64));
        let text = render_with_snapshot(&db, &indexed);
        assert!(text.contains("[access=index:by_wid]"), "{text}");
        assert!(!text.contains("kernel="), "{text}");
        assert!(text.contains("[vectorized batch=1024]"), "{text}");
    }

    #[test]
    fn estimates_match_the_recursive_estimator() {
        // The memoized bottom-up pass must agree with `stats::estimate`
        // node-for-node (same formulas, evaluated once each).
        let db = db();
        let catalog = StatsCatalog::snapshot(&db);
        let plan = Plan::scan("V")
            .select(Expr::col_eq_lit(0, 3i64))
            .join(Plan::scan("R"), vec![(1, 0)])
            .distinct();
        let tree = EstTree::build(&catalog, &plan);
        fn walk(catalog: &StatsCatalog, plan: &Plan, tree: &EstTree) {
            assert_eq!(tree.est, super::super::stats::estimate(catalog, plan));
            for (c, t) in plan.children().into_iter().zip(&tree.children) {
                walk(catalog, c, t);
            }
        }
        walk(&catalog, &plan, &tree);
    }

    #[test]
    fn budget_tags_materialization_points_only() {
        let db = db();
        let plan = Plan::scan("V")
            .join(Plan::scan("R"), vec![(1, 0)])
            .distinct()
            .sort(vec![0])
            .limit(3);
        let catalog = StatsCatalog::snapshot(&db);
        // Three spill points (join build, distinct, sort): each gets a
        // third of the budget, and the fan-out is reported.
        let text = render(&db, &catalog, &plan, Some(3 * 4096));
        assert_eq!(text.matches("[spill budget=4096 partitions=16]").count(), 3);
        assert!(
            !text
                .lines()
                .any(|l| l.contains("Limit") && l.contains("spill")),
            "{text}"
        );
        assert!(
            !text
                .lines()
                .any(|l| l.contains("Scan") && l.contains("spill")),
            "{text}"
        );
        // No budget: no tag anywhere.
        assert!(!render(&db, &catalog, &plan, None).contains("spill"));
    }

    #[test]
    fn cross_join_build_is_a_budgeted_spill_point() {
        // A cross join buffers its whole right side, so it counts
        // against the budget and carries the spill tag like the keyed
        // joins do — and so does every anti-join, the residual-only
        // form included (its buffered right side overflows to a
        // replayed run).
        let db = db();
        let catalog = StatsCatalog::snapshot(&db);
        let cross = Plan::scan("V").join(Plan::scan("R"), vec![]);
        let text = render(&db, &catalog, &cross, Some(4096));
        assert!(
            text.lines()
                .any(|l| l.contains("Join") && l.contains("[spill budget=4096")),
            "{text}"
        );
        let anti = Plan::AntiJoin {
            left: Box::new(Plan::scan("V")),
            right: Box::new(Plan::scan("R")),
            on: vec![],
            residual: None,
        };
        let text = render(&db, &catalog, &anti, Some(4096));
        assert!(
            text.lines()
                .any(|l| l.contains("AntiJoin") && l.contains("[spill budget=")),
            "{text}"
        );
    }

    #[test]
    fn output_is_deterministic() {
        let db = db();
        let plan = Plan::scan("V")
            .join(Plan::scan("R"), vec![(1, 0)])
            .distinct();
        let a = render_with_snapshot(&db, &plan);
        let b = render_with_snapshot(&db, &plan);
        assert_eq!(a, b);
    }

    fn profiled(db: &Database, plan: &Plan) -> Profile {
        let exec = crate::exec::Executor::new(db);
        let (stream, profile) = exec.open_chunks_profiled(plan).unwrap();
        stream.collect_rows().unwrap();
        profile
    }

    #[test]
    fn analyze_appends_actuals_per_line() {
        let db = db();
        let plan = Plan::scan("V")
            .select(Expr::col_eq_lit(2, "+"))
            .project_cols(&[1]);
        let profile = profiled(&db, &plan);
        let catalog = StatsCatalog::snapshot(&db);
        let text = render_analyze(&db, &catalog, &plan, &profile, None);
        // Every line carries an actual note.
        assert!(text.lines().all(|l| l.contains("| actual ")), "{text}");
        // The root emitted all 50 rows; the plan structure is unchanged.
        assert!(text.contains("Project [#1]"), "{text}");
        assert!(
            text.lines().next().unwrap().contains("actual rows=50"),
            "{text}"
        );
        assert!(text.contains("time="), "{text}");
        // The string-equality kernel fused the selection into its scan:
        // the scan child was never opened separately.
        assert!(text.contains("| actual fused"), "{text}");
        assert!(text.contains("kernel_rows=50"), "{text}");
    }

    #[test]
    fn analyze_reports_spills_under_budget() {
        let db = db();
        let plan = Plan::scan("V").join(Plan::scan("R").distinct(), vec![(1, 0)]);
        let exec = crate::exec::Executor::with_spill(
            &db,
            crate::exec::SpillOptions {
                budget: Some(1),
                dir: None,
            },
        );
        let (stream, profile) = exec.open_chunks_profiled(&plan).unwrap();
        stream.collect_rows().unwrap();
        let catalog = StatsCatalog::snapshot(&db);
        let text = render_analyze(&db, &catalog, &plan, &profile, Some(1));
        let join_line = text.lines().next().unwrap();
        assert!(join_line.contains("spill_bytes="), "{text}");
        assert!(join_line.contains("spill_partitions="), "{text}");
        assert!(
            join_line.contains("[spill budget=0 partitions=16]"),
            "{text}"
        );
    }

    #[test]
    fn analyze_marks_unopened_probe_side_fused() {
        let db = db();
        // A small left side over indexed V takes the index-nested-loop
        // path: the right child is never opened as an operator, so it
        // renders as fused.
        let plan = Plan::Values {
            arity: 1,
            rows: vec![row![1]],
        }
        .join(Plan::scan("V"), vec![(0, 0)]);
        let profile = profiled(&db, &plan);
        let catalog = StatsCatalog::snapshot(&db);
        let text = render_analyze(&db, &catalog, &plan, &profile, None);
        let scan_v = text
            .lines()
            .find(|l| l.contains("Scan V"))
            .unwrap_or_else(|| panic!("{text}"));
        assert!(scan_v.contains("| actual fused"), "{text}");
    }

    #[test]
    fn analyze_without_budget_matches_plain_structure() {
        let db = db();
        let plan = Plan::scan("V").select(Expr::col_eq_lit(0, 3i64));
        let profile = profiled(&db, &plan);
        let catalog = StatsCatalog::snapshot(&db);
        let analyzed = render_analyze(&db, &catalog, &plan, &profile, None);
        let plain = render(&db, &catalog, &plan, None);
        // Stripping the actual notes recovers the plain rendering.
        let stripped: String = analyzed
            .lines()
            .map(|l| l.split(" | actual ").next().unwrap())
            .collect::<Vec<_>>()
            .join("\n")
            + "\n";
        assert_eq!(stripped, plain);
    }
}
