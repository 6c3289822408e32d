//! # The query optimizer
//!
//! A cost-based optimizer sitting between plan construction (hand-built
//! plans, or the Datalog compiler in [`crate::datalog`]) and execution
//! ([`crate::exec`]). The paper's prototype leans on SQL Server's
//! optimizer for the plans Algorithm 1 emits; this module is the
//! from-scratch counterpart.
//!
//! The pipeline:
//!
//! 1. **constant folding** — literal comparisons collapse, AND/OR
//!    normalize ([`rules::fold_plan`]);
//! 2. **selection pushdown & filter fusion** — predicates sink toward
//!    leaves, spanning equalities become hash-join keys
//!    ([`rules::push_selections`]);
//! 3. **simplification** — always-false selections, empty inputs,
//!    singleton unions ([`rules::simplify`]);
//! 4. **join reordering** — greedy cardinality ordering driven by the
//!    [`stats::StatsCatalog`], index-aware ([`join_order::reorder_joins`]);
//! 5. **projection fusion & column pruning** ([`rules::fuse_projections`],
//!    [`rules::prune_columns`]);
//!
//! then pushdown and simplification run once more to clean up what the
//! reorder exposed. Every rewrite preserves the output multiset, so
//! optimized and unoptimized execution agree row-for-row (the
//! `optimizer_equivalence` differential suite asserts exactly this).
//!
//! [`explain::render`] produces the deterministic plan tree used by
//! BeliefSQL's `EXPLAIN`.
//!
//! One pass operates a level above plans: [`magic::rewrite`] makes whole
//! Datalog programs demand-driven (adornment, sideways information
//! passing, magic seed relations) before their rules are compiled, so
//! bound queries derive only the tuples they can reach.

pub mod explain;
pub mod join_order;
pub mod magic;
pub mod rules;
pub mod stats;

pub use explain::{render, render_analyze, render_with_snapshot};
pub use stats::{combine, estimate, selectivity, Histogram, RelEstimate, StatsCatalog, TableStats};

use crate::catalog::Database;
use crate::error::Result;
use crate::plan::Plan;

/// Optimize a plan against a fresh statistics snapshot.
///
/// Plans are taken by value: the pipeline moves unchanged subtrees (in
/// particular materialized `Values` relations) instead of cloning them,
/// so optimization cost does not scale with intermediate-result sizes.
pub fn optimize(db: &Database, plan: Plan) -> Result<Plan> {
    optimize_with_stats(db, &StatsCatalog::snapshot(db), plan)
}

/// Optimize a plan with an explicit statistics snapshot (callers issuing
/// many queries against an unchanged database can reuse one snapshot; see
/// [`StatsCatalog::is_stale`] and [`StatsCatalog::refresh`]). The
/// pipeline is fixed: the passes listed in the module doc, in that
/// order.
pub fn optimize_with_stats(db: &Database, catalog: &StatsCatalog, plan: Plan) -> Result<Plan> {
    // Validate before rewriting: the rules assume a well-formed plan.
    plan.arity(db)?;
    let mut p = plan;
    // With the verifier armed (always under `debug_assertions`, or via
    // `\set verify on` in release), every rewrite pass is followed by a
    // full invariant check — a rule bug surfaces as a `BD10x` violation
    // naming the pass that introduced it, not as a wrong answer
    // downstream. Each call is a single atomic load when disabled.
    p = rules::fold_plan(p);
    crate::sema::verify_plan_if_enabled(db, &p, "fold")?;
    p = rules::push_selections(db, p)?;
    crate::sema::verify_plan_if_enabled(db, &p, "pushdown")?;
    p = rules::simplify(db, p)?;
    crate::sema::verify_plan_if_enabled(db, &p, "simplify")?;
    p = join_order::reorder_joins(db, catalog, p)?;
    crate::sema::verify_plan_if_enabled(db, &p, "reorder_joins")?;
    // The reorder introduces selections for residual predicates; push
    // them toward the new leaf positions.
    p = rules::push_selections(db, p)?;
    crate::sema::verify_plan_if_enabled(db, &p, "pushdown_after_reorder")?;
    p = rules::fuse_projections(p);
    p = rules::prune_columns(db, p)?;
    p = rules::fuse_projections(p);
    crate::sema::verify_plan_if_enabled(db, &p, "prune_columns")?;
    p = rules::simplify(db, p)?;
    crate::sema::verify_plan_if_enabled(db, &p, "final_simplify")?;
    // The rewritten plan must still validate — a cheap guard against rule
    // bugs corrupting arities.
    p.arity(db)?;
    Ok(p)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::execute;
    use crate::expr::Expr;
    use crate::row;
    use crate::schema::TableSchema;

    fn db() -> Database {
        let mut db = Database::new();
        let v = db
            .create_table(TableSchema::keyless("V", &["wid", "tid", "s"]))
            .unwrap();
        v.create_index("by_wid", &["wid"]).unwrap();
        for i in 0..300i64 {
            v.insert(row![i % 15, i % 60, if i % 3 == 0 { "+" } else { "-" }])
                .unwrap();
        }
        let r = db
            .create_table(TableSchema::with_key("R", &["tid", "val"]))
            .unwrap();
        for i in 0..60i64 {
            r.insert(row![i, format!("v{i}").as_str()]).unwrap();
        }
        let probe = db
            .create_table(TableSchema::keyless("Probe", &["w"]))
            .unwrap();
        probe.insert(row![3]).unwrap();
        probe.insert(row![14]).unwrap();
        db
    }

    #[test]
    fn full_pipeline_preserves_semantics() {
        let db = db();
        let plan = Plan::scan("V")
            .join(Plan::scan("R"), vec![(1, 0)])
            .join(Plan::scan("Probe"), vec![(0, 0)])
            .select(Expr::and(vec![
                Expr::col_eq_lit(2, "+"),
                Expr::cmp(crate::expr::CmpOp::Ne, Expr::Col(4), Expr::lit("v0")),
            ]))
            .project_cols(&[0, 1, 4])
            .distinct();
        let optimized = optimize(&db, plan.clone()).unwrap();
        let mut a = execute(&db, &plan).unwrap();
        let mut b = execute(&db, &optimized).unwrap();
        a.sort();
        b.sort();
        assert_eq!(a, b);
    }

    #[test]
    fn optimize_rejects_malformed_plans() {
        let db = db();
        let bad = Plan::scan("V").select(Expr::col_eq_lit(9, 1));
        assert!(optimize(&db, bad).is_err());
        assert!(optimize(&db, Plan::scan("Ghost")).is_err());
    }

    #[test]
    fn optimized_plans_validate() {
        let db = db();
        let plan = Plan::scan("V")
            .join(Plan::scan("R"), vec![(1, 0)])
            .select(Expr::col_eq_lit(0, 3i64))
            .project_cols(&[3, 4]);
        let optimized = optimize(&db, plan.clone()).unwrap();
        assert!(optimized.arity(&db).is_ok());
        assert_eq!(optimized.arity(&db).unwrap(), 2);
    }

    #[test]
    fn optimization_is_deterministic() {
        let db = db();
        let plan = Plan::scan("V")
            .join(Plan::scan("R"), vec![(1, 0)])
            .join(Plan::scan("Probe"), vec![(0, 0)]);
        assert_eq!(
            optimize(&db, plan.clone()).unwrap(),
            optimize(&db, plan).unwrap()
        );
    }
}
