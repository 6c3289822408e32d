//! Logical query plans.
//!
//! The plan language is positional: every operator produces rows of a fixed
//! arity and column references are indexes into those rows. It covers
//! exactly the relational algebra the paper's translation needs —
//! selections, projections, equi/theta joins, anti-joins (for the
//! `not exists` consistency checks of Algorithms 2–4), distinct and union.
//! ORDER BY and LIMIT shape a finished answer, outside the plan.

use crate::catalog::Database;
use crate::error::{Result, StorageError};
use crate::expr::Expr;
use crate::row::Row;

/// A logical plan node.
#[derive(Debug, Clone, PartialEq)]
pub enum Plan {
    /// All live rows of a named table.
    Scan { table: String },
    /// Rows of `input` satisfying `predicate`.
    Selection { input: Box<Plan>, predicate: Expr },
    /// Each row of `input` mapped through `exprs`.
    Projection { input: Box<Plan>, exprs: Vec<Expr> },
    /// Join: rows `l ++ r` with `l[a] = r[b]` for each `(a, b)` in `on`,
    /// and optionally satisfying `residual` (evaluated over `l ++ r`).
    Join {
        left: Box<Plan>,
        right: Box<Plan>,
        on: Vec<(usize, usize)>,
        residual: Option<Expr>,
    },
    /// Anti-join: rows of `left` with *no* matching `right` row, where a
    /// match means all `on` pairs are equal and `residual` (over `l ++ r`)
    /// holds. This implements `NOT EXISTS` subqueries.
    AntiJoin {
        left: Box<Plan>,
        right: Box<Plan>,
        on: Vec<(usize, usize)>,
        residual: Option<Expr>,
    },
    /// Duplicate elimination.
    Distinct { input: Box<Plan> },
    /// Bag union of plans with identical arity.
    Union { inputs: Vec<Plan> },
    /// A literal relation.
    Values { arity: usize, rows: Vec<Row> },
}

impl Plan {
    pub fn scan(table: impl Into<String>) -> Plan {
        Plan::Scan {
            table: table.into(),
        }
    }

    pub fn select(self, predicate: Expr) -> Plan {
        Plan::Selection {
            input: Box::new(self),
            predicate,
        }
    }

    pub fn project(self, exprs: Vec<Expr>) -> Plan {
        Plan::Projection {
            input: Box::new(self),
            exprs,
        }
    }

    /// Convenience: projection by column positions.
    pub fn project_cols(self, cols: &[usize]) -> Plan {
        self.project(cols.iter().map(|&c| Expr::Col(c)).collect())
    }

    pub fn join(self, right: Plan, on: Vec<(usize, usize)>) -> Plan {
        Plan::Join {
            left: Box::new(self),
            right: Box::new(right),
            on,
            residual: None,
        }
    }

    pub fn join_where(self, right: Plan, on: Vec<(usize, usize)>, residual: Expr) -> Plan {
        Plan::Join {
            left: Box::new(self),
            right: Box::new(right),
            on,
            residual: Some(residual),
        }
    }

    pub fn anti_join(self, right: Plan, on: Vec<(usize, usize)>) -> Plan {
        Plan::AntiJoin {
            left: Box::new(self),
            right: Box::new(right),
            on,
            residual: None,
        }
    }

    pub fn distinct(self) -> Plan {
        Plan::Distinct {
            input: Box::new(self),
        }
    }

    /// Single-row, zero-column relation — the unit for join chains.
    pub fn unit() -> Plan {
        Plan::Values {
            arity: 0,
            rows: vec![Row::empty()],
        }
    }

    /// Child plans in evaluation order (left before right). Used by the
    /// optimizer's single-pass bottom-up estimation and by `EXPLAIN`.
    pub fn children(&self) -> Vec<&Plan> {
        match self {
            Plan::Scan { .. } | Plan::Values { .. } => Vec::new(),
            Plan::Selection { input, .. }
            | Plan::Projection { input, .. }
            | Plan::Distinct { input } => vec![input],
            Plan::Join { left, right, .. } | Plan::AntiJoin { left, right, .. } => {
                vec![left, right]
            }
            Plan::Union { inputs } => inputs.iter().collect(),
        }
    }

    /// Number of output columns, validated against the catalog. This is
    /// the check a plan passes when it opens: every column an expression
    /// reads is in range, and every predicate is boolean-shaped
    /// (`Expr::non_boolean_part`), so evaluating the plan's expressions
    /// cannot fail.
    pub fn arity(&self, db: &Database) -> Result<usize> {
        match self {
            Plan::Scan { table } => match db.table(table) {
                Ok(t) => Ok(t.schema().arity()),
                // Virtual (`sys.*`) relations scan like base tables.
                Err(e) => db
                    .virtual_table(table)
                    .map(|vt| vt.schema().arity())
                    .ok_or(e),
            },
            Plan::Selection { input, predicate } => {
                let a = input.arity(db)?;
                check_expr(predicate, a, "selection", true)?;
                Ok(a)
            }
            Plan::Projection { input, exprs } => {
                let a = input.arity(db)?;
                for e in exprs {
                    check_expr(e, a, "projection", false)?;
                }
                Ok(exprs.len())
            }
            Plan::Join {
                left,
                right,
                on,
                residual,
            }
            | Plan::AntiJoin {
                left,
                right,
                on,
                residual,
            } => {
                let anti = matches!(self, Plan::AntiJoin { .. });
                let (what, residual_what) = if anti {
                    ("anti-join", "anti-join residual")
                } else {
                    ("join", "join residual")
                };
                let la = left.arity(db)?;
                let ra = right.arity(db)?;
                for &(l, r) in on {
                    if l >= la || r >= ra {
                        return Err(StorageError::PlanError(format!(
                            "{what} key ({l},{r}) out of range for arities ({la},{ra})"
                        )));
                    }
                }
                if let Some(e) = residual {
                    check_expr(e, la + ra, residual_what, true)?;
                }
                Ok(if anti { la } else { la + ra })
            }
            Plan::Distinct { input } => input.arity(db),
            Plan::Union { inputs } => {
                if inputs.is_empty() {
                    return Err(StorageError::PlanError("empty union".into()));
                }
                let a = inputs[0].arity(db)?;
                for p in &inputs[1..] {
                    if p.arity(db)? != a {
                        return Err(StorageError::PlanError("union arity mismatch".into()));
                    }
                }
                Ok(a)
            }
            Plan::Values { arity, rows } => {
                for r in rows {
                    if r.arity() != *arity {
                        return Err(StorageError::PlanError(format!(
                            "values row arity {} does not match declared {arity}",
                            r.arity()
                        )));
                    }
                }
                Ok(*arity)
            }
        }
    }
}

/// Refuse an expression of `what` over `arity` input columns that reads a
/// column out of range or is not boolean-shaped where a boolean is needed
/// (`predicate`: a selection predicate or a join residual).
fn check_expr(e: &Expr, arity: usize, what: &str, predicate: bool) -> Result<()> {
    if let Some(m) = e.max_col().filter(|&m| m >= arity) {
        return Err(StorageError::PlanError(format!(
            "{what} references column {m} but its input arity is {arity}"
        )));
    }
    if let Some(part) = e.non_boolean_part(predicate) {
        return Err(StorageError::PlanError(format!(
            "{what} uses `{part}` where a boolean is needed"
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::row;
    use crate::schema::TableSchema;

    fn db() -> Database {
        let mut db = Database::new();
        db.create_table(TableSchema::with_key("Users", &["uid", "name"]))
            .unwrap();
        db.create_table(TableSchema::keyless("E", &["w1", "u", "w2"]))
            .unwrap();
        db
    }

    #[test]
    fn arities_compose() {
        let db = db();
        assert_eq!(Plan::scan("Users").arity(&db).unwrap(), 2);
        let j = Plan::scan("Users").join(Plan::scan("E"), vec![(0, 1)]);
        assert_eq!(j.arity(&db).unwrap(), 5);
        let p = j.project_cols(&[4, 1]);
        assert_eq!(p.arity(&db).unwrap(), 2);
        assert_eq!(Plan::unit().arity(&db).unwrap(), 0);
    }

    #[test]
    fn selection_validates_columns() {
        let db = db();
        let bad = Plan::scan("Users").select(Expr::col_eq_lit(5, 1));
        assert!(matches!(bad.arity(&db), Err(StorageError::PlanError(_))));
    }

    #[test]
    fn join_validates_keys_and_residual() {
        let db = db();
        let bad = Plan::scan("Users").join(Plan::scan("E"), vec![(2, 0)]);
        assert!(bad.arity(&db).is_err());
        let bad =
            Plan::scan("Users").join_where(Plan::scan("E"), vec![(0, 1)], Expr::col_eq_lit(7, 1));
        assert!(bad.arity(&db).is_err());
        let ok =
            Plan::scan("Users").join_where(Plan::scan("E"), vec![(0, 1)], Expr::col_eq_lit(4, 1));
        assert_eq!(ok.arity(&db).unwrap(), 5);
    }

    #[test]
    fn predicates_must_be_boolean_shaped() {
        let db = db();
        let refused = [
            Plan::scan("Users").select(Expr::col(0)),
            Plan::scan("Users").select(Expr::lit(1)),
            Plan::scan("Users").join_where(Plan::scan("E"), vec![(0, 1)], Expr::col(2)),
            Plan::scan("Users").project(vec![Expr::Not(Box::new(Expr::col(1)))]),
            Plan::scan("Users").select(Expr::cmp(
                crate::expr::CmpOp::Eq,
                Expr::And(vec![Expr::col(0)]),
                Expr::lit(true),
            )),
        ];
        for plan in refused {
            assert!(
                matches!(plan.arity(&db), Err(StorageError::PlanError(m)) if m.contains("where a boolean is needed")),
                "{plan:?}"
            );
        }
        let accepted = [
            Plan::scan("Users").select(Expr::lit(true)),
            Plan::scan("Users").project(vec![Expr::col_eq_lit(0, 1), Expr::lit(2)]),
            Plan::scan("Users").select(Expr::cmp(
                crate::expr::CmpOp::Eq,
                Expr::Not(Box::new(Expr::col_eq_lit(0, 1))),
                Expr::col(1),
            )),
        ];
        for plan in accepted {
            assert!(plan.arity(&db).is_ok(), "{plan:?}");
        }
    }

    #[test]
    fn anti_join_keeps_left_arity() {
        let db = db();
        let p = Plan::scan("Users").anti_join(Plan::scan("E"), vec![(0, 1)]);
        assert_eq!(p.arity(&db).unwrap(), 2);
    }

    #[test]
    fn union_checks_arity() {
        let db = db();
        let ok = Plan::Union {
            inputs: vec![Plan::scan("Users"), Plan::scan("Users")],
        };
        assert_eq!(ok.arity(&db).unwrap(), 2);
        let bad = Plan::Union {
            inputs: vec![Plan::scan("Users"), Plan::scan("E")],
        };
        assert!(bad.arity(&db).is_err());
        let empty = Plan::Union { inputs: vec![] };
        assert!(empty.arity(&db).is_err());
    }

    #[test]
    fn values_validates_rows() {
        let db = db();
        let ok = Plan::Values {
            arity: 2,
            rows: vec![row![1, 2]],
        };
        assert_eq!(ok.arity(&db).unwrap(), 2);
        let bad = Plan::Values {
            arity: 2,
            rows: vec![row![1]],
        };
        assert!(bad.arity(&db).is_err());
    }

    #[test]
    fn unknown_table_is_an_error() {
        let db = db();
        assert!(Plan::scan("Nope").arity(&db).is_err());
    }
}
