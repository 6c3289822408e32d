//! Scalar expressions evaluated against rows.
//!
//! Algorithm 1 of the paper produces conditions with nested disjunctions of
//! (in)equalities over temp-table columns — e.g. for a negative subgoal:
//! `(s = '−' ∧ x̄t = x̄) ∨ (s = '+' ∧ ⋁_j x̄t[j] ≠ x̄[j])`. The expression
//! language here is exactly what that translation needs: column references,
//! literals, the six comparison operators, and AND/OR/NOT.
//!
//! An expression reads its columns from a [`ColumnSource`]: a [`Row`], or
//! cells read in place where no row has been built (an index probe tests a
//! table's heap cells, and the join pair they would form, this way).
//!
//! Evaluation cannot fail. `Plan::arity` checks every expression of a plan
//! when it opens: each column is in range, and each predicate has a
//! boolean shape (`Expr::non_boolean_part`).

use crate::row::Row;
use crate::value::{Cell, Value};
use std::fmt;

/// Where an [`Expr`] reads column `i` from.
pub trait ColumnSource {
    /// The cell in column `i`, borrowed. `i` is in range: the plan that
    /// holds the expression was checked when it opened.
    fn cell(&self, i: usize) -> Cell<'_>;
}

impl ColumnSource for Row {
    fn cell(&self, i: usize) -> Cell<'_> {
        self[i].as_cell()
    }
}

/// Comparison operators (the paper's arithmetic predicates, Def. 13).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

impl CmpOp {
    pub fn eval(self, a: &Value, b: &Value) -> bool {
        self.test(a.as_cell(), b.as_cell())
    }

    /// [`CmpOp::eval`] on borrowed cells, in [`Value`]'s total order.
    pub fn test(self, a: Cell<'_>, b: Cell<'_>) -> bool {
        match self {
            CmpOp::Eq => a == b,
            CmpOp::Ne => a != b,
            CmpOp::Lt => a < b,
            CmpOp::Le => a <= b,
            CmpOp::Gt => a > b,
            CmpOp::Ge => a >= b,
        }
    }

    /// The operator with its operands swapped (`a op b` ⇔ `b op.flip() a`).
    pub fn flip(self) -> CmpOp {
        match self {
            CmpOp::Eq => CmpOp::Eq,
            CmpOp::Ne => CmpOp::Ne,
            CmpOp::Lt => CmpOp::Gt,
            CmpOp::Le => CmpOp::Ge,
            CmpOp::Gt => CmpOp::Lt,
            CmpOp::Ge => CmpOp::Le,
        }
    }
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CmpOp::Eq => "=",
            CmpOp::Ne => "<>",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        };
        write!(f, "{s}")
    }
}

/// A scalar expression over the columns of a row.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Value of the column at this position.
    Col(usize),
    /// A literal constant.
    Lit(Value),
    /// Binary comparison; yields a boolean.
    Cmp(CmpOp, Box<Expr>, Box<Expr>),
    /// Conjunction (empty = true).
    And(Vec<Expr>),
    /// Disjunction (empty = false).
    Or(Vec<Expr>),
    /// Negation.
    Not(Box<Expr>),
}

impl Expr {
    pub fn col(i: usize) -> Expr {
        Expr::Col(i)
    }

    pub fn lit(v: impl Into<Value>) -> Expr {
        Expr::Lit(v.into())
    }

    pub fn cmp(op: CmpOp, a: Expr, b: Expr) -> Expr {
        Expr::Cmp(op, Box::new(a), Box::new(b))
    }

    /// `col_a = col_b`
    pub fn col_eq_col(a: usize, b: usize) -> Expr {
        Expr::cmp(CmpOp::Eq, Expr::Col(a), Expr::Col(b))
    }

    /// `col = literal`
    pub fn col_eq_lit(c: usize, v: impl Into<Value>) -> Expr {
        Expr::cmp(CmpOp::Eq, Expr::Col(c), Expr::lit(v))
    }

    /// Conjunction that collapses trivial cases.
    pub fn and(parts: Vec<Expr>) -> Expr {
        match parts.len() {
            1 => parts.into_iter().next().expect("len checked"),
            _ => Expr::And(parts),
        }
    }

    /// Disjunction that collapses trivial cases.
    pub fn or(parts: Vec<Expr>) -> Expr {
        match parts.len() {
            1 => parts.into_iter().next().expect("len checked"),
            _ => Expr::Or(parts),
        }
    }

    /// Evaluate to a [`Value`].
    pub fn eval<S: ColumnSource + ?Sized>(&self, src: &S) -> Value {
        self.eval_cell(src).to_value()
    }

    /// Evaluate to a cell borrowed from `src` or from this expression.
    fn eval_cell<'a, S: ColumnSource + ?Sized>(&'a self, src: &'a S) -> Cell<'a> {
        match self {
            Expr::Col(i) => src.cell(*i),
            Expr::Lit(v) => v.as_cell(),
            predicate => Cell::Bool(predicate.eval_bool(src)),
        }
    }

    /// Evaluate as a boolean predicate. A bare column or literal counts as
    /// true only if it holds `true`; a plan that would use a non-boolean
    /// one as a predicate is refused when it opens.
    pub fn eval_bool<S: ColumnSource + ?Sized>(&self, src: &S) -> bool {
        match self {
            Expr::Cmp(op, a, b) => op.test(a.eval_cell(src), b.eval_cell(src)),
            Expr::And(parts) => parts.iter().all(|p| p.eval_bool(src)),
            Expr::Or(parts) => parts.iter().any(|p| p.eval_bool(src)),
            Expr::Not(inner) => !inner.eval_bool(src),
            Expr::Col(_) | Expr::Lit(_) => matches!(self.eval_cell(src), Cell::Bool(true)),
        }
    }

    /// The first part of this expression that is not boolean-shaped where
    /// a boolean is needed, or `None` if there is none. A boolean-shaped
    /// expression is a comparison, a boolean literal, or an AND / OR / NOT
    /// of boolean-shaped parts. The expression itself must be one when
    /// `predicate` is set (a selection predicate, a join residual); every
    /// part of an AND / OR / NOT inside it must be one in any case,
    /// comparison operands included.
    pub(crate) fn non_boolean_part(&self, predicate: bool) -> Option<&Expr> {
        match self {
            Expr::Lit(Value::Bool(_)) => None,
            Expr::Col(_) | Expr::Lit(_) => predicate.then_some(self),
            Expr::Cmp(_, a, b) => a
                .non_boolean_part(false)
                .or_else(|| b.non_boolean_part(false)),
            Expr::And(parts) | Expr::Or(parts) => {
                parts.iter().find_map(|p| p.non_boolean_part(true))
            }
            Expr::Not(inner) => inner.non_boolean_part(true),
        }
    }

    /// Largest column index referenced, if any (for arity validation).
    pub fn max_col(&self) -> Option<usize> {
        match self {
            Expr::Col(i) => Some(*i),
            Expr::Lit(_) => None,
            Expr::Cmp(_, a, b) => a.max_col().into_iter().chain(b.max_col()).max(),
            Expr::And(ps) | Expr::Or(ps) => ps.iter().filter_map(|p| p.max_col()).max(),
            Expr::Not(inner) => inner.max_col(),
        }
    }

    /// Rewrite column references through a mapping (`old index -> new index`).
    /// Used when an operator reorders or offsets its input columns.
    pub fn remap_cols(&self, f: &impl Fn(usize) -> usize) -> Expr {
        match self {
            Expr::Col(i) => Expr::Col(f(*i)),
            Expr::Lit(v) => Expr::Lit(v.clone()),
            Expr::Cmp(op, a, b) => Expr::cmp(*op, a.remap_cols(f), b.remap_cols(f)),
            Expr::And(ps) => Expr::And(ps.iter().map(|p| p.remap_cols(f)).collect()),
            Expr::Or(ps) => Expr::Or(ps.iter().map(|p| p.remap_cols(f)).collect()),
            Expr::Not(inner) => Expr::Not(Box::new(inner.remap_cols(f))),
        }
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Col(i) => write!(f, "#{i}"),
            Expr::Lit(v) => match v {
                Value::Str(s) => write!(f, "'{s}'"),
                other => write!(f, "{other}"),
            },
            Expr::Cmp(op, a, b) => write!(f, "({a} {op} {b})"),
            Expr::And(ps) => {
                if ps.is_empty() {
                    return write!(f, "true");
                }
                write!(f, "(")?;
                for (i, p) in ps.iter().enumerate() {
                    if i > 0 {
                        write!(f, " AND ")?;
                    }
                    write!(f, "{p}")?;
                }
                write!(f, ")")
            }
            Expr::Or(ps) => {
                if ps.is_empty() {
                    return write!(f, "false");
                }
                write!(f, "(")?;
                for (i, p) in ps.iter().enumerate() {
                    if i > 0 {
                        write!(f, " OR ")?;
                    }
                    write!(f, "{p}")?;
                }
                write!(f, ")")
            }
            Expr::Not(inner) => write!(f, "NOT {inner}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::row;

    #[test]
    fn cmp_ops() {
        let a = Value::int(1);
        let b = Value::int(2);
        assert!(CmpOp::Lt.eval(&a, &b));
        assert!(CmpOp::Le.eval(&a, &a));
        assert!(CmpOp::Gt.eval(&b, &a));
        assert!(CmpOp::Ge.eval(&b, &b));
        assert!(CmpOp::Eq.eval(&a, &a));
        assert!(CmpOp::Ne.eval(&a, &b));
    }

    #[test]
    fn flip_is_involutive_and_correct() {
        for op in [
            CmpOp::Eq,
            CmpOp::Ne,
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Gt,
            CmpOp::Ge,
        ] {
            assert_eq!(op.flip().flip(), op);
            let a = Value::int(1);
            let b = Value::int(2);
            assert_eq!(op.eval(&a, &b), op.flip().eval(&b, &a));
        }
    }

    #[test]
    fn eval_column_and_literal() {
        let r = row!["s1", "crow", 3];
        assert_eq!(Expr::col(1).eval(&r), Value::str("crow"));
        assert_eq!(Expr::lit(7).eval(&r), Value::int(7));
    }

    #[test]
    fn eval_predicates() {
        let r = row!["s1", "crow", 3];
        assert!(Expr::col_eq_lit(1, "crow").eval_bool(&r));
        assert!(!Expr::col_eq_lit(1, "raven").eval_bool(&r));
        let pred = Expr::and(vec![
            Expr::col_eq_lit(0, "s1"),
            Expr::cmp(CmpOp::Gt, Expr::col(2), Expr::lit(2)),
        ]);
        assert!(pred.eval_bool(&r));
        let pred = Expr::or(vec![
            Expr::col_eq_lit(1, "raven"),
            Expr::col_eq_lit(1, "crow"),
        ]);
        assert!(pred.eval_bool(&r));
        assert!(!Expr::Not(Box::new(Expr::lit(true))).eval_bool(&r));
    }

    #[test]
    fn empty_and_or() {
        let r = row![1];
        assert!(Expr::And(vec![]).eval_bool(&r));
        assert!(!Expr::Or(vec![]).eval_bool(&r));
    }

    #[test]
    fn non_boolean_parts_are_found_anywhere() {
        let not_col = Expr::Not(Box::new(Expr::col(2)));
        assert_eq!(Expr::col(0).non_boolean_part(true), Some(&Expr::col(0)));
        assert_eq!(Expr::lit(1).non_boolean_part(true), Some(&Expr::lit(1)));
        assert_eq!(Expr::lit(true).non_boolean_part(true), None);
        assert_eq!(Expr::col(0).non_boolean_part(false), None);
        // Inside a comparison, an operand may be any value ...
        assert_eq!(Expr::col_eq_lit(0, 1).non_boolean_part(true), None);
        // ... but a NOT, AND or OR needs boolean parts wherever it sits.
        let cmp = Expr::cmp(CmpOp::Eq, not_col, Expr::lit(true));
        assert_eq!(cmp.non_boolean_part(true), Some(&Expr::col(2)));
        let and = Expr::And(vec![Expr::col_eq_lit(0, 1), Expr::lit("x")]);
        assert_eq!(and.non_boolean_part(false), Some(&Expr::lit("x")));
        let or = Expr::Or(vec![Expr::lit(false), Expr::col_eq_col(0, 1)]);
        assert_eq!(Expr::Not(Box::new(or)).non_boolean_part(true), None);
    }

    #[test]
    fn max_col_and_remap() {
        let e = Expr::and(vec![Expr::col_eq_col(1, 4), Expr::col_eq_lit(2, "x")]);
        assert_eq!(e.max_col(), Some(4));
        assert_eq!(Expr::lit(1).max_col(), None);
        let shifted = e.remap_cols(&|i| i + 10);
        assert_eq!(shifted.max_col(), Some(14));
        let r = row![0, "a", "x", 0, "a", 0, 0, 0, 0, 0, 0, "a", "x", 0, "a"];
        assert!(shifted.eval_bool(&r));
    }

    #[test]
    fn display_round_trips_structure() {
        let e = Expr::or(vec![
            Expr::and(vec![Expr::col_eq_lit(4, "-"), Expr::col_eq_col(1, 2)]),
            Expr::cmp(CmpOp::Ne, Expr::col(1), Expr::col(2)),
        ]);
        let s = e.to_string();
        assert!(s.contains("OR"));
        assert!(s.contains("AND"));
        assert!(s.contains("<>"));
    }

    #[test]
    fn nested_disjunction_like_algorithm1() {
        // (s = '-' AND u2 = u AND v2 = v) OR (s = '+' AND (u2 <> u OR v2 <> v))
        // over row layout: [u, v, u2, v2, s]
        let cond = Expr::or(vec![
            Expr::and(vec![
                Expr::col_eq_lit(4, "-"),
                Expr::col_eq_col(2, 0),
                Expr::col_eq_col(3, 1),
            ]),
            Expr::and(vec![
                Expr::col_eq_lit(4, "+"),
                Expr::or(vec![
                    Expr::cmp(CmpOp::Ne, Expr::col(2), Expr::col(0)),
                    Expr::cmp(CmpOp::Ne, Expr::col(3), Expr::col(1)),
                ]),
            ]),
        ]);
        // stated negative: matches
        assert!(cond.eval_bool(&row!["c1", "o1", "c1", "o1", "-"]));
        // unstated negative: same key, different category
        assert!(cond.eval_bool(&row!["c1", "o1", "c2", "o1", "+"]));
        // identical positive: no conflict
        assert!(!cond.eval_bool(&row!["c1", "o1", "c1", "o1", "+"]));
        // different negative: not a match
        assert!(!cond.eval_bool(&row!["c1", "o1", "c2", "o1", "-"]));
    }
}
