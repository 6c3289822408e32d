//! Semantics-preserving rewrite rules over [`Plan`]s.
//!
//! Every rule preserves the output *multiset* (the engine has bag
//! semantics: `Union` is bag union, `Scan` yields duplicates from keyless
//! tables). The rules:
//!
//! * **constant folding** ([`fold_plan`]): comparisons of literals, AND/OR
//!   flattening with identity/absorbing elements, double negation;
//! * **selection pushdown + filter fusion** ([`push_selections`]):
//!   conjuncts sink through projections (by substitution), unions,
//!   distinct, anti-join left inputs, and into join sides; equality
//!   conjuncts that span a join become hash-join keys;
//! * **plan simplification** ([`simplify`]): always-false selections,
//!   empty inputs, singleton-union collapse, nested-union flattening,
//!   duplicate `Distinct`;
//! * **projection fusion and pruning** ([`fuse_projections`],
//!   [`prune_columns`]): adjacent projections compose, and columns that
//!   no later operator reads are dropped before joins materialize them.

use crate::catalog::Database;
use crate::error::Result;
use crate::expr::Expr;
use crate::plan::Plan;
use crate::row::Row;
use crate::value::Value;
use std::collections::BTreeSet;

// ---------------------------------------------------------------------------
// Expression helpers
// ---------------------------------------------------------------------------

/// Constant-fold an expression.
pub fn fold_expr(e: &Expr) -> Expr {
    match e {
        Expr::Col(_) | Expr::Lit(_) => e.clone(),
        Expr::Cmp(op, a, b) => {
            let a = fold_expr(a);
            let b = fold_expr(b);
            if let (Expr::Lit(va), Expr::Lit(vb)) = (&a, &b) {
                return Expr::Lit(Value::Bool(op.eval(va, vb)));
            }
            Expr::cmp(*op, a, b)
        }
        Expr::And(parts) => {
            let mut out = Vec::with_capacity(parts.len());
            for p in parts {
                match fold_expr(p) {
                    Expr::Lit(Value::Bool(true)) => {}
                    Expr::Lit(Value::Bool(false)) => return Expr::Lit(Value::Bool(false)),
                    Expr::And(nested) => out.extend(nested),
                    other => out.push(other),
                }
            }
            match out.len() {
                0 => Expr::Lit(Value::Bool(true)),
                1 => out.pop().expect("len checked"),
                _ => Expr::And(out),
            }
        }
        Expr::Or(parts) => {
            let mut out = Vec::with_capacity(parts.len());
            for p in parts {
                match fold_expr(p) {
                    Expr::Lit(Value::Bool(false)) => {}
                    Expr::Lit(Value::Bool(true)) => return Expr::Lit(Value::Bool(true)),
                    Expr::Or(nested) => out.extend(nested),
                    other => out.push(other),
                }
            }
            match out.len() {
                0 => Expr::Lit(Value::Bool(false)),
                1 => out.pop().expect("len checked"),
                _ => Expr::Or(out),
            }
        }
        Expr::Not(inner) => match fold_expr(inner) {
            Expr::Lit(Value::Bool(b)) => Expr::Lit(Value::Bool(!b)),
            Expr::Not(x) => *x,
            other => Expr::Not(Box::new(other)),
        },
    }
}

/// Flatten a conjunction into its top-level conjuncts.
pub fn split_and(e: &Expr) -> Vec<Expr> {
    match e {
        Expr::And(parts) => parts.iter().flat_map(split_and).collect(),
        other => vec![other.clone()],
    }
}

/// Rebuild a predicate from conjuncts (`true` when empty).
pub fn join_and(mut conjuncts: Vec<Expr>) -> Expr {
    match conjuncts.len() {
        0 => Expr::Lit(Value::Bool(true)),
        1 => conjuncts.pop().expect("len checked"),
        _ => Expr::And(conjuncts),
    }
}

/// Columns referenced by an expression.
pub fn cols_of(e: &Expr) -> BTreeSet<usize> {
    let mut out = BTreeSet::new();
    collect_cols(e, &mut out);
    out
}

fn collect_cols(e: &Expr, out: &mut BTreeSet<usize>) {
    match e {
        Expr::Col(i) => {
            out.insert(*i);
        }
        Expr::Lit(_) => {}
        Expr::Cmp(_, a, b) => {
            collect_cols(a, out);
            collect_cols(b, out);
        }
        Expr::And(ps) | Expr::Or(ps) => {
            for p in ps {
                collect_cols(p, out);
            }
        }
        Expr::Not(inner) => collect_cols(inner, out),
    }
}

/// Substitute column references by the projection expressions that produce
/// them (pushing a predicate below `Projection { exprs }`).
pub fn subst_expr(e: &Expr, exprs: &[Expr]) -> Expr {
    match e {
        Expr::Col(i) => exprs[*i].clone(),
        Expr::Lit(v) => Expr::Lit(v.clone()),
        Expr::Cmp(op, a, b) => Expr::cmp(*op, subst_expr(a, exprs), subst_expr(b, exprs)),
        Expr::And(ps) => Expr::And(ps.iter().map(|p| subst_expr(p, exprs)).collect()),
        Expr::Or(ps) => Expr::Or(ps.iter().map(|p| subst_expr(p, exprs)).collect()),
        Expr::Not(inner) => Expr::Not(Box::new(subst_expr(inner, exprs))),
    }
}

fn is_true(e: &Expr) -> bool {
    matches!(e, Expr::Lit(Value::Bool(true)))
}

// ---------------------------------------------------------------------------
// Constant folding over plans
// ---------------------------------------------------------------------------

/// Apply [`fold_expr`] to every predicate and projection expression.
///
/// Takes the plan by value (as do all rules in this module): unchanged
/// subtrees — in particular materialized `Values` relations, which hold
/// real rows — move instead of being cloned, keeping optimization cost
/// independent of intermediate-result sizes.
pub fn fold_plan(plan: Plan) -> Plan {
    match plan {
        Plan::Scan { .. } | Plan::Values { .. } => plan,
        Plan::Selection { input, predicate } => Plan::Selection {
            input: Box::new(fold_plan(*input)),
            predicate: fold_expr(&predicate),
        },
        Plan::Projection { input, exprs } => Plan::Projection {
            input: Box::new(fold_plan(*input)),
            exprs: exprs.iter().map(fold_expr).collect(),
        },
        Plan::Join {
            left,
            right,
            on,
            residual,
        } => Plan::Join {
            left: Box::new(fold_plan(*left)),
            right: Box::new(fold_plan(*right)),
            on,
            residual: residual.as_ref().map(fold_expr).filter(|e| !is_true(e)),
        },
        Plan::AntiJoin {
            left,
            right,
            on,
            residual,
        } => Plan::AntiJoin {
            left: Box::new(fold_plan(*left)),
            right: Box::new(fold_plan(*right)),
            on,
            residual: residual.as_ref().map(fold_expr).filter(|e| !is_true(e)),
        },
        Plan::Distinct { input } => Plan::Distinct {
            input: Box::new(fold_plan(*input)),
        },
        Plan::Union { inputs } => Plan::Union {
            inputs: inputs.into_iter().map(fold_plan).collect(),
        },
    }
}

// ---------------------------------------------------------------------------
// Selection pushdown
// ---------------------------------------------------------------------------

/// Push selections as close to the leaves as bag semantics allow, fusing
/// adjacent filters and promoting spanning equality conjuncts to join keys.
pub fn push_selections(db: &Database, plan: Plan) -> Result<Plan> {
    match plan {
        Plan::Selection { input, predicate } => {
            let input = push_selections(db, *input)?;
            sink(db, input, split_and(&predicate))
        }
        Plan::Join {
            left,
            right,
            on,
            residual,
        } => {
            let left = push_selections(db, *left)?;
            let right = push_selections(db, *right)?;
            let shell = Plan::Join {
                left: Box::new(left),
                right: Box::new(right),
                on,
                residual: None,
            };
            let conjuncts = match residual {
                Some(r) => split_and(&r),
                None => Vec::new(),
            };
            sink(db, shell, conjuncts)
        }
        Plan::AntiJoin {
            left,
            right,
            on,
            residual,
        } => Ok(Plan::AntiJoin {
            left: Box::new(push_selections(db, *left)?),
            right: Box::new(push_selections(db, *right)?),
            on,
            residual,
        }),
        Plan::Projection { input, exprs } => Ok(Plan::Projection {
            input: Box::new(push_selections(db, *input)?),
            exprs,
        }),
        Plan::Distinct { input } => Ok(Plan::Distinct {
            input: Box::new(push_selections(db, *input)?),
        }),
        Plan::Union { inputs } => Ok(Plan::Union {
            inputs: inputs
                .into_iter()
                .map(|p| push_selections(db, p))
                .collect::<Result<_>>()?,
        }),
        Plan::Scan { .. } | Plan::Values { .. } => Ok(plan),
    }
}

/// Sink `conjuncts` into `input` as deep as possible. `input` has already
/// been rewritten by [`push_selections`]. Every conjunct can move: the
/// plan passed [`Plan::arity`], so none of them can fail to evaluate.
fn sink(db: &Database, input: Plan, mut conjuncts: Vec<Expr>) -> Result<Plan> {
    conjuncts.retain(|c| !is_true(c));
    if conjuncts.is_empty() {
        return Ok(input);
    }
    match input {
        // Filter fusion: merge into the lower selection and keep sinking.
        Plan::Selection {
            input: inner,
            predicate,
        } => {
            conjuncts.extend(split_and(&predicate));
            sink(db, *inner, conjuncts)
        }
        // σ over ∪ distributes into every branch.
        Plan::Union { inputs } => Ok(Plan::Union {
            inputs: inputs
                .into_iter()
                .map(|p| sink(db, p, conjuncts.clone()))
                .collect::<Result<_>>()?,
        }),
        // σ and δ commute under bag semantics.
        Plan::Distinct { input: inner } => Ok(Plan::Distinct {
            input: Box::new(sink(db, *inner, conjuncts)?),
        }),
        // σ over π: substitute the projection expressions into the
        // predicate and push the rewritten predicate below.
        Plan::Projection {
            input: inner,
            exprs,
        } => {
            let rewritten: Vec<Expr> = conjuncts
                .iter()
                .map(|c| fold_expr(&subst_expr(c, &exprs)))
                .collect();
            Ok(Plan::Projection {
                input: Box::new(sink(db, *inner, rewritten)?),
                exprs,
            })
        }
        // An anti-join emits a subset of its left rows, so every conjunct
        // refers to left columns and can filter the left input first.
        Plan::AntiJoin {
            left,
            right,
            on,
            residual,
        } => Ok(Plan::AntiJoin {
            left: Box::new(sink(db, *left, conjuncts)?),
            right,
            on,
            residual,
        }),
        Plan::Join {
            left,
            right,
            on,
            residual,
        } => {
            let la = left.arity(db)?;
            let mut on = on;
            let mut to_left: Vec<Expr> = Vec::new();
            let mut to_right: Vec<Expr> = Vec::new();
            let mut residuals: Vec<Expr> = match residual {
                Some(r) => split_and(&r),
                None => Vec::new(),
            };
            for c in conjuncts {
                let cols = cols_of(&c);
                if let Some(pair) = spanning_eq_key(&c, la) {
                    if !on.contains(&pair) {
                        on.push(pair);
                    }
                    continue;
                }
                if cols.iter().all(|&i| i < la) {
                    to_left.push(c);
                } else if cols.iter().all(|&i| i >= la) {
                    to_right.push(c.remap_cols(&|i| i - la));
                } else {
                    residuals.push(c);
                }
            }
            let left = if to_left.is_empty() {
                *left
            } else {
                sink(db, *left, to_left)?
            };
            let right = if to_right.is_empty() {
                *right
            } else {
                sink(db, *right, to_right)?
            };
            residuals.retain(|c| !is_true(c));
            Ok(Plan::Join {
                left: Box::new(left),
                right: Box::new(right),
                on,
                residual: if residuals.is_empty() {
                    None
                } else {
                    Some(join_and(residuals))
                },
            })
        }
        // Literal relations can be filtered right now.
        Plan::Values { arity, mut rows } => {
            let pred = join_and(conjuncts);
            rows.retain(|r| pred.eval_bool(r));
            Ok(Plan::Values { arity, rows })
        }
        // Scans keep their selection on top: the executor turns it into an
        // index lookup when the predicate pins indexed columns.
        scan @ Plan::Scan { .. } => Ok(Plan::Selection {
            input: Box::new(scan),
            predicate: join_and(conjuncts),
        }),
    }
}

/// `col_a = col_b` with the columns on opposite sides of a join at split
/// point `la` becomes a hash-join key `(left_col, right_col)`.
fn spanning_eq_key(e: &Expr, la: usize) -> Option<(usize, usize)> {
    if let Expr::Cmp(crate::expr::CmpOp::Eq, a, b) = e {
        if let (Expr::Col(x), Expr::Col(y)) = (a.as_ref(), b.as_ref()) {
            if *x < la && *y >= la {
                return Some((*x, *y - la));
            }
            if *y < la && *x >= la {
                return Some((*y, *x - la));
            }
        }
    }
    None
}

// ---------------------------------------------------------------------------
// Simplification: empties, always-false, unions
// ---------------------------------------------------------------------------

fn is_empty_values(p: &Plan) -> bool {
    matches!(p, Plan::Values { rows, .. } if rows.is_empty())
}

/// The 0-column, 1-row unit relation ([`Plan::unit`]) — the identity of
/// cross joins.
fn is_unit_values(p: &Plan) -> bool {
    matches!(p, Plan::Values { arity: 0, rows } if rows.len() == 1)
}

fn empty_of(arity: usize) -> Plan {
    Plan::Values {
        arity,
        rows: Vec::new(),
    }
}

/// Structural simplification, applied bottom-up.
pub fn simplify(db: &Database, plan: Plan) -> Result<Plan> {
    let plan = match plan {
        Plan::Scan { .. } | Plan::Values { .. } => plan,
        Plan::Selection { input, predicate } => Plan::Selection {
            input: Box::new(simplify(db, *input)?),
            predicate,
        },
        Plan::Projection { input, exprs } => Plan::Projection {
            input: Box::new(simplify(db, *input)?),
            exprs,
        },
        Plan::Join {
            left,
            right,
            on,
            residual,
        } => Plan::Join {
            left: Box::new(simplify(db, *left)?),
            right: Box::new(simplify(db, *right)?),
            on,
            residual,
        },
        Plan::AntiJoin {
            left,
            right,
            on,
            residual,
        } => Plan::AntiJoin {
            left: Box::new(simplify(db, *left)?),
            right: Box::new(simplify(db, *right)?),
            on,
            residual,
        },
        Plan::Distinct { input } => Plan::Distinct {
            input: Box::new(simplify(db, *input)?),
        },
        Plan::Union { inputs } => Plan::Union {
            inputs: inputs
                .into_iter()
                .map(|p| simplify(db, p))
                .collect::<Result<_>>()?,
        },
    };

    Ok(match plan {
        // Always-false elimination / no-op selection removal. Beyond the
        // literal `false`, `sema`'s constraint analysis proves
        // conjunctive contradictions (`x = 1 AND x = 2`, empty ranges)
        // empty — those selections fold to an empty relation and the
        // emptiness propagates upward like any other.
        Plan::Selection { input, predicate } => {
            if matches!(predicate, Expr::Lit(Value::Bool(false)))
                || crate::sema::expr_contradictory(&predicate)
            {
                empty_of(input.arity(db)?)
            } else if is_true(&predicate) || is_empty_values(&input) {
                *input
            } else {
                Plan::Selection { input, predicate }
            }
        }
        Plan::Projection { input, exprs } => {
            if is_empty_values(&input) {
                empty_of(exprs.len())
            } else {
                Plan::Projection { input, exprs }
            }
        }
        Plan::Join {
            left,
            right,
            on,
            residual,
        } => {
            if is_empty_values(&left) || is_empty_values(&right) {
                empty_of(left.arity(db)? + right.arity(db)?)
            } else if is_unit_values(&left) && on.is_empty() {
                // unit ⨯ R = R (join chains start from the 0-column unit
                // relation); a residual becomes a plain selection since the
                // unit side contributes no columns.
                match residual {
                    Some(pred) => Plan::Selection {
                        input: right,
                        predicate: pred,
                    },
                    None => *right,
                }
            } else if is_unit_values(&right) && on.is_empty() {
                match residual {
                    Some(pred) => Plan::Selection {
                        input: left,
                        predicate: pred,
                    },
                    None => *left,
                }
            } else {
                Plan::Join {
                    left,
                    right,
                    on,
                    residual,
                }
            }
        }
        Plan::AntiJoin {
            left,
            right,
            on,
            residual,
        } => {
            // An empty left side *is* the result; an empty right side (with
            // no residual) filters nothing, so the left side passes through.
            if is_empty_values(&left) || (is_empty_values(&right) && residual.is_none()) {
                *left
            } else {
                Plan::AntiJoin {
                    left,
                    right,
                    on,
                    residual,
                }
            }
        }
        Plan::Distinct { input } => match *input {
            // δδ = δ
            inner @ Plan::Distinct { .. } => inner,
            inner if is_empty_values(&inner) => inner,
            inner => Plan::Distinct {
                input: Box::new(inner),
            },
        },
        Plan::Union { inputs } => {
            // Flatten nested unions, drop empty branches, collapse
            // singletons.
            let mut flat: Vec<Plan> = Vec::with_capacity(inputs.len());
            let mut arity = None;
            for p in inputs {
                if arity.is_none() {
                    arity = Some(p.arity(db)?);
                }
                match p {
                    Plan::Union { inputs: nested } => {
                        flat.extend(nested.into_iter().filter(|q| !is_empty_values(q)))
                    }
                    q if is_empty_values(&q) => {}
                    q => flat.push(q),
                }
            }
            match flat.len() {
                0 => empty_of(arity.unwrap_or(0)),
                1 => flat.pop().expect("len checked"),
                _ => Plan::Union { inputs: flat },
            }
        }
        other => other,
    })
}

// ---------------------------------------------------------------------------
// Projection fusion and column pruning
// ---------------------------------------------------------------------------

/// Compose adjacent projections (`π_f ∘ π_g = π_{f∘g}`) and evaluate
/// projections of literal relations eagerly.
pub fn fuse_projections(plan: Plan) -> Plan {
    let rebuilt = match plan {
        Plan::Scan { .. } | Plan::Values { .. } => plan,
        Plan::Selection { input, predicate } => Plan::Selection {
            input: Box::new(fuse_projections(*input)),
            predicate,
        },
        Plan::Projection { input, exprs } => Plan::Projection {
            input: Box::new(fuse_projections(*input)),
            exprs,
        },
        Plan::Join {
            left,
            right,
            on,
            residual,
        } => Plan::Join {
            left: Box::new(fuse_projections(*left)),
            right: Box::new(fuse_projections(*right)),
            on,
            residual,
        },
        Plan::AntiJoin {
            left,
            right,
            on,
            residual,
        } => Plan::AntiJoin {
            left: Box::new(fuse_projections(*left)),
            right: Box::new(fuse_projections(*right)),
            on,
            residual,
        },
        Plan::Distinct { input } => Plan::Distinct {
            input: Box::new(fuse_projections(*input)),
        },
        Plan::Union { inputs } => Plan::Union {
            inputs: inputs.into_iter().map(fuse_projections).collect(),
        },
    };
    match rebuilt {
        Plan::Projection { input, exprs } => match *input {
            Plan::Projection {
                input: inner,
                exprs: inner_exprs,
            } => Plan::Projection {
                input: inner,
                exprs: exprs
                    .iter()
                    .map(|e| fold_expr(&subst_expr(e, &inner_exprs)))
                    .collect(),
            },
            // Literal relations are projected right now.
            Plan::Values { rows, .. } => Plan::Values {
                arity: exprs.len(),
                rows: rows
                    .iter()
                    .map(|r| Row::new(exprs.iter().map(|e| e.eval(r))))
                    .collect(),
            },
            inner => Plan::Projection {
                input: Box::new(inner),
                exprs,
            },
        },
        other => other,
    }
}

/// Drop columns nothing above reads: for every projection, narrow the
/// subtree underneath to the columns the projection (and the operators
/// inside the subtree) actually use.
pub fn prune_columns(db: &Database, plan: Plan) -> Result<Plan> {
    let rebuilt = match plan {
        Plan::Scan { .. } | Plan::Values { .. } => plan,
        Plan::Selection { input, predicate } => Plan::Selection {
            input: Box::new(prune_columns(db, *input)?),
            predicate,
        },
        Plan::Projection { input, exprs } => {
            let input = prune_columns(db, *input)?;
            let input_arity = input.arity(db)?;
            let mut needed = BTreeSet::new();
            for e in &exprs {
                needed.extend(cols_of(e));
            }
            if needed.len() < input_arity {
                let (pruned, kept) = prune(db, input, &needed)?;
                let pos = |old: usize| -> usize {
                    kept.iter()
                        .position(|&k| k == old)
                        .expect("needed col kept")
                };
                let exprs = exprs.iter().map(|e| e.remap_cols(&pos)).collect();
                Plan::Projection {
                    input: Box::new(pruned),
                    exprs,
                }
            } else {
                Plan::Projection {
                    input: Box::new(input),
                    exprs,
                }
            }
        }
        Plan::Join {
            left,
            right,
            on,
            residual,
        } => Plan::Join {
            left: Box::new(prune_columns(db, *left)?),
            right: Box::new(prune_columns(db, *right)?),
            on,
            residual,
        },
        Plan::AntiJoin {
            left,
            right,
            on,
            residual,
        } => Plan::AntiJoin {
            left: Box::new(prune_columns(db, *left)?),
            right: Box::new(prune_columns(db, *right)?),
            on,
            residual,
        },
        Plan::Distinct { input } => Plan::Distinct {
            input: Box::new(prune_columns(db, *input)?),
        },
        Plan::Union { inputs } => Plan::Union {
            inputs: inputs
                .into_iter()
                .map(|p| prune_columns(db, p))
                .collect::<Result<_>>()?,
        },
    };
    Ok(rebuilt)
}

/// Narrow `plan` to (at least) the columns in `needed`. Returns the new
/// plan and the ascending list of *original* column indices it retains.
/// Nodes that cannot be narrowed safely (scans — narrowing would hide the
/// executor's index access paths — plus distinct/anti-join barriers) are
/// returned unchanged with the identity retention list.
fn prune(db: &Database, plan: Plan, needed: &BTreeSet<usize>) -> Result<(Plan, Vec<usize>)> {
    let identity = |p: Plan| -> Result<(Plan, Vec<usize>)> {
        let keep = (0..p.arity(db)?).collect();
        Ok((p, keep))
    };
    match plan {
        Plan::Values { arity, rows } => {
            let keep: Vec<usize> = needed.iter().copied().filter(|&c| c < arity).collect();
            if keep.len() == arity {
                return identity(Plan::Values { arity, rows });
            }
            let rows = rows
                .iter()
                .map(|r| r.project(&keep))
                .collect::<Result<Vec<_>>>()?;
            Ok((
                Plan::Values {
                    arity: keep.len(),
                    rows,
                },
                keep,
            ))
        }
        Plan::Projection { input, exprs } => {
            let keep: Vec<usize> = needed
                .iter()
                .copied()
                .filter(|&c| c < exprs.len())
                .collect();
            if keep.len() == exprs.len() {
                return identity(Plan::Projection { input, exprs });
            }
            let kept_exprs: Vec<Expr> = keep.iter().map(|&c| exprs[c].clone()).collect();
            let mut inner_needed = BTreeSet::new();
            for e in &kept_exprs {
                inner_needed.extend(cols_of(e));
            }
            let (inner, inner_keep) = prune(db, *input, &inner_needed)?;
            let pos = |old: usize| -> usize {
                inner_keep
                    .iter()
                    .position(|&k| k == old)
                    .expect("needed col kept")
            };
            let kept_exprs = kept_exprs.iter().map(|e| e.remap_cols(&pos)).collect();
            Ok((
                Plan::Projection {
                    input: Box::new(inner),
                    exprs: kept_exprs,
                },
                keep,
            ))
        }
        Plan::Selection { input, predicate } => {
            let mut inner_needed = needed.clone();
            inner_needed.extend(cols_of(&predicate));
            let (inner, keep) = prune(db, *input, &inner_needed)?;
            let pos = |old: usize| -> usize {
                keep.iter()
                    .position(|&k| k == old)
                    .expect("needed col kept")
            };
            let predicate = predicate.remap_cols(&pos);
            Ok((
                Plan::Selection {
                    input: Box::new(inner),
                    predicate,
                },
                keep,
            ))
        }
        Plan::Join {
            left,
            right,
            on,
            residual,
        } => {
            let la = left.arity(db)?;
            let mut needed_left: BTreeSet<usize> =
                needed.iter().copied().filter(|&c| c < la).collect();
            let mut needed_right: BTreeSet<usize> = needed
                .iter()
                .filter(|&&c| c >= la)
                .map(|&c| c - la)
                .collect();
            for &(lc, rc) in &on {
                needed_left.insert(lc);
                needed_right.insert(rc);
            }
            if let Some(r) = &residual {
                for c in cols_of(r) {
                    if c < la {
                        needed_left.insert(c);
                    } else {
                        needed_right.insert(c - la);
                    }
                }
            }
            let (lp, lkeep) = prune(db, *left, &needed_left)?;
            let (rp, rkeep) = prune(db, *right, &needed_right)?;
            let new_la = lkeep.len();
            let lpos = |old: usize| -> usize {
                lkeep
                    .iter()
                    .position(|&k| k == old)
                    .expect("needed col kept")
            };
            let rpos = |old: usize| -> usize {
                rkeep
                    .iter()
                    .position(|&k| k == old)
                    .expect("needed col kept")
            };
            let on = on.iter().map(|&(lc, rc)| (lpos(lc), rpos(rc))).collect();
            let residual = residual.as_ref().map(|r| {
                r.remap_cols(&|c| {
                    if c < la {
                        lpos(c)
                    } else {
                        new_la + rpos(c - la)
                    }
                })
            });
            let mut keep = lkeep;
            keep.extend(rkeep.into_iter().map(|c| c + la));
            Ok((
                Plan::Join {
                    left: Box::new(lp),
                    right: Box::new(rp),
                    on,
                    residual,
                },
                keep,
            ))
        }
        Plan::Union { inputs } => {
            // All branches share an arity (validated before optimization).
            let arity = match inputs.first() {
                Some(p) => p.arity(db)?,
                None => 0,
            };
            let keep: Vec<usize> = needed.iter().copied().filter(|&c| c < arity).collect();
            if keep.len() == arity {
                return identity(Plan::Union { inputs });
            }
            let mut branches = Vec::with_capacity(inputs.len());
            for p in inputs {
                let (bp, bkeep) = prune(db, p, needed)?;
                if bkeep == keep {
                    branches.push(bp);
                } else {
                    // The branch retained extra columns: align it with an
                    // explicit projection.
                    let pos = |old: usize| -> usize {
                        bkeep
                            .iter()
                            .position(|&k| k == old)
                            .expect("needed col kept")
                    };
                    branches.push(Plan::Projection {
                        input: Box::new(bp),
                        exprs: keep.iter().map(|&c| Expr::Col(pos(c))).collect(),
                    });
                }
            }
            Ok((Plan::Union { inputs: branches }, keep))
        }
        // Barriers and scans: left untouched.
        other => identity(other),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::execute;
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
        e.insert(row![0, 1, 1]).unwrap();
        e.insert(row![0, 2, 2]).unwrap();
        e.insert(row![1, 2, 2]).unwrap();
        e.insert(row![2, 1, 3]).unwrap();
        db
    }

    fn assert_equivalent(db: &Database, original: &Plan, rewritten: &Plan) {
        let mut a = execute(db, original).unwrap();
        let mut b = execute(db, rewritten).unwrap();
        a.sort();
        b.sort();
        assert_eq!(
            a, b,
            "rewrite changed semantics\n  orig: {original:?}\n  new: {rewritten:?}"
        );
    }

    #[test]
    fn constant_folding_collapses_literals() {
        let e = Expr::and(vec![
            Expr::cmp(CmpOp::Eq, Expr::lit(1), Expr::lit(1)),
            Expr::col_eq_lit(0, 2),
            Expr::Or(vec![]),
        ]);
        // true AND (#0 = 2) AND false => false
        assert_eq!(fold_expr(&e), Expr::Lit(Value::Bool(false)));

        let e = Expr::and(vec![
            Expr::cmp(CmpOp::Lt, Expr::lit(1), Expr::lit(2)),
            Expr::col_eq_lit(0, 2),
        ]);
        assert_eq!(fold_expr(&e), Expr::col_eq_lit(0, 2));

        let e = Expr::Not(Box::new(Expr::Not(Box::new(Expr::col_eq_lit(1, "x")))));
        assert_eq!(fold_expr(&e), Expr::col_eq_lit(1, "x"));
    }

    #[test]
    fn selection_pushes_through_join() {
        let db = db();
        let original = Plan::scan("Users")
            .join(Plan::scan("E"), vec![(0, 1)])
            .select(Expr::and(vec![
                Expr::col_eq_lit(1, "Bob"),
                Expr::col_eq_lit(2, 0i64),
            ]));
        let pushed = push_selections(&db, original.clone()).unwrap();
        // Both conjuncts moved below the join.
        if let Plan::Join {
            left,
            right,
            residual,
            ..
        } = &pushed
        {
            assert!(residual.is_none());
            assert!(matches!(left.as_ref(), Plan::Selection { .. }));
            assert!(matches!(right.as_ref(), Plan::Selection { .. }));
        } else {
            panic!("expected a join at the top, got {pushed:?}");
        }
        assert_equivalent(&db, &original, &pushed);
    }

    #[test]
    fn spanning_equality_becomes_join_key() {
        let db = db();
        let original = Plan::scan("Users")
            .join(Plan::scan("E"), vec![])
            .select(Expr::col_eq_col(0, 3));
        let pushed = push_selections(&db, original.clone()).unwrap();
        if let Plan::Join { on, residual, .. } = &pushed {
            assert_eq!(on, &vec![(0, 1)]);
            assert!(residual.is_none());
        } else {
            panic!("expected a join, got {pushed:?}");
        }
        assert_equivalent(&db, &original, &pushed);
    }

    #[test]
    fn selection_distributes_over_union_and_fuses() {
        let db = db();
        let original = Plan::Union {
            inputs: vec![
                Plan::scan("E"),
                Plan::scan("E").select(Expr::col_eq_lit(0, 0)),
            ],
        }
        .select(Expr::col_eq_lit(1, 2))
        .select(Expr::col_eq_lit(2, 2));
        let pushed = push_selections(&db, original.clone()).unwrap();
        if let Plan::Union { inputs } = &pushed {
            for branch in inputs {
                // Every branch is a single fused selection over the scan.
                let Plan::Selection { input, predicate } = branch else {
                    panic!("expected selection, got {branch:?}");
                };
                assert!(matches!(input.as_ref(), Plan::Scan { .. }));
                assert!(matches!(predicate, Expr::And(_)));
            }
        } else {
            panic!("expected union, got {pushed:?}");
        }
        assert_equivalent(&db, &original, &pushed);
    }

    #[test]
    fn selection_pushes_below_projection_by_substitution() {
        let db = db();
        let original = Plan::scan("Users")
            .project(vec![Expr::Col(1), Expr::Col(0)])
            .select(Expr::col_eq_lit(0, "Bob"));
        let pushed = push_selections(&db, original.clone()).unwrap();
        if let Plan::Projection { input, .. } = &pushed {
            let Plan::Selection { predicate, .. } = input.as_ref() else {
                panic!("selection did not sink below projection: {pushed:?}");
            };
            assert_eq!(predicate, &Expr::col_eq_lit(1, "Bob"));
        } else {
            panic!("expected projection on top, got {pushed:?}");
        }
        assert_equivalent(&db, &original, &pushed);
    }

    #[test]
    fn selection_filters_literal_relations_eagerly() {
        let db = db();
        let original = Plan::Values {
            arity: 2,
            rows: vec![row![1, "a"], row![2, "b"], row![1, "c"]],
        }
        .select(Expr::col_eq_lit(0, 1));
        let pushed = push_selections(&db, original.clone()).unwrap();
        assert_eq!(
            pushed,
            Plan::Values {
                arity: 2,
                rows: vec![row![1, "a"], row![1, "c"]]
            }
        );
    }

    #[test]
    fn always_false_selection_becomes_empty() {
        let db = db();
        let original = Plan::scan("E").select(Expr::Lit(Value::Bool(false)));
        let simplified = simplify(&db, fold_plan(original.clone())).unwrap();
        assert_eq!(
            simplified,
            Plan::Values {
                arity: 3,
                rows: vec![]
            }
        );
        assert_equivalent(&db, &original, &simplified);
    }

    #[test]
    fn empty_inputs_propagate() {
        let db = db();
        let empty = Plan::Values {
            arity: 3,
            rows: vec![],
        };
        let join = Plan::scan("Users").join(empty.clone(), vec![(0, 1)]);
        let s = simplify(&db, join).unwrap();
        assert_eq!(
            s,
            Plan::Values {
                arity: 5,
                rows: vec![]
            }
        );

        // Anti-join against a provably empty right side is the left side.
        let aj = Plan::scan("Users").anti_join(empty, vec![(0, 1)]);
        let s = simplify(&db, aj).unwrap();
        assert_eq!(s, Plan::scan("Users"));
    }

    #[test]
    fn singleton_union_collapses_and_nested_unions_flatten() {
        let db = db();
        let u = Plan::Union {
            inputs: vec![
                Plan::Union {
                    inputs: vec![
                        Plan::scan("E"),
                        Plan::Values {
                            arity: 3,
                            rows: vec![],
                        },
                    ],
                },
                Plan::Values {
                    arity: 3,
                    rows: vec![],
                },
            ],
        };
        let s = simplify(&db, u).unwrap();
        assert_eq!(s, Plan::scan("E"));
    }

    #[test]
    fn unit_cross_join_is_identity() {
        let db = db();
        let j = Plan::unit().join(Plan::scan("E"), vec![]);
        assert_eq!(simplify(&db, j).unwrap(), Plan::scan("E"));
        let j = Plan::scan("E").join(Plan::unit(), vec![]);
        assert_eq!(simplify(&db, j).unwrap(), Plan::scan("E"));
        // With a residual the unit join becomes a plain selection.
        let j = Plan::unit().join_where(Plan::scan("E"), vec![], Expr::col_eq_lit(0, 0));
        let s = simplify(&db, j.clone()).unwrap();
        assert_eq!(s, Plan::scan("E").select(Expr::col_eq_lit(0, 0)));
        assert_equivalent(&db, &j, &s);
    }

    #[test]
    fn double_distinct_collapses() {
        let db = db();
        let d = Plan::scan("E").distinct().distinct();
        let s = simplify(&db, d).unwrap();
        assert_eq!(s, Plan::scan("E").distinct());
    }

    #[test]
    fn adjacent_projections_fuse() {
        let db = db();
        let original = Plan::scan("E")
            .project(vec![Expr::Col(2), Expr::Col(1), Expr::Col(0)])
            .project(vec![Expr::Col(2), Expr::Col(0)]);
        let fused = fuse_projections(original.clone());
        if let Plan::Projection { input, exprs } = &fused {
            assert!(matches!(input.as_ref(), Plan::Scan { .. }));
            assert_eq!(exprs, &vec![Expr::Col(0), Expr::Col(2)]);
        } else {
            panic!("expected fused projection, got {fused:?}");
        }
        assert_equivalent(&db, &original, &fused);
    }

    #[test]
    fn projection_of_values_evaluates() {
        let fused = fuse_projections(
            Plan::Values {
                arity: 2,
                rows: vec![row![1, "a"], row![2, "b"]],
            }
            .project(vec![Expr::Col(1)]),
        );
        assert_eq!(
            fused,
            Plan::Values {
                arity: 1,
                rows: vec![row!["a"], row!["b"]]
            }
        );
    }

    #[test]
    fn pruning_narrows_values_under_joins() {
        let db = db();
        // T has a wide literal relation; only column 0 feeds the join and
        // only Users.name survives the projection.
        let t = Plan::Values {
            arity: 4,
            rows: vec![row![1, "x", "pad1", 10], row![2, "y", "pad2", 20]],
        };
        let original = t.join(Plan::scan("Users"), vec![(0, 0)]).project_cols(&[5]);
        let pruned = prune_columns(&db, original.clone()).unwrap();
        // The literal relation inside must have shrunk to one column.
        fn find_values_arity(p: &Plan) -> Option<usize> {
            match p {
                Plan::Values { arity, .. } => Some(*arity),
                Plan::Projection { input, .. }
                | Plan::Selection { input, .. }
                | Plan::Distinct { input } => find_values_arity(input),
                Plan::Join { left, right, .. } | Plan::AntiJoin { left, right, .. } => {
                    find_values_arity(left).or_else(|| find_values_arity(right))
                }
                Plan::Union { inputs } => inputs.iter().find_map(find_values_arity),
                _ => None,
            }
        }
        assert_eq!(find_values_arity(&pruned), Some(1));
        assert_equivalent(&db, &original, &pruned);
    }

    #[test]
    fn pruning_keeps_scans_intact() {
        let db = db();
        let original = Plan::scan("E")
            .join(Plan::scan("Users"), vec![(1, 0)])
            .project_cols(&[4]);
        let pruned = prune_columns(&db, original.clone()).unwrap();
        // Both scans survive unwrapped (so the executor's index paths keep
        // applying); the plan is unchanged.
        assert_eq!(pruned, original);
    }
}
