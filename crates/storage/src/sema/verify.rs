//! The plan / program invariant verifier.
//!
//! [`verify_plan`] is an *independent* re-derivation of the invariants a
//! well-formed plan must satisfy — deliberately not a call into
//! [`Plan::arity`], but its own bottom-up walker whose result is then
//! cross-checked against `Plan::arity`. A rewrite bug, an `arity` bug,
//! or drift between the two all surface as a `BD10x` violation at the
//! rewrite stage that introduced them, instead of as a wrong answer
//! three layers downstream.
//!
//! Invariants checked per operator:
//!
//! - **column resolution**: every column reference in a selection
//!   predicate, projection expression, join key or join residual is
//!   within its input's arity;
//! - **predicate shape**: a selection predicate and a join residual are
//!   boolean-shaped — a comparison, a boolean literal, or an AND / OR /
//!   NOT of boolean-shaped parts — and so is every part of an AND / OR /
//!   NOT anywhere, so evaluation cannot fail;
//! - **schema flow**: arities compose (join output = left + right,
//!   anti-join = left, projection = expression count, union inputs
//!   agree, `Values` rows match the declared arity);
//! - **spill accounting**: the verifier's own count of materialization
//!   points equals [`crate::exec::spill_points`]' — so an operator
//!   added to the executor but forgotten by the budget splitter (or
//!   vice versa) is caught the first time any plan containing it is
//!   verified.
//!
//! [`verify_magic`] checks magic-sets guard well-formedness at the
//! program level (guard first, guard matches the head's adornment,
//! demand relations defined — see the function docs).

use super::{codes, verify_enabled, Diagnostic};
use crate::catalog::Database;
use crate::datalog::{BodyLit, Program, Rule};
use crate::error::{Result, StorageError};
use crate::exec::access::probes_right;
use crate::exec::spill_points;
use crate::expr::Expr;
use crate::opt::magic::MAGIC_PREFIX;
use crate::plan::Plan;
use crate::value::Value;

/// Check every structural invariant of `plan`. `Ok(())` means the plan
/// is well-formed; `Err` carries the first violation as a `BD10x`
/// diagnostic. Pure read-only analysis — never mutates, never panics.
pub fn verify_plan(db: &Database, plan: &Plan) -> std::result::Result<(), Diagnostic> {
    let shape_arity = shape(db, plan)?;
    // Cross-check against the executor-facing validator: the two walkers
    // must agree on both acceptance and arity.
    match plan.arity(db) {
        Ok(a) if a == shape_arity => {}
        Ok(a) => {
            return Err(Diagnostic::error(
                codes::PLAN_SHAPE,
                format!("verifier derives arity {shape_arity} but Plan::arity says {a}"),
            ));
        }
        Err(e) => {
            return Err(Diagnostic::error(
                codes::PLAN_SHAPE,
                format!("verifier accepts the plan but Plan::arity rejects it: {e}"),
            ));
        }
    }
    // Spill accounting: our independent count of materialization points
    // must match the executor's budget splitter.
    let ours = materialization_points(db, plan);
    let theirs = spill_points(db, plan);
    if ours != theirs {
        return Err(Diagnostic::error(
            codes::SPILL_POINTS,
            format!(
                "verifier counts {ours} materialization point(s) but the executor budgets \
                 {theirs}"
            ),
        ));
    }
    Ok(())
}

/// Gate + verify in one call: a single relaxed atomic load when the
/// verifier is disabled (zero allocation — guarded by
/// `tests/obs_overhead.rs`), the full [`verify_plan`] walk when armed.
/// Violations come back as a `PlanError` naming the rewrite `stage`.
#[inline]
pub fn verify_plan_if_enabled(db: &Database, plan: &Plan, stage: &'static str) -> Result<()> {
    if !verify_enabled() {
        return Ok(());
    }
    verify_plan(db, plan).map_err(|d| {
        StorageError::PlanError(format!(
            "verifier violation after `{stage}`: {}",
            d.code_message()
        ))
    })
}

/// The independent bottom-up walker: derive the plan's arity while
/// checking column resolution at every operator.
fn shape(db: &Database, plan: &Plan) -> std::result::Result<usize, Diagnostic> {
    let bad = |msg: String| Err(Diagnostic::error(codes::PLAN_SHAPE, msg));
    match plan {
        Plan::Scan { table } => match db.table(table) {
            Ok(t) => Ok(t.schema().arity()),
            Err(_) => match db.virtual_table(table) {
                Some(vt) => Ok(vt.schema().arity()),
                None => bad(format!("scan of unknown relation `{table}`")),
            },
        },
        Plan::Selection { input, predicate } => {
            let a = shape(db, input)?;
            check_expr(predicate, a, "selection predicate", true)?;
            Ok(a)
        }
        Plan::Projection { input, exprs } => {
            let a = shape(db, input)?;
            for e in exprs {
                check_expr(e, a, "projection expression", false)?;
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
            let la = shape(db, left)?;
            let ra = shape(db, right)?;
            for &(l, r) in on {
                if l >= la || r >= ra {
                    return bad(format!(
                        "join key ({l},{r}) unresolvable against child arities ({la},{ra})"
                    ));
                }
            }
            if let Some(e) = residual {
                check_expr(e, la + ra, "join residual", true)?;
            }
            // Anti-join filters the left side; join concatenates.
            match plan {
                Plan::AntiJoin { .. } => Ok(la),
                _ => Ok(la + ra),
            }
        }
        Plan::Distinct { input } => shape(db, input),
        Plan::Union { inputs } => {
            let mut arity = None;
            for p in inputs {
                let a = shape(db, p)?;
                match arity {
                    None => arity = Some(a),
                    Some(expect) if expect != a => {
                        return bad(format!(
                            "union mixes arities {expect} and {a} across its inputs"
                        ));
                    }
                    Some(_) => {}
                }
            }
            match arity {
                Some(a) => Ok(a),
                None => bad("union with no inputs".into()),
            }
        }
        Plan::Values { arity, rows } => {
            for r in rows {
                if r.arity() != *arity {
                    return bad(format!(
                        "values row of arity {} under declared arity {arity}",
                        r.arity()
                    ));
                }
            }
            Ok(*arity)
        }
    }
}

/// Every column an expression references must resolve at `arity`, and
/// every part that must be a boolean must have a boolean shape: the
/// expression itself when it is a `predicate`, and each part of an AND /
/// OR / NOT wherever one sits.
fn check_expr(
    e: &Expr,
    arity: usize,
    what: &str,
    predicate: bool,
) -> std::result::Result<(), Diagnostic> {
    let bad = |msg: String| Err(Diagnostic::error(codes::PLAN_SHAPE, msg));
    match e {
        Expr::Col(c) if *c >= arity => bad(format!(
            "{what} references column {c} but input arity is {arity}"
        )),
        Expr::Col(_) | Expr::Lit(_) if predicate && !matches!(e, Expr::Lit(Value::Bool(_))) => {
            bad(format!("{what} uses `{e}` where a boolean is needed"))
        }
        Expr::Col(_) | Expr::Lit(_) => Ok(()),
        Expr::Cmp(_, a, b) => {
            check_expr(a, arity, what, false)?;
            check_expr(b, arity, what, false)
        }
        Expr::And(ps) | Expr::Or(ps) => {
            for p in ps {
                check_expr(p, arity, what, true)?;
            }
            Ok(())
        }
        Expr::Not(inner) => check_expr(inner, arity, what, true),
    }
}

/// The verifier's own notion of a materialization point, kept in
/// deliberate lockstep with the contract documented on
/// [`crate::exec::spill_points`]: `Distinct`, `Join`, and
/// `AntiJoin` each hold state, except a join that probes its right side
/// (the same [`probes_right`] the executor asks); everything else
/// pipelines.
fn materialization_points(db: &Database, plan: &Plan) -> usize {
    let own = match plan {
        Plan::Distinct { .. } => true,
        Plan::Join { .. } | Plan::AntiJoin { .. } => !probes_right(db, plan),
        _ => false,
    } as usize;
    own + plan
        .children()
        .into_iter()
        .map(|child| materialization_points(db, child))
        .sum::<usize>()
}

/// Check magic-sets guard well-formedness over a (possibly rewritten)
/// Datalog program. Programs untouched by the rewrite trivially pass.
///
/// Invariants:
///
/// 1. a magic guard in the body of an ordinary (non-magic-head) rule is
///    the **first** body literal — restricted evaluation must start
///    from the demanded keys;
/// 2. that guard names exactly the rule's own head (`R__a` is guarded
///    by `__magic__R__a`), with an adornment drawn from `{b, f}` whose
///    bound-position count equals the guard's arity;
/// 3. magic relations never appear under negation (demand is an
///    over-approximation; negating it would be unsound);
/// 4. every magic relation that is read is defined by some rule (seed
///    or propagation) in the same program.
pub fn verify_magic(program: &Program) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let defined: std::collections::BTreeSet<&str> = program
        .rules
        .iter()
        .map(|r| r.head.relation.as_str())
        .collect();
    for rule in &program.rules {
        let magic_head = rule.head.relation.starts_with(MAGIC_PREFIX);
        if magic_head {
            check_adornment(&rule.head.relation, rule.head.terms.len(), rule, &mut out);
        }
        for (i, lit) in rule.body.iter().enumerate() {
            let atom = match lit {
                BodyLit::Pos(a) | BodyLit::Neg(a) => a,
                BodyLit::Cmp(_) | BodyLit::Or(_) => continue,
            };
            if !atom.relation.starts_with(MAGIC_PREFIX) {
                continue;
            }
            if matches!(lit, BodyLit::Neg(_)) {
                out.push(
                    Diagnostic::error(
                        codes::MAGIC_GUARD,
                        format!("magic relation `{}` appears under negation", atom.relation),
                    )
                    .with_context(format!("rule `{rule}`")),
                );
                continue;
            }
            if !defined.contains(atom.relation.as_str()) {
                out.push(
                    Diagnostic::error(
                        codes::MAGIC_GUARD,
                        format!(
                            "demand relation `{}` is read but never derived",
                            atom.relation
                        ),
                    )
                    .with_context(format!("rule `{rule}`")),
                );
            }
            if magic_head {
                // Demand propagation inside seed rules is unrestricted.
                continue;
            }
            // An ordinary rule reading a magic relation is a restricted
            // copy: the guard is first and names the rule's own head.
            if i != 0 {
                out.push(
                    Diagnostic::error(
                        codes::MAGIC_GUARD,
                        format!(
                            "magic guard `{}` must be the first body literal (found at \
                             position {i})",
                            atom.relation
                        ),
                    )
                    .with_context(format!("rule `{rule}`")),
                );
            }
            let target = &atom.relation[MAGIC_PREFIX.len()..];
            if target != rule.head.relation {
                out.push(
                    Diagnostic::error(
                        codes::MAGIC_GUARD,
                        format!(
                            "magic guard `{}` does not match the rule head `{}`",
                            atom.relation, rule.head.relation
                        ),
                    )
                    .with_context(format!("rule `{rule}`")),
                );
            }
            check_adornment(&atom.relation, atom.terms.len(), rule, &mut out);
        }
    }
    out
}

/// A magic relation's name is `__magic__R__a` with `a` over `{b, f}`;
/// its arity is the number of bound (`b`) positions.
fn check_adornment(name: &str, arity: usize, rule: &Rule, out: &mut Vec<Diagnostic>) {
    let adorn = name.rsplit("__").next().unwrap_or("");
    if adorn.is_empty() || !adorn.bytes().all(|b| b == b'b' || b == b'f') {
        out.push(
            Diagnostic::error(
                codes::MAGIC_GUARD,
                format!("magic relation `{name}` has no `{{b,f}}` adornment suffix"),
            )
            .with_context(format!("rule `{rule}`")),
        );
        return;
    }
    let bound = adorn.bytes().filter(|&b| b == b'b').count();
    if bound != arity {
        out.push(
            Diagnostic::error(
                codes::MAGIC_GUARD,
                format!(
                    "magic relation `{name}` carries {arity} argument(s) but its adornment \
                     binds {bound} position(s)"
                ),
            )
            .with_context(format!("rule `{rule}`")),
        );
    }
}

/// Program-level gate used by the magic rewrite: free when the verifier
/// is disabled, first violation as a `DatalogError` otherwise.
#[inline]
pub(crate) fn verify_magic_if_enabled(program: &Program) -> Result<()> {
    if !verify_enabled() {
        return Ok(());
    }
    match verify_magic(program).into_iter().next() {
        None => Ok(()),
        Some(d) => Err(StorageError::DatalogError(d.code_message())),
    }
}
