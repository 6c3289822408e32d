//! The Datalog program linter and the shared contradiction analysis.
//!
//! [`lint_program`] walks a translated program and reports every
//! statically detectable problem as a [`Diagnostic`] — in a fixed,
//! deterministic order (program order first, then per-rule checks in
//! program order, unused rules last; within a rule, variables in first-
//! occurrence order), so lint output is byte-identical across runs and
//! safe to snapshot in tests.
//!
//! [`expr_contradictory`] is the same conjunctive-constraint analysis
//! applied to plan predicates; `opt::rules::simplify` uses it to fold
//! provably-false selections to an empty `Values`. Both analyses are
//! *sound*, never complete: ignoring a constraint only widens the set
//! of rows they consider satisfiable, so "contradictory" always means
//! "derives zero rows" (the fuzzed property in `tests/sema.rs`).

use super::{codes, read_before_defined, Diagnostic};
use crate::catalog::Database;
use crate::datalog::{BodyLit, CmpLit, Program, Rule, Term};
use crate::expr::{CmpOp, Expr};
use crate::value::Value;
use std::collections::{BTreeMap, BTreeSet};

/// Lint a Datalog program against `db`. Read-only; diagnostics come
/// back in a deterministic order (see the module docs).
pub fn lint_program(db: &Database, program: &Program) -> Vec<Diagnostic> {
    let mut out = read_before_defined(program);
    for rule in &program.rules {
        lint_rule(db, rule, &mut out);
    }
    lint_unused(program, &mut out);
    out
}

/// BD005: a head relation nothing reads, other than the answer (the
/// last rule's head). One warning per relation, at its first defining
/// rule.
fn lint_unused(program: &Program, out: &mut Vec<Diagnostic>) {
    let Some(answer) = program.rules.last().map(|r| r.head.relation.as_str()) else {
        return;
    };
    let read: BTreeSet<&str> = program
        .rules
        .iter()
        .flat_map(|r| r.body.iter())
        .filter_map(|lit| match lit {
            BodyLit::Pos(a) | BodyLit::Neg(a) => Some(a.relation.as_str()),
            BodyLit::Cmp(_) | BodyLit::Or(_) => None,
        })
        .collect();
    let mut warned: BTreeSet<&str> = BTreeSet::new();
    for rule in &program.rules {
        let head = rule.head.relation.as_str();
        if head != answer && !read.contains(head) && warned.insert(head) {
            out.push(
                Diagnostic::warning(
                    codes::UNUSED_RULE,
                    format!("rule derives `{head}` but no rule reads it and it is not the answer"),
                )
                .with_context(format!("rule `{rule}`")),
            );
        }
    }
}

/// Per-rule checks: safety (BD001), type mismatches (BD003), provable
/// emptiness (BD004), singleton variables (BD006).
fn lint_rule(db: &Database, rule: &Rule, out: &mut Vec<Diagnostic>) {
    let ctx = || format!("rule `{rule}`");

    // Variables bound by a positive body atom — the only binders.
    let mut bound: BTreeSet<&str> = BTreeSet::new();
    for lit in &rule.body {
        if let BodyLit::Pos(a) = lit {
            for t in &a.terms {
                if let Term::Var(v) = t {
                    bound.insert(v.as_str());
                }
            }
        }
    }

    // Every variable in first-occurrence order, with occurrence counts.
    let mut order: Vec<&str> = Vec::new();
    let mut occurrences: BTreeMap<&str, usize> = BTreeMap::new();
    for t in rule_terms(rule) {
        if let Term::Var(v) = t {
            let n = occurrences.entry(v.as_str()).or_insert(0);
            if *n == 0 {
                order.push(v.as_str());
            }
            *n += 1;
        }
    }

    // BD001 — safety / range restriction: head, negation, and
    // comparison variables all need a positive binding.
    let mut flagged: BTreeSet<&str> = BTreeSet::new();
    for t in &rule.head.terms {
        if let Term::Var(v) = t {
            if !bound.contains(v.as_str()) && flagged.insert(v) {
                out.push(
                    Diagnostic::error(
                        codes::UNSAFE_RULE,
                        format!("head variable `{v}` is not bound by any positive body atom"),
                    )
                    .with_context(ctx()),
                );
            }
        }
    }
    for lit in &rule.body {
        let vars: Vec<&str> = match lit {
            BodyLit::Pos(_) => continue,
            BodyLit::Neg(a) => a
                .terms
                .iter()
                .filter_map(|t| match t {
                    Term::Var(v) => Some(v.as_str()),
                    _ => None,
                })
                .collect(),
            BodyLit::Cmp(c) => cmp_vars(c),
            BodyLit::Or(groups) => groups.iter().flatten().flat_map(cmp_vars).collect(),
        };
        let what = match lit {
            BodyLit::Neg(_) => "negated atom",
            _ => "comparison",
        };
        for v in vars {
            if !bound.contains(v) && flagged.insert(v) {
                out.push(
                    Diagnostic::error(
                        codes::UNSAFE_RULE,
                        format!("variable `{v}` in a {what} has no positive binding"),
                    )
                    .with_context(ctx()),
                );
            }
        }
    }

    // BD003 — type evidence per variable: base-table column samples at
    // the positions the variable is bound, plus constants it is
    // compared against. Two distinct kinds is a (dynamically legal but
    // almost surely unintended) mixed-type comparison.
    let mut evidence: BTreeMap<&str, BTreeSet<Kind>> = BTreeMap::new();
    for lit in &rule.body {
        if let BodyLit::Pos(a) = lit {
            for (i, t) in a.terms.iter().enumerate() {
                if let (Term::Var(v), Some(k)) = (t, sample_kind(db, &a.relation, i)) {
                    evidence.entry(v.as_str()).or_default().insert(k);
                }
            }
        }
    }
    for c in rule_cmps(rule) {
        if let (Term::Var(v), Term::Const(k)) | (Term::Const(k), Term::Var(v)) = (&c.left, &c.right)
        {
            if let Some(kind) = Kind::of(k) {
                evidence.entry(v.as_str()).or_default().insert(kind);
            }
        }
        if let (Term::Const(a), Term::Const(b)) = (&c.left, &c.right) {
            if let (Some(ka), Some(kb)) = (Kind::of(a), Kind::of(b)) {
                if ka != kb {
                    out.push(
                        Diagnostic::warning(
                            codes::TYPE_MISMATCH,
                            format!("comparison `{c}` mixes {ka} and {kb}"),
                        )
                        .with_context(ctx()),
                    );
                }
            }
        }
    }
    for v in &order {
        if let Some(kinds) = evidence.get(v) {
            if kinds.len() > 1 {
                let rendered: Vec<String> = kinds.iter().map(|k| k.to_string()).collect();
                out.push(
                    Diagnostic::warning(
                        codes::TYPE_MISMATCH,
                        format!(
                            "variable `{v}` is compared against mixed types ({})",
                            rendered.join(", ")
                        ),
                    )
                    .with_context(ctx()),
                );
            }
        }
    }

    // BD004 — provable emptiness from the conjunctive comparisons.
    let mut constraints: BTreeMap<&str, Constraints> = BTreeMap::new();
    let mut always_false: Option<String> = None;
    for lit in &rule.body {
        match lit {
            BodyLit::Cmp(c) => {
                if let Some(reason) = apply_cmp(c, &mut constraints) {
                    always_false.get_or_insert(reason);
                }
            }
            BodyLit::Or(groups) => {
                // A disjunction every branch of which is unsatisfiable
                // (on its own, or against the outer constraints) kills
                // the rule.
                let dead = !groups.is_empty()
                    && groups.iter().all(|conj| {
                        let mut branch = constraints.clone();
                        conj.iter().any(|c| apply_cmp(c, &mut branch).is_some())
                            || branch.values().any(Constraints::contradictory)
                    });
                if dead {
                    always_false.get_or_insert_with(|| {
                        "every branch of the disjunction is unsatisfiable".into()
                    });
                }
            }
            _ => {}
        }
    }
    if let Some(reason) = always_false {
        out.push(
            Diagnostic::warning(
                codes::PROVABLY_EMPTY,
                format!("rule is provably empty: {reason}"),
            )
            .with_context(ctx()),
        );
    } else {
        for v in &order {
            if constraints.get(v).is_some_and(Constraints::contradictory) {
                out.push(
                    Diagnostic::warning(
                        codes::PROVABLY_EMPTY,
                        format!("rule is provably empty: constraints on `{v}` are unsatisfiable"),
                    )
                    .with_context(ctx()),
                );
            }
        }
    }

    // BD006 — singleton variables: named once, used nowhere else.
    // Leading-underscore names are conventionally intentional.
    for v in &order {
        if occurrences[v] == 1 && !v.starts_with('_') {
            out.push(
                Diagnostic::warning(
                    codes::SINGLETON_VAR,
                    format!("variable `{v}` occurs only once; use `_` if unconstrained"),
                )
                .with_context(ctx()),
            );
        }
    }
}

/// Fold one comparison literal into the per-variable constraint sets.
/// Returns `Some(reason)` when the literal itself is statically false.
fn apply_cmp<'a>(
    c: &'a CmpLit,
    constraints: &mut BTreeMap<&'a str, Constraints>,
) -> Option<String> {
    match (&c.left, &c.right) {
        (Term::Var(v), Term::Const(k)) => {
            constraints.entry(v.as_str()).or_default().add(c.op, k);
            None
        }
        (Term::Const(k), Term::Var(v)) => {
            constraints
                .entry(v.as_str())
                .or_default()
                .add(c.op.flip(), k);
            None
        }
        (Term::Const(a), Term::Const(b)) => {
            (!c.op.eval(a, b)).then(|| format!("comparison `{c}` is always false"))
        }
        (Term::Var(a), Term::Var(b)) if a == b => matches!(c.op, CmpOp::Ne | CmpOp::Lt | CmpOp::Gt)
            .then(|| format!("comparison `{c}` relates a variable to itself")),
        _ => None,
    }
}

/// Every term of the rule — head first, then body literals in order.
fn rule_terms(rule: &Rule) -> Vec<&Term> {
    let mut terms: Vec<&Term> = rule.head.terms.iter().collect();
    for lit in &rule.body {
        match lit {
            BodyLit::Pos(a) | BodyLit::Neg(a) => terms.extend(a.terms.iter()),
            BodyLit::Cmp(c) => terms.extend([&c.left, &c.right]),
            BodyLit::Or(groups) => {
                terms.extend(groups.iter().flatten().flat_map(|c| [&c.left, &c.right]));
            }
        }
    }
    terms
}

/// Every comparison literal of the rule, including those inside
/// disjunction groups, in body order.
fn rule_cmps(rule: &Rule) -> Vec<&CmpLit> {
    let mut cmps = Vec::new();
    for lit in &rule.body {
        match lit {
            BodyLit::Cmp(c) => cmps.push(c),
            BodyLit::Or(groups) => cmps.extend(groups.iter().flatten()),
            _ => {}
        }
    }
    cmps
}

fn cmp_vars(c: &CmpLit) -> Vec<&str> {
    let mut vars = Vec::new();
    for t in [&c.left, &c.right] {
        if let Term::Var(v) = t {
            vars.push(v.as_str());
        }
    }
    vars
}

/// The kind of the first value stored at `rel[col]`, when `rel` is a
/// base table with at least one row. Dynamically-typed storage has no
/// declared column types, so a sample is the best static evidence.
fn sample_kind(db: &Database, rel: &str, col: usize) -> Option<Kind> {
    let table = db.table(rel).ok()?;
    let (_, row) = table.iter().next()?;
    Kind::of(row.get(col).ok()?)
}

/// Coarse value kind for mismatch detection. `Null` carries no
/// evidence.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Kind {
    Bool,
    Int,
    Str,
}

impl Kind {
    fn of(v: &Value) -> Option<Kind> {
        match v {
            Value::Null => None,
            Value::Bool(_) => Some(Kind::Bool),
            Value::Int(_) => Some(Kind::Int),
            Value::Str(_) => Some(Kind::Str),
        }
    }
}

impl std::fmt::Display for Kind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Kind::Bool => write!(f, "bool"),
            Kind::Int => write!(f, "int"),
            Kind::Str => write!(f, "string"),
        }
    }
}

/// Conjunctive constraints on one variable / column, over the engine's
/// total value order (`Null < Bool < Int < Str`). Exactly mirrors
/// [`CmpOp::eval`], so "contradictory" is sound for real execution.
#[derive(Debug, Default, Clone)]
struct Constraints {
    eq: Option<Value>,
    ne: Vec<Value>,
    lower: Option<(Value, bool)>,
    upper: Option<(Value, bool)>,
    impossible: bool,
}

impl Constraints {
    fn add(&mut self, op: CmpOp, v: &Value) {
        match op {
            CmpOp::Eq => match &self.eq {
                Some(w) if w != v => self.impossible = true,
                _ => self.eq = Some(v.clone()),
            },
            CmpOp::Ne => self.ne.push(v.clone()),
            CmpOp::Lt => self.tighten_upper(v, true),
            CmpOp::Le => self.tighten_upper(v, false),
            CmpOp::Gt => self.tighten_lower(v, true),
            CmpOp::Ge => self.tighten_lower(v, false),
        }
    }

    fn tighten_upper(&mut self, v: &Value, strict: bool) {
        let replace = match &self.upper {
            None => true,
            Some((cur, cur_strict)) => v < cur || (v == cur && strict && !cur_strict),
        };
        if replace {
            self.upper = Some((v.clone(), strict));
        }
    }

    fn tighten_lower(&mut self, v: &Value, strict: bool) {
        let replace = match &self.lower {
            None => true,
            Some((cur, cur_strict)) => v > cur || (v == cur && strict && !cur_strict),
        };
        if replace {
            self.lower = Some((v.clone(), strict));
        }
    }

    /// Provably unsatisfiable? Sound, not complete.
    fn contradictory(&self) -> bool {
        if self.impossible {
            return true;
        }
        if let Some(eq) = &self.eq {
            if self.ne.iter().any(|n| n == eq) {
                return true;
            }
            if let Some((lo, strict)) = &self.lower {
                if eq < lo || (eq == lo && *strict) {
                    return true;
                }
            }
            if let Some((hi, strict)) = &self.upper {
                if eq > hi || (eq == hi && *strict) {
                    return true;
                }
            }
        }
        if let (Some((lo, ls)), Some((hi, hs))) = (&self.lower, &self.upper) {
            if lo > hi || (lo == hi && (*ls || *hs)) {
                return true;
            }
            // The value domain is closed: nothing sits strictly between
            // consecutive integers (strings sort above *all* ints), so
            // the open interval (n, n+1) is empty.
            if *ls && *hs {
                if let (Value::Int(a), Value::Int(b)) = (lo, hi) {
                    if *b == a.saturating_add(1) {
                        return true;
                    }
                }
            }
        }
        false
    }
}

/// Is this predicate provably false for every row? Sound (true ⇒ the
/// selection emits nothing), never complete. The optimizer folds such
/// selections to an empty `Values`.
pub fn expr_contradictory(e: &Expr) -> bool {
    match e {
        Expr::Lit(v) => matches!(v, Value::Bool(false)),
        Expr::Or(ps) => !ps.is_empty() && ps.iter().all(expr_contradictory),
        Expr::And(_) | Expr::Cmp(..) => conjunction_contradictory(e),
        Expr::Col(_) | Expr::Not(_) => false,
    }
}

fn conjunction_contradictory(e: &Expr) -> bool {
    let mut conjuncts = Vec::new();
    flatten_and(e, &mut conjuncts);
    let mut cons: BTreeMap<usize, Constraints> = BTreeMap::new();
    for c in conjuncts {
        match c {
            Expr::Lit(Value::Bool(false)) => return true,
            Expr::Or(_) if expr_contradictory(c) => return true,
            Expr::Cmp(op, a, b) => match (&**a, &**b) {
                (Expr::Col(i), Expr::Lit(v)) => cons.entry(*i).or_default().add(*op, v),
                (Expr::Lit(v), Expr::Col(i)) => cons.entry(*i).or_default().add(op.flip(), v),
                (Expr::Lit(x), Expr::Lit(y)) if !op.eval(x, y) => return true,
                (Expr::Col(i), Expr::Col(j))
                    if i == j && matches!(op, CmpOp::Ne | CmpOp::Lt | CmpOp::Gt) =>
                {
                    return true;
                }
                _ => {}
            },
            _ => {}
        }
    }
    cons.values().any(Constraints::contradictory)
}

fn flatten_and<'a>(e: &'a Expr, out: &mut Vec<&'a Expr>) {
    match e {
        Expr::And(ps) => {
            for p in ps {
                flatten_and(p, out);
            }
        }
        _ => out.push(e),
    }
}
