//! # sema — static semantic analysis
//!
//! Deductive-database practice checks programs *statically* — safety /
//! range restriction, program order, type soundness — before a single
//! tuple is derived, and rejects ill-formed input with structured,
//! explainable diagnostics instead of a bare error string. This module
//! is that layer for the belief-database stack, in two parts:
//!
//! 1. **The linter** ([`lint_program`]): analyzes a translated Datalog
//!    program before evaluation and reports [`Diagnostic`]s with stable
//!    `BD0xx` codes — unsafe rules (head/negation/comparison variables
//!    with no positive binding), relations read before their last
//!    defining rule ([`read_before_defined`]), comparison type
//!    mismatches, provably-empty rules (`x = 1, x = 2`, empty ranges),
//!    unused rules, and singleton variables. [`expr_contradictory`] is
//!    the same contradiction analysis over plan predicates; the
//!    optimizer uses it to fold provably-false selections to an empty
//!    `Values`.
//!
//! 2. **The plan verifier** ([`verify_plan`]): an independent invariant
//!    checker run after every optimizer rewrite pass. It re-derives the
//!    plan's arity bottom-up with its own walker (so a bug in
//!    [`crate::plan::Plan::arity`] and a bug in a rewrite cannot hide
//!    each other), checks column resolution in every expression, and
//!    cross-checks the executor's spill-point accounting.
//!    [`verify_magic`] checks the well-formedness of magic-sets guards
//!    at the program level.
//!
//! The verifier is **on under `debug_assertions`** (every debug test run
//! verifies every plan at every rewrite stage) and off in release unless
//! forced with [`set_verify`] (the shell's `\set verify on`). The
//! disabled path is a single atomic load — zero allocation, enforced by
//! `tests/obs_overhead.rs`.
//!
//! Diagnostic codes are stable API: tests and tools match on the code
//! (`err.code() == Some("BD002")`), never on message text. The full
//! table lives in `docs/analysis.md`.

mod lint;
mod verify;

pub use lint::{expr_contradictory, lint_program};
pub(crate) use verify::verify_magic_if_enabled;
pub use verify::{verify_magic, verify_plan, verify_plan_if_enabled};

use crate::datalog::{BodyLit, Program};
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU8, Ordering};

/// Stable diagnostic codes. Add new codes at the end of a band; never
/// renumber (tests and scripts match on these).
pub mod codes {
    /// A head / negated / comparison variable has no positive binding
    /// (the rule is unsafe — not range-restricted).
    pub const UNSAFE_RULE: &str = "BD001";
    /// A body atom reads a head relation at or before that relation's
    /// last defining rule (the program is not in definition order).
    pub const READ_BEFORE_DEFINED: &str = "BD002";
    /// A comparison mixes value types (int vs string vs bool).
    pub const TYPE_MISMATCH: &str = "BD003";
    /// The rule (or selection) is provably empty: contradictory
    /// equalities or an empty range.
    pub const PROVABLY_EMPTY: &str = "BD004";
    /// A rule's head relation is never read and is not the answer.
    pub const UNUSED_RULE: &str = "BD005";
    /// A named variable occurs exactly once (did you mean `_`?).
    pub const SINGLETON_VAR: &str = "BD006";
    /// A reserved (`sys.*` / internal-prefix) name where a user name is
    /// required.
    pub const RESERVED_NAME: &str = "BD010";
    /// Plan-verifier violation: arity / column resolution / predicate
    /// shape / schema flow.
    pub const PLAN_SHAPE: &str = "BD101";
    /// Plan-verifier violation: spill-point accounting disagrees with
    /// the executor's.
    pub const SPILL_POINTS: &str = "BD102";
    /// Program-verifier violation: malformed magic-sets guard.
    pub const MAGIC_GUARD: &str = "BD103";
}

/// Diagnostic severity. Errors reject the program; warnings surface via
/// `Session::lint`, `\lint`, and EXPLAIN annotations but do not block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    Warning,
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Warning => write!(f, "warning"),
            Severity::Error => write!(f, "error"),
        }
    }
}

/// A structured diagnostic: stable code, severity, human message, and
/// the rule / relation it is anchored to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Stable `BD0xx` code from [`codes`].
    pub code: &'static str,
    pub severity: Severity,
    pub message: String,
    /// Where: a rendered rule, a relation name, a plan stage.
    pub context: Option<String>,
}

impl Diagnostic {
    pub fn error(code: &'static str, message: impl Into<String>) -> Self {
        Diagnostic {
            code,
            severity: Severity::Error,
            message: message.into(),
            context: None,
        }
    }

    pub fn warning(code: &'static str, message: impl Into<String>) -> Self {
        Diagnostic {
            code,
            severity: Severity::Warning,
            message: message.into(),
            context: None,
        }
    }

    /// Attach context (a rendered rule, a relation, a rewrite stage).
    pub fn with_context(mut self, context: impl Into<String>) -> Self {
        self.context = Some(context.into());
        self
    }

    pub fn is_error(&self) -> bool {
        self.severity == Severity::Error
    }

    /// Compact form for embedding inside a [`crate::StorageError`]
    /// message: `[BD002] message (context)`. The severity is implied by
    /// the error variant carrying it.
    pub fn code_message(&self) -> String {
        match &self.context {
            Some(ctx) => format!("[{}] {} (in {ctx})", self.code, self.message),
            None => format!("[{}] {}", self.code, self.message),
        }
    }
}

/// `error[BD002]: message (in rule `...`)` — the lint report form.
impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}]: {}", self.severity, self.code, self.message)?;
        if let Some(ctx) = &self.context {
            write!(f, " (in {ctx})")?;
        }
        Ok(())
    }
}

/// BD002, the one program-order rule: every body atom, positive or
/// negated, that names a head relation must come after that relation's
/// last defining rule. A program in this order is non-recursive, and
/// every relation a rule reads is complete when the rule runs; the
/// programs Algorithm 1 and the magic-sets rewrite emit are all in it.
/// One error per offending atom, in program order.
pub fn read_before_defined(program: &Program) -> Vec<Diagnostic> {
    let mut last_def: HashMap<&str, usize> = HashMap::new();
    for (i, rule) in program.rules.iter().enumerate() {
        last_def.insert(rule.head.relation.as_str(), i);
    }
    let mut out = Vec::new();
    for (i, rule) in program.rules.iter().enumerate() {
        for lit in &rule.body {
            let (BodyLit::Pos(a) | BodyLit::Neg(a)) = lit else {
                continue;
            };
            if let Some(&def) = last_def.get(a.relation.as_str()) {
                if def >= i {
                    let (head, read) = (&rule.head.relation, &a.relation);
                    out.push(
                        Diagnostic::error(
                            codes::READ_BEFORE_DEFINED,
                            format!(
                                "rule for `{head}` reads `{read}` before its last defining \
                                 rule (rule {} of {})",
                                def + 1,
                                program.rules.len()
                            ),
                        )
                        .with_context(format!("rule `{rule}`")),
                    );
                }
            }
        }
    }
    out
}

/// Verifier switch: 0 = default (follow `debug_assertions`), 1 = forced
/// off, 2 = forced on. One relaxed atomic so the disabled check is free.
static VERIFY_MODE: AtomicU8 = AtomicU8::new(0);

/// Force the plan verifier on or off (the shell's `\set verify on|off`).
/// Overrides the build-profile default until [`reset_verify`].
pub fn set_verify(on: bool) {
    VERIFY_MODE.store(if on { 2 } else { 1 }, Ordering::Relaxed);
}

/// Return the verifier to its build-profile default (on under
/// `debug_assertions`, off in release).
pub fn reset_verify() {
    VERIFY_MODE.store(0, Ordering::Relaxed);
}

/// Is the plan verifier armed? One relaxed load; never allocates.
#[inline]
pub fn verify_enabled() -> bool {
    match VERIFY_MODE.load(Ordering::Relaxed) {
        1 => false,
        2 => true,
        _ => cfg!(debug_assertions),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn diagnostics_render_with_code_and_context() {
        let d = Diagnostic::warning(codes::PROVABLY_EMPTY, "rule derives nothing")
            .with_context("rule `q(x) :- e(x), x = 1, x = 2.`");
        assert_eq!(
            d.to_string(),
            "warning[BD004]: rule derives nothing (in rule `q(x) :- e(x), x = 1, x = 2.`)"
        );
        assert_eq!(
            d.code_message(),
            "[BD004] rule derives nothing (in rule `q(x) :- e(x), x = 1, x = 2.`)"
        );
        assert!(!d.is_error());
        assert!(Diagnostic::error(codes::UNSAFE_RULE, "x").is_error());
    }

    #[test]
    fn read_before_defined_names_the_head_and_the_read() {
        use crate::datalog::dsl::*;
        let program = |rules| Program { rules };
        // win(x) :- e(x, y), not win(y): reads its own head.
        let win = program(vec![rule(
            "win",
            vec![v("x")],
            vec![pos("e", vec![v("x"), v("y")]), neg("win", vec![v("y")])],
        )]);
        let d = read_before_defined(&win);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].code, codes::READ_BEFORE_DEFINED);
        assert!(d[0].is_error());
        assert!(
            d[0].message.contains("rule for `win` reads `win`"),
            "{}",
            d[0].message
        );
        // B reads A before A's second rule; definition order passes.
        let a1 = rule("A", vec![v("x")], vec![pos("E", vec![v("x")])]);
        let b = rule("B", vec![v("x")], vec![pos("A", vec![v("x")])]);
        let d = read_before_defined(&program(vec![a1.clone(), b.clone(), a1.clone()]));
        assert_eq!(d.len(), 1);
        assert!(
            d[0].message.contains("rule for `B` reads `A`"),
            "{}",
            d[0].message
        );
        assert!(read_before_defined(&program(vec![a1.clone(), a1, b])).is_empty());
    }

    #[test]
    fn verify_flag_round_trips() {
        assert_eq!(verify_enabled(), cfg!(debug_assertions));
        set_verify(true);
        assert!(verify_enabled());
        set_verify(false);
        assert!(!verify_enabled());
        reset_verify();
        assert_eq!(verify_enabled(), cfg!(debug_assertions));
    }
}
