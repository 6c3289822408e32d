//! Magic-sets / sideways-information-passing rewrite for Datalog
//! programs.
//!
//! The translated rule stacks of Algorithm 1 materialize every temp
//! relation in full, rule at a time, even when the final (answer) rule
//! probes a handful of keys. Belief workloads are overwhelmingly *bound*
//! — "what does **this** user believe about **this** tuple" — so almost
//! all of that work is wasted. This pass makes evaluation demand-driven:
//!
//! 1. **Adornment.** Walking each answer rule in the
//!    sideways-information-passing (SIP) order — base-table atoms first,
//!    in their written order, then derived subgoals most-bound-first
//!    (constants, bound variables and `x = c` pins count; ties keep the
//!    written order) — every argument position of a derived subgoal is
//!    classified *bound* (`b`) or *free* (`f`). A position is bound when
//!    the caller has a value for it: a constant, a variable bound by an
//!    atom visited earlier, or a variable pinned to a constant by an
//!    equality comparison anywhere in the body. Visiting the most
//!    selective subgoal first lets its keys restrict the others.
//! 2. **Magic seeds.** For each adorned use `R^a` a demand rule is
//!    emitted deriving `__magic__R__a(bound args) :- <positive atoms
//!    visited earlier>` — the exact set of keys with which the rewritten
//!    rule will probe `R`. Comparison/negation literals are *not* copied
//!    into the seed (dropping filters can only enlarge the demand set,
//!    which is always safe).
//! 3. **Restricted copies.** Each rule defining `R` is copied to derive
//!    `R__a` instead, with the magic atom prepended so derivation starts
//!    from the demanded keys; the copy's body is rewritten recursively
//!    under the bindings the adornment provides, propagating demand
//!    further down the rule stack. When every use of a relation is
//!    adorned its original (unrestricted) rules are dropped — that is
//!    the payoff.
//!
//! The rewrite is answer-preserving: evaluation deduplicates rule heads
//! (set semantics), every magic relation over-approximates the true
//! demand, and relations appearing under negation or in the answer head
//! are never restricted. Output ordering is deterministic (definitions
//! before uses, stable across runs) so the rewritten program is a valid
//! plan-cache key and `EXPLAIN` stays reproducible.

use crate::datalog::{Atom, BodyLit, Program, Rule, Term};
use crate::expr::CmpOp;
use crate::value::Value;
use std::collections::{BTreeSet, HashMap, HashSet, VecDeque};

/// Name prefix of generated demand ("magic") relations.
pub const MAGIC_PREFIX: &str = "__magic__";

/// The restricted copy of `rel` under adornment `adorn` (e.g. `T__bf`).
fn adorned_name(rel: &str, adorn: &str) -> String {
    format!("{rel}__{adorn}")
}

/// The demand relation seeding [`adorned_name`] (e.g. `__magic__T__bf`).
fn magic_name(rel: &str, adorn: &str) -> String {
    format!("{MAGIC_PREFIX}{rel}__{adorn}")
}

/// The deterministic `EXPLAIN` annotation for a rule produced by
/// [`rewrite`]: `[magic seed adorn=…]` on demand rules, `[magic
/// adorn=…]` on restricted rule copies (recognized by their prepended
/// magic guard), `None` on untouched rules.
pub fn rule_tag(rule: &Rule) -> Option<String> {
    fn adorn_of(name: &str) -> &str {
        name.rsplit("__").next().unwrap_or("")
    }
    if rule.head.relation.starts_with(MAGIC_PREFIX) {
        return Some(format!(
            " [magic seed adorn={}]",
            adorn_of(&rule.head.relation)
        ));
    }
    match rule.body.first() {
        Some(BodyLit::Pos(a)) if a.relation.starts_with(MAGIC_PREFIX) => {
            Some(format!(" [magic adorn={}]", adorn_of(&a.relation)))
        }
        _ => None,
    }
}

/// [`rewrite`] with a guard for the `sys.` namespace: virtual system
/// relations are scan-time snapshots with no stored rows, so seeding
/// magic predicates from (or deriving into) them is meaningless — a
/// program touching them is rejected with a clean error instead of
/// being silently rewritten. The production translation path
/// (`beliefdb-core`'s BCQ lowering) calls this variant.
pub fn rewrite_checked(program: &Program) -> crate::error::Result<Program> {
    for rule in &program.rules {
        let mut names = vec![&rule.head.relation];
        for lit in &rule.body {
            if let BodyLit::Pos(a) | BodyLit::Neg(a) = lit {
                names.push(&a.relation);
            }
        }
        if let Some(name) = names
            .into_iter()
            .find(|n| n.starts_with(crate::catalog::SYS_PREFIX))
        {
            return Err(crate::error::StorageError::ReservedName(
                crate::sema::Diagnostic::error(
                    crate::sema::codes::RESERVED_NAME,
                    format!(
                        "relation `{name}`: system tables cannot participate in the \
                         magic-sets rewrite"
                    ),
                )
                .code_message(),
            ));
        }
    }
    let rewritten = rewrite(program);
    // With the verifier armed, check guard well-formedness at the
    // rewrite boundary — a malformed guard surfaces here, not as a
    // wrong answer after evaluation.
    crate::sema::verify_magic_if_enabled(&rewritten)?;
    Ok(rewritten)
}

/// Rewrite `program` demand-driven. Programs with nothing to restrict
/// (no derived subgoal receives a binding) are returned unchanged, as
/// are empty and already-rewritten programs — the pass is idempotent.
pub fn rewrite(program: &Program) -> Program {
    let Some(answer) = program.rules.last().map(|r| r.head.relation.clone()) else {
        return program.clone();
    };
    // Defining rules per derived relation, in program order.
    let mut defs: HashMap<String, Vec<usize>> = HashMap::new();
    for (i, r) in program.rules.iter().enumerate() {
        if r.head.relation.starts_with(MAGIC_PREFIX) {
            // Already rewritten (or squatting on our namespace): leave it.
            return program.clone();
        }
        defs.entry(r.head.relation.clone()).or_default().push(i);
    }
    // Relations that must never be restricted: the answer itself (its
    // rules are the demand seeds) and anything read under negation —
    // shrinking a negated relation would grow its complement and change
    // answers.
    let mut blocked: HashSet<String> = HashSet::new();
    blocked.insert(answer.clone());
    for r in &program.rules {
        for lit in &r.body {
            if let BodyLit::Neg(a) = lit {
                blocked.insert(a.relation.clone());
            }
        }
    }

    let mut rw = Rewriter {
        program,
        defs,
        blocked,
        done: HashSet::new(),
        queue: VecDeque::new(),
        generated: Vec::new(),
        plain_used: BTreeSet::new(),
        changed: false,
    };

    // The answer rules drive the demand: rewriting their bodies emits a
    // magic seed for every bound subgoal and redirects those atoms to
    // the restricted copies. Heads stay untouched.
    let mut answers: Vec<Rule> = Vec::new();
    for rule in program.rules.iter().filter(|r| r.head.relation == answer) {
        let body = rw.process_body(&rule.body, HashSet::new(), Vec::new());
        answers.push(Rule {
            head: rule.head.clone(),
            body,
        });
    }

    // Restricted copies, breadth-first over demanded (relation,
    // adornment) pairs; each copy's body may demand further relations.
    while let Some((rel, adorn)) = rw.queue.pop_front() {
        let idxs = rw.defs.get(&rel).cloned().unwrap_or_default();
        for i in idxs {
            let rule = &rw.program.rules[i];
            let mut bound: HashSet<String> = HashSet::new();
            let mut magic_terms: Vec<Term> = Vec::new();
            for (j, ch) in adorn.chars().enumerate() {
                if ch != 'b' {
                    continue;
                }
                let t = rule.head.terms.get(j).cloned().unwrap_or(Term::Any);
                if let Term::Var(n) = &t {
                    bound.insert(n.clone());
                }
                magic_terms.push(t);
            }
            let magic_atom = Atom::new(magic_name(&rel, &adorn), magic_terms);
            let tail = rw.process_body(&rule.body, bound, vec![magic_atom.clone()]);
            let mut body = Vec::with_capacity(tail.len() + 1);
            body.push(BodyLit::Pos(magic_atom));
            body.extend(tail);
            rw.generated.push(Rule {
                head: Atom::new(adorned_name(&rel, &adorn), rule.head.terms.clone()),
                body,
            });
        }
    }

    if !rw.changed {
        return program.clone();
    }

    // Original rules survive only where a surviving rule still reads the
    // unrestricted relation (negated uses, uses with nothing bound) —
    // transitively, since kept originals read their own dependencies
    // unrewritten.
    let mut keep: HashSet<String> = HashSet::new();
    let mut stack: Vec<String> = rw.plain_used.iter().cloned().collect();
    while let Some(rel) = stack.pop() {
        if !keep.insert(rel.clone()) {
            continue;
        }
        for &i in rw.defs.get(&rel).map(|v| v.as_slice()).unwrap_or(&[]) {
            for lit in &rw.program.rules[i].body {
                if let BodyLit::Pos(a) | BodyLit::Neg(a) = lit {
                    if rw.defs.contains_key(&a.relation) && !keep.contains(&a.relation) {
                        stack.push(a.relation.clone());
                    }
                }
            }
        }
    }
    let mut rules: Vec<Rule> = program
        .rules
        .iter()
        .filter(|r| r.head.relation != answer && keep.contains(&r.head.relation))
        .cloned()
        .collect();
    rules.extend(rw.generated);
    let mut ordered = order_rules(rules);
    ordered.extend(answers);
    Program { rules: ordered }
}

struct Rewriter<'p> {
    program: &'p Program,
    /// Rule indices defining each derived relation, in program order.
    defs: HashMap<String, Vec<usize>>,
    /// Relations that must stay unrestricted.
    blocked: HashSet<String>,
    /// `(relation, adornment)` pairs already expanded (or queued).
    done: HashSet<(String, String)>,
    queue: VecDeque<(String, String)>,
    /// Magic seeds and restricted copies, in generation order.
    generated: Vec<Rule>,
    /// Derived relations still read unrestricted somewhere.
    plain_used: BTreeSet<String>,
    changed: bool,
}

impl Rewriter<'_> {
    /// Rewrite a rule body under `bound` (the variables the rule's own
    /// magic guard provides, empty for answer rules). `prefix`
    /// accumulates the positive atoms already visited — the SIP context
    /// every magic seed derives its demand from.
    ///
    /// The SIP order: base-table atoms first, in their written order
    /// (they are never rewritten, so they only contribute bindings), then
    /// derived atoms most-bound-first — at each step the one with the
    /// most constant, bound or `x = c`-pinned terms, ties in written
    /// order — so the most selective subgoal restricts the others rather
    /// than the other way round. The rewritten body keeps the written
    /// literal order; join order is the optimizer's business.
    fn process_body(
        &mut self,
        body: &[BodyLit],
        mut bound: HashSet<String>,
        mut prefix: Vec<Atom>,
    ) -> Vec<BodyLit> {
        let subst = const_subst(body);
        // Positive atoms in SIP order: a stable sort puts the base-table
        // atoms first in their written order; each derived atom's place
        // is picked when it is reached, from the bindings at that point.
        let mut order: Vec<(usize, &Atom, bool)> = body
            .iter()
            .enumerate()
            .filter_map(|(i, lit)| match lit {
                BodyLit::Pos(a) => Some((i, a, self.defs.contains_key(&a.relation))),
                _ => None,
            })
            .collect();
        order.sort_by_key(|&(_, _, derived)| derived);
        let mut adorned: Vec<Option<Atom>> = vec![None; body.len()];
        for k in 0..order.len() {
            if order[k].2 {
                // The most-bound derived atom left. `max_by_key` keeps the
                // last maximum; scanning in reverse sends ties to the
                // earliest written atom, and the rotation keeps the rest in
                // written order.
                let best = (k..order.len())
                    .rev()
                    .max_by_key(|&j| bound_terms(order[j].1, &bound, &subst))
                    .expect("k < order.len()");
                order[k..=best].rotate_right(1);
            }
            let (i, atom, _) = order[k];
            let rewritten = self.adorn_atom(atom, &bound, &subst, &prefix);
            for t in &rewritten.terms {
                if let Term::Var(n) = t {
                    bound.insert(n.clone());
                }
            }
            prefix.push(rewritten.clone());
            adorned[i] = Some(rewritten);
        }
        body.iter()
            .zip(adorned)
            .map(|(lit, adorned)| match (lit, adorned) {
                (_, Some(atom)) => BodyLit::Pos(atom),
                (BodyLit::Neg(a), None) => {
                    self.note_plain_use(&a.relation);
                    lit.clone()
                }
                (other, None) => other.clone(),
            })
            .collect()
    }

    /// Adorn one positive atom: emit its magic seed, queue the restricted
    /// copy, and return the renamed atom — or the atom unchanged when
    /// nothing useful is bound (base tables, blocked relations, fully
    /// free uses).
    fn adorn_atom(
        &mut self,
        atom: &Atom,
        bound: &HashSet<String>,
        subst: &HashMap<String, Value>,
        prefix: &[Atom],
    ) -> Atom {
        if self.blocked.contains(&atom.relation) || !self.defs.contains_key(&atom.relation) {
            self.note_plain_use(&atom.relation);
            return atom.clone();
        }
        let var_heads = self.var_head_positions(&atom.relation);
        let mut adorn = String::with_capacity(atom.terms.len());
        let mut magic_terms: Vec<Term> = Vec::new();
        for (pos, t) in atom.terms.iter().enumerate() {
            // A position carries demand only when the caller has a value
            // for it *and* some defining rule has a variable there to
            // receive it (all-constant head positions filter by
            // themselves; passing them would seed useless magic).
            let passed = var_heads.get(pos).copied().unwrap_or(false)
                && match t {
                    Term::Const(_) => true,
                    Term::Var(n) => bound.contains(n) || subst.contains_key(n),
                    Term::Any => false,
                };
            if passed {
                adorn.push('b');
                magic_terms.push(match t {
                    // Bound only through an `x = c` comparison: the seed
                    // carries the constant directly (the variable has no
                    // positional binding in the prefix).
                    Term::Var(n) if !bound.contains(n) => Term::Const(subst[n].clone()),
                    other => other.clone(),
                });
            } else {
                adorn.push('f');
            }
        }
        if !adorn.contains('b') {
            self.note_plain_use(&atom.relation);
            return atom.clone();
        }
        self.changed = true;
        self.generated.push(Rule {
            head: Atom::new(magic_name(&atom.relation, &adorn), magic_terms),
            body: prefix.iter().cloned().map(BodyLit::Pos).collect(),
        });
        let key = (atom.relation.clone(), adorn.clone());
        if self.done.insert(key.clone()) {
            self.queue.push_back(key);
        }
        Atom::new(adorned_name(&atom.relation, &adorn), atom.terms.clone())
    }

    /// Per position: does *some* defining rule of `rel` have a variable
    /// head term there (i.e. can a binding restrict the derivation)?
    fn var_head_positions(&self, rel: &str) -> Vec<bool> {
        let mut flags: Vec<bool> = Vec::new();
        for &i in self.defs.get(rel).map(|v| v.as_slice()).unwrap_or(&[]) {
            for (j, t) in self.program.rules[i].head.terms.iter().enumerate() {
                if flags.len() <= j {
                    flags.resize(j + 1, false);
                }
                if matches!(t, Term::Var(_)) {
                    flags[j] = true;
                }
            }
        }
        flags
    }

    fn note_plain_use(&mut self, rel: &str) {
        if self.defs.contains_key(rel) {
            self.plain_used.insert(rel.to_string());
        }
    }
}

/// Terms of `atom` a caller has a value for: constants, variables already
/// bound, and variables pinned by an `x = c` comparison.
fn bound_terms(atom: &Atom, bound: &HashSet<String>, subst: &HashMap<String, Value>) -> usize {
    let known = |t: &&Term| match t {
        Term::Const(_) => true,
        Term::Var(n) => bound.contains(n) || subst.contains_key(n),
        Term::Any => false,
    };
    atom.terms.iter().filter(known).count()
}

/// Variables pinned to a constant by a top-level `x = c` comparison
/// (conjunctive context only — disjuncts of `Or` don't pin anything).
fn const_subst(body: &[BodyLit]) -> HashMap<String, Value> {
    let mut subst = HashMap::new();
    for lit in body {
        if let BodyLit::Cmp(c) = lit {
            if c.op != CmpOp::Eq {
                continue;
            }
            match (&c.left, &c.right) {
                (Term::Var(n), Term::Const(v)) | (Term::Const(v), Term::Var(n)) => {
                    subst.entry(n.clone()).or_insert_with(|| v.clone());
                }
                _ => {}
            }
        }
    }
    subst
}

/// Order rules definitions-before-uses, deterministically: Kahn's
/// algorithm over the head-relation dependency graph with
/// first-definition-order tie-breaking; rules keep their relative order
/// within a relation. Relations left over by cycles (recursive
/// programs) are appended in first-definition order, which
/// [`crate::sema::read_before_defined`] then rejects with BD002.
fn order_rules(rules: Vec<Rule>) -> Vec<Rule> {
    let mut rels: Vec<String> = Vec::new();
    let mut idx: HashMap<String, usize> = HashMap::new();
    for r in &rules {
        if !idx.contains_key(&r.head.relation) {
            idx.insert(r.head.relation.clone(), rels.len());
            rels.push(r.head.relation.clone());
        }
    }
    let n = rels.len();
    let mut deps: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); n];
    for r in &rules {
        let h = idx[&r.head.relation];
        for lit in &r.body {
            if let BodyLit::Pos(a) | BodyLit::Neg(a) = lit {
                if let Some(&d) = idx.get(&a.relation) {
                    if d != h {
                        deps[h].insert(d);
                    }
                }
            }
        }
    }
    let mut rdeps: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut indeg: Vec<usize> = vec![0; n];
    for (h, ds) in deps.iter().enumerate() {
        indeg[h] = ds.len();
        for &d in ds {
            rdeps[d].push(h);
        }
    }
    let mut ready: BTreeSet<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();
    let mut order: Vec<usize> = Vec::with_capacity(n);
    let mut placed = vec![false; n];
    while let Some(&i) = ready.iter().next() {
        ready.remove(&i);
        placed[i] = true;
        order.push(i);
        for &h in &rdeps[i] {
            indeg[h] -= 1;
            if indeg[h] == 0 {
                ready.insert(h);
            }
        }
    }
    order.extend((0..n).filter(|&i| !placed[i]));
    let mut by_rel: HashMap<usize, Vec<Rule>> = HashMap::new();
    for r in rules {
        by_rel.entry(idx[&r.head.relation]).or_default().push(r);
    }
    order
        .into_iter()
        .flat_map(|i| by_rel.remove(&i).unwrap_or_default())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::Database;
    use crate::datalog::dsl::*;
    use crate::datalog::Evaluator;
    use crate::row;
    use crate::schema::TableSchema;

    /// A small edge/user database for end-to-end checks.
    fn db() -> Database {
        let mut db = Database::new();
        let e = db
            .create_table(TableSchema::keyless("e", &["src", "dst"]))
            .unwrap();
        for (s, d) in [(0, 1), (1, 2), (2, 3), (1, 4), (4, 5), (7, 8)] {
            e.insert(row![s, d]).unwrap();
        }
        let lbl = db
            .create_table(TableSchema::keyless("lbl", &["id", "tag"]))
            .unwrap();
        for (i, t) in [(1, "a"), (2, "b"), (3, "a"), (5, "b"), (8, "a")] {
            lbl.insert(row![i, t]).unwrap();
        }
        db
    }

    fn hop_program(bound_src: Option<i64>) -> Program {
        // hop(x, y) :- e(x, z), e(z, y).   ans(y) :- hop(C, y).
        let src = match bound_src {
            Some(cst) => c(cst),
            None => v("x0"),
        };
        Program {
            rules: vec![
                rule(
                    "hop",
                    vec![v("x"), v("y")],
                    vec![
                        pos("e", vec![v("x"), v("z")]),
                        pos("e", vec![v("z"), v("y")]),
                    ],
                ),
                rule("ans", vec![v("y")], vec![pos("hop", vec![src, v("y")])]),
            ],
        }
    }

    #[test]
    fn bound_probe_generates_seed_and_restricted_copy() {
        let rewritten = rewrite(&hop_program(Some(0)));
        let text = rewritten.to_string();
        // Demand seeded from the constant, with an empty body.
        assert!(text.contains("__magic__hop__bf(0) :- ."), "{text}");
        // The defining rule is copied, guarded by its magic relation.
        assert!(
            text.contains("hop__bf(x, y) :- __magic__hop__bf(x)"),
            "{text}"
        );
        // The answer probes the restricted copy...
        assert!(text.contains("ans(y) :- hop__bf(0, y)."), "{text}");
        // ...and the unrestricted original is gone.
        assert!(!text.contains("hop(x, y) :- e(x, z)"), "{text}");
        // Answer rule stays last.
        assert_eq!(rewritten.rules.last().unwrap().head.relation, "ans");
    }

    #[test]
    fn unbound_program_is_returned_unchanged() {
        let prog = hop_program(None);
        assert_eq!(rewrite(&prog), prog);
        assert_eq!(rewrite(&Program::default()), Program::default());
    }

    #[test]
    fn rewrite_is_idempotent() {
        let once = rewrite(&hop_program(Some(0)));
        assert_eq!(rewrite(&once), once);
    }

    #[test]
    fn sip_passes_bindings_from_earlier_subgoals() {
        // tagged(x, t) :- e(x, y), lbl(y, t) as a derived relation probed
        // with a variable bound sideways by an earlier atom.
        let prog = Program {
            rules: vec![
                rule(
                    "tagged",
                    vec![v("x"), v("t")],
                    vec![
                        pos("e", vec![v("x"), v("y")]),
                        pos("lbl", vec![v("y"), v("t")]),
                    ],
                ),
                rule(
                    "ans",
                    vec![v("w"), v("t")],
                    vec![
                        pos("e", vec![c(0), v("w")]),
                        pos("tagged", vec![v("w"), v("t")]),
                    ],
                ),
            ],
        };
        let text = rewrite(&prog).to_string();
        // The seed derives the demanded keys from the earlier atom.
        assert!(
            text.contains("__magic__tagged__bf(w) :- e(0, w)."),
            "{text}"
        );
        assert!(text.contains("tagged__bf"), "{text}");
    }

    #[test]
    fn sip_visits_base_atoms_first_then_the_most_bound_subgoal() {
        let hop = rule(
            "hop",
            vec![v("x"), v("y")],
            vec![
                pos("e", vec![v("x"), v("z")]),
                pos("e", vec![v("z"), v("y")]),
            ],
        );
        let sel = rule(
            "sel",
            vec![v("x"), v("t")],
            vec![pos("lbl", vec![v("x"), v("t")])],
        );
        // A base atom written after the subgoal still binds it: in
        // written order `hop` would be visited with nothing bound.
        let base_last = Program {
            rules: vec![
                hop.clone(),
                rule(
                    "ans",
                    vec![v("y")],
                    vec![
                        pos("hop", vec![v("x"), v("y")]),
                        pos("e", vec![c(0), v("x")]),
                    ],
                ),
            ],
        };
        let text = rewrite(&base_last).to_string();
        assert!(text.contains("__magic__hop__bf(x) :- e(0, x)."), "{text}");
        // The subgoal with a constant is visited first and its keys
        // restrict the one written before it.
        let selective_last = Program {
            rules: vec![
                hop,
                sel,
                rule(
                    "ans",
                    vec![v("x")],
                    vec![
                        pos("hop", vec![v("x"), v("y")]),
                        pos("sel", vec![v("y"), c("a")]),
                    ],
                ),
            ],
        };
        let rewritten = rewrite(&selective_last);
        let text = rewritten.to_string();
        assert!(
            text.contains("__magic__hop__fb(y) :- sel__fb(y, "),
            "{text}"
        );
        // The body keeps its written order.
        let answer = rewritten.rules.last().unwrap().to_string();
        assert!(
            answer.starts_with("ans(x) :- hop__fb(x, y), sel__fb(y, "),
            "{answer}"
        );
        let db = db();
        for prog in [&base_last, &selective_last] {
            let mut plain = Evaluator::new(&db);
            plain.run(prog).unwrap();
            let mut want = plain.relation("ans").unwrap().to_vec();
            want.sort();
            let mut ev = Evaluator::new(&db);
            ev.run(&rewrite(prog)).unwrap();
            let mut got = ev.relation("ans").unwrap().to_vec();
            got.sort();
            assert!(!want.is_empty(), "{prog}");
            assert_eq!(got, want, "rewrite changed answers of {prog}");
        }
    }

    #[test]
    fn eq_const_comparison_counts_as_binding() {
        let prog = Program {
            rules: vec![
                rule(
                    "hop",
                    vec![v("x"), v("y")],
                    vec![
                        pos("e", vec![v("x"), v("z")]),
                        pos("e", vec![v("z"), v("y")]),
                    ],
                ),
                rule(
                    "ans",
                    vec![v("y")],
                    vec![
                        pos("hop", vec![v("x0"), v("y")]),
                        cmp(v("x0"), CmpOp::Eq, c(1)),
                    ],
                ),
            ],
        };
        let text = rewrite(&prog).to_string();
        // The seed carries the pinned constant; the comparison literal
        // itself stays in the answer body.
        assert!(text.contains("__magic__hop__bf(1) :- ."), "{text}");
        assert!(text.contains("x0 = 1"), "{text}");
    }

    #[test]
    fn negated_relations_are_never_restricted() {
        // bad(y) is read under negation: restricting it would grow its
        // complement, so it (and its positive use) must stay original.
        let prog = Program {
            rules: vec![
                rule("bad", vec![v("y")], vec![pos("e", vec![c(7), v("y")])]),
                rule(
                    "ans",
                    vec![v("y")],
                    vec![pos("e", vec![c(0), v("y")]), neg("bad", vec![v("y")])],
                ),
            ],
        };
        let rewritten = rewrite(&prog);
        assert_eq!(rewritten, prog, "negated relation must not be adorned");
    }

    #[test]
    fn rewritten_programs_preserve_answers() {
        let db = db();
        for prog in [
            hop_program(Some(0)),
            hop_program(Some(1)),
            hop_program(Some(9)), // no matching demand at all
            hop_program(None),
        ] {
            let mut plain = Evaluator::new(&db);
            plain.run(&prog).unwrap();
            let mut want = plain.relation("ans").unwrap().to_vec();
            want.sort();
            let rewritten = rewrite(&prog);
            let mut ev = Evaluator::new(&db);
            ev.run(&rewritten).unwrap();
            let mut got = ev.relation("ans").unwrap().to_vec();
            got.sort();
            assert_eq!(got, want, "rewrite changed answers of {prog}");
        }
    }

    #[test]
    fn restricted_copy_derives_only_demanded_rows() {
        let db = db();
        let prog = hop_program(Some(0));
        let rewritten = rewrite(&prog);
        let mut ev = Evaluator::new(&db);
        ev.run(&rewritten).unwrap();
        // Full hop has rows from sources 0, 1, and 2; the
        // demand-restricted copy derives only those reachable from 0.
        let mut restricted = ev.relation("hop__bf").unwrap().to_vec();
        restricted.sort();
        assert_eq!(restricted, vec![row![0, 2], row![0, 4]]);
        assert!(
            ev.relation("hop").is_none(),
            "original rules must be dropped"
        );
    }

    #[test]
    fn rule_tags_label_seeds_and_restricted_copies() {
        let rewritten = rewrite(&hop_program(Some(0)));
        let tags: Vec<Option<String>> = rewritten.rules.iter().map(rule_tag).collect();
        assert!(tags
            .iter()
            .any(|t| t.as_deref() == Some(" [magic seed adorn=bf]")));
        assert!(tags
            .iter()
            .any(|t| t.as_deref() == Some(" [magic adorn=bf]")));
        // The answer rule carries no tag.
        assert_eq!(tags.last().unwrap(), &None);
        // Untouched programs never get tags.
        assert!(hop_program(None)
            .rules
            .iter()
            .all(|r| rule_tag(r).is_none()));
    }

    #[test]
    fn rewrite_checked_rejects_sys_relations() {
        // Reading a system relation in a rule body...
        let program = Program {
            rules: vec![rule(
                "Out",
                vec![v("x")],
                vec![pos("sys.metrics", vec![v("x"), any()])],
            )],
        };
        let err = rewrite_checked(&program).unwrap_err();
        assert!(matches!(err, crate::error::StorageError::ReservedName(_)));
        assert!(err.to_string().contains("sys.metrics"));
        // ...or deriving into one is rejected; plain programs pass through.
        let program = Program {
            rules: vec![rule("sys.out", vec![v("x")], vec![pos("E", vec![v("x")])])],
        };
        assert!(rewrite_checked(&program).is_err());
        let ok = Program {
            rules: vec![rule("Out", vec![v("x")], vec![pos("E", vec![v("x")])])],
        };
        assert_eq!(rewrite_checked(&ok).unwrap(), rewrite(&ok));
    }

    #[test]
    fn rewrite_output_is_deterministic() {
        let a = rewrite(&hop_program(Some(0))).to_string();
        let b = rewrite(&hop_program(Some(0))).to_string();
        assert_eq!(a, b);
    }
}
