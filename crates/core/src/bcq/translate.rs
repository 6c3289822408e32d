//! Algorithm 1: translating BCQs to non-recursive Datalog over the
//! canonical relational representation.
//!
//! For each subgoal `w̄_i R^s_i(x̄_i)` the translation creates a temporary
//! table
//!
//! ```text
//! T_i(w̄_i, x̄, s) :− E*(0, w̄_i, z), V(z, t, _, s, _), R*(t, x̄)
//! ```
//!
//! where `E*` is the chain of edge joins walking the belief path from the
//! root, and then composes a final rule joining the temp tables with the
//! paper's conditions `C_i`:
//!
//! * positive subgoal: sign `'+'` and the subgoal's own terms (constants
//!   select, repeated variables join);
//! * negative subgoal: key equality plus the nested disjunction
//!   `(s = '−' ∧ x̄t[2..] = x̄[2..]) ∨ (s = '+' ∧ ⋁_j x̄t[j] ≠ x̄[j])`
//!   covering *stated* and *unstated* negatives (Prop. 7).
//!
//! Two fidelity refinements over the paper's pseudo-code:
//!
//! * adjacent path positions involving a variable get an explicit `≠`
//!   condition, keeping valuations inside `Û*` (back-edges in `E` would
//!   otherwise admit paths like `1·1`);
//! * positive subgoals push their constants and the `s = '+'` filter into
//!   the temp-table rule (the paper notes selections *can* be pushed for
//!   positive subgoals, and must not be for negative ones).

use super::{Bcq, PathElem, QueryTerm};
use crate::error::{BeliefError, Result};
use crate::internal::{star_table, v_table, InternalStore, E_TABLE, U_TABLE};
use crate::statement::Sign;
use beliefdb_storage::datalog::{
    AnalyzedPlans, Atom, BodyLit, CmpLit, Evaluator, PlanCache, Program, Rule, Term,
};
use beliefdb_storage::{metrics, CmpOp, Metric, Plan, Recorder, Row};
use std::time::Instant;

/// A translated query: the Datalog program plus the name of the answer
/// relation.
#[derive(Debug, Clone)]
pub struct TranslatedQuery {
    pub program: Program,
    pub answer: String,
}

/// Translate a BCQ into a non-recursive Datalog program over the internal
/// schema (Algorithm 1).
pub fn translate(store: &InternalStore, q: &Bcq) -> Result<TranslatedQuery> {
    q.validate(store.schema())?;
    let mut rules = Vec::with_capacity(q.subgoals.len() + 1);
    let mut final_body: Vec<BodyLit> = Vec::new();

    // User-catalog atoms join the internal `U` relation directly; they come
    // first so their (small) bindings seed the join pipeline.
    for ua in &q.user_atoms {
        final_body.push(BodyLit::Pos(Atom::new(
            U_TABLE,
            vec![query_term(&ua.uid), query_term(&ua.name)],
        )));
    }

    for (i, sg) in q.subgoals.iter().enumerate() {
        let rel_def = store.schema().relation(sg.rel)?;
        let temp = format!("__bcq_T{}", i + 1);
        let arity = rel_def.arity();

        // ---- temp-table rule: E* chain, V, R* ----------------------------
        let mut body: Vec<BodyLit> = Vec::new();
        let mut head_terms: Vec<Term> = Vec::new();

        // E*(0, w̄_i, z): one E atom per path element.
        let mut prev = Term::val(0i64); // the root world id
        for (j, elem) in sg.path.iter().enumerate() {
            let label = path_term(elem);
            let next = Term::var(format!("__z{i}_{j}"));
            body.push(BodyLit::Pos(Atom::new(
                E_TABLE,
                vec![prev.clone(), label.clone(), next.clone()],
            )));
            head_terms.push(label);
            prev = next;
        }
        // Û* guard: adjacent path elements must differ when variables are
        // involved (constants were validated already).
        for j in 1..sg.path.len() {
            let a = path_term(&sg.path[j - 1]);
            let b = path_term(&sg.path[j]);
            if matches!(sg.path[j - 1], PathElem::Var(_)) || matches!(sg.path[j], PathElem::Var(_))
            {
                body.push(BodyLit::Cmp(CmpLit {
                    left: a,
                    op: CmpOp::Ne,
                    right: b,
                }));
            }
        }

        // V(z, t, _, s, _)
        let tid = Term::var(format!("__t{i}"));
        let sign_term: Term = match sg.sign {
            // Positive subgoals only need stated positives: filter early.
            Sign::Pos => Term::val("+"),
            // Negative subgoals need both signs in the temp table.
            Sign::Neg => Term::var(format!("__s{i}")),
        };
        body.push(BodyLit::Pos(Atom::new(
            v_table(rel_def.name()),
            vec![prev, tid.clone(), Term::Any, sign_term.clone(), Term::Any],
        )));

        // R*(t, x̄): fresh column variables; positive subgoals additionally
        // push their constant selections here.
        let mut star_terms: Vec<Term> = vec![tid];
        let mut col_terms: Vec<Term> = Vec::with_capacity(arity);
        for (j, arg) in sg.args.iter().enumerate() {
            let col = match (sg.sign, arg) {
                (Sign::Pos, QueryTerm::Const(v)) => Term::Const(v.clone()),
                _ => Term::var(format!("__x{i}_{j}")),
            };
            star_terms.push(col.clone());
            col_terms.push(col);
        }
        body.push(BodyLit::Pos(Atom::new(
            star_table(rel_def.name()),
            star_terms,
        )));

        head_terms.extend(col_terms.clone());
        head_terms.push(sign_term);
        rules.push(Rule {
            head: Atom::new(&temp, head_terms),
            body,
        });

        // ---- final-rule atom + conditions C_i -----------------------------
        let mut atom_terms: Vec<Term> = Vec::with_capacity(sg.path.len() + arity + 1);
        for elem in sg.path.iter() {
            atom_terms.push(path_term(elem));
        }
        match sg.sign {
            Sign::Pos => {
                // Conditions of line 4 folded into the atom: constants and
                // the query's variable names select/join directly.
                for arg in &sg.args {
                    atom_terms.push(query_term(arg));
                }
                atom_terms.push(Term::val("+"));
                final_body.push(BodyLit::Pos(Atom::new(&temp, atom_terms)));
            }
            Sign::Neg => {
                // Key joins directly (line 5: x̄t[1] = x̄i[1]); the remaining
                // columns stay fresh and feed the nested disjunction.
                atom_terms.push(query_term(&sg.args[0]));
                let mut fresh: Vec<Term> = Vec::with_capacity(arity.saturating_sub(1));
                for j in 1..arity {
                    let t = Term::var(format!("__n{i}_{j}"));
                    atom_terms.push(t.clone());
                    fresh.push(t);
                }
                let sign_var = Term::var(format!("__fs{i}"));
                atom_terms.push(sign_var.clone());
                final_body.push(BodyLit::Pos(Atom::new(&temp, atom_terms)));

                // (s = '−' ∧ ⋀_j n_j = x_j) ∨ ⋁_j (s = '+' ∧ n_j ≠ x_j)
                let mut stated: Vec<CmpLit> = vec![CmpLit {
                    left: sign_var.clone(),
                    op: CmpOp::Eq,
                    right: Term::val("-"),
                }];
                for (j, t) in fresh.iter().enumerate() {
                    stated.push(CmpLit {
                        left: t.clone(),
                        op: CmpOp::Eq,
                        right: query_term(&sg.args[j + 1]),
                    });
                }
                let mut disjuncts = vec![stated];
                for (j, t) in fresh.iter().enumerate() {
                    disjuncts.push(vec![
                        CmpLit {
                            left: sign_var.clone(),
                            op: CmpOp::Eq,
                            right: Term::val("+"),
                        },
                        CmpLit {
                            left: t.clone(),
                            op: CmpOp::Ne,
                            right: query_term(&sg.args[j + 1]),
                        },
                    ]);
                }
                final_body.push(BodyLit::Or(disjuncts));
            }
        }
    }

    // Arithmetic predicates.
    for p in &q.predicates {
        final_body.push(BodyLit::Cmp(CmpLit {
            left: query_term(&p.left),
            op: p.op,
            right: query_term(&p.right),
        }));
    }

    let head_terms: Vec<Term> = q.head.iter().map(query_term).collect();
    rules.push(Rule {
        head: Atom::new("__bcq_answer", head_terms),
        body: final_body,
    });

    Ok(TranslatedQuery {
        program: Program { rules },
        answer: "__bcq_answer".to_string(),
    })
}

/// Per-query evaluation options the surface layers thread down.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EvalOptions {
    /// Memory budget (bytes) for the chunked executor's materialization
    /// points; `None` is unlimited.
    pub memory_budget: Option<usize>,
    /// Apply the magic-sets / sideways-information-passing rewrite
    /// (`beliefdb_storage::opt::magic`) to the translated program before
    /// evaluation, so bound queries derive only demanded tuples. On by
    /// default; off evaluates exactly the Algorithm 1 rule stack (the
    /// pre-rewrite engine, byte for byte).
    pub magic: bool,
}

impl Default for EvalOptions {
    fn default() -> Self {
        EvalOptions {
            memory_budget: None,
            magic: true,
        }
    }
}

/// The program evaluation runs: the translated rule stack, rewritten
/// demand-driven when `magic` is on (the answer relation and answer rows
/// are unchanged either way — the rewrite is answer-preserving).
fn effective_program(translated: &TranslatedQuery, opts: &EvalOptions) -> Result<Program> {
    if opts.magic {
        // The checked variant rejects programs touching `sys.*` virtual
        // relations with a clean error — they have no stored rows to
        // restrict, so rewriting them is always a bug upstream.
        beliefdb_storage::opt::magic::rewrite_checked(&translated.program)
            .map_err(BeliefError::from)
    } else {
        Ok(translated.program.clone())
    }
}

/// The front half every optimized entry point shares: Algorithm 1, the
/// magic-sets rewrite when on, and an evaluator seeded with the store's
/// statistics under the query's memory budget.
fn prepare<'s>(
    store: &'s InternalStore,
    q: &Bcq,
    opts: &EvalOptions,
    rec: &mut Recorder,
) -> Result<(TranslatedQuery, Program, Evaluator<'s>)> {
    let translated = rec.span("translate", || translate(store, q))?;
    let program = effective_program(&translated, opts)?;
    let ev = Evaluator::new(store.database())
        .seed_stats(store.stats_catalog())
        .with_memory_budget(opts.memory_budget);
    Ok((translated, program, ev))
}

/// What [`run_query`] does with the answer relation.
enum Answer<'k> {
    /// Collect it, sorted.
    Collect,
    /// Collect it, sorted, with every answer-rule plan profiled and the
    /// `EXPLAIN ANALYZE` report rendered.
    Analyze,
    /// Hand its rows to the callback as the final rule produces them;
    /// nothing is collected.
    Stream(&'k mut dyn FnMut(Row)),
}

/// Run one query through the store's plan cache — the path every
/// evaluating entry point takes. Optimized rule plans are cached keyed by
/// the program text and the versions of the tables it reads (rewritten
/// and unrewritten programs have distinct texts, hence distinct
/// entries): a hit executes the cached plans, skipping the rewrite passes
/// and intermediate re-derivation; a miss derives fresh plans and stores
/// them. Every call bumps `query.executed` and feeds the latency
/// histogram, however the answer is delivered.
///
/// Returns the sorted answer rows (empty when streamed) and the report
/// (empty unless analyzing).
fn run_query(
    store: &InternalStore,
    q: &Bcq,
    opts: &EvalOptions,
    rec: &mut Recorder,
    answer: Answer<'_>,
) -> Result<(Vec<Row>, String)> {
    metrics().incr(Metric::QueriesExecuted);
    let t0 = Instant::now();
    let out = (|| -> Result<(Vec<Row>, String)> {
        let (translated, program, mut ev) = prepare(store, q, opts, rec)?;
        // The cache lock is held only for the brief lookup/store calls —
        // never while plans execute — so concurrent queries don't
        // serialize on each other's evaluation.
        let key = program.to_string();
        let versions = PlanCache::read_versions(store.database(), &program);
        let cached = rec.span("cache_lookup", || {
            store.with_plan_cache(|cache| cache.lookup(&key, &versions))
        });
        let (collect, analyze) = match answer {
            Answer::Collect => (true, false),
            Answer::Analyze => (true, true),
            Answer::Stream(_) => (false, false),
        };
        let mut profiled: AnalyzedPlans = Vec::new();
        let fresh = rec.span(
            "execute",
            || -> beliefdb_storage::Result<Option<Vec<Plan>>> {
                let program = &program;
                Ok(match (answer, cached.as_deref()) {
                    (Answer::Collect, Some(plans)) => {
                        ev.run_cached_plans(program, plans)?;
                        None
                    }
                    (Answer::Collect, None) => Some(ev.run_collecting_plans(program)?.1),
                    (Answer::Analyze, Some(plans)) => {
                        profiled = ev.run_cached_analyze(program, plans)?.1;
                        None
                    }
                    (Answer::Analyze, None) => {
                        profiled = ev.run_collecting_analyze(program)?.1;
                        Some(profiled.iter().map(|(p, _)| p.clone()).collect())
                    }
                    (Answer::Stream(sink), Some(plans)) => {
                        ev.stream_cached_plans(program, plans, sink)?;
                        None
                    }
                    (Answer::Stream(sink), None) => {
                        Some(ev.run_streaming_collecting_plans(program, sink)?)
                    }
                })
            },
        )?;
        if let Some(plans) = fresh {
            store.with_plan_cache(|cache| cache.store(key, versions, plans));
        }
        let report = if analyze {
            ev.render_analyze_report(&profiled)
        } else {
            String::new()
        };
        let rows = if collect {
            rec.span("sort", || collect_answer(&ev, &translated))
        } else {
            Vec::new()
        };
        Ok((rows, report))
    })();
    metrics().record_latency(t0.elapsed().as_nanos() as u64);
    out
}

/// Translate and execute a query against the store. The translated rule
/// stack is first made demand-driven (magic sets / SIP — bound queries
/// derive only the tuples they can reach) unless `opts.magic` is off,
/// rule plans go through the storage-layer cost-based optimizer
/// (`beliefdb_storage::opt`) — the role the paper delegates to "the
/// database optimizer" — and the optimized plans are cached in the store
/// keyed by (program, versions of the tables it reads), so repeat queries
/// skip the rewrite passes entirely. Under `opts.memory_budget` the chunked
/// executor's materialization points spill to disk past their share of
/// it (grace hash join, external merge sort — see
/// `beliefdb_storage::exec::spill`).
pub fn evaluate(store: &InternalStore, q: &Bcq, opts: &EvalOptions) -> Result<Vec<Row>> {
    run_query(store, q, opts, &mut Recorder::disabled(), Answer::Collect).map(|(rows, _)| rows)
}

/// [`evaluate`] with per-operator profiling on — the `EXPLAIN ANALYZE`
/// backend. Returns the answer rows **plus** a report: each answer-rule
/// plan annotated with estimated *and* actual rows, chunks, wall time,
/// kernel-vs-fallback filter rows, and spill traffic. An enabled `rec`
/// additionally gets `translate` / `cache_lookup` / `execute` / `sort`
/// spans. Shares the plan cache with [`evaluate`] (a repeat query
/// profiles the cached plans; a first run stores the plans it collected).
pub fn evaluate_analyze(
    store: &InternalStore,
    q: &Bcq,
    opts: &EvalOptions,
    rec: &mut Recorder,
) -> Result<(Vec<Row>, String)> {
    run_query(store, q, opts, rec, Answer::Analyze)
}

/// Translate and execute, **streaming** the answer rows into `sink` as
/// the final Datalog rule produces them: the answer relation is never
/// collected or sorted. Rows are deduplicated but arrive in executor
/// order; intermediate temp tables are still materialized (they feed
/// later rules). Shares the plan cache with [`evaluate`].
pub fn evaluate_streaming(
    store: &InternalStore,
    q: &Bcq,
    opts: &EvalOptions,
    mut sink: impl FnMut(Row),
) -> Result<()> {
    let answer = Answer::Stream(&mut sink);
    run_query(store, q, opts, &mut Recorder::disabled(), answer).map(|_| ())
}

/// Translate and execute without the optimizer: plans run exactly as
/// Algorithm 1 emits them. Kept for differential testing and the
/// optimizer-ablation benches.
pub fn evaluate_unoptimized(store: &InternalStore, q: &Bcq) -> Result<Vec<Row>> {
    let translated = translate(store, q)?;
    run_program(Evaluator::new_unoptimized(store.database()), &translated)
}

/// Translate and execute with the materializing (operator-at-a-time)
/// reference executor instead of the streaming one: the reference side
/// of the differential suites.
pub fn evaluate_materialized(store: &InternalStore, q: &Bcq) -> Result<Vec<Row>> {
    let translated = translate(store, q)?;
    let ev = Evaluator::new(store.database())
        .seed_stats(store.stats_catalog())
        .use_materializing_executor();
    run_program(ev, &translated)
}

fn run_program(mut ev: Evaluator<'_>, translated: &TranslatedQuery) -> Result<Vec<Row>> {
    ev.run(&translated.program).map_err(BeliefError::from)?;
    Ok(collect_answer(&ev, translated))
}

fn collect_answer(ev: &Evaluator<'_>, translated: &TranslatedQuery) -> Vec<Row> {
    let mut rows = ev
        .relation(&translated.answer)
        .map(|r| r.to_vec())
        .unwrap_or_default();
    rows.sort();
    rows
}

/// Full `EXPLAIN` of a query: the Datalog program Algorithm 1 produces,
/// followed by the optimized physical plan of every rule. With the magic
/// rewrite on, generated rules carry deterministic `[magic seed adorn=…]`
/// / `[magic adorn=…]` tags; with it off the output is byte-identical to
/// the pre-rewrite engine's. Under a memory budget, materialization
/// points additionally carry `[spill budget=… partitions=…]` tags showing
/// the per-point share and partition fan-out.
pub fn explain(store: &InternalStore, q: &Bcq, opts: &EvalOptions) -> Result<String> {
    let (_, program, mut ev) = prepare(store, q, opts, &mut Recorder::disabled())?;
    ev.explain_program(&program).map_err(BeliefError::from)
}

fn path_term(elem: &PathElem) -> Term {
    match elem {
        PathElem::User(u) => Term::Const(u.value()),
        PathElem::Var(name) => Term::var(name.clone()),
    }
}

fn query_term(t: &QueryTerm) -> Term {
    match t {
        QueryTerm::Const(v) => Term::Const(v.clone()),
        QueryTerm::Var(n) => Term::var(n.clone()),
        QueryTerm::Any => Term::Any,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bcq::dsl::*;
    use crate::bcq::naive;
    use crate::database::running_example;
    use crate::schema::ExternalSchema;
    use beliefdb_storage::row;

    /// Build an InternalStore holding the running example.
    fn store() -> InternalStore {
        let (db, ..) = running_example();
        let mut store = InternalStore::new(db.schema().clone()).unwrap();
        for u in db.users() {
            store
                .add_user(db.user_name(u).unwrap().to_string())
                .unwrap();
        }
        for stmt in db.statements() {
            assert!(store.insert_statement(&stmt).unwrap().accepted());
        }
        store
    }

    #[test]
    fn translation_produces_one_rule_per_subgoal_plus_answer() {
        let st = store();
        let s = st.schema().relation_id("Sightings").unwrap();
        let q = Bcq::builder(vec![qv("x")])
            .positive(
                vec![pv("x")],
                s,
                vec![qany(), qany(), qany(), qany(), qany()],
            )
            .build(st.schema())
            .unwrap();
        let t = translate(&st, &q).unwrap();
        assert_eq!(t.program.rules.len(), 2);
        assert_eq!(t.answer, "__bcq_answer");
        // The temp rule walks E once (depth-1 path).
        let temp = &t.program.rules[0];
        assert!(temp
            .body
            .iter()
            .any(|b| matches!(b, BodyLit::Pos(a) if a.relation == "E")));
    }

    #[test]
    fn content_query_matches_naive() {
        let st = store();
        let (db, _, bob, _) = running_example();
        let s = st.schema().relation_id("Sightings").unwrap();
        let q = Bcq::builder(vec![qv("sid"), qv("species")])
            .positive(
                vec![pu(bob)],
                s,
                vec![qv("sid"), qany(), qv("species"), qany(), qany()],
            )
            .build(st.schema())
            .unwrap();
        let translated = evaluate(&st, &q, &EvalOptions::default()).unwrap();
        let mut reference = naive::evaluate(&db, &q).unwrap();
        reference.sort();
        assert_eq!(translated, reference);
        assert_eq!(translated, vec![row!["s2", "raven"]]);
    }

    #[test]
    fn depth_zero_query_reads_root_world() {
        let st = store();
        let s = st.schema().relation_id("Sightings").unwrap();
        let q = Bcq::builder(vec![qv("sid")])
            .positive(vec![], s, vec![qv("sid"), qany(), qany(), qany(), qany()])
            .build(st.schema())
            .unwrap();
        assert_eq!(
            evaluate(&st, &q, &EvalOptions::default()).unwrap(),
            vec![row!["s1"]]
        );
    }

    #[test]
    fn negative_subgoal_stated_and_unstated() {
        let st = store();
        let (db, alice, _, _) = running_example();
        let s = st.schema().relation_id("Sightings").unwrap();
        // Example 15: who disagrees with Alice?
        let args = vec![qv("y"), qv("z"), qv("u"), qv("v"), qv("w")];
        let q = Bcq::builder(vec![qv("x")])
            .negative(vec![pv("x")], s, args.clone())
            .positive(vec![pu(alice)], s, args)
            .build(st.schema())
            .unwrap();
        let translated = evaluate(&st, &q, &EvalOptions::default()).unwrap();
        let reference = naive::evaluate(&db, &q).unwrap();
        assert_eq!(translated, reference);
        assert_eq!(translated, vec![row![2]]);
    }

    #[test]
    fn higher_order_conflict_matches_naive() {
        let st = store();
        let (db, alice, bob, _) = running_example();
        let s = st.schema().relation_id("Sightings").unwrap();
        let args = vec![qv("x"), qv("z"), qv("y"), qv("u"), qv("v")];
        let q = Bcq::builder(vec![qv("x"), qv("y")])
            .positive(vec![pu(bob), pu(alice)], s, args.clone())
            .negative(vec![pu(bob)], s, args)
            .build(st.schema())
            .unwrap();
        let translated = evaluate(&st, &q, &EvalOptions::default()).unwrap();
        let reference = naive::evaluate(&db, &q).unwrap();
        assert_eq!(translated, reference);
        assert_eq!(translated.len(), 2);
    }

    #[test]
    fn example_18_disputed_samples() {
        // Example 18's relation R(sample, category, origin) with two users
        // disagreeing on category or origin.
        let schema = ExternalSchema::new().with_relation("R", &["sample", "category", "origin"]);
        let mut st = InternalStore::new(schema).unwrap();
        let u1 = st.add_user("u1").unwrap();
        let u2 = st.add_user("u2").unwrap();
        let r = st.schema().relation_id("R").unwrap();
        let p1 = crate::path::BeliefPath::user(u1);
        let p2 = crate::path::BeliefPath::user(u2);
        let t_a1 = crate::statement::GroundTuple::new(r, row!["a", "fungus", "soil"]);
        let t_a2 = crate::statement::GroundTuple::new(r, row!["a", "fungus", "bark"]);
        let t_b = crate::statement::GroundTuple::new(r, row!["b", "moss", "rock"]);
        st.insert(&p1, &t_a1, crate::statement::Sign::Pos).unwrap();
        st.insert(&p2, &t_a2, crate::statement::Sign::Pos).unwrap();
        st.insert(&p1, &t_b, crate::statement::Sign::Pos).unwrap();

        // q(x, y, z) :- [y]R+(x, u, v), [z]R−(x, u, v)
        let q = Bcq::builder(vec![qv("x"), qv("y"), qv("z")])
            .positive(vec![pv("y")], r, vec![qv("x"), qv("u"), qv("v")])
            .negative(vec![pv("z")], r, vec![qv("x"), qv("u"), qv("v")])
            .build(st.schema())
            .unwrap();
        let rows = evaluate(&st, &q, &EvalOptions::default()).unwrap();
        // Sample a is disputed in both directions; b is not disputed.
        assert!(rows.contains(&row!["a", 1, 2]));
        assert!(rows.contains(&row!["a", 2, 1]));
        assert!(!rows
            .iter()
            .any(|r| r[0] == beliefdb_storage::Value::str("b")));

        // Differential check against the naive evaluator.
        let logical = st.to_belief_database().unwrap();
        let reference = naive::evaluate(&logical, &q).unwrap();
        assert_eq!(rows, reference);
    }

    #[test]
    fn u_star_guard_blocks_repeated_users() {
        let st = store();
        let s = st.schema().relation_id("Sightings").unwrap();
        let q = Bcq::builder(vec![qv("x"), qv("y")])
            .positive(
                vec![pv("x"), pv("y")],
                s,
                vec![qany(), qany(), qany(), qany(), qany()],
            )
            .build(st.schema())
            .unwrap();
        let rows = evaluate(&st, &q, &EvalOptions::default()).unwrap();
        assert!(!rows.is_empty());
        for r in &rows {
            assert_ne!(r[0], r[1], "translated query leaked a path outside Û*");
        }
        // And the whole answer agrees with the naive evaluator.
        let (db, ..) = running_example();
        let reference = naive::evaluate(&db, &q).unwrap();
        assert_eq!(rows, reference);
    }

    #[test]
    fn arithmetic_predicates_apply() {
        let st = store();
        let (db, alice, _, _) = running_example();
        let s = st.schema().relation_id("Sightings").unwrap();
        let q = Bcq::builder(vec![qv("x"), qv("sp1"), qv("sp2")])
            .positive(
                vec![pu(alice)],
                s,
                vec![qv("sid"), qany(), qv("sp1"), qany(), qany()],
            )
            .positive(
                vec![pv("x")],
                s,
                vec![qv("sid"), qany(), qv("sp2"), qany(), qany()],
            )
            .pred(qv("sp1"), beliefdb_storage::CmpOp::Ne, qv("sp2"))
            .build(st.schema())
            .unwrap();
        let rows = evaluate(&st, &q, &EvalOptions::default()).unwrap();
        let reference = naive::evaluate(&db, &q).unwrap();
        assert_eq!(rows, reference);
        assert_eq!(rows, vec![row![2, "crow", "raven"]]);
    }

    #[test]
    fn optimized_and_unoptimized_evaluation_agree() {
        let st = store();
        let (_, alice, bob, _) = running_example();
        let s = st.schema().relation_id("Sightings").unwrap();
        let args = vec![qv("y"), qv("z"), qv("u"), qv("v"), qv("w")];
        let queries = vec![
            Bcq::builder(vec![qv("x")])
                .negative(vec![pv("x")], s, args.clone())
                .positive(vec![pu(alice)], s, args.clone())
                .build(st.schema())
                .unwrap(),
            Bcq::builder(vec![qv("y"), qv("u")])
                .positive(vec![pu(bob), pu(alice)], s, args.clone())
                .build(st.schema())
                .unwrap(),
            Bcq::builder(vec![qv("x"), qv("y")])
                .positive(vec![pv("x"), pv("y")], s, args)
                .build(st.schema())
                .unwrap(),
        ];
        for q in &queries {
            assert_eq!(
                evaluate(&st, q, &EvalOptions::default()).unwrap(),
                evaluate_unoptimized(&st, q).unwrap(),
                "optimizer changed semantics of {q}"
            );
        }
    }

    #[test]
    fn explain_renders_physical_plans() {
        let st = store();
        let s = st.schema().relation_id("Sightings").unwrap();
        let q = Bcq::builder(vec![qv("sid")])
            .positive(
                vec![pu(crate::ids::UserId(2))],
                s,
                vec![qv("sid"), qany(), qany(), qany(), qany()],
            )
            .build(st.schema())
            .unwrap();
        let text = explain(&st, &q, &EvalOptions::default()).unwrap();
        assert!(text.contains("__bcq_T1"), "{text}");
        assert!(text.contains("Scan"), "{text}");
        assert_eq!(
            text,
            explain(&st, &q, &EvalOptions::default()).unwrap(),
            "explain must be deterministic"
        );
    }

    #[test]
    fn unsafe_query_rejected_before_translation() {
        let st = store();
        let s = st.schema().relation_id("Sightings").unwrap();
        let q = Bcq::builder(vec![qv("ghost")])
            .positive(vec![], s, vec![qany(), qany(), qany(), qany(), qany()])
            .build_unchecked();
        assert!(translate(&st, &q).is_err());
    }
}
