//! Algorithm 1: translating BCQs to non-recursive Datalog over the
//! canonical relational representation.
//!
//! For each subgoal `w̄_i R^s_i(x̄_i)` the paper creates a temporary table
//!
//! ```text
//! T_i(w̄_i, x̄, s) :− E*(0, w̄_i, z), V(z, t, x₁, s, _), R*(t, x̄)
//! ```
//!
//! where `E*` is the chain of edge joins walking the belief path from the
//! root and `x₁` is the key attribute of `R*(t, x̄)`, which `V`'s key column
//! repeats (the paper writes `_` there; naming it lets a rule restricted to
//! demanded keys probe `V` on `(wid, key)`), and then composes a final rule
//! joining the temp tables with the paper's conditions `C_i`:
//!
//! * positive subgoal: sign `'+'` and the subgoal's own terms (constants
//!   select, repeated variables join);
//! * negative subgoal: key equality plus the nested disjunction
//!   `(s = '−' ∧ x̄t[2..] = x̄[2..]) ∨ (s = '+' ∧ ⋁_j x̄t[j] ≠ x̄[j])`
//!   covering *stated* and *unstated* negatives (Prop. 7).
//!
//! The `E*` walk from the root ends at `dss(w̄)` (Algorithm 3), and the
//! store keeps no `E`: the translation applies Algorithm 3 itself, through
//! the world directory, when it translates.
//!
//! * A constant path becomes the constant world `z = dss(w̄)`.
//! * A path with variables becomes a relation of fact rules,
//!   `__bcq_W{i}(ȳ, z)`, one per valuation `ȳ` of its variables over the
//!   registered users that keeps the path inside `Û*` (adjacent users
//!   differ, a repeated variable takes one user), mapped to its world. It
//!   takes the place of the `E*` join, with exactly the rows that join
//!   enumerated.
//! * A path with no such valuation makes the whole conjunction
//!   unsatisfiable: the query translates to the empty program.
//!
//! The worlds are part of the program's text, which keys the plan cache:
//! a new world or user that changes a path's resolution changes the key.
//! [`evaluate`] consults the cache's query memo before it translates at
//! all: keyed by [`Bcq::encode`] and the options, stamped with the number
//! of worlds and users, a repeated query is answered from the stored
//! answer without running Algorithm 1.
//!
//! Positive subgoals push their constants and the `s = '+'` filter into
//! the temp-table rule (the paper notes selections *can* be pushed for
//! positive subgoals, and must not be for negative ones).
//!
//! Under [`DefaultPolicy::Lazy`](crate::internal::DefaultPolicy) `V` holds
//! the explicit statements only, and the `V(z, t, x₁, s, _)` atom becomes
//! the entailed view of Sect. 6.3: the temp table is a union of one rule
//! per sign and per position `j` of the world's suffix chain
//! `z = z₀, z₁ = S(z), …, ε`, each reading `V` at `zⱼ` and anti-joining the
//! overrides at `z₀ … zⱼ₋₁`:
//!
//! ```text
//! T_i(w̄, x̄, +) :− V(zj, t, x₁, +, _), R*(t, x̄),
//!                 ⋀_{h<j} ¬V(zh, _, x₁, +, _) ∧ ¬V(zh, t, x₁, −, _)
//! T_i(w̄, x̄, −) :− V(zj, t, x₁, −, _), R*(t, x̄), ⋀_{h<j} ¬V(zh, t, x₁, +, _)
//! ```
//!
//! — a positive is inherited unless a nearer world states a positive for
//! its key (Γ1) or its negative (Γ2), a negative unless a nearer world
//! states its positive (Γ2): the overriding union of Thm. 17(2a), unrolled.
//! The chain is the one the store's slice read folds (under `Eager`, the
//! world alone). For a constant path the `zⱼ` are constants, one rule for
//! every position the world has and for no other. For a path with
//! variables, each valuation fact holds its world's whole chain,
//! `__bcq_W{i}(ȳ, z₀, z₁, …)`, padded to the longest chain of the path's
//! valuations with an id no world has, so rule `j` derives nothing for a
//! valuation whose chain is shorter. The program stays non-recursive, so it
//! is plan-cached and `EXPLAIN`ed under both policies alike.

use super::{Bcq, PathElem, QueryTerm};
use crate::error::{BeliefError, Result};
use crate::ids::{UserId, Wid};
use crate::internal::{star_table, v_table, InternalStore, U_TABLE};
use crate::path::BeliefPath;
use crate::statement::Sign;
use beliefdb_storage::datalog::{
    Atom, BodyLit, CmpLit, Evaluator, Output, PlanCache, Program, Rule, Term,
};
use beliefdb_storage::{metrics, CmpOp, Metric, Recorder, Row, Value};
use std::time::Instant;

/// A translated query: the Datalog program plus the name of the answer
/// relation.
#[derive(Debug, Clone)]
pub struct TranslatedQuery {
    pub program: Program,
    pub answer: String,
}

/// Pads a valuation's chain past `ε` in its subgoal's valuation facts: no
/// world has this id, so a rule reading `V` there derives nothing.
const NO_WORLD: Value = Value::Int(-1);

/// What [`explain`] prints for the empty program [`translate`] returns
/// when a belief path has no valuation.
pub const NO_VALUATION: &str =
    "-- a belief path has no valuation over the registered users: empty result\n";

/// Translate a BCQ into a non-recursive Datalog program over the internal
/// schema (Algorithm 1). A path naming a user who is not registered is
/// refused with [`BeliefError::NoSuchUser`], as the naive evaluator
/// refuses it. A query with a subgoal whose path has no valuation inside
/// `Û*` over the registered users (`resolve_path`) translates to the empty
/// program: its answer is empty.
pub fn translate(store: &InternalStore, q: &Bcq) -> Result<TranslatedQuery> {
    q.validate(store.schema())?;
    q.check_path_users(|u| store.has_user(u))?;
    let answer = "__bcq_answer".to_string();
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

        // ---- the worlds the path reaches (Algorithm 3) -------------------
        let vars = path_vars(&sg.path);
        let reached = resolve_path(store, &sg.path, &vars);
        let Some(positions) = reached.iter().map(|(_, chain)| chain.len()).max() else {
            // No valuation of the path lies inside Û* over the registered
            // users: the subgoal, and so the conjunction, holds nowhere.
            return Ok(TranslatedQuery {
                program: Program::default(),
                answer,
            });
        };
        // Chain position `h`: a constant for a constant path, else a column
        // of the valuation facts `__bcq_W{i}(vars, z₀, …)`, one per
        // valuation, its chain padded with `NO_WORLD` to the longest one.
        let facts = format!("__bcq_W{}", i + 1);
        if !vars.is_empty() {
            for (users, chain) in &reached {
                let worlds = (0..positions).map(|h| chain.get(h).map_or(NO_WORLD, |w| w.value()));
                let row = users.iter().map(|u| u.value()).chain(worlds);
                rules.push(Rule {
                    head: Atom::new(&facts, row.map(Term::Const).collect()),
                    body: Vec::new(),
                });
            }
        }
        let world = |h: usize| match &reached[..] {
            [(_, chain)] if vars.is_empty() => Term::Const(chain[h].value()),
            _ => Term::var(format!("__z{i}_{h}")),
        };
        let mut chains: Vec<(Vec<Term>, Vec<BodyLit>)> = Vec::with_capacity(positions);
        for j in 0..positions {
            let chain: Vec<Term> = (0..=j).map(world).collect();
            let mut valuation = Vec::new();
            if !vars.is_empty() {
                let unread = (j + 1..positions).map(|_| Term::Any);
                let terms = vars.iter().map(|&n| Term::var(n)).chain(chain.clone());
                let terms = terms.chain(unread).collect();
                valuation.push(BodyLit::Pos(Atom::new(&facts, terms)));
            }
            chains.push((chain, valuation));
        }

        // ---- temp-table rules: V, R* at the reached worlds -----------------
        let mut head_terms: Vec<Term> = sg.path.iter().map(path_term).collect();
        let v = v_table(rel_def.name());
        let tid = Term::var(format!("__t{i}"));

        // R*(t, x̄): fresh column variables; positive subgoals additionally
        // push their constant selections here.
        let mut star_terms: Vec<Term> = vec![tid.clone()];
        let mut col_terms: Vec<Term> = Vec::with_capacity(arity);
        for (j, arg) in sg.args.iter().enumerate() {
            let col = match (sg.sign, arg) {
                (Sign::Pos, QueryTerm::Const(v)) => Term::Const(v.clone()),
                _ => Term::var(format!("__x{i}_{j}")),
            };
            star_terms.push(col.clone());
            col_terms.push(col);
        }
        let star = BodyLit::Pos(Atom::new(star_table(rel_def.name()), star_terms));
        head_terms.extend(col_terms.iter().cloned());

        // `V`'s key column repeats the tuple's first attribute: writing it
        // into the stated `V` atom lets a rule restricted on the key probe
        // `(wid, key)` instead of reading the whole world.
        let key = &col_terms[0];
        // Positive subgoals only need stated positives: filter early.
        // Negative subgoals need both signs in the temp table.
        let signs: &[Sign] = match sg.sign {
            Sign::Pos => &[Sign::Pos],
            Sign::Neg => &[Sign::Pos, Sign::Neg],
        };
        for &sign in signs {
            for (chain, valuation) in &chains {
                let mut body = valuation.clone();
                body.extend(entailed_v(&v, chain, &tid, key, sign));
                body.push(star.clone());
                let mut head = head_terms.clone();
                head.push(Term::Const(sign.value()));
                rules.push(Rule {
                    head: Atom::new(&temp, head),
                    body,
                });
            }
        }

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
        head: Atom::new(&answer, head_terms),
        body: final_body,
    });

    Ok(TranslatedQuery {
        program: Program { rules },
        answer,
    })
}

/// The worlds a belief path reaches, resolved through the world directory
/// (Algorithm 3): for every valuation of the path's variables
/// ([`path_vars`]) over the registered users that keeps the path inside
/// `Û*` — adjacent users differ, a repeated variable takes one user — the
/// users it assigns and the chain of worlds the translation reads. The
/// chain starts at `dss(w̄)`; under `Lazy` it goes on through the suffix
/// parents down to `ε`. A constant path, whose users [`translate`] has
/// checked, has one valuation.
fn resolve_path(
    store: &InternalStore,
    path: &[PathElem],
    vars: &[&str],
) -> Vec<(Vec<UserId>, Vec<Wid>)> {
    // `users^k`, the first variable most significant.
    let mut valuations: Vec<Vec<UserId>> = vec![Vec::new()];
    for _ in vars {
        valuations = (valuations.into_iter())
            .flat_map(|v| store.users().map(move |u| [&v[..], &[u]].concat()))
            .collect();
    }
    (valuations.into_iter())
        .filter_map(|valuation| {
            let grounded = path.iter().map(|elem| match elem {
                PathElem::User(u) => *u,
                PathElem::Var(n) => valuation[vars.iter().position(|v| v == n).expect("a var")],
            });
            let w = BeliefPath::new(grounded.collect::<Vec<_>>()).ok()?;
            // `stored_chain` lists the chain root-most first.
            let chain = store.stored_chain(store.resolve(&w));
            Some((valuation, chain.into_iter().rev().collect()))
        })
        .collect()
}

/// The distinct variables of a belief path, in order of first appearance.
fn path_vars(path: &[PathElem]) -> Vec<&str> {
    let mut vars: Vec<&str> = Vec::new();
    for elem in path {
        if let PathElem::Var(n) = elem {
            if !vars.contains(&n.as_str()) {
                vars.push(n);
            }
        }
    }
    vars
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

/// The front half every optimized entry point shares: Algorithm 1 and
/// the magic-sets rewrite when on.
fn prepare(
    store: &InternalStore,
    q: &Bcq,
    opts: &EvalOptions,
    rec: &mut Recorder,
) -> Result<(TranslatedQuery, Program)> {
    let translated = rec.span("translate", || translate(store, q))?;
    let program = effective_program(&translated, opts)?;
    Ok((translated, program))
}

/// An evaluator seeded with the store's statistics under the query's
/// memory budget.
fn evaluator<'s>(store: &'s InternalStore, opts: &EvalOptions) -> Evaluator<'s> {
    Evaluator::new(store.database())
        .seed_stats(store.stats_catalog())
        .with_memory_budget(opts.memory_budget)
}

/// What [`evaluate`] does with the answer relation.
pub enum Answer<'k> {
    /// Collect it, sorted. When plans run under an enabled recorder, every
    /// answer-rule plan is profiled and the `EXPLAIN ANALYZE` report is
    /// attached to the recorder.
    Collect,
    /// Collect it, sorted, with every answer-rule plan profiled and the
    /// `EXPLAIN ANALYZE` report returned — always by running the plans,
    /// even when the cache holds the answer.
    Analyze,
    /// Hand its rows to the callback as the final rule produces them:
    /// deduplicated, in executor order, never collected or sorted
    /// (intermediate temp tables are still materialized — they feed later
    /// rules). When the cache holds the answer, its sorted rows are
    /// handed over instead.
    Stream(&'k mut dyn FnMut(Row)),
}

/// Translate and execute a query against the store: the one path every
/// evaluating entry point takes. The translated rule stack is first made
/// demand-driven (magic sets / SIP — bound queries derive only the tuples
/// they can reach) unless `opts.magic` is off, and rule plans go through
/// the storage-layer cost-based optimizer (`beliefdb_storage::opt`) — the
/// role the paper delegates to "the database optimizer". Under
/// `opts.memory_budget` the chunked executor's materialization points
/// spill to disk past their share of it (grace hash join, external merge
/// sort — see `beliefdb_storage::exec::spill`).
///
/// Optimized rule plans are cached in the store keyed by the program text
/// and the versions of the tables it reads (rewritten and unrewritten
/// programs have distinct texts, hence distinct entries). A miss derives
/// fresh plans and stores them; a hit executes the cached plans, skipping
/// the rewrite passes and intermediate re-derivation. Every run that
/// collects the answer keeps it, sorted, with the entry.
///
/// In front of that sits the cache's query memo, keyed by [`Bcq::encode`]
/// of `q` plus `opts`. A query translates the same way as long as the
/// world directory and the user list have not grown (the policy and
/// schema are fixed per store), so `(worlds, users)` stamps the memo
/// entry. A repeat at the same stamp, whose program's read set is still
/// at its versions, is answered from the stored answer without
/// translating, rewriting or rendering the program; only a miss there
/// takes the path above. [`Answer::Analyze`] always runs the plans.
/// Every call bumps `query.executed` and feeds the latency histogram,
/// however the answer is delivered.
///
/// An enabled `rec` gets `query_lookup` / `translate` / `cache_lookup` /
/// `execute` / `sort` spans and, whenever plans run, the `EXPLAIN
/// ANALYZE` report of the run as its profile; a query answered from the
/// cache records neither `execute` nor `sort` and attaches no profile,
/// and one answered by the memo records `query_lookup` alone. A disabled
/// `rec` profiles nothing (unless analyzing).
///
/// Returns the sorted answer rows (empty when streamed) and the report
/// (empty unless analyzing).
pub fn evaluate(
    store: &InternalStore,
    q: &Bcq,
    opts: &EvalOptions,
    rec: &mut Recorder,
    answer: Answer<'_>,
) -> Result<(Vec<Row>, String)> {
    metrics().incr(Metric::QueriesExecuted);
    let t0 = Instant::now();
    let out = (|| -> Result<(Vec<Row>, String)> {
        let analyze = matches!(answer, Answer::Analyze);
        // The cache lock is held only for the brief lookup/store/attach
        // calls — never while plans execute — so concurrent queries don't
        // serialize on each other's evaluation.
        let query = query_key(q, opts);
        let stamp = (store.directory().len(), store.user_count());
        if !analyze {
            let memo = rec.span("query_lookup", || {
                store.with_plan_cache(|cache| cache.lookup_query(store.database(), &query, stamp))
            });
            if let Some(rows) = memo {
                return Ok(stored_answer(&rows, answer));
            }
        }
        let (translated, program) = prepare(store, q, opts, rec)?;
        let key = program.to_string();
        let versions = PlanCache::read_versions(store.database(), &program);
        let cached = rec.span("cache_lookup", || {
            store.with_plan_cache(|cache| {
                let hit = cache.lookup_entry(&key, &versions)?;
                cache.remember_query(&query, stamp, &key, &versions);
                Some(hit)
            })
        });
        let (plans, stored) = match cached {
            Some(hit) => (Some(hit.plans), hit.answer.filter(|_| !analyze)),
            None => (None, None),
        };
        if let Some(rows) = stored {
            return Ok(stored_answer(&rows, answer));
        }
        let out = match answer {
            Answer::Stream(sink) => Output::Stream(sink),
            Answer::Collect if !rec.is_enabled() => Output::Collect,
            Answer::Collect | Answer::Analyze => Output::Profile,
        };
        let collect = !matches!(out, Output::Stream(_));
        let profile = matches!(out, Output::Profile);
        let mut ev = evaluator(store, opts);
        let cached_plans = plans.as_deref().map(Vec::as_slice);
        let ran = rec.span("execute", || ev.run_answer(&program, cached_plans, out))?;
        let mut report = if profile {
            ev.render_analyze_report(&ran.plans, &ran.profiles)
        } else {
            String::new()
        };
        let rows = if collect {
            rec.span("sort", || collect_answer(&ev, &translated))
        } else {
            Vec::new()
        };
        store.with_plan_cache(|cache| {
            if plans.is_none() {
                cache.store(key.clone(), versions.clone(), ran.plans.into_owned());
                cache.remember_query(&query, stamp, &key, &versions);
            }
            if collect {
                cache.attach_answer(&key, &versions, &rows);
            }
        });
        if !analyze && !report.is_empty() {
            rec.set_profile(std::mem::take(&mut report));
        }
        Ok((rows, report))
    })();
    metrics().record_latency(t0.elapsed().as_nanos() as u64);
    out
}

/// The query memo's key: [`Bcq::encode`] of `q`, then the options it runs
/// under.
fn query_key(q: &Bcq, opts: &EvalOptions) -> Vec<u8> {
    let EvalOptions {
        memory_budget,
        magic,
    } = opts;
    let mut key = Vec::with_capacity(256);
    q.encode(&mut key);
    key.push(*magic as u8);
    match memory_budget {
        None => key.push(0),
        Some(bytes) => {
            key.push(1);
            key.extend((*bytes as u64).to_le_bytes());
        }
    }
    key
}

/// Deliver an answer the cache stored: handed to the sink row by row, or
/// returned as the sorted rows.
fn stored_answer(rows: &[Row], answer: Answer<'_>) -> (Vec<Row>, String) {
    match answer {
        Answer::Stream(sink) => {
            rows.iter().cloned().for_each(sink);
            (Vec::new(), String::new())
        }
        _ => (rows.to_vec(), String::new()),
    }
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
    let (_, program) = prepare(store, q, opts, &mut Recorder::disabled())?;
    if program.rules.is_empty() {
        return Ok(NO_VALUATION.to_string());
    }
    evaluator(store, opts)
        .explain_program(&program)
        .map_err(BeliefError::from)
}

/// The body literals under which the world `chain[0]` entails `tid`
/// (whose key is `key`) with `sign` because the last world of its suffix
/// chain `chain` states it and no world nearer on the chain overrides it:
/// the stated row, and an anti-join against `V` per nearer world (none
/// for the world's own rows).
fn entailed_v(v: &str, chain: &[Term], tid: &Term, key: &Term, sign: Sign) -> Vec<BodyLit> {
    let stated = |world: &Term, t: Term, s: Sign| {
        Atom::new(
            v,
            vec![
                world.clone(),
                t,
                key.clone(),
                Term::Const(s.value()),
                Term::Any,
            ],
        )
    };
    let (from, nearer) = chain.split_last().expect("a chain holds its world");
    let mut body = vec![BodyLit::Pos(stated(from, tid.clone(), sign))];
    for world in nearer {
        let overridden_by = |t: Term, s: Sign| BodyLit::Neg(stated(world, t, s));
        match sign {
            // Γ1: no positive for the key; Γ2: not the tuple's negative.
            Sign::Pos => {
                body.push(overridden_by(Term::Any, Sign::Pos));
                body.push(overridden_by(tid.clone(), Sign::Neg));
            }
            // Γ2: not the tuple's positive.
            Sign::Neg => body.push(overridden_by(tid.clone(), Sign::Pos)),
        }
    }
    body
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
    use crate::internal::DefaultPolicy;
    use crate::schema::ExternalSchema;
    use beliefdb_storage::row;

    /// The sorted answer of `q` under the default options.
    fn collected(st: &InternalStore, q: &Bcq) -> Vec<Row> {
        let mut rec = Recorder::disabled();
        let (rows, _) =
            evaluate(st, q, &EvalOptions::default(), &mut rec, Answer::Collect).unwrap();
        rows
    }

    /// Build an InternalStore holding the running example.
    fn store() -> InternalStore {
        store_with(DefaultPolicy::default())
    }

    fn store_with(policy: DefaultPolicy) -> InternalStore {
        let (db, ..) = running_example();
        let mut store = InternalStore::with_policy(db.schema().clone(), policy).unwrap();
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
        let st = store_with(DefaultPolicy::Eager);
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
        assert_eq!(t.answer, "__bcq_answer");
        // One valuation fact per user, mapping it to its world ([Alice],
        // [Bob], and ε for Carol, who has no state), then the temp rule
        // and the answer.
        let world = |path: &[u32]| st.directory().get(&crate::path::path(path)).unwrap();
        let facts: Vec<String> = t.program.rules[..3].iter().map(|r| r.to_string()).collect();
        assert_eq!(
            facts,
            [
                format!("__bcq_W1(1, {}) :- .", world(&[1]).value()),
                format!("__bcq_W1(2, {}) :- .", world(&[2]).value()),
                "__bcq_W1(3, 0) :- .".to_string(),
            ]
        );
        assert_eq!(t.program.rules.len(), 5);
        // The temp rule joins the facts; no stored world relation is read.
        let temp = &t.program.rules[3];
        let relations: Vec<&str> = temp
            .body
            .iter()
            .map(|b| match b {
                BodyLit::Pos(a) | BodyLit::Neg(a) => a.relation.as_str(),
                other => panic!("unexpected literal {other:?}"),
            })
            .collect();
        assert_eq!(relations, ["__bcq_W1", "V__Sightings", "Sightings__star"]);
        // `V(z, t, x₁, s, _)`: the stated row names the key `R*(t, x̄)`
        // binds, so a rule restricted on the key probes `(wid, key)`.
        let atom = |rel: &str| {
            temp.body
                .iter()
                .find_map(|b| match b {
                    BodyLit::Pos(a) if a.relation == rel => Some(a.terms.clone()),
                    _ => None,
                })
                .unwrap()
        };
        assert_eq!(atom("V__Sightings")[2], atom("Sightings__star")[1]);

        // Under `Lazy` the temp table is the unrolled view over each
        // world's chain: a depth-1 state and its suffix parent ε, or ε
        // alone for Carol, whose chain is padded — two rules.
        let lazy = store_with(DefaultPolicy::Lazy);
        let t = translate(&lazy, &q).unwrap();
        let facts: Vec<String> = t.program.rules[..3].iter().map(|r| r.to_string()).collect();
        assert_eq!(facts[2], format!("__bcq_W1(3, 0, {NO_WORLD}) :- ."));
        assert_eq!(t.program.rules.len(), 3 + 2 + 1);
        let temps: Vec<&Rule> = t
            .program
            .rules
            .iter()
            .filter(|r| r.head.relation == "__bcq_T1")
            .collect();
        let blocker = |b: &&BodyLit| matches!(b, BodyLit::Neg(_));
        let blockers: Vec<usize> = temps
            .iter()
            .map(|r| r.body.iter().filter(blocker).count())
            .collect();
        assert_eq!(blockers, [0, 2]);

        // A constant path reads its worlds as constants: Bob's chain is
        // [Bob], ε — two rules, and no valuation facts.
        let bob = Bcq::builder(vec![qv("sid")])
            .positive(
                vec![pu(crate::ids::UserId(2))],
                s,
                vec![qv("sid"), qany(), qany(), qany(), qany()],
            )
            .build(lazy.schema())
            .unwrap();
        let t = translate(&lazy, &bob).unwrap();
        let bob_world = lazy.directory().get(&crate::path::path(&[2])).unwrap();
        let texts: Vec<String> = t.program.rules.iter().map(|r| r.to_string()).collect();
        assert_eq!(texts.len(), 3, "{texts:?}");
        assert!(
            texts[0].contains(&format!(
                "V__Sightings({}, __t0, __x0_0, '+', _)",
                bob_world.value()
            )),
            "{texts:?}"
        );
        assert!(
            texts[1].contains("V__Sightings(0, __t0, __x0_0, '+', _)"),
            "{texts:?}"
        );
        assert!(
            texts[1].contains(&format!(
                "not V__Sightings({}, _, __x0_0, '+', _)",
                bob_world.value()
            )),
            "{texts:?}"
        );
    }

    #[test]
    fn a_path_without_a_valuation_translates_to_the_empty_program() {
        let st = store();
        let s = st.schema().relation_id("Sightings").unwrap();
        let args = || vec![qv("sid"), qany(), qany(), qany(), qany()];
        // Two adjacent variables that must take one user.
        let repeated = Bcq::builder(vec![qv("sid")])
            .positive(vec![pv("x"), pv("x")], s, args())
            .build(st.schema())
            .unwrap();
        let t = translate(&st, &repeated).unwrap();
        assert!(t.program.rules.is_empty(), "{}", t.program);
        assert!(collected(&st, &repeated).is_empty());
        assert!(evaluate_unoptimized(&st, &repeated).unwrap().is_empty());
        assert!(evaluate_materialized(&st, &repeated).unwrap().is_empty());
    }

    #[test]
    fn a_path_naming_an_unregistered_user_is_refused_like_naive() {
        let st = store();
        let (db, ..) = running_example();
        let s = st.schema().relation_id("Sightings").unwrap();
        let args = || vec![qv("sid"), qany(), qany(), qany(), qany()];
        // `BELIEF 9 Sightings`, and user 9 nested under a registered one
        // beside a path variable.
        let alone = Bcq::builder(vec![qv("sid")])
            .positive(vec![pu(crate::ids::UserId(9))], s, args())
            .build(st.schema())
            .unwrap();
        let nested = Bcq::builder(vec![qv("sid"), qv("x")])
            .positive(vec![pv("x"), pu(crate::ids::UserId(9))], s, args())
            .build(st.schema())
            .unwrap();
        for q in [alone, nested] {
            let refused = |r: Result<Vec<Row>>| matches!(r, Err(BeliefError::NoSuchUser(_)));
            assert!(refused(naive::evaluate(&db, &q)), "{q}");
            assert!(
                matches!(translate(&st, &q), Err(BeliefError::NoSuchUser(_))),
                "{q}"
            );
            let mut rec = Recorder::disabled();
            let opts = EvalOptions::default();
            let evaluated = evaluate(&st, &q, &opts, &mut rec, Answer::Collect);
            assert!(refused(evaluated.map(|(rows, _)| rows)), "{q}");
            assert!(refused(evaluate_unoptimized(&st, &q)), "{q}");
        }
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
        let translated = collected(&st, &q);
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
        assert_eq!(collected(&st, &q), vec![row!["s1"]]);
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
        let translated = collected(&st, &q);
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
        let translated = collected(&st, &q);
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
        let rows = collected(&st, &q);
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
        let rows = collected(&st, &q);
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
        let rows = collected(&st, &q);
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
                collected(&st, q),
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
