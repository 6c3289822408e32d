//! Differential suite for the query optimizer: optimized and unoptimized
//! execution must return identical row multisets.
//!
//! Three layers:
//!
//! 1. **fuzzed relational plans** — arity-correct random plans (joins,
//!    anti-joins, unions, selections, projections, distinct, literal
//!    relations) over a mixed-size database, `execute` of the
//!    plan vs `execute` of its `optimize`d form;
//! 2. **fuzzed belief conjunctive queries** — random BCQs over a
//!    generated annotation workload, `Bdms::query` (optimizer on) vs
//!    `Bdms::query_unoptimized`;
//! 3. **EXPLAIN determinism** — the rendered plan tree is stable across
//!    runs.

mod common;

use beliefdb::core::bcq::translate::NO_VALUATION;
use beliefdb::core::bcq::{Bcq, CmpPred, PathElem, QueryTerm, Subgoal};
use beliefdb::core::{Bdms, RelId, Sign, UserId};
use beliefdb::gen::{generate_logical, DepthDist, GeneratorConfig};
use beliefdb::storage::{
    execute, execute_materialized, optimize, row, CmpOp, Executor, Expr, Plan,
};
use common::{gen_plan, plan_db, sorted};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

// ---------------------------------------------------------------------------
// Layer 1: fuzzed relational plans (generator shared via tests/common)
// ---------------------------------------------------------------------------

#[test]
fn fuzzed_plans_agree_with_and_without_optimizer() {
    // Arm the plan verifier: every rewrite pass of every fuzzed case is
    // invariant-checked (a violation fails the optimized run loudly).
    beliefdb::storage::sema::set_verify(true);
    let db = plan_db();
    let mut rng = StdRng::seed_from_u64(0xBE11EF);
    let mut nontrivial = 0usize;
    for case in 0..300 {
        let (plan, _) = gen_plan(&mut rng, 3);
        let base = execute(&db, &plan).expect("unoptimized execution failed");
        let optimized = optimize(&db, plan.clone())
            .and_then(|p| execute(&db, &p))
            .expect("optimized execution failed");
        if !base.is_empty() {
            nontrivial += 1;
        }
        assert_eq!(
            sorted(base),
            sorted(optimized),
            "case {case}: optimizer changed the result multiset of {plan:?}"
        );
    }
    assert!(
        nontrivial > 40,
        "only {nontrivial} non-empty cases — generator too weak"
    );
}

/// A predicate that is not boolean-shaped — a bare column or literal, or
/// one under a NOT / AND / OR anywhere, comparison operands included — is
/// refused when the plan opens, with the same error, by both executors and
/// by the optimizer: no rewrite can move it somewhere it would fail on a
/// row. The last case once passed `execute` (no row reached the conjunct)
/// while the optimizer pushed it onto `E` and the optimized plan failed.
#[test]
fn non_boolean_predicates_are_refused_at_open_everywhere() {
    let db = plan_db();
    let not_w1_is_true = Expr::cmp(
        CmpOp::Eq,
        Expr::Not(Box::new(Expr::Col(2))),
        Expr::lit(true),
    );
    let cases = [
        Plan::Values {
            arity: 1,
            rows: vec![row![true], row![7]],
        }
        .select(Expr::Col(0)),
        Plan::scan("Users").join_where(Plan::scan("E"), vec![(0, 1)], Expr::Col(2)),
        Plan::scan("Users")
            .join(Plan::scan("E"), vec![(0, 1)])
            .select(Expr::and(vec![
                Expr::col_eq_lit(1, "Nobody"),
                not_w1_is_true,
            ])),
    ];
    for plan in &cases {
        let want = plan.arity(&db).expect_err("refused by Plan::arity");
        assert!(
            want.to_string().contains("where a boolean is needed"),
            "{want}"
        );
        assert_eq!(execute(&db, plan).unwrap_err(), want, "{plan:?}");
        assert_eq!(execute_materialized(&db, plan).unwrap_err(), want);
        assert_eq!(
            Executor::new(&db).open_chunks(plan).err(),
            Some(want.clone())
        );
        assert_eq!(optimize(&db, plan.clone()).unwrap_err(), want);
    }
}

/// The provably-empty fold (`sema::expr_contradictory`): a selection
/// whose predicate is statically unsatisfiable collapses to an empty
/// `Values`, and the collapsed plan agrees with brute-force execution —
/// including when the contradictory selection sits under joins and
/// projections, where the fold can erase whole subtrees.
#[test]
fn contradictory_conjunctions_fold_to_empty_and_agree() {
    let db = plan_db();
    let contradiction = Expr::and(vec![Expr::col_eq_lit(0, 1i64), Expr::col_eq_lit(0, 2i64)]);
    let cases = vec![
        Plan::scan("V").select(contradiction.clone()),
        // Under a join: one empty side empties the join.
        Plan::scan("V")
            .select(contradiction.clone())
            .join(Plan::scan("Users"), vec![(1, 0)])
            .project_cols(&[0, 3]),
        // Inside a union: the other branch must survive untouched.
        Plan::Union {
            inputs: vec![
                Plan::scan("Users").select(contradiction.clone()),
                Plan::scan("Users"),
            ],
        },
    ];
    for plan in cases {
        let base = execute(&db, &plan).expect("unoptimized execution failed");
        let optimized = optimize(&db, plan.clone())
            .and_then(|p| execute(&db, &p))
            .expect("optimized execution failed");
        assert_eq!(
            sorted(base),
            sorted(optimized),
            "fold changed the result multiset of {plan:?}"
        );
    }
    // The single-selection case really does collapse to a literal empty
    // relation (not merely an equivalent plan).
    let folded = beliefdb::storage::optimize(&db, Plan::scan("V").select(contradiction)).unwrap();
    assert!(
        matches!(&folded, Plan::Values { rows, .. } if rows.is_empty()),
        "expected empty Values, got {folded:?}"
    );
}

// ---------------------------------------------------------------------------
// Layer 2: fuzzed belief conjunctive queries
// ---------------------------------------------------------------------------

const USERS: u32 = 3;
const ARITY: usize = 5;

fn workload() -> Bdms {
    let cfg = GeneratorConfig::new(USERS as usize, 120)
        .with_depth(DepthDist::new(&[0.25, 0.45, 0.3]))
        .with_key_space(6)
        .with_negative_rate(0.3)
        .with_seed(1234);
    let (db, _) = generate_logical(&cfg).unwrap();
    Bdms::from_belief_database(&db).unwrap()
}

fn gen_term(rng: &mut StdRng, vars: &[&str], allow_any: bool) -> QueryTerm {
    match rng.gen_range(0..if allow_any { 4u32 } else { 3u32 }) {
        0 => QueryTerm::val(format!("s{}", rng.gen_range(0..6u32))),
        1 | 2 => QueryTerm::var(vars[rng.gen_range(0..vars.len())]),
        _ => QueryTerm::Any,
    }
}

fn gen_bcq(rng: &mut StdRng) -> Bcq {
    let vars = ["x", "y", "a", "b", "c"];
    let n_sub = rng.gen_range(1..4usize);
    let subgoals: Vec<Subgoal> = (0..n_sub)
        .map(|_| {
            let sign = if rng.gen_bool(0.3) {
                Sign::Neg
            } else {
                Sign::Pos
            };
            let path: Vec<PathElem> = (0..rng.gen_range(0..3usize))
                .map(|_| {
                    if rng.gen_bool(0.5) {
                        PathElem::User(UserId(rng.gen_range(0..USERS) + 1))
                    } else {
                        PathElem::var(vars[rng.gen_range(0..2usize)])
                    }
                })
                .collect();
            let args: Vec<QueryTerm> = (0..ARITY)
                .map(|_| gen_term(rng, &vars, sign == Sign::Pos))
                .collect();
            Subgoal {
                path,
                sign,
                rel: RelId(0),
                args,
            }
        })
        .collect();
    let predicates = if rng.gen_bool(0.3) {
        vec![CmpPred {
            left: QueryTerm::var(vars[rng.gen_range(0..vars.len())]),
            op: CmpOp::Ne,
            right: QueryTerm::var(vars[rng.gen_range(0..vars.len())]),
        }]
    } else {
        Vec::new()
    };
    let head: Vec<QueryTerm> = (0..rng.gen_range(0..3usize))
        .map(|_| QueryTerm::var(vars[rng.gen_range(0..vars.len())]))
        .collect();
    Bcq {
        head,
        subgoals,
        predicates,
        user_atoms: Vec::new(),
    }
}

#[test]
fn fuzzed_bcqs_agree_with_and_without_optimizer() {
    beliefdb::storage::sema::set_verify(true);
    let bdms = workload();
    let mut rng = StdRng::seed_from_u64(0xBC0);
    let mut evaluated = 0usize;
    let mut attempts = 0usize;
    while evaluated < 120 && attempts < 3000 {
        attempts += 1;
        let q = gen_bcq(&mut rng);
        if q.validate(bdms.schema()).is_err() {
            continue;
        }
        evaluated += 1;
        let optimized = bdms.query(&q).expect("optimized BCQ evaluation failed");
        let plain = bdms
            .query_unoptimized(&q)
            .expect("unoptimized BCQ evaluation failed");
        assert_eq!(optimized, plain, "optimizer changed the answer of {q}");
    }
    assert!(evaluated >= 100, "only {evaluated} safe queries generated");
}

// ---------------------------------------------------------------------------
// Layer 3: EXPLAIN determinism
// ---------------------------------------------------------------------------

#[test]
fn explain_output_is_deterministic_across_runs() {
    let bdms = workload();
    let mut rng = StdRng::seed_from_u64(0xE4);
    let mut checked = 0usize;
    let mut attempts = 0usize;
    while checked < 20 && attempts < 500 {
        attempts += 1;
        let q = gen_bcq(&mut rng);
        if q.validate(bdms.schema()).is_err() {
            continue;
        }
        checked += 1;
        let a = bdms.explain_query(&q).expect("explain failed");
        let b = bdms.explain_query(&q).expect("explain failed");
        assert_eq!(a, b, "EXPLAIN unstable for {q}");
        // A path with no valuation inside Û* (such as `x·x`) translates
        // to the empty program, whose answer is empty.
        if bdms.translate(&q).unwrap().program.rules.is_empty() {
            assert_eq!(a, NO_VALUATION, "{q}");
            assert!(bdms.query_naive(&q).unwrap().is_empty(), "{q}");
            continue;
        }
        assert!(
            a.contains("Scan") || a.contains("Values"),
            "implausible plan: {a}"
        );
    }
    assert!(checked >= 10, "only {checked} queries explained");
}
