//! Query fuzzing: randomly generated belief conjunctive queries evaluated
//! both through the Algorithm 1 translation (relational) and the naive
//! Def. 14 evaluator (logical closure). Any disagreement is a bug in the
//! translation, the executor, or the closure — historically the richest
//! source of subtle defects in this kind of system.
//!
//! The translation resolves belief paths through the world directory, so
//! a translated program — magic-rewritten or not, under either policy —
//! reads no stored table but `R*`, `V` and `U`.

mod common;

use beliefdb::core::bcq::{Bcq, PathElem, QueryTerm, Subgoal};
use beliefdb::core::{bcq::naive, Bdms, DefaultPolicy, Sign};
use beliefdb::gen::{generate_logical, DepthDist, GeneratorConfig};
use beliefdb::storage::datalog::PlanCache;
use beliefdb::storage::opt::magic;
use beliefdb::storage::Value;
use common::bcq::{arb_query, ARITY, USERS};
use proptest::prelude::*;

fn workload() -> Bdms {
    workload_under(DefaultPolicy::default())
}

fn workload_under(policy: DefaultPolicy) -> Bdms {
    let cfg = GeneratorConfig::new(USERS as usize, 100)
        .with_depth(DepthDist::new(&[0.25, 0.45, 0.3]))
        .with_key_space(6)
        .with_negative_rate(0.3)
        .with_seed(99);
    let (db, _) = generate_logical(&cfg).unwrap();
    let mut bdms = Bdms::with_policy(db.schema().clone(), policy).unwrap();
    for u in db.users() {
        bdms.add_user(db.user_name(u).unwrap()).unwrap();
    }
    for stmt in db.statements() {
        bdms.insert_statement(&stmt).unwrap();
    }
    bdms
}

/// The stored tables a program reads that are neither an `R*`, a `V` nor
/// `U`.
fn world_tables_read(bdms: &Bdms, q: &Bcq, magic_on: bool) -> Vec<String> {
    let mut program = bdms.translate(q).unwrap().program;
    if magic_on {
        program = magic::rewrite(&program);
    }
    PlanCache::read_versions(bdms.storage(), &program)
        .into_iter()
        .map(|(name, _)| name)
        .filter(|name| !(name.ends_with("__star") || name.starts_with("V__") || name == "U"))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    #[test]
    fn translated_equals_naive_on_random_queries(q in arb_query()) {
        // Only evaluate queries that pass the Def. 13 safety check; the
        // generators above produce plenty of safe ones.
        for policy in [DefaultPolicy::Eager, DefaultPolicy::Lazy] {
            let bdms = workload_under(policy);
            prop_assume!(q.validate(bdms.schema()).is_ok());
            for magic_on in [false, true] {
                let read = world_tables_read(&bdms, &q, magic_on);
                prop_assert!(read.is_empty(), "{:?} magic {}: {} reads {:?}", policy, magic_on, q, read);
            }
            let translated = bdms.query(&q).unwrap();
            let logical = bdms.to_belief_database().unwrap();
            let mut reference = naive::evaluate(&logical, &q).unwrap();
            reference.sort();
            prop_assert_eq!(translated, reference, "{:?}: divergence on query {}", policy, q);
        }
    }

    #[test]
    fn unsafe_queries_rejected_by_both(q in arb_query()) {
        let bdms = workload();
        prop_assume!(q.validate(bdms.schema()).is_err());
        let logical = bdms.to_belief_database().unwrap();
        prop_assert!(bdms.query(&q).is_err());
        prop_assert!(naive::evaluate(&logical, &q).is_err());
    }
}

/// Pinned adversarial queries distilled from the fuzz space: shapes that
/// stress specific translation branches.
#[test]
fn pinned_adversarial_queries() {
    let bdms = workload();
    let logical = bdms.to_belief_database().unwrap();
    let s = beliefdb::core::RelId(0);
    let v = |n: &str| QueryTerm::var(n);
    let c = |x: &str| QueryTerm::val(x);

    let cases: Vec<Bcq> = vec![
        // Same variable as path AND argument (uid-style self-join).
        Bcq {
            head: vec![v("x")],
            subgoals: vec![Subgoal {
                path: vec![PathElem::var("x")],
                sign: Sign::Pos,
                rel: s,
                args: vec![
                    v("a"),
                    v("x"),
                    QueryTerm::Any,
                    QueryTerm::Any,
                    QueryTerm::Any,
                ],
            }],
            predicates: vec![],
            user_atoms: vec![],
        },
        // Repeated variable inside one subgoal's arguments.
        Bcq {
            head: vec![v("a")],
            subgoals: vec![Subgoal {
                path: vec![],
                sign: Sign::Pos,
                rel: s,
                args: vec![
                    v("a"),
                    QueryTerm::Any,
                    v("a"),
                    QueryTerm::Any,
                    QueryTerm::Any,
                ],
            }],
            predicates: vec![],
            user_atoms: vec![],
        },
        // Two negative subgoals with interlocking path variables (the
        // "circular binding" case: each negative's args are bound by the
        // other's path).
        Bcq {
            head: vec![v("x"), v("y")],
            subgoals: vec![
                Subgoal {
                    path: vec![PathElem::var("x")],
                    sign: Sign::Neg,
                    rel: s,
                    args: vec![c("s0"), v("y"), c("species0"), c("6-14-08"), c("loc0")],
                },
                Subgoal {
                    path: vec![PathElem::var("y")],
                    sign: Sign::Neg,
                    rel: s,
                    args: vec![c("s1"), v("x"), c("species1"), c("6-14-08"), c("loc1")],
                },
            ],
            predicates: vec![],
            user_atoms: vec![],
        },
        // Constant-only negative subgoal alongside a positive anchor.
        Bcq {
            head: vec![v("x")],
            subgoals: vec![
                Subgoal {
                    path: vec![PathElem::var("x")],
                    sign: Sign::Pos,
                    rel: s,
                    args: vec![
                        v("a"),
                        QueryTerm::Any,
                        QueryTerm::Any,
                        QueryTerm::Any,
                        QueryTerm::Any,
                    ],
                },
                Subgoal {
                    path: vec![PathElem::var("x")],
                    sign: Sign::Neg,
                    rel: s,
                    args: vec![v("a"), c("u1"), c("species2"), c("6-14-08"), c("loc2")],
                },
            ],
            predicates: vec![],
            user_atoms: vec![],
        },
    ];

    for (i, q) in cases.iter().enumerate() {
        // All of these must validate against a 5-column schema...
        if let Err(e) = q.validate(bdms.schema()) {
            // ... except the interlocking-negatives case, which IS safe
            // (path occurrences are positive); any error here is a bug.
            panic!("case {i} failed validation: {e}");
        }
        let translated = bdms.query(q).unwrap();
        let mut reference = naive::evaluate(&logical, q).unwrap();
        reference.sort();
        assert_eq!(translated, reference, "case {i} diverged: {q}");
    }

    // A query whose head is a constant row only (boolean-style query).
    let boolean = Bcq {
        head: vec![QueryTerm::Const(Value::Int(1))],
        subgoals: vec![Subgoal {
            path: vec![],
            sign: Sign::Pos,
            rel: s,
            args: vec![QueryTerm::Any; ARITY],
        }],
        predicates: vec![],
        user_atoms: vec![],
    };
    let translated = bdms.query(&boolean).unwrap();
    let reference = naive::evaluate(&logical, &boolean).unwrap();
    assert_eq!(translated, reference);
}
