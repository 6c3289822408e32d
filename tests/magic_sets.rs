//! Fuzzed differential coverage for the magic-sets / SIP rewrite
//! (`beliefdb_storage::opt::magic`): the rewritten program must derive
//! exactly the same answer multiset as the unrewritten Algorithm 1 rule
//! stack for every query — bound, unbound, and partially bound — under
//! the chunked executor in both budget regimes {unlimited, tight} and
//! under the materializing reference executor, and must reject exactly
//! the same invalid queries
//! with the same errors. The rewrite only prunes *irrelevant* derivations;
//! any answer-row difference is a soundness bug.

use beliefdb::core::bcq::translate::{self, EvalOptions, TranslatedQuery};
use beliefdb::core::bcq::{Bcq, CmpPred, PathElem, QueryTerm, Subgoal};
use beliefdb::core::{Bdms, RelId, Sign, UserId};
use beliefdb::gen::{generate_logical, DepthDist, GeneratorConfig};
use beliefdb::storage::datalog::{Atom, BodyLit, Evaluator, Program, Rule, Term};
use beliefdb::storage::opt::magic;
use beliefdb::storage::{CmpOp, Row};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const USERS: u32 = 3;
const ARITY: usize = 5;
const VARS: [&str; 5] = ["x", "y", "a", "b", "c"];

/// The executors every program runs under: the chunked executor in
/// memory and under a tight budget (which forces every materialization
/// point through the spill path), and the materializing reference.
#[derive(Clone, Copy, Debug)]
enum Voice {
    Chunked(Option<usize>),
    Materialized,
}

const VOICES: [Voice; 3] = [
    Voice::Chunked(None),
    Voice::Chunked(Some(4096)),
    Voice::Materialized,
];

fn workload() -> Bdms {
    let cfg = GeneratorConfig::new(USERS as usize, 120)
        .with_depth(DepthDist::new(&[0.25, 0.45, 0.3]))
        .with_key_space(6)
        .with_negative_rate(0.3)
        .with_seed(0xA71C);
    let (db, _) = generate_logical(&cfg).unwrap();
    Bdms::from_belief_database(&db).unwrap()
}

/// How strongly the generated query's arguments are pinned to constants.
#[derive(Clone, Copy, PartialEq)]
enum Boundness {
    /// Key argument and every path element concrete — the demand-driven
    /// sweet spot.
    Bound,
    /// Variables and wildcards only — the rewrite must be a no-op in
    /// effect (and the off-path byte-identical in plan).
    Unbound,
    /// A mix: some subgoals pinned, some free, shared variables carrying
    /// bindings sideways.
    Partial,
}

fn gen_path(rng: &mut StdRng, bound: Boundness) -> Vec<PathElem> {
    let len = rng.gen_range(0..3usize);
    (0..len)
        .map(|_| {
            let concrete = match bound {
                Boundness::Bound => true,
                Boundness::Unbound => false,
                Boundness::Partial => rng.gen_bool(0.5),
            };
            if concrete {
                PathElem::User(UserId(rng.gen_range(1..USERS + 1)))
            } else {
                PathElem::var(VARS[rng.gen_range(0..2)])
            }
        })
        .collect()
}

fn gen_const(rng: &mut StdRng) -> QueryTerm {
    if rng.gen_bool(0.5) {
        QueryTerm::val(format!("s{}", rng.gen_range(0..6u8)))
    } else {
        QueryTerm::val(format!("species{}", rng.gen_range(0..4u8)))
    }
}

fn gen_args(rng: &mut StdRng, sign: Sign, bound: Boundness) -> Vec<QueryTerm> {
    (0..ARITY)
        .map(|pos| {
            let pin = match bound {
                // Pin the key column (and sometimes more) to constants.
                Boundness::Bound => pos == 0 || rng.gen_bool(0.3),
                Boundness::Unbound => false,
                Boundness::Partial => rng.gen_bool(0.25),
            };
            if pin {
                gen_const(rng)
            } else if sign == Sign::Pos && rng.gen_bool(0.25) {
                QueryTerm::Any
            } else {
                QueryTerm::var(VARS[rng.gen_range(0..VARS.len())])
            }
        })
        .collect()
}

fn gen_query(rng: &mut StdRng, bound: Boundness) -> Bcq {
    let n = rng.gen_range(1..4usize);
    let subgoals = (0..n)
        .map(|_| {
            let sign = if rng.gen_bool(0.3) {
                Sign::Neg
            } else {
                Sign::Pos
            };
            Subgoal {
                path: gen_path(rng, bound),
                sign,
                rel: RelId(0),
                args: gen_args(rng, sign, bound),
            }
        })
        .collect();
    let predicates = if rng.gen_bool(0.3) {
        vec![CmpPred {
            left: QueryTerm::var(VARS[rng.gen_range(0..VARS.len())]),
            op: CmpOp::Ne,
            right: QueryTerm::var(VARS[rng.gen_range(0..VARS.len())]),
        }]
    } else {
        Vec::new()
    };
    let head = (0..rng.gen_range(0..3usize))
        .map(|_| QueryTerm::var(VARS[rng.gen_range(0..VARS.len())]))
        .collect();
    Bcq {
        head,
        subgoals,
        predicates,
        user_atoms: Vec::new(),
    }
}

/// Evaluate a program at the storage layer and collect the answer
/// relation as a sorted multiset.
fn run_program(bdms: &Bdms, program: &Program, answer: &str, voice: Voice) -> Vec<Row> {
    let ev = Evaluator::new(bdms.internal().database());
    let mut ev = match voice {
        Voice::Chunked(budget) => ev.with_memory_budget(budget),
        Voice::Materialized => ev.use_materializing_executor(),
    };
    ev.run(program).unwrap();
    let mut rows: Vec<Row> = ev.relation(answer).map(|r| r.to_vec()).unwrap_or_default();
    rows.sort();
    rows
}

// ---------------------------------------------------------------------------
// The main fuzz: rewritten vs unrewritten × executors × budgets
// ---------------------------------------------------------------------------

#[test]
fn rewritten_matches_unrewritten_across_layouts_and_budgets() {
    // Arm the verifier: every rewritten program passes the magic-guard
    // check and every compiled plan is invariant-checked per pass.
    beliefdb::storage::sema::set_verify(true);
    let bdms = workload();
    let mut rng = StdRng::seed_from_u64(0x5117_BCDE);
    let mut valid = 0usize;
    let mut rewritten_differs = 0usize;
    for case in 0..240 {
        let bound = match case % 3 {
            0 => Boundness::Bound,
            1 => Boundness::Unbound,
            _ => Boundness::Partial,
        };
        let q = gen_query(&mut rng, bound);
        let Ok(TranslatedQuery { program, answer }) = translate::translate(bdms.internal(), &q)
        else {
            // Invalid queries must fail identically with the rewrite on
            // and off: validation runs before the rewrite ever sees the
            // program.
            let on = translate::evaluate(bdms.internal(), &q, &EvalOptions::default())
                .expect_err("translate rejected but evaluate(magic=on) accepted");
            let off = translate::evaluate(
                bdms.internal(),
                &q,
                &EvalOptions {
                    magic: false,
                    ..EvalOptions::default()
                },
            )
            .expect_err("translate rejected but evaluate(magic=off) accepted");
            assert_eq!(
                on.to_string(),
                off.to_string(),
                "case {case}: errors diverged"
            );
            continue;
        };
        valid += 1;
        let magicked = magic::rewrite(&program);
        if magicked.to_string() != program.to_string() {
            rewritten_differs += 1;
        }
        // Idempotence: rewriting an already-rewritten program is a no-op.
        assert_eq!(
            magic::rewrite(&magicked).to_string(),
            magicked.to_string(),
            "case {case}: rewrite not idempotent on {q}"
        );
        let reference = run_program(&bdms, &program, &answer, Voice::Chunked(None));
        for voice in VOICES {
            let plain = run_program(&bdms, &program, &answer, voice);
            assert_eq!(
                reference, plain,
                "case {case}: unrewritten diverged at {voice:?} on {q}"
            );
            let demand = run_program(&bdms, &magicked, &answer, voice);
            assert_eq!(
                reference, demand,
                "case {case}: magic rewrite changed the answer at {voice:?} on {q}"
            );
        }
    }
    assert!(valid > 80, "only {valid} valid cases — generator too weak");
    assert!(
        rewritten_differs > 20,
        "only {rewritten_differs} cases actually rewritten — fuzz not \
         exercising the magic pass"
    );
}

// ---------------------------------------------------------------------------
// Surface parity: the Bdms toggle takes the same two paths
// ---------------------------------------------------------------------------

#[test]
fn bdms_toggle_agrees_on_fuzzed_queries() {
    let mut bdms = workload();
    let mut rng = StdRng::seed_from_u64(0xB0B5);
    let mut checked = 0usize;
    for case in 0..120 {
        let bound = match case % 3 {
            0 => Boundness::Bound,
            1 => Boundness::Unbound,
            _ => Boundness::Partial,
        };
        let q = gen_query(&mut rng, bound);
        if q.validate(bdms.schema()).is_err() {
            continue;
        }
        checked += 1;
        bdms.set_magic(true);
        let on = bdms.query(&q).unwrap();
        let mut on_streamed = Vec::new();
        bdms.query_streaming(&q, |row| on_streamed.push(row))
            .unwrap();
        on_streamed.sort();
        bdms.set_magic(false);
        let off = bdms.query(&q).unwrap();
        assert_eq!(on, off, "case {case}: magic toggle changed answers on {q}");
        assert_eq!(
            on, on_streamed,
            "case {case}: streaming path diverged with magic on for {q}"
        );
        bdms.set_magic(true);
    }
    assert!(checked > 20, "only {checked} valid cases");
}

// ---------------------------------------------------------------------------
// Recursion: semi-naive fixpoint × executors, rewritten and not
// ---------------------------------------------------------------------------

#[test]
fn recursive_reachability_matches_under_rewrite_and_layouts() {
    // Transitive closure over the belief graph's E edges, demanded from
    // the root world only. The rewrite turns the full closure into a
    // forward frontier seeded at world 0; both must agree on the
    // demanded slice.
    let bdms = workload();
    let pos = |rel: &str, terms: Vec<Term>| BodyLit::Pos(Atom::new(rel, terms));
    let program = Program {
        rules: vec![
            // reach(x, y) :- E(x, u, y).
            Rule {
                head: Atom::new("reach", vec![Term::var("x"), Term::var("y")]),
                body: vec![pos(
                    "E",
                    vec![Term::var("x"), Term::var("u"), Term::var("y")],
                )],
            },
            // reach(x, y) :- reach(x, z), E(z, u, y).
            Rule {
                head: Atom::new("reach", vec![Term::var("x"), Term::var("y")]),
                body: vec![
                    pos("reach", vec![Term::var("x"), Term::var("z")]),
                    pos("E", vec![Term::var("z"), Term::var("u"), Term::var("y")]),
                ],
            },
            // ans(y) :- reach(0, y).
            Rule {
                head: Atom::new("ans", vec![Term::var("y")]),
                body: vec![pos("reach", vec![Term::val(0i64), Term::var("y")])],
            },
        ],
    };
    let magicked = magic::rewrite(&program);
    assert_ne!(
        magicked.to_string(),
        program.to_string(),
        "bound recursive closure should be rewritten"
    );
    let reference = run_program(&bdms, &program, "ans", Voice::Chunked(None));
    assert!(!reference.is_empty(), "workload has no reachable worlds");
    for voice in VOICES {
        assert_eq!(
            reference,
            run_program(&bdms, &program, "ans", voice),
            "plain recursion diverged at {voice:?}"
        );
        assert_eq!(
            reference,
            run_program(&bdms, &magicked, "ans", voice),
            "rewritten recursion diverged at {voice:?}"
        );
    }
}
