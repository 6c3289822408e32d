//! Fuzzed differential coverage for the magic-sets / SIP rewrite
//! (`beliefdb_storage::opt::magic`): the rewritten program must derive
//! exactly the same answer multiset as the unrewritten Algorithm 1 rule
//! stack for every query — bound, unbound, and partially bound — under
//! the chunked executor in both budget regimes {unlimited, tight} and
//! under the materializing reference executor, and must reject exactly
//! the same invalid queries
//! with the same errors. The rewrite only prunes *irrelevant* derivations;
//! any answer-row difference is a soundness bug.
//!
//! The metrics registry is process-global, so every test here holds
//! `METRICS` while it runs: the deltas of `exec.rows_emitted` are then
//! exact.

use beliefdb::core::bcq::translate::{self, Answer, EvalOptions, TranslatedQuery};
use beliefdb::core::bcq::{Bcq, CmpPred, PathElem, QueryTerm, Subgoal};
use beliefdb::core::{Bdms, RelId, Sign, UserId};
use beliefdb::gen::{generate_logical, DepthDist, GeneratorConfig};
use beliefdb::storage::datalog::{Evaluator, Program};
use beliefdb::storage::opt::magic;
use beliefdb::storage::{metrics, CmpOp, Metric, Recorder, Row};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Mutex;

static METRICS: Mutex<()> = Mutex::new(());

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
fn rewritten_matches_unrewritten_across_executors_and_budgets() {
    let _guard = METRICS.lock().unwrap_or_else(|e| e.into_inner());
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
            let mut rec = Recorder::disabled();
            let on = translate::evaluate(
                bdms.internal(),
                &q,
                &EvalOptions::default(),
                &mut rec,
                Answer::Collect,
            )
            .expect_err("translate rejected but evaluate(magic=on) accepted");
            let off = translate::evaluate(
                bdms.internal(),
                &q,
                &EvalOptions {
                    magic: false,
                    ..EvalOptions::default()
                },
                &mut rec,
                Answer::Collect,
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
    let _guard = METRICS.lock().unwrap_or_else(|e| e.into_inner());
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

    // The three shapes the `opt_magic` bench times.
    for (name, q) in beliefdb_bench::opt_magic_queries(&bdms).unwrap() {
        let on = bdms.query(&q).unwrap();
        bdms.set_magic(false);
        let off = bdms.query(&q).unwrap();
        bdms.set_magic(true);
        assert_eq!(on, off, "magic toggle changed answers on {name}");
    }
}

// ---------------------------------------------------------------------------
// q3: the selective subgoal drives the rewrite
// ---------------------------------------------------------------------------

/// Table 2's q3 — who disagrees with a belief of user 1 at `loc0` — in
/// four shapes: with and without a `Users` atom binding the user, its two
/// subgoals written negative-first (as the paper does) and positive-first.
/// Each comes with the temp relation of its negative subgoal.
fn q3_forms(bdms: &Bdms) -> Vec<(String, Bcq, &'static str)> {
    use beliefdb::core::bcq::dsl::{pu, pv, qany, qc, qv};
    let s = bdms.schema().relation_id("S").unwrap();
    let args = vec![qv("y"), qv("z"), qv("u"), qv("v"), qc("loc0")];
    let mut forms = Vec::new();
    for users in [true, false] {
        for negative_first in [true, false] {
            let mut b = Bcq::builder(vec![qv("x")]);
            if users {
                b = b.user(qv("x"), qany());
            }
            let negative =
                |b: beliefdb::core::bcq::BcqBuilder| b.negative(vec![pv("x")], s, args.clone());
            let positive = |b: beliefdb::core::bcq::BcqBuilder| {
                b.positive(vec![pu(UserId(1))], s, args.clone())
            };
            let (b, negative_temp) = if negative_first {
                (positive(negative(b)), "__bcq_T1")
            } else {
                (negative(positive(b)), "__bcq_T2")
            };
            let name = format!("q3 users={users} negative_first={negative_first}");
            forms.push((name, b.build(bdms.schema()).unwrap(), negative_temp));
        }
    }
    forms
}

/// `exec.rows_emitted`: the rows every rule plan of a query derived.
fn rows_emitted() -> u64 {
    metrics().snapshot().get(Metric::RowsEmitted)
}

/// The plan lines of every rule in a `Bdms::explain_query` text, keyed by
/// the rule's header line (`-- <rule> [tags]`).
fn explained_rules(text: &str) -> Vec<(&str, Vec<&str>)> {
    let mut rules: Vec<(&str, Vec<&str>)> = Vec::new();
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        match line.strip_prefix("-- ") {
            Some(header) => rules.push((header, Vec::new())),
            None => rules.last_mut().expect("plan before its rule").1.push(line),
        }
    }
    rules
}

/// Hash joins (no `[probe …]` note) whose build side — the join's second
/// child — is a scan of `table`, directly or under a selection.
fn hash_builds_of(plan: &[&str], table: &str) -> usize {
    let indent = |l: &str| l.len() - l.trim_start().len();
    let scan = format!("Scan {table} ");
    let mut found = 0;
    for (i, line) in plan.iter().enumerate() {
        let t = line.trim_start();
        if !t.starts_with("Join") || t.contains("[probe") {
            continue;
        }
        let depth = indent(line);
        let children: Vec<usize> = (i + 1..plan.len())
            .take_while(|&j| indent(plan[j]) > depth)
            .filter(|&j| indent(plan[j]) == depth + 2)
            .collect();
        let Some(&right) = children.get(1) else {
            continue;
        };
        let mut access = plan[right].trim_start();
        if access.starts_with("Select") {
            access = plan.get(right + 1).map_or("", |l| l.trim_start());
        }
        if access.starts_with(&scan) {
            found += 1;
        }
    }
    found
}

#[test]
fn q3_selective_subgoal_drives_the_rewrite() {
    let _guard = METRICS.lock().unwrap_or_else(|e| e.into_inner());
    use beliefdb::core::DefaultPolicy;
    use beliefdb::gen::generate_bdms_with_policy;
    use beliefdb::gen::scenarios::table2_config;
    for policy in [DefaultPolicy::Eager, DefaultPolicy::Lazy] {
        let (mut bdms, _) = generate_bdms_with_policy(&table2_config(2_000, 42), policy).unwrap();
        for (name, q, negative_temp) in q3_forms(&bdms) {
            let context = format!("{name} under {policy:?}");
            // Answers: the oracle, and the rule stack without the rewrite.
            // The cold runs count the rows their rule plans derive.
            let naive = bdms.query_naive(&q).unwrap();
            assert!(!naive.is_empty(), "{context}: empty answer");
            let before = rows_emitted();
            let on = bdms.query(&q).unwrap();
            let derived_on = rows_emitted() - before;
            bdms.set_magic(false);
            let before = rows_emitted();
            let off = bdms.query(&q).unwrap();
            let derived_off = rows_emitted() - before;
            bdms.set_magic(true);
            assert_eq!(on, naive, "{context}: magic on disagrees with the oracle");
            assert_eq!(off, naive, "{context}: magic off disagrees with the oracle");
            assert!(
                derived_on * 5 < derived_off,
                "{context}: a cold read derived {derived_on} rows, magic off {derived_off}"
            );

            // Mechanism: the positive subgoal, with its three constants,
            // is visited first, and its keys seed the negative one — with
            // the user too when a `Users` atom binds it.
            let rewritten = magic::rewrite(&bdms.translate(&q).unwrap().program).to_string();
            let adorn = if q.user_atoms.is_empty() {
                "fbfffff"
            } else {
                "bbfffff"
            };
            assert!(
                rewritten.contains(&format!("__magic__{negative_temp}__{adorn}(")),
                "{context}: {negative_temp} not seeded with {adorn}:\n{rewritten}"
            );

            // Every restricted rule probes `V` through its index, and no
            // rule hash-builds `V`.
            let explain = bdms.explain_query(&q).unwrap();
            for (header, plan) in explained_rules(&explain) {
                if header.starts_with(negative_temp) && header.contains("[magic adorn=") {
                    assert!(
                        plan.iter()
                            .any(|l| l.contains("Join on") && l.contains("[probe V__S.by_wid_key]")),
                        "{context}: restricted rule does not probe V__S:\n{header}\n{}",
                        plan.join("\n")
                    );
                }
                assert_eq!(
                    hash_builds_of(&plan, "V__S"),
                    0,
                    "{context}: a hash join builds V__S:\n{header}\n{}",
                    plan.join("\n")
                );
            }
        }
    }
}
