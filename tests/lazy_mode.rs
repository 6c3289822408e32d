//! Policy equivalence (paper Sect. 6.3): a store under
//! `DefaultPolicy::Lazy` — `V` keeps the explicit statements and the
//! default rule is applied on read — must behave exactly like one under
//! `DefaultPolicy::Eager`, which materializes every entailed tuple: the
//! same outcome for every insert, delete and update, the same entailed
//! worlds, the same query answers on every execution path, and the same
//! internal tables apart from `V`.

mod common;

use beliefdb::core::bcq::dsl::*;
use beliefdb::core::bcq::Bcq;
use beliefdb::core::internal::InsertOutcome;
use beliefdb::core::{Bdms, BeliefPath, BeliefStatement, DefaultPolicy, GroundTuple, Sign, UserId};
use beliefdb::gen::scenarios::table2_config;
use beliefdb::gen::{
    experiment_schema, CandidateStream, DepthDist, GeneratorConfig, Participation,
};
use beliefdb::storage::{row, Row, Value};
use proptest::prelude::*;

/// Three generator shapes (flat, deep with many negatives, Zipf) and the
/// Table 2 mix (depths 0–4 over 10 users) at small `n`.
fn configs() -> Vec<GeneratorConfig> {
    vec![
        GeneratorConfig::new(3, 120).with_seed(21),
        GeneratorConfig::new(5, 200)
            .with_depth(DepthDist::new(&[0.1, 0.5, 0.3, 0.1]))
            .with_negative_rate(0.35)
            .with_seed(22),
        GeneratorConfig::new(8, 150)
            .with_participation(Participation::paper_zipf())
            .with_seed(23),
        table2_config(300, 24),
    ]
}

/// The same store built under each policy.
struct Pair {
    eager: Bdms,
    lazy: Bdms,
}

/// Feed both stores the identical raw candidate stream of `cfg`,
/// inconsistent and duplicate candidates included, until `cfg.annotations`
/// were accepted, asserting every outcome matches; returns the outcome
/// counts with the stores.
fn build(cfg: &GeneratorConfig) -> (Pair, [usize; 4]) {
    let mut eager = Bdms::with_policy(experiment_schema(), DefaultPolicy::Eager).unwrap();
    let mut lazy = Bdms::new(experiment_schema()).unwrap();
    assert_eq!(lazy.policy(), DefaultPolicy::Lazy);
    for i in 1..=cfg.users {
        eager.add_user(format!("u{i}")).unwrap();
        lazy.add_user(format!("u{i}")).unwrap();
    }
    let mut stream = CandidateStream::new(cfg);
    let mut counts = [0; 4];
    while counts[0] + counts[1] < cfg.annotations {
        let stmt = stream.next_candidate();
        let outcome = eager.insert_statement(&stmt).unwrap();
        assert_eq!(
            lazy.insert_statement(&stmt).unwrap(),
            outcome,
            "insert outcome on {stmt}"
        );
        counts[match outcome {
            InsertOutcome::Inserted => 0,
            InsertOutcome::MadeExplicit => 1,
            InsertOutcome::AlreadyExplicit => 2,
            InsertOutcome::Rejected => 3,
        }] += 1;
    }
    (Pair { eager, lazy }, counts)
}

/// Both stores have the same worlds, each with the same entailed content.
fn assert_same_worlds(pair: &Pair) {
    let paths = |b: &Bdms| -> Vec<BeliefPath> {
        let dir = b.internal().directory();
        dir.iter().map(|(_, p)| p.clone()).collect()
    };
    let worlds = paths(&pair.eager);
    assert_eq!(paths(&pair.lazy), worlds);
    for p in &worlds {
        assert_eq!(
            pair.lazy.world(p).unwrap(),
            pair.eager.world(p).unwrap(),
            "world {p}"
        );
    }
}

/// Entailment of every sign of every `step`-th mentioned tuple at the root,
/// at every user and at every two-user path, on both stores.
fn assert_same_entailments(pair: &Pair, step: usize) {
    let db = pair.eager.to_belief_database().unwrap();
    let users: Vec<UserId> = db.users().collect();
    let mut paths = vec![BeliefPath::root()];
    for &u in &users {
        paths.push(BeliefPath::user(u));
        for &v in &users {
            if u != v {
                paths.push(BeliefPath::new(vec![u, v]).unwrap());
            }
        }
    }
    for t in db.mentioned_tuples().iter().step_by(step) {
        for p in &paths {
            for sign in [Sign::Pos, Sign::Neg] {
                let stmt = BeliefStatement::new(p.clone(), t.clone(), sign);
                assert_eq!(
                    pair.lazy.entails(&stmt).unwrap(),
                    pair.eager.entails(&stmt).unwrap(),
                    "entailment of {stmt}"
                );
            }
        }
    }
}

/// One query on every path of both stores — the optimized executor with
/// the magic rewrite on and off, the materializing reference — and on the
/// naive Def. 14 evaluator: all answers identical.
fn assert_same_answers(pair: &mut Pair, q: &Bcq) {
    let want = pair.lazy.query_naive(q).unwrap();
    for bdms in [&mut pair.eager, &mut pair.lazy] {
        let policy = bdms.policy();
        assert_eq!(bdms.query(q).unwrap(), want, "{policy:?}, magic on: {q}");
        assert_eq!(
            bdms.query_materialized(q).unwrap(),
            want,
            "{policy:?}, materialized: {q}"
        );
        bdms.set_magic(false);
        assert_eq!(bdms.query(q).unwrap(), want, "{policy:?}, magic off: {q}");
        bdms.set_magic(true);
    }
}

#[test]
fn lazy_and_eager_accept_the_same_statements() {
    let mut seen = [0; 4];
    for cfg in configs() {
        let (mut pair, counts) = build(&cfg);
        for (total, n) in seen.iter_mut().zip(counts) {
            *total += n;
        }
        // Updates: explicit positives to a new species (an update in
        // place), and entailed but unstated positives (the new tuple
        // overrides them), both with the same outcome on both stores.
        let s = pair.eager.schema().relation_id("S").unwrap();
        let stated = pair.eager.to_belief_database().unwrap().statements();
        let mut targets: Vec<(BeliefPath, Row)> = stated
            .iter()
            .filter(|st| st.sign == Sign::Pos)
            .step_by(7)
            .map(|st| (st.path.clone(), st.tuple.row.clone()))
            .collect();
        for u in pair.eager.users().into_iter().take(3) {
            let p = BeliefPath::user(u);
            let world = pair.eager.world(&p).unwrap();
            targets.extend(world.pos_tuples().step_by(9).map(|t| (p.clone(), t.row)));
        }
        for (n, (path, old)) in targets.into_iter().enumerate() {
            let mut values = old.values().to_vec();
            values[2] = Value::str(format!("species{}", n % 7));
            let new = Row::new(values);
            let outcome = pair
                .eager
                .update(path.clone(), s, old.clone(), new.clone())
                .unwrap();
            assert_eq!(
                pair.lazy.update(path.clone(), s, old, new).unwrap(),
                outcome,
                "update at {path}"
            );
        }
        assert_eq!(
            pair.lazy.to_belief_database().unwrap().statements(),
            pair.eager.to_belief_database().unwrap().statements()
        );
        assert_same_worlds(&pair);
    }
    // The stream exercised every outcome, the implicit promotion that a
    // store without an implicit layer could mistake for a plain insert
    // included.
    assert!(seen.iter().all(|&n| n > 0), "outcome counts {seen:?}");
}

#[test]
fn lazy_and_eager_agree_on_entailments() {
    for cfg in configs() {
        let (pair, _) = build(&cfg);
        assert_same_worlds(&pair);
        assert_same_entailments(&pair, 3);
    }
}

#[test]
fn lazy_deletes_match_eager_deletes() {
    for cfg in configs() {
        let (mut pair, _) = build(&cfg);
        let stated = pair.eager.to_belief_database().unwrap().statements();
        // Every third explicit statement, then the same ones again (no
        // longer present), then each with the opposite sign.
        let victims: Vec<&BeliefStatement> = stated.iter().step_by(3).collect();
        for round in 0..3 {
            for stmt in &victims {
                let stmt = match round {
                    2 => BeliefStatement::new(
                        stmt.path.clone(),
                        stmt.tuple.clone(),
                        stmt.sign.flip(),
                    ),
                    _ => (*stmt).clone(),
                };
                let present = pair.eager.delete_statement(&stmt).unwrap();
                assert_eq!(round == 0, present, "eager delete of {stmt}");
                assert_eq!(
                    pair.lazy.delete_statement(&stmt).unwrap(),
                    present,
                    "delete of {stmt}"
                );
            }
        }
        assert_same_worlds(&pair);
        assert_same_entailments(&pair, 5);
    }
}

#[test]
fn lazy_and_eager_agree_on_queries() {
    for cfg in configs() {
        let (mut pair, _) = build(&cfg);
        let schema = pair.eager.schema().clone();
        let s = schema.relation_id("S").unwrap();
        let all = vec![qv("a"), qv("b"), qv("c"), qv("d"), qv("e")];
        let mut queries: Vec<Bcq> = beliefdb_bench::table2_queries(&pair.eager)
            .unwrap()
            .into_iter()
            .map(|(_, q)| q)
            .collect();
        queries.push(
            Bcq::builder(vec![qv("x"), qv("a")])
                .positive(
                    vec![pv("x")],
                    s,
                    vec![qv("a"), qany(), qany(), qany(), qany()],
                )
                .build(&schema)
                .unwrap(),
        );
        queries.push(
            Bcq::builder(vec![qv("x"), qv("y"), qv("c")])
                .positive(vec![pv("x"), pv("y")], s, all.clone())
                .negative(vec![pv("y")], s, all)
                .build(&schema)
                .unwrap(),
        );
        for q in &queries {
            assert_same_answers(&mut pair, q);
        }
    }
}

fn fuzz_pair() -> Pair {
    let cfg = GeneratorConfig::new(common::bcq::USERS as usize, 100)
        .with_depth(DepthDist::new(&[0.25, 0.45, 0.3]))
        .with_key_space(6)
        .with_negative_rate(0.3)
        .with_seed(99);
    build(&cfg).0
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(100))]

    #[test]
    fn fuzzed_queries_agree_across_policies(q in common::bcq::arb_query()) {
        let mut pair = fuzz_pair();
        prop_assume!(q.validate(pair.eager.schema()).is_ok());
        assert_same_answers(&mut pair, &q);
    }
}

#[test]
fn lazy_storage_is_smaller_and_updates_do_not_fan_out() {
    for cfg in configs() {
        let (mut pair, _) = build(&cfg);
        let (eager, lazy) = (pair.eager.stats(), pair.lazy.stats());
        assert_eq!((lazy.worlds, lazy.users), (eager.worlds, eager.users));
        let strip = |tables: &[(String, usize)]| -> Vec<(String, usize)> {
            tables
                .iter()
                .filter(|(name, _)| !name.starts_with("V__"))
                .cloned()
                .collect()
        };
        assert_eq!(strip(&lazy.per_table), strip(&eager.per_table));
        // `V` is exactly the explicit statements, every row marked so.
        let explicit = pair.lazy.to_belief_database().unwrap().len();
        let v = pair.lazy.storage().table("V__S").unwrap();
        assert_eq!(v.len(), explicit);
        assert!(v.scan().iter().all(|r| r[4] == Value::str("y")));
        assert!(
            lazy.total_tuples < eager.total_tuples,
            "lazy {} vs eager {}",
            lazy.total_tuples,
            eager.total_tuples
        );

        // A root statement about a fresh key is one `V` row under `Lazy`,
        // one per world under `Eager`.
        let s = pair.lazy.schema().relation_id("S").unwrap();
        let fresh = GroundTuple::new(s, row!["fresh", "u1", "owl", "6-14-08", "loc0"]);
        let stmt = BeliefStatement::positive(BeliefPath::root(), fresh);
        let writes = |b: &mut Bdms| {
            let before = b.stats().total_tuples;
            assert_eq!(b.insert_statement(&stmt).unwrap(), InsertOutcome::Inserted);
            b.stats().total_tuples - before
        };
        // One `R*` row besides.
        assert_eq!(writes(&mut pair.lazy), 2);
        assert_eq!(writes(&mut pair.eager), eager.worlds + 1);
    }
}
