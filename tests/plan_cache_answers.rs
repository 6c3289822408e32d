//! Answers served from the plan cache.
//!
//! A plan-cache entry keeps its program's sorted answer from the first
//! replay of its plans on, and every later hit at the same read-set
//! versions returns that answer without executing. This suite holds the
//! stored answers to the two references that never touch the cache:
//!
//! * seeded interleavings of the seven Table 2 queries and the key-bound
//!   probe, each read repeated one to three times, with inserts, deletes,
//!   updates and new users in between, on a Table 2 store at n = 300
//!   under both default policies — after every step every collected,
//!   streamed, traced (profiled) and `EXPLAIN ANALYZE` answer equals
//!   `query_naive` and `query_materialized`;
//! * the counters: a third repeat scans no row and counts one hit, a
//!   write outside a program's read set keeps its answer, and a write
//!   inside it forces a miss;
//! * the world directory: a program reads the worlds its belief paths
//!   resolve to as constants and valuation facts, so a new world or user
//!   that changes a resolution changes the program's text — the cache
//!   key — and the repeat misses.
//!
//! The metrics registry is process-global, so every test here holds
//! `METRICS` while it runs: the deltas are then exact.

use beliefdb::core::bcq::dsl::*;
use beliefdb::core::bcq::Bcq;
use beliefdb::core::internal::U_TABLE;
use beliefdb::core::{
    Bdms, BeliefPath, BeliefStatement, DefaultPolicy, ExternalSchema, GroundTuple, Sign, UserId,
};
use beliefdb::gen::scenarios::table2_config;
use beliefdb::gen::{fresh_bdms_with_policy, CandidateStream};
use beliefdb::sql::Session;
use beliefdb::storage::datalog::PlanCache;
use beliefdb::storage::{metrics, row, CmpOp, Metric, Recorder, Row, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Mutex;

static METRICS: Mutex<()> = Mutex::new(());

const POLICIES: [DefaultPolicy; 2] = [DefaultPolicy::Eager, DefaultPolicy::Lazy];

/// A Table 2 store at n = 300 under `policy`, with the generator stream
/// that built it (the next candidates are fresh inserts) and the
/// statements it accepted (targets for deletes and updates).
fn table2_store(policy: DefaultPolicy, seed: u64) -> (Bdms, CandidateStream, Vec<BeliefStatement>) {
    let cfg = table2_config(300, seed);
    let mut bdms = fresh_bdms_with_policy(&cfg, policy).unwrap();
    let mut stream = CandidateStream::new(&cfg);
    let mut accepted = Vec::new();
    while accepted.len() < cfg.annotations {
        let stmt = stream.next_candidate();
        if bdms.insert_statement(&stmt).unwrap().changed() {
            accepted.push(stmt);
        }
    }
    (bdms, stream, accepted)
}

/// The seven Table 2 queries, then the key-bound probe: `q1,2` restricted
/// to `key`.
fn reads(bdms: &Bdms, key: &str) -> Vec<(String, Bcq)> {
    let mut queries = beliefdb_bench::table2_queries(bdms).unwrap();
    let s = bdms.schema().relation_id("S").unwrap();
    let probe = Bcq::builder(vec![qv("x"), qv("y")])
        .positive(
            vec![pu(UserId(2)), pu(UserId(1))],
            s,
            vec![qv("x"), qany(), qv("y"), qany(), qany()],
        )
        .pred(qv("x"), CmpOp::Eq, qc(key))
        .build(bdms.schema())
        .unwrap();
    queries.push(("probe".into(), probe));
    queries
}

/// The key the probe asks for: the middle sighting of the `q1,2` answer
/// (as in beliefbench), or a key no sighting has when it is empty.
fn probe_key(bdms: &Bdms) -> String {
    let q12 = &beliefdb_bench::table2_queries(bdms).unwrap()[2].1;
    let rows = bdms.query_naive(q12).unwrap();
    rows.get(rows.len() / 2)
        .map_or_else(|| "none".to_string(), |r| r.values()[0].to_string())
}

fn streamed(bdms: &Bdms, q: &Bcq) -> Vec<Row> {
    let mut rows = Vec::new();
    bdms.query_streaming(q, |row| rows.push(row)).unwrap();
    rows.sort();
    rows
}

/// One read of `q` through every way a query runs on the plan cache, in
/// an order rotated by `turn` so that each way in turn meets the miss, the
/// first hit (which replays the cached plans) and the later hits (which
/// return the stored answer): collected, streamed, traced under an
/// enabled recorder (a profiled run), and `EXPLAIN ANALYZE` (which always
/// runs the plans). Every answer comes back sorted, named by its way.
fn cached_reads(bdms: &Bdms, q: &Bcq, turn: usize) -> Vec<(&'static str, Vec<Row>)> {
    type Read = fn(&Bdms, &Bcq) -> Vec<Row>;
    let ways: [(&str, Read); 4] = [
        ("collected", |b, q| b.query(q).unwrap()),
        ("streamed", streamed),
        ("traced", |b, q| {
            b.query_traced(q, &mut Recorder::enabled("traced")).unwrap()
        }),
        ("analyzed", |b, q| b.explain_analyze_query(q).unwrap().0),
    ];
    (0..ways.len())
        .map(|i| {
            let (way, read) = ways[(turn + i) % ways.len()];
            (way, read(bdms, q))
        })
        .collect()
}

/// One seeded interleaving: `steps` steps, each a write or a read of one
/// query repeated one to three times through every cached path, checked
/// against both references after every step. Returns the cache's hits
/// and the answer rows it held at some point (so the caller can tell the
/// answer path was exercised).
fn interleaving(policy: DefaultPolicy, seed: u64, steps: usize) -> (u64, usize) {
    let (mut bdms, mut stream, mut explicit) = table2_store(policy, seed);
    let s = bdms.schema().relation_id("S").unwrap();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut users = 10;
    let mut max_answer_rows = 0;
    let mut key = probe_key(&bdms);
    for step in 0..steps {
        let ctx = format!("{policy:?} seed {seed} step {step}");
        match rng.gen_range(0..10) {
            0 => {
                // Every other insert lands in a world the `q1` queries
                // read, so most inserts change some answer; the deeper two
                // may create the world a path resolved below until then.
                let mut stmt = stream.next_candidate();
                if rng.gen_range(0..2) == 0 {
                    let paths: &[&[u32]] = &[&[], &[1], &[2, 1], &[1, 2, 1], &[2, 1, 2, 1]];
                    let path = paths[rng.gen_range(0..paths.len())]
                        .iter()
                        .map(|&u| UserId(u));
                    stmt = BeliefStatement::new(
                        BeliefPath::new(path.collect::<Vec<_>>()).unwrap(),
                        stmt.tuple,
                        stmt.sign,
                    );
                }
                if bdms.insert_statement(&stmt).unwrap().changed() {
                    explicit.push(stmt);
                }
            }
            1 => {
                let stmt = explicit.swap_remove(rng.gen_range(0..explicit.len()));
                bdms.delete_statement(&stmt).unwrap();
            }
            2 => {
                // Replace a stated positive by one with the same key and
                // another species.
                let i = rng.gen_range(0..explicit.len());
                let old = explicit[i].clone();
                if old.sign == Sign::Pos {
                    let mut values = old.tuple.row.values().to_vec();
                    values[2] = Value::str(format!("species{}", rng.gen_range(0..40)));
                    let new_row = Row::new(values);
                    let outcome = bdms
                        .update(old.path.clone(), s, old.tuple.row.clone(), new_row.clone())
                        .unwrap();
                    if outcome.changed() {
                        explicit[i] =
                            BeliefStatement::new(old.path, GroundTuple::new(s, new_row), Sign::Pos);
                    }
                }
            }
            3 => {
                users += 1;
                bdms.add_user(format!("u{users}")).unwrap();
            }
            _ => {
                if rng.gen_range(0..4) == 0 {
                    key = probe_key(&bdms);
                }
                let queries = reads(&bdms, &key);
                let (name, q) = &queries[rng.gen_range(0..queries.len())];
                let naive = bdms.query_naive(q).unwrap();
                assert_eq!(
                    bdms.query_materialized(q).unwrap(),
                    naive,
                    "{ctx}: {name}: references disagree"
                );
                for repeat in 0..=rng.gen_range(0..3) {
                    for (way, rows) in cached_reads(&bdms, q, step + repeat) {
                        assert_eq!(rows, naive, "{ctx}: {name} {way}, repeat {repeat}");
                    }
                }
            }
        }
        // Every query whose answer the cache may hold, whatever the last
        // step was: every way it runs against both references.
        for (name, q) in reads(&bdms, &key) {
            let stats = bdms.plan_cache_stats();
            max_answer_rows = max_answer_rows.max(stats.answer_rows);
            let naive = bdms.query_naive(&q).unwrap();
            assert_eq!(bdms.query_materialized(&q).unwrap(), naive, "{ctx}: {name}");
            for (way, rows) in cached_reads(&bdms, &q, step) {
                assert_eq!(rows, naive, "{ctx}: {name} {way}");
            }
        }
    }
    (bdms.plan_cache_stats().hits, max_answer_rows)
}

#[test]
fn cached_answers_match_both_references_through_seeded_interleavings() {
    let _guard = METRICS.lock().unwrap_or_else(|e| e.into_inner());
    for policy in POLICIES {
        for seed in [5, 17] {
            let (hits, answer_rows) = interleaving(policy, seed, 40);
            assert!(hits > 0, "{policy:?} seed {seed}: no query hit the cache");
            assert!(
                answer_rows > 0,
                "{policy:?} seed {seed}: no answer was ever stored"
            );
        }
    }
}

/// Deltas of the counters this suite asserts on across `f`.
fn deltas(f: impl FnOnce()) -> (u64, u64, u64) {
    let before = metrics().snapshot();
    f();
    let d = metrics().snapshot().since(&before);
    (
        d.get(Metric::RowsScanned),
        d.get(Metric::PlanCacheHits),
        d.get(Metric::PlanCacheMisses),
    )
}

#[test]
fn a_third_repeat_scans_nothing_and_counts_a_hit() {
    let _guard = METRICS.lock().unwrap_or_else(|e| e.into_inner());
    for policy in POLICIES {
        let (bdms, _, _) = table2_store(policy, 3);
        let key = probe_key(&bdms);
        for (name, q) in reads(&bdms, &key) {
            let naive = bdms.query_naive(&q).unwrap();
            let (scanned, hits, misses) = deltas(|| assert_eq!(bdms.query(&q).unwrap(), naive));
            assert_eq!((hits, misses), (0, 1), "{policy:?} {name}: first run");
            assert!(scanned > 0, "{policy:?} {name}: a miss executes");
            let (_, hits, misses) = deltas(|| assert_eq!(bdms.query(&q).unwrap(), naive));
            assert_eq!((hits, misses), (1, 0), "{policy:?} {name}: second run");
            let third = deltas(|| assert_eq!(bdms.query(&q).unwrap(), naive));
            assert_eq!(third, (0, 1, 0), "{policy:?} {name}: third run");
            // The streamed path emits the stored rows just as cheaply.
            let fourth = deltas(|| assert_eq!(streamed(&bdms, &q), naive));
            assert_eq!(fourth, (0, 1, 0), "{policy:?} {name}: streamed repeat");
        }
        assert!(bdms.plan_cache_stats().answer_rows > 0);
    }
}

#[test]
fn writes_outside_the_read_set_keep_the_answer_and_writes_inside_do_not() {
    let _guard = METRICS.lock().unwrap_or_else(|e| e.into_inner());
    for policy in POLICIES {
        let (mut bdms, mut stream, _) = table2_store(policy, 9);
        let key = probe_key(&bdms);
        let queries = reads(&bdms, &key);
        // A new user writes `U` and gives every path variable one more
        // value: a query is touched when it reads `U` or when its
        // program's text — valuation facts included — changes.
        let programs = |bdms: &Bdms| -> Vec<String> {
            let translated = queries.iter().map(|(_, q)| bdms.translate(q).unwrap());
            translated.map(|t| t.program.to_string()).collect()
        };
        let reads_users = |bdms: &Bdms, q: &Bcq| {
            let program = bdms.translate(q).unwrap().program;
            PlanCache::read_versions(bdms.storage(), &program)
                .iter()
                .any(|(t, _)| t == U_TABLE)
        };
        let before = programs(&bdms);
        for (_, q) in &queries {
            bdms.query(q).unwrap();
            bdms.query(q).unwrap();
        }

        bdms.add_user("newcomer").unwrap();
        let touched: Vec<bool> = (queries.iter().zip(before).zip(programs(&bdms)))
            .map(|(((_, q), before), after)| reads_users(&bdms, q) || before != after)
            .collect();
        // q3 ranges over the users; the constant paths do not.
        let names: Vec<&str> = queries.iter().map(|(n, _)| n.as_str()).collect();
        let expected: Vec<bool> = names.iter().map(|&n| n == "q3").collect();
        assert_eq!(touched, expected, "{policy:?} {names:?}");
        for ((name, q), touched) in queries.iter().zip(&touched) {
            let naive = bdms.query_naive(q).unwrap();
            let (scanned, hits, misses) = deltas(|| assert_eq!(bdms.query(q).unwrap(), naive));
            if *touched {
                assert_eq!(
                    (hits, misses),
                    (0, 1),
                    "{policy:?} {name}: read set written"
                );
            } else {
                assert_eq!(
                    (scanned, hits, misses),
                    (0, 1, 0),
                    "{policy:?} {name}: answer kept across an unrelated write"
                );
            }
        }

        // An accepted insert writes `V`, which every query reads.
        for (_, q) in &queries {
            bdms.query(q).unwrap();
            bdms.query(q).unwrap();
        }
        while !bdms
            .insert_statement(&stream.next_candidate())
            .unwrap()
            .changed()
        {}
        for (name, q) in &queries {
            let naive = bdms.query_naive(q).unwrap();
            let (_, hits, misses) = deltas(|| assert_eq!(bdms.query(q).unwrap(), naive));
            assert_eq!((hits, misses), (0, 1), "{policy:?} {name}: after an insert");
        }
    }
}

/// A store over two relations, `S` and `C`, with three users and stated
/// worlds `ε`, `[1]` and `[2]`: `[2·1]` resolves to `[1]`.
fn two_relation_store(policy: DefaultPolicy) -> Bdms {
    let schema = ExternalSchema::new()
        .with_relation("S", &["sid", "species"])
        .with_relation("C", &["cid", "text"]);
    let mut bdms = Bdms::with_policy(schema, policy).unwrap();
    for name in ["u1", "u2", "u3"] {
        bdms.add_user(name).unwrap();
    }
    let s = bdms.schema().relation_id("S").unwrap();
    let at = |users: &[u32]| BeliefPath::new(users.iter().map(|&u| UserId(u)).collect::<Vec<_>>());
    let statements = [
        (at(&[]), row!["s1", "crow"], Sign::Pos),
        (at(&[1]), row!["s1", "raven"], Sign::Pos),
        (at(&[1]), row!["s2", "owl"], Sign::Pos),
        (at(&[2]), row!["s1", "crow"], Sign::Neg),
    ];
    for (path, tuple, sign) in statements {
        bdms.insert(path.unwrap(), s, tuple, sign).unwrap();
    }
    bdms
}

/// The hits and misses of one `query` of `q`, whose answer must equal
/// `query_naive`'s.
fn counted_read(bdms: &Bdms, q: &Bcq, ctx: &str) -> (u64, u64) {
    let naive = bdms.query_naive(q).unwrap();
    let (_, hits, misses) = deltas(|| assert_eq!(bdms.query(q).unwrap(), naive, "{ctx}"));
    (hits, misses)
}

#[test]
fn a_new_world_or_user_that_changes_a_resolution_forces_a_miss() {
    let _guard = METRICS.lock().unwrap_or_else(|e| e.into_inner());
    for policy in POLICIES {
        // A deeper world appears between two identical reads at `[2·1]`,
        // written through the other relation: under `Lazy` no table the
        // read reads changes, only the world its path resolves to.
        let mut bdms = two_relation_store(policy);
        let s = bdms.schema().relation_id("S").unwrap();
        let c = bdms.schema().relation_id("C").unwrap();
        let q = Bcq::builder(vec![qv("x"), qv("y")])
            .positive(
                vec![pu(UserId(2)), pu(UserId(1))],
                s,
                vec![qv("x"), qv("y")],
            )
            .build(bdms.schema())
            .unwrap();
        let ctx = format!("{policy:?} [2·1]");
        let w21 = BeliefPath::new(vec![UserId(2), UserId(1)]).unwrap();
        let w1 = bdms
            .internal()
            .directory()
            .get(&BeliefPath::user(UserId(1)));
        assert_eq!(Some(bdms.internal().resolve(&w21)), w1, "{ctx}");
        assert_eq!(counted_read(&bdms, &q, &ctx), (0, 1), "{ctx}: first read");
        assert_eq!(counted_read(&bdms, &q, &ctx), (1, 0), "{ctx}: repeat");
        let before = bdms.translate(&q).unwrap().program.to_string();
        let v_s = |bdms: &Bdms| bdms.storage().table("V__S").unwrap().version();
        let version = v_s(&bdms);
        let outcome = bdms.insert(w21.clone(), c, row!["c1", "seen"], Sign::Pos);
        assert!(outcome.unwrap().accepted(), "{ctx}");
        assert_eq!(
            bdms.internal().directory().get(&w21),
            Some(bdms.internal().resolve(&w21))
        );
        if policy == DefaultPolicy::Lazy {
            assert_eq!(v_s(&bdms), version, "{ctx}: `V__S` is untouched");
        }
        assert_ne!(
            bdms.translate(&q).unwrap().program.to_string(),
            before,
            "{ctx}"
        );
        assert_eq!(
            counted_read(&bdms, &q, &ctx),
            (0, 1),
            "{ctx}: after the new world"
        );
        assert_eq!(counted_read(&bdms, &q, &ctx), (1, 0), "{ctx}: its repeat");

        // A new user before q3, whose negative subgoal ranges over the
        // users: the valuation facts gain a row.
        let (mut bdms, _, _) = table2_store(policy, 11);
        let q3 = &beliefdb_bench::table2_queries(&bdms).unwrap()[6];
        assert_eq!(q3.0, "q3");
        let ctx = format!("{policy:?} q3");
        assert_eq!(
            counted_read(&bdms, &q3.1, &ctx),
            (0, 1),
            "{ctx}: first read"
        );
        assert_eq!(counted_read(&bdms, &q3.1, &ctx), (1, 0), "{ctx}: repeat");
        bdms.add_user("newcomer").unwrap();
        assert_eq!(
            counted_read(&bdms, &q3.1, &ctx),
            (0, 1),
            "{ctx}: after add_user"
        );
        assert_eq!(
            counted_read(&bdms, &q3.1, &ctx),
            (1, 0),
            "{ctx}: its repeat"
        );
    }
}

/// The counters one `query` of `q` moves, whose answer must equal
/// `query_naive`'s: rows scanned, hits, misses, and the hits the query
/// memo answered.
fn memo_read(bdms: &Bdms, q: &Bcq, ctx: &str) -> (u64, u64, u64, u64) {
    let naive = bdms.query_naive(q).unwrap();
    let before = bdms.plan_cache_stats().query_hits;
    let (scanned, hits, misses) = deltas(|| assert_eq!(bdms.query(q).unwrap(), naive, "{ctx}"));
    (
        scanned,
        hits,
        misses,
        bdms.plan_cache_stats().query_hits - before,
    )
}

#[test]
fn a_second_repeat_scans_nothing_and_counts_one_query_hit() {
    let _guard = METRICS.lock().unwrap_or_else(|e| e.into_inner());
    for policy in POLICIES {
        let (bdms, _, _) = table2_store(policy, 3);
        let key = probe_key(&bdms);
        for (name, q) in reads(&bdms, &key) {
            let ctx = format!("{policy:?} {name}");
            let (scanned, hits, misses, query_hits) = memo_read(&bdms, &q, &ctx);
            assert_eq!((hits, misses, query_hits), (0, 1, 0), "{ctx}: first run");
            assert!(scanned > 0, "{ctx}: a miss executes");
            // The miss kept its answer: the first repeat is already
            // answered by the memo, without translating or executing.
            let repeat = memo_read(&bdms, &q, &ctx);
            assert_eq!(repeat, (0, 1, 0, 1), "{ctx}: second run");
        }
        let stats = bdms.plan_cache_stats();
        assert_eq!(stats.queries, stats.entries, "{policy:?}");
    }
}

#[test]
fn the_memo_follows_worlds_users_and_options() {
    let _guard = METRICS.lock().unwrap_or_else(|e| e.into_inner());
    for policy in POLICIES {
        // A deeper world appears between two identical reads at `[2·1]`:
        // the memo's stamp moves, and the program the query translates to
        // changes with it.
        let mut bdms = two_relation_store(policy);
        let s = bdms.schema().relation_id("S").unwrap();
        let c = bdms.schema().relation_id("C").unwrap();
        let q = Bcq::builder(vec![qv("x"), qv("y")])
            .positive(
                vec![pu(UserId(2)), pu(UserId(1))],
                s,
                vec![qv("x"), qv("y")],
            )
            .build(bdms.schema())
            .unwrap();
        let ctx = format!("{policy:?} [2·1]");
        let (_, hits, misses, _) = memo_read(&bdms, &q, &ctx);
        assert_eq!((hits, misses), (0, 1), "{ctx}: first read");
        assert_eq!(memo_read(&bdms, &q, &ctx), (0, 1, 0, 1), "{ctx}: repeat");
        let w21 = BeliefPath::new(vec![UserId(2), UserId(1)]).unwrap();
        let outcome = bdms.insert(w21, c, row!["c1", "seen"], Sign::Pos);
        assert!(outcome.unwrap().accepted(), "{ctx}");
        let (_, hits, misses, query_hits) = memo_read(&bdms, &q, &ctx);
        assert_eq!((hits, misses, query_hits), (0, 1, 0), "{ctx}: new world");
        assert_eq!(
            memo_read(&bdms, &q, &ctx),
            (0, 1, 0, 1),
            "{ctx}: its repeat"
        );

        // A world the query never reads moves the stamp too, but the
        // program it translates to is the same: a program-level hit on the
        // stored answer, then the memo again.
        let w3 = BeliefPath::user(UserId(3));
        let outcome = bdms.insert(w3, c, row!["c2", "elsewhere"], Sign::Pos);
        assert!(outcome.unwrap().accepted(), "{ctx}");
        let unrelated = memo_read(&bdms, &q, &ctx);
        if policy == DefaultPolicy::Lazy {
            assert_eq!(unrelated, (0, 1, 0, 0), "{ctx}: unrelated world");
        } else {
            // Under `Eager` the new world's copy writes `V__S`: a miss.
            let (_, hits, misses, query_hits) = unrelated;
            assert_eq!((hits, misses, query_hits), (0, 1, 0), "{ctx}");
        }
        assert_eq!(
            memo_read(&bdms, &q, &ctx),
            (0, 1, 0, 1),
            "{ctx}: its repeat"
        );

        // The magic toggle and the memory budget are part of the key: a
        // flip is a query-level miss. For a join the rewrite changes, magic
        // off runs another program; flipping it back finds the first entry
        // still answered.
        let join = Bcq::builder(vec![qv("x"), qv("y"), qv("z")])
            .positive(
                vec![pu(UserId(2)), pu(UserId(1))],
                s,
                vec![qv("x"), qv("y")],
            )
            .positive(vec![], s, vec![qv("x"), qv("z")])
            .build(bdms.schema())
            .unwrap();
        let translated = bdms.translate(&join).unwrap().program;
        let rewritten = beliefdb::storage::opt::magic::rewrite_checked(&translated).unwrap();
        assert_ne!(rewritten.to_string(), translated.to_string(), "{ctx}");
        let (_, hits, misses, _) = memo_read(&bdms, &join, &ctx);
        assert_eq!((hits, misses), (0, 1), "{ctx}: join");
        bdms.set_magic(false);
        let (_, hits, misses, query_hits) = memo_read(&bdms, &join, &ctx);
        assert_eq!((hits, misses, query_hits), (0, 1, 0), "{ctx}: magic off");
        assert_eq!(memo_read(&bdms, &join, &ctx), (0, 1, 0, 1), "{ctx}: repeat");
        bdms.set_magic(true);
        assert_eq!(
            memo_read(&bdms, &join, &ctx),
            (0, 1, 0, 1),
            "{ctx}: magic on"
        );
        // A budget leaves the program as it was: its stored answer serves
        // the first read under it, the memo the next.
        bdms.set_memory_budget(Some(1 << 20));
        assert_eq!(memo_read(&bdms, &q, &ctx), (0, 1, 0, 0), "{ctx}: budget");
        assert_eq!(memo_read(&bdms, &q, &ctx), (0, 1, 0, 1), "{ctx}: repeat");
        bdms.set_memory_budget(None);
        assert_eq!(memo_read(&bdms, &q, &ctx), (0, 1, 0, 1), "{ctx}: no budget");

        // A new user before q3, whose negative subgoal ranges over the
        // users.
        let (mut bdms, _, _) = table2_store(policy, 11);
        let q3 = &beliefdb_bench::table2_queries(&bdms).unwrap()[6];
        assert_eq!(q3.0, "q3");
        let ctx = format!("{policy:?} q3");
        let (_, hits, misses, _) = memo_read(&bdms, &q3.1, &ctx);
        assert_eq!((hits, misses), (0, 1), "{ctx}: first read");
        assert_eq!(memo_read(&bdms, &q3.1, &ctx), (0, 1, 0, 1), "{ctx}: repeat");
        bdms.add_user("newcomer").unwrap();
        let (_, hits, misses, query_hits) = memo_read(&bdms, &q3.1, &ctx);
        assert_eq!((hits, misses, query_hits), (0, 1, 0), "{ctx}: add_user");
        assert_eq!(
            memo_read(&bdms, &q3.1, &ctx),
            (0, 1, 0, 1),
            "{ctx}: its repeat"
        );
    }
}

#[test]
fn two_sql_spellings_of_one_query_share_an_entry() {
    let _guard = METRICS.lock().unwrap_or_else(|e| e.into_inner());
    for policy in POLICIES {
        let session = Session::from_bdms(two_relation_store(policy));
        let spellings = [
            "select X.sid, X.species from BELIEF 'u2' BELIEF 'u1' S as X where X.sid = 's1'",
            "SELECT  X.sid ,X.species FROM belief 'u2' belief 'u1' S X WHERE 's1' = X.sid",
        ];
        let first = session.query(spellings[0]).unwrap();
        let second = session.query(spellings[1]).unwrap();
        assert_eq!(first.rows(), second.rows(), "{policy:?}");
        assert_eq!(first.rows(), [row!["s1", "raven"]], "{policy:?}");
        let stats = session.bdms().plan_cache_stats();
        assert_eq!(
            (stats.hits, stats.query_hits, stats.misses),
            (1, 1, 1),
            "{policy:?}"
        );
        assert_eq!((stats.entries, stats.queries), (1, 1), "{policy:?}");
    }
}

#[test]
fn probes_in_a_row_keep_the_memo_within_the_programs() {
    let _guard = METRICS.lock().unwrap_or_else(|e| e.into_inner());
    let (bdms, _, _) = table2_store(DefaultPolicy::Lazy, 13);
    let q12 = &beliefdb_bench::table2_queries(&bdms).unwrap()[2].1;
    let keys: Vec<String> = (bdms.query_naive(q12).unwrap().iter())
        .map(|r| r.values()[0].to_string())
        .chain((0..200).map(|i| format!("absent{i}")))
        .take(200)
        .collect();
    for key in &keys {
        let probe = reads(&bdms, key).pop().unwrap().1;
        let naive = bdms.query_naive(&probe).unwrap();
        assert_eq!(bdms.query(&probe).unwrap(), naive, "probe {key}");
        let stats = bdms.plan_cache_stats();
        assert!(stats.queries <= stats.entries, "probe {key}: {stats:?}");
    }
    let stats = bdms.plan_cache_stats();
    assert_eq!(stats.misses, 200, "{stats:?}");
    assert!(stats.entries < 200, "FIFO evicted nothing: {stats:?}");
}
