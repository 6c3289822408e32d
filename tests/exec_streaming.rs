//! Differential suite for the streaming executor: the vectorized
//! chunk-at-a-time pipeline (`execute` / `stream` / `stream_chunks`) and
//! the original operator-at-a-time evaluator (`execute_materialized`, the
//! executable specification) must return identical row multisets.
//!
//! Four layers, mirroring `tests/optimizer_equivalence.rs`:
//!
//! 1. **fuzzed relational plans** — arity-correct random plans (shared
//!    generator in `tests/common`), unoptimized and optimized, chunked
//!    vs materializing;
//! 2. **fuzzed belief conjunctive queries** — `Bdms::query` (chunked)
//!    vs `Bdms::query_materialized`, plus `Bdms::query_streaming`;
//! 3. **batch boundaries** — inputs of size 1, 1023, 1024, 1025, 2048
//!    driven through Limit/Distinct/Union operators straddling a chunk
//!    edge, compared exactly (both executors preserve order here);
//! 4. **laziness semantics** — streaming is allowed to do strictly less
//!    work (a `Limit` stops pulling; errors surface only if the failing
//!    row is actually demanded), never more — including when the
//!    poisoned row shares a chunk with the demanded one.

mod common;

use beliefdb::core::bcq::{Bcq, CmpPred, PathElem, QueryTerm, Subgoal};
use beliefdb::core::{Bdms, RelId, Sign, UserId};
use beliefdb::gen::{generate_logical, DepthDist, GeneratorConfig};
use beliefdb::storage::{
    execute, execute_materialized, execute_optimized, optimize, row, CmpOp, Expr, Plan, Row,
};
use common::{contains_order_sensitive_limit, gen_plan, plan_db, sorted};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

// ---------------------------------------------------------------------------
// Layer 1: fuzzed relational plans
// ---------------------------------------------------------------------------

#[test]
fn fuzzed_plans_stream_and_materialize_identically() {
    let db = plan_db();
    let mut rng = StdRng::seed_from_u64(0x57AE4A);
    let mut nontrivial = 0usize;
    let mut skipped_errors = 0usize;
    for case in 0..300 {
        let (plan, _) = gen_plan(&mut rng, 3);
        if contains_order_sensitive_limit(&plan) {
            continue;
        }
        // Streaming evaluates a subset of what materializing evaluates
        // (a Limit stops pulling), so an error from the reference side
        // need not reproduce; the other direction must agree exactly.
        let reference = match execute_materialized(&db, &plan) {
            Ok(rows) => rows,
            Err(_) => {
                skipped_errors += 1;
                continue;
            }
        };
        let streamed = execute(&db, &plan).expect("chunked execution failed");
        if !reference.is_empty() {
            nontrivial += 1;
        }
        assert_eq!(
            sorted(reference.clone()),
            sorted(streamed),
            "case {case}: executors disagree on {plan:?}"
        );
        // And through the optimizer: optimized+streamed still matches the
        // unoptimized materialized reference.
        let optimized = execute_optimized(&db, &plan).expect("optimized execution failed");
        assert_eq!(
            sorted(reference),
            sorted(optimized),
            "case {case}: optimized streaming diverged on {plan:?}"
        );
    }
    assert!(
        nontrivial > 40,
        "only {nontrivial} non-empty cases — generator too weak"
    );
    assert!(
        skipped_errors < 50,
        "{skipped_errors} error cases — generator degenerated"
    );
}

#[test]
fn fuzzed_optimized_plans_stream_and_materialize_identically() {
    // Same comparison, but on the *optimized* plan shape on both sides —
    // exercises the streaming operators over pushed-down/reordered trees
    // (index probes, fused filters, aggregate pushdown).
    let db = plan_db();
    let mut rng = StdRng::seed_from_u64(0xD1FFE2);
    for case in 0..200 {
        let (plan, _) = gen_plan(&mut rng, 3);
        if contains_order_sensitive_limit(&plan) {
            continue;
        }
        let Ok(optimized) = optimize(&db, plan.clone()) else {
            continue;
        };
        let reference = match execute_materialized(&db, &optimized) {
            Ok(rows) => rows,
            Err(_) => continue,
        };
        let streamed = execute(&db, &optimized).expect("streaming execution failed");
        assert_eq!(
            sorted(reference),
            sorted(streamed),
            "case {case}: executors disagree on optimized {optimized:?}"
        );
    }
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
        .with_seed(4321);
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
fn fuzzed_bcqs_stream_and_materialize_identically() {
    let bdms = workload();
    let mut rng = StdRng::seed_from_u64(0x5BC0);
    let mut evaluated = 0usize;
    let mut attempts = 0usize;
    while evaluated < 120 && attempts < 3000 {
        attempts += 1;
        let q = gen_bcq(&mut rng);
        if q.validate(bdms.schema()).is_err() {
            continue;
        }
        evaluated += 1;
        let streaming = bdms.query(&q).expect("chunked BCQ evaluation failed");
        let materialized = bdms
            .query_materialized(&q)
            .expect("materializing BCQ evaluation failed");
        assert_eq!(
            streaming, materialized,
            "executors changed the answer of {q}"
        );
        // The row-streaming entry point agrees too (same multiset; it
        // only skips the final sort+collect).
        let mut pushed = Vec::new();
        bdms.query_streaming(&q, |row| pushed.push(row))
            .expect("row-streaming evaluation failed");
        pushed.sort();
        assert_eq!(pushed, streaming, "query_streaming diverged on {q}");
    }
    assert!(evaluated >= 100, "only {evaluated} safe queries generated");
}

// ---------------------------------------------------------------------------
// Layer 3: batch boundaries
// ---------------------------------------------------------------------------

/// Inputs of exactly these sizes exercise the chunk edge: one short of a
/// full batch (1023), exactly one batch (1024), one past it (1025), two
/// batches (2048), and the degenerate single row.
const BOUNDARY_SIZES: [usize; 5] = [1, 1023, 1024, 1025, 2048];

use common::boundary_values;

#[test]
fn batch_boundaries_agree_exactly_across_executors() {
    // Both executors preserve input order on these operators, so the
    // comparison is exact (not just multiset equality).
    let db = plan_db();
    for n in BOUNDARY_SIZES {
        let v = boundary_values(n);
        let plans = vec![
            // Limit straddling the chunk edge in both directions.
            v.clone().limit(1),
            v.clone().limit(n.saturating_sub(1)),
            v.clone().limit(n),
            v.clone().limit(n + 17),
            v.clone().limit(1023),
            v.clone().limit(1024),
            v.clone().limit(1025),
            // Distinct with first occurrences below the edge and
            // duplicates above (and vice versa).
            v.clone().distinct(),
            v.clone().distinct().limit(701),
            // Union straddling: the second input starts mid-batch; the
            // pipeline must handle partial trailing chunks.
            Plan::Union {
                inputs: vec![v.clone(), boundary_values(3)],
            },
            Plan::Union {
                inputs: vec![v.clone(), v.clone()],
            }
            .distinct(),
            Plan::Union {
                inputs: vec![v.clone(), v.clone()],
            }
            .limit(n + 1),
            // Selection + projection across the edge for good measure.
            v.clone()
                .select(Expr::cmp(CmpOp::Lt, Expr::Col(0), Expr::lit(350i64)))
                .project_cols(&[0]),
        ];
        for plan in &plans {
            let chunked = execute(&db, plan).expect("chunked failed");
            let materialized = execute_materialized(&db, plan).expect("materializing failed");
            assert_eq!(
                chunked, materialized,
                "n={n}: chunked vs materialized diverged"
            );
        }
    }
}

#[test]
fn batch_boundary_distinct_dedups_across_the_chunk_edge() {
    // Row 324 first occurs at index 324 (chunk 1) and repeats at index
    // 1024 — the first row of chunk 2. Distinct must drop it.
    let db = plan_db();
    let plan = boundary_values(1025).distinct();
    let rows = execute(&db, &plan).unwrap();
    assert_eq!(rows.len(), 700, "700 distinct values in 1025 rows");
    assert_eq!(rows, execute_materialized(&db, &plan).unwrap());
}

// ---------------------------------------------------------------------------
// Layer 4: laziness semantics
// ---------------------------------------------------------------------------

#[test]
fn limit_short_circuits_instead_of_materializing() {
    let db = plan_db();
    // A plan whose full evaluation errors (bare-column predicate over a
    // non-boolean later row) but whose first row is fine: the streaming
    // Limit never demands the poisoned row — even though chunked
    // execution sees both rows in the same batch (the selection splits
    // the chunk at the error instead of failing it wholesale).
    let plan = Plan::Values {
        arity: 1,
        rows: vec![row![true], row![7]],
    }
    .select(Expr::Col(0))
    .limit(1);
    assert_eq!(execute(&db, &plan).unwrap(), vec![row![true]]);
    assert!(execute_materialized(&db, &plan).is_err());
    // Same shape at a chunk boundary: 1023 good rows, a poisoned one at
    // index 1023, and a Limit satisfied just before it.
    let mut rows: Vec<Row> = (0..1023).map(|_| row![true]).collect();
    rows.push(row![7]);
    let plan = Plan::Values { arity: 1, rows }
        .select(Expr::Col(0))
        .limit(1023);
    assert_eq!(execute(&db, &plan).unwrap().len(), 1023);
    assert!(execute_materialized(&db, &plan).is_err());
}

#[test]
fn streaming_surfaces_demanded_errors() {
    let db = plan_db();
    // Without the limit the poisoned row *is* demanded: both executors
    // must fail.
    let plan = Plan::Values {
        arity: 1,
        rows: vec![row![true], row![7]],
    }
    .select(Expr::Col(0));
    assert!(execute(&db, &plan).is_err());
    assert!(execute_materialized(&db, &plan).is_err());
}

#[test]
fn streaming_iterator_yields_incrementally() {
    let db = plan_db();
    // Pull exactly three rows from a selective pipeline and stop: the
    // stream hands back rows one at a time without draining the scan.
    let plan = Plan::scan("E")
        .select(Expr::cmp(CmpOp::Ge, Expr::Col(2), Expr::lit(0i64)))
        .project_cols(&[2, 1]);
    let mut stream = beliefdb::storage::stream(&db, &plan).unwrap();
    let mut taken = Vec::new();
    for _ in 0..3 {
        taken.push(stream.next().unwrap().unwrap());
    }
    drop(stream); // abandoning the rest of the pipeline is fine
    let full = execute(&db, &plan).unwrap();
    assert_eq!(taken.as_slice(), &full[..3]);
}
