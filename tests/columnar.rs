//! Differential and boundary coverage for the columnar executor path:
//! scans emit zero-copy windows over the table's column cache
//! (unboxed `i64`/`bool` vectors, dictionary-encoded strings, validity
//! bitmaps) and the compiled filter kernels run directly on those
//! columns through a selection vector. Every answer must be what the
//! materializing reference executor produces — across fuzzed plans,
//! spill budgets, batch-boundary table sizes, all-NULL columns,
//! dictionaries past the u16 code range, and selection-vector/validity
//! interaction.

mod common;

use beliefdb::storage::{
    execute_materialized, row, CmpOp, Database, Executor, Expr, Plan, Row, SpillOptions,
    TableSchema, Value,
};
use common::{gen_plan, plan_db, sorted};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Collect a plan's rows through the columnar executor.
fn run_columnar(db: &Database, plan: &Plan) -> Vec<Row> {
    Executor::new(db)
        .open_chunks(plan)
        .unwrap()
        .collect_rows()
        .unwrap()
}

/// Collect through the columnar executor under a spill budget.
fn run_budgeted(db: &Database, plan: &Plan, budget: usize, dir: &std::path::Path) -> Vec<Row> {
    Executor::with_spill(db, SpillOptions::with_budget(budget).in_dir(dir))
        .open_chunks(plan)
        .unwrap()
        .collect_rows()
        .unwrap()
}

// ---------------------------------------------------------------------------
// Fuzzed differential, with and without spill budgets
// ---------------------------------------------------------------------------

#[test]
fn fuzzed_plans_agree_across_executors_and_budgets() {
    // Arm the plan verifier: every optimized plan in this suite is
    // invariant-checked at every rewrite stage and at executor open.
    beliefdb::storage::sema::set_verify(true);
    let db = plan_db();
    let dir = std::env::temp_dir().join(format!("beliefdb-columnar-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let mut rng = StdRng::seed_from_u64(0xC01A);
    let mut nontrivial = 0usize;
    for case in 0..250 {
        let (plan, _) = gen_plan(&mut rng, 3);
        let Ok(reference) = execute_materialized(&db, &plan) else {
            continue;
        };
        if !reference.is_empty() {
            nontrivial += 1;
        }
        let reference = sorted(reference);
        let columnar = run_columnar(&db, &plan);
        assert_eq!(
            reference,
            sorted(columnar),
            "case {case}: columnar executor diverged on {plan:?}"
        );
        // Under a tiny budget every materialization point spills: the
        // columnar run-file block encoding round-trips the same rows.
        let spilled = run_budgeted(&db, &plan, 4096, &dir);
        assert_eq!(
            reference,
            sorted(spilled),
            "case {case}: budgeted run diverged on {plan:?}"
        );
    }
    assert!(
        nontrivial > 40,
        "only {nontrivial} non-empty cases — generator too weak"
    );
    assert_eq!(
        std::fs::read_dir(&dir).unwrap().count(),
        0,
        "spill files left behind"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

// ---------------------------------------------------------------------------
// Batch boundaries on real tables (Values literals never go columnar)
// ---------------------------------------------------------------------------

/// One short of a batch, exactly one, one past, two, and a single row.
const BOUNDARY_SIZES: [usize; 5] = [1, 1023, 1024, 1025, 2048];

/// A table mixing every column class the transpose distinguishes:
/// unboxed ints, dictionary strings, a nullable int (validity bitmap),
/// and a column of nothing but NULLs.
fn boundary_table(db: &mut Database, name: &str, n: usize) {
    let t = db
        .create_table(TableSchema::keyless(name, &["i", "s", "ni", "nul"]))
        .unwrap();
    for k in 0..n as i64 {
        let ni = if k % 3 == 0 {
            Value::Null
        } else {
            Value::int(k)
        };
        t.insert(Row::new(vec![
            Value::int(k % 700),
            Value::str(if k % 3 == 0 { "+" } else { "-" }),
            ni,
            Value::Null,
        ]))
        .unwrap();
    }
}

#[test]
fn batch_boundary_scans_agree_exactly_across_executors() {
    let mut db = Database::new();
    for n in BOUNDARY_SIZES {
        boundary_table(&mut db, &format!("T{n}"), n);
    }
    for n in BOUNDARY_SIZES {
        let scan = Plan::scan(format!("T{n}"));
        let plans = vec![
            scan.clone(),
            // Compiled int-equality kernel over the unboxed column.
            scan.clone().select(Expr::col_eq_lit(0, 3i64)),
            // String kernels over the dictionary column.
            scan.clone().select(Expr::col_eq_lit(1, "+")),
            scan.clone()
                .select(Expr::cmp(CmpOp::Lt, Expr::Col(1), Expr::lit("-"))),
            // Range over the nullable int: NULL sorts below every int,
            // so invalid slots pass `<` and fail `>=` — the kernels must
            // agree with the interpreter on that.
            scan.clone()
                .select(Expr::cmp(CmpOp::Lt, Expr::Col(2), Expr::lit(500i64))),
            scan.clone()
                .select(Expr::cmp(CmpOp::Ge, Expr::Col(2), Expr::lit(500i64))),
            // All-NULL column: equality never matches, `<` always does.
            scan.clone().select(Expr::col_eq_lit(3, 1i64)),
            scan.clone()
                .select(Expr::cmp(CmpOp::Lt, Expr::Col(3), Expr::lit(1i64))),
            // Fused AND chain: the first pass narrows the selection
            // vector, the second tests validity through it.
            scan.clone().select(Expr::and(vec![
                Expr::col_eq_lit(1, "+"),
                Expr::cmp(CmpOp::Lt, Expr::Col(2), Expr::lit(900i64)),
            ])),
            // Projection gathers from the columns.
            scan.clone().project_cols(&[2, 0]),
            scan.clone().distinct(),
        ];
        for plan in &plans {
            let columnar = run_columnar(&db, plan);
            let materialized = execute_materialized(&db, plan).expect("materializing failed");
            // Scans, filters, projections and distinct preserve
            // heap order in both executors, so the comparison is exact,
            // not just multiset.
            assert_eq!(
                columnar, materialized,
                "n={n}: columnar vs materialized diverged on {plan:?}"
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Dictionary overflow: more distinct strings than u16 codes
// ---------------------------------------------------------------------------

#[test]
fn dictionary_past_u16_code_range_filters_correctly() {
    // 70 000 distinct strings force in-memory dictionary codes past
    // 65 535; the kernels binary-search the sorted dictionary, and the
    // spill block format stays safe because a block's private
    // dictionary never exceeds its 128 rows.
    const N: i64 = 70_000;
    let mut db = Database::new();
    let t = db
        .create_table(TableSchema::keyless("Big", &["s", "k"]))
        .unwrap();
    for i in 0..N {
        t.insert(row![format!("s{:06}", i).as_str(), i]).unwrap();
    }
    let probe = format!("s{:06}", 66_000);
    let eq = Plan::scan("Big").select(Expr::col_eq_lit(0, probe.as_str()));
    let lt = Plan::scan("Big").select(Expr::cmp(
        CmpOp::Lt,
        Expr::Col(0),
        Expr::lit(format!("s{:06}", 66_000).as_str()),
    ));
    for plan in [&eq, &lt] {
        assert_eq!(
            run_columnar(&db, plan),
            execute_materialized(&db, plan).unwrap(),
            "columnar vs materialized diverged on {plan:?}"
        );
    }
    assert_eq!(run_columnar(&db, &eq).len(), 1);
    assert_eq!(
        run_columnar(&db, &lt).len(),
        66_000,
        "lt over the wide dictionary miscounted"
    );

    // And through the spill path: deduplicating the wide-dictionary
    // table under a small budget round-trips every string through the
    // columnar run-file blocks.
    let dir = std::env::temp_dir().join(format!("beliefdb-dict-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let distinct = Plan::scan("Big").distinct();
    let spilled = run_budgeted(&db, &distinct, 64 * 1024, &dir);
    let unspilled = run_columnar(&db, &distinct);
    assert_eq!(
        sorted(spilled),
        sorted(unspilled),
        "spilled distinct changed the answer"
    );
    assert_eq!(
        std::fs::read_dir(&dir).unwrap().count(),
        0,
        "spill files left behind"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

// ---------------------------------------------------------------------------
// Selection vector × validity interaction, pinned small
// ---------------------------------------------------------------------------

#[test]
fn selection_vector_respects_validity_under_and_chains() {
    // Hand-built rows where the surviving selection after pass 1 lands
    // exactly on a mix of valid and NULL slots for pass 2.
    let mut db = Database::new();
    let t = db
        .create_table(TableSchema::keyless("M", &["a", "b"]))
        .unwrap();
    let rows = [
        (1i64, Value::int(10)),
        (1, Value::Null),
        (2, Value::int(10)),
        (1, Value::int(99)),
        (1, Value::Null),
        (1, Value::int(10)),
    ];
    for (a, b) in rows {
        t.insert(Row::new(vec![Value::int(a), b])).unwrap();
    }
    // a = 1 AND b = 10: NULL b slots survive pass 1 but must fail the
    // equality pass.
    let eq = Plan::scan("M").select(Expr::and(vec![
        Expr::col_eq_lit(0, 1i64),
        Expr::col_eq_lit(1, 10i64),
    ]));
    assert_eq!(run_columnar(&db, &eq).len(), 2);
    // a = 1 AND b < 50: NULL sorts below every int, so the NULL slots
    // *pass* the range check.
    let lt = Plan::scan("M").select(Expr::and(vec![
        Expr::col_eq_lit(0, 1i64),
        Expr::cmp(CmpOp::Lt, Expr::Col(1), Expr::lit(50i64)),
    ]));
    assert_eq!(run_columnar(&db, &lt).len(), 4);
    for plan in [&eq, &lt] {
        assert_eq!(
            run_columnar(&db, plan),
            execute_materialized(&db, plan).unwrap(),
            "columnar vs materialized diverged on {plan:?}"
        );
    }
}
