//! Differential suite for the spill-to-disk materialization points
//! (`beliefdb_storage::exec::spill`): the memory-budgeted executor must
//! produce exactly the in-memory executor's results at every budget —
//! identical multisets — split mid-stream errors the same way, and leave
//! no run files behind on success, error, or early abandonment.
//!
//! Layers:
//!
//! 1. **fuzzed plans × budget ladder** — the shared `tests/common` plan
//!    generator, evaluated unlimited and at budgets {0, one row, well
//!    below input, far above input};
//! 2. **dedicated operator workloads** — grace join (partition
//!    recursion), hybrid distinct — at a just-below-input budget chosen
//!    from the actual input volume;
//! 3. **error-semantics parity** — fallible expressions error at open
//!    for eager points (a join's build side) and split lazily for the
//!    others: same Ok-row multiset, same error count, at every budget;
//! 4. **cleanup** — a dedicated spill directory is empty after success,
//!    after an error, and after dropping a half-consumed stream.

mod common;

use beliefdb::storage::{
    execute, row, Database, Executor, Expr, Plan, Row, SpillOptions, TableSchema,
};
use common::{gen_plan, plan_db, sorted};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::PathBuf;

fn temp_dir(tag: &str) -> PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static N: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "beliefdb-exec-spill-{tag}-{}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn budgeted<'a>(db: &'a Database, budget: usize, dir: &PathBuf) -> Executor<'a> {
    Executor::with_spill(db, SpillOptions::with_budget(budget).in_dir(dir))
}

/// Drain a plan under a budget into `(ok rows, error count)` — errors do
/// not stop the stream, mirroring how the differential suites pull the
/// in-memory executors past errors.
fn drain_items(
    db: &Database,
    plan: &Plan,
    budget: Option<usize>,
    dir: &PathBuf,
) -> (Vec<Row>, usize) {
    let exec = match budget {
        Some(b) => budgeted(db, b, dir),
        None => Executor::new(db),
    };
    let mut rows = Vec::new();
    let mut errors = 0;
    match exec.open_chunks(plan) {
        Err(_) => errors += 1,
        Ok(stream) => {
            for item in stream {
                match item {
                    Ok(chunk) => chunk.drain_into(&mut rows),
                    Err(_) => errors += 1,
                }
            }
        }
    }
    (rows, errors)
}

/// Budgets the fuzz layer sweeps: everything spills, a single-row
/// budget, clearly below the fuzz inputs, clearly above them.
const BUDGET_LADDER: [usize; 4] = [0, 48, 4 << 10, 64 << 20];

#[test]
fn fuzzed_plans_agree_at_every_budget() {
    let db = plan_db();
    let dir = temp_dir("fuzz");
    let mut rng = StdRng::seed_from_u64(0x5B1117);
    let mut nontrivial = 0usize;
    for case in 0..250 {
        let (plan, _) = gen_plan(&mut rng, 3);
        let reference = match execute(&db, &plan) {
            Ok(rows) => rows,
            Err(_) => continue, // error parity has its own layer below
        };
        if !reference.is_empty() {
            nontrivial += 1;
        }
        for budget in BUDGET_LADDER {
            let got = budgeted(&db, budget, &dir)
                .open_chunks(&plan)
                .expect("budgeted open failed")
                .collect_rows()
                .unwrap_or_else(|e| panic!("case {case} budget {budget}: {e}"));
            assert_eq!(
                sorted(got),
                sorted(reference.clone()),
                "case {case} budget {budget}: multiset diverged on {plan:?}"
            );
        }
    }
    assert!(
        nontrivial > 40,
        "fuzzer degenerated: {nontrivial} non-trivial"
    );
    assert_eq!(
        std::fs::read_dir(&dir).unwrap().count(),
        0,
        "spill files left behind by the fuzz sweep"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A wide table whose in-memory footprint is easy to bound from below:
/// `n` three-int rows (~72 bytes each in the budget's accounting).
fn wide_db(n: i64) -> Database {
    let mut db = Database::new();
    let t = db
        .create_table(TableSchema::keyless("T", &["k", "a", "b"]))
        .unwrap();
    for i in 0..n {
        t.insert(row![i % 97, i, (i * 31) % 613]).unwrap();
    }
    let s = db
        .create_table(TableSchema::keyless("S", &["k", "tag"]))
        .unwrap();
    for i in 0..n / 2 {
        s.insert(row![i % 97, i]).unwrap();
    }
    db
}

#[test]
fn dedicated_workloads_spill_at_just_below_input_budgets() {
    let n = 6_000i64;
    let db = wide_db(n);
    let dir = temp_dir("dedicated");
    // Roughly 70 bytes/row in the accounting: half the input volume is
    // comfortably "just below input", forcing exactly the interesting
    // one-spill regime (some rows in memory, some on disk).
    let just_below = (n as usize) * 35;
    let plans = vec![
        Plan::scan("T").distinct(),
        Plan::scan("T").join(Plan::scan("S"), vec![(0, 0)]),
    ];
    // The rows, and the bytes and run files the root operator spilled.
    let run = |exec: &Executor, plan: &Plan| {
        let (stream, profile) = exec.open_chunks_profiled(plan).unwrap();
        let rows = stream.collect_rows().unwrap();
        let root = profile.root();
        (rows, root.spill_bytes.get(), root.spill_partitions.get())
    };
    for plan in &plans {
        let reference = execute(&db, plan).unwrap();
        let (_, bytes, files) = run(&Executor::new(&db), plan);
        assert_eq!((bytes, files), (0, 0), "spilled without a budget: {plan:?}");
        for budget in [just_below, just_below / 10] {
            let (got, bytes, files) = run(&budgeted(&db, budget, &dir), plan);
            // A distinct holds its whole input, so any budget below it
            // makes it spill; the join's build side may fit.
            if matches!(plan, Plan::Distinct { .. }) {
                assert!(bytes > 0 && files > 0, "no spill at {budget}: {plan:?}");
            }
            assert_eq!(sorted(got), sorted(reference.clone()));
        }
    }
    assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 0);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn indexed_join_path_respects_the_budget_and_agrees() {
    // An equi-join whose right side is an indexed base table probes the
    // index for every left row and buffers nothing, so a budget changes
    // nothing: every budget agrees with the unlimited executor.
    let mut db = Database::new();
    let v = db
        .create_table(TableSchema::keyless("V", &["wid", "tid"]))
        .unwrap();
    v.create_index("by_wid", &["wid"]).unwrap();
    for i in 0..4_000i64 {
        v.insert(row![i % 50, i]).unwrap();
    }
    let probe = db.create_table(TableSchema::keyless("P", &["w"])).unwrap();
    for i in 0..600i64 {
        probe.insert(row![i % 50]).unwrap();
    }
    let dir = temp_dir("indexed");
    let plan = Plan::scan("P").join(Plan::scan("V"), vec![(0, 0)]);
    let reference = execute(&db, &plan).unwrap();
    assert_eq!(reference.len(), 600 * 80);
    for budget in [0usize, 1 << 10, 1 << 20] {
        let got = budgeted(&db, budget, &dir)
            .open_chunks(&plan)
            .unwrap()
            .collect_rows()
            .unwrap();
        assert_eq!(sorted(got), sorted(reference.clone()), "budget {budget}");
    }
    assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 0);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn skewed_join_keys_terminate_and_agree() {
    // Every build row shares one join key: hashing cannot split the
    // partition, so recursion must detect the skew and fall back to an
    // in-memory build of that partition instead of looping.
    let mut db = Database::new();
    let t = db.create_table(TableSchema::keyless("T", &["k"])).unwrap();
    for _ in 0..800i64 {
        t.insert(row![7]).unwrap();
    }
    let p = db
        .create_table(TableSchema::keyless("P", &["k", "x"]))
        .unwrap();
    for i in 0..40i64 {
        p.insert(row![7, i]).unwrap();
    }
    let dir = temp_dir("skew");
    let plan = Plan::scan("P").join(Plan::scan("T"), vec![(0, 0)]);
    let reference = execute(&db, &plan).unwrap();
    assert_eq!(reference.len(), 40 * 800);
    let got = budgeted(&db, 0, &dir)
        .open_chunks(&plan)
        .unwrap()
        .collect_rows()
        .unwrap();
    assert_eq!(sorted(got), sorted(reference));
    assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 0);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn error_semantics_match_at_every_budget() {
    let db = plan_db();
    let dir = temp_dir("errors");
    // A poisoned relation: selecting on a bare non-boolean column
    // errors only for the rows where it is demanded (value 1), so both
    // Ok rows and errors flow mid-stream.
    let poisoned = |n: i64| -> Plan {
        let rows: Vec<Row> = (0..n)
            .map(|i| {
                if i % 500 == 250 {
                    row![7, i]
                } else {
                    row![true, i]
                }
            })
            .collect();
        Plan::Values { arity: 2, rows }.select(Expr::Col(0))
    };
    let cases: Vec<Plan> = vec![
        // An eager materialization point (the join's build side): the
        // whole query fails at open.
        Plan::scan("E").join(poisoned(2_000), vec![(0, 1)]),
        // Lazy operators: errors split the stream.
        poisoned(2_000).distinct(),
        poisoned(2_000).join(Plan::scan("E"), vec![(1, 0)]),
        // Residual errors inside the join's probe loop: the residual is
        // a bare column that is boolean for most rows, an int for a few.
        {
            let rows: Vec<Row> = (0..2_000i64)
                .map(|i| {
                    if i % 700 == 350 {
                        row![1, i % 30]
                    } else {
                        row![true, i % 30]
                    }
                })
                .collect();
            Plan::Values { arity: 2, rows }.join_where(Plan::scan("E"), vec![(1, 0)], Expr::Col(0))
        },
    ];
    for (i, plan) in cases.iter().enumerate() {
        let (want_rows, want_errors) = drain_items(&db, plan, None, &dir);
        for budget in BUDGET_LADDER {
            let (got_rows, got_errors) = drain_items(&db, plan, Some(budget), &dir);
            assert_eq!(
                sorted(got_rows),
                sorted(want_rows.clone()),
                "case {i} budget {budget}: Ok-row multiset diverged"
            );
            assert_eq!(
                got_errors, want_errors,
                "case {i} budget {budget}: error count diverged"
            );
        }
    }
    assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 0);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn spill_files_are_cleaned_up_on_abandonment_and_error() {
    let n = 8_000i64;
    let db = wide_db(n);
    let dir = temp_dir("cleanup");
    let budget = 2 << 10;

    // Success path: exercised (and asserted) by the other tests; here
    // the two non-happy paths. First: drop a stream after one chunk.
    let plan = Plan::scan("T").join(Plan::scan("S"), vec![(0, 0)]);
    {
        let mut stream = budgeted(&db, budget, &dir).open_chunks(&plan).unwrap();
        let first = stream.next().unwrap().unwrap();
        assert!(!first.is_empty());
        assert!(
            std::fs::read_dir(&dir).unwrap().count() > 0,
            "the join did not spill"
        );
        // `stream` dropped here with partitions still queued.
    }
    assert_eq!(
        std::fs::read_dir(&dir).unwrap().count(),
        0,
        "abandoned grace join leaked run files"
    );

    // Error path: a poisoned row surfaces after spilling started.
    let rows: Vec<Row> = (0..4_000i64)
        .map(|i| if i == 3_500 { row![7] } else { row![true] })
        .collect();
    let plan = Plan::Values { arity: 1, rows }
        .select(Expr::Col(0))
        .distinct();
    let (ok_rows, errors) = drain_items(&db, &plan, Some(64), &dir);
    assert_eq!(errors, 1);
    assert_eq!(ok_rows, vec![row![true]]);
    assert_eq!(
        std::fs::read_dir(&dir).unwrap().count(),
        0,
        "errored distinct leaked run files"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}
