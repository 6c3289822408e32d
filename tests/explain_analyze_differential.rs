//! `EXPLAIN ANALYZE` differential: across fuzzed plan shapes × memory
//! budgets, the profile's actual row counts must **exactly** equal the
//! materialized result sizes — profiling is an observer, never a
//! participant. Three angles:
//!
//! 1. Fuzzed plans (selects, projects, joins, anti-joins, distincts,
//!    unions over two tables and literal `Values`) run twice per
//!    budget: once plain, once profiled; the row counts and row
//!    multisets must agree, and the profile root's `rows_out` must
//!    equal the drained count.
//! 2. Budgets of `None`, `1` byte (everything spills — grace hash
//!    joins, distinct partitions), and 64 KiB must all produce the same
//!    answers, and at least some fuzzed case must actually report
//!    spill traffic in its rendered profile.
//! 3. A stream that ends early (a consumer that stops pulling) leaves a
//!    **partial** profile that is still consistent: delivered rows match
//!    the root's `rows_out`, the operators that did run keep their
//!    counts, and the partial tree still renders.

use beliefdb::storage::opt::render_analyze;
use beliefdb::storage::{
    row, CmpOp, Database, Executor, Expr, Plan, Row, SpillOptions, StatsCatalog, TableSchema,
};

/// Small deterministic LCG so every run fuzzes the same plan space.
struct Rng(u64);

impl Rng {
    fn next_u64(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 11
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

fn database() -> Database {
    let mut db = Database::new();
    let t = db
        .create_table(TableSchema::keyless("T", &["k", "a", "b"]))
        .unwrap();
    for i in 0..3_000i64 {
        t.insert(row![i % 61, i, (i * 31) % 409]).unwrap();
    }
    let b = db
        .create_table(TableSchema::keyless("B", &["k", "tag"]))
        .unwrap();
    for i in 0..500i64 {
        b.insert(row![i % 61, i % 7]).unwrap();
    }
    db
}

fn leaf(rng: &mut Rng) -> (Plan, usize) {
    match rng.below(3) {
        0 => (Plan::scan("T"), 3),
        1 => (Plan::scan("B"), 2),
        _ => {
            let n = rng.below(4) as i64;
            let rows = (0..n)
                .map(|i| Row::from(vec![i.into(), (i * 7).into()]))
                .collect();
            (Plan::Values { arity: 2, rows }, 2)
        }
    }
}

/// Generate a random plan of the given depth, tracking output arity so
/// every column reference stays in bounds (all columns are ints, so any
/// join/anti-join key pairing is type-compatible).
fn gen_plan(rng: &mut Rng, depth: usize) -> (Plan, usize) {
    if depth == 0 {
        return leaf(rng);
    }
    match rng.below(6) {
        0 => {
            let (p, a) = gen_plan(rng, depth - 1);
            let col = rng.below(a as u64) as usize;
            let lim = rng.below(400) as i64;
            (
                p.select(Expr::cmp(CmpOp::Gt, Expr::Col(col), Expr::lit(lim))),
                a,
            )
        }
        1 => {
            let (p, a) = gen_plan(rng, depth - 1);
            let keep = 1 + rng.below(a as u64) as usize;
            let cols: Vec<usize> = (0..keep).map(|_| rng.below(a as u64) as usize).collect();
            (p.project_cols(&cols), keep)
        }
        2 => {
            let (l, la) = gen_plan(rng, depth - 1);
            let (r, ra) = gen_plan(rng, depth - 1);
            let on = vec![(rng.below(la as u64) as usize, rng.below(ra as u64) as usize)];
            (l.join(r, on), la + ra)
        }
        3 => {
            let (l, la) = gen_plan(rng, depth - 1);
            let (r, ra) = gen_plan(rng, depth - 1);
            let on = vec![(rng.below(la as u64) as usize, rng.below(ra as u64) as usize)];
            (l.anti_join(r, on), la)
        }
        4 => {
            let (p, a) = gen_plan(rng, depth - 1);
            (p.distinct(), a)
        }
        _ => {
            let (p, a) = gen_plan(rng, depth - 1);
            (
                Plan::Union {
                    inputs: vec![p.clone(), p],
                },
                a,
            )
        }
    }
}

fn executor<'a>(db: &'a Database, budget: Option<usize>, dir: &std::path::Path) -> Executor<'a> {
    match budget {
        Some(b) => Executor::with_spill(db, SpillOptions::with_budget(b).in_dir(dir)),
        None => Executor::new(db),
    }
}

#[test]
fn profiles_match_materialized_results_across_fuzzed_plans_and_budgets() {
    let dir = std::env::temp_dir().join(format!("beliefdb-ea-diff-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let db = database();
    let catalog = StatsCatalog::snapshot(&db);
    let budgets: [Option<usize>; 3] = [None, Some(1), Some(64 << 10)];
    let mut spilled_renders = 0usize;

    for seed in 0..80u64 {
        let mut rng = Rng(seed * 2 + 1);
        let (plan, _arity) = gen_plan(&mut rng, 1 + (seed % 3) as usize);
        let mut per_budget: Vec<(usize, Vec<Row>)> = Vec::new();

        for budget in budgets {
            let exec = executor(&db, budget, &dir);
            // Plain (obs disabled) materialization.
            let mut plain: Vec<Row> = Vec::new();
            for chunk in exec.open_chunks(&plan).unwrap() {
                plain.extend(chunk.unwrap().into_rows());
            }
            // Profiled materialization of the same plan.
            let (stream, profile) = exec.open_chunks_profiled(&plan).unwrap();
            let mut profiled: Vec<Row> = Vec::new();
            for chunk in stream {
                profiled.extend(chunk.unwrap().into_rows());
            }
            assert_eq!(
                plain.len(),
                profiled.len(),
                "seed {seed} budget {budget:?}: profiling changed the row count"
            );
            let mut a = plain.clone();
            let mut b = profiled.clone();
            a.sort();
            b.sort();
            assert_eq!(a, b, "seed {seed} budget {budget:?}: multiset diverged");
            // The headline invariant: actual rows in the profile ==
            // materialized result size, exactly.
            assert_eq!(
                profile.rows_out() as usize,
                profiled.len(),
                "seed {seed} budget {budget:?}: profile disagrees with result"
            );
            // The profile renders, and the root line carries actuals.
            let text = render_analyze(&db, &catalog, &plan, &profile, budget);
            assert!(
                text.lines().next().unwrap().contains("| actual "),
                "seed {seed} budget {budget:?}: no actuals in:\n{text}"
            );
            if text.contains("spill_bytes=") {
                spilled_renders += 1;
            }
            per_budget.push((profiled.len(), profiled));
        }

        // All budgets agree with each other.
        let (count0, rows0) = &per_budget[0];
        let mut want = rows0.clone();
        want.sort();
        for (count, rows) in &per_budget[1..] {
            assert_eq!(count, count0, "seed {seed}: budgets disagree on count");
            let mut got = rows.clone();
            got.sort();
            assert_eq!(got, want, "seed {seed}: budgets disagree on rows");
        }
    }

    assert!(
        spilled_renders > 0,
        "fuzz space never exercised a spilling profile"
    );
    assert_eq!(
        std::fs::read_dir(&dir).unwrap().count(),
        0,
        "spill files left behind"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn error_paths_leave_consistent_partial_profiles() {
    let db = database();
    let catalog = StatsCatalog::snapshot(&db);
    // A consumer that stops after the first chunk of a stream with more:
    // 3,000 distinct rows at a batch of 256. (The distinct keeps the
    // selection from fusing into the scan, so the partial profile has a
    // real child operator to inspect.)
    let plan =
        Plan::scan("T")
            .distinct()
            .select(Expr::cmp(CmpOp::Ge, Expr::Col(1), Expr::lit(0i64)));
    let exec = Executor::with_batch_size(&db, 256);
    let (mut stream, profile) = exec.open_chunks_profiled(&plan).unwrap();
    let delivered = stream.next().expect("a first chunk").unwrap().len();
    assert_eq!(delivered, 256, "one batch of the 3,000 rows");
    drop(stream);
    // Partial profile still balances: the root delivered exactly what
    // the consumer saw before it stopped...
    assert_eq!(profile.rows_out() as usize, delivered);
    // ...the distinct underneath keeps the rows it had already produced...
    let child = profile.root().child_at(0).expect("distinct was opened");
    assert!(
        child.rows_out.get() > 0,
        "distinct produced rows before the stop"
    );
    // ...and the partial tree renders without panicking.
    let text = render_analyze(&db, &catalog, &plan, &profile, None);
    assert!(text.contains("| actual "), "{text}");
}
