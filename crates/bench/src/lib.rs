//! # beliefdb-bench
//!
//! The experiment harness reproducing the paper's evaluation (Sect. 6):
//!
//! * **Table 1** — relative overhead `|R*|/n` for `n = 10,000` annotations,
//!   `m ∈ {10, 100}` users, Zipf vs. uniform participation, three depth
//!   distributions ([`run_table1`]);
//! * **Figure 6** — `|R*|/n` as a function of `n` for two depth
//!   distributions ([`run_fig6`]);
//! * **Table 2** — latency and result sizes of the seven example queries
//!   `q1,0..q1,4`, `q2`, `q3` ([`run_table2`]);
//! * ablations (criterion benches) comparing evaluation strategies,
//!   canonical-construction cost, and insert strategies.
//!
//! Binaries (`table1`, `fig6`, `table2`, `all_experiments`) print
//! paper-style reports; criterion benches wrap the same code paths.

use beliefdb_core::bcq::dsl::*;
use beliefdb_core::bcq::Bcq;
use beliefdb_core::{Bdms, Result, UserId};
use beliefdb_gen::scenarios::{fig6_series, table1_cells, table2_config};
use beliefdb_gen::{generate_bdms, GeneratorConfig};
use std::time::{Duration, Instant};

/// One measured cell of Table 1.
#[derive(Debug, Clone)]
pub struct Table1Row {
    pub depth_label: &'static str,
    pub users: usize,
    pub zipf: bool,
    /// Mean relative overhead `|R*|/n` over the seeds.
    pub overhead: f64,
    /// Per-seed values (for dispersion reporting).
    pub samples: Vec<f64>,
}

/// Run the Table 1 grid: `n` annotations per database, averaging over
/// `seeds` generated databases per cell (the paper averages over 10).
pub fn run_table1(n: usize, seeds: &[u64]) -> Result<Vec<Table1Row>> {
    let mut rows: Vec<Table1Row> = Vec::new();
    for seed in seeds {
        for cell in table1_cells(n, *seed) {
            let (bdms, report) = generate_bdms(&cell.config)?;
            debug_assert_eq!(report.accepted, n);
            let overhead = bdms.stats().relative_overhead(n);
            match rows.iter_mut().find(|r| {
                r.depth_label == cell.depth_label && r.users == cell.users && r.zipf == cell.zipf
            }) {
                Some(row) => row.samples.push(overhead),
                None => rows.push(Table1Row {
                    depth_label: cell.depth_label,
                    users: cell.users,
                    zipf: cell.zipf,
                    overhead: 0.0,
                    samples: vec![overhead],
                }),
            }
        }
    }
    for row in &mut rows {
        row.overhead = row.samples.iter().sum::<f64>() / row.samples.len() as f64;
    }
    Ok(rows)
}

/// Render Table 1 in the paper's layout.
pub fn format_table1(rows: &[Table1Row], n: usize) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "Table 1: relative overhead |R*|/n for n = {n} annotations\n"
    ));
    out.push_str(&format!(
        "{:<22} | {:>10} {:>10} | {:>10} {:>10}\n",
        "Pr[d = {0,1,2}]", "m=10 Zipf", "m=10 unif", "m=100 Zipf", "m=100 unif"
    ));
    out.push_str(&"-".repeat(70));
    out.push('\n');
    for depth in [
        "[1/3, 1/3, 1/3]",
        "[0.8, 0.19, 0.01]",
        "[0.199, 0.8, 0.001]",
    ] {
        let cell = |users: usize, zipf: bool| -> String {
            rows.iter()
                .find(|r| r.depth_label == depth && r.users == users && r.zipf == zipf)
                .map(|r| format!("{:.0}", r.overhead))
                .unwrap_or_else(|| "-".into())
        };
        out.push_str(&format!(
            "{:<22} | {:>10} {:>10} | {:>10} {:>10}\n",
            depth,
            cell(10, true),
            cell(10, false),
            cell(100, true),
            cell(100, false)
        ));
    }
    out
}

/// One point of Figure 6.
#[derive(Debug, Clone)]
pub struct Fig6Point {
    pub n: usize,
    pub overhead: f64,
}

/// One series of Figure 6.
#[derive(Debug, Clone)]
pub struct Fig6Series {
    pub label: &'static str,
    pub points: Vec<Fig6Point>,
}

/// Run the Figure 6 sweep: overhead vs. number of annotations, 100 users,
/// uniform participation, two depth distributions.
pub fn run_fig6(ns: &[usize], seed: u64) -> Result<Vec<Fig6Series>> {
    let mut out = Vec::new();
    for (label, configs) in fig6_series(ns, seed) {
        let mut points = Vec::with_capacity(configs.len());
        for cfg in configs {
            let n = cfg.annotations;
            let (bdms, _) = generate_bdms(&cfg)?;
            points.push(Fig6Point {
                n,
                overhead: bdms.stats().relative_overhead(n),
            });
        }
        out.push(Fig6Series { label, points });
    }
    Ok(out)
}

/// Render Figure 6 as a data table.
pub fn format_fig6(series: &[Fig6Series]) -> String {
    let mut out = String::new();
    out.push_str("Figure 6: relative overhead |R*|/n vs. number of annotations n\n");
    out.push_str("(100 users, uniform participation)\n\n");
    for s in series {
        out.push_str(&format!("series: {}\n", s.label));
        out.push_str(&format!("{:>10} | {:>12}\n", "n", "|R*|/n"));
        for p in &s.points {
            out.push_str(&format!("{:>10} | {:>12.1}\n", p.n, p.overhead));
        }
        out.push('\n');
    }
    out
}

/// Join-order stress queries for the optimizer ablation: two wide-open
/// subgoals share the sighting key, and the *last* subgoal pins the key
/// set down with constants. Naive body-order evaluation joins the two
/// huge temp tables first and filters late; the cost-based reorder
/// starts from the selective relation. `qj3_first` is the same query
/// with the selective subgoal written first — a sanity baseline where
/// naive order is already good.
pub fn optimizer_stress_queries(bdms: &Bdms) -> Result<Vec<(String, Bcq)>> {
    let s = bdms.schema().relation_id("S")?;
    let schema = bdms.schema();
    let wide1 = vec![qv("k"), qany(), qv("sp1"), qany(), qany()];
    let wide2 = vec![qv("k"), qany(), qv("sp2"), qany(), qany()];
    let selective = vec![qv("k"), qc("u1"), qc("species0"), qany(), qany()];

    let qj3_last = Bcq::builder(vec![qv("x"), qv("y"), qv("sp1"), qv("sp2")])
        .positive(vec![pv("x")], s, wide1.clone())
        .positive(vec![pv("y")], s, wide2.clone())
        .positive(vec![], s, selective.clone())
        .build(schema)?;
    let qj3_first = Bcq::builder(vec![qv("x"), qv("y"), qv("sp1"), qv("sp2")])
        .positive(vec![], s, selective)
        .positive(vec![pv("x")], s, wide1)
        .positive(vec![pv("y")], s, wide2)
        .build(schema)?;
    Ok(vec![
        ("qj3_last".into(), qj3_last),
        ("qj3_first".into(), qj3_first),
    ])
}

/// The seven example queries of Sect. 6.2 over the experiment schema
/// `S(sid, uid, species, date, location)`:
/// `q1,d` — content query "what does world `w` (|w| = d) believe",
/// projecting `(sid, species)`; `q2` — conflict query `2·1 S+ ∧ 2 S−`
/// (what Bob believes Alice believes but does not believe himself);
/// `q3` — user query: who disagrees with a belief of user 1 at a fixed
/// location (the query variable only occurs in the belief path of a
/// negative subgoal).
pub fn table2_queries(bdms: &Bdms) -> Result<Vec<(String, Bcq)>> {
    let s = bdms.schema().relation_id("S")?;
    let schema = bdms.schema();
    let mut queries = Vec::new();

    // q1,d for d = 0..4 with alternating constant paths ending like the
    // paper's examples (ε, 1, 2·1, 1·2·1, 2·1·2·1).
    let paths: [Vec<UserId>; 5] = [
        vec![],
        vec![UserId(1)],
        vec![UserId(2), UserId(1)],
        vec![UserId(1), UserId(2), UserId(1)],
        vec![UserId(2), UserId(1), UserId(2), UserId(1)],
    ];
    for (d, users) in paths.iter().enumerate() {
        let path = users.iter().map(|u| pu(*u)).collect::<Vec<_>>();
        let q = Bcq::builder(vec![qv("x"), qv("y")])
            .positive(path, s, vec![qv("x"), qany(), qv("y"), qany(), qany()])
            .build(schema)?;
        queries.push((format!("q1,{d}"), q));
    }

    // q2: conflicts between "Bob believes Alice believes" and "Bob believes".
    let args = vec![qv("x"), qv("z"), qv("y"), qv("u"), qv("v")];
    let q2 = Bcq::builder(vec![qv("x"), qv("y")])
        .positive(vec![pu(UserId(2)), pu(UserId(1))], s, args.clone())
        .negative(vec![pu(UserId(2))], s, args)
        .build(schema)?;
    queries.push(("q2".into(), q2));

    // q3: users disagreeing with user 1's beliefs at location 'loc0'.
    let args = vec![qv("y"), qv("z"), qv("u"), qv("v"), qc("loc0")];
    let q3 = Bcq::builder(vec![qv("x")])
        .negative(vec![pv("x")], s, args.clone())
        .positive(vec![pu(UserId(1))], s, args)
        .build(schema)?;
    queries.push(("q3".into(), q3));

    Ok(queries)
}

/// One measured query of Table 2.
#[derive(Debug, Clone)]
pub struct Table2Row {
    pub name: String,
    pub mean: Duration,
    pub stddev: Duration,
    pub result_size: usize,
}

/// Run Table 2: build the `n`-annotation database, execute each query
/// `reps` times, report mean/σ latency and result sizes.
pub fn run_table2(n: usize, seed: u64, reps: usize) -> Result<(Bdms, Vec<Table2Row>)> {
    let cfg = table2_config(n, seed);
    let (bdms, _) = generate_bdms(&cfg)?;
    let rows = run_table2_queries(&bdms, reps)?;
    Ok((bdms, rows))
}

/// Measure the Table 2 queries against an existing database.
pub fn run_table2_queries(bdms: &Bdms, reps: usize) -> Result<Vec<Table2Row>> {
    let queries = table2_queries(bdms)?;
    let mut out = Vec::with_capacity(queries.len());
    for (name, q) in queries {
        let mut samples = Vec::with_capacity(reps);
        let mut result_size = 0;
        for _ in 0..reps.max(1) {
            let start = Instant::now();
            let rows = bdms.query(&q)?;
            samples.push(start.elapsed());
            result_size = rows.len();
        }
        let mean_nanos = samples.iter().map(|d| d.as_nanos()).sum::<u128>() / samples.len() as u128;
        let var = samples
            .iter()
            .map(|d| {
                let diff = d.as_nanos() as f64 - mean_nanos as f64;
                diff * diff
            })
            .sum::<f64>()
            / samples.len() as f64;
        out.push(Table2Row {
            name,
            mean: Duration::from_nanos(mean_nanos as u64),
            stddev: Duration::from_nanos(var.sqrt() as u64),
            result_size,
        });
    }
    Ok(out)
}

/// Render Table 2 in the paper's layout.
pub fn format_table2(rows: &[Table2Row], n: usize, total_tuples: usize) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "Table 2: query latency over a belief database with {n} annotations \
         ({total_tuples} internal tuples, overhead {:.1})\n",
        total_tuples as f64 / n.max(1) as f64
    ));
    out.push_str(&format!("{:<8}", ""));
    for r in rows {
        out.push_str(&format!("{:>10}", r.name));
    }
    out.push('\n');
    out.push_str(&format!("{:<8}", "E(ms)"));
    for r in rows {
        out.push_str(&format!("{:>10.2}", r.mean.as_secs_f64() * 1e3));
    }
    out.push('\n');
    out.push_str(&format!("{:<8}", "sd(ms)"));
    for r in rows {
        out.push_str(&format!("{:>10.2}", r.stddev.as_secs_f64() * 1e3));
    }
    out.push('\n');
    out.push_str(&format!("{:<8}", "rows"));
    for r in rows {
        out.push_str(&format!("{:>10}", r.result_size));
    }
    out.push('\n');
    out
}

// ---------------------------------------------------------------------------
// Executor workload (shared by the spill and observability experiments)
// ---------------------------------------------------------------------------

/// The wide-intermediate executor workload: a fact table `F` (`n` rows)
/// joined against a fanout-4 dimension `D`, so the join's intermediate
/// is `4n` rows wide before a selective filter cuts it down.
pub fn exec_streaming_db(n: usize) -> Result<beliefdb_storage::Database> {
    use beliefdb_storage::{row, Database, TableSchema};
    let mut db = Database::new();
    let f = db.create_table(TableSchema::keyless("F", &["fid", "k", "v"]))?;
    for i in 0..n as i64 {
        f.insert(row![i, i % 50, i % 997])?;
    }
    let d = db.create_table(TableSchema::keyless("D", &["k", "tag"]))?;
    for k in 0..50i64 {
        for copy in 0..4i64 {
            d.insert(row![k, k * 4 + copy])?;
        }
    }
    Ok(db)
}

/// The measured plans: a selective scan→filter→project pipeline, the
/// wide-intermediate join, and a first-rows query where streaming's
/// short-circuiting `Limit` never runs the full join.
pub fn exec_streaming_plans() -> Vec<(&'static str, beliefdb_storage::Plan)> {
    use beliefdb_storage::{CmpOp, Expr, Plan};
    let selective = Plan::scan("F")
        .select(Expr::col_eq_lit(2, 3i64))
        .project_cols(&[0]);
    let wide_join = Plan::scan("F")
        .join(Plan::scan("D"), vec![(1, 0)])
        .select(Expr::cmp(CmpOp::Lt, Expr::Col(2), Expr::lit(5i64)))
        .project_cols(&[0, 4]);
    let first_rows = Plan::scan("F")
        .join(Plan::scan("D"), vec![(1, 0)])
        .project_cols(&[0, 4])
        .limit(100);
    vec![
        ("filter", selective),
        ("wide_join", wide_join),
        ("first_100", first_rows),
    ]
}

// ---------------------------------------------------------------------------
// Spill-to-disk materialization points
// ---------------------------------------------------------------------------

/// One measured cell of the spill comparison: a plan at a budget.
#[derive(Debug, Clone)]
pub struct SpillRow {
    pub plan: &'static str,
    /// `"inf"`, `"1/2"`, or `"1/10"` of the input volume.
    pub budget_label: &'static str,
    pub budget: Option<usize>,
    pub time: Duration,
    /// The unlimited (fully in-memory) time for the same plan.
    pub in_memory: Duration,
    pub result_size: usize,
    /// Bytes written to spill files, and files created, by one profiled
    /// run at this budget (zero without one).
    pub spill_bytes: u64,
    pub spill_partitions: u64,
}

impl SpillRow {
    /// Budgeted over in-memory time ratio (>1 means spilling costs).
    pub fn slowdown(&self) -> f64 {
        self.time.as_secs_f64() / self.in_memory.as_secs_f64().max(1e-12)
    }
}

/// The spill workload plans: a full sort, a high-cardinality aggregate,
/// a distinct, and the wide join — each materializing O(input) without
/// a budget.
pub fn spill_plans() -> Vec<(&'static str, beliefdb_storage::Plan)> {
    use beliefdb_storage::{Agg, Plan};
    vec![
        ("sort", Plan::scan("F").sort(vec![2, 0])),
        (
            "aggregate",
            Plan::Aggregate {
                input: Box::new(Plan::scan("F")),
                group_by: vec![2],
                aggs: vec![Agg::Count, Agg::Max(0)],
            },
        ),
        ("distinct", Plan::scan("F").distinct()),
        ("join", Plan::scan("F").join(Plan::scan("D"), vec![(1, 0)])),
    ]
}

/// Approximate budget for a fraction of the `F` table's accounted
/// footprint (three-int rows ≈ 70 bytes in the executor's accounting).
pub fn spill_budget(n: usize, num: usize, den: usize) -> usize {
    n * 70 * num / den
}

/// Time the spill workloads at budgets ∞, ½·input, and ⅒·input
/// (best-of-`reps`), asserting the budgeted executor agrees with the
/// in-memory one before anything is timed.
pub fn run_spill(n: usize, reps: usize) -> Result<Vec<SpillRow>> {
    use beliefdb_storage::{execute, Executor, SpillOptions};
    let db = exec_streaming_db(n)?;
    let best = |f: &dyn Fn() -> usize| -> Duration {
        let mut best = Duration::MAX;
        for _ in 0..reps.max(1) {
            let start = Instant::now();
            std::hint::black_box(f());
            best = best.min(start.elapsed());
        }
        best
    };
    let budgets: [(&'static str, Option<usize>); 3] = [
        ("inf", None),
        ("1/2", Some(spill_budget(n, 1, 2))),
        ("1/10", Some(spill_budget(n, 1, 10))),
    ];
    let run = |plan: &beliefdb_storage::Plan, budget: Option<usize>| -> usize {
        let exec = match budget {
            Some(b) => Executor::with_spill(&db, SpillOptions::with_budget(b)),
            None => Executor::new(&db),
        };
        let mut out = 0usize;
        for chunk in exec.open_chunks(plan).expect("open") {
            out += chunk.expect("chunk").len();
        }
        out
    };
    let mut rows = Vec::new();
    for (name, plan) in &spill_plans() {
        let mut reference = execute(&db, plan)?;
        reference.sort();
        // One baseline measurement per plan; every budget row compares
        // against it. The "inf" row is the same configuration but gets
        // its own independent sample — that difference is what the
        // <5%-regression guard actually measures.
        let in_memory = best(&|| run(plan, None));
        for (label, budget) in budgets {
            let mut spilled = (0, 0);
            let time = match budget {
                None => best(&|| run(plan, None)),
                Some(b) => {
                    let exec = Executor::with_spill(&db, SpillOptions::with_budget(b));
                    let (stream, profile) = exec.open_chunks_profiled(plan)?;
                    let mut got = stream.collect_rows()?;
                    got.sort();
                    assert_eq!(got, reference, "budgeted executor diverged on {name}");
                    spilled = spill_totals(profile.root());
                    best(&|| run(plan, budget))
                }
            };
            rows.push(SpillRow {
                plan: name,
                budget_label: label,
                budget,
                time,
                in_memory,
                result_size: reference.len(),
                spill_bytes: spilled.0,
                spill_partitions: spilled.1,
            });
        }
    }
    Ok(rows)
}

/// Spill bytes and spill files of an operator and everything below it.
fn spill_totals(node: &beliefdb_storage::obs::ProfNode) -> (u64, u64) {
    let mut totals = (node.spill_bytes.get(), node.spill_partitions.get());
    for child in (0..2).filter_map(|slot| node.child_at(slot)) {
        let (bytes, files) = spill_totals(&child);
        totals = (totals.0 + bytes, totals.1 + files);
    }
    totals
}

/// Render the spill comparison as a small report table.
pub fn format_spill(rows: &[SpillRow], n: usize) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "Spill-to-disk materialization points (fact table of {n} rows; \
         budgets as fractions of the input volume)\n"
    ));
    out.push_str(&format!(
        "{:<12}{:>8}{:>14}{:>14}{:>10}{:>10}\n",
        "plan", "budget", "time(ms)", "in-mem(ms)", "slowdown", "rows"
    ));
    for r in rows {
        out.push_str(&format!(
            "{:<12}{:>8}{:>14.3}{:>14.3}{:>9.2}x{:>10}\n",
            r.plan,
            r.budget_label,
            r.time.as_secs_f64() * 1e3,
            r.in_memory.as_secs_f64() * 1e3,
            r.slowdown(),
            r.result_size
        ));
    }
    out
}

// ---------------------------------------------------------------------------
// Persistence (WAL / snapshot / recovery)
// ---------------------------------------------------------------------------

/// A fresh scratch directory for durable-BDMS measurements.
pub fn persist_scratch_dir(tag: &str) -> std::path::PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static N: AtomicU64 = AtomicU64::new(0);
    std::env::temp_dir().join(format!(
        "beliefdb-bench-{tag}-{}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ))
}

/// Durability options that never auto-checkpoint — used to measure pure
/// WAL-tail replay at a controlled log length.
pub fn no_auto_checkpoint() -> beliefdb_core::PersistOptions {
    beliefdb_core::PersistOptions {
        segment_limit: 1 << 20,
        checkpoint_threshold: u64::MAX,
        sync_on_commit: false,
    }
}

/// The persistence report: append overhead vs the in-memory path on the
/// `ablation_insert` workload, recovery time as a function of WAL
/// length, and checkpoint cost.
#[derive(Debug, Clone)]
pub struct PersistReport {
    pub n: usize,
    /// Apply all `n` candidate statements to an in-memory BDMS.
    pub in_memory_insert: Duration,
    /// Same workload with write-ahead logging (fresh directory per run).
    pub durable_insert: Duration,
    /// `Bdms::open` wall time per replayed WAL length (records, time).
    pub recovery: Vec<(usize, Duration)>,
    /// `Bdms::open` when a snapshot covers everything (empty tail).
    pub snapshot_recovery: Duration,
    /// One `checkpoint()` of the fully-loaded store.
    pub checkpoint: Duration,
    /// Live WAL bytes after the full un-checkpointed run.
    pub wal_bytes_full: u64,
}

impl PersistReport {
    /// Durable over in-memory insert-time ratio (the acceptance bar is
    /// < 2×).
    pub fn append_overhead(&self) -> f64 {
        self.durable_insert.as_secs_f64() / self.in_memory_insert.as_secs_f64().max(1e-12)
    }
}

/// Run the persistence measurements: `n` candidate statements from the
/// `ablation_insert` generator (10 users, seed 42), `reps` runs each,
/// best-of to damp scheduler noise.
pub fn run_persist(n: usize, reps: usize) -> Result<PersistReport> {
    use beliefdb_gen::{experiment_schema, CandidateStream};
    let cfg = ablation_config(n, 10, 42);
    let mut stream = CandidateStream::new(&cfg);
    let stmts: Vec<beliefdb_core::BeliefStatement> =
        (0..n).map(|_| stream.next_candidate()).collect();

    let fresh_users = |bdms: &mut Bdms| {
        for i in 1..=10 {
            bdms.add_user(format!("u{i}")).expect("user");
        }
    };
    let best = |f: &mut dyn FnMut() -> usize| -> Duration {
        let mut best = Duration::MAX;
        for _ in 0..reps.max(1) {
            let start = Instant::now();
            std::hint::black_box(f());
            best = best.min(start.elapsed());
        }
        best
    };

    // Both sides time *only* the statement loop: store construction,
    // scratch-directory setup, and cleanup happen outside the clock so
    // the reported ratio isolates the WAL append cost itself.
    let mut in_memory_insert = Duration::MAX;
    for _ in 0..reps.max(1) {
        let mut bdms = Bdms::new(beliefdb_gen::experiment_schema()).expect("schema");
        fresh_users(&mut bdms);
        let start = Instant::now();
        for s in &stmts {
            let _ = bdms.insert_statement(s).expect("insert");
        }
        std::hint::black_box(bdms.stats().total_tuples);
        in_memory_insert = in_memory_insert.min(start.elapsed());
    }

    let mut durable_insert = Duration::MAX;
    for _ in 0..reps.max(1) {
        let dir = persist_scratch_dir("append");
        let mut bdms = Bdms::create_with_options(&dir, experiment_schema(), no_auto_checkpoint())
            .expect("create");
        fresh_users(&mut bdms);
        let start = Instant::now();
        for s in &stmts {
            let _ = bdms.insert_statement(s).expect("insert");
        }
        std::hint::black_box(bdms.stats().total_tuples);
        durable_insert = durable_insert.min(start.elapsed());
        drop(bdms);
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    // Recovery time vs WAL length: durable histories of growing record
    // counts, reopened cold (snapshot holds only the empty store).
    let mut recovery = Vec::new();
    let mut wal_bytes_full = 0;
    let mut full_dir = None;
    for len in [n / 4, n / 2, n] {
        if len == 0 {
            continue;
        }
        let dir = persist_scratch_dir("recover");
        let mut bdms = Bdms::create_with_options(&dir, experiment_schema(), no_auto_checkpoint())
            .expect("create");
        fresh_users(&mut bdms);
        for s in &stmts[..len] {
            let _ = bdms.insert_statement(s).expect("insert");
        }
        if len == n {
            wal_bytes_full = bdms.wal_stats().expect("durable").wal_bytes;
        }
        drop(bdms);
        let time = best(&mut || {
            Bdms::open_with_options(&dir, no_auto_checkpoint())
                .expect("open")
                .stats()
                .total_tuples
        });
        recovery.push((len + 10, time)); // +10 user records
        if len == n {
            full_dir = Some(dir);
        } else {
            std::fs::remove_dir_all(&dir).expect("cleanup");
        }
    }

    // Checkpoint cost on the full store, then snapshot-only recovery.
    let full_dir = full_dir.expect("n >= 1");
    let mut bdms = Bdms::open_with_options(&full_dir, no_auto_checkpoint()).expect("open");
    let start = Instant::now();
    bdms.checkpoint().expect("checkpoint");
    let checkpoint = start.elapsed();
    drop(bdms);
    let snapshot_recovery = best(&mut || {
        Bdms::open_with_options(&full_dir, no_auto_checkpoint())
            .expect("open")
            .stats()
            .total_tuples
    });
    std::fs::remove_dir_all(&full_dir).expect("cleanup");

    Ok(PersistReport {
        n,
        in_memory_insert,
        durable_insert,
        recovery,
        snapshot_recovery,
        checkpoint,
        wal_bytes_full,
    })
}

/// Render the persistence report.
pub fn format_persist(r: &PersistReport) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "Durability: WAL append overhead and recovery time ({} statements, 10 users)\n",
        r.n
    ));
    out.push_str(&format!(
        "  insert workload   in-memory {:>10.3}ms   durable {:>10.3}ms   overhead {:.2}x\n",
        r.in_memory_insert.as_secs_f64() * 1e3,
        r.durable_insert.as_secs_f64() * 1e3,
        r.append_overhead()
    ));
    out.push_str(&format!(
        "  live WAL after full run: {} bytes\n",
        r.wal_bytes_full
    ));
    out.push_str("  recovery (snapshot of empty store + WAL-tail replay):\n");
    for (records, time) in &r.recovery {
        out.push_str(&format!(
            "    {:>8} records {:>10.3}ms\n",
            records,
            time.as_secs_f64() * 1e3
        ));
    }
    out.push_str(&format!(
        "  checkpoint of full store: {:.3}ms; reopen from snapshot: {:.3}ms\n",
        r.checkpoint.as_secs_f64() * 1e3,
        r.snapshot_recovery.as_secs_f64() * 1e3
    ));
    out
}

// ---------------------------------------------------------------------------
// Observability overhead (BENCH_obs.json)
// ---------------------------------------------------------------------------

/// One measured workload of the observability experiment: the same plan
/// drained with obs disabled and with per-operator profiling on.
#[derive(Debug, Clone)]
pub struct ObsRow {
    pub name: &'static str,
    pub disabled: Duration,
    pub profiled: Duration,
    pub result_size: usize,
}

impl ObsRow {
    /// Profiled-over-disabled time ratio (1.0 = profiling is free).
    pub fn overhead(&self) -> f64 {
        self.profiled.as_secs_f64() / self.disabled.as_secs_f64().max(1e-12)
    }

    /// Disabled-path throughput in result rows per second.
    pub fn rows_per_sec(&self) -> f64 {
        self.result_size as f64 / self.disabled.as_secs_f64().max(1e-12)
    }
}

/// The observability experiment's output: per-workload medians plus the
/// engine metrics the run itself generated (a registry snapshot delta).
#[derive(Debug, Clone)]
pub struct ObsReport {
    pub rows: Vec<ObsRow>,
    pub metrics: Vec<(&'static str, u64)>,
}

/// The measured workloads: the executor-comparison plans plus a hash
/// join + distinct forced to spill under a ⅒-of-input budget.
pub fn obs_workloads(n: usize) -> Vec<(&'static str, beliefdb_storage::Plan, Option<usize>)> {
    let mut out: Vec<_> = exec_streaming_plans()
        .into_iter()
        .map(|(name, plan)| (name, plan, None))
        .collect();
    let spilling = beliefdb_storage::Plan::scan("F")
        .join(beliefdb_storage::Plan::scan("D"), vec![(1, 0)])
        .distinct();
    out.push(("spill_join", spilling, Some(spill_budget(n, 1, 10))));
    out
}

/// Run every obs workload (`reps` runs each, **median** — this report
/// feeds a machine-readable file, so a robust central value beats
/// best-of) with profiling off and on, asserting the profile agrees
/// with the materialized result before anything is recorded.
pub fn run_obs(n: usize, reps: usize) -> Result<ObsReport> {
    use beliefdb_storage::{metrics, Executor, SpillOptions};
    let db = exec_streaming_db(n)?;
    let before = metrics().snapshot();
    let mut rows = Vec::new();
    for (name, plan, budget) in obs_workloads(n) {
        let exec = match budget {
            Some(b) => Executor::with_spill(&db, SpillOptions::with_budget(b)),
            None => Executor::new(&db),
        };
        let drain_plain = || -> usize {
            let mut out = 0usize;
            for chunk in exec.open_chunks(&plan).expect("open") {
                out += chunk.expect("chunk").len();
            }
            out
        };
        let drain_profiled = || -> usize {
            let (stream, profile) = exec.open_chunks_profiled(&plan).expect("open profiled");
            let mut out = 0usize;
            for chunk in stream {
                out += chunk.expect("chunk").len();
            }
            assert_eq!(profile.rows_out() as usize, out, "{name}: profile drift");
            out
        };
        let size = drain_plain();
        assert_eq!(
            drain_profiled(),
            size,
            "{name}: profiling changed the result"
        );
        let median = |f: &dyn Fn() -> usize| -> Duration {
            let mut samples: Vec<Duration> = (0..reps.max(1))
                .map(|_| {
                    let start = Instant::now();
                    std::hint::black_box(f());
                    start.elapsed()
                })
                .collect();
            samples.sort_unstable();
            samples[samples.len() / 2]
        };
        let disabled = median(&drain_plain);
        let profiled = median(&drain_profiled);
        rows.push(ObsRow {
            name,
            disabled,
            profiled,
            result_size: size,
        });
    }
    let delta = metrics().snapshot().since(&before);
    Ok(ObsReport {
        rows,
        metrics: delta.counters().collect(),
    })
}

/// Render the observability report as a small table plus the metrics
/// the run generated.
pub fn format_obs(report: &ObsReport, n: usize) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "Observability overhead (fact table of {n} rows; per-workload medians)\n"
    ));
    out.push_str(&format!(
        "{:<12}{:>12}{:>14}{:>10}{:>14}{:>10}\n",
        "workload", "off(ms)", "profiled(ms)", "overhead", "rows/s", "rows"
    ));
    for r in &report.rows {
        out.push_str(&format!(
            "{:<12}{:>12.3}{:>14.3}{:>9.2}x{:>14.0}{:>10}\n",
            r.name,
            r.disabled.as_secs_f64() * 1e3,
            r.profiled.as_secs_f64() * 1e3,
            r.overhead(),
            r.rows_per_sec(),
            r.result_size
        ));
    }
    out.push_str("run-generated metrics (registry delta, nonzero):\n");
    for (name, v) in &report.metrics {
        if *v > 0 {
            out.push_str(&format!("  {name:<24} {v:>12}\n"));
        }
    }
    out
}

/// One measured query of the magic-sets comparison.
#[derive(Debug, Clone)]
pub struct OptMagicRow {
    pub name: &'static str,
    /// Best-of time with the demand-driven rewrite on (the default path).
    pub magic_on: Duration,
    /// Best-of time evaluating the raw Algorithm 1 rule stack.
    pub magic_off: Duration,
    pub result_size: usize,
}

impl OptMagicRow {
    /// Unrewritten over rewritten time ratio (>1 means magic wins).
    pub fn speedup(&self) -> f64 {
        self.magic_off.as_secs_f64() / self.magic_on.as_secs_f64().max(1e-12)
    }
}

/// The three query shapes the magic-sets rewrite is judged on, over the
/// Table 2 generator schema (`S(sid, uid, species, date, location)`).
pub fn opt_magic_queries(bdms: &Bdms) -> Result<Vec<(&'static str, Bcq)>> {
    use beliefdb_storage::CmpOp;
    let s = bdms.schema().relation_id("S")?;
    let schema = bdms.schema();
    let shared = vec![qv("k"), qv("z"), qv("u"), qv("v"), qv("w")];

    // bound_probe: who disputes what user 1 believes about sighting
    // 's0'? The key arrives as a comparison predicate, so the raw rule
    // stack materializes *every* user's beliefs about *every* sighting
    // before the final rule filters; the rewrite pins `k = 's0'` into
    // the magic seeds and both temps derive only the probed key.
    let bound = Bcq::builder(vec![qv("x")])
        .positive(vec![pu(UserId(1))], s, shared.clone())
        .negative(vec![pv("x")], s, shared.clone())
        .pred(qv("k"), CmpOp::Eq, qc("s0"))
        .build(schema)?;

    // sip_join: q2's conflict shape — no constants, but the positive
    // subgoal's bindings flow sideways into the negated temp, which
    // otherwise enumerates user 2's full belief world.
    let sip = Bcq::builder(vec![qv("k"), qv("z")])
        .positive(vec![pu(UserId(2)), pu(UserId(1))], s, shared.clone())
        .negative(vec![pu(UserId(2))], s, shared)
        .build(schema)?;

    // unbound_scan: everything free — the rewrite must be a no-op and
    // the toggle must cost nothing (within noise).
    let unbound = Bcq::builder(vec![qv("k"), qv("z")])
        .positive(
            vec![pu(UserId(1))],
            s,
            vec![qv("k"), qany(), qv("z"), qany(), qany()],
        )
        .build(schema)?;

    Ok(vec![
        ("bound_probe", bound),
        ("sip_join", sip),
        ("unbound_scan", unbound),
    ])
}

/// Time each magic-sets workload with the rewrite on and off (`reps`
/// runs, best-of) after asserting both paths agree. Each path warms its
/// own plan-cache entry first, so the timings measure evaluation, not
/// optimization.
pub fn run_opt_magic(n: usize, reps: usize) -> Result<Vec<OptMagicRow>> {
    let (mut bdms, _) = generate_bdms(&table2_config(n, 42))?;
    let queries = opt_magic_queries(&bdms)?;
    let mut out = Vec::new();
    for (name, q) in queries {
        bdms.set_magic(true);
        let on_rows = bdms.query(&q)?;
        bdms.set_magic(false);
        let off_rows = bdms.query(&q)?;
        assert_eq!(on_rows, off_rows, "magic rewrite changed answers on {name}");
        let mut best = [Duration::MAX; 2];
        for (slot, magic) in [(0usize, true), (1usize, false)] {
            bdms.set_magic(magic);
            for _ in 0..reps.max(1) {
                let start = Instant::now();
                std::hint::black_box(bdms.query(&q)?.len());
                best[slot] = best[slot].min(start.elapsed());
            }
        }
        bdms.set_magic(true);
        out.push(OptMagicRow {
            name,
            magic_on: best[0],
            magic_off: best[1],
            result_size: on_rows.len(),
        });
    }
    Ok(out)
}

/// Render the magic-sets comparison as a small report table.
pub fn format_opt_magic(rows: &[OptMagicRow], n: usize) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "Demand-driven rewrite vs raw rule stack ({n} annotations)\n"
    ));
    out.push_str(&format!(
        "{:<14}{:>12}{:>14}{:>10}{:>10}\n",
        "query", "magic(ms)", "nomagic(ms)", "speedup", "rows"
    ));
    for r in rows {
        out.push_str(&format!(
            "{:<14}{:>12.3}{:>14.3}{:>9.2}x{:>10}\n",
            r.name,
            r.magic_on.as_secs_f64() * 1e3,
            r.magic_off.as_secs_f64() * 1e3,
            r.speedup(),
            r.result_size
        ));
    }
    out
}

/// Write the machine-readable magic-sets report: `{"n", "workloads":
/// {name: {median_ns_magic, median_ns_nomagic, speedup, rows}}}`.
/// Hand-rolled JSON like the obs report — known keys, finite
/// numbers, nothing to escape.
pub fn write_bench_magic_json(
    path: &std::path::Path,
    rows: &[OptMagicRow],
    n: usize,
) -> std::io::Result<()> {
    let mut out = String::from("{\n");
    out.push_str(&format!("  \"n\": {n},\n"));
    out.push_str("  \"workloads\": {\n");
    for (i, r) in rows.iter().enumerate() {
        out.push_str(&format!(
            "    \"{}\": {{\"median_ns_magic\": {}, \"median_ns_nomagic\": {}, \
             \"speedup\": {:.4}, \"rows\": {}}}{}\n",
            r.name,
            r.magic_on.as_nanos(),
            r.magic_off.as_nanos(),
            r.speedup(),
            r.result_size,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    out.push_str("  }\n}\n");
    std::fs::write(path, out)
}

/// Write the machine-readable report: `{"n", "workloads": {name:
/// {median_ns_*, overhead, rows_per_s, rows}}, "metrics": {...}}`.
/// Hand-rolled JSON — every key is a known identifier and every value a
/// finite number, so nothing needs escaping (and the offline build
/// keeps its zero-dependency rule).
pub fn write_bench_obs_json(
    path: &std::path::Path,
    report: &ObsReport,
    n: usize,
) -> std::io::Result<()> {
    let mut out = String::from("{\n");
    out.push_str(&format!("  \"n\": {n},\n"));
    out.push_str("  \"workloads\": {\n");
    for (i, r) in report.rows.iter().enumerate() {
        out.push_str(&format!(
            "    \"{}\": {{\"median_ns_disabled\": {}, \"median_ns_profiled\": {}, \
             \"overhead\": {:.4}, \"rows_per_s\": {:.1}, \"rows\": {}}}{}\n",
            r.name,
            r.disabled.as_nanos(),
            r.profiled.as_nanos(),
            r.overhead(),
            r.rows_per_sec(),
            r.result_size,
            if i + 1 < report.rows.len() { "," } else { "" }
        ));
    }
    out.push_str("  },\n  \"metrics\": {\n");
    for (i, (name, v)) in report.metrics.iter().enumerate() {
        out.push_str(&format!(
            "    \"{name}\": {v}{}\n",
            if i + 1 < report.metrics.len() {
                ","
            } else {
                ""
            }
        ));
    }
    out.push_str("  }\n}\n");
    std::fs::write(path, out)
}

// ---------------------------------------------------------------------------
// System catalog (sys.*) scans
// ---------------------------------------------------------------------------

/// One measured `sys.*` catalog scan: a full BeliefSQL round trip
/// (parse → plan → optimize → chunked executor) through a live session.
#[derive(Debug, Clone)]
pub struct SysTableRow {
    pub name: &'static str,
    pub sql: &'static str,
    pub median: Duration,
    pub rows: usize,
}

/// The system-catalog experiment's output: per-scan medians plus the
/// fingerprint population resident when measured.
#[derive(Debug, Clone)]
pub struct SysTablesReport {
    pub rows: Vec<SysTableRow>,
    pub tracked_statements: usize,
}

/// The measured catalog scans, the acceptance query first.
pub fn obs_systables_queries() -> Vec<(&'static str, &'static str)> {
    vec![
        (
            "statements_top5",
            "select * from sys.statements order by total_time_ns desc limit 5",
        ),
        ("statements_full", "select * from sys.statements"),
        ("metrics_scan", "select * from sys.metrics"),
        (
            "tables_scan",
            "select name, rows, seq_scans from sys.tables order by rows desc",
        ),
    ]
}

/// A session whose statement store carries a realistic fingerprint
/// population: `n.min(2000)` seed inserts (inserts run the full
/// BeliefSQL path, so the count is capped to keep the harness
/// interactive at large `--n`) plus 64 distinct query shapes.
pub fn obs_systables_session(n: usize) -> beliefdb_sql::Session {
    let mut session = beliefdb_sql::Session::new(
        beliefdb_core::ExternalSchema::new().with_relation("Facts", &["k", "v"]),
    )
    .expect("session");
    for i in 0..n.min(2_000) {
        session
            .execute(&format!("insert into Facts values ('k{i}','v{}')", i % 7))
            .expect("seed insert");
    }
    for i in 0..64 {
        let sql = format!("select s{i}.k from Facts as s{i} where s{i}.v = 'v3'");
        session.query(&sql).expect("seed statement");
        if i % 3 == 0 {
            session.query(&sql).expect("seed statement");
        }
    }
    session
}

/// Run every catalog scan (`reps` runs each, median) through a seeded
/// session. Scan statements are themselves tracked while they run —
/// that is the production configuration, so it is what gets measured.
pub fn run_obs_systables(n: usize, reps: usize) -> Result<SysTablesReport> {
    let session = obs_systables_session(n);
    let tracked = beliefdb_storage::obs::statements_snapshot().len();
    let mut rows = Vec::new();
    for (name, sql) in obs_systables_queries() {
        let run = || session.query(sql).expect("sys scan").rows().len();
        let size = run();
        assert!(size > 0, "{name}: empty catalog scan");
        let mut samples: Vec<Duration> = (0..reps.max(1))
            .map(|_| {
                let start = Instant::now();
                std::hint::black_box(run());
                start.elapsed()
            })
            .collect();
        samples.sort_unstable();
        rows.push(SysTableRow {
            name,
            sql,
            median: samples[samples.len() / 2],
            rows: size,
        });
    }
    Ok(SysTablesReport {
        rows,
        tracked_statements: tracked,
    })
}

/// Render the system-catalog report as a small table.
pub fn format_obs_systables(report: &SysTablesReport, n: usize) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "System-catalog scans (fact table of {} rows, {} tracked fingerprint(s); \
         full session round trips; medians)\n",
        n.min(2_000),
        report.tracked_statements
    ));
    out.push_str(&format!(
        "{:<18}{:>12}{:>8}  {}\n",
        "scan", "median(us)", "rows", "statement"
    ));
    for r in &report.rows {
        out.push_str(&format!(
            "{:<18}{:>12.1}{:>8}  {}\n",
            r.name,
            r.median.as_secs_f64() * 1e6,
            r.rows,
            r.sql
        ));
    }
    out
}

/// Write the machine-readable report: `{"n", "tracked_statements",
/// "workloads": {name: {"median_ns", "rows"}}}`. Hand-rolled JSON like
/// the other report writers — every key is a known identifier.
pub fn write_bench_systables_json(
    path: &std::path::Path,
    report: &SysTablesReport,
    n: usize,
) -> std::io::Result<()> {
    let mut out = String::from("{\n");
    out.push_str(&format!("  \"n\": {n},\n"));
    out.push_str(&format!(
        "  \"tracked_statements\": {},\n",
        report.tracked_statements
    ));
    out.push_str("  \"workloads\": {\n");
    for (i, r) in report.rows.iter().enumerate() {
        out.push_str(&format!(
            "    \"{}\": {{\"median_ns\": {}, \"rows\": {}}}{}\n",
            r.name,
            r.median.as_nanos(),
            r.rows,
            if i + 1 < report.rows.len() { "," } else { "" }
        ));
    }
    out.push_str("  }\n}\n");
    std::fs::write(path, out)
}

/// Parse `--flag value` style arguments with defaults (tiny helper shared
/// by the experiment binaries; avoids a CLI dependency).
pub fn arg_usize(args: &[String], flag: &str, default: usize) -> usize {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// See [`arg_usize`].
pub fn arg_u64(args: &[String], flag: &str, default: u64) -> u64 {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Default generator config used by the storage/insert ablations.
pub fn ablation_config(n: usize, users: usize, seed: u64) -> GeneratorConfig {
    GeneratorConfig::new(users, n).with_seed(seed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn obs_report_covers_every_workload_and_serializes() {
        let report = run_obs(300, 2).unwrap();
        let names: Vec<_> = report.rows.iter().map(|r| r.name).collect();
        assert_eq!(
            names,
            vec!["filter", "wide_join", "first_100", "spill_join"]
        );
        assert!(report.rows.iter().all(|r| r.result_size > 0));
        let path = persist_scratch_dir("obs-json").with_extension("json");
        write_bench_obs_json(&path, &report, 300).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        for name in names {
            assert!(text.contains(&format!("\"{name}\"")), "{text}");
        }
        assert!(text.contains("\"exec.rows_scanned\""), "{text}");
        assert!(format_obs(&report, 300).contains("spill_join"));
    }

    #[test]
    fn systables_report_covers_every_scan_and_serializes() {
        let report = run_obs_systables(200, 2).unwrap();
        let names: Vec<_> = report.rows.iter().map(|r| r.name).collect();
        assert_eq!(
            names,
            vec![
                "statements_top5",
                "statements_full",
                "metrics_scan",
                "tables_scan"
            ]
        );
        assert!(report.tracked_statements >= 64);
        let top5 = &report.rows[0];
        assert_eq!(top5.rows, 5, "LIMIT 5 must cap the acceptance query");
        let path = persist_scratch_dir("systables-json").with_extension("json");
        write_bench_systables_json(&path, &report, 200).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        for name in names {
            assert!(text.contains(&format!("\"{name}\"")), "{text}");
        }
        assert!(text.contains("\"tracked_statements\""), "{text}");
        assert!(format_obs_systables(&report, 200).contains("statements_top5"));
    }

    #[test]
    fn opt_magic_report_covers_every_workload_and_serializes() {
        let rows = run_opt_magic(400, 2).unwrap();
        let names: Vec<_> = rows.iter().map(|r| r.name).collect();
        assert_eq!(names, vec!["bound_probe", "sip_join", "unbound_scan"]);
        let path = persist_scratch_dir("magic-json").with_extension("json");
        write_bench_magic_json(&path, &rows, 400).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        for name in names {
            assert!(text.contains(&format!("\"{name}\"")), "{text}");
        }
        assert!(text.contains("\"median_ns_magic\""), "{text}");
        assert!(format_opt_magic(&rows, 400).contains("bound_probe"));
    }

    #[test]
    fn table1_runs_at_small_scale() {
        let rows = run_table1(60, &[1, 2]).unwrap();
        assert_eq!(rows.len(), 12);
        for r in &rows {
            assert_eq!(r.samples.len(), 2);
            assert!(r.overhead >= 1.0, "|R*| at least stores the annotations");
        }
        let rendered = format_table1(&rows, 60);
        assert!(rendered.contains("m=100 Zipf"));
        assert!(rendered.contains("[0.8, 0.19, 0.01]"));
    }

    #[test]
    fn table1_zipf_cheaper_than_uniform_at_m100() {
        // The paper's headline shape: with many users and uniform
        // participation the overhead explodes; Zipf concentration tames it.
        let rows = run_table1(300, &[7]).unwrap();
        let get = |zipf: bool| {
            rows.iter()
                .find(|r| r.depth_label == "[1/3, 1/3, 1/3]" && r.users == 100 && r.zipf == zipf)
                .unwrap()
                .overhead
        };
        assert!(
            get(true) < get(false),
            "Zipf {} should be below uniform {}",
            get(true),
            get(false)
        );
    }

    #[test]
    fn fig6_runs_and_formats() {
        let series = run_fig6(&[20, 80], 3).unwrap();
        assert_eq!(series.len(), 2);
        for s in &series {
            assert_eq!(s.points.len(), 2);
        }
        let rendered = format_fig6(&series);
        assert!(rendered.contains("Figure 6"));
        assert!(rendered.contains("|R*|/n"));
    }

    #[test]
    fn table2_queries_cover_the_seven_shapes() {
        let cfg = beliefdb_gen::scenarios::table2_config(200, 5);
        let (bdms, _) = generate_bdms(&cfg).unwrap();
        let queries = table2_queries(&bdms).unwrap();
        assert_eq!(queries.len(), 7);
        assert_eq!(queries[0].0, "q1,0");
        assert_eq!(queries[4].0, "q1,4");
        assert_eq!(queries[5].0, "q2");
        assert_eq!(queries[6].0, "q3");
        // every query translates and runs
        for (name, q) in &queries {
            let rows = bdms.query(q);
            assert!(rows.is_ok(), "query {name} failed: {rows:?}");
        }
    }

    #[test]
    fn table2_harness_reports_rows() {
        let (bdms, rows) = run_table2(200, 5, 2).unwrap();
        assert_eq!(rows.len(), 7);
        let rendered = format_table2(&rows, 200, bdms.stats().total_tuples);
        assert!(rendered.contains("q1,0"));
        assert!(rendered.contains("E(ms)"));
        // content queries should return something on a populated database
        assert!(rows[1].result_size > 0, "q1,1 empty: {rows:?}");
    }

    #[test]
    fn spill_harness_runs_and_spills_under_a_budget() {
        let n = if cfg!(debug_assertions) {
            6_000
        } else {
            40_000
        };
        // `run_spill` itself holds every budgeted answer to the unbudgeted
        // one. What is asserted here repeats exactly; the slowdown depends
        // on the machine and the moment and is only printed.
        let rows = run_spill(n, 3).unwrap();
        assert_eq!(rows.len(), 12, "4 plans x 3 budgets");
        for r in &rows {
            assert!(r.result_size > 0, "{r:?}");
            // The sort and the distinct hold their whole input, so any
            // budget below it makes them spill; the aggregate's groups and
            // the join's build side may fit.
            let spilled = r.spill_bytes > 0 && r.spill_partitions > 0;
            match (r.plan, r.budget) {
                (_, None) => assert_eq!((r.spill_bytes, r.spill_partitions), (0, 0), "{r:?}"),
                ("sort" | "distinct", Some(_)) => assert!(spilled, "{r:?}"),
                _ => {}
            }
        }
        let rendered = format_spill(&rows, n);
        println!("{rendered}");
        assert!(rendered.contains("slowdown"));
        assert!(rendered.contains("1/10"));
    }

    #[test]
    fn persist_harness_runs_and_meets_the_overhead_bar() {
        let report = run_persist(400, 3).unwrap();
        assert_eq!(report.recovery.len(), 3);
        assert!(report.wal_bytes_full > 0);
        // Recovery work grows with WAL length (compare endpoints; the
        // times themselves are asserted only for sanity, not ordered,
        // to stay robust on noisy CI machines).
        assert!(report.recovery[0].0 < report.recovery[2].0);
        // Acceptance bar: WAL append keeps the insert workload under
        // 2x the in-memory path (best-of-3 damps scheduler noise).
        assert!(
            report.append_overhead() < 2.0,
            "durable insert overhead {}x exceeds the 2x bar",
            report.append_overhead()
        );
        let rendered = format_persist(&report);
        assert!(rendered.contains("overhead"));
        assert!(rendered.contains("records"));
        assert!(rendered.contains("checkpoint"));
    }

    #[test]
    fn arg_parsing() {
        let args: Vec<String> = vec!["--n".into(), "500".into(), "--seed".into(), "9".into()];
        assert_eq!(arg_usize(&args, "--n", 10), 500);
        assert_eq!(arg_usize(&args, "--missing", 10), 10);
        assert_eq!(arg_u64(&args, "--seed", 1), 9);
        let bad: Vec<String> = vec!["--n".into(), "xyz".into()];
        assert_eq!(arg_usize(&bad, "--n", 3), 3);
    }
}
