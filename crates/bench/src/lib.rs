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
//!   canonical-construction cost, and insert strategies, plus benches of
//!   the optimizer, magic sets, spill, persistence and `sys.*` scans,
//!   whose query sets and workloads live here.
//!
//! All three figures run on the paper's `Eager` store, where `V`
//! materializes every entailed tuple. Table 1 and Figure 6 also print the
//! `Lazy` store of the same annotations beside it: the curve Sect. 6.3
//! predicts but does not measure.
//!
//! The binaries `table1`, `fig6` and `table2` print paper-style reports;
//! `table2_queries` is also the oracle query set of beliefbench.

use beliefdb_core::bcq::dsl::*;
use beliefdb_core::bcq::Bcq;
use beliefdb_core::{Bdms, DefaultPolicy, Result, UserId};
use beliefdb_gen::scenarios::{fig6_series, table1_cells, table2_config};
use beliefdb_gen::{generate_bdms_with_policy, GeneratorConfig};
use std::time::{Duration, Instant};

/// One measured cell of Table 1.
#[derive(Debug, Clone)]
pub struct Table1Row {
    pub depth_label: &'static str,
    pub users: usize,
    pub zipf: bool,
    /// Mean relative overhead `|R*|/n` of the `Eager` store over the seeds.
    pub overhead: f64,
    /// Per-seed values (for dispersion reporting).
    pub samples: Vec<f64>,
    /// Mean relative overhead of the `Lazy` store of the same annotations.
    pub lazy_overhead: f64,
    /// Per-seed values of the `Lazy` store.
    pub lazy_samples: Vec<f64>,
}

/// `|R*|/n` of the store `cfg` generates under `policy`.
fn overhead_under(cfg: &GeneratorConfig, policy: DefaultPolicy) -> Result<f64> {
    let (bdms, report) = generate_bdms_with_policy(cfg, policy)?;
    debug_assert_eq!(report.accepted, cfg.annotations);
    Ok(bdms.stats().relative_overhead(cfg.annotations))
}

fn mean(samples: &[f64]) -> f64 {
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// Run the Table 1 grid: `n` annotations per database, averaging over
/// `seeds` generated databases per cell (the paper averages over 10).
pub fn run_table1(n: usize, seeds: &[u64]) -> Result<Vec<Table1Row>> {
    let mut rows: Vec<Table1Row> = Vec::new();
    for seed in seeds {
        for cell in table1_cells(n, *seed) {
            let eager = overhead_under(&cell.config, DefaultPolicy::Eager)?;
            let lazy = overhead_under(&cell.config, DefaultPolicy::Lazy)?;
            match rows.iter_mut().find(|r| {
                r.depth_label == cell.depth_label && r.users == cell.users && r.zipf == cell.zipf
            }) {
                Some(row) => {
                    row.samples.push(eager);
                    row.lazy_samples.push(lazy);
                }
                None => rows.push(Table1Row {
                    depth_label: cell.depth_label,
                    users: cell.users,
                    zipf: cell.zipf,
                    overhead: 0.0,
                    samples: vec![eager],
                    lazy_overhead: 0.0,
                    lazy_samples: vec![lazy],
                }),
            }
        }
    }
    for row in &mut rows {
        row.overhead = mean(&row.samples);
        row.lazy_overhead = mean(&row.lazy_samples);
    }
    Ok(rows)
}

/// Render Table 1 in the paper's layout, each cell as the `Eager`
/// overhead (the paper's) and the `Lazy` one beside it.
pub fn format_table1(rows: &[Table1Row], n: usize) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "Table 1: relative overhead |R*|/n for n = {n} annotations (Eager / Lazy)\n"
    ));
    out.push_str(&format!(
        "{:<22} | {:>13} | {:>13} | {:>13} | {:>13}\n",
        "Pr[d = {0,1,2}]", "m=10 Zipf", "m=10 unif", "m=100 Zipf", "m=100 unif"
    ));
    out.push_str(&"-".repeat(88));
    out.push('\n');
    for depth in [
        "[1/3, 1/3, 1/3]",
        "[0.8, 0.19, 0.01]",
        "[0.199, 0.8, 0.001]",
    ] {
        let cell = |users: usize, zipf: bool| -> String {
            rows.iter()
                .find(|r| r.depth_label == depth && r.users == users && r.zipf == zipf)
                .map(|r| format!("{:.0} / {:.2}", r.overhead, r.lazy_overhead))
                .unwrap_or_else(|| "-".into())
        };
        out.push_str(&format!(
            "{:<22} | {:>13} | {:>13} | {:>13} | {:>13}\n",
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
    /// `|R*|/n` of the `Eager` store.
    pub overhead: f64,
    /// `|R*|/n` of the `Lazy` store of the same annotations.
    pub lazy_overhead: f64,
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
            points.push(Fig6Point {
                n: cfg.annotations,
                overhead: overhead_under(&cfg, DefaultPolicy::Eager)?,
                lazy_overhead: overhead_under(&cfg, DefaultPolicy::Lazy)?,
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
        out.push_str(&format!(
            "{:>10} | {:>12} | {:>12}\n",
            "n", "|R*|/n Eager", "|R*|/n Lazy"
        ));
        for p in &s.points {
            out.push_str(&format!(
                "{:>10} | {:>12.1} | {:>12.2}\n",
                p.n, p.overhead, p.lazy_overhead
            ));
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

/// Run Table 2: build the `n`-annotation database (`Eager`, as the paper
/// measures it), execute each query `reps` times, report mean/σ latency
/// and result sizes.
pub fn run_table2(n: usize, seed: u64, reps: usize) -> Result<(Bdms, Vec<Table2Row>)> {
    let cfg = table2_config(n, seed);
    let (bdms, _) = generate_bdms_with_policy(&cfg, DefaultPolicy::Eager)?;
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
// Helpers shared with the criterion benches
// ---------------------------------------------------------------------------

/// The wide-intermediate executor workload of the `spill` bench: a fact
/// table `F` (`n` rows) joined against a fanout-4 dimension `D`, so the
/// join's intermediate is `4n` rows wide.
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

/// The spill workload plans: a distinct and the wide join — each
/// materializing O(input) without a budget.
pub fn spill_plans() -> Vec<(&'static str, beliefdb_storage::Plan)> {
    use beliefdb_storage::Plan;
    vec![
        ("distinct", Plan::scan("F").distinct()),
        ("join", Plan::scan("F").join(Plan::scan("D"), vec![(1, 0)])),
    ]
}

/// Approximate budget for a fraction of the `F` table's accounted
/// footprint (three-int rows ≈ 70 bytes in the executor's accounting).
pub fn spill_budget(n: usize, num: usize, den: usize) -> usize {
    n * 70 * num / den
}

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
/// BeliefSQL path, so the count is capped to keep set-up short at large
/// `n`) plus 64 distinct query shapes.
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

#[cfg(test)]
mod tests {
    use super::*;
    use beliefdb_gen::generate_bdms;

    #[test]
    fn table1_runs_at_small_scale() {
        let rows = run_table1(60, &[1, 2]).unwrap();
        assert_eq!(rows.len(), 12);
        for r in &rows {
            assert_eq!((r.samples.len(), r.lazy_samples.len()), (2, 2));
            assert!(r.overhead >= 1.0, "|R*| at least stores the annotations");
            assert!(r.lazy_overhead >= 1.0 && r.lazy_overhead <= r.overhead);
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
    fn arg_parsing() {
        let args: Vec<String> = vec!["--n".into(), "500".into(), "--seed".into(), "9".into()];
        assert_eq!(arg_usize(&args, "--n", 10), 500);
        assert_eq!(arg_usize(&args, "--missing", 10), 10);
        assert_eq!(arg_u64(&args, "--seed", 1), 9);
        let bad: Vec<String> = vec!["--n".into(), "xyz".into()];
        assert_eq!(arg_usize(&bad, "--n", 3), 3);
    }
}
