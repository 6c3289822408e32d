//! The four workloads. Every pass over a workload has the same shape:
//!
//! 1. **set-up**, [`SETUP_REPS`] times over, the last one kept (`setup_s`
//!    is the median): everything the program does before the first timed
//!    statement;
//! 2. **main loop**: the statement mix that defines the workload — a fixed
//!    number of statements, each timed on its own; the program's counters
//!    are read before and after it;
//! 3. **close and reopen**: an in-memory store is first copied into a
//!    durable directory; then `Session::open` [`REOPENS`] times, checked
//!    against the state before closing.
//!
//! Inputs come from `--seed` alone; a traced pass sends exactly the same
//! statements as an untraced one.

use crate::runner::{text, Dml, Measured, Res, Runner};
use crate::sql::{probe_sql, table2_sql, Q1_2, SELECT_NAMES};
use crate::stats::median_f64;
use crate::trace::Tracer;
use beliefdb_core::bcq::Bcq;
use beliefdb_core::persist::SnapshotData;
use beliefdb_core::{Bdms, BeliefStatement, PersistOptions, Sign, WalStats};
use beliefdb_gen::scenarios::{table1_cells, table2_config, Table1Cell};
use beliefdb_gen::{
    experiment_schema, fresh_bdms, generate_bdms, CandidateStream, GeneratorConfig,
};
use beliefdb_sql::lower::SelectLowerer;
use beliefdb_sql::{ExecResult, Session, Statement};
use beliefdb_storage::persist::{snapshot, wal};
use beliefdb_storage::{metrics, Metric, Row};
use std::path::{Path, PathBuf};
use std::time::Instant;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Table2Warm,
    Table2Churn,
    CurateDurable,
    Table1Ingest,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::Table2Warm,
        Workload::Table2Churn,
        Workload::CurateDurable,
        Workload::Table1Ingest,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Table2Warm => "table2_warm",
            Workload::Table2Churn => "table2_churn",
            Workload::CurateDurable => "curate_durable",
            Workload::Table1Ingest => "table1_ingest",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// An untraced pass sets up this often; `setup_s` is the median.
pub const SETUP_REPS: usize = 3;

/// An untraced pass reopens this often; `reopen_s` is the median.
pub const REOPENS: usize = 3;

/// Sizes of a run. Statement counts are fixed before the run starts, so
/// the program's own counters repeat exactly for a seed.
#[derive(Debug, Clone)]
pub struct Scale {
    /// Annotations per store and per Table 1 cell (the paper's `n`).
    pub n: usize,
    /// Read rounds run at set-up so plan cache and column stores are full.
    pub warmup_rounds: usize,
    /// Read rounds of `table2_warm`.
    pub warm_rounds: usize,
    /// Churn rounds of `table2_churn`.
    pub churn_rounds: usize,
    /// Curation steps of `curate_durable` after growth.
    pub curate_rounds: usize,
    /// `table2_churn` re-checks every answer against the oracle this often.
    pub check_every: usize,
}

impl Scale {
    /// Paper scale. The round counts per second were calibrated on the
    /// reference machine so that the main loop runs for about `seconds`.
    pub fn paper(seconds: u64) -> Scale {
        let s = seconds.max(1) as usize;
        Scale {
            n: 10_000,
            warmup_rounds: 20,
            warm_rounds: 60 * s,
            churn_rounds: 9 * s,
            curate_rounds: 55 * s,
            check_every: 50,
        }
    }

    /// `--quick`: every workload in a second or two (smoke test, CI).
    pub fn quick() -> Scale {
        Scale {
            n: 300,
            warmup_rounds: 2,
            warm_rounds: 30,
            churn_rounds: 6,
            curate_rounds: 20,
            check_every: 3,
        }
    }
}

/// WAL tuning of `curate_durable`: small segments and a low checkpoint
/// threshold, so rotation and auto-checkpoint happen in every main loop
/// and about ten times during growth. Commits are not fsynced (the
/// program default): rotation, checkpoint and close fsync.
pub const CURATE_OPTIONS: PersistOptions = PersistOptions {
    segment_limit: 32 << 10,
    checkpoint_threshold: 128 << 10,
    sync_on_commit: false,
};

/// Inserts of the curation step of a churn round. Insert latency spans a
/// factor of thirty with the depth of the belief path (5th to 95th
/// percentile), so its median needs the most samples, and an insert costs
/// a fortieth of a delete.
const CHURN_INSERTS: usize = 8;

/// Inserts of the curation step of `curate_durable`: insert, delete and
/// update 1:1:1, so the store stays the size growth left it at.
const CURATE_INSERTS: usize = 1;

/// The Table 1 cells in execution order. Left out: `m = 100` with depths
/// `[1/3, 1/3, 1/3]`, which take 15 s (Zipf) and 24 s (uniform) alone at
/// `n = 10,000`. The grid's first cell (`m = 10`, Zipf, `[1/3, 1/3, 1/3]`)
/// runs last: the store the main loop leaves behind is copied, reopened
/// and asked the eight SELECTs several times over, and `q3` alone costs a
/// second on a 100-user cell.
fn grid_cells(n: usize, seed: u64) -> Vec<Table1Cell> {
    let mut cells: Vec<Table1Cell> = table1_cells(n, seed)
        .into_iter()
        .filter(|c| !(c.users == 100 && c.depth_label == "[1/3, 1/3, 1/3]"))
        .collect();
    cells.rotate_left(1);
    cells
}

/// Metric-name slug of a Table 1 cell, e.g. `m100_zipf_shallow`.
pub fn cell_slug(cell: &Table1Cell) -> String {
    let depth = match cell.depth_label {
        "[1/3, 1/3, 1/3]" => "flat",
        "[0.8, 0.19, 0.01]" => "shallow",
        _ => "depth1",
    };
    let who = if cell.zipf { "zipf" } else { "uniform" };
    format!("m{}_{who}_{depth}", cell.users)
}

/// Slugs of the grid's cells, in execution order.
pub fn cell_slugs() -> Vec<String> {
    grid_cells(1, 0).iter().map(cell_slug).collect()
}

/// Result of ingesting one Table 1 cell.
#[derive(Debug, Clone)]
pub struct CellReport {
    pub slug: String,
    /// Σ latency of the cell's inserts.
    pub seconds: f64,
    pub accepted: usize,
    pub tuples: usize,
}

/// Deltas of the program's own counters over the main loop.
#[derive(Debug, Default, Clone)]
pub struct Counters {
    pub plan_cache_hits: u64,
    pub plan_cache_misses: u64,
    pub rows_scanned: u64,
    pub rows_emitted: u64,
    pub columnar_chunks: u64,
    pub pool_hits: u64,
    pub pool_misses: u64,
    pub spill_bytes: u64,
    pub wal_appends: u64,
    pub wal_syncs: u64,
    pub checkpoints: u64,
    /// `sys.tables`, summed over tables.
    pub seq_scans: u64,
    pub index_probes: u64,
    pub rows_read: u64,
    pub transpose_rebuilds: u64,
}

/// What recovery did, from the probe calls beside `Session::open`.
#[derive(Debug, Default, Clone)]
pub struct RecoverReport {
    pub snapshot_load_ms: f64,
    pub replay_ms: f64,
    pub records_replayed: u64,
}

/// Everything one pass measured.
pub struct PassReport {
    pub setup_s: f64,
    pub main: Measured,
    pub reopen_s: f64,
    pub tuples: usize,
    pub annotations: usize,
    pub worlds: usize,
    pub disk_bytes: u64,
    pub snapshot_bytes: u64,
    /// Tuples and explicit statements of the store that was closed and
    /// reopened.
    pub reopened_tuples: usize,
    pub reopened_annotations: usize,
    pub wal_segments: u64,
    pub peak_rss_mb: f64,
    pub runner: Runner,
    pub counters: Counters,
    pub inserts_attempted: u64,
    pub inserts_accepted: u64,
    pub cells: Vec<CellReport>,
    pub recover: RecoverReport,
    /// Wall time of each part of the pass, checks and bookkeeping included,
    /// and `VmHWM` when it ended.
    pub walls: Vec<(&'static str, f64, f64)>,
}

/// Wall clock of the parts of a pass, and the peak memory after each.
struct Stopwatch {
    last: Instant,
    laps: Vec<(&'static str, f64, f64)>,
}

impl Stopwatch {
    fn lap(&mut self, name: &'static str) {
        let now = Instant::now();
        let seconds = (now - self.last).as_secs_f64();
        self.laps.push((name, seconds, peak_rss_mb()));
        self.last = now;
    }
}

/// Small deterministic generator for the harness's own choices.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// Source of write statements over a store whose explicit statements it
/// keeps track of, so deletes and updates always hit.
struct Writes {
    candidates: CandidateStream,
    live: Vec<BeliefStatement>,
    rng: SplitMix64,
    updates: u64,
    attempted: u64,
    accepted: u64,
}

impl Writes {
    /// Candidates come from the same distribution as the store's content
    /// but from another stream, so some are new, some duplicates and some
    /// conflict — as new annotations do.
    fn new(cfg: &GeneratorConfig, live: Vec<BeliefStatement>) -> Writes {
        let fresh = cfg.clone().with_seed(cfg.seed ^ 0x5eed_cafe);
        Writes {
            candidates: CandidateStream::new(&fresh),
            live,
            rng: SplitMix64(cfg.seed),
            updates: 0,
            attempted: 0,
            accepted: 0,
        }
    }

    fn pick(&mut self, want: impl Fn(&BeliefStatement) -> bool) -> usize {
        loop {
            let i = (self.rng.next() % self.live.len() as u64) as usize;
            if want(&self.live[i]) {
                return i;
            }
        }
    }

    fn insert(&mut self, runner: &mut Runner, session: &mut Session) {
        let stmt = self.candidates.next_candidate();
        self.attempted += 1;
        if runner.dml(session, &Dml::Insert(stmt.clone())) {
            self.accepted += 1;
            self.live.push(stmt);
        }
    }

    fn delete(&mut self, runner: &mut Runner, session: &mut Session) {
        let i = self.pick(|_| true);
        let victim = self.live.swap_remove(i);
        runner.dml(session, &Dml::Delete(victim));
    }

    fn update(&mut self, runner: &mut Runner, session: &mut Session) {
        let i = self.pick(|s| s.sign == Sign::Pos);
        self.updates += 1;
        let target = self.live[i].clone();
        let location = format!("fix{}", self.updates);
        self.live[i].tuple.row = Dml::updated_row(&target, &location);
        runner.dml(session, &Dml::Update { target, location });
    }

    /// One curation step: new annotations, a retraction, a correction.
    fn step(&mut self, runner: &mut Runner, session: &mut Session, inserts: usize) {
        for _ in 0..inserts {
            self.insert(runner, session);
        }
        self.delete(runner, session);
        self.update(runner, session);
    }
}

/// The eight SELECTs and their oracle queries.
struct Reads {
    sql: Vec<String>,
    /// DSL-built Table 2 queries of `beliefdb-bench`, evaluated by the
    /// naive evaluator over the canonical Kripke structure.
    oracle: Vec<Bcq>,
}

impl Reads {
    fn new(bdms: &Bdms) -> Res<Reads> {
        let oracle = beliefdb_bench::table2_queries(bdms).map_err(text)?;
        Ok(Reads {
            sql: table2_sql(),
            oracle: oracle.into_iter().map(|(_, q)| q).collect(),
        })
    }

    /// One timed read round: the eight SELECTs. The probe asks for `key`,
    /// or for a sighting out of this round's `q1_2` answer. With `check`,
    /// every answer is compared row for row with the oracle (untimed).
    fn round(&self, runner: &mut Runner, session: &Session, key: Option<&str>, check: bool) {
        let mut from_answer = None;
        for (i, sql) in self.sql.iter().enumerate() {
            let rows = runner.select(session, i, sql);
            if i == Q1_2 {
                from_answer = middle_key(&rows);
            }
            if check {
                self.check(runner, session, SELECT_NAMES[i], &self.oracle[i], &rows);
            }
        }
        let Some(key) = key.map(str::to_string).or(from_answer) else {
            runner.attempted += 1;
            runner.fail("q1_2 is empty: no key to probe");
            return;
        };
        let sql = probe_sql(&key);
        let rows = runner.select(session, SELECT_NAMES.len() - 1, &sql);
        if check {
            match lowered(session.bdms(), &sql) {
                Ok(q) => self.check(runner, session, "probe", &q, &rows),
                Err(e) => runner.fail(&format!("probe oracle: {e}")),
            }
        }
    }

    fn check(&self, runner: &mut Runner, session: &Session, name: &str, q: &Bcq, rows: &[Row]) {
        match session.bdms().query_naive(q) {
            Ok(expected) if expected == rows => {}
            Ok(expected) => runner.fail(&format!(
                "{name}: {} rows, the oracle says {}",
                rows.len(),
                expected.len()
            )),
            Err(e) => runner.fail(&format!("{name}: oracle: {e}")),
        }
    }

    /// Untimed checksums of the eight answers (copy and reopen checks).
    /// With `verify`, every answer is first compared with the oracle.
    fn checksums(&self, session: &Session, mut verify: Option<&mut Runner>) -> Res<Vec<u64>> {
        let mut out = Vec::with_capacity(SELECT_NAMES.len());
        let mut answer = |name: &str, sql: &str, oracle: &Bcq| -> Res<Option<String>> {
            let result = session.query(sql).map_err(text)?;
            if let Some(runner) = verify.as_deref_mut() {
                runner.attempted += 1;
                self.check(runner, session, name, oracle, result.rows());
            }
            out.push(crate::runner::checksum(result.rows()));
            Ok(middle_key(result.rows()))
        };
        let mut key = None;
        for (i, sql) in self.sql.iter().enumerate() {
            let middle = answer(SELECT_NAMES[i], sql, &self.oracle[i])?;
            if i == Q1_2 {
                key = middle;
            }
        }
        let sql = probe_sql(&key.ok_or("q1_2 is empty: no key to probe")?);
        answer("probe", &sql, &lowered(session.bdms(), &sql)?)?;
        Ok(out)
    }
}

/// The sighting in the middle of a (sorted) `q1_2` answer: the probe's key.
fn middle_key(rows: &[Row]) -> Option<String> {
    rows.get(rows.len() / 2).map(|r| r.values()[0].to_string())
}

/// The BCQ a SELECT lowers to.
fn lowered(bdms: &Bdms, sql: &str) -> Res<Bcq> {
    let Statement::Select(sel) = beliefdb_sql::parse(sql).map_err(text)? else {
        return Err("not a SELECT".into());
    };
    let lowered = SelectLowerer::lower(bdms, &sel).map_err(text)?;
    lowered
        .query
        .ok_or_else(|| "contradictory constants".into())
}

/// Scratch directory of one pass, removed when the pass ends.
struct Scratch {
    root: PathBuf,
    next: usize,
}

impl Scratch {
    fn new(root: PathBuf) -> Res<Scratch> {
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root).map_err(text)?;
        Ok(Scratch { root, next: 0 })
    }

    /// A path no directory has yet.
    fn fresh(&mut self, tag: &str) -> PathBuf {
        self.next += 1;
        self.root.join(format!("{tag}-{}", self.next))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

fn live_statements(bdms: &Bdms) -> Res<Vec<BeliefStatement>> {
    Ok(bdms.to_belief_database().map_err(text)?.statements())
}

/// `VmHWM` of this process in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn file_sizes(dir: &Path) -> Res<u64> {
    let mut total = 0;
    for entry in std::fs::read_dir(dir).map_err(text)? {
        total += entry.map_err(text)?.metadata().map_err(text)?.len();
    }
    Ok(total)
}

/// The access counters `sys.tables` shows, summed over tables:
/// `[seq_scans, index_probes, rows_read, transpose_rebuilds]`.
fn table_counters(bdms: &Bdms) -> [u64; 4] {
    let db = bdms.storage();
    let mut sums = [0u64; 4];
    for name in db.table_names() {
        if let Ok(table) = db.table(name) {
            let [seq_scans, rows_read, index_probes, _, _, _, rebuilds] = table.access().snapshot();
            for (sum, v) in sums
                .iter_mut()
                .zip([seq_scans, index_probes, rows_read, rebuilds])
            {
                *sum += v;
            }
        }
    }
    sums
}

/// The process-wide counters [`Counters`] takes, in its field order.
const METRICS: [Metric; 8] = [
    Metric::PlanCacheHits,
    Metric::PlanCacheMisses,
    Metric::RowsScanned,
    Metric::RowsEmitted,
    Metric::ColumnarChunks,
    Metric::PoolHits,
    Metric::PoolMisses,
    Metric::SpillBytes,
];

fn metric_readings() -> [u64; 8] {
    let snapshot = metrics().snapshot();
    METRICS.map(|m| snapshot.get(m))
}

/// Counter readings when the main loop starts; `finish` takes deltas.
struct CounterWindow {
    metrics: [u64; 8],
    /// Table counters of the measured store at the start.
    tables: [u64; 4],
    /// The store's own WAL counters at the start: the process-wide ones
    /// also count the harness's probe WAL.
    wal: Option<WalStats>,
    /// Table counters of stores measured and dropped since (Table 1 cells).
    dropped: [u64; 4],
}

impl CounterWindow {
    /// Start counting on `store`, or on stores yet to be created.
    fn open(store: Option<&Bdms>) -> CounterWindow {
        CounterWindow {
            metrics: metric_readings(),
            tables: store.map_or([0; 4], table_counters),
            wal: store.and_then(Bdms::wal_stats),
            dropped: [0; 4],
        }
    }

    fn drop_store(&mut self, bdms: &Bdms) {
        for (sum, v) in self.dropped.iter_mut().zip(table_counters(bdms)) {
            *sum += v;
        }
    }

    /// Deltas up to now, on `store` and on the stores dropped since `open`.
    fn finish(self, store: Option<&Bdms>) -> Counters {
        let after = metric_readings();
        let d = |i: usize| after[i].saturating_sub(self.metrics[i]);
        let tables = store.map_or([0; 4], table_counters);
        let t = |i: usize| (tables[i] + self.dropped[i]).saturating_sub(self.tables[i]);
        let wal = |f: fn(&WalStats) -> u64| match (&self.wal, store.and_then(Bdms::wal_stats)) {
            (Some(before), Some(after)) => f(&after).saturating_sub(f(before)),
            _ => 0,
        };
        Counters {
            plan_cache_hits: d(0),
            plan_cache_misses: d(1),
            rows_scanned: d(2),
            rows_emitted: d(3),
            columnar_chunks: d(4),
            pool_hits: d(5),
            pool_misses: d(6),
            spill_bytes: d(7),
            wal_appends: wal(|w| w.next_lsn),
            wal_syncs: wal(|w| w.syncs),
            checkpoints: wal(|w| w.checkpoints),
            seq_scans: t(0),
            index_probes: t(1),
            rows_read: t(2),
            transpose_rebuilds: t(3),
        }
    }
}

/// Run `build` `reps` times, keep the last result, report the median time.
fn repeat_setup<T>(reps: usize, mut build: impl FnMut() -> Res<T>) -> Res<(T, f64)> {
    let mut times = Vec::with_capacity(reps);
    let mut kept = None;
    for _ in 0..reps.max(1) {
        drop(kept.take());
        let t0 = Instant::now();
        kept = Some(build()?);
        times.push(t0.elapsed().as_secs_f64());
    }
    Ok((kept.expect("at least one repetition"), median_f64(&times)))
}

/// Set-up of the Table 2 workloads: generate the store in memory, then
/// read rounds until the plan cache and the column stores are full.
fn setup_table2(cfg: &GeneratorConfig, warmup_rounds: usize) -> Res<Session> {
    let (bdms, _) = generate_bdms(cfg).map_err(text)?;
    let session = Session::from_bdms(bdms);
    let sql = table2_sql();
    for _ in 0..warmup_rounds {
        for q in &sql {
            session.query(q).map_err(text)?;
        }
    }
    Ok(session)
}

/// Set-up of `curate_durable`: a durable store grown, through BeliefSQL
/// inserts, to `n` accepted annotations of the Table 2 stream — the same
/// logical content as the Table 2 store, with WAL and checkpoints.
fn setup_curate(dir: &Path, cfg: &GeneratorConfig) -> Res<Session> {
    let mut bdms =
        Bdms::create_with_options(dir, experiment_schema(), CURATE_OPTIONS).map_err(text)?;
    for i in 1..=cfg.users {
        bdms.add_user(format!("u{i}")).map_err(text)?;
    }
    let mut session = Session::from_bdms(bdms);
    let mut growth = CandidateStream::new(cfg);
    let (mut attempted, mut accepted) = (0, 0);
    while accepted < cfg.annotations {
        if attempted > cfg.annotations * 50 {
            return Err("generator saturated during growth".into());
        }
        attempted += 1;
        let sql = crate::sql::insert_sql(&growth.next_candidate());
        if let ExecResult::Inserted(outcome) = session.execute(&sql).map_err(text)? {
            accepted += outcome.changed() as usize;
        }
    }
    Ok(session)
}

/// What `table1_ingest` has ready for a cell when the clock starts.
struct CellInput {
    store: Session,
    stream: CandidateStream,
    /// The first candidates of `stream`, generated at set-up.
    ready: std::vec::IntoIter<BeliefStatement>,
}

impl CellInput {
    fn next_candidate(&mut self) -> BeliefStatement {
        match self.ready.next() {
            Some(stmt) => stmt,
            None => self.stream.next_candidate(),
        }
    }
}

/// Set-up of `table1_ingest`: per cell, an empty store with its users
/// registered and the first `n` candidates of the cell's stream.
fn setup_grid(cells: &[Table1Cell], n: usize) -> Res<Vec<CellInput>> {
    cells
        .iter()
        .map(|c| {
            let store = fresh_bdms(&c.config)
                .map(Session::from_bdms)
                .map_err(text)?;
            let mut stream = CandidateStream::new(&c.config);
            let ready: Vec<BeliefStatement> = (0..n).map(|_| stream.next_candidate()).collect();
            Ok(CellInput {
                store,
                stream,
                ready: ready.into_iter(),
            })
        })
        .collect()
}

/// Copy an in-memory store into a fresh durable directory (program
/// default options) by inserting its explicit statements.
fn save_copy(session: &Session, dir: &Path) -> Res<Session> {
    let src = session.bdms();
    let mut copy = Bdms::create(dir, src.schema().clone()).map_err(text)?;
    for u in src.users() {
        copy.add_user(src.user_name(u).map_err(text)?.to_string())
            .map_err(text)?;
    }
    for stmt in live_statements(src)? {
        if !copy.insert_statement(&stmt).map_err(text)?.accepted() {
            return Err(format!("copy rejected {stmt:?}"));
        }
    }
    Ok(Session::from_bdms(copy))
}

/// One pass over a workload. With `repeat`, set-up and reopening are done
/// [`SETUP_REPS`] and [`REOPENS`] times, once otherwise (the passes of a
/// traced run, which reports neither time).
pub fn run_pass(
    workload: Workload,
    seed: u64,
    scale: &Scale,
    scratch_root: PathBuf,
    traced: bool,
    repeat: bool,
) -> Res<PassReport> {
    let (setup_reps, reopens) = if repeat {
        (SETUP_REPS, REOPENS)
    } else {
        (1, 1)
    };
    let mut scratch = Scratch::new(scratch_root)?;
    let mut runner = Runner::new(traced);
    let mut watch = Stopwatch {
        last: Instant::now(),
        laps: Vec::new(),
    };
    let table2 = table2_config(scale.n, seed);
    let mut cells = Vec::new();
    // Σ over Table 1 cells: (tuples, accepted annotations, worlds).
    let mut grid_totals = (0usize, 0usize, 0usize);

    // 1 + 2. Set-up and main loop.
    let (session, setup_s, (inserts_attempted, inserts_accepted), counters, durable_dir) =
        match workload {
            Workload::Table2Warm | Workload::Table2Churn => {
                let (mut session, setup_s) =
                    repeat_setup(setup_reps, || setup_table2(&table2, scale.warmup_rounds))?;
                let reads = Reads::new(session.bdms())?;
                // Every answer against the oracle once, before the clock starts.
                reads.checksums(&session, Some(&mut runner))?;
                let key = probe_key(&reads, &session)?;
                let window = CounterWindow::open(Some(session.bdms()));
                let mut inserts = (0, 0);
                if workload == Workload::Table2Warm {
                    for _ in 0..scale.warm_rounds {
                        reads.round(&mut runner, &session, Some(&key), false);
                    }
                } else {
                    let mut writes = Writes::new(&table2, live_statements(session.bdms())?);
                    for round in 0..scale.churn_rounds {
                        writes.step(&mut runner, &mut session, CHURN_INSERTS);
                        let check = round % scale.check_every == 0;
                        reads.round(&mut runner, &session, None, check);
                        if check && live_statements(session.bdms())?.len() != writes.live.len() {
                            runner.fail("explicit statements differ from the harness's record");
                        }
                    }
                    inserts = (writes.attempted, writes.accepted);
                }
                let counters = window.finish(Some(session.bdms()));
                (session, setup_s, inserts, counters, None)
            }
            Workload::CurateDurable => {
                let mut dirs = Vec::new();
                let (mut session, setup_s) = repeat_setup(setup_reps, || {
                    if let Some(stale) = dirs.last() {
                        let _ = std::fs::remove_dir_all(stale);
                    }
                    dirs.push(scratch.fresh("curate"));
                    setup_curate(dirs.last().expect("just pushed"), &table2)
                })?;
                let dir = dirs.pop().expect("one directory per set-up");
                runner.open_probe_wal(&scratch.fresh("probe-wal"), CURATE_OPTIONS.segment_limit)?;
                let mut writes = Writes::new(&table2, live_statements(session.bdms())?);
                let window = CounterWindow::open(Some(session.bdms()));
                for _ in 0..scale.curate_rounds {
                    writes.step(&mut runner, &mut session, CURATE_INSERTS);
                }
                let counters = window.finish(Some(session.bdms()));
                let inserts = (writes.attempted, writes.accepted);
                (session, setup_s, inserts, counters, Some(dir))
            }
            Workload::Table1Ingest => {
                let grid = grid_cells(scale.n, seed);
                let (inputs, setup_s) = repeat_setup(setup_reps, || setup_grid(&grid, scale.n))?;
                let mut window = CounterWindow::open(None);
                let (mut attempted, mut accepted_all) = (0u64, 0u64);
                // One cell in memory at a time; the last one stays to be copied
                // and reopened.
                let mut last: Option<Session> = None;
                for (cell, mut input) in grid.iter().zip(inputs) {
                    drop(last.take());
                    let before_ns = runner.timed_ns();
                    let mut accepted = 0;
                    while accepted < scale.n {
                        if attempted as usize > scale.n * 50 * grid.len() {
                            return Err(format!("generator saturated in cell {}", cell.label));
                        }
                        attempted += 1;
                        let candidate = input.next_candidate();
                        if runner.insert_direct(input.store.bdms_mut(), &candidate) {
                            accepted += 1;
                        }
                    }
                    let stats = input.store.bdms().stats();
                    cells.push(CellReport {
                        slug: cell_slug(cell),
                        seconds: (runner.timed_ns() - before_ns) as f64 / 1e9,
                        accepted,
                        tuples: stats.total_tuples,
                    });
                    grid_totals.0 += stats.total_tuples;
                    grid_totals.1 += accepted;
                    grid_totals.2 += stats.worlds;
                    accepted_all += accepted as u64;
                    window.drop_store(input.store.bdms());
                    last = Some(input.store);
                }
                let counters = window.finish(None);
                let session = last.ok_or("empty grid")?;
                (session, setup_s, (attempted, accepted_all), counters, None)
            }
        };
    // The program's counters, taken above, describe the main loop: ratios
    // such as the plan cache's hit rate mean something only for one
    // statement mix.
    let main = runner.take_phase();
    let wal_end = session.bdms().wal_stats();
    watch.lap("setup_and_main");
    let stats = session.bdms().stats();
    // Explicit statements of the store about to be closed.
    let live = live_statements(session.bdms())?.len();
    let (tuples, annotations, worlds) = if workload == Workload::Table1Ingest {
        grid_totals
    } else {
        (stats.total_tuples, live, stats.worlds)
    };

    // Memory of the workload, not of the copy the next part makes.
    let peak_rss_mb = peak_rss_mb();

    // 3. Close and reopen.
    let reads = Reads::new(session.bdms())?;
    let (dir, closing) = match durable_dir {
        Some(dir) => (dir, session),
        None => {
            let dir = scratch.fresh("copy");
            let copy = save_copy(&session, &dir)?;
            runner.attempted += 1;
            if reads.checksums(&copy, None)? != reads.checksums(&session, None)? {
                runner.fail("the durable copy answers differently from the store in memory");
            }
            drop(session);
            (dir, copy)
        }
    };
    let before_stats = closing.bdms().stats();
    // The state the run ends in, against the oracle once more.
    let before_sums = reads.checksums(&closing, Some(&mut runner))?;
    // Part of the answer sequence a traced pass must reproduce, so that a
    // main loop without SELECTs is compared too.
    runner.checksums.extend_from_slice(&before_sums);
    drop(closing);
    watch.lap("close");
    let disk_bytes = file_sizes(&dir)?;
    let mut snapshot_bytes = 0;
    for (_, path) in snapshot::list_snapshots(&dir).map_err(text)? {
        snapshot_bytes += std::fs::metadata(path).map_err(text)?.len();
    }
    let mut recover = RecoverReport::default();
    let mut reopen_times = Vec::new();
    let mut reopened = None;
    runner.attempted += 1;
    for _ in 0..reopens {
        drop(reopened.take());
        let span = match &mut runner.tracer {
            Some(tr) if reopen_times.is_empty() => {
                tr.next_statement();
                Some(tr.open("recover.open"))
            }
            _ => None,
        };
        let t0 = Instant::now();
        let session = Session::open(&dir);
        reopen_times.push(t0.elapsed().as_secs_f64());
        if let (Some(tr), Some(span)) = (&mut runner.tracer, span) {
            tr.close(span);
            recover = recover_probes(tr, span, &dir)?;
        }
        // Sizes after every reopen, all eight answers after the last.
        match session {
            Ok(s) if s.bdms().stats() != before_stats => {
                runner.fail("sizes after reopen differ from the sizes before closing");
                break;
            }
            Ok(s) => reopened = Some(s),
            Err(e) => {
                runner.fail(&format!("reopen: {e}"));
                break;
            }
        }
    }
    if let Some(s) = &reopened {
        if reads.checksums(s, None)? != before_sums {
            runner.fail("answers after reopen differ from the answers before closing");
        }
    }
    watch.lap("reopen");
    Ok(PassReport {
        setup_s,
        main,
        reopen_s: median_f64(&reopen_times),
        tuples,
        annotations,
        worlds,
        disk_bytes,
        snapshot_bytes,
        reopened_tuples: before_stats.total_tuples,
        reopened_annotations: live,
        wal_segments: wal_end.map_or(0, |w| w.segments as u64),
        peak_rss_mb,
        runner,
        counters,
        inserts_attempted,
        inserts_accepted,
        cells,
        recover,
        walls: watch.laps,
    })
}

/// The key `table2_warm` probes for in every round: a sighting out of the
/// `q1_2` answer at set-up, so the probe always hits.
fn probe_key(reads: &Reads, session: &Session) -> Res<String> {
    let result = session.query(&reads.sql[Q1_2]).map_err(text)?;
    middle_key(result.rows()).ok_or_else(|| "q1_2 is empty: no key to probe".into())
}

/// The separable steps of recovery, each run on its own after the
/// `Session::open` that `open` timed, as probe spans under it.
fn recover_probes(tr: &mut Tracer, open: u32, dir: &Path) -> Res<RecoverReport> {
    let t0 = Instant::now();
    let loaded = tr.probe("recover.snapshot_load", open, || {
        snapshot::load_latest(dir)
            .map(|l| l.map(|(hwm, payload)| (hwm, SnapshotData::decode(&payload).is_ok())))
    });
    let snapshot_load_ms = t0.elapsed().as_secs_f64() * 1e3;
    let (hwm, decoded) = loaded.map_err(text)?.ok_or("no snapshot to load")?;
    if !decoded {
        return Err("snapshot does not decode".into());
    }
    let t0 = Instant::now();
    let replay = tr.probe("recover.replay_scan", open, || {
        wal::replay_covered(dir, hwm)
    });
    let replay_ms = t0.elapsed().as_secs_f64() * 1e3;
    let records = replay.map_err(text)?.records;
    Ok(RecoverReport {
        snapshot_load_ms,
        replay_ms,
        records_replayed: records.iter().filter(|(lsn, _)| *lsn >= hwm).count() as u64,
    })
}
