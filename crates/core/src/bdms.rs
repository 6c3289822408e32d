//! The Belief Database Management System facade.
//!
//! `Bdms` is the paper's prototype system: an external schema, a user
//! registry, statement-level updates (Algorithms 2–4) against the
//! materialized relational representation, and BCQ evaluation through the
//! Algorithm 1 translation. This is the type applications interact with;
//! `beliefdb-sql` layers the BeliefSQL surface syntax on top of it.

use crate::bcq::translate::{evaluate, Answer};
use crate::bcq::{self, Bcq};
use crate::canonical::CanonicalKripke;
use crate::database::BeliefDatabase;
use crate::error::{BeliefError, Result};
use crate::ids::{RelId, UserId};
use crate::internal::{DefaultPolicy, InsertOutcome, InternalStore};
use crate::path::BeliefPath;
use crate::persist::{Durability, LogRecord, PersistOptions, SnapshotData, WalStats};
use crate::schema::ExternalSchema;
use crate::statement::{BeliefStatement, GroundTuple, Sign};
use crate::world::BeliefWorld;
use beliefdb_storage::persist::PersistEngine;
use beliefdb_storage::{
    metrics, Database, MetricsSnapshot, QueryTrace, Recorder, Row, SlowLog, StorageError, Value,
};
use std::path::Path;
use std::sync::{Arc, Mutex, Weak};

/// Size report for the internal database (`|R*|` of Sect. 5.4).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SizeStats {
    /// Total internal tuples — the paper's size measure.
    pub total_tuples: usize,
    /// Per-table breakdown, sorted by table name.
    pub per_table: Vec<(String, usize)>,
    /// Number of belief worlds (states of the canonical structure).
    pub worlds: usize,
    /// Number of registered users.
    pub users: usize,
}

impl SizeStats {
    /// The relative overhead `|R*| / n` for a given annotation count.
    pub fn relative_overhead(&self, annotations: usize) -> f64 {
        if annotations == 0 {
            return 0.0;
        }
        self.total_tuples as f64 / annotations as f64
    }
}

/// Counters of the Datalog plan cache consulted by [`Bdms::query`] and
/// [`Bdms::query_streaming`], so cache behavior is observable without a
/// debugger (the shell's `\stats` prints these).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlanCacheStats {
    /// Queries served from the cache (cached answer plans or a stored
    /// answer).
    pub hits: u64,
    /// The hits the query memo answered, without translating the query.
    pub query_hits: u64,
    /// Queries that had to plan from scratch.
    pub misses: u64,
    /// Programs currently cached.
    pub entries: usize,
    /// Queries the memo maps to a cached program.
    pub queries: usize,
    /// Rows pinned inside cached plans as `Values` leaves.
    pub embedded_rows: usize,
    /// Rows of the sorted answers kept with cached plans.
    pub answer_rows: usize,
}

impl PlanCacheStats {
    /// Hits over total lookups (0.0 when nothing was looked up yet).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            return 0.0;
        }
        self.hits as f64 / total as f64
    }
}

/// A Belief Database Management System instance.
///
/// In-memory by default ([`Bdms::new`]); durable when opened over a
/// directory ([`Bdms::create`] / [`Bdms::open`]), in which case every
/// mutation is appended to a write-ahead log before it is applied and
/// snapshots bound recovery time (see `docs/persistence.md`). A durable
/// store is closed by [`Bdms::close`], or best-effort when dropped.
pub struct Bdms {
    store: InternalStore,
    /// `Arc<Mutex<_>>` so the `sys.wal` virtual table can poll WAL
    /// counters at scan time (through a `Weak`, so this is the only
    /// strong handle and close can take the engine back); mutations lock
    /// it only briefly to append.
    persist: Option<Arc<Mutex<Durability>>>,
    /// Per-query memory budget (bytes) for the chunked executor's
    /// materialization points; past it they spill to disk (grace hash
    /// join, external merge sort, partitioned distinct).
    /// `None` = unlimited.
    memory_budget: Option<usize>,
    /// Apply the magic-sets / sideways-information-passing rewrite to
    /// translated programs, so bound queries derive only demanded
    /// tuples. On by default; off evaluates the Algorithm 1 rule stack
    /// exactly as the pre-rewrite engine did.
    magic: bool,
    /// Slow-query ring buffer. Off by default (one relaxed load per
    /// query); when a threshold is set, queries run with profiling on
    /// and crossings are captured with their full span + profile trace.
    /// `Arc`-shared with the `sys.slowlog` virtual table.
    slowlog: Arc<SlowLog>,
}

impl Drop for Bdms {
    /// [`Bdms::close`], best-effort: there is no one to report an error to.
    fn drop(&mut self) {
        let _ = self.close_durable();
    }
}

impl std::fmt::Debug for Bdms {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Bdms")
            .field("users", &self.store.user_count())
            .field("worlds", &self.store.directory().len())
            .field("total_tuples", &self.store.total_tuples())
            .field("durable", &self.persist.is_some())
            .finish()
    }
}

impl Bdms {
    /// Create an in-memory BDMS over an external schema, under the
    /// default policy ([`DefaultPolicy::Lazy`]: `V` keeps the explicit
    /// statements only).
    pub fn new(schema: ExternalSchema) -> Result<Self> {
        Bdms::with_policy(schema, DefaultPolicy::default())
    }

    /// Create an in-memory BDMS that applies the default rule as `policy`
    /// says. [`DefaultPolicy::Eager`] materializes every entailed tuple in
    /// `V` — the paper's Sect. 5 representation, whose size Table 1 and
    /// Fig. 6 report. The policy is fixed for the life of the store.
    pub fn with_policy(schema: ExternalSchema, policy: DefaultPolicy) -> Result<Self> {
        let mut bdms = Bdms {
            store: InternalStore::with_policy(schema, policy)?,
            persist: None,
            memory_budget: None,
            magic: true,
            slowlog: Arc::new(SlowLog::new()),
        };
        bdms.register_system_tables();
        Ok(bdms)
    }

    /// Initialize a durable BDMS in `dir` (created if missing; must not
    /// already hold a belief database) under [`DefaultPolicy::Lazy`]. An
    /// initial snapshot is written immediately, so [`Bdms::open`] always
    /// finds the schema and the policy. The store holds `dir`'s lock
    /// until it is closed or dropped.
    pub fn create(dir: impl AsRef<Path>, schema: ExternalSchema) -> Result<Self> {
        Bdms::create_with_options(dir, schema, PersistOptions::default())
    }

    /// [`Bdms::create`] with explicit WAL segment / auto-checkpoint
    /// tuning.
    pub fn create_with_options(
        dir: impl AsRef<Path>,
        schema: ExternalSchema,
        options: PersistOptions,
    ) -> Result<Self> {
        let store = InternalStore::new(schema)?;
        let engine = PersistEngine::create(dir.as_ref(), options)?;
        let mut durability = Durability::new(engine);
        durability.checkpoint(&store)?;
        let mut bdms = Bdms {
            store,
            persist: Some(Arc::new(Mutex::new(durability))),
            memory_budget: None,
            magic: true,
            slowlog: Arc::new(SlowLog::new()),
        };
        bdms.register_system_tables();
        Ok(bdms)
    }

    /// Recover a durable BDMS from `dir`: load the latest valid
    /// snapshot, then replay the WAL tail through the normal update
    /// algorithms. A torn or corrupt log tail is truncated, never
    /// applied; everything up to the last durable record is restored
    /// exactly (wids, tids, and `SizeStats` included). Fails with
    /// [`StorageError::Locked`] while another store has `dir` open.
    pub fn open(dir: impl AsRef<Path>) -> Result<Self> {
        Bdms::open_with_options(dir, PersistOptions::default())
    }

    /// [`Bdms::open`] with explicit WAL segment / auto-checkpoint
    /// tuning.
    pub fn open_with_options(dir: impl AsRef<Path>, options: PersistOptions) -> Result<Self> {
        let recovered = PersistEngine::open(dir.as_ref(), options)?;
        let snapshot = recovered.snapshot.ok_or_else(|| {
            BeliefError::Storage(StorageError::Corrupt(format!(
                "{}: no valid snapshot — not a belief database directory?",
                dir.as_ref().display()
            )))
        })?;
        let mut store = SnapshotData::decode(&snapshot)?.restore()?;
        for payload in &recovered.tail {
            LogRecord::decode(payload)?.apply(&mut store)?;
        }
        let mut bdms = Bdms {
            store,
            persist: Some(Arc::new(Mutex::new(Durability::new(recovered.engine)))),
            memory_budget: None,
            magic: true,
            slowlog: Arc::new(SlowLog::new()),
        };
        bdms.register_system_tables();
        // Fold a long replayed tail into a snapshot now, so the *next*
        // open is fast again.
        bdms.auto_checkpoint()?;
        Ok(bdms)
    }

    /// Register the `sys.*` virtual tables in the store's catalog so
    /// they are queryable as ordinary relations. Called by every
    /// constructor (including [`Bdms::open`], so a reopened database
    /// gets fresh providers bound to *this* instance's cache/WAL/slowlog
    /// handles). Providers snapshot their source at scan time; they hold
    /// no row storage and are never WAL or mutation targets.
    fn register_system_tables(&mut self) {
        use beliefdb_storage::obs::{
            metrics_table, plan_cache_table, slowlog_table, statements_table, tables_table,
            wal_table,
        };
        let cache = self.store.plan_cache_handle();
        let slowlog = Arc::clone(&self.slowlog);
        let persist = self.persist.as_ref().map(Arc::downgrade);
        let db = self.store.database_mut();
        db.register_virtual(metrics_table());
        db.register_virtual(statements_table());
        db.register_virtual(tables_table());
        db.register_virtual(plan_cache_table(cache));
        db.register_virtual(slowlog_table(slowlog));
        db.register_virtual(wal_table(move || {
            persist
                .as_ref()
                .and_then(Weak::upgrade)
                .map(|d| d.lock().expect("durability poisoned").engine.stats())
        }));
    }

    /// Whether this BDMS writes through to a durable directory.
    pub fn is_durable(&self) -> bool {
        self.persist.is_some()
    }

    /// How this store applies the message-board default rule.
    pub fn policy(&self) -> DefaultPolicy {
        self.store.policy()
    }

    /// Bound the memory each query's materialization points (hash-join
    /// builds, sorts, distincts) may hold; past the budget they spill to
    /// disk — grace hash join, external merge sort, partitioned distinct
    /// (`beliefdb_storage::exec::spill`).
    /// `None` (the default) keeps everything in memory. Affects
    /// [`Bdms::query`], [`Bdms::query_streaming`], and EXPLAIN tags;
    /// the differential/naive paths are unaffected.
    pub fn set_memory_budget(&mut self, bytes: Option<usize>) {
        self.memory_budget = bytes;
    }

    /// The per-query memory budget in effect (`None` = unlimited).
    pub fn memory_budget(&self) -> Option<usize> {
        self.memory_budget
    }

    /// Toggle the magic-sets / SIP rewrite (on by default). With it off,
    /// [`Bdms::query`], [`Bdms::query_streaming`], and
    /// [`Bdms::explain_query`] run the unrewritten Algorithm 1 rule
    /// stack — plans, EXPLAIN output, and cache entries are byte-for-byte
    /// those of the pre-rewrite engine. The differential/naive paths
    /// never rewrite regardless.
    pub fn set_magic(&mut self, on: bool) {
        self.magic = on;
    }

    /// Whether the magic-sets rewrite is applied to queries.
    pub fn magic_enabled(&self) -> bool {
        self.magic
    }

    /// The [`EvalOptions`](bcq::translate::EvalOptions) the query paths
    /// run under (memory budget + magic toggle).
    fn eval_options(&self) -> bcq::translate::EvalOptions {
        bcq::translate::EvalOptions {
            memory_budget: self.memory_budget,
            magic: self.magic,
        }
    }

    /// Write a snapshot of the current state and truncate the WAL it
    /// covers. Returns the snapshot's high-water mark (the LSN of the
    /// next record). Errors on an in-memory BDMS, and with
    /// [`StorageError::Diverged`] once a logged mutation failed to apply.
    pub fn checkpoint(&mut self) -> Result<u64> {
        match &self.persist {
            Some(durability) => durability
                .lock()
                .expect("durability poisoned")
                .checkpoint(&self.store),
            None => Err(BeliefError::Storage(StorageError::Io(
                "checkpoint: this BDMS has no durable directory".into(),
            ))),
        }
    }

    /// WAL/snapshot counters (`None` for an in-memory BDMS).
    pub fn wal_stats(&self) -> Option<WalStats> {
        self.persist
            .as_ref()
            .map(|d| d.lock().expect("durability poisoned").engine.stats())
    }

    /// Append a validated record before applying it.
    fn log(&mut self, rec: &LogRecord) -> Result<()> {
        if let Some(durability) = &self.persist {
            durability
                .lock()
                .expect("durability poisoned")
                .append(rec)?;
        }
        Ok(())
    }

    /// Close the store. A durable one whose log has outgrown its newest
    /// snapshot is folded into one new snapshot and its log deleted, so
    /// the directory holds that snapshot alone; a smaller log is kept and
    /// replayed by the next open. Either way the directory lock is
    /// released. A store that diverged from its log (a logged mutation
    /// failed to apply) writes nothing and returns
    /// [`StorageError::Diverged`]: its log is still the truth, and the
    /// next open replays it. An in-memory store has nothing to do.
    ///
    /// Dropping a store runs the same close and ignores its error; a
    /// store dropped while its thread panics, or whose durability lock a
    /// panic poisoned, only releases the directory.
    pub fn close(mut self) -> Result<()> {
        self.close_durable()
    }

    fn close_durable(&mut self) -> Result<()> {
        let Some(shared) = self.persist.take() else {
            return Ok(());
        };
        if std::thread::panicking() {
            return Ok(());
        }
        // `persist` is the only strong handle, so the unwrap fails only
        // when a panic poisoned the lock in the middle of a mutation.
        match Arc::try_unwrap(shared).map(Mutex::into_inner) {
            Ok(Ok(durability)) => durability.close(&self.store),
            _ => Err(BeliefError::Storage(StorageError::Diverged(
                "the durability lock was poisoned by a panic; no snapshot is taken, and \
                 reopening replays the log"
                    .into(),
            ))),
        }
    }

    /// The result of applying a mutation whose record is already logged:
    /// an error leaves the store disagreeing with its log, which then
    /// blocks every snapshot of it.
    fn applied<T>(&self, result: Result<T>) -> Result<T> {
        if result.is_err() {
            if let Some(durability) = &self.persist {
                durability.lock().expect("durability poisoned").diverged = true;
            }
        }
        result
    }

    /// Checkpoint automatically once the live log passes the threshold.
    fn auto_checkpoint(&mut self) -> Result<()> {
        if let Some(durability) = &self.persist {
            let mut durability = durability.lock().expect("durability poisoned");
            if durability.engine.needs_checkpoint() {
                durability.checkpoint(&self.store)?;
            }
        }
        Ok(())
    }

    /// Create a BDMS preloaded with a logical belief database, under the
    /// default policy.
    pub fn from_belief_database(db: &BeliefDatabase) -> Result<Self> {
        let mut bdms = Bdms::new(db.schema().clone())?;
        for u in db.users() {
            bdms.add_user(db.user_name(u)?.to_string())?;
        }
        for stmt in db.statements() {
            bdms.insert_statement(&stmt)?;
        }
        Ok(bdms)
    }

    pub fn schema(&self) -> &ExternalSchema {
        self.store.schema()
    }

    /// Register a new user (Sect. 5.3). Durable instances append the
    /// registration to the WAL before applying it.
    pub fn add_user(&mut self, name: impl Into<String>) -> Result<UserId> {
        let name = name.into();
        if self.persist.is_some() {
            // Validate before logging so the record replays cleanly.
            if self.store.user_by_name(&name).is_ok() {
                return Err(BeliefError::DuplicateUser(name));
            }
            self.log(&LogRecord::AddUser(name.clone()))?;
        }
        let result = self.store.add_user(name);
        let id = self.applied(result)?;
        self.auto_checkpoint()?;
        Ok(id)
    }

    pub fn user_by_name(&self, name: &str) -> Result<UserId> {
        self.store.user_by_name(name)
    }

    pub fn user_name(&self, id: UserId) -> Result<&str> {
        self.store.user_name(id)
    }

    pub fn users(&self) -> Vec<UserId> {
        self.store.users().collect()
    }

    /// Insert a belief statement `w t^s` (Algorithm 4). Durable
    /// instances append the statement to the WAL before applying it
    /// ("append-then-apply"); outcomes — including rejection by the
    /// consistency gate — are deterministic, so replay reproduces the
    /// same state bit for bit.
    pub fn insert(
        &mut self,
        path: BeliefPath,
        rel: RelId,
        row: Row,
        sign: Sign,
    ) -> Result<InsertOutcome> {
        let stmt = BeliefStatement::new(path, GroundTuple::new(rel, row), sign);
        self.insert_statement(&stmt)
    }

    /// Insert a prebuilt statement.
    pub fn insert_statement(&mut self, stmt: &BeliefStatement) -> Result<InsertOutcome> {
        if self.persist.is_some() {
            self.store.check_statement(&stmt.path, &stmt.tuple)?;
            self.log(&LogRecord::Insert(stmt.clone()))?;
        }
        let result = self.store.insert_statement(stmt);
        let outcome = self.applied(result)?;
        self.auto_checkpoint()?;
        Ok(outcome)
    }

    /// Delete an explicit statement; returns whether it was present.
    pub fn delete(&mut self, path: BeliefPath, rel: RelId, row: Row, sign: Sign) -> Result<bool> {
        let stmt = BeliefStatement::new(path, GroundTuple::new(rel, row), sign);
        self.delete_statement(&stmt)
    }

    pub fn delete_statement(&mut self, stmt: &BeliefStatement) -> Result<bool> {
        if self.persist.is_some() {
            self.store.check_statement(&stmt.path, &stmt.tuple)?;
            self.log(&LogRecord::Delete(stmt.clone()))?;
        }
        let result = self.store.delete_statement(stmt);
        let present = self.applied(result)?;
        self.auto_checkpoint()?;
        Ok(present)
    }

    /// Update: replace an explicit positive tuple at `path` by a new tuple
    /// with the same key (the conflicting-alternative semantics of Sect. 2).
    /// If the old tuple was only implicit, the new tuple simply overrides
    /// it. Returns the outcome of the final insert. Logged as a single
    /// WAL record on durable instances, and propagated through the
    /// dependent worlds in a single walk.
    pub fn update(
        &mut self,
        path: BeliefPath,
        rel: RelId,
        old_row: Row,
        new_row: Row,
    ) -> Result<InsertOutcome> {
        let old = GroundTuple::new(rel, old_row);
        let new = GroundTuple::new(rel, new_row);
        if self.persist.is_some() {
            self.store.check_statement(&path, &old)?;
            self.store.check_statement(&path, &new)?;
            self.log(&LogRecord::Update {
                path: path.clone(),
                rel,
                old_row: old.row.clone(),
                new_row: new.row.clone(),
            })?;
        }
        let result = self.store.update(&path, &old, &new);
        let outcome = self.applied(result)?;
        // Count one logical update on the content table (the rows written
        // to `V` bumped their own counters).
        if let Ok(t) = self.store.star_of(rel) {
            t.note_update();
        }
        self.auto_checkpoint()?;
        Ok(outcome)
    }

    /// Evaluate a belief conjunctive query via the Algorithm 1 translation.
    /// Rule plans are optimized by the storage layer's cost-based optimizer.
    ///
    /// Every call bumps `query.executed` and feeds the latency histogram
    /// in the global metrics registry ([`Bdms::metrics`]). When the
    /// slow-query log is armed ([`Bdms::set_slowlog_threshold_ms`]) the
    /// query runs with profiling on and a crossing is captured with its
    /// span timings and full `EXPLAIN ANALYZE` report.
    pub fn query(&self, q: &Bcq) -> Result<Vec<Row>> {
        if self.slowlog.enabled() {
            let mut rec = Recorder::enabled(q.to_string());
            let rows = self.query_traced(q, &mut rec)?;
            if let Some(trace) = rec.finish() {
                self.slowlog.observe(trace);
            }
            Ok(rows)
        } else {
            self.query_traced(q, &mut Recorder::disabled())
        }
    }

    /// [`Bdms::query`] with caller-owned span recording: an enabled
    /// recorder gets `query_lookup` / `translate` / `cache_lookup` /
    /// `execute` / `sort` spans plus the full `EXPLAIN ANALYZE` report
    /// attached whenever plans run (a query answered from the plan cache
    /// has neither `execute` nor `sort` nor a profile, and one the query
    /// memo answers has `query_lookup` alone); a disabled recorder makes
    /// this exactly the plain query path (no profiling).
    pub fn query_traced(&self, q: &Bcq, rec: &mut Recorder) -> Result<Vec<Row>> {
        let (rows, _) = evaluate(&self.store, q, &self.eval_options(), rec, Answer::Collect)?;
        Ok(rows)
    }

    /// `EXPLAIN ANALYZE`: run the query with per-operator profiling on
    /// and return the answer rows plus the report — every operator of
    /// every answer-rule plan annotated with estimated *and* actual
    /// rows, chunks, wall time, kernel-vs-fallback filter rows, and
    /// spill traffic. Shares the plan cache with [`Bdms::query`].
    pub fn explain_analyze_query(&self, q: &Bcq) -> Result<(Vec<Row>, String)> {
        let mut rec = Recorder::disabled();
        evaluate(
            &self.store,
            q,
            &self.eval_options(),
            &mut rec,
            Answer::Analyze,
        )
    }

    /// Evaluate a BCQ, streaming answer rows into `sink` as the final
    /// Datalog rule produces them: the answer is never collected into a
    /// `Vec` (and is therefore *unsorted*, unlike [`Bdms::query`]). Rows
    /// are deduplicated. This is the path interactive consumers (the
    /// BeliefSQL shell) use to show first results before the query
    /// finishes. Counted in the metrics registry like [`Bdms::query`].
    pub fn query_streaming(&self, q: &Bcq, mut sink: impl FnMut(Row)) -> Result<()> {
        let mut rec = Recorder::disabled();
        let answer = Answer::Stream(&mut sink);
        evaluate(&self.store, q, &self.eval_options(), &mut rec, answer)?;
        Ok(())
    }

    /// Evaluate via the Algorithm 1 translation with the optimizer off:
    /// plans execute exactly as emitted (differential testing / benches).
    pub fn query_unoptimized(&self, q: &Bcq) -> Result<Vec<Row>> {
        bcq::translate::evaluate_unoptimized(&self.store, q)
    }

    /// Evaluate with the materializing (operator-at-a-time) reference
    /// executor instead of the streaming one — the reference side of the
    /// differential suites.
    pub fn query_materialized(&self, q: &Bcq) -> Result<Vec<Row>> {
        bcq::translate::evaluate_materialized(&self.store, q)
    }

    /// `EXPLAIN`: the optimized physical plan of every Datalog rule the
    /// Algorithm 1 translation produces for this query.
    pub fn explain_query(&self, q: &Bcq) -> Result<String> {
        bcq::translate::explain(&self.store, q, &self.eval_options())
    }

    /// Evaluate via the naive Def. 14 evaluator (reference semantics; used
    /// by tests and the evaluation-strategy ablation).
    pub fn query_naive(&self, q: &Bcq) -> Result<Vec<Row>> {
        let logical = self.store.to_belief_database()?;
        let mut rows = bcq::naive::evaluate(&logical, q)?;
        rows.sort();
        Ok(rows)
    }

    /// Translate a query without executing it (for inspection).
    pub fn translate(&self, q: &Bcq) -> Result<bcq::translate::TranslatedQuery> {
        bcq::translate::translate(&self.store, q)
    }

    /// World-level entailment `D |= ϕ` (Thm. 17 walk + Prop. 7 check).
    pub fn entails(&self, stmt: &BeliefStatement) -> Result<bool> {
        self.store.entails(&stmt.path, &stmt.tuple, stmt.sign)
    }

    /// Materialize the entailed belief world at a path.
    pub fn world(&self, path: &BeliefPath) -> Result<BeliefWorld> {
        self.store.world(path)
    }

    /// The positive tuples of `rel` with external key `key` in the entailed
    /// world at a path: [`Bdms::world`] restricted to one key, found
    /// through one index probe instead of materializing the world.
    pub fn believed_at(
        &self,
        path: &BeliefPath,
        rel: RelId,
        key: &Value,
    ) -> Result<Vec<GroundTuple>> {
        self.store.believed_at(path, rel, key)
    }

    /// The explicit statements recorded at a path.
    pub fn explicit_statements_at(&self, path: &BeliefPath) -> Result<Vec<BeliefStatement>> {
        self.store.explicit_statements_at(path)
    }

    /// The explicit statements recorded at a path about tuples of `rel`
    /// with external key `key`: [`Bdms::explicit_statements_at`] restricted
    /// to one key, found through one index probe instead of listing the
    /// world.
    pub fn explicit_at(
        &self,
        path: &BeliefPath,
        rel: RelId,
        key: &Value,
    ) -> Result<Vec<BeliefStatement>> {
        self.store.explicit_at(path, rel, key)
    }

    /// Snapshot of the Datalog plan-cache counters (hits, query hits,
    /// misses, cached programs, memoized queries, embedded rows, answer
    /// rows). Takes the cache lock
    /// briefly.
    pub fn plan_cache_stats(&self) -> PlanCacheStats {
        self.store.with_plan_cache(|cache| PlanCacheStats {
            hits: cache.hits(),
            query_hits: cache.query_hits(),
            misses: cache.misses(),
            queries: cache.query_count(),
            entries: cache.len(),
            embedded_rows: cache.embedded_row_count(),
            answer_rows: cache.answer_row_count(),
        })
    }

    /// Snapshot of the process-wide metrics registry: query counts and
    /// latency quantiles, plan-cache hits/misses, WAL appends/syncs/
    /// checkpoints, spill run files, buffer-pool recycling, rows
    /// scanned/emitted, slow-query captures. Counters are cumulative
    /// since process start; diff two snapshots with
    /// [`MetricsSnapshot::since`] for per-session deltas.
    pub fn metrics(&self) -> MetricsSnapshot {
        metrics().snapshot()
    }

    /// Arm (or disarm, with `None`) the slow-query log: queries whose
    /// total wall time crosses the threshold are captured with span
    /// timings and their full `EXPLAIN ANALYZE` report. A threshold of
    /// 0 ms captures every query. While armed, queries run with
    /// profiling on.
    pub fn set_slowlog_threshold_ms(&self, ms: Option<u64>) {
        self.slowlog.set_threshold_ms(ms);
    }

    /// The slow-query capture threshold in ms (`None` = off).
    pub fn slowlog_threshold_ms(&self) -> Option<u64> {
        self.slowlog.threshold_ms()
    }

    /// Captured slow queries, oldest first (bounded ring).
    pub fn slowlog_entries(&self) -> Vec<QueryTrace> {
        self.slowlog.entries()
    }

    /// Drop all captured slow queries (the threshold is unchanged).
    pub fn clear_slowlog(&self) {
        self.slowlog.clear();
    }

    /// The slow-query log itself — callers running their own
    /// [`Recorder`] (the BeliefSQL session does) hand finished traces to
    /// [`SlowLog::observe`] through this.
    pub fn slowlog(&self) -> &SlowLog {
        &self.slowlog
    }

    /// Size statistics (`|R*|`, Sect. 5.4 / Sect. 6.1).
    pub fn stats(&self) -> SizeStats {
        SizeStats {
            total_tuples: self.store.total_tuples(),
            per_table: self.store.table_sizes(),
            worlds: self.store.directory().len(),
            users: self.store.user_count(),
        }
    }

    /// Read-only access to the internal relational database.
    pub fn storage(&self) -> &Database {
        self.store.database()
    }

    /// Read-only access to the internal store (advanced / benches).
    pub fn internal(&self) -> &InternalStore {
        &self.store
    }

    /// Extract the logical belief database (explicit statements).
    pub fn to_belief_database(&self) -> Result<BeliefDatabase> {
        self.store.to_belief_database()
    }

    /// Build the in-memory canonical Kripke structure for the current
    /// contents (Def. 16) — the logical counterpart of what the store
    /// materializes relationally.
    pub fn canonical_kripke(&self) -> Result<CanonicalKripke> {
        Ok(CanonicalKripke::build(&self.to_belief_database()?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bcq::dsl::*;
    use crate::database::running_example;
    use crate::path::path;
    use beliefdb_storage::{row, Metric};

    fn running_bdms() -> (Bdms, UserId, UserId, UserId) {
        let (db, a, b, c) = running_example();
        (Bdms::from_belief_database(&db).unwrap(), a, b, c)
    }

    #[test]
    fn from_belief_database_round_trips() {
        let (db, ..) = running_example();
        let bdms = Bdms::from_belief_database(&db).unwrap();
        let back = bdms.to_belief_database().unwrap();
        assert_eq!(back.statements(), db.statements());
        assert_eq!(back.user_count(), 3);
    }

    #[test]
    fn store_worlds_match_closure_worlds() {
        // The central differential test: every state's V-slice equals the
        // closure's entailed world.
        let (bdms, ..) = running_bdms();
        let logical = bdms.to_belief_database().unwrap();
        let mut closure = crate::closure::Closure::new(&logical);
        for p in logical.states() {
            let materialized = bdms.world(&p).unwrap();
            let reference = closure.entailed_world(&p).clone();
            assert_eq!(materialized, reference, "world mismatch at {p}");
        }
    }

    #[test]
    fn queries_q1_and_q2_of_sect2() {
        let (bdms, alice, bob, _) = running_bdms();
        let s = bdms.schema().relation_id("Sightings").unwrap();
        // q1: sightings believed by Bob.
        let q1 = Bcq::builder(vec![qv("sid"), qv("uid"), qv("species")])
            .positive(
                vec![pu(bob)],
                s,
                vec![qv("sid"), qv("uid"), qv("species"), qany(), qany()],
            )
            .build(bdms.schema())
            .unwrap();
        assert_eq!(bdms.query(&q1).unwrap(), vec![row!["s2", "Alice", "raven"]]);

        // q2: entries on which users disagree with what Alice believes.
        let q2 = Bcq::builder(vec![qv("u2"), qv("sp1"), qv("sp2")])
            .positive(
                vec![pu(alice)],
                s,
                vec![qv("sid"), qany(), qv("sp1"), qany(), qany()],
            )
            .positive(
                vec![pv("u2")],
                s,
                vec![qv("sid"), qany(), qv("sp2"), qany(), qany()],
            )
            .pred(qv("sp1"), beliefdb_storage::CmpOp::Ne, qv("sp2"))
            .build(bdms.schema())
            .unwrap();
        assert_eq!(bdms.query(&q2).unwrap(), vec![row![2, "crow", "raven"]]);
    }

    #[test]
    fn translated_matches_naive_on_running_example() {
        let (bdms, alice, bob, _) = running_bdms();
        let s = bdms.schema().relation_id("Sightings").unwrap();
        let args = vec![qv("y"), qv("z"), qv("u"), qv("v"), qv("w")];
        let queries = vec![
            Bcq::builder(vec![qv("x")])
                .negative(vec![pv("x")], s, args.clone())
                .positive(vec![pu(alice)], s, args.clone())
                .build(bdms.schema())
                .unwrap(),
            Bcq::builder(vec![qv("y"), qv("u")])
                .positive(vec![pu(bob), pu(alice)], s, args.clone())
                .build(bdms.schema())
                .unwrap(),
        ];
        for q in queries {
            assert_eq!(
                bdms.query(&q).unwrap(),
                bdms.query_naive(&q).unwrap(),
                "on {q}"
            );
        }
    }

    #[test]
    fn update_replaces_tuple() {
        let (mut bdms, _, bob, _) = running_bdms();
        let s = bdms.schema().relation_id("Sightings").unwrap();
        // Bob revises raven → heron.
        let outcome = bdms
            .update(
                BeliefPath::user(bob),
                s,
                row!["s2", "Alice", "raven", "6-14-08", "Lake Placid"],
                row!["s2", "Alice", "heron", "6-14-08", "Lake Placid"],
            )
            .unwrap();
        assert_eq!(outcome, InsertOutcome::Inserted);
        let heron = GroundTuple::new(s, row!["s2", "Alice", "heron", "6-14-08", "Lake Placid"]);
        let raven = GroundTuple::new(s, row!["s2", "Alice", "raven", "6-14-08", "Lake Placid"]);
        assert!(bdms
            .entails(&BeliefStatement::positive(BeliefPath::user(bob), heron))
            .unwrap());
        assert!(bdms
            .entails(&BeliefStatement::negative(BeliefPath::user(bob), raven))
            .unwrap());
    }

    #[test]
    fn query_streaming_matches_collected_query() {
        let (bdms, alice, _, _) = running_bdms();
        let s = bdms.schema().relation_id("Sightings").unwrap();
        let args = vec![qv("y"), qv("z"), qv("u"), qv("v"), qv("w")];
        let q = Bcq::builder(vec![qv("x")])
            .negative(vec![pv("x")], s, args.clone())
            .positive(vec![pu(alice)], s, args)
            .build(bdms.schema())
            .unwrap();
        let mut streamed = Vec::new();
        bdms.query_streaming(&q, |row| streamed.push(row)).unwrap();
        streamed.sort();
        assert_eq!(streamed, bdms.query(&q).unwrap());
    }

    #[test]
    fn query_materialized_matches_streaming_executor() {
        let (bdms, alice, bob, _) = running_bdms();
        let s = bdms.schema().relation_id("Sightings").unwrap();
        let args = vec![qv("y"), qv("z"), qv("u"), qv("v"), qv("w")];
        let queries = vec![
            Bcq::builder(vec![qv("y"), qv("u")])
                .positive(vec![pu(bob), pu(alice)], s, args.clone())
                .build(bdms.schema())
                .unwrap(),
            Bcq::builder(vec![qv("x")])
                .negative(vec![pv("x")], s, args.clone())
                .positive(vec![pu(alice)], s, args)
                .build(bdms.schema())
                .unwrap(),
        ];
        for q in &queries {
            let rows = bdms.query(q).unwrap();
            assert_eq!(
                rows,
                bdms.query_materialized(q).unwrap(),
                "executors disagree on {q}"
            );
            assert_eq!(
                rows,
                bdms.query_naive(q).unwrap(),
                "oracle disagrees on {q}"
            );
        }
    }

    #[test]
    fn plan_cache_stats_are_observable() {
        let (bdms, _, bob, _) = running_bdms();
        let s = bdms.schema().relation_id("Sightings").unwrap();
        let q = Bcq::builder(vec![qv("sid")])
            .positive(
                vec![pu(bob)],
                s,
                vec![qv("sid"), qany(), qany(), qany(), qany()],
            )
            .build(bdms.schema())
            .unwrap();
        let before = bdms.plan_cache_stats();
        assert_eq!((before.hits, before.misses, before.entries), (0, 0, 0));
        assert_eq!(before.hit_rate(), 0.0);
        bdms.query(&q).unwrap();
        bdms.query(&q).unwrap();
        let after = bdms.plan_cache_stats();
        assert_eq!((after.hits, after.misses), (1, 1));
        assert_eq!(after.entries, 1);
        assert!((after.hit_rate() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn repeat_queries_hit_the_plan_cache_and_mutations_invalidate() {
        let (mut bdms, _, bob, _) = running_bdms();
        let s = bdms.schema().relation_id("Sightings").unwrap();
        let q = Bcq::builder(vec![qv("sid"), qv("species")])
            .positive(
                vec![pu(bob)],
                s,
                vec![qv("sid"), qany(), qv("species"), qany(), qany()],
            )
            .build(bdms.schema())
            .unwrap();
        let first = bdms.query(&q).unwrap();
        let (h0, m0) = bdms.internal().with_plan_cache(|c| (c.hits(), c.misses()));
        assert_eq!((h0, m0), (0, 1));
        // Repeat: served from the cache, identical answer.
        assert_eq!(bdms.query(&q).unwrap(), first);
        let (h1, m1) = bdms.internal().with_plan_cache(|c| (c.hits(), c.misses()));
        assert_eq!((h1, m1), (1, 1));
        // A mutation bumps table versions: the stale plans must not be
        // served, and the answer reflects the new statement.
        bdms.insert(
            BeliefPath::user(bob),
            s,
            row!["s9", "Bob", "owl", "7-1-08", "Ridge"],
            Sign::Pos,
        )
        .unwrap();
        let after = bdms.query(&q).unwrap();
        let (h2, m2) = bdms.internal().with_plan_cache(|c| (c.hits(), c.misses()));
        assert_eq!((h2, m2), (1, 2));
        assert!(after.contains(&row!["s9", "owl"]), "{after:?}");

        // The streaming path shares the cache: this repeat is a hit and
        // returns the same rows.
        let mut streamed = Vec::new();
        bdms.query_streaming(&q, |row| streamed.push(row)).unwrap();
        streamed.sort();
        assert_eq!(streamed, after);
        let (h3, _) = bdms.internal().with_plan_cache(|c| (c.hits(), c.misses()));
        assert_eq!(h3, 2);

        // The analyze path takes the same lookup-or-store protocol: on a
        // fresh store it is the miss that stores the plans, with the answer
        // it collected, and every other entry point then hits them.
        let (fresh, _, _, _) = running_bdms();
        let counts = || {
            fresh
                .internal()
                .with_plan_cache(|c| (c.hits(), c.misses(), c.len()))
        };
        let (rows, report) = fresh.explain_analyze_query(&q).unwrap();
        assert!(report.contains("actual"), "{report}");
        assert_eq!(counts(), (0, 1, 1));
        assert_eq!(fresh.plan_cache_stats().answer_rows, rows.len());
        // Later hits read the stored answer, on every path but EXPLAIN
        // ANALYZE, which still profiles the cached plans.
        assert_eq!(fresh.query(&q).unwrap(), rows);
        assert_eq!(counts(), (1, 1, 1));
        let mut streamed = Vec::new();
        fresh.query_streaming(&q, |row| streamed.push(row)).unwrap();
        streamed.sort();
        assert_eq!(streamed, rows);
        assert_eq!(counts(), (2, 1, 1));
        let mut rec = Recorder::enabled(q.to_string());
        assert_eq!(fresh.query_traced(&q, &mut rec).unwrap(), rows);
        assert_eq!(counts(), (3, 1, 1));
        let trace = rec.finish().expect("enabled recorder yields a trace");
        assert!(trace.profile.is_none(), "{trace:?}");
        let (again, report) = fresh.explain_analyze_query(&q).unwrap();
        assert_eq!(again, rows);
        assert!(report.contains("actual"), "{report}");
        assert_eq!(counts(), (4, 1, 1));
        assert_eq!(fresh.plan_cache_stats().query_hits, 3);

        // A streamed miss collects no answer: the first hit replays the
        // plans — profiled, on the traced path — and keeps the answer.
        let (replayed, _, _, _) = running_bdms();
        replayed.query_streaming(&q, |_| {}).unwrap();
        assert_eq!(replayed.plan_cache_stats().answer_rows, 0);
        let mut rec = Recorder::enabled(q.to_string());
        assert_eq!(replayed.query_traced(&q, &mut rec).unwrap(), rows);
        let stats = replayed.plan_cache_stats();
        assert_eq!((stats.hits, stats.misses, stats.query_hits), (1, 1, 0));
        assert_eq!(stats.answer_rows, rows.len());
        let trace = rec.finish().expect("enabled recorder yields a trace");
        assert!(
            trace
                .profile
                .as_deref()
                .is_some_and(|p| p.contains("actual")),
            "{trace:?}"
        );
    }

    #[test]
    fn memory_budget_spills_without_changing_answers() {
        let (mut bdms, alice, _, _) = running_bdms();
        let s = bdms.schema().relation_id("Sightings").unwrap();
        // A join-heavy query (two subgoals share sid) plus the content
        // query: both must be identical under a zero budget, where every
        // materialization point spills.
        let q = Bcq::builder(vec![qv("u2"), qv("sp1"), qv("sp2")])
            .positive(
                vec![pu(alice)],
                s,
                vec![qv("sid"), qany(), qv("sp1"), qany(), qany()],
            )
            .positive(
                vec![pv("u2")],
                s,
                vec![qv("sid"), qany(), qv("sp2"), qany(), qany()],
            )
            .build(bdms.schema())
            .unwrap();
        let want = bdms.query(&q).unwrap();
        assert_eq!(bdms.memory_budget(), None);
        bdms.set_memory_budget(Some(0));
        assert_eq!(bdms.memory_budget(), Some(0));
        assert_eq!(bdms.query(&q).unwrap(), want);
        let mut streamed = Vec::new();
        bdms.query_streaming(&q, |row| streamed.push(row)).unwrap();
        streamed.sort();
        assert_eq!(streamed, want);
        // EXPLAIN reports the spill budget at materialization points —
        // and stops once the budget is lifted.
        let text = bdms.explain_query(&q).unwrap();
        assert!(text.contains("[spill budget=0 partitions="), "{text}");
        bdms.set_memory_budget(None);
        assert!(!bdms.explain_query(&q).unwrap().contains("[spill"));
    }

    #[test]
    fn magic_toggle_preserves_answers_and_marks_plans() {
        let (mut bdms, alice, _, _) = running_bdms();
        let s = bdms.schema().relation_id("Sightings").unwrap();
        // A bound probe joined to a second subgoal through `sid`: the
        // rewrite seeds the second temp's demand from the first (SIP),
        // so its rule carries a magic guard.
        let q = Bcq::builder(vec![qv("u2"), qv("sp1"), qv("sp2")])
            .positive(
                vec![pu(alice)],
                s,
                vec![qv("sid"), qany(), qv("sp1"), qany(), qany()],
            )
            .positive(
                vec![pv("u2")],
                s,
                vec![qv("sid"), qany(), qv("sp2"), qany(), qany()],
            )
            .build(bdms.schema())
            .unwrap();
        assert!(bdms.magic_enabled());
        let with_magic = bdms.query(&q).unwrap();
        let magic_explain = bdms.explain_query(&q).unwrap();
        assert!(magic_explain.contains("[magic"), "{magic_explain}");
        bdms.set_magic(false);
        assert!(!bdms.magic_enabled());
        assert_eq!(bdms.query(&q).unwrap(), with_magic);
        let plain_explain = bdms.explain_query(&q).unwrap();
        assert!(!plain_explain.contains("[magic"), "{plain_explain}");
        // The naive reference agrees with both.
        assert_eq!(bdms.query_naive(&q).unwrap(), with_magic);
        // Streaming shares the toggle.
        bdms.set_magic(true);
        let mut streamed = Vec::new();
        bdms.query_streaming(&q, |row| streamed.push(row)).unwrap();
        streamed.sort();
        assert_eq!(streamed, with_magic);
    }

    #[test]
    fn explain_analyze_runs_and_reports_actuals() {
        let (bdms, _, bob, _) = running_bdms();
        let s = bdms.schema().relation_id("Sightings").unwrap();
        let q = Bcq::builder(vec![qv("sid"), qv("species")])
            .positive(
                vec![pu(bob)],
                s,
                vec![qv("sid"), qany(), qv("species"), qany(), qany()],
            )
            .build(bdms.schema())
            .unwrap();
        let (rows, report) = bdms.explain_analyze_query(&q).unwrap();
        assert_eq!(rows, bdms.query(&q).unwrap());
        assert!(report.contains("| actual rows="), "{report}");
        assert!(report.contains("time="), "{report}");
        // The repeat ran from the plan cache and still profiles.
        let (rows2, report2) = bdms.explain_analyze_query(&q).unwrap();
        assert_eq!(rows2, rows);
        assert!(report2.contains("| actual rows="), "{report2}");
    }

    #[test]
    fn slowlog_captures_threshold_crossings_with_profiles() {
        let (bdms, _, bob, _) = running_bdms();
        let s = bdms.schema().relation_id("Sightings").unwrap();
        let q = Bcq::builder(vec![qv("sid")])
            .positive(
                vec![pu(bob)],
                s,
                vec![qv("sid"), qany(), qany(), qany(), qany()],
            )
            .build(bdms.schema())
            .unwrap();
        // Unarmed, nothing is captured. (Another query, so that the armed
        // run of `q` below plans and executes.)
        let other = Bcq::builder(vec![qv("sp")])
            .positive(
                vec![pu(bob)],
                s,
                vec![qany(), qany(), qv("sp"), qany(), qany()],
            )
            .build(bdms.schema())
            .unwrap();
        assert_eq!(bdms.slowlog_threshold_ms(), None);
        bdms.query(&other).unwrap();
        assert!(bdms.slowlog_entries().is_empty());

        // Threshold 0: every query is captured, with spans + profile.
        bdms.set_slowlog_threshold_ms(Some(0));
        assert_eq!(bdms.slowlog_threshold_ms(), Some(0));
        bdms.query(&q).unwrap();
        let entries = bdms.slowlog_entries();
        assert_eq!(entries.len(), 1);
        let trace = &entries[0];
        assert!(!trace.statement.is_empty());
        assert!(
            trace.spans.iter().any(|sp| sp.name == "execute"),
            "{trace:?}"
        );
        assert!(
            trace.profile.as_deref().unwrap().contains("| actual"),
            "{trace:?}"
        );

        // That run kept the answer; the next one is served from it by the
        // query memo, and its capture shows no translation, no execution,
        // no sort and no profile.
        bdms.clear_slowlog();
        bdms.query(&q).unwrap();
        let entries = bdms.slowlog_entries();
        assert_eq!(entries.len(), 1);
        let trace = &entries[0];
        let names: Vec<&str> = trace.spans.iter().map(|sp| sp.name).collect();
        assert_eq!(names, ["query_lookup"], "{trace:?}");
        assert!(trace.profile.is_none(), "{trace:?}");

        bdms.clear_slowlog();
        assert!(bdms.slowlog_entries().is_empty());
        bdms.set_slowlog_threshold_ms(None);
        bdms.query(&q).unwrap();
        assert!(bdms.slowlog_entries().is_empty());
    }

    #[test]
    fn metrics_snapshot_counts_queries_and_latency() {
        let (bdms, _, bob, _) = running_bdms();
        let s = bdms.schema().relation_id("Sightings").unwrap();
        let q = Bcq::builder(vec![qv("sid")])
            .positive(
                vec![pu(bob)],
                s,
                vec![qv("sid"), qany(), qany(), qany(), qany()],
            )
            .build(bdms.schema())
            .unwrap();
        let before = bdms.metrics();
        bdms.query(&q).unwrap();
        bdms.query(&q).unwrap();
        // The registry is process-global (other tests run concurrently):
        // assert on the delta, with >= where others may contribute.
        let delta = bdms.metrics().since(&before);
        assert!(delta.get(Metric::QueriesExecuted) >= 2, "{delta:?}");
        assert!(delta.get(Metric::PlanCacheMisses) >= 1, "{delta:?}");
        assert!(delta.get(Metric::PlanCacheHits) >= 1, "{delta:?}");
        assert!(delta.get(Metric::RowsScanned) >= 1, "{delta:?}");
    }

    #[test]
    fn stats_report_sizes() {
        let (bdms, ..) = running_bdms();
        let stats = bdms.stats();
        assert_eq!(stats.users, 3);
        assert_eq!(stats.worlds, 4);
        assert!(
            stats.total_tuples > 8,
            "internal size exceeds annotation count"
        );
        assert!(stats.relative_overhead(8) > 1.0);
        // The stored tables and the world relations `D`, `E` and `S`.
        assert_eq!(
            stats.per_table.len(),
            bdms.storage().table_names().len() + 3
        );
        // Fig. 5 check: E has 9 rows for this example.
        let e = stats.per_table.iter().find(|(n, _)| n == "E").unwrap();
        assert_eq!(e.1, 9);
    }

    #[test]
    fn canonical_kripke_agrees_with_store() {
        let (bdms, alice, bob, _) = running_bdms();
        let k = bdms.canonical_kripke().unwrap();
        let s = bdms.schema().relation_id("Sightings").unwrap();
        let raven = GroundTuple::new(s, row!["s2", "Alice", "raven", "6-14-08", "Lake Placid"]);
        for p in [
            BeliefPath::root(),
            BeliefPath::user(alice),
            BeliefPath::user(bob),
            path(&[2, 1]),
            path(&[1, 2]),
            path(&[3, 2, 1]),
        ] {
            for sign in [Sign::Pos, Sign::Neg] {
                let stmt = BeliefStatement::new(p.clone(), raven.clone(), sign);
                assert_eq!(bdms.entails(&stmt).unwrap(), k.entails(&stmt), "on {stmt}");
            }
        }
    }

    #[test]
    fn user_atoms_join_the_catalog() {
        // Paper q1: select sightings believed by the user *named* Bob.
        let (bdms, ..) = running_bdms();
        let s = bdms.schema().relation_id("Sightings").unwrap();
        let q = Bcq::builder(vec![qv("sid"), qv("species")])
            .user(qv("u"), qc("Bob"))
            .positive(
                vec![pv("u")],
                s,
                vec![qv("sid"), qany(), qv("species"), qany(), qany()],
            )
            .build(bdms.schema())
            .unwrap();
        assert_eq!(bdms.query(&q).unwrap(), vec![row!["s2", "raven"]]);
        assert_eq!(bdms.query_naive(&q).unwrap(), vec![row!["s2", "raven"]]);

        // Selecting user names via the catalog: who disagrees with Alice?
        let args = vec![qv("y"), qv("z"), qv("u2"), qv("v"), qv("w")];
        let q = Bcq::builder(vec![qv("name")])
            .user(qv("x"), qv("name"))
            .negative(vec![pv("x")], s, args.clone())
            .positive(vec![pu(UserId(1))], s, args)
            .build(bdms.schema())
            .unwrap();
        assert_eq!(bdms.query(&q).unwrap(), vec![row!["Bob"]]);
        assert_eq!(bdms.query_naive(&q).unwrap(), vec![row!["Bob"]]);
    }

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        use std::sync::atomic::{AtomicU64, Ordering};
        static N: AtomicU64 = AtomicU64::new(0);
        std::env::temp_dir().join(format!(
            "beliefdb-bdms-{tag}-{}-{}",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ))
    }

    /// A crash image of the open store in `dir`: a copy of its files
    /// taken while it runs, which is what recovery after a crash sees.
    fn crash_image(dir: &Path, tag: &str) -> std::path::PathBuf {
        let image = temp_dir(tag);
        std::fs::create_dir_all(&image).unwrap();
        for entry in std::fs::read_dir(dir).unwrap() {
            let entry = entry.unwrap();
            std::fs::copy(entry.path(), image.join(entry.file_name())).unwrap();
        }
        image
    }

    /// Every file of `dir` with its bytes, by name.
    fn files(dir: &Path) -> Vec<(std::ffi::OsString, Vec<u8>)> {
        let mut out: Vec<_> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| {
                let e = e.unwrap();
                (e.file_name(), std::fs::read(e.path()).unwrap())
            })
            .collect();
        out.sort();
        out
    }

    #[test]
    fn durable_round_trip_reproduces_state_and_stats() {
        let dir = temp_dir("roundtrip");
        let (db, ..) = running_example();
        {
            let mut bdms = Bdms::create(&dir, db.schema().clone()).unwrap();
            assert!(bdms.is_durable());
            for u in db.users() {
                bdms.add_user(db.user_name(u).unwrap().to_string()).unwrap();
            }
            for stmt in db.statements() {
                bdms.insert_statement(&stmt).unwrap();
            }
            // Interior checkpoint plus post-checkpoint mutations.
            bdms.checkpoint().unwrap();
            let s = bdms.schema().relation_id("Sightings").unwrap();
            bdms.insert(
                BeliefPath::user(UserId(2)),
                s,
                row!["s9", "Bob", "owl", "7-1-08", "Ridge"],
                Sign::Pos,
            )
            .unwrap();
            let image = crash_image(&dir, "roundtrip-crash");
            let reopened = Bdms::open(&image).unwrap();
            assert!(reopened.wal_stats().unwrap().frames > 0);
            assert_eq!(reopened.stats(), bdms.stats());
            assert_eq!(
                reopened.to_belief_database().unwrap().statements(),
                bdms.to_belief_database().unwrap().statements()
            );
            drop(reopened);
            std::fs::remove_dir_all(&image).unwrap();
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn durable_replays_rejected_inserts_and_deletes_exactly() {
        let dir = temp_dir("sideeffects");
        let schema = ExternalSchema::new().with_relation("S", &["sid", "species"]);
        let mut bdms = Bdms::create(&dir, schema).unwrap();
        let alice = bdms.add_user("Alice").unwrap();
        let bob = bdms.add_user("Bob").unwrap();
        let s = bdms.schema().relation_id("S").unwrap();
        bdms.insert(BeliefPath::user(alice), s, row!["s1", "crow"], Sign::Pos)
            .unwrap();
        // Bob-believes-Alice overrides the inherited crow with a raven.
        let out = bdms
            .insert(path(&[2, 1]), s, row!["s1", "raven"], Sign::Pos)
            .unwrap();
        assert_eq!(out, InsertOutcome::Inserted);
        // Rejected insert (conflicts with the explicit raven): still
        // creates the owl's R* row, which replay must reproduce.
        let out = bdms
            .insert(path(&[2, 1]), s, row!["s1", "owl"], Sign::Pos)
            .unwrap();
        assert_eq!(out, InsertOutcome::Rejected);
        bdms.delete(BeliefPath::user(alice), s, row!["s1", "crow"], Sign::Pos)
            .unwrap();
        bdms.update(
            BeliefPath::user(bob),
            s,
            row!["s2", "owl"],
            row!["s2", "heron"],
        )
        .unwrap();
        let image = crash_image(&dir, "sideeffects-crash");
        let reopened = Bdms::open(&image).unwrap();
        assert!(reopened.wal_stats().unwrap().frames > 0);
        assert_eq!(reopened.stats(), bdms.stats());
        assert_eq!(
            reopened.internal().directory().len(),
            bdms.internal().directory().len()
        );
        // Errors never reach the log: a bad statement fails both here
        // and after reopen, with no phantom record.
        assert!(bdms
            .insert(crate::path::path(&[9]), s, row!["x", "y"], Sign::Pos)
            .is_err());
        assert!(bdms.add_user("Alice").is_err());
        let image_again = crash_image(&dir, "sideeffects-crash-again");
        let again = Bdms::open(&image_again).unwrap();
        assert!(again.wal_stats().unwrap().frames > 0);
        assert_eq!(again.stats(), bdms.stats());
        drop((reopened, again));
        std::fs::remove_dir_all(&image).unwrap();
        std::fs::remove_dir_all(&image_again).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_failed_apply_after_its_append_blocks_every_snapshot() {
        use crate::internal::U_TABLE;
        let dir = temp_dir("diverged");
        let schema = ExternalSchema::new().with_relation("S", &["sid", "species"]);
        // Threshold 0: every mutation is followed by an auto-checkpoint.
        let options = PersistOptions {
            checkpoint_threshold: 0,
            ..PersistOptions::default()
        };
        let mut bdms = Bdms::create_with_options(&dir, schema, options).unwrap();
        let alice = bdms.add_user("Alice").unwrap();
        let s = bdms.schema().relation_id("S").unwrap();
        let hwm = bdms.wal_stats().unwrap().snapshot_hwm;
        assert_eq!(hwm, 1, "the registration was checkpointed");
        // A row the user table should not hold: the next registration
        // passes validation and is logged, then fails to apply.
        bdms.store
            .database_mut()
            .table_mut(U_TABLE)
            .unwrap()
            .insert(Row::new(vec![UserId(2).value(), Value::str("ghost")]))
            .unwrap();
        assert!(bdms.add_user("Bob").is_err());
        assert_eq!(
            bdms.wal_stats().unwrap().frames,
            1,
            "Bob's record is logged"
        );
        let diverged =
            |e: BeliefError| matches!(e, BeliefError::Storage(StorageError::Diverged(_)));
        assert!(diverged(bdms.checkpoint().unwrap_err()));
        // The next mutation applies; its auto-checkpoint is refused.
        let crow = row!["s1", "crow"];
        let err = bdms
            .insert(BeliefPath::user(alice), s, crow.clone(), Sign::Pos)
            .unwrap_err();
        assert!(diverged(err));
        let stats = bdms.wal_stats().unwrap();
        assert_eq!((stats.snapshot_hwm, stats.frames), (hwm, 2));
        // Close writes nothing; reopening replays the log.
        let before = files(&dir);
        assert!(diverged(bdms.close().unwrap_err()));
        assert_eq!(files(&dir), before);
        let reopened = Bdms::open(&dir).unwrap();
        assert_eq!(reopened.wal_stats().unwrap().frames, 2);
        assert_eq!(reopened.user_by_name("Bob").unwrap(), UserId(2));
        assert!(reopened
            .entails(&BeliefStatement::positive(
                BeliefPath::user(alice),
                GroundTuple::new(s, crow)
            ))
            .unwrap());
        drop(reopened);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn in_memory_bdms_has_no_wal() {
        let (bdms, ..) = running_bdms();
        assert!(!bdms.is_durable());
        assert!(bdms.wal_stats().is_none());
        let (mut bdms, ..) = running_bdms();
        assert!(bdms.checkpoint().is_err());
    }

    #[test]
    fn wal_stats_track_appends_and_checkpoints() {
        let dir = temp_dir("stats");
        let schema = ExternalSchema::new().with_relation("S", &["sid", "species"]);
        let mut bdms = Bdms::create(&dir, schema).unwrap();
        let hwm0 = bdms.wal_stats().unwrap().snapshot_hwm;
        assert_eq!(hwm0, 0);
        bdms.add_user("Alice").unwrap();
        let s = bdms.schema().relation_id("S").unwrap();
        bdms.insert(
            BeliefPath::user(UserId(1)),
            s,
            row!["s1", "crow"],
            Sign::Pos,
        )
        .unwrap();
        let stats = bdms.wal_stats().unwrap();
        assert_eq!(stats.next_lsn, 2);
        assert_eq!(stats.frames, 2);
        let hwm = bdms.checkpoint().unwrap();
        assert_eq!(hwm, 2);
        let stats = bdms.wal_stats().unwrap();
        assert_eq!(stats.snapshot_hwm, 2);
        assert_eq!(stats.frames, 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn dora_joins_and_gets_default_beliefs() {
        let (mut bdms, _, bob, _) = running_bdms();
        let dora = bdms.add_user("Dora").unwrap();
        let s = bdms.schema().relation_id("Sightings").unwrap();
        let s11 = GroundTuple::new(
            s,
            row!["s1", "Carol", "bald eagle", "6-14-08", "Lake Forest"],
        );
        assert!(bdms
            .entails(&BeliefStatement::positive(
                BeliefPath::user(dora),
                s11.clone()
            ))
            .unwrap());
        let dora_bob = BeliefPath::new(vec![dora, bob]).unwrap();
        assert!(bdms
            .entails(&BeliefStatement::negative(dora_bob, s11))
            .unwrap());
    }
}
