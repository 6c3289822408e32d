//! Executes one statement at a time, untraced or traced, and times it.
//!
//! Untraced, a statement is one call of `Session::query` /
//! `Session::execute` (or `Bdms::insert_statement` for the Table 1 grid)
//! inside one `Instant` pair. Traced, the harness does what `Session`
//! does itself — the same public functions of each layer, in the same
//! order — with a span around every call; the statement's latency is then
//! its root span, so probe spans (see [`crate::trace`]) stay outside it.

use crate::stats::Samples;
use crate::trace::Tracer;
use beliefdb_core::persist::LogRecord;
use beliefdb_core::{Bdms, BeliefStatement, GroundTuple, Sign};
use beliefdb_sql::ast::Statement;
use beliefdb_sql::lower::{lower_dml_prefix, SelectLowerer};
use beliefdb_sql::{ExecResult, Session};
use beliefdb_storage::datalog::{Evaluator, PlanCache};
use beliefdb_storage::obs::{record_statement, StatementObs};
use beliefdb_storage::persist::wal::Wal;
use beliefdb_storage::{metrics, Metric, MetricsSnapshot, Row, Value};
use std::path::Path;
use std::time::Instant;

/// Harness-level result: any engine error is reported as its text.
pub type Res<T> = Result<T, String>;

pub fn text<E: std::fmt::Display>(e: E) -> String {
    e.to_string()
}

/// The statement classes latency is reported for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    Q1,
    Q2,
    Q3,
    Probe,
    /// An insert that changed the store (Algorithm 4 ran to the end).
    Insert,
    Delete,
    Update,
    /// An insert the consistency gate rejected, or a duplicate: timed and
    /// counted like any statement, but it returns in a few microseconds
    /// and would otherwise be the median insert of the Table 1 grid.
    InsertNoop,
}

impl Class {
    pub const ALL: [Class; 8] = [
        Class::Q1,
        Class::Q2,
        Class::Q3,
        Class::Probe,
        Class::Insert,
        Class::Delete,
        Class::Update,
        Class::InsertNoop,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Class::Q1 => "q1",
            Class::Q2 => "q2",
            Class::Q3 => "q3",
            Class::Probe => "probe",
            Class::Insert => "insert",
            Class::Delete => "delete",
            Class::Update => "update",
            Class::InsertNoop => "insert_noop",
        }
    }

    pub fn is_read(self) -> bool {
        matches!(self, Class::Q1 | Class::Q2 | Class::Q3 | Class::Probe)
    }

    /// Class of the `index`th SELECT of a read round
    /// ([`crate::sql::SELECT_NAMES`]).
    pub fn of_select(index: usize) -> Class {
        match index {
            0..=4 => Class::Q1,
            5 => Class::Q2,
            6 => Class::Q3,
            _ => Class::Probe,
        }
    }
}

/// What one phase of a pass measured.
#[derive(Debug, Default, Clone)]
pub struct Measured {
    pub latencies: Phase,
    pub counts: Counts,
    /// Spans recorded when the phase ended (traced passes).
    pub spans_end: usize,
}

/// Statement latencies of one phase of a run, by class.
#[derive(Debug, Default, Clone)]
pub struct Phase {
    samples: [Samples; 8],
}

impl Phase {
    pub fn of(&mut self, class: Class) -> &mut Samples {
        &mut self.samples[class as usize]
    }

    pub fn get(&self, class: Class) -> &Samples {
        &self.samples[class as usize]
    }

    pub fn statements(&self) -> usize {
        self.samples.iter().map(Samples::count).sum()
    }

    pub fn total_ns(&self) -> u64 {
        self.samples.iter().map(Samples::sum).sum()
    }

    /// All samples of the read (or write) classes pooled.
    pub fn pooled(&self, reads: bool) -> Samples {
        let mut all = Samples::default();
        for c in Class::ALL.into_iter().filter(|c| c.is_read() == reads) {
            all.extend(&self.samples[c as usize]);
        }
        all
    }
}

/// One write statement, in the structured form the traced path needs
/// beside the SQL text.
#[derive(Debug, Clone)]
pub enum Dml {
    Insert(BeliefStatement),
    /// Remove this explicit statement.
    Delete(BeliefStatement),
    /// Set the location the statement's world believes for its key.
    Update {
        target: BeliefStatement,
        location: String,
    },
}

impl Dml {
    pub fn class(&self) -> Class {
        match self {
            Dml::Insert(_) => Class::Insert,
            Dml::Delete(_) => Class::Delete,
            Dml::Update { .. } => Class::Update,
        }
    }

    pub fn sql(&self) -> String {
        match self {
            Dml::Insert(s) => crate::sql::insert_sql(s),
            Dml::Delete(s) => crate::sql::delete_sql(s),
            Dml::Update { target, location } => crate::sql::update_sql(target, location),
        }
    }

    /// The row an update leaves behind.
    pub fn updated_row(target: &BeliefStatement, location: &str) -> Row {
        let mut values = target.tuple.row.values().to_vec();
        values[4] = Value::str(location);
        Row::new(values)
    }
}

/// Order-independent checksum of an answer: the wrapping sum of a hash of
/// each row, mixed with the row count.
pub fn checksum(rows: &[Row]) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut sum = 0u64;
    for row in rows {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        row.hash(&mut h);
        sum = sum.wrapping_add(h.finish());
    }
    sum ^ (rows.len() as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)
}

/// What the runner counts over a phase, beside latencies. The first
/// three only the traced path sees, at the calls it makes.
#[derive(Debug, Default, Clone)]
pub struct Counts {
    pub tokens: u64,
    pub translate_rules: u64,
    pub magic_rules_out: u64,
    pub rows_returned: u64,
    /// Latency of every statement during which a checkpoint was written.
    pub checkpoint_stmts: Vec<(Class, u64)>,
    /// Growth of the live WAL over all statements that wrote no checkpoint.
    pub wal_bytes_appended: u64,
}

/// Runs statements and keeps everything measured about them.
pub struct Runner {
    pub tracer: Option<Tracer>,
    /// Harness-owned log the WAL probe spans append to (traced runs of
    /// durable workloads).
    probe_wal: Option<Wal>,
    /// Latencies of the phase in progress, as measured.
    latencies: Phase,
    /// One checksum per SELECT, in execution order.
    pub checksums: Vec<u64>,
    pub attempted: u64,
    pub failed: u64,
    /// Counts of the phase in progress.
    counts: Counts,
}

impl Runner {
    pub fn new(traced: bool) -> Self {
        Runner {
            tracer: traced.then(Tracer::new),
            probe_wal: None,
            latencies: Phase::default(),
            checksums: Vec::new(),
            attempted: 0,
            failed: 0,
            counts: Counts::default(),
        }
    }

    /// Give a traced run its own WAL for the encode/append probes.
    pub fn open_probe_wal(&mut self, dir: &Path, segment_limit: u64) -> Res<()> {
        if self.tracer.is_some() {
            std::fs::create_dir_all(dir).map_err(text)?;
            self.probe_wal = Some(Wal::create(dir, 0, segment_limit).map_err(text)?);
        }
        Ok(())
    }

    /// Σ latency of the statements timed since the last `take_phase`.
    pub fn timed_ns(&self) -> u64 {
        self.latencies.total_ns()
    }

    /// Close the phase in progress and return what it measured.
    pub fn take_phase(&mut self) -> Measured {
        Measured {
            latencies: std::mem::take(&mut self.latencies),
            counts: std::mem::take(&mut self.counts),
            spans_end: self.tracer.as_ref().map_or(0, Tracer::len),
        }
    }

    /// Record a failed check (wrong answer, empty probe, reopen mismatch).
    pub fn fail(&mut self, what: &str) {
        self.failed += 1;
        eprintln!("beliefbench: FAILED: {what}");
    }

    /// One timed SELECT, the `index`th of a read round; returns its rows
    /// (empty on error).
    pub fn select(&mut self, session: &Session, index: usize, sql: &str) -> Vec<Row> {
        let class = Class::of_select(index);
        self.attempted += 1;
        let (result, ns) = match &mut self.tracer {
            None => {
                let t0 = Instant::now();
                let result = session.query(sql).map_err(text);
                (result.map(rows_of), t0.elapsed().as_nanos() as u64)
            }
            Some(tr) => traced_select(tr, &mut self.counts, session, sql),
        };
        self.latencies.of(class).push(ns);
        match result {
            Ok(rows) => {
                self.checksums.push(checksum(&rows));
                self.counts.rows_returned += rows.len() as u64;
                if class == Class::Probe && rows.is_empty() {
                    self.fail(&format!("probe returned no rows: {sql}"));
                }
                rows
            }
            Err(e) => {
                self.fail(&format!("{e}: {sql}"));
                Vec::new()
            }
        }
    }

    /// One timed write through BeliefSQL; returns whether the store
    /// changed. A rejected or duplicate insert is a valid outcome; a
    /// delete or update that does not hit exactly its target is a failure.
    pub fn dml(&mut self, session: &mut Session, dml: &Dml) -> bool {
        self.attempted += 1;
        let sql = dml.sql();
        let wal_before = session.bdms().wal_stats();
        let (result, ns) = match &mut self.tracer {
            None => {
                let t0 = Instant::now();
                let result = session.execute(&sql).map_err(text);
                (result, t0.elapsed().as_nanos() as u64)
            }
            Some(tr) => {
                let wal = self.probe_wal.as_mut();
                traced_dml(tr, &mut self.counts, wal, session, &sql, dml)
            }
        };
        let changed = match result {
            Ok(ExecResult::Inserted(outcome)) => outcome.changed(),
            Ok(ExecResult::Deleted(1)) | Ok(ExecResult::Updated(1)) => true,
            Ok(other) => {
                self.fail(&format!("unexpected outcome `{other}`: {sql}"));
                false
            }
            Err(e) => {
                self.fail(&format!("{e}: {sql}"));
                false
            }
        };
        let class = match dml.class() {
            Class::Insert if !changed => Class::InsertNoop,
            class => class,
        };
        self.latencies.of(class).push(ns);
        if let (Some(before), Some(after)) = (wal_before, session.bdms().wal_stats()) {
            if after.checkpoints != before.checkpoints {
                self.counts.checkpoint_stmts.push((class, ns));
            } else {
                self.counts.wal_bytes_appended += after.wal_bytes.saturating_sub(before.wal_bytes);
            }
        }
        changed
    }

    /// One timed `Bdms::insert_statement` (the Table 1 grid: no SQL).
    pub fn insert_direct(&mut self, bdms: &mut Bdms, stmt: &BeliefStatement) -> bool {
        self.attempted += 1;
        let (result, ns) = match &mut self.tracer {
            None => {
                let t0 = Instant::now();
                let result = bdms.insert_statement(stmt);
                (result, t0.elapsed().as_nanos() as u64)
            }
            Some(tr) => {
                tr.next_statement();
                let ops = tr.open("ops.insert");
                let result = bdms.insert_statement(stmt);
                tr.close(ops);
                tr.probe("worlds.resolve", ops, || {
                    bdms.internal().resolve(&stmt.path)
                });
                (result, tr.duration(ops))
            }
        };
        let changed = match result {
            Ok(outcome) => outcome.changed(),
            Err(e) => {
                self.fail(&format!("{e}: insert {stmt:?}"));
                false
            }
        };
        let class = if changed {
            Class::Insert
        } else {
            Class::InsertNoop
        };
        self.latencies.of(class).push(ns);
        changed
    }
}

fn rows_of(result: ExecResult) -> Vec<Row> {
    match result {
        ExecResult::Rows { rows, .. } => rows,
        _ => Vec::new(),
    }
}

/// What `Session` records per statement (`sys.statements`), done by hand.
fn record(sql: &str, t0: Instant, before: &MetricsSnapshot, rows: u64, error: bool) {
    let after = metrics().snapshot();
    let delta = |m: Metric| after.get(m).saturating_sub(before.get(m));
    record_statement(
        sql,
        StatementObs {
            wall_ns: t0.elapsed().as_nanos() as u64,
            rows,
            error,
            cache_hits: delta(Metric::PlanCacheHits),
            cache_misses: delta(Metric::PlanCacheMisses),
            spill_bytes: delta(Metric::SpillBytes),
            peak_buffered: 0,
        },
    );
}

/// `Session::query` for a SELECT over belief relations, layer by layer:
/// `query_inner` → `run_select` → `Bdms::query_traced` →
/// `bcq::translate::evaluate_with_options`.
fn traced_select(
    tr: &mut Tracer,
    counts: &mut Counts,
    session: &Session,
    sql: &str,
) -> (Res<Vec<Row>>, u64) {
    tr.next_statement();
    let root = tr.open("session");
    let mut parse_span = 0;
    let mut run_span = None;
    let mut planned = None;
    let result = (|| -> Res<Vec<Row>> {
        let before = metrics().snapshot();
        let t0 = Instant::now();
        let bdms = session.bdms();
        let store = bdms.internal();
        let db = store.database();

        parse_span = tr.open("parser.parse");
        let stmt = beliefdb_sql::parse(sql);
        tr.close(parse_span);
        let Statement::Select(sel) = stmt.map_err(text)? else {
            return Err("not a SELECT".into());
        };
        let lowered = tr.span("lower.select", || SelectLowerer::lower(bdms, &sel));
        let lowered = lowered.map_err(text)?;
        let query = lowered.query.ok_or("contradictory constants")?;

        metrics().incr(Metric::QueriesExecuted);
        let q0 = Instant::now();
        let translated = tr.span("translate.alg1", || bdms.translate(&query));
        let translated = translated.map_err(text)?;
        counts.translate_rules += translated.program.rules.len() as u64;
        let program = tr.span("magic.rewrite", || {
            beliefdb_storage::opt::magic::rewrite_checked(&translated.program)
        });
        let program = program.map_err(text)?;
        counts.magic_rules_out += program.rules.len() as u64;
        let stats = tr.span("opt.stats", || store.stats_catalog());
        let mut ev = Evaluator::new(db)
            .seed_stats(stats)
            .with_memory_budget(bdms.memory_budget());
        let (key, versions) = tr.span("datalog.cache_key", || {
            (program.to_string(), PlanCache::read_versions(db, &program))
        });
        let cached = tr.span("datalog.cache_lookup", || {
            store.with_plan_cache(|cache| cache.lookup(&key, &versions))
        });
        let run = tr.open("exec.run");
        let ran = match &cached {
            Some(plans) => ev.run_cached_plans(&program, plans).map(|_| ()),
            None => ev.run_collecting_plans(&program).map(|(_, plans)| {
                store.with_plan_cache(|cache| cache.store(key, versions, plans));
            }),
        };
        tr.close(run);
        ran.map_err(text)?;
        run_span = Some(run);
        let mut rows = ev
            .relation(&translated.answer)
            .map(|r| r.to_vec())
            .unwrap_or_default();
        rows.sort();
        metrics().record_latency(q0.elapsed().as_nanos() as u64);
        record(sql, t0, &before, rows.len() as u64, false);
        if cached.is_none() {
            planned = Some((ev, program));
        }
        Ok(rows)
    })();
    tr.close(root);

    // Probes: the separable halves of the two fused calls above.
    counts.tokens += tr.probe("lexer.tokenize", parse_span, || {
        beliefdb_sql::lexer::tokenize(sql).map_or(0, |t| t.len() as u64)
    });
    if let (Some(run), Some((mut ev, program))) = (run_span, planned) {
        // A miss optimized every rule inside `run_collecting_plans`;
        // plan the same rules again against the relations it derived.
        tr.probe("opt.plan", run, || {
            for rule in &program.rules {
                let _ = ev.plan_rule(rule);
            }
        });
    }
    (result, tr.duration(root))
}

/// `Session::execute` for INSERT / DELETE / UPDATE, layer by layer:
/// `execute_inner` → `run_insert` / `run_delete` / `run_update` →
/// `Bdms::{insert, delete, update}`.
fn traced_dml(
    tr: &mut Tracer,
    counts: &mut Counts,
    probe_wal: Option<&mut Wal>,
    session: &mut Session,
    sql: &str,
    dml: &Dml,
) -> (Res<ExecResult>, u64) {
    tr.next_statement();
    let root = tr.open("session");
    let mut parse_span = 0;
    let mut ops_span = None;
    let result = (|| -> Res<ExecResult> {
        let before = metrics().snapshot();
        let t0 = Instant::now();
        parse_span = tr.open("parser.parse");
        let stmt = beliefdb_sql::parse(sql);
        tr.close(parse_span);
        let stmt = stmt.map_err(text)?;

        let (prefix, table) = match &stmt {
            Statement::Insert(s) => (&s.prefix, &s.table),
            Statement::Delete(s) => (&s.prefix, &s.table),
            Statement::Update(s) => (&s.prefix, &s.table),
            Statement::Select(_) => return Err("not a write".into()),
        };
        let lowered = tr.span("lower.dml", || {
            let (path, sign) = lower_dml_prefix(session.bdms(), prefix).map_err(text)?;
            let rel = session.bdms().schema().relation_id(table).map_err(text)?;
            Ok::<_, String>((path, sign, rel))
        });
        let (path, sign, rel) = lowered?;

        let out = match (&stmt, dml) {
            (Statement::Insert(ins), Dml::Insert(_)) => {
                let row = Row::new(ins.values.iter().map(|l| l.to_value()).collect::<Vec<_>>());
                let ops = tr.open("ops.insert");
                let outcome = session.bdms_mut().insert(path, rel, row, sign);
                tr.close(ops);
                ops_span = Some(ops);
                ExecResult::Inserted(outcome.map_err(text)?)
            }
            (Statement::Delete(_), Dml::Delete(target)) => {
                // `RowMatcher` over the WHERE clause: every column is
                // pinned, so matching is row equality.
                let victims = tr.span("ops.scan", || {
                    session.bdms().explicit_statements_at(&path).map(|all| {
                        all.into_iter()
                            .filter(|s| {
                                s.tuple.rel == rel
                                    && s.sign == sign
                                    && s.tuple.row == target.tuple.row
                            })
                            .map(|s| s.tuple)
                            .collect::<Vec<GroundTuple>>()
                    })
                });
                let victims = victims.map_err(text)?;
                let ops = tr.open("ops.delete");
                let mut deleted = 0;
                let mut error = None;
                for t in victims {
                    match session.bdms_mut().delete(path.clone(), rel, t.row, sign) {
                        Ok(true) => deleted += 1,
                        Ok(false) => {}
                        Err(e) => error = Some(text(e)),
                    }
                }
                tr.close(ops);
                ops_span = Some(ops);
                if let Some(e) = error {
                    return Err(e);
                }
                ExecResult::Deleted(deleted)
            }
            (Statement::Update(_), Dml::Update { target, location }) => {
                if sign != Sign::Pos {
                    return Err("updates target positive beliefs".into());
                }
                let key = target.tuple.key().clone();
                let targets = tr.span("ops.scan", || {
                    session.bdms().world(&path).map(|w| {
                        w.pos_tuples()
                            .filter(|t| t.rel == rel && *t.key() == key)
                            .map(|t| t.row)
                            .collect::<Vec<Row>>()
                    })
                });
                let targets = targets.map_err(text)?;
                let ops = tr.open("ops.update");
                let mut updated = 0;
                let mut error = None;
                for old in targets {
                    let mut values = old.values().to_vec();
                    values[4] = Value::str(location.as_str());
                    let new = Row::new(values);
                    if new == old {
                        continue;
                    }
                    match session.bdms_mut().update(path.clone(), rel, old, new) {
                        Ok(_) => updated += 1,
                        Err(e) => error = Some(text(e)),
                    }
                }
                tr.close(ops);
                ops_span = Some(ops);
                if let Some(e) = error {
                    return Err(e);
                }
                ExecResult::Updated(updated)
            }
            _ => return Err("statement text and description disagree".into()),
        };
        record(sql, t0, &before, 0, false);
        Ok(out)
    })();
    tr.close(root);

    // Probes: lexing inside `parse`; world lookup, log-record encoding and
    // the WAL append inside `Bdms::{insert, delete, update}`.
    counts.tokens += tr.probe("lexer.tokenize", parse_span, || {
        beliefdb_sql::lexer::tokenize(sql).map_or(0, |t| t.len() as u64)
    });
    if let Some(ops) = ops_span {
        let (Dml::Insert(s) | Dml::Delete(s) | Dml::Update { target: s, .. }) = dml;
        tr.probe("worlds.resolve", ops, || {
            session.bdms().internal().resolve(&s.path)
        });
        if let Some(wal) = probe_wal {
            let record = match dml {
                Dml::Insert(s) => LogRecord::Insert(s.clone()),
                Dml::Delete(s) => LogRecord::Delete(s.clone()),
                Dml::Update { target, location } => LogRecord::Update {
                    path: target.path.clone(),
                    rel: target.tuple.rel,
                    old_row: target.tuple.row.clone(),
                    new_row: Dml::updated_row(target, location),
                },
            };
            let payload = tr.probe("core_persist.encode", ops, || record.encode());
            tr.probe("wal.append", ops, || {
                let _ = wal.append(&payload);
            });
        }
    }
    (result, tr.duration(root))
}
