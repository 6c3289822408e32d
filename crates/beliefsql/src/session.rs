//! Interactive sessions: parse → lower → execute against a [`Bdms`].

use crate::ast::*;
use crate::error::{Result, SqlError};
use crate::lower::{lower_dml_prefix, LoweredSelect, SelectLowerer};
use crate::parser::parse;
use beliefdb_core::internal::InsertOutcome;
use beliefdb_core::{Bdms, BeliefError, BeliefPath, ExternalSchema, Sign};
use beliefdb_storage::obs::{note_statement_peak, record_statement, statements_enabled};
use beliefdb_storage::sema::{self, codes, lint_program, Diagnostic};
use beliefdb_storage::{
    metrics, Expr, Metric, MetricsSnapshot, Plan, QueryTrace, Recorder, Row, StatementObs, Value,
    SYS_PREFIX,
};
use std::fmt;
use std::ops::ControlFlow;
use std::time::Instant;

/// Result of executing one BeliefSQL statement.
#[derive(Debug, Clone, PartialEq)]
pub enum ExecResult {
    /// `SELECT`: column labels and (sorted, deduplicated) rows.
    Rows {
        columns: Vec<String>,
        rows: Vec<Row>,
    },
    /// `INSERT`: what Algorithm 4 did with the statement.
    Inserted(InsertOutcome),
    /// `DELETE`: number of explicit statements removed.
    Deleted(usize),
    /// `UPDATE`: number of tuples rewritten.
    Updated(usize),
    /// `EXPLAIN <select>`: the lowered query, its Datalog translation, and
    /// the optimized physical plan of every rule.
    Explain(String),
}

impl ExecResult {
    /// Rows of a `SELECT` result (empty for DML).
    pub fn rows(&self) -> &[Row] {
        match self {
            ExecResult::Rows { rows, .. } => rows,
            _ => &[],
        }
    }

    /// Column labels of a `SELECT` result.
    pub fn columns(&self) -> &[String] {
        match self {
            ExecResult::Rows { columns, .. } => columns,
            _ => &[],
        }
    }
}

impl fmt::Display for ExecResult {
    /// Render as an aligned text table (for examples and the REPL-style
    /// binaries).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecResult::Inserted(outcome) => write!(f, "-- insert: {outcome:?}"),
            ExecResult::Deleted(n) => write!(f, "-- deleted {n} statement(s)"),
            ExecResult::Updated(n) => write!(f, "-- updated {n} tuple(s)"),
            ExecResult::Explain(text) => write!(f, "{}", text.trim_end()),
            ExecResult::Rows { columns, rows } => {
                let mut widths: Vec<usize> = columns.iter().map(|c| c.len()).collect();
                let rendered: Vec<Vec<String>> = rows
                    .iter()
                    .map(|r| r.values().iter().map(|v| v.to_string()).collect())
                    .collect();
                for row in &rendered {
                    for (i, cell) in row.iter().enumerate() {
                        if i < widths.len() {
                            widths[i] = widths[i].max(cell.len());
                        }
                    }
                }
                let line = |f: &mut fmt::Formatter<'_>, cells: &[String]| -> fmt::Result {
                    write!(f, "|")?;
                    for (i, c) in cells.iter().enumerate() {
                        write!(
                            f,
                            " {c:<w$} |",
                            w = widths.get(i).copied().unwrap_or(c.len())
                        )?;
                    }
                    writeln!(f)
                };
                line(f, columns)?;
                write!(f, "|")?;
                for w in &widths {
                    write!(f, "{:-<w$}|", "", w = w + 2)?;
                }
                writeln!(f)?;
                for row in &rendered {
                    line(f, row)?;
                }
                write!(
                    f,
                    "({} row{})",
                    rows.len(),
                    if rows.len() == 1 { "" } else { "s" }
                )
            }
        }
    }
}

/// A BeliefSQL session owning a BDMS instance.
pub struct Session {
    bdms: Bdms,
}

impl Session {
    /// Open a session over a fresh in-memory BDMS with the given
    /// external schema.
    pub fn new(schema: ExternalSchema) -> Result<Self> {
        Ok(Session {
            bdms: Bdms::new(schema)?,
        })
    }

    /// Initialize a session over a **durable** BDMS in `dir` (created
    /// if missing; errors when the directory already holds a belief
    /// database). Every DML statement is write-ahead logged.
    pub fn create(dir: impl AsRef<std::path::Path>, schema: ExternalSchema) -> Result<Self> {
        Ok(Session {
            bdms: Bdms::create(dir, schema)?,
        })
    }

    /// Recover a session from a durable directory: the latest snapshot
    /// is loaded and the WAL tail replayed, so query answers and
    /// statistics match the pre-shutdown state exactly.
    pub fn open(dir: impl AsRef<std::path::Path>) -> Result<Self> {
        Ok(Session {
            bdms: Bdms::open(dir)?,
        })
    }

    /// Snapshot the current state and truncate the covered WAL
    /// (durable sessions only).
    pub fn checkpoint(&mut self) -> Result<u64> {
        Ok(self.bdms.checkpoint()?)
    }

    /// Close the session's store ([`Bdms::close`]): a durable log that
    /// has outgrown its newest snapshot is folded into one new snapshot.
    /// Dropping the session does the same, best-effort.
    pub fn close(self) -> Result<()> {
        Ok(self.bdms.close()?)
    }

    /// Wrap an existing BDMS.
    pub fn from_bdms(bdms: Bdms) -> Self {
        Session { bdms }
    }

    /// Bound the memory each query's materialization points (hash-join
    /// builds, distincts) may hold; past the budget they spill to disk
    /// (grace hash join, distinct partitioning). The shell exposes this
    /// as `\set memory <bytes>`. `None` (the default) keeps everything
    /// in memory.
    pub fn set_memory_budget(&mut self, bytes: Option<usize>) {
        self.bdms.set_memory_budget(bytes);
    }

    /// The per-query memory budget in effect (`None` = unlimited).
    pub fn memory_budget(&self) -> Option<usize> {
        self.bdms.memory_budget()
    }

    /// Toggle the magic-sets / SIP rewrite (demand-driven evaluation of
    /// bound belief queries). On by default; the shell exposes this as
    /// `\set magic on|off`. Off runs the unrewritten Algorithm 1 rule
    /// stack, byte-identical to the pre-rewrite engine.
    pub fn set_magic(&mut self, on: bool) {
        self.bdms.set_magic(on);
    }

    /// Whether the magic-sets rewrite is applied to queries.
    pub fn magic_enabled(&self) -> bool {
        self.bdms.magic_enabled()
    }

    /// Force the plan verifier on or off (process-wide). The verifier
    /// re-checks structural invariants after every optimizer pass and at
    /// the executor boundary; it is on by default under
    /// `debug_assertions` and off in release builds. The shell exposes
    /// this as `\set verify on|off`.
    pub fn set_verify(&mut self, on: bool) {
        sema::set_verify(on);
    }

    /// Whether the plan verifier is currently armed.
    pub fn verify_enabled(&self) -> bool {
        sema::verify_enabled()
    }

    /// Statically analyze a SELECT without running it.
    ///
    /// The statement is lowered to a belief conjunctive query and
    /// translated through Algorithm 1 exactly as execution would, then
    /// the resulting Datalog program is linted: safety violations,
    /// program-order errors, comparison type mismatches, and
    /// provably-empty conditions all come back as structured
    /// [`Diagnostic`]s (code, severity, message, context) in a
    /// deterministic order. An empty vector means the analyzer found
    /// nothing to report.
    pub fn lint(&self, sql: &str) -> Result<Vec<Diagnostic>> {
        let Statement::Select(sel) = parse(sql)? else {
            return Err(SqlError::Lower(
                "lint() only accepts SELECT statements".into(),
            ));
        };
        if sel.from.iter().any(|f| f.table.starts_with(SYS_PREFIX)) {
            // sys.* scans compile to a single fixed plan; nothing to lint.
            return Ok(Vec::new());
        }
        let lowered = SelectLowerer::lower(&self.bdms, &sel)?;
        match &lowered.query {
            None => Ok(vec![contradictory_constants_diag()]),
            Some(q) => {
                let translated = self.bdms.translate(q)?;
                Ok(lint_program(
                    self.bdms.internal().database(),
                    &translated.program,
                ))
            }
        }
    }

    pub fn bdms(&self) -> &Bdms {
        &self.bdms
    }

    pub fn bdms_mut(&mut self) -> &mut Bdms {
        &mut self.bdms
    }

    /// Register a user (not part of the Fig. 1 grammar; the paper manages
    /// users out of band, Sect. 5.3).
    pub fn add_user(&mut self, name: impl Into<String>) -> Result<beliefdb_core::UserId> {
        Ok(self.bdms.add_user(name)?)
    }

    /// Parse and execute one statement. `EXPLAIN <select>` and
    /// `EXPLAIN ANALYZE <select>` are handled here as statement forms.
    ///
    /// Every call feeds the cumulative per-fingerprint statement
    /// statistics (`sys.statements`) unless tracking is disabled, in
    /// which case the check is a single atomic load and nothing is
    /// allocated or recorded.
    pub fn execute(&mut self, sql: &str) -> Result<ExecResult> {
        captured(sql, || self.execute_inner(sql), |r| r.rows().len() as u64)
    }

    fn execute_inner(&mut self, sql: &str) -> Result<ExecResult> {
        if let Some(explained) = self.explain_form(sql) {
            return explained;
        }
        let mut rec = self.recorder(sql);
        let stmt = rec.span("parse", || parse(sql))?;
        let result = match stmt {
            Statement::Select(sel) => self.run_select(&sel, &mut rec),
            Statement::Insert(ins) => self.run_insert(&ins),
            Statement::Delete(del) => self.run_delete(&del),
            Statement::Update(up) => self.run_update(&up),
        };
        self.observe(rec);
        result
    }

    /// Parse and execute a read-only statement (`SELECT`, `EXPLAIN`, or
    /// `EXPLAIN ANALYZE`). Feeds `sys.statements` exactly like
    /// [`Session::execute`].
    pub fn query(&self, sql: &str) -> Result<ExecResult> {
        captured(sql, || self.query_inner(sql), |r| r.rows().len() as u64)
    }

    fn query_inner(&self, sql: &str) -> Result<ExecResult> {
        if let Some(explained) = self.explain_form(sql) {
            return explained;
        }
        let mut rec = self.recorder(sql);
        let stmt = rec.span("parse", || parse(sql))?;
        let result = match stmt {
            Statement::Select(sel) => self.run_select(&sel, &mut rec),
            _ => Err(SqlError::Lower(
                "query() only accepts SELECT statements".into(),
            )),
        };
        self.observe(rec);
        result
    }

    /// `EXPLAIN [ANALYZE] <select>` run as a statement form, when `sql`
    /// is one.
    fn explain_form(&self, sql: &str) -> Option<Result<ExecResult>> {
        let rest = strip_explain(sql)?;
        let explained = match strip_analyze(rest) {
            Some(inner) => self.explain_analyze(inner),
            None => self.explain(rest),
        };
        Some(explained.map(ExecResult::Explain))
    }

    /// A span recorder for one statement: enabled (so the run is traced
    /// and profiled) only while the slow-query log is armed — otherwise
    /// the disabled recorder, whose every hook is a single branch.
    fn recorder(&self, sql: &str) -> Recorder {
        if self.bdms.slowlog().enabled() {
            Recorder::enabled(sql.trim())
        } else {
            Recorder::disabled()
        }
    }

    /// Hand a finished trace to the slow-query log (no-op when the
    /// recorder was disabled). Profiled runs also raise the statement's
    /// peak-buffered-bytes high-water mark in `sys.statements`.
    fn observe(&self, rec: Recorder) {
        if let Some(trace) = rec.finish() {
            if statements_enabled() {
                if let Some(profile) = trace.profile.as_deref() {
                    let peak = max_peak_bytes(profile);
                    if peak > 0 {
                        note_statement_peak(&trace.statement, peak);
                    }
                }
            }
            self.bdms.slowlog().observe(trace);
        }
    }

    /// Execute a `SELECT`, streaming result rows into `on_row` as the
    /// final Datalog rule of the Algorithm 1 translation produces them:
    /// nothing is collected, so the first row reaches the consumer before
    /// the query finishes and an interrupted consumer never pays for the
    /// full result. Rows are deduplicated but arrive in executor order
    /// (unsorted — use [`Session::query`] for the sorted table). Under
    /// the vectorized executor rows are produced a chunk at a time
    /// upstream; this sink still sees them one by one, so existing
    /// consumers are source-compatible.
    ///
    /// Returns the column labels and the number of rows emitted.
    ///
    /// When the slow-query log is armed the statement runs through the
    /// traced (collecting) path instead so a capture carries the full
    /// per-operator profile, and rows are replayed to `on_row` after the
    /// fact — observability trades away streaming for that statement.
    /// With the slowlog off (the default) nothing changes.
    pub fn query_streaming(
        &self,
        sql: &str,
        on_row: impl FnMut(Row),
    ) -> Result<(Vec<String>, usize)> {
        captured(
            sql,
            || self.query_streaming_inner(sql, on_row),
            |(_, n)| *n as u64,
        )
    }

    fn query_streaming_inner(
        &self,
        sql: &str,
        mut on_row: impl FnMut(Row),
    ) -> Result<(Vec<String>, usize)> {
        let mut rec = self.recorder(sql);
        let Statement::Select(sel) = rec.span("parse", || parse(sql))? else {
            return Err(SqlError::Lower(
                "query_streaming() only accepts SELECT statements".into(),
            ));
        };
        streaming_supported(&sel)?;
        let lowered = rec.span("lower", || SelectLowerer::lower(&self.bdms, &sel))?;
        let mut emitted = 0usize;
        let emit = |row| {
            emitted += 1;
            on_row(row);
        };
        if let Some(q) = &lowered.query {
            if rec.is_enabled() {
                // The slowlog is armed: profile the run, then replay its
                // (sorted) answer.
                self.bdms
                    .query_traced(q, &mut rec)?
                    .into_iter()
                    .for_each(emit);
            } else {
                self.bdms.query_streaming(q, emit)?;
            }
        }
        self.observe(rec);
        Ok((lowered.columns, emitted))
    }

    /// EXPLAIN: show how a SELECT runs — the belief conjunctive query it
    /// lowers to, the non-recursive Datalog program Algorithm 1 produces,
    /// and the optimized physical plan of every rule.
    pub fn explain(&self, sql: &str) -> Result<String> {
        let lowered = match self.explain_front(sql, false)? {
            ControlFlow::Break(sys) => return Ok(sys),
            ControlFlow::Continue(lowered) => lowered,
        };
        let mut out = String::new();
        match &lowered.query {
            None => {
                out.push_str("-- contradictory constants: empty result\n");
                out.push_str(&format!("--   {}\n", contradictory_constants_diag()));
            }
            Some(q) => {
                out.push_str(&format!("-- belief conjunctive query (Def. 13):\n{q}\n\n"));
                let translated = self.bdms.translate(q)?;
                out.push_str("-- Algorithm 1 translation (non-recursive Datalog over R*):\n");
                out.push_str(&translated.program.to_string());
                out.push_str("\n-- optimized physical plans:\n");
                out.push_str(&self.bdms.explain_query(q)?);
                // Lint the translated program and annotate anything of
                // substance. Style lints (unused rules, singleton
                // variables) are suppressed here: machine-generated rule
                // stacks legitimately trip them and the annotations
                // would be pure noise.
                let diags = lint_program(self.bdms.internal().database(), &translated.program);
                let mut shown = diags
                    .iter()
                    .filter(|d| d.code != codes::UNUSED_RULE && d.code != codes::SINGLETON_VAR)
                    .peekable();
                if shown.peek().is_some() {
                    out.push_str("\n-- diagnostics:\n");
                    for d in shown {
                        out.push_str(&format!("--   {d}\n"));
                    }
                }
            }
        }
        Ok(out)
    }

    /// `EXPLAIN ANALYZE`: actually run the SELECT with per-operator
    /// profiling on, then render the lowered query and each answer-rule
    /// plan annotated with estimated **and** actual rows, chunks, wall
    /// time, kernel-vs-fallback filter rows, and spill traffic.
    pub fn explain_analyze(&self, sql: &str) -> Result<String> {
        let lowered = match self.explain_front(sql, true)? {
            ControlFlow::Break(sys) => return Ok(sys),
            ControlFlow::Continue(lowered) => lowered,
        };
        let mut out = String::new();
        match &lowered.query {
            None => out.push_str("-- contradictory constants: empty result\n"),
            Some(q) => {
                out.push_str(&format!("-- belief conjunctive query (Def. 13):\n{q}\n\n"));
                let (rows, report) = self.bdms.explain_analyze_query(q)?;
                out.push_str("-- analyzed physical plans (est vs actual):\n");
                out.push_str(&report);
                out.push_str(&format!(
                    "-- {} row{} returned\n",
                    rows.len(),
                    if rows.len() == 1 { "" } else { "s" }
                ));
            }
        }
        Ok(out)
    }

    /// The front half [`Session::explain`] and [`Session::explain_analyze`]
    /// share: parse the SELECT, then either render a `sys.*` one whole
    /// (`Break`) or lower it to the belief query the caller renders
    /// (`Continue`).
    fn explain_front(
        &self,
        sql: &str,
        analyze: bool,
    ) -> Result<ControlFlow<String, LoweredSelect>> {
        let Statement::Select(sel) = parse(sql)? else {
            let form = if analyze {
                "explain analyze"
            } else {
                "explain()"
            };
            return Err(SqlError::Lower(format!(
                "{form} only accepts SELECT statements"
            )));
        };
        if sel.from.iter().any(|f| f.table.starts_with(SYS_PREFIX)) {
            return self.explain_sys(&sel, analyze).map(ControlFlow::Break);
        }
        let lowered = SelectLowerer::lower(&self.bdms, &sel)?;
        Ok(ControlFlow::Continue(lowered))
    }

    /// Arm (or disarm, with `None`) the slow-query log: statements whose
    /// total wall time crosses the threshold are captured with their SQL
    /// text, span timings (parse → lower → translate → cache lookup →
    /// execute → sort), and full `EXPLAIN ANALYZE` profile. The shell
    /// exposes this as `\set slowlog <ms|off>`.
    pub fn set_slowlog_threshold_ms(&self, ms: Option<u64>) {
        self.bdms.set_slowlog_threshold_ms(ms);
    }

    /// The slow-query capture threshold in ms (`None` = off).
    pub fn slowlog_threshold_ms(&self) -> Option<u64> {
        self.bdms.slowlog_threshold_ms()
    }

    /// Captured slow statements, oldest first (bounded ring).
    pub fn slowlog_entries(&self) -> Vec<QueryTrace> {
        self.bdms.slowlog_entries()
    }

    /// Drop captured slow statements (the threshold is unchanged).
    pub fn clear_slowlog(&self) {
        self.bdms.clear_slowlog();
    }

    fn run_select(&self, sel: &SelectStmt, rec: &mut Recorder) -> Result<ExecResult> {
        if sel.from.iter().any(|f| f.table.starts_with(SYS_PREFIX)) {
            return self.run_sys_select(sel, rec);
        }
        let lowered = rec.span("lower", || SelectLowerer::lower(&self.bdms, sel))?;
        let mut rows = match &lowered.query {
            None => Vec::new(), // contradictory constants: empty result
            Some(q) => self.bdms.query_traced(q, rec)?,
        };
        // ORDER BY / LIMIT post-process the (already sorted, distinct)
        // belief-query answer; keys must appear in the select list.
        let keys = resolve_order_keys(&lowered.columns, &sel.order_by)?;
        order_and_limit(&mut rows, &keys, sel.limit);
        Ok(ExecResult::Rows {
            columns: lowered.columns,
            rows,
        })
    }

    /// A `SELECT` over one `sys.*` virtual table: its scan and WHERE are
    /// built directly as a storage-layer plan and run through the normal
    /// optimizer and chunked executor; ORDER BY, LIMIT and the select
    /// list then shape the rows as they do a belief answer. The provider
    /// snapshots its source at scan time; nothing is cached.
    fn run_sys_select(&self, sel: &SelectStmt, rec: &mut Recorder) -> Result<ExecResult> {
        let (plan, shape) = self.sys_select(sel)?;
        let db = self.bdms.internal().database();
        let plan = rec.span("optimize", || {
            beliefdb_storage::optimize(db, plan).map_err(storage_err)
        })?;
        let rows = rec.span("execute", || {
            beliefdb_storage::execute(db, &plan).map_err(storage_err)
        })?;
        let rows = shape.finish(rows);
        Ok(ExecResult::Rows {
            columns: shape.columns,
            rows,
        })
    }

    /// Lower a validated `sys.*` SELECT into the unoptimized scan (with
    /// the WHERE as a selection) and what shapes the scanned rows
    /// afterwards.
    fn sys_select(&self, sel: &SelectStmt) -> Result<(Plan, SysShape)> {
        if sel.from.len() != 1 {
            return Err(SqlError::Lower(
                "system tables cannot be joined or mixed with other tables in one FROM".into(),
            ));
        }
        let item = &sel.from[0];
        if item.prefix.is_some() {
            return Err(SqlError::Lower(format!(
                "BELIEF prefixes do not apply to system table `{}`",
                item.table
            )));
        }
        let db = self.bdms.internal().database();
        let vt = db
            .virtual_table(&item.table)
            .ok_or_else(|| SqlError::Lower(format!("unknown system table `{}`", item.table)))?;
        let schema = vt.schema();
        let binding = item.binding();
        let resolve = |c: &ColumnRef| -> Result<usize> {
            if let Some(q) = &c.qualifier {
                if q != binding {
                    return Err(SqlError::Lower(format!(
                        "unknown alias `{q}` in system-table query"
                    )));
                }
            }
            schema.column_index(&c.column).map_err(|_| {
                SqlError::Lower(format!("no column `{}` in `{}`", c.column, item.table))
            })
        };
        let mut columns = Vec::new();
        let mut project = Vec::new();
        for it in &sel.items {
            match it {
                SelectItem::Wildcard => {
                    for (i, col) in schema.columns().iter().enumerate() {
                        columns.push(col.name.clone());
                        project.push(i);
                    }
                }
                SelectItem::Column(c) => {
                    columns.push(c.to_string());
                    project.push(resolve(c)?);
                }
            }
        }
        let mut plan = Plan::scan(item.table.clone());
        if !sel.conditions.is_empty() {
            let side = |o: &Operand| -> Result<Expr> {
                Ok(match o {
                    Operand::Column(c) => Expr::Col(resolve(c)?),
                    Operand::Literal(l) => Expr::Lit(l.to_value()),
                })
            };
            let mut conj = Vec::with_capacity(sel.conditions.len());
            for c in &sel.conditions {
                conj.push(Expr::cmp(c.op, side(&c.left)?, side(&c.right)?));
            }
            plan = plan.select(Expr::And(conj));
        }
        // Sort keys resolve against the table's schema, so a sys query
        // may order by a column it does not select.
        let keys = sel
            .order_by
            .iter()
            .map(|(c, desc)| Ok((resolve(c)?, *desc)))
            .collect::<Result<_>>()?;
        let shape = SysShape {
            columns,
            keys,
            limit: sel.limit,
            project,
        };
        Ok((plan, shape))
    }

    /// `EXPLAIN [ANALYZE]` for a `sys.*` SELECT: render the optimized
    /// virtual-scan plan (with actuals when analyzing), then the ORDER BY
    /// and LIMIT that run over its rows.
    fn explain_sys(&self, sel: &SelectStmt, analyze: bool) -> Result<String> {
        let (plan, shape) = self.sys_select(sel)?;
        let db = self.bdms.internal().database();
        let plan = beliefdb_storage::optimize(db, plan).map_err(storage_err)?;
        let mut out = String::from("-- system-catalog query (virtual table scan):\n");
        if analyze {
            let executor = beliefdb_storage::Executor::new(db);
            let (stream, profile) = executor.open_chunks_profiled(&plan).map_err(storage_err)?;
            let rows = shape.finish(stream.collect_rows().map_err(storage_err)?);
            out.push_str("-- analyzed physical plan (est vs actual):\n");
            out.push_str(&beliefdb_storage::opt::render_analyze(
                db,
                &beliefdb_storage::StatsCatalog::snapshot(db),
                &plan,
                &profile,
                None,
            ));
            out.push_str(&order_note(sel));
            out.push_str(&format!(
                "-- {} row{} returned\n",
                rows.len(),
                if rows.len() == 1 { "" } else { "s" }
            ));
        } else {
            out.push_str("-- optimized physical plan:\n");
            out.push_str(&beliefdb_storage::opt::render_with_snapshot(db, &plan));
            out.push_str(&order_note(sel));
        }
        Ok(out)
    }

    fn run_insert(&mut self, ins: &InsertStmt) -> Result<ExecResult> {
        reject_sys_dml("INSERT into", &ins.table)?;
        let (path, sign) = lower_dml_prefix(&self.bdms, &ins.prefix)?;
        let rel = self.bdms.schema().relation_id(&ins.table)?;
        let row = Row::new(ins.values.iter().map(|l| l.to_value()).collect::<Vec<_>>());
        let outcome = self.bdms.insert(path, rel, row, sign)?;
        Ok(ExecResult::Inserted(outcome))
    }

    fn run_delete(&mut self, del: &DeleteStmt) -> Result<ExecResult> {
        reject_sys_dml("DELETE from", &del.table)?;
        let (path, sign) = lower_dml_prefix(&self.bdms, &del.prefix)?;
        let rel = self.bdms.schema().relation_id(&del.table)?;
        let binding = del.alias.as_deref().unwrap_or(&del.table);
        let matcher = RowMatcher::new(&self.bdms, rel, binding, &del.conditions)?;

        let mut deleted = 0;
        for row in self.stated_matches(&path, rel, sign, &matcher)? {
            if self.bdms.delete(path.clone(), rel, row, sign)? {
                deleted += 1;
            }
        }
        Ok(ExecResult::Deleted(deleted))
    }

    /// The tuples of `rel` the world at `path` states with `sign` that
    /// satisfy `matcher`, in statement order. A WHERE that pins the
    /// external key names one slice of the world: probe it instead of
    /// listing the world.
    fn stated_matches(
        &self,
        path: &BeliefPath,
        rel: beliefdb_core::RelId,
        sign: Sign,
        matcher: &RowMatcher,
    ) -> Result<Vec<Row>> {
        let stated = match matcher.pinned_key() {
            Some(key) => self.bdms.explicit_at(path, rel, key)?,
            None => self.bdms.explicit_statements_at(path)?,
        };
        Ok(stated
            .into_iter()
            .filter(|s| s.tuple.rel == rel && s.sign == sign && matcher.matches(&s.tuple.row))
            .map(|s| s.tuple.row)
            .collect())
    }

    fn run_update(&mut self, up: &UpdateStmt) -> Result<ExecResult> {
        reject_sys_dml("UPDATE", &up.table)?;
        let (path, sign) = lower_dml_prefix(&self.bdms, &up.prefix)?;
        let rel = self.bdms.schema().relation_id(&up.table)?;
        let def = self.bdms.schema().relation(rel)?;
        let binding = up.alias.as_deref().unwrap_or(&up.table);
        let matcher = RowMatcher::new(&self.bdms, rel, binding, &up.conditions)?;

        let mut assignments: Vec<(usize, Value)> = Vec::with_capacity(up.assignments.len());
        for (col, lit) in &up.assignments {
            let idx = def
                .column_index(col)
                .ok_or_else(|| SqlError::Lower(format!("no column `{col}` in `{}`", up.table)))?;
            if idx == 0 {
                return Err(SqlError::Lower(
                    "cannot update the external key; insert a new tuple instead".into(),
                ));
            }
            assignments.push((idx, lit.to_value()));
        }

        // Positive updates revise what the world *believes* (Sect. 2's
        // "correct a sighting" semantics); negative updates rewrite stated
        // negatives.
        let targets: Vec<Row> = match sign {
            // A WHERE that pins the external key names one slice of the
            // world: probe it instead of materializing the world.
            Sign::Pos => match matcher.pinned_key() {
                Some(key) => self
                    .bdms
                    .believed_at(&path, rel, key)?
                    .into_iter()
                    .filter(|t| matcher.matches(&t.row))
                    .map(|t| t.row)
                    .collect(),
                None => self
                    .bdms
                    .world(&path)?
                    .pos_tuples()
                    .filter(|t| t.rel == rel && matcher.matches(&t.row))
                    .map(|t| t.row)
                    .collect(),
            },
            Sign::Neg => self.stated_matches(&path, rel, Sign::Neg, &matcher)?,
        };

        let mut updated = 0;
        for old in targets {
            let mut vals: Vec<Value> = old.values().to_vec();
            for (idx, v) in &assignments {
                vals[*idx] = v.clone();
            }
            let new = Row::new(vals);
            if new == old {
                continue;
            }
            match sign {
                Sign::Pos => {
                    self.bdms.update(path.clone(), rel, old, new)?;
                }
                Sign::Neg => {
                    self.bdms.delete(path.clone(), rel, old, Sign::Neg)?;
                    self.bdms.insert(path.clone(), rel, new, Sign::Neg)?;
                }
            }
            updated += 1;
        }
        Ok(ExecResult::Updated(updated))
    }
}

/// Run one statement as `sys.statements` sees it: with tracking on,
/// record its wall time, row count (`rows` of the result), error flag,
/// and the plan-cache / spill counter deltas bracketing the run into the
/// per-fingerprint statistics. With tracking off this is a single atomic
/// load: nothing is allocated or recorded.
///
/// A [`USE_QUERY`] rejection is an API redirection, not a statement
/// execution: the caller retries through [`Session::query`], which
/// records the real call. Capturing the rejection too would
/// double-count the statement and mark it errored.
fn captured<T>(
    sql: &str,
    run: impl FnOnce() -> Result<T>,
    rows: impl FnOnce(&T) -> u64,
) -> Result<T> {
    if !statements_enabled() {
        return run();
    }
    let before = metrics().snapshot();
    let t0 = Instant::now();
    let result = run();
    let redirected = matches!(&result, Err(e) if e.to_string().contains(USE_QUERY));
    if !redirected {
        let rows = result.as_ref().map_or(0, rows);
        record_statement_capture(sql, t0, &before, rows, result.is_err());
    }
    result
}

/// The tail of every streaming-path rejection: the statement is valid,
/// only not through [`Session::query_streaming`].
const USE_QUERY: &str = "use query()";

/// Record one finished statement execution into the per-fingerprint
/// statistics (see [`captured`]).
fn record_statement_capture(
    sql: &str,
    t0: Instant,
    before: &MetricsSnapshot,
    rows: u64,
    error: bool,
) {
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

/// The streaming path has no sort/cap stage and no virtual-scan route;
/// refuse what it cannot honor rather than silently dropping clauses.
fn streaming_supported(sel: &SelectStmt) -> Result<()> {
    if sel.from.iter().any(|f| f.table.starts_with(SYS_PREFIX)) {
        return Err(SqlError::Lower(format!(
            "system tables are not streamable; {USE_QUERY}"
        )));
    }
    if !sel.order_by.is_empty() || sel.limit.is_some() {
        return Err(SqlError::Lower(format!(
            "ORDER BY / LIMIT are not supported on the streaming path; {USE_QUERY}"
        )));
    }
    Ok(())
}

/// Refuse DML aimed at a `sys.*` virtual table with a clean error.
fn reject_sys_dml(action: &str, table: &str) -> Result<()> {
    if table.starts_with(SYS_PREFIX) {
        return Err(SqlError::Lower(format!(
            "cannot {action} system table `{table}`: sys.* relations are read-only"
        )));
    }
    Ok(())
}

/// Lift a storage-layer error through the core error type.
fn storage_err(e: beliefdb_storage::StorageError) -> SqlError {
    SqlError::Core(BeliefError::from(e))
}

/// The diagnostic emitted when lowering detects contradictory constants
/// (e.g. `WHERE x = 1 AND x = 2` over the same column): the query is
/// provably empty before any plan is built.
fn contradictory_constants_diag() -> Diagnostic {
    Diagnostic::warning(
        codes::PROVABLY_EMPTY,
        "contradictory constants in the WHERE clause: the query returns no rows",
    )
}

/// Resolve ORDER BY keys against a select list's column labels: an
/// exact label match (`S.sid`), or for an unqualified key the label's
/// final `.`-separated component. An unqualified key whose component
/// names two different labels (`S1.species` and `S2.species`) is
/// ambiguous and rejected, not resolved to the first of them.
fn resolve_order_keys(
    columns: &[String],
    order_by: &[(ColumnRef, bool)],
) -> Result<Vec<(usize, bool)>> {
    order_by
        .iter()
        .map(|(c, desc)| {
            let target = c.to_string();
            let mut found = columns.iter().position(|l| *l == target);
            if found.is_none() && c.qualifier.is_none() {
                let mut hits = columns
                    .iter()
                    .enumerate()
                    .filter(|(_, l)| l.rsplit('.').next() == Some(c.column.as_str()));
                if let Some((i, label)) = hits.next() {
                    if hits.any(|(_, l)| l != label) {
                        return Err(SqlError::Lower(format!(
                            "ORDER BY column `{target}` is ambiguous"
                        )));
                    }
                    found = Some(i);
                }
            }
            match found {
                Some(i) => Ok((i, *desc)),
                None => Err(SqlError::Lower(format!(
                    "ORDER BY column `{target}` is not in the select list"
                ))),
            }
        })
        .collect()
}

/// Compare two rows under resolved `(column, descending)` keys.
fn cmp_order(keys: &[(usize, bool)], a: &Row, b: &Row) -> std::cmp::Ordering {
    for &(i, desc) in keys {
        let ord = a[i].cmp(&b[i]);
        if ord != std::cmp::Ordering::Equal {
            return if desc { ord.reverse() } else { ord };
        }
    }
    std::cmp::Ordering::Equal
}

/// ORDER BY and LIMIT over a finished result, for belief and `sys.*`
/// SELECTs alike: a stable sort on resolved `(column, descending)` keys,
/// then the first `limit` rows.
fn order_and_limit(rows: &mut Vec<Row>, keys: &[(usize, bool)], limit: Option<usize>) {
    if !keys.is_empty() {
        rows.sort_by(|a, b| cmp_order(keys, a, b));
    }
    if let Some(n) = limit {
        rows.truncate(n);
    }
}

/// What shapes the rows a `sys.*` SELECT's scan returned: the ORDER BY
/// keys and LIMIT over the table's columns, then the select list.
struct SysShape {
    columns: Vec<String>,
    keys: Vec<(usize, bool)>,
    limit: Option<usize>,
    /// Table column of each select-list column.
    project: Vec<usize>,
}

impl SysShape {
    /// Order, truncate and project the rows the scan plan returned.
    fn finish(&self, mut rows: Vec<Row>) -> Vec<Row> {
        order_and_limit(&mut rows, &self.keys, self.limit);
        rows.iter()
            .map(|r| r.project_unchecked(&self.project))
            .collect()
    }
}

/// The `EXPLAIN` line naming a SELECT's ORDER BY and LIMIT, which run
/// over the result after the plan; empty when it has neither.
fn order_note(sel: &SelectStmt) -> String {
    let mut parts = Vec::new();
    if !sel.order_by.is_empty() {
        let keys: Vec<String> = sel
            .order_by
            .iter()
            .map(|(c, desc)| format!("{c}{}", if *desc { " desc" } else { "" }))
            .collect();
        parts.push(format!("order by {}", keys.join(", ")));
    }
    if let Some(n) = sel.limit {
        parts.push(format!("limit {n}"));
    }
    if parts.is_empty() {
        String::new()
    } else {
        format!("-- then, over the result: {}\n", parts.join(" "))
    }
}

/// The largest ` peak_bytes=N` figure in an `EXPLAIN ANALYZE` profile
/// rendering (0 when no operator reported one).
fn max_peak_bytes(profile: &str) -> u64 {
    let mut max = 0u64;
    for tail in profile.split("peak_bytes=").skip(1) {
        let digits: String = tail.chars().take_while(|c| c.is_ascii_digit()).collect();
        if let Ok(v) = digits.parse::<u64>() {
            max = max.max(v);
        }
    }
    max
}

/// If `sql` is an `EXPLAIN <statement>`, return the inner statement text.
fn strip_explain(sql: &str) -> Option<&str> {
    let trimmed = sql.trim_start();
    let head = trimmed.get(..7)?;
    if head.eq_ignore_ascii_case("explain") && trimmed[7..].starts_with(char::is_whitespace) {
        Some(trimmed[7..].trim_start())
    } else {
        None
    }
}

/// If `rest` (the text after `EXPLAIN`) begins with the `ANALYZE`
/// keyword, return the statement after it.
fn strip_analyze(rest: &str) -> Option<&str> {
    let head = rest.get(..7)?;
    if head.eq_ignore_ascii_case("analyze") && rest[7..].starts_with(char::is_whitespace) {
        Some(rest[7..].trim_start())
    } else {
        None
    }
}

/// Evaluates a DML WHERE clause against single-table rows.
struct RowMatcher {
    conds: Vec<(CondSide, beliefdb_storage::CmpOp, CondSide)>,
}

enum CondSide {
    Col(usize),
    Lit(Value),
}

impl RowMatcher {
    fn new(
        bdms: &Bdms,
        rel: beliefdb_core::RelId,
        binding: &str,
        conditions: &[Condition],
    ) -> Result<Self> {
        let def = bdms.schema().relation(rel)?;
        let resolve = |c: &ColumnRef| -> Result<usize> {
            if let Some(q) = &c.qualifier {
                if q != binding {
                    return Err(SqlError::Lower(format!(
                        "unknown alias `{q}` in single-table statement"
                    )));
                }
            }
            def.column_index(&c.column)
                .ok_or_else(|| SqlError::Lower(format!("no column `{}`", c.column)))
        };
        let mut conds = Vec::with_capacity(conditions.len());
        for c in conditions {
            let side = |o: &Operand| -> Result<CondSide> {
                Ok(match o {
                    Operand::Column(c) => CondSide::Col(resolve(c)?),
                    Operand::Literal(l) => CondSide::Lit(l.to_value()),
                })
            };
            conds.push((side(&c.left)?, c.op, side(&c.right)?));
        }
        Ok(RowMatcher { conds })
    }

    /// The value a `key = literal` condition (either way round) pins the
    /// external key column to, if there is one.
    fn pinned_key(&self) -> Option<&Value> {
        self.conds.iter().find_map(|cond| match cond {
            (CondSide::Col(0), beliefdb_storage::CmpOp::Eq, CondSide::Lit(v))
            | (CondSide::Lit(v), beliefdb_storage::CmpOp::Eq, CondSide::Col(0)) => Some(v),
            _ => None,
        })
    }

    fn matches(&self, row: &Row) -> bool {
        self.conds.iter().all(|(l, op, r)| {
            let val = |s: &CondSide| match s {
                CondSide::Col(i) => row[*i].clone(),
                CondSide::Lit(v) => v.clone(),
            };
            op.eval(&val(l), &val(r))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use beliefdb_storage::row;

    fn session() -> Session {
        let schema = ExternalSchema::new()
            .with_relation("Sightings", &["sid", "uid", "species", "date", "location"]);
        let mut s = Session::new(schema).unwrap();
        s.add_user("Alice").unwrap();
        s.add_user("Bob").unwrap();
        s.execute(
            "insert into BELIEF 'Alice' Sightings values \
             ('s2','Alice','crow','6-14-08','Lake Placid')",
        )
        .unwrap();
        s.execute(
            "insert into BELIEF 'Bob' Sightings values \
             ('s2','Alice','raven','6-14-08','Lake Placid')",
        )
        .unwrap();
        s
    }

    #[test]
    fn durable_session_round_trips_queries_and_stats() {
        use std::sync::atomic::{AtomicU64, Ordering};
        static N: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "beliefdb-session-{}-{}",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ));
        let schema = ExternalSchema::new()
            .with_relation("Sightings", &["sid", "uid", "species", "date", "location"]);
        let sql = "select S.sid, S.species from BELIEF 'Bob' Sightings as S";
        let (rows, stats) = {
            let mut s = Session::create(&dir, schema).unwrap();
            s.add_user("Alice").unwrap();
            s.add_user("Bob").unwrap();
            s.execute(
                "insert into BELIEF 'Alice' Sightings values \
                 ('s2','Alice','crow','6-14-08','Lake Placid')",
            )
            .unwrap();
            s.checkpoint().unwrap();
            s.execute(
                "insert into BELIEF 'Bob' Sightings values \
                 ('s2','Alice','raven','6-14-08','Lake Placid')",
            )
            .unwrap();
            (s.query(sql).unwrap(), s.bdms().stats())
        };
        let reopened = Session::open(&dir).unwrap();
        assert_eq!(reopened.query(sql).unwrap(), rows);
        assert_eq!(reopened.bdms().stats(), stats);
        // A second create in the same directory is refused.
        assert!(Session::create(&dir, ExternalSchema::new().with_relation("X", &["a"])).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn query_streaming_matches_collected_select() {
        let s = session();
        let sql = "select S.sid, S.species from BELIEF 'Bob' Sightings as S";
        let collected = s.query(sql).unwrap();
        let mut streamed = Vec::new();
        let (columns, n) = s.query_streaming(sql, |row| streamed.push(row)).unwrap();
        streamed.sort();
        assert_eq!(streamed, collected.rows());
        assert_eq!(n, collected.rows().len());
        assert_eq!(columns, collected.columns());
    }

    #[test]
    fn query_streaming_feeds_the_slowlog_when_armed() {
        let s = session();
        let sql = "select S.sid, S.species from BELIEF 'Bob' Sightings as S";
        s.set_slowlog_threshold_ms(Some(0));
        let mut streamed = Vec::new();
        let (columns, n) = s.query_streaming(sql, |row| streamed.push(row)).unwrap();
        s.set_slowlog_threshold_ms(None);
        let collected = s.query(sql).unwrap();
        // Same answers as the unarmed path...
        streamed.sort();
        assert_eq!(streamed, collected.rows());
        assert_eq!(n, collected.rows().len());
        assert_eq!(columns, collected.columns());
        // ...and the capture carries the span chain plus a full profile.
        let entries = s.slowlog_entries();
        let trace = entries
            .iter()
            .find(|t| t.statement == sql)
            .expect("streaming statement captured");
        for span in ["parse", "lower", "execute"] {
            assert!(
                trace.spans.iter().any(|s| s.name == span),
                "missing span {span}"
            );
        }
        assert!(trace.profile.as_deref().unwrap().contains("| actual "));
        s.clear_slowlog();
    }

    #[test]
    fn query_streaming_rejects_dml_and_handles_contradictions() {
        let s = session();
        assert!(s
            .query_streaming("insert into Sightings values ('a','b','c','d','e')", |_| {})
            .is_err());
        // Contradictory constants lower to "no query": zero rows, labels
        // still reported.
        let (columns, n) = s
            .query_streaming(
                "select S.sid from BELIEF 'Bob' Sightings as S \
                 where S.sid = 's1' and S.sid = 's2'",
                |_| panic!("no rows expected"),
            )
            .unwrap();
        assert_eq!(n, 0);
        assert_eq!(columns, vec!["S.sid".to_string()]);
    }

    #[test]
    fn memory_budget_threads_through_select_and_explain() {
        let mut s = session();
        let sql = "select S.sid, S.species from BELIEF 'Bob' Sightings as S";
        let want = s.query(sql).unwrap();
        assert_eq!(s.memory_budget(), None);
        s.set_memory_budget(Some(0));
        assert_eq!(s.memory_budget(), Some(0));
        // Identical answers under a zero budget (everything spills)...
        assert_eq!(s.query(sql).unwrap(), want);
        // ...and EXPLAIN carries the spill tags.
        let text = s.explain(sql).unwrap();
        assert!(text.contains("[spill budget="), "{text}");
        s.set_memory_budget(None);
        assert!(!s.explain(sql).unwrap().contains("[spill"));
    }

    #[test]
    fn explain_statement_form() {
        let s = session();
        let sql = "explain select S.sid from BELIEF 'Bob' Sightings as S";
        let result = s.query(sql).unwrap();
        let ExecResult::Explain(text) = &result else {
            panic!("expected EXPLAIN result, got {result:?}");
        };
        assert!(text.contains("belief conjunctive query"), "{text}");
        assert!(text.contains("Algorithm 1 translation"), "{text}");
        assert!(text.contains("optimized physical plans"), "{text}");
        assert!(text.contains("Scan"), "{text}");
        // Case-insensitive keyword, and execute() handles it too.
        let mut s = session();
        let upper = s.execute("EXPLAIN select S.sid from BELIEF 'Bob' Sightings as S");
        assert!(matches!(upper, Ok(ExecResult::Explain(_))));
    }

    #[test]
    fn explain_is_deterministic() {
        let s = session();
        let sql = "explain select S.sid, S.species from BELIEF 'Bob' Sightings as S";
        let a = s.query(sql).unwrap();
        let b = s.query(sql).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn explain_rejects_dml() {
        let s = session();
        assert!(s
            .query("explain insert into Sightings values ('x','y','z','d','l')")
            .is_err());
    }

    #[test]
    fn explain_display_renders_text() {
        let s = session();
        let result = s
            .query("explain select S.sid from BELIEF 'Bob' Sightings as S")
            .unwrap();
        assert!(result.to_string().contains("physical plans"));
        assert!(result.rows().is_empty());
        assert!(result.columns().is_empty());
    }

    #[test]
    fn strip_explain_parses_prefix_only() {
        assert!(strip_explain("explain select 1").is_some());
        assert!(strip_explain("  EXPLAIN  select 1").is_some());
        assert!(strip_explain("explainselect 1").is_none());
        assert!(strip_explain("select 1").is_none());
        assert!(strip_explain("ex").is_none());
        // ANALYZE is recognized only as a whole keyword after EXPLAIN.
        assert_eq!(
            strip_explain("explain analyze select 1").and_then(strip_analyze),
            Some("select 1")
        );
        assert_eq!(
            strip_explain("EXPLAIN ANALYZE  select 1").and_then(strip_analyze),
            Some("select 1")
        );
        assert!(strip_explain("explain analyzeselect 1")
            .and_then(strip_analyze)
            .is_none());
        assert!(strip_explain("explain select 1")
            .and_then(strip_analyze)
            .is_none());
    }

    #[test]
    fn explain_analyze_statement_form_reports_actuals() {
        let s = session();
        let sql = "explain analyze select S.sid, S.species from BELIEF 'Bob' Sightings as S";
        let result = s.query(sql).unwrap();
        let ExecResult::Explain(text) = &result else {
            panic!("expected EXPLAIN result, got {result:?}");
        };
        assert!(text.contains("belief conjunctive query"), "{text}");
        assert!(text.contains("analyzed physical plans"), "{text}");
        assert!(text.contains("| actual rows="), "{text}");
        assert!(text.contains("time="), "{text}");
        assert!(text.contains("row returned"), "{text}");
        // The actual root cardinality matches the executed SELECT.
        let plain = s
            .query("select S.sid, S.species from BELIEF 'Bob' Sightings as S")
            .unwrap();
        assert!(
            text.contains(&format!(
                "-- {} row{} returned",
                plain.rows().len(),
                if plain.rows().len() == 1 { "" } else { "s" }
            )),
            "{text}"
        );
        // execute() handles the form too, and DML is rejected.
        let mut s2 = session();
        assert!(matches!(
            s2.execute("EXPLAIN ANALYZE select S.sid from BELIEF 'Bob' Sightings as S"),
            Ok(ExecResult::Explain(_))
        ));
        assert!(s
            .query("explain analyze insert into Sightings values ('x','y','z','d','l')")
            .is_err());
    }

    #[test]
    fn sys_tables_queryable_and_read_only() {
        let mut s = session();
        let sel = "select S.sid, S.species from BELIEF 'Bob' Sightings as S";
        s.query(sel).unwrap();

        // sys.metrics is an ordinary relation mirroring the registry.
        let m = s.query("select * from sys.metrics").unwrap();
        assert_eq!(m.columns(), ["name", "value"]);
        assert!(!m.rows().is_empty());

        // WHERE + projection + alias over a virtual table.
        let w = s
            .query("select m.value from sys.metrics m where m.name = 'query.executed'")
            .unwrap();
        assert_eq!(w.rows().len(), 1);
        assert!(w.rows()[0][0].as_int().unwrap() > 0);

        // The acceptance query, end-to-end through the chunked executor.
        let top = s
            .query("SELECT * FROM sys.statements ORDER BY total_time_ns DESC LIMIT 5")
            .unwrap();
        assert_eq!(top.columns().len(), 13);
        assert!(top.rows().len() <= 5);
        // Rows really are sorted descending on total_time_ns (column 4).
        let times: Vec<i64> = top.rows().iter().map(|r| r[4].as_int().unwrap()).collect();
        assert!(times.windows(2).all(|w| w[0] >= w[1]), "{times:?}");

        // Our SELECT shows up fingerprinted with its literal normalized.
        let stmts = s.query("select statement from sys.statements").unwrap();
        assert!(
            stmts
                .rows()
                .iter()
                .any(|r| r[0].as_str().unwrap().contains("belief ? sightings")),
            "normalized statement missing"
        );

        // sys.tables lists the internal star tables.
        let t = s.query("select name from sys.tables").unwrap();
        assert!(t
            .rows()
            .iter()
            .any(|r| r[0] == Value::str("Sightings__star")));

        // The sys path never touches the plan cache.
        let before = s.bdms().plan_cache_stats();
        s.query("select * from sys.plan_cache").unwrap();
        s.query("select * from sys.slowlog").unwrap();
        s.query("select * from sys.wal").unwrap();
        let after = s.bdms().plan_cache_stats();
        assert_eq!(before.hits + before.misses, after.hits + after.misses);
        assert_eq!(before.entries, after.entries);

        // An in-memory session has an empty sys.wal.
        assert!(s.query("select * from sys.wal").unwrap().rows().is_empty());

        // DML against sys.* is refused with a clean error.
        for dml in [
            "insert into sys.metrics values (1)",
            "delete from sys.metrics",
            "update sys.metrics set value = 0",
        ] {
            let err = s.execute(dml).unwrap_err();
            assert!(err.to_string().contains("read-only"), "{dml}: {err}");
        }

        // BELIEF prefixes, joins with base tables, and unknown sys names
        // are clean errors too.
        assert!(s.query("select * from BELIEF 'Bob' sys.metrics").is_err());
        assert!(s.query("select * from sys.metrics, Sightings").is_err());
        assert!(s.query("select * from sys.nonexistent").is_err());
        // Streaming declines sys tables rather than mis-serving them.
        assert!(s
            .query_streaming("select * from sys.metrics", |_| {})
            .is_err());

        // EXPLAIN / EXPLAIN ANALYZE render the virtual-scan plan.
        let text = s
            .query("explain select * from sys.metrics")
            .unwrap()
            .to_string();
        // A virtual scan has no stored rows to count.
        assert!(text.contains("Scan sys.metrics (virtual)"), "{text}");
        let text = s
            .query("explain analyze select * from sys.metrics")
            .unwrap()
            .to_string();
        assert!(text.contains("| actual"), "{text}");
        assert!(text.contains("Scan sys.metrics (virtual)"), "{text}");
    }

    #[test]
    fn order_by_and_limit_post_process_belief_selects() {
        let mut s = session();
        s.execute(
            "insert into BELIEF 'Bob' Sightings values \
             ('s3','Bob','albatross','6-15-08','Lake Placid')",
        )
        .unwrap();
        let asc = s
            .query("select S.sid, S.species from BELIEF 'Bob' Sightings as S order by species")
            .unwrap();
        let species: Vec<&str> = asc.rows().iter().map(|r| r[1].as_str().unwrap()).collect();
        assert_eq!(species, ["albatross", "raven"]);
        let desc = s
            .query(
                "select S.sid, S.species from BELIEF 'Bob' Sightings as S \
                 order by S.species desc limit 1",
            )
            .unwrap();
        assert_eq!(desc.rows().len(), 1);
        assert_eq!(desc.rows()[0][1], Value::str("raven"));
        // A key outside the select list is an error, not a silent no-op.
        let err = s
            .query("select S.sid from BELIEF 'Bob' Sightings as S order by location")
            .unwrap_err();
        assert!(err.to_string().contains("ORDER BY"), "{err}");
        // Two users' conflicting sightings side by side: an unqualified
        // key naming both species columns is ambiguous, not silently the
        // first of them; qualifying it picks one.
        s.execute(
            "insert into BELIEF 'Alice' Sightings values \
             ('s4','Bob','zebra','6-15-08','Lake Placid')",
        )
        .unwrap();
        s.execute(
            "insert into BELIEF 'Bob' Sightings values \
             ('s4','Bob','auk','6-15-08','Lake Placid')",
        )
        .unwrap();
        let both = "select S1.species, S2.species \
                    from BELIEF 'Alice' Sightings as S1, BELIEF 'Bob' Sightings as S2 \
                    where S1.sid = S2.sid";
        let err = s
            .query(&format!("{both} order by species desc"))
            .unwrap_err();
        assert!(
            err.to_string()
                .contains("ORDER BY column `species` is ambiguous"),
            "{err}"
        );
        let by_bob = s
            .query(&format!("{both} order by S2.species desc"))
            .unwrap();
        assert_eq!(by_bob.rows(), [row!["crow", "raven"], row!["zebra", "auk"]]);
        // Streaming refuses ORDER BY / LIMIT instead of dropping them.
        assert!(s
            .query_streaming(
                "select S.sid from BELIEF 'Bob' Sightings as S limit 1",
                |_| {}
            )
            .is_err());
    }

    #[test]
    fn statement_stats_accumulate_for_session_statements() {
        use beliefdb_storage::obs::{fingerprint, statements_snapshot};
        let s = session();
        // A distinctive statement so parallel tests can't collide.
        let sql = "select S.sid from BELIEF 'Bob' Sightings as S \
                   where S.location = 'statement-stats-probe'";
        let fp = fingerprint(sql);
        let calls_before = statements_snapshot()
            .into_iter()
            .find(|st| st.fingerprint == fp)
            .map(|st| st.calls)
            .unwrap_or(0);
        s.query(sql).unwrap();
        s.query(sql).unwrap();
        let stat = statements_snapshot()
            .into_iter()
            .find(|st| st.fingerprint == fp)
            .expect("statement tracked");
        assert_eq!(stat.calls, calls_before + 2);
        assert!(stat.total_ns >= stat.min_ns);
        assert!(stat.max_ns >= stat.min_ns);
        // Different literals, same fingerprint: the probe normalizes to
        // the same text as a changed-literal variant.
        let variant = "select S.sid from BELIEF 'Bob' Sightings as S \
                       where S.location = 'another-literal'";
        assert_eq!(fp, fingerprint(variant));
        // Errors are counted, not dropped.
        let bad = "select S.nope from BELIEF 'Bob' Sightings as S \
                   where S.location = 'statement-stats-probe-err'";
        let bad_fp = fingerprint(bad);
        let _ = s.query(bad);
        let stat = statements_snapshot()
            .into_iter()
            .find(|st| st.fingerprint == bad_fp)
            .expect("failed statement tracked");
        assert!(stat.errors >= 1);
    }

    #[test]
    fn each_entry_point_records_one_call_and_a_redirect_none() {
        use beliefdb_storage::obs::{fingerprint, statements_snapshot};
        let mut s = session();
        let calls = |sql: &str| {
            let fp = fingerprint(sql);
            statements_snapshot()
                .into_iter()
                .find(|st| st.fingerprint == fp)
                .map_or(0, |st| st.calls)
        };
        // Aliases no other test uses, so parallel tests can't collide.
        let write = "delete from BELIEF 'Alice' Sightings as AcctDel where AcctDel.sid = 's9'";
        let read = "select AcctQ.sid from BELIEF 'Bob' Sightings as AcctQ";
        let streamed = "select AcctS.sid from BELIEF 'Bob' Sightings as AcctS";
        let redirected = "select AcctR.sid from BELIEF 'Bob' Sightings as AcctR order by sid";
        let before: Vec<u64> = [write, read, streamed, redirected].map(calls).into();
        s.execute(write).unwrap();
        s.query(read).unwrap();
        s.query_streaming(streamed, |_| {}).unwrap();
        // ORDER BY is not streamable: the rejection sends the caller to
        // query() and is not a statement execution of its own.
        let err = s.query_streaming(redirected, |_| {}).unwrap_err();
        assert!(err.to_string().contains(USE_QUERY), "{err}");
        let after: Vec<u64> = [write, read, streamed, redirected].map(calls).into();
        assert_eq!(
            after,
            [before[0] + 1, before[1] + 1, before[2] + 1, before[3]]
        );
        // The retry through query() is the one recorded call.
        s.query(redirected).unwrap();
        assert_eq!(calls(redirected), before[3] + 1);
    }

    #[test]
    fn slowlog_captures_sql_statements_with_spans() {
        let s = session();
        let sql = "select S.sid, S.species from BELIEF 'Bob' Sightings as S";
        // Unarmed, nothing is captured. (Another statement, so that the
        // armed run of `sql` below plans and executes.)
        assert_eq!(s.slowlog_threshold_ms(), None);
        s.query("select S.sid from BELIEF 'Bob' Sightings as S")
            .unwrap();
        assert!(s.slowlog_entries().is_empty());

        s.set_slowlog_threshold_ms(Some(0));
        s.query(sql).unwrap();
        let entries = s.slowlog_entries();
        assert_eq!(entries.len(), 1);
        let trace = &entries[0];
        assert_eq!(trace.statement, sql);
        let names: Vec<&str> = trace.spans.iter().map(|sp| sp.name).collect();
        for expected in [
            "parse",
            "lower",
            "translate",
            "cache_lookup",
            "execute",
            "sort",
        ] {
            assert!(
                names.contains(&expected),
                "missing span {expected}: {names:?}"
            );
        }
        assert!(
            trace.profile.as_deref().unwrap().contains("| actual"),
            "{trace:?}"
        );
        // Identical answers with the slowlog armed (profiled path).
        let plain = {
            s.set_slowlog_threshold_ms(None);
            s.query(sql).unwrap()
        };
        s.set_slowlog_threshold_ms(Some(0));
        assert_eq!(s.query(sql).unwrap(), plain);
        s.clear_slowlog();
        assert!(s.slowlog_entries().is_empty());
    }

    /// A positive UPDATE whose WHERE pins the external key finds its target
    /// through one slice probe; any other WHERE materializes the world.
    /// Both must report the same count and leave the same database.
    #[test]
    fn key_pinned_update_matches_the_world_scan() {
        use beliefdb_core::path::path;
        // Each statement, and the same selection written so that
        // `RowMatcher::pinned_key` does not recognize it.
        let unpin = |sql: &str| sql.replace("sid = 's2'", "sid >= 's2' and sid <= 's2'");
        let cases = [
            // One hit, at a state and at a world that only inherits.
            ("update BELIEF 'Alice' Sightings set location = 'X' where sid = 's2'", 1),
            ("update BELIEF 'Alice' Sightings set location = 'X' where 's2' = sid", 1),
            ("update BELIEF 'Bob' BELIEF 'Alice' Sightings set date = 'd' where sid = 's2'", 1),
            ("update Sightings set location = 'X' where sid = 's2'", 0),
            // The key matches, another condition or the assignment does not.
            ("update BELIEF 'Bob' Sightings set date = 'd' where sid = 's2' and species = 'crow'", 0),
            ("update BELIEF 'Bob' Sightings set species = 'raven' where sid = 's2'", 0),
            // No such key, and a key of another type.
            ("update BELIEF 'Alice' Sightings set location = 'X' where sid = 'zz'", 0),
            ("update BELIEF 'Alice' Sightings set location = 'X' where sid = 2", 0),
            // Never pinned: the fallback alone.
            ("update BELIEF 'Alice' Sightings set location = 'X' where species = 'crow'", 1),
        ];
        for (sql, expected) in cases {
            let (mut pinned, mut scanned) = (session(), session());
            let got = pinned.execute(sql).unwrap();
            assert_eq!(got, ExecResult::Updated(expected), "{sql}");
            assert_eq!(scanned.execute(&unpin(sql)).unwrap(), got, "{sql}");
            for p in [
                path(&[]),
                path(&[1]),
                path(&[2]),
                path(&[2, 1]),
                path(&[1, 2]),
            ] {
                assert_eq!(
                    pinned.bdms().world(&p).unwrap(),
                    scanned.bdms().world(&p).unwrap(),
                    "{sql} at {p}"
                );
            }
            assert_eq!(pinned.bdms().stats(), scanned.bdms().stats(), "{sql}");
        }
    }

    /// A DELETE, or an UPDATE of stated negatives, whose WHERE pins the
    /// external key finds its statements through one slice probe; any other
    /// WHERE lists the world. Both must report the same count and leave
    /// the same database.
    #[test]
    fn key_pinned_delete_matches_the_world_listing() {
        use beliefdb_core::path::path;
        let unpin = |sql: &str| sql.replace("sid = 's2'", "sid >= 's2' and sid <= 's2'");
        // Bob also states that the crow is wrong.
        let denial = "insert into BELIEF 'Bob' not Sightings values \
                      ('s2','Alice','crow','6-14-08','Lake Placid')";
        let cases = [
            // Hits: a positive, and one sign of a slice that holds both.
            (
                "delete from BELIEF 'Alice' Sightings where sid = 's2'",
                ExecResult::Deleted(1),
            ),
            (
                "delete from BELIEF 'Alice' Sightings where 's2' = sid",
                ExecResult::Deleted(1),
            ),
            (
                "delete from BELIEF 'Bob' Sightings where sid = 's2'",
                ExecResult::Deleted(1),
            ),
            (
                "delete from BELIEF 'Bob' not Sightings where sid = 's2'",
                ExecResult::Deleted(1),
            ),
            (
                "update BELIEF 'Bob' not Sightings set location = 'X' where sid = 's2'",
                ExecResult::Updated(1),
            ),
            // A path that only inherits states nothing, nor does the root.
            (
                "delete from BELIEF 'Bob' BELIEF 'Alice' Sightings where sid = 's2'",
                ExecResult::Deleted(0),
            ),
            (
                "delete from Sightings where sid = 's2'",
                ExecResult::Deleted(0),
            ),
            // The key matches, another condition does not.
            (
                "delete from BELIEF 'Bob' Sightings where sid = 's2' and species = 'crow'",
                ExecResult::Deleted(0),
            ),
            // No such key, and a key of another type.
            (
                "delete from BELIEF 'Alice' Sightings where sid = 'zz'",
                ExecResult::Deleted(0),
            ),
            (
                "delete from BELIEF 'Alice' Sightings where sid = 2",
                ExecResult::Deleted(0),
            ),
            // Never pinned: the listing alone.
            (
                "delete from BELIEF 'Alice' Sightings where species = 'crow'",
                ExecResult::Deleted(1),
            ),
        ];
        for (sql, expected) in cases {
            let (mut pinned, mut listed) = (session(), session());
            pinned.execute(denial).unwrap();
            listed.execute(denial).unwrap();
            let got = pinned.execute(sql).unwrap();
            assert_eq!(got, expected, "{sql}");
            assert_eq!(listed.execute(&unpin(sql)).unwrap(), got, "{sql}");
            for p in [
                path(&[]),
                path(&[1]),
                path(&[2]),
                path(&[2, 1]),
                path(&[1, 2]),
            ] {
                assert_eq!(
                    pinned.bdms().world(&p).unwrap(),
                    listed.bdms().world(&p).unwrap(),
                    "{sql} at {p}"
                );
            }
            assert_eq!(pinned.bdms().stats(), listed.bdms().stats(), "{sql}");
        }
    }
}
