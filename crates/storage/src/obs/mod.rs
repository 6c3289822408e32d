//! # Observability: execution profiles, metrics, tracing
//!
//! The engine's three introspection faces, all in-tree (the build is
//! offline) and all built so the **disabled path costs one branch and
//! zero allocations** (guarded by `tests/obs_overhead.rs`):
//!
//! * [`profile`] — per-operator execution profiles. A [`Profile`] tree
//!   mirrors the physical [`Plan`](crate::plan::Plan): every operator
//!   the executor opens records actual rows/chunks out, kernel-vs-
//!   fallback row counts, spill bytes/partitions/passes, peak build
//!   memory, and inclusive wall time. Surfaced as `EXPLAIN ANALYZE` via
//!   [`crate::opt::explain::render_analyze`].
//! * [`metrics`](mod@metrics) — a process-wide sharded-counter registry unifying the
//!   engine's scattered counters (plan-cache hits/misses, WAL
//!   appends/syncs/checkpoints, spill run files, chunk-pool recycling,
//!   rows scanned/emitted) plus a query-latency histogram. Counters are
//!   monotonic, so a per-session scraper (the future server) can diff
//!   snapshots.
//! * [`trace`] — structured span recording ([`Recorder`]) and a
//!   ring-buffer slow-query log ([`SlowLog`]) that captures the full
//!   profile of any query whose wall time crosses a settable threshold.

//! * [`statements`] — fingerprinted cumulative statement statistics
//!   (the `pg_stat_statements` idea): literals stripped, text hashed,
//!   per-fingerprint totals in a bounded sharded map.
//! * [`catalog`] — `sys.*` virtual-table providers exposing all of the
//!   above (plus the base-table catalog, plan cache, and WAL) as
//!   ordinary relations queryable through the engine itself.

pub mod catalog;
pub mod metrics;
pub mod profile;
pub mod statements;
pub mod trace;

pub use catalog::{
    metrics_table, plan_cache_table, slowlog_table, statements_table, tables_table, wal_table,
    FnTable,
};
pub use metrics::{metrics, render_prometheus, Metric, MetricsSnapshot};
pub use profile::{NodeObs, ProfNode, Profile};
pub use statements::{
    clear_statements, fingerprint, normalize_statement, note_statement_peak, record_statement,
    set_statements_enabled, statements_enabled, statements_snapshot, StatementObs, StatementStats,
};
pub use trace::{QueryTrace, Recorder, SlowLog, SpanRecord};
