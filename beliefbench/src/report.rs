//! Metric names, units and directions, and how each value is computed
//! from what a pass measured. `BENCHMARK.json` lists exactly these names.

use crate::runner::Class;
use crate::stats::Samples;
use crate::workloads::{cell_slugs, PassReport};

/// `(name, unit, better)`.
pub type MetricDef = (String, &'static str, &'static str);

const LOWER: &str = "lower";
const HIGHER: &str = "higher";

/// The end-to-end metrics: what a user of the store sees, as far as the
/// reference machine measures it steadily. Throughput and latency are
/// `session.*` layer metrics for that reason (see the README).
pub fn end_to_end_defs() -> Vec<MetricDef> {
    [
        ("setup_s", "s", LOWER),
        ("overhead_ratio", "ratio", LOWER),
        ("disk_bytes_per_annotation", "B", LOWER),
        ("peak_rss_mb", "MB", LOWER),
    ]
    .into_iter()
    .map(|(n, u, b)| (n.to_string(), u, b))
    .collect()
}

/// The per-layer metrics, named `<module>.<metric>`.
pub fn per_layer_defs() -> Vec<MetricDef> {
    let mut defs: Vec<MetricDef> = [
        ("session.stmt_per_s", "1/s", HIGHER),
        ("session.q1_p50_us", "us", LOWER),
        ("session.q2_p50_us", "us", LOWER),
        ("session.q3_p50_us", "us", LOWER),
        ("session.probe_p50_us", "us", LOWER),
        ("session.insert_p50_us", "us", LOWER),
        ("session.delete_p50_us", "us", LOWER),
        ("session.update_p50_us", "us", LOWER),
        ("session.q1_p95_us", "us", LOWER),
        ("session.q2_p95_us", "us", LOWER),
        ("session.q3_p95_us", "us", LOWER),
        ("session.probe_p95_us", "us", LOWER),
        ("session.insert_p95_us", "us", LOWER),
        ("session.delete_p95_us", "us", LOWER),
        ("session.update_p95_us", "us", LOWER),
        ("session.read_p99_us", "us", LOWER),
        ("session.write_p99_us", "us", LOWER),
        ("session.write_max_ms", "ms", LOWER),
        ("session.self_ns_p50", "ns", LOWER),
        ("session.rows_returned", "count", LOWER),
        ("lexer.tokenize_ns_p50", "ns", LOWER),
        ("lexer.tokens", "count", LOWER),
        ("parser.parse_ns_p50", "ns", LOWER),
        ("lower.select_ns_p50", "ns", LOWER),
        ("lower.dml_ns_p50", "ns", LOWER),
        ("translate.alg1_ns_p50", "ns", LOWER),
        ("translate.rules", "count", LOWER),
        ("magic.rewrite_ns_p50", "ns", LOWER),
        ("magic.rules_out", "count", LOWER),
        ("datalog.cache_key_ns_p50", "ns", LOWER),
        ("datalog.cache_lookup_ns_p50", "ns", LOWER),
        ("datalog.plan_cache_hits", "count", HIGHER),
        ("datalog.plan_cache_misses", "count", LOWER),
        ("datalog.plan_cache_hit_ratio", "ratio", HIGHER),
        ("opt.stats_ns_p50", "ns", LOWER),
        ("opt.plan_ns_p50", "ns", LOWER),
        ("exec.run_ns_p50", "ns", LOWER),
        ("exec.rows_scanned", "count", LOWER),
        ("exec.rows_emitted", "count", LOWER),
        ("exec.scanned_per_returned", "ratio", LOWER),
        ("exec.columnar_chunks", "count", LOWER),
        ("exec.pool_hit_ratio", "ratio", HIGHER),
        ("exec.spill_bytes", "B", LOWER),
        ("table.seq_scans", "count", LOWER),
        ("table.index_probes", "count", LOWER),
        ("table.rows_read", "count", LOWER),
        ("table.transpose_rebuilds", "count", LOWER),
        ("worlds.resolve_ns_p50", "ns", LOWER),
        ("worlds.count", "count", LOWER),
        ("ops.scan_ns_p50", "ns", LOWER),
        ("ops.insert_ns_p50", "ns", LOWER),
        ("ops.delete_ns_p50", "ns", LOWER),
        ("ops.update_ns_p50", "ns", LOWER),
        ("ops.attempted", "count", LOWER),
        ("ops.accepted", "count", HIGHER),
        ("ops.accept_ratio", "ratio", HIGHER),
        ("ops.tuples_per_annotation", "ratio", LOWER),
        ("core_persist.encode_ns_p50", "ns", LOWER),
        ("wal.append_ns_p50", "ns", LOWER),
        ("wal.appends", "count", LOWER),
        ("wal.bytes", "B", LOWER),
        ("wal.bytes_per_stmt", "B", LOWER),
        ("wal.syncs", "count", LOWER),
        ("wal.segments", "count", LOWER),
        ("snapshot.checkpoints", "count", LOWER),
        ("snapshot.checkpoint_ms_p50", "ms", LOWER),
        ("snapshot.stall_share", "ratio", LOWER),
        ("snapshot.bytes", "B", LOWER),
        ("recover.reopen_s", "s", LOWER),
        ("recover.snapshot_load_ms", "ms", LOWER),
        ("recover.replay_ms", "ms", LOWER),
        ("recover.records_replayed", "count", LOWER),
        ("recover.tuples_per_s", "1/s", HIGHER),
        ("trace.overhead_ratio", "ratio", HIGHER),
        ("trace.spans", "count", LOWER),
    ]
    .into_iter()
    .map(|(n, u, b)| (n.to_string(), u, b))
    .collect();
    for slug in cell_slugs() {
        defs.push((format!("ops.cell_s.{slug}"), "s", LOWER));
    }
    for slug in cell_slugs() {
        defs.push((format!("ops.overhead.{slug}"), "ratio", LOWER));
    }
    defs
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Timed statements of the main loop ÷ the sum of their latencies.
pub fn stmt_per_s(pass: &PassReport) -> f64 {
    let main = &pass.main.latencies;
    ratio(main.statements() as f64, main.total_ns() as f64 / 1e9)
}

/// Values of the end-to-end metrics, in [`end_to_end_defs`] order.
pub fn end_to_end_values(pass: &PassReport) -> Vec<f64> {
    vec![
        pass.setup_s,
        ratio(pass.tuples as f64, pass.annotations as f64),
        ratio(pass.disk_bytes as f64, pass.reopened_annotations as f64),
        pass.peak_rss_mb,
    ]
}

/// Values of the per-layer metrics, in [`per_layer_defs`] order, from the
/// two passes of a traced run.
pub fn per_layer_values(untraced: &PassReport, traced: &PassReport) -> Vec<f64> {
    // What `Session` took per statement comes from the untraced pass: the
    // traced pass goes around `Session` wherever it can.
    let lat = &untraced.main.latencies;
    let p50 = |c: Class| us(lat.get(c).clone().median());
    let p95 = |c: Class| us(lat.get(c).clone().p95());
    let mut reads = lat.pooled(true);
    let mut writes = lat.pooled(false);
    // A statement that wrote a checkpoint: its latency over its class's
    // median is the checkpoint.
    let mut checkpoint_ns = Samples::default();
    for (class, ns) in &untraced.main.counts.checkpoint_stmts {
        checkpoint_ns.push(ns.saturating_sub(lat.get(*class).clone().median()));
    }

    let tracer = traced.runner.tracer.as_ref();
    let mut own = tracer.map(|t| t.self_times()).unwrap_or_default();
    let mut layer = |span: &str| own.get_mut(span).map_or(0.0, |s| s.median() as f64);
    // Counts describe the main loop of the traced pass.
    let c = &traced.counters;
    let n = &traced.main.counts;

    let mut values = vec![
        stmt_per_s(untraced),
        p50(Class::Q1),
        p50(Class::Q2),
        p50(Class::Q3),
        p50(Class::Probe),
        p50(Class::Insert),
        p50(Class::Delete),
        p50(Class::Update),
        p95(Class::Q1),
        p95(Class::Q2),
        p95(Class::Q3),
        p95(Class::Probe),
        p95(Class::Insert),
        p95(Class::Delete),
        p95(Class::Update),
        us(reads.p99()),
        us(writes.p99()),
        writes.max() as f64 / 1e6,
        layer("session"),
        n.rows_returned as f64,
        layer("lexer.tokenize"),
        n.tokens as f64,
        layer("parser.parse"),
        layer("lower.select"),
        layer("lower.dml"),
        layer("translate.alg1"),
        n.translate_rules as f64,
        layer("magic.rewrite"),
        n.magic_rules_out as f64,
        layer("datalog.cache_key"),
        layer("datalog.cache_lookup"),
        c.plan_cache_hits as f64,
        c.plan_cache_misses as f64,
        ratio(
            c.plan_cache_hits as f64,
            (c.plan_cache_hits + c.plan_cache_misses) as f64,
        ),
        layer("opt.stats"),
        layer("opt.plan"),
        layer("exec.run"),
        c.rows_scanned as f64,
        c.rows_emitted as f64,
        ratio(c.rows_scanned as f64, n.rows_returned as f64),
        c.columnar_chunks as f64,
        ratio(c.pool_hits as f64, (c.pool_hits + c.pool_misses) as f64),
        c.spill_bytes as f64,
        c.seq_scans as f64,
        c.index_probes as f64,
        c.rows_read as f64,
        c.transpose_rebuilds as f64,
        layer("worlds.resolve"),
        traced.worlds as f64,
        layer("ops.scan"),
        layer("ops.insert"),
        layer("ops.delete"),
        layer("ops.update"),
        traced.inserts_attempted as f64,
        traced.inserts_accepted as f64,
        ratio(
            traced.inserts_accepted as f64,
            traced.inserts_attempted as f64,
        ),
        ratio(traced.tuples as f64, traced.annotations as f64),
        layer("core_persist.encode"),
        layer("wal.append"),
        c.wal_appends as f64,
        n.wal_bytes_appended as f64,
        ratio(n.wal_bytes_appended as f64, c.wal_appends as f64),
        c.wal_syncs as f64,
        traced.wal_segments as f64,
        c.checkpoints as f64,
        checkpoint_ns.median() as f64 / 1e6,
        ratio(checkpoint_ns.sum() as f64, lat.total_ns() as f64),
        traced.snapshot_bytes as f64,
        untraced.reopen_s,
        traced.recover.snapshot_load_ms,
        traced.recover.replay_ms,
        traced.recover.records_replayed as f64,
        ratio(untraced.reopened_tuples as f64, untraced.reopen_s),
        ratio(stmt_per_s(traced), stmt_per_s(untraced)),
        tracer.map_or(0, |t| t.len()) as f64,
    ];
    let cell = |slug: &str| traced.cells.iter().find(|c| c.slug == slug);
    for slug in cell_slugs() {
        values.push(cell(&slug).map_or(0.0, |c| c.seconds));
    }
    for slug in cell_slugs() {
        values.push(cell(&slug).map_or(0.0, |c| ratio(c.tuples as f64, c.accepted as f64)));
    }
    values
}
