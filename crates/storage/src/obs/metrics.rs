//! The engine-wide metrics registry.
//!
//! A fixed set of named counters ([`Metric`]) plus a query-latency
//! histogram, shared by every subsystem in the process. Increments are
//! relaxed atomic adds into one of a few thread-sharded slots — no
//! locks, no allocation, safe to call from the executor's hot loops
//! (which batch per chunk, not per row). [`metrics`]`()` returns the
//! global registry; [`MetricsRegistry::snapshot`] sums the shards into
//! an immutable [`MetricsSnapshot`].
//!
//! Counters are **monotonic since process start** and process-wide (the
//! engine is embedded; sessions share one process). A per-session view
//! — what the planned multi-session server will scrape — is the
//! difference of two snapshots, which monotonicity makes exact.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Every counter the registry tracks. Stable names (rendered by
/// [`Metric::name`]) are the scrape interface; add variants at the end
/// and keep [`Metric::ALL`] in sync.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Metric {
    /// BCQ evaluations started (collected + streaming).
    QueriesExecuted,
    /// Datalog plan-cache lookups that were served from cache.
    PlanCacheHits,
    /// Datalog plan-cache lookups that had to plan from scratch.
    PlanCacheMisses,
    /// WAL records appended.
    WalAppends,
    /// WAL fsyncs issued (group commits, checkpoints, rotations).
    WalSyncs,
    /// Snapshot checkpoints written.
    WalCheckpoints,
    /// Spill run files created (join and distinct partitions, overflow
    /// runs of buffered right sides).
    SpillRunFiles,
    /// Chunk-buffer requests served from the thread-local pool.
    PoolHits,
    /// Chunk-buffer requests that had to allocate fresh.
    PoolMisses,
    /// Rows read by leaf operators (table scans and literal `Values`).
    RowsScanned,
    /// Rows delivered by finished plan executions.
    RowsEmitted,
    /// Queries captured by the slow-query log.
    SlowQueries,
    /// Columnar chunks produced by leaf scans (table-storage windows
    /// sliced without cloning rows).
    ColumnarChunks,
    /// Bytes written to spill run files (framed block payloads).
    SpillBytes,
}

impl Metric {
    pub const ALL: [Metric; 14] = [
        Metric::QueriesExecuted,
        Metric::PlanCacheHits,
        Metric::PlanCacheMisses,
        Metric::WalAppends,
        Metric::WalSyncs,
        Metric::WalCheckpoints,
        Metric::SpillRunFiles,
        Metric::PoolHits,
        Metric::PoolMisses,
        Metric::RowsScanned,
        Metric::RowsEmitted,
        Metric::SlowQueries,
        Metric::ColumnarChunks,
        Metric::SpillBytes,
    ];

    const COUNT: usize = Metric::ALL.len();

    /// The counter's stable dotted name (the scrape / `\metrics` key).
    pub fn name(self) -> &'static str {
        match self {
            Metric::QueriesExecuted => "query.executed",
            Metric::PlanCacheHits => "plan_cache.hits",
            Metric::PlanCacheMisses => "plan_cache.misses",
            Metric::WalAppends => "wal.appends",
            Metric::WalSyncs => "wal.syncs",
            Metric::WalCheckpoints => "wal.checkpoints",
            Metric::SpillRunFiles => "spill.run_files",
            Metric::PoolHits => "pool.hits",
            Metric::PoolMisses => "pool.misses",
            Metric::RowsScanned => "exec.rows_scanned",
            Metric::RowsEmitted => "exec.rows_emitted",
            Metric::SlowQueries => "slowlog.captured",
            Metric::ColumnarChunks => "exec.columnar_chunks",
            Metric::SpillBytes => "spill.bytes",
        }
    }
}

/// Shard count: enough that a handful of concurrent sessions rarely
/// collide on a cache line, small enough that snapshots stay trivial.
const SHARDS: usize = 8;

/// Latency histogram buckets: bucket `i` counts samples in
/// `[2^i, 2^(i+1))` nanoseconds.
const BUCKETS: usize = 48;

struct Shard {
    counters: [AtomicU64; Metric::COUNT],
}

/// The registry: sharded counters plus one query-latency histogram.
pub struct MetricsRegistry {
    shards: [Shard; SHARDS],
    latency_buckets: [AtomicU64; BUCKETS],
    latency_count: AtomicU64,
    latency_sum_nanos: AtomicU64,
}

static REGISTRY: MetricsRegistry = MetricsRegistry {
    shards: [const {
        Shard {
            counters: [const { AtomicU64::new(0) }; Metric::COUNT],
        }
    }; SHARDS],
    latency_buckets: [const { AtomicU64::new(0) }; BUCKETS],
    latency_count: AtomicU64::new(0),
    latency_sum_nanos: AtomicU64::new(0),
};

/// The process-wide registry.
pub fn metrics() -> &'static MetricsRegistry {
    &REGISTRY
}

/// Each thread owns one shard index for its lifetime (round-robin
/// assignment; reuse across short-lived threads is harmless).
fn shard_index() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static IDX: usize = NEXT.fetch_add(1, Ordering::Relaxed) % SHARDS;
    }
    IDX.with(|i| *i)
}

impl MetricsRegistry {
    /// Add `n` to a counter. Relaxed atomic add — no allocation.
    #[inline]
    pub fn add(&self, metric: Metric, n: u64) {
        self.shards[shard_index()].counters[metric as usize].fetch_add(n, Ordering::Relaxed);
    }

    /// Increment a counter by one.
    #[inline]
    pub fn incr(&self, metric: Metric) {
        self.add(metric, 1);
    }

    /// Record one query's wall time in the latency histogram.
    pub fn record_latency(&self, nanos: u64) {
        let bucket = (63 - (nanos | 1).leading_zeros() as usize).min(BUCKETS - 1);
        self.latency_buckets[bucket].fetch_add(1, Ordering::Relaxed);
        self.latency_count.fetch_add(1, Ordering::Relaxed);
        self.latency_sum_nanos.fetch_add(nanos, Ordering::Relaxed);
    }

    /// Sum the shards into an immutable snapshot.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut counters = [0u64; Metric::COUNT];
        for shard in &self.shards {
            for (i, c) in shard.counters.iter().enumerate() {
                counters[i] += c.load(Ordering::Relaxed);
            }
        }
        let mut latency_buckets = [0u64; BUCKETS];
        for (i, b) in self.latency_buckets.iter().enumerate() {
            latency_buckets[i] = b.load(Ordering::Relaxed);
        }
        MetricsSnapshot {
            counters,
            latency_buckets,
            latency_count: self.latency_count.load(Ordering::Relaxed),
            latency_sum_nanos: self.latency_sum_nanos.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time copy of every counter. Monotonic: subtract an older
/// snapshot for a per-interval (or per-session) view.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricsSnapshot {
    counters: [u64; Metric::COUNT],
    latency_buckets: [u64; BUCKETS],
    latency_count: u64,
    latency_sum_nanos: u64,
}

impl MetricsSnapshot {
    pub fn get(&self, metric: Metric) -> u64 {
        self.counters[metric as usize]
    }

    /// `(name, value)` for every counter, in declaration order.
    pub fn counters(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        Metric::ALL.iter().map(|m| (m.name(), self.get(*m)))
    }

    /// Queries measured by the latency histogram.
    pub fn latency_count(&self) -> u64 {
        self.latency_count
    }

    /// Mean query latency in nanoseconds (0 when nothing was measured).
    pub fn latency_mean_nanos(&self) -> u64 {
        self.latency_sum_nanos
            .checked_div(self.latency_count)
            .unwrap_or(0)
    }

    /// Upper bound (ns) of the bucket holding the `q`-quantile sample
    /// (`q` in `[0, 1]`); 0 when nothing was measured. Log-bucketed, so
    /// accurate to a factor of two — plenty for "is p99 a millisecond
    /// or a second".
    pub fn latency_quantile_nanos(&self, q: f64) -> u64 {
        if self.latency_count == 0 {
            return 0;
        }
        let rank = ((self.latency_count as f64) * q).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, n) in self.latency_buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return 1u64 << (i + 1);
            }
        }
        1u64 << BUCKETS
    }

    /// Number of latency-histogram buckets (bucket `i` covers
    /// `[2^i, 2^(i+1))` nanoseconds).
    pub const LATENCY_BUCKETS: usize = BUCKETS;

    /// Samples in latency bucket `i` (see [`MetricsSnapshot::LATENCY_BUCKETS`]).
    pub fn latency_bucket(&self, i: usize) -> u64 {
        self.latency_buckets[i]
    }

    /// Total measured query latency in nanoseconds.
    pub fn latency_sum_nanos(&self) -> u64 {
        self.latency_sum_nanos
    }

    /// `self - older`, counter-wise (saturating): the per-interval view.
    pub fn since(&self, older: &MetricsSnapshot) -> MetricsSnapshot {
        let mut out = self.clone();
        for i in 0..Metric::COUNT {
            out.counters[i] = self.counters[i].saturating_sub(older.counters[i]);
        }
        for i in 0..BUCKETS {
            out.latency_buckets[i] =
                self.latency_buckets[i].saturating_sub(older.latency_buckets[i]);
        }
        out.latency_count = self.latency_count.saturating_sub(older.latency_count);
        out.latency_sum_nanos = self
            .latency_sum_nanos
            .saturating_sub(older.latency_sum_nanos);
        out
    }
}

/// Render a snapshot in the Prometheus text exposition format (the
/// future server's `/metrics` endpoint body): one `counter` family per
/// [`Metric`] (dots in the stable name become underscores, prefixed
/// `beliefdb_`) plus the query-latency histogram as a cumulative
/// `histogram` family in seconds.
pub fn render_prometheus(snap: &MetricsSnapshot) -> String {
    let mut out = String::new();
    for (name, value) in snap.counters() {
        let prom = format!("beliefdb_{}", name.replace('.', "_"));
        out.push_str(&format!("# TYPE {prom} counter\n{prom} {value}\n"));
    }
    out.push_str("# TYPE beliefdb_query_latency_seconds histogram\n");
    let mut cumulative = 0u64;
    for i in 0..MetricsSnapshot::LATENCY_BUCKETS {
        cumulative += snap.latency_bucket(i);
        // Upper bound of bucket i is 2^(i+1) ns, rendered in seconds.
        let le = (1u128 << (i + 1)) as f64 * 1e-9;
        out.push_str(&format!(
            "beliefdb_query_latency_seconds_bucket{{le=\"{le:e}\"}} {cumulative}\n"
        ));
    }
    out.push_str(&format!(
        "beliefdb_query_latency_seconds_bucket{{le=\"+Inf\"}} {}\n",
        snap.latency_count()
    ));
    out.push_str(&format!(
        "beliefdb_query_latency_seconds_sum {:e}\n",
        snap.latency_sum_nanos() as f64 * 1e-9
    ));
    out.push_str(&format!(
        "beliefdb_query_latency_seconds_count {}\n",
        snap.latency_count()
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_and_snapshot_round_trip() {
        let before = metrics().snapshot();
        metrics().incr(Metric::SpillRunFiles);
        metrics().add(Metric::RowsScanned, 41);
        metrics().add(Metric::RowsScanned, 1);
        let after = metrics().snapshot();
        let delta = after.since(&before);
        assert_eq!(delta.get(Metric::SpillRunFiles), 1);
        assert_eq!(delta.get(Metric::RowsScanned), 42);
        assert_eq!(delta.get(Metric::WalAppends), 0);
        assert_eq!(delta.counters().count(), Metric::ALL.len());
    }

    #[test]
    fn latency_histogram_buckets_by_log2() {
        let before = metrics().snapshot();
        metrics().record_latency(1_000);
        metrics().record_latency(1_000_000);
        let delta = metrics().snapshot().since(&before);
        assert_eq!(delta.latency_count(), 2);
        assert_eq!(delta.latency_mean_nanos(), 500_500);
        // The median sample (1µs) lands in the [512, 1024) ns bucket.
        assert!(delta.latency_quantile_nanos(0.5) >= 1_024);
        assert!(delta.latency_quantile_nanos(0.5) <= 2_048);
        assert!(delta.latency_quantile_nanos(1.0) >= 1 << 20);
    }

    #[test]
    fn prometheus_rendering_round_trips() {
        metrics().incr(Metric::QueriesExecuted);
        metrics().record_latency(1_000_000);
        let snap = metrics().snapshot();
        let text = render_prometheus(&snap);

        // Parse the exposition text back: `name{labels} value` lines.
        let mut counters: std::collections::HashMap<&str, u64> = std::collections::HashMap::new();
        let mut buckets: Vec<(f64, u64)> = Vec::new();
        let mut hist_count = None;
        for line in text.lines() {
            if line.starts_with('#') {
                continue;
            }
            let (key, value) = line.rsplit_once(' ').expect("metric line");
            if let Some(rest) = key.strip_prefix("beliefdb_query_latency_seconds_bucket{le=\"") {
                let le = rest.trim_end_matches("\"}");
                let bound = if le == "+Inf" {
                    f64::INFINITY
                } else {
                    le.parse::<f64>().expect("bucket bound")
                };
                buckets.push((bound, value.parse().expect("bucket count")));
            } else if key == "beliefdb_query_latency_seconds_count" {
                hist_count = Some(value.parse::<u64>().expect("count"));
            } else if key == "beliefdb_query_latency_seconds_sum" {
                assert!(value.parse::<f64>().expect("sum") >= 0.0);
            } else {
                counters.insert(key, value.parse().expect("counter value"));
            }
        }

        // Every Metric round-trips by its prometheus name and value.
        assert_eq!(counters.len(), Metric::ALL.len());
        for m in Metric::ALL {
            let prom = format!("beliefdb_{}", m.name().replace('.', "_"));
            assert_eq!(counters.get(prom.as_str()), Some(&snap.get(m)), "{prom}");
        }
        // Histogram: bounds ascend, counts are cumulative, +Inf == count.
        assert_eq!(buckets.len(), MetricsSnapshot::LATENCY_BUCKETS + 1);
        for pair in buckets.windows(2) {
            assert!(pair[0].0 < pair[1].0);
            assert!(pair[0].1 <= pair[1].1);
        }
        assert_eq!(hist_count, Some(snap.latency_count()));
        assert_eq!(buckets.last().expect("+Inf").1, snap.latency_count());
        // The cumulative count at each bound matches the snapshot.
        let mut cumulative = 0;
        for (i, bucket) in buckets
            .iter()
            .enumerate()
            .take(MetricsSnapshot::LATENCY_BUCKETS)
        {
            cumulative += snap.latency_bucket(i);
            assert_eq!(bucket.1, cumulative);
        }
    }

    #[test]
    fn names_are_unique_and_stable() {
        let mut names: Vec<_> = Metric::ALL.iter().map(|m| m.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Metric::ALL.len());
        assert_eq!(Metric::PlanCacheHits.name(), "plan_cache.hits");
    }
}
