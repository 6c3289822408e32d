//! Every evaluated SELECT is counted: `query.executed` and the latency
//! histogram see a streamed query exactly like a collected one.
//!
//! The metrics registry is process-global, so this binary holds a single
//! `#[test]` — no other thread runs a query between the two snapshots,
//! and the deltas can be asserted exactly.

use beliefdb::core::bcq::dsl::*;
use beliefdb::core::bcq::Bcq;
use beliefdb::core::{running_example, Bdms};
use beliefdb::storage::{metrics, Metric};

#[test]
fn streaming_queries_are_counted_like_collected_ones() {
    let (db, _, bob, _) = running_example();
    let bdms = Bdms::from_belief_database(&db).unwrap();
    let s = bdms.schema().relation_id("Sightings").unwrap();
    let q = Bcq::builder(vec![qv("sid")])
        .positive(
            vec![pu(bob)],
            s,
            vec![qv("sid"), qany(), qany(), qany(), qany()],
        )
        .build(bdms.schema())
        .unwrap();

    let before = metrics().snapshot();
    let mut streamed = Vec::new();
    bdms.query_streaming(&q, |row| streamed.push(row)).unwrap();
    let delta = metrics().snapshot().since(&before);
    assert!(!streamed.is_empty());
    assert_eq!(delta.get(Metric::QueriesExecuted), 1, "{delta:?}");
    assert_eq!(delta.latency_count(), 1, "{delta:?}");

    // The collected path counts the same way.
    let before = metrics().snapshot();
    bdms.query(&q).unwrap();
    let delta = metrics().snapshot().since(&before);
    assert_eq!(delta.get(Metric::QueriesExecuted), 1, "{delta:?}");
    assert_eq!(delta.latency_count(), 1, "{delta:?}");
}
