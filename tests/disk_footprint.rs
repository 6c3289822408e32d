//! Footprint guard for the durable image: bytes on disk per annotation.
//!
//! A curated belief database grows for months, so what an annotation
//! costs in the WAL and in a snapshot is multiplied by the life of the
//! store. This test copies the `Lazy` Table 2 store at n = 2,000 into a
//! durable directory, one logged insert per explicit statement, and holds
//! two figures to budgets of the measured value + 15 %:
//!
//! * the live WAL (format v2: a varint length and a CRC a frame, the LSN
//!   implied, varint records) per annotation;
//! * the snapshot payload (format v6: each world as its parent and its
//!   last user, `R*` column by column with sorted front-coded string
//!   dictionaries and bit-packed codes, from 0 in a column without NULLs,
//!   statements grouped by world and delta-coded) per annotation, printed
//!   with the bytes of each section, so a regression names its section.
//!
//! History of the same store: 86.4 B of WAL and 68.1 B of snapshot an
//! annotation in the fixed-width formats (WAL v1, snapshot v3); 46.8 B and
//! 11.7 B in WAL v2 and snapshot v4 (93,630 and 23,419 B for 2,000
//! annotations); 5.9 B of snapshot in v5 (11,750 B); 5.1 B in v6 (10,131
//! B: worlds 1,302 → 688 B, tuples 7,436 → 6,431 B).
//!
//! A third figure is what a user keeps: the whole directory after a clean
//! close. The log has outgrown the snapshot, so close folds it into one
//! and deletes it; the snapshot file, its 28-byte header included, is held
//! to the snapshot budget.
//!
//! It also checks that the image is a function of the store: two
//! checkpoints of one store, and one of the store reopened from the first,
//! write the same bytes.

use beliefdb::core::persist::SnapshotData;
use beliefdb::core::prelude::*;
use beliefdb::core::{DefaultPolicy, PersistOptions};
use beliefdb::gen::generate_bdms_with_policy;
use beliefdb::gen::scenarios::table2_config;
use beliefdb::storage::persist::{list_segments, snapshot};
use std::path::Path;

/// Upper bound on live WAL bytes per annotation.
const MAX_WAL_BYTES_PER_ANNOTATION: f64 = 53.8;
/// Upper bound on snapshot payload bytes per annotation.
const MAX_SNAPSHOT_BYTES_PER_ANNOTATION: f64 = 5.8;

fn latest_snapshot(dir: &Path) -> Vec<u8> {
    snapshot::load_latest(dir).unwrap().unwrap().1
}

/// Bytes of every file in `dir`.
fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().metadata().unwrap().len())
        .sum()
}

#[test]
fn table2_store_stays_under_the_per_annotation_disk_budget() {
    let (src, _) =
        generate_bdms_with_policy(&table2_config(2_000, 7), DefaultPolicy::Lazy).unwrap();
    let statements = src.to_belief_database().unwrap().statements();
    let annotations = statements.len();
    assert!(annotations >= 2_000, "{annotations} annotations");

    let scratch = |tag: &str| {
        let dir = std::env::temp_dir().join(format!(
            "beliefdb-disk-footprint-{tag}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    };
    // Everything stays in the log until the explicit checkpoint below.
    let options = PersistOptions {
        checkpoint_threshold: u64::MAX,
        ..PersistOptions::default()
    };
    let durable_copy = |dir: &Path| {
        let mut copy = Bdms::create_with_options(dir, src.schema().clone(), options).unwrap();
        for u in src.users() {
            copy.add_user(src.user_name(u).unwrap().to_string())
                .unwrap();
        }
        for stmt in &statements {
            assert!(copy.insert_statement(stmt).unwrap().accepted(), "{stmt}");
        }
        assert_eq!(copy.to_belief_database().unwrap().len(), annotations);
        copy
    };
    let dir = scratch("checkpointed");
    let mut copy = durable_copy(&dir);

    let wal = copy.wal_stats().unwrap();
    let wal_per_annotation = wal.wal_bytes as f64 / annotations as f64;
    copy.checkpoint().unwrap();
    let image = latest_snapshot(&dir);
    let snapshot_per_annotation = image.len() as f64 / annotations as f64;
    println!(
        "{annotations} annotations: WAL {} B in {} segments, {wal_per_annotation:.1} B per \
         annotation; snapshot {} B, {snapshot_per_annotation:.1} B per annotation",
        wal.wal_bytes,
        wal.segments,
        image.len()
    );
    let (_, sections) = SnapshotData::decode_sections(&image).unwrap();
    println!(
        "snapshot sections: header {} B, worlds {} B, tuples {} B, statements {} B",
        sections.header, sections.worlds, sections.tuples, sections.statements
    );
    assert_eq!(image[0], 6, "snapshot format version");
    assert!(
        wal_per_annotation <= MAX_WAL_BYTES_PER_ANNOTATION,
        "{wal_per_annotation:.1} B of WAL per annotation, budget {MAX_WAL_BYTES_PER_ANNOTATION} B"
    );
    assert!(
        snapshot_per_annotation <= MAX_SNAPSHOT_BYTES_PER_ANNOTATION,
        "{snapshot_per_annotation:.1} B of snapshot per annotation, \
         budget {MAX_SNAPSHOT_BYTES_PER_ANNOTATION} B"
    );

    // The same store encodes to the same bytes, before and after a reopen.
    copy.checkpoint().unwrap();
    assert!(
        latest_snapshot(&dir) == image,
        "a second checkpoint wrote other bytes"
    );
    let want = copy.stats();
    drop(copy);
    let mut reopened = Bdms::open(&dir).unwrap();
    assert_eq!(reopened.stats(), want);
    reopened.checkpoint().unwrap();
    assert!(
        latest_snapshot(&dir) == image,
        "the reopened store wrote other bytes"
    );
    drop(reopened);
    std::fs::remove_dir_all(&dir).unwrap();

    // The directory a clean close leaves: one snapshot, no log.
    let dir = scratch("closed");
    durable_copy(&dir).close().unwrap();
    assert!(list_segments(&dir).unwrap().is_empty());
    assert_eq!(snapshot::list_snapshots(&dir).unwrap().len(), 1);
    assert!(latest_snapshot(&dir) == image, "close wrote other bytes");
    let closed_per_annotation = dir_bytes(&dir) as f64 / annotations as f64;
    println!(
        "closed directory {} B, {closed_per_annotation:.1} B per annotation",
        dir_bytes(&dir)
    );
    assert!(
        closed_per_annotation <= MAX_SNAPSHOT_BYTES_PER_ANNOTATION,
        "{closed_per_annotation:.1} B on disk per annotation after close, \
         budget {MAX_SNAPSHOT_BYTES_PER_ANNOTATION} B"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}
