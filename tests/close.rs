//! Closing a durable store.
//!
//! [`Bdms::close`] (and dropping a store) folds a log that has outgrown
//! the newest snapshot into one new snapshot and deletes the log, so the
//! directory keeps that snapshot alone; a smaller log stays for the next
//! open to replay. Checked here:
//!
//! * log > snapshot, closed by `close()` and by drop: one `.snap`, no
//!   `wal-*.log`, no `.tmp`, and the reopened store has the same
//!   `SizeStats`, world directory and answers (those of the naive
//!   evaluator over the closed store);
//! * log ≤ snapshot, and an open followed by a close without a write:
//!   every file is byte-identical afterwards;
//! * both crash windows of the close checkpoint — the snapshot renamed in
//!   with the sealed segments still there, and the segments pruned with
//!   the empty active segment still there — reopen to the same state;
//! * a store dropped while its thread panics writes nothing;
//! * a live directory refuses a second store.

use beliefdb::core::bcq::dsl::*;
use beliefdb::core::bdms::SizeStats;
use beliefdb::core::prelude::*;
use beliefdb::storage::persist::wal::Wal;
use beliefdb::storage::persist::{list_segments, snapshot, PersistOptions};
use beliefdb::storage::{row, Row, StorageError};
use std::ffi::OsString;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

fn temp_dir(tag: &str) -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    std::env::temp_dir().join(format!(
        "beliefdb-close-{tag}-{}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ))
}

/// Copy the files of `src` into a fresh directory: taken while the store
/// in `src` runs, this is what recovery after a crash sees.
fn copy_of(src: &Path, tag: &str) -> PathBuf {
    let dst = temp_dir(tag);
    std::fs::create_dir_all(&dst).unwrap();
    for entry in std::fs::read_dir(src).unwrap() {
        let entry = entry.unwrap();
        std::fs::copy(entry.path(), dst.join(entry.file_name())).unwrap();
    }
    dst
}

/// Every file of `dir` with its bytes, by name.
fn files(dir: &Path) -> Vec<(OsString, Vec<u8>)> {
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

/// Assert that `dir` holds exactly one snapshot, no WAL segment and no
/// temporary file.
fn assert_one_snapshot(dir: &Path, ctx: &str) {
    let names: Vec<String> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    let snaps = names.iter().filter(|n| n.ends_with(".snap")).count();
    assert_eq!(snaps, 1, "{ctx}: {names:?}");
    assert!(
        !names
            .iter()
            .any(|n| n.starts_with("wal-") || n.ends_with(".tmp")),
        "{ctx}: {names:?}"
    );
}

fn schema() -> ExternalSchema {
    ExternalSchema::new().with_relation("Sightings", &["sid", "species"])
}

/// Users Alice, Bob and Carol, then `n` sightings believed by Alice, each
/// doubted by Bob about Alice every third time, plus a delete and an
/// update: several worlds, positive and negative statements.
fn write_history(bdms: &mut Bdms, n: usize) {
    for name in ["Alice", "Bob", "Carol"] {
        bdms.add_user(name).unwrap();
    }
    let s = bdms.schema().relation_id("Sightings").unwrap();
    let alice = BeliefPath::user(UserId(1));
    let bob_alice = BeliefPath::new(vec![UserId(2), UserId(1)]).unwrap();
    for i in 0..n {
        let row = row![format!("s{i}").as_str(), "crow"];
        bdms.insert(alice.clone(), s, row.clone(), Sign::Pos)
            .unwrap();
        if i % 3 == 0 {
            bdms.insert(bob_alice.clone(), s, row, Sign::Neg).unwrap();
        }
    }
    bdms.delete(alice.clone(), s, row!["s1", "crow"], Sign::Pos)
        .unwrap();
    bdms.update(alice, s, row!["s2", "crow"], row!["s2", "raven"])
        .unwrap();
}

/// A durable store in a fresh directory, with `n` sightings written.
fn grown(tag: &str, n: usize) -> (PathBuf, Bdms) {
    let dir = temp_dir(tag);
    let mut bdms = Bdms::create(&dir, schema()).unwrap();
    write_history(&mut bdms, n);
    (dir, bdms)
}

fn queries(schema: &ExternalSchema) -> Vec<Bcq> {
    let s = schema.relation_id("Sightings").unwrap();
    vec![
        Bcq::builder(vec![qv("x"), qv("sid"), qv("sp")])
            .positive(vec![pv("x")], s, vec![qv("sid"), qv("sp")])
            .build(schema)
            .unwrap(),
        Bcq::builder(vec![qv("sid"), qv("sp")])
            .positive(vec![pu(UserId(1))], s, vec![qv("sid"), qv("sp")])
            .negative(
                vec![pu(UserId(2)), pu(UserId(1))],
                s,
                vec![qv("sid"), qv("sp")],
            )
            .build(schema)
            .unwrap(),
    ]
}

/// What a reopened store must reproduce of the store it was closed as.
#[derive(Debug, PartialEq)]
struct State {
    stats: SizeStats,
    worlds: Vec<String>,
    answers: Vec<Vec<Row>>,
}

/// `bdms`'s state, its answers taken by `eval` (the Algorithm 1
/// translation or the naive evaluator).
fn state(bdms: &Bdms, eval: fn(&Bdms, &Bcq) -> Result<Vec<Row>>) -> State {
    State {
        stats: bdms.stats(),
        worlds: worlds(bdms),
        answers: queries(bdms.schema())
            .iter()
            .map(|q| eval(bdms, q).unwrap())
            .collect(),
    }
}

fn worlds(bdms: &Bdms) -> Vec<String> {
    bdms.internal()
        .directory()
        .iter()
        .map(|(wid, path)| format!("{wid} {path}"))
        .collect()
}

fn log_outgrew_snapshot(bdms: &Bdms) -> bool {
    let wal = bdms.wal_stats().unwrap();
    wal.wal_bytes > wal.snapshot_bytes
}

#[test]
fn a_log_larger_than_its_snapshot_closes_into_one_snapshot() {
    for by_drop in [false, true] {
        let ctx = if by_drop { "drop" } else { "close()" };
        let (dir, bdms) = grown("outgrown", 30);
        assert!(log_outgrew_snapshot(&bdms), "{ctx}");
        let want = state(&bdms, Bdms::query_naive);
        assert_eq!(
            state(&bdms, Bdms::query),
            want,
            "{ctx}: translation vs naive"
        );
        if by_drop {
            drop(bdms);
        } else {
            bdms.close().unwrap();
        }
        assert_one_snapshot(&dir, ctx);
        let image = files(&dir);
        let reopened = Bdms::open(&dir).unwrap();
        assert_eq!(reopened.wal_stats().unwrap().frames, 0, "{ctx}");
        assert_eq!(state(&reopened, Bdms::query), want, "{ctx}");
        assert_eq!(state(&reopened, Bdms::query_naive), want, "{ctx}");
        // Opened and closed again, it is the same single snapshot.
        reopened.close().unwrap();
        assert_eq!(files(&dir), image, "{ctx}");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

#[test]
fn a_log_no_larger_than_its_snapshot_is_kept_byte_for_byte() {
    let (dir, mut bdms) = grown("kept", 30);
    bdms.checkpoint().unwrap();
    let s = bdms.schema().relation_id("Sightings").unwrap();
    bdms.insert(
        BeliefPath::user(UserId(3)),
        s,
        row!["s0", "heron"],
        Sign::Pos,
    )
    .unwrap();
    assert!(!log_outgrew_snapshot(&bdms));
    let want = state(&bdms, Bdms::query_naive);
    let before = files(&dir);
    bdms.close().unwrap();
    assert_eq!(files(&dir), before);
    // The tail replays on the next open.
    let reopened = Bdms::open(&dir).unwrap();
    assert_eq!(reopened.wal_stats().unwrap().frames, 1);
    assert_eq!(state(&reopened, Bdms::query), want);
    drop(reopened);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn open_then_close_without_a_write_changes_no_file() {
    // A directory closed into one snapshot, and one that kept a log tail.
    let (closed, bdms) = grown("noop-closed", 30);
    bdms.close().unwrap();
    let (tail, mut bdms) = grown("noop-tail", 30);
    bdms.checkpoint().unwrap();
    bdms.add_user("Dora").unwrap();
    bdms.close().unwrap();
    for dir in [&closed, &tail] {
        let before = files(dir);
        Bdms::open(dir).unwrap().close().unwrap();
        assert_eq!(files(dir), before, "{}", dir.display());
        drop(Bdms::open(dir).unwrap());
        assert_eq!(files(dir), before, "{} (drop)", dir.display());
        std::fs::remove_dir_all(dir).unwrap();
    }
}

#[test]
fn both_crash_windows_of_the_close_checkpoint_reopen_to_the_same_state() {
    let (dir, bdms) = grown("windows", 30);
    assert!(log_outgrew_snapshot(&bdms));
    let want = state(&bdms, Bdms::query_naive);
    let hwm = bdms.wal_stats().unwrap().next_lsn;
    // The directory before the close: the creation snapshot and the log.
    let before = copy_of(&dir, "windows-before");
    bdms.close().unwrap();
    let (_, closed_snapshot) = snapshot::list_snapshots(&dir).unwrap().remove(0);
    let snapshot_name = closed_snapshot.file_name().unwrap();

    // The close checkpoint rotates the log (an empty active segment
    // starting at the high-water mark), renames the snapshot in, prunes
    // the sealed segments and the older snapshots, and then the close
    // step deletes the active segment.
    let empty_active = |dir: &Path| {
        drop(Wal::create(dir, hwm, PersistOptions::default().segment_limit).unwrap());
    };
    // (a) Renamed in, nothing pruned yet.
    let renamed = copy_of(&before, "window-renamed");
    std::fs::copy(&closed_snapshot, renamed.join(snapshot_name)).unwrap();
    empty_active(&renamed);
    assert!(list_segments(&renamed).unwrap().len() >= 2);
    // (b) Pruned, the active segment still there.
    let pruned = temp_dir("window-pruned");
    std::fs::create_dir_all(&pruned).unwrap();
    std::fs::copy(&closed_snapshot, pruned.join(snapshot_name)).unwrap();
    empty_active(&pruned);

    for (window, crashed) in [("renamed", &renamed), ("pruned", &pruned)] {
        let reopened = Bdms::open(crashed).unwrap();
        assert_eq!(reopened.wal_stats().unwrap().snapshot_hwm, hwm, "{window}");
        assert_eq!(state(&reopened, Bdms::query), want, "{window}");
        reopened.close().unwrap();
        assert_one_snapshot(crashed, window);
        assert_eq!(
            state(&Bdms::open(crashed).unwrap(), Bdms::query),
            want,
            "{window}"
        );
    }
    for d in [&dir, &before, &renamed, &pruned] {
        std::fs::remove_dir_all(d).unwrap();
    }
}

#[test]
fn a_store_dropped_while_panicking_writes_nothing() {
    let (dir, bdms) = grown("panic", 30);
    assert!(log_outgrew_snapshot(&bdms));
    let want = state(&bdms, Bdms::query_naive);
    let before = files(&dir);
    let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
        let _store = bdms;
        panic!("a panic with a durable store in scope");
    }));
    assert!(unwound.is_err());
    assert_eq!(files(&dir), before);
    // Recovery replays the log the panic left behind.
    let reopened = Bdms::open(&dir).unwrap();
    assert!(reopened.wal_stats().unwrap().frames > 0);
    assert_eq!(state(&reopened, Bdms::query), want);
    drop(reopened);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_live_directory_refuses_a_second_store() {
    let (dir, bdms) = grown("locked", 3);
    let locked = |r: Result<Bdms>| {
        matches!(
            r.map(drop),
            Err(BeliefError::Storage(StorageError::Locked(_)))
        )
    };
    assert!(locked(Bdms::open(&dir)));
    assert!(locked(Bdms::create(&dir, schema())));
    // The refused attempts changed nothing; after the close the
    // directory opens again.
    let want = state(&bdms, Bdms::query_naive);
    bdms.close().unwrap();
    let reopened = Bdms::open(&dir).unwrap();
    assert_eq!(state(&reopened, Bdms::query), want);
    drop(reopened);
    std::fs::remove_dir_all(&dir).unwrap();
}
