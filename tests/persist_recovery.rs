//! Fault-injection suite for the durability subsystem.
//!
//! The contract under test: a durable BDMS reopened after a crash must
//! equal the pre-crash store **up to the last durable statement** —
//! compared via the canonical logical form (`to_belief_database`), the
//! paper's `SizeStats` (which see wids/tids/worlds, so side effects of
//! rejected inserts count too), and a query answer. Faults injected:
//!
//! * **torn tail** — the final WAL frame truncated at *every* byte
//!   offset (a crash mid-`write`);
//! * **bit flips** — one byte flipped per frame, in the payload and in
//!   the frame header (at-rest corruption; recovery keeps the valid
//!   prefix and discards the rest);
//! * **checkpoint interleaving** — a checkpoint taken mid-history with
//!   appends continuing after it, then crashes in the post-checkpoint
//!   segment; recovery must stitch snapshot + tail;
//! * **snapshot loss** — the only snapshot corrupted: open must fail
//!   cleanly, not panic or half-recover.
//!
//! Two more cases pin the default policy byte of the snapshot: a
//! version-1 snapshot (written before the byte existed) opens as an
//! `Eager` store, and a `Lazy` store comes back `Lazy`.

use beliefdb::core::persist::SnapshotData;
use beliefdb::core::prelude::*;
use beliefdb::core::DefaultPolicy;
use beliefdb::storage::persist::{frame_spans, list_segments, PersistEngine, PersistOptions};
use beliefdb::storage::row;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

fn temp_dir(tag: &str) -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    std::env::temp_dir().join(format!(
        "beliefdb-recovery-{tag}-{}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ))
}

/// Copy a flat durable directory (WAL segments + snapshots).
fn copy_dir(src: &Path, dst: &Path) {
    if dst.exists() {
        std::fs::remove_dir_all(dst).unwrap();
    }
    std::fs::create_dir_all(dst).unwrap();
    for entry in std::fs::read_dir(src).unwrap() {
        let entry = entry.unwrap();
        std::fs::copy(entry.path(), dst.join(entry.file_name())).unwrap();
    }
}

fn schema() -> ExternalSchema {
    ExternalSchema::new()
        .with_relation("Sightings", &["sid", "species"])
        .with_relation("Comments", &["cid", "comment", "sid"])
}

/// One logical operation = exactly one WAL record, so the op at index
/// `k` lands at LSN `k` and "recovered up to frame k" means "ops[..k]
/// applied".
#[derive(Debug, Clone)]
enum Op {
    User(&'static str),
    Insert(BeliefStatement),
    Delete(BeliefStatement),
    Update(
        BeliefPath,
        RelId,
        beliefdb::storage::Row,
        beliefdb::storage::Row,
    ),
}

fn apply(bdms: &mut Bdms, op: &Op) {
    match op {
        Op::User(name) => {
            bdms.add_user(name.to_string()).unwrap();
        }
        Op::Insert(stmt) => {
            bdms.insert_statement(stmt).unwrap();
        }
        Op::Delete(stmt) => {
            bdms.delete_statement(stmt).unwrap();
        }
        Op::Update(path, rel, old, new) => {
            bdms.update(path.clone(), *rel, old.clone(), new.clone())
                .unwrap();
        }
    }
}

/// The reference history: users, positive/negative inserts at nested
/// paths, a **rejected** insert (whose world/tid side effects must
/// still be recovered), a delete, and an update.
fn history() -> Vec<Op> {
    let s = RelId(0);
    let c = RelId(1);
    let p = |users: &[u32]| {
        BeliefPath::new(users.iter().map(|&u| UserId(u)).collect::<Vec<_>>()).unwrap()
    };
    vec![
        Op::User("Alice"),
        Op::User("Bob"),
        Op::Insert(BeliefStatement::positive(
            p(&[1]),
            GroundTuple::new(s, row!["s1", "crow"]),
        )),
        Op::Insert(BeliefStatement::positive(
            p(&[2]),
            GroundTuple::new(s, row!["s1", "raven"]),
        )),
        Op::User("Carol"),
        Op::Insert(BeliefStatement::negative(
            p(&[3, 1]),
            GroundTuple::new(s, row!["s1", "crow"]),
        )),
        // Rejected: conflicts with Bob's explicit raven. Still allocates
        // the owl's R* row, which recovery must reproduce for SizeStats.
        Op::Insert(BeliefStatement::positive(
            p(&[2]),
            GroundTuple::new(s, row!["s1", "owl"]),
        )),
        Op::Insert(BeliefStatement::positive(
            BeliefPath::root(),
            GroundTuple::new(c, row!["c1", "found feathers", "s1"]),
        )),
        Op::Delete(BeliefStatement::positive(
            p(&[1]),
            GroundTuple::new(s, row!["s1", "crow"]),
        )),
        Op::Insert(BeliefStatement::positive(
            p(&[1, 2]),
            GroundTuple::new(s, row!["s2", "heron"]),
        )),
        Op::Update(p(&[1, 2]), s, row!["s2", "heron"], row!["s2", "egret"]),
        Op::Insert(BeliefStatement::negative(
            p(&[2, 1, 2]),
            GroundTuple::new(s, row!["s2", "egret"]),
        )),
    ]
}

/// The expected in-memory store after the first `k` ops.
fn expected_after(k: usize) -> Bdms {
    expected_under(DefaultPolicy::default(), k)
}

fn expected_under(policy: DefaultPolicy, k: usize) -> Bdms {
    let mut bdms = Bdms::with_policy(schema(), policy).unwrap();
    for op in &history()[..k] {
        apply(&mut bdms, op);
    }
    bdms
}

/// Recovered state must match the reference exactly: canonical logical
/// form, `SizeStats` (worlds/tids included), and a query answer.
fn assert_same(recovered: &Bdms, expected: &Bdms, ctx: &str) {
    assert_eq!(
        recovered.stats(),
        expected.stats(),
        "SizeStats diverged: {ctx}"
    );
    let got = recovered.to_belief_database().unwrap();
    let want = expected.to_belief_database().unwrap();
    assert_eq!(
        got.statements(),
        want.statements(),
        "statements diverged: {ctx}"
    );
    assert_eq!(got.user_count(), want.user_count(), "users diverged: {ctx}");
    assert_eq!(
        recovered.internal().directory().iter().collect::<Vec<_>>(),
        expected.internal().directory().iter().collect::<Vec<_>>(),
        "world directory diverged: {ctx}"
    );
    if expected.users().len() >= 2 {
        use beliefdb::core::bcq::dsl::*;
        let s = expected.schema().relation_id("Sightings").unwrap();
        let q = Bcq::builder(vec![qv("sid"), qv("sp")])
            .positive(vec![pu(UserId(2))], s, vec![qv("sid"), qv("sp")])
            .build(expected.schema())
            .unwrap();
        assert_eq!(
            recovered.query(&q).unwrap(),
            expected.query(&q).unwrap(),
            "query answers diverged: {ctx}"
        );
    }
}

/// Build the full durable history in `dir` (no explicit checkpoint
/// unless `checkpoint_at` is given; the threshold is high enough that
/// no auto-checkpoint interferes).
fn build(dir: &Path, checkpoint_at: Option<usize>) -> Bdms {
    let mut bdms = Bdms::create(dir, schema()).unwrap();
    for (i, op) in history().iter().enumerate() {
        if checkpoint_at == Some(i) {
            bdms.checkpoint().unwrap();
        }
        apply(&mut bdms, op);
    }
    bdms
}

#[test]
fn clean_reopen_reproduces_everything() {
    let dir = temp_dir("clean");
    let built = build(&dir, None);
    let reopened = Bdms::open(&dir).unwrap();
    assert_same(&reopened, &built, "clean reopen");
    assert_same(
        &reopened,
        &expected_after(history().len()),
        "clean vs reference",
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn torn_tail_truncated_at_every_byte_offset() {
    let dir = temp_dir("torn-src");
    build(&dir, None);
    let segments = list_segments(&dir).unwrap();
    assert_eq!(segments.len(), 1, "history fits one segment");
    let seg_name = segments[0].1.file_name().unwrap().to_owned();
    let spans = frame_spans(&segments[0].1).unwrap();
    assert_eq!(spans.len(), history().len());
    let full = std::fs::read(&segments[0].1).unwrap();
    let (last_off, last_len) = *spans.last().unwrap();

    let scratch = temp_dir("torn-cut");
    let expected = expected_after(history().len() - 1);
    for cut in last_off..last_off + last_len {
        copy_dir(&dir, &scratch);
        std::fs::write(scratch.join(&seg_name), &full[..cut as usize]).unwrap();
        let recovered = Bdms::open(&scratch).unwrap();
        assert_same(
            &recovered,
            &expected,
            &format!("torn tail cut at byte {cut}"),
        );
    }
    // A crash can also tear several frames off: cutting mid-frame k
    // must recover exactly ops[..k].
    for k in [4usize, 7, 9] {
        let (off, len) = spans[k];
        let cut = off + len / 2;
        copy_dir(&dir, &scratch);
        std::fs::write(scratch.join(&seg_name), &full[..cut as usize]).unwrap();
        let recovered = Bdms::open(&scratch).unwrap();
        assert_same(
            &recovered,
            &expected_after(k),
            &format!("tail torn mid-frame {k}"),
        );
    }
    std::fs::remove_dir_all(&dir).unwrap();
    std::fs::remove_dir_all(&scratch).unwrap();
}

#[test]
fn one_flipped_byte_per_frame_keeps_the_valid_prefix() {
    let dir = temp_dir("flip-src");
    build(&dir, None);
    let segments = list_segments(&dir).unwrap();
    let seg_name = segments[0].1.file_name().unwrap().to_owned();
    let spans = frame_spans(&segments[0].1).unwrap();
    let full = std::fs::read(&segments[0].1).unwrap();

    let scratch = temp_dir("flip-cut");
    for (k, &(off, len)) in spans.iter().enumerate() {
        // Flip one byte in the payload and, separately, in the header.
        for flip_at in [off + len - 1, off + 1] {
            let mut bytes = full.clone();
            bytes[flip_at as usize] ^= 0x20;
            copy_dir(&dir, &scratch);
            std::fs::write(scratch.join(&seg_name), &bytes).unwrap();
            let recovered = Bdms::open(&scratch).unwrap();
            assert_same(
                &recovered,
                &expected_after(k),
                &format!("byte {flip_at} flipped in frame {k}"),
            );
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
    std::fs::remove_dir_all(&scratch).unwrap();
}

#[test]
fn checkpoint_with_concurrent_appends_recovers_snapshot_plus_tail() {
    let n = history().len();
    let mid = 6;
    let dir = temp_dir("ckpt-src");
    let built = build(&dir, Some(mid));

    // Clean reopen first: snapshot + whole tail.
    let reopened = Bdms::open(&dir).unwrap();
    assert_same(&reopened, &built, "checkpoint + clean tail");

    // The post-checkpoint appends live in the segment starting at the
    // high-water mark; crash inside each of its frames in turn.
    let hwm = built.wal_stats().unwrap().snapshot_hwm;
    assert_eq!(hwm, mid as u64);
    let segments = list_segments(&dir).unwrap();
    let (tail_lsn, tail_path) = segments.last().unwrap().clone();
    assert_eq!(tail_lsn, hwm);
    let seg_name = tail_path.file_name().unwrap().to_owned();
    let spans = frame_spans(&tail_path).unwrap();
    assert_eq!(spans.len(), n - mid);
    let full = std::fs::read(&tail_path).unwrap();

    let scratch = temp_dir("ckpt-cut");
    for (j, &(off, len)) in spans.iter().enumerate() {
        let k = mid + j; // ops[..k] durable once frame j is torn
        for cut in [off, off + 1, off + len - 1] {
            copy_dir(&dir, &scratch);
            std::fs::write(scratch.join(&seg_name), &full[..cut as usize]).unwrap();
            let recovered = Bdms::open(&scratch).unwrap();
            assert_same(
                &recovered,
                &expected_after(k),
                &format!("checkpoint at {mid}, tail cut at byte {cut} (frame {j})"),
            );
        }
    }
    // Checkpoint directly after reopening a truncated tail still works
    // and the next open sees the checkpointed state.
    copy_dir(&dir, &scratch);
    let (off, _) = spans[1];
    std::fs::write(scratch.join(&seg_name), &full[..(off + 2) as usize]).unwrap();
    let mut recovered = Bdms::open(&scratch).unwrap();
    recovered.checkpoint().unwrap();
    let after = Bdms::open(&scratch).unwrap();
    assert_same(
        &after,
        &expected_after(mid + 1),
        "checkpoint after torn recovery",
    );
    std::fs::remove_dir_all(&dir).unwrap();
    std::fs::remove_dir_all(&scratch).unwrap();
}

#[test]
fn corrupt_only_snapshot_fails_cleanly() {
    let dir = temp_dir("snaploss");
    let mut bdms = Bdms::create(&dir, schema()).unwrap();
    bdms.add_user("Alice").unwrap();
    bdms.checkpoint().unwrap();
    drop(bdms);
    // Only one snapshot remains (checkpoint pruned the initial one);
    // corrupt it: recovery must error, not panic or invent a schema.
    let snap = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .find(|p| p.extension().is_some_and(|e| e == "snap"))
        .unwrap();
    let mut bytes = std::fs::read(&snap).unwrap();
    let n = bytes.len();
    bytes[n - 1] ^= 1;
    std::fs::write(&snap, &bytes).unwrap();
    assert!(Bdms::open(&dir).is_err());
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn sync_on_commit_group_commits_and_round_trips() {
    use beliefdb::core::PersistOptions;
    let dir = temp_dir("sync-commit");
    let opts = PersistOptions {
        segment_limit: 1 << 20,
        checkpoint_threshold: u64::MAX,
        sync_on_commit: true,
    };
    let mut bdms = Bdms::create_with_options(&dir, schema(), opts).unwrap();
    let alice = bdms.add_user("Alice").unwrap();
    let s = bdms.schema().relation_id("Sightings").unwrap();
    for i in 0..5i64 {
        bdms.insert(
            BeliefPath::user(alice),
            s,
            row![format!("s{i}").as_str(), "crow"],
            Sign::Pos,
        )
        .unwrap();
    }
    // Group commit: one fsync per mutation batch (6 mutations here);
    // the default path issues none outside checkpoints/rotations.
    let stats = bdms.wal_stats().unwrap();
    assert!(stats.syncs >= 6, "{stats:?}");
    let want = bdms.stats();
    drop(bdms);
    let reopened = Bdms::open_with_options(&dir, opts).unwrap();
    assert_eq!(reopened.stats(), want);
    drop(reopened);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn auto_checkpoint_kicks_in_and_bounds_the_log() {
    use beliefdb::core::PersistOptions;
    let dir = temp_dir("auto");
    let opts = PersistOptions {
        segment_limit: 512,
        checkpoint_threshold: 2048,
        sync_on_commit: false,
    };
    let mut bdms = Bdms::create_with_options(&dir, schema(), opts).unwrap();
    bdms.add_user("Alice").unwrap();
    let s = bdms.schema().relation_id("Sightings").unwrap();
    for i in 0..200 {
        bdms.insert(
            BeliefPath::user(UserId(1)),
            s,
            row![format!("s{i}").as_str(), "crow"],
            Sign::Pos,
        )
        .unwrap();
    }
    let stats = bdms.wal_stats().unwrap();
    assert!(stats.checkpoints > 0, "auto-checkpoint never fired");
    assert!(
        stats.wal_bytes <= 4096,
        "live log kept growing: {} bytes",
        stats.wal_bytes
    );
    // Old segments were deleted along the way.
    assert!(list_segments(&dir).unwrap().len() <= 2);
    let reopened = Bdms::open_with_options(&dir, opts).unwrap();
    assert_same(&reopened, &bdms, "auto-checkpointed history");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A snapshot in the version-1 format — no policy byte after the version
/// byte — was written by an `Eager` store, and opens as one with the same
/// `SizeStats`.
#[test]
fn version_1_snapshot_opens_as_eager() {
    let eager = expected_under(DefaultPolicy::Eager, history().len());
    let internal = eager.internal();
    let schema = eager.schema();
    // `R*` rows by tid: `(tid, attributes...)` in every relation's table.
    let mut tuples = std::collections::BTreeMap::new();
    for (rel, def) in schema.relations().iter().enumerate() {
        let star = internal.database().table(&format!("{}__star", def.name()));
        for r in star.unwrap().scan() {
            let row = beliefdb::storage::Row::from(r.values()[1..].to_vec());
            tuples.insert(
                Tid::from_value(&r[0]).unwrap(),
                GroundTuple::new(RelId(rel as u32), row),
            );
        }
    }
    let image = SnapshotData {
        policy: DefaultPolicy::Eager,
        relations: schema
            .relations()
            .iter()
            .map(|r| (r.name().to_string(), r.columns().to_vec()))
            .collect(),
        users: eager
            .users()
            .into_iter()
            .map(|u| eager.user_name(u).unwrap().to_string())
            .collect(),
        worlds: internal
            .directory()
            .iter()
            .map(|(_, p)| p.clone())
            .collect(),
        tuples: tuples.into_values().collect(),
        statements: eager.to_belief_database().unwrap().statements(),
    };
    // Version 2 is the version byte, the policy byte, then the version-1
    // layout.
    let v2 = image.encode();
    assert_eq!(v2[..2], [2, 0]);
    let v1: Vec<u8> = std::iter::once(1).chain(v2[2..].iter().copied()).collect();

    let dir = temp_dir("v1");
    PersistEngine::create(&dir, PersistOptions::default())
        .unwrap()
        .checkpoint(&v1)
        .unwrap();
    let reopened = Bdms::open(&dir).unwrap();
    assert_eq!(reopened.policy(), DefaultPolicy::Eager);
    assert_same(&reopened, &eager, "version-1 snapshot");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A `Lazy` durable store survives a checkpoint and a reopen as itself:
/// same policy, same `SizeStats` (so `V` still holds the explicit
/// statements only), same answers.
#[test]
fn lazy_store_survives_checkpoint_and_reopen() {
    let dir = temp_dir("lazy");
    let mut built = build(&dir, Some(5));
    assert_eq!(built.policy(), DefaultPolicy::Lazy);
    let explicit = built.to_belief_database().unwrap().len();
    let v_rows = |b: &Bdms| {
        ["V__Sightings", "V__Comments"]
            .iter()
            .map(|t| b.storage().table(t).unwrap().len())
            .sum::<usize>()
    };
    assert_eq!(v_rows(&built), explicit);
    for checkpoint in [false, true] {
        if checkpoint {
            built.checkpoint().unwrap();
        }
        let reopened = Bdms::open(&dir).unwrap();
        assert_eq!(reopened.policy(), DefaultPolicy::Lazy);
        assert_eq!(v_rows(&reopened), explicit);
        assert_same(&reopened, &built, "lazy reopen");
        assert_same(
            &reopened,
            &expected_after(history().len()),
            "lazy vs reference",
        );
        // Same answers as the `Eager` store of the same history.
        let eager = expected_under(DefaultPolicy::Eager, history().len());
        use beliefdb::core::bcq::dsl::*;
        let s = reopened.schema().relation_id("Sightings").unwrap();
        let q = Bcq::builder(vec![qv("x"), qv("sid"), qv("sp")])
            .positive(vec![pv("x")], s, vec![qv("sid"), qv("sp")])
            .build(reopened.schema())
            .unwrap();
        assert_eq!(reopened.query(&q).unwrap(), eager.query(&q).unwrap());
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
