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
//! The formats are pinned too. A version-1 snapshot (written before the
//! policy byte existed) opens as an `Eager` store, and a version-2 one
//! (statements spelled out), a version-4 one (the varint codec, `R*`
//! column by column) and a version-5 one (bit-packed string codes,
//! statements grouped by world) open as their store and are rewritten as
//! version 6 (sorted front-coded dictionaries, NULL-free code widths,
//! worlds as parent and user) by the next checkpoint. A directory an
//! older release left — a version-3 snapshot and version-1 WAL segments —
//! opens as its store, takes new appends in a version-2 segment and
//! checkpoints to version 6. `Lazy` and `Eager` stores come back as
//! themselves, and forged version-3 to -6 payloads with a valid checksum
//! fail the open as `Corrupt`.

use beliefdb::core::persist::{SnapshotData, SnapshotSections};
use beliefdb::core::prelude::*;
use beliefdb::core::DefaultPolicy;
use beliefdb::storage::persist::{
    crc32, frame_spans, list_segments, segment_file_name, snapshot, Enc, PersistEngine,
    PersistOptions,
};
use beliefdb::storage::row;
use beliefdb::storage::{StorageError, Value};
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

/// A crash image of the open store in `dir`: a copy of its files taken
/// while it runs, which is what recovery after a crash sees. (Closing the
/// store instead would fold its log into one snapshot.)
fn crash_image(dir: &Path, tag: &str) -> PathBuf {
    let image = temp_dir(tag);
    copy_dir(dir, &image);
    image
}

/// Valid WAL frames the recovered store found past its snapshot.
fn frames(bdms: &Bdms) -> u64 {
    bdms.wal_stats().unwrap().frames
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
    let image = crash_image(&dir, "clean-crash");
    let reopened = Bdms::open(&image).unwrap();
    assert_eq!(frames(&reopened), history().len() as u64);
    assert_same(&reopened, &built, "clean reopen");
    assert_same(
        &reopened,
        &expected_after(history().len()),
        "clean vs reference",
    );
    drop((built, reopened));
    std::fs::remove_dir_all(&dir).unwrap();
    std::fs::remove_dir_all(&image).unwrap();
}

#[test]
fn torn_tail_truncated_at_every_byte_offset() {
    let live = temp_dir("torn-live");
    let built = build(&live, None);
    let dir = crash_image(&live, "torn-src");
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
        assert_eq!(frames(&recovered), history().len() as u64 - 1);
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
        assert_eq!(frames(&recovered), k as u64);
        assert_same(
            &recovered,
            &expected_after(k),
            &format!("tail torn mid-frame {k}"),
        );
    }
    drop(built);
    std::fs::remove_dir_all(&live).unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
    std::fs::remove_dir_all(&scratch).unwrap();
}

#[test]
fn one_flipped_byte_per_frame_keeps_the_valid_prefix() {
    let live = temp_dir("flip-live");
    let built = build(&live, None);
    let dir = crash_image(&live, "flip-src");
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
            assert_eq!(frames(&recovered), k as u64);
            assert_same(
                &recovered,
                &expected_after(k),
                &format!("byte {flip_at} flipped in frame {k}"),
            );
        }
    }
    drop(built);
    std::fs::remove_dir_all(&live).unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
    std::fs::remove_dir_all(&scratch).unwrap();
}

#[test]
fn checkpoint_with_concurrent_appends_recovers_snapshot_plus_tail() {
    let n = history().len();
    let mid = 6;
    let live = temp_dir("ckpt-live");
    let built = build(&live, Some(mid));
    let dir = crash_image(&live, "ckpt-src");

    // Clean reopen first: snapshot + whole tail.
    let reopened = Bdms::open(&dir).unwrap();
    assert_eq!(frames(&reopened), (n - mid) as u64);
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
            assert_eq!(frames(&recovered), j as u64);
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
    assert_eq!(frames(&recovered), 1);
    recovered.checkpoint().unwrap();
    let checkpointed = crash_image(&scratch, "ckpt-after");
    let after = Bdms::open(&checkpointed).unwrap();
    assert_same(
        &after,
        &expected_after(mid + 1),
        "checkpoint after torn recovery",
    );
    // Closing the reopened image would fold its tail into a snapshot, so
    // it stays open until the tail's frames have been cut.
    drop((built, reopened, recovered, after));
    for d in [&live, &dir, &scratch, &checkpointed] {
        std::fs::remove_dir_all(d).unwrap();
    }
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
    let image = crash_image(&dir, "sync-commit-crash");
    let reopened = Bdms::open_with_options(&image, opts).unwrap();
    assert_eq!(frames(&reopened), 6);
    assert_eq!(reopened.stats(), bdms.stats());
    drop((bdms, reopened));
    std::fs::remove_dir_all(&dir).unwrap();
    std::fs::remove_dir_all(&image).unwrap();
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
    let image = crash_image(&dir, "auto-crash");
    let reopened = Bdms::open_with_options(&image, opts).unwrap();
    assert!(frames(&reopened) > 0);
    assert_eq!(frames(&reopened), stats.frames);
    assert_same(&reopened, &bdms, "auto-checkpointed history");
    drop((bdms, reopened));
    std::fs::remove_dir_all(&dir).unwrap();
    std::fs::remove_dir_all(&image).unwrap();
}

/// The fixed-width layout of the previous release's formats (u32 counts,
/// ids and lengths, i64 integers, little-endian), which the production
/// writers no longer emit.
#[derive(Default)]
struct Fixed(Vec<u8>);

impl Fixed {
    fn u8(&mut self, v: u8) {
        self.0.push(v);
    }
    fn u32(&mut self, v: u32) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn str(&mut self, v: &str) {
        self.u32(v.len() as u32);
        self.0.extend_from_slice(v.as_bytes());
    }
    fn row(&mut self, row: &beliefdb::storage::Row) {
        use beliefdb::storage::Value;
        self.u32(row.arity() as u32);
        for v in row.values() {
            match v {
                Value::Null => self.u8(0),
                Value::Bool(b) => {
                    self.u8(1);
                    self.u8(*b as u8);
                }
                Value::Int(i) => {
                    self.u8(2);
                    self.0.extend_from_slice(&i.to_le_bytes());
                }
                Value::Str(s) => {
                    self.u8(3);
                    self.str(s.as_str());
                }
            }
        }
    }
    fn path(&mut self, path: &BeliefPath) {
        self.u32(path.depth() as u32);
        for u in path.users() {
            self.u32(u.0);
        }
    }
    fn statement(&mut self, stmt: &BeliefStatement) {
        self.path(&stmt.path);
        self.u32(stmt.tuple.rel.0);
        self.row(&stmt.tuple.row);
        self.u8(stmt.sign.code());
    }
}

/// A snapshot of `store` in the version-1, -2 or -3 layout, which the
/// production writer no longer emits: schema, users, worlds in wid order,
/// `R*` tuples in tid order, then every explicit statement — spelled out
/// as path, relation, row and sign (versions 1 and 2), or as
/// `(wid u32, tid u32, sign u8)` (version 3). Versions 2 and 3 put the
/// policy byte after the version byte; version 1 has none.
fn legacy_image(version: u8, store: &Bdms) -> Vec<u8> {
    let internal = store.internal();
    let mut f = Fixed::default();
    f.u8(version);
    if version >= 2 {
        f.u8(match store.policy() {
            DefaultPolicy::Eager => 0,
            DefaultPolicy::Lazy => 1,
        });
    }
    let relations = store.schema().relations();
    f.u32(relations.len() as u32);
    for r in relations {
        f.str(r.name());
        f.u32(r.columns().len() as u32);
        for c in r.columns() {
            f.str(c);
        }
    }
    let users = store.users();
    f.u32(users.len() as u32);
    for u in users {
        f.str(store.user_name(u).unwrap());
    }
    f.u32(internal.directory().len() as u32);
    for (_, path) in internal.directory().iter() {
        f.path(path);
    }
    // `R*` rows by tid: `(tid, attributes...)` in every relation's table.
    let mut tuples = std::collections::BTreeMap::new();
    for (rel, def) in relations.iter().enumerate() {
        let star = internal.database().table(&format!("{}__star", def.name()));
        for r in star.unwrap().scan() {
            let row = beliefdb::storage::Row::from(r.values()[1..].to_vec());
            tuples.insert(Tid::from_value(&r[0]).unwrap(), (rel as u32, row));
        }
    }
    f.u32(tuples.len() as u32);
    for (rel, row) in tuples.values() {
        f.u32(*rel);
        f.row(row);
    }
    let statements = store.to_belief_database().unwrap().statements();
    f.u32(statements.len() as u32);
    for stmt in &statements {
        if version < 3 {
            f.statement(stmt);
            continue;
        }
        let (wid, _) = internal
            .directory()
            .iter()
            .find(|(_, p)| **p == stmt.path)
            .unwrap();
        let key = (stmt.tuple.rel.0, stmt.tuple.row.clone());
        let (tid, _) = tuples.iter().find(|(_, t)| **t == key).unwrap();
        f.u32(wid.0);
        f.u32(tid.0);
        f.u8(stmt.sign.code());
    }
    f.0
}

/// The header of a version-4 or -5 payload of `data`: version and policy
/// bytes, schema, user names, and each world's path.
fn varint_header(version: u8, data: &SnapshotData) -> Enc {
    let mut e = Enc::new();
    e.put_u8(version);
    e.put_u8(match data.policy {
        DefaultPolicy::Eager => 0,
        DefaultPolicy::Lazy => 1,
    });
    e.put_var(data.relations.len() as u64);
    for (name, cols) in &data.relations {
        e.put_str(name);
        e.put_var(cols.len() as u64);
        for c in cols {
            e.put_str(c);
        }
    }
    e.put_var(data.users.len() as u64);
    for u in &data.users {
        e.put_str(u);
    }
    e.put_var(data.worlds.len() as u64);
    for w in &data.worlds {
        e.put_var(w.depth() as u64);
        for u in w.users() {
            e.put_var(u.0.into());
        }
    }
    e
}

/// Each relation's columns as versions 4 and 5 write them. The history's
/// columns are strings: a dictionary in the order the tuples meet the
/// strings, and each tuple's code (entry + 1), written by `codes`.
fn varint_columns(e: &mut Enc, data: &SnapshotData, codes: fn(&mut Enc, &[u32])) {
    for (rel, (_, cols)) in data.relations.iter().enumerate() {
        for col in 0..cols.len() {
            let cells: Vec<&Value> = data
                .tuples
                .iter()
                .filter(|t| t.rel.0 as usize == rel)
                .map(|t| &t.row[col])
                .collect();
            e.put_u8(1);
            let mut dict: Vec<&Value> = Vec::new();
            for v in &cells {
                if !dict.contains(v) {
                    dict.push(v);
                }
            }
            e.put_var(dict.len() as u64);
            for v in &dict {
                e.put_str(v.as_str().unwrap());
            }
            let coded: Vec<u32> = cells
                .iter()
                .map(|v| dict.iter().position(|d| d == v).unwrap() as u32 + 1)
                .collect();
            codes(e, &coded);
        }
    }
}

/// The version-4 payload of `data`, which no release writes any more:
/// version 5's header and worlds, then a relation varint per tuple, each
/// relation's columns (a code varint per tuple), and two varints per
/// statement: its wid, and its tid doubled plus the sign bit.
fn version_4_image(data: &SnapshotData) -> Vec<u8> {
    let mut e = varint_header(4, data);
    e.put_var(data.tuples.len() as u64);
    for t in &data.tuples {
        e.put_var(t.rel.0.into());
    }
    varint_columns(&mut e, data, |e, codes| {
        for &c in codes {
            e.put_var(c.into());
        }
    });
    e.put_var(data.statements.len() as u64);
    for s in &data.statements {
        e.put_var(s.wid.0.into());
        e.put_var((u64::from(s.tid.0) << 1) | u64::from(s.sign == Sign::Neg));
    }
    e.into_bytes()
}

/// The version-5 payload of `data`, which no release writes any more:
/// the header and worlds as paths; the tuples' relations as runs; each
/// relation's columns, the codes bit-packed at the width of the largest
/// (or a zero width and the one code when all are equal); and the
/// statements grouped by world, a world's delta, its count, then per
/// statement its tid's delta doubled plus the sign bit.
fn version_5_image(data: &SnapshotData) -> Vec<u8> {
    let mut e = varint_header(5, data);
    let runs: Vec<&[GroundTuple]> = data.tuples.chunk_by(|a, b| a.rel == b.rel).collect();
    e.put_var(runs.len() as u64);
    for run in runs {
        e.put_var(run[0].rel.0.into());
        e.put_var(run.len() as u64);
    }
    varint_columns(&mut e, data, |e, codes| {
        let max = codes.iter().copied().max().unwrap_or(0);
        if codes.iter().all(|&c| c == max) {
            e.put_u8(0);
            e.put_var(max.into());
        } else {
            let width = u32::BITS - max.leading_zeros();
            e.put_u8(width as u8);
            e.put_packed(width, codes.iter().copied());
        }
    });
    let mut sorted = data.statements.clone();
    sorted.sort_by_key(|s| (s.wid, s.tid));
    let groups: Vec<_> = sorted.chunk_by(|a, b| a.wid == b.wid).collect();
    e.put_var(sorted.len() as u64);
    e.put_var(groups.len() as u64);
    let mut wid = 0;
    for group in groups {
        e.put_var((group[0].wid.0 - wid).into());
        wid = group[0].wid.0;
        e.put_var(group.len() as u64);
        let mut prev = 0;
        for s in group {
            let signed = (u64::from(s.tid.0) << 1) | u64::from(s.sign == Sign::Neg);
            e.put_var(signed - prev);
            prev = signed & !1;
        }
    }
    e.into_bytes()
}

/// The WAL v1 payload of `op`: tag 1 to 4, then its fields fixed-width.
fn legacy_record(op: &Op) -> Vec<u8> {
    let mut f = Fixed::default();
    match op {
        Op::User(name) => {
            f.u8(1);
            f.str(name);
        }
        Op::Insert(stmt) => {
            f.u8(2);
            f.statement(stmt);
        }
        Op::Delete(stmt) => {
            f.u8(3);
            f.statement(stmt);
        }
        Op::Update(path, rel, old, new) => {
            f.u8(4);
            f.path(path);
            f.u32(rel.0);
            f.row(old);
            f.row(new);
        }
    }
    f.0
}

/// A directory as the previous release left it after `ops[..k]`: its
/// last checkpoint, a version-3 snapshot of `ops[..hwm]`, and one
/// version-1 segment (16-byte frame headers, the LSN written out) holding
/// `ops[hwm..k]`.
fn legacy_dir(tag: &str, hwm: usize, k: usize) -> PathBuf {
    let dir = temp_dir(tag);
    std::fs::create_dir_all(&dir).unwrap();
    snapshot::write_snapshot(&dir, hwm as u64, &legacy_image(3, &expected_after(hwm))).unwrap();
    let mut seg = b"BDBWAL01".to_vec();
    seg.extend_from_slice(&(hwm as u64).to_le_bytes());
    for (lsn, op) in (hwm as u64..).zip(&history()[hwm..k]) {
        let mut body = lsn.to_le_bytes().to_vec();
        body.extend_from_slice(&legacy_record(op));
        seg.extend_from_slice(&((body.len() - 8) as u32).to_le_bytes());
        seg.extend_from_slice(&crc32(&body).to_le_bytes());
        seg.extend_from_slice(&body);
    }
    std::fs::write(dir.join(segment_file_name(hwm as u64)), seg).unwrap();
    dir
}

/// A fresh durable directory whose only state is a snapshot with `payload`.
fn dir_with_snapshot(tag: &str, payload: &[u8]) -> PathBuf {
    let dir = temp_dir(tag);
    PersistEngine::create(&dir, PersistOptions::default())
        .unwrap()
        .checkpoint(payload)
        .unwrap();
    dir
}

/// The payload of the newest snapshot in `dir`.
fn latest_snapshot(dir: &Path) -> Vec<u8> {
    snapshot::load_latest(dir).unwrap().unwrap().1
}

/// A snapshot in the version-1 format — no policy byte after the version
/// byte — was written by an `Eager` store, and opens as one with the same
/// `SizeStats`.
#[test]
fn version_1_snapshot_opens_as_eager() {
    let eager = expected_under(DefaultPolicy::Eager, history().len());
    let dir = dir_with_snapshot("v1", &legacy_image(1, &eager));
    let reopened = Bdms::open(&dir).unwrap();
    assert_eq!(reopened.policy(), DefaultPolicy::Eager);
    assert_same(&reopened, &eager, "version-1 snapshot");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A version-2 snapshot (statements spelled out) opens as the store it
/// was taken of; the next checkpoint writes version 6, which opens as the
/// same store again.
#[test]
fn version_2_snapshot_opens_and_is_rewritten_as_version_6() {
    for policy in [DefaultPolicy::Lazy, DefaultPolicy::Eager] {
        let want = expected_under(policy, history().len());
        let v2 = legacy_image(2, &want);
        let dir = dir_with_snapshot("v2", &v2);
        let mut reopened = Bdms::open(&dir).unwrap();
        assert_eq!(reopened.policy(), policy);
        assert_same(&reopened, &want, "version-2 snapshot");
        reopened.checkpoint().unwrap();
        drop(reopened);
        let v6 = latest_snapshot(&dir);
        assert_eq!(v6[..2], [6, v2[1]], "version and policy bytes");
        assert!(v6.len() < v2.len(), "{} B vs {} B", v6.len(), v2.len());
        let again = Bdms::open(&dir).unwrap();
        assert_eq!(again.policy(), policy);
        assert_same(&again, &want, "version-6 rewrite of a version-2 snapshot");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// A version-4 snapshot and a version-5 one — what the previous release
/// wrote — open as the store they were taken of, and the next checkpoint
/// writes version 6: the very bytes a checkpoint of that store writes.
/// Opening and closing the version-6 directory without a write changes
/// no byte.
#[test]
fn version_4_and_5_snapshots_open_and_are_rewritten_as_version_6() {
    for policy in [DefaultPolicy::Lazy, DefaultPolicy::Eager] {
        let want = expected_under(policy, history().len());
        let dir = dir_with_snapshot("v6-src", &legacy_image(2, &want));
        Bdms::open(&dir).unwrap().checkpoint().unwrap();
        let v6 = latest_snapshot(&dir);
        std::fs::remove_dir_all(&dir).unwrap();
        assert_eq!(v6[0], 6);
        let data = SnapshotData::decode(&v6).unwrap();
        for (version, older) in [(4, version_4_image(&data)), (5, version_5_image(&data))] {
            assert_eq!(older[0], version);
            assert_eq!(SnapshotData::decode(&older).unwrap(), data, "v{version}");
            let what = format!("version-{version} snapshot");

            let dir = dir_with_snapshot("older", &older);
            let mut reopened = Bdms::open(&dir).unwrap();
            assert_eq!(reopened.policy(), policy);
            assert_same(&reopened, &want, &what);
            reopened.checkpoint().unwrap();
            drop(reopened);
            assert!(latest_snapshot(&dir) == v6, "version-6 rewrite of {what}");
            let files = |dir: &Path| {
                let mut files: Vec<_> = std::fs::read_dir(dir)
                    .unwrap()
                    .map(|e| {
                        let e = e.unwrap();
                        (e.file_name(), std::fs::read(e.path()).unwrap())
                    })
                    .collect();
                files.sort();
                files
            };
            let before = files(&dir);
            let again = Bdms::open(&dir).unwrap();
            assert_same(&again, &want, &format!("version-6 rewrite of {what}"));
            again.close().unwrap();
            assert!(
                files(&dir) == before,
                "open and close changed the directory"
            );
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }
}

/// A durable `Eager` store keeps implicit rows in `V`; a checkpoint
/// writes only the explicit ones, and the store reopens as itself: same
/// policy, same `V` rows and `SizeStats`, same answers.
#[test]
fn eager_store_survives_checkpoint_and_reopen() {
    // Only a snapshot makes a durable store `Eager`: open one from the
    // image of an empty `Eager` store, then write the history through it.
    let empty = expected_under(DefaultPolicy::Eager, 0);
    let dir = dir_with_snapshot("eager", &legacy_image(2, &empty));
    let mut built = Bdms::open(&dir).unwrap();
    assert_eq!(built.policy(), DefaultPolicy::Eager);
    for (i, op) in history().iter().enumerate() {
        if i == 5 {
            built.checkpoint().unwrap();
        }
        apply(&mut built, op);
    }
    let explicit = built.to_belief_database().unwrap().len();
    let v_rows = |b: &Bdms| {
        ["V__Sightings", "V__Comments"]
            .iter()
            .map(|t| b.storage().table(t).unwrap().len())
            .sum::<usize>()
    };
    assert!(
        v_rows(&built) > explicit,
        "the history leaves no implicit row in V"
    );
    let want = expected_under(DefaultPolicy::Eager, history().len());
    for checkpoint in [false, true] {
        if checkpoint {
            built.checkpoint().unwrap();
            let image = SnapshotData::decode(&latest_snapshot(&dir)).unwrap();
            assert_eq!(image.statements.len(), explicit);
        }
        let crashed = crash_image(&dir, "eager-crash");
        let reopened = Bdms::open(&crashed).unwrap();
        // Before the second checkpoint the tail replays the history
        // written after the first one.
        assert_eq!(frames(&reopened) > 0, !checkpoint);
        assert_eq!(reopened.policy(), DefaultPolicy::Eager);
        assert_eq!(v_rows(&reopened), v_rows(&built));
        assert_same(&reopened, &built, "eager reopen");
        assert_same(&reopened, &want, "eager vs reference");
        drop(reopened);
        std::fs::remove_dir_all(&crashed).unwrap();
    }
    drop(built);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Version-3 payloads with a valid checksum but one fault each — a
/// statement naming a world or a tuple past the image's lists, an invalid
/// sign byte, a statement count larger than the payload — fail the open
/// with `Corrupt`, without a panic.
#[test]
fn forged_version_3_snapshots_are_corrupt() {
    let image = legacy_image(3, &expected_after(history().len()));
    let parsed = SnapshotData::decode(&image).unwrap();
    let (nworlds, ntuples) = (parsed.worlds.len() as u32, parsed.tuples.len() as u32);
    // The statement section closes the payload: a u32 count, then 9 bytes
    // (wid u32, tid u32, sign u8) per statement.
    let n = parsed.statements.len();
    assert!(n > 0);
    let count_at = image.len() - 4 - 9 * n;
    let first = count_at + 4;
    assert_eq!(image[count_at..first], (n as u32).to_le_bytes());
    let forge = |at: usize, bytes: &[u8]| {
        let mut forged = image.clone();
        forged[at..at + bytes.len()].copy_from_slice(bytes);
        forged
    };
    let cases = [
        ("wid past the worlds", forge(first, &nworlds.to_le_bytes())),
        ("wid u32::MAX", forge(first, &u32::MAX.to_le_bytes())),
        (
            "tid past the tuples",
            forge(first + 4, &ntuples.to_le_bytes()),
        ),
        ("sign byte", forge(first + 8, b"x")),
        (
            "count past the payload",
            forge(count_at, &(n as u32 + 1).to_le_bytes()),
        ),
        ("count u32::MAX", forge(count_at, &u32::MAX.to_le_bytes())),
    ];
    for (fault, forged) in cases {
        let dir = dir_with_snapshot("forged", &forged);
        match Bdms::open(&dir) {
            Err(BeliefError::Storage(StorageError::Corrupt(_))) => {}
            other => panic!("{fault}: expected Corrupt, got {:?}", other.map(|_| ())),
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
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
        let crashed = crash_image(&dir, "lazy-crash");
        let reopened = Bdms::open(&crashed).unwrap();
        // Before the second checkpoint the tail replays the history
        // written after the first one.
        assert_eq!(frames(&reopened) > 0, !checkpoint);
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
        drop(reopened);
        std::fs::remove_dir_all(&crashed).unwrap();
    }
    drop(built);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Version-4 payloads with a valid checksum but one fault each in the
/// statement section — a world or a tuple past the image's lists, a tid
/// past 32 bits, a statement count larger than the payload, malformed
/// varints — fail the open with `Corrupt`, without a panic.
#[test]
fn forged_version_4_snapshots_are_corrupt() {
    let dir = temp_dir("forge4-src");
    let mut built = build(&dir, None);
    built.checkpoint().unwrap();
    let image = version_4_image(&SnapshotData::decode(&latest_snapshot(&dir)).unwrap());
    drop(built);
    std::fs::remove_dir_all(&dir).unwrap();
    assert_eq!(image[0], 4);
    let parsed = SnapshotData::decode(&image).unwrap();
    let (nworlds, ntuples) = (parsed.worlds.len() as u64, parsed.tuples.len() as u64);
    // The statement section closes the payload: a varint count, then per
    // statement its wid and its tid doubled plus the sign bit.
    let mut section = Enc::new();
    section.put_var(parsed.statements.len() as u64);
    for s in &parsed.statements {
        section.put_var(s.wid.0.into());
        section.put_var((u64::from(s.tid.0) << 1) | u64::from(s.sign == Sign::Neg));
    }
    let at = image.len() - section.bytes().len();
    assert_eq!(image[at..], section.bytes()[..]);
    let forge = |statements: &[&[u64]], tail: &[u8]| {
        let mut e = Enc::new();
        e.put_var(statements.len() as u64);
        for s in statements {
            for &v in *s {
                e.put_var(v);
            }
        }
        let mut forged = image[..at].to_vec();
        forged.extend_from_slice(e.bytes());
        forged.extend_from_slice(tail);
        forged
    };
    // A well-formed forgery opens, so each fault below is the only one.
    let dir = dir_with_snapshot("forged4-ok", &forge(&[&[0, 0]], &[]));
    Bdms::open(&dir).unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
    let count_past = {
        let mut f = forge(&[&[0, 0]], &[]);
        f[at] = 2;
        f
    };
    let section = |bytes: &[u8]| [&image[..at], bytes].concat();
    let cases = [
        ("wid past the worlds", forge(&[&[nworlds, 0]], &[])),
        ("wid past 32 bits", forge(&[&[1 << 32, 0]], &[])),
        ("tid past the tuples", forge(&[&[0, ntuples << 1]], &[])),
        ("tid past 32 bits", forge(&[&[0, 1 << 33]], &[])),
        ("count past the payload", count_past),
        (
            "count u64::MAX",
            section(&[0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01]),
        ),
        ("overlong count", section(&[0x81, 0x00, 0, 0])),
        ("unterminated varint", section(&[1, 0, 0x80])),
        ("varint past ten bytes", section(&[0xFF; 11])),
    ];
    for (fault, forged) in cases {
        let dir = dir_with_snapshot("forged4", &forged);
        match Bdms::open(&dir) {
            Err(BeliefError::Storage(StorageError::Corrupt(_))) => {}
            other => panic!("{fault}: expected Corrupt, got {:?}", other.map(|_| ())),
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// The version-6 image of a store of three worlds (ε, Alice, Bob) and
/// three tuples of one relation: `s1 crow` stated by ε and denied by Bob,
/// `s2 raven` and `s3 owl` stated by Alice.
fn forgery_source() -> Vec<u8> {
    let dir = temp_dir("forge-src");
    let schema = ExternalSchema::new().with_relation("S", &["sid", "species"]);
    let mut built = Bdms::create(&dir, schema).unwrap();
    let alice = built.add_user("Alice").unwrap();
    let bob = built.add_user("Bob").unwrap();
    let stated = [
        (vec![], ["s1", "crow"], Sign::Pos),
        (vec![alice], ["s2", "raven"], Sign::Pos),
        (vec![alice], ["s3", "owl"], Sign::Pos),
        (vec![bob], ["s1", "crow"], Sign::Neg),
    ];
    for (users, [sid, species], sign) in stated {
        let path = BeliefPath::new(users).unwrap();
        let outcome = built
            .insert(path, RelId(0), row![sid, species], sign)
            .unwrap();
        assert!(outcome.accepted());
    }
    built.checkpoint().unwrap();
    let image = latest_snapshot(&dir);
    drop(built);
    std::fs::remove_dir_all(&dir).unwrap();
    image
}

/// Open a directory whose only snapshot is each of `cases`, and expect
/// `Corrupt` for every one.
fn assert_corrupt_opens(cases: Vec<(&str, Vec<u8>)>) {
    for (fault, forged) in cases {
        let dir = dir_with_snapshot("forged", &forged);
        match Bdms::open(&dir) {
            Err(BeliefError::Storage(StorageError::Corrupt(_))) => {}
            other => panic!("{fault}: expected Corrupt, got {:?}", other.map(|_| ())),
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// Version-5 payloads with a valid checksum but one fault each — in a
/// string column, a bit width past 32, packed codes shorter than their
/// count times their width, a code past its dictionary, a width wider
/// than the largest code; in the runs of tuple relations, a count past
/// the bytes left, a relation past the schema, two runs of one relation;
/// in the statement groups, a world or tuple past the image's lists,
/// group counts that do not sum to the statement count, worlds or tuples
/// that do not ascend, an empty group — fail the open with `Corrupt`,
/// without a panic.
#[test]
fn forged_version_5_snapshots_are_corrupt() {
    let image = version_5_image(&SnapshotData::decode(&forgery_source()).unwrap());
    assert_eq!(image[0], 5);
    let (parsed, sections): (SnapshotData, SnapshotSections) =
        SnapshotData::decode_sections(&image).unwrap();
    assert_eq!((parsed.worlds.len(), parsed.tuples.len()), (3, 3));

    // The tuple section: one run of three tuples of relation 0, then each
    // column's dictionary and its codes 1, 2, 3 packed at two bits
    // (0b11_10_01). The statement section: four statements in three
    // groups — ε states tid 0; Alice (wid + 1) tids 1 and 2 (+ 1); Bob
    // (wid + 1) tid 0, its sign bit set.
    let column = |dict: [&str; 3], codes: &[u8]| {
        let mut e = Enc::new();
        e.put_u8(1);
        e.put_var(3);
        for s in dict {
            e.put_str(s);
        }
        [e.bytes(), codes].concat()
    };
    let sid = |codes: &[u8]| column(["s1", "s2", "s3"], codes);
    let species = column(["crow", "raven", "owl"], &[2, 0b11_10_01]);
    let tuples = |runs: &[u8], sid_column: &[u8]| [runs, sid_column, &species].concat();
    let good_tuples = tuples(&[1, 0, 3], &sid(&[2, 0b11_10_01]));
    let good_statements = [4, 3, 0, 1, 0, 1, 2, 2, 2, 1, 1, 1];
    let tuples_at = sections.header + sections.worlds;
    let statements_at = tuples_at + sections.tuples;
    assert_eq!(image[tuples_at..statements_at], good_tuples[..]);
    assert_eq!(image[statements_at..], good_statements[..]);
    let forge =
        |tuples: &[u8], statements: &[u8]| [&image[..tuples_at], tuples, statements].concat();
    // A well-formed forgery opens, so each fault below is the only one.
    let dir = dir_with_snapshot("forged5-ok", &forge(&good_tuples, &[1, 1, 1, 1, 2]));
    assert_eq!(
        Bdms::open(&dir)
            .unwrap()
            .to_belief_database()
            .unwrap()
            .len(),
        1
    );
    std::fs::remove_dir_all(&dir).unwrap();

    let bad_tuples =
        |runs: &[u8], sid_column: &[u8]| forge(&tuples(runs, sid_column), &good_statements);
    let bad_statements = |statements: &[u8]| forge(&good_tuples, statements);
    let cases = [
        (
            "bit width 33",
            bad_tuples(&[1, 0, 3], &sid(&[33, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0])),
        ),
        // Three codes of five bits need two bytes; the payload ends after one.
        (
            "packed codes cut short",
            [&image[..tuples_at], &[1, 0, 3][..], &sid(&[5, 0x41])].concat(),
        ),
        // 1, 2, 4 at three bits: 0b0_100_010_001.
        (
            "code past the dictionary",
            bad_tuples(&[1, 0, 3], &sid(&[3, 0b00_010_001, 0b1])),
        ),
        (
            "one code past the dictionary",
            bad_tuples(&[1, 0, 3], &sid(&[0, 4])),
        ),
        // 1, 2, 3 at three bits, one more than 3 needs.
        (
            "width past the largest code",
            bad_tuples(&[1, 0, 3], &sid(&[3, 0b11_010_001, 0])),
        ),
        (
            "one code packed three times",
            bad_tuples(&[1, 0, 3], &sid(&[1, 0b111])),
        ),
        (
            "set padding bits",
            bad_tuples(&[1, 0, 3], &sid(&[2, 0b1011_1001])),
        ),
        (
            "run past the bytes left",
            bad_tuples(&[1, 0, 0xFF, 0xFF, 0xFF, 0x7F], &sid(&[2, 0b11_10_01])),
        ),
        (
            "relation past the schema",
            bad_tuples(&[1, 1, 3], &sid(&[2, 0b11_10_01])),
        ),
        (
            "two runs of one relation",
            bad_tuples(&[2, 0, 1, 0, 2], &sid(&[2, 0b11_10_01])),
        ),
        (
            "empty run",
            bad_tuples(&[2, 0, 3, 0, 0], &sid(&[2, 0b11_10_01])),
        ),
        ("wid past the worlds", bad_statements(&[1, 1, 3, 1, 0])),
        (
            "wid past 32 bits",
            bad_statements(&[1, 1, 0x80, 0x80, 0x80, 0x80, 0x10, 1, 0]),
        ),
        ("tid past the tuples", bad_statements(&[1, 1, 0, 1, 6])),
        (
            "tid past 32 bits",
            bad_statements(&[1, 1, 0, 1, 0x80, 0x80, 0x80, 0x80, 0x20]),
        ),
        (
            "groups short of the count",
            bad_statements(&[4, 1, 0, 1, 0]),
        ),
        (
            "groups past the count",
            bad_statements(&[1, 2, 0, 1, 0, 1, 1, 2]),
        ),
        (
            "tids that do not ascend",
            bad_statements(&[2, 1, 1, 2, 2, 0]),
        ),
        (
            "a repeated tid of the other sign",
            bad_statements(&[2, 1, 1, 2, 2, 1]),
        ),
        (
            "wids that do not ascend",
            bad_statements(&[2, 2, 1, 1, 2, 0, 1, 2]),
        ),
        ("an empty group", bad_statements(&[1, 2, 0, 0, 1, 1, 2])),
        ("count past the payload", bad_statements(&[9, 1, 0, 1, 0])),
    ];
    assert_corrupt_opens(cases.into());
}

/// Version-6 payloads with a valid checksum but one fault each against
/// the canonical form of what version 6 changed — in a string dictionary,
/// entries that do not ascend, a repeated entry, a shared prefix shorter
/// than the longest or past the entry before, an entry that is not UTF-8,
/// an entry no tuple uses; in the codes, a column flagged with NULLs that
/// holds none, a code past the dictionary of a column without NULLs; in
/// the worlds, no root, a parent at or past the world's own wid, a user
/// equal to the parent's last, a user never registered — fail the open
/// with `Corrupt`, without a panic.
#[test]
fn forged_version_6_snapshots_are_corrupt() {
    let image = forgery_source();
    assert_eq!(image[0], 6);
    let sections: SnapshotSections = SnapshotData::decode_sections(&image).unwrap().1;
    let tuples_at = sections.header + sections.worlds;
    let statements_at = tuples_at + sections.tuples;

    // The worlds: three, Alice and Bob each one and two back from ε. The
    // tuple section: one run of three tuples of relation 0; `sid` flagged
    // without NULLs (kind 4), "s1" "s2" "s3" front-coded, ranks 0, 1, 2 at
    // two bits (0b10_01_00); `species`, "crow" "owl" "raven", ranks 0
    // (crow), 2 (raven), 1 (owl) (0b01_10_00).
    let good_worlds = [3, 1, 1, 2, 2];
    // Each dictionary entry as its shared count, rest length and rest.
    let column = |kind: u8, dict: &[&[u8]], codes: &[u8]| {
        [&[kind, dict.len() as u8][..], &dict.concat(), codes].concat()
    };
    let species = column(
        4,
        &[b"\0\x04crow", b"\0\x03owl", b"\0\x05raven"],
        &[2, 0b01_10_00],
    );
    let sid = |kind: u8, dict: &[&[u8]], codes: &[u8]| {
        [&[1, 0, 3][..], &column(kind, dict, codes), &species].concat()
    };
    let sids: [&[u8]; 3] = [b"\0\x02s1", b"\x01\x012", b"\x01\x013"];
    let good_tuples = sid(4, &sids, &[2, 0b10_01_00]);
    assert_eq!(image[sections.header..tuples_at], good_worlds);
    assert_eq!(image[tuples_at..statements_at], good_tuples[..]);
    let forge = |worlds: &[u8], tuples: &[u8]| {
        [
            &image[..sections.header],
            worlds,
            tuples,
            &image[statements_at..],
        ]
        .concat()
    };
    // A well-formed forgery opens, so each fault below is the only one:
    // Bob's world (wid 2) as Alice·Bob, one back from Alice.
    let dir = dir_with_snapshot("forged6-ok", &forge(&[3, 1, 1, 1, 2], &good_tuples));
    let opened = Bdms::open(&dir).unwrap();
    let alice_bob = BeliefPath::new(vec![UserId(1), UserId(2)]).unwrap();
    assert!(opened.internal().directory().get(&alice_bob).is_some());
    drop(opened);
    std::fs::remove_dir_all(&dir).unwrap();

    let bad_sid =
        |kind: u8, dict: &[&[u8]], codes: &[u8]| forge(&good_worlds, &sid(kind, dict, codes));
    let bad_worlds = |worlds: &[u8]| forge(worlds, &good_tuples);
    let codes = [2, 0b10_01_00];
    let cases = vec![
        (
            "entries that do not ascend",
            bad_sid(4, &[b"\0\x02s1", b"\x01\x013", b"\x01\x012"], &codes),
        ),
        (
            "a repeated entry",
            bad_sid(4, &[b"\0\x02s1", b"\x02\0", b"\x01\x012"], &codes),
        ),
        (
            "a shared prefix short of the longest",
            bad_sid(4, &[b"\0\x02s1", b"\0\x02s2", b"\x01\x013"], &codes),
        ),
        (
            "a shared prefix past the entry before",
            bad_sid(4, &[b"\0\x02s1", b"\x03\x012", b"\x01\x013"], &codes),
        ),
        (
            "the first entry sharing a prefix",
            bad_sid(4, &[b"\x01\x02s1", b"\x01\x012", b"\x01\x013"], &codes),
        ),
        // 0xC3 opens a two-byte character that nothing completes.
        (
            "an entry that is not UTF-8",
            bad_sid(4, &[b"\0\x02s1", b"\x01\x012", b"\0\x01\xC3"], &codes),
        ),
        (
            "an entry no tuple uses",
            bad_sid(
                4,
                &[b"\0\x02s1", b"\x01\x012", b"\x01\x013", b"\x01\x014"],
                &codes,
            ),
        ),
        // Ranks plus one, 1, 2, 3 at two bits: a NULL flag and no NULL.
        (
            "a column flagged with NULLs that holds none",
            bad_sid(1, &sids, &[2, 0b11_10_01]),
        ),
        // Ranks 0, 1, 3 at two bits, three entries.
        (
            "a code past the dictionary",
            bad_sid(4, &sids, &[2, 0b11_01_00]),
        ),
        (
            "a packed run wider than its codes",
            bad_sid(4, &sids, &[3, 0b10_001_000, 0]),
        ),
        ("no root world", bad_worlds(&[0])),
        (
            "a parent at the world's own wid",
            bad_worlds(&[3, 0, 1, 2, 2]),
        ),
        (
            "a parent past the world's own wid",
            bad_worlds(&[3, 2, 1, 2, 2]),
        ),
        (
            "a user equal to the parent's last",
            bad_worlds(&[3, 1, 1, 1, 1]),
        ),
        ("a user never registered", bad_worlds(&[3, 1, 1, 2, 9])),
    ];
    assert_corrupt_opens(cases);
}

/// A directory in the previous release's formats — a version-3 snapshot
/// and a version-1 segment — opens as its store, appends into a fresh
/// version-2 segment (never into the version-1 one), reopens unchanged,
/// and comes out as version 6 after a checkpoint.
#[test]
fn previous_release_directory_opens_appends_and_upgrades() {
    let n = history().len();
    let (hwm, k) = (6, 10);
    let dir = legacy_dir("legacy", hwm, k);
    let v1_segment = dir.join(segment_file_name(hwm as u64));
    let v1_bytes = std::fs::read(&v1_segment).unwrap();
    assert_eq!(frame_spans(&v1_segment).unwrap().len(), k - hwm);

    let mut reopened = Bdms::open(&dir).unwrap();
    assert_same(&reopened, &expected_after(k), "previous-release directory");
    let stats = reopened.wal_stats().unwrap();
    assert_eq!((stats.snapshot_hwm, stats.next_lsn), (hwm as u64, k as u64));

    for op in &history()[k..] {
        apply(&mut reopened, op);
    }
    assert_same(&reopened, &expected_after(n), "appends after the upgrade");
    let live = dir;
    let dir = crash_image(&live, "legacy-crash");
    let v1_segment = dir.join(segment_file_name(hwm as u64));
    assert_eq!(
        std::fs::read(&v1_segment).unwrap(),
        v1_bytes,
        "v1 segment untouched"
    );
    let segments = list_segments(&dir).unwrap();
    assert_eq!(
        segments.iter().map(|s| s.0).collect::<Vec<_>>(),
        [hwm as u64, k as u64]
    );
    let new_segment = std::fs::read(&segments[1].1).unwrap();
    assert_eq!(&new_segment[..8], b"BDBWAL02");
    assert_eq!(frame_spans(&segments[1].1).unwrap().len(), n - k);

    let mut again = Bdms::open(&dir).unwrap();
    assert_eq!(frames(&again), (n - hwm) as u64);
    assert_same(&again, &expected_after(n), "reopen after the upgrade");
    assert_eq!(list_segments(&dir).unwrap().len(), 2);
    again.checkpoint().unwrap();
    assert_eq!(latest_snapshot(&dir)[0], 6);
    let segments = list_segments(&dir).unwrap();
    assert_eq!(segments.len(), 1);
    assert_eq!(&std::fs::read(&segments[0].1).unwrap()[..8], b"BDBWAL02");
    drop(again);
    let upgraded = Bdms::open(&dir).unwrap();
    assert_same(&upgraded, &expected_after(n), "version-6 checkpoint");
    drop((reopened, upgraded));
    std::fs::remove_dir_all(&live).unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The fault matrix on a version-1 segment: its last frame torn at every
/// byte offset, and one byte flipped per frame in the header and in the
/// payload, each recover exactly the ops before the damaged frame.
#[test]
fn version_1_segment_faults_keep_the_valid_prefix() {
    let (hwm, n) = (4, history().len());
    let src = legacy_dir("legacy-faults", hwm, n);
    let (_, seg_path) = list_segments(&src).unwrap()[0].clone();
    let seg_name = seg_path.file_name().unwrap().to_owned();
    let spans = frame_spans(&seg_path).unwrap();
    assert_eq!(spans.len(), n - hwm);
    let full = std::fs::read(&seg_path).unwrap();
    let scratch = temp_dir("legacy-faults-cut");
    let (last_off, last_len) = *spans.last().unwrap();
    let mut damaged = Vec::new();
    for cut in last_off..last_off + last_len {
        damaged.push((
            n - 1,
            full[..cut as usize].to_vec(),
            format!("cut at byte {cut}"),
        ));
    }
    for (j, &(off, len)) in spans.iter().enumerate() {
        for flip_at in [off + len - 1, off + 1, off + 9] {
            let mut bytes = full.clone();
            bytes[flip_at as usize] ^= 0x20;
            damaged.push((
                hwm + j,
                bytes,
                format!("byte {flip_at} flipped in frame {j}"),
            ));
        }
    }
    for (k, bytes, what) in damaged {
        copy_dir(&src, &scratch);
        std::fs::write(scratch.join(&seg_name), &bytes).unwrap();
        let recovered = Bdms::open(&scratch).unwrap();
        assert_same(&recovered, &expected_after(k), &what);
    }
    std::fs::remove_dir_all(&src).unwrap();
    std::fs::remove_dir_all(&scratch).unwrap();
}
