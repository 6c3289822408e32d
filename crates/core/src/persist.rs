//! Logical durability records and snapshots for the BDMS.
//!
//! The storage layer (`beliefdb_storage::persist`) provides checksummed
//! frames, segments, and snapshot files over *opaque* payloads; this
//! module defines what those payloads mean for a belief database:
//!
//! * [`LogRecord`] — one **logical** mutation (`AddUser`, `Insert`,
//!   `Delete`, `Update`). The log is logical rather than physical on
//!   purpose: replay goes through the exact same `insert_statement` /
//!   `delete_statement` code paths as live traffic, so every derived
//!   structure — tids, the indexes (`R*`'s tuple index among them), the
//!   world directory, `V`-slices, `E`/`D`/`S`, optimizer table versions —
//!   is rebuilt consistently without being serialized.
//! * [`SnapshotData`] — a full-state image: the store's default policy,
//!   external schema, user table, the world directory (in wid order), the
//!   `R*` tuple table (in tid order), and every explicit belief statement
//!   as a `(wid, tid, sign)` reference into those two lists.
//!   `encode_snapshot` writes it straight from the store's tables.
//!   Worlds and tuples are snapshotted separately from the statements because
//!   Algorithm 4 creates them even for *rejected* inserts (Sect. 5.3);
//!   restoring them in id order reproduces the exact wid/tid
//!   assignment, so `SizeStats` match the pre-crash store.
//!
//! `Durability` glues a [`PersistEngine`] to a store: append a record
//! before applying it ("append-then-apply" — mutations are validated
//! first so a logged record always replays cleanly), checkpoint on
//! demand or when the live log passes the configured threshold.

use crate::error::{BeliefError, Result};
use crate::ids::{RelId, Tid, UserId, Wid};
use crate::internal::{slice_entry, DefaultPolicy, InternalStore};
use crate::path::BeliefPath;
use crate::schema::ExternalSchema;
use crate::statement::{BeliefStatement, GroundTuple, Sign};
use beliefdb_storage::persist::{Dec, Enc, PersistEngine};
use beliefdb_storage::{CellHash, Row, StorageError};
use std::collections::HashMap;

pub use beliefdb_storage::persist::{PersistOptions, WalStats};

fn corrupt(msg: impl Into<String>) -> BeliefError {
    BeliefError::Storage(StorageError::Corrupt(msg.into()))
}

// ---------------------------------------------------------------------------
// Log records
// ---------------------------------------------------------------------------

/// One logical mutation, as appended to the WAL.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LogRecord {
    /// `Bdms::add_user`.
    AddUser(String),
    /// `Bdms::insert` / `insert_statement` (Algorithm 4).
    Insert(BeliefStatement),
    /// `Bdms::delete` / `delete_statement`.
    Delete(BeliefStatement),
    /// `Bdms::update`: replace `old_row` by `new_row` at `path`.
    Update {
        path: BeliefPath,
        rel: RelId,
        old_row: Row,
        new_row: Row,
    },
}

const TAG_ADD_USER: u8 = 1;
const TAG_INSERT: u8 = 2;
const TAG_DELETE: u8 = 3;
const TAG_UPDATE: u8 = 4;

fn put_path(e: &mut Enc, path: &BeliefPath) {
    e.put_u32(path.depth() as u32);
    for u in path.users() {
        e.put_u32(u.0);
    }
}

fn take_path(d: &mut Dec) -> Result<BeliefPath> {
    let n = d.take_u32()? as usize;
    let mut users = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        users.push(UserId(d.take_u32()?));
    }
    BeliefPath::new(users)
}

fn put_statement(e: &mut Enc, stmt: &BeliefStatement) {
    put_path(e, &stmt.path);
    e.put_u32(stmt.tuple.rel.0);
    e.put_row(&stmt.tuple.row);
    e.put_u8(stmt.sign.code());
}

fn take_statement(d: &mut Dec) -> Result<BeliefStatement> {
    let path = take_path(d)?;
    let rel = RelId(d.take_u32()?);
    let row = d.take_row()?;
    let sign = take_sign(d)?;
    Ok(BeliefStatement::new(path, GroundTuple::new(rel, row), sign))
}

fn take_sign(d: &mut Dec) -> Result<Sign> {
    Sign::from_code(d.take_u8()?).ok_or_else(|| corrupt("invalid sign byte"))
}

impl LogRecord {
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Enc::new();
        match self {
            LogRecord::AddUser(name) => {
                e.put_u8(TAG_ADD_USER);
                e.put_str(name);
            }
            LogRecord::Insert(stmt) => {
                e.put_u8(TAG_INSERT);
                put_statement(&mut e, stmt);
            }
            LogRecord::Delete(stmt) => {
                e.put_u8(TAG_DELETE);
                put_statement(&mut e, stmt);
            }
            LogRecord::Update {
                path,
                rel,
                old_row,
                new_row,
            } => {
                e.put_u8(TAG_UPDATE);
                put_path(&mut e, path);
                e.put_u32(rel.0);
                e.put_row(old_row);
                e.put_row(new_row);
            }
        }
        e.into_bytes()
    }

    pub fn decode(bytes: &[u8]) -> Result<LogRecord> {
        let mut d = Dec::new(bytes);
        let rec = match d.take_u8()? {
            TAG_ADD_USER => LogRecord::AddUser(d.take_str()?.to_string()),
            TAG_INSERT => LogRecord::Insert(take_statement(&mut d)?),
            TAG_DELETE => LogRecord::Delete(take_statement(&mut d)?),
            TAG_UPDATE => LogRecord::Update {
                path: take_path(&mut d)?,
                rel: RelId(d.take_u32()?),
                old_row: d.take_row()?,
                new_row: d.take_row()?,
            },
            t => return Err(corrupt(format!("unknown log record tag {t}"))),
        };
        d.finish()?;
        Ok(rec)
    }

    /// Apply this record to a store — the recovery path. Records were
    /// validated before being appended, so application errors here mean
    /// the log does not match the snapshot (corruption).
    pub(crate) fn apply(&self, store: &mut InternalStore) -> Result<()> {
        match self {
            LogRecord::AddUser(name) => {
                store.add_user(name.clone())?;
            }
            LogRecord::Insert(stmt) => {
                // Outcomes (including Rejected) are deterministic; the
                // side effects of rejected inserts — world creation, R*
                // rows — replay identically.
                store.insert_statement(stmt)?;
            }
            LogRecord::Delete(stmt) => {
                store.delete_statement(stmt)?;
            }
            LogRecord::Update {
                path,
                rel,
                old_row,
                new_row,
            } => {
                store.update(
                    path,
                    &GroundTuple::new(*rel, old_row.clone()),
                    &GroundTuple::new(*rel, new_row.clone()),
                )?;
            }
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Snapshots
// ---------------------------------------------------------------------------

/// Snapshot format version (bumped on incompatible layout changes).
/// Version 3 stores each statement as `(wid, tid, sign)`, ids into the
/// image's own world and tuple sections. Version 2 spelled each statement
/// out (path, relation, row, sign) and version 1 also lacks the policy byte
/// after the version: it was written by an `Eager` store and opens as one.
/// Only version 3 is written; all three are read.
const SNAPSHOT_VERSION: u8 = 3;

fn policy_code(policy: DefaultPolicy) -> u8 {
    match policy {
        DefaultPolicy::Eager => 0,
        DefaultPolicy::Lazy => 1,
    }
}

/// One explicit statement of a [`SnapshotData`], by id: the world
/// `worlds[wid]` states the tuple `tuples[tid]` (which names the relation)
/// with sign `sign`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StatementRef {
    pub wid: Wid,
    pub tid: Tid,
    pub sign: Sign,
}

/// A full-state image of an [`InternalStore`], as read back from a
/// snapshot payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotData {
    /// How the store applies the default rule.
    pub policy: DefaultPolicy,
    /// External relations as `(name, columns)`.
    pub relations: Vec<(String, Vec<String>)>,
    /// User names in registration order (`UserId` 1, 2, ...).
    pub users: Vec<String>,
    /// Belief paths of every world in wid order (index 0 is the root).
    pub worlds: Vec<BeliefPath>,
    /// Ground tuples of the `R*` tables in tid order.
    pub tuples: Vec<GroundTuple>,
    /// Every explicit belief statement, by id into `worlds` and `tuples`.
    pub statements: Vec<StatementRef>,
}

/// Encode the version-3 image of `store` straight from its tables: the
/// world directory in wid order, the `R*` heaps in tid order, and the
/// explicit rows of every `V` table as `(wid, tid, sign)`. Its cost is
/// proportional to worlds + tuples + explicit statements; no logical
/// copy of the store is built.
pub(crate) fn encode_snapshot(store: &InternalStore) -> Result<Vec<u8>> {
    let mut e = Enc::new();
    e.put_u8(SNAPSHOT_VERSION);
    e.put_u8(policy_code(store.policy()));
    let relations = store.schema().relations();
    e.put_u32(relations.len() as u32);
    for r in relations {
        e.put_str(r.name());
        e.put_u32(r.columns().len() as u32);
        for c in r.columns() {
            e.put_str(c);
        }
    }
    e.put_u32(store.users.len() as u32);
    for (_, name) in &store.users {
        e.put_str(name);
    }
    e.put_u32(store.dir.len() as u32);
    for (_, path) in store.dir.iter() {
        put_path(&mut e, path);
    }

    // Tids are dense across relations: place every `R*` row by its tid
    // column, then write the rows out in tid order, cell by cell.
    let stars = store
        .rel_ids()
        .map(|rel| store.star_of(rel))
        .collect::<Result<Vec<_>>>()?;
    let mut by_tid = vec![None; store.next_tid as usize];
    for (rel, star) in stars.iter().enumerate() {
        for rid in star.row_ids() {
            let slot = Tid::from_cell(star.cell(rid, 0)?)
                .and_then(|tid| by_tid.get_mut(tid.0 as usize))
                .ok_or_else(|| {
                    corrupt(format!(
                        "{} holds a tid past the last",
                        star.schema().name()
                    ))
                })?;
            *slot = Some((rel, rid));
        }
    }
    e.put_u32(by_tid.len() as u32);
    for (tid, slot) in by_tid.iter().enumerate() {
        let (rel, rid) = slot.ok_or_else(|| corrupt(format!("tid {tid} missing from R*")))?;
        let star = stars[rel];
        let arity = star.schema().arity() - 1;
        e.put_u32(rel as u32);
        e.put_u32(arity as u32);
        for col in 1..=arity {
            e.put_cell(star.cell(rid, col)?);
        }
    }

    // Under `Eager`, `V` also holds the implicit rows the default rule
    // derives; only the explicit ones are written.
    let count_at = e.bytes().len();
    e.put_u32(0);
    let mut count = 0u32;
    for rel in store.rel_ids() {
        let vt = store.v_of(rel)?;
        for rid in vt.row_ids() {
            let entry = slice_entry(vt, rid)?;
            if !entry.explicit {
                continue;
            }
            let wid = Wid::from_cell(vt.cell(rid, 0)?).ok_or_else(|| corrupt("bad wid in V"))?;
            e.put_u32(wid.0);
            e.put_u32(entry.tid.0);
            e.put_u8(entry.sign.code());
            count += 1;
        }
    }
    e.patch_u32(count_at, count);
    Ok(e.into_bytes())
}

impl SnapshotData {
    /// Decode a snapshot payload of any version (1 to 3).
    pub fn decode(bytes: &[u8]) -> Result<SnapshotData> {
        let mut d = Dec::new(bytes);
        let version = d.take_u8()?;
        let policy = match version {
            1 => DefaultPolicy::Eager,
            2 | SNAPSHOT_VERSION => match d.take_u8()? {
                0 => DefaultPolicy::Eager,
                1 => DefaultPolicy::Lazy,
                p => return Err(corrupt(format!("unknown default policy {p}"))),
            },
            version => return Err(corrupt(format!("unsupported snapshot version {version}"))),
        };
        let nrels = d.take_u32()? as usize;
        let mut relations = Vec::with_capacity(nrels.min(1024));
        for _ in 0..nrels {
            let name = d.take_str()?.to_string();
            let ncols = d.take_u32()? as usize;
            let mut cols = Vec::with_capacity(ncols.min(1024));
            for _ in 0..ncols {
                cols.push(d.take_str()?.to_string());
            }
            relations.push((name, cols));
        }
        let nusers = d.take_u32()? as usize;
        let mut users = Vec::with_capacity(nusers.min(1024));
        for _ in 0..nusers {
            users.push(d.take_str()?.to_string());
        }
        let nworlds = d.take_u32()? as usize;
        let mut worlds = Vec::with_capacity(nworlds.min(1024));
        for _ in 0..nworlds {
            worlds.push(take_path(&mut d)?);
        }
        let ntuples = d.take_u32()? as usize;
        let mut tuples = Vec::with_capacity(ntuples.min(1024));
        for _ in 0..ntuples {
            let rel = RelId(d.take_u32()?);
            let row = d.take_row()?;
            tuples.push(GroundTuple::new(rel, row));
        }
        let nstmts = d.take_u32()? as usize;
        let mut statements = Vec::with_capacity(nstmts.min(1024));
        if version == SNAPSHOT_VERSION {
            for _ in 0..nstmts {
                statements.push(StatementRef {
                    wid: Wid(d.take_u32()?),
                    tid: Tid(d.take_u32()?),
                    sign: take_sign(&mut d)?,
                });
            }
        } else {
            // Versions 1 and 2 spell each statement out: find its ids in
            // the image's own world and tuple sections.
            let wids: HashMap<&BeliefPath, Wid, CellHash> =
                (0..).map(Wid).zip(&worlds).map(|(w, p)| (p, w)).collect();
            let tids: HashMap<&GroundTuple, Tid, CellHash> =
                (0..).map(Tid).zip(&tuples).map(|(t, g)| (g, t)).collect();
            for _ in 0..nstmts {
                let stmt = take_statement(&mut d)?;
                match (wids.get(&stmt.path), tids.get(&stmt.tuple)) {
                    (Some(&wid), Some(&tid)) => statements.push(StatementRef {
                        wid,
                        tid,
                        sign: stmt.sign,
                    }),
                    _ => {
                        return Err(corrupt(format!(
                            "snapshot statement {stmt} names no world or tuple of the snapshot"
                        )))
                    }
                }
            }
        }
        d.finish()?;
        Ok(SnapshotData {
            policy,
            relations,
            users,
            worlds,
            tuples,
            statements,
        })
    }

    /// Rebuild the store this snapshot describes. Users, worlds, and
    /// tuples are registered in id order first (reproducing the exact
    /// `UserId`/`Wid`/`Tid` assignment, including ids that exist only
    /// because of rejected inserts), then each explicit statement is put
    /// through Algorithm 4 by its ids, which rebuilds every `V`-slice under
    /// the snapshot's policy (under `Lazy`, one row and a chain fold per
    /// statement).
    pub(crate) fn restore(&self) -> Result<InternalStore> {
        let mut schema = ExternalSchema::new();
        for (name, cols) in &self.relations {
            let cols: Vec<&str> = cols.iter().map(|c| c.as_str()).collect();
            schema.add_relation(name.clone(), &cols)?;
        }
        let mut store = InternalStore::with_policy(schema, self.policy)?;
        for name in &self.users {
            store.add_user(name.clone())?;
        }
        match self.worlds.first() {
            Some(root) if root.is_root() => {}
            _ => return Err(corrupt("snapshot world directory must start at ε")),
        }
        for (i, path) in self.worlds.iter().enumerate().skip(1) {
            if let Some(u) = path.users().iter().find(|u| !store.has_user(**u)) {
                return Err(corrupt(format!("world {path} names unknown user {u}")));
            }
            let wid = store.ensure_world(path)?;
            if wid != Wid(i as u32) {
                return Err(corrupt(format!(
                    "world {path} restored as wid {wid}, snapshot says {i}"
                )));
            }
        }
        for (i, tuple) in self.tuples.iter().enumerate() {
            store.schema().check_tuple(tuple.rel, &tuple.row)?;
            let tid = store.tid_of_or_create(tuple)?;
            if tid != Tid(i as u32) {
                return Err(corrupt(format!(
                    "tuple {tuple} restored as tid {tid}, snapshot says {i}"
                )));
            }
        }
        for s in &self.statements {
            let stated = self.tuples.get(s.tid.0 as usize).and_then(|t| {
                let key = t.row.values().first()?;
                (s.wid.0 < self.worlds.len() as u32).then_some((t.rel, key))
            });
            let Some((rel, key)) = stated else {
                return Err(corrupt(format!(
                    "snapshot statement ({}, {}) names no world or tuple of the snapshot",
                    s.wid, s.tid
                )));
            };
            let outcome = store.insert_ids(s.wid, rel, s.tid, key, s.sign)?;
            if !outcome.accepted() {
                return Err(corrupt(format!(
                    "snapshot statement ({}, {}, {}) rejected on restore",
                    s.wid, s.tid, s.sign
                )));
            }
        }
        Ok(store)
    }
}

// ---------------------------------------------------------------------------
// The Bdms-side handle
// ---------------------------------------------------------------------------

/// A store's durable companion: the engine plus append/checkpoint glue.
#[derive(Debug)]
pub(crate) struct Durability {
    pub(crate) engine: PersistEngine,
}

impl Durability {
    /// Append one validated record (append-then-apply: callers apply to
    /// the in-memory store only after this returns).
    pub(crate) fn append(&mut self, rec: &LogRecord) -> Result<()> {
        self.engine.append(&rec.encode())?;
        Ok(())
    }

    /// Snapshot `store` and truncate the log it covers.
    pub(crate) fn checkpoint(&mut self, store: &InternalStore) -> Result<u64> {
        self.engine.checkpoint_with(|| encode_snapshot(store))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::path::path;
    use beliefdb_storage::row;

    fn stmt() -> BeliefStatement {
        BeliefStatement::positive(
            path(&[2, 1]),
            GroundTuple::new(RelId(0), row!["s1", "crow", 3]),
        )
    }

    #[test]
    fn log_records_round_trip() {
        let records = vec![
            LogRecord::AddUser("Alice".into()),
            LogRecord::Insert(stmt()),
            LogRecord::Delete(BeliefStatement::negative(
                BeliefPath::root(),
                GroundTuple::new(RelId(1), row![7, beliefdb_storage::Value::Null, true]),
            )),
            LogRecord::Update {
                path: path(&[1]),
                rel: RelId(0),
                old_row: row!["s1", "crow", 3],
                new_row: row!["s1", "raven", 3],
            },
        ];
        for rec in records {
            let bytes = rec.encode();
            assert_eq!(LogRecord::decode(&bytes).unwrap(), rec, "{rec:?}");
        }
    }

    #[test]
    fn decode_rejects_mangled_records() {
        let bytes = LogRecord::Insert(stmt()).encode();
        // Unknown tag.
        let mut bad = bytes.clone();
        bad[0] = 99;
        assert!(LogRecord::decode(&bad).is_err());
        // Truncations at every cut point.
        for cut in 0..bytes.len() {
            assert!(LogRecord::decode(&bytes[..cut]).is_err(), "cut {cut}");
        }
        // Trailing garbage.
        let mut long = bytes.clone();
        long.push(0);
        assert!(LogRecord::decode(&long).is_err());
        // Invalid path (adjacent repetition) is rejected by validation.
        let mut e = Enc::new();
        e.put_u8(TAG_INSERT);
        e.put_u32(2);
        e.put_u32(5);
        e.put_u32(5);
        let bad_path = e.into_bytes();
        assert!(LogRecord::decode(&bad_path).is_err());
    }

    /// A store with two users, statements at three worlds, a rejected
    /// insert (its world and tuple are still created) and a delete.
    fn sample(policy: DefaultPolicy) -> InternalStore {
        let schema = ExternalSchema::new().with_relation("S", &["sid", "species"]);
        let mut store = InternalStore::with_policy(schema, policy).unwrap();
        store.add_user("Alice").unwrap();
        store.add_user("Bob").unwrap();
        let t = |sid: &str, sp: &str| GroundTuple::new(RelId(0), row![sid, sp]);
        let stated = [
            BeliefStatement::positive(path(&[1]), t("s1", "crow")),
            BeliefStatement::negative(path(&[2, 1]), t("s1", "crow")),
            BeliefStatement::positive(path(&[2, 1]), t("s1", "raven")),
            BeliefStatement::positive(BeliefPath::root(), t("s2", "owl")),
            BeliefStatement::positive(BeliefPath::root(), t("s3", "sparrow")),
            // Rejected: Alice already states a positive s1.
            BeliefStatement::positive(path(&[1]), t("s1", "heron")),
        ];
        for stmt in &stated {
            store.insert_statement(stmt).unwrap();
        }
        store
            .delete_statement(&BeliefStatement::positive(
                BeliefPath::root(),
                t("s2", "owl"),
            ))
            .unwrap();
        store
    }

    /// The version-1 or -2 layout of `data` with `statements` spelled out
    /// in place of `data.statements`.
    fn legacy_encode(version: u8, data: &SnapshotData, statements: &[BeliefStatement]) -> Vec<u8> {
        let mut e = Enc::new();
        e.put_u8(version);
        if version == 2 {
            e.put_u8(policy_code(data.policy));
        }
        e.put_u32(data.relations.len() as u32);
        for (name, cols) in &data.relations {
            e.put_str(name);
            e.put_u32(cols.len() as u32);
            for c in cols {
                e.put_str(c);
            }
        }
        e.put_u32(data.users.len() as u32);
        for name in &data.users {
            e.put_str(name);
        }
        e.put_u32(data.worlds.len() as u32);
        for p in &data.worlds {
            put_path(&mut e, p);
        }
        e.put_u32(data.tuples.len() as u32);
        for t in &data.tuples {
            e.put_u32(t.rel.0);
            e.put_row(&t.row);
        }
        e.put_u32(statements.len() as u32);
        for stmt in statements {
            put_statement(&mut e, stmt);
        }
        e.into_bytes()
    }

    #[test]
    fn snapshot_round_trips_through_bytes() {
        let store = sample(DefaultPolicy::Lazy);
        let bytes = encode_snapshot(&store).unwrap();
        assert_eq!(bytes[..2], [SNAPSHOT_VERSION, 1]);
        let data = SnapshotData::decode(&bytes).unwrap();
        assert_eq!(data.policy, DefaultPolicy::Lazy);
        assert_eq!(
            data.relations,
            vec![(
                "S".to_string(),
                vec!["sid".to_string(), "species".to_string()]
            )]
        );
        assert_eq!(data.users, ["Alice", "Bob"]);
        assert_eq!(
            data.worlds,
            store.dir.iter().map(|(_, p)| p.clone()).collect::<Vec<_>>()
        );
        for (i, t) in data.tuples.iter().enumerate() {
            assert_eq!(store.tid_of(t).unwrap(), Some(Tid(i as u32)));
        }
        let stored: usize = store
            .rel_ids()
            .map(|r| store.star_of(r).unwrap().len())
            .sum();
        assert_eq!(data.tuples.len(), stored);
        let spelled: Vec<BeliefStatement> = data
            .statements
            .iter()
            .map(|s| {
                BeliefStatement::new(
                    data.worlds[s.wid.0 as usize].clone(),
                    data.tuples[s.tid.0 as usize].clone(),
                    s.sign,
                )
            })
            .collect();
        let mut sorted = spelled.clone();
        sorted.sort();
        let mut stated = store.to_belief_database().unwrap().statements();
        stated.sort();
        assert_eq!(sorted, stated);
        let restored = data.restore().unwrap();
        assert_eq!(restored.table_sizes(), store.table_sizes());
        assert_eq!(encode_snapshot(&restored).unwrap(), bytes);
        // Version and policy bytes are checked.
        let mut bad = bytes.clone();
        bad[0] = 77;
        assert!(SnapshotData::decode(&bad).is_err());
        let mut bad = bytes.clone();
        bad[1] = 7;
        assert!(SnapshotData::decode(&bad).is_err());
        // Versions 1 and 2 spell the statements out and decode to the same
        // ids; a version-1 image has no policy byte and is an `Eager` store's.
        let v2 = legacy_encode(2, &data, &spelled);
        assert_eq!(SnapshotData::decode(&v2).unwrap(), data);
        let eager = SnapshotData::decode(&legacy_encode(1, &data, &spelled)).unwrap();
        assert_eq!(eager.policy, DefaultPolicy::Eager);
        assert_eq!(eager.statements, data.statements);
        // A spelled-out statement whose world or tuple the image lacks.
        let unknown = GroundTuple::new(RelId(0), row!["s9", "wren"]);
        for stray in [
            BeliefStatement::positive(path(&[1, 2]), spelled[0].tuple.clone()),
            BeliefStatement::positive(BeliefPath::root(), unknown),
        ] {
            let mut listed = spelled.clone();
            listed.push(stray);
            assert!(SnapshotData::decode(&legacy_encode(2, &data, &listed)).is_err());
        }
    }

    /// Version 3 spends 9 bytes on an explicit statement (`wid` and `tid`
    /// as u32, the sign byte) beyond the world and tuple sections, and
    /// nothing on the implicit rows `Eager` keeps in `V`. Deleting every
    /// statement keeps the worlds and tuples, so the difference in size is
    /// the statement section alone.
    #[test]
    fn version_3_costs_nine_bytes_per_explicit_statement() {
        for policy in [DefaultPolicy::Lazy, DefaultPolicy::Eager] {
            let mut store = sample(policy);
            let stated = store.to_belief_database().unwrap().statements();
            assert_eq!(stated.len(), 4);
            let full = encode_snapshot(&store).unwrap().len();
            for stmt in &stated {
                assert!(store.delete_statement(stmt).unwrap());
            }
            let bare = encode_snapshot(&store).unwrap();
            assert!(SnapshotData::decode(&bare).unwrap().statements.is_empty());
            assert_eq!(full - bare.len(), 9 * stated.len(), "{policy:?}");
        }
        let eager = sample(DefaultPolicy::Eager);
        let v_rows = eager.v_of(RelId(0)).unwrap().len();
        assert!(v_rows > 4, "Eager's V holds implicit rows too: {v_rows}");
    }
}
