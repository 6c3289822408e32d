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
//!   structure — tids, the tid cache, the world directory, `V`-slices,
//!   `E`/`D`/`S`, optimizer table versions — is rebuilt consistently
//!   without being serialized.
//! * [`SnapshotData`] — a full-state image: the store's default policy,
//!   external schema, user table, the world directory (in wid order), the
//!   `R*` tuple table (in tid order), and every explicit belief statement.
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
use crate::internal::{DefaultPolicy, InternalStore};
use crate::path::BeliefPath;
use crate::schema::ExternalSchema;
use crate::statement::{BeliefStatement, GroundTuple, Sign};
use beliefdb_storage::persist::{Dec, Enc, PersistEngine};
use beliefdb_storage::{Row, StorageError};

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
    let sign =
        Sign::from_code(d.take_u8()?).ok_or_else(|| corrupt("invalid sign byte in log record"))?;
    Ok(BeliefStatement::new(path, GroundTuple::new(rel, row), sign))
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
/// Version 2 adds the policy byte after the version; a version-1 snapshot
/// was written by an `Eager` store and opens as one.
const SNAPSHOT_VERSION: u8 = 2;

fn policy_code(policy: DefaultPolicy) -> u8 {
    match policy {
        DefaultPolicy::Eager => 0,
        DefaultPolicy::Lazy => 1,
    }
}

/// A full-state image of an [`InternalStore`], in logical form.
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
    /// Every explicit belief statement.
    pub statements: Vec<BeliefStatement>,
}

impl SnapshotData {
    /// Capture the logical image of a store.
    pub(crate) fn of(store: &InternalStore) -> Result<SnapshotData> {
        let relations = store
            .schema()
            .relations()
            .iter()
            .map(|r| (r.name().to_string(), r.columns().to_vec()))
            .collect();
        let users = store.users.iter().map(|(_, n)| n.clone()).collect();
        let worlds = store.dir.iter().map(|(_, p)| p.clone()).collect();
        let mut tuples: Vec<Option<GroundTuple>> = vec![None; store.next_tid as usize];
        for (tuple, tid) in &store.tid_cache {
            tuples[tid.0 as usize] = Some(tuple.clone());
        }
        let tuples = tuples
            .into_iter()
            .enumerate()
            .map(|(i, t)| t.ok_or_else(|| corrupt(format!("tid {i} missing from tid cache"))))
            .collect::<Result<Vec<_>>>()?;
        let statements = store.to_belief_database()?.statements();
        Ok(SnapshotData {
            policy: store.policy(),
            relations,
            users,
            worlds,
            tuples,
            statements,
        })
    }

    pub fn encode(&self) -> Vec<u8> {
        let mut e = Enc::new();
        e.put_u8(SNAPSHOT_VERSION);
        e.put_u8(policy_code(self.policy));
        e.put_u32(self.relations.len() as u32);
        for (name, cols) in &self.relations {
            e.put_str(name);
            e.put_u32(cols.len() as u32);
            for c in cols {
                e.put_str(c);
            }
        }
        e.put_u32(self.users.len() as u32);
        for name in &self.users {
            e.put_str(name);
        }
        e.put_u32(self.worlds.len() as u32);
        for path in &self.worlds {
            put_path(&mut e, path);
        }
        e.put_u32(self.tuples.len() as u32);
        for t in &self.tuples {
            e.put_u32(t.rel.0);
            e.put_row(&t.row);
        }
        e.put_u32(self.statements.len() as u32);
        for stmt in &self.statements {
            put_statement(&mut e, stmt);
        }
        e.into_bytes()
    }

    pub fn decode(bytes: &[u8]) -> Result<SnapshotData> {
        let mut d = Dec::new(bytes);
        let policy = match d.take_u8()? {
            1 => DefaultPolicy::Eager,
            SNAPSHOT_VERSION => match d.take_u8()? {
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
        for _ in 0..nstmts {
            statements.push(take_statement(&mut d)?);
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
    /// because of rejected inserts), then the explicit statements are
    /// inserted through Algorithm 4, which rebuilds every `V`-slice under
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
            let wid = store.ensure_world(path)?;
            if wid != Wid(i as u32) {
                return Err(corrupt(format!(
                    "world {path} restored as wid {wid}, snapshot says {i}"
                )));
            }
        }
        for (i, tuple) in self.tuples.iter().enumerate() {
            let tid = store.tid_of_or_create(tuple)?;
            if tid != Tid(i as u32) {
                return Err(corrupt(format!(
                    "tuple {tuple} restored as tid {tid}, snapshot says {i}"
                )));
            }
        }
        for stmt in &self.statements {
            let outcome = store.insert_statement(stmt)?;
            if !outcome.accepted() {
                return Err(corrupt(format!(
                    "snapshot statement {stmt} rejected on restore"
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
        let payload = SnapshotData::of(store)?.encode();
        Ok(self.engine.checkpoint(&payload)?)
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

    #[test]
    fn snapshot_round_trips_through_bytes() {
        let data = SnapshotData {
            policy: DefaultPolicy::Lazy,
            relations: vec![("S".into(), vec!["sid".into(), "species".into()])],
            users: vec!["Alice".into(), "Bob".into()],
            worlds: vec![BeliefPath::root(), path(&[1]), path(&[2, 1])],
            tuples: vec![GroundTuple::new(RelId(0), row!["s1", "crow"])],
            statements: vec![BeliefStatement::positive(
                path(&[1]),
                GroundTuple::new(RelId(0), row!["s1", "crow"]),
            )],
        };
        let bytes = data.encode();
        assert_eq!(SnapshotData::decode(&bytes).unwrap(), data);
        // Version and policy bytes are checked.
        let mut bad = bytes.clone();
        bad[0] = 77;
        assert!(SnapshotData::decode(&bad).is_err());
        let mut bad = bytes.clone();
        bad[1] = 7;
        assert!(SnapshotData::decode(&bad).is_err());
        // A version-1 image has no policy byte and is an `Eager` store's.
        let mut v1 = bytes[..1].to_vec();
        v1[0] = 1;
        v1.extend_from_slice(&bytes[2..]);
        let eager = SnapshotData::decode(&v1).unwrap();
        assert_eq!(eager.policy, DefaultPolicy::Eager);
        assert_eq!(eager.statements, data.statements);
    }
}
