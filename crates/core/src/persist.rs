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
//!   `encode_snapshot` writes it straight from the store's tables, `R*`
//!   column by column with each string column as the heap's own
//!   dictionary and one code per tuple.
//!   Worlds and tuples are snapshotted separately from the statements because
//!   Algorithm 4 creates them even for *rejected* inserts (Sect. 5.3);
//!   restoring them in id order reproduces the exact wid/tid
//!   assignment, so `SizeStats` match the pre-crash store.
//!
//! `Durability` glues a [`PersistEngine`] to a store: append a record
//! before applying it ("append-then-apply" — mutations are validated
//! first so a logged record always replays cleanly), checkpoint on
//! demand or when the live log passes the configured threshold, and on
//! close fold a log that has outgrown the newest snapshot into a new one.

use crate::error::{BeliefError, Result};
use crate::ids::{RelId, Tid, UserId, Wid};
use crate::internal::{slice_entry, DefaultPolicy, InternalStore};
use crate::path::BeliefPath;
use crate::schema::ExternalSchema;
use crate::statement::{BeliefStatement, GroundTuple, Sign};
use beliefdb_storage::persist::{Dec, Enc, PersistEngine};
use beliefdb_storage::{Cell, CellHash, Row, RowId, StorageError, Table, Value};
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

// A record's first byte names its kind and its layout. The varint codec's
// tags are written; 1 to 4 are the same kinds in the fixed-width layout of
// WAL v1 segments, and are only read.
const TAG_ADD_USER: u8 = 5;
const TAG_INSERT: u8 = 6;
const TAG_DELETE: u8 = 7;
const TAG_UPDATE: u8 = 8;
const FIXED_TAGS: u8 = TAG_ADD_USER - 1;

fn put_path(e: &mut Enc, path: &BeliefPath) {
    e.put_var(path.depth() as u64);
    for u in path.users() {
        e.put_var(u.0.into());
    }
}

fn take_path(d: &mut Dec) -> Result<BeliefPath> {
    let n = d.take_len()?;
    let mut users = Vec::new();
    for _ in 0..n {
        users.push(UserId(d.take_id()?));
    }
    BeliefPath::new(users)
}

fn put_statement(e: &mut Enc, stmt: &BeliefStatement) {
    put_path(e, &stmt.path);
    e.put_var(stmt.tuple.rel.0.into());
    e.put_row(&stmt.tuple.row);
    e.put_u8(stmt.sign.code());
}

fn take_statement(d: &mut Dec) -> Result<BeliefStatement> {
    let path = take_path(d)?;
    let rel = RelId(d.take_id()?);
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
                e.put_var(rel.0.into());
                e.put_row(old_row);
                e.put_row(new_row);
            }
        }
        e.into_bytes()
    }

    /// Decode a record of either layout (see the tags above).
    pub fn decode(bytes: &[u8]) -> Result<LogRecord> {
        let tag = *bytes.first().ok_or_else(|| corrupt("empty log record"))?;
        let (mut d, tag) = match tag {
            1..=FIXED_TAGS => (Dec::fixed(bytes), tag + FIXED_TAGS),
            _ => (Dec::new(bytes), tag),
        };
        d.take_u8()?;
        let rec = match tag {
            TAG_ADD_USER => LogRecord::AddUser(d.take_str()?.to_string()),
            TAG_INSERT => LogRecord::Insert(take_statement(&mut d)?),
            TAG_DELETE => LogRecord::Delete(take_statement(&mut d)?),
            TAG_UPDATE => LogRecord::Update {
                path: take_path(&mut d)?,
                rel: RelId(d.take_id()?),
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
/// Version 4 is version 3 in the varint codec, with `R*` written column
/// by column (see [`encode_snapshot`]). Version 3 stores each statement as
/// `(wid, tid, sign)`, ids into the image's own world and tuple sections,
/// in the fixed-width layout. Version 2 spelled each statement out (path,
/// relation, row, sign) and version 1 also lacks the policy byte after the
/// version: it was written by an `Eager` store and opens as one. Only
/// version 4 is written; all four are read.
const SNAPSHOT_VERSION: u8 = 4;

/// How a version-4 image writes one attribute column of a relation's
/// `R*` tuples, in tid order: a string dictionary and a varint code per
/// tuple (0 for NULL, `i + 1` for entry `i`), a zig-zag varint per tuple,
/// or a tagged value per tuple.
const COLUMN_STR: u8 = 1;
const COLUMN_INT: u8 = 2;
const COLUMN_MIXED: u8 = 3;

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

/// Encode the version-4 image of `store` straight from its tables: the
/// world directory in wid order, the `R*` heaps in tid order, and the
/// explicit rows of every `V` table as `(wid, tid, sign)`. Its cost is
/// proportional to worlds + tuples + explicit statements; no logical
/// copy of the store is built, and nothing is hashed.
///
/// ```text
/// [version: u8 = 4] [policy: u8]
/// [n] n × ([name: str] [k] k × [column: str])     external schema
/// [n] n × [user name: str]                        UserId 1, 2, … in order
/// [n] n × ([depth] depth × [uid])                 world paths, wid order
/// [n] n × [rel]                                   each R* tuple's relation
/// per relation, per attribute column: [kind: u8] + its tuples' cells
/// [n] n × ([wid] [tid · 2 + (sign = '-')])        explicit statements
/// ```
///
/// Every number is a varint and every `str` a varint length and UTF-8.
pub(crate) fn encode_snapshot(store: &InternalStore) -> Result<Vec<u8>> {
    let mut e = Enc::new();
    e.put_u8(SNAPSHOT_VERSION);
    e.put_u8(policy_code(store.policy()));
    let relations = store.schema().relations();
    e.put_var(relations.len() as u64);
    for r in relations {
        e.put_str(r.name());
        e.put_var(r.columns().len() as u64);
        for c in r.columns() {
            e.put_str(c);
        }
    }
    e.put_var(store.users.len() as u64);
    for (_, name) in &store.users {
        e.put_str(name);
    }
    e.put_var(store.dir.len() as u64);
    for (_, path) in store.dir.iter() {
        put_path(&mut e, path);
    }

    // Tids are dense across relations: place every `R*` row by its tid
    // column, write the relation of each tid, then each relation's rows
    // in tid order, column by column.
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
    let mut rows_of = vec![Vec::new(); stars.len()];
    e.put_var(by_tid.len() as u64);
    for (tid, slot) in by_tid.iter().enumerate() {
        let (rel, rid) = slot.ok_or_else(|| corrupt(format!("tid {tid} missing from R*")))?;
        e.put_var(rel as u64);
        rows_of[rel].push(rid);
    }
    for (star, rids) in stars.iter().zip(&rows_of) {
        for col in 1..star.schema().arity() {
            put_column(&mut e, star, col, rids)?;
        }
    }

    // Under `Eager`, `V` also holds the implicit rows the default rule
    // derives; only the explicit ones are written.
    let mut statements = Enc::new();
    let mut count = 0u64;
    for rel in store.rel_ids() {
        let vt = store.v_of(rel)?;
        for rid in vt.row_ids() {
            let entry = slice_entry(vt, rid)?;
            if !entry.explicit {
                continue;
            }
            let wid = Wid::from_cell(vt.cell(rid, 0)?).ok_or_else(|| corrupt("bad wid in V"))?;
            statements.put_var(wid.0.into());
            statements.put_var((u64::from(entry.tid.0) << 1) | u64::from(entry.sign == Sign::Neg));
            count += 1;
        }
    }
    e.put_var(count);
    let mut bytes = e.into_bytes();
    bytes.extend_from_slice(statements.bytes());
    Ok(bytes)
}

/// Write column `col` of the `R*` rows `rids` (see [`COLUMN_STR`]). A
/// string column is written as the heap keeps it: its dictionary, in the
/// order the column met the strings, and each row's code.
fn put_column(e: &mut Enc, star: &Table, col: usize, rids: &[RowId]) -> Result<()> {
    if let Some(dict) = star.dictionary(col)? {
        e.put_u8(COLUMN_STR);
        e.put_var(dict.len() as u64);
        for s in dict {
            e.put_str(s);
        }
        for &rid in rids {
            e.put_var(star.code(rid, col)?.map_or(0, |c| u64::from(c) + 1));
        }
        return Ok(());
    }
    let mut ints = true;
    for &rid in rids {
        ints &= matches!(star.cell(rid, col)?, Cell::Int(_));
    }
    e.put_u8(if ints { COLUMN_INT } else { COLUMN_MIXED });
    for &rid in rids {
        match star.cell(rid, col)? {
            Cell::Int(i) if ints => e.put_zig(i),
            cell => e.put_cell(cell),
        }
    }
    Ok(())
}

/// Read back one column [`put_column`] wrote for `count` tuples.
fn take_column(d: &mut Dec, count: usize) -> Result<Vec<Value>> {
    let mut vals = Vec::new();
    match d.take_u8()? {
        COLUMN_STR => {
            let n = d.take_len()?;
            let mut dict = Vec::new();
            for _ in 0..n {
                dict.push(Value::str(d.take_str()?));
            }
            for _ in 0..count {
                vals.push(match d.take_var()? {
                    0 => Value::Null,
                    code => usize::try_from(code - 1)
                        .ok()
                        .and_then(|i| dict.get(i))
                        .cloned()
                        .ok_or_else(|| {
                            corrupt(format!("string code {code} past a dictionary of {n}"))
                        })?,
                });
            }
        }
        COLUMN_INT => {
            for _ in 0..count {
                vals.push(Value::Int(d.take_zig()?));
            }
        }
        COLUMN_MIXED => {
            for _ in 0..count {
                vals.push(d.take_value()?);
            }
        }
        kind => return Err(corrupt(format!("unknown column kind {kind}"))),
    }
    Ok(vals)
}

/// Read back the tuple section of a version-4 image: each tid's relation,
/// then each relation's columns, zipped into rows in tid order.
fn take_tuples(d: &mut Dec, relations: &[(String, Vec<String>)]) -> Result<Vec<GroundTuple>> {
    let n = d.take_len()?;
    let mut rels = Vec::new();
    let mut counts = vec![0; relations.len()];
    for _ in 0..n {
        let rel = d.take_id()?;
        *counts
            .get_mut(rel as usize)
            .ok_or_else(|| corrupt(format!("tuple of relation {rel}, past the schema")))? += 1;
        rels.push(RelId(rel));
    }
    let mut columns = Vec::new();
    for ((_, cols), &count) in relations.iter().zip(&counts) {
        let mut rel_columns = Vec::new();
        for _ in cols {
            rel_columns.push(take_column(d, count)?.into_iter());
        }
        columns.push(rel_columns);
    }
    Ok(rels
        .into_iter()
        .map(|rel| {
            let cells = columns[rel.0 as usize]
                .iter_mut()
                .map(|c| c.next().expect("count cells per column"));
            GroundTuple::new(rel, Row::new(cells))
        })
        .collect())
}

impl SnapshotData {
    /// Decode a snapshot payload of any version (1 to 4).
    pub fn decode(bytes: &[u8]) -> Result<SnapshotData> {
        let version = *bytes.first().ok_or_else(|| corrupt("empty snapshot"))?;
        let mut d = match version {
            SNAPSHOT_VERSION => Dec::new(bytes),
            _ => Dec::fixed(bytes),
        };
        d.take_u8()?;
        let policy = match version {
            1 => DefaultPolicy::Eager,
            2..=SNAPSHOT_VERSION => match d.take_u8()? {
                0 => DefaultPolicy::Eager,
                1 => DefaultPolicy::Lazy,
                p => return Err(corrupt(format!("unknown default policy {p}"))),
            },
            version => return Err(corrupt(format!("unsupported snapshot version {version}"))),
        };
        let nrels = d.take_len()?;
        let mut relations = Vec::new();
        for _ in 0..nrels {
            let name = d.take_str()?.to_string();
            let ncols = d.take_len()?;
            let mut cols = Vec::new();
            for _ in 0..ncols {
                cols.push(d.take_str()?.to_string());
            }
            relations.push((name, cols));
        }
        let nusers = d.take_len()?;
        let mut users = Vec::new();
        for _ in 0..nusers {
            users.push(d.take_str()?.to_string());
        }
        let nworlds = d.take_len()?;
        let mut worlds = Vec::new();
        for _ in 0..nworlds {
            worlds.push(take_path(&mut d)?);
        }
        let tuples = if version == SNAPSHOT_VERSION {
            take_tuples(&mut d, &relations)?
        } else {
            let ntuples = d.take_len()?;
            let mut tuples = Vec::new();
            for _ in 0..ntuples {
                let rel = RelId(d.take_id()?);
                let row = d.take_row()?;
                tuples.push(GroundTuple::new(rel, row));
            }
            tuples
        };
        let nstmts = d.take_len()?;
        let mut statements = Vec::new();
        if version == SNAPSHOT_VERSION {
            for _ in 0..nstmts {
                let wid = Wid(d.take_id()?);
                let signed = d.take_var()?;
                let tid = u32::try_from(signed >> 1)
                    .map_err(|_| corrupt(format!("statement tid {} past 32 bits", signed >> 1)))?;
                let sign = if signed & 1 == 1 {
                    Sign::Neg
                } else {
                    Sign::Pos
                };
                statements.push(StatementRef {
                    wid,
                    tid: Tid(tid),
                    sign,
                });
            }
        } else if version == 3 {
            for _ in 0..nstmts {
                statements.push(StatementRef {
                    wid: Wid(d.take_id()?),
                    tid: Tid(d.take_id()?),
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
    /// A logged mutation failed to apply: the store may disagree with
    /// its log, so it must never be snapshotted, and the log must stay.
    pub(crate) diverged: bool,
}

impl Durability {
    pub(crate) fn new(engine: PersistEngine) -> Durability {
        Durability {
            engine,
            diverged: false,
        }
    }

    /// Append one validated record (append-then-apply: callers apply to
    /// the in-memory store only after this returns).
    pub(crate) fn append(&mut self, rec: &LogRecord) -> Result<()> {
        self.engine.append(&rec.encode())?;
        Ok(())
    }

    /// Snapshot `store` and truncate the log it covers. Refused once the
    /// store has diverged from its log.
    pub(crate) fn checkpoint(&mut self, store: &InternalStore) -> Result<u64> {
        if self.diverged {
            return Err(self.diverged_error());
        }
        self.engine.checkpoint_with(|| encode_snapshot(store))
    }

    /// Close the directory. When records lie past the newest snapshot and
    /// the live log has grown larger than that snapshot, `store` is
    /// checkpointed first — the close then costs about what the log it
    /// retires cost — and the engine's close step deletes the emptied log.
    /// A smaller log stays for the next open to replay. A diverged store
    /// writes nothing and keeps its log.
    pub(crate) fn close(mut self, store: &InternalStore) -> Result<()> {
        if self.diverged {
            return Err(self.diverged_error());
        }
        let stats = self.engine.stats();
        if stats.next_lsn > stats.snapshot_hwm && stats.wal_bytes > stats.snapshot_bytes {
            self.checkpoint(store)?;
        }
        Ok(self.engine.close()?)
    }

    fn diverged_error(&self) -> BeliefError {
        BeliefError::Storage(StorageError::Diverged(format!(
            "{}: a logged mutation failed to apply; no snapshot is taken, and \
             reopening replays the log",
            self.engine.dir().display()
        )))
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
        e.put_var(2);
        e.put_var(5);
        e.put_var(5);
        let bad_path = e.into_bytes();
        assert!(LogRecord::decode(&bad_path).is_err());
        // A uid past 32 bits.
        let mut e = Enc::new();
        e.put_u8(TAG_ADD_USER + 1);
        e.put_var(1);
        e.put_var(1 << 32);
        assert!(LogRecord::decode(&e.into_bytes()).is_err());
        assert!(LogRecord::decode(&[]).is_err());
    }

    /// The fixed-width layout of WAL v1 payloads and snapshots v1 to v3,
    /// which only these tests still write.
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
        fn row(&mut self, row: &Row) {
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
                        self.str(s);
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

    /// A record as WAL v1 segments hold it: tags 1 to 4, fixed width.
    fn fixed_record(rec: &LogRecord) -> Vec<u8> {
        let mut f = Fixed::default();
        match rec {
            LogRecord::AddUser(name) => {
                f.u8(1);
                f.str(name);
            }
            LogRecord::Insert(stmt) => {
                f.u8(2);
                f.statement(stmt);
            }
            LogRecord::Delete(stmt) => {
                f.u8(3);
                f.statement(stmt);
            }
            LogRecord::Update {
                path,
                rel,
                old_row,
                new_row,
            } => {
                f.u8(4);
                f.path(path);
                f.u32(rel.0);
                f.row(old_row);
                f.row(new_row);
            }
        }
        f.0
    }

    #[test]
    fn fixed_width_records_of_wal_v1_still_decode() {
        let records = [
            LogRecord::AddUser("Alice".into()),
            LogRecord::Insert(stmt()),
            LogRecord::Delete(stmt()),
            LogRecord::Update {
                path: path(&[1]),
                rel: RelId(0),
                old_row: row!["s1", "crow", 3],
                new_row: row!["s1", "raven", -3],
            },
        ];
        for rec in records {
            let fixed = fixed_record(&rec);
            assert_eq!(LogRecord::decode(&fixed).unwrap(), rec, "{rec:?}");
            // The varint layout of the same record is shorter.
            assert!(rec.encode().len() < fixed.len(), "{rec:?}");
            for cut in 0..fixed.len() {
                assert!(LogRecord::decode(&fixed[..cut]).is_err(), "cut {cut}");
            }
        }
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

    /// The version-1, -2 or -3 layout of `data`; versions 1 and 2 list
    /// `statements` spelled out in place of `data.statements`.
    fn legacy_encode(version: u8, data: &SnapshotData, statements: &[BeliefStatement]) -> Vec<u8> {
        let mut f = Fixed::default();
        f.u8(version);
        if version >= 2 {
            f.u8(policy_code(data.policy));
        }
        f.u32(data.relations.len() as u32);
        for (name, cols) in &data.relations {
            f.str(name);
            f.u32(cols.len() as u32);
            for c in cols {
                f.str(c);
            }
        }
        f.u32(data.users.len() as u32);
        for name in &data.users {
            f.str(name);
        }
        f.u32(data.worlds.len() as u32);
        for p in &data.worlds {
            f.path(p);
        }
        f.u32(data.tuples.len() as u32);
        for t in &data.tuples {
            f.u32(t.rel.0);
            f.row(&t.row);
        }
        if version == 3 {
            f.u32(data.statements.len() as u32);
            for s in &data.statements {
                f.u32(s.wid.0);
                f.u32(s.tid.0);
                f.u8(s.sign.code());
            }
        } else {
            f.u32(statements.len() as u32);
            for stmt in statements {
                f.statement(stmt);
            }
        }
        f.0
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
        // Version 3 is the same image in the fixed-width layout; versions 1
        // and 2 spell the statements out and decode to the same ids; a
        // version-1 image has no policy byte and is an `Eager` store's.
        let v3 = legacy_encode(3, &data, &[]);
        assert_eq!(SnapshotData::decode(&v3).unwrap(), data);
        assert!(
            bytes.len() * 2 < v3.len(),
            "{} B vs {} B",
            bytes.len(),
            v3.len()
        );
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

    /// Version 4 spends two varints on an explicit statement beyond the
    /// world and tuple sections — its wid, and its tid with the sign in
    /// the low bit — and nothing on the implicit rows `Eager` keeps in `V`.
    /// Deleting every statement keeps the worlds and tuples, so the
    /// difference in size is the statement section alone.
    #[test]
    fn version_4_costs_two_varints_per_explicit_statement() {
        for policy in [DefaultPolicy::Lazy, DefaultPolicy::Eager] {
            let mut store = sample(policy);
            let stated = store.to_belief_database().unwrap().statements();
            assert_eq!(stated.len(), 4);
            let full = encode_snapshot(&store).unwrap();
            let refs = SnapshotData::decode(&full).unwrap().statements;
            let mut section = Enc::new();
            for s in &refs {
                section.put_var(s.wid.0.into());
                section.put_var((u64::from(s.tid.0) << 1) | u64::from(s.sign == Sign::Neg));
            }
            let varints = section.bytes().len();
            assert_eq!(varints, 2 * stated.len(), "small ids take a byte each");
            for stmt in &stated {
                assert!(store.delete_statement(stmt).unwrap());
            }
            let bare = encode_snapshot(&store).unwrap();
            assert!(SnapshotData::decode(&bare).unwrap().statements.is_empty());
            assert_eq!(full.len() - bare.len(), varints, "{policy:?}");
        }
        let eager = sample(DefaultPolicy::Eager);
        let v_rows = eager.v_of(RelId(0)).unwrap().len();
        assert!(v_rows > 4, "Eager's V holds implicit rows too: {v_rows}");
    }

    /// A store whose `R*` has every column kind: strings with a NULL, an
    /// integer column, a mixed one, and a relation without tuples.
    fn mixed_store() -> InternalStore {
        let schema = ExternalSchema::new()
            .with_relation("S", &["sid", "species", "count", "note"])
            .with_relation("Empty", &["k"]);
        let mut store = InternalStore::with_policy(schema, DefaultPolicy::Lazy).unwrap();
        store.add_user("Alice").unwrap();
        let rows = [
            row!["s1", "crow", 3, "seen"],
            row!["s2", Value::Null, -70_000, 4],
            row!["s3", "raven", i64::MIN, Value::Null],
            row!["s4", "crow", i64::MAX, true],
        ];
        for (i, r) in rows.into_iter().enumerate() {
            let p = if i % 2 == 0 {
                path(&[1])
            } else {
                BeliefPath::root()
            };
            let stmt = BeliefStatement::positive(p, GroundTuple::new(RelId(0), r));
            assert!(store.insert_statement(&stmt).unwrap().accepted());
        }
        store
    }

    #[test]
    fn version_4_round_trips_every_column_kind() {
        let store = mixed_store();
        let bytes = encode_snapshot(&store).unwrap();
        let data = SnapshotData::decode(&bytes).unwrap();
        assert_eq!(data.tuples.len(), 4);
        for (i, t) in data.tuples.iter().enumerate() {
            assert_eq!(store.tid_of(t).unwrap(), Some(Tid(i as u32)), "{t}");
        }
        let restored = data.restore().unwrap();
        assert_eq!(restored.table_sizes(), store.table_sizes());
        assert_eq!(encode_snapshot(&restored).unwrap(), bytes);
        // The same image through the version-3 layout.
        assert_eq!(
            SnapshotData::decode(&legacy_encode(3, &data, &[])).unwrap(),
            data
        );
    }

    /// Every strict prefix of a version-4 payload is `Corrupt`, and every
    /// single-byte flip decodes to an error or to some image (a flipped
    /// letter of a string is still a string; the file's checksum is what
    /// catches that), never a panic, in decoding or in restoring.
    #[test]
    fn version_4_prefixes_are_corrupt_and_flips_never_panic() {
        for store in [sample(DefaultPolicy::Lazy), mixed_store()] {
            let bytes = encode_snapshot(&store).unwrap();
            for cut in 0..bytes.len() {
                assert!(
                    matches!(
                        SnapshotData::decode(&bytes[..cut]),
                        Err(BeliefError::Storage(StorageError::Corrupt(_)))
                    ),
                    "prefix of {cut} bytes"
                );
            }
            for at in 0..bytes.len() {
                for flip in [0x01, 0x80, 0xFF] {
                    let mut forged = bytes.clone();
                    forged[at] ^= flip;
                    if let Ok(data) = SnapshotData::decode(&forged) {
                        let _ = data.restore();
                    }
                }
            }
        }
    }

    /// Hand-made faults in the tuple section: a relation past the schema,
    /// a string code past its dictionary, an unknown column kind.
    #[test]
    fn forged_version_4_tuple_sections_are_corrupt() {
        let store = mixed_store();
        let bytes = encode_snapshot(&store).unwrap();
        let data = SnapshotData::decode(&bytes).unwrap();
        // The tuple section starts after the worlds: re-encode the prefix.
        let mut e = Enc::new();
        e.put_u8(SNAPSHOT_VERSION);
        e.put_u8(policy_code(data.policy));
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
            put_path(&mut e, w);
        }
        let prefix = e.into_bytes();
        assert_eq!(bytes[..prefix.len()], prefix[..]);
        // One tuple of relation 1 (`Empty`, one column), then no statement.
        let forge = |rel: u64, column: &[u8]| {
            let mut e = Enc::new();
            e.put_var(1);
            e.put_var(rel);
            for r in 0..data.relations.len() as u64 {
                if r == rel {
                    continue;
                }
                // The other relation's columns, for no tuple.
                for _ in &data.relations[r as usize].1 {
                    e.put_u8(COLUMN_INT);
                }
            }
            let mut forged = prefix.clone();
            forged.extend_from_slice(e.bytes());
            if rel == 1 {
                forged.extend_from_slice(column);
            }
            forged.push(0);
            forged
        };
        // A well-formed one decodes, so each fault below is the only one.
        let good = forge(1, &[COLUMN_STR, 1, 1, b'k', 1]);
        assert_eq!(SnapshotData::decode(&good).unwrap().tuples.len(), 1);
        let cases = [
            ("relation past the schema", forge(2, &[])),
            (
                "code past the dictionary",
                forge(1, &[COLUMN_STR, 1, 1, b'k', 2]),
            ),
            ("unknown column kind", forge(1, &[9, 0])),
            ("tuple count past the payload", {
                let mut f = good.clone();
                f[prefix.len()] = 0x7F;
                f
            }),
        ];
        for (fault, forged) in cases {
            assert!(
                matches!(
                    SnapshotData::decode(&forged),
                    Err(BeliefError::Storage(StorageError::Corrupt(_)))
                ),
                "{fault}"
            );
        }
    }
}
