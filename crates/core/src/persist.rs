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
//!   `encode_snapshot` writes version 6 of it straight from the store's
//!   tables: each world as its parent and its last user, `R*` column by
//!   column with each string column as the sorted, front-coded dictionary
//!   of the strings its tuples use and its codes (ranks in it) bit-packed,
//!   and the statements grouped by world in `(wid, tid)` order, so one
//!   store has one image. [`SnapshotData::decode`] reads versions 1 to 6.
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
use beliefdb_storage::persist::format::bit_width;
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
/// Version 6 is version 5 with each world written as its parent and its
/// last user, and each string column of `R*` as a sorted, front-coded
/// dictionary of the strings its tuples use, codes ranked in it and
/// written from 0 when the column has no NULL (see [`encode_snapshot`]).
/// Version 5 is version 4 with `R*`'s relations written as runs, its
/// string codes bit-packed, and the statements grouped by world and
/// delta-coded. Version 4 is version 3 in the varint codec, with `R*`
/// written column by column. Version 3 stores each statement as
/// `(wid, tid, sign)`, ids into the image's own world and tuple sections,
/// in the fixed-width layout. Version 2 spelled each statement out (path,
/// relation, row, sign) and version 1 also lacks the policy byte after the
/// version: it was written by an `Eager` store and opens as one. Only
/// version 6 is written; all six are read.
const SNAPSHOT_VERSION: u8 = 6;

/// How a version-4 to -6 image writes one attribute column of a
/// relation's `R*` tuples, in tid order: a string dictionary and a code
/// per tuple (0 for NULL, `i + 1` for entry `i`; see [`put_codes`]), a
/// zig-zag varint per tuple, or a tagged value per tuple. Version 6 flags
/// a string column without NULLs as [`COLUMN_STR_NO_NULL`], whose codes
/// are the entries' ranks, from 0.
const COLUMN_STR: u8 = 1;
const COLUMN_INT: u8 = 2;
const COLUMN_MIXED: u8 = 3;
const COLUMN_STR_NO_NULL: u8 = 4;

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
    /// Every explicit belief statement, by id into `worlds` and `tuples`;
    /// in `(wid, tid)` order from a version-5 or -6 image.
    pub statements: Vec<StatementRef>,
}

/// The bytes each section of a snapshot payload takes; they sum to the
/// payload's length.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SnapshotSections {
    /// Version and policy bytes, external schema and user names.
    pub header: usize,
    /// World paths.
    pub worlds: usize,
    /// The `R*` tuples.
    pub tuples: usize,
    /// The explicit statements.
    pub statements: usize,
}

/// Encode the version-6 image of `store` straight from its tables: the
/// world directory in wid order, the `R*` heaps in tid order, and the
/// explicit rows of every `V` table in `(wid, tid)` order. Its cost is
/// proportional to worlds + tuples + explicit statements (plus sorting
/// the statements and each string column's dictionary); no logical copy
/// of the store is built.
///
/// ```text
/// [version: u8 = 6] [policy: u8]
/// [n] n × ([name: str] [k] k × [column: str])     external schema
/// [n] n × [user name: str]                        UserId 1, 2, … in order
/// [n] (n − 1) × ([wid − parent wid] [last uid])   worlds 1, 2, … (ε is 0)
/// [r] r × ([rel] [count])                         R* tuples' relations, runs in tid order
/// per relation, per attribute column: [kind: u8] + its tuples' cells
/// [n] [g] g × ([wid delta] [k] k × [tid delta · 2 + (sign = '-')])
///                                                 explicit statements, by world
/// ```
///
/// Every number is a varint and every `str` a varint length and UTF-8. A
/// world's parent is its path less the last user, which `ensure_world`
/// creates first, so the parent's wid is the smaller. A string column is
/// the strings its tuples use in byte order, front-coded
/// ([`Enc::put_sorted_strs`]), then each tuple's code: the rank of its
/// string, plus one and 0 for NULL unless the kind says the column has no
/// NULL ([`put_codes`]). Each world's group holds its statements in
/// ascending tid order; the first wid and the first tid of each group are
/// deltas from 0.
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
    for (wid, path) in store.dir.iter().skip(1) {
        let parent = store
            .dir
            .get(&path.prefix(path.depth().saturating_sub(1)))
            .filter(|parent| parent.0 < wid.0)
            .ok_or_else(|| corrupt(format!("world {path} has no parent before it")))?;
        e.put_var((wid.0 - parent.0).into());
        e.put_var(path.last().map_or(0, |u| u.0).into());
    }

    // Tids are dense across relations: place every `R*` row by its tid
    // column, write the relations of the tids as runs, then each
    // relation's rows in tid order, column by column.
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
    let mut runs: Vec<(usize, u64)> = Vec::new();
    for (tid, slot) in by_tid.iter().enumerate() {
        let (rel, rid) = slot.ok_or_else(|| corrupt(format!("tid {tid} missing from R*")))?;
        match runs.last_mut() {
            Some((last, n)) if *last == rel => *n += 1,
            _ => runs.push((rel, 1)),
        }
        rows_of[rel].push(rid);
    }
    e.put_var(runs.len() as u64);
    for (rel, n) in runs {
        e.put_var(rel as u64);
        e.put_var(n);
    }
    for (star, rids) in stars.iter().zip(&rows_of) {
        for col in 1..star.schema().arity() {
            put_column(&mut e, star, col, rids)?;
        }
    }

    // Under `Eager`, `V` also holds the implicit rows the default rule
    // derives; only the explicit ones are written, in `(wid, tid)` order
    // whatever the heap order of `V`. Each is one key — its wid above its
    // tid doubled plus the sign bit, the low 33 bits — so sorting the keys
    // sorts the statements.
    let mut stated = Vec::new();
    for rel in store.rel_ids() {
        let vt = store.v_of(rel)?;
        for rid in vt.row_ids() {
            let entry = slice_entry(vt, rid)?;
            if entry.explicit {
                let wid =
                    Wid::from_cell(vt.cell(rid, 0)?).ok_or_else(|| corrupt("bad wid in V"))?;
                stated.push(
                    (u64::from(wid.0) << 33)
                        | (u64::from(entry.tid.0) << 1)
                        | u64::from(entry.sign == Sign::Neg),
                );
            }
        }
    }
    stated.sort_unstable();
    e.put_var(stated.len() as u64);
    let groups = stated.chunk_by(|a, b| a >> 33 == b >> 33);
    e.put_var(groups.clone().count() as u64);
    let mut wid = 0;
    for group in groups {
        e.put_var((group[0] >> 33) - wid);
        wid = group[0] >> 33;
        e.put_var(group.len() as u64);
        // `tid · 2 + sign` less the previous tid doubled: the distance
        // between the tids, doubled, plus the sign bit.
        let mut prev = 0;
        for &key in group {
            let signed = key & ((1 << 33) - 1);
            e.put_var(signed - prev);
            prev = signed & !1;
        }
    }
    Ok(e.into_bytes())
}

/// Write column `col` of the `R*` rows `rids` (see [`COLUMN_STR`]). A
/// string column is written as the strings the rows use, in byte order,
/// and each row's rank among them (see [`encode_snapshot`]).
fn put_column(e: &mut Enc, star: &Table, col: usize, rids: &[RowId]) -> Result<()> {
    if let Some((strs, ranks)) = star.ranked_strings(col, rids)? {
        let nullable = ranks.contains(&None);
        e.put_u8(if nullable {
            COLUMN_STR
        } else {
            COLUMN_STR_NO_NULL
        });
        let strs: Vec<&str> = strs.iter().map(|s| s.as_str()).collect();
        e.put_sorted_strs(&strs);
        let first = u32::from(nullable);
        let codes: Vec<u32> = ranks.iter().map(|r| r.map_or(0, |r| r + first)).collect();
        put_codes(e, &codes);
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

/// A string column's codes as versions 5 and 6 write them: a width byte
/// `w` and every code bit-packed at `w` bits, the width of the largest
/// one; or, when every tuple has the same code (or there is no tuple, and
/// the code is 0), `w = 0` and that one code as a varint.
fn put_codes(e: &mut Enc, codes: &[u32]) {
    let first = codes.first().copied().unwrap_or(0);
    if codes.iter().all(|&c| c == first) {
        e.put_u8(0);
        e.put_var(first.into());
        return;
    }
    let width = bit_width(codes.iter().copied().max().unwrap_or(0));
    e.put_u8(width as u8);
    e.put_packed(width, codes.iter().copied());
}

/// Read back the `count` codes [`put_codes`] wrote. Only the shortest
/// form is accepted: a packed run wider than its largest code, or one
/// whose codes are all equal, is `Corrupt`, and so is a code other than 0
/// for no tuple.
fn take_codes(d: &mut Dec, count: usize) -> Result<Vec<u32>> {
    let width = u32::from(d.take_u8()?);
    if width == 0 {
        let code = d.take_id()?;
        if count == 0 && code != 0 {
            return Err(corrupt(format!("string code {code} for no tuple")));
        }
        return Ok(vec![code; count]);
    }
    let codes: Vec<u32> = d.take_packed(count, width)?.collect();
    let (min, max) = codes
        .iter()
        .fold((u32::MAX, 0), |(lo, hi), &c| (lo.min(c), hi.max(c)));
    if bit_width(max) != width {
        return Err(corrupt(format!(
            "string codes packed at {width} bits, the largest takes {}",
            bit_width(max)
        )));
    }
    if min == max {
        return Err(corrupt(format!("one string code packed {count} times")));
    }
    Ok(codes)
}

/// Read back one column [`put_column`] wrote for `count` tuples in the
/// layout of `version` (4 to 6).
fn take_column(d: &mut Dec, count: usize, version: u8) -> Result<Vec<Value>> {
    let mut vals = Vec::new();
    match d.take_u8()? {
        kind @ (COLUMN_STR | COLUMN_STR_NO_NULL) if version >= 6 => {
            return take_ranked_strings(d, count, kind == COLUMN_STR);
        }
        COLUMN_STR => {
            let n = d.take_len()?;
            let mut dict = vec![Value::Null];
            for _ in 0..n {
                dict.push(Value::str(d.take_str()?));
            }
            let codes = if version == 4 {
                (0..count).map(|_| d.take_id()).collect::<Result<_, _>>()?
            } else {
                take_codes(d, count)?
            };
            for code in codes {
                let v = dict.get(code as usize).ok_or_else(|| {
                    corrupt(format!("string code {code} past a dictionary of {n}"))
                })?;
                vals.push(v.clone());
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

/// Read back a version-6 string column of `count` tuples: its sorted
/// dictionary and each tuple's code, 0 for NULL and the rank plus one when
/// the column is `nullable`, the rank otherwise. Besides the dictionary's
/// own form ([`Dec::take_sorted_strs`]) and the codes' ([`take_codes`]),
/// every entry must be used, and a `nullable` column must hold a NULL.
fn take_ranked_strings(d: &mut Dec, count: usize, nullable: bool) -> Result<Vec<Value>> {
    let dict = d.take_sorted_strs()?;
    let codes = take_codes(d, count)?;
    let first = usize::from(nullable);
    let mut used = vec![false; first + dict.len()];
    for &code in &codes {
        *used.get_mut(code as usize).ok_or_else(|| {
            corrupt(format!(
                "string code {code} past a dictionary of {}",
                dict.len()
            ))
        })? = true;
    }
    match used.iter().position(|&u| !u) {
        None => {}
        Some(0) if nullable => {
            return Err(corrupt("a string column flagged with NULLs holds none"))
        }
        Some(code) => {
            return Err(corrupt(format!(
                "dictionary entry {} used by no tuple",
                code - first
            )))
        }
    }
    Ok(codes
        .into_iter()
        .map(|code| match (code as usize).checked_sub(first) {
            Some(entry) => Value::Str(dict[entry].clone()),
            None => Value::Null,
        })
        .collect())
}

/// Read back the world section of a version-6 image: the count, then
/// each world after ε as the distance back to its parent and its last
/// user. A parent at or past the world's own wid, or a user equal to the
/// parent's last one, is `Corrupt`.
fn take_worlds(d: &mut Dec) -> Result<Vec<BeliefPath>> {
    let n = d.take_len()?;
    if n == 0 {
        return Err(corrupt("a world directory without ε"));
    }
    let mut worlds = Vec::with_capacity(n);
    worlds.push(BeliefPath::root());
    for wid in 1..n {
        let back = d.take_var()?;
        let parent = usize::try_from(back)
            .ok()
            .filter(|back| (1..=wid).contains(back))
            .map(|back| &worlds[wid - back])
            .ok_or_else(|| corrupt(format!("world {wid} has its parent {back} worlds back")))?;
        let user = UserId(d.take_id()?);
        let path = parent
            .push(user)
            .map_err(|_| corrupt(format!("world {wid} repeats its parent's last user {user}")))?;
        worlds.push(path);
    }
    Ok(worlds)
}

/// Read back the tuple section of a version-4 to -6 image: the relation
/// of each tid (one varint per tid in version 4, runs from version 5), then
/// each relation's columns, zipped into rows in tid order.
fn take_tuples(
    d: &mut Dec,
    relations: &[(String, Vec<String>)],
    version: u8,
) -> Result<Vec<GroundTuple>> {
    let mut runs: Vec<(u32, usize)> = Vec::new();
    let mut counts = vec![0usize; relations.len()];
    let mut add_run = |runs: &mut Vec<(u32, usize)>, rel: u32, n: usize| -> Result<()> {
        *counts
            .get_mut(rel as usize)
            .ok_or_else(|| corrupt(format!("tuple of relation {rel}, past the schema")))? += n;
        match runs.last_mut() {
            Some((last, k)) if *last == rel => *k += n,
            _ => runs.push((rel, n)),
        }
        Ok(())
    };
    if version == 4 {
        for _ in 0..d.take_len()? {
            let rel = d.take_id()?;
            add_run(&mut runs, rel, 1)?;
        }
    } else {
        // A relation's tuples are distinct rows, so all but one of them
        // cost at least a bit of some column: a tuple count past eight a
        // byte left is `Corrupt` before anything is allocated for it.
        let mut total = 0usize;
        for _ in 0..d.take_len()? {
            let rel = d.take_id()?;
            let n = d.take_var()?;
            total = usize::try_from(n)
                .ok()
                .and_then(|n| total.checked_add(n))
                .filter(|&t| t / 8 <= d.remaining())
                .ok_or_else(|| {
                    corrupt(format!(
                        "a run of {n} tuples past the {} bytes left",
                        d.remaining()
                    ))
                })?;
            if n == 0 || runs.last().is_some_and(|&(last, _)| last == rel) {
                return Err(corrupt(format!(
                    "run of {n} tuples of relation {rel} not in shortest form"
                )));
            }
            add_run(&mut runs, rel, n as usize)?;
        }
    }
    let mut columns = Vec::new();
    for ((_, cols), &count) in relations.iter().zip(&counts) {
        let mut rel_columns = Vec::new();
        for _ in cols {
            rel_columns.push(take_column(d, count, version)?.into_iter());
        }
        columns.push(rel_columns);
    }
    let mut tuples = Vec::with_capacity(counts.iter().sum());
    for (rel, n) in runs {
        let rel_columns = &mut columns[rel as usize];
        for _ in 0..n {
            let cells = rel_columns
                .iter_mut()
                .map(|c| c.next().expect("count cells per column"));
            tuples.push(GroundTuple::new(RelId(rel), Row::new(cells)));
        }
    }
    Ok(tuples)
}

/// Read back the statement section of a version-5 or -6 image (see
/// [`encode_snapshot`]): every world and tuple id must lie inside the
/// image's lists, wids ascend from group to group and tids inside a
/// group, no group is empty, and the groups hold exactly the count.
fn take_statement_groups(d: &mut Dec, nworlds: usize, ntuples: usize) -> Result<Vec<StatementRef>> {
    let n = d.take_len()?;
    let ngroups = d.take_len()?;
    let mut statements = Vec::with_capacity(n);
    let mut wid: Option<u64> = None;
    for _ in 0..ngroups {
        let delta = d.take_var()?;
        let w = match wid {
            Some(_) if delta == 0 => return Err(corrupt("statement worlds do not ascend")),
            Some(prev) => prev.saturating_add(delta),
            None => delta,
        };
        if w >= nworlds as u64 {
            return Err(corrupt(format!(
                "statement world {w} past the {nworlds} worlds"
            )));
        }
        wid = Some(w);
        let k = d.take_len()?;
        if k == 0 || statements.len() + k > n {
            return Err(corrupt(format!(
                "a group of {k} statements after {} of {n}",
                statements.len()
            )));
        }
        let mut tid: Option<u64> = None;
        for _ in 0..k {
            let signed = d.take_var()?;
            let delta = signed >> 1;
            let t = match tid {
                Some(_) if delta == 0 => {
                    return Err(corrupt(format!(
                        "statement tuples of world {w} do not ascend"
                    )))
                }
                Some(prev) => prev.saturating_add(delta),
                None => delta,
            };
            if t >= ntuples as u64 {
                return Err(corrupt(format!(
                    "statement tuple {t} past the {ntuples} tuples"
                )));
            }
            tid = Some(t);
            statements.push(StatementRef {
                wid: Wid(w as u32),
                tid: Tid(t as u32),
                sign: if signed & 1 == 1 {
                    Sign::Neg
                } else {
                    Sign::Pos
                },
            });
        }
    }
    if statements.len() != n {
        return Err(corrupt(format!(
            "statement groups hold {} statements, the count is {n}",
            statements.len()
        )));
    }
    Ok(statements)
}

impl SnapshotData {
    /// Decode a snapshot payload of any version (1 to 6).
    pub fn decode(bytes: &[u8]) -> Result<SnapshotData> {
        Ok(SnapshotData::decode_sections(bytes)?.0)
    }

    /// [`SnapshotData::decode`], and the bytes each section of `bytes`
    /// took.
    pub fn decode_sections(bytes: &[u8]) -> Result<(SnapshotData, SnapshotSections)> {
        let version = *bytes.first().ok_or_else(|| corrupt("empty snapshot"))?;
        let mut d = match version {
            4.. => Dec::new(bytes),
            _ => Dec::fixed(bytes),
        };
        let at = |d: &Dec| bytes.len() - d.remaining();
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
        let worlds_at = at(&d);
        let worlds = if version >= 6 {
            take_worlds(&mut d)?
        } else {
            let nworlds = d.take_len()?;
            let mut worlds = Vec::new();
            for _ in 0..nworlds {
                worlds.push(take_path(&mut d)?);
            }
            worlds
        };
        let tuples_at = at(&d);
        let tuples = if version >= 4 {
            take_tuples(&mut d, &relations, version)?
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
        let statements_at = at(&d);
        let statements = match version {
            5.. => take_statement_groups(&mut d, worlds.len(), tuples.len())?,
            4 => {
                let mut statements = Vec::new();
                for _ in 0..d.take_len()? {
                    let wid = Wid(d.take_id()?);
                    let signed = d.take_var()?;
                    let tid = u32::try_from(signed >> 1).map_err(|_| {
                        corrupt(format!("statement tid {} past 32 bits", signed >> 1))
                    })?;
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
                statements
            }
            3 => {
                let mut statements = Vec::new();
                for _ in 0..d.take_len()? {
                    statements.push(StatementRef {
                        wid: Wid(d.take_id()?),
                        tid: Tid(d.take_id()?),
                        sign: take_sign(&mut d)?,
                    });
                }
                statements
            }
            _ => {
                // Versions 1 and 2 spell each statement out: find its ids
                // in the image's own world and tuple sections.
                let wids: HashMap<&BeliefPath, Wid, CellHash> =
                    (0..).map(Wid).zip(&worlds).map(|(w, p)| (p, w)).collect();
                let tids: HashMap<&GroundTuple, Tid, CellHash> =
                    (0..).map(Tid).zip(&tuples).map(|(t, g)| (g, t)).collect();
                let mut statements = Vec::new();
                for _ in 0..d.take_len()? {
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
                statements
            }
        };
        d.finish()?;
        let sections = SnapshotSections {
            header: worlds_at,
            worlds: tuples_at - worlds_at,
            tuples: statements_at - tuples_at,
            statements: bytes.len() - statements_at,
        };
        let data = SnapshotData {
            policy,
            relations,
            users,
            worlds,
            tuples,
            statements,
        };
        Ok((data, sections))
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

    /// The header and world sections of `data` in the varint codec, as
    /// `version` (4 to 6) writes them: each world's path, or from version
    /// 6 each world after ε as the distance back to its parent and its
    /// last user.
    fn header(version: u8, data: &SnapshotData) -> Enc {
        let mut e = Enc::new();
        e.put_u8(version);
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
        if version < 6 {
            for w in &data.worlds {
                put_path(&mut e, w);
            }
            return e;
        }
        for (wid, w) in data.worlds.iter().enumerate().skip(1) {
            let parent = w.prefix(w.depth() - 1);
            let back = wid - data.worlds.iter().position(|p| *p == parent).unwrap();
            e.put_var(back as u64);
            e.put_var(w.last().unwrap().0.into());
        }
        e
    }

    /// The version-4 or -5 layout of `data`, which only these tests still
    /// write: the header and the worlds as paths; the relation of each
    /// tuple (a varint per tuple in version 4, runs in version 5); each
    /// column, a string column as its dictionary in the order its tuples
    /// meet the strings and each tuple's code (a varint per tuple in
    /// version 4, [`put_codes`] in version 5); and the statements (two
    /// varints each, wid and tid doubled plus the sign bit, in version 4;
    /// grouped by world and delta-coded in version 5).
    fn varint_encode(version: u8, data: &SnapshotData) -> Vec<u8> {
        let mut e = header(version, data);
        if version == 4 {
            e.put_var(data.tuples.len() as u64);
            for t in &data.tuples {
                e.put_var(t.rel.0.into());
            }
        } else {
            let runs: Vec<&[GroundTuple]> = data.tuples.chunk_by(|a, b| a.rel == b.rel).collect();
            e.put_var(runs.len() as u64);
            for run in runs {
                e.put_var(run[0].rel.0.into());
                e.put_var(run.len() as u64);
            }
        }
        for (rel, (_, cols)) in data.relations.iter().enumerate() {
            let rows: Vec<&Row> = data
                .tuples
                .iter()
                .filter(|t| t.rel.0 as usize == rel)
                .map(|t| &t.row)
                .collect();
            for col in 0..cols.len() {
                let cells: Vec<&Value> = rows.iter().map(|r| &r[col]).collect();
                if cells
                    .iter()
                    .all(|v| matches!(v, Value::Str(_) | Value::Null))
                {
                    let mut dict: Vec<&str> = Vec::new();
                    let mut codes = Vec::new();
                    for v in &cells {
                        codes.push(match v {
                            Value::Str(s) => match dict.iter().position(|d| *d == s.as_str()) {
                                Some(i) => i as u32 + 1,
                                None => {
                                    dict.push(s.as_str());
                                    dict.len() as u32
                                }
                            },
                            _ => 0,
                        });
                    }
                    e.put_u8(COLUMN_STR);
                    e.put_var(dict.len() as u64);
                    for s in dict {
                        e.put_str(s);
                    }
                    if version == 4 {
                        for c in codes {
                            e.put_var(c.into());
                        }
                    } else {
                        put_codes(&mut e, &codes);
                    }
                } else if cells.iter().all(|v| matches!(v, Value::Int(_))) {
                    e.put_u8(COLUMN_INT);
                    for v in cells {
                        e.put_zig(v.as_int().unwrap());
                    }
                } else {
                    e.put_u8(COLUMN_MIXED);
                    for v in cells {
                        e.put_value(v);
                    }
                }
            }
        }
        let signed = |s: &StatementRef| (u64::from(s.tid.0) << 1) | u64::from(s.sign == Sign::Neg);
        e.put_var(data.statements.len() as u64);
        if version == 4 {
            for s in &data.statements {
                e.put_var(s.wid.0.into());
                e.put_var(signed(s));
            }
            return e.into_bytes();
        }
        let mut sorted = data.statements.clone();
        sorted.sort_by_key(|s| (s.wid, s.tid));
        let groups: Vec<&[StatementRef]> = sorted.chunk_by(|a, b| a.wid == b.wid).collect();
        e.put_var(groups.len() as u64);
        let mut wid = 0;
        for group in groups {
            e.put_var((group[0].wid.0 - wid).into());
            wid = group[0].wid.0;
            e.put_var(group.len() as u64);
            let mut prev = 0;
            for s in group {
                e.put_var(signed(s) - prev);
                prev = signed(s) & !1;
            }
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
        // Versions 5 and 4 are the same image in older varint layouts, and
        // version 3 in the fixed-width one; versions 1 and 2 spell the
        // statements out and decode to the same ids; a version-1 image has
        // no policy byte and is an `Eager` store's.
        for version in [4, 5] {
            let older = varint_encode(version, &data);
            assert_eq!(SnapshotData::decode(&older).unwrap(), data, "v{version}");
        }
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

    /// Version 5, and version 6 after it, spend one varint on an explicit
    /// statement beyond the
    /// world and tuple sections — its tid's distance from the one before it
    /// in its world's group, doubled, plus the sign bit — and two varints
    /// on each world that states anything (the distance from the world
    /// before it and the group's count). Implicit rows of `Eager`'s `V` cost
    /// nothing. Deleting every statement keeps the worlds and tuples, so
    /// the difference in size is the statement section alone.
    #[test]
    fn version_5_statements_cost_a_varint_each_and_two_a_world() {
        for policy in [DefaultPolicy::Lazy, DefaultPolicy::Eager] {
            let mut store = sample(policy);
            let stated = store.to_belief_database().unwrap().statements();
            assert_eq!(stated.len(), 4);
            let full = encode_snapshot(&store).unwrap();
            let refs = SnapshotData::decode(&full).unwrap().statements;
            let mut order: Vec<_> = refs.iter().map(|s| (s.wid, s.tid)).collect();
            order.sort();
            assert_eq!(
                refs.iter().map(|s| (s.wid, s.tid)).collect::<Vec<_>>(),
                order
            );
            let mut worlds: Vec<_> = refs.iter().map(|s| s.wid).collect();
            worlds.dedup();
            assert_eq!(worlds.len(), 3, "ε, Alice and Bob·Alice state something");
            for stmt in &stated {
                assert!(store.delete_statement(stmt).unwrap());
            }
            let bare = encode_snapshot(&store).unwrap();
            assert!(SnapshotData::decode(&bare).unwrap().statements.is_empty());
            // Small ids and counts take a byte each.
            assert_eq!(
                full.len() - bare.len(),
                stated.len() + 2 * worlds.len(),
                "{policy:?}"
            );
        }
        let eager = sample(DefaultPolicy::Eager);
        let v_rows = eager.v_of(RelId(0)).unwrap().len();
        assert!(v_rows > 4, "Eager's V holds implicit rows too: {v_rows}");
    }

    /// The statement section (version 5's, which version 6 keeps) is in
    /// `(wid, tid)` order, not in the order of `V`'s heap: two stores with the same statements, tids and worlds,
    /// whose `V` rows lie in other slots, write the same bytes.
    #[test]
    fn version_5_image_ignores_the_layout_of_v() {
        let store = sample(DefaultPolicy::Lazy);
        let mut moved = sample(DefaultPolicy::Lazy);
        let stated = moved.to_belief_database().unwrap().statements();
        // Freed slots are reused last-freed first, so the two come back
        // into each other's slots.
        for stmt in &stated[..2] {
            assert!(moved.delete_statement(stmt).unwrap());
        }
        for stmt in &stated[..2] {
            assert!(moved.insert_statement(stmt).unwrap().accepted());
        }
        let v_order = |s: &InternalStore| {
            let vt = s.v_of(RelId(0)).unwrap();
            vt.row_ids()
                .map(|rid| vt.cell(rid, 0).unwrap().as_int().unwrap())
                .collect::<Vec<_>>()
        };
        assert_ne!(
            v_order(&store),
            v_order(&moved),
            "V's layout did not change"
        );
        assert_eq!(
            encode_snapshot(&moved).unwrap(),
            encode_snapshot(&store).unwrap()
        );
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

    /// A store whose tids alternate between two relations, and one of
    /// whose string columns holds a single string: the tuple section has
    /// several runs and a column written as one code.
    fn interleaved_store() -> InternalStore {
        let schema = ExternalSchema::new()
            .with_relation("S", &["sid", "species"])
            .with_relation("C", &["cid", "sid", "note"]);
        let mut store = InternalStore::with_policy(schema, DefaultPolicy::Lazy).unwrap();
        store.add_user("Alice").unwrap();
        let tuples = [
            GroundTuple::new(RelId(0), row!["s1", "crow"]),
            GroundTuple::new(RelId(0), row!["s2", "crow"]),
            GroundTuple::new(RelId(1), row!["c1", "s1", "same"]),
            GroundTuple::new(RelId(0), row!["s3", "crow"]),
            GroundTuple::new(RelId(1), row!["c2", "s3", "same"]),
        ];
        for t in tuples {
            let stmt = BeliefStatement::positive(path(&[1]), t);
            assert!(store.insert_statement(&stmt).unwrap().accepted());
        }
        store
    }

    #[test]
    fn version_6_round_trips_every_column_kind() {
        for store in [mixed_store(), interleaved_store()] {
            let bytes = encode_snapshot(&store).unwrap();
            let (data, sections) = SnapshotData::decode_sections(&bytes).unwrap();
            assert_eq!(
                sections.header + sections.worlds + sections.tuples + sections.statements,
                bytes.len()
            );
            for (i, t) in data.tuples.iter().enumerate() {
                assert_eq!(store.tid_of(t).unwrap(), Some(Tid(i as u32)), "{t}");
            }
            let restored = data.restore().unwrap();
            assert_eq!(restored.table_sizes(), store.table_sizes());
            assert_eq!(encode_snapshot(&restored).unwrap(), bytes);
        }
        // Worlds ε and Alice (one back, user 1). One run of four tuples;
        // `sid` without NULLs: "s1" to "s4" front-coded, ranks 0 to 3 at
        // two bits; `species` with a NULL: "crow" and "raven", codes 1, 0
        // (NULL), 2, 1 at two bits.
        let bytes = encode_snapshot(&mixed_store()).unwrap();
        let (_, sections) = SnapshotData::decode_sections(&bytes).unwrap();
        let at = sections.header;
        assert_eq!(bytes[at..at + sections.worlds], [2, 1, 1]);
        let at = at + sections.worlds;
        let sid = [
            COLUMN_STR_NO_NULL,
            4,
            0,
            2,
            b's',
            b'1',
            1,
            1,
            b'2',
            1,
            1,
            b'3',
            1,
            1,
            b'4',
        ];
        let species = [
            COLUMN_STR, 2, 0, 4, b'c', b'r', b'o', b'w', 0, 5, b'r', b'a', b'v', b'e', b'n',
        ];
        let want = [
            &[1, 0, 4][..],
            &sid,
            &[2, 0b11_10_01_00],
            &species,
            &[2, 0b01_10_00_01],
        ]
        .concat();
        assert_eq!(bytes[at..at + want.len()], want[..]);
        // ε, Alice, Bob and Bob·Alice: each world one back or two from its
        // parent, and its last user.
        let bytes = encode_snapshot(&sample(DefaultPolicy::Lazy)).unwrap();
        let (_, sections) = SnapshotData::decode_sections(&bytes).unwrap();
        let worlds = &bytes[sections.header..sections.header + sections.worlds];
        assert_eq!(worlds, [4, 1, 1, 2, 2, 1, 1]);
    }

    /// A version-5 image — string dictionaries in the order the tuples
    /// meet the strings, codes from 1, worlds as paths — decodes to the
    /// image the version-6 one does, and the store it restores writes the
    /// version-6 bytes.
    #[test]
    fn version_5_round_trips_every_column_kind() {
        for store in [
            mixed_store(),
            interleaved_store(),
            sample(DefaultPolicy::Eager),
        ] {
            let bytes = encode_snapshot(&store).unwrap();
            let data = SnapshotData::decode(&bytes).unwrap();
            let v5 = varint_encode(5, &data);
            let (back, sections) = SnapshotData::decode_sections(&v5).unwrap();
            assert_eq!(back, data);
            assert_eq!(
                sections.header + sections.worlds + sections.tuples + sections.statements,
                v5.len()
            );
            assert_eq!(encode_snapshot(&back.restore().unwrap()).unwrap(), bytes);
        }
        // Runs (0, 2) (1, 1) (0, 1) (1, 1); "crow", "same" and the
        // relations' one-string columns as a zero width and one code.
        let bytes = encode_snapshot(&interleaved_store()).unwrap();
        let v5 = varint_encode(5, &SnapshotData::decode(&bytes).unwrap());
        let (data, sections) = SnapshotData::decode_sections(&v5).unwrap();
        let at = sections.header + sections.worlds;
        assert_eq!(v5[at..at + 9], [4, 0, 2, 1, 1, 0, 1, 1, 1]);
        assert_eq!(data.tuples.len(), 5);
    }

    #[test]
    fn version_4_round_trips_every_column_kind() {
        for store in [mixed_store(), interleaved_store()] {
            let bytes = encode_snapshot(&store).unwrap();
            let data = SnapshotData::decode(&bytes).unwrap();
            // The same image through the version-4 and -3 layouts; the
            // store a version-4 image restores writes version 6.
            let v4 = SnapshotData::decode(&varint_encode(4, &data)).unwrap();
            assert_eq!(v4, data);
            assert_eq!(encode_snapshot(&v4.restore().unwrap()).unwrap(), bytes);
            assert_eq!(
                SnapshotData::decode(&legacy_encode(3, &data, &[])).unwrap(),
                data
            );
        }
    }

    /// Every strict prefix of `bytes` is `Corrupt`, and every single-byte
    /// flip decodes to an error or to some image (a flipped letter of a
    /// string is still a string; the file's checksum is what catches
    /// that), never a panic, in decoding or in restoring.
    fn assert_prefixes_corrupt_and_flips_harmless(bytes: &[u8]) {
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
                let mut forged = bytes.to_vec();
                forged[at] ^= flip;
                if let Ok(data) = SnapshotData::decode(&forged) {
                    let _ = data.restore();
                }
            }
        }
    }

    #[test]
    fn version_4_prefixes_are_corrupt_and_flips_never_panic() {
        for store in [sample(DefaultPolicy::Lazy), mixed_store()] {
            let data = SnapshotData::decode(&encode_snapshot(&store).unwrap()).unwrap();
            assert_prefixes_corrupt_and_flips_harmless(&varint_encode(4, &data));
        }
    }

    #[test]
    fn version_5_prefixes_are_corrupt_and_flips_never_panic() {
        for store in [
            sample(DefaultPolicy::Lazy),
            mixed_store(),
            interleaved_store(),
        ] {
            let data = SnapshotData::decode(&encode_snapshot(&store).unwrap()).unwrap();
            assert_prefixes_corrupt_and_flips_harmless(&varint_encode(5, &data));
        }
    }

    #[test]
    fn version_6_prefixes_are_corrupt_and_flips_never_panic() {
        for store in [
            sample(DefaultPolicy::Lazy),
            mixed_store(),
            interleaved_store(),
        ] {
            assert_prefixes_corrupt_and_flips_harmless(&encode_snapshot(&store).unwrap());
        }
    }

    /// A version-5 or -6 run may claim many tuples for a few bytes when
    /// every column of its relation is one code: a count past eight tuples
    /// per byte left is `Corrupt` before the decoder builds any of them.
    #[test]
    fn version_5_tuple_counts_are_bounded_by_the_bytes_left() {
        let data =
            SnapshotData::decode(&encode_snapshot(&sample(DefaultPolicy::Lazy)).unwrap()).unwrap();
        let forge = |version: u8, tuples: u64| {
            let mut e = header(version, &data);
            e.put_var(1);
            e.put_var(0);
            e.put_var(tuples);
            for _ in 0..2 {
                // A dictionary of one string, every tuple its code: 1 in
                // version 5, 0 in a version-6 column without NULLs.
                if version == 5 {
                    e.put_u8(COLUMN_STR);
                    e.put_var(1);
                    e.put_str("k");
                } else {
                    e.put_u8(COLUMN_STR_NO_NULL);
                    e.put_sorted_strs(&["k"]);
                }
                e.put_u8(0);
                e.put_var((version == 5).into());
            }
            // No statement.
            e.put_var(0);
            e.put_var(0);
            e.into_bytes()
        };
        for version in [5, 6] {
            let one = SnapshotData::decode(&forge(version, 1)).unwrap();
            assert_eq!(one.tuples.len(), 1, "v{version}");
            assert!(
                matches!(
                    SnapshotData::decode(&forge(version, 100_000)),
                    Err(BeliefError::Storage(StorageError::Corrupt(_)))
                ),
                "v{version}"
            );
        }
    }

    /// Hand-made faults in the tuple section of a version-4 image: a
    /// relation past the schema, a string code past its dictionary, an
    /// unknown column kind.
    #[test]
    fn forged_version_4_tuple_sections_are_corrupt() {
        let store = mixed_store();
        let data = SnapshotData::decode(&encode_snapshot(&store).unwrap()).unwrap();
        let bytes = varint_encode(4, &data);
        // The tuple section starts after the worlds.
        let prefix = header(4, &data).into_bytes();
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
