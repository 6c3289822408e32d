//! The relational representation of a belief database (Sect. 5 of the
//! paper): internal schema `R* = (R*_1..R*_r, U, V_1..V_r, E, D, S)` over
//! the [`beliefdb_storage`] engine, with the update algorithms
//! `idWorld` (Alg. 2), `dss` (Alg. 3) and `insertTuple` (Alg. 4).
//!
//! ## Internal schema (Fig. 5)
//!
//! | Table | Columns | Key |
//! |---|---|---|
//! | `{R}__star` | `tid, key, att2, ...` | `tid`, index `(key, att2, ...)` |
//! | `U` | `uid, name` | `uid` |
//! | `V__{R}` | `wid, tid, key, s, e` | multiset, index `(wid, key)` |
//!
//! `R*` and `V` carry one index each. The storage engine groups an index
//! by its first column, so the same index answers the slice probe
//! `(wid, key)` of Alg. 4 and the whole-world probe `(wid)` of world
//! dumps and of Alg. 2 line 9. `R*`'s [`R_BY_TUPLE`] over every attribute
//! column is how a tuple finds its tid (Alg. 4 line 1): one probe on the
//! tuple's cells, the collisions resolved against `R*`'s own heap, and no
//! copy of the tuples anywhere else; a query's selection on the key
//! probes it by its first column.
//!
//! The paper's world relations `E(wid1, uid, wid2)`, `D(wid, d)` and
//! `S(wid1, wid2)` are not stored: every row of them is a function of the
//! canonical structure's states (Def. 16), which the [`WorldDirectory`]
//! holds — its paths are `D`, its suffix parents `S`, and its `dss` is
//! where every `E` edge leads. Algorithm 1 resolves belief paths through
//! the directory when it translates (`bcq::translate`), and
//! [`InternalStore::table_sizes`] still counts the three relations' rows
//! in the paper's size measure.
//!
//! `s` is the sign (`'+'`/`'-'`), `e` records whether the tuple is explicit
//! (`'y'`) or implied by the message-board assumption (`'n'`).
//!
//! ## Default policy (Sect. 6.3)
//!
//! A store is created with a [`DefaultPolicy`] and keeps it for life.
//! Under [`DefaultPolicy::Eager`] — the paper's Sect. 5 representation —
//! `V` holds every entailed tuple: Alg. 2 line 9 copies a new world's
//! suffix parent into it and Alg. 4 propagates every statement to the
//! dependent worlds. Under [`DefaultPolicy::Lazy`] — the paper's Sect. 6.3
//! proposal — `V` holds the explicit statements only (every `e` is `'y'`),
//! and the default rule is applied on read: a slice is the overriding union
//! folded down the suffix chain `Sᵈ(w) … S(w), w`, and Algorithm 1 reads
//! the same fold as an unrolled union (`bcq::translate`). The policy is
//! read in two places only: the chain of worlds whose stored rows make up
//! a world's content (`stored_chain`: the world alone under `Eager`),
//! which the slice read ([`InternalStore::world`] and the slice reads
//! behind the gate, `believed_at` and `entails`) and Algorithm 1's `V`
//! atom both fold, and the write path after the explicit row (propagation
//! and Alg. 2 line 9).
//!
//! `|R*|` is the paper's cost axis, and almost all of it is `V`. What a `V`
//! row costs is the storage engine's business, but the shape helps it:
//! `wid` and `tid` are dense counters and `s`, `e` have two values each,
//! which its column heap keeps in one or two bytes a cell — 8 B a row at
//! the paper's n = 10,000 (`docs/execution.md`, "Heap and index layout").
//!
//! ## Fidelity notes
//!
//! * The world directory (`wid ↔ belief path`) is the one copy of the
//!   world structure; `dss` walks it directly instead of running
//!   Algorithm 3's `E*`-join + MAX query (same result, see
//!   `tests/relational_algorithms.rs`).
//! * `insertTuple` is implemented as Algorithm 4 *reformulated per key
//!   slice and applied as a delta*: an insert, delete or update of key `k`
//!   at world `w` walks `w` and its dependent worlds (those having `w` as
//!   proper suffix) once, each after its suffix parent, derives each world's
//!   new `(world, k)` slice from its explicit tuples plus the new slice of
//!   its suffix parent (`S`) — kept in memory for the statement, not read
//!   back — and writes only the difference: rows that disappeared are
//!   deleted, rows that appeared are inserted, an unchanged slice is left
//!   alone. This follows the overriding-union characterization of
//!   Thm. 17(2a) / Fig. 9 and fixes a corner case in the paper's
//!   pseudo-code where a dependent world could retain a stale implicit
//!   tuple after its parent chain changed (the formal spec, Def. 9, always
//!   wins; see `slices.rs`). Deletes and updates are the same walk, which
//!   is why they "follow a similar semantics as inserts" (Sect. 5.3).
//! * Alg. 2 line 9 (a new world starts as the implicit copy of its suffix
//!   parent) is one group copy per relation: `V`'s rows of the parent are
//!   duplicated under the new `wid` inside the table, and their index run
//!   is cloned rather than rebuilt (`Table::copy_group`).
//! * The suffix-parent relation `S` is the world directory's suffix tree,
//!   with the children of every world: the dependents of a world are its
//!   subtree there, and propagation reads parents from it.
//! * Under `Lazy` the last three notes describe work that is not done:
//!   a statement writes or removes its one explicit row, and a new world
//!   starts empty.
//!   The Alg. 4 gate still sees the entailed slice, now folded from the
//!   suffix chain, so outcomes are the same under both policies.
//! * Worlds are never destroyed by deletes; a state with an empty explicit
//!   world is transparent (its entailed world equals its suffix-parent's),
//!   so keeping it does not change any query answer.

mod ops;
mod slices;
mod worlds;

pub(crate) use slices::slice_entry;
pub use worlds::WorldDirectory;

use crate::error::{BeliefError, Result};
use crate::ids::{RelId, Tid, UserId, Wid};
use crate::path::BeliefPath;
use crate::schema::ExternalSchema;
use crate::statement::{GroundTuple, Sign};
use crate::world::BeliefWorld;
use beliefdb_storage::{Cell, Database, IndexId, Row, Str, Table, TableSchema, Value};
use std::sync::Arc;

/// Result of an insert attempt (Algorithm 4's return value, refined).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InsertOutcome {
    /// The statement was recorded and propagated.
    Inserted,
    /// The statement was already explicitly present (Alg. 4 line 3).
    AlreadyExplicit,
    /// The tuple was implicitly present with the same sign; it is now
    /// explicit (Alg. 4 line 4).
    MadeExplicit,
    /// The statement conflicts with explicit beliefs at the world (Γ1/Γ2)
    /// and was rejected (Alg. 4 line 5 failing).
    Rejected,
}

impl InsertOutcome {
    /// Did the database content change?
    pub fn changed(self) -> bool {
        matches!(self, InsertOutcome::Inserted | InsertOutcome::MadeExplicit)
    }

    /// Algorithm 4's boolean: was the statement accepted (present
    /// explicitly afterwards)?
    pub fn accepted(self) -> bool {
        !matches!(self, InsertOutcome::Rejected)
    }
}

/// How a store applies the message-board default rule (Sect. 6.3). Fixed
/// when the store is created.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DefaultPolicy {
    /// `V` holds every entailed tuple: the paper's Sect. 5 representation,
    /// maintained by Alg. 2 line 9 and Alg. 4's propagation.
    Eager,
    /// `V` holds the explicit statements only; entailed tuples are
    /// derived on read by folding the overriding union down the suffix
    /// chain.
    #[default]
    Lazy,
}

/// The `'y'` / `'n'` of the explicitness flag, as a table cell borrowed
/// from a static.
pub(crate) fn explicit_cell(explicit: bool) -> Cell<'static> {
    static YES: Str = Str::inline("y");
    static NO: Str = Str::inline("n");
    Cell::Str(if explicit { &YES } else { &NO })
}

/// Name of the internal content table `R*_i` for external relation `name`.
pub fn star_table(name: &str) -> String {
    format!("{name}__star")
}

/// Name of the valuation table `V_i` for external relation `name`.
pub fn v_table(name: &str) -> String {
    format!("V__{name}")
}

/// The user table's name.
pub const U_TABLE: &str = "U";

/// Index name on every `{R}__star` table covering the attribute columns
/// `(key, att2, ...)`: the tid of a tuple by the full tuple, its rows by
/// the key alone.
pub const R_BY_TUPLE: &str = "by_tuple";
/// Index name on every `V__{R}` table covering `(wid, key)`: slices by the
/// full key, whole worlds (Alg. 2 line 9, world dumps) by `wid` alone.
pub const V_BY_WID_KEY: &str = "by_wid_key";

/// The two internal tables of one external relation, by name, and the
/// handles of their indexes.
pub(crate) struct RelTables {
    /// `{R}__star`.
    pub(crate) star: String,
    /// [`R_BY_TUPLE`] of `{R}__star`.
    pub(crate) by_tuple: IndexId,
    /// `V__{R}`.
    pub(crate) v: String,
    /// [`V_BY_WID_KEY`] of `V__{R}`.
    pub(crate) by_wid_key: IndexId,
}

/// The table names of `rel`. A free function over the field, so a caller
/// can go on to borrow the store's database mutably.
fn rel_names(rel_tables: &[RelTables], rel: RelId) -> Result<&RelTables> {
    rel_tables
        .get(rel.0 as usize)
        .ok_or_else(|| BeliefError::NoSuchRelation(format!("#{rel}")))
}

/// The materialized canonical representation: a [`Database`] holding the
/// internal schema, plus the in-memory mirrors (world directory, user
/// list) that the update algorithms consult.
pub struct InternalStore {
    pub(crate) db: Database,
    pub(crate) schema: Arc<ExternalSchema>,
    /// Internal table names and index handles by [`RelId`], resolved once:
    /// Alg. 2–4 probe `V` per dependent world.
    pub(crate) rel_tables: Vec<RelTables>,
    pub(crate) users: Vec<(UserId, String)>,
    pub(crate) dir: WorldDirectory,
    /// Whether `V` materializes the default rule (see [`DefaultPolicy`]).
    pub(crate) policy: DefaultPolicy,
    pub(crate) next_tid: u32,
    /// Optimizer statistics, shared across queries and refreshed lazily
    /// (table versions detect staleness, so refresh is O(#tables) when the
    /// store has not mutated).
    pub(crate) stats: std::sync::Mutex<beliefdb_storage::StatsCatalog>,
    /// Optimized-plan cache for the Datalog programs BCQ translation
    /// emits, keyed by (program text, versions of the tables it reads):
    /// repeat queries against an unmutated store skip every optimizer
    /// rewrite pass. An entry records only the versions of the base
    /// tables its program reads (`PlanCache::read_versions`), so a write
    /// makes stale exactly the entries whose programs read the written
    /// table.
    /// `Arc`-shared so the `sys.plan_cache` virtual table can snapshot
    /// it at scan time without a reference back into the store.
    pub(crate) plan_cache: Arc<std::sync::Mutex<beliefdb_storage::datalog::PlanCache>>,
}

impl InternalStore {
    /// Create the internal schema for an external one and initialize the
    /// root world (`wid 0`, depth 0), under the default policy
    /// ([`DefaultPolicy::Lazy`]).
    pub fn new(schema: ExternalSchema) -> Result<Self> {
        InternalStore::with_policy(schema, DefaultPolicy::default())
    }

    /// [`InternalStore::new`] under an explicit [`DefaultPolicy`].
    pub fn with_policy(schema: ExternalSchema, policy: DefaultPolicy) -> Result<Self> {
        let schema = Arc::new(schema);
        let mut db = Database::new();
        let mut rel_tables = Vec::with_capacity(schema.relations().len());
        for rel in schema.relations() {
            // R*_i(tid, key, att2, ...): one extra surrogate-key column.
            let star = star_table(rel.name());
            let mut cols: Vec<&str> = vec!["tid"];
            cols.extend(rel.columns().iter().map(|c| c.as_str()));
            let st = db.create_table(TableSchema::with_key(star.as_str(), &cols))?;
            st.create_index(R_BY_TUPLE, &cols[1..])?;
            let by_tuple = st.index_id(R_BY_TUPLE)?;

            // V_i(wid, tid, key, s, e): multiset with the slice index.
            let v = v_table(rel.name());
            let vt = db.create_table(TableSchema::keyless(
                v.as_str(),
                &["wid", "tid", "key", "s", "e"],
            ))?;
            vt.create_index(V_BY_WID_KEY, &["wid", "key"])?;
            rel_tables.push(RelTables {
                star,
                by_tuple,
                v,
                by_wid_key: vt.index_id(V_BY_WID_KEY)?,
            });
        }

        db.create_table(TableSchema::with_key(U_TABLE, &["uid", "name"]))?;

        // The root world ε.
        let mut dir = WorldDirectory::new();
        let root = dir.insert(BeliefPath::root());
        debug_assert_eq!(root, Wid::ROOT);

        Ok(InternalStore {
            db,
            schema,
            rel_tables,
            users: Vec::new(),
            dir,
            policy,
            stats: std::sync::Mutex::new(beliefdb_storage::StatsCatalog::default()),
            plan_cache: Arc::new(std::sync::Mutex::new(
                beliefdb_storage::datalog::PlanCache::new(),
            )),
            next_tid: 0,
        })
    }

    pub fn schema(&self) -> &ExternalSchema {
        &self.schema
    }

    /// The store's [`DefaultPolicy`].
    pub fn policy(&self) -> DefaultPolicy {
        self.policy
    }

    /// The ids of the external relations, ascending.
    pub(crate) fn rel_ids(&self) -> impl Iterator<Item = RelId> {
        (0..self.rel_tables.len() as u32).map(RelId)
    }

    /// The content table `R*_rel`.
    pub(crate) fn star_of(&self, rel: RelId) -> Result<&Table> {
        Ok(self.db.table(&rel_names(&self.rel_tables, rel)?.star)?)
    }

    /// The valuation table `V_rel`.
    pub(crate) fn v_of(&self, rel: RelId) -> Result<&Table> {
        Ok(self.db.table(&rel_names(&self.rel_tables, rel)?.v)?)
    }

    pub fn schema_arc(&self) -> Arc<ExternalSchema> {
        Arc::clone(&self.schema)
    }

    /// The underlying relational database (read-only).
    pub fn database(&self) -> &Database {
        &self.db
    }

    /// Mutable access to the underlying database, for registering
    /// `sys.*` virtual-table providers at engine construction.
    pub(crate) fn database_mut(&mut self) -> &mut Database {
        &mut self.db
    }

    /// A shared handle to the optimized-plan cache (the `sys.plan_cache`
    /// provider holds one).
    pub(crate) fn plan_cache_handle(
        &self,
    ) -> Arc<std::sync::Mutex<beliefdb_storage::datalog::PlanCache>> {
        Arc::clone(&self.plan_cache)
    }

    /// An up-to-date optimizer statistics snapshot for the internal
    /// database. The snapshot is cached across queries; only tables whose
    /// mutation version changed are recomputed.
    pub fn stats_catalog(&self) -> beliefdb_storage::StatsCatalog {
        let mut cache = self.stats.lock().expect("stats lock poisoned");
        cache.refresh(&self.db);
        cache.clone()
    }

    /// Run `f` with exclusive access to the store's optimized-plan cache
    /// (see [`beliefdb_storage::datalog::PlanCache`]).
    pub fn with_plan_cache<R>(
        &self,
        f: impl FnOnce(&mut beliefdb_storage::datalog::PlanCache) -> R,
    ) -> R {
        let mut cache = self.plan_cache.lock().expect("plan cache lock poisoned");
        f(&mut cache)
    }

    pub fn directory(&self) -> &WorldDirectory {
        &self.dir
    }

    pub fn users(&self) -> impl Iterator<Item = UserId> + '_ {
        self.users.iter().map(|(u, _)| *u)
    }

    pub fn user_count(&self) -> usize {
        self.users.len()
    }

    pub fn user_name(&self, id: UserId) -> Result<&str> {
        self.users
            .iter()
            .find(|(u, _)| *u == id)
            .map(|(_, n)| n.as_str())
            .ok_or_else(|| BeliefError::NoSuchUser(format!("#{id}")))
    }

    pub fn user_by_name(&self, name: &str) -> Result<UserId> {
        self.users
            .iter()
            .find(|(_, n)| n == name)
            .map(|(u, _)| *u)
            .ok_or_else(|| BeliefError::NoSuchUser(name.to_string()))
    }

    pub fn has_user(&self, id: UserId) -> bool {
        self.users.iter().any(|(u, _)| *u == id)
    }

    /// Register a new user (Sect. 5.3 "Other updates"): a `U` row. The
    /// paper also adds an `E` edge labelled by the new user from every
    /// world to the root (the new user has no states, so `dss(w·u) = ε`
    /// everywhere); the directory's `dss` answers that by itself.
    pub fn add_user(&mut self, name: impl Into<String>) -> Result<UserId> {
        let name = name.into();
        if self.users.iter().any(|(_, n)| *n == name) {
            return Err(BeliefError::DuplicateUser(name));
        }
        let id = UserId(self.users.len() as u32 + 1);
        self.db
            .table_mut(U_TABLE)?
            .insert(Row::new([id.value(), Value::str(&name)]))?;
        self.users.push((id, name));
        Ok(id)
    }

    /// The internal tuple id of a ground tuple, if `R*` holds it: one
    /// [`R_BY_TUPLE`] probe on the tuple's cells. A tuple of another arity
    /// than the relation's has none.
    pub fn tid_of(&self, tuple: &GroundTuple) -> Result<Option<Tid>> {
        let names = rel_names(&self.rel_tables, tuple.rel)?;
        let star = self.db.table(&names.star)?;
        if tuple.row.arity() + 1 != star.schema().arity() {
            return Ok(None);
        }
        let Some(rid) = star.probe(names.by_tuple, tuple.row.values())?.next() else {
            return Ok(None);
        };
        let tid = Tid::from_cell(star.cell(rid, 0)?).ok_or_else(|| {
            let name = star.schema().name();
            BeliefError::MalformedQuery(format!("row {rid} of {name} has no integer tid"))
        })?;
        Ok(Some(tid))
    }

    /// The internal tuple id for a ground tuple, creating the `R*` row on
    /// first sight (Alg. 4 line 1).
    pub(crate) fn tid_of_or_create(&mut self, tuple: &GroundTuple) -> Result<Tid> {
        if let Some(tid) = self.tid_of(tuple)? {
            return Ok(tid);
        }
        let tid = Tid(self.next_tid);
        let star = &rel_names(&self.rel_tables, tuple.rel)?.star;
        let mut cells = Vec::with_capacity(tuple.row.arity() + 1);
        cells.push(tid.cell());
        cells.extend(tuple.row.values().iter().map(Value::as_cell));
        self.db.table_mut(star)?.insert_cells(&cells)?;
        self.next_tid += 1;
        Ok(tid)
    }

    /// Look up the ground tuple for a tid.
    pub fn tuple_of(&self, rel: RelId, tid: Tid) -> Result<GroundTuple> {
        let table = self.star_of(rel)?;
        let rid = table.rid_by_key(&tid.value()).ok_or_else(|| {
            let star = table.schema().name();
            BeliefError::MalformedQuery(format!("dangling tid {tid} in table {star}"))
        })?;
        // Everything but the tid column, straight from the heap's cells
        // into the row's one allocation.
        let row = Row::try_from_fn(table.schema().arity() - 1, |i| {
            table.cell(rid, i + 1).map(|cell| cell.to_value())
        })?;
        Ok(GroundTuple::new(rel, row))
    }

    /// Total number of tuples in the internal schema — the paper's `|R*|`
    /// size measure: the stored tables and the world relations `D`, `E`
    /// and `S`, which the world directory holds.
    pub fn total_tuples(&self) -> usize {
        let worlds: usize = self.world_relation_sizes().iter().map(|(_, n)| n).sum();
        self.db.total_tuples() + worlds
    }

    /// Per-relation sizes of the internal schema for reporting, sorted by
    /// name: the stored tables and the world relations.
    pub fn table_sizes(&self) -> Vec<(String, usize)> {
        let stored = self.db.table_sizes().into_iter();
        let mut sizes: Vec<(String, usize)> = stored
            .chain(self.world_relation_sizes())
            .map(|(n, c)| (n.to_string(), c))
            .collect();
        sizes.sort();
        sizes
    }

    /// The row counts of Fig. 5's world relations, which only the world
    /// directory holds: `D(wid, d)` has a row per world, `S(wid1, wid2)`
    /// one per world but the root, and `E(wid1, uid, wid2)` an edge per
    /// world and user other than the world's last user (Def. 16).
    fn world_relation_sizes(&self) -> [(&'static str, usize); 3] {
        let (worlds, users) = (self.dir.len(), self.users.len());
        let edges = users + users.saturating_sub(1) * (worlds - 1);
        [("D", worlds), ("E", edges), ("S", worlds - 1)]
    }

    /// Resolve a belief path to the state whose world carries its entailed
    /// content (`dss`, since non-state paths are transparent).
    pub fn resolve(&self, path: &BeliefPath) -> Wid {
        self.dir.dss(path)
    }

    /// Materialize the entailed belief world at a path from the `V` tables.
    pub fn world(&self, path: &BeliefPath) -> Result<BeliefWorld> {
        let wid = self.resolve(path);
        let mut world = BeliefWorld::new();
        for rel in self.rel_ids() {
            for entry in self.read_world(rel, wid)? {
                world.add(self.tuple_of(rel, entry.tid)?, entry.sign);
            }
        }
        Ok(world)
    }

    /// The positive tuples of `rel` with external key `key` that the world
    /// at `path` entails (at most one in a consistent world, Γ1) — what
    /// [`InternalStore::world`] holds for that key, off one `(wid, key)`
    /// slice probe per stored world (one under `Eager`, the suffix chain
    /// under `Lazy`).
    pub fn believed_at(
        &self,
        path: &BeliefPath,
        rel: RelId,
        key: &Value,
    ) -> Result<Vec<GroundTuple>> {
        self.read_slice(rel, self.resolve(path), key)?
            .into_iter()
            .filter(|e| e.sign == Sign::Pos)
            .map(|e| self.tuple_of(rel, e.tid))
            .collect()
    }

    /// World-level entailment `D |= w t^s` directly off the `(wid, key)`
    /// slice — the fast path used by [`crate::bdms::Bdms::entails`].
    pub fn entails(&self, path: &BeliefPath, tuple: &GroundTuple, sign: Sign) -> Result<bool> {
        let wid = self.resolve(path);
        let slice = self.read_slice(tuple.rel, wid, tuple.key())?;
        let tid = self.tid_of(tuple)?;
        Ok(match sign {
            Sign::Pos => slice
                .iter()
                .any(|e| Some(e.tid) == tid && e.sign == Sign::Pos),
            // Stated negative: exact tid with '-'; unstated: any other
            // positive tid in the slice (Prop. 7).
            Sign::Neg => slice.iter().any(|e| match e.sign {
                Sign::Neg => Some(e.tid) == tid,
                Sign::Pos => Some(e.tid) != tid,
            }),
        })
    }

    /// Reconstruct the logical belief database (explicit statements only)
    /// from the `V` tables — the inverse of ingestion, used by the
    /// differential tests.
    pub fn to_belief_database(&self) -> Result<crate::database::BeliefDatabase> {
        let mut out = crate::database::BeliefDatabase::new((*self.schema).clone());
        for (_, name) in &self.users {
            out.add_user(name.clone())?;
        }
        for rel in self.rel_ids() {
            let vt = self.v_of(rel)?;
            for rid in vt.row_ids() {
                let entry = slices::slice_entry(vt, rid)?;
                if !entry.explicit {
                    continue;
                }
                let wid = Wid::from_cell(vt.cell(rid, 0)?).expect("wid column");
                let tuple = self.tuple_of(rel, entry.tid)?;
                let path = self.dir.path(wid).clone();
                out.insert_unchecked(crate::statement::BeliefStatement::new(
                    path, tuple, entry.sign,
                ))?;
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use beliefdb_storage::row;

    fn schema() -> ExternalSchema {
        ExternalSchema::new().with_relation("S", &["sid", "species"])
    }

    #[test]
    fn fresh_store_has_internal_schema_and_root() {
        let store = InternalStore::new(schema()).unwrap();
        let names = store.database().table_names();
        assert_eq!(names, vec!["S__star", "U", "V__S"]);
        // Root world: exactly the D(0,0) row, which the directory holds.
        assert_eq!(store.total_tuples(), 1);
        let sizes = store.table_sizes();
        let names: Vec<&str> = sizes.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, vec!["D", "E", "S", "S__star", "U", "V__S"]);
        assert_eq!(store.resolve(&BeliefPath::root()), Wid::ROOT);
        assert_eq!(store.directory().len(), 1);
    }

    #[test]
    fn add_user_creates_back_edges() {
        let mut store = InternalStore::new(schema()).unwrap();
        let alice = store.add_user("Alice").unwrap();
        assert_eq!(alice, UserId(1));
        // E(0, 1, 0): Alice loops on the root.
        let size = |store: &InternalStore, name: &str| {
            let sizes = store.table_sizes();
            sizes.iter().find(|(n, _)| n == name).unwrap().1
        };
        assert_eq!(size(&store, "E"), 1);
        assert_eq!(store.resolve(&BeliefPath::user(alice)), Wid::ROOT);
        // Bob adds his root edge and one from the new world [Alice].
        store.add_user("Bob").unwrap();
        store.ensure_world(&BeliefPath::user(alice)).unwrap();
        assert_eq!(size(&store, "E"), 2 + 1);
        assert_eq!(store.total_tuples(), 2 + 2 + 1 + 3);
        assert_eq!(store.user_by_name("Alice").unwrap(), alice);
        assert_eq!(store.user_name(alice).unwrap(), "Alice");
        assert!(store.add_user("Alice").is_err());
        assert!(store.user_by_name("Zoe").is_err());
    }

    #[test]
    fn tid_allocation_is_stable() {
        let mut store = InternalStore::new(schema()).unwrap();
        let rel = store.schema().relation_id("S").unwrap();
        let t1 = GroundTuple::new(rel, row!["s1", "crow"]);
        let t2 = GroundTuple::new(rel, row!["s1", "raven"]);
        let a = store.tid_of_or_create(&t1).unwrap();
        let b = store.tid_of_or_create(&t2).unwrap();
        let a2 = store.tid_of_or_create(&t1).unwrap();
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(store.database().table("S__star").unwrap().len(), 2);
        assert_eq!(store.tuple_of(rel, a).unwrap(), t1);
        assert_eq!(store.tuple_of(rel, b).unwrap(), t2);
        assert!(store.tuple_of(rel, Tid(99)).is_err());
    }

    #[test]
    fn insert_outcome_helpers() {
        assert!(InsertOutcome::Inserted.changed());
        assert!(InsertOutcome::MadeExplicit.changed());
        assert!(!InsertOutcome::AlreadyExplicit.changed());
        assert!(!InsertOutcome::Rejected.changed());
        assert!(InsertOutcome::AlreadyExplicit.accepted());
        assert!(!InsertOutcome::Rejected.accepted());
    }

    #[test]
    fn naming_helpers() {
        assert_eq!(star_table("Sightings"), "Sightings__star");
        assert_eq!(v_table("Sightings"), "V__Sightings");
        assert_eq!(explicit_cell(true), Value::str("y"));
        assert_eq!(explicit_cell(false), Value::str("n"));
    }
}
