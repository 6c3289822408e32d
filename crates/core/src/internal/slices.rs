//! Per-key slice maintenance of the `V` relations.
//!
//! The message-board closure is *key-local*: whether a tuple `t^s` is
//! inherited by a world depends only on tuples with the same `(relation,
//! key)` already in that world (Γ1 compares keys, Γ2 compares whole tuples
//! — both within one key group). A statement about key `k` at world `w`
//! therefore only changes the `(·, k)` slices of `w` and of its dependent
//! worlds (those with `w` as proper suffix).
//!
//! [`overriding_union`] derives one `(world, key)` slice from first
//! principles: the world's explicit tuples win; the suffix parent's slice
//! (`S`) contributes every tuple consistent with them — the overriding
//! union of Thm. 17(2a), restricted to one key.
//! [`InternalStore::propagate`] runs it once per statement over `w` and
//! its dependents — the subtree below `w` in the world directory's suffix
//! tree, every world after its suffix parent. A dependent's suffix parent
//! is `w` or another dependent, so its new slice was derived earlier in
//! the same walk and is taken from memory; the stored slice is read once
//! and only its difference to the derived one is written.
//!
//! This is the behaviour Algorithm 4's dependent-world loop (lines 8–14)
//! aims for; deriving the slice instead of patching it also handles the
//! corner case where a dependent world must *drop* a stale implicit tuple
//! (e.g. parent's crow was overridden by raven, so the child's inherited
//! crow must disappear), which the literal pseudo-code misses. Def. 9 wins.
//!
//! Under [`DefaultPolicy::Lazy`] nothing is propagated: `V` holds the
//! explicit rows only, and [`InternalStore::read_slice`] runs the same
//! [`overriding_union`] at read time, folded from the root down the suffix
//! chain — one probe per world on it instead of one per dependent world
//! per statement.

use super::{explicit_cell, rel_names, DefaultPolicy, InternalStore};
use crate::error::Result;
use crate::ids::{RelId, Tid, Wid};
use crate::path::BeliefPath;
use crate::statement::Sign;
use beliefdb_storage::{CellHash, IndexId, RowId, Table, Value};
use std::collections::HashMap;
use std::ops::Range;

/// One `V` entry of a slice: `(tid, sign, explicit)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct SliceEntry {
    pub tid: Tid,
    pub sign: Sign,
    pub explicit: bool,
}

/// A slice entry and the `V` row holding it.
pub(crate) type SliceRow = (RowId, SliceEntry);

/// The `tid`, `s` and `e` cells of row `rid` of a `V` table, read in place.
pub(crate) fn slice_entry(vt: &Table, rid: RowId) -> Result<SliceEntry> {
    Ok(SliceEntry {
        tid: Tid::from_cell(vt.cell(rid, 1)?).expect("tid column"),
        sign: Sign::from_cell(vt.cell(rid, 3)?).expect("sign column"),
        explicit: vt.cell(rid, 4)? == explicit_cell(true),
    })
}

/// The stored `(world, key)` slice of the `V` table `vt`: one index probe.
pub(crate) fn slice_rows(
    vt: &Table,
    by_wid_key: IndexId,
    wid: Wid,
    key: &Value,
) -> Result<Vec<SliceRow>> {
    vt.probe(by_wid_key, &[wid.cell(), key.as_cell()])?
        .map(|rid| Ok((rid, slice_entry(vt, rid)?)))
        .collect()
}

/// Append to `arena` the slice of a world that states `explicit` and whose
/// suffix parent holds the slice `arena[parent]`; returns where it is.
pub(crate) fn overriding_union(
    arena: &mut Vec<SliceEntry>,
    explicit: impl Iterator<Item = SliceEntry>,
    parent: Range<usize>,
) -> Range<usize> {
    let start = arena.len();
    arena.extend(explicit);
    // Positives before negatives keeps the loop order-independent in
    // spirit; within a consistent parent slice it cannot matter.
    for phase in [Sign::Pos, Sign::Neg] {
        for inherited in parent.clone() {
            let entry = arena[inherited];
            let next = &arena[start..];
            if entry.sign != phase
                // already present (explicitly)
                || next
                    .iter()
                    .any(|e| e.tid == entry.tid && e.sign == entry.sign)
            {
                continue;
            }
            let ok = match entry.sign {
                // Γ1: no positive occupies the key; Γ2: the tuple is not
                // negative here.
                Sign::Pos => !next
                    .iter()
                    .any(|e| e.sign == Sign::Pos || (e.sign == Sign::Neg && e.tid == entry.tid)),
                // Γ2 only: the exact tuple is not positive here.
                Sign::Neg => !next
                    .iter()
                    .any(|e| e.sign == Sign::Pos && e.tid == entry.tid),
            };
            if ok {
                arena.push(SliceEntry {
                    explicit: false,
                    ..entry
                });
            }
        }
    }
    start..arena.len()
}

impl InternalStore {
    /// The worlds whose stored `V` rows make up the entailed content of
    /// `wid`, root-most first: `wid` alone under `Eager`, where `V` holds
    /// the closure, and its suffix chain `Sᵈ(w) … S(w), w` under `Lazy`,
    /// where it holds the explicit statements only.
    pub(crate) fn stored_chain(&self, wid: Wid) -> Vec<Wid> {
        let mut chain = vec![wid];
        if self.policy == DefaultPolicy::Lazy {
            let mut x = wid;
            while x != Wid::ROOT {
                x = self.dir.suffix_parent(x);
                chain.push(x);
            }
            chain.reverse();
        }
        chain
    }

    /// Read the entailed `(world, key)` slice of `V_rel`: the stored rows
    /// of every world on [`InternalStore::stored_chain`], each world's
    /// overriding its suffix parent's (with a single world, that is its
    /// stored slice as it is).
    pub(crate) fn read_slice(&self, rel: RelId, wid: Wid, key: &Value) -> Result<Vec<SliceEntry>> {
        let names = rel_names(&self.rel_tables, rel)?;
        let vt = self.db.table(&names.v)?;
        let mut arena = Vec::new();
        let mut slice = 0..0;
        for x in self.stored_chain(wid) {
            let stored = slice_rows(vt, names.by_wid_key, x, key)?;
            slice = overriding_union(&mut arena, stored.into_iter().map(|(_, e)| e), slice);
        }
        arena.drain(..slice.start);
        Ok(arena)
    }

    /// The entailed content of world `wid` in `V_rel`: what
    /// [`InternalStore::read_slice`] gives for every key, off one `(wid)`
    /// probe per world on the stored chain.
    pub(crate) fn read_world(&self, rel: RelId, wid: Wid) -> Result<Vec<SliceEntry>> {
        let names = rel_names(&self.rel_tables, rel)?;
        let vt = self.db.table(&names.v)?;
        let chain = self.stored_chain(wid);
        if let [x] = chain[..] {
            // One stored world is its own content.
            return vt
                .probe(names.by_wid_key, &[x.cell()])?
                .map(|rid| slice_entry(vt, rid))
                .collect();
        }
        let mut folded: HashMap<Value, Vec<SliceEntry>, CellHash> = HashMap::default();
        for x in chain {
            let mut stated: HashMap<Value, Vec<SliceEntry>, CellHash> = HashMap::default();
            for rid in vt.probe(names.by_wid_key, &[x.cell()])? {
                let key = vt.cell(rid, 2)?.to_value();
                stated.entry(key).or_default().push(slice_entry(vt, rid)?);
            }
            // A key `x` states nothing about is inherited unchanged.
            for (key, explicit) in stated {
                let mut arena = folded.remove(&key).unwrap_or_default();
                let parent = 0..arena.len();
                let next = overriding_union(&mut arena, explicit.into_iter(), parent);
                arena.drain(..next.start);
                folded.insert(key, arena);
            }
        }
        Ok(folded.into_values().flatten().collect())
    }

    /// The `(·, key)` slice of the suffix parent of `wid`, which the world
    /// inherits from; the root inherits nothing.
    pub(crate) fn parent_slice(
        &self,
        rel: RelId,
        wid: Wid,
        key: &Value,
    ) -> Result<Vec<SliceEntry>> {
        if wid == Wid::ROOT {
            return Ok(Vec::new());
        }
        self.read_slice(rel, self.dir.suffix_parent(wid), key)
    }

    /// Bring the `(·, key)` slices of the world at `path` and of every
    /// dependent world up to date, every world after its suffix parent (Alg. 4's
    /// propagation loop, lines 8–14). `rows` is the stored slice of the
    /// world at `path`, with its explicit rows as the statement leaves
    /// them, and `inherited` the slice of its suffix parent if the caller
    /// has read it. Costs one index probe per world; writes only the rows
    /// that differ.
    pub(crate) fn propagate(
        &mut self,
        rel: RelId,
        path: &BeliefPath,
        key: &Value,
        mut rows: Vec<SliceRow>,
        inherited: Option<Vec<SliceEntry>>,
    ) -> Result<()> {
        let wid = self
            .dir
            .get(path)
            .expect("world must exist before propagation");
        let mut worlds = vec![wid];
        worlds.extend(self.dir.dependents(path));

        // The derived slices of this statement, back to back, and where
        // each world's is. No dependent of `w` is the suffix parent of `w`,
        // so the first entry is only ever read for `w` itself.
        let mut arena = match inherited {
            Some(slice) => slice,
            None => self.parent_slice(rel, wid, key)?,
        };
        let mut derived: HashMap<Wid, Range<usize>> = HashMap::with_capacity(worlds.len() + 1);
        derived.insert(self.dir.suffix_parent(wid), 0..arena.len());

        let names = rel_names(&self.rel_tables, rel)?;
        let by_wid_key = names.by_wid_key;
        let vt = self.db.table_mut(&names.v)?;
        for x in worlds {
            let parent = self.dir.suffix_parent(x);
            if x != wid {
                rows = slice_rows(vt, by_wid_key, x, key)?;
            }
            let explicit = rows.iter().map(|&(_, e)| e).filter(|e| e.explicit);
            let next = overriding_union(&mut arena, explicit, derived[&parent].clone());
            for &(rid, entry) in &rows {
                if !arena[next.clone()].contains(&entry) {
                    vt.remove(rid)?;
                }
            }
            for entry in &arena[next.clone()] {
                if !rows.iter().any(|(_, stored)| stored == entry) {
                    vt.insert_cells(&[
                        x.cell(),
                        entry.tid.cell(),
                        key.as_cell(),
                        entry.sign.cell(),
                        explicit_cell(entry.explicit),
                    ])?;
                }
            }
            derived.insert(x, next);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::path::path;
    use crate::schema::ExternalSchema;
    use crate::statement::GroundTuple;
    use beliefdb_storage::row;

    fn store() -> InternalStore {
        let schema = ExternalSchema::new().with_relation("S", &["sid", "species"]);
        // These tests are about the materialized closure.
        let mut s = InternalStore::with_policy(schema, DefaultPolicy::Eager).unwrap();
        s.add_user("Alice").unwrap();
        s.add_user("Bob").unwrap();
        s
    }

    fn insert_explicit(
        store: &mut InternalStore,
        p: &crate::path::BeliefPath,
        key: &str,
        species: &str,
        sign: Sign,
    ) {
        let rel = store.schema().relation_id("S").unwrap();
        let tuple = GroundTuple::new(rel, row![key, species]);
        let wid = store.ensure_world(p).unwrap();
        let tid = store.tid_of_or_create(&tuple).unwrap();
        let key = Value::str(key);
        let vt = store.db.table_mut("V__S").unwrap();
        // remove a pre-existing implicit copy of the same tid+sign, if any
        vt.delete_where(|r| r[0] == wid.value() && r[1] == tid.value() && r[3] == sign.value())
            .unwrap();
        vt.insert_cells(&[
            wid.cell(),
            tid.cell(),
            key.as_cell(),
            sign.cell(),
            explicit_cell(true),
        ])
        .unwrap();
        propagate_stored(store, p, &key);
    }

    /// Propagate from the slice as it is stored at `p`.
    fn propagate_stored(store: &mut InternalStore, p: &crate::path::BeliefPath, key: &Value) {
        let rel = store.schema().relation_id("S").unwrap();
        let names = rel_names(&store.rel_tables, rel).unwrap();
        let wid = store.dir.get(p).unwrap();
        let rows = slice_rows(store.v_of(rel).unwrap(), names.by_wid_key, wid, key).unwrap();
        store.propagate(rel, p, key, rows, None).unwrap();
    }

    fn slice(
        store: &InternalStore,
        p: &crate::path::BeliefPath,
        key: &str,
    ) -> Vec<(u32, Sign, bool)> {
        let rel = store.schema().relation_id("S").unwrap();
        let wid = store.dir.get(p).unwrap();
        let mut s: Vec<_> = store
            .read_slice(rel, wid, &Value::str(key))
            .unwrap()
            .into_iter()
            .map(|e| (e.tid.0, e.sign, e.explicit))
            .collect();
        s.sort();
        s
    }

    #[test]
    fn root_insert_propagates_to_all_worlds() {
        let mut s = store();
        s.ensure_world(&path(&[1])).unwrap();
        s.ensure_world(&path(&[2, 1])).unwrap();
        insert_explicit(&mut s, &BeliefPath::root(), "s1", "crow", Sign::Pos);
        assert_eq!(
            slice(&s, &BeliefPath::root(), "s1"),
            vec![(0, Sign::Pos, true)]
        );
        assert_eq!(slice(&s, &path(&[1]), "s1"), vec![(0, Sign::Pos, false)]);
        assert_eq!(slice(&s, &path(&[2, 1]), "s1"), vec![(0, Sign::Pos, false)]);
    }

    #[test]
    fn explicit_override_replaces_inherited_tuple() {
        let mut s = store();
        s.ensure_world(&path(&[2, 1])).unwrap();
        insert_explicit(&mut s, &BeliefPath::root(), "s1", "crow", Sign::Pos);
        // Alice overrides with raven: her slice swaps tuples; the dependent
        // 2·1 follows her.
        insert_explicit(&mut s, &path(&[1]), "s1", "raven", Sign::Pos);
        assert_eq!(slice(&s, &path(&[1]), "s1"), vec![(1, Sign::Pos, true)]);
        assert_eq!(slice(&s, &path(&[2, 1]), "s1"), vec![(1, Sign::Pos, false)]);
        // Root unchanged.
        assert_eq!(
            slice(&s, &BeliefPath::root(), "s1"),
            vec![(0, Sign::Pos, true)]
        );
    }

    #[test]
    fn stale_implicit_is_dropped_when_parent_changes() {
        // The corner case the paper's pseudo-code misses: the child has an
        // explicit negative for the *new* tuple; the old inherited tuple
        // must still disappear (nothing implies it anymore).
        let mut s = store();
        s.ensure_world(&path(&[1])).unwrap();
        s.ensure_world(&path(&[2, 1])).unwrap();
        insert_explicit(&mut s, &BeliefPath::root(), "s1", "crow", Sign::Pos); // tid 0
                                                                               // child explicitly denies the raven (tid 1) before it exists upstream
        insert_explicit(&mut s, &path(&[2, 1]), "s1", "raven", Sign::Neg);
        assert_eq!(
            slice(&s, &path(&[2, 1]), "s1"),
            vec![(0, Sign::Pos, false), (1, Sign::Neg, true)]
        );
        // parent (Alice) now overrides crow with raven
        insert_explicit(&mut s, &path(&[1]), "s1", "raven", Sign::Pos);
        // the child: raven blocked (explicit negative), crow no longer
        // implied by anyone — slice must NOT retain the stale crow.
        assert_eq!(slice(&s, &path(&[2, 1]), "s1"), vec![(1, Sign::Neg, true)]);
    }

    #[test]
    fn negative_inherits_unless_blocked() {
        let mut s = store();
        s.ensure_world(&path(&[1])).unwrap();
        s.ensure_world(&path(&[2, 1])).unwrap();
        insert_explicit(&mut s, &path(&[1]), "s1", "crow", Sign::Neg);
        // 2·1 inherits the stated negative.
        assert_eq!(slice(&s, &path(&[2, 1]), "s1"), vec![(0, Sign::Neg, false)]);
        // but a world that explicitly believes crow does not:
        insert_explicit(&mut s, &path(&[2, 1]), "s1", "crow", Sign::Pos);
        assert_eq!(slice(&s, &path(&[2, 1]), "s1"), vec![(0, Sign::Pos, true)]);
    }

    #[test]
    fn multiple_negatives_coexist_in_slice() {
        let mut s = store();
        insert_explicit(&mut s, &path(&[2]), "s1", "bald eagle", Sign::Neg);
        insert_explicit(&mut s, &path(&[2]), "s1", "fish eagle", Sign::Neg);
        assert_eq!(
            slice(&s, &path(&[2]), "s1"),
            vec![(0, Sign::Neg, true), (1, Sign::Neg, true)]
        );
    }

    #[test]
    fn propagating_an_up_to_date_key_writes_nothing() {
        let mut s = store();
        s.ensure_world(&path(&[2, 1])).unwrap();
        insert_explicit(&mut s, &BeliefPath::root(), "s1", "crow", Sign::Pos);
        let rel = s.schema().relation_id("S").unwrap();
        let before = slice(&s, &path(&[2, 1]), "s1");
        let [.., probes, inserts, deletes, _, _] = s.v_of(rel).unwrap().access().snapshot();
        propagate_stored(&mut s, &BeliefPath::root(), &Value::str("s1"));
        assert_eq!(slice(&s, &path(&[2, 1]), "s1"), before);
        // One probe per dependent world (2 and 2·1) and the two of this
        // test's own slice reads; no row written.
        let after = s.v_of(rel).unwrap().access().snapshot();
        assert_eq!(after[2..5], [probes + 4, inserts, deletes]);
    }

    #[test]
    fn unrelated_keys_untouched() {
        let mut s = store();
        insert_explicit(&mut s, &BeliefPath::root(), "s1", "crow", Sign::Pos);
        insert_explicit(&mut s, &BeliefPath::root(), "s2", "owl", Sign::Pos);
        insert_explicit(&mut s, &path(&[1]), "s1", "raven", Sign::Pos);
        // s2 slices everywhere still reflect the root fact (owl is tid 1).
        assert_eq!(slice(&s, &path(&[1]), "s2"), vec![(1, Sign::Pos, false)]);
    }
}
