//! Per-key slice maintenance of the `V` relations.
//!
//! The message-board closure is *key-local*: whether a tuple `t^s` is
//! inherited by a world depends only on tuples with the same `(relation,
//! key)` already in that world (Γ1 compares keys, Γ2 compares whole tuples
//! — both within one key group). An insert or delete of key `k` at world
//! `w` therefore only changes the `(·, k)` slices of `w` and of its
//! dependent worlds (those with `w` as proper suffix).
//!
//! `recompute_slice` rebuilds one `(world, key)` slice from first
//! principles: the world's explicit tuples win; the suffix parent's slice
//! (read through `S`) contributes every tuple consistent with them — the
//! overriding union of Thm. 17(2a), restricted to one key. Processing
//! dependents in ascending depth order guarantees each world's parent slice
//! is already up to date.
//!
//! This is the behaviour Algorithm 4's dependent-world loop (lines 8–14)
//! aims for; rebuilding the slice instead of patching it also handles the
//! corner case where a dependent world must *drop* a stale implicit tuple
//! (e.g. parent's crow was overridden by raven, so the child's inherited
//! crow must disappear), which the literal pseudo-code misses. Def. 9 wins.

use super::{explicit_value, InternalStore, V_BY_WID_KEY};
use crate::error::Result;
use crate::ids::{RelId, Tid, Wid};
use crate::statement::Sign;
use beliefdb_storage::{Row, RowId, Table, Value};

/// One `V` entry of a slice: `(tid, sign, explicit)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct SliceEntry {
    pub tid: Tid,
    pub sign: Sign,
    pub explicit: bool,
}

/// The `tid`, `s` and `e` cells of row `rid` of a `V` table, read in place.
pub(crate) fn slice_entry(vt: &Table, rid: RowId) -> Result<SliceEntry> {
    Ok(SliceEntry {
        tid: Tid::from_cell(vt.cell(rid, 1)?).expect("tid column"),
        sign: Sign::from_cell(vt.cell(rid, 3)?).expect("sign column"),
        explicit: vt.cell(rid, 4)?.as_str() == Some("y"),
    })
}

impl InternalStore {
    /// Read the `(world, key)` slice of `V_rel`.
    pub(crate) fn read_slice(&self, rel: RelId, wid: Wid, key: &Value) -> Result<Vec<SliceEntry>> {
        let vt = self.v_of(rel)?;
        vt.index_lookup(V_BY_WID_KEY, &[wid.value(), key.clone()])?
            .map(|rid| slice_entry(vt, rid))
            .collect()
    }

    /// Rebuild the `(world, key)` slice: explicit entries stay; the suffix
    /// parent's entries are inherited when consistent.
    pub(crate) fn recompute_slice(&mut self, rel: RelId, wid: Wid, key: &Value) -> Result<()> {
        let current = self.read_slice(rel, wid, key)?;
        let explicit: Vec<SliceEntry> = current.iter().copied().filter(|e| e.explicit).collect();

        let mut next: Vec<SliceEntry> = explicit;
        if wid != Wid::ROOT {
            let parent = self.suffix_parent(wid)?;
            let parent_slice = self.read_slice(rel, parent, key)?;
            // Positives before negatives keeps the loop order-independent in
            // spirit; within a consistent parent slice it cannot matter.
            for phase in [Sign::Pos, Sign::Neg] {
                for entry in parent_slice.iter().filter(|e| e.sign == phase) {
                    if next
                        .iter()
                        .any(|e| e.tid == entry.tid && e.sign == entry.sign)
                    {
                        continue; // already present (explicitly)
                    }
                    let ok = match entry.sign {
                        // Γ1: no positive occupies the key; Γ2: the tuple is
                        // not negative here.
                        Sign::Pos => !next.iter().any(|e| {
                            e.sign == Sign::Pos || (e.sign == Sign::Neg && e.tid == entry.tid)
                        }),
                        // Γ2 only: the exact tuple is not positive here.
                        Sign::Neg => !next
                            .iter()
                            .any(|e| e.sign == Sign::Pos && e.tid == entry.tid),
                    };
                    if ok {
                        next.push(SliceEntry {
                            tid: entry.tid,
                            sign: entry.sign,
                            explicit: false,
                        });
                    }
                }
            }
        }

        // No-op check as multisets: the stored order (heap/index order) and
        // the rebuilt order (explicit first) differ even when the content is
        // identical.
        let mut a = next.clone();
        let mut b = current;
        let entry_key = |e: &SliceEntry| (e.tid, e.sign, e.explicit);
        a.sort_by_key(entry_key);
        b.sort_by_key(entry_key);
        if a == b {
            return Ok(());
        }
        let vt = self.v_of_mut(rel)?;
        vt.delete_by_index(V_BY_WID_KEY, &[wid.value(), key.clone()])?;
        for e in next {
            vt.insert(Row::new(vec![
                wid.value(),
                e.tid.value(),
                key.clone(),
                e.sign.value(),
                explicit_value(e.explicit),
            ]))?;
        }
        Ok(())
    }

    /// Recompute the key slice at `w` and at every dependent world, in
    /// ascending depth order (Alg. 4's propagation loop).
    pub(crate) fn propagate_key(
        &mut self,
        rel: RelId,
        path: &crate::path::BeliefPath,
        key: &Value,
    ) -> Result<()> {
        let wid = self
            .dir
            .get(path)
            .expect("world must exist before propagation");
        self.recompute_slice(rel, wid, key)?;
        for dep in self.dir.dependents(path) {
            self.recompute_slice(rel, dep, key)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::path::{path, BeliefPath};
    use crate::schema::ExternalSchema;
    use crate::statement::GroundTuple;
    use beliefdb_storage::row;

    fn store() -> InternalStore {
        let schema = ExternalSchema::new().with_relation("S", &["sid", "species"]);
        let mut s = InternalStore::new(schema).unwrap();
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
        let vt = store.v_of_mut(rel).unwrap();
        // remove a pre-existing implicit copy of the same tid+sign, if any
        vt.delete_where(|r| r[0] == wid.value() && r[1] == tid.value() && r[3] == sign.value())
            .unwrap();
        vt.insert(Row::new(vec![
            wid.value(),
            tid.value(),
            Value::str(key),
            sign.value(),
            explicit_value(true),
        ]))
        .unwrap();
        store.propagate_key(rel, p, &Value::str(key)).unwrap();
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
    fn recompute_is_idempotent() {
        let mut s = store();
        s.ensure_world(&path(&[2, 1])).unwrap();
        insert_explicit(&mut s, &BeliefPath::root(), "s1", "crow", Sign::Pos);
        let rel = s.schema().relation_id("S").unwrap();
        let before = slice(&s, &path(&[2, 1]), "s1");
        s.propagate_key(rel, &BeliefPath::root(), &Value::str("s1"))
            .unwrap();
        s.propagate_key(rel, &BeliefPath::root(), &Value::str("s1"))
            .unwrap();
        assert_eq!(slice(&s, &path(&[2, 1]), "s1"), before);
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
