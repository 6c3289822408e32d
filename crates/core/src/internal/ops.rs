//! Statement-level updates: `insertTuple` (Algorithm 4), deletes and
//! updates, as one revision of a `(world, key)` slice.

use super::slices::{overriding_union, slice_entry, slice_rows, SliceEntry};
use super::{explicit_cell, rel_names, DefaultPolicy, InsertOutcome, InternalStore};
use crate::error::{BeliefError, Result};
use crate::ids::{RelId, Tid, Wid};
use crate::path::BeliefPath;
use crate::statement::{BeliefStatement, GroundTuple, Sign};
use beliefdb_storage::Value;

/// Alg. 4 lines 3–5: what asserting `tid^sign` comes to in a world whose
/// slice for the tuple's key is `slice`.
fn gate(slice: &[SliceEntry], tid: Tid, sign: Sign) -> InsertOutcome {
    match slice.iter().find(|e| e.tid == tid && e.sign == sign) {
        // line 3: already explicitly present.
        Some(SliceEntry { explicit: true, .. }) => return InsertOutcome::AlreadyExplicit,
        // line 4: implicitly present — promote to explicit.
        Some(_) => return InsertOutcome::MadeExplicit,
        None => {}
    }
    // line 5: consistency against *explicit* tuples only (implicit ones
    // are overridden by the new statement).
    let conflict = match sign {
        Sign::Pos => slice
            .iter()
            .any(|e| e.explicit && ((e.sign == Sign::Neg && e.tid == tid) || e.sign == Sign::Pos)),
        Sign::Neg => slice
            .iter()
            .any(|e| e.explicit && e.sign == Sign::Pos && e.tid == tid),
    };
    if conflict {
        InsertOutcome::Rejected
    } else {
        InsertOutcome::Inserted
    }
}

impl InternalStore {
    /// Validate a statement's relation arity and user ids without
    /// mutating anything. The durability layer calls this before
    /// appending a record, so a logged mutation always applies cleanly
    /// on replay.
    pub(crate) fn check_statement(&self, path: &BeliefPath, tuple: &GroundTuple) -> Result<()> {
        self.schema.check_tuple(tuple.rel, &tuple.row)?;
        for u in path.users() {
            if !self.has_user(*u) {
                return Err(BeliefError::NoSuchUser(format!("#{u}")));
            }
        }
        Ok(())
    }

    /// One statement about key `key` of `rel` at the world `wid` of `path`:
    /// withdraw the explicit `retract`, if the world states it, then put
    /// `assert` through Algorithm 4's gate, and — under `Eager` — propagate
    /// the two together in one walk over the dependent worlds. Returns
    /// whether the retraction took place and what the assertion came to.
    fn revise(
        &mut self,
        rel: RelId,
        path: &BeliefPath,
        wid: Wid,
        key: &Value,
        retract: Option<(Tid, Sign)>,
        assert: Option<(Tid, Sign)>,
    ) -> Result<(bool, Option<InsertOutcome>)> {
        // Under `Eager` the stored slice is the world's content; under
        // `Lazy` it is the explicit part, and the rest is folded from the
        // suffix chain.
        let eager = self.policy == DefaultPolicy::Eager;
        let names = rel_names(&self.rel_tables, rel)?;
        // T1: the world's tuples with this key (Alg. 4 line 2).
        let mut rows = slice_rows(self.db.table(&names.v)?, names.by_wid_key, wid, key)?;

        let stated = retract.and_then(|(tid, sign)| {
            rows.iter()
                .position(|(_, e)| e.explicit && e.tid == tid && e.sign == sign)
        });
        if let Some(pos) = stated {
            let (rid, _) = rows.swap_remove(pos);
            self.db.table_mut(&names.v)?.remove(rid)?;
        }

        let mut inherited = None;
        let mut outcome = None;
        if let Some((tid, sign)) = assert {
            let decided = if stated.is_some() || !eager {
                // The gate sees the world as the retraction leaves it:
                // what was overridden by the withdrawn tuple is back.
                let mut arena = self.parent_slice(rel, wid, key)?;
                let parent = 0..arena.len();
                let explicit = rows.iter().map(|&(_, e)| e).filter(|e| e.explicit);
                let view = overriding_union(&mut arena, explicit, parent.clone());
                let decided = gate(&arena[view], tid, sign);
                arena.truncate(parent.end);
                inherited = Some(arena);
                decided
            } else {
                let view: Vec<SliceEntry> = rows.iter().map(|&(_, e)| e).collect();
                gate(&view, tid, sign)
            };
            if decided.changed() {
                let vt = self.db.table_mut(&names.v)?;
                // line 4: an implicit copy gives way to the explicit row.
                if let Some(pos) = rows
                    .iter()
                    .position(|(_, e)| e.tid == tid && e.sign == sign)
                {
                    let (rid, _) = rows.swap_remove(pos);
                    vt.remove(rid)?;
                }
                // lines 6–7: record the explicit tuple.
                let rid = vt.insert_cells(&[
                    wid.cell(),
                    tid.cell(),
                    key.as_cell(),
                    sign.cell(),
                    explicit_cell(true),
                ])?;
                let stated = SliceEntry {
                    tid,
                    sign,
                    explicit: true,
                };
                rows.push((rid, stated));
            }
            outcome = Some(decided);
        }

        // lines 8–14. A promotion alone leaves the content of this world
        // and of all dependents as it was; under `Lazy` every dependent
        // reads the new row through its suffix chain.
        if eager && (stated.is_some() || outcome == Some(InsertOutcome::Inserted)) {
            self.propagate(rel, path, key, rows, inherited)?;
        }
        Ok((stated.is_some(), outcome))
    }

    /// `insertTuple` (Algorithm 4): insert the signed tuple into world
    /// `path` if consistent with the world's *explicit* beliefs, then
    /// (under `Eager`) propagate through the dependent worlds.
    ///
    /// Like the paper's procedure, this creates the world (and the `R*`
    /// row) even when the statement itself ends up rejected.
    pub fn insert(
        &mut self,
        path: &BeliefPath,
        tuple: &GroundTuple,
        sign: Sign,
    ) -> Result<InsertOutcome> {
        self.check_statement(path, tuple)?;
        let wid = self.ensure_world(path)?;
        let tid = self.tid_of_or_create(tuple)?;
        let (_, outcome) =
            self.revise(tuple.rel, path, wid, tuple.key(), None, Some((tid, sign)))?;
        Ok(outcome.expect("a statement was asserted"))
    }

    /// [`InternalStore::insert`] of a statement already resolved to ids:
    /// the tuple `tid` of `rel`, whose key is `key`, at the existing world
    /// `wid`. Restoring a snapshot goes through here, so neither the path
    /// nor the tuple is looked up again.
    pub(crate) fn insert_ids(
        &mut self,
        wid: Wid,
        rel: RelId,
        tid: Tid,
        key: &Value,
        sign: Sign,
    ) -> Result<InsertOutcome> {
        let path = self.dir.path(wid).clone();
        let (_, outcome) = self.revise(rel, &path, wid, key, None, Some((tid, sign)))?;
        Ok(outcome.expect("a statement was asserted"))
    }

    /// Insert a [`BeliefStatement`].
    pub fn insert_statement(&mut self, stmt: &BeliefStatement) -> Result<InsertOutcome> {
        self.insert(&stmt.path, &stmt.tuple, stmt.sign)
    }

    /// Delete an explicit statement ("deletes follow a similar semantics as
    /// inserts", Sect. 5.3): retract the explicit mark and bring the key
    /// slice here and at all dependents up to date — the tuple may be
    /// re-inherited from the suffix parent, or vanish entirely. Returns
    /// `true` iff the statement was explicitly present.
    pub fn delete(&mut self, path: &BeliefPath, tuple: &GroundTuple, sign: Sign) -> Result<bool> {
        self.check_statement(path, tuple)?;
        let Some(wid) = self.dir.get(path) else {
            return Ok(false);
        };
        let Some(tid) = self.tid_of(tuple)? else {
            return Ok(false);
        };
        let (retracted, _) =
            self.revise(tuple.rel, path, wid, tuple.key(), Some((tid, sign)), None)?;
        Ok(retracted)
    }

    /// Delete a [`BeliefStatement`].
    pub fn delete_statement(&mut self, stmt: &BeliefStatement) -> Result<bool> {
        self.delete(&stmt.path, &stmt.tuple, stmt.sign)
    }

    /// Replace the explicit positive `old` at `path` by `new`: the state
    /// and the outcome of `delete(old)` followed by `insert(new)`. When the
    /// two share relation and key — an update in place — the dependent
    /// worlds are walked once, also when `new` ends rejected or was there
    /// already, so that the retraction still reaches them.
    pub fn update(
        &mut self,
        path: &BeliefPath,
        old: &GroundTuple,
        new: &GroundTuple,
    ) -> Result<InsertOutcome> {
        self.check_statement(path, old)?;
        self.check_statement(path, new)?;
        if old.rel != new.rel || old.key() != new.key() {
            self.delete(path, old, Sign::Pos)?;
            return self.insert(path, new, Sign::Pos);
        }
        let wid = self.ensure_world(path)?;
        let tid = self.tid_of_or_create(new)?;
        let retract = self.tid_of(old)?.map(|old| (old, Sign::Pos));
        let assert = Some((tid, Sign::Pos));
        let (_, outcome) = self.revise(new.rel, path, wid, new.key(), retract, assert)?;
        Ok(outcome.expect("a statement was asserted"))
    }

    /// The explicit statements at a path (for introspection and tests).
    pub fn explicit_statements_at(&self, path: &BeliefPath) -> Result<Vec<BeliefStatement>> {
        let Some(wid) = self.dir.get(path) else {
            return Ok(Vec::new());
        };
        let mut out = Vec::new();
        for (rel, names) in self.rel_ids().zip(&self.rel_tables) {
            let vt = self.db.table(&names.v)?;
            for rid in vt.probe(names.by_wid_key, &[wid.cell()])? {
                let entry = slice_entry(vt, rid)?;
                if entry.explicit {
                    out.push(BeliefStatement::new(
                        path.clone(),
                        self.tuple_of(rel, entry.tid)?,
                        entry.sign,
                    ));
                }
            }
        }
        out.sort();
        Ok(out)
    }

    /// The explicit statements at a path about the tuples of `rel` with
    /// external key `key` — what [`InternalStore::explicit_statements_at`]
    /// lists for that key, off one `(wid, key)` slice probe.
    pub fn explicit_at(
        &self,
        path: &BeliefPath,
        rel: RelId,
        key: &Value,
    ) -> Result<Vec<BeliefStatement>> {
        let Some(wid) = self.dir.get(path) else {
            return Ok(Vec::new());
        };
        let mut out = self
            .read_slice(rel, wid, key)?
            .into_iter()
            .filter(|e| e.explicit)
            .map(|e| {
                Ok(BeliefStatement::new(
                    path.clone(),
                    self.tuple_of(rel, e.tid)?,
                    e.sign,
                ))
            })
            .collect::<Result<Vec<_>>>()?;
        out.sort();
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::path::{path, BeliefPath};
    use crate::schema::ExternalSchema;
    use beliefdb_storage::row;

    fn store() -> InternalStore {
        let schema = ExternalSchema::new().with_relation("S", &["sid", "species"]);
        let mut s = InternalStore::new(schema).unwrap();
        s.add_user("Alice").unwrap();
        s.add_user("Bob").unwrap();
        s
    }

    fn t(store: &InternalStore, key: &str, species: &str) -> GroundTuple {
        GroundTuple::new(store.schema().relation_id("S").unwrap(), row![key, species])
    }

    #[test]
    fn insert_then_entails() {
        let mut s = store();
        let crow = t(&s, "s1", "crow");
        let out = s.insert(&path(&[1]), &crow, Sign::Pos).unwrap();
        assert_eq!(out, InsertOutcome::Inserted);
        assert!(s.entails(&path(&[1]), &crow, Sign::Pos).unwrap());
        // Bob inherits by default.
        assert!(s.entails(&path(&[2, 1]), &crow, Sign::Pos).unwrap());
        // Root unaffected.
        assert!(!s.entails(&BeliefPath::root(), &crow, Sign::Pos).unwrap());
    }

    #[test]
    fn duplicate_insert_detected() {
        let mut s = store();
        let crow = t(&s, "s1", "crow");
        s.insert(&path(&[1]), &crow, Sign::Pos).unwrap();
        assert_eq!(
            s.insert(&path(&[1]), &crow, Sign::Pos).unwrap(),
            InsertOutcome::AlreadyExplicit
        );
    }

    #[test]
    fn implicit_promotion() {
        let mut s = store();
        let crow = t(&s, "s1", "crow");
        s.insert(&BeliefPath::root(), &crow, Sign::Pos).unwrap();
        // Alice's world exists and holds the implicit crow.
        s.ensure_world(&path(&[1])).unwrap();
        let out = s.insert(&path(&[1]), &crow, Sign::Pos).unwrap();
        assert_eq!(out, InsertOutcome::MadeExplicit);
        // Now explicit at Alice.
        let stmts = s.explicit_statements_at(&path(&[1])).unwrap();
        assert_eq!(stmts.len(), 1);
        // Promotion shields Alice from later root changes... (the root
        // cannot change this key anymore without deleting, but dependents
        // keep working):
        assert!(s.entails(&path(&[2, 1]), &crow, Sign::Pos).unwrap());
    }

    #[test]
    fn conflicting_insert_rejected() {
        let mut s = store();
        let crow = t(&s, "s1", "crow");
        let raven = t(&s, "s1", "raven");
        s.insert(&path(&[1]), &crow, Sign::Pos).unwrap();
        // second positive with the same key
        assert_eq!(
            s.insert(&path(&[1]), &raven, Sign::Pos).unwrap(),
            InsertOutcome::Rejected
        );
        // negative of the explicitly positive tuple
        assert_eq!(
            s.insert(&path(&[1]), &crow, Sign::Neg).unwrap(),
            InsertOutcome::Rejected
        );
        // the rejected raven must not have leaked into any world
        assert!(!s.entails(&path(&[1]), &raven, Sign::Pos).unwrap());
        assert!(!s.entails(&path(&[2, 1]), &raven, Sign::Pos).unwrap());
    }

    #[test]
    fn override_implicit_with_conflicting_belief() {
        let mut s = store();
        let crow = t(&s, "s1", "crow");
        let raven = t(&s, "s1", "raven");
        s.insert(&BeliefPath::root(), &crow, Sign::Pos).unwrap();
        // Bob disagrees with an alternative: implicit crow is evicted.
        assert_eq!(
            s.insert(&path(&[2]), &raven, Sign::Pos).unwrap(),
            InsertOutcome::Inserted
        );
        assert!(s.entails(&path(&[2]), &raven, Sign::Pos).unwrap());
        assert!(!s.entails(&path(&[2]), &crow, Sign::Pos).unwrap());
        assert!(
            s.entails(&path(&[2]), &crow, Sign::Neg).unwrap(),
            "unstated negative"
        );
        // Alice still believes the crow; Bob believes Alice believes it.
        assert!(s.entails(&path(&[1]), &crow, Sign::Pos).unwrap());
        assert!(s.entails(&path(&[2, 1]), &crow, Sign::Pos).unwrap());
    }

    #[test]
    fn negative_insert_blocks_default() {
        let mut s = store();
        let eagle = t(&s, "s1", "eagle");
        s.insert(&BeliefPath::root(), &eagle, Sign::Pos).unwrap();
        assert_eq!(
            s.insert(&path(&[2]), &eagle, Sign::Neg).unwrap(),
            InsertOutcome::Inserted
        );
        assert!(s.entails(&path(&[2]), &eagle, Sign::Neg).unwrap());
        assert!(!s.entails(&path(&[2]), &eagle, Sign::Pos).unwrap());
        // Alice believes Bob disbelieves it.
        assert!(s.entails(&path(&[1, 2]), &eagle, Sign::Neg).unwrap());
    }

    #[test]
    fn delete_reverts_to_default() {
        let mut s = store();
        let eagle = t(&s, "s1", "eagle");
        s.insert(&BeliefPath::root(), &eagle, Sign::Pos).unwrap();
        s.insert(&path(&[2]), &eagle, Sign::Neg).unwrap();
        assert!(!s.entails(&path(&[2]), &eagle, Sign::Pos).unwrap());
        // Bob retracts his disagreement: the default belief returns.
        assert!(s.delete(&path(&[2]), &eagle, Sign::Neg).unwrap());
        assert!(s.entails(&path(&[2]), &eagle, Sign::Pos).unwrap());
        // Deleting again is a no-op.
        assert!(!s.delete(&path(&[2]), &eagle, Sign::Neg).unwrap());
    }

    #[test]
    fn delete_root_fact_clears_all_worlds() {
        let mut s = store();
        let eagle = t(&s, "s1", "eagle");
        s.insert(&BeliefPath::root(), &eagle, Sign::Pos).unwrap();
        s.ensure_world(&path(&[1, 2])).unwrap();
        assert!(s.entails(&path(&[1, 2]), &eagle, Sign::Pos).unwrap());
        assert!(s.delete(&BeliefPath::root(), &eagle, Sign::Pos).unwrap());
        assert!(!s.entails(&BeliefPath::root(), &eagle, Sign::Pos).unwrap());
        assert!(!s.entails(&path(&[1]), &eagle, Sign::Pos).unwrap());
        assert!(!s.entails(&path(&[1, 2]), &eagle, Sign::Pos).unwrap());
    }

    #[test]
    fn delete_does_not_remove_other_users_statements() {
        let mut s = store();
        let eagle = t(&s, "s1", "eagle");
        s.insert(&BeliefPath::root(), &eagle, Sign::Pos).unwrap();
        s.insert(&path(&[1]), &eagle, Sign::Pos).unwrap(); // promote... no: already implicit → MadeExplicit
        assert!(s.delete(&BeliefPath::root(), &eagle, Sign::Pos).unwrap());
        // Alice made it explicit, so she keeps it; Bob loses the default.
        assert!(s.entails(&path(&[1]), &eagle, Sign::Pos).unwrap());
        assert!(!s.entails(&path(&[2]), &eagle, Sign::Pos).unwrap());
        // And Bob believes Alice believes it (chain through Alice).
        assert!(s.entails(&path(&[2, 1]), &eagle, Sign::Pos).unwrap());
    }

    #[test]
    fn insert_validates_inputs() {
        let mut s = store();
        let bad_user = t(&s, "s1", "crow");
        assert!(matches!(
            s.insert(&path(&[9]), &bad_user, Sign::Pos),
            Err(BeliefError::NoSuchUser(_))
        ));
        let bad_arity = GroundTuple::new(s.schema().relation_id("S").unwrap(), row!["k"]);
        assert!(matches!(
            s.insert(&BeliefPath::root(), &bad_arity, Sign::Pos),
            Err(BeliefError::ArityMismatch { .. })
        ));
    }

    #[test]
    fn rejected_insert_still_creates_world_and_star_row() {
        // Faithful to Alg. 4: idWorld and the R* row precede the gate.
        let mut s = store();
        let crow = t(&s, "s1", "crow");
        let raven = t(&s, "s1", "raven");
        s.insert(&path(&[1]), &crow, Sign::Pos).unwrap();
        let before_worlds = s.directory().len();
        // 2·1 inherits crow implicitly; raven overrides it (conflicts are
        // only checked against explicit tuples). Creating 2·1 also creates
        // its prefix [2].
        assert_eq!(
            s.insert(&path(&[2, 1]), &raven, Sign::Pos).unwrap(),
            InsertOutcome::Inserted
        );
        assert_eq!(s.directory().len(), before_worlds + 2);
        // Now force an actual rejection at 2·1 and confirm no world change.
        let owl = t(&s, "s1", "owl");
        assert_eq!(
            s.insert(&path(&[2, 1]), &owl, Sign::Pos).unwrap(),
            InsertOutcome::Rejected
        );
        // owl's R* row exists even though rejected.
        assert!(s.tid_of(&owl).unwrap().is_some());
    }

    #[test]
    fn explicit_statements_listing() {
        let mut s = store();
        let crow = t(&s, "s1", "crow");
        let owl = t(&s, "s2", "owl");
        s.insert(&path(&[1]), &crow, Sign::Pos).unwrap();
        s.insert(&path(&[1]), &owl, Sign::Neg).unwrap();
        let stmts = s.explicit_statements_at(&path(&[1])).unwrap();
        assert_eq!(stmts.len(), 2);
        assert!(s.explicit_statements_at(&path(&[2, 1])).unwrap().is_empty());
        assert!(s.explicit_statements_at(&path(&[1, 2])).unwrap().is_empty());
    }
}
