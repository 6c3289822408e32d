//! Statement-level updates: `insertTuple` (Algorithm 4) and deletes.

use super::slices::{slice_entry, SliceEntry};
use super::{explicit_value, InsertOutcome, InternalStore};
use crate::error::{BeliefError, Result};
use crate::path::BeliefPath;
use crate::statement::{BeliefStatement, GroundTuple, Sign};
use beliefdb_storage::{Row, Value};

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

    /// `insertTuple` (Algorithm 4): insert the signed tuple into world
    /// `path` if consistent with the world's *explicit* beliefs, then
    /// propagate through the dependent worlds.
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
        let key = tuple.key().clone();

        // T1: the world's tuples with this key (Alg. 4 line 2).
        let slice = self.read_slice(tuple.rel, wid, &key)?;
        let mine = slice.iter().find(|e| e.tid == tid && e.sign == sign);
        match mine {
            // line 3: already explicitly present.
            Some(SliceEntry { explicit: true, .. }) => return Ok(InsertOutcome::AlreadyExplicit),
            // line 4: implicitly present — promote to explicit. Content of
            // this world and all dependents is unchanged.
            Some(SliceEntry {
                explicit: false, ..
            }) => {
                self.set_explicit_flag(tuple.rel, wid, tid, &key, sign, true)?;
                return Ok(InsertOutcome::MadeExplicit);
            }
            None => {}
        }

        // line 5: consistency against *explicit* tuples only (implicit ones
        // are overridden by the new statement).
        let conflict = match sign {
            Sign::Pos => slice.iter().any(|e| {
                e.explicit && ((e.sign == Sign::Neg && e.tid == tid) || e.sign == Sign::Pos)
            }),
            Sign::Neg => slice
                .iter()
                .any(|e| e.explicit && e.sign == Sign::Pos && e.tid == tid),
        };
        if conflict {
            return Ok(InsertOutcome::Rejected);
        }

        // lines 6–7: record the explicit tuple; the slice rebuild evicts any
        // implicit tuples it overrides.
        self.v_of_mut(tuple.rel)?.insert(Row::new(vec![
            wid.value(),
            tid.value(),
            key.clone(),
            sign.value(),
            explicit_value(true),
        ]))?;
        // lines 8–14: recompute this world's key slice and propagate to the
        // dependent worlds in ascending depth order.
        self.propagate_key(tuple.rel, path, &key)?;
        Ok(InsertOutcome::Inserted)
    }

    /// Insert a [`BeliefStatement`].
    pub fn insert_statement(&mut self, stmt: &BeliefStatement) -> Result<InsertOutcome> {
        self.insert(&stmt.path, &stmt.tuple, stmt.sign)
    }

    /// Delete an explicit statement ("deletes follow a similar semantics as
    /// inserts", Sect. 5.3): retract the explicit mark and recompute the key
    /// slice here and at all dependents — the tuple may be re-inherited
    /// from the suffix parent, or vanish entirely. Returns `true` iff the
    /// statement was explicitly present.
    pub fn delete(&mut self, path: &BeliefPath, tuple: &GroundTuple, sign: Sign) -> Result<bool> {
        self.check_statement(path, tuple)?;
        let Some(wid) = self.dir.get(path) else {
            return Ok(false);
        };
        let Some(&tid) = self.tid_cache.get(tuple) else {
            return Ok(false);
        };
        let key = tuple.key().clone();

        let slice = self.read_slice(tuple.rel, wid, &key)?;
        if !slice
            .iter()
            .any(|e| e.tid == tid && e.sign == sign && e.explicit)
        {
            return Ok(false);
        }
        self.v_of_mut(tuple.rel)?.delete_by_index_where(
            super::V_BY_WID_KEY,
            &[wid.value(), key.clone()],
            |r| r[1] == tid.value() && r[3] == sign.value() && r[4] == explicit_value(true),
        )?;
        self.propagate_key(tuple.rel, path, &key)?;
        Ok(true)
    }

    /// Delete a [`BeliefStatement`].
    pub fn delete_statement(&mut self, stmt: &BeliefStatement) -> Result<bool> {
        self.delete(&stmt.path, &stmt.tuple, stmt.sign)
    }

    /// Flip the explicitness flag of one `V` row in place.
    fn set_explicit_flag(
        &mut self,
        rel: crate::ids::RelId,
        wid: crate::ids::Wid,
        tid: crate::ids::Tid,
        key: &Value,
        sign: Sign,
        explicit: bool,
    ) -> Result<()> {
        let vt = self.v_of_mut(rel)?;
        vt.delete_by_index_where(super::V_BY_WID_KEY, &[wid.value(), key.clone()], |r| {
            r[1] == tid.value() && r[3] == sign.value()
        })?;
        vt.insert(Row::new(vec![
            wid.value(),
            tid.value(),
            key.clone(),
            sign.value(),
            explicit_value(explicit),
        ]))?;
        Ok(())
    }

    /// The explicit statements at a path (for introspection and tests).
    pub fn explicit_statements_at(&self, path: &BeliefPath) -> Result<Vec<BeliefStatement>> {
        let Some(wid) = self.dir.get(path) else {
            return Ok(Vec::new());
        };
        let mut out = Vec::new();
        for rel in self.rel_ids() {
            let vt = self.v_of(rel)?;
            for rid in vt.index_lookup(super::V_BY_WID, &[wid.value()])? {
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
        assert!(s.tid_cache.contains_key(&owl));
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
