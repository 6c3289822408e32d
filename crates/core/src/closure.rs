//! The theory `D̄` — the executable specification of the message-board
//! assumption (Defs. 9–12, Lemma 11, App. C).
//!
//! `D̄` closes `D` under the default rule `ϕ : iϕ / iϕ`: every user believes
//! every statement in the database unless that contradicts an explicit
//! belief. `D̄` is infinite (statements exist at every path in `Û*`), but the
//! proof of Theorem 17 (step 2a, Fig. 9) shows the entailed world at `w`
//! depends only on the chain of suffix worlds `{D_w, D_w[2,d], ..., D_ε}`,
//! combined by the *overriding union*:
//!
//! ```text
//! D̄_ε = D_ε
//! D̄_w = D_w ⊕ D̄_w[2,d]      (⊕ = override_with: explicit beliefs win,
//!                             parent tuples inherited when consistent)
//! ```
//!
//! This module computes entailed worlds by that recursion (memoized) and
//! exposes the two entailment notions the paper uses:
//!
//! * [`Closure::theory_contains`] — statement membership `ϕ ∈ D̄` (Def. 12);
//! * [`Closure::entails`] — world-level entailment `D̄_w |= t^s` (Def. 6 /
//!   Prop. 7), which additionally includes *unstated* negatives. This is the
//!   notion queries and the canonical Kripke structure use (Sect. 3.3,
//!   Thm. 17).

use crate::database::BeliefDatabase;
use crate::path::BeliefPath;
use crate::statement::BeliefStatement;
use crate::world::BeliefWorld;
use beliefdb_storage::CellHash;
use std::collections::HashMap;

/// Memoizing evaluator for entailed worlds of one (frozen) belief database.
///
/// The cache is keyed by belief path; computing `D̄_w` costs `O(d)` override
/// steps the first time and is O(1) afterwards.
pub struct Closure<'a> {
    db: &'a BeliefDatabase,
    cache: HashMap<BeliefPath, BeliefWorld, CellHash>,
}

impl<'a> Closure<'a> {
    pub fn new(db: &'a BeliefDatabase) -> Self {
        Closure {
            db,
            cache: HashMap::default(),
        }
    }

    pub fn database(&self) -> &BeliefDatabase {
        self.db
    }

    /// The entailed belief world `D̄_w` at any path `w ∈ Û*` (not just at
    /// states — non-state paths simply inherit their whole content).
    pub fn entailed_world(&mut self, path: &BeliefPath) -> &BeliefWorld {
        if !self.cache.contains_key(path) {
            let db = self.db;
            let world = if path.is_root() {
                // The root world is purely explicit: no default rule feeds it.
                db.explicit_world(path)
            } else {
                // One copy of the explicit world, extended from a borrow of
                // the cached parent.
                let parent = self.entailed_world(&path.drop_first());
                let empty = BeliefWorld::new();
                db.explicit_world_ref(path)
                    .unwrap_or(&empty)
                    .override_with(parent)
            };
            self.cache.insert(path.clone(), world);
        }
        &self.cache[path]
    }

    /// World-level entailment `D |= ϕ` as used by queries and the canonical
    /// Kripke structure: `D̄_w |= t^s` per Def. 6 / Prop. 7 (positive =
    /// membership in `I+`; negative = stated or unstated).
    pub fn entails(&mut self, stmt: &BeliefStatement) -> bool {
        self.entailed_world(&stmt.path)
            .entails(&stmt.tuple, stmt.sign)
    }

    /// Statement membership `ϕ ∈ D̄` (Def. 12): the statement is explicitly
    /// asserted or follows by the default rule. Unlike [`Closure::entails`],
    /// a negative statement is only in the theory if some *stated* negative
    /// propagates to `w` — unstated negatives (key conflicts) are entailed
    /// by the world but are not statements of the theory.
    pub fn theory_contains(&mut self, stmt: &BeliefStatement) -> bool {
        self.entailed_world(&stmt.path)
            .contains(&stmt.tuple, stmt.sign)
    }

    /// Entailed worlds at every state of `D`, moved out of the cache (used
    /// to build the canonical Kripke structure, which keeps them).
    pub fn into_state_worlds(mut self) -> Vec<(BeliefPath, BeliefWorld)> {
        let states = self.db.states();
        for p in &states {
            self.entailed_world(p);
        }
        states
            .into_iter()
            .map(|p| {
                let w = self.cache.remove(&p).expect("computed above");
                (p, w)
            })
            .collect()
    }
}

/// Convenience: one-shot world-level entailment check.
pub fn entails(db: &BeliefDatabase, stmt: &BeliefStatement) -> bool {
    Closure::new(db).entails(stmt)
}

/// Convenience: one-shot entailed world.
pub fn entailed_world(db: &BeliefDatabase, path: &BeliefPath) -> BeliefWorld {
    Closure::new(db).entailed_world(path).clone()
}

/// Lemma 11: if `D` is consistent then `D̄` is consistent — checked up to
/// the given path depth (the closure is infinite; consistency at every state
/// plus one extra level is representative because deeper worlds repeat the
/// entailed content of their deepest suffix state).
pub fn closure_consistent_to_depth(db: &BeliefDatabase, depth: usize) -> bool {
    let users: Vec<_> = db.users().collect();
    let mut closure = Closure::new(db);
    let mut frontier = vec![BeliefPath::root()];
    for _ in 0..=depth {
        let mut next = Vec::new();
        for p in &frontier {
            if !closure.entailed_world(p).is_consistent() {
                return false;
            }
            for &u in &users {
                if let Ok(q) = p.push(u) {
                    next.push(q);
                }
            }
        }
        frontier = next;
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::database::running_example;
    use crate::ids::RelId;
    use crate::path::path;
    use crate::schema::ExternalSchema;
    use crate::statement::GroundTuple;
    use beliefdb_storage::row;

    fn t(key: &str, species: &str) -> GroundTuple {
        GroundTuple::new(RelId(0), row![key, species])
    }

    fn small_db(users: &[&str]) -> BeliefDatabase {
        let mut schema = ExternalSchema::new();
        schema.add_relation("S", &["sid", "species"]).unwrap();
        let mut db = BeliefDatabase::new(schema);
        for u in users {
            db.add_user(*u).unwrap();
        }
        db
    }

    #[test]
    fn root_world_is_explicit_only() {
        let mut db = small_db(&["Alice"]);
        db.insert(BeliefStatement::positive(path(&[1]), t("s1", "crow")))
            .unwrap();
        // Alice's belief does NOT flow down into the root world.
        let root = entailed_world(&db, &BeliefPath::root());
        assert!(root.is_empty());
    }

    #[test]
    fn default_rule_propagates_root_facts() {
        let mut db = small_db(&["Alice", "Bob"]);
        db.insert(BeliefStatement::positive(
            BeliefPath::root(),
            t("s1", "eagle"),
        ))
        .unwrap();
        // By the message-board assumption both users believe the fact...
        assert!(entails(
            &db,
            &BeliefStatement::positive(path(&[1]), t("s1", "eagle"))
        ));
        assert!(entails(
            &db,
            &BeliefStatement::positive(path(&[2]), t("s1", "eagle"))
        ));
        // ... at any nesting depth.
        assert!(entails(
            &db,
            &BeliefStatement::positive(path(&[1, 2]), t("s1", "eagle"))
        ));
        assert!(entails(
            &db,
            &BeliefStatement::positive(path(&[2, 1, 2]), t("s1", "eagle"))
        ));
    }

    #[test]
    fn explicit_disagreement_overrides_default() {
        let mut db = small_db(&["Alice", "Bob"]);
        db.insert(BeliefStatement::positive(
            BeliefPath::root(),
            t("s1", "eagle"),
        ))
        .unwrap();
        db.insert(BeliefStatement::negative(path(&[2]), t("s1", "eagle")))
            .unwrap();
        // Bob does not believe the sighting ...
        assert!(entails(
            &db,
            &BeliefStatement::negative(path(&[2]), t("s1", "eagle"))
        ));
        assert!(!entails(
            &db,
            &BeliefStatement::positive(path(&[2]), t("s1", "eagle"))
        ));
        // ... but Alice still does, and Bob believes that Alice believes it.
        assert!(entails(
            &db,
            &BeliefStatement::positive(path(&[1]), t("s1", "eagle"))
        ));
        assert!(entails(
            &db,
            &BeliefStatement::positive(path(&[2, 1]), t("s1", "eagle"))
        ));
        // And Alice believes Bob disbelieves it.
        assert!(entails(
            &db,
            &BeliefStatement::negative(path(&[1, 2]), t("s1", "eagle"))
        ));
    }

    #[test]
    fn key_conflict_blocks_inheritance() {
        let mut db = small_db(&["Alice", "Bob"]);
        db.insert(BeliefStatement::positive(
            BeliefPath::root(),
            t("s1", "crow"),
        ))
        .unwrap();
        db.insert(BeliefStatement::positive(path(&[2]), t("s1", "raven")))
            .unwrap();
        // Bob's own tuple wins; the root's crow is blocked (unstated negative).
        assert!(entails(
            &db,
            &BeliefStatement::positive(path(&[2]), t("s1", "raven"))
        ));
        assert!(entails(
            &db,
            &BeliefStatement::negative(path(&[2]), t("s1", "crow"))
        ));
        // But the theory contains no *stated* negative crow for Bob:
        let mut cl = Closure::new(&db);
        assert!(!cl.theory_contains(&BeliefStatement::negative(path(&[2]), t("s1", "crow"))));
        assert!(cl.entails(&BeliefStatement::negative(path(&[2]), t("s1", "crow"))));
    }

    #[test]
    fn inheritance_chain_drops_first_user() {
        // World 2·1 inherits from world 1, not from world 2.
        let mut db = small_db(&["Alice", "Bob"]);
        db.insert(BeliefStatement::positive(path(&[1]), t("s1", "crow")))
            .unwrap();
        db.insert(BeliefStatement::positive(path(&[2]), t("s2", "owl")))
            .unwrap();
        let w21 = entailed_world(&db, &path(&[2, 1]));
        assert!(
            w21.contains_pos(&t("s1", "crow")),
            "inherits Alice's belief"
        );
        assert!(
            !w21.contains_pos(&t("s2", "owl")),
            "does not inherit Bob's own belief"
        );
    }

    #[test]
    fn dora_joins_late_and_believes_everything() {
        // Sect. 3.2's Dora scenario: a user with no statements believes all
        // stated beliefs by default.
        let (db, alice, bob, _carol) = running_example();
        let mut db = db;
        let dora = db.add_user("Dora").unwrap();
        let sightings = db.schema().relation_id("Sightings").unwrap();
        let s11 = GroundTuple::new(
            sightings,
            row!["s1", "Carol", "bald eagle", "6-14-08", "Lake Forest"],
        );
        // Dora believes Carol's sighting (it is stated at the root).
        assert!(entails(
            &db,
            &BeliefStatement::positive(BeliefPath::user(dora), s11.clone())
        ));
        // Dora believes that Bob does not believe it.
        let dora_bob = BeliefPath::new(vec![dora, bob]).unwrap();
        assert!(entails(
            &db,
            &BeliefStatement::negative(dora_bob, s11.clone())
        ));
        // Dora believes that Alice believes it.
        let dora_alice = BeliefPath::new(vec![dora, alice]).unwrap();
        assert!(entails(&db, &BeliefStatement::positive(dora_alice, s11)));
    }

    #[test]
    fn running_example_entailments_from_sect_3_2() {
        let (db, alice, bob, _) = running_example();
        let sightings = db.schema().relation_id("Sightings").unwrap();
        let s11 = GroundTuple::new(
            sightings,
            row!["s1", "Carol", "bald eagle", "6-14-08", "Lake Forest"],
        );
        // D |= Alice s1+ (default) and D |= Bob s1− (explicit).
        assert!(entails(
            &db,
            &BeliefStatement::positive(BeliefPath::user(alice), s11.clone())
        ));
        assert!(entails(
            &db,
            &BeliefStatement::negative(BeliefPath::user(bob), s11.clone())
        ));
        // D |= Bob·Alice s1+: Bob believes Alice believes the sighting.
        let bob_alice = BeliefPath::new(vec![bob, alice]).unwrap();
        assert!(entails(&db, &BeliefStatement::positive(bob_alice, s11)));
    }

    #[test]
    fn bob_alice_world_of_fig4() {
        // State #3 of Fig. 4: {s21+, c11+, c21+} (Alice's world content with
        // Bob's explicit c21 claim about Alice).
        let (db, alice, bob, _) = running_example();
        let sightings = db.schema().relation_id("Sightings").unwrap();
        let comments = db.schema().relation_id("Comments").unwrap();
        let ba = BeliefPath::new(vec![bob, alice]).unwrap();
        let w = entailed_world(&db, &ba);
        let s21 = GroundTuple::new(
            sightings,
            row!["s2", "Alice", "crow", "6-14-08", "Lake Placid"],
        );
        let c11 = GroundTuple::new(comments, row!["c1", "found feathers", "s2"]);
        let c21 = GroundTuple::new(comments, row!["c2", "black feathers", "s2"]);
        let s11 = GroundTuple::new(
            sightings,
            row!["s1", "Carol", "bald eagle", "6-14-08", "Lake Forest"],
        );
        assert!(w.contains_pos(&s21));
        assert!(w.contains_pos(&c11));
        assert!(w.contains_pos(&c21));
        // s11 is inherited down the chain Bob·Alice ← Alice ← ε.
        assert!(w.contains_pos(&s11));
        assert_eq!(w.pos_len(), 4);
        assert_eq!(w.neg_len(), 0);
    }

    #[test]
    fn alice_world_of_fig4() {
        // State #1 of Fig. 4: {s11+, s21+, c11+}.
        let (db, alice, _, _) = running_example();
        let w = entailed_world(&db, &BeliefPath::user(alice));
        assert_eq!(w.pos_len(), 3);
        assert_eq!(w.neg_len(), 0);
    }

    #[test]
    fn bob_world_of_fig4() {
        // State #2 of Fig. 4: {s11−, s12−, s22+, c22+}; c21 is NOT Bob's own
        // belief (he attributes it to Alice), and s21/crow is blocked by his
        // raven claim.
        let (db, _, bob, _) = running_example();
        let sightings = db.schema().relation_id("Sightings").unwrap();
        let w = entailed_world(&db, &BeliefPath::user(bob));
        assert_eq!(w.pos_len(), 2);
        assert_eq!(w.neg_len(), 2);
        let s21 = GroundTuple::new(
            sightings,
            row!["s2", "Alice", "crow", "6-14-08", "Lake Placid"],
        );
        assert!(w.entails_neg(&s21), "crow is an unstated negative for Bob");
        assert!(!w.contains_neg(&s21), "but not a stated one");
    }

    #[test]
    fn lemma11_consistency_preserved() {
        let (db, ..) = running_example();
        assert!(db.is_consistent());
        assert!(closure_consistent_to_depth(&db, 3));
    }

    #[test]
    fn memoization_is_stable() {
        let (db, _, bob, _) = running_example();
        let mut cl = Closure::new(&db);
        let p = BeliefPath::user(bob);
        let a = cl.entailed_world(&p).clone();
        let b = cl.entailed_world(&p).clone();
        assert_eq!(a, b);
        // into_state_worlds covers every state
        let worlds = cl.into_state_worlds();
        assert_eq!(worlds.len(), 4);
    }
}

// ---------------------------------------------------------------------------
// The literal Def. 9 iteration — the most direct executable form of the
// message-board closure, used to validate the suffix-chain optimization
// (Fig. 9 / Thm. 17 step 2a) that `Closure` implements.
// ---------------------------------------------------------------------------

/// Compute `D^(depth)` exactly as Def. 9 writes it:
///
/// ```text
/// D^(0)   = D
/// D^(d+1) = D^(d) ∪ { iϕ | ϕ ∈ D^(d), i ∈ U, path(iϕ) ∈ Û*,
///                          D^(d) ∪ {iϕ} is consistent }
/// ```
///
/// The closure is infinite; truncating at `depth` yields every statement
/// with a path of length ≤ `depth` that the full closure contains (each
/// iteration only adds statements one level deeper than the deepest ones
/// that produced them, and a statement's membership is settled by level
/// `|path|` — cf. the proof of Thm. 17).
///
/// Exponential in `depth` — for tests only.
pub fn literal_def9_closure(
    db: &BeliefDatabase,
    depth: usize,
) -> std::collections::BTreeSet<BeliefStatement> {
    use std::collections::BTreeSet;
    let users: Vec<crate::ids::UserId> = db.users().collect();
    let mut current: BTreeSet<BeliefStatement> = db.statements().into_iter().collect();
    for _ in 0..depth {
        // Explicit worlds of D^(d), grouped by path, to check consistency of
        // D^(d) ∪ {iϕ}.
        let mut worlds: std::collections::BTreeMap<BeliefPath, BeliefWorld> = Default::default();
        for stmt in &current {
            worlds
                .entry(stmt.path.clone())
                .or_default()
                .add(stmt.tuple.clone(), stmt.sign);
        }
        let mut additions: Vec<BeliefStatement> = Vec::new();
        for stmt in &current {
            for &i in &users {
                let Ok(prefixed_path) = stmt.path.prepend(i) else {
                    continue;
                };
                let candidate =
                    BeliefStatement::new(prefixed_path.clone(), stmt.tuple.clone(), stmt.sign);
                if current.contains(&candidate) {
                    continue;
                }
                // D^(d) ∪ {iϕ} is consistent ⇔ the world at i·w accepts ϕ.
                let accepts = worlds
                    .get(&prefixed_path)
                    .is_none_or(|w| w.can_accept(&candidate.tuple, candidate.sign));
                if accepts {
                    additions.push(candidate);
                }
            }
        }
        let before = current.len();
        current.extend(additions);
        if current.len() == before {
            break; // fixpoint below the depth bound
        }
    }
    current
}

#[cfg(test)]
mod def9_tests {
    use super::*;
    use crate::database::running_example;
    use crate::statement::Sign;

    /// The literal Def. 9 iteration and the suffix-chain closure must agree
    /// on *statement membership* (`ϕ ∈ D̄`) for every path up to the
    /// truncation depth — this is exactly the content of Thm. 17 step (2a)
    /// and Fig. 9.
    #[test]
    fn literal_iteration_matches_suffix_chain_closure() {
        let (db, ..) = running_example();
        let depth = 3;
        let theory = literal_def9_closure(&db, depth);
        let mut cl = Closure::new(&db);

        // Every statement the iteration produced is in the theory per the
        // suffix-chain computation...
        for stmt in &theory {
            assert!(
                cl.theory_contains(stmt),
                "literal Def. 9 produced {stmt}, suffix chain disagrees"
            );
        }
        // ... and vice versa: enumerate all candidate statements over the
        // mentioned tuples and paths up to `depth`, and check both ways.
        let users: Vec<crate::ids::UserId> = db.users().collect();
        let mut paths = vec![BeliefPath::root()];
        let mut frontier = vec![BeliefPath::root()];
        for _ in 0..depth {
            let mut next = Vec::new();
            for p in &frontier {
                for &u in &users {
                    if let Ok(q) = p.push(u) {
                        next.push(q);
                    }
                }
            }
            paths.extend(next.iter().cloned());
            frontier = next;
        }
        let mut checked = 0;
        for p in &paths {
            for t in db.mentioned_tuples() {
                for sign in [Sign::Pos, Sign::Neg] {
                    let stmt = BeliefStatement::new(p.clone(), t.clone(), sign);
                    assert_eq!(
                        theory.contains(&stmt),
                        cl.theory_contains(&stmt),
                        "membership mismatch on {stmt}"
                    );
                    checked += 1;
                }
            }
        }
        assert!(
            checked >= 300,
            "exhaustive sweep should cover many statements, got {checked}"
        );
    }

    /// Lemma 11 via the literal iteration: every world of the truncated
    /// closure of a consistent database is consistent.
    #[test]
    fn literal_closure_is_consistent() {
        let (db, ..) = running_example();
        assert!(db.is_consistent());
        let theory = literal_def9_closure(&db, 3);
        let mut worlds: std::collections::BTreeMap<BeliefPath, BeliefWorld> = Default::default();
        for stmt in &theory {
            worlds
                .entry(stmt.path.clone())
                .or_default()
                .add(stmt.tuple.clone(), stmt.sign);
        }
        for (path, world) in worlds {
            assert!(
                world.is_consistent(),
                "inconsistent closure world at {path}"
            );
        }
    }

    /// The closure truncated at depth d is monotone in d, and statement
    /// counts grow (strictly, until fixpoint).
    #[test]
    fn literal_closure_is_monotone_in_depth() {
        let (db, ..) = running_example();
        let mut previous = literal_def9_closure(&db, 0);
        for depth in 1..=3 {
            let next = literal_def9_closure(&db, depth);
            assert!(
                next.is_superset(&previous),
                "D^({depth}) must contain D^({})",
                depth - 1
            );
            previous = next;
        }
    }
}
