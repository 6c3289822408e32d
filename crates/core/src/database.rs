//! The belief database `D`: a set of belief statements (Def. 8), organized
//! as explicit belief worlds `D_w`, plus the user registry `U`.

use crate::error::{BeliefError, Result};
use crate::ids::UserId;
use crate::path::BeliefPath;
use crate::schema::ExternalSchema;
use crate::statement::{BeliefStatement, GroundTuple};
use crate::world::BeliefWorld;
use std::collections::BTreeMap;
use std::sync::Arc;

/// An in-memory belief database: the logical object of Sections 3–4,
/// independent of the relational encoding (which lives in
/// [`crate::internal`]).
#[derive(Debug, Clone)]
pub struct BeliefDatabase {
    schema: Arc<ExternalSchema>,
    users: Vec<(UserId, String)>,
    worlds: BTreeMap<BeliefPath, BeliefWorld>,
}

impl BeliefDatabase {
    pub fn new(schema: ExternalSchema) -> Self {
        BeliefDatabase {
            schema: Arc::new(schema),
            users: Vec::new(),
            worlds: BTreeMap::new(),
        }
    }

    pub fn schema(&self) -> &ExternalSchema {
        &self.schema
    }

    pub fn schema_arc(&self) -> Arc<ExternalSchema> {
        Arc::clone(&self.schema)
    }

    /// Register a user. Ids are assigned 1, 2, 3, ... (the paper's
    /// `U = {1, ..., m}`).
    pub fn add_user(&mut self, name: impl Into<String>) -> Result<UserId> {
        let name = name.into();
        if self.users.iter().any(|(_, n)| *n == name) {
            return Err(BeliefError::DuplicateUser(name));
        }
        let id = UserId(self.users.len() as u32 + 1);
        self.users.push((id, name));
        Ok(id)
    }

    pub fn users(&self) -> impl Iterator<Item = UserId> + '_ {
        self.users.iter().map(|(id, _)| *id)
    }

    pub fn user_count(&self) -> usize {
        self.users.len()
    }

    pub fn user_name(&self, id: UserId) -> Result<&str> {
        self.users
            .iter()
            .find(|(i, _)| *i == id)
            .map(|(_, n)| n.as_str())
            .ok_or_else(|| BeliefError::NoSuchUser(format!("#{id}")))
    }

    pub fn user_by_name(&self, name: &str) -> Result<UserId> {
        self.users
            .iter()
            .find(|(_, n)| n == name)
            .map(|(i, _)| *i)
            .ok_or_else(|| BeliefError::NoSuchUser(name.to_string()))
    }

    pub fn has_user(&self, id: UserId) -> bool {
        self.users.iter().any(|(i, _)| *i == id)
    }

    fn check_statement(&self, stmt: &BeliefStatement) -> Result<()> {
        self.schema.check_tuple(stmt.tuple.rel, &stmt.tuple.row)?;
        for u in stmt.path.users() {
            if !self.has_user(*u) {
                return Err(BeliefError::NoSuchUser(format!("#{u}")));
            }
        }
        Ok(())
    }

    /// Insert a belief statement, rejecting it if it would make the explicit
    /// world at its path inconsistent (Γ1/Γ2 of Prop. 5) — the behaviour of
    /// Algorithm 4's consistency gate. Returns `false` if the statement was
    /// already present.
    pub fn insert(&mut self, stmt: BeliefStatement) -> Result<bool> {
        self.check_statement(&stmt)?;
        let world = self.worlds.entry(stmt.path.clone()).or_default();
        if world.contains(&stmt.tuple, stmt.sign) {
            return Ok(false);
        }
        if !world.can_accept(&stmt.tuple, stmt.sign) {
            return Err(BeliefError::Inconsistent(format!(
                "statement {stmt} conflicts with explicit beliefs at {}",
                stmt.path
            )));
        }
        world.add(stmt.tuple, stmt.sign);
        Ok(true)
    }

    /// Insert without the consistency gate (Def. 8 allows arbitrary sets;
    /// used to test consistency detection).
    pub fn insert_unchecked(&mut self, stmt: BeliefStatement) -> Result<bool> {
        self.check_statement(&stmt)?;
        let world = self.worlds.entry(stmt.path.clone()).or_default();
        Ok(world.add(stmt.tuple, stmt.sign))
    }

    /// Remove an explicit statement. Returns `true` iff it was present.
    pub fn remove(&mut self, stmt: &BeliefStatement) -> bool {
        if let Some(world) = self.worlds.get_mut(&stmt.path) {
            let removed = world.remove(&stmt.tuple, stmt.sign);
            if world.is_empty() {
                self.worlds.remove(&stmt.path);
            }
            removed
        } else {
            false
        }
    }

    /// The explicit belief world `D_w` (Def. 8(3)). Empty if no statement
    /// mentions `w`.
    pub fn explicit_world(&self, path: &BeliefPath) -> BeliefWorld {
        self.worlds.get(path).cloned().unwrap_or_default()
    }

    /// Borrow the explicit world at `w`, if non-empty.
    pub fn explicit_world_ref(&self, path: &BeliefPath) -> Option<&BeliefWorld> {
        self.worlds.get(path)
    }

    /// `Supp(D)`: belief paths with a non-empty explicit world.
    pub fn support(&self) -> impl Iterator<Item = &BeliefPath> {
        self.worlds.keys()
    }

    /// `States(D)`: all prefixes of support paths (prefix-closed, includes
    /// `ε`), in deterministic order.
    pub fn states(&self) -> Vec<BeliefPath> {
        let mut states = std::collections::BTreeSet::new();
        states.insert(BeliefPath::root());
        for w in self.worlds.keys() {
            for p in w.prefixes() {
                states.insert(p);
            }
        }
        states.into_iter().collect()
    }

    /// `dss(w)`: the deepest suffix of `w` that is a state of `D`.
    ///
    /// A suffix `s` is a state iff it is `ε` or a prefix of a support path;
    /// the paths that have `s` as a prefix sort contiguously from `s`, so
    /// one `range(s..)` probe of the support map answers it.
    pub fn dss(&self, path: &BeliefPath) -> BeliefPath {
        path.suffixes()
            .find(|s| {
                s.is_root()
                    || self
                        .worlds
                        .range(s..)
                        .next()
                        .is_some_and(|(w, _)| s.is_prefix_of(w))
            })
            .unwrap_or_else(BeliefPath::root)
    }

    /// All explicit statements, in deterministic order.
    pub fn statements(&self) -> Vec<BeliefStatement> {
        let mut out = Vec::with_capacity(self.len());
        for (path, world) in &self.worlds {
            for (tuple, sign) in world.signed_tuples() {
                out.push(BeliefStatement::new(path.clone(), tuple, sign));
            }
        }
        out
    }

    /// Number of explicit statements `n = |D|`.
    pub fn len(&self) -> usize {
        self.worlds.values().map(|w| w.len()).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.worlds.is_empty()
    }

    /// Maximum nesting depth `d` over all statements.
    pub fn max_depth(&self) -> usize {
        self.worlds.keys().map(|p| p.depth()).max().unwrap_or(0)
    }

    /// Is every explicit world consistent (Def. 8(4))?
    pub fn is_consistent(&self) -> bool {
        self.worlds.values().all(|w| w.is_consistent())
    }

    /// Does `D` contain this exact statement?
    pub fn contains(&self, stmt: &BeliefStatement) -> bool {
        self.worlds
            .get(&stmt.path)
            .is_some_and(|w| w.contains(&stmt.tuple, stmt.sign))
    }

    /// Collect the tuple universe actually mentioned in `D` (used by the
    /// naive query evaluator to enumerate candidate tuples).
    pub fn mentioned_tuples(&self) -> Vec<GroundTuple> {
        let mut set = std::collections::BTreeSet::new();
        for world in self.worlds.values() {
            for (t, _) in world.signed_tuples() {
                set.insert(t);
            }
        }
        set.into_iter().collect()
    }
}

/// Build the running example of the paper (Sect. 2 / Fig. 2): users Alice,
/// Bob, Carol; statements i1–i8 over the NatureMapping schema.
///
/// Returns the database plus the user ids `(alice, bob, carol)`.
pub fn running_example() -> (BeliefDatabase, UserId, UserId, UserId) {
    use crate::schema::naturemapping_schema;
    use beliefdb_storage::row;

    let mut db = BeliefDatabase::new(naturemapping_schema());
    let alice = db.add_user("Alice").unwrap();
    let bob = db.add_user("Bob").unwrap();
    let carol = db.add_user("Carol").unwrap();

    let sightings = db.schema().relation_id("Sightings").unwrap();
    let comments = db.schema().relation_id("Comments").unwrap();

    let s11 = GroundTuple::new(
        sightings,
        row!["s1", "Carol", "bald eagle", "6-14-08", "Lake Forest"],
    );
    let s12 = GroundTuple::new(
        sightings,
        row!["s1", "Carol", "fish eagle", "6-14-08", "Lake Forest"],
    );
    let s21 = GroundTuple::new(
        sightings,
        row!["s2", "Alice", "crow", "6-14-08", "Lake Placid"],
    );
    let s22 = GroundTuple::new(
        sightings,
        row!["s2", "Alice", "raven", "6-14-08", "Lake Placid"],
    );
    let c11 = GroundTuple::new(comments, row!["c1", "found feathers", "s2"]);
    let c21 = GroundTuple::new(comments, row!["c2", "black feathers", "s2"]);
    let c22 = GroundTuple::new(comments, row!["c2", "purple-black feathers", "s2"]);

    let root = BeliefPath::root();
    let p_alice = BeliefPath::user(alice);
    let p_bob = BeliefPath::user(bob);
    let p_bob_alice = BeliefPath::new(vec![bob, alice]).unwrap();

    // i1: Carol inserts the bald-eagle sighting (root world).
    db.insert(BeliefStatement::positive(root, s11.clone()))
        .unwrap();
    // i2, i3: Bob disbelieves both eagle alternatives.
    db.insert(BeliefStatement::negative(p_bob.clone(), s11))
        .unwrap();
    db.insert(BeliefStatement::negative(p_bob.clone(), s12))
        .unwrap();
    // i4, i5: Alice believes the crow sighting and her comment.
    db.insert(BeliefStatement::positive(p_alice.clone(), s21))
        .unwrap();
    db.insert(BeliefStatement::positive(p_alice, c11)).unwrap();
    // i6: Bob believes Alice saw a raven.
    db.insert(BeliefStatement::positive(p_bob.clone(), s22))
        .unwrap();
    // i7: Bob believes Alice believes the feathers were black.
    db.insert(BeliefStatement::positive(p_bob_alice, c21))
        .unwrap();
    // i8: Bob believes the feathers were purple-black.
    db.insert(BeliefStatement::positive(p_bob, c22)).unwrap();

    (db, alice, bob, carol)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::RelId;
    use crate::path::path;
    use beliefdb_storage::row;

    fn small_db() -> BeliefDatabase {
        let mut schema = ExternalSchema::new();
        schema.add_relation("S", &["sid", "species"]).unwrap();
        let mut db = BeliefDatabase::new(schema);
        db.add_user("Alice").unwrap();
        db.add_user("Bob").unwrap();
        db
    }

    fn t(key: &str, species: &str) -> GroundTuple {
        GroundTuple::new(RelId(0), row![key, species])
    }

    #[test]
    fn user_registry() {
        let mut db = small_db();
        assert_eq!(db.user_count(), 2);
        assert_eq!(db.user_by_name("Alice").unwrap(), UserId(1));
        assert_eq!(db.user_name(UserId(2)).unwrap(), "Bob");
        assert!(db.user_by_name("Dora").is_err());
        assert!(db.user_name(UserId(9)).is_err());
        assert!(matches!(
            db.add_user("Alice"),
            Err(BeliefError::DuplicateUser(_))
        ));
        let dora = db.add_user("Dora").unwrap();
        assert_eq!(dora, UserId(3));
    }

    #[test]
    fn insert_validates_statement() {
        let mut db = small_db();
        // unknown user in path
        let bad = BeliefStatement::positive(path(&[9]), t("s1", "crow"));
        assert!(matches!(db.insert(bad), Err(BeliefError::NoSuchUser(_))));
        // wrong arity
        let bad = BeliefStatement::positive(
            BeliefPath::root(),
            GroundTuple::new(RelId(0), row!["s1", "x", "extra"]),
        );
        assert!(matches!(
            db.insert(bad),
            Err(BeliefError::ArityMismatch { .. })
        ));
        // unknown relation
        let bad =
            BeliefStatement::positive(BeliefPath::root(), GroundTuple::new(RelId(7), row!["k"]));
        assert!(db.insert(bad).is_err());
    }

    #[test]
    fn insert_gates_consistency() {
        let mut db = small_db();
        db.insert(BeliefStatement::positive(path(&[1]), t("s1", "crow")))
            .unwrap();
        // conflicting positive on the same key: rejected
        let err = db
            .insert(BeliefStatement::positive(path(&[1]), t("s1", "raven")))
            .unwrap_err();
        assert!(matches!(err, BeliefError::Inconsistent(_)));
        // same tuple negative: rejected (Γ2)
        assert!(db
            .insert(BeliefStatement::negative(path(&[1]), t("s1", "crow")))
            .is_err());
        // different-key positive: fine; duplicate returns false
        assert!(db
            .insert(BeliefStatement::positive(path(&[1]), t("s2", "owl")))
            .unwrap());
        assert!(!db
            .insert(BeliefStatement::positive(path(&[1]), t("s2", "owl")))
            .unwrap());
        assert!(db.is_consistent());
    }

    #[test]
    fn unchecked_insert_can_create_inconsistency() {
        let mut db = small_db();
        db.insert_unchecked(BeliefStatement::positive(path(&[1]), t("s1", "crow")))
            .unwrap();
        db.insert_unchecked(BeliefStatement::positive(path(&[1]), t("s1", "raven")))
            .unwrap();
        assert!(!db.is_consistent());
    }

    #[test]
    fn remove_statements() {
        let mut db = small_db();
        let stmt = BeliefStatement::positive(path(&[1]), t("s1", "crow"));
        db.insert(stmt.clone()).unwrap();
        assert!(db.contains(&stmt));
        assert!(db.remove(&stmt));
        assert!(!db.remove(&stmt));
        assert!(!db.contains(&stmt));
        assert!(db.is_empty());
        // removing from a never-touched path
        assert!(!db.remove(&BeliefStatement::positive(path(&[2]), t("s9", "x"))));
    }

    #[test]
    fn support_and_states_are_prefix_closed() {
        let mut db = small_db();
        db.add_user("Carol").unwrap();
        db.insert(BeliefStatement::positive(path(&[2, 1, 3]), t("s1", "crow")))
            .unwrap();
        db.insert(BeliefStatement::positive(path(&[3]), t("s2", "owl")))
            .unwrap();
        let support: Vec<_> = db.support().cloned().collect();
        assert_eq!(support, vec![path(&[2, 1, 3]), path(&[3])]);
        let states = db.states();
        assert_eq!(
            states,
            vec![
                path(&[]),
                path(&[2]),
                path(&[2, 1]),
                path(&[2, 1, 3]),
                path(&[3])
            ]
        );
    }

    #[test]
    fn dss_finds_deepest_suffix_state() {
        let mut db = small_db();
        db.add_user("Carol").unwrap();
        db.insert(BeliefStatement::positive(path(&[2, 1]), t("s1", "crow")))
            .unwrap();
        // states: ε, 2, 2·1
        assert_eq!(db.dss(&path(&[2, 1])), path(&[2, 1]));
        assert_eq!(db.dss(&path(&[3, 2, 1])), path(&[2, 1]));
        assert_eq!(db.dss(&path(&[1])), path(&[]));
        assert_eq!(db.dss(&path(&[1, 2])), path(&[2]));
        assert_eq!(db.dss(&path(&[])), path(&[]));
    }

    #[test]
    fn statement_listing_and_counts() {
        let mut db = small_db();
        db.insert(BeliefStatement::positive(
            BeliefPath::root(),
            t("s1", "crow"),
        ))
        .unwrap();
        db.insert(BeliefStatement::negative(path(&[2]), t("s1", "crow")))
            .unwrap();
        assert_eq!(db.len(), 2);
        assert_eq!(db.max_depth(), 1);
        let stmts = db.statements();
        assert_eq!(stmts.len(), 2);
        assert!(db.contains(&stmts[0]));
        assert!(db.contains(&stmts[1]));
        assert_eq!(db.mentioned_tuples(), vec![t("s1", "crow")]);
    }

    #[test]
    fn running_example_matches_fig2() {
        let (db, alice, bob, _carol) = running_example();
        assert!(db.is_consistent());
        assert_eq!(db.len(), 8);
        assert_eq!(db.max_depth(), 2);

        // Explicit worlds of Sect. 3.2:
        // D_Bob = ({s22, c22}, {s11, s12})
        let bob_world = db.explicit_world(&BeliefPath::user(bob));
        assert_eq!(bob_world.pos_len(), 2);
        assert_eq!(bob_world.neg_len(), 2);
        // D_Bob·Alice = ({c21}, ∅)
        let ba = db.explicit_world(&BeliefPath::new(vec![bob, alice]).unwrap());
        assert_eq!(ba.pos_len(), 1);
        assert_eq!(ba.neg_len(), 0);
        // states: ε, Alice(1), Bob(2), Bob·Alice(2·1)
        let states = db.states();
        assert_eq!(states.len(), 4);
    }
}
