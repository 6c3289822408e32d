//! The canonical Kripke structure `K(D)` (Def. 16, Thm. 17).
//!
//! Construction: the states are `States(D)` — all prefixes of belief paths
//! mentioned in `D` — and each state carries its *entailed* world `D̄_v`.
//! Edges labelled `i` go "forward" from `w` to `w·i` when that state exists,
//! otherwise "back" to the deepest suffix state `dss(w·i)`.
//!
//! Theorem 17 states `D |= ϕ ⇔ K(D) |= ϕ` and that `K(D)` is computable in
//! `O(m^d · n)`. Because every `(state, user)` pair has exactly one
//! successor, root-entailment reduces to a deterministic walk followed by a
//! single world lookup — the basis of the relational encoding (Sect. 5).

use crate::closure::Closure;
use crate::database::BeliefDatabase;
use crate::ids::UserId;
use crate::kripke::{Kripke, StateId};
use crate::path::BeliefPath;
use crate::statement::BeliefStatement;
use crate::world::BeliefWorld;
use beliefdb_storage::CellHash;
use std::collections::HashMap;

/// The canonical Kripke structure of a belief database.
#[derive(Debug, Clone)]
pub struct CanonicalKripke {
    /// State id → belief path; state 0 is always the root `ε`.
    paths: Vec<BeliefPath>,
    /// Belief path → state id.
    index: HashMap<BeliefPath, StateId, CellHash>,
    /// Entailed world `D̄_v` per state.
    worlds: Vec<BeliefWorld>,
    /// Deterministic successor per (state, user) — only for users that can
    /// extend the state's path (`i ≠ last(w)`).
    edges: Vec<HashMap<UserId, StateId>>,
    users: Vec<UserId>,
}

impl CanonicalKripke {
    /// Build `K(D)`.
    pub fn build(db: &BeliefDatabase) -> Self {
        let state_worlds = Closure::new(db).into_state_worlds();

        let mut paths = Vec::with_capacity(state_worlds.len());
        let mut worlds = Vec::with_capacity(state_worlds.len());
        let mut index = HashMap::with_capacity_and_hasher(state_worlds.len(), CellHash::default());
        for (path, world) in state_worlds {
            index.insert(path.clone(), paths.len());
            paths.push(path);
            worlds.push(world);
        }
        // BTree order in `states()` puts ε first.
        debug_assert!(paths[0].is_root());

        let users: Vec<UserId> = db.users().collect();
        let mut edges: Vec<HashMap<UserId, StateId>> = vec![HashMap::new(); paths.len()];
        for (sid, path) in paths.iter().enumerate() {
            for &u in &users {
                if !path.can_push(u) {
                    continue;
                }
                let target_path = path.push(u).expect("can_push checked");
                let target = dss_in(&index, &target_path);
                edges[sid].insert(u, target);
            }
        }
        CanonicalKripke {
            paths,
            index,
            worlds,
            edges,
            users,
        }
    }

    /// Number of states `N`.
    pub fn state_count(&self) -> usize {
        self.paths.len()
    }

    /// Number of edges (`Σ_i |E_i|`).
    pub fn edge_count(&self) -> usize {
        self.edges.iter().map(|m| m.len()).sum()
    }

    pub fn users(&self) -> &[UserId] {
        &self.users
    }

    /// The root state (always id 0).
    pub fn root(&self) -> StateId {
        0
    }

    pub fn path_of(&self, v: StateId) -> &BeliefPath {
        &self.paths[v]
    }

    pub fn world_of(&self, v: StateId) -> &BeliefWorld {
        &self.worlds[v]
    }

    /// State id of an exact path, if it is a state.
    pub fn state_of(&self, path: &BeliefPath) -> Option<StateId> {
        self.index.get(path).copied()
    }

    /// `dss(w)`: the state holding the deepest suffix of `w`.
    pub fn dss(&self, path: &BeliefPath) -> StateId {
        dss_in(&self.index, path)
    }

    /// The unique `i`-successor of `v`. Falls back to the dss computation
    /// for users unknown at build time (e.g. newly joined users — their
    /// edges all lead to the root by construction).
    pub fn successor(&self, v: StateId, user: UserId) -> StateId {
        if let Some(&s) = self.edges[v].get(&user) {
            return s;
        }
        match self.paths[v].push(user) {
            Ok(p) => self.dss(&p),
            // i = last(w): `w·i ∉ Û*`; no edge exists. Walks never ask for
            // this (see `resolve`), so answer with the state itself.
            Err(_) => v,
        }
    }

    /// Walk the edges from the root along `path`; the resulting state's
    /// world is `D̄_path`. (Each step is deterministic, so the ∀ of the
    /// Kripke semantics collapses to this single walk.)
    pub fn resolve(&self, path: &BeliefPath) -> StateId {
        let mut v = self.root();
        for &u in path.users() {
            v = self.successor(v, u);
        }
        v
    }

    /// `K(D) |= ϕ` (by Thm. 17, equivalent to `D |= ϕ`).
    pub fn entails(&self, stmt: &BeliefStatement) -> bool {
        let v = self.resolve(&stmt.path);
        self.worlds[v].entails(&stmt.tuple, stmt.sign)
    }

    /// Export to the generic structure (for differential testing against
    /// the recursive Kripke semantics).
    pub fn to_kripke(&self) -> Kripke {
        let mut k = Kripke::new();
        for w in &self.worlds {
            k.add_state(w.clone());
        }
        k.set_root(self.root());
        for (sid, succ) in self.edges.iter().enumerate() {
            for (&u, &t) in succ {
                k.add_edge(sid, u, t);
            }
        }
        k
    }

    /// Iterate `(state id, path, world)` deterministically.
    pub fn states(&self) -> impl Iterator<Item = (StateId, &BeliefPath, &BeliefWorld)> {
        self.paths
            .iter()
            .zip(self.worlds.iter())
            .enumerate()
            .map(|(i, (p, w))| (i, p, w))
    }
}

fn dss_in(index: &HashMap<BeliefPath, StateId, CellHash>, path: &BeliefPath) -> StateId {
    for suffix in path.suffixes() {
        if let Some(&sid) = index.get(&suffix) {
            return sid;
        }
    }
    // ε is always a state.
    unreachable!("the root state must exist")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::closure;
    use crate::database::running_example;
    use crate::ids::RelId;
    use crate::path::path;
    use crate::schema::ExternalSchema;
    use crate::statement::{GroundTuple, Sign};
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
    fn running_example_shape_matches_fig4() {
        let (db, ..) = running_example();
        let k = CanonicalKripke::build(&db);
        // Fig. 4: states #0..#3.
        assert_eq!(k.state_count(), 4);
        // Three users, each state has an edge per user except its own last:
        // root: 3 edges; depth-1 states (Alice, Bob): 2 each... wait — the
        // paper draws edges for all users ≠ last(w): Alice(1): users 2,3 →
        // 2 edges; Bob(2): 1,3 → 2; Bob·Alice(2·1): 2,3 → 2. Root: 3.
        assert_eq!(k.edge_count(), 3 + 2 + 2 + 2);

        // Edge targets of Fig. 4.
        let root = k.root();
        let alice = UserId(1);
        let bob = UserId(2);
        let carol = UserId(3);
        let v_alice = k.state_of(&path(&[1])).unwrap();
        let v_bob = k.state_of(&path(&[2])).unwrap();
        let v_ba = k.state_of(&path(&[2, 1])).unwrap();
        assert_eq!(k.successor(root, alice), v_alice);
        assert_eq!(k.successor(root, bob), v_bob);
        assert_eq!(
            k.successor(root, carol),
            root,
            "Carol has no world: self-loop"
        );
        assert_eq!(k.successor(v_alice, bob), v_bob, "dss(1·2) = 2");
        assert_eq!(k.successor(v_bob, alice), v_ba, "forward edge 2 → 2·1");
        assert_eq!(k.successor(v_ba, bob), v_bob, "dss(2·1·2) = 2");
        assert_eq!(k.successor(v_ba, carol), root, "dss(2·1·3) = ε");
    }

    #[test]
    fn worlds_match_fig4_contents() {
        let (db, ..) = running_example();
        let k = CanonicalKripke::build(&db);
        let v_bob = k.state_of(&path(&[2])).unwrap();
        assert_eq!(k.world_of(v_bob).pos_len(), 2);
        assert_eq!(k.world_of(v_bob).neg_len(), 2);
        let v_ba = k.state_of(&path(&[2, 1])).unwrap();
        assert_eq!(k.world_of(v_ba).pos_len(), 4); // s11, s21, c11, c21
    }

    #[test]
    fn theorem17_entailment_equivalence_on_running_example() {
        // D |= ϕ iff K(D) |= ϕ — exhaustively over paths up to depth 2 and
        // all mentioned tuples, both signs.
        let (db, ..) = running_example();
        let k = CanonicalKripke::build(&db);
        let mut cl = Closure::new(&db);
        let users: Vec<_> = db.users().collect();
        let tuples = db.mentioned_tuples();

        let mut paths = vec![BeliefPath::root()];
        for &u in &users {
            paths.push(BeliefPath::user(u));
            for &v in &users {
                if u != v {
                    paths.push(BeliefPath::new(vec![u, v]).unwrap());
                }
            }
        }
        let mut checked = 0;
        for p in &paths {
            for t in &tuples {
                for sign in [Sign::Pos, Sign::Neg] {
                    let stmt = BeliefStatement::new(p.clone(), t.clone(), sign);
                    assert_eq!(cl.entails(&stmt), k.entails(&stmt), "mismatch on {stmt}");
                    checked += 1;
                }
            }
        }
        assert!(checked > 100);
    }

    #[test]
    fn canonical_agrees_with_generic_kripke_semantics() {
        // The deterministic walk must agree with the recursive ∀-semantics
        // over the exported generic structure.
        let (db, ..) = running_example();
        let k = CanonicalKripke::build(&db);
        let generic = k.to_kripke();
        let users: Vec<_> = db.users().collect();
        let tuples = db.mentioned_tuples();
        for &u in &users {
            for &v in &users {
                if u == v {
                    continue;
                }
                for t in &tuples {
                    for sign in [Sign::Pos, Sign::Neg] {
                        let stmt = BeliefStatement::new(
                            BeliefPath::new(vec![u, v]).unwrap(),
                            t.clone(),
                            sign,
                        );
                        assert_eq!(k.entails(&stmt), generic.entails(&stmt), "on {stmt}");
                    }
                }
            }
        }
    }

    #[test]
    fn deep_paths_resolve_through_back_edges() {
        let (db, alice, bob, carol) = running_example();
        let k = CanonicalKripke::build(&db);
        // 3·2·1 resolves via ε →3 ε →2 Bob →1 Bob·Alice.
        let p = BeliefPath::new(vec![carol, bob, alice]).unwrap();
        assert_eq!(k.resolve(&p), k.state_of(&path(&[2, 1])).unwrap());
        // Its entailed world equals the closure's.
        let walked = k.world_of(k.resolve(&p)).clone();
        let direct = closure::entailed_world(&db, &p);
        assert_eq!(walked, direct);
        // 1·2·1·2... long alternation stays within states.
        let p = BeliefPath::new(vec![alice, bob, alice, bob, alice]).unwrap();
        let walked = k.world_of(k.resolve(&p)).clone();
        let direct = closure::entailed_world(&db, &p);
        assert_eq!(walked, direct);
    }

    #[test]
    fn empty_database_has_single_state() {
        let db = small_db(&["Alice", "Bob"]);
        let k = CanonicalKripke::build(&db);
        assert_eq!(k.state_count(), 1);
        // Both users loop on the root.
        assert_eq!(k.successor(k.root(), UserId(1)), k.root());
        assert_eq!(k.successor(k.root(), UserId(2)), k.root());
        assert!(k.world_of(k.root()).is_empty());
    }

    #[test]
    fn unknown_user_edges_fall_back_to_dss() {
        let mut db = small_db(&["Alice"]);
        db.insert(BeliefStatement::positive(
            BeliefPath::root(),
            t("s1", "crow"),
        ))
        .unwrap();
        let k = CanonicalKripke::build(&db);
        // UserId(7) was never registered; the walk still resolves (to ε).
        let stmt = BeliefStatement::positive(BeliefPath::user(UserId(7)), t("s1", "crow"));
        assert!(k.entails(&stmt));
    }

    #[test]
    fn states_iterator_is_deterministic() {
        let (db, ..) = running_example();
        let k = CanonicalKripke::build(&db);
        let listed: Vec<_> = k.states().map(|(i, p, _)| (i, p.clone())).collect();
        assert_eq!(listed.len(), 4);
        assert_eq!(listed[0].1, BeliefPath::root());
        // ids are dense and ordered
        assert_eq!(
            listed.iter().map(|(i, _)| *i).collect::<Vec<_>>(),
            vec![0, 1, 2, 3]
        );
    }

    #[test]
    fn growing_database_reuses_construction() {
        // Build twice with one more statement; state count grows.
        let mut db = small_db(&["Alice", "Bob"]);
        db.insert(BeliefStatement::positive(path(&[1]), t("s1", "crow")))
            .unwrap();
        let k1 = CanonicalKripke::build(&db);
        assert_eq!(k1.state_count(), 2);
        db.insert(BeliefStatement::positive(path(&[2, 1]), t("s2", "owl")))
            .unwrap();
        let k2 = CanonicalKripke::build(&db);
        assert_eq!(k2.state_count(), 4); // ε, 1, 2, 2·1
                                         // Bob's world inherits Alice's crow via the default rule; check the
                                         // edge 2 →1 2·1 exists and carries it.
        let v_ba = k2.state_of(&path(&[2, 1])).unwrap();
        assert!(k2.world_of(v_ba).contains_pos(&t("s1", "crow")));
        assert!(k2.world_of(v_ba).contains_pos(&t("s2", "owl")));
    }
}
