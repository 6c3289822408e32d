//! World management: the world directory, `dss` (Algorithm 3) and
//! `idWorld` (Algorithm 2, with the tech-report errata applied).
//!
//! The directory is the store's only copy of the world structure: the
//! paper's `D`, `S` and `E` relations are functions of it (the depth of a
//! world's path, its suffix parent, and `E(w, u) = dss(w·u)`), so none of
//! them is stored.

use super::{DefaultPolicy, InternalStore};
use crate::error::Result;
use crate::ids::Wid;
use crate::path::BeliefPath;
use beliefdb_storage::CellHash;
use std::collections::HashMap;

/// Bidirectional mapping `wid ↔ belief path`, and the suffix tree of the
/// worlds.
///
/// It holds what the paper's `E`, `D` and `S` relations encode (a path is
/// the label sequence of forward edges from the root; `S` maps a world to
/// its suffix parent), which turns Algorithm 3's `E*`-join-plus-MAX query
/// into a suffix walk and Algorithm 4's dependent-world query into a
/// subtree walk.
#[derive(Debug, Clone, Default)]
pub struct WorldDirectory {
    paths: Vec<BeliefPath>,
    ids: HashMap<BeliefPath, Wid, CellHash>,
    /// `S`: the suffix parent of every world, the deepest state whose path
    /// is a proper suffix of its own. The root is its own.
    suffix_parents: Vec<Wid>,
    /// The worlds a world is the suffix parent of, ascending.
    children: Vec<Vec<Wid>>,
}

impl WorldDirectory {
    pub fn new() -> Self {
        WorldDirectory::default()
    }

    /// Register a new world; ids are dense starting at 0 (the root). The
    /// world takes its place in the suffix tree: below the deepest state
    /// its path ends in, and above those of that state's children whose
    /// paths end in the new one — they are [`WorldDirectory::children`] of
    /// the new world afterwards.
    pub(crate) fn insert(&mut self, path: BeliefPath) -> Wid {
        debug_assert!(!self.ids.contains_key(&path), "world already exists");
        let wid = Wid(self.paths.len() as u32);
        let mut adopted = Vec::new();
        let parent = if path.is_root() {
            wid
        } else {
            // A world the new one slides in under had the same suffix
            // parent until now: no state was in between.
            let parent = self.dss(&path.drop_first());
            let siblings = &mut self.children[parent.0 as usize];
            let paths = &self.paths;
            siblings.retain(|&z| {
                let below = path.is_proper_suffix_of(&paths[z.0 as usize]);
                if below {
                    adopted.push(z);
                }
                !below
            });
            siblings.push(wid);
            parent
        };
        for &z in &adopted {
            self.suffix_parents[z.0 as usize] = wid;
        }
        self.suffix_parents.push(parent);
        self.children.push(adopted);
        self.ids.insert(path.clone(), wid);
        self.paths.push(path);
        wid
    }

    pub fn get(&self, path: &BeliefPath) -> Option<Wid> {
        self.ids.get(path).copied()
    }

    pub fn path(&self, wid: Wid) -> &BeliefPath {
        &self.paths[wid.0 as usize]
    }

    pub fn len(&self) -> usize {
        self.paths.len()
    }

    pub fn is_empty(&self) -> bool {
        self.paths.is_empty()
    }

    /// Iterate `(wid, path)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (Wid, &BeliefPath)> {
        self.paths
            .iter()
            .enumerate()
            .map(|(i, p)| (Wid(i as u32), p))
    }

    /// `dss(w)`: the id of the deepest suffix state of `w` (Algorithm 3).
    /// The root always matches, so this never fails.
    pub fn dss(&self, path: &BeliefPath) -> Wid {
        for suffix in path.suffixes() {
            if let Some(&wid) = self.ids.get(&suffix) {
                return wid;
            }
        }
        unreachable!("root world always exists")
    }

    /// The suffix parent of a world (`S`); the root's is the root.
    pub fn suffix_parent(&self, wid: Wid) -> Wid {
        self.suffix_parents[wid.0 as usize]
    }

    /// The worlds whose suffix parent is `wid`, ascending.
    pub fn children(&self, wid: Wid) -> &[Wid] {
        &self.children[wid.0 as usize]
    }

    /// Dependent worlds of `w`: states having `w` as *proper* suffix, every
    /// one after its suffix parent. An insert at `w` must be re-examined at
    /// exactly these worlds (Alg. 4 line 8). They are the subtree below
    /// `w` in the suffix tree — for a `w` that is no state, the subtrees of
    /// those children of `dss(w)` whose paths end in `w`.
    pub fn dependents(&self, path: &BeliefPath) -> Vec<Wid> {
        let base = self.dss(path);
        let is_state = self.path(base).depth() == path.depth();
        let mut deps: Vec<Wid> = self
            .children(base)
            .iter()
            .copied()
            .filter(|&child| is_state || path.is_proper_suffix_of(self.path(child)))
            .collect();
        let mut walked = 0;
        while let Some(&world) = deps.get(walked) {
            deps.extend(self.children(world));
            walked += 1;
        }
        deps
    }
}

impl InternalStore {
    /// `idWorld` (Algorithm 2): return the id of world `w`, creating it —
    /// and every missing prefix — if needed.
    ///
    /// Creation performs the paper's steps that change what the store
    /// holds:
    /// 1. recursively ensure the parent `w[1,d−1]` exists,
    /// 2. register `x` in the directory, which places it in the suffix
    ///    tree: its suffix parent is `dss(w[2,d])` (errata version), and
    ///    it becomes the suffix parent of every world whose deepest
    ///    proper suffix state it now is,
    /// 3. copy all tuples of the suffix parent into `x` as implicit (under
    ///    [`DefaultPolicy::Eager`] only).
    ///
    /// The paper's other steps write `D(x, d)`, `x`'s outgoing `E` edges,
    /// the edges redirected to `x`, and the `S` rows; the directory
    /// answers all of them once `x` is registered.
    pub fn ensure_world(&mut self, path: &BeliefPath) -> Result<Wid> {
        if let Some(wid) = self.dir.get(path) {
            return Ok(wid);
        }
        debug_assert!(!path.is_root(), "the root world always exists");
        self.ensure_world(&path.prefix(path.depth() - 1))?;
        let x = self.dir.insert(path.clone());
        // Repointing the suffix parent of the worlds below x needs no
        // content rebuild: x starts with exactly the entailed content of
        // their old parent chain.
        if self.policy == DefaultPolicy::Eager {
            self.copy_world_as_implicit(self.dir.suffix_parent(x), x)?;
        }
        Ok(x)
    }

    /// Copy every `V` row of `from` into `to` with `e = 'n'` (Alg. 2
    /// line 9: a new world starts with the implicit content of its suffix
    /// parent). One group copy per relation: `tid`, `key` and `s` keep
    /// their stored form, and the index run of `from` is cloned for `to`.
    fn copy_world_as_implicit(&mut self, from: Wid, to: Wid) -> Result<()> {
        if from == to {
            return Ok(());
        }
        let implicit = [(0, to.cell()), (4, super::explicit_cell(false))];
        for names in &self.rel_tables {
            let vt = self.db.table_mut(&names.v)?;
            vt.copy_group(names.by_wid_key, &[from.cell()], &implicit)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::UserId;
    use crate::path::path;
    use crate::schema::ExternalSchema;

    fn store_with_users(n: u32) -> InternalStore {
        let schema = ExternalSchema::new().with_relation("S", &["sid", "species"]);
        let mut store = InternalStore::new(schema).unwrap();
        for i in 1..=n {
            store.add_user(format!("user{i}")).unwrap();
        }
        store
    }

    /// The target of `world`'s `user`-edge (Def. 16): `dss(w·u)`.
    fn edge_target(store: &InternalStore, world: Wid, user: UserId) -> Wid {
        let extended = store.dir.path(world).push(user).expect("u ≠ last(w)");
        store.dir.dss(&extended)
    }

    /// The row count of world relation `name` in the store's size report.
    fn size(store: &InternalStore, name: &str) -> usize {
        let sizes = store.table_sizes();
        sizes.iter().find(|(n, _)| n == name).expect("reported").1
    }

    #[test]
    fn directory_basics() {
        let mut dir = WorldDirectory::new();
        let root = dir.insert(BeliefPath::root());
        assert_eq!(root, Wid(0));
        let w1 = dir.insert(path(&[1]));
        assert_eq!(dir.get(&path(&[1])), Some(w1));
        assert_eq!(dir.get(&path(&[2])), None);
        assert_eq!(dir.path(w1), &path(&[1]));
        assert_eq!(dir.len(), 2);
        let wids: Vec<Wid> = dir.iter().map(|(wid, _)| wid).collect();
        assert_eq!(wids, vec![Wid(0), Wid(1)]);
    }

    #[test]
    fn directory_dss() {
        let mut dir = WorldDirectory::new();
        dir.insert(BeliefPath::root());
        let w2 = dir.insert(path(&[2]));
        let w21 = dir.insert(path(&[2, 1]));
        assert_eq!(dir.dss(&path(&[2, 1])), w21);
        assert_eq!(dir.dss(&path(&[3, 2, 1])), w21);
        assert_eq!(dir.dss(&path(&[1, 2])), w2);
        assert_eq!(dir.dss(&path(&[1])), Wid(0));
        assert_eq!(dir.dss(&BeliefPath::root()), Wid(0));
    }

    #[test]
    fn directory_dependents_follow_the_suffix_tree() {
        let mut dir = WorldDirectory::new();
        dir.insert(BeliefPath::root());
        let w1 = dir.insert(path(&[1]));
        let w21 = dir.insert(path(&[2, 1]));
        let w321 = dir.insert(path(&[3, 2, 1]));
        let w2 = dir.insert(path(&[2]));
        // dependents of ε: every other world, each after its suffix parent.
        assert_eq!(dir.dependents(&BeliefPath::root()), vec![w1, w2, w21, w321]);
        // dependents of [1]: 2·1 and 3·2·1, not [1] itself.
        assert_eq!(dir.dependents(&path(&[1])), vec![w21, w321]);
        // dependents of [2·1]: 3·2·1.
        assert_eq!(dir.dependents(&path(&[2, 1])), vec![w321]);
        assert!(dir.dependents(&path(&[3, 2, 1])).is_empty());
        // A path that is no state: what ends in it, below its `dss`.
        assert_eq!(dir.dependents(&path(&[3, 2])), vec![]);
        assert_eq!(dir.dependents(&path(&[3])), vec![]);
        let w13 = dir.insert(path(&[1, 3]));
        let w213 = dir.insert(path(&[2, 1, 3]));
        assert_eq!(dir.dependents(&path(&[3])), vec![w13, w213]);
    }

    #[test]
    fn a_new_world_slides_in_under_its_suffix_parent() {
        let mut dir = WorldDirectory::new();
        let root = dir.insert(BeliefPath::root());
        let w321 = dir.insert(path(&[3, 2, 1]));
        let w421 = dir.insert(path(&[4, 2, 1]));
        let w31 = dir.insert(path(&[3, 1]));
        assert_eq!(dir.suffix_parent(root), root);
        assert_eq!(dir.children(root), [w321, w421, w31]);
        // [1] takes all three from the root, [2·1] two of them from [1].
        let w1 = dir.insert(path(&[1]));
        assert_eq!(dir.children(root), [w1]);
        assert_eq!(dir.children(w1), [w321, w421, w31]);
        let w21 = dir.insert(path(&[2, 1]));
        assert_eq!(dir.children(w1), [w31, w21]);
        assert_eq!(dir.children(w21), [w321, w421]);
        assert_eq!(dir.suffix_parent(w321), w21);
        assert_eq!(dir.suffix_parent(w31), w1);
        assert_eq!(dir.suffix_parent(w21), w1);
        assert_eq!(
            dir.dependents(&BeliefPath::root()),
            vec![w1, w31, w21, w321, w421]
        );
    }

    #[test]
    fn ensure_world_creates_prefixes() {
        let mut store = store_with_users(3);
        let w = store.ensure_world(&path(&[2, 1])).unwrap();
        // Creates both [2] and [2,1]; directory: ε, 2, 2·1.
        assert_eq!(store.dir.len(), 3);
        assert_eq!(store.dir.path(w), &path(&[2, 1]));
        assert!(store.dir.get(&path(&[2])).is_some());
        // Idempotent.
        assert_eq!(store.ensure_world(&path(&[2, 1])).unwrap(), w);
        assert_eq!(store.dir.len(), 3);
    }

    #[test]
    fn edges_match_fig4_after_creation() {
        // Recreate the running example's world set: 1, 2, 2·1 over 3 users.
        let mut store = store_with_users(3);
        store.ensure_world(&path(&[1])).unwrap();
        store.ensure_world(&path(&[2])).unwrap();
        store.ensure_world(&path(&[2, 1])).unwrap();

        let root = Wid::ROOT;
        let w1 = store.dir.get(&path(&[1])).unwrap();
        let w2 = store.dir.get(&path(&[2])).unwrap();
        let w21 = store.dir.get(&path(&[2, 1])).unwrap();
        let (u1, u2, u3) = (UserId(1), UserId(2), UserId(3));

        assert_eq!(edge_target(&store, root, u1), w1);
        assert_eq!(edge_target(&store, root, u2), w2);
        assert_eq!(edge_target(&store, root, u3), root);
        assert_eq!(edge_target(&store, w1, u2), w2);
        assert_eq!(edge_target(&store, w1, u3), root);
        assert_eq!(edge_target(&store, w2, u1), w21);
        assert_eq!(edge_target(&store, w2, u3), root);
        assert_eq!(edge_target(&store, w21, u2), w2);
        assert_eq!(edge_target(&store, w21, u3), root);
        // Edge count matches Fig. 5's E table: 9 rows.
        assert_eq!(size(&store, "E"), 9);
    }

    #[test]
    fn late_world_creation_redirects_existing_edges() {
        // Create 2·1 BEFORE 1; then creating 1 must redirect both the
        // root's 1-edge and S(2·1).
        let mut store = store_with_users(2);
        let w21 = store.ensure_world(&path(&[2, 1])).unwrap();
        let root = Wid::ROOT;
        let (u1, _u2) = (UserId(1), UserId(2));
        // Before: dss(1) = ε.
        assert_eq!(edge_target(&store, root, u1), root);
        assert_eq!(store.dir.suffix_parent(w21), root);

        let w1 = store.ensure_world(&path(&[1])).unwrap();
        // Root's 1-edge now reaches the new world.
        assert_eq!(edge_target(&store, root, u1), w1);
        // S(2·1) repointed to the deeper suffix parent [1].
        assert_eq!(store.dir.suffix_parent(w21), w1);
        // S(1) = root.
        assert_eq!(store.dir.suffix_parent(w1), root);
    }

    #[test]
    fn deeper_suffix_states_keep_their_edges() {
        // Worlds: 1, 2·1 (deeper). Creating... the 1-edge of world [2]
        // should point to [2·1]? No: from [2], pushing 1 gives 2·1 which IS
        // a state → forward edge. From [3·2]... exercise: create [3,2] and
        // check its 1-edge goes to the *deepest* suffix state of 3·2·1,
        // which is 2·1, and stays there when [1] is created later.
        let mut store = store_with_users(3);
        store.ensure_world(&path(&[2, 1])).unwrap();
        let w32 = store.ensure_world(&path(&[3, 2])).unwrap();
        let w21 = store.dir.get(&path(&[2, 1])).unwrap();
        assert_eq!(edge_target(&store, w32, UserId(1)), w21);
        // Creating the shallower state [1] must NOT steal the edge.
        store.ensure_world(&path(&[1])).unwrap();
        assert_eq!(edge_target(&store, w32, UserId(1)), w21);
    }

    #[test]
    fn s_table_matches_errata_definition() {
        // S(w) = dss(w[2,d]), not dss(w) (which would be w itself).
        let mut store = store_with_users(3);
        store.ensure_world(&path(&[1])).unwrap();
        let w21 = store.ensure_world(&path(&[2, 1])).unwrap();
        let w321 = store.ensure_world(&path(&[3, 2, 1])).unwrap();
        let w1 = store.dir.get(&path(&[1])).unwrap();
        assert_eq!(store.dir.suffix_parent(w21), w1, "S(2·1) = dss(1) = [1]");
        assert_eq!(
            store.dir.suffix_parent(w321),
            w21,
            "S(3·2·1) = dss(2·1) = [2·1]"
        );
    }

    #[test]
    fn depth_relation_is_maintained() {
        let mut store = store_with_users(2);
        store.ensure_world(&path(&[1, 2])).unwrap();
        // ε, 1, 1·2: D(0, 0), D(1, 1), D(2, 2), and S for the two others.
        assert_eq!(size(&store, "D"), 3);
        assert_eq!(size(&store, "S"), 2);
        let depths: Vec<(Wid, usize)> = store.dir.iter().map(|(w, p)| (w, p.depth())).collect();
        assert_eq!(depths, vec![(Wid(0), 0), (Wid(1), 1), (Wid(2), 2)]);
    }
}
