//! Property-based tests (proptest) over the core invariants:
//!
//! * Γ1/Γ2 consistency is preserved by any accepted insert sequence
//!   (Prop. 5, Lemma 11);
//! * the overriding union is idempotent and its explicit part wins;
//! * the canonical Kripke structure is deterministic (exactly one successor
//!   per (state, user) with `u ≠ last(w)`) and satisfies Thm. 17;
//! * the store's structural invariants (`E(w,u) = dss(w·u)`,
//!   `S(w) = dss(w[2,d])`, one `D` row per world, as the directory
//!   answers them and the size report counts them) hold after arbitrary
//!   updates, and the directory's suffix tree is `S` under any creation
//!   order;
//! * `|R*|` respects the size bound of Sect. 5.4;
//! * after *every* insert, delete or update, `V` holds exactly the closure
//!   of the explicit statements under the `Eager` default policy — no stale
//!   row, no duplicate, the right rows flagged explicit — and exactly the
//!   explicit statements under `Lazy`, whose fold equals the closure; and
//!   an update leaves what `delete` followed by `insert` leaves, under both;
//! * a `BeliefWorld` answers every query as a plain list of signed tuples
//!   does, under any add/remove sequence, and `override_with` is Fig. 9's
//!   overriding union;
//! * a `BeliefPath`, inline (up to five users) or spilled, orders, hashes,
//!   prints and composes exactly as its `Vec<UserId>` of users does;
//! * a string `Value`, inline (up to 22 bytes) or shared, compares,
//!   hashes, prints, materializes and goes through the WAL's value codec
//!   exactly as its `String` does.

use beliefdb::core::closure::Closure;
use beliefdb::core::{
    Bdms, BeliefDatabase, BeliefPath, BeliefStatement, BeliefWorld, CanonicalKripke, DefaultPolicy,
    ExternalSchema, GroundTuple, RelId, Sign, UserId,
};
use beliefdb::storage::persist::{Dec, Enc};
use beliefdb::storage::{row, CellHash, Row, Str, Value};
use proptest::prelude::*;
use std::hash::BuildHasher;

const MAX_USERS: u32 = 4;

/// A randomly generated statement over a 2-column schema with small key and
/// value domains (to force conflicts and overrides).
fn arb_statement() -> impl Strategy<Value = BeliefStatement> {
    let path = proptest::collection::vec(1..=MAX_USERS, 0..=3).prop_filter_map(
        "adjacent-distinct paths",
        |raw| {
            let users: Vec<UserId> = raw.into_iter().map(UserId).collect();
            BeliefPath::new(users).ok()
        },
    );
    let key = 0..6u8;
    let val = 0..4u8;
    let sign = prop_oneof![Just(Sign::Pos), Just(Sign::Neg)];
    (path, key, val, sign).prop_map(|(path, key, val, sign)| {
        let tuple = GroundTuple::new(
            RelId(0),
            row![format!("k{key}").as_str(), format!("v{val}").as_str()],
        );
        // Root-world statements are positive (grammar of Fig. 1).
        let sign = if path.is_root() { Sign::Pos } else { sign };
        BeliefStatement::new(path, tuple, sign)
    })
}

fn schema() -> ExternalSchema {
    ExternalSchema::new().with_relation("S", &["sid", "species"])
}

/// Both default policies, for the properties that must hold under each.
const POLICIES: [DefaultPolicy; 2] = [DefaultPolicy::Eager, DefaultPolicy::Lazy];

fn fresh_bdms() -> Bdms {
    fresh_bdms_under(DefaultPolicy::default())
}

fn fresh_bdms_under(policy: DefaultPolicy) -> Bdms {
    let mut bdms = Bdms::with_policy(schema(), policy).unwrap();
    for i in 1..=MAX_USERS {
        bdms.add_user(format!("u{i}")).unwrap();
    }
    bdms
}

fn fresh_logical() -> BeliefDatabase {
    let mut db = BeliefDatabase::new(schema());
    for i in 1..=MAX_USERS {
        db.add_user(format!("u{i}")).unwrap();
    }
    db
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every explicit world stays consistent no matter what sequence of
    /// inserts is attempted (rejected ones must not leak partial state),
    /// and the store matches the logical database closed over the same
    /// accepted statements.
    #[test]
    fn consistency_preserved_and_store_matches_spec(
        stmts in proptest::collection::vec(arb_statement(), 1..60)
    ) {
        let mut bdms = fresh_bdms();
        let mut logical = fresh_logical();
        for stmt in &stmts {
            let store_outcome = bdms.insert_statement(stmt).unwrap();
            let logical_outcome = logical.insert(stmt.clone());
            // Acceptance decisions agree between Algorithm 4 and Def. 8.
            match logical_outcome {
                Ok(_) => prop_assert!(store_outcome.accepted(), "store rejected {stmt}"),
                Err(_) => prop_assert!(!store_outcome.accepted(), "store accepted {stmt}"),
            }
        }
        prop_assert!(logical.is_consistent());
        // Differential: every state's world equals the closure's.
        let mut cl = Closure::new(&logical);
        for state in logical.states() {
            let lhs = bdms.world(&state).unwrap();
            let rhs = cl.entailed_world(&state).clone();
            prop_assert_eq!(lhs, rhs, "world mismatch at {}", state);
        }
    }

    /// The overriding union (Fig. 9) is idempotent and explicit-preserving.
    #[test]
    fn override_union_laws(stmts in proptest::collection::vec(arb_statement(), 1..40)) {
        let mut logical = fresh_logical();
        for stmt in &stmts {
            let _ = logical.insert(stmt.clone());
        }
        let mut cl = Closure::new(&logical);
        for state in logical.states() {
            let explicit = logical.explicit_world(&state);
            let parent = cl.entailed_world(&state.drop_first()).clone();
            let once = explicit.override_with(&parent);
            let twice = once.override_with(&parent);
            prop_assert_eq!(&once, &twice, "override must be idempotent at {}", state);
            // every explicit tuple survives
            for (t, sign) in explicit.signed_tuples() {
                prop_assert!(once.contains(&t, sign), "explicit tuple lost at {}", state);
            }
            prop_assert!(once.is_consistent());
        }
    }

    /// Canonical Kripke: deterministic edges, correct targets, Thm. 17.
    #[test]
    fn canonical_structure_invariants(
        stmts in proptest::collection::vec(arb_statement(), 1..40)
    ) {
        let mut logical = fresh_logical();
        for stmt in &stmts {
            let _ = logical.insert(stmt.clone());
        }
        let k = CanonicalKripke::build(&logical);
        let users: Vec<UserId> = logical.users().collect();
        // Edge structure.
        let mut expected_edges = 0;
        for (sid, path, _) in k.states() {
            for &u in &users {
                if !path.can_push(u) {
                    continue;
                }
                expected_edges += 1;
                let target = k.successor(sid, u);
                // The target's path must be the deepest suffix state of w·u.
                let want = logical.dss(&path.push(u).unwrap());
                prop_assert_eq!(k.path_of(target), &want);
            }
        }
        prop_assert_eq!(k.edge_count(), expected_edges);
        // Thm. 17 on sampled statements.
        let mut cl = Closure::new(&logical);
        for stmt in stmts.iter().step_by(3) {
            prop_assert_eq!(cl.entails(stmt), k.entails(stmt), "on {}", stmt);
        }
    }

    /// Store structural invariants after arbitrary inserts AND deletes:
    /// every world's E edges and S backlink, as the directory answers
    /// them, encode dss correctly, and the size report counts D, E and S.
    #[test]
    fn store_structural_invariants(
        stmts in proptest::collection::vec(arb_statement(), 1..50),
        delete_every in 2..5usize,
    ) {
        let mut bdms = fresh_bdms();
        for stmt in &stmts {
            let _ = bdms.insert_statement(stmt).unwrap();
        }
        for stmt in stmts.iter().step_by(delete_every) {
            let _ = bdms.delete_statement(stmt).unwrap();
        }
        let dir = bdms.internal().directory();
        let users: Vec<UserId> = bdms.users();
        let stats = bdms.stats();
        let size = |name: &str| stats.per_table.iter().find(|(n, _)| n == name).map(|&(_, n)| n);

        // D: one row per world.
        prop_assert_eq!(size("D"), Some(dir.len()));

        // E: exactly one edge per (world, pushable user), pointing at the
        // deepest state among the suffixes of w·u.
        let mut edge_count = 0;
        for (_, path) in dir.iter() {
            for &u in &users {
                let Ok(extended) = path.push(u) else {
                    prop_assert!(!path.can_push(u));
                    continue;
                };
                edge_count += 1;
                let target = dir.path(dir.dss(&extended));
                let deepest = extended.suffixes().find(|s| dir.get(s).is_some());
                prop_assert_eq!(Some(target), deepest.as_ref(), "edge at {} user {}", path, u);
            }
        }
        prop_assert_eq!(size("E"), Some(edge_count));

        // S: backlink to dss(w[2,d]) for every non-root world.
        prop_assert_eq!(size("S"), Some(dir.len() - 1));
        for (wid, path) in dir.iter() {
            if path.is_root() {
                continue;
            }
            prop_assert_eq!(dir.suffix_parent(wid), dir.dss(&path.drop_first()));
        }
    }

    /// The directory's suffix tree under random creation orders — worlds
    /// slide in above, below and between existing ones: after every
    /// statement `suffix_parent` is the errata's `S(w) = dss(w[2,d])`,
    /// `children` is its inverse, and `dependents` lists what the suffix
    /// test over all worlds finds, for states and for paths that are none,
    /// each world after its suffix parent.
    #[test]
    fn the_directory_knows_its_suffix_tree(
        stmts in proptest::collection::vec(arb_statement(), 1..40),
        probes in proptest::collection::vec(arb_statement(), 0..12),
    ) {
        let mut bdms = fresh_bdms();
        for stmt in &stmts {
            let _ = bdms.insert_statement(stmt).unwrap();
            let dir = bdms.internal().directory();
            for (wid, path) in dir.iter() {
                let parent = dir.suffix_parent(wid);
                if path.is_root() {
                    prop_assert_eq!(parent, wid);
                } else {
                    prop_assert_eq!(parent, dir.dss(&path.drop_first()), "S({})", path);
                }
                let children: Vec<_> = dir
                    .iter()
                    .filter(|&(z, p)| !p.is_root() && dir.suffix_parent(z) == wid)
                    .map(|(z, _)| z)
                    .collect();
                prop_assert_eq!(dir.children(wid), &children[..], "children of {}", path);
            }
            let states = dir.iter().map(|(_, p)| p.clone());
            let others = probes.iter().map(|probe| probe.path.clone());
            for path in states.chain(others).collect::<Vec<_>>() {
                let deps = dir.dependents(&path);
                let mut listed = deps.clone();
                listed.sort();
                let by_suffix: Vec<_> = dir
                    .iter()
                    .filter(|(_, p)| path.is_proper_suffix_of(p))
                    .map(|(wid, _)| wid)
                    .collect();
                prop_assert_eq!(&listed, &by_suffix, "dependents of {}", path);
                for (at, &wid) in deps.iter().enumerate() {
                    let parent = dir.suffix_parent(wid);
                    prop_assert!(
                        !deps[at..].contains(&parent),
                        "{} listed before its suffix parent",
                        dir.path(wid)
                    );
                }
            }
        }
    }

    /// Size bound of Sect. 5.4: |V| = O(n·N) — concretely, each V table
    /// holds at most (explicit statements + inherited copies) ≤ n·N rows,
    /// and |E| ≤ m·N, |D| = N, |S| = N−1.
    #[test]
    fn size_bounds_hold(stmts in proptest::collection::vec(arb_statement(), 1..60)) {
        let mut bdms = fresh_bdms();
        let mut accepted = 0usize;
        for stmt in &stmts {
            if bdms.insert_statement(stmt).unwrap().changed() {
                accepted += 1;
            }
        }
        let stats = bdms.stats();
        let n_worlds = stats.worlds;
        let m = stats.users;
        let storage = bdms.storage();
        let size = |name: &str| stats.per_table.iter().find(|(n, _)| n == name).unwrap().1;
        prop_assert!(storage.table("V__S").unwrap().len() <= accepted.max(1) * n_worlds);
        prop_assert!(size("E") <= m * n_worlds);
        prop_assert_eq!(size("D"), n_worlds);
        prop_assert_eq!(size("S"), n_worlds - 1);
        // Overall |R*| ≤ (n + m)·N + N + (N−1) + m + n  (V + E + D + S + U + R*)
        let bound = (accepted + m) * n_worlds + 2 * n_worlds + m + stmts.len();
        prop_assert!(
            stats.total_tuples <= bound,
            "total {} exceeds bound {}",
            stats.total_tuples,
            bound
        );
    }

    /// World-level entailment laws (Prop. 7): a world never entails both
    /// t+ and t− ... unless inconsistent, which accepted inserts prevent;
    /// and entails_neg is monotone over key-conflicts.
    #[test]
    fn entailment_laws(stmts in proptest::collection::vec(arb_statement(), 1..40)) {
        let mut logical = fresh_logical();
        for stmt in &stmts {
            let _ = logical.insert(stmt.clone());
        }
        let mut cl = Closure::new(&logical);
        for state in logical.states() {
            let world = cl.entailed_world(&state).clone();
            for (t, _) in world.signed_tuples() {
                prop_assert!(
                    !(world.entails_pos(&t) && world.entails_neg(&t)),
                    "world at {} entails {} both ways",
                    state,
                    t
                );
            }
        }
    }

    /// Lexer/parser round trip: any generated statement can be printed as a
    /// BeliefSQL insert and parsed back to the same effect.
    #[test]
    fn sql_insert_round_trip(stmt in arb_statement()) {
        let mut direct = fresh_bdms();
        let outcome_direct = direct.insert_statement(&stmt).unwrap();

        let mut session = beliefdb::sql::Session::new(schema()).unwrap();
        for i in 1..=MAX_USERS {
            session.add_user(format!("u{i}")).unwrap();
        }
        let mut sql = String::from("insert into ");
        for u in stmt.path.users() {
            sql.push_str(&format!("BELIEF 'u{u}' "));
        }
        if stmt.sign == Sign::Neg {
            sql.push_str("not ");
        }
        sql.push_str("S values (");
        let vals: Vec<String> = stmt
            .tuple
            .row
            .values()
            .iter()
            .map(|v| format!("'{v}'"))
            .collect();
        sql.push_str(&vals.join(","));
        sql.push(')');

        let result = session.execute(&sql).unwrap();
        prop_assert_eq!(
            result,
            beliefdb::sql::ExecResult::Inserted(outcome_direct)
        );
        prop_assert_eq!(
            session.bdms().to_belief_database().unwrap().statements(),
            direct.to_belief_database().unwrap().statements()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Arbitrary interleavings of inserts and deletes: after the dust
    /// settles, every world in the store equals the closure of the explicit
    /// statements that remain — the strongest end-to-end invariant.
    #[test]
    fn random_insert_delete_interleavings_match_reclosure(
        ops in proptest::collection::vec((arb_statement(), proptest::bool::ANY), 1..50)
    ) {
        let mut bdms = fresh_bdms();
        let mut shadow: Vec<BeliefStatement> = Vec::new();
        for (stmt, is_delete) in &ops {
            if *is_delete {
                let _ = bdms.delete_statement(stmt).unwrap();
                shadow.retain(|s| s != stmt);
            } else if bdms.insert_statement(stmt).unwrap().accepted()
                && !shadow.contains(stmt)
            {
                shadow.push(stmt.clone());
            }
        }
        // Rebuild the logical database from the shadow and compare worlds.
        let mut logical = fresh_logical();
        for stmt in &shadow {
            logical.insert_unchecked(stmt.clone()).unwrap();
        }
        prop_assert!(logical.is_consistent(), "shadow went inconsistent");
        let mut cl = Closure::new(&logical);
        let dir_paths: Vec<BeliefPath> = bdms
            .internal()
            .directory()
            .iter()
            .map(|(_, p)| p.clone())
            .collect();
        for p in dir_paths {
            let store_world = bdms.world(&p).unwrap();
            let spec_world = cl.entailed_world(&p).clone();
            prop_assert_eq!(store_world, spec_world, "after {} ops, world {} diverged", ops.len(), p);
        }
        // And the explicit layer round-trips.
        let mut store_stmts = bdms.to_belief_database().unwrap().statements();
        let mut shadow_sorted = shadow.clone();
        store_stmts.sort();
        shadow_sorted.sort();
        prop_assert_eq!(store_stmts, shadow_sorted);
    }
}

/// One step of a random write workload. Deletes and updates aim at a
/// statement the store holds three times out of four (the `usize` picks
/// it), otherwise at the random one.
#[derive(Debug, Clone)]
enum Write {
    Insert(BeliefStatement),
    Delete(BeliefStatement, usize),
    /// `Bdms::update` at the statement's path: its tuple becomes the one
    /// with value `v<n>` and the same key.
    Update(BeliefStatement, usize, u8),
}

fn arb_write() -> impl Strategy<Value = Write> {
    prop_oneof![
        3 => arb_statement().prop_map(Write::Insert),
        2 => (arb_statement(), 0..64usize).prop_map(|(s, pick)| Write::Delete(s, pick)),
        2 => (arb_statement(), 0..64usize, 0..4u8)
            .prop_map(|(s, pick, v)| Write::Update(s, pick, v)),
    ]
}

/// `random`, or three times out of four one of `held`.
fn aim<'a>(
    held: &'a [BeliefStatement],
    random: &'a BeliefStatement,
    pick: usize,
) -> &'a BeliefStatement {
    match held.len() {
        0 => random,
        _ if pick.is_multiple_of(4) => random,
        n => &held[pick % n],
    }
}

/// The tuple `stmt` is about with its value replaced by `v<val>`.
fn revalued(stmt: &BeliefStatement, val: u8) -> GroundTuple {
    let key = stmt.tuple.row[0].clone();
    GroundTuple::new(RelId(0), row![key, format!("v{val}").as_str()])
}

/// Apply `write` to `bdms` and to the explicit statements `shadow` expected
/// in it afterwards.
fn apply(bdms: &mut Bdms, shadow: &mut Vec<BeliefStatement>, write: &Write) {
    let stated = match write {
        Write::Insert(stmt) => {
            let outcome = bdms.insert_statement(stmt).unwrap();
            outcome.accepted().then(|| stmt.clone())
        }
        Write::Delete(stmt, pick) => {
            let stmt = aim(shadow, stmt, *pick).clone();
            let present = bdms.delete_statement(&stmt).unwrap();
            assert_eq!(present, shadow.contains(&stmt), "delete of {stmt}");
            shadow.retain(|s| *s != stmt);
            None
        }
        Write::Update(stmt, pick, val) => {
            let stmt = aim(shadow, stmt, *pick).clone();
            let old = BeliefStatement::positive(stmt.path.clone(), stmt.tuple.clone());
            let new = BeliefStatement::positive(stmt.path.clone(), revalued(&stmt, *val));
            let (old_row, new_row) = (old.tuple.row.clone(), new.tuple.row.clone());
            let outcome = bdms
                .update(stmt.path.clone(), RelId(0), old_row, new_row)
                .unwrap();
            shadow.retain(|s| *s != old);
            outcome.accepted().then_some(new)
        }
    };
    if let Some(stmt) = stated {
        if !shadow.contains(&stmt) {
            shadow.push(stmt);
        }
    }
}

/// `V` is exactly what the store's policy says of `shadow`, world by world:
/// under `Eager` the entailed tuples, one row each, and the explicit flag
/// on the stated ones; under `Lazy` the stated tuples only, each flagged
/// explicit. Under both, the world the store reads equals the closure's.
/// `logical` is an empty belief database with the users of `bdms`.
fn check_v_is_the_closure(
    bdms: &Bdms,
    mut logical: BeliefDatabase,
    shadow: &[BeliefStatement],
    step: usize,
) -> Result<(), TestCaseError> {
    for stmt in shadow {
        logical.insert_unchecked(stmt.clone()).unwrap();
    }
    prop_assert!(logical.is_consistent(), "shadow went inconsistent");
    let mut cl = Closure::new(&logical);
    let v = bdms.storage().table("V__S").unwrap();
    let mut rows_seen = 0;
    for (wid, p) in bdms.internal().directory().iter() {
        let spec = cl.entailed_world(p).clone();
        prop_assert_eq!(
            &bdms.world(p).unwrap(),
            &spec,
            "step {}: world {} diverged",
            step,
            p
        );
        // World equality is set equality: a stale or doubled row hides
        // behind it, the row count does not.
        // One probe of `by_wid_key` for the first column alone: the world.
        let rows: Vec<Row> = v
            .index_lookup("by_wid_key", &[wid.value()])
            .unwrap()
            .map(|rid| v.get(rid).unwrap())
            .collect();
        let stated_here = shadow.iter().filter(|s| s.path == *p).count();
        let expected = match bdms.policy() {
            DefaultPolicy::Eager => spec.len(),
            DefaultPolicy::Lazy => stated_here,
        };
        prop_assert_eq!(rows.len(), expected, "step {}: rows of world {}", step, p);
        rows_seen += rows.len();
        let mut flagged: Vec<BeliefStatement> = rows
            .iter()
            .filter(|r| r[4] == Value::str("y"))
            .map(|r| {
                let tid = beliefdb::core::Tid::from_value(&r[1]).unwrap();
                let tuple = bdms.internal().tuple_of(RelId(0), tid).unwrap();
                BeliefStatement::new(p.clone(), tuple, Sign::from_value(&r[3]).unwrap())
            })
            .collect();
        flagged.sort();
        let mut stated: Vec<BeliefStatement> =
            shadow.iter().filter(|s| s.path == *p).cloned().collect();
        stated.sort();
        prop_assert_eq!(
            &flagged,
            &stated,
            "step {}: explicit rows of world {}",
            step,
            p
        );
        prop_assert_eq!(bdms.explicit_statements_at(p).unwrap(), stated);
    }
    prop_assert_eq!(rows_seen, v.len(), "step {}: rows of no world", step);
    Ok(())
}

/// Everything an update may touch, in an order that does not depend on
/// which slots the rows landed in.
fn store_image(
    bdms: &Bdms,
) -> (
    Vec<beliefdb::storage::Row>,
    Vec<beliefdb::storage::Row>,
    Vec<BeliefPath>,
) {
    let sorted = |table: &str| {
        let mut rows = bdms.storage().table(table).unwrap().scan();
        rows.sort();
        rows
    };
    let worlds = bdms
        .internal()
        .directory()
        .iter()
        .map(|(_, p)| p.clone())
        .collect();
    (sorted("V__S"), sorted("S__star"), worlds)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// After every single step of a random interleaving of inserts,
    /// deletes and updates — worlds are created whenever a path is first
    /// written to, before or after the worlds depending on it — `V` holds
    /// the closure of the explicit statements and nothing else.
    #[test]
    fn every_step_leaves_v_exactly_the_closure(
        writes in proptest::collection::vec(arb_write(), 1..40)
    ) {
        for policy in POLICIES {
            let mut bdms = fresh_bdms_under(policy);
            let mut shadow: Vec<BeliefStatement> = Vec::new();
            for (step, write) in writes.iter().enumerate() {
                apply(&mut bdms, &mut shadow, write);
                check_v_is_the_closure(&bdms, fresh_logical(), &shadow, step)?;
            }
        }
    }

    /// `update` is `delete` then `insert`, walked once: same outcome, same
    /// `V`, same `R*`, same worlds — whether the new tuple is inserted,
    /// promoted, already stated or rejected.
    #[test]
    fn update_equals_delete_then_insert(
        stmts in proptest::collection::vec(arb_statement(), 0..40),
        target in arb_statement(),
        pick in 0..64usize,
        val in 0..4u8,
    ) {
        let target = aim(&stmts, &target, pick);
        for policy in POLICIES {
            let mut once = fresh_bdms_under(policy);
            let mut twice = fresh_bdms_under(policy);
            for stmt in &stmts {
                once.insert_statement(stmt).unwrap();
                twice.insert_statement(stmt).unwrap();
            }
            let (old, new) = (target.tuple.clone(), revalued(target, val));
            let outcome = once
                .update(target.path.clone(), RelId(0), old.row.clone(), new.row.clone())
                .unwrap();
            twice
                .delete(target.path.clone(), RelId(0), old.row, Sign::Pos)
                .unwrap();
            let expected = twice
                .insert(target.path.clone(), RelId(0), new.row, Sign::Pos)
                .unwrap();
            prop_assert_eq!(outcome, expected);
            prop_assert_eq!(store_image(&once), store_image(&twice));
            prop_assert_eq!(once.stats(), twice.stats());
        }
    }
}

/// The same, on a store that outgrows the narrow lanes of the column heap
/// (`docs/execution.md`, "Heap and index layout") while it is written: 100
/// users and mostly nested paths, so a few hundred annotations make more
/// than 256 worlds and more than 256 tuples, and `V`'s `wid` and `tid`
/// columns are re-typed wider in the middle of a world's group copy and of
/// a propagation. Held against the closure after every statement, and
/// against the naive evaluator at the end.
#[test]
fn v_stays_the_closure_while_wid_and_tid_outgrow_their_lanes() {
    use beliefdb::core::bcq::dsl::{pv, qany, qv};
    use beliefdb::core::bcq::Bcq;
    use beliefdb::gen::{
        experiment_schema, fresh_bdms_with_policy, CandidateStream, DepthDist, GeneratorConfig,
    };

    let cfg = GeneratorConfig::new(100, 280)
        .with_depth(DepthDist::new(&[0.03, 0.12, 0.85]))
        .with_seed(20_260_926);
    // Group copies and propagation are the `Eager` write path.
    let mut bdms = fresh_bdms_with_policy(&cfg, DefaultPolicy::Eager).unwrap();
    let mut empty = BeliefDatabase::new(experiment_schema());
    for user in 1..=cfg.users {
        empty.add_user(format!("u{user}")).unwrap();
    }
    let mut stream = CandidateStream::new(&cfg);
    let mut shadow: Vec<BeliefStatement> = Vec::new();
    for step in 0.. {
        if shadow.len() == cfg.annotations {
            break;
        }
        assert!(step < 50 * cfg.annotations, "generator saturated");
        let stmt = stream.next_candidate();
        if bdms.insert_statement(&stmt).unwrap().changed() {
            shadow.push(stmt);
        }
        check_v_is_the_closure(&bdms, empty.clone(), &shadow, step).unwrap();
    }

    // Past both one-byte ranges (zig-zag 127, plain 255), and a good part
    // of the rows arrived as group copies of a suffix parent's world.
    let stats = bdms.stats();
    let v = bdms.storage().table("V__S").unwrap();
    let tuples = bdms.storage().table("S__star").unwrap().len();
    let copied = v
        .access()
        .group_copied
        .load(std::sync::atomic::Ordering::Relaxed);
    assert!(stats.worlds > 256 && tuples > 256, "{stats:?}");
    assert!(copied > 1_000, "{copied} rows copied with their world");
    // Two bytes a cell for `wid` and `tid`, one for the codes of `key`,
    // `s` and `e`; a dictionary entry per key, sign and flag; live bits.
    let keys: std::collections::BTreeSet<_> = shadow.iter().map(|s| &s.tuple.row[0]).collect();
    assert_eq!(v.slots(), v.len(), "no slot is free");
    assert_eq!(
        v.heap_bytes(),
        v.len() * (2 + 2 + 1 + 1 + 1) + (keys.len() + 2 + 2) * 33 + v.len().div_ceil(64) * 8
    );

    let s = bdms.schema().relation_id("S").unwrap();
    let queries = [
        // Content at the root, and at every user's world.
        Bcq::builder(vec![qv("a"), qv("c")])
            .positive(vec![], s, vec![qv("a"), qany(), qv("c"), qany(), qany()])
            .build(bdms.schema())
            .unwrap(),
        Bcq::builder(vec![qv("x"), qv("a"), qv("c")])
            .positive(
                vec![pv("x")],
                s,
                vec![qv("a"), qany(), qv("c"), qany(), qany()],
            )
            .build(bdms.schema())
            .unwrap(),
        // Who denies a sighting?
        Bcq::builder(vec![qv("x"), qv("a")])
            .negative(
                vec![pv("x")],
                s,
                vec![qv("a"), qv("b"), qv("c"), qv("d"), qv("e")],
            )
            .positive(vec![], s, vec![qv("a"), qv("b"), qv("c"), qv("d"), qv("e")])
            .build(bdms.schema())
            .unwrap(),
    ];
    for q in &queries {
        let answers = bdms.query(q).unwrap();
        assert!(!answers.is_empty(), "{q}");
        assert_eq!(answers, bdms.query_naive(q).unwrap(), "{q}");
    }
}

/// The update whose new tuple the gate rejects still withdraws the old
/// one, here and in the dependent worlds, under both policies.
#[test]
fn rejected_update_still_propagates_the_retraction() {
    for policy in POLICIES {
        rejected_update_withdraws_the_old_tuple(policy);
    }
}

fn rejected_update_withdraws_the_old_tuple(policy: DefaultPolicy) {
    let alice = BeliefPath::new(vec![UserId(1)]).unwrap();
    let bob_alice = BeliefPath::new(vec![UserId(2), UserId(1)]).unwrap();
    let crow = GroundTuple::new(RelId(0), row!["k0", "crow"]);
    let raven = GroundTuple::new(RelId(0), row!["k0", "raven"]);
    let mut bdms = fresh_bdms_under(policy);
    for stmt in [
        BeliefStatement::positive(alice.clone(), crow.clone()),
        BeliefStatement::negative(alice.clone(), raven.clone()),
        // Bob's view of Alice exists and inherits both.
        BeliefStatement::positive(
            bob_alice.clone(),
            GroundTuple::new(RelId(0), row!["k1", "owl"]),
        ),
    ] {
        assert!(bdms.insert_statement(&stmt).unwrap().changed());
    }
    let inherited = BeliefStatement::positive(bob_alice, crow.clone());
    assert!(bdms.entails(&inherited).unwrap());

    let outcome = bdms
        .update(alice.clone(), RelId(0), crow.row.clone(), raven.row.clone())
        .unwrap();
    assert_eq!(outcome, beliefdb::core::internal::InsertOutcome::Rejected);
    assert!(!bdms
        .entails(&BeliefStatement::positive(alice.clone(), crow))
        .unwrap());
    assert!(!bdms.entails(&inherited).unwrap());
    assert_eq!(
        bdms.explicit_statements_at(&alice).unwrap(),
        vec![BeliefStatement::negative(alice, raven)]
    );
}

/// Deterministic regression cases distilled from earlier failures and edge
/// cases worth pinning.
#[test]
fn pinned_edge_cases() {
    // Re-inserting after delete at a deep path.
    let mut bdms = fresh_bdms();
    let t = GroundTuple::new(RelId(0), row!["k0", "v0"]);
    let p = BeliefPath::new(vec![UserId(1), UserId(2), UserId(1)]).unwrap();
    assert!(bdms
        .insert_statement(&BeliefStatement::positive(p.clone(), t.clone()))
        .unwrap()
        .changed());
    assert!(bdms
        .delete_statement(&BeliefStatement::positive(p.clone(), t.clone()))
        .unwrap());
    assert!(bdms
        .insert_statement(&BeliefStatement::positive(p, t))
        .unwrap()
        .changed());

    // Value total order sanity for the slice index keys.
    assert!(Value::str("k1") < Value::str("k2"));
    assert_ne!(Value::Int(1), Value::str("1"));
}

// ---------------------------------------------------------------------------
// `BeliefWorld` against a plain list of signed tuples: the representation
// checked on its own, with no store involved.
// ---------------------------------------------------------------------------

/// One edit of a raw world: add (`true`) or remove a signed tuple.
type WorldEdit = (bool, GroundTuple, Sign);

/// Tuple `val` of key `key` in relation `rel`: four keys (three strings and
/// an integer, so keys of two types share a relation), and rows of arity
/// one — the key alone, which equals the start of its key group's range —
/// for `val = 0`, of arity two otherwise.
fn world_tuple(rel: u32, key: u8, val: u8) -> GroundTuple {
    let key = if key == 3 {
        Value::int(7)
    } else {
        Value::str(format!("k{key}"))
    };
    let row = if val == 0 {
        Row::new([key])
    } else {
        Row::new([key, Value::str(format!("v{val}"))])
    };
    GroundTuple::new(RelId(rel), row)
}

fn arb_world_tuple() -> impl Strategy<Value = GroundTuple> {
    (0..2u32, 0..4u8, 0..4u8).prop_map(|(rel, key, val)| world_tuple(rel, key, val))
}

fn arb_world_edits() -> impl Strategy<Value = Vec<WorldEdit>> {
    let sign = prop_oneof![Just(Sign::Pos), Just(Sign::Neg)];
    // Three adds to one remove, so worlds grow.
    let add = (0..4u8).prop_map(|n| n > 0);
    proptest::collection::vec((add, arb_world_tuple(), sign), 0..40)
}

/// The model: a list of signed tuples with set semantics.
#[derive(Default, Clone)]
struct WorldModel(Vec<(GroundTuple, Sign)>);

impl WorldModel {
    fn contains(&self, t: &GroundTuple, sign: Sign) -> bool {
        self.0.iter().any(|(u, s)| u == t && *s == sign)
    }

    fn add(&mut self, t: GroundTuple, sign: Sign) -> bool {
        let added = !self.contains(&t, sign);
        if added {
            self.0.push((t, sign));
        }
        added
    }

    fn remove(&mut self, t: &GroundTuple, sign: Sign) -> bool {
        let before = self.0.len();
        self.0.retain(|(u, s)| !(u == t && *s == sign));
        self.0.len() < before
    }

    fn sorted(&self, sign: Sign) -> Vec<GroundTuple> {
        let mut out: Vec<GroundTuple> = self
            .0
            .iter()
            .filter(|(_, s)| *s == sign)
            .map(|(t, _)| t.clone())
            .collect();
        out.sort();
        out
    }

    /// Some positive tuple has `t`'s key but another row.
    fn key_taken(&self, t: &GroundTuple) -> bool {
        self.0
            .iter()
            .any(|(u, s)| *s == Sign::Pos && u.conflicts_with(t))
    }

    fn entails(&self, t: &GroundTuple, sign: Sign) -> bool {
        match sign {
            Sign::Pos => self.contains(t, Sign::Pos),
            Sign::Neg => self.contains(t, Sign::Neg) || self.key_taken(t),
        }
    }

    fn can_accept(&self, t: &GroundTuple, sign: Sign) -> bool {
        match sign {
            Sign::Pos => !self.contains(t, Sign::Neg) && !self.key_taken(t),
            Sign::Neg => !self.contains(t, Sign::Pos),
        }
    }

    fn gamma1(&self) -> bool {
        self.0
            .iter()
            .all(|(t, s)| *s == Sign::Neg || !self.key_taken(t))
    }

    fn gamma2(&self) -> bool {
        self.0
            .iter()
            .all(|(t, s)| *s == Sign::Neg || !self.contains(t, Sign::Neg))
    }

    /// Fig. 9's overriding union `self ⊕ parent` for a consistent parent:
    /// the explicit (child) tuples, every parent positive that is neither
    /// stated negative nor key-blocked by a child positive, and every parent
    /// negative that is not a child positive.
    fn override_with(&self, parent: &WorldModel) -> WorldModel {
        let mut out = self.clone();
        for (t, s) in &parent.0 {
            let inherited = match s {
                Sign::Pos => !self.contains(t, Sign::Neg) && !self.key_taken(t),
                Sign::Neg => !self.contains(t, Sign::Pos),
            };
            if inherited {
                out.add(t.clone(), *s);
            }
        }
        out
    }
}

/// Apply `edits` to a world and to the model, asserting that both report
/// the same change; with `gated`, an add goes in only if the model accepts
/// it (a consistent world, as `BeliefDatabase::insert` keeps).
fn apply_edits(
    edits: &[WorldEdit],
    gated: bool,
) -> Result<(BeliefWorld, WorldModel), TestCaseError> {
    let mut world = BeliefWorld::new();
    let mut model = WorldModel::default();
    for (add, t, sign) in edits {
        if *add {
            if gated && !model.can_accept(t, *sign) {
                continue;
            }
            prop_assert_eq!(world.add(t.clone(), *sign), model.add(t.clone(), *sign));
        } else {
            prop_assert_eq!(world.remove(t, *sign), model.remove(t, *sign));
        }
    }
    Ok((world, model))
}

/// Every query of the world agrees with the model, on every tuple and key
/// group of the generators' universe.
fn check_world_against_model(world: &BeliefWorld, model: &WorldModel) -> Result<(), TestCaseError> {
    let pos = model.sorted(Sign::Pos);
    let neg = model.sorted(Sign::Neg);
    prop_assert_eq!(world.pos_tuples().collect::<Vec<_>>(), pos.clone());
    prop_assert_eq!(world.neg_tuples().collect::<Vec<_>>(), neg.clone());
    let signed: Vec<(GroundTuple, Sign)> = pos
        .iter()
        .map(|t| (t.clone(), Sign::Pos))
        .chain(neg.iter().map(|t| (t.clone(), Sign::Neg)))
        .collect();
    prop_assert_eq!(world.signed_tuples().collect::<Vec<_>>(), signed);
    prop_assert_eq!(world.pos_len(), pos.len());
    prop_assert_eq!(world.neg_len(), neg.len());
    prop_assert_eq!(world.len(), model.0.len());
    prop_assert_eq!(world.is_empty(), model.0.is_empty());
    prop_assert_eq!(world.gamma1(), model.gamma1());
    prop_assert_eq!(world.gamma2(), model.gamma2());
    prop_assert_eq!(
        world.check_consistent().is_ok(),
        model.gamma1() && model.gamma2()
    );
    for rel in 0..2u32 {
        for key in 0..4u8 {
            let group = (RelId(rel), world_tuple(rel, key, 0).key().clone());
            let rows_of = |tuples: &[GroundTuple]| -> Vec<Row> {
                tuples
                    .iter()
                    .filter(|t| (t.rel, t.key()) == (group.0, &group.1))
                    .map(|t| t.row.clone())
                    .collect()
            };
            prop_assert_eq!(
                world.pos_rows_for_key(&group).cloned().collect::<Vec<_>>(),
                rows_of(&pos)
            );
            prop_assert_eq!(
                world.neg_rows_for_key(&group).cloned().collect::<Vec<_>>(),
                rows_of(&neg)
            );
            for val in 0..4u8 {
                let t = world_tuple(rel, key, val);
                for sign in [Sign::Pos, Sign::Neg] {
                    prop_assert_eq!(
                        world.contains(&t, sign),
                        model.contains(&t, sign),
                        "contains {}{}",
                        t,
                        sign
                    );
                    prop_assert_eq!(
                        world.entails(&t, sign),
                        model.entails(&t, sign),
                        "entails {}{}",
                        t,
                        sign
                    );
                    prop_assert_eq!(
                        world.can_accept(&t, sign),
                        model.can_accept(&t, sign),
                        "can_accept {}{}",
                        t,
                        sign
                    );
                }
                prop_assert_eq!(world.entails_pos(&t), model.entails(&t, Sign::Pos));
                prop_assert_eq!(world.entails_neg(&t), model.entails(&t, Sign::Neg));
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `BeliefWorld` behaves as a list of signed tuples under any sequence
    /// of adds and removes, and its overriding union is Fig. 9's.
    #[test]
    fn belief_world_matches_a_list_model(
        child_edits in arb_world_edits(),
        parent_edits in arb_world_edits(),
    ) {
        let (child, child_model) = apply_edits(&child_edits, false)?;
        check_world_against_model(&child, &child_model)?;
        let (parent, parent_model) = apply_edits(&parent_edits, true)?;
        prop_assert!(parent.is_consistent());
        check_world_against_model(&parent, &parent_model)?;
        let merged = child.override_with(&parent);
        check_world_against_model(&merged, &child_model.override_with(&parent_model))?;
    }
}

/// A path of 0–8 users out of four, never the same user twice in a row:
/// a first user and then steps of 1–3 around the four.
fn arb_users() -> impl Strategy<Value = Vec<UserId>> {
    (
        1..=MAX_USERS,
        proptest::collection::vec(1..MAX_USERS, 0..=7),
        0..=1u8,
    )
        .prop_map(|(first, steps, empty)| {
            if empty == 0 && steps.is_empty() {
                return vec![];
            }
            let mut users = vec![UserId(first)];
            for step in steps {
                let last = users.last().unwrap().0;
                users.push(UserId((last - 1 + step) % MAX_USERS + 1));
            }
            users
        })
}

mod model {
    /// A path as a plain vector, with the `Debug` the compiler derives
    /// (which is all that reads its field).
    #[derive(Debug)]
    pub struct BeliefPath(#[allow(dead_code)] pub Vec<beliefdb::core::UserId>);
}

/// The model of a path's `Display`.
fn shown(users: &[UserId]) -> String {
    if users.is_empty() {
        return "ε".into();
    }
    let users: Vec<String> = users.iter().map(|u| u.to_string()).collect();
    users.join("·")
}

/// The path of `users` and `users` agree on everything a path answers
/// alone.
fn check_path_against_model(w: &BeliefPath, users: &[UserId]) -> Result<(), TestCaseError> {
    let hash = CellHash::default();
    prop_assert_eq!(w.users(), users);
    prop_assert_eq!(w.depth(), users.len());
    prop_assert_eq!(w.is_root(), users.is_empty());
    prop_assert_eq!(w.first(), users.first().copied());
    prop_assert_eq!(w.last(), users.last().copied());
    prop_assert_eq!(hash.hash_one(w), hash.hash_one(users.to_vec()));
    prop_assert_eq!(w.to_string(), shown(users));
    let derived = model::BeliefPath(users.to_vec());
    prop_assert_eq!(format!("{w:?}"), format!("{derived:?}"));
    prop_assert_eq!(format!("{w:#?}"), format!("{derived:#?}"));
    prop_assert_eq!(
        w.drop_first().users().to_vec(),
        users.get(1..).unwrap_or(&[])
    );
    let prefixes: Vec<Vec<UserId>> = w.prefixes().map(|p| p.users().to_vec()).collect();
    let want: Vec<Vec<UserId>> = (0..=users.len()).map(|i| users[..i].to_vec()).collect();
    prop_assert_eq!(prefixes, want);
    let suffixes: Vec<Vec<UserId>> = w.suffixes().map(|p| p.users().to_vec()).collect();
    let want: Vec<Vec<UserId>> = (0..=users.len()).map(|i| users[i..].to_vec()).collect();
    prop_assert_eq!(suffixes, want);
    for len in 0..=users.len() + 1 {
        prop_assert_eq!(
            w.prefix(len).users().to_vec(),
            &users[..len.min(users.len())]
        );
        let from = len.saturating_sub(1).min(users.len());
        prop_assert_eq!(w.suffix_from(len).users().to_vec(), &users[from..]);
    }
    for u in (1..=MAX_USERS).map(UserId) {
        let pushed = w.push(u).ok().map(|p| p.users().to_vec());
        let want = (users.last() != Some(&u)).then(|| [users, &[u]].concat());
        prop_assert_eq!(pushed, want);
        prop_assert_eq!(w.can_push(u), users.last() != Some(&u));
        let prepended = w.prepend(u).ok().map(|p| p.users().to_vec());
        let want = (users.first() != Some(&u)).then(|| [&[u], users].concat());
        prop_assert_eq!(prepended, want);
    }
    Ok(())
}

/// Two paths and their users agree on every comparison between them.
fn check_pair_against_model(
    a: &BeliefPath,
    ua: &[UserId],
    b: &BeliefPath,
    ub: &[UserId],
) -> Result<(), TestCaseError> {
    prop_assert_eq!(a.cmp(b), ua.cmp(ub));
    prop_assert_eq!(a.partial_cmp(b), ua.partial_cmp(ub));
    prop_assert_eq!(a == b, ua == ub);
    prop_assert_eq!(a.is_prefix_of(b), ub.starts_with(ua));
    prop_assert_eq!(a.is_suffix_of(b), ub.ends_with(ua));
    prop_assert_eq!(
        a.is_proper_suffix_of(b),
        ua.len() < ub.len() && ub.ends_with(ua)
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// A `BeliefPath` of 0–8 users — inline up to five, spilled beyond —
    /// behaves as its `Vec<UserId>`: validation, ordering, equality,
    /// `CellHash` hashes, `Display` and `Debug`, and the path algebra.
    #[test]
    fn belief_path_matches_a_vec_model(
        raw in proptest::collection::vec(1..=MAX_USERS, 0..=8),
        ua in arb_users(),
        ub in arb_users(),
    ) {
        let raw: Vec<UserId> = raw.into_iter().map(UserId).collect();
        let repeats = raw.windows(2).any(|p| p[0] == p[1]);
        prop_assert_eq!(BeliefPath::new(raw.clone()).is_err(), repeats);
        let a = BeliefPath::new(ua.clone()).unwrap();
        let b = BeliefPath::new(ub.clone()).unwrap();
        check_path_against_model(&a, &ua)?;
        check_path_against_model(&b, &ub)?;
        check_pair_against_model(&a, &ua, &b, &ub)?;
        check_pair_against_model(&b, &ub, &a, &ua)?;
        // Against its own prefixes and suffixes, where equality, prefix
        // and suffix relations hold and lengths cross the inline bound.
        for (p, q) in a.prefixes().zip(a.suffixes()) {
            check_pair_against_model(&p, p.users(), &a, &ua)?;
            check_pair_against_model(&a, &ua, &q, q.users())?;
            check_pair_against_model(&q, q.users(), &b, &ub)?;
        }
        let copy = BeliefPath::new(ua.clone()).unwrap();
        check_pair_against_model(&a, &ua, &copy, &ua)?;
        prop_assert_eq!(CellHash::default().hash_one(&a), CellHash::default().hash_one(&copy));
    }
}

/// Text of 0–40 bytes: 0–24 ASCII bytes, then up to six characters of one
/// to four bytes each, so lengths around the 22-byte inline bound come up
/// often, with a multi-byte character straddling byte 22 among them.
fn arb_text() -> impl Strategy<Value = String> {
    const TAIL: [&str; 5] = ["a", "z", "é", "€", "🦅"];
    (0..=24usize, proptest::collection::vec(0..TAIL.len(), 0..=6)).prop_map(|(ascii, tail)| {
        let mut text: String = (0..ascii)
            .map(|i| (b'a' + (i % 26) as u8) as char)
            .collect();
        for c in tail {
            if text.len() + TAIL[c].len() <= 40 {
                text.push_str(TAIL[c]);
            }
        }
        text
    })
}

/// A string value and its text agree on everything a caller can see.
fn check_str_against_model(v: &Value, text: &str) -> Result<(), TestCaseError> {
    let hash = CellHash::default();
    let Value::Str(s) = v else {
        return Err(TestCaseError::fail(format!("{v:?} is not a string")));
    };
    prop_assert_eq!(s.is_inline(), text.len() <= 22, "{} bytes", text.len());
    prop_assert_eq!((s.as_str(), s.as_bytes()), (text, text.as_bytes()));
    prop_assert_eq!(v.as_str(), Some(text));
    prop_assert_eq!(v.to_string(), text);
    prop_assert_eq!(format!("{s:>44}|{s:<3}"), format!("{text:>44}|{text:<3}"));
    prop_assert_eq!(format!("{v:?}"), format!("Str({text:?})"));
    // `Value`'s hash is its cell's: the type tag, then the text's bytes.
    prop_assert_eq!(hash.hash_one(v), hash.hash_one((3u8, text.as_bytes())));
    prop_assert_eq!(hash.hash_one(v), hash.hash_one(v.as_cell()));
    prop_assert_eq!(hash.hash_one(s), hash.hash_one(Str::new(text)));
    let back = v.as_cell().to_value();
    prop_assert_eq!(&back, v);
    prop_assert_eq!(back.as_str(), Some(text));
    // The WAL's value encoding: the string tag, the length, the bytes.
    let mut enc = Enc::new();
    enc.put_value(v);
    let bytes = enc.into_bytes();
    prop_assert_eq!(
        &bytes,
        &[&[3, text.len() as u8][..], text.as_bytes()].concat()
    );
    let decoded = Dec::new(&bytes).take_value().unwrap();
    prop_assert_eq!(decoded.as_str(), Some(text));
    prop_assert_eq!(&decoded, v);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// A string `Value` of 0–40 bytes — inline up to 22, shared beyond —
    /// behaves as its `String`: equality, order, `CellHash` hashes,
    /// `Display`, `Debug`, the borrowed cell and the WAL codec.
    #[test]
    fn value_str_matches_a_string_model(ta in arb_text(), tb in arb_text()) {
        let (a, b) = (Value::str(&ta), Value::str(&tb));
        check_str_against_model(&a, &ta)?;
        check_str_against_model(&b, &tb)?;
        for (x, tx, y, ty) in [(&a, &ta, &b, &tb), (&b, &tb, &a, &ta), (&a, &ta, &a, &ta)] {
            prop_assert_eq!(x == y, tx == ty);
            prop_assert_eq!(x.cmp(y), tx.cmp(ty));
            prop_assert_eq!(x.as_cell().cmp(&y.as_cell()), tx.cmp(ty));
            let (Value::Str(sx), Value::Str(sy)) = (x, y) else { unreachable!() };
            prop_assert_eq!(sx.cmp(sy), tx.cmp(ty));
        }
        // Every prefix that ends on a character boundary crosses the bound.
        for end in (0..=ta.len()).filter(|&i| ta.is_char_boundary(i)) {
            check_str_against_model(&Value::str(&ta[..end]), &ta[..end])?;
        }
        let copy = Value::str(ta.clone());
        prop_assert_eq!(CellHash::default().hash_one(&a), CellHash::default().hash_one(&copy));
        prop_assert_eq!(&a, &copy);
    }
}
