//! # beliefdb-core
//!
//! A faithful implementation of **belief databases** — "Believe It or Not:
//! Adding Belief Annotations to Databases" (Gatterbauer, Balazinska,
//! Khoussainova, Suciu; VLDB 2009).
//!
//! A belief database annotates ordinary relational tuples with *belief
//! statements* `w t^s`: a belief path `w` (a sequence of users, e.g.
//! "Bob believes Alice believes"), a ground tuple `t`, and a sign. The
//! semantics is a fragment of multi-agent epistemic logic with the
//! *message-board assumption*: by default every user believes every stated
//! belief, unless they explicitly contradict it.
//!
//! ## Layer map (paper section → module)
//!
//! | Paper | Module |
//! |---|---|
//! | Sect. 3.1 belief worlds, Γ1/Γ2, Prop. 7 | [`world`] |
//! | Sect. 3.2 belief databases, `Û*` paths | [`database`], [`path`], [`statement`] |
//! | Def. 9–12 message-board closure `D̄` | [`closure`] |
//! | Sect. 4 Kripke structures, Def. 16/Thm. 17 | [`kripke`], [`canonical`] |
//! | Sect. 5.1 internal schema `R*` + Alg. 2–4 | [`internal`] |
//! | Sect. 3.3 / 5.2 BCQ + Algorithm 1 | [`bcq`] |
//! | The prototype BDMS | [`bdms`] |
//!
//! ## Quick start
//!
//! ```
//! use beliefdb_core::prelude::*;
//! use beliefdb_storage::row;
//!
//! let schema = ExternalSchema::new().with_relation("S", &["sid", "species"]);
//! let mut bdms = Bdms::new(schema).unwrap();
//! let alice = bdms.add_user("Alice").unwrap();
//! let bob = bdms.add_user("Bob").unwrap();
//!
//! // Alice believes she saw a crow; Bob believes it was a raven.
//! let s = bdms.schema().relation_id("S").unwrap();
//! bdms.insert(BeliefPath::user(alice), s, row!["s1", "crow"], Sign::Pos).unwrap();
//! bdms.insert(BeliefPath::user(bob), s, row!["s1", "raven"], Sign::Pos).unwrap();
//!
//! // Bob's world entails the *unstated* negative for the crow tuple.
//! let crow = GroundTuple::new(s, row!["s1", "crow"]);
//! assert!(bdms.entails(&BeliefStatement::negative(BeliefPath::user(bob), crow)).unwrap());
//! ```

pub mod bcq;
pub mod bdms;
pub mod canonical;
pub mod closure;
pub mod database;
pub mod error;
pub mod ids;
pub mod internal;
pub mod kripke;
pub mod path;
pub mod persist;
pub mod schema;
pub mod statement;
pub mod world;

pub use bdms::{Bdms, PlanCacheStats};
pub use canonical::CanonicalKripke;
pub use closure::Closure;
pub use database::{running_example, BeliefDatabase};
pub use error::{BeliefError, Result};
pub use ids::{RelId, Tid, UserId, Wid};
pub use internal::DefaultPolicy;
pub use kripke::Kripke;
pub use path::BeliefPath;
pub use persist::{PersistOptions, WalStats};
pub use schema::{naturemapping_schema, ExternalSchema, RelationDef};
pub use statement::{BeliefStatement, GroundTuple, Sign};
pub use world::BeliefWorld;

/// Commonly used items, for glob import in examples and tests.
pub mod prelude {
    pub use crate::bcq::{Bcq, PathElem, QueryTerm, Subgoal, UserAtom};
    pub use crate::bdms::Bdms;
    pub use crate::canonical::CanonicalKripke;
    pub use crate::closure::Closure;
    pub use crate::database::BeliefDatabase;
    pub use crate::error::{BeliefError, Result};
    pub use crate::ids::{RelId, Tid, UserId, Wid};
    pub use crate::path::BeliefPath;
    pub use crate::schema::{ExternalSchema, RelationDef};
    pub use crate::statement::{BeliefStatement, GroundTuple, Sign};
    pub use crate::world::BeliefWorld;
}

/// The `Lazy` default policy (Sect. 6.3) against `Eager` on the running
/// example, at the level of the [`Bdms`] facade.
#[cfg(test)]
mod lazy {
    mod tests {
        use crate::bcq::dsl::*;
        use crate::bcq::Bcq;
        use crate::database::running_example;
        use crate::internal::InsertOutcome;
        use crate::path::path;
        use crate::prelude::*;
        use crate::DefaultPolicy;
        use beliefdb_storage::row;

        /// The running example under each policy.
        fn stores() -> (Bdms, Bdms) {
            let (db, ..) = running_example();
            let lazy = Bdms::from_belief_database(&db).unwrap();
            assert_eq!(lazy.policy(), DefaultPolicy::Lazy);
            let mut eager = Bdms::with_policy(db.schema().clone(), DefaultPolicy::Eager).unwrap();
            for u in db.users() {
                eager.add_user(db.user_name(u).unwrap()).unwrap();
            }
            for stmt in db.statements() {
                eager.insert_statement(&stmt).unwrap();
            }
            (lazy, eager)
        }

        fn sighting(bdms: &Bdms, values: beliefdb_storage::Row) -> GroundTuple {
            GroundTuple::new(bdms.schema().relation_id("Sightings").unwrap(), values)
        }

        #[test]
        fn lazy_entailment_matches_eager() {
            let (lazy, eager) = stores();
            let paths = [
                path(&[1]),
                path(&[2]),
                path(&[2, 1]),
                path(&[1, 2]),
                path(&[3, 2, 1]),
            ];
            for t in eager.to_belief_database().unwrap().mentioned_tuples() {
                for p in &paths {
                    for sign in [Sign::Pos, Sign::Neg] {
                        let stmt = BeliefStatement::new(p.clone(), t.clone(), sign);
                        assert_eq!(
                            lazy.entails(&stmt).unwrap(),
                            eager.entails(&stmt).unwrap(),
                            "lazy vs eager on {stmt}"
                        );
                    }
                }
                assert_eq!(
                    lazy.world(&path(&[3, 2, 1])).unwrap(),
                    eager.world(&path(&[3, 2, 1])).unwrap()
                );
            }
        }

        #[test]
        fn lazy_queries_match_eager_queries() {
            let (lazy, eager) = stores();
            let (_, alice, _, _) = running_example();
            let s = lazy.schema().relation_id("Sightings").unwrap();
            let args = vec![qv("y"), qv("z"), qv("u"), qv("v"), qv("w")];
            let q = Bcq::builder(vec![qv("x")])
                .negative(vec![pv("x")], s, args.clone())
                .positive(vec![pu(alice)], s, args)
                .build(lazy.schema())
                .unwrap();
            assert_eq!(lazy.query(&q).unwrap(), eager.query(&q).unwrap());
            assert_eq!(lazy.query(&q).unwrap(), lazy.query_naive(&q).unwrap());
        }

        #[test]
        fn lazy_inserts_are_cheap_and_invalidate() {
            let (mut lazy, _) = stores();
            let heron = sighting(
                &lazy,
                row!["s9", "Alice", "heron", "7-01-08", "Lake Placid"],
            );
            let s = heron.rel;
            let q = Bcq::builder(vec![qv("sid")])
                .positive(
                    vec![pu(UserId(2)), pu(UserId(1))],
                    s,
                    vec![qv("sid"), qany(), qany(), qany(), qany()],
                )
                .build(lazy.schema())
                .unwrap();
            let before = lazy.query(&q).unwrap();
            let v_rows = |b: &Bdms| b.storage().table("V__Sightings").unwrap().len();
            let rows = v_rows(&lazy);
            let out = lazy
                .insert_statement(&BeliefStatement::positive(
                    BeliefPath::root(),
                    heron.clone(),
                ))
                .unwrap();
            assert_eq!(out, InsertOutcome::Inserted);
            // One row, however many worlds inherit it.
            assert_eq!(v_rows(&lazy), rows + 1);
            // The new fact flows through the suffix chain, and the cached
            // plan of the query is not served stale.
            assert!(lazy
                .entails(&BeliefStatement::positive(path(&[2, 1]), heron))
                .unwrap());
            let after = lazy.query(&q).unwrap();
            assert_eq!(after.len(), before.len() + 1, "{after:?}");
            assert!(after.contains(&row!["s9"]));
        }

        #[test]
        fn lazy_rejects_inconsistent_inserts() {
            let (mut lazy, _) = stores();
            // Bob explicitly believes raven@s2; a second positive on the
            // same key is rejected, as by Algorithm 4 on an eager store.
            let heron = sighting(
                &lazy,
                row!["s2", "Alice", "heron", "6-14-08", "Lake Placid"],
            );
            let out = lazy
                .insert_statement(&BeliefStatement::positive(path(&[2]), heron))
                .unwrap();
            assert_eq!(out, InsertOutcome::Rejected);
            // Duplicates are reported as such, and an inherited tuple
            // stated again is a promotion.
            let raven = sighting(
                &lazy,
                row!["s2", "Alice", "raven", "6-14-08", "Lake Placid"],
            );
            let out = lazy
                .insert_statement(&BeliefStatement::positive(path(&[2]), raven.clone()))
                .unwrap();
            assert_eq!(out, InsertOutcome::AlreadyExplicit);
            let out = lazy
                .insert_statement(&BeliefStatement::positive(path(&[3, 2]), raven))
                .unwrap();
            assert_eq!(out, InsertOutcome::MadeExplicit);
        }

        #[test]
        fn lazy_delete_restores_defaults() {
            let (mut lazy, _) = stores();
            let s11 = sighting(
                &lazy,
                row!["s1", "Carol", "bald eagle", "6-14-08", "Lake Forest"],
            );
            let stmt = BeliefStatement::negative(path(&[2]), s11.clone());
            assert!(lazy.delete_statement(&stmt).unwrap());
            assert!(!lazy.delete_statement(&stmt).unwrap());
            assert!(lazy
                .entails(&BeliefStatement::positive(path(&[2]), s11))
                .unwrap());
        }

        #[test]
        fn lazy_footprint_is_much_smaller_than_eager() {
            // The headline claim of Sect. 6.3: `V` keeps the explicit
            // statements only.
            let (lazy, eager) = stores();
            let explicit = lazy.to_belief_database().unwrap().len();
            let v_rows = |b: &Bdms| -> usize {
                ["V__Sightings", "V__Comments"]
                    .iter()
                    .map(|t| b.storage().table(t).unwrap().len())
                    .sum()
            };
            assert_eq!(v_rows(&lazy), explicit);
            assert_eq!(v_rows(&eager), 12);
            assert_eq!(
                eager.stats().total_tuples - lazy.stats().total_tuples,
                12 - explicit
            );
        }
    }
}
