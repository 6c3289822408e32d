//! # beliefdb-sql — BeliefSQL
//!
//! The SQL surface syntax of the paper's Fig. 1: standard SQL `SELECT` /
//! `INSERT` / `DELETE` / `UPDATE` extended with `(BELIEF user)+ not?`
//! prefixes on relation names. Statements lower onto
//! [`beliefdb_core::Bdms`]: selects become belief conjunctive queries
//! (evaluated through the Algorithm 1 translation), DML becomes
//! statement-level updates (Algorithms 2–4).
//!
//! ```
//! use beliefdb_sql::Session;
//! use beliefdb_core::ExternalSchema;
//!
//! let schema = ExternalSchema::new()
//!     .with_relation("Sightings", &["sid", "uid", "species", "date", "location"]);
//! let mut session = Session::new(schema).unwrap();
//! session.add_user("Alice").unwrap();
//! session.add_user("Bob").unwrap();
//!
//! // Carol's sighting (base data) and Bob's disagreement (a belief).
//! session.execute("insert into Sightings values \
//!     ('s1','Carol','bald eagle','6-14-08','Lake Forest')").unwrap();
//! session.execute("insert into BELIEF 'Bob' not Sightings values \
//!     ('s1','Carol','bald eagle','6-14-08','Lake Forest')").unwrap();
//!
//! // Alice believes the sighting by default; Bob does not.
//! let result = session.query(
//!     "select U.name, S.species from Users as U, BELIEF U.uid Sightings as S"
//! ).unwrap();
//! let shown = result.to_string();
//! assert!(shown.contains("Alice"));
//! assert!(!shown.contains("Bob"));
//! ```

pub mod ast;
pub mod error;
pub mod lexer;
pub mod lower;
pub mod parser;
pub mod session;

pub use ast::Statement;
pub use beliefdb_storage::sema::{Diagnostic, Severity};
pub use error::{Result, SqlError};
pub use parser::parse;
pub use session::{ExecResult, Session};

#[cfg(test)]
mod tests {
    use super::*;
    use beliefdb_core::{naturemapping_schema, running_example, Bdms};
    use beliefdb_storage::row;

    /// A session preloaded with the paper's running example via SQL — the
    /// eight inserts i1–i8 of Sect. 2, exactly as printed.
    fn paper_session() -> Session {
        let mut s = Session::new(naturemapping_schema()).unwrap();
        s.add_user("Alice").unwrap();
        s.add_user("Bob").unwrap();
        s.add_user("Carol").unwrap();
        let inserts = [
            // i1
            "insert into Sightings values ('s1','Carol','bald eagle','6-14-08','Lake Forest')",
            // i2
            "insert into BELIEF 'Bob' not Sightings values ('s1','Carol','bald eagle','6-14-08','Lake Forest')",
            // i3
            "insert into BELIEF 'Bob' not Sightings values ('s1','Carol','fish eagle','6-14-08','Lake Forest')",
            // i4
            "insert into BELIEF 'Alice' Sightings values ('s2','Alice','crow','6-14-08','Lake Placid')",
            // i5
            "insert into BELIEF 'Alice' Comments values ('c1','found feathers','s2')",
            // i6
            "insert into BELIEF 'Bob' Sightings values ('s2','Alice','raven','6-14-08','Lake Placid')",
            // i7
            "insert into BELIEF 'Bob' BELIEF 'Alice' Comments values ('c2','black feathers','s2')",
            // i8
            "insert into BELIEF 'Bob' Comments values ('c2','purple-black feathers','s2')",
        ];
        for sql in inserts {
            let out = s.execute(sql).unwrap();
            assert!(matches!(
                out,
                ExecResult::Inserted(beliefdb_core::internal::InsertOutcome::Inserted)
            ));
        }
        s
    }

    #[test]
    fn sql_ingest_matches_programmatic_running_example() {
        let session = paper_session();
        let (reference, ..) = running_example();
        let via_sql = session.bdms().to_belief_database().unwrap();
        assert_eq!(via_sql.statements(), reference.statements());
    }

    #[test]
    fn paper_query_q1() {
        // "Sightings believed by Bob" (the paper prints Lake Forest but the
        // answer tuple is the Lake Placid raven; we use the location that
        // matches the stated answer).
        let session = paper_session();
        let result = session
            .query(
                "select S.sid, S.uid, S.species \
                 from Users as U, BELIEF U.uid Sightings as S \
                 where U.name = 'Bob' and S.location = 'Lake Placid'",
            )
            .unwrap();
        assert_eq!(result.rows(), &[row!["s2", "Alice", "raven"]]);
        assert_eq!(result.columns(), &["S.sid", "S.uid", "S.species"]);
    }

    #[test]
    fn paper_query_q2() {
        let session = paper_session();
        let result = session
            .query(
                "select U2.name, S1.species, S2.species \
                 from Users as U1, Users as U2, \
                      BELIEF U1.uid Sightings as S1, \
                      BELIEF U2.uid Sightings as S2 \
                 where U1.name = 'Alice' and S1.sid = S2.sid \
                   and S1.species <> S2.species",
            )
            .unwrap();
        assert_eq!(result.rows(), &[row!["Bob", "crow", "raven"]]);
    }

    #[test]
    fn negated_from_item_finds_disagreements() {
        // Example 15 in SQL: who disagrees with one of Alice's beliefs?
        let session = paper_session();
        let result = session
            .query(
                "select U2.name \
                 from Users as U1, Users as U2, \
                      BELIEF U1.uid Sightings as S1, \
                      BELIEF U2.uid not Sightings as S2 \
                 where U1.name = 'Alice' \
                   and S1.sid = S2.sid and S1.uid = S2.uid \
                   and S1.species = S2.species and S1.date = S2.date \
                   and S1.location = S2.location",
            )
            .unwrap();
        assert_eq!(result.rows(), &[row!["Bob"]]);
    }

    #[test]
    fn underconstrained_negation_is_a_clear_error() {
        let session = paper_session();
        let err = session
            .query(
                "select U.name from Users as U, BELIEF U.uid not Sightings as S \
                 where S.sid = 's1'",
            )
            .unwrap_err();
        assert!(err.to_string().contains("every"), "got: {err}");
    }

    #[test]
    fn wildcard_select() {
        let session = paper_session();
        let result = session.query("select * from Comments").unwrap();
        // Root world has no comments (all comment beliefs are annotated).
        assert!(result.rows().is_empty());
        assert_eq!(
            result.columns(),
            &["Comments.cid", "Comments.comment", "Comments.sid"]
        );

        let result = session
            .query("select * from BELIEF 'Alice' Comments")
            .unwrap();
        assert_eq!(result.rows(), &[row!["c1", "found feathers", "s2"]]);
    }

    #[test]
    fn delete_retracts_belief() {
        let mut session = paper_session();
        // Bob retracts his disagreement with the bald eagle.
        let out = session
            .execute("delete from BELIEF 'Bob' not Sightings where species = 'bald eagle'")
            .unwrap();
        assert_eq!(out, ExecResult::Deleted(1));
        // Only the exact-tuple negative blocked the bald eagle, so the
        // default belief flows back in (his fish-eagle negative has the same
        // key but is a different tuple).
        let result = session
            .query(
                "select S.species from Users as U, BELIEF U.uid Sightings as S \
                 where U.name = 'Bob' and S.sid = 's1'",
            )
            .unwrap();
        assert_eq!(result.rows(), &[row!["bald eagle"]]);
    }

    #[test]
    fn update_revises_belief() {
        let mut session = paper_session();
        let out = session
            .execute("update BELIEF 'Bob' Sightings set species = 'heron' where sid = 's2'")
            .unwrap();
        assert_eq!(out, ExecResult::Updated(1));
        let result = session
            .query(
                "select S.species from Users as U, BELIEF U.uid Sightings as S \
                 where U.name = 'Bob' and S.sid = 's2'",
            )
            .unwrap();
        assert_eq!(result.rows(), &[row!["heron"]]);
    }

    #[test]
    fn contradictory_constants_yield_empty_result() {
        let session = paper_session();
        let result = session
            .query("select S.sid from Sightings as S where S.sid = 's1' and S.sid = 's2'")
            .unwrap();
        assert!(result.rows().is_empty());
        // literal-vs-literal contradiction too
        let result = session
            .query("select S.sid from Sightings as S where 'a' = 'b'")
            .unwrap();
        assert!(result.rows().is_empty());
    }

    #[test]
    fn lower_errors() {
        let mut session = paper_session();
        // unknown table
        assert!(session.query("select * from Nope").is_err());
        // duplicate alias
        assert!(session
            .query("select * from Sightings as S, Comments as S")
            .is_err());
        // unknown alias in select list
        assert!(session.query("select Z.sid from Sightings as S").is_err());
        // ambiguous unqualified column
        assert!(session
            .query("select sid from Sightings as A, Sightings as B")
            .is_err());
        // BELIEF on the Users catalog
        assert!(session.query("select * from BELIEF 'Bob' Users").is_err());
        // unknown user name
        assert!(session
            .execute("insert into BELIEF 'Zoe' Sightings values ('x','y','z','d','l')")
            .is_err());
        // column user ref in DML
        assert!(session
            .execute("insert into BELIEF U.uid Sightings values ('x','y','z','d','l')")
            .is_err());
        // updating the key
        assert!(session.execute("update Sightings set sid = 'zz'").is_err());
        // query() refuses DML
        assert!(session
            .query("insert into Sightings values ('x','y','z','d','l')")
            .is_err());
    }

    #[test]
    fn unqualified_columns_resolve_when_unique() {
        let session = paper_session();
        let result = session
            .query("select species from BELIEF 'Bob' Sightings where sid = 's2'")
            .unwrap();
        assert_eq!(result.rows(), &[row!["raven"]]);
    }

    #[test]
    fn exec_result_display_renders_table() {
        let session = paper_session();
        let result = session
            .query("select S.sid, S.species from BELIEF 'Bob' Sightings as S")
            .unwrap();
        let shown = result.to_string();
        assert!(shown.contains("S.sid"));
        assert!(shown.contains("raven"));
        assert!(shown.contains("(1 row)"));
    }

    #[test]
    fn from_bdms_wraps_existing_instance() {
        let (db, ..) = running_example();
        let bdms = Bdms::from_belief_database(&db).unwrap();
        let session = Session::from_bdms(bdms);
        let result = session
            .query("select S.species from BELIEF 'Alice' Sightings as S where S.sid = 's2'")
            .unwrap();
        assert_eq!(result.rows(), &[row!["crow"]]);
        // bdms() / bdms_mut() accessors
        assert_eq!(session.bdms().users().len(), 3);
    }
}

#[cfg(test)]
mod explain_tests {
    use super::*;
    use beliefdb_core::naturemapping_schema;

    #[test]
    fn explain_shows_bcq_and_datalog() {
        let mut s = Session::new(naturemapping_schema()).unwrap();
        s.add_user("Alice").unwrap();
        s.add_user("Bob").unwrap();
        let text = s
            .explain(
                "select S.species from Users as U, BELIEF U.uid Sightings as S \
                 where U.name = 'Bob'",
            )
            .unwrap();
        assert!(text.contains("belief conjunctive query"), "{text}");
        assert!(text.contains("Algorithm 1"), "{text}");
        assert!(text.contains("__bcq_T1"), "{text}");
        // Each user's valuation of `U.uid`, mapped to its world (both
        // resolve to the root), is a fact the temp rule joins.
        assert!(text.contains("__bcq_W1(1, 0) :- ."), "{text}");
        assert!(text.contains("__bcq_W1(2, 0) :- ."), "{text}");
        assert!(
            !text.contains("E("),
            "no stored world relation is read: {text}"
        );
        assert!(text.contains("__bcq_answer"), "{text}");
        // DML is rejected.
        assert!(s.explain("update Sightings set species = 'x'").is_err());
        // Contradictions short-circuit.
        let text = s
            .explain("select S.sid from Sightings as S where 'a' = 'b'")
            .unwrap();
        assert!(text.contains("empty result"));
    }
}
