//! # beliefdb — belief-annotated databases
//!
//! Facade crate re-exporting the whole system:
//!
//! * [`storage`] — the embedded relational engine substrate,
//! * [`core`] — the belief-database model, canonical Kripke structure,
//!   relational encoding and BCQ evaluation (the paper's contribution),
//! * [`sql`] — the BeliefSQL surface syntax,
//! * [`gen`] — the synthetic annotation workload generator used by the
//!   experiment harness.
//!
//! This is a from-scratch Rust reproduction of *"Believe It or Not: Adding
//! Belief Annotations to Databases"* (Gatterbauer, Balazinska,
//! Khoussainova, Suciu; VLDB 2009). See `README.md` for a tour and the
//! reproduced evaluation (Table 1, Figure 6, Table 2), and `docs/` for
//! the engine's layers: execution, the optimizer, persistence, the
//! static analyzer and observability.
//!
//! ## Quick start
//!
//! ```
//! use beliefdb::sql::Session;
//! use beliefdb::core::ExternalSchema;
//!
//! let schema = ExternalSchema::new()
//!     .with_relation("Sightings", &["sid", "uid", "species", "date", "location"]);
//! let mut session = Session::new(schema).unwrap();
//! session.add_user("Alice").unwrap();
//! session.add_user("Bob").unwrap();
//!
//! session.execute("insert into BELIEF 'Alice' Sightings values \
//!     ('s2','Alice','crow','6-14-08','Lake Placid')").unwrap();
//! session.execute("insert into BELIEF 'Bob' Sightings values \
//!     ('s2','Alice','raven','6-14-08','Lake Placid')").unwrap();
//!
//! let conflicts = session.query(
//!     "select U1.name, U2.name, S1.species, S2.species \
//!      from Users as U1, Users as U2, \
//!           BELIEF U1.uid Sightings as S1, BELIEF U2.uid Sightings as S2 \
//!      where S1.sid = S2.sid and S1.species <> S2.species").unwrap();
//! assert_eq!(conflicts.rows().len(), 2); // both directions of the dispute
//! ```

pub use beliefdb_core as core;
pub use beliefdb_gen as gen;
pub use beliefdb_sql as sql;
pub use beliefdb_storage as storage;

/// The crate version (workspace-wide).
pub const VERSION: &str = env!("CARGO_PKG_VERSION");

#[cfg(test)]
mod tests {
    #[test]
    fn version_is_set() {
        assert!(!super::VERSION.is_empty());
    }
}
