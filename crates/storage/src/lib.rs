//! # beliefdb-storage
//!
//! An embedded, in-memory relational engine: the substrate on which
//! `beliefdb-core` materializes the canonical Kripke representation of a
//! belief database.
//!
//! The paper ("Believe It or Not: Adding Belief Annotations to Databases",
//! VLDB 2009) runs its prototype on Microsoft SQL Server 2005; this crate is
//! the from-scratch substitute. It provides exactly the relational machinery
//! Sections 5.1–5.3 of the paper rely on:
//!
//! * **tables** with a distinguished first-column primary key (the paper's
//!   schema convention) or multiset semantics for the internal `V`/`E`
//!   relations, plus secondary hash indexes ("clustered indexes over the
//!   internal keys"),
//! * **logical plans** with selections, projections, equi/theta joins,
//!   anti-joins, distinct and union,
//! * a **non-recursive Datalog** layer ([`datalog`]) — the target language of
//!   the paper's query translation (Algorithm 1), including the "nested
//!   disjunctions with negation" required for negative subgoals.
//!
//! ## Quick tour
//!
//! ```
//! use beliefdb_storage::{Database, TableSchema, Plan, Expr, execute, row};
//!
//! let mut db = Database::new();
//! let t = db.create_table(TableSchema::with_key("Users", &["uid", "name"])).unwrap();
//! t.insert(row![1, "Alice"]).unwrap();
//! t.insert(row![2, "Bob"]).unwrap();
//!
//! let plan = Plan::scan("Users").select(Expr::col_eq_lit(1, "Bob")).project_cols(&[0]);
//! assert_eq!(execute(&db, &plan).unwrap(), vec![row![2]]);
//! ```

pub mod catalog;
pub mod column;
pub mod datalog;
pub mod error;
pub mod exec;
pub mod expr;
mod heap;
#[cfg(test)]
mod heap_model_tests;
pub mod index;
#[cfg(test)]
mod index_model_tests;
pub mod obs;
pub mod opt;
pub mod persist;
pub mod plan;
pub mod row;
pub mod schema;
pub mod sema;
pub mod table;
pub mod value;

pub use catalog::{Database, VirtualTable, SYS_PREFIX};
pub use column::{Bitmap, Column, ColumnSet};
pub use error::{Result, StorageError};
pub use exec::{
    execute, execute_materialized, spill_points, stream_chunks, Chunk, ChunkStream, Executor,
    SpillOptions, BATCH_SIZE, SPILL_PARTITIONS,
};
pub use expr::{CmpOp, ColumnSource, Expr};
pub use index::{CellHash, RowId};
pub use obs::{
    metrics, Metric, MetricsSnapshot, Profile, QueryTrace, Recorder, SlowLog, SpanRecord,
    StatementObs, StatementStats,
};
pub use opt::{optimize, StatsCatalog};
pub use persist::{PersistEngine, PersistOptions, WalStats};
pub use plan::Plan;
pub use row::{Projector, Row};
pub use schema::{ColumnDef, KeyMode, TableSchema};
pub use sema::{lint_program, set_verify, verify_enabled, verify_plan, Diagnostic, Severity};
pub use table::{IndexId, Table};
pub use value::{AsCell, Cell, Str, Value};
