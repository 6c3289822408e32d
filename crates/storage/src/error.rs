//! Error taxonomy for the storage engine.

use std::fmt;

/// Errors raised by the storage engine.
///
/// Every public fallible operation in this crate returns
/// [`Result<T, StorageError>`](StorageError). The variants are deliberately
/// coarse: callers in `beliefdb-core` either propagate them or treat them as
/// internal invariant violations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StorageError {
    /// A table with this name already exists in the catalog.
    TableExists(String),
    /// No table with this name exists in the catalog.
    NoSuchTable(String),
    /// No column with this name exists in the referenced table.
    NoSuchColumn { table: String, column: String },
    /// A row's arity does not match the table schema.
    ArityMismatch {
        table: String,
        expected: usize,
        got: usize,
    },
    /// Inserting the row would violate the table's primary-key constraint.
    DuplicateKey { table: String, key: String },
    /// An index with this specification already exists.
    IndexExists { table: String, name: String },
    /// No index with this name exists on the table.
    NoSuchIndex { table: String, name: String },
    /// A row id referenced a deleted or out-of-range slot.
    InvalidRowId { table: String, row_id: usize },
    /// The table's heap has used every slot its indexes can address
    /// (slots are never reused, so deletes do not free any).
    TableFull { table: String, max_slots: usize },
    /// An expression referenced a column index beyond the row arity.
    ColumnOutOfRange { index: usize, arity: usize },
    /// A query plan is malformed (arity mismatches between operators, etc.).
    PlanError(String),
    /// A Datalog program is malformed (unsafe rule, unknown relation, ...).
    DatalogError(String),
    /// An I/O failure in the durability layer (WAL append, snapshot write,
    /// directory scan). Carries the rendered `std::io::Error` — the error
    /// type itself stays `Clone`/`Eq` for the layers above.
    Io(String),
    /// On-disk state failed validation during recovery (bad magic, CRC
    /// mismatch beyond the torn tail, truncated snapshot, LSN gap).
    Corrupt(String),
    /// The durable directory is open in another live engine, which holds
    /// the exclusive lock on its `LOCK` file.
    Locked(String),
    /// A mutation was logged but failed to apply, so the store in memory
    /// may disagree with its log: no snapshot may be taken of it, and the
    /// log stays for the next open to replay.
    Diverged(String),
    /// The name is reserved for system objects (the `sys.` namespace) or
    /// the operation is not supported on a virtual system table.
    ReservedName(String),
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::TableExists(name) => write!(f, "table `{name}` already exists"),
            StorageError::NoSuchTable(name) => write!(f, "no such table `{name}`"),
            StorageError::NoSuchColumn { table, column } => {
                write!(f, "no column `{column}` in table `{table}`")
            }
            StorageError::ArityMismatch {
                table,
                expected,
                got,
            } => {
                write!(
                    f,
                    "arity mismatch for `{table}`: expected {expected} values, got {got}"
                )
            }
            StorageError::DuplicateKey { table, key } => {
                write!(f, "duplicate primary key {key} in table `{table}`")
            }
            StorageError::IndexExists { table, name } => {
                write!(f, "index `{name}` already exists on table `{table}`")
            }
            StorageError::NoSuchIndex { table, name } => {
                write!(f, "no index `{name}` on table `{table}`")
            }
            StorageError::InvalidRowId { table, row_id } => {
                write!(f, "invalid row id {row_id} for table `{table}`")
            }
            StorageError::TableFull { table, max_slots } => {
                write!(f, "table `{table}` is full: all {max_slots} row slots used")
            }
            StorageError::ColumnOutOfRange { index, arity } => {
                write!(f, "column index {index} out of range for arity {arity}")
            }
            StorageError::PlanError(msg) => write!(f, "plan error: {msg}"),
            StorageError::DatalogError(msg) => write!(f, "datalog error: {msg}"),
            StorageError::Io(msg) => write!(f, "io error: {msg}"),
            StorageError::Corrupt(msg) => write!(f, "corrupt durable state: {msg}"),
            StorageError::Locked(msg) => write!(f, "durable directory in use: {msg}"),
            StorageError::Diverged(msg) => write!(f, "store diverged from its log: {msg}"),
            StorageError::ReservedName(msg) => write!(f, "reserved system name: {msg}"),
        }
    }
}

impl StorageError {
    /// The stable `BD0xx` diagnostic code carried by this error, if the
    /// raising site attached one (rendered as `[BDnnn]` inside the
    /// message — see [`crate::sema::Diagnostic::code_message`]). Tests
    /// and tools match on this instead of message text.
    pub fn code(&self) -> Option<&str> {
        let msg = match self {
            StorageError::PlanError(m)
            | StorageError::DatalogError(m)
            | StorageError::ReservedName(m) => m,
            _ => return None,
        };
        let start = msg.find("[BD")?;
        let rest = &msg[start + 1..];
        let end = rest.find(']')?;
        Some(&rest[..end])
    }
}

impl std::error::Error for StorageError {}

impl From<std::io::Error> for StorageError {
    fn from(e: std::io::Error) -> Self {
        StorageError::Io(e.to_string())
    }
}

/// Convenience alias used throughout the crate.
pub type Result<T, E = StorageError> = std::result::Result<T, E>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let err = StorageError::NoSuchTable("Sightings".into());
        assert_eq!(err.to_string(), "no such table `Sightings`");
        let err = StorageError::ArityMismatch {
            table: "V".into(),
            expected: 5,
            got: 4,
        };
        assert!(err.to_string().contains("expected 5"));
        let err = StorageError::DuplicateKey {
            table: "D".into(),
            key: "Int(3)".into(),
        };
        assert!(err.to_string().contains("duplicate primary key"));
    }

    #[test]
    fn error_is_std_error() {
        fn takes_error<E: std::error::Error>(_: E) {}
        takes_error(StorageError::PlanError("bad".into()));
    }
}
