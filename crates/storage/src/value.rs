//! Dynamically-typed scalar values.
//!
//! A [`Value`] is what crosses the engine's API: cells of the rows callers
//! insert, of query results and of lookup keys. Tables do not store
//! `Value`s — the column heap (`crate::heap`) keeps integers unboxed and
//! strings as dictionary codes — and hand out either materialized `Value`s
//! or a borrowed [`Cell`]. Strings are reference-counted (`Arc<str>`), so
//! materializing a cell of a string column is a reference-count bump on
//! the table's dictionary entry, never a copy of the text.

use std::cmp::Ordering;
use std::fmt;
use std::sync::Arc;

/// A dynamically-typed scalar value.
#[derive(Debug, Clone)]
pub enum Value {
    /// SQL-style NULL. Compares equal to itself (we need deterministic
    /// set semantics for belief worlds, not three-valued logic).
    Null,
    /// Boolean.
    Bool(bool),
    /// 64-bit signed integer.
    Int(i64),
    /// Interned UTF-8 string.
    Str(Arc<str>),
}

impl Value {
    /// Build a string value.
    pub fn str(s: impl AsRef<str>) -> Self {
        Value::Str(Arc::from(s.as_ref()))
    }

    /// Build an integer value.
    pub fn int(i: i64) -> Self {
        Value::Int(i)
    }

    /// True iff this is [`Value::Null`].
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Extract an integer, if this value is one.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// Extract a string slice, if this value is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Extract a boolean, if this value is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// This value as a borrowed [`Cell`].
    pub fn as_cell(&self) -> Cell<'_> {
        match self {
            Value::Null => Cell::Null,
            Value::Bool(b) => Cell::Bool(*b),
            Value::Int(i) => Cell::Int(*i),
            Value::Str(s) => Cell::Str(s),
        }
    }
}

/// One cell of a table, borrowed: what [`crate::table::Table::cell`] hands
/// out without allocating or touching a reference count. Equality and
/// hashing agree with [`Value`]'s (`Value`'s `Hash` *is* this one).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cell<'a> {
    Null,
    Bool(bool),
    Int(i64),
    Str(&'a Arc<str>),
}

impl<'a> Cell<'a> {
    /// Extract an integer, if this cell holds one.
    pub fn as_int(self) -> Option<i64> {
        match self {
            Cell::Int(i) => Some(i),
            _ => None,
        }
    }

    /// Extract a string slice, if this cell holds one.
    pub fn as_str(self) -> Option<&'a str> {
        match self {
            Cell::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Extract a boolean, if this cell holds one.
    pub fn as_bool(self) -> Option<bool> {
        match self {
            Cell::Bool(b) => Some(b),
            _ => None,
        }
    }

    /// Materialize the cell (a reference-count bump for strings).
    pub fn to_value(self) -> Value {
        match self {
            Cell::Null => Value::Null,
            Cell::Bool(b) => Value::Bool(b),
            Cell::Int(i) => Value::Int(i),
            Cell::Str(s) => Value::Str(Arc::clone(s)),
        }
    }
}

impl Cell<'_> {
    /// Rank used to order values of different types (Null < Bool < Int < Str).
    fn type_rank(self) -> u8 {
        match self {
            Cell::Null => 0,
            Cell::Bool(_) => 1,
            Cell::Int(_) => 2,
            Cell::Str(_) => 3,
        }
    }
}

impl PartialOrd for Cell<'_> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Cell<'_> {
    /// [`Value`]'s total order: first by type rank, then by payload.
    fn cmp(&self, other: &Self) -> Ordering {
        match (self, other) {
            (Cell::Null, Cell::Null) => Ordering::Equal,
            (Cell::Bool(a), Cell::Bool(b)) => a.cmp(b),
            (Cell::Int(a), Cell::Int(b)) => a.cmp(b),
            (Cell::Str(a), Cell::Str(b)) => a.as_ref().cmp(b.as_ref()),
            _ => self.type_rank().cmp(&other.type_rank()),
        }
    }
}

impl PartialEq<Value> for Cell<'_> {
    fn eq(&self, other: &Value) -> bool {
        *self == other.as_cell()
    }
}

/// What an index key is made of: a [`Value`] a caller owns or a [`Cell`]
/// borrowed from a table or a static, probed alike and without a copy.
pub trait AsCell {
    fn as_cell(&self) -> Cell<'_>;
}

impl AsCell for Value {
    fn as_cell(&self) -> Cell<'_> {
        Value::as_cell(self)
    }
}

impl AsCell for Cell<'_> {
    fn as_cell(&self) -> Cell<'_> {
        *self
    }
}

impl std::hash::Hash for Cell<'_> {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        match self {
            Cell::Null => 0u8.hash(state),
            Cell::Bool(b) => (1u8, b).hash(state),
            Cell::Int(i) => (2u8, i).hash(state),
            Cell::Str(s) => (3u8, s.as_bytes()).hash(state),
        }
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Value::Null, Value::Null) => true,
            (Value::Bool(a), Value::Bool(b)) => a == b,
            (Value::Int(a), Value::Int(b)) => a == b,
            (Value::Str(a), Value::Str(b)) => a == b,
            _ => false,
        }
    }
}

impl Eq for Value {}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    /// Total order: first by type rank, then by payload. A total order (as
    /// opposed to SQL's partial one) keeps sorting and distinct-elimination
    /// deterministic.
    fn cmp(&self, other: &Self) -> Ordering {
        self.as_cell().cmp(&other.as_cell())
    }
}

impl std::hash::Hash for Value {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.as_cell().hash(state);
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Str(s) => write!(f, "{s}"),
        }
    }
}

impl From<i64> for Value {
    fn from(i: i64) -> Self {
        Value::Int(i)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::str(s)
    }
}

impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Str(Arc::from(s.as_str()))
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn equality_within_types() {
        assert_eq!(Value::int(3), Value::int(3));
        assert_ne!(Value::int(3), Value::int(4));
        assert_eq!(Value::str("crow"), Value::str("crow"));
        assert_ne!(Value::str("crow"), Value::str("raven"));
        assert_eq!(Value::Null, Value::Null);
        assert_eq!(Value::Bool(true), Value::Bool(true));
    }

    #[test]
    fn equality_across_types_is_false() {
        assert_ne!(Value::int(1), Value::Bool(true));
        assert_ne!(Value::int(0), Value::Null);
        assert_ne!(Value::str("1"), Value::int(1));
    }

    #[test]
    fn ordering_is_total_and_type_ranked() {
        let mut vals = vec![
            Value::str("b"),
            Value::int(10),
            Value::Null,
            Value::Bool(false),
            Value::str("a"),
            Value::int(-5),
            Value::Bool(true),
        ];
        vals.sort();
        assert_eq!(
            vals,
            vec![
                Value::Null,
                Value::Bool(false),
                Value::Bool(true),
                Value::int(-5),
                Value::int(10),
                Value::str("a"),
                Value::str("b"),
            ]
        );
    }

    #[test]
    fn hash_agrees_with_eq() {
        let mut set = HashSet::new();
        set.insert(Value::str("crow"));
        set.insert(Value::str("crow"));
        set.insert(Value::int(7));
        set.insert(Value::int(7));
        assert_eq!(set.len(), 2);
        assert!(set.contains(&Value::str("crow")));
        assert!(set.contains(&Value::int(7)));
    }

    #[test]
    fn accessors() {
        assert_eq!(Value::int(9).as_int(), Some(9));
        assert_eq!(Value::str("x").as_str(), Some("x"));
        assert_eq!(Value::Bool(true).as_bool(), Some(true));
        assert_eq!(Value::Null.as_int(), None);
        assert!(Value::Null.is_null());
        assert!(!Value::int(0).is_null());
    }

    #[test]
    fn display_forms() {
        assert_eq!(Value::Null.to_string(), "NULL");
        assert_eq!(Value::int(-3).to_string(), "-3");
        assert_eq!(Value::str("bald eagle").to_string(), "bald eagle");
        assert_eq!(Value::Bool(false).to_string(), "false");
    }

    #[test]
    fn conversions() {
        let v: Value = 42i64.into();
        assert_eq!(v, Value::int(42));
        let v: Value = "crow".into();
        assert_eq!(v, Value::str("crow"));
        let v: Value = String::from("raven").into();
        assert_eq!(v, Value::str("raven"));
        let v: Value = true.into();
        assert_eq!(v, Value::Bool(true));
    }

    #[test]
    fn string_clone_is_cheap_refcount() {
        let a = Value::str("a long species name that would be expensive to copy");
        let b = a.clone();
        match (&a, &b) {
            (Value::Str(x), Value::Str(y)) => assert!(Arc::ptr_eq(x, y)),
            _ => unreachable!(),
        }
    }
}
