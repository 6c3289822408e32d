//! Dynamically-typed scalar values.
//!
//! A [`Value`] is what crosses the engine's API: cells of the rows callers
//! insert, of query results and of lookup keys. Tables do not store
//! `Value`s — the column heap (`crate::heap`) keeps integers unboxed and
//! strings as dictionary codes — and hand out either materialized `Value`s
//! or a borrowed [`Cell`].
//!
//! A string is a [`Str`]: up to 22 bytes are kept inline, in the value
//! itself, so building or cloning a short string (an id, a species, a
//! date, a sign) allocates nothing; a longer one is a shared `Arc<str>`,
//! so cloning it — materializing a cell of a table's dictionary, say — is
//! a reference-count bump, never a copy of the text.

use std::cmp::Ordering;
use std::fmt;
use std::sync::Arc;

/// The longest string kept inline, in bytes.
const INLINE: usize = 22;

/// An immutable UTF-8 string, inline up to 22 bytes and shared above.
/// `Eq`, `Ord`, `Hash`, `Display` and `Debug` are those of its text.
#[derive(Clone)]
pub struct Str(Repr);

/// The text of a [`Str`]: inline (the first `len` bytes of `bytes`) when it
/// is at most `INLINE` bytes long — always so, since the constructor picks
/// — else behind a reference count.
#[derive(Clone)]
enum Repr {
    Inline { len: u8, bytes: [u8; INLINE] },
    Shared(Arc<str>),
}

impl Str {
    /// The string `s`: inline when it fits, else a new shared block.
    pub fn new(s: &str) -> Self {
        if s.len() <= INLINE {
            Str::inline(s)
        } else {
            Str(Repr::Shared(Arc::from(s)))
        }
    }

    /// The string `s` of at most 22 bytes, inline; for `static`s and
    /// `const`s. Panics (at compile time in a constant) on a longer one.
    pub const fn inline(s: &str) -> Self {
        let src = s.as_bytes();
        assert!(src.len() <= INLINE, "Str::inline takes at most 22 bytes");
        let mut bytes = [0; INLINE];
        let mut i = 0;
        while i < src.len() {
            bytes[i] = src[i];
            i += 1;
        }
        Str(Repr::Inline {
            len: src.len() as u8,
            bytes,
        })
    }

    /// The UTF-8 bytes of the text: what `Eq`, `Ord` and `Hash` compare.
    pub fn as_bytes(&self) -> &[u8] {
        match &self.0 {
            Repr::Inline { len, bytes } => &bytes[..*len as usize],
            Repr::Shared(s) => s.as_bytes(),
        }
    }

    /// The text. An inline string's bytes are re-checked as UTF-8 (they
    /// were copied from a `str`, so this cannot fail).
    pub fn as_str(&self) -> &str {
        match &self.0 {
            Repr::Inline { len, bytes } => {
                std::str::from_utf8(&bytes[..*len as usize]).expect("inline bytes are a copied str")
            }
            Repr::Shared(s) => s,
        }
    }

    /// True iff the text is kept inline (exactly when it is at most 22
    /// bytes long).
    pub fn is_inline(&self) -> bool {
        matches!(self.0, Repr::Inline { .. })
    }
}

impl PartialEq for Str {
    fn eq(&self, other: &Self) -> bool {
        self.as_bytes() == other.as_bytes()
    }
}

impl Eq for Str {}

impl PartialOrd for Str {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Str {
    /// Byte order, which is `str`'s.
    fn cmp(&self, other: &Self) -> Ordering {
        self.as_bytes().cmp(other.as_bytes())
    }
}

impl std::hash::Hash for Str {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.as_bytes().hash(state);
    }
}

impl fmt::Display for Str {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self.as_str(), f)
    }
}

impl fmt::Debug for Str {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

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
    /// UTF-8 string: inline up to 22 bytes, shared above ([`Str`]).
    Str(Str),
}

impl Value {
    /// Build a string value (inline when it is at most 22 bytes long).
    pub fn str(s: impl AsRef<str>) -> Self {
        Value::Str(Str::new(s.as_ref()))
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
            Value::Str(s) => Some(s.as_str()),
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
    Str(&'a Str),
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
            Cell::Str(s) => Some(s.as_str()),
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

    /// Materialize the cell: a copy of a short string's bytes, a
    /// reference-count bump for a long one.
    pub fn to_value(self) -> Value {
        match self {
            Cell::Null => Value::Null,
            Cell::Bool(b) => Value::Bool(b),
            Cell::Int(i) => Value::Int(i),
            Cell::Str(s) => Value::Str(s.clone()),
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
            (Cell::Str(a), Cell::Str(b)) => a.cmp(b),
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
        Value::str(s)
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
        let a = Str::new("a long species name that would be expensive to copy");
        let b = a.clone();
        match (&a.0, &b.0) {
            (Repr::Shared(x), Repr::Shared(y)) => assert!(Arc::ptr_eq(x, y)),
            _ => panic!("a string past 22 bytes is shared"),
        }
    }
}
