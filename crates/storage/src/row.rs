//! Rows (tuples) of values.
//!
//! A [`Row`] is what goes into and comes out of the engine: the argument of
//! `Table::insert`, the rows of a query result, what `Table::get` or
//! `Table::iter` materialize. A table does not keep `Row`s — its cells live
//! in the column heap (`crate::heap`) — so a row read from a table is built
//! at the API edge, once.
//!
//! Once built a row is immutable and *shared*: its values sit in one
//! reference-counted slice, so cloning a row (into a plan cache's answer, a
//! `Values` leaf, a belief world or an exported statement) bumps a count
//! and allocates nothing. Building a row costs one allocation — the
//! constructors collect straight into the shared slice — and moving one
//! costs none.

use crate::error::{Result, StorageError};
use crate::value::{Cell, Value};
use std::fmt;
use std::sync::Arc;

/// An immutable, shared tuple of [`Value`]s: a reference-counted slice, two
/// words plus one allocation holding the counts and the values. `Eq`,
/// `Ord`, `Hash` and `Debug` are those of the slice.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Row(Arc<[Value]>);

// A row is a fat pointer and a value three words: a string's `Str` is a
// tag, a length and 22 inline bytes, or a tag and a fat pointer. A layout
// change would silently grow every chunk buffer, answer and belief world.
const _: () = assert!(std::mem::size_of::<Row>() == 16);
const _: () = assert!(std::mem::size_of::<Value>() == 24);
const _: () = assert!(std::mem::size_of::<crate::value::Str>() == 24);

impl Row {
    /// Build a row from any iterable of values. An iterator of known
    /// length (a `Vec`, an array, a mapped slice or range) is collected
    /// straight into the row's one allocation.
    pub fn new(values: impl IntoIterator<Item = Value>) -> Self {
        Row(values.into_iter().collect())
    }

    /// A row of `n` values, the `i`-th computed by `value(i)`, in one
    /// allocation; the first error stops the calls and is returned.
    pub fn try_from_fn<E>(
        n: usize,
        mut value: impl FnMut(usize) -> std::result::Result<Value, E>,
    ) -> std::result::Result<Row, E> {
        let mut failed = None;
        let row = Row::new((0..n).map(|i| {
            if failed.is_some() {
                return Value::Null;
            }
            value(i).unwrap_or_else(|e| {
                failed = Some(e);
                Value::Null
            })
        }));
        match failed {
            None => Ok(row),
            Some(e) => Err(e),
        }
    }

    /// The empty row, without an allocation: the placeholder a row moved
    /// out of a buffer leaves behind.
    pub(crate) fn empty() -> Row {
        Row(Arc::default())
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.0.len()
    }

    /// Borrow the value at `idx`, or an error if out of range.
    pub fn get(&self, idx: usize) -> Result<&Value> {
        self.0.get(idx).ok_or(StorageError::ColumnOutOfRange {
            index: idx,
            arity: self.0.len(),
        })
    }

    /// Borrow all values.
    pub fn values(&self) -> &[Value] {
        &self.0
    }

    /// The values as borrowed [`Cell`]s, the form tables take rows in.
    pub fn cells(&self) -> Vec<Cell<'_>> {
        self.0.iter().map(Value::as_cell).collect()
    }

    /// The values as an owned vector (a copy: the row may be shared).
    pub fn into_values(self) -> Vec<Value> {
        self.0.to_vec()
    }

    /// Build a new row keeping only the columns at `indices`, in order.
    pub fn project(&self, indices: &[usize]) -> Result<Row> {
        Row::try_from_fn(indices.len(), |k| self.get(indices[k]).cloned())
    }

    /// [`Row::project`] without the per-column range check. Callers must
    /// have validated `indices` against this row's arity up front (plan
    /// arity validation does exactly that); prefer [`Projector`] for
    /// repeated projections on a hot path.
    ///
    /// # Panics
    /// Panics if any index is out of range.
    pub fn project_unchecked(&self, indices: &[usize]) -> Row {
        Row::new(indices.iter().map(|&i| self.0[i].clone()))
    }

    /// Concatenate two rows (used by join operators).
    pub fn concat(&self, other: &Row) -> Row {
        Row::new(self.0.iter().chain(other.0.iter()).cloned())
    }

    /// Extract the sub-row `[at..]` — the complement of a prefix.
    pub fn suffix(&self, at: usize) -> Row {
        Row::new(self.0[at..].iter().cloned())
    }
}

impl fmt::Display for Row {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, v) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, ")")
    }
}

impl From<Vec<Value>> for Row {
    fn from(v: Vec<Value>) -> Self {
        Row(v.into())
    }
}

impl std::ops::Index<usize> for Row {
    type Output = Value;
    fn index(&self, idx: usize) -> &Value {
        &self.0[idx]
    }
}

/// A column projection validated once against an input arity, then applied
/// infallibly per row.
///
/// `Row::project` re-checks bounds and threads a `Result` through every
/// inner-loop call; a `Projector` front-loads that validation so the
/// executor's per-row (or per-chunk) work is a plain clone loop.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Projector {
    indices: Vec<usize>,
}

impl Projector {
    /// Validate `indices` against `input_arity` once. Errors on the first
    /// out-of-range column, exactly like `Row::project` would per row.
    pub fn new(indices: impl Into<Vec<usize>>, input_arity: usize) -> Result<Projector> {
        let indices = indices.into();
        for &i in &indices {
            if i >= input_arity {
                return Err(StorageError::ColumnOutOfRange {
                    index: i,
                    arity: input_arity,
                });
            }
        }
        Ok(Projector { indices })
    }

    /// Number of output columns.
    pub fn arity(&self) -> usize {
        self.indices.len()
    }

    /// The validated column indices.
    pub fn indices(&self) -> &[usize] {
        &self.indices
    }

    /// Project a row. Infallible: bounds were checked at construction
    /// (rows narrower than the validated arity would still panic, as
    /// [`Row::project_unchecked`] does).
    pub fn apply(&self, row: &Row) -> Row {
        row.project_unchecked(&self.indices)
    }
}

/// Build a [`Row`] from a heterogeneous list of literals.
///
/// ```
/// use beliefdb_storage::{row, Value};
/// let r = row!["s1", "Carol", "bald eagle", 614, true];
/// assert_eq!(r.arity(), 5);
/// assert_eq!(r[0], Value::str("s1"));
/// assert_eq!(r[3], Value::int(614));
/// ```
#[macro_export]
macro_rules! row {
    ($($v:expr),* $(,)?) => {
        $crate::Row::new([$($crate::Value::from($v)),*])
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Row {
        Row::new(vec![
            Value::str("s1"),
            Value::str("Carol"),
            Value::int(2008),
        ])
    }

    #[test]
    fn arity_and_get() {
        let r = sample();
        assert_eq!(r.arity(), 3);
        assert_eq!(r.get(0).unwrap(), &Value::str("s1"));
        assert_eq!(r.get(2).unwrap(), &Value::int(2008));
        assert!(matches!(
            r.get(3),
            Err(StorageError::ColumnOutOfRange { index: 3, arity: 3 })
        ));
    }

    #[test]
    fn project_reorders_and_duplicates() {
        let r = sample();
        let p = r.project(&[2, 0, 0]).unwrap();
        assert_eq!(
            p,
            Row::new(vec![Value::int(2008), Value::str("s1"), Value::str("s1")])
        );
        assert!(r.project(&[5]).is_err());
    }

    #[test]
    fn project_unchecked_matches_checked() {
        let r = sample();
        assert_eq!(
            r.project_unchecked(&[2, 0, 0]),
            r.project(&[2, 0, 0]).unwrap()
        );
        assert_eq!(r.project_unchecked(&[]), Row::new(vec![]));
    }

    #[test]
    fn projector_validates_once_then_applies_infallibly() {
        let p = Projector::new(vec![2, 0], 3).unwrap();
        assert_eq!(p.arity(), 2);
        assert_eq!(p.indices(), &[2, 0]);
        let r = sample();
        assert_eq!(p.apply(&r), r.project(&[2, 0]).unwrap());
        assert!(matches!(
            Projector::new(vec![0, 3], 3),
            Err(StorageError::ColumnOutOfRange { index: 3, arity: 3 })
        ));
    }

    #[test]
    fn concat_joins_rows() {
        let a = Row::new(vec![Value::int(1)]);
        let b = Row::new(vec![Value::int(2), Value::int(3)]);
        let c = a.concat(&b);
        assert_eq!(c.arity(), 3);
        assert_eq!(c[0], Value::int(1));
        assert_eq!(c[2], Value::int(3));
    }

    #[test]
    fn suffix_slices() {
        let r = sample();
        assert_eq!(r.suffix(1).arity(), 2);
        assert_eq!(r.suffix(1)[0], Value::str("Carol"));
        assert_eq!(r.suffix(3).arity(), 0);
    }

    #[test]
    fn display_and_macro() {
        let r = row!["a", 1];
        assert_eq!(r.to_string(), "(a, 1)");
        let empty = Row::new(vec![]);
        assert_eq!(empty.to_string(), "()");
    }

    #[test]
    fn rows_hash_and_compare() {
        use std::collections::HashSet;
        let mut set = HashSet::new();
        set.insert(sample());
        set.insert(sample());
        assert_eq!(set.len(), 1);
        assert!(row![1] < row![2]);
        assert!(row![1] < row![1, 0]);
    }
}
