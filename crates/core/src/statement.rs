//! Belief statements `w t^s` (Def. 8).

use crate::ids::RelId;
use crate::path::BeliefPath;
use beliefdb_storage::{Cell, Row, Str, Value};
use std::fmt;

/// The sign of a belief: positive (`t` holds) or negative (`t` is impossible).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Sign {
    Pos,
    Neg,
}

impl Sign {
    pub fn flip(self) -> Sign {
        match self {
            Sign::Pos => Sign::Neg,
            Sign::Neg => Sign::Pos,
        }
    }

    pub fn symbol(self) -> &'static str {
        match self {
            Sign::Pos => "+",
            Sign::Neg => "-",
        }
    }

    /// The sign as a storage value (`'+'` / `'-'`, as in Fig. 5's `s`
    /// attribute): an inline string, so it allocates nothing.
    pub fn value(self) -> Value {
        self.cell().to_value()
    }

    /// The sign as a table cell, borrowed from a static.
    pub fn cell(self) -> Cell<'static> {
        static POS: Str = Str::inline("+");
        static NEG: Str = Str::inline("-");
        match self {
            Sign::Pos => Cell::Str(&POS),
            Sign::Neg => Cell::Str(&NEG),
        }
    }

    pub fn from_value(v: &Value) -> Option<Sign> {
        Sign::from_cell(v.as_cell())
    }

    /// The sign held by a table cell of the `s` attribute (compared as
    /// bytes).
    pub fn from_cell(cell: Cell<'_>) -> Option<Sign> {
        [Sign::Pos, Sign::Neg]
            .into_iter()
            .find(|s| s.cell() == cell)
    }

    /// Stable one-byte code used by the durability layer's binary log
    /// and snapshot encodings (`crate::persist`).
    pub fn code(self) -> u8 {
        match self {
            Sign::Pos => b'+',
            Sign::Neg => b'-',
        }
    }

    /// Inverse of [`Sign::code`].
    pub fn from_code(c: u8) -> Option<Sign> {
        match c {
            b'+' => Some(Sign::Pos),
            b'-' => Some(Sign::Neg),
            _ => None,
        }
    }
}

impl fmt::Display for Sign {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.symbol())
    }
}

/// A ground tuple `t ∈ Tup`: a typed tuple of one external relation. Its
/// key is the value of the first attribute (the paper's `key(t)`).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct GroundTuple {
    pub rel: RelId,
    pub row: Row,
}

impl GroundTuple {
    pub fn new(rel: RelId, row: Row) -> Self {
        assert!(
            row.arity() >= 1,
            "ground tuples need at least a key attribute"
        );
        GroundTuple { rel, row }
    }

    /// `key(t)`: the typed value of the key attribute.
    pub fn key(&self) -> &Value {
        &self.row[0]
    }

    /// True iff `other` has the same relation and key but is a different
    /// tuple — the situation that makes `other` an *unstated negative*
    /// whenever `self` is believed positively (Prop. 7).
    pub fn conflicts_with(&self, other: &GroundTuple) -> bool {
        self.rel == other.rel && self.key() == other.key() && self.row != other.row
    }
}

impl fmt::Display for GroundTuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "R{}{}", self.rel, self.row)
    }
}

/// A belief statement `ϕ = w t^s` (Def. 8): belief path, ground tuple, sign.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BeliefStatement {
    pub path: BeliefPath,
    pub tuple: GroundTuple,
    pub sign: Sign,
}

impl BeliefStatement {
    pub fn new(path: BeliefPath, tuple: GroundTuple, sign: Sign) -> Self {
        BeliefStatement { path, tuple, sign }
    }

    pub fn positive(path: BeliefPath, tuple: GroundTuple) -> Self {
        Self::new(path, tuple, Sign::Pos)
    }

    pub fn negative(path: BeliefPath, tuple: GroundTuple) -> Self {
        Self::new(path, tuple, Sign::Neg)
    }

    /// Nesting depth of the statement (= depth of its path).
    pub fn depth(&self) -> usize {
        self.path.depth()
    }
}

impl fmt::Display for BeliefStatement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.path.is_root() {
            write!(f, "{}{}", self.tuple, self.sign)
        } else {
            write!(f, "□{} {}{}", self.path, self.tuple, self.sign)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::path::path;
    use beliefdb_storage::row;

    fn t(key: &str, species: &str) -> GroundTuple {
        GroundTuple::new(
            RelId(0),
            row![key, "Carol", species, "6-14-08", "Lake Forest"],
        )
    }

    #[test]
    fn sign_basics() {
        assert_eq!(Sign::Pos.flip(), Sign::Neg);
        assert_eq!(Sign::Neg.flip(), Sign::Pos);
        assert_eq!(Sign::Pos.symbol(), "+");
        assert_eq!(Sign::Pos.value(), Value::str("+"));
        assert_eq!(Sign::from_value(&Value::str("-")), Some(Sign::Neg));
        assert_eq!(Sign::from_value(&Value::str("x")), None);
        assert_eq!(Sign::from_value(&Value::Int(1)), None);
        assert_eq!(Sign::Neg.to_string(), "-");
        assert_eq!(Sign::from_code(Sign::Pos.code()), Some(Sign::Pos));
        assert_eq!(Sign::from_code(Sign::Neg.code()), Some(Sign::Neg));
        assert_eq!(Sign::from_code(b'x'), None);
    }

    #[test]
    fn sign_values_share_allocation() {
        // Every cell of a sign borrows the one static string, and an owned
        // value is inline, so the `V` rows need no heap block per sign.
        for sign in [Sign::Pos, Sign::Neg] {
            match (sign.cell(), sign.cell()) {
                (Cell::Str(x), Cell::Str(y)) => assert!(std::ptr::eq(x, y)),
                _ => unreachable!(),
            }
            match sign.value() {
                Value::Str(s) => assert!(s.is_inline()),
                _ => unreachable!(),
            }
        }
        assert!(!matches!(
            (Sign::Pos.cell(), Sign::Neg.cell()),
            (Cell::Str(x), Cell::Str(y)) if std::ptr::eq(x, y)
        ));
    }

    #[test]
    fn tuple_key_and_conflicts() {
        let eagle = t("s1", "bald eagle");
        let fish_eagle = t("s1", "fish eagle");
        let crow = t("s2", "crow");
        assert_eq!(eagle.key(), &Value::str("s1"));
        assert!(eagle.conflicts_with(&fish_eagle));
        assert!(fish_eagle.conflicts_with(&eagle));
        assert!(!eagle.conflicts_with(&eagle));
        assert!(!eagle.conflicts_with(&crow));
        // different relation, same key: no conflict
        let other_rel = GroundTuple::new(RelId(1), row!["s1", "x", "y"]);
        assert!(!eagle.conflicts_with(&other_rel));
    }

    #[test]
    fn statement_construction_and_display() {
        let s = BeliefStatement::positive(BeliefPath::root(), t("s1", "bald eagle"));
        assert_eq!(s.sign, Sign::Pos);
        assert_eq!(s.depth(), 0);
        assert!(s.to_string().ends_with("+"));
        let s = BeliefStatement::negative(path(&[2]), t("s1", "bald eagle"));
        assert_eq!(s.depth(), 1);
        assert!(s.to_string().starts_with("□2"));
    }

    #[test]
    #[should_panic(expected = "at least a key attribute")]
    fn zero_arity_tuple_panics() {
        let _ = GroundTuple::new(RelId(0), Row::new(vec![]));
    }
}
