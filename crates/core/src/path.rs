//! Belief paths (the paper's `Û*`, Sect. 3.2).
//!
//! A belief path `w = w[1]···w[d]` is a sequence of user ids in which the
//! same user never appears in adjacent positions: `Û* = {w ∈ U* | w[i] ≠
//! w[i+1]}`. The empty path `ε` denotes the database-content world.
//!
//! This module provides the path algebra the canonical Kripke construction
//! relies on: prefixes (`States(D)` is prefix-closed), suffixes (edges go to
//! the *deepest suffix state*), and the `drop_first` operation `w ↦ w[2,d]`
//! along which implicit beliefs flow (user `i` prefixes statements of world
//! `w` into world `i·w`).
//!
//! A path is cloned into every statement, world and answer that mentions
//! it, so a path of up to five users is stored inline and costs no
//! allocation, to build or to clone; a longer one spills to a boxed slice.
//! Either way a path compares, hashes and prints as its slice of users.

use crate::error::{BeliefError, Result};
use crate::ids::UserId;
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};

/// The longest path kept inline.
const INLINE: usize = 5;

/// A validated belief path in `Û*`. `Eq`, `Ord`, `Hash` and `Debug` are
/// those of its slice of users ([`BeliefPath::users`]).
#[derive(Clone)]
pub struct BeliefPath(Repr);

/// The users of a path: inline up to `INLINE` of them (the first `len`
/// slots are the path), else on the heap. A path of at most `INLINE` users
/// is always inline.
#[derive(Clone)]
enum Repr {
    Inline { len: u8, users: [UserId; INLINE] },
    Spilled(Box<[UserId]>),
}

// Three words — a tag, a length and five users, or a tag and a boxed slice —
// so a statement or a world's key is no larger than with a `Vec`.
const _: () = assert!(std::mem::size_of::<BeliefPath>() == 24);

impl BeliefPath {
    /// The path `a · b`, which must not repeat a user in adjacent
    /// positions; inline when it fits.
    fn joined(a: &[UserId], b: &[UserId]) -> Self {
        let len = a.len() + b.len();
        if len <= INLINE {
            let mut users = [UserId(0); INLINE];
            users[..a.len()].copy_from_slice(a);
            users[a.len()..len].copy_from_slice(b);
            BeliefPath(Repr::Inline {
                len: len as u8,
                users,
            })
        } else {
            BeliefPath(Repr::Spilled(a.iter().chain(b).copied().collect()))
        }
    }

    fn from_users(users: &[UserId]) -> Self {
        BeliefPath::joined(users, &[])
    }

    /// The empty path `ε` (the database-content world).
    pub fn root() -> Self {
        BeliefPath::from_users(&[])
    }

    /// Build a path, validating the adjacent-distinctness invariant.
    pub fn new(users: impl Into<Vec<UserId>>) -> Result<Self> {
        let users = users.into();
        for pair in users.windows(2) {
            if pair[0] == pair[1] {
                return Err(BeliefError::InvalidPath(format!(
                    "user {} repeated in adjacent positions",
                    pair[0]
                )));
            }
        }
        Ok(BeliefPath::from_users(&users))
    }

    /// Single-user path.
    pub fn user(u: UserId) -> Self {
        BeliefPath::from_users(&[u])
    }

    /// Depth `d = |w|` (the paper's nesting depth).
    pub fn depth(&self) -> usize {
        self.users().len()
    }

    pub fn is_root(&self) -> bool {
        self.users().is_empty()
    }

    pub fn users(&self) -> &[UserId] {
        match &self.0 {
            Repr::Inline { len, users } => &users[..*len as usize],
            Repr::Spilled(users) => users,
        }
    }

    /// First user `w[1]`, if any.
    pub fn first(&self) -> Option<UserId> {
        self.users().first().copied()
    }

    /// Last user `w[d]`, if any.
    pub fn last(&self) -> Option<UserId> {
        self.users().last().copied()
    }

    /// Prefix `w[1,len]`.
    pub fn prefix(&self, len: usize) -> BeliefPath {
        let users = self.users();
        BeliefPath::from_users(&users[..len.min(users.len())])
    }

    /// The suffix `w[2,d]` (drop the first user). Implicit beliefs at `w`
    /// are inherited from the world at `w[2,d]` (Def. 9: `iϕ` lands in
    /// world `i·v` when `ϕ` is in world `v`).
    pub fn drop_first(&self) -> BeliefPath {
        BeliefPath::from_users(self.users().get(1..).unwrap_or(&[]))
    }

    /// The suffix `w[p,d]` using the paper's 1-based indexing (`p = 1` is
    /// the whole path; `p = d+1` is `ε`).
    pub fn suffix_from(&self, p: usize) -> BeliefPath {
        let users = self.users();
        BeliefPath::from_users(&users[p.saturating_sub(1).min(users.len())..])
    }

    /// All suffixes from longest (the path itself) to shortest (`ε`).
    pub fn suffixes(&self) -> impl Iterator<Item = BeliefPath> + '_ {
        let users = self.users();
        (0..=users.len()).map(move |i| BeliefPath::from_users(&users[i..]))
    }

    /// All proper prefixes plus the path itself, from `ε` to `w`.
    pub fn prefixes(&self) -> impl Iterator<Item = BeliefPath> + '_ {
        let users = self.users();
        (0..=users.len()).map(move |i| BeliefPath::from_users(&users[..i]))
    }

    /// True iff `self` is a suffix of `other`.
    pub fn is_suffix_of(&self, other: &BeliefPath) -> bool {
        other.users().ends_with(self.users())
    }

    /// True iff `self` is a *proper* suffix of `other`.
    pub fn is_proper_suffix_of(&self, other: &BeliefPath) -> bool {
        self.depth() < other.depth() && self.is_suffix_of(other)
    }

    /// True iff `self` is a prefix of `other`.
    pub fn is_prefix_of(&self, other: &BeliefPath) -> bool {
        other.users().starts_with(self.users())
    }

    /// Append a user: `w · i`. Fails if `i` equals the last user.
    pub fn push(&self, u: UserId) -> Result<BeliefPath> {
        if self.last() == Some(u) {
            return Err(BeliefError::InvalidPath(format!(
                "cannot extend path {self} with user {u}: adjacent repetition"
            )));
        }
        Ok(BeliefPath::joined(self.users(), &[u]))
    }

    /// Prepend a user: `i · w` (the default-rule direction of Def. 9).
    /// Fails if `i` equals the first user.
    pub fn prepend(&self, u: UserId) -> Result<BeliefPath> {
        if self.first() == Some(u) {
            return Err(BeliefError::InvalidPath(format!(
                "cannot prepend user {u} to path {self}: adjacent repetition"
            )));
        }
        Ok(BeliefPath::joined(&[u], self.users()))
    }

    /// Can `w · i` be formed (i.e. `i ≠ last(w)`)?
    pub fn can_push(&self, u: UserId) -> bool {
        self.last() != Some(u)
    }
}

impl Default for BeliefPath {
    fn default() -> Self {
        BeliefPath::root()
    }
}

impl PartialEq for BeliefPath {
    fn eq(&self, other: &Self) -> bool {
        self.users() == other.users()
    }
}

impl Eq for BeliefPath {}

impl PartialOrd for BeliefPath {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for BeliefPath {
    fn cmp(&self, other: &Self) -> Ordering {
        self.users().cmp(other.users())
    }
}

impl Hash for BeliefPath {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.users().hash(state)
    }
}

impl fmt::Debug for BeliefPath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("BeliefPath").field(&self.users()).finish()
    }
}

impl fmt::Display for BeliefPath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_root() {
            return write!(f, "ε");
        }
        for (i, u) in self.users().iter().enumerate() {
            if i > 0 {
                write!(f, "·")?;
            }
            write!(f, "{u}")?;
        }
        Ok(())
    }
}

impl From<UserId> for BeliefPath {
    fn from(u: UserId) -> Self {
        BeliefPath::user(u)
    }
}

/// Build a path from raw user numbers, panicking on invalid input.
/// Intended for tests and examples.
pub fn path(users: &[u32]) -> BeliefPath {
    BeliefPath::new(users.iter().map(|&u| UserId(u)).collect::<Vec<_>>())
        .expect("invalid belief path literal")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validation_rejects_adjacent_repeats() {
        assert!(BeliefPath::new(vec![UserId(1), UserId(2), UserId(1)]).is_ok());
        assert!(matches!(
            BeliefPath::new(vec![UserId(1), UserId(1)]),
            Err(BeliefError::InvalidPath(_))
        ));
        assert!(BeliefPath::new(vec![]).is_ok());
    }

    #[test]
    fn push_and_prepend() {
        let w = path(&[1, 2]);
        assert_eq!(w.push(UserId(1)).unwrap(), path(&[1, 2, 1]));
        assert!(w.push(UserId(2)).is_err());
        assert!(w.can_push(UserId(3)));
        assert!(!w.can_push(UserId(2)));
        assert_eq!(w.prepend(UserId(2)).unwrap(), path(&[2, 1, 2]));
        assert!(w.prepend(UserId(1)).is_err());
        assert_eq!(BeliefPath::root().push(UserId(5)).unwrap(), path(&[5]));
    }

    #[test]
    fn prefixes_and_suffixes() {
        let w = path(&[2, 1, 3]);
        let prefixes: Vec<_> = w.prefixes().collect();
        assert_eq!(
            prefixes,
            vec![path(&[]), path(&[2]), path(&[2, 1]), path(&[2, 1, 3])]
        );
        let suffixes: Vec<_> = w.suffixes().collect();
        assert_eq!(
            suffixes,
            vec![path(&[2, 1, 3]), path(&[1, 3]), path(&[3]), path(&[])]
        );
        assert_eq!(w.prefix(2), path(&[2, 1]));
        assert_eq!(w.prefix(99), w);
        assert_eq!(w.drop_first(), path(&[1, 3]));
        assert_eq!(BeliefPath::root().drop_first(), BeliefPath::root());
    }

    #[test]
    fn paper_suffix_indexing() {
        // w[p,d] with 1-based p: w[1,d] = w, w[2,d] drops the first user,
        // w[d+1,d] = ε.
        let w = path(&[2, 1, 3]);
        assert_eq!(w.suffix_from(1), w);
        assert_eq!(w.suffix_from(2), path(&[1, 3]));
        assert_eq!(w.suffix_from(3), path(&[3]));
        assert_eq!(w.suffix_from(4), path(&[]));
    }

    #[test]
    fn suffix_and_prefix_relations() {
        let w = path(&[2, 1, 3]);
        assert!(path(&[1, 3]).is_suffix_of(&w));
        assert!(path(&[1, 3]).is_proper_suffix_of(&w));
        assert!(w.is_suffix_of(&w));
        assert!(!w.is_proper_suffix_of(&w));
        assert!(!path(&[2, 1]).is_suffix_of(&w));
        assert!(path(&[2, 1]).is_prefix_of(&w));
        assert!(BeliefPath::root().is_suffix_of(&w));
        assert!(BeliefPath::root().is_prefix_of(&w));
    }

    #[test]
    fn accessors_and_display() {
        let w = path(&[2, 1]);
        assert_eq!(w.depth(), 2);
        assert_eq!(w.first(), Some(UserId(2)));
        assert_eq!(w.last(), Some(UserId(1)));
        assert!(!w.is_root());
        assert!(BeliefPath::root().is_root());
        assert_eq!(w.to_string(), "2·1");
        assert_eq!(BeliefPath::root().to_string(), "ε");
        let single: BeliefPath = UserId(4).into();
        assert_eq!(single, path(&[4]));
    }

    #[test]
    #[should_panic(expected = "invalid belief path literal")]
    fn path_literal_panics_on_invalid() {
        let _ = path(&[1, 1]);
    }
}
