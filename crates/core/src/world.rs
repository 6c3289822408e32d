//! Belief worlds `W = (I+, I−)` (Defs. 2–6, Props. 5 and 7).
//!
//! A belief world holds the positive and negative tuples of one belief
//! context ("what Alice believes", "what Bob believes Alice believes", ...).
//! Its semantics `[[W]]` is the set of consistent instances containing all
//! of `I+` and none of `I−`; we never enumerate `[[W]]`, because Prop. 5
//! characterizes consistency and Prop. 7 characterizes entailment directly
//! on `(I+, I−)`:
//!
//! * consistent  ⇔  `Γ1`: `I+` satisfies the key constraints, and
//!   `Γ2`: `I+ ∩ I− = ∅`;
//! * `W |= t+`  ⇔  `t ∈ I+`;
//! * `W |= t−`  ⇔  `t ∈ I−` (*stated*) or some other tuple with the same
//!   key is in `I+` (*unstated*).
//!
//! Each instance is one ordered set of tuples. A tuple sorts by relation,
//! then by its row, and the row's first value is the key, so the tuples
//! sharing a `(relation, key)` — a *key group* — form one contiguous range
//! that starts at `(rel, [key])`. Both checks above are O(log n) probes of
//! that range (or of a tuple's two neighbours), and iteration order is
//! deterministic for reproducible tests.

use crate::ids::RelId;
use crate::statement::{GroundTuple, Sign};
use beliefdb_storage::{Row, Value};
use std::collections::BTreeSet;
use std::fmt;
use std::ops::Bound;

/// Key of a tuple group: relation plus the value of the key attribute.
pub type TupleKey = (RelId, Value);

/// A belief world `W = (I+, I−)`.
///
/// Both instances may, a priori, violate the key constraints (Def. 2); use
/// [`BeliefWorld::is_consistent`] / [`BeliefWorld::check_consistent`] to
/// test Γ1/Γ2.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BeliefWorld {
    pos: BTreeSet<GroundTuple>,
    neg: BTreeSet<GroundTuple>,
}

/// Same relation and key: `a` and `b` are in one key group.
fn same_group(a: &GroundTuple, b: &GroundTuple) -> bool {
    a.rel == b.rel && a.key() == b.key()
}

/// The rows of one key group of `set`, in order.
fn group_rows<'s>(set: &'s BTreeSet<GroundTuple>, key: &TupleKey) -> impl Iterator<Item = &'s Row> {
    let (rel, key) = key.clone();
    // `(rel, [key])` sorts before every tuple of the group and after every
    // tuple of a smaller key.
    let start = GroundTuple::new(rel, Row::new([key.clone()]));
    set.range(start..)
        .take_while(move |t| t.rel == rel && *t.key() == key)
        .map(|t| &t.row)
}

/// Does `set` hold a tuple other than `t` in `t`'s key group? The group is
/// contiguous, so it does iff one of `t`'s two neighbours is in it.
fn has_other_in_group(set: &BTreeSet<GroundTuple>, t: &GroundTuple) -> bool {
    let before = set.range(..t).next_back();
    let after = set
        .range::<GroundTuple, _>((Bound::Excluded(t), Bound::Unbounded))
        .next();
    before.is_some_and(|u| same_group(u, t)) || after.is_some_and(|u| same_group(u, t))
}

impl BeliefWorld {
    pub fn new() -> Self {
        BeliefWorld::default()
    }

    /// Add `t` to `I+` (no consistency check; Def. 2 allows raw worlds).
    /// Returns true iff the tuple was not already present.
    pub fn add_pos(&mut self, t: GroundTuple) -> bool {
        self.pos.insert(t)
    }

    /// Add `t` to `I−`. Returns true iff the tuple was not already present.
    pub fn add_neg(&mut self, t: GroundTuple) -> bool {
        self.neg.insert(t)
    }

    /// Add with an explicit sign.
    pub fn add(&mut self, t: GroundTuple, sign: Sign) -> bool {
        match sign {
            Sign::Pos => self.add_pos(t),
            Sign::Neg => self.add_neg(t),
        }
    }

    /// Remove a tuple from the signed instance. Returns true iff present.
    pub fn remove(&mut self, t: &GroundTuple, sign: Sign) -> bool {
        match sign {
            Sign::Pos => self.pos.remove(t),
            Sign::Neg => self.neg.remove(t),
        }
    }

    /// `t ∈ I+`?
    pub fn contains_pos(&self, t: &GroundTuple) -> bool {
        self.pos.contains(t)
    }

    /// `t ∈ I−`?
    pub fn contains_neg(&self, t: &GroundTuple) -> bool {
        self.neg.contains(t)
    }

    pub fn contains(&self, t: &GroundTuple, sign: Sign) -> bool {
        match sign {
            Sign::Pos => self.contains_pos(t),
            Sign::Neg => self.contains_neg(t),
        }
    }

    /// `W |= t+` (Prop. 7): the tuple is a *positive belief*.
    pub fn entails_pos(&self, t: &GroundTuple) -> bool {
        self.contains_pos(t)
    }

    /// `W |= t−` (Prop. 7): stated negative, or unstated negative (another
    /// tuple with the same key is positive).
    pub fn entails_neg(&self, t: &GroundTuple) -> bool {
        self.contains_neg(t) || has_other_in_group(&self.pos, t)
    }

    pub fn entails(&self, t: &GroundTuple, sign: Sign) -> bool {
        match sign {
            Sign::Pos => self.entails_pos(t),
            Sign::Neg => self.entails_neg(t),
        }
    }

    /// Γ1: no two positive tuples share a key.
    pub fn gamma1(&self) -> bool {
        self.pos
            .iter()
            .zip(self.pos.iter().skip(1))
            .all(|(a, b)| !same_group(a, b))
    }

    /// Γ2: `I+ ∩ I− = ∅`.
    pub fn gamma2(&self) -> bool {
        self.pos.intersection(&self.neg).next().is_none()
    }

    /// Consistency per Prop. 5 (`[[W]] ≠ ∅` ⇔ Γ1 ∧ Γ2).
    pub fn is_consistent(&self) -> bool {
        self.gamma1() && self.gamma2()
    }

    /// Consistency with a diagnostic.
    pub fn check_consistent(&self) -> Result<(), String> {
        let mut tuples = self.pos.iter().peekable();
        while let Some(head) = tuples.next() {
            let mut size = 1;
            let mut clash = self.neg.contains(head);
            while let Some(t) = tuples.next_if(|t| same_group(t, head)) {
                size += 1;
                clash |= self.neg.contains(t);
            }
            if size > 1 {
                return Err(format!(
                    "Γ1 violated: {size} positive tuples share key {} in relation R{}",
                    head.key(),
                    head.rel
                ));
            }
            if clash {
                return Err(format!(
                    "Γ2 violated: tuple with key {} in relation R{} is both positive and negative",
                    head.key(),
                    head.rel
                ));
            }
        }
        Ok(())
    }

    /// Would adding `t^s` keep the world consistent? (Used both when
    /// validating user inserts and by the default-rule closure of Def. 9.)
    pub fn can_accept(&self, t: &GroundTuple, sign: Sign) -> bool {
        match sign {
            // Γ2: not stated negative; Γ1: no *other* positive with the
            // same key.
            Sign::Pos => !self.contains_neg(t) && !has_other_in_group(&self.pos, t),
            Sign::Neg => !self.contains_pos(t),
        }
    }

    /// The *overriding union* of Fig. 9 / Thm. 17(2a): the entailed world at
    /// `w` is its explicit world extended with every parent tuple that is
    /// consistent with what is already there. `self` is the explicit (child)
    /// world; `parent` is the entailed world of the suffix `w[2,d]`.
    pub fn override_with(&self, parent: &BeliefWorld) -> BeliefWorld {
        let mut out = self.clone();
        for t in &parent.pos {
            if out.can_accept(t, Sign::Pos) {
                out.pos.insert(t.clone());
            }
        }
        for t in &parent.neg {
            if out.can_accept(t, Sign::Neg) {
                out.neg.insert(t.clone());
            }
        }
        out
    }

    /// Iterate `I+` in deterministic order.
    pub fn pos_tuples(&self) -> impl Iterator<Item = GroundTuple> + '_ {
        self.pos.iter().cloned()
    }

    /// Iterate `I−` in deterministic order.
    pub fn neg_tuples(&self) -> impl Iterator<Item = GroundTuple> + '_ {
        self.neg.iter().cloned()
    }

    /// Iterate all tuples with their signs.
    pub fn signed_tuples(&self) -> impl Iterator<Item = (GroundTuple, Sign)> + '_ {
        self.pos_tuples()
            .map(|t| (t, Sign::Pos))
            .chain(self.neg_tuples().map(|t| (t, Sign::Neg)))
    }

    /// Positive rows of one key group (for per-key slice maintenance).
    pub fn pos_rows_for_key(&self, key: &TupleKey) -> impl Iterator<Item = &Row> {
        group_rows(&self.pos, key)
    }

    /// Negative rows of one key group.
    pub fn neg_rows_for_key(&self, key: &TupleKey) -> impl Iterator<Item = &Row> {
        group_rows(&self.neg, key)
    }

    pub fn pos_len(&self) -> usize {
        self.pos.len()
    }

    pub fn neg_len(&self) -> usize {
        self.neg.len()
    }

    pub fn len(&self) -> usize {
        self.pos.len() + self.neg.len()
    }

    /// `Dw = (∅, ∅)`? (Empty worlds are not support states, Sect. 4.)
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl fmt::Display for BeliefWorld {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        let mut first = true;
        for (t, s) in self.signed_tuples() {
            if !first {
                write!(f, ", ")?;
            }
            first = false;
            write!(f, "{t}{s}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use beliefdb_storage::row;

    fn t(key: &str, species: &str) -> GroundTuple {
        GroundTuple::new(RelId(0), row![key, "Carol", species])
    }

    #[test]
    fn add_contains_remove() {
        let mut w = BeliefWorld::new();
        assert!(w.add_pos(t("s1", "eagle")));
        assert!(!w.add_pos(t("s1", "eagle")), "duplicate add is a no-op");
        assert!(w.contains_pos(&t("s1", "eagle")));
        assert!(!w.contains_neg(&t("s1", "eagle")));
        assert_eq!(w.pos_len(), 1);
        assert!(w.remove(&t("s1", "eagle"), Sign::Pos));
        assert!(!w.remove(&t("s1", "eagle"), Sign::Pos));
        assert!(w.is_empty());
    }

    #[test]
    fn gamma1_detects_key_violation() {
        let mut w = BeliefWorld::new();
        w.add_pos(t("s1", "eagle"));
        assert!(w.is_consistent());
        w.add_pos(t("s1", "fish eagle"));
        assert!(!w.gamma1());
        assert!(!w.is_consistent());
        assert!(w.check_consistent().unwrap_err().contains("Γ1"));
    }

    #[test]
    fn gamma2_detects_pos_neg_clash() {
        let mut w = BeliefWorld::new();
        w.add_pos(t("s1", "eagle"));
        w.add_neg(t("s1", "eagle"));
        assert!(w.gamma1());
        assert!(!w.gamma2());
        assert!(w.check_consistent().unwrap_err().contains("Γ2"));
    }

    #[test]
    fn multiple_negatives_on_same_key_are_consistent() {
        // Bob's world in Fig. 3: two negatives with key s1, one positive s2.
        let mut w = BeliefWorld::new();
        w.add_neg(t("s1", "bald eagle"));
        w.add_neg(t("s1", "fish eagle"));
        w.add_pos(t("s2", "raven"));
        assert!(w.is_consistent());
        assert_eq!(w.neg_len(), 2);
        assert_eq!(w.pos_len(), 1);
    }

    #[test]
    fn entailment_prop7() {
        let mut w = BeliefWorld::new();
        w.add_pos(t("s2", "raven"));
        w.add_neg(t("s1", "bald eagle"));
        // positive belief: exactly membership in I+
        assert!(w.entails_pos(&t("s2", "raven")));
        assert!(!w.entails_pos(&t("s2", "crow")));
        // stated negative
        assert!(w.entails_neg(&t("s1", "bald eagle")));
        // unstated negative: raven occupies key s2, so crow is impossible
        assert!(w.entails_neg(&t("s2", "crow")));
        // not negative: nothing known about s3
        assert!(!w.entails_neg(&t("s3", "owl")));
        // a positive tuple is not its own unstated negative
        assert!(!w.entails_neg(&t("s2", "raven")));
        assert!(w.entails(&t("s2", "raven"), Sign::Pos));
        assert!(w.entails(&t("s2", "crow"), Sign::Neg));
    }

    #[test]
    fn can_accept_respects_gamma() {
        let mut w = BeliefWorld::new();
        w.add_pos(t("s1", "eagle"));
        w.add_neg(t("s2", "crow"));
        // same tuple again: fine (no-op)
        assert!(w.can_accept(&t("s1", "eagle"), Sign::Pos));
        // conflicting positive on an occupied key: rejected
        assert!(!w.can_accept(&t("s1", "fish eagle"), Sign::Pos));
        // positive of a stated-negative tuple: rejected (Γ2)
        assert!(!w.can_accept(&t("s2", "crow"), Sign::Pos));
        // positive of a different tuple on s2: accepted (only stated
        // negatives block, not unstated)
        assert!(w.can_accept(&t("s2", "raven"), Sign::Pos));
        // negative of a positive tuple: rejected
        assert!(!w.can_accept(&t("s1", "eagle"), Sign::Neg));
        // negative of a different tuple on the same key: accepted
        assert!(w.can_accept(&t("s1", "fish eagle"), Sign::Neg));
    }

    #[test]
    fn override_with_parent() {
        // child explicitly believes raven@s2 and disbelieves t3
        let mut child = BeliefWorld::new();
        child.add_pos(t("s2", "raven"));
        child.add_neg(t("s3", "owl"));
        // parent believes crow@s2 (conflict), owl@s3 (blocked by stated
        // negative), eagle@s1 (inherited), and disbelieves heron@s4
        let mut parent = BeliefWorld::new();
        parent.add_pos(t("s2", "crow"));
        parent.add_pos(t("s3", "owl"));
        parent.add_pos(t("s1", "eagle"));
        parent.add_neg(t("s4", "heron"));

        let merged = child.override_with(&parent);
        assert!(
            merged.contains_pos(&t("s2", "raven")),
            "explicit belief survives"
        );
        assert!(
            !merged.contains_pos(&t("s2", "crow")),
            "conflicting parent tuple blocked"
        );
        assert!(
            !merged.contains_pos(&t("s3", "owl")),
            "stated negative blocks inherit"
        );
        assert!(
            merged.contains_pos(&t("s1", "eagle")),
            "unopposed tuple inherited"
        );
        assert!(merged.contains_neg(&t("s4", "heron")), "negative inherited");
        assert!(merged.is_consistent());
    }

    #[test]
    fn override_negative_blocked_by_positive() {
        let mut child = BeliefWorld::new();
        child.add_pos(t("s1", "eagle"));
        let mut parent = BeliefWorld::new();
        parent.add_neg(t("s1", "eagle"));
        let merged = child.override_with(&parent);
        assert!(merged.contains_pos(&t("s1", "eagle")));
        assert!(!merged.contains_neg(&t("s1", "eagle")));
        assert!(merged.is_consistent());
    }

    #[test]
    fn override_with_empty_child_copies_parent() {
        let child = BeliefWorld::new();
        let mut parent = BeliefWorld::new();
        parent.add_pos(t("s1", "eagle"));
        parent.add_neg(t("s2", "crow"));
        let merged = child.override_with(&parent);
        assert_eq!(merged, parent);
    }

    #[test]
    fn iteration_is_deterministic() {
        let mut w = BeliefWorld::new();
        w.add_pos(t("s2", "raven"));
        w.add_pos(t("s1", "eagle"));
        w.add_neg(t("s3", "owl"));
        let tuples: Vec<_> = w.signed_tuples().collect();
        assert_eq!(tuples.len(), 3);
        assert_eq!(tuples[0].0.key(), &Value::str("s1"));
        assert_eq!(tuples[1].0.key(), &Value::str("s2"));
        assert_eq!(tuples[2].1, Sign::Neg);
        let display = w.to_string();
        assert!(display.starts_with('{') && display.ends_with('}'));
    }

    #[test]
    fn key_groups() {
        let mut w = BeliefWorld::new();
        w.add_pos(t("s1", "eagle"));
        w.add_neg(t("s1", "crow"));
        w.add_neg(t("s1", "owl"));
        let key = (RelId(0), Value::str("s1"));
        assert_eq!(w.pos_rows_for_key(&key).count(), 1);
        assert_eq!(w.neg_rows_for_key(&key).count(), 2);
        let other = (RelId(0), Value::str("zz"));
        assert_eq!(w.pos_rows_for_key(&other).count(), 0);
    }
}
