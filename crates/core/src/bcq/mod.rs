//! Belief Conjunctive Queries (Def. 13–14) and their two evaluators.
//!
//! A BCQ is `q(x̄) :− w̄1 R1^s1(x̄1), ..., w̄g Rg^sg(x̄g)` — conjunctive
//! queries whose subgoals carry belief paths and signs — plus optional
//! arithmetic predicates. Belief paths and arguments may mix variables and
//! constants; the same variable namespace spans paths and arguments (a path
//! variable binds to a user id, which compares as an integer value).
//!
//! Two evaluators implement Def. 14:
//!
//! * [`naive`] — directly over the logical closure (`D̄`); the executable
//!   specification, exponential in path variables; used for differential
//!   testing and the evaluation-strategy ablation.
//! * [`translate`] — Algorithm 1: translation to non-recursive Datalog over
//!   the internal relational schema; the production path.

pub mod naive;
pub mod translate;

use crate::error::{BeliefError, Result};
use crate::ids::{RelId, UserId};
use crate::schema::ExternalSchema;
use crate::statement::Sign;
use beliefdb_storage::{CmpOp, Value};
use std::collections::BTreeSet;
use std::fmt;

/// One element of a subgoal's belief path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PathElem {
    /// A concrete user.
    User(UserId),
    /// A variable ranging over users.
    Var(String),
}

impl PathElem {
    pub fn var(name: impl Into<String>) -> Self {
        PathElem::Var(name.into())
    }
}

/// A term in a subgoal's argument list or in the query head.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryTerm {
    /// A constant value.
    Const(Value),
    /// A named variable.
    Var(String),
    /// An anonymous variable (projected away). Only allowed where it has no
    /// semantic weight: positive subgoal arguments.
    Any,
}

impl QueryTerm {
    pub fn var(name: impl Into<String>) -> Self {
        QueryTerm::Var(name.into())
    }

    pub fn val(v: impl Into<Value>) -> Self {
        QueryTerm::Const(v.into())
    }

    pub fn as_var(&self) -> Option<&str> {
        match self {
            QueryTerm::Var(n) => Some(n),
            _ => None,
        }
    }
}

/// A modal subgoal `w̄ R^s(x̄)`.
#[derive(Debug, Clone, PartialEq)]
pub struct Subgoal {
    pub path: Vec<PathElem>,
    pub sign: Sign,
    pub rel: RelId,
    pub args: Vec<QueryTerm>,
}

impl Subgoal {
    pub fn positive(path: Vec<PathElem>, rel: RelId, args: Vec<QueryTerm>) -> Self {
        Subgoal {
            path,
            sign: Sign::Pos,
            rel,
            args,
        }
    }

    pub fn negative(path: Vec<PathElem>, rel: RelId, args: Vec<QueryTerm>) -> Self {
        Subgoal {
            path,
            sign: Sign::Neg,
            rel,
            args,
        }
    }

    /// Depth of the subgoal's belief path.
    pub fn depth(&self) -> usize {
        self.path.len()
    }
}

/// An arithmetic predicate `a op b` (Def. 13 allows =, ≠, <, >, ≤, ≥).
#[derive(Debug, Clone, PartialEq)]
pub struct CmpPred {
    pub left: QueryTerm,
    pub op: CmpOp,
    pub right: QueryTerm,
}

/// An atom over the user catalog `U(uid, name)`.
///
/// The paper's example queries join the `Users` relation (q1, q2 of
/// Sect. 2); `Users` is the catalog the BDMS manages itself (Fig. 5), not a
/// belief-annotated relation, so it gets its own atom kind. User atoms bind
/// their variables (they behave like positive subgoals for safety).
#[derive(Debug, Clone, PartialEq)]
pub struct UserAtom {
    pub uid: QueryTerm,
    pub name: QueryTerm,
}

fn put_len(out: &mut Vec<u8>, n: usize) {
    out.extend((n as u64).to_le_bytes());
}

fn put_str(out: &mut Vec<u8>, bytes: &[u8]) {
    put_len(out, bytes.len());
    out.extend_from_slice(bytes);
}

/// [`Bcq::encode`] of one term.
fn put_term(out: &mut Vec<u8>, t: &QueryTerm) {
    match t {
        QueryTerm::Const(v) => {
            out.push(0);
            match v {
                Value::Null => out.push(0),
                Value::Bool(b) => out.extend([1, *b as u8]),
                Value::Int(i) => {
                    out.push(2);
                    out.extend(i.to_le_bytes());
                }
                Value::Str(s) => {
                    out.push(3);
                    put_str(out, s.as_bytes());
                }
            }
        }
        QueryTerm::Var(n) => {
            out.push(1);
            put_str(out, n.as_bytes());
        }
        QueryTerm::Any => out.push(2),
    }
}

/// A belief conjunctive query.
#[derive(Debug, Clone, PartialEq)]
pub struct Bcq {
    pub head: Vec<QueryTerm>,
    pub subgoals: Vec<Subgoal>,
    pub predicates: Vec<CmpPred>,
    pub user_atoms: Vec<UserAtom>,
}

impl Bcq {
    /// Start building a query with the given head terms.
    pub fn builder(head: Vec<QueryTerm>) -> BcqBuilder {
        BcqBuilder {
            bcq: Bcq {
                head,
                subgoals: Vec::new(),
                predicates: Vec::new(),
                user_atoms: Vec::new(),
            },
        }
    }

    /// All variables of the query, sorted.
    pub fn variables(&self) -> BTreeSet<&str> {
        let mut vars = BTreeSet::new();
        for t in &self.head {
            if let QueryTerm::Var(n) = t {
                vars.insert(n.as_str());
            }
        }
        for sg in &self.subgoals {
            for e in &sg.path {
                if let PathElem::Var(n) = e {
                    vars.insert(n.as_str());
                }
            }
            for a in &sg.args {
                if let QueryTerm::Var(n) = a {
                    vars.insert(n.as_str());
                }
            }
        }
        for p in &self.predicates {
            for t in [&p.left, &p.right] {
                if let QueryTerm::Var(n) = t {
                    vars.insert(n.as_str());
                }
            }
        }
        for ua in &self.user_atoms {
            for t in [&ua.uid, &ua.name] {
                if let QueryTerm::Var(n) = t {
                    vars.insert(n.as_str());
                }
            }
        }
        vars
    }

    /// Variables with a *positive occurrence* (Def. 13): in any belief path,
    /// in the arguments of a positive subgoal, or in a user atom.
    pub fn positively_bound(&self) -> BTreeSet<&str> {
        let mut vars = BTreeSet::new();
        for sg in &self.subgoals {
            for e in &sg.path {
                if let PathElem::Var(n) = e {
                    vars.insert(n.as_str());
                }
            }
            if sg.sign == Sign::Pos {
                for a in &sg.args {
                    if let QueryTerm::Var(n) = a {
                        vars.insert(n.as_str());
                    }
                }
            }
        }
        for ua in &self.user_atoms {
            for t in [&ua.uid, &ua.name] {
                if let QueryTerm::Var(n) = t {
                    vars.insert(n.as_str());
                }
            }
        }
        vars
    }

    /// Reject a belief path that names a user who is not registered
    /// (`has_user` says no) with [`BeliefError::NoSuchUser`]. Algorithm 1
    /// and the naive evaluator both run this check, so they refuse such a
    /// query alike instead of answering it differently.
    pub fn check_path_users(&self, has_user: impl Fn(UserId) -> bool) -> Result<()> {
        let mut named = self.subgoals.iter().flat_map(|sg| &sg.path);
        match named.find(|e| matches!(e, PathElem::User(u) if !has_user(*u))) {
            Some(PathElem::User(u)) => Err(BeliefError::NoSuchUser(format!("#{u}"))),
            _ => Ok(()),
        }
    }

    /// A canonical byte encoding of the query, appended to `out`: two
    /// queries encode alike exactly when they are equal. Every alternative
    /// is tagged and every list and string length-prefixed, so no two
    /// queries share an encoding. It keys the plan cache's query memo
    /// ([`translate::evaluate`]).
    pub fn encode(&self, out: &mut Vec<u8>) {
        put_len(out, self.head.len());
        self.head.iter().for_each(|t| put_term(out, t));
        put_len(out, self.subgoals.len());
        for sg in &self.subgoals {
            put_len(out, sg.path.len());
            for elem in &sg.path {
                match elem {
                    PathElem::User(u) => {
                        out.push(0);
                        out.extend(u.0.to_le_bytes());
                    }
                    PathElem::Var(n) => {
                        out.push(1);
                        put_str(out, n.as_bytes());
                    }
                }
            }
            out.push(sg.sign as u8);
            out.extend(sg.rel.0.to_le_bytes());
            put_len(out, sg.args.len());
            sg.args.iter().for_each(|t| put_term(out, t));
        }
        put_len(out, self.predicates.len());
        for p in &self.predicates {
            put_term(out, &p.left);
            out.push(p.op as u8);
            put_term(out, &p.right);
        }
        put_len(out, self.user_atoms.len());
        for ua in &self.user_atoms {
            put_term(out, &ua.uid);
            put_term(out, &ua.name);
        }
    }

    /// The safety check of Def. 13 plus structural validation against the
    /// schema. Every variable must have a positive occurrence; wildcards may
    /// only appear as positive-subgoal arguments; constant path segments
    /// must respect `Û*`; arities must match.
    pub fn validate(&self, schema: &ExternalSchema) -> Result<()> {
        if self.subgoals.is_empty() && self.user_atoms.is_empty() {
            return Err(BeliefError::MalformedQuery("query has no subgoals".into()));
        }
        for sg in &self.subgoals {
            let def = schema.relation(sg.rel)?;
            if sg.args.len() != def.arity() {
                return Err(BeliefError::MalformedQuery(format!(
                    "subgoal over `{}` has {} arguments, expected {}",
                    def.name(),
                    sg.args.len(),
                    def.arity()
                )));
            }
            for pair in sg.path.windows(2) {
                if let (PathElem::User(a), PathElem::User(b)) = (&pair[0], &pair[1]) {
                    if a == b {
                        return Err(BeliefError::MalformedQuery(format!(
                            "belief path repeats user {a} in adjacent positions"
                        )));
                    }
                }
            }
            if sg.sign == Sign::Neg && sg.args.iter().any(|a| matches!(a, QueryTerm::Any)) {
                return Err(BeliefError::UnsafeQuery(
                    "wildcard in a negative subgoal is an unbound existential variable".into(),
                ));
            }
        }
        for t in &self.head {
            if matches!(t, QueryTerm::Any) {
                return Err(BeliefError::MalformedQuery("wildcard in query head".into()));
            }
        }
        let bound = self.positively_bound();
        for v in self.variables() {
            if !bound.contains(v) {
                return Err(BeliefError::UnsafeQuery(format!(
                    "variable `{v}` has no positive occurrence (Def. 13)"
                )));
            }
        }
        Ok(())
    }

    /// Head arity.
    pub fn arity(&self) -> usize {
        self.head.len()
    }
}

/// Fluent builder for [`Bcq`].
pub struct BcqBuilder {
    bcq: Bcq,
}

impl BcqBuilder {
    /// Add a positive subgoal.
    pub fn positive(mut self, path: Vec<PathElem>, rel: RelId, args: Vec<QueryTerm>) -> Self {
        self.bcq.subgoals.push(Subgoal::positive(path, rel, args));
        self
    }

    /// Add a negative subgoal.
    pub fn negative(mut self, path: Vec<PathElem>, rel: RelId, args: Vec<QueryTerm>) -> Self {
        self.bcq.subgoals.push(Subgoal::negative(path, rel, args));
        self
    }

    /// Add an arithmetic predicate.
    pub fn pred(mut self, left: QueryTerm, op: CmpOp, right: QueryTerm) -> Self {
        self.bcq.predicates.push(CmpPred { left, op, right });
        self
    }

    /// Add a user-catalog atom `U(uid, name)`.
    pub fn user(mut self, uid: QueryTerm, name: QueryTerm) -> Self {
        self.bcq.user_atoms.push(UserAtom { uid, name });
        self
    }

    /// Finish, validating against the schema.
    pub fn build(self, schema: &ExternalSchema) -> Result<Bcq> {
        self.bcq.validate(schema)?;
        Ok(self.bcq)
    }

    /// Finish without validation (for tests that exercise the validators).
    pub fn build_unchecked(self) -> Bcq {
        self.bcq
    }
}

impl fmt::Display for Bcq {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "q(")?;
        for (i, t) in self.head.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write_term(f, t)?;
        }
        write!(f, ") :- ")?;
        for (i, sg) in self.subgoals.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            for e in &sg.path {
                match e {
                    PathElem::User(u) => write!(f, "[{u}]")?,
                    PathElem::Var(v) => write!(f, "[{v}]")?,
                }
            }
            write!(f, "R{}{}(", sg.rel, sg.sign)?;
            for (j, a) in sg.args.iter().enumerate() {
                if j > 0 {
                    write!(f, ", ")?;
                }
                write_term(f, a)?;
            }
            write!(f, ")")?;
        }
        for p in &self.predicates {
            write!(f, ", ")?;
            write_term(f, &p.left)?;
            write!(f, " {} ", p.op)?;
            write_term(f, &p.right)?;
        }
        Ok(())
    }
}

fn write_term(f: &mut fmt::Formatter<'_>, t: &QueryTerm) -> fmt::Result {
    match t {
        QueryTerm::Const(Value::Str(s)) => write!(f, "'{s}'"),
        QueryTerm::Const(v) => write!(f, "{v}"),
        QueryTerm::Var(n) => write!(f, "{n}"),
        QueryTerm::Any => write!(f, "_"),
    }
}

/// Shorthand constructors for query literals.
pub mod dsl {
    use super::*;

    /// Variable term.
    pub fn qv(name: &str) -> QueryTerm {
        QueryTerm::var(name)
    }

    /// Constant term.
    pub fn qc(v: impl Into<Value>) -> QueryTerm {
        QueryTerm::val(v)
    }

    /// Wildcard term.
    pub fn qany() -> QueryTerm {
        QueryTerm::Any
    }

    /// Constant path element.
    pub fn pu(u: UserId) -> PathElem {
        PathElem::User(u)
    }

    /// Variable path element.
    pub fn pv(name: &str) -> PathElem {
        PathElem::var(name)
    }
}

#[cfg(test)]
mod tests {
    use super::dsl::*;
    use super::*;

    fn schema() -> ExternalSchema {
        ExternalSchema::new().with_relation("S", &["sid", "uid", "species", "date", "location"])
    }

    #[test]
    fn build_example_15() {
        // q3(x) :- x S−(y,z,u,v,w), Alice S+(y,z,u,v,w)
        let schema = schema();
        let s = schema.relation_id("S").unwrap();
        let q = Bcq::builder(vec![qv("x")])
            .negative(
                vec![pv("x")],
                s,
                vec![qv("y"), qv("z"), qv("u"), qv("v"), qv("w")],
            )
            .positive(
                vec![pu(UserId(1))],
                s,
                vec![qv("y"), qv("z"), qv("u"), qv("v"), qv("w")],
            )
            .build(&schema)
            .unwrap();
        assert_eq!(q.arity(), 1);
        assert_eq!(q.subgoals.len(), 2);
        assert_eq!(q.variables().len(), 6);
        let shown = q.to_string();
        assert!(shown.contains("R0-"));
        assert!(shown.contains("R0+"));
    }

    #[test]
    fn safety_rejects_unbound_negative_variable() {
        // q(y) :- [1]S−(y, ...) — y only occurs in a negative subgoal's args.
        let schema = schema();
        let s = schema.relation_id("S").unwrap();
        let err = Bcq::builder(vec![qv("y")])
            .negative(
                vec![pu(UserId(1))],
                s,
                vec![qv("y"), qc("a"), qc("b"), qc("c"), qc("d")],
            )
            .build(&schema)
            .unwrap_err();
        assert!(matches!(err, BeliefError::UnsafeQuery(_)));
    }

    #[test]
    fn safety_accepts_path_bound_variable() {
        // q3's x: bound in the negative subgoal's PATH — that is a positive
        // occurrence.
        let schema = schema();
        let s = schema.relation_id("S").unwrap();
        let q = Bcq::builder(vec![qv("x")])
            .negative(
                vec![pv("x")],
                s,
                vec![qc("s1"), qc("u"), qc("sp"), qc("d"), qc("l")],
            )
            .build(&schema);
        assert!(q.is_ok());
    }

    #[test]
    fn safety_rejects_wildcard_in_negative_subgoal() {
        let schema = schema();
        let s = schema.relation_id("S").unwrap();
        let err = Bcq::builder(vec![])
            .negative(
                vec![pu(UserId(1))],
                s,
                vec![qc("s1"), qany(), qany(), qany(), qany()],
            )
            .build(&schema)
            .unwrap_err();
        assert!(matches!(err, BeliefError::UnsafeQuery(_)));
    }

    #[test]
    fn wildcards_allowed_in_positive_subgoals() {
        let schema = schema();
        let s = schema.relation_id("S").unwrap();
        let q = Bcq::builder(vec![qv("x"), qv("y")])
            .positive(
                vec![pu(UserId(1))],
                s,
                vec![qv("x"), qany(), qv("y"), qany(), qany()],
            )
            .build(&schema);
        assert!(q.is_ok());
    }

    #[test]
    fn structural_validation() {
        let schema = schema();
        let s = schema.relation_id("S").unwrap();
        // wrong arity
        let err = Bcq::builder(vec![])
            .positive(vec![], s, vec![qc("s1")])
            .build(&schema)
            .unwrap_err();
        assert!(matches!(err, BeliefError::MalformedQuery(_)));
        // repeated adjacent constant users
        let err = Bcq::builder(vec![])
            .positive(
                vec![pu(UserId(1)), pu(UserId(1))],
                s,
                vec![qany(), qany(), qany(), qany(), qany()],
            )
            .build(&schema)
            .unwrap_err();
        assert!(matches!(err, BeliefError::MalformedQuery(_)));
        // empty body
        let err = Bcq::builder(vec![qv("x")]).build(&schema).unwrap_err();
        assert!(matches!(err, BeliefError::MalformedQuery(_)));
        // wildcard head
        let err = Bcq::builder(vec![qany()])
            .positive(vec![], s, vec![qany(), qany(), qany(), qany(), qany()])
            .build(&schema)
            .unwrap_err();
        assert!(matches!(err, BeliefError::MalformedQuery(_)));
        // unknown relation
        let err = Bcq::builder(vec![])
            .positive(vec![], RelId(9), vec![])
            .build(&schema)
            .unwrap_err();
        assert!(matches!(err, BeliefError::NoSuchRelation(_)));
    }

    #[test]
    fn head_variable_needs_binding() {
        let schema = schema();
        let s = schema.relation_id("S").unwrap();
        let err = Bcq::builder(vec![qv("ghost")])
            .positive(vec![], s, vec![qany(), qany(), qany(), qany(), qany()])
            .build(&schema)
            .unwrap_err();
        assert!(matches!(err, BeliefError::UnsafeQuery(_)));
    }

    #[test]
    fn predicate_variables_need_binding() {
        let schema = schema();
        let s = schema.relation_id("S").unwrap();
        let err = Bcq::builder(vec![])
            .positive(vec![], s, vec![qv("x"), qany(), qany(), qany(), qany()])
            .pred(qv("zz"), CmpOp::Lt, qc(5))
            .build(&schema)
            .unwrap_err();
        assert!(matches!(err, BeliefError::UnsafeQuery(_)));
    }
}
