//! Naive BCQ evaluation — the executable form of Def. 14.
//!
//! `answer(q) = { θ(x̄) | θ : var(Φ) → const, D |= θ(Φ) }`.
//!
//! Evaluation enumerates valuations directly against the logical closure:
//! path variables range over the registered users, argument variables over
//! the tuples of the entailed worlds. This is exponential in the number of
//! path variables and linear in world sizes — fine for the small databases
//! the differential tests and the evaluation ablation use, and completely
//! independent of the relational encoding (which is the point).

use super::{Bcq, CmpPred, PathElem, QueryTerm, Subgoal};
use crate::closure::Closure;
use crate::database::BeliefDatabase;
use crate::error::Result;
use crate::ids::UserId;
use crate::path::BeliefPath;
use crate::statement::Sign;
use beliefdb_storage::{Row, Value};
use std::collections::{BTreeMap, BTreeSet};

type Bindings = BTreeMap<String, Value>;

/// Evaluate a query against a belief database per Def. 14.
pub fn evaluate(db: &BeliefDatabase, q: &Bcq) -> Result<Vec<Row>> {
    q.validate(db.schema())?;
    q.check_path_users(|u| db.has_user(u))?;
    let mut closure = Closure::new(db);

    // Enumerate assignments for path variables (over registered users).
    let path_vars: Vec<String> = collect_path_vars(q);
    let users: Vec<UserId> = db.users().collect();

    let mut answers: BTreeSet<Row> = BTreeSet::new();
    let mut assignment: Vec<UserId> = Vec::with_capacity(path_vars.len());
    enumerate_paths(
        db,
        &mut closure,
        q,
        &path_vars,
        &users,
        &mut assignment,
        &mut answers,
    )?;
    Ok(answers.into_iter().collect())
}

fn collect_path_vars(q: &Bcq) -> Vec<String> {
    let mut seen = BTreeSet::new();
    let mut out = Vec::new();
    for sg in &q.subgoals {
        for e in &sg.path {
            if let PathElem::Var(n) = e {
                if seen.insert(n.clone()) {
                    out.push(n.clone());
                }
            }
        }
    }
    out
}

fn enumerate_paths(
    db: &BeliefDatabase,
    closure: &mut Closure<'_>,
    q: &Bcq,
    path_vars: &[String],
    users: &[UserId],
    assignment: &mut Vec<UserId>,
    answers: &mut BTreeSet<Row>,
) -> Result<()> {
    if assignment.len() == path_vars.len() {
        let mut bindings: Bindings = BTreeMap::new();
        for (name, uid) in path_vars.iter().zip(assignment.iter()) {
            bindings.insert(name.clone(), uid.value());
        }
        // Ground every subgoal path; skip assignments producing paths
        // outside Û* (such θ(Φ) are not well-formed statements).
        let mut grounded: Vec<(BeliefPath, &Subgoal)> = Vec::with_capacity(q.subgoals.len());
        for sg in &q.subgoals {
            match ground_path(sg, &bindings) {
                Some(p) => grounded.push((p, sg)),
                None => return Ok(()),
            }
        }
        // Positive subgoals first: they bind argument variables.
        grounded.sort_by_key(|(_, sg)| match sg.sign {
            Sign::Pos => 0,
            Sign::Neg => 1,
        });
        match_user_atoms(db, closure, q, &grounded, 0, bindings, answers)?;
        return Ok(());
    }
    for &u in users {
        assignment.push(u);
        enumerate_paths(db, closure, q, path_vars, users, assignment, answers)?;
        assignment.pop();
    }
    Ok(())
}

/// Bind the user-catalog atoms against the registry, then fall through to
/// subgoal matching.
fn match_user_atoms(
    db: &BeliefDatabase,
    closure: &mut Closure<'_>,
    q: &Bcq,
    grounded: &[(BeliefPath, &Subgoal)],
    idx: usize,
    bindings: Bindings,
    answers: &mut BTreeSet<Row>,
) -> Result<()> {
    let Some(ua) = q.user_atoms.get(idx) else {
        return match_subgoals(closure, q, grounded, bindings, answers);
    };
    let pattern = [ua.uid.clone(), ua.name.clone()];
    for u in db.users() {
        let name = db.user_name(u)?;
        let row = Row::new([u.value(), Value::str(name)]);
        if let Some(extended) = unify(&pattern, &row, &bindings) {
            match_user_atoms(db, closure, q, grounded, idx + 1, extended, answers)?;
        }
    }
    Ok(())
}

fn ground_path(sg: &Subgoal, bindings: &Bindings) -> Option<BeliefPath> {
    let mut users = Vec::with_capacity(sg.path.len());
    for e in &sg.path {
        let uid = match e {
            PathElem::User(u) => *u,
            PathElem::Var(n) => UserId::from_value(bindings.get(n)?)?,
        };
        users.push(uid);
    }
    BeliefPath::new(users).ok()
}

fn match_subgoals(
    closure: &mut Closure<'_>,
    q: &Bcq,
    grounded: &[(BeliefPath, &Subgoal)],
    bindings: Bindings,
    answers: &mut BTreeSet<Row>,
) -> Result<()> {
    let Some(((path, sg), rest)) = grounded.split_first() else {
        // All subgoals satisfied: check predicates, emit the head.
        if q.predicates.iter().all(|p| eval_pred(p, &bindings)) {
            if let Some(row) = project_head(q, &bindings) {
                answers.insert(row);
            }
        }
        return Ok(());
    };

    match sg.sign {
        Sign::Pos => {
            // Match the pattern against the world's positive tuples.
            let candidates: Vec<Row> = closure
                .entailed_world(path)
                .pos_tuples()
                .filter(|t| t.rel == sg.rel)
                .map(|t| t.row)
                .collect();
            for row in candidates {
                if let Some(extended) = unify(&sg.args, &row, &bindings) {
                    match_subgoals(closure, q, rest, extended, answers)?;
                }
            }
            Ok(())
        }
        Sign::Neg => {
            // All argument variables are bound by now (safety + ordering);
            // the subgoal is a ground negative-entailment check.
            let mut values = Vec::with_capacity(sg.args.len());
            for a in &sg.args {
                match a {
                    QueryTerm::Const(v) => values.push(v.clone()),
                    QueryTerm::Var(n) => match bindings.get(n) {
                        Some(v) => values.push(v.clone()),
                        None => return Ok(()), // unbound ⇒ no well-formed θ
                    },
                    QueryTerm::Any => unreachable!("rejected by safety check"),
                }
            }
            let tuple = crate::statement::GroundTuple::new(sg.rel, Row::new(values));
            if closure.entailed_world(path).entails_neg(&tuple) {
                match_subgoals(closure, q, rest, bindings, answers)?;
            }
            Ok(())
        }
    }
}

/// Unify a subgoal's argument pattern with a tuple row, extending bindings.
fn unify(args: &[QueryTerm], row: &Row, bindings: &Bindings) -> Option<Bindings> {
    if args.len() != row.arity() {
        return None;
    }
    let mut extended = bindings.clone();
    for (a, v) in args.iter().zip(row.values()) {
        match a {
            QueryTerm::Any => {}
            QueryTerm::Const(c) => {
                if c != v {
                    return None;
                }
            }
            QueryTerm::Var(n) => match extended.get(n) {
                Some(bound) => {
                    if bound != v {
                        return None;
                    }
                }
                None => {
                    extended.insert(n.clone(), v.clone());
                }
            },
        }
    }
    Some(extended)
}

fn eval_pred(p: &CmpPred, bindings: &Bindings) -> bool {
    let side = |t: &QueryTerm| -> Option<Value> {
        match t {
            QueryTerm::Const(v) => Some(v.clone()),
            QueryTerm::Var(n) => bindings.get(n).cloned(),
            QueryTerm::Any => None,
        }
    };
    match (side(&p.left), side(&p.right)) {
        (Some(l), Some(r)) => p.op.eval(&l, &r),
        _ => false,
    }
}

fn project_head(q: &Bcq, bindings: &Bindings) -> Option<Row> {
    let mut vals = Vec::with_capacity(q.head.len());
    for t in &q.head {
        match t {
            QueryTerm::Const(v) => vals.push(v.clone()),
            QueryTerm::Var(n) => vals.push(bindings.get(n)?.clone()),
            QueryTerm::Any => return None,
        }
    }
    Some(Row::new(vals))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bcq::dsl::*;
    use crate::bcq::Bcq;
    use crate::database::running_example;
    use crate::statement::BeliefStatement;
    use beliefdb_storage::{row, CmpOp};

    /// Paper q1-style content query: what does Bob believe about Sightings?
    #[test]
    fn content_query_over_bobs_world() {
        let (db, _, bob, _) = running_example();
        let s = db.schema().relation_id("Sightings").unwrap();
        let q = Bcq::builder(vec![qv("sid"), qv("species")])
            .positive(
                vec![pu(bob)],
                s,
                vec![qv("sid"), qany(), qv("species"), qany(), qany()],
            )
            .build(db.schema())
            .unwrap();
        let rows = evaluate(&db, &q).unwrap();
        assert_eq!(rows, vec![row!["s2", "raven"]]);
    }

    /// Paper q2 of Sect. 2: who disagrees with Alice about a species?
    #[test]
    fn disagreement_query_q2() {
        let (db, alice, _, _) = running_example();
        let s = db.schema().relation_id("Sightings").unwrap();
        // q(name2, sp1, sp2) :- [alice]S+(sid,u,sp1,d,l), [x]S+(sid,u2,sp2,d2,l2),
        //                       sid=sid, sp1 <> sp2
        let q = Bcq::builder(vec![qv("x"), qv("sp1"), qv("sp2")])
            .positive(
                vec![pu(alice)],
                s,
                vec![qv("sid"), qany(), qv("sp1"), qany(), qany()],
            )
            .positive(
                vec![pv("x")],
                s,
                vec![qv("sid"), qany(), qv("sp2"), qany(), qany()],
            )
            .pred(qv("sp1"), CmpOp::Ne, qv("sp2"))
            .build(db.schema())
            .unwrap();
        let rows = evaluate(&db, &q).unwrap();
        // Bob (uid 2) believes raven where Alice believes crow.
        assert_eq!(rows, vec![row![2, "crow", "raven"]]);
    }

    /// Example 15: users who disagree with any of Alice's beliefs.
    #[test]
    fn example_15_query() {
        let (db, alice, _, _) = running_example();
        let s = db.schema().relation_id("Sightings").unwrap();
        let args = vec![qv("y"), qv("z"), qv("u"), qv("v"), qv("w")];
        let q = Bcq::builder(vec![qv("x")])
            .negative(vec![pv("x")], s, args.clone())
            .positive(vec![pu(alice)], s, args)
            .build(db.schema())
            .unwrap();
        let rows = evaluate(&db, &q).unwrap();
        // Bob explicitly denies s1 (which Alice believes by default) and his
        // raven makes Alice's crow an unstated negative.
        assert_eq!(rows, vec![row![2]]);
    }

    /// Higher-order conflict query (paper q2 of Sect. 6.2): tuples Bob
    /// believes Alice believes but does not believe himself.
    #[test]
    fn higher_order_conflict_query() {
        let (db, alice, bob, _) = running_example();
        let s = db.schema().relation_id("Sightings").unwrap();
        let args = vec![qv("x"), qv("z"), qv("y"), qv("u"), qv("v")];
        let q = Bcq::builder(vec![qv("x"), qv("y")])
            .positive(vec![pu(bob), pu(alice)], s, args.clone())
            .negative(vec![pu(bob)], s, args)
            .build(db.schema())
            .unwrap();
        let rows = evaluate(&db, &q).unwrap();
        // Bob believes Alice believes crow@s2 yet believes raven himself
        // (unstated negative), and believes Alice believes bald eagle@s1
        // which he explicitly denies.
        assert_eq!(rows, vec![row!["s1", "bald eagle"], row!["s2", "crow"]]);
    }

    #[test]
    fn constants_in_negative_subgoal() {
        let (db, _alice, _, _) = running_example();
        let s = db.schema().relation_id("Sightings").unwrap();
        // Who has a negative belief about Alice's exact crow tuple?
        let q = Bcq::builder(vec![qv("x")])
            .negative(
                vec![pv("x")],
                s,
                vec![
                    qc("s2"),
                    qc("Alice"),
                    qc("crow"),
                    qc("6-14-08"),
                    qc("Lake Placid"),
                ],
            )
            .build(db.schema())
            .unwrap();
        let rows = evaluate(&db, &q).unwrap();
        assert_eq!(rows, vec![row![2]]);
    }

    #[test]
    fn invalid_path_assignments_are_skipped() {
        // A query with two adjacent path variables never matches x = y
        // (1·1 ∉ Û*).
        let (db, ..) = running_example();
        let s = db.schema().relation_id("Sightings").unwrap();
        let q = Bcq::builder(vec![qv("x"), qv("y")])
            .positive(
                vec![pv("x"), pv("y")],
                s,
                vec![qany(), qany(), qany(), qany(), qany()],
            )
            .build(db.schema())
            .unwrap();
        let rows = evaluate(&db, &q).unwrap();
        assert!(!rows.is_empty());
        for r in rows {
            assert_ne!(r[0], r[1], "path must stay in Û*");
        }
    }

    #[test]
    fn predicates_filter_results() {
        let (db, _, bob, _) = running_example();
        let s = db.schema().relation_id("Sightings").unwrap();
        let q = Bcq::builder(vec![qv("sid")])
            .positive(
                vec![pu(bob)],
                s,
                vec![qv("sid"), qany(), qv("sp"), qany(), qany()],
            )
            .pred(qv("sp"), CmpOp::Eq, qc("heron"))
            .build(db.schema())
            .unwrap();
        assert!(evaluate(&db, &q).unwrap().is_empty());
    }

    #[test]
    fn constant_head_terms() {
        let (db, _, bob, _) = running_example();
        let s = db.schema().relation_id("Sightings").unwrap();
        let q = Bcq::builder(vec![qc("marker"), qv("sid")])
            .positive(
                vec![pu(bob)],
                s,
                vec![qv("sid"), qany(), qany(), qany(), qany()],
            )
            .build(db.schema())
            .unwrap();
        let rows = evaluate(&db, &q).unwrap();
        assert_eq!(rows, vec![row!["marker", "s2"]]);
    }

    #[test]
    fn results_are_set_semantics() {
        let (db, ..) = running_example();
        let s = db.schema().relation_id("Sightings").unwrap();
        // Date is shared by every tuple: projection collapses to one row.
        let q = Bcq::builder(vec![qv("d")])
            .positive(vec![], s, vec![qany(), qany(), qany(), qv("d"), qany()])
            .build(db.schema())
            .unwrap();
        let rows = evaluate(&db, &q).unwrap();
        assert_eq!(rows, vec![row!["6-14-08"]]);
    }

    #[test]
    fn matches_direct_entailment_checks() {
        // Cross-check: a single-subgoal query with all-constant args agrees
        // with Closure::entails.
        let (db, _, bob, _) = running_example();
        let s = db.schema().relation_id("Sightings").unwrap();
        let tuple = crate::statement::GroundTuple::new(
            s,
            row!["s1", "Carol", "bald eagle", "6-14-08", "Lake Forest"],
        );
        let q = Bcq::builder(vec![qc(1)])
            .negative(
                vec![pu(bob)],
                s,
                vec![
                    qc("s1"),
                    qc("Carol"),
                    qc("bald eagle"),
                    qc("6-14-08"),
                    qc("Lake Forest"),
                ],
            )
            .build(db.schema())
            .unwrap();
        let expected = crate::closure::entails(
            &db,
            &BeliefStatement::negative(crate::path::BeliefPath::user(bob), tuple),
        );
        assert_eq!(!evaluate(&db, &q).unwrap().is_empty(), expected);
        assert!(expected);
    }
}
