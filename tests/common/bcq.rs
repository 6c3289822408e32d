//! A random belief conjunctive query generator over the experiment
//! schema's `S(sid, uid, species, date, location)`: paths of up to two
//! elements over users 1–3 and two path variables, constants from small
//! key and species pools, `≠` predicates, projections of the shared
//! variable pool. Many generated queries are unsafe (Def. 13) on purpose.

use beliefdb::core::bcq::{Bcq, CmpPred, PathElem, QueryTerm, Subgoal};
use beliefdb::core::{Sign, UserId};
use beliefdb::storage::CmpOp;
use proptest::prelude::*;

/// Users the generated paths name.
pub const USERS: u32 = 3;
pub const ARITY: usize = 5;

/// Variable pool: path variables and argument variables share a namespace
/// (as in the paper's q1, where `U.uid` is both).
pub fn var_pool() -> Vec<&'static str> {
    vec!["x", "y", "a", "b", "c"]
}

pub fn arb_path_elem() -> impl Strategy<Value = PathElem> {
    prop_oneof![
        (1..=USERS).prop_map(|u| PathElem::User(UserId(u))),
        (0..2usize).prop_map(|i| PathElem::var(var_pool()[i])),
    ]
}

pub fn arb_query_term(allow_any: bool) -> impl Strategy<Value = QueryTerm> {
    let consts = prop_oneof![
        (0..6u8).prop_map(|k| QueryTerm::val(format!("s{k}"))),
        (0..4u8).prop_map(|v| QueryTerm::val(format!("species{v}"))),
    ];
    let vars = (0..var_pool().len()).prop_map(|i| QueryTerm::var(var_pool()[i]));
    if allow_any {
        prop_oneof![2 => vars, 1 => consts, 1 => Just(QueryTerm::Any)].boxed()
    } else {
        prop_oneof![2 => vars, 1 => consts].boxed()
    }
}

pub fn arb_subgoal() -> impl Strategy<Value = Subgoal> {
    (
        proptest::collection::vec(arb_path_elem(), 0..=2),
        proptest::bool::ANY,
    )
        .prop_flat_map(|(path, negative)| {
            let sign = if negative { Sign::Neg } else { Sign::Pos };
            proptest::collection::vec(arb_query_term(sign == Sign::Pos), ARITY..=ARITY).prop_map(
                move |args| Subgoal {
                    path: path.clone(),
                    sign,
                    rel: beliefdb::core::RelId(0),
                    args,
                },
            )
        })
}

pub fn arb_query() -> impl Strategy<Value = Bcq> {
    (
        proptest::collection::vec(arb_subgoal(), 1..=3),
        proptest::collection::vec((0..var_pool().len(), 0..var_pool().len()), 0..=1),
        proptest::collection::vec(0..var_pool().len(), 0..=2),
    )
        .prop_map(|(subgoals, preds, head_vars)| {
            let predicates = preds
                .into_iter()
                .map(|(l, r)| CmpPred {
                    left: QueryTerm::var(var_pool()[l]),
                    op: CmpOp::Ne,
                    right: QueryTerm::var(var_pool()[r]),
                })
                .collect();
            let head = head_vars
                .into_iter()
                .map(|i| QueryTerm::var(var_pool()[i]))
                .collect();
            Bcq {
                head,
                subgoals,
                predicates,
                user_atoms: Vec::new(),
            }
        })
}
