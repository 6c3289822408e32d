//! Shared fuzzing helpers for the executor/optimizer differential
//! suites (`tests/optimizer_equivalence.rs`, `tests/exec_streaming.rs`),
//! and in [`bcq`] the random BCQs of `tests/query_fuzz.rs` and
//! `tests/lazy_mode.rs`.
//!
//! The plan generator produces arity-correct random plans over a
//! mixed-size database: joins, anti-joins, unions, selections,
//! projections, distinct, and literal relations.

#![allow(dead_code)]

pub mod bcq;

use beliefdb::storage::{row, CmpOp, Database, Expr, Plan, Row, TableSchema, Value};
use rand::rngs::StdRng;
use rand::Rng;

/// The database every fuzzed plan runs against.
pub fn plan_db() -> Database {
    let mut db = Database::new();
    let users = db
        .create_table(TableSchema::with_key("Users", &["uid", "name"]))
        .unwrap();
    for i in 1..=40i64 {
        users
            .insert(row![i, format!("user{}", i % 7).as_str()])
            .unwrap();
    }
    let e = db
        .create_table(TableSchema::keyless("E", &["w1", "u", "w2"]))
        .unwrap();
    e.create_index("by_w1_u", &["w1", "u"]).unwrap();
    for w in 0..30i64 {
        for u in 1..=5i64 {
            e.insert(row![w, u, (w * u + u) % 30]).unwrap();
        }
    }
    let v = db
        .create_table(TableSchema::keyless("V", &["wid", "tid", "s"]))
        .unwrap();
    v.create_index("by_wid", &["wid"]).unwrap();
    for i in 0..300i64 {
        v.insert(row![i % 30, i % 60, if i % 3 == 0 { "+" } else { "-" }])
            .unwrap();
    }
    db
}

/// A random predicate over `arity` columns.
pub fn gen_pred(rng: &mut StdRng, arity: usize, depth: usize) -> Expr {
    let leaf = |rng: &mut StdRng| -> Expr {
        let c = rng.gen_range(0..arity);
        let op = match rng.gen_range(0..4u32) {
            0 => CmpOp::Eq,
            1 => CmpOp::Ne,
            2 => CmpOp::Lt,
            _ => CmpOp::Ge,
        };
        if rng.gen_bool(0.5) {
            let lit: Value = match rng.gen_range(0..3u32) {
                0 => Value::int(rng.gen_range(0..30u32) as i64),
                1 => Value::str(if rng.gen_bool(0.5) { "+" } else { "-" }),
                _ => Value::str(format!("user{}", rng.gen_range(0..7u32))),
            };
            Expr::cmp(op, Expr::Col(c), Expr::Lit(lit))
        } else {
            Expr::cmp(op, Expr::Col(c), Expr::Col(rng.gen_range(0..arity)))
        }
    };
    if depth == 0 || rng.gen_bool(0.4) {
        return leaf(rng);
    }
    match rng.gen_range(0..3u32) {
        0 => Expr::and(
            (0..rng.gen_range(1..4usize))
                .map(|_| gen_pred(rng, arity, depth - 1))
                .collect(),
        ),
        1 => Expr::or(
            (0..rng.gen_range(1..4usize))
                .map(|_| gen_pred(rng, arity, depth - 1))
                .collect(),
        ),
        _ => Expr::Not(Box::new(gen_pred(rng, arity, depth - 1))),
    }
}

/// A random arity-correct plan. Returns the plan and its arity.
pub fn gen_plan(rng: &mut StdRng, depth: usize) -> (Plan, usize) {
    if depth == 0 || rng.gen_bool(0.25) {
        return match rng.gen_range(0..4u32) {
            0 => (Plan::scan("Users"), 2),
            1 => (Plan::scan("E"), 3),
            2 => (Plan::scan("V"), 3),
            _ => {
                let arity = rng.gen_range(1..4usize);
                let n = rng.gen_range(0..6usize);
                let rows: Vec<Row> = (0..n)
                    .map(|_| {
                        Row::new(
                            (0..arity)
                                .map(|_| Value::int(rng.gen_range(0..20u32) as i64))
                                .collect::<Vec<_>>(),
                        )
                    })
                    .collect();
                (Plan::Values { arity, rows }, arity)
            }
        };
    }
    match rng.gen_range(0..6u32) {
        0 => {
            let (p, a) = gen_plan(rng, depth - 1);
            (p.select(gen_pred(rng, a, 2)), a)
        }
        1 => {
            let (p, a) = gen_plan(rng, depth - 1);
            let out = rng.gen_range(1..4usize);
            let cols: Vec<usize> = (0..out).map(|_| rng.gen_range(0..a)).collect();
            (p.project_cols(&cols), out)
        }
        2 => {
            let (l, la) = gen_plan(rng, depth - 1);
            let (r, ra) = gen_plan(rng, depth - 1);
            let keys = rng.gen_range(0..3usize);
            let on: Vec<(usize, usize)> = (0..keys)
                .map(|_| (rng.gen_range(0..la), rng.gen_range(0..ra)))
                .collect();
            let joined = if rng.gen_bool(0.3) {
                let residual = gen_pred(rng, la + ra, 1);
                l.join_where(r, on, residual)
            } else {
                l.join(r, on)
            };
            (joined, la + ra)
        }
        3 => {
            let (l, la) = gen_plan(rng, depth - 1);
            let (r, ra) = gen_plan(rng, depth - 1);
            let keys = rng.gen_range(0..3usize);
            let on: Vec<(usize, usize)> = (0..keys)
                .map(|_| (rng.gen_range(0..la), rng.gen_range(0..ra)))
                .collect();
            (l.anti_join(r, on), la)
        }
        4 => {
            let (l, la) = gen_plan(rng, depth - 1);
            let (r, ra) = gen_plan(rng, depth - 1);
            // Align arities with projections for a valid union.
            let a = la.min(ra);
            let cols: Vec<usize> = (0..a).collect();
            (
                Plan::Union {
                    inputs: vec![l.project_cols(&cols), r.project_cols(&cols)],
                },
                a,
            )
        }
        _ => {
            let (p, a) = gen_plan(rng, depth - 1);
            (p.distinct(), a)
        }
    }
}

/// Multiset comparison via sort.
pub fn sorted(mut rows: Vec<Row>) -> Vec<Row> {
    rows.sort();
    rows
}

/// An input relation of `n` rows whose values repeat with period 700, so
/// any size past 700 produces duplicates that `Distinct` must catch
/// across chunk edges (with the ramp-up schedule 32/64/…/1024 the edges
/// land at 32, 96, 224, 480, 992, 2016 — first occurrences and their
/// duplicates straddle several of them). Used by the batch-boundary
/// layer of the executor differential suite.
pub fn boundary_values(n: usize) -> Plan {
    let rows: Vec<Row> = (0..n).map(|i| row![(i % 700) as i64]).collect();
    Plan::Values { arity: 1, rows }
}
