//! Fidelity tests: the paper's algorithms expressed *relationally* — as
//! non-recursive Datalog over the materialized internal schema — agree with
//! the engine's in-memory implementations.
//!
//! The store keeps a world directory in memory as a cache of what `E` and
//! `D` encode (see `internal::worlds`); these tests demonstrate that the
//! relational encoding alone carries the same information by re-running
//! Algorithm 3 (`dss`) and the world-content walk (`E*` ⋈ `V` ⋈ `R*`, the
//! core of Algorithm 1) purely through the storage layer.

use beliefdb::core::internal::{D_TABLE, E_TABLE};
use beliefdb::core::{Bdms, BeliefPath, DefaultPolicy, UserId, Wid};
use beliefdb::gen::{generate_bdms_with_policy, DepthDist, GeneratorConfig};
use beliefdb::storage::datalog::{dsl, Evaluator};
use beliefdb::storage::{Row, Value};

/// Algorithm 3 in its relational form: for `p = 1 .. d+1`, run
/// `T(z, y) :− E*(0, w[p,d], z), D(z, y)` and return the `z` with maximum
/// depth `y` (the paper's max-operator step).
fn relational_dss(bdms: &Bdms, path: &BeliefPath) -> Wid {
    let mut ev = Evaluator::new(bdms.storage());
    let mut best: Option<(i64, i64)> = None; // (depth, wid)
    let d = path.depth();
    for p in 1..=d + 1 {
        let suffix = path.suffix_from(p);
        // Build E*(0, suffix, z): a chain of E atoms.
        let mut body = Vec::new();
        let mut prev = dsl::c(0i64);
        for (j, u) in suffix.users().iter().enumerate() {
            let next = dsl::v(&format!("z{j}"));
            body.push(dsl::pos(
                E_TABLE,
                vec![prev.clone(), dsl::c(u.value()), next.clone()],
            ));
            prev = next;
        }
        body.push(dsl::pos(D_TABLE, vec![prev.clone(), dsl::v("y")]));
        let rule = dsl::rule("T", vec![prev, dsl::v("y")], body);
        let rows = ev.eval_rule(&rule).expect("algorithm 3 query");
        // The walk is deterministic: at most one row. But faithfully apply
        // the max over whatever came back.
        for row in rows {
            let wid = row[0].as_int().expect("wid");
            let depth = row[1].as_int().expect("depth");
            // A suffix only counts if the walk actually reached the world
            // whose path *is* that suffix — verified below via depth: the
            // walk can fall back through dss edges, in which case the
            // reached depth is shorter than the suffix length. Algorithm 3
            // relies on exactly this: the first (longest) suffix whose walk
            // depth equals its length is the deepest suffix state.
            if depth as usize == suffix.depth() && best.is_none_or(|(bd, _)| depth > bd) {
                best = Some((depth, wid));
            }
        }
    }
    let (_, wid) = best.expect("the root always matches");
    Wid(wid as u32)
}

fn test_bdms() -> Bdms {
    test_bdms_under(DefaultPolicy::default())
}

fn test_bdms_under(policy: DefaultPolicy) -> Bdms {
    let cfg = GeneratorConfig::new(4, 150)
        .with_depth(DepthDist::new(&[0.2, 0.4, 0.3, 0.1]))
        .with_seed(63);
    let (bdms, _) = generate_bdms_with_policy(&cfg, policy).unwrap();
    bdms
}

#[test]
fn algorithm3_relational_form_agrees_with_directory() {
    let bdms = test_bdms();
    let users: Vec<UserId> = bdms.users();
    // Every path up to depth 3 (states and non-states alike).
    let mut paths = vec![BeliefPath::root()];
    let mut frontier = vec![BeliefPath::root()];
    for _ in 0..3 {
        let mut next = Vec::new();
        for p in &frontier {
            for &u in &users {
                if let Ok(q) = p.push(u) {
                    next.push(q);
                }
            }
        }
        paths.extend(next.iter().cloned());
        frontier = next;
    }
    let dir = bdms.internal().directory();
    for p in &paths {
        assert_eq!(
            relational_dss(&bdms, p),
            dir.dss(p),
            "Algorithm 3 disagrees with the directory at {p}"
        );
    }
}

/// The world-content walk of Algorithm 1's temp tables, run directly as a
/// Datalog rule over the internal schema:
/// `W(sid, species, s) :− E*(0, w, z), V__S(z, t, _, s, _), S__star(t, sid, _, species, _, _)`.
#[test]
fn world_contents_via_pure_relational_walk() {
    // `V` holds every world's content only under `Eager`.
    let bdms = test_bdms_under(DefaultPolicy::Eager);
    let mut ev = Evaluator::new(bdms.storage());
    let users: Vec<UserId> = bdms.users();

    for &u in &users {
        for &v in users.iter().filter(|&&v| v != u) {
            let path = BeliefPath::new(vec![u, v]).unwrap();
            // Relational walk.
            let rule = dsl::rule(
                "W",
                vec![dsl::v("sid"), dsl::v("species"), dsl::v("s")],
                vec![
                    dsl::pos(E_TABLE, vec![dsl::c(0i64), dsl::c(u.value()), dsl::v("z1")]),
                    dsl::pos(E_TABLE, vec![dsl::v("z1"), dsl::c(v.value()), dsl::v("z2")]),
                    dsl::pos(
                        "V__S",
                        vec![
                            dsl::v("z2"),
                            dsl::v("t"),
                            dsl::any(),
                            dsl::v("s"),
                            dsl::any(),
                        ],
                    ),
                    dsl::pos(
                        "S__star",
                        vec![
                            dsl::v("t"),
                            dsl::v("sid"),
                            dsl::any(),
                            dsl::v("species"),
                            dsl::any(),
                            dsl::any(),
                        ],
                    ),
                ],
            );
            let mut relational = ev.eval_rule(&rule).unwrap();
            relational.sort();

            // In-memory world.
            let world = bdms.world(&path).unwrap();
            let mut expected: Vec<Row> = world
                .signed_tuples()
                .map(|(t, sign)| Row::new(vec![t.row[0].clone(), t.row[2].clone(), sign.value()]))
                .collect();
            expected.sort();
            expected.dedup();
            assert_eq!(relational, expected, "world walk mismatch at {path}");
        }
    }
}

/// The E relation is exactly Def. 16's edge set: `|E| = Σ_w |{u : u ≠
/// last(w)}|` and every row points at a deepest suffix state.
#[test]
fn edge_relation_matches_def16() {
    let bdms = test_bdms();
    let dir = bdms.internal().directory();
    let e = bdms.storage().table(E_TABLE).unwrap();
    let m = bdms.users().len();
    let mut expected_rows = 0;
    for (_, path) in dir.iter() {
        expected_rows += if path.is_root() { m } else { m - 1 };
    }
    assert_eq!(e.len(), expected_rows);
    for (_, row) in e.iter() {
        let src = Wid::from_value(&row[0]).unwrap();
        let user = UserId::from_value(&row[1]).unwrap();
        let dst = Wid::from_value(&row[2]).unwrap();
        let extended = dir.path(src).push(user).expect("edge implies u ≠ last");
        assert_eq!(dir.dss(&extended), dst, "edge target is not the dss");
    }
}

/// `D` and `S` are exactly the depth and suffix-backlink relations.
#[test]
fn depth_and_suffix_relations_match() {
    let bdms = test_bdms();
    let dir = bdms.internal().directory();
    let d = bdms.storage().table(D_TABLE).unwrap();
    let s = bdms.storage().table("S").unwrap();
    assert_eq!(d.len(), dir.len());
    assert_eq!(s.len(), dir.len() - 1);
    for (wid, path) in dir.iter() {
        let drow = d.get_by_key(&wid.value()).unwrap();
        assert_eq!(drow[1], Value::Int(path.depth() as i64));
        if !path.is_root() {
            let srow = s.get_by_key(&wid.value()).unwrap();
            let parent = Wid::from_value(&srow[1]).unwrap();
            assert_eq!(parent, dir.dss(&path.drop_first()), "S backlink at {path}");
        }
    }
}
