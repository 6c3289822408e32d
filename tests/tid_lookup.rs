//! `R*` finds its own tuples: the tid [`InternalStore::tid_of`] reads off
//! `R*`'s `by_tuple` index is the tid a scan of `R*` finds, for every tuple
//! of a small domain, after seeded insert / delete / update sequences —
//! rejected inserts included, which still create `R*` rows (Sect. 5.3) —
//! and again after the store is rebuilt by WAL replay and from a
//! checkpoint.
//!
//! The domain is built to trip a lookup that is not exact: tuples that
//! share a key and differ in the other column, a NULL cell, and keys that
//! print alike but differ in type (`1` against `'1'`).
//!
//! [`InternalStore::tid_of`]: beliefdb::core::internal::InternalStore::tid_of

use beliefdb::core::{Bdms, BeliefPath, ExternalSchema, GroundTuple, RelId, Sign, Tid, UserId};
use beliefdb::storage::{Row, Value};
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

const USERS: u32 = 3;

fn schema() -> ExternalSchema {
    ExternalSchema::new().with_relation("S", &["sid", "species"])
}

fn keys() -> [Value; 3] {
    [Value::int(1), Value::str("1"), Value::str("k")]
}

fn species() -> [Value; 4] {
    [
        Value::str("crow"),
        Value::str("owl"),
        Value::int(1),
        Value::Null,
    ]
}

/// Every tuple of the domain.
fn universe() -> Vec<GroundTuple> {
    let mut out = Vec::new();
    for key in keys() {
        for val in species() {
            out.push(GroundTuple::new(RelId(0), Row::new([key.clone(), val])));
        }
    }
    out
}

fn tuple(key: usize, val: usize) -> Row {
    Row::new([keys()[key].clone(), species()[val].clone()])
}

#[derive(Debug, Clone)]
enum Op {
    Insert(BeliefPath, Row, Sign),
    Delete(BeliefPath, Row, Sign),
    Update(BeliefPath, Row, Row),
}

fn arb_path() -> impl Strategy<Value = BeliefPath> {
    proptest::collection::vec(1..=USERS, 0..=2).prop_filter_map("adjacent-distinct paths", |raw| {
        BeliefPath::new(raw.into_iter().map(UserId).collect::<Vec<_>>()).ok()
    })
}

fn arb_statement() -> impl Strategy<Value = (BeliefPath, Row, Sign)> {
    let sign = prop_oneof![Just(Sign::Pos), Just(Sign::Neg)];
    (arb_path(), 0..3usize, 0..4usize, sign).prop_map(|(path, k, v, sign)| {
        // Root-world statements are positive (grammar of Fig. 1).
        let sign = if path.is_root() { Sign::Pos } else { sign };
        (path, tuple(k, v), sign)
    })
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => arb_statement().prop_map(|(path, row, sign)| Op::Insert(path, row, sign)),
        1 => arb_statement().prop_map(|(path, row, sign)| Op::Delete(path, row, sign)),
        // Same key, another value: an update in place.
        1 => (arb_path(), 0..3usize, 0..4usize, 0..4usize)
            .prop_map(|(path, k, a, b)| Op::Update(path, tuple(k, a), tuple(k, b))),
    ]
}

fn apply(bdms: &mut Bdms, op: &Op) {
    let rel = RelId(0);
    match op.clone() {
        Op::Insert(path, row, sign) => {
            bdms.insert(path, rel, row, sign).unwrap();
        }
        Op::Delete(path, row, sign) => {
            bdms.delete(path, rel, row, sign).unwrap();
        }
        Op::Update(path, old, new) => {
            bdms.update(path, rel, old, new).unwrap();
        }
    }
}

/// The tid of every tuple of the domain through `by_tuple`, after checking
/// it against a scan of `R*`; and `R*` holds no tuple twice.
fn tids(bdms: &Bdms) -> Vec<Option<Tid>> {
    let star = bdms.storage().table("S__star").unwrap();
    let scanned: Vec<(Tid, Row)> = star
        .iter()
        .map(|(_, row)| {
            let tid = Tid::from_value(&row.values()[0]).expect("integer tid");
            (tid, Row::new(row.values()[1..].to_vec()))
        })
        .collect();
    let domain = universe();
    for (i, (_, a)) in scanned.iter().enumerate() {
        assert!(
            scanned[..i].iter().all(|(_, b)| a != b),
            "{a:?} twice in R*"
        );
        assert!(
            domain.iter().any(|t| t.row == *a),
            "{a:?} is not a domain tuple"
        );
    }
    domain
        .iter()
        .map(|t| {
            let scan = scanned
                .iter()
                .find(|(_, row)| *row == t.row)
                .map(|(tid, _)| *tid);
            let probe = bdms.internal().tid_of(t).unwrap();
            assert_eq!(
                probe, scan,
                "tid of {t}: by_tuple says {probe:?}, a scan of R* {scan:?}"
            );
            probe
        })
        .collect()
}

fn fresh_dir() -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    std::env::temp_dir().join(format!(
        "beliefdb-tid-lookup-{}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ))
}

/// A copy of the files of the open store in `dir`, which is what
/// recovery after a crash sees.
fn crash_image(dir: &PathBuf) -> PathBuf {
    let image = fresh_dir();
    std::fs::create_dir_all(&image).unwrap();
    for entry in std::fs::read_dir(dir).unwrap() {
        let entry = entry.unwrap();
        std::fs::copy(entry.path(), image.join(entry.file_name())).unwrap();
    }
    image
}

fn durable(dir: &PathBuf) -> Bdms {
    let mut bdms = Bdms::create(dir, schema()).unwrap();
    for u in 1..=USERS {
        bdms.add_user(format!("u{u}")).unwrap();
    }
    bdms
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn by_tuple_lookup_equals_a_scan_of_r_star(ops in proptest::collection::vec(arb_op(), 1..40)) {
        let dir = fresh_dir();
        let mut bdms = durable(&dir);
        for op in &ops {
            apply(&mut bdms, op);
            tids(&bdms);
        }
        let live = tids(&bdms);
        // A crash image: closing the store would fold its log into a
        // snapshot, and the reopen below would replay nothing.
        let crashed = crash_image(&dir);
        drop(bdms);

        // The WAL replays every statement onto the creation snapshot.
        let mut bdms = Bdms::open(&crashed).unwrap();
        prop_assert!(bdms.wal_stats().unwrap().frames > 0);
        prop_assert_eq!(tids(&bdms), live.clone());

        // A checkpoint writes R* out; the reopened store rebuilds the
        // index from it.
        bdms.checkpoint().unwrap();
        drop(bdms);
        let bdms = Bdms::open(&crashed).unwrap();
        prop_assert_eq!(tids(&bdms), live);
        drop(bdms);
        std::fs::remove_dir_all(&dir).unwrap();
        std::fs::remove_dir_all(&crashed).unwrap();
    }
}

#[test]
fn a_rejected_insert_leaves_a_tuple_the_index_finds() {
    let mut bdms = Bdms::new(schema()).unwrap();
    bdms.add_user("u1").unwrap();
    let alice = BeliefPath::new(vec![UserId(1)]).unwrap();
    bdms.insert(alice.clone(), RelId(0), tuple(0, 0), Sign::Pos)
        .unwrap();
    // A second positive tuple of the same key at the same world breaks Γ1.
    let outcome = bdms
        .insert(alice, RelId(0), tuple(0, 1), Sign::Pos)
        .unwrap();
    assert!(!outcome.accepted());
    let found = tids(&bdms);
    assert_eq!(found.iter().flatten().count(), 2);
    // `1` and `'1'` are different keys: only the integer one is stored.
    let as_text = GroundTuple::new(RelId(0), tuple(1, 0));
    assert_eq!(bdms.internal().tid_of(&as_text).unwrap(), None);
}
