//! The `EXPLAIN` of the seven Table 2 queries on the `n = 300`, seed 1
//! store, under both default policies, and of a key-pinned probe shaped
//! like beliefbench's (`… where S.sid = 's17'`), pinned byte for byte to
//! `tests/golden/explain_table2_n300.txt`. A change to the access paths,
//! the optimizer or the translation that moves a plan shows here first.
//!
//! Run it with `cargo test --release --test explain_golden`. On a mismatch
//! the test writes the text it got to `explain_table2_n300.actual.txt` in
//! Cargo's per-target temporary directory and names the first line that
//! differs; a change that moves a plan on purpose copies that file over
//! the golden one.

use beliefdb::core::DefaultPolicy;
use beliefdb::gen::generate_bdms_with_policy;
use beliefdb::gen::scenarios::table2_config;
use beliefdb::sql::Session;

const GOLDEN: &str = include_str!("golden/explain_table2_n300.txt");

/// beliefbench's key-bound probe: `q1,2` restricted to one sighting.
const PROBE: &str =
    "select S.sid, S.species from BELIEF 'u2' BELIEF 'u1' S as S where S.sid = 's17'";

fn explain_all() -> String {
    let mut out = String::new();
    for (label, policy) in [
        ("Eager", DefaultPolicy::Eager),
        ("Lazy", DefaultPolicy::Lazy),
    ] {
        let (bdms, _) = generate_bdms_with_policy(&table2_config(300, 1), policy).unwrap();
        for (name, q) in beliefdb_bench::table2_queries(&bdms).unwrap() {
            out.push_str(&format!("=== {label} {name}\n"));
            out.push_str(&bdms.explain_query(&q).unwrap());
            out.push('\n');
        }
        let session = Session::from_bdms(bdms);
        out.push_str(&format!("=== {label} probe: {PROBE}\n"));
        out.push_str(&session.explain(PROBE).unwrap());
        out.push('\n');
    }
    out
}

#[test]
fn explain_of_the_table2_queries_matches_the_golden_file() {
    let got = explain_all();
    if got == GOLDEN {
        return;
    }
    let actual =
        std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("explain_table2_n300.actual.txt");
    std::fs::write(&actual, &got).unwrap();
    let line = got
        .lines()
        .zip(GOLDEN.lines())
        .position(|(a, b)| a != b)
        .unwrap_or_else(|| got.lines().count().min(GOLDEN.lines().count()));
    panic!(
        "EXPLAIN differs from tests/golden/explain_table2_n300.txt at line {}; got:\n  {}\nwant:\n  {}\nfull output in {}",
        line + 1,
        got.lines().nth(line).unwrap_or("<end of output>"),
        GOLDEN.lines().nth(line).unwrap_or("<end of file>"),
        actual.display()
    );
}
