//! Panic freedom of the BeliefSQL front end: random text and token-level
//! mutations of the Table 2 SQL go through `lexer::tokenize`, `parse` and
//! `SelectLowerer::lower`, and each must answer `Ok` or a structured
//! `SqlError`, never panic.

use beliefdb::core::Bdms;
use beliefdb::gen::experiment_schema;
use beliefdb::sql::lexer::tokenize;
use beliefdb::sql::lower::SelectLowerer;
use beliefdb::sql::{parse, Statement};
use proptest::prelude::*;

/// The Table 2 queries and the key-bound probe as beliefbench sends them.
fn table2_sql() -> Vec<String> {
    let paths: [&[u32]; 5] = [&[], &[1], &[2, 1], &[1, 2, 1], &[2, 1, 2, 1]];
    let belief =
        |users: &[u32]| -> String { users.iter().map(|u| format!("BELIEF 'u{u}' ")).collect() };
    let mut out: Vec<String> = paths
        .iter()
        .map(|p| format!("select S.sid, S.species from {}S as S", belief(p)))
        .collect();
    let all_equal = ["sid", "uid", "species", "date", "location"]
        .map(|c| format!("A.{c} = B.{c}"))
        .join(" and ");
    out.push(format!(
        "select A.sid, A.species from BELIEF 'u2' BELIEF 'u1' S as A, \
         BELIEF 'u2' not S as B where {all_equal}"
    ));
    out.push(format!(
        "select U.uid from Users as U, BELIEF U.uid not S as A, BELIEF 'u1' S as B \
         where {all_equal} and B.location = 'loc0'"
    ));
    out.push(
        "select S.sid, S.species from BELIEF 'u2' BELIEF 'u1' S as S where S.sid = 's17'".into(),
    );
    out
}

/// Tokens a mutation may splice in, split at white space: every kind of
/// token the Table 2 SQL has, and some it lacks.
const VOCABULARY: &str = "select from where and or not as BELIEF Users S A B U insert into \
    values delete update set order by limit explain analyze * , . ( ) = <> < <= > >= ; \
    'u1' 's17' '' ' 0 -1 99999999999999999999 1e999 sid uid species location é \u{1F426} \0 \
    -- /* \" ` \\";

fn vocabulary() -> Vec<&'static str> {
    VOCABULARY.split_whitespace().collect()
}

/// One statement through every stage of the front end.
fn front_end(bdms: &Bdms, sql: &str) {
    let _ = tokenize(sql);
    if let Ok(Statement::Select(stmt)) = parse(sql) {
        let _ = SelectLowerer::lower(bdms, &stmt);
    }
}

fn bdms() -> Bdms {
    let mut bdms = Bdms::new(experiment_schema()).unwrap();
    for u in ["u1", "u2", "u3"] {
        bdms.add_user(u).unwrap();
    }
    bdms
}

/// `sql` cut at its token boundaries: each piece is one token and the
/// white space after it.
fn pieces(sql: &str) -> Vec<String> {
    let offsets: Vec<usize> = tokenize(sql)
        .unwrap()
        .iter()
        .map(|t| t.offset)
        .chain([sql.len()])
        .collect();
    offsets
        .windows(2)
        .map(|w| sql[w[0]..w[1]].to_string())
        .filter(|p| !p.is_empty())
        .collect()
}

/// Apply the edits `(kind, at, with)`: delete, duplicate, swap with the
/// next, or replace with a vocabulary token, the piece at `at`.
fn mutate(mut pieces: Vec<String>, edits: &[(u8, usize, usize)]) -> String {
    for &(kind, at, with) in edits {
        if pieces.is_empty() {
            break;
        }
        let at = at % pieces.len();
        let vocabulary = vocabulary();
        let word = format!("{} ", vocabulary[with % vocabulary.len()]);
        match kind {
            0 => {
                pieces.remove(at);
            }
            1 => pieces.insert(at, pieces[at].clone()),
            2 if at + 1 < pieces.len() => pieces.swap(at, at + 1),
            3 => pieces[at] = word,
            _ => pieces.insert(at, word),
        }
    }
    pieces.concat()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    #[test]
    fn mutated_table2_sql_never_panics(
        query in 0usize..8,
        edits in proptest::collection::vec((0u8..5, 0usize..256, 0usize..256), 1..6),
    ) {
        let sql = table2_sql()[query].clone();
        front_end(&bdms(), &mutate(pieces(&sql), &edits));
    }

    #[test]
    fn random_text_never_panics(
        bytes in proptest::collection::vec(0u8..=255, 0..64),
        words in proptest::collection::vec(0usize..256, 0..12),
    ) {
        let bdms = bdms();
        front_end(&bdms, &String::from_utf8_lossy(&bytes));
        let vocabulary = vocabulary();
        let text: Vec<&str> = words.iter().map(|&w| vocabulary[w % vocabulary.len()]).collect();
        front_end(&bdms, &text.join(" "));
        front_end(&bdms, &text.concat());
    }
}

/// The unmutated queries lower: the mutations start from working SQL.
#[test]
fn the_table2_sql_lowers() {
    let bdms = bdms();
    for sql in table2_sql() {
        let Statement::Select(stmt) = parse(&sql).unwrap() else {
            panic!("{sql} is a select");
        };
        SelectLowerer::lower(&bdms, &stmt).unwrap();
    }
}
