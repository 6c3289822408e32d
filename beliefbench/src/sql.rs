//! BeliefSQL text of every statement the workloads send.
//!
//! Rendering happens outside every timed interval: the program under
//! test receives only the finished text.

use beliefdb_core::{BeliefStatement, Sign};
use beliefdb_storage::Row;

/// The eight SELECTs of a read round, in execution order. The first
/// seven are the SQL renderings of `beliefdb_bench::table2_queries`.
pub const SELECT_NAMES: [&str; 8] = ["q1_0", "q1_1", "q1_2", "q1_3", "q1_4", "q2", "q3", "probe"];

/// Index of `q1_2` in [`SELECT_NAMES`]: its answer supplies the probe key.
pub const Q1_2: usize = 2;

/// Belief paths of `q1_0`…`q1_4` (ε, 1, 2·1, 1·2·1, 2·1·2·1).
const Q1_PATHS: [&[u32]; 5] = [&[], &[1], &[2, 1], &[1, 2, 1], &[2, 1, 2, 1]];

fn belief_users(users: &[u32]) -> String {
    users.iter().map(|u| format!("BELIEF 'u{u}' ")).collect()
}

/// The seven Table 2 queries as BeliefSQL.
pub fn table2_sql() -> Vec<String> {
    let mut out: Vec<String> = Q1_PATHS
        .iter()
        .map(|p| format!("select S.sid, S.species from {}S as S", belief_users(p)))
        .collect();
    let all_columns_equal = ["sid", "uid", "species", "date", "location"]
        .map(|c| format!("A.{c} = B.{c}"))
        .join(" and ");
    // q2: what u2 believes u1 believes, but does not believe itself.
    out.push(format!(
        "select A.sid, A.species from BELIEF 'u2' BELIEF 'u1' S as A, \
         BELIEF 'u2' not S as B where {all_columns_equal}"
    ));
    // q3: who disagrees with a belief of u1 at location loc0.
    out.push(format!(
        "select U.uid from Users as U, BELIEF U.uid not S as A, BELIEF 'u1' S as B \
         where {all_columns_equal} and B.location = 'loc0'"
    ));
    out
}

/// The key-bound belief probe: `q1_2` restricted to one sighting.
pub fn probe_sql(key: &str) -> String {
    format!(
        "select S.sid, S.species from {}S as S where S.sid = '{key}'",
        belief_users(Q1_PATHS[Q1_2])
    )
}

/// `(BELIEF 'u')* not?` for a statement's path and sign.
fn prefix(stmt: &BeliefStatement) -> String {
    let users: Vec<u32> = stmt.path.users().iter().map(|u| u.0).collect();
    let not = if stmt.sign == Sign::Neg { "not " } else { "" };
    format!("{}{not}", belief_users(&users))
}

/// Every value of the experiment schema is a string.
fn text(row: &Row, i: usize) -> String {
    row.values()[i].to_string()
}

pub fn insert_sql(stmt: &BeliefStatement) -> String {
    let row = &stmt.tuple.row;
    let values: Vec<String> = (0..row.values().len())
        .map(|i| format!("'{}'", text(row, i)))
        .collect();
    format!(
        "insert into {}S values ({})",
        prefix(stmt),
        values.join(",")
    )
}

/// Pins every column, so exactly the tracked statement is removed.
pub fn delete_sql(stmt: &BeliefStatement) -> String {
    let row = &stmt.tuple.row;
    format!(
        "delete from {}S where sid = '{}' and uid = '{}' and species = '{}' \
         and date = '{}' and location = '{}'",
        prefix(stmt),
        text(row, 0),
        text(row, 1),
        text(row, 2),
        text(row, 3),
        text(row, 4)
    )
}

/// Corrects the location the world believes for the statement's key.
pub fn update_sql(stmt: &BeliefStatement, location: &str) -> String {
    format!(
        "update {}S set location = '{location}' where sid = '{}'",
        prefix(stmt),
        text(&stmt.tuple.row, 0)
    )
}
