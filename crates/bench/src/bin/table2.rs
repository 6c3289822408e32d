//! Reproduce Table 2: execution times and result sizes for the seven
//! example queries q1,0..q1,4, q2, q3.
//!
//! Usage: `cargo run -p beliefdb-bench --release --bin table2 -- \
//!         [--n 10000] [--reps 100] [--seed 42]`

use beliefdb_bench::{arg_u64, arg_usize, format_table2, run_table2};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let n = arg_usize(&args, "--n", 10_000);
    let reps = arg_usize(&args, "--reps", 100);
    let seed = arg_u64(&args, "--seed", 42);
    eprintln!("building the query database (n = {n}) ...");
    let start = std::time::Instant::now();
    let (bdms, rows) = run_table2(n, seed, reps).expect("table 2 run failed");
    println!("{}", format_table2(&rows, n, bdms.stats().total_tuples));
    println!("paper values (ms, SQL Server 2005, 10k annotations, overhead 22.4):");
    println!("  E(Time)   105  145  146  152  144   436  4473");
    println!("  rows     1626 2816 2253 2061 1931   196    99");
    println!("paper's shape (SQL Server): q1,* cheapest and flat beyond depth 1;");
    println!("q2 slower (negative subgoal); q3 slowest (user variable).");
    println!("our shape: q1,* flat, then q2; q3 below q2 (its selective subgoal");
    println!("seeds the magic rewrite, so only the demanded keys are read).");
    eprintln!("total time: {:.1?}", start.elapsed());
}
