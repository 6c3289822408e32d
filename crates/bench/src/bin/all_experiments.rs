//! Run every experiment at a configurable scale and print all reports.
//!
//! Usage: `cargo run -p beliefdb-bench --release --bin all_experiments -- \
//!         [--n 10000] [--seeds 3] [--reps 50]`

use beliefdb_bench::*;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let n = arg_usize(&args, "--n", 10_000);
    let seeds: Vec<u64> = (0..arg_usize(&args, "--seeds", 3) as u64)
        .map(|i| 42 + i)
        .collect();
    let reps = arg_usize(&args, "--reps", 50);

    println!("=== Table 1 ===");
    let rows = run_table1(n, &seeds).expect("table1");
    println!("{}", format_table1(&rows, n));

    println!("=== Figure 6 ===");
    let mut ns = vec![10, 33, 100, 333, 1000, 3333];
    if n >= 10_000 {
        ns.push(10_000);
    }
    let series = run_fig6(&ns, seeds[0]).expect("fig6");
    println!("{}", format_fig6(&series));

    println!("=== Table 2 ===");
    let (bdms, rows) = run_table2(n, seeds[0], reps).expect("table2");
    println!("{}", format_table2(&rows, n, bdms.stats().total_tuples));

    println!("=== Magic sets (demand-driven Datalog) ===");
    let rows = run_opt_magic(n, reps.clamp(3, 20)).expect("opt_magic");
    println!("{}", format_opt_magic(&rows, n));
    let path = std::path::Path::new("BENCH_magic.json");
    write_bench_magic_json(path, &rows, n).expect("write BENCH_magic.json");
    println!("wrote {}", path.display());

    println!("=== Spill-to-disk execution ===");
    let rows = run_spill(n, reps.clamp(3, 20)).expect("spill");
    println!("{}", format_spill(&rows, n));

    println!("=== Persistence ===");
    // WAL appends are per-statement syscalls: cap the workload so the
    // full experiment run stays interactive at large --n.
    let report = run_persist(n.min(5_000), reps.clamp(2, 10)).expect("persist");
    println!("{}", format_persist(&report));

    println!("=== Observability ===");
    let report = run_obs(n, reps.clamp(3, 20)).expect("obs");
    println!("{}", format_obs(&report, n));
    let path = std::path::Path::new("BENCH_obs.json");
    write_bench_obs_json(path, &report, n).expect("write BENCH_obs.json");
    println!("wrote {}", path.display());

    println!("=== System catalog (sys.*) ===");
    let report = run_obs_systables(n, reps.clamp(3, 20)).expect("obs_systables");
    println!("{}", format_obs_systables(&report, n));
    let path = std::path::Path::new("BENCH_systables.json");
    write_bench_systables_json(path, &report, n).expect("write BENCH_systables.json");
    println!("wrote {}", path.display());
}
