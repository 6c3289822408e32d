//! Spill-to-disk materialization points: memory-budgeted vs in-memory
//! execution.
//!
//! Two plans over the fanout-4 join schema — distinct and wide join —
//! each run at budgets ∞ (identical code path to the unbudgeted
//! executor; the <5% regression guard), ½·input, and ⅒·input
//! (`tests/exec_spill.rs` asserts that a distinct spills at such
//! budgets). The budgeted executor is
//! asserted to agree with the in-memory one before anything is timed.

use beliefdb_bench::{exec_streaming_db, spill_budget, spill_plans};
use beliefdb_storage::{execute, Executor, SpillOptions};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

fn bench_spill(c: &mut Criterion) {
    let n = 50_000usize;
    let db = exec_streaming_db(n).expect("workload build failed");
    let plans = spill_plans();
    for (name, plan) in &plans {
        let mut a = execute(&db, plan).expect("in-memory failed");
        let mut b = Executor::with_spill(&db, SpillOptions::with_budget(spill_budget(n, 1, 10)))
            .open_chunks(plan)
            .expect("open")
            .collect_rows()
            .expect("budgeted failed");
        a.sort();
        b.sort();
        assert_eq!(a, b, "budgeted executor disagrees on {name}");
    }
    let budgets: [(&str, Option<usize>); 3] = [
        ("inf", None),
        ("half", Some(spill_budget(n, 1, 2))),
        ("tenth", Some(spill_budget(n, 1, 10))),
    ];
    let mut group = c.benchmark_group("spill");
    group.sample_size(10);
    for (name, plan) in &plans {
        for (label, budget) in budgets {
            group.bench_with_input(BenchmarkId::new(*name, label), plan, |bencher, plan| {
                bencher.iter(|| {
                    let exec = match budget {
                        Some(b) => Executor::with_spill(&db, SpillOptions::with_budget(b)),
                        None => Executor::new(&db),
                    };
                    let mut out = 0usize;
                    for chunk in exec.open_chunks(plan).expect("open") {
                        out += chunk.expect("chunk").len();
                    }
                    std::hint::black_box(out)
                })
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_spill);
criterion_main!(benches);
