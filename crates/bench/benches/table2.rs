//! Criterion bench for Table 2: latency of the seven example queries over
//! a generated belief database (reduced `n` for criterion; the `table2`
//! binary runs the full 10,000-annotation configuration).
//! Like the binary, it builds the paper's `Eager` store.

use beliefdb_bench::table2_queries;
use beliefdb_core::DefaultPolicy;
use beliefdb_gen::generate_bdms_with_policy;
use beliefdb_gen::scenarios::table2_config;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

fn bench_table2(c: &mut Criterion) {
    let cfg = table2_config(2_000, 42);
    let (bdms, _) =
        generate_bdms_with_policy(&cfg, DefaultPolicy::Eager).expect("generation failed");
    let queries = table2_queries(&bdms).expect("query construction failed");

    let mut group = c.benchmark_group("table2_queries");
    group.sample_size(20);
    for (name, q) in &queries {
        group.bench_with_input(BenchmarkId::from_parameter(name), q, |b, q| {
            b.iter(|| std::hint::black_box(bdms.query(q).expect("query failed").len()))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_table2);
criterion_main!(benches);
