//! Criterion bench for the Table 1 pipeline: end-to-end database
//! generation + ingestion (the cost behind each Table 1 cell), at a reduced
//! `n` so a criterion run stays in seconds. Use the `table1` binary for the
//! full-scale paper numbers.
//! Like the binary, it builds the paper's `Eager` store.

use beliefdb_core::DefaultPolicy;
use beliefdb_gen::generate_bdms_with_policy;
use beliefdb_gen::scenarios::table1_cells;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

fn bench_table1(c: &mut Criterion) {
    let mut group = c.benchmark_group("table1_ingest");
    group.sample_size(10);
    for cell in table1_cells(500, 42) {
        // One representative cell per (m, participation): skip the depth
        // variants to keep the bench matrix small.
        if cell.depth_label != "[1/3, 1/3, 1/3]" {
            continue;
        }
        group.bench_with_input(
            BenchmarkId::from_parameter(&cell.label),
            &cell.config,
            |b, cfg| {
                b.iter(|| {
                    let (bdms, _) = generate_bdms_with_policy(cfg, DefaultPolicy::Eager)
                        .expect("generation failed");
                    std::hint::black_box(bdms.stats().total_tuples)
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_table1);
criterion_main!(benches);
