//! Criterion bench for the Figure 6 pipeline: ingestion cost as `n` grows,
//! for the two depth distributions of the figure. The measured quantity is
//! the end-to-end build of the belief database (what the figure's x-axis
//! sweeps); the overhead values themselves are printed by the `fig6` binary.
//! Like the binary, it builds the paper's `Eager` store.

use beliefdb_core::DefaultPolicy;
use beliefdb_gen::generate_bdms_with_policy;
use beliefdb_gen::scenarios::fig6_series;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

fn bench_fig6(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig6_ingest");
    group.sample_size(10);
    let ns = [100usize, 400, 1600];
    for (label, configs) in fig6_series(&ns, 42) {
        for cfg in configs {
            let n = cfg.annotations;
            group.throughput(Throughput::Elements(n as u64));
            group.bench_with_input(
                BenchmarkId::new(label.replace(' ', ""), n),
                &cfg,
                |b, cfg| {
                    b.iter(|| {
                        let (bdms, _) = generate_bdms_with_policy(cfg, DefaultPolicy::Eager)
                            .expect("generation failed");
                        std::hint::black_box(bdms.stats().total_tuples)
                    })
                },
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_fig6);
criterion_main!(benches);
