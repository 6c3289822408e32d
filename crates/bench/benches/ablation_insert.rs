//! Ablation C: incremental maintenance (Algorithm 4's per-key propagation)
//! vs. rebuilding the whole store from scratch after every batch.
//!
//! The paper's eager materialization makes inserts the expensive operation
//! (Sect. 6.3); this ablation shows why the incremental algorithm is still
//! far better than the naive alternative of re-ingesting everything. Both
//! run on the `Eager` store, the one with propagation to maintain.

use beliefdb_core::{Bdms, DefaultPolicy};
use beliefdb_gen::{experiment_schema, CandidateStream, GeneratorConfig};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

/// Collect `n` candidate statements (unfiltered; rejected ones exercise the
/// consistency gate in both strategies equally).
fn candidates(cfg: &GeneratorConfig, n: usize) -> Vec<beliefdb_core::BeliefStatement> {
    let mut stream = CandidateStream::new(cfg);
    (0..n).map(|_| stream.next_candidate()).collect()
}

fn fresh(users: usize) -> Bdms {
    let mut bdms = Bdms::with_policy(experiment_schema(), DefaultPolicy::Eager).expect("schema");
    for i in 1..=users {
        bdms.add_user(format!("u{i}")).expect("user");
    }
    bdms
}

fn bench_insert_strategies(c: &mut Criterion) {
    let mut group = c.benchmark_group("insert_strategy");
    group.sample_size(10);
    for n in [200usize, 800] {
        let cfg = GeneratorConfig::new(10, n).with_seed(42);
        let stmts = candidates(&cfg, n);
        group.throughput(Throughput::Elements(n as u64));

        // Incremental: one store, statements applied by Algorithm 4.
        group.bench_with_input(BenchmarkId::new("incremental", n), &stmts, |b, stmts| {
            b.iter(|| {
                let mut bdms = fresh(10);
                for s in stmts {
                    let _ = bdms.insert_statement(s).expect("insert");
                }
                std::hint::black_box(bdms.stats().total_tuples)
            })
        });

        // Rebuild: after every batch of 50 statements, reconstruct the
        // store from the accumulated logical database (what a system
        // without incremental maintenance would do).
        group.bench_with_input(
            BenchmarkId::new("rebuild_per_batch", n),
            &stmts,
            |b, stmts| {
                b.iter(|| {
                    let mut logical = beliefdb_core::BeliefDatabase::new(experiment_schema());
                    for i in 1..=10 {
                        logical.add_user(format!("u{i}")).expect("user");
                    }
                    let mut last = 0;
                    for (i, s) in stmts.iter().enumerate() {
                        let _ = logical.insert(s.clone());
                        if i % 50 == 49 || i + 1 == stmts.len() {
                            let bdms = Bdms::from_belief_database(&logical).expect("rebuild");
                            last = bdms.stats().total_tuples;
                        }
                    }
                    std::hint::black_box(last)
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_insert_strategies);
criterion_main!(benches);
