//! Durability bench: WAL append throughput vs the in-memory insert
//! path on the `ablation_insert` workload, recovery time as a function
//! of WAL length, and checkpoint cost.
//!
//! Each timed iteration that needs a durable store builds it in a fresh
//! scratch directory and removes it afterwards, so runs are independent
//! and the filesystem state never accumulates.

use beliefdb_bench::{no_auto_checkpoint, persist_scratch_dir};
use beliefdb_core::Bdms;
use beliefdb_gen::{experiment_schema, CandidateStream, GeneratorConfig};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

fn candidates(n: usize) -> Vec<beliefdb_core::BeliefStatement> {
    let cfg = GeneratorConfig::new(10, n).with_seed(42);
    let mut stream = CandidateStream::new(&cfg);
    (0..n).map(|_| stream.next_candidate()).collect()
}

/// A copy of the files of the open store in `src`: what recovery after a
/// crash sees. (A closed store's log is folded into a snapshot.)
fn crash_image(src: &std::path::Path) -> std::path::PathBuf {
    let image = persist_scratch_dir("bench-recover-image");
    std::fs::create_dir_all(&image).expect("image dir");
    for entry in std::fs::read_dir(src).expect("read dir") {
        let entry = entry.expect("entry");
        std::fs::copy(entry.path(), image.join(entry.file_name())).expect("copy");
    }
    image
}

fn with_users(mut bdms: Bdms) -> Bdms {
    for i in 1..=10 {
        bdms.add_user(format!("u{i}")).expect("user");
    }
    bdms
}

fn bench_append(c: &mut Criterion) {
    let mut group = c.benchmark_group("persist_append");
    group.sample_size(10);
    for n in [500usize, 2_000] {
        let stmts = candidates(n);
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(BenchmarkId::new("in_memory", n), &stmts, |b, stmts| {
            b.iter(|| {
                let mut bdms = with_users(Bdms::new(experiment_schema()).expect("schema"));
                for s in stmts {
                    let _ = bdms.insert_statement(s).expect("insert");
                }
                std::hint::black_box(bdms.stats().total_tuples)
            })
        });
        // Note: this iteration includes scratch-directory setup and
        // cleanup (criterion's iter can't exclude them); beliefbench's
        // `curate_durable` workload times the append alone
        // (`wal.append_ns_p50`).
        group.bench_with_input(BenchmarkId::new("durable_wal", n), &stmts, |b, stmts| {
            b.iter(|| {
                let dir = persist_scratch_dir("bench-append");
                let mut bdms = with_users(
                    Bdms::create_with_options(&dir, experiment_schema(), no_auto_checkpoint())
                        .expect("create"),
                );
                for s in stmts {
                    let _ = bdms.insert_statement(s).expect("insert");
                }
                let total = bdms.stats().total_tuples;
                drop(bdms);
                std::fs::remove_dir_all(&dir).expect("cleanup");
                std::hint::black_box(total)
            })
        });
    }
    group.finish();
}

const RECOVERY_SAMPLES: usize = 10;

fn bench_recovery(c: &mut Criterion) {
    let mut group = c.benchmark_group("persist_recovery");
    group.sample_size(RECOVERY_SAMPLES);
    // Recovery time vs WAL length (snapshot covers only the empty
    // store, so open replays the whole history through Algorithm 4).
    // Each iteration opens its own crash image, and the stores stay open
    // until the timing ends: closing one would fold its log into a
    // snapshot, inside the timed region.
    for n in [500usize, 1_000, 2_000] {
        let dir = persist_scratch_dir("bench-recover");
        let mut bdms = with_users(
            Bdms::create_with_options(&dir, experiment_schema(), no_auto_checkpoint())
                .expect("create"),
        );
        for s in &candidates(n) {
            let _ = bdms.insert_statement(s).expect("insert");
        }
        // One image per timed run and one for the warm-up.
        let mut images: Vec<_> = (0..=RECOVERY_SAMPLES).map(|_| crash_image(&dir)).collect();
        let mut opened = Vec::new();
        group.bench_with_input(BenchmarkId::new("wal_replay", n), &(), |b, _| {
            b.iter(|| {
                let image = images.pop().unwrap_or_else(|| crash_image(&dir));
                let store = Bdms::open_with_options(&image, no_auto_checkpoint()).expect("open");
                let total = store.stats().total_tuples;
                opened.push((store, image));
                std::hint::black_box(total)
            })
        });
        for (store, image) in opened {
            drop(store);
            std::fs::remove_dir_all(&image).expect("cleanup");
        }
        for image in images {
            std::fs::remove_dir_all(&image).expect("cleanup");
        }
        // After a checkpoint the same history recovers from the
        // snapshot with an empty tail.
        bdms.checkpoint().expect("checkpoint");
        drop(bdms);
        group.bench_with_input(BenchmarkId::new("snapshot", n), &dir, |b, dir| {
            b.iter(|| {
                std::hint::black_box(
                    Bdms::open_with_options(dir, no_auto_checkpoint())
                        .expect("open")
                        .stats()
                        .total_tuples,
                )
            })
        });
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }
    group.finish();
}

fn bench_checkpoint(c: &mut Criterion) {
    let mut group = c.benchmark_group("persist_checkpoint");
    group.sample_size(10);
    for n in [500usize, 2_000] {
        let dir = persist_scratch_dir("bench-ckpt");
        let mut bdms = with_users(
            Bdms::create_with_options(&dir, experiment_schema(), no_auto_checkpoint())
                .expect("create"),
        );
        for s in &candidates(n) {
            let _ = bdms.insert_statement(s).expect("insert");
        }
        group.bench_with_input(BenchmarkId::new("checkpoint", n), &(), |b, _| {
            b.iter(|| std::hint::black_box(bdms.checkpoint().expect("checkpoint")))
        });
        drop(bdms);
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }
    group.finish();
}

criterion_group!(benches, bench_append, bench_recovery, bench_checkpoint);
criterion_main!(benches);
