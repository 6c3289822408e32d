//! beliefbench — paper-scale workloads for beliefdb, measured end to end
//! and layer by layer. See `README.md` beside this package.

mod json;
mod report;
mod runner;
mod sql;
mod stats;
mod trace;
mod workloads;

use json::Json;
use report::MetricDef;
use runner::Res;
use std::path::PathBuf;
use workloads::{run_pass, PassReport, Scale, Workload};

const USAGE: &str = "usage: beliefbench [--workload NAME] [--seed N] [--seconds S] \
[--trace [0|1]] [--quick] [--names]
  workloads: table2_warm table2_churn curate_durable table1_ingest (default: all)";

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
    quick: bool,
    names: bool,
}

fn parse_args(args: &[String]) -> Res<Args> {
    let mut out = Args {
        workload: None,
        seed: 42,
        seconds: 6,
        trace: false,
        quick: false,
        names: false,
    };
    let mut i = 0;
    let value = |i: &mut usize| -> Res<&String> {
        *i += 1;
        args.get(*i)
            .ok_or(format!("{} needs a value", args[*i - 1]))
    };
    while i < args.len() {
        match args[i].as_str() {
            "--workload" => {
                let name = value(&mut i)?;
                out.workload =
                    Some(Workload::parse(name).ok_or(format!("unknown workload `{name}`"))?);
            }
            "--seed" => out.seed = value(&mut i)?.parse().map_err(runner::text)?,
            "--seconds" => out.seconds = value(&mut i)?.parse().map_err(runner::text)?,
            "--trace" => match args.get(i + 1).map(String::as_str) {
                Some("0") => {
                    out.trace = false;
                    i += 1;
                }
                Some("1") => {
                    out.trace = true;
                    i += 1;
                }
                _ => out.trace = true,
            },
            "--quick" => out.quick = true,
            "--names" => out.names = true,
            other => return Err(format!("unknown argument `{other}`\n{USAGE}")),
        }
        i += 1;
    }
    Ok(out)
}

/// Where passes keep their stores and where traces are written: inside
/// the package, so a run touches nothing outside its checkout.
fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn defs_json(defs: &[MetricDef]) -> Json {
    Json::Arr(
        defs.iter()
            .map(|(name, unit, better)| {
                Json::obj(vec![
                    ("name", Json::str(name.as_str())),
                    ("unit", Json::str(*unit)),
                    ("better", Json::str(*better)),
                ])
            })
            .collect(),
    )
}

/// The result of one workload: the metrics of the mode it ran in.
struct Outcome {
    attempted: u64,
    failed: u64,
    metrics: Vec<(MetricDef, f64)>,
}

fn run_workload(workload: Workload, args: &Args) -> Res<Outcome> {
    let scale = if args.quick {
        Scale::quick()
    } else {
        Scale::paper(args.seconds)
    };
    let scratch = out_dir().join(format!(
        "scratch-{}-{}",
        workload.name(),
        std::process::id()
    ));
    let name = workload.name();
    // A traced run reports neither `setup_s` nor `reopen_s`: its passes
    // set up and reopen once.
    let repeat = !args.trace;
    let untraced = run_pass(workload, args.seed, &scale, scratch.clone(), false, repeat)?;
    let mut attempted = untraced.runner.attempted;
    let mut failed = untraced.runner.failed;

    let (defs, values, pass) = if args.trace {
        // A second pass over the same statements, this time layer by layer.
        let traced = run_pass(workload, args.seed, &scale, scratch, true, repeat)?;
        attempted += traced.runner.attempted + 1;
        failed += traced.runner.failed;
        if traced.runner.checksums != untraced.runner.checksums {
            failed += 1;
            eprintln!("beliefbench: FAILED: traced and untraced answers differ");
        }
        if let Some(tracer) = &traced.runner.tracer {
            std::fs::create_dir_all(out_dir()).map_err(runner::text)?;
            let path = out_dir().join(format!("trace-{name}.json"));
            std::fs::write(&path, tracer.to_json(name, args.seed).render())
                .map_err(runner::text)?;
            println!("{name} trace_file {} path", path.display());
            // Shares of the main loop's statement time: statements through
            // `Session`, then the Table 1 grid's direct inserts, whose root
            // is the insert itself.
            for root in ["session", "ops.insert"] {
                for (span, share) in tracer.shares(root, traced.main.spans_end) {
                    println!("{name} share.{root}.{span} {share} ratio");
                }
            }
        }
        let values = report::per_layer_values(&untraced, &traced);
        (report::per_layer_defs(), values, traced)
    } else {
        let values = report::end_to_end_values(&untraced);
        (report::end_to_end_defs(), values, untraced)
    };

    for ((metric, unit, _), value) in defs.iter().zip(&values) {
        println!("{name} {metric} {value} {unit}");
    }
    println!(
        "{name} fail_ratio {} ratio",
        failed as f64 / attempted.max(1) as f64
    );
    print_context(name, &pass, args.trace);
    Ok(Outcome {
        attempted,
        failed,
        metrics: defs.into_iter().zip(values).collect(),
    })
}

/// Sample counts behind the medians, the digest of all answers, and for
/// the reader of an untraced run what it measured of the `session.*`
/// latencies a traced run declares.
fn print_context(name: &str, pass: &PassReport, traced: bool) {
    if !traced {
        println!("{name} session.stmt_per_s {} 1/s", report::stmt_per_s(pass));
    }
    for class in runner::Class::ALL {
        let mut samples = pass.main.latencies.get(class).clone();
        println!("{name} samples.{} {} count", class.name(), samples.count());
        if !traced {
            let p50 = samples.median() as f64 / 1e3;
            println!("{name} session.{}_p50_us {p50} us", class.name());
        }
    }
    for (part, seconds, peak_mb) in &pass.walls {
        println!("{name} wall_s.{part} {seconds} s");
        println!("{name} peak_rss_mb.{part} {peak_mb} MB");
    }
    let digest = pass
        .runner
        .checksums
        .iter()
        .fold(0u64, |acc, c| acc.rotate_left(5) ^ c);
    println!(
        "{name} answers {} count digest {digest:016x}",
        pass.runner.checksums.len()
    );
    println!("{name} flush_policy no fsync per commit; rotation, checkpoint and close fsync");
}

fn result_json(correct: bool, attempted: u64, failed: u64, metrics: Vec<(String, Json)>) -> Json {
    Json::obj(vec![
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Int(attempted)),
        ("failed", Json::Int(failed)),
        ("metrics", Json::Obj(metrics)),
    ])
}

fn metric_json(value: f64, unit: &str) -> Json {
    Json::obj(vec![("value", Json::Num(value)), ("unit", Json::str(unit))])
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("beliefbench: {e}");
            std::process::exit(2);
        }
    };
    if args.names {
        let names = Json::obj(vec![
            (
                "workloads",
                Json::Arr(Workload::ALL.iter().map(|w| Json::str(w.name())).collect()),
            ),
            ("end_to_end", defs_json(&report::end_to_end_defs())),
            ("per_layer", defs_json(&report::per_layer_defs())),
        ]);
        println!("{}", names.render());
        return;
    }

    let Some(workload) = args.workload else {
        // Each workload in a process of its own, so `peak_rss_mb` and the
        // global counters are that workload's alone.
        for workload in Workload::ALL {
            if let Err(e) = run_child(workload, &argv) {
                eprintln!("beliefbench: {}: {e}", workload.name());
                std::process::exit(1);
            }
        }
        return;
    };
    match run_workload(workload, &args) {
        Ok(outcome) => {
            let correct = outcome.failed == 0;
            let metrics = outcome
                .metrics
                .into_iter()
                .map(|((name, unit, _), value)| (name, metric_json(value, unit)))
                .collect();
            println!(
                "{}",
                result_json(correct, outcome.attempted, outcome.failed, metrics).render()
            );
            if !correct {
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("beliefbench: {}: {e}", workload.name());
            std::process::exit(1);
        }
    }
}

/// Run one workload in a child process that prints for itself.
fn run_child(workload: Workload, argv: &[String]) -> Res<()> {
    let exe = std::env::current_exe().map_err(runner::text)?;
    let status = std::process::Command::new(exe)
        .args(["--workload", workload.name()])
        .args(argv)
        .status()
        .map_err(runner::text)?;
    if status.success() {
        Ok(())
    } else {
        Err(format!("exited with {status}"))
    }
}
