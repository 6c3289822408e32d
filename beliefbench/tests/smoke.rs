//! Runs every workload at `--quick` scale, untraced and traced, and holds
//! the output against `BENCHMARK.json`: every declared metric is printed
//! exactly once with a finite value, nothing fails, and the traced pass
//! gives the same answers as the untraced one.

use std::collections::HashMap;
use std::process::Command;

/// Every quoted string that follows a `"name"` key in `text`.
fn names_in(text: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut rest = text;
    while let Some(at) = rest.find("\"name\"") {
        rest = &rest[at + 6..];
        let open = rest.find('"').expect("a value after \"name\"");
        let close = open + 1 + rest[open + 1..].find('"').expect("closing quote");
        out.push(rest[open + 1..close].to_string());
        rest = &rest[close + 1..];
    }
    out
}

/// The part of `BENCHMARK.json` from `key` up to the next top-level key.
fn section<'a>(text: &'a str, key: &str) -> &'a str {
    let start = text.find(&format!("\"{key}\"")).expect("key present");
    let rest = &text[start..];
    let end = rest.find(']').expect("array closes");
    &rest[..end]
}

fn declared() -> (Vec<String>, Vec<String>, Vec<String>) {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    (
        names_in(section(&text, "workloads")),
        names_in(section(&text, "end_to_end")),
        names_in(section(&text, "per_layer")),
    )
}

struct Run {
    /// `metric → values printed` from the `workload metric value unit` lines.
    printed: HashMap<String, Vec<f64>>,
    digest: String,
    last_line: String,
}

fn run(workload: &str, trace: &str) -> Run {
    let output = Command::new(env!("CARGO_BIN_EXE_beliefbench"))
        .args([
            "--quick",
            "--workload",
            workload,
            "--seed",
            "43",
            "--trace",
            trace,
        ])
        .output()
        .expect("beliefbench runs");
    let stdout = String::from_utf8(output.stdout).expect("utf-8 output");
    assert!(
        output.status.success(),
        "{workload} --trace {trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    let mut printed: HashMap<String, Vec<f64>> = HashMap::new();
    let mut digest = String::new();
    for line in stdout.lines() {
        let fields: Vec<&str> = line.split_whitespace().collect();
        if fields.first() != Some(&workload) || fields.len() < 4 {
            continue;
        }
        if fields[1] == "answers" {
            digest = fields[fields.len() - 1].to_string();
        }
        if let Ok(value) = fields[2].parse::<f64>() {
            printed
                .entry(fields[1].to_string())
                .or_default()
                .push(value);
        }
    }
    Run {
        printed,
        digest,
        last_line: stdout.lines().last().unwrap_or_default().to_string(),
    }
}

fn assert_reports(run: &Run, names: &[String], what: &str) {
    for name in names {
        assert!(
            name.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
            "bad metric name {name}"
        );
        let values = run.printed.get(name).map(Vec::as_slice).unwrap_or_default();
        assert_eq!(
            values.len(),
            1,
            "{what}: {name} printed {} times",
            values.len()
        );
        assert!(values[0].is_finite(), "{what}: {name} is {}", values[0]);
        assert!(
            run.last_line.contains(&format!("\"{name}\":{{\"value\":")),
            "{what}: {name} missing from the result line"
        );
    }
    assert_eq!(run.printed["fail_ratio"], [0.0], "{what}: failures");
    assert!(
        run.last_line
            .starts_with("{\"correct\":true,\"attempted\":"),
        "{what}: {}",
        run.last_line
    );
    assert!(run.last_line.contains("\"failed\":0,\"metrics\":{"));
}

#[test]
fn every_workload_reports_every_declared_metric() {
    let (workloads, end_to_end, per_layer) = declared();
    assert_eq!(workloads.len(), 4);
    for workload in &workloads {
        let untraced = run(workload, "0");
        assert_reports(&untraced, &end_to_end, &format!("{workload} untraced"));
        for name in &end_to_end {
            assert!(untraced.printed[name][0] > 0.0, "{workload}: {name} is 0");
        }
        let traced = run(workload, "1");
        assert_reports(&traced, &per_layer, &format!("{workload} traced"));
        assert!(!untraced.digest.is_empty());
        assert_eq!(
            untraced.digest, traced.digest,
            "{workload}: traced and untraced answers differ"
        );
        assert!(traced.printed["trace.spans"][0] > 0.0);
        assert_eq!(traced.printed["exec.spill_bytes"], [0.0]);
    }
}

#[test]
fn names_flag_matches_benchmark_json() {
    let output = Command::new(env!("CARGO_BIN_EXE_beliefbench"))
        .arg("--names")
        .output()
        .expect("beliefbench runs");
    let text = String::from_utf8(output.stdout).expect("utf-8 output");
    let (workloads, end_to_end, per_layer) = declared();
    assert_eq!(names_in(section(&text, "end_to_end")), end_to_end);
    assert_eq!(names_in(section(&text, "per_layer")), per_layer);
    for w in &workloads {
        assert!(section(&text, "workloads").contains(&format!("\"{w}\"")));
    }
}
