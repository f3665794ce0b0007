//! Smoke test at a tiny scale: every workload named in `BENCHMARK.json`
//! runs and passes its output checks, every metric `BENCHMARK.json` names is
//! emitted with its unit, and the traced run reports a residual and a
//! tracing overhead for each workload.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::path::PathBuf;
use std::process::Command;

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark lives one level below the repository root")
        .to_path_buf()
}

/// The value of `"key": "..."` on `line`, if present.
fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pattern = format!("\"{key}\": \"");
    let start = line.find(&pattern)? + pattern.len();
    let end = start + line[start..].find('"')?;
    Some(&line[start..end])
}

/// Metric `(name, unit)` pairs.
type Metrics = Vec<(String, String)>;

/// `(workloads, end_to_end, per_layer)` from `BENCHMARK.json`, which keeps
/// one entry per line: workloads by name, metrics by `(name, unit)`.
fn benchmark_spec() -> (Vec<String>, Metrics, Metrics) {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let (mut workloads, mut end_to_end, mut per_layer) = (Vec::new(), Vec::new(), Vec::new());
    let mut section = "";
    for line in text.lines() {
        for key in ["workloads", "end_to_end", "per_layer"] {
            if line.trim_start().starts_with(&format!("\"{key}\"")) {
                section = key;
            }
        }
        let Some(name) = field(line, "name") else {
            continue;
        };
        match (section, field(line, "unit")) {
            ("workloads", _) => workloads.push(name.to_string()),
            ("end_to_end", Some(unit)) => end_to_end.push((name.to_string(), unit.to_string())),
            ("per_layer", Some(unit)) => per_layer.push((name.to_string(), unit.to_string())),
            _ => panic!("unexpected BENCHMARK.json line: {line}"),
        }
    }
    (workloads, end_to_end, per_layer)
}

/// The numeric value of metric `name` in a result line, if it is emitted
/// with `unit`.
fn metric(result: &str, name: &str, unit: &str) -> Option<f64> {
    let pattern = format!("\"{name}\": {{\"value\": ");
    let start = result.find(&pattern)? + pattern.len();
    let rest = &result[start..];
    let (value, tail) = rest.split_once(", ")?;
    tail.starts_with(&format!("\"unit\": \"{unit}\"}}"))
        .then(|| value.parse().ok())
        .flatten()
}

fn run(workload: &str, trace: &str) -> Option<String> {
    let output = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .current_dir(repo_root())
        .args(["--workload", workload, "--seed", "7", "--seconds", "0.1"])
        .args(["--trace", trace, "--scale", "tiny"])
        .output()
        .expect("perfbench starts");
    let stderr = String::from_utf8_lossy(&output.stderr);
    if output.status.code() == Some(3) && stderr.contains("oversubscribe") {
        eprintln!("skipping {workload}: {stderr}");
        return None;
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        output.status.success(),
        "{workload} --trace {trace} failed: {stderr}\n{stdout}"
    );
    let last = stdout.lines().last().expect("a result line").to_string();
    assert!(last.starts_with("{\"correct\": true"), "{workload}: {last}");
    Some(last)
}

#[test]
fn every_workload_emits_every_metric() {
    let (workloads, end_to_end, per_layer) = benchmark_spec();
    assert!(workloads.len() >= 2, "BENCHMARK.json names {workloads:?}");
    for workload in &workloads {
        let Some(result) = run(workload, "0") else {
            continue;
        };
        for (name, unit) in &end_to_end {
            let value = metric(&result, name, unit)
                .unwrap_or_else(|| panic!("{workload}: no {name} in {unit}: {result}"));
            assert!(value != 0.0, "{workload}: end-to-end metric {name} reads 0");
        }
        let traced = run(workload, "1").expect("the untraced run was not refused");
        for (name, unit) in &per_layer {
            assert!(
                metric(&traced, name, unit).is_some(),
                "{workload}: no {name} in {unit}: {traced}"
            );
        }
        let residual = metric(&traced, "residual_share", "fraction").expect("residual");
        assert!(
            residual != 0.0 && residual < 1.0,
            "{workload}: residual_share {residual}"
        );
        let overhead = metric(&traced, "trace_overhead", "fraction").expect("overhead");
        assert!(overhead != 0.0, "{workload}: trace_overhead {overhead}");
    }
}
