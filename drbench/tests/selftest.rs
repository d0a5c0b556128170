//! Tiny-scale self-test of the benchmark command: every metric
//! `BENCHMARK.json` defines is printed with its unit, planted check
//! failures make the command fail, and a pinned environment knob is
//! refused.

use serde::Deserialize;
use std::collections::BTreeMap;
use std::process::{Command, Output};

#[derive(Deserialize)]
struct Def {
    name: String,
    unit: String,
}

#[derive(Deserialize)]
struct Bench {
    workloads: Vec<Workload>,
    end_to_end: Vec<Def>,
    per_layer: Vec<Def>,
}

#[derive(Deserialize)]
struct Workload {
    name: String,
}

#[derive(Deserialize)]
struct Metric {
    value: f64,
    unit: String,
}

#[derive(Deserialize)]
struct Line {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, Metric>,
}

fn bench() -> Bench {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json readable");
    serde_json::from_str(&json).expect("BENCHMARK.json parses")
}

fn run(workload: &str, seed: u64, trace: u8, extra: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_drbench"))
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args([
            "--seconds",
            "0",
            "--trace",
            &trace.to_string(),
            "--cases",
            "6",
        ])
        .args(extra)
        .env_remove("DRFIX_TIER")
        .env_remove("DRFIX_POLICY")
        .env_remove("DRFIX_THREADS")
        .output()
        .expect("benchmark runs")
}

/// The last stdout line, checked to hold exactly the four result keys.
fn result(out: &Output) -> Line {
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().expect("some output");
    assert!(
        last.starts_with("{\"correct\":")
            && last.contains(",\"attempted\":")
            && last.contains(",\"failed\":")
            && last.contains(",\"metrics\":{"),
        "{last}"
    );
    serde_json::from_str(last).expect("result line parses")
}

fn assert_metrics(line: &Line, defs: &[Def], what: &str) {
    let want: BTreeMap<&str, &str> = defs
        .iter()
        .map(|d| (d.name.as_str(), d.unit.as_str()))
        .collect();
    let got: BTreeMap<&str, &str> = line
        .metrics
        .iter()
        .map(|(k, m)| (k.as_str(), m.unit.as_str()))
        .collect();
    assert_eq!(got, want, "{what}: metric names or units differ");
    assert!(
        line.metrics.values().all(|m| m.value.is_finite()),
        "{what}: non-finite value"
    );
}

#[test]
fn every_workload_prints_every_metric_with_its_unit() {
    let bench = bench();
    assert_eq!(bench.workloads.len(), 3);
    for (i, w) in bench.workloads.iter().enumerate() {
        for trace in [0u8, 1] {
            let out = run(&w.name, 100 + i as u64, trace, &[]);
            let line = result(&out);
            let what = format!("{} trace {trace}", w.name);
            assert!(out.status.success() && line.correct, "{what} failed");
            assert!(line.attempted >= 6 && line.failed == 0, "{what}");
            let defs = if trace == 0 {
                &bench.end_to_end
            } else {
                &bench.per_layer
            };
            assert_metrics(&line, defs, &what);
            if trace == 0 {
                assert!(line.metrics["setup_s"].value > 0.0, "{what}");
                assert!(line.metrics["cases_per_s"].value > 0.0, "{what}");
            } else if w.name == "detect-scale" {
                assert_eq!(line.metrics["synthllm.calls"].value, 0.0);
                assert_eq!(line.metrics["statcheck.probes"].value, 0.0);
            }
        }
    }
}

#[test]
fn a_forced_digest_mismatch_fails_the_command() {
    for trace in [0u8, 1] {
        let out = run("detect-scale", 200, trace, &["--plant", "digest"]);
        assert_eq!(out.status.code(), Some(1), "trace {trace}");
        assert!(!result(&out).correct, "trace {trace}");
    }
}

#[test]
fn a_panic_is_isolated_and_counted_as_failed() {
    for trace in [0u8, 1] {
        let out = run("fix-service", 300, trace, &["--plant", "panic"]);
        assert_eq!(out.status.code(), Some(1), "trace {trace}");
        let line = result(&out);
        assert!(!line.correct, "trace {trace}");
        assert!(
            line.failed > 0 && line.failed < line.attempted,
            "trace {trace}"
        );
    }
}

#[test]
fn a_pinned_knob_is_refused_without_a_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_drbench"))
        .args([
            "--workload",
            "detect-scale",
            "--seconds",
            "0",
            "--trace",
            "0",
        ])
        .env("DRFIX_TIER", "reg")
        .output()
        .expect("benchmark runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
}
