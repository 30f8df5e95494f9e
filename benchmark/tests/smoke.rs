//! Runs the benchmark at `--quick` scale on every workload, untraced
//! and traced, and checks its output contract: the checks pass, every
//! metric `BENCHMARK.json` names is printed with its unit, and the
//! trace file parses. Quick numbers are never recorded.

use sqlnf_obs::json::{parse, JsonValue};
use std::path::{Path, PathBuf};
use std::process::Command;

fn spec() -> JsonValue {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json is readable");
    parse(&text).expect("BENCHMARK.json parses")
}

fn names(spec: &JsonValue, key: &str) -> Vec<(String, String)> {
    spec.get(key)
        .and_then(JsonValue::as_array)
        .expect("metric list")
        .iter()
        .map(|m| {
            let s = |k| {
                m.get(k)
                    .and_then(JsonValue::as_str)
                    .expect("name and unit")
                    .to_owned()
            };
            (s("name"), s("unit"))
        })
        .collect()
}

fn workdir() -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("benchmark-smoke");
    std::fs::create_dir_all(&dir).expect("work directory");
    dir
}

/// Runs one quick workload and returns its result line.
fn run(workload: &str, trace: u8) -> JsonValue {
    let out = Command::new(env!("CARGO_BIN_EXE_sqlnf-benchmark"))
        .args(["--workload", workload, "--seed", "7", "--seconds", "1"])
        .args(["--trace", &trace.to_string(), "--quick"])
        .current_dir(workdir())
        .output()
        .expect("benchmark runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} --trace {trace} failed:\n{}\n{stdout}",
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    parse(last).expect("the result line is JSON")
}

fn assert_metrics(result: &JsonValue, want: &[(String, String)], context: &str) {
    assert_eq!(
        result.get("correct"),
        Some(&JsonValue::Bool(true)),
        "{context}"
    );
    assert_eq!(
        result.get("failed").and_then(JsonValue::as_u64),
        Some(0),
        "{context}"
    );
    assert!(
        result
            .get("attempted")
            .and_then(JsonValue::as_u64)
            .unwrap_or(0)
            >= 1,
        "{context}"
    );
    let metrics = result
        .get("metrics")
        .and_then(JsonValue::as_object)
        .expect("metrics object");
    let got: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
    let names: Vec<&str> = want.iter().map(|(n, _)| n.as_str()).collect();
    assert_eq!(got, names, "{context}: metric names");
    for ((name, unit), (_, value)) in want.iter().zip(metrics) {
        assert_eq!(
            value.get("unit").and_then(JsonValue::as_str),
            Some(unit.as_str()),
            "{context}: unit of {name}"
        );
        assert!(
            matches!(
                value.get("value"),
                Some(JsonValue::Int(_) | JsonValue::Float(_))
            ),
            "{context}: value of {name}"
        );
    }
}

#[test]
fn every_workload_prints_every_metric() {
    let spec = spec();
    let end_to_end = names(&spec, "end_to_end");
    let per_layer = names(&spec, "per_layer");
    let workloads = spec
        .get("workloads")
        .and_then(JsonValue::as_array)
        .expect("workloads");
    for w in workloads {
        let w = w
            .get("name")
            .and_then(JsonValue::as_str)
            .expect("workload name");
        assert_metrics(&run(w, 0), &end_to_end, &format!("{w} untraced"));
        assert_metrics(&run(w, 1), &per_layer, &format!("{w} traced"));
        let trace_file = workdir().join(format!("target/bench-reports/TRACE_{w}.json"));
        let doc = parse(&std::fs::read_to_string(&trace_file).expect("trace file written"))
            .expect("trace file parses");
        let spans = doc
            .get("trace")
            .and_then(|t| t.get("spans"))
            .and_then(JsonValue::as_array)
            .expect("spans");
        assert!(!spans.is_empty(), "{w}: no spans recorded");
        for key in [
            "nproc",
            "rustc",
            "profile",
            "obs_enabled",
            "seed",
            "fsync",
            "digest",
        ] {
            assert!(doc.get(key).is_some(), "{w}: trace file lacks {key}");
        }
    }
}

#[test]
fn bad_arguments_exit_without_a_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_sqlnf-benchmark"))
        .args([
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .current_dir(workdir())
        .output()
        .expect("benchmark runs");
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
}
