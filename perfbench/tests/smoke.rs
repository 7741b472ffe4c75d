//! Smoke-sized runs of every workload, untraced and traced: each must exit
//! 0 and print, as its last line, a passing result carrying exactly the
//! metrics `BENCHMARK.json` names, each with its unit.

use serde::{map_get, Value};
use std::process::Command;

fn benchmark() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

fn field<'v>(v: &'v Value, key: &str) -> &'v Value {
    map_get(v.as_map().expect("an object"), key).unwrap_or_else(|| panic!("missing {key}"))
}

/// `(name, unit)` of every metric in one catalogue of `BENCHMARK.json`.
fn catalogue(bench: &Value, key: &str) -> Vec<(String, String)> {
    field(bench, key)
        .as_seq()
        .expect("a list")
        .iter()
        .map(|m| {
            (
                field(m, "name").as_str().expect("a name").to_string(),
                field(m, "unit").as_str().expect("a unit").to_string(),
            )
        })
        .collect()
}

fn run(workload: &str, trace: u8) -> Value {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "5", "--seconds", "0.2"])
        .args(["--trace", &trace.to_string(), "--smoke"])
        .output()
        .expect("the benchmark runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} trace={trace} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    serde_json::from_str(last).expect("the result line is JSON")
}

#[test]
fn every_workload_emits_every_metric_with_its_unit() {
    let bench = benchmark();
    let workloads: Vec<String> = field(&bench, "workloads")
        .as_seq()
        .expect("a list")
        .iter()
        .map(|w| field(w, "name").as_str().expect("a name").to_string())
        .collect();
    assert_eq!(
        workloads,
        ["wafer_lot", "wafer_durable", "nnga_hunt", "shmoo_overlay"]
    );
    for workload in &workloads {
        for (trace, key) in [(0, "end_to_end"), (1, "per_layer")] {
            let result = run(workload, trace);
            assert_eq!(field(&result, "correct"), &Value::Bool(true));
            assert_eq!(field(&result, "failed"), &Value::U64(0));
            assert!(matches!(field(&result, "attempted"), Value::U64(n) if *n >= 1));
            let metrics = field(&result, "metrics").as_map().expect("an object");
            let want = catalogue(&bench, key);
            let got: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
            let names: Vec<&str> = want.iter().map(|(n, _)| n.as_str()).collect();
            assert_eq!(got, names, "{workload} trace={trace}");
            for (name, unit) in &want {
                let metric = field(field(&result, "metrics"), name);
                assert_eq!(
                    field(metric, "unit").as_str(),
                    Some(unit.as_str()),
                    "{workload}: {name}"
                );
                let value = match field(metric, "value") {
                    Value::F64(v) => *v,
                    Value::U64(v) => *v as f64,
                    Value::I64(v) => *v as f64,
                    other => panic!("{workload}: {name} is not a number: {other:?}"),
                };
                assert!(value.is_finite(), "{workload}: {name}");
                if trace == 0 {
                    assert!(value != 0.0, "{workload}: end-to-end {name} reads 0");
                }
            }
        }
    }
}

#[test]
fn bad_arguments_exit_2_without_a_result() {
    for args in [
        &["--workload", "nope", "--seed", "1", "--seconds", "1"][..],
        &["--workload", "wafer_lot", "--seed", "x", "--seconds", "1"][..],
        &["--workload", "wafer_lot", "--seed", "1"][..],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
            .args(args)
            .output()
            .expect("the benchmark runs");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(!String::from_utf8_lossy(&out.stdout).contains("\"correct\""));
    }
}
