//! Smoke runs of every workload at down-scaled sizes (8-bit inventory,
//! 8-bit ALU and shifter, 50-node fleets): every metric `BENCHMARK.json`
//! names is emitted with its unit, and every output check passes.

use std::path::Path;
use std::process::Command;

use sbst_core::json::{parse, JsonValue};

fn benchmark_spec() -> JsonValue {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json is readable");
    parse(&text).expect("BENCHMARK.json parses")
}

/// `(name, unit)` of every metric in one of the spec's metric lists.
fn named_metrics(spec: &JsonValue, list: &str) -> Vec<(String, String)> {
    spec.get(list)
        .and_then(JsonValue::as_array)
        .expect("metric list present")
        .iter()
        .map(|m| {
            let field = |key| {
                m.get(key)
                    .and_then(JsonValue::as_str)
                    .expect("string field")
            };
            (field("name").to_owned(), field("unit").to_owned())
        })
        .collect()
}

fn smoke_run(workload: &str, trace: u8) -> JsonValue {
    let out = Command::new(env!("CARGO_BIN_EXE_sbst-perfbench"))
        .args(["--workload", workload, "--seed", "1", "--seconds", "0.1"])
        .args(["--trace", &trace.to_string(), "--smoke"])
        .output()
        .expect("benchmark starts");
    assert!(
        out.status.success(),
        "{workload}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let last = stdout.lines().last().expect("a result line");
    parse(last).expect("result line is JSON")
}

fn check_workload(workload: &str) {
    let spec = benchmark_spec();
    for (trace, list) in [(0, "end_to_end"), (1, "per_layer")] {
        let result = smoke_run(workload, trace);
        assert_eq!(
            result.get("correct").and_then(JsonValue::as_bool),
            Some(true)
        );
        assert_eq!(result.get("failed").and_then(JsonValue::as_u64), Some(0));
        assert!(result.get("attempted").and_then(JsonValue::as_u64) >= Some(1));
        let metrics = result.get("metrics").expect("metrics object");
        let expected = named_metrics(&spec, list);
        for (name, unit) in &expected {
            let metric = metrics
                .get(name)
                .unwrap_or_else(|| panic!("{workload}: {name} missing"));
            assert_eq!(
                metric.get("unit").and_then(JsonValue::as_str),
                Some(unit.as_str())
            );
            let value = metric.get("value").and_then(JsonValue::as_f64);
            assert!(
                value.is_some_and(f64::is_finite),
                "{workload}: {name} = {value:?}"
            );
        }
        let JsonValue::Object(pairs) = metrics else {
            panic!("metrics is an object");
        };
        assert_eq!(
            pairs.len(),
            expected.len(),
            "{workload}: unexpected extra metrics"
        );
    }
}

#[test]
fn table1_smoke() {
    check_workload("table1");
}

#[test]
fn atpg_routines_smoke() {
    check_workload("atpg_routines");
}

#[test]
fn fleet_mixed_smoke() {
    check_workload("fleet_mixed");
}

#[test]
fn fleet_healthy_smoke() {
    check_workload("fleet_healthy");
}

#[test]
fn unknown_workload_is_refused() {
    let out = Command::new(env!("CARGO_BIN_EXE_sbst-perfbench"))
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
        .output()
        .expect("benchmark starts");
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
}
