//! The smoke Table 1's fixed point: the deterministic fields of
//! `table1 --smoke --threads 2 --json` (ci.sh's `table1_snapshot_fields`)
//! must equal the committed `tests/golden/table1_smoke.json`. README,
//! "Updating the snapshots", says how to regenerate the file.

use sbst::core::json::{self, JsonValue};
use sbst::core::{Cut, Table1};
use sbst::gates::{FaultModel, FaultSimConfig};
use sbst::tpg::AtpgConfig;

const ROW_KEYS: [&str; 13] = [
    "name",
    "size_words",
    "cpu_cycles",
    "data_refs",
    "fault_count",
    "faults_detected",
    "fault_coverage_percent",
    "stuck_at_fault_count",
    "stuck_at_detected",
    "stuck_at_coverage_percent",
    "transition_fault_count",
    "transition_detected",
    "transition_coverage_percent",
];
const ATPG_KEYS: [&str; 11] = [
    "runs",
    "random_patterns_tried",
    "random_patterns_kept",
    "detected_by_random",
    "podem_targets",
    "podem_tests",
    "podem_backtracks",
    "redundant",
    "aborted",
    "podem_discarded",
    "drop_sim_tape_compilations",
];
const FAULT_SIM_KEYS: [&str; 7] = [
    "events_simulated",
    "events_full_eval",
    "cycles_simulated",
    "live_lane_cycles",
    "lane_slots_filled",
    "lane_slots_total",
    "lane_words_simulated",
];

/// `value`'s `keys`, a missing key read as `null` (as jq's `{a, b}` does).
fn project(value: &JsonValue, keys: &[&str]) -> JsonValue {
    JsonValue::object(
        keys.iter()
            .map(|&k| (k, value.get(k).cloned().unwrap_or(JsonValue::Null))),
    )
}

/// Sorts object keys recursively and reads every number as an `f64`, so a
/// report compares equal to its `jq -S` rendering.
fn canonical(value: &JsonValue) -> JsonValue {
    match value {
        JsonValue::Object(pairs) => {
            let mut pairs: Vec<(String, JsonValue)> = pairs
                .iter()
                .map(|(k, v)| (k.clone(), canonical(v)))
                .collect();
            pairs.sort_by(|a, b| a.0.cmp(&b.0));
            JsonValue::Object(pairs)
        }
        JsonValue::Array(values) => JsonValue::array(values.iter().map(canonical)),
        number @ (JsonValue::Int(_) | JsonValue::UInt(_) | JsonValue::Float(_)) => {
            JsonValue::Float(number.as_f64().expect("a number"))
        }
        other => other.clone(),
    }
}

#[test]
fn smoke_table1_matches_the_committed_snapshot() {
    let threads = Some(2);
    let sim = FaultSimConfig {
        threads,
        ..FaultSimConfig::default()
    };
    let atpg = AtpgConfig {
        sim_threads: threads,
        podem_threads: threads,
        ..AtpgConfig::default()
    };
    let table =
        Table1::generate_with_model(&Cut::smoke_inventory(), sim, atpg, FaultModel::default())
            .expect("the smoke Table 1 generates")
            .to_json();
    let field = |key: &str| table.get(key).cloned().expect(key);
    let rows = table
        .get("rows")
        .and_then(JsonValue::as_array)
        .expect("rows");
    let snapshot = JsonValue::object([
        ("fault_model", field("fault_model")),
        (
            "rows",
            JsonValue::array(rows.iter().map(|row| project(row, &ROW_KEYS))),
        ),
        ("totals", field("totals")),
        ("atpg", project(&field("atpg"), &ATPG_KEYS)),
        ("fault_sim", project(&field("fault_sim"), &FAULT_SIM_KEYS)),
    ]);

    let golden_path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/table1_smoke.json"
    );
    let golden = std::fs::read_to_string(golden_path).expect("the snapshot is committed");
    let golden = json::parse(&golden).expect("the snapshot parses");
    assert!(
        canonical(&snapshot) == canonical(&golden),
        "the smoke Table 1 diverges from {golden_path}:\n{}",
        canonical(&snapshot).to_json_pretty()
    );
}
