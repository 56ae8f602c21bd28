//! Golden-file test for the machine-readable report pipeline: generate a
//! down-scaled Table 1, serialize it through a `RunReport` the way the
//! `table1` binary does, write it to disk, re-parse with the workspace
//! JSON parser, and check the Table-1 fields survive the round trip.

use sbst_core::{json, Cut, JsonValue, RunReport, Table1};
use sbst_gates::FaultSimConfig;

#[test]
fn table1_report_round_trips_through_disk() {
    // The 16-bit ALU's faults fill more than four 255-lane batches, i.e.
    // two groups, so the two requested grading threads both get work.
    let cuts = [Cut::alu(16), Cut::shifter(8)];
    let sim = FaultSimConfig {
        threads: Some(2),
        ..FaultSimConfig::default()
    };
    let table = Table1::generate_with(&cuts, sim).expect("table generates");
    let report = RunReport::new("table1")
        .field("smoke", JsonValue::from(true))
        .field("table1", table.to_json());

    let dir = std::env::temp_dir().join(format!("sbst-json-report-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("table1.json");
    report.write_to_path(&path).expect("report writes");

    let text = std::fs::read_to_string(&path).expect("report reads back");
    std::fs::remove_file(&path).ok();
    std::fs::remove_dir(&dir).ok();
    let value = json::parse(&text).expect("report parses");

    assert_eq!(
        value.get("tool").and_then(JsonValue::as_str),
        Some("table1")
    );
    assert_eq!(
        value.get("schema_version").and_then(JsonValue::as_u64),
        Some(u64::from(sbst_core::metrics::SCHEMA_VERSION))
    );

    let table1 = value.get("table1").expect("table1 field present");
    let rows = table1
        .get("rows")
        .and_then(JsonValue::as_array)
        .expect("rows array");
    assert_eq!(rows.len(), cuts.len());
    for (row, cut) in rows.iter().zip(&cuts) {
        assert_eq!(
            row.get("name").and_then(JsonValue::as_str),
            Some(cut.name())
        );
        // The Table-1 columns the paper reports, plus the fault-sim
        // timing the observability layer adds.
        for key in [
            "size_words",
            "cpu_cycles",
            "data_refs",
            "fault_coverage_percent",
            "sim_wall_seconds",
        ] {
            assert!(
                row.get(key).and_then(JsonValue::as_f64).is_some(),
                "row for {} missing numeric {key}",
                cut.name()
            );
        }
    }

    // Totals come from the combined self-test program (shared prologue),
    // so they need not equal the per-row sum — but they must be present
    // and sane.
    let totals = table1.get("totals").expect("totals present");
    for key in ["size_words", "cpu_cycles", "data_refs"] {
        assert!(
            totals
                .get(key)
                .and_then(JsonValue::as_f64)
                .is_some_and(|v| v > 0.0),
            "totals missing positive {key}"
        );
    }
    assert!(totals
        .get("fault_coverage_percent")
        .and_then(JsonValue::as_f64)
        .is_some_and(|fc| (0.0..=100.0).contains(&fc)));

    let fault_sim = table1.get("fault_sim").expect("fault_sim present");
    assert_eq!(
        fault_sim.get("threads").and_then(JsonValue::as_u64),
        Some(2)
    );
    assert!(fault_sim
        .get("wall_seconds")
        .and_then(JsonValue::as_f64)
        .is_some_and(|s| s >= 0.0));
}
