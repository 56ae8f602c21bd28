//! Machine-readable run reports: a named, schema-versioned JSON document
//! serialized through the hand-rolled [`crate::json`] writer.
//!
//! The lower crates (`sbst-gates`, `sbst-tpg`, `sbst-cpu`) cannot depend on
//! `sbst-core`, so they expose plain stats structs (`SimStats`, `AtpgStats`,
//! `ExecStats`) from their hot paths; this module is the aggregation point
//! where those numbers become a [`RunReport`] on disk. Every bench
//! binary's `--json <path>` flag bottoms out here.
//!
//! # Example
//!
//! ```
//! use sbst_core::metrics::RunReport;
//! use sbst_core::JsonValue;
//!
//! let report = RunReport::new("example").field("patterns_tried", JsonValue::UInt(64));
//! let text = report.to_value().to_json();
//! assert!(text.contains("\"patterns_tried\":64"));
//! ```

use crate::json::JsonValue;

/// Version stamped into every emitted report so downstream tooling can
/// detect schema changes. Bump when renaming or removing fields.
///
/// History: 2 — `events_simulated` became a true gate-evaluation event
/// count (previously `cycles × gates`), and `fault_sim` objects gained
/// `engine`, `events_simulated`, `events_full_eval` and `event_ratio`.
/// 3 — on-line test-manager reports: `manager` objects carry `counters`,
/// `components` (health/classification/verdict snapshots), the ordered
/// `events` log (attempts, watchdog fires, backoffs, classifications,
/// quarantines, store corruption/recapture, preemption/resume) and
/// `clock_cycles`, serialized by `sbst_core::report::manager_to_json`.
/// 4 — the compiled tape engine: `fault_sim` objects gained `tape_len`,
/// `chains_collapsed`, `lane_slots_filled`, `lane_slots_total` and
/// `lane_occupancy` (all zero/absent savings under the narrow engines),
/// and `engine` may now be `compiled` alongside `full-eval` and
/// `event-driven`.
/// 5 — the parallel deterministic ATPG kernel: Table 1 reports gain an
/// `atpg` object (`podem_threads`, `podem_wall_seconds`, the summed run
/// stats including `podem_discarded` and `drop_sim_tape_compilations`, the
/// random-phase pattern economy, and `per_thread` worker accounting).
/// 6 — the fleet orchestrator: `fleet` reports carry the run shape
/// (`nodes`, `workers`, `horizon_cycles`, `characterizations` — asserted
/// exactly 1 for any node count), `throughput`
/// (`nodes_per_sec`/`sessions_per_sec`), the deterministic `aggregate`
/// tree (fleet totals + digest, per-profile groups, coverage-SLO
/// attainment, transient-drift anomalies) and observational `workers`
/// accounting (sessions, steals, telemetry flushes per worker).
/// 7 — the transition-delay fault model: Table 1 reports gain a top-level
/// `fault_model` (the headline model: `stuck-at` or `transition`), rows
/// always carry both `stuck_at_{fault_count,detected,coverage_percent}`
/// and `transition_{fault_count,detected,coverage_percent}` alongside the
/// legacy `fault_count`/`faults_detected`/`fault_coverage_percent` columns
/// (which now report the headline model), and `totals` gains
/// `stuck_at_coverage_percent`/`transition_coverage_percent`.
/// 8 — the tamper-evident signature store: `manager` counters gain
/// `tamper_forgeries`, `tamper_replays`, `recapture_rejects`,
/// `replica_compromises`, `store_suspensions` and `store_heals`;
/// `store_corrupted` events carry a `kind` (forged/replayed, with epochs
/// for replays) and new event types `recapture_rejected`,
/// `replica_compromised`, `store_entry_suspended` and
/// `store_entry_healed` may appear; component snapshots gain
/// `store_trusted`; `online_manager` reports always carry an `adversary`
/// object (`attacks_injected`/`attacks_detected`/`false_alarms`); fleet
/// reports gain tamper totals in the `aggregate` tree and per-node
/// `attacks_injected`/`tampers_detected` in the NDJSON `node` lines.
/// Within schema 8 the event-driven engine was removed: `engine` is now
/// `compiled` (the default) or `full-eval`, and `events_simulated` always
/// equals `events_full_eval` (`event_ratio` 1).
/// 9 — Table 1's `fault_sim` object drops `events_simulated` and
/// `event_ratio` (it keeps `events_full_eval`, the one event count), and
/// fleet `workers_detail[]` entries drop `steals` and `telemetry_batches`:
/// each worker runs whole nodes and writes one telemetry batch per node.
/// 10 — fault-free runs replay the shared schedule's record: `fleet`
/// reports gain a top-level `replayed_attempts` total and a per-worker
/// `replayed_attempts` in `workers_detail[]`, and every `online_manager`
/// scenario gains `replayed_attempts`. All are observational (scheduling
/// decides which node records a routine first); none is under
/// `aggregate` or in a manager's `counters`.
/// 11 — fault grading repacks surviving faults into fewer batches: Table
/// 1's `fault_sim` object gains `cycles_simulated` (batch-cycles clocked)
/// and `live_lane_cycles` (lane-cycles that carried a not-yet-detected
/// fault), both over the rows' stuck-at grading runs; `lane_slots_*`
/// keep describing the initial packing. Within schema 11 the volume
/// counters (`events_full_eval`, `cycles_simulated`, `live_lane_cycles`,
/// `lane_slots_*`) grew to cover both fault models' grading runs.
/// 12 — the compiled tape has one entry per gate: Table 1's `fault_sim`
/// object and the `ablations` engine rows drop `tape_len` and
/// `chains_collapsed`.
pub const SCHEMA_VERSION: u32 = 12;

/// A machine-readable run report: a named, schema-versioned JSON document
/// that every bench binary writes behind its `--json <path>` flag.
#[derive(Debug)]
pub struct RunReport {
    tool: String,
    fields: Vec<(String, JsonValue)>,
}

impl RunReport {
    /// Starts a report for the named tool (e.g. `"table1"`).
    pub fn new(tool: &str) -> Self {
        Self {
            tool: tool.to_owned(),
            fields: Vec::new(),
        }
    }

    /// Appends a top-level field. Fields appear in insertion order after
    /// the standard `tool` / `schema_version` header.
    pub fn field(mut self, key: &str, value: JsonValue) -> Self {
        self.fields.push((key.to_owned(), value));
        self
    }

    /// Builds the final JSON tree.
    pub fn to_value(&self) -> JsonValue {
        let mut pairs = vec![
            ("tool".to_owned(), JsonValue::Str(self.tool.clone())),
            (
                "schema_version".to_owned(),
                JsonValue::UInt(SCHEMA_VERSION as u64),
            ),
        ];
        pairs.extend(self.fields.iter().cloned());
        JsonValue::Object(pairs)
    }

    /// Writes the report (pretty-printed) to `path`.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn write_to_path(&self, path: &std::path::Path) -> std::io::Result<()> {
        std::fs::write(path, self.to_value().to_json_pretty())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_serializes_header_and_fields() {
        let report = RunReport::new("unit").field("answer", JsonValue::UInt(42));
        let v = report.to_value();
        assert_eq!(v.get("tool").unwrap().as_str(), Some("unit"));
        assert_eq!(
            v.get("schema_version").unwrap().as_u64(),
            Some(SCHEMA_VERSION as u64)
        );
        assert_eq!(v.get("answer").unwrap().as_u64(), Some(42));
        // Round-trips through the parser.
        let text = v.to_json_pretty();
        assert_eq!(crate::json::parse(&text).unwrap(), v);
    }
}
