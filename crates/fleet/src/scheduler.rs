//! The fleet scheduler: one [`fan_out`] over the node indices, each item
//! running one node from its first session to its outcome.
//!
//! Determinism: a node's observable behaviour is a pure function of
//! `(fleet seed, node index, virtual time)` and nodes never interact, so
//! the worker count only decides which thread runs a node. `fan_out`
//! returns outcomes in node-index order, making the aggregate (and the
//! per-node event logs) bit-identical for any worker count.

use std::io::Write;
use std::sync::{Arc, Mutex};

use sbst_core::{JsonValue, NdjsonWriter};
use sbst_gates::fan_out;

use crate::aggregate::Aggregate;
use crate::characterize::Characterizer;
use crate::node::{FleetNode, NodeOutcome, SessionSample};
use crate::profile::{assign_profile, PopulationMix, NOMINAL_HZ};

/// Fleet run shape.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Simulated nodes.
    pub nodes: u64,
    /// Worker threads.
    pub workers: usize,
    /// Fleet seed — every node's profile and fault plan derives from it.
    pub seed: u64,
    /// Virtual run length in cycles (see [`NOMINAL_HZ`]).
    pub horizon_cycles: u64,
    /// Base periodic-test cadence in cycles.
    pub base_period_cycles: u64,
    /// Population mix.
    pub mix: PopulationMix,
    /// Whether nodes keep their full ordered event logs (small fleets /
    /// determinism tests only; counters are always kept).
    pub record_events: bool,
    /// Coverage target every characterized component is held to.
    pub coverage_slo_percent: f64,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            nodes: 1000,
            workers: 1,
            seed: 0x5B57_F1EE,
            horizon_cycles: 2 * NOMINAL_HZ,
            base_period_cycles: 600_000,
            mix: PopulationMix::default(),
            record_events: false,
            coverage_slo_percent: 90.0,
        }
    }
}

/// Per-worker accounting (observational — excluded from CI differentials).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkerStats {
    /// Worker index.
    pub worker: usize,
    /// Sessions this worker executed.
    pub sessions: u64,
    /// Nodes this worker finalized.
    pub nodes_finalized: u64,
    /// Telemetry lines this worker produced.
    pub telemetry_lines: u64,
    /// Fault-free routine runs this worker's nodes replayed from the shared
    /// schedule instead of executing.
    pub replayed_attempts: u64,
}

/// A completed fleet run.
#[derive(Debug)]
pub struct FleetRun {
    /// Per-node outcomes, sorted by node index.
    pub outcomes: Vec<NodeOutcome>,
    /// The deterministic fleet rollup.
    pub aggregate: Aggregate,
    /// Per-worker accounting, by worker index.
    pub workers: Vec<WorkerStats>,
    /// Characterizations that ran (the invariant: exactly 1).
    pub characterizations: u64,
    /// Telemetry lines streamed (0 without a telemetry sink).
    pub telemetry_lines: u64,
    /// Telemetry flushes performed by the shared writer.
    pub telemetry_flushes: u64,
}

fn session_line(index: u64, sample: &SessionSample) -> String {
    JsonValue::object([
        ("type", JsonValue::Str("session".to_owned())),
        ("node", JsonValue::UInt(index)),
        ("session", JsonValue::UInt(sample.session)),
        ("due_cycles", JsonValue::UInt(sample.due_cycles)),
        ("clock_cycles", JsonValue::UInt(sample.clock_cycles)),
        ("healthy", JsonValue::Bool(sample.healthy)),
        ("attempts", JsonValue::UInt(sample.attempts)),
        ("failures", JsonValue::UInt(sample.failures)),
        ("backoffs", JsonValue::UInt(sample.backoffs)),
    ])
    .to_ndjson_line()
}

fn node_line(outcome: &NodeOutcome) -> String {
    JsonValue::object([
        ("type", JsonValue::Str("node".to_owned())),
        ("node", JsonValue::UInt(outcome.index)),
        (
            "profile",
            JsonValue::Str(outcome.profile.kind.name().to_owned()),
        ),
        ("sessions", JsonValue::UInt(outcome.sessions)),
        ("attempts", JsonValue::UInt(outcome.counters.attempts)),
        ("passes", JsonValue::UInt(outcome.counters.passes)),
        ("transients", JsonValue::UInt(outcome.counters.transients)),
        (
            "attacks_injected",
            JsonValue::UInt(outcome.attacks_injected),
        ),
        (
            "tampers_detected",
            JsonValue::UInt(outcome.tampers_detected()),
        ),
        (
            "quarantined",
            JsonValue::Array(
                outcome
                    .quarantined
                    .iter()
                    .map(|name| JsonValue::Str(name.clone()))
                    .collect(),
            ),
        ),
        ("clock_cycles", JsonValue::UInt(outcome.clock_cycles)),
        (
            "digest",
            JsonValue::Str(format!("{:#018x}", outcome.digest)),
        ),
    ])
    .to_ndjson_line()
}

/// Runs the fleet to its virtual horizon and returns the deterministic
/// rollup. `telemetry`, when given, receives the NDJSON stream: each
/// node's session records and then its node record, written as one batch
/// when the node finishes. The order of the batches depends on
/// scheduling; record contents do not.
///
/// # Panics
///
/// Panics on telemetry I/O errors.
pub fn run_fleet(
    config: &FleetConfig,
    characterizer: &Characterizer,
    telemetry: Option<Box<dyn Write + Send>>,
) -> FleetRun {
    let artifacts = characterizer.artifacts();
    let target_specs = characterizer.target_specs();
    let writer = telemetry.map(|sink| Mutex::new(NdjsonWriter::new(sink)));
    let indices: Vec<u64> = (0..config.nodes).collect();

    // Each worker keeps its accounting and one telemetry batch buffer it
    // reuses for every node it runs.
    let (outcomes, states) = fan_out(
        &indices,
        config.workers,
        || (WorkerStats::default(), String::new()),
        |(stats, batch), &index| {
            let profile = assign_profile(
                config.seed,
                index,
                &config.mix,
                config.base_period_cycles,
                config.horizon_cycles,
                &target_specs,
            );
            let mut node =
                FleetNode::new(index, profile, Arc::clone(&artifacts), config.record_events);
            let mut lines = 0u64;
            loop {
                let sample = node.run_due_session(config.horizon_cycles);
                stats.sessions += 1;
                if writer.is_some() {
                    batch.push_str(&session_line(index, &sample));
                    lines += 1;
                }
                if sample.done {
                    break;
                }
            }
            stats.replayed_attempts += node.replayed_attempts();
            let outcome = node.finish();
            stats.nodes_finalized += 1;
            if let Some(writer) = &writer {
                batch.push_str(&node_line(&outcome));
                lines += 1;
                writer
                    .lock()
                    .expect("telemetry lock")
                    .write_batch(batch, lines)
                    .expect("telemetry sink write");
                stats.telemetry_lines += lines;
                batch.clear();
            }
            outcome
        },
    );
    let workers = states
        .into_iter()
        .enumerate()
        .map(|(worker, (stats, _))| WorkerStats { worker, ..stats })
        .collect();

    let (telemetry_lines, telemetry_flushes) = match writer {
        Some(writer) => {
            let mut writer = writer.into_inner().expect("telemetry lock");
            writer.flush().expect("telemetry sink flush");
            (writer.lines(), writer.flushes())
        }
        None => (0, 0),
    };

    let aggregate = Aggregate::build(&outcomes, &artifacts, config.coverage_slo_percent);

    FleetRun {
        outcomes,
        aggregate,
        workers,
        characterizations: characterizer.characterizations(),
        telemetry_lines,
        telemetry_flushes,
    }
}
