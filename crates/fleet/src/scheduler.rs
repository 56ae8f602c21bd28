//! The fleet scheduler: one [`fan_out`] over the node indices, each item
//! running one node from its first session to its outcome.
//!
//! Determinism: a node's observable behaviour is a pure function of
//! `(fleet seed, node index, virtual time)` and nodes never interact, so
//! the worker count only decides which thread runs a node. `fan_out`
//! returns outcomes in node-index order, making the aggregate (and the
//! per-node event logs) bit-identical for any worker count.

use std::fmt::Write as _;
use std::io::{self, Write};
use std::sync::{Arc, Mutex};

use sbst_core::{write_escaped, NdjsonWriter};
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
    /// Telemetry lines this worker handed to the sink (none after a
    /// telemetry I/O error).
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
    /// The first telemetry I/O error; the stream stops there, and the
    /// run goes on without it.
    pub telemetry_error: Option<io::Error>,
}

/// The shared telemetry writer and its first I/O error, after which it
/// takes no more batches.
struct Telemetry {
    writer: NdjsonWriter<Box<dyn Write + Send>>,
    error: Option<io::Error>,
}

/// Appends one session record to `out` as an NDJSON line. The shape is
/// fixed, so it is written directly, byte-identical to the same record
/// built as a [`sbst_core::JsonValue`] object.
fn push_session_line(out: &mut String, index: u64, sample: &SessionSample) {
    let _ = writeln!(
        out,
        "{{\"type\":\"session\",\"node\":{index},\"session\":{},\"due_cycles\":{},\
         \"clock_cycles\":{},\"healthy\":{},\"attempts\":{},\"failures\":{},\"backoffs\":{}}}",
        sample.session,
        sample.due_cycles,
        sample.clock_cycles,
        sample.healthy,
        sample.attempts,
        sample.failures,
        sample.backoffs,
    );
}

/// Appends one node record to `out` as an NDJSON line, written directly
/// like [`push_session_line`]; the profile and component names go through
/// the JSON string escaper.
fn push_node_line(out: &mut String, outcome: &NodeOutcome) {
    let _ = write!(
        out,
        "{{\"type\":\"node\",\"node\":{},\"profile\":",
        outcome.index
    );
    write_escaped(out, outcome.profile.kind.name());
    let _ = write!(
        out,
        ",\"sessions\":{},\"attempts\":{},\"passes\":{},\"transients\":{},\
         \"attacks_injected\":{},\"tampers_detected\":{},\"quarantined\":[",
        outcome.sessions,
        outcome.counters.attempts,
        outcome.counters.passes,
        outcome.counters.transients,
        outcome.attacks_injected,
        outcome.tampers_detected(),
    );
    for (i, name) in outcome.quarantined.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_escaped(out, name);
    }
    let _ = writeln!(
        out,
        "],\"clock_cycles\":{},\"digest\":\"{:#018x}\"}}",
        outcome.clock_cycles, outcome.digest
    );
}

/// Runs the fleet to its virtual horizon and returns the deterministic
/// rollup. `telemetry`, when given, receives the NDJSON stream: each
/// node's session records and then its node record, written as one batch
/// when the node finishes. The order of the batches depends on
/// scheduling; record contents do not. A telemetry I/O error ends the
/// stream, not the run: it lands in [`FleetRun::telemetry_error`], and
/// outcomes and aggregate are those of a run without telemetry.
pub fn run_fleet(
    config: &FleetConfig,
    characterizer: &Characterizer,
    telemetry: Option<Box<dyn Write + Send>>,
) -> FleetRun {
    let artifacts = characterizer.artifacts();
    let target_specs = characterizer.target_specs();
    let telemetry = telemetry.map(|sink| {
        Mutex::new(Telemetry {
            writer: NdjsonWriter::new(sink),
            error: None,
        })
    });
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
                if telemetry.is_some() {
                    push_session_line(batch, index, &sample);
                    lines += 1;
                }
                if sample.done {
                    break;
                }
            }
            stats.replayed_attempts += node.replayed_attempts();
            let outcome = node.finish();
            stats.nodes_finalized += 1;
            if let Some(telemetry) = &telemetry {
                push_node_line(batch, &outcome);
                lines += 1;
                let mut telemetry = telemetry.lock().expect("telemetry lock");
                if telemetry.error.is_none() {
                    stats.telemetry_lines += lines;
                    telemetry.error = telemetry.writer.write_batch(batch, lines).err();
                }
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

    let (telemetry_lines, telemetry_flushes, telemetry_error) = match telemetry {
        Some(telemetry) => {
            let Telemetry { mut writer, error } = telemetry.into_inner().expect("telemetry lock");
            let error = error.or_else(|| writer.flush().err());
            (writer.lines(), writer.flushes(), error)
        }
        None => (0, 0, None),
    };

    let aggregate = Aggregate::build(&outcomes, &artifacts, config.coverage_slo_percent);

    FleetRun {
        outcomes,
        aggregate,
        workers,
        characterizations: characterizer.characterizations(),
        telemetry_lines,
        telemetry_flushes,
        telemetry_error,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::{NodeProfile, ProfileKind};
    use sbst_core::{Cut, JsonValue};
    use sbst_cpu::manager::ManagerCounters;

    /// The session record as a JSON tree: the reference encoding
    /// [`push_session_line`] must reproduce byte for byte.
    fn session_tree(index: u64, sample: &SessionSample) -> JsonValue {
        JsonValue::object([
            ("type", JsonValue::from("session")),
            ("node", JsonValue::UInt(index)),
            ("session", JsonValue::UInt(sample.session)),
            ("due_cycles", JsonValue::UInt(sample.due_cycles)),
            ("clock_cycles", JsonValue::UInt(sample.clock_cycles)),
            ("healthy", JsonValue::Bool(sample.healthy)),
            ("attempts", JsonValue::UInt(sample.attempts)),
            ("failures", JsonValue::UInt(sample.failures)),
            ("backoffs", JsonValue::UInt(sample.backoffs)),
        ])
    }

    /// The node record as a JSON tree, the reference for [`push_node_line`].
    fn node_tree(outcome: &NodeOutcome) -> JsonValue {
        JsonValue::object([
            ("type", JsonValue::from("node")),
            ("node", JsonValue::UInt(outcome.index)),
            ("profile", JsonValue::from(outcome.profile.kind.name())),
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
                JsonValue::array(
                    outcome
                        .quarantined
                        .iter()
                        .map(|n| JsonValue::from(n.as_str())),
                ),
            ),
            ("clock_cycles", JsonValue::UInt(outcome.clock_cycles)),
            (
                "digest",
                JsonValue::Str(format!("{:#018x}", outcome.digest)),
            ),
        ])
    }

    #[test]
    fn telemetry_lines_match_the_tree_encoder() {
        let mut out = String::new();
        for (index, healthy) in [(0, true), (u64::MAX, false)] {
            let sample = SessionSample {
                session: 3,
                due_cycles: 1_800_000,
                clock_cycles: u64::MAX,
                healthy,
                attempts: 7,
                failures: 2,
                backoffs: 1,
                done: false,
            };
            out.clear();
            push_session_line(&mut out, index, &sample);
            assert_eq!(out, session_tree(index, &sample).to_ndjson_line());
        }

        let mut outcome = NodeOutcome {
            index: 41,
            profile: NodeProfile {
                kind: ProfileKind::CorrelatedBatch,
                period_cycles: 600_000,
                phase_cycles: 17,
                fault: None,
                attack: None,
            },
            sessions: 4,
            counters: ManagerCounters {
                attempts: 9,
                passes: 6,
                transients: 1,
                tamper_forgeries: 1,
                tamper_replays: 2,
                ..ManagerCounters::default()
            },
            clock_cycles: 2_400_017,
            quarantined: Vec::new(),
            attacks_injected: 2,
            digest: 0x0a63_c3c6_f5ec_ff77,
            events: Vec::new(),
        };
        for quarantined in [
            vec![],
            vec!["Parallel Mul.".to_owned()],
            vec!["ALU".to_owned(), "quote \" back\\slash\n\t\u{1}".to_owned()],
        ] {
            outcome.quarantined = quarantined;
            out.clear();
            push_node_line(&mut out, &outcome);
            assert_eq!(out, node_tree(&outcome).to_ndjson_line());
        }
    }

    /// A sink that accepts `room` bytes and then fails every write.
    struct FailingSink {
        room: usize,
    }

    impl Write for FailingSink {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            if self.room == 0 {
                return Err(io::Error::new(io::ErrorKind::StorageFull, "sink full"));
            }
            let n = buf.len().min(self.room);
            self.room -= n;
            Ok(n)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn telemetry_error_ends_the_stream_not_the_run() {
        let characterizer = Characterizer::new(vec![Cut::alu(32), Cut::shifter(32)]);
        // Enough nodes that the stream passes the writer's flush threshold
        // mid-run, so later batches meet the recorded error.
        let config = FleetConfig {
            nodes: 200,
            workers: 2,
            ..FleetConfig::default()
        };
        let quiet = run_fleet(&config, &characterizer, None);
        let failing = run_fleet(
            &config,
            &characterizer,
            Some(Box::new(FailingSink { room: 10_000 })),
        );
        let error = failing.telemetry_error.expect("the sink's error is kept");
        assert_eq!(error.kind(), io::ErrorKind::StorageFull);
        assert!(quiet.telemetry_error.is_none());
        assert_eq!(failing.outcomes, quiet.outcomes);
        assert_eq!(failing.aggregate, quiet.aggregate);
        assert_eq!(failing.aggregate.fleet_digest, quiet.aggregate.fleet_digest);
        // The stream stopped at the failing flush: fewer lines than the
        // run produced records, and no flush completed.
        let records = failing.aggregate.sessions + failing.aggregate.nodes;
        assert!(failing.telemetry_lines > 0 && failing.telemetry_lines < records);
        assert_eq!(failing.telemetry_flushes, 0);
        let worker_lines: u64 = failing.workers.iter().map(|w| w.telemetry_lines).sum();
        assert_eq!(worker_lines, failing.telemetry_lines);
    }
}
