//! `fleet_mixed` and `fleet_healthy`: `run_fleet` on one worker over an
//! ALU + shifter + multiplier characterization, with telemetry streamed
//! to a sink. The mixed population's sessions with a mounted fault
//! dominate; the healthy population never evaluates a faulty netlist, so
//! the ISS, the manager and the store audit dominate there.

use std::io::Write;
use std::sync::Arc;

use sbst_components::ComponentClass;
use sbst_core::{Cut, JsonValue, NdjsonWriter, RoutineSpec};
use sbst_cpu::manager::{ManagedComponent, SigLocation, SignatureStore};
use sbst_cpu::MacKey;
use sbst_fleet::profile::derive_seed;
use sbst_fleet::{
    assign_profile, run_fleet, Aggregate, Characterizer, FaultTarget, FleetConfig, FleetNode,
    NodeOutcome, PopulationMix, SessionSample, SharedArtifacts, TargetSpec, NOMINAL_HZ,
};
use sbst_gates::{FaultCoverage, FaultSimConfig};

use crate::layers;
use crate::trace::Trace;
use crate::{Quality, Workload};

/// Nodes of the default-mix fleet.
pub const MIXED_NODES: u64 = 500;
/// Nodes of the all-healthy fleet, sized to a similar run time.
pub const HEALTHY_NODES: u64 = 2500;
/// Nodes of either fleet under `--smoke`.
pub const SMOKE_NODES: u64 = 50;
/// Virtual run length in seconds of the nominal clock.
pub const VIRTUAL_SECONDS: u64 = 2;
/// Fleet seeds derived from the run seed and tried for the population.
const SEED_CANDIDATES: u64 = 256;
/// Salt of the fleet-seed derivation.
const FLEET_SEED_SALT: u64 = 0x5045_5246; // "PERF"

/// The checked result of one fleet run.
#[derive(Debug)]
pub struct FleetFacts {
    outcomes: Vec<NodeOutcome>,
    aggregate: Aggregate,
    telemetry_lines: u64,
    characterizations: u64,
    worker_sessions: u64,
    nodes_finalized: u64,
}

pub struct FleetWorkload {
    healthy: bool,
    smoke: bool,
    config: FleetConfig,
    sim: FaultSimConfig,
}

impl FleetWorkload {
    fn new(seed: u64, smoke: bool, healthy: bool) -> Self {
        let nodes = match (smoke, healthy) {
            (true, _) => SMOKE_NODES,
            (false, false) => MIXED_NODES,
            (false, true) => HEALTHY_NODES,
        };
        let mix = if healthy {
            PopulationMix {
                infant_pct: 0,
                wearout_pct: 0,
                correlated_pct: 0,
                adversary_pct: 0,
                ..PopulationMix::default()
            }
        } else {
            PopulationMix::default()
        };
        let mut workload = FleetWorkload {
            healthy,
            smoke,
            config: FleetConfig {
                nodes,
                workers: 1,
                seed,
                horizon_cycles: VIRTUAL_SECONDS * NOMINAL_HZ,
                mix,
                ..FleetConfig::default()
            },
            sim: layers::serial_sim(),
        };
        workload.config.seed = workload.fleet_seed(seed);
        workload
    }

    /// The fleet seed: of the seeds derived from the run seed, the one
    /// whose population is most typical in what dominates run time — the
    /// sessions that fall inside their node's fault window, per fault
    /// target. Profiles are a pure function of `(seed, node index)`, so
    /// this costs no simulation, and it keeps run time from swinging with
    /// how many such sessions one seed happens to draw.
    fn fleet_seed(&self, seed: u64) -> u64 {
        let candidates: Vec<u64> = (0..SEED_CANDIDATES)
            .map(|lane| derive_seed(seed, FLEET_SEED_SALT, lane))
            .collect();
        let mix = &self.config.mix;
        if mix.infant_pct + mix.wearout_pct + mix.correlated_pct == 0 {
            return candidates[0];
        }
        let specs = self.target_specs();
        let counts: Vec<Vec<f64>> = candidates
            .iter()
            .map(|&candidate| self.fault_active_sessions(candidate, &specs))
            .collect();
        let mean: Vec<f64> = (0..specs.len())
            .map(|t| counts.iter().map(|c| c[t]).sum::<f64>() / counts.len() as f64)
            .collect();
        let distance =
            |c: &Vec<f64>| -> f64 { c.iter().zip(&mean).map(|(n, m)| (n - m).abs()).sum() };
        let typical = (0..counts.len())
            .min_by(|&a, &b| distance(&counts[a]).total_cmp(&distance(&counts[b])))
            .expect("at least one candidate");
        candidates[typical]
    }

    /// Sessions per fault target that fall inside their node's fault
    /// window, on each node's schedule without retry backoff.
    fn fault_active_sessions(&self, fleet_seed: u64, specs: &[TargetSpec]) -> Vec<f64> {
        let config = &self.config;
        let mut counts = vec![0.0; specs.len()];
        for index in 0..config.nodes {
            let profile = assign_profile(
                fleet_seed,
                index,
                &config.mix,
                config.base_period_cycles,
                config.horizon_cycles,
                specs,
            );
            let Some(fault) = profile.fault else {
                continue;
            };
            let active = (0..)
                .map(|k| profile.phase_cycles + k * profile.period_cycles)
                .take_while(|&due| due < config.horizon_cycles)
                .filter(|&due| fault.activity.is_active(due))
                .count();
            counts[fault.target] += active as f64;
        }
        counts
    }

    /// The fault-mountable targets of the characterized inventory.
    fn target_specs(&self) -> Vec<TargetSpec> {
        self.constructors()
            .into_iter()
            .filter_map(|build| {
                let cut = build();
                TargetSpec::for_kind(cut.kind(), cut.component.width)
            })
            .collect()
    }

    pub fn mixed(seed: u64, smoke: bool) -> Self {
        Self::new(seed, smoke, false)
    }

    pub fn healthy(seed: u64, smoke: bool) -> Self {
        Self::new(seed, smoke, true)
    }

    /// The characterized inventory. Architectural fault mounting needs
    /// full-width components, so the smoke fleet keeps 32 bits and drops
    /// the multiplier instead.
    fn constructors(&self) -> Vec<fn() -> Cut> {
        if self.smoke {
            vec![|| Cut::alu(32), || Cut::shifter(32)]
        } else {
            vec![|| Cut::alu(32), || Cut::shifter(32), || Cut::multiplier(32)]
        }
    }
}

/// The scheduler's NDJSON session record.
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

/// The scheduler's NDJSON node record.
fn node_line(outcome: &NodeOutcome) -> String {
    let quarantined = outcome
        .quarantined
        .iter()
        .map(|name| JsonValue::Str(name.clone()))
        .collect();
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
        ("quarantined", JsonValue::Array(quarantined)),
        ("clock_cycles", JsonValue::UInt(outcome.clock_cycles)),
        (
            "digest",
            JsonValue::Str(format!("{:#018x}", outcome.digest)),
        ),
    ])
    .to_ndjson_line()
}

/// A sink that counts the bytes written to it.
#[derive(Default)]
struct CountingSink {
    bytes: u64,
}

impl Write for CountingSink {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.bytes += buf.len() as u64;
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// What `Characterizer::artifacts` builds, made of the traced layer calls:
/// the recommended routine of every routine-capable CUT, its fault-free
/// run and its stuck-at grading. Also returns the transition coverage of
/// the same routines, graded outside the characterization span.
fn characterize(
    trace: &mut Trace,
    cuts: &[Cut],
    sim: FaultSimConfig,
) -> (Arc<SharedArtifacts>, Quality) {
    let mut quality = Quality::default();
    let mut stimuli = Vec::new();
    let artifacts = trace.span("fleet.characterize", |trace| {
        let mut components = Vec::new();
        let mut entries = Vec::new();
        let mut coverage = Vec::new();
        for cut in cuts {
            if !matches!(
                cut.class(),
                ComponentClass::DataVisible | ComponentClass::PartiallyVisible
            ) {
                continue;
            }
            let routine = layers::build_routine(trace, cut, &RoutineSpec::recommended(cut));
            let (stats, operands, signature) = layers::execute(trace, &routine);
            let stimulus = layers::stimulus(trace, cut, &operands);
            let stuck_at = if stimulus.is_empty() {
                FaultCoverage::new(0, cut.fault_count())
            } else {
                layers::grade_stuck_at(trace, cut, &stimulus, sim)
            };
            quality.stuck_at = quality.stuck_at + stuck_at;
            quality.words += routine.size_words() as u64;
            quality.cycles += stats.total_cycles();
            coverage.push((cut.name().to_owned(), stuck_at.percent()));
            entries.push((cut.name().to_owned(), signature));
            components.push(ManagedComponent {
                name: cut.name().to_owned(),
                program: routine.program,
                signature: SigLocation::Label(routine.sig_label),
                expected_cycles: stats.total_cycles(),
            });
            stimuli.push((cut, stimulus));
        }
        let targets = cuts
            .iter()
            .filter_map(|cut| {
                Some(FaultTarget {
                    name: cut.name().to_owned(),
                    spec: TargetSpec::for_kind(cut.kind(), cut.component.width)?,
                    component: Arc::new(cut.component.clone()),
                })
            })
            .collect();
        Arc::new(SharedArtifacts {
            components: components.into(),
            store: SignatureStore::with_key(entries, &MacKey::UNKEYED),
            store_key: MacKey::UNKEYED,
            coverage,
            targets,
        })
    });
    for (cut, stimulus) in stimuli {
        let transition = if stimulus.is_empty() {
            layers::empty_coverage(cut).1
        } else {
            layers::transition_coverage(cut, &stimulus, sim)
        };
        quality.transition = quality.transition + transition;
    }
    (artifacts, quality)
}

impl Workload for FleetWorkload {
    type State = Characterizer;
    type Output = FleetFacts;

    fn config(&self) -> Vec<(&'static str, JsonValue)> {
        let mix = &self.config.mix;
        vec![
            (
                "population",
                JsonValue::from(if self.healthy {
                    "healthy"
                } else {
                    "default mix"
                }),
            ),
            ("nodes", JsonValue::from(self.config.nodes)),
            ("fleet_workers", JsonValue::from(self.config.workers)),
            ("fleet_seed", JsonValue::from(self.config.seed)),
            ("fleet_seed_candidates", JsonValue::from(SEED_CANDIDATES)),
            (
                "horizon_cycles",
                JsonValue::from(self.config.horizon_cycles),
            ),
            (
                "base_period_cycles",
                JsonValue::from(self.config.base_period_cycles),
            ),
            (
                "mix_pct",
                JsonValue::from(format!(
                    "infant {} / wear-out {} / correlated {} / adversary {}",
                    mix.infant_pct, mix.wearout_pct, mix.correlated_pct, mix.adversary_pct
                )),
            ),
            (
                "cuts",
                JsonValue::from(if self.smoke {
                    "alu(32), shifter(32)"
                } else {
                    "alu(32), shifter(32), multiplier(32)"
                }),
            ),
            ("fault_sim_threads", JsonValue::from(1u64)),
            ("fault_sim_engine", JsonValue::from(self.sim.engine.name())),
            ("telemetry", JsonValue::from("std::io::sink")),
        ]
    }

    fn setup(&self) -> Characterizer {
        let cuts = self
            .constructors()
            .into_iter()
            .map(|build| build())
            .collect();
        let characterizer = Characterizer::with_sim(cuts, self.sim);
        characterizer.artifacts();
        characterizer
    }

    fn run(&self, characterizer: &Characterizer) -> FleetFacts {
        let run = run_fleet(&self.config, characterizer, Some(Box::new(std::io::sink())));
        FleetFacts {
            worker_sessions: run.workers.iter().map(|w| w.sessions).sum(),
            nodes_finalized: run.workers.iter().map(|w| w.nodes_finalized).sum(),
            outcomes: run.outcomes,
            aggregate: run.aggregate,
            telemetry_lines: run.telemetry_lines,
            characterizations: run.characterizations,
        }
    }

    fn run_traced(&self, trace: &mut Trace) -> (FleetFacts, Quality) {
        let cuts: Vec<Cut> = self
            .constructors()
            .into_iter()
            .map(|build| layers::cut(trace, build))
            .collect();
        let (artifacts, quality) = characterize(trace, &cuts, self.sim);
        let specs = self.target_specs();
        let config = &self.config;
        let facts = trace.span("run", |trace| {
            let mut writer = NdjsonWriter::new(CountingSink::default());
            let mut outcomes = Vec::with_capacity(config.nodes as usize);
            let mut sessions = 0u64;
            for index in 0..config.nodes {
                let profile = assign_profile(
                    config.seed,
                    index,
                    &config.mix,
                    config.base_period_cycles,
                    config.horizon_cycles,
                    &specs,
                );
                let planned = profile.fault;
                let mut node = trace.span("fleet.node_new", |_| {
                    FleetNode::new(index, profile, Arc::clone(&artifacts), config.record_events)
                });
                loop {
                    // A session is fault-active when the node mounts its
                    // planned fault and the fault manifests at the due cycle.
                    let due = node.next_due();
                    let active = planned
                        .and_then(|f| f.activity.rebase(due))
                        .is_some_and(|local| local.is_active(0));
                    let (span, attempts) = if active {
                        ("fleet.session.fault_active", "fleet.attempts.fault_active")
                    } else {
                        ("fleet.session.clean", "fleet.attempts.clean")
                    };
                    let sample = trace.span(span, |_| node.run_due_session(config.horizon_cycles));
                    trace.add(attempts, sample.attempts as f64);
                    sessions += 1;
                    trace
                        .span("telemetry.encode", |_| {
                            writer.write_batch(&session_line(index, &sample), 1)
                        })
                        .expect("counting sink accepts writes");
                    if sample.done {
                        break;
                    }
                }
                let outcome = node.finish();
                trace
                    .span("telemetry.encode", |_| {
                        writer.write_batch(&node_line(&outcome), 1)
                    })
                    .expect("counting sink accepts writes");
                outcomes.push(outcome);
            }
            writer.flush().expect("counting sink flushes");
            let aggregate = trace.span("fleet.aggregate", |_| {
                Aggregate::build(&outcomes, &artifacts, config.coverage_slo_percent)
            });
            let lines = writer.lines();
            trace.add("telemetry.lines", lines as f64);
            let sink = writer.finish().expect("counting sink flushes");
            trace.add("telemetry.bytes", sink.bytes as f64);
            FleetFacts {
                outcomes,
                aggregate,
                telemetry_lines: lines,
                characterizations: 1,
                worker_sessions: sessions,
                nodes_finalized: config.nodes,
            }
        });
        let totals = &facts.aggregate;
        for (name, value) in [
            ("fleet.attempts", totals.attempts),
            ("fleet.mismatches", totals.mismatches),
            ("fleet.watchdog_fires", totals.watchdog_fires),
            ("fleet.backoffs", totals.backoffs),
            ("fleet.quarantines", totals.quarantines),
        ] {
            trace.add(name, value as f64);
        }
        (facts, quality)
    }

    fn operations(&self, output: &FleetFacts) -> u64 {
        output.aggregate.sessions
    }

    fn failures(&self, reference: &FleetFacts, output: &FleetFacts) -> u64 {
        let agg = &output.aggregate;
        let invariants_hold = output.characterizations == 1
            && output.worker_sessions == agg.sessions
            && output.nodes_finalized == self.config.nodes
            && agg.nodes == self.config.nodes
            && agg.tamper_false_alarms == 0
            && agg.tampers_detected == agg.attacks_injected
            && output.telemetry_lines == reference.telemetry_lines
            && *agg == reference.aggregate
            && output.outcomes.len() == reference.outcomes.len();
        if !invariants_hold {
            return agg.sessions.max(1);
        }
        reference
            .outcomes
            .iter()
            .zip(&output.outcomes)
            .filter(|(a, b)| a != b)
            .map(|(_, b)| b.sessions)
            .sum()
    }

    fn work(&self, output: &FleetFacts) -> (f64, &'static str) {
        (output.aggregate.sessions as f64, "sessions")
    }
}
