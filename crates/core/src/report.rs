//! Table-1 report generation.
//!
//! Reproduces the paper's Table 1: per component — gate count,
//! classification, code style, program size (words), CPU clock cycles,
//! data memory references, single-stuck-at fault coverage, and the share
//! of the overall fault universe left uncovered ("Miss. FC").

use std::fmt;
use std::time::Duration;

use sbst_components::ComponentClass;
use sbst_cpu::ExecStats;
use sbst_gates::{FaultCoverage, FaultModel, FaultSimConfig, SimEngine, SimStats};
use sbst_tpg::{AtpgConfig, AtpgTelemetry};

use crate::cut::Cut;
use crate::grade::{
    characterize, grade_stimulus, grade_trace_models, CutRecord, GradeError, TraceGrade,
};
use crate::json::JsonValue;
use crate::program::SelfTestProgram;
use crate::routine::{BuildRoutineError, RoutineSpec};

/// One row of Table 1.
#[derive(Debug, Clone)]
pub struct Table1Row {
    /// Component name.
    pub name: String,
    /// NAND2-equivalent gate count.
    pub gates: u32,
    /// Classification string (e.g. `"D-VC"` or `"73% D-VC"`).
    pub classification: String,
    /// Code style, `None` for side-effect-only components.
    pub code_style: Option<String>,
    /// Routine size in words.
    pub size_words: Option<usize>,
    /// Routine CPU clock cycles.
    pub cpu_cycles: Option<u64>,
    /// Routine data memory references.
    pub data_refs: Option<u64>,
    /// Per-component single-stuck-at fault coverage.
    pub coverage: FaultCoverage,
    /// Per-component gross transition-delay fault coverage of the same
    /// stimulus (two-pattern detection).
    pub transition_coverage: FaultCoverage,
    /// Whether the coverage came from a dedicated routine (`true`) or from
    /// side-effect grading against the full program trace (`false`).
    pub dedicated_routine: bool,
    /// Wall-clock time spent fault-simulating this component.
    pub sim_wall_time: Duration,
}

impl Table1Row {
    /// The "Miss. FC (%)" column: this component's undetected faults as a
    /// share of the whole processor's fault universe.
    pub fn missing_fc(&self, universe_total: usize) -> f64 {
        self.coverage.missing_percent_of(universe_total)
    }

    /// Coverage under `model` (both models are always graded).
    pub fn coverage_for(&self, model: FaultModel) -> FaultCoverage {
        match model {
            FaultModel::StuckAt => self.coverage,
            FaultModel::TransitionDelay => self.transition_coverage,
        }
    }
}

/// Error from [`Table1::generate`].
#[derive(Debug)]
pub enum Table1Error {
    /// A routine failed to build.
    Build(BuildRoutineError),
    /// A routine failed to run or grade.
    Grade(GradeError),
}

impl fmt::Display for Table1Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Table1Error::Build(e) => write!(f, "building a routine failed: {e}"),
            Table1Error::Grade(e) => write!(f, "grading failed: {e}"),
        }
    }
}

impl std::error::Error for Table1Error {}

impl From<BuildRoutineError> for Table1Error {
    fn from(e: BuildRoutineError) -> Self {
        Table1Error::Build(e)
    }
}

impl From<GradeError> for Table1Error {
    fn from(e: GradeError) -> Self {
        Table1Error::Grade(e)
    }
}

/// The reproduced Table 1.
#[derive(Debug, Clone)]
pub struct Table1 {
    /// Per-component rows.
    pub rows: Vec<Table1Row>,
    /// Total gate count.
    pub total_gates: u32,
    /// Total program size in words (sum of routine rows, shared MISR
    /// counted once via the combined program).
    pub total_size_words: usize,
    /// Total CPU cycles (combined program run).
    pub total_cycles: u64,
    /// Total data references (combined program run).
    pub total_data_refs: u64,
    /// Statistics of the combined program's fault-free run: the inputs of
    /// the Section 4 execution-time estimate.
    pub program_stats: ExecStats,
    /// Overall single-stuck-at coverage across every component's fault
    /// universe.
    pub overall_coverage: FaultCoverage,
    /// Overall gross transition-delay coverage across every component's
    /// transition-fault universe.
    pub overall_transition_coverage: FaultCoverage,
    /// The *headline* fault model: which model's numbers the rendered FC
    /// column reports (both models are always graded and serialized).
    pub fault_model: FaultModel,
    /// Share of processor area in D-VC components, in percent (the paper
    /// reports 92 %).
    pub dvc_area_percent: f64,
    /// Largest worker-thread count the fault simulator used while grading.
    pub sim_threads: usize,
    /// Total wall-clock time spent in fault simulation across all rows.
    pub grading_wall_time: Duration,
    /// Simulation engine that graded every row.
    pub engine: SimEngine,
    /// Simulation-volume instrumentation of every row's grading runs, both
    /// models, summed across rows; each row's tape shape counts once
    /// ([`TraceGrade::sim_stats`]).
    pub sim_stats: SimStats,
    /// Aggregated constrained-ATPG instrumentation from every routine
    /// build (runs, search stats, PODEM wall time, per-worker accounting).
    pub atpg: AtpgTelemetry,
}

impl Table1 {
    /// Generates the table for a component inventory.
    ///
    /// Components that receive a routine (the D-VCs other than the branch
    /// comparator, and the PVC) are built and graded individually; the
    /// remaining components (the comparator, A-VC/M-VC/HC) are graded as
    /// side effects of the combined program's trace, as the paper
    /// prescribes.
    ///
    /// # Errors
    ///
    /// Returns [`Table1Error`] if any routine fails to build, run or grade.
    pub fn generate(cuts: &[Cut]) -> Result<Table1, Table1Error> {
        Table1::generate_with(cuts, FaultSimConfig::default())
    }

    /// [`Table1::generate`] with an explicit fault-simulator configuration.
    ///
    /// Every coverage number is bit-identical for every thread count; the
    /// configuration only changes [`Table1::grading_wall_time`] (and the
    /// recorded [`Table1::sim_threads`]).
    ///
    /// # Errors
    ///
    /// Returns [`Table1Error`] if any routine fails to build, run or grade.
    pub fn generate_with(cuts: &[Cut], sim: FaultSimConfig) -> Result<Table1, Table1Error> {
        Table1::generate_with_model(cuts, sim, AtpgConfig::default(), FaultModel::default())
    }

    /// [`Table1::generate_with`] with an explicit ATPG configuration for
    /// the deterministic-style routine builds (PODEM thread count, random
    /// phase size, grading engine) and an explicit *headline* fault
    /// model. Patterns, outcomes and coverage are bit-identical for every
    /// `atpg.podem_threads` setting. Every row is always graded under
    /// **both** the single-stuck-at and the gross transition-delay model
    /// (the per-model columns land in the JSON report unconditionally);
    /// `model` only selects which model's numbers the rendered FC column
    /// and [`Table1::fault_model`] report.
    ///
    /// # Errors
    ///
    /// Returns [`Table1Error`] if any routine fails to build, run or grade.
    pub fn generate_with_model(
        cuts: &[Cut],
        sim: FaultSimConfig,
        atpg: AtpgConfig,
        model: FaultModel,
    ) -> Result<Table1, Table1Error> {
        Table1::assemble(cuts, &dedicated_records(cuts, sim, atpg)?, sim, model)
    }

    /// [`Table1::generate_with_model`] over the dedicated rows' records,
    /// parallel to `cuts` (`None` marks a side-effect row). Those CUTs'
    /// recommended routines, in inventory order, make up the combined
    /// program behind the Total row and the side-effect rows.
    pub(crate) fn assemble(
        cuts: &[Cut],
        dedicated: &[Option<CutRecord<TraceGrade>>],
        sim: FaultSimConfig,
        model: FaultModel,
    ) -> Result<Table1, Table1Error> {
        let mut rows = Vec::with_capacity(cuts.len());
        let mut atpg_telemetry = AtpgTelemetry::default();
        let mut sim_threads = 1usize;
        let mut grading_wall_time = Duration::ZERO;
        let mut sim_stats = SimStats::default();
        let routine_cuts: Vec<Cut> = cuts
            .iter()
            .zip(dedicated)
            .filter_map(|(cut, record)| record.as_ref().map(|_| cut.clone()))
            .collect();
        let combined = SelfTestProgram::build(&routine_cuts)?;
        let combined_run = combined.run()?;

        for (cut, record) in cuts.iter().zip(dedicated) {
            // A dedicated row's style, size and fault-free run; `None`
            // marks a side-effect row, graded from the combined trace.
            let (routine, grade) = match record {
                Some(record) => {
                    atpg_telemetry.merge(&record.atpg);
                    let words = record.routine.size_words();
                    let routine = (record.routine.style.code(), words, record.stats);
                    (Some(routine), record.grade.clone())
                }
                None => (None, grade_trace_models(cut, &combined_run.trace, sim)),
            };
            sim_threads = sim_threads.max(grade.sim_threads);
            grading_wall_time += grade.sim_wall_time;
            sim_stats.accumulate(&grade.sim_stats);
            rows.push(Table1Row {
                name: cut.name().to_owned(),
                gates: cut.gate_equivalents(),
                classification: classification_string(cut),
                code_style: routine.map(|(style, _, _)| style.to_owned()),
                size_words: routine.map(|(_, words, _)| words),
                cpu_cycles: routine.map(|(_, _, stats)| stats.total_cycles()),
                data_refs: routine.map(|(_, _, stats)| stats.data_refs()),
                coverage: grade.coverage,
                transition_coverage: grade.transition_coverage,
                dedicated_routine: routine.is_some(),
                sim_wall_time: grade.sim_wall_time,
            });
        }

        let total_gates = rows.iter().map(|r| r.gates).sum();
        let overall_coverage: FaultCoverage = rows.iter().map(|r| r.coverage).sum();
        let overall_transition_coverage: FaultCoverage =
            rows.iter().map(|r| r.transition_coverage).sum();
        let dvc_gates: u32 = cuts
            .iter()
            .flat_map(|c| c.component.area_split.iter())
            .filter(|(class, _)| *class == ComponentClass::DataVisible)
            .map(|(_, a)| a)
            .sum();
        Ok(Table1 {
            rows,
            total_gates,
            total_size_words: combined.size_words(),
            total_cycles: combined_run.stats.total_cycles(),
            total_data_refs: combined_run.stats.data_refs(),
            program_stats: combined_run.stats,
            overall_coverage,
            overall_transition_coverage,
            fault_model: model,
            dvc_area_percent: if total_gates == 0 {
                0.0
            } else {
                dvc_gates as f64 / total_gates as f64 * 100.0
            },
            sim_threads,
            grading_wall_time,
            engine: sim.engine,
            sim_stats,
            atpg: atpg_telemetry,
        })
    }

    /// Overall coverage under `model` (both models are always graded).
    pub fn overall_coverage_for(&self, model: FaultModel) -> FaultCoverage {
        match model {
            FaultModel::StuckAt => self.overall_coverage,
            FaultModel::TransitionDelay => self.overall_transition_coverage,
        }
    }

    /// Fraction of available fault lanes occupied across all rows, in
    /// `0.0..=1.0` (0.0 when nothing was graded).
    pub fn lane_occupancy(&self) -> f64 {
        self.sim_stats.lane_occupancy()
    }
}

impl Table1 {
    /// Serializes the table through the workspace JSON writer
    /// ([`crate::json`]): one object per row with the Table-1 columns plus
    /// per-component fault-sim wall time, a `totals` object, and a
    /// `fault_sim` object with the thread count and aggregate grading time.
    pub fn to_json(&self) -> JsonValue {
        let universe = self.overall_coverage_for(self.fault_model).total;
        let sim = &self.sim_stats;
        let rows = self.rows.iter().map(|row| {
            let primary = row.coverage_for(self.fault_model);
            JsonValue::object([
                ("name", JsonValue::from(row.name.as_str())),
                ("gates", JsonValue::from(row.gates)),
                (
                    "classification",
                    JsonValue::from(row.classification.as_str()),
                ),
                ("code_style", JsonValue::from(row.code_style.as_deref())),
                ("size_words", JsonValue::from(row.size_words)),
                ("cpu_cycles", JsonValue::from(row.cpu_cycles)),
                ("data_refs", JsonValue::from(row.data_refs)),
                ("fault_count", JsonValue::from(primary.total)),
                ("faults_detected", JsonValue::from(primary.detected)),
                (
                    "fault_coverage_percent",
                    JsonValue::Float(primary.percent()),
                ),
                ("stuck_at_fault_count", JsonValue::from(row.coverage.total)),
                ("stuck_at_detected", JsonValue::from(row.coverage.detected)),
                (
                    "stuck_at_coverage_percent",
                    JsonValue::Float(row.coverage.percent()),
                ),
                (
                    "transition_fault_count",
                    JsonValue::from(row.transition_coverage.total),
                ),
                (
                    "transition_detected",
                    JsonValue::from(row.transition_coverage.detected),
                ),
                (
                    "transition_coverage_percent",
                    JsonValue::Float(row.transition_coverage.percent()),
                ),
                (
                    "missing_fc_percent",
                    JsonValue::Float(primary.missing_percent_of(universe)),
                ),
                ("dedicated_routine", JsonValue::from(row.dedicated_routine)),
                (
                    "sim_wall_seconds",
                    JsonValue::Float(row.sim_wall_time.as_secs_f64()),
                ),
            ])
        });
        JsonValue::object([
            ("fault_model", JsonValue::from(self.fault_model.name())),
            ("rows", JsonValue::array(rows)),
            (
                "totals",
                JsonValue::object([
                    ("gates", JsonValue::from(self.total_gates)),
                    ("size_words", JsonValue::from(self.total_size_words)),
                    ("cpu_cycles", JsonValue::from(self.total_cycles)),
                    ("data_refs", JsonValue::from(self.total_data_refs)),
                    (
                        "fault_coverage_percent",
                        JsonValue::Float(self.overall_coverage_for(self.fault_model).percent()),
                    ),
                    (
                        "stuck_at_coverage_percent",
                        JsonValue::Float(self.overall_coverage.percent()),
                    ),
                    (
                        "transition_coverage_percent",
                        JsonValue::Float(self.overall_transition_coverage.percent()),
                    ),
                    ("dvc_area_percent", JsonValue::Float(self.dvc_area_percent)),
                ]),
            ),
            (
                "fault_sim",
                JsonValue::object([
                    ("threads", JsonValue::from(self.sim_threads)),
                    (
                        "wall_seconds",
                        JsonValue::Float(self.grading_wall_time.as_secs_f64()),
                    ),
                    ("engine", JsonValue::from(self.engine.name())),
                    ("events_simulated", JsonValue::from(sim.events_simulated)),
                    ("events_full_eval", JsonValue::from(sim.events_full_eval)),
                    ("cycles_simulated", JsonValue::from(sim.cycles_simulated)),
                    (
                        "lane_words_simulated",
                        JsonValue::from(sim.lane_words_simulated),
                    ),
                    ("live_lane_cycles", JsonValue::from(sim.live_lane_cycles)),
                    ("lane_slots_filled", JsonValue::from(sim.lane_slots_filled)),
                    ("lane_slots_total", JsonValue::from(sim.lane_slots_total)),
                    ("lane_occupancy", JsonValue::Float(self.lane_occupancy())),
                ]),
            ),
            (
                "atpg",
                JsonValue::object([
                    ("runs", JsonValue::from(self.atpg.runs)),
                    ("podem_threads", JsonValue::from(self.atpg.podem_threads)),
                    (
                        "podem_wall_seconds",
                        JsonValue::Float(self.atpg.podem_wall_time.as_secs_f64()),
                    ),
                    (
                        "random_patterns_tried",
                        JsonValue::from(self.atpg.stats.random_patterns_tried),
                    ),
                    (
                        "random_patterns_kept",
                        JsonValue::from(self.atpg.stats.random_patterns_kept),
                    ),
                    (
                        "detected_by_random",
                        JsonValue::from(self.atpg.stats.detected_by_random),
                    ),
                    (
                        "podem_targets",
                        JsonValue::from(self.atpg.stats.podem_targets),
                    ),
                    ("podem_tests", JsonValue::from(self.atpg.stats.podem_tests)),
                    (
                        "podem_backtracks",
                        JsonValue::from(self.atpg.stats.podem_backtracks),
                    ),
                    ("redundant", JsonValue::from(self.atpg.stats.redundant)),
                    ("aborted", JsonValue::from(self.atpg.stats.aborted)),
                    (
                        "podem_discarded",
                        JsonValue::from(self.atpg.stats.podem_discarded),
                    ),
                    (
                        "drop_sim_tape_compilations",
                        JsonValue::from(self.atpg.drop_sim_tape_compilations),
                    ),
                    (
                        "per_thread",
                        JsonValue::array(self.atpg.thread_stats.iter().map(|t| {
                            JsonValue::object([
                                ("searches", JsonValue::from(t.searches)),
                                ("backtracks", JsonValue::from(t.backtracks)),
                                ("busy_seconds", JsonValue::Float(t.busy.as_secs_f64())),
                            ])
                        })),
                    ),
                ]),
            ),
        ])
    }
}

/// Serializes an on-line test manager's full state — counters,
/// per-component health/classification snapshots, the ordered event log
/// and the virtual clock — into the `manager` object of a schema-version-3
/// [`crate::metrics::RunReport`].
pub fn manager_to_json(manager: &sbst_cpu::manager::OnlineTestManager) -> JsonValue {
    use sbst_cpu::manager::{ManagerEvent, TamperVerdict, Verdict};

    let verdict_json = |v: &Verdict| -> JsonValue {
        let mut fields = vec![("verdict", JsonValue::from(v.name()))];
        match v {
            Verdict::Mismatch { golden, observed } => {
                fields.push(("golden", JsonValue::from(*golden)));
                fields.push(("observed", JsonValue::from(*observed)));
            }
            Verdict::Hung { budget_cycles } => {
                fields.push(("budget_cycles", JsonValue::from(*budget_cycles)));
            }
            Verdict::Pass | Verdict::Crashed => {}
        }
        JsonValue::object(fields)
    };

    let events = manager.events().iter().map(|event| match event {
        ManagerEvent::SessionStarted { session } => JsonValue::object([
            ("type", JsonValue::from("session_started")),
            ("session", JsonValue::from(*session)),
        ]),
        ManagerEvent::StoreCorrupted { verdict } => {
            let mut fields = vec![
                ("type", JsonValue::from("store_corrupted")),
                ("kind", JsonValue::from(verdict.name())),
            ];
            if let TamperVerdict::Replayed {
                stored_epoch,
                expected_epoch,
            } = verdict
            {
                fields.push(("stored_epoch", JsonValue::from(*stored_epoch)));
                fields.push(("expected_epoch", JsonValue::from(*expected_epoch)));
            }
            JsonValue::object(fields)
        }
        ManagerEvent::StoreRecaptured => {
            JsonValue::object([("type", JsonValue::from("store_recaptured"))])
        }
        ManagerEvent::RecaptureRejected { component } => JsonValue::object([
            ("type", JsonValue::from("recapture_rejected")),
            ("component", JsonValue::from(component.as_str())),
        ]),
        ManagerEvent::ReplicaCompromised => {
            JsonValue::object([("type", JsonValue::from("replica_compromised"))])
        }
        ManagerEvent::StoreEntrySuspended { component } => JsonValue::object([
            ("type", JsonValue::from("store_entry_suspended")),
            ("component", JsonValue::from(component.as_str())),
        ]),
        ManagerEvent::StoreEntryHealed { component } => JsonValue::object([
            ("type", JsonValue::from("store_entry_healed")),
            ("component", JsonValue::from(component.as_str())),
        ]),
        ManagerEvent::Halted => JsonValue::object([("type", JsonValue::from("halted"))]),
        ManagerEvent::Attempt {
            component,
            attempt,
            verdict,
        } => JsonValue::object([
            ("type", JsonValue::from("attempt")),
            ("component", JsonValue::from(component.as_str())),
            ("attempt", JsonValue::from(*attempt)),
            ("outcome", verdict_json(verdict)),
        ]),
        ManagerEvent::WatchdogFired {
            component,
            budget_cycles,
        } => JsonValue::object([
            ("type", JsonValue::from("watchdog_fired")),
            ("component", JsonValue::from(component.as_str())),
            ("budget_cycles", JsonValue::from(*budget_cycles)),
        ]),
        ManagerEvent::BackoffScheduled {
            component,
            retry,
            wait_cycles,
        } => JsonValue::object([
            ("type", JsonValue::from("backoff_scheduled")),
            ("component", JsonValue::from(component.as_str())),
            ("retry", JsonValue::from(*retry)),
            ("wait_cycles", JsonValue::from(*wait_cycles)),
        ]),
        ManagerEvent::Classified {
            component,
            class,
            failures,
            attempts,
        } => JsonValue::object([
            ("type", JsonValue::from("classified")),
            ("component", JsonValue::from(component.as_str())),
            ("class", JsonValue::from(class.name())),
            ("failures", JsonValue::from(*failures)),
            ("attempts", JsonValue::from(*attempts)),
        ]),
        ManagerEvent::Quarantined { component } => JsonValue::object([
            ("type", JsonValue::from("quarantined")),
            ("component", JsonValue::from(component.as_str())),
        ]),
        ManagerEvent::Preempted { resume_at } => JsonValue::object([
            ("type", JsonValue::from("preempted")),
            ("resume_at", JsonValue::from(*resume_at as u64)),
        ]),
        ManagerEvent::Resumed { from } => JsonValue::object([
            ("type", JsonValue::from("resumed")),
            ("from", JsonValue::from(*from as u64)),
        ]),
        ManagerEvent::SessionCompleted { session, healthy } => JsonValue::object([
            ("type", JsonValue::from("session_completed")),
            ("session", JsonValue::from(*session)),
            ("healthy", JsonValue::from(*healthy)),
        ]),
    });

    let components = manager.component_statuses().into_iter().map(|s| {
        JsonValue::object([
            ("name", JsonValue::from(s.name.as_str())),
            ("health", JsonValue::from(s.health.name())),
            ("class", JsonValue::from(s.class.map(|c| c.name()))),
            (
                "last_verdict",
                match &s.last_verdict {
                    Some(v) => verdict_json(v),
                    None => JsonValue::Null,
                },
            ),
            ("attempts", JsonValue::from(s.attempts)),
            ("passes", JsonValue::from(s.passes)),
            ("store_trusted", JsonValue::from(s.store_trusted)),
        ])
    });

    let c = manager.counters();
    JsonValue::object([
        (
            "counters",
            JsonValue::object([
                ("attempts", JsonValue::from(c.attempts)),
                ("passes", JsonValue::from(c.passes)),
                ("mismatches", JsonValue::from(c.mismatches)),
                ("watchdog_fires", JsonValue::from(c.watchdog_fires)),
                ("crashes", JsonValue::from(c.crashes)),
                ("backoffs", JsonValue::from(c.backoffs)),
                ("quarantines", JsonValue::from(c.quarantines)),
                ("transients", JsonValue::from(c.transients)),
                ("store_corruptions", JsonValue::from(c.store_corruptions)),
                ("tamper_forgeries", JsonValue::from(c.tamper_forgeries)),
                ("tamper_replays", JsonValue::from(c.tamper_replays)),
                ("store_recaptures", JsonValue::from(c.store_recaptures)),
                ("recapture_rejects", JsonValue::from(c.recapture_rejects)),
                (
                    "replica_compromises",
                    JsonValue::from(c.replica_compromises),
                ),
                ("store_suspensions", JsonValue::from(c.store_suspensions)),
                ("store_heals", JsonValue::from(c.store_heals)),
                ("preemptions", JsonValue::from(c.preemptions)),
                ("sessions_completed", JsonValue::from(c.sessions_completed)),
            ]),
        ),
        ("components", JsonValue::array(components)),
        (
            "quarantined",
            JsonValue::array(
                manager
                    .quarantined()
                    .iter()
                    .map(|n| JsonValue::from(n.as_str())),
            ),
        ),
        ("events", JsonValue::array(events)),
        ("clock_cycles", JsonValue::from(manager.clock_cycles())),
        ("halted", JsonValue::from(manager.is_halted())),
    ])
}

/// The records of the CUTs that get a dedicated routine, parallel to
/// `cuts` (`None` for the side-effect rows): recommended routines built
/// under `atpg`, graded under both fault models.
pub(crate) fn dedicated_records(
    cuts: &[Cut],
    sim: FaultSimConfig,
    atpg: AtpgConfig,
) -> Result<Vec<Option<CutRecord<TraceGrade>>>, Table1Error> {
    let record = |cut: &Cut| -> Result<_, Table1Error> {
        let built = RoutineSpec {
            atpg,
            ..RoutineSpec::recommended(cut)
        }
        .build_traced(cut)?;
        Ok(characterize(cut, built, |s| grade_stimulus(cut, s, sim))?)
    };
    let records = cuts
        .iter()
        .map(|cut| cut.gets_routine().then(|| record(cut)));
    records.map(Option::transpose).collect()
}

fn classification_string(cut: &Cut) -> String {
    if cut.component.area_split.len() <= 1 {
        cut.class().code().to_owned()
    } else {
        let total: u32 = cut.component.area_split.iter().map(|(_, a)| a).sum();
        cut.component
            .area_split
            .iter()
            .map(|(class, area)| {
                let pct = *area as f64 / total as f64 * 100.0;
                if pct > 0.0 && pct < 1.0 {
                    format!("<1% {}", class.code())
                } else {
                    format!("{pct:.0}% {}", class.code())
                }
            })
            .collect::<Vec<_>>()
            .join(" / ")
    }
}

impl fmt::Display for Table1 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{:<18} {:>8}  {:<22} {:<13} {:>7} {:>9} {:>6} {:>8} {:>9}",
            "Component",
            "Gates",
            "Classification",
            "Code Style",
            "Words",
            "Cycles",
            "Refs",
            "FC (%)",
            "Miss. FC"
        )?;
        let universe = self.overall_coverage_for(self.fault_model).total;
        for row in &self.rows {
            let primary = row.coverage_for(self.fault_model);
            writeln!(
                f,
                "{:<18} {:>8}  {:<22} {:<13} {:>7} {:>9} {:>6} {:>8.2} {:>9.2}",
                row.name,
                row.gates,
                row.classification,
                row.code_style.as_deref().unwrap_or("-"),
                row.size_words.map_or("-".to_owned(), |v| v.to_string()),
                row.cpu_cycles.map_or("-".to_owned(), |v| v.to_string()),
                row.data_refs.map_or("-".to_owned(), |v| v.to_string()),
                primary.percent(),
                primary.missing_percent_of(universe),
            )?;
        }
        writeln!(
            f,
            "{:<18} {:>8}  {:<22} {:<13} {:>7} {:>9} {:>6} {:>8.2}",
            "Total",
            self.total_gates,
            format!("{:.0}% D-VC", self.dvc_area_percent),
            "",
            self.total_size_words,
            self.total_cycles,
            self.total_data_refs,
            self.overall_coverage_for(self.fault_model).percent(),
        )?;
        writeln!(
            f,
            "FC column: {} model · stuck-at {:.2}% · transition {:.2}%",
            self.fault_model.name(),
            self.overall_coverage.percent(),
            self.overall_transition_coverage.percent(),
        )?;
        writeln!(
            f,
            "Fault grading: {} thread{} · {:.3} s wall · {} engine",
            self.sim_threads,
            if self.sim_threads == 1 { "" } else { "s" },
            self.grading_wall_time.as_secs_f64(),
            self.engine.name(),
        )?;
        if self.sim_stats.lane_slots_total > 0 {
            writeln!(
                f,
                "Fault lanes: {:.1}% occupied by the initial packing",
                self.lane_occupancy() * 100.0,
            )?;
        }
        if self.atpg.runs > 0 {
            writeln!(
                f,
                "Constrained ATPG: {} run{} · {} PODEM thread{} · {:.3} s PODEM wall · {} targets ({} discarded speculative)",
                self.atpg.runs,
                if self.atpg.runs == 1 { "" } else { "s" },
                self.atpg.podem_threads,
                if self.atpg.podem_threads == 1 { "" } else { "s" },
                self.atpg.podem_wall_time.as_secs_f64(),
                self.atpg.stats.podem_targets,
                self.atpg.stats.podem_discarded,
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_table_generates() {
        // A reduced inventory keeps the test fast while exercising every
        // row type: dedicated-routine D-VCs, a PVC, and side-effect rows.
        let cuts = Cut::smoke_inventory();
        let table = Table1::generate(&cuts).unwrap();
        assert_eq!(table.rows.len(), 5);
        // Routine rows carry stats; side-effect rows don't.
        let alu = &table.rows[0];
        assert!(alu.dedicated_routine);
        assert!(alu.size_words.is_some());
        assert!(alu.coverage.percent() > 90.0);
        let pipe = table.rows.iter().find(|r| r.name == "Pipeline").unwrap();
        assert!(!pipe.dedicated_routine);
        assert!(pipe.code_style.is_none());
        // Rendering works and contains the header.
        let text = table.to_string();
        assert!(text.contains("Component"));
        assert!(text.contains("Total"));
    }

    #[test]
    fn dedicated_comparator_is_graded_from_the_branch_stream() {
        // The comparator is a D-VC without a routine of its own: Table 1
        // grades it as a side effect, and the schedule leaves it out.
        let cuts = [Cut::alu(8), Cut::comparator(8)];
        let table = Table1::generate(&cuts).unwrap();
        let cmp = &table.rows[1];
        assert_eq!(cmp.name, cuts[1].name());
        assert!(!cmp.dedicated_routine);
        assert!(cmp.code_style.is_none());
        assert!(cmp.coverage.detected > 0, "comparator {}", cmp.coverage);

        let schedule = crate::plan::build_managed_schedule(&cuts).unwrap();
        let scheduled: Vec<&str> = schedule.components.iter().map(|c| &*c.name).collect();
        assert_eq!(scheduled, ["ALU"]);
    }

    #[test]
    fn rows_program_and_schedule_share_routine_words() {
        // Under default configs every routine CUT runs the same routine in
        // its Table 1 row, in the combined program and in the managed
        // schedule: the schedule's program is the one-CUT combined
        // program, and the combined program is the rows' routines around
        // one shared tail (the `break` and the MISR subroutine).
        let cuts = Cut::small_inventory();
        let table = Table1::generate(&cuts).unwrap();
        let schedule = crate::plan::build_managed_schedule(&cuts).unwrap();
        let shared = SelfTestProgram::build(&[]).unwrap().size_words();
        let mut scheduled = schedule.components.iter();
        let mut combined_words = shared;
        for (cut, row) in cuts.iter().zip(&table.rows) {
            let Some(words) = row.size_words else {
                continue;
            };
            let component = scheduled.next().unwrap();
            assert_eq!(component.name, cut.name());
            let alone = SelfTestProgram::build(std::slice::from_ref(cut)).unwrap();
            assert_eq!(component.program.text, alone.program.text, "{}", cut.name());
            assert_eq!(component.program.data, alone.program.data, "{}", cut.name());
            assert_eq!(alone.size_words(), words, "{}", cut.name());
            combined_words += words - shared;
        }
        assert!(scheduled.next().is_none());
        assert_eq!(table.total_size_words, combined_words);
    }

    #[test]
    fn pinned_thread_counts_reproduce_identical_coverage() {
        let cuts = vec![Cut::alu(8), Cut::pipeline(8)];
        let serial = Table1::generate_with(&cuts, FaultSimConfig::with_threads(1)).unwrap();
        let parallel = Table1::generate_with(&cuts, FaultSimConfig::with_threads(4)).unwrap();
        for (a, b) in serial.rows.iter().zip(&parallel.rows) {
            assert_eq!(a.coverage, b.coverage, "{}", a.name);
        }
        assert_eq!(serial.overall_coverage, parallel.overall_coverage);
        assert!(serial.to_string().contains("Fault grading: 1 thread"));
    }

    #[test]
    fn engines_reproduce_identical_coverage() {
        let cuts = vec![Cut::alu(8), Cut::pipeline(8)];
        let full =
            Table1::generate_with(&cuts, FaultSimConfig::with_engine(SimEngine::FullEval)).unwrap();
        let compiled = Table1::generate(&cuts).unwrap();
        for (a, b) in full.rows.iter().zip(&compiled.rows) {
            assert_eq!(a.coverage, b.coverage, "{}", a.name);
        }
        assert_eq!(full.overall_coverage, compiled.overall_coverage);
        assert!(compiled.to_string().contains("compiled engine"));
        assert!(full.to_string().contains("full-eval engine"));
    }

    #[test]
    fn json_serialization_carries_table1_fields() {
        let cuts = vec![Cut::alu(8), Cut::pipeline(8)];
        let table = Table1::generate(&cuts).unwrap();
        let v = table.to_json();
        let rows = v.get("rows").unwrap().as_array().unwrap();
        assert_eq!(rows.len(), 2);
        let alu = &rows[0];
        assert_eq!(alu.get("name").unwrap().as_str(), Some("ALU"));
        assert!(alu.get("size_words").unwrap().as_u64().is_some());
        assert!(alu.get("fault_coverage_percent").unwrap().as_f64().unwrap() > 90.0);
        assert!(alu.get("sim_wall_seconds").unwrap().as_f64().is_some());
        // Side-effect rows serialize their absent columns as null.
        let pipe = &rows[1];
        assert_eq!(pipe.get("code_style"), Some(&crate::json::JsonValue::Null));
        let totals = v.get("totals").unwrap();
        assert_eq!(
            totals.get("cpu_cycles").unwrap().as_u64(),
            Some(table.total_cycles)
        );
        let sim = v.get("fault_sim").unwrap();
        assert_eq!(
            sim.get("threads").unwrap().as_u64(),
            Some(table.sim_threads as u64)
        );
        assert_eq!(
            sim.get("engine").unwrap().as_str(),
            Some(table.engine.name())
        );
        assert_eq!(
            sim.get("events_simulated").unwrap().as_u64(),
            Some(table.sim_stats.events_simulated)
        );
        assert_eq!(
            sim.get("events_full_eval").unwrap().as_u64(),
            Some(table.sim_stats.events_full_eval)
        );
        assert_eq!(
            sim.get("cycles_simulated").unwrap().as_u64(),
            Some(table.sim_stats.cycles_simulated)
        );
        assert_eq!(
            sim.get("live_lane_cycles").unwrap().as_u64(),
            Some(table.sim_stats.live_lane_cycles)
        );
        assert_eq!(
            sim.get("lane_words_simulated").unwrap().as_u64(),
            Some(table.sim_stats.lane_words_simulated)
        );
        // The document round-trips through the parser.
        let text = v.to_json_pretty();
        assert_eq!(crate::json::parse(&text).unwrap(), v);
    }

    #[test]
    fn atpg_telemetry_lands_in_json_and_is_thread_invariant() {
        let cuts = vec![Cut::shifter(8)];
        let config = |threads: usize| AtpgConfig {
            podem_threads: Some(threads),
            ..AtpgConfig::default()
        };
        let serial = Table1::generate_with_model(
            &cuts,
            FaultSimConfig::with_threads(1),
            config(1),
            FaultModel::default(),
        )
        .unwrap();
        let threaded = Table1::generate_with_model(
            &cuts,
            FaultSimConfig::with_threads(1),
            config(3),
            FaultModel::default(),
        )
        .unwrap();
        // The shifter's constrained-ATPG routine really ran PODEM, and the
        // deterministic merge makes everything except wall time identical.
        assert!(serial.atpg.runs > 0);
        assert_eq!(serial.atpg.stats, threaded.atpg.stats);
        assert_eq!(serial.rows[0].coverage, threaded.rows[0].coverage);
        assert_eq!(serial.atpg.podem_threads, 1);
        assert_eq!(threaded.atpg.podem_threads, 3);
        // The random phase warms each run's shared simulator, so drop
        // simulation never compiles another tape.
        assert_eq!(serial.atpg.drop_sim_tape_compilations, 0);

        let v = serial.to_json();
        let atpg = v.get("atpg").unwrap();
        assert_eq!(atpg.get("runs").unwrap().as_u64(), Some(serial.atpg.runs));
        assert_eq!(atpg.get("podem_threads").unwrap().as_u64(), Some(1));
        assert_eq!(
            atpg.get("podem_targets").unwrap().as_u64(),
            Some(serial.atpg.stats.podem_targets)
        );
        assert_eq!(
            atpg.get("drop_sim_tape_compilations").unwrap().as_u64(),
            Some(0)
        );
        let per_thread = atpg.get("per_thread").unwrap().as_array().unwrap();
        assert_eq!(per_thread.len(), 1);
        assert!(atpg.get("podem_wall_seconds").unwrap().as_f64().is_some());
        assert!(serial.to_string().contains("Constrained ATPG"));
    }

    #[test]
    fn manager_json_round_trips_with_events() {
        use sbst_cpu::manager::{FaultFreeBench, ManagerConfig, OnlineTestManager, SessionStatus};

        let schedule = crate::plan::build_managed_schedule(&[Cut::alu(8)]).unwrap();
        let mut mgr = OnlineTestManager::new(
            ManagerConfig::default(),
            schedule.components,
            schedule.store,
        );
        // One healthy session, then a corrupted store halting the next.
        assert_eq!(
            mgr.run_session(&mut FaultFreeBench),
            SessionStatus::Completed { healthy: true }
        );
        mgr.store_mut().corrupt("ALU", 0x0000_1000);
        assert_eq!(mgr.run_session(&mut FaultFreeBench), SessionStatus::Halted);

        let v = manager_to_json(&mgr);
        let counters = v.get("counters").unwrap();
        assert_eq!(counters.get("attempts").unwrap().as_u64(), Some(1));
        assert_eq!(counters.get("store_corruptions").unwrap().as_u64(), Some(1));
        assert_eq!(v.get("halted").unwrap().as_bool(), Some(true));
        let comps = v.get("components").unwrap().as_array().unwrap();
        assert_eq!(comps.len(), 1);
        assert_eq!(comps[0].get("health").unwrap().as_str(), Some("healthy"));
        let events = v.get("events").unwrap().as_array().unwrap();
        let types: Vec<_> = events
            .iter()
            .map(|e| e.get("type").unwrap().as_str().unwrap())
            .collect();
        assert!(types.contains(&"session_started"));
        assert!(types.contains(&"attempt"));
        assert!(types.contains(&"store_corrupted"));
        assert!(types.contains(&"halted"));
        // The tamper event carries its audit verdict (a bit flip breaks
        // the keyed seal → forged), and the counters split it out.
        let corrupted = events
            .iter()
            .find(|e| e.get("type").unwrap().as_str() == Some("store_corrupted"))
            .unwrap();
        assert_eq!(corrupted.get("kind").unwrap().as_str(), Some("forged"));
        assert_eq!(counters.get("tamper_forgeries").unwrap().as_u64(), Some(1));
        assert_eq!(counters.get("tamper_replays").unwrap().as_u64(), Some(0));
        assert_eq!(comps[0].get("store_trusted").unwrap().as_bool(), Some(true));
        // The document round-trips through the parser.
        let text = v.to_json_pretty();
        assert_eq!(crate::json::parse(&text).unwrap(), v);
    }

    #[test]
    fn per_model_columns_always_serialize() {
        let cuts = vec![Cut::alu(8), Cut::pipeline(8)];
        let table = Table1::generate(&cuts).unwrap();
        assert_eq!(table.fault_model, FaultModel::StuckAt);
        let v = table.to_json();
        assert_eq!(v.get("fault_model").unwrap().as_str(), Some("stuck-at"));
        let rows = v.get("rows").unwrap().as_array().unwrap();
        for (row, json) in table.rows.iter().zip(rows) {
            // Legacy fields carry the headline (stuck-at) numbers.
            assert_eq!(
                json.get("fault_count").unwrap().as_u64(),
                Some(row.coverage.total as u64)
            );
            assert_eq!(
                json.get("stuck_at_detected").unwrap().as_u64(),
                Some(row.coverage.detected as u64)
            );
            assert_eq!(
                json.get("transition_fault_count").unwrap().as_u64(),
                Some(row.transition_coverage.total as u64)
            );
            assert!(json
                .get("transition_coverage_percent")
                .unwrap()
                .as_f64()
                .is_some());
            // Every net contributes a slow-to-rise and a slow-to-fall
            // fault, so the transition universe is nonempty.
            assert!(row.transition_coverage.total > 0, "{}", row.name);
        }
        let totals = v.get("totals").unwrap();
        assert_eq!(
            totals.get("stuck_at_coverage_percent").unwrap().as_f64(),
            Some(table.overall_coverage.percent())
        );
        assert_eq!(
            totals.get("transition_coverage_percent").unwrap().as_f64(),
            Some(table.overall_transition_coverage.percent())
        );
        assert!(table.to_string().contains("FC column: stuck-at model"));
    }

    #[test]
    fn transition_headline_swaps_the_fc_column() {
        let cuts = vec![Cut::alu(8)];
        let table = Table1::generate_with_model(
            &cuts,
            FaultSimConfig::default(),
            AtpgConfig::default(),
            FaultModel::TransitionDelay,
        )
        .unwrap();
        assert_eq!(table.fault_model, FaultModel::TransitionDelay);
        let v = table.to_json();
        assert_eq!(v.get("fault_model").unwrap().as_str(), Some("transition"));
        let row = &v.get("rows").unwrap().as_array().unwrap()[0];
        // The legacy columns now carry the transition numbers...
        assert_eq!(
            row.get("fault_count").unwrap().as_u64(),
            Some(table.rows[0].transition_coverage.total as u64)
        );
        assert_eq!(
            row.get("fault_coverage_percent").unwrap().as_f64(),
            Some(table.rows[0].transition_coverage.percent())
        );
        // ...while the per-model fields still expose both.
        assert_eq!(
            row.get("stuck_at_fault_count").unwrap().as_u64(),
            Some(table.rows[0].coverage.total as u64)
        );
        assert!(table.to_string().contains("FC column: transition model"));
        // Shared stimulus means the ALU routine also catches most gross
        // transition-delay faults.
        assert!(table.rows[0].transition_coverage.percent() > 50.0);
    }

    #[test]
    fn transition_columns_are_engine_invariant() {
        let cuts = vec![Cut::alu(8), Cut::pipeline(8)];
        let full =
            Table1::generate_with(&cuts, FaultSimConfig::with_engine(SimEngine::FullEval)).unwrap();
        let compiled = Table1::generate(&cuts).unwrap();
        for (a, b) in full.rows.iter().zip(&compiled.rows) {
            assert_eq!(a.transition_coverage, b.transition_coverage, "{}", a.name);
        }
        assert_eq!(
            full.overall_transition_coverage,
            compiled.overall_transition_coverage
        );
    }

    #[test]
    fn overall_coverage_accumulates_all_components() {
        let cuts = vec![Cut::alu(8), Cut::pipeline(8)];
        let table = Table1::generate(&cuts).unwrap();
        let expected_total: usize = cuts.iter().map(Cut::fault_count).sum();
        assert_eq!(table.overall_coverage.total, expected_total);
    }
}
