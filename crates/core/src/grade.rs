//! Fault grading: routines → ISS execution → trace replay → coverage.
//!
//! A routine is graded by running it (fault-free) on the ISS with operand
//! tracing enabled, replaying the captured operand stream through the CUT's
//! gate-level netlist under every collapsed stuck-at fault (64 machines per
//! simulation pass), and counting the faults whose outputs diverge at an
//! observed cycle. Divergent outputs flow into the routine's MISR in the
//! real system, and the paper argues (and [`sbst_tpg::Misr32`] confirms)
//! that MISR aliasing is negligible — so output divergence is the detection
//! criterion, exactly as in commercial fault grading.
//!
//! [`arch_validate`] cross-checks this on sampled faults by *mounting* the
//! faulty netlist in the datapath and comparing end-to-end signatures.

use std::error::Error;
use std::fmt;
use std::slice;
use std::sync::Arc;

use sbst_components::{
    alu, comparator, control, divider, memctrl, misc, multiplier, pipeline, regfile, shifter,
    ComponentKind,
};
use sbst_cpu::{ArchFault, Cpu, CpuConfig, CpuError, ExecStats, Mountable, OperandTrace};
use sbst_gates::{
    enumerate_transition_faults, Fault, FaultCoverage, FaultSimConfig, FaultSimulator, SimStats,
    Stimulus,
};
use sbst_tpg::AtpgTelemetry;

use crate::cut::Cut;
use crate::program::SelfTestProgram;
use crate::routine::SelfTestRoutine;

/// Error from grading.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GradeError {
    /// The routine failed to execute.
    Cpu(CpuError),
    /// The routine never exercised the CUT (empty trace stream).
    EmptyTrace {
        /// The component kind with no recorded operations.
        kind: ComponentKind,
    },
}

impl fmt::Display for GradeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GradeError::Cpu(e) => write!(f, "routine execution failed: {e}"),
            GradeError::EmptyTrace { kind } => {
                write!(f, "routine applied no operations to {kind}")
            }
        }
    }
}

impl Error for GradeError {}

impl From<CpuError> for GradeError {
    fn from(e: CpuError) -> Self {
        GradeError::Cpu(e)
    }
}

/// Converts the relevant stream of an operand trace into a gate-level
/// stimulus for the CUT.
pub fn stimulus_for(cut: &Cut, trace: &OperandTrace) -> Stimulus {
    let c = &cut.component;
    match cut.kind() {
        ComponentKind::Alu => alu::stimulus(c, &trace.alu),
        ComponentKind::Comparator => comparator::stimulus(c, &trace.comparator),
        ComponentKind::Shifter => shifter::stimulus(c, &trace.shifter),
        ComponentKind::Multiplier => multiplier::stimulus(c, &trace.multiplier),
        ComponentKind::Divider => divider::stimulus(c, &trace.divider),
        ComponentKind::RegisterFile => regfile::stimulus(c, &trace.regfile),
        ComponentKind::MemoryController => memctrl::stimulus(c, &trace.memctrl),
        ComponentKind::ControlLogic => control::stimulus(c, &trace.control),
        ComponentKind::Pipeline => pipeline::stimulus(c, &trace.pipeline),
        ComponentKind::PcUnit => misc::stimulus(c, &trace.pc_unit),
    }
}

/// Grades `stimulus` under the single-stuck-at model only.
pub(crate) fn grade_stuck_at(
    cut: &Cut,
    stimulus: &Stimulus,
    sim: FaultSimConfig,
) -> (FaultCoverage, SimStats) {
    if stimulus.is_empty() {
        return (
            FaultCoverage::new(0, cut.fault_count()),
            SimStats::default(),
        );
    }
    let faults = cut.component.netlist.collapsed_faults();
    let result =
        FaultSimulator::with_config(&cut.component.netlist, sim).simulate(&faults, stimulus);
    (result.coverage(), result.stats)
}

/// Per-model grading of one trace: stuck-at and transition-delay coverage
/// of the same stimulus, plus how the fault simulator ran.
#[derive(Debug, Clone)]
pub struct TraceGrade {
    /// Single-stuck-at coverage (collapsed fault list).
    pub coverage: FaultCoverage,
    /// Gross transition-delay coverage (slow-to-rise/slow-to-fall per net
    /// stem, two-pattern detection) of the *same* stimulus.
    pub transition_coverage: FaultCoverage,
    /// Worker threads the fault simulator used (0 for an empty stimulus).
    pub sim_threads: usize,
    /// Wall-clock time of both models' simulation runs.
    pub sim_wall_time: std::time::Duration,
    /// Simulation-volume instrumentation of both models' runs, summed.
    pub sim_stats: SimStats,
}

/// Grades the CUT's fault lists under both fault models against a
/// recorded trace: the trace is replayed once per model on one shared
/// [`FaultSimulator`] (the compiled engine's tape is built once and
/// reused).
pub fn grade_trace_models(cut: &Cut, trace: &OperandTrace, sim: FaultSimConfig) -> TraceGrade {
    grade_stimulus(cut, &stimulus_for(cut, trace), sim)
}

/// Grades `stimulus` under both fault models on one [`FaultSimulator`].
/// An empty stimulus detects nothing but still reports both universes.
pub(crate) fn grade_stimulus(cut: &Cut, stimulus: &Stimulus, sim: FaultSimConfig) -> TraceGrade {
    let netlist = &cut.component.netlist;
    let transition_faults = enumerate_transition_faults(netlist);
    if stimulus.is_empty() {
        return TraceGrade {
            coverage: FaultCoverage::new(0, cut.fault_count()),
            transition_coverage: FaultCoverage::new(0, transition_faults.len()),
            sim_threads: 0,
            sim_wall_time: std::time::Duration::ZERO,
            sim_stats: SimStats::default(),
        };
    }
    let simulator = FaultSimulator::with_config(netlist, sim);
    let result = simulator.simulate(&netlist.collapsed_faults(), stimulus);
    let transition = simulator.simulate_transition(&transition_faults, stimulus);
    let mut sim_stats = result.stats;
    sim_stats.accumulate(&transition.stats);
    TraceGrade {
        coverage: result.coverage(),
        transition_coverage: transition.coverage(),
        sim_threads: result.threads_used,
        sim_wall_time: result.wall_time + transition.wall_time,
        sim_stats,
    }
}

/// A graded routine: coverage plus the Table-1 statistics.
#[derive(Debug, Clone)]
pub struct GradedRoutine {
    /// Stuck-at coverage of the CUT achieved by the routine.
    pub coverage: FaultCoverage,
    /// Gross transition-delay coverage of the CUT achieved by the same
    /// routine (two-pattern detection over the identical operand stream).
    pub transition_coverage: FaultCoverage,
    /// Execution statistics of the (fault-free) run.
    pub stats: ExecStats,
    /// The fault-free signature the routine left in data memory.
    pub signature: u32,
    /// Program footprint in words.
    pub size_words: usize,
    /// Worker threads the fault simulator used for grading.
    pub sim_threads: usize,
    /// Wall-clock time spent in fault simulation.
    pub sim_wall_time: std::time::Duration,
    /// Simulation-volume instrumentation of both models' grading runs
    /// ([`TraceGrade::sim_stats`]).
    pub sim_stats: SimStats,
}

/// Executes a routine on the ISS and grades its CUT.
///
/// # Errors
///
/// Returns [`GradeError`] if execution fails or the routine never touched
/// the CUT.
pub fn grade_routine(cut: &Cut, routine: &SelfTestRoutine) -> Result<GradedRoutine, GradeError> {
    grade_routine_with(cut, routine, FaultSimConfig::default())
}

/// [`grade_routine`] with an explicit fault-simulator configuration.
///
/// Coverage, signature and statistics are bit-identical for every thread
/// count; [`GradedRoutine::sim_threads`] and
/// [`GradedRoutine::sim_wall_time`] record how the grading itself ran.
///
/// # Errors
///
/// Returns [`GradeError`] if execution fails or the routine never touched
/// the CUT.
pub fn grade_routine_with(
    cut: &Cut,
    routine: &SelfTestRoutine,
    sim: FaultSimConfig,
) -> Result<GradedRoutine, GradeError> {
    let built = (routine.clone(), AtpgTelemetry::default());
    let record = characterize(cut, built, |stimulus| grade_stimulus(cut, stimulus, sim))?;
    let grade = record.grade;
    Ok(GradedRoutine {
        coverage: grade.coverage,
        transition_coverage: grade.transition_coverage,
        stats: record.stats,
        signature: record.signature,
        size_words: routine.size_words(),
        sim_threads: grade.sim_threads,
        sim_wall_time: grade.sim_wall_time,
        sim_stats: grade.sim_stats,
    })
}

/// One CUT's characterization: its routine, with the statistics and
/// golden signature of its one fault-free run and the grade taken from
/// that run's stimulus (the operand trace is not kept).
pub(crate) struct CutRecord<G> {
    pub(crate) routine: SelfTestRoutine,
    pub(crate) stats: ExecStats,
    pub(crate) signature: u32,
    /// The routine build's constrained-ATPG instrumentation.
    pub(crate) atpg: AtpgTelemetry,
    pub(crate) grade: G,
}

/// Runs a built routine once and grades its CUT's stimulus with `grade`:
/// the one characterization path behind [`grade_routine_with`], Table 1's
/// dedicated rows, the plan top-up and the managed schedule.
pub(crate) fn characterize<G>(
    cut: &Cut,
    (routine, atpg): (SelfTestRoutine, AtpgTelemetry),
    grade: impl FnOnce(&Stimulus) -> G,
) -> Result<CutRecord<G>, GradeError> {
    let (stats, trace, signature) = execute_routine(&routine)?;
    let stimulus = stimulus_for(cut, &trace);
    if stimulus.is_empty() {
        return Err(GradeError::EmptyTrace { kind: cut.kind() });
    }
    Ok(CutRecord {
        routine,
        stats,
        signature,
        atpg,
        grade: grade(&stimulus),
    })
}

/// Runs a routine fault-free with tracing; returns statistics, the trace
/// and the unloaded signature.
pub fn execute_routine(
    routine: &SelfTestRoutine,
) -> Result<(ExecStats, OperandTrace, u32), GradeError> {
    let run = SelfTestProgram::traced_run(&routine.program, slice::from_ref(&routine.sig_label))?;
    Ok((run.stats, run.trace, run.signatures[0].1))
}

/// Result of architectural cross-validation on a fault sample.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ArchValidation {
    /// Faults where trace-replay and end-to-end signature detection agree.
    pub agreements: usize,
    /// Faults detected by trace replay but not end-to-end.
    pub replay_only: usize,
    /// Faults detected end-to-end but not by trace replay.
    pub arch_only: usize,
}

impl ArchValidation {
    /// Total faults compared.
    pub fn total(&self) -> usize {
        self.agreements + self.replay_only + self.arch_only
    }

    /// Agreement rate in percent.
    pub fn agreement_percent(&self) -> f64 {
        if self.total() == 0 {
            100.0
        } else {
            self.agreements as f64 / self.total() as f64 * 100.0
        }
    }
}

/// Cross-validates trace-replay grading against end-to-end architectural
/// fault injection for a sample of faults (ALU, shifter or multiplier CUTs
/// at full width only).
///
/// For each fault the routine runs with the faulty netlist mounted in the
/// datapath; end-to-end detection means the final signature differs from
/// the fault-free one **or** execution itself derails (a fault corrupting
/// control flow is a detection too).
///
/// # Errors
///
/// Returns [`GradeError`] if the fault-free run fails.
pub fn arch_validate(
    cut: &Cut,
    routine: &SelfTestRoutine,
    faults: &[Fault],
) -> Result<ArchValidation, GradeError> {
    // Reference: fault-free signature + replay detections.
    let (ref_stats, trace, good_signature) = execute_routine(routine)?;
    let stimulus = stimulus_for(cut, &trace);
    let replay = FaultSimulator::new(&cut.component.netlist).simulate(faults, &stimulus);

    // One preparation per call, shared by every mount below.
    let shared = Arc::new(Mountable::new(Arc::new(cut.component.clone())));
    let mut v = ArchValidation::default();
    for (i, fault) in faults.iter().enumerate() {
        let mut cpu = Cpu::new(CpuConfig {
            // A fault that corrupts loop control can spin forever; a tight
            // watchdog (vs the fault-free instruction count) converts that
            // into a detection instead of an unbounded simulation.
            max_instructions: ref_stats.instructions * 16 + 10_000,
            ..CpuConfig::self_test()
        });
        cpu.load_program(&routine.program);
        cpu.mount_fault(ArchFault::from_shared(&shared, *fault));
        let arch_detected = match cpu.run() {
            Ok(_) => {
                let sig_addr = routine
                    .program
                    .symbol(&routine.sig_label)
                    .expect("signature label exists");
                cpu.memory().read_word(sig_addr) != good_signature
            }
            Err(_) => true, // derailed execution is an observable failure
        };
        if arch_detected == replay.detected[i] {
            v.agreements += 1;
        } else if replay.detected[i] {
            v.replay_only += 1;
        } else {
            v.arch_only += 1;
        }
    }
    Ok(v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::routine::RoutineSpec;

    #[test]
    fn alu_regular_routine_covers_well() {
        let cut = Cut::alu(8);
        let routine = RoutineSpec::recommended(&cut).build(&cut).unwrap();
        let graded = grade_routine(&cut, &routine).unwrap();
        assert!(
            graded.coverage.percent() > 90.0,
            "ALU coverage {}",
            graded.coverage
        );
        assert!(graded.stats.cycles > 0);
        assert_ne!(graded.signature, 0);
    }

    #[test]
    fn shifter_atpg_routine_covers_well() {
        let cut = Cut::shifter(8);
        let routine = RoutineSpec::recommended(&cut).build(&cut).unwrap();
        let graded = grade_routine(&cut, &routine).unwrap();
        assert!(
            graded.coverage.percent() > 90.0,
            "shifter coverage {}",
            graded.coverage
        );
    }

    #[test]
    fn multiplier_regular_routine_covers_well() {
        let cut = Cut::multiplier(8);
        let routine = RoutineSpec::recommended(&cut).build(&cut).unwrap();
        let graded = grade_routine(&cut, &routine).unwrap();
        assert!(
            graded.coverage.percent() > 85.0,
            "multiplier coverage {}",
            graded.coverage
        );
    }

    #[test]
    fn grading_against_foreign_trace_fails_cleanly() {
        // A memory-controller routine never multiplies, so its trace can't
        // grade the multiplier.
        let mc = Cut::memctrl();
        let routine = RoutineSpec::recommended(&mc).build(&mc).unwrap();
        let (_, trace, _) = execute_routine(&routine).unwrap();
        let mul = Cut::multiplier(8);
        assert!(stimulus_for(&mul, &trace).is_empty());
        assert!(matches!(
            grade_routine(&mul, &routine),
            Err(GradeError::EmptyTrace { .. })
        ));
    }

    #[test]
    fn empty_trace_scores_zero_coverage() {
        let mc = Cut::memctrl();
        let trace = sbst_cpu::OperandTrace::new();
        // The empty trace scores zero in both models but still reports
        // the full fault universes.
        let grade = grade_trace_models(&mc, &trace, FaultSimConfig::default());
        assert_eq!(grade.coverage.detected, 0);
        assert_eq!(grade.coverage.total, mc.fault_count());
        assert_eq!(grade.transition_coverage.detected, 0);
        assert!(grade.transition_coverage.total > 0);
    }

    #[test]
    fn alu_routine_reports_transition_coverage() {
        let cut = Cut::alu(8);
        let routine = RoutineSpec::recommended(&cut).build(&cut).unwrap();
        let graded = grade_routine(&cut, &routine).unwrap();
        assert!(graded.transition_coverage.total > 0);
        // A routine applying many distinct consecutive operand pairs
        // launches plenty of transitions; expect solid two-pattern
        // coverage, though below the stuck-at figure.
        assert!(
            graded.transition_coverage.percent() > 50.0,
            "transition coverage {}",
            graded.transition_coverage
        );
    }
}
