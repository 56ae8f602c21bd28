//! The iterative test-plan rule of Section 3.2.
//!
//! The paper's flow is conditional: develop routines for the D-VCs (and
//! the PVC), measure coverage, and only "in case that the fault coverage is
//! not acceptable" extend testing to the address-carrying components —
//! paying their distributed-memory cost. [`plan_with_target`] automates
//! that decision: it generates Table 1, compares overall coverage against
//! the target, and if short, adds the optional M-VC top-up routine (the
//! PC-unit branch ladder) to the first pass's routines and program.

use sbst_components::{ComponentClass, ComponentKind};
use sbst_cpu::manager::{ManagedComponent, SharedSchedule, SigLocation, SignatureStore};
use sbst_gates::{FaultCoverage, FaultModel, FaultSimConfig};
use sbst_tpg::AtpgConfig;

use crate::cut::Cut;
use crate::grade::{characterize, grade_stimulus, grade_stuck_at, CutRecord, TraceGrade};
use crate::report::{dedicated_records, Table1, Table1Error};
use crate::routine::RoutineSpec;

/// The outcome of the conditional test-planning flow.
#[derive(Debug, Clone)]
pub struct TestPlan {
    /// The (possibly top-up-augmented) Table 1.
    pub table: Table1,
    /// Overall coverage before any top-up.
    pub baseline_coverage: FaultCoverage,
    /// Names of components that received top-up routines.
    pub topups: Vec<&'static str>,
    /// The coverage target requested.
    pub target_percent: f64,
}

impl TestPlan {
    /// Whether the final plan meets the target.
    pub fn meets_target(&self) -> bool {
        self.table.overall_coverage.percent() >= self.target_percent
    }
}

/// Whether `cut` gets a routine only as a top-up: the M-VC/A-VC PC unit,
/// whose recommended routine is the branch ladder.
fn gets_topup(cut: &Cut) -> bool {
    cut.kind() == ComponentKind::PcUnit
        && matches!(
            cut.class(),
            ComponentClass::MixedVisible | ComponentClass::AddressVisible
        )
}

/// Generates a test plan meeting `target_percent` overall coverage if the
/// methodology can: D-VC/PVC routines first; if the target is missed, the
/// table is assembled again from those rows plus the M-VC/A-VC top-ups
/// (currently the PC-unit branch ladder) in the program, and that pass is
/// kept if it detects more faults in a top-up component.
///
/// # Errors
///
/// Returns [`Table1Error`] if routine generation or grading fails.
pub fn plan_with_target(cuts: &[Cut], target_percent: f64) -> Result<TestPlan, Table1Error> {
    let dedicated = dedicated_records(cuts, FaultSimConfig::default(), AtpgConfig::default())?;
    plan_from(cuts, dedicated, target_percent)
}

/// [`plan_with_target`] from the first pass's `dedicated` records: the
/// second pass characterizes only the top-up CUTs.
fn plan_from(
    cuts: &[Cut],
    mut dedicated: Vec<Option<CutRecord<TraceGrade>>>,
    target_percent: f64,
) -> Result<TestPlan, Table1Error> {
    let (sim, model) = (FaultSimConfig::default(), FaultModel::default());
    let mut table = Table1::assemble(cuts, &dedicated, sim, model)?;
    let baseline_coverage = table.overall_coverage;
    let mut topups = Vec::new();

    if baseline_coverage.percent() < target_percent {
        for (cut, record) in cuts.iter().zip(&mut dedicated) {
            if gets_topup(cut) {
                let built = RoutineSpec::recommended(cut).build_traced(cut)?;
                *record = Some(characterize(cut, built, |s| grade_stimulus(cut, s, sim))?);
            }
        }
        let topped = Table1::assemble(cuts, &dedicated, sim, model)?;
        topups = cuts
            .iter()
            .zip(table.rows.iter().zip(&topped.rows))
            .filter(|(cut, (before, after))| {
                gets_topup(cut) && after.coverage.detected > before.coverage.detected
            })
            .map(|(cut, _)| cut.name())
            .collect();
        if !topups.is_empty() {
            table = topped;
        }
    }

    Ok(TestPlan {
        table,
        baseline_coverage,
        topups,
        target_percent,
    })
}

/// [`plan_with_target`] over the inventory minus quarantined components —
/// the reduced-plan step after the on-line test manager classifies a
/// component permanently faulty: the healthy components keep getting
/// tested, and the coverage target is re-evaluated over what remains.
///
/// # Errors
///
/// Returns [`Table1Error`] if routine generation or grading fails.
pub fn plan_excluding(
    cuts: &[Cut],
    quarantined: &[ComponentKind],
    target_percent: f64,
) -> Result<TestPlan, Table1Error> {
    let remaining: Vec<Cut> = cuts
        .iter()
        .filter(|c| !quarantined.contains(&c.kind()))
        .cloned()
        .collect();
    plan_with_target(&remaining, target_percent)
}

/// A periodic-test schedule ready for the on-line test manager: one
/// standalone routine per routine-capable CUT, fault-free golden
/// signatures sealed into a checksummed store (keyed by component name),
/// and watchdog-budget inputs measured from the characterization runs.
#[derive(Debug)]
pub struct ManagedSchedule {
    /// One managed component per routine-capable CUT, in inventory order.
    pub components: Vec<ManagedComponent>,
    /// Golden signatures keyed by component name, checksummed.
    pub store: SignatureStore,
    /// Per-component fault coverage measured at characterization time, in
    /// schedule order. Empty unless built by
    /// [`build_managed_schedule_graded`].
    pub coverage: Vec<(String, FaultCoverage)>,
}

impl ManagedSchedule {
    /// The schedule's components as a [`SharedSchedule`] — the
    /// characterize-once, run-everywhere handle: every fleet node's manager
    /// adopts the same allocation ([`OnlineTestManager::new`]), so per-node
    /// cost excludes routine programs entirely, and a routine's fault-free
    /// outcome is recorded once for every manager holding the handle. Each
    /// call builds a new schedule with empty records; call it once and
    /// clone the returned handle.
    ///
    /// [`OnlineTestManager::new`]: sbst_cpu::manager::OnlineTestManager::new
    pub fn shared_components(&self) -> SharedSchedule {
        self.components.clone().into()
    }

    /// A fresh copy of the checksummed golden-signature store. Per-node
    /// stores stay private (each node may re-capture or corrupt its own),
    /// but they all start from this one characterization.
    pub fn store_snapshot(&self) -> SignatureStore {
        self.store.clone()
    }
}

/// Characterizes `cuts` into a [`ManagedSchedule`]: builds the recommended
/// routine for every routine-capable CUT, runs it fault-free to capture
/// the golden signature and the expected cycle count, and seals the
/// signatures into a checksummed store.
///
/// # Errors
///
/// Returns [`Table1Error`] if a routine fails to build, run or grade.
pub fn build_managed_schedule(cuts: &[Cut]) -> Result<ManagedSchedule, Table1Error> {
    build_schedule_inner(cuts, None)
}

/// [`build_managed_schedule`] with an explicit fault-simulator
/// configuration: the characterization run additionally fault-grades each
/// routine's operand trace under `sim` and records the per-component
/// coverage in [`ManagedSchedule::coverage`]. Golden signatures, cycle
/// budgets and coverage are bit-identical for every engine and thread
/// count; only the grading wall time differs.
///
/// # Errors
///
/// Returns [`Table1Error`] if a routine fails to build, run or grade.
pub fn build_managed_schedule_graded(
    cuts: &[Cut],
    sim: FaultSimConfig,
) -> Result<ManagedSchedule, Table1Error> {
    build_schedule_inner(cuts, Some(sim))
}

fn build_schedule_inner(
    cuts: &[Cut],
    sim: Option<FaultSimConfig>,
) -> Result<ManagedSchedule, Table1Error> {
    let mut components = Vec::new();
    let mut entries = Vec::new();
    let mut coverage = Vec::new();
    for cut in cuts {
        if !cut.gets_routine() {
            continue;
        }
        let built = RoutineSpec::recommended(cut).build_traced(cut)?;
        let record = characterize(cut, built, |stimulus| {
            sim.map(|sim| grade_stuck_at(cut, stimulus, sim).0)
        })?;
        if let Some(cov) = record.grade {
            coverage.push((cut.name().to_owned(), cov));
        }
        entries.push((cut.name().to_owned(), record.signature));
        components.push(ManagedComponent {
            name: cut.name().to_owned(),
            program: record.routine.program,
            signature: SigLocation::Label(record.routine.sig_label),
            expected_cycles: record.stats.total_cycles(),
        });
    }
    Ok(ManagedSchedule {
        components,
        store: SignatureStore::new(entries),
        coverage,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grade::grade_routine;
    use crate::program::SelfTestProgram;

    fn cuts() -> Vec<Cut> {
        vec![Cut::alu(8), Cut::shifter(8), Cut::pc_unit(8, 4)]
    }

    #[test]
    fn satisfied_target_adds_no_topups() {
        // The ALU+shifter coverage easily clears a modest target; the PC
        // unit stays side-effect graded.
        let plan = plan_with_target(&cuts(), 80.0).unwrap();
        assert!(plan.meets_target());
        assert!(plan.topups.is_empty());
        let pc_row = plan
            .table
            .rows
            .iter()
            .find(|r| r.name == "PC / branch unit")
            .unwrap();
        assert!(!pc_row.dedicated_routine);
    }

    #[test]
    fn missed_target_triggers_mvc_topup() {
        // An aggressive target forces the branch-ladder top-up, exactly the
        // paper's "tested after the D-VCs only in case that the fault
        // coverage is not acceptable".
        let plan = plan_with_target(&cuts(), 97.0).unwrap();
        assert_eq!(plan.topups, vec!["PC / branch unit"]);
        assert!(
            plan.table.overall_coverage.detected > plan.baseline_coverage.detected,
            "top-up must improve coverage"
        );
        let pc_row = plan
            .table
            .rows
            .iter()
            .find(|r| r.name == "PC / branch unit")
            .unwrap();
        assert!(pc_row.dedicated_routine);
        assert_eq!(pc_row.code_style.as_deref(), Some("FT"));
    }

    #[test]
    fn topup_row_reports_the_ladder_under_both_models() {
        // The top-up replaces the whole PC row: both coverage columns come
        // from the branch ladder's own stimulus, and both overall columns
        // are the sums of the rows.
        let cuts = cuts();
        let plan = plan_with_target(&cuts, 97.0).unwrap();
        let pc = &cuts[2];
        let ladder = RoutineSpec::recommended(pc).build(pc).unwrap();
        let graded = grade_routine(pc, &ladder).unwrap();
        let pc_row = plan
            .table
            .rows
            .iter()
            .find(|r| r.name == pc.name())
            .unwrap();
        assert_eq!(pc_row.coverage, graded.coverage);
        assert_eq!(pc_row.transition_coverage, graded.transition_coverage);
        assert_eq!(pc_row.size_words, Some(graded.size_words));
        assert_eq!(pc_row.cpu_cycles, Some(graded.stats.total_cycles()));
        assert_eq!(pc_row.data_refs, Some(graded.stats.data_refs()));
        let rows = &plan.table.rows;
        assert_eq!(
            plan.table.overall_coverage,
            rows.iter().map(|r| r.coverage).sum::<FaultCoverage>()
        );
        assert_eq!(
            plan.table.overall_transition_coverage,
            rows.iter()
                .map(|r| r.transition_coverage)
                .sum::<FaultCoverage>()
        );
        assert_eq!(
            plan.table.overall_transition_coverage,
            FaultCoverage::new(474, 518)
        );
    }

    #[test]
    fn topup_joins_the_program_totals_and_grading() {
        // The topped-up table is the one generator's second pass: its
        // Total row is the run of the combined program with the ladder in
        // it, and its grading telemetry is that of the three routines.
        let cuts = cuts();
        let plan = plan_with_target(&cuts, 97.0).unwrap();
        let table = &plan.table;
        let program = SelfTestProgram::build(&cuts).unwrap();
        let run = program.run().unwrap();
        assert_eq!(table.total_size_words, program.size_words());
        assert_eq!(table.total_cycles, run.stats.total_cycles());
        assert_eq!(table.total_data_refs, run.stats.data_refs());
        assert_eq!(
            (
                table.total_size_words,
                table.total_cycles,
                table.total_data_refs
            ),
            (364, 1107, 3)
        );
        let (mut events, mut slots, mut cycles) = (0, 0, 0);
        for cut in &cuts {
            let routine = RoutineSpec::recommended(cut).build(cut).unwrap();
            let graded = grade_routine(cut, &routine).unwrap();
            events += graded.sim_stats.events_full_eval;
            slots += graded.sim_stats.lane_slots_total;
            cycles += graded.sim_stats.cycles_simulated;
        }
        assert_eq!(table.events_full_eval, events);
        assert_eq!(table.lane_slots_total, slots);
        assert_eq!(table.cycles_simulated, cycles);
    }

    #[test]
    fn topup_keeps_the_first_pass_dedicated_rows() {
        // The second pass characterizes only the ladder: every dedicated
        // row of the topped-up table is the first pass's row, down to its
        // grading wall time, and no PODEM campaign runs again.
        let cuts = cuts();
        let (sim, atpg) = (FaultSimConfig::default(), AtpgConfig::default());
        let dedicated = dedicated_records(&cuts, sim, atpg).unwrap();
        let first = Table1::assemble(&cuts, &dedicated, sim, FaultModel::default()).unwrap();
        let plan = plan_from(&cuts, dedicated, 97.0).unwrap();
        assert_eq!(plan.topups, vec!["PC / branch unit"]);
        let kept: Vec<_> = first.rows.iter().filter(|r| r.dedicated_routine).collect();
        assert_eq!(kept.len(), 2);
        for before in kept {
            let after = plan.table.rows.iter().find(|r| r.name == before.name);
            let after = after.unwrap();
            assert_eq!(after.sim_wall_time, before.sim_wall_time, "{}", before.name);
            assert_eq!(after.coverage, before.coverage, "{}", before.name);
            assert_eq!(after.size_words, before.size_words, "{}", before.name);
            assert_eq!(after.cpu_cycles, before.cpu_cycles, "{}", before.name);
        }
        assert_eq!(plan.table.atpg.runs, first.atpg.runs);
        assert_eq!(plan.table.atpg.podem_wall_time, first.atpg.podem_wall_time);
    }

    #[test]
    fn quarantine_shrinks_the_plan_but_keeps_testing_the_rest() {
        let full = plan_with_target(&cuts(), 50.0).unwrap();
        let reduced = plan_excluding(&cuts(), &[ComponentKind::Alu], 50.0).unwrap();
        assert_eq!(reduced.table.rows.len(), full.table.rows.len() - 1);
        assert!(reduced.table.rows.iter().all(|r| r.name != "ALU"));
        // The survivors are still planned and graded.
        assert!(reduced.table.rows.iter().any(|r| r.name == "Shifter"));
        assert!(reduced.table.overall_coverage.total > 0);
    }

    #[test]
    fn excluding_nothing_is_the_full_plan() {
        let full = plan_with_target(&cuts(), 50.0).unwrap();
        let same = plan_excluding(&cuts(), &[], 50.0).unwrap();
        assert_eq!(same.table.rows.len(), full.table.rows.len());
        assert_eq!(
            same.table.overall_coverage.total,
            full.table.overall_coverage.total
        );
    }

    #[test]
    fn shared_components_round_trip_the_schedule() {
        let schedule = build_managed_schedule(&cuts()).unwrap();
        let shared = schedule.shared_components();
        assert_eq!(shared.len(), schedule.components.len());
        for (a, b) in shared.iter().zip(&schedule.components) {
            assert_eq!(a.name, b.name);
            assert_eq!(a.expected_cycles, b.expected_cycles);
        }
        let store = schedule.store_snapshot();
        assert!(store.verify());
        assert_eq!(store.entries(), schedule.store.entries());
    }

    #[test]
    fn managed_schedule_characterizes_routine_cuts() {
        // pc_unit is M-VC/A-VC — no standalone routine, so no entry.
        let schedule = build_managed_schedule(&cuts()).unwrap();
        assert_eq!(schedule.components.len(), 2);
        assert_eq!(schedule.store.len(), 2);
        assert!(schedule.store.verify());
        for comp in &schedule.components {
            assert!(comp.expected_cycles > 0, "{}", comp.name);
            assert!(comp.sig_addr().is_some(), "{}", comp.name);
            assert!(schedule.store.get(&comp.name).is_some(), "{}", comp.name);
        }
    }
}
