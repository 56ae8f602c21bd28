//! The iterative test-plan rule of Section 3.2.
//!
//! The paper's flow is conditional: develop routines for the D-VCs (and
//! the PVC), measure coverage, and only "in case that the fault coverage is
//! not acceptable" extend testing to the address-carrying components —
//! paying their distributed-memory cost. [`plan_with_target`] automates
//! that decision: it generates Table 1, compares overall coverage against
//! the target, and if short, builds the optional M-VC top-up routine
//! (the PC-unit branch ladder) and folds its coverage in.

use sbst_components::{ComponentClass, ComponentKind};
use sbst_cpu::manager::{ManagedComponent, SigLocation, SignatureStore};
use sbst_gates::{FaultCoverage, FaultSimConfig};

use crate::codestyle::CodeStyle;
use crate::cut::Cut;
use crate::grade::{execute_routine, grade_routine, grade_trace_detailed};
use crate::report::{Table1, Table1Error};
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

/// Generates a test plan meeting `target_percent` overall coverage if the
/// methodology can: D-VC/PVC routines first; if the target is missed, the
/// M-VC/A-VC top-ups are added (currently the PC-unit branch ladder).
///
/// # Errors
///
/// Returns [`Table1Error`] if routine generation or grading fails.
pub fn plan_with_target(cuts: &[Cut], target_percent: f64) -> Result<TestPlan, Table1Error> {
    let mut table = Table1::generate(cuts)?;
    let baseline_coverage = table.overall_coverage;
    let mut topups = Vec::new();

    if table.overall_coverage.percent() < target_percent {
        for cut in cuts {
            if cut.kind() != ComponentKind::PcUnit
                || !matches!(
                    cut.class(),
                    ComponentClass::MixedVisible | ComponentClass::AddressVisible
                )
            {
                continue;
            }
            let spec = RoutineSpec::new(CodeStyle::FunctionalTest);
            let routine = spec.build(cut)?;
            let graded = grade_routine(cut, &routine)?;
            // Replace the side-effect row with the dedicated result if it
            // is better, and recompute the rollup.
            if let Some(row) = table.rows.iter_mut().find(|r| r.name == cut.name()) {
                if graded.coverage.detected > row.coverage.detected {
                    row.coverage = graded.coverage;
                    row.code_style = Some("FT ladder".to_owned());
                    row.size_words = Some(graded.size_words);
                    row.cpu_cycles = Some(graded.stats.total_cycles());
                    row.data_refs = Some(graded.stats.data_refs());
                    row.dedicated_routine = true;
                    topups.push(cut.name());
                }
            }
        }
        table.overall_coverage = table.rows.iter().map(|r| r.coverage).sum();
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
    /// The CUTs that received a schedule entry (those with a dedicated
    /// routine; the side-effect-graded CUTs have none to schedule).
    pub cuts: Vec<Cut>,
    /// Per-component fault coverage measured at characterization time, in
    /// schedule order. Empty unless built by
    /// [`build_managed_schedule_graded`].
    pub coverage: Vec<(String, FaultCoverage)>,
}

impl ManagedSchedule {
    /// The schedule's components as a shareable `Arc` slice — the
    /// characterize-once, run-everywhere handle: every fleet node's
    /// manager adopts the same allocation
    /// ([`sbst_cpu::manager::OnlineTestManager::with_shared_components`]),
    /// so per-node cost excludes routine programs entirely. The `Arc` is
    /// built once per call; call it once and clone the returned handle.
    pub fn shared_components(&self) -> std::sync::Arc<[ManagedComponent]> {
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
/// Returns [`Table1Error`] if a routine fails to build or run.
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
/// Returns [`Table1Error`] if a routine fails to build or run.
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
    let mut scheduled = Vec::new();
    let mut coverage = Vec::new();
    for cut in cuts {
        if !cut.gets_routine() {
            continue;
        }
        let routine = RoutineSpec::recommended(cut).build(cut)?;
        let (stats, trace, signature) = execute_routine(&routine)?;
        if let Some(sim) = sim {
            let (cov, _) = grade_trace_detailed(cut, &trace, sim);
            coverage.push((cut.name().to_owned(), cov));
        }
        entries.push((cut.name().to_owned(), signature));
        components.push(ManagedComponent {
            name: cut.name().to_owned(),
            program: routine.program,
            signature: SigLocation::Label(routine.sig_label),
            expected_cycles: stats.total_cycles(),
        });
        scheduled.push(cut.clone());
    }
    Ok(ManagedSchedule {
        components,
        store: SignatureStore::new(entries),
        cuts: scheduled,
        coverage,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

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
        assert_eq!(pc_row.code_style.as_deref(), Some("FT ladder"));
    }

    #[test]
    fn markdown_renders_rows() {
        let plan = plan_with_target(&cuts(), 50.0).unwrap();
        let md = plan.table.to_markdown();
        assert!(md.contains("| Component |"));
        assert!(md.contains("| ALU |"));
        assert!(md.contains("**Total**"));
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
