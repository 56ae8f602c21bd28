//! End-to-end on-line test manager flow through the `sbst-core` bridges:
//! characterize the routine-capable CUTs into a managed schedule
//! ([`build_managed_schedule`]), run periodic sessions under injected
//! faults, and close the quarantine → reduced-plan loop with
//! [`plan_excluding`] + `adopt_schedule`. A permanent fault in one
//! component must never stop the others from being tested.

use sbst::components::ComponentKind;
use sbst::core::plan::{build_managed_schedule, plan_excluding};
use sbst::core::Cut;
use sbst::cpu::manager::{
    FaultClass, FaultFreeBench, Health, ManagerConfig, OnlineTestManager, SessionStatus,
};
use sbst::cpu::ArchFault;
use sbst::gates::Fault;

#[test]
fn characterized_schedule_runs_clean_sessions() {
    let cuts = vec![Cut::alu(32), Cut::shifter(32)];
    let schedule = build_managed_schedule(&cuts).unwrap();
    assert_eq!(schedule.components.len(), 2);
    let mut mgr = OnlineTestManager::new(
        ManagerConfig::default(),
        schedule.components,
        schedule.store,
    );
    for _ in 0..3 {
        assert_eq!(
            mgr.run_session(&mut FaultFreeBench),
            SessionStatus::Completed { healthy: true }
        );
    }
    assert_eq!(mgr.counters().passes, 6);
    assert_eq!(mgr.counters().mismatches, 0);
}

#[test]
fn permanent_fault_quarantines_and_replan_keeps_survivors_tested() {
    let cuts = vec![Cut::alu(32), Cut::shifter(32)];
    let schedule = build_managed_schedule(&cuts).unwrap();

    // A stuck-at in the real ALU netlist, mounted on every attempt at the
    // ALU's routine — the paper's permanent operational fault.
    let alu_cut = cuts[0].clone();
    let fault = Fault::stem_sa0(alu_cut.component.ports.output("result").net(7));
    let mut bench = move |name: &str, _attempt: u32, _now: u64| {
        (name == "ALU").then(|| ArchFault::new(alu_cut.component.clone(), fault))
    };

    let mut mgr = OnlineTestManager::new(
        ManagerConfig::default(),
        schedule.components,
        schedule.store,
    );
    let status = mgr.run_session(&mut bench);
    assert_eq!(status, SessionStatus::Completed { healthy: false });
    assert_eq!(mgr.quarantined(), ["ALU"]);
    assert_eq!(
        mgr.status("ALU").unwrap().class,
        Some(FaultClass::Permanent)
    );
    // The shifter was tested and passed in the same session.
    assert_eq!(mgr.status("Shifter").unwrap().health, Health::Healthy);
    assert_eq!(mgr.status("Shifter").unwrap().passes, 1);

    // Close the loop: re-plan over the survivors and keep testing. The
    // reduced coverage table drops the quarantined row; the reduced
    // schedule re-characterizes the remaining routine.
    let plan =
        plan_excluding(&[Cut::alu(8), Cut::shifter(8)], &[ComponentKind::Alu], 50.0).unwrap();
    assert!(plan.table.rows.iter().all(|r| r.name != "ALU"));

    let remaining: Vec<Cut> = vec![Cut::shifter(32)];
    let reduced = build_managed_schedule(&remaining).unwrap();
    mgr.adopt_schedule(reduced.components, reduced.store);
    assert_eq!(
        mgr.run_session(&mut bench),
        SessionStatus::Completed { healthy: true }
    );
    assert_eq!(mgr.active_components(), ["Shifter"]);
    assert_eq!(mgr.quarantined(), ["ALU"], "quarantine history persists");
}
