//! The on-line test manager is engine-invariant end to end: a managed
//! schedule characterized (and fault-graded) under the compiled tape engine
//! and the full-eval reference produces bit-identical golden signature
//! stores, coverage numbers and — when run against the same injected
//! faults — identical verdict/event sequences. Reruns the two
//! headline `manager_faults.rs` scenarios (permanent quarantine, windowed
//! transient) once per engine and diffs everything observable.

use sbst::core::plan::{build_managed_schedule_graded, ManagedSchedule};
use sbst::core::Cut;
use sbst::cpu::manager::{
    FaultClass, Health, ManagerConfig, ManagerEvent, OnlineTestManager, SessionStatus,
    SignatureStore,
};
use sbst::cpu::{ArchFault, FaultActivity};
use sbst::gates::{Fault, FaultSimConfig, SimEngine};

const ENGINES: [SimEngine; 2] = [SimEngine::FullEval, SimEngine::Compiled];

fn graded_schedule(cuts: &[Cut], engine: SimEngine) -> ManagedSchedule {
    build_managed_schedule_graded(cuts, FaultSimConfig::with_engine(engine)).unwrap()
}

#[test]
fn graded_characterization_is_engine_invariant() {
    let cuts = vec![Cut::alu(8), Cut::shifter(8)];
    let schedules: Vec<ManagedSchedule> =
        ENGINES.iter().map(|&e| graded_schedule(&cuts, e)).collect();
    let reference = &schedules[0];
    assert_eq!(reference.coverage.len(), 2, "both CUTs graded");
    assert!(reference.store.verify());
    for other in &schedules[1..] {
        assert_eq!(reference.store, other.store, "golden stores diverged");
        assert_eq!(reference.coverage, other.coverage, "coverage diverged");
        for (a, b) in reference.components.iter().zip(&other.components) {
            assert_eq!(a.expected_cycles, b.expected_cycles, "{}", a.name);
            assert_eq!(a.sig_addr(), b.sig_addr(), "{}", a.name);
        }
    }
    // The ungraded builder yields the same schedule, minus coverage.
    let plain = sbst::core::plan::build_managed_schedule(&cuts).unwrap();
    assert_eq!(plain.store, reference.store);
    assert!(plain.coverage.is_empty());
}

/// Runs the `manager_faults.rs` permanent-fault scenario on a schedule
/// characterized under `engine`: a stuck-at-0 on ALU result bit 7 mounted
/// on every ALU attempt, two sessions. Returns everything observable.
fn run_permanent_scenario(engine: SimEngine) -> (Vec<ManagerEvent>, SignatureStore, Vec<String>) {
    let cuts = vec![Cut::alu(32), Cut::shifter(32)];
    let schedule = graded_schedule(&cuts, engine);
    let alu = cuts[0].clone();
    let fault = Fault::stem_sa0(alu.component.ports.output("result").net(7));
    let mut bench = move |name: &str, _attempt: u32, _now: u64| {
        (name == "ALU").then(|| ArchFault::new(alu.component.clone(), fault))
    };
    let mut mgr = OnlineTestManager::new(
        ManagerConfig::default(),
        schedule.components,
        schedule.store,
    );
    assert_eq!(
        mgr.run_session(&mut bench),
        SessionStatus::Completed { healthy: false },
        "{}",
        engine.name()
    );
    assert_eq!(mgr.status("ALU").unwrap().health, Health::Quarantined);
    assert_eq!(
        mgr.status("ALU").unwrap().class,
        Some(FaultClass::Permanent)
    );
    assert_eq!(mgr.status("Shifter").unwrap().health, Health::Healthy);
    // The second session skips the quarantined ALU and runs clean.
    assert_eq!(
        mgr.run_session(&mut bench),
        SessionStatus::Completed { healthy: true },
        "{}",
        engine.name()
    );
    let quarantined = mgr.quarantined().to_vec();
    (mgr.events().to_vec(), mgr.store().clone(), quarantined)
}

#[test]
fn permanent_fault_verdicts_are_identical_under_every_engine() {
    let (ref_events, ref_store, ref_quarantined) = run_permanent_scenario(ENGINES[0]);
    assert!(!ref_events.is_empty());
    assert_eq!(ref_quarantined, ["ALU"]);
    for &engine in &ENGINES[1..] {
        let (events, store, quarantined) = run_permanent_scenario(engine);
        assert_eq!(ref_events, events, "{} event log diverged", engine.name());
        assert_eq!(ref_store, store, "{} store diverged", engine.name());
        assert_eq!(ref_quarantined, quarantined, "{}", engine.name());
    }
}

/// Runs the `manager_faults.rs` windowed-disturbance scenario on a schedule
/// characterized under `engine`: the fault exists only during virtual
/// cycles [0, 100_000); the backoff carries the retry past the window, so
/// the manager classifies the fault transient.
fn run_transient_scenario(engine: SimEngine) -> (Vec<ManagerEvent>, SignatureStore) {
    let disturbance_until = 100_000u64;
    let cuts = vec![Cut::alu(32)];
    let schedule = graded_schedule(&cuts, engine);
    let alu = cuts[0].clone();
    let fault = Fault::stem_sa0(alu.component.ports.output("result").net(7));
    let mut bench = move |name: &str, _attempt: u32, now: u64| {
        (name == "ALU" && now < disturbance_until).then(|| {
            ArchFault::new(alu.component.clone(), fault).with_activity(FaultActivity::Window {
                from_cycle: 0,
                until_cycle: disturbance_until - now,
            })
        })
    };
    let mut mgr = OnlineTestManager::new(
        ManagerConfig::default(),
        schedule.components,
        schedule.store,
    );
    assert_eq!(
        mgr.run_session(&mut bench),
        SessionStatus::Completed { healthy: false },
        "{}",
        engine.name()
    );
    let s = mgr.status("ALU").unwrap();
    assert_eq!(s.class, Some(FaultClass::Transient), "{}", engine.name());
    assert_eq!(s.health, Health::Suspect, "{}", engine.name());
    assert!(mgr.quarantined().is_empty());
    assert!(
        mgr.clock_cycles() > disturbance_until,
        "the backoff must carry the retry past the disturbance window"
    );
    // Once the disturbance has passed, the next session is clean.
    assert_eq!(
        mgr.run_session(&mut bench),
        SessionStatus::Completed { healthy: true },
        "{}",
        engine.name()
    );
    (mgr.events().to_vec(), mgr.store().clone())
}

#[test]
fn windowed_disturbance_verdicts_are_identical_under_every_engine() {
    let (ref_events, ref_store) = run_transient_scenario(ENGINES[0]);
    assert!(ref_events.iter().any(
        |e| matches!(e, ManagerEvent::Classified { class, .. } if *class == FaultClass::Transient)
    ));
    for &engine in &ENGINES[1..] {
        let (events, store) = run_transient_scenario(engine);
        assert_eq!(ref_events, events, "{} event log diverged", engine.name());
        assert_eq!(ref_store, store, "{} store diverged", engine.name());
    }
}
