//! Fault-injection campaign against the on-line test manager, at the
//! `sbst-cpu` layer: hand-written routines, gate-level `ArchFault`s in the
//! datapath, bit-flips in the golden store and artificially hung routines.
//! The invariants under test — the manager always terminates in a status,
//! never panics, and reaches the correct verdict for each injected fault
//! model — mirror the requirements for trusting the subsystem in-field.

use sbst_components::alu::alu;
use sbst_components::Component;
use sbst_cpu::manager::{
    FaultClass, FaultFreeBench, Health, ManagedComponent, ManagerConfig, OnlineTestManager,
    RetryPolicy, SessionStatus, SigLocation, SignatureStore, StorePolicy, TestBench, Verdict,
};
use sbst_cpu::{ArchFault, FaultActivity, MacKey};
use sbst_gates::Fault;
use sbst_isa::{parse_asm, Program};

/// A routine whose signature (100 + 100 = 200) has result bit 7 set, so a
/// stuck-at-0 on the ALU result bus bit 7 corrupts it to 72.
fn adder_program() -> Program {
    parse_asm(
        "li $t0, 100
         li $t1, 100
         addu $t2, $t0, $t1
         la $t3, sig
         sw $t2, 0($t3)
         break 0
         .data
         sig: .word 0",
    )
    .unwrap()
    .assemble(0, 0x1_0000)
    .unwrap()
}

const GOLDEN: u32 = 200;

fn component(name: &str) -> ManagedComponent {
    ManagedComponent {
        name: name.to_owned(),
        program: adder_program(),
        signature: SigLocation::Label("sig".to_owned()),
        expected_cycles: 32,
    }
}

fn golden_store(names: &[&str]) -> SignatureStore {
    SignatureStore::new(names.iter().map(|n| ((*n).to_owned(), GOLDEN)).collect())
}

/// The injected defect: stuck-at-0 on ALU result bit 7.
fn alu_bit7_sa0() -> (Component, Fault) {
    let comp = alu(32);
    let fault = Fault::stem_sa0(comp.ports.output("result").net(7));
    (comp, fault)
}

#[test]
fn permanent_fault_is_classified_and_quarantined() {
    let (comp, fault) = alu_bit7_sa0();
    let mut bench = |name: &str, _attempt: u32, _now: u64| {
        (name == "alu").then(|| ArchFault::new(comp.clone(), fault))
    };
    let mut mgr = OnlineTestManager::new(
        ManagerConfig::default(),
        vec![component("alu"), component("spare")],
        golden_store(&["alu", "spare"]),
    );
    let status = mgr.run_session(&mut bench);
    assert_eq!(status, SessionStatus::Completed { healthy: false });

    let alu_status = mgr.status("alu").unwrap();
    assert_eq!(alu_status.health, Health::Quarantined);
    assert_eq!(alu_status.class, Some(FaultClass::Permanent));
    assert_eq!(
        alu_status.last_verdict,
        Some(Verdict::Mismatch {
            golden: GOLDEN,
            observed: 72, // bit 7 cleared: 200 & !0x80
        })
    );
    // The fault never stops testing of the healthy component.
    assert_eq!(mgr.status("spare").unwrap().health, Health::Healthy);
    assert_eq!(mgr.status("spare").unwrap().passes, 1);

    // Subsequent sessions skip the quarantined component entirely and run
    // clean over the survivor.
    let before = mgr.status("alu").unwrap().attempts;
    assert_eq!(
        mgr.run_session(&mut bench),
        SessionStatus::Completed { healthy: true }
    );
    assert_eq!(mgr.status("alu").unwrap().attempts, before);
    assert_eq!(mgr.status("spare").unwrap().passes, 2);
}

#[test]
fn windowed_disturbance_is_classified_transient() {
    // The disturbance exists during absolute virtual cycles [0, 100_000):
    // attempt 0 lands inside it and mismatches; the exponential backoff
    // pushes the retry far past the window (first wait is 2 × the default
    // 1M-cycle period), so the mismatch is not reproduced.
    let disturbance_until = 100_000u64;
    let (comp, fault) = alu_bit7_sa0();
    let mut bench = move |name: &str, _attempt: u32, now: u64| {
        (name == "alu" && now < disturbance_until).then(|| {
            ArchFault::new(comp.clone(), fault).with_activity(FaultActivity::Window {
                from_cycle: 0,
                until_cycle: disturbance_until - now,
            })
        })
    };
    let mut mgr = OnlineTestManager::new(
        ManagerConfig::default(),
        vec![component("alu")],
        golden_store(&["alu"]),
    );
    let status = mgr.run_session(&mut bench);
    assert_eq!(status, SessionStatus::Completed { healthy: false });
    let s = mgr.status("alu").unwrap();
    assert_eq!(s.class, Some(FaultClass::Transient));
    assert_eq!(s.health, Health::Suspect);
    assert!(mgr.quarantined().is_empty());
    assert_eq!(s.attempts, 2); // mismatch, then the recovering retry
    assert!(
        mgr.clock_cycles() > disturbance_until,
        "the backoff must carry the retry past the disturbance window"
    );

    // Once the disturbance has passed, later sessions are clean again.
    assert_eq!(
        mgr.run_session(&mut bench),
        SessionStatus::Completed { healthy: true }
    );
}

#[test]
fn intermittent_activity_fault_terminates_in_a_classification() {
    // A fast intermittent duty cycle relative to the routine length: the
    // fault flickers within a single execution. Whatever verdicts result,
    // the manager must terminate with the component classified — never
    // hang or panic.
    let (comp, fault) = alu_bit7_sa0();
    let mut bench = move |name: &str, _attempt: u32, _now: u64| {
        (name == "alu").then(|| {
            ArchFault::new(comp.clone(), fault).with_activity(FaultActivity::Intermittent {
                period_cycles: 7,
                active_cycles: 3,
                phase_cycles: 0,
            })
        })
    };
    let mut mgr = OnlineTestManager::new(
        ManagerConfig::default(),
        vec![component("alu")],
        golden_store(&["alu"]),
    );
    for _ in 0..3 {
        match mgr.run_session(&mut bench) {
            SessionStatus::Completed { .. } => {}
            other => panic!("unexpected {other:?}"),
        }
        if mgr.status("alu").unwrap().health == Health::Quarantined {
            break;
        }
    }
    let s = mgr.status("alu").unwrap();
    assert!(s.attempts >= 1);
    if s.attempts > s.passes {
        assert!(s.class.is_some(), "observed failures must be classified");
    }
}

#[test]
fn hung_routine_is_aborted_and_escalates() {
    let spin = parse_asm("spin: j spin\nnop")
        .unwrap()
        .assemble(0, 0x1_0000)
        .unwrap();
    let comps = vec![
        ManagedComponent {
            name: "spinner".to_owned(),
            program: spin,
            signature: SigLocation::Address(0x1_0000),
            expected_cycles: 32,
        },
        component("spare"),
    ];
    let mut store = golden_store(&["spare"]);
    store.set("spinner", 0);
    let mut mgr = OnlineTestManager::new(ManagerConfig::default(), comps, store);
    let status = mgr.run_session(&mut FaultFreeBench);
    assert_eq!(status, SessionStatus::Completed { healthy: false });
    let s = mgr.status("spinner").unwrap();
    assert_eq!(s.health, Health::Quarantined);
    assert!(matches!(s.last_verdict, Some(Verdict::Hung { .. })));
    assert_eq!(mgr.counters().watchdog_fires, 3);
    // The spare was still tested despite the hang streak.
    assert_eq!(mgr.status("spare").unwrap().passes, 1);
}

/// A bench that mounts a fault on every run and checks that each one comes
/// back through [`TestBench::finish`] before the next run is prepared:
/// ALU result bit 7 stuck-at-0 on the "faulty" routine, and on every other
/// routine bit 31 stuck-at-0, which none of their values use.
struct HandBackBench {
    alu: Component,
    outstanding: Option<Fault>,
    mounted: u64,
    handed_back: u64,
}

impl TestBench for HandBackBench {
    fn prepare(&mut self, component: &str, _attempt: u32, _now_cycles: u64) -> Option<ArchFault> {
        assert_eq!(self.outstanding, None, "the previous mount never came back");
        let bit = if component == "faulty" { 7 } else { 31 };
        let fault = Fault::stem_sa0(self.alu.ports.output("result").net(bit));
        self.outstanding = Some(fault);
        self.mounted += 1;
        Some(ArchFault::new(self.alu.clone(), fault))
    }

    fn finish(&mut self, fault: ArchFault) {
        assert_eq!(
            self.outstanding.take(),
            Some(fault.fault()),
            "handed back a fault that is not the one mounted"
        );
        self.handed_back += 1;
    }
}

#[test]
fn every_mounted_fault_is_handed_back_exactly_once() {
    let spin = parse_asm("spin: j spin\nnop")
        .unwrap()
        .assemble(0, 0x1_0000)
        .unwrap();
    let comps = vec![
        component("healthy"),
        component("faulty"),
        ManagedComponent {
            name: "spinner".to_owned(),
            program: spin,
            signature: SigLocation::Address(0x1_0000),
            expected_cycles: 32,
        },
        ManagedComponent {
            signature: SigLocation::Label("nowhere".to_owned()),
            ..component("unresolvable")
        },
        ManagedComponent {
            program: parse_asm("li $t0, 1\nlw $t1, 0($t0)\nbreak 0")
                .unwrap()
                .assemble(0, 0x1_0000)
                .unwrap(),
            signature: SigLocation::Address(0x1_0000),
            ..component("misaligned")
        },
    ];
    let mut store = golden_store(&["healthy", "faulty", "unresolvable", "misaligned"]);
    store.set("spinner", 0);
    let config = ManagerConfig {
        store_policy: StorePolicy::Recapture,
        ..ManagerConfig::default()
    };
    let mut mgr = OnlineTestManager::new(config, comps, store);
    let mut bench = HandBackBench {
        alu: alu(32),
        outstanding: None,
        mounted: 0,
        handed_back: 0,
    };
    assert_eq!(
        mgr.run_session(&mut bench),
        SessionStatus::Completed { healthy: false }
    );
    let c = *mgr.counters();
    assert!(c.passes > 0 && c.mismatches > 0, "{c:?}");
    assert!(c.watchdog_fires > 0, "{c:?}");
    // Crashed both by a CPU error and by an unresolvable signature.
    assert_eq!(c.crashes, 6, "{c:?}");
    assert_eq!(bench.handed_back, c.attempts);
    // Golden recapture after a store flip runs routines outside any
    // attempt; their mounts come back too.
    mgr.store_mut().corrupt("healthy", 0x0000_0080);
    assert_eq!(
        mgr.run_session(&mut bench),
        SessionStatus::Completed { healthy: true }
    );
    assert_eq!(mgr.counters().store_recaptures, 1);
    assert!(bench.handed_back > mgr.counters().attempts);
    assert_eq!(bench.outstanding, None);
    assert_eq!(bench.handed_back, bench.mounted);
}

#[test]
fn store_bit_flip_halts_under_halt_policy() {
    let mut mgr = OnlineTestManager::new(
        ManagerConfig::default(),
        vec![component("alu")],
        golden_store(&["alu"]),
    );
    mgr.store_mut().corrupt("alu", 0x0000_0080);
    assert_eq!(mgr.run_session(&mut FaultFreeBench), SessionStatus::Halted);
    assert!(mgr.is_halted());
    assert_eq!(
        mgr.counters().attempts,
        0,
        "no verdict from a bad reference"
    );
    // Halt is sticky.
    assert_eq!(mgr.run_session(&mut FaultFreeBench), SessionStatus::Halted);
}

#[test]
fn store_bit_flip_recaptures_under_recapture_policy() {
    let config = ManagerConfig {
        store_policy: StorePolicy::Recapture,
        ..ManagerConfig::default()
    };
    let mut mgr = OnlineTestManager::new(config, vec![component("alu")], golden_store(&["alu"]));
    mgr.store_mut().corrupt("alu", 0x0000_0080);
    assert!(!mgr.store().verify());
    assert_eq!(
        mgr.run_session(&mut FaultFreeBench),
        SessionStatus::Completed { healthy: true }
    );
    assert!(mgr.store().verify());
    assert_eq!(mgr.store().get("alu"), Some(GOLDEN));
    assert_eq!(mgr.counters().store_recaptures, 1);
}

#[test]
fn recapture_on_a_faulty_machine_still_detects_via_consistency() {
    // Dangerous corner: the store is corrupted while a permanent fault is
    // present, and the policy re-captures the golden values *on the faulty
    // machine*. The manager then consistently sees the faulty signature —
    // sessions pass (the reference is poisoned), which is exactly why
    // `Halt` is the conservative default. The invariant tested here is
    // that the flow terminates deterministically in that state.
    let (comp, fault) = alu_bit7_sa0();
    let mut bench = |name: &str, _attempt: u32, _now: u64| {
        (name == "alu").then(|| ArchFault::new(comp.clone(), fault))
    };
    let config = ManagerConfig {
        store_policy: StorePolicy::Recapture,
        ..ManagerConfig::default()
    };
    let mut mgr = OnlineTestManager::new(config, vec![component("alu")], golden_store(&["alu"]));
    mgr.store_mut().corrupt("alu", 0x0000_0001);
    assert_eq!(
        mgr.run_session(&mut bench),
        SessionStatus::Completed { healthy: true }
    );
    // Re-captured on the faulty machine: the poisoned reference is the
    // faulty signature, and the store is sealed over it.
    assert_eq!(mgr.store().get("alu"), Some(72));
    assert!(mgr.store().verify());
}

#[test]
fn recapture_poisoning_is_rejected_by_the_replica_cross_check() {
    // The hardened counterpart to the test above, closing the
    // recapture-poisoning hole: the same corrupted-store-plus-permanent-
    // fault corner, but with a MAC key and an independent replica
    // installed. The poisoned fresh capture (72) disagrees with the
    // replica's witness (200), is rejected, and the true golden reference
    // survives — so the ALU's next visit detects the fault and
    // quarantines it instead of normalizing it into the references.
    let (comp, fault) = alu_bit7_sa0();
    let mut bench = |name: &str, _attempt: u32, _now: u64| {
        (name == "alu").then(|| ArchFault::new(comp.clone(), fault))
    };
    let key = MacKey::from_seed(0x7E57_0001);
    let config = ManagerConfig {
        store_policy: StorePolicy::Recapture,
        store_key: key,
        ..ManagerConfig::default()
    };
    let store = SignatureStore::with_key(
        vec![("alu".to_owned(), GOLDEN), ("spare".to_owned(), GOLDEN)],
        &key,
    );
    let mut mgr = OnlineTestManager::new(config, vec![component("alu"), component("spare")], store);
    mgr.install_replica();
    mgr.store_mut().corrupt("alu", 0x0000_0001);

    assert_eq!(
        mgr.run_session(&mut bench),
        SessionStatus::Completed { healthy: false }
    );
    assert_eq!(mgr.counters().tamper_forgeries, 1);
    assert!(
        mgr.counters().recapture_rejects >= 1,
        "the poisoned capture must be rejected by the cross-check"
    );
    assert_eq!(
        mgr.store().get("alu"),
        Some(GOLDEN),
        "the replica's witness wins the disagreement"
    );
    assert_eq!(mgr.status("alu").unwrap().health, Health::Quarantined);
    assert_eq!(
        mgr.status("alu").unwrap().class,
        Some(FaultClass::Permanent)
    );
    // The healthy component was restored, re-sealed and tested normally.
    assert_eq!(mgr.status("spare").unwrap().passes, 1);
}

#[test]
fn stale_snapshot_replay_is_detected_and_healed() {
    // Replay defense end-to-end: an attacker records the pristine keyed
    // epoch-0 snapshot, lets a legitimate heal advance the seal epoch,
    // then swaps the recording back in. The seal verifies — only the
    // mirrored epoch exposes it.
    let key = MacKey::from_seed(0xA11C_E5EA);
    let config = ManagerConfig {
        store_policy: StorePolicy::Recapture,
        store_key: key,
        ..ManagerConfig::default()
    };
    let store = SignatureStore::with_key(vec![("alu".to_owned(), GOLDEN)], &key);
    let pristine = store.clone();
    let mut mgr = OnlineTestManager::new(config, vec![component("alu")], store);
    mgr.install_replica();

    // A detected bit flip forces a recapture, which advances the epoch.
    mgr.store_mut().corrupt("alu", 0x0000_0010);
    assert_eq!(
        mgr.run_session(&mut FaultFreeBench),
        SessionStatus::Completed { healthy: true }
    );
    assert_eq!(mgr.counters().tamper_forgeries, 1);
    assert!(mgr.expected_epoch() >= 1);

    // The replayed snapshot is validly sealed but stale.
    *mgr.store_mut() = pristine;
    assert_eq!(
        mgr.run_session(&mut FaultFreeBench),
        SessionStatus::Completed { healthy: true }
    );
    assert_eq!(mgr.counters().tamper_replays, 1);
    assert!(
        mgr.expected_epoch() >= 2,
        "healing must outrun every epoch the attacker may hold a snapshot of"
    );
}

#[test]
fn corruption_at_a_preemption_boundary_is_caught_on_resume() {
    // Regression for the resumed-session audit hole: the store audit used
    // to run only at fresh session starts, so corruption landing while a
    // session was parked at a preemption boundary was trusted on resume.
    let config = ManagerConfig {
        quantum_cycles: Some(1),
        ..ManagerConfig::default()
    };
    let mut mgr = OnlineTestManager::new(
        config,
        vec![component("alu"), component("spare")],
        golden_store(&["alu", "spare"]),
    );
    assert_eq!(
        mgr.run_session(&mut FaultFreeBench),
        SessionStatus::Preempted
    );
    assert_eq!(mgr.status("spare").unwrap().attempts, 0);
    // Corruption lands while the session is parked; the resumed call must
    // re-audit before trusting any verdict against the bad reference.
    mgr.store_mut().corrupt("spare", 0x0000_0100);
    assert_eq!(mgr.run_session(&mut FaultFreeBench), SessionStatus::Halted);
    assert!(mgr.is_halted());
    assert_eq!(mgr.counters().tamper_forgeries, 1);
    assert_eq!(
        mgr.status("spare").unwrap().attempts,
        0,
        "the parked component must never be judged against a forged reference"
    );
}

#[test]
fn preemption_resumes_around_an_injected_fault() {
    let (comp, fault) = alu_bit7_sa0();
    let mut bench = |name: &str, _attempt: u32, _now: u64| {
        (name == "alu").then(|| ArchFault::new(comp.clone(), fault))
    };
    let config = ManagerConfig {
        quantum_cycles: Some(1),
        ..ManagerConfig::default()
    };
    let mut mgr = OnlineTestManager::new(
        config,
        vec![component("spare"), component("alu"), component("tail")],
        golden_store(&["spare", "alu", "tail"]),
    );
    // Session 1 spans three run_session calls: each quantum admits one
    // component (the ALU's retries burn its whole visit inside one call).
    assert_eq!(mgr.run_session(&mut bench), SessionStatus::Preempted);
    assert_eq!(mgr.run_session(&mut bench), SessionStatus::Preempted);
    assert_eq!(
        mgr.run_session(&mut bench),
        SessionStatus::Completed { healthy: false }
    );
    assert_eq!(mgr.sessions_started(), 1);
    assert_eq!(mgr.counters().preemptions, 2);
    // Checkpointing preserved per-component outcomes on both sides of the
    // faulty component.
    assert_eq!(mgr.status("spare").unwrap().passes, 1);
    assert_eq!(mgr.status("alu").unwrap().health, Health::Quarantined);
    assert_eq!(mgr.status("tail").unwrap().passes, 1);
}

#[test]
fn campaign_always_terminates_without_panicking() {
    // A chaotic bench: the fault comes and goes per (component, attempt)
    // in a fixed pseudo-random pattern. Drive many sessions and assert the
    // manager always returns a status and its counters stay coherent.
    let (comp, fault) = alu_bit7_sa0();
    let mut mix = 0x9e37u32;
    let mut bench = move |name: &str, attempt: u32, now: u64| {
        mix = mix.wrapping_mul(0x0019_660d).wrapping_add(0x3c6e_f35f);
        let flaky = (mix >> 16) & 1 == 0;
        (name == "alu" && (flaky || attempt == 0) && now % 3 != 2)
            .then(|| ArchFault::new(comp.clone(), fault))
    };
    let retry = RetryPolicy {
        max_retries: 2,
        permanent_threshold: 4,
        ..RetryPolicy::default()
    };
    let config = ManagerConfig {
        retry,
        ..ManagerConfig::default()
    };
    let mut mgr = OnlineTestManager::new(
        config,
        vec![component("alu"), component("spare")],
        golden_store(&["alu", "spare"]),
    );
    for _ in 0..10 {
        match mgr.run_session(&mut bench) {
            SessionStatus::Completed { .. } | SessionStatus::Preempted => {}
            SessionStatus::Halted => panic!("no store corruption was injected"),
        }
    }
    let c = mgr.counters();
    assert_eq!(
        c.attempts,
        c.passes + c.mismatches + c.watchdog_fires + c.crashes
    );
    assert_eq!(c.crashes, 0);
    assert_eq!(c.watchdog_fires, 0);
    // The healthy component never produced a failed verdict.
    let spare = mgr.status("spare");
    if let Some(spare) = spare {
        assert_eq!(spare.attempts, spare.passes);
    }
}

/// Mounts ALU result bit 7 stuck-at-0 on every run, with an activity
/// window that never opens: the hardware behaves fault-free, but a mounted
/// fault makes the manager execute every run instead of replaying the
/// schedule's fault-free record.
#[derive(Default)]
struct InertFaultBench {
    mount: Option<ArchFault>,
    mounted: u64,
}

impl TestBench for InertFaultBench {
    fn prepare(&mut self, _component: &str, _attempt: u32, _now_cycles: u64) -> Option<ArchFault> {
        self.mounted += 1;
        let mount = self.mount.take().unwrap_or_else(|| {
            let (comp, fault) = alu_bit7_sa0();
            ArchFault::new(comp, fault)
        });
        Some(mount.with_activity(FaultActivity::Window {
            from_cycle: u64::MAX,
            until_cycle: u64::MAX,
        }))
    }

    fn finish(&mut self, fault: ArchFault) {
        self.mount = Some(fault);
    }
}

/// Everything a manager run leaves behind that a replay could disturb.
#[derive(Debug, PartialEq)]
struct Observed {
    counters: sbst_cpu::manager::ManagerCounters,
    events: Vec<sbst_cpu::manager::ManagerEvent>,
    clock_cycles: u64,
    store: SignatureStore,
    expected_epoch: u64,
    quarantined: Vec<String>,
}

/// Runs `scenario` once under the fault-free bench and once under the
/// inert-fault bench; returns what each observed and how many runs the
/// fault-free manager replayed.
fn replayed_vs_executed(
    scenario: impl Fn(&mut dyn TestBench) -> OnlineTestManager,
) -> (Observed, Observed, u64) {
    let observe = |mgr: &OnlineTestManager| Observed {
        counters: *mgr.counters(),
        events: mgr.events().to_vec(),
        clock_cycles: mgr.clock_cycles(),
        store: mgr.store().clone(),
        expected_epoch: mgr.expected_epoch(),
        quarantined: mgr.quarantined().to_vec(),
    };
    let replayed = scenario(&mut FaultFreeBench);
    let mut inert = InertFaultBench::default();
    let executed = scenario(&mut inert);
    assert_eq!(
        executed.replayed_attempts(),
        0,
        "a mounted fault never replays"
    );
    assert!(
        inert.mounted >= executed.counters().attempts,
        "every attempt mounted the inert fault"
    );
    (
        observe(&replayed),
        observe(&executed),
        replayed.replayed_attempts(),
    )
}

#[test]
fn replaying_fault_free_runs_changes_nothing_observable() {
    // Plain periodic sessions over two healthy routines.
    let (replayed, executed, replays) = replayed_vs_executed(|bench| {
        let mut mgr = OnlineTestManager::new(
            ManagerConfig::default(),
            vec![component("alu"), component("shifter")],
            golden_store(&["alu", "shifter"]),
        );
        for _ in 0..3 {
            mgr.run_session(bench);
            mgr.advance_clock(10_000);
        }
        mgr
    });
    assert_eq!(replayed, executed);
    assert_eq!(replays, 4, "all but each routine's first run replay");
    assert_eq!(replayed.counters.passes, 6);

    // A reference that never matches: mismatches, backoffs, permanent
    // classification and quarantine, while the other routine passes.
    let (replayed, executed, replays) = replayed_vs_executed(|bench| {
        let mut store = golden_store(&["alu", "shifter"]);
        store.set("shifter", GOLDEN ^ 1);
        let mut mgr = OnlineTestManager::new(
            ManagerConfig::default(),
            vec![component("alu"), component("shifter")],
            store,
        );
        for _ in 0..3 {
            mgr.run_session(bench);
        }
        mgr
    });
    assert_eq!(replayed, executed);
    assert!(replays > 0);
    assert_eq!(replayed.counters.mismatches, 3);
    assert_eq!(replayed.quarantined, ["shifter"]);

    // Recapture with a replica: a bit flip and then a stale-epoch replay
    // force two cross-checked captures and epoch-advancing re-seals.
    let (replayed, executed, replays) = replayed_vs_executed(|bench| {
        let key = MacKey::from_seed(0x5EED);
        let config = ManagerConfig {
            store_policy: StorePolicy::Recapture,
            store_key: key,
            ..ManagerConfig::default()
        };
        let store = SignatureStore::with_key(
            vec![("alu".to_owned(), GOLDEN), ("shifter".to_owned(), GOLDEN)],
            &key,
        );
        let pristine = store.clone();
        let mut mgr =
            OnlineTestManager::new(config, vec![component("alu"), component("shifter")], store);
        mgr.install_replica();
        mgr.run_session(bench);
        mgr.store_mut().corrupt("alu", 0x0000_0010);
        mgr.run_session(bench);
        *mgr.store_mut() = pristine;
        mgr.run_session(bench);
        mgr
    });
    assert_eq!(replayed, executed);
    assert!(replays > 0);
    assert_eq!(replayed.counters.store_recaptures, 2);
    assert_eq!(replayed.counters.tamper_forgeries, 1);
    assert_eq!(replayed.counters.tamper_replays, 1);
    assert_eq!(replayed.counters.recapture_rejects, 0);
    assert_eq!(replayed.counters.passes, 6);
}
