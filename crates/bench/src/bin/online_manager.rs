//! Fault-injection campaign against the on-line test manager.
//!
//! ```text
//! cargo run --release -p sbst-bench --bin online_manager [-- --smoke] [--json out.json]
//! ```
//!
//! Characterizes the routine-capable 32-bit CUTs into a managed schedule
//! (golden signatures sealed in a checksummed store, watchdog budgets from
//! the measured cycle counts), then drives the manager through every
//! failure mode the subsystem defends against:
//!
//! - **healthy** — repeated clean sessions, no spurious verdicts;
//! - **permanent** — a gate-level stuck-at mounted on the ALU every
//!   attempt: retries exhaust, the ALU is classified permanent and
//!   quarantined, and the schedule is regenerated over the survivors;
//! - **transient** — the same fault mounted on the first attempt only:
//!   the backed-off retry passes and the streak classifies transient;
//! - **hung** — a routine that never terminates: the cycle-budget
//!   watchdog aborts it and the streak escalates to quarantine;
//! - **store-halt / store-recapture** — a bit-flip in the golden store
//!   caught by the checksum, under both recovery policies;
//! - **preemption** — a tiny quantum checkpoints the session mid-pass and
//!   the next call resumes without re-testing finished components.
//!
//! `--adversary` adds the red-team campaign: an [`Adversary`] driver
//! mounts bit flips in every persisted store field, a full-entry forgery
//! with a recomputed FNV seal, a stale-epoch replay of a validly-sealed
//! snapshot, and a recapture-poisoning attempt from a faulty core — the
//! keyed store must detect 100% of the injected tampers with zero false
//! alarms on the clean control run (the `adversary` report object, gated
//! by ci.sh). The MAC key derives from `SBST_STORE_KEY` (a 64-bit seed)
//! or a built-in default.
//!
//! Every scenario must terminate in the expected status — the binary exits
//! nonzero otherwise, which is what ci.sh gates on. `--json <path>` writes
//! the machine-readable report (per-scenario manager state, counters and
//! the ordered event log). Each scenario also reports `replayed_attempts`:
//! the fault-free routine runs its manager answered from the schedule's
//! record instead of executing (observational, not a manager counter).

use std::time::Instant;

use sbst_bench::{json_output_path, store_key_seed_from_env, write_report_if_requested};
use sbst_components::ComponentKind;
use sbst_core::plan::{build_managed_schedule, plan_excluding, ManagedSchedule};
use sbst_core::report::manager_to_json;
use sbst_core::{Cut, JsonValue, MacKey, RunReport};
use sbst_cpu::manager::{
    FaultFreeBench, ManagedComponent, ManagerConfig, OnlineTestManager, SessionStatus, SigLocation,
    SignatureStore, StorePolicy,
};
use sbst_cpu::ArchFault;
use sbst_gates::Fault;
use sbst_isa::parse_asm;

/// Default MAC-key seed when `SBST_STORE_KEY` is unset.
const DEFAULT_KEY_SEED: u64 = 0xC0DE_5EA1;

/// One campaign scenario's outcome.
struct ScenarioResult {
    name: &'static str,
    pass: bool,
    detail: String,
    manager: JsonValue,
    /// Fault-free runs the manager replayed instead of executing
    /// (observational; not a manager counter).
    replayed_attempts: u64,
}

/// A bench mounting a stuck-at-0 on the ALU result bus whenever
/// `active(attempt)` says so.
fn alu_fault_bench(
    cut: &Cut,
    active: impl Fn(u32) -> bool,
) -> impl FnMut(&str, u32, u64) -> Option<ArchFault> {
    let component = cut.component.clone();
    let fault = Fault::stem_sa0(cut.component.ports.output("result").net(7));
    move |name: &str, attempt: u32, _now: u64| {
        (name == "ALU" && active(attempt)).then(|| ArchFault::new(component.clone(), fault))
    }
}

/// A manager over a copy of the characterized schedule.
fn manager(config: ManagerConfig, schedule: &ManagedSchedule) -> OnlineTestManager {
    OnlineTestManager::new(config, schedule.components.clone(), schedule.store.clone())
}

fn snapshot(
    name: &'static str,
    pass: bool,
    detail: String,
    mgr: &OnlineTestManager,
) -> ScenarioResult {
    ScenarioResult {
        name,
        pass,
        detail,
        manager: manager_to_json(mgr),
        replayed_attempts: mgr.replayed_attempts(),
    }
}

/// Red-team tally: how many tampers the adversary mounted, how many the
/// keyed store detected, and how many detections fired with nothing
/// mounted. The campaign passes iff `detected == injected` and
/// `false_alarms == 0`.
#[derive(Debug, Default)]
struct Adversary {
    injected: u64,
    detected: u64,
    false_alarms: u64,
}

impl Adversary {
    /// Records one mounted tamper.
    fn inject(&mut self) {
        self.injected += 1;
    }

    /// Absorbs an attacked manager's tamper detections.
    fn observe(&mut self, mgr: &OnlineTestManager) {
        let c = mgr.counters();
        self.detected += c.tamper_forgeries + c.tamper_replays;
    }

    /// Absorbs a *clean* manager's tamper detections as false alarms.
    fn observe_clean(&mut self, mgr: &OnlineTestManager) {
        let c = mgr.counters();
        self.false_alarms += c.tamper_forgeries + c.tamper_replays;
    }

    fn to_json(&self) -> JsonValue {
        JsonValue::object([
            ("attacks_injected", JsonValue::UInt(self.injected)),
            ("attacks_detected", JsonValue::UInt(self.detected)),
            ("false_alarms", JsonValue::UInt(self.false_alarms)),
        ])
    }
}

/// Re-seals a characterization store under the campaign key (schedules
/// are sealed with the compatibility key; keyed managers need a keyed
/// golden store, exactly like the fleet characterizer provisions one).
fn keyed_store(store: &SignatureStore, key: &MacKey) -> SignatureStore {
    SignatureStore::with_key(store.entries().to_vec(), key)
}

/// The red-team campaign: every attack class from the threat model,
/// asserted 100% detected, plus a clean keyed control run asserted
/// alarm-free.
fn run_adversary_campaign(
    schedule: &ManagedSchedule,
    alu_cut: &Cut,
    key: &MacKey,
    healthy_sessions: u32,
    adversary: &mut Adversary,
) -> Vec<ScenarioResult> {
    let mut results = Vec::new();
    let keyed_config = ManagerConfig {
        store_key: *key,
        ..ManagerConfig::default()
    };

    // -- single-bit flips in every persisted store field ----------------
    {
        let mut detected_all = true;
        let mut last = None;
        for field in 0..5u32 {
            let store = keyed_store(&schedule.store, key);
            let mut mgr = OnlineTestManager::new(keyed_config, schedule.components.clone(), store);
            match field {
                0 => mgr.store_mut().corrupt("ALU", 1 << 16),
                1 => mgr.store_mut().corrupt_name(0, 0, 1),
                2 => mgr.store_mut().corrupt_seal(1 << 63),
                3 => mgr.store_mut().corrupt_epoch(1),
                4 => mgr.store_mut().corrupt_checksum(1 << 7),
                _ => unreachable!(),
            }
            adversary.inject();
            let status = mgr.run_session(&mut FaultFreeBench);
            adversary.observe(&mgr);
            detected_all &= status == SessionStatus::Halted && mgr.counters().tamper_forgeries == 1;
            last = Some(mgr);
        }
        let mgr = last.unwrap();
        results.push(snapshot(
            "adv-bit-flip",
            detected_all,
            "5 single-bit flips (value, name, seal, epoch, checksum), all caught as forgery"
                .to_owned(),
            &mgr,
        ));
    }

    // -- full-entry forgery with recomputed FNV seal --------------------
    {
        let golden = schedule.store.get("ALU").unwrap();
        let store = keyed_store(&schedule.store, key);
        let mut mgr = OnlineTestManager::new(keyed_config, schedule.components.clone(), store);
        mgr.store_mut().forge("ALU", golden ^ 0xBAD);
        adversary.inject();
        let fnv_fooled = mgr.store().verify();
        let status = mgr.run_session(&mut FaultFreeBench);
        adversary.observe(&mgr);
        let pass =
            fnv_fooled && status == SessionStatus::Halted && mgr.counters().tamper_forgeries == 1;
        results.push(snapshot(
            "adv-forge-fnv",
            pass,
            "forged entry passes the unkeyed FNV check but fails the keyed seal".to_owned(),
            &mgr,
        ));
    }

    // -- stale-epoch replay of a validly-sealed snapshot ----------------
    {
        let store = keyed_store(&schedule.store, key);
        let config = ManagerConfig {
            store_policy: StorePolicy::Recapture,
            ..keyed_config
        };
        let mut mgr = OnlineTestManager::new(config, schedule.components.clone(), store);
        mgr.install_replica();
        let stale_snapshot = mgr.store().clone(); // validly sealed, epoch 0
        let mut pass =
            mgr.run_session(&mut FaultFreeBench) == SessionStatus::Completed { healthy: true };
        // Stage 1: provoke a heal so the epoch advances past the snapshot.
        mgr.store_mut().corrupt("ALU", 1 << 3);
        adversary.inject();
        pass &= mgr.run_session(&mut FaultFreeBench) == SessionStatus::Completed { healthy: true }
            && mgr.counters().tamper_forgeries == 1
            && mgr.store().epoch() >= 1;
        // Stage 2: swap the pre-heal snapshot back in.
        *mgr.store_mut() = stale_snapshot;
        adversary.inject();
        pass &= mgr.run_session(&mut FaultFreeBench) == SessionStatus::Completed { healthy: true }
            && mgr.counters().tamper_replays == 1;
        // The healed store keeps working.
        pass &= mgr.run_session(&mut FaultFreeBench) == SessionStatus::Completed { healthy: true };
        adversary.observe(&mgr);
        results.push(snapshot(
            "adv-replay",
            pass,
            format!(
                "stale epoch-0 snapshot detected as replay; store healed at epoch {}",
                mgr.store().epoch()
            ),
            &mgr,
        ));
    }

    // -- recapture poisoning from a faulty core -------------------------
    {
        let golden = schedule.store.get("ALU").unwrap();
        let store = keyed_store(&schedule.store, key);
        let config = ManagerConfig {
            store_policy: StorePolicy::Recapture,
            ..keyed_config
        };
        let mut mgr = OnlineTestManager::new(config, schedule.components.clone(), store);
        mgr.install_replica();
        // The core is permanently faulty *and* the attacker corrupts the
        // store, hoping the recapture bakes the faulty signature in.
        let mut bench = alu_fault_bench(alu_cut, |_| true);
        mgr.store_mut().corrupt("ALU", 1 << 9);
        adversary.inject();
        let status = mgr.run_session(&mut bench);
        adversary.observe(&mgr);
        let pass = status == SessionStatus::Completed { healthy: false }
            && mgr.counters().tamper_forgeries == 1
            && mgr.counters().recapture_rejects >= 1
            && mgr.store().get("ALU") == Some(golden)
            && mgr.quarantined() == ["ALU"];
        results.push(snapshot(
            "adv-recapture-poison",
            pass,
            format!(
                "poisoned capture rejected by the replica cross-check ({} reject(s)); \
                 golden stays {golden:#010x} and the faulty ALU is quarantined",
                mgr.counters().recapture_rejects
            ),
            &mgr,
        ));
    }

    // -- clean keyed control: zero false alarms -------------------------
    {
        let store = keyed_store(&schedule.store, key);
        let config = ManagerConfig {
            store_policy: StorePolicy::Recapture,
            ..keyed_config
        };
        let mut mgr = OnlineTestManager::new(config, schedule.components.clone(), store);
        mgr.install_replica();
        let mut ok = true;
        for _ in 0..healthy_sessions {
            ok &=
                mgr.run_session(&mut FaultFreeBench) == SessionStatus::Completed { healthy: true };
        }
        adversary.observe_clean(&mgr);
        let c = mgr.counters();
        let pass =
            ok && c.tamper_forgeries == 0 && c.tamper_replays == 0 && c.store_corruptions == 0;
        results.push(snapshot(
            "adv-clean",
            pass,
            format!("{healthy_sessions} clean keyed sessions, zero tamper alarms"),
            &mgr,
        ));
    }

    results
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let adversary_mode = args.iter().any(|a| a == "--adversary");
    let json_path = json_output_path(&args).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2);
    });
    let start = Instant::now();

    // The managed inventory: 32-bit so gate-level faults can be mounted in
    // the datapath. Characterization is execution-only (no fault sim), so
    // even the full inventory is fast; smoke just trims it further.
    let cuts = if smoke {
        vec![Cut::alu(32), Cut::shifter(32)]
    } else {
        vec![Cut::alu(32), Cut::shifter(32), Cut::multiplier(32)]
    };
    let healthy_sessions: u32 = if smoke { 2 } else { 5 };
    eprintln!(
        "characterizing {} routine-capable CUT(s) into a managed schedule...",
        cuts.len()
    );
    let schedule = build_managed_schedule(&cuts).expect("characterization succeeds");
    for comp in &schedule.components {
        eprintln!(
            "  {:<12} {:>6} expected cycles, golden {:#010x}",
            comp.name,
            comp.expected_cycles,
            schedule.store.get(&comp.name).unwrap()
        );
    }
    let alu_cut = &cuts[0];
    let mut results: Vec<ScenarioResult> = Vec::new();

    // -- healthy --------------------------------------------------------
    {
        let mut mgr = manager(ManagerConfig::default(), &schedule);
        let mut ok = true;
        for _ in 0..healthy_sessions {
            ok &=
                mgr.run_session(&mut FaultFreeBench) == SessionStatus::Completed { healthy: true };
        }
        let pass = ok
            && mgr.counters().passes == u64::from(healthy_sessions) * cuts.len() as u64
            && mgr.quarantined().is_empty();
        results.push(snapshot(
            "healthy",
            pass,
            format!(
                "{} sessions, {} passes, 0 quarantines",
                healthy_sessions,
                mgr.counters().passes
            ),
            &mgr,
        ));
    }

    // -- permanent fault → quarantine → reduced schedule ----------------
    {
        let mut mgr = manager(ManagerConfig::default(), &schedule);
        let mut bench = alu_fault_bench(alu_cut, |_| true);
        let status = mgr.run_session(&mut bench);
        let quarantined = mgr.quarantined().to_vec();
        let alu_attempts = mgr.status("ALU").map(|s| s.attempts).unwrap_or(0);
        let mut pass = status == SessionStatus::Completed { healthy: false }
            && quarantined == ["ALU"]
            && mgr.counters().quarantines == 1;
        // Characterization is per component, so the survivors' schedule is
        // the full one without the ALU; keep testing it.
        let reduced: Vec<ManagedComponent> = schedule
            .components
            .iter()
            .filter(|c| c.name != "ALU")
            .cloned()
            .collect();
        let reduced_store = SignatureStore::new(
            schedule
                .store
                .entries()
                .iter()
                .filter(|(name, _)| name != "ALU")
                .cloned()
                .collect(),
        );
        let survivors = reduced.len();
        mgr.adopt_schedule(reduced, reduced_store);
        pass &= mgr.run_session(&mut bench) == SessionStatus::Completed { healthy: true };
        results.push(snapshot(
            "permanent",
            pass,
            format!(
                "ALU quarantined after {alu_attempts} attempts; \
                 {survivors} survivor(s) still tested clean"
            ),
            &mgr,
        ));
    }

    // -- transient fault → retry recovers → classified transient --------
    {
        let mut mgr = manager(ManagerConfig::default(), &schedule);
        let mut bench = alu_fault_bench(alu_cut, |attempt| attempt == 0);
        let status = mgr.run_session(&mut bench);
        let s = mgr.status("ALU").unwrap();
        let pass = status == SessionStatus::Completed { healthy: false }
            && s.class == Some(sbst_cpu::manager::FaultClass::Transient)
            && s.health == sbst_cpu::manager::Health::Suspect
            && mgr.quarantined().is_empty();
        results.push(snapshot(
            "transient",
            pass,
            format!(
                "mismatch on attempt 0, retry passed: class={:?} health={:?}",
                s.class, s.health
            ),
            &mgr,
        ));
    }

    // -- hung routine → watchdog abort → quarantine ---------------------
    {
        let spin = parse_asm("spin: j spin\nnop")
            .unwrap()
            .assemble(0, 0x1_0000)
            .unwrap();
        let comps = vec![ManagedComponent {
            name: "spinner".to_owned(),
            program: spin,
            signature: SigLocation::Address(0x1_0000),
            expected_cycles: 50,
        }];
        let store = SignatureStore::new(vec![("spinner".to_owned(), 0)]);
        let mut mgr = OnlineTestManager::new(ManagerConfig::default(), comps, store);
        let status = mgr.run_session(&mut FaultFreeBench);
        let pass = status == SessionStatus::Completed { healthy: false }
            && mgr.quarantined() == ["spinner"]
            && mgr.counters().watchdog_fires >= 1;
        results.push(snapshot(
            "hung",
            pass,
            format!(
                "watchdog fired {} time(s), spinner quarantined",
                mgr.counters().watchdog_fires
            ),
            &mgr,
        ));
    }

    // -- corrupted store: halt policy -----------------------------------
    {
        let mut mgr = manager(ManagerConfig::default(), &schedule);
        mgr.store_mut().corrupt("ALU", 0x0001_0000);
        let pass = mgr.run_session(&mut FaultFreeBench) == SessionStatus::Halted
            && mgr.is_halted()
            && mgr.counters().attempts == 0;
        results.push(snapshot(
            "store-halt",
            pass,
            "checksum caught the bit-flip; testing halted before any attempt".to_owned(),
            &mgr,
        ));
    }

    // -- corrupted store: recapture policy ------------------------------
    {
        let golden_alu = schedule.store.get("ALU").unwrap();
        let config = ManagerConfig {
            store_policy: StorePolicy::Recapture,
            ..ManagerConfig::default()
        };
        let mut mgr = manager(config, &schedule);
        mgr.store_mut().corrupt("ALU", 0x0001_0000);
        let status = mgr.run_session(&mut FaultFreeBench);
        let pass = status == SessionStatus::Completed { healthy: true }
            && mgr.store().verify()
            && mgr.store().get("ALU") == Some(golden_alu)
            && mgr.counters().store_recaptures == 1;
        results.push(snapshot(
            "store-recapture",
            pass,
            format!("store re-captured and re-sealed; ALU golden restored to {golden_alu:#010x}"),
            &mgr,
        ));
    }

    // -- quantum preemption → checkpoint → resume -----------------------
    {
        let config = ManagerConfig {
            quantum_cycles: Some(1),
            ..ManagerConfig::default()
        };
        let n = schedule.components.len();
        let mut mgr = manager(config, &schedule);
        let mut preemptions = 0u32;
        let mut status = mgr.run_session(&mut FaultFreeBench);
        while status == SessionStatus::Preempted {
            preemptions += 1;
            status = mgr.run_session(&mut FaultFreeBench);
        }
        let pass = status == SessionStatus::Completed { healthy: true }
            && preemptions as usize == n - 1
            && mgr.counters().attempts == n as u64
            && mgr.sessions_started() == 1;
        results.push(snapshot(
            "preemption",
            pass,
            format!("{preemptions} preemption(s), every component tested exactly once"),
            &mgr,
        ));
    }

    // -- red-team adversary campaign (--adversary) ----------------------
    let mut adversary = Adversary::default();
    if adversary_mode {
        let key_seed = store_key_seed_from_env().unwrap_or(DEFAULT_KEY_SEED);
        let key = MacKey::from_seed(key_seed);
        eprintln!("running the red-team adversary campaign (key seed {key_seed:#x})...");
        results.extend(run_adversary_campaign(
            &schedule,
            alu_cut,
            &key,
            healthy_sessions,
            &mut adversary,
        ));
    }
    let adversary_pass = adversary.detected == adversary.injected && adversary.false_alarms == 0;

    // -- coverage re-evaluation over the survivors ----------------------
    // plan_excluding grades routines gate-level, so run it on the 8-bit
    // inventory (same flow, seconds instead of minutes).
    eprintln!("re-planning coverage over the post-quarantine inventory (8-bit)...");
    let plan_cuts = vec![Cut::alu(8), Cut::shifter(8), Cut::pc_unit(8, 4)];
    let full_plan = plan_excluding(&plan_cuts, &[], 50.0).expect("full plan");
    let reduced_plan =
        plan_excluding(&plan_cuts, &[ComponentKind::Alu], 50.0).expect("reduced plan");
    eprintln!(
        "  full plan: {} rows, {:.1}% coverage; without ALU: {} rows, {:.1}% coverage",
        full_plan.table.rows.len(),
        full_plan.table.overall_coverage.percent(),
        reduced_plan.table.rows.len(),
        reduced_plan.table.overall_coverage.percent()
    );
    let replan_ok = reduced_plan.table.rows.len() == full_plan.table.rows.len() - 1
        && reduced_plan.table.rows.iter().all(|r| r.name != "ALU");

    // -- report ---------------------------------------------------------
    println!("{:<16} {:<6} detail", "scenario", "pass");
    for r in &results {
        println!("{:<16} {:<6} {}", r.name, r.pass, r.detail);
    }
    println!(
        "{:<16} {:<6} reduced plan drops ALU row, keeps {} survivors at {:.1}% coverage",
        "replan",
        replan_ok,
        reduced_plan.table.rows.len(),
        reduced_plan.table.overall_coverage.percent()
    );
    if adversary_mode {
        println!(
            "{:<16} {:<6} {} attack(s) injected, {} detected, {} false alarm(s)",
            "adversary",
            adversary_pass,
            adversary.injected,
            adversary.detected,
            adversary.false_alarms
        );
    }
    let all_pass = replan_ok && adversary_pass && results.iter().all(|r| r.pass);
    let wall = start.elapsed();
    eprintln!("total wall time: {wall:?}");

    let report = RunReport::new("online_manager")
        .field("smoke", JsonValue::from(smoke))
        .field("all_pass", JsonValue::from(all_pass))
        .field("adversary", adversary.to_json())
        .field(
            "scenarios",
            JsonValue::array(results.into_iter().map(|r| {
                JsonValue::object([
                    ("name", JsonValue::from(r.name)),
                    ("pass", JsonValue::from(r.pass)),
                    ("detail", JsonValue::from(r.detail)),
                    ("manager", r.manager),
                    ("replayed_attempts", JsonValue::UInt(r.replayed_attempts)),
                ])
            })),
        )
        .field(
            "replan",
            JsonValue::object([
                ("pass", JsonValue::from(replan_ok)),
                ("rows_full", JsonValue::from(full_plan.table.rows.len())),
                (
                    "rows_reduced",
                    JsonValue::from(reduced_plan.table.rows.len()),
                ),
                (
                    "coverage_full_percent",
                    JsonValue::Float(full_plan.table.overall_coverage.percent()),
                ),
                (
                    "coverage_reduced_percent",
                    JsonValue::Float(reduced_plan.table.overall_coverage.percent()),
                ),
            ]),
        )
        .field("wall_seconds", JsonValue::Float(wall.as_secs_f64()));
    write_report_if_requested(&report, json_path.as_deref());

    if !all_pass {
        eprintln!("error: at least one campaign scenario failed its expectation");
        std::process::exit(1);
    }
}
