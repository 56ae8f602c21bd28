//! One simulated fleet node: a managed core owning a private
//! [`OnlineTestManager`] over the shared characterization, plus its
//! profile-planned fault (if any) mounted through the shared tapes.
//!
//! A node is strictly sequential — its next session is scheduled only
//! after the previous one finished — and every observable it produces is a
//! pure function of `(fleet seed, node index, virtual time)`. That is the
//! determinism argument for the whole fleet: the worker count decides
//! which thread runs a node, never *what* it computes.

use std::sync::Arc;

use sbst_cpu::manager::{
    ManagerConfig, ManagerCounters, ManagerEvent, OnlineTestManager, SessionStatus, SignatureStore,
    StorePolicy, TestBench,
};
use sbst_cpu::ArchFault;
use sbst_gates::Fault;

use crate::characterize::{FaultTargets, SharedArtifacts};
use crate::profile::{AttackKind, NodeProfile, PlannedFault, ProfileKind};

/// FNV-1a 64-bit fold over one `u64`.
pub(crate) fn fnv1a_u64(hash: u64, value: u64) -> u64 {
    let mut h = hash;
    for byte in value.to_le_bytes() {
        h ^= byte as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

pub(crate) const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

/// What one periodic session observed, for telemetry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionSample {
    /// 1-based session number on this node.
    pub session: u64,
    /// Virtual cycle the session was due (and started) at.
    pub due_cycles: u64,
    /// Node virtual clock after the session (test + backoff cycles).
    pub clock_cycles: u64,
    /// Whether every active component passed without any failed attempt.
    pub healthy: bool,
    /// Routine attempts this session.
    pub attempts: u64,
    /// Failed attempts this session (mismatch + hang + crash).
    pub failures: u64,
    /// Backed-off retries this session.
    pub backoffs: u64,
    /// Whether the node is finished (no further session before the
    /// horizon).
    pub done: bool,
}

/// A finished node's summary, merged into the fleet aggregate in
/// node-index order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeOutcome {
    /// Node index.
    pub index: u64,
    /// The node's population profile.
    pub profile: NodeProfile,
    /// Periodic sessions run before the horizon.
    pub sessions: u64,
    /// Lifetime manager counters.
    pub counters: ManagerCounters,
    /// Final virtual clock.
    pub clock_cycles: u64,
    /// Quarantined component names, in quarantine order.
    pub quarantined: Vec<String>,
    /// Store attacks the node's adversary actually mounted (0 unless the
    /// node is [`ProfileKind::Adversarial`]). The fleet tamper SLO is
    /// `tampers_detected == attacks_injected`, node by node.
    pub attacks_injected: u64,
    /// FNV-1a digest folded over every session's counter snapshot — the
    /// per-node fingerprint the fleet digest is built from.
    pub digest: u64,
    /// The ordered event log (empty unless the fleet enabled
    /// `record_events`).
    pub events: Vec<ManagerEvent>,
}

impl NodeOutcome {
    /// Tamper detections on this node (forgeries + replays).
    pub fn tampers_detected(&self) -> u64 {
        self.counters.tamper_forgeries + self.counters.tamper_replays
    }
}

/// The test bench of one session: the node's planned fault (if any) is
/// mounted while its own target's routine runs — every other routine
/// executes on fault-free hardware.
///
/// The mount lives for the session: the first attempt that needs it
/// builds it, [`TestBench::finish`] takes it back after the run, and the
/// next attempt re-arms it, so retries and recaptures mount nothing anew
/// (a tape-path mount would keep its memo too; the fleet's result-port
/// faults take the port path, which holds only a mask). It is dropped
/// with the bench when the session ends, which keeps at most one mount
/// alive per worker.
struct SessionBench<'a> {
    targets: &'a FaultTargets,
    planned: Option<(Fault, PlannedFault)>,
    mount: Option<ArchFault>,
}

impl TestBench for SessionBench<'_> {
    fn prepare(&mut self, name: &str, _attempt: u32, now: u64) -> Option<ArchFault> {
        let (fault, planned) = self.planned?;
        if self.targets[planned.target].name != name {
            return None;
        }
        // The planned window lives in fleet virtual time; the CPU's cycle
        // counter restarts per attempt, so rebase into the attempt's local
        // frame (and skip mounting once the window is entirely in the
        // past — burned-out faults cost nothing).
        let local = planned.activity.rebase(now)?;
        let mount = self
            .mount
            .take()
            .unwrap_or_else(|| self.targets.mount(planned.target, fault));
        Some(mount.with_activity(local))
    }

    fn finish(&mut self, fault: ArchFault) {
        self.mount = Some(fault);
    }
}

/// One simulated managed core.
#[derive(Debug)]
pub struct FleetNode {
    index: u64,
    profile: NodeProfile,
    artifacts: Arc<SharedArtifacts>,
    manager: OnlineTestManager,
    planned_fault: Option<Fault>,
    /// Pristine epoch-0 store snapshot, held by the adversary for the
    /// replay attack's second stage.
    pristine_store: Option<SignatureStore>,
    next_due: u64,
    sessions: u64,
    attacks_injected: u64,
    digest: u64,
}

impl FleetNode {
    /// Builds the node from the shared characterization. Cost is the
    /// per-node manager state and a private store copy — routines and
    /// tapes are refcounted, never cloned.
    pub fn new(
        index: u64,
        profile: NodeProfile,
        artifacts: Arc<SharedArtifacts>,
        record_events: bool,
    ) -> Self {
        let adversarial = profile.kind == ProfileKind::Adversarial;
        let config = ManagerConfig {
            period_cycles: profile.period_cycles,
            record_events,
            store_key: artifacts.store_key,
            // Adversarial nodes heal instead of halting: the hardened
            // recapture path (replica cross-check + epoch-advancing
            // re-seal) is exactly what the red team is probing.
            store_policy: if adversarial {
                StorePolicy::Recapture
            } else {
                ManagerConfig::default().store_policy
            },
            ..ManagerConfig::default()
        };
        let mut manager = OnlineTestManager::new(
            config,
            artifacts.components.clone(),
            artifacts.store.clone(),
        );
        if adversarial {
            manager.install_replica();
        }
        manager.advance_clock(profile.phase_cycles);
        let planned_fault = profile.fault.map(|f| {
            let target = &artifacts.targets[f.target];
            let net = target.component.ports.output(target.spec.port).net(f.bit);
            if f.stuck_at_one {
                Fault::stem_sa1(net)
            } else {
                Fault::stem_sa0(net)
            }
        });
        let pristine_store = adversarial.then(|| artifacts.store.clone());
        FleetNode {
            index,
            next_due: profile.phase_cycles,
            profile,
            artifacts,
            manager,
            planned_fault,
            pristine_store,
            sessions: 0,
            attacks_injected: 0,
            digest: FNV_OFFSET,
        }
    }

    /// Mounts the attack stage (if any) due immediately before the
    /// upcoming session, incrementing `attacks_injected` per tamper
    /// actually applied — so `tampers_detected == attacks_injected` holds
    /// even when the horizon truncates a replay's second stage.
    fn apply_due_attack(&mut self) {
        let Some(attack) = self.profile.attack else {
            return;
        };
        let upcoming = self.sessions + 1;
        let store = self.manager.store_mut();
        let Some((victim, value)) = store.entries().first().map(|(n, v)| (n.clone(), *v)) else {
            return;
        };
        let xor = 1u32 << (attack.bit % 32);
        match attack.kind {
            AttackKind::BitFlip if upcoming == attack.session => {
                store.corrupt(&victim, xor);
                self.attacks_injected += 1;
            }
            AttackKind::ForgeEntry if upcoming == attack.session => {
                // Rewrite plus recomputed public checksum: invisible to
                // the legacy verify(), caught only by the keyed seal.
                store.forge(&victim, value ^ xor);
                self.attacks_injected += 1;
            }
            AttackKind::Replay => {
                if upcoming == attack.session {
                    // Stage 1: provoke a detection so the manager heals
                    // and advances the seal epoch past the snapshot's.
                    store.corrupt(&victim, xor);
                    self.attacks_injected += 1;
                } else if upcoming == attack.session + 1 {
                    // Stage 2: swap in the pristine epoch-0 snapshot —
                    // validly sealed, stale epoch.
                    if let Some(snapshot) = self.pristine_store.clone() {
                        *self.manager.store_mut() = snapshot;
                        self.attacks_injected += 1;
                    }
                }
            }
            _ => {}
        }
    }

    /// Node index.
    pub fn index(&self) -> u64 {
        self.index
    }

    /// Virtual cycle of the next pending session.
    pub fn next_due(&self) -> u64 {
        self.next_due
    }

    /// Fault-free runs this node's manager replayed from the shared
    /// schedule's record instead of executing. Observational: it depends on
    /// which node ran each routine first, so it stays out of
    /// [`NodeOutcome`] and the digest.
    pub fn replayed_attempts(&self) -> u64 {
        self.manager.replayed_attempts()
    }

    /// Runs the session due at [`FleetNode::next_due`] and schedules the
    /// next one. `horizon_cycles` bounds the node's life: once the next
    /// due time reaches it, the sample reports `done`.
    pub fn run_due_session(&mut self, horizon_cycles: u64) -> SessionSample {
        let artifacts = Arc::clone(&self.artifacts);
        let mut bench = self.session_bench(&artifacts.targets);
        self.run_due_session_on(&mut bench, horizon_cycles)
    }

    /// The bench of one session: this node's planned fault over `targets`.
    fn session_bench<'a>(&self, targets: &'a FaultTargets) -> SessionBench<'a> {
        SessionBench {
            targets,
            planned: self.planned_fault.zip(self.profile.fault),
            mount: None,
        }
    }

    /// [`FleetNode::run_due_session`] with the session's faults chosen by
    /// `bench`.
    fn run_due_session_on(
        &mut self,
        bench: &mut dyn TestBench,
        horizon_cycles: u64,
    ) -> SessionSample {
        let due = self.next_due;
        self.apply_due_attack();
        let before = *self.manager.counters();

        let status = self.manager.run_session(bench);
        debug_assert_ne!(
            status,
            SessionStatus::Preempted,
            "fleet managers run without a quantum"
        );
        let healthy = status == SessionStatus::Completed { healthy: true };
        self.sessions += 1;

        let after = *self.manager.counters();
        // Next activation: one period after this one was due, or as soon
        // as the (possibly backed-off) session actually finished.
        let next = (due + self.profile.period_cycles).max(self.manager.clock_cycles());
        let idle = next.saturating_sub(self.manager.clock_cycles());
        self.manager.advance_clock(idle);
        self.next_due = next;

        self.fold_digest(&after);

        SessionSample {
            session: self.sessions,
            due_cycles: due,
            clock_cycles: self.manager.clock_cycles(),
            healthy,
            attempts: after.attempts - before.attempts,
            failures: (after.mismatches + after.watchdog_fires + after.crashes)
                - (before.mismatches + before.watchdog_fires + before.crashes),
            backoffs: after.backoffs - before.backoffs,
            done: self.next_due >= horizon_cycles,
        }
    }

    fn fold_digest(&mut self, c: &ManagerCounters) {
        let mut d = self.digest;
        for value in [
            self.sessions,
            c.attempts,
            c.passes,
            c.mismatches,
            c.watchdog_fires,
            c.crashes,
            c.backoffs,
            c.quarantines,
            c.transients,
            c.preemptions,
            c.sessions_completed,
            c.store_corruptions,
            c.tamper_forgeries,
            c.tamper_replays,
            c.store_recaptures,
            c.recapture_rejects,
            c.replica_compromises,
            c.store_suspensions,
            c.store_heals,
            self.attacks_injected,
            self.manager.clock_cycles(),
        ] {
            d = fnv1a_u64(d, value);
        }
        self.digest = d;
    }

    /// Finalizes the node into its outcome summary.
    pub fn finish(self) -> NodeOutcome {
        NodeOutcome {
            index: self.index,
            profile: self.profile,
            sessions: self.sessions,
            counters: *self.manager.counters(),
            clock_cycles: self.manager.clock_cycles(),
            quarantined: self.manager.quarantined().to_vec(),
            attacks_injected: self.attacks_injected,
            digest: self.digest,
            events: self.manager.events().to_vec(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::characterize::Characterizer;
    use crate::profile::{assign_profile, PlannedAttack, PopulationMix};
    use sbst_core::Cut;
    use sbst_cpu::FaultActivity;

    fn artifacts() -> Arc<SharedArtifacts> {
        Characterizer::new(vec![Cut::alu(32), Cut::shifter(32)]).artifacts()
    }

    #[test]
    fn healthy_node_passes_every_session() {
        let artifacts = artifacts();
        let mix = PopulationMix {
            infant_pct: 0,
            wearout_pct: 0,
            correlated_pct: 0,
            adversary_pct: 0,
            batch_size: 16,
        };
        let profile = assign_profile(1, 0, &mix, 500_000, 2_000_000, &[]);
        let mut node = FleetNode::new(0, profile, artifacts, false);
        let mut sessions = 0;
        loop {
            let sample = node.run_due_session(2_000_000);
            assert!(sample.healthy);
            assert_eq!(sample.failures, 0);
            sessions += 1;
            if sample.done {
                break;
            }
        }
        assert!(sessions >= 2, "ran {sessions} sessions");
        let outcome = node.finish();
        assert_eq!(outcome.counters.passes, outcome.counters.attempts);
        assert!(outcome.quarantined.is_empty());
    }

    #[test]
    fn adversarial_node_detects_every_injected_attack() {
        let artifacts = Characterizer::new(vec![Cut::alu(32), Cut::shifter(32)])
            .with_key_seed(0xA11CE)
            .artifacts();
        for kind in [
            AttackKind::BitFlip,
            AttackKind::ForgeEntry,
            AttackKind::Replay,
        ] {
            let profile = NodeProfile {
                kind: ProfileKind::Adversarial,
                period_cycles: 500_000,
                phase_cycles: 0,
                fault: None,
                attack: Some(PlannedAttack {
                    kind,
                    session: 1,
                    bit: 5,
                }),
            };
            let mut node = FleetNode::new(0, profile, Arc::clone(&artifacts), true);
            while !node.run_due_session(2_000_000).done {}
            let outcome = node.finish();
            assert!(outcome.attacks_injected >= 1, "{kind:?} injected nothing");
            assert_eq!(
                outcome.tampers_detected(),
                outcome.attacks_injected,
                "{kind:?}: every injected tamper must be detected"
            );
            match kind {
                AttackKind::Replay => {
                    assert_eq!(outcome.counters.tamper_forgeries, 1, "{kind:?}");
                    assert_eq!(outcome.counters.tamper_replays, 1, "{kind:?}");
                }
                _ => {
                    assert_eq!(outcome.counters.tamper_forgeries, 1, "{kind:?}");
                    assert_eq!(outcome.counters.tamper_replays, 0, "{kind:?}");
                }
            }
            // The hardware is healthy: healing keeps verdicts clean, no
            // false failures, no quarantine.
            assert_eq!(
                outcome.counters.passes, outcome.counters.attempts,
                "{kind:?}"
            );
            assert!(outcome.quarantined.is_empty(), "{kind:?}");
        }
    }

    #[test]
    fn clean_nodes_inject_and_detect_nothing() {
        let artifacts = Characterizer::new(vec![Cut::alu(32), Cut::shifter(32)])
            .with_key_seed(0xA11CE)
            .artifacts();
        let mix = PopulationMix {
            infant_pct: 0,
            wearout_pct: 0,
            correlated_pct: 0,
            adversary_pct: 0,
            batch_size: 16,
        };
        let profile = assign_profile(1, 0, &mix, 500_000, 2_000_000, &[]);
        let mut node = FleetNode::new(0, profile, artifacts, false);
        while !node.run_due_session(2_000_000).done {}
        let outcome = node.finish();
        assert_eq!(outcome.attacks_injected, 0);
        assert_eq!(outcome.tampers_detected(), 0, "zero false alarms");
        assert_eq!(outcome.counters.store_corruptions, 0);
    }

    #[test]
    fn session_reuses_one_mount_across_its_attempts() {
        let artifacts = artifacts();
        // A permanent stuck-at on the ALU result: every attempt fails, so
        // the session retries the same routine until it quarantines.
        let profile = NodeProfile {
            kind: ProfileKind::WearOut,
            period_cycles: 500_000,
            phase_cycles: 0,
            fault: Some(PlannedFault {
                target: 0,
                bit: 0,
                stuck_at_one: true,
                activity: FaultActivity::Permanent,
            }),
            attack: None,
        };
        // The same session twice: once on the node's own bench, and once
        // on a bench that drops every mount it is handed back, so each
        // attempt builds a fresh one.
        let mut node = FleetNode::new(0, profile.clone(), Arc::clone(&artifacts), false);
        let mut bench = node.session_bench(&artifacts.targets);
        let status = node.manager.run_session(&mut bench);
        assert_eq!(status, SessionStatus::Completed { healthy: false });
        let counters = node.manager.counters();
        assert_eq!(counters.quarantines, 1);
        assert!(
            counters.mismatches + counters.watchdog_fires > 1,
            "{counters:?}"
        );
        let mount = bench.mount.expect("finish hands the mount back");
        assert!(mount.on_port_path(), "a result bit takes the port path");
        let reused = mount.eval_stats();

        struct FreshMounts<'a> {
            session: SessionBench<'a>,
            returned: Vec<sbst_cpu::EvalStats>,
        }
        impl TestBench for FreshMounts<'_> {
            fn prepare(&mut self, name: &str, attempt: u32, now: u64) -> Option<ArchFault> {
                self.session.prepare(name, attempt, now)
            }
            fn finish(&mut self, fault: ArchFault) {
                self.returned.push(fault.eval_stats());
            }
        }
        let mut fresh_node = FleetNode::new(0, profile, Arc::clone(&artifacts), false);
        let mut fresh = FreshMounts {
            session: fresh_node.session_bench(&artifacts.targets),
            returned: Vec::new(),
        };
        assert_eq!(fresh_node.manager.run_session(&mut fresh), status);
        assert_eq!(fresh_node.manager.counters(), counters);

        // The reused mount evaluated every attempt's operations, each on
        // the port path: no tape replay happened.
        assert!(fresh.returned.len() > 1, "{:?}", fresh.returned);
        assert!(fresh.returned.iter().all(|s| s.port_evals > 0));
        assert_eq!(
            reused.port_evals,
            fresh.returned.iter().map(|s| s.port_evals).sum::<u64>()
        );
        assert_eq!((reused.tape_runs, reused.memo_hits), (0, 0), "{reused:?}");
    }

    #[test]
    fn identical_nodes_produce_identical_digests() {
        let artifacts = artifacts();
        let mix = PopulationMix::default();
        let specs = Characterizer::new(vec![Cut::alu(32), Cut::shifter(32)]).target_specs();
        let profile = assign_profile(9, 4, &mix, 500_000, 2_000_000, &specs);
        let run = |record_events: bool| {
            let mut node =
                FleetNode::new(4, profile.clone(), Arc::clone(&artifacts), record_events);
            while !node.run_due_session(2_000_000).done {}
            node.finish()
        };
        let a = run(false);
        let b = run(false);
        assert_eq!(a, b);
        // The event log is observational: recording it must not perturb
        // the digest or the counters.
        let c = run(true);
        assert_eq!(a.digest, c.digest);
        assert_eq!(a.counters, c.counters);
        assert!(c.events.len() > a.events.len());
    }

    /// Runs every attempt whose hardware is fault-free on the ISS. When
    /// the node's own bench mounts nothing, or mounts a fault that first
    /// manifests at or after the routine's fault-free completion cycle
    /// (`records`), this bench mounts a *blind* fault instead: one active
    /// only at local cycle 0, which every instruction's cycle count has
    /// already passed. The hardware stays fault-free, but the blind fault's
    /// first active cycle lies before any record, so the manager must
    /// execute the run instead of replaying the schedule's record.
    struct BlindWhenClean<'a> {
        session: SessionBench<'a>,
        records: &'a [(String, u64)],
        blind: Option<ArchFault>,
        blind_out: bool,
        blind_mounts: u64,
        /// Planned mounts swapped for the blind one.
        swapped: u64,
    }

    impl TestBench for BlindWhenClean<'_> {
        fn prepare(&mut self, name: &str, attempt: u32, now: u64) -> Option<ArchFault> {
            let planned = self.session.prepare(name, attempt, now);
            let record = self.records.iter().find(|(n, _)| n == name).unwrap().1;
            match planned {
                Some(mount) if mount.first_active_cycle() < record => {
                    self.blind_out = false;
                    return Some(mount);
                }
                Some(mount) => {
                    self.swapped += 1;
                    self.session.finish(mount);
                }
                None => {}
            }
            self.blind_out = true;
            self.blind_mounts += 1;
            let targets = self.session.targets;
            let mount = self.blind.take().unwrap_or_else(|| {
                let port = targets[0].component.ports.output(targets[0].spec.port);
                targets.mount(0, Fault::stem_sa1(port.net(0)))
            });
            Some(mount.with_activity(FaultActivity::Window {
                from_cycle: 0,
                until_cycle: 1,
            }))
        }

        fn finish(&mut self, fault: ArchFault) {
            if self.blind_out {
                assert_eq!(
                    fault.eval_stats(),
                    sbst_cpu::EvalStats::default(),
                    "the blind fault fired"
                );
                self.blind = Some(fault);
            } else {
                self.session.finish(fault);
            }
        }
    }

    /// Each routine's fault-free completion cycle, from a run on the ISS.
    fn fault_free_records(artifacts: &SharedArtifacts) -> Vec<(String, u64)> {
        artifacts
            .components
            .iter()
            .map(|component| {
                let mut cpu = sbst_cpu::Cpu::new(sbst_cpu::CpuConfig::self_test());
                cpu.load_program(&component.program);
                match sbst_cpu::manager::run_with_watchdog(&mut cpu, u64::MAX) {
                    Ok(sbst_cpu::manager::WatchdogOutcome::Completed { cycles }) => {
                        (component.name.clone(), cycles)
                    }
                    other => panic!("{}: {other:?}", component.name),
                }
            })
            .collect()
    }

    #[test]
    fn replayed_clean_runs_match_executed_ones() {
        let artifacts = Characterizer::new(vec![Cut::alu(32), Cut::shifter(32)])
            .with_key_seed(0xA11CE)
            .artifacts();
        let healthy_mix = PopulationMix {
            infant_pct: 0,
            wearout_pct: 0,
            correlated_pct: 0,
            adversary_pct: 0,
            batch_size: 16,
        };
        let healthy = assign_profile(1, 0, &healthy_mix, 500_000, 2_000_000, &[]);
        let wear_out = NodeProfile {
            kind: ProfileKind::WearOut,
            period_cycles: 500_000,
            phase_cycles: 0,
            fault: Some(PlannedFault {
                target: 0,
                bit: 3,
                stuck_at_one: true,
                activity: FaultActivity::Window {
                    from_cycle: 900_000,
                    until_cycle: u64::MAX,
                },
            }),
            attack: None,
        };
        let adversarial = NodeProfile {
            kind: ProfileKind::Adversarial,
            period_cycles: 500_000,
            phase_cycles: 0,
            fault: None,
            attack: Some(PlannedAttack {
                kind: AttackKind::Replay,
                session: 1,
                bit: 5,
            }),
        };
        let records = fault_free_records(&artifacts);
        for profile in [healthy, wear_out, adversarial] {
            let kind = profile.kind;
            let mut replaying = FleetNode::new(0, profile.clone(), Arc::clone(&artifacts), true);
            while !replaying.run_due_session(2_000_000).done {}
            let replays = replaying.replayed_attempts();

            let mut executing = FleetNode::new(0, profile, Arc::clone(&artifacts), true);
            let mut blind_mounts = 0;
            let mut swapped = 0;
            loop {
                let mut bench = BlindWhenClean {
                    session: executing.session_bench(&artifacts.targets),
                    records: &records,
                    blind: None,
                    blind_out: false,
                    blind_mounts: 0,
                    swapped: 0,
                };
                let sample = executing.run_due_session_on(&mut bench, 2_000_000);
                blind_mounts += bench.blind_mounts;
                swapped += bench.swapped;
                if sample.done {
                    break;
                }
            }
            assert_eq!(executing.replayed_attempts(), 0, "{kind:?}");
            assert!(replays > 0, "{kind:?}: nothing was replayed");
            assert!(blind_mounts >= replays, "{kind:?}");
            // The wear-out window opens in the third session: the first two
            // mount it, and the record answers them.
            let expected_swaps = if kind == ProfileKind::WearOut { 2 } else { 0 };
            assert_eq!(swapped, expected_swaps, "{kind:?}");

            let (replayed, executed) = (replaying.finish(), executing.finish());
            assert_eq!(replayed.counters, executed.counters, "{kind:?}");
            assert_eq!(replayed.events, executed.events, "{kind:?}");
            assert_eq!(replayed.clock_cycles, executed.clock_cycles, "{kind:?}");
            assert_eq!(replayed.digest, executed.digest, "{kind:?}");
            assert_eq!(replayed, executed, "{kind:?}");
            let c = replayed.counters;
            match kind {
                ProfileKind::WearOut => {
                    assert!(c.mismatches + c.watchdog_fires > 0, "{c:?}");
                    assert_eq!(replayed.quarantined, ["ALU"]);
                }
                ProfileKind::Adversarial => {
                    assert_eq!(c.tamper_forgeries + c.tamper_replays, 2, "{c:?}");
                    assert_eq!(c.store_recaptures, 2, "{c:?}");
                }
                _ => assert_eq!(c.passes, c.attempts, "{c:?}"),
            }
        }
    }
}
