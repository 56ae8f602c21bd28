//! On-line test manager: the supervisory loop around periodic self-test.
//!
//! Detection mechanics alone ([`crate::system::run_time_shared`],
//! [`crate::system::ActivationPolicy`], signature comparison) stop at
//! *noticing* a fault. Production on-line testing needs a layer that
//! *responds* — and keeps responding even when the faults it hunts corrupt
//! the test program, hang a routine, or flip bits in the golden signatures
//! themselves. This module provides that layer:
//!
//! - a **cycle-budget watchdog** per routine ([`run_with_watchdog`],
//!   budgets derived from measured execution time via [`WatchdogConfig`]) —
//!   a control or pipeline fault that hangs a routine is aborted, recorded
//!   as [`Verdict::Hung`], and testing continues with the next CUT;
//! - **bounded retry with exponential backoff** of the test period
//!   ([`RetryPolicy`]) and **transient-vs-permanent classification**: a
//!   mismatch that is not reproduced within the retry budget is classified
//!   [`FaultClass::Transient`] (covering the paper's intermittent faults),
//!   while `permanent_threshold` consecutive failures classify the fault
//!   [`FaultClass::Permanent`];
//! - **component quarantine**: a permanently-faulty CUT is removed from
//!   the periodic schedule so the healthy components keep getting tested
//!   (the caller regenerates a reduced plan — see
//!   `sbst_core::plan::plan_excluding` — and installs it with
//!   [`OnlineTestManager::adopt_schedule`]);
//! - a **checksummed signature store** ([`SignatureStore`]): bit-flips in
//!   the stored golden signatures are detected before they can produce
//!   false verdicts, and handled by a re-capture-or-halt policy
//!   ([`StorePolicy`]);
//! - **checkpoint/resume across quantum preemption**: a session that
//!   exhausts its cycle quantum mid-pass parks at a component boundary and
//!   resumes there on the next activation, so partial passes are never
//!   discarded.
//!
//! Every routine runs on a fresh [`Cpu`] built from
//! [`CpuConfig::self_test`]; the only thing that varies between runs is the
//! hardware defect. A [`TestBench`] chooses it: per attempt it may hand the
//! manager an [`ArchFault`] to mount, and gets the mount back afterwards.

use std::fmt;
use std::sync::Arc;

use sbst_isa::Program;

use crate::cpu::{Cpu, CpuConfig, CpuError};
use crate::faulty::ArchFault;
use crate::mac::{MacKey, SipHash24};

/// Derives a per-routine cycle budget from expected execution time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WatchdogConfig {
    /// Budget = `slack × expected_cycles`. The slack absorbs cache and
    /// scheduling noise; anything beyond it is a hang, not jitter.
    pub slack: f64,
    /// Floor so that very short routines still get a usable budget.
    pub min_budget_cycles: u64,
}

impl Default for WatchdogConfig {
    fn default() -> Self {
        WatchdogConfig {
            slack: 4.0,
            min_budget_cycles: 1_000,
        }
    }
}

impl WatchdogConfig {
    /// Cycle budget for a routine expected to run `expected_cycles`.
    pub fn budget_cycles(&self, expected_cycles: u64) -> u64 {
        let scaled = (expected_cycles as f64 * self.slack).ceil() as u64;
        scaled.max(self.min_budget_cycles)
    }
}

/// Result of running one routine under the cycle watchdog.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WatchdogOutcome {
    /// The routine reached its `break` within budget.
    Completed {
        /// Cycles the routine consumed.
        cycles: u64,
    },
    /// The budget expired first: the routine is hung.
    Hung {
        /// The budget that expired.
        budget_cycles: u64,
    },
}

/// Steps `cpu` until its program `break`s or `budget_cycles` total cycles
/// (base + stall) have elapsed, whichever comes first. The CPU's own
/// instruction-count watchdog ([`CpuConfig::max_instructions`]) still
/// applies underneath as a second line of defence.
///
/// # Errors
///
/// Propagates [`CpuError`] from execution (decode faults, misalignment);
/// [`CpuError::InstructionLimit`] is translated to
/// [`WatchdogOutcome::Hung`] rather than surfaced, since it is the same
/// condition caught by a different counter.
pub fn run_with_watchdog(cpu: &mut Cpu, budget_cycles: u64) -> Result<WatchdogOutcome, CpuError> {
    let start = cpu.stats().total_cycles();
    loop {
        if cpu.stats().total_cycles().saturating_sub(start) >= budget_cycles {
            return Ok(WatchdogOutcome::Hung { budget_cycles });
        }
        match cpu.step() {
            Ok(Some(_code)) => {
                return Ok(WatchdogOutcome::Completed {
                    cycles: cpu.stats().total_cycles() - start,
                })
            }
            Ok(None) => {}
            Err(CpuError::InstructionLimit { .. }) => {
                return Ok(WatchdogOutcome::Hung { budget_cycles })
            }
            Err(e) => return Err(e),
        }
    }
}

/// The verdict of a keyed store audit ([`SignatureStore::audit`]):
/// distinguishes the two adversarial failure modes from a clean store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TamperVerdict {
    /// Keyed seal valid and epoch current.
    Clean,
    /// The keyed seal does not match the contents — a bit flip anywhere
    /// (entries, checksum, epoch, the seal itself) or an entry rewrite
    /// with a recomputed *unkeyed* checksum. Without the key the seal
    /// cannot be recomputed, so all forgeries land here.
    Forged,
    /// The seal is internally valid but the epoch is stale: a past,
    /// legitimately-sealed snapshot was replayed over the live store.
    Replayed {
        /// Epoch found in the (validly sealed) store.
        stored_epoch: u64,
        /// Epoch the manager expected.
        expected_epoch: u64,
    },
}

impl TamperVerdict {
    /// Whether the audit found no tampering.
    pub fn is_clean(&self) -> bool {
        matches!(self, TamperVerdict::Clean)
    }

    /// Stable lower-case name for logs and JSON.
    pub fn name(&self) -> &'static str {
        match self {
            TamperVerdict::Clean => "clean",
            TamperVerdict::Forged => "forged",
            TamperVerdict::Replayed { .. } => "replayed",
        }
    }
}

/// The golden-signature store, protected by two seals:
///
/// - an **unkeyed FNV-1a checksum** ([`SignatureStore::verify`]) — the
///   legacy integrity check, sufficient against accidental bit flips but
///   trivially recomputable by an adversary who rewrites entries;
/// - a **keyed SipHash-2-4 seal** over the entries, the **seal epoch** and
///   the checksum ([`SignatureStore::audit`]) — forgery-evident (the seal
///   cannot be recomputed without the key) and replay-evident (every
///   legitimate re-seal advances the monotonically increasing epoch, so a
///   stale-but-validly-sealed snapshot is detected against the manager's
///   mirrored expected epoch).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SignatureStore {
    entries: Vec<(String, u32)>,
    checksum: u64,
    epoch: u64,
    seal: u64,
}

impl SignatureStore {
    /// Builds a store from `(key, golden signature)` pairs and seals it
    /// with the compatibility key ([`MacKey::UNKEYED`]) at epoch 0.
    pub fn new(entries: Vec<(String, u32)>) -> Self {
        Self::with_key(entries, &MacKey::UNKEYED)
    }

    /// Builds a store sealed under `key` at epoch 0 — the
    /// characterization-time provisioning path.
    pub fn with_key(entries: Vec<(String, u32)>, key: &MacKey) -> Self {
        let mut store = SignatureStore {
            entries,
            checksum: 0,
            epoch: 0,
            seal: 0,
        };
        store.reseal(key);
        store
    }

    fn compute_checksum(entries: &[(String, u32)]) -> u64 {
        // FNV-1a over keys and values; self-contained, no dependencies.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut absorb = |byte: u8| {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        };
        for (key, value) in entries {
            for b in key.bytes() {
                absorb(b);
            }
            absorb(0xFF); // key/value separator
            for b in value.to_be_bytes() {
                absorb(b);
            }
        }
        h
    }

    /// Keyed seal over the same serialization the checksum absorbs, plus
    /// the epoch and the checksum itself — so a flip in *any* persisted
    /// field (including the checksum) breaks the seal.
    fn compute_seal(entries: &[(String, u32)], epoch: u64, checksum: u64, key: &MacKey) -> u64 {
        let mut mac = SipHash24::new(key);
        for (name, value) in entries {
            mac.write(name.as_bytes());
            mac.write_u8(0xFF); // key/value separator
            mac.write(&value.to_be_bytes());
        }
        mac.write_u64(epoch);
        mac.write_u64(checksum);
        mac.finish()
    }

    /// Recomputes both seals under `key` at the current epoch.
    fn reseal(&mut self, key: &MacKey) {
        self.checksum = Self::compute_checksum(&self.entries);
        self.seal = Self::compute_seal(&self.entries, self.epoch, self.checksum, key);
    }

    /// Whether the stored signatures still match the *unkeyed* checksum —
    /// the legacy integrity check. Detects accidental corruption only; an
    /// adversary recomputes this seal trivially (see
    /// [`SignatureStore::forge`]), which is what [`SignatureStore::audit`]
    /// exists to catch.
    pub fn verify(&self) -> bool {
        Self::compute_checksum(&self.entries) == self.checksum
    }

    /// Audits the keyed seal and the seal epoch against the manager's
    /// mirrored `expected_epoch`; returns the tamper verdict.
    pub fn audit(&self, key: &MacKey, expected_epoch: u64) -> TamperVerdict {
        let seal = Self::compute_seal(&self.entries, self.epoch, self.checksum, key);
        if seal != self.seal {
            return TamperVerdict::Forged;
        }
        if self.epoch != expected_epoch {
            return TamperVerdict::Replayed {
                stored_epoch: self.epoch,
                expected_epoch,
            };
        }
        TamperVerdict::Clean
    }

    /// The store's seal epoch: 0 at characterization, advanced by every
    /// legitimate keyed re-seal ([`SignatureStore::advance_epoch_and_reseal`]).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Reads the golden signature stored under `key`.
    pub fn get(&self, key: &str) -> Option<u32> {
        self.entries.iter().find(|(k, _)| k == key).map(|(_, v)| *v)
    }

    /// Overwrites (or inserts) the signature under `key` and re-seals the
    /// store with the compatibility key — the legacy re-capture path.
    pub fn set(&mut self, key: &str, value: u32) {
        self.set_keyed(key, value, &MacKey::UNKEYED);
    }

    /// Overwrites (or inserts) the signature under `name` and re-seals
    /// both seals under `key` at the current epoch. Callers performing a
    /// *batch* of legitimate mutations finish with
    /// [`SignatureStore::advance_epoch_and_reseal`] so the batch lands in
    /// a single new epoch.
    pub fn set_keyed(&mut self, name: &str, value: u32, key: &MacKey) {
        match self.entries.iter_mut().find(|(k, _)| k == name) {
            Some((_, v)) => *v = value,
            None => self.entries.push((name.to_owned(), value)),
        }
        self.reseal(key);
    }

    /// Advances the seal epoch by one and re-seals under `key` — the
    /// epilogue of every legitimate re-capture/heal, which is what makes a
    /// replayed pre-re-seal snapshot detectable.
    pub fn advance_epoch_and_reseal(&mut self, key: &MacKey) {
        self.seal_at_epoch(self.epoch + 1, key);
    }

    /// Re-seals under `key` at an explicit epoch. Monotonicity is the
    /// caller's contract: the manager advances past both the store's
    /// current epoch *and* its own mirrored epoch, so healing from a
    /// replayed (stale-epoch) snapshot never re-issues an epoch that a
    /// captured snapshot could replay.
    pub fn seal_at_epoch(&mut self, epoch: u64, key: &MacKey) {
        self.epoch = epoch;
        self.reseal(key);
    }

    /// The stored `(key, signature)` pairs.
    pub fn entries(&self) -> &[(String, u32)] {
        &self.entries
    }

    /// Number of stored signatures.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Flips bits in the signature stored under `key` *without* updating
    /// either seal — models a fault hitting the data memory that holds the
    /// golden references. Fault-injection campaigns use this; [`verify`]
    /// must subsequently fail (and [`audit`] must return
    /// [`TamperVerdict::Forged`]).
    ///
    /// [`verify`]: SignatureStore::verify
    /// [`audit`]: SignatureStore::audit
    pub fn corrupt(&mut self, key: &str, xor: u32) {
        if let Some((_, v)) = self.entries.iter_mut().find(|(k, _)| k == key) {
            *v ^= xor;
        }
    }

    /// Red-team primitive: rewrites the entry under `name` and recomputes
    /// the *unkeyed* FNV checksum — the strongest forgery available to an
    /// adversary without the MAC key. [`verify`] passes afterwards;
    /// [`audit`] must still return [`TamperVerdict::Forged`].
    ///
    /// [`verify`]: SignatureStore::verify
    /// [`audit`]: SignatureStore::audit
    pub fn forge(&mut self, name: &str, value: u32) {
        match self.entries.iter_mut().find(|(k, _)| k == name) {
            Some((_, v)) => *v = value,
            None => self.entries.push((name.to_owned(), value)),
        }
        self.checksum = Self::compute_checksum(&self.entries);
        // The keyed seal is deliberately left stale: without the key the
        // adversary cannot recompute it.
    }

    /// Red-team primitive: flips a single ASCII-safe bit (0–6) of one byte
    /// of the entry name at `index` without re-sealing. Restricting to the
    /// low seven bits keeps the name valid UTF-8 while still changing it.
    pub fn corrupt_name(&mut self, index: usize, byte: usize, bit: u32) {
        if let Some((name, _)) = self.entries.get_mut(index) {
            let mut bytes = name.clone().into_bytes();
            if let Some(b) = bytes.get_mut(byte) {
                *b ^= 1 << (bit % 7);
                *name = String::from_utf8(bytes).expect("low-bit flip preserves ASCII");
            }
        }
    }

    /// Red-team primitive: flips bits of the stored keyed seal itself.
    pub fn corrupt_seal(&mut self, xor: u64) {
        self.seal ^= xor;
    }

    /// Red-team primitive: flips bits of the stored seal epoch without
    /// re-sealing.
    pub fn corrupt_epoch(&mut self, xor: u64) {
        self.epoch ^= xor;
    }

    /// Red-team primitive: flips bits of the stored unkeyed checksum.
    pub fn corrupt_checksum(&mut self, xor: u64) {
        self.checksum ^= xor;
    }
}

/// The outcome of one routine attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Signature matched the golden reference.
    Pass,
    /// The routine completed but its signature mismatched.
    Mismatch {
        /// Expected (golden) signature.
        golden: u32,
        /// Observed signature.
        observed: u32,
    },
    /// The watchdog aborted a routine that exceeded its cycle budget.
    Hung {
        /// The expired budget.
        budget_cycles: u64,
    },
    /// Execution derailed entirely (undecodable instruction, misaligned
    /// access) — itself a detection: a healthy core running a healthy
    /// routine does neither.
    Crashed,
}

impl Verdict {
    /// Whether the attempt is evidence of a fault.
    pub fn failed(&self) -> bool {
        !matches!(self, Verdict::Pass)
    }

    /// Stable lower-case name for logs and JSON.
    pub fn name(&self) -> &'static str {
        match self {
            Verdict::Pass => "pass",
            Verdict::Mismatch { .. } => "mismatch",
            Verdict::Hung { .. } => "hung",
            Verdict::Crashed => "crashed",
        }
    }
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Verdict::Mismatch { golden, observed } => {
                write!(
                    f,
                    "mismatch (golden {golden:#010x}, observed {observed:#010x})"
                )
            }
            Verdict::Hung { budget_cycles } => {
                write!(f, "hung (budget {budget_cycles} cycles)")
            }
            _ => f.write_str(self.name()),
        }
    }
}

/// Operational classification of an observed fault, following the paper's
/// taxonomy: permanent faults "exist indefinitely"; transient covers the
/// intermittent faults that "appear at regular time intervals" and were
/// not reproduced within the retry budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultClass {
    /// Failure observed but not reproduced within the retry budget.
    Transient,
    /// `permanent_threshold` consecutive failures.
    Permanent,
}

impl FaultClass {
    /// Stable lower-case name for logs and JSON.
    pub fn name(&self) -> &'static str {
        match self {
            FaultClass::Transient => "transient",
            FaultClass::Permanent => "permanent",
        }
    }
}

/// A component's standing in the periodic schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Health {
    /// No failure ever observed.
    Healthy,
    /// A transient failure was observed; the component remains in service
    /// under continued observation.
    Suspect,
    /// Classified permanently faulty and removed from the schedule.
    Quarantined,
}

impl Health {
    /// Stable lower-case name for logs and JSON.
    pub fn name(&self) -> &'static str {
        match self {
            Health::Healthy => "healthy",
            Health::Suspect => "suspect",
            Health::Quarantined => "quarantined",
        }
    }
}

/// Bounded-retry and exponential-backoff policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Extra attempts granted after a first failure.
    pub max_retries: u32,
    /// Consecutive failures that classify the fault permanent. Clamped at
    /// runtime to `max_retries + 1` so every failure streak is decidable
    /// within one component visit.
    pub permanent_threshold: u32,
    /// The test period is multiplied by this factor before each retry
    /// (exponential backoff: retry *k* waits `period × factor^(k+1)`).
    /// `1` means a constant one-period wait; `0` is treated as `1` — a
    /// zero factor would collapse every wait to zero cycles and turn the
    /// retry loop into a retry storm.
    pub backoff_factor: u64,
    /// Cap on the cumulative backoff scale. `0` is treated as `1`: the
    /// wait never drops below one base period.
    pub max_backoff_scale: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 3,
            permanent_threshold: 3,
            backoff_factor: 2,
            max_backoff_scale: 16,
        }
    }
}

impl RetryPolicy {
    /// The backoff wait (in cycles) before retry number `retry` (0-based),
    /// for a base test period of `base_period_cycles`. The scale saturates
    /// at [`RetryPolicy::max_backoff_scale`] and never falls below 1, so a
    /// degenerate `backoff_factor: 0` (whose power would otherwise zero
    /// the wait and retry-storm the component) or `max_backoff_scale: 0`
    /// both degrade to a constant one-period wait.
    pub fn backoff_cycles(&self, base_period_cycles: u64, retry: u32) -> u64 {
        let scale = self
            .backoff_factor
            .saturating_pow(retry.saturating_add(1))
            .min(self.max_backoff_scale)
            .max(1);
        base_period_cycles.saturating_mul(scale)
    }

    fn effective_permanent_threshold(&self) -> u32 {
        self.permanent_threshold.clamp(1, self.max_retries + 1)
    }
}

/// What to do when the signature store fails its integrity check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StorePolicy {
    /// Stop periodic testing entirely: without trustworthy references no
    /// verdict is meaningful, and a wrong quarantine is worse than none.
    Halt,
    /// Re-capture golden signatures by re-running every active routine
    /// once and re-sealing the store. Risk (documented, accepted by the
    /// policy's chooser): if the hardware is already faulty the fault is
    /// baked into the new references.
    Recapture,
}

/// Configuration of the on-line test manager.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ManagerConfig {
    /// Watchdog budget derivation.
    pub watchdog: WatchdogConfig,
    /// Retry/backoff/classification policy.
    pub retry: RetryPolicy,
    /// Base test period in cycles — the backoff unit.
    pub period_cycles: u64,
    /// Per-session cycle quantum; a session that executes more test cycles
    /// than this parks at the next component boundary and resumes on the
    /// following activation. `None` disables preemption.
    pub quantum_cycles: Option<u64>,
    /// Response to signature-store corruption.
    pub store_policy: StorePolicy,
    /// Key sealing the signature store. [`MacKey::UNKEYED`] (the default)
    /// keeps the store tamper-*evident* (any flip breaks the seal) but not
    /// forgery-proof; a per-characterization key from
    /// [`MacKey::from_seed`] adds forgery resistance.
    pub store_key: MacKey,
    /// Whether to keep the ordered [`ManagerEvent`] log. Single-manager
    /// deployments want the full log for diagnosis; fleet-scale runs
    /// (thousands of managers) disable it so the per-session cost is
    /// counters only — no per-event `String` allocation, no unbounded
    /// growth. Counters and statuses are maintained either way.
    pub record_events: bool,
}

impl Default for ManagerConfig {
    fn default() -> Self {
        ManagerConfig {
            watchdog: WatchdogConfig::default(),
            retry: RetryPolicy::default(),
            period_cycles: 1_000_000,
            quantum_cycles: None,
            store_policy: StorePolicy::Halt,
            store_key: MacKey::UNKEYED,
            record_events: true,
        }
    }
}

/// One schedulable self-test routine.
#[derive(Debug, Clone)]
pub struct ManagedComponent {
    /// Component name — also the key into the [`SignatureStore`].
    pub name: String,
    /// Standalone routine program ending in `break`, unloading its
    /// signature to data memory.
    pub program: Program,
    /// Where the routine leaves its signature.
    pub signature: SigLocation,
    /// Fault-free execution cycles, measured at characterization time; the
    /// watchdog budget is derived from this.
    pub expected_cycles: u64,
}

/// Where a routine's signature lives in data memory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SigLocation {
    /// A data label resolved through the program's symbol table.
    Label(String),
    /// A fixed byte address (hand-written test programs).
    Address(u32),
}

impl ManagedComponent {
    /// Resolves the signature's byte address, if the label exists.
    pub fn sig_addr(&self) -> Option<u32> {
        match &self.signature {
            SigLocation::Label(label) => self.program.symbol(label),
            SigLocation::Address(addr) => Some(*addr),
        }
    }
}

/// Everything that happened inside the manager, in order. Flows into the
/// `RunReport` JSON of the `online_manager` bench binary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ManagerEvent {
    /// A new session (full pass over the schedule) began.
    SessionStarted {
        /// 1-based session number.
        session: u32,
    },
    /// The signature store failed its keyed tamper audit.
    StoreCorrupted {
        /// What the audit found (forgery vs replay).
        verdict: TamperVerdict,
    },
    /// The store was re-captured from fresh routine runs (cross-checked
    /// against the replica when one is installed) and re-sealed at a new
    /// epoch.
    StoreRecaptured,
    /// During re-capture, a freshly captured signature disagreed with the
    /// independent replica — the capture was rejected and the replica's
    /// value restored (the recapture-poisoning defence).
    RecaptureRejected {
        /// Component whose fresh capture was rejected.
        component: String,
    },
    /// The independent replica itself failed its tamper audit and was
    /// dropped — cross-checking degrades to fresh-capture-only.
    ReplicaCompromised,
    /// A component's golden reference could not be restored from either a
    /// fresh capture or the replica; the component is suspended (skipped)
    /// until a later session heals it — the un-tampered components keep
    /// getting tested.
    StoreEntrySuspended {
        /// Suspended component.
        component: String,
    },
    /// A previously suspended component's reference was restored; it
    /// re-enters the periodic schedule.
    StoreEntryHealed {
        /// Healed component.
        component: String,
    },
    /// Testing stopped permanently (store corruption under
    /// [`StorePolicy::Halt`]).
    Halted,
    /// One routine attempt finished.
    Attempt {
        /// Component name.
        component: String,
        /// 0-based attempt number within this visit.
        attempt: u32,
        /// The attempt's outcome.
        verdict: Verdict,
    },
    /// The watchdog aborted a hung routine.
    WatchdogFired {
        /// Component name.
        component: String,
        /// The expired budget.
        budget_cycles: u64,
    },
    /// A retry was scheduled after an exponentially backed-off wait.
    BackoffScheduled {
        /// Component name.
        component: String,
        /// 0-based retry number.
        retry: u32,
        /// The wait before the retry, in cycles.
        wait_cycles: u64,
    },
    /// A failure streak was classified.
    Classified {
        /// Component name.
        component: String,
        /// Transient or permanent.
        class: FaultClass,
        /// Failed attempts in this visit.
        failures: u32,
        /// Total attempts in this visit.
        attempts: u32,
    },
    /// A permanently-faulty component left the schedule.
    Quarantined {
        /// Component name.
        component: String,
    },
    /// The session exhausted its quantum and parked.
    Preempted {
        /// Index of the first untested component.
        resume_at: usize,
    },
    /// A parked session continued.
    Resumed {
        /// Index the session resumed from.
        from: usize,
    },
    /// A full pass over the schedule finished.
    SessionCompleted {
        /// 1-based session number.
        session: u32,
        /// Whether every active component passed without any failure.
        healthy: bool,
    },
}

/// Aggregate counters over the manager's lifetime.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ManagerCounters {
    /// Routine attempts executed.
    pub attempts: u64,
    /// Attempts that passed.
    pub passes: u64,
    /// Signature mismatches observed.
    pub mismatches: u64,
    /// Watchdog aborts.
    pub watchdog_fires: u64,
    /// Execution crashes.
    pub crashes: u64,
    /// Backed-off retries scheduled.
    pub backoffs: u64,
    /// Components quarantined.
    pub quarantines: u64,
    /// Transient classifications.
    pub transients: u64,
    /// Store tamper detections, total (forgeries + replays).
    pub store_corruptions: u64,
    /// Tamper detections whose audit verdict was [`TamperVerdict::Forged`].
    pub tamper_forgeries: u64,
    /// Tamper detections whose audit verdict was
    /// [`TamperVerdict::Replayed`].
    pub tamper_replays: u64,
    /// Store re-captures performed.
    pub store_recaptures: u64,
    /// Fresh captures rejected by the replica cross-check during
    /// re-capture (poisoning attempts defeated).
    pub recapture_rejects: u64,
    /// Replica stores dropped after failing their own tamper audit.
    pub replica_compromises: u64,
    /// Components suspended because their reference could not be restored.
    pub store_suspensions: u64,
    /// Suspended components whose reference was later restored.
    pub store_heals: u64,
    /// Sessions preempted at the quantum boundary.
    pub preemptions: u64,
    /// Sessions completed.
    pub sessions_completed: u64,
}

/// How a call to [`OnlineTestManager::run_session`] ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionStatus {
    /// The pass over the schedule finished.
    Completed {
        /// Whether every active component passed with no failed attempt.
        healthy: bool,
    },
    /// The quantum expired mid-pass; call `run_session` again to resume.
    Preempted,
    /// Testing is permanently stopped (store corruption under
    /// [`StorePolicy::Halt`]).
    Halted,
}

/// Chooses the hardware defect, if any, for each routine run.
///
/// The manager runs every routine on a fresh [`CpuConfig::self_test`] CPU;
/// a bench decides only which [`ArchFault`] to mount on it.
/// `now_cycles` (the manager's virtual clock) lets intermittent faults
/// phase their activity windows against global time.
///
/// Every fault the bench returns is handed back through
/// [`TestBench::finish`] once its run is over, whatever the verdict, so a
/// bench can reuse the mount (with its evaluation memo) for the next
/// attempt.
pub trait TestBench {
    /// The fault to mount for one attempt at `component`, or `None` for
    /// fault-free hardware.
    fn prepare(&mut self, component: &str, attempt: u32, now_cycles: u64) -> Option<ArchFault>;

    /// Takes back a fault this bench mounted, after its run. The default
    /// drops it.
    fn finish(&mut self, _fault: ArchFault) {}
}

impl<F: FnMut(&str, u32, u64) -> Option<ArchFault>> TestBench for F {
    fn prepare(&mut self, component: &str, attempt: u32, now_cycles: u64) -> Option<ArchFault> {
        self(component, attempt, now_cycles)
    }
}

/// A fault-free [`TestBench`]: mounts nothing.
#[derive(Debug, Default, Clone, Copy)]
pub struct FaultFreeBench;

impl TestBench for FaultFreeBench {
    fn prepare(&mut self, _component: &str, _attempt: u32, _now_cycles: u64) -> Option<ArchFault> {
        None
    }
}

/// How one run of a routine ended (see [`OnlineTestManager::execute`]).
enum Execution {
    /// Reached `break` within budget after `cycles`; `signature` is the
    /// word at the routine's signature address, `None` when the location
    /// does not resolve.
    Completed { cycles: u64, signature: Option<u32> },
    /// The watchdog budget expired.
    Hung { budget_cycles: u64 },
    /// The CPU faulted after `cycles`.
    Crashed { cycles: u64 },
}

#[derive(Debug, Clone)]
struct ComponentState {
    health: Health,
    class: Option<FaultClass>,
    consecutive_failures: u32,
    last_verdict: Option<Verdict>,
    attempts: u64,
    passes: u64,
    /// Whether this component's golden reference is currently trustworthy.
    /// Cleared when neither a fresh capture nor the replica could restore
    /// the reference after tampering; a cleared component is skipped
    /// (graceful degradation) until a later session heals it.
    store_trusted: bool,
}

impl ComponentState {
    fn fresh() -> Self {
        ComponentState {
            health: Health::Healthy,
            class: None,
            consecutive_failures: 0,
            last_verdict: None,
            attempts: 0,
            passes: 0,
            store_trusted: true,
        }
    }
}

/// A component's externally-visible status snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ComponentStatus {
    /// Component name.
    pub name: String,
    /// Current standing.
    pub health: Health,
    /// Last classification, if any failure streak was classified.
    pub class: Option<FaultClass>,
    /// Most recent attempt verdict.
    pub last_verdict: Option<Verdict>,
    /// Attempts executed for this component.
    pub attempts: u64,
    /// Attempts that passed.
    pub passes: u64,
    /// Whether the component's golden reference is currently trusted; a
    /// `false` here means the component is suspended from the schedule
    /// until its reference heals.
    pub store_trusted: bool,
}

/// The on-line test manager: owns the schedule, the signature store, the
/// component state machines and the event log. See the module docs for the
/// state machine (watchdog → retry/backoff → classify → quarantine).
#[derive(Debug)]
pub struct OnlineTestManager {
    config: ManagerConfig,
    components: Arc<[ManagedComponent]>,
    states: Vec<ComponentState>,
    store: SignatureStore,
    /// Seal epoch the manager expects to find in the store — mirrored
    /// outside the store so a replayed (stale but validly-sealed) snapshot
    /// is detectable.
    expected_epoch: u64,
    /// Optional second independent copy of the golden references, used to
    /// cross-check fresh captures before any `Recapture` re-seal.
    replica: Option<SignatureStore>,
    events: Vec<ManagerEvent>,
    counters: ManagerCounters,
    clock_cycles: u64,
    session_count: u32,
    resume_at: Option<usize>,
    session_had_failure: bool,
    halted: bool,
    quarantine_log: Vec<String>,
}

impl OnlineTestManager {
    /// Creates a manager over `components`, with golden references in
    /// `store` (keyed by component name).
    pub fn new(
        config: ManagerConfig,
        components: Vec<ManagedComponent>,
        store: SignatureStore,
    ) -> Self {
        Self::with_shared_components(config, components.into(), store)
    }

    /// [`OnlineTestManager::new`] over a *shared* component schedule.
    ///
    /// Fleet deployments characterize once and hand the identical schedule
    /// to thousands of managers; sharing the `Arc` makes each additional
    /// manager cost only its per-component state and its (small) signature
    /// store — the routines and programs are never cloned.
    pub fn with_shared_components(
        config: ManagerConfig,
        components: Arc<[ManagedComponent]>,
        store: SignatureStore,
    ) -> Self {
        let states = components.iter().map(|_| ComponentState::fresh()).collect();
        let expected_epoch = store.epoch();
        OnlineTestManager {
            config,
            components,
            states,
            store,
            expected_epoch,
            replica: None,
            events: Vec::new(),
            counters: ManagerCounters::default(),
            clock_cycles: 0,
            session_count: 0,
            resume_at: None,
            session_had_failure: false,
            halted: false,
            quarantine_log: Vec::new(),
        }
    }

    /// Appends to the event log, unless [`ManagerConfig::record_events`]
    /// turned it off. Call sites whose event construction allocates guard
    /// themselves so a disabled log costs nothing per attempt.
    fn push_event(&mut self, event: ManagerEvent) {
        if self.config.record_events {
            self.events.push(event);
        }
    }

    /// Runs (or resumes) one periodic test session: a pass over every
    /// non-quarantined component, each under the watchdog, with bounded
    /// backed-off retries and classification on failure. Never panics on
    /// faulty behaviour — every injected scenario terminates in a status.
    pub fn run_session(&mut self, bench: &mut dyn TestBench) -> SessionStatus {
        if self.halted {
            return SessionStatus::Halted;
        }
        let resumed_from = self.resume_at.take();
        let start_index = match resumed_from {
            Some(i) => {
                self.push_event(ManagerEvent::Resumed { from: i });
                i
            }
            None => {
                self.session_count += 1;
                self.session_had_failure = false;
                self.push_event(ManagerEvent::SessionStarted {
                    session: self.session_count,
                });
                0
            }
        };

        // Audit the reference store before trusting any verdict — on
        // *every* start, resumed sessions included: corruption that lands
        // while a session is parked at a preemption boundary must not be
        // trusted on resume. The keyed audit subsumes the legacy unkeyed
        // `verify()` (any flip that breaks the checksum also breaks the
        // seal) and additionally catches forgeries and replays.
        let verdict = self
            .store
            .audit(&self.config.store_key, self.expected_epoch);
        if !verdict.is_clean() {
            self.push_event(ManagerEvent::StoreCorrupted { verdict });
            self.counters.store_corruptions += 1;
            match verdict {
                TamperVerdict::Forged => self.counters.tamper_forgeries += 1,
                TamperVerdict::Replayed { .. } => self.counters.tamper_replays += 1,
                TamperVerdict::Clean => unreachable!("clean verdict handled above"),
            }
            match self.config.store_policy {
                StorePolicy::Halt => {
                    self.halted = true;
                    self.push_event(ManagerEvent::Halted);
                    return SessionStatus::Halted;
                }
                StorePolicy::Recapture => {
                    self.recapture_store(bench);
                    self.push_event(ManagerEvent::StoreRecaptured);
                    self.counters.store_recaptures += 1;
                }
            }
        } else if resumed_from.is_none() {
            // Clean store at a fresh session start: give suspended
            // components a chance to restore their references.
            self.heal_suspended(bench);
        }

        let mut spent_cycles = 0u64;
        for index in start_index..self.components.len() {
            // Quarantined components are out of the schedule; suspended
            // ones (untrusted reference) are skipped until healed — the
            // graceful-degradation path keeps every other component
            // tested.
            if self.states[index].health == Health::Quarantined || !self.states[index].store_trusted
            {
                continue;
            }
            if let Some(quantum) = self.config.quantum_cycles {
                if spent_cycles >= quantum {
                    self.resume_at = Some(index);
                    self.push_event(ManagerEvent::Preempted { resume_at: index });
                    self.counters.preemptions += 1;
                    return SessionStatus::Preempted;
                }
            }
            spent_cycles += self.visit_component(index, bench);
        }

        let healthy = !self.session_had_failure;
        self.push_event(ManagerEvent::SessionCompleted {
            session: self.session_count,
            healthy,
        });
        self.counters.sessions_completed += 1;
        SessionStatus::Completed { healthy }
    }

    /// Visits one component: attempt → retry/backoff → classify →
    /// quarantine. Returns the test cycles executed.
    ///
    /// The component name is borrowed out of the shared schedule `Arc`
    /// (cloning the `Arc` is a refcount bump), so the per-visit hot path
    /// allocates no `String`s of its own — only the optional event log
    /// does, and only when [`ManagerConfig::record_events`] is on.
    fn visit_component(&mut self, index: usize, bench: &mut dyn TestBench) -> u64 {
        let retry = self.config.retry;
        let threshold = retry.effective_permanent_threshold();
        let components = Arc::clone(&self.components);
        let name = components[index].name.as_str();
        let budget = self
            .config
            .watchdog
            .budget_cycles(components[index].expected_cycles);

        let mut spent = 0u64;
        let mut failures = 0u32;
        let mut attempts = 0u32;
        for attempt in 0..=retry.max_retries {
            let (verdict, cycles) = self.run_attempt(index, attempt, budget, bench);
            spent += cycles;
            self.clock_cycles += cycles;
            attempts += 1;
            self.record_attempt(index, name, attempt, verdict);

            if !verdict.failed() {
                if failures > 0 {
                    // Mismatch not reproduced within the retry budget.
                    self.classify(index, name, FaultClass::Transient, failures, attempts);
                }
                self.states[index].consecutive_failures = 0;
                return spent;
            }

            failures += 1;
            self.session_had_failure = true;
            self.states[index].consecutive_failures += 1;
            if self.states[index].consecutive_failures >= threshold {
                self.classify(index, name, FaultClass::Permanent, failures, attempts);
                self.quarantine(index, name);
                return spent;
            }
            if attempt < retry.max_retries {
                let wait = retry.backoff_cycles(self.config.period_cycles, attempt);
                self.clock_cycles += wait;
                if self.config.record_events {
                    self.events.push(ManagerEvent::BackoffScheduled {
                        component: name.to_owned(),
                        retry: attempt,
                        wait_cycles: wait,
                    });
                }
                self.counters.backoffs += 1;
            }
        }
        // Retries exhausted below the (clamped) permanent threshold —
        // reachable only when the streak started in an earlier visit and
        // passed in none of this visit's attempts; treat as still-suspect
        // transient evidence rather than quarantining on thin evidence.
        self.classify(index, name, FaultClass::Transient, failures, attempts);
        spent
    }

    /// Runs one attempt; returns the verdict and cycles consumed. All
    /// fault behaviours (hang, crash, corruption) become verdicts — this
    /// function cannot fail.
    fn run_attempt(
        &mut self,
        index: usize,
        attempt: u32,
        budget: u64,
        bench: &mut dyn TestBench,
    ) -> (Verdict, u64) {
        let components = Arc::clone(&self.components);
        let component = &components[index];
        match self.execute(component, attempt, budget, bench) {
            Execution::Completed { cycles, signature } => {
                let verdict = match (signature, self.store.get(&component.name)) {
                    (Some(observed), Some(golden)) if observed == golden => Verdict::Pass,
                    (Some(observed), Some(golden)) => Verdict::Mismatch { golden, observed },
                    // No resolvable signature or no reference: the routine
                    // cannot produce a trustworthy pass.
                    _ => Verdict::Crashed,
                };
                (verdict, cycles)
            }
            Execution::Hung { budget_cycles } => {
                if self.config.record_events {
                    self.events.push(ManagerEvent::WatchdogFired {
                        component: component.name.clone(),
                        budget_cycles,
                    });
                }
                (Verdict::Hung { budget_cycles }, budget_cycles)
            }
            Execution::Crashed { cycles } => (Verdict::Crashed, cycles),
        }
    }

    /// The one execution path of attempts and captures: loads
    /// `component`'s routine on a fresh self-test CPU with the bench's
    /// fault (if any) mounted, runs it under the watchdog `budget`, reads
    /// the signature and hands the mount back to the bench. Leaves the
    /// clock alone; each caller charges its own cycles.
    fn execute(
        &self,
        component: &ManagedComponent,
        attempt: u32,
        budget: u64,
        bench: &mut dyn TestBench,
    ) -> Execution {
        let mut cpu = Cpu::new(CpuConfig::self_test());
        if let Some(fault) = bench.prepare(&component.name, attempt, self.clock_cycles) {
            cpu.mount_fault(fault);
        }
        cpu.load_program(&component.program);
        let execution = match run_with_watchdog(&mut cpu, budget) {
            Ok(WatchdogOutcome::Completed { cycles }) => Execution::Completed {
                cycles,
                signature: component
                    .sig_addr()
                    .map(|addr| cpu.memory().read_word(addr)),
            },
            Ok(WatchdogOutcome::Hung { budget_cycles }) => Execution::Hung { budget_cycles },
            Err(_) => Execution::Crashed {
                cycles: cpu.stats().total_cycles(),
            },
        };
        if let Some(fault) = cpu.unmount_fault() {
            bench.finish(fault);
        }
        execution
    }

    fn record_attempt(&mut self, index: usize, name: &str, attempt: u32, verdict: Verdict) {
        self.counters.attempts += 1;
        match verdict {
            Verdict::Pass => self.counters.passes += 1,
            Verdict::Mismatch { .. } => self.counters.mismatches += 1,
            Verdict::Hung { .. } => self.counters.watchdog_fires += 1,
            Verdict::Crashed => self.counters.crashes += 1,
        }
        let state = &mut self.states[index];
        state.attempts += 1;
        if !verdict.failed() {
            state.passes += 1;
        }
        state.last_verdict = Some(verdict);
        if self.config.record_events {
            self.events.push(ManagerEvent::Attempt {
                component: name.to_owned(),
                attempt,
                verdict,
            });
        }
    }

    fn classify(
        &mut self,
        index: usize,
        name: &str,
        class: FaultClass,
        failures: u32,
        attempts: u32,
    ) {
        let state = &mut self.states[index];
        state.class = Some(class);
        if class == FaultClass::Transient {
            state.health = Health::Suspect;
            self.counters.transients += 1;
        }
        if self.config.record_events {
            self.events.push(ManagerEvent::Classified {
                component: name.to_owned(),
                class,
                failures,
                attempts,
            });
        }
    }

    fn quarantine(&mut self, index: usize, name: &str) {
        self.states[index].health = Health::Quarantined;
        self.quarantine_log.push(name.to_owned());
        if self.config.record_events {
            self.events.push(ManagerEvent::Quarantined {
                component: name.to_owned(),
            });
        }
        self.counters.quarantines += 1;
    }

    /// Audits the replica (if installed) and drops it when compromised;
    /// returns whether a trustworthy replica remains.
    fn audit_replica(&mut self) -> bool {
        match &self.replica {
            Some(replica) => {
                if replica
                    .audit(&self.config.store_key, self.expected_epoch)
                    .is_clean()
                {
                    true
                } else {
                    self.replica = None;
                    self.counters.replica_compromises += 1;
                    self.push_event(ManagerEvent::ReplicaCompromised);
                    false
                }
            }
            None => false,
        }
    }

    /// Re-captures golden signatures after a tamper detection, hardened by
    /// the two-replica cross-check: for each active component the fresh
    /// capture is compared against the independent replica before anything
    /// is re-sealed.
    ///
    /// - fresh == replica → the cross-checked value is restored;
    /// - fresh != replica → the fresh capture is **rejected** and the
    ///   replica's value restored (the recapture-poisoning defence: a
    ///   faulty core cannot bake its own signature into the references,
    ///   and its next visit detects it normally);
    /// - fresh only (no replica) → the fresh value is accepted — the
    ///   documented, policy-accepted risk of `Recapture` without a
    ///   replica;
    /// - replica only (capture hung/crashed) → restored from the replica;
    /// - neither → the component is *suspended* (skipped in sessions)
    ///   until a later clean session heals it, so the un-tampered
    ///   components keep getting tested.
    ///
    /// Finishes with an epoch-advancing keyed re-seal — never the blind
    /// "re-seal whatever is there" of the unhardened path — and refreshes
    /// the replica from the healed store.
    fn recapture_store(&mut self, bench: &mut dyn TestBench) {
        let replica_ok = self.audit_replica();
        let components = Arc::clone(&self.components);
        for (index, component) in components.iter().enumerate() {
            if self.states[index].health == Health::Quarantined {
                continue;
            }
            self.restore_reference(index, component, replica_ok, bench);
        }
        self.epoch_advancing_reseal();
    }

    /// Attempts to restore the references of suspended components at a
    /// clean fresh-session start: a fresh capture cross-checked against
    /// the replica exactly as in [`recapture_store`](Self::recapture_store)
    /// (replica wins a disagreement; with neither available the component
    /// stays suspended).
    fn heal_suspended(&mut self, bench: &mut dyn TestBench) {
        if self.states.iter().all(|s| s.store_trusted) {
            return;
        }
        let replica_ok = self.audit_replica();
        let components = Arc::clone(&self.components);
        let mut healed_any = false;
        for (index, component) in components.iter().enumerate() {
            if self.states[index].health == Health::Quarantined || self.states[index].store_trusted
            {
                continue;
            }
            healed_any |= self.restore_reference(index, component, replica_ok, bench);
        }
        if healed_any {
            self.epoch_advancing_reseal();
        }
    }

    /// Restores one component's golden reference by fresh-capture ×
    /// replica cross-check; updates suspension state, counters and events.
    /// Returns whether the reference was restored. Does *not* re-seal —
    /// callers batch their restores under one
    /// [`epoch_advancing_reseal`](Self::epoch_advancing_reseal).
    fn restore_reference(
        &mut self,
        index: usize,
        component: &ManagedComponent,
        replica_ok: bool,
        bench: &mut dyn TestBench,
    ) -> bool {
        let key = self.config.store_key;
        // A fresh capture: the routine's signature when it completes (the
        // clock advances only then), `None` when it hangs or crashes.
        let budget = self
            .config
            .watchdog
            .budget_cycles(component.expected_cycles);
        let fresh = match self.execute(component, 0, budget, bench) {
            Execution::Completed { cycles, signature } => {
                self.clock_cycles += cycles;
                signature
            }
            Execution::Hung { .. } | Execution::Crashed { .. } => None,
        };
        let replicated = if replica_ok {
            self.replica.as_ref().and_then(|r| r.get(&component.name))
        } else {
            None
        };
        let was_suspended = !self.states[index].store_trusted;
        let restored = match (fresh, replicated) {
            (Some(observed), Some(reference)) => {
                if observed != reference {
                    // The replica is the independent witness; it wins any
                    // disagreement and the (possibly poisoned) fresh
                    // capture is rejected.
                    self.counters.recapture_rejects += 1;
                    if self.config.record_events {
                        self.events.push(ManagerEvent::RecaptureRejected {
                            component: component.name.clone(),
                        });
                    }
                }
                Some(reference)
            }
            (Some(observed), None) => Some(observed),
            (None, Some(reference)) => Some(reference),
            (None, None) => None,
        };
        match restored {
            Some(value) => {
                self.store.set_keyed(&component.name, value, &key);
                self.states[index].store_trusted = true;
                if was_suspended {
                    self.counters.store_heals += 1;
                    if self.config.record_events {
                        self.events.push(ManagerEvent::StoreEntryHealed {
                            component: component.name.clone(),
                        });
                    }
                }
                true
            }
            None => {
                self.states[index].store_trusted = false;
                if !was_suspended {
                    self.counters.store_suspensions += 1;
                    if self.config.record_events {
                        self.events.push(ManagerEvent::StoreEntrySuspended {
                            component: component.name.clone(),
                        });
                    }
                }
                false
            }
        }
    }

    /// The epilogue of every legitimate store mutation batch: advance the
    /// seal epoch (making any replay of the previous snapshot detectable),
    /// mirror it, and refresh the replica from the healed store. The new
    /// epoch strictly exceeds both the store's current epoch and the
    /// mirrored one — after healing from a *replayed* snapshot (whose own
    /// epoch is stale) the next epoch must not collide with one an
    /// attacker may already hold a validly-sealed snapshot of.
    fn epoch_advancing_reseal(&mut self) {
        let next = self.expected_epoch.max(self.store.epoch()) + 1;
        self.store.seal_at_epoch(next, &self.config.store_key);
        self.expected_epoch = next;
        if self.replica.is_some() {
            self.replica = Some(self.store.clone());
        }
    }

    /// Replaces the schedule and store after a re-plan (e.g. a reduced
    /// plan over the remaining CUTs once a component is quarantined).
    /// Events, counters, the virtual clock and the quarantine log persist;
    /// per-component state is reset for the new schedule.
    pub fn adopt_schedule(&mut self, components: Vec<ManagedComponent>, store: SignatureStore) {
        self.adopt_shared_schedule(components.into(), store);
    }

    /// [`OnlineTestManager::adopt_schedule`] over a shared schedule `Arc` —
    /// the fleet path, where one re-plan is adopted by many managers.
    pub fn adopt_shared_schedule(
        &mut self,
        components: Arc<[ManagedComponent]>,
        store: SignatureStore,
    ) {
        self.states = components.iter().map(|_| ComponentState::fresh()).collect();
        self.components = components;
        self.store = store;
        self.expected_epoch = self.store.epoch();
        // A replica of the old store cannot witness for the new one;
        // callers re-install after adopting.
        self.replica = None;
        self.resume_at = None;
    }

    /// Installs a second independent replica of the current store. During
    /// any subsequent `Recapture`, fresh captures are cross-checked
    /// against it before re-sealing — closing the recapture-poisoning
    /// hole where a faulty core bakes its own signature into the
    /// re-captured references.
    pub fn install_replica(&mut self) {
        self.replica = Some(self.store.clone());
    }

    /// Whether a (not-yet-compromised) replica is installed.
    pub fn has_replica(&self) -> bool {
        self.replica.is_some()
    }

    /// The seal epoch the manager currently expects of its store.
    pub fn expected_epoch(&self) -> u64 {
        self.expected_epoch
    }

    /// Advances the virtual clock (e.g. the idle period between two
    /// periodic activations).
    pub fn advance_clock(&mut self, cycles: u64) {
        self.clock_cycles = self.clock_cycles.saturating_add(cycles);
    }

    /// The ordered event log.
    pub fn events(&self) -> &[ManagerEvent] {
        &self.events
    }

    /// Lifetime counters.
    pub fn counters(&self) -> &ManagerCounters {
        &self.counters
    }

    /// The manager's virtual clock in cycles (test execution + backoff
    /// waits + explicit advances).
    pub fn clock_cycles(&self) -> u64 {
        self.clock_cycles
    }

    /// The signature store.
    pub fn store(&self) -> &SignatureStore {
        &self.store
    }

    /// Mutable store access (fault-injection campaigns corrupt it here).
    pub fn store_mut(&mut self) -> &mut SignatureStore {
        &mut self.store
    }

    /// Whether testing has permanently stopped.
    pub fn is_halted(&self) -> bool {
        self.halted
    }

    /// Whether a preempted session is waiting to resume.
    pub fn is_preempted(&self) -> bool {
        self.resume_at.is_some()
    }

    /// Sessions started so far.
    pub fn sessions_started(&self) -> u32 {
        self.session_count
    }

    /// Names of every component ever quarantined, in quarantine order
    /// (persists across [`OnlineTestManager::adopt_schedule`]).
    pub fn quarantined(&self) -> &[String] {
        &self.quarantine_log
    }

    /// Names of components still in the schedule (not quarantined).
    pub fn active_components(&self) -> Vec<&str> {
        self.components
            .iter()
            .zip(&self.states)
            .filter(|(_, s)| s.health != Health::Quarantined)
            .map(|(c, _)| c.name.as_str())
            .collect()
    }

    /// Status snapshot for every scheduled component.
    pub fn component_statuses(&self) -> Vec<ComponentStatus> {
        self.components
            .iter()
            .zip(&self.states)
            .map(|(c, s)| ComponentStatus {
                name: c.name.clone(),
                health: s.health,
                class: s.class,
                last_verdict: s.last_verdict,
                attempts: s.attempts,
                passes: s.passes,
                store_trusted: s.store_trusted,
            })
            .collect()
    }

    /// Status snapshot for one component, by name.
    pub fn status(&self, name: &str) -> Option<ComponentStatus> {
        self.component_statuses()
            .into_iter()
            .find(|s| s.name == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbst_isa::parse_asm;

    /// A two-instruction "routine": computes 5+7 through the ALU and
    /// stores the result as its signature.
    fn adder_program() -> Program {
        parse_asm(
            "li $t0, 5
             li $t1, 7
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

    fn adder_component(name: &str) -> ManagedComponent {
        ManagedComponent {
            name: name.to_owned(),
            program: adder_program(),
            signature: SigLocation::Label("sig".to_owned()),
            expected_cycles: 16,
        }
    }

    fn golden_store(names: &[&str]) -> SignatureStore {
        SignatureStore::new(names.iter().map(|n| ((*n).to_owned(), 12)).collect())
    }

    #[test]
    fn watchdog_budget_scales_and_floors() {
        let w = WatchdogConfig::default();
        assert_eq!(w.budget_cycles(10), 1_000); // floor
        assert_eq!(w.budget_cycles(10_000), 40_000); // 4× slack
    }

    #[test]
    fn watchdog_completes_short_program() {
        let mut cpu = Cpu::new(CpuConfig::default());
        cpu.load_program(&adder_program());
        match run_with_watchdog(&mut cpu, 1_000).unwrap() {
            WatchdogOutcome::Completed { cycles } => assert!(cycles > 0 && cycles < 100),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn watchdog_aborts_spin_loop() {
        let spin = parse_asm("spin: j spin\nnop")
            .unwrap()
            .assemble(0, 0x1000)
            .unwrap();
        let mut cpu = Cpu::new(CpuConfig::default());
        cpu.load_program(&spin);
        assert_eq!(
            run_with_watchdog(&mut cpu, 500).unwrap(),
            WatchdogOutcome::Hung { budget_cycles: 500 }
        );
    }

    #[test]
    fn store_checksum_catches_corruption() {
        let mut store = golden_store(&["alu"]);
        assert!(store.verify());
        store.corrupt("alu", 0x4000);
        assert!(!store.verify());
        // The legitimate update path re-seals.
        store.set("alu", 12);
        assert!(store.verify());
    }

    #[test]
    fn audit_detects_every_single_field_corruption_as_forgery() {
        let key = MacKey::from_seed(0xA11CE);
        let base = SignatureStore::with_key(vec![("alu".to_owned(), 12)], &key);
        assert_eq!(base.audit(&key, 0), TamperVerdict::Clean);

        let mut value_flip = base.clone();
        value_flip.corrupt("alu", 1);
        assert_eq!(value_flip.audit(&key, 0), TamperVerdict::Forged);

        let mut name_flip = base.clone();
        name_flip.corrupt_name(0, 1, 2);
        assert_eq!(name_flip.audit(&key, 0), TamperVerdict::Forged);

        let mut seal_flip = base.clone();
        seal_flip.corrupt_seal(1 << 63);
        assert_eq!(seal_flip.audit(&key, 0), TamperVerdict::Forged);

        let mut epoch_flip = base.clone();
        epoch_flip.corrupt_epoch(1);
        assert_eq!(epoch_flip.audit(&key, 0), TamperVerdict::Forged);

        let mut checksum_flip = base.clone();
        checksum_flip.corrupt_checksum(0x10);
        assert_eq!(checksum_flip.audit(&key, 0), TamperVerdict::Forged);
    }

    #[test]
    fn forged_entry_with_recomputed_fnv_fails_keyed_audit() {
        let key = MacKey::from_seed(0x5EC_4E7);
        let mut store = SignatureStore::with_key(vec![("alu".to_owned(), 12)], &key);
        store.forge("alu", 0xBAD_F00D);
        // The adversary's best unkeyed move: the legacy checksum passes...
        assert!(store.verify());
        assert_eq!(store.get("alu"), Some(0xBAD_F00D));
        // ...but the keyed seal cannot be recomputed without the key.
        assert_eq!(store.audit(&key, 0), TamperVerdict::Forged);
    }

    #[test]
    fn stale_snapshot_is_detected_as_replay_and_epochs_stay_monotonic() {
        let key = MacKey::from_seed(7);
        let mut store = SignatureStore::with_key(vec![("alu".to_owned(), 12)], &key);
        let stale = store.clone(); // epoch 0, validly sealed
        store.advance_epoch_and_reseal(&key);
        assert_eq!(store.epoch(), 1);
        assert_eq!(store.audit(&key, 1), TamperVerdict::Clean);
        // The replayed snapshot is internally consistent but stale.
        assert_eq!(
            stale.audit(&key, 1),
            TamperVerdict::Replayed {
                stored_epoch: 0,
                expected_epoch: 1,
            }
        );
    }

    #[test]
    fn undecoded_word_runs_as_nop_under_the_fault_free_bench() {
        // Benches only choose faults, so the manager alone must give every
        // routine the opcode-sweep CPU: an undecoded word is a no-op, not
        // a crash.
        let mut asm = parse_asm(
            "li $t0, 5
             li $t1, 7
             addu $t2, $t0, $t1
             la $t3, sig
             sw $t2, 0($t3)",
        )
        .unwrap();
        asm.raw_word(0xFC00_0000) // opcode 0x3F: outside the implemented subset
            .insn(sbst_isa::Instruction::Break { code: 0 })
            .data_label("sig")
            .word(0);
        let sweeper = ManagedComponent {
            program: asm.assemble(0, 0x1_0000).unwrap(),
            ..adder_component("alu")
        };
        let mut mgr = OnlineTestManager::new(
            ManagerConfig::default(),
            vec![sweeper],
            golden_store(&["alu"]),
        );
        assert_eq!(
            mgr.run_session(&mut FaultFreeBench),
            SessionStatus::Completed { healthy: true }
        );
        assert_eq!(mgr.status("alu").unwrap().last_verdict, Some(Verdict::Pass));
    }

    #[test]
    fn resumed_session_audits_store_regression() {
        // Regression: the audit used to be skipped when resuming from a
        // preemption checkpoint, so corruption landing while the session
        // was parked went unnoticed until the *next* fresh session.
        let config = ManagerConfig {
            quantum_cycles: Some(1), // preempt after the first component
            ..ManagerConfig::default()
        };
        let mut mgr = OnlineTestManager::new(
            config,
            vec![adder_component("alu"), adder_component("shifter")],
            golden_store(&["alu", "shifter"]),
        );
        assert_eq!(
            mgr.run_session(&mut FaultFreeBench),
            SessionStatus::Preempted
        );
        // Corruption strikes while parked.
        mgr.store_mut().corrupt("shifter", 0x8000);
        assert_eq!(mgr.run_session(&mut FaultFreeBench), SessionStatus::Halted);
        assert_eq!(mgr.counters().store_corruptions, 1);
        assert_eq!(mgr.counters().tamper_forgeries, 1);
    }

    #[test]
    fn replayed_store_recaptures_and_future_replays_stay_detectable() {
        let key = MacKey::from_seed(0xEB0C);
        let config = ManagerConfig {
            store_policy: StorePolicy::Recapture,
            store_key: key,
            ..ManagerConfig::default()
        };
        let store = SignatureStore::with_key(vec![("alu".to_owned(), 12)], &key);
        let mut mgr = OnlineTestManager::new(config, vec![adder_component("alu")], store);
        let stale = mgr.store().clone(); // epoch 0

        // Stage 1: a forgery forces a legitimate re-capture → epoch 1.
        mgr.store_mut().corrupt("alu", 1);
        assert_eq!(
            mgr.run_session(&mut FaultFreeBench),
            SessionStatus::Completed { healthy: true }
        );
        assert_eq!(mgr.counters().tamper_forgeries, 1);
        assert_eq!(mgr.store().epoch(), 1);

        // Stage 2: replay the pre-recapture snapshot — validly sealed,
        // stale epoch.
        *mgr.store_mut() = stale.clone();
        assert_eq!(
            mgr.run_session(&mut FaultFreeBench),
            SessionStatus::Completed { healthy: true }
        );
        assert_eq!(mgr.counters().tamper_replays, 1);
        assert_eq!(mgr.counters().store_corruptions, 2);
        // Healing advanced *past* the pre-replay epoch: neither captured
        // snapshot (epoch 0 or 1) can be replayed undetected.
        assert_eq!(mgr.store().epoch(), 2);
        assert!(mgr.store().epoch() > stale.epoch());
    }

    #[test]
    fn failed_restore_suspends_component_and_later_session_heals_it() {
        use std::sync::atomic::{AtomicBool, Ordering};
        // The "alu" routine counts down to zero before computing its
        // signature. A stuck-at-1 on ALU result bit 0 keeps the counter
        // odd, so the loop never exits and the capture hangs.
        let countdown = parse_asm(
            "li $t0, 4
             countdown: addiu $t0, $t0, -1
             bne $t0, $zero, countdown
             nop
             li $t0, 5
             li $t1, 7
             addu $t2, $t0, $t1
             la $t3, sig
             sw $t2, 0($t3)
             break 0
             .data
             sig: .word 0",
        )
        .unwrap()
        .assemble(0, 0x1_0000)
        .unwrap();
        let alu = sbst_components::alu::alu(32);
        let bit0_sa1 = sbst_gates::Fault::stem_sa1(alu.ports.output("result").net(0));
        let mut faulty = Cpu::new(CpuConfig::self_test());
        faulty.mount_fault(ArchFault::new(alu.clone(), bit0_sa1));
        faulty.load_program(&countdown);
        assert_eq!(
            run_with_watchdog(&mut faulty, 1_000).unwrap(),
            WatchdogOutcome::Hung {
                budget_cycles: 1_000
            }
        );
        let hang_alu = AtomicBool::new(true);
        let mut bench = |name: &str, _attempt: u32, _now: u64| {
            (name == "alu" && hang_alu.load(Ordering::Relaxed))
                .then(|| ArchFault::new(alu.clone(), bit0_sa1))
        };
        let config = ManagerConfig {
            store_policy: StorePolicy::Recapture,
            ..ManagerConfig::default()
        };
        let mut mgr = OnlineTestManager::new(
            config,
            vec![
                ManagedComponent {
                    program: countdown,
                    ..adder_component("alu")
                },
                adder_component("shifter"),
            ],
            golden_store(&["alu", "shifter"]),
        );
        mgr.store_mut().corrupt("alu", 0xFFFF);

        // Re-capture cannot restore "alu" (routine hangs, no replica):
        // the component is suspended, the shifter keeps getting tested.
        assert_eq!(
            mgr.run_session(&mut bench),
            SessionStatus::Completed { healthy: true }
        );
        assert_eq!(mgr.counters().store_suspensions, 1);
        let alu = mgr.status("alu").unwrap();
        assert!(!alu.store_trusted);
        assert_eq!(alu.attempts, 0, "suspended component must be skipped");
        assert_eq!(mgr.status("shifter").unwrap().attempts, 1);

        // The fault clears; the next clean session heals and re-tests.
        hang_alu.store(false, Ordering::Relaxed);
        assert_eq!(
            mgr.run_session(&mut bench),
            SessionStatus::Completed { healthy: true }
        );
        assert_eq!(mgr.counters().store_heals, 1);
        let alu = mgr.status("alu").unwrap();
        assert!(alu.store_trusted);
        assert_eq!(alu.attempts, 1, "healed component re-enters the schedule");
        assert_eq!(mgr.store().get("alu"), Some(12));
        assert_eq!(mgr.counters().store_corruptions, 1, "heal is not a tamper");
    }

    #[test]
    fn keyed_manager_round_trip_stays_clean() {
        // Zero false positives: a keyed store under a matching manager key
        // audits clean across sessions, recaptures and epoch advances.
        let key = MacKey::from_seed(0xFEED);
        let config = ManagerConfig {
            store_key: key,
            ..ManagerConfig::default()
        };
        let store = SignatureStore::with_key(vec![("alu".to_owned(), 12)], &key);
        let mut mgr = OnlineTestManager::new(config, vec![adder_component("alu")], store);
        mgr.install_replica();
        assert!(mgr.has_replica());
        for _ in 0..3 {
            assert_eq!(
                mgr.run_session(&mut FaultFreeBench),
                SessionStatus::Completed { healthy: true }
            );
        }
        assert_eq!(mgr.counters().store_corruptions, 0);
        assert_eq!(mgr.counters().passes, 3);
    }

    #[test]
    fn healthy_component_passes_first_attempt() {
        let mut mgr = OnlineTestManager::new(
            ManagerConfig::default(),
            vec![adder_component("alu")],
            golden_store(&["alu"]),
        );
        let status = mgr.run_session(&mut FaultFreeBench);
        assert_eq!(status, SessionStatus::Completed { healthy: true });
        assert_eq!(mgr.counters().attempts, 1);
        assert_eq!(mgr.counters().passes, 1);
        assert_eq!(mgr.status("alu").unwrap().health, Health::Healthy);
    }

    #[test]
    fn wrong_golden_escalates_to_quarantine() {
        // A reference that can never match models a permanent fault: three
        // consecutive mismatches classify permanent and quarantine.
        let store = SignatureStore::new(vec![("alu".to_owned(), 0xDEAD_BEEF)]);
        let mut mgr = OnlineTestManager::new(
            ManagerConfig::default(),
            vec![adder_component("alu")],
            store,
        );
        let status = mgr.run_session(&mut FaultFreeBench);
        assert_eq!(status, SessionStatus::Completed { healthy: false });
        let s = mgr.status("alu").unwrap();
        assert_eq!(s.health, Health::Quarantined);
        assert_eq!(s.class, Some(FaultClass::Permanent));
        assert_eq!(mgr.quarantined(), ["alu"]);
        // Exactly threshold attempts, threshold-1 backoffs.
        assert_eq!(mgr.counters().attempts, 3);
        assert_eq!(mgr.counters().backoffs, 2);
        // The next session skips it entirely.
        let before = mgr.counters().attempts;
        mgr.run_session(&mut FaultFreeBench);
        assert_eq!(mgr.counters().attempts, before);
    }

    #[test]
    fn backoff_grows_exponentially_and_caps() {
        let p = RetryPolicy::default();
        assert_eq!(p.backoff_cycles(100, 0), 200);
        assert_eq!(p.backoff_cycles(100, 1), 400);
        assert_eq!(p.backoff_cycles(100, 2), 800);
        assert_eq!(p.backoff_cycles(100, 10), 1_600); // capped at 16×
    }

    #[test]
    fn backoff_boundary_configs_never_wait_zero_cycles() {
        // factor 0: the power is 0 for every retry; the old code let that
        // zero through and scheduled immediate (zero-cycle) retries. It
        // must degrade to a constant one-period wait instead.
        let zero_factor = RetryPolicy {
            backoff_factor: 0,
            ..RetryPolicy::default()
        };
        for retry in [0, 1, 7, u32::MAX - 1, u32::MAX] {
            assert_eq!(zero_factor.backoff_cycles(100, retry), 100, "retry {retry}");
        }
        // factor 1: constant one-period wait at every retry depth.
        let flat = RetryPolicy {
            backoff_factor: 1,
            ..RetryPolicy::default()
        };
        assert_eq!(flat.backoff_cycles(100, 0), 100);
        assert_eq!(flat.backoff_cycles(100, u32::MAX), 100);
        // cap 0: same floor, not a zero-cycle wait.
        let zero_cap = RetryPolicy {
            max_backoff_scale: 0,
            ..RetryPolicy::default()
        };
        assert_eq!(zero_cap.backoff_cycles(100, 0), 100);
        assert_eq!(zero_cap.backoff_cycles(100, 9), 100);
        // Retry counts at the top of u32 saturate the exponent instead of
        // overflowing, and the multiply saturates instead of wrapping.
        let p = RetryPolicy {
            max_backoff_scale: u64::MAX,
            ..RetryPolicy::default()
        };
        assert_eq!(p.backoff_cycles(100, u32::MAX), u64::MAX);
        assert_eq!(p.backoff_cycles(0, u32::MAX), 0);
    }

    #[test]
    fn quantum_preemption_checkpoints_and_resumes() {
        let config = ManagerConfig {
            quantum_cycles: Some(1), // preempt after the first component
            ..ManagerConfig::default()
        };
        let mut mgr = OnlineTestManager::new(
            config,
            vec![adder_component("alu"), adder_component("shifter")],
            golden_store(&["alu", "shifter"]),
        );
        assert_eq!(
            mgr.run_session(&mut FaultFreeBench),
            SessionStatus::Preempted
        );
        assert!(mgr.is_preempted());
        // The first component's pass survived the preemption.
        assert_eq!(mgr.status("alu").unwrap().passes, 1);
        assert_eq!(mgr.status("shifter").unwrap().attempts, 0);
        assert_eq!(
            mgr.run_session(&mut FaultFreeBench),
            SessionStatus::Completed { healthy: true }
        );
        // Resume did not re-test the first component.
        assert_eq!(mgr.status("alu").unwrap().attempts, 1);
        assert_eq!(mgr.status("shifter").unwrap().attempts, 1);
        assert_eq!(mgr.sessions_started(), 1);
        assert_eq!(mgr.counters().preemptions, 1);
    }

    #[test]
    fn corrupted_store_halts_under_halt_policy() {
        let mut mgr = OnlineTestManager::new(
            ManagerConfig::default(),
            vec![adder_component("alu")],
            golden_store(&["alu"]),
        );
        mgr.store_mut().corrupt("alu", 1);
        assert_eq!(mgr.run_session(&mut FaultFreeBench), SessionStatus::Halted);
        assert!(mgr.is_halted());
        // Halt is terminal.
        assert_eq!(mgr.run_session(&mut FaultFreeBench), SessionStatus::Halted);
        assert_eq!(mgr.counters().attempts, 0);
    }

    #[test]
    fn corrupted_store_recaptures_under_recapture_policy() {
        let config = ManagerConfig {
            store_policy: StorePolicy::Recapture,
            ..ManagerConfig::default()
        };
        let mut mgr =
            OnlineTestManager::new(config, vec![adder_component("alu")], golden_store(&["alu"]));
        mgr.store_mut().corrupt("alu", 0xFFFF_0000);
        let status = mgr.run_session(&mut FaultFreeBench);
        assert_eq!(status, SessionStatus::Completed { healthy: true });
        assert!(mgr.store().verify());
        assert_eq!(mgr.store().get("alu"), Some(12));
        assert_eq!(mgr.counters().store_corruptions, 1);
        assert_eq!(mgr.counters().store_recaptures, 1);
    }

    #[test]
    fn shared_components_are_not_cloned_per_manager() {
        // Two managers over the same Arc'd schedule: the components are
        // shared (refcount 3 with the local handle), and both managers
        // behave identically to privately-owned schedules.
        let shared: Arc<[ManagedComponent]> = vec![adder_component("alu")].into();
        let mut a = OnlineTestManager::with_shared_components(
            ManagerConfig::default(),
            Arc::clone(&shared),
            golden_store(&["alu"]),
        );
        let mut b = OnlineTestManager::with_shared_components(
            ManagerConfig::default(),
            Arc::clone(&shared),
            golden_store(&["alu"]),
        );
        assert_eq!(Arc::strong_count(&shared), 3);
        for mgr in [&mut a, &mut b] {
            assert_eq!(
                mgr.run_session(&mut FaultFreeBench),
                SessionStatus::Completed { healthy: true }
            );
        }
        assert_eq!(a.counters(), b.counters());
    }

    #[test]
    fn disabled_event_log_keeps_counters_and_verdicts() {
        let config = ManagerConfig {
            record_events: false,
            ..ManagerConfig::default()
        };
        // A never-matching golden drives the full failure path (attempts,
        // backoffs, classification, quarantine) with the log off.
        let store = SignatureStore::new(vec![("alu".to_owned(), 0xDEAD_BEEF)]);
        let mut mgr = OnlineTestManager::new(config, vec![adder_component("alu")], store);
        let status = mgr.run_session(&mut FaultFreeBench);
        assert_eq!(status, SessionStatus::Completed { healthy: false });
        assert!(mgr.events().is_empty(), "log must stay empty when disabled");
        assert_eq!(mgr.counters().attempts, 3);
        assert_eq!(mgr.counters().backoffs, 2);
        assert_eq!(mgr.counters().quarantines, 1);
        assert_eq!(mgr.quarantined(), ["alu"]);
        assert_eq!(mgr.status("alu").unwrap().health, Health::Quarantined);
    }

    #[test]
    fn adopt_schedule_resets_components_keeps_history() {
        let store = SignatureStore::new(vec![("alu".to_owned(), 0)]);
        let mut mgr = OnlineTestManager::new(
            ManagerConfig::default(),
            vec![adder_component("alu")],
            store,
        );
        mgr.run_session(&mut FaultFreeBench); // quarantines (golden 0 ≠ 12)
        assert_eq!(mgr.quarantined(), ["alu"]);
        mgr.adopt_schedule(vec![adder_component("shifter")], golden_store(&["shifter"]));
        assert_eq!(
            mgr.run_session(&mut FaultFreeBench),
            SessionStatus::Completed { healthy: true }
        );
        assert_eq!(mgr.quarantined(), ["alu"]); // history persists
        assert_eq!(mgr.active_components(), ["shifter"]);
    }
}
