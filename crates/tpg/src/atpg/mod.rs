//! Deterministic ATPG: PODEM with instruction-imposed input constraints.
//!
//! The paper's first TPG strategy generates compact deterministic tests for
//! combinational D-VCs using *constrained* ATPG — constraints model what the
//! instruction set can actually apply (e.g. the shifter's `op` lines are
//! fixed by the executing instruction). This module implements the PODEM
//! algorithm (decision space over primary inputs, objective/backtrace/imply)
//! on `sbst-gates` netlists, preceded by a random-fill phase with fault
//! dropping and pattern compaction.
//!
//! # The parallel deterministic kernel
//!
//! The PODEM phase is organized for reproducible parallelism, in three
//! pieces (one submodule each):
//!
//! * [`search`](self) — one PODEM search per target fault, evaluated on a
//!   compiled three-valued tape ([`sbst_gates::Tape3`]) instead of an
//!   interpreted netlist walk. Each search draws its X-fill bits from a
//!   **per-target RNG stream** (a splitmix64 mix of
//!   [`AtpgConfig::rng_seed`] and the fault's identity), so a search's
//!   result is a pure function of (netlist, constraints, config, fault) —
//!   independent of visitation order and thread count.
//! * *fan-out* — undetected targets are sorted into a canonical
//!   fault-site order and searched in fixed-size rounds; within a round,
//!   [`sbst_gates::fan_out`] spreads the searches over workers and returns
//!   the results in target order.
//! * *merge* — a sequential reducer applies each round's results in the
//!   canonical order: accepted tests re-run drop simulation on one
//!   long-lived [`FaultSimulator`] (shared with the random phase; its
//!   compiled tape is built once per run), and a search result whose target
//!   an earlier accepted pattern already covered is discarded.
//!
//! Because the searches are order-independent and the reduction order is
//! intrinsic to the faults (not their list positions), `patterns`,
//! `outcomes` and [`AtpgStats`] are bit-identical for **any thread count**,
//! and outcome multisets / kept-pattern sets are invariant under
//! **permutations of the fault list**.
//!
//! # The per-function campaign
//!
//! A deterministic routine cannot apply an arbitrary input vector: the
//! executing instruction fixes the CUT's operation select.
//! [`per_function_campaign`] is the one place that turns this into ATPG
//! runs: one constrained run per instruction-selectable operation, each
//! over the faults the earlier operations left undetected. Every `AtpgD`
//! routine and the ATPG benchmark go through it.

mod merge;
mod search;

use std::collections::HashMap;
use std::time::{Duration, Instant};

use sbst_components::Component;
use sbst_gates::{
    fan_out, resolve_threads, Fault, FaultSimConfig, FaultSimulator, NetId, Netlist, SimEngine,
    Stimulus, T3,
};

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use search::{Scratch, Searcher};

/// Targets searched speculatively per scheduling round. Fixed (never
/// derived from the thread count) so round composition — and therefore the
/// result — is identical for any parallelism; small enough to bound the
/// speculative searches a round can waste on targets that an accepted
/// pattern from the same round covers.
const ROUND_TARGETS: usize = 32;

/// Fixes a primary input to a constant for every generated pattern —
/// the "instruction-imposed constraints" of the paper (e.g. operation
/// select lines pinned by the exciting instruction).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InputConstraint {
    /// The constrained primary input.
    pub net: NetId,
    /// Its pinned value.
    pub value: bool,
}

/// ATPG configuration.
#[derive(Debug, Clone, Copy)]
pub struct AtpgConfig {
    /// Random patterns tried (with fault dropping) before PODEM.
    pub random_patterns: usize,
    /// PODEM backtrack limit per fault.
    pub backtrack_limit: usize,
    /// Seed for the random phase and X-filling.
    pub rng_seed: u64,
    /// Worker threads for the fault-grading passes (random phase and PODEM
    /// fault dropping); `None` uses the machine's available parallelism.
    /// Pattern sets and outcomes are bit-identical for every setting.
    pub sim_threads: Option<usize>,
    /// Worker threads for the PODEM searches themselves; `None` uses the
    /// machine's available parallelism. Pattern sets, outcomes and stats
    /// are bit-identical for every setting.
    pub podem_threads: Option<usize>,
    /// Fault-simulation engine for the grading passes. Results are
    /// bit-identical across engines; the compiled tape is fastest here
    /// because one cached tape serves the random phase and every
    /// single-pattern drop simulation.
    pub sim_engine: SimEngine,
}

impl Default for AtpgConfig {
    fn default() -> Self {
        AtpgConfig {
            random_patterns: 256,
            backtrack_limit: 2_000,
            rng_seed: 0x5B57_1E57,
            sim_threads: None,
            podem_threads: None,
            sim_engine: SimEngine::Compiled,
        }
    }
}

/// Per-fault outcome of an ATPG run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AtpgOutcome {
    /// Detected by a random-phase pattern.
    DetectedByRandom,
    /// Detected by a PODEM-generated pattern.
    DetectedByPodem,
    /// Proved untestable under the given constraints: either at the root
    /// of the search, before its first decision (the activation net is
    /// held at the stuck value, or no open route leads to an output —
    /// a mux whose select the constraints fix blocks its other data
    /// input), or by exhausting the search space without heuristic
    /// cutoffs.
    Redundant,
    /// Search abandoned (backtrack limit or heuristic dead end).
    Aborted,
}

impl AtpgOutcome {
    /// Whether the fault ended up covered by some pattern.
    pub fn is_detected(self) -> bool {
        matches!(
            self,
            AtpgOutcome::DetectedByRandom | AtpgOutcome::DetectedByPodem
        )
    }
}

/// Instrumentation from one [`Atpg::run`]: pattern economy of the random
/// phase and search effort of the PODEM phase. Bit-identical for any
/// thread count.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AtpgStats {
    /// Random patterns generated and graded.
    pub random_patterns_tried: u64,
    /// Random patterns kept after first-detector compaction.
    pub random_patterns_kept: u64,
    /// Faults detected by the random phase.
    pub detected_by_random: u64,
    /// Faults whose PODEM search result was applied by the reducer.
    pub podem_targets: u64,
    /// PODEM searches that produced an accepted test pattern.
    pub podem_tests: u64,
    /// Total backtracks (decision retries) across all applied searches.
    pub podem_backtracks: u64,
    /// Faults proved redundant under the constraints (root proofs
    /// included; they cost no backtrack).
    pub redundant: u64,
    /// Searches abandoned (backtrack limit or heuristic dead end).
    pub aborted: u64,
    /// Speculative searches discarded by the reducer because an earlier
    /// accepted pattern already covered the target.
    pub podem_discarded: u64,
}

impl AtpgStats {
    /// Field-wise accumulation (for multi-run telemetry).
    pub fn accumulate(&mut self, other: &AtpgStats) {
        self.random_patterns_tried += other.random_patterns_tried;
        self.random_patterns_kept += other.random_patterns_kept;
        self.detected_by_random += other.detected_by_random;
        self.podem_targets += other.podem_targets;
        self.podem_tests += other.podem_tests;
        self.podem_backtracks += other.podem_backtracks;
        self.redundant += other.redundant;
        self.aborted += other.aborted;
        self.podem_discarded += other.podem_discarded;
    }
}

/// Per-worker accounting for the PODEM phase of one [`Atpg::run`].
/// Observational (how the speculative searches spread over the pool) — not
/// part of the deterministic result.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AtpgThreadStats {
    /// PODEM searches this worker ran (applied or discarded).
    pub searches: u64,
    /// Backtracks across this worker's searches.
    pub backtracks: u64,
    /// Wall-clock time this worker spent searching.
    pub busy: Duration,
}

impl AtpgThreadStats {
    fn accumulate(&mut self, other: &AtpgThreadStats) {
        self.searches += other.searches;
        self.backtracks += other.backtracks;
        self.busy += other.busy;
    }
}

/// Result of an ATPG run: the compacted pattern set and per-fault outcomes.
#[derive(Debug, Clone)]
pub struct AtpgResult {
    /// Generated patterns, each a full input vector in
    /// [`Netlist::inputs`] order.
    pub patterns: Vec<Vec<bool>>,
    /// Outcome per fault (parallel to the fault list given to
    /// [`Atpg::run`]).
    pub outcomes: Vec<AtpgOutcome>,
    /// Search-effort instrumentation for this run.
    pub stats: AtpgStats,
    /// Wall-clock time of the PODEM phase (searches + reduction).
    pub podem_wall_time: Duration,
    /// Worker threads used for the PODEM searches.
    pub podem_threads_used: usize,
    /// Per-worker PODEM accounting, in worker order.
    pub thread_stats: Vec<AtpgThreadStats>,
    /// Evaluation tapes compiled by the PODEM drop simulations. Stays 0
    /// whenever the random phase ran first (it warms the run's shared
    /// simulator) — the regression signal that drop simulation no longer
    /// rebuilds a simulator per generated pattern.
    pub drop_sim_tape_compilations: u64,
}

impl AtpgResult {
    /// The pattern set as a fault-simulation stimulus.
    pub fn stimulus(&self) -> Stimulus {
        let mut stim = Stimulus::new();
        for p in &self.patterns {
            stim.push_pattern(p);
        }
        stim
    }

    /// Number of faults detected, by the random phase or by PODEM.
    pub fn detected_count(&self) -> usize {
        self.outcomes.iter().filter(|o| o.is_detected()).count()
    }
}

/// Aggregated ATPG instrumentation across several [`Atpg::run`] calls (e.g.
/// the per-function constrained campaigns of a routine build).
#[derive(Debug, Clone, Default)]
pub struct AtpgTelemetry {
    /// Number of [`Atpg::run`] calls absorbed.
    pub runs: u64,
    /// Field-wise summed run stats.
    pub stats: AtpgStats,
    /// Summed PODEM-phase wall time.
    pub podem_wall_time: Duration,
    /// Maximum PODEM worker-thread count observed.
    pub podem_threads: usize,
    /// Per-worker accounting merged by worker index across runs.
    pub thread_stats: Vec<AtpgThreadStats>,
    /// Summed [`AtpgResult::drop_sim_tape_compilations`] — stays 0 when
    /// every run's random phase warmed its shared simulator.
    pub drop_sim_tape_compilations: u64,
}

impl AtpgTelemetry {
    /// Folds one run's instrumentation into the aggregate.
    pub fn absorb(&mut self, result: &AtpgResult) {
        self.runs += 1;
        self.stats.accumulate(&result.stats);
        self.podem_wall_time += result.podem_wall_time;
        self.podem_threads = self.podem_threads.max(result.podem_threads_used);
        self.drop_sim_tape_compilations += result.drop_sim_tape_compilations;
        if self.thread_stats.len() < result.thread_stats.len() {
            self.thread_stats
                .resize(result.thread_stats.len(), AtpgThreadStats::default());
        }
        for (acc, t) in self.thread_stats.iter_mut().zip(&result.thread_stats) {
            acc.accumulate(t);
        }
    }

    /// Folds another aggregate into this one (e.g. per-component
    /// telemetries into an inventory total).
    pub fn merge(&mut self, other: &AtpgTelemetry) {
        self.runs += other.runs;
        self.stats.accumulate(&other.stats);
        self.podem_wall_time += other.podem_wall_time;
        self.podem_threads = self.podem_threads.max(other.podem_threads);
        self.drop_sim_tape_compilations += other.drop_sim_tape_compilations;
        if self.thread_stats.len() < other.thread_stats.len() {
            self.thread_stats
                .resize(other.thread_stats.len(), AtpgThreadStats::default());
        }
        for (acc, t) in self.thread_stats.iter_mut().zip(&other.thread_stats) {
            acc.accumulate(t);
        }
    }
}

/// A canonical, permutation-invariant total order on faults: site kind,
/// site ids, then stuck polarity. Used both to derive per-target RNG
/// streams and to order the speculative-search reduction, so neither
/// depends on where a fault happens to sit in the caller's list.
pub(crate) fn fault_key(fault: &Fault) -> u64 {
    use sbst_gates::FaultSite;
    let stuck = fault.stuck_value as u64;
    match fault.site {
        FaultSite::Stem(net) => ((net.index() as u64) << 1) | stuck,
        FaultSite::Pin { gate, pin } => {
            (1 << 63) | ((gate.index() as u64) << 9) | ((pin as u64) << 1) | stuck
        }
    }
}

/// Derives the per-target RNG stream seed: a splitmix64 finalizer over the
/// run seed mixed with the fault's canonical key.
pub(crate) fn fault_stream_seed(rng_seed: u64, fault: &Fault) -> u64 {
    let mut z = rng_seed ^ fault_key(fault).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// PODEM automatic test pattern generator over a combinational netlist.
///
/// # Example
///
/// ```
/// use sbst_tpg::{Atpg, AtpgConfig};
/// use sbst_components::shifter;
///
/// let cut = shifter::shifter(8);
/// let faults = cut.netlist.collapsed_faults();
/// let result = Atpg::new(&cut.netlist).run(&faults);
/// let detected = result.detected_count();
/// assert!(detected as f64 / faults.len() as f64 > 0.95);
/// ```
#[derive(Debug)]
pub struct Atpg<'a> {
    netlist: &'a Netlist,
    constraints: HashMap<NetId, bool>,
    config: AtpgConfig,
}

impl<'a> Atpg<'a> {
    /// Creates an unconstrained ATPG engine for a combinational netlist.
    ///
    /// # Panics
    ///
    /// Panics if the netlist is sequential.
    pub fn new(netlist: &'a Netlist) -> Self {
        assert!(
            netlist.is_combinational(),
            "PODEM requires a combinational netlist"
        );
        Atpg {
            netlist,
            constraints: HashMap::new(),
            config: AtpgConfig::default(),
        }
    }

    /// Adds instruction-imposed constraints.
    pub fn with_constraints(mut self, constraints: &[InputConstraint]) -> Self {
        for c in constraints {
            assert!(
                self.netlist.input_position(c.net).is_some(),
                "constraint target must be a primary input"
            );
            self.constraints.insert(c.net, c.value);
        }
        self
    }

    /// Overrides the configuration.
    pub fn with_config(mut self, config: AtpgConfig) -> Self {
        self.config = config;
        self
    }

    /// Fault-simulator configuration for the grading passes.
    fn sim_config(&self) -> FaultSimConfig {
        FaultSimConfig {
            threads: self.config.sim_threads,
            engine: self.config.sim_engine,
            ..FaultSimConfig::default()
        }
    }

    /// The initial (constraint-pinned) primary-input assignment, in
    /// [`Netlist::inputs`] order.
    fn pi_template(&self) -> Vec<T3> {
        self.netlist
            .inputs()
            .iter()
            .map(|net| self.constraints.get(net).copied())
            .collect()
    }

    /// Runs the random phase followed by PODEM on the remaining faults.
    pub fn run(&self, faults: &[Fault]) -> AtpgResult {
        let mut rng = StdRng::seed_from_u64(self.config.rng_seed);
        let n_inputs = self.netlist.inputs().len();
        let threads = resolve_threads(self.config.podem_threads);
        let mut run = AtpgResult {
            patterns: Vec::new(),
            outcomes: vec![AtpgOutcome::Aborted; faults.len()],
            stats: AtpgStats::default(),
            podem_wall_time: Duration::ZERO,
            podem_threads_used: threads,
            thread_stats: vec![AtpgThreadStats::default(); threads],
            drop_sim_tape_compilations: 0,
        };
        // One fault simulator for the whole run: the random phase and every
        // PODEM drop simulation share it, so the compiled engine pays tape
        // compilation once per run, not once per generated pattern.
        let sim = FaultSimulator::with_config(self.netlist, self.sim_config());

        // --- Random phase with fault dropping and pattern compaction ---
        if self.config.random_patterns > 0 {
            let mut stim = Stimulus::new();
            let mut random_set = Vec::with_capacity(self.config.random_patterns);
            for _ in 0..self.config.random_patterns {
                let p: Vec<bool> = (0..n_inputs)
                    .map(|i| {
                        let net = self.netlist.inputs()[i];
                        self.constraints
                            .get(&net)
                            .copied()
                            .unwrap_or_else(|| rng.random())
                    })
                    .collect();
                stim.push_pattern(&p);
                random_set.push(p);
            }
            let res = sim.simulate(faults, &stim);
            // Keep only the patterns that first detected some fault.
            let mut keep: Vec<u32> = res.detecting_cycle.iter().flatten().copied().collect();
            keep.sort_unstable();
            keep.dedup();
            for &cycle in &keep {
                run.patterns.push(random_set[cycle as usize].clone());
            }
            for (i, det) in res.detected.iter().enumerate() {
                if *det {
                    run.outcomes[i] = AtpgOutcome::DetectedByRandom;
                }
            }
            run.stats.random_patterns_tried = self.config.random_patterns as u64;
            run.stats.random_patterns_kept = keep.len() as u64;
            run.stats.detected_by_random = res.detected.iter().filter(|d| **d).count() as u64;
        }

        // --- PODEM phase: speculative parallel searches, canonical merge ---
        let podem_start = Instant::now();
        let searcher = Searcher::new(
            self.netlist,
            self.pi_template(),
            self.config.backtrack_limit,
            self.config.rng_seed,
        );
        // Canonical target order: intrinsic to the fault sites, so the
        // reduction (and every stat it produces) is invariant under
        // permutations of the caller's fault list.
        let mut order: Vec<usize> = (0..faults.len())
            .filter(|&i| !run.outcomes[i].is_detected())
            .collect();
        order.sort_by_key(|&i| (fault_key(&faults[i]), i));

        let mut cursor = 0usize;
        while cursor < order.len() {
            let mut round: Vec<usize> = Vec::with_capacity(ROUND_TARGETS);
            while cursor < order.len() && round.len() < ROUND_TARGETS {
                let i = order[cursor];
                cursor += 1;
                if !run.outcomes[i].is_detected() {
                    round.push(i);
                }
            }
            if round.is_empty() {
                continue;
            }
            let (results, workers) = fan_out(
                &round,
                threads,
                <(Scratch, AtpgThreadStats)>::default,
                |(scratch, local), &target| {
                    let busy_start = Instant::now();
                    let res = searcher.search(&faults[target], scratch);
                    local.searches += 1;
                    local.backtracks += res.backtracks;
                    local.busy += busy_start.elapsed();
                    res
                },
            );
            for (acc, (_, local)) in run.thread_stats.iter_mut().zip(&workers) {
                acc.accumulate(local);
            }
            merge::apply_round(&sim, faults, &round, results, &mut run);
        }
        run.podem_wall_time = podem_start.elapsed();
        run
    }
}

/// Pins `component`'s `op` bus to `encoding`: the instruction-imposed
/// constraint of an instruction that selects that operation.
///
/// # Panics
///
/// Panics if the component has no `op` input port.
pub fn op_constraints(component: &Component, encoding: u8) -> Vec<InputConstraint> {
    let op_bus = component.ports.input("op");
    (0..op_bus.width())
        .map(|bit| InputConstraint {
            net: op_bus.net(bit),
            value: (encoding >> bit) & 1 == 1,
        })
        .collect()
}

/// The per-function constrained ATPG campaign of the `AtpgD` routines.
///
/// For each op encoding, in order, pins the `op` bus
/// ([`op_constraints`]) and runs [`Atpg::run`] over the collapsed faults
/// that every earlier encoding's run left undetected. Returns one
/// [`AtpgResult`] per encoding; its `outcomes` are parallel to that run's
/// remaining-fault list, so the runs' [`AtpgResult::detected_count`]s sum
/// to the campaign's detected faults.
///
/// # Example
///
/// ```
/// use sbst_components::shifter::{self, ShiftFunc};
/// use sbst_tpg::{per_function_campaign, AtpgConfig};
///
/// let cut = shifter::shifter(8);
/// let encodings = ShiftFunc::ALL.map(ShiftFunc::encoding);
/// let runs = per_function_campaign(&cut, &encodings, AtpgConfig::default());
/// let detected: usize = runs.iter().map(|r| r.detected_count()).sum();
/// assert_eq!(detected, cut.netlist.collapsed_faults().len());
/// ```
pub fn per_function_campaign(
    component: &Component,
    encodings: &[u8],
    config: AtpgConfig,
) -> Vec<AtpgResult> {
    let mut remaining = component.netlist.collapsed_faults();
    let mut runs = Vec::with_capacity(encodings.len());
    for &encoding in encodings {
        let result = Atpg::new(&component.netlist)
            .with_constraints(&op_constraints(component, encoding))
            .with_config(config)
            .run(&remaining);
        remaining = remaining
            .into_iter()
            .zip(&result.outcomes)
            .filter(|(_, o)| !o.is_detected())
            .map(|(f, _)| f)
            .collect();
        runs.push(result);
    }
    runs
}

#[cfg(test)]
mod tests;
