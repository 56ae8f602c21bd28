//! Parallel fault simulation for single-stuck-at and gross
//! transition-delay fault models.
//!
//! Stuck-at faults are graded by [`FaultSimulator::simulate`];
//! transition-delay faults by [`FaultSimulator::simulate_transition`]
//! under two-pattern (launch/capture) semantics. Both models share all of
//! the machinery below — only injection, and the arming state a repack
//! moves with a transition fault, differ.
//!
//! Two engines grade a batch ([`SimEngine`]):
//!
//! - [`SimEngine::Compiled`] (the default, the production engine): the
//!   netlist is compiled once into a flat evaluation tape
//!   ([`crate::CompiledTape`]) of one entry per gate, and each pass runs
//!   [`crate::MAX_LANE_WORDS`]` × 64 = 256` lanes wide — one fault-free
//!   reference lane plus up to 255 faulty machines.
//! - [`SimEngine::FullEval`] (the reference oracle): a plain
//!   [`Simulator`] evaluates every combinational gate on every cycle, 64
//!   lanes wide — one reference plus [`FAULTS_PER_BATCH`] faults per pass.
//!   It is the simplest engine, and the differential tests pin the
//!   compiled tape against it.
//!
//! The fault list is partitioned in index order into contiguous batches
//! of the engine's [`SimEngine::faults_per_pass`], one lane per fault.
//! Runs of four consecutive batches form fixed *groups*, and the groups
//! fan out over worker threads ([`crate::fan_out`]). A group clocks its
//! batches window by window, 16 cycles at a time. Under `drop_on_detect`
//! a batch stops as soon as all of its faults are detected, and at every
//! window boundary the group gathers its undetected faults into as few
//! batches as they fill, when that frees a batch, and stops clocking the
//! emptied ones — the survivor repacking of sequential fault simulators
//! such as PROOFS (Niermann, Cheng and Patel, IEEE TCAD 1992). A moved
//! fault is re-injected at its new lane and takes its flip-flop bits
//! and, under the transition model, its arming bit along; every other
//! net value is rebuilt from the inputs and the flip-flops by each eval.
//! Groups share no state, and they and their windows are fixed by the
//! fault list and the stimulus alone, never by the thread count.
//!
//! Coverage, per-fault detecting cycles and fault-free responses are
//! bit-identical across both engines and every thread count: lanes are
//! independent machines wherever they sit, a fault leaves the simulation
//! only once it is detected, and the group holding fault 0 keeps one
//! batch, whose lane 0 records the reference, running over the whole
//! stimulus.

use std::ops::Range;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

use crate::coverage::FaultCoverage;
use crate::fanout::{fan_out, resolve_threads};
use crate::fault::{Fault, TransitionFault};
use crate::net::NetId;
use crate::netlist::Netlist;
use crate::sim::{Simulator, LANES};
use crate::tape::{CompiledTape, TapeSimulator, MAX_LANE_WORDS};

/// Faults graded per simulation pass: one lane per fault, with lane 0
/// reserved for the fault-free reference machine.
///
/// Derived from [`LANES`] so a lane-width change can never desync batching
/// from injection.
pub const FAULTS_PER_BATCH: usize = LANES - 1;

/// Consecutive batches one worker grades together, repacking their
/// surviving faults as the others are detected. It also bounds how many
/// batch simulators a worker holds at once.
const GROUP_BATCHES: usize = 4;

/// Cycles a group clocks between repack checks.
const WINDOW_CYCLES: usize = 16;

// Lane masks and the per-batch live mask are `u64` words; the lane count
// must match exactly or injection masks would silently truncate.
const _: () = assert!(
    LANES == u64::BITS as usize,
    "LANES must equal the bit width of the u64 lane masks"
);

/// A sequence of input patterns applied to a netlist, one per clock cycle,
/// with per-cycle observability.
///
/// For combinational circuits every cycle is simply one test pattern. For
/// sequential circuits a stimulus describes a multi-cycle test session
/// (e.g. load a divider, clock it 32 times, observe the result), where
/// outputs are compared only on cycles marked observable.
#[derive(Debug, Clone, Default)]
pub struct Stimulus {
    /// One entry per cycle: the input vector (parallel to
    /// [`Netlist::inputs`]) and whether outputs are observed this cycle.
    cycles: Vec<(Vec<bool>, bool)>,
}

impl Stimulus {
    /// Creates an empty stimulus.
    pub fn new() -> Self {
        Stimulus::default()
    }

    /// Appends an observed pattern (the common case for combinational CUTs).
    pub fn push_pattern(&mut self, inputs: &[bool]) {
        self.cycles.push((inputs.to_vec(), true));
    }

    /// Appends a cycle whose outputs are not compared (sequential set-up or
    /// internal compute cycles).
    pub fn push_hidden_cycle(&mut self, inputs: &[bool]) {
        self.cycles.push((inputs.to_vec(), false));
    }

    /// Appends a cycle with explicit observability.
    pub fn push_cycle(&mut self, inputs: &[bool], observe: bool) {
        self.cycles.push((inputs.to_vec(), observe));
    }

    /// Number of cycles.
    pub fn len(&self) -> usize {
        self.cycles.len()
    }

    /// Returns `true` if no cycles have been added.
    pub fn is_empty(&self) -> bool {
        self.cycles.is_empty()
    }

    /// Number of cycles whose outputs are observed.
    pub fn observed_cycles(&self) -> usize {
        self.cycles.iter().filter(|(_, o)| *o).count()
    }

    /// Iterates over `(inputs, observe)` cycles.
    pub fn iter(&self) -> impl Iterator<Item = (&[bool], bool)> {
        self.cycles.iter().map(|(v, o)| (v.as_slice(), *o))
    }
}

/// Partitions `fault_count` faults into contiguous index ranges of at
/// most `per_batch` faults, one simulation pass each, in order. An empty
/// fault list yields a single empty batch: the simulator still runs one
/// reference-only pass to record fault-free responses.
fn fault_batches(fault_count: usize, per_batch: usize) -> Vec<Range<usize>> {
    let n_batches = fault_count.div_ceil(per_batch).max(1);
    (0..n_batches)
        .map(|b| b * per_batch..((b + 1) * per_batch).min(fault_count))
        .collect()
}

/// Which simulation engine grades each fault batch.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum SimEngine {
    /// Compiled evaluation tape (see [`crate::CompiledTape`]): flat
    /// instruction stream of one entry per gate with precomputed operand
    /// indices, and 4×`u64` lane blocks grading up to 255 faults per pass
    /// (the default).
    #[default]
    Compiled,
    /// Evaluate every combinational gate on every cycle with a plain
    /// [`Simulator`]: the reference oracle the compiled tape is
    /// differentially tested against.
    FullEval,
}

impl SimEngine {
    /// Human-readable engine name (used in bench output and JSON reports).
    pub fn name(self) -> &'static str {
        match self {
            SimEngine::Compiled => "compiled",
            SimEngine::FullEval => "full-eval",
        }
    }

    /// Faults graded per simulation pass under this engine (excluding the
    /// fault-free reference lane): `4 × 64 - 1 = 255` for the wide
    /// compiled tape, [`FAULTS_PER_BATCH`] for the 64-lane reference.
    pub fn faults_per_pass(self) -> usize {
        match self {
            SimEngine::Compiled => MAX_LANE_WORDS * LANES - 1,
            SimEngine::FullEval => FAULTS_PER_BATCH,
        }
    }
}

/// Configuration for [`FaultSimulator`].
#[derive(Debug, Clone, Copy)]
pub struct FaultSimConfig {
    /// Stop simulating a fault once it is detected: a batch stops as
    /// soon as every fault in it is detected, and a group repacks its
    /// survivors into fewer batches. `false` clocks every batch over the
    /// whole stimulus.
    pub drop_on_detect: bool,
    /// Worker threads for fault-batch fan-out.
    ///
    /// `None` (the default) uses [`std::thread::available_parallelism`];
    /// `Some(1)` grades every batch on the calling thread; `Some(n)` pins
    /// the pool, which is how benches make wall-clock numbers reproducible.
    /// The effective count never exceeds the number of batch groups (four
    /// batches each). Coverage results are bit-identical for every
    /// setting.
    pub threads: Option<usize>,
    /// Simulation engine (default [`SimEngine::Compiled`]). Coverage
    /// results are bit-identical for both engines; only batch packing and
    /// wall time differ.
    pub engine: SimEngine,
}

impl Default for FaultSimConfig {
    fn default() -> Self {
        FaultSimConfig {
            drop_on_detect: true,
            threads: None,
            engine: SimEngine::default(),
        }
    }
}

impl FaultSimConfig {
    /// Default configuration with a pinned worker count.
    pub fn with_threads(threads: usize) -> Self {
        FaultSimConfig {
            threads: Some(threads.max(1)),
            ..FaultSimConfig::default()
        }
    }

    /// Default configuration with a pinned engine.
    pub fn with_engine(engine: SimEngine) -> Self {
        FaultSimConfig {
            engine,
            ..FaultSimConfig::default()
        }
    }
}

/// Instrumentation from one [`FaultSimulator::simulate`] run: how much
/// simulation happened and how much `drop_on_detect` saved. Independent
/// of the thread count.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimStats {
    /// Fault batches of the initial packing (up to
    /// [`SimEngine::faults_per_pass`] faults each, plus the reference
    /// lane); repacking merges them as faults are detected.
    pub batches: u64,
    /// Netlist cycles actually clocked, summed over every batch simulator.
    pub cycles_simulated: u64,
    /// Cycles the initial packing would clock without dropping
    /// (`batches * stimulus.len()`); the gap to `cycles_simulated` is what
    /// dropping detected faults and repacking the survivors saved.
    pub cycles_scheduled: u64,
    /// Lane-cycles that carried a not-yet-detected fault: each fault
    /// counts the cycles up to and including its detecting cycle, or the
    /// whole stimulus when it stays undetected (summed from the merged
    /// detecting cycles, not counted while clocking). Independent of packing,
    /// engine and thread count; against `cycles_simulated ×`
    /// [`SimEngine::faults_per_pass`] it shows how much of the clocked lane
    /// capacity still had a fault to grade.
    pub live_lane_cycles: u64,
    /// Gate-evaluation events performed (each event evaluating every lane
    /// of one gate bit-parallel). Both engines evaluate every
    /// combinational gate on every clocked cycle, so this always equals
    /// [`SimStats::events_full_eval`].
    pub events_simulated: u64,
    /// Events a full evaluation of every clocked cycle costs
    /// (`cycles_simulated × combinational gate count`).
    pub events_full_eval: u64,
    /// Evaluation tapes compiled *during this call*: 1 on a compiled-engine
    /// simulator's first run, 0 afterwards (the tape is cached per
    /// [`FaultSimulator`]) and 0 under the full-eval reference.
    pub tape_compilations: u64,
    /// Fault lanes occupied by the initial packing (the fault count).
    pub lane_slots_filled: u64,
    /// Fault-lane capacity of the initial packing
    /// (`batches × `[`SimEngine::faults_per_pass`]); the gap to
    /// `lane_slots_filled` is the final partial batch's padding.
    pub lane_slots_total: u64,
}

impl SimStats {
    /// Field-wise accumulation of another run's counters (e.g. every row of
    /// a table).
    pub fn accumulate(&mut self, other: &SimStats) {
        self.batches += other.batches;
        self.cycles_simulated += other.cycles_simulated;
        self.cycles_scheduled += other.cycles_scheduled;
        self.live_lane_cycles += other.live_lane_cycles;
        self.events_simulated += other.events_simulated;
        self.events_full_eval += other.events_full_eval;
        self.tape_compilations += other.tape_compilations;
        self.lane_slots_filled += other.lane_slots_filled;
        self.lane_slots_total += other.lane_slots_total;
    }

    /// Cycles skipped by `drop_on_detect` (batches stopped early or
    /// emptied by a repack).
    pub fn cycles_dropped(&self) -> u64 {
        self.cycles_scheduled.saturating_sub(self.cycles_simulated)
    }

    /// Fraction of scheduled cycles skipped by `drop_on_detect`, as a
    /// percentage in `0.0..=100.0`.
    pub fn drop_savings_percent(&self) -> f64 {
        if self.cycles_scheduled == 0 {
            0.0
        } else {
            self.cycles_dropped() as f64 / self.cycles_scheduled as f64 * 100.0
        }
    }

    /// Fraction of the initial packing's fault lanes occupied, in
    /// `0.0..=1.0` (0.0 when nothing was graded). Every batch but the last
    /// starts full, so this approaches 1.0 as the fault list grows; how
    /// many lanes still carry an undetected fault as the run goes on is
    /// [`SimStats::live_lane_cycles`].
    pub fn lane_occupancy(&self) -> f64 {
        if self.lane_slots_total == 0 {
            0.0
        } else {
            self.lane_slots_filled as f64 / self.lane_slots_total as f64
        }
    }
}

/// Result of a fault simulation run.
#[derive(Debug, Clone)]
pub struct FaultSimResult {
    /// Per-fault detection flag, parallel to the fault list that was graded.
    pub detected: Vec<bool>,
    /// For detected faults, the (0-based) cycle of first detection.
    pub detecting_cycle: Vec<Option<u32>>,
    /// Fault-free output words per observed cycle (outputs packed LSB-first
    /// into `u64`s, 64 outputs per word).
    pub fault_free_responses: Vec<Vec<u64>>,
    /// Worker threads actually used for this run.
    pub threads_used: usize,
    /// Engine that graded the batches.
    pub engine: SimEngine,
    /// Wall-clock time of the run.
    pub wall_time: Duration,
    /// Simulation-volume instrumentation.
    pub stats: SimStats,
}

impl FaultSimResult {
    /// Coverage over the graded fault list.
    pub fn coverage(&self) -> FaultCoverage {
        FaultCoverage {
            total: self.detected.len(),
            detected: self.detected.iter().filter(|d| **d).count(),
        }
    }

    /// Indices of undetected faults.
    pub fn undetected(&self) -> Vec<usize> {
        self.detected
            .iter()
            .enumerate()
            .filter(|(_, d)| !**d)
            .map(|(i, _)| i)
            .collect()
    }
}

/// The fault list being graded: either classic single-stuck-at faults or
/// gross transition-delay faults (two-pattern detection).
///
/// This indirection lets the batching, threading, lane-assignment and
/// detection machinery be shared between both models: the only
/// model-specific steps are *injection*, which happens when a fault is
/// assigned a lane, and the arming state a repack carries along, so the
/// per-cycle hot path is identical.
#[derive(Clone, Copy)]
enum FaultList<'f> {
    Stuck(&'f [Fault]),
    Transition(&'f [TransitionFault]),
}

impl<'f> FaultList<'f> {
    fn len(&self) -> usize {
        match self {
            FaultList::Stuck(faults) => faults.len(),
            FaultList::Transition(faults) => faults.len(),
        }
    }

    /// Injects fault `index` into lane `lane` of a batch simulator.
    fn inject<const W: usize>(&self, sim: &mut impl LaneSim<W>, index: usize, lane: usize) {
        match self {
            FaultList::Stuck(faults) => sim.inject_stuck(&faults[index], lane),
            FaultList::Transition(faults) => sim.inject_transition(&faults[index], lane),
        }
    }

    /// The net whose arming state fault `index` carries: the transition
    /// fault's net, `None` for a stuck-at fault (which carries none).
    fn armed_net(&self, index: usize) -> Option<NetId> {
        match self {
            FaultList::Stuck(_) => None,
            FaultList::Transition(faults) => Some(faults[index].net),
        }
    }
}

/// Bit `lane` of a lane word.
fn lane_bit<const W: usize>(words: &[u64; W], lane: usize) -> u64 {
    words[lane / 64] >> (lane % 64) & 1
}

/// The lanes set in a lane mask, in ascending order.
fn lanes_of<const W: usize>(mask: [u64; W]) -> impl Iterator<Item = usize> {
    (0..W).flat_map(move |w| {
        let mut word = mask[w];
        std::iter::from_fn(move || {
            (word != 0).then(|| {
                let lane = w * 64 + word.trailing_zeros() as usize;
                word &= word - 1;
                lane
            })
        })
    })
}

/// A simulator the group loop can drive: `W` lane words per net, with
/// lane 0 of word 0 the fault-free reference machine. Implemented by the
/// 64-lane full-eval [`Simulator`] (`W = 1`) and by the compiled tape
/// (`W = `[`MAX_LANE_WORDS`]).
trait LaneSim<const W: usize> {
    fn inject_stuck(&mut self, fault: &Fault, lane: usize);
    fn inject_transition(&mut self, fault: &TransitionFault, lane: usize);
    fn set_input_at(&mut self, pos: usize, value: bool);
    fn eval(&mut self);
    fn lanes(&self, net: NetId) -> [u64; W];
    fn step(&mut self);
    /// Gate-evaluation events performed over `cycles` clocked cycles.
    fn events(&self, cycles: u64) -> u64;
    /// Removes every injected fault and zeroes the machine state, so the
    /// simulator can take a repacked batch; the event count runs on.
    fn clear(&mut self);
    /// Lane carry-out: the flip-flop words, in netlist flip-flop order.
    fn dff_words(&self) -> Vec<[u64; W]>;
    /// Lane carry-in: overwrites the flip-flop words.
    fn set_dff_words(&mut self, words: &[[u64; W]]);
    /// The arming words of transition-fault net `net`.
    fn transition_prev(&self, net: NetId) -> [u64; W];
    /// Overwrites the arming words of `net` and marks the machine primed,
    /// as it was where they were carried out.
    fn set_transition_prev(&mut self, net: NetId, words: [u64; W]);
}

impl LaneSim<1> for Simulator<'_> {
    fn inject_stuck(&mut self, fault: &Fault, lane: usize) {
        self.inject_fault(fault, 1u64 << lane);
    }

    fn inject_transition(&mut self, fault: &TransitionFault, lane: usize) {
        self.inject_transition_fault(fault, 1u64 << lane);
    }

    fn set_input_at(&mut self, pos: usize, value: bool) {
        let net = self.netlist().inputs()[pos];
        self.set_input(net, value);
    }

    fn eval(&mut self) {
        Simulator::eval(self);
    }

    fn lanes(&self, net: NetId) -> [u64; 1] {
        [self.value(net)]
    }

    fn step(&mut self) {
        Simulator::step(self);
    }

    /// Full evaluation: every combinational gate on every clocked cycle.
    fn events(&self, cycles: u64) -> u64 {
        cycles * self.netlist().comb_order().len() as u64
    }

    fn clear(&mut self) {
        self.clear_faults();
        self.reset();
    }

    fn dff_words(&self) -> Vec<[u64; 1]> {
        Simulator::dff_words(self)
            .iter()
            .map(|&word| [word])
            .collect()
    }

    fn set_dff_words(&mut self, words: &[[u64; 1]]) {
        for (word, [carried]) in self.dff_words_mut().iter_mut().zip(words) {
            *word = *carried;
        }
    }

    fn transition_prev(&self, net: NetId) -> [u64; 1] {
        [Simulator::transition_prev(self, net)]
    }

    fn set_transition_prev(&mut self, net: NetId, [word]: [u64; 1]) {
        Simulator::set_transition_prev(self, net, word);
    }
}

impl<const W: usize> LaneSim<W> for TapeSimulator<&CompiledTape, W> {
    fn inject_stuck(&mut self, fault: &Fault, lane: usize) {
        self.inject_fault(fault, lane);
    }

    fn inject_transition(&mut self, fault: &TransitionFault, lane: usize) {
        self.inject_transition_fault(fault, lane);
    }

    #[inline]
    fn set_input_at(&mut self, pos: usize, value: bool) {
        TapeSimulator::set_input_at(self, pos, value);
    }

    fn eval(&mut self) {
        TapeSimulator::eval(self);
    }

    #[inline]
    fn lanes(&self, net: NetId) -> [u64; W] {
        self.value(net)
    }

    fn step(&mut self) {
        TapeSimulator::step(self);
    }

    fn events(&self, _cycles: u64) -> u64 {
        TapeSimulator::events(self)
    }

    fn clear(&mut self) {
        self.clear_faults();
        self.reset();
    }

    fn dff_words(&self) -> Vec<[u64; W]> {
        TapeSimulator::dff_words(self).to_vec()
    }

    fn set_dff_words(&mut self, words: &[[u64; W]]) {
        self.dff_words_mut().copy_from_slice(words);
    }

    fn transition_prev(&self, net: NetId) -> [u64; W] {
        TapeSimulator::transition_prev(self, net)
    }

    fn set_transition_prev(&mut self, net: NetId, words: [u64; W]) {
        TapeSimulator::set_transition_prev(self, net, words);
    }
}

/// One batch of a group in flight: a private simulator and the faults in
/// its lanes.
struct Batch<S, const W: usize> {
    sim: S,
    /// Fault index carried by lane `i + 1`.
    faults: Vec<usize>,
    /// Lanes whose fault is not yet detected.
    undetected: [u64; W],
    /// Cycles this simulator has clocked, over every batch it carried.
    cycles: u64,
}

impl<S: LaneSim<W>, const W: usize> Batch<S, W> {
    /// Injects the faults `indices` into lanes 1.. of the (clear)
    /// simulator, all undetected.
    fn assign(&mut self, faults: FaultList<'_>, indices: impl Iterator<Item = usize>) {
        self.faults.clear();
        self.undetected = [0; W];
        for (offset, index) in indices.enumerate() {
            let lane = offset + 1;
            debug_assert!(lane < 64 * W, "lane 0 is the reference");
            faults.inject(&mut self.sim, index, lane);
            self.undetected[lane / 64] |= 1u64 << (lane % 64);
            self.faults.push(index);
        }
    }

    /// Faults in this batch not yet detected.
    fn live_faults(&self) -> usize {
        self.undetected
            .iter()
            .map(|w| w.count_ones() as usize)
            .sum()
    }
}

/// What grading one group of batches reports back to the merge.
struct GroupOutcome {
    /// First detecting cycle of each fault in the group, in index order.
    detecting_cycle: Vec<Option<u32>>,
    /// Fault-free responses of every observed cycle (the group holding
    /// fault 0 only).
    reference: Option<Vec<Vec<u64>>>,
    /// Cycles clocked, over every batch simulator.
    cycles: u64,
    /// Gate-evaluation events performed.
    events: u64,
}

impl GroupOutcome {
    /// Books the work of a batch simulator the group no longer clocks.
    fn retire<const W: usize>(&mut self, batch: Batch<impl LaneSim<W>, W>) {
        self.cycles += batch.cycles;
        self.events += batch.sim.events(batch.cycles);
    }
}

/// Parallel single-stuck-at fault simulator.
///
/// Packs up to [`SimEngine::faults_per_pass`] faulty machines plus one
/// fault-free reference machine (lane 0) into each simulation pass, fans
/// groups of four passes out over worker threads (see
/// [`FaultSimConfig::threads`]) and repacks each group's surviving faults
/// into fewer passes as the others are detected. A fault is *detected*
/// when any primary output differs from the reference lane on an observed
/// cycle — the same criterion commercial fault simulators use. MISR
/// aliasing, which the paper argues is negligible, can be audited
/// separately with `sbst-tpg`'s MISR model.
#[derive(Debug)]
pub struct FaultSimulator<'a> {
    netlist: &'a Netlist,
    config: FaultSimConfig,
    /// Compiled evaluation tape, built lazily on the first compiled-engine
    /// run and reused by every later [`FaultSimulator::simulate`] call on
    /// this simulator — callers that grade many small stimuli (ATPG fault
    /// dropping) pay compilation once per simulator, not once per call.
    tape: OnceLock<CompiledTape>,
}

impl<'a> FaultSimulator<'a> {
    /// Creates a fault simulator with the default configuration.
    pub fn new(netlist: &'a Netlist) -> Self {
        FaultSimulator {
            netlist,
            config: FaultSimConfig::default(),
            tape: OnceLock::new(),
        }
    }

    /// Creates a fault simulator with an explicit configuration.
    pub fn with_config(netlist: &'a Netlist, config: FaultSimConfig) -> Self {
        FaultSimulator {
            netlist,
            config,
            tape: OnceLock::new(),
        }
    }

    /// Grades `faults` against `stimulus`.
    ///
    /// Returns per-fault detection data; see [`FaultSimResult`]. The result
    /// is bit-identical for every thread count and engine.
    pub fn simulate(&self, faults: &[Fault], stimulus: &Stimulus) -> FaultSimResult {
        self.simulate_list(FaultList::Stuck(faults), stimulus)
    }

    /// Grades gross transition-delay faults against `stimulus` under
    /// two-pattern (launch/capture) semantics.
    ///
    /// Each simulator batch starts un-primed: the first cycle is a pure
    /// launch (it arms lanes whose net settles at the fault's slow-side
    /// initialization value but never forces), and from the second cycle on
    /// armed lanes hold the net at its initialization value for one extra
    /// cycle — the gross-delay model where the affected transition arrives
    /// a full clock late. Detection is the same observed-cycle
    /// output-vs-reference comparison as [`FaultSimulator::simulate`], so a
    /// transition fault is detected exactly when some pattern *pair*
    /// (consecutive cycles) initializes and then excites it with the error
    /// propagated to an observed output.
    ///
    /// Batching, threading, drop-on-detect and the reference recording all
    /// behave as in [`FaultSimulator::simulate`]; results are bit-identical
    /// across engines and thread counts.
    pub fn simulate_transition(
        &self,
        faults: &[TransitionFault],
        stimulus: &Stimulus,
    ) -> FaultSimResult {
        self.simulate_list(FaultList::Transition(faults), stimulus)
    }

    /// Shared grading driver for both fault models.
    fn simulate_list(&self, faults: FaultList<'_>, stimulus: &Stimulus) -> FaultSimResult {
        let start = Instant::now();
        let engine = self.config.engine;
        let batches = fault_batches(faults.len(), engine.faults_per_pass());
        let groups: Vec<&[Range<usize>]> = batches.chunks(GROUP_BATCHES).collect();
        // The compiled engine's tape is built once per *simulator* and
        // shared (immutably) by every worker and every later call; each
        // batch still gets a private simulator state.
        let mut tape_compilations = 0u64;
        let tape = matches!(engine, SimEngine::Compiled).then(|| {
            self.tape.get_or_init(|| {
                tape_compilations += 1;
                CompiledTape::compile(self.netlist)
            })
        });
        let (graded, workers) = fan_out(
            &groups,
            resolve_threads(self.config.threads),
            || (),
            |_, group| match tape {
                Some(tape) => self.run_group(
                    || TapeSimulator::<_, MAX_LANE_WORDS>::new(tape),
                    faults,
                    group,
                    stimulus,
                ),
                None => self.run_group(|| Simulator::new(self.netlist), faults, group, stimulus),
            },
        );

        // Groups come back in fault-index order, whichever worker graded
        // them, so concatenating them is the deterministic merge.
        let mut detecting_cycle = Vec::with_capacity(faults.len());
        let mut fault_free_responses = Vec::new();
        let (mut cycles_simulated, mut events_simulated) = (0u64, 0u64);
        for outcome in graded {
            cycles_simulated += outcome.cycles;
            events_simulated += outcome.events;
            detecting_cycle.extend(outcome.detecting_cycle);
            if let Some(responses) = outcome.reference {
                fault_free_responses = responses;
            }
        }
        // A fault's lane is live up to and including its detecting cycle.
        let live_lane_cycles = detecting_cycle
            .iter()
            .map(|cycle| cycle.map_or(stimulus.len() as u64, |c| u64::from(c) + 1))
            .sum();
        FaultSimResult {
            detected: detecting_cycle.iter().map(Option::is_some).collect(),
            detecting_cycle,
            fault_free_responses,
            threads_used: workers.len(),
            engine,
            wall_time: start.elapsed(),
            stats: SimStats {
                batches: batches.len() as u64,
                cycles_simulated,
                cycles_scheduled: batches.len() as u64 * stimulus.len() as u64,
                live_lane_cycles,
                events_simulated,
                events_full_eval: cycles_simulated * self.netlist.comb_order().len() as u64,
                tape_compilations,
                lane_slots_filled: faults.len() as u64,
                lane_slots_total: batches.len() as u64 * engine.faults_per_pass() as u64,
            },
        }
    }

    /// Grades one group of consecutive batches (contiguous ranges of fault
    /// indices) on private simulators from `new_sim`, one fault per lane
    /// from lane 1 up, window by window.
    ///
    /// The group holding fault 0 also records the fault-free lane-0
    /// responses of every observed cycle from its first batch, which never
    /// stops: the reference must span the whole stimulus. Under
    /// [`FaultSimConfig::drop_on_detect`] every other batch stops once all
    /// its faults are detected, and each window boundary may repack the
    /// survivors ([`FaultSimulator::repack`]).
    fn run_group<const W: usize, S: LaneSim<W>>(
        &self,
        new_sim: impl Fn() -> S,
        faults: FaultList<'_>,
        group: &[Range<usize>],
        stimulus: &Stimulus,
    ) -> GroupOutcome {
        let base = group[0].start;
        let keeps_reference = base == 0;
        let mut outcome = GroupOutcome {
            detecting_cycle: vec![None; group[group.len() - 1].end - base],
            reference: keeps_reference.then(Vec::new),
            cycles: 0,
            events: 0,
        };
        let mut live: Vec<Batch<S, W>> = group
            .iter()
            .map(|batch| {
                let mut batch_sim = Batch {
                    sim: new_sim(),
                    faults: Vec::with_capacity(batch.len()),
                    undetected: [0; W],
                    cycles: 0,
                };
                batch_sim.assign(faults, batch.clone());
                batch_sim
            })
            .collect();

        let mut window_start = 0;
        while window_start < stimulus.len() && !live.is_empty() {
            let window = window_start..(window_start + WINDOW_CYCLES).min(stimulus.len());
            for (i, batch) in live.iter_mut().enumerate() {
                let reference = if i == 0 {
                    outcome.reference.as_mut()
                } else {
                    None
                };
                self.run_window(
                    batch,
                    stimulus,
                    window.clone(),
                    reference,
                    &mut outcome.detecting_cycle,
                    base,
                );
            }
            window_start = window.end;
            // After the last window there is nothing left to clock.
            if self.config.drop_on_detect && window_start < stimulus.len() {
                for (index, batch) in std::mem::take(&mut live).into_iter().enumerate() {
                    if batch.undetected != [0; W] || (keeps_reference && index == 0) {
                        live.push(batch);
                    } else {
                        outcome.retire(batch);
                    }
                }
                Self::repack(&mut live, faults, keeps_reference, &mut outcome);
            }
        }
        for batch in live {
            outcome.retire(batch);
        }
        outcome
    }

    /// Clocks `batch` over the stimulus cycles `window`, recording each
    /// fault's first detecting cycle into `detecting_cycle` (indexed from
    /// fault `base`) and, when `reference` is given, the fault-free
    /// responses. Any other batch stops once all its faults are detected
    /// under [`FaultSimConfig::drop_on_detect`].
    fn run_window<const W: usize>(
        &self,
        batch: &mut Batch<impl LaneSim<W>, W>,
        stimulus: &Stimulus,
        window: Range<usize>,
        mut reference: Option<&mut Vec<Vec<u64>>>,
        detecting_cycle: &mut [Option<u32>],
        base: usize,
    ) {
        let outputs = self.netlist.outputs();
        let mut live = batch.live_faults();
        for cycle in window {
            let (inputs, observe) = &stimulus.cycles[cycle];
            batch.cycles += 1;
            debug_assert_eq!(inputs.len(), self.netlist.inputs().len());
            for (pos, &value) in inputs.iter().enumerate() {
                batch.sim.set_input_at(pos, value);
            }
            batch.sim.eval();
            if *observe {
                let mut diff = [0u64; W];
                let mut response_words: Vec<u64> = if reference.is_some() {
                    vec![0; outputs.len().div_ceil(64)]
                } else {
                    Vec::new()
                };
                for (k, &out) in outputs.iter().enumerate() {
                    let v = batch.sim.lanes(out);
                    let lane0 = 0u64.wrapping_sub(v[0] & 1); // broadcast lane 0
                    for w in 0..W {
                        diff[w] |= v[w] ^ lane0;
                    }
                    if reference.is_some() && (v[0] & 1) == 1 {
                        response_words[k / 64] |= 1u64 << (k % 64);
                    }
                }
                if let Some(reference) = reference.as_deref_mut() {
                    reference.push(response_words);
                }
                let mut newly = [0u64; W];
                for w in 0..W {
                    newly[w] = diff[w] & batch.undetected[w];
                    batch.undetected[w] &= !newly[w];
                }
                if newly != [0u64; W] {
                    for lane in lanes_of(newly) {
                        detecting_cycle[batch.faults[lane - 1] - base] = Some(cycle as u32);
                        live -= 1;
                    }
                    if self.config.drop_on_detect && live == 0 && reference.is_none() {
                        break;
                    }
                }
            }
            batch.sim.step();
        }
    }

    /// Gathers a group's undetected faults into as few batches as they
    /// fill, in fault-index order from lane 1 up, when that frees a batch;
    /// the group holding fault 0 keeps at least its reference batch. The
    /// first batches' simulators are cleared and reused, the rest retired.
    /// Each moved fault is re-injected and takes its flip-flop bits and
    /// arming bit to its new lane; lane 0 of every batch takes the
    /// fault-free state, the same in every batch of the group.
    fn repack<const W: usize, S: LaneSim<W>>(
        live: &mut Vec<Batch<S, W>>,
        faults: FaultList<'_>,
        keeps_reference: bool,
        outcome: &mut GroupOutcome,
    ) {
        let per_pass = 64 * W - 1;
        let survivors: usize = live.iter().map(Batch::live_faults).sum();
        let needed = survivors
            .div_ceil(per_pass)
            .max(usize::from(keeps_reference));
        if needed >= live.len() {
            return;
        }
        // (fault, batch, lane, arming bit) of every survivor, in
        // fault-index order, and each batch's flip-flop words.
        let mut moves = Vec::with_capacity(survivors);
        let mut dffs = Vec::with_capacity(live.len());
        for (b, batch) in live.iter().enumerate() {
            for lane in lanes_of(batch.undetected) {
                let fault = batch.faults[lane - 1];
                let armed = faults
                    .armed_net(fault)
                    .map_or(0, |net| lane_bit(&batch.sim.transition_prev(net), lane));
                moves.push((fault, b, lane, armed));
            }
            dffs.push(batch.sim.dff_words());
        }
        moves.sort_unstable();
        for batch in live.drain(needed..) {
            outcome.retire(batch);
        }
        let mut chunks = moves.chunks(per_pass);
        for batch in live.iter_mut() {
            let chunk = chunks.next().unwrap_or_default();
            // Lane 0 takes the fault-free flip-flop bits.
            let mut dff: Vec<[u64; W]> = dffs[0]
                .iter()
                .map(|words| {
                    let mut lane0 = [0; W];
                    lane0[0] = words[0] & 1;
                    lane0
                })
                .collect();
            for (offset, &(_, from, lane, _)) in chunk.iter().enumerate() {
                let to = offset + 1;
                for (dst, src) in dff.iter_mut().zip(&dffs[from]) {
                    dst[to / 64] |= lane_bit(src, lane) << (to % 64);
                }
            }
            batch.sim.clear();
            batch.assign(faults, chunk.iter().map(|&(fault, ..)| fault));
            batch.sim.set_dff_words(&dff);
            for (offset, &(fault, _, _, armed)) in chunk.iter().enumerate() {
                if let Some(net) = faults.armed_net(fault) {
                    let to = offset + 1;
                    let mut words = batch.sim.transition_prev(net);
                    words[to / 64] |= armed << (to % 64);
                    batch.sim.set_transition_prev(net, words);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate::GateKind;
    use crate::netlist::NetlistBuilder;

    fn and2_netlist() -> Netlist {
        let mut b = NetlistBuilder::new("and2");
        let a = b.input("a");
        let c = b.input("b");
        let o = b.and2(a, c);
        b.mark_output(o, "o");
        b.finish().unwrap()
    }

    fn exhaustive2() -> Stimulus {
        let mut s = Stimulus::new();
        for v in 0..4u8 {
            s.push_pattern(&[v & 1 != 0, v & 2 != 0]);
        }
        s
    }

    #[test]
    fn and_gate_full_coverage() {
        let n = and2_netlist();
        let faults = n.collapsed_faults();
        let res = FaultSimulator::new(&n).simulate(&faults, &exhaustive2());
        assert_eq!(res.coverage().percent(), 100.0);
    }

    #[test]
    fn insufficient_patterns_miss_faults() {
        let n = and2_netlist();
        let faults = n.collapsed_faults();
        let mut s = Stimulus::new();
        s.push_pattern(&[false, false]); // only detects output s-a-1
        let res = FaultSimulator::new(&n).simulate(&faults, &s);
        assert!(res.coverage().detected < faults.len());
        assert!(!res.undetected().is_empty());
    }

    #[test]
    fn detecting_cycle_reported() {
        let n = and2_netlist();
        let f = vec![Fault::stem_sa0(n.outputs()[0])];
        let mut s = Stimulus::new();
        s.push_pattern(&[false, false]); // no difference (output 0 anyway)
        s.push_pattern(&[true, true]); // output should be 1, fault forces 0
        let res = FaultSimulator::new(&n).simulate(&f, &s);
        assert!(res.detected[0]);
        assert_eq!(res.detecting_cycle[0], Some(1));
    }

    #[test]
    fn sequential_fault_detection() {
        // d -> dff -> out; a stuck q is only visible after a step.
        let mut b = NetlistBuilder::new("reg");
        let d = b.input("d");
        let q = b.dff(d);
        let o = b.gate(GateKind::Buf, &[q]);
        b.mark_output(o, "q");
        let n = b.finish().unwrap();
        let faults = n.collapsed_faults();
        let mut s = Stimulus::new();
        s.push_hidden_cycle(&[true]); // latch a 1
        s.push_pattern(&[false]); // observe 1; latch 0
        s.push_pattern(&[false]); // observe 0
        let res = FaultSimulator::new(&n).simulate(&faults, &s);
        assert_eq!(res.coverage().percent(), 100.0);
    }

    #[test]
    fn more_faults_than_one_batch() {
        // A wide OR tree has > FAULTS_PER_BATCH collapsed faults; exercise
        // multi-batch.
        let mut b = NetlistBuilder::new("wide");
        let bus = b.input_bus("a", 40);
        let o = b.reduce_or(&bus);
        b.mark_output(o, "o");
        let n = b.finish().unwrap();
        let faults = n.collapsed_faults();
        assert!(faults.len() > FAULTS_PER_BATCH);
        // Walking-one plus all-zero detects everything in an OR tree.
        let mut s = Stimulus::new();
        s.push_pattern(&[false; 40]);
        for i in 0..40 {
            let mut v = vec![false; 40];
            v[i] = true;
            s.push_pattern(&v);
        }
        let res = FaultSimulator::new(&n).simulate(&faults, &s);
        assert_eq!(res.coverage().percent(), 100.0);
    }

    #[test]
    fn fault_free_responses_recorded_once() {
        let n = and2_netlist();
        let faults = n.collapsed_faults();
        let stim = exhaustive2();
        let cfg = FaultSimConfig {
            drop_on_detect: false,
            ..FaultSimConfig::default()
        };
        let res = FaultSimulator::with_config(&n, cfg).simulate(&faults, &stim);
        assert_eq!(res.fault_free_responses.len(), stim.observed_cycles());
        // AND truth table: 0,0,0,1.
        let bits: Vec<u64> = res.fault_free_responses.iter().map(|w| w[0] & 1).collect();
        assert_eq!(bits, vec![0, 0, 0, 1]);
    }

    #[test]
    fn engines_agree_bitwise() {
        let mut b = NetlistBuilder::new("mix");
        let bus = b.input_bus("a", 48);
        let mut acc = bus.net(0);
        for (i, &net) in bus.nets().iter().enumerate().skip(1) {
            acc = if i % 3 == 0 {
                b.xor2(acc, net)
            } else if i % 3 == 1 {
                b.and2(acc, net)
            } else {
                b.or2(acc, net)
            };
        }
        b.mark_output(acc, "o");
        let n = b.finish().unwrap();
        let faults = n.collapsed_faults();
        let mut s = Stimulus::new();
        let mut word = 0x9E37_79B9_7F4A_7C15u64;
        for _ in 0..32 {
            word = word.rotate_left(17).wrapping_mul(0xD134_2543_DE82_EF95);
            let bits: Vec<bool> = (0..48).map(|i| word >> i & 1 == 1).collect();
            s.push_pattern(&bits);
        }
        let full = FaultSimulator::with_config(
            &n,
            FaultSimConfig {
                engine: SimEngine::FullEval,
                threads: Some(1),
                ..FaultSimConfig::default()
            },
        )
        .simulate(&faults, &s);
        assert_eq!(full.stats.events_simulated, full.stats.events_full_eval);
        assert!(full.stats.events_simulated > 0);
        let compiled = FaultSimulator::with_config(
            &n,
            FaultSimConfig {
                engine: SimEngine::Compiled,
                threads: Some(1),
                ..FaultSimConfig::default()
            },
        )
        .simulate(&faults, &s);
        assert_eq!(full.detected, compiled.detected);
        assert_eq!(full.detecting_cycle, compiled.detecting_cycle);
        assert_eq!(full.fault_free_responses, compiled.fault_free_responses);
        // Every gate counts as one event per cycle: the compiled
        // engine's event count is exactly the full-eval baseline.
        assert_eq!(
            compiled.stats.events_simulated,
            compiled.stats.events_full_eval
        );
    }

    #[test]
    fn compiled_engine_packs_wide_batches() {
        // Enough faults for several 255-fault compiled batches.
        let mut b = NetlistBuilder::new("wide");
        let bus = b.input_bus("a", 130);
        let mut acc = bus.net(0);
        for (i, &net) in bus.nets().iter().enumerate().skip(1) {
            acc = if i % 3 == 0 {
                b.xor2(acc, net)
            } else if i % 3 == 1 {
                b.and2(acc, net)
            } else {
                b.or2(acc, net)
            };
        }
        b.mark_output(acc, "o");
        let n = b.finish().unwrap();
        let faults = n.collapsed_faults();
        assert!(faults.len() > SimEngine::Compiled.faults_per_pass());
        let mut s = Stimulus::new();
        let mut word = 0x9E37_79B9_7F4A_7C15u64;
        for _ in 0..48 {
            word = word.rotate_left(17).wrapping_mul(0xD134_2543_DE82_EF95);
            let bits: Vec<bool> = (0..130)
                .map(|i| word.rotate_left(i as u32) & 1 == 1)
                .collect();
            s.push_pattern(&bits);
        }
        let full = FaultSimulator::with_config(
            &n,
            FaultSimConfig {
                engine: SimEngine::FullEval,
                threads: Some(1),
                ..FaultSimConfig::default()
            },
        )
        .simulate(&faults, &s);
        for threads in [1usize, 4] {
            let compiled = FaultSimulator::with_config(
                &n,
                FaultSimConfig {
                    engine: SimEngine::Compiled,
                    threads: Some(threads),
                    ..FaultSimConfig::default()
                },
            )
            .simulate(&faults, &s);
            assert_eq!(full.detected, compiled.detected, "{threads} threads");
            assert_eq!(
                full.detecting_cycle, compiled.detecting_cycle,
                "{threads} threads"
            );
            assert_eq!(
                full.fault_free_responses, compiled.fault_free_responses,
                "{threads} threads"
            );
            // 4× wider lanes → about a quarter of the narrow batch count.
            let per_pass = SimEngine::Compiled.faults_per_pass() as u64;
            assert_eq!(
                compiled.stats.batches,
                (faults.len() as u64).div_ceil(per_pass)
            );
            assert!(compiled.stats.batches < full.stats.batches);
            // Lane instrumentation is populated and consistent.
            assert_eq!(compiled.stats.lane_slots_filled, faults.len() as u64);
            assert_eq!(
                compiled.stats.lane_slots_total,
                compiled.stats.batches * per_pass
            );
            let occ = compiled.stats.lane_occupancy();
            assert!(occ > 0.0 && occ <= 1.0, "occupancy {occ}");
        }
        assert_eq!(full.stats.lane_slots_filled, faults.len() as u64);
    }

    #[test]
    fn batches_partition_every_fault_exactly_once_in_order() {
        for per_batch in [1usize, 63, 255] {
            for count in [0usize, 1, 62, 63, 64, 254, 255, 256, 1000] {
                let batches = fault_batches(count, per_batch);
                let mut next = 0;
                for range in &batches {
                    assert_eq!(range.start, next, "contiguous, in order");
                    assert!(range.len() <= per_batch);
                    next = range.end;
                }
                assert_eq!(next, count, "covers the whole fault list");
                assert_eq!(batches.len(), count.div_ceil(per_batch).max(1));
                // Every batch except possibly the last is full.
                for range in &batches[..batches.len() - 1] {
                    assert_eq!(range.len(), per_batch);
                }
            }
        }
    }

    #[test]
    fn threaded_simulation_matches_serial_bitwise() {
        // A wide XOR/OR mix with enough faults for several batches.
        let mut b = NetlistBuilder::new("mix");
        let bus = b.input_bus("a", 48);
        let mut acc = bus.net(0);
        for (i, &net) in bus.nets().iter().enumerate().skip(1) {
            acc = if i % 3 == 0 {
                b.xor2(acc, net)
            } else if i % 3 == 1 {
                b.and2(acc, net)
            } else {
                b.or2(acc, net)
            };
        }
        b.mark_output(acc, "o");
        let n = b.finish().unwrap();
        let faults = n.collapsed_faults();
        assert!(faults.len() > 2 * FAULTS_PER_BATCH, "need several batches");
        let mut s = Stimulus::new();
        let mut word = 0x9E37_79B9_7F4A_7C15u64;
        for _ in 0..32 {
            word = word.rotate_left(17).wrapping_mul(0xD134_2543_DE82_EF95);
            let bits: Vec<bool> = (0..48).map(|i| word >> i & 1 == 1).collect();
            s.push_pattern(&bits);
        }
        let serial =
            FaultSimulator::with_config(&n, FaultSimConfig::with_threads(1)).simulate(&faults, &s);
        for threads in [2usize, 3, 8] {
            let parallel = FaultSimulator::with_config(&n, FaultSimConfig::with_threads(threads))
                .simulate(&faults, &s);
            assert_eq!(parallel.detected, serial.detected, "{threads} threads");
            assert_eq!(
                parallel.detecting_cycle, serial.detecting_cycle,
                "{threads} threads"
            );
            assert_eq!(
                parallel.fault_free_responses, serial.fault_free_responses,
                "{threads} threads"
            );
        }
    }

    #[test]
    fn thread_count_is_reported_and_clamped() {
        let n = and2_netlist();
        let faults = n.collapsed_faults(); // single batch
        let res = FaultSimulator::with_config(&n, FaultSimConfig::with_threads(16))
            .simulate(&faults, &exhaustive2());
        assert_eq!(res.threads_used, 1, "clamped to the single batch");
        assert_eq!(res.coverage().percent(), 100.0);
    }

    #[test]
    fn sim_stats_account_for_cycles_and_events() {
        let n = and2_netlist();
        let faults = n.collapsed_faults();
        let stim = exhaustive2();
        let cfg = FaultSimConfig {
            drop_on_detect: false,
            engine: SimEngine::FullEval,
            ..FaultSimConfig::default()
        };
        let res = FaultSimulator::with_config(&n, cfg).simulate(&faults, &stim);
        let batches = fault_batches(faults.len(), FAULTS_PER_BATCH).len() as u64;
        assert_eq!(res.stats.batches, batches);
        assert_eq!(res.stats.cycles_scheduled, batches * stim.len() as u64);
        // drop_on_detect off: every scheduled cycle is clocked.
        assert_eq!(res.stats.cycles_simulated, res.stats.cycles_scheduled);
        assert_eq!(res.stats.cycles_dropped(), 0);
        assert_eq!(res.stats.drop_savings_percent(), 0.0);
        // Full-eval engine: one event per combinational gate per cycle.
        assert_eq!(
            res.stats.events_simulated,
            res.stats.cycles_simulated * n.comb_order().len() as u64
        );
        assert_eq!(res.stats.events_simulated, res.stats.events_full_eval);
    }

    #[test]
    fn drop_on_detect_savings_show_in_stats() {
        // Wide OR tree, multi-batch under both engines; the walking-one
        // patterns detect every fault early so later cycles are dropped in
        // non-reference batches.
        const WIDTH: usize = 160;
        let mut b = NetlistBuilder::new("wide");
        let bus = b.input_bus("a", WIDTH);
        let o = b.reduce_or(&bus);
        b.mark_output(o, "o");
        let n = b.finish().unwrap();
        let faults = n.collapsed_faults();
        assert!(faults.len() > SimEngine::Compiled.faults_per_pass());
        let mut s = Stimulus::new();
        s.push_pattern(&[false; WIDTH]);
        for i in 0..WIDTH {
            let mut v = vec![false; WIDTH];
            v[i] = true;
            s.push_pattern(&v);
        }
        // Pad with patterns that detect nothing new: dropped batches skip
        // these entirely.
        for _ in 0..64 {
            s.push_pattern(&[false; WIDTH]);
        }
        for engine in [SimEngine::FullEval, SimEngine::Compiled] {
            let cfg = FaultSimConfig {
                engine,
                threads: Some(2),
                ..FaultSimConfig::default()
            };
            let res = FaultSimulator::with_config(&n, cfg).simulate(&faults, &s);
            assert_eq!(res.coverage().percent(), 100.0, "{}", engine.name());
            assert!(
                res.stats.cycles_simulated < res.stats.cycles_scheduled,
                "{}: expected drop-on-detect to skip padded cycles: {:?}",
                engine.name(),
                res.stats
            );
            assert!(res.stats.drop_savings_percent() > 0.0);
        }
    }

    #[test]
    fn repack_frees_batches_and_keeps_lane_zero_fault_free() {
        // A registered 300-input OR: a walking one on input i detects its
        // stuck-at-0 one cycle later. Every seventh input is walked only
        // after four idle windows, so every batch keeps a few survivors,
        // and together they fit into one batch.
        const WIDTH: usize = 300;
        let mut b = NetlistBuilder::new("registered_or");
        let bus = b.input_bus("a", WIDTH);
        let q = b.bus_dff(&bus);
        let o = b.reduce_or(&q);
        b.mark_output(o, "o");
        let n = b.finish().unwrap();
        let faults = n.collapsed_faults();
        let per_pass = SimEngine::Compiled.faults_per_pass();
        assert!(faults.len() > 2 * per_pass, "{} faults", faults.len());
        let one_hot = |i: usize| (0..WIDTH).map(|k| k == i).collect::<Vec<_>>();
        let mut patterns = vec![vec![false; WIDTH]];
        patterns.extend((0..WIDTH).filter(|i| i % 7 != 3).map(one_hot));
        patterns.extend((0..64).map(|_| vec![false; WIDTH]));
        patterns.extend((0..WIDTH).filter(|i| i % 7 == 3).map(one_hot));
        patterns.push(vec![false; WIDTH]);
        let mut s = Stimulus::new();
        for pattern in &patterns {
            s.push_pattern(pattern);
        }
        let grade = |drop_on_detect| {
            let cfg = FaultSimConfig {
                drop_on_detect,
                threads: Some(1),
                ..FaultSimConfig::default()
            };
            FaultSimulator::with_config(&n, cfg).simulate(&faults, &s)
        };
        let (dropped, full) = (grade(true), grade(false));
        assert_eq!(dropped.detecting_cycle, full.detecting_cycle);
        assert!(dropped.coverage().detected > full.detected.len() / 2);

        // Without repacking every batch but the reference one would run to
        // its last detection, and the late detections span all batches.
        let per_batch: u64 = full
            .detecting_cycle
            .chunks(per_pass)
            .enumerate()
            .map(|(batch, cycles)| {
                if batch == 0 || cycles.iter().any(Option::is_none) {
                    s.len() as u64
                } else {
                    cycles
                        .iter()
                        .flatten()
                        .map(|&c| u64::from(c) + 1)
                        .max()
                        .unwrap()
                }
            })
            .sum();
        assert!(
            dropped.stats.cycles_simulated < per_batch,
            "no repack: {} batch-cycles clocked, {per_batch} per batch",
            dropped.stats.cycles_simulated
        );
        let live: u64 = full
            .detecting_cycle
            .iter()
            .map(|c| c.map_or(s.len() as u64, |c| u64::from(c) + 1))
            .sum();
        assert_eq!(dropped.stats.live_lane_cycles, live);

        // Lane 0 stayed the fault-free machine: the output is the OR of the
        // previous cycle's pattern.
        let expected: Vec<Vec<u64>> = (0..s.len())
            .map(|t| vec![u64::from(t > 0 && patterns[t - 1].contains(&true))])
            .collect();
        assert_eq!(dropped.fault_free_responses, expected);
    }

    #[test]
    fn empty_fault_list_still_records_reference_in_parallel() {
        let n = and2_netlist();
        let res = FaultSimulator::with_config(&n, FaultSimConfig::with_threads(4))
            .simulate(&[], &exhaustive2());
        assert_eq!(res.fault_free_responses.len(), 4);
        assert!(res.detected.is_empty());
    }

    #[test]
    fn transition_fault_needs_a_pattern_pair() {
        // Single-pattern stimuli never detect a transition fault: with no
        // prior settled value the launch edge never happens.
        let n = and2_netlist();
        let faults = crate::fault::enumerate_transition_faults(&n);
        assert!(!faults.is_empty());
        let mut s = Stimulus::new();
        s.push_pattern(&[true, true]);
        let res = FaultSimulator::new(&n).simulate_transition(&faults, &s);
        assert_eq!(res.coverage().detected, 0, "one pattern cannot launch");

        // A 0→1 pair on the output detects its slow-to-rise fault.
        let str_out = faults
            .iter()
            .position(|f| f.net == n.outputs()[0] && f.slow_to_rise)
            .unwrap();
        let mut s = Stimulus::new();
        s.push_pattern(&[false, true]); // output 0: arms slow-to-rise
        s.push_pattern(&[true, true]); // output should rise; fault holds 0
        let res = FaultSimulator::new(&n).simulate_transition(&faults, &s);
        assert!(res.detected[str_out]);
        assert_eq!(res.detecting_cycle[str_out], Some(1));
    }

    #[test]
    fn transition_reference_lane_is_fault_free() {
        // The reference responses of a transition run must match a plain
        // fault-free simulation (lane 0 carries no fault).
        let n = and2_netlist();
        let faults = crate::fault::enumerate_transition_faults(&n);
        let stim = exhaustive2();
        let trans = FaultSimulator::new(&n).simulate_transition(&faults, &stim);
        let stuck = FaultSimulator::new(&n).simulate(&[], &stim);
        assert_eq!(trans.fault_free_responses, stuck.fault_free_responses);
    }

    #[test]
    fn transition_engines_and_threads_agree_bitwise() {
        // Sequential netlist: input bus -> comb mix -> DFF layer -> comb ->
        // outputs, with feedback. Exercises transition faults on PIs, DFF
        // outputs and interior comb nets under every engine and several
        // thread counts.
        let mut b = NetlistBuilder::new("seqmix");
        let bus = b.input_bus("a", 24);
        let mut layer = Vec::new();
        for (i, &net) in bus.nets().iter().enumerate() {
            let prev = if i == 0 { net } else { *layer.last().unwrap() };
            let g = if i % 3 == 0 {
                b.xor2(prev, net)
            } else if i % 3 == 1 {
                b.and2(prev, net)
            } else {
                b.or2(prev, net)
            };
            layer.push(g);
        }
        let mut qs = Vec::new();
        for (i, &g) in layer.iter().enumerate().take(8) {
            let q = b.dff(g);
            qs.push(q);
            if i % 2 == 0 {
                let o = b.xor2(q, layer[layer.len() - 1 - i]);
                b.mark_output(o, &format!("o{i}"));
            }
        }
        let fb = b.reduce_or(&crate::net::Bus::new(qs));
        b.mark_output(fb, "fb");
        let n = b.finish().unwrap();
        let faults = crate::fault::enumerate_transition_faults(&n);
        assert!(
            faults.len() > FAULTS_PER_BATCH,
            "need multiple batches, got {}",
            faults.len()
        );
        let mut s = Stimulus::new();
        let mut word = 0xA076_1D64_78BD_642Fu64;
        for cycle in 0..40 {
            word = word.rotate_left(23).wrapping_mul(0xE703_7ED1_A0B4_28DB);
            let bits: Vec<bool> = (0..24).map(|i| word >> i & 1 == 1).collect();
            s.push_cycle(&bits, cycle % 3 != 1);
        }
        let reference = FaultSimulator::with_config(
            &n,
            FaultSimConfig {
                engine: SimEngine::FullEval,
                threads: Some(1),
                ..FaultSimConfig::default()
            },
        )
        .simulate_transition(&faults, &s);
        assert!(reference.coverage().detected > 0, "stimulus detects some");
        assert!(
            reference.coverage().detected < faults.len(),
            "and misses some (hidden cycles)"
        );
        for engine in [SimEngine::FullEval, SimEngine::Compiled] {
            for threads in [1usize, 2, 7] {
                let res = FaultSimulator::with_config(
                    &n,
                    FaultSimConfig {
                        engine,
                        threads: Some(threads),
                        ..FaultSimConfig::default()
                    },
                )
                .simulate_transition(&faults, &s);
                let tag = format!("{} x{threads}", engine.name());
                assert_eq!(res.detected, reference.detected, "{tag}");
                assert_eq!(res.detecting_cycle, reference.detecting_cycle, "{tag}");
                assert_eq!(
                    res.fault_free_responses, reference.fault_free_responses,
                    "{tag}"
                );
            }
        }
    }

    #[test]
    fn engine_names_and_pass_widths() {
        assert_eq!(SimEngine::default(), SimEngine::Compiled);
        assert_eq!(SimEngine::Compiled.name(), "compiled");
        assert_eq!(SimEngine::FullEval.name(), "full-eval");
        assert_eq!(SimEngine::Compiled.faults_per_pass(), 255);
        assert_eq!(SimEngine::FullEval.faults_per_pass(), FAULTS_PER_BATCH);
    }
}
