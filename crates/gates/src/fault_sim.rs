//! Parallel fault simulation for single-stuck-at and gross
//! transition-delay fault models.
//!
//! Stuck-at faults are graded by [`FaultSimulator::simulate`];
//! transition-delay faults by [`FaultSimulator::simulate_transition`]
//! under two-pattern (launch/capture) semantics. Both models share all of
//! the machinery below — only injection, and the arming state a repack
//! moves with a transition fault, differ.
//!
//! Two engines grade a fault list ([`SimEngine`]):
//!
//! - [`SimEngine::Compiled`] (the default, the production engine): the
//!   netlist is compiled once into a flat evaluation tape
//!   ([`crate::CompiledTape`]) of one entry per gate, and each pass runs
//!   [`crate::MAX_LANE_WORDS`]` × 64 = 256` lanes wide — one fault-free
//!   reference lane plus up to 255 faulty machines — clocking only the
//!   work that can still detect a fault (below).
//! - [`SimEngine::FullEval`] (the reference oracle): each batch of
//!   [`FAULTS_PER_BATCH`] faults gets a fresh 64-lane [`Simulator`] that
//!   evaluates every combinational gate on every stimulus cycle and
//!   compares the outputs with lane 0 on every observed cycle. It never
//!   drops a fault and shares no record, plan, cone or repack with the
//!   compiled engine, so the differential tests pin the compiled engine
//!   against it.
//!
//! The compiled engine first simulates the fault-free machine once over
//! the whole stimulus into a bit-packed *record*: one bit per net per
//! cycle, 64 cycles per pass, one per lane. On a netlist with flip-flops
//! a second simulator, stepping only the next-state logic, first records
//! the flip-flop states of the pass's cycles one cycle at a time, so in
//! the pass every net is a function of its lane's cycle. The record holds
//! the fault-free responses and the nets every batch reads but does not
//! evaluate. A [`FaultSimulator`] keeps its last record, keyed by the
//! exact input vectors, so grading both fault models over one stimulus
//! simulates the fault-free machine once.
//!
//! The fault list is partitioned in index order into contiguous batches
//! of [`SimEngine::faults_per_pass`], one lane per fault. On the compiled
//! engine runs of four consecutive batches form fixed *groups*, and the
//! groups fan out over worker threads ([`crate::fan_out`]). A group
//! clocks its batches window by window, 16 cycles at a time, and clocks
//! only work that can still detect a fault: the fault dropping and
//! fault-free reference of sequential fault simulators such as PROOFS
//! (Niermann, Cheng and Patel, IEEE TCAD 1992), carried down to fanout
//! cones, lane words and repeated patterns:
//!
//! - A batch stops as soon as all of its faults are detected.
//! - A batch evaluates only the fanout cone of its faults: the tape
//!   entries and flip-flops their sites reach, found by one forward walk
//!   whenever faults are assigned to it. Each clocked cycle loads the nets
//!   the cone reads but does not drive from the record, evaluates the
//!   cone's entries, compares the cone's outputs and latches the cone's
//!   flip-flops. Every other net holds its fault-free value in every lane,
//!   as no fault of the batch reaches it.
//! - A batch evaluates only the lane words up to the one holding its
//!   highest undetected lane (word 0, with the reference lane, always
//!   counts), narrowed after every detection.
//! - At every window boundary the group gathers its undetected faults
//!   into as few batches as they fill, in index order from lane 1 up,
//!   when that frees a batch or lowers the group's total live words, and
//!   stops clocking the emptied batches. A moved fault is re-injected at
//!   its new lane and takes along its flip-flop bits, a lane word at a
//!   time (the record's for a flip-flop outside its old batch's cone),
//!   and under the transition model its arming bit; lane 0 takes the
//!   record's. Every other net value is rebuilt by each eval.
//! - On a netlist without flip-flops a cycle can detect only what its
//!   input vector (stuck-at) or its pair of previous and current vectors
//!   (transition) can, so the group leaves out every cycle that repeats
//!   an earlier observed cycle's vector or pair, and under stuck-at every
//!   unobserved cycle. A compared transition cycle's predecessor is still
//!   clocked, as its launch. The plan is fixed per call by the stimulus
//!   and the model.
//!
//! Groups share no state, and they and their windows are fixed by the
//! fault list and the stimulus alone, never by the thread count.
//!
//! Coverage, per-fault detecting cycles and fault-free responses are
//! bit-identical across both engines and every thread count: lanes are
//! independent machines wherever they sit, a fault leaves the simulation
//! only once it is detected, a left-out cycle could detect no fault still
//! in it, a net outside a batch's cone holds the value the record holds,
//! and lane 0 of every batch is the fault-free machine.

use std::ops::Range;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

use crate::coverage::FaultCoverage;
use crate::fanout::{fan_out, resolve_threads};
use crate::fault::{Fault, FaultSite, TransitionFault};
use crate::net::NetId;
use crate::netlist::Netlist;
use crate::sim::{Simulator, LANES};
use crate::tape::{CompiledTape, ConeScratch, TapeSimulator, MAX_LANE_WORDS};

/// Faults the 64-lane full-eval oracle grades per simulation pass: one
/// lane per fault, with lane 0 reserved for the fault-free reference
/// machine.
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

/// Lane words per compiled batch.
const W: usize = MAX_LANE_WORDS;

/// A compiled batch's simulator: lane 0 of word 0 is the fault-free
/// reference machine.
type BatchSim<'t> = TapeSimulator<&'t CompiledTape, W>;

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
/// fault list yields a single empty batch, which on the compiled engine
/// clocks nothing (the fault-free responses come from the record) and on
/// the full-eval engine clocks the fault-free machine alone.
fn fault_batches(fault_count: usize, per_batch: usize) -> Vec<Range<usize>> {
    let n_batches = fault_count.div_ceil(per_batch).max(1);
    (0..n_batches)
        .map(|b| b * per_batch..((b + 1) * per_batch).min(fault_count))
        .collect()
}

/// A stimulus's input vectors packed LSB-first into words, `stride` words
/// per cycle.
#[derive(Debug, PartialEq, Eq)]
struct PackedInputs {
    stride: usize,
    words: Vec<u64>,
}

impl PackedInputs {
    /// Packs `stimulus`, whose vectors drive `width` primary inputs.
    fn new(stimulus: &Stimulus, width: usize) -> Self {
        let stride = width.div_ceil(64).max(1);
        let mut words = vec![0u64; stimulus.len() * stride];
        for ((inputs, _), packed) in stimulus.cycles.iter().zip(words.chunks_mut(stride)) {
            debug_assert_eq!(inputs.len(), width);
            for (word, bits) in packed.iter_mut().zip(inputs.chunks(64)) {
                *word = bits
                    .iter()
                    .enumerate()
                    .fold(0, |acc, (i, &bit)| acc | u64::from(bit) << i);
            }
        }
        PackedInputs { stride, words }
    }

    fn cycles(&self) -> usize {
        self.words.len() / self.stride
    }

    /// The input vector of `cycle`.
    fn vector(&self, cycle: usize) -> &[u64] {
        &self.words[cycle * self.stride..][..self.stride]
    }
}

/// What grading does with one stimulus cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CycleStep {
    /// Clock the cycle and compare the outputs with the reference lane.
    Compare,
    /// Clock the cycle without comparing: an unobserved cycle, or the
    /// launch of a transition pair whose own pair already occurred.
    Clock,
    /// Leave the cycle out: on a netlist without flip-flops it can detect
    /// no fault that an earlier observed cycle has not.
    Skip,
}

/// The step grading takes at each stimulus cycle, fixed by the stimulus
/// and the fault model alone.
struct Plan {
    steps: Vec<CycleStep>,
}

impl Plan {
    /// Plans grading `netlist` over `stimulus`, whose vectors `inputs`
    /// packs.
    ///
    /// On a netlist with flip-flops every cycle is clocked and the
    /// observed ones compared. On one without, a cycle's outputs depend on
    /// its input vector alone, and a transition fault's lane on the
    /// (previous, current) vector pair, so:
    ///
    /// - stuck-at: only an observed cycle applying a vector no earlier
    ///   observed cycle applied is clocked;
    /// - transition: only an observed cycle whose pair no earlier
    ///   observed cycle had is compared, and its predecessor is clocked
    ///   as its launch, so the arming state it reads is exact.
    fn new(
        netlist: &Netlist,
        stimulus: &Stimulus,
        inputs: &PackedInputs,
        transition: bool,
    ) -> Self {
        let mut steps: Vec<CycleStep> = stimulus
            .iter()
            .map(|(_, observe)| {
                if observe {
                    CycleStep::Compare
                } else {
                    CycleStep::Clock
                }
            })
            .collect();
        if !netlist.is_combinational() {
            return Plan { steps };
        }
        // A dense id per distinct input vector: sort the cycles by vector
        // and number the runs of equal ones.
        let mut order: Vec<usize> = (0..steps.len()).collect();
        order.sort_unstable_by(|&a, &b| inputs.vector(a).cmp(inputs.vector(b)));
        let mut vector = vec![0u32; steps.len()];
        let mut ids = 0;
        for (i, &t) in order.iter().enumerate() {
            if i == 0 || inputs.vector(order[i - 1]) != inputs.vector(t) {
                ids += 1;
            }
            vector[t] = ids - 1;
        }
        // The observed cycles whose vector pair no earlier observed cycle
        // had, by sorting the pairs with their cycles.
        let mut new_pair = vec![false; steps.len()];
        if transition {
            let mut pairs: Vec<(u64, usize)> = (1..steps.len())
                .filter(|&t| steps[t] == CycleStep::Compare)
                .map(|t| (u64::from(vector[t - 1]) << 32 | u64::from(vector[t]), t))
                .collect();
            pairs.sort_unstable();
            for (i, &(pair, t)) in pairs.iter().enumerate() {
                new_pair[t] = i == 0 || pairs[i - 1].0 != pair;
            }
        }
        let mut seen = vec![false; ids as usize];
        for (t, step) in steps.iter_mut().enumerate() {
            if *step == CycleStep::Clock {
                *step = CycleStep::Skip;
                continue;
            }
            let v = vector[t] as usize;
            let new = if transition {
                t == 0 || new_pair[t]
            } else {
                !seen[v]
            };
            seen[v] = true;
            if !new {
                *step = CycleStep::Skip;
            }
        }
        if transition {
            for t in 1..steps.len() {
                if steps[t] == CycleStep::Compare && steps[t - 1] == CycleStep::Skip {
                    steps[t - 1] = CycleStep::Clock;
                }
            }
        }
        Plan { steps }
    }
}

/// The fault-free machine's value of every net on every stimulus cycle,
/// one bit each.
#[derive(Debug)]
struct FaultFreeRecord {
    /// The input vectors simulated, which key the record.
    inputs: PackedInputs,
    /// Nets of the netlist, the words of one block.
    nets: usize,
    /// Word `block * nets + n` holds net `n` over cycles `64 * block`
    /// on, cycle `c` at bit `c % 64`.
    words: Vec<u64>,
}

impl FaultFreeRecord {
    /// Simulates `netlist` fault-free over every cycle of `inputs` on
    /// one-word simulators over its `tape`, 64 cycles per pass, one per
    /// lane: with the primary inputs, and the flip-flop states that a
    /// second simulator stepping only the next-state logic records one
    /// cycle per step, every net is a function of its lane's cycle.
    fn simulate(tape: &CompiledTape, netlist: &Netlist, inputs: PackedInputs) -> Self {
        let (nets, cycles) = (netlist.net_count(), inputs.cycles());
        let dffs = netlist.dff_gates().len();
        let mut words = vec![0u64; cycles.div_ceil(64) * nets];
        let mut sim = TapeSimulator::<_, 1>::new(tape);
        let mut stepper = (dffs > 0).then(|| {
            let mut stepper = TapeSimulator::<_, 1>::new(tape);
            stepper.restrict_to_next_state();
            stepper
        });
        // The block's input and flip-flop words, cycle `t` at bit `t % 64`.
        let mut lanes = vec![0u64; netlist.inputs().len()];
        let mut states = vec![[0u64]; dffs];
        for (b, block) in words.chunks_mut(nets.max(1)).enumerate() {
            let span = b * 64..(b * 64 + 64).min(cycles);
            lanes.fill(0);
            for t in span.clone() {
                let vector = inputs.vector(t);
                for (pos, lane) in lanes.iter_mut().enumerate() {
                    *lane |= (vector[pos / 64] >> (pos % 64) & 1) << (t % 64);
                }
            }
            for (pos, (&net, &lane)) in netlist.inputs().iter().zip(&lanes).enumerate() {
                block[net.index()] = lane;
                sim.set_input_word(pos, lane);
            }
            if let Some(stepper) = &mut stepper {
                states.fill([0]);
                for t in span {
                    for (state, [word]) in states.iter_mut().zip(stepper.dff_words()) {
                        state[0] |= (word & 1) << (t % 64);
                    }
                    stepper.eval_from(block, (t % 64) as u32);
                    stepper.step();
                }
                sim.dff_words_mut().copy_from_slice(&states);
            }
            sim.eval();
            for (n, word) in block.iter_mut().enumerate() {
                *word = sim.value(NetId::from_index(n))[0];
            }
        }
        FaultFreeRecord {
            inputs,
            nets,
            words,
        }
    }

    /// The block of net words holding `cycle`, and its bit in them.
    fn block(&self, cycle: usize) -> (&[u64], u32) {
        (
            &self.words[cycle / 64 * self.nets..][..self.nets],
            (cycle % 64) as u32,
        )
    }

    /// `net`'s fault-free value at `cycle`, 0 or 1.
    fn bit(&self, net: NetId, cycle: usize) -> u64 {
        let (block, bit) = self.block(cycle);
        block[net.index()] >> bit & 1
    }

    /// `outputs`' fault-free words (LSB-first, 64 outputs per word) at
    /// every observed cycle of `stimulus`.
    fn responses(&self, outputs: &[NetId], stimulus: &Stimulus) -> Vec<Vec<u64>> {
        stimulus
            .iter()
            .enumerate()
            .filter(|(_, (_, observe))| *observe)
            .map(|(t, _)| {
                let (block, bit) = self.block(t);
                let mut words = vec![0; outputs.len().div_ceil(64)];
                for (k, &out) in outputs.iter().enumerate() {
                    words[k / 64] |= (block[out.index()] >> bit & 1) << (k % 64);
                }
                words
            })
            .collect()
    }
}

/// Which simulation engine grades each fault batch.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum SimEngine {
    /// Compiled evaluation tape (see [`crate::CompiledTape`]): flat
    /// instruction stream of one entry per gate with precomputed operand
    /// indices, and 4×`u64` lane blocks grading up to 255 faults per pass,
    /// clocking only the work that can still detect a fault (see the
    /// module docs; the default).
    #[default]
    Compiled,
    /// Evaluate every combinational gate on every cycle with a plain
    /// [`Simulator`], [`FAULTS_PER_BATCH`] faults per pass, never dropping
    /// a fault: the reference oracle the compiled tape is differentially
    /// tested against.
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
#[derive(Debug, Clone, Copy, Default)]
pub struct FaultSimConfig {
    /// Worker threads for fault-batch fan-out.
    ///
    /// `None` (the default) uses [`std::thread::available_parallelism`];
    /// `Some(1)` grades every batch on the calling thread; `Some(n)` pins
    /// the pool, which is how benches make wall-clock numbers reproducible.
    /// The effective count never exceeds the number of batch groups (four
    /// batches each; on the full-eval engine, the number of batches).
    /// Coverage results are bit-identical for every setting.
    pub threads: Option<usize>,
    /// Simulation engine (default [`SimEngine::Compiled`]). Coverage
    /// results are bit-identical for both engines; only batch packing and
    /// wall time differ.
    pub engine: SimEngine,
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
/// simulation happened and, on the compiled engine, how much dropping
/// detected faults saved. Independent of the thread count.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimStats {
    /// Fault batches of the initial packing (up to
    /// [`SimEngine::faults_per_pass`] faults each, plus the reference
    /// lane); repacking merges them as faults are detected.
    pub batches: u64,
    /// Netlist cycles actually clocked, summed over every batch simulator.
    /// The full-eval engine clocks every batch over every cycle, so there
    /// this equals [`SimStats::cycles_scheduled`]; the compiled engine
    /// stops detected batches, repacks survivors and, on a netlist without
    /// flip-flops, leaves out the cycles that can detect nothing new
    /// (repeated patterns), which are not counted.
    pub cycles_simulated: u64,
    /// Lane words evaluated, summed over every clocked cycle: a compiled
    /// batch evaluates only the words up to its highest undetected lane,
    /// so this falls below `cycles_simulated ×`
    /// [`crate::MAX_LANE_WORDS`] (the 64-lane full-eval engine evaluates
    /// one word per cycle).
    pub lane_words_simulated: u64,
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
    /// Gate-evaluation events the fault batches performed (each event
    /// evaluating the live lane words of one gate bit-parallel). The
    /// full-eval engine evaluates every combinational gate on every
    /// clocked cycle, so there this equals [`SimStats::events_full_eval`];
    /// a compiled batch evaluates only its faults' fanout cone, so this
    /// falls below it. The compiled engine's fault-free record pass is not
    /// counted.
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
        self.lane_words_simulated += other.lane_words_simulated;
        self.cycles_scheduled += other.cycles_scheduled;
        self.live_lane_cycles += other.live_lane_cycles;
        self.events_simulated += other.events_simulated;
        self.events_full_eval += other.events_full_eval;
        self.tape_compilations += other.tape_compilations;
        self.lane_slots_filled += other.lane_slots_filled;
        self.lane_slots_total += other.lane_slots_total;
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
    fn inject(&self, sim: &mut BatchSim<'_>, index: usize, lane: usize) {
        match self {
            FaultList::Stuck(faults) => sim.inject_fault(&faults[index], lane),
            FaultList::Transition(faults) => sim.inject_transition_fault(&faults[index], lane),
        }
    }

    /// The net fault `index` forces, which seeds its fanout cone: a stem
    /// or transition fault's net, an input-pin fault's gate output.
    fn seed(&self, index: usize, netlist: &Netlist) -> NetId {
        match self {
            FaultList::Stuck(faults) => match faults[index].site {
                FaultSite::Stem(net) => net,
                FaultSite::Pin { gate, .. } => netlist.gate(gate).output,
            },
            FaultList::Transition(faults) => faults[index].net,
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
fn lane_bit(words: &[u64; W], lane: usize) -> u64 {
    words[lane / 64] >> (lane % 64) & 1
}

/// The lanes set in a lane mask, in ascending order.
fn lanes_of<const N: usize>(mask: [u64; N]) -> impl Iterator<Item = usize> {
    (0..N).flat_map(move |w| {
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

/// Gathers the bits of a word that a fixed mask selects into its low
/// bits, in order: a software `pext` whose mask-dependent moves are worked
/// out once and then applied to many words (Warren, *Hacker's Delight*,
/// §7-4).
#[derive(Debug, Clone, Copy)]
struct Compress {
    mask: u64,
    /// The bits that move right by `1 << i` at step `i`.
    moves: [u64; 6],
}

impl Compress {
    fn new(mask: u64) -> Self {
        let mut m = mask;
        // Bits with a clear mask bit to their right, counted step by step.
        let mut mk = !m << 1;
        let mut moves = [0; 6];
        for (i, mv) in moves.iter_mut().enumerate() {
            let mut mp = mk ^ (mk << 1);
            mp ^= mp << 2;
            mp ^= mp << 4;
            mp ^= mp << 8;
            mp ^= mp << 16;
            mp ^= mp << 32;
            *mv = mp & m;
            m = (m ^ *mv) | (*mv >> (1 << i));
            mk &= !mp;
        }
        Compress { mask, moves }
    }

    fn apply(&self, word: u64) -> u64 {
        let mut x = word & self.mask;
        for (i, mv) in self.moves.iter().enumerate() {
            let t = x & mv;
            x = (x ^ t) | (t >> (1 << i));
        }
        x
    }
}

/// Overwrites the `count` lanes from `lane` on with the low bits of
/// `bits`.
fn deposit(words: &mut [u64; W], lane: usize, count: usize, bits: u64) {
    debug_assert!((1..=64).contains(&count));
    let (w, shift) = (lane / 64, lane % 64);
    let ones = u64::MAX >> (64 - count);
    let bits = bits & ones;
    words[w] = words[w] & !(ones << shift) | bits << shift;
    if shift + count > 64 {
        words[w + 1] = words[w + 1] & !(ones >> (64 - shift)) | bits >> (64 - shift);
    }
}

/// One run of a repack: the survivors in one lane word of an old batch,
/// or the part of them that fits the new batch they start in.
struct Run {
    /// The old batch's lane word.
    word: usize,
    /// Gathers the survivors' bits of that word.
    gather: Compress,
    /// Gathered bits skipped: the run's first survivor among them.
    skip: usize,
    count: usize,
    /// The new batch, and its lane the run starts at.
    to: usize,
    lane: usize,
}

/// One batch of a group in flight: a private simulator and the faults in
/// its lanes.
struct Batch<'t> {
    sim: BatchSim<'t>,
    /// Fault index carried by lane `i + 1`.
    faults: Vec<usize>,
    /// Lanes whose fault is not yet detected.
    undetected: [u64; W],
    /// Lane words each clocked cycle evaluates, from word 0.
    words: usize,
    /// Cycles this simulator has clocked, over every batch it carried.
    cycles: u64,
    /// Lane words this simulator has evaluated, summed over its cycles.
    lane_words: u64,
}

impl Batch<'_> {
    /// Injects the faults `indices` into lanes 1.. of the (clear)
    /// simulator, all undetected, and restricts it to their fanout cone
    /// and the lane words they occupy.
    fn assign(
        &mut self,
        grading: &Grading<'_>,
        indices: impl Iterator<Item = usize>,
        scratch: &mut ConeScratch,
    ) {
        self.faults.clear();
        self.undetected = [0; W];
        for (offset, index) in indices.enumerate() {
            let lane = offset + 1;
            debug_assert!(lane < 64 * W, "lane 0 is the reference");
            grading.faults.inject(&mut self.sim, index, lane);
            self.undetected[lane / 64] |= 1u64 << (lane % 64);
            self.faults.push(index);
        }
        let seeds: Vec<NetId> = self
            .faults
            .iter()
            .map(|&index| grading.faults.seed(index, grading.netlist))
            .collect();
        self.sim.restrict(&seeds, scratch);
        self.narrow();
    }

    /// Narrows the simulator to the lane words up to the one holding the
    /// highest undetected lane. Word 0, which holds the reference lane,
    /// always counts.
    fn narrow(&mut self) {
        self.words = (1..W)
            .rev()
            .find(|&w| self.undetected[w] != 0)
            .map_or(1, |w| w + 1);
        self.sim.set_words(self.words);
    }

    /// Faults in this batch not yet detected.
    fn live_faults(&self) -> usize {
        self.undetected
            .iter()
            .map(|w| w.count_ones() as usize)
            .sum()
    }
}

/// What grading some batches reports: one group's to the merge, or a
/// whole call's.
#[derive(Default)]
struct Outcome {
    /// First detecting cycle of each fault, in index order.
    detecting_cycle: Vec<Option<u32>>,
    /// Cycles clocked, over every batch simulator.
    cycles: u64,
    /// Lane words evaluated, over every clocked cycle.
    lane_words: u64,
    /// Gate-evaluation events performed.
    events: u64,
}

impl Outcome {
    /// Books the work of a batch simulator the group no longer clocks.
    fn retire(&mut self, batch: Batch<'_>) {
        self.cycles += batch.cycles;
        self.lane_words += batch.lane_words;
        self.events += batch.sim.events();
    }

    /// Appends the outcome of the batches that follow these.
    fn absorb(&mut self, next: Outcome) {
        self.detecting_cycle.extend(next.detecting_cycle);
        self.cycles += next.cycles;
        self.lane_words += next.lane_words;
        self.events += next.events;
    }
}

/// Parallel single-stuck-at fault simulator.
///
/// Packs up to [`SimEngine::faults_per_pass`] faulty machines plus one
/// fault-free reference machine (lane 0) into each simulation pass. On
/// the compiled engine it fans groups of four passes out over worker
/// threads (see [`FaultSimConfig::threads`]) and repacks each group's
/// surviving faults into fewer passes as the others are detected; the
/// full-eval oracle fans out its passes one by one and never drops a
/// fault. A fault is *detected*
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
    /// The last fault-free record, reused by a call over the same input
    /// vectors (both fault models of one stimulus).
    record: Mutex<Option<Arc<FaultFreeRecord>>>,
}

impl<'a> FaultSimulator<'a> {
    /// Creates a fault simulator with the default configuration.
    pub fn new(netlist: &'a Netlist) -> Self {
        FaultSimulator::with_config(netlist, FaultSimConfig::default())
    }

    /// Creates a fault simulator with an explicit configuration.
    pub fn with_config(netlist: &'a Netlist, config: FaultSimConfig) -> Self {
        FaultSimulator {
            netlist,
            config,
            tape: OnceLock::new(),
            record: Mutex::new(None),
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
    /// Batching, threading, fault dropping and the fault-free record all
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
        let netlist = self.netlist;
        let batches = fault_batches(faults.len(), engine.faults_per_pass());
        let threads = resolve_threads(self.config.threads);
        let mut tape_compilations = 0u64;
        let (outcome, fault_free_responses, threads_used) = match engine {
            SimEngine::Compiled => {
                // The tape is built once per *simulator* and shared
                // (immutably) by every worker and every later call; each
                // batch still gets a private simulator state.
                let tape = self.tape.get_or_init(|| {
                    tape_compilations += 1;
                    CompiledTape::compile(netlist)
                });
                self.grade_compiled(tape, faults, stimulus, &batches, threads)
            }
            SimEngine::FullEval => full_eval(netlist, faults, stimulus, &batches, threads),
        };
        let Outcome {
            detecting_cycle,
            cycles,
            lane_words,
            events,
        } = outcome;
        // A fault's lane is live up to and including its detecting cycle.
        let live_lane_cycles = detecting_cycle
            .iter()
            .map(|cycle| cycle.map_or(stimulus.len() as u64, |c| u64::from(c) + 1))
            .sum();
        FaultSimResult {
            detected: detecting_cycle.iter().map(Option::is_some).collect(),
            detecting_cycle,
            fault_free_responses,
            threads_used,
            engine,
            wall_time: start.elapsed(),
            stats: SimStats {
                batches: batches.len() as u64,
                cycles_simulated: cycles,
                lane_words_simulated: lane_words,
                cycles_scheduled: batches.len() as u64 * stimulus.len() as u64,
                live_lane_cycles,
                events_simulated: events,
                events_full_eval: cycles * netlist.comb_order().len() as u64,
                tape_compilations,
                lane_slots_filled: faults.len() as u64,
                lane_slots_total: batches.len() as u64 * engine.faults_per_pass() as u64,
            },
        }
    }

    /// Grades `batches` on the compiled engine over `tape`, in groups of
    /// [`GROUP_BATCHES`] fanned out over `threads` workers (see the module
    /// docs). Returns the merged outcome, the fault-free responses and the
    /// workers used.
    fn grade_compiled(
        &self,
        tape: &CompiledTape,
        faults: FaultList<'_>,
        stimulus: &Stimulus,
        batches: &[Range<usize>],
        threads: usize,
    ) -> (Outcome, Vec<Vec<u64>>, usize) {
        let netlist = self.netlist;
        let record = self.record(stimulus, tape);
        let grading = Grading {
            faults,
            netlist,
            tape,
            plan: Plan::new(
                netlist,
                stimulus,
                &record.inputs,
                matches!(faults, FaultList::Transition(_)),
            ),
            record: &record,
            dff_q: netlist
                .dff_gates()
                .iter()
                .map(|&gate| netlist.gate(gate).output)
                .collect(),
        };
        let groups: Vec<&[Range<usize>]> = batches.chunks(GROUP_BATCHES).collect();
        let (graded, workers) =
            fan_out(&groups, threads, || (), |_, group| grading.run_group(group));
        // Groups come back in fault-index order, whichever worker graded
        // them, so concatenating them is the deterministic merge.
        let mut merged = Outcome::default();
        for outcome in graded {
            merged.absorb(outcome);
        }
        let responses = record.responses(netlist.outputs(), stimulus);
        (merged, responses, workers.len())
    }

    /// The fault-free record of `stimulus`: the cached one when it was
    /// simulated from the same input vectors, else a new pass over `tape`,
    /// which then takes the cache's place.
    fn record(&self, stimulus: &Stimulus, tape: &CompiledTape) -> Arc<FaultFreeRecord> {
        let inputs = PackedInputs::new(stimulus, self.netlist.inputs().len());
        let cached = self.cached_record().clone();
        if let Some(record) = cached.filter(|record| record.inputs == inputs) {
            return record;
        }
        let record = Arc::new(FaultFreeRecord::simulate(tape, self.netlist, inputs));
        *self.cached_record() = Some(Arc::clone(&record));
        record
    }

    fn cached_record(&self) -> std::sync::MutexGuard<'_, Option<Arc<FaultFreeRecord>>> {
        // The cache holds either no record or a whole one at every step.
        self.record
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }
}

/// The reference oracle, [`SimEngine::FullEval`]: each of `batches`, fanned
/// out over `threads` workers, gets a fresh [`Simulator`] with its faults
/// in lanes 1 and up, clocks every stimulus cycle over the whole netlist
/// and compares the outputs with lane 0 on every observed cycle. Returns
/// the merged outcome, lane 0's responses and the workers used.
fn full_eval(
    netlist: &Netlist,
    faults: FaultList<'_>,
    stimulus: &Stimulus,
    batches: &[Range<usize>],
    threads: usize,
) -> (Outcome, Vec<Vec<u64>>, usize) {
    let outputs = netlist.outputs();
    let (graded, workers) = fan_out(
        batches,
        threads,
        || (),
        |_, batch| {
            let mut sim = Simulator::new(netlist);
            for (lane, index) in (1..).zip(batch.clone()) {
                match faults {
                    FaultList::Stuck(list) => sim.inject_fault(&list[index], 1 << lane),
                    FaultList::Transition(list) => {
                        sim.inject_transition_fault(&list[index], 1 << lane)
                    }
                }
            }
            let mut detecting_cycle = vec![None; batch.len()];
            let mut responses = Vec::with_capacity(stimulus.observed_cycles());
            for (cycle, (inputs, observe)) in stimulus.iter().enumerate() {
                for (pos, &bit) in inputs.iter().enumerate() {
                    sim.set_input_word(pos, 0u64.wrapping_sub(u64::from(bit)));
                }
                sim.eval();
                if observe {
                    let mut words = vec![0; outputs.len().div_ceil(64)];
                    let mut diff = 0;
                    for (k, &out) in outputs.iter().enumerate() {
                        let v = sim.value(out);
                        words[k / 64] |= (v & 1) << (k % 64);
                        diff |= v ^ 0u64.wrapping_sub(v & 1);
                    }
                    for lane in lanes_of([diff]) {
                        detecting_cycle[lane - 1].get_or_insert(cycle as u32);
                    }
                    responses.push(words);
                }
                sim.step();
            }
            (detecting_cycle, responses)
        },
    );
    let cycles = (batches.len() * stimulus.len()) as u64;
    let mut outcome = Outcome {
        cycles,
        lane_words: cycles,
        events: cycles * netlist.comb_order().len() as u64,
        ..Outcome::default()
    };
    let mut fault_free_responses = None;
    for (detecting_cycle, responses) in graded {
        outcome.detecting_cycle.extend(detecting_cycle);
        fault_free_responses.get_or_insert(responses);
    }
    (
        outcome,
        fault_free_responses.unwrap_or_default(),
        workers.len(),
    )
}

/// What every group of one compiled grading call shares.
struct Grading<'g> {
    faults: FaultList<'g>,
    netlist: &'g Netlist,
    tape: &'g CompiledTape,
    plan: Plan,
    record: &'g FaultFreeRecord,
    /// Each flip-flop's output net, in netlist flip-flop order.
    dff_q: Vec<NetId>,
}

/// Buffers a group reuses from one repack to the next.
struct GroupScratch {
    cone: ConeScratch,
    /// Each new batch's flip-flop words.
    carry: Vec<Vec<[u64; W]>>,
}

impl Grading<'_> {
    /// Grades one group of consecutive batches (contiguous ranges of fault
    /// indices) on private simulators, one fault per lane from lane 1 up,
    /// window by window, taking each cycle's plan step.
    ///
    /// Each batch is restricted to its faults' fanout cone, stops once all
    /// its faults are detected and evaluates only the lane words that
    /// still hold an undetected fault, and each window boundary may repack
    /// the survivors ([`Grading::repack`]).
    fn run_group(&self, group: &[Range<usize>]) -> Outcome {
        let base = group[0].start;
        let mut outcome = Outcome {
            detecting_cycle: vec![None; group[group.len() - 1].end - base],
            ..Outcome::default()
        };
        let mut scratch = GroupScratch {
            cone: ConeScratch::default(),
            carry: Vec::new(),
        };
        let mut live: Vec<Batch<'_>> = group
            .iter()
            .map(|faults| {
                let mut batch = Batch {
                    sim: BatchSim::new(self.tape),
                    faults: Vec::with_capacity(faults.len()),
                    undetected: [0; W],
                    words: W,
                    cycles: 0,
                    lane_words: 0,
                };
                batch.assign(self, faults.clone(), &mut scratch.cone);
                batch
            })
            .collect();

        let len = self.plan.steps.len();
        let mut window_start = 0;
        while window_start < len && !live.is_empty() {
            let window = window_start..(window_start + WINDOW_CYCLES).min(len);
            for batch in &mut live {
                self.run_window(batch, window.clone(), &mut outcome.detecting_cycle, base);
            }
            window_start = window.end;
            // After the last window there is nothing left to clock.
            if window_start < len {
                for batch in std::mem::take(&mut live) {
                    if batch.undetected != [0; W] {
                        live.push(batch);
                    } else {
                        outcome.retire(batch);
                    }
                }
                self.repack(&mut live, window_start, &mut scratch, &mut outcome);
            }
        }
        for batch in live {
            outcome.retire(batch);
        }
        outcome
    }

    /// Clocks `batch` over the stimulus cycles `window`, taking each
    /// cycle's plan step and recording each fault's first detecting cycle
    /// into `detecting_cycle` (indexed from fault `base`). The batch stops
    /// once all its faults are detected.
    fn run_window(
        &self,
        batch: &mut Batch<'_>,
        window: Range<usize>,
        detecting_cycle: &mut [Option<u32>],
        base: usize,
    ) {
        let mut live = batch.live_faults();
        if live == 0 {
            return;
        }
        for cycle in window {
            let compare = match self.plan.steps[cycle] {
                CycleStep::Compare => true,
                CycleStep::Clock => false,
                CycleStep::Skip => continue,
            };
            batch.cycles += 1;
            batch.lane_words += batch.words as u64;
            let (block, bit) = self.record.block(cycle);
            batch.sim.eval_from(block, bit);
            if compare {
                let mut diff = [0u64; W];
                for &out in batch.sim.outputs() {
                    let v = batch.sim.value(out);
                    let lane0 = 0u64.wrapping_sub(v[0] & 1); // broadcast lane 0
                    for (diff, v) in diff.iter_mut().zip(v).take(batch.words) {
                        *diff |= v ^ lane0;
                    }
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
                    if live == 0 {
                        break;
                    }
                    batch.narrow();
                }
            }
            batch.sim.step();
        }
    }

    /// Gathers a group's undetected faults into as few batches as they
    /// fill, in fault-index order from lane 1 up, when that frees a batch
    /// or lowers the lane words the group evaluates per cycle, before
    /// stimulus cycle `cycle`. The first batches' simulators are cleared
    /// and reused, the rest retired.
    ///
    /// Each moved fault is re-injected, and its new batch restricted to
    /// its faults' cone. A lane's flip-flop bits move along a lane word at
    /// a time: the bits of a flip-flop its old batch latched, the record's
    /// fault-free bit for one outside that batch's cone, which no fault of
    /// the batch could disturb. Lane 0 takes the record's bits, and a
    /// transition fault its arming bit.
    fn repack(
        &self,
        live: &mut Vec<Batch<'_>>,
        cycle: usize,
        scratch: &mut GroupScratch,
        outcome: &mut Outcome,
    ) {
        let per_pass = 64 * W - 1;
        let survivors: usize = live.iter().map(Batch::live_faults).sum();
        let needed = survivors.div_ceil(per_pass);
        // Packed from lane 1 up, a batch's words reach its highest lane.
        let packed_words: usize = (0..needed)
            .map(|b| survivors.saturating_sub(b * per_pass).min(per_pass) / 64 + 1)
            .sum();
        let live_words: usize = live.iter().map(|batch| batch.words).sum();
        if needed >= live.len() && packed_words >= live_words {
            return;
        }
        // Every survivor's fault and arming bit, and each old batch's runs
        // of survivors. Batches hold ascending fault ranges, each from lane
        // 1 up, so (batch, lane) order is fault-index order.
        let mut moved = Vec::with_capacity(survivors);
        let mut runs: Vec<Vec<Run>> = Vec::with_capacity(live.len());
        for batch in live.iter() {
            let mut batch_runs = Vec::new();
            for (word, &mask) in batch.undetected.iter().enumerate() {
                let gather = Compress::new(mask);
                let count = mask.count_ones() as usize;
                let mut skip = 0;
                while skip < count {
                    let (to, slot) = (moved.len() / per_pass, moved.len() % per_pass);
                    let take = (count - skip).min(per_pass - slot);
                    batch_runs.push(Run {
                        word,
                        gather,
                        skip,
                        count: take,
                        to,
                        lane: slot + 1,
                    });
                    for lane in lanes_of([mask]).skip(skip).take(take) {
                        let lane = word * 64 + lane;
                        let fault = batch.faults[lane - 1];
                        let armed = self
                            .faults
                            .armed_net(fault)
                            .map_or(0, |net| lane_bit(&batch.sim.transition_prev(net), lane));
                        moved.push((fault, armed));
                    }
                    skip += take;
                }
            }
            runs.push(batch_runs);
        }
        debug_assert!(moved.windows(2).all(|pair| pair[0].0 < pair[1].0));
        // Each new batch's flip-flop words: the record's bit in every
        // lane, then the carried runs over it.
        let fault_free: Vec<[u64; W]> = self
            .dff_q
            .iter()
            .map(|&q| [0u64.wrapping_sub(self.record.bit(q, cycle)); W])
            .collect();
        scratch.carry.resize_with(needed, Vec::new);
        for carry in &mut scratch.carry[..needed] {
            carry.clone_from(&fault_free);
        }
        for (batch, runs) in live.iter().zip(&runs) {
            let carry = &mut scratch.carry;
            let dff_words = batch.sim.dff_words();
            for &k in batch.sim.stepped_dffs() {
                let k = k as usize;
                for run in runs {
                    let bits = run.gather.apply(dff_words[k][run.word]) >> run.skip;
                    deposit(&mut carry[run.to][k], run.lane, run.count, bits);
                }
            }
        }
        for batch in live.drain(needed..) {
            outcome.retire(batch);
        }
        let mut chunks = moved.chunks(per_pass);
        for (batch, carry) in live.iter_mut().zip(&scratch.carry) {
            let chunk = chunks.next().unwrap_or_default();
            batch.sim.clear_faults();
            batch.sim.reset();
            batch.assign(
                self,
                chunk.iter().map(|&(fault, _)| fault),
                &mut scratch.cone,
            );
            batch.sim.dff_words_mut().copy_from_slice(carry);
            for (offset, &(fault, armed)) in chunk.iter().enumerate() {
                if let Some(net) = self.faults.armed_net(fault) {
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
        for engine in [SimEngine::Compiled, SimEngine::FullEval] {
            let res = FaultSimulator::with_config(&n, FaultSimConfig::with_engine(engine))
                .simulate(&faults, &stim);
            assert_eq!(res.fault_free_responses.len(), stim.observed_cycles());
            // AND truth table: 0,0,0,1.
            let bits: Vec<u64> = res.fault_free_responses.iter().map(|w| w[0] & 1).collect();
            assert_eq!(bits, vec![0, 0, 0, 1], "{}", engine.name());
        }
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
            },
        )
        .simulate(&faults, &s);
        assert_eq!(full.detected, compiled.detected);
        assert_eq!(full.detecting_cycle, compiled.detecting_cycle);
        assert_eq!(full.fault_free_responses, compiled.fault_free_responses);
        // A compiled batch evaluates at most every gate per cycle.
        assert!(compiled.stats.events_simulated <= compiled.stats.events_full_eval);
    }

    #[test]
    fn compress_gathers_the_masked_bits_in_order() {
        let mut state = 0x0123_4567_89AB_CDEFu64;
        let mut next = || {
            state = state.rotate_left(23).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            state
        };
        for _ in 0..2000 {
            let (word, mask) = (next(), next() & next());
            for mask in [mask, !mask, 0, !0, mask & mask.wrapping_neg()] {
                let mut naive = 0;
                for (k, bit) in (0..64).filter(|&bit| mask >> bit & 1 == 1).enumerate() {
                    naive |= (word >> bit & 1) << k;
                }
                assert_eq!(
                    Compress::new(mask).apply(word),
                    naive,
                    "{word:x} / {mask:x}"
                );
            }
        }
    }

    /// Two unconnected circuits: an AND feeding an inverter, and an XOR
    /// chain of five gates. A batch evaluates only the circuits its faults
    /// sit in, so the event count is the clocked cycles times the size of
    /// those circuits.
    #[test]
    fn a_batch_evaluates_only_its_faults_cones() {
        let mut b = NetlistBuilder::new("two_cones");
        let a = b.input_bus("a", 2);
        let x = b.input_bus("x", 3);
        let and = b.and2(a.net(0), a.net(1));
        let small = b.not(and);
        let mut chain = x.net(0);
        for k in 0..5 {
            chain = b.xor2(chain, x.net((k + 1) % 3));
        }
        b.mark_output(small, "small");
        b.mark_output(chain, "chain");
        let n = b.finish().unwrap();
        let in_small = |f: &Fault| match f.site {
            FaultSite::Stem(net) => [a.net(0), a.net(1), and, small].contains(&net),
            FaultSite::Pin { gate, .. } => [and, small].contains(&n.gate(gate).output),
        };
        let (small_faults, chain_faults): (Vec<Fault>, Vec<Fault>) =
            n.collapsed_faults().into_iter().partition(in_small);
        let mut s = Stimulus::new();
        for v in 0..32u32 {
            s.push_pattern(&(0..5).map(|i| v >> i & 1 == 1).collect::<Vec<_>>());
        }
        let grade = |faults: &[Fault]| FaultSimulator::new(&n).simulate(faults, &s).stats;
        for (faults, gates) in [
            (&small_faults, 2),
            (&chain_faults, 5),
            (&n.collapsed_faults(), 7),
        ] {
            let stats = grade(faults);
            assert!(stats.cycles_simulated > 0);
            assert_eq!(stats.events_simulated, gates * stats.cycles_simulated);
            assert_eq!(stats.events_full_eval, 7 * stats.cycles_simulated);
        }
    }

    #[test]
    fn a_record_serves_only_its_own_stimulus() {
        let n = and2_netlist();
        let faults = n.collapsed_faults();
        let sim = FaultSimulator::new(&n);
        let first = sim.simulate(&faults, &exhaustive2());
        let mut other = Stimulus::new();
        other.push_pattern(&[true, true]);
        other.push_pattern(&[true, false]);
        let second = sim.simulate(&faults, &other);
        assert_eq!(second.fault_free_responses, vec![vec![1], vec![0]]);
        let again = sim.simulate_transition(&[], &exhaustive2());
        assert_eq!(again.fault_free_responses, first.fault_free_responses);
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
            },
        )
        .simulate(&faults, &s);
        for threads in [1usize, 4] {
            let compiled = FaultSimulator::with_config(
                &n,
                FaultSimConfig {
                    engine: SimEngine::Compiled,
                    threads: Some(threads),
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
        let cfg = FaultSimConfig::with_engine(SimEngine::FullEval);
        let res = FaultSimulator::with_config(&n, cfg).simulate(&faults, &stim);
        let batches = fault_batches(faults.len(), FAULTS_PER_BATCH).len() as u64;
        assert_eq!(res.stats.batches, batches);
        assert_eq!(res.stats.cycles_scheduled, batches * stim.len() as u64);
        // The oracle never drops: every scheduled cycle is clocked.
        assert_eq!(res.stats.cycles_simulated, res.stats.cycles_scheduled);
        assert_eq!(res.stats.lane_words_simulated, res.stats.cycles_simulated);
        // One event per combinational gate per cycle.
        assert_eq!(
            res.stats.events_simulated,
            res.stats.cycles_simulated * n.comb_order().len() as u64
        );
        assert_eq!(res.stats.events_simulated, res.stats.events_full_eval);
    }

    /// The oracle's shape on a sequential netlist: an empty fault list
    /// still clocks its one batch over every cycle, and lane 0 gives the
    /// compiled engine's fault-free responses, under both fault models.
    #[test]
    fn the_oracle_clocks_every_cycle_and_reads_responses_from_lane_zero() {
        let mut b = NetlistBuilder::new("reg_xor");
        let d = b.input_bus("d", 3);
        let q = b.bus_dff(&d);
        let x = b.xor2(q.net(0), d.net(1));
        let y = b.and2(q.net(1), q.net(2));
        b.mark_output(x, "x");
        b.mark_output(y, "y");
        let n = b.finish().unwrap();
        let mut s = Stimulus::new();
        for t in 0..70u32 {
            let v = t.wrapping_mul(0x9E37) >> 3;
            s.push_cycle(&[v & 1 == 1, v & 2 != 0, v & 4 != 0], t % 5 != 2);
        }
        let grade = |engine, transition: bool| {
            let sim = FaultSimulator::with_config(&n, FaultSimConfig::with_engine(engine));
            if transition {
                sim.simulate_transition(&[], &s)
            } else {
                sim.simulate(&[], &s)
            }
        };
        for transition in [false, true] {
            let oracle = grade(SimEngine::FullEval, transition);
            let compiled = grade(SimEngine::Compiled, transition);
            assert_eq!(oracle.stats.batches, 1);
            assert_eq!(oracle.stats.cycles_scheduled, s.len() as u64);
            assert_eq!(oracle.stats.cycles_simulated, oracle.stats.cycles_scheduled);
            assert_eq!(oracle.stats.events_simulated, oracle.stats.events_full_eval);
            assert_eq!(oracle.stats.events_full_eval, 2 * s.len() as u64);
            assert_eq!(oracle.fault_free_responses, compiled.fault_free_responses);
            assert_eq!(oracle.fault_free_responses.len(), s.observed_cycles());
            // The compiled engine reads an empty list's responses from its
            // record and clocks nothing.
            assert_eq!(compiled.stats.cycles_simulated, 0);
        }
    }

    #[test]
    fn drop_on_detect_savings_show_in_stats() {
        // Wide OR tree, multi-batch on the compiled engine; the walking-one
        // patterns detect every fault early so later cycles are dropped,
        // which the never-dropping oracle still clocks.
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
        let grade = |engine| {
            let cfg = FaultSimConfig {
                engine,
                threads: Some(2),
            };
            FaultSimulator::with_config(&n, cfg).simulate(&faults, &s)
        };
        let (compiled, oracle) = (grade(SimEngine::Compiled), grade(SimEngine::FullEval));
        assert_eq!(compiled.coverage().percent(), 100.0);
        assert_eq!(compiled.detecting_cycle, oracle.detecting_cycle);
        assert!(
            compiled.stats.cycles_simulated < compiled.stats.cycles_scheduled,
            "expected dropping to skip padded cycles: {:?}",
            compiled.stats
        );
        assert!(compiled.stats.events_simulated < compiled.stats.events_full_eval);
        assert_eq!(oracle.stats.cycles_simulated, oracle.stats.cycles_scheduled);
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
        let grade = |engine| {
            let cfg = FaultSimConfig {
                engine,
                threads: Some(1),
            };
            FaultSimulator::with_config(&n, cfg).simulate(&faults, &s)
        };
        let (dropped, full) = (grade(SimEngine::Compiled), grade(SimEngine::FullEval));
        assert_eq!(dropped.detecting_cycle, full.detecting_cycle);
        assert!(dropped.coverage().detected > full.detected.len() / 2);

        // Without repacking every batch would run to its last detection,
        // and the late detections span all batches.
        let per_batch: u64 = full
            .detecting_cycle
            .chunks(per_pass)
            .map(|cycles| {
                if cycles.iter().any(Option::is_none) {
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
    fn empty_fault_list_still_records_responses_in_parallel() {
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
