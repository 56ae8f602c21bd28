//! Compiled-tape logic simulation: the netlist is levelized once and
//! flattened into a branch-minimal evaluation tape that a tight inner loop
//! replays every cycle.
//!
//! Two classic compiled-simulation moves are combined here:
//!
//! 1. **Tape compilation** ([`CompiledTape`]): the topologically ordered
//!    combinational gates become a flat array of tape entries, one per
//!    gate, whose operands are precomputed net indices into a
//!    structure-of-arrays value store — no per-gate `HashMap` probes, no
//!    per-gate operand `Vec`s, no pointer chasing through [`crate::Gate`]
//!    structs on the hot path.
//! 2. **Wide lanes** ([`TapeSimulator`]): every net value is `W` 64-bit
//!    words instead of one, so a `W = 4` pass simulates 256 independent
//!    machines — one fault-free reference plus up to 255 faulty ones —
//!    and the `[u64; W]` logic ops auto-vectorize.
//!
//! Fault injection stays off the hot path. A simulator lists the entries
//! that carry an injection (a stem or transition fault on the gate's
//! output, a stuck-at input pin), sorted once per injection set, and the
//! replay evaluates every gate between two listed entries with one
//! micro-op and one store, checking no flag. A listed entry applies its
//! pin masks to the operands it loads and its stem mask and transition
//! forcing to the result, exactly where [`crate::Simulator`] applies them.
//! Faulted primary inputs and flip-flop outputs are forced the same way
//! before the replay.

use std::collections::HashMap;
use std::ops::Deref;

use crate::fault::{Fault, FaultSite, TransitionFault};
use crate::gate::{Gate, GateKind};
use crate::net::NetId;
use crate::netlist::Netlist;
use crate::sim::hold_armed_lanes;

/// Maximum number of 64-bit lane words a [`TapeSimulator`] supports; the
/// fault simulator's compiled engine runs at this width (256 lanes).
pub const MAX_LANE_WORDS: usize = 4;

/// The operation of one tape entry: its gate's function over
/// precomputed operand net indices, listed in the gate's pin order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MicroOp {
    /// `0`.
    Const0,
    /// `!0`.
    Const1,
    /// `v[a]`.
    Copy { a: u32 },
    /// `!v[a]`.
    NotOf { a: u32 },
    /// `v[a] & v[b]`.
    And2 { a: u32, b: u32 },
    /// `v[a] | v[b]`.
    Or2 { a: u32, b: u32 },
    /// `!(v[a] & v[b])`.
    Nand2 { a: u32, b: u32 },
    /// `!(v[a] | v[b])`.
    Nor2 { a: u32, b: u32 },
    /// `v[a] ^ v[b]`.
    Xor2 { a: u32, b: u32 },
    /// `!(v[a] ^ v[b])`.
    Xnor2 { a: u32, b: u32 },
    /// `mux(sel=v[s], d0=v[a], d1=v[b])`.
    Mux2 { s: u32, a: u32, b: u32 },
    /// AND over an operand-pool range.
    AndN { off: u32, len: u32 },
    /// OR over an operand-pool range.
    OrN { off: u32, len: u32 },
    /// NAND over an operand-pool range.
    NandN { off: u32, len: u32 },
    /// NOR over an operand-pool range.
    NorN { off: u32, len: u32 },
}

/// One tape entry: one combinational gate and the net it writes.
#[derive(Debug, Clone, Copy)]
struct TapeEntry {
    op: MicroOp,
    out: u32,
}

/// A netlist compiled into a flat evaluation tape (see the module docs).
///
/// Compile once with [`CompiledTape::compile`], then instantiate any
/// number of independent [`TapeSimulator`]s over it — the tape itself is
/// immutable and shared freely across threads. The tape keeps every
/// netlist fact its simulators need, so it outlives the netlist it was
/// compiled from and can be shared behind an [`Arc`](std::sync::Arc).
#[derive(Debug)]
pub struct CompiledTape {
    net_count: usize,
    /// One entry per combinational gate, in topological order.
    entries: Vec<TapeEntry>,
    /// Operand pool for n-ary micro-ops (net indices).
    pool: Vec<u32>,
    /// Gate index → its tape entry (`u32::MAX` for DFFs).
    entry_of_gate: Vec<u32>,
    /// Net index → tape entry of its combinational driver (`u32::MAX`
    /// for primary inputs and flip-flop outputs).
    entry_of_net: Vec<u32>,
    /// Primary-input net indices (parallel to `netlist.inputs()`).
    input_nets: Vec<u32>,
    /// Per-DFF `(q net, d net, gate index)` (parallel to
    /// `netlist.dff_gates()`).
    dff_nets: Vec<(u32, u32, u32)>,
}

impl CompiledTape {
    /// Compiles `netlist` into an evaluation tape: one entry per
    /// combinational gate, in topological order, so every operand is
    /// written before an entry reads it.
    pub fn compile(netlist: &Netlist) -> Self {
        let comb = netlist.comb_order();
        let mut tape = CompiledTape {
            net_count: netlist.net_count(),
            entries: Vec::with_capacity(comb.len()),
            pool: Vec::new(),
            entry_of_gate: vec![u32::MAX; netlist.gate_count()],
            entry_of_net: vec![u32::MAX; netlist.net_count()],
            input_nets: netlist.inputs().iter().map(|n| n.index() as u32).collect(),
            dff_nets: netlist
                .dff_gates()
                .iter()
                .map(|&gid| {
                    let gate = netlist.gate(gid);
                    (
                        gate.output.index() as u32,
                        gate.inputs[0].index() as u32,
                        gid.index() as u32,
                    )
                })
                .collect(),
        };
        for &gid in comb {
            let gate = netlist.gate(gid);
            let entry = tape.entries.len() as u32;
            tape.entry_of_gate[gid.index()] = entry;
            tape.entry_of_net[gate.output.index()] = entry;
            let op = tape.micro_op(gate);
            tape.entries.push(TapeEntry {
                op,
                out: gate.output.index() as u32,
            });
        }
        // Shared tapes stay alive for a whole fault campaign.
        tape.pool.shrink_to_fit();
        tape
    }

    /// The micro-op evaluating `gate`.
    fn micro_op(&mut self, gate: &Gate) -> MicroOp {
        let idx = |k: usize| gate.inputs[k].index() as u32;
        match gate.kind {
            GateKind::Const0 => MicroOp::Const0,
            GateKind::Const1 => MicroOp::Const1,
            GateKind::Buf => MicroOp::Copy { a: idx(0) },
            GateKind::Not => MicroOp::NotOf { a: idx(0) },
            GateKind::Xor => MicroOp::Xor2 {
                a: idx(0),
                b: idx(1),
            },
            GateKind::Xnor => MicroOp::Xnor2 {
                a: idx(0),
                b: idx(1),
            },
            GateKind::Mux2 => MicroOp::Mux2 {
                s: idx(0),
                a: idx(1),
                b: idx(2),
            },
            GateKind::And | GateKind::Or | GateKind::Nand | GateKind::Nor => {
                if gate.inputs.len() == 2 {
                    let (a, b) = (idx(0), idx(1));
                    match gate.kind {
                        GateKind::And => MicroOp::And2 { a, b },
                        GateKind::Or => MicroOp::Or2 { a, b },
                        GateKind::Nand => MicroOp::Nand2 { a, b },
                        _ => MicroOp::Nor2 { a, b },
                    }
                } else {
                    let off = self.pool.len() as u32;
                    self.pool
                        .extend(gate.inputs.iter().map(|n| n.index() as u32));
                    let len = self.pool.len() as u32 - off;
                    match gate.kind {
                        GateKind::And => MicroOp::AndN { off, len },
                        GateKind::Or => MicroOp::OrN { off, len },
                        GateKind::Nand => MicroOp::NandN { off, len },
                        _ => MicroOp::NorN { off, len },
                    }
                }
            }
            GateKind::Dff => unreachable!("DFFs never appear in comb_order"),
        }
    }

    /// Number of nets of the source netlist.
    pub fn net_count(&self) -> usize {
        self.net_count
    }

    /// Position of `net` within the source netlist's primary inputs, if it
    /// is one — the index [`TapeSimulator::set_input_at`] takes.
    pub fn input_position(&self, net: NetId) -> Option<usize> {
        let index = net.index() as u32;
        self.input_nets.iter().position(|&n| n == index)
    }

    /// Whether the source netlist has no flip-flops, so that every net is
    /// a pure function of the primary inputs.
    pub fn is_combinational(&self) -> bool {
        self.dff_nets.is_empty()
    }
}

/// A wide stuck-at injection mask: lanes forced to 0 / forced to 1.
#[derive(Debug, Clone, Copy)]
struct WideMask<const W: usize> {
    and0: [u64; W],
    or1: [u64; W],
}

impl<const W: usize> Default for WideMask<W> {
    fn default() -> Self {
        WideMask {
            and0: [0; W],
            or1: [0; W],
        }
    }
}

impl<const W: usize> WideMask<W> {
    #[inline]
    fn apply(&self, v: &mut [u64; W]) {
        for (v, (and0, or1)) in v.iter_mut().zip(self.and0.iter().zip(&self.or1)) {
            *v = (*v & !and0) | or1;
        }
    }

    fn add(&mut self, lane: usize, stuck: bool) {
        if stuck {
            self.or1[lane / 64] |= 1u64 << (lane % 64);
        } else {
            self.and0[lane / 64] |= 1u64 << (lane % 64);
        }
    }
}

/// Per-net transition-delay state: which lanes carry slow-to-rise /
/// slow-to-fall faults, plus the *computed* (pre-forcing) value the net
/// took in the previous eval — the arming state.
#[derive(Debug, Clone, Copy)]
struct TransitionState<const W: usize> {
    rise: [u64; W],
    fall: [u64; W],
    prev: [u64; W],
    /// Whether `prev` holds a real recorded value yet.
    seen: bool,
}

impl<const W: usize> Default for TransitionState<W> {
    fn default() -> Self {
        TransitionState {
            rise: [0; W],
            fall: [0; W],
            prev: [0; W],
            seen: false,
        }
    }
}

impl<const W: usize> TransitionState<W> {
    /// Records the freshly computed `v` as the arming state, and holds
    /// each armed lane at the value it took in the previous eval.
    #[inline]
    fn hold(&mut self, v: &mut [u64; W]) {
        let (prev, armed) = (self.prev, self.seen);
        self.prev = *v;
        self.seen = true;
        if armed {
            for w in 0..W {
                v[w] = hold_armed_lanes(v[w], self.rise[w], self.fall[w], prev[w]);
            }
        }
    }
}

/// The injections on one net a simulator evaluates: a tape entry's
/// output, with its gate's input pins, or a primary input or flip-flop
/// output.
#[derive(Debug, Default)]
struct SiteFaults<const W: usize> {
    /// Stem faults on the net (no lane forced when it carries none).
    stem: WideMask<W>,
    /// Pin faults on the entry's gate, as `(pin, mask)`.
    pins: Vec<(u8, WideMask<W>)>,
    /// Transition faults on the net, with their arming state.
    transition: Option<TransitionState<W>>,
}

impl<const W: usize> SiteFaults<W> {
    /// `v` as the gate reads it through input pin `pin`.
    #[inline]
    fn pin_value(&self, pin: usize, mut v: [u64; W]) -> [u64; W] {
        for (p, mask) in &self.pins {
            if usize::from(*p) == pin {
                mask.apply(&mut v);
            }
        }
        v
    }

    /// The net's value from its computed value `v`: the stem mask, then
    /// transition forcing.
    #[inline]
    fn force(&mut self, mut v: [u64; W]) -> [u64; W] {
        self.stem.apply(&mut v);
        if let Some(transition) = &mut self.transition {
            transition.hold(&mut v);
        }
        v
    }
}

/// The faulted sites of one kind (tape entries, or source nets), keyed by
/// entry or net index and visited in key order.
#[derive(Debug)]
struct FaultedSites<const W: usize> {
    /// `(key, injections)`, in key order while `sorted`.
    sites: Vec<(u32, SiteFaults<W>)>,
    /// Key → position in `sites` (`u32::MAX` for an unfaulted key).
    slot: Vec<u32>,
    sorted: bool,
}

impl<const W: usize> FaultedSites<W> {
    fn new(keys: usize) -> Self {
        FaultedSites {
            sites: Vec::new(),
            slot: vec![u32::MAX; keys],
            sorted: true,
        }
    }

    /// The injections of `key`, recorded empty on first use.
    fn site(&mut self, key: u32) -> &mut SiteFaults<W> {
        let mut pos = self.slot[key as usize];
        if pos == u32::MAX {
            self.sorted &= self.sites.last().is_none_or(|&(last, _)| last < key);
            pos = self.sites.len() as u32;
            self.slot[key as usize] = pos;
            self.sites.push((key, SiteFaults::default()));
        }
        &mut self.sites[pos as usize].1
    }

    fn get(&self, key: u32) -> Option<&SiteFaults<W>> {
        self.sites
            .get(self.slot[key as usize] as usize)
            .map(|(_, site)| site)
    }

    /// The faulted sites in key order, sorted once after injections.
    fn in_order(&mut self) -> &mut [(u32, SiteFaults<W>)] {
        if !self.sorted {
            self.sites.sort_unstable_by_key(|&(key, _)| key);
            for (pos, &(key, _)) in self.sites.iter().enumerate() {
                self.slot[key as usize] = pos as u32;
            }
            self.sorted = true;
        }
        &mut self.sites
    }

    fn clear(&mut self) {
        for (key, _) in self.sites.drain(..) {
            self.slot[key as usize] = u32::MAX;
        }
        self.sorted = true;
    }
}

/// A `W`-word-wide (64·W lanes) cycle-based simulator replaying a
/// [`CompiledTape`].
///
/// Semantics mirror [`crate::Simulator`]: `set_input` → [`eval`] →
/// read values → [`step`] to latch flip-flops, with per-lane stuck-at
/// injection via [`inject_fault`]. Every lane of every word behaves as an
/// independent single-bit machine.
///
/// `T` is how the simulator holds its tape: a borrow (`&CompiledTape`)
/// for the fault simulator's per-batch machines, or an
/// [`Arc`](std::sync::Arc) for a simulator that must own a share of a tape
/// compiled elsewhere, such as a fault mounted in a processor datapath.
///
/// [`eval`]: TapeSimulator::eval
/// [`step`]: TapeSimulator::step
/// [`inject_fault`]: TapeSimulator::inject_fault
#[derive(Debug)]
pub struct TapeSimulator<T: Deref<Target = CompiledTape>, const W: usize> {
    tape: T,
    state: LaneState<W>,
}

impl<T: Deref<Target = CompiledTape>, const W: usize> TapeSimulator<T, W> {
    /// Creates a simulator over `tape` with all inputs low, flip-flops
    /// reset and no faults injected.
    pub fn new(tape: T) -> Self {
        assert!(
            W >= 1 && W <= MAX_LANE_WORDS,
            "lane width {W} outside 1..={MAX_LANE_WORDS}"
        );
        let state = LaneState::new(&tape);
        TapeSimulator { tape, state }
    }

    /// Number of lanes (`64 × W`).
    pub fn lanes(&self) -> usize {
        64 * W
    }

    /// Resets all flip-flops to 0 and disarms transition faults (inputs
    /// and injections are kept).
    pub fn reset(&mut self) {
        self.state.reset();
    }

    /// Removes all injected faults.
    pub fn clear_faults(&mut self) {
        self.state.clear_faults();
    }

    /// Injects `fault` into lane `lane` (in `0..64·W`). Lane 0 is
    /// conventionally kept fault-free by callers wanting a reference
    /// machine.
    ///
    /// # Panics
    ///
    /// Panics if `lane >= 64 * W`, or if the fault site lies outside the
    /// tape's netlist.
    pub fn inject_fault(&mut self, fault: &Fault, lane: usize) {
        self.state.inject_fault(&self.tape, fault, lane);
    }

    /// Injects a gross transition-delay fault into lane `lane` — same
    /// semantics as
    /// [`Simulator::inject_transition_fault`](crate::Simulator::inject_transition_fault).
    ///
    /// # Panics
    ///
    /// Panics if `lane >= 64 * W`, or if the fault net lies outside the
    /// tape's netlist.
    pub fn inject_transition_fault(&mut self, fault: &TransitionFault, lane: usize) {
        self.state.inject_transition_fault(&self.tape, fault, lane);
    }

    /// Drives a primary input with the same logic value in every lane.
    ///
    /// # Panics
    ///
    /// Panics if `net` is not a primary input of the netlist.
    pub fn set_input(&mut self, net: NetId, value: bool) {
        let pos = self
            .tape
            .input_position(net)
            .expect("set_input target must be a primary input");
        self.set_input_at(pos, value);
    }

    /// [`TapeSimulator::set_input`] by position in [`Netlist::inputs`] —
    /// the fault simulator's hot loop applies whole patterns positionally,
    /// skipping the net-to-position lookup.
    ///
    /// # Panics
    ///
    /// Panics if `pos` is out of range.
    #[inline]
    pub fn set_input_at(&mut self, pos: usize, value: bool) {
        self.state.input_words[pos] = if value { !0 } else { 0 };
    }

    /// Propagates values through the combinational tape.
    ///
    /// Flip-flop outputs present their current state; call
    /// [`TapeSimulator::step`] afterwards to latch the next state.
    pub fn eval(&mut self) {
        self.state.eval(&self.tape);
    }

    /// Latches flip-flop next-state (the value on each DFF's `d` pin,
    /// after any injected `d`-pin fault).
    ///
    /// Must be called after [`TapeSimulator::eval`] for the cycle.
    pub fn step(&mut self) {
        self.state.step(&self.tape);
    }

    /// Current lane words on `net` (valid after [`TapeSimulator::eval`]).
    #[inline]
    pub fn value(&self, net: NetId) -> [u64; W] {
        load(&self.state.values, net.index() as u32)
    }

    /// Gate-evaluation events performed so far: each tape replay counts
    /// every combinational gate once, so the compiled engine's event
    /// count equals the full-eval baseline of `cycles × gates`.
    pub fn events(&self) -> u64 {
        self.state.events
    }

    /// Flip-flop state words, in netlist flip-flop order.
    pub(crate) fn dff_words(&self) -> &[[u64; W]] {
        &self.state.dff_state
    }

    /// Flip-flop state words, in netlist flip-flop order.
    pub(crate) fn dff_words_mut(&mut self) -> &mut [[u64; W]] {
        &mut self.state.dff_state
    }

    /// The arming words of transition-fault net `net` (0 before its
    /// first eval).
    pub(crate) fn transition_prev(&self, net: NetId) -> [u64; W] {
        self.state
            .site_of(&self.tape, net.index() as u32)
            .and_then(|site| site.transition.as_ref())
            .map_or([0; W], |st| st.prev)
    }

    /// Sets the arming words of `net`, as if the machine had already
    /// evaluated: how a machine resumes a transition fault's launch state
    /// mid-stimulus.
    pub(crate) fn set_transition_prev(&mut self, net: NetId, words: [u64; W]) {
        let st = self
            .state
            .site(&self.tape, net.index() as u32)
            .transition
            .get_or_insert_default();
        st.prev = words;
        st.seen = true;
    }
}

/// The mutable machine state of a [`TapeSimulator`], kept apart from its
/// tape handle so the hot loops can read the tape while writing values.
#[derive(Debug)]
struct LaneState<const W: usize> {
    /// SoA net values: net `n`'s lane words at `values[n*W .. n*W+W]`.
    values: Vec<u64>,
    /// Broadcast primary-input words, parallel to the input list.
    input_words: Vec<u64>,
    /// DFF state, parallel to `tape.dff_nets`.
    dff_state: Vec<[u64; W]>,
    /// Injections on tape entries, keyed by entry.
    entry_faults: FaultedSites<W>,
    /// Injections on primary inputs and flip-flop outputs, keyed by net.
    source_faults: FaultedSites<W>,
    /// DFF indices with a faulty `d` pin.
    dff_pin_masks: HashMap<u32, WideMask<W>>,
    events: u64,
}

impl<const W: usize> LaneState<W> {
    fn new(tape: &CompiledTape) -> Self {
        LaneState {
            values: vec![0; tape.net_count * W],
            input_words: vec![0; tape.input_nets.len()],
            dff_state: vec![[0; W]; tape.dff_nets.len()],
            entry_faults: FaultedSites::new(tape.entries.len()),
            source_faults: FaultedSites::new(tape.net_count),
            dff_pin_masks: HashMap::new(),
            events: 0,
        }
    }

    /// Resets all flip-flops to 0 and disarms transition faults (inputs
    /// and injections are kept).
    fn reset(&mut self) {
        self.dff_state.fill([0; W]);
        let sites = self.entry_faults.sites.iter_mut();
        for (_, site) in sites.chain(self.source_faults.sites.iter_mut()) {
            if let Some(st) = &mut site.transition {
                st.prev = [0; W];
                st.seen = false;
            }
        }
    }

    /// Removes all injected faults.
    fn clear_faults(&mut self) {
        self.entry_faults.clear();
        self.source_faults.clear();
        self.dff_pin_masks.clear();
    }

    /// The injections on net `ni`: its driving entry's, or its own for a
    /// primary input or flip-flop output.
    fn site(&mut self, tape: &CompiledTape, ni: u32) -> &mut SiteFaults<W> {
        match tape.entry_of_net[ni as usize] {
            u32::MAX => self.source_faults.site(ni),
            entry => self.entry_faults.site(entry),
        }
    }

    fn site_of(&self, tape: &CompiledTape, ni: u32) -> Option<&SiteFaults<W>> {
        match tape.entry_of_net[ni as usize] {
            u32::MAX => self.source_faults.get(ni),
            entry => self.entry_faults.get(entry),
        }
    }

    /// Injects `fault` into lane `lane` (in `0..64·W`). Lane 0 is
    /// conventionally kept fault-free by callers wanting a reference
    /// machine.
    ///
    /// # Panics
    ///
    /// Panics if `lane >= 64 * W` or the site lies outside the tape.
    fn inject_fault(&mut self, tape: &CompiledTape, fault: &Fault, lane: usize) {
        assert!(lane < 64 * W, "lane {lane} out of range for W={W}");
        let mask = match fault.site {
            FaultSite::Stem(net) => &mut self.site(tape, net.index() as u32).stem,
            FaultSite::Pin { gate, pin } => match tape.entry_of_gate[gate.index()] {
                // Only flip-flops own no tape entry.
                u32::MAX => self.dff_pin_masks.entry(gate.index() as u32).or_default(),
                entry => {
                    let pins = &mut self.entry_faults.site(entry).pins;
                    let at = match pins.iter().position(|&(p, _)| p == pin) {
                        Some(at) => at,
                        None => {
                            pins.push((pin, WideMask::default()));
                            pins.len() - 1
                        }
                    };
                    &mut pins[at].1
                }
            },
        };
        mask.add(lane, fault.stuck_value);
    }

    /// Injects a gross transition-delay fault into lane `lane` — same
    /// semantics as
    /// [`Simulator::inject_transition_fault`](crate::Simulator::inject_transition_fault).
    ///
    /// # Panics
    ///
    /// Panics if `lane >= 64 * W` or the net lies outside the tape.
    fn inject_transition_fault(
        &mut self,
        tape: &CompiledTape,
        fault: &TransitionFault,
        lane: usize,
    ) {
        assert!(lane < 64 * W, "lane {lane} out of range for W={W}");
        let st = self
            .site(tape, fault.net.index() as u32)
            .transition
            .get_or_insert_default();
        let target = if fault.slow_to_rise {
            &mut st.rise
        } else {
            &mut st.fall
        };
        target[lane / 64] |= 1u64 << (lane % 64);
    }

    /// Propagates values through the combinational tape.
    ///
    /// Flip-flop outputs present their current state; call
    /// [`TapeSimulator::step`] afterwards to latch the next state.
    fn eval(&mut self, tape: &CompiledTape) {
        let LaneState {
            values,
            input_words,
            dff_state,
            entry_faults,
            source_faults,
            ..
        } = self;
        for (&ni, &word) in tape.input_nets.iter().zip(input_words.iter()) {
            store(values, ni, [word; W]);
        }
        for (&(q, _, _), &v) in tape.dff_nets.iter().zip(dff_state.iter()) {
            store(values, q, v);
        }
        for (ni, site) in source_faults.in_order() {
            let v = site.force(load(values, *ni));
            store(values, *ni, v);
        }
        // Fault-free runs between faulted entries take one micro-op and
        // one store per gate.
        let mut next = 0;
        for (e, site) in entry_faults.in_order() {
            let e = *e as usize;
            replay::<W>(&tape.pool, values, &tape.entries[next..e]);
            let TapeEntry { op, out } = tape.entries[e];
            let v = eval_op(&tape.pool, op, |pin, n| {
                site.pin_value(pin, load(values, n))
            });
            store(values, out, site.force(v));
            next = e + 1;
        }
        replay::<W>(&tape.pool, values, &tape.entries[next..]);
        self.events += tape.entries.len() as u64;
    }

    /// Latches flip-flop next-state (the value on each DFF's `d` pin,
    /// after any injected `d`-pin fault).
    ///
    /// Must be called after [`TapeSimulator::eval`] for the cycle.
    fn step(&mut self, tape: &CompiledTape) {
        for k in 0..tape.dff_nets.len() {
            let (_, d, gidx) = tape.dff_nets[k];
            let mut v = load(&self.values, d);
            if let Some(m) = self.dff_pin_masks.get(&gidx) {
                m.apply(&mut v);
            }
            self.dff_state[k] = v;
        }
    }
}

#[inline(always)]
fn load<const W: usize>(values: &[u64], idx: u32) -> [u64; W] {
    let base = idx as usize * W;
    values[base..base + W]
        .try_into()
        .expect("net value slice has exactly W words")
}

#[inline(always)]
fn store<const W: usize>(values: &mut [u64], idx: u32, v: [u64; W]) {
    let base = idx as usize * W;
    values[base..base + W].copy_from_slice(&v);
}

/// Evaluates fault-free `entries` in order.
#[inline(always)]
fn replay<const W: usize>(pool: &[u32], values: &mut [u64], entries: &[TapeEntry]) {
    for entry in entries {
        let v: [u64; W] = eval_op(pool, entry.op, |_, n| load(values, n));
        store(values, entry.out, v);
    }
}

/// `f` applied word by word.
#[inline(always)]
fn map<const W: usize>(f: impl Fn(usize) -> u64) -> [u64; W] {
    std::array::from_fn(f)
}

/// Evaluates `op`, reading the net on input pin `pin` as `load(pin, net)`.
#[inline(always)]
fn eval_op<const W: usize>(
    pool: &[u32],
    op: MicroOp,
    load: impl Fn(usize, u32) -> [u64; W],
) -> [u64; W] {
    // AND (`and`) or OR over an operand-pool range.
    let fold = |off: u32, len: u32, and: bool| {
        let mut acc = [if and { !0u64 } else { 0 }; W];
        for (pin, &n) in pool[off as usize..(off + len) as usize].iter().enumerate() {
            let v = load(pin, n);
            for w in 0..W {
                acc[w] = if and { acc[w] & v[w] } else { acc[w] | v[w] };
            }
        }
        acc
    };
    match op {
        MicroOp::Const0 => [0; W],
        MicroOp::Const1 => [!0; W],
        MicroOp::Copy { a } => load(0, a),
        MicroOp::NotOf { a } => {
            let va = load(0, a);
            map(|w| !va[w])
        }
        MicroOp::And2 { a, b } => {
            let (va, vb) = (load(0, a), load(1, b));
            map(|w| va[w] & vb[w])
        }
        MicroOp::Or2 { a, b } => {
            let (va, vb) = (load(0, a), load(1, b));
            map(|w| va[w] | vb[w])
        }
        MicroOp::Nand2 { a, b } => {
            let (va, vb) = (load(0, a), load(1, b));
            map(|w| !(va[w] & vb[w]))
        }
        MicroOp::Nor2 { a, b } => {
            let (va, vb) = (load(0, a), load(1, b));
            map(|w| !(va[w] | vb[w]))
        }
        MicroOp::Xor2 { a, b } => {
            let (va, vb) = (load(0, a), load(1, b));
            map(|w| va[w] ^ vb[w])
        }
        MicroOp::Xnor2 { a, b } => {
            let (va, vb) = (load(0, a), load(1, b));
            map(|w| !(va[w] ^ vb[w]))
        }
        MicroOp::Mux2 { s, a, b } => {
            let (vs, va, vb) = (load(0, s), load(1, a), load(2, b));
            map(|w| (va[w] & !vs[w]) | (vb[w] & vs[w]))
        }
        MicroOp::AndN { off, len } => fold(off, len, true),
        MicroOp::OrN { off, len } => fold(off, len, false),
        MicroOp::NandN { off, len } => {
            let v = fold(off, len, true);
            map(|w| !v[w])
        }
        MicroOp::NorN { off, len } => {
            let v = fold(off, len, false);
            map(|w| !v[w])
        }
    }
}
#[cfg(test)]
mod tests {
    use super::*;
    use crate::netlist::NetlistBuilder;
    use crate::sim::Simulator;

    /// A fanout-free not → and → or run feeding one output, plus a side
    /// branch keeping some fanout > 1.
    fn chain_netlist() -> Netlist {
        let mut b = NetlistBuilder::new("chain");
        let a = b.input("a");
        let c = b.input("b");
        let d = b.input("c");
        let n1 = b.not(a); // fanout 1 → collapsible
        let n2 = b.and2(n1, c); // fanout 1 → collapsible
        let n3 = b.or2(n2, d);
        let side = b.xor2(a, c); // `a` has fanout 2; side is a PO
        b.mark_output(n3, "o");
        b.mark_output(side, "s");
        b.finish().unwrap()
    }

    #[test]
    fn tape_matches_simulator_exhaustively() {
        let n = chain_netlist();
        let tape = CompiledTape::compile(&n);
        for pattern in 0..8u32 {
            let mut plain = Simulator::new(&n);
            let mut fast: TapeSimulator<_, 1> = TapeSimulator::new(&tape);
            for (k, &inp) in n.inputs().iter().enumerate() {
                let bit = pattern >> k & 1 == 1;
                plain.set_input(inp, bit);
                fast.set_input(inp, bit);
            }
            plain.eval();
            fast.eval();
            for &o in n.outputs() {
                assert_eq!(plain.value(o), fast.value(o)[0], "pattern {pattern}");
            }
        }
    }

    /// The tape lane each [`Simulator`] lane `k` mirrors: lane 0 is the
    /// reference; the others spread over every word of a `W`-word tape.
    fn mirrored_lane<const W: usize>(k: usize) -> usize {
        if k == 0 {
            0
        } else {
            (k * 37) % (64 * W - 1) + 1
        }
    }

    /// Injections agree with [`Simulator`] on every net, cycle by cycle:
    /// one gate carries a stem, a pin and a transition fault in three
    /// lanes; a primary input and a flip-flop output each carry a stem
    /// fault; then every fault is cleared and re-injected into other
    /// lanes, as a repack does.
    fn check_injections<const W: usize>() {
        let mut b = NetlistBuilder::new("sites");
        let a = b.input("a");
        let c = b.input("b");
        let d = b.input("c");
        let n1 = b.not(a);
        let g = b.and2(n1, c);
        let q = b.dff(d);
        let o = b.or2(g, q);
        let x = b.xor2(o, d);
        let q2 = b.dff(x);
        b.mark_output(o, "o");
        b.mark_output(x, "x");
        b.mark_output(q2, "q2");
        let n = b.finish().unwrap();
        let and_gate = n.driver(g).unwrap();
        let stuck = [
            Fault::stem_sa1(g),
            Fault {
                site: FaultSite::Pin {
                    gate: and_gate,
                    pin: 1,
                },
                stuck_value: false,
            },
            Fault::stem_sa0(a),
            Fault::stem_sa1(q),
        ];
        let slow = TransitionFault::slow_to_rise(g);
        let tape = CompiledTape::compile(&n);
        let mut plain = Simulator::new(&n);
        let mut fast: TapeSimulator<_, W> = TapeSimulator::new(&tape);
        // Simulator lanes 1..=5 first, then 6..=10 after the repack.
        let inject = |plain: &mut Simulator, fast: &mut TapeSimulator<_, W>, first: usize| {
            for (k, fault) in stuck.iter().enumerate() {
                let lane = first + k + usize::from(k > 0);
                plain.inject_fault(fault, 1 << lane);
                fast.inject_fault(fault, mirrored_lane::<W>(lane));
            }
            plain.inject_transition_fault(&slow, 1 << (first + 1));
            fast.inject_transition_fault(&slow, mirrored_lane::<W>(first + 1));
        };
        inject(&mut plain, &mut fast, 1);
        let patterns = [0u32, 2, 7, 7, 1, 6, 5, 3, 0, 7, 2, 4];
        for (cycle, &pattern) in patterns.iter().enumerate() {
            if cycle == patterns.len() / 2 {
                plain.clear_faults();
                fast.clear_faults();
                inject(&mut plain, &mut fast, 6);
            }
            for (k, &inp) in n.inputs().iter().enumerate() {
                let bit = pattern >> k & 1 == 1;
                plain.set_input(inp, bit);
                fast.set_input(inp, bit);
            }
            plain.eval();
            fast.eval();
            for idx in 0..n.net_count() {
                let net = NetId::from_index(idx);
                let (want, got) = (plain.value(net), fast.value(net));
                for k in 0..64 {
                    let lane = mirrored_lane::<W>(k);
                    assert_eq!(
                        want >> k & 1,
                        got[lane / 64] >> (lane % 64) & 1,
                        "W={W} cycle {cycle} net {net} lane {k}"
                    );
                }
            }
            plain.step();
            fast.step();
        }
    }

    #[test]
    fn injections_match_simulator_across_clear_and_reinject() {
        check_injections::<1>();
        check_injections::<4>();
    }

    #[test]
    fn wide_lanes_fault_in_high_word() {
        // Inject into lane 130 (word 2) and check only that lane flips.
        let n = chain_netlist();
        let tape = CompiledTape::compile(&n);
        let fault = Fault::stem_sa0(n.outputs()[0]);
        let mut sim: TapeSimulator<_, 4> = TapeSimulator::new(&tape);
        sim.inject_fault(&fault, 130);
        for &inp in n.inputs() {
            sim.set_input(inp, true);
        }
        sim.eval();
        let v = sim.value(n.outputs()[0]);
        // Fault-free value is 1 everywhere; lane 130 is stuck at 0.
        assert_eq!(v[0], !0);
        assert_eq!(v[1], !0);
        assert_eq!(v[2], !(1u64 << 2));
        assert_eq!(v[3], !0);
    }

    #[test]
    fn sequential_state_latches_like_simulator() {
        let mut b = NetlistBuilder::new("seq");
        let d = b.input("d");
        let q1 = b.dff(d);
        let q2 = b.dff(q1);
        let o = b.xor2(q1, q2);
        b.mark_output(o, "o");
        let n = b.finish().unwrap();
        let tape = CompiledTape::compile(&n);
        let mut plain = Simulator::new(&n);
        let mut fast: TapeSimulator<_, 2> = TapeSimulator::new(&tape);
        let seq = [true, false, true, true, false, false, true];
        for &bit in &seq {
            plain.set_input(n.inputs()[0], bit);
            fast.set_input(n.inputs()[0], bit);
            plain.eval();
            fast.eval();
            assert_eq!(plain.value(n.outputs()[0]), fast.value(n.outputs()[0])[0]);
            assert_eq!(fast.value(n.outputs()[0])[0], fast.value(n.outputs()[0])[1]);
            plain.step();
            fast.step();
        }
    }

    #[test]
    fn transition_faults_match_simulator_on_every_net() {
        // Every net carries a transition fault; drive a value sequence and
        // compare observable nets against the full-eval oracle each cycle.
        let n = chain_netlist();
        let tape = CompiledTape::compile(&n);
        let faults = crate::fault::enumerate_transition_faults(&n);
        let mut plain = Simulator::new(&n);
        let mut fast: TapeSimulator<_, 1> = TapeSimulator::new(&tape);
        for (i, f) in faults.iter().enumerate() {
            let lane = 1 + (i % 63);
            plain.inject_transition_fault(f, 1u64 << lane);
            fast.inject_transition_fault(f, lane);
        }
        for pattern in [0u32, 7, 1, 6, 2, 2, 5, 0, 3, 4, 7, 0] {
            for (k, &inp) in n.inputs().iter().enumerate() {
                let bit = pattern >> k & 1 == 1;
                plain.set_input(inp, bit);
                fast.set_input(inp, bit);
            }
            plain.eval();
            fast.eval();
            for &o in n.outputs() {
                assert_eq!(plain.value(o), fast.value(o)[0], "pattern {pattern}");
            }
        }
    }

    #[test]
    fn sequential_transition_faults_latch_like_simulator() {
        let mut b = NetlistBuilder::new("seq");
        let d = b.input("d");
        let q1 = b.dff(d);
        let q2 = b.dff(q1);
        let o = b.xor2(q1, q2);
        b.mark_output(o, "o");
        let n = b.finish().unwrap();
        let tape = CompiledTape::compile(&n);
        let mut plain = Simulator::new(&n);
        let mut fast: TapeSimulator<_, 2> = TapeSimulator::new(&tape);
        for (i, f) in crate::fault::enumerate_transition_faults(&n)
            .iter()
            .enumerate()
        {
            // Spread across both lane words; mirror into the narrow sim's
            // 64 lanes only when the lane fits.
            let lane = 1 + (i % 63);
            plain.inject_transition_fault(f, 1u64 << lane);
            fast.inject_transition_fault(f, lane);
        }
        for &bit in &[false, true, true, false, true, false, false, true, true] {
            plain.set_input(n.inputs()[0], bit);
            fast.set_input(n.inputs()[0], bit);
            plain.eval();
            fast.eval();
            for idx in 0..n.net_count() {
                let net = NetId::from_index(idx);
                assert_eq!(plain.value(net), fast.value(net)[0], "net {net}");
            }
            plain.step();
            fast.step();
        }
    }

    #[test]
    fn transition_reset_disarms_wide_lanes() {
        let n = chain_netlist();
        let tape = CompiledTape::compile(&n);
        let fault = TransitionFault::slow_to_fall(n.inputs()[0]);
        let mut sim: TapeSimulator<_, 4> = TapeSimulator::new(&tape);
        sim.inject_transition_fault(&fault, 200); // word 3
        for &inp in n.inputs() {
            sim.set_input(inp, true);
        }
        sim.eval(); // records prev=1 in all lanes
        sim.set_input(n.inputs()[0], false);
        sim.eval(); // lane 200 holds the stale 1
        assert_eq!(sim.value(n.inputs()[0])[3], 1u64 << (200 - 192));
        sim.reset();
        sim.eval(); // disarmed: no lane forced
        assert_eq!(sim.value(n.inputs()[0])[3], 0);
    }

    #[test]
    fn events_equal_full_eval_baseline() {
        let n = chain_netlist();
        let tape = CompiledTape::compile(&n);
        let mut sim: TapeSimulator<_, 1> = TapeSimulator::new(&tape);
        for _ in 0..5 {
            sim.eval();
            sim.step();
        }
        assert_eq!(sim.events(), 5 * n.comb_order().len() as u64);
    }
}
