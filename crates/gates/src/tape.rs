//! Compiled-tape logic simulation: the netlist is levelized once and
//! flattened into a branch-minimal evaluation tape that a tight inner loop
//! replays every cycle.
//!
//! Two classic compiled-simulation moves are combined here:
//!
//! 1. **Tape compilation** ([`CompiledTape`]): the topologically ordered
//!    combinational gates become a flat array of tape entries whose
//!    operands are precomputed net indices into a structure-of-arrays
//!    value store — no per-gate `HashMap` probes, no per-gate operand
//!    `Vec`s, no pointer chasing through [`crate::Gate`] structs on the
//!    hot path. Fanout-free gate chains (each interior net feeding exactly
//!    one pin, unobserved, and not latched) are collapsed into a *single*
//!    tape entry whose micro-ops stream through an accumulator held in
//!    registers, eliminating the interior loads and stores entirely.
//! 2. **Wide lanes** ([`TapeSimulator`]): every net value is `W` 64-bit
//!    words instead of one, so a `W = 4` pass simulates 256 independent
//!    machines — one fault-free reference plus up to 255 faulty ones —
//!    and the `[u64; W]` logic ops auto-vectorize.
//!
//! Fault injection is precomputed off the hot path: stem faults on an
//! entry's final output apply a wide stuck-at mask after the accumulator
//! is produced, while faults *inside* a collapsed chain (interior stems or
//! gate input pins) flip that one entry into a gate-by-gate "expanded"
//! evaluation that reproduces [`crate::Simulator`] semantics exactly. All
//! other entries keep the fast path, so a 255-fault batch expands only the
//! handful of entries its faults actually touch.

use std::collections::HashMap;
use std::ops::Deref;

use crate::fault::{Fault, FaultSite, TransitionFault};
use crate::gate::{GateId, GateKind};
use crate::net::NetId;
use crate::netlist::Netlist;
use crate::sim::hold_armed_lanes;

/// Maximum number of 64-bit lane words a [`TapeSimulator`] supports; the
/// fault simulator's compiled engine runs at this width (256 lanes).
pub const MAX_LANE_WORDS: usize = 4;

/// A micro-operation inside a tape entry. The first micro-op of an entry
/// *initializes* the accumulator; each subsequent one folds the
/// accumulator into the next gate of a collapsed chain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MicroOp {
    // --- head ops: acc := f(externals) ---
    /// `acc = 0`.
    Const0,
    /// `acc = !0`.
    Const1,
    /// `acc = v[a]`.
    Copy { a: u32 },
    /// `acc = !v[a]`.
    NotOf { a: u32 },
    /// `acc = v[a] & v[b]`.
    And2 { a: u32, b: u32 },
    /// `acc = v[a] | v[b]`.
    Or2 { a: u32, b: u32 },
    /// `acc = !(v[a] & v[b])`.
    Nand2 { a: u32, b: u32 },
    /// `acc = !(v[a] | v[b])`.
    Nor2 { a: u32, b: u32 },
    /// `acc = v[a] ^ v[b]`.
    Xor2 { a: u32, b: u32 },
    /// `acc = !(v[a] ^ v[b])`.
    Xnor2 { a: u32, b: u32 },
    /// `acc = mux(sel=v[s], d0=v[a], d1=v[b])`.
    Mux2 { s: u32, a: u32, b: u32 },
    /// `acc = AND over operand-pool range`.
    AndN { off: u32, len: u32 },
    /// `acc = OR over operand-pool range`.
    OrN { off: u32, len: u32 },
    /// `acc = !(AND over operand-pool range)`.
    NandN { off: u32, len: u32 },
    /// `acc = !(OR over operand-pool range)`.
    NorN { off: u32, len: u32 },
    // --- chained ops: acc := f(acc, externals) ---
    /// `acc = acc` (a chained buffer).
    CBuf,
    /// `acc = !acc`.
    CNot,
    /// `acc = acc & v[a]`.
    CAnd { a: u32 },
    /// `acc = acc | v[a]`.
    COr { a: u32 },
    /// `acc = !(acc & v[a])`.
    CNand { a: u32 },
    /// `acc = !(acc | v[a])`.
    CNor { a: u32 },
    /// `acc = acc ^ v[a]`.
    CXor { a: u32 },
    /// `acc = !(acc ^ v[a])`.
    CXnor { a: u32 },
    /// `acc = acc & (AND over pool range)`.
    CAndN { off: u32, len: u32 },
    /// `acc = acc | (OR over pool range)`.
    COrN { off: u32, len: u32 },
    /// `acc = !(acc & (AND over pool range))`.
    CNandN { off: u32, len: u32 },
    /// `acc = !(acc | (OR over pool range))`.
    CNorN { off: u32, len: u32 },
    /// `acc = mux(sel=acc, d0=v[a], d1=v[b])`.
    CMuxSel { a: u32, b: u32 },
    /// `acc = mux(sel=v[s], d0=acc, d1=v[b])`.
    CMuxD0 { s: u32, b: u32 },
    /// `acc = mux(sel=v[s], d0=v[a], d1=acc)`.
    CMuxD1 { s: u32, a: u32 },
}

/// One tape entry: a (possibly collapsed) run of gates producing one final
/// output net.
#[derive(Debug, Clone, Copy)]
struct TapeEntry {
    /// Net index written by this entry (the final gate's output).
    out: u32,
    /// Range of micro-ops in [`CompiledTape::mops`] — one per folded
    /// gate, in evaluation order (length 1 for an uncollapsed gate).
    start: u32,
    len: u16,
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
    entries: Vec<TapeEntry>,
    mops: Vec<MicroOp>,
    /// Operand pool for n-ary micro-ops (net indices).
    pool: Vec<u32>,
    /// Output net of the gate behind each micro-op, parallel to `mops`:
    /// the expanded path materializes chain-interior nets.
    gate_outs: Vec<u32>,
    /// Pin of the gate behind each chained micro-op that reads the
    /// accumulator (0 for head micro-ops), parallel to `mops`.
    acc_pins: Vec<u8>,
    /// Gate index → position of its micro-op (`u32::MAX` for DFFs).
    mop_of_gate: Vec<u32>,
    /// Net index → tape-entry index of its combinational driver
    /// (`u32::MAX` for primary inputs and flip-flop outputs).
    entry_of_net: Vec<u32>,
    /// Primary-input net indices (parallel to `netlist.inputs()`).
    input_nets: Vec<u32>,
    /// Per-DFF `(q net, d net, gate index)` (parallel to
    /// `netlist.dff_gates()`).
    dff_nets: Vec<(u32, u32, u32)>,
    comb_gate_count: u64,
}

impl CompiledTape {
    /// Compiles `netlist` into an evaluation tape, collapsing fanout-free
    /// gate chains.
    ///
    /// A gate `p` is folded into its consumer `c` when `p`'s output net
    /// drives exactly one pin in the whole netlist (`fanout == 1`), that
    /// pin belongs to a combinational gate, and the net is not a primary
    /// output — so the interior value is observable nowhere and latched
    /// nowhere. Entries are emitted in the topological order of each
    /// chain's *final* gate, which keeps every external operand defined
    /// before use (externals are always final outputs of earlier entries,
    /// primary inputs, or flip-flop state).
    pub fn compile(netlist: &Netlist) -> Self {
        let is_output: std::collections::HashSet<u32> =
            netlist.outputs().iter().map(|n| n.index() as u32).collect();

        // Chain linking: next[g] = consumer that absorbs g's output.
        let n_gates = netlist.gate_count();
        let mut next: Vec<Option<GateId>> = vec![None; n_gates];
        let mut prev: Vec<Option<GateId>> = vec![None; n_gates];
        for &gid in netlist.comb_order() {
            let out = netlist.gate(gid).output;
            if netlist.fanout(out) != 1 || is_output.contains(&(out.index() as u32)) {
                continue;
            }
            let users = netlist.comb_users(out);
            if users.len() != 1 {
                // The single pin connection is a DFF `d` input.
                continue;
            }
            let user = users[0];
            // A gate folds at most one producer into its accumulator; when
            // several fanout-free producers feed the same consumer, the
            // first one (in topological order) wins and the rest stay
            // chain terminals of their own entries.
            if prev[user.index()].is_none() {
                next[gid.index()] = Some(user);
                prev[user.index()] = Some(gid);
            }
        }

        // Shared tapes stay alive for a whole fault campaign, so every
        // array is allocated at its exact final size: one entry per chain
        // terminal, one micro-op per combinational gate.
        let comb = netlist.comb_order();
        let n_entries = comb.iter().filter(|g| next[g.index()].is_none()).count();
        let mut tape = CompiledTape {
            net_count: netlist.net_count(),
            entries: Vec::with_capacity(n_entries),
            mops: Vec::with_capacity(comb.len()),
            pool: Vec::new(),
            gate_outs: Vec::with_capacity(comb.len()),
            acc_pins: Vec::with_capacity(comb.len()),
            mop_of_gate: vec![u32::MAX; n_gates],
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
            comb_gate_count: comb.len() as u64,
        };

        // Emit one entry per chain, at the tape position of its final gate.
        let mut chain = Vec::new();
        for &fin in comb {
            if next[fin.index()].is_some() {
                continue; // absorbed into a later gate's entry
            }
            chain.clear();
            chain.push(fin);
            let mut cur = fin;
            while let Some(p) = prev[cur.index()] {
                chain.push(p);
                cur = p;
            }
            chain.reverse();
            tape.push_entry(netlist, &chain);
        }
        tape.pool.shrink_to_fit();
        tape
    }

    /// Builds the micro-op sequence for one chain and records the entry.
    fn push_entry(&mut self, netlist: &Netlist, chain: &[GateId]) {
        let entry_index = self.entries.len() as u32;
        let start = self.mops.len() as u32;
        for (pos, &gid) in chain.iter().enumerate() {
            let gate = netlist.gate(gid);
            let idx = |k: usize| gate.inputs[k].index() as u32;
            let (mop, acc_pin) = if pos == 0 {
                let mop = match gate.kind {
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
                            let (off, len) =
                                self.pool_push(gate.inputs.iter().map(|n| n.index() as u32));
                            match gate.kind {
                                GateKind::And => MicroOp::AndN { off, len },
                                GateKind::Or => MicroOp::OrN { off, len },
                                GateKind::Nand => MicroOp::NandN { off, len },
                                _ => MicroOp::NorN { off, len },
                            }
                        }
                    }
                    GateKind::Dff => unreachable!("DFFs never appear in comb_order"),
                };
                (mop, 0)
            } else {
                // The previous chain gate's output feeds exactly one pin.
                let prev_out = netlist.gate(chain[pos - 1]).output;
                let acc_pin = gate
                    .inputs
                    .iter()
                    .position(|&n| n == prev_out)
                    .expect("chained gate consumes its producer");
                let mop = match gate.kind {
                    GateKind::Buf => MicroOp::CBuf,
                    GateKind::Not => MicroOp::CNot,
                    GateKind::Xor => MicroOp::CXor {
                        a: idx(1 - acc_pin),
                    },
                    GateKind::Xnor => MicroOp::CXnor {
                        a: idx(1 - acc_pin),
                    },
                    GateKind::Mux2 => match acc_pin {
                        0 => MicroOp::CMuxSel {
                            a: idx(1),
                            b: idx(2),
                        },
                        1 => MicroOp::CMuxD0 {
                            s: idx(0),
                            b: idx(2),
                        },
                        _ => MicroOp::CMuxD1 {
                            s: idx(0),
                            a: idx(1),
                        },
                    },
                    GateKind::And | GateKind::Or | GateKind::Nand | GateKind::Nor => {
                        if gate.inputs.len() == 2 {
                            let a = idx(1 - acc_pin);
                            match gate.kind {
                                GateKind::And => MicroOp::CAnd { a },
                                GateKind::Or => MicroOp::COr { a },
                                GateKind::Nand => MicroOp::CNand { a },
                                _ => MicroOp::CNor { a },
                            }
                        } else {
                            let (off, len) = self.pool_push(
                                gate.inputs
                                    .iter()
                                    .enumerate()
                                    .filter(|&(k, _)| k != acc_pin)
                                    .map(|(_, n)| n.index() as u32),
                            );
                            match gate.kind {
                                GateKind::And => MicroOp::CAndN { off, len },
                                GateKind::Or => MicroOp::COrN { off, len },
                                GateKind::Nand => MicroOp::CNandN { off, len },
                                _ => MicroOp::CNorN { off, len },
                            }
                        }
                    }
                    GateKind::Const0 | GateKind::Const1 | GateKind::Dff => {
                        unreachable!("constants have no inputs and DFFs are not combinational")
                    }
                };
                (mop, acc_pin)
            };
            self.mop_of_gate[gid.index()] = self.mops.len() as u32;
            self.mops.push(mop);
            self.gate_outs.push(gate.output.index() as u32);
            self.acc_pins
                .push(u8::try_from(acc_pin).expect("fault pins are u8, so fan-in fits u8"));
            self.entry_of_net[gate.output.index()] = entry_index;
        }
        self.entries.push(TapeEntry {
            out: netlist.gate(chain[chain.len() - 1]).output.index() as u32,
            start,
            len: u16::try_from(chain.len()).expect("chain fits u16"),
        });
    }

    fn pool_push(&mut self, items: impl Iterator<Item = u32>) -> (u32, u32) {
        let off = self.pool.len() as u32;
        self.pool.extend(items);
        (off, self.pool.len() as u32 - off)
    }

    /// Index of the entry holding micro-op `pos`.
    fn entry_of_mop(&self, pos: u32) -> usize {
        self.entries.partition_point(|e| e.start <= pos) - 1
    }

    /// The kind of the gate behind micro-op `pos`, with its input nets in
    /// pin order written to `pins` — a folded gate recovered from its
    /// micro-op for the expanded path. The pin that reads the accumulator
    /// gets the previous folded gate's output net.
    fn gate_pins(&self, pos: usize, pins: &mut Vec<u32>) -> GateKind {
        use GateKind as K;
        pins.clear();
        let pool = |off: u32, len: u32| &self.pool[off as usize..(off + len) as usize];
        let mut with = |kind, operands: &[u32]| {
            pins.extend_from_slice(operands);
            kind
        };
        // Head micro-ops carry every operand in pin order; chained ones
        // carry the externals, and the accumulator pin is inserted below.
        let (kind, chained) = match self.mops[pos] {
            MicroOp::Const0 => (K::Const0, false),
            MicroOp::Const1 => (K::Const1, false),
            MicroOp::Copy { a } => (with(K::Buf, &[a]), false),
            MicroOp::NotOf { a } => (with(K::Not, &[a]), false),
            MicroOp::And2 { a, b } => (with(K::And, &[a, b]), false),
            MicroOp::Or2 { a, b } => (with(K::Or, &[a, b]), false),
            MicroOp::Nand2 { a, b } => (with(K::Nand, &[a, b]), false),
            MicroOp::Nor2 { a, b } => (with(K::Nor, &[a, b]), false),
            MicroOp::Xor2 { a, b } => (with(K::Xor, &[a, b]), false),
            MicroOp::Xnor2 { a, b } => (with(K::Xnor, &[a, b]), false),
            MicroOp::Mux2 { s, a, b } => (with(K::Mux2, &[s, a, b]), false),
            MicroOp::AndN { off, len } => (with(K::And, pool(off, len)), false),
            MicroOp::OrN { off, len } => (with(K::Or, pool(off, len)), false),
            MicroOp::NandN { off, len } => (with(K::Nand, pool(off, len)), false),
            MicroOp::NorN { off, len } => (with(K::Nor, pool(off, len)), false),
            MicroOp::CBuf => (K::Buf, true),
            MicroOp::CNot => (K::Not, true),
            MicroOp::CAnd { a } => (with(K::And, &[a]), true),
            MicroOp::COr { a } => (with(K::Or, &[a]), true),
            MicroOp::CNand { a } => (with(K::Nand, &[a]), true),
            MicroOp::CNor { a } => (with(K::Nor, &[a]), true),
            MicroOp::CXor { a } => (with(K::Xor, &[a]), true),
            MicroOp::CXnor { a } => (with(K::Xnor, &[a]), true),
            MicroOp::CAndN { off, len } => (with(K::And, pool(off, len)), true),
            MicroOp::COrN { off, len } => (with(K::Or, pool(off, len)), true),
            MicroOp::CNandN { off, len } => (with(K::Nand, pool(off, len)), true),
            MicroOp::CNorN { off, len } => (with(K::Nor, pool(off, len)), true),
            MicroOp::CMuxSel { a, b } => (with(K::Mux2, &[a, b]), true),
            MicroOp::CMuxD0 { s, b } => (with(K::Mux2, &[s, b]), true),
            MicroOp::CMuxD1 { s, a } => (with(K::Mux2, &[s, a]), true),
        };
        if chained {
            pins.insert(self.acc_pins[pos] as usize, self.gate_outs[pos - 1]);
        }
        kind
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

    /// Number of tape entries (evaluation steps per cycle).
    pub fn tape_len(&self) -> usize {
        self.entries.len()
    }

    /// Number of gates folded into a predecessor's entry — the difference
    /// between the combinational gate count and [`CompiledTape::tape_len`].
    pub fn chains_collapsed(&self) -> usize {
        self.comb_gate_count as usize - self.entries.len()
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
    ///
    /// Note: nets interior to a collapsed chain carry stale values unless
    /// the owning entry was expanded by a fault — by construction they are
    /// neither primary outputs nor flip-flop inputs, so nothing in the
    /// fault-simulation flow observes them.
    #[inline]
    pub fn value(&self, net: NetId) -> [u64; W] {
        self.state.load(net.index() as u32)
    }

    /// Gate-evaluation events performed so far: each tape replay counts
    /// every source gate (collapsed or not) once, so the compiled engine's
    /// event count equals the full-eval baseline of `cycles × gates`.
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
            .transition_states
            .get(&(net.index() as u32))
            .map_or([0; W], |st| st.prev)
    }

    /// Sets the arming words of `net` and marks the machine primed, as if
    /// it had already evaluated: how a machine resumes a transition
    /// fault's launch state mid-stimulus.
    pub(crate) fn set_transition_prev(&mut self, net: NetId, words: [u64; W]) {
        let st = self
            .state
            .transition_states
            .entry(net.index() as u32)
            .or_default();
        st.prev = words;
        st.seen = true;
        self.state.transition_primed = true;
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
    /// Nets carrying a stem fault (fast membership test on the hot path).
    stem_flagged: Vec<bool>,
    stem_masks: HashMap<u32, WideMask<W>>,
    /// Entries needing gate-by-gate evaluation (chain-interior faults or
    /// pin faults).
    expanded: Vec<bool>,
    /// Pin faults keyed by `(micro-op position, pin)`.
    pin_masks: HashMap<(u32, u8), WideMask<W>>,
    /// DFF indices with a faulty `d` pin.
    dff_pin_masks: HashMap<u32, WideMask<W>>,
    /// Nets carrying a transition fault (fast membership on the hot path).
    transition_flagged: Vec<bool>,
    transition_states: HashMap<u32, TransitionState<W>>,
    /// False until the first eval records arming state.
    transition_primed: bool,
    events: u64,
    /// Scratch of the expanded path: one gate's input nets and values.
    pins: Vec<u32>,
    in_buf: Vec<[u64; W]>,
}

impl<const W: usize> LaneState<W> {
    fn new(tape: &CompiledTape) -> Self {
        LaneState {
            values: vec![0; tape.net_count * W],
            input_words: vec![0; tape.input_nets.len()],
            dff_state: vec![[0; W]; tape.dff_nets.len()],
            stem_flagged: vec![false; tape.net_count],
            stem_masks: HashMap::new(),
            expanded: vec![false; tape.entries.len()],
            pin_masks: HashMap::new(),
            dff_pin_masks: HashMap::new(),
            transition_flagged: vec![false; tape.net_count],
            transition_states: HashMap::new(),
            transition_primed: false,
            events: 0,
            pins: Vec::new(),
            in_buf: Vec::new(),
        }
    }

    /// Resets all flip-flops to 0 and disarms transition faults (inputs
    /// and injections are kept).
    fn reset(&mut self) {
        self.dff_state.fill([0; W]);
        for st in self.transition_states.values_mut() {
            st.prev = [0; W];
            st.seen = false;
        }
        self.transition_primed = false;
    }

    /// Removes all injected faults.
    fn clear_faults(&mut self) {
        self.stem_flagged.fill(false);
        self.stem_masks.clear();
        self.expanded.fill(false);
        self.pin_masks.clear();
        self.dff_pin_masks.clear();
        self.transition_flagged.fill(false);
        self.transition_states.clear();
        self.transition_primed = false;
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
        match fault.site {
            FaultSite::Stem(net) => {
                let ni = net.index() as u32;
                self.stem_flagged[net.index()] = true;
                self.stem_masks
                    .entry(ni)
                    .or_default()
                    .add(lane, fault.stuck_value);
                // A stem inside a collapsed chain is invisible to the fast
                // path; expand the owning entry.
                self.expand_interior(tape, ni);
            }
            FaultSite::Pin { gate, pin } => {
                let pos = tape.mop_of_gate[gate.index()];
                if pos == u32::MAX {
                    // Only flip-flops own no micro-op.
                    self.dff_pin_masks
                        .entry(gate.index() as u32)
                        .or_default()
                        .add(lane, fault.stuck_value);
                } else {
                    self.pin_masks
                        .entry((pos, pin))
                        .or_default()
                        .add(lane, fault.stuck_value);
                    self.expanded[tape.entry_of_mop(pos)] = true;
                }
            }
        }
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
        let ni = fault.net.index() as u32;
        self.transition_flagged[fault.net.index()] = true;
        let st = self.transition_states.entry(ni).or_default();
        let target = if fault.slow_to_rise {
            &mut st.rise
        } else {
            &mut st.fall
        };
        target[lane / 64] |= 1u64 << (lane % 64);
        // A transition site inside a collapsed chain is invisible to the
        // fast path; expand the owning entry so the interior value is
        // materialized, armed and forced gate by gate.
        self.expand_interior(tape, ni);
    }

    /// Expands the entry owning net `ni` when the net is interior to its
    /// collapsed chain (driven by a combinational gate, but not the
    /// entry's final output).
    fn expand_interior(&mut self, tape: &CompiledTape, ni: u32) {
        let e = tape.entry_of_net[ni as usize];
        if e != u32::MAX && tape.entries[e as usize].out != ni {
            self.expanded[e as usize] = true;
        }
    }

    /// Applies transition-delay forcing to a freshly computed value of net
    /// `ni`, updating the arming state with the computed value. Caller
    /// checks `transition_flagged` first.
    #[inline]
    fn apply_transition(&mut self, ni: u32, v: &mut [u64; W]) {
        let primed = self.transition_primed;
        let st = self
            .transition_states
            .get_mut(&ni)
            .expect("flagged net has transition state");
        let prev = st.prev;
        let had_prev = st.seen;
        st.prev = *v;
        st.seen = true;
        if !primed || !had_prev {
            return;
        }
        for w in 0..W {
            v[w] = hold_armed_lanes(v[w], st.rise[w], st.fall[w], prev[w]);
        }
    }

    #[inline(always)]
    fn load(&self, idx: u32) -> [u64; W] {
        let base = idx as usize * W;
        let words: &[u64; W] = self.values[base..base + W]
            .try_into()
            .expect("net value slice has exactly W words");
        *words
    }

    #[inline(always)]
    fn store(&mut self, idx: u32, v: [u64; W]) {
        let base = idx as usize * W;
        self.values[base..base + W].copy_from_slice(&v);
    }

    #[inline(always)]
    fn pool_fold(&self, tape: &CompiledTape, off: u32, len: u32, and: bool) -> [u64; W] {
        let mut acc = if and { [!0u64; W] } else { [0u64; W] };
        for &idx in &tape.pool[off as usize..(off + len) as usize] {
            let v = self.load(idx);
            for w in 0..W {
                if and {
                    acc[w] &= v[w];
                } else {
                    acc[w] |= v[w];
                }
            }
        }
        acc
    }

    /// Propagates values through the combinational tape.
    ///
    /// Flip-flop outputs present their current state; call
    /// [`TapeSimulator::step`] afterwards to latch the next state.
    fn eval(&mut self, tape: &CompiledTape) {
        let transitions = !self.transition_states.is_empty();
        // Load primary inputs (stem faults on PIs apply here).
        for pos in 0..tape.input_nets.len() {
            let ni = tape.input_nets[pos];
            let mut v = [self.input_words[pos]; W];
            if self.stem_flagged[ni as usize] {
                self.stem_masks[&ni].apply(&mut v);
            }
            if transitions && self.transition_flagged[ni as usize] {
                self.apply_transition(ni, &mut v);
            }
            self.store(ni, v);
        }
        // Present DFF state on Q nets (stem faults on Q apply here).
        for k in 0..tape.dff_nets.len() {
            let (q, _, _) = tape.dff_nets[k];
            let mut v = self.dff_state[k];
            if self.stem_flagged[q as usize] {
                self.stem_masks[&q].apply(&mut v);
            }
            if transitions && self.transition_flagged[q as usize] {
                self.apply_transition(q, &mut v);
            }
            self.store(q, v);
        }
        // Replay the tape.
        for e in 0..tape.entries.len() {
            let entry = tape.entries[e];
            if self.expanded[e] {
                self.eval_expanded(tape, entry);
                continue;
            }
            let mops = &tape.mops[entry.start as usize..entry.start as usize + entry.len as usize];
            let mut acc = [0u64; W];
            for &mop in mops {
                acc = self.apply_mop(tape, mop, acc);
            }
            if self.stem_flagged[entry.out as usize] {
                self.stem_masks[&entry.out].apply(&mut acc);
            }
            if transitions && self.transition_flagged[entry.out as usize] {
                self.apply_transition(entry.out, &mut acc);
            }
            self.store(entry.out, acc);
        }
        if transitions {
            self.transition_primed = true;
        }
        self.events += tape.comb_gate_count;
    }

    #[inline(always)]
    fn apply_mop(&self, tape: &CompiledTape, mop: MicroOp, acc: [u64; W]) -> [u64; W] {
        let mut out = [0u64; W];
        match mop {
            MicroOp::Const0 => {}
            MicroOp::Const1 => out = [!0; W],
            MicroOp::Copy { a } => out = self.load(a),
            MicroOp::NotOf { a } => {
                let va = self.load(a);
                for w in 0..W {
                    out[w] = !va[w];
                }
            }
            MicroOp::And2 { a, b } => {
                let (va, vb) = (self.load(a), self.load(b));
                for w in 0..W {
                    out[w] = va[w] & vb[w];
                }
            }
            MicroOp::Or2 { a, b } => {
                let (va, vb) = (self.load(a), self.load(b));
                for w in 0..W {
                    out[w] = va[w] | vb[w];
                }
            }
            MicroOp::Nand2 { a, b } => {
                let (va, vb) = (self.load(a), self.load(b));
                for w in 0..W {
                    out[w] = !(va[w] & vb[w]);
                }
            }
            MicroOp::Nor2 { a, b } => {
                let (va, vb) = (self.load(a), self.load(b));
                for w in 0..W {
                    out[w] = !(va[w] | vb[w]);
                }
            }
            MicroOp::Xor2 { a, b } => {
                let (va, vb) = (self.load(a), self.load(b));
                for w in 0..W {
                    out[w] = va[w] ^ vb[w];
                }
            }
            MicroOp::Xnor2 { a, b } => {
                let (va, vb) = (self.load(a), self.load(b));
                for w in 0..W {
                    out[w] = !(va[w] ^ vb[w]);
                }
            }
            MicroOp::Mux2 { s, a, b } => {
                let (vs, va, vb) = (self.load(s), self.load(a), self.load(b));
                for w in 0..W {
                    out[w] = (va[w] & !vs[w]) | (vb[w] & vs[w]);
                }
            }
            MicroOp::AndN { off, len } => out = self.pool_fold(tape, off, len, true),
            MicroOp::OrN { off, len } => out = self.pool_fold(tape, off, len, false),
            MicroOp::NandN { off, len } => {
                out = self.pool_fold(tape, off, len, true);
                for w in out.iter_mut() {
                    *w = !*w;
                }
            }
            MicroOp::NorN { off, len } => {
                out = self.pool_fold(tape, off, len, false);
                for w in out.iter_mut() {
                    *w = !*w;
                }
            }
            MicroOp::CBuf => out = acc,
            MicroOp::CNot => {
                for w in 0..W {
                    out[w] = !acc[w];
                }
            }
            MicroOp::CAnd { a } => {
                let va = self.load(a);
                for w in 0..W {
                    out[w] = acc[w] & va[w];
                }
            }
            MicroOp::COr { a } => {
                let va = self.load(a);
                for w in 0..W {
                    out[w] = acc[w] | va[w];
                }
            }
            MicroOp::CNand { a } => {
                let va = self.load(a);
                for w in 0..W {
                    out[w] = !(acc[w] & va[w]);
                }
            }
            MicroOp::CNor { a } => {
                let va = self.load(a);
                for w in 0..W {
                    out[w] = !(acc[w] | va[w]);
                }
            }
            MicroOp::CXor { a } => {
                let va = self.load(a);
                for w in 0..W {
                    out[w] = acc[w] ^ va[w];
                }
            }
            MicroOp::CXnor { a } => {
                let va = self.load(a);
                for w in 0..W {
                    out[w] = !(acc[w] ^ va[w]);
                }
            }
            MicroOp::CAndN { off, len } => {
                out = self.pool_fold(tape, off, len, true);
                for w in 0..W {
                    out[w] &= acc[w];
                }
            }
            MicroOp::COrN { off, len } => {
                out = self.pool_fold(tape, off, len, false);
                for w in 0..W {
                    out[w] |= acc[w];
                }
            }
            MicroOp::CNandN { off, len } => {
                out = self.pool_fold(tape, off, len, true);
                for w in 0..W {
                    out[w] = !(out[w] & acc[w]);
                }
            }
            MicroOp::CNorN { off, len } => {
                out = self.pool_fold(tape, off, len, false);
                for w in 0..W {
                    out[w] = !(out[w] | acc[w]);
                }
            }
            MicroOp::CMuxSel { a, b } => {
                let (va, vb) = (self.load(a), self.load(b));
                for w in 0..W {
                    out[w] = (va[w] & !acc[w]) | (vb[w] & acc[w]);
                }
            }
            MicroOp::CMuxD0 { s, b } => {
                let (vs, vb) = (self.load(s), self.load(b));
                for w in 0..W {
                    out[w] = (acc[w] & !vs[w]) | (vb[w] & vs[w]);
                }
            }
            MicroOp::CMuxD1 { s, a } => {
                let (vs, va) = (self.load(s), self.load(a));
                for w in 0..W {
                    out[w] = (va[w] & !vs[w]) | (acc[w] & vs[w]);
                }
            }
        }
        out
    }

    /// Slow path for entries carrying pin faults or chain-interior stem
    /// faults: evaluate the chain gate by gate, applying every injection
    /// exactly where [`crate::Simulator`] would, writing interior values
    /// into the value store (nothing outside the chain reads them).
    fn eval_expanded(&mut self, tape: &CompiledTape, entry: TapeEntry) {
        let mut pins = std::mem::take(&mut self.pins);
        let mut in_buf = std::mem::take(&mut self.in_buf);
        for pos in entry.start as usize..entry.start as usize + entry.len as usize {
            let kind = tape.gate_pins(pos, &mut pins);
            in_buf.clear();
            for (pin, &inp) in pins.iter().enumerate() {
                let mut v = self.load(inp);
                if let Some(m) = self.pin_masks.get(&(pos as u32, pin as u8)) {
                    m.apply(&mut v);
                }
                in_buf.push(v);
            }
            let mut out = eval_kind_wide(kind, &in_buf);
            let oi = tape.gate_outs[pos];
            if self.stem_flagged[oi as usize] {
                self.stem_masks[&oi].apply(&mut out);
            }
            if self.transition_flagged[oi as usize] {
                self.apply_transition(oi, &mut out);
            }
            self.store(oi, out);
        }
        self.pins = pins;
        self.in_buf = in_buf;
    }

    /// Latches flip-flop next-state (the value on each DFF's `d` pin,
    /// after any injected `d`-pin fault).
    ///
    /// Must be called after [`TapeSimulator::eval`] for the cycle.
    fn step(&mut self, tape: &CompiledTape) {
        for k in 0..tape.dff_nets.len() {
            let (_, d, gidx) = tape.dff_nets[k];
            let mut v = self.load(d);
            if let Some(m) = self.dff_pin_masks.get(&gidx) {
                m.apply(&mut v);
            }
            self.dff_state[k] = v;
        }
    }
}

/// Evaluates one gate over `W`-word operands (the expanded slow path).
fn eval_kind_wide<const W: usize>(kind: GateKind, inputs: &[[u64; W]]) -> [u64; W] {
    let mut out = [0u64; W];
    match kind {
        GateKind::Const0 => {}
        GateKind::Const1 => out = [!0; W],
        GateKind::Buf | GateKind::Dff => out = inputs[0],
        GateKind::Not => {
            for w in 0..W {
                out[w] = !inputs[0][w];
            }
        }
        GateKind::And | GateKind::Nand => {
            out = [!0; W];
            for v in inputs {
                for w in 0..W {
                    out[w] &= v[w];
                }
            }
            if kind == GateKind::Nand {
                for w in out.iter_mut() {
                    *w = !*w;
                }
            }
        }
        GateKind::Or | GateKind::Nor => {
            for v in inputs {
                for w in 0..W {
                    out[w] |= v[w];
                }
            }
            if kind == GateKind::Nor {
                for w in out.iter_mut() {
                    *w = !*w;
                }
            }
        }
        GateKind::Xor => {
            for w in 0..W {
                out[w] = inputs[0][w] ^ inputs[1][w];
            }
        }
        GateKind::Xnor => {
            for w in 0..W {
                out[w] = !(inputs[0][w] ^ inputs[1][w]);
            }
        }
        GateKind::Mux2 => {
            for w in 0..W {
                out[w] = (inputs[1][w] & !inputs[0][w]) | (inputs[2][w] & inputs[0][w]);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netlist::NetlistBuilder;
    use crate::sim::Simulator;

    /// adder-ish mix with a collapsible chain: not → and → or feeding one
    /// output, plus a side branch keeping some fanout > 1.
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
    fn chains_collapse_and_account() {
        let n = chain_netlist();
        let tape = CompiledTape::compile(&n);
        // not+and+or fold into one entry; xor stands alone.
        assert_eq!(tape.tape_len(), 2);
        assert_eq!(tape.chains_collapsed(), 2);
    }

    #[test]
    fn primary_outputs_are_never_interior() {
        // buf → buf where the first buf's output is marked as an output:
        // must NOT collapse across the observable net.
        let mut b = NetlistBuilder::new("po");
        let a = b.input("a");
        let m = b.gate(GateKind::Buf, &[a]);
        let o = b.gate(GateKind::Not, &[m]);
        b.mark_output(m, "m");
        b.mark_output(o, "o");
        let n = b.finish().unwrap();
        let tape = CompiledTape::compile(&n);
        assert_eq!(
            tape.tape_len(),
            2,
            "observable net m must stay materialized"
        );
        assert_eq!(tape.chains_collapsed(), 0);
    }

    #[test]
    fn dff_d_inputs_are_never_interior() {
        let mut b = NetlistBuilder::new("dffd");
        let a = b.input("a");
        let m = b.not(a); // feeds only the DFF d pin
        let q = b.dff(m);
        b.mark_output(q, "q");
        let n = b.finish().unwrap();
        let tape = CompiledTape::compile(&n);
        assert_eq!(tape.tape_len(), 1, "the inverter keeps its own entry");
        assert_eq!(tape.chains_collapsed(), 0);
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

    #[test]
    fn interior_stem_fault_expands_and_matches_simulator() {
        let n = chain_netlist();
        let tape = CompiledTape::compile(&n);
        // Fault on the collapsed AND's output (interior net).
        let and_out = n
            .gates()
            .iter()
            .find(|g| g.kind == GateKind::And)
            .unwrap()
            .output;
        let fault = Fault::stem_sa1(and_out);
        for pattern in 0..8u32 {
            let mut plain = Simulator::new(&n);
            let mut fast: TapeSimulator<_, 1> = TapeSimulator::new(&tape);
            plain.inject_fault(&fault, 1 << 9);
            fast.inject_fault(&fault, 9);
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
        // Every net (including the chain-interior ones) carries a
        // transition fault; drive a value sequence and compare observable
        // nets against the full-eval oracle each cycle.
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
    fn chain_interior_transition_expands_owning_entry() {
        let n = chain_netlist();
        let tape = CompiledTape::compile(&n);
        let and_out = n
            .gates()
            .iter()
            .find(|g| g.kind == GateKind::And)
            .unwrap()
            .output;
        let fault = TransitionFault::slow_to_rise(and_out);
        let mut plain = Simulator::new(&n);
        let mut fast: TapeSimulator<_, 1> = TapeSimulator::new(&tape);
        plain.inject_transition_fault(&fault, 1 << 9);
        fast.inject_transition_fault(&fault, 9);
        for pattern in [0u32, 2, 7, 7, 1, 6, 7] {
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
                // Interior nets are materialized here (no collapsed chains
                // in this netlist), so compare everything.
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
