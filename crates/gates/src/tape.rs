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
//!    and the `[u64; W]` logic ops auto-vectorize. A simulator can be
//!    narrowed to its first `k` words, the ones a fault simulator's batch
//!    still has an undetected fault in: one eval body, generic over the
//!    word count on the `W`-word stride, is picked once per eval.
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
//!
//! A fault simulator can also restrict a simulator to the fanout cone of
//! its injected faults ([`CompiledTape::cone`]): each cycle then loads the
//! nets the cone reads but does not drive from a fault-free record, and
//! evaluates and latches only the cone's entries and flip-flops. Every
//! net outside the cone holds its fault-free value in every lane, since
//! no injected fault reaches it.

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
    /// Gate index → its node: tape entry `e` as `e`, flip-flop `k` as
    /// `entries.len() + k`.
    node_of_gate: Vec<u32>,
    /// Net index → the node driving it: tape entry `e` as `e`, flip-flop
    /// `k` as `entries.len() + k`, `u32::MAX` for a primary input.
    node_of_net: Vec<u32>,
    /// Primary-input net indices (parallel to `netlist.inputs()`).
    input_nets: Vec<u32>,
    /// Primary outputs, in netlist order.
    outputs: Vec<NetId>,
    /// Per-DFF `(q net, d net)` (parallel to `netlist.dff_gates()`).
    dff_nets: Vec<(u32, u32)>,
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
            node_of_gate: vec![u32::MAX; netlist.gate_count()],
            node_of_net: vec![u32::MAX; netlist.net_count()],
            input_nets: netlist.inputs().iter().map(|n| n.index() as u32).collect(),
            outputs: netlist.outputs().to_vec(),
            dff_nets: netlist
                .dff_gates()
                .iter()
                .map(|&gid| {
                    let gate = netlist.gate(gid);
                    (gate.output.index() as u32, gate.inputs[0].index() as u32)
                })
                .collect(),
        };
        for &gid in comb {
            let gate = netlist.gate(gid);
            let entry = tape.entries.len() as u32;
            tape.node_of_gate[gid.index()] = entry;
            tape.node_of_net[gate.output.index()] = entry;
            let op = tape.micro_op(gate);
            tape.entries.push(TapeEntry {
                op,
                out: gate.output.index() as u32,
            });
        }
        let first_dff = tape.entries.len() as u32;
        for (k, &gid) in netlist.dff_gates().iter().enumerate() {
            let node = first_dff + k as u32;
            tape.node_of_gate[gid.index()] = node;
            tape.node_of_net[tape.dff_nets[k].0 as usize] = node;
        }
        // Shared tapes stay alive for a whole fault campaign.
        tape.pool.shrink_to_fit();
        tape
    }

    /// The tape entry driving net `ni`, if a combinational gate does.
    fn entry_of_net(&self, ni: u32) -> Option<u32> {
        let node = self.node_of_net[ni as usize];
        ((node as usize) < self.entries.len()).then_some(node)
    }

    /// The part of the tape that faults disturbing `seeds` first can
    /// reach. A fault seeds the net it forces: a stem or transition fault
    /// its net, an input-pin fault its gate's output.
    ///
    /// One forward walk in tape order marks every entry that is seeded or
    /// reads a marked net, and its output; then every flip-flop that is
    /// seeded or reads a marked net joins, and while one does the walk
    /// runs again. A walk starts at the first seeded entry, or at the top
    /// of the tape when a primary input or flip-flop output is marked.
    pub(crate) fn cone(&self, seeds: &[NetId], scratch: &mut ConeScratch) -> Cone {
        let ConeScratch {
            nets,
            nodes,
            loaded,
        } = scratch;
        let entry_count = self.entries.len() as u32;
        for (bits, len) in [
            (&mut *nets, self.net_count),
            (&mut *loaded, self.net_count),
            (&mut *nodes, self.entries.len() + self.dff_nets.len()),
        ] {
            bits.clear();
            bits.resize(len.div_ceil(64), 0);
        }
        let mut first = entry_count;
        for &seed in seeds {
            let n = seed.index() as u32;
            mark(nets, n);
            let node = self.node_of_net[n as usize];
            if node != u32::MAX {
                mark(nodes, node);
            }
            first = first.min(self.entry_of_net(n).unwrap_or(0));
        }
        loop {
            for e in first..entry_count {
                let entry = &self.entries[e as usize];
                if !is_marked(nodes, e) {
                    let mut reads_cone = false;
                    for_each_operand(&self.pool, entry.op, |n| reads_cone |= is_marked(nets, n));
                    if !reads_cone {
                        continue;
                    }
                    mark(nodes, e);
                }
                mark(nets, entry.out);
            }
            let mut joined = false;
            for (k, &(q, d)) in self.dff_nets.iter().enumerate() {
                if is_marked(nets, d) && mark(nodes, entry_count + k as u32) {
                    joined |= mark(nets, q);
                }
            }
            if !joined {
                break;
            }
            first = 0;
        }
        let size: usize = nodes.iter().map(|w| w.count_ones() as usize).sum();
        let mut cone = Cone {
            entries: Vec::with_capacity(size),
            ..Cone::default()
        };
        for node in marked(nodes) {
            if node < entry_count {
                cone.entries.push(node);
            } else {
                cone.dffs.push(node - entry_count);
            }
        }
        cone.outputs = self
            .outputs
            .iter()
            .copied()
            .filter(|o| is_marked(nets, o.index() as u32))
            .collect();
        // The cone reads every net its entries and flip-flops take in, and
        // each seed it forces; it loads those no cone node drives. Only a
        // seed is marked without a marked driver.
        let mut load = |n: u32, driven: bool| {
            if !driven && mark(loaded, n) {
                cone.loads.push(n);
            }
        };
        for &e in &cone.entries {
            for_each_operand(&self.pool, self.entries[e as usize].op, |n| {
                load(n, is_marked(nets, n))
            });
        }
        for &k in &cone.dffs {
            let d = self.dff_nets[k as usize].1;
            load(d, is_marked(nets, d));
        }
        for &seed in seeds {
            let node = self.node_of_net[seed.index()];
            load(
                seed.index() as u32,
                node != u32::MAX && is_marked(nodes, node),
            );
        }
        cone.loads.sort_unstable();
        cone
    }

    /// The tape's next-state logic: every flip-flop, and the entries its
    /// `d` pins depend on. A simulator restricted to it steps the
    /// fault-free machine's state while loading only primary inputs.
    pub(crate) fn next_state_cone(&self) -> Cone {
        let entry_count = self.entries.len();
        let mut needed = vec![false; entry_count];
        let need = |n: u32, needed: &mut [bool]| {
            if let Some(entry) = self.entry_of_net(n) {
                needed[entry as usize] = true;
            }
        };
        for &(_, d) in &self.dff_nets {
            need(d, &mut needed);
        }
        // Operands precede their readers on the tape.
        for e in (0..entry_count).rev() {
            if needed[e] {
                for_each_operand(&self.pool, self.entries[e].op, |n| need(n, &mut needed));
            }
        }
        let mut cone = Cone {
            dffs: (0..self.dff_nets.len() as u32).collect(),
            ..Cone::default()
        };
        for (e, _) in needed.iter().enumerate().filter(|(_, &needed)| needed) {
            cone.entries.push(e as u32);
        }
        // The primary inputs the entries or any flip-flop read.
        let mut read = vec![false; self.net_count];
        for &e in &cone.entries {
            for_each_operand(&self.pool, self.entries[e as usize].op, |n| {
                read[n as usize] = true
            });
        }
        for &(_, d) in &self.dff_nets {
            read[d as usize] = true;
        }
        cone.loads = self
            .input_nets
            .iter()
            .copied()
            .filter(|&n| read[n as usize])
            .collect();
        cone.loads.sort_unstable();
        cone
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

/// The tape entries and flip-flops a set of faults can disturb
/// ([`CompiledTape::cone`]), and the nets around them.
#[derive(Debug, Default)]
pub(crate) struct Cone {
    /// The cone's tape entries, by index, in tape order.
    entries: Vec<u32>,
    /// The cone's flip-flops, in netlist order.
    dffs: Vec<u32>,
    /// The nets the cone reads but does not drive, loaded each cycle from
    /// the fault-free record.
    loads: Vec<u32>,
    /// The primary outputs in the cone, the only ones a fault can reach.
    outputs: Vec<NetId>,
}

/// The bitmaps of [`CompiledTape::cone`], kept to be reused by the next
/// walk.
#[derive(Debug, Default)]
pub(crate) struct ConeScratch {
    nets: Vec<u64>,
    nodes: Vec<u64>,
    loaded: Vec<u64>,
}

/// Sets bit `i`; `true` if it was clear.
fn mark(bits: &mut [u64], i: u32) -> bool {
    let (word, bit) = (i as usize / 64, 1u64 << (i % 64));
    let clear = bits[word] & bit == 0;
    bits[word] |= bit;
    clear
}

fn is_marked(bits: &[u64], i: u32) -> bool {
    bits[i as usize / 64] >> (i % 64) & 1 == 1
}

/// The set bits, in ascending order.
fn marked(bits: &[u64]) -> impl Iterator<Item = u32> + '_ {
    bits.iter().enumerate().flat_map(|(w, &word)| {
        let mut word = word;
        std::iter::from_fn(move || {
            (word != 0).then(|| {
                let i = w as u32 * 64 + word.trailing_zeros();
                word &= word - 1;
                i
            })
        })
    })
}

/// Calls `f` on each operand net of `op`, in pin order.
fn for_each_operand(pool: &[u32], op: MicroOp, mut f: impl FnMut(u32)) {
    match op {
        MicroOp::Const0 | MicroOp::Const1 => {}
        MicroOp::Copy { a } | MicroOp::NotOf { a } => f(a),
        MicroOp::And2 { a, b }
        | MicroOp::Or2 { a, b }
        | MicroOp::Nand2 { a, b }
        | MicroOp::Nor2 { a, b }
        | MicroOp::Xor2 { a, b }
        | MicroOp::Xnor2 { a, b } => {
            f(a);
            f(b);
        }
        MicroOp::Mux2 { s, a, b } => {
            f(s);
            f(a);
            f(b);
        }
        MicroOp::AndN { off, len }
        | MicroOp::OrN { off, len }
        | MicroOp::NandN { off, len }
        | MicroOp::NorN { off, len } => {
            pool[off as usize..(off + len) as usize]
                .iter()
                .for_each(|&n| f(n));
        }
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
    /// Forces the masked lanes of the first `K` words.
    #[inline]
    fn apply<const K: usize>(&self, v: &mut [u64; K]) {
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
    /// Records the freshly computed first `K` words `v` as the arming
    /// state, and holds each armed lane at the value it took in the
    /// previous eval.
    #[inline]
    fn hold<const K: usize>(&mut self, v: &mut [u64; K]) {
        let armed = self.seen;
        self.seen = true;
        for (w, v) in v.iter_mut().enumerate() {
            let prev = std::mem::replace(&mut self.prev[w], *v);
            if armed {
                *v = hold_armed_lanes(*v, self.rise[w], self.fall[w], prev);
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
    /// The first `K` words `v` as the gate reads them through input pin
    /// `pin`.
    #[inline]
    fn pin_value<const K: usize>(&self, pin: usize, mut v: [u64; K]) -> [u64; K] {
        for (p, mask) in &self.pins {
            if usize::from(*p) == pin {
                mask.apply(&mut v);
            }
        }
        v
    }

    /// The net's first `K` words from their computed value `v`: the stem
    /// mask, then transition forcing.
    #[inline]
    fn force<const K: usize>(&mut self, mut v: [u64; K]) -> [u64; K] {
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

    /// Drives primary input `pos` (in [`Netlist::inputs`] order) with
    /// `word` in every lane word: bit `L` is lane `L` of each word.
    pub(crate) fn set_input_word(&mut self, pos: usize, word: u64) {
        self.state.input_words[pos] = word;
    }

    /// Propagates values through the combinational tape.
    ///
    /// Flip-flop outputs present their current state; call
    /// [`TapeSimulator::step`] afterwards to latch the next state.
    ///
    /// # Panics
    ///
    /// Panics if the simulator is restricted to a cone, which a fault
    /// simulator evaluates only from its fault-free record.
    pub fn eval(&mut self) {
        self.state.eval(&self.tape, None);
    }

    /// Evaluates one cycle of a fault-free record: `block[n] >> bit & 1`
    /// is net `n`'s fault-free value. The simulator, which must be
    /// restricted to a cone, loads its cone's side nets from the record and
    /// evaluates only the cone.
    pub(crate) fn eval_from(&mut self, block: &[u64], bit: u32) {
        self.state.eval(&self.tape, Some((block, bit)));
    }

    /// Restricts every later [`TapeSimulator::eval_from`] and
    /// [`TapeSimulator::step`] to the cone of `seeds`, the nets the
    /// injected faults force ([`CompiledTape::cone`]), until the faults
    /// are cleared.
    pub(crate) fn restrict(&mut self, seeds: &[NetId], scratch: &mut ConeScratch) {
        let cone = self.tape.cone(seeds, scratch);
        self.state.restrict(cone);
    }

    /// Restricts every later [`TapeSimulator::eval_from`] and
    /// [`TapeSimulator::step`] to the next-state logic
    /// ([`CompiledTape::next_state_cone`]), for a fault-free simulator
    /// that only steps the state.
    pub(crate) fn restrict_to_next_state(&mut self) {
        let cone = self.tape.next_state_cone();
        self.state.restrict(cone);
    }

    /// The cone the simulator is restricted to.
    ///
    /// # Panics
    ///
    /// Panics if the simulator is not restricted.
    fn cone(&self) -> &Cone {
        let restriction = self.state.cone.as_ref();
        &restriction.expect("the simulator is restricted").cone
    }

    /// The primary outputs a restricted evaluation computes: the cone's.
    pub(crate) fn outputs(&self) -> &[NetId] {
        &self.cone().outputs
    }

    /// The flip-flops a restricted [`TapeSimulator::step`] latches: the
    /// cone's.
    pub(crate) fn stepped_dffs(&self) -> &[u32] {
        &self.cone().dffs
    }

    /// Narrows [`TapeSimulator::eval`] to the first `words` lane words
    /// (lanes `0..64·words`), the words a fault simulator's batch still
    /// has an undetected fault in. The words past them keep stale values
    /// until the simulator is widened again, so their lanes must carry no
    /// fault still being graded. A new simulator evaluates all `W`.
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= words <= W`.
    pub(crate) fn set_words(&mut self, words: usize) {
        assert!(
            (1..=W).contains(&words),
            "{words} lane words outside 1..={W}"
        );
        self.state.words = words;
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
        load::<W, W>(&self.state.values, net.index() as u32)
    }

    /// Gate-evaluation events performed so far: each eval counts every
    /// gate it evaluates once, so an unrestricted simulator's count equals
    /// the full-eval baseline of `cycles × gates`.
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
    /// Flip-flops with a faulty `d` pin, with their masks.
    dff_pin_masks: Vec<(u32, WideMask<W>)>,
    /// Flip-flop → its position in `dff_pin_masks` (`u32::MAX` for none).
    dff_pin_slot: Vec<u32>,
    /// The cone evaluation is restricted to, if any.
    cone: Option<Restriction>,
    /// Lane words [`LaneState::eval`] computes, from word 0.
    words: usize,
    events: u64,
}

/// A cone and where each faulted entry sits in it.
#[derive(Debug)]
struct Restriction {
    cone: Cone,
    /// The cone position of each faulted entry, in entry order.
    faulted: Vec<u32>,
}

impl<const W: usize> LaneState<W> {
    fn new(tape: &CompiledTape) -> Self {
        LaneState {
            values: vec![0; tape.net_count * W],
            input_words: vec![0; tape.input_nets.len()],
            dff_state: vec![[0; W]; tape.dff_nets.len()],
            entry_faults: FaultedSites::new(tape.entries.len()),
            source_faults: FaultedSites::new(tape.net_count),
            dff_pin_masks: Vec::new(),
            dff_pin_slot: vec![u32::MAX; tape.dff_nets.len()],
            cone: None,
            words: W,
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

    /// Removes all injected faults, and the cone they spanned.
    fn clear_faults(&mut self) {
        self.entry_faults.clear();
        self.source_faults.clear();
        for (k, _) in self.dff_pin_masks.drain(..) {
            self.dff_pin_slot[k as usize] = u32::MAX;
        }
        self.cone = None;
    }

    /// Restricts evaluation to `cone`, which must hold every faulted
    /// entry.
    fn restrict(&mut self, cone: Cone) {
        let mut faulted = Vec::with_capacity(self.entry_faults.sites.len());
        let mut at = 0;
        for &(entry, _) in self.entry_faults.in_order().iter() {
            at += cone.entries[at..]
                .iter()
                .position(|&e| e == entry)
                .expect("a cone holds every faulted entry");
            faulted.push(at as u32);
        }
        self.cone = Some(Restriction { cone, faulted });
    }

    /// The injections on net `ni`: its driving entry's, or its own for a
    /// primary input or flip-flop output.
    fn site(&mut self, tape: &CompiledTape, ni: u32) -> &mut SiteFaults<W> {
        match tape.entry_of_net(ni) {
            None => self.source_faults.site(ni),
            Some(entry) => self.entry_faults.site(entry),
        }
    }

    fn site_of(&self, tape: &CompiledTape, ni: u32) -> Option<&SiteFaults<W>> {
        match tape.entry_of_net(ni) {
            None => self.source_faults.get(ni),
            Some(entry) => self.entry_faults.get(entry),
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
            FaultSite::Pin { gate, pin } => match tape.node_of_gate[gate.index()] {
                node if node as usize >= tape.entries.len() => {
                    let k = node - tape.entries.len() as u32;
                    let slot = &mut self.dff_pin_slot[k as usize];
                    if *slot == u32::MAX {
                        *slot = self.dff_pin_masks.len() as u32;
                        self.dff_pin_masks.push((k, WideMask::default()));
                    }
                    &mut self.dff_pin_masks[*slot as usize].1
                }
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

    /// Propagates values through the combinational tape, over the first
    /// `words` lane words of every net. An unrestricted simulator reads
    /// its primary inputs from the driven input words and evaluates the
    /// whole tape; a restricted one, which must be given `record` (a
    /// fault-free record's block of net words, and the cycle's bit in
    /// it), loads its cone's side nets from it and evaluates only the
    /// cone.
    ///
    /// Flip-flop outputs present their current state; call
    /// [`TapeSimulator::step`] afterwards to latch the next state.
    fn eval(&mut self, tape: &CompiledTape, record: Option<(&[u64], u32)>) {
        // `words <= W <= MAX_LANE_WORDS`; an arm narrower than `W` exists
        // only where `W` leaves room for it, so a one-word simulator
        // keeps a single body.
        match self.words {
            1 if W > 1 => self.eval_words::<1>(tape, record),
            2 if W > 2 => self.eval_words::<2>(tape, record),
            3 if W > 3 => self.eval_words::<3>(tape, record),
            _ => self.eval_words::<W>(tape, record),
        }
    }

    /// [`LaneState::eval`] over the first `K` of each net's `W` words.
    #[inline(always)]
    fn eval_words<const K: usize>(&mut self, tape: &CompiledTape, record: Option<(&[u64], u32)>) {
        debug_assert!(K <= W);
        let LaneState {
            values,
            input_words,
            dff_state,
            entry_faults,
            source_faults,
            cone,
            events,
            ..
        } = self;
        let fault_free = |(block, bit): (&[u64], u32), n: u32| {
            [0u64.wrapping_sub(block[n as usize] >> bit & 1); K]
        };
        let (order, faulted) = match (cone, record) {
            (Some(Restriction { cone, faulted }), Some(record)) => {
                for &n in &cone.loads {
                    store::<W, K>(values, n, fault_free(record, n));
                }
                for &k in &cone.dffs {
                    let v = &dff_state[k as usize];
                    let q = tape.dff_nets[k as usize].0;
                    store::<W, K>(values, q, std::array::from_fn(|w| v[w]));
                }
                (Some(&cone.entries[..]), Some(&faulted[..]))
            }
            (None, None) => {
                for (&ni, &word) in tape.input_nets.iter().zip(input_words.iter()) {
                    store::<W, K>(values, ni, [word; K]);
                }
                for (&(q, _), v) in tape.dff_nets.iter().zip(dff_state.iter()) {
                    store::<W, K>(values, q, std::array::from_fn(|w| v[w]));
                }
                (None, None)
            }
            _ => panic!("a simulator evaluates from the record exactly when it is restricted"),
        };
        for (ni, site) in source_faults.in_order() {
            let v = site.force(load::<W, K>(values, *ni));
            store::<W, K>(values, *ni, v);
        }
        // The entries to evaluate, the cone's or the whole tape's, by
        // position; fault-free runs between faulted entries take one
        // micro-op and one store per gate.
        let entry = |at: usize| match order {
            Some(order) => &tape.entries[order[at] as usize],
            None => &tape.entries[at],
        };
        let run = |values: &mut [u64], from: usize, to: usize| match order {
            Some(order) => replay::<W, K>(
                &tape.pool,
                values,
                order[from..to].iter().map(|&e| &tape.entries[e as usize]),
            ),
            None => replay::<W, K>(&tape.pool, values, &tape.entries[from..to]),
        };
        let count = order.map_or(tape.entries.len(), <[u32]>::len);
        let sites = entry_faults.in_order();
        debug_assert!(faulted.is_none_or(|f| f.len() == sites.len()));
        let mut next = 0;
        for (i, (e, site)) in sites.iter_mut().enumerate() {
            let at = faulted.map_or(*e, |faulted| faulted[i]) as usize;
            run(values, next, at);
            let TapeEntry { op, out } = *entry(at);
            let v = eval_op(&tape.pool, op, |pin, n| {
                site.pin_value(pin, load::<W, K>(values, n))
            });
            store::<W, K>(values, out, site.force(v));
            next = at + 1;
        }
        run(values, next, count);
        *events += count as u64;
    }

    /// Latches flip-flop next-state (the value on each DFF's `d` pin,
    /// after any injected `d`-pin fault): every flip-flop, or a
    /// restricted simulator's cone flip-flops.
    ///
    /// Must be called after [`TapeSimulator::eval`] for the cycle.
    fn step(&mut self, tape: &CompiledTape) {
        let LaneState {
            values,
            dff_state,
            dff_pin_masks,
            cone,
            ..
        } = self;
        let mut latch = |k: usize| dff_state[k] = load::<W, W>(values, tape.dff_nets[k].1);
        match cone {
            Some(restriction) => restriction
                .cone
                .dffs
                .iter()
                .for_each(|&k| latch(k as usize)),
            None => (0..tape.dff_nets.len()).for_each(latch),
        }
        // A flip-flop with a faulted `d` pin is in any cone: it seeds one.
        for (k, mask) in dff_pin_masks.iter() {
            mask.apply(&mut dff_state[*k as usize]);
        }
    }
}

/// The first `K` words of net `idx` in a value store of `W` words per net.
#[inline(always)]
fn load<const W: usize, const K: usize>(values: &[u64], idx: u32) -> [u64; K] {
    let base = idx as usize * W;
    values[base..base + K]
        .try_into()
        .expect("net value slice has exactly K words")
}

/// Overwrites the first `K` words of net `idx` in a value store of `W`
/// words per net.
#[inline(always)]
fn store<const W: usize, const K: usize>(values: &mut [u64], idx: u32, v: [u64; K]) {
    let base = idx as usize * W;
    values[base..base + K].copy_from_slice(&v);
}

/// Evaluates fault-free `entries` in order, over the first `K` of each
/// net's `W` words.
#[inline(always)]
fn replay<'t, const W: usize, const K: usize>(
    pool: &[u32],
    values: &mut [u64],
    entries: impl IntoIterator<Item = &'t TapeEntry>,
) {
    for entry in entries {
        let v: [u64; K] = eval_op(pool, entry.op, |_, n| load::<W, K>(values, n));
        store::<W, K>(values, entry.out, v);
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

    /// A small sequential netlist, stuck-at faults on every kind of site
    /// (a gate's stem and input pin, a primary input, a flip-flop output
    /// and a flip-flop's `d` pin) and a transition fault on the gate.
    fn sites_netlist() -> (Netlist, Vec<Fault>, TransitionFault) {
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
        let pin = |net, pin, stuck_value| Fault {
            site: FaultSite::Pin {
                gate: n.driver(net).unwrap(),
                pin,
            },
            stuck_value,
        };
        let stuck = vec![
            Fault::stem_sa1(g),
            pin(g, 1, false),
            Fault::stem_sa0(a),
            Fault::stem_sa1(q),
            pin(q2, 0, true),
        ];
        (n, stuck, TransitionFault::slow_to_rise(g))
    }

    /// Drives `n`'s inputs with the bits of `pattern`.
    fn drive<const W: usize>(n: &Netlist, sim: &mut TapeSimulator<&CompiledTape, W>, pattern: u32) {
        for (k, &inp) in n.inputs().iter().enumerate() {
            sim.set_input(inp, pattern >> k & 1 == 1);
        }
    }

    /// Injections agree with [`Simulator`] on every net, cycle by cycle:
    /// one gate carries a stem, a pin and a transition fault in three
    /// lanes; a primary input, a flip-flop output and a flip-flop's `d`
    /// pin each carry a stuck-at fault; then every fault is cleared and
    /// re-injected into other lanes, as a repack does.
    fn check_injections<const W: usize>() {
        let (n, stuck, slow) = sites_netlist();
        let tape = CompiledTape::compile(&n);
        let mut plain = Simulator::new(&n);
        let mut fast: TapeSimulator<_, W> = TapeSimulator::new(&tape);
        // Simulator lanes 1..=6 first, then 6..=11 after the repack.
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

    /// A simulator narrowed to its first `words` words computes exactly
    /// what a full-width one does in those words, wherever the faults sit
    /// in them, and the faults in the words past them disturb nothing.
    #[test]
    fn narrowed_words_match_full_width_on_live_lanes() {
        let (n, stuck, slow) = sites_netlist();
        let tape = CompiledTape::compile(&n);
        let patterns = [0u32, 2, 7, 7, 1, 6, 5, 3, 0, 7, 2, 4, 4, 1];
        for words in 1..=4 {
            let mut full: TapeSimulator<_, 4> = TapeSimulator::new(&tape);
            let mut narrow: TapeSimulator<_, 4> = TapeSimulator::new(&tape);
            narrow.set_words(words);
            // Live lanes at both ends of the live words; with words to
            // spare, the same faults in the first dead word as well.
            let top = 64 * words;
            let mut lanes = vec![1, top - 1 - stuck.len()];
            if words < 4 {
                lanes.push(top + 1);
            }
            for sim in [&mut full, &mut narrow] {
                for &first in &lanes {
                    for (k, fault) in stuck.iter().enumerate() {
                        sim.inject_fault(fault, first + k);
                    }
                    sim.inject_transition_fault(&slow, first + stuck.len());
                }
            }
            for (cycle, &pattern) in patterns.iter().enumerate() {
                drive(&n, &mut full, pattern);
                drive(&n, &mut narrow, pattern);
                full.eval();
                narrow.eval();
                for idx in 0..n.net_count() {
                    let net = NetId::from_index(idx);
                    assert_eq!(
                        full.value(net)[..words],
                        narrow.value(net)[..words],
                        "{words} words, cycle {cycle}, net {net}"
                    );
                }
                full.step();
                narrow.step();
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
