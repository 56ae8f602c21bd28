//! 64-lane bit-parallel logic simulation.

use std::collections::HashMap;

use crate::fault::{Fault, FaultSite, TransitionFault};
use crate::gate::GateId;
use crate::net::{Bus, NetId};
use crate::netlist::Netlist;

/// Number of independent one-bit machines simulated per pass.
///
/// Every net value is a `u64` whose bit *L* is the net's logic value in
/// lane *L*. The parallel fault simulator reserves lane 0 for the
/// fault-free machine.
pub const LANES: usize = 64;

#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct InjectMask {
    /// Lanes forced to 0 (`value &= !and0`).
    and0: u64,
    /// Lanes forced to 1 (`value |= or1`).
    or1: u64,
}

impl InjectMask {
    #[inline]
    pub(crate) fn apply(self, v: u64) -> u64 {
        (v & !self.and0) | self.or1
    }

    pub(crate) fn add(&mut self, mask: u64, stuck: bool) {
        if stuck {
            self.or1 |= mask;
        } else {
            self.and0 |= mask;
        }
    }
}

/// Gross transition-delay forcing of one lane word: `v` is the net's
/// freshly computed value, `prev` the value it computed on the previous
/// cycle, and `rise` / `fall` the lanes carrying a slow-to-rise /
/// slow-to-fall fault. Armed lanes saw the initial value last cycle, so
/// they hold it now. Shared by [`Simulator`] and the compiled tape.
#[inline]
pub(crate) fn hold_armed_lanes(v: u64, rise: u64, fall: u64, prev: u64) -> u64 {
    let force0 = rise & !prev;
    let force1 = fall & prev;
    (v & !force0) | force1
}

/// Cycle-based logic simulator over a [`Netlist`], evaluating 64 independent
/// machines per pass (see [`LANES`]).
///
/// Typical use: [`Simulator::set_input`] / [`Simulator::set_input_lanes`],
/// then [`Simulator::eval`] to propagate, read outputs with
/// [`Simulator::value`] or [`Simulator::bus_lane`], and [`Simulator::step`]
/// to advance flip-flops for sequential circuits.
///
/// Stuck-at faults can be injected per lane with
/// [`Simulator::inject_fault`], which is how the parallel fault simulator is
/// built.
#[derive(Debug)]
pub struct Simulator<'a> {
    netlist: &'a Netlist,
    /// Raw primary-input words, parallel to `netlist.inputs()`.
    input_words: Vec<u64>,
    /// Current value of every net.
    values: Vec<u64>,
    /// DFF state, parallel to `netlist.dff_gates()`.
    state: Vec<u64>,
    stem_inject: HashMap<NetId, InjectMask>,
    pin_inject: HashMap<(GateId, u8), InjectMask>,
    /// Per-net lanes carrying a slow-to-rise transition fault.
    transition_rise: HashMap<NetId, u64>,
    /// Per-net lanes carrying a slow-to-fall transition fault.
    transition_fall: HashMap<NetId, u64>,
    /// The *computed* (pre-forcing) per-lane value each transition net took
    /// in the previous [`Simulator::eval`] — the arming state. Arming must
    /// use computed values: arming on the forced value would hold the net
    /// at its initial value forever (a stuck-at, not a delay).
    transition_prev: HashMap<NetId, u64>,
    /// False until the first eval records arming state; the first pattern
    /// after construction or reset is a pure launch (no capture possible).
    transition_primed: bool,
}

impl<'a> Simulator<'a> {
    /// Creates a simulator with all inputs low and flip-flops reset to 0.
    pub fn new(netlist: &'a Netlist) -> Self {
        Simulator {
            netlist,
            input_words: vec![0; netlist.inputs().len()],
            values: vec![0; netlist.net_count()],
            state: vec![0; netlist.dff_gates().len()],
            stem_inject: HashMap::new(),
            pin_inject: HashMap::new(),
            transition_rise: HashMap::new(),
            transition_fall: HashMap::new(),
            transition_prev: HashMap::new(),
            transition_primed: false,
        }
    }

    /// The netlist being simulated.
    pub fn netlist(&self) -> &'a Netlist {
        self.netlist
    }

    /// Resets all flip-flops to 0 and disarms transition faults (inputs
    /// and injections are kept).
    pub fn reset(&mut self) {
        self.state.fill(0);
        self.transition_prev.clear();
        self.transition_primed = false;
    }

    /// Removes all injected faults.
    pub fn clear_faults(&mut self) {
        self.stem_inject.clear();
        self.pin_inject.clear();
        self.transition_rise.clear();
        self.transition_fall.clear();
        self.transition_prev.clear();
        self.transition_primed = false;
    }

    /// Injects `fault` into the lanes selected by `lane_mask`.
    ///
    /// Lane 0 is conventionally kept fault-free by callers that want a
    /// reference machine, but this method does not enforce that.
    pub fn inject_fault(&mut self, fault: &Fault, lane_mask: u64) {
        match fault.site {
            FaultSite::Stem(net) => self
                .stem_inject
                .entry(net)
                .or_default()
                .add(lane_mask, fault.stuck_value),
            FaultSite::Pin { gate, pin } => self
                .pin_inject
                .entry((gate, pin))
                .or_default()
                .add(lane_mask, fault.stuck_value),
        }
    }

    /// Injects a gross transition-delay fault into the lanes selected by
    /// `lane_mask`: in those lanes the net presents its previous-cycle
    /// initial value for one extra cycle whenever the affected transition
    /// (rise or fall) is launched. Each [`Simulator::eval`] call is one
    /// clock for arming purposes; the first eval after construction,
    /// [`Simulator::reset`] or [`Simulator::clear_faults`] only launches
    /// (nothing is armed yet).
    pub fn inject_transition_fault(&mut self, fault: &TransitionFault, lane_mask: u64) {
        let map = if fault.slow_to_rise {
            &mut self.transition_rise
        } else {
            &mut self.transition_fall
        };
        *map.entry(fault.net).or_insert(0) |= lane_mask;
    }

    /// Applies transition-delay forcing to a freshly computed per-lane
    /// value of `net`, updating the arming state with the computed value.
    #[inline]
    fn apply_transition(&mut self, net: NetId, v: u64) -> u64 {
        let rise = self.transition_rise.get(&net).copied().unwrap_or(0);
        let fall = self.transition_fall.get(&net).copied().unwrap_or(0);
        if rise == 0 && fall == 0 {
            return v;
        }
        let prev = self.transition_prev.insert(net, v);
        if !self.transition_primed {
            return v;
        }
        // A net first seen this eval (fault injected mid-run) has no
        // arming state yet and cannot capture.
        let Some(prev) = prev else { return v };
        hold_armed_lanes(v, rise, fall, prev)
    }

    /// Drives a primary input with the same logic value in every lane.
    ///
    /// # Panics
    ///
    /// Panics if `net` is not a primary input of the netlist.
    pub fn set_input(&mut self, net: NetId, value: bool) {
        let pos = self
            .netlist
            .input_position(net)
            .expect("set_input target must be a primary input");
        self.input_words[pos] = if value { !0 } else { 0 };
    }

    /// Drives a primary input with a per-lane word (bit *L* = lane *L*).
    ///
    /// # Panics
    ///
    /// Panics if `net` is not a primary input of the netlist.
    pub fn set_input_lanes(&mut self, net: NetId, word: u64) {
        let pos = self
            .netlist
            .input_position(net)
            .expect("set_input_lanes target must be a primary input");
        self.input_words[pos] = word;
    }

    /// Drives an input bus with the same word in every lane.
    ///
    /// # Panics
    ///
    /// Panics if any bus bit is not a primary input.
    pub fn set_bus(&mut self, bus: &Bus, value: u64) {
        for (i, &net) in bus.iter().enumerate() {
            self.set_input(net, (value >> i) & 1 == 1);
        }
    }

    /// Drives an input bus with one word per lane (`values[L]` is lane *L*'s
    /// word); missing lanes default to lane 0's word.
    ///
    /// # Panics
    ///
    /// Panics if any bus bit is not a primary input, or `values` is empty.
    pub fn set_bus_lanes(&mut self, bus: &Bus, values: &[u64]) {
        assert!(!values.is_empty(), "set_bus_lanes needs at least one lane");
        for (bit, &net) in bus.iter().enumerate() {
            let mut word = 0u64;
            for lane in 0..LANES {
                let v = values.get(lane).copied().unwrap_or(values[0]);
                word |= ((v >> bit) & 1) << lane;
            }
            self.set_input_lanes(net, word);
        }
    }

    /// Propagates values through the combinational logic.
    ///
    /// Flip-flop outputs present their current state; call
    /// [`Simulator::step`] afterwards to latch the next state.
    pub fn eval(&mut self) {
        let nl = self.netlist;
        let transitions = !self.transition_rise.is_empty() || !self.transition_fall.is_empty();
        // Load primary inputs (stem faults on PIs apply here).
        for (pos, &net) in nl.inputs().iter().enumerate() {
            let mut v = self.input_words[pos];
            if let Some(m) = self.stem_inject.get(&net) {
                v = m.apply(v);
            }
            if transitions {
                v = self.apply_transition(net, v);
            }
            self.values[net.index()] = v;
        }
        // Present DFF state on DFF outputs (stem faults on Q apply here).
        for (k, &gid) in nl.dff_gates().iter().enumerate() {
            let q = nl.gate(gid).output;
            let mut v = self.state[k];
            if let Some(m) = self.stem_inject.get(&q) {
                v = m.apply(v);
            }
            if transitions {
                v = self.apply_transition(q, v);
            }
            self.values[q.index()] = v;
        }
        // Evaluate combinational gates in topological order.
        let mut in_buf: Vec<u64> = Vec::with_capacity(8);
        for &gid in nl.comb_order() {
            let gate = nl.gate(gid);
            in_buf.clear();
            for (pin, &inp) in gate.inputs.iter().enumerate() {
                let mut v = self.values[inp.index()];
                if !self.pin_inject.is_empty() {
                    if let Some(m) = self.pin_inject.get(&(gid, pin as u8)) {
                        v = m.apply(v);
                    }
                }
                in_buf.push(v);
            }
            let mut out = gate.kind.eval(&in_buf);
            if let Some(m) = self.stem_inject.get(&gate.output) {
                out = m.apply(out);
            }
            if transitions {
                out = self.apply_transition(gate.output, out);
            }
            self.values[gate.output.index()] = out;
        }
        if transitions {
            self.transition_primed = true;
        }
    }

    /// Latches flip-flop next-state (the value on each DFF's `d` pin).
    ///
    /// Must be called after [`Simulator::eval`] for the cycle.
    pub fn step(&mut self) {
        let nl = self.netlist;
        for (k, &gid) in nl.dff_gates().iter().enumerate() {
            let gate = nl.gate(gid);
            let mut d = self.values[gate.inputs[0].index()];
            if let Some(m) = self.pin_inject.get(&(gid, 0)) {
                d = m.apply(d);
            }
            self.state[k] = d;
        }
    }

    /// Flip-flop state words, parallel to [`Netlist::dff_gates`].
    pub(crate) fn dff_words_mut(&mut self) -> &mut [u64] {
        &mut self.state
    }

    /// Flip-flop state words, parallel to [`Netlist::dff_gates`].
    pub(crate) fn dff_words(&self) -> &[u64] {
        &self.state
    }

    /// The arming word of transition-fault net `net` (0 before its first
    /// eval).
    pub(crate) fn transition_prev(&self, net: NetId) -> u64 {
        self.transition_prev.get(&net).copied().unwrap_or(0)
    }

    /// Sets the arming word of `net` and marks the machine primed, as if
    /// it had already evaluated: how a machine resumes a transition
    /// fault's launch state mid-stimulus.
    pub(crate) fn set_transition_prev(&mut self, net: NetId, word: u64) {
        self.transition_prev.insert(net, word);
        self.transition_primed = true;
    }

    /// Current per-lane word on `net` (valid after [`Simulator::eval`]).
    pub fn value(&self, net: NetId) -> u64 {
        self.values[net.index()]
    }

    /// The word carried by `bus` in a single lane.
    pub fn bus_lane(&self, bus: &Bus, lane: usize) -> u64 {
        assert!(lane < LANES, "lane out of range");
        let mut word = 0u64;
        for (bit, &net) in bus.iter().enumerate() {
            word |= ((self.values[net.index()] >> lane) & 1) << bit;
        }
        word
    }

    /// The word carried by `bus` in lane 0 (the conventional reference lane).
    pub fn bus_value(&self, bus: &Bus) -> u64 {
        self.bus_lane(bus, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate::GateKind;
    use crate::netlist::NetlistBuilder;

    fn xor_netlist() -> Netlist {
        let mut b = NetlistBuilder::new("xor");
        let a = b.input("a");
        let c = b.input("b");
        let o = b.xor2(a, c);
        b.mark_output(o, "o");
        b.finish().unwrap()
    }

    #[test]
    fn combinational_eval_broadcast() {
        let n = xor_netlist();
        let mut sim = Simulator::new(&n);
        sim.set_input(n.inputs()[0], true);
        sim.set_input(n.inputs()[1], false);
        sim.eval();
        assert_eq!(sim.value(n.outputs()[0]), !0);
    }

    #[test]
    fn per_lane_inputs() {
        let n = xor_netlist();
        let mut sim = Simulator::new(&n);
        sim.set_input_lanes(n.inputs()[0], 0b0101);
        sim.set_input_lanes(n.inputs()[1], 0b0011);
        sim.eval();
        assert_eq!(sim.value(n.outputs()[0]) & 0xF, 0b0110);
    }

    #[test]
    fn bus_roundtrip() {
        let mut b = NetlistBuilder::new("buf4");
        let a = b.input_bus("a", 4);
        let o = b.bus_not(&a);
        b.mark_output_bus(&o, "o");
        let n = b.finish().unwrap();
        let bus_in = Bus::new(n.inputs().to_vec());
        let bus_out = Bus::new(n.outputs().to_vec());
        let mut sim = Simulator::new(&n);
        sim.set_bus(&bus_in, 0b1010);
        sim.eval();
        assert_eq!(sim.bus_value(&bus_out) & 0xF, 0b0101);
    }

    #[test]
    fn bus_lanes_transpose() {
        let mut b = NetlistBuilder::new("buf4");
        let a = b.input_bus("a", 4);
        for (i, &net) in a.iter().enumerate() {
            let o = b.gate(GateKind::Buf, &[net]);
            b.mark_output(o, &format!("o[{i}]"));
        }
        let n = b.finish().unwrap();
        let bus_in = Bus::new(n.inputs().to_vec());
        let bus_out = Bus::new(n.outputs().to_vec());
        let mut sim = Simulator::new(&n);
        sim.set_bus_lanes(&bus_in, &[0x3, 0xC, 0x5]);
        sim.eval();
        assert_eq!(sim.bus_lane(&bus_out, 0), 0x3);
        assert_eq!(sim.bus_lane(&bus_out, 1), 0xC);
        assert_eq!(sim.bus_lane(&bus_out, 2), 0x5);
        // Lanes beyond the provided values replicate lane 0.
        assert_eq!(sim.bus_lane(&bus_out, 9), 0x3);
    }

    #[test]
    fn dff_pipeline_delay() {
        let mut b = NetlistBuilder::new("pipe");
        let d = b.input("d");
        let q1 = b.dff(d);
        let q2 = b.dff(q1);
        b.mark_output(q2, "q2");
        let n = b.finish().unwrap();
        let mut sim = Simulator::new(&n);
        sim.set_input(n.inputs()[0], true);
        sim.eval();
        assert_eq!(sim.value(n.outputs()[0]), 0); // nothing latched yet
        sim.step();
        sim.eval();
        assert_eq!(sim.value(n.outputs()[0]), 0); // one stage through
        sim.step();
        sim.eval();
        assert_eq!(sim.value(n.outputs()[0]), !0); // both stages through
    }

    #[test]
    fn stem_fault_injection_per_lane() {
        let n = xor_netlist();
        let mut sim = Simulator::new(&n);
        let fault = Fault {
            site: FaultSite::Stem(n.inputs()[0]),
            stuck_value: true,
        };
        sim.inject_fault(&fault, 1 << 5);
        sim.set_input(n.inputs()[0], false);
        sim.set_input(n.inputs()[1], false);
        sim.eval();
        let out = sim.value(n.outputs()[0]);
        assert_eq!(out, 1 << 5); // only lane 5 sees a=1 -> xor=1
    }

    #[test]
    fn pin_fault_affects_single_gate() {
        // a feeds two gates; a pin fault on one branch must not disturb the
        // other.
        let mut b = NetlistBuilder::new("branch");
        let a = b.input("a");
        let x = b.gate(GateKind::Buf, &[a]);
        let y = b.gate(GateKind::Not, &[a]);
        b.mark_output(x, "x");
        b.mark_output(y, "y");
        let n = b.finish().unwrap();
        let buf_gate = n.driver(n.outputs()[0]).unwrap();
        let mut sim = Simulator::new(&n);
        sim.inject_fault(
            &Fault {
                site: FaultSite::Pin {
                    gate: buf_gate,
                    pin: 0,
                },
                stuck_value: true,
            },
            1 << 3,
        );
        sim.set_input(n.inputs()[0], false);
        sim.eval();
        assert_eq!(sim.value(n.outputs()[0]), 1 << 3); // buf sees stuck 1 in lane 3
        assert_eq!(sim.value(n.outputs()[1]), !0); // inverter unaffected
    }

    #[test]
    fn slow_to_rise_delays_the_edge_one_cycle() {
        // Single buffer: o = buf(a). Lane 1 carries a slow-to-rise on `a`.
        let mut b = NetlistBuilder::new("buf");
        let a = b.input("a");
        let o = b.gate(GateKind::Buf, &[a]);
        b.mark_output(o, "o");
        let n = b.finish().unwrap();
        let mut sim = Simulator::new(&n);
        let f = TransitionFault::slow_to_rise(n.inputs()[0]);
        sim.inject_transition_fault(&f, 1 << 1);
        // Cycle 0 (launch setup): a=0 everywhere.
        sim.set_input(n.inputs()[0], false);
        sim.eval();
        assert_eq!(sim.value(n.outputs()[0]), 0);
        // Cycle 1: a rises. Lane 1 is armed (saw 0) -> stays 0 one cycle.
        sim.set_input(n.inputs()[0], true);
        sim.eval();
        assert_eq!(sim.value(n.outputs()[0]), !(1u64 << 1));
        // Cycle 2: a still 1; the late edge has now arrived.
        sim.eval();
        assert_eq!(sim.value(n.outputs()[0]), !0);
    }

    #[test]
    fn slow_to_fall_holds_high_one_cycle() {
        let mut b = NetlistBuilder::new("buf");
        let a = b.input("a");
        let o = b.gate(GateKind::Buf, &[a]);
        b.mark_output(o, "o");
        let n = b.finish().unwrap();
        let mut sim = Simulator::new(&n);
        sim.inject_transition_fault(&TransitionFault::slow_to_fall(n.inputs()[0]), 1 << 2);
        sim.set_input(n.inputs()[0], true);
        sim.eval(); // launch setup: high everywhere, nothing armed before
        assert_eq!(sim.value(n.outputs()[0]), !0);
        sim.set_input(n.inputs()[0], false);
        sim.eval(); // armed lane 2 holds the stale 1
        assert_eq!(sim.value(n.outputs()[0]), 1 << 2);
        sim.eval(); // late fall arrives
        assert_eq!(sim.value(n.outputs()[0]), 0);
    }

    #[test]
    fn first_eval_cannot_capture_and_reset_disarms() {
        // Without an initialization pattern the very first eval must be
        // fault-free even when the value equals the transition's target.
        let mut b = NetlistBuilder::new("buf");
        let a = b.input("a");
        let o = b.gate(GateKind::Buf, &[a]);
        b.mark_output(o, "o");
        let n = b.finish().unwrap();
        let mut sim = Simulator::new(&n);
        sim.inject_transition_fault(&TransitionFault::slow_to_rise(n.inputs()[0]), 1 << 4);
        sim.set_input(n.inputs()[0], true);
        sim.eval();
        assert_eq!(sim.value(n.outputs()[0]), !0); // no stale 0 injected
                                                   // Arm by driving 0, then confirm reset() disarms.
        sim.set_input(n.inputs()[0], false);
        sim.eval();
        sim.reset();
        sim.set_input(n.inputs()[0], true);
        sim.eval();
        assert_eq!(sim.value(n.outputs()[0]), !0);
    }

    #[test]
    fn transition_arming_uses_computed_not_forced_values() {
        // 0 -> 1 -> 1: the forced value in the capture cycle is 0, but the
        // computed value is 1, so the lane must NOT stay forced (a stuck-at
        // would). The edge arrives exactly one cycle late.
        let mut b = NetlistBuilder::new("buf");
        let a = b.input("a");
        let o = b.gate(GateKind::Buf, &[a]);
        b.mark_output(o, "o");
        let n = b.finish().unwrap();
        let mut sim = Simulator::new(&n);
        sim.inject_transition_fault(&TransitionFault::slow_to_rise(n.inputs()[0]), 1);
        sim.set_input(n.inputs()[0], false);
        sim.eval();
        sim.set_input(n.inputs()[0], true);
        sim.eval();
        assert_eq!(sim.value(n.outputs()[0]) & 1, 0); // delayed
        sim.eval();
        assert_eq!(sim.value(n.outputs()[0]) & 1, 1); // arrived, not stuck
        sim.eval();
        assert_eq!(sim.value(n.outputs()[0]) & 1, 1);
    }

    #[test]
    fn transition_through_dff_latches_the_late_value() {
        // q = dff(a): a slow-to-rise on `a` delays what the flop captures.
        let mut b = NetlistBuilder::new("reg");
        let d = b.input("d");
        let q = b.dff(d);
        b.mark_output(q, "q");
        let n = b.finish().unwrap();
        let mut sim = Simulator::new(&n);
        sim.inject_transition_fault(&TransitionFault::slow_to_rise(n.inputs()[0]), 1 << 1);
        sim.set_input(n.inputs()[0], false);
        sim.eval();
        sim.step();
        sim.set_input(n.inputs()[0], true);
        sim.eval(); // lane 1 presents stale 0 on d
        sim.step(); // ... which the flop latches
        sim.eval();
        assert_eq!(sim.value(n.outputs()[0]), !(1u64 << 1));
    }

    #[test]
    fn reset_clears_state() {
        let mut b = NetlistBuilder::new("reg");
        let d = b.input("d");
        let q = b.dff(d);
        b.mark_output(q, "q");
        let n = b.finish().unwrap();
        let mut sim = Simulator::new(&n);
        sim.set_input(n.inputs()[0], true);
        sim.eval();
        sim.step();
        sim.eval();
        assert_eq!(sim.value(n.outputs()[0]), !0);
        sim.reset();
        sim.eval();
        assert_eq!(sim.value(n.outputs()[0]), 0);
    }
}
