//! Compiled three-valued dual-rail evaluation for PODEM-style search.
//!
//! `sbst-tpg`'s PODEM implication step needs a (good, faulty) three-valued
//! simulation of the whole cone after every decision — thousands of times
//! per target fault. The interpreted approach (walk [`Netlist::comb_order`],
//! gather each gate's inputs into freshly-built `Vec`s, probe the fault site
//! against every pin of every gate) spends most of its time on bookkeeping.
//!
//! [`Tape3`] borrows the design of the wide compiled engine in
//! [`crate::CompiledTape`]: the levelized netlist compiles **once** into a
//! flat list of one op per gate with precomputed operand indices into a
//! shared pool, and each evaluation replays the ops straight-line. Values
//! are scalar three-valued pairs ([`Dual3`]), not bit-parallel words —
//! PODEM works one partial assignment at a time — and every gate output
//! stays readable, as backtrace and the D-frontier scan need.
//!
//! The fault is bound per evaluation to two precomputed hooks (a stem net
//! and/or the single op owning a faulted pin), so the hot loop never matches
//! fault sites against pins.

use crate::fault::{Fault, FaultSite};
use crate::gate::{GateId, GateKind};
use crate::netlist::Netlist;

/// Three-valued logic value: `Some(v)` is a known Boolean, `None` is X.
pub type T3 = Option<bool>;

/// Dual-rail (good-machine, faulty-machine) three-valued net value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Dual3 {
    /// Fault-free value.
    pub good: T3,
    /// Value with the fault injected.
    pub faulty: T3,
}

impl Dual3 {
    /// Whether the net carries a definite fault effect (D or D̄).
    pub fn has_effect(self) -> bool {
        matches!((self.good, self.faulty), (Some(g), Some(f)) if g != f)
    }

    /// Whether either rail is still X.
    pub fn is_x(self) -> bool {
        self.good.is_none() || self.faulty.is_none()
    }
}

/// Kleene (three-valued) evaluation of one gate — the scalar reference
/// semantics the compiled tape must agree with, exposed for differential
/// tests.
pub fn eval3(kind: GateKind, inputs: &[T3]) -> T3 {
    match kind {
        GateKind::Const0 => Some(false),
        GateKind::Const1 => Some(true),
        GateKind::Buf => inputs[0],
        GateKind::Not => inputs[0].map(|v| !v),
        GateKind::And | GateKind::Nand => {
            let v = if inputs.contains(&Some(false)) {
                Some(false)
            } else if inputs.iter().all(|i| *i == Some(true)) {
                Some(true)
            } else {
                None
            };
            if kind == GateKind::Nand {
                v.map(|x| !x)
            } else {
                v
            }
        }
        GateKind::Or | GateKind::Nor => {
            let v = if inputs.contains(&Some(true)) {
                Some(true)
            } else if inputs.iter().all(|i| *i == Some(false)) {
                Some(false)
            } else {
                None
            };
            if kind == GateKind::Nor {
                v.map(|x| !x)
            } else {
                v
            }
        }
        GateKind::Xor => match (inputs[0], inputs[1]) {
            (Some(a), Some(b)) => Some(a ^ b),
            _ => None,
        },
        GateKind::Xnor => match (inputs[0], inputs[1]) {
            (Some(a), Some(b)) => Some(!(a ^ b)),
            _ => None,
        },
        GateKind::Mux2 => match inputs[0] {
            Some(false) => inputs[1],
            Some(true) => inputs[2],
            None => match (inputs[1], inputs[2]) {
                (Some(a), Some(b)) if a == b => Some(a),
                _ => None,
            },
        },
        GateKind::Dff => unreachable!("three-valued evaluation is combinational"),
    }
}

/// Interpreted dual-rail evaluation of one gate from the current net
/// values, with `fault` applied: a faulted input pin is overridden on the
/// faulty rail, and so is a faulted output stem. `good_in` / `faulty_in`
/// are caller-owned staging buffers.
///
/// This is the reference semantics [`Tape3`] compiles away, and the
/// per-gate step of PODEM's incremental implication.
// PODEM's implication loop in `sbst-tpg` calls this once per gate event;
// without the hint it would not inline across the crate boundary.
#[inline]
pub fn eval_dual_gate(
    netlist: &Netlist,
    gid: GateId,
    fault: &Fault,
    values: &[Dual3],
    good_in: &mut Vec<T3>,
    faulty_in: &mut Vec<T3>,
) -> Dual3 {
    let gate = netlist.gate(gid);
    good_in.clear();
    faulty_in.clear();
    for (pin, &inp) in gate.inputs.iter().enumerate() {
        let dr = values[inp.index()];
        good_in.push(dr.good);
        let mut f = dr.faulty;
        if let FaultSite::Pin { gate: fg, pin: fp } = fault.site {
            if fg == gid && fp as usize == pin {
                f = Some(fault.stuck_value);
            }
        }
        faulty_in.push(f);
    }
    let mut dr = Dual3 {
        good: eval3(gate.kind, good_in),
        faulty: eval3(gate.kind, faulty_in),
    };
    if fault.site == FaultSite::Stem(gate.output) {
        dr.faulty = Some(fault.stuck_value);
    }
    dr
}

/// Interpreted dual-rail three-valued simulation: [`eval_dual_gate`] over
/// [`Netlist::comb_order`]. The differential-testing oracle for
/// [`Tape3::eval_into`], with the same arguments and result.
pub fn eval_dual_reference(netlist: &Netlist, pi: &[T3], fault: &Fault) -> Vec<Dual3> {
    let mut values = vec![Dual3::default(); netlist.net_count()];
    for (pos, &net) in netlist.inputs().iter().enumerate() {
        let v = pi[pos];
        let mut dr = Dual3 { good: v, faulty: v };
        if fault.site == FaultSite::Stem(net) {
            dr.faulty = Some(fault.stuck_value);
        }
        values[net.index()] = dr;
    }
    let mut good_in = Vec::new();
    let mut faulty_in = Vec::new();
    for &gid in netlist.comb_order() {
        let out = netlist.gate(gid).output;
        values[out.index()] =
            eval_dual_gate(netlist, gid, fault, &values, &mut good_in, &mut faulty_in);
    }
    values
}

/// One compiled gate: its kind, output net and operand slice in the pool.
#[derive(Debug, Clone, Copy)]
struct Op3 {
    kind: GateKind,
    out: u32,
    off: u32,
    len: u32,
}

/// A combinational netlist compiled for repeated dual-rail three-valued
/// evaluation. Compile once per (netlist, search campaign); evaluate with
/// [`Tape3::eval_into`] reusing a caller-owned value buffer.
#[derive(Debug)]
pub struct Tape3<'a> {
    netlist: &'a Netlist,
    ops: Vec<Op3>,
    pool: Vec<u32>,
    /// Gate index → op index (`u32::MAX` for DFFs, which cannot occur here).
    op_of_gate: Vec<u32>,
}

impl<'a> Tape3<'a> {
    /// Compiles the levelized netlist into a flat three-valued op tape.
    ///
    /// # Panics
    ///
    /// Panics if the netlist is sequential.
    pub fn compile(netlist: &'a Netlist) -> Self {
        assert!(
            netlist.is_combinational(),
            "Tape3 requires a combinational netlist"
        );
        let mut ops = Vec::with_capacity(netlist.comb_order().len());
        let mut pool = Vec::new();
        let mut op_of_gate = vec![u32::MAX; netlist.gate_count()];
        for &gid in netlist.comb_order() {
            let gate = netlist.gate(gid);
            let off = pool.len() as u32;
            pool.extend(gate.inputs.iter().map(|n| n.index() as u32));
            op_of_gate[gid.index()] = ops.len() as u32;
            ops.push(Op3 {
                kind: gate.kind,
                out: gate.output.index() as u32,
                off,
                len: gate.inputs.len() as u32,
            });
        }
        Tape3 {
            netlist,
            ops,
            pool,
            op_of_gate,
        }
    }

    /// The netlist this tape was compiled from.
    pub fn netlist(&self) -> &'a Netlist {
        self.netlist
    }

    /// Dual-rail three-valued simulation of the whole netlist under a
    /// partial primary-input assignment (`pi` in [`Netlist::inputs`] order)
    /// with `fault` injected on the faulty rail.
    ///
    /// `values` is cleared and refilled with one [`Dual3`] per net
    /// (indexable by `NetId::index`); pass the same buffer across calls to
    /// avoid reallocation.
    pub fn eval_into(&self, pi: &[T3], fault: &Fault, values: &mut Vec<Dual3>) {
        values.clear();
        values.resize(self.netlist.net_count(), Dual3::default());

        // Bind the fault to its hooks once, outside the hot loop.
        let stem_net: Option<u32> = match fault.site {
            FaultSite::Stem(net) => Some(net.index() as u32),
            FaultSite::Pin { .. } => None,
        };
        let pin_hook: Option<(u32, u32)> = match fault.site {
            FaultSite::Pin { gate, pin } => Some((self.op_of_gate[gate.index()], pin as u32)),
            FaultSite::Stem(_) => None,
        };

        for (pos, &net) in self.netlist.inputs().iter().enumerate() {
            let v = pi[pos];
            let mut dr = Dual3 { good: v, faulty: v };
            if stem_net == Some(net.index() as u32) {
                dr.faulty = Some(fault.stuck_value);
            }
            values[net.index()] = dr;
        }

        for (op_index, op) in self.ops.iter().enumerate() {
            let operands = &self.pool[op.off as usize..(op.off + op.len) as usize];
            let mut dr = match pin_hook {
                Some((fop, fpin)) if fop == op_index as u32 => {
                    // The single op owning the faulted pin: re-evaluate the
                    // faulty rail with the pin overridden.
                    eval_op_pin_fault(op.kind, operands, values, fpin, fault.stuck_value)
                }
                _ => eval_op(op.kind, operands, values),
            };
            if stem_net == Some(op.out) {
                dr.faulty = Some(fault.stuck_value);
            }
            values[op.out as usize] = dr;
        }
    }
}

/// Fast-path dual-rail evaluation of one op from the value array.
#[inline]
fn eval_op(kind: GateKind, operands: &[u32], values: &[Dual3]) -> Dual3 {
    match kind {
        GateKind::Const0 => known(false),
        GateKind::Const1 => known(true),
        GateKind::Buf => values[operands[0] as usize],
        GateKind::Not => {
            let a = values[operands[0] as usize];
            Dual3 {
                good: a.good.map(|v| !v),
                faulty: a.faulty.map(|v| !v),
            }
        }
        GateKind::And => and_fold(operands, values),
        GateKind::Nand => invert(and_fold(operands, values)),
        GateKind::Or => or_fold(operands, values),
        GateKind::Nor => invert(or_fold(operands, values)),
        GateKind::Xor => xor_fold(operands, values),
        GateKind::Xnor => invert(xor_fold(operands, values)),
        GateKind::Mux2 => {
            let s = values[operands[0] as usize];
            let d0 = values[operands[1] as usize];
            let d1 = values[operands[2] as usize];
            Dual3 {
                good: mux3(s.good, d0.good, d1.good),
                faulty: mux3(s.faulty, d0.faulty, d1.faulty),
            }
        }
        GateKind::Dff => unreachable!("Tape3 is combinational"),
    }
}

/// Slow-path evaluation for the one op whose input pin carries the fault:
/// the good rail is computed normally, the faulty rail with pin `fpin`
/// forced to `stuck`.
fn eval_op_pin_fault(
    kind: GateKind,
    operands: &[u32],
    values: &[Dual3],
    fpin: u32,
    stuck: bool,
) -> Dual3 {
    let good_in: Vec<T3> = operands.iter().map(|&n| values[n as usize].good).collect();
    let faulty_in: Vec<T3> = operands
        .iter()
        .enumerate()
        .map(|(pin, &n)| {
            if pin as u32 == fpin {
                Some(stuck)
            } else {
                values[n as usize].faulty
            }
        })
        .collect();
    Dual3 {
        good: eval3(kind, &good_in),
        faulty: eval3(kind, &faulty_in),
    }
}

#[inline]
fn known(v: bool) -> Dual3 {
    Dual3 {
        good: Some(v),
        faulty: Some(v),
    }
}

#[inline]
fn invert(dr: Dual3) -> Dual3 {
    Dual3 {
        good: dr.good.map(|v| !v),
        faulty: dr.faulty.map(|v| !v),
    }
}

/// Kleene AND over both rails in one pass.
#[inline]
fn and_fold(operands: &[u32], values: &[Dual3]) -> Dual3 {
    let mut good_all_true = true;
    let mut good_false = false;
    let mut faulty_all_true = true;
    let mut faulty_false = false;
    for &n in operands {
        let dr = values[n as usize];
        match dr.good {
            Some(false) => good_false = true,
            Some(true) => {}
            None => good_all_true = false,
        }
        match dr.faulty {
            Some(false) => faulty_false = true,
            Some(true) => {}
            None => faulty_all_true = false,
        }
    }
    Dual3 {
        good: resolve_and(good_false, good_all_true),
        faulty: resolve_and(faulty_false, faulty_all_true),
    }
}

#[inline]
fn resolve_and(saw_false: bool, all_true: bool) -> T3 {
    if saw_false {
        Some(false)
    } else if all_true {
        Some(true)
    } else {
        None
    }
}

#[inline]
fn or_fold(operands: &[u32], values: &[Dual3]) -> Dual3 {
    let mut good_all_false = true;
    let mut good_true = false;
    let mut faulty_all_false = true;
    let mut faulty_true = false;
    for &n in operands {
        let dr = values[n as usize];
        match dr.good {
            Some(true) => good_true = true,
            Some(false) => {}
            None => good_all_false = false,
        }
        match dr.faulty {
            Some(true) => faulty_true = true,
            Some(false) => {}
            None => faulty_all_false = false,
        }
    }
    Dual3 {
        good: resolve_or(good_true, good_all_false),
        faulty: resolve_or(faulty_true, faulty_all_false),
    }
}

#[inline]
fn resolve_or(saw_true: bool, all_false: bool) -> T3 {
    if saw_true {
        Some(true)
    } else if all_false {
        Some(false)
    } else {
        None
    }
}

#[inline]
fn xor_fold(operands: &[u32], values: &[Dual3]) -> Dual3 {
    let a = values[operands[0] as usize];
    let b = values[operands[1] as usize];
    Dual3 {
        good: xor3(a.good, b.good),
        faulty: xor3(a.faulty, b.faulty),
    }
}

#[inline]
fn xor3(a: T3, b: T3) -> T3 {
    match (a, b) {
        (Some(a), Some(b)) => Some(a ^ b),
        _ => None,
    }
}

#[inline]
fn mux3(s: T3, d0: T3, d1: T3) -> T3 {
    match s {
        Some(false) => d0,
        Some(true) => d1,
        None => match (d0, d1) {
            (Some(a), Some(b)) if a == b => Some(a),
            _ => None,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netlist::NetlistBuilder;
    use crate::NetId;

    fn full_adder() -> Netlist {
        let mut b = NetlistBuilder::new("fa");
        let a = b.input("a");
        let x = b.input("x");
        let ci = b.input("ci");
        let axb = b.xor2(a, x);
        let sum = b.xor2(axb, ci);
        let t1 = b.and2(a, x);
        let t2 = b.and2(axb, ci);
        let co = b.or2(t1, t2);
        b.mark_output(sum, "sum");
        b.mark_output(co, "co");
        b.finish().unwrap()
    }

    #[test]
    fn tape_matches_reference_on_adder_all_faults_and_assignments() {
        let n = full_adder();
        let tape = Tape3::compile(&n);
        let faults = n.all_faults();
        let mut values = Vec::new();
        // All 27 three-valued input assignments.
        for code in 0..27u32 {
            let mut c = code;
            let pi: Vec<T3> = (0..3)
                .map(|_| {
                    let v = match c % 3 {
                        0 => None,
                        1 => Some(false),
                        _ => Some(true),
                    };
                    c /= 3;
                    v
                })
                .collect();
            for fault in &faults {
                tape.eval_into(&pi, fault, &mut values);
                assert_eq!(
                    values,
                    eval_dual_reference(&n, &pi, fault),
                    "fault {fault:?} pi {pi:?}"
                );
            }
        }
    }

    #[test]
    fn buffer_is_reused_across_calls() {
        let n = full_adder();
        let tape = Tape3::compile(&n);
        let fault = Fault::stem_sa0(n.outputs()[0]);
        let mut values = Vec::new();
        tape.eval_into(&[Some(true), Some(true), None], &fault, &mut values);
        let first = values.clone();
        // A second call with different inputs fully overwrites the buffer.
        tape.eval_into(&[None, None, None], &fault, &mut values);
        assert_ne!(values, first);
        tape.eval_into(&[Some(true), Some(true), None], &fault, &mut values);
        assert_eq!(values, first);
    }

    #[test]
    fn pin_fault_only_poisons_the_faulted_pin() {
        // y = a AND b with pin-0 stuck-at-1: driving a=0, b=1 must show the
        // effect at y (good 0, faulty 1), while the stem of `a` stays clean.
        let mut b = NetlistBuilder::new("pin");
        let a = b.input("a");
        let x = b.input("b");
        let y = b.and2(a, x);
        b.mark_output(y, "y");
        let n = b.finish().unwrap();
        let fault = Fault {
            site: FaultSite::Pin {
                gate: GateId(0),
                pin: 0,
            },
            stuck_value: true,
        };
        let tape = Tape3::compile(&n);
        let mut values = Vec::new();
        tape.eval_into(&[Some(false), Some(true)], &fault, &mut values);
        let a_net: NetId = n.inputs()[0];
        assert!(!values[a_net.index()].has_effect(), "stem must stay clean");
        assert!(values[n.outputs()[0].index()].has_effect());
    }

    #[test]
    #[should_panic(expected = "combinational")]
    fn sequential_netlist_rejected() {
        let mut b = NetlistBuilder::new("seq");
        let a = b.input("a");
        let q = b.dff(a);
        b.mark_output(q, "q");
        let n = b.finish().unwrap();
        let _ = Tape3::compile(&n);
    }
}
