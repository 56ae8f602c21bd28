//! Three-valued dual-rail (good, faulty) semantics for PODEM-style search.
//!
//! `sbst-tpg`'s PODEM keeps one [`Dual3`] per net for its current partial
//! input assignment and updates it by levelized event propagation, one
//! [`eval_dual_gate`] call per re-evaluated gate. [`eval3`] is the Kleene
//! semantics of one gate on one rail; [`eval_dual_reference`] walks
//! [`Netlist::comb_order`] once with [`eval_dual_gate`] and is the
//! from-scratch oracle the incremental state is checked against.

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

/// Kleene (three-valued) evaluation of one gate on one rail.
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

/// Dual-rail evaluation of one gate from the current net
/// values, with `fault` applied: a faulted input pin is overridden on the
/// faulty rail, and so is a faulted output stem. `good_in` / `faulty_in`
/// are caller-owned staging buffers.
///
/// This is the per-gate step of PODEM's incremental implication and of
/// [`eval_dual_reference`].
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

/// Dual-rail three-valued simulation of the whole netlist under a partial
/// primary-input assignment (`pi` in [`Netlist::inputs`] order) with
/// `fault` injected on the faulty rail: [`eval_dual_gate`] over
/// [`Netlist::comb_order`], one [`Dual3`] per net (indexable by
/// `NetId::index`). The oracle PODEM's incremental state is checked
/// against.
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netlist::NetlistBuilder;

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
        let values = eval_dual_reference(&n, &[Some(false), Some(true)], &fault);
        assert!(!values[a.index()].has_effect(), "stem must stay clean");
        assert!(values[y.index()].has_effect());
    }
}
