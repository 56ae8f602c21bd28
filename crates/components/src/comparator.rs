//! Magnitude/equality comparator.
//!
//! The paper's list of regular processor components includes comparators
//! (Section 3.3: "arithmetic and logic components, shifters, comparators,
//! multiplexers, registers and register files"). Cores with a dedicated
//! branch comparator (rather than reusing the ALU subtractor, as the
//! Plasma does) get no routine of their own: every routine's branches
//! already drive it, so it is graded from the traced branch operands
//! ([`stimulus`]).

use sbst_gates::{NetId, NetlistBuilder, Stimulus};

use crate::{Component, ComponentClass, ComponentKind, PatternBuilder, PortMap};

/// One comparator excitation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CmpOp {
    /// First operand.
    pub a: u32,
    /// Second operand.
    pub b: u32,
}

/// Builds a `width`-bit comparator.
///
/// Ports: inputs `a[width]`, `b[width]`; outputs `eq`, `lt_u` (unsigned
/// less-than), `lt_s` (signed less-than).
///
/// # Panics
///
/// Panics if `width` is smaller than 2 or greater than 32.
pub fn comparator(width: usize) -> Component {
    assert!((2..=32).contains(&width), "comparator width must be 2..=32");
    let mut b = NetlistBuilder::new(&format!("cmp{width}"));
    let a_bus = b.input_bus("a", width);
    let b_bus = b.input_bus("b", width);

    // Per-bit equality.
    let eq_bits: Vec<NetId> = (0..width)
        .map(|i| b.gate(sbst_gates::GateKind::Xnor, &[a_bus.net(i), b_bus.net(i)]))
        .collect();
    let eq = b.reduce_and(&eq_bits.clone().into_iter().collect());

    // Unsigned less-than: MSB-first prefix chain.
    let msb = width - 1;
    let na = b.not(a_bus.net(msb));
    let mut lt = b.and2(na, b_bus.net(msb));
    let mut prefix = eq_bits[msb];
    for i in (0..msb).rev() {
        let na_i = b.not(a_bus.net(i));
        let t = b.and2(na_i, b_bus.net(i));
        let term = b.and2(prefix, t);
        lt = b.or2(lt, term);
        if i > 0 {
            prefix = b.and2(prefix, eq_bits[i]);
        }
    }
    // Signed less-than: flip the verdict when the sign bits differ.
    let signs_differ = b.xor2(a_bus.net(msb), b_bus.net(msb));
    let lt_s = b.xor2(lt, signs_differ);

    b.mark_output(eq, "eq");
    b.mark_output(lt, "lt_u");
    b.mark_output(lt_s, "lt_s");

    let mut ports = PortMap::new();
    ports.add_input("a", a_bus);
    ports.add_input("b", b_bus);
    ports.add_output("eq", eq.into());
    ports.add_output("lt_u", lt.into());
    ports.add_output("lt_s", lt_s.into());

    let netlist = b
        .finish()
        .expect("comparator netlist is structurally valid");
    let area = netlist.gate_equivalents();
    Component {
        netlist,
        ports,
        kind: ComponentKind::Comparator,
        class: ComponentClass::DataVisible,
        width,
        area_split: vec![(ComponentClass::DataVisible, area)],
    }
}

/// Functional oracle: `(eq, lt_u, lt_s)`.
pub fn model(a: u32, b: u32, width: usize) -> (bool, bool, bool) {
    let mask: u32 = if width == 32 {
        u32::MAX
    } else {
        (1u32 << width) - 1
    };
    let (a, b) = (a & mask, b & mask);
    let shift = 32 - width;
    let sa = ((a << shift) as i32) >> shift;
    let sb = ((b << shift) as i32) >> shift;
    (a == b, a < b, sa < sb)
}

/// Converts an operation trace into a fault-simulation stimulus.
pub fn stimulus(cmp: &Component, ops: &[CmpOp]) -> Stimulus {
    let mut stim = Stimulus::new();
    for op in ops {
        let bits = PatternBuilder::new(cmp)
            .set("a", op.a as u64)
            .set("b", op.b as u64)
            .into_bits();
        stim.push_pattern(&bits);
    }
    stim
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbst_gates::Simulator;

    #[test]
    fn exhaustive_4bit_against_oracle() {
        let c = comparator(4);
        let mut sim = Simulator::new(&c.netlist);
        for a in 0..16u32 {
            for b in 0..16u32 {
                sim.set_bus(c.ports.input("a"), a as u64);
                sim.set_bus(c.ports.input("b"), b as u64);
                sim.eval();
                let (eq, lt_u, lt_s) = model(a, b, 4);
                assert_eq!(
                    sim.bus_value(c.ports.output("eq")) & 1 == 1,
                    eq,
                    "{a} eq {b}"
                );
                assert_eq!(
                    sim.bus_value(c.ports.output("lt_u")) & 1 == 1,
                    lt_u,
                    "{a} ltu {b}"
                );
                assert_eq!(
                    sim.bus_value(c.ports.output("lt_s")) & 1 == 1,
                    lt_s,
                    "{a} lts {b}"
                );
            }
        }
    }

    #[test]
    fn wide_corners() {
        let c = comparator(32);
        let mut sim = Simulator::new(&c.netlist);
        for (a, b) in [
            (0u32, u32::MAX),
            (u32::MAX, 0),
            (0x8000_0000, 0x7FFF_FFFF),
            (0x7FFF_FFFF, 0x8000_0000),
            (12345, 12345),
        ] {
            sim.set_bus(c.ports.input("a"), a as u64);
            sim.set_bus(c.ports.input("b"), b as u64);
            sim.eval();
            let (eq, lt_u, lt_s) = model(a, b, 32);
            assert_eq!(sim.bus_value(c.ports.output("eq")) & 1 == 1, eq);
            assert_eq!(sim.bus_value(c.ports.output("lt_u")) & 1 == 1, lt_u);
            assert_eq!(sim.bus_value(c.ports.output("lt_s")) & 1 == 1, lt_s);
        }
    }
}
