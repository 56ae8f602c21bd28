//! Differential oracle for architectural fault injection: a mounted
//! [`ArchFault`] evaluates on a shared compiled tape with one lane, and it
//! must agree with a fresh full-eval [`Simulator`] carrying the same fault
//! on every operation. Covered: the 32-bit ALU, shifter and multiplier,
//! under collapsed stem, pin and primary-input stem faults, with many
//! operations per mount so that nothing one operation leaves in the tape
//! simulator can leak into the next.

use std::sync::{Arc, OnceLock};

use proptest::prelude::*;
use sbst_components::alu::{AluFunc, AluOp};
use sbst_components::multiplier::MulOp;
use sbst_components::shifter::{ShiftFunc, ShiftOp};
use sbst_components::{alu, multiplier, shifter, Component};
use sbst_cpu::ArchFault;
use sbst_gates::{CompiledTape, Fault, FaultSite, Simulator};

/// A component compiled once per test binary, with its collapsed fault
/// list split by site kind.
struct Mountable {
    component: Component,
    tape: Arc<CompiledTape>,
    /// `[gate-output stems, pins, primary-input stems]`.
    faults: [Vec<Fault>; 3],
}

impl Mountable {
    fn new(component: Component) -> Self {
        let netlist = &component.netlist;
        let mut faults: [Vec<Fault>; 3] = Default::default();
        for fault in netlist.collapsed_faults() {
            let kind = match fault.site {
                FaultSite::Stem(net) if netlist.driver(net).is_some() => 0,
                FaultSite::Pin { .. } => 1,
                FaultSite::Stem(_) => 2,
            };
            faults[kind].push(fault);
        }
        for (kind, list) in faults.iter().enumerate() {
            assert!(
                !list.is_empty(),
                "{}: no faults of kind {kind}",
                netlist.name()
            );
        }
        Mountable {
            tape: Arc::new(CompiledTape::compile(netlist)),
            component,
            faults,
        }
    }

    /// The fault of `kind` picked by `pick`, mounted on the shared tape.
    fn mount(&self, kind: usize, pick: u64) -> (Fault, ArchFault) {
        let list = &self.faults[kind];
        let fault = list[(pick % list.len() as u64) as usize];
        let mounted = ArchFault::from_shared(&self.component, Arc::clone(&self.tape), fault);
        (fault, mounted)
    }

    /// A fresh full-eval simulator with `fault` in lane 0.
    fn oracle(&self, fault: &Fault) -> Simulator<'_> {
        let mut sim = Simulator::new(&self.component.netlist);
        sim.inject_fault(fault, 1);
        sim
    }
}

fn alu32() -> &'static Mountable {
    static CELL: OnceLock<Mountable> = OnceLock::new();
    CELL.get_or_init(|| Mountable::new(alu::alu(32)))
}

fn shifter32() -> &'static Mountable {
    static CELL: OnceLock<Mountable> = OnceLock::new();
    CELL.get_or_init(|| Mountable::new(shifter::shifter(32)))
}

fn multiplier32() -> &'static Mountable {
    static CELL: OnceLock<Mountable> = OnceLock::new();
    CELL.get_or_init(|| Mountable::new(multiplier::multiplier(32)))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn alu_tape_mount_matches_simulator(
        kind in 0usize..3,
        pick in any::<u64>(),
        ops in prop::collection::vec((0usize..8, any::<u32>(), any::<u32>()), 16..32),
    ) {
        let m = alu32();
        let c = &m.component;
        let (fault, mut mounted) = m.mount(kind, pick);
        for &(func, a, b) in &ops {
            let op = AluOp { func: AluFunc::ALL[func], a, b };
            let mut sim = m.oracle(&fault);
            sim.set_bus(c.ports.input("a"), a as u64);
            sim.set_bus(c.ports.input("b"), b as u64);
            sim.set_bus(c.ports.input("op"), op.func.encoding() as u64);
            sim.eval();
            let expected = (
                sim.bus_value(c.ports.output("result")) as u32,
                sim.bus_value(c.ports.output("zero")) & 1 == 1,
            );
            prop_assert_eq!(mounted.eval_alu(&op), Some(expected), "{} on {:?}", fault, op);
        }
    }

    #[test]
    fn shifter_tape_mount_matches_simulator(
        kind in 0usize..3,
        pick in any::<u64>(),
        ops in prop::collection::vec((0usize..3, any::<u32>(), 0u8..32), 16..32),
    ) {
        let m = shifter32();
        let c = &m.component;
        let (fault, mut mounted) = m.mount(kind, pick);
        for &(func, data, amount) in &ops {
            let op = ShiftOp { func: ShiftFunc::ALL[func], data, amount };
            let mut sim = m.oracle(&fault);
            sim.set_bus(c.ports.input("data"), data as u64);
            sim.set_bus(c.ports.input("amount"), amount as u64);
            sim.set_bus(c.ports.input("op"), op.func.encoding() as u64);
            sim.eval();
            let expected = sim.bus_value(c.ports.output("result")) as u32;
            prop_assert_eq!(mounted.eval_shift(&op), Some(expected), "{} on {:?}", fault, op);
        }
    }

    #[test]
    fn multiplier_tape_mount_matches_simulator(
        kind in 0usize..3,
        pick in any::<u64>(),
        ops in prop::collection::vec((any::<u32>(), any::<u32>()), 16..32),
    ) {
        let m = multiplier32();
        let c = &m.component;
        let (fault, mut mounted) = m.mount(kind, pick);
        for &(a, b) in &ops {
            let mut sim = m.oracle(&fault);
            sim.set_bus(c.ports.input("a"), a as u64);
            sim.set_bus(c.ports.input("b"), b as u64);
            sim.eval();
            let expected = sim.bus_value(c.ports.output("product"));
            prop_assert_eq!(
                mounted.eval_mul(&MulOp { a, b }),
                Some(expected),
                "{} on {}*{}", fault, a, b
            );
        }
    }
}
