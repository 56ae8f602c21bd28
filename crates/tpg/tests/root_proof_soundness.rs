//! Soundness oracle for PODEM's redundancy verdicts under op constraints.
//!
//! Every `Redundant` verdict — whether the search proved it at the root,
//! before its first decision, or by exhausting its decision space — must
//! survive exhaustive fault simulation: no input vector the constraints
//! allow may detect the fault.

use sbst_components::{alu, shifter, Component};
use sbst_gates::{FaultSimulator, Stimulus};
use sbst_tpg::{op_constraints, Atpg, AtpgConfig, AtpgOutcome};

/// Runs PODEM alone (no random phase) under every encoding the `op` bus
/// can hold and checks each `Redundant` verdict against all constrained
/// input vectors. Returns the number of verdicts checked.
fn redundant_verdicts_are_undetectable(component: &Component) -> usize {
    let netlist = &component.netlist;
    let faults = netlist.collapsed_faults();
    let op_width = component.ports.input("op").width();
    let mut checked = 0;
    for encoding in 0..1u8 << op_width {
        let constraints = op_constraints(component, encoding);
        let result = Atpg::new(netlist)
            .with_constraints(&constraints)
            .with_config(AtpgConfig {
                random_patterns: 0,
                ..AtpgConfig::default()
            })
            .run(&faults);
        let redundant: Vec<_> = faults
            .iter()
            .zip(&result.outcomes)
            .filter(|(_, o)| **o == AtpgOutcome::Redundant)
            .map(|(f, _)| *f)
            .collect();

        // Every vector over the free inputs, with the op bus pinned.
        let free: Vec<usize> = (0..netlist.inputs().len())
            .filter(|&pos| !constraints.iter().any(|c| c.net == netlist.inputs()[pos]))
            .collect();
        let mut stimulus = Stimulus::new();
        for vector in 0..1u64 << free.len() {
            let mut pattern = vec![false; netlist.inputs().len()];
            for c in &constraints {
                pattern[netlist.input_position(c.net).unwrap()] = c.value;
            }
            for (bit, &pos) in free.iter().enumerate() {
                pattern[pos] = (vector >> bit) & 1 == 1;
            }
            stimulus.push_pattern(&pattern);
        }
        let exhaustive = FaultSimulator::new(netlist).simulate(&redundant, &stimulus);
        for (fault, detected) in redundant.iter().zip(&exhaustive.detected) {
            assert!(
                !detected,
                "{}: op {encoding:#b} verdict Redundant, but {fault:?} is detectable",
                netlist.name()
            );
        }
        checked += redundant.len();
    }
    checked
}

#[test]
fn alu_redundant_verdicts_survive_exhaustive_simulation() {
    let checked = redundant_verdicts_are_undetectable(&alu::alu(4));
    assert!(checked > 0, "no verdict was checked");
}

#[test]
fn shifter_redundant_verdicts_survive_exhaustive_simulation() {
    let checked = redundant_verdicts_are_undetectable(&shifter::shifter(8));
    assert!(checked > 0, "no verdict was checked");
}
