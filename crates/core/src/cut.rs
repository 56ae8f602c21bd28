//! Components under test.

use sbst_components::{
    alu, comparator, control, divider, memctrl, misc, multiplier, pipeline, regfile, shifter,
    Component, ComponentClass, ComponentKind,
};

/// A component under test: a gate-level [`Component`] plus the identity the
/// methodology uses to pick exciting instructions and code styles.
///
/// Constructors mirror the paper's Table-1 inventory. Widths are
/// parameterized so tests can run on small instances while the benchmark
/// harness uses the full 32-bit processor.
#[derive(Debug, Clone)]
pub struct Cut {
    /// The gate-level component.
    pub component: Component,
}

impl Cut {
    /// The ALU (D-VC).
    pub fn alu(width: usize) -> Self {
        Cut {
            component: alu::alu(width),
        }
    }

    /// A dedicated branch/magnitude comparator (D-VC; not part of the
    /// Plasma-style Table-1 inventory, which reuses the ALU subtractor for
    /// comparisons, but graded as a side effect of the branch stream on
    /// cores that have one).
    pub fn comparator(width: usize) -> Self {
        Cut {
            component: comparator::comparator(width),
        }
    }

    /// The barrel shifter (D-VC, irregular structure).
    pub fn shifter(width: usize) -> Self {
        Cut {
            component: shifter::shifter(width),
        }
    }

    /// The parallel array multiplier (D-VC, largest CUT).
    pub fn multiplier(width: usize) -> Self {
        Cut {
            component: multiplier::multiplier(width),
        }
    }

    /// The serial restoring divider (sequential D-VC).
    pub fn divider(width: usize) -> Self {
        Cut {
            component: divider::divider(width),
        }
    }

    /// The register file (D-VC).
    pub fn regfile(regs: usize, width: usize) -> Self {
        Cut {
            component: regfile::regfile(regs, width),
        }
    }

    /// The memory controller datapath (mixed D-VC / A-VC / PVC).
    pub fn memctrl() -> Self {
        Cut {
            component: memctrl::memctrl(),
        }
    }

    /// The control decoder (PVC).
    pub fn control() -> Self {
        Cut {
            component: control::control(),
        }
    }

    /// Pipeline registers and forwarding muxes (HC).
    pub fn pipeline(width: usize) -> Self {
        Cut {
            component: pipeline::pipeline(width),
        }
    }

    /// The PC/branch address unit (M-VC).
    pub fn pc_unit(width: usize, offset_bits: usize) -> Self {
        Cut {
            component: misc::pc_unit(width, offset_bits),
        }
    }

    /// The full Table-1 component inventory at processor scale
    /// (32-bit datapath, 32×32 register file, 16-bit branch offsets).
    pub fn processor_inventory() -> Vec<Cut> {
        vec![
            Cut::multiplier(32),
            Cut::divider(32),
            Cut::regfile(32, 32),
            Cut::memctrl(),
            Cut::shifter(32),
            Cut::alu(32),
            Cut::control(),
            Cut::pipeline(32),
            Cut::pc_unit(32, 16),
        ]
    }

    /// The 8-bit inventory of the smoke Table 1 (`table1 --smoke`): the
    /// ALU and shifter D-VCs, the control PVC and the two side-effect rows.
    pub fn smoke_inventory() -> Vec<Cut> {
        vec![
            Cut::alu(8),
            Cut::shifter(8),
            Cut::control(),
            Cut::pipeline(8),
            Cut::pc_unit(8, 4),
        ]
    }

    /// A reduced-width inventory for fast tests (8-bit datapath, 8×8
    /// register file).
    pub fn small_inventory() -> Vec<Cut> {
        vec![
            Cut::multiplier(8),
            Cut::divider(8),
            Cut::regfile(8, 8),
            Cut::memctrl(),
            Cut::shifter(8),
            Cut::alu(8),
            Cut::control(),
            Cut::pipeline(8),
            Cut::pc_unit(8, 4),
        ]
    }

    /// Display name (the paper's Table-1 row label).
    pub fn name(&self) -> &'static str {
        self.component.kind.display_name()
    }

    /// The component kind.
    pub fn kind(&self) -> ComponentKind {
        self.component.kind
    }

    /// The Phase-B class.
    pub fn class(&self) -> ComponentClass {
        self.component.class
    }

    /// Whether the CUT gets a dedicated self-test routine: the D-VCs other
    /// than the branch comparator, and the PVC. The others are graded from
    /// the side effects of those routines.
    pub(crate) fn gets_routine(&self) -> bool {
        crate::routine::dedicated_style(self.kind()).is_some()
    }

    /// NAND2-equivalent area.
    pub fn gate_equivalents(&self) -> u32 {
        self.component.gate_equivalents()
    }

    /// Number of collapsed stuck-at faults.
    pub fn fault_count(&self) -> usize {
        self.component.netlist.collapsed_faults().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inventory_covers_table1() {
        let cuts = Cut::small_inventory();
        assert_eq!(cuts.len(), 9);
        let kinds: Vec<ComponentKind> = cuts.iter().map(Cut::kind).collect();
        assert!(kinds.contains(&ComponentKind::Multiplier));
        assert!(kinds.contains(&ComponentKind::ControlLogic));
        assert!(kinds.contains(&ComponentKind::Pipeline));
    }

    #[test]
    fn dvcs_dominate_area() {
        // The paper: D-VCs are 92 % of the processor area. The small
        // inventory skews towards the fixed-size control/memctrl blocks, so
        // only require majority here; the full-width figure is checked by
        // the integration suite and the Table-1 harness.
        let cuts = Cut::small_inventory();
        let total: u32 = cuts.iter().map(Cut::gate_equivalents).sum();
        let dvc: u32 = cuts
            .iter()
            .flat_map(|c| c.component.area_split.iter())
            .filter(|(class, _)| *class == ComponentClass::DataVisible)
            .map(|(_, a)| a)
            .sum();
        assert!(
            dvc as f64 / total as f64 > 0.6,
            "D-VC fraction {}",
            dvc as f64 / total as f64
        );
    }

    #[test]
    fn names_match_paper_rows() {
        assert_eq!(Cut::alu(8).name(), "ALU");
        assert_eq!(Cut::multiplier(8).name(), "Parallel Mul.");
        assert_eq!(Cut::control().name(), "Control Logic");
    }
}
