//! Phase B: component classification and test prioritization.
//!
//! The classes themselves ([`ComponentClass`]) are carried by each
//! component; this module implements the *prioritization* policy of
//! Section 3.2: D-VCs first (highest testability, dominant area — "in many
//! cases their testing results in acceptable fault coverage"), PVCs next,
//! A-VC/M-VC only if coverage is short, hidden components last (side-effect
//! tested).

use sbst_components::ComponentClass;
use sbst_gates::Testability;

use crate::cut::Cut;

/// One line of the Phase-B classification report.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassificationRow {
    /// Component name.
    pub name: &'static str,
    /// Assigned class (dominant class for mixed components).
    pub class: ComponentClass,
    /// Gate-equivalent area.
    pub gates: u32,
    /// Share of the processor area, in percent.
    pub area_percent: f64,
    /// Whether the methodology develops a dedicated routine for it.
    pub gets_routine: bool,
}

/// SCOAP testability summary for a CUT's netlist — the quantitative side
/// of Phase B's "data visible components … have the highest testability".
#[derive(Debug, Clone, PartialEq)]
pub struct TestabilityRow {
    /// Component name.
    pub name: &'static str,
    /// Mean `min(CC0, CC1)` over all nets.
    pub mean_controllability: f64,
    /// Mean observability over reachable nets.
    pub mean_observability: f64,
    /// Fraction of nets that can never reach a primary output.
    pub unobservable_fraction: f64,
}

/// Computes the SCOAP testability summary for a CUT.
pub fn testability_row(cut: &Cut) -> TestabilityRow {
    let t = Testability::analyze(&cut.component.netlist);
    TestabilityRow {
        name: cut.name(),
        mean_controllability: t.mean_controllability(),
        mean_observability: t.mean_observability(),
        unobservable_fraction: t.unobservable_fraction(),
    }
}

/// Builds the classification report row for one CUT within an inventory
/// totalling `total_gates`.
pub fn classification_row(cut: &Cut, total_gates: u32) -> ClassificationRow {
    ClassificationRow {
        name: cut.name(),
        class: cut.class(),
        gates: cut.gate_equivalents(),
        area_percent: if total_gates == 0 {
            0.0
        } else {
            cut.gate_equivalents() as f64 / total_gates as f64 * 100.0
        },
        gets_routine: cut.gets_routine(),
    }
}

/// Orders CUTs by test-development priority: class priority first
/// (D-VC < PVC < M-VC < A-VC < HC), then by area descending within a class
/// (big D-VCs contribute the most coverage per routine).
pub fn test_priority_order(cuts: &[Cut]) -> Vec<&Cut> {
    let mut ordered: Vec<&Cut> = cuts.iter().collect();
    ordered.sort_by(|a, b| {
        a.class()
            .priority()
            .cmp(&b.class().priority())
            .then(b.gate_equivalents().cmp(&a.gate_equivalents()))
    });
    ordered
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dvcs_come_first_largest_leading() {
        let cuts = Cut::small_inventory();
        let ordered = test_priority_order(&cuts);
        // The first entries are D-VCs ordered by size; the multiplier or
        // register file leads.
        assert_eq!(ordered[0].class(), ComponentClass::DataVisible);
        assert!(
            ordered[0].gate_equivalents() >= ordered[1].gate_equivalents()
                || ordered[1].class() != ComponentClass::DataVisible
        );
        // Hidden components come last.
        assert_eq!(ordered.last().unwrap().class(), ComponentClass::Hidden);
    }

    #[test]
    fn pvc_before_address_components() {
        let cuts = Cut::small_inventory();
        let ordered = test_priority_order(&cuts);
        let pos = |class: ComponentClass| {
            ordered
                .iter()
                .position(|c| c.class() == class)
                .expect("class present")
        };
        assert!(pos(ComponentClass::PartiallyVisible) < pos(ComponentClass::MixedVisible));
    }

    #[test]
    fn testability_tracks_structure() {
        // Bit-sliced components (ALU) are easier to control and observe
        // than deep iterative arrays (multiplier) — one structural reason
        // the regular-deterministic strategy matters for the big D-VCs.
        let alu = testability_row(&Cut::alu(8));
        let mul = testability_row(&Cut::multiplier(8));
        assert!(alu.mean_observability < mul.mean_observability);
        assert!(alu.mean_controllability < mul.mean_controllability);
        // Every net of both reaches an output.
        assert_eq!(alu.unobservable_fraction, 0.0);
        assert_eq!(mul.unobservable_fraction, 0.0);
    }

    #[test]
    fn rows_report_area_share() {
        let cuts = Cut::small_inventory();
        let total: u32 = cuts.iter().map(Cut::gate_equivalents).sum();
        let rows: Vec<ClassificationRow> =
            cuts.iter().map(|c| classification_row(c, total)).collect();
        let sum: f64 = rows.iter().map(|r| r.area_percent).sum();
        assert!((sum - 100.0).abs() < 1e-6);
        // Routines only for D-VC and PVC.
        for row in &rows {
            match row.class {
                ComponentClass::DataVisible | ComponentClass::PartiallyVisible => {
                    assert!(row.gets_routine)
                }
                _ => assert!(!row.gets_routine),
            }
        }
    }
}
