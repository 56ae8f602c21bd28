//! Pins the per-function constrained ATPG campaign of the `AtpgD`
//! routines on the 8-bit shifter and ALU under the default configuration.
//!
//! These are the numbers `atpg_speed --smoke` reports. A change to the
//! campaign (which faults each function targets, or how PODEM searches)
//! moves them on purpose; update the pin and report old → new.

use sbst_components::alu::{self, AluFunc};
use sbst_components::shifter::{self, ShiftFunc};
use sbst_components::Component;
use sbst_tpg::{per_function_campaign, AtpgConfig, AtpgResult, AtpgTelemetry};

/// Runs the campaign, folds its runs into `telemetry`, and returns
/// (patterns, detected, fault count).
fn campaign(
    component: &Component,
    encodings: &[u8],
    telemetry: &mut AtpgTelemetry,
) -> (usize, usize, usize) {
    let runs = per_function_campaign(component, encodings, AtpgConfig::default());
    assert_eq!(runs.len(), encodings.len(), "one run per encoding");
    runs.iter().for_each(|r| telemetry.absorb(r));
    (
        runs.iter().map(|r| r.patterns.len()).sum(),
        runs.iter().map(AtpgResult::detected_count).sum(),
        component.netlist.collapsed_faults().len(),
    )
}

#[test]
fn campaign_outcomes_are_pinned() {
    let mut telemetry = AtpgTelemetry::default();
    let shifter = campaign(
        &shifter::shifter(8),
        &ShiftFunc::ALL.map(ShiftFunc::encoding),
        &mut telemetry,
    );
    assert_eq!(
        shifter,
        (28, 335, 335),
        "shifter(8) patterns/detected/faults"
    );
    let alu = campaign(
        &alu::alu(8),
        &AluFunc::ALL.map(AluFunc::encoding),
        &mut telemetry,
    );
    assert_eq!(alu, (65, 605, 607), "alu(8) patterns/detected/faults");

    let stats = telemetry.stats;
    assert_eq!(telemetry.runs, 11);
    assert_eq!(stats.podem_targets, 1_665);
    assert_eq!(stats.podem_tests, 0);
    // Every target is op-blocked: the root proof settles each one before
    // its first decision.
    assert_eq!(stats.redundant, 1_665);
    assert_eq!(stats.aborted, 0);
    assert_eq!(stats.podem_backtracks, 0);
}
