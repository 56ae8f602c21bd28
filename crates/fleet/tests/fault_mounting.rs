//! A node's planned fault lives in one component's netlist, so it can only
//! ever condemn that component: whatever else runs, the quarantined set of
//! every node is a subset of its own fault target, and a node without a
//! planned fault quarantines nothing.

use sbst_core::Cut;
use sbst_fleet::{run_fleet, Characterizer, FleetConfig, PopulationMix};

#[test]
fn quarantines_stay_inside_each_nodes_own_fault_target() {
    let characterizer = Characterizer::new(vec![Cut::alu(32), Cut::shifter(32)]);
    let config = FleetConfig {
        nodes: 48,
        workers: 1,
        seed: 0x0A11_0C8E,
        horizon_cycles: 2_000_000,
        base_period_cycles: 500_000,
        mix: PopulationMix {
            infant_pct: 30,
            wearout_pct: 20,
            correlated_pct: 20,
            adversary_pct: 0,
            batch_size: 4,
        },
        ..FleetConfig::default()
    };
    let run = run_fleet(&config, &characterizer, None);
    let artifacts = characterizer.artifacts();
    let mut quarantines = 0;
    let mut targets_hit = [false; 2];
    for outcome in &run.outcomes {
        let own = outcome
            .profile
            .fault
            .map(|f| artifacts.targets[f.target].name.as_str());
        for name in &outcome.quarantined {
            assert_eq!(
                Some(name.as_str()),
                own,
                "node {} quarantined {name} but its fault lives in {own:?}",
                outcome.index
            );
            quarantines += 1;
        }
        if let (Some(fault), false) = (outcome.profile.fault, outcome.quarantined.is_empty()) {
            targets_hit[fault.target] = true;
        }
    }
    // Both targets must actually condemn something, or the subset check
    // is vacuous for one of them.
    assert!(quarantines > 0);
    assert_eq!(targets_hit, [true, true], "quarantines per target");
}
