//! Restricting a batch to its faults' fanout cones must be invisible in
//! the grading results. A compiled-engine run evaluates only each batch's
//! cone and reads every other net from the fault-free record; it must
//! report exactly the detections, detecting cycles and fault-free
//! responses of the full-eval oracle, which evaluates the whole netlist on
//! every cycle, on random sequential netlists with feedback, under both
//! fault models, with every flip-flop `d`-pin fault in the list, at 1, 2
//! and 7 threads.

use proptest::prelude::*;
use sbst_gates::{
    enumerate_transition_faults, Fault, FaultSimConfig, FaultSimResult, FaultSimulator, FaultSite,
    GateKind, NetId, Netlist, NetlistBuilder, SimEngine, Stimulus,
};

/// A random sequential netlist: `n_inputs` inputs, `flip_flops`
/// flip-flops whose next state is one of the gates (so state feeds back)
/// and one gate per `gates` entry, each reading nets picked from the
/// choices. The last three gates are the outputs.
fn build(
    n_inputs: usize,
    flip_flops: usize,
    gates: &[(u8, [usize; 3])],
    next: &[usize],
) -> Netlist {
    let mut b = NetlistBuilder::new("random_sequential");
    let mut nets: Vec<NetId> = (0..n_inputs).map(|i| b.input(&format!("i{i}"))).collect();
    // Flip-flops start on a placeholder input and are rewired below.
    let qs: Vec<NetId> = (0..flip_flops).map(|_| b.dff(nets[0])).collect();
    nets.extend(&qs);
    let first_gate = nets.len();
    for (kind, choices) in gates {
        let pick = |k: usize| nets[choices[k] % nets.len()];
        let out = match kind % 8 {
            0 => b.gate(GateKind::And, &[pick(0), pick(1)]),
            1 => b.gate(GateKind::Or, &[pick(0), pick(1)]),
            2 => b.gate(GateKind::Nand, &[pick(0), pick(1), pick(2)]),
            3 => b.gate(GateKind::Nor, &[pick(0), pick(1)]),
            4 => b.gate(GateKind::Xor, &[pick(0), pick(1)]),
            5 => b.gate(GateKind::Xnor, &[pick(0), pick(1)]),
            6 => b.gate(GateKind::Not, &[pick(0)]),
            _ => b.gate(GateKind::Mux2, &[pick(0), pick(1), pick(2)]),
        };
        nets.push(out);
    }
    let gate_nets = &nets[first_gate..];
    for (&q, &choice) in qs.iter().zip(next) {
        b.rewire_dff_input(q, gate_nets[choice % gate_nets.len()]);
    }
    for (k, &net) in gate_nets[gate_nets.len().saturating_sub(3)..]
        .iter()
        .enumerate()
    {
        b.mark_output(net, &format!("o{k}"));
    }
    b.finish().expect("random netlists are valid")
}

/// `cycles` random cycles, about two in three observed.
fn stimulus(netlist: &Netlist, cycles: usize, seed: u64) -> Stimulus {
    let mut s = seed | 1;
    let mut stimulus = Stimulus::new();
    for _ in 0..cycles {
        s = s
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let inputs: Vec<bool> = (0..netlist.inputs().len())
            .map(|i| s >> (i + 8) & 1 == 1)
            .collect();
        stimulus.push_cycle(&inputs, !s.is_multiple_of(3));
    }
    stimulus
}

/// The collapsed stuck-at list plus both stuck-at faults on every
/// flip-flop's `d` pin, which seed a cone at the flip-flop itself.
fn stuck_faults(netlist: &Netlist) -> Vec<Fault> {
    let mut faults = netlist.collapsed_faults();
    for &gate in netlist.dff_gates() {
        for stuck_value in [false, true] {
            let fault = Fault {
                site: FaultSite::Pin { gate, pin: 0 },
                stuck_value,
            };
            if !faults.contains(&fault) {
                faults.push(fault);
            }
        }
    }
    faults
}

fn grade(
    netlist: &Netlist,
    stimulus: &Stimulus,
    engine: SimEngine,
    threads: usize,
    stuck: bool,
) -> FaultSimResult {
    let simulator = FaultSimulator::with_config(
        netlist,
        FaultSimConfig {
            threads: Some(threads),
            engine,
        },
    );
    if stuck {
        simulator.simulate(&stuck_faults(netlist), stimulus)
    } else {
        simulator.simulate_transition(&enumerate_transition_faults(netlist), stimulus)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn cone_restricted_grading_matches_whole_netlist_grading(
        n_inputs in 4usize..12,
        flip_flops in 1usize..24,
        gates in prop::collection::vec((0u8..8, prop::collection::vec(0usize..10_000, 3)), 40..400),
        next in prop::collection::vec(0usize..10_000, 24),
        seed: u64,
    ) {
        let gates: Vec<(u8, [usize; 3])> = gates
            .into_iter()
            .map(|(kind, choices)| (kind, [choices[0], choices[1], choices[2]]))
            .collect();
        let netlist = build(n_inputs, flip_flops, &gates, &next);
        let stimulus = stimulus(&netlist, 80, seed);
        for stuck in [true, false] {
            let model = if stuck { "stuck-at" } else { "transition" };
            let full_eval = grade(&netlist, &stimulus, SimEngine::FullEval, 1, stuck);
            prop_assert_eq!(full_eval.stats.events_simulated, full_eval.stats.events_full_eval);
            for threads in [1usize, 2, 7] {
                let cones = grade(&netlist, &stimulus, SimEngine::Compiled, threads, stuck);
                prop_assert_eq!(&cones.detected, &full_eval.detected, "{} x{}", model, threads);
                prop_assert_eq!(
                    &cones.detecting_cycle, &full_eval.detecting_cycle, "{} x{}", model, threads
                );
                prop_assert_eq!(&cones.fault_free_responses, &full_eval.fault_free_responses);
                prop_assert!(cones.stats.events_simulated <= cones.stats.events_full_eval);
            }
        }
    }
}
