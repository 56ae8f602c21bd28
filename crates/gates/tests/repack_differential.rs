//! Survivor repacking must be invisible in the grading results. On seeded
//! random sequential netlists, each with at least three batches of faults
//! and a stimulus many repack windows long, a dropping run (which stops
//! detected batches and repacks survivors into fewer batches) must report
//! exactly the detections, detecting cycles and fault-free responses of a
//! `drop_on_detect: false` run (which clocks every batch over the whole
//! stimulus and never repacks), under both fault models and both engines,
//! at 1, 2 and 7 threads. A larger case spans several groups of batches,
//! so its threaded runs really fan the groups out.

use sbst_gates::{
    enumerate_transition_faults, FaultSimConfig, FaultSimResult, FaultSimulator, GateKind, NetId,
    Netlist, NetlistBuilder, SimEngine, Stimulus,
};

/// SplitMix64: a tiny seeded generator, so every case is reproducible.
fn next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A random sequential netlist: 16 inputs, 24 flip-flops whose next state
/// is random logic over the inputs and the flip-flops (so state feeds
/// back), `gates` random gates and 8 observed outputs.
fn random_sequential(seed: u64, gates: usize) -> Netlist {
    let mut rng = seed;
    let mut b = NetlistBuilder::new("random_seq");
    let mut nets: Vec<NetId> = (0..16).map(|i| b.input(&format!("i{i}"))).collect();
    // Flip-flops start on a placeholder input and are rewired below.
    let qs: Vec<NetId> = (0..24).map(|_| b.dff(nets[0])).collect();
    nets.extend(&qs);
    let first_gate = nets.len();
    for _ in 0..gates {
        // Prefer recent nets so the logic gets deep, not just wide.
        let pick = |rng: &mut u64| {
            let span = (nets.len() as u64).min(48);
            nets[nets.len() - 1 - (next(rng) % span) as usize]
        };
        let (a, c, d) = (pick(&mut rng), pick(&mut rng), pick(&mut rng));
        let out = match next(&mut rng) % 8 {
            0 => b.gate(GateKind::And, &[a, c]),
            1 => b.gate(GateKind::Or, &[a, c]),
            2 => b.gate(GateKind::Nand, &[a, c]),
            3 => b.gate(GateKind::Nor, &[a, c]),
            4 => b.gate(GateKind::Xor, &[a, c]),
            5 => b.gate(GateKind::Xnor, &[a, c]),
            6 => b.gate(GateKind::Not, &[a]),
            _ => b.gate(GateKind::Mux2, &[a, c, d]),
        };
        nets.push(out);
    }
    let gate_span = (nets.len() - first_gate) as u64;
    for &q in &qs {
        let d = nets[first_gate + (next(&mut rng) % gate_span) as usize];
        b.rewire_dff_input(q, d);
    }
    for k in 0..8 {
        let net = nets[first_gate + (next(&mut rng) % gate_span) as usize];
        b.mark_output(net, &format!("o{k}"));
    }
    b.finish().expect("random sequential netlists are valid")
}

/// 120 random cycles (seven and a half 16-cycle windows), about three in
/// four observed.
fn random_stimulus(netlist: &Netlist, seed: u64) -> Stimulus {
    let mut rng = seed ^ 0xD1B5_4A32_D192_ED03;
    let mut stimulus = Stimulus::new();
    for _ in 0..120 {
        let word = next(&mut rng);
        let inputs: Vec<bool> = (0..netlist.inputs().len())
            .map(|i| word >> i & 1 == 1)
            .collect();
        stimulus.push_cycle(&inputs, word >> 63 == 1 || word >> 62 & 1 == 1);
    }
    stimulus
}

/// What a per-batch run without repacking clocks: every batch runs to its
/// last detection, or the whole stimulus if it holds fault 0 or an
/// undetected fault.
fn per_batch_cycles(result: &FaultSimResult, per_pass: usize, len: usize) -> u64 {
    result
        .detecting_cycle
        .chunks(per_pass)
        .enumerate()
        .map(|(b, batch)| {
            if b == 0 || batch.iter().any(Option::is_none) {
                len as u64
            } else {
                batch
                    .iter()
                    .flatten()
                    .map(|&c| u64::from(c) + 1)
                    .max()
                    .unwrap_or(0)
            }
        })
        .sum()
}

/// Lane-cycles that carried a not-yet-detected fault, from the results.
fn live_lane_cycles(result: &FaultSimResult, len: usize) -> u64 {
    result
        .detecting_cycle
        .iter()
        .map(|c| c.map_or(len as u64, |c| u64::from(c) + 1))
        .sum()
}

/// The deterministic simulation-volume counters of a run.
fn volume(result: &FaultSimResult) -> [u64; 7] {
    let s = &result.stats;
    [
        s.batches,
        s.cycles_simulated,
        s.cycles_scheduled,
        s.live_lane_cycles,
        s.events_simulated,
        s.lane_slots_filled,
        s.lane_slots_total,
    ]
}

/// Grades `netlist` under both fault models on `engine`, with and without
/// dropping, and checks that the dropping runs at 1, 2 and 7 threads
/// report exactly what the never-dropping run does. Returns how many of
/// the two models' dropping runs clocked fewer batch-cycles than
/// per-batch dropping would, i.e. repacked.
fn check_case(netlist: &Netlist, stimulus: &Stimulus, engine: SimEngine, case: &str) -> usize {
    let stuck = netlist.collapsed_faults();
    let transition = enumerate_transition_faults(netlist);
    let per_pass = engine.faults_per_pass();
    assert!(
        stuck.len() > 2 * per_pass && transition.len() > 2 * per_pass,
        "{case}: need three batches per model ({} / {} faults)",
        stuck.len(),
        transition.len()
    );
    let grade = |drop_on_detect: bool, threads: usize, model_is_stuck: bool| {
        let simulator = FaultSimulator::with_config(
            netlist,
            FaultSimConfig {
                drop_on_detect,
                threads: Some(threads),
                engine,
            },
        );
        if model_is_stuck {
            simulator.simulate(&stuck, stimulus)
        } else {
            simulator.simulate_transition(&transition, stimulus)
        }
    };
    let mut repacked = 0;
    for model_is_stuck in [true, false] {
        let full = grade(false, 1, model_is_stuck);
        assert_eq!(full.stats.cycles_simulated, full.stats.cycles_scheduled);
        let serial = grade(true, 1, model_is_stuck);
        // Groups of four batches are the unit the pool fans out.
        let groups = serial.stats.batches.div_ceil(4) as usize;
        for threads in [1usize, 2, 7] {
            let tag = format!(
                "{case}, {}, {}, {threads} threads",
                engine.name(),
                if model_is_stuck {
                    "stuck-at"
                } else {
                    "transition"
                }
            );
            let dropped = grade(true, threads, model_is_stuck);
            assert_eq!(dropped.threads_used, threads.min(groups), "{tag}");
            assert_eq!(dropped.detected, full.detected, "{tag}");
            assert_eq!(dropped.detecting_cycle, full.detecting_cycle, "{tag}");
            assert_eq!(
                dropped.fault_free_responses, full.fault_free_responses,
                "{tag}"
            );
            // Groups and windows do not depend on the thread count.
            assert_eq!(volume(&dropped), volume(&serial), "{tag}");
            assert_eq!(
                dropped.stats.live_lane_cycles,
                live_lane_cycles(&full, stimulus.len()),
                "{tag}"
            );
            assert_eq!(full.stats.live_lane_cycles, dropped.stats.live_lane_cycles);
        }
        if serial.stats.cycles_simulated < per_batch_cycles(&full, per_pass, stimulus.len()) {
            repacked += 1;
        }
    }
    repacked
}

#[test]
fn repacking_matches_the_never_dropping_run() {
    let mut repacked_runs = 0;
    for seed in 0..6u64 {
        let netlist = random_sequential(seed, 300);
        let stimulus = random_stimulus(&netlist, seed);
        for engine in [SimEngine::Compiled, SimEngine::FullEval] {
            repacked_runs += check_case(&netlist, &stimulus, engine, &format!("seed {seed}"));
        }
    }
    // The cases must actually exercise repacking, or the equalities above
    // prove nothing about it.
    assert_eq!(repacked_runs, 24, "every run should have repacked");
}

#[test]
fn repacking_across_groups_matches_the_never_dropping_run() {
    // Enough faults for at least eight 255-fault compiled batches per
    // model, i.e. two or more groups, so 2 and 7 threads grade groups
    // concurrently.
    let netlist = random_sequential(42, 1000);
    let stimulus = random_stimulus(&netlist, 42);
    let per_pass = SimEngine::Compiled.faults_per_pass();
    assert!(netlist.collapsed_faults().len() > 7 * per_pass);
    assert!(enumerate_transition_faults(&netlist).len() > 7 * per_pass);
    let repacked = check_case(&netlist, &stimulus, SimEngine::Compiled, "seed 42");
    assert_eq!(repacked, 2, "both models should have repacked");
}
