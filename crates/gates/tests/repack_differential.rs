//! Dropping must be invisible in the grading results. The compiled engine
//! stops detected batches, repacks survivors into fewer batches or fewer
//! lane words, evaluates only the lane words that still hold an undetected
//! fault and, on a netlist without flip-flops, skips repeated patterns.
//! It must report exactly the detections, detecting cycles and fault-free
//! responses of the full-eval oracle (which clocks every batch over the
//! whole netlist and the whole stimulus, and never drops or repacks),
//! under both fault models, at 1, 2 and 7 threads.
//!
//! The cases: seeded random sequential netlists, each with at least three
//! batches of faults and a stimulus many repack windows long; two
//! unconnected ones side by side, whose batches' fanout cones differ, so
//! a repack merges lanes from different cones; a larger one spanning
//! several groups of batches, so its threaded runs really fan the groups
//! out; random combinational netlists whose stimuli repeat vectors
//! and vector pairs, at observed and unobserved cycles and across window
//! boundaries; and a batch whose survivors sit in its highest lane words,
//! so only a repack can narrow it.

use sbst_gates::{
    enumerate_transition_faults, Fault, FaultSimConfig, FaultSimResult, FaultSimulator, GateKind,
    NetId, Netlist, NetlistBuilder, SimEngine, Stimulus, TransitionFault,
};

/// SplitMix64: a tiny seeded generator, so every case is reproducible.
fn next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A random netlist: 16 inputs, `flip_flops` flip-flops whose next state
/// is random logic over the inputs and the flip-flops (so state feeds
/// back), `gates` random gates and 8 observed outputs.
fn random_netlist(seed: u64, gates: usize, flip_flops: usize) -> Netlist {
    let mut b = NetlistBuilder::new("random");
    random_block(&mut b, seed, gates, flip_flops, "");
    b.finish().expect("random netlists are valid")
}

/// Adds one [`random_netlist`] to `b`, its net names prefixed by `tag`.
fn random_block(b: &mut NetlistBuilder, seed: u64, gates: usize, flip_flops: usize, tag: &str) {
    let mut rng = seed;
    let mut nets: Vec<NetId> = (0..16).map(|i| b.input(&format!("{tag}i{i}"))).collect();
    // Flip-flops start on a placeholder input and are rewired below.
    let qs: Vec<NetId> = (0..flip_flops).map(|_| b.dff(nets[0])).collect();
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
        b.mark_output(net, &format!("{tag}o{k}"));
    }
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
/// last detection, or the whole stimulus if it holds an undetected fault.
fn per_batch_cycles(result: &FaultSimResult, per_pass: usize, len: usize) -> u64 {
    result
        .detecting_cycle
        .chunks(per_pass)
        .map(|batch| {
            if batch.iter().any(Option::is_none) {
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
fn volume(result: &FaultSimResult) -> [u64; 8] {
    let s = &result.stats;
    [
        s.batches,
        s.cycles_simulated,
        s.lane_words_simulated,
        s.cycles_scheduled,
        s.live_lane_cycles,
        s.events_simulated,
        s.lane_slots_filled,
        s.lane_slots_total,
    ]
}

/// Grades `stuck` and `transition` on `netlist` on both engines, and
/// checks that the compiled runs at 1, 2 and 7 threads report exactly what
/// the never-dropping full-eval oracle does. Returns each model's oracle
/// run and serial compiled run, stuck-at first.
fn check_lists(
    netlist: &Netlist,
    stimulus: &Stimulus,
    stuck: &[Fault],
    transition: &[TransitionFault],
    case: &str,
) -> Vec<(FaultSimResult, FaultSimResult)> {
    let grade = |engine: SimEngine, threads: usize, model_is_stuck: bool| {
        let simulator = FaultSimulator::with_config(
            netlist,
            FaultSimConfig {
                threads: Some(threads),
                engine,
            },
        );
        if model_is_stuck {
            simulator.simulate(stuck, stimulus)
        } else {
            simulator.simulate_transition(transition, stimulus)
        }
    };
    let mut runs = Vec::new();
    for model_is_stuck in [true, false] {
        let full = grade(SimEngine::FullEval, 1, model_is_stuck);
        // The oracle clocks its one lane word on every cycle of every batch.
        assert_eq!(full.stats.cycles_simulated, full.stats.cycles_scheduled);
        assert_eq!(full.stats.lane_words_simulated, full.stats.cycles_simulated);
        let serial = grade(SimEngine::Compiled, 1, model_is_stuck);
        // Groups of four batches are the unit the pool fans out.
        let groups = serial.stats.batches.div_ceil(4) as usize;
        for threads in [1usize, 2, 7] {
            let tag = format!(
                "{case}, {}, {threads} threads",
                if model_is_stuck {
                    "stuck-at"
                } else {
                    "transition"
                }
            );
            let dropped = grade(SimEngine::Compiled, threads, model_is_stuck);
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
        runs.push((full, serial));
    }
    runs
}

/// [`check_lists`] over `netlist`'s collapsed stuck-at and transition
/// fault lists, each at least three compiled batches long. Returns how
/// many of the two models' compiled runs clocked fewer batch-cycles than
/// per-batch dropping would, i.e. repacked.
fn check_case(netlist: &Netlist, stimulus: &Stimulus, case: &str) -> usize {
    let stuck = netlist.collapsed_faults();
    let transition = enumerate_transition_faults(netlist);
    let per_pass = SimEngine::Compiled.faults_per_pass();
    assert!(
        stuck.len() > 2 * per_pass && transition.len() > 2 * per_pass,
        "{case}: need three batches per model ({} / {} faults)",
        stuck.len(),
        transition.len()
    );
    check_lists(netlist, stimulus, &stuck, &transition, case)
        .iter()
        .filter(|(full, serial)| {
            serial.stats.cycles_simulated < per_batch_cycles(full, per_pass, stimulus.len())
        })
        .count()
}

#[test]
fn repacking_matches_the_never_dropping_run() {
    let mut repacked_runs = 0;
    for seed in 0..6u64 {
        let netlist = random_netlist(seed, 300, 24);
        let stimulus = random_stimulus(&netlist, seed);
        repacked_runs += check_case(&netlist, &stimulus, &format!("seed {seed}"));
    }
    // The cases must actually exercise repacking, or the equalities above
    // prove nothing about it.
    assert_eq!(repacked_runs, 12, "every compiled run should have repacked");
}

#[test]
fn repacking_batches_with_different_cones_matches_the_never_dropping_run() {
    // Two unconnected random circuits side by side: the fault list runs
    // through the first circuit's nets and then the second's, so the
    // first batches' cones lie in one circuit and the last batches' in
    // the other. A repack that merges their survivors gives each lane
    // the other circuit's flip-flops, which it never latched: their bits
    // must come from the fault-free record.
    for seed in 0..3u64 {
        let mut b = NetlistBuilder::new("two_circuits");
        random_block(&mut b, seed, 300, 24, "a_");
        random_block(&mut b, seed + 100, 300, 24, "b_");
        let netlist = b.finish().expect("random netlists are valid");
        let stimulus = random_stimulus(&netlist, seed);
        let repacked = check_case(&netlist, &stimulus, &format!("two circuits, seed {seed}"));
        assert_eq!(repacked, 2, "both models should have repacked");
    }
}

#[test]
fn repacking_across_groups_matches_the_never_dropping_run() {
    // Enough faults for at least eight 255-fault compiled batches per
    // model, i.e. two or more groups, so 2 and 7 threads grade groups
    // concurrently.
    let netlist = random_netlist(42, 1000, 24);
    let stimulus = random_stimulus(&netlist, 42);
    let per_pass = SimEngine::Compiled.faults_per_pass();
    assert!(netlist.collapsed_faults().len() > 7 * per_pass);
    assert!(enumerate_transition_faults(&netlist).len() > 7 * per_pass);
    let repacked = check_case(&netlist, &stimulus, "seed 42");
    assert_eq!(repacked, 2, "both models should have repacked");
}

/// 160 cycles of random vectors, about three in four observed, in which
/// runs of earlier cycles recur: a run copies 2 to 7 consecutive vectors
/// from anywhere before it, so vectors and vector pairs repeat at observed
/// and unobserved cycles alike, and across window boundaries.
fn repeating_stimulus(netlist: &Netlist, seed: u64) -> Stimulus {
    let mut rng = seed ^ 0x6A09_E667_F3BC_C908;
    let width = netlist.inputs().len();
    let mut vectors: Vec<u64> = Vec::new();
    while vectors.len() < 160 {
        let word = next(&mut rng);
        if vectors.len() < 4 || word.is_multiple_of(3) {
            vectors.push(next(&mut rng));
        } else {
            let len = (2 + word % 6) as usize;
            let from = (word >> 8) as usize % (vectors.len() - 1);
            for k in 0..len.min(vectors.len() - from) {
                vectors.push(vectors[from + k]);
            }
        }
    }
    let mut stimulus = Stimulus::new();
    for &vector in &vectors[..160] {
        let inputs: Vec<bool> = (0..width).map(|i| vector >> i & 1 == 1).collect();
        stimulus.push_cycle(&inputs, !next(&mut rng).is_multiple_of(4));
    }
    stimulus
}

#[test]
fn skipping_repeated_patterns_matches_the_never_dropping_run() {
    for seed in 0..4u64 {
        let netlist = random_netlist(seed, 300, 0);
        let stimulus = repeating_stimulus(&netlist, seed);
        check_case(&netlist, &stimulus, &format!("combinational seed {seed}"));
        // A batch holding one fault the stimulus never detects runs to
        // the end, so it alone shows the skipped cycles. Leaving out only
        // the cycles nothing observes would still clock every observed
        // cycle (stuck-at), or every observed cycle and its launch
        // (transition); skipping repeated vectors and pairs clocks fewer.
        let observed: Vec<bool> = stimulus.iter().map(|(_, observe)| observe).collect();
        let observed_cycles = observed.iter().filter(|&&o| o).count();
        let observed_or_launch = (0..observed.len())
            .filter(|&t| observed[t] || observed.get(t + 1) == Some(&true))
            .count();
        let simulator = FaultSimulator::with_config(&netlist, FaultSimConfig::with_threads(1));
        let stuck = netlist.collapsed_faults();
        let transition = enumerate_transition_faults(&netlist);
        let undetected = |result: FaultSimResult| {
            result
                .detected
                .iter()
                .position(|&detected| !detected)
                .expect("a random stimulus leaves some fault undetected")
        };
        let stuck = stuck[undetected(simulator.simulate(&stuck, &stimulus))];
        let transition =
            transition[undetected(simulator.simulate_transition(&transition, &stimulus))];
        for (model, alone, bound) in [
            (
                "stuck-at",
                simulator.simulate(&[stuck], &stimulus),
                observed_cycles,
            ),
            (
                "transition",
                simulator.simulate_transition(&[transition], &stimulus),
                observed_or_launch,
            ),
        ] {
            assert!(!alone.detected[0]);
            assert!(
                alone.stats.cycles_simulated < bound as u64,
                "seed {seed}, {model}: {} cycles clocked, {bound} without skipping repeats",
                alone.stats.cycles_simulated,
            );
        }
    }
}

#[test]
fn survivors_in_high_lane_words_are_repacked_into_fewer_words() {
    // A registered 200-input OR: a one on input i reaches the output a
    // cycle later, detecting q_i stuck-at-0 and slow-to-rise. The faults
    // on inputs 150.. are excited only after four idle windows, so for a
    // while the batch's survivors sit in lanes 151..=200, words 2 and 3.
    // Narrowing alone keeps all four words until lane 200 is detected;
    // packing the survivors into lanes 1..=50 takes one.
    const WIDTH: usize = 200;
    let mut b = NetlistBuilder::new("registered_or");
    let bus = b.input_bus("a", WIDTH);
    let q = b.bus_dff(&bus);
    let o = b.reduce_or(&q);
    b.mark_output(o, "o");
    let netlist = b.finish().unwrap();
    let stuck: Vec<Fault> = q.nets().iter().map(|&net| Fault::stem_sa0(net)).collect();
    let transition: Vec<TransitionFault> = q
        .nets()
        .iter()
        .map(|&net| TransitionFault::slow_to_rise(net))
        .collect();
    let one_hot = |i: usize| (0..WIDTH).map(|k| k == i).collect::<Vec<_>>();
    let mut stimulus = Stimulus::new();
    stimulus.push_pattern(&[false; WIDTH]);
    for i in 0..150 {
        // Back to zero after each one, so the next rise launches.
        stimulus.push_pattern(&one_hot(i));
        stimulus.push_pattern(&[false; WIDTH]);
    }
    for _ in 0..64 {
        stimulus.push_pattern(&[false; WIDTH]);
    }
    for i in 150..WIDTH {
        stimulus.push_pattern(&one_hot(i));
        stimulus.push_pattern(&[false; WIDTH]);
    }
    let runs = check_lists(&netlist, &stimulus, &stuck, &transition, "registered OR");
    for (full, dropped) in runs {
        assert_eq!(full.coverage().detected, WIDTH);
        assert!(
            dropped.stats.lane_words_simulated < 4 * dropped.stats.cycles_simulated,
            "no narrowing repack: {} lane words over {} cycles",
            dropped.stats.lane_words_simulated,
            dropped.stats.cycles_simulated
        );
    }
}
