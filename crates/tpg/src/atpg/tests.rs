use super::*;
use sbst_gates::{FaultSimulator, NetlistBuilder};

fn full_adder_netlist() -> Netlist {
    let mut b = NetlistBuilder::new("fa");
    let a = b.input("a");
    let x = b.input("x");
    let ci = b.input("ci");
    let axb = b.xor2(a, x);
    let sum = b.xor2(axb, ci);
    let t1 = b.and2(a, x);
    let t2 = b.and2(axb, ci);
    let co = b.or2(t1, t2);
    b.mark_output(sum, "sum");
    b.mark_output(co, "co");
    b.finish().unwrap()
}

#[test]
fn full_adder_complete_coverage() {
    let n = full_adder_netlist();
    let faults = n.collapsed_faults();
    let res = Atpg::new(&n).run(&faults);
    assert!(res.outcomes.iter().all(|o| o.is_detected()));
    // Verify the patterns really detect everything.
    let check = FaultSimulator::new(&n).simulate(&faults, &res.stimulus());
    assert_eq!(check.coverage().percent(), 100.0);
}

#[test]
#[should_panic(expected = "combinational")]
fn sequential_netlist_rejected() {
    let mut b = NetlistBuilder::new("seq");
    let a = b.input("a");
    let q = b.dff(a);
    b.mark_output(q, "q");
    let n = b.finish().unwrap();
    let _ = Atpg::new(&n);
}

#[test]
fn podem_without_random_phase() {
    let n = full_adder_netlist();
    let faults = n.collapsed_faults();
    let res = Atpg::new(&n)
        .with_config(AtpgConfig {
            random_patterns: 0,
            ..AtpgConfig::default()
        })
        .run(&faults);
    assert!(res.outcomes.iter().all(|o| o.is_detected()));
    let check = FaultSimulator::new(&n).simulate(&faults, &res.stimulus());
    assert_eq!(check.coverage().percent(), 100.0);
}

#[test]
fn detects_redundant_fault() {
    // y = a & !a is constantly 0: its stuck-at-0 is untestable.
    let mut b = NetlistBuilder::new("red");
    let a = b.input("a");
    let na = b.not(a);
    let y = b.and2(a, na);
    b.mark_output(y, "y");
    let n = b.finish().unwrap();
    let fault = Fault::stem_sa0(n.outputs()[0]);
    let res = Atpg::new(&n)
        .with_config(AtpgConfig {
            random_patterns: 0,
            ..AtpgConfig::default()
        })
        .run(&[fault]);
    assert_eq!(res.outcomes[0], AtpgOutcome::Redundant);
}

#[test]
fn constraints_restrict_patterns() {
    // With input `a` pinned to 0, the AND output can never be 1, so
    // output s-a-0 becomes untestable under constraints.
    let mut b = NetlistBuilder::new("c");
    let a = b.input("a");
    let x = b.input("x");
    let y = b.and2(a, x);
    b.mark_output(y, "y");
    let n = b.finish().unwrap();
    let a_net = n.inputs()[0];
    let fault = Fault::stem_sa0(n.outputs()[0]);
    let unconstrained = Atpg::new(&n)
        .with_config(AtpgConfig {
            random_patterns: 0,
            ..AtpgConfig::default()
        })
        .run(&[fault]);
    assert!(unconstrained.outcomes[0].is_detected());
    let constrained = Atpg::new(&n)
        .with_constraints(&[InputConstraint {
            net: a_net,
            value: false,
        }])
        .with_config(AtpgConfig {
            random_patterns: 0,
            ..AtpgConfig::default()
        })
        .run(&[fault]);
    assert_eq!(constrained.outcomes[0], AtpgOutcome::Redundant);
    // Every emitted pattern honours the constraint.
    for p in &constrained.patterns {
        assert!(!p[0]);
    }
}

#[test]
fn random_phase_detects_most_adder_faults() {
    let n = full_adder_netlist();
    let faults = n.collapsed_faults();
    let res = Atpg::new(&n).run(&faults);
    let by_random = res
        .outcomes
        .iter()
        .filter(|o| **o == AtpgOutcome::DetectedByRandom)
        .count();
    assert!(by_random > faults.len() / 2);
}

#[test]
fn patterns_are_compacted() {
    // 256 random patterns tried, but only first-detectors kept.
    let n = full_adder_netlist();
    let faults = n.collapsed_faults();
    let res = Atpg::new(&n).run(&faults);
    assert!(res.patterns.len() <= 8, "kept {}", res.patterns.len());
}

#[test]
fn stats_reconcile_with_outcomes() {
    let n = full_adder_netlist();
    let faults = n.collapsed_faults();
    // The full random phase leaves PODEM little to do; two random patterns
    // leave it several tests, searched on one worker and on three.
    for (random_patterns, threads) in [(256, 1), (2, 1), (2, 3)] {
        let res = Atpg::new(&n)
            .with_config(AtpgConfig {
                random_patterns,
                podem_threads: Some(threads),
                ..AtpgConfig::default()
            })
            .run(&faults);
        let s = res.stats;
        assert_eq!(s.random_patterns_tried, random_patterns as u64);
        assert!(s.random_patterns_kept <= s.random_patterns_tried);
        assert_eq!(
            s.detected_by_random,
            res.outcomes
                .iter()
                .filter(|o| **o == AtpgOutcome::DetectedByRandom)
                .count() as u64
        );
        // Every PODEM candidate was either applied by the reducer or
        // discarded because a pattern accepted earlier in its round
        // covered it.
        assert_eq!(
            s.podem_targets + s.podem_discarded,
            faults.len() as u64 - s.detected_by_random
        );
        assert_eq!(s.podem_targets, s.podem_tests + s.redundant + s.aborted);
        // One kept pattern per first-detecting random cycle and one per
        // accepted PODEM test.
        assert_eq!(
            res.patterns.len() as u64,
            s.random_patterns_kept + s.podem_tests
        );
        // Every search a worker ran was either applied or discarded.
        let searches: u64 = res.thread_stats.iter().map(|t| t.searches).sum();
        assert_eq!(searches, s.podem_targets + s.podem_discarded);
        if random_patterns == 2 {
            assert!(s.podem_tests > 0, "PODEM must generate tests");
        }
    }
}

#[test]
fn stats_count_backtracks_on_redundant_fault() {
    // The redundant-fault search must exhaust its decision space, which
    // takes at least one backtrack.
    let mut b = NetlistBuilder::new("red");
    let a = b.input("a");
    let na = b.not(a);
    let y = b.and2(a, na);
    b.mark_output(y, "y");
    let n = b.finish().unwrap();
    let fault = Fault::stem_sa0(n.outputs()[0]);
    let res = Atpg::new(&n)
        .with_config(AtpgConfig {
            random_patterns: 0,
            ..AtpgConfig::default()
        })
        .run(&[fault]);
    assert_eq!(res.stats.redundant, 1);
    assert!(res.stats.podem_backtracks >= 1);
}

/// Pin for the per-target RNG fix: the run's result must not depend on the
/// order the caller lists the faults in. Outcomes travel with their fault
/// and the kept pattern set is byte-identical.
#[test]
fn fault_list_permutation_leaves_results_invariant() {
    let n = full_adder_netlist();
    let faults = n.collapsed_faults();
    let base = Atpg::new(&n).run(&faults);

    // Reversal and a deterministic interleave both exercise the reduction's
    // canonical ordering.
    let mut reversed = faults.clone();
    reversed.reverse();
    let mut interleaved: Vec<Fault> = Vec::with_capacity(faults.len());
    for k in 0..faults.len() {
        let i = if k % 2 == 0 {
            k / 2
        } else {
            faults.len() - 1 - k / 2
        };
        interleaved.push(faults[i]);
    }

    for permuted in [&reversed, &interleaved] {
        let res = Atpg::new(&n).run(permuted);
        assert_eq!(res.patterns, base.patterns, "kept patterns must match");
        assert_eq!(res.stats, base.stats, "stats must match");
        // Outcomes are parallel to the (permuted) fault list: map back.
        for (f, o) in permuted.iter().zip(&res.outcomes) {
            let orig = faults.iter().position(|g| g == f).unwrap();
            assert_eq!(*o, base.outcomes[orig], "outcome for {f:?} moved");
        }
    }
}

/// Pin for the deterministic parallel kernel: any PODEM thread count gives
/// byte-identical patterns, outcomes and stats.
#[test]
fn podem_thread_count_leaves_results_invariant() {
    let n = full_adder_netlist();
    let faults = n.collapsed_faults();
    let run = |threads: usize| {
        Atpg::new(&n)
            .with_config(AtpgConfig {
                podem_threads: Some(threads),
                ..AtpgConfig::default()
            })
            .run(&faults)
    };
    let base = run(1);
    for threads in [2, 3, 7] {
        let res = run(threads);
        assert_eq!(res.patterns, base.patterns);
        assert_eq!(res.outcomes, base.outcomes);
        assert_eq!(res.stats, base.stats);
        assert_eq!(res.podem_threads_used, threads);
        assert_eq!(res.thread_stats.len(), threads);
    }
}

/// Pin for the hoisted-simulator fix: with the compiled engine the random
/// phase warms the run's shared simulator, so the PODEM drop simulations
/// never compile another tape.
#[test]
fn drop_sims_reuse_the_random_phase_tape() {
    let n = full_adder_netlist();
    let faults = n.collapsed_faults();
    let res = Atpg::new(&n)
        .with_config(AtpgConfig {
            // Few enough random patterns that PODEM still runs drop sims.
            random_patterns: 2,
            sim_engine: SimEngine::Compiled,
            ..AtpgConfig::default()
        })
        .run(&faults);
    assert!(res.stats.podem_tests > 0, "test needs PODEM drop sims");
    assert_eq!(res.drop_sim_tape_compilations, 0);
}

/// Without a random phase the first drop simulation compiles the run's one
/// tape; every later drop simulation reuses it.
#[test]
fn drop_sims_share_one_tape_without_random_phase() {
    let n = full_adder_netlist();
    let faults = n.collapsed_faults();
    let res = Atpg::new(&n)
        .with_config(AtpgConfig {
            random_patterns: 0,
            sim_engine: SimEngine::Compiled,
            ..AtpgConfig::default()
        })
        .run(&faults);
    assert!(res.stats.podem_tests > 1, "needs several drop sims");
    assert_eq!(res.drop_sim_tape_compilations, 1);
}

#[test]
fn fault_stream_seeds_are_distinct_per_fault() {
    let n = full_adder_netlist();
    let faults = n.collapsed_faults();
    let mut seeds: Vec<u64> = faults
        .iter()
        .map(|f| fault_stream_seed(0x5B57_1E57, f))
        .collect();
    seeds.sort_unstable();
    let before = seeds.len();
    seeds.dedup();
    assert_eq!(seeds.len(), before, "per-fault streams must not collide");
}

#[test]
fn telemetry_absorbs_runs() {
    let n = full_adder_netlist();
    let faults = n.collapsed_faults();
    let res = Atpg::new(&n).run(&faults);
    let mut tel = AtpgTelemetry::default();
    tel.absorb(&res);
    tel.absorb(&res);
    assert_eq!(tel.runs, 2);
    assert_eq!(
        tel.stats.detected_by_random,
        2 * res.stats.detected_by_random
    );
    assert_eq!(tel.podem_threads, res.podem_threads_used);
}
