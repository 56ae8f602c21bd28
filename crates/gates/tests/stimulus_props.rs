//! Property tests for [`Stimulus`] bookkeeping and for fault dropping,
//! against the never-dropping full-eval oracle.

// The vendored `proptest!` macro is a tt-muncher; long test bodies need a
// deeper macro recursion budget than the default 128.
#![recursion_limit = "512"]

use proptest::prelude::*;
use sbst_gates::{
    FaultSimConfig, FaultSimulator, GateKind, NetId, NetlistBuilder, SimEngine, Stimulus,
};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A stimulus never observes more cycles than it has.
    #[test]
    fn observed_cycles_bounded_by_len(flags in prop::collection::vec(any::<bool>(), 0..100)) {
        let mut stim = Stimulus::new();
        for &observe in &flags {
            stim.push_cycle(&[true, false], observe);
        }
        prop_assert!(stim.observed_cycles() <= stim.len());
        prop_assert_eq!(stim.len(), flags.len());
        prop_assert_eq!(stim.observed_cycles(), flags.iter().filter(|f| **f).count());
        prop_assert_eq!(stim.is_empty(), flags.is_empty());
    }

    /// Mixed push helpers agree with explicit observability.
    #[test]
    fn push_helpers_set_observability(n_shown in 0usize..30, n_hidden in 0usize..30) {
        let mut stim = Stimulus::new();
        for _ in 0..n_shown {
            stim.push_pattern(&[true]);
        }
        for _ in 0..n_hidden {
            stim.push_hidden_cycle(&[false]);
        }
        prop_assert_eq!(stim.observed_cycles(), n_shown);
        prop_assert_eq!(stim.len(), n_shown + n_hidden);
        // The iterator replays observability in insertion order.
        let observed_in_order: Vec<bool> = stim.iter().map(|(_, o)| o).collect();
        prop_assert_eq!(observed_in_order.iter().filter(|o| **o).count(), n_shown);
    }
}

/// Builds a random-ish XOR/AND chain and returns it with a pattern set.
fn chain_with_patterns(width: usize, cycles: usize, seed: u64) -> (sbst_gates::Netlist, Stimulus) {
    let mut b = NetlistBuilder::new("chain");
    let inputs: Vec<NetId> = (0..width).map(|i| b.input(&format!("i{i}"))).collect();
    let mut acc = inputs[0];
    for (i, &net) in inputs.iter().enumerate().skip(1) {
        acc = if i % 2 == 0 {
            b.gate(GateKind::Xor, &[acc, net])
        } else {
            b.gate(GateKind::And, &[acc, net])
        };
    }
    b.mark_output(acc, "o");
    let netlist = b.finish().unwrap();
    let mut stim = Stimulus::new();
    let mut s = seed | 1;
    for _ in 0..cycles {
        let bits: Vec<bool> = (0..width)
            .map(|_| {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
                s >> 63 == 1
            })
            .collect();
        stim.push_pattern(&bits);
    }
    (netlist, stim)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Dropping detected faults early never loses a detection: every fault
    /// the never-dropping full-eval oracle detects, the compiled engine
    /// detects too (on the same cycle — the *first* detecting cycle is
    /// unaffected by when the batch stops clocking).
    #[test]
    fn drop_on_detect_loses_no_detection(width in 3usize..20, seed: u64) {
        let (netlist, stim) = chain_with_patterns(width, 16, seed);
        let faults = netlist.collapsed_faults();
        let dropping = FaultSimulator::new(&netlist).simulate(&faults, &stim);
        let exhaustive = FaultSimulator::with_config(
            &netlist,
            FaultSimConfig::with_engine(SimEngine::FullEval),
        )
        .simulate(&faults, &stim);
        prop_assert_eq!(exhaustive.stats.cycles_simulated, exhaustive.stats.cycles_scheduled);
        prop_assert_eq!(&dropping.detected, &exhaustive.detected);
        prop_assert_eq!(&dropping.detecting_cycle, &exhaustive.detecting_cycle);
        for i in exhaustive
            .detected
            .iter()
            .enumerate()
            .filter(|(_, d)| **d)
            .map(|(i, _)| i)
        {
            prop_assert!(
                !dropping.undetected().contains(&i),
                "dropped fault {} must not be reported undetected", i
            );
        }
    }
}
