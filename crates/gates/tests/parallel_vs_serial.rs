//! Differential test: multi-threaded fault simulation must be
//! **bit-identical** to the single-threaded path on arbitrary netlists.
//!
//! The pool grades fixed groups of four consecutive batches. Groups are
//! independent (private simulators, disjoint fault subsets), so the
//! deterministic fault-index-order merge guarantees that detected sets,
//! detecting cycles, coverage percentages, undetected lists and the
//! recorded fault-free responses never depend on the thread count or on
//! scheduling. These tests check that guarantee on randomly generated
//! combinational DAGs and on hand-built many-batch and many-group
//! circuits.

// The vendored `proptest!` macro is a tt-muncher; long test bodies need a
// deeper macro recursion budget than the default 128.
#![recursion_limit = "512"]

use proptest::prelude::*;
use sbst_gates::{
    FaultSimConfig, FaultSimResult, FaultSimulator, GateKind, NetId, Netlist, NetlistBuilder,
    Stimulus, LANES,
};

/// A recipe for a random combinational DAG (same shape as the generator in
/// `random_netlists.rs`).
#[derive(Debug, Clone)]
struct NetlistRecipe {
    n_inputs: usize,
    gates: Vec<(u8, Vec<usize>)>,
}

fn recipe_strategy() -> impl Strategy<Value = NetlistRecipe> {
    (2usize..6, 8usize..60).prop_flat_map(|(n_inputs, n_gates)| {
        let gate = (0u8..9, prop::collection::vec(0usize..1000, 3));
        prop::collection::vec(gate, n_gates)
            .prop_map(move |gates| NetlistRecipe { n_inputs, gates })
    })
}

fn build(recipe: &NetlistRecipe) -> Netlist {
    let mut b = NetlistBuilder::new("random");
    let mut nets: Vec<NetId> = (0..recipe.n_inputs)
        .map(|i| b.input(&format!("i{i}")))
        .collect();
    for (kind_sel, choices) in &recipe.gates {
        let pick = |k: usize| nets[choices[k] % nets.len()];
        let out = match kind_sel % 9 {
            0 => b.gate(GateKind::And, &[pick(0), pick(1)]),
            1 => b.gate(GateKind::Or, &[pick(0), pick(1)]),
            2 => b.gate(GateKind::Nand, &[pick(0), pick(1)]),
            3 => b.gate(GateKind::Nor, &[pick(0), pick(1)]),
            4 => b.gate(GateKind::Xor, &[pick(0), pick(1)]),
            5 => b.gate(GateKind::Xnor, &[pick(0), pick(1)]),
            6 => b.gate(GateKind::Not, &[pick(0)]),
            7 => b.gate(GateKind::Mux2, &[pick(0), pick(1), pick(2)]),
            _ => b.gate(GateKind::And, &[pick(0), pick(1), pick(2)]),
        };
        nets.push(out);
    }
    let n = nets.len();
    for (k, &net) in nets[n.saturating_sub(3)..].iter().enumerate() {
        b.mark_output(net, &format!("o{k}"));
    }
    b.finish().expect("random DAGs are structurally valid")
}

/// Random stimulus from an LCG seed.
fn random_stimulus(n_inputs: usize, cycles: usize, seed: u64) -> Stimulus {
    let mut stim = Stimulus::new();
    let mut s = seed | 1;
    for _ in 0..cycles {
        let bits: Vec<bool> = (0..n_inputs)
            .map(|_| {
                s = s
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                s >> 63 == 1
            })
            .collect();
        stim.push_pattern(&bits);
    }
    stim
}

fn assert_identical(serial: &FaultSimResult, parallel: &FaultSimResult, label: &str) {
    assert_eq!(serial.detected, parallel.detected, "{label}: detected sets");
    assert_eq!(
        serial.detecting_cycle, parallel.detecting_cycle,
        "{label}: detecting cycles"
    );
    assert_eq!(
        serial.coverage().percent(),
        parallel.coverage().percent(),
        "{label}: coverage percent"
    );
    assert_eq!(
        serial.undetected(),
        parallel.undetected(),
        "{label}: undetected lists"
    );
    assert_eq!(
        serial.fault_free_responses, parallel.fault_free_responses,
        "{label}: fault-free responses"
    );
}

fn run(netlist: &Netlist, stim: &Stimulus, threads: usize, drop: bool) -> FaultSimResult {
    let faults = netlist.collapsed_faults();
    let config = FaultSimConfig {
        drop_on_detect: drop,
        threads: Some(threads),
        ..FaultSimConfig::default()
    };
    FaultSimulator::with_config(netlist, config).simulate(&faults, stim)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// threads = N is bit-identical to threads = 1 on random netlists,
    /// with and without fault dropping.
    #[test]
    fn random_netlists_identical_across_thread_counts(
        recipe in recipe_strategy(),
        seed: u64,
    ) {
        let netlist = build(&recipe);
        let stim = random_stimulus(netlist.inputs().len(), 12, seed);
        for drop in [true, false] {
            let serial = run(&netlist, &stim, 1, drop);
            prop_assert_eq!(serial.threads_used, 1);
            for threads in [2usize, 5, 16] {
                let parallel = run(&netlist, &stim, threads, drop);
                assert_identical(&serial, &parallel, &format!("threads={threads} drop={drop}"));
            }
        }
    }
}

/// A deterministic many-batch case: a 64-input XOR/AND/OR mix has several
/// hundred collapsed faults, more than three 64-lane batches but one
/// group of 255-fault compiled batches, so the pool stays at one thread.
#[test]
fn many_batch_circuit_identical_across_thread_counts() {
    let mut b = NetlistBuilder::new("deep");
    let bus = b.input_bus("a", 64);
    let mut acc = bus.net(0);
    for (i, &net) in bus.nets().iter().enumerate().skip(1) {
        acc = match i % 3 {
            0 => b.xor2(acc, net),
            1 => b.and2(acc, net),
            _ => b.or2(acc, net),
        };
        if i % 7 == 0 {
            b.mark_output(acc, &format!("t{i}"));
        }
    }
    b.mark_output(acc, "o");
    let netlist = b.finish().unwrap();
    let faults = netlist.collapsed_faults();
    assert!(
        faults.len() > 3 * (LANES - 1),
        "want > 3 batches, got {} faults",
        faults.len()
    );
    let stim = random_stimulus(64, 48, 0xDEAD_BEEF);
    let serial = run(&netlist, &stim, 1, true);
    for threads in [2usize, 3, 4, 8, 64] {
        let parallel = run(&netlist, &stim, threads, true);
        assert_identical(&serial, &parallel, &format!("threads={threads}"));
        assert!(parallel.threads_used >= 1);
    }
}

/// The default configuration (threads: None → available parallelism) is
/// also identical to the pinned serial run.
#[test]
fn default_thread_count_matches_serial() {
    let mut b = NetlistBuilder::new("adder_ish");
    let bus = b.input_bus("x", 32);
    let mut carry = bus.net(0);
    for &net in &bus.nets()[1..] {
        let s = b.xor2(carry, net);
        carry = b.and2(carry, net);
        b.mark_output(s, &format!("s{}", net.index()));
    }
    b.mark_output(carry, "c");
    let netlist = b.finish().unwrap();
    let faults = netlist.collapsed_faults();
    let stim = random_stimulus(32, 24, 42);
    let serial = FaultSimulator::with_config(&netlist, FaultSimConfig::with_threads(1))
        .simulate(&faults, &stim);
    let auto = FaultSimulator::new(&netlist).simulate(&faults, &stim);
    assert_identical(&serial, &auto, "default threads");
}

/// A deterministic many-group case: twelve 64-input XOR/AND/OR chains,
/// each over a rotation of the bus, have enough collapsed faults for at
/// least eight 255-fault compiled batches, i.e. two or more groups, so
/// threaded runs really grade groups concurrently.
#[test]
fn many_group_circuit_identical_across_thread_counts() {
    let mut b = NetlistBuilder::new("chains");
    let bus = b.input_bus("a", 64);
    for chain in 0..12 {
        let mut acc = bus.net(chain);
        for i in 1..64 {
            let net = bus.net((chain + 5 * i) % 64);
            acc = match (i + chain) % 3 {
                0 => b.xor2(acc, net),
                1 => b.and2(acc, net),
                _ => b.or2(acc, net),
            };
            if i % 7 == 0 {
                b.mark_output(acc, &format!("c{chain}t{i}"));
            }
        }
        b.mark_output(acc, &format!("c{chain}"));
    }
    let netlist = b.finish().unwrap();
    let stim = random_stimulus(64, 48, 0xC0FF_EE00);
    for drop in [true, false] {
        let serial = run(&netlist, &stim, 1, drop);
        assert!(
            serial.stats.batches >= 8,
            "want >= 8 compiled batches, got {}",
            serial.stats.batches
        );
        for threads in [2usize, 3, 8] {
            let parallel = run(&netlist, &stim, threads, drop);
            assert_identical(
                &serial,
                &parallel,
                &format!("threads={threads} drop={drop}"),
            );
            assert!(
                parallel.threads_used >= 2,
                "threads={threads}: two or more groups fan out"
            );
        }
    }
}
