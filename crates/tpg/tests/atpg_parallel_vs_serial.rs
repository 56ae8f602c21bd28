//! Differential determinism matrix for the parallel PODEM kernel.
//!
//! The deterministic-merge contract says `patterns`, `outcomes` and
//! [`AtpgStats`] are bit-identical for every PODEM thread count and every
//! fault-simulation engine. This test runs the constrained-shifter campaign
//! (the paper's running D-VC example) over threads ∈ {1, 2, 7} × engines ∈
//! {full-eval, compiled} and compares everything against the
//! single-threaded full-eval baseline. A property test then checks the
//! compiled three-valued tape against the interpreted dual-rail walk it
//! replaced, on random netlists, partial assignments and faults.

#![recursion_limit = "512"]

use proptest::prelude::*;
use sbst_components::shifter;
use sbst_gates::{GateKind, NetId, Netlist, NetlistBuilder, SimEngine, T3};
use sbst_tpg::{Atpg, AtpgConfig, AtpgResult, InputConstraint};

fn run_shifter(threads: usize, engine: SimEngine) -> AtpgResult {
    let cut = shifter::shifter(8);
    let faults = cut.netlist.collapsed_faults();
    // Pin the op bus like an executing instruction would (logical shift
    // right): constrained ATPG is the mode the paper cares about.
    let op = cut.ports.input("op");
    let constraints: Vec<InputConstraint> = (0..op.width())
        .map(|bit| InputConstraint {
            net: op.net(bit),
            value: bit == 0,
        })
        .collect();
    Atpg::new(&cut.netlist)
        .with_constraints(&constraints)
        .with_config(AtpgConfig {
            random_patterns: 4,
            podem_threads: Some(threads),
            sim_engine: engine,
            ..AtpgConfig::default()
        })
        .run(&faults)
}

#[test]
fn atpg_results_identical_across_threads_and_engines() {
    let base = run_shifter(1, SimEngine::FullEval);
    assert!(
        base.stats.podem_tests > 0,
        "matrix needs a real PODEM phase"
    );
    for threads in [1usize, 2, 7] {
        for engine in [SimEngine::FullEval, SimEngine::Compiled] {
            let res = run_shifter(threads, engine);
            let tag = format!("threads={threads} engine={}", engine.name());
            assert_eq!(res.patterns, base.patterns, "patterns diverge: {tag}");
            assert_eq!(res.outcomes, base.outcomes, "outcomes diverge: {tag}");
            assert_eq!(res.stats, base.stats, "stats diverge: {tag}");
        }
    }
}

// --- Compiled three-valued tape vs the interpreted dual-rail oracle ---

/// A recipe for a random combinational DAG (same shape as the gates
/// crate's random-netlist corpus).
#[derive(Debug, Clone)]
struct NetlistRecipe {
    n_inputs: usize,
    gates: Vec<(u8, Vec<usize>)>,
}

fn recipe_strategy() -> impl Strategy<Value = NetlistRecipe> {
    (2usize..6, 1usize..40).prop_flat_map(|(n_inputs, n_gates)| {
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The compiled tape the PODEM searches run on is value-identical to
    /// the interpreted dual-rail walk it replaced, for every net, on random
    /// netlists × partial assignments × faults (stem and pin).
    #[test]
    fn tape3_matches_interpreted_dual_rail(
        recipe in recipe_strategy(),
        assign_seed: u64,
        fault_sel: usize,
    ) {
        let netlist = build(&recipe);
        let faults = netlist.all_faults();
        let fault = faults[fault_sel % faults.len()];
        // A partial three-valued PI assignment from the seed: two bits per
        // input select 0 / 1 / X.
        let mut s = assign_seed | 1;
        let pi: Vec<T3> = netlist
            .inputs()
            .iter()
            .map(|_| {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                match s >> 62 {
                    0 => Some(false),
                    1 => Some(true),
                    _ => None,
                }
            })
            .collect();
        let atpg = Atpg::new(&netlist);
        let compiled = atpg.simulate_dual(&pi, &fault);
        let reference = atpg.simulate_dual_reference(&pi, &fault);
        prop_assert_eq!(compiled.len(), reference.len());
        for (net, (c, r)) in compiled.iter().zip(&reference).enumerate() {
            prop_assert_eq!(c.good, r.good, "good rail of net {} for {:?}", net, fault);
            prop_assert_eq!(c.faulty, r.faulty, "faulty rail of net {} for {:?}", net, fault);
        }
    }
}
