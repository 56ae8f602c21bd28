//! Property-based tests over randomly generated netlists: the bit-parallel
//! simulator, the fault simulator's reference lane and fault collapsing
//! must be mutually consistent for *any* structurally valid circuit, not
//! just the hand-built components.

use proptest::prelude::*;
use sbst_gates::{
    collapse_faults, enumerate_faults, FaultSimConfig, FaultSimulator, GateKind, NetId, Netlist,
    NetlistBuilder, SimEngine, Simulator, Stimulus,
};

/// A recipe for a random combinational DAG.
#[derive(Debug, Clone)]
struct NetlistRecipe {
    n_inputs: usize,
    gates: Vec<(u8, Vec<usize>)>, // (kind selector, input net indices as "choose mod available")
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
    // Observe the last few nets (always at least one gate output).
    let n = nets.len();
    for (k, &net) in nets[n.saturating_sub(3)..].iter().enumerate() {
        b.mark_output(net, &format!("o{k}"));
    }
    b.finish().expect("random DAGs are structurally valid")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Each lane of the 64-lane simulator behaves as an independent
    /// single-pattern simulation.
    #[test]
    fn lanes_are_independent(recipe in recipe_strategy(), seed: u64) {
        let netlist = build(&recipe);
        let n_in = netlist.inputs().len();
        // Lane-varied inputs from the seed.
        let mut sim = Simulator::new(&netlist);
        let mut words = Vec::new();
        let mut s = seed | 1;
        for (pos, &net) in netlist.inputs().iter().enumerate() {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(pos as u64);
            sim.set_input_lanes(net, s);
            words.push(s);
        }
        sim.eval();
        let parallel: Vec<u64> = netlist.outputs().iter().map(|&o| sim.value(o)).collect();
        // Check three scattered lanes against broadcast runs.
        for lane in [0usize, 17, 63] {
            let mut single = Simulator::new(&netlist);
            for (pos, &net) in netlist.inputs().iter().enumerate() {
                single.set_input(net, (words[pos] >> lane) & 1 == 1);
            }
            single.eval();
            for (k, &o) in netlist.outputs().iter().enumerate() {
                prop_assert_eq!(
                    (parallel[k] >> lane) & 1,
                    single.value(o) & 1,
                    "lane {} output {}", lane, k
                );
            }
        }
        let _ = n_in;
    }

    /// Collapsing returns a subset of the full fault list, keeps all stem
    /// faults, and never changes measured coverage upward beyond the full
    /// list's (a pattern set detecting every collapsed fault detects a
    /// representative of every equivalence class).
    #[test]
    fn collapsing_is_a_subset_with_stems(recipe in recipe_strategy()) {
        let netlist = build(&recipe);
        let all = enumerate_faults(&netlist);
        let collapsed = collapse_faults(&netlist, &all);
        prop_assert!(collapsed.len() <= all.len());
        for f in &collapsed {
            prop_assert!(all.contains(f));
        }
        let stems = all
            .iter()
            .filter(|f| matches!(f.site, sbst_gates::FaultSite::Stem(_)))
            .count();
        let kept_stems = collapsed
            .iter()
            .filter(|f| matches!(f.site, sbst_gates::FaultSite::Stem(_)))
            .count();
        prop_assert_eq!(stems, kept_stems);
    }

    /// The fault simulator's reference lane reproduces plain simulation on
    /// random patterns for random netlists, and the compiled engine's
    /// results equal the never-dropping full-eval oracle's.
    #[test]
    fn fault_sim_reference_lane(recipe in recipe_strategy(), pattern_seed: u64) {
        let netlist = build(&recipe);
        let n_in = netlist.inputs().len();
        let mut stim = Stimulus::new();
        let mut patterns = Vec::new();
        let mut s = pattern_seed | 1;
        for _ in 0..4 {
            let bits: Vec<bool> = (0..n_in)
                .map(|_| {
                    s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                    s >> 63 == 1
                })
                .collect();
            stim.push_pattern(&bits);
            patterns.push(bits);
        }
        let faults = netlist.collapsed_faults();
        let take = faults.len().min(10);
        let graded = [SimEngine::Compiled, SimEngine::FullEval].map(|engine| {
            FaultSimulator::with_config(&netlist, FaultSimConfig::with_engine(engine))
                .simulate(&faults[..take], &stim)
        });
        let [result, oracle] = &graded;
        prop_assert_eq!(&result.detecting_cycle, &oracle.detecting_cycle);
        prop_assert_eq!(&result.fault_free_responses, &oracle.fault_free_responses);
        prop_assert_eq!(result.fault_free_responses.len(), 4);
        for (cycle, bits) in patterns.iter().enumerate() {
            let mut sim = Simulator::new(&netlist);
            for (pos, &net) in netlist.inputs().iter().enumerate() {
                sim.set_input(net, bits[pos]);
            }
            sim.eval();
            for (k, &o) in netlist.outputs().iter().enumerate() {
                let expect = sim.value(o) & 1;
                let got = (result.fault_free_responses[cycle][k / 64] >> (k % 64)) & 1;
                prop_assert_eq!(got, expect, "cycle {} output {}", cycle, k);
            }
        }
    }

    /// The compiled engine is bit-identical to the full-eval reference on
    /// the random-netlist corpus: same detections, same
    /// detecting cycles, same fault-free responses.
    #[test]
    fn engines_are_bit_identical_on_random_netlists(
        recipe in recipe_strategy(),
        pattern_seed: u64,
    ) {
        let netlist = build(&recipe);
        let n_in = netlist.inputs().len();
        let mut stim = Stimulus::new();
        let mut s = pattern_seed | 1;
        for cycle in 0..6 {
            let bits: Vec<bool> = (0..n_in)
                .map(|_| {
                    s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                    s >> 63 == 1
                })
                .collect();
            // Mix observed and hidden cycles to exercise both paths.
            stim.push_cycle(&bits, cycle % 3 != 2);
        }
        let faults = netlist.collapsed_faults();
        let full = FaultSimulator::with_config(
            &netlist,
            FaultSimConfig { engine: SimEngine::FullEval, threads: Some(1) },
        )
        .simulate(&faults, &stim);
        let compiled = FaultSimulator::with_config(
            &netlist,
            FaultSimConfig {
                engine: SimEngine::Compiled,
                threads: Some(1),
            },
        )
        .simulate(&faults, &stim);
        prop_assert_eq!(&full.detected, &compiled.detected);
        prop_assert_eq!(&full.detecting_cycle, &compiled.detecting_cycle);
        prop_assert_eq!(&full.fault_free_responses, &compiled.fault_free_responses);
    }

    /// The full-eval engine evaluates every combinational gate on every
    /// clocked cycle, so its event count equals the full-eval baseline of
    /// `cycles × combinational gates` exactly; the compiled engine
    /// evaluates only each batch's fanout cone, never more than that.
    #[test]
    fn event_counts_stay_within_cycles_times_gates(
        recipe in recipe_strategy(),
        pattern_seed: u64,
    ) {
        let netlist = build(&recipe);
        let n_in = netlist.inputs().len();
        let mut stim = Stimulus::new();
        let mut s = pattern_seed | 1;
        for _ in 0..5 {
            let bits: Vec<bool> = (0..n_in)
                .map(|_| {
                    s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                    s >> 63 == 1
                })
                .collect();
            stim.push_pattern(&bits);
        }
        let faults = netlist.collapsed_faults();
        for engine in [SimEngine::FullEval, SimEngine::Compiled] {
            let res = FaultSimulator::with_config(
                &netlist,
                FaultSimConfig { engine, ..FaultSimConfig::default() },
            )
            .simulate(&faults, &stim);
            let baseline = res.stats.cycles_simulated * netlist.comb_order().len() as u64;
            prop_assert_eq!(res.stats.events_full_eval, baseline);
            if engine == SimEngine::FullEval {
                prop_assert_eq!(res.stats.events_simulated, res.stats.events_full_eval);
            } else {
                prop_assert!(res.stats.events_simulated <= res.stats.events_full_eval);
            }
        }
    }

    /// Verilog export mentions every named primary input and ends with
    /// `endmodule` for arbitrary netlists.
    #[test]
    fn verilog_export_is_complete(recipe in recipe_strategy()) {
        let netlist = build(&recipe);
        let v = sbst_gates::verilog::to_verilog(&netlist);
        for &pi in netlist.inputs() {
            let name = netlist.net_name(pi).unwrap();
            let decl = format!("input {};", name);
            prop_assert!(v.contains(&decl));
        }
        prop_assert!(v.trim_end().ends_with("endmodule"));
    }

    /// SCOAP never reports an observable net as unobservable: any net with
    /// a structural path to an output gets a finite CO.
    #[test]
    fn scoap_observability_covers_output_cone(recipe in recipe_strategy()) {
        let netlist = build(&recipe);
        let t = sbst_gates::Testability::analyze(&netlist);
        // Outputs themselves are observable at cost 0.
        for &o in netlist.outputs() {
            prop_assert_eq!(t.co[o.index()], 0);
        }
        // Inputs of gates driving outputs are observable (finite CO)
        // unless blocked by a constant; our random netlists have no
        // constants, so direct fan-ins of outputs must be finite.
        for &o in netlist.outputs() {
            if let Some(gid) = netlist.driver(o) {
                for inp in &netlist.gate(gid).inputs {
                    prop_assert!(t.co[inp.index()] < sbst_gates::scoap::UNREACHABLE);
                }
            }
        }
    }
}
