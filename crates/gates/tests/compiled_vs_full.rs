//! Differential tests for the compiled tape engine against the full-eval
//! reference oracle: the tape compiler and the wide [`TapeSimulator`]
//! must reproduce plain bit-parallel simulation — and the full
//! fault-grading pipeline — exactly, for *any* structurally valid circuit,
//! including sequential ones, and for every thread count.

use proptest::prelude::*;
use sbst_gates::{
    CompiledTape, FaultSimConfig, FaultSimResult, FaultSimulator, GateKind, NetId, Netlist,
    NetlistBuilder, SimEngine, Simulator, Stimulus, TapeSimulator,
};

/// A recipe for a random netlist: combinational gates with optional
/// flip-flops sprinkled in so circuits can be sequential too.
#[derive(Debug, Clone)]
struct Recipe {
    n_inputs: usize,
    gates: Vec<(u8, Vec<usize>)>,
}

fn recipe_strategy() -> impl Strategy<Value = Recipe> {
    (2usize..6, 1usize..40).prop_flat_map(|(n_inputs, n_gates)| {
        let gate = (0u8..10, prop::collection::vec(0usize..1000, 3));
        prop::collection::vec(gate, n_gates).prop_map(move |gates| Recipe { n_inputs, gates })
    })
}

fn build(recipe: &Recipe) -> Netlist {
    let mut b = NetlistBuilder::new("random");
    let mut nets: Vec<NetId> = (0..recipe.n_inputs)
        .map(|i| b.input(&format!("i{i}")))
        .collect();
    for (kind_sel, choices) in &recipe.gates {
        let pick = |k: usize| nets[choices[k] % nets.len()];
        let out = match kind_sel % 10 {
            0 => b.gate(GateKind::And, &[pick(0), pick(1)]),
            1 => b.gate(GateKind::Or, &[pick(0), pick(1)]),
            2 => b.gate(GateKind::Nand, &[pick(0), pick(1)]),
            3 => b.gate(GateKind::Nor, &[pick(0), pick(1)]),
            4 => b.gate(GateKind::Xor, &[pick(0), pick(1)]),
            5 => b.gate(GateKind::Xnor, &[pick(0), pick(1)]),
            6 => b.gate(GateKind::Not, &[pick(0)]),
            7 => b.gate(GateKind::Mux2, &[pick(0), pick(1), pick(2)]),
            8 => b.gate(GateKind::And, &[pick(0), pick(1), pick(2)]),
            _ => b.dff(pick(0)),
        };
        nets.push(out);
    }
    let n = nets.len();
    for (k, &net) in nets[n.saturating_sub(3)..].iter().enumerate() {
        b.mark_output(net, &format!("o{k}"));
    }
    b.finish().expect("random DAGs are structurally valid")
}

fn random_stimulus(n_inputs: usize, cycles: usize, seed: u64) -> Stimulus {
    let mut stim = Stimulus::new();
    let mut s = seed | 1;
    for cycle in 0..cycles {
        let bits: Vec<bool> = (0..n_inputs)
            .map(|_| {
                s = s
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                s >> 63 == 1
            })
            .collect();
        stim.push_cycle(&bits, cycle % 3 != 2);
    }
    stim
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Tape replay equals full per-gate evaluation: driving the same
    /// multi-cycle stimulus through [`Simulator`] and a fault-free
    /// [`TapeSimulator`] yields identical values on every net, every
    /// cycle.
    #[test]
    fn tape_replay_matches_full_eval(recipe in recipe_strategy(), seed: u64) {
        let netlist = build(&recipe);
        let tape = CompiledTape::compile(&netlist);
        let stim = random_stimulus(netlist.inputs().len(), 8, seed);
        let mut plain = Simulator::new(&netlist);
        let mut fast: TapeSimulator<_, 1> = TapeSimulator::new(&tape);
        for (inputs, _) in stim.iter() {
            for (pos, &net) in netlist.inputs().iter().enumerate() {
                plain.set_input(net, inputs[pos]);
                fast.set_input(net, inputs[pos]);
            }
            plain.eval();
            fast.eval();
            let gate_outputs = netlist.gates().iter().map(|g| g.output);
            for net in netlist.inputs().iter().copied().chain(gate_outputs) {
                prop_assert_eq!(plain.value(net), fast.value(net)[0], "net {}", net);
            }
            plain.step();
            fast.step();
        }
    }

    /// Lane widening is bit-identical: the same stimulus and faults drive
    /// 1-, 2- and 4-word simulators, and every lane agrees with lane 0 of
    /// the others (fault-free) or with the matching narrow lane (faulty).
    #[test]
    fn lane_widening_is_bit_identical(recipe in recipe_strategy(), seed: u64) {
        let netlist = build(&recipe);
        let tape = CompiledTape::compile(&netlist);
        let stim = random_stimulus(netlist.inputs().len(), 6, seed);
        let faults = netlist.collapsed_faults();
        let take = faults.len().min(3);
        let mut w1: TapeSimulator<_, 1> = TapeSimulator::new(&tape);
        let mut w2: TapeSimulator<_, 2> = TapeSimulator::new(&tape);
        let mut w4: TapeSimulator<_, 4> = TapeSimulator::new(&tape);
        // The same faults injected at a narrow lane, a word-1 lane and a
        // word-3 lane respectively.
        for (k, fault) in faults[..take].iter().enumerate() {
            w1.inject_fault(fault, 1 + k);
            w2.inject_fault(fault, 65 + k);
            w4.inject_fault(fault, 193 + k);
        }
        for (inputs, _) in stim.iter() {
            for (pos, &net) in netlist.inputs().iter().enumerate() {
                w1.set_input(net, inputs[pos]);
                w2.set_input(net, inputs[pos]);
                w4.set_input(net, inputs[pos]);
            }
            w1.eval();
            w2.eval();
            w4.eval();
            for &o in netlist.outputs() {
                let v1 = w1.value(o);
                let v2 = w2.value(o);
                let v4 = w4.value(o);
                // Fault-free reference: lane 0 everywhere.
                prop_assert_eq!(v1[0] & 1, v2[0] & 1);
                prop_assert_eq!(v1[0] & 1, v4[0] & 1);
                for k in 0..take {
                    let b1 = v1[0] >> (1 + k) & 1;
                    let b2 = v2[1] >> (1 + k) & 1;
                    let b4 = v4[3] >> (1 + k) & 1;
                    prop_assert_eq!(b1, b2, "fault {} word1", k);
                    prop_assert_eq!(b1, b4, "fault {} word3", k);
                }
            }
            w1.step();
            w2.step();
            w4.step();
        }
    }

    /// End-to-end: grading the full collapsed fault list with the compiled
    /// engine is bit-identical to the full-eval reference on random
    /// netlists.
    #[test]
    fn compiled_grading_is_bit_identical(recipe in recipe_strategy(), seed: u64) {
        let netlist = build(&recipe);
        let stim = random_stimulus(netlist.inputs().len(), 6, seed);
        let reference = grade(&netlist, &stim, SimEngine::FullEval, 1);
        let compiled = grade(&netlist, &stim, SimEngine::Compiled, 1);
        prop_assert_eq!(&reference.detected, &compiled.detected);
        prop_assert_eq!(&reference.detecting_cycle, &compiled.detecting_cycle);
        prop_assert_eq!(&reference.fault_free_responses, &compiled.fault_free_responses);
    }
}

fn grade(netlist: &Netlist, stim: &Stimulus, engine: SimEngine, threads: usize) -> FaultSimResult {
    FaultSimulator::with_config(
        netlist,
        FaultSimConfig {
            engine,
            threads: Some(threads),
            ..FaultSimConfig::default()
        },
    )
    .simulate(&netlist.collapsed_faults(), stim)
}

/// A small sequential circuit: a 4-stage shift register with an XOR tap
/// and an AND-gated output cone — registers, reconvergence and
/// combinational depth in one netlist.
fn shift4() -> Netlist {
    let mut b = NetlistBuilder::new("shift4");
    let en = b.input("en");
    let d = b.input("d");
    let q0 = b.dff(d);
    let q1 = b.dff(q0);
    let q2 = b.dff(q1);
    let q3 = b.dff(q2);
    let fb = b.xor2(q2, q3);
    let o0 = b.and2(q0, en);
    let o1 = b.and2(q1, en);
    let o2 = b.xor2(q2, fb);
    b.mark_output(o0, "o0");
    b.mark_output(o1, "o1");
    b.mark_output(o2, "o2");
    b.finish().unwrap()
}

/// Both engines at every thread count reproduce the single-threaded
/// full-eval grading of a hand-built sequential circuit.
#[test]
fn sequential_circuit_engine_thread_matrix_is_bit_identical() {
    let n = shift4();
    let stim = random_stimulus(n.inputs().len(), 48, 0xDEAD_BEEF);
    let reference = grade(&n, &stim, SimEngine::FullEval, 1);
    assert!(reference.detected.iter().any(|&d| d), "stimulus detects");
    for engine in [SimEngine::FullEval, SimEngine::Compiled] {
        for threads in [1usize, 2, 4, 8] {
            let res = grade(&n, &stim, engine, threads);
            let tag = format!("{} × {threads} threads", engine.name());
            assert_eq!(res.detected, reference.detected, "{tag}");
            assert_eq!(res.detecting_cycle, reference.detecting_cycle, "{tag}");
            assert_eq!(
                res.fault_free_responses, reference.fault_free_responses,
                "{tag}"
            );
        }
    }
}
