//! Differential determinism matrix for the parallel PODEM kernel.
//!
//! The deterministic-merge contract says `patterns`, `outcomes` and
//! [`AtpgStats`] are bit-identical for every PODEM thread count and every
//! fault-simulation engine. This test runs the constrained-shifter campaign
//! (the paper's running D-VC example) over threads ∈ {1, 2, 7} × engines ∈
//! {full-eval, compiled} and compares everything against the
//! single-threaded full-eval baseline.

use sbst_components::shifter::{self, ShiftFunc};
use sbst_gates::SimEngine;
use sbst_tpg::{op_constraints, Atpg, AtpgConfig, AtpgResult};

fn run_shifter(threads: usize, engine: SimEngine) -> AtpgResult {
    let cut = shifter::shifter(8);
    let faults = cut.netlist.collapsed_faults();
    // Pin the op bus like an executing instruction would (logical shift
    // right): constrained ATPG is the mode the paper cares about.
    Atpg::new(&cut.netlist)
        .with_constraints(&op_constraints(&cut, ShiftFunc::Srl.encoding()))
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
