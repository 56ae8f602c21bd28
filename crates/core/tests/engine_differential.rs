//! Engine differential over the component smoke suite (the inventory of
//! `table1 --smoke`): the compiled tape engine must reproduce the full-eval
//! reference oracle's stuck-at and transition coverage bit-for-bit on
//! every real CUT, crossed with thread counts.

use sbst_core::{grade_trace_models, Cut, RoutineSpec, Table1};
use sbst_gates::{FaultSimConfig, SimEngine};

fn smoke_inventory() -> Vec<Cut> {
    vec![
        Cut::alu(8),
        Cut::shifter(8),
        Cut::control(),
        Cut::pipeline(8),
        Cut::pc_unit(8, 4),
    ]
}

#[test]
fn component_suite_coverage_is_bit_identical_across_engines() {
    let cuts = smoke_inventory();
    let full =
        Table1::generate_with(&cuts, FaultSimConfig::with_engine(SimEngine::FullEval)).unwrap();
    let compiled =
        Table1::generate_with(&cuts, FaultSimConfig::with_engine(SimEngine::Compiled)).unwrap();
    for (a, b) in full.rows.iter().zip(&compiled.rows) {
        assert_eq!(a.coverage, b.coverage, "{} coverage diverged", a.name);
        assert_eq!(
            a.transition_coverage, b.transition_coverage,
            "{} transition coverage diverged",
            a.name
        );
        assert_eq!(a.size_words, b.size_words, "{}", a.name);
        assert_eq!(a.cpu_cycles, b.cpu_cycles, "{}", a.name);
    }
    assert_eq!(full.overall_coverage, compiled.overall_coverage);
    assert_eq!(
        full.overall_transition_coverage,
        compiled.overall_transition_coverage
    );
    assert!(compiled.lane_occupancy() > 0.0 && compiled.lane_occupancy() <= 1.0);
}

/// The engine × thread-count matrix over the smoke suite:
/// every combination must reproduce the single-threaded full-eval
/// coverage exactly, per component and overall.
#[test]
fn engine_thread_matrix_is_bit_identical_on_components() {
    let cuts = smoke_inventory();
    let reference = Table1::generate_with(
        &cuts,
        FaultSimConfig {
            engine: SimEngine::FullEval,
            threads: Some(1),
            ..FaultSimConfig::default()
        },
    )
    .unwrap();
    for engine in [SimEngine::FullEval, SimEngine::Compiled] {
        for threads in [1usize, 4] {
            let table = Table1::generate_with(
                &cuts,
                FaultSimConfig {
                    engine,
                    threads: Some(threads),
                    ..FaultSimConfig::default()
                },
            )
            .unwrap();
            for (a, b) in reference.rows.iter().zip(&table.rows) {
                assert_eq!(
                    a.coverage,
                    b.coverage,
                    "{} diverged under {} × {threads} threads",
                    a.name,
                    engine.name()
                );
                assert_eq!(
                    a.transition_coverage,
                    b.transition_coverage,
                    "{} transition coverage diverged under {} × {threads} threads",
                    a.name,
                    engine.name()
                );
            }
            assert_eq!(
                reference.overall_coverage,
                table.overall_coverage,
                "{} × {threads} threads",
                engine.name()
            );
            assert_eq!(
                reference.overall_transition_coverage,
                table.overall_transition_coverage,
                "transition totals: {} × {threads} threads",
                engine.name()
            );
        }
    }
}

/// Two-pattern transition grading over a real routine trace: every engine
/// × thread-count combination must reproduce the single-threaded
/// full-eval transition coverage bit-for-bit, alongside the stuck-at
/// numbers from the same shared stimulus.
#[test]
fn transition_grading_matrix_is_bit_identical() {
    let cut = Cut::alu(8);
    let routine = RoutineSpec::recommended(&cut).build(&cut).unwrap();
    let (_, trace, _) = sbst_core::grade::execute_routine(&routine).unwrap();
    let reference = grade_trace_models(
        &cut,
        &trace,
        FaultSimConfig {
            engine: SimEngine::FullEval,
            threads: Some(1),
            ..FaultSimConfig::default()
        },
    );
    assert!(reference.transition_coverage.total > 0);
    assert!(reference.transition_coverage.detected > 0);
    // Two-pattern detection is strictly harder than single-pattern
    // stuck-at detection of the same stem value, so the transition model
    // can never beat stuck-at coverage on the same stimulus here.
    assert!(reference.transition_coverage.percent() <= reference.coverage.percent());
    for engine in [SimEngine::FullEval, SimEngine::Compiled] {
        for threads in [1usize, 2, 7] {
            let grade = grade_trace_models(
                &cut,
                &trace,
                FaultSimConfig {
                    engine,
                    threads: Some(threads),
                    ..FaultSimConfig::default()
                },
            );
            assert_eq!(
                reference.coverage,
                grade.coverage,
                "stuck-at diverged under {} × {threads} threads",
                engine.name()
            );
            assert_eq!(
                reference.transition_coverage,
                grade.transition_coverage,
                "transition diverged under {} × {threads} threads",
                engine.name()
            );
        }
    }
}

#[test]
fn trace_grading_agrees_per_component() {
    // Grade a single routine's trace under both engines and compare the
    // detailed stats.
    let cut = Cut::alu(8);
    let routine = RoutineSpec::recommended(&cut).build(&cut).unwrap();
    let (_, trace, _) = sbst_core::grade::execute_routine(&routine).unwrap();
    let full = grade_trace_models(
        &cut,
        &trace,
        FaultSimConfig::with_engine(SimEngine::FullEval),
    );
    let stats_full = full.sim_stats;
    assert_eq!(stats_full.events_simulated, stats_full.events_full_eval);
    assert!(stats_full.events_simulated > 0);
    // The compiled engine packs faults 4× wider: same coverage, about a
    // quarter of the batches.
    let compiled = grade_trace_models(
        &cut,
        &trace,
        FaultSimConfig::with_engine(SimEngine::Compiled),
    );
    let stats_compiled = compiled.sim_stats;
    assert_eq!(full.coverage, compiled.coverage);
    assert_eq!(full.transition_coverage, compiled.transition_coverage);
    assert!(stats_compiled.batches < stats_full.batches);
    // Each model's fault list fills whole batches but its last.
    let per_pass = SimEngine::Compiled.faults_per_pass() as u64;
    assert_eq!(
        stats_compiled.lane_slots_total,
        stats_compiled.batches * per_pass
    );
    assert!(stats_compiled.lane_slots_total - stats_compiled.lane_slots_filled < 2 * per_pass);
}
