//! The Section 2 requirements, verified on the combined program:
//! execution time below one quantum, no pipeline stalls from unresolved
//! hazards, locality under simulated caches, and a small but nonzero
//! share of CPU time when the on-line test manager runs the routines
//! periodically.

use sbst::core::plan::build_managed_schedule;
use sbst::core::{Cut, SelfTestProgram};
use sbst::cpu::{
    AnalyticStallModel, CacheConfig, Cpu, CpuConfig, ExecTimeEstimate, FaultFreeBench,
    ManagerConfig, OnlineTestManager, QuantumConfig, SessionStatus,
};

fn cuts() -> [Cut; 6] {
    [
        Cut::alu(8),
        Cut::shifter(8),
        Cut::multiplier(8),
        Cut::divider(8),
        Cut::memctrl(),
        Cut::control(),
    ]
}

fn build_program() -> SelfTestProgram {
    SelfTestProgram::build(&cuts()).expect("program builds")
}

#[test]
fn fits_within_a_quantum_with_margin() {
    let program = build_program();
    let run = program.run().expect("program runs");
    let est = ExecTimeEstimate::from_stats(
        &run.stats,
        QuantumConfig::default(),
        Some(AnalyticStallModel::default()),
    );
    assert!(est.fits_in_quantum());
    // "much less than a quantum time cycle": orders of magnitude.
    assert!(
        est.quantum_fraction < 0.01,
        "quantum fraction {}",
        est.quantum_fraction
    );
}

#[test]
fn no_data_hazard_stalls_with_forwarding() {
    // The emitted code must not stall the forwarding pipeline except for
    // legitimate Hi/Lo unit waits (`mflo` shortly after `div`/`divu`,
    // present in the divider routine and in the control FT's opcode
    // coverage). A program without any divide has zero stalls.
    let no_div = SelfTestProgram::build(&[Cut::alu(8), Cut::shifter(8), Cut::memctrl()])
        .expect("program builds");
    let run = no_div.run().expect("program runs");
    assert_eq!(
        run.stats.pipeline_stall_cycles, 0,
        "hazard-free code without divides must not stall"
    );
    // With the divider present the only stalls are Hi/Lo waits.
    let full_run = build_program().run().expect("program runs");
    assert!(full_run.stats.pipeline_stall_cycles > 0); // divider waits exist
}

#[test]
fn locality_beats_the_analytic_bound_for_loop_styles() {
    // The paper's locality argument is about the *loop-based* code styles
    // (Figures 2-4): a compact loop executes from a handful of cache lines,
    // so measured stalls fall far below the pessimistic 5%-of-every-access
    // analytic model. (Immediate styles trade this for zero data refs and
    // linear code — their instruction misses are the paper's own caveat.)
    use sbst::core::{CodeStyle, RoutineSpec};
    let cut = Cut::alu(8);
    let mut spec = RoutineSpec::new(CodeStyle::PseudorandomLoop);
    spec.pseudorandom_count = 512;
    let routine = spec.build(&cut).expect("routine builds");
    let mut cpu = Cpu::new(CpuConfig {
        icache: Some(CacheConfig::default()),
        dcache: Some(CacheConfig::default()),
        ..CpuConfig::default()
    });
    cpu.load_program(&routine.program);
    let outcome = cpu.run().expect("cached run");
    let analytic = AnalyticStallModel::default()
        .stall_cycles(outcome.stats.imem_accesses, outcome.stats.dmem_accesses);
    assert!(
        outcome.stats.memory_stall_cycles < analytic / 10,
        "measured {} vs analytic {}",
        outcome.stats.memory_stall_cycles,
        analytic
    );
    let miss_rate = outcome.stats.icache_misses as f64 / outcome.stats.imem_accesses as f64;
    assert!(miss_rate < 0.005, "icache miss rate {miss_rate}");
}

#[test]
fn memory_footprint_is_small() {
    // "A very small code ... residing in the memory system": the whole
    // reduced-width program is a few thousand words at most.
    let program = build_program();
    assert!(
        program.size_words() < 4000,
        "program is {} words",
        program.size_words()
    );
}

#[test]
fn periodic_managed_sessions_cost_a_small_nonzero_share() {
    // The test process competes with user processes once per period: each
    // fault-free session moves the manager's clock by exactly the
    // routines' characterized cycles, and the idle time up to the next
    // activation fills the rest of the period.
    let schedule = build_managed_schedule(&cuts()).expect("schedule builds");
    let session_cycles: u64 = schedule.components.iter().map(|c| c.expected_cycles).sum();
    let config = ManagerConfig::default();
    let mut mgr = OnlineTestManager::new(config, schedule.components, schedule.store);
    let sessions = 5;
    for session in 1..=sessions {
        let before = mgr.clock_cycles();
        assert_eq!(
            mgr.run_session(&mut FaultFreeBench),
            SessionStatus::Completed { healthy: true }
        );
        assert_eq!(
            mgr.clock_cycles() - before,
            session_cycles,
            "session {session}"
        );
        mgr.advance_clock(session * config.period_cycles - mgr.clock_cycles());
    }
    assert_eq!(mgr.clock_cycles(), sessions * config.period_cycles);
    let overhead = (sessions * session_cycles) as f64 / mgr.clock_cycles() as f64;
    assert!(overhead > 0.0 && overhead < 0.02, "overhead {overhead}");
}
