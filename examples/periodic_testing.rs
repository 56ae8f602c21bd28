//! On-line periodic testing in a running system — the paper's Section 2
//! scenario.
//!
//! Builds the whole self-test program, measures its execution time under
//! the paper's cache assumptions, and evaluates the three activation
//! policies (startup/shutdown, idle cycles, periodic timer) for permanent
//! and intermittent fault detection latency, plus the scheduler overhead of
//! periodic activation: analytic, and measured on the on-line test manager's
//! virtual clock over a few periodic sessions.
//!
//! ```text
//! cargo run --example periodic_testing
//! ```

use std::error::Error;
use std::time::Duration;

use sbst::core::plan::build_managed_schedule;
use sbst::core::{Cut, SelfTestProgram};
use sbst::cpu::manager::{FaultFreeBench, ManagerConfig, OnlineTestManager, SessionStatus};
use sbst::cpu::system::scheduler_overhead;
use sbst::cpu::{ActivationPolicy, AnalyticStallModel, ArchFault, ExecTimeEstimate, QuantumConfig};
use sbst::gates::Fault;

fn main() -> Result<(), Box<dyn Error>> {
    // Compose the periodic test program from the high-priority CUTs
    // (reduced widths keep this example fast; the table1 binary runs the
    // full 32-bit processor).
    let inventory = [
        Cut::alu(16),
        Cut::shifter(16),
        Cut::multiplier(8),
        Cut::divider(8),
        Cut::control(),
    ];
    let program = SelfTestProgram::build(&inventory)?;
    let run = program.run()?;
    println!(
        "self-test program: {} words, {} instructions, {} cycles, {} data refs",
        program.size_words(),
        run.stats.instructions,
        run.stats.total_cycles(),
        run.stats.data_refs()
    );
    for (label, sig) in &run.signatures {
        println!("  {label}: {sig:#010x}");
    }

    let config = QuantumConfig::default();
    let est = ExecTimeEstimate::from_stats(&run.stats, config, Some(AnalyticStallModel::default()));
    println!(
        "\nexecution time @ {} MHz: {:?} — {:.4}% of one {:?} quantum (fits: {})",
        config.clock_hz / 1e6,
        est.time,
        est.quantum_fraction * 100.0,
        config.quantum,
        est.fits_in_quantum()
    );

    // Fault-detection latency under the three activation policies.
    println!("\npermanent-fault worst-case detection latency:");
    let policies = [
        (
            "startup/shutdown (daily reboot)",
            ActivationPolicy::StartupShutdown {
                uptime: Duration::from_secs(24 * 3600),
            },
        ),
        (
            "scheduler idle cycles (~1 s gaps)",
            ActivationPolicy::IdleCycles {
                mean_idle_gap: Duration::from_secs(1),
            },
        ),
        (
            "periodic timer (500 ms)",
            ActivationPolicy::PeriodicTimer {
                interval: Duration::from_millis(500),
            },
        ),
    ];
    for (name, policy) in &policies {
        println!(
            "  {:<34} {:?}",
            name,
            policy.permanent_fault_latency(est.time)
        );
    }

    // Intermittent faults: active `d` out of every `T`.
    println!("\nintermittent fault (active 50 ms of every 2 s), timer policy:");
    let timer = ActivationPolicy::PeriodicTimer {
        interval: Duration::from_millis(500),
    };
    let active = Duration::from_millis(50);
    let period = Duration::from_secs(2);
    println!(
        "  per-run detection probability: {:.3}",
        timer.intermittent_detection_probability(active, period, est.time)
    );
    println!(
        "  expected runs to detect:       {:.1}",
        timer.expected_runs_to_detect(active, period, est.time)
    );
    println!(
        "  expected detection latency:    {:?}",
        timer.intermittent_fault_latency(active, period, est.time)
    );

    // What periodic testing costs the user programs (analytic).
    let overhead = scheduler_overhead(est.time, Duration::from_millis(500), config);
    println!(
        "\nscheduler overhead at a 500 ms test period: {:.5}% CPU, \
         {:.3} extra context switches/s, single-quantum: {}",
        overhead.test_cpu_fraction * 100.0,
        overhead.extra_context_switches_per_sec,
        overhead.single_quantum
    );

    // ... and measured: the on-line test manager runs the same CUTs'
    // routines once per period on its virtual clock, idling up to the next
    // activation between sessions the way every fleet node does. Its
    // routines run on the cacheless self-test core, so the measured share
    // carries no analytic memory-stall term.
    let schedule = build_managed_schedule(&inventory)?;
    let period_cycles = (0.5 * config.clock_hz) as u64;
    let mut mgr = OnlineTestManager::new(
        ManagerConfig {
            period_cycles,
            ..ManagerConfig::default()
        },
        schedule.components,
        schedule.store,
    );
    let sessions = 4;
    let mut test_cycles = 0;
    for session in 1..=sessions {
        let before = mgr.clock_cycles();
        let status = mgr.run_session(&mut FaultFreeBench);
        if status != (SessionStatus::Completed { healthy: true }) {
            return Err(format!("healthy session {session} ended {status:?}").into());
        }
        test_cycles += mgr.clock_cycles() - before;
        let next = session * period_cycles;
        mgr.advance_clock(next.saturating_sub(mgr.clock_cycles()));
    }
    println!(
        "measured over {sessions} managed sessions: {test_cycles} test cycles of {} \
         clock cycles, test overhead {:.5}% CPU",
        mgr.clock_cycles(),
        test_cycles as f64 / mgr.clock_cycles() as f64 * 100.0
    );

    // The on-line test manager closing the loop in-field: watchdogged
    // per-CUT routines, bounded retries with backed-off periods, and
    // transient-vs-permanent classification. 32-bit CUTs here so real
    // gate-level faults can be mounted in the datapath.
    println!("\non-line test manager (intermittent + permanent fault campaign):");
    let cuts = vec![Cut::alu(32), Cut::shifter(32)];
    let schedule = build_managed_schedule(&cuts)?;
    let alu = cuts[0].clone();
    let shifter = cuts[1].clone();
    let alu_fault = Fault::stem_sa0(alu.component.ports.output("result").net(7));
    let shifter_fault = Fault::stem_sa1(shifter.component.ports.output("result").net(0));
    // The shifter suffers a one-off disturbance (its very first attempt,
    // never again); the ALU carries a hard defect present on every attempt.
    let mut shifter_disturbed = false;
    let mut bench = move |name: &str, _attempt: u32, _now: u64| match name {
        "ALU" => Some(ArchFault::new(alu.component.clone(), alu_fault)),
        "Shifter" if !shifter_disturbed => {
            shifter_disturbed = true;
            Some(ArchFault::new(shifter.component.clone(), shifter_fault))
        }
        _ => None,
    };
    let mut mgr = OnlineTestManager::new(
        ManagerConfig::default(),
        schedule.components,
        schedule.store,
    );
    let status = mgr.run_session(&mut bench);
    println!("  session 1: {status:?}");
    for s in mgr.component_statuses() {
        println!(
            "    {:<8} health={:<11} class={:<9} {}/{} attempts passed",
            s.name,
            s.health.name(),
            s.class.map(|c| c.name()).unwrap_or("-"),
            s.passes,
            s.attempts
        );
    }
    println!("  quarantined: {:?}", mgr.quarantined());

    // Quarantine triggers a re-plan over the survivors; the healthy
    // shifter keeps getting tested every period.
    let survivors: Vec<Cut> = cuts
        .iter()
        .filter(|c| !mgr.quarantined().contains(&c.name().to_owned()))
        .cloned()
        .collect();
    let reduced = build_managed_schedule(&survivors)?;
    mgr.adopt_schedule(reduced.components, reduced.store);
    let status = mgr.run_session(&mut bench);
    println!(
        "  session 2 (reduced schedule over {:?}): {status:?}",
        mgr.active_components()
    );
    Ok(())
}
