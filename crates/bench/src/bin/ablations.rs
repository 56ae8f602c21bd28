//! Ablation studies over the design choices DESIGN.md calls out.
//!
//! ```text
//! cargo run --release -p sbst-bench --bin ablations [-- --threads N] [--json out.json]
//! ```
//!
//! 1. **Branch architecture**: delay slots (Plasma) vs predict-not-taken
//!    penalties — the paper: "pipeline stalls are unavoidable when branch
//!    prediction is used". Loop-based code styles are hit hardest.
//! 2. **Forwarding**: the paper's requirement that test code contain no
//!    unresolved data hazards only comes for free with forwarding; without
//!    it, the same routines stall.
//! 3. **Energy by code style**: the Section 2 power argument — loop styles
//!    minimize cache misses and hence external-bus energy.
//! 4. **MISR aliasing**: signature-exact grading vs output divergence —
//!    quantifying the "negligible aliasing" claim on a real routine.
//! 5. **Fault-list collapsing**: grading cost with and without equivalence
//!    collapsing (quality is unchanged by construction; the win is volume).
//! 6. **Simulation engine**: the never-dropping full-eval oracle vs the
//!    compiled tape on the same stimulus — identical coverage; the oracle
//!    evaluates every gate of every batch on every cycle, while the
//!    compiled engine packs 255 faults per pass into flat
//!    precomputed-operand entries and clocks only what can still detect a
//!    fault (dropping, repacking, fanout cones), so its event count falls
//!    far below the oracle's.
//! 7. **Fault model**: single stuck-at vs gross transition-delay on the
//!    same stimulus — two-pattern launch/capture detection needs pattern
//!    *pairs*, so transition coverage trails stuck-at coverage; the
//!    oracle and the compiled engine agree bit-for-bit on the transition
//!    numbers too.
//!
//! `--threads` pins every worker pool: the grading fault simulator and the
//! routine builds' PODEM and ATPG grading pools. Results are identical
//! for every setting.

use sbst_bench::{json_output_path, threads_flag, write_report_if_requested};
use sbst_core::grade::execute_routine;
use sbst_core::{CodeStyle, Cut, JsonValue, RoutineSpec, RunReport};
use sbst_cpu::{CacheConfig, Cpu, CpuConfig, EnergyModel};
use sbst_gates::{FaultSimConfig, FaultSimulator, SimEngine};
use std::time::Instant;

fn run_with(routine: &sbst_core::SelfTestRoutine, config: CpuConfig) -> sbst_cpu::ExecStats {
    let mut cpu = Cpu::new(config);
    cpu.load_program(&routine.program);
    cpu.run().expect("routine runs").stats
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let json_path = json_output_path(&args).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2);
    });
    let threads = threads_flag(&args).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2);
    });
    let sim = FaultSimConfig {
        threads,
        ..FaultSimConfig::default()
    };
    let cut = Cut::alu(32);
    let styles = [
        CodeStyle::AtpgImmediate,
        CodeStyle::AtpgDataFetch,
        CodeStyle::PseudorandomLoop,
        CodeStyle::RegularLoopImmediate,
    ];
    let routines: Vec<_> = styles
        .iter()
        .map(|&style| {
            let mut spec = RoutineSpec::new(style);
            spec.pseudorandom_count = 128;
            // `--threads` pins the ATPG pools as well as the grading simulator.
            spec.atpg.podem_threads = threads;
            spec.atpg.sim_threads = threads;
            (style, spec.build(&cut).expect("routine builds"))
        })
        .collect();

    println!("== Ablation 1: branch architecture (cycles incl. stalls) ==");
    println!(
        "{:<14} {:>12} {:>14} {:>8}",
        "style", "delay slots", "penalty 2", "growth"
    );
    let mut branch_rows = Vec::new();
    for (style, routine) in &routines {
        let base = run_with(routine, CpuConfig::self_test());
        let pred = run_with(
            routine,
            CpuConfig {
                branch_penalty: 2,
                ..CpuConfig::self_test()
            },
        );
        println!(
            "{:<14} {:>12} {:>14} {:>7.1}%",
            style.code(),
            base.total_cycles(),
            pred.total_cycles(),
            (pred.total_cycles() as f64 / base.total_cycles() as f64 - 1.0) * 100.0
        );
        branch_rows.push(JsonValue::object([
            ("code_style", JsonValue::from(style.code())),
            ("delay_slot_cycles", JsonValue::from(base.total_cycles())),
            ("penalty2_cycles", JsonValue::from(pred.total_cycles())),
        ]));
    }

    println!("\n== Ablation 2: forwarding (pipeline stall cycles) ==");
    println!(
        "{:<14} {:>12} {:>14}",
        "style", "forwarding", "no forwarding"
    );
    let mut forwarding_rows = Vec::new();
    for (style, routine) in &routines {
        let with = run_with(routine, CpuConfig::self_test());
        let without = run_with(
            routine,
            CpuConfig {
                forwarding: false,
                ..CpuConfig::self_test()
            },
        );
        println!(
            "{:<14} {:>12} {:>14}",
            style.code(),
            with.pipeline_stall_cycles,
            without.pipeline_stall_cycles
        );
        forwarding_rows.push(JsonValue::object([
            ("code_style", JsonValue::from(style.code())),
            (
                "forwarding_stalls",
                JsonValue::from(with.pipeline_stall_cycles),
            ),
            (
                "no_forwarding_stalls",
                JsonValue::from(without.pipeline_stall_cycles),
            ),
        ]));
    }

    println!("\n== Ablation 3: energy by code style (normalized, 1 KiB caches) ==");
    println!(
        "{:<14} {:>9} {:>9} {:>9} {:>10}",
        "style", "core", "cache", "memory", "total"
    );
    let model = EnergyModel::default();
    let mut energy_rows = Vec::new();
    for (style, routine) in &routines {
        let stats = run_with(
            routine,
            CpuConfig {
                icache: Some(CacheConfig::default()),
                dcache: Some(CacheConfig::default()),
                ..CpuConfig::self_test()
            },
        );
        let e = model.estimate(&stats, 0);
        println!(
            "{:<14} {:>9.0} {:>9.0} {:>9.0} {:>10.0}",
            style.code(),
            e.core,
            e.cache,
            e.memory,
            e.total()
        );
        energy_rows.push(JsonValue::object([
            ("code_style", JsonValue::from(style.code())),
            ("core", JsonValue::Float(e.core)),
            ("cache", JsonValue::Float(e.cache)),
            ("memory", JsonValue::Float(e.memory)),
            ("total", JsonValue::Float(e.total())),
        ]));
    }

    println!("\n== Ablation 4: MISR aliasing (signature-exact vs divergence grading) ==");
    let misr = {
        let (_, trace, _) = execute_routine(&routines[3].1).expect("routine runs");
        let stimulus = sbst_core::stimulus_for(&cut, &trace);
        let faults = cut.component.netlist.collapsed_faults();
        let result = sbst_tpg::signature_grade(&cut.component.netlist, &faults, &stimulus);
        let diverged = result.detected_by_divergence.iter().filter(|d| **d).count();
        let by_signature = result.detected_by_signature.iter().filter(|d| **d).count();
        println!(
            "{} faults: {} diverge at outputs, {} detected by signature, \
             {} aliased ({:.4}% aliasing rate)",
            faults.len(),
            diverged,
            by_signature,
            result.aliased().len(),
            result.aliasing_rate() * 100.0
        );
        JsonValue::object([
            ("faults", JsonValue::from(faults.len())),
            ("detected_by_divergence", JsonValue::from(diverged)),
            ("detected_by_signature", JsonValue::from(by_signature)),
            ("aliased", JsonValue::from(result.aliased().len())),
            (
                "aliasing_rate_percent",
                JsonValue::Float(result.aliasing_rate() * 100.0),
            ),
        ])
    };

    println!("\n== Ablation 5: fault-list collapsing (grading volume) ==");
    let (_, trace, _) = execute_routine(&routines[3].1).expect("routine runs");
    let stimulus = sbst_core::stimulus_for(&cut, &trace);
    let all = cut.component.netlist.all_faults();
    let collapsed = cut.component.netlist.collapsed_faults();
    let t0 = Instant::now();
    let full = FaultSimulator::with_config(&cut.component.netlist, sim).simulate(&all, &stimulus);
    let t_full = t0.elapsed();
    let t0 = Instant::now();
    let coll =
        FaultSimulator::with_config(&cut.component.netlist, sim).simulate(&collapsed, &stimulus);
    let t_coll = t0.elapsed();
    println!(
        "uncollapsed: {} faults ({} threads), {:.2?}, coverage {:.2}%",
        all.len(),
        full.threads_used,
        t_full,
        full.coverage().percent()
    );
    println!(
        "collapsed:   {} faults, {:.2?}, coverage {:.2}%",
        collapsed.len(),
        t_coll,
        coll.coverage().percent()
    );

    println!("\n== Ablation 6: simulation engine (full-eval vs compiled) ==");
    let mut engine_rows = Vec::new();
    for engine in [SimEngine::FullEval, SimEngine::Compiled] {
        let cfg = FaultSimConfig { engine, ..sim };
        let t0 = Instant::now();
        let res = FaultSimulator::with_config(&cut.component.netlist, cfg)
            .simulate(&collapsed, &stimulus);
        let t = t0.elapsed();
        println!(
            "{:<13} {:.2?}, coverage {:.2}%, {} events, {} passes",
            engine.name(),
            t,
            res.coverage().percent(),
            res.stats.events_simulated,
            res.stats.batches
        );
        engine_rows.push(JsonValue::object([
            ("engine", JsonValue::from(engine.name())),
            ("wall_seconds", JsonValue::Float(t.as_secs_f64())),
            (
                "coverage_percent",
                JsonValue::Float(res.coverage().percent()),
            ),
            (
                "events_simulated",
                JsonValue::from(res.stats.events_simulated),
            ),
            (
                "events_full_eval",
                JsonValue::from(res.stats.events_full_eval),
            ),
        ]));
    }

    println!("\n== Ablation 7: fault model (stuck-at vs gross transition-delay) ==");
    let transition_faults = sbst_gates::enumerate_transition_faults(&cut.component.netlist);
    println!(
        "universe: {} collapsed stuck-at faults, {} transition faults \
         (slow-to-rise + slow-to-fall per net)",
        collapsed.len(),
        transition_faults.len()
    );
    let mut model_rows = Vec::new();
    for engine in [SimEngine::FullEval, SimEngine::Compiled] {
        let cfg = FaultSimConfig { engine, ..sim };
        let t0 = Instant::now();
        let res = FaultSimulator::with_config(&cut.component.netlist, cfg)
            .simulate_transition(&transition_faults, &stimulus);
        let t = t0.elapsed();
        println!(
            "{:<13} {:.2?}, transition coverage {:.2}% ({} of {})",
            engine.name(),
            t,
            res.coverage().percent(),
            res.coverage().detected,
            res.coverage().total
        );
        model_rows.push(JsonValue::object([
            ("engine", JsonValue::from(engine.name())),
            ("wall_seconds", JsonValue::Float(t.as_secs_f64())),
            (
                "transition_fault_count",
                JsonValue::from(res.coverage().total),
            ),
            (
                "transition_detected",
                JsonValue::from(res.coverage().detected),
            ),
            (
                "transition_coverage_percent",
                JsonValue::Float(res.coverage().percent()),
            ),
        ]));
    }

    let report = RunReport::new("ablations")
        .field("branch_architecture", JsonValue::Array(branch_rows))
        .field("forwarding", JsonValue::Array(forwarding_rows))
        .field("energy", JsonValue::Array(energy_rows))
        .field("misr_aliasing", misr)
        .field(
            "collapsing",
            JsonValue::object([
                ("uncollapsed_faults", JsonValue::from(all.len())),
                ("collapsed_faults", JsonValue::from(collapsed.len())),
                ("threads_used", JsonValue::from(full.threads_used)),
                (
                    "uncollapsed_wall_seconds",
                    JsonValue::Float(t_full.as_secs_f64()),
                ),
                (
                    "collapsed_wall_seconds",
                    JsonValue::Float(t_coll.as_secs_f64()),
                ),
                (
                    "uncollapsed_coverage_percent",
                    JsonValue::Float(full.coverage().percent()),
                ),
                (
                    "collapsed_coverage_percent",
                    JsonValue::Float(coll.coverage().percent()),
                ),
            ]),
        )
        .field("engines", JsonValue::Array(engine_rows))
        .field("fault_models", JsonValue::Array(model_rows));
    write_report_if_requested(&report, json_path.as_deref());
}
