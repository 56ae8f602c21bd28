//! Section 2 / Section 4 execution-time analysis.
//!
//! ```text
//! cargo run --release -p sbst-bench --bin exec_time [-- --json out.json]
//! ```
//!
//! Evaluates the paper's execution-time equation
//! `CPU-time = clock-cycle-time × (CPU-cycles + pipeline-stalls +
//! memory-stalls)` for the combined self-test program, three ways:
//!
//! 1. raw CPU cycles (what Table 1 reports);
//! 2. the paper's analytic stall model (5 % miss rate, 20-cycle penalty);
//! 3. simulated direct-mapped caches, demonstrating the locality argument
//!    (compact loops → far fewer real stalls than the analytic bound).
//!
//! Also reports the quantum-fit check and detection-latency numbers for the
//! three activation policies.

use std::time::Duration;

use sbst_bench::{json_output_path, write_report_if_requested};
use sbst_core::{Cut, JsonValue, RunReport, SelfTestProgram};
use sbst_cpu::system::scheduler_overhead;
use sbst_cpu::{
    ActivationPolicy, AnalyticStallModel, CacheConfig, Cpu, CpuConfig, ExecTimeEstimate,
    QuantumConfig,
};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let json_path = json_output_path(&args).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2);
    });
    let program = SelfTestProgram::build(&[
        Cut::multiplier(32),
        Cut::divider(32),
        Cut::regfile(32, 32),
        Cut::memctrl(),
        Cut::shifter(32),
        Cut::alu(32),
        Cut::control(),
    ])
    .expect("program builds");
    println!(
        "combined self-test program: {} words ({} code, {} data)",
        program.size_words(),
        program.program.code_words(),
        program.program.data_words()
    );

    // (1) Raw run.
    let run = program.run().expect("program runs");
    println!(
        "raw: {} instructions, {} cpu cycles, {} pipeline stalls, {} data refs",
        run.stats.instructions,
        run.stats.cycles,
        run.stats.pipeline_stall_cycles,
        run.stats.data_refs()
    );

    let config = QuantumConfig::default();

    // (2) Analytic model (paper's Section 4 assumption).
    let analytic =
        ExecTimeEstimate::from_stats(&run.stats, config, Some(AnalyticStallModel::default()));
    println!(
        "analytic (5% miss, 20-cycle penalty): {} total cycles -> {:?} \
         ({:.4}% of a 200 ms quantum, fits: {})",
        analytic.total_cycles(),
        analytic.time,
        analytic.quantum_fraction * 100.0,
        analytic.fits_in_quantum()
    );

    // (3) Simulated caches: the locality the code styles were designed for.
    let mut cpu = Cpu::new(CpuConfig {
        trace: false,
        icache: Some(CacheConfig::default()),
        dcache: Some(CacheConfig::default()),
        ..CpuConfig::self_test()
    });
    cpu.load_program(&program.program);
    let cached = cpu.run().expect("cached run");
    let measured = ExecTimeEstimate::from_stats(&cached.stats, config, None);
    println!(
        "simulated 1 KiB caches: {} icache misses / {} fetches ({:.2}%), \
         {} dcache misses; {} stall cycles -> {:?}",
        cached.stats.icache_misses,
        cached.stats.imem_accesses,
        cached.stats.icache_misses as f64 / cached.stats.imem_accesses as f64 * 100.0,
        cached.stats.dcache_misses,
        cached.stats.memory_stall_cycles,
        measured.time
    );

    // Activation policies.
    let mut latency_fields = Vec::new();
    println!("\nfault detection latency (worst case, permanent faults):");
    for (name, policy) in [
        (
            "startup/shutdown (daily)",
            ActivationPolicy::StartupShutdown {
                uptime: Duration::from_secs(86_400),
            },
        ),
        (
            "idle cycles (1 s gaps)",
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
    ] {
        let latency = policy.permanent_fault_latency(analytic.time);
        println!("  {name:<26} {latency:?}");
        latency_fields.push((name.to_owned(), JsonValue::Float(latency.as_secs_f64())));
    }
    let overhead = scheduler_overhead(analytic.time, Duration::from_millis(500), config);
    println!(
        "\noverhead at 500 ms period: {:.5}% CPU, single-quantum: {}",
        overhead.test_cpu_fraction * 100.0,
        overhead.single_quantum
    );

    let report = RunReport::new("exec_time")
        .field(
            "program",
            JsonValue::object([
                ("size_words", JsonValue::from(program.size_words())),
                ("code_words", JsonValue::from(program.program.code_words())),
                ("data_words", JsonValue::from(program.program.data_words())),
            ]),
        )
        .field(
            "raw",
            JsonValue::object([
                ("instructions", JsonValue::from(run.stats.instructions)),
                ("cpu_cycles", JsonValue::from(run.stats.cycles)),
                (
                    "pipeline_stall_cycles",
                    JsonValue::from(run.stats.pipeline_stall_cycles),
                ),
                ("data_refs", JsonValue::from(run.stats.data_refs())),
            ]),
        )
        .field(
            "analytic",
            JsonValue::object([
                ("total_cycles", JsonValue::from(analytic.total_cycles())),
                ("seconds", JsonValue::Float(analytic.time.as_secs_f64())),
                (
                    "quantum_fraction",
                    JsonValue::Float(analytic.quantum_fraction),
                ),
                (
                    "fits_in_quantum",
                    JsonValue::from(analytic.fits_in_quantum()),
                ),
            ]),
        )
        .field(
            "simulated_caches",
            JsonValue::object([
                ("icache_misses", JsonValue::from(cached.stats.icache_misses)),
                ("imem_accesses", JsonValue::from(cached.stats.imem_accesses)),
                (
                    "icache_hit_rate",
                    JsonValue::from(cached.stats.icache_hit_rate()),
                ),
                ("dcache_misses", JsonValue::from(cached.stats.dcache_misses)),
                (
                    "dcache_hit_rate",
                    JsonValue::from(cached.stats.dcache_hit_rate()),
                ),
                (
                    "memory_stall_cycles",
                    JsonValue::from(cached.stats.memory_stall_cycles),
                ),
                ("seconds", JsonValue::Float(measured.time.as_secs_f64())),
            ]),
        )
        .field(
            "detection_latency_seconds",
            JsonValue::Object(latency_fields),
        )
        .field(
            "overhead_500ms",
            JsonValue::object([
                (
                    "test_cpu_fraction",
                    JsonValue::Float(overhead.test_cpu_fraction),
                ),
                ("single_quantum", JsonValue::from(overhead.single_quantum)),
            ]),
        );
    write_report_if_requested(&report, json_path.as_deref());
}
