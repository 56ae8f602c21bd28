//! Regenerates the paper's Table 1 on the full 32-bit processor inventory.
//!
//! ```text
//! cargo run --release -p sbst-bench --bin table1 [-- --smoke] [--json out.json]
//! cargo run --release -p sbst-bench --bin table1 -- --threads 4
//! ```
//!
//! Prints per-component gate counts, classification, code style, routine
//! size/cycles/data references and fault coverage, plus the aggregate
//! program statistics the paper reports (808 words / 9,905 cycles / 87 data
//! references / 95.6 % FC / 92 % D-VC area on their synthesis; ours differ
//! in absolute numbers but reproduce the shape — see EXPERIMENTS.md).
//!
//! `--smoke` swaps in a down-scaled 8-bit inventory so CI can exercise the
//! whole pipeline in seconds. `--json <path>` additionally writes the
//! machine-readable report (rows, totals, fault-sim timing, ATPG search
//! telemetry). `--threads <n>` pins both the fault-simulator worker count
//! and the PODEM search pool; without it both use the available
//! parallelism. `--fault-model stuck-at|transition` picks the headline
//! fault model for the FC column — both models are always graded and the
//! JSON report carries per-model columns either way. Coverage, patterns
//! and ATPG stats are bit-identical for every setting.
//!
//! The Section 4 execution-time estimate (57 MHz, analytic 5 % miss /
//! 20-cycle stall model) is computed from the combined program's own
//! fault-free run, the same run and estimate `exec_time` reports.

use std::time::Instant;

use sbst_bench::{fault_model_flag, json_output_path, threads_flag, write_report_if_requested};
use sbst_core::{Cut, JsonValue, RunReport, Table1};
use sbst_cpu::{AnalyticStallModel, ExecTimeEstimate, QuantumConfig};
use sbst_gates::FaultSimConfig;
use sbst_tpg::AtpgConfig;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
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
    let atpg = AtpgConfig {
        sim_threads: threads,
        podem_threads: threads,
        ..AtpgConfig::default()
    };
    let fault_model = match fault_model_flag(&args) {
        Ok(model) => model.unwrap_or_default(),
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let start = Instant::now();
    let cuts = if smoke {
        eprintln!("building down-scaled 8-bit smoke inventory...");
        Cut::smoke_inventory()
    } else {
        eprintln!("building 32-bit component inventory...");
        Cut::processor_inventory()
    };
    for cut in &cuts {
        eprintln!(
            "  {:<18} {:>7} gate-eq, {:>6} collapsed faults",
            cut.name(),
            cut.gate_equivalents(),
            cut.fault_count()
        );
    }
    eprintln!("generating Table 1 (builds, runs and grades every routine)...");
    let table = Table1::generate_with_model(&cuts, sim, atpg, fault_model)
        .expect("table generation succeeds");
    println!("{table}");

    // The Section 4 execution-time analysis on the combined program.
    let est = ExecTimeEstimate::from_stats(
        &table.program_stats,
        QuantumConfig::default(),
        Some(AnalyticStallModel::default()),
    );
    println!(
        "execution time @57 MHz with 5% miss/20-cycle penalty: {:?} \
         ({:.4}% of a 200 ms quantum; fits: {})",
        est.time,
        est.quantum_fraction * 100.0,
        est.fits_in_quantum()
    );
    eprintln!(
        "fault grading: {} engine, {} thread(s), {:.3} s inside the fault simulator",
        table.engine.name(),
        table.sim_threads,
        table.grading_wall_time.as_secs_f64()
    );
    eprintln!(
        "gate-evaluation events: {} ({} for a full evaluation of every clocked cycle)",
        table.sim_stats.events_simulated, table.sim_stats.events_full_eval
    );
    eprintln!(
        "batch-cycles clocked, both fault models: {} ({} lane words, {} live lane-cycles)",
        table.sim_stats.cycles_simulated,
        table.sim_stats.lane_words_simulated,
        table.sim_stats.live_lane_cycles
    );
    eprintln!(
        "constrained ATPG: {} run(s), {} PODEM thread(s), {:.3} s inside the PODEM phase",
        table.atpg.runs,
        table.atpg.podem_threads,
        table.atpg.podem_wall_time.as_secs_f64()
    );
    let wall = start.elapsed();
    eprintln!("total wall time: {wall:?}");

    let report = RunReport::new("table1")
        .field("smoke", JsonValue::from(smoke))
        .field("table1", table.to_json())
        .field(
            "execution_time",
            JsonValue::object([
                ("seconds", JsonValue::Float(est.time.as_secs_f64())),
                ("quantum_fraction", JsonValue::Float(est.quantum_fraction)),
                ("fits_in_quantum", JsonValue::from(est.fits_in_quantum())),
            ]),
        )
        .field("wall_seconds", JsonValue::Float(wall.as_secs_f64()));
    write_report_if_requested(&report, json_path.as_deref());
}
