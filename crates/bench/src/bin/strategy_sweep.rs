//! Pseudorandom pattern-count vs coverage sweep.
//!
//! ```text
//! cargo run --release -p sbst-bench --bin strategy_sweep [-- --threads N] [--json out.json]
//! ```
//!
//! Backs the paper's strategy-applicability claims with curves: the
//! pseudorandom style needs a *large* number of patterns to approach the
//! coverage that the regular deterministic and ATPG styles reach with
//! constant/small test sets — which is why it is the fallback, not the
//! default, for on-line periodic testing (execution time!).
//!
//! `--threads` pins the fault-simulator worker count; coverage numbers
//! are identical for every setting.

use sbst_bench::{json_output_path, threads_flag, write_report_if_requested};
use sbst_core::{grade_routine_with, CodeStyle, Cut, JsonValue, RoutineSpec, RunReport};
use sbst_gates::FaultSimConfig;

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
    let mut sweeps = Vec::new();
    for (name, cut) in [
        ("ALU (32-bit)", Cut::alu(32)),
        ("Shifter (32-bit)", Cut::shifter(32)),
    ] {
        println!("== {name}: pseudorandom coverage vs pattern count ==");
        println!("{:>9} {:>9} {:>9}", "patterns", "cycles", "FC (%)");
        let mut points = Vec::new();
        for count in [8u32, 16, 32, 64, 128, 256, 512] {
            let mut spec = RoutineSpec::new(CodeStyle::PseudorandomLoop);
            spec.pseudorandom_count = count;
            let routine = spec.build(&cut).expect("routine builds");
            let graded = grade_routine_with(&cut, &routine, sim).expect("routine grades");
            println!(
                "{:>9} {:>9} {:>9.2}",
                count,
                graded.stats.total_cycles(),
                graded.coverage.percent()
            );
            points.push(JsonValue::object([
                ("patterns", JsonValue::from(count)),
                ("cpu_cycles", JsonValue::from(graded.stats.total_cycles())),
                (
                    "fault_coverage_percent",
                    JsonValue::Float(graded.coverage.percent()),
                ),
                (
                    "sim_wall_seconds",
                    JsonValue::Float(graded.sim_wall_time.as_secs_f64()),
                ),
                (
                    "events_simulated",
                    JsonValue::from(graded.sim_stats.events_simulated),
                ),
            ]));
        }
        // Reference: the recommended deterministic routine.
        let spec = RoutineSpec::recommended(&cut);
        let routine = spec.build(&cut).expect("routine builds");
        let graded = grade_routine_with(&cut, &routine, sim).expect("routine grades");
        println!(
            "{:>9} {:>9} {:>9.2}   <- {} (recommended)",
            "-",
            graded.stats.total_cycles(),
            graded.coverage.percent(),
            spec.style.code()
        );
        println!();
        sweeps.push(JsonValue::object([
            ("cut", JsonValue::from(name)),
            ("pseudorandom", JsonValue::Array(points)),
            (
                "recommended",
                JsonValue::object([
                    ("code_style", JsonValue::from(spec.style.code())),
                    ("cpu_cycles", JsonValue::from(graded.stats.total_cycles())),
                    (
                        "fault_coverage_percent",
                        JsonValue::Float(graded.coverage.percent()),
                    ),
                    (
                        "sim_wall_seconds",
                        JsonValue::Float(graded.sim_wall_time.as_secs_f64()),
                    ),
                ]),
            ),
        ]));
    }
    let report = RunReport::new("strategy_sweep")
        .field("engine", JsonValue::from(sim.engine.name()))
        .field("sweeps", JsonValue::Array(sweeps));
    write_report_if_requested(&report, json_path.as_deref());
}
