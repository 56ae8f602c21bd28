//! Figures 1–4: code-style characteristics (the Section 3.3 analysis).
//!
//! ```text
//! cargo run --release -p sbst-bench --bin code_styles [-- --threads N] [--json out.json]
//! ```
//!
//! For the 32-bit ALU, builds the same test in all four code styles and
//! reports code size, data size, execution cycles, load/store references
//! and fault coverage — plus the analytic cost model's scaling columns
//! (which sizes are linear in the pattern count). Reproduces the paper's
//! qualitative claims: Figure 1 trades code size for zero loads, Figure 2
//! the reverse, Figures 3–4 keep both constant.

use sbst_bench::{json_output_path, threads_flag, write_report_if_requested};
use sbst_core::codestyle::style_costs;
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
    let cut = Cut::alu(32);
    println!(
        "CUT: 32-bit ALU ({} gate-eq, {} collapsed faults)\n",
        cut.gate_equivalents(),
        cut.fault_count()
    );
    println!(
        "{:<14} {:>6} {:>6} {:>8} {:>6} {:>7} {:>8}   scaling",
        "style", "code", "data", "cycles", "loads", "stores", "FC (%)"
    );
    let mut rows = Vec::new();
    for style in [
        CodeStyle::AtpgImmediate,
        CodeStyle::AtpgDataFetch,
        CodeStyle::PseudorandomLoop,
        CodeStyle::RegularLoopImmediate,
    ] {
        let mut spec = RoutineSpec::new(style);
        spec.pseudorandom_count = 512;
        let routine = spec.build(&cut).expect("routine builds");
        let graded = grade_routine_with(&cut, &routine, sim).expect("routine grades");
        let costs = style_costs(style, 64, 3);
        println!(
            "{:<14} {:>6} {:>6} {:>8} {:>6} {:>7} {:>8.2}   code {}, data {}",
            style.code(),
            routine.program.code_words(),
            routine.program.data_words(),
            graded.stats.total_cycles(),
            graded.stats.loads,
            graded.stats.stores,
            graded.coverage.percent(),
            if costs.code_linear { "O(n)" } else { "O(1)" },
            if costs.data_linear { "O(n)" } else { "O(1)" },
        );
        rows.push(JsonValue::object([
            ("code_style", JsonValue::from(style.code())),
            ("code_words", JsonValue::from(routine.program.code_words())),
            ("data_words", JsonValue::from(routine.program.data_words())),
            ("cpu_cycles", JsonValue::from(graded.stats.total_cycles())),
            ("loads", JsonValue::from(graded.stats.loads)),
            ("stores", JsonValue::from(graded.stats.stores)),
            (
                "fault_coverage_percent",
                JsonValue::Float(graded.coverage.percent()),
            ),
            ("code_linear", JsonValue::from(costs.code_linear)),
            ("data_linear", JsonValue::from(costs.data_linear)),
            (
                "sim_wall_seconds",
                JsonValue::Float(graded.sim_wall_time.as_secs_f64()),
            ),
        ]));
    }
    // The selection argument of Section 3.3: both Figure 1 and Figure 2
    // are used in practice; the choice hinges on the CPI of `lw`.
    println!(
        "\nFigure 1 vs Figure 2 selection: with the Plasma's 1-cycle data \
         pause per load,\nFigure 2 spends 2 extra cycles per pattern on \
         fetches while Figure 1 spends ~2 on lui/ori —\na near tie resolved \
         by cache behaviour (instruction misses vs data misses), exactly \
         the\npaper's CPI(lw) argument."
    );

    let report = RunReport::new("code_styles")
        .field(
            "cut",
            JsonValue::object([
                ("name", JsonValue::from(cut.name())),
                ("gate_equivalents", JsonValue::from(cut.gate_equivalents())),
                ("collapsed_faults", JsonValue::from(cut.fault_count())),
            ]),
        )
        .field("styles", JsonValue::Array(rows));
    write_report_if_requested(&report, json_path.as_deref());
}
