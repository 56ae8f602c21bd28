//! ATPG wall-time benchmark: the constrained per-function PODEM campaign
//! (`sbst_tpg::per_function_campaign`) on the ATPG-capable full-width
//! components (shifter, ALU), timed end to end.
//!
//! This is the workload behind Table 1's deterministic shifter routine and
//! the Figure-1/2 ALU style comparison — the "long pole" of report
//! regeneration now that grading runs on the compiled tape engine.
//!
//! Usage: `atpg_speed [--smoke] [--threads N] [--json <path>]`
//!
//! `--threads` pins both the fault-simulator and PODEM worker pools (the
//! `SBST_THREADS` / `SBST_PODEM_THREADS` environment knobs are honoured
//! otherwise). Patterns, coverage and search stats are
//! bit-identical for every setting — only the wall times move.

use std::time::Instant;

use sbst_bench::{atpg_config_from_env, json_output_path, threads_flag, write_report_if_requested};
use sbst_components::alu::AluFunc;
use sbst_components::shifter::ShiftFunc;
use sbst_components::Component;
use sbst_core::{JsonValue, RunReport};
use sbst_tpg::{per_function_campaign, AtpgConfig, AtpgResult, AtpgTelemetry};

/// Runs the per-function constrained campaign, folds its runs into
/// `telemetry`, and returns (patterns, detected, total_faults).
fn campaign(
    component: &Component,
    encodings: &[u8],
    config: AtpgConfig,
    telemetry: &mut AtpgTelemetry,
) -> (usize, usize, usize) {
    let runs = per_function_campaign(component, encodings, config);
    runs.iter().for_each(|r| telemetry.absorb(r));
    (
        runs.iter().map(|r| r.patterns.len()).sum(),
        runs.iter().map(AtpgResult::detected_count).sum(),
        component.netlist.collapsed_faults().len(),
    )
}

fn component_json(
    name: &str,
    patterns: usize,
    detected: usize,
    total: usize,
    seconds: f64,
) -> JsonValue {
    JsonValue::object([
        ("component", JsonValue::from(name)),
        ("patterns", JsonValue::from(patterns)),
        ("faults_detected", JsonValue::from(detected)),
        ("fault_count", JsonValue::from(total)),
        ("wall_seconds", JsonValue::Float(seconds)),
    ])
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let json_path = json_output_path(&args).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2);
    });
    let width = if smoke { 8 } else { 32 };

    let mut config = atpg_config_from_env();
    match threads_flag(&args) {
        Ok(Some(n)) => {
            config.sim_threads = Some(n);
            config.podem_threads = Some(n);
        }
        Ok(None) => {}
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    }
    let mut telemetry = AtpgTelemetry::default();

    let shifter = sbst_components::shifter::shifter(width);
    let t0 = Instant::now();
    let (sp, sd, st) = campaign(
        &shifter,
        &ShiftFunc::ALL.map(ShiftFunc::encoding),
        config,
        &mut telemetry,
    );
    let shifter_secs = t0.elapsed().as_secs_f64();
    println!("shifter({width}): {sp} patterns, {sd}/{st} detected, {shifter_secs:.3} s");

    let alu = sbst_components::alu::alu(width);
    let t0 = Instant::now();
    let (ap, ad, at) = campaign(
        &alu,
        &AluFunc::ALL.map(AluFunc::encoding),
        config,
        &mut telemetry,
    );
    let alu_secs = t0.elapsed().as_secs_f64();
    println!("alu({width}): {ap} patterns, {ad}/{at} detected, {alu_secs:.3} s");

    println!("total: {:.3} s", shifter_secs + alu_secs);
    println!(
        "podem: {} thread(s), {:.3} s wall, {} targets, {} tests, {} discarded speculative, \
         {} backtracks",
        telemetry.podem_threads,
        telemetry.podem_wall_time.as_secs_f64(),
        telemetry.stats.podem_targets,
        telemetry.stats.podem_tests,
        telemetry.stats.podem_discarded,
        telemetry.stats.podem_backtracks,
    );

    let report = RunReport::new("atpg_speed")
        .field("smoke", JsonValue::from(smoke))
        .field("width", JsonValue::from(width as u64))
        .field(
            "components",
            JsonValue::array([
                component_json("shifter", sp, sd, st, shifter_secs),
                component_json("alu", ap, ad, at, alu_secs),
            ]),
        )
        .field(
            "atpg",
            JsonValue::object([
                ("runs", JsonValue::from(telemetry.runs)),
                ("podem_threads", JsonValue::from(telemetry.podem_threads)),
                (
                    "podem_wall_seconds",
                    JsonValue::Float(telemetry.podem_wall_time.as_secs_f64()),
                ),
                (
                    "podem_targets",
                    JsonValue::from(telemetry.stats.podem_targets),
                ),
                ("podem_tests", JsonValue::from(telemetry.stats.podem_tests)),
                (
                    "podem_backtracks",
                    JsonValue::from(telemetry.stats.podem_backtracks),
                ),
                ("redundant", JsonValue::from(telemetry.stats.redundant)),
                ("aborted", JsonValue::from(telemetry.stats.aborted)),
                (
                    "podem_discarded",
                    JsonValue::from(telemetry.stats.podem_discarded),
                ),
                (
                    "drop_sim_tape_compilations",
                    JsonValue::from(telemetry.drop_sim_tape_compilations),
                ),
            ]),
        )
        .field(
            "total_wall_seconds",
            JsonValue::Float(shifter_secs + alu_secs),
        );
    write_report_if_requested(&report, json_path.as_deref());
}
