//! End-to-end and per-layer benchmark of the SBST library.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <table1|atpg_routines|fleet_mixed|fleet_healthy> \
//!     --seed <n> --seconds <s> --trace <0|1> [--smoke]
//! ```
//!
//! A run sets its workload up several times (the median is `setup_s`),
//! runs one traced repetition that calls each layer's public functions
//! itself, then repeats the library's own top-level call for `--seconds`,
//! each repetition between two timings of a fixed reference kernel (the
//! median of repetition time over reference time is `run_ref`). Every
//! repetition's output is checked against the traced decomposition. The
//! last line of standard output is one JSON object: the end-to-end metrics
//! with `--trace 0`, the per-layer metrics with `--trace 1`. Everything
//! runs serially in this process. See `perfbench/README.md` for the metric
//! table and the workload rationale.

mod atpg_routines;
mod fleet;
mod layers;
mod reference;
mod table1;
mod trace;

use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use sbst_core::JsonValue;
use sbst_gates::FaultCoverage;

use crate::reference::Reference;
use crate::trace::Trace;

/// Seed used when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 1;
/// Seed kept out of tuning, for re-checking a claim.
pub const HELD_OUT_SEED: u64 = 7;

/// Smallest number of timed repetitions, even past `--seconds`.
const MIN_REPS: usize = 2;
/// Setups are repeated until this much time has passed...
const SETUP_BUDGET: Duration = Duration::from_millis(500);
/// ...and at least this many times.
const MIN_SETUPS: usize = 3;
/// Upper limit on setups for a cheap setup phase.
const MAX_SETUPS: usize = 1000;

/// The paper's figures of merit for the routines a workload builds: they
/// depend on the seed only, never on timing.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Quality {
    pub stuck_at: FaultCoverage,
    pub transition: FaultCoverage,
    pub words: u64,
    pub cycles: u64,
}

/// One benchmark workload.
pub trait Workload {
    /// What the timed phase needs, built by [`Workload::setup`].
    type State;
    /// The checked result of one repetition.
    type Output;

    /// The workload's configuration, for the run record.
    fn config(&self) -> Vec<(&'static str, JsonValue)>;
    /// Builds the state (timed as `setup_s`).
    fn setup(&self) -> Self::State;
    /// One untraced repetition through the library's top-level call
    /// (timed for `run_ref`).
    fn run(&self, state: &Self::State) -> Self::Output;
    /// A traced setup plus one repetition decomposed into calls per layer,
    /// the repetition inside a `run` span.
    fn run_traced(&self, trace: &mut Trace) -> (Self::Output, Quality);
    /// Operations in one repetition: Table-1 rows, routines or sessions.
    fn operations(&self, output: &Self::Output) -> u64;
    /// Operations of `output` that disagree with `reference` or break an
    /// invariant.
    fn failures(&self, reference: &Self::Output, output: &Self::Output) -> u64;
    /// Work in one repetition, for the informational throughput line.
    fn work(&self, output: &Self::Output) -> (f64, &'static str);
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        smoke: false,
    };
    let mut iter = std::env::args().skip(1);
    while let Some(flag) = iter.next() {
        if flag == "--smoke" {
            args.smoke = true;
            continue;
        }
        let value = iter.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value `{value}` for {flag}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(bad)?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .map_err(|_| format!("bad --seconds `{value}`"))?
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got `{value}`")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(args.seconds > 0.0 && args.seconds.is_finite()) {
        return Err("--seconds must be positive".to_owned());
    }
    Ok(args)
}

fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `p` (0..=100) of `values`; 0 when empty.
fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

fn min_max(values: &[f64]) -> (f64, f64) {
    (
        values.iter().copied().fold(f64::INFINITY, f64::min),
        values.iter().copied().fold(0.0, f64::max),
    )
}

/// Peak resident set size of this process in MiB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// First line of a command's standard output, or `unknown`.
fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_owned))
        .unwrap_or_else(|| "unknown".to_owned())
}

fn metric(value: f64, unit: &str) -> JsonValue {
    JsonValue::object([
        ("value", JsonValue::Float(value)),
        ("unit", JsonValue::from(unit)),
    ])
}

/// Per-layer metrics of the traced repetition, as `(name, value, unit)`.
fn layer_metrics(trace: &Trace, overhead_s: f64) -> Vec<(&'static str, f64, &'static str)> {
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let c = |name: &str| trace.counter(name);
    let s = |name: &str| trace.seconds(name);
    let n = |name: &str| trace.calls(name) as f64;
    let us = |name: &str, p: f64| percentile(&trace.durations(name), p) * 1e6;
    let sim_s = s("fault_sim.stuck_at") + s("fault_sim.transition");
    vec![
        ("cut.build.calls", n("cut.build"), "count"),
        ("cut.build.s", s("cut.build"), "s"),
        ("classify.s", s("classify"), "s"),
        ("routine.build.calls", n("routine.build"), "count"),
        ("routine.build.s", s("routine.build"), "s"),
        (
            "routine.build.self_s",
            trace.self_seconds("routine.build"),
            "s",
        ),
        ("routine.words", c("routine.words"), "words"),
        ("atpg.run.calls", n("atpg.run"), "count"),
        ("atpg.run.s", s("atpg.run"), "s"),
        ("atpg.targets", c("atpg.targets"), "count"),
        ("atpg.tests", c("atpg.tests"), "count"),
        ("atpg.aborted", c("atpg.aborted"), "count"),
        ("atpg.redundant", c("atpg.redundant"), "count"),
        ("atpg.backtracks", c("atpg.backtracks"), "count"),
        (
            "atpg.detected_by_random",
            c("atpg.detected_by_random"),
            "count",
        ),
        ("atpg.patterns", c("atpg.patterns"), "count"),
        (
            "atpg.abort_ratio",
            ratio(c("atpg.aborted"), c("atpg.targets")),
            "ratio",
        ),
        ("iss.run.calls", n("iss.run"), "count"),
        ("iss.run.s", s("iss.run"), "s"),
        ("iss.cycles", c("iss.cycles"), "cycles"),
        (
            "iss.cycles_per_s",
            ratio(c("iss.cycles"), s("iss.run")),
            "cycles/s",
        ),
        ("fault_sim.stimulus.s", s("fault_sim.stimulus"), "s"),
        ("fault_sim.stuck_at.s", s("fault_sim.stuck_at"), "s"),
        ("fault_sim.transition.s", s("fault_sim.transition"), "s"),
        ("fault_sim.faults", c("fault_sim.faults"), "count"),
        ("fault_sim.events", c("fault_sim.events"), "count"),
        (
            "fault_sim.events_full_eval",
            c("fault_sim.events_full_eval"),
            "count",
        ),
        (
            "fault_sim.lane_occupancy",
            ratio(
                c("fault_sim.lane_slots_filled"),
                c("fault_sim.lane_slots_total"),
            ),
            "ratio",
        ),
        (
            "fault_sim.fault_cycles_per_s",
            ratio(c("fault_sim.fault_cycles"), sim_s),
            "1/s",
        ),
        ("fleet.characterize.s", s("fleet.characterize"), "s"),
        ("fleet.node_new.s", s("fleet.node_new"), "s"),
        (
            "fleet.session.clean.calls",
            n("fleet.session.clean"),
            "count",
        ),
        ("fleet.session.clean.s", s("fleet.session.clean"), "s"),
        (
            "fleet.session.clean.p50_us",
            us("fleet.session.clean", 50.0),
            "us",
        ),
        (
            "fleet.session.clean.p99_us",
            us("fleet.session.clean", 99.0),
            "us",
        ),
        (
            "fleet.session.fault_active.calls",
            n("fleet.session.fault_active"),
            "count",
        ),
        (
            "fleet.session.fault_active.s",
            s("fleet.session.fault_active"),
            "s",
        ),
        (
            "fleet.session.fault_active.p50_us",
            us("fleet.session.fault_active", 50.0),
            "us",
        ),
        (
            "fleet.session.fault_active.p99_us",
            us("fleet.session.fault_active", 99.0),
            "us",
        ),
        (
            "fleet.attempt_us.clean",
            ratio(s("fleet.session.clean") * 1e6, c("fleet.attempts.clean")),
            "us",
        ),
        (
            "fleet.attempt_us.fault_active",
            ratio(
                s("fleet.session.fault_active") * 1e6,
                c("fleet.attempts.fault_active"),
            ),
            "us",
        ),
        ("fleet.attempts", c("fleet.attempts"), "count"),
        ("fleet.mismatches", c("fleet.mismatches"), "count"),
        ("fleet.watchdog_fires", c("fleet.watchdog_fires"), "count"),
        ("fleet.backoffs", c("fleet.backoffs"), "count"),
        ("fleet.quarantines", c("fleet.quarantines"), "count"),
        ("fleet.aggregate.s", s("fleet.aggregate"), "s"),
        ("telemetry.encode.s", s("telemetry.encode"), "s"),
        ("telemetry.lines", c("telemetry.lines"), "count"),
        ("telemetry.bytes", c("telemetry.bytes"), "bytes"),
        ("trace.overhead_s", overhead_s, "s"),
    ]
}

/// Runs one workload and prints its record lines and the result line.
fn execute<W: Workload>(workload: &W, args: &Args) {
    let setup_start = Instant::now();
    let mut setup_s = Vec::new();
    let mut state = None;
    while setup_s.len() < MIN_SETUPS
        || (setup_start.elapsed() < SETUP_BUDGET && setup_s.len() < MAX_SETUPS)
    {
        drop(state.take());
        let start = Instant::now();
        state = Some(workload.setup());
        setup_s.push(start.elapsed().as_secs_f64());
    }
    let state = state.expect("at least one setup ran");

    // The traced decomposition doubles as the reference every timed
    // repetition is checked against, and as a warm-up.
    let mut trace = Trace::default();
    let (reference, quality) = workload.run_traced(&mut trace);

    // Every repetition runs between two timings of the reference kernel;
    // its time over their mean is the repetition's `run_ref`.
    let mut kernel = Reference::new();
    kernel.time();
    let mut before = kernel.time();
    let mut kernel_s = vec![before];
    let mut run_s = Vec::new();
    let mut run_ref = Vec::new();
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut work = (0.0, "");
    let start = Instant::now();
    while run_s.len() < MIN_REPS || start.elapsed().as_secs_f64() < args.seconds {
        let rep = Instant::now();
        let output = workload.run(&state);
        let secs = rep.elapsed().as_secs_f64();
        let after = kernel.time();
        run_s.push(secs);
        run_ref.push(secs / ((before + after) / 2.0));
        kernel_s.push(after);
        before = after;
        attempted += workload.operations(&output);
        failed += workload.failures(&reference, &output);
        work = workload.work(&output);
    }

    let setup_median = median(&setup_s);
    let run_median = median(&run_s);
    let mut config = vec![
        ("workload", JsonValue::from(args.workload.as_str())),
        ("seed", JsonValue::from(args.seed)),
        ("seconds", JsonValue::Float(args.seconds)),
        ("trace", JsonValue::from(args.trace)),
        ("smoke", JsonValue::from(args.smoke)),
        (
            "git_commit",
            JsonValue::from(command_line("git", &["rev-parse", "HEAD"])),
        ),
        ("rustc", JsonValue::from(command_line("rustc", &["-V"]))),
        (
            "nproc",
            JsonValue::from(std::thread::available_parallelism().map_or(1, |n| n.get())),
        ),
        ("setups", JsonValue::from(setup_s.len())),
        ("reps", JsonValue::from(run_s.len())),
    ];
    config.extend(workload.config());
    println!("config {}", JsonValue::object(config).to_json());
    let (run_min, run_max) = min_max(&run_s);
    println!(
        "info run_s p50 {run_median:.4} s, min {run_min:.4} s, max {run_max:.4} s over {} reps; {:.1} {}/s",
        run_s.len(),
        work.0 / run_median,
        work.1,
    );
    let (ref_min, ref_max) = min_max(&run_ref);
    println!(
        "info run_ref p50 {:.3}, min {ref_min:.3}, max {ref_max:.3}; reference kernel p50 {:.4} s over {} timings",
        median(&run_ref),
        median(&kernel_s),
        kernel_s.len(),
    );
    let error_rate = failed as f64 / attempted.max(1) as f64;
    println!(
        "info error_rate {error_rate} ({failed} of {attempted} operations failed their check)"
    );

    let traced_run_s = trace.seconds("run");
    let overhead_s = traced_run_s - run_median;
    for (name, secs) in trace.self_times_within("run").into_iter().take(8) {
        println!("info self_time in the traced repetition: {name} {secs:.4} s");
    }

    let metrics: Vec<(&str, f64, &str)> = if args.trace {
        layer_metrics(&trace, overhead_s)
    } else {
        vec![
            ("setup_s", setup_median, "s"),
            ("run_ref", median(&run_ref), "ref"),
            ("peak_rss_mb", peak_rss_mb(), "MB"),
            ("stuck_at_fc_pct", quality.stuck_at.percent(), "%"),
            ("transition_fc_pct", quality.transition.percent(), "%"),
            ("test_words", quality.words as f64, "words"),
            ("test_cycles", quality.cycles as f64, "cycles"),
        ]
    };
    for (name, value, unit) in &metrics {
        println!("metric {name} {value} {unit}");
    }
    let result = JsonValue::object([
        ("correct", JsonValue::from(failed == 0)),
        ("attempted", JsonValue::from(attempted)),
        ("failed", JsonValue::from(failed)),
        (
            "metrics",
            JsonValue::object(
                metrics
                    .into_iter()
                    .map(|(name, value, unit)| (name, metric(value, unit))),
            ),
        ),
    ]);
    println!("{}", result.to_json());
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("error: {msg}");
            return ExitCode::from(2);
        }
    };
    match args.workload.as_str() {
        "table1" => execute(&table1::Table1Workload::new(args.seed, args.smoke), &args),
        "atpg_routines" => execute(
            &atpg_routines::AtpgRoutines::new(args.seed, args.smoke),
            &args,
        ),
        "fleet_mixed" => execute(&fleet::FleetWorkload::mixed(args.seed, args.smoke), &args),
        "fleet_healthy" => execute(&fleet::FleetWorkload::healthy(args.seed, args.smoke), &args),
        other => {
            eprintln!(
                "error: unknown workload `{other}` \
                 (table1, atpg_routines, fleet_mixed, fleet_healthy)"
            );
            return ExitCode::from(2);
        }
    }
    ExitCode::SUCCESS
}
