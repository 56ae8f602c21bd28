//! Fleet-scale periodic-test orchestration bench.
//!
//! ```text
//! cargo run --release -p sbst-bench --bin fleet -- \
//!     [--nodes N] [--seconds S] [--workers W] [--seed X] [--smoke] \
//!     [--adversary] [--json out.json] [--ndjson stream.ndjson]
//! ```
//!
//! `--adversary` draws an adversarial population (nodes whose signature
//! stores are attacked — bit flips, FNV-recomputed forgeries, stale-epoch
//! replays) into the mix and provisions a per-characterization MAC key
//! (seeded by `SBST_STORE_KEY` or a built-in default). The run then gates
//! on the tamper SLO: every injected attack detected, zero false alarms.
//!
//! Simulates `N` managed cores, all running the *same* shared
//! characterization (graded schedule, golden signature store, mountable
//! netlists — built exactly once, proven by a counter), over a virtual
//! horizon of `S` seconds at the nominal clock. Nodes draw heterogeneous
//! fault profiles (healthy / infant-mortality / wear-out /
//! correlated-batch) from the fleet seed; `W` workers each take the next
//! node and run it to completion, and each finished node's NDJSON
//! telemetry streams to `--ndjson` as one batch.
//!
//! The run is deterministic in everything but wall time: the `aggregate`
//! tree in the `--json` report and the sorted telemetry records are
//! bit-identical for any worker count under a fixed seed (ci.sh diffs
//! them across worker counts), and the binary exits nonzero if the
//! characterize-once invariant or session conservation is violated. `--workers` falls back to available
//! parallelism; `--seed` accepts any 64-bit integer, 0 included.
//!
//! `replayed_attempts` (the run total, and per worker in
//! `workers_detail`) counts fault-free routine runs answered from the
//! shared schedule's record instead of executed. Which node records a
//! routine first depends on scheduling, so like the rest of
//! `workers_detail` it is observational and stays out of `aggregate`.

use std::io::Write;
use std::time::Instant;

use sbst_bench::{
    flag_value, json_output_path, store_key_seed_from_env, uint_flag, write_report_if_requested,
};
use sbst_core::{Cut, JsonValue, RunReport};
use sbst_fleet::{run_fleet, Characterizer, FleetConfig, FleetRun, PopulationMix, NOMINAL_HZ};

/// Default MAC-key seed when `--adversary` runs without `SBST_STORE_KEY`.
const DEFAULT_KEY_SEED: u64 = 0xC0DE_5EA1;

/// Percent of nodes drawn adversarial under `--adversary`.
const ADVERSARY_PCT: u8 = 20;

fn fail(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}

/// Consistency gates: the invariants ci.sh (and the exit code) rely on.
fn check_invariants(run: &FleetRun, nodes: u64, adversary: bool) -> Result<(), String> {
    let agg = &run.aggregate;
    if agg.tampers_detected != agg.attacks_injected {
        return Err(format!(
            "tamper SLO violated: {} attack(s) injected, {} detected",
            agg.attacks_injected, agg.tampers_detected
        ));
    }
    if agg.tamper_false_alarms != 0 {
        return Err(format!(
            "tamper false alarms: {} detection(s) with no attack mounted",
            agg.tamper_false_alarms
        ));
    }
    if adversary && agg.attacks_injected == 0 {
        return Err("adversary mode drew no attacks — the red-team gate is vacuous".to_owned());
    }
    if !adversary && agg.attacks_injected != 0 {
        return Err(format!(
            "{} attack(s) injected without --adversary",
            agg.attacks_injected
        ));
    }
    if run.characterizations != 1 {
        return Err(format!(
            "characterize-once violated: {} characterizations for {} nodes",
            run.characterizations, nodes
        ));
    }
    let worker_sessions: u64 = run.workers.iter().map(|w| w.sessions).sum();
    if worker_sessions != run.aggregate.sessions {
        return Err(format!(
            "session conservation violated: workers ran {worker_sessions}, aggregate says {}",
            run.aggregate.sessions
        ));
    }
    let finalized: u64 = run.workers.iter().map(|w| w.nodes_finalized).sum();
    if finalized != nodes {
        return Err(format!(
            "node conservation violated: {finalized} finalized of {nodes}"
        ));
    }
    Ok(())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let adversary = args.iter().any(|a| a == "--adversary");
    let json_path = json_output_path(&args).unwrap_or_else(|e| fail(&e));
    let nodes = uint_flag(&args, "--nodes", 1)
        .unwrap_or_else(|e| fail(&e))
        .unwrap_or(1000);
    let seconds = uint_flag(&args, "--seconds", 1)
        .unwrap_or_else(|e| fail(&e))
        .unwrap_or(if smoke { 2 } else { 4 });
    let seed = uint_flag(&args, "--seed", 0)
        .unwrap_or_else(|e| fail(&e))
        .unwrap_or(0x5B57_F1EE);
    let workers = sbst_gates::resolve_threads(
        uint_flag(&args, "--workers", 1)
            .unwrap_or_else(|e| fail(&e))
            .map(|n| n as usize),
    );
    let ndjson_path = flag_value(&args, "--ndjson").unwrap_or_else(|e| fail(&e));

    // Smoke trims the managed inventory (no multiplier) — the same cut
    // split the online_manager campaign uses.
    let cuts = if smoke {
        vec![Cut::alu(32), Cut::shifter(32)]
    } else {
        vec![Cut::alu(32), Cut::shifter(32), Cut::multiplier(32)]
    };

    let mix = if adversary {
        PopulationMix {
            adversary_pct: ADVERSARY_PCT,
            ..PopulationMix::default()
        }
    } else {
        PopulationMix::default()
    };
    let config = FleetConfig {
        nodes,
        workers,
        seed,
        horizon_cycles: seconds * NOMINAL_HZ,
        mix,
        ..FleetConfig::default()
    };
    let key_seed = adversary.then(|| store_key_seed_from_env().unwrap_or(DEFAULT_KEY_SEED));
    eprintln!(
        "fleet: {} nodes, {} workers, {}s virtual horizon ({} cycles), seed {:#x}",
        nodes, workers, seconds, config.horizon_cycles, seed
    );
    if let Some(key_seed) = key_seed {
        eprintln!(
            "fleet: adversarial population {}%, keyed store (key seed {:#x})",
            ADVERSARY_PCT, key_seed
        );
    }

    let telemetry: Option<Box<dyn Write + Send>> = match &ndjson_path {
        Some(path) => match std::fs::File::create(path) {
            Ok(file) => Some(Box::new(file)),
            Err(e) => fail(&format!("cannot create {path}: {e}")),
        },
        None => None,
    };

    let mut characterizer = Characterizer::new(cuts);
    if let Some(key_seed) = key_seed {
        characterizer = characterizer.with_key_seed(key_seed);
    }
    let start = Instant::now();
    let run = run_fleet(&config, &characterizer, telemetry);
    let wall = start.elapsed().as_secs_f64();

    let agg = &run.aggregate;
    eprintln!(
        "fleet: {} sessions, {} attempts ({} passes), {} transients, {} quarantines, digest {:#018x}",
        agg.sessions, agg.attempts, agg.passes, agg.transients, agg.quarantines, agg.fleet_digest
    );
    if adversary {
        eprintln!(
            "fleet: {} store attack(s) injected, {} detected ({} forged, {} replayed), \
             {} false alarm(s)",
            agg.attacks_injected,
            agg.tampers_detected,
            agg.tamper_forgeries,
            agg.tamper_replays,
            agg.tamper_false_alarms
        );
    }
    eprintln!(
        "fleet: {:.2} nodes/s, {:.0} sessions/s, {} characterization(s), wall {:.3}s",
        nodes as f64 / wall,
        agg.sessions as f64 / wall,
        run.characterizations,
        wall
    );
    let replayed_attempts: u64 = run.workers.iter().map(|w| w.replayed_attempts).sum();
    eprintln!("fleet: {replayed_attempts} fault-free runs replayed from the shared schedule");
    for w in &run.workers {
        eprintln!(
            "  worker {}: {} sessions, {} nodes finalized, {} telemetry lines, {} replayed runs",
            w.worker, w.sessions, w.nodes_finalized, w.telemetry_lines, w.replayed_attempts
        );
    }

    let report = RunReport::new("fleet")
        .field("smoke", JsonValue::Bool(smoke))
        .field("adversary", JsonValue::Bool(adversary))
        .field("nodes", JsonValue::UInt(nodes))
        .field("workers", JsonValue::UInt(workers as u64))
        .field("seed", JsonValue::UInt(seed))
        .field("virtual_seconds", JsonValue::UInt(seconds))
        .field("horizon_cycles", JsonValue::UInt(config.horizon_cycles))
        .field(
            "base_period_cycles",
            JsonValue::UInt(config.base_period_cycles),
        )
        .field("characterizations", JsonValue::UInt(run.characterizations))
        .field("wall_seconds", JsonValue::Float(wall))
        .field(
            "throughput",
            JsonValue::object([
                ("nodes_per_sec", JsonValue::Float(nodes as f64 / wall)),
                (
                    "sessions_per_sec",
                    JsonValue::Float(agg.sessions as f64 / wall),
                ),
            ]),
        )
        .field("aggregate", agg.to_json())
        .field("replayed_attempts", JsonValue::UInt(replayed_attempts))
        .field(
            "workers_detail",
            JsonValue::Array(
                run.workers
                    .iter()
                    .map(|w| {
                        JsonValue::object([
                            ("worker", JsonValue::UInt(w.worker as u64)),
                            ("sessions", JsonValue::UInt(w.sessions)),
                            ("nodes_finalized", JsonValue::UInt(w.nodes_finalized)),
                            ("telemetry_lines", JsonValue::UInt(w.telemetry_lines)),
                            ("replayed_attempts", JsonValue::UInt(w.replayed_attempts)),
                        ])
                    })
                    .collect(),
            ),
        )
        .field(
            "telemetry",
            JsonValue::object([
                ("lines", JsonValue::UInt(run.telemetry_lines)),
                ("flushes", JsonValue::UInt(run.telemetry_flushes)),
            ]),
        );
    write_report_if_requested(&report, json_path.as_deref());

    if let Err(msg) = check_invariants(&run, nodes, adversary) {
        eprintln!("error: {msg}");
        std::process::exit(1);
    }
    eprintln!("fleet: all invariants hold");
}
