#!/usr/bin/env bash
# Offline CI gate: build, test, lint, and smoke-run the Table-1 pipeline.
#
#   ./ci.sh
#
# Everything runs with CARGO_NET_OFFLINE=true — the workspace vendors its
# few dependencies (vendor/*), so no registry access is ever needed.
set -euo pipefail
cd "$(dirname "$0")"

export CARGO_NET_OFFLINE=true

echo "== format check =="
cargo fmt --check

echo "== build (release) =="
cargo build --release

echo "== tests (tier 1: root package) =="
cargo test -q

echo "== tests (full workspace) =="
cargo test --workspace -q

echo "== perfbench smoke tests (its own workspace) =="
# perfbench builds against the library's public API and checks its
# reference outputs; a change that breaks either fails here.
cargo test --offline --manifest-path perfbench/Cargo.toml

echo "== perfbench atpg_routines at full size: seeds 1, 4 and 7 =="
# The smoke tests shrink every workload; this runs the real 10-bit ALU and
# 32-bit shifter campaigns (~1 s per seed). Every repetition must match
# the traced reference. At seed 4 the shifter's PODEM finds tests, so the
# search below the root proof is exercised too.
for seed in 1 4 7; do
  result="$(cargo run --release --quiet --offline --manifest-path perfbench/Cargo.toml -- \
    --workload atpg_routines --seed "$seed" --seconds 0.5 --trace 0 | tail -n 1)"
  if [ "$(jq '.correct == true and .failed == 0' <<<"$result")" != "true" ]; then
    echo "error: perfbench atpg_routines at seed $seed failed its checks:" >&2
    echo "$result" >&2
    exit 1
  fi
done

echo "== clippy (deny warnings) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== rustdoc (deny warnings: broken intra-doc links fail) =="
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "== examples (exit code gates each run) =="
# `cargo test` builds the examples but never runs them.
for example in quickstart fault_injection periodic_testing; do
  cargo run --release --quiet --example "$example" >/dev/null
done

echo "== table1 smoke run, 2 threads (JSON report) =="
rm -f BENCH_table1.json BENCH_table1_serial.json BENCH_table1_td.json
cargo run --release -p sbst-bench --bin table1 -- --smoke \
  --threads "${SBST_THREADS:-2}" --json BENCH_table1.json

echo "== table1 smoke run, single-threaded (JSON report) =="
cargo run --release -p sbst-bench --bin table1 -- --smoke \
  --threads 1 --json BENCH_table1_serial.json

echo "== table1 delay-fault smoke run: transition headline =="
# Same pipeline with --fault-model transition: the FC column flips to the
# two-pattern transition numbers while the per-model JSON columns stay.
cargo run --release -p sbst-bench --bin table1 -- --smoke \
  --threads "${SBST_THREADS:-2}" --fault-model transition --json BENCH_table1_td.json

echo "== validate all three reports =="
# jsonlint exits nonzero when a report is missing, unparseable, or
# lacks the expected top-level fields.
for report in BENCH_table1.json BENCH_table1_serial.json BENCH_table1_td.json; do
  cargo run --release -p sbst-bench --bin jsonlint -- "$report" \
    --require tool --require schema_version --require table1 --require execution_time
  # Reports must carry the current schema (12: table1's fault_sim object has no tape-shape keys).
  if [ "$(jq '.schema_version' "$report")" != "12" ]; then
    echo "error: $report schema_version is not 12" >&2
    exit 1
  fi
done
if [ "$(jq -r '.table1.fault_model' BENCH_table1_td.json)" != "transition" ]; then
  echo "error: BENCH_table1_td.json headline fault_model is not transition" >&2
  exit 1
fi

# The compiled-vs-full-eval engine differential over this same smoke
# inventory, under both fault models, runs in `cargo test` above
# (crates/core/tests/engine_differential.rs).

echo "== headline flip: per-model coverage must not change =="
per_model_fields() {
  jq -S '.table1 | {
    rows: [.rows[] | {name, stuck_at_fault_count, stuck_at_detected, stuck_at_coverage_percent,
                      transition_fault_count, transition_detected, transition_coverage_percent}],
    overall_stuck_at: .totals.stuck_at_coverage_percent,
    overall_transition: .totals.transition_coverage_percent
  }' "$1"
}
if ! diff <(per_model_fields BENCH_table1.json) <(per_model_fields BENCH_table1_td.json); then
  echo "error: per-model coverage changed when only the headline model flipped" >&2
  exit 1
fi

echo "== thread differential: coverage and ATPG outcomes must be bit-identical =="
# The deterministic PODEM merge guarantees the threaded run reproduces the
# single-threaded coverage AND every deterministic ATPG outcome field
# (wall times, thread counts and per-worker accounting are observational
# and excluded).
coverage_fields() {
  jq -S '.table1 | {
    fault_model,
    rows: [.rows[] | {name, fault_count, faults_detected, fault_coverage_percent,
                      stuck_at_fault_count, stuck_at_detected, stuck_at_coverage_percent,
                      transition_fault_count, transition_detected, transition_coverage_percent}],
    overall: .totals.fault_coverage_percent,
    overall_stuck_at: .totals.stuck_at_coverage_percent,
    overall_transition: .totals.transition_coverage_percent
  }' "$1"
}
atpg_outcome_fields() {
  jq -S '.table1.atpg | {
    runs, random_patterns_tried, random_patterns_kept, detected_by_random,
    podem_targets, podem_tests, podem_backtracks, redundant, aborted,
    podem_discarded, drop_sim_tape_compilations
  }' "$1"
}
if ! diff <(coverage_fields BENCH_table1_serial.json) <(coverage_fields BENCH_table1.json); then
  echo "error: coverage diverges between the serial and threaded table1 runs" >&2
  exit 1
fi
if ! diff <(atpg_outcome_fields BENCH_table1_serial.json) <(atpg_outcome_fields BENCH_table1.json); then
  echo "error: ATPG outcome fields diverge between the serial and threaded table1 runs" >&2
  exit 1
fi
# Batch groups and their repack windows are fixed by the fault list and
# the stimulus, so the simulation volume is thread-invariant too.
sim_volume_fields() {
  jq -S '.table1.fault_sim | {
    events_full_eval, cycles_simulated, live_lane_cycles, lane_slots_filled, lane_slots_total
  }' "$1"
}
if ! diff <(sim_volume_fields BENCH_table1_serial.json) <(sim_volume_fields BENCH_table1.json); then
  echo "error: fault-sim volume diverges between the serial and threaded table1 runs" >&2
  exit 1
fi

echo "== table1 full 32-bit inventory, 1 vs 2 threads =="
# Grading fans out groups of four 255-fault batches, so every smoke row
# fits one group and grades on one thread whatever --threads asks. The
# 32-bit rows span many groups: this pair proves a threaded run really
# grades groups concurrently and still matches the serial run.
rm -f BENCH_table1_full.json BENCH_table1_full_serial.json
cargo run --release -p sbst-bench --bin table1 -- --threads 1 --json BENCH_table1_full_serial.json
cargo run --release -p sbst-bench --bin table1 -- --threads 2 --json BENCH_table1_full.json
if [ "$(jq '.table1.fault_sim.threads' BENCH_table1_full.json)" != "2" ]; then
  echo "error: the threaded full table1 run did not grade on 2 threads" >&2
  exit 1
fi
if ! diff <(coverage_fields BENCH_table1_full_serial.json) <(coverage_fields BENCH_table1_full.json); then
  echo "error: coverage diverges between the serial and threaded full table1 runs" >&2
  exit 1
fi
if ! diff <(atpg_outcome_fields BENCH_table1_full_serial.json) <(atpg_outcome_fields BENCH_table1_full.json); then
  echo "error: ATPG outcome fields diverge between the serial and threaded full table1 runs" >&2
  exit 1
fi
if ! diff <(sim_volume_fields BENCH_table1_full_serial.json) <(sim_volume_fields BENCH_table1_full.json); then
  echo "error: fault-sim volume diverges between the serial and threaded full table1 runs" >&2
  exit 1
fi

echo "== atpg_speed smoke: per-function ATPG campaign, 1 vs 2 threads =="
# The campaign behind every AtpgD routine. Its patterns, coverage and
# search outcomes are deterministic; only the PODEM thread count and wall
# time may differ between the two runs.
rm -f BENCH_atpg_speed_serial.json BENCH_atpg_speed.json
cargo run --release -p sbst-bench --bin atpg_speed -- --smoke --threads 1 \
  --json BENCH_atpg_speed_serial.json
cargo run --release -p sbst-bench --bin atpg_speed -- --smoke --threads 2 \
  --json BENCH_atpg_speed.json
for report in BENCH_atpg_speed_serial.json BENCH_atpg_speed.json; do
  cargo run --release -p sbst-bench --bin jsonlint -- "$report" \
    --require tool --require schema_version --require components --require atpg
  if [ "$(jq '.schema_version' "$report")" != "12" ]; then
    echo "error: $report schema_version is not 12" >&2
    exit 1
  fi
done
atpg_speed_fields() {
  jq -S '{
    components: [.components[] | {component, patterns, faults_detected, fault_count}],
    atpg: (.atpg | del(.podem_threads, .podem_wall_seconds))
  }' "$1"
}
if ! diff <(atpg_speed_fields BENCH_atpg_speed_serial.json) <(atpg_speed_fields BENCH_atpg_speed.json); then
  echo "error: atpg_speed outcomes diverge between 1 and 2 threads" >&2
  exit 1
fi

echo "== exec_time: Section 4 execution-time analysis (JSON report) =="
mkdir -p target
cargo run --release -p sbst-bench --bin exec_time -- --json target/exec_time.json
cargo run --release -p sbst-bench --bin jsonlint -- target/exec_time.json \
  --require program --require analytic

echo "== online_manager fault-injection smoke (exit code gates the campaign) =="
rm -f BENCH_online_manager.json
cargo run --release -p sbst-bench --bin online_manager -- --smoke --json BENCH_online_manager.json

echo "== validate online_manager report =="
cargo run --release -p sbst-bench --bin jsonlint -- BENCH_online_manager.json \
  --require tool --require schema_version --require scenarios --require replan \
  --require adversary
# A clean campaign must raise no tamper alarms.
if [ "$(jq '.adversary | [.attacks_injected, .attacks_detected, .false_alarms] | @csv' \
        -r BENCH_online_manager.json)" != "0,0,0" ]; then
  echo "error: clean online_manager run raised tamper activity" >&2
  exit 1
fi

echo "== online_manager red-team campaign (exit code gates 100% detection) =="
rm -f BENCH_online_manager_adv.json
cargo run --release -p sbst-bench --bin online_manager -- --smoke --adversary \
  --json BENCH_online_manager_adv.json

echo "== validate online_manager red-team report =="
cargo run --release -p sbst-bench --bin jsonlint -- BENCH_online_manager_adv.json \
  --require tool --require schema_version --require scenarios --require adversary
if [ "$(jq '.schema_version' BENCH_online_manager_adv.json)" != "12" ]; then
  echo "error: BENCH_online_manager_adv.json schema_version is not 12" >&2
  exit 1
fi
# The red-team SLO: attacks were actually mounted, every one was
# detected, and no detection fired without an attack.
if [ "$(jq '.adversary.attacks_injected > 0
            and .adversary.attacks_detected == .adversary.attacks_injected
            and .adversary.false_alarms == 0' BENCH_online_manager_adv.json)" != "true" ]; then
  echo "error: online_manager red-team SLO violated:" >&2
  jq '.adversary' BENCH_online_manager_adv.json >&2
  exit 1
fi

echo "== fleet orchestration smoke: 1000 nodes, workers 1 vs 2 (exit code gates invariants) =="
# The binary itself exits nonzero unless exactly one characterization ran
# and session/node conservation holds; the runs here additionally pin the
# worker-count differential: the deterministic aggregate tree must be
# bit-identical for any worker count under a fixed seed.
rm -f BENCH_fleet.json BENCH_fleet_serial.json
mkdir -p target
cargo run --release -p sbst-bench --bin fleet -- --smoke --nodes 1000 \
  --workers 1 --json BENCH_fleet_serial.json
cargo run --release -p sbst-bench --bin fleet -- --smoke --nodes 1000 \
  --workers 2 --json BENCH_fleet.json --ndjson target/fleet_telemetry.ndjson

echo "== validate fleet reports and telemetry stream =="
for report in BENCH_fleet.json BENCH_fleet_serial.json; do
  cargo run --release -p sbst-bench --bin jsonlint -- "$report" \
    --require tool --require schema_version --require characterizations \
    --require throughput --require aggregate --require workers_detail
  if [ "$(jq '.schema_version' "$report")" != "12" ]; then
    echo "error: $report schema_version is not 12" >&2
    exit 1
  fi
  if [ "$(jq '.characterizations' "$report")" != "1" ]; then
    echo "error: $report did not characterize exactly once" >&2
    exit 1
  fi
  # No adversary flag → no attacks, no detections, no alarms.
  if [ "$(jq '.aggregate | [.attacks_injected, .tampers_detected, .tamper_false_alarms] | @csv' \
          -r "$report")" != "0,0,0" ]; then
    echo "error: clean fleet run $report shows tamper activity" >&2
    exit 1
  fi
  # Fault-free routine runs must replay the shared schedule's record
  # (an observational count, so only its sign is gated).
  if [ "$(jq '.replayed_attempts > 0' "$report")" != "true" ]; then
    echo "error: fleet run $report replayed no fault-free routine run" >&2
    exit 1
  fi
done
# Every telemetry line must be a complete record carrying its type and
# node; any invalid line fails with its line number.
cargo run --release -p sbst-bench --bin jsonlint -- target/fleet_telemetry.ndjson \
  --ndjson --require type --require node

echo "== fleet worker differential: aggregates must be bit-identical =="
if ! diff <(jq -S '.aggregate' BENCH_fleet_serial.json) <(jq -S '.aggregate' BENCH_fleet.json); then
  echo "error: fleet aggregate diverges between workers=1 and workers=2" >&2
  exit 1
fi

echo "== fleet full inventory: 200 nodes with the multiplier, workers 1 vs 2 vs 7 =="
# The smoke fleets above characterize ALU + shifter only, so this is the run
# that mounts multiplier faults in the datapath. Its aggregate and its
# telemetry record contents must be bit-identical for every worker count
# (only the order of the lines depends on scheduling, so the streams are
# compared sorted), and some node must quarantine the multiplier, or the
# multiplier's mounted path went unexercised.
rm -f BENCH_fleet_full.json BENCH_fleet_full_serial.json target/fleet_full_workers7.json
cargo run --release -p sbst-bench --bin fleet -- --nodes 200 \
  --workers 1 --json BENCH_fleet_full_serial.json --ndjson target/fleet_full_telemetry_workers1.ndjson
cargo run --release -p sbst-bench --bin fleet -- --nodes 200 \
  --workers 2 --json BENCH_fleet_full.json --ndjson target/fleet_full_telemetry.ndjson
cargo run --release -p sbst-bench --bin fleet -- --nodes 200 \
  --workers 7 --json target/fleet_full_workers7.json --ndjson target/fleet_full_telemetry_workers7.ndjson
for report in BENCH_fleet_full.json target/fleet_full_workers7.json; do
  if ! diff <(jq -S '.aggregate' BENCH_fleet_full_serial.json) <(jq -S '.aggregate' "$report"); then
    echo "error: full-inventory fleet aggregate of $report diverges from workers=1" >&2
    exit 1
  fi
done
for stream in target/fleet_full_telemetry_workers1.ndjson target/fleet_full_telemetry_workers7.ndjson; do
  if ! diff <(sort target/fleet_full_telemetry.ndjson) <(sort "$stream") >/dev/null; then
    echo "error: full-inventory fleet telemetry of $stream diverges from workers=2" >&2
    exit 1
  fi
done
if [ "$(jq -s '[.[] | select(.type == "node") | .quarantined[]] | index("Parallel Mul.") != null' \
        target/fleet_full_telemetry.ndjson)" != "true" ]; then
  echo "error: no node quarantined the multiplier in the full-inventory fleet" >&2
  exit 1
fi

echo "== fleet telemetry sink failure: a typed error and exit 1, not a panic =="
# /dev/full fails every write: the run must finish, print the error and
# exit 1 (a panic would exit 101).
set +e
fleet_err="$(cargo run --release --quiet -p sbst-bench --bin fleet -- --smoke --nodes 50 \
  --ndjson /dev/full 2>&1 >/dev/null)"
fleet_status=$?
set -e
if [ "$fleet_status" != "1" ] || ! grep -q "^error: telemetry stream" <<<"$fleet_err"; then
  echo "error: fleet with a failing telemetry sink exited $fleet_status:" >&2
  echo "$fleet_err" >&2
  exit 1
fi

echo "== fleet red-team smoke: adversarial population, keyed store (exit gates tamper SLO) =="
# The binary itself exits nonzero unless every injected store attack is
# detected with zero false alarms; the asserts below additionally pin the
# report fields ci consumers read.
rm -f BENCH_fleet_adv.json
cargo run --release -p sbst-bench --bin fleet -- --smoke --adversary --nodes 200 \
  --workers 2 --json BENCH_fleet_adv.json --ndjson target/fleet_adv_telemetry.ndjson

echo "== validate fleet red-team report and telemetry =="
cargo run --release -p sbst-bench --bin jsonlint -- BENCH_fleet_adv.json \
  --require tool --require schema_version --require adversary --require aggregate
cargo run --release -p sbst-bench --bin jsonlint -- target/fleet_adv_telemetry.ndjson \
  --ndjson --require type --require node
if [ "$(jq '.schema_version' BENCH_fleet_adv.json)" != "12" ]; then
  echo "error: BENCH_fleet_adv.json schema_version is not 12" >&2
  exit 1
fi
if [ "$(jq '.aggregate.attacks_injected > 0
            and .aggregate.tampers_detected == .aggregate.attacks_injected
            and .aggregate.tamper_false_alarms == 0
            and .aggregate.tamper_detection_rate == 1' BENCH_fleet_adv.json)" != "true" ]; then
  echo "error: fleet red-team tamper SLO violated:" >&2
  jq '.aggregate | {attacks_injected, tampers_detected, tamper_false_alarms,
                    tamper_detection_rate}' BENCH_fleet_adv.json >&2
  exit 1
fi

echo "== ci.sh: all green =="
