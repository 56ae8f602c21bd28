//! Fleet determinism differential: under a fixed seed, the aggregate,
//! every per-node outcome and every per-node ordered event log must be
//! bit-identical for 1, 2 and 7 workers, and equal to each node run alone
//! — the worker count decides which thread runs a node, never what it
//! computes.

use std::sync::{Arc, Mutex};

use proptest::prelude::ProptestConfig;
use proptest::proptest;
use sbst_core::{parse_ndjson, Cut};
use sbst_fleet::{
    assign_profile, run_fleet, Characterizer, FleetConfig, FleetNode, FleetRun, NodeOutcome,
    PopulationMix,
};

fn config(nodes: u64, workers: usize, record_events: bool) -> FleetConfig {
    FleetConfig {
        nodes,
        workers,
        seed: 0xD1FF_5EED,
        horizon_cycles: 1_500_000,
        base_period_cycles: 500_000,
        // Faulty-heavy mix so the differential exercises every profile.
        mix: PopulationMix {
            infant_pct: 20,
            wearout_pct: 15,
            correlated_pct: 15,
            adversary_pct: 0,
            batch_size: 4,
        },
        record_events,
        coverage_slo_percent: 90.0,
    }
}

fn run(nodes: u64, workers: usize, record_events: bool) -> FleetRun {
    let characterizer = Characterizer::new(vec![Cut::alu(32), Cut::shifter(32)]);
    run_fleet(&config(nodes, workers, record_events), &characterizer, None)
}

/// The defining property, without the scheduler: every node built with
/// [`FleetNode::new`] and run alone to completion, in index order.
fn run_each_node_alone(nodes: u64) -> Vec<NodeOutcome> {
    let characterizer = Characterizer::new(vec![Cut::alu(32), Cut::shifter(32)]);
    let cfg = config(nodes, 1, true);
    let specs = characterizer.target_specs();
    (0..nodes)
        .map(|index| {
            let profile = assign_profile(
                cfg.seed,
                index,
                &cfg.mix,
                cfg.base_period_cycles,
                cfg.horizon_cycles,
                &specs,
            );
            let mut node = FleetNode::new(index, profile, characterizer.artifacts(), true);
            while !node.run_due_session(cfg.horizon_cycles).done {}
            node.finish()
        })
        .collect()
}

#[test]
fn aggregates_and_event_logs_bit_identical_across_worker_counts() {
    let alone = run_each_node_alone(24);
    let reference = run(24, 1, true);
    assert_eq!(reference.characterizations, 1);
    assert_eq!(reference.outcomes.len(), 24);
    // The faulty mix must actually do something or the differential is
    // vacuous.
    assert!(reference.aggregate.transients + reference.aggregate.quarantines > 0);

    let same_as_alone = |run: &FleetRun, workers: usize| {
        assert_eq!(run.outcomes.len(), alone.len(), "{workers} workers");
        for (a, b) in alone.iter().zip(&run.outcomes) {
            assert_eq!(
                a, b,
                "node {} run alone diverges at {workers} workers",
                a.index
            );
        }
    };
    same_as_alone(&reference, 1);

    for workers in [2usize, 7] {
        let other = run(24, workers, true);
        same_as_alone(&other, workers);
        assert_eq!(other.characterizations, 1, "{workers} workers");
        assert_eq!(
            reference.aggregate, other.aggregate,
            "aggregate diverges at {workers} workers"
        );
        assert_eq!(
            reference.aggregate.fleet_digest, other.aggregate.fleet_digest,
            "digest diverges at {workers} workers"
        );
        // Per-node outcomes carry the full ordered event logs
        // (record_events = true): the verdict sequences themselves must
        // match, not just the rollup.
        for (a, b) in reference.outcomes.iter().zip(&other.outcomes) {
            assert_eq!(a, b, "node {} diverges at {workers} workers", a.index);
        }
        // The JSON rendering (what ci.sh diffs) matches too.
        assert_eq!(
            reference.aggregate.to_json().to_json_pretty(),
            other.aggregate.to_json().to_json_pretty()
        );
    }
}

/// The red-team differential: an adversary-heavy keyed fleet must detect
/// 100% of injected store attacks with zero false alarms, and the tamper
/// aggregates must stay bit-identical for 1, 2 and 7 workers.
#[test]
fn adversarial_fleet_detects_all_attacks_identically_across_worker_counts() {
    let run_adversarial = |workers: usize| {
        let characterizer =
            Characterizer::new(vec![Cut::alu(32), Cut::shifter(32)]).with_key_seed(0x5EC2_E7C0);
        let cfg = FleetConfig {
            mix: PopulationMix {
                infant_pct: 10,
                wearout_pct: 10,
                correlated_pct: 10,
                adversary_pct: 40,
                batch_size: 4,
            },
            ..config(24, workers, true)
        };
        run_fleet(&cfg, &characterizer, None)
    };

    let reference = run_adversarial(1);
    let agg = &reference.aggregate;
    assert!(
        agg.attacks_injected > 0,
        "the adversarial mix must actually attack"
    );
    assert_eq!(
        agg.tampers_detected, agg.attacks_injected,
        "100% tamper detection"
    );
    assert_eq!(agg.tamper_false_alarms, 0, "zero false alarms");
    assert_eq!(agg.tamper_detection_rate, 1.0);
    assert!(agg.tamper_forgeries > 0, "forgeries drawn at this scale");
    assert!(agg.tamper_replays > 0, "replays drawn at this scale");
    // Non-adversarial profiles inject and detect nothing.
    for group in &agg.groups {
        let adversarial = group.kind.name() == "adversarial";
        assert_eq!(group.attacks_injected > 0, adversarial, "{:?}", group.kind);
        assert_eq!(group.tampers_detected, group.attacks_injected);
    }

    for workers in [2usize, 7] {
        let other = run_adversarial(workers);
        assert_eq!(
            reference.aggregate, other.aggregate,
            "tamper aggregate diverges at {workers} workers"
        );
        for (a, b) in reference.outcomes.iter().zip(&other.outcomes) {
            assert_eq!(a, b, "node {} diverges at {workers} workers", a.index);
        }
    }
}

#[test]
fn telemetry_stream_is_valid_ndjson_and_complete() {
    #[derive(Clone, Default)]
    struct SharedBuf(Arc<Mutex<Vec<u8>>>);
    impl std::io::Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    let sink = SharedBuf::default();
    let characterizer = Characterizer::new(vec![Cut::alu(32), Cut::shifter(32)]);
    let run = run_fleet(
        &config(12, 3, false),
        &characterizer,
        Some(Box::new(sink.clone())),
    );

    let bytes = sink.0.lock().unwrap().clone();
    let text = String::from_utf8(bytes).unwrap();
    let records = parse_ndjson(&text).expect("telemetry stream is valid NDJSON");
    assert_eq!(records.len() as u64, run.telemetry_lines);
    assert!(run.telemetry_flushes > 0);

    let mut session_lines = 0u64;
    let mut node_lines = 0u64;
    for record in &records {
        let ty = record.get("type").and_then(|v| v.as_str()).unwrap();
        assert!(record.get("node").and_then(|v| v.as_u64()).is_some());
        match ty {
            "session" => session_lines += 1,
            "node" => node_lines += 1,
            other => panic!("unexpected record type {other}"),
        }
    }
    // One record per session plus one summary per node.
    assert_eq!(session_lines, run.aggregate.sessions);
    assert_eq!(node_lines, run.aggregate.nodes);
    let worker_lines: u64 = run.workers.iter().map(|w| w.telemetry_lines).sum();
    assert_eq!(worker_lines, run.telemetry_lines);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Session conservation: the aggregate's session total equals the sum
    /// of per-worker session counts, and every node is finalized by
    /// exactly one worker — for arbitrary small fleets and worker counts.
    #[test]
    fn sessions_conserved_across_workers(nodes in 1u64..20, workers in 1usize..5, seed in 0u64..1000) {
        let characterizer = Characterizer::new(vec![Cut::alu(32), Cut::shifter(32)]);
        let cfg = FleetConfig {
            nodes,
            workers,
            seed,
            ..config(nodes, workers, false)
        };
        let run = run_fleet(&cfg, &characterizer, None);
        assert_eq!(run.characterizations, 1);
        let worker_sessions: u64 = run.workers.iter().map(|w| w.sessions).sum();
        assert_eq!(worker_sessions, run.aggregate.sessions);
        let finalized: u64 = run.workers.iter().map(|w| w.nodes_finalized).sum();
        assert_eq!(finalized, nodes);
        let outcome_sessions: u64 = run.outcomes.iter().map(|o| o.sessions).sum();
        assert_eq!(outcome_sessions, run.aggregate.sessions);
    }
}
