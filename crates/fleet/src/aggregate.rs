//! Deterministic fleet-wide aggregation.
//!
//! Node outcomes are merged in node-index order, so every number here —
//! totals, rates, the fleet digest, per-profile groups, SLO attainment and
//! anomaly flags — is bit-identical for any worker count under a fixed
//! seed. Wall-clock throughput is reported elsewhere (it is observational
//! and excluded from CI diffs).

use std::collections::BTreeMap;

use sbst_core::JsonValue;

use crate::characterize::SharedArtifacts;
use crate::node::{fnv1a_u64, NodeOutcome, FNV_OFFSET};
use crate::profile::ProfileKind;

/// Rollup for one population profile.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProfileGroup {
    /// The population.
    pub kind: ProfileKind,
    /// Nodes drawn into it.
    pub nodes: u64,
    /// Sessions run across those nodes.
    pub sessions: u64,
    /// Routine attempts.
    pub attempts: u64,
    /// Failed attempts (mismatch + hang + crash).
    pub failures: u64,
    /// Components quarantined.
    pub quarantines: u64,
    /// Transient classifications.
    pub transients: u64,
    /// Store attacks injected by this population's adversaries.
    pub attacks_injected: u64,
    /// Store tampers detected (forgeries + replays).
    pub tampers_detected: u64,
}

/// A node whose transient rate stands out against the fleet.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Anomaly {
    /// Node index.
    pub node: u64,
    /// Transient classifications on the node.
    pub transients: u64,
    /// The node's transient rate (transients / attempts).
    pub rate: f64,
}

/// The fleet-wide deterministic rollup.
#[derive(Debug, Clone, PartialEq)]
pub struct Aggregate {
    /// Nodes merged.
    pub nodes: u64,
    /// Total periodic sessions.
    pub sessions: u64,
    /// Total routine attempts.
    pub attempts: u64,
    /// Passing attempts.
    pub passes: u64,
    /// Signature mismatches.
    pub mismatches: u64,
    /// Watchdog aborts.
    pub watchdog_fires: u64,
    /// Execution crashes.
    pub crashes: u64,
    /// Backed-off retries.
    pub backoffs: u64,
    /// Components quarantined fleet-wide.
    pub quarantines: u64,
    /// Transient classifications fleet-wide.
    pub transients: u64,
    /// Store attacks injected fleet-wide (adversarial population).
    pub attacks_injected: u64,
    /// Store tampers detected fleet-wide (forgeries + replays).
    pub tampers_detected: u64,
    /// Tamper detections split: forged seals.
    pub tamper_forgeries: u64,
    /// Tamper detections split: stale-epoch replays.
    pub tamper_replays: u64,
    /// Hardened recaptures performed fleet-wide.
    pub store_recaptures: u64,
    /// Fresh captures rejected by the replica cross-check.
    pub recapture_rejects: u64,
    /// Tamper detections on nodes whose adversary injected nothing —
    /// the red-team gate asserts this is exactly 0.
    pub tamper_false_alarms: u64,
    /// Detections / injections (1.0 when nothing was injected): the
    /// tamper-detection SLO, held to 1.0 by the red-team gate.
    pub tamper_detection_rate: f64,
    /// Fraction of nodes with at least one quarantined component.
    pub quarantine_rate: f64,
    /// Fleet mean transient rate (transients / attempts).
    pub transient_rate: f64,
    /// FNV-1a fold of per-node digests in index order — the one number CI
    /// compares across worker counts.
    pub fleet_digest: u64,
    /// Characterization coverage per component (name, percent).
    pub coverage: Vec<(String, f64)>,
    /// The coverage target the fleet is held to.
    pub coverage_slo_percent: f64,
    /// Whether every characterized component meets the SLO.
    pub coverage_slo_met: bool,
    /// Per-profile groups, in `ProfileKind` order.
    pub groups: Vec<ProfileGroup>,
    /// Nodes flagged for transient-rate drift, in index order: at least 2
    /// transients and a rate above 3x the fleet mean.
    pub anomalies: Vec<Anomaly>,
}

/// Multiple of the fleet mean transient rate above which a node is
/// flagged.
pub const ANOMALY_RATE_FACTOR: f64 = 3.0;
/// Minimum transient classifications before a node can be flagged (one
/// blip is not drift).
pub const ANOMALY_MIN_TRANSIENTS: u64 = 2;

impl Aggregate {
    /// Builds the rollup from outcomes sorted by node index.
    ///
    /// # Panics
    ///
    /// Panics if `outcomes` is not sorted by index — the determinism
    /// contract depends on merge order.
    pub fn build(
        outcomes: &[NodeOutcome],
        artifacts: &SharedArtifacts,
        coverage_slo_percent: f64,
    ) -> Self {
        assert!(
            outcomes.windows(2).all(|w| w[0].index < w[1].index),
            "outcomes must be merged in node-index order"
        );
        let mut agg = Aggregate {
            nodes: outcomes.len() as u64,
            sessions: 0,
            attempts: 0,
            passes: 0,
            mismatches: 0,
            watchdog_fires: 0,
            crashes: 0,
            backoffs: 0,
            quarantines: 0,
            transients: 0,
            attacks_injected: 0,
            tampers_detected: 0,
            tamper_forgeries: 0,
            tamper_replays: 0,
            store_recaptures: 0,
            recapture_rejects: 0,
            tamper_false_alarms: 0,
            tamper_detection_rate: 1.0,
            quarantine_rate: 0.0,
            transient_rate: 0.0,
            fleet_digest: FNV_OFFSET,
            coverage: artifacts.coverage.clone(),
            coverage_slo_percent,
            coverage_slo_met: artifacts
                .coverage
                .iter()
                .all(|(_, pct)| *pct >= coverage_slo_percent),
            groups: Vec::new(),
            anomalies: Vec::new(),
        };

        let mut groups: BTreeMap<ProfileKind, ProfileGroup> = BTreeMap::new();
        let mut quarantined_nodes = 0u64;
        for outcome in outcomes {
            let c = &outcome.counters;
            agg.sessions += outcome.sessions;
            agg.attempts += c.attempts;
            agg.passes += c.passes;
            agg.mismatches += c.mismatches;
            agg.watchdog_fires += c.watchdog_fires;
            agg.crashes += c.crashes;
            agg.backoffs += c.backoffs;
            agg.quarantines += c.quarantines;
            agg.transients += c.transients;
            agg.attacks_injected += outcome.attacks_injected;
            agg.tampers_detected += outcome.tampers_detected();
            agg.tamper_forgeries += c.tamper_forgeries;
            agg.tamper_replays += c.tamper_replays;
            agg.store_recaptures += c.store_recaptures;
            agg.recapture_rejects += c.recapture_rejects;
            if outcome.attacks_injected == 0 {
                agg.tamper_false_alarms += outcome.tampers_detected();
            } else {
                agg.tamper_false_alarms += outcome
                    .tampers_detected()
                    .saturating_sub(outcome.attacks_injected);
            }
            if !outcome.quarantined.is_empty() {
                quarantined_nodes += 1;
            }
            agg.fleet_digest = fnv1a_u64(agg.fleet_digest, outcome.digest);
            let group = groups
                .entry(outcome.profile.kind)
                .or_insert_with(|| ProfileGroup {
                    kind: outcome.profile.kind,
                    nodes: 0,
                    sessions: 0,
                    attempts: 0,
                    failures: 0,
                    quarantines: 0,
                    transients: 0,
                    attacks_injected: 0,
                    tampers_detected: 0,
                });
            group.nodes += 1;
            group.sessions += outcome.sessions;
            group.attempts += c.attempts;
            group.failures += c.mismatches + c.watchdog_fires + c.crashes;
            group.quarantines += c.quarantines;
            group.transients += c.transients;
            group.attacks_injected += outcome.attacks_injected;
            group.tampers_detected += outcome.tampers_detected();
        }
        if agg.nodes > 0 {
            agg.quarantine_rate = quarantined_nodes as f64 / agg.nodes as f64;
        }
        if agg.attempts > 0 {
            agg.transient_rate = agg.transients as f64 / agg.attempts as f64;
        }
        if agg.attacks_injected > 0 {
            agg.tamper_detection_rate = agg.tampers_detected as f64 / agg.attacks_injected as f64;
        }
        agg.groups = groups.into_values().collect();

        // Transient-rate drift: nodes far above the fleet mean.
        let threshold = agg.transient_rate * ANOMALY_RATE_FACTOR;
        for outcome in outcomes {
            let c = &outcome.counters;
            if c.transients < ANOMALY_MIN_TRANSIENTS || c.attempts == 0 {
                continue;
            }
            let rate = c.transients as f64 / c.attempts as f64;
            if rate > threshold {
                agg.anomalies.push(Anomaly {
                    node: outcome.index,
                    transients: c.transients,
                    rate,
                });
            }
        }
        agg
    }

    /// The rollup as a JSON tree (the `aggregate` object of the fleet
    /// report and the CI differential).
    pub fn to_json(&self) -> JsonValue {
        JsonValue::object([
            ("nodes", JsonValue::UInt(self.nodes)),
            ("sessions", JsonValue::UInt(self.sessions)),
            ("attempts", JsonValue::UInt(self.attempts)),
            ("passes", JsonValue::UInt(self.passes)),
            ("mismatches", JsonValue::UInt(self.mismatches)),
            ("watchdog_fires", JsonValue::UInt(self.watchdog_fires)),
            ("crashes", JsonValue::UInt(self.crashes)),
            ("backoffs", JsonValue::UInt(self.backoffs)),
            ("quarantines", JsonValue::UInt(self.quarantines)),
            ("transients", JsonValue::UInt(self.transients)),
            ("attacks_injected", JsonValue::UInt(self.attacks_injected)),
            ("tampers_detected", JsonValue::UInt(self.tampers_detected)),
            ("tamper_forgeries", JsonValue::UInt(self.tamper_forgeries)),
            ("tamper_replays", JsonValue::UInt(self.tamper_replays)),
            ("store_recaptures", JsonValue::UInt(self.store_recaptures)),
            ("recapture_rejects", JsonValue::UInt(self.recapture_rejects)),
            (
                "tamper_false_alarms",
                JsonValue::UInt(self.tamper_false_alarms),
            ),
            (
                "tamper_detection_rate",
                JsonValue::Float(self.tamper_detection_rate),
            ),
            ("quarantine_rate", JsonValue::Float(self.quarantine_rate)),
            ("transient_rate", JsonValue::Float(self.transient_rate)),
            (
                "fleet_digest",
                JsonValue::Str(format!("{:#018x}", self.fleet_digest)),
            ),
            (
                "coverage",
                JsonValue::Array(
                    self.coverage
                        .iter()
                        .map(|(name, pct)| {
                            JsonValue::object([
                                ("component", JsonValue::Str(name.clone())),
                                ("coverage_percent", JsonValue::Float(*pct)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "coverage_slo_percent",
                JsonValue::Float(self.coverage_slo_percent),
            ),
            ("coverage_slo_met", JsonValue::Bool(self.coverage_slo_met)),
            (
                "profiles",
                JsonValue::Array(
                    self.groups
                        .iter()
                        .map(|g| {
                            JsonValue::object([
                                ("profile", JsonValue::Str(g.kind.name().to_owned())),
                                ("nodes", JsonValue::UInt(g.nodes)),
                                ("sessions", JsonValue::UInt(g.sessions)),
                                ("attempts", JsonValue::UInt(g.attempts)),
                                ("failures", JsonValue::UInt(g.failures)),
                                ("quarantines", JsonValue::UInt(g.quarantines)),
                                ("transients", JsonValue::UInt(g.transients)),
                                ("attacks_injected", JsonValue::UInt(g.attacks_injected)),
                                ("tampers_detected", JsonValue::UInt(g.tampers_detected)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "anomalies",
                JsonValue::Array(
                    self.anomalies
                        .iter()
                        .map(|a| {
                            JsonValue::object([
                                ("node", JsonValue::UInt(a.node)),
                                ("transients", JsonValue::UInt(a.transients)),
                                ("transient_rate", JsonValue::Float(a.rate)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}
