//! Heterogeneous fault-profile populations.
//!
//! A fleet is not uniformly healthy: the paper's operational fault
//! taxonomy (permanent / intermittent / transient) plays out differently
//! across a population of deployed cores. This module assigns each
//! simulated node a *profile* — healthy, infant mortality, wear-out, or
//! correlated batch defect — as a pure function of `(seed, node index)`,
//! so the assignment is identical no matter which worker thread builds the
//! node or in what order nodes are scheduled.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use sbst_components::ComponentKind;
use sbst_cpu::faulty::FaultActivity;

/// Virtual cycles per virtual second: the fleet's nominal clock. The
/// `--seconds` horizon of the bench binary is expressed in this unit, so
/// run length is deterministic and wall-clock only affects the reported
/// throughput numbers.
pub const NOMINAL_HZ: u64 = 1_000_000;

/// SplitMix64 step — the same mixer the vendored `rand` uses for seeding.
/// Used here to derive independent per-node (and per-batch) streams from
/// one fleet seed without any cross-node draw-order coupling.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Derives a child seed from `(seed, salt, lane)`. Each node gets its own
/// RNG stream; correlated batches get a batch-level stream shared by every
/// node in the batch.
pub fn derive_seed(seed: u64, salt: u64, lane: u64) -> u64 {
    let mut s = seed ^ salt.rotate_left(17);
    let a = splitmix64(&mut s);
    let mut s2 = a ^ lane;
    splitmix64(&mut s2)
}

const NODE_SALT: u64 = 0x4E4F_4445; // "NODE"
const BATCH_SALT: u64 = 0x4241_5443; // "BATC"

/// Which lifetime population a node belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ProfileKind {
    /// No fault ever manifests.
    Healthy,
    /// A manufacturing escape active from cycle 0 that burns out early:
    /// a fault window `[0, until)` with `until` drawn in the first part of
    /// the horizon. Early sessions fail, later ones pass — the manager
    /// classifies the streak transient.
    InfantMortality,
    /// A defect that sets in late and never clears: a window
    /// `[onset, ∞)`. Once active, retries exhaust and the component is
    /// classified permanent and quarantined. Wear-out nodes also test on a
    /// shorter period (degraded parts are scheduled more aggressively),
    /// which skews the fleet's load and exercises the stealing scheduler.
    WearOut,
    /// A batch-correlated defect: every affected node in the same
    /// manufacturing batch shares one onset time and one fault site, drawn
    /// from a batch-level RNG stream.
    CorrelatedBatch,
    /// Healthy hardware under attack: an adversary with write access to
    /// the node's signature-store memory mounts one planned
    /// [`PlannedAttack`] against the keyed store. The red-team population
    /// for the tamper-detection SLO — every injected attack must be
    /// detected, with zero false alarms elsewhere.
    Adversarial,
}

impl ProfileKind {
    /// Stable lowercase name, used as a JSON key.
    pub fn name(&self) -> &'static str {
        match self {
            ProfileKind::Healthy => "healthy",
            ProfileKind::InfantMortality => "infant_mortality",
            ProfileKind::WearOut => "wear_out",
            ProfileKind::CorrelatedBatch => "correlated_batch",
            ProfileKind::Adversarial => "adversarial",
        }
    }
}

/// The attack an adversarial node mounts against its signature store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AttackKind {
    /// Flip one bit of a stored golden signature (no seal recomputation):
    /// the classic memory-corruption tamper, detected as forgery.
    BitFlip,
    /// Rewrite an entry *and* recompute the public FNV checksum — the
    /// forgery the unkeyed seal cannot see; only the keyed seal catches
    /// it.
    ForgeEntry,
    /// Two-stage replay: first corrupt the store so the manager
    /// re-captures and advances the seal epoch, then swap in the
    /// pre-attack snapshot — validly sealed, but at a stale epoch.
    Replay,
}

impl AttackKind {
    /// Stable lowercase name, used as a JSON key.
    pub fn name(&self) -> &'static str {
        match self {
            AttackKind::BitFlip => "bit_flip",
            AttackKind::ForgeEntry => "forge_entry",
            AttackKind::Replay => "replay",
        }
    }
}

/// One planned store attack: what to mount and immediately before which
/// session (1-based) to mount it. [`AttackKind::Replay`]'s second stage
/// lands before session `session + 1`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlannedAttack {
    /// The attack flavour.
    pub kind: AttackKind,
    /// 1-based session the (first) tamper is applied before.
    pub session: u64,
    /// Value-bit flipped by [`AttackKind::BitFlip`] and the replay's
    /// first stage, and the XOR fed to the forged rewrite.
    pub bit: u32,
}

/// Population mix: percentage of nodes drawn into each faulty profile
/// (the remainder is healthy), plus the manufacturing batch size for the
/// correlated profile.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PopulationMix {
    /// Percent of nodes with infant-mortality defects.
    pub infant_pct: u8,
    /// Percent of nodes with wear-out defects.
    pub wearout_pct: u8,
    /// Percent of nodes eligible for a batch-correlated defect.
    pub correlated_pct: u8,
    /// Percent of nodes under adversarial store attack (healthy hardware,
    /// tampered signature store). 0 in the default mix — the red-team
    /// population is opt-in via `--adversary`.
    pub adversary_pct: u8,
    /// Nodes per manufacturing batch (correlated defects are shared
    /// batch-wide).
    pub batch_size: u64,
}

impl Default for PopulationMix {
    fn default() -> Self {
        PopulationMix {
            infant_pct: 4,
            wearout_pct: 3,
            correlated_pct: 3,
            adversary_pct: 0,
            batch_size: 16,
        }
    }
}

/// A mountable fault site: which characterized target, which output bit,
/// which polarity, and when the fault is active.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlannedFault {
    /// Index into the shared characterization's fault targets.
    pub target: usize,
    /// Net index within the target's observable output port.
    pub bit: usize,
    /// `true` for stuck-at-1, `false` for stuck-at-0.
    pub stuck_at_one: bool,
    /// Temporal behaviour of the fault.
    pub activity: FaultActivity,
}

/// A fault-mountable datapath target, described without any netlist:
/// enough for profile assignment to draw a site before characterization
/// has run anywhere.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TargetSpec {
    /// Component kind (restricted to the architecturally mountable three).
    pub kind: ComponentKind,
    /// Observable output port carrying the fault site.
    pub port: &'static str,
    /// Net count of that port (fault bits are drawn below this).
    pub width: usize,
}

impl TargetSpec {
    /// The spec for a mountable kind, or `None` for kinds the datapath
    /// cannot swap for a faulty netlist.
    pub fn for_kind(kind: ComponentKind, width: usize) -> Option<Self> {
        match kind {
            ComponentKind::Alu | ComponentKind::Shifter => Some(TargetSpec {
                kind,
                port: "result",
                width,
            }),
            // The multiplier's observable output is the double-width
            // product.
            ComponentKind::Multiplier => Some(TargetSpec {
                kind,
                port: "product",
                width: width * 2,
            }),
            _ => None,
        }
    }
}

/// Everything a node needs to know about itself before characterization:
/// its population, test cadence and (optional) planned fault.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeProfile {
    /// The population the node was drawn into.
    pub kind: ProfileKind,
    /// Periodic-test cadence in virtual cycles.
    pub period_cycles: u64,
    /// Offset of the node's first activation (staggers the fleet so the
    /// scheduler sees a spread of deadlines, not one thundering herd).
    pub phase_cycles: u64,
    /// The planned fault, if any.
    pub fault: Option<PlannedFault>,
    /// The planned store attack ([`ProfileKind::Adversarial`] only).
    pub attack: Option<PlannedAttack>,
}

/// Assigns node `index`'s profile as a pure function of
/// `(seed, index, mix, base_period, horizon, targets)` — independent of
/// worker count, scheduling order and every other node's draws.
pub fn assign_profile(
    seed: u64,
    index: u64,
    mix: &PopulationMix,
    base_period_cycles: u64,
    horizon_cycles: u64,
    targets: &[TargetSpec],
) -> NodeProfile {
    let mut rng = StdRng::seed_from_u64(derive_seed(seed, NODE_SALT, index));
    // Stagger first activations across a quarter period.
    let phase_cycles = rng.random_below((base_period_cycles / 4).max(1));
    let pick = rng.random_below(100) as u8;
    let infant_below = mix.infant_pct;
    let wearout_below = infant_below + mix.wearout_pct;
    let correlated_below = wearout_below + mix.correlated_pct;
    let adversary_below = correlated_below.saturating_add(mix.adversary_pct);

    // Adversarial nodes need no mountable fault target: the hardware is
    // healthy, the attack is on the store.
    if pick >= correlated_below && pick < adversary_below {
        let kind = match rng.random_below(3) {
            0 => AttackKind::BitFlip,
            1 => AttackKind::ForgeEntry,
            _ => AttackKind::Replay,
        };
        // Strike before the first or second session (a replay's second
        // stage lands one session later).
        let session = 1 + rng.random_below(2);
        let bit = rng.random_below(32) as u32;
        return NodeProfile {
            kind: ProfileKind::Adversarial,
            period_cycles: base_period_cycles,
            phase_cycles,
            fault: None,
            attack: Some(PlannedAttack { kind, session, bit }),
        };
    }

    if targets.is_empty() || pick >= correlated_below {
        return NodeProfile {
            kind: ProfileKind::Healthy,
            period_cycles: base_period_cycles,
            phase_cycles,
            fault: None,
            attack: None,
        };
    }

    if pick < infant_below {
        // Active from power-on, burned out within the first eighth of the
        // horizon: the first session fails, a later one passes.
        let until_cycle = 1 + rng.random_below((horizon_cycles / 8).max(1));
        let fault = draw_site(
            &mut rng,
            targets,
            FaultActivity::Window {
                from_cycle: 0,
                until_cycle,
            },
        );
        NodeProfile {
            kind: ProfileKind::InfantMortality,
            period_cycles: base_period_cycles,
            phase_cycles,
            fault: Some(fault),
            attack: None,
        }
    } else if pick < wearout_below {
        // Sets in somewhere in the second half of life and never clears.
        let onset = horizon_cycles / 2 + rng.random_below((horizon_cycles / 2).max(1));
        let fault = draw_site(
            &mut rng,
            targets,
            FaultActivity::Window {
                from_cycle: onset,
                until_cycle: u64::MAX,
            },
        );
        NodeProfile {
            kind: ProfileKind::WearOut,
            // Degraded parts test more often — a deliberately uneven load.
            period_cycles: (base_period_cycles * 3 / 4).max(1),
            phase_cycles,
            fault: Some(fault),
            attack: None,
        }
    } else {
        // The whole batch shares one defect, drawn from the batch stream.
        let batch = index / mix.batch_size.max(1);
        let mut brng = StdRng::seed_from_u64(derive_seed(seed, BATCH_SALT, batch));
        let onset = horizon_cycles / 4 + brng.random_below((horizon_cycles / 4).max(1));
        let fault = draw_site(
            &mut brng,
            targets,
            FaultActivity::Window {
                from_cycle: onset,
                until_cycle: u64::MAX,
            },
        );
        NodeProfile {
            kind: ProfileKind::CorrelatedBatch,
            period_cycles: base_period_cycles,
            phase_cycles,
            fault: Some(fault),
            attack: None,
        }
    }
}

fn draw_site(rng: &mut StdRng, targets: &[TargetSpec], activity: FaultActivity) -> PlannedFault {
    let target = rng.random_below(targets.len() as u64) as usize;
    let bit = rng.random_below(targets[target].width as u64) as usize;
    let stuck_at_one = rng.random::<bool>();
    PlannedFault {
        target,
        bit,
        stuck_at_one,
        activity,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn targets() -> Vec<TargetSpec> {
        vec![
            TargetSpec::for_kind(ComponentKind::Alu, 32).unwrap(),
            TargetSpec::for_kind(ComponentKind::Shifter, 32).unwrap(),
        ]
    }

    #[test]
    fn assignment_is_a_pure_function_of_seed_and_index() {
        let mix = PopulationMix::default();
        for index in 0..64 {
            let a = assign_profile(7, index, &mix, 500_000, 2_000_000, &targets());
            let b = assign_profile(7, index, &mix, 500_000, 2_000_000, &targets());
            assert_eq!(a, b);
        }
    }

    #[test]
    fn mix_populations_all_appear_at_scale() {
        let mix = PopulationMix {
            infant_pct: 20,
            wearout_pct: 20,
            correlated_pct: 20,
            adversary_pct: 20,
            batch_size: 8,
        };
        let mut seen = std::collections::BTreeSet::new();
        for index in 0..256 {
            let p = assign_profile(3, index, &mix, 500_000, 2_000_000, &targets());
            seen.insert(p.kind);
        }
        assert_eq!(seen.len(), 5, "all five profiles drawn: {seen:?}");
    }

    #[test]
    fn adversarial_nodes_plan_attacks_not_faults() {
        let mix = PopulationMix {
            infant_pct: 0,
            wearout_pct: 0,
            correlated_pct: 0,
            adversary_pct: 100,
            batch_size: 16,
        };
        let mut kinds = std::collections::BTreeSet::new();
        // Adversarial assignment must not require fault targets.
        for (index, targets) in (0..96).zip([targets(), Vec::new()].into_iter().cycle()) {
            let p = assign_profile(21, index, &mix, 500_000, 2_000_000, &targets);
            assert_eq!(p.kind, ProfileKind::Adversarial);
            assert!(p.fault.is_none(), "adversarial hardware is healthy");
            let attack = p.attack.expect("adversarial node plans an attack");
            assert!(attack.session >= 1 && attack.session <= 2);
            assert!(attack.bit < 32);
            kinds.insert(attack.kind.name());
        }
        assert_eq!(
            kinds.into_iter().collect::<Vec<_>>(),
            vec!["bit_flip", "forge_entry", "replay"],
            "all three attack flavours drawn at scale"
        );
    }

    #[test]
    fn correlated_batch_shares_onset_and_site() {
        let mix = PopulationMix {
            infant_pct: 0,
            wearout_pct: 0,
            correlated_pct: 100,
            adversary_pct: 0,
            batch_size: 8,
        };
        let profiles: Vec<_> = (0..16)
            .map(|i| assign_profile(11, i, &mix, 500_000, 2_000_000, &targets()))
            .collect();
        // Everyone is correlated; within a batch the fault is identical.
        for p in &profiles {
            assert_eq!(p.kind, ProfileKind::CorrelatedBatch);
        }
        let first_batch = profiles[0].fault.unwrap();
        for p in &profiles[1..8] {
            assert_eq!(p.fault.unwrap(), first_batch);
        }
        let second_batch = profiles[8].fault.unwrap();
        for p in &profiles[9..16] {
            assert_eq!(p.fault.unwrap(), second_batch);
        }
        assert_ne!(
            first_batch, second_batch,
            "distinct batches draw distinct defects"
        );
    }

    #[test]
    fn healthy_nodes_carry_no_fault() {
        let mix = PopulationMix {
            infant_pct: 0,
            wearout_pct: 0,
            correlated_pct: 0,
            adversary_pct: 0,
            batch_size: 16,
        };
        for index in 0..32 {
            let p = assign_profile(5, index, &mix, 500_000, 2_000_000, &targets());
            assert_eq!(p.kind, ProfileKind::Healthy);
            assert!(p.fault.is_none());
        }
    }

    #[test]
    fn no_targets_means_everyone_is_healthy() {
        let mix = PopulationMix {
            infant_pct: 50,
            wearout_pct: 50,
            correlated_pct: 0,
            adversary_pct: 0,
            batch_size: 16,
        };
        for index in 0..16 {
            let p = assign_profile(5, index, &mix, 500_000, 2_000_000, &[]);
            assert_eq!(p.kind, ProfileKind::Healthy);
        }
    }

    #[test]
    fn fault_bits_respect_target_width() {
        let mix = PopulationMix {
            infant_pct: 34,
            wearout_pct: 33,
            correlated_pct: 33,
            adversary_pct: 0,
            batch_size: 4,
        };
        let ts = targets();
        for index in 0..128 {
            let p = assign_profile(13, index, &mix, 500_000, 2_000_000, &ts);
            if let Some(f) = p.fault {
                assert!(f.bit < ts[f.target].width);
            }
        }
    }
}
