//! Fault models (single-stuck-at and gross transition-delay) and
//! equivalence collapsing.

use std::fmt;

use crate::gate::{GateId, GateKind};
use crate::net::NetId;
use crate::netlist::Netlist;

/// Which fault model a grading run targets.
///
/// Stuck-at is the paper's model; transition delay (slow-to-rise /
/// slow-to-fall, the gross-delay "one cycle late" abstraction) needs
/// two-pattern launch/capture tests and is graded by
/// [`crate::FaultSimulator::simulate_transition`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum FaultModel {
    /// Single stuck-at faults on stems and pins (equivalence-collapsed).
    #[default]
    StuckAt,
    /// Gross transition-delay faults: slow-to-rise / slow-to-fall per net
    /// stem, detected by a launch/capture pattern pair.
    TransitionDelay,
}

impl FaultModel {
    /// Stable lower-case name for flags, logs and JSON.
    pub fn name(&self) -> &'static str {
        match self {
            FaultModel::StuckAt => "stuck-at",
            FaultModel::TransitionDelay => "transition",
        }
    }

    /// Parses a model name as accepted by `--fault-model`:
    /// `stuck-at`/`stuck_at`/`sa` or `transition`/`transition-delay`/`td`
    /// (case-insensitive).
    pub fn from_name(name: &str) -> Option<Self> {
        match name.trim().to_ascii_lowercase().as_str() {
            "stuck-at" | "stuck_at" | "stuckat" | "sa" => Some(FaultModel::StuckAt),
            "transition" | "transition-delay" | "transition_delay" | "td" => {
                Some(FaultModel::TransitionDelay)
            }
            _ => None,
        }
    }
}

impl fmt::Display for FaultModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A gross transition-delay fault on a net stem.
///
/// Under the gross-delay model the affected transition arrives one full
/// clock cycle late: a slow-to-rise net that computes `0 → 1` across
/// consecutive evaluations still presents its old `0` for the cycle in
/// which the rise should have appeared (and symmetrically for
/// slow-to-fall). Detection therefore needs a *pattern pair*: an
/// initialization pattern establishing the net at its initial value,
/// then a capture pattern that both launches the transition and
/// propagates the (late) value to an observed output — i.e. a stuck-at
/// test for the initial value whose predecessor set the net to that
/// initial value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TransitionFault {
    /// The net whose driving transition is slow.
    pub net: NetId,
    /// `true` for slow-to-rise (`0 → 1` late), `false` for slow-to-fall.
    pub slow_to_rise: bool,
}

impl TransitionFault {
    /// Slow-to-rise on a net stem.
    pub fn slow_to_rise(net: NetId) -> Self {
        TransitionFault {
            net,
            slow_to_rise: true,
        }
    }

    /// Slow-to-fall on a net stem.
    pub fn slow_to_fall(net: NetId) -> Self {
        TransitionFault {
            net,
            slow_to_rise: false,
        }
    }

    /// Human-readable description using the netlist's net names.
    pub fn describe(&self, netlist: &Netlist) -> String {
        let name = netlist
            .net_name(self.net)
            .map(str::to_owned)
            .unwrap_or_else(|| self.net.to_string());
        let kind = if self.slow_to_rise {
            "slow-to-rise"
        } else {
            "slow-to-fall"
        };
        format!("{name} {kind}")
    }
}

impl fmt::Display for TransitionFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let kind = if self.slow_to_rise {
            "slow-to-rise"
        } else {
            "slow-to-fall"
        };
        write!(f, "{} {kind}", self.net)
    }
}

/// Enumerates the transition-delay fault list: slow-to-rise and
/// slow-to-fall on every net stem.
///
/// Transition faults live on stems only — under the gross-delay model a
/// branch-pin delay is equivalent to the stem delay for detection
/// purposes (the late value propagates through every branch the capture
/// pattern sensitizes), so the per-pin sites the stuck-at model needs
/// collapse away structurally.
pub fn enumerate_transition_faults(netlist: &Netlist) -> Vec<TransitionFault> {
    let mut faults = Vec::with_capacity(netlist.net_count() * 2);
    for idx in 0..netlist.net_count() {
        let net = crate::net::NetId::from_index(idx);
        faults.push(TransitionFault::slow_to_rise(net));
        faults.push(TransitionFault::slow_to_fall(net));
    }
    faults
}

/// Location of a stuck-at fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum FaultSite {
    /// The stem of a net: the driving gate's output (or a primary input).
    /// Affects every fan-out branch.
    Stem(NetId),
    /// A single gate input pin (a fan-out branch).
    Pin {
        /// Gate whose input pin is faulty.
        gate: GateId,
        /// Positional pin index within the gate's inputs.
        pin: u8,
    },
}

/// A single stuck-at fault: a [`FaultSite`] tied to 0 or 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Fault {
    /// Where the fault is injected.
    pub site: FaultSite,
    /// `false` for stuck-at-0, `true` for stuck-at-1.
    pub stuck_value: bool,
}

impl Fault {
    /// Stuck-at-0 on a net stem.
    pub fn stem_sa0(net: NetId) -> Self {
        Fault {
            site: FaultSite::Stem(net),
            stuck_value: false,
        }
    }

    /// Stuck-at-1 on a net stem.
    pub fn stem_sa1(net: NetId) -> Self {
        Fault {
            site: FaultSite::Stem(net),
            stuck_value: true,
        }
    }

    /// Human-readable description using the netlist's net names.
    pub fn describe(&self, netlist: &Netlist) -> String {
        let value = if self.stuck_value { 1 } else { 0 };
        match self.site {
            FaultSite::Stem(net) => {
                let name = netlist
                    .net_name(net)
                    .map(str::to_owned)
                    .unwrap_or_else(|| net.to_string());
                format!("{name} s-a-{value}")
            }
            FaultSite::Pin { gate, pin } => {
                let g = netlist.gate(gate);
                let src = g.inputs[pin as usize];
                let name = netlist
                    .net_name(src)
                    .map(str::to_owned)
                    .unwrap_or_else(|| src.to_string());
                format!("{gate}({}).pin{pin}<-{name} s-a-{value}", g.kind)
            }
        }
    }
}

impl fmt::Display for Fault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let value = if self.stuck_value { 1 } else { 0 };
        match self.site {
            FaultSite::Stem(net) => write!(f, "{net} s-a-{value}"),
            FaultSite::Pin { gate, pin } => write!(f, "{gate}.pin{pin} s-a-{value}"),
        }
    }
}

/// Enumerates the complete (uncollapsed) fault list: both stuck values on
/// every net stem and every gate input pin.
pub fn enumerate_faults(netlist: &Netlist) -> Vec<Fault> {
    let mut faults = Vec::new();
    for idx in 0..netlist.net_count() {
        let net = crate::net::NetId::from_index(idx);
        faults.push(Fault::stem_sa0(net));
        faults.push(Fault::stem_sa1(net));
    }
    for (gidx, gate) in netlist.gates().iter().enumerate() {
        let gid = GateId::from_index(gidx);
        for pin in 0..gate.inputs.len() {
            for stuck in [false, true] {
                faults.push(Fault {
                    site: FaultSite::Pin {
                        gate: gid,
                        pin: pin as u8,
                    },
                    stuck_value: stuck,
                });
            }
        }
    }
    faults
}

/// Collapses a fault list using standard structural equivalences.
///
/// Rules applied (each removes a fault equivalent to one that is kept):
///
/// - a pin fault on a fan-out-free net is equivalent to the stem fault of
///   the driving net;
/// - a controlling-value input fault of a simple gate is equivalent to the
///   gate's output fault (`AND`/`NAND` input s-a-0, `OR`/`NOR` input s-a-1);
/// - both input faults of `BUF`/`NOT`/`DFF` are equivalent to output faults.
///
/// Fault coverage throughout this workspace is reported against the
/// collapsed list, as is conventional.
pub fn collapse_faults(netlist: &Netlist, faults: &[Fault]) -> Vec<Fault> {
    faults
        .iter()
        .copied()
        .filter(|fault| match fault.site {
            FaultSite::Stem(_) => true,
            FaultSite::Pin { gate, pin } => {
                let g = netlist.gate(gate);
                let kind = g.kind;
                // Single-input cells: pin faults are equivalent to (possibly
                // inverted) output stem faults.
                if matches!(kind, GateKind::Buf | GateKind::Not | GateKind::Dff) {
                    return false;
                }
                // Controlling-value equivalence.
                let equivalent_to_output = match kind {
                    GateKind::And | GateKind::Nand => !fault.stuck_value,
                    GateKind::Or | GateKind::Nor => fault.stuck_value,
                    _ => false,
                };
                if equivalent_to_output {
                    return false;
                }
                // Fan-out-free branch is the same site as the stem.
                let src = g.inputs[pin as usize];
                netlist.fanout(src) > 1
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netlist::NetlistBuilder;

    fn and_with_fanout() -> Netlist {
        // a -> and, a -> or (fanout 2); b fan-out-free into and.
        let mut b = NetlistBuilder::new("t");
        let a = b.input("a");
        let c = b.input("b");
        let x = b.and2(a, c);
        let y = b.or2(a, x);
        b.mark_output(y, "y");
        b.finish().unwrap()
    }

    #[test]
    fn enumerate_counts() {
        let n = and_with_fanout();
        // nets: a, b, x, y = 4 stems * 2 = 8; pins: and(2) + or(2) = 4 * 2 = 8.
        assert_eq!(enumerate_faults(&n).len(), 16);
    }

    #[test]
    fn collapse_drops_equivalents() {
        let n = and_with_fanout();
        let collapsed = collapse_faults(&n, &enumerate_faults(&n));
        // Kept: 8 stem faults.
        // AND pins: s-a-0 dropped (controlling). s-a-1 on pin from `a`
        // (fanout 2) kept; s-a-1 on pin from `b` (fanout 1) dropped.
        // OR pins: s-a-1 dropped (controlling). s-a-0 on pin from `a`
        // (fanout 2) kept; s-a-0 on pin from `x` (fanout 1) dropped.
        assert_eq!(collapsed.len(), 10);
        // All stem faults retained.
        assert!(
            collapsed
                .iter()
                .filter(|f| matches!(f.site, FaultSite::Stem(_)))
                .count()
                == 8
        );
    }

    #[test]
    fn buffer_pins_always_collapse() {
        let mut b = NetlistBuilder::new("t");
        let a = b.input("a");
        let x = b.gate(GateKind::Buf, &[a]);
        let y = b.gate(GateKind::Not, &[a]);
        b.mark_output(x, "x");
        b.mark_output(y, "y");
        let n = b.finish().unwrap();
        let collapsed = collapse_faults(&n, &enumerate_faults(&n));
        assert!(collapsed
            .iter()
            .all(|f| matches!(f.site, FaultSite::Stem(_))));
    }

    #[test]
    fn describe_uses_names() {
        let n = and_with_fanout();
        let f = Fault::stem_sa1(n.inputs()[0]);
        assert_eq!(f.describe(&n), "a s-a-1");
        let net = n.inputs()[0];
        assert_eq!(
            TransitionFault::slow_to_rise(net).describe(&n),
            "a slow-to-rise"
        );
        assert_eq!(
            TransitionFault::slow_to_fall(net).describe(&n),
            "a slow-to-fall"
        );
    }

    #[test]
    fn transition_enumeration_covers_every_stem_twice() {
        let n = and_with_fanout();
        let faults = enumerate_transition_faults(&n);
        assert_eq!(faults.len(), n.net_count() * 2);
        for idx in 0..n.net_count() {
            let net = crate::net::NetId::from_index(idx);
            assert!(faults.contains(&TransitionFault::slow_to_rise(net)));
            assert!(faults.contains(&TransitionFault::slow_to_fall(net)));
        }
    }

    #[test]
    fn fault_model_names_round_trip() {
        for model in [FaultModel::StuckAt, FaultModel::TransitionDelay] {
            assert_eq!(FaultModel::from_name(model.name()), Some(model));
        }
        assert_eq!(FaultModel::from_name("sa"), Some(FaultModel::StuckAt));
        assert_eq!(
            FaultModel::from_name("Transition-Delay"),
            Some(FaultModel::TransitionDelay)
        );
        assert_eq!(FaultModel::from_name("bridging"), None);
        assert_eq!(FaultModel::default(), FaultModel::StuckAt);
    }

    #[test]
    fn xor_pins_kept_when_fanout() {
        let mut b = NetlistBuilder::new("t");
        let a = b.input("a");
        let c = b.input("b");
        let x = b.xor2(a, c);
        let y = b.xor2(a, x);
        b.mark_output(y, "y");
        let n = b.finish().unwrap();
        let collapsed = collapse_faults(&n, &enumerate_faults(&n));
        // XOR has no controlling value: branch pins on `a` (fanout 2) keep
        // both faults.
        let pin_faults = collapsed
            .iter()
            .filter(|f| matches!(f.site, FaultSite::Pin { .. }))
            .count();
        assert_eq!(pin_faults, 4); // two xor gates each keep pin 0 (from a), 2 values
    }
}
