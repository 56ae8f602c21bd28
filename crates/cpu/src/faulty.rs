//! Architectural fault injection.
//!
//! Wires a gate-level component carrying an injected stuck-at fault into
//! the ISS datapath: every instruction that exercises the component gets
//! its result from the *faulty netlist* instead of native arithmetic, so
//! the fault's effect propagates through architectural state exactly as it
//! would in silicon — corrupted values flow into registers, addresses,
//! branches and, eventually, the self-test signature. This end-to-end mode
//! cross-validates the faster trace-replay grading of `sbst-core`.

use std::sync::Arc;

use sbst_components::alu::AluOp;
use sbst_components::multiplier::MulOp;
use sbst_components::shifter::ShiftOp;
use sbst_components::{Component, ComponentKind};
use sbst_gates::{CompiledTape, Fault, FaultSite, NetId, TapeSimulator};

/// Which datapath component the fault lives in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArchFaultTarget {
    /// The ALU (also covers address generation and branch comparison).
    Alu,
    /// The barrel shifter (also covers `lui`).
    Shifter,
    /// The parallel multiplier array.
    Multiplier,
}

/// Temporal behaviour of a mounted fault, following the paper's operational
/// fault taxonomy: permanent faults "exist indefinitely", intermittent
/// faults "appear at regular time intervals".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultActivity {
    /// Always active.
    Permanent,
    /// Active for `active_cycles` out of every `period_cycles`, starting at
    /// `phase_cycles` into each period.
    Intermittent {
        /// Repetition period in CPU cycles.
        period_cycles: u64,
        /// Active span per period.
        active_cycles: u64,
        /// Offset of the active span within the period.
        phase_cycles: u64,
    },
    /// Active exactly once, during `from_cycle..until_cycle` — a transient
    /// disturbance (particle strike, supply glitch) that never recurs. The
    /// on-line test manager's retry loop classifies such faults transient:
    /// the mismatch is not reproduced once the window has passed.
    Window {
        /// First active cycle.
        from_cycle: u64,
        /// First cycle after the active span.
        until_cycle: u64,
    },
}

impl FaultActivity {
    /// Translates an activity defined against a *global* clock into the
    /// local cycle frame of a CPU starting at global time `now_cycles`.
    ///
    /// [`crate::cpu::Cpu`] evaluates [`FaultActivity::is_active`] against
    /// its own cycle counter, which restarts at zero for every mounted
    /// program; a test bench that plans fault windows in the manager's
    /// virtual time (the `now_cycles` its `prepare` receives) must rebase
    /// them before mounting. Returns `None` when the activity can never
    /// manifest again (a window already fully in the past) so callers can
    /// skip mounting entirely.
    pub fn rebase(self, now_cycles: u64) -> Option<FaultActivity> {
        match self {
            FaultActivity::Permanent => Some(FaultActivity::Permanent),
            FaultActivity::Intermittent {
                period_cycles,
                active_cycles,
                phase_cycles,
            } => {
                // Normalize the phase into `0..period` *before* any
                // addition: `phase_cycles + period_cycles` overflows u64
                // for phases planned near the end of a saturated virtual
                // clock. With both operands reduced, the subtraction form
                // below stays in `0..period` and cannot wrap.
                let period = period_cycles.max(1);
                let offset = now_cycles % period;
                let phase = phase_cycles % period;
                let rebased = if phase >= offset {
                    phase - offset
                } else {
                    phase + (period - offset)
                };
                Some(FaultActivity::Intermittent {
                    period_cycles,
                    active_cycles,
                    phase_cycles: rebased,
                })
            }
            FaultActivity::Window {
                from_cycle,
                until_cycle,
            } => {
                if until_cycle <= now_cycles {
                    return None;
                }
                Some(FaultActivity::Window {
                    from_cycle: from_cycle.saturating_sub(now_cycles),
                    until_cycle: if until_cycle == u64::MAX {
                        u64::MAX
                    } else {
                        until_cycle - now_cycles
                    },
                })
            }
        }
    }

    /// Whether the fault manifests at the given cycle.
    pub fn is_active(self, cycle: u64) -> bool {
        match self {
            FaultActivity::Permanent => true,
            FaultActivity::Intermittent {
                period_cycles,
                active_cycles,
                phase_cycles,
            } => {
                // Same discipline as `rebase`: reduce first, then subtract
                // within `0..period` — `cycle + period_cycles` overflows
                // for cycles near `u64::MAX`, and a zero period would
                // panic the `%` before `.max(1)` was applied to it.
                let period = period_cycles.max(1);
                let pos = cycle % period;
                let phase = phase_cycles % period;
                let t = if pos >= phase {
                    pos - phase
                } else {
                    pos + (period - phase)
                };
                t < active_cycles
            }
            FaultActivity::Window {
                from_cycle,
                until_cycle,
            } => (from_cycle..until_cycle).contains(&cycle),
        }
    }
}

/// A faulty component mounted in the datapath.
///
/// The component runs on a [`CompiledTape`] shared behind an [`Arc`]: a
/// fault campaign compiles each mountable component once, and mounting is
/// a refcount bump plus a private one-lane [`TapeSimulator`] with the fault
/// injected and the port buses resolved to input positions and result
/// nets. Each operation then drives its operand bits by position, replays
/// the tape once and reads lane 0 of the result nets. The tape simulator
/// recomputes every net from the inputs on each replay (the mountable
/// components are combinational), so nothing leaks from one operation
/// into the next.
#[derive(Debug)]
pub struct ArchFault {
    target: ArchFaultTarget,
    fault: Fault,
    activity: FaultActivity,
    sim: TapeSimulator<Arc<CompiledTape>, 1>,
    /// Input positions of each operand bus, LSB first, in the order the
    /// `eval_*` methods pass operands (ALU: `a`, `b`, `op`; shifter:
    /// `data`, `amount`, `op`; multiplier: `a`, `b`).
    operands: Vec<Vec<usize>>,
    /// Result nets, LSB first (ALU: `result` then `zero`; shifter:
    /// `result`; multiplier: the 64-bit `product`).
    results: Vec<NetId>,
}

impl ArchFault {
    /// Mounts `fault` inside `component` as a permanent fault, compiling
    /// the component's tape for this mount alone. Campaigns that mount
    /// many faults into one component should compile its tape once and
    /// use [`ArchFault::from_shared`].
    ///
    /// # Panics
    ///
    /// Panics if the component kind does not admit architectural mounting
    /// (only ALU, shifter and multiplier are datapath-replaceable), if the
    /// component is not full width (32-bit), or if the fault site lies
    /// outside `component`'s netlist (a net or gate index past its end, or
    /// a pin past its gate's inputs) — a fault drawn against another
    /// component's netlist is a caller bug, and mounting it silently would
    /// land it on an unrelated net or nowhere at all.
    pub fn new(component: Component, fault: Fault) -> Self {
        let tape = Arc::new(CompiledTape::compile(&component.netlist));
        Self::from_shared(&component, tape, fault)
    }

    /// [`ArchFault::new`] over a tape compiled once from `component`'s
    /// netlist and shared — the fleet path, where one characterization's
    /// tapes are mounted on many simulated nodes without recompiling.
    ///
    /// # Panics
    ///
    /// Same contract as [`ArchFault::new`], and additionally panics if
    /// `tape` was not compiled from `component`'s netlist.
    pub fn from_shared(component: &Component, tape: Arc<CompiledTape>, fault: Fault) -> Self {
        let (target, operand_ports, result_ports): (_, &[&str], &[&str]) = match component.kind {
            ComponentKind::Alu => (ArchFaultTarget::Alu, &["a", "b", "op"], &["result", "zero"]),
            ComponentKind::Shifter => (
                ArchFaultTarget::Shifter,
                &["data", "amount", "op"],
                &["result"],
            ),
            ComponentKind::Multiplier => (ArchFaultTarget::Multiplier, &["a", "b"], &["product"]),
            other => panic!("component {other} cannot be architecturally mounted"),
        };
        assert_eq!(component.width, 32, "architectural mounting needs width 32");
        let netlist = &component.netlist;
        let inside = match fault.site {
            FaultSite::Stem(net) => net.index() < netlist.net_count(),
            FaultSite::Pin { gate, pin } => netlist
                .gates()
                .get(gate.index())
                .is_some_and(|g| usize::from(pin) < g.inputs.len()),
        };
        assert!(
            inside,
            "fault {fault} lies outside the {} netlist",
            netlist.name()
        );
        let foreign =
            || -> ! { panic!("tape was not compiled from the {} netlist", netlist.name()) };
        if tape.net_count() != netlist.net_count() {
            foreign();
        }
        let operands = operand_ports
            .iter()
            .map(|name| {
                component
                    .ports
                    .input(name)
                    .iter()
                    .map(|&net| tape.input_position(net).unwrap_or_else(|| foreign()))
                    .collect()
            })
            .collect();
        let results = result_ports
            .iter()
            .flat_map(|name| component.ports.output(name).iter().copied())
            .collect();
        let mut sim = TapeSimulator::new(tape);
        sim.inject_fault(&fault, 0);
        ArchFault {
            target,
            fault,
            activity: FaultActivity::Permanent,
            sim,
            operands,
            results,
        }
    }

    /// Gives the fault intermittent activity.
    pub fn with_activity(mut self, activity: FaultActivity) -> Self {
        self.activity = activity;
        self
    }

    /// The mounted target.
    pub fn target(&self) -> ArchFaultTarget {
        self.target
    }

    /// The injected fault.
    pub fn fault(&self) -> Fault {
        self.fault
    }

    /// Whether the fault manifests at the given CPU cycle.
    pub fn is_active(&self, cycle: u64) -> bool {
        self.activity.is_active(cycle)
    }

    /// Drives the operand buses, replays the faulty tape and gathers the
    /// result nets into one word, LSB first.
    fn eval_ports(&mut self, operands: &[u64]) -> u64 {
        for (bus, &value) in self.operands.iter().zip(operands) {
            for (bit, &pos) in bus.iter().enumerate() {
                self.sim.set_input_at(pos, (value >> bit) & 1 == 1);
            }
        }
        self.sim.eval();
        self.results
            .iter()
            .enumerate()
            .fold(0, |word, (bit, &net)| {
                word | (self.sim.value(net)[0] & 1) << bit
            })
    }

    /// Evaluates an ALU operation through the faulty netlist.
    /// Returns `None` if the mounted component is not the ALU.
    pub fn eval_alu(&mut self, op: &AluOp) -> Option<(u32, bool)> {
        if self.target != ArchFaultTarget::Alu {
            return None;
        }
        let word = self.eval_ports(&[op.a as u64, op.b as u64, op.func.encoding() as u64]);
        Some((word as u32, (word >> 32) & 1 == 1))
    }

    /// Evaluates a shift through the faulty netlist.
    pub fn eval_shift(&mut self, op: &ShiftOp) -> Option<u32> {
        if self.target != ArchFaultTarget::Shifter {
            return None;
        }
        let word = self.eval_ports(&[op.data as u64, op.amount as u64, op.func.encoding() as u64]);
        Some(word as u32)
    }

    /// Evaluates a multiplication through the faulty netlist.
    pub fn eval_mul(&mut self, op: &MulOp) -> Option<u64> {
        if self.target != ArchFaultTarget::Multiplier {
            return None;
        }
        Some(self.eval_ports(&[op.a as u64, op.b as u64]))
    }

    /// Convenience: `AluFunc` reference evaluation with the fault-free
    /// model, used by tests comparing faulty vs good behaviour.
    pub fn good_alu(op: &AluOp) -> (u32, bool) {
        sbst_components::alu::model(op.func, op.a, op.b, 32)
    }

    /// Fault-free shifter reference.
    pub fn good_shift(op: &ShiftOp) -> u32 {
        sbst_components::shifter::model(op.func, op.data, op.amount, 32)
    }

    /// Fault-free multiplier reference.
    pub fn good_mul(op: &MulOp) -> u64 {
        sbst_components::multiplier::model(op.a, op.b, 32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbst_components::alu::AluFunc;
    use sbst_components::shifter::ShiftFunc;
    use sbst_components::{alu, multiplier, shifter};

    #[test]
    fn faulty_alu_differs_somewhere() {
        let c = alu::alu(32);
        let fault = Fault::stem_sa0(c.ports.output("result").net(0));
        let mut af = ArchFault::new(c, fault);
        let op = AluOp {
            func: AluFunc::Add,
            a: 1,
            b: 0,
        };
        let (faulty, _) = af.eval_alu(&op).unwrap();
        assert_ne!(faulty, ArchFault::good_alu(&op).0);
    }

    #[test]
    fn fault_free_paths_agree_with_models() {
        // A fault on an unused function's logic must not disturb others:
        // inject into the zero flag reduction and check add still works.
        let c = alu::alu(32);
        let zero_net = c.ports.output("zero").net(0);
        let mut af = ArchFault::new(c, Fault::stem_sa1(zero_net));
        let op = AluOp {
            func: AluFunc::Add,
            a: 123,
            b: 456,
        };
        let (result, zero) = af.eval_alu(&op).unwrap();
        assert_eq!(result, 579);
        assert!(zero); // the injected fault forces the flag
    }

    #[test]
    fn mismatched_target_returns_none() {
        let c = shifter::shifter(32);
        let fault = Fault::stem_sa0(c.ports.output("result").net(5));
        let mut af = ArchFault::new(c, fault);
        assert!(af
            .eval_alu(&AluOp {
                func: AluFunc::And,
                a: 0,
                b: 0
            })
            .is_none());
        assert!(af
            .eval_shift(&ShiftOp {
                func: ShiftFunc::Sll,
                data: 0xFFFF_FFFF,
                amount: 0
            })
            .is_some());
    }

    #[test]
    fn faulty_multiplier_corrupts_product() {
        let c = multiplier::multiplier(32);
        let fault = Fault::stem_sa1(c.ports.output("product").net(0));
        let mut af = ArchFault::new(c, fault);
        let op = MulOp { a: 2, b: 2 };
        assert_ne!(af.eval_mul(&op).unwrap(), ArchFault::good_mul(&op));
    }

    #[test]
    fn rebase_translates_windows_into_the_local_frame() {
        let w = FaultActivity::Window {
            from_cycle: 1000,
            until_cycle: 1500,
        };
        // Before the window: it sits in the future of the local frame.
        assert_eq!(
            w.rebase(200),
            Some(FaultActivity::Window {
                from_cycle: 800,
                until_cycle: 1300,
            })
        );
        // Inside the window: active from local cycle 0.
        assert_eq!(
            w.rebase(1200),
            Some(FaultActivity::Window {
                from_cycle: 0,
                until_cycle: 300,
            })
        );
        // Fully in the past: never mounts again.
        assert_eq!(w.rebase(1500), None);
        assert_eq!(w.rebase(u64::MAX), None);
        // Open-ended wear-out windows stay open-ended.
        let wear = FaultActivity::Window {
            from_cycle: 5000,
            until_cycle: u64::MAX,
        };
        assert_eq!(
            wear.rebase(6000),
            Some(FaultActivity::Window {
                from_cycle: 0,
                until_cycle: u64::MAX,
            })
        );
        assert_eq!(
            FaultActivity::Permanent.rebase(42),
            Some(FaultActivity::Permanent)
        );
    }

    #[test]
    fn rebase_keeps_intermittent_cadence_aligned() {
        let i = FaultActivity::Intermittent {
            period_cycles: 100,
            active_cycles: 10,
            phase_cycles: 30,
        };
        // The rebased activity must agree with the global one at every
        // global cycle reachable by a CPU started at `now`.
        for now in [0u64, 7, 30, 99, 130, 250] {
            let local = i.rebase(now).unwrap();
            for delta in 0..300 {
                assert_eq!(
                    local.is_active(delta),
                    i.is_active(now + delta),
                    "now={now} delta={delta}"
                );
            }
        }
    }

    #[test]
    fn rebase_and_activity_survive_extreme_parameters() {
        // Regression: the old rebase computed `phase + period - offset`
        // before reducing, which wraps u64 for phases near the end of a
        // saturated clock; the old is_active added `cycle + period` the
        // same way and divided by a raw zero period.
        let i = FaultActivity::Intermittent {
            period_cycles: u64::MAX - 1,
            active_cycles: 10,
            phase_cycles: u64::MAX - 2,
        };
        let local = i.rebase(u64::MAX - 4).unwrap();
        match local {
            FaultActivity::Intermittent { phase_cycles, .. } => {
                assert!(phase_cycles < u64::MAX - 1, "phase left 0..period");
                // now sits 2 cycles before the phase start.
                assert_eq!(phase_cycles, 2);
            }
            other => panic!("rebase changed the variant: {other:?}"),
        }
        assert!(!local.is_active(0));
        assert!(local.is_active(2));
        assert!(local.is_active(11));
        assert!(!local.is_active(12));
        // is_active itself must not wrap at the top of the clock.
        assert!(!i.is_active(u64::MAX - 3));
        assert!(i.is_active(u64::MAX - 2));
        // A degenerate zero period behaves as period 1 (always the same
        // cycle of the period) instead of panicking on `% 0`.
        let z = FaultActivity::Intermittent {
            period_cycles: 0,
            active_cycles: 1,
            phase_cycles: 5,
        };
        assert!(z.is_active(0));
        assert!(z.is_active(u64::MAX));
        assert!(z.rebase(123).is_some());
    }

    #[test]
    fn window_activity_fires_once() {
        let w = FaultActivity::Window {
            from_cycle: 100,
            until_cycle: 150,
        };
        assert!(!w.is_active(99));
        assert!(w.is_active(100));
        assert!(w.is_active(149));
        assert!(!w.is_active(150));
        assert!(!w.is_active(1_000_000));
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            /// The rebased local activity agrees with the global one at
            /// every reachable global cycle — with periods, phases and
            /// start times drawn right up to `u64::MAX`, where the old
            /// `phase + period - offset` / `cycle + period` forms wrapped.
            #[test]
            fn rebase_agrees_with_global_clock(
                period in prop::sample::select(vec![
                    0u64, 1, 2, 3, 97, 1 << 32,
                    u64::MAX / 2 + 3, u64::MAX - 1, u64::MAX,
                ]),
                active in 0u64..5,
                phase in any::<u64>(),
                now_seed in any::<u64>(),
                delta in 0u64..200,
            ) {
                let now = now_seed % (u64::MAX - 200);
                let global = FaultActivity::Intermittent {
                    period_cycles: period,
                    active_cycles: active,
                    phase_cycles: phase,
                };
                let local = global.rebase(now).unwrap();
                prop_assert_eq!(local.is_active(delta), global.is_active(now + delta));
            }
        }
    }

    #[test]
    #[should_panic(expected = "lies outside the")]
    fn fault_from_another_netlist_is_refused() {
        // The multiplier's last product bit sits far past the end of the
        // ALU netlist.
        let mul = multiplier::multiplier(32);
        let product = mul.ports.output("product");
        let fault = Fault::stem_sa0(product.net(product.width() - 1));
        let alu = alu::alu(32);
        assert!(product.net(product.width() - 1).index() >= alu.netlist.net_count());
        let _ = ArchFault::new(alu, fault);
    }

    #[test]
    #[should_panic(expected = "tape was not compiled from the")]
    fn tape_of_another_component_is_refused() {
        let alu = alu::alu(32);
        let shifter_tape = Arc::new(CompiledTape::compile(&shifter::shifter(32).netlist));
        let fault = Fault::stem_sa0(alu.ports.output("result").net(0));
        let _ = ArchFault::from_shared(&alu, shifter_tape, fault);
    }

    #[test]
    #[should_panic(expected = "cannot be architecturally mounted")]
    fn regfile_not_mountable() {
        let c = sbst_components::regfile::regfile(32, 32);
        let fault = Fault::stem_sa0(c.netlist.outputs()[0]);
        let _ = ArchFault::new(c, fault);
    }
}
