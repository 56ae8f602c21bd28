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

/// Slots in a mount's evaluation memo (a power of two).
const MEMO_SLOTS: usize = 1024;

/// Tag bit of an occupied memo slot. Packed operand keys never reach it,
/// so an all-zero key cannot hit a slot that was never written.
const MEMO_VALID: u128 = 1 << 127;

/// How a mount answered its evaluations: replays of the faulty tape
/// against lookups answered by its memo.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoStats {
    /// Evaluations that replayed the tape.
    pub tape_runs: u64,
    /// Evaluations answered by the memo.
    pub hits: u64,
}

/// A faulty component mounted in the datapath.
///
/// The component runs on a [`CompiledTape`] shared behind an [`Arc`]: a
/// fault campaign compiles each mountable component once, and mounting is
/// a refcount bump plus a private one-lane [`TapeSimulator`] with the fault
/// injected and the port buses resolved to input positions and result
/// nets. An operation drives its operand bits by position, replays the
/// tape once and reads lane 0 of the result nets. The tape simulator
/// recomputes every net from the inputs on each replay, so nothing leaks
/// from one operation into the next.
///
/// Each mount also keeps a bounded, direct-mapped memo from the packed
/// operand words to the result word, so an operation whose operands it
/// has already evaluated skips the replay. The memo is exact because the
/// mountable components are combinational (mounting asserts that the tape
/// has no flip-flops): the result is a pure function of the operands and
/// the fault, and both are fixed for the mount's lifetime. It is allocated
/// by the first replay, so a mount whose fault never fires costs nothing,
/// and it survives [`ArchFault::with_activity`], so re-arming one mount for
/// a retried attempt keeps what earlier attempts evaluated.
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
    /// `(key | MEMO_VALID, result word)` per slot; empty until the first
    /// replay.
    memo: Vec<(u128, u64)>,
    stats: MemoStats,
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
    /// `tape` was not compiled from `component`'s netlist, or if the tape
    /// has flip-flops: the evaluation memo is exact only for a
    /// combinational component.
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
        assert!(
            tape.is_combinational(),
            "the {} tape has flip-flops; only combinational components can be mounted",
            netlist.name()
        );
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
            memo: Vec::new(),
            stats: MemoStats::default(),
        }
    }

    /// Gives the fault intermittent activity. The evaluation memo is kept,
    /// so a mount can be re-armed for another attempt.
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

    /// Replays and memo hits so far over this mount's lifetime.
    pub fn memo_stats(&self) -> MemoStats {
        self.stats
    }

    /// The result word for `operands`: from the memo when this mount has
    /// evaluated them before, otherwise by driving the operand buses,
    /// replaying the faulty tape and gathering the result nets into one
    /// word, LSB first.
    fn eval_ports(&mut self, operands: &[u32]) -> u64 {
        let key = memo_key(operands);
        let slot = memo_slot(key);
        if let Some(&(tag, word)) = self.memo.get(slot) {
            if tag == key {
                self.stats.hits += 1;
                return word;
            }
        }
        for (bus, &value) in self.operands.iter().zip(operands) {
            for (bit, &pos) in bus.iter().enumerate() {
                self.sim.set_input_at(pos, (value >> bit) & 1 == 1);
            }
        }
        self.sim.eval();
        let word = self
            .results
            .iter()
            .enumerate()
            .fold(0, |word, (bit, &net)| {
                word | (self.sim.value(net)[0] & 1) << bit
            });
        if self.memo.is_empty() {
            self.memo = vec![(0, 0); MEMO_SLOTS];
        }
        self.memo[slot] = (key, word);
        self.stats.tape_runs += 1;
        word
    }

    /// Evaluates an ALU operation through the faulty netlist.
    /// Returns `None` if the mounted component is not the ALU.
    pub fn eval_alu(&mut self, op: &AluOp) -> Option<(u32, bool)> {
        if self.target != ArchFaultTarget::Alu {
            return None;
        }
        let word = self.eval_ports(&[op.a, op.b, op.func.encoding().into()]);
        Some((word as u32, (word >> 32) & 1 == 1))
    }

    /// Evaluates a shift through the faulty netlist.
    pub fn eval_shift(&mut self, op: &ShiftOp) -> Option<u32> {
        if self.target != ArchFaultTarget::Shifter {
            return None;
        }
        let word = self.eval_ports(&[op.data, op.amount.into(), op.func.encoding().into()]);
        Some(word as u32)
    }

    /// Evaluates a multiplication through the faulty netlist.
    pub fn eval_mul(&mut self, op: &MulOp) -> Option<u64> {
        if self.target != ArchFaultTarget::Multiplier {
            return None;
        }
        Some(self.eval_ports(&[op.a, op.b]))
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

/// The memo key of one evaluation: the operand words packed 32 bits apart
/// (`a | b << 32 | op << 64`), tagged with [`MEMO_VALID`].
fn memo_key(operands: &[u32]) -> u128 {
    operands
        .iter()
        .enumerate()
        .fold(MEMO_VALID, |key, (i, &value)| {
            key | u128::from(value) << (32 * i)
        })
}

/// The memo slot of a packed operand key: both halves folded into one
/// word, then a Fibonacci hash down to the slot index.
fn memo_slot(key: u128) -> usize {
    const PHI: u64 = 0x9E37_79B9_7F4A_7C15;
    let folded = (key as u64) ^ ((key >> 64) as u64).wrapping_mul(PHI);
    (folded.wrapping_mul(PHI) >> (64 - MEMO_SLOTS.trailing_zeros())) as usize
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
    #[should_panic(expected = "tape has flip-flops")]
    fn sequential_component_is_refused() {
        // An ALU-shaped component whose outputs are registered: its result
        // depends on state as well as on the operands, which the memo
        // cannot key on.
        let mut b = sbst_gates::NetlistBuilder::new("registered_alu");
        let a = b.input_bus("a", 32);
        let bb = b.input_bus("b", 32);
        let op = b.input_bus("op", 3);
        let sum = b.bus_op(sbst_gates::GateKind::Xor, &a, &bb);
        let result = b.bus_dff(&sum);
        let zero = b.dff(op.net(0));
        b.mark_output_bus(&result, "result");
        b.mark_output(zero, "zero");
        let netlist = b.finish().unwrap();
        let mut ports = sbst_components::PortMap::new();
        ports.add_input("a", a.clone());
        ports.add_input("b", bb);
        ports.add_input("op", op);
        ports.add_output("result", result);
        ports.add_output("zero", std::iter::once(zero).collect());
        let component = Component {
            netlist,
            ports,
            kind: ComponentKind::Alu,
            class: sbst_components::ComponentClass::DataVisible,
            width: 32,
            area_split: Vec::new(),
        };
        let _ = ArchFault::new(component, Fault::stem_sa0(a.net(0)));
    }

    #[test]
    fn memo_allocates_on_the_first_replay_and_answers_repeats() {
        let c = alu::alu(32);
        let fault = Fault::stem_sa0(c.ports.output("result").net(3));
        let mut af = ArchFault::new(c, fault);
        assert!(
            af.memo.is_empty(),
            "a mount that never fired allocates nothing"
        );
        // Not the mounted component: no replay, no memo.
        assert!(af.eval_mul(&MulOp { a: 3, b: 5 }).is_none());
        assert!(af.memo.is_empty());
        // The all-zero key must replay, not hit an empty slot.
        let zero = AluOp {
            func: AluFunc::ALL[0],
            a: 0,
            b: 0,
        };
        let first = af.eval_alu(&zero);
        assert_eq!(af.memo.len(), MEMO_SLOTS);
        assert_eq!(
            af.memo_stats(),
            MemoStats {
                tape_runs: 1,
                hits: 0
            }
        );
        let mut af = af.with_activity(FaultActivity::Window {
            from_cycle: 0,
            until_cycle: 10,
        });
        assert_eq!(af.eval_alu(&zero), first);
        assert_eq!(
            af.memo_stats(),
            MemoStats {
                tape_runs: 1,
                hits: 1
            }
        );
    }

    #[test]
    fn colliding_keys_evict_each_other_and_replay() {
        let op = |a| AluOp {
            func: AluFunc::Add,
            a,
            b: 0,
        };
        let slot = |a| memo_slot(memo_key(&[a, 0, AluFunc::Add.encoding().into()]));
        let rival = (1..).find(|&a| slot(a) == slot(0)).unwrap();
        let fault = Fault::stem_sa1(alu::alu(32).ports.output("result").net(7));
        let mut af = ArchFault::new(alu::alu(32), fault);
        let first = af.eval_alu(&op(0));
        let second = af.eval_alu(&op(rival));
        assert_eq!(af.eval_alu(&op(0)), first);
        assert_eq!(
            af.memo_stats(),
            MemoStats {
                tape_runs: 3,
                hits: 0
            },
            "each key evicts the other from their shared slot"
        );
        let mut fresh = ArchFault::new(alu::alu(32), fault);
        assert_eq!(fresh.eval_alu(&op(rival)), second);
        assert_eq!(second, Some((rival | 1 << 7, false)));
    }

    #[test]
    #[should_panic(expected = "cannot be architecturally mounted")]
    fn regfile_not_mountable() {
        let c = sbst_components::regfile::regfile(32, 32);
        let fault = Fault::stem_sa0(c.netlist.outputs()[0]);
        let _ = ArchFault::new(c, fault);
    }
}
