//! Architectural fault injection.
//!
//! Wires a gate-level component carrying an injected stuck-at fault into
//! the ISS datapath: every instruction that exercises the component while
//! the fault is active gets its result from the *faulty component* instead
//! of native arithmetic, so the fault's effect propagates through
//! architectural state exactly as it would in silicon — corrupted values
//! flow into registers, addresses, branches and, eventually, the self-test
//! signature. This end-to-end mode cross-validates the faster trace-replay
//! grading of `sbst-core`.
//!
//! A stuck-at on a result-port stem is evaluated from the behavioural
//! model with the faulty bit forced, the ALU's `zero` re-derived from a
//! forced `result` (the *port path*), when nothing else reads the net; any
//! other fault replays the faulty netlist's compiled tape (the *tape
//! path*). See [`ArchFault`].

use std::sync::Arc;

use sbst_components::alu::AluOp;
use sbst_components::multiplier::MulOp;
use sbst_components::shifter::ShiftOp;
use sbst_components::{alu, multiplier, shifter, Component, ComponentKind};
use sbst_gates::{CompiledTape, Fault, FaultSite, GateId, GateKind, NetId, Netlist, TapeSimulator};

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

    /// The first cycle at which [`FaultActivity::is_active`] holds, or
    /// `u64::MAX` when it never does. An intermittent fault is active at
    /// cycle 0 when its span wraps past a period boundary onto it;
    /// otherwise its first span opens at the phase.
    pub fn first_active_cycle(self) -> u64 {
        match self {
            FaultActivity::Permanent => 0,
            FaultActivity::Intermittent {
                active_cycles: 0, ..
            } => u64::MAX,
            FaultActivity::Intermittent { .. } if self.is_active(0) => 0,
            FaultActivity::Intermittent {
                period_cycles,
                phase_cycles,
                ..
            } => phase_cycles % period_cycles.max(1),
            FaultActivity::Window {
                from_cycle,
                until_cycle,
            } => {
                if from_cycle < until_cycle {
                    from_cycle
                } else {
                    u64::MAX
                }
            }
        }
    }
}

/// Slots in a mount's evaluation memo (a power of two).
const MEMO_SLOTS: usize = 1024;

/// Tag bit of an occupied memo slot. Packed operand keys never reach it,
/// so an all-zero key cannot hit a slot that was never written.
const MEMO_VALID: u128 = 1 << 127;

/// How a mount answered its evaluations. Every evaluation lands in
/// exactly one field: the port path, a tape replay or a memo hit.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EvalStats {
    /// Evaluations answered on the port path.
    pub port_evals: u64,
    /// Evaluations that replayed the faulty tape.
    pub tape_runs: u64,
    /// Evaluations answered by the tape path's memo.
    pub memo_hits: u64,
}

/// A datapath component prepared once for mounting faults into it.
///
/// Preparing compiles the component's [`CompiledTape`], resolves its
/// operand and result buses against it and decides which result-port
/// stems take the port path (see [`ArchFault`]). Every
/// [`ArchFault::from_shared`] over the same preparation is then a refcount
/// bump, a short lookup and the mount's own evaluator, so a campaign that
/// mounts many faults into one component pays for all three once.
#[derive(Debug)]
pub struct Mountable {
    component: Arc<Component>,
    target: ArchFaultTarget,
    tape: Arc<CompiledTape>,
    /// Input positions of each operand bus, LSB first, in the order the
    /// `eval_*` methods pass operands (ALU: `a`, `b`, `op`; shifter:
    /// `data`, `amount`, `op`; multiplier: `a`, `b`).
    operands: Vec<Vec<usize>>,
    /// Result nets, LSB first (ALU: `result` then `zero`; shifter:
    /// `result`; multiplier: the 64-bit `product`).
    results: Vec<NetId>,
    /// The result-word bits whose net's stem takes the port path.
    port_bits: u64,
}

impl Mountable {
    /// Prepares `component` for mounting.
    ///
    /// # Panics
    ///
    /// Panics if the component kind does not admit architectural mounting
    /// (only ALU, shifter and multiplier are datapath-replaceable), if the
    /// component is not full width (32-bit), or if it has flip-flops: the
    /// evaluation memo and the port path are exact only for a
    /// combinational component.
    pub fn new(component: Arc<Component>) -> Self {
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
        let tape = Arc::new(CompiledTape::compile(netlist));
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
                    .map(|&net| {
                        tape.input_position(net)
                            .expect("operand ports are primary inputs")
                    })
                    .collect()
            })
            .collect();
        let results: Vec<NetId> = result_ports
            .iter()
            .flat_map(|name| component.ports.output(name).iter().copied())
            .collect();
        // The behavioural model supplies the first result port; the ALU's
        // `zero` is re-derived from it, so a forced `result` bit may reach
        // the gates of its reduction and nothing else.
        let word_bits = component.ports.output(result_ports[0]).width();
        let reduction = match target {
            ArchFaultTarget::Alu => {
                zero_reduction(netlist, &results[..word_bits], results[word_bits])
            }
            _ => Some(Vec::new()),
        };
        let port_bits = results.iter().enumerate().fold(0, |bits, (bit, &net)| {
            let readers = if bit < word_bits {
                reduction.as_deref()
            } else {
                Some(&[][..])
            };
            let contained = readers.is_some_and(|gates| {
                netlist
                    .comb_users(net)
                    .iter()
                    .all(|gate| gates.contains(gate))
            });
            bits | u64::from(contained) << bit
        });
        Mountable {
            target,
            tape,
            operands,
            results,
            port_bits,
            component,
        }
    }

    /// The prepared component.
    pub fn component(&self) -> &Component {
        &self.component
    }
}

/// The gates of the ALU's `zero` flag logic when they compute what
/// [`alu::model`] does, `result == 0`: an inverter driving `zero` from an
/// OR tree whose leaves are exactly the `result` nets, with no net of the
/// tree and not `zero` itself read by any other gate. `None` otherwise.
fn zero_reduction(netlist: &Netlist, result: &[NetId], zero: NetId) -> Option<Vec<GateId>> {
    let inverter = netlist.driver(zero)?;
    let gate = netlist.gate(inverter);
    if gate.kind != GateKind::Not || !netlist.comb_users(zero).is_empty() {
        return None;
    }
    let mut gates = vec![inverter];
    let mut leaves = Vec::new();
    let mut pending = gate.inputs.clone();
    while let Some(net) = pending.pop() {
        if result.contains(&net) {
            leaves.push(net);
            continue;
        }
        let or = netlist.driver(net)?;
        let gate = netlist.gate(or);
        if gate.kind != GateKind::Or || netlist.comb_users(net).len() != 1 {
            return None;
        }
        gates.push(or);
        pending.extend(&gate.inputs);
    }
    let mut result = result.to_vec();
    for list in [&mut leaves, &mut result] {
        list.sort_unstable();
        list.dedup();
    }
    (leaves == result).then_some(gates)
}

/// How a mount evaluates its component.
#[derive(Debug)]
enum Evaluator {
    /// The behavioural result with the word bits of `mask` forced.
    Port { mask: u64 },
    /// A private one-lane simulator over the shared tape.
    Tape {
        sim: Box<TapeSimulator<Arc<CompiledTape>, 1>>,
        /// `(key | MEMO_VALID, result word)` per slot; empty until the
        /// first replay.
        memo: Vec<(u128, u64)>,
    },
}

/// A faulty component mounted in the datapath.
///
/// Mounting picks one of two evaluation paths from the fault site alone:
///
/// - **Port path.** A stuck-at on the stem of a result-port net that no
///   gate reads (shifter `result`, multiplier `product`, ALU `zero`) takes
///   this path, and so does an ALU `result` bit whose only readers are the
///   gates of the `zero` reduction, when [`Mountable::new`] found that
///   reduction to be an OR tree plus inverter over exactly the `result`
///   nets. An operation takes the fault-free word from the behavioural
///   model the ISS already calls and forces the faulty bits; when a
///   `result` bit was forced, the ALU re-derives `zero` as [`alu::model`]
///   does, `result == 0`. This is exact: the fault reaches no other net,
///   and the model computes what the fault-free netlist does. Such a mount
///   holds only the mask of the word bits to force.
/// - **Tape path.** Any other site, including every gate and pin inside
///   the `zero` reduction, gets a private one-lane [`TapeSimulator`] over
///   the shared [`CompiledTape`] with the fault injected. An operation
///   drives its operand bits by position, replays the tape once and reads
///   lane 0 of the result nets. The simulator recomputes every net from
///   the inputs on each replay, so nothing leaks from one operation into
///   the next.
///
///   Each tape-path mount also keeps a bounded, direct-mapped memo from
///   the packed operand words to the result word, so an operation whose
///   operands it has already evaluated skips the replay. The memo is
///   exact because the mountable components are combinational: the result
///   is a pure function of the operands and the fault, and both are fixed
///   for the mount's lifetime. It is allocated by the first replay, so a
///   mount whose fault never fires costs nothing, and it survives
///   [`ArchFault::with_activity`], so re-arming one mount for a retried
///   attempt keeps what earlier attempts evaluated.
///
/// [`ArchFault::eval_stats`] counts the evaluations on both paths.
#[derive(Debug)]
pub struct ArchFault {
    shared: Arc<Mountable>,
    fault: Fault,
    activity: FaultActivity,
    eval: Evaluator,
    stats: EvalStats,
}

impl ArchFault {
    /// Mounts `fault` inside `component` as a permanent fault, preparing
    /// the component for this mount alone. Campaigns that mount many
    /// faults into one component should prepare it once as a
    /// [`Mountable`] and use [`ArchFault::from_shared`].
    ///
    /// # Panics
    ///
    /// Panics under the contracts of [`Mountable::new`] and
    /// [`ArchFault::from_shared`].
    pub fn new(component: Component, fault: Fault) -> Self {
        Self::from_shared(&Arc::new(Mountable::new(Arc::new(component))), fault)
    }

    /// Mounts `fault` as a permanent fault inside a component prepared
    /// once and shared — the fleet path, where one characterization's
    /// components are mounted on many simulated nodes. Whether the fault
    /// takes the port path or the tape path is looked up here, from its
    /// site and what [`Mountable::new`] decided.
    ///
    /// # Panics
    ///
    /// Panics if the fault site lies outside the component's netlist (a
    /// net or gate index past its end, or a pin past its gate's inputs) —
    /// a fault drawn against another component's netlist is a caller bug,
    /// and mounting it silently would land it on an unrelated net or
    /// nowhere at all.
    pub fn from_shared(shared: &Arc<Mountable>, fault: Fault) -> Self {
        let netlist = &shared.component.netlist;
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
        // The word bits a stem carries; a port mount forces all of them.
        let mask = match fault.site {
            FaultSite::Stem(net) => shared
                .results
                .iter()
                .enumerate()
                .filter(|&(_, &n)| n == net)
                .fold(0, |mask, (bit, _)| mask | 1 << bit),
            FaultSite::Pin { .. } => 0,
        };
        let eval = if mask != 0 && mask & !shared.port_bits == 0 {
            Evaluator::Port { mask }
        } else {
            let mut sim = Box::new(TapeSimulator::new(Arc::clone(&shared.tape)));
            sim.inject_fault(&fault, 0);
            Evaluator::Tape {
                sim,
                memo: Vec::new(),
            }
        };
        ArchFault {
            shared: Arc::clone(shared),
            fault,
            activity: FaultActivity::Permanent,
            eval,
            stats: EvalStats::default(),
        }
    }

    /// Sets the fault's activity. The evaluator is kept, with a tape-path
    /// mount's memo, so a mount can be re-armed for another attempt.
    pub fn with_activity(mut self, activity: FaultActivity) -> Self {
        self.activity = activity;
        self
    }

    /// The mounted target.
    pub fn target(&self) -> ArchFaultTarget {
        self.shared.target
    }

    /// The injected fault.
    pub fn fault(&self) -> Fault {
        self.fault
    }

    /// Whether the fault manifests at the given CPU cycle.
    pub fn is_active(&self, cycle: u64) -> bool {
        self.activity.is_active(cycle)
    }

    /// The first CPU cycle at which the fault manifests, `u64::MAX` for
    /// never (see [`FaultActivity::first_active_cycle`]).
    pub fn first_active_cycle(&self) -> u64 {
        self.activity.first_active_cycle()
    }

    /// Whether this mount evaluates on the port path (see [`ArchFault`]).
    pub fn on_port_path(&self) -> bool {
        matches!(self.eval, Evaluator::Port { .. })
    }

    /// Evaluations so far over this mount's lifetime, by path.
    pub fn eval_stats(&self) -> EvalStats {
        self.stats
    }

    /// The result word for `operands`, LSB first. On the port path it is
    /// `good` (the fault-free word, from the behavioural model) with the
    /// mount's bits forced. On the tape path it comes from the memo when
    /// this mount has evaluated `operands` before, and otherwise from
    /// driving the operand buses, replaying the faulty tape and gathering
    /// the result nets.
    fn eval_ports(&mut self, operands: &[u32], good: impl FnOnce() -> u64) -> u64 {
        let (sim, memo) = match &mut self.eval {
            &mut Evaluator::Port { mask } => {
                self.stats.port_evals += 1;
                let good = good();
                return if self.fault.stuck_value {
                    good | mask
                } else {
                    good & !mask
                };
            }
            Evaluator::Tape { sim, memo } => (sim, memo),
        };
        let key = memo_key(operands);
        let slot = memo_slot(key);
        if let Some(&(tag, word)) = memo.get(slot) {
            if tag == key {
                self.stats.memo_hits += 1;
                return word;
            }
        }
        for (bus, &value) in self.shared.operands.iter().zip(operands) {
            for (bit, &pos) in bus.iter().enumerate() {
                sim.set_input_at(pos, (value >> bit) & 1 == 1);
            }
        }
        sim.eval();
        let word = self
            .shared
            .results
            .iter()
            .enumerate()
            .fold(0, |word, (bit, &net)| word | (sim.value(net)[0] & 1) << bit);
        if memo.is_empty() {
            *memo = vec![(0, 0); MEMO_SLOTS];
        }
        memo[slot] = (key, word);
        self.stats.tape_runs += 1;
        word
    }

    /// Evaluates an ALU operation through the faulty component.
    /// Returns `None` if the mounted component is not the ALU.
    pub fn eval_alu(&mut self, op: &AluOp) -> Option<(u32, bool)> {
        if self.target() != ArchFaultTarget::Alu {
            return None;
        }
        let word = self.eval_ports(&[op.a, op.b, op.func.encoding().into()], || {
            let (result, zero) = Self::good_alu(op);
            u64::from(result) | u64::from(zero) << 32
        });
        let result = word as u32;
        let zero = match self.eval {
            // A forced `result` bit reaches `zero` only through the
            // reduction, which `Mountable::new` checked computes
            // `result == 0`.
            Evaluator::Port { mask } if mask as u32 != 0 => result == 0,
            _ => (word >> 32) & 1 == 1,
        };
        Some((result, zero))
    }

    /// Evaluates a shift through the faulty component.
    pub fn eval_shift(&mut self, op: &ShiftOp) -> Option<u32> {
        if self.target() != ArchFaultTarget::Shifter {
            return None;
        }
        let word = self.eval_ports(
            &[op.data, op.amount.into(), op.func.encoding().into()],
            || shifter::model(op.func, op.data, op.amount, 32).into(),
        );
        Some(word as u32)
    }

    /// Evaluates a multiplication through the faulty component.
    pub fn eval_mul(&mut self, op: &MulOp) -> Option<u64> {
        if self.target() != ArchFaultTarget::Multiplier {
            return None;
        }
        Some(self.eval_ports(&[op.a, op.b], || Self::good_mul(op)))
    }

    /// Convenience: `AluFunc` reference evaluation with the fault-free
    /// model, used by tests comparing faulty vs good behaviour.
    pub fn good_alu(op: &AluOp) -> (u32, bool) {
        alu::model(op.func, op.a, op.b, 32)
    }

    /// Fault-free multiplier reference.
    pub fn good_mul(op: &MulOp) -> u64 {
        multiplier::model(op.a, op.b, 32)
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
    use sbst_gates::{Bus, NetlistBuilder, Simulator};

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

            /// The first active cycle is active, and a brute-force scan
            /// finds no active cycle before it — near zero, and just below
            /// it for first cycles far out in a saturated period. `u64::MAX`
            /// means the scan finds no active cycle at all.
            #[test]
            fn first_active_cycle_matches_a_scan(
                period in prop::sample::select(vec![
                    0u64, 1, 2, 3, 7, 97, 1 << 32,
                    u64::MAX / 2 + 3, u64::MAX - 1, u64::MAX,
                ]),
                active in 0u64..5,
                phase in prop::sample::select(vec![
                    0u64, 1, 2, 5, 96, 97, 1 << 40,
                    u64::MAX / 2, u64::MAX - 2, u64::MAX - 1, u64::MAX,
                ]),
                from in any::<u64>(),
                length in 0u64..4,
                window in any::<bool>(),
            ) {
                let activity = if window {
                    FaultActivity::Window {
                        from_cycle: from % 500,
                        until_cycle: (from % 500).saturating_add(length).saturating_sub(1),
                    }
                } else {
                    FaultActivity::Intermittent {
                        period_cycles: period,
                        active_cycles: active,
                        phase_cycles: phase,
                    }
                };
                let first = activity.first_active_cycle();
                let scan = |cycles: std::ops::Range<u64>| cycles.into_iter().find(|&c| activity.is_active(c));
                if first == u64::MAX {
                    prop_assert_eq!(scan(0..1000), None, "{:?}", activity);
                    prop_assert!(!activity.is_active(u64::MAX - 1), "{:?}", activity);
                } else {
                    prop_assert!(activity.is_active(first), "{:?} at {}", activity, first);
                    prop_assert_eq!(scan(0..first.min(1000)), None, "{:?}", activity);
                    prop_assert_eq!(scan(first.saturating_sub(1000)..first), None, "{:?}", activity);
                }
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

    /// A stuck-at on the first input of the gate driving ALU result bit
    /// `bit`: an internal site, so the mount takes the tape path.
    fn internal_alu_fault(c: &Component, bit: usize) -> Fault {
        let netlist = &c.netlist;
        let driver = netlist
            .driver(c.ports.output("result").net(bit))
            .expect("result bits are driven");
        Fault::stem_sa0(netlist.gate(driver).inputs[0])
    }

    /// The tape path's memo, whatever [`ArchFault`] holds.
    fn memo(af: &ArchFault) -> &[(u128, u64)] {
        match &af.eval {
            Evaluator::Tape { memo, .. } => memo,
            Evaluator::Port { .. } => panic!("{} took the port path", af.fault),
        }
    }

    #[test]
    fn memo_allocates_on_the_first_replay_and_answers_repeats() {
        let c = alu::alu(32);
        let fault = internal_alu_fault(&c, 3);
        let mut af = ArchFault::new(c, fault);
        assert!(!af.on_port_path());
        assert!(
            memo(&af).is_empty(),
            "a mount that never fired allocates nothing"
        );
        // Not the mounted component: no replay, no memo.
        assert!(af.eval_mul(&MulOp { a: 3, b: 5 }).is_none());
        assert!(memo(&af).is_empty());
        // The all-zero key must replay, not hit an empty slot.
        let zero = AluOp {
            func: AluFunc::ALL[0],
            a: 0,
            b: 0,
        };
        let first = af.eval_alu(&zero);
        assert_eq!(memo(&af).len(), MEMO_SLOTS);
        assert_eq!(
            af.eval_stats(),
            EvalStats {
                tape_runs: 1,
                ..EvalStats::default()
            }
        );
        let mut af = af.with_activity(FaultActivity::Window {
            from_cycle: 0,
            until_cycle: 10,
        });
        assert_eq!(af.eval_alu(&zero), first);
        assert_eq!(
            af.eval_stats(),
            EvalStats {
                tape_runs: 1,
                memo_hits: 1,
                ..EvalStats::default()
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
        // Operand bit `a[7]` stuck at 1: a primary input, so the tape path.
        let fault = Fault::stem_sa1(alu::alu(32).ports.input("a").net(7));
        let mut af = ArchFault::new(alu::alu(32), fault);
        let first = af.eval_alu(&op(0));
        let second = af.eval_alu(&op(rival));
        assert_eq!(af.eval_alu(&op(0)), first);
        assert_eq!(
            af.eval_stats(),
            EvalStats {
                tape_runs: 3,
                ..EvalStats::default()
            },
            "each key evicts the other from their shared slot"
        );
        let mut fresh = ArchFault::new(alu::alu(32), fault);
        assert_eq!(fresh.eval_alu(&op(rival)), second);
        assert_eq!(second, Some((rival | 1 << 7, false)));
    }

    #[test]
    fn output_port_faults_take_the_port_path() {
        for c in [
            alu::alu(32),
            shifter::shifter(32),
            multiplier::multiplier(32),
        ] {
            let shared = Arc::new(Mountable::new(Arc::new(c)));
            let c = shared.component();
            let (port, nets) = match c.kind {
                ComponentKind::Multiplier => ("product", 64),
                _ => ("result", 32),
            };
            for bit in 0..nets {
                let net = c.ports.output(port).net(bit);
                for fault in [Fault::stem_sa0(net), Fault::stem_sa1(net)] {
                    assert!(
                        ArchFault::from_shared(&shared, fault).on_port_path(),
                        "{fault}"
                    );
                }
            }
            // A primary-input stem reaches the whole component.
            let input = Fault::stem_sa1(c.netlist.inputs()[0]);
            assert!(!ArchFault::from_shared(&shared, input).on_port_path());
        }
        // The ALU's `zero` logic is an OR tree over 32 bits and the
        // inverter: `zero` itself takes the port path, every site inside
        // the reduction the tape path.
        let c = alu::alu(32);
        let (result, zero) = (c.ports.output("result"), c.ports.output("zero").net(0));
        let reduction = zero_reduction(&c.netlist, result.nets(), zero).unwrap();
        assert_eq!(reduction.len(), 32);
        let shared = Arc::new(Mountable::new(Arc::new(c)));
        assert!(ArchFault::from_shared(&shared, Fault::stem_sa0(zero)).on_port_path());
        let inverter = reduction[0];
        let root = shared.component().netlist.gate(inverter).inputs[0];
        let pin = Fault {
            site: FaultSite::Pin {
                gate: inverter,
                pin: 0,
            },
            stuck_value: true,
        };
        for fault in [pin, Fault::stem_sa1(root)] {
            assert!(!ArchFault::from_shared(&shared, fault).on_port_path());
        }
        let internal = internal_alu_fault(shared.component(), 0);
        assert!(!ArchFault::from_shared(&shared, internal).on_port_path());
    }

    /// A combinational ALU-shaped component whose `result` is `a ^ b`, so
    /// that the model agrees with it on `xor`, and whose `zero` is built
    /// by `zero_logic` from `result` and `a`. With `tap`, `result[0]` also
    /// feeds `result[1]`, which still carries `a[1] ^ b[1]`.
    fn xor_alu(
        tap: bool,
        zero_logic: impl FnOnce(&mut NetlistBuilder, &Bus, &Bus) -> NetId,
    ) -> Component {
        let mut b = NetlistBuilder::new("xor_alu");
        let a = b.input_bus("a", 32);
        let bb = b.input_bus("b", 32);
        let op = b.input_bus("op", 3);
        let mut result: Vec<NetId> = (0..32).map(|i| b.xor2(a.net(i), bb.net(i))).collect();
        if tap {
            let low = b.xor2(a.net(0), bb.net(0));
            let high = b.xor2(result[1], low);
            result[1] = b.xor2(result[0], high);
        }
        let result = Bus::new(result);
        let zero = zero_logic(&mut b, &result, &a);
        b.mark_output_bus(&result, "result");
        b.mark_output(zero, "zero");
        let mut ports = sbst_components::PortMap::new();
        ports.add_input("a", a);
        ports.add_input("b", bb);
        ports.add_input("op", op);
        ports.add_output("result", result);
        ports.add_output("zero", std::iter::once(zero).collect());
        Component {
            netlist: b.finish().unwrap(),
            ports,
            kind: ComponentKind::Alu,
            class: sbst_components::ComponentClass::DataVisible,
            width: 32,
            area_split: Vec::new(),
        }
    }

    /// Mounts both stems of every `result` and `zero` net of `c`, checks
    /// each against the full-eval simulator on `xor` operations and
    /// returns the word bits whose stems took the port path.
    fn checked_port_bits(c: Component) -> u64 {
        let shared = Arc::new(Mountable::new(Arc::new(c)));
        let c = shared.component();
        let (result, zero) = (c.ports.output("result"), c.ports.output("zero"));
        let words = (0..32)
            .map(|bit| 1u32 << bit)
            .chain([0, u32::MAX, 0x9E37_79B9]);
        let ops: Vec<AluOp> = words
            .flat_map(|a| [(a, 0), (a, 1), (a, 1 << 31)])
            .map(|(a, b)| AluOp {
                func: AluFunc::Xor,
                a,
                b,
            })
            .collect();
        let mut port_bits = 0;
        for (bit, &net) in result.iter().chain(zero.iter()).enumerate() {
            for fault in [Fault::stem_sa0(net), Fault::stem_sa1(net)] {
                let mut mounted = ArchFault::from_shared(&shared, fault);
                port_bits |= u64::from(mounted.on_port_path()) << bit;
                for op in &ops {
                    let mut sim = Simulator::new(&c.netlist);
                    sim.inject_fault(&fault, 1);
                    sim.set_bus(c.ports.input("a"), op.a.into());
                    sim.set_bus(c.ports.input("b"), op.b.into());
                    sim.eval();
                    let expected = (sim.bus_value(result) as u32, sim.bus_value(zero) & 1 == 1);
                    assert_eq!(mounted.eval_alu(op), Some(expected), "{fault} on {op:?}");
                }
            }
        }
        port_bits
    }

    #[test]
    fn result_stems_reaching_other_logic_take_the_tape_path() {
        let zero_bit = 1 << 32;
        let or_tree = |b: &mut NetlistBuilder, result: &Bus, _: &Bus| {
            let any = b.reduce_or(result);
            b.not(any)
        };
        // The model's reduction: every result bit but the tapped one.
        assert_eq!(
            checked_port_bits(xor_alu(true, or_tree)),
            !1 & 0x1_FFFF_FFFF
        );
        assert_eq!(checked_port_bits(xor_alu(false, or_tree)), 0x1_FFFF_FFFF);
        // An AND tree, and an OR tree with `a[0]` in place of
        // `result[31]`: `zero` is no longer `result == 0`, so only its own
        // stems take the port path.
        let and_tree = |b: &mut NetlistBuilder, result: &Bus, _: &Bus| {
            let all = b.reduce_and(result);
            b.not(all)
        };
        assert_eq!(checked_port_bits(xor_alu(false, and_tree)), zero_bit);
        let foreign_leaf = |b: &mut NetlistBuilder, result: &Bus, a: &Bus| {
            let leaves: Bus = result.iter().take(31).chain([&a.net(0)]).copied().collect();
            let any = b.reduce_or(&leaves);
            b.not(any)
        };
        assert_eq!(checked_port_bits(xor_alu(false, foreign_leaf)), zero_bit);
    }

    #[test]
    fn port_path_rederives_the_zero_flag() {
        let c = alu::alu(32);
        let result = c.ports.output("result");
        let (bit5_sa1, bit5_sa0) = (
            Fault::stem_sa1(result.net(5)),
            Fault::stem_sa0(result.net(5)),
        );
        let shared = Arc::new(Mountable::new(Arc::new(c)));
        let add = |a, b| AluOp {
            func: AluFunc::Add,
            a,
            b,
        };
        // A zero result gains bit 5, so the flag drops.
        let mut sa1 = ArchFault::from_shared(&shared, bit5_sa1);
        assert_eq!(sa1.eval_alu(&add(0, 0)), Some((1 << 5, false)));
        // Bit 5 alone, cleared: the result becomes zero and the flag rises.
        let mut sa0 = ArchFault::from_shared(&shared, bit5_sa0);
        assert_eq!(sa0.eval_alu(&add(1 << 5, 0)), Some((0, true)));
        assert_eq!(sa0.eval_alu(&add(3, 4)), Some((7, false)));
        assert_eq!(
            sa0.eval_stats(),
            EvalStats {
                port_evals: 2,
                ..EvalStats::default()
            }
        );
        assert!(matches!(sa0.eval, Evaluator::Port { .. }));
    }

    #[test]
    fn first_active_cycle_of_each_activity() {
        assert_eq!(FaultActivity::Permanent.first_active_cycle(), 0);
        let window = |from_cycle, until_cycle| FaultActivity::Window {
            from_cycle,
            until_cycle,
        };
        assert_eq!(window(100, 150).first_active_cycle(), 100);
        assert_eq!(window(150, 150).first_active_cycle(), u64::MAX);
        assert_eq!(window(200, 150).first_active_cycle(), u64::MAX);
        assert_eq!(window(u64::MAX, u64::MAX).first_active_cycle(), u64::MAX);
        let intermittent = |period_cycles, active_cycles, phase_cycles| {
            FaultActivity::Intermittent {
                period_cycles,
                active_cycles,
                phase_cycles,
            }
            .first_active_cycle()
        };
        assert_eq!(intermittent(100, 10, 30), 30);
        assert_eq!(intermittent(100, 10, 130), 30);
        assert_eq!(intermittent(100, 10, 0), 0);
        // The span that opened at 95 covers cycles 0..5 of the next period.
        assert_eq!(intermittent(100, 10, 95), 0);
        assert_eq!(intermittent(100, 0, 30), u64::MAX);
        assert_eq!(intermittent(0, 1, 5), 0);
    }

    #[test]
    #[should_panic(expected = "cannot be architecturally mounted")]
    fn regfile_not_mountable() {
        let c = sbst_components::regfile::regfile(32, 32);
        let fault = Fault::stem_sa0(c.netlist.outputs()[0]);
        let _ = ArchFault::new(c, fault);
    }
}
