//! Differential oracle for architectural fault injection: a mounted
//! [`ArchFault`] evaluates on a shared compiled tape with one lane, and it
//! must agree with a fresh full-eval [`Simulator`] carrying the same fault
//! on every operation. Covered: the 32-bit ALU, shifter and multiplier,
//! under collapsed stem, pin and primary-input stem faults, with many
//! operations per mount so that nothing one operation leaves in the tape
//! simulator can leak into the next.
//!
//! The `*_memo_*` properties draw operands from a small pool, so that
//! operations repeat, and re-arm one mount across several simulated
//! attempts the way a fleet session retries a routine. Every operation is
//! checked against the oracle, and the mount's [`MemoStats`] must show
//! that the memo answered some of them.

use std::sync::{Arc, OnceLock};

use proptest::prelude::*;
use sbst_components::alu::{AluFunc, AluOp};
use sbst_components::multiplier::MulOp;
use sbst_components::shifter::{ShiftFunc, ShiftOp};
use sbst_components::{alu, multiplier, shifter, Component};
use sbst_cpu::{ArchFault, FaultActivity, MemoStats};
use sbst_gates::{CompiledTape, Fault, FaultSite, Simulator};

/// A component compiled once per test binary, with its collapsed fault
/// list split by site kind.
struct Mountable {
    component: Component,
    tape: Arc<CompiledTape>,
    /// `[gate-output stems, pins, primary-input stems]`.
    faults: [Vec<Fault>; 3],
}

impl Mountable {
    fn new(component: Component) -> Self {
        let netlist = &component.netlist;
        let mut faults: [Vec<Fault>; 3] = Default::default();
        for fault in netlist.collapsed_faults() {
            let kind = match fault.site {
                FaultSite::Stem(net) if netlist.driver(net).is_some() => 0,
                FaultSite::Pin { .. } => 1,
                FaultSite::Stem(_) => 2,
            };
            faults[kind].push(fault);
        }
        for (kind, list) in faults.iter().enumerate() {
            assert!(
                !list.is_empty(),
                "{}: no faults of kind {kind}",
                netlist.name()
            );
        }
        Mountable {
            tape: Arc::new(CompiledTape::compile(netlist)),
            component,
            faults,
        }
    }

    /// The fault of `kind` picked by `pick`, mounted on the shared tape.
    fn mount(&self, kind: usize, pick: u64) -> (Fault, ArchFault) {
        let list = &self.faults[kind];
        let fault = list[(pick % list.len() as u64) as usize];
        let mounted = ArchFault::from_shared(&self.component, Arc::clone(&self.tape), fault);
        (fault, mounted)
    }

    /// A fresh full-eval simulator with `fault` in lane 0, driven with
    /// `inputs` (port name, value) and evaluated.
    fn oracle(&self, fault: &Fault, inputs: &[(&str, u32)]) -> Simulator<'_> {
        let mut sim = Simulator::new(&self.component.netlist);
        sim.inject_fault(fault, 1);
        for &(port, value) in inputs {
            sim.set_bus(self.component.ports.input(port), value.into());
        }
        sim.eval();
        sim
    }
}

fn alu32() -> &'static Mountable {
    static CELL: OnceLock<Mountable> = OnceLock::new();
    CELL.get_or_init(|| Mountable::new(alu::alu(32)))
}

fn shifter32() -> &'static Mountable {
    static CELL: OnceLock<Mountable> = OnceLock::new();
    CELL.get_or_init(|| Mountable::new(shifter::shifter(32)))
}

fn multiplier32() -> &'static Mountable {
    static CELL: OnceLock<Mountable> = OnceLock::new();
    CELL.get_or_init(|| Mountable::new(multiplier::multiplier(32)))
}

/// The oracle's ALU result and zero flag for `op` under `fault`.
fn expected_alu(fault: &Fault, op: &AluOp) -> Option<(u32, bool)> {
    let m = alu32();
    let ports = &m.component.ports;
    let sim = m.oracle(
        fault,
        &[("a", op.a), ("b", op.b), ("op", op.func.encoding().into())],
    );
    Some((
        sim.bus_value(ports.output("result")) as u32,
        sim.bus_value(ports.output("zero")) & 1 == 1,
    ))
}

/// The oracle's shifter result for `op` under `fault`.
fn expected_shift(fault: &Fault, op: &ShiftOp) -> Option<u32> {
    let m = shifter32();
    let sim = m.oracle(
        fault,
        &[
            ("data", op.data),
            ("amount", op.amount.into()),
            ("op", op.func.encoding().into()),
        ],
    );
    Some(sim.bus_value(m.component.ports.output("result")) as u32)
}

/// The oracle's product for `op` under `fault`.
fn expected_mul(fault: &Fault, op: &MulOp) -> Option<u64> {
    let m = multiplier32();
    let sim = m.oracle(fault, &[("a", op.a), ("b", op.b)]);
    Some(sim.bus_value(m.component.ports.output("product")))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn alu_tape_mount_matches_simulator(
        kind in 0usize..3,
        pick in any::<u64>(),
        ops in prop::collection::vec((0usize..8, any::<u32>(), any::<u32>()), 16..32),
    ) {
        let (fault, mut mounted) = alu32().mount(kind, pick);
        for &(func, a, b) in &ops {
            let op = AluOp { func: AluFunc::ALL[func], a, b };
            prop_assert_eq!(
                mounted.eval_alu(&op),
                expected_alu(&fault, &op),
                "{} on {:?}", fault, op
            );
        }
    }

    #[test]
    fn shifter_tape_mount_matches_simulator(
        kind in 0usize..3,
        pick in any::<u64>(),
        ops in prop::collection::vec((0usize..3, any::<u32>(), 0u8..32), 16..32),
    ) {
        let (fault, mut mounted) = shifter32().mount(kind, pick);
        for &(func, data, amount) in &ops {
            let op = ShiftOp { func: ShiftFunc::ALL[func], data, amount };
            prop_assert_eq!(
                mounted.eval_shift(&op),
                expected_shift(&fault, &op),
                "{} on {:?}", fault, op
            );
        }
    }

    #[test]
    fn multiplier_tape_mount_matches_simulator(
        kind in 0usize..3,
        pick in any::<u64>(),
        ops in prop::collection::vec((any::<u32>(), any::<u32>()), 16..32),
    ) {
        let (fault, mut mounted) = multiplier32().mount(kind, pick);
        for &(a, b) in &ops {
            let op = MulOp { a, b };
            prop_assert_eq!(
                mounted.eval_mul(&op),
                expected_mul(&fault, &op),
                "{} on {}*{}", fault, a, b
            );
        }
    }
}

/// Re-arms `mounted` for simulated attempt `attempt`: a window opening at a
/// different local cycle each time, as the fleet rebases one planned
/// window into every attempt's frame. The memo must survive it.
fn rearm(mounted: ArchFault, attempt: u64) -> ArchFault {
    let mounted = mounted.with_activity(FaultActivity::Window {
        from_cycle: attempt,
        until_cycle: attempt + 1,
    });
    assert!(mounted.is_active(attempt) && !mounted.is_active(attempt + 1));
    mounted
}

/// Every evaluation was either replayed or answered by the memo, and the
/// memo answered at least one — attempts after the first repeat the first
/// one's operations, so a memo that never hits is broken.
fn assert_memo_hit(stats: MemoStats, evaluations: usize) -> Result<(), TestCaseError> {
    prop_assert_eq!(stats.tape_runs + stats.hits, evaluations as u64);
    prop_assert!(stats.hits > 0, "the memo never hit: {:?}", stats);
    Ok(())
}

// Each operation is also evaluated on a fresh mount of the same fault,
// whose first evaluation always replays the tape: memoized, unmemoized
// and the oracle must all agree.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn alu_memo_matches_simulator_across_attempts(
        kind in 0usize..3,
        pick in any::<u64>(),
        pool in prop::collection::vec(any::<u32>(), 2..6),
        ops in prop::collection::vec((0usize..8, any::<usize>(), any::<usize>()), 8..16),
        attempts in 2u64..4,
    ) {
        let (fault, mut mounted) = alu32().mount(kind, pick);
        for attempt in 0..attempts {
            mounted = rearm(mounted, attempt);
            for &(func, i, j) in &ops {
                let (a, b) = (pool[i % pool.len()], pool[j % pool.len()]);
                let op = AluOp { func: AluFunc::ALL[func], a, b };
                let expected = expected_alu(&fault, &op);
                let unmemoized = alu32().mount(kind, pick).1.eval_alu(&op);
                prop_assert_eq!(unmemoized, expected, "unmemoized {} on {:?}", fault, op);
                let memoized = mounted.eval_alu(&op);
                prop_assert_eq!(memoized, expected, "memoized {} on {:?}", fault, op);
            }
        }
        assert_memo_hit(mounted.memo_stats(), ops.len() * attempts as usize)?;
    }

    #[test]
    fn shifter_memo_matches_simulator_across_attempts(
        kind in 0usize..3,
        pick in any::<u64>(),
        pool in prop::collection::vec(any::<u32>(), 2..6),
        ops in prop::collection::vec((0usize..3, any::<usize>(), any::<usize>()), 8..16),
        attempts in 2u64..4,
    ) {
        let (fault, mut mounted) = shifter32().mount(kind, pick);
        for attempt in 0..attempts {
            mounted = rearm(mounted, attempt);
            for &(func, i, j) in &ops {
                let data = pool[i % pool.len()];
                let amount = (pool[j % pool.len()] % 32) as u8;
                let op = ShiftOp { func: ShiftFunc::ALL[func], data, amount };
                let expected = expected_shift(&fault, &op);
                let unmemoized = shifter32().mount(kind, pick).1.eval_shift(&op);
                prop_assert_eq!(unmemoized, expected, "unmemoized {} on {:?}", fault, op);
                let memoized = mounted.eval_shift(&op);
                prop_assert_eq!(memoized, expected, "memoized {} on {:?}", fault, op);
            }
        }
        assert_memo_hit(mounted.memo_stats(), ops.len() * attempts as usize)?;
    }

    #[test]
    fn multiplier_memo_matches_simulator_across_attempts(
        kind in 0usize..3,
        pick in any::<u64>(),
        pool in prop::collection::vec(any::<u32>(), 2..6),
        ops in prop::collection::vec((any::<usize>(), any::<usize>()), 8..16),
        attempts in 2u64..4,
    ) {
        let (fault, mut mounted) = multiplier32().mount(kind, pick);
        for attempt in 0..attempts {
            mounted = rearm(mounted, attempt);
            for &(i, j) in &ops {
                let op = MulOp { a: pool[i % pool.len()], b: pool[j % pool.len()] };
                let expected = expected_mul(&fault, &op);
                let unmemoized = multiplier32().mount(kind, pick).1.eval_mul(&op);
                prop_assert_eq!(unmemoized, expected, "unmemoized {} on {:?}", fault, op);
                let memoized = mounted.eval_mul(&op);
                prop_assert_eq!(memoized, expected, "memoized {} on {:?}", fault, op);
            }
        }
        assert_memo_hit(mounted.memo_stats(), ops.len() * attempts as usize)?;
    }
}

/// More distinct operations than the memo has slots, evaluated twice: the
/// second pass must replay the ones their slot lost to a colliding key and
/// still agree with the oracle.
#[test]
fn evicted_alu_operations_replay_correctly() {
    let (fault, mut mounted) = alu32().mount(0, 7);
    let ops: Vec<AluOp> = (0..1200u32)
        .map(|k| AluOp {
            func: AluFunc::ALL[(k % 8) as usize],
            a: k.wrapping_mul(0x9E37_79B9),
            b: k ^ 0x5A5A,
        })
        .collect();
    for pass in 0..2 {
        for op in &ops {
            assert_eq!(
                mounted.eval_alu(op),
                expected_alu(&fault, op),
                "pass {pass}: {op:?}"
            );
        }
    }
    let stats = mounted.memo_stats();
    assert_eq!(stats.tape_runs + stats.hits, 2 * ops.len() as u64);
    assert!(stats.hits > 0, "{stats:?}");
    assert!(
        stats.tape_runs > ops.len() as u64,
        "1200 keys in 1024 slots must evict some: {stats:?}"
    );
}
