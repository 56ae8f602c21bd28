//! Differential oracle for architectural fault injection: a mounted
//! [`ArchFault`] must agree with a fresh full-eval [`Simulator`] carrying
//! the same fault on every operation. Covered: the 32-bit ALU, shifter and
//! multiplier, under collapsed stem, pin and primary-input stem faults on
//! the tape path, with many operations per mount so that nothing one
//! operation leaves in the tape simulator can leak into the next, and
//! every fault the port path accepts and every site of the ALU's `zero`
//! reduction, on operations that drive the result to zero and to a single
//! set bit.
//!
//! The `*_memo_*` properties draw operands from a small pool, so that
//! operations repeat, and re-arm one tape-path mount across several
//! simulated attempts the way a fleet session retries a routine. Every
//! operation is checked against the oracle, and the mount's [`EvalStats`]
//! must show that the memo answered some of them.

use std::sync::{Arc, OnceLock};

use proptest::prelude::*;
use sbst_components::alu::{AluFunc, AluOp};
use sbst_components::multiplier::MulOp;
use sbst_components::shifter::{ShiftFunc, ShiftOp};
use sbst_components::{alu, multiplier, shifter, Component};
use sbst_cpu::{ArchFault, EvalStats, FaultActivity, Mountable};
use sbst_gates::{Fault, FaultSite, Simulator};

/// Index of the port-path faults in [`Fixture::faults`].
const PORT: usize = 3;

/// A component prepared once per test binary, with its faults split by
/// evaluation path and site kind.
struct Fixture {
    shared: Arc<Mountable>,
    /// Tape path: `[gate-output stems, pins, primary-input stems]` of the
    /// collapsed list. Port path (`PORT`): every fault of the uncollapsed
    /// list whose mount takes it, plus both stems of every result bit.
    faults: [Vec<Fault>; 4],
}

impl Fixture {
    fn new(component: Component) -> Self {
        let shared = Arc::new(Mountable::new(Arc::new(component)));
        let component = shared.component();
        let netlist = &component.netlist;
        let on_port_path = |fault: &Fault| ArchFault::from_shared(&shared, *fault).on_port_path();
        let mut faults: [Vec<Fault>; 4] = Default::default();
        for fault in netlist.collapsed_faults() {
            if on_port_path(&fault) {
                continue;
            }
            let kind = match fault.site {
                FaultSite::Stem(net) if netlist.driver(net).is_some() => 0,
                FaultSite::Pin { .. } => 1,
                FaultSite::Stem(_) => 2,
            };
            faults[kind].push(fault);
        }
        let result_stems = component.ports.outputs().flat_map(|(_, bus)| {
            bus.iter()
                .flat_map(|&net| [Fault::stem_sa0(net), Fault::stem_sa1(net)])
                .collect::<Vec<_>>()
        });
        for fault in result_stems.chain(netlist.all_faults()) {
            if on_port_path(&fault) && !faults[PORT].contains(&fault) {
                faults[PORT].push(fault);
            }
        }
        for (kind, list) in faults.iter().enumerate() {
            assert!(
                !list.is_empty(),
                "{}: no faults of kind {kind}",
                netlist.name()
            );
        }
        Fixture { shared, faults }
    }

    fn component(&self) -> &Component {
        self.shared.component()
    }

    /// The fault of `kind` picked by `pick`, mounted on the shared
    /// preparation.
    fn mount(&self, kind: usize, pick: u64) -> (Fault, ArchFault) {
        let list = &self.faults[kind];
        let fault = list[(pick % list.len() as u64) as usize];
        let mounted = ArchFault::from_shared(&self.shared, fault);
        assert_eq!(mounted.on_port_path(), kind == PORT, "{fault}");
        (fault, mounted)
    }

    /// A fresh full-eval simulator with `fault` in lane 0, driven with
    /// `inputs` (port name, value) and evaluated.
    fn oracle(&self, fault: &Fault, inputs: &[(&str, u32)]) -> Simulator<'_> {
        let component = self.component();
        let mut sim = Simulator::new(&component.netlist);
        sim.inject_fault(fault, 1);
        for &(port, value) in inputs {
            sim.set_bus(component.ports.input(port), value.into());
        }
        sim.eval();
        sim
    }
}

fn alu32() -> &'static Fixture {
    static CELL: OnceLock<Fixture> = OnceLock::new();
    CELL.get_or_init(|| Fixture::new(alu::alu(32)))
}

fn shifter32() -> &'static Fixture {
    static CELL: OnceLock<Fixture> = OnceLock::new();
    CELL.get_or_init(|| Fixture::new(shifter::shifter(32)))
}

fn multiplier32() -> &'static Fixture {
    static CELL: OnceLock<Fixture> = OnceLock::new();
    CELL.get_or_init(|| Fixture::new(multiplier::multiplier(32)))
}

/// The oracle's ALU result and zero flag for `op` under `fault`.
fn expected_alu(fault: &Fault, op: &AluOp) -> Option<(u32, bool)> {
    let m = alu32();
    let ports = &m.component().ports;
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
    Some(sim.bus_value(m.component().ports.output("result")) as u32)
}

/// The oracle's product for `op` under `fault`.
fn expected_mul(fault: &Fault, op: &MulOp) -> Option<u64> {
    let m = multiplier32();
    let sim = m.oracle(fault, &[("a", op.a), ("b", op.b)]);
    Some(sim.bus_value(m.component().ports.output("product")))
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
fn assert_memo_hit(stats: EvalStats, evaluations: usize) -> Result<(), TestCaseError> {
    prop_assert_eq!(stats.port_evals, 0);
    prop_assert_eq!(stats.tape_runs + stats.memo_hits, evaluations as u64);
    prop_assert!(stats.memo_hits > 0, "the memo never hit: {:?}", stats);
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
        assert_memo_hit(mounted.eval_stats(), ops.len() * attempts as usize)?;
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
        assert_memo_hit(mounted.eval_stats(), ops.len() * attempts as usize)?;
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
        assert_memo_hit(mounted.eval_stats(), ops.len() * attempts as usize)?;
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
    let stats = mounted.eval_stats();
    assert_eq!(stats.tape_runs + stats.memo_hits, 2 * ops.len() as u64);
    assert!(stats.memo_hits > 0, "{stats:?}");
    assert!(
        stats.tape_runs > ops.len() as u64,
        "1200 keys in 1024 slots must evict some: {stats:?}"
    );
}

/// ALU operations whose result is zero, a single set bit, all ones or an
/// arbitrary word, under every function.
fn alu_port_ops() -> Vec<AluOp> {
    let op = |func, a, b| AluOp { func, a, b };
    let mut ops = vec![
        op(AluFunc::Add, 0, 0),
        op(AluFunc::Sub, 0x1234_5678, 0x1234_5678),
        op(AluFunc::And, 0xFFFF_0000, 0x0000_FFFF),
        op(AluFunc::Xor, 0xDEAD_BEEF, 0xDEAD_BEEF),
        op(AluFunc::Nor, u32::MAX, 0),
        op(AluFunc::Slt, 5, 3),
        op(AluFunc::Sltu, 1, 1),
        op(AluFunc::Slt, 3, 5),
        op(AluFunc::Or, 0, u32::MAX),
        op(AluFunc::Add, 0x9E37_79B9, 0x7F4A_7C15),
    ];
    for bit in 0..32 {
        ops.push(op(AluFunc::Or, 1 << bit, 0));
        ops.push(op(AluFunc::Add, 1 << bit, 0));
        ops.push(op(
            AluFunc::ALL[bit % 8],
            (1u32 << bit).wrapping_mul(0x0101_0101),
            !(1 << bit),
        ));
    }
    ops
}

/// Shifts whose result is zero, a single set bit, all ones or an arbitrary
/// word, under every function.
fn shifter_port_ops() -> Vec<ShiftOp> {
    let op = |func, data, amount| ShiftOp { func, data, amount };
    let mut ops = vec![
        op(ShiftFunc::Sll, 0, 3),
        op(ShiftFunc::Srl, 1, 1),
        op(ShiftFunc::Sra, u32::MAX, 31),
        op(ShiftFunc::Sra, 0x8000_0000, 7),
        op(ShiftFunc::Srl, 0xDEAD_BEEF, 0),
    ];
    for amount in 0..32 {
        ops.push(op(ShiftFunc::Sll, 1, amount));
        ops.push(op(ShiftFunc::Srl, 0x8000_0000, amount));
        ops.push(op(
            ShiftFunc::ALL[usize::from(amount) % 3],
            0x9E37_79B9,
            amount,
        ));
    }
    ops
}

/// Products that are zero, a single set bit or arbitrary words.
fn multiplier_port_ops() -> Vec<MulOp> {
    let mut ops = vec![
        MulOp {
            a: 0,
            b: 0xDEAD_BEEF,
        },
        MulOp {
            a: u32::MAX,
            b: u32::MAX,
        },
        MulOp {
            a: 0x9E37_79B9,
            b: 0x7F4A_7C15,
        },
    ];
    for bit in 0..32 {
        ops.push(MulOp { a: 1 << bit, b: 1 });
        ops.push(MulOp {
            a: 1 << bit,
            b: 1 << 31,
        });
    }
    ops
}

/// The port-path faults of the ALU are exactly both stems of every
/// `result` and `zero` bit, and each agrees with the oracle on every
/// operation, including those whose forced bit flips the `zero` flag.
#[test]
fn alu_port_path_matches_simulator_exhaustively() {
    let m = alu32();
    assert_eq!(m.faults[PORT].len(), 2 * (32 + 1));
    let ops = alu_port_ops();
    let mut flips = 0;
    for &fault in &m.faults[PORT] {
        let mut mounted = ArchFault::from_shared(&m.shared, fault);
        for op in &ops {
            let expected = expected_alu(&fault, op);
            assert_eq!(mounted.eval_alu(op), expected, "{fault} on {op:?}");
            flips += usize::from(expected.map(|e| e.1) != Some(ArchFault::good_alu(op).1));
        }
        let stats = mounted.eval_stats();
        assert_eq!(
            stats,
            EvalStats {
                port_evals: ops.len() as u64,
                ..EvalStats::default()
            }
        );
    }
    assert!(flips > 0, "no operation flipped the zero flag");
}

/// Every site of the ALU's `zero` reduction — the stem and both pins of
/// each OR-tree gate, the inverter's pin and the `zero` stem it drives —
/// agrees with the oracle on every operation. All but the `zero` stem take
/// the tape path.
#[test]
fn alu_zero_reduction_matches_simulator_exhaustively() {
    let m = alu32();
    let component = m.component();
    let netlist = &component.netlist;
    let result = component.ports.output("result").nets();
    let zero = component.ports.output("zero").net(0);
    let mut gates = vec![netlist.driver(zero).unwrap()];
    let mut next = 0;
    while let Some(&gate) = gates.get(next) {
        for net in &netlist.gate(gate).inputs {
            if !result.contains(net) {
                gates.push(netlist.driver(*net).unwrap());
            }
        }
        next += 1;
    }
    assert_eq!(gates.len(), 32, "31 OR gates and the inverter");
    let faults: Vec<Fault> = netlist
        .all_faults()
        .into_iter()
        .filter(|fault| match fault.site {
            FaultSite::Stem(net) => netlist.driver(net).is_some_and(|g| gates.contains(&g)),
            FaultSite::Pin { gate, .. } => gates.contains(&gate),
        })
        .collect();
    assert_eq!(faults.len(), 2 * (32 + 31 * 2 + 1));
    let ops = alu_port_ops();
    for &fault in &faults {
        let mut mounted = ArchFault::from_shared(&m.shared, fault);
        assert_eq!(
            mounted.on_port_path(),
            fault.site == FaultSite::Stem(zero),
            "{fault}"
        );
        for op in &ops {
            assert_eq!(
                mounted.eval_alu(op),
                expected_alu(&fault, op),
                "{fault} on {op:?}"
            );
        }
    }
}

/// Both stems of every shifter `result` bit agree with the oracle.
#[test]
fn shifter_port_path_matches_simulator_exhaustively() {
    let m = shifter32();
    assert_eq!(m.faults[PORT].len(), 2 * 32);
    let ops = shifter_port_ops();
    for &fault in &m.faults[PORT] {
        let mut mounted = ArchFault::from_shared(&m.shared, fault);
        for op in &ops {
            assert_eq!(
                mounted.eval_shift(op),
                expected_shift(&fault, op),
                "{fault} on {op:?}"
            );
        }
    }
}

/// Both stems of every multiplier `product` bit agree with the oracle.
#[test]
fn multiplier_port_path_matches_simulator_exhaustively() {
    let m = multiplier32();
    assert_eq!(m.faults[PORT].len(), 2 * 64);
    let ops = multiplier_port_ops();
    for &fault in &m.faults[PORT] {
        let mut mounted = ArchFault::from_shared(&m.shared, fault);
        for op in &ops {
            assert_eq!(
                mounted.eval_mul(op),
                expected_mul(&fault, op),
                "{fault} on {}*{}",
                op.a,
                op.b
            );
        }
    }
}
