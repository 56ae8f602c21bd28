//! Traced calls into each layer's public functions.
//!
//! Every helper here does what one library call does, through the same
//! public functions that call is made of, with a span around each layer
//! boundary. The workloads check that these decompositions reproduce the
//! library's own results exactly.

use sbst_components::alu::AluFunc;
use sbst_components::shifter::ShiftFunc;
use sbst_components::{pattern_port_value, Component, ComponentKind};
use sbst_core::codestyle::{
    emit_atpg_immediate, emit_misr_subroutine, emit_prologue, emit_signature_unload, regs, ApplyOp,
};
use sbst_core::grade::execute_routine;
use sbst_core::routine::{DATA_BASE, MISR_LABEL};
use sbst_core::{stimulus_for, CodeStyle, Cut, RoutineSpec, SelfTestRoutine};
use sbst_cpu::{ExecStats, OperandTrace};
use sbst_gates::{
    enumerate_transition_faults, FaultCoverage, FaultSimConfig, FaultSimResult, FaultSimulator,
    Stimulus,
};
use sbst_isa::{Asm, Instruction};
use sbst_tpg::{Atpg, AtpgConfig, AtpgResult, InputConstraint};

use crate::trace::Trace;

/// Fault-simulator configuration of every workload: library defaults on
/// one worker thread.
pub fn serial_sim() -> FaultSimConfig {
    FaultSimConfig {
        threads: Some(1),
        ..FaultSimConfig::default()
    }
}

/// ATPG configuration of every workload: library defaults with one
/// PODEM and one grading thread, seeded by the workload seed.
pub fn serial_atpg(seed: u64) -> AtpgConfig {
    AtpgConfig {
        rng_seed: seed,
        sim_threads: Some(1),
        podem_threads: Some(1),
        ..AtpgConfig::default()
    }
}

/// Builds a CUT inside a `cut.build` span.
pub fn cut(trace: &mut Trace, build: impl FnOnce() -> Cut) -> Cut {
    trace.span("cut.build", |_| build())
}

/// Signature-label stem of a CUT's routine, as `RoutineSpec::build` and
/// the program composer name it.
pub fn routine_tag(kind: ComponentKind) -> &'static str {
    match kind {
        ComponentKind::Alu => "alu",
        ComponentKind::Comparator => "cmp",
        ComponentKind::Shifter => "shifter",
        ComponentKind::Multiplier => "mul",
        ComponentKind::Divider => "div",
        ComponentKind::RegisterFile => "regfile",
        ComponentKind::MemoryController => "memctrl",
        ComponentKind::ControlLogic => "control",
        ComponentKind::Pipeline => "pipeline",
        ComponentKind::PcUnit => "pc_unit",
    }
}

fn op_constraints(component: &Component, encoding: u8) -> Vec<InputConstraint> {
    let op_bus = component.ports.input("op");
    (0..op_bus.width())
        .map(|bit| InputConstraint {
            net: op_bus.net(bit),
            value: (encoding >> bit) & 1 == 1,
        })
        .collect()
}

fn record_atpg(trace: &mut Trace, result: &AtpgResult) {
    let stats = &result.stats;
    trace.add("atpg.targets", stats.podem_targets as f64);
    trace.add("atpg.tests", stats.podem_tests as f64);
    trace.add("atpg.aborted", stats.aborted as f64);
    trace.add("atpg.redundant", stats.redundant as f64);
    trace.add("atpg.backtracks", stats.podem_backtracks as f64);
    trace.add("atpg.detected_by_random", stats.detected_by_random as f64);
    trace.add("atpg.patterns", result.patterns.len() as f64);
}

/// The per-function constrained PODEM campaign of the ATPG code styles:
/// one `Atpg::run` per operation encoding, each targeting only the faults
/// every earlier run left undetected. Returns each run's patterns.
fn atpg_campaign(
    trace: &mut Trace,
    component: &Component,
    encodings: impl IntoIterator<Item = u8>,
    config: AtpgConfig,
) -> Vec<Vec<Vec<bool>>> {
    let mut remaining = component.netlist.collapsed_faults();
    let mut per_function = Vec::new();
    for encoding in encodings {
        let constraints = op_constraints(component, encoding);
        let result = trace.span("atpg.run", |_| {
            Atpg::new(&component.netlist)
                .with_constraints(&constraints)
                .with_config(config)
                .run(&remaining)
        });
        record_atpg(trace, &result);
        remaining = remaining
            .into_iter()
            .zip(&result.outcomes)
            .filter(|(_, o)| !o.is_detected())
            .map(|(f, _)| f)
            .collect();
        per_function.push(result.patterns);
    }
    per_function
}

/// Emits an `AtpgD (I)` body for the shifter or the ALU, running its
/// ATPG campaign under `atpg.run` spans. `None` for any other pairing.
fn emit_atpg_body(trace: &mut Trace, cut: &Cut, config: AtpgConfig, asm: &mut Asm) -> Option<()> {
    let component = &cut.component;
    match cut.kind() {
        ComponentKind::Shifter => {
            let encodings = ShiftFunc::ALL.map(ShiftFunc::encoding);
            let patterns = atpg_campaign(trace, component, encodings, config);
            for (func, patterns) in ShiftFunc::ALL.into_iter().zip(patterns) {
                for pattern in &patterns {
                    let data = pattern_port_value(component, pattern, "data") as u32;
                    let shamt = pattern_port_value(component, pattern, "amount") as u8;
                    let (rd, rt) = (regs::OPERAND, regs::X);
                    asm.li(regs::X, data);
                    asm.insn(match func {
                        ShiftFunc::Sll => Instruction::Sll { rd, rt, shamt },
                        ShiftFunc::Srl => Instruction::Srl { rd, rt, shamt },
                        ShiftFunc::Sra => Instruction::Sra { rd, rt, shamt },
                    });
                    asm.jal(MISR_LABEL);
                    asm.nop();
                }
            }
        }
        ComponentKind::Alu => {
            let encodings = AluFunc::ALL.map(AluFunc::encoding);
            let patterns = atpg_campaign(trace, component, encodings, config);
            for (func, patterns) in AluFunc::ALL.into_iter().zip(patterns) {
                let pairs: Vec<(u32, u32)> = patterns
                    .iter()
                    .map(|p| {
                        (
                            pattern_port_value(component, p, "a") as u32,
                            pattern_port_value(component, p, "b") as u32,
                        )
                    })
                    .collect();
                emit_atpg_immediate(asm, &pairs, &[ApplyOp::Alu(func)], MISR_LABEL);
            }
        }
        _ => return None,
    }
    Some(())
}

/// Emits a routine body into `asm`: the `AtpgD (I)` styles through the
/// traced campaign, every other style through `RoutineSpec::emit_body`.
pub fn emit_body(trace: &mut Trace, cut: &Cut, spec: &RoutineSpec, asm: &mut Asm) {
    if spec.style == CodeStyle::AtpgImmediate
        && emit_atpg_body(trace, cut, spec.atpg, asm).is_some()
    {
        return;
    }
    spec.emit_body(cut, asm).expect("routine body builds");
}

/// `RoutineSpec::build` inside a `routine.build` span, with the ATPG runs
/// of the deterministic styles as child spans.
pub fn build_routine(trace: &mut Trace, cut: &Cut, spec: &RoutineSpec) -> SelfTestRoutine {
    let routine = trace.span("routine.build", |trace| {
        let sig_label = format!("sig_{}", routine_tag(cut.kind()));
        let mut asm = Asm::new();
        emit_prologue(&mut asm);
        asm.data_label(&sig_label);
        asm.word(0);
        emit_body(trace, cut, spec, &mut asm);
        emit_signature_unload(&mut asm, &sig_label);
        asm.insn(Instruction::Break { code: 0 });
        emit_misr_subroutine(&mut asm, MISR_LABEL);
        SelfTestRoutine {
            name: routine_tag(cut.kind()).to_owned(),
            style: spec.style,
            program: asm.assemble(0, DATA_BASE).expect("routine assembles"),
            sig_label,
        }
    });
    trace.add("routine.words", routine.size_words() as f64);
    routine
}

/// `grade::execute_routine` inside an `iss.run` span.
pub fn execute(trace: &mut Trace, routine: &SelfTestRoutine) -> (ExecStats, OperandTrace, u32) {
    let run = trace.span("iss.run", |_| {
        execute_routine(routine).expect("routine runs")
    });
    trace.add("iss.cycles", run.0.total_cycles() as f64);
    run
}

/// `stimulus_for` inside a `fault_sim.stimulus` span.
pub fn stimulus(trace: &mut Trace, cut: &Cut, operands: &OperandTrace) -> Stimulus {
    trace.span("fault_sim.stimulus", |_| stimulus_for(cut, operands))
}

fn record_sim(trace: &mut Trace, faults: usize, cycles: usize, result: &FaultSimResult) {
    let stats = &result.stats;
    trace.add("fault_sim.faults", faults as f64);
    trace.add("fault_sim.fault_cycles", (faults * cycles) as f64);
    trace.add("fault_sim.events", stats.events_simulated as f64);
    trace.add("fault_sim.events_full_eval", stats.events_full_eval as f64);
    trace.add(
        "fault_sim.lane_slots_filled",
        stats.lane_slots_filled as f64,
    );
    trace.add("fault_sim.lane_slots_total", stats.lane_slots_total as f64);
}

/// Stuck-at grading of a stimulus (`FaultSimulator::simulate`) inside a
/// `fault_sim.stuck_at` span.
pub fn grade_stuck_at(
    trace: &mut Trace,
    cut: &Cut,
    stimulus: &Stimulus,
    sim: FaultSimConfig,
) -> FaultCoverage {
    let netlist = &cut.component.netlist;
    let faults = netlist.collapsed_faults();
    let result = trace.span("fault_sim.stuck_at", |_| {
        FaultSimulator::with_config(netlist, sim).simulate(&faults, stimulus)
    });
    record_sim(trace, faults.len(), stimulus.len(), &result);
    result.coverage()
}

/// Both fault models on one shared simulator, as the library's graders
/// run them: `simulate` under `fault_sim.stuck_at`, then
/// `simulate_transition` under `fault_sim.transition`.
pub fn grade_models(
    trace: &mut Trace,
    cut: &Cut,
    stimulus: &Stimulus,
    sim: FaultSimConfig,
) -> (FaultCoverage, FaultCoverage) {
    let netlist = &cut.component.netlist;
    let faults = netlist.collapsed_faults();
    let transition_faults = enumerate_transition_faults(netlist);
    let simulator = FaultSimulator::with_config(netlist, sim);
    let stuck_at = trace.span("fault_sim.stuck_at", |_| {
        simulator.simulate(&faults, stimulus)
    });
    record_sim(trace, faults.len(), stimulus.len(), &stuck_at);
    let transition = trace.span("fault_sim.transition", |_| {
        simulator.simulate_transition(&transition_faults, stimulus)
    });
    record_sim(trace, transition_faults.len(), stimulus.len(), &transition);
    (stuck_at.coverage(), transition.coverage())
}

/// Transition-delay grading of a stimulus, untraced.
pub fn transition_coverage(cut: &Cut, stimulus: &Stimulus, sim: FaultSimConfig) -> FaultCoverage {
    let netlist = &cut.component.netlist;
    FaultSimulator::with_config(netlist, sim)
        .simulate_transition(&enumerate_transition_faults(netlist), stimulus)
        .coverage()
}

/// Coverage of an empty stimulus under both models, as the library
/// reports it for a CUT the trace never exercised.
pub fn empty_coverage(cut: &Cut) -> (FaultCoverage, FaultCoverage) {
    let netlist = &cut.component.netlist;
    (
        FaultCoverage::new(0, cut.fault_count()),
        FaultCoverage::new(0, enumerate_transition_faults(netlist).len()),
    )
}
