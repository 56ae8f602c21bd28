//! Self-test routine construction (Phase C).
//!
//! A [`RoutineSpec`] pairs a CUT with a [`CodeStyle`] and produces a
//! runnable [`SelfTestRoutine`]: the one-CUT program of the whole-program
//! composer in [`crate::program`] — prologue (MISR seed/polynomial), the
//! style's pattern-application body, the signature unload, a terminating
//! `break`, and the shared 8-word MISR subroutine. Pattern content comes
//! from the matching TPG strategy: the regular deterministic sets emitted
//! here for the regular D-VCs, the per-function constrained PODEM
//! campaign (`sbst_tpg::per_function_campaign`) for the `AtpgD` styles,
//! and a software LFSR for the pseudorandom style.
//! [`RoutineSpec::recommended`] picks the strategy per component.

use std::error::Error;
use std::fmt;

use sbst_components::alu::AluFunc;
use sbst_components::shifter::ShiftFunc;
use sbst_components::{pattern_port_value, ComponentKind};
use sbst_isa::{Asm, AsmError, Instruction, Program, Reg};
use sbst_tpg::lfsr::LfsrConfig;
use sbst_tpg::misr;
use sbst_tpg::{per_function_campaign, AtpgConfig, AtpgTelemetry};

use crate::codestyle::{
    checkerboards, emit_apply, emit_atpg_data_fetch, emit_atpg_immediate, emit_misr_inline,
    emit_pseudorandom_loop, emit_regular_walking_loop, mask, regs, ApplyOp, CodeStyle,
};
use crate::cut::Cut;
use crate::program::SelfTestProgram;

/// Default data-segment base for standalone routines (clear of any
/// realistic text segment).
pub const DATA_BASE: u32 = 0x0001_0000;

/// Label of the shared MISR subroutine.
pub const MISR_LABEL: &str = "misr_absorb";

/// Error from [`RoutineSpec::build`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BuildRoutineError {
    /// The style/component combination is not meaningful (e.g. a regular
    /// walking loop for the control decoder).
    UnsupportedStyle {
        /// The component kind.
        kind: ComponentKind,
        /// The requested style.
        style: CodeStyle,
    },
    /// The component class receives no routine of its own (A-VC, M-VC and
    /// hidden components are graded as side effects).
    NoRoutineForClass {
        /// The component kind.
        kind: ComponentKind,
    },
    /// Assembly failed (an internal error — emitted code should always
    /// assemble).
    Assemble(AsmError),
}

impl fmt::Display for BuildRoutineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildRoutineError::UnsupportedStyle { kind, style } => {
                write!(f, "style {style} is not applicable to {kind}")
            }
            BuildRoutineError::NoRoutineForClass { kind } => {
                write!(f, "{kind} is graded as a side effect and gets no routine")
            }
            BuildRoutineError::Assemble(e) => write!(f, "assembly failed: {e}"),
        }
    }
}

impl Error for BuildRoutineError {}

impl From<AsmError> for BuildRoutineError {
    fn from(e: AsmError) -> Self {
        BuildRoutineError::Assemble(e)
    }
}

/// A built self-test routine.
#[derive(Debug, Clone)]
pub struct SelfTestRoutine {
    /// Routine name (derived from the CUT).
    pub name: String,
    /// The code style used.
    pub style: CodeStyle,
    /// The assembled program (standalone-runnable: ends in `break 0`).
    pub program: Program,
    /// Data label holding the unloaded signature word.
    pub sig_label: String,
}

impl SelfTestRoutine {
    /// Memory footprint in words (the paper's "Size (words)").
    pub fn size_words(&self) -> usize {
        self.program.size_words()
    }
}

/// Specification of a routine to build.
#[derive(Debug, Clone)]
pub struct RoutineSpec {
    /// The code style.
    pub style: CodeStyle,
    /// Pattern count for the pseudorandom style.
    pub pseudorandom_count: u32,
    /// LFSR configuration for the pseudorandom style.
    pub lfsr: LfsrConfig,
    /// ATPG configuration for the deterministic styles.
    pub atpg: AtpgConfig,
}

impl RoutineSpec {
    /// Creates a spec with the given style and default knobs.
    pub fn new(style: CodeStyle) -> Self {
        RoutineSpec {
            style,
            pseudorandom_count: 256,
            lfsr: LfsrConfig::default(),
            atpg: AtpgConfig::default(),
        }
    }

    /// The recommended style for a CUT, following Table 1: the style of
    /// its dedicated routine, and the functional style for the components
    /// graded as side effects — for the PC unit that is the optional
    /// branch-ladder top-up.
    pub fn recommended(cut: &Cut) -> Self {
        RoutineSpec::new(dedicated_style(cut.kind()).unwrap_or(CodeStyle::FunctionalTest))
    }

    /// Builds the routine for `cut`.
    ///
    /// # Errors
    ///
    /// Returns [`BuildRoutineError`] for inapplicable style/CUT pairs and
    /// for side-effect-only component classes.
    pub fn build(&self, cut: &Cut) -> Result<SelfTestRoutine, BuildRoutineError> {
        self.build_traced(cut).map(|(routine, _)| routine)
    }

    /// [`RoutineSpec::build`] that also returns the ATPG instrumentation of
    /// the deterministic styles (empty telemetry for the non-ATPG styles).
    /// The routine is the one-CUT program of the whole-program composer.
    ///
    /// # Errors
    ///
    /// Same conditions as [`RoutineSpec::build`].
    pub fn build_traced(
        &self,
        cut: &Cut,
    ) -> Result<(SelfTestRoutine, AtpgTelemetry), BuildRoutineError> {
        let mut telemetry = AtpgTelemetry::default();
        let (program, mut sig_labels) =
            SelfTestProgram::compose([(cut, self.clone())], &mut telemetry)?;
        Ok((
            SelfTestRoutine {
                name: routine_name(cut.kind()).to_owned(),
                style: self.style,
                program,
                sig_label: sig_labels.remove(0),
            },
            telemetry,
        ))
    }

    /// Emits the routine body (pattern application and compaction) into an
    /// existing assembly unit, as the whole-program composer in
    /// [`crate::program`] does for every routine.
    ///
    /// # Errors
    ///
    /// Same conditions as [`RoutineSpec::build`].
    pub fn emit_body(&self, cut: &Cut, asm: &mut Asm) -> Result<(), BuildRoutineError> {
        self.emit_body_traced(cut, asm, &mut AtpgTelemetry::default())
    }

    /// [`RoutineSpec::emit_body`] that folds each constrained ATPG run's
    /// instrumentation into `telemetry`.
    ///
    /// # Errors
    ///
    /// Same conditions as [`RoutineSpec::build`].
    pub fn emit_body_traced(
        &self,
        cut: &Cut,
        asm: &mut Asm,
        telemetry: &mut AtpgTelemetry,
    ) -> Result<(), BuildRoutineError> {
        let kind = cut.kind();
        match (kind, self.style) {
            (ComponentKind::Alu, CodeStyle::RegularLoopImmediate) => {
                self.body_alu_regular(cut, asm);
            }
            (ComponentKind::Multiplier, CodeStyle::RegularLoopImmediate) => {
                self.body_mul_regular(cut, asm);
            }
            (ComponentKind::Divider, CodeStyle::RegularLoopImmediate) => {
                self.body_div_regular(cut, asm);
            }
            (ComponentKind::RegisterFile, CodeStyle::RegularImmediate) => {
                self.body_regfile_march(cut, asm);
            }
            (ComponentKind::MemoryController, CodeStyle::RegularImmediate) => {
                self.body_memctrl(asm);
            }
            (ComponentKind::Shifter, CodeStyle::AtpgImmediate) => {
                self.body_shifter_atpg(cut, asm, telemetry);
            }
            (ComponentKind::ControlLogic, CodeStyle::FunctionalTest) => {
                self.body_control_functional(asm);
            }
            // Style-comparison builds (Figures 1-4 on two-operand CUTs).
            (ComponentKind::Alu, CodeStyle::AtpgImmediate) => {
                self.body_alu_atpg(cut, asm, false, telemetry);
            }
            (ComponentKind::Alu, CodeStyle::AtpgDataFetch) => {
                self.body_alu_atpg(cut, asm, true, telemetry);
            }
            (
                ComponentKind::Alu | ComponentKind::Multiplier | ComponentKind::Divider,
                CodeStyle::PseudorandomLoop,
            ) => {
                let applies = pseudorandom_applies(kind);
                emit_pseudorandom_loop(
                    asm,
                    self.lfsr,
                    self.pseudorandom_count,
                    &applies,
                    "prnd_loop",
                    MISR_LABEL,
                );
            }
            (ComponentKind::Shifter, CodeStyle::PseudorandomLoop) => {
                let applies = [
                    ApplyOp::ShiftVar(ShiftFunc::Sll),
                    ApplyOp::ShiftVar(ShiftFunc::Srl),
                    ApplyOp::ShiftVar(ShiftFunc::Sra),
                ];
                emit_pseudorandom_loop(
                    asm,
                    self.lfsr,
                    self.pseudorandom_count,
                    &applies,
                    "prnd_loop",
                    MISR_LABEL,
                );
            }
            // Optional M-VC top-up (Section 3.2: address components are
            // "tested after the D-VCs only in case that the fault coverage
            // is not acceptable"). A branch ladder makes the PC unit
            // visible through instruction placement — at the cost of the
            // distributed memory footprint the paper warns about.
            (ComponentKind::PcUnit, CodeStyle::FunctionalTest) => {
                self.body_pc_ladder(cut, asm);
            }
            (ComponentKind::Pipeline | ComponentKind::PcUnit, _) => {
                return Err(BuildRoutineError::NoRoutineForClass { kind });
            }
            (kind, style) => {
                return Err(BuildRoutineError::UnsupportedStyle { kind, style });
            }
        }
        Ok(())
    }

    /// Regular deterministic ALU routine: immediate corners for the logic
    /// slices and comparators, plus the Figure-4 walking carry loop for the
    /// adder/subtractor.
    fn body_alu_regular(&self, cut: &Cut, asm: &mut Asm) {
        let width = cut.component.width;
        let m = mask(width);
        let (cb, cbi) = checkerboards(width);
        let msb = 1u32 << (width - 1);
        // Logic slices: both mixed and matched checkerboards.
        let logic_pairs = [(cb, cbi), (cbi, cb), (cb, cb), (0, m)];
        for func in [AluFunc::And, AluFunc::Or, AluFunc::Xor, AluFunc::Nor] {
            emit_atpg_immediate(asm, &logic_pairs, &[ApplyOp::Alu(func)], MISR_LABEL);
        }
        // Adder corners (carry generate/propagate chains).
        let adder_pairs = [(m, 1), (cb, cb), (cbi, cbi), (cb, cbi), (m, m), (0, 0)];
        emit_atpg_immediate(
            asm,
            &adder_pairs,
            &[ApplyOp::Alu(AluFunc::Add), ApplyOp::Alu(AluFunc::Sub)],
            MISR_LABEL,
        );
        // Comparator sign/magnitude corners.
        let slt_pairs = [(msb, 0), (0, msb), (msb, msb - 1), (m, 0), (1, 0), (0, 1)];
        emit_atpg_immediate(
            asm,
            &slt_pairs,
            &[ApplyOp::Alu(AluFunc::Slt), ApplyOp::Alu(AluFunc::Sltu)],
            MISR_LABEL,
        );
        // Figure-4 loop: walking one against all-ones through add/sub.
        emit_regular_walking_loop(
            asm,
            width,
            regs::X,
            &[ApplyOp::Alu(AluFunc::Add), ApplyOp::Alu(AluFunc::Sub)],
            "alu_walk",
            MISR_LABEL,
        );
    }

    fn body_mul_regular(&self, cut: &Cut, asm: &mut Asm) {
        let width = cut.component.width;
        let m = mask(width);
        let (cb, cbi) = checkerboards(width);
        let corners = [(m, m), (cb, cbi), (cbi, cb), (m, 1), (1, m), (cb, cb)];
        emit_atpg_immediate(asm, &corners, &[ApplyOp::Multu], MISR_LABEL);
        // Walk each operand against all-ones (walking one), then walk a
        // zero through an all-ones operand — together these toggle every
        // partial-product AND and every carry-save cell in both polarities.
        for (walk, label) in [(regs::X, "mul_walk_x"), (regs::Y, "mul_walk_y")] {
            emit_regular_walking_loop(asm, width, walk, &[ApplyOp::Multu], label, MISR_LABEL);
        }
        emit_walking_zero_loop(asm, width, regs::X, &[ApplyOp::Multu], "mul_walk0_x");
        emit_walking_zero_loop(asm, width, regs::Y, &[ApplyOp::Multu], "mul_walk0_y");
    }

    fn body_div_regular(&self, cut: &Cut, asm: &mut Asm) {
        let width = cut.component.width;
        let m = mask(width);
        let (cb, cbi) = checkerboards(width);
        let corners = [(m, 1), (m, m), (0, 1), (cb, cbi), (cbi, cb), (1, m), (m, 0)];
        emit_atpg_immediate(asm, &corners, &[ApplyOp::Divu], MISR_LABEL);
        // Walking divisor sweeps the quotient bit positions. (A walking
        // dividend loop was evaluated and rejected: +5.7k cycles for
        // +0.1 % coverage — the residue is in rarely-sensitized restore
        // paths that would need targeted sequential patterns.)
        emit_regular_walking_loop(
            asm,
            width,
            regs::Y,
            &[ApplyOp::Divu],
            "div_walk",
            MISR_LABEL,
        );
    }

    /// Register-file march, in the paper's two phases: first the registers
    /// not used by the compaction code (using the MISR registers for
    /// compaction), then the MISR's own registers with the signature moved
    /// to the other half.
    fn body_regfile_march(&self, _cut: &Cut, asm: &mut Asm) {
        let cb: u32 = 0x5555_5555;
        let cbi: u32 = 0xAAAA_AAAA;
        // Phase A: every register except $zero and the MISR quartet.
        let misr_regs = [regs::SIG, regs::MISR_POLY, regs::SCRATCH1, regs::SCRATCH2];
        let phase_a: Vec<Reg> = Reg::all()
            .filter(|r| *r != Reg::ZERO && !misr_regs.contains(r))
            .collect();
        // March element: ascending checkerboard writes.
        for (i, &r) in phase_a.iter().enumerate() {
            asm.li(r, if i % 2 == 0 { cb } else { cbi });
        }
        // Ascending read-compact. Reading *pairs* (`xor $a0, r_i, r_j`)
        // walks read port A ascending and port B descending with
        // complementary data, exercising both read mux trees across every
        // address before the combined value enters the MISR.
        let n = phase_a.len();
        for i in 0..n {
            asm.insn(Instruction::Xor {
                rd: regs::OPERAND,
                rs: phase_a[i],
                rt: phase_a[n - 1 - i],
            });
            emit_misr_inline(
                asm,
                regs::SIG,
                regs::MISR_POLY,
                regs::SCRATCH1,
                regs::SCRATCH2,
                regs::OPERAND,
            );
        }
        // Inverted writes, descending paired read-compact (OR mixes the
        // polarities differently than XOR, separating mux faults that XOR
        // masks).
        for (i, &r) in phase_a.iter().enumerate() {
            asm.li(r, if i % 2 == 0 { cbi } else { cb });
        }
        for i in (0..n).rev() {
            asm.insn(Instruction::Or {
                rd: regs::OPERAND,
                rs: phase_a[i],
                rt: phase_a[(i + 1) % n],
            });
            emit_misr_inline(
                asm,
                regs::SIG,
                regs::MISR_POLY,
                regs::SCRATCH1,
                regs::SCRATCH2,
                regs::OPERAND,
            );
            asm.insn(Instruction::And {
                rd: regs::OPERAND,
                rs: phase_a[i],
                rt: phase_a[(i + 1) % n],
            });
            emit_misr_inline(
                asm,
                regs::SIG,
                regs::MISR_POLY,
                regs::SCRATCH1,
                regs::SCRATCH2,
                regs::OPERAND,
            );
        }
        // Phase B: test the MISR quartet, compacting into the other half.
        let (sig_b, poly_b, t1_b, t2_b) = (Reg::A1, Reg::A2, Reg::A3, Reg::V0);
        asm.move_reg(sig_b, regs::SIG);
        asm.li(poly_b, misr::DEFAULT_POLY);
        for &r in &misr_regs {
            for pattern in [cb, cbi] {
                asm.li(r, pattern);
                emit_misr_inline(asm, sig_b, poly_b, t1_b, t2_b, r);
            }
        }
        // Restore the signature and polynomial for the unload path.
        asm.move_reg(regs::SIG, sig_b);
        asm.li(regs::MISR_POLY, misr::DEFAULT_POLY);
    }

    /// Memory-controller routine: word/half/byte stores and loads in both
    /// polarities across all lanes of a small aligned buffer — the only
    /// routine with substantial data references (as in Table 1, where the
    /// memory controller accounts for 80 of the program's 87 references).
    fn body_memctrl(&self, asm: &mut Asm) {
        asm.data_label("membuf");
        asm.word(0);
        asm.word(0);
        asm.la(regs::PTR, "membuf");
        for pattern in [
            0x5555_5555u32,
            0xAAAA_AAAAu32,
            0x00FF_F00Fu32,
            0xFF00_0FF0u32,
        ] {
            asm.li(regs::X, pattern);
            // Word store, word load.
            asm.insn(Instruction::Sw {
                rt: regs::X,
                base: regs::PTR,
                offset: 0,
            });
            load_absorb(asm, LoadKind::Lw, 0);
            // Byte lanes, both extensions.
            for off in 0..4 {
                load_absorb(asm, LoadKind::Lb, off);
                load_absorb(asm, LoadKind::Lbu, off);
            }
            // Half lanes.
            load_absorb(asm, LoadKind::Lh, 0);
            load_absorb(asm, LoadKind::Lhu, 2);
            // Sub-word stores then read back the merged word.
            asm.insn(Instruction::Sb {
                rt: regs::X,
                base: regs::PTR,
                offset: 1,
            });
            asm.insn(Instruction::Sh {
                rt: regs::X,
                base: regs::PTR,
                offset: 4,
            });
            load_absorb(asm, LoadKind::Lw, 0);
            load_absorb(asm, LoadKind::Lw, 4);
        }
    }

    /// Constrained-ATPG shifter routine: the per-function campaign runs
    /// PODEM once per shift function with the operation-select inputs
    /// pinned (the instruction-imposed constraint), and each generated
    /// pattern becomes `li` + one shift instruction with an immediate shift
    /// amount (Figure 1 style).
    fn body_shifter_atpg(&self, cut: &Cut, asm: &mut Asm, telemetry: &mut AtpgTelemetry) {
        let component = &cut.component;
        let encodings = ShiftFunc::ALL.map(ShiftFunc::encoding);
        let runs = per_function_campaign(component, &encodings, self.atpg);
        for (func, result) in ShiftFunc::ALL.into_iter().zip(&runs) {
            telemetry.absorb(result);
            for pattern in &result.patterns {
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

    /// ATPG routine for the ALU (used for the Figures 1/2 style
    /// comparison): the per-function campaign, one constrained PODEM run
    /// per ALU function.
    fn body_alu_atpg(
        &self,
        cut: &Cut,
        asm: &mut Asm,
        data_fetch: bool,
        telemetry: &mut AtpgTelemetry,
    ) {
        let component = &cut.component;
        let encodings = AluFunc::ALL.map(AluFunc::encoding);
        let runs = per_function_campaign(component, &encodings, self.atpg);
        for (func, result) in AluFunc::ALL.into_iter().zip(&runs) {
            telemetry.absorb(result);
            let pairs: Vec<(u32, u32)> = result
                .patterns
                .iter()
                .map(|p| {
                    (
                        pattern_port_value(component, p, "a") as u32,
                        pattern_port_value(component, p, "b") as u32,
                    )
                })
                .collect();
            if data_fetch {
                emit_atpg_data_fetch(
                    asm,
                    &pairs,
                    &[ApplyOp::Alu(func)],
                    &format!("atpg_{}", func.encoding()),
                    &format!("atpg_loop_{}", func.encoding()),
                    MISR_LABEL,
                );
            } else {
                emit_atpg_immediate(asm, &pairs, &[ApplyOp::Alu(func)], MISR_LABEL);
            }
        }
    }

    /// Branch ladder for the PC/branch unit: taken branches with offsets
    /// walking through the offset field's bit positions, placed across a
    /// wide address span so the PC operand toggles too. Forward hops are
    /// padded with counting blocks (skipped on the correct path, pure
    /// footprint) and a backward branch closes the span — this is exactly
    /// the "distributed memory references" cost that disqualifies
    /// A-VC/M-VC testing from routine on-line use. The count and the
    /// backward branch's flag are compacted at the end.
    fn body_pc_ladder(&self, cut: &Cut, asm: &mut Asm) {
        let offset_bits = cut.component.ports.input("offset").width();
        // Forward hops with exponentially growing distances: offset bit k
        // toggles on hop k. The skipped padding counts instead of idling,
        // so a hop that lands short of its target leaves a nonzero count.
        let max_bit = (offset_bits - 1).min(10); // bound the footprint
        let count = Instruction::Addiu {
            rt: regs::OPERAND,
            rs: regs::OPERAND,
            imm: 1,
        };
        for k in 0..=max_bit {
            let hop = 1usize << k;
            asm.beq(Reg::ZERO, Reg::ZERO, &format!("pc_seg_{k}"));
            if k == 0 {
                // The first delay slot clears the count.
                asm.move_reg(regs::OPERAND, Reg::ZERO);
            } else {
                asm.nop(); // delay slot
            }
            for _ in 0..hop.saturating_sub(1) {
                asm.insn(count); // padding, skipped by the branch
            }
            asm.label(&format!("pc_seg_{k}"));
        }
        // Backward branch: exercises the offset sign bit. Guarded by a
        // flag register so it is taken exactly once.
        asm.li(Reg::T1, 0);
        asm.label("pc_back_target");
        asm.insn(Instruction::Addiu {
            rt: Reg::T1,
            rs: Reg::T1,
            imm: 1,
        });
        asm.li(Reg::T2, 1);
        asm.beq(Reg::T1, Reg::T2, "pc_back_target");
        asm.nop();
        // A jump pair to vary the PC through `j`'s absolute-target path.
        asm.j("pc_j_done");
        asm.nop();
        asm.label("pc_j_done");
        // Compact the padding count, then the back-branch flag: the path
        // the branches took reaches the signature.
        asm.jal(MISR_LABEL);
        asm.nop();
        asm.move_reg(regs::OPERAND, Reg::T1);
        asm.jal(MISR_LABEL);
        asm.nop();
    }

    /// Functional test for the control logic: one instance of every
    /// implemented opcode (both taken and fall-through branch outcomes),
    /// with computed values compacted.
    fn body_control_functional(&self, asm: &mut Asm) {
        use Instruction::*;
        let (a, b, d) = (regs::X, regs::Y, regs::OPERAND);
        asm.li(a, 0x0000_F0F0);
        asm.li(b, 0x0F0F_00FF);
        // R-type ALU ops, each result compacted.
        for insn in [
            Addu {
                rd: d,
                rs: a,
                rt: b,
            },
            Add {
                rd: d,
                rs: a,
                rt: b,
            },
            Subu {
                rd: d,
                rs: a,
                rt: b,
            },
            Sub {
                rd: d,
                rs: a,
                rt: b,
            },
            And {
                rd: d,
                rs: a,
                rt: b,
            },
            Or {
                rd: d,
                rs: a,
                rt: b,
            },
            Xor {
                rd: d,
                rs: a,
                rt: b,
            },
            Nor {
                rd: d,
                rs: a,
                rt: b,
            },
            Slt {
                rd: d,
                rs: a,
                rt: b,
            },
            Sltu {
                rd: d,
                rs: a,
                rt: b,
            },
            Sll {
                rd: d,
                rt: b,
                shamt: 5,
            },
            Srl {
                rd: d,
                rt: b,
                shamt: 5,
            },
            Sra {
                rd: d,
                rt: b,
                shamt: 5,
            },
            Sllv {
                rd: d,
                rt: b,
                rs: a,
            },
            Srlv {
                rd: d,
                rt: b,
                rs: a,
            },
            Srav {
                rd: d,
                rt: b,
                rs: a,
            },
        ] {
            asm.insn(insn);
            asm.jal(MISR_LABEL);
            asm.nop();
        }
        // Immediates.
        for insn in [
            Addi {
                rt: d,
                rs: a,
                imm: -64,
            },
            Addiu {
                rt: d,
                rs: a,
                imm: 64,
            },
            Slti {
                rt: d,
                rs: a,
                imm: 7,
            },
            Sltiu {
                rt: d,
                rs: a,
                imm: 7,
            },
            Andi {
                rt: d,
                rs: a,
                imm: 0xF00F,
            },
            Ori {
                rt: d,
                rs: a,
                imm: 0x1234,
            },
            Xori {
                rt: d,
                rs: a,
                imm: 0x5555,
            },
            Lui { rt: d, imm: 0xBEEF },
        ] {
            asm.insn(insn);
            asm.jal(MISR_LABEL);
            asm.nop();
        }
        // Multiply/divide unit and Hi/Lo moves.
        asm.insn(Mult { rs: a, rt: b });
        asm.insn(Mflo { rd: d });
        asm.jal(MISR_LABEL);
        asm.nop();
        asm.insn(Multu { rs: a, rt: b });
        asm.insn(Mfhi { rd: d });
        asm.jal(MISR_LABEL);
        asm.nop();
        asm.insn(Div { rs: a, rt: b });
        asm.insn(Mflo { rd: d });
        asm.jal(MISR_LABEL);
        asm.nop();
        asm.insn(Divu { rs: b, rt: a });
        asm.insn(Mfhi { rd: d });
        asm.jal(MISR_LABEL);
        asm.nop();
        asm.insn(Mthi { rs: a });
        asm.insn(Mtlo { rs: b });
        asm.insn(Mfhi { rd: d });
        asm.jal(MISR_LABEL);
        asm.nop();
        // Memory opcodes.
        asm.data_label("ft_buf");
        asm.word(0);
        asm.word(0);
        asm.la(regs::PTR, "ft_buf");
        asm.insn(Sw {
            rt: a,
            base: regs::PTR,
            offset: 0,
        });
        asm.insn(Sh {
            rt: b,
            base: regs::PTR,
            offset: 4,
        });
        asm.insn(Sb {
            rt: b,
            base: regs::PTR,
            offset: 6,
        });
        for insn in [
            Lw {
                rt: d,
                base: regs::PTR,
                offset: 0,
            },
            Lh {
                rt: d,
                base: regs::PTR,
                offset: 4,
            },
            Lhu {
                rt: d,
                base: regs::PTR,
                offset: 4,
            },
            Lb {
                rt: d,
                base: regs::PTR,
                offset: 6,
            },
            Lbu {
                rt: d,
                base: regs::PTR,
                offset: 6,
            },
        ] {
            asm.insn(insn);
            asm.jal(MISR_LABEL);
            asm.nop();
        }
        // Branch opcodes: taken and fall-through flavours.
        asm.beq(Reg::ZERO, Reg::ZERO, "ft_b1");
        asm.nop();
        asm.label("ft_b1");
        asm.bne(a, Reg::ZERO, "ft_b2");
        asm.nop();
        asm.label("ft_b2");
        asm.beq(a, Reg::ZERO, "ft_b3"); // not taken
        asm.nop();
        asm.bne(Reg::ZERO, Reg::ZERO, "ft_b3"); // not taken
        asm.nop();
        asm.label("ft_b3");
        asm.blez(Reg::ZERO, "ft_b4");
        asm.nop();
        asm.label("ft_b4");
        asm.bgtz(a, "ft_b5");
        asm.nop();
        asm.label("ft_b5");
        asm.bltz(a, "ft_b6"); // positive: not taken
        asm.nop();
        asm.label("ft_b6");
        asm.bgez(a, "ft_b7");
        asm.nop();
        asm.label("ft_b7");
        // Jumps.
        asm.j("ft_j1");
        asm.nop();
        asm.label("ft_j1");
        asm.jal("ft_sub");
        asm.nop();
        asm.j("ft_done");
        asm.nop();
        asm.label("ft_sub");
        asm.insn(Jr { rs: Reg::RA });
        asm.nop();
        asm.label("ft_done");
        // Opcode-space sweep: encodings outside the subset execute as
        // no-ops on an exception-less core but still drive the decoder,
        // sensitizing the near-miss minterm faults that legal instructions
        // cannot. Control transfers, memory ops and `break`/`jr` encodings
        // are skipped so the sweep stays straight-line and side-effect
        // free (all register fields are 0, so decoded survivors write
        // `$zero`).
        const SKIP_OPCODES: [u8; 16] = [
            0x00, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x20, 0x21, 0x23, 0x24, 0x25, 0x28,
            0x29, 0x2B,
        ];
        for opcode in 0..64u8 {
            if SKIP_OPCODES.contains(&opcode) {
                continue;
            }
            asm.raw_word((opcode as u32) << 26);
        }
        const SKIP_FUNCTS: [u8; 3] = [0x08, 0x09, 0x0D]; // jr, jalr, break
        for funct in 0..64u8 {
            if SKIP_FUNCTS.contains(&funct) {
                continue;
            }
            asm.raw_word(funct as u32);
        }
        // REGIMM rt-field sweep (bltz/bgez neighbours): offset 0 makes a
        // taken branch fall through to its own delay slot, and `bltz $zero`
        // is never taken; undecoded rt values are no-ops.
        for rt in 0..32u32 {
            asm.raw_word((0x01 << 26) | (rt << 16));
        }
        // Funct sweep under a non-SPECIAL opcode (`addi $zero, $zero, imm`
        // is side-effect free): sensitizes the is-special input pins of the
        // R-type minterm ANDs.
        for funct in 0..64u32 {
            asm.raw_word((0x08 << 26) | funct);
        }
    }
}

/// The Section 3.3 strategy decision: the style of a component kind's
/// dedicated routine, or `None` for the kinds graded as side effects of the
/// other routines. The one place that decides which CUTs get a routine.
pub(crate) fn dedicated_style(kind: ComponentKind) -> Option<CodeStyle> {
    match kind {
        // Regular iterative-logic D-VCs: a constant or linear test set
        // independent of the gate-level implementation, as Figure-4 walking
        // loops plus immediate corners.
        ComponentKind::Alu | ComponentKind::Multiplier | ComponentKind::Divider => {
            Some(CodeStyle::RegularLoopImmediate)
        }
        // Regular D-VCs whose test sets are applied with immediates only.
        ComponentKind::RegisterFile | ComponentKind::MemoryController => {
            Some(CodeStyle::RegularImmediate)
        }
        // Combinational D-VC with an irregular mux-tree structure and a
        // small deterministic test set: constrained ATPG.
        ComponentKind::Shifter => Some(CodeStyle::AtpgImmediate),
        // PVC: apply every opcode for RTL coverage.
        ComponentKind::ControlLogic => Some(CodeStyle::FunctionalTest),
        // A dedicated branch comparator is a D-VC, but every routine's
        // branches already drive it: graded from the branch stream.
        // Hidden and address-carrying components: graded as a side effect,
        // not targeted by on-line periodic routines.
        ComponentKind::Comparator | ComponentKind::Pipeline | ComponentKind::PcUnit => None,
    }
}

/// Picks the fixed apply set for pseudorandom loops per CUT kind.
fn pseudorandom_applies(kind: ComponentKind) -> Vec<ApplyOp> {
    match kind {
        ComponentKind::Alu => AluFunc::ALL.iter().map(|&f| ApplyOp::Alu(f)).collect(),
        ComponentKind::Multiplier => vec![ApplyOp::Multu],
        ComponentKind::Divider => vec![ApplyOp::Divu],
        _ => vec![ApplyOp::Alu(AluFunc::Add)],
    }
}

/// The short name a CUT kind's routine labels are built from.
pub(crate) fn routine_name(kind: ComponentKind) -> &'static str {
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

#[derive(Debug, Clone, Copy)]
enum LoadKind {
    Lw,
    Lh,
    Lhu,
    Lb,
    Lbu,
}

fn load_absorb(asm: &mut Asm, kind: LoadKind, offset: i16) {
    let insn = match kind {
        LoadKind::Lw => Instruction::Lw {
            rt: regs::OPERAND,
            base: regs::PTR,
            offset,
        },
        LoadKind::Lh => Instruction::Lh {
            rt: regs::OPERAND,
            base: regs::PTR,
            offset,
        },
        LoadKind::Lhu => Instruction::Lhu {
            rt: regs::OPERAND,
            base: regs::PTR,
            offset,
        },
        LoadKind::Lb => Instruction::Lb {
            rt: regs::OPERAND,
            base: regs::PTR,
            offset,
        },
        LoadKind::Lbu => Instruction::Lbu {
            rt: regs::OPERAND,
            base: regs::PTR,
            offset,
        },
    };
    asm.insn(insn);
    asm.jal(MISR_LABEL);
    asm.nop();
}

/// Emits a Figure-4 walking-*zero* loop: the walked operand register holds
/// all-ones with a single zero sweeping across, generated as
/// `walked = walker NOR 0` from a walking-one shadow in `$t1`.
fn emit_walking_zero_loop(
    asm: &mut Asm,
    width: usize,
    walk: Reg,
    applies: &[ApplyOp],
    loop_label: &str,
) {
    let ones = mask(width);
    let fixed = if walk == regs::X { regs::Y } else { regs::X };
    let shadow = Reg::T1;
    asm.li(shadow, 1);
    asm.li(fixed, ones);
    asm.label(loop_label);
    // walked = ~shadow (masked to width via the fixed all-ones register).
    asm.insn(Instruction::Nor {
        rd: walk,
        rs: shadow,
        rt: Reg::ZERO,
    });
    if width < 32 {
        asm.insn(Instruction::And {
            rd: walk,
            rs: walk,
            rt: fixed,
        });
    }
    for &apply in applies {
        emit_apply(asm, apply, MISR_LABEL);
    }
    asm.insn(Instruction::Sll {
        rd: shadow,
        rt: shadow,
        shamt: 1,
    });
    if width < 32 {
        asm.insn(Instruction::Andi {
            rt: shadow,
            rs: shadow,
            imm: ones as u16,
        });
    }
    asm.bne(shadow, Reg::ZERO, loop_label);
    asm.nop();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recommended_styles_match_table1() {
        assert_eq!(
            RoutineSpec::recommended(&Cut::alu(8)).style,
            CodeStyle::RegularLoopImmediate
        );
        assert_eq!(
            RoutineSpec::recommended(&Cut::shifter(8)).style,
            CodeStyle::AtpgImmediate
        );
        assert_eq!(
            RoutineSpec::recommended(&Cut::regfile(8, 8)).style,
            CodeStyle::RegularImmediate
        );
        // The control logic's functional test; the side-effect kinds fall
        // back to the same style (the PC unit's optional branch ladder).
        for cut in [
            Cut::control(),
            Cut::comparator(8),
            Cut::pipeline(8),
            Cut::pc_unit(8, 4),
        ] {
            let style = RoutineSpec::recommended(&cut).style;
            assert_eq!(style, CodeStyle::FunctionalTest, "{}", cut.name());
        }
    }

    #[test]
    fn alu_routine_builds_and_assembles() {
        let cut = Cut::alu(8);
        let routine = RoutineSpec::recommended(&cut).build(&cut).unwrap();
        assert!(routine.size_words() > 20);
        assert!(routine.program.symbol("sig_alu").is_some());
        assert!(routine.program.symbol(MISR_LABEL).is_some());
    }

    #[test]
    fn side_effect_components_get_no_routine() {
        let cut = Cut::pipeline(8);
        let err = RoutineSpec::recommended(&cut).build(&cut).unwrap_err();
        assert!(matches!(err, BuildRoutineError::NoRoutineForClass { .. }));
    }

    #[test]
    fn unsupported_combo_rejected() {
        let cut = Cut::control();
        let err = RoutineSpec::new(CodeStyle::PseudorandomLoop)
            .build(&cut)
            .unwrap_err();
        assert!(matches!(err, BuildRoutineError::UnsupportedStyle { .. }));
    }

    #[test]
    fn memctrl_routine_has_data_references() {
        let cut = Cut::memctrl();
        let routine = RoutineSpec::recommended(&cut).build(&cut).unwrap();
        let insns = routine.program.disassemble();
        let loads = insns
            .iter()
            .filter(|i| i.as_ref().is_ok_and(|i| i.is_load()))
            .count();
        let stores = insns
            .iter()
            .filter(|i| i.as_ref().is_ok_and(|i| i.is_store()))
            .count();
        assert!(loads >= 30, "loads {loads}");
        assert!(stores >= 8, "stores {stores}");
    }

    #[test]
    fn pseudorandom_routine_is_compact() {
        let cut = Cut::alu(8);
        let mut spec = RoutineSpec::new(CodeStyle::PseudorandomLoop);
        spec.pseudorandom_count = 10_000;
        let routine = spec.build(&cut).unwrap();
        // Constant code size regardless of the huge pattern count.
        assert!(routine.size_words() < 150, "{}", routine.size_words());
    }

    #[test]
    fn pc_ladder_improves_mvc_coverage() {
        use crate::grade::{grade_routine, grade_trace_models};
        use sbst_gates::FaultSimConfig;
        // Side-effect coverage of the PC unit from a D-VC routine vs the
        // dedicated branch ladder: the ladder must do markedly better —
        // the paper's rationale for the optional A-VC/M-VC top-up.
        let pc = Cut::pc_unit(8, 4);
        let alu = Cut::alu(8);
        let alu_routine = RoutineSpec::recommended(&alu).build(&alu).unwrap();
        let (_, alu_trace, _) = crate::grade::execute_routine(&alu_routine).unwrap();
        let side_effect = grade_trace_models(&pc, &alu_trace, FaultSimConfig::default()).coverage;

        let ladder = RoutineSpec::new(CodeStyle::FunctionalTest)
            .build(&pc)
            .unwrap();
        let dedicated = grade_routine(&pc, &ladder).unwrap();
        assert!(
            dedicated.coverage.percent() > side_effect.percent(),
            "ladder {} vs side effect {}",
            dedicated.coverage,
            side_effect
        );
    }

    #[test]
    fn pc_ladder_path_reaches_the_signature() {
        use crate::grade::execute_routine;
        let pc = Cut::pc_unit(8, 4);
        let ladder = RoutineSpec::recommended(&pc).build(&pc).unwrap();
        let (_, _, signature) = execute_routine(&ladder).unwrap();
        assert_ne!(signature, misr::DEFAULT_SEED);

        // Point the longest hop one word short of its target: the branch
        // lands in the padding, and the run still completes.
        let mut short = ladder.clone();
        let target = short.program.symbol("pc_seg_3").unwrap();
        let text_base = short.program.text_base;
        let (at, rs, rt, offset) = short
            .program
            .text
            .iter()
            .enumerate()
            .find_map(|(i, &word)| match Instruction::decode(word) {
                Ok(Instruction::Beq { rs, rt, offset })
                    if i64::from(text_base) + 4 * (i as i64 + 1 + i64::from(offset))
                        == i64::from(target) =>
                {
                    Some((i, rs, rt, offset))
                }
                _ => None,
            })
            .unwrap();
        short.program.text[at] = Instruction::Beq {
            rs,
            rt,
            offset: offset - 1,
        }
        .encode();
        let (_, _, short_signature) = execute_routine(&short).unwrap();
        assert_ne!(short_signature, signature);
    }

    #[test]
    fn shifter_atpg_routine_builds() {
        let cut = Cut::shifter(8);
        let routine = RoutineSpec::recommended(&cut).build(&cut).unwrap();
        assert!(routine.size_words() > 10);
    }
}
