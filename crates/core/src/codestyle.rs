//! Phase C: self-test routine code styles (the paper's Figures 1–4).
//!
//! Four code styles turn test patterns into MIPS assembly:
//!
//! - [`emit_atpg_immediate`] — Figure 1: patterns materialized with `li`
//!   (`lui`+`ori`), code size linear in the pattern count, **zero** load
//!   references;
//! - [`emit_atpg_data_fetch`] — Figure 2: patterns fetched from a data
//!   array in a compact loop, constant code size, data size linear;
//! - [`emit_pseudorandom_loop`] — Figure 3: a software LFSR generates
//!   patterns in a compact loop, constant code *and* data size;
//! - [`emit_regular_walking_loop`] — Figure 4: a regular deterministic
//!   generator steps from an initial value to a final value in a compact
//!   loop. The regular routines of [`crate::routine`] pair it with
//!   immediate corner patterns (`RegD (L + I)`).
//!
//! All styles compact responses through the shared 8-word software MISR
//! subroutine ([`emit_misr_subroutine`]) and unload one signature word per
//! CUT ([`emit_signature_unload`]).

use sbst_components::alu::AluFunc;
use sbst_isa::{Asm, Instruction, Reg};
use sbst_tpg::lfsr::LfsrConfig;
use sbst_tpg::misr;

/// The register conventions used by every emitted routine (mirroring the
/// paper's figures, which use `$s0`/`$s1` for patterns and `$s2` for the
/// signature).
pub mod regs {
    use sbst_isa::Reg;

    /// Pattern X.
    pub const X: Reg = Reg::S0;
    /// Pattern Y.
    pub const Y: Reg = Reg::S1;
    /// MISR signature.
    pub const SIG: Reg = Reg::S2;
    /// Pattern array pointer / LFSR state.
    pub const PTR: Reg = Reg::S3;
    /// Pattern count.
    pub const COUNT: Reg = Reg::S4;
    /// Signature unload address.
    pub const SIG_ADDR: Reg = Reg::S5;
    /// MISR polynomial.
    pub const MISR_POLY: Reg = Reg::S6;
    /// LFSR polynomial.
    pub const LFSR_POLY: Reg = Reg::S7;
    /// Loop counter.
    pub const LOOP: Reg = Reg::T0;
    /// Response operand handed to the MISR.
    pub const OPERAND: Reg = Reg::A0;
    /// MISR scratch registers.
    pub const SCRATCH1: Reg = Reg::T8;
    /// Second MISR scratch register.
    pub const SCRATCH2: Reg = Reg::T9;
}

/// A code style, tagged the way Table 1 abbreviates them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CodeStyle {
    /// Figure 1: deterministic patterns as immediates — `AtpgD (I)`.
    AtpgImmediate,
    /// Figure 2: deterministic patterns fetched from memory — `AtpgD (L)`.
    AtpgDataFetch,
    /// Figure 3: software-LFSR loop — `PRnd (L)`.
    PseudorandomLoop,
    /// Figure 4 plus immediate corners — `RegD (L + I)`.
    RegularLoopImmediate,
    /// Regular deterministic patterns, immediates only — `RegD (I)`.
    RegularImmediate,
    /// High-level functional test (all opcodes) — `FT`.
    FunctionalTest,
}

impl CodeStyle {
    /// The Table-1 abbreviation.
    pub fn code(self) -> &'static str {
        match self {
            CodeStyle::AtpgImmediate => "AtpgD (I)",
            CodeStyle::AtpgDataFetch => "AtpgD (L)",
            CodeStyle::PseudorandomLoop => "PRnd (L)",
            CodeStyle::RegularLoopImmediate => "RegD (L + I)",
            CodeStyle::RegularImmediate => "RegD (I)",
            CodeStyle::FunctionalTest => "FT",
        }
    }
}

impl std::fmt::Display for CodeStyle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.code())
    }
}

/// How a two-operand pattern pair `(X, Y)` is applied to the CUT and its
/// responses absorbed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ApplyOp {
    /// A register-addressing ALU instruction (`<func> $a0, $s0, $s1`).
    Alu(AluFunc),
    /// `multu $s0, $s1` followed by absorbing Lo and Hi.
    Multu,
    /// `divu $s0, $s1` followed by absorbing Lo (quotient) and Hi
    /// (remainder).
    Divu,
    /// `sllv`/`srlv`/`srav`-style variable shift (`Y` supplies the amount).
    ShiftVar(sbst_components::shifter::ShiftFunc),
}

fn alu_insn(func: AluFunc, rd: Reg, rs: Reg, rt: Reg) -> Instruction {
    match func {
        AluFunc::And => Instruction::And { rd, rs, rt },
        AluFunc::Or => Instruction::Or { rd, rs, rt },
        AluFunc::Xor => Instruction::Xor { rd, rs, rt },
        AluFunc::Nor => Instruction::Nor { rd, rs, rt },
        AluFunc::Add => Instruction::Addu { rd, rs, rt },
        AluFunc::Sub => Instruction::Subu { rd, rs, rt },
        AluFunc::Slt => Instruction::Slt { rd, rs, rt },
        AluFunc::Sltu => Instruction::Sltu { rd, rs, rt },
    }
}

/// Emits the shared software MISR subroutine — exactly 8 words, matching
/// the paper's "shared software MISR routine of 8 words". Clobbers the
/// scratch registers; the polynomial is expected in [`regs::MISR_POLY`],
/// the response in [`regs::OPERAND`], and the signature accumulates in
/// [`regs::SIG`].
pub fn emit_misr_subroutine(asm: &mut Asm, label: &str) {
    asm.label(label);
    asm.insn(Instruction::Srl {
        rd: regs::SCRATCH1,
        rt: regs::SIG,
        shamt: 31,
    });
    asm.insn(Instruction::Sll {
        rd: regs::SIG,
        rt: regs::SIG,
        shamt: 1,
    });
    asm.insn(Instruction::Xor {
        rd: regs::SIG,
        rs: regs::SIG,
        rt: regs::OPERAND,
    });
    asm.insn(Instruction::Subu {
        rd: regs::SCRATCH2,
        rs: Reg::ZERO,
        rt: regs::SCRATCH1,
    });
    asm.insn(Instruction::And {
        rd: regs::SCRATCH2,
        rs: regs::SCRATCH2,
        rt: regs::MISR_POLY,
    });
    asm.insn(Instruction::Xor {
        rd: regs::SIG,
        rs: regs::SIG,
        rt: regs::SCRATCH2,
    });
    asm.insn(Instruction::Jr { rs: Reg::RA });
    asm.nop(); // delay slot
}

/// Emits an *inline* MISR absorb of `operand` with caller-chosen registers
/// (6 words, no `$ra` use) — used where the jal-based shared routine would
/// clobber registers under test (the register-file march).
pub fn emit_misr_inline(asm: &mut Asm, sig: Reg, poly: Reg, t1: Reg, t2: Reg, operand: Reg) {
    asm.insn(Instruction::Srl {
        rd: t1,
        rt: sig,
        shamt: 31,
    });
    asm.insn(Instruction::Sll {
        rd: sig,
        rt: sig,
        shamt: 1,
    });
    asm.insn(Instruction::Xor {
        rd: sig,
        rs: sig,
        rt: operand,
    });
    asm.insn(Instruction::Subu {
        rd: t2,
        rs: Reg::ZERO,
        rt: t1,
    });
    asm.insn(Instruction::And {
        rd: t2,
        rs: t2,
        rt: poly,
    });
    asm.insn(Instruction::Xor {
        rd: sig,
        rs: sig,
        rt: t2,
    });
}

/// Emits the routine prologue: seeds the signature and loads the MISR
/// polynomial.
pub fn emit_prologue(asm: &mut Asm) {
    asm.li(regs::SIG, misr::DEFAULT_SEED);
    asm.li(regs::MISR_POLY, misr::DEFAULT_POLY);
}

/// Emits the signature unload (`sw $s2, displacement($s5)`), the routine
/// epilogue of every figure in the paper.
pub fn emit_signature_unload(asm: &mut Asm, sig_label: &str) {
    asm.la(regs::SIG_ADDR, sig_label);
    asm.insn(Instruction::Sw {
        rt: regs::SIG,
        base: regs::SIG_ADDR,
        offset: 0,
    });
}

/// Emits one application of the CUT operation plus response compaction via
/// `jal <misr_label>`.
pub fn emit_apply(asm: &mut Asm, apply: ApplyOp, misr_label: &str) {
    match apply {
        ApplyOp::Alu(func) => {
            asm.insn(alu_insn(func, regs::OPERAND, regs::X, regs::Y));
            asm.jal(misr_label);
            asm.nop();
        }
        ApplyOp::Multu => {
            asm.insn(Instruction::Multu {
                rs: regs::X,
                rt: regs::Y,
            });
            asm.insn(Instruction::Mflo { rd: regs::OPERAND });
            asm.jal(misr_label);
            asm.nop();
            asm.insn(Instruction::Mfhi { rd: regs::OPERAND });
            asm.jal(misr_label);
            asm.nop();
        }
        ApplyOp::Divu => {
            asm.insn(Instruction::Divu {
                rs: regs::X,
                rt: regs::Y,
            });
            asm.insn(Instruction::Mflo { rd: regs::OPERAND });
            asm.jal(misr_label);
            asm.nop();
            asm.insn(Instruction::Mfhi { rd: regs::OPERAND });
            asm.jal(misr_label);
            asm.nop();
        }
        ApplyOp::ShiftVar(func) => {
            use sbst_components::shifter::ShiftFunc;
            let insn = match func {
                ShiftFunc::Sll => Instruction::Sllv {
                    rd: regs::OPERAND,
                    rt: regs::X,
                    rs: regs::Y,
                },
                ShiftFunc::Srl => Instruction::Srlv {
                    rd: regs::OPERAND,
                    rt: regs::X,
                    rs: regs::Y,
                },
                ShiftFunc::Sra => Instruction::Srav {
                    rd: regs::OPERAND,
                    rt: regs::X,
                    rs: regs::Y,
                },
            };
            asm.insn(insn);
            asm.jal(misr_label);
            asm.nop();
        }
    }
}

/// Figure 1: ATPG-based code style with immediate instructions.
///
/// For each `(x, y)` pair: `li $s0, x; li $s1, y; <apply>; <absorb>`.
/// Code size is linear in the number of patterns; **no** load references.
pub fn emit_atpg_immediate(
    asm: &mut Asm,
    pairs: &[(u32, u32)],
    applies: &[ApplyOp],
    misr_label: &str,
) {
    for &(x, y) in pairs {
        asm.li(regs::X, x);
        asm.li(regs::Y, y);
        for &apply in applies {
            emit_apply(asm, apply, misr_label);
        }
    }
}

/// Figure 2: ATPG-based code style with data fetching.
///
/// The pattern pairs are appended to the data segment under `data_label`
/// (interleaved `x, y` words) and fetched in a compact loop. Code size is
/// constant; data size and load references are linear in the pattern count.
pub fn emit_atpg_data_fetch(
    asm: &mut Asm,
    pairs: &[(u32, u32)],
    applies: &[ApplyOp],
    data_label: &str,
    loop_label: &str,
    misr_label: &str,
) {
    asm.data_label(data_label);
    for &(x, y) in pairs {
        asm.word(x);
        asm.word(y);
    }
    asm.la(regs::PTR, data_label);
    asm.insn(Instruction::Addi {
        rt: regs::COUNT,
        rs: Reg::ZERO,
        imm: pairs.len() as i16,
    });
    asm.insn(Instruction::Addu {
        rd: regs::LOOP,
        rs: Reg::ZERO,
        rt: Reg::ZERO,
    });
    asm.label(loop_label);
    asm.insn(Instruction::Lw {
        rt: regs::X,
        base: regs::PTR,
        offset: 0,
    });
    asm.insn(Instruction::Addiu {
        rt: regs::PTR,
        rs: regs::PTR,
        imm: 4,
    });
    asm.insn(Instruction::Lw {
        rt: regs::Y,
        base: regs::PTR,
        offset: 0,
    });
    asm.insn(Instruction::Addiu {
        rt: regs::PTR,
        rs: regs::PTR,
        imm: 4,
    });
    for &apply in applies {
        emit_apply(asm, apply, misr_label);
    }
    asm.insn(Instruction::Addiu {
        rt: regs::LOOP,
        rs: regs::LOOP,
        imm: 1,
    });
    asm.bne(regs::COUNT, regs::LOOP, loop_label);
    asm.nop();
}

/// Emits one inline software-LFSR step: advances the state in
/// [`regs::PTR`] (polynomial in [`regs::LFSR_POLY`]) and copies it to
/// `target`.
fn emit_lfsr_step(asm: &mut Asm, target: Reg) {
    asm.insn(Instruction::Andi {
        rt: regs::SCRATCH1,
        rs: regs::PTR,
        imm: 1,
    });
    asm.insn(Instruction::Srl {
        rd: regs::PTR,
        rt: regs::PTR,
        shamt: 1,
    });
    asm.insn(Instruction::Subu {
        rd: regs::SCRATCH2,
        rs: Reg::ZERO,
        rt: regs::SCRATCH1,
    });
    asm.insn(Instruction::And {
        rd: regs::SCRATCH2,
        rs: regs::SCRATCH2,
        rt: regs::LFSR_POLY,
    });
    asm.insn(Instruction::Xor {
        rd: regs::PTR,
        rs: regs::PTR,
        rt: regs::SCRATCH2,
    });
    asm.move_reg(target, regs::PTR);
}

/// Figure 3: pseudorandom code style.
///
/// A software LFSR (seed and polynomial loaded with `li`) generates both
/// pattern words per iteration in a compact loop. Code and data sizes are
/// constant, independent of the pattern count; no load references.
pub fn emit_pseudorandom_loop(
    asm: &mut Asm,
    config: LfsrConfig,
    count: u32,
    applies: &[ApplyOp],
    loop_label: &str,
    misr_label: &str,
) {
    asm.li(regs::PTR, config.seed);
    asm.li(regs::LFSR_POLY, config.poly);
    asm.li(regs::COUNT, count);
    asm.insn(Instruction::Addu {
        rd: regs::LOOP,
        rs: Reg::ZERO,
        rt: Reg::ZERO,
    });
    asm.label(loop_label);
    emit_lfsr_step(asm, regs::X);
    emit_lfsr_step(asm, regs::Y);
    for &apply in applies {
        emit_apply(asm, apply, misr_label);
    }
    asm.insn(Instruction::Addiu {
        rt: regs::LOOP,
        rs: regs::LOOP,
        imm: 1,
    });
    asm.bne(regs::COUNT, regs::LOOP, loop_label);
    asm.nop();
}

/// All ones in the low `width` bits.
pub(crate) fn mask(width: usize) -> u32 {
    if width == 32 {
        u32::MAX
    } else {
        (1u32 << width) - 1
    }
}

/// The `01…01` and `10…10` checkerboards, masked to `width` bits.
pub(crate) fn checkerboards(width: usize) -> (u32, u32) {
    let m = mask(width);
    (0x5555_5555 & m, 0xAAAA_AAAA & m)
}

/// Figure 4: regular deterministic loop code style.
///
/// `walk` (one of [`regs::X`], [`regs::Y`]) walks a single one across the
/// word (`initial value` 1, `generate next` = shift left, `final value` 0
/// after the one falls off) while the other operand register holds
/// all-ones — the linear part of the regular test sets for iterative
/// arrays. Code size is constant.
pub fn emit_regular_walking_loop(
    asm: &mut Asm,
    width: usize,
    walk: Reg,
    applies: &[ApplyOp],
    loop_label: &str,
    misr_label: &str,
) {
    let ones = mask(width);
    let fixed = if walk == regs::X { regs::Y } else { regs::X };
    asm.li(walk, 1); // initial value
    asm.li(fixed, ones); // other operand fixed at all-ones
    asm.label(loop_label);
    for &apply in applies {
        emit_apply(asm, apply, misr_label);
    }
    // generate next pattern (walking one); loop until it falls off.
    asm.insn(Instruction::Sll {
        rd: walk,
        rt: walk,
        shamt: 1,
    });
    if width < 32 {
        asm.insn(Instruction::Andi {
            rt: walk,
            rs: walk,
            imm: ones as u16,
        });
    }
    asm.bne(walk, Reg::ZERO, loop_label); // final value reached
    asm.nop();
}

/// Analytic §3.3 cost model for a style applied to `patterns` pattern
/// pairs whose application costs `apply_words` instructions each.
///
/// Reproduces the paper's qualitative comparison: which styles have code or
/// data linear in the pattern count, and which incur load references.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StyleCosts {
    /// Instruction words.
    pub code_words: usize,
    /// Data words.
    pub data_words: usize,
    /// Data-memory load references.
    pub load_refs: usize,
    /// Whether code size grows with the pattern count.
    pub code_linear: bool,
    /// Whether data size grows with the pattern count.
    pub data_linear: bool,
}

/// Computes the cost model for one style.
pub fn style_costs(style: CodeStyle, patterns: usize, apply_words: usize) -> StyleCosts {
    // li of a full 32-bit value = 2 words; fixed prologue/epilogue ~ 8.
    match style {
        CodeStyle::AtpgImmediate | CodeStyle::RegularImmediate => StyleCosts {
            code_words: patterns * (4 + apply_words) + 8,
            data_words: 1,
            load_refs: 0,
            code_linear: true,
            data_linear: false,
        },
        CodeStyle::AtpgDataFetch => StyleCosts {
            code_words: 11 + apply_words + 8,
            data_words: 2 * patterns + 1,
            load_refs: 2 * patterns,
            code_linear: false,
            data_linear: true,
        },
        CodeStyle::PseudorandomLoop => StyleCosts {
            code_words: 7 + 12 + apply_words + 2 + 8,
            data_words: 1,
            load_refs: 0,
            code_linear: false,
            data_linear: false,
        },
        CodeStyle::RegularLoopImmediate => StyleCosts {
            code_words: 4 + apply_words + 3 + 8,
            data_words: 1,
            load_refs: 0,
            code_linear: false,
            data_linear: false,
        },
        CodeStyle::FunctionalTest => StyleCosts {
            code_words: patterns + 8,
            data_words: 1,
            load_refs: 0,
            code_linear: true,
            data_linear: false,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbst_isa::parse_asm;

    #[test]
    fn misr_subroutine_is_eight_words() {
        let mut asm = Asm::new();
        emit_misr_subroutine(&mut asm, "misr_absorb");
        assert_eq!(asm.text_words(), 8);
    }

    #[test]
    fn styles_have_table1_codes() {
        assert_eq!(CodeStyle::RegularLoopImmediate.code(), "RegD (L + I)");
        assert_eq!(CodeStyle::AtpgImmediate.code(), "AtpgD (I)");
        assert_eq!(CodeStyle::FunctionalTest.code(), "FT");
    }

    #[test]
    fn figure1_shape_matches_paper() {
        // li/li/apply per pattern, no loops, no loads.
        let mut asm = Asm::new();
        emit_misr_subroutine(&mut asm, "m");
        emit_atpg_immediate(
            &mut asm,
            &[(0x11112222, 0x33334444), (0x5555AAAA, 0x0F0F0F0F)],
            &[ApplyOp::Alu(AluFunc::And)],
            "m",
        );
        let program = asm.assemble(0, 0x1000).unwrap();
        let loads = program
            .disassemble()
            .into_iter()
            .filter(|i| i.as_ref().is_ok_and(|i| i.is_load()))
            .count();
        assert_eq!(loads, 0);
    }

    #[test]
    fn figure2_loop_matches_papers_listing() {
        // The paper's Figure 2 skeleton parses and assembles with our
        // toolchain (modulo label/registers), proving the style is the
        // same shape.
        let src = "
            li $s3, 0x2000             # first_pattern_address
            addi $s4, $zero, 4         # number_of_test_patterns
            add $t0, $zero, $zero
            test_pattern_loop:
            lw $s0, 0($s3)
            addiu $s3, $s3, 0x0004
            lw $s1, 0($s3)
            addiu $s3, $s3, 0x0004
            and $a0, $s0, $s1
            addiu $t0, $t0, 0x0001
            bne $s4, $t0, test_pattern_loop
            nop
            li $s5, 0x3000             # signature_address
            sw $s2, 4($s5)
            break 0
        ";
        assert!(parse_asm(src).unwrap().assemble(0, 0x2000).is_ok());
    }

    #[test]
    fn cost_model_scaling() {
        let a = style_costs(CodeStyle::AtpgImmediate, 10, 3);
        let b = style_costs(CodeStyle::AtpgImmediate, 20, 3);
        assert!(b.code_words > a.code_words);
        let c = style_costs(CodeStyle::AtpgDataFetch, 10, 3);
        let d = style_costs(CodeStyle::AtpgDataFetch, 20, 3);
        assert_eq!(c.code_words, d.code_words);
        assert!(d.data_words > c.data_words);
        assert!(d.load_refs > c.load_refs);
        let e = style_costs(CodeStyle::PseudorandomLoop, 10, 3);
        let f = style_costs(CodeStyle::PseudorandomLoop, 10_000, 3);
        assert_eq!(e, f);
    }
}
