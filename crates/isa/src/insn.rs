//! Instruction definitions, encoding and decoding.

use std::error::Error;
use std::fmt;

use crate::reg::Reg;

/// A decoded instruction of the implemented MIPS-I subset.
///
/// Field names follow the MIPS manuals: `rs`/`rt` are sources (with `rt`
/// doubling as destination for immediates and loads), `rd` is the R-type
/// destination, `imm` the 16-bit immediate and `shamt` the shift amount.
///
/// Every variant round-trips through [`Instruction::encode`] and
/// [`Instruction::decode`]:
///
/// ```
/// use sbst_isa::{Instruction, Reg};
///
/// let insn = Instruction::Addu { rd: Reg::T0, rs: Reg::S0, rt: Reg::S1 };
/// assert_eq!(Instruction::decode(insn.encode()).unwrap(), insn);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)] // field meanings documented at the type level
pub enum Instruction {
    // --- R-type arithmetic/logic ---
    Add { rd: Reg, rs: Reg, rt: Reg },
    Addu { rd: Reg, rs: Reg, rt: Reg },
    Sub { rd: Reg, rs: Reg, rt: Reg },
    Subu { rd: Reg, rs: Reg, rt: Reg },
    And { rd: Reg, rs: Reg, rt: Reg },
    Or { rd: Reg, rs: Reg, rt: Reg },
    Xor { rd: Reg, rs: Reg, rt: Reg },
    Nor { rd: Reg, rs: Reg, rt: Reg },
    Slt { rd: Reg, rs: Reg, rt: Reg },
    Sltu { rd: Reg, rs: Reg, rt: Reg },
    // --- shifts ---
    Sll { rd: Reg, rt: Reg, shamt: u8 },
    Srl { rd: Reg, rt: Reg, shamt: u8 },
    Sra { rd: Reg, rt: Reg, shamt: u8 },
    Sllv { rd: Reg, rt: Reg, rs: Reg },
    Srlv { rd: Reg, rt: Reg, rs: Reg },
    Srav { rd: Reg, rt: Reg, rs: Reg },
    // --- multiply/divide unit ---
    Mult { rs: Reg, rt: Reg },
    Multu { rs: Reg, rt: Reg },
    Div { rs: Reg, rt: Reg },
    Divu { rs: Reg, rt: Reg },
    Mfhi { rd: Reg },
    Mflo { rd: Reg },
    Mthi { rs: Reg },
    Mtlo { rs: Reg },
    // --- immediate arithmetic/logic ---
    Addi { rt: Reg, rs: Reg, imm: i16 },
    Addiu { rt: Reg, rs: Reg, imm: i16 },
    Slti { rt: Reg, rs: Reg, imm: i16 },
    Sltiu { rt: Reg, rs: Reg, imm: i16 },
    Andi { rt: Reg, rs: Reg, imm: u16 },
    Ori { rt: Reg, rs: Reg, imm: u16 },
    Xori { rt: Reg, rs: Reg, imm: u16 },
    Lui { rt: Reg, imm: u16 },
    // --- branches (offset in instructions, relative to delay slot) ---
    Beq { rs: Reg, rt: Reg, offset: i16 },
    Bne { rs: Reg, rt: Reg, offset: i16 },
    Blez { rs: Reg, offset: i16 },
    Bgtz { rs: Reg, offset: i16 },
    Bltz { rs: Reg, offset: i16 },
    Bgez { rs: Reg, offset: i16 },
    // --- jumps ---
    J { target: u32 },
    Jal { target: u32 },
    Jr { rs: Reg },
    Jalr { rd: Reg, rs: Reg },
    // --- memory ---
    Lb { rt: Reg, base: Reg, offset: i16 },
    Lbu { rt: Reg, base: Reg, offset: i16 },
    Lh { rt: Reg, base: Reg, offset: i16 },
    Lhu { rt: Reg, base: Reg, offset: i16 },
    Lw { rt: Reg, base: Reg, offset: i16 },
    Sb { rt: Reg, base: Reg, offset: i16 },
    Sh { rt: Reg, base: Reg, offset: i16 },
    Sw { rt: Reg, base: Reg, offset: i16 },
    // --- system ---
    Break { code: u32 },
}

/// Error decoding a 32-bit word into an [`Instruction`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecodeError {
    /// The word that failed to decode.
    pub word: u32,
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cannot decode instruction word {:#010x}", self.word)
    }
}

impl Error for DecodeError {}

fn r_type(funct: u32, rs: Reg, rt: Reg, rd: Reg, shamt: u8) -> u32 {
    ((rs.number() as u32) << 21)
        | ((rt.number() as u32) << 16)
        | ((rd.number() as u32) << 11)
        | ((shamt as u32) << 6)
        | funct
}

fn i_type(op: u32, rs: Reg, rt: Reg, imm: u16) -> u32 {
    (op << 26) | ((rs.number() as u32) << 21) | ((rt.number() as u32) << 16) | imm as u32
}

impl Instruction {
    /// The canonical no-operation (`sll $zero, $zero, 0`).
    pub fn nop() -> Self {
        Instruction::Sll {
            rd: Reg::ZERO,
            rt: Reg::ZERO,
            shamt: 0,
        }
    }

    /// `move rd, rs` pseudo-instruction (`addu rd, rs, $zero`).
    pub fn move_reg(rd: Reg, rs: Reg) -> Self {
        Instruction::Addu {
            rd,
            rs,
            rt: Reg::ZERO,
        }
    }

    /// Encodes to the 32-bit machine word.
    pub fn encode(self) -> u32 {
        use Instruction::*;
        let z = Reg::ZERO;
        match self {
            Sll { rd, rt, shamt } => r_type(0x00, z, rt, rd, shamt),
            Srl { rd, rt, shamt } => r_type(0x02, z, rt, rd, shamt),
            Sra { rd, rt, shamt } => r_type(0x03, z, rt, rd, shamt),
            Sllv { rd, rt, rs } => r_type(0x04, rs, rt, rd, 0),
            Srlv { rd, rt, rs } => r_type(0x06, rs, rt, rd, 0),
            Srav { rd, rt, rs } => r_type(0x07, rs, rt, rd, 0),
            Jr { rs } => r_type(0x08, rs, z, z, 0),
            Jalr { rd, rs } => r_type(0x09, rs, z, rd, 0),
            Break { code } => ((code & 0xFFFFF) << 6) | 0x0D,
            Mfhi { rd } => r_type(0x10, z, z, rd, 0),
            Mthi { rs } => r_type(0x11, rs, z, z, 0),
            Mflo { rd } => r_type(0x12, z, z, rd, 0),
            Mtlo { rs } => r_type(0x13, rs, z, z, 0),
            Mult { rs, rt } => r_type(0x18, rs, rt, z, 0),
            Multu { rs, rt } => r_type(0x19, rs, rt, z, 0),
            Div { rs, rt } => r_type(0x1A, rs, rt, z, 0),
            Divu { rs, rt } => r_type(0x1B, rs, rt, z, 0),
            Add { rd, rs, rt } => r_type(0x20, rs, rt, rd, 0),
            Addu { rd, rs, rt } => r_type(0x21, rs, rt, rd, 0),
            Sub { rd, rs, rt } => r_type(0x22, rs, rt, rd, 0),
            Subu { rd, rs, rt } => r_type(0x23, rs, rt, rd, 0),
            And { rd, rs, rt } => r_type(0x24, rs, rt, rd, 0),
            Or { rd, rs, rt } => r_type(0x25, rs, rt, rd, 0),
            Xor { rd, rs, rt } => r_type(0x26, rs, rt, rd, 0),
            Nor { rd, rs, rt } => r_type(0x27, rs, rt, rd, 0),
            Slt { rd, rs, rt } => r_type(0x2A, rs, rt, rd, 0),
            Sltu { rd, rs, rt } => r_type(0x2B, rs, rt, rd, 0),
            Bltz { rs, offset } => i_type(0x01, rs, Reg::new(0), offset as u16),
            Bgez { rs, offset } => i_type(0x01, rs, Reg::new(1), offset as u16),
            J { target } => (0x02 << 26) | (target & 0x03FF_FFFF),
            Jal { target } => (0x03 << 26) | (target & 0x03FF_FFFF),
            Beq { rs, rt, offset } => i_type(0x04, rs, rt, offset as u16),
            Bne { rs, rt, offset } => i_type(0x05, rs, rt, offset as u16),
            Blez { rs, offset } => i_type(0x06, rs, z, offset as u16),
            Bgtz { rs, offset } => i_type(0x07, rs, z, offset as u16),
            Addi { rt, rs, imm } => i_type(0x08, rs, rt, imm as u16),
            Addiu { rt, rs, imm } => i_type(0x09, rs, rt, imm as u16),
            Slti { rt, rs, imm } => i_type(0x0A, rs, rt, imm as u16),
            Sltiu { rt, rs, imm } => i_type(0x0B, rs, rt, imm as u16),
            Andi { rt, rs, imm } => i_type(0x0C, rs, rt, imm),
            Ori { rt, rs, imm } => i_type(0x0D, rs, rt, imm),
            Xori { rt, rs, imm } => i_type(0x0E, rs, rt, imm),
            Lui { rt, imm } => i_type(0x0F, z, rt, imm),
            Lb { rt, base, offset } => i_type(0x20, base, rt, offset as u16),
            Lh { rt, base, offset } => i_type(0x21, base, rt, offset as u16),
            Lw { rt, base, offset } => i_type(0x23, base, rt, offset as u16),
            Lbu { rt, base, offset } => i_type(0x24, base, rt, offset as u16),
            Lhu { rt, base, offset } => i_type(0x25, base, rt, offset as u16),
            Sb { rt, base, offset } => i_type(0x28, base, rt, offset as u16),
            Sh { rt, base, offset } => i_type(0x29, base, rt, offset as u16),
            Sw { rt, base, offset } => i_type(0x2B, base, rt, offset as u16),
        }
    }

    /// Decodes a 32-bit machine word.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError`] for opcodes or function codes outside the
    /// implemented subset.
    pub fn decode(word: u32) -> Result<Self, DecodeError> {
        use Instruction::*;
        let op = word >> 26;
        let rs = Reg::new(((word >> 21) & 0x1F) as u8);
        let rt = Reg::new(((word >> 16) & 0x1F) as u8);
        let rd = Reg::new(((word >> 11) & 0x1F) as u8);
        let shamt = ((word >> 6) & 0x1F) as u8;
        let imm = (word & 0xFFFF) as u16;
        let simm = imm as i16;
        let err = DecodeError { word };
        Ok(match op {
            0x00 => match word & 0x3F {
                0x00 => Sll { rd, rt, shamt },
                0x02 => Srl { rd, rt, shamt },
                0x03 => Sra { rd, rt, shamt },
                0x04 => Sllv { rd, rt, rs },
                0x06 => Srlv { rd, rt, rs },
                0x07 => Srav { rd, rt, rs },
                0x08 => Jr { rs },
                0x09 => Jalr { rd, rs },
                0x0D => Break {
                    code: (word >> 6) & 0xFFFFF,
                },
                0x10 => Mfhi { rd },
                0x11 => Mthi { rs },
                0x12 => Mflo { rd },
                0x13 => Mtlo { rs },
                0x18 => Mult { rs, rt },
                0x19 => Multu { rs, rt },
                0x1A => Div { rs, rt },
                0x1B => Divu { rs, rt },
                0x20 => Add { rd, rs, rt },
                0x21 => Addu { rd, rs, rt },
                0x22 => Sub { rd, rs, rt },
                0x23 => Subu { rd, rs, rt },
                0x24 => And { rd, rs, rt },
                0x25 => Or { rd, rs, rt },
                0x26 => Xor { rd, rs, rt },
                0x27 => Nor { rd, rs, rt },
                0x2A => Slt { rd, rs, rt },
                0x2B => Sltu { rd, rs, rt },
                _ => return Err(err),
            },
            0x01 => match rt.number() {
                0 => Bltz { rs, offset: simm },
                1 => Bgez { rs, offset: simm },
                _ => return Err(err),
            },
            0x02 => J {
                target: word & 0x03FF_FFFF,
            },
            0x03 => Jal {
                target: word & 0x03FF_FFFF,
            },
            0x04 => Beq {
                rs,
                rt,
                offset: simm,
            },
            0x05 => Bne {
                rs,
                rt,
                offset: simm,
            },
            0x06 => Blez { rs, offset: simm },
            0x07 => Bgtz { rs, offset: simm },
            0x08 => Addi { rt, rs, imm: simm },
            0x09 => Addiu { rt, rs, imm: simm },
            0x0A => Slti { rt, rs, imm: simm },
            0x0B => Sltiu { rt, rs, imm: simm },
            0x0C => Andi { rt, rs, imm },
            0x0D => Ori { rt, rs, imm },
            0x0E => Xori { rt, rs, imm },
            0x0F => Lui { rt, imm },
            0x20 => Lb {
                rt,
                base: rs,
                offset: simm,
            },
            0x21 => Lh {
                rt,
                base: rs,
                offset: simm,
            },
            0x23 => Lw {
                rt,
                base: rs,
                offset: simm,
            },
            0x24 => Lbu {
                rt,
                base: rs,
                offset: simm,
            },
            0x25 => Lhu {
                rt,
                base: rs,
                offset: simm,
            },
            0x28 => Sb {
                rt,
                base: rs,
                offset: simm,
            },
            0x29 => Sh {
                rt,
                base: rs,
                offset: simm,
            },
            0x2B => Sw {
                rt,
                base: rs,
                offset: simm,
            },
            _ => return Err(err),
        })
    }

    /// The assembly mnemonic.
    pub fn mnemonic(self) -> &'static str {
        use Instruction::*;
        match self {
            Add { .. } => "add",
            Addu { .. } => "addu",
            Sub { .. } => "sub",
            Subu { .. } => "subu",
            And { .. } => "and",
            Or { .. } => "or",
            Xor { .. } => "xor",
            Nor { .. } => "nor",
            Slt { .. } => "slt",
            Sltu { .. } => "sltu",
            Sll { .. } => "sll",
            Srl { .. } => "srl",
            Sra { .. } => "sra",
            Sllv { .. } => "sllv",
            Srlv { .. } => "srlv",
            Srav { .. } => "srav",
            Mult { .. } => "mult",
            Multu { .. } => "multu",
            Div { .. } => "div",
            Divu { .. } => "divu",
            Mfhi { .. } => "mfhi",
            Mflo { .. } => "mflo",
            Mthi { .. } => "mthi",
            Mtlo { .. } => "mtlo",
            Addi { .. } => "addi",
            Addiu { .. } => "addiu",
            Slti { .. } => "slti",
            Sltiu { .. } => "sltiu",
            Andi { .. } => "andi",
            Ori { .. } => "ori",
            Xori { .. } => "xori",
            Lui { .. } => "lui",
            Beq { .. } => "beq",
            Bne { .. } => "bne",
            Blez { .. } => "blez",
            Bgtz { .. } => "bgtz",
            Bltz { .. } => "bltz",
            Bgez { .. } => "bgez",
            J { .. } => "j",
            Jal { .. } => "jal",
            Jr { .. } => "jr",
            Jalr { .. } => "jalr",
            Lb { .. } => "lb",
            Lbu { .. } => "lbu",
            Lh { .. } => "lh",
            Lhu { .. } => "lhu",
            Lw { .. } => "lw",
            Sb { .. } => "sb",
            Sh { .. } => "sh",
            Sw { .. } => "sw",
            Break { .. } => "break",
        }
    }

    /// Returns `true` for loads (`lb`, `lbu`, `lh`, `lhu`, `lw`).
    pub fn is_load(self) -> bool {
        use Instruction::*;
        matches!(
            self,
            Lb { .. } | Lbu { .. } | Lh { .. } | Lhu { .. } | Lw { .. }
        )
    }

    /// Returns `true` for stores (`sb`, `sh`, `sw`).
    pub fn is_store(self) -> bool {
        use Instruction::*;
        matches!(self, Sb { .. } | Sh { .. } | Sw { .. })
    }

    /// The general-purpose register written by this instruction, if any
    /// (`$zero` writes are reported and must be ignored by the executor).
    pub fn written_reg(self) -> Option<Reg> {
        use Instruction::*;
        match self {
            Add { rd, .. }
            | Addu { rd, .. }
            | Sub { rd, .. }
            | Subu { rd, .. }
            | And { rd, .. }
            | Or { rd, .. }
            | Xor { rd, .. }
            | Nor { rd, .. }
            | Slt { rd, .. }
            | Sltu { rd, .. }
            | Sll { rd, .. }
            | Srl { rd, .. }
            | Sra { rd, .. }
            | Sllv { rd, .. }
            | Srlv { rd, .. }
            | Srav { rd, .. }
            | Mfhi { rd }
            | Mflo { rd }
            | Jalr { rd, .. } => Some(rd),
            Addi { rt, .. }
            | Addiu { rt, .. }
            | Slti { rt, .. }
            | Sltiu { rt, .. }
            | Andi { rt, .. }
            | Ori { rt, .. }
            | Xori { rt, .. }
            | Lui { rt, .. }
            | Lb { rt, .. }
            | Lbu { rt, .. }
            | Lh { rt, .. }
            | Lhu { rt, .. }
            | Lw { rt, .. } => Some(rt),
            Jal { .. } => Some(Reg::RA),
            _ => None,
        }
    }

    /// The general-purpose registers read by this instruction.
    pub fn read_regs(self) -> (Option<Reg>, Option<Reg>) {
        use Instruction::*;
        match self {
            Add { rs, rt, .. }
            | Addu { rs, rt, .. }
            | Sub { rs, rt, .. }
            | Subu { rs, rt, .. }
            | And { rs, rt, .. }
            | Or { rs, rt, .. }
            | Xor { rs, rt, .. }
            | Nor { rs, rt, .. }
            | Slt { rs, rt, .. }
            | Sltu { rs, rt, .. }
            | Mult { rs, rt }
            | Multu { rs, rt }
            | Div { rs, rt }
            | Divu { rs, rt }
            | Beq { rs, rt, .. }
            | Bne { rs, rt, .. } => (Some(rs), Some(rt)),
            Sllv { rs, rt, .. } | Srlv { rs, rt, .. } | Srav { rs, rt, .. } => (Some(rs), Some(rt)),
            Sll { rt, .. } | Srl { rt, .. } | Sra { rt, .. } => (Some(rt), None),
            Addi { rs, .. }
            | Addiu { rs, .. }
            | Slti { rs, .. }
            | Sltiu { rs, .. }
            | Andi { rs, .. }
            | Ori { rs, .. }
            | Xori { rs, .. }
            | Blez { rs, .. }
            | Bgtz { rs, .. }
            | Bltz { rs, .. }
            | Bgez { rs, .. }
            | Jr { rs }
            | Jalr { rs, .. }
            | Mthi { rs }
            | Mtlo { rs } => (Some(rs), None),
            Lb { base, .. }
            | Lbu { base, .. }
            | Lh { base, .. }
            | Lhu { base, .. }
            | Lw { base, .. } => (Some(base), None),
            Sb { rt, base, .. } | Sh { rt, base, .. } | Sw { rt, base, .. } => {
                (Some(base), Some(rt))
            }
            Lui { .. } | J { .. } | Jal { .. } | Mfhi { .. } | Mflo { .. } | Break { .. } => {
                (None, None)
            }
        }
    }
}

impl fmt::Display for Instruction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        use Instruction::*;
        let m = self.mnemonic();
        match *self {
            Add { rd, rs, rt }
            | Addu { rd, rs, rt }
            | Sub { rd, rs, rt }
            | Subu { rd, rs, rt }
            | And { rd, rs, rt }
            | Or { rd, rs, rt }
            | Xor { rd, rs, rt }
            | Nor { rd, rs, rt }
            | Slt { rd, rs, rt }
            | Sltu { rd, rs, rt } => write!(f, "{m} {rd}, {rs}, {rt}"),
            Sll { rd, rt, shamt } | Srl { rd, rt, shamt } | Sra { rd, rt, shamt } => {
                write!(f, "{m} {rd}, {rt}, {shamt}")
            }
            Sllv { rd, rt, rs } | Srlv { rd, rt, rs } | Srav { rd, rt, rs } => {
                write!(f, "{m} {rd}, {rt}, {rs}")
            }
            Mult { rs, rt } | Multu { rs, rt } | Div { rs, rt } | Divu { rs, rt } => {
                write!(f, "{m} {rs}, {rt}")
            }
            Mfhi { rd } | Mflo { rd } => write!(f, "{m} {rd}"),
            Mthi { rs } | Mtlo { rs } | Jr { rs } => write!(f, "{m} {rs}"),
            Jalr { rd, rs } => write!(f, "{m} {rd}, {rs}"),
            Addi { rt, rs, imm }
            | Addiu { rt, rs, imm }
            | Slti { rt, rs, imm }
            | Sltiu { rt, rs, imm } => write!(f, "{m} {rt}, {rs}, {imm}"),
            Andi { rt, rs, imm } | Ori { rt, rs, imm } | Xori { rt, rs, imm } => {
                write!(f, "{m} {rt}, {rs}, {imm:#x}")
            }
            Lui { rt, imm } => write!(f, "{m} {rt}, {imm:#x}"),
            Beq { rs, rt, offset } | Bne { rs, rt, offset } => {
                write!(f, "{m} {rs}, {rt}, {offset}")
            }
            Blez { rs, offset }
            | Bgtz { rs, offset }
            | Bltz { rs, offset }
            | Bgez { rs, offset } => write!(f, "{m} {rs}, {offset}"),
            J { target } | Jal { target } => write!(f, "{m} {:#x}", target << 2),
            Lb { rt, base, offset }
            | Lbu { rt, base, offset }
            | Lh { rt, base, offset }
            | Lhu { rt, base, offset }
            | Lw { rt, base, offset }
            | Sb { rt, base, offset }
            | Sh { rt, base, offset }
            | Sw { rt, base, offset } => {
                write!(f, "{m} {rt}, {offset}({base})")
            }
            Break { code } => write!(f, "{m} {code}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_instructions() -> Vec<Instruction> {
        use Instruction::*;
        let (a, b, c) = (Reg::T0, Reg::S1, Reg::A2);
        vec![
            Add {
                rd: a,
                rs: b,
                rt: c,
            },
            Addu {
                rd: a,
                rs: b,
                rt: c,
            },
            Sub {
                rd: a,
                rs: b,
                rt: c,
            },
            Subu {
                rd: a,
                rs: b,
                rt: c,
            },
            And {
                rd: a,
                rs: b,
                rt: c,
            },
            Or {
                rd: a,
                rs: b,
                rt: c,
            },
            Xor {
                rd: a,
                rs: b,
                rt: c,
            },
            Nor {
                rd: a,
                rs: b,
                rt: c,
            },
            Slt {
                rd: a,
                rs: b,
                rt: c,
            },
            Sltu {
                rd: a,
                rs: b,
                rt: c,
            },
            Sll {
                rd: a,
                rt: c,
                shamt: 7,
            },
            Srl {
                rd: a,
                rt: c,
                shamt: 31,
            },
            Sra {
                rd: a,
                rt: c,
                shamt: 1,
            },
            Sllv {
                rd: a,
                rt: c,
                rs: b,
            },
            Srlv {
                rd: a,
                rt: c,
                rs: b,
            },
            Srav {
                rd: a,
                rt: c,
                rs: b,
            },
            Mult { rs: b, rt: c },
            Multu { rs: b, rt: c },
            Div { rs: b, rt: c },
            Divu { rs: b, rt: c },
            Mfhi { rd: a },
            Mflo { rd: a },
            Mthi { rs: b },
            Mtlo { rs: b },
            Addi {
                rt: a,
                rs: b,
                imm: -5,
            },
            Addiu {
                rt: a,
                rs: b,
                imm: 5,
            },
            Slti {
                rt: a,
                rs: b,
                imm: -1,
            },
            Sltiu {
                rt: a,
                rs: b,
                imm: 1,
            },
            Andi {
                rt: a,
                rs: b,
                imm: 0xFFFF,
            },
            Ori {
                rt: a,
                rs: b,
                imm: 0xABCD,
            },
            Xori {
                rt: a,
                rs: b,
                imm: 0x5555,
            },
            Lui { rt: a, imm: 0x8000 },
            Beq {
                rs: b,
                rt: c,
                offset: -3,
            },
            Bne {
                rs: b,
                rt: c,
                offset: 3,
            },
            Blez { rs: b, offset: 2 },
            Bgtz { rs: b, offset: -2 },
            Bltz { rs: b, offset: 1 },
            Bgez { rs: b, offset: -1 },
            J { target: 0x12345 },
            Jal { target: 0x3FFFFFF },
            Jr { rs: Reg::RA },
            Jalr { rd: Reg::RA, rs: b },
            Lb {
                rt: a,
                base: b,
                offset: -4,
            },
            Lbu {
                rt: a,
                base: b,
                offset: 4,
            },
            Lh {
                rt: a,
                base: b,
                offset: -8,
            },
            Lhu {
                rt: a,
                base: b,
                offset: 8,
            },
            Lw {
                rt: a,
                base: b,
                offset: 12,
            },
            Sb {
                rt: a,
                base: b,
                offset: -12,
            },
            Sh {
                rt: a,
                base: b,
                offset: 16,
            },
            Sw {
                rt: a,
                base: b,
                offset: -16,
            },
            Break { code: 42 },
        ]
    }

    #[test]
    fn encode_decode_roundtrip() {
        for insn in sample_instructions() {
            let word = insn.encode();
            assert_eq!(Instruction::decode(word), Ok(insn), "{insn}");
        }
    }

    #[test]
    fn nop_encodes_to_zero() {
        assert_eq!(Instruction::nop().encode(), 0);
        assert_eq!(Instruction::decode(0).unwrap(), Instruction::nop());
    }

    #[test]
    fn known_encodings() {
        // add $t0, $s1, $a2 -> 0x0226_4020
        let w = Instruction::Add {
            rd: Reg::T0,
            rs: Reg::S1,
            rt: Reg::A2,
        }
        .encode();
        assert_eq!(w, (17 << 21) | (6 << 16) | (8 << 11) | 0x20);
        // lw $t0, 4($sp)
        let w = Instruction::Lw {
            rt: Reg::T0,
            base: Reg::SP,
            offset: 4,
        }
        .encode();
        assert_eq!(w, (0x23 << 26) | (29 << 21) | (8 << 16) | 4);
    }

    #[test]
    fn decode_rejects_unknown() {
        assert!(Instruction::decode(0xFC00_0000).is_err()); // opcode 0x3F
        assert!(Instruction::decode(0x0000_003F).is_err()); // funct 0x3F
    }

    #[test]
    fn classification_helpers() {
        let lw = Instruction::Lw {
            rt: Reg::T0,
            base: Reg::SP,
            offset: 0,
        };
        assert!(lw.is_load() && !lw.is_store());
        let sw = Instruction::Sw {
            rt: Reg::T0,
            base: Reg::SP,
            offset: 0,
        };
        assert!(sw.is_store() && !sw.is_load());
        let beq = Instruction::Beq {
            rs: Reg::T0,
            rt: Reg::T1,
            offset: 0,
        };
        assert!(!beq.is_load() && !beq.is_store());
    }

    #[test]
    fn register_dataflow_helpers() {
        let add = Instruction::Add {
            rd: Reg::T0,
            rs: Reg::S1,
            rt: Reg::A2,
        };
        assert_eq!(add.written_reg(), Some(Reg::T0));
        assert_eq!(add.read_regs(), (Some(Reg::S1), Some(Reg::A2)));
        let jal = Instruction::Jal { target: 0 };
        assert_eq!(jal.written_reg(), Some(Reg::RA));
        let sw = Instruction::Sw {
            rt: Reg::T0,
            base: Reg::SP,
            offset: 0,
        };
        assert_eq!(sw.written_reg(), None);
        assert_eq!(sw.read_regs(), (Some(Reg::SP), Some(Reg::T0)));
    }

    #[test]
    fn display_formats() {
        let insn = Instruction::Add {
            rd: Reg::T0,
            rs: Reg::S1,
            rt: Reg::A2,
        };
        assert_eq!(insn.to_string(), "add $t0, $s1, $a2");
        let insn = Instruction::Lw {
            rt: Reg::T0,
            base: Reg::SP,
            offset: -4,
        };
        assert_eq!(insn.to_string(), "lw $t0, -4($sp)");
        let insn = Instruction::Lui {
            rt: Reg::S0,
            imm: 0xABCD,
        };
        assert_eq!(insn.to_string(), "lui $s0, 0xabcd");
    }
}
