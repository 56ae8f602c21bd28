//! The instruction-set simulator with Plasma-like cycle accounting.

use std::error::Error;
use std::fmt;

use sbst_components::alu::{AluFunc, AluOp};
use sbst_components::comparator::CmpOp;
use sbst_components::control::ControlOp;
use sbst_components::divider::DivOp;
use sbst_components::memctrl::{AccessSize, MemOp};
use sbst_components::misc::PcOp;
use sbst_components::multiplier::MulOp;
use sbst_components::pipeline::PipelineOp;
use sbst_components::regfile::RegFileOp;
use sbst_components::shifter::{ShiftFunc, ShiftOp};
use sbst_isa::{Instruction, Program, Reg};

use crate::cache::{Cache, CacheConfig};
use crate::faulty::ArchFault;
use crate::memory::Memory;
use crate::trace::OperandTrace;

/// Hi/Lo latency of `div`/`divu`, in cycles after issue.
///
/// The serial restoring divider's protocol (see
/// `sbst_components::divider::stimulus`) is one start/load cycle followed
/// by `width` = 32 iteration cycles, so a dependent `mflo` issued
/// back-to-back waits `DIV_LATENCY - 1` cycles.
pub const DIV_LATENCY: u64 = 33;

/// CPU configuration.
///
/// The defaults model the paper's evaluation vehicle: a 3-stage MIPS
/// pipeline **with forwarding** (no data-hazard stalls), branch delay slots
/// (no control-hazard stalls for correctly scheduled code), a single-cycle
/// parallel multiplier and a [`DIV_LATENCY`]-cycle serial divider. Cache
/// simulation is off by default (Table 1 reports raw CPU cycles; cache
/// effects enter through the analytic model of Section 4).
#[derive(Debug, Clone, Copy)]
pub struct CpuConfig {
    /// Full forwarding: RAW hazards cost nothing. With `false`, the decode
    /// stage stalls dependent instructions (used to demonstrate why the
    /// paper's code styles avoid unresolved data hazards).
    pub forwarding: bool,
    /// Instruction cache simulation (miss cycles added to memory stalls).
    pub icache: Option<CacheConfig>,
    /// Data cache simulation.
    pub dcache: Option<CacheConfig>,
    /// Record per-component operand traces while executing.
    pub trace: bool,
    /// Execute words outside the implemented subset as no-ops, like a
    /// Plasma-class core without exception support (instead of raising
    /// [`CpuError::Decode`]). Self-test programs use this to sweep the
    /// opcode space through the control decoder.
    pub undecoded_as_nop: bool,
    /// Stall cycles charged per *taken* control transfer. 0 models the
    /// Plasma's branch-delay-slot architecture (the default); a nonzero
    /// value models a predict-not-taken pipeline, where the paper notes
    /// "pipeline stalls are unavoidable when branch prediction is used".
    pub branch_penalty: u32,
    /// Watchdog: abort after this many instructions.
    pub max_instructions: u64,
}

impl Default for CpuConfig {
    fn default() -> Self {
        CpuConfig {
            forwarding: true,
            icache: None,
            dcache: None,
            trace: false,
            undecoded_as_nop: false,
            branch_penalty: 0,
            max_instructions: 50_000_000,
        }
    }
}

impl CpuConfig {
    /// The CPU every self-test program runs on: the default core, with
    /// undecoded words executed as no-ops because some routine styles
    /// sweep the opcode space through the control decoder.
    pub fn self_test() -> Self {
        CpuConfig {
            undecoded_as_nop: true,
            ..CpuConfig::default()
        }
    }
}

/// Execution statistics in the terms of the paper's Section 2 equation:
/// `CPU-execution-time = clock-cycle-time × (CPU-clock-cycles +
/// pipeline-stall-cycles + memory-stall-cycles)`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Instructions retired.
    pub instructions: u64,
    /// Base CPU clock cycles (instruction issue plus multi-cycle unit
    /// occupancy and memory-access cycles).
    pub cycles: u64,
    /// Pipeline stall cycles (divider waits; RAW stalls when forwarding is
    /// disabled).
    pub pipeline_stall_cycles: u64,
    /// Memory stall cycles from simulated caches (0 when caches are off).
    pub memory_stall_cycles: u64,
    /// Load instructions executed.
    pub loads: u64,
    /// Store instructions executed.
    pub stores: u64,
    /// Instruction fetches.
    pub imem_accesses: u64,
    /// Data memory accesses.
    pub dmem_accesses: u64,
    /// Taken control transfers.
    pub taken_branches: u64,
    /// Instruction-cache misses (simulated caches only).
    pub icache_misses: u64,
    /// Data-cache misses (simulated caches only).
    pub dcache_misses: u64,
}

impl ExecStats {
    /// Loads + stores — the paper's "Data Refer." column.
    pub fn data_refs(&self) -> u64 {
        self.loads + self.stores
    }

    /// All three cycle terms summed.
    pub fn total_cycles(&self) -> u64 {
        self.cycles + self.pipeline_stall_cycles + self.memory_stall_cycles
    }

    /// Instruction-cache hit rate in `0.0..=1.0`; `None` without accesses
    /// (e.g. cache simulation off never misses, so the rate is 1.0 only
    /// when a cache was actually simulated — callers should gate on
    /// configuration, this helper just divides).
    pub fn icache_hit_rate(&self) -> Option<f64> {
        (self.imem_accesses > 0)
            .then(|| 1.0 - self.icache_misses as f64 / self.imem_accesses as f64)
    }

    /// Data-cache hit rate in `0.0..=1.0`; `None` without data accesses.
    pub fn dcache_hit_rate(&self) -> Option<f64> {
        (self.dmem_accesses > 0)
            .then(|| 1.0 - self.dcache_misses as f64 / self.dmem_accesses as f64)
    }
}

/// Error raised by [`Cpu::step`] / [`Cpu::run`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CpuError {
    /// Undecodable instruction word.
    Decode {
        /// The offending word.
        word: u32,
        /// Its address.
        pc: u32,
    },
    /// Misaligned memory access.
    Unaligned {
        /// The effective address.
        addr: u32,
        /// The faulting instruction's address.
        pc: u32,
    },
    /// The watchdog instruction limit was reached.
    InstructionLimit {
        /// The configured limit.
        limit: u64,
    },
}

impl fmt::Display for CpuError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CpuError::Decode { word, pc } => {
                write!(f, "cannot decode {word:#010x} at pc {pc:#010x}")
            }
            CpuError::Unaligned { addr, pc } => {
                write!(f, "misaligned access to {addr:#010x} at pc {pc:#010x}")
            }
            CpuError::InstructionLimit { limit } => {
                write!(f, "instruction watchdog tripped after {limit} instructions")
            }
        }
    }
}

impl Error for CpuError {}

/// Result of a completed run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunOutcome {
    /// Final statistics.
    pub stats: ExecStats,
    /// The `break` code that terminated execution.
    pub break_code: u32,
}

/// The instruction-set simulator. See the [crate-level example](crate).
#[derive(Debug)]
pub struct Cpu {
    config: CpuConfig,
    regs: [u32; 32],
    hi: u32,
    lo: u32,
    pc: u32,
    next_pc: u32,
    memory: Memory,
    stats: ExecStats,
    icache: Option<Cache>,
    dcache: Option<Cache>,
    trace: OperandTrace,
    /// Boxed so the slot stays pointer-sized: the fault-free hot path
    /// never touches the mounted simulator.
    arch_fault: Option<Box<ArchFault>>,
    /// Cycle at which the Hi/Lo unit finishes its current operation.
    hilo_ready_at: u64,
    /// Writeback history for hazard accounting and pipeline tracing:
    /// (destination, value) of the last and second-to-last writers.
    last_wb: (Reg, u32),
    prev_wb: (Reg, u32),
}

impl Cpu {
    /// Creates a CPU with zeroed registers and empty memory.
    pub fn new(config: CpuConfig) -> Self {
        Cpu {
            config,
            regs: [0; 32],
            hi: 0,
            lo: 0,
            pc: 0,
            next_pc: 4,
            memory: Memory::new(),
            stats: ExecStats::default(),
            icache: config.icache.map(Cache::new),
            dcache: config.dcache.map(Cache::new),
            trace: OperandTrace::new(),
            arch_fault: None,
            hilo_ready_at: 0,
            last_wb: (Reg::ZERO, 0),
            prev_wb: (Reg::ZERO, 0),
        }
    }

    /// Loads a program and points the PC at its entry.
    pub fn load_program(&mut self, program: &Program) {
        self.memory.load_program(program);
        self.pc = program.entry();
        self.next_pc = self.pc.wrapping_add(4);
    }

    /// Reads a general-purpose register.
    pub fn reg(&self, r: Reg) -> u32 {
        self.regs[r.number() as usize]
    }

    /// Writes a general-purpose register (`$zero` writes are ignored).
    pub fn set_reg(&mut self, r: Reg, value: u32) {
        if r != Reg::ZERO {
            self.regs[r.number() as usize] = value;
        }
    }

    /// The Hi register.
    pub fn hi(&self) -> u32 {
        self.hi
    }

    /// The Lo register.
    pub fn lo(&self) -> u32 {
        self.lo
    }

    /// The current program counter.
    pub fn pc(&self) -> u32 {
        self.pc
    }

    /// Shared access to memory.
    pub fn memory(&self) -> &Memory {
        &self.memory
    }

    /// Statistics so far.
    pub fn stats(&self) -> &ExecStats {
        &self.stats
    }

    /// The operand trace recorded so far (empty unless
    /// [`CpuConfig::trace`]).
    pub fn trace(&self) -> &OperandTrace {
        &self.trace
    }

    /// Takes the recorded trace, leaving an empty one.
    pub fn take_trace(&mut self) -> OperandTrace {
        std::mem::take(&mut self.trace)
    }

    /// Mounts an architectural fault (see [`ArchFault`]).
    pub fn mount_fault(&mut self, fault: ArchFault) {
        self.arch_fault = Some(Box::new(fault));
    }

    /// Removes any mounted fault.
    pub fn unmount_fault(&mut self) -> Option<ArchFault> {
        self.arch_fault.take().map(|fault| *fault)
    }

    /// Runs until `break`, an error, or the watchdog limit.
    ///
    /// # Errors
    ///
    /// Returns [`CpuError`] on undecodable instructions, misaligned
    /// accesses, or watchdog expiry.
    pub fn run(&mut self) -> Result<RunOutcome, CpuError> {
        loop {
            if let Some(code) = self.step()? {
                return Ok(RunOutcome {
                    stats: self.stats,
                    break_code: code,
                });
            }
        }
    }

    /// Executes one instruction; returns `Some(code)` when it was `break`.
    ///
    /// # Errors
    ///
    /// See [`Cpu::run`].
    pub fn step(&mut self) -> Result<Option<u32>, CpuError> {
        if self.stats.instructions >= self.config.max_instructions {
            return Err(CpuError::InstructionLimit {
                limit: self.config.max_instructions,
            });
        }
        let pc = self.pc;
        let word = self.memory.read_word(pc);
        self.stats.imem_accesses += 1;
        if let Some(cache) = &mut self.icache {
            if !cache.access(pc) {
                self.stats.icache_misses += 1;
                self.stats.memory_stall_cycles += cache.config().miss_penalty as u64;
            }
        }
        let insn = match Instruction::decode(word) {
            Ok(insn) => insn,
            Err(_) if self.config.undecoded_as_nop => Instruction::nop(),
            Err(e) => return Err(CpuError::Decode { word: e.word, pc }),
        };

        // Advance the PC stream (delay-slot semantics): the instruction at
        // `next_pc` executes next; a branch redirects the one after it.
        self.pc = self.next_pc;
        self.next_pc = self.pc.wrapping_add(4);

        self.stats.instructions += 1;
        self.stats.cycles += 1;

        if self.config.trace {
            self.trace.control.push(ControlOp::from_word(word));
            let (ra, rb) = insn.read_regs();
            let ra = ra.unwrap_or(Reg::ZERO);
            let rb = rb.unwrap_or(Reg::ZERO);
            self.trace.regfile.push(RegFileOp {
                we: false, // patched by `writeback`
                waddr: 0,
                wdata: 0,
                raddr_a: ra.number(),
                raddr_b: rb.number(),
            });
            let offset = match insn {
                Instruction::Beq { offset, .. }
                | Instruction::Bne { offset, .. }
                | Instruction::Blez { offset, .. }
                | Instruction::Bgtz { offset, .. }
                | Instruction::Bltz { offset, .. }
                | Instruction::Bgez { offset, .. } => offset,
                _ => 0,
            };
            self.trace.pc_unit.push(PcOp { pc, offset });
        }

        if !self.config.forwarding {
            // Without forwarding, a RAW dependence on the previous (distance
            // 1) or second-previous (distance 2) writer stalls 2 or 1
            // cycles respectively in a 3-stage pipe.
            let (ra, rb) = insn.read_regs();
            let mut stall = 0u64;
            for r in [ra, rb].into_iter().flatten() {
                if r == Reg::ZERO {
                    continue;
                }
                if r == self.last_wb.0 {
                    stall = stall.max(2);
                } else if r == self.prev_wb.0 {
                    stall = stall.max(1);
                }
            }
            self.stats.pipeline_stall_cycles += stall;
        }

        let result = self.execute(insn, pc, word)?;

        // Writeback bookkeeping (hazard window + pipeline-register trace).
        let wb = match insn.written_reg() {
            Some(r) if r != Reg::ZERO => Some((r, self.reg(r))),
            _ => None,
        };
        if self.config.trace {
            let (ra, _) = insn.read_regs();
            let ra = ra.unwrap_or(Reg::ZERO);
            let ra_val = self.reg(ra);
            let fwd_sel = if ra != Reg::ZERO && ra == self.last_wb.0 {
                1
            } else if ra != Reg::ZERO && ra == self.prev_wb.0 {
                2
            } else {
                0
            };
            self.trace.pipeline.push(PipelineOp {
                d: wb.map_or(0, |(_, v)| v),
                en: true,
                flush: false,
                rf_data: ra_val,
                ex_fwd: self.last_wb.1,
                mem_fwd: self.prev_wb.1,
                fwd_sel,
            });
            if let Some((r, v)) = wb {
                if let Some(op) = self.trace.regfile.last_mut() {
                    op.we = true;
                    op.waddr = r.number();
                    op.wdata = v;
                }
            }
        }
        self.prev_wb = self.last_wb;
        self.last_wb = wb.unwrap_or((Reg::ZERO, 0));

        Ok(result)
    }

    /// Routes an ALU operation through the faulty component when one is
    /// mounted, recording the trace either way.
    fn alu_op(&mut self, func: AluFunc, a: u32, b: u32) -> (u32, bool) {
        let op = AluOp { func, a, b };
        if self.config.trace {
            self.trace.alu.push(op);
        }
        if self.arch_fault.is_some() {
            if let Some(faulty) = self.faulty(|af| af.eval_alu(&op)) {
                return faulty;
            }
        }
        let (result, zero) = sbst_components::alu::model(func, a, b, 32);
        (result, zero)
    }

    fn shift_op(&mut self, func: ShiftFunc, data: u32, amount: u8) -> u32 {
        let op = ShiftOp { func, data, amount };
        if self.config.trace {
            self.trace.shifter.push(op);
        }
        if self.arch_fault.is_some() {
            if let Some(faulty) = self.faulty(|af| af.eval_shift(&op)) {
                return faulty;
            }
        }
        sbst_components::shifter::model(func, data, amount, 32)
    }

    /// Unsigned core multiply (the array multiplier sees magnitudes).
    fn mul_core(&mut self, a: u32, b: u32) -> u64 {
        let op = MulOp { a, b };
        if self.config.trace {
            self.trace.multiplier.push(op);
        }
        if self.arch_fault.is_some() {
            if let Some(faulty) = self.faulty(|af| af.eval_mul(&op)) {
                return faulty;
            }
        }
        sbst_components::multiplier::model(a, b, 32)
    }

    /// The mounted fault's result for one datapath operation, when the
    /// fault is active this cycle and lives in the operation's component.
    /// Kept out of line so the fault-free path stays tight.
    #[inline(never)]
    fn faulty<R>(&mut self, eval: impl FnOnce(&mut ArchFault) -> Option<R>) -> Option<R> {
        let cycle = self.stats.cycles;
        let fault = self.arch_fault.as_deref_mut()?;
        if fault.is_active(cycle) {
            eval(fault)
        } else {
            None
        }
    }

    /// Unsigned core divide.
    fn div_core(&mut self, dividend: u32, divisor: u32) -> (u32, u32) {
        let op = DivOp { dividend, divisor };
        if self.config.trace {
            self.trace.divider.push(op);
        }
        sbst_components::divider::model(dividend, divisor, 32)
    }

    fn wait_hilo(&mut self) {
        if self.hilo_ready_at > self.stats.cycles {
            let wait = self.hilo_ready_at - self.stats.cycles;
            self.stats.cycles += wait;
            self.stats.pipeline_stall_cycles += wait;
        }
    }

    fn data_access(&mut self, addr: u32) {
        self.stats.dmem_accesses += 1;
        self.stats.cycles += 1; // Plasma pauses one cycle for data memory
        if let Some(cache) = &mut self.dcache {
            if !cache.access(addr) {
                self.stats.dcache_misses += 1;
                self.stats.memory_stall_cycles += cache.config().miss_penalty as u64;
            }
        }
    }

    fn effective_address(&mut self, base: Reg, offset: i16) -> u32 {
        let base_val = self.reg(base);
        let (addr, _) = self.alu_op(AluFunc::Add, base_val, offset as i32 as u32);
        addr
    }

    fn record_mem(&mut self, op: MemOp) {
        if self.config.trace {
            self.trace.memctrl.push(op);
        }
    }

    fn record_compare(&mut self, a: u32, b: u32) {
        if self.config.trace {
            self.trace.comparator.push(CmpOp { a, b });
        }
    }

    fn branch(&mut self, pc: u32, offset: i16, taken: bool) {
        if taken {
            self.next_pc = pc.wrapping_add(4).wrapping_add((offset as i32 as u32) << 2);
            self.taken_transfer();
        }
    }

    /// Accounts a taken control transfer (branch or jump), charging the
    /// configured misprediction penalty.
    fn taken_transfer(&mut self) {
        self.stats.taken_branches += 1;
        self.stats.pipeline_stall_cycles += self.config.branch_penalty as u64;
    }

    #[allow(clippy::too_many_lines)]
    fn execute(&mut self, insn: Instruction, pc: u32, word: u32) -> Result<Option<u32>, CpuError> {
        use Instruction::*;
        match insn {
            Add { rd, rs, rt } | Addu { rd, rs, rt } => {
                let (v, _) = self.alu_op(AluFunc::Add, self.reg(rs), self.reg(rt));
                self.set_reg(rd, v);
            }
            Sub { rd, rs, rt } | Subu { rd, rs, rt } => {
                let (v, _) = self.alu_op(AluFunc::Sub, self.reg(rs), self.reg(rt));
                self.set_reg(rd, v);
            }
            And { rd, rs, rt } => {
                let (v, _) = self.alu_op(AluFunc::And, self.reg(rs), self.reg(rt));
                self.set_reg(rd, v);
            }
            Or { rd, rs, rt } => {
                let (v, _) = self.alu_op(AluFunc::Or, self.reg(rs), self.reg(rt));
                self.set_reg(rd, v);
            }
            Xor { rd, rs, rt } => {
                let (v, _) = self.alu_op(AluFunc::Xor, self.reg(rs), self.reg(rt));
                self.set_reg(rd, v);
            }
            Nor { rd, rs, rt } => {
                let (v, _) = self.alu_op(AluFunc::Nor, self.reg(rs), self.reg(rt));
                self.set_reg(rd, v);
            }
            Slt { rd, rs, rt } => {
                let (v, _) = self.alu_op(AluFunc::Slt, self.reg(rs), self.reg(rt));
                self.set_reg(rd, v);
            }
            Sltu { rd, rs, rt } => {
                let (v, _) = self.alu_op(AluFunc::Sltu, self.reg(rs), self.reg(rt));
                self.set_reg(rd, v);
            }
            Addi { rt, rs, imm } | Addiu { rt, rs, imm } => {
                let (v, _) = self.alu_op(AluFunc::Add, self.reg(rs), imm as i32 as u32);
                self.set_reg(rt, v);
            }
            Slti { rt, rs, imm } => {
                let (v, _) = self.alu_op(AluFunc::Slt, self.reg(rs), imm as i32 as u32);
                self.set_reg(rt, v);
            }
            Sltiu { rt, rs, imm } => {
                let (v, _) = self.alu_op(AluFunc::Sltu, self.reg(rs), imm as i32 as u32);
                self.set_reg(rt, v);
            }
            Andi { rt, rs, imm } => {
                let (v, _) = self.alu_op(AluFunc::And, self.reg(rs), imm as u32);
                self.set_reg(rt, v);
            }
            Ori { rt, rs, imm } => {
                let (v, _) = self.alu_op(AluFunc::Or, self.reg(rs), imm as u32);
                self.set_reg(rt, v);
            }
            Xori { rt, rs, imm } => {
                let (v, _) = self.alu_op(AluFunc::Xor, self.reg(rs), imm as u32);
                self.set_reg(rt, v);
            }
            Lui { rt, imm } => {
                // The Plasma routes lui through the shifter (imm << 16).
                let v = self.shift_op(ShiftFunc::Sll, imm as u32, 16);
                self.set_reg(rt, v);
            }
            Sll { rd, rt, shamt } => {
                let v = self.shift_op(ShiftFunc::Sll, self.reg(rt), shamt);
                self.set_reg(rd, v);
            }
            Srl { rd, rt, shamt } => {
                let v = self.shift_op(ShiftFunc::Srl, self.reg(rt), shamt);
                self.set_reg(rd, v);
            }
            Sra { rd, rt, shamt } => {
                let v = self.shift_op(ShiftFunc::Sra, self.reg(rt), shamt);
                self.set_reg(rd, v);
            }
            Sllv { rd, rt, rs } => {
                let v = self.shift_op(ShiftFunc::Sll, self.reg(rt), (self.reg(rs) & 31) as u8);
                self.set_reg(rd, v);
            }
            Srlv { rd, rt, rs } => {
                let v = self.shift_op(ShiftFunc::Srl, self.reg(rt), (self.reg(rs) & 31) as u8);
                self.set_reg(rd, v);
            }
            Srav { rd, rt, rs } => {
                let v = self.shift_op(ShiftFunc::Sra, self.reg(rt), (self.reg(rs) & 31) as u8);
                self.set_reg(rd, v);
            }
            Mult { rs, rt } => {
                self.wait_hilo();
                let a = self.reg(rs) as i32;
                let b = self.reg(rt) as i32;
                // Sign-correct around the unsigned array core, like the
                // real Plasma multiplier wrapper.
                let product = self.mul_core(a.unsigned_abs(), b.unsigned_abs());
                let signed = if (a < 0) ^ (b < 0) {
                    (product as i64).wrapping_neg() as u64
                } else {
                    product
                };
                self.hi = (signed >> 32) as u32;
                self.lo = signed as u32;
                self.hilo_ready_at = self.stats.cycles + 1; // fast parallel mult
            }
            Multu { rs, rt } => {
                self.wait_hilo();
                let product = self.mul_core(self.reg(rs), self.reg(rt));
                self.hi = (product >> 32) as u32;
                self.lo = product as u32;
                self.hilo_ready_at = self.stats.cycles + 1;
            }
            Div { rs, rt } => {
                self.wait_hilo();
                let a = self.reg(rs) as i32;
                let b = self.reg(rt) as i32;
                let (q_mag, r_mag) = self.div_core(a.unsigned_abs(), b.unsigned_abs());
                if b == 0 {
                    // Implementation-defined, matching the restoring array.
                    self.lo = q_mag;
                    self.hi = a as u32;
                } else {
                    let q = if (a < 0) ^ (b < 0) {
                        (q_mag as i32).wrapping_neg()
                    } else {
                        q_mag as i32
                    };
                    let r = if a < 0 {
                        (r_mag as i32).wrapping_neg()
                    } else {
                        r_mag as i32
                    };
                    self.lo = q as u32;
                    self.hi = r as u32;
                }
                self.hilo_ready_at = self.stats.cycles + DIV_LATENCY;
            }
            Divu { rs, rt } => {
                self.wait_hilo();
                let (q, r) = self.div_core(self.reg(rs), self.reg(rt));
                self.lo = q;
                self.hi = r;
                self.hilo_ready_at = self.stats.cycles + DIV_LATENCY;
            }
            Mfhi { rd } => {
                self.wait_hilo();
                self.set_reg(rd, self.hi);
            }
            Mflo { rd } => {
                self.wait_hilo();
                self.set_reg(rd, self.lo);
            }
            Mthi { rs } => {
                self.wait_hilo();
                self.hi = self.reg(rs);
            }
            Mtlo { rs } => {
                self.wait_hilo();
                self.lo = self.reg(rs);
            }
            Beq { rs, rt, offset } => {
                self.record_compare(self.reg(rs), self.reg(rt));
                let (_, zero) = self.alu_op(AluFunc::Sub, self.reg(rs), self.reg(rt));
                self.branch(pc, offset, zero);
            }
            Bne { rs, rt, offset } => {
                self.record_compare(self.reg(rs), self.reg(rt));
                let (_, zero) = self.alu_op(AluFunc::Sub, self.reg(rs), self.reg(rt));
                self.branch(pc, offset, !zero);
            }
            Blez { rs, offset } => {
                self.record_compare(self.reg(rs), 0);
                let (lt, _) = self.alu_op(AluFunc::Slt, self.reg(rs), 0);
                let taken = lt & 1 == 1 || self.reg(rs) == 0;
                self.branch(pc, offset, taken);
            }
            Bgtz { rs, offset } => {
                self.record_compare(self.reg(rs), 0);
                let (lt, _) = self.alu_op(AluFunc::Slt, self.reg(rs), 0);
                let taken = lt & 1 == 0 && self.reg(rs) != 0;
                self.branch(pc, offset, taken);
            }
            Bltz { rs, offset } => {
                self.record_compare(self.reg(rs), 0);
                let (lt, _) = self.alu_op(AluFunc::Slt, self.reg(rs), 0);
                self.branch(pc, offset, lt & 1 == 1);
            }
            Bgez { rs, offset } => {
                self.record_compare(self.reg(rs), 0);
                let (lt, _) = self.alu_op(AluFunc::Slt, self.reg(rs), 0);
                self.branch(pc, offset, lt & 1 == 0);
            }
            J { target } => {
                self.next_pc = (pc.wrapping_add(4) & 0xF000_0000) | (target << 2);
                self.taken_transfer();
            }
            Jal { target } => {
                self.set_reg(Reg::RA, pc.wrapping_add(8));
                self.next_pc = (pc.wrapping_add(4) & 0xF000_0000) | (target << 2);
                self.taken_transfer();
            }
            Jr { rs } => {
                self.next_pc = self.reg(rs);
                self.taken_transfer();
            }
            Jalr { rd, rs } => {
                let target = self.reg(rs);
                self.set_reg(rd, pc.wrapping_add(8));
                self.next_pc = target;
                self.taken_transfer();
            }
            Lw { rt, base, offset } => {
                let addr = self.effective_address(base, offset);
                if addr & 3 != 0 {
                    return Err(CpuError::Unaligned { addr, pc });
                }
                self.stats.loads += 1;
                self.data_access(addr);
                let word_read = self.memory.read_word(addr);
                self.record_mem(MemOp {
                    addr,
                    store_data: 0,
                    mem_rdata: word_read,
                    size: AccessSize::Word,
                    signed: false,
                });
                self.set_reg(rt, word_read);
            }
            Lb { rt, base, offset } | Lbu { rt, base, offset } => {
                let signed = matches!(insn, Lb { .. });
                let addr = self.effective_address(base, offset);
                self.stats.loads += 1;
                self.data_access(addr);
                let word_read = self.memory.read_word(addr);
                self.record_mem(MemOp {
                    addr,
                    store_data: 0,
                    mem_rdata: word_read,
                    size: AccessSize::Byte,
                    signed,
                });
                let byte = self.memory.read_byte(addr);
                let v = if signed {
                    byte as i8 as i32 as u32
                } else {
                    byte as u32
                };
                self.set_reg(rt, v);
            }
            Lh { rt, base, offset } | Lhu { rt, base, offset } => {
                let signed = matches!(insn, Lh { .. });
                let addr = self.effective_address(base, offset);
                if addr & 1 != 0 {
                    return Err(CpuError::Unaligned { addr, pc });
                }
                self.stats.loads += 1;
                self.data_access(addr);
                let word_read = self.memory.read_word(addr);
                self.record_mem(MemOp {
                    addr,
                    store_data: 0,
                    mem_rdata: word_read,
                    size: AccessSize::Half,
                    signed,
                });
                let half = self.memory.read_half(addr);
                let v = if signed {
                    half as i16 as i32 as u32
                } else {
                    half as u32
                };
                self.set_reg(rt, v);
            }
            Sw { rt, base, offset } => {
                let addr = self.effective_address(base, offset);
                if addr & 3 != 0 {
                    return Err(CpuError::Unaligned { addr, pc });
                }
                self.stats.stores += 1;
                self.data_access(addr);
                let value = self.reg(rt);
                self.record_mem(MemOp {
                    addr,
                    store_data: value,
                    mem_rdata: self.memory.read_word(addr),
                    size: AccessSize::Word,
                    signed: false,
                });
                self.memory.write_word(addr, value);
            }
            Sb { rt, base, offset } => {
                let addr = self.effective_address(base, offset);
                self.stats.stores += 1;
                self.data_access(addr);
                let value = self.reg(rt);
                self.record_mem(MemOp {
                    addr,
                    store_data: value,
                    mem_rdata: self.memory.read_word(addr),
                    size: AccessSize::Byte,
                    signed: false,
                });
                self.memory.write_byte(addr, value as u8);
            }
            Sh { rt, base, offset } => {
                let addr = self.effective_address(base, offset);
                if addr & 1 != 0 {
                    return Err(CpuError::Unaligned { addr, pc });
                }
                self.stats.stores += 1;
                self.data_access(addr);
                let value = self.reg(rt);
                self.record_mem(MemOp {
                    addr,
                    store_data: value,
                    mem_rdata: self.memory.read_word(addr),
                    size: AccessSize::Half,
                    signed: false,
                });
                self.memory.write_half(addr, value as u16);
            }
            Break { code } => {
                let _ = word;
                return Ok(Some(code));
            }
        }
        Ok(None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbst_isa::parse_asm;

    fn run_asm(src: &str) -> (Cpu, RunOutcome) {
        let program = parse_asm(src).unwrap().assemble(0, 0x1000).unwrap();
        let mut cpu = Cpu::new(CpuConfig::default());
        cpu.load_program(&program);
        let outcome = cpu.run().unwrap();
        (cpu, outcome)
    }

    #[test]
    fn arithmetic_and_logic() {
        let (cpu, _) = run_asm(
            "li $t0, 0x0000F0F0
             li $t1, 0x0000FF00
             and $s0, $t0, $t1
             or  $s1, $t0, $t1
             xor $s2, $t0, $t1
             nor $s3, $t0, $t1
             addu $s4, $t0, $t1
             subu $s5, $t0, $t1
             break 0",
        );
        assert_eq!(cpu.reg(Reg::S0), 0xF000);
        assert_eq!(cpu.reg(Reg::S1), 0xFFF0);
        assert_eq!(cpu.reg(Reg::S2), 0x0FF0);
        assert_eq!(cpu.reg(Reg::S3), !0xFFF0u32);
        assert_eq!(cpu.reg(Reg::S4), 0xF0F0 + 0xFF00);
        assert_eq!(cpu.reg(Reg::S5), 0xF0F0u32.wrapping_sub(0xFF00));
    }

    #[test]
    fn slt_and_immediates() {
        let (cpu, _) = run_asm(
            "li $t0, 5
             addi $t1, $zero, -3
             slt $s0, $t1, $t0
             sltu $s1, $t1, $t0
             slti $s2, $t0, 6
             sltiu $s3, $t0, 4
             break 0",
        );
        assert_eq!(cpu.reg(Reg::S0), 1); // -3 < 5 signed
        assert_eq!(cpu.reg(Reg::S1), 0); // 0xFFFF_FFFD > 5 unsigned
        assert_eq!(cpu.reg(Reg::S2), 1);
        assert_eq!(cpu.reg(Reg::S3), 0);
    }

    #[test]
    fn shifts() {
        let (cpu, _) = run_asm(
            "li $t0, 0x80000001
             sll $s0, $t0, 4
             srl $s1, $t0, 4
             sra $s2, $t0, 4
             li $t1, 8
             sllv $s3, $t0, $t1
             break 0",
        );
        assert_eq!(cpu.reg(Reg::S0), 0x0000_0010);
        assert_eq!(cpu.reg(Reg::S1), 0x0800_0000);
        assert_eq!(cpu.reg(Reg::S2), 0xF800_0000);
        assert_eq!(cpu.reg(Reg::S3), 0x0000_0100);
    }

    #[test]
    fn branch_delay_slot_executes() {
        let (cpu, _) = run_asm(
            "li $t0, 1
             beq $zero, $zero, target
             li $t1, 42        # delay slot: must execute
             li $t2, 99        # skipped
             target:
             break 0",
        );
        assert_eq!(cpu.reg(Reg::T1), 42);
        assert_eq!(cpu.reg(Reg::T2), 0);
    }

    #[test]
    fn loop_counts_cycles() {
        let (cpu, outcome) = run_asm(
            "li $t0, 0
             li $t1, 10
             loop:
             addiu $t0, $t0, 1
             bne $t0, $t1, loop
             nop
             break 0",
        );
        assert_eq!(cpu.reg(Reg::T0), 10);
        // 2 li (2 words each? li 0 and li 10 are 1 word each) + 10*(addiu,
        // bne, nop) + break = 2 + 30 + 1 = 33 instructions.
        assert_eq!(outcome.stats.instructions, 33);
        assert_eq!(outcome.stats.cycles, 33);
        assert_eq!(outcome.stats.taken_branches, 9);
    }

    #[test]
    fn memory_operations_big_endian() {
        let (cpu, outcome) = run_asm(
            "li $t0, 0x1000
             li $t1, 0x11223344
             sw $t1, 0($t0)
             lb $s0, 0($t0)
             lbu $s1, 3($t0)
             lh $s2, 0($t0)
             lhu $s3, 2($t0)
             sb $t1, 1($t0)
             lw $s4, 0($t0)
             break 0",
        );
        assert_eq!(cpu.reg(Reg::S0), 0x11);
        assert_eq!(cpu.reg(Reg::S1), 0x44);
        assert_eq!(cpu.reg(Reg::S2), 0x1122);
        assert_eq!(cpu.reg(Reg::S3), 0x3344);
        assert_eq!(cpu.reg(Reg::S4), 0x1144_3344);
        assert_eq!(outcome.stats.loads, 5);
        assert_eq!(outcome.stats.stores, 2);
        assert_eq!(outcome.stats.data_refs(), 7);
    }

    #[test]
    fn loads_cost_an_extra_cycle() {
        let (_, with_load) = run_asm(
            "li $t0, 0x1000
             lw $t1, 0($t0)
             break 0",
        );
        let (_, without) = run_asm(
            "li $t0, 0x1000
             addu $t1, $zero, $zero
             break 0",
        );
        assert_eq!(with_load.stats.cycles, without.stats.cycles + 1);
    }

    #[test]
    fn mult_and_div_hi_lo() {
        let (cpu, _) = run_asm(
            "li $t0, 1000
             li $t1, 2000
             mult $t0, $t1
             mflo $s0
             addi $t2, $zero, -7
             li $t3, 2
             div $t2, $t3
             mflo $s1
             mfhi $s2
             multu $t1, $t1
             mfhi $s3
             break 0",
        );
        assert_eq!(cpu.reg(Reg::S0), 2_000_000);
        assert_eq!(cpu.reg(Reg::S1) as i32, -3); // -7 / 2 truncates
        assert_eq!(cpu.reg(Reg::S2) as i32, -1); // remainder keeps dividend sign
        assert_eq!(cpu.reg(Reg::S3), ((2000u64 * 2000) >> 32) as u32);
    }

    #[test]
    fn signed_mult_negative() {
        let (cpu, _) = run_asm(
            "addi $t0, $zero, -3
             li $t1, 7
             mult $t0, $t1
             mflo $s0
             mfhi $s1
             break 0",
        );
        assert_eq!(cpu.reg(Reg::S0) as i32, -21);
        assert_eq!(cpu.reg(Reg::S1), 0xFFFF_FFFF);
    }

    #[test]
    fn div_stalls_mflo() {
        let (_, with_wait) = run_asm(
            "li $t0, 100
             li $t1, 7
             divu $t0, $t1
             mflo $s0
             break 0",
        );
        // The mflo had to wait ~32 cycles.
        assert!(with_wait.stats.pipeline_stall_cycles >= 30);
    }

    #[test]
    fn div_latency_matches_divider_netlist_protocol() {
        // The divider netlist protocol is one start/load cycle plus 32
        // iteration cycles (see sbst_components::divider::stimulus), so a
        // back-to-back mflo stalls exactly DIV_LATENCY - 1 cycles: the
        // result is ready DIV_LATENCY cycles after the div issues, and the
        // mflo's own issue cycle covers one of them.
        let (_, back_to_back) = run_asm(
            "li $t0, 100
             li $t1, 7
             divu $t0, $t1
             mflo $s0
             break 0",
        );
        assert_eq!(back_to_back.stats.pipeline_stall_cycles, DIV_LATENCY - 1);

        // Each independent single-cycle instruction between the div and the
        // mflo hides exactly one cycle of the latency.
        let (_, one_filler) = run_asm(
            "li $t0, 100
             li $t1, 7
             divu $t0, $t1
             addiu $t2, $zero, 1
             mflo $s0
             break 0",
        );
        assert_eq!(one_filler.stats.pipeline_stall_cycles, DIV_LATENCY - 2);
    }

    #[test]
    fn div_overlaps_with_independent_work() {
        let (_, overlapped) = run_asm(
            "li $t0, 100
             li $t1, 7
             divu $t0, $t1
             li $t2, 0
             li $t3, 40
             busy:
             addiu $t2, $t2, 1
             bne $t2, $t3, busy
             nop
             mflo $s0
             break 0",
        );
        // 40 iterations × 3 instructions hide the divide latency.
        assert_eq!(overlapped.stats.pipeline_stall_cycles, 0);
    }

    #[test]
    fn jal_jr_round_trip() {
        let (cpu, _) = run_asm(
            "jal sub
             nop
             li $t1, 5
             break 0
             sub:
             li $t0, 9
             jr $ra
             nop",
        );
        assert_eq!(cpu.reg(Reg::T0), 9);
        assert_eq!(cpu.reg(Reg::T1), 5);
    }

    #[test]
    fn conditional_branch_varieties() {
        let (cpu, _) = run_asm(
            "addi $t0, $zero, -1
             li $t1, 0
             li $t2, 1
             bltz $t0, l1
             nop
             li $s0, 1
             l1:
             bgez $t1, l2
             nop
             li $s1, 1
             l2:
             blez $t1, l3
             nop
             li $s2, 1
             l3:
             bgtz $t2, l4
             nop
             li $s3, 1
             l4:
             break 0",
        );
        // All branches taken: none of the $sX set.
        assert_eq!(cpu.reg(Reg::S0), 0);
        assert_eq!(cpu.reg(Reg::S1), 0);
        assert_eq!(cpu.reg(Reg::S2), 0);
        assert_eq!(cpu.reg(Reg::S3), 0);
    }

    #[test]
    fn unaligned_access_rejected() {
        let program = parse_asm(
            "li $t0, 0x1001
             lw $t1, 0($t0)
             break 0",
        )
        .unwrap()
        .assemble(0, 0x1000)
        .unwrap();
        let mut cpu = Cpu::new(CpuConfig::default());
        cpu.load_program(&program);
        assert!(matches!(cpu.run(), Err(CpuError::Unaligned { .. })));
    }

    #[test]
    fn watchdog_fires_on_runaway() {
        let program = parse_asm(
            "spin:
             j spin
             nop",
        )
        .unwrap()
        .assemble(0, 0x1000)
        .unwrap();
        let mut cpu = Cpu::new(CpuConfig {
            max_instructions: 1000,
            ..CpuConfig::default()
        });
        cpu.load_program(&program);
        assert_eq!(cpu.run(), Err(CpuError::InstructionLimit { limit: 1000 }));
    }

    #[test]
    fn branch_penalty_charges_taken_transfers() {
        let src = "li $t0, 0
                   li $t1, 20
                   loop:
                   addiu $t0, $t0, 1
                   bne $t0, $t1, loop
                   nop
                   break 0";
        let p = parse_asm(src).unwrap().assemble(0, 0x1000).unwrap();
        let mut delay_slot = Cpu::new(CpuConfig::default());
        delay_slot.load_program(&p);
        let a = delay_slot.run().unwrap();
        let mut predicted = Cpu::new(CpuConfig {
            branch_penalty: 2,
            ..CpuConfig::default()
        });
        predicted.load_program(&p);
        let b = predicted.run().unwrap();
        assert_eq!(a.stats.pipeline_stall_cycles, 0);
        assert_eq!(a.stats.taken_branches, b.stats.taken_branches);
        assert_eq!(b.stats.pipeline_stall_cycles, 2 * b.stats.taken_branches);
        assert!(b.stats.total_cycles() > a.stats.total_cycles());
    }

    #[test]
    fn forwarding_off_adds_stalls() {
        let src = "li $t0, 1
                   addu $t1, $t0, $t0
                   addu $t2, $t1, $t1
                   break 0";
        let p = parse_asm(src).unwrap().assemble(0, 0x1000).unwrap();
        let mut with_fwd = Cpu::new(CpuConfig::default());
        with_fwd.load_program(&p);
        let a = with_fwd.run().unwrap();
        let mut without = Cpu::new(CpuConfig {
            forwarding: false,
            ..CpuConfig::default()
        });
        without.load_program(&p);
        let b = without.run().unwrap();
        assert_eq!(a.stats.pipeline_stall_cycles, 0);
        assert!(b.stats.pipeline_stall_cycles >= 4);
    }

    #[test]
    fn trace_records_component_operations() {
        let p = parse_asm(
            "li $t0, 3
             li $t1, 4
             addu $t2, $t0, $t1
             sll $t3, $t2, 2
             mult $t0, $t1
             sw $t2, 0x100($zero)
             lw $t4, 0x100($zero)
             break 0",
        )
        .unwrap()
        .assemble(0, 0x1000)
        .unwrap();
        let mut cpu = Cpu::new(CpuConfig {
            trace: true,
            ..CpuConfig::default()
        });
        cpu.load_program(&p);
        cpu.run().unwrap();
        let trace = cpu.trace();
        assert!(!trace.alu.is_empty());
        assert!(!trace.shifter.is_empty()); // sll + the li->lui path? li small uses ori
        assert_eq!(trace.multiplier.len(), 1);
        assert_eq!(trace.memctrl.len(), 2);
        assert_eq!(trace.control.len(), cpu.stats().instructions as usize);
        assert_eq!(trace.regfile.len(), cpu.stats().instructions as usize);
        // The regfile trace saw the writeback of addu.
        assert!(trace
            .regfile
            .iter()
            .any(|op| op.we && op.waddr == Reg::T2.number() && op.wdata == 7));
    }

    #[test]
    fn caches_measure_locality() {
        let src = "li $t0, 0
                   li $t1, 200
                   loop:
                   addiu $t0, $t0, 1
                   bne $t0, $t1, loop
                   nop
                   break 0";
        let p = parse_asm(src).unwrap().assemble(0, 0x1000).unwrap();
        let mut cpu = Cpu::new(CpuConfig {
            icache: Some(CacheConfig::default()),
            dcache: Some(CacheConfig::default()),
            ..CpuConfig::default()
        });
        cpu.load_program(&p);
        let outcome = cpu.run().unwrap();
        // Tight loop: essentially everything hits after the first line fill.
        let miss_rate = outcome.stats.icache_misses as f64 / outcome.stats.imem_accesses as f64;
        assert!(miss_rate < 0.01, "icache miss rate {miss_rate}");
        assert!(outcome.stats.memory_stall_cycles < 100);
    }
}
