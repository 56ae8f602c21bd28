//! Per-component operand tracing.
//!
//! While a self-test routine executes, the CPU records the exact operand
//! tuple every instruction applies to each processor component. Replaying
//! these traces through the gate-level netlists of `sbst-components` is how
//! `sbst-core` grades fault coverage: the trace *is* the test stimulus the
//! routine managed to deliver (the controllability side), and the component
//! outputs that flow back into registers/MISR are the observability side.

use sbst_components::alu::AluOp;
use sbst_components::comparator::CmpOp;
use sbst_components::control::ControlOp;
use sbst_components::divider::DivOp;
use sbst_components::memctrl::MemOp;
use sbst_components::misc::PcOp;
use sbst_components::multiplier::MulOp;
use sbst_components::pipeline::PipelineOp;
use sbst_components::regfile::RegFileOp;
use sbst_components::shifter::ShiftOp;

/// Operand streams captured from one program execution, one per component.
#[derive(Debug, Clone, Default)]
pub struct OperandTrace {
    /// ALU operations (arithmetic/logic instructions, address generation,
    /// branch comparisons).
    pub alu: Vec<AluOp>,
    /// Shifter operations (`sll`…`srav` and `lui`'s 16-bit shift).
    pub shifter: Vec<ShiftOp>,
    /// Multiplier array excitations (operand magnitudes for signed `mult`).
    pub multiplier: Vec<MulOp>,
    /// Divider excitations (operand magnitudes for signed `div`).
    pub divider: Vec<DivOp>,
    /// Register-file cycles (two read ports + writeback).
    pub regfile: Vec<RegFileOp>,
    /// Memory-controller accesses.
    pub memctrl: Vec<MemOp>,
    /// Control-decoder excitations (one per instruction).
    pub control: Vec<ControlOp>,
    /// Branch-comparator excitations (for cores with a dedicated
    /// comparator; the Plasma reuses the ALU, so this stream is additional
    /// book-keeping rather than a Table-1 CUT).
    pub comparator: Vec<CmpOp>,
    /// Pipeline-register data flow (side-effect stimulus for HCs).
    pub pipeline: Vec<PipelineOp>,
    /// PC-unit excitations (side-effect stimulus for the M-VC).
    pub pc_unit: Vec<PcOp>,
}

impl OperandTrace {
    /// Creates an empty trace.
    pub fn new() -> Self {
        OperandTrace::default()
    }

    /// Clears all streams.
    pub fn clear(&mut self) {
        *self = OperandTrace::default();
    }
}
