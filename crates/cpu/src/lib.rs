//! Plasma-like MIPS instruction-set simulator with the timing, cache and
//! operating-system models the paper's evaluation depends on.
//!
//! The paper demonstrates its SBST methodology on the Plasma core: a 32-bit
//! MIPS-I, 3-stage pipeline with forwarding, enhanced with a fast parallel
//! multiplier, running at 57 MHz. This crate provides:
//!
//! - [`Cpu`] — a cycle-accounting ISS executing `sbst-isa` programs with the
//!   documented Plasma-like timing model (branch delay slots, 1-cycle
//!   memory pause for loads/stores, single-cycle parallel multiply, a
//!   33-cycle serial divide matching the divider netlist protocol of one
//!   load cycle plus 32 iterations ([`cpu::DIV_LATENCY`]), full
//!   forwarding);
//! - [`Memory`] — big-endian sparse memory in flat 4 KiB pages, with
//!   program loading;
//! - [`cache`] — direct-mapped I/D caches plus the paper's *analytic* stall
//!   model (Section 4 assumes a 5 % miss rate and 20-cycle penalty);
//! - [`trace`] — per-component operand capture: every executed instruction
//!   records the operand tuples it applies to the ALU, shifter, multiplier,
//!   divider, register file, memory controller, control decoder, pipeline
//!   registers and PC unit. This is the controllability/observability link
//!   between self-test routines and gate-level fault grading;
//! - [`faulty`] — architectural fault injection: a gate-level component
//!   with an injected stuck-at fault is wired into the datapath, so fault
//!   effects corrupt architectural state end-to-end;
//! - [`system`] — the Section 2 execution-time equation, quantum-time
//!   budget checks and fault-detection-latency models for the three test
//!   activation policies;
//! - [`mac`] — a zero-dependency keyed MAC (SipHash-2-4) sealing the
//!   golden-signature store against adversarial rewrites, not just
//!   accidental bit flips;
//! - [`manager`] — the on-line test manager: a cycle-budget watchdog per
//!   routine, bounded retry with exponential backoff,
//!   transient-vs-permanent fault classification, component quarantine, a
//!   tamper-evident golden-signature store (keyed seal + replay-defeating
//!   seal epoch, with a two-replica cross-check on re-capture), and
//!   checkpoint/resume across quantum preemption.
//!
//! # Example
//!
//! ```
//! use sbst_cpu::{Cpu, CpuConfig};
//! use sbst_isa::parse_asm;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let program = parse_asm(
//!     "li $t0, 7
//!      li $t1, 5
//!      addu $t2, $t0, $t1
//!      break 0",
//! )?
//! .assemble(0, 0x1000)?;
//! let mut cpu = Cpu::new(CpuConfig::default());
//! cpu.load_program(&program);
//! let outcome = cpu.run()?;
//! assert_eq!(cpu.reg(sbst_isa::Reg::T2), 12);
//! assert!(outcome.stats.cycles > 0);
//! # Ok(())
//! # }
//! ```

pub mod cache;
pub mod cpu;
pub mod faulty;
pub mod mac;
pub mod manager;
pub mod memory;
pub mod power;
pub mod system;
pub mod trace;

pub use cache::{AnalyticStallModel, Cache, CacheConfig, CacheConfigError};
pub use cpu::{Cpu, CpuConfig, CpuError, ExecStats, RunOutcome, DIV_LATENCY};
pub use faulty::{ArchFault, ArchFaultTarget, EvalStats, FaultActivity, Mountable};
pub use mac::{siphash24, MacKey, SipHash24};
pub use manager::{
    FaultClass, FaultFreeBench, Health, ManagedComponent, ManagerConfig, ManagerEvent,
    OnlineTestManager, RetryPolicy, SessionStatus, SharedSchedule, SigLocation, SignatureStore,
    StorePolicy, TamperVerdict, TestBench, Verdict, WatchdogConfig,
};
pub use memory::Memory;
pub use power::{EnergyEstimate, EnergyModel};
pub use system::{ActivationPolicy, ExecTimeEstimate, QuantumConfig};
pub use trace::OperandTrace;
