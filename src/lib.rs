//! # sbst — Software-Based Self-Test for On-Line Periodic Testing
//!
//! A full reproduction, in Rust, of *"Effective Software-Based Self-Test
//! Strategies for On-Line Periodic Testing of Embedded Processors"*
//! (Paschalis & Gizopoulos, DATE 2004).
//!
//! This facade crate re-exports the whole workspace:
//!
//! - [`gates`] — gate-level netlists, logic and stuck-at fault simulation;
//! - [`isa`] — a MIPS-I subset instruction set and assembler;
//! - [`components`] — gate-level processor components (ALU, shifter,
//!   multiplier, divider, register file, …) with operation metadata;
//! - [`tpg`] — pattern generation: constrained ATPG with its
//!   per-function campaign, pseudorandom LFSRs, and the software MISR;
//! - [`cpu`] — a Plasma-like 3-stage-pipeline MIPS ISS with cache and
//!   quantum-scheduling models plus per-component operand tracing;
//! - [`core`] — the SBST methodology itself: component classification,
//!   self-test code styles (the paper's Figures 1–4), routine and program
//!   generation, fault grading, and Table-1 reporting.
//!
//! # Quickstart
//!
//! Generate and grade a self-test routine for the ALU:
//!
//! ```
//! use sbst::core::{Cut, RoutineSpec, grade_routine};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let cut = Cut::alu(8); // 8-bit ALU for a quick demonstration
//! let routine = RoutineSpec::recommended(&cut).build(&cut)?;
//! let graded = grade_routine(&cut, &routine)?;
//! assert!(graded.coverage.percent() > 90.0);
//! # Ok(())
//! # }
//! ```

pub use sbst_components as components;
pub use sbst_core as core;
pub use sbst_cpu as cpu;
pub use sbst_gates as gates;
pub use sbst_isa as isa;
pub use sbst_tpg as tpg;
