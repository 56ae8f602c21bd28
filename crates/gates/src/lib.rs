//! Gate-level netlists, bit-parallel logic simulation and single-stuck-at
//! fault simulation.
//!
//! This crate is the structural substrate of the `sbst` workspace: processor
//! components (ALU, shifter, multiplier, …) are described as [`Netlist`]s of
//! primitive gates, simulated 64 machines at a time with [`Simulator`], and
//! fault-graded with [`FaultSimulator`] under the industry-standard
//! single-stuck-at fault model with equivalence collapsing, or under the
//! gross transition-delay model ([`FaultModel::TransitionDelay`]) with
//! two-pattern launch/capture tests.
//!
//! # Example
//!
//! Build a full adder, enumerate its collapsed faults, and grade an
//! exhaustive test:
//!
//! ```
//! use sbst_gates::{NetlistBuilder, GateKind, Stimulus, FaultSimulator};
//!
//! # fn main() -> Result<(), sbst_gates::BuildNetlistError> {
//! let mut b = NetlistBuilder::new("full_adder");
//! let a = b.input("a");
//! let c = b.input("b");
//! let ci = b.input("ci");
//! let axb = b.gate(GateKind::Xor, &[a, c]);
//! let sum = b.gate(GateKind::Xor, &[axb, ci]);
//! let g1 = b.gate(GateKind::And, &[a, c]);
//! let g2 = b.gate(GateKind::And, &[axb, ci]);
//! let co = b.gate(GateKind::Or, &[g1, g2]);
//! b.mark_output(sum, "sum");
//! b.mark_output(co, "co");
//! let netlist = b.finish()?;
//!
//! let faults = netlist.collapsed_faults();
//! let mut stim = Stimulus::new();
//! for v in 0..8u32 {
//!     stim.push_pattern(&[v & 1 != 0, v & 2 != 0, v & 4 != 0]);
//! }
//! let result = FaultSimulator::new(&netlist).simulate(&faults, &stim);
//! assert_eq!(result.coverage().percent(), 100.0);
//! # Ok(())
//! # }
//! ```

mod dual3;
mod error;
mod fanout;
mod fault;
mod fault_sim;
mod gate;
mod net;
mod netlist;
mod sim;
mod tape;

pub mod coverage;
pub mod scoap;
pub mod verilog;

pub use dual3::{eval3, eval_dual_gate, eval_dual_reference, Dual3, T3};
pub use error::BuildNetlistError;
pub use fanout::{fan_out, resolve_threads};
pub use fault::{
    collapse_faults, enumerate_faults, enumerate_transition_faults, Fault, FaultModel, FaultSite,
    TransitionFault,
};
pub use fault_sim::{
    FaultSimConfig, FaultSimResult, FaultSimulator, SimEngine, SimStats, Stimulus, FAULTS_PER_BATCH,
};
pub use gate::{Gate, GateId, GateKind};
pub use net::{Bus, NetId};
pub use netlist::{Netlist, NetlistBuilder};
pub use scoap::Testability;
pub use sim::{Simulator, LANES};
pub use tape::{CompiledTape, TapeSimulator, MAX_LANE_WORDS};

pub use coverage::FaultCoverage;
