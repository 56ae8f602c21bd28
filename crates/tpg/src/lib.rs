//! Test pattern generation and response compaction.
//!
//! Implements the pattern sources behind the paper's Section 3.3 code
//! styles, plus the response-compaction machinery:
//!
//! - [`atpg`] — **deterministic ATPG**: a PODEM implementation with
//!   instruction-imposed input constraints, preceded by a random-fill pass
//!   with fault dropping, and the per-function campaign
//!   ([`per_function_campaign`]) that every `AtpgD` routine runs. A low,
//!   gate-level strategy for combinational D-VCs such as the barrel
//!   shifter.
//! - [`lfsr`] — **pseudorandom TPG**: software LFSRs whose step function is
//!   bit-identical to the generated self-test routine's code, so Rust-side
//!   pattern prediction and the executed assembly agree.
//! - [`misr`] — the shared software MISR used to compact responses into the
//!   per-CUT signature that is unloaded to data memory; [`misr_grade`]
//!   grades faults by whether they survive that compaction.
//!
//! The regular deterministic test sets and the choice of strategy per
//! component live with the routine emitters in `sbst-core`
//! (`RoutineSpec::recommended`).

pub mod atpg;
pub mod lfsr;
pub mod misr;
pub mod misr_grade;

pub use atpg::{
    op_constraints, per_function_campaign, Atpg, AtpgConfig, AtpgOutcome, AtpgResult, AtpgStats,
    AtpgTelemetry, AtpgThreadStats, InputConstraint,
};
pub use lfsr::{Lfsr32, LfsrConfig};
pub use misr::Misr32;
pub use misr_grade::{signature_grade, SignatureGradeResult};
