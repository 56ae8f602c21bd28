//! The SBST methodology for on-line periodic testing — the paper's primary
//! contribution.
//!
//! The crate implements the three phases of Section 3 end to end:
//!
//! - **Phase A** ([`extract`]): identify component operations and the
//!   instructions that excite, control and observe each component.
//! - **Phase B** ([`classify`]): classify components (D-VC / A-VC / M-VC /
//!   PVC / HC) and order them by test priority.
//! - **Phase C** ([`codestyle`], [`routine`]): develop self-test routines in
//!   the four code styles of Figures 1–4, with responses compacted by the
//!   shared software MISR and signatures unloaded to data memory.
//!
//! [`grade`] closes the loop: routines execute on the `sbst-cpu` ISS, the
//! captured operand traces replay through the gate-level netlists under
//! every collapsed stuck-at fault, and per-CUT coverage rolls up into the
//! Table-1 report ([`report`]).
//!
//! # Quickstart
//!
//! ```
//! use sbst_core::{Cut, RoutineSpec, grade_routine};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let cut = Cut::alu(8); // 8-bit ALU keeps the doctest fast
//! let routine = RoutineSpec::recommended(&cut).build(&cut)?;
//! let graded = grade_routine(&cut, &routine)?;
//! assert!(graded.coverage.percent() > 90.0);
//! # Ok(())
//! # }
//! ```

pub mod classify;
pub mod codestyle;
pub mod cut;
pub mod diagnose;
pub mod extract;
pub mod grade;
pub mod json;
pub mod mac;
pub mod metrics;
pub mod plan;
pub mod program;
pub mod report;
pub mod routine;

pub use classify::{classification_row, test_priority_order, testability_row};
pub use codestyle::CodeStyle;
pub use cut::Cut;
pub use diagnose::{Diagnosis, GoldenSignatures};
pub use grade::{
    arch_validate, grade_routine, grade_routine_with, grade_trace_models, stimulus_for,
    ArchValidation, GradeError, GradedRoutine, TraceGrade,
};
pub use json::{parse_ndjson, write_escaped, JsonValue, NdjsonError, NdjsonWriter};
pub use mac::{siphash24, MacKey, SipHash24};
pub use metrics::RunReport;
pub use plan::{
    build_managed_schedule, build_managed_schedule_graded, plan_excluding, plan_with_target,
    ManagedSchedule, TestPlan,
};
pub use program::SelfTestProgram;
pub use report::{Table1, Table1Row};
pub use routine::{BuildRoutineError, RoutineSpec, SelfTestRoutine};
