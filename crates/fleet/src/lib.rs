//! Fleet-scale on-line periodic testing.
//!
//! The paper's on-line test manager guards *one* embedded processor:
//! periodic self-test sessions under a watchdog, bounded backed-off
//! retries, transient-vs-permanent classification and quarantine. Real
//! deployments run thousands of such cores, all executing the *same*
//! certified test set. This crate scales the single manager to a simulated
//! fleet around four ideas:
//!
//! - **Characterize once, run everywhere** ([`characterize`]): the graded
//!   schedule, golden [`sbst_cpu::manager::SignatureStore`] and mountable
//!   netlists with their compiled tapes are built exactly once, before
//!   any node runs, and shared immutably via `Arc`. An atomic counter
//!   proves the "exactly once" invariant for any node and worker count.
//! - **Heterogeneous populations** ([`profile`]): each node draws a
//!   lifetime profile (healthy / infant-mortality / wear-out /
//!   correlated-batch defect) as a pure function of `(seed, node index)`,
//!   mounting gate-level stuck-at faults through the shared tapes.
//! - **One node per work item** ([`scheduler`]): one
//!   [`sbst_gates::fan_out`] over the node indices, each item running one
//!   node to completion; outcomes come back in node-index order, so
//!   aggregates are bit-identical for any worker count under a fixed seed.
//! - **Streaming telemetry** ([`scheduler`], [`aggregate`]): each
//!   finished node's NDJSON records written as one batch through one
//!   shared [`sbst_core::NdjsonWriter`], rolled up into a deterministic
//!   aggregation tree (quarantine rate, fleet coverage SLO,
//!   transient-rate drift anomalies).
//!
//! # Example
//!
//! ```
//! use sbst_core::Cut;
//! use sbst_fleet::{Characterizer, FleetConfig, run_fleet};
//!
//! let characterizer = Characterizer::new(vec![Cut::alu(32), Cut::shifter(32)]);
//! let config = FleetConfig {
//!     nodes: 8,
//!     workers: 2,
//!     ..FleetConfig::default()
//! };
//! let run = run_fleet(&config, &characterizer, None);
//! assert_eq!(run.characterizations, 1);
//! assert_eq!(run.aggregate.nodes, 8);
//! ```

pub mod aggregate;
pub mod characterize;
pub mod node;
pub mod profile;
pub mod scheduler;

pub use aggregate::{Aggregate, Anomaly, ProfileGroup};
pub use characterize::{Characterizer, FaultTarget, FaultTargets, SharedArtifacts};
pub use node::{FleetNode, NodeOutcome, SessionSample};
pub use profile::{
    assign_profile, AttackKind, NodeProfile, PlannedAttack, PlannedFault, PopulationMix,
    ProfileKind, TargetSpec, NOMINAL_HZ,
};
pub use scheduler::{run_fleet, FleetConfig, FleetRun, WorkerStats};
