//! Quickstart: the SBST methodology end to end on one component.
//!
//! Builds the ALU, classifies it, picks its recommended code style
//! (`RegD (L + I)`: regular deterministic, loops + immediates), builds that
//! self-test routine, executes it on the MIPS ISS, and fault-grades the
//! captured operand trace against every collapsed stuck-at fault of the
//! gate-level ALU.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use std::error::Error;

use sbst::core::{classification_row, grade_routine, Cut, RoutineSpec};
use sbst::cpu::{AnalyticStallModel, ExecTimeEstimate, QuantumConfig};

fn main() -> Result<(), Box<dyn Error>> {
    // Phase A/B: the component, its class, and its priority.
    let cut = Cut::alu(32);
    let row = classification_row(&cut, cut.gate_equivalents());
    println!(
        "component: {} — class {}, {} gate-equivalents, {} collapsed faults",
        row.name,
        row.class,
        row.gates,
        cut.fault_count()
    );

    // Phase C: the recommended code style, and its routine.
    let spec = RoutineSpec::recommended(&cut);
    println!("style:     {}", spec.style);
    let routine = spec.build(&cut)?;
    println!(
        "routine:   {} words ({} code + {} data)",
        routine.size_words(),
        routine.program.code_words(),
        routine.program.data_words()
    );

    // Execute and grade.
    let graded = grade_routine(&cut, &routine)?;
    println!(
        "executed:  {} instructions, {} cycles, {} data references",
        graded.stats.instructions,
        graded.stats.total_cycles(),
        graded.stats.data_refs()
    );
    println!("signature: {:#010x}", graded.signature);
    println!("coverage:  {}", graded.coverage);

    // The Section 2 check: does this fit an OS scheduling quantum?
    let est = ExecTimeEstimate::from_stats(
        &graded.stats,
        QuantumConfig::default(),
        Some(AnalyticStallModel::default()),
    );
    println!(
        "exec time: {:?} at 57 MHz ({:.5}% of a 200 ms quantum)",
        est.time,
        est.quantum_fraction * 100.0
    );

    // Show the first lines of the generated assembly.
    println!("\nroutine head:");
    for line in routine.program.listing().lines().take(16) {
        println!("  {line}");
    }
    Ok(())
}
