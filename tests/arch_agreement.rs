//! Architectural fault injection agrees with trace-replay grading.
//!
//! Mounts sampled stuck-at faults in the 32-bit ALU and shifter netlists
//! *inside the datapath* and runs the self-test routine end to end: a fault
//! is detected when the unloaded signature differs (or execution derails).
//! Trace-replay grading (output divergence at observation points) must
//! agree for the overwhelming majority of faults — disagreements can only
//! come from MISR aliasing or from fault effects taking datapath routes
//! the replay does not model, both of which the paper argues are rare.

use sbst::core::grade::arch_validate;
use sbst::core::{ArchValidation, Cut, RoutineSpec};
use sbst::gates::Fault;

fn sample_faults(cut: &Cut, stride: usize) -> Vec<Fault> {
    cut.component
        .netlist
        .collapsed_faults()
        .into_iter()
        .step_by(stride)
        .collect()
}

#[test]
fn alu_arch_vs_replay_agreement() {
    let cut = Cut::alu(32);
    let routine = RoutineSpec::recommended(&cut).build(&cut).unwrap();
    let sample = sample_faults(&cut, 37);
    let v = arch_validate(&cut, &routine, &sample).expect("validation runs");
    assert!(
        v.agreement_percent() >= 95.0,
        "agreement {:.1}% ({} replay-only, {} arch-only of {})",
        v.agreement_percent(),
        v.replay_only,
        v.arch_only,
        v.total()
    );
}

#[test]
fn shifter_arch_vs_replay_agreement() {
    let cut = Cut::shifter(32);
    let routine = RoutineSpec::recommended(&cut).build(&cut).unwrap();
    let sample = sample_faults(&cut, 29);
    let v = arch_validate(&cut, &routine, &sample).expect("validation runs");
    assert!(
        v.agreement_percent() >= 95.0,
        "agreement {:.1}% ({} replay-only, {} arch-only of {})",
        v.agreement_percent(),
        v.replay_only,
        v.arch_only,
        v.total()
    );
}

/// Cross-validates every `stride`-th collapsed fault of `cut`.
fn validate_full_list(cut: &Cut, stride: usize) -> ArchValidation {
    let routine = RoutineSpec::recommended(cut).build(cut).unwrap();
    arch_validate(cut, &routine, &sample_faults(cut, stride)).expect("validation runs")
}

/// The full lists, pinned exactly: the ALU agrees on all 2,311 collapsed
/// faults, the shifter on 1,809 of 1,811 (two faults the replay detects
/// and the end-to-end run does not), and every 7th multiplier fault
/// agrees. Run in release mode: `cargo test --release --test
/// arch_agreement -- --ignored` (a few seconds per component).
#[test]
#[ignore = "full fault lists; ci.sh runs it in release mode"]
fn full_lists_arch_vs_replay_counts() {
    let pinned = |agreements, replay_only| ArchValidation {
        agreements,
        replay_only,
        arch_only: 0,
    };
    assert_eq!(validate_full_list(&Cut::alu(32), 1), pinned(2_311, 0));
    assert_eq!(validate_full_list(&Cut::shifter(32), 1), pinned(1_809, 2));
    assert_eq!(
        validate_full_list(&Cut::multiplier(32), 7),
        pinned(3_667, 0)
    );
}

#[test]
fn mounted_fault_changes_signature() {
    use sbst::core::grade::execute_routine;
    use sbst::cpu::{ArchFault, Cpu, CpuConfig};

    let cut = Cut::alu(32);
    let routine = RoutineSpec::recommended(&cut).build(&cut).unwrap();
    let (stats, _, good) = execute_routine(&routine).unwrap();

    // An easily-excited fault: stuck result bit. It corrupts branch
    // comparisons too, so the run may spin — a tight watchdog turns that
    // into a detection (in the field, the OS would reap the hung test
    // process, which is equally observable).
    let fault = Fault::stem_sa1(cut.component.ports.output("result").net(0));
    let mut cpu = Cpu::new(CpuConfig {
        max_instructions: stats.instructions * 16 + 10_000,
        ..CpuConfig::default()
    });
    cpu.load_program(&routine.program);
    cpu.mount_fault(ArchFault::new(cut.component.clone(), fault));
    let detected = match cpu.run() {
        Err(_) => true, // derailed execution: detected
        Ok(_) => {
            let sig = cpu
                .memory()
                .read_word(routine.program.symbol(&routine.sig_label).unwrap());
            sig != good
        }
    };
    assert!(detected, "stuck result bit must be detected");
}
