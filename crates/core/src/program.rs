//! Whole self-test program composition.
//!
//! The on-line periodic test program is the concatenation of one routine
//! per targeted CUT, sharing a single 8-word MISR subroutine; at the end of
//! the run one signature per CUT sits in data memory for error
//! identification (the paper unloads 7 signatures). The program must meet
//! the Section 2 requirements: small footprint, no unresolved hazards,
//! compact loops, few data references.

use sbst_cpu::{Cpu, CpuConfig, ExecStats, OperandTrace};
use sbst_isa::{Asm, Instruction, Program};
use sbst_tpg::AtpgTelemetry;

use crate::codestyle::{emit_misr_subroutine, emit_prologue, emit_signature_unload};
use crate::cut::Cut;
use crate::grade::GradeError;
use crate::routine::{routine_name, BuildRoutineError, RoutineSpec, DATA_BASE, MISR_LABEL};

/// The combined on-line periodic self-test program.
#[derive(Debug, Clone)]
pub struct SelfTestProgram {
    /// The assembled program.
    pub program: Program,
    /// The routine CUTs, in emission order.
    pub cuts: Vec<Cut>,
    /// Signature labels, parallel to `cuts`.
    pub sig_labels: Vec<String>,
}

/// The result of one fault-free program execution.
#[derive(Debug, Clone)]
pub struct ProgramRun {
    /// Execution statistics.
    pub stats: ExecStats,
    /// The full operand trace (all components, all routines — also the
    /// side-effect stimulus for hidden/address components).
    pub trace: OperandTrace,
    /// `(label, signature)` pairs unloaded to data memory.
    pub signatures: Vec<(String, u32)>,
}

impl SelfTestProgram {
    /// Assembles the combined program from the CUTs' recommended routines,
    /// in the order given.
    ///
    /// # Errors
    ///
    /// Returns [`BuildRoutineError`] if any routine body fails to build, or
    /// (as an assembly error) if the same CUT kind appears twice (label
    /// uniqueness).
    pub fn build(cuts: &[Cut]) -> Result<SelfTestProgram, BuildRoutineError> {
        let routines = cuts.iter().map(|cut| (cut, RoutineSpec::recommended(cut)));
        let (program, sig_labels) =
            SelfTestProgram::compose(routines, &mut AtpgTelemetry::default())?;
        Ok(SelfTestProgram {
            program,
            cuts: cuts.to_vec(),
            sig_labels,
        })
    }

    /// The one composer: one routine per `(cut, spec)` pair, in order,
    /// around one shared tail (the `break` and the MISR subroutine), with
    /// the ATPG instrumentation folded into `telemetry`. A standalone
    /// routine is its one-pair program. Returns the signature labels too.
    pub(crate) fn compose<'a>(
        routines: impl IntoIterator<Item = (&'a Cut, RoutineSpec)>,
        telemetry: &mut AtpgTelemetry,
    ) -> Result<(Program, Vec<String>), BuildRoutineError> {
        let mut asm = Asm::new();
        let mut sig_labels = Vec::new();
        for (cut, spec) in routines {
            let sig_label = format!("sig_{}", routine_name(cut.kind()));
            asm.data_label(&sig_label);
            asm.word(0);
            emit_prologue(&mut asm); // reseed the MISR per routine
            spec.emit_body_traced(cut, &mut asm, telemetry)?;
            emit_signature_unload(&mut asm, &sig_label);
            sig_labels.push(sig_label);
        }
        asm.insn(Instruction::Break { code: 0 });
        emit_misr_subroutine(&mut asm, MISR_LABEL);
        Ok((asm.assemble(0, DATA_BASE)?, sig_labels))
    }

    /// Memory footprint in words.
    pub fn size_words(&self) -> usize {
        self.program.size_words()
    }

    /// Runs the program fault-free with tracing.
    ///
    /// # Errors
    ///
    /// Returns [`GradeError`] if execution fails.
    pub fn run(&self) -> Result<ProgramRun, GradeError> {
        SelfTestProgram::traced_run(&self.program, &self.sig_labels)
    }

    /// The one fault-free traced run of a composed program, reading the
    /// signature at each of `sig_labels`.
    pub(crate) fn traced_run(
        program: &Program,
        sig_labels: &[String],
    ) -> Result<ProgramRun, GradeError> {
        let mut cpu = Cpu::new(CpuConfig {
            trace: true,
            ..CpuConfig::self_test()
        });
        cpu.load_program(program);
        let outcome = cpu.run()?;
        let signatures = sig_labels
            .iter()
            .map(|label| {
                let addr = program
                    .symbol(label)
                    .expect("builder defined every signature label");
                (label.clone(), cpu.memory().read_word(addr))
            })
            .collect();
        Ok(ProgramRun {
            stats: outcome.stats,
            trace: cpu.take_trace(),
            signatures,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grade::grade_trace;

    fn small_program() -> SelfTestProgram {
        SelfTestProgram::build(&[Cut::alu(8), Cut::shifter(8), Cut::control()]).unwrap()
    }

    #[test]
    fn combined_program_runs_and_unloads_signatures() {
        let p = small_program();
        let run = p.run().unwrap();
        assert_eq!(run.signatures.len(), 3);
        for (label, sig) in &run.signatures {
            assert_ne!(*sig, 0, "signature {label} never written");
        }
        assert!(run.stats.instructions > 100);
    }

    #[test]
    fn shared_misr_appears_once() {
        let p = small_program();
        // Shared subroutine: combined program is smaller than the sum of
        // standalone routines (each of which carries its own MISR copy).
        let standalone: usize = [Cut::alu(8), Cut::shifter(8), Cut::control()]
            .iter()
            .map(|cut| {
                RoutineSpec::recommended(cut)
                    .build(cut)
                    .unwrap()
                    .size_words()
            })
            .sum();
        assert!(p.size_words() < standalone);
    }

    #[test]
    fn duplicate_kind_rejected() {
        assert!(SelfTestProgram::build(&[Cut::alu(8), Cut::alu(8)]).is_err());
    }

    #[test]
    fn branch_stream_grades_a_dedicated_comparator() {
        // Cores with a dedicated branch comparator grade it from the same
        // trace, without any routine of its own.
        let p = small_program();
        let run = p.run().unwrap();
        let cmp = Cut::comparator(8);
        let coverage = grade_trace(&cmp, &run.trace);
        assert!(
            coverage.percent() > 40.0,
            "comparator side-effect coverage {coverage}"
        );
    }

    #[test]
    fn full_trace_grades_side_effect_components() {
        let p = small_program();
        let run = p.run().unwrap();
        // The pipeline (HC) gets meaningful side-effect coverage from the
        // combined program's data flow, without any routine of its own.
        let pipe = Cut::pipeline(8);
        let coverage = grade_trace(&pipe, &run.trace);
        assert!(
            coverage.percent() > 50.0,
            "side-effect pipeline coverage {coverage}"
        );
    }
}
