//! Error identification from unloaded signatures.
//!
//! "At the end of periodic testing 7 signatures, one for every CUT, are
//! unloaded to data memory for fault detection" (Section 4) — and because
//! each signature compacts exactly one CUT's responses, a mismatch also
//! *identifies* the faulty component. This module implements that
//! diagnosis step: golden signatures are computed once (fault-free run at
//! deployment/characterization time), and each in-field run's signatures
//! are compared against them.

use sbst_components::ComponentKind;

use crate::program::{ProgramRun, SelfTestProgram};

/// The outcome of one in-field test run compared against golden signatures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnosis {
    /// Signature comparisons: `(component, label, golden, observed,
    /// mismatch)`.
    pub entries: Vec<DiagnosisEntry>,
}

/// One per-CUT signature comparison.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DiagnosisEntry {
    /// The component the signature covers.
    pub kind: ComponentKind,
    /// The signature's data-memory label.
    pub label: String,
    /// Golden (fault-free) signature.
    pub golden: u32,
    /// Observed signature.
    pub observed: u32,
}

impl DiagnosisEntry {
    /// Whether this CUT's signature flags a fault.
    pub fn mismatch(&self) -> bool {
        self.golden != self.observed
    }
}

impl Diagnosis {
    /// `true` when every signature matched (the system is fault-free as
    /// far as the test program can tell).
    pub fn healthy(&self) -> bool {
        self.entries.iter().all(|e| !e.mismatch())
    }

    /// The components whose signatures mismatched — the paper's error
    /// identification.
    pub fn faulty_components(&self) -> Vec<ComponentKind> {
        self.entries
            .iter()
            .filter(|e| e.mismatch())
            .map(|e| e.kind)
            .collect()
    }

    /// Number of mismatching signatures.
    pub fn mismatch_count(&self) -> usize {
        self.entries.iter().filter(|e| e.mismatch()).count()
    }
}

/// Golden signatures for a program, captured from a known-good execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GoldenSignatures {
    entries: Vec<(ComponentKind, String, u32)>,
}

impl GoldenSignatures {
    /// Captures golden signatures from a fault-free run of `program`.
    ///
    /// # Errors
    ///
    /// Returns [`GradeError`](crate::grade::GradeError) if the program
    /// fails to execute.
    pub fn capture(program: &SelfTestProgram) -> Result<Self, crate::grade::GradeError> {
        let run = program.run()?;
        Ok(GoldenSignatures::from_run(program, &run))
    }

    /// Builds golden signatures from an already-completed run.
    pub fn from_run(program: &SelfTestProgram, run: &ProgramRun) -> Self {
        let entries = program
            .cuts
            .iter()
            .zip(&run.signatures)
            .map(|(cut, (label, sig))| (cut.kind(), label.clone(), *sig))
            .collect();
        GoldenSignatures { entries }
    }

    /// Compares an in-field run's signatures against the golden set.
    ///
    /// # Panics
    ///
    /// Panics if the run's signature labels do not match the golden set's
    /// (i.e. the runs come from different programs).
    pub fn diagnose(&self, run: &ProgramRun) -> Diagnosis {
        assert_eq!(
            self.entries.len(),
            run.signatures.len(),
            "signature count mismatch: different programs"
        );
        let entries = self
            .entries
            .iter()
            .zip(&run.signatures)
            .map(|((kind, label, golden), (run_label, observed))| {
                assert_eq!(label, run_label, "signature label mismatch");
                DiagnosisEntry {
                    kind: *kind,
                    label: label.clone(),
                    golden: *golden,
                    observed: *observed,
                }
            })
            .collect();
        Diagnosis { entries }
    }

    /// Compares raw signature words read from data memory (the in-field
    /// path, where only the memory image is available).
    pub fn diagnose_memory<F: Fn(&str) -> u32>(&self, read_signature: F) -> Diagnosis {
        let entries = self
            .entries
            .iter()
            .map(|(kind, label, golden)| DiagnosisEntry {
                kind: *kind,
                label: label.clone(),
                golden: *golden,
                observed: read_signature(label),
            })
            .collect();
        Diagnosis { entries }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cut::Cut;

    fn program() -> SelfTestProgram {
        SelfTestProgram::build(&[Cut::alu(8), Cut::shifter(8)]).unwrap()
    }

    #[test]
    fn healthy_run_diagnoses_clean() {
        let p = program();
        let golden = GoldenSignatures::capture(&p).unwrap();
        let run = p.run().unwrap();
        let d = golden.diagnose(&run);
        assert!(d.healthy());
        assert!(d.faulty_components().is_empty());
    }

    #[test]
    fn corrupted_signature_identifies_component() {
        let p = program();
        let golden = GoldenSignatures::capture(&p).unwrap();
        let mut run = p.run().unwrap();
        // Corrupt the shifter's signature, as a shifter fault would.
        run.signatures[1].1 ^= 0x0000_0100;
        let d = golden.diagnose(&run);
        assert!(!d.healthy());
        assert_eq!(
            d.faulty_components(),
            vec![sbst_components::ComponentKind::Shifter]
        );
    }

    #[test]
    fn memory_path_diagnosis() {
        let p = program();
        let golden = GoldenSignatures::capture(&p).unwrap();
        let run = p.run().unwrap();
        let d = golden.diagnose_memory(|label| {
            run.signatures
                .iter()
                .find(|(l, _)| l == label)
                .map(|(_, s)| *s)
                .unwrap()
        });
        assert!(d.healthy());
    }

    fn three_cut_program() -> SelfTestProgram {
        SelfTestProgram::build(&[Cut::alu(8), Cut::shifter(8), Cut::multiplier(8)]).unwrap()
    }

    #[test]
    fn multiple_simultaneous_mismatches_all_identified() {
        // Two components fail at once (e.g. a common-mode supply
        // disturbance): each mismatching signature identifies its own CUT,
        // in signature-unload order, with the healthy one excluded.
        let p = three_cut_program();
        let golden = GoldenSignatures::capture(&p).unwrap();
        let mut run = p.run().unwrap();
        run.signatures[0].1 ^= 0x0000_0001; // ALU
        run.signatures[2].1 ^= 0x8000_0000; // multiplier
        let d = golden.diagnose(&run);
        assert!(!d.healthy());
        assert_eq!(d.mismatch_count(), 2);
        assert_eq!(
            d.faulty_components(),
            vec![
                sbst_components::ComponentKind::Alu,
                sbst_components::ComponentKind::Multiplier
            ]
        );
    }

    #[test]
    fn memory_path_identifies_multiple_faulty_components() {
        // The in-field path (reading raw words from data memory) must
        // identify every simultaneously-faulty CUT too — including the
        // degenerate all-faulty case.
        let p = three_cut_program();
        let golden = GoldenSignatures::capture(&p).unwrap();
        let run = p.run().unwrap();
        let d = golden.diagnose_memory(|label| {
            let sig = run
                .signatures
                .iter()
                .find(|(l, _)| l == label)
                .map(|(_, s)| *s)
                .unwrap();
            // Every signature reads back corrupted, each differently.
            sig ^ (0x10 + label.len() as u32)
        });
        assert!(!d.healthy());
        assert_eq!(d.mismatch_count(), 3);
        assert_eq!(
            d.faulty_components(),
            vec![
                sbst_components::ComponentKind::Alu,
                sbst_components::ComponentKind::Shifter,
                sbst_components::ComponentKind::Multiplier
            ]
        );
    }
}
