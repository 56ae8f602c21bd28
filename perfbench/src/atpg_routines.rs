//! `atpg_routines`: build and grade the Figure-1 `AtpgD (I)` routines for
//! the ALU and the shifter. PODEM does almost all of the work; the fault
//! simulator only runs short drop-simulation batches inside ATPG and one
//! grading pass per routine.
//!
//! The shifter is the full 32-bit one whose routine Table 1 carries. The
//! ALU is 10 bits wide: its campaign aborts on a third of its PODEM
//! targets, as the 32-bit ALU's does on half, while one build takes ~3 s
//! instead of ~18 s.

use sbst_core::{grade_routine_with, CodeStyle, Cut, JsonValue, RoutineSpec};
use sbst_gates::{FaultCoverage, FaultSimConfig};
use sbst_isa::Program;
use sbst_tpg::AtpgConfig;

use crate::layers;
use crate::trace::Trace;
use crate::{Quality, Workload};

/// Width of the ALU (8 under `--smoke`).
pub const ALU_WIDTH: usize = 10;
/// Width of the barrel shifter (8 under `--smoke`).
pub const SHIFTER_WIDTH: usize = 32;

/// A width-parameterized CUT constructor.
type CutConstructor = fn(usize) -> Cut;

/// One built and graded routine.
#[derive(Debug, Clone, PartialEq)]
pub struct RoutineFacts {
    program: Program,
    coverage: FaultCoverage,
    transition_coverage: FaultCoverage,
    cycles: u64,
    signature: u32,
}

pub struct AtpgRoutines {
    widths: [usize; 2],
    sim: FaultSimConfig,
    atpg: AtpgConfig,
}

impl AtpgRoutines {
    pub fn new(seed: u64, smoke: bool) -> Self {
        AtpgRoutines {
            widths: if smoke {
                [8, 8]
            } else {
                [ALU_WIDTH, SHIFTER_WIDTH]
            },
            sim: layers::serial_sim(),
            atpg: layers::serial_atpg(seed),
        }
    }

    fn spec(&self) -> RoutineSpec {
        RoutineSpec {
            atpg: self.atpg,
            ..RoutineSpec::new(CodeStyle::AtpgImmediate)
        }
    }

    fn constructors(&self) -> [(CutConstructor, usize); 2] {
        [(Cut::alu, self.widths[0]), (Cut::shifter, self.widths[1])]
    }
}

fn quality(routines: &[RoutineFacts]) -> Quality {
    Quality {
        stuck_at: routines.iter().map(|r| r.coverage).sum(),
        transition: routines.iter().map(|r| r.transition_coverage).sum(),
        words: routines.iter().map(|r| r.program.size_words() as u64).sum(),
        cycles: routines.iter().map(|r| r.cycles).sum(),
    }
}

impl Workload for AtpgRoutines {
    type State = Vec<Cut>;
    type Output = Vec<RoutineFacts>;

    fn config(&self) -> Vec<(&'static str, JsonValue)> {
        vec![
            (
                "cuts",
                JsonValue::from(format!(
                    "alu({}), shifter({})",
                    self.widths[0], self.widths[1]
                )),
            ),
            (
                "code_style",
                JsonValue::from(CodeStyle::AtpgImmediate.code()),
            ),
            ("fault_sim_threads", JsonValue::from(1u64)),
            ("fault_sim_engine", JsonValue::from(self.sim.engine.name())),
            ("podem_threads", JsonValue::from(1u64)),
            (
                "atpg_sim_engine",
                JsonValue::from(self.atpg.sim_engine.name()),
            ),
            ("atpg_rng_seed", JsonValue::from(self.atpg.rng_seed)),
            (
                "backtrack_limit",
                JsonValue::from(self.atpg.backtrack_limit),
            ),
        ]
    }

    fn setup(&self) -> Vec<Cut> {
        self.constructors()
            .iter()
            .map(|(build, w)| build(*w))
            .collect()
    }

    fn run(&self, cuts: &Vec<Cut>) -> Vec<RoutineFacts> {
        let spec = self.spec();
        cuts.iter()
            .map(|cut| {
                let (routine, _) = spec.build_traced(cut).expect("routine builds");
                let graded = grade_routine_with(cut, &routine, self.sim).expect("routine grades");
                RoutineFacts {
                    program: routine.program,
                    coverage: graded.coverage,
                    transition_coverage: graded.transition_coverage,
                    cycles: graded.stats.total_cycles(),
                    signature: graded.signature,
                }
            })
            .collect()
    }

    fn run_traced(&self, trace: &mut Trace) -> (Vec<RoutineFacts>, Quality) {
        let cuts: Vec<Cut> = self
            .constructors()
            .iter()
            .map(|(build, w)| layers::cut(trace, || build(*w)))
            .collect();
        let spec = self.spec();
        let routines = trace.span("run", |trace| {
            cuts.iter()
                .map(|cut| {
                    let routine = layers::build_routine(trace, cut, &spec);
                    let (stats, operands, signature) = layers::execute(trace, &routine);
                    let stimulus = layers::stimulus(trace, cut, &operands);
                    assert!(
                        !stimulus.is_empty(),
                        "{} routine applies operations",
                        cut.name()
                    );
                    let (coverage, transition_coverage) =
                        layers::grade_models(trace, cut, &stimulus, self.sim);
                    RoutineFacts {
                        program: routine.program,
                        coverage,
                        transition_coverage,
                        cycles: stats.total_cycles(),
                        signature,
                    }
                })
                .collect::<Vec<_>>()
        });
        let quality = quality(&routines);
        (routines, quality)
    }

    fn operations(&self, output: &Vec<RoutineFacts>) -> u64 {
        output.len() as u64
    }

    fn failures(&self, reference: &Vec<RoutineFacts>, output: &Vec<RoutineFacts>) -> u64 {
        if reference.len() != output.len() {
            return output.len().max(1) as u64;
        }
        reference.iter().zip(output).filter(|(a, b)| a != b).count() as u64
    }

    fn work(&self, output: &Vec<RoutineFacts>) -> (f64, &'static str) {
        (output.len() as f64, "routines")
    }
}
