//! `table1`: the characterization user's job, `Table1::generate_with_model`
//! over the whole Table-1 inventory under both fault models. Fault grading
//! does almost all of the work.
//!
//! The inventory is the paper's at a 16-bit datapath (register file 8×16,
//! 8-bit branch offsets): at 32 bits one repetition takes ~14 s serially,
//! too long to repeat within a run.

use sbst_components::ComponentClass;
use sbst_core::{Cut, JsonValue, RoutineSpec, SelfTestProgram, Table1, Table1Row};
use sbst_gates::{FaultCoverage, FaultModel, FaultSimConfig};
use sbst_isa::{Asm, Instruction};
use sbst_tpg::AtpgConfig;

use crate::layers::{self, routine_tag};
use crate::trace::Trace;
use crate::{Quality, Workload};

/// A Table-1 row without its wall time: every field the check compares.
#[derive(Debug, Clone, PartialEq)]
pub struct RowFacts {
    name: String,
    gates: u32,
    classification: String,
    code_style: Option<String>,
    size_words: Option<usize>,
    cpu_cycles: Option<u64>,
    data_refs: Option<u64>,
    coverage: FaultCoverage,
    transition_coverage: FaultCoverage,
    dedicated_routine: bool,
}

impl From<&Table1Row> for RowFacts {
    fn from(row: &Table1Row) -> Self {
        RowFacts {
            name: row.name.clone(),
            gates: row.gates,
            classification: row.classification.clone(),
            code_style: row.code_style.clone(),
            size_words: row.size_words,
            cpu_cycles: row.cpu_cycles,
            data_refs: row.data_refs,
            coverage: row.coverage,
            transition_coverage: row.transition_coverage,
            dedicated_routine: row.dedicated_routine,
        }
    }
}

/// The checked part of a generated table.
#[derive(Debug, Clone, PartialEq)]
pub struct Table1Facts {
    rows: Vec<RowFacts>,
    total_size_words: usize,
    total_cycles: u64,
    total_data_refs: u64,
}

impl Table1Facts {
    fn quality(&self) -> Quality {
        Quality {
            stuck_at: self.rows.iter().map(|r| r.coverage).sum(),
            transition: self.rows.iter().map(|r| r.transition_coverage).sum(),
            words: self.total_size_words as u64,
            cycles: self.total_cycles,
        }
    }
}

pub struct Table1Workload {
    smoke: bool,
    sim: FaultSimConfig,
    atpg: AtpgConfig,
}

impl Table1Workload {
    pub fn new(seed: u64, smoke: bool) -> Self {
        Table1Workload {
            smoke,
            sim: layers::serial_sim(),
            atpg: layers::serial_atpg(seed),
        }
    }

    /// The inventory's constructors, in Table-1 order.
    fn constructors(&self) -> Vec<fn() -> Cut> {
        if self.smoke {
            vec![
                || Cut::multiplier(8),
                || Cut::divider(8),
                || Cut::regfile(8, 8),
                || Cut::memctrl(),
                || Cut::shifter(8),
                || Cut::alu(8),
                || Cut::control(),
                || Cut::pipeline(8),
                || Cut::pc_unit(8, 4),
            ]
        } else {
            vec![
                || Cut::multiplier(16),
                || Cut::divider(16),
                || Cut::regfile(8, 16),
                || Cut::memctrl(),
                || Cut::shifter(16),
                || Cut::alu(16),
                || Cut::control(),
                || Cut::pipeline(16),
                || Cut::pc_unit(16, 8),
            ]
        }
    }
}

fn gets_routine(cut: &Cut) -> bool {
    matches!(
        cut.class(),
        ComponentClass::DataVisible | ComponentClass::PartiallyVisible
    )
}

/// The Table-1 classification column: the class code, or the area split
/// across classes for mixed components.
fn classification(cut: &Cut) -> String {
    let split = &cut.component.area_split;
    if split.len() <= 1 {
        return cut.class().code().to_owned();
    }
    let total: u32 = split.iter().map(|(_, a)| a).sum();
    split
        .iter()
        .map(|(class, area)| {
            let pct = *area as f64 / total as f64 * 100.0;
            if pct > 0.0 && pct < 1.0 {
                format!("<1% {}", class.code())
            } else {
                format!("{pct:.0}% {}", class.code())
            }
        })
        .collect::<Vec<_>>()
        .join(" / ")
}

/// `SelfTestProgramBuilder::build` over the recommended specs, with each
/// body emitted through the traced layer calls.
fn build_combined(trace: &mut Trace, cuts: &[&Cut]) -> SelfTestProgram {
    let program = trace.span("routine.build", |trace| {
        let mut asm = Asm::new();
        let mut sig_labels = Vec::new();
        for cut in cuts {
            let sig_label = format!("sig_{}", routine_tag(cut.kind()));
            asm.data_label(&sig_label);
            asm.word(0);
            sbst_core::codestyle::emit_prologue(&mut asm);
            layers::emit_body(trace, cut, &RoutineSpec::recommended(cut), &mut asm);
            sbst_core::codestyle::emit_signature_unload(&mut asm, &sig_label);
            sig_labels.push(sig_label);
        }
        asm.insn(Instruction::Break { code: 0 });
        sbst_core::codestyle::emit_misr_subroutine(&mut asm, sbst_core::routine::MISR_LABEL);
        SelfTestProgram {
            program: asm
                .assemble(0, sbst_core::routine::DATA_BASE)
                .expect("combined program assembles"),
            cuts: cuts.iter().map(|c| (*c).clone()).collect(),
            sig_labels,
        }
    });
    trace.add("routine.words", program.size_words() as f64);
    program
}

impl Workload for Table1Workload {
    type State = Vec<Cut>;
    type Output = Table1Facts;

    fn config(&self) -> Vec<(&'static str, JsonValue)> {
        vec![
            (
                "inventory",
                JsonValue::from(if self.smoke {
                    "8-bit"
                } else {
                    "16-bit, regfile 8x16"
                }),
            ),
            ("fault_sim_threads", JsonValue::from(1u64)),
            ("fault_sim_engine", JsonValue::from(self.sim.engine.name())),
            ("podem_threads", JsonValue::from(1u64)),
            (
                "atpg_sim_engine",
                JsonValue::from(self.atpg.sim_engine.name()),
            ),
            ("atpg_rng_seed", JsonValue::from(self.atpg.rng_seed)),
        ]
    }

    fn setup(&self) -> Vec<Cut> {
        self.constructors()
            .into_iter()
            .map(|build| build())
            .collect()
    }

    fn run(&self, cuts: &Vec<Cut>) -> Table1Facts {
        let table = Table1::generate_with_model(cuts, self.sim, self.atpg, FaultModel::default())
            .expect("Table 1 generates");
        Table1Facts {
            rows: table.rows.iter().map(RowFacts::from).collect(),
            total_size_words: table.total_size_words,
            total_cycles: table.total_cycles,
            total_data_refs: table.total_data_refs,
        }
    }

    fn run_traced(&self, trace: &mut Trace) -> (Table1Facts, Quality) {
        let cuts: Vec<Cut> = self
            .constructors()
            .into_iter()
            .map(|build| layers::cut(trace, build))
            .collect();
        let facts = trace.span("run", |trace| {
            let classes: Vec<String> =
                trace.span("classify", |_| cuts.iter().map(classification).collect());
            let routine_cuts: Vec<&Cut> = cuts.iter().filter(|c| gets_routine(c)).collect();
            let combined = build_combined(trace, &routine_cuts);
            let combined_run = trace.span("iss.run", |_| combined.run().expect("program runs"));
            trace.add("iss.cycles", combined_run.stats.total_cycles() as f64);

            let rows = cuts
                .iter()
                .zip(classes)
                .map(|(cut, classification)| {
                    let mut row = RowFacts {
                        name: cut.name().to_owned(),
                        gates: cut.gate_equivalents(),
                        classification,
                        code_style: None,
                        size_words: None,
                        cpu_cycles: None,
                        data_refs: None,
                        coverage: FaultCoverage::default(),
                        transition_coverage: FaultCoverage::default(),
                        dedicated_routine: false,
                    };
                    let stimulus = if gets_routine(cut) {
                        let mut spec = RoutineSpec::recommended(cut);
                        spec.atpg = self.atpg;
                        let routine = layers::build_routine(trace, cut, &spec);
                        let (stats, operands, _) = layers::execute(trace, &routine);
                        row.code_style = Some(spec.style.code().to_owned());
                        row.size_words = Some(routine.size_words());
                        row.cpu_cycles = Some(stats.total_cycles());
                        row.data_refs = Some(stats.data_refs());
                        row.dedicated_routine = true;
                        layers::stimulus(trace, cut, &operands)
                    } else {
                        layers::stimulus(trace, cut, &combined_run.trace)
                    };
                    (row.coverage, row.transition_coverage) = if stimulus.is_empty() {
                        layers::empty_coverage(cut)
                    } else {
                        layers::grade_models(trace, cut, &stimulus, self.sim)
                    };
                    row
                })
                .collect();
            Table1Facts {
                rows,
                total_size_words: combined.size_words(),
                total_cycles: combined_run.stats.total_cycles(),
                total_data_refs: combined_run.stats.data_refs(),
            }
        });
        let quality = facts.quality();
        (facts, quality)
    }

    fn operations(&self, output: &Table1Facts) -> u64 {
        output.rows.len() as u64
    }

    fn failures(&self, reference: &Table1Facts, output: &Table1Facts) -> u64 {
        let totals_match = reference.total_size_words == output.total_size_words
            && reference.total_cycles == output.total_cycles
            && reference.total_data_refs == output.total_data_refs
            && reference.rows.len() == output.rows.len();
        if !totals_match {
            return output.rows.len() as u64;
        }
        reference
            .rows
            .iter()
            .zip(&output.rows)
            .filter(|(a, b)| a != b)
            .count() as u64
    }

    fn work(&self, output: &Table1Facts) -> (f64, &'static str) {
        let q = output.quality();
        ((q.stuck_at.total + q.transition.total) as f64, "faults")
    }
}
