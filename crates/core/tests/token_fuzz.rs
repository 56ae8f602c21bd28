//! Seeded token fuzz of the two text formats the tools read: assembly
//! source (`parse_asm` → `Asm::assemble`) and JSON (`json::parse`,
//! `parse_ndjson`). Inputs are random token soups and valid inputs with
//! random tokens spliced in. No input may panic, and every rejected input
//! must come back as the parser's typed error pointing inside the input.

use std::panic::{catch_unwind, AssertUnwindSafe};

use sbst_core::json::{self, JsonValue};
use sbst_core::parse_ndjson;
use sbst_isa::parse_asm;

/// Cases per fuzz target; the whole file runs in about a second in a
/// debug build.
const CASES: usize = 200_000;

/// SplitMix64: a tiny seeded generator, so every failure is reproducible.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn pick<'a>(&mut self, items: &[&'a str]) -> &'a str {
        items[self.below(items.len())]
    }
}

/// Runs `check` on `input`, naming the input if anything panics.
fn no_panic(what: &str, input: &str, check: impl FnOnce()) {
    if catch_unwind(AssertUnwindSafe(check)).is_err() {
        panic!("{what} panicked on input {input:?}");
    }
}

#[rustfmt::skip]
const ASM_TOKENS: &[&str] = &[
    "addu", "addiu", "subu", "and", "andi", "or", "ori", "xor", "xori", "nor", "slt", "sltu",
    "slti", "sltiu", "sll", "srl", "sra", "sllv", "srlv", "srav", "lui", "lw", "sw", "lb", "lbu",
    "sb", "lh", "sh", "beq", "bne", "blez", "bgtz", "bltz", "bgez", "j", "jal", "jr", "jalr",
    "mult", "multu", "div", "divu", "mfhi", "mflo", "break", "li", "la", "move", "nop", "b",
    "ADDU", "$t0", "$t1", "$s0", "$s4", "$zero", "$ra", "$sp", "$31", "$0", "$32", "$99", "$",
    "$x", "t0", "0", "1", "-1", "4", "31", "32", "-32768", "32767", "32768", "65535", "65536",
    "0x7fffffff", "0xffffffff", "0x100000000", "-2147483648", "-2147483649", "4294967295",
    "4294967296", "99999999999999999999", "0x", "0xg", "--1", "1e3", ",", ", ", "(", ")",
    "4($s0)", "($t0)", "-4($sp)", "0x10($t1", ":", "loop:", "sig:", "end:", "loop", "sig",
    "end", "1abc:", "a-b:", "::", "#", ";", ".data", ".text", ".word", ".WORD", ".align", "é",
    "∑:", "\t", " ", "",
];

const ASM_LINES: &[&str] = &[
    "li $s0, 0x55555555",
    "loop: addiu $t0, $t0, 1",
    "bne $t0, $s4, loop",
    "nop",
    "lw $t1, 4($s0)",
    "sw $t1, 0($sp)",
    "sll $t2, $t1, 31",
    "j end",
    "jal loop",
    "la $a0, sig",
    "mult $t0, $t1",
    "mflo $v0",
    "end: break 0",
    ".data",
    "sig: .word 0, -1, 0xffffffff",
    ".text",
];

fn token_soup(rng: &mut Rng, tokens: &[&str], max: usize) -> String {
    let seps = [" ", ", ", "", "\t", " , "];
    (0..rng.below(max + 1))
        .map(|_| rng.pick(tokens).to_owned() + rng.pick(&seps))
        .collect()
}

fn asm_source(rng: &mut Rng) -> String {
    let lines = 1 + rng.below(8);
    (0..lines)
        .map(|_| {
            if rng.below(4) == 0 {
                token_soup(rng, ASM_TOKENS, 7)
            } else {
                // A valid line with one token replaced.
                let line = rng.pick(ASM_LINES);
                let mut words: Vec<&str> = line.split(' ').collect();
                if rng.below(2) == 0 {
                    let at = rng.below(words.len());
                    words[at] = rng.pick(ASM_TOKENS);
                }
                words.join(" ")
            }
        })
        .collect::<Vec<_>>()
        .join("\n")
}

#[test]
fn assembler_rejects_every_bad_source_with_a_typed_error() {
    let mut rng = Rng(0xA55E_3B1E);
    let (mut parsed, mut assembled) = (0, 0);
    for _ in 0..CASES {
        let source = asm_source(&mut rng);
        no_panic("parse_asm/assemble", &source, || match parse_asm(&source) {
            Ok(asm) => {
                parsed += 1;
                match asm.assemble(0, 0x1000) {
                    Ok(_) => assembled += 1,
                    Err(e) => assert!(!e.to_string().is_empty()),
                }
            }
            Err(e) => {
                let lines = source.lines().count().max(1);
                assert!(
                    (1..=lines).contains(&e.line),
                    "error line {} outside 1..={lines} for {source:?}",
                    e.line
                );
                assert!(!e.message.is_empty());
            }
        });
    }
    // The corpus reaches every stage: rejections, parses and programs.
    assert!(parsed > CASES / 20, "only {parsed} sources parsed");
    assert!(assembled > CASES / 50, "only {assembled} sources assembled");
    assert!(parsed < CASES, "every source parsed");
}

#[rustfmt::skip]
const JSON_TOKENS: &[&str] = &[
    "{", "}", "[", "]", ":", ",", "\"", "\"key\"", "\"a\\u00e9\\n\"", "\"\\", "\\u", "\"\\ud800\"",
    "\"\\uZZZZ\"", "\"\\x\"", "true", "false", "null", "tru", "nul", "1", "-", "-0", "0", "01",
    "1e999", "-1e999", "1.5e-3", "1e", "1.", ".5", "0x10", "18446744073709551615",
    "18446744073709551616", "-9223372036854775808", "-9223372036854775809", "3.14159", " ",
    "\n", "\t", "\r", "é", "\u{0}", "\u{7f}", "/", "//", "NaN", "Infinity",
];

const JSON_DOCS: &[&str] = &[
    r#"{"a":[1,2.5,"x",true,null],"b":{"c":-3}}"#,
    r#"[]"#,
    r#"{"type":"node","node":7,"quarantined":["ALU"]}"#,
    r#""text""#,
    r#"-12.5e3"#,
    r#"[[[[{}]]]]"#,
];

fn json_text(rng: &mut Rng) -> String {
    if rng.below(2) == 0 {
        return token_soup(rng, JSON_TOKENS, 10);
    }
    // A valid document with tokens spliced in at char boundaries.
    let mut text = rng.pick(JSON_DOCS).to_owned();
    for _ in 0..rng.below(3) {
        let boundaries: Vec<usize> = text
            .char_indices()
            .map(|(i, _)| i)
            .chain([text.len()])
            .collect();
        let at = boundaries[rng.below(boundaries.len())];
        if rng.below(2) == 0 && at < text.len() {
            text.remove(at);
        } else {
            text.insert_str(at, rng.pick(JSON_TOKENS));
        }
    }
    text
}

#[test]
fn json_parsers_reject_every_bad_document_with_a_typed_error() {
    let mut rng = Rng(0x0DD5_EED5);
    let mut accepted = 0;
    for _ in 0..CASES {
        let text = json_text(&mut rng);
        no_panic("json::parse", &text, || match json::parse(&text) {
            Ok(value) => {
                accepted += 1;
                // What was accepted serializes again.
                let _: String = JsonValue::to_json(&value);
            }
            Err(e) => {
                assert!(e.offset <= text.len(), "offset {} past {text:?}", e.offset);
                assert!(!e.message.is_empty());
            }
        });
    }
    assert!(accepted > CASES / 20, "only {accepted} documents parsed");
    assert!(accepted < CASES, "every document parsed");

    let mut streams_accepted = 0;
    for _ in 0..CASES / 4 {
        let stream = (0..1 + rng.below(5))
            .map(|_| json_text(&mut rng))
            .collect::<Vec<_>>()
            .join("\n");
        no_panic("parse_ndjson", &stream, || match parse_ndjson(&stream) {
            Ok(values) => {
                streams_accepted += 1;
                assert!(values.len() <= stream.lines().count());
            }
            Err(e) => {
                let lines = stream.lines().count();
                assert!(
                    (1..=lines).contains(&e.line),
                    "error line {} outside 1..={lines} for {stream:?}",
                    e.line
                );
                assert!(e.error.offset <= stream.len());
            }
        });
    }
    assert!(streams_accepted > 0, "no stream parsed");
}
