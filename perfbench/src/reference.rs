//! A fixed reference computation, timed next to every workload repetition
//! so that how fast the host runs at that moment can be divided out of
//! the repetition's time.
//!
//! On a shared VM the same work takes up to twice as long from one minute
//! to the next (see "Noise" in `perfbench/README.md`), in every process
//! alike. The kernel imitates the workloads' hot loops: gate evaluation
//! over a tape of operand indices in a working set that fits the
//! second-level cache, a hash-map probe for an injected fault per gate,
//! and an event queued whenever a value changes. It belongs to the
//! benchmark, so no change to the library moves it, and every timing
//! repeats exactly the same work.

use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

/// 64-bit words the tape reads and writes (128 KiB).
const VALUES: usize = 1 << 14;
/// Gates on the tape.
const OPS: usize = 1 << 14;
/// Words carrying an injected fault mask.
const INJECTED: usize = 64;
/// Passes over the tape in one timing.
const PASSES: usize = 128;

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One gate of the reference tape: output, two inputs and the function.
#[derive(Clone, Copy)]
struct Op {
    out: u32,
    a: u32,
    b: u32,
    func: u8,
}

/// The reference kernel and its state.
pub struct Reference {
    tape: Vec<Op>,
    initial: Vec<u64>,
    values: Vec<u64>,
    inject: HashMap<u32, u64>,
    events: Vec<u32>,
}

impl Reference {
    /// The same tape, faults and starting values in every run.
    pub fn new() -> Self {
        let mut state = 0x5245_4645_5245_4e43; // "REFERENC"
        let initial: Vec<u64> = (0..VALUES).map(|_| splitmix64(&mut state)).collect();
        let index = |r: u64| (r % VALUES as u64) as u32;
        let tape = (0..OPS)
            .map(|_| {
                let r = splitmix64(&mut state);
                Op {
                    out: index(r),
                    a: index(r >> 16),
                    b: index(r >> 32),
                    func: (r >> 61) as u8,
                }
            })
            .collect();
        let inject = (0..INJECTED)
            .map(|_| (index(splitmix64(&mut state)), splitmix64(&mut state)))
            .collect();
        Reference {
            tape,
            values: initial.clone(),
            initial,
            inject,
            events: Vec::with_capacity(OPS),
        }
    }

    /// Runs the kernel once from its starting values; its wall time in
    /// seconds.
    pub fn time(&mut self) -> f64 {
        let start = Instant::now();
        self.values.copy_from_slice(&self.initial);
        for _ in 0..PASSES {
            self.events.clear();
            for op in &self.tape {
                let x = self.values[op.a as usize];
                let y = self.values[op.b as usize];
                let mut value = match op.func {
                    0 => x & y,
                    1 => x | y,
                    2 => x ^ y,
                    3 => !(x & y),
                    4 => !(x | y),
                    5 => !(x ^ y),
                    6 => x & !y,
                    _ => x.rotate_left(1) ^ y,
                };
                if let Some(mask) = self.inject.get(&op.out) {
                    value ^= mask;
                }
                let slot = &mut self.values[op.out as usize];
                if value & 0xFF != *slot & 0xFF {
                    self.events.push(op.out);
                }
                *slot = value;
            }
            black_box(&self.events);
        }
        black_box(&self.values);
        start.elapsed().as_secs_f64()
    }
}
