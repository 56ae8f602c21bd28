//! Software LFSRs for the pseudorandom TPG strategy.
//!
//! The paper's Figure 3 code style generates patterns with a *software
//! implemented LFSR* inside the self-test loop. [`Lfsr32`] reproduces that
//! generator bit-for-bit: its [`step`](Lfsr32::step) function is the exact
//! semantics of the 5-instruction branch-free MIPS sequence emitted by
//! `sbst-core` (`andi`/`srl`/`subu`/`and`/`xor`), so patterns predicted in
//! Rust and patterns produced by the executed routine are identical.

/// Default characteristic polynomial: a maximal-length 32-bit Galois LFSR
/// (taps 32, 31, 29, 1 in right-shift Galois representation).
pub const DEFAULT_POLY: u32 = 0xD000_0001;

/// Default nonzero seed.
pub const DEFAULT_SEED: u32 = 0x1234_5678;

/// Configuration of a software LFSR (seed and polynomial, the two constants
/// the Figure 3 routine loads with `li`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LfsrConfig {
    /// Initial state; must be nonzero.
    pub seed: u32,
    /// Galois feedback mask.
    pub poly: u32,
}

impl Default for LfsrConfig {
    fn default() -> Self {
        LfsrConfig {
            seed: DEFAULT_SEED,
            poly: DEFAULT_POLY,
        }
    }
}

/// A 32-bit Galois LFSR stepping right, matching the generated assembly:
///
/// ```text
/// andi $t8, $s0, 1        # bit  = state & 1
/// srl  $s0, $s0, 1        # state >>= 1
/// subu $t9, $zero, $t8    # mask = -bit  (0 or 0xFFFF_FFFF)
/// and  $t9, $t9, $s7      # mask &= poly
/// xor  $s0, $s0, $t9      # state ^= mask
/// ```
///
/// # Example
///
/// ```
/// use sbst_tpg::Lfsr32;
///
/// let mut lfsr = Lfsr32::default();
/// let first = lfsr.step();
/// assert_ne!(first, 0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Lfsr32 {
    state: u32,
    poly: u32,
}

impl Default for Lfsr32 {
    fn default() -> Self {
        Lfsr32::new(LfsrConfig::default())
    }
}

impl Lfsr32 {
    /// Creates an LFSR from a configuration.
    ///
    /// # Panics
    ///
    /// Panics if the seed is zero (the all-zero state is a fixed point).
    pub fn new(config: LfsrConfig) -> Self {
        assert_ne!(config.seed, 0, "lfsr seed must be nonzero");
        Lfsr32 {
            state: config.seed,
            poly: config.poly,
        }
    }

    /// Current state.
    pub fn state(&self) -> u32 {
        self.state
    }

    /// Advances one step and returns the new state (the value the routine
    /// uses as the next test pattern).
    pub fn step(&mut self) -> u32 {
        let bit = self.state & 1;
        self.state = (self.state >> 1) ^ (bit.wrapping_neg() & self.poly);
        self.state
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn never_reaches_zero() {
        let mut l = Lfsr32::default();
        for _ in 0..100_000 {
            assert_ne!(l.step(), 0);
        }
    }

    #[test]
    fn no_short_cycle() {
        let mut l = Lfsr32::default();
        let start = l.state();
        for _ in 0..1_000_000 {
            if l.step() == start {
                panic!("short cycle detected");
            }
        }
    }

    #[test]
    fn deterministic_for_seed() {
        let mut a = Lfsr32::new(LfsrConfig {
            seed: 42,
            poly: DEFAULT_POLY,
        });
        let mut b = Lfsr32::new(LfsrConfig {
            seed: 42,
            poly: DEFAULT_POLY,
        });
        for _ in 0..100 {
            assert_eq!(a.step(), b.step());
        }
    }

    #[test]
    fn patterns_look_balanced() {
        // Crude randomness check: ones density within 45-55 % over 10k steps.
        let mut l = Lfsr32::default();
        let ones: u32 = (0..10_000).map(|_| l.step().count_ones()).sum();
        let density = ones as f64 / (10_000.0 * 32.0);
        assert!((0.45..0.55).contains(&density), "density {density}");
    }

    #[test]
    fn distinct_prefix() {
        let mut l = Lfsr32::default();
        let mut seen = HashSet::new();
        for _ in 0..100_000 {
            assert!(seen.insert(l.step()), "state repeated early");
        }
    }

    #[test]
    #[should_panic(expected = "seed must be nonzero")]
    fn zero_seed_rejected() {
        let _ = Lfsr32::new(LfsrConfig {
            seed: 0,
            poly: DEFAULT_POLY,
        });
    }
}
