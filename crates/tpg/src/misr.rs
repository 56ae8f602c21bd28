//! Software MISR response compaction.
//!
//! Every self-test routine compacts its responses into a signature with a
//! shared software MISR routine "with negligible aliasing" (Section 3.3),
//! avoiding data-memory traffic during the test; only the final signature is
//! stored. [`Misr32`] models the exact semantics of the emitted MIPS
//! sequence, so a signature computed in Rust over the fault-free (or
//! faulty) response stream equals the signature the routine leaves in data
//! memory.

/// Default MISR feedback polynomial (the CRC-32 polynomial).
pub const DEFAULT_POLY: u32 = 0x04C1_1DB7;

/// Default MISR seed.
pub const DEFAULT_SEED: u32 = 0xFFFF_FFFF;

/// A 32-bit multiple-input signature register, matching the emitted
/// branch-free MIPS absorb sequence:
///
/// ```text
/// srl  $t8, $s2, 31       # t8   = msb
/// sll  $s2, $s2, 1        # sig <<= 1
/// xor  $s2, $s2, $a0      # sig ^= response
/// subu $t9, $zero, $t8    # mask = -msb
/// and  $t9, $t9, $s6      # mask &= poly
/// xor  $s2, $s2, $t9      # sig ^= mask
/// ```
///
/// Packaged as a callable routine (`jal misr_absorb` … `jr $ra` + delay
/// slot) this is exactly the paper's "shared software MISR routine of 8
/// words".
///
/// # Example
///
/// ```
/// use sbst_tpg::Misr32;
///
/// let mut misr = Misr32::default();
/// misr.absorb(0xDEAD_BEEF);
/// misr.absorb(0x0000_0001);
/// let good = misr.signature();
///
/// let mut faulty = Misr32::default();
/// faulty.absorb(0xDEAD_BEEF);
/// faulty.absorb(0x0000_0003); // one flipped response bit
/// assert_ne!(good, faulty.signature());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Misr32 {
    state: u32,
    poly: u32,
}

impl Default for Misr32 {
    fn default() -> Self {
        Misr32::new(DEFAULT_SEED, DEFAULT_POLY)
    }
}

impl Misr32 {
    /// Creates a MISR with the given seed and feedback polynomial.
    pub fn new(seed: u32, poly: u32) -> Self {
        Misr32 { state: seed, poly }
    }

    /// Absorbs one 32-bit response word.
    pub fn absorb(&mut self, response: u32) {
        let msb = self.state >> 31;
        self.state = (self.state << 1) ^ response ^ (msb.wrapping_neg() & self.poly);
    }

    /// Absorbs a slice of response words in order.
    pub fn absorb_words(&mut self, responses: &[u32]) {
        for &r in responses {
            self.absorb(r);
        }
    }

    /// The current signature.
    pub fn signature(&self) -> u32 {
        self.state
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_sensitive() {
        let mut a = Misr32::default();
        a.absorb_words(&[1, 2]);
        let mut b = Misr32::default();
        b.absorb_words(&[2, 1]);
        assert_ne!(a.signature(), b.signature());
    }

    #[test]
    fn single_bit_sensitivity_everywhere() {
        // Flipping any single bit of any of 64 absorbed words must change
        // the signature (a MISR is linear: a single injected error never
        // aliases by itself).
        let words: Vec<u32> = (0..64u32).map(|i| i.wrapping_mul(0x9E37_79B9)).collect();
        let mut reference = Misr32::default();
        reference.absorb_words(&words);
        let reference = reference.signature();
        for wi in 0..words.len() {
            for bit in [0, 7, 31] {
                let mut corrupted = words.clone();
                corrupted[wi] ^= 1 << bit;
                let mut m = Misr32::default();
                m.absorb_words(&corrupted);
                assert_ne!(m.signature(), reference, "word {wi} bit {bit} aliased");
            }
        }
    }

    #[test]
    fn empirical_aliasing_is_rare() {
        // Random full-word double-error injections alias with probability
        // ~2^-32 per trial — expect zero events. (Single-*bit* pairs whose
        // word gap equals their bit gap DO cancel in any 32-bit MISR; that
        // structured exception is exercised in `diagonal_double_bit_errors`.)
        let words: Vec<u32> = (0..256u32).map(|i| i.wrapping_mul(0x0101_0101)).collect();
        let mut reference = Misr32::default();
        reference.absorb_words(&words);
        let reference = reference.signature();
        let mut aliases = 0;
        let mut rng_state = 0x1357_9BDFu32;
        let mut next = |m: u32| {
            rng_state = rng_state
                .wrapping_mul(1_664_525)
                .wrapping_add(1_013_904_223);
            rng_state % m
        };
        for _ in 0..2_000 {
            let mut corrupted = words.clone();
            for _ in 0..2 {
                let wi = next(words.len() as u32) as usize;
                let mask = next(u32::MAX).wrapping_mul(0x9E37_79B9) | 1;
                corrupted[wi] ^= mask;
            }
            let mut m = Misr32::default();
            m.absorb_words(&corrupted);
            if m.signature() == reference {
                aliases += 1;
            }
        }
        assert_eq!(aliases, 0, "unexpected aliasing events");
    }

    #[test]
    fn diagonal_double_bit_errors_alias() {
        // The characteristic MISR weakness: single-bit errors in words i and
        // j cancel when (j - i) equals the bit-position difference, because
        // both error terms shift onto the same polynomial power.
        let words = vec![0u32; 8];
        let mut reference = Misr32::default();
        reference.absorb_words(&words);
        let mut corrupted = words.clone();
        corrupted[2] ^= 1 << 10; // word 2, bit 10: shifts 5 more times
        corrupted[3] ^= 1 << 11; // word 3, bit 11: lands on the same power
        let mut m = Misr32::default();
        m.absorb_words(&corrupted);
        assert_eq!(m.signature(), reference.signature());
    }

    #[test]
    fn known_vector() {
        let mut m = Misr32::new(0, 0);
        m.absorb(0xFFFF_FFFF);
        assert_eq!(m.signature(), 0xFFFF_FFFF);
        m.absorb(0);
        assert_eq!(m.signature(), 0xFFFF_FFFE); // shifted left, msb dropped (poly 0)
    }
}
