//! The paged ISS [`Memory`] against a word-granular `HashMap` reference
//! model: random word, half-word and byte reads and writes, clustered
//! around page boundaries and the top of the address space, must read
//! back identically — big-endian lanes, zero for unwritten words — and
//! `written_words` must count the distinct words ever written.

use std::collections::HashMap;

use proptest::prelude::*;
use sbst_cpu::Memory;

/// The reference: one map entry per word ever written.
#[derive(Default)]
struct Model {
    words: HashMap<u32, u32>,
}

impl Model {
    fn read_word(&self, addr: u32) -> u32 {
        self.words.get(&(addr & !3)).copied().unwrap_or(0)
    }

    /// Replaces the bits of `mask` in the word containing `addr`.
    fn merge(&mut self, addr: u32, mask: u32, bits: u32) {
        let word = self.read_word(addr);
        self.words.insert(addr & !3, (word & !mask) | (bits & mask));
    }
}

/// Addresses near the interesting places: page boundaries at 4 KiB
/// multiples (the first, a middle and the last page), and the last word.
fn address(region: usize, offset: u32) -> u32 {
    const ANCHORS: [u32; 5] = [
        0x0000_0000,
        0x0000_1000,
        0x0040_0000,
        0x8000_0000,
        0xFFFF_F000,
    ];
    ANCHORS[region].wrapping_add(offset).wrapping_sub(32)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn paged_memory_matches_hash_map_model(
        ops in prop::collection::vec((0u8..6, 0usize..5, 0u32..64, any::<u32>()), 1..200),
    ) {
        let mut memory = Memory::new();
        let mut model = Model::default();
        for &(kind, region, offset, value) in &ops {
            let addr = address(region, offset);
            match kind {
                0 => {
                    memory.write_word(addr, value);
                    model.merge(addr, !0, value);
                }
                1 => {
                    let addr = addr & !1;
                    let shift = (1 - ((addr >> 1) & 1)) * 16;
                    memory.write_half(addr, value as u16);
                    model.merge(addr, 0xFFFF << shift, (value & 0xFFFF) << shift);
                }
                2 => {
                    let shift = (3 - (addr & 3)) * 8;
                    memory.write_byte(addr, value as u8);
                    model.merge(addr, 0xFF << shift, (value & 0xFF) << shift);
                }
                3 => prop_assert_eq!(memory.read_word(addr), model.read_word(addr), "word {:#x}", addr),
                4 => {
                    let addr = addr & !1;
                    let shift = (1 - ((addr >> 1) & 1)) * 16;
                    let expected = (model.read_word(addr) >> shift) as u16;
                    prop_assert_eq!(memory.read_half(addr), expected, "half {:#x}", addr);
                }
                _ => {
                    let shift = (3 - (addr & 3)) * 8;
                    let expected = (model.read_word(addr) >> shift) as u8;
                    prop_assert_eq!(memory.read_byte(addr), expected, "byte {:#x}", addr);
                }
            }
            prop_assert_eq!(memory.written_words(), model.words.len());
        }
        // Every word the model knows reads back, and so does the last word
        // of the address space.
        for (&addr, &word) in &model.words {
            prop_assert_eq!(memory.read_word(addr), word, "final {:#x}", addr);
        }
        prop_assert_eq!(memory.read_word(0xFFFF_FFFC), model.read_word(0xFFFF_FFFC));
    }
}

#[test]
fn last_word_and_rewrites() {
    let mut memory = Memory::new();
    memory.write_word(0xFFFF_FFFC, 0x0102_0304);
    assert_eq!(memory.read_word(0xFFFF_FFFF), 0x0102_0304);
    assert_eq!(memory.read_byte(0xFFFF_FFFF), 0x04);
    assert_eq!(memory.read_half(0xFFFF_FFFC), 0x0102);
    // Rewriting a word, even with zero, does not count it twice; its
    // neighbour across the page boundary stays unwritten.
    memory.write_word(0xFFFF_FFFC, 0);
    assert_eq!(memory.written_words(), 1);
    assert_eq!(memory.read_word(0xFFFF_EFFC), 0);
    memory.write_byte(0x0000_0FFF, 0xAB);
    memory.write_byte(0x0000_1000, 0xCD);
    assert_eq!(memory.read_word(0x0000_0FFC), 0x0000_00AB);
    assert_eq!(memory.read_word(0x0000_1000), 0xCD00_0000);
    assert_eq!(memory.written_words(), 3);
}
