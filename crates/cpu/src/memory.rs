//! Sparse big-endian memory.

use sbst_isa::Program;

/// Words per 4 KiB page.
const PAGE_WORDS: usize = 1024;
/// Address bits below the page number.
const PAGE_SHIFT: u32 = 12;

/// One 4 KiB page: its words plus a bitmap of the words ever written.
#[derive(Debug, Clone)]
struct Page {
    words: [u32; PAGE_WORDS],
    written: [u64; PAGE_WORDS / 64],
}

/// Index of the word containing `addr` within its page.
fn word_index(addr: u32) -> usize {
    (addr >> 2) as usize & (PAGE_WORDS - 1)
}

/// Word-granular sparse memory with MIPS big-endian byte ordering.
///
/// Storage is a few flat 4 KiB pages, allocated on first write and found
/// by a scan over the live page numbers: a self-test routine touches only
/// its code and data windows, so a lookup is one or two compares.
/// Unwritten locations read as zero (like an initialized SRAM model); this
/// keeps self-test program behaviour deterministic without requiring an
/// explicit memory map.
#[derive(Debug, Clone, Default)]
pub struct Memory {
    /// Page numbers (`addr >> 12`) of the live pages, parallel to `pages`.
    numbers: Vec<u32>,
    pages: Vec<Box<Page>>,
    /// Distinct words ever written.
    written: usize,
}

impl Memory {
    /// Creates an empty memory.
    pub fn new() -> Self {
        Memory::default()
    }

    fn page(&self, addr: u32) -> Option<&Page> {
        let number = addr >> PAGE_SHIFT;
        let i = self.numbers.iter().position(|&n| n == number)?;
        Some(&self.pages[i])
    }

    fn page_mut(&mut self, addr: u32) -> &mut Page {
        let number = addr >> PAGE_SHIFT;
        let i = match self.numbers.iter().position(|&n| n == number) {
            Some(i) => i,
            None => {
                self.numbers.push(number);
                self.pages.push(Box::new(Page {
                    words: [0; PAGE_WORDS],
                    written: [0; PAGE_WORDS / 64],
                }));
                self.pages.len() - 1
            }
        };
        &mut self.pages[i]
    }

    /// Reads the aligned 32-bit word containing `addr`.
    pub fn read_word(&self, addr: u32) -> u32 {
        self.page(addr)
            .map_or(0, |page| page.words[word_index(addr)])
    }

    /// Writes the aligned 32-bit word containing `addr`.
    pub fn write_word(&mut self, addr: u32, value: u32) {
        let index = word_index(addr);
        let (slot, bit) = (index / 64, 1u64 << (index % 64));
        let page = self.page_mut(addr);
        page.words[index] = value;
        let fresh = page.written[slot] & bit == 0;
        page.written[slot] |= bit;
        self.written += usize::from(fresh);
    }

    /// Reads the byte at `addr` (big-endian lane numbering).
    pub fn read_byte(&self, addr: u32) -> u8 {
        let word = self.read_word(addr);
        let lane = 3 - (addr & 3);
        (word >> (lane * 8)) as u8
    }

    /// Writes the byte at `addr`.
    pub fn write_byte(&mut self, addr: u32, value: u8) {
        let lane = 3 - (addr & 3);
        let mask = 0xFFu32 << (lane * 8);
        let word = self.read_word(addr);
        self.write_word(addr, (word & !mask) | ((value as u32) << (lane * 8)));
    }

    /// Reads the half-word at the 2-byte-aligned `addr`.
    pub fn read_half(&self, addr: u32) -> u16 {
        let word = self.read_word(addr);
        let lane = 1 - ((addr >> 1) & 1);
        (word >> (lane * 16)) as u16
    }

    /// Writes the half-word at the 2-byte-aligned `addr`.
    pub fn write_half(&mut self, addr: u32, value: u16) {
        let lane = 1 - ((addr >> 1) & 1);
        let mask = 0xFFFFu32 << (lane * 16);
        let word = self.read_word(addr);
        self.write_word(addr, (word & !mask) | ((value as u32) << (lane * 16)));
    }

    /// Loads a program's text and data segments.
    pub fn load_program(&mut self, program: &Program) {
        for (i, &word) in program.text.iter().enumerate() {
            self.write_word(program.text_base + (i as u32) * 4, word);
        }
        for (i, &word) in program.data.iter().enumerate() {
            self.write_word(program.data_base + (i as u32) * 4, word);
        }
    }

    /// Number of distinct words ever written (footprint proxy).
    pub fn written_words(&self) -> usize {
        self.written
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn word_roundtrip_and_default_zero() {
        let mut m = Memory::new();
        assert_eq!(m.read_word(0x100), 0);
        m.write_word(0x100, 0xDEADBEEF);
        assert_eq!(m.read_word(0x100), 0xDEADBEEF);
        assert_eq!(m.read_word(0x102), 0xDEADBEEF); // same aligned word
    }

    #[test]
    fn big_endian_bytes() {
        let mut m = Memory::new();
        m.write_word(0, 0x1122_3344);
        assert_eq!(m.read_byte(0), 0x11);
        assert_eq!(m.read_byte(1), 0x22);
        assert_eq!(m.read_byte(2), 0x33);
        assert_eq!(m.read_byte(3), 0x44);
        m.write_byte(1, 0xAB);
        assert_eq!(m.read_word(0), 0x11AB_3344);
    }

    #[test]
    fn big_endian_halves() {
        let mut m = Memory::new();
        m.write_half(4, 0xCAFE);
        m.write_half(6, 0xBABE);
        assert_eq!(m.read_word(4), 0xCAFE_BABE);
        assert_eq!(m.read_half(4), 0xCAFE);
        assert_eq!(m.read_half(6), 0xBABE);
    }

    #[test]
    fn program_loading() {
        use sbst_isa::{Asm, Reg};
        let mut asm = Asm::new();
        asm.li(Reg::T0, 1);
        asm.data_label("d");
        asm.word(0x55);
        let p = asm.assemble(0x0, 0x1000).unwrap();
        let mut m = Memory::new();
        m.load_program(&p);
        assert_ne!(m.read_word(0), 0);
        assert_eq!(m.read_word(0x1000), 0x55);
    }
}
