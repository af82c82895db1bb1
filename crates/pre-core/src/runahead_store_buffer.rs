//! Line-granular runahead store buffer.
//!
//! Runahead stores never reach memory: their bytes are captured here and
//! forwarded to younger runahead loads, then discarded wholesale at runahead
//! exit. The buffer is keyed by 64-byte line address; each line carries a
//! byte array plus a validity bitmask, so a load's forwarding check costs one
//! hash probe per touched line (naturally aligned accesses touch exactly
//! one) instead of one per byte as the former `HashMap<u64, u8>` did.
//!
//! Lines are pooled across [`RunaheadStoreBuffer::clear`] calls: clearing
//! moves the lines to a free pool and re-use re-initialises only the valid
//! mask, so the per-interval cost is proportional to the number of distinct
//! lines touched, not to the bytes stored.

use std::collections::HashMap;

/// Line size in bytes. Matches the cache-line granularity of `pre-mem`.
const LINE_BYTES: u64 = 64;

/// One buffered line: 64 data bytes plus a per-byte validity mask.
#[derive(Debug, Clone)]
struct Line {
    /// Bit `i` set ⇔ byte `i` of the line holds a runahead-stored value.
    valid: u64,
    bytes: [u8; LINE_BYTES as usize],
}

impl Line {
    fn empty() -> Self {
        Line {
            valid: 0,
            bytes: [0; LINE_BYTES as usize],
        }
    }
}

/// The result of probing the buffer for a load's byte range.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct BufferedRead {
    /// The buffered bytes, little-endian, with unbuffered positions zero.
    pub value: u64,
    /// Bit `i` set ⇔ byte `addr + i` was found in the buffer.
    pub valid_mask: u8,
}

impl BufferedRead {
    /// `true` when every byte of a `len`-byte read was buffered.
    pub(crate) fn is_complete(&self, len: u64) -> bool {
        let want = if len >= 8 { !0u8 } else { (1u8 << len) - 1 };
        self.valid_mask == want
    }

    /// Overlays the buffered bytes onto `underlying` (unbuffered positions
    /// keep the underlying byte).
    pub(crate) fn overlay(&self, underlying: u64) -> u64 {
        let mut spread = 0u64;
        for i in 0..8 {
            if self.valid_mask & (1 << i) != 0 {
                spread |= 0xFFu64 << (8 * i);
            }
        }
        (underlying & !spread) | (self.value & spread)
    }
}

/// A paged, line-granular byte buffer for runahead stores.
#[derive(Debug, Default)]
pub(crate) struct RunaheadStoreBuffer {
    lines: HashMap<u64, Line>,
    /// Cleared lines waiting for re-use (avoids re-zeroing 64-byte arrays).
    pool: Vec<Line>,
}

impl RunaheadStoreBuffer {
    /// Creates an empty buffer.
    pub(crate) fn new() -> Self {
        RunaheadStoreBuffer::default()
    }

    /// Buffers `len` bytes of `value` (little-endian) at `addr`.
    pub(crate) fn store(&mut self, addr: u64, len: u64, value: u64) {
        debug_assert!((1..=8).contains(&len));
        let mut i = 0;
        while i < len {
            let byte_addr = addr + i;
            let line_addr = byte_addr & !(LINE_BYTES - 1);
            // Bytes remaining in this line (splits only on unaligned,
            // line-crossing stores, which natural alignment rules out).
            let in_line = (line_addr + LINE_BYTES - byte_addr).min(len - i);
            let pool = &mut self.pool;
            let line = self
                .lines
                .entry(line_addr)
                .or_insert_with(|| pool.pop().unwrap_or_else(Line::empty));
            let offset = (byte_addr - line_addr) as usize;
            for j in 0..in_line as usize {
                line.bytes[offset + j] = (value >> (8 * (i as usize + j))) as u8;
                line.valid |= 1 << (offset + j);
            }
            i += in_line;
        }
    }

    /// Probes the buffer for a `len`-byte read at `addr`.
    pub(crate) fn read(&self, addr: u64, len: u64) -> BufferedRead {
        debug_assert!((1..=8).contains(&len));
        let mut value = 0u64;
        let mut valid_mask = 0u8;
        let mut i = 0;
        while i < len {
            let byte_addr = addr + i;
            let line_addr = byte_addr & !(LINE_BYTES - 1);
            let in_line = (line_addr + LINE_BYTES - byte_addr).min(len - i);
            if let Some(line) = self.lines.get(&line_addr) {
                let offset = (byte_addr - line_addr) as usize;
                for j in 0..in_line as usize {
                    if line.valid & (1 << (offset + j)) != 0 {
                        value |= u64::from(line.bytes[offset + j]) << (8 * (i as usize + j));
                        valid_mask |= 1 << (i as usize + j);
                    }
                }
            }
            i += in_line;
        }
        BufferedRead { value, valid_mask }
    }

    /// Discards every buffered byte (runahead exit). Lines are recycled into
    /// the free pool.
    pub(crate) fn clear(&mut self) {
        for (_, mut line) in self.lines.drain() {
            line.valid = 0;
            self.pool.push(line);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn store_then_read_round_trips() {
        let mut b = RunaheadStoreBuffer::new();
        b.store(0x1000, 8, 0x1122_3344_5566_7788);
        let r = b.read(0x1000, 8);
        assert!(r.is_complete(8));
        assert_eq!(r.value, 0x1122_3344_5566_7788);
    }

    #[test]
    fn partial_reads_report_valid_mask() {
        let mut b = RunaheadStoreBuffer::new();
        b.store(0x1002, 2, 0xBBAA);
        let r = b.read(0x1000, 8);
        assert!(!r.is_complete(8));
        assert_eq!(r.valid_mask, 0b0000_1100);
        assert_eq!(r.value, 0x0000_0000_BBAA_0000);
        // Overlay keeps underlying bytes where the buffer has none.
        assert_eq!(
            r.overlay(0x8877_6655_4433_2211),
            0x8877_6655_BBAA_2211,
            "buffered bytes win, the rest comes from underlying"
        );
    }

    #[test]
    fn unbuffered_read_is_empty() {
        let b = RunaheadStoreBuffer::new();
        let r = b.read(0x4000, 4);
        assert_eq!(r.valid_mask, 0);
        assert!(!r.is_complete(4));
        assert_eq!(r.overlay(0xDEAD_BEEF), 0xDEAD_BEEF);
    }

    #[test]
    fn later_stores_overwrite_earlier_bytes() {
        let mut b = RunaheadStoreBuffer::new();
        b.store(0x2000, 8, u64::MAX);
        b.store(0x2000, 1, 0x42);
        let r = b.read(0x2000, 8);
        assert_eq!(r.value, 0xFFFF_FFFF_FFFF_FF42);
    }

    #[test]
    fn line_crossing_access_touches_both_lines() {
        let mut b = RunaheadStoreBuffer::new();
        // 4 bytes starting 2 bytes before a line boundary.
        b.store(0x103E, 4, 0xDDCC_BBAA);
        assert_eq!(b.lines.len(), 2);
        let r = b.read(0x103E, 4);
        assert!(r.is_complete(4));
        assert_eq!(r.value, 0xDDCC_BBAA);
        // Read each half from its own line.
        assert_eq!(b.read(0x103E, 2).value, 0xBBAA);
        assert_eq!(b.read(0x1040, 2).value, 0xDDCC);
    }

    #[test]
    fn clear_discards_and_recycles() {
        let mut b = RunaheadStoreBuffer::new();
        b.store(0x3000, 8, 123);
        b.clear();
        assert!(b.lines.is_empty());
        assert_eq!(b.read(0x3000, 8).valid_mask, 0);
        // Recycled line starts with an empty valid mask.
        b.store(0x5000, 1, 7);
        let r = b.read(0x5000, 8);
        assert_eq!(r.valid_mask, 0b1);
        assert_eq!(r.value, 7);
    }

    #[test]
    fn is_complete_for_all_widths() {
        let mut b = RunaheadStoreBuffer::new();
        for len in [1u64, 2, 4, 8] {
            b.store(0x6000, len, u64::MAX);
            assert!(b.read(0x6000, len).is_complete(len));
            b.clear();
        }
    }
}
