//! Functional (value-level) memory image.
//!
//! The simulator is execution-driven: loads and stores operate on real
//! values so that dependence chains — in particular the *stalling slices*
//! that runahead execution pre-executes — compute real addresses. [`FuncMem`]
//! is the sparse **byte-addressable** memory backing that execution: every
//! access names a byte address and a length of 1–8 bytes, so sub-word
//! `lb`/`lh`/`lw` accesses (and the byte-indexed data structures they
//! traverse) are modelled faithfully instead of aliasing onto 8-byte words.
//!
//! Reads of bytes that were never written return a deterministic
//! pseudo-random value derived from the address, so wrong-path and runahead
//! execution stay deterministic without pre-initializing all of memory. The
//! hash is assigned **per byte** (byte `a` reads byte `a % 8` of the hash of
//! its containing aligned word), so an aligned 8-byte read of fully
//! unwritten memory reassembles exactly the word hash the historical
//! word-granular model returned — existing workloads observe bit-identical
//! values.
//!
//! Page payloads live in an arena indexed by a `page → index` map, with a
//! one-entry last-page cache in front of the map: sequential and strided
//! access streams (the common case for the bundled kernels) resolve
//! repeated touches of the same 4 KB page without hashing. Freshly
//! allocated pages are pre-seeded with their per-byte hash-init values, so
//! the load path never consults a written-byte bitmap — the bitmap exists
//! only to account [`FuncMem::written_bytes`].
//!
//! Pages are reference-counted and copy-on-write: cloning a [`FuncMem`]
//! copies only the page index and bumps one refcount per page, and the
//! first store into a shared page copies that one page. A core forked from
//! a warm-up snapshot therefore shares the snapshot's multi-megabyte image
//! and owns only the pages it writes.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

/// Bytes per functional-memory page.
const PAGE_BYTES: u64 = 4096;
/// Words in the per-page written-byte bitmap (4096 bits).
const BITMAP_WORDS: usize = (PAGE_BYTES / 64) as usize;

/// Sentinel arena index for "last-page cache empty".
const NO_PAGE: u32 = u32::MAX;

/// Deterministic "uninitialized memory" value: a cheap integer hash of the
/// 8-byte-aligned address (SplitMix64 finalizer).
fn hash_addr(addr: u64) -> u64 {
    let mut z = addr.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The hash-init value of one byte: byte `addr % 8` (little-endian) of the
/// hash of the containing aligned word.
fn hash_init_byte(addr: u64) -> u8 {
    (hash_addr(addr & !7) >> ((addr & 7) * 8)) as u8
}

/// Little-endian assembly of the hash-init values of `len` bytes at `addr`.
fn hash_init_bytes(addr: u64, len: usize) -> u64 {
    if len == 8 && addr & 7 == 0 {
        return hash_addr(addr);
    }
    let mut value = 0u64;
    for i in (0..len).rev() {
        value = (value << 8) | u64::from(hash_init_byte(addr.wrapping_add(i as u64)));
    }
    value
}

/// One resident 4 KB page: byte payload plus a written-byte bitmap (the
/// payload is pre-seeded with hash-init values, so the bitmap is only used
/// to count distinct written bytes).
#[derive(Debug, Clone)]
struct Page {
    page_no: u64,
    data: [u8; PAGE_BYTES as usize],
    written: [u64; BITMAP_WORDS],
}

impl Page {
    fn new(page_no: u64) -> Self {
        let base = page_no * PAGE_BYTES;
        let mut page = Page {
            page_no,
            data: [0; PAGE_BYTES as usize],
            written: [0; BITMAP_WORDS],
        };
        for (w, chunk) in page.data.chunks_exact_mut(8).enumerate() {
            chunk.copy_from_slice(&hash_addr(base + w as u64 * 8).to_le_bytes());
        }
        page
    }

    /// Number of bytes marked written.
    fn written_count(&self) -> u64 {
        self.written.iter().map(|w| u64::from(w.count_ones())).sum()
    }

    /// Marks bytes `offset .. offset + len` written; returns how many were
    /// newly written. `len` is at most 8, so the bit run spans at most two
    /// bitmap words — two mask operations, no per-byte loop.
    fn mark_written(&mut self, offset: usize, len: usize) -> u32 {
        debug_assert!((1..=8).contains(&len));
        let bits = (1u64 << len) - 1;
        let word = offset / 64;
        let shift = offset % 64;
        let lo = bits << shift;
        let newly_lo = lo & !self.written[word];
        self.written[word] |= lo;
        let mut newly = newly_lo.count_ones();
        if shift + len > 64 {
            let hi = bits >> (64 - shift);
            let newly_hi = hi & !self.written[word + 1];
            self.written[word + 1] |= hi;
            newly += newly_hi.count_ones();
        }
        newly
    }
}

/// Sparse functional memory, byte granularity.
///
/// Addresses are byte addresses; accesses read or write `len` (1–8) bytes
/// little-endian, at any alignment (accesses may span pages).
///
/// # Example
///
/// ```
/// use pre_model::mem::FuncMem;
///
/// let mut mem = FuncMem::new();
/// mem.store_u64(0x1000, 0x1122_3344_5566_7788);
/// assert_eq!(mem.load_u64(0x1000), 0x1122_3344_5566_7788);
/// // Individual bytes are addressable (little-endian).
/// assert_eq!(mem.load_bytes(0x1003, 1), 0x55);
/// // Unwritten locations read a deterministic address-derived value.
/// assert_eq!(mem.load_u64(0x2000), mem.load_u64(0x2000));
/// ```
#[derive(Debug)]
pub struct FuncMem {
    /// Page number → index into `pages`.
    page_index: HashMap<u64, u32>,
    /// Page payloads (arena; indices are stable because pages are never
    /// removed). Shared copy-on-write with clones of this memory.
    pages: Vec<Arc<Page>>,
    stored_bytes: u64,
    /// One-entry cache: arena index of the most recently touched page.
    /// Every hit is validated against the page's own number, so a relaxed
    /// atomic keeps loads `&self` operations while leaving the type `Sync`
    /// (snapshots holding a `FuncMem` are shared across worker threads).
    last_page: AtomicU32,
}

impl Default for FuncMem {
    fn default() -> Self {
        FuncMem::new()
    }
}

impl Clone for FuncMem {
    fn clone(&self) -> Self {
        FuncMem {
            page_index: self.page_index.clone(),
            pages: self.pages.clone(),
            stored_bytes: self.stored_bytes,
            last_page: AtomicU32::new(self.last_page.load(Ordering::Relaxed)),
        }
    }
}

/// Semantic equality: the same set of pages with the same contents and
/// written-byte bitmaps. Arena order, page sharing and the last-page cache
/// are representation details and do not participate.
impl PartialEq for FuncMem {
    fn eq(&self, other: &Self) -> bool {
        self.stored_bytes == other.stored_bytes
            && self.page_index.len() == other.page_index.len()
            && self.page_index.iter().all(|(&page_no, &idx)| {
                let Some(&other_idx) = other.page_index.get(&page_no) else {
                    return false;
                };
                let a = &self.pages[idx as usize];
                let b = &other.pages[other_idx as usize];
                Arc::ptr_eq(a, b) || (a.data == b.data && a.written == b.written)
            })
    }
}

impl FuncMem {
    /// Creates an empty functional memory.
    pub fn new() -> Self {
        FuncMem {
            page_index: HashMap::new(),
            pages: Vec::new(),
            stored_bytes: 0,
            last_page: AtomicU32::new(NO_PAGE),
        }
    }

    fn split(addr: u64) -> (u64, usize) {
        (addr / PAGE_BYTES, (addr % PAGE_BYTES) as usize)
    }

    /// Arena index of `page`, consulting the last-page cache first.
    fn lookup_page(&self, page: u64) -> Option<u32> {
        let cached_idx = self.last_page.load(Ordering::Relaxed);
        if let Some(cached) = self.pages.get(cached_idx as usize) {
            if cached.page_no == page {
                return Some(cached_idx);
            }
        }
        let idx = *self.page_index.get(&page)?;
        self.last_page.store(idx, Ordering::Relaxed);
        Some(idx)
    }

    fn ensure_page(&mut self, page: u64) -> u32 {
        match self.lookup_page(page) {
            Some(idx) => idx,
            None => self.push_page(Arc::new(Page::new(page))),
        }
    }

    /// Appends a page that is not yet resident to the arena.
    fn push_page(&mut self, page: Arc<Page>) -> u32 {
        let idx = u32::try_from(self.pages.len()).expect("fewer than 2^32 pages");
        self.page_index.insert(page.page_no, idx);
        self.pages.push(page);
        self.last_page.store(idx, Ordering::Relaxed);
        idx
    }

    /// Reads `len` (1–8) bytes at `addr`, little-endian, zero-extended into
    /// a `u64`.
    ///
    /// Never allocates: reads of unwritten memory return a deterministic
    /// per-byte value derived from the address.
    ///
    /// # Panics
    ///
    /// Panics (debug builds) when `len` is outside `1..=8`.
    pub fn load_bytes(&self, addr: u64, len: u64) -> u64 {
        debug_assert!((1..=8).contains(&len), "access length {len} out of range");
        let len = len as usize;
        let (page, offset) = Self::split(addr);
        if offset + len <= PAGE_BYTES as usize {
            match self.lookup_page(page) {
                Some(idx) => {
                    let bytes = &self.pages[idx as usize].data[offset..offset + len];
                    let mut buf = [0u8; 8];
                    buf[..len].copy_from_slice(bytes);
                    u64::from_le_bytes(buf)
                }
                None => hash_init_bytes(addr, len),
            }
        } else {
            // Page-crossing access: assemble byte by byte.
            let mut value = 0u64;
            for i in (0..len).rev() {
                value = (value << 8) | self.load_bytes(addr.wrapping_add(i as u64), 1);
            }
            value
        }
    }

    /// Writes the low `len` (1–8) bytes of `value` at `addr`, little-endian.
    /// A page shared with a clone of this memory is copied first, so the
    /// clone never observes the write.
    ///
    /// # Panics
    ///
    /// Panics (debug builds) when `len` is outside `1..=8`.
    pub fn store_bytes(&mut self, addr: u64, len: u64, value: u64) {
        debug_assert!((1..=8).contains(&len), "access length {len} out of range");
        let len = len as usize;
        let (page, offset) = Self::split(addr);
        if offset + len <= PAGE_BYTES as usize {
            let idx = self.ensure_page(page);
            let page = Arc::make_mut(&mut self.pages[idx as usize]);
            page.data[offset..offset + len].copy_from_slice(&value.to_le_bytes()[..len]);
            self.stored_bytes += u64::from(page.mark_written(offset, len));
        } else {
            for i in 0..len {
                self.store_bytes(addr.wrapping_add(i as u64), 1, value >> (8 * i));
            }
        }
    }

    /// Reads the 8 bytes at `addr` (convenience for [`FuncMem::load_bytes`]
    /// with `len == 8`; callers are responsible for alignment — the pipeline
    /// naturally aligns effective addresses per access width).
    pub fn load_u64(&self, addr: u64) -> u64 {
        self.load_bytes(addr, 8)
    }

    /// Writes 8 bytes at `addr` ([`FuncMem::store_bytes`] with `len == 8`).
    pub fn store_u64(&mut self, addr: u64, value: u64) {
        self.store_bytes(addr, 8, value);
    }

    /// Number of distinct bytes ever written.
    pub fn written_bytes(&self) -> u64 {
        self.stored_bytes
    }

    /// Number of resident pages.
    pub fn resident_pages(&self) -> usize {
        self.pages.len()
    }

    /// Bulk-initializes memory from `(address, 8-byte value)` pairs.
    ///
    /// Runs of consecutive aligned pairs that cover a whole fresh page are
    /// installed wholesale — fully written, so the hash-init pass and the
    /// per-store bookkeeping are both skipped. Program data segments are
    /// exactly such runs, and multi-megabyte images (the pointer-chase
    /// tables) are rebuilt by every cold core and every interpreter, so
    /// this path is hot. The result is bit-identical to the store loop:
    /// same payload, same written-bitmap, same written-byte count, same
    /// page-arena order (first touch).
    pub fn init_from<I: IntoIterator<Item = (u64, u64)>>(&mut self, pairs: I) {
        const WORDS_PER_PAGE: usize = (PAGE_BYTES / 8) as usize;
        let mut iter = pairs.into_iter().peekable();
        let mut run: Vec<u64> = Vec::with_capacity(WORDS_PER_PAGE);
        while let Some(&(addr, _)) = iter.peek() {
            let fresh_page_start =
                addr % PAGE_BYTES == 0 && self.lookup_page(addr / PAGE_BYTES).is_none();
            if !fresh_page_start {
                let (addr, value) = iter.next().expect("peeked");
                self.store_u64(addr, value);
                continue;
            }
            run.clear();
            while run.len() < WORDS_PER_PAGE {
                match iter.peek() {
                    Some(&(a, v)) if a == addr + 8 * run.len() as u64 => {
                        run.push(v);
                        iter.next();
                    }
                    _ => break,
                }
            }
            if run.len() == WORDS_PER_PAGE {
                self.install_fresh_full_page(addr / PAGE_BYTES, &run);
            } else {
                for (i, &value) in run.iter().enumerate() {
                    self.store_u64(addr + 8 * i as u64, value);
                }
            }
        }
    }

    /// Materializes a page that is not yet resident with every byte written:
    /// `words` carries the full payload, so the hash-init pass of
    /// [`Page::new`] would be dead work.
    fn install_fresh_full_page(&mut self, page_no: u64, words: &[u64]) {
        debug_assert_eq!(words.len() * 8, PAGE_BYTES as usize);
        debug_assert!(self.lookup_page(page_no).is_none());
        let mut page = Page {
            page_no,
            data: [0; PAGE_BYTES as usize],
            written: [u64::MAX; BITMAP_WORDS],
        };
        for (chunk, word) in page.data.chunks_exact_mut(8).zip(words) {
            chunk.copy_from_slice(&word.to_le_bytes());
        }
        self.push_page(Arc::new(page));
        self.stored_bytes += PAGE_BYTES;
    }

    /// Bulk-initializes memory from `(address, byte)` pairs (assembler
    /// `.byte`/`.half` images).
    pub fn init_bytes_from<I: IntoIterator<Item = (u64, u8)>>(&mut self, pairs: I) {
        for (addr, value) in pairs {
            self.store_bytes(addr, 1, u64::from(value));
        }
    }

    /// Iterates the resident pages in ascending page-number order as
    /// `(page_number, payload, written_bitmap)` triples. This is the
    /// snapshot serializer's view of the image: the payload already carries
    /// the deterministic hash-init values for unwritten bytes, so a page
    /// dump reproduces the image exactly.
    pub fn page_images(&self) -> impl Iterator<Item = (u64, &[u8], &[u64])> {
        let mut numbered: Vec<(u64, u32)> = self.page_index.iter().map(|(&p, &i)| (p, i)).collect();
        numbered.sort_unstable_by_key(|&(p, _)| p);
        numbered.into_iter().map(|(page_no, idx)| {
            let page = &self.pages[idx as usize];
            (page_no, &page.data[..], &page.written[..])
        })
    }

    /// Installs one page wholesale (payload plus written-byte bitmap),
    /// replacing any resident page with the same number. The written-byte
    /// accounting is recomputed from the bitmaps, so installing the pages of
    /// [`FuncMem::page_images`] into a fresh memory reproduces
    /// [`FuncMem::written_bytes`] exactly.
    ///
    /// # Panics
    ///
    /// Panics when `data` is not [`FuncMem::PAGE_BYTES`] long or `written`
    /// does not cover one bit per byte.
    pub fn install_page(&mut self, page_no: u64, data: &[u8], written: &[u64]) {
        assert_eq!(data.len(), PAGE_BYTES as usize, "page payload size");
        assert_eq!(written.len(), BITMAP_WORDS, "written-bitmap size");
        let mut page = Page {
            page_no,
            data: [0; PAGE_BYTES as usize],
            written: [0; BITMAP_WORDS],
        };
        page.data.copy_from_slice(data);
        page.written.copy_from_slice(written);
        let new_written = page.written_count();
        let page = Arc::new(page);
        let old_written = match self.lookup_page(page_no) {
            // Replace rather than write through: a clone sharing the old
            // page keeps it.
            Some(idx) => std::mem::replace(&mut self.pages[idx as usize], page).written_count(),
            None => {
                self.push_page(page);
                0
            }
        };
        self.stored_bytes = self.stored_bytes - old_written + new_written;
    }

    /// Bytes per page, the granularity of [`FuncMem::page_images`] /
    /// [`FuncMem::install_page`].
    pub const PAGE_BYTES: usize = PAGE_BYTES as usize;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn store_then_load_roundtrips() {
        let mut mem = FuncMem::new();
        mem.store_u64(0x1000, 7);
        mem.store_u64(0x1008, 8);
        assert_eq!(mem.load_u64(0x1000), 7);
        assert_eq!(mem.load_u64(0x1008), 8);
    }

    #[test]
    fn every_width_roundtrips_at_any_alignment() {
        let mut mem = FuncMem::new();
        for (len, addr, value) in [
            (1, 0x1003, 0xAB),
            (2, 0x1001, 0xBEEF),
            (4, 0x1005, 0xDEAD_BEEF),
            (8, 0x1013, 0x0123_4567_89AB_CDEF),
        ] {
            mem.store_bytes(addr, len, value);
            assert_eq!(mem.load_bytes(addr, len), value, "len {len} @ {addr:#x}");
        }
    }

    #[test]
    fn bytes_are_independent_and_little_endian() {
        let mut mem = FuncMem::new();
        mem.store_u64(0x2000, 0x1122_3344_5566_7788);
        assert_eq!(mem.load_bytes(0x2000, 1), 0x88);
        assert_eq!(mem.load_bytes(0x2007, 1), 0x11);
        assert_eq!(mem.load_bytes(0x2002, 2), 0x5566);
        assert_eq!(mem.load_bytes(0x2004, 4), 0x1122_3344);
        // Overwrite one interior byte; its neighbours are untouched.
        mem.store_bytes(0x2003, 1, 0xFF);
        assert_eq!(mem.load_u64(0x2000), 0x1122_3344_FF66_7788);
    }

    #[test]
    fn bulk_init_matches_the_store_loop_bit_for_bit() {
        // Pairs engineered to hit every init_from path: two full aligned
        // pages (wholesale install), a partial page (store-loop fallback), a
        // misaligned run, and a revisit of an already-resident page (the
        // fresh-page check must reject it).
        let mut pairs: Vec<(u64, u64)> = Vec::new();
        for w in 0..2 * (PAGE_BYTES / 8) {
            pairs.push((w * 8, w.wrapping_mul(0x9E37_79B9)));
        }
        for w in 0..17 {
            pairs.push((0x5000 + w * 8, w ^ 0xABCD));
        }
        pairs.push((0x9004, 0x1111_2222_3333_4444)); // misaligned
        pairs.push((0x0008, 0xFFFF)); // page 0 again, now resident

        let mut fast = FuncMem::new();
        fast.init_from(pairs.iter().copied());
        let mut slow = FuncMem::new();
        for &(addr, value) in &pairs {
            slow.store_u64(addr, value);
        }

        assert_eq!(fast.written_bytes(), slow.written_bytes());
        assert_eq!(fast.resident_pages(), slow.resident_pages());
        let fast_pages: Vec<_> = fast
            .page_images()
            .map(|(n, d, w)| (n, d.to_vec(), w.to_vec()))
            .collect();
        let slow_pages: Vec<_> = slow
            .page_images()
            .map(|(n, d, w)| (n, d.to_vec(), w.to_vec()))
            .collect();
        assert_eq!(fast_pages, slow_pages);
    }

    #[test]
    fn unwritten_reads_are_deterministic_and_do_not_allocate() {
        let mem = FuncMem::new();
        let a = mem.load_u64(0xABCD_0000);
        let b = mem.load_u64(0xABCD_0000);
        assert_eq!(a, b);
        assert_eq!(mem.resident_pages(), 0);
    }

    #[test]
    fn unwritten_bytes_reassemble_the_word_hash() {
        // The per-byte hash init must agree with the historical word-granular
        // hash: an aligned 8-byte read of unwritten memory returns
        // hash_addr(addr), byte reads return its little-endian bytes — with
        // or without a resident page.
        let addr = 0x7_3000u64;
        let expected = hash_addr(addr);
        let mem = FuncMem::new();
        assert_eq!(mem.load_u64(addr), expected);
        for i in 0..8 {
            assert_eq!(
                mem.load_bytes(addr + i, 1),
                u64::from(expected.to_le_bytes()[i as usize])
            );
        }
        let mut resident = FuncMem::new();
        resident.store_u64(addr + 512, 1); // same page, different word
        assert_eq!(resident.load_u64(addr), expected);
        assert_eq!(resident.load_bytes(addr + 3, 2), (expected >> 24) & 0xFFFF);
    }

    #[test]
    fn partial_writes_mix_with_hash_init_bytes() {
        let addr = 0x9_1000u64;
        let mut mem = FuncMem::new();
        mem.store_bytes(addr, 1, 0x5A);
        let hash = hash_addr(addr);
        let expected = (hash & !0xFF) | 0x5A;
        assert_eq!(mem.load_u64(addr), expected);
    }

    #[test]
    fn different_unwritten_addresses_read_different_values() {
        let mem = FuncMem::new();
        assert_ne!(mem.load_u64(0x1000), mem.load_u64(0x1008));
    }

    #[test]
    fn written_byte_count_tracks_unique_bytes() {
        let mut mem = FuncMem::new();
        mem.store_u64(0x1000, 1);
        mem.store_u64(0x1000, 2);
        mem.store_u64(0x2000, 3);
        assert_eq!(mem.written_bytes(), 16);
        mem.store_bytes(0x1004, 2, 9); // inside the first word: no new bytes
        assert_eq!(mem.written_bytes(), 16);
        mem.store_bytes(0x3000, 1, 9);
        assert_eq!(mem.written_bytes(), 17);
    }

    #[test]
    fn page_crossing_accesses_work() {
        let mut mem = FuncMem::new();
        let addr = PAGE_BYTES - 3; // 3 bytes in one page, 5 in the next
        mem.store_bytes(addr, 8, 0x1122_3344_5566_7788);
        assert_eq!(mem.load_bytes(addr, 8), 0x1122_3344_5566_7788);
        assert_eq!(mem.resident_pages(), 2);
        assert_eq!(mem.load_bytes(PAGE_BYTES, 1), 0x55);
    }

    #[test]
    fn former_sentinel_value_roundtrips_exactly() {
        // The word-granular model reserved 0xDEAD_BEEF_DEAD_BEEF as an
        // unwritten marker and remapped stores of it; the byte-granular
        // model stores it faithfully.
        let mut mem = FuncMem::new();
        mem.store_u64(0x40, 0xDEAD_BEEF_DEAD_BEEF);
        assert_eq!(mem.load_u64(0x40), 0xDEAD_BEEF_DEAD_BEEF);
    }

    #[test]
    fn init_from_pairs() {
        let mut mem = FuncMem::new();
        mem.init_from([(0x10, 1), (0x18, 2), (0x20, 3)]);
        assert_eq!(mem.load_u64(0x18), 2);
        assert_eq!(mem.written_bytes(), 24);
        mem.init_bytes_from([(0x30, 0xAA), (0x31, 0xBB)]);
        assert_eq!(mem.load_bytes(0x30, 2), 0xBBAA);
    }

    #[test]
    fn interleaved_page_accesses_hit_through_the_last_page_cache() {
        let mut mem = FuncMem::new();
        // Two pages, alternating touches: every switch must re-resolve the
        // page correctly.
        mem.store_u64(0x0000, 1);
        mem.store_u64(0x2000, 2);
        for _ in 0..8 {
            assert_eq!(mem.load_u64(0x0000), 1);
            assert_eq!(mem.load_u64(0x2000), 2);
        }
        // A clone keeps its own cache and the same contents.
        let clone = mem.clone();
        assert_eq!(clone.load_u64(0x0000), 1);
        assert_eq!(clone.load_u64(0x2000), 2);
        assert_eq!(clone.resident_pages(), 2);
    }

    /// Byte-level reference model: written bytes are in the map, every
    /// other byte reads its hash-init value.
    type Reference = std::collections::BTreeMap<u64, u8>;

    fn store_both(mem: &mut FuncMem, model: &mut Reference, addr: u64, len: u64, value: u64) {
        mem.store_bytes(addr, len, value);
        for i in 0..len {
            model.insert(addr + i, (value >> (8 * i)) as u8);
        }
    }

    /// Asserts `mem` matches `model` byte for byte over every written byte
    /// and its neighbourhood, and in its written-byte count.
    fn assert_matches(mem: &FuncMem, model: &Reference) {
        assert_eq!(mem.written_bytes(), model.len() as u64);
        for &addr in model.keys() {
            for probe in addr.saturating_sub(9)..addr + 9 {
                let expected = model
                    .get(&probe)
                    .copied()
                    .unwrap_or_else(|| hash_init_byte(probe));
                assert_eq!(
                    mem.load_bytes(probe, 1),
                    u64::from(expected),
                    "byte {probe:#x}"
                );
            }
        }
    }

    #[test]
    fn stores_into_a_clone_leave_the_original_untouched() {
        let mut original = FuncMem::new();
        let mut original_model = Reference::new();
        store_both(
            &mut original,
            &mut original_model,
            0x1000,
            8,
            0x1111_2222_3333_4444,
        );
        store_both(&mut original, &mut original_model, 0x2ffe, 4, 0xAABB_CCDD);
        store_both(&mut original, &mut original_model, 0x5010, 1, 0x5A);
        let before = original.written_bytes();

        let mut clone = original.clone();
        let mut clone_model = original_model.clone();
        assert_eq!(clone, original);
        // Overwrite a shared page, cross a page boundary, and touch a page
        // only the clone has.
        store_both(&mut clone, &mut clone_model, 0x1004, 2, 0xFFFF);
        store_both(
            &mut clone,
            &mut clone_model,
            0x2ffc,
            8,
            0x0102_0304_0506_0708,
        );
        store_both(&mut clone, &mut clone_model, 0x9000, 8, 7);
        // Install a page image over a page the original also holds.
        let mut donor = FuncMem::new();
        donor.store_bytes(0x5020, 4, 0xCAFE_F00D);
        let (page_no, data, written) = donor.page_images().next().expect("one page");
        clone.install_page(page_no, data, written);
        clone_model.retain(|&addr, _| addr / PAGE_BYTES != page_no);
        for i in 0..4 {
            clone_model.insert(0x5020 + i, (0xCAFE_F00Du64 >> (8 * i)) as u8);
        }

        assert_eq!(original.written_bytes(), before);
        assert_eq!(original.resident_pages(), 4);
        assert_matches(&original, &original_model);
        assert_matches(&clone, &clone_model);
        assert_ne!(clone, original);
    }
}
