//! Load and store queues with byte-range store-to-load forwarding.
//!
//! The model is conservative and never violates memory ordering: a load may
//! access memory only when every older store has a known address and no older
//! store overlapping its byte range is still waiting for its data. Store
//! addresses are generated eagerly (as soon as the base register is ready),
//! so streaming loops with a store per iteration do not artificially
//! serialize.
//!
//! Entries carry `(addr, len)` byte ranges, so mixed-width accesses follow
//! real forwarding hardware rules:
//!
//! * a load whose range is **contained** in an older store's range forwards
//!   the overlapping bytes (shifted and truncated out of the store data);
//! * a load that only **partially** overlaps an older store cannot be
//!   satisfied from the store queue — it stalls until the store commits and
//!   writes memory, counted in
//!   [`LoadStoreQueue::forward_blocked_partial`].

use pre_model::isa::{extract_forwarded_bytes, range_contains, ranges_overlap};
use std::collections::VecDeque;

/// One store-queue entry.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SqEntry {
    /// Micro-op identifier (program order).
    pub id: u64,
    /// Effective address, once address generation has run.
    pub addr: Option<u64>,
    /// Access length in bytes (1–8).
    pub len: u8,
    /// Store data value (already truncated to `len` bytes), once the data
    /// operand is ready.
    pub value: Option<u64>,
}

/// The outcome of checking a load against older stores.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum LoadCheck {
    /// No conflict: the load may access the memory hierarchy.
    Proceed,
    /// An older store contains the load's bytes and can supply them. The
    /// value is the raw overlapping bytes, zero-extended (the consumer
    /// applies its own sign/zero extension).
    Forward(u64),
    /// An older store has an unknown address, un-ready data, or a partial
    /// overlap with the load's range; the load must wait.
    Stall,
}

/// Combined load queue / store queue.
#[derive(Debug, Clone)]
pub(crate) struct LoadStoreQueue {
    loads: VecDeque<u64>,
    stores: VecDeque<SqEntry>,
    lq_capacity: usize,
    sq_capacity: usize,
    searches: u64,
    forwards: u64,
    forward_blocked_partial: u64,
}

impl LoadStoreQueue {
    /// Creates load/store queues with the given capacities (64/64 in Table 1).
    ///
    /// # Panics
    ///
    /// Panics if either capacity is zero.
    pub(crate) fn new(lq_capacity: usize, sq_capacity: usize) -> Self {
        assert!(
            lq_capacity > 0 && sq_capacity > 0,
            "LSQ capacities must be non-zero"
        );
        LoadStoreQueue {
            loads: VecDeque::with_capacity(lq_capacity),
            stores: VecDeque::with_capacity(sq_capacity),
            lq_capacity,
            sq_capacity,
            searches: 0,
            forwards: 0,
            forward_blocked_partial: 0,
        }
    }

    /// `true` when no load entry is available.
    pub(crate) fn lq_full(&self) -> bool {
        self.loads.len() >= self.lq_capacity
    }

    /// `true` when no store entry is available.
    pub(crate) fn sq_full(&self) -> bool {
        self.stores.len() >= self.sq_capacity
    }

    /// Current load-queue occupancy.
    pub(crate) fn lq_len(&self) -> usize {
        self.loads.len()
    }

    /// Current store-queue occupancy.
    pub(crate) fn sq_len(&self) -> usize {
        self.stores.len()
    }

    /// Allocates a load-queue entry at dispatch.
    ///
    /// # Panics
    ///
    /// Panics if the load queue is full.
    pub(crate) fn allocate_load(&mut self, id: u64) {
        assert!(!self.lq_full(), "dispatch into a full load queue");
        self.loads.push_back(id);
    }

    /// Allocates a store-queue entry at dispatch, recording the access
    /// length (known statically from the opcode).
    ///
    /// # Panics
    ///
    /// Panics if the store queue is full.
    pub(crate) fn allocate_store(&mut self, id: u64, len: u8) {
        assert!(!self.sq_full(), "dispatch into a full store queue");
        debug_assert!((1..=8).contains(&len), "store length {len} out of range");
        self.stores.push_back(SqEntry {
            id,
            addr: None,
            len,
            value: None,
        });
    }

    /// Index of store `id`. Stores are allocated in dispatch order and
    /// removed from anywhere, so the deque stays sorted by id and a binary
    /// search suffices.
    fn store_index(&self, id: u64) -> Option<usize> {
        crate::sorted_deque::index_by_key(&self.stores, id, |e| e.id)
    }

    /// Records the eagerly generated address of store `id`.
    pub(crate) fn set_store_addr(&mut self, id: u64, addr: u64) {
        if let Some(idx) = self.store_index(id) {
            self.stores[idx].addr = Some(addr);
        }
    }

    /// Records the data value of store `id` (the caller truncates it to the
    /// store's width).
    pub(crate) fn set_store_value(&mut self, id: u64, value: u64) {
        if let Some(idx) = self.store_index(id) {
            self.stores[idx].value = Some(value);
        }
    }

    /// Checks whether the load `load_id` for the byte range
    /// `[addr, addr + len)` may proceed, must stall, or can forward from an
    /// older store. The youngest overlapping older store governs; forwarded
    /// bytes are extracted from its (little-endian) data.
    pub(crate) fn check_load(&mut self, load_id: u64, addr: u64, len: u8) -> LoadCheck {
        let (decision, blocked_partial) = self.scan_older_stores(load_id, addr, len);
        if blocked_partial {
            self.forward_blocked_partial += 1;
        }
        decision
    }

    /// [`LoadStoreQueue::check_load`] for a **non-binding** (runahead) load:
    /// a `Stall` verdict is advisory — the speculative load proceeds to
    /// functional memory anyway — so partial-overlap blocks are *not*
    /// counted in [`LoadStoreQueue::forward_blocked_partial`].
    pub(crate) fn check_load_speculative(&mut self, load_id: u64, addr: u64, len: u8) -> LoadCheck {
        self.scan_older_stores(load_id, addr, len).0
    }

    /// The associative search shared by both check flavours: returns the
    /// verdict and whether the governing (youngest overlapping) store was a
    /// partial overlap.
    fn scan_older_stores(&mut self, load_id: u64, addr: u64, len: u8) -> (LoadCheck, bool) {
        debug_assert!((1..=8).contains(&len), "load length {len} out of range");
        self.searches += 1;
        let len = u64::from(len);
        let mut decision = LoadCheck::Proceed;
        let mut blocked_partial = false;
        for store in self.stores.iter() {
            if store.id >= load_id {
                break;
            }
            let store_addr = match store.addr {
                // Unknown older store address: conservative stall, no
                // forwarding verdict possible yet.
                None => return (LoadCheck::Stall, false),
                Some(a) => a,
            };
            let store_len = u64::from(store.len);
            if !ranges_overlap(store_addr, store_len, addr, len) {
                continue;
            }
            if range_contains(store_addr, store_len, addr, len) {
                // Contained: this (younger) store supplies the bytes.
                blocked_partial = false;
                decision = match store.value {
                    Some(v) => {
                        LoadCheck::Forward(extract_forwarded_bytes(store_addr, v, addr, len))
                    }
                    None => LoadCheck::Stall,
                };
            } else {
                // Partial overlap: no store-queue entry can supply all the
                // bytes; wait for the store to commit to memory.
                blocked_partial = true;
                decision = LoadCheck::Stall;
            }
        }
        if let LoadCheck::Forward(_) = decision {
            self.forwards += 1;
        }
        (decision, blocked_partial)
    }

    /// Releases the load-queue entry of `id` (commit or squash).
    pub(crate) fn release_load(&mut self, id: u64) {
        if let Some(pos) = crate::sorted_deque::index_by_key(&self.loads, id, |&l| l) {
            self.loads.remove(pos);
        }
    }

    /// Releases the store-queue entry of `id` (commit or squash).
    pub(crate) fn release_store(&mut self, id: u64) {
        if let Some(pos) = self.store_index(id) {
            self.stores.remove(pos);
        }
    }

    /// Removes every entry with an id strictly greater than `id` (branch
    /// squash).
    pub(crate) fn squash_younger_than(&mut self, id: u64) {
        self.loads.retain(|&l| l <= id);
        self.stores.retain(|e| e.id <= id);
    }

    /// Discards all entries (pipeline flush).
    pub(crate) fn clear(&mut self) {
        self.loads.clear();
        self.stores.clear();
    }

    /// Number of associative LSQ searches performed (energy accounting).
    pub(crate) fn searches(&self) -> u64 {
        self.searches
    }

    /// Number of loads satisfied by store-to-load forwarding.
    pub(crate) fn forwards(&self) -> u64 {
        self.forwards
    }

    /// Number of load checks blocked by a partial-overlap older store
    /// (counted once per blocked check, like `searches`).
    pub(crate) fn forward_blocked_partial(&self) -> u64 {
        self.forward_blocked_partial
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn load_with_no_older_stores_proceeds() {
        let mut lsq = LoadStoreQueue::new(4, 4);
        lsq.allocate_load(10);
        assert_eq!(lsq.check_load(10, 0x100, 8), LoadCheck::Proceed);
    }

    #[test]
    fn load_stalls_on_unknown_older_store_address() {
        let mut lsq = LoadStoreQueue::new(4, 4);
        lsq.allocate_store(5, 8);
        lsq.allocate_load(10);
        assert_eq!(lsq.check_load(10, 0x100, 8), LoadCheck::Stall);
        lsq.set_store_addr(5, 0x200);
        assert_eq!(lsq.check_load(10, 0x100, 8), LoadCheck::Proceed);
    }

    #[test]
    fn load_forwards_from_exactly_matching_older_store() {
        let mut lsq = LoadStoreQueue::new(4, 4);
        lsq.allocate_store(5, 8);
        lsq.set_store_addr(5, 0x100);
        lsq.allocate_load(10);
        // Same range, data not yet ready: stall.
        assert_eq!(lsq.check_load(10, 0x100, 8), LoadCheck::Stall);
        lsq.set_store_value(5, 77);
        assert_eq!(lsq.check_load(10, 0x100, 8), LoadCheck::Forward(77));
        assert_eq!(lsq.forwards(), 1);
        assert_eq!(lsq.forward_blocked_partial(), 0);
    }

    #[test]
    fn narrow_load_contained_in_wide_store_extracts_bytes() {
        let mut lsq = LoadStoreQueue::new(4, 4);
        lsq.allocate_store(5, 8);
        lsq.set_store_addr(5, 0x100);
        lsq.set_store_value(5, 0x1122_3344_5566_7788);
        lsq.allocate_load(10);
        // Byte 3 of the store data (little-endian).
        assert_eq!(lsq.check_load(10, 0x103, 1), LoadCheck::Forward(0x55));
        // Halfword at offset 2.
        assert_eq!(lsq.check_load(10, 0x102, 2), LoadCheck::Forward(0x5566));
        // Word at offset 4.
        assert_eq!(
            lsq.check_load(10, 0x104, 4),
            LoadCheck::Forward(0x1122_3344)
        );
        assert_eq!(lsq.forwards(), 3);
    }

    #[test]
    fn partial_overlap_stalls_and_is_counted() {
        let mut lsq = LoadStoreQueue::new(4, 4);
        // Narrow store, wide load: bytes outside the store are not in the
        // queue, so the load cannot forward even though the data is ready.
        lsq.allocate_store(5, 1);
        lsq.set_store_addr(5, 0x103);
        lsq.set_store_value(5, 0xAB);
        lsq.allocate_load(10);
        assert_eq!(lsq.check_load(10, 0x100, 8), LoadCheck::Stall);
        assert_eq!(lsq.forward_blocked_partial(), 1);
        assert_eq!(lsq.forwards(), 0);
        // Once the store drains (commit), the load proceeds to memory.
        lsq.release_store(5);
        assert_eq!(lsq.check_load(10, 0x100, 8), LoadCheck::Proceed);
        assert_eq!(lsq.forward_blocked_partial(), 1);
    }

    #[test]
    fn misaligned_width_crossing_ranges_partially_overlap() {
        let mut lsq = LoadStoreQueue::new(4, 4);
        // An 8-byte store at 0x100 and a (word-boundary-crossing) 4-byte
        // load at 0x106: two bytes come from the store, two from beyond it.
        lsq.allocate_store(5, 8);
        lsq.set_store_addr(5, 0x100);
        lsq.set_store_value(5, 0xFFFF_FFFF_FFFF_FFFF);
        lsq.allocate_load(10);
        assert_eq!(lsq.check_load(10, 0x106, 4), LoadCheck::Stall);
        assert_eq!(lsq.forward_blocked_partial(), 1);
        // The mirror case: narrow store astride the load's start.
        let mut lsq = LoadStoreQueue::new(4, 4);
        lsq.allocate_store(6, 2);
        lsq.set_store_addr(6, 0x0FF);
        lsq.set_store_value(6, 0xBEEF);
        lsq.allocate_load(11);
        assert_eq!(lsq.check_load(11, 0x100, 4), LoadCheck::Stall);
        assert_eq!(lsq.forward_blocked_partial(), 1);
    }

    #[test]
    fn speculative_checks_do_not_count_partial_blocks() {
        let mut lsq = LoadStoreQueue::new(4, 4);
        lsq.allocate_store(5, 1);
        lsq.set_store_addr(5, 0x103);
        lsq.set_store_value(5, 0xAB);
        lsq.allocate_load(10);
        // A non-binding (runahead) check sees the same verdict but the load
        // proceeds to memory anyway, so the block is not counted.
        assert_eq!(lsq.check_load_speculative(10, 0x100, 8), LoadCheck::Stall);
        assert_eq!(lsq.forward_blocked_partial(), 0);
        assert_eq!(lsq.searches(), 1);
        // Contained forwarding still counts as a forward on either flavour.
        assert_eq!(
            lsq.check_load_speculative(10, 0x103, 1),
            LoadCheck::Forward(0xAB)
        );
        assert_eq!(lsq.forwards(), 1);
        // The binding check does count the block.
        assert_eq!(lsq.check_load(10, 0x100, 8), LoadCheck::Stall);
        assert_eq!(lsq.forward_blocked_partial(), 1);
    }

    #[test]
    fn disjoint_sub_word_accesses_to_one_word_do_not_interact() {
        let mut lsq = LoadStoreQueue::new(4, 4);
        // Store byte 0, load byte 1 of the same former 8-byte word: under
        // byte granularity these are independent.
        lsq.allocate_store(5, 1);
        lsq.set_store_addr(5, 0x100);
        lsq.allocate_load(10);
        assert_eq!(lsq.check_load(10, 0x101, 1), LoadCheck::Proceed);
        assert_eq!(lsq.forward_blocked_partial(), 0);
    }

    #[test]
    fn younger_stores_do_not_affect_older_loads() {
        let mut lsq = LoadStoreQueue::new(4, 4);
        lsq.allocate_load(10);
        lsq.allocate_store(20, 8);
        assert_eq!(lsq.check_load(10, 0x100, 8), LoadCheck::Proceed);
    }

    #[test]
    fn youngest_matching_store_wins() {
        let mut lsq = LoadStoreQueue::new(4, 4);
        lsq.allocate_store(5, 8);
        lsq.set_store_addr(5, 0x100);
        lsq.set_store_value(5, 1);
        lsq.allocate_store(6, 8);
        lsq.set_store_addr(6, 0x100);
        lsq.set_store_value(6, 2);
        lsq.allocate_load(10);
        assert_eq!(lsq.check_load(10, 0x100, 8), LoadCheck::Forward(2));
    }

    #[test]
    fn younger_containing_store_overrides_older_partial_overlap() {
        let mut lsq = LoadStoreQueue::new(4, 4);
        // Older store partially overlaps, but a younger store contains the
        // load: the youngest overlapping store governs, so the load forwards
        // and no partial block is counted.
        lsq.allocate_store(5, 2);
        lsq.set_store_addr(5, 0x0FF);
        lsq.set_store_value(5, 0xAAAA);
        lsq.allocate_store(6, 8);
        lsq.set_store_addr(6, 0x100);
        lsq.set_store_value(6, 0x1122_3344_5566_7788);
        lsq.allocate_load(10);
        assert_eq!(
            lsq.check_load(10, 0x100, 4),
            LoadCheck::Forward(0x5566_7788)
        );
        assert_eq!(lsq.forward_blocked_partial(), 0);
    }

    #[test]
    fn capacity_accounting_and_release() {
        let mut lsq = LoadStoreQueue::new(2, 2);
        lsq.allocate_load(1);
        lsq.allocate_load(2);
        assert!(lsq.lq_full());
        lsq.release_load(1);
        assert!(!lsq.lq_full());
        lsq.allocate_store(3, 8);
        lsq.allocate_store(4, 4);
        assert!(lsq.sq_full());
        lsq.release_store(3);
        assert_eq!(lsq.sq_len(), 1);
    }

    #[test]
    fn squash_removes_younger_entries_only() {
        let mut lsq = LoadStoreQueue::new(4, 4);
        lsq.allocate_load(1);
        lsq.allocate_load(5);
        lsq.allocate_store(3, 8);
        lsq.allocate_store(7, 1);
        lsq.squash_younger_than(4);
        assert_eq!(lsq.lq_len(), 1);
        assert_eq!(lsq.sq_len(), 1);
    }

    #[test]
    fn clear_empties_both_queues() {
        let mut lsq = LoadStoreQueue::new(4, 4);
        lsq.allocate_load(1);
        lsq.allocate_store(2, 8);
        lsq.clear();
        assert_eq!(lsq.lq_len(), 0);
        assert_eq!(lsq.sq_len(), 0);
    }
}
