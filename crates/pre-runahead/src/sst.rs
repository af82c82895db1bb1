//! The Stalling Slice Table (SST).
//!
//! Section 3.2 of the paper: the SST is a small, fully-associative cache of
//! instruction addresses (PCs). An instruction whose PC hits in the SST is
//! part of a *stalling slice* — the backward dependence chain of a load that
//! blocked the ROB. The table is populated iteratively: when the stalling
//! load blocks the ROB its PC is inserted; on subsequent decodes of an
//! SST-resident instruction, the renaming unit supplies the PCs of the
//! producers of its source registers, and those PCs are inserted too. After
//! a few loop iterations the SST holds the complete slice (or slices — unlike
//! the runahead buffer, the SST is not limited to a single chain).
//!
//! The paper provisions 256 entries with LRU replacement and finds that this
//! captures the stalling slices of SPEC CPU2006 with almost no misses
//! (Section 3.6); `report sst` in `pre-sim` (Stat F) reproduces that sweep.

/// A fully-associative, LRU-replaced table of instruction addresses.
///
/// The capacity is read in one place only: the full check in
/// [`StallingSliceTable::insert`]. Entries leave only by eviction, so the
/// table holds `inserts - evictions` PCs and evicts exactly when an insert
/// finds it full. A sequence of calls that caused no eviction therefore
/// never took the capacity branch and never held more than
/// [`StallingSliceTable::inserts`] PCs, and replaying it into a table of
/// any capacity of at least that many gives the same answers, counters and
/// LRU stamps. `pre-sim`'s batch executor relies on this to answer the
/// smaller-SST points of a sweep from the largest one's run (Mattson et
/// al.'s inclusion property of LRU stacks, 1970).
#[derive(Debug, Clone)]
pub struct StallingSliceTable {
    capacity: usize,
    /// `(pc, last-use timestamp)` pairs; at most `capacity` of them.
    entries: Vec<(u32, u64)>,
    clock: u64,
    lookups: u64,
    hits: u64,
    inserts: u64,
    evictions: u64,
}

impl StallingSliceTable {
    /// Creates an SST with `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "SST capacity must be non-zero");
        StallingSliceTable {
            capacity,
            entries: Vec::with_capacity(capacity),
            clock: 0,
            lookups: 0,
            hits: 0,
            inserts: 0,
            evictions: 0,
        }
    }

    /// Looks up `pc`, refreshing its LRU position on a hit.
    pub fn lookup(&mut self, pc: u32) -> bool {
        self.lookups += 1;
        self.clock += 1;
        let clock = self.clock;
        if let Some(entry) = self.entries.iter_mut().find(|(p, _)| *p == pc) {
            entry.1 = clock;
            self.hits += 1;
            true
        } else {
            false
        }
    }

    /// Checks for `pc` without updating LRU or statistics.
    pub fn contains(&self, pc: u32) -> bool {
        self.entries.iter().any(|(p, _)| *p == pc)
    }

    /// Records `n` consecutive hitting lookups of `pc` in one call, exactly
    /// as `n` [`StallingSliceTable::lookup`] calls would: the lookup, hit and
    /// LRU clocks each advance by `n` and the entry's last-use stamp lands on
    /// the final clock value. Used by the pipeline's quiescent fast-forward,
    /// which skips cycles during which the PRE decode filter re-looks-up the
    /// same resource-blocked micro-op.
    ///
    /// # Panics
    ///
    /// Panics if `pc` is not resident (a bulk hit must really be a hit).
    pub fn record_bulk_hits(&mut self, pc: u32, n: u64) {
        if n == 0 {
            return;
        }
        self.lookups += n;
        self.hits += n;
        self.clock += n;
        let clock = self.clock;
        let entry = self
            .entries
            .iter_mut()
            .find(|(p, _)| *p == pc)
            .expect("bulk-hit PC must be resident");
        entry.1 = clock;
    }

    /// Inserts `pc`, evicting the least-recently-used entry if the table is
    /// full. Returns `true` if the PC was newly inserted (`false` if it was
    /// already present, in which case its LRU position is refreshed).
    pub fn insert(&mut self, pc: u32) -> bool {
        self.clock += 1;
        let clock = self.clock;
        if let Some(entry) = self.entries.iter_mut().find(|(p, _)| *p == pc) {
            entry.1 = clock;
            return false;
        }
        self.inserts += 1;
        if self.entries.len() >= self.capacity {
            let lru = self
                .entries
                .iter()
                .enumerate()
                .min_by_key(|(_, (_, t))| *t)
                .map(|(i, _)| i)
                .expect("SST is non-empty when full");
            self.entries.swap_remove(lru);
            self.evictions += 1;
        }
        self.entries.push((pc, clock));
        true
    }

    /// Number of PCs currently stored.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when no PCs are stored.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of lookups performed.
    pub fn lookups(&self) -> u64 {
        self.lookups
    }

    /// Number of lookups that hit.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Number of distinct insertions (not counting LRU refreshes).
    pub fn inserts(&self) -> u64 {
        self.inserts
    }

    /// Number of LRU evictions (capacity pressure).
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Storage cost in bytes assuming 4-byte PC tags (Section 3.6 reports
    /// 1 KB for 256 entries).
    pub fn storage_bytes(&self) -> usize {
        self.capacity * 4
    }

    /// Removes every stored PC (not used by PRE itself — the SST persists
    /// across runahead intervals — but useful for experiments). Entries
    /// removed this way leave without an eviction, so a run that calls it
    /// is outside the capacity-independence argument of the type docs.
    pub fn clear(&mut self) {
        self.entries.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pre_model::rng::SmallRng;

    #[test]
    fn insert_then_lookup_hits() {
        let mut sst = StallingSliceTable::new(4);
        assert!(sst.insert(100));
        assert!(sst.lookup(100));
        assert!(!sst.lookup(200));
        assert_eq!(sst.hits(), 1);
        assert_eq!(sst.lookups(), 2);
    }

    #[test]
    fn duplicate_insert_is_a_refresh() {
        let mut sst = StallingSliceTable::new(4);
        assert!(sst.insert(7));
        assert!(!sst.insert(7));
        assert_eq!(sst.len(), 1);
        assert_eq!(sst.inserts(), 1);
    }

    #[test]
    fn lru_eviction_keeps_recently_used() {
        let mut sst = StallingSliceTable::new(2);
        sst.insert(1);
        sst.insert(2);
        // Touch 1 so that 2 is the LRU victim.
        assert!(sst.lookup(1));
        sst.insert(3);
        assert!(sst.contains(1));
        assert!(!sst.contains(2));
        assert!(sst.contains(3));
        assert_eq!(sst.evictions(), 1);
    }

    #[test]
    fn capacity_is_never_exceeded() {
        let mut sst = StallingSliceTable::new(8);
        for pc in 0..100 {
            sst.insert(pc);
        }
        assert_eq!(sst.len(), 8);
    }

    #[test]
    fn storage_matches_paper() {
        let sst = StallingSliceTable::new(256);
        assert_eq!(sst.storage_bytes(), 1024);
    }

    #[test]
    fn clear_empties_table() {
        let mut sst = StallingSliceTable::new(4);
        sst.insert(1);
        sst.clear();
        assert!(sst.is_empty());
        assert!(!sst.contains(1));
    }

    #[test]
    fn contains_does_not_count_as_lookup() {
        let mut sst = StallingSliceTable::new(4);
        sst.insert(1);
        let before = sst.lookups();
        assert!(sst.contains(1));
        assert_eq!(sst.lookups(), before);
    }

    /// Randomized: `record_bulk_hits(pc, n)` is indistinguishable from `n`
    /// sequential `lookup(pc)` calls — counters, LRU victim selection and
    /// later behaviour all match.
    #[test]
    fn prop_bulk_hits_equal_sequential_lookups() {
        let mut rng = SmallRng::seed_from_u64(0x557_0003);
        for _case in 0..64 {
            let cap = rng.gen_range_usize(2..8);
            let mut bulk = StallingSliceTable::new(cap);
            let mut seq = StallingSliceTable::new(cap);
            for _ in 0..rng.gen_range_usize(1..60) {
                let pc = rng.gen_range_u64(0..12) as u32;
                match rng.gen_below(3) {
                    0 => {
                        bulk.insert(pc);
                        seq.insert(pc);
                    }
                    1 => {
                        assert_eq!(bulk.lookup(pc), seq.lookup(pc));
                    }
                    _ => {
                        if bulk.contains(pc) {
                            let n = rng.gen_range_u64(1..5);
                            bulk.record_bulk_hits(pc, n);
                            for _ in 0..n {
                                assert!(seq.lookup(pc));
                            }
                        }
                    }
                }
                assert_eq!(bulk.lookups(), seq.lookups());
                assert_eq!(bulk.hits(), seq.hits());
                assert_eq!(bulk.evictions(), seq.evictions());
                let mut b: Vec<_> = bulk.entries.clone();
                let mut s: Vec<_> = seq.entries.clone();
                b.sort_unstable();
                s.sort_unstable();
                assert_eq!(b, s, "entry/LRU state diverged");
            }
        }
    }

    /// One operation of a replayed PC stream.
    #[derive(Debug, Clone, Copy)]
    enum Op {
        Insert(u32),
        Lookup(u32),
        BulkHits(u32, u64),
    }

    /// Replays `ops` into a fresh table of `capacity` entries, returning
    /// every call's answer and the final counters.
    fn replay(capacity: usize, ops: &[Op]) -> (Vec<bool>, [u64; 4]) {
        let mut sst = StallingSliceTable::new(capacity);
        let answers = ops
            .iter()
            .map(|&op| match op {
                Op::Insert(pc) => sst.insert(pc),
                Op::Lookup(pc) => sst.lookup(pc),
                Op::BulkHits(pc, n) => {
                    let resident = sst.contains(pc);
                    if resident {
                        sst.record_bulk_hits(pc, n);
                    }
                    resident
                }
            })
            .collect();
        let counters = [sst.lookups(), sst.hits(), sst.inserts(), sst.evictions()];
        (answers, counters)
    }

    /// Randomized: a run that never evicted answers every insert and lookup
    /// the same way at every capacity of at least its insert count, which
    /// is what lets a sweep answer smaller tables from the largest one.
    #[test]
    fn prop_no_eviction_run_is_capacity_independent() {
        let mut rng = SmallRng::seed_from_u64(0x557_0004);
        let mut certified = 0;
        for _case in 0..256 {
            let pcs = rng.gen_range_u64(1..48);
            let ops: Vec<Op> = (0..rng.gen_range_usize(1..300))
                .map(|_| {
                    let pc = rng.gen_range_u64(0..pcs) as u32;
                    match rng.gen_below(3) {
                        0 => Op::Insert(pc),
                        1 => Op::Lookup(pc),
                        _ => Op::BulkHits(pc, rng.gen_range_u64(1..4)),
                    }
                })
                .collect();
            let (answers, counters) = replay(32, &ops);
            let [_, _, inserts, evictions] = counters;
            if evictions != 0 {
                continue;
            }
            certified += 1;
            for capacity in (inserts.max(1) as usize)..=40 {
                assert_eq!(
                    replay(capacity, &ops),
                    (answers.clone(), counters),
                    "capacity {capacity} diverged from 32 with {inserts} inserts"
                );
            }
        }
        assert!(certified > 64, "too few eviction-free cases: {certified}");
    }

    #[test]
    fn bulk_hits_of_zero_is_a_no_op() {
        let mut sst = StallingSliceTable::new(4);
        sst.insert(1);
        let before = (sst.lookups(), sst.hits());
        sst.record_bulk_hits(1, 0);
        assert_eq!((sst.lookups(), sst.hits()), before);
    }

    /// Randomized: the SST never exceeds its capacity and the most recently
    /// inserted PC is always still present.
    #[test]
    fn prop_capacity_and_recency() {
        let mut rng = SmallRng::seed_from_u64(0x557_0001);
        for _case in 0..64 {
            let len = rng.gen_range_usize(1..200);
            let cap = rng.gen_range_usize(1..16);
            let mut sst = StallingSliceTable::new(cap);
            for _ in 0..len {
                let pc = rng.gen_range_u64(0..64) as u32;
                sst.insert(pc);
                assert!(sst.len() <= cap);
                assert!(sst.contains(pc), "most recent insert must be present");
            }
        }
    }

    /// Randomized: lookups never report more hits than lookups, and hit
    /// entries are retained over misses.
    #[test]
    fn prop_hits_bounded() {
        let mut rng = SmallRng::seed_from_u64(0x557_0002);
        for _case in 0..64 {
            let len = rng.gen_range_usize(1..200);
            let mut sst = StallingSliceTable::new(8);
            for _ in 0..len {
                let pc = rng.gen_range_u64(0..32) as u32;
                if rng.gen_bool(0.5) {
                    sst.insert(pc);
                } else {
                    sst.lookup(pc);
                }
            }
            assert!(sst.hits() <= sst.lookups());
        }
    }
}
