//! Miss-status holding registers (MSHRs).
//!
//! Each cache level owns an MSHR file that tracks outstanding fills.
//! Secondary misses to the same line never reach the file: the primary miss
//! installs the line with its fill cycle (`ready_at`), so later accesses hit
//! it and complete at that cycle. When the file is full, new misses are delayed
//! until the earliest outstanding fill completes. The MSHR capacity is what
//! bounds the memory-level parallelism a core (or runahead mode) can expose.

/// An MSHR file: a bounded set of outstanding line fills.
#[derive(Debug, Clone)]
pub struct MshrFile {
    capacity: usize,
    /// `(line address, completion cycle)` for each outstanding fill.
    entries: Vec<(u64, u64)>,
}

impl MshrFile {
    /// Creates an MSHR file with `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "MSHR capacity must be non-zero");
        MshrFile {
            capacity,
            entries: Vec::with_capacity(capacity),
        }
    }

    /// Removes entries whose fills completed at or before `now`.
    pub(crate) fn expire(&mut self, now: u64) {
        self.entries.retain(|&(_, done)| done > now);
    }

    /// `true` if no free entry is available at `now`.
    pub fn is_full(&mut self, now: u64) -> bool {
        self.expire(now);
        self.entries.len() >= self.capacity
    }

    /// The earliest cycle at which an entry frees up (only meaningful when
    /// the file is full). Returns `now` when the file has free entries.
    pub fn next_free_cycle(&mut self, now: u64) -> u64 {
        self.expire(now);
        if self.entries.len() < self.capacity {
            now
        } else {
            self.entries
                .iter()
                .map(|&(_, done)| done)
                .min()
                .unwrap_or(now)
        }
    }

    /// Allocates an entry for `line_addr` completing at `completes`.
    ///
    /// Callers must ensure the file is not full at the allocation cycle
    /// (use [`MshrFile::next_free_cycle`] to push the request later).
    ///
    /// # Panics
    ///
    /// Panics if the file is full (internal-consistency bug in the caller).
    pub fn allocate(&mut self, line_addr: u64, now: u64, completes: u64) {
        self.expire(now);
        assert!(
            self.entries.len() < self.capacity,
            "MSHR allocate on a full file"
        );
        self.entries.push((line_addr, completes));
    }

    /// Current number of outstanding fills (after expiring completed ones).
    pub fn occupancy(&mut self, now: u64) -> usize {
        self.expire(now);
        self.entries.len()
    }

    /// Configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entries_expire_after_completion() {
        let mut m = MshrFile::new(2);
        m.allocate(0x100, 0, 50);
        assert_eq!(m.occupancy(10), 1);
        assert_eq!(m.occupancy(50), 0);
    }

    #[test]
    fn full_file_reports_next_free_cycle() {
        let mut m = MshrFile::new(2);
        m.allocate(0x100, 0, 100);
        m.allocate(0x200, 0, 80);
        assert!(m.is_full(10));
        assert_eq!(m.next_free_cycle(10), 80);
        assert!(!m.is_full(90));
        assert_eq!(m.next_free_cycle(90), 90);
    }

    #[test]
    #[should_panic(expected = "full")]
    fn allocate_on_full_file_panics() {
        let mut m = MshrFile::new(1);
        m.allocate(0x100, 0, 100);
        m.allocate(0x200, 0, 100);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_capacity_rejected() {
        let _ = MshrFile::new(0);
    }
}
