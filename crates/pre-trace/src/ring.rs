//! A tiny fixed-capacity ring of recent commits.
//!
//! The pipeline keeps one of these always on (independent of any attached
//! [`Tracer`](crate::Tracer)) so that a watchdog abort can report *where* the
//! machine last made progress — the final few committed `(cycle, pc)` pairs —
//! without the run having been started under tracing. Pushing is two stores
//! and a wrapping increment, cheap enough to sit on the commit path
//! unconditionally.

/// Fixed-capacity ring buffer of the most recent committed `(cycle, pc)`
/// pairs, oldest entry evicted first.
#[derive(Debug, Clone)]
pub struct CommitRing {
    slots: Vec<(u64, u32)>,
    /// Next slot to overwrite.
    head: usize,
}

impl CommitRing {
    /// Creates a ring keeping the last `capacity` commits (`capacity >= 1`).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        CommitRing {
            slots: Vec::with_capacity(capacity),
            head: 0,
        }
    }

    /// Records one committed uop.
    #[inline]
    pub fn push(&mut self, cycle: u64, pc: u32) {
        if self.slots.len() < self.slots.capacity() {
            self.slots.push((cycle, pc));
        } else {
            self.slots[self.head] = (cycle, pc);
        }
        self.head = (self.head + 1) % self.slots.capacity();
    }

    /// The retained commits as `(cycle, pc)` pairs, oldest first.
    pub fn entries(&self) -> Vec<(u64, u32)> {
        if self.slots.len() < self.slots.capacity() {
            self.slots.clone()
        } else {
            let mut out = Vec::with_capacity(self.slots.len());
            out.extend_from_slice(&self.slots[self.head..]);
            out.extend_from_slice(&self.slots[..self.head]);
            out
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keeps_everything_below_capacity() {
        let mut ring = CommitRing::new(4);
        assert!(ring.entries().is_empty());
        ring.push(10, 0x40);
        ring.push(11, 0x44);
        assert_eq!(ring.entries(), vec![(10, 0x40), (11, 0x44)]);
    }

    #[test]
    fn evicts_oldest_first_after_wrap() {
        let mut ring = CommitRing::new(3);
        for i in 0..7u64 {
            ring.push(100 + i, 0x40 + 4 * i as u32);
        }
        assert_eq!(
            ring.entries(),
            vec![(104, 0x50), (105, 0x54), (106, 0x58)],
            "oldest-first order across the wrap point"
        );
    }

    #[test]
    fn zero_capacity_is_clamped_to_one() {
        let mut ring = CommitRing::new(0);
        ring.push(1, 0x0);
        ring.push(2, 0x4);
        assert_eq!(ring.entries(), vec![(2, 0x4)]);
    }
}
