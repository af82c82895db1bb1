//! Bounded micro-op queues.
//!
//! [`UopQueue`] is a simple bounded FIFO used in two places:
//!
//! * the regular micro-op queue between decode and rename, and
//! * the Extended Micro-op Queue (EMQ) of the PRE + EMQ optimization
//!   (Section 3.3): micro-ops decoded during runahead mode are buffered here
//!   and dispatched after runahead exit instead of being re-fetched and
//!   re-decoded. When the EMQ fills up, runahead execution stalls until the
//!   stalling load returns.

use std::collections::VecDeque;

/// A bounded FIFO queue of micro-ops (or any payload).
#[derive(Debug, Clone)]
pub struct UopQueue<T> {
    entries: VecDeque<T>,
    capacity: usize,
    /// Total number of accepted pushes (for energy accounting).
    pushes: u64,
    /// Total number of pops.
    pops: u64,
}

impl<T> UopQueue<T> {
    /// Creates a queue with the given capacity.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "queue capacity must be non-zero");
        UopQueue {
            entries: VecDeque::with_capacity(capacity),
            capacity,
            pushes: 0,
            pops: 0,
        }
    }

    /// Attempts to enqueue an item; returns it back when the queue is full.
    pub fn push(&mut self, item: T) -> Result<(), T> {
        if self.entries.len() >= self.capacity {
            return Err(item);
        }
        self.entries.push_back(item);
        self.pushes += 1;
        Ok(())
    }

    /// Dequeues the oldest item.
    pub fn pop(&mut self) -> Option<T> {
        let item = self.entries.pop_front();
        if item.is_some() {
            self.pops += 1;
        }
        item
    }

    /// Peeks at the oldest item without removing it.
    pub fn front(&self) -> Option<&T> {
        self.entries.front()
    }

    /// Current occupancy.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when the queue holds no items.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// `true` when no more items can be enqueued.
    pub fn is_full(&self) -> bool {
        self.entries.len() >= self.capacity
    }

    /// Configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Discards all queued items (used on pipeline flushes).
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    /// Number of accepted pushes so far.
    pub fn pushes(&self) -> u64 {
        self.pushes
    }

    /// Number of pops so far.
    pub fn pops(&self) -> u64 {
        self.pops
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_order_preserved() {
        let mut q = UopQueue::new(4);
        for i in 0..4 {
            q.push(i).unwrap();
        }
        assert_eq!(q.pop(), Some(0));
        assert_eq!(q.pop(), Some(1));
        q.push(4).unwrap();
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), Some(3));
        assert_eq!(q.pop(), Some(4));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn push_fails_when_full_and_returns_item() {
        let mut q = UopQueue::new(2);
        q.push("a").unwrap();
        q.push("b").unwrap();
        assert!(q.is_full());
        assert_eq!(q.push("c"), Err("c"));
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn capacity_is_fixed() {
        let mut q = UopQueue::new(3);
        q.push(1).unwrap();
        assert_eq!(q.capacity(), 3);
    }

    #[test]
    fn clear_empties_the_queue() {
        let mut q = UopQueue::new(3);
        q.push(1).unwrap();
        q.push(2).unwrap();
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
        // Statistics survive the clear.
        assert_eq!(q.pushes(), 2);
    }

    #[test]
    fn counters_track_activity() {
        let mut q = UopQueue::new(8);
        for i in 0..5 {
            q.push(i).unwrap();
        }
        q.pop();
        q.pop();
        assert_eq!(q.pushes(), 5);
        assert_eq!(q.pops(), 2);
        assert_eq!(q.len(), 3);
    }

    #[test]
    fn front_peeks_without_removing() {
        let mut q = UopQueue::new(2);
        q.push(9).unwrap();
        assert_eq!(q.front(), Some(&9));
        assert_eq!(q.len(), 1);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_capacity_rejected() {
        let _: UopQueue<u32> = UopQueue::new(0);
    }
}
