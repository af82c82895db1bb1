//! Fixed-latency delay line modelling the front-end pipeline depth.
//!
//! The paper's baseline front-end is 8 stages deep (Table 1). A micro-op
//! fetched at cycle *c* therefore reaches the rename stage at *c + 8*; after
//! a pipeline flush the first useful micro-op arrives 8 cycles after
//! redirection — the "refilling the front-end" component of the ~56-cycle
//! runahead-exit penalty quantified in Section 2.4.

use std::collections::VecDeque;

/// A bounded delay line: items pushed at cycle `c` become poppable at
/// `c + depth`.
#[derive(Debug, Clone)]
pub struct DelayPipe<T> {
    depth: u64,
    capacity: usize,
    entries: VecDeque<(u64, T)>,
}

impl<T> DelayPipe<T> {
    /// Creates a delay pipe with latency `depth` cycles and a buffer of
    /// `capacity` in-flight items.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(depth: u64, capacity: usize) -> Self {
        assert!(capacity > 0, "delay pipe capacity must be non-zero");
        DelayPipe {
            depth,
            capacity,
            entries: VecDeque::with_capacity(capacity),
        }
    }

    /// Attempts to push an item at cycle `now`; fails when the pipe is full.
    pub fn push(&mut self, item: T, now: u64) -> Result<(), T> {
        if self.entries.len() >= self.capacity {
            return Err(item);
        }
        self.entries.push_back((now + self.depth, item));
        Ok(())
    }

    /// Pops the oldest item if it has traversed the pipe by cycle `now`.
    pub fn pop_ready(&mut self, now: u64) -> Option<T> {
        match self.entries.front() {
            Some(&(ready, _)) if ready <= now => self.entries.pop_front().map(|(_, item)| item),
            _ => None,
        }
    }

    /// The cycle at which the oldest in-flight item becomes poppable, if
    /// anything is in flight (used by the quiescent-cycle fast-forward to
    /// bound how far the clock may jump).
    pub fn next_ready_at(&self) -> Option<u64> {
        self.entries.front().map(|&(ready, _)| ready)
    }

    /// Number of in-flight items.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when nothing is in flight.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// `true` when no more items can enter the pipe.
    pub fn is_full(&self) -> bool {
        self.entries.len() >= self.capacity
    }

    /// Discards everything in flight (pipeline flush).
    pub fn flush(&mut self) {
        self.entries.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn items_emerge_after_depth_cycles() {
        let mut pipe = DelayPipe::new(8, 32);
        pipe.push("a", 100).unwrap();
        assert!(pipe.pop_ready(107).is_none());
        assert_eq!(pipe.pop_ready(108), Some("a"));
    }

    #[test]
    fn order_is_preserved() {
        let mut pipe = DelayPipe::new(2, 8);
        pipe.push(1, 0).unwrap();
        pipe.push(2, 0).unwrap();
        pipe.push(3, 1).unwrap();
        assert_eq!(pipe.pop_ready(2), Some(1));
        assert_eq!(pipe.pop_ready(2), Some(2));
        assert_eq!(pipe.pop_ready(2), None);
        assert_eq!(pipe.pop_ready(3), Some(3));
    }

    #[test]
    fn full_pipe_rejects_pushes() {
        let mut pipe = DelayPipe::new(1, 2);
        pipe.push(1, 0).unwrap();
        pipe.push(2, 0).unwrap();
        assert!(pipe.is_full());
        assert_eq!(pipe.push(3, 0), Err(3));
    }

    #[test]
    fn flush_discards_in_flight_items() {
        let mut pipe = DelayPipe::new(4, 8);
        pipe.push(1, 0).unwrap();
        pipe.push(2, 0).unwrap();
        pipe.flush();
        assert!(pipe.is_empty());
        assert_eq!(pipe.pop_ready(100), None);
    }

    #[test]
    fn zero_depth_is_immediately_ready() {
        let mut pipe = DelayPipe::new(0, 4);
        pipe.push(7, 5).unwrap();
        assert_eq!(pipe.pop_ready(5), Some(7));
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_capacity_rejected() {
        let _: DelayPipe<u8> = DelayPipe::new(1, 0);
    }
}
