//! The Extended Micro-op Queue (EMQ).
//!
//! Section 3.3 of the paper: without the EMQ, the work the front-end does in
//! runahead mode is thrown away — every micro-op fetched and decoded during
//! runahead must be fetched and decoded again after exit. The EMQ extends the
//! micro-op queue so that *all* decoded runahead micro-ops (SST hits and
//! misses alike) are buffered; when normal mode resumes they are dispatched
//! straight from the EMQ. The cost is that the runahead interval is bounded
//! by the EMQ capacity: once it fills, runahead execution stalls until the
//! stalling load returns. The paper evaluates a 768-entry EMQ (4 × ROB) and
//! reports PRE+EMQ at +28.6 % performance and −7.2 % energy versus the
//! out-of-order baseline.

use pre_frontend::uop_queue::UopQueue;

/// The EMQ: a bounded FIFO of decoded micro-ops captured in runahead mode.
///
/// The payload type is generic so the pipeline can store its own decoded
/// micro-op representation without this crate depending on the pipeline.
#[derive(Debug, Clone)]
pub struct ExtendedMicroOpQueue<T> {
    queue: UopQueue<T>,
}

impl<T> ExtendedMicroOpQueue<T> {
    /// Creates an EMQ with `capacity` entries (768 in the paper).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        ExtendedMicroOpQueue {
            queue: UopQueue::new(capacity),
        }
    }

    /// Buffers a micro-op decoded in runahead mode. Returns the micro-op back
    /// when the queue is full — the caller must stall runahead execution.
    pub fn capture(&mut self, uop: T) -> Result<(), T> {
        self.queue.push(uop)
    }

    /// Pops the oldest buffered micro-op for dispatch after runahead exit.
    pub fn dispatch_next(&mut self) -> Option<T> {
        self.queue.pop()
    }

    /// Peeks at the next micro-op to dispatch.
    pub fn peek(&self) -> Option<&T> {
        self.queue.front()
    }

    /// Number of buffered micro-ops.
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// `true` when nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// `true` when the EMQ can capture no more micro-ops (runahead must
    /// stall).
    pub fn is_full(&self) -> bool {
        self.queue.is_full()
    }

    /// Configured capacity.
    pub fn capacity(&self) -> usize {
        self.queue.capacity()
    }

    /// Total micro-ops captured (EMQ writes, for the energy model).
    pub fn writes(&self) -> u64 {
        self.queue.pushes()
    }

    /// Total micro-ops dispatched from the EMQ (EMQ reads).
    pub fn reads(&self) -> u64 {
        self.queue.pops()
    }

    /// Discards all buffered micro-ops (used when runahead is aborted, e.g.
    /// on a normal-mode branch misprediction).
    pub fn clear(&mut self) {
        self.queue.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capture_then_dispatch_in_order() {
        let mut emq = ExtendedMicroOpQueue::new(4);
        emq.capture("a").unwrap();
        emq.capture("b").unwrap();
        assert_eq!(emq.dispatch_next(), Some("a"));
        assert_eq!(emq.dispatch_next(), Some("b"));
        assert_eq!(emq.dispatch_next(), None);
    }

    #[test]
    fn full_queue_rejects_capture() {
        let mut emq = ExtendedMicroOpQueue::new(2);
        emq.capture(1).unwrap();
        emq.capture(2).unwrap();
        assert!(emq.is_full());
        assert_eq!(emq.capture(3), Err(3));
    }

    #[test]
    fn read_write_counters() {
        let mut emq = ExtendedMicroOpQueue::new(8);
        for i in 0..5 {
            emq.capture(i).unwrap();
        }
        emq.dispatch_next();
        assert_eq!(emq.writes(), 5);
        assert_eq!(emq.reads(), 1);
        assert_eq!(emq.len(), 4);
    }

    #[test]
    fn clear_discards_contents() {
        let mut emq = ExtendedMicroOpQueue::new(4);
        emq.capture(1).unwrap();
        emq.clear();
        assert!(emq.is_empty());
        assert_eq!(emq.peek(), None);
    }
}
