//! A deterministic discrete-event queue.
//!
//! Events are ordered by time; ties break by insertion order, which keeps
//! every simulation that uses the queue reproducible.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A scheduled entry (internal).
#[derive(Debug, Clone)]
struct Entry<E> {
    time: f64,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}

impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed for min-heap behaviour in BinaryHeap (a max-heap).
        other
            .time
            .total_cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A time-ordered event queue with deterministic FIFO tie-breaking.
///
/// # Examples
///
/// ```
/// use mapwave_manycore::event::EventQueue;
///
/// let mut q = EventQueue::new();
/// q.push(2.0, "late");
/// q.push(1.0, "early");
/// q.push(1.0, "early-second");
/// assert_eq!(q.pop(), Some((1.0, "early")));
/// assert_eq!(q.pop(), Some((1.0, "early-second")));
/// assert_eq!(q.pop(), Some((2.0, "late")));
/// assert_eq!(q.pop(), None);
/// ```
#[derive(Debug, Clone)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    seq: u64,
}

impl<E> EventQueue<E> {
    /// An empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            seq: 0,
        }
    }

    /// Schedules `event` at `time`.
    ///
    /// # Panics
    ///
    /// Panics if `time` is NaN.
    pub fn push(&mut self, time: f64, event: E) {
        assert!(!time.is_nan(), "event time must not be NaN");
        self.heap.push(Entry {
            time,
            seq: self.seq,
            event,
        });
        self.seq += 1;
    }

    /// Removes and returns the earliest event.
    ///
    /// Each pop increments the `manycore.events_processed` telemetry
    /// counter (one relaxed atomic load when telemetry is disabled).
    pub fn pop(&mut self) -> Option<(f64, E)> {
        let popped = self.heap.pop().map(|e| (e.time, e.event));
        if popped.is_some() {
            mapwave_harness::telemetry::count("manycore.events_processed", 1);
        }
        popped
    }

    /// The time of the earliest event without removing it.
    pub fn peek_time(&self) -> Option<f64> {
        self.heap.peek().map(|e| e.time)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        EventQueue::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn orders_by_time() {
        let mut q = EventQueue::new();
        q.push(3.5, 3);
        q.push(0.5, 1);
        q.push(2.0, 2);
        assert_eq!(q.pop(), Some((0.5, 1)));
        assert_eq!(q.pop(), Some((2.0, 2)));
        assert_eq!(q.pop(), Some((3.5, 3)));
    }

    #[test]
    fn fifo_within_same_time() {
        let mut q = EventQueue::new();
        for i in 0..10 {
            q.push(1.0, i);
        }
        for i in 0..10 {
            assert_eq!(q.pop(), Some((1.0, i)));
        }
    }

    #[test]
    fn peek_does_not_remove() {
        let mut q = EventQueue::new();
        q.push(7.0, "x");
        assert_eq!(q.peek_time(), Some(7.0));
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
    }

    #[test]
    fn interleaved_push_pop() {
        let mut q = EventQueue::new();
        q.push(5.0, 'b');
        q.push(1.0, 'a');
        assert_eq!(q.pop(), Some((1.0, 'a')));
        q.push(2.0, 'c');
        assert_eq!(q.pop(), Some((2.0, 'c')));
        assert_eq!(q.pop(), Some((5.0, 'b')));
    }

    #[test]
    #[should_panic]
    fn nan_time_panics() {
        let mut q = EventQueue::new();
        q.push(f64::NAN, ());
    }

    #[test]
    fn default_is_empty() {
        let q: EventQueue<()> = EventQueue::default();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
    }
}
