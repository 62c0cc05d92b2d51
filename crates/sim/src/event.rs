//! The discrete-event queue core.
//!
//! A simulation run is a loop over a priority queue of timestamped events.
//! Determinism is load-bearing for the whole crate: two runs with the same
//! seed must produce bit-identical reports, so ties in simulated time are
//! broken by a monotonically increasing sequence number (insertion order),
//! never by container internals, and no wall-clock source exists anywhere in
//! the simulator.
//!
//! The queue is a binary heap over `(time, seq)`: O(log n) per push and pop
//! whatever the spread of pending event times, which matters for closed-loop
//! traffic where hundreds of clients are seeded at one instant and the whole
//! run spans a fraction of a second.

use crate::error::SimError;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// One scheduled event: a payload due at a simulated time.
#[derive(Debug, Clone)]
struct Entry<E> {
    time: f64,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
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
        // BinaryHeap is a max-heap; invert so the earliest event pops first.
        // Equal times pop in insertion order (FIFO) for determinism.
        other
            .time
            .total_cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A deterministic event queue ordered by `(time, insertion order)`.
///
/// Scheduling at a non-finite or negative time is a caller bug; the queue
/// stays panic-free by clamping negative times to 0, dropping non-finite
/// ones, and counting both in [`EventQueue::invalid_pushes`].
/// [`EventQueue::try_push`] reports the same conditions as a structured
/// [`SimError::InvalidEventTime`] instead.
#[derive(Debug, Clone)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    seq: u64,
    invalid: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self {
            heap: BinaryHeap::new(),
            seq: 0,
            invalid: 0,
        }
    }

    /// Schedules `event` at simulated time `time_s` (seconds).
    ///
    /// Invalid times never panic: a negative finite time is clamped to 0 and
    /// the event scheduled there; a NaN or infinite time drops the event.
    /// Both increment [`EventQueue::invalid_pushes`] so callers can surface
    /// the bug without unwinding mid-run.
    pub fn push(&mut self, time_s: f64, event: E) {
        if !(time_s.is_finite() && time_s >= 0.0) {
            self.invalid += 1;
            if !time_s.is_finite() {
                return;
            }
        }
        self.push_valid(time_s.max(0.0), event);
    }

    /// Schedules `event` at `time_s`, rejecting invalid times structurally.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidEventTime`] (scheduling nothing and
    /// counting nothing) when `time_s` is NaN, infinite, or negative.
    pub fn try_push(&mut self, time_s: f64, event: E) -> Result<(), SimError> {
        if !(time_s.is_finite() && time_s >= 0.0) {
            return Err(SimError::InvalidEventTime { time_s });
        }
        self.push_valid(time_s, event);
        Ok(())
    }

    fn push_valid(&mut self, time_s: f64, event: E) {
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Entry {
            time: time_s,
            seq,
            event,
        });
    }

    /// Removes and returns the earliest event as `(time, event)`.
    pub fn pop(&mut self) -> Option<(f64, E)> {
        self.heap.pop().map(|entry| (entry.time, entry.event))
    }

    /// The time of the earliest pending event, if any.
    pub fn peek_time(&self) -> Option<f64> {
        self.heap.peek().map(|entry| entry.time)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// How many pushes carried an invalid (negative, NaN, or infinite)
    /// time. Always 0 in a correct simulation; the engine surfaces a
    /// nonzero count as a `sim.event.invalid_time` telemetry counter.
    pub fn invalid_pushes(&self) -> u64 {
        self.invalid
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_pop_in_time_order() {
        let mut q = EventQueue::new();
        q.push(3.0, "c");
        q.push(1.0, "a");
        q.push(2.0, "b");
        assert_eq!(q.peek_time(), Some(1.0));
        assert_eq!(q.pop(), Some((1.0, "a")));
        assert_eq!(q.pop(), Some((2.0, "b")));
        assert_eq!(q.pop(), Some((3.0, "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        for i in 0..16 {
            q.push(1.0, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..16).collect::<Vec<_>>());
    }

    #[test]
    fn len_and_is_empty_track_contents() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.push(0.0, 0);
        q.push(0.5, 1);
        assert_eq!(q.len(), 2);
        q.pop();
        q.pop();
        assert!(q.is_empty());
    }

    #[test]
    fn invalid_times_are_counted_not_panicked() {
        let mut q = EventQueue::new();
        // NaN and infinities drop the event.
        q.push(f64::NAN, 0);
        q.push(f64::INFINITY, 1);
        q.push(f64::NEG_INFINITY, 2);
        assert_eq!(q.len(), 0);
        assert_eq!(q.invalid_pushes(), 3);
        // A negative finite time clamps to zero but still schedules.
        q.push(-1.0, 3);
        assert_eq!(q.invalid_pushes(), 4);
        assert_eq!(q.pop(), Some((0.0, 3)));
    }

    #[test]
    fn try_push_rejects_invalid_times_structurally() {
        let mut q = EventQueue::new();
        assert!(matches!(
            q.try_push(f64::NAN, 0),
            Err(SimError::InvalidEventTime { .. })
        ));
        assert!(matches!(
            q.try_push(-0.25, 0),
            Err(SimError::InvalidEventTime { time_s }) if time_s < 0.0
        ));
        assert_eq!(q.invalid_pushes(), 0, "try_push counts nothing");
        assert!(q.try_push(0.25, 7).is_ok());
        assert_eq!(q.pop(), Some((0.25, 7)));
    }

    #[test]
    fn far_future_events_survive_the_overflow_list() {
        // Times nine orders of magnitude apart still pop in order.
        let mut q = EventQueue::new();
        q.push(1e9, 1);
        q.push(0.5, 0);
        q.push(2e9, 2);
        assert_eq!(q.pop(), Some((0.5, 0)));
        assert_eq!(q.pop(), Some((1e9, 1)));
        assert_eq!(q.pop(), Some((2e9, 2)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn growth_rebuilds_keep_sorted_order() {
        let mut q = EventQueue::new();
        // A deterministic scramble of 10k distinct times.
        let times: Vec<f64> = (0..10_000u64)
            .map(|i| ((i * 7919) % 10_000) as f64 * 1e-3)
            .collect();
        for (i, &t) in times.iter().enumerate() {
            q.push(t, i as i32);
        }
        let mut sorted = times.clone();
        sorted.sort_by(f64::total_cmp);
        let popped: Vec<f64> = std::iter::from_fn(|| q.pop().map(|(t, _)| t)).collect();
        assert_eq!(popped.len(), sorted.len());
        assert!(popped
            .iter()
            .zip(&sorted)
            .all(|(a, b)| a.to_bits() == b.to_bits()));
    }

    #[test]
    fn all_equal_times_drain_in_fifo_order_across_rebuilds() {
        // 400 events at one instant: the zero-span shape of a closed loop
        // whose clients are all seeded at t=0.
        let mut q = EventQueue::new();
        for i in 0..400 {
            q.push(5.0, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..400).collect::<Vec<_>>());
    }
}
