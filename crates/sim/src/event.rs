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
//! run spans a fraction of a second. Two details keep each event cheap:
//!
//! * **Deferred root removal.** [`EventQueue::pop`] copies the root out and
//!   leaves it in place, marked stale. A following push overwrites the stale
//!   root and sifts it down, stopping as soon as it is in order; a following
//!   pop removes it first. The engine pops one event and usually pushes its
//!   successor, so most pop/push pairs cost one short sift-down instead of a
//!   sift to the bottom plus a sift-up.
//! * **One integer key.** Each entry packs `(time, seq)` into one `u128`:
//!   the high half is the time's [`f64::total_cmp`] order key, the low half
//!   the sequence number. Comparing entries is one integer comparison, and
//!   the time is decoded from the key rather than stored twice.
//!
//! Keys are unique, so the pop sequence is the same for every correct heap:
//! the two details above change the cost, never the order.

use crate::error::SimError;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Maps `time` to a `u64` whose unsigned order is [`f64::total_cmp`] order
/// (the sign-flip transform of the IEEE-754 bits); [`time_of`] inverts it.
fn order_key(time: f64) -> u64 {
    let bits = time.to_bits();
    // Negative: flip every bit; non-negative: flip the sign bit only.
    bits ^ ((((bits as i64) >> 63) as u64) | (1 << 63))
}

/// The time whose [`order_key`] is `key`.
fn time_of(key: u64) -> f64 {
    f64::from_bits(key ^ (!(((key as i64) >> 63) as u64) | (1 << 63)))
}

/// One scheduled event: a payload due at a simulated time.
#[derive(Debug, Clone)]
struct Entry<E> {
    /// `order_key(time) << 64 | seq`.
    key: u128,
    event: E,
}

impl<E> Entry<E> {
    fn new(time: f64, seq: u64, event: E) -> Self {
        Self {
            key: u128::from(order_key(time)) << 64 | u128::from(seq),
            event,
        }
    }

    fn time(&self) -> f64 {
        time_of((self.key >> 64) as u64)
    }
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}

impl<E> Eq for Entry<E> {}

// BinaryHeap is a max-heap; every comparison is inverted so the smallest key
// (earliest time, then earliest insertion) is the greatest entry and pops
// first.
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }

    fn lt(&self, other: &Self) -> bool {
        other.key < self.key
    }

    fn le(&self, other: &Self) -> bool {
        other.key <= self.key
    }

    fn gt(&self, other: &Self) -> bool {
        other.key > self.key
    }

    fn ge(&self, other: &Self) -> bool {
        other.key >= self.key
    }
}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        other.key.cmp(&self.key)
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
    /// The heap's root was already returned by [`EventQueue::pop`] and is
    /// only awaiting removal (or replacement by the next push).
    stale_root: bool,
    seq: u64,
    invalid: u64,
}

impl<E: Clone> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E: Clone> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self {
            heap: BinaryHeap::new(),
            stale_root: false,
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
        let entry = Entry::new(time_s, self.seq, event);
        self.seq += 1;
        if std::mem::take(&mut self.stale_root) {
            // Overwriting the stale root sifts the new entry down from the
            // top when the guard drops, stopping once it is in order.
            if let Some(mut root) = self.heap.peek_mut() {
                *root = entry;
                return;
            }
        }
        self.heap.push(entry);
    }

    /// Removes and returns the earliest event as `(time, event)`.
    pub fn pop(&mut self) -> Option<(f64, E)> {
        if std::mem::take(&mut self.stale_root) {
            self.heap.pop();
        }
        let root = self.heap.peek()?;
        let earliest = (root.time(), root.event.clone());
        self.stale_root = true;
        Some(earliest)
    }

    /// The time of the earliest pending event, if any.
    pub fn peek_time(&self) -> Option<f64> {
        let entries = self.heap.as_slice();
        if self.stale_root {
            // The next root is the earlier of the stale root's children.
            entries.iter().skip(1).take(2).max().map(Entry::time)
        } else {
            entries.first().map(Entry::time)
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len() - usize::from(self.stale_root)
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
    fn times_nine_orders_of_magnitude_apart_pop_in_order() {
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
    fn ten_thousand_scrambled_times_pop_sorted() {
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
    fn all_equal_times_drain_in_fifo_order() {
        // 400 events at one instant: the zero-span shape of a closed loop
        // whose clients are all seeded at t=0.
        let mut q = EventQueue::new();
        for i in 0..400 {
            q.push(5.0, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..400).collect::<Vec<_>>());
    }

    #[test]
    fn popping_to_empty_is_repeatable_and_a_later_push_works() {
        let mut q = EventQueue::new();
        q.push(1.0, 'a');
        q.push(2.0, 'b');
        assert_eq!(q.pop(), Some((1.0, 'a')));
        assert_eq!(q.pop(), Some((2.0, 'b')));
        for _ in 0..3 {
            assert_eq!(q.pop(), None);
            assert_eq!(q.len(), 0);
            assert!(q.is_empty());
            assert_eq!(q.peek_time(), None);
        }
        q.push(0.5, 'c');
        assert_eq!((q.len(), q.peek_time()), (1, Some(0.5)));
        // The last event popped leaves a stale root; a push replaces it.
        assert_eq!(q.pop(), Some((0.5, 'c')));
        assert_eq!((q.len(), q.peek_time()), (0, None));
        q.push(0.25, 'd');
        assert_eq!((q.len(), q.peek_time()), (1, Some(0.25)));
        assert_eq!(q.pop(), Some((0.25, 'd')));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn packed_keys_order_tricky_times_like_total_cmp_then_seq() {
        let smallest_subnormal = f64::from_bits(1);
        let times = [
            1e300,
            f64::from_bits(1.0f64.to_bits() + 1),
            0.0,
            f64::from_bits(2),
            1.0,
            smallest_subnormal,
            f64::MIN_POSITIVE,
            f64::from_bits(1.0f64.to_bits() - 1),
            1.0,
            0.0,
            smallest_subnormal,
            1e300,
            f64::from_bits(1e300f64.to_bits() + 1),
        ];
        // The key round-trips every bit, negative zero and negative times
        // included, and orders like `total_cmp`.
        let mut probes = times.to_vec();
        probes.extend([-0.0, -1.0, -smallest_subnormal, f64::MAX, -f64::MAX]);
        for &a in &probes {
            assert_eq!(time_of(order_key(a)).to_bits(), a.to_bits());
            for &b in &probes {
                assert_eq!(
                    order_key(a).cmp(&order_key(b)),
                    a.total_cmp(&b),
                    "{a:e} vs {b:e}"
                );
            }
        }
        // The queue pops in `(total_cmp, seq)` order: equal times FIFO.
        let mut q = EventQueue::new();
        for (seq, &t) in times.iter().enumerate() {
            q.push(t, seq);
        }
        let mut expected: Vec<(f64, usize)> = times.iter().copied().zip(0..).collect();
        expected.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        let popped: Vec<(u64, usize)> =
            std::iter::from_fn(|| q.pop().map(|(t, seq)| (t.to_bits(), seq))).collect();
        let expected: Vec<(u64, usize)> = expected
            .iter()
            .map(|&(t, seq)| (t.to_bits(), seq))
            .collect();
        assert_eq!(popped, expected);
    }
}
