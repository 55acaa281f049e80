//! A deterministic future-event list.

use alphasim_telemetry::global::EVENT_QUEUE_PEAK;

use crate::time::SimTime;

/// The deepest any event queue in this process has been since the last
/// [`take_peak_event_depth`] call (live queues contribute when dropped or
/// cleared). Backed by the telemetry registry's process-wide gauge
/// [`alphasim_telemetry::global::EVENT_QUEUE_PEAK`]; read by the
/// reproduction driver for `BENCH_sweep.json`.
pub fn peak_event_depth() -> u64 {
    EVENT_QUEUE_PEAK.get()
}

/// Read and reset the process-wide peak event-queue depth.
pub fn take_peak_event_depth() -> u64 {
    EVENT_QUEUE_PEAK.take()
}

/// The heap's order: the event's time and a tiebreak (the insertion
/// sequence here, a caller-assigned id in the epoch engine) packed into
/// one `u128` (`time << 64 | tiebreak`). The packing makes ordering a
/// single integer comparison — branchless and mispredict-free, which
/// matters because a 4-ary heap trades extra comparisons for fewer levels.
#[inline]
pub(crate) fn pack(at: SimTime, tiebreak: u64) -> u128 {
    (u128::from(at.as_ps()) << 64) | u128::from(tiebreak)
}

#[inline]
pub(crate) fn unpack_time(key: u128) -> SimTime {
    SimTime::from_ps((key >> 64) as u64)
}

/// Push onto a 4-ary implicit min-heap (children of `i` at `4i+1..=4i+4`).
/// Sift up by swapping; new events rarely climb more than a level or two,
/// and the key comparison is a single branch on a `u128`.
pub(crate) fn heap_push<E>(heap: &mut Vec<(u128, E)>, key: u128, payload: E) {
    heap.push((key, payload));
    let mut i = heap.len() - 1;
    while i > 0 {
        let parent = (i - 1) / 4;
        if key < heap[parent].0 {
            heap.swap(i, parent);
            i = parent;
        } else {
            break;
        }
    }
}

/// Pop the minimum off a 4-ary implicit min-heap: move the last entry into
/// the root in one step, then sift it down. The min-child scan compares
/// single `u128` keys (conditional moves, no mispredicts); the sifted entry
/// came from the bottom, so the per-level early-exit test is predictably
/// "keep going".
pub(crate) fn heap_pop<E>(heap: &mut Vec<(u128, E)>) -> Option<(u128, E)> {
    if heap.is_empty() {
        return None;
    }
    let entry = heap.swap_remove(0);
    let len = heap.len();
    if len > 1 {
        let sifted = heap[0].0;
        let mut i = 0;
        loop {
            let first = 4 * i + 1;
            if first >= len {
                break;
            }
            let end = (first + 4).min(len);
            let mut best = first;
            let mut bk = heap[first].0;
            for (off, entry) in heap[first + 1..end].iter().enumerate() {
                if entry.0 < bk {
                    best = first + 1 + off;
                    bk = entry.0;
                }
            }
            if bk < sifted {
                heap.swap(i, best);
                i = best;
            } else {
                break;
            }
        }
    }
    Some(entry)
}

/// A future-event list: a priority queue of `(SimTime, E)` pairs that pops
/// events in nondecreasing time order, FIFO among ties.
///
/// Internally this is a 4-ary implicit min-heap of `(packed key, payload)`
/// entries, where the packed key is `time << 64 | seq` and `seq` is the
/// insertion sequence number. Because that key is a total order, the pop
/// sequence is uniquely determined — independent of heap arity or sift
/// implementation — which is what makes whole-system simulations
/// reproducible. The 4-ary fan-out halves the tree depth versus a binary
/// heap (half the sift levels on the pop path), and the single-integer key
/// keeps the extra sibling comparisons branchless: a good fit for the
/// short-deadline churn of link/arrival events.
///
/// # Examples
///
/// ```
/// use alphasim_kernel::{EventQueue, SimTime};
///
/// let mut q = EventQueue::new();
/// q.schedule(SimTime::from_ps(10), 'b');
/// q.schedule(SimTime::from_ps(10), 'c');
/// q.schedule(SimTime::from_ps(5), 'a');
/// let order: Vec<char> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
/// assert_eq!(order, ['a', 'b', 'c']);
/// ```
#[derive(Default)]
pub struct EventQueue<E> {
    /// Implicit 4-ary min-heap of `(packed key, payload)`; children of node
    /// `i` live at `4i + 1 ..= 4i + 4`.
    heap: Vec<(u128, E)>,
    next_seq: u64,
    now: SimTime,
    peak_len: usize,
}

impl<E> EventQueue<E> {
    /// An empty queue positioned at [`SimTime::ZERO`].
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// An empty queue with room for `cap` pending events before reallocating.
    pub fn with_capacity(cap: usize) -> Self {
        EventQueue {
            heap: Vec::with_capacity(cap),
            next_seq: 0,
            now: SimTime::ZERO,
            peak_len: 0,
        }
    }

    /// Reserve room for at least `additional` more pending events.
    pub fn reserve(&mut self, additional: usize) {
        self.heap.reserve(additional);
    }

    /// Drop all pending events and rewind the clock to [`SimTime::ZERO`],
    /// keeping the allocation so the queue can be reused without
    /// reallocating.
    pub fn clear(&mut self) {
        self.flush_peak();
        self.heap.clear();
        self.next_seq = 0;
        self.now = SimTime::ZERO;
    }

    /// Schedule `payload` to fire at absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is earlier than the current simulation time (events may
    /// not be scheduled in the past).
    pub fn schedule(&mut self, at: SimTime, payload: E) {
        assert!(
            at >= self.now,
            "event scheduled in the past: at={at} now={now}",
            at = at,
            now = self.now
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        heap_push(&mut self.heap, pack(at, seq), payload);
        if self.heap.len() > self.peak_len {
            self.peak_len = self.heap.len();
        }
    }

    /// Remove and return the earliest event, advancing the simulation clock
    /// to its timestamp. Returns `None` when the queue is empty.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let (key, payload) = heap_pop(&mut self.heap)?;
        let time = unpack_time(key);
        debug_assert!(time >= self.now);
        self.now = time;
        Some((time, payload))
    }

    /// Timestamp of the earliest pending event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.first().map(|e| unpack_time(e.0))
    }

    /// The current simulation time (the timestamp of the last popped event).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// The most events this queue has held at once since construction (or
    /// the last [`clear`](Self::clear)).
    pub fn peak_len(&self) -> usize {
        self.peak_len
    }

    /// Publish this queue's high-water mark to the process-wide telemetry
    /// gauge and reset the local counter.
    fn flush_peak(&mut self) {
        if self.peak_len > 0 {
            EVENT_QUEUE_PEAK.record_max(self.peak_len as u64);
            self.peak_len = 0;
        }
    }
}

impl<E> Drop for EventQueue<E> {
    fn drop(&mut self) {
        self.flush_peak();
    }
}

impl<E> std::fmt::Debug for EventQueue<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventQueue")
            .field("pending", &self.heap.len())
            .field("now", &self.now)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        for &t in &[30u64, 10, 20, 40, 15] {
            q.schedule(SimTime::from_ps(t), t);
        }
        let mut out = Vec::new();
        while let Some((t, e)) = q.pop() {
            assert_eq!(t.as_ps(), e);
            out.push(e);
        }
        assert_eq!(out, [10, 15, 20, 30, 40]);
    }

    #[test]
    fn simultaneous_events_are_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_ps(100);
        for i in 0..50 {
            q.schedule(t, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_with_pops() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_ps(7), ());
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop();
        assert_eq!(q.now(), SimTime::from_ps(7));
    }

    #[test]
    #[should_panic(expected = "scheduled in the past")]
    fn rejects_past_events() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_ps(10), ());
        q.pop();
        q.schedule(SimTime::from_ps(5), ());
    }

    #[test]
    fn interleaved_schedule_and_pop() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_ps(10), "a");
        let (t, _) = q.pop().unwrap();
        // Schedule relative to the popped time, as handlers do.
        q.schedule(t + SimDuration::from_ps(5), "b");
        q.schedule(t + SimDuration::from_ps(3), "c");
        assert_eq!(q.pop().unwrap().1, "c");
        assert_eq!(q.pop().unwrap().1, "b");
        assert!(q.is_empty());
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn peek_time_sees_earliest() {
        let mut q = EventQueue::new();
        assert_eq!(q.peek_time(), None);
        q.schedule(SimTime::from_ps(9), ());
        q.schedule(SimTime::from_ps(4), ());
        assert_eq!(q.peek_time(), Some(SimTime::from_ps(4)));
    }

    #[test]
    fn matches_reference_order_on_pseudorandom_churn() {
        // Interleave schedules and pops and check every pop against a sorted
        // reference model keyed by (time, seq) — the order any correct heap
        // must produce.
        let mut q = EventQueue::new();
        let mut model: Vec<(u64, u64)> = Vec::new();
        let mut seq = 0u64;
        let mut state = 0x1234_5678_9abc_def0u64;
        let mut rng = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut now = 0u64;
        for _ in 0..2_000 {
            if rng() % 3 != 0 || model.is_empty() {
                let at = now + rng() % 97;
                q.schedule(SimTime::from_ps(at), seq);
                model.push((at, seq));
                seq += 1;
            } else {
                let (t, e) = q.pop().unwrap();
                let min = *model.iter().min().unwrap();
                model.retain(|&x| x != min);
                assert_eq!((t.as_ps(), e), min);
                now = t.as_ps();
            }
        }
        while let Some((t, e)) = q.pop() {
            let min = *model.iter().min().unwrap();
            model.retain(|&x| x != min);
            assert_eq!((t.as_ps(), e), min);
        }
        assert!(model.is_empty());
    }

    #[test]
    fn clear_rewinds_and_keeps_capacity() {
        let mut q = EventQueue::with_capacity(64);
        let cap_before = 64;
        for i in 0..40u64 {
            q.schedule(SimTime::from_ps(i), i);
        }
        q.pop();
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.now(), SimTime::ZERO);
        assert_eq!(q.peak_len(), 0);
        // Past-of-old-clock times are schedulable again after clear.
        q.schedule(SimTime::from_ps(1), 99);
        assert_eq!(q.pop().unwrap().1, 99);
        assert!(cap_before >= 40, "capacity survived the churn");
    }

    #[test]
    fn peak_len_tracks_high_water_mark() {
        let mut q = EventQueue::new();
        for i in 0..10u64 {
            q.schedule(SimTime::from_ps(i), ());
        }
        for _ in 0..6 {
            q.pop();
        }
        q.schedule(SimTime::from_ps(50), ());
        assert_eq!(q.peak_len(), 10);
        drop(q);
        assert!(peak_event_depth() >= 10);
        let taken = take_peak_event_depth();
        assert!(taken >= 10);
    }
}
