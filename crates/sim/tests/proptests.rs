//! Property tests for the simulation kernel.

// Test/harness code may unwrap freely; the workspace denies it in libraries.
#![allow(clippy::unwrap_used)]

use alphasim_kernel::{DetRng, EventQueue, SimDuration, SimTime};
use proptest::prelude::*;

proptest! {
    /// Events always pop in nondecreasing time order, whatever the
    /// insertion order.
    #[test]
    fn event_queue_is_time_ordered(times in prop::collection::vec(0u64..1_000_000, 1..200)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(SimTime::from_ps(t), i);
        }
        let mut last = SimTime::ZERO;
        let mut popped = 0;
        while let Some((t, _)) = q.pop() {
            prop_assert!(t >= last);
            last = t;
            popped += 1;
        }
        prop_assert_eq!(popped, times.len());
    }

    /// Simultaneous events preserve insertion order (stable FIFO).
    #[test]
    fn simultaneous_events_fifo(groups in prop::collection::vec((0u64..100, 1usize..5), 1..40)) {
        let mut q = EventQueue::new();
        let mut seq = 0usize;
        for &(t, n) in &groups {
            for _ in 0..n {
                q.schedule(SimTime::from_ps(t), seq);
                seq += 1;
            }
        }
        // Among equal timestamps, payload sequence must be increasing.
        let mut seen: Vec<(u64, usize)> = Vec::new();
        while let Some((t, s)) = q.pop() {
            seen.push((t.as_ps(), s));
        }
        for w in seen.windows(2) {
            if w[0].0 == w[1].0 {
                prop_assert!(w[0].1 < w[1].1);
            }
        }
    }

    /// Durations compose linearly with transfer sizes.
    #[test]
    fn transfer_time_is_linear(bytes in 1u64..1_000_000, gbps in 0.1f64..100.0) {
        let one = SimDuration::transfer_time(bytes, gbps);
        let two = SimDuration::transfer_time(2 * bytes, gbps);
        let ratio = two.as_ps() as f64 / one.as_ps().max(1) as f64;
        prop_assert!((ratio - 2.0).abs() < 0.01, "ratio {}", ratio);
    }

    /// index_excluding covers exactly the non-excluded range.
    #[test]
    fn rng_exclusion_is_sound(seed in 0u64..10_000, n in 2usize..64, ex in 0usize..64) {
        let ex = ex % n;
        let mut rng = DetRng::seeded(seed);
        for _ in 0..64 {
            let v = rng.index_excluding(n, ex);
            prop_assert!(v < n && v != ex);
        }
    }
}
