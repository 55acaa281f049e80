//! The lmbench-style dependent-load ("pointer chase") kernel behind the
//! paper's Figs. 4 and 5.
//!
//! A chain of pointers is laid out over `size` bytes at a fixed `stride`;
//! each load's address depends on the previous load's value, so no two loads
//! overlap and the measured time per load is the true load-to-use latency of
//! whatever level the chain lands in.

use alphasim_cache::{Addr, CacheHierarchy};
use alphasim_kernel::SimDuration;
use serde::{Deserialize, Serialize};

/// A pointer-chase configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PointerChase {
    /// Total dataset size in bytes.
    pub size: u64,
    /// Stride between consecutive elements in bytes.
    pub stride: u64,
    /// Base address of the dataset.
    pub base: u64,
}

impl PointerChase {
    /// A chase over `size` bytes at `stride`, based at address 0.
    ///
    /// # Panics
    ///
    /// Panics if `stride` is zero or `size < stride`.
    pub fn new(size: u64, stride: u64) -> Self {
        assert!(stride > 0, "stride must be positive");
        assert!(size >= stride, "need at least one element");
        PointerChase {
            size,
            stride,
            base: 0,
        }
    }

    /// Number of elements in the chain.
    pub fn elements(&self) -> u64 {
        self.size / self.stride
    }

    /// The address of element `i` of the cyclic chain.
    pub fn address(&self, i: u64) -> Addr {
        Addr::new(self.base + (i % self.elements()) * self.stride)
    }

    /// Walk the chain through a cache hierarchy for `loads` dependent
    /// loads (after one warm-up pass over the chain) and return the mean
    /// load-to-use latency. `memory_latency` supplies the cost of a full
    /// miss for each address (e.g. open- vs. closed-page from a Zbox
    /// model).
    pub fn run(
        &self,
        hierarchy: &mut CacheHierarchy,
        mut memory_latency: impl FnMut(Addr) -> SimDuration,
        loads: u64,
    ) -> SimDuration {
        assert!(loads > 0, "need at least one measured load");
        let elements = self.elements();
        // Step through `address(0), address(1), ...` without its per-call
        // division: add the stride, wrap after the last element.
        let last = self.address(elements - 1).get();
        let mut next = self.base;
        let mut step = || {
            let a = next;
            next = if a == last {
                self.base
            } else {
                a + self.stride
            };
            Addr::new(a)
        };
        // Warm-up pass: populate caches exactly as a real run would. It
        // ends on the last element, so the measured loads start at element 0.
        for _ in 0..elements {
            let a = step();
            let ml = memory_latency(a);
            hierarchy.load(a, ml);
        }
        let mut total = SimDuration::ZERO;
        for _ in 0..loads {
            let a = step();
            let ml = memory_latency(a);
            total += hierarchy.load(a, ml).latency;
        }
        total / loads
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alphasim_cache::HierarchyConfig;

    fn mem(_a: Addr) -> SimDuration {
        SimDuration::from_ns(83.0)
    }

    #[test]
    fn element_addressing_wraps() {
        let pc = PointerChase::new(1024, 64);
        assert_eq!(pc.elements(), 16);
        assert_eq!(pc.address(0), Addr::new(0));
        assert_eq!(pc.address(16), Addr::new(0));
        assert_eq!(pc.address(17), Addr::new(64));
    }

    /// The addresses `run` hands its callback, in order.
    fn run_stream(pc: &PointerChase, loads: u64) -> Vec<Addr> {
        let mut h = CacheHierarchy::new(HierarchyConfig::ev7());
        let mut seen = Vec::new();
        pc.run(
            &mut h,
            |a| {
                seen.push(a);
                mem(a)
            },
            loads,
        );
        seen
    }

    /// The warm-up pass over every element, then `loads` measured loads.
    fn address_stream(pc: &PointerChase, loads: u64) -> Vec<Addr> {
        (0..pc.elements())
            .chain(0..loads)
            .map(|i| pc.address(i))
            .collect()
    }

    #[test]
    fn run_walks_the_address_stream_past_the_chain_end() {
        let pc = PointerChase::new(1024, 48); // 21 elements, 16 B unused
        for loads in [1, 20, 21, 22, 100] {
            assert_eq!(run_stream(&pc, loads), address_stream(&pc, loads));
        }
    }

    #[test]
    fn run_walks_the_address_stream_from_a_nonzero_base() {
        for (size, stride) in [(4096, 64), (1000, 8), (64, 64)] {
            let pc = PointerChase {
                base: 0x1234_5678,
                ..PointerChase::new(size, stride)
            };
            let loads = 3 * pc.elements() + 5;
            let stream = run_stream(&pc, loads);
            assert_eq!(stream[0], Addr::new(0x1234_5678));
            assert_eq!(stream, address_stream(&pc, loads));
        }
    }

    #[test]
    fn small_set_measures_l1() {
        let mut h = CacheHierarchy::new(HierarchyConfig::ev7());
        let pc = PointerChase::new(16 * 1024, 64);
        let lat = pc.run(&mut h, mem, 1000);
        assert_eq!(lat, h.config().l1_latency);
    }

    #[test]
    fn mid_set_measures_l2() {
        let mut h = CacheHierarchy::new(HierarchyConfig::ev7());
        let pc = PointerChase::new(512 * 1024, 64);
        let lat = pc.run(&mut h, mem, 2000);
        assert_eq!(lat, h.config().l2_latency);
    }

    #[test]
    fn large_set_measures_memory() {
        let mut h = CacheHierarchy::new(HierarchyConfig::ev7());
        let pc = PointerChase::new(8 * 1024 * 1024, 64);
        let lat = pc.run(&mut h, mem, 2000);
        // LRU over a sequential sweep larger than L2: every load misses.
        assert_eq!(lat.as_ns(), 83.0);
    }

    #[test]
    fn ev68_crossover_band() {
        // The paper's Fig. 4 crossover: at 8 MB the EV68's 16 MB B-cache
        // still hits (24 ns) while the EV7 goes to memory (83 ns).
        let mut ev7 = CacheHierarchy::new(HierarchyConfig::ev7());
        let mut ev68 = CacheHierarchy::new(HierarchyConfig::ev68());
        let pc = PointerChase::new(8 * 1024 * 1024, 64);
        let l7 = pc.run(&mut ev7, mem, 2000);
        let l68 = pc.run(&mut ev68, |_| SimDuration::from_ns(185.0), 2000);
        assert!(l68 < l7, "EV68 {l68} should beat EV7 {l7} at 8 MB");
    }

    #[test]
    fn sub_line_stride_amortizes() {
        // Stride 8: eight loads per 64 B line, 7 of them L1 hits even for
        // huge datasets.
        let mut h = CacheHierarchy::new(HierarchyConfig::ev7());
        let pc = PointerChase::new(8 * 1024 * 1024, 8);
        let lat = pc.run(&mut h, mem, 8000);
        let full_miss = SimDuration::from_ns(83.0);
        assert!(lat < full_miss / 4, "amortized latency {lat}");
    }
}
