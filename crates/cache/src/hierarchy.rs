//! A two-level cache hierarchy that assigns a latency to every load.
//!
//! This is the engine behind the dependent-load figures (Figs. 4–5): a load
//! probes L1, then L2, and on an L2 miss is charged the caller-supplied
//! memory latency. The caller (the machine model in `alphasim-system`)
//! decides what "memory" costs — local open/closed page, or a remote
//! coherence transaction.

use alphasim_kernel::SimDuration;
use serde::{Deserialize, Serialize};

use crate::geometry::{Addr, CacheGeometry};
use crate::set_assoc::SetAssocCache;

/// Which level of the hierarchy served a load.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum HitLevel {
    /// Served by the L1 data cache.
    L1,
    /// Served by the L2 (on-chip 1.75 MB on EV7; off-chip 16 MB B-cache on
    /// EV68 machines).
    L2,
    /// Missed all caches; served by the memory system.
    Memory,
}

/// The result of one load: where it hit and what it cost.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LoadOutcome {
    /// The level that served the load.
    pub level: HitLevel,
    /// Load-to-use latency, including the caller-supplied memory latency
    /// for [`HitLevel::Memory`].
    pub latency: SimDuration,
}

/// Geometry and load-to-use latency of both cache levels.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HierarchyConfig {
    /// L1 data-cache geometry.
    pub l1: CacheGeometry,
    /// L1 load-to-use latency.
    pub l1_latency: SimDuration,
    /// L2 geometry.
    pub l2: CacheGeometry,
    /// L2 load-to-use latency.
    pub l2_latency: SimDuration,
}

impl HierarchyConfig {
    /// The EV7 (GS1280) hierarchy: 64 KB 2-way L1 at 3 cycles of 1.15 GHz;
    /// 1.75 MB 7-way on-chip L2 at 12 cycles = 10.4 ns (paper §2).
    pub fn ev7() -> Self {
        HierarchyConfig {
            l1: CacheGeometry::alpha_l1d(),
            l1_latency: SimDuration::from_ns(2.6), // 3 cycles @ 1.15 GHz
            l2: CacheGeometry::ev7_l2(),
            l2_latency: SimDuration::from_ns(10.4),
        }
    }

    /// The EV68 (ES45/GS320) hierarchy: same core L1; 16 MB direct-mapped
    /// *off-chip* B-cache at roughly 24 ns load-to-use (fitted to the
    /// 1.75 MB–16 MB plateau of the paper's Fig. 4).
    pub fn ev68() -> Self {
        HierarchyConfig {
            l1: CacheGeometry::alpha_l1d(),
            l1_latency: SimDuration::from_ns(2.4), // 3 cycles @ 1.25 GHz
            l2: CacheGeometry::ev68_bcache(),
            l2_latency: SimDuration::from_ns(24.0),
        }
    }
}

/// A two-level, inclusive-fill cache hierarchy.
///
/// # Examples
///
/// ```
/// use alphasim_cache::{Addr, CacheHierarchy, HierarchyConfig, HitLevel};
/// use alphasim_kernel::SimDuration;
///
/// let mut h = CacheHierarchy::new(HierarchyConfig::ev7());
/// let mem = SimDuration::from_ns(83.0); // local open-page RDRAM
/// let first = h.load(Addr::new(0x40), mem);
/// assert_eq!(first.level, HitLevel::Memory);
/// let second = h.load(Addr::new(0x40), mem);
/// assert_eq!(second.level, HitLevel::L1);
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CacheHierarchy {
    config: HierarchyConfig,
    l1: SetAssocCache,
    l2: SetAssocCache,
    memory_loads: u64,
    /// The L1 line of the most recent L1 access, which that access left
    /// MRU in its set; `None` after an invalidation or flush.
    l1_mru_line: Option<u64>,
}

impl CacheHierarchy {
    /// An empty hierarchy.
    pub fn new(config: HierarchyConfig) -> Self {
        CacheHierarchy {
            config,
            l1: SetAssocCache::new(config.l1),
            l2: SetAssocCache::new(config.l2),
            memory_loads: 0,
            l1_mru_line: None,
        }
    }

    /// The configuration this hierarchy was built with.
    pub fn config(&self) -> &HierarchyConfig {
        &self.config
    }

    /// Perform a load; a miss in both levels costs `memory_latency` and
    /// fills both levels.
    pub fn load(&mut self, addr: Addr, memory_latency: SimDuration) -> LoadOutcome {
        let line = self.l1.line_of(addr);
        if self.l1_mru_line == Some(line) {
            // Re-referencing the MRU line of a true-LRU set is a hit that
            // changes no state.
            self.l1.rehit_mru();
            return LoadOutcome {
                level: HitLevel::L1,
                latency: self.config.l1_latency,
            };
        }
        self.l1_mru_line = Some(line);
        if self.l1.access(addr).hit {
            return LoadOutcome {
                level: HitLevel::L1,
                latency: self.config.l1_latency,
            };
        }
        if self.l2.access(addr).hit {
            return LoadOutcome {
                level: HitLevel::L2,
                latency: self.config.l2_latency,
            };
        }
        self.memory_loads += 1;
        LoadOutcome {
            level: HitLevel::Memory,
            latency: memory_latency,
        }
    }

    /// Perform a store (write-allocate, write-back): like [`load`] but the
    /// line is left dirty in both levels, and a dirty L2 victim counts as a
    /// write-back.
    ///
    /// [`load`]: Self::load
    pub fn store(&mut self, addr: Addr, memory_latency: SimDuration) -> LoadOutcome {
        // No fast path here: a store must set the line's dirty bit.
        self.l1_mru_line = Some(self.l1.line_of(addr));
        if self.l1.access_write(addr).hit {
            return LoadOutcome {
                level: HitLevel::L1,
                latency: self.config.l1_latency,
            };
        }
        if self.l2.access_write(addr).hit {
            return LoadOutcome {
                level: HitLevel::L2,
                latency: self.config.l2_latency,
            };
        }
        self.memory_loads += 1;
        LoadOutcome {
            level: HitLevel::Memory,
            latency: memory_latency,
        }
    }

    /// Dirty L2 victims written back to memory so far.
    pub fn writebacks(&self) -> u64 {
        self.l2.writebacks()
    }

    /// Whether `addr` would hit somewhere without changing any state.
    pub fn probe(&self, addr: Addr) -> Option<HitLevel> {
        if self.l1.probe(addr) {
            Some(HitLevel::L1)
        } else if self.l2.probe(addr) {
            Some(HitLevel::L2)
        } else {
            None
        }
    }

    /// Invalidate a line everywhere (used by coherence invalidations).
    pub fn invalidate(&mut self, addr: Addr) {
        self.l1_mru_line = None;
        self.l1.invalidate(addr);
        self.l2.invalidate(addr);
    }

    /// Empty both levels and reset statistics.
    pub fn flush(&mut self) {
        self.l1.flush();
        self.l2.flush();
        self.memory_loads = 0;
        self.l1_mru_line = None;
    }

    /// Loads that reached memory since construction/flush.
    pub fn memory_loads(&self) -> u64 {
        self.memory_loads
    }

    /// The L2 miss ratio observed so far.
    pub fn l2_miss_ratio(&self) -> f64 {
        self.l2.miss_ratio()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mem() -> SimDuration {
        SimDuration::from_ns(83.0)
    }

    #[test]
    fn load_walks_down_the_hierarchy() {
        let mut h = CacheHierarchy::new(HierarchyConfig::ev7());
        let a = Addr::new(0x1000);
        let first = h.load(a, mem());
        assert_eq!(first.level, HitLevel::Memory);
        assert_eq!(first.latency, mem());
        assert_eq!(h.load(a, mem()).level, HitLevel::L1);
        assert_eq!(h.memory_loads(), 1);
    }

    #[test]
    fn l2_hit_after_l1_eviction() {
        let mut h = CacheHierarchy::new(HierarchyConfig::ev7());
        let a = Addr::new(0);
        h.load(a, mem());
        // Evict `a` from L1 by filling its set (2-way, 512 sets, 64B lines):
        // lines 512 and 1024 map to set 0 like line 0.
        let l1_sets = h.config().l1.sets();
        h.load(Addr::new(l1_sets * 64), mem());
        h.load(Addr::new(2 * l1_sets * 64), mem());
        let back = h.load(a, mem());
        assert_eq!(back.level, HitLevel::L2);
        assert_eq!(back.latency, h.config().l2_latency);
    }

    #[test]
    fn working_set_sizes_select_levels() {
        // A 32 KB working set lives in L1; 512 KB in L2; 4 MB in memory
        // (EV7 geometry). Stream each twice, check the second sweep.
        for (bytes, expected) in [
            (32 * 1024u64, HitLevel::L1),
            (512 * 1024, HitLevel::L2),
            (4 * 1024 * 1024, HitLevel::Memory),
        ] {
            let mut h = CacheHierarchy::new(HierarchyConfig::ev7());
            let lines = bytes / 64;
            for _ in 0..2 {
                for i in 0..lines {
                    h.load(Addr::new(i * 64), mem());
                }
            }
            // Sample the second sweep's outcome via a fresh pass probe.
            let outcome = h.load(Addr::new(0), mem());
            assert_eq!(outcome.level, expected, "{bytes} B working set");
        }
    }

    #[test]
    fn ev68_has_bigger_but_slower_l2() {
        let ev7 = HierarchyConfig::ev7();
        let ev68 = HierarchyConfig::ev68();
        assert!(ev68.l2.size_bytes() > ev7.l2.size_bytes());
        assert!(ev68.l2_latency > ev7.l2_latency);
        // The paper's crossover: an 8 MB working set fits the EV68 B-cache
        // but not the EV7 L2.
        assert!(8 * 1024 * 1024 < ev68.l2.size_bytes());
        assert!(8 * 1024 * 1024 > ev7.l2.size_bytes());
    }

    #[test]
    fn invalidate_forces_memory_reload() {
        let mut h = CacheHierarchy::new(HierarchyConfig::ev7());
        let a = Addr::new(0x2000);
        h.load(a, mem());
        assert_eq!(h.probe(a), Some(HitLevel::L1));
        h.invalidate(a);
        assert_eq!(h.probe(a), None);
        assert_eq!(h.load(a, mem()).level, HitLevel::Memory);
    }

    #[test]
    fn invalidating_the_mru_line_makes_the_next_load_miss_l1() {
        let mut h = CacheHierarchy::new(HierarchyConfig::ev7());
        let a = Addr::new(0x2000);
        h.load(a, mem());
        assert_eq!(h.load(a.offset(8), mem()).level, HitLevel::L1);
        h.invalidate(a);
        assert_eq!(h.load(a.offset(16), mem()).level, HitLevel::Memory);
        // Invalidating some other line leaves the MRU line resident.
        h.invalidate(Addr::new(0x4000));
        assert_eq!(h.load(a, mem()).level, HitLevel::L1);
    }

    #[test]
    fn flushing_drops_the_mru_line() {
        let mut h = CacheHierarchy::new(HierarchyConfig::ev7());
        let a = Addr::new(0x40);
        h.load(a, mem());
        h.load(a, mem());
        h.flush();
        assert_eq!(h.load(a, mem()).level, HitLevel::Memory);
        assert_eq!(h.memory_loads(), 1);
    }

    #[test]
    fn flush_resets() {
        let mut h = CacheHierarchy::new(HierarchyConfig::ev7());
        h.load(Addr::new(0), mem());
        h.flush();
        assert_eq!(h.memory_loads(), 0);
        assert_eq!(h.probe(Addr::new(0)), None);
    }
}

#[cfg(test)]
mod store_tests {
    use super::*;

    #[test]
    fn store_sweep_beyond_l2_generates_writebacks() {
        let mut h = CacheHierarchy::new(HierarchyConfig::ev7());
        let mem = SimDuration::from_ns(83.0);
        let l2_lines = HierarchyConfig::ev7().l2.size_bytes() / 64;
        for i in 0..2 * l2_lines {
            h.store(Addr::new(i * 64), mem);
        }
        assert!(h.writebacks() > l2_lines / 2, "{}", h.writebacks());
    }

    #[test]
    fn load_sweep_generates_no_writebacks() {
        let mut h = CacheHierarchy::new(HierarchyConfig::ev7());
        let mem = SimDuration::from_ns(83.0);
        for i in 0..100_000u64 {
            h.load(Addr::new(i * 64), mem);
        }
        assert_eq!(h.writebacks(), 0);
    }

    #[test]
    fn store_after_load_of_the_same_line_leaves_it_dirty() {
        let mut h = CacheHierarchy::new(HierarchyConfig::ev7());
        let mem = SimDuration::from_ns(83.0);
        let a = Addr::new(0x100);
        h.load(a, mem);
        h.load(a, mem); // the MRU re-hit
        assert_eq!(h.store(a.offset(8), mem).level, HitLevel::L1);
        assert!(h.l1.probe_dirty(a));
        // A later load of the line keeps it dirty.
        h.load(a, mem);
        assert!(h.l1.probe_dirty(a));
    }

    #[test]
    fn stored_line_counts_one_writeback_when_l2_evicts_it() {
        // One 64 B L1 line over a 2-way, single-set L2: a store to a line
        // that has left L1 dirties its L2 copy.
        let line = 64;
        let mut h = CacheHierarchy::new(HierarchyConfig {
            l1: CacheGeometry::new(line, line, 1),
            l2: CacheGeometry::new(2 * line, line, 2),
            ..HierarchyConfig::ev7()
        });
        let mem = SimDuration::from_ns(83.0);
        let [a, b, c, d] = [0, 1, 2, 3].map(|i| Addr::new(i * line));
        h.load(a, mem);
        h.load(b, mem);
        assert_eq!(h.store(a, mem).level, HitLevel::L2);
        h.load(a, mem); // the MRU re-hit
        h.load(c, mem); // L2 evicts clean `b`
        assert_eq!(h.writebacks(), 0);
        h.load(d, mem); // L2 evicts dirty `a`
        assert_eq!(h.writebacks(), 1);
    }

    #[test]
    fn store_hits_are_l1_fast() {
        let mut h = CacheHierarchy::new(HierarchyConfig::ev7());
        let mem = SimDuration::from_ns(83.0);
        let a = Addr::new(0x100);
        h.store(a, mem);
        let again = h.store(a, mem);
        assert_eq!(again.level, HitLevel::L1);
    }
}
