//! Exactness proof for the flat slot-array `SetAssocCache` and the
//! hierarchy's L1 MRU re-hit fast path: both must behave exactly like the
//! reference models below on random geometries and mixed access streams.
//!
//! `reference::SetAssocCache` is the original `Vec<Vec<(u64, bool)>>`
//! cache (per set, `(tag, dirty)` pairs in LRU order, most recently used
//! last), kept unchanged as a test-only oracle. `reference::Hierarchy` is
//! the original two-level walk over it, without any fast path.

// Test/harness code may unwrap freely; the workspace denies it in libraries.
#![allow(clippy::unwrap_used)]

use alphasim_cache::{
    AccessResult, Addr, CacheGeometry, CacheHierarchy, HierarchyConfig, LoadOutcome, SetAssocCache,
};
use alphasim_kernel::SimDuration;
use proptest::prelude::*;

mod reference {
    use alphasim_cache::{
        AccessResult, Addr, CacheGeometry, HierarchyConfig, HitLevel, LoadOutcome,
    };
    use alphasim_kernel::SimDuration;
    use serde::{Deserialize, Serialize};

    /// The original set-associative cache.
    #[derive(Debug, Clone, Serialize, Deserialize)]
    pub struct SetAssocCache {
        geometry: CacheGeometry,
        /// Per set: `(tag, dirty)` in LRU order, most recently used last.
        sets: Vec<Vec<(u64, bool)>>,
        hits: u64,
        misses: u64,
        writebacks: u64,
    }

    impl SetAssocCache {
        /// An empty cache of the given geometry.
        pub fn new(geometry: CacheGeometry) -> Self {
            SetAssocCache {
                geometry,
                sets: vec![Vec::new(); geometry.sets() as usize],
                hits: 0,
                misses: 0,
                writebacks: 0,
            }
        }

        /// The cache's geometry.
        pub fn geometry(&self) -> CacheGeometry {
            self.geometry
        }

        /// Access `addr` with a load, allocating its line (clean) on a miss.
        pub fn access(&mut self, addr: Addr) -> AccessResult {
            self.reference(addr, false)
        }

        /// Access `addr` with a store, allocating (write-allocate) and marking
        /// the line dirty.
        pub fn access_write(&mut self, addr: Addr) -> AccessResult {
            self.reference(addr, true)
        }

        fn reference(&mut self, addr: Addr, write: bool) -> AccessResult {
            let set_idx = self.geometry.set_of(addr) as usize;
            let tag = self.geometry.tag_of(addr);
            let ways = self.geometry.ways() as usize;
            let set = &mut self.sets[set_idx];
            if let Some(pos) = set.iter().position(|&(t, _)| t == tag) {
                let (t, dirty) = set.remove(pos);
                set.push((t, dirty || write));
                self.hits += 1;
                return AccessResult {
                    hit: true,
                    evicted_line: None,
                    evicted_dirty: false,
                };
            }
            self.misses += 1;
            let (evicted, evicted_dirty) = if set.len() == ways {
                let (victim_tag, dirty) = set.remove(0);
                if dirty {
                    self.writebacks += 1;
                }
                (
                    Some(victim_tag * self.geometry.sets() + set_idx as u64),
                    dirty,
                )
            } else {
                (None, false)
            };
            set.push((tag, write));
            AccessResult {
                hit: false,
                evicted_line: evicted,
                evicted_dirty,
            }
        }

        /// Whether `addr`'s line is currently resident (no LRU update, no fill).
        pub fn probe(&self, addr: Addr) -> bool {
            let set = &self.sets[self.geometry.set_of(addr) as usize];
            let tag = self.geometry.tag_of(addr);
            set.iter().any(|&(t, _)| t == tag)
        }

        /// Whether `addr`'s line is resident *and dirty*.
        pub fn probe_dirty(&self, addr: Addr) -> bool {
            let set = &self.sets[self.geometry.set_of(addr) as usize];
            let tag = self.geometry.tag_of(addr);
            set.iter().any(|&(t, d)| t == tag && d)
        }

        /// Invalidate `addr`'s line if resident; reports whether it was.
        pub fn invalidate(&mut self, addr: Addr) -> bool {
            let set_idx = self.geometry.set_of(addr) as usize;
            let tag = self.geometry.tag_of(addr);
            let set = &mut self.sets[set_idx];
            if let Some(pos) = set.iter().position(|&(t, _)| t == tag) {
                set.remove(pos);
                true
            } else {
                false
            }
        }

        /// Drop every line and reset statistics.
        pub fn flush(&mut self) {
            for set in &mut self.sets {
                set.clear();
            }
            self.hits = 0;
            self.misses = 0;
            self.writebacks = 0;
        }

        /// Number of resident lines.
        pub fn resident_lines(&self) -> usize {
            self.sets.iter().map(Vec::len).sum()
        }

        /// Hits since construction or [`flush`](Self::flush).
        pub fn hits(&self) -> u64 {
            self.hits
        }

        /// Misses since construction or [`flush`](Self::flush).
        pub fn misses(&self) -> u64 {
            self.misses
        }

        /// Dirty lines written back on eviction so far.
        pub fn writebacks(&self) -> u64 {
            self.writebacks
        }

        /// Miss ratio (0 when no accesses yet).
        pub fn miss_ratio(&self) -> f64 {
            let total = self.hits + self.misses;
            if total == 0 {
                0.0
            } else {
                self.misses as f64 / total as f64
            }
        }
    }

    /// The original two-level walk: every load and store goes through both
    /// reference caches in turn.
    pub struct Hierarchy {
        config: HierarchyConfig,
        l1: SetAssocCache,
        l2: SetAssocCache,
        memory_loads: u64,
    }

    impl Hierarchy {
        pub fn new(config: HierarchyConfig) -> Self {
            Hierarchy {
                config,
                l1: SetAssocCache::new(config.l1),
                l2: SetAssocCache::new(config.l2),
                memory_loads: 0,
            }
        }

        pub fn load(&mut self, addr: Addr, memory_latency: SimDuration) -> LoadOutcome {
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

        pub fn store(&mut self, addr: Addr, memory_latency: SimDuration) -> LoadOutcome {
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

        pub fn invalidate(&mut self, addr: Addr) {
            self.l1.invalidate(addr);
            self.l2.invalidate(addr);
        }

        pub fn flush(&mut self) {
            self.l1.flush();
            self.l2.flush();
            self.memory_loads = 0;
        }

        pub fn memory_loads(&self) -> u64 {
            self.memory_loads
        }

        pub fn writebacks(&self) -> u64 {
            self.l2.writebacks()
        }

        pub fn l2_miss_ratio(&self) -> f64 {
            self.l2.miss_ratio()
        }
    }
}

/// One operation on a single cache.
#[derive(Debug, Clone, Copy)]
enum CacheOp {
    Access(u64),
    Write(u64),
    Invalidate(u64),
    Probe(u64),
    ProbeDirty(u64),
    Flush,
}

/// A weighted mix of operations on byte addresses over 64 lines of 64 B,
/// so small caches both hit and conflict.
fn cache_op() -> impl Strategy<Value = CacheOp> {
    (0u32..17, 0u64..64 * 64).prop_map(|(kind, a)| match kind {
        0..=5 => CacheOp::Access(a),
        6..=9 => CacheOp::Write(a),
        10..=11 => CacheOp::Invalidate(a),
        12..=13 => CacheOp::Probe(a),
        14..=15 => CacheOp::ProbeDirty(a),
        _ => CacheOp::Flush,
    })
}

/// 1–16 sets, 1–8 ways, 64 B lines.
fn small_geometry() -> impl Strategy<Value = CacheGeometry> {
    (0u32..5, 1u32..=8).prop_map(|(s, w)| {
        let sets = 1u64 << s;
        CacheGeometry::new(sets * u64::from(w) * 64, 64, w)
    })
}

/// One operation on a hierarchy: `run` consecutive references to one line
/// at varying offsets (long same-line runs drive the L1 MRU fast path).
#[derive(Debug, Clone, Copy)]
enum HierOp {
    Loads {
        line: u64,
        run: u64,
    },
    Stores {
        line: u64,
        run: u64,
    },
    Invalidate(u64),
    /// Invalidate the line referenced last, which the fast path holds.
    InvalidateLast,
    Flush,
}

fn hier_op() -> impl Strategy<Value = HierOp> {
    (0u32..14, 0u64..256, 1u64..24).prop_map(|(kind, line, run)| match kind {
        0..=7 => HierOp::Loads { line, run },
        8..=10 => HierOp::Stores {
            line,
            run: run % 6 + 1,
        },
        11 => HierOp::Invalidate(line),
        12 => HierOp::InvalidateLast,
        _ => HierOp::Flush,
    })
}

/// A small hierarchy: L1 of up to 16 sets x 4 ways, L2 of up to 64 sets x
/// 8 ways, so 256 lines overflow both.
fn small_hierarchy() -> impl Strategy<Value = HierarchyConfig> {
    (0u32..5, 1u32..=4, 0u32..7, 1u32..=8).prop_map(|(s1, w1, s2, w2)| HierarchyConfig {
        l1: CacheGeometry::new((1u64 << s1) * u64::from(w1) * 64, 64, w1),
        l1_latency: SimDuration::from_ns(2.6),
        l2: CacheGeometry::new((1u64 << s2) * u64::from(w2) * 64, 64, w2),
        l2_latency: SimDuration::from_ns(10.4),
    })
}

proptest! {
    /// Every access result, probe answer and counter of the flat cache
    /// equals the reference cache's.
    #[test]
    fn flat_cache_matches_reference(geometry in small_geometry(),
                                    ops in prop::collection::vec(cache_op(), 1..400)) {
        let mut flat = SetAssocCache::new(geometry);
        let mut oracle = reference::SetAssocCache::new(geometry);
        prop_assert_eq!(flat.geometry(), oracle.geometry());
        for op in ops {
            match op {
                CacheOp::Access(a) => {
                    let got: AccessResult = flat.access(Addr::new(a));
                    prop_assert_eq!(got, oracle.access(Addr::new(a)), "{:?}", op);
                }
                CacheOp::Write(a) => {
                    prop_assert_eq!(flat.access_write(Addr::new(a)),
                                    oracle.access_write(Addr::new(a)), "{:?}", op);
                }
                CacheOp::Invalidate(a) => {
                    prop_assert_eq!(flat.invalidate(Addr::new(a)),
                                    oracle.invalidate(Addr::new(a)), "{:?}", op);
                }
                CacheOp::Probe(a) => {
                    prop_assert_eq!(flat.probe(Addr::new(a)), oracle.probe(Addr::new(a)));
                }
                CacheOp::ProbeDirty(a) => {
                    prop_assert_eq!(flat.probe_dirty(Addr::new(a)),
                                    oracle.probe_dirty(Addr::new(a)));
                }
                CacheOp::Flush => {
                    flat.flush();
                    oracle.flush();
                }
            }
            prop_assert_eq!(flat.hits(), oracle.hits());
            prop_assert_eq!(flat.misses(), oracle.misses());
            prop_assert_eq!(flat.writebacks(), oracle.writebacks());
            prop_assert_eq!(flat.resident_lines(), oracle.resident_lines());
        }
    }

    /// The hierarchy, fast path included, serves every load and store from
    /// the same level as the reference walk and keeps the same counters.
    #[test]
    fn hierarchy_matches_reference(config in small_hierarchy(),
                                   ops in prop::collection::vec(hier_op(), 1..200)) {
        let mem = SimDuration::from_ns(83.0);
        let mut fast = CacheHierarchy::new(config);
        let mut oracle = reference::Hierarchy::new(config);
        let (mut got, mut want): (Vec<LoadOutcome>, Vec<LoadOutcome>) = (Vec::new(), Vec::new());
        let mut last = 0;
        for op in ops {
            match op {
                HierOp::Loads { line, run } => {
                    last = line * 64;
                    for i in 0..run {
                        let a = Addr::new(line * 64 + (i * 8) % 64);
                        got.push(fast.load(a, mem));
                        want.push(oracle.load(a, mem));
                    }
                }
                HierOp::Stores { line, run } => {
                    last = line * 64;
                    for i in 0..run {
                        let a = Addr::new(line * 64 + (i * 8) % 64);
                        got.push(fast.store(a, mem));
                        want.push(oracle.store(a, mem));
                    }
                }
                HierOp::Invalidate(line) => {
                    fast.invalidate(Addr::new(line * 64));
                    oracle.invalidate(Addr::new(line * 64));
                }
                HierOp::InvalidateLast => {
                    fast.invalidate(Addr::new(last));
                    oracle.invalidate(Addr::new(last));
                }
                HierOp::Flush => {
                    fast.flush();
                    oracle.flush();
                }
            }
        }
        prop_assert_eq!(got, want);
        prop_assert_eq!(fast.memory_loads(), oracle.memory_loads());
        prop_assert_eq!(fast.writebacks(), oracle.writebacks());
        prop_assert_eq!(fast.l2_miss_ratio().to_bits(), oracle.l2_miss_ratio().to_bits());
    }
}
