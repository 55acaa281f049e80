//! A functional set-associative cache with true-LRU replacement.
//!
//! # Slot layout
//!
//! All `sets × ways` tag slots live in one flat `Vec<u64>`; set `s` owns
//! the `ways` consecutive slots starting at `s * ways`. Within a set the
//! slots are kept in recency order, most recently used first, with any
//! empty slots at the tail. A resident line's slot holds `tag << 1 |
//! dirty`; an empty slot holds the [`EMPTY`] sentinel.
//!
//! * A hit at position `pos` rotates `set[..=pos]` right by one, so the
//!   line moves to the front and the lines it passed age by one.
//! * A miss evicts `set[ways - 1]` (the LRU line, or an empty slot) by
//!   shifting the set right by one and filling `set[0]`.
//! * An invalidation closes the gap by shifting the tail left and leaves
//!   an empty slot at the end.
//!
//! The line shift, set mask and set shift are derived once in
//! [`SetAssocCache::new`] (line size and set count are powers of two, see
//! [`CacheGeometry::new`]), so an access costs shifts and masks but no
//! division.

use serde::{Deserialize, Serialize};

use crate::geometry::{Addr, CacheGeometry};

/// The content of an empty slot. Resident slots hold `tag << 1 | dirty`,
/// which stays below `u64::MAX - 1` because `new` guarantees at least two
/// bits of offset and set index below the tag.
const EMPTY: u64 = u64::MAX;

/// The outcome of one cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct AccessResult {
    /// Whether the line was present.
    pub hit: bool,
    /// The line number (in units of the line size) of a line evicted to
    /// make room, if the fill displaced one.
    pub evicted_line: Option<u64>,
    /// Whether the evicted line was dirty (must be written back — the
    /// write-back traffic STREAM's `moved_bytes` accounts for).
    pub evicted_dirty: bool,
}

/// A set-associative cache with LRU replacement, tracking tags only (a
/// *functional* model: it answers hit/miss questions, it does not hold
/// data).
///
/// Accesses allocate on miss (read-allocate; the reproduced experiments are
/// latency/bandwidth studies over loads, with stores modelled as allocating
/// too, matching the write-back write-allocate Alpha caches).
///
/// # Examples
///
/// ```
/// use alphasim_cache::{Addr, CacheGeometry, SetAssocCache};
/// let mut c = SetAssocCache::new(CacheGeometry::new(1024, 64, 2));
/// assert!(!c.access(Addr::new(0)).hit);   // cold miss
/// assert!(c.access(Addr::new(32)).hit);   // same line
/// assert_eq!(c.hits(), 1);
/// assert_eq!(c.misses(), 1);
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SetAssocCache {
    geometry: CacheGeometry,
    ways: usize,
    /// `log2(line_bytes)`: address to line number.
    line_shift: u32,
    /// `sets - 1`: line number to set index.
    set_mask: u64,
    /// `log2(sets)`: line number to tag.
    set_shift: u32,
    /// `sets × ways` slots, each set MRU first (see the module docs).
    slots: Vec<u64>,
    hits: u64,
    misses: u64,
    writebacks: u64,
}

impl SetAssocCache {
    /// An empty cache of the given geometry.
    ///
    /// # Panics
    ///
    /// Panics if `line_bytes × sets < 4`: a slot keeps the tag and dirty
    /// bit in one word next to the empty sentinel, which needs two address
    /// bits below the tag.
    pub fn new(geometry: CacheGeometry) -> Self {
        let sets = geometry.sets();
        let line_shift = geometry.line_bytes().trailing_zeros();
        let set_shift = sets.trailing_zeros();
        assert!(
            line_shift + set_shift >= 2,
            "need line_bytes x sets >= 4, got {}",
            geometry.line_bytes() * sets
        );
        let ways = geometry.ways() as usize;
        SetAssocCache {
            geometry,
            ways,
            line_shift,
            set_mask: sets - 1,
            set_shift,
            slots: vec![EMPTY; sets as usize * ways],
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

    /// The line number `addr` falls in.
    pub(crate) fn line_of(&self, addr: Addr) -> u64 {
        addr.get() >> self.line_shift
    }

    /// Count a load hit on the line that is already MRU in its set. Under
    /// true LRU that changes nothing but the hit counter.
    pub(crate) fn rehit_mru(&mut self) {
        self.hits += 1;
    }

    /// The slots of `line`'s set and the line's resident-slot key
    /// (`tag << 1`, dirty bit clear).
    fn set_and_key(&self, line: u64) -> (std::ops::Range<usize>, u64) {
        let start = (line & self.set_mask) as usize * self.ways;
        (start..start + self.ways, (line >> self.set_shift) << 1)
    }

    fn reference(&mut self, addr: Addr, write: bool) -> AccessResult {
        let line = self.line_of(addr);
        let (range, key) = self.set_and_key(line);
        let set = &mut self.slots[range];
        if let Some(pos) = set.iter().position(|&s| s & !1 == key) {
            let slot = set[pos];
            shift_right(&mut set[..=pos]);
            set[0] = slot | u64::from(write);
            self.hits += 1;
            return AccessResult {
                hit: true,
                evicted_line: None,
                evicted_dirty: false,
            };
        }
        self.misses += 1;
        let victim = set[set.len() - 1];
        shift_right(set);
        set[0] = key | u64::from(write);
        if victim == EMPTY {
            return AccessResult {
                hit: false,
                evicted_line: None,
                evicted_dirty: false,
            };
        }
        let evicted_dirty = victim & 1 == 1;
        if evicted_dirty {
            self.writebacks += 1;
        }
        AccessResult {
            hit: false,
            evicted_line: Some(((victim >> 1) << self.set_shift) | (line & self.set_mask)),
            evicted_dirty,
        }
    }

    /// Whether `addr`'s line is currently resident (no LRU update, no fill).
    pub fn probe(&self, addr: Addr) -> bool {
        let (range, key) = self.set_and_key(self.line_of(addr));
        self.slots[range].iter().any(|&s| s & !1 == key)
    }

    /// Whether `addr`'s line is resident *and dirty*.
    pub fn probe_dirty(&self, addr: Addr) -> bool {
        let (range, key) = self.set_and_key(self.line_of(addr));
        self.slots[range].contains(&(key | 1))
    }

    /// Invalidate `addr`'s line if resident; reports whether it was.
    pub fn invalidate(&mut self, addr: Addr) -> bool {
        let (range, key) = self.set_and_key(self.line_of(addr));
        let set = &mut self.slots[range];
        if let Some(pos) = set.iter().position(|&s| s & !1 == key) {
            set.copy_within(pos + 1.., pos);
            set[set.len() - 1] = EMPTY;
            true
        } else {
            false
        }
    }

    /// Drop every line and reset statistics.
    pub fn flush(&mut self) {
        self.slots.fill(EMPTY);
        self.hits = 0;
        self.misses = 0;
        self.writebacks = 0;
    }

    /// Number of resident lines.
    pub fn resident_lines(&self) -> usize {
        self.slots.iter().filter(|&&s| s != EMPTY).count()
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

/// Move every slot one place towards the back, dropping the last; the
/// caller refills `slots[0]`. A plain loop, because `rotate_right` and
/// `copy_within` both cost several times more on slices this short.
fn shift_right(slots: &mut [u64]) {
    for i in (1..slots.len()).rev() {
        slots[i] = slots[i - 1];
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> SetAssocCache {
        // 2 sets x 2 ways x 64B lines = 256 B.
        SetAssocCache::new(CacheGeometry::new(256, 64, 2))
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = tiny();
        // Lines 0, 2, 4 all map to set 0 (even line numbers).
        let a = Addr::new(0);
        let b = Addr::new(2 * 64);
        let d = Addr::new(4 * 64);
        c.access(a);
        c.access(b);
        c.access(a); // a is now MRU
        let r = c.access(d); // evicts b
        assert_eq!(r.evicted_line, Some(2));
        assert!(c.probe(a));
        assert!(!c.probe(b));
        assert!(c.probe(d));
    }

    #[test]
    fn capacity_never_exceeded() {
        let mut c = tiny();
        for i in 0..100 {
            c.access(Addr::new(i * 64));
        }
        assert!(c.resident_lines() <= 4);
    }

    #[test]
    fn direct_mapped_conflicts() {
        let mut c = SetAssocCache::new(CacheGeometry::new(128, 64, 1)); // 2 sets
        let a = Addr::new(0);
        let conflicting = Addr::new(2 * 64); // same set, different tag
        c.access(a);
        c.access(conflicting);
        assert!(!c.probe(a), "direct-mapped conflict must evict");
        // Ping-pong: every access misses.
        c.flush();
        for _ in 0..10 {
            assert!(!c.access(a).hit);
            assert!(!c.access(conflicting).hit);
        }
        assert_eq!(c.misses(), 20);
    }

    #[test]
    fn seven_way_holds_seven_conflicting_lines() {
        let mut c = SetAssocCache::new(CacheGeometry::ev7_l2());
        let sets = c.geometry().sets();
        // 7 lines all mapping to set 0.
        for i in 0..7u64 {
            c.access(Addr::new(i * sets * 64));
        }
        for i in 0..7u64 {
            assert!(c.probe(Addr::new(i * sets * 64)), "way {i} lost");
        }
        // An 8th conflicting line evicts the LRU (line 0).
        c.access(Addr::new(7 * sets * 64));
        assert!(!c.probe(Addr::new(0)));
    }

    #[test]
    fn working_set_within_capacity_stops_missing() {
        let mut c = SetAssocCache::new(CacheGeometry::new(64 * 1024, 64, 2));
        let lines = 64 * 1024 / 64;
        // Two full sweeps; second sweep must be all hits.
        for _ in 0..2 {
            for i in 0..lines {
                c.access(Addr::new(i * 64));
            }
        }
        assert_eq!(c.misses(), lines);
        assert_eq!(c.hits(), lines);
    }

    #[test]
    fn working_set_beyond_capacity_thrashes_on_sweep() {
        // Sequential sweep of 2x the capacity with LRU: every access misses.
        let mut c = SetAssocCache::new(CacheGeometry::new(4096, 64, 2));
        let lines = 2 * 4096 / 64;
        for _ in 0..3 {
            for i in 0..lines {
                c.access(Addr::new(i * 64));
            }
        }
        assert_eq!(c.hits(), 0);
        assert!((c.miss_ratio() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn invalidate_removes_line() {
        let mut c = tiny();
        let a = Addr::new(64);
        c.access(a);
        assert!(c.invalidate(a));
        assert!(!c.probe(a));
        assert!(!c.invalidate(a));
    }

    #[test]
    fn flush_resets_everything() {
        let mut c = tiny();
        c.access(Addr::new(0));
        c.flush();
        assert_eq!(c.resident_lines(), 0);
        assert_eq!(c.hits() + c.misses(), 0);
        assert_eq!(c.miss_ratio(), 0.0);
    }

    #[test]
    #[should_panic(expected = "need line_bytes x sets >= 4")]
    fn rejects_tags_without_room_for_the_dirty_bit() {
        // 1-byte lines, 2 sets: a tag can use 63 bits.
        let _ = SetAssocCache::new(CacheGeometry::new(2, 1, 1));
    }

    #[test]
    fn probe_does_not_disturb_lru() {
        let mut c = tiny();
        let a = Addr::new(0);
        let b = Addr::new(2 * 64);
        c.access(a);
        c.access(b);
        // Probing `a` must NOT refresh it.
        assert!(c.probe(a));
        c.access(Addr::new(4 * 64)); // evicts LRU = a
        assert!(!c.probe(a));
        assert!(c.probe(b));
    }
}

#[cfg(test)]
mod dirty_tests {
    use super::*;

    #[test]
    fn stores_mark_lines_dirty_and_evictions_write_back() {
        let mut c = SetAssocCache::new(CacheGeometry::new(128, 64, 1)); // 2 sets
        let a = Addr::new(0);
        c.access_write(a);
        assert!(c.probe_dirty(a));
        // Conflicting fill evicts the dirty line: one write-back.
        let r = c.access(Addr::new(2 * 64));
        assert_eq!(r.evicted_line, Some(0));
        assert!(r.evicted_dirty);
        assert_eq!(c.writebacks(), 1);
    }

    #[test]
    fn clean_evictions_do_not_write_back() {
        let mut c = SetAssocCache::new(CacheGeometry::new(128, 64, 1));
        c.access(Addr::new(0));
        let r = c.access(Addr::new(2 * 64));
        assert!(!r.evicted_dirty);
        assert_eq!(c.writebacks(), 0);
    }

    #[test]
    fn read_after_write_keeps_dirty_bit() {
        let mut c = SetAssocCache::new(CacheGeometry::new(256, 64, 2));
        let a = Addr::new(64);
        c.access_write(a);
        c.access(a); // LRU refresh must not launder the dirty bit
        assert!(c.probe_dirty(a));
    }

    #[test]
    fn write_hit_dirties_a_clean_line() {
        let mut c = SetAssocCache::new(CacheGeometry::new(256, 64, 2));
        let a = Addr::new(0);
        c.access(a);
        assert!(!c.probe_dirty(a));
        assert!(c.access_write(a).hit);
        assert!(c.probe_dirty(a));
    }

    #[test]
    fn stream_like_write_stream_generates_one_writeback_per_line() {
        // A store sweep over 2x capacity: every line comes back out dirty.
        let mut c = SetAssocCache::new(CacheGeometry::new(1024, 64, 2));
        let lines = 2 * 1024 / 64;
        for i in 0..lines {
            c.access_write(Addr::new(i * 64));
        }
        // First `capacity` fills evict nothing; the rest evict dirty lines.
        assert_eq!(c.writebacks(), lines - 16);
    }
}
