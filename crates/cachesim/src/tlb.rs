//! TLB and page-walk model.
//!
//! Fig. 3 of the paper shows random-read latency climbing with block
//! size well past the cache sizes; the driver is TLB misses and page
//! walks. KNL has a 64-entry L1 DTLB and a 256-entry L2 TLB for 4-KB
//! pages (8 entries for 2-MB pages at L1). This module models a
//! two-level TLB exactly and provides the analytic miss-rate helper the
//! latency model uses at paper scale.
//!
//! A two-level TLB whose L1 victims fall to the top of an LRU L2, and
//! whose L2 hits move back up to L1, is one exact LRU stack of depth
//! `l1_entries + l2_entries`: L1 is the top `l1_entries` entries, an L2
//! hit is a hit at a depth in `[l1, l1 + l2)`, and anything deeper
//! walks. [`Tlb`] keeps that stack as an intrusive doubly linked list
//! over a fixed slot array, with a pointer to the deepest L1 entry (the
//! L1/L2 boundary) and a page → slot hash index sized at
//! construction. A translation is one index probe and a constant
//! number of list splices: O(1), with no allocation once the stack is
//! full.

use simfabric::stats::Counter;
use simfabric::{ByteSize, Duration};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Supported page sizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PageSize {
    /// 4-KB base pages.
    Small,
    /// 2-MB huge pages.
    Huge,
}

impl PageSize {
    /// Bytes per page.
    pub fn bytes(self) -> u64 {
        match self {
            PageSize::Small => 4 * 1024,
            PageSize::Huge => 2 * 1024 * 1024,
        }
    }
}

/// TLB configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TlbConfig {
    /// Page size translated by this TLB.
    pub page_size: PageSize,
    /// L1 TLB entries (fully associative LRU in the model).
    pub l1_entries: usize,
    /// L2 TLB entries (0 disables the second level).
    pub l2_entries: usize,
    /// Latency of an L2 TLB hit.
    pub l2_hit_latency: Duration,
    /// Latency of a full page walk (multi-level table walk through the
    /// cache hierarchy; ~25–40 ns on KNL for 4-KB pages).
    pub walk_latency: Duration,
}

impl TlbConfig {
    /// KNL DTLB for 4-KB pages: 64-entry L1, 256-entry L2.
    pub fn knl_4k() -> Self {
        TlbConfig {
            page_size: PageSize::Small,
            l1_entries: 64,
            l2_entries: 256,
            l2_hit_latency: Duration::from_ns(7.0),
            walk_latency: Duration::from_ns(35.0),
        }
    }

    /// KNL DTLB for 2-MB pages: 8-entry L1, 128-entry L2, cheaper walk
    /// (one less level).
    pub fn knl_2m() -> Self {
        TlbConfig {
            page_size: PageSize::Huge,
            l1_entries: 8,
            l2_entries: 128,
            l2_hit_latency: Duration::from_ns(7.0),
            walk_latency: Duration::from_ns(25.0),
        }
    }

    /// Footprint fully covered by the L1 TLB.
    pub fn l1_coverage(&self) -> ByteSize {
        ByteSize::bytes(self.l1_entries as u64 * self.page_size.bytes())
    }

    /// Footprint fully covered by both levels.
    pub fn total_coverage(&self) -> ByteSize {
        ByteSize::bytes((self.l1_entries + self.l2_entries) as u64 * self.page_size.bytes())
    }

    /// Analytic expected translation overhead per access for *uniform
    /// random* accesses over `footprint`, as added latency.
    ///
    /// With `p` pages touched uniformly and `e` entries, the hit
    /// probability of an LRU TLB is ≈ `min(1, e/p)`; misses that hit L2
    /// pay `l2_hit_latency`, the rest pay the full walk.
    pub fn random_access_overhead(&self, footprint: ByteSize) -> Duration {
        let pages = footprint.pages(self.page_size.bytes()).max(1) as f64;
        let l1_hit = (self.l1_entries as f64 / pages).min(1.0);
        let l2_hit = ((self.l1_entries + self.l2_entries) as f64 / pages).min(1.0) - l1_hit;
        let walk = 1.0 - l1_hit - l2_hit;
        self.l2_hit_latency.scale(l2_hit) + self.walk_latency.scale(walk)
    }
}

/// Where a translation was satisfied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TlbOutcome {
    /// L1 TLB hit: free.
    L1Hit,
    /// L2 TLB hit: small penalty.
    L2Hit,
    /// Full page walk.
    Walk,
}

impl TlbOutcome {
    /// Latency contributed by this outcome under `config`.
    pub fn latency(self, config: &TlbConfig) -> Duration {
        match self {
            TlbOutcome::L1Hit => Duration::ZERO,
            TlbOutcome::L2Hit => config.l2_hit_latency,
            TlbOutcome::Walk => config.walk_latency,
        }
    }
}

/// Sentinel slot index: "no entry" in the recency list.
const NIL: u32 = u32::MAX;

/// One TLB entry: a page on the recency list.
#[derive(Debug, Clone, Copy)]
struct Slot {
    page: u64,
    /// Neighbour towards the MRU end.
    prev: u32,
    /// Neighbour towards the LRU end.
    next: u32,
    /// Whether the entry sits in the top `l1_entries` of the stack.
    in_l1: bool,
}

/// Hasher for the page → slot index: one multiply, with the high half
/// folded into the low bits so the bucket index (low bits) and the
/// control tag (high bits) both depend on every page bit.
#[derive(Debug, Clone, Copy, Default)]
struct PageHasher(u64);

impl Hasher for PageHasher {
    fn write(&mut self, _: &[u8]) {
        unreachable!("pages hash through write_u64");
    }

    #[inline]
    fn write_u64(&mut self, page: u64) {
        let h = page.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.0 = h ^ (h >> 32);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

/// Page → slot map.
type PageIndex = HashMap<u64, u32, BuildHasherDefault<PageHasher>>;

/// Exact two-level, fully associative LRU TLB, kept as one LRU stack
/// of depth `l1_entries + l2_entries` (see the module docs).
#[derive(Debug, Clone)]
pub struct Tlb {
    config: TlbConfig,
    page_shift: u32,
    /// Entry storage: grows to `l1_entries + l2_entries` slots, after
    /// which every fill reuses the LRU slot.
    slots: Vec<Slot>,
    index: PageIndex,
    /// MRU end of the recency list.
    head: u32,
    /// LRU end of the recency list.
    tail: u32,
    /// Deepest entry of the L1 region (the L1/L2 boundary).
    l1_tail: u32,
    /// Entries in the L1 region.
    l1_len: usize,
    /// L1 hits.
    pub l1_hits: Counter,
    /// L2 hits (L1 misses).
    pub l2_hits: Counter,
    /// Full page walks.
    pub walks: Counter,
}

impl Tlb {
    /// Build a TLB from `config`.
    pub fn new(config: TlbConfig) -> Self {
        assert!(config.l1_entries > 0, "L1 TLB needs entries");
        let depth = config.l1_entries + config.l2_entries;
        assert!(depth < NIL as usize, "TLB too large");
        Tlb {
            config,
            page_shift: config.page_size.bytes().trailing_zeros(),
            slots: Vec::with_capacity(depth),
            // Twice the depth: the map then always rehashes in place
            // when deleted buckets use up its spare room, rather than
            // growing, so it never allocates after construction.
            index: PageIndex::with_capacity_and_hasher(2 * depth, Default::default()),
            head: NIL,
            tail: NIL,
            l1_tail: NIL,
            l1_len: 0,
            l1_hits: Counter::new(),
            l2_hits: Counter::new(),
            walks: Counter::new(),
        }
    }

    /// Configuration in use.
    pub fn config(&self) -> &TlbConfig {
        &self.config
    }

    /// Translate the page containing `addr`.
    pub fn translate(&mut self, addr: u64) -> TlbOutcome {
        let page = addr >> self.page_shift;
        match self.index.get(&page).copied() {
            Some(s) if self.slots[s as usize].in_l1 => {
                self.l1_hits.incr();
                if s != self.head {
                    if s == self.l1_tail {
                        self.l1_tail = self.slots[s as usize].prev;
                    }
                    self.unlink(s);
                    self.push_front(s);
                }
                TlbOutcome::L1Hit
            }
            Some(s) => {
                self.l2_hits.incr();
                self.unlink(s);
                self.promote(s);
                TlbOutcome::L2Hit
            }
            None => {
                self.walks.incr();
                let s = self.claim_slot(page);
                self.promote(s);
                TlbOutcome::Walk
            }
        }
    }

    /// Total translations performed.
    pub fn translations(&self) -> u64 {
        self.l1_hits.get() + self.l2_hits.get() + self.walks.get()
    }

    /// An unlinked slot holding `page`: a fresh one while the stack is
    /// shallower than its depth, else the evicted LRU entry's.
    fn claim_slot(&mut self, page: u64) -> u32 {
        let depth = self.config.l1_entries + self.config.l2_entries;
        if self.slots.len() < depth {
            let s = self.slots.len() as u32;
            self.slots.push(Slot {
                page,
                prev: NIL,
                next: NIL,
                in_l1: false,
            });
            self.index.insert(page, s);
            return s;
        }
        let s = self.tail;
        if self.slots[s as usize].in_l1 {
            // No L2 level: the LRU entry is the L1 boundary itself.
            self.l1_tail = self.slots[s as usize].prev;
            self.l1_len -= 1;
        }
        self.unlink(s);
        self.index.remove(&self.slots[s as usize].page);
        self.slots[s as usize].page = page;
        self.index.insert(page, s);
        s
    }

    /// Link unlinked slot `s` in as the MRU entry of the L1 region; a
    /// full L1 demotes its deepest entry to the top of L2.
    fn promote(&mut self, s: u32) {
        self.push_front(s);
        self.slots[s as usize].in_l1 = true;
        self.l1_len += 1;
        if self.l1_len == 1 {
            self.l1_tail = s;
        } else if self.l1_len > self.config.l1_entries {
            let demoted = self.l1_tail as usize;
            self.slots[demoted].in_l1 = false;
            self.l1_tail = self.slots[demoted].prev;
            self.l1_len -= 1;
        }
    }

    fn unlink(&mut self, s: u32) {
        let Slot { prev, next, .. } = self.slots[s as usize];
        match prev {
            NIL => self.head = next,
            p => self.slots[p as usize].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.slots[n as usize].prev = prev,
        }
    }

    fn push_front(&mut self, s: u32) {
        let old = self.head;
        self.slots[s as usize].prev = NIL;
        self.slots[s as usize].next = old;
        match old {
            NIL => self.tail = s,
            h => self.slots[h as usize].prev = s,
        }
        self.head = s;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn within_l1_coverage_everything_hits() {
        let mut tlb = Tlb::new(TlbConfig::knl_4k());
        let pages = 64u64;
        for _ in 0..3 {
            for p in 0..pages {
                tlb.translate(p * 4096);
            }
        }
        // First pass walks; later passes hit L1.
        assert_eq!(tlb.walks.get(), 64);
        assert_eq!(tlb.l1_hits.get(), 128);
    }

    #[test]
    fn l2_catches_l1_overflow() {
        let mut tlb = Tlb::new(TlbConfig::knl_4k());
        let pages = 200u64; // > 64 L1 entries, < 320 total
        for p in 0..pages {
            tlb.translate(p * 4096);
        }
        let walks_first = tlb.walks.get();
        for p in 0..pages {
            tlb.translate(p * 4096);
        }
        assert_eq!(tlb.walks.get(), walks_first, "second pass should not walk");
        assert!(tlb.l2_hits.get() > 0);
    }

    #[test]
    fn beyond_total_coverage_walks_again() {
        let cfg = TlbConfig {
            l1_entries: 4,
            l2_entries: 4,
            ..TlbConfig::knl_4k()
        };
        let mut tlb = Tlb::new(cfg);
        for _ in 0..3 {
            for p in 0..100u64 {
                tlb.translate(p * 4096);
            }
        }
        // Cyclic sweep over 100 pages through 8 entries: all walks.
        assert_eq!(tlb.walks.get(), 300);
    }

    #[test]
    fn huge_pages_extend_coverage() {
        let small = TlbConfig::knl_4k();
        let huge = TlbConfig::knl_2m();
        assert_eq!(small.l1_coverage(), ByteSize::kib(256));
        assert_eq!(huge.l1_coverage(), ByteSize::mib(16));
        assert!(huge.total_coverage() > small.total_coverage());
    }

    #[test]
    fn analytic_overhead_grows_with_footprint() {
        let cfg = TlbConfig::knl_4k();
        let small = cfg.random_access_overhead(ByteSize::kib(128));
        let mid = cfg.random_access_overhead(ByteSize::mib(1));
        let large = cfg.random_access_overhead(ByteSize::gib(1));
        assert_eq!(small, Duration::ZERO);
        assert!(mid > small);
        assert!(large > mid);
        // At 1 GiB nearly every access walks.
        assert!((large.as_ns() - cfg.walk_latency.as_ns()).abs() < 1.0);
    }

    #[test]
    fn outcome_latencies() {
        let cfg = TlbConfig::knl_4k();
        assert_eq!(TlbOutcome::L1Hit.latency(&cfg), Duration::ZERO);
        assert_eq!(TlbOutcome::L2Hit.latency(&cfg), cfg.l2_hit_latency);
        assert_eq!(TlbOutcome::Walk.latency(&cfg), cfg.walk_latency);
    }

    #[test]
    fn exact_random_miss_rate_tracks_analytic() {
        use simfabric::prng::Rng;
        let cfg = TlbConfig {
            l1_entries: 16,
            l2_entries: 16,
            ..TlbConfig::knl_4k()
        };
        let mut tlb = Tlb::new(cfg);
        let mut rng = Rng::seed_from_u64(3);
        let pages = 128u64;
        for _ in 0..20_000 {
            tlb.translate(rng.gen_range(0..pages) * 4096);
        }
        let walk_rate = tlb.walks.get() as f64 / tlb.translations() as f64;
        // Analytic: 1 - 32/128 = 0.75 (LRU under uniform random ≈ cap).
        assert!(
            (walk_rate - 0.75).abs() < 0.05,
            "walk rate {walk_rate} vs analytic 0.75"
        );
    }
}
