//! Property tests validating the fast cache structures against naive
//! reference implementations, on seeded random traces from the
//! in-tree PRNG.

use cachesim::cache::{AccessKind, AccessOutcome, Cache, CacheConfig};
use cachesim::mcdram_cache::{MemorySideCache, MscOutcome};
use cachesim::replacement::ReplacementPolicy;
use cachesim::tlb::{Tlb, TlbConfig, TlbOutcome};
use simfabric::prng::Rng;
use simfabric::ByteSize;
use std::collections::VecDeque;

/// Naive LRU cache: vectors of (set, recency list).
struct RefLru {
    sets: Vec<Vec<u64>>, // MRU at the front
    ways: usize,
    line: u64,
    num_sets: u64,
}

impl RefLru {
    fn new(num_sets: u64, ways: usize, line: u64) -> Self {
        RefLru {
            sets: vec![Vec::new(); num_sets as usize],
            ways,
            line,
            num_sets,
        }
    }

    /// Returns hit?
    fn access(&mut self, addr: u64) -> bool {
        let lineno = addr / self.line;
        let set = (lineno % self.num_sets) as usize;
        let tag = lineno / self.num_sets;
        let list = &mut self.sets[set];
        if let Some(pos) = list.iter().position(|&t| t == tag) {
            list.remove(pos);
            list.insert(0, tag);
            true
        } else {
            if list.len() == self.ways {
                list.pop();
            }
            list.insert(0, tag);
            false
        }
    }
}

fn random_addrs(rng: &mut Rng, bound: u64, max_len: usize) -> Vec<u64> {
    let len = rng.gen_range(1..max_len);
    (0..len).map(|_| rng.gen_range(0..bound)).collect()
}

/// The production LRU cache produces the exact hit/miss sequence of
/// the naive reference on arbitrary traces.
#[test]
fn lru_cache_matches_reference() {
    let mut rng = Rng::seed_from_u64(0xcac4_0001);
    for case in 0..64 {
        let addrs = random_addrs(&mut rng, 1 << 16, 500);
        let mut cache = Cache::new(CacheConfig {
            capacity: ByteSize::bytes(4096), // 16 sets x 4 ways x 64 B
            line_bytes: 64,
            ways: 4,
            replacement: ReplacementPolicy::Lru,
            write_allocate: true,
        });
        let mut reference = RefLru::new(16, 4, 64);
        for &a in &addrs {
            let got = cache.access(a, AccessKind::Read).is_hit();
            let want = reference.access(a);
            assert_eq!(got, want, "case {case}: divergence at address {a:#x}");
        }
    }
}

/// The direct-mapped memory-side cache matches a trivial tag-array
/// reference: slot, hit/miss and every dirty-victim address, under
/// mixed reads and writes.
#[test]
fn msc_matches_reference() {
    let mut rng = Rng::seed_from_u64(0xcac4_0002);
    for case in 0..64 {
        // Footprints from a quarter of the cache to 64x it.
        let addrs = random_addrs(&mut rng, 1 << (12 + case % 11), 500);
        let slots = 256u64;
        let mut msc = MemorySideCache::new(ByteSize::bytes(slots * 64), 64);
        let mut tags = vec![u64::MAX; slots as usize];
        let mut dirty = vec![false; slots as usize];
        for &a in &addrs {
            let write = rng.gen_range(0u32..3) == 0;
            let line = a / 64;
            let slot = (line % slots) as usize;
            let tag = line / slots;
            let want = if tags[slot] == tag {
                dirty[slot] |= write;
                MscOutcome::Hit
            } else {
                let dirty_victim = (tags[slot] != u64::MAX && dirty[slot])
                    .then(|| (tags[slot] * slots + slot as u64) * 64);
                tags[slot] = tag;
                dirty[slot] = write;
                MscOutcome::Miss { dirty_victim }
            };
            assert_eq!(msc.slot_of(a), slot as u64, "case {case}");
            assert_eq!(msc.access(a, write), want, "case {case}");
        }
    }
}

/// A reset memory-side cache is a fresh one: after warming it with
/// one mixed read/write stream (valid and dirty slots left behind),
/// `reset` then a second stream gives the outcomes — hits, misses,
/// dirty-victim addresses — and counters of a newly built cache.
#[test]
fn msc_reset_matches_fresh_cache() {
    let mut rng = Rng::seed_from_u64(0xcac4_0005);
    let slots = 256u64;
    let mut reused = MemorySideCache::new(ByteSize::bytes(slots * 64), 64);
    for case in 0..32 {
        let warm = random_addrs(&mut rng, 1 << (12 + case % 9), 500);
        for &a in &warm {
            reused.access(a, rng.gen_range(0u32..2) == 0);
        }
        reused.reset();
        let mut fresh = MemorySideCache::new(ByteSize::bytes(slots * 64), 64);
        for &a in &random_addrs(&mut rng, 1 << (12 + case % 11), 500) {
            let write = rng.gen_range(0u32..3) == 0;
            assert_eq!(
                reused.access(a, write),
                fresh.access(a, write),
                "case {case}"
            );
        }
        assert_eq!(reused.hits.get(), fresh.hits.get(), "case {case}");
        assert_eq!(reused.misses.get(), fresh.misses.get(), "case {case}");
        assert_eq!(
            reused.writebacks.get(),
            fresh.writebacks.get(),
            "case {case}"
        );
    }
}

/// TLB conservation: every translation is exactly one of L1 hit,
/// L2 hit, or walk; and a repeat translation immediately after is
/// always an L1 hit.
#[test]
fn tlb_accounting_and_mru() {
    let mut rng = Rng::seed_from_u64(0xcac4_0003);
    for case in 0..64 {
        let addrs = random_addrs(&mut rng, 1u64 << 32, 300);
        let mut tlb = Tlb::new(TlbConfig::knl_4k());
        for &a in &addrs {
            tlb.translate(a);
            let again = tlb.translate(a);
            assert_eq!(again, cachesim::tlb::TlbOutcome::L1Hit, "case {case}");
        }
        assert_eq!(
            tlb.translations(),
            tlb.l1_hits.get() + tlb.l2_hits.get() + tlb.walks.get(),
            "case {case}"
        );
        assert_eq!(tlb.translations(), 2 * addrs.len() as u64, "case {case}");
    }
}

/// Naive two-level TLB: an L1 and an L2 recency list (MRU at the
/// front), L1 victims falling to the front of L2, L2 hits moving back
/// up to L1.
struct RefTlb {
    l1: VecDeque<u64>,
    l2: VecDeque<u64>,
    l1_entries: usize,
    l2_entries: usize,
    page_bytes: u64,
    l1_hits: u64,
    l2_hits: u64,
    walks: u64,
}

impl RefTlb {
    fn new(config: TlbConfig) -> Self {
        RefTlb {
            l1: VecDeque::new(),
            l2: VecDeque::new(),
            l1_entries: config.l1_entries,
            l2_entries: config.l2_entries,
            page_bytes: config.page_size.bytes(),
            l1_hits: 0,
            l2_hits: 0,
            walks: 0,
        }
    }

    fn translate(&mut self, addr: u64) -> TlbOutcome {
        let page = addr / self.page_bytes;
        if let Some(pos) = self.l1.iter().position(|&p| p == page) {
            self.l1.remove(pos);
            self.l1.push_front(page);
            self.l1_hits += 1;
            return TlbOutcome::L1Hit;
        }
        let outcome = if let Some(pos) = self.l2.iter().position(|&p| p == page) {
            self.l2.remove(pos);
            self.l2_hits += 1;
            TlbOutcome::L2Hit
        } else {
            self.walks += 1;
            TlbOutcome::Walk
        };
        if self.l1.len() == self.l1_entries {
            let victim = self.l1.pop_back().expect("L1 full");
            if self.l2_entries > 0 {
                if self.l2.len() == self.l2_entries {
                    self.l2.pop_back();
                }
                self.l2.push_front(victim);
            }
        }
        self.l1.push_front(page);
        outcome
    }
}

/// A translation trace over `pool` pages: mostly uniform picks with a
/// random offset inside the page, and a share of immediate repeats.
fn tlb_trace(rng: &mut Rng, pool: u64, page_bytes: u64, len: usize) -> Vec<u64> {
    let mut out: Vec<u64> = Vec::with_capacity(len);
    for _ in 0..len {
        let addr = match out.last() {
            Some(&last) if rng.gen_range(0u32..5) == 0 => last,
            _ => rng.gen_range(0..pool) * page_bytes + rng.gen_range(0..page_bytes),
        };
        out.push(addr);
    }
    out
}

/// The one-stack TLB produces the per-translation outcome sequence and
/// the counters of the naive two-list TLB, for every shape and for
/// page pools inside L1, inside L1 + L2, and far beyond both.
#[test]
fn tlb_matches_reference() {
    let mut rng = Rng::seed_from_u64(0xcac4_0005);
    for (l1, l2) in [(64, 256), (8, 128), (4, 4), (8, 0), (1, 3)] {
        let depth = (l1 + l2) as u64;
        let config = TlbConfig {
            l1_entries: l1,
            l2_entries: l2,
            ..TlbConfig::knl_4k()
        };
        let pools = [2, l1 as u64, depth, depth + 1, 2 * depth, 1 << 20];
        for (case, &pool) in pools.iter().enumerate() {
            let addrs = tlb_trace(&mut rng, pool, config.page_size.bytes(), 4000);
            let mut tlb = Tlb::new(config);
            let mut reference = RefTlb::new(config);
            for (i, &a) in addrs.iter().enumerate() {
                assert_eq!(
                    tlb.translate(a),
                    reference.translate(a),
                    "shape ({l1},{l2}) pool {pool} case {case}: divergence at step {i}"
                );
            }
            assert_eq!(tlb.l1_hits.get(), reference.l1_hits, "({l1},{l2}) {pool}");
            assert_eq!(tlb.l2_hits.get(), reference.l2_hits, "({l1},{l2}) {pool}");
            assert_eq!(tlb.walks.get(), reference.walks, "({l1},{l2}) {pool}");
        }
    }
}

/// One set of [`RefPlru`]: optional `(tag, dirty)` ways and the
/// `ways - 1` tree bits in heap order, where a set bit means "the next
/// victim is in the left subtree".
#[derive(Clone)]
struct RefPlruSet {
    lines: Vec<Option<(u64, bool)>>,
    bits: Vec<bool>,
}

/// Naive tree-PLRU cache.
struct RefPlru {
    sets: Vec<RefPlruSet>,
    ways: usize,
    depth: u32,
    line: u64,
    num_sets: u64,
}

impl RefPlru {
    fn new(num_sets: u64, ways: usize, line: u64) -> Self {
        let mut depth = 0;
        while (1 << depth) < ways {
            depth += 1;
        }
        RefPlru {
            sets: vec![
                RefPlruSet {
                    lines: vec![None; ways],
                    bits: vec![false; ways - 1],
                };
                num_sets as usize
            ],
            ways,
            depth,
            line,
            num_sets,
        }
    }

    /// Point every tree node on `way`'s path away from it.
    fn touch(bits: &mut [bool], depth: u32, way: usize) {
        let mut node = 0;
        for level in (0..depth).rev() {
            let right = (way >> level) & 1 == 1;
            bits[node] = right;
            node = 2 * node + 1 + right as usize;
        }
    }

    fn victim(bits: &[bool], depth: u32) -> usize {
        let (mut node, mut way) = (0, 0);
        for _ in 0..depth {
            let right = !bits[node];
            way = 2 * way + right as usize;
            node = 2 * node + 1 + right as usize;
        }
        way
    }

    fn access(&mut self, addr: u64, write: bool) -> AccessOutcome {
        let lineno = addr / self.line;
        let set = (lineno % self.num_sets) as usize;
        let tag = lineno / self.num_sets;
        let depth = self.depth;
        let RefPlruSet { lines, bits } = &mut self.sets[set];
        if let Some(w) = lines
            .iter()
            .position(|l| matches!(l, Some((t, _)) if *t == tag))
        {
            if write {
                lines[w] = Some((tag, true));
            }
            Self::touch(bits, depth, w);
            return AccessOutcome::Hit;
        }
        let way = match lines.iter().position(|l| l.is_none()) {
            Some(w) => w,
            None => Self::victim(bits, depth),
        };
        assert!(way < self.ways);
        let evicted_dirty = match lines[way] {
            Some((t, true)) => Some((t * self.num_sets + set as u64) * self.line),
            _ => None,
        };
        lines[way] = Some((tag, write));
        Self::touch(bits, depth, way);
        AccessOutcome::Miss { evicted_dirty }
    }

    /// Drop the line holding `addr`, leaving the tree bits alone;
    /// returns its address if it was dirty.
    fn invalidate(&mut self, addr: u64) -> Option<u64> {
        let lineno = addr / self.line;
        let tag = lineno / self.num_sets;
        let lines = &mut self.sets[(lineno % self.num_sets) as usize].lines;
        let w = lines
            .iter()
            .position(|l| matches!(l, Some((t, _)) if *t == tag))?;
        let dirty = lines[w].take().is_some_and(|(_, d)| d);
        dirty.then_some(lineno * self.line)
    }
}

/// 8- and 16-way tree-PLRU caches produce the naive reference's exact
/// hit/miss sequence and every dirty-victim address, under mixed reads,
/// writes and invalidations over small, set-filling and thrashing line
/// pools.
#[test]
fn plru_cache_matches_reference() {
    let mut rng = Rng::seed_from_u64(0xcac4_0006);
    for (ways, num_sets) in [(8u16, 8u64), (16, 16)] {
        let config = CacheConfig {
            capacity: ByteSize::bytes(num_sets * ways as u64 * 64),
            line_bytes: 64,
            ways,
            replacement: ReplacementPolicy::PseudoLru,
            write_allocate: true,
        };
        let lines = num_sets * ways as u64;
        for (case, pool) in [4, lines / 2, lines, lines + 3, 4 * lines, 1 << 16]
            .into_iter()
            .enumerate()
        {
            let mut cache = Cache::new(config);
            let mut reference = RefPlru::new(num_sets, ways as usize, 64);
            let mut recent = [0u64; 8];
            for i in 0..6000 {
                if rng.gen_range(0u32..8) == 0 {
                    // Punch holes into full sets by dropping a recently
                    // used line: a refill must take the first invalid
                    // way, not just any.
                    let addr = recent[rng.gen_range(0usize..8)];
                    assert_eq!(
                        cache.invalidate(addr),
                        reference.invalidate(addr),
                        "{ways}-way pool {pool} case {case}: invalidate at step {i}"
                    );
                    continue;
                }
                let addr = rng.gen_range(0..pool) * 64 + rng.gen_range(0u64..64);
                recent[i % 8] = addr;
                let write = rng.gen_range(0u32..3) == 0;
                let kind = if write {
                    AccessKind::Write
                } else {
                    AccessKind::Read
                };
                assert_eq!(
                    cache.access(addr, kind),
                    reference.access(addr, write),
                    "{ways}-way pool {pool} case {case}: divergence at step {i}"
                );
            }
        }
    }
}

/// Cache occupancy is monotone under fresh lines and capped by
/// capacity, regardless of policy.
#[test]
fn occupancy_caps() {
    let mut rng = Rng::seed_from_u64(0xcac4_0004);
    for case in 0..64 {
        let policy = [
            ReplacementPolicy::Lru,
            ReplacementPolicy::PseudoLru,
            ReplacementPolicy::Fifo,
            ReplacementPolicy::Random,
        ][rng.gen_range(0usize..4)];
        let n = rng.gen_range(1u64..300);
        let mut cache = Cache::new(CacheConfig {
            capacity: ByteSize::bytes(8192),
            line_bytes: 64,
            ways: 8,
            replacement: policy,
            write_allocate: true,
        });
        for i in 0..n {
            cache.access(i * 64, AccessKind::Read);
            assert!(cache.occupancy() <= 128, "case {case}");
            assert_eq!(
                cache.occupancy(),
                n.min(i + 1).min(128),
                "case {case} ({policy:?})"
            );
        }
    }
}
