//! The cache-mode artifact derived from the flat one by a
//! memory-side-cache pass (`ClassifiedTrace::with_memory_side_cache`)
//! against an independent reference: each core's accesses classified
//! in program order through its own `cachesim::Hierarchy` built from
//! `HierarchyConfig::knl_cache_mode`, as the raw replay entry points
//! classify. Every generator plus a set-conflict trace, and two MSC
//! capacities: one far smaller than a core's footprint (conflict
//! misses; dirty victims under GUPS and conflict-trace writes) and one
//! that holds it.

use cachesim::{AccessKind, Hierarchy, HierarchyConfig, LevelHit};
use knl::tracesim::partition_by_core;
use knl::{flat_sibling, ClassifiedTrace, MachineConfig, MemSetup, TraceAccess};
use simfabric::{ByteSize, Duration};
use workloads::tracegen::{collect, TraceKind};

const CORES: u32 = 4;
const PER_CORE: u64 = 3_000;
const SEED: u64 = 0x00c0_ffee;

/// Per-core `(addr, lat_ps, flags)` arrays and the L1 / L2 / MCDRAM
/// cache / memory totals, classified the way `TraceSim::run` does.
type Classified = (Vec<(Vec<u64>, Vec<u64>, Vec<u8>)>, [u64; 4]);

fn reference(cfg: &MachineConfig, msc: ByteSize, trace: &[TraceAccess]) -> Classified {
    let mut hier_cfg =
        HierarchyConfig::knl_cache_mode(cfg.ddr.idle_latency, cfg.mcdram.idle_latency, msc);
    hier_cfg.memory_latency = Duration::ZERO;
    hier_cfg.mcdram_cache_latency = Duration::ZERO;
    let mut hiers: Vec<Hierarchy> = (0..CORES).map(|_| Hierarchy::new(hier_cfg)).collect();
    let mut per_core = vec![(Vec::new(), Vec::new(), Vec::new()); CORES as usize];
    let mut level_hits = [0u64; 4];
    for t in trace {
        let c = partition_by_core(t.core, CORES as usize);
        let kind = if t.write {
            AccessKind::Write
        } else {
            AccessKind::Read
        };
        let (level, lat) = hiers[c].access(t.addr, kind);
        let code = match level {
            LevelHit::L1 => 0u8,
            LevelHit::L2 => 1,
            LevelHit::McdramCache => 2,
            LevelHit::Memory => 3,
        };
        level_hits[code as usize] += 1;
        let (addr, lat_ps, flags) = &mut per_core[c];
        addr.push(t.addr);
        lat_ps.push(lat.as_ps());
        flags.push(t.write as u8 | (t.dependent as u8) << 1 | code << 2);
    }
    (per_core, level_hits)
}

fn arrays(ct: &ClassifiedTrace) -> Classified {
    let per_core = (0..ct.cores() as usize)
        .map(|c| {
            let (a, l, f) = ct.core_arrays(c);
            (a.to_vec(), l.to_vec(), f.to_vec())
        })
        .collect();
    (per_core, ct.level_hits())
}

/// Each core cycles 24 times, writing every third access, over 32
/// lines 64 KiB apart. They share one L1 set and one L2 set (more
/// lines than either has ways), so every access below the first pass
/// reaches the MSC; they all map to one slot of a 64 KiB MSC and to
/// distinct slots of an 8 MiB one. The app generators spread over a
/// 64 MiB footprint and rarely revisit a line at test scale.
fn conflict_trace() -> Vec<TraceAccess> {
    let mut out = Vec::new();
    for round in 0..24u64 {
        for i in 0..32u64 {
            for c in 0..CORES {
                let addr = (c as u64) << 32 | i << 16;
                let write = (round * 32 + i) % 3 == 0;
                out.push(TraceAccess {
                    core: c,
                    addr,
                    write,
                    dependent: false,
                });
            }
        }
    }
    out
}

#[test]
fn derived_cache_mode_artifacts_equal_hierarchy_classification() {
    let cache = MachineConfig::knl7210(MemSetup::CacheMode, 64);
    let flat = flat_sibling(&cache).expect("cache mode has a flat sibling");
    // 64 KiB is 1 Ki lines, well under every generator's per-core
    // footprint here; 8 MiB holds each of them.
    let (small, large) = (ByteSize::kib(64), ByteSize::mib(8));
    let mut msc_hits = [0u64; 2];
    let traces = TraceKind::ALL
        .into_iter()
        .map(|kind| {
            let trace = collect(kind.source(CORES, PER_CORE, SEED).as_mut());
            (kind.spec(CORES, PER_CORE, SEED), trace)
        })
        .chain([("conflict:4x768".to_string(), conflict_trace())]);
    for (spec, trace) in traces {
        let base = ClassifiedTrace::build_from_trace(&flat, CORES, small, &spec, &trace);
        for (i, msc) in [small, large].into_iter().enumerate() {
            let derived = base.with_memory_side_cache(&cache, msc);
            let want = reference(&cache, msc, &trace);
            assert!(
                arrays(&derived) == want,
                "{spec} msc={msc:?}: derived artifact differs from the hierarchy's \
                 classification (level hits {:?} vs {:?})",
                derived.level_hits(),
                want.1
            );
            let built = ClassifiedTrace::build_from_trace(&cache, CORES, msc, &spec, &trace);
            assert_eq!(built.key(), derived.key(), "{spec}");
            assert!(
                arrays(&built) == want,
                "{spec} msc={msc:?}: build_streaming"
            );
            assert_eq!(derived.accesses(), base.accesses());
            msc_hits[i] += derived.level_hits()[2];
        }
    }
    assert!(
        msc_hits[0] < msc_hits[1],
        "the small MSC must take conflict misses the large one does not: {msc_hits:?}"
    );
}
