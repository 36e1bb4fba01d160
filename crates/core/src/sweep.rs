//! The classify-once / replay-many sweep engine.
//!
//! Every multi-setup experiment in this crate replays *the same*
//! deterministic trace against several timing setups — placements,
//! device presets, memory-side-cache sizes, migration periods. The
//! classification stage (private caches, TLB, memory-side-cache tags)
//! dominates replay cost but is identical across every setup sharing
//! one hierarchy config, so this module factors it out:
//!
//! * a [`TraceSpec`] names a deterministic trace stream (canonical
//!   label + a factory for fresh sources);
//! * [`classified_for`] returns the stream's
//!   [`ClassifiedTrace`](knl::ClassifiedTrace) artifact for a machine
//!   config, built at most once per process through the global
//!   LRU [`ClassifyCache`](knl::ClassifyCache);
//! * [`replay_point`] / [`replay_into`] replay one timing setup from
//!   the artifact via
//!   [`TraceSim::run_classified`](knl::tracesim::TraceSim::run_classified),
//!   bit-identical to regenerating and re-classifying from scratch
//!   (`tests/classified_equivalence.rs`).
//!
//! Set `SWEEP_REUSE=0` to fall back to the regenerate-per-setup path —
//! the bench harness uses exactly that switch to price both the
//! speedup and the reuse plumbing's overhead.

use knl::classified::ClassifyKey;
use knl::tracesim::{TracePlacement, TraceSim, TraceSimReport};
use knl::{
    classify_signature, flat_sibling, with_global_classify_cache, ClassifiedTrace, MachineConfig,
};
use simfabric::{ByteSize, MetricsRegistry};
use std::sync::Arc;
use workloads::tracegen::{classify_streaming, replay_streaming, TraceKind, TraceSource};

/// A named deterministic trace stream: the canonical label (the
/// generator half of a [`ClassifyKey`]) plus a factory producing fresh
/// sources of the identical stream. Factories must be pure — two
/// sources from one spec yield bit-identical streams, which is what
/// lets the label stand in for the trace.
pub struct TraceSpec {
    label: String,
    cores: u32,
    make: Box<dyn Fn() -> Box<dyn TraceSource + Send> + Send + Sync>,
}

impl std::fmt::Debug for TraceSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceSpec")
            .field("label", &self.label)
            .field("cores", &self.cores)
            .finish_non_exhaustive()
    }
}

impl TraceSpec {
    /// A spec from an explicit label and source factory. The caller
    /// owns the label contract: everything that changes the stream
    /// must reach the label, and equal labels must mean bit-identical
    /// streams.
    pub fn new(
        label: impl Into<String>,
        cores: u32,
        make: impl Fn() -> Box<dyn TraceSource + Send> + Send + Sync + 'static,
    ) -> Self {
        TraceSpec {
            label: label.into(),
            cores,
            make: Box::new(make),
        }
    }

    /// The spec of an application trace generator, labelled with
    /// [`TraceKind::spec`].
    pub fn from_kind(kind: TraceKind, cores: u32, accesses_per_core: u64, seed: u64) -> Self {
        Self::new(
            kind.spec(cores, accesses_per_core, seed),
            cores,
            move || kind.source(cores, accesses_per_core, seed),
        )
    }

    /// The canonical stream label.
    pub fn label(&self) -> &str {
        &self.label
    }

    /// Simulated (and trace-emitting) core count.
    pub fn cores(&self) -> u32 {
        self.cores
    }

    /// A fresh source over the stream.
    pub fn source(&self) -> Box<dyn TraceSource + Send> {
        (self.make)()
    }

    /// The full classify key of this stream under a machine config.
    pub fn key(&self, cfg: &MachineConfig, msc_capacity: ByteSize) -> ClassifyKey {
        ClassifyKey::new(
            self.label.clone(),
            self.cores,
            classify_signature(cfg, msc_capacity),
        )
    }
}

/// Whether sweeps replay from classified artifacts (`SWEEP_REUSE`,
/// default on; `0`/`false` falls back to regenerate-per-setup;
/// garbage warns once via [`simfabric::env`]).
pub fn sweep_reuse_enabled() -> bool {
    simfabric::env::bool_var("SWEEP_REUSE").unwrap_or(true)
}

/// The classified artifact for `spec` under `cfg`, through the global
/// [`ClassifyCache`]: built (streamed, never materializing the raw
/// trace) on first use, shared by every later sweep point whose key
/// matches — across experiments, not just within one sweep. A
/// cache-mode artifact is derived from the flat artifact of the same
/// trace, itself fetched through this function (one counted lookup),
/// by one memory-side-cache pass
/// ([`ClassifiedTrace::with_memory_side_cache`]), and cached under
/// its own key. Builds go through the in-flight guard
/// ([`SharedClassifyCache`](knl::SharedClassifyCache)), so concurrent
/// callers missing on one key — advisor-service workers, say — run
/// one classification and share its artifact.
pub fn classified_for(
    spec: &TraceSpec,
    cfg: &MachineConfig,
    msc_capacity: ByteSize,
) -> Arc<ClassifiedTrace> {
    let key = spec.key(cfg, msc_capacity);
    knl::global_classify_cache().get_or_build(&key, || match flat_sibling(cfg) {
        Some(flat) => {
            classified_for(spec, &flat, msc_capacity).with_memory_side_cache(cfg, msc_capacity)
        }
        None => classify_streaming(
            cfg,
            spec.cores,
            msc_capacity,
            spec.label(),
            spec.source().as_mut(),
        ),
    })
}

/// Replay `spec` through an existing simulator (so callers can enable
/// telemetry or tweak knobs first). `cfg`/`msc_capacity` must be the
/// values the simulator was constructed from — asserted via the
/// classify signature. Honors [`sweep_reuse_enabled`]: with reuse off
/// this *is* the old regenerate-per-setup path
/// ([`replay_streaming`] from a fresh source), so the two modes
/// price exactly the artifact reuse, nothing else.
pub fn replay_into(
    sim: &mut TraceSim,
    spec: &TraceSpec,
    cfg: &MachineConfig,
    msc_capacity: ByteSize,
) -> TraceSimReport {
    assert_eq!(
        sim.classify_signature(),
        classify_signature(cfg, msc_capacity),
        "replay_into called with a config the simulator was not built from"
    );
    if sweep_reuse_enabled() {
        let ct = classified_for(spec, cfg, msc_capacity);
        sim.run_classified(&ct)
    } else {
        replay_streaming(sim, spec.source().as_mut())
    }
}

/// Replay one sweep point: a fresh simulator for
/// (`cfg`, `placement`, `msc_capacity`), fed from the classified
/// artifact (or a fresh stream with reuse disabled). Returns the
/// simulator too — device/migration stats live on it.
pub fn replay_point(
    spec: &TraceSpec,
    cfg: &MachineConfig,
    placement: TracePlacement,
    msc_capacity: ByteSize,
) -> (TraceSim, TraceSimReport) {
    let mut sim = TraceSim::new(cfg, spec.cores, placement, msc_capacity);
    let report = replay_into(&mut sim, spec, cfg, msc_capacity);
    (sim, report)
}

/// Snapshot of the global classify cache as `replay.classify.*`
/// metrics (hit/miss/eviction counters, current/high-water/budget
/// byte gauges).
pub fn classify_metrics() -> MetricsRegistry {
    with_global_classify_cache(|cache| cache.metrics_registry())
}

/// Serializes the tests that classify through the process-global
/// classify cache. Its hit/miss counters and LRU contents are shared by
/// every test in the binary, so a test that asserts on them would
/// otherwise see misses and evictions from tests running beside it.
/// Every such test holds this guard for its whole body.
#[cfg(test)]
pub(crate) fn lock_global_classify_cache() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;
    use knl::MemSetup;
    use workloads::tracegen::collect;

    fn spec() -> TraceSpec {
        TraceSpec::from_kind(TraceKind::Stream, 4, 200, 0x5EED)
    }

    #[test]
    fn spec_sources_are_reproducible_and_labelled() {
        let s = spec();
        assert_eq!(s.label(), TraceKind::Stream.spec(4, 200, 0x5EED));
        assert_eq!(s.cores(), 4);
        let a = collect(s.source().as_mut());
        let b = collect(s.source().as_mut());
        assert_eq!(a, b, "spec factories must be pure");
        assert!(!a.is_empty());
    }

    #[test]
    fn flat_setups_share_one_key_and_cache_mode_does_not() {
        let s = spec();
        let msc = ByteSize::mib(8);
        let ddr = s.key(&MachineConfig::knl7210(MemSetup::DramOnly, 64), msc);
        let hbm = s.key(&MachineConfig::knl7210(MemSetup::HbmOnly, 64), msc);
        let cache = s.key(&MachineConfig::knl7210(MemSetup::CacheMode, 64), msc);
        assert_eq!(ddr, hbm);
        assert_ne!(ddr, cache);
    }

    #[test]
    fn classified_for_hits_the_global_cache_on_reuse() {
        let _cache = lock_global_classify_cache();
        // A spec label no other test uses, so the first call misses.
        let s = TraceSpec::new("sweeptest:stream:4x150:seed=0x51", 4, || {
            TraceKind::Stream.source(4, 150, 0x51)
        });
        let cfg = MachineConfig::knl7210(MemSetup::DramOnly, 64);
        let before = with_global_classify_cache(|c| c.stats());
        let a = classified_for(&s, &cfg, ByteSize::mib(8));
        let b = classified_for(&s, &cfg, ByteSize::mib(8));
        let after = with_global_classify_cache(|c| c.stats());
        assert!(Arc::ptr_eq(&a, &b), "second lookup must share the artifact");
        assert_eq!(after.misses - before.misses, 1);
        assert!(after.hits > before.hits);
        assert_eq!(a.accesses(), 4 * 150);
    }

    #[test]
    fn cache_mode_derives_from_one_flat_build() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let _cache = lock_global_classify_cache();
        static SOURCES: AtomicUsize = AtomicUsize::new(0);
        // A label no other test uses, so the flat artifact starts cold.
        let s = TraceSpec::new("sweeptest:gups:4x400:seed=0x52", 4, || {
            SOURCES.fetch_add(1, Ordering::SeqCst);
            TraceKind::Gups.source(4, 400, 0x52)
        });
        let cache = MachineConfig::knl7210(MemSetup::CacheMode, 64);
        let flat = MachineConfig::knl7210(MemSetup::DramOnly, 64);
        let stats = || with_global_classify_cache(|c| c.stats());
        let before = stats();
        let small = classified_for(&s, &cache, ByteSize::kib(64));
        let mid = stats();
        assert_eq!(SOURCES.load(Ordering::SeqCst), 1, "one generator run");
        assert_eq!(
            mid.misses - before.misses,
            2,
            "one flat build, one derivation"
        );
        assert_eq!(
            mid.hits, before.hits,
            "a cold flat lookup is a build, not a hit"
        );
        let large = classified_for(&s, &cache, ByteSize::mib(8));
        let after = stats();
        assert_eq!(
            SOURCES.load(Ordering::SeqCst),
            1,
            "a second MSC capacity derives from the cached flat artifact"
        );
        assert_eq!(after.misses - mid.misses, 1, "the derivation only");
        assert_eq!(after.hits - mid.hits, 1, "the flat sibling's lookup");
        let base = classified_for(&s, &flat, ByteSize::mib(8));
        assert_eq!(base.accesses(), small.accesses());
        for (ct, msc) in [(&small, ByteSize::kib(64)), (&large, ByteSize::mib(8))] {
            assert_eq!(ct.key(), &s.key(&cache, msc));
            let mut fresh = TraceSim::new(&cache, 4, TracePlacement::AllDdr, msc);
            let want = replay_streaming(&mut fresh, s.source().as_mut());
            let mut replaying = TraceSim::new(&cache, 4, TracePlacement::AllDdr, msc);
            assert_eq!(
                replaying.run_classified(ct),
                want,
                "derived artifact must replay bit-identically (msc {msc:?})"
            );
        }
    }

    #[test]
    fn replay_point_matches_fresh_replay_in_both_modes() {
        let _cache = lock_global_classify_cache();
        let s = spec();
        let cfg = MachineConfig::knl7210(MemSetup::DramOnly, 64);
        let mut fresh = TraceSim::new(&cfg, 4, TracePlacement::AllDdr, ByteSize::mib(8));
        let want = replay_streaming(&mut fresh, s.source().as_mut());
        let (_, got) = replay_point(&s, &cfg, TracePlacement::AllDdr, ByteSize::mib(8));
        assert_eq!(got, want, "classified replay must be bit-identical");
        let metrics = classify_metrics();
        assert!(metrics.get("replay.classify.hits").is_some());
    }

    #[test]
    #[should_panic(expected = "not built from")]
    fn replay_into_rejects_mismatched_configs() {
        let s = spec();
        let flat = MachineConfig::knl7210(MemSetup::DramOnly, 64);
        let cache = MachineConfig::knl7210(MemSetup::CacheMode, 64);
        let mut sim = TraceSim::new(&flat, 4, TracePlacement::AllDdr, ByteSize::mib(8));
        replay_into(&mut sim, &s, &cache, ByteSize::mib(8));
    }
}
