//! Sequential-equivalence differential suite for the sharded parallel
//! and streaming trace engines: for every workload trace generator,
//! every paper memory setup, and a 1/2/4/8 worker-thread ladder, both
//! `run_parallel` (over the materialized trace) and `run_streaming`
//! (fed chunk-by-chunk from the generator's `TraceSource`) must
//! produce reports and device statistics **bit-identical** to the
//! sequential reference `run`. This is the correctness contract that
//! makes the parallel/streaming speedup trustworthy: "parallel ==
//! sequential, only faster".

use knl::tracesim::{TraceAccess, TracePlacement, TraceSim, TraceSimReport};
use knl::{MachineConfig, MemSetup};
use memkind_sim::MigrationSpec;
use simfabric::{par, ByteSize};
use workloads::tracegen::{replay_streaming, HotColdSource, TraceKind, TraceSource};

const CORES: u32 = 8;
const PER_CORE: u64 = 400;
const SEED: u64 = 0xD1FF;
const WORKERS: [usize; 4] = [1, 2, 4, 8];

fn placement(setup: MemSetup) -> TracePlacement {
    match setup {
        MemSetup::HbmOnly => TracePlacement::AllHbm,
        _ => TracePlacement::AllDdr,
    }
}

fn fresh(setup: MemSetup) -> TraceSim {
    TraceSim::new(
        &MachineConfig::knl7210(setup, 64),
        CORES,
        placement(setup),
        ByteSize::mib(4),
    )
}

/// Replay `kind` under `setup` sequentially and at every worker count;
/// assert everything observable is identical.
fn check(kind: TraceKind, setup: MemSetup) {
    let trace = kind.generate(CORES, PER_CORE, SEED);
    assert!(!trace.is_empty(), "{kind:?} generated an empty trace");
    let mut seq = fresh(setup);
    let expect: TraceSimReport = seq.run(&trace);
    for workers in WORKERS {
        let mut par_sim = fresh(setup);
        let got = par::with_threads(workers, || par_sim.run_parallel(&trace));
        let ctx = format!("{kind:?} under {setup:?} at {workers} workers");
        assert_eq!(got, expect, "report diverged: {ctx}");
        assert_eq!(
            par_sim.per_core_totals(),
            seq.per_core_totals(),
            "per-shard totals diverged: {ctx}"
        );
        assert_eq!(
            par_sim.ddr_stats(),
            seq.ddr_stats(),
            "DDR bank stats diverged: {ctx}"
        );
        assert_eq!(
            par_sim.hbm_stats(),
            seq.hbm_stats(),
            "MCDRAM bank stats diverged: {ctx}"
        );
        assert_eq!(
            par_sim.mesh_stats(),
            seq.mesh_stats(),
            "mesh stats diverged: {ctx}"
        );

        let mut stream_sim = fresh(setup);
        let got = par::with_threads(workers, || {
            let mut source = kind.source(CORES, PER_CORE, SEED);
            replay_streaming(&mut stream_sim, source.as_mut())
        });
        let ctx = format!("streaming {kind:?} under {setup:?} at {workers} workers");
        assert_eq!(got, expect, "report diverged: {ctx}");
        assert_eq!(
            stream_sim.per_core_totals(),
            seq.per_core_totals(),
            "per-shard totals diverged: {ctx}"
        );
        assert_eq!(
            stream_sim.ddr_stats(),
            seq.ddr_stats(),
            "DDR bank stats diverged: {ctx}"
        );
        assert_eq!(
            stream_sim.hbm_stats(),
            seq.hbm_stats(),
            "MCDRAM bank stats diverged: {ctx}"
        );
        assert_eq!(
            stream_sim.mesh_stats(),
            seq.mesh_stats(),
            "mesh stats diverged: {ctx}"
        );
    }
}

#[test]
fn stream_parallel_equals_sequential() {
    for setup in MemSetup::PAPER_SETUPS {
        check(TraceKind::Stream, setup);
    }
}

#[test]
fn gups_parallel_equals_sequential() {
    for setup in MemSetup::PAPER_SETUPS {
        check(TraceKind::Gups, setup);
    }
}

#[test]
fn chase_parallel_equals_sequential() {
    for setup in MemSetup::PAPER_SETUPS {
        check(TraceKind::Chase, setup);
    }
}

#[test]
fn xsbench_parallel_equals_sequential() {
    for setup in MemSetup::PAPER_SETUPS {
        check(TraceKind::XsBench, setup);
    }
}

#[test]
fn bfs_parallel_equals_sequential() {
    for setup in MemSetup::PAPER_SETUPS {
        check(TraceKind::Bfs, setup);
    }
}

#[test]
fn split_placement_parallel_equals_sequential() {
    // The SplitAt placement exercises both devices in one run.
    let trace = TraceKind::Bfs.generate(CORES, PER_CORE, SEED ^ 0x5917);
    let cfg = MachineConfig::knl7210(MemSetup::DramOnly, 64);
    let mk = || {
        TraceSim::new(
            &cfg,
            CORES,
            TracePlacement::SplitAt(16 << 20),
            ByteSize::mib(4),
        )
    };
    let mut seq = mk();
    let expect = seq.run(&trace);
    assert!(expect.memory_accesses > 0);
    for workers in WORKERS {
        let mut par_sim = mk();
        let got = par::with_threads(workers, || par_sim.run_parallel(&trace));
        assert_eq!(got, expect, "split placement at {workers} workers");
        assert_eq!(par_sim.ddr_stats(), seq.ddr_stats());
        assert_eq!(par_sim.hbm_stats(), seq.hbm_stats());

        let mut stream_sim = mk();
        let got = par::with_threads(workers, || {
            let mut source = TraceKind::Bfs.source(CORES, PER_CORE, SEED ^ 0x5917);
            replay_streaming(&mut stream_sim, source.as_mut())
        });
        assert_eq!(
            got, expect,
            "streaming split placement at {workers} workers"
        );
        assert_eq!(stream_sim.ddr_stats(), seq.ddr_stats());
        assert_eq!(stream_sim.hbm_stats(), seq.hbm_stats());
    }
}

/// The device/shard portion of a metrics registry — everything except
/// the `pipeline.*` stall counters and `replay.peak_buffer_bytes`,
/// which measure wall-clock scheduling and are legitimately different
/// between the sequential, sharded, and streaming paths.
fn deterministic_metrics(sim: &TraceSim) -> Vec<(String, simfabric::telemetry::MetricValue)> {
    sim.metrics_registry()
        .iter()
        .filter(|(name, _)| !name.starts_with("pipeline.") && !name.starts_with("replay."))
        .map(|(name, value)| (name.to_string(), value.clone()))
        .collect()
}

/// Fold the per-shard registries the way a distributed collector
/// would: order-independent merge over core IDs.
fn merged_shards(sim: &TraceSim) -> simfabric::MetricsRegistry {
    let mut merged = simfabric::MetricsRegistry::new();
    for core in 0..CORES as usize {
        merged.merge(&sim.shard_metrics(core));
    }
    merged
}

/// Telemetry must be (1) invisible to replay results and (2) a
/// commutative-merge view: the fold of per-shard registries and the
/// full device registry both land on the sequential values no matter
/// which engine ran or at what worker count.
#[test]
fn telemetry_registries_merge_to_sequential_values() {
    let setup = MemSetup::CacheMode;
    for kind in TraceKind::ALL {
        let trace = kind.generate(CORES, PER_CORE, SEED);
        let mut plain = fresh(setup);
        let expect = plain.run(&trace);

        let mut seq = fresh(setup);
        seq.enable_telemetry();
        assert_eq!(
            seq.run(&trace),
            expect,
            "telemetry changed {kind:?} results"
        );
        let expect_shards = merged_shards(&seq);
        let expect_metrics = deterministic_metrics(&seq);

        for workers in WORKERS {
            let ctx = format!("{kind:?} at {workers} workers");
            let mut par_sim = fresh(setup);
            par_sim.enable_telemetry();
            let got = par::with_threads(workers, || par_sim.run_parallel(&trace));
            assert_eq!(got, expect, "parallel report diverged: {ctx}");
            assert_eq!(
                merged_shards(&par_sim),
                expect_shards,
                "parallel shard registries diverged: {ctx}"
            );
            assert_eq!(
                deterministic_metrics(&par_sim),
                expect_metrics,
                "parallel device metrics diverged: {ctx}"
            );

            let mut stream_sim = fresh(setup);
            stream_sim.enable_telemetry();
            let got = par::with_threads(workers, || {
                let mut source = kind.source(CORES, PER_CORE, SEED);
                replay_streaming(&mut stream_sim, source.as_mut())
            });
            assert_eq!(got, expect, "streaming report diverged: {ctx}");
            assert_eq!(
                merged_shards(&stream_sim),
                expect_shards,
                "streaming shard registries diverged: {ctx}"
            );
            assert_eq!(
                deterministic_metrics(&stream_sim),
                expect_metrics,
                "streaming device metrics diverged: {ctx}"
            );
        }
    }
}

/// A hand-built adversarial trace for the windowed replay. Every core
/// rotates through four interaction patterns that stress the shared
/// timing state:
///
/// - **shared hot lines**: all cores hammer the same eight lines, so
///   the same banks and rows serialize across owners and per-core
///   MSHRs fill with overlapping in-flight lines;
/// - **single-channel hammer**: a stride equal to one full channel
///   round piles every access of the burst onto one DRAM lane;
/// - **dependent chase**: per-core pointer chases that block the core
///   on each completion;
/// - **write bursts**: densely-strided writes that keep the MSHR file
///   at capacity (the stall path).
///
/// Repeated same-line accesses within a core also exercise
/// secondary-miss merges against in-flight primaries.
fn contention_trace(cores: u32, per_core: u64) -> Vec<TraceAccess> {
    let mut trace = Vec::new();
    // DDR has 6 channels and MCDRAM 8; a 64-line stride is a whole
    // number of rounds of both, so each burst stays on one channel.
    let channel_round = 64 * 64u64;
    for i in 0..per_core {
        for core in 0..cores {
            let private = 1u64 << 28 | u64::from(core) << 22;
            match i % 4 {
                0 => trace.push(TraceAccess::read(core, (i % 8) * 64)),
                1 => trace.push(TraceAccess::read(core, (1 << 26) + (i / 4) * channel_round)),
                2 => trace.push(TraceAccess::chase(core, private + (i * 4096) % (1 << 22))),
                _ => trace.push(TraceAccess::write(core, private + (i / 4) * 64)),
            }
        }
    }
    trace
}

/// Stress test: the adversarial contention trace must stay
/// bit-identical to the sequential oracle across worker counts, paper
/// setups, and a replay window small enough to force many refills
/// mid-contention.
#[test]
fn contention_stress_parallel_equals_sequential() {
    let trace = contention_trace(CORES, PER_CORE);
    for setup in [MemSetup::DramOnly, MemSetup::HbmOnly, MemSetup::CacheMode] {
        let mut seq = fresh(setup);
        let expect = seq.run(&trace);
        assert!(
            expect.memory_accesses > 0,
            "contention trace must reach memory under {setup:?}"
        );
        for workers in WORKERS {
            let mut sim = fresh(setup);
            sim.set_replay_window(512);
            let got = par::with_threads(workers, || sim.run_parallel(&trace));
            let ctx = format!("contention {setup:?} workers={workers}");
            assert_eq!(got, expect, "report diverged: {ctx}");
            assert_eq!(
                sim.per_core_totals(),
                seq.per_core_totals(),
                "per-shard totals diverged: {ctx}"
            );
            assert_eq!(
                sim.ddr_stats(),
                seq.ddr_stats(),
                "DDR stats diverged: {ctx}"
            );
            assert_eq!(
                sim.hbm_stats(),
                seq.hbm_stats(),
                "HBM stats diverged: {ctx}"
            );
            assert_eq!(
                sim.mesh_stats(),
                seq.mesh_stats(),
                "mesh stats diverged: {ctx}"
            );
        }
    }
}

/// The same adversarial trace with telemetry enabled: order-sensitive
/// recorders (MSHR occupancy, DRAM queue-wait histograms) must land on
/// the sequential values across refills.
#[test]
fn contention_stress_telemetry_matches_sequential() {
    let trace = contention_trace(CORES, PER_CORE / 2);
    let setup = MemSetup::CacheMode;
    let mut plain = fresh(setup);
    let expect = plain.run(&trace);
    let mut seq = fresh(setup);
    seq.enable_telemetry();
    assert_eq!(seq.run(&trace), expect, "telemetry changed results");
    let expect_metrics = deterministic_metrics(&seq);
    for workers in WORKERS {
        let mut sim = fresh(setup);
        sim.enable_telemetry();
        sim.set_replay_window(512);
        let got = par::with_threads(workers, || sim.run_parallel(&trace));
        let ctx = format!("contention telemetry workers={workers}");
        assert_eq!(got, expect, "report diverged: {ctx}");
        assert_eq!(
            deterministic_metrics(&sim),
            expect_metrics,
            "device metrics diverged: {ctx}"
        );
    }
}

/// Period/budget for the migration equivalence runs: small enough that
/// a 3200-access trace crosses many rebalance boundaries, so remap
/// events interleave densely with the accesses every engine replays.
const MIGRATE_SPEC: MigrationSpec = MigrationSpec::new(256, 16);

fn fresh_migrated() -> TraceSim {
    TraceSim::new(
        &MachineConfig::knl7210(MemSetup::DramOnly, 64),
        CORES,
        TracePlacement::Migrated(MIGRATE_SPEC),
        ByteSize::mib(4),
    )
}

/// Replay `trace` under active migration sequentially, sharded (with a
/// small window so remaps straddle window refills), and streaming;
/// everything observable — including the
/// scheduler's move-sequence digest — must be bit-identical. A remap
/// landing one access early or late on any engine changes the routing
/// of that access and shows up in the digest and device stats.
fn check_migration(
    label: &str,
    trace: &[TraceAccess],
    mut source: impl FnMut() -> Box<dyn TraceSource + Send>,
) {
    let mut seq = fresh_migrated();
    let expect = seq.run(trace);
    let expect_stats = seq
        .migration_stats()
        .expect("Migrated placement must build a scheduler");
    assert!(
        expect_stats.rebalances > 0,
        "{label}: trace too short to cross a rebalance boundary"
    );
    for workers in WORKERS {
        let mut sim = fresh_migrated();
        sim.set_replay_window(512);
        let got = par::with_threads(workers, || sim.run_parallel(trace));
        let ctx = format!("migrated {label} workers={workers}");
        assert_eq!(got, expect, "report diverged: {ctx}");
        assert_eq!(
            sim.migration_stats().as_ref(),
            Some(&expect_stats),
            "migration stats diverged: {ctx}"
        );
        assert_eq!(
            sim.per_core_totals(),
            seq.per_core_totals(),
            "per-shard totals diverged: {ctx}"
        );
        assert_eq!(
            sim.ddr_stats(),
            seq.ddr_stats(),
            "DDR stats diverged: {ctx}"
        );
        assert_eq!(
            sim.hbm_stats(),
            seq.hbm_stats(),
            "HBM stats diverged: {ctx}"
        );
        assert_eq!(
            sim.mesh_stats(),
            seq.mesh_stats(),
            "mesh stats diverged: {ctx}"
        );

        let mut stream_sim = fresh_migrated();
        let got = par::with_threads(workers, || {
            let mut src = source();
            replay_streaming(&mut stream_sim, src.as_mut())
        });
        let ctx = format!("migrated streaming {label} workers={workers}");
        assert_eq!(got, expect, "report diverged: {ctx}");
        assert_eq!(
            stream_sim.migration_stats().as_ref(),
            Some(&expect_stats),
            "migration stats diverged: {ctx}"
        );
        assert_eq!(
            stream_sim.ddr_stats(),
            seq.ddr_stats(),
            "DDR stats diverged: {ctx}"
        );
        assert_eq!(
            stream_sim.hbm_stats(),
            seq.hbm_stats(),
            "HBM stats diverged: {ctx}"
        );
    }
}

/// Migration equivalence across the five paper generators: remaps must
/// land at the same trace offset no matter how the replay is sharded.
#[test]
fn migration_parallel_equals_sequential() {
    for kind in TraceKind::ALL {
        let trace = kind.generate(CORES, PER_CORE, SEED);
        check_migration(&format!("{kind:?}"), &trace, || {
            kind.source(CORES, PER_CORE, SEED)
        });
    }
}

/// Same contract on the phased hot/cold workload the `T`-sweep uses —
/// the one trace where the scheduler actually promotes and demotes
/// whole waves of pages every period.
#[test]
fn migration_hot_cold_parallel_equals_sequential() {
    let (phases, per_core) = (3, 160);
    let (hot, cold) = (64 << 10, 4 << 20);
    let mk = || -> Box<dyn TraceSource + Send> {
        Box::new(HotColdSource::new(CORES, phases, per_core, hot, cold, SEED))
    };
    let trace = {
        let mut src = mk();
        let mut out = Vec::new();
        while let Some(a) = src.next_access() {
            out.push(a);
        }
        out
    };
    let mut seq = fresh_migrated();
    seq.run(&trace);
    let stats = seq.migration_stats().unwrap();
    assert!(
        stats.promoted_pages > 0 && stats.demoted_pages > 0,
        "hot/cold trace must drive promotions and demotions, got {stats:?}"
    );
    check_migration("HotCold", &trace, mk);
}

/// Tentpole contract for in-replay time-series sampling: enabling the
/// sampler must leave replay results bit-identical, and the sampled
/// windows themselves must be bit-identical across the sequential,
/// sharded, and streaming entry points at every worker count — the
/// sampling clock is merge-order simulated
/// progress, not wall time, so the exported JSONL matches byte for
/// byte. Covers all five paper generators.
#[test]
fn timeseries_sampling_invisible_and_identical_across_engines() {
    // Co-prime with the generators' burst lengths so boundaries land
    // on every access class, not just burst edges.
    const INTERVAL: u64 = 257;
    const CAPACITY: usize = 64;
    let setup = MemSetup::CacheMode;
    for kind in TraceKind::ALL {
        let trace = kind.generate(CORES, PER_CORE, SEED);
        let mut plain = fresh(setup);
        let expect = plain.run(&trace);

        let mut seq = fresh(setup);
        seq.enable_timeseries(INTERVAL, CAPACITY);
        assert_eq!(seq.run(&trace), expect, "sampling changed {kind:?} results");
        let rec = seq.timeseries().expect("sampling enabled");
        assert!(
            rec.windows().count() > 1,
            "{kind:?}: trace too short to close multiple windows"
        );
        let expect_jsonl = rec.to_jsonl();

        for workers in WORKERS {
            let mut sim = fresh(setup);
            sim.enable_timeseries(INTERVAL, CAPACITY);
            sim.set_replay_window(512);
            let got = par::with_threads(workers, || sim.run_parallel(&trace));
            let ctx = format!("{kind:?} workers={workers}");
            assert_eq!(got, expect, "sampled report diverged: {ctx}");
            assert_eq!(
                sim.timeseries().expect("sampling enabled").to_jsonl(),
                expect_jsonl,
                "sampled windows diverged: {ctx}"
            );

            let mut stream_sim = fresh(setup);
            stream_sim.enable_timeseries(INTERVAL, CAPACITY);
            let got = par::with_threads(workers, || {
                let mut source = kind.source(CORES, PER_CORE, SEED);
                replay_streaming(&mut stream_sim, source.as_mut())
            });
            let ctx = format!("streaming {kind:?} workers={workers}");
            assert_eq!(got, expect, "sampled report diverged: {ctx}");
            assert_eq!(
                stream_sim
                    .timeseries()
                    .expect("sampling enabled")
                    .to_jsonl(),
                expect_jsonl,
                "sampled windows diverged: {ctx}"
            );
        }
    }
}

/// The migration series under a deliberately tiny ring: the resident
/// and move counts sampled mid-wave, plus the ring-drop count, must be
/// identical on every engine — and the hot/cold workload guarantees
/// the series actually moves (promotion and demotion waves).
#[test]
fn timeseries_migration_series_identical_across_engines() {
    const INTERVAL: u64 = 131;
    const CAPACITY: usize = 4; // force ring eviction
    let (phases, per_core) = (3, 160);
    let (hot, cold) = (64 << 10, 4 << 20);
    let mk_src = || -> Box<dyn TraceSource + Send> {
        Box::new(HotColdSource::new(CORES, phases, per_core, hot, cold, SEED))
    };
    let trace = {
        let mut src = mk_src();
        let mut out = Vec::new();
        while let Some(a) = src.next_access() {
            out.push(a);
        }
        out
    };
    let mut plain = fresh_migrated();
    let expect = plain.run(&trace);

    let mut seq = fresh_migrated();
    seq.enable_timeseries(INTERVAL, CAPACITY);
    assert_eq!(seq.run(&trace), expect, "sampling changed migrated results");
    let rec = seq.timeseries().expect("sampling enabled");
    assert!(rec.dropped() > 0, "ring must overflow at capacity 4");
    let resident = rec
        .series_names()
        .iter()
        .position(|&n| n == "migrate.resident_pages")
        .expect("resident series registered");
    assert!(
        rec.windows().any(|w| w.values[resident] > 0.0),
        "resident-page series never moved"
    );
    let expect_jsonl = rec.to_jsonl();

    for workers in WORKERS {
        let mut sim = fresh_migrated();
        sim.enable_timeseries(INTERVAL, CAPACITY);
        sim.set_replay_window(512);
        let got = par::with_threads(workers, || sim.run_parallel(&trace));
        let ctx = format!("migrated sampling workers={workers}");
        assert_eq!(got, expect, "report diverged: {ctx}");
        assert_eq!(
            sim.timeseries().expect("sampling enabled").to_jsonl(),
            expect_jsonl,
            "sampled windows diverged: {ctx}"
        );

        let mut stream_sim = fresh_migrated();
        stream_sim.enable_timeseries(INTERVAL, CAPACITY);
        let got = par::with_threads(workers, || {
            let mut src = mk_src();
            replay_streaming(&mut stream_sim, src.as_mut())
        });
        let ctx = format!("migrated streaming sampling workers={workers}");
        assert_eq!(got, expect, "report diverged: {ctx}");
        assert_eq!(
            stream_sim
                .timeseries()
                .expect("sampling enabled")
                .to_jsonl(),
            expect_jsonl,
            "sampled windows diverged: {ctx}"
        );
    }
}

#[test]
fn figure_sweep_json_identical_across_worker_counts() {
    // The figure pipeline (`repro export`) must serialize byte-identical
    // JSON no matter how many workers evaluate the sweeps.
    let capture = || {
        let series = hybridmem::SizeSweep::paper(hybridmem::AppSpec::Stream, vec![2.0, 24.0]).run();
        let fig = hybridmem::FigureData {
            id: "fig-eq".into(),
            title: "worker-count determinism".into(),
            x_label: "Size (GB)".into(),
            y_label: "GB/s".into(),
            series,
            text: String::new(),
        };
        hybridmem::Archive::capture("equivalence check", vec![fig]).to_json()
    };
    let one = par::with_threads(1, capture);
    let eight = par::with_threads(8, capture);
    assert_eq!(one.as_bytes(), eight.as_bytes());
}
