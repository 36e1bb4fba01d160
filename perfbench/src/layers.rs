//! Per-layer measurement for the traced run. Every layer is driven
//! from outside, through its public functions, with the workload's own
//! access stream; the replay's deterministic op counts come from
//! `TraceSim::metrics_registry()`.

use crate::util::{report_problems, secs, Checks, Tracer};
use cachesim::{AccessKind, Hierarchy, HierarchyConfig, LevelHit, Mshr, MshrOutcome};
use hybridmem::advisor::ReplayedAdvice;
use hybridmem::sweep::{classified_for, classify_metrics, replay_into, TraceSpec};
use hybridmem::{advice_to_json, canonicalize, check_advice, AdvisorQuery, QueryKey};
use knl::tracesim::TracePlacement;
use knl::{MachineConfig, MemSetup, TraceAccess, TraceSim, TraceSimReport};
use memdev::bank::DramModel;
use memkind_sim::migrate::{MigrationCost, MigrationSpec, PageScheduler};
use mesh::{ClusterMode, MeshModel, MeshTally};
use simfabric::{ByteSize, Duration, LoserTree, MetricValue, MetricsRegistry, SimTime};
use std::hint::black_box;
use std::io::Write;
use std::time::Instant;
use workloads::tracegen::{replay_streaming, DEFAULT_CHUNK};

/// One reported metric: name, value, unit.
pub type Metric = (&'static str, f64, &'static str);

/// One core clock cycle at the modelled 1.3 GHz, in picoseconds.
const CYCLE_PS: u64 = 770;
/// Fixed memory round trip used to pace the MSHR and merge drives.
const MEMORY_PS: u64 = 150_000;

/// The paper's three memory setups, as replay points.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Setup {
    Ddr,
    Hbm,
    Cache,
}

impl Setup {
    pub const ALL: [Setup; 3] = [Setup::Ddr, Setup::Hbm, Setup::Cache];

    pub fn label(self) -> &'static str {
        match self {
            Setup::Ddr => "ddr",
            Setup::Hbm => "hbm",
            Setup::Cache => "cache",
        }
    }

    pub fn mem_setup(self) -> MemSetup {
        match self {
            Setup::Ddr => MemSetup::DramOnly,
            Setup::Hbm => MemSetup::HbmOnly,
            Setup::Cache => MemSetup::CacheMode,
        }
    }

    pub fn placement(self) -> TracePlacement {
        match self {
            Setup::Hbm => TracePlacement::AllHbm,
            _ => TracePlacement::AllDdr,
        }
    }
}

/// One replay point: a trace (index into the workload's specs) under
/// one setup, with the memory-side-cache capacity cache mode uses.
#[derive(Debug, Clone, Copy)]
pub struct PointDef {
    pub spec: usize,
    pub setup: Setup,
    pub msc: ByteSize,
}

impl PointDef {
    pub fn config(&self) -> MachineConfig {
        MachineConfig::knl7210(self.setup.mem_setup(), 64)
    }
}

/// What the traced replay of one point recorded.
pub struct PointRun {
    pub def: PointDef,
    pub report: TraceSimReport,
    pub registry: MetricsRegistry,
    pub replay_secs: f64,
    /// Wall time and accesses of the classification, when the point
    /// found its classify key cold.
    pub cold_classify: Option<(f64, u64)>,
}

/// Replay every point from a cold classify cache with spans around
/// each layer call (`classified_for`, `TraceSim::new`,
/// `run_classified`), then check each report twice: against a replay
/// with the simulator's own telemetry on (whose device queue-wait
/// histograms it keeps), and against a fresh regenerate-and-classify
/// replay through `replay_streaming`.
pub fn traced_points(
    specs: &[TraceSpec],
    expected: &[u64],
    defs: &[PointDef],
    tracer: &mut Tracer,
    checks: &mut Checks,
) -> Traced {
    knl::with_global_classify_cache(|c| c.clear());
    let classify_before = classify_metrics();
    let started = Instant::now();
    let mut runs = Vec::with_capacity(defs.len());
    for (i, def) in defs.iter().enumerate() {
        let request = i as u64 + 1;
        let spec = &specs[def.spec];
        let cfg = def.config();
        let root = tracer.begin();
        let misses_before = classify_misses();
        let span = tracer.begin();
        let ct = classified_for(spec, &cfg, def.msc);
        let classify_secs = tracer.end(span, "knl.classified.classified_for", root.id, request);
        let cold = classify_misses() > misses_before;
        let span = tracer.begin();
        let mut sim = TraceSim::new(&cfg, spec.cores(), def.setup.placement(), def.msc);
        tracer.end(span, "knl.tracesim.new", root.id, request);
        let span = tracer.begin();
        let report = sim.run_classified(&ct);
        let replay_secs = tracer.end(span, run_span_name(def.setup), root.id, request);
        tracer.end(root, "point", 0, request);
        checks.op(
            &format!("traced point {} {}", spec.label(), def.setup.label()),
            &report_problems(&report, expected[def.spec]),
        );
        runs.push(PointRun {
            def: *def,
            report,
            registry: sim.metrics_registry(),
            replay_secs,
            cold_classify: cold.then(|| (classify_secs, ct.accesses())),
        });
    }
    let traced_secs = secs(started);
    let classify_after = classify_metrics();
    let delta = |name: &str| counter(&classify_after, name) - counter(&classify_before, name);
    let (hits, misses) = (
        delta("replay.classify.hits"),
        delta("replay.classify.misses"),
    );
    let mut telemetry = MetricsRegistry::new();
    for run in &runs {
        let spec = &specs[run.def.spec];
        let cfg = run.def.config();
        let mut sim = TraceSim::new(&cfg, spec.cores(), run.def.setup.placement(), run.def.msc);
        sim.enable_telemetry();
        let with_telemetry = replay_into(&mut sim, spec, &cfg, run.def.msc);
        telemetry.merge(&sim.metrics_registry());
        let mut fresh = TraceSim::new(&cfg, spec.cores(), run.def.setup.placement(), run.def.msc);
        let streamed = replay_streaming(&mut fresh, spec.source().as_mut());
        let mut problems = Vec::new();
        if with_telemetry != run.report {
            problems.push("report changes with telemetry on".to_string());
        }
        if streamed != run.report {
            problems.push("replay_streaming re-derivation gives another report".to_string());
        }
        checks.op(
            &format!(
                "re-derived point {} {}",
                spec.label(),
                run.def.setup.label()
            ),
            &problems,
        );
    }
    Traced {
        runs,
        telemetry,
        secs: traced_secs,
        classify_hit_ratio: hits as f64 / (hits + misses).max(1) as f64,
    }
}

/// The traced replay of a workload's points.
pub struct Traced {
    pub runs: Vec<PointRun>,
    /// The simulator's own telemetry registry, merged over every point.
    pub telemetry: MetricsRegistry,
    /// Wall time of the spanned replays alone.
    pub secs: f64,
    /// Classify-cache hits over lookups during the spanned replays.
    pub classify_hit_ratio: f64,
}

fn run_span_name(setup: Setup) -> &'static str {
    match setup {
        Setup::Ddr => "knl.tracesim.run_classified.ddr",
        Setup::Hbm => "knl.tracesim.run_classified.hbm",
        Setup::Cache => "knl.tracesim.run_classified.cache",
    }
}

fn classify_misses() -> u64 {
    counter(&classify_metrics(), "replay.classify.misses")
}

/// A counter (or gauge, truncated) from a registry; 0 when absent.
pub fn counter(reg: &MetricsRegistry, name: &str) -> u64 {
    match reg.get(name) {
        Some(MetricValue::Counter(n)) => *n,
        Some(MetricValue::Gauge(g)) => *g as u64,
        _ => 0,
    }
}

/// A trace drained from its source, with each access's serving level
/// under the flat private hierarchy.
pub struct Captured {
    pub cores: u32,
    pub trace: Vec<TraceAccess>,
    pub memory: Vec<bool>,
}

/// Accumulates the per-layer drives over every trace of a workload.
#[derive(Default)]
pub struct LayerDrives {
    tracegen: (f64, u64),
    hierarchy: (f64, u64),
    level_hits: [u64; 4],
    tlb: (u64, u64),
    merge: (f64, u64),
    mshr: (f64, u64),
    mesh: (f64, u64),
    bank: (f64, u64),
    migrate: (f64, u64),
    moves: u64,
}

impl LayerDrives {
    /// Drain `spec`'s source through `TraceSource::fill` (timed) and
    /// run it through per-core flat hierarchies (timed).
    pub fn capture(&mut self, spec: &TraceSpec) -> Captured {
        let mut source = spec.source();
        let mut trace = Vec::with_capacity(source.remaining().unwrap_or(0) as usize);
        let t = Instant::now();
        while source.fill(&mut trace, DEFAULT_CHUNK) > 0 {}
        self.tracegen.0 += secs(t);
        self.tracegen.1 += trace.len() as u64;

        let cfg = MachineConfig::knl7210(MemSetup::DramOnly, 64);
        let mut hier_cfg = HierarchyConfig::knl_flat(cfg.ddr.idle_latency);
        hier_cfg.memory_latency = Duration::ZERO;
        let cores = spec.cores();
        let mut hiers: Vec<Hierarchy> = (0..cores).map(|_| Hierarchy::new(hier_cfg)).collect();
        let mut memory = Vec::with_capacity(trace.len());
        let t = Instant::now();
        for a in &trace {
            let kind = if a.write {
                AccessKind::Write
            } else {
                AccessKind::Read
            };
            let (level, _) = hiers[(a.core % cores) as usize].access(a.addr, kind);
            memory.push(level == LevelHit::Memory);
        }
        self.hierarchy.0 += secs(t);
        self.hierarchy.1 += trace.len() as u64;
        for h in &hiers {
            for (i, level) in [
                LevelHit::L1,
                LevelHit::L2,
                LevelHit::McdramCache,
                LevelHit::Memory,
            ]
            .into_iter()
            .enumerate()
            {
                self.level_hits[i] += h.hits_at(level);
            }
            let tlb = h.tlb();
            self.tlb.0 += tlb.walks.get();
            self.tlb.1 += tlb.translations();
        }
        Captured {
            cores,
            trace,
            memory,
        }
    }

    /// Drive the loser-tree merge, the MSHR file, the mesh tally and
    /// both DRAM bank models with a captured trace.
    pub fn drive(&mut self, c: &Captured) {
        let cores = c.cores as usize;
        // Per-core clock steps: a dependent memory access waits for its
        // data, anything else occupies one issue slot.
        let mut steps: Vec<Vec<u64>> = vec![Vec::new(); cores];
        let mut misses: Vec<Vec<(u64, bool)>> = vec![Vec::new(); cores];
        for (a, &mem) in c.trace.iter().zip(&c.memory) {
            let core = a.core as usize % cores;
            steps[core].push(if a.dependent && mem {
                MEMORY_PS
            } else {
                CYCLE_PS
            });
            if mem {
                misses[core].push((a.addr & !63, a.dependent));
            }
        }

        let t = Instant::now();
        let mut tree: LoserTree<u64> = LoserTree::new(cores);
        let mut clock = vec![0u64; cores];
        let mut next = vec![0usize; cores];
        for (core, s) in steps.iter().enumerate() {
            if !s.is_empty() {
                tree.set(core, 0);
            }
        }
        let mut pops = 0u64;
        while let Some(core) = tree.winner() {
            match steps[core].get(next[core]) {
                Some(&step) => {
                    pops += 1;
                    next[core] += 1;
                    clock[core] += step;
                    tree.set(core, clock[core]);
                }
                None => tree.close(core),
            }
        }
        self.merge.0 += secs(t);
        self.merge.1 += pops;
        black_box(&clock);

        let capacity = knl::calib::STREAM_MLP_PER_CORE_1T as usize;
        let t = Instant::now();
        let mut registers = 0u64;
        for core_misses in &misses {
            let mut mshr = Mshr::new(capacity);
            let mut clock = SimTime::ZERO;
            for &(line, dependent) in core_misses {
                let mut issue = clock;
                let done = loop {
                    registers += 1;
                    match mshr.register(line, issue) {
                        MshrOutcome::Allocated => {
                            let done = issue + Duration::from_ps(MEMORY_PS);
                            mshr.complete_at(line, done);
                            break done;
                        }
                        MshrOutcome::Merged { ready_at } => break ready_at,
                        MshrOutcome::Stall { free_at } => issue = free_at,
                    }
                };
                clock = if dependent {
                    done
                } else {
                    issue + Duration::from_ps(CYCLE_PS)
                };
            }
            black_box(mshr.stalls.get());
        }
        self.mshr.0 += secs(t);
        self.mshr.1 += registers;

        let mut model = MeshModel::knl(ClusterMode::Quadrant);
        let hops = model.avg_memory_hops(false);
        let messages: u64 = misses.iter().map(|m| m.len() as u64).sum();
        let t = Instant::now();
        let mut tally = MeshTally::default();
        for i in 0..messages {
            tally.note(black_box(hops));
            if i % 4096 == 4095 {
                model.absorb_tally(std::mem::take(&mut tally));
            }
        }
        model.absorb_tally(tally);
        self.mesh.0 += secs(t);
        self.mesh.1 += messages;
        debug_assert_eq!(model.stats().messages.get(), messages);

        let mut ddr = DramModel::ddr4_knl();
        let mut hbm = DramModel::mcdram_knl();
        let t = Instant::now();
        let mut at = SimTime::ZERO;
        for (a, &mem) in c.trace.iter().zip(&c.memory) {
            if mem {
                at += Duration::from_ps(CYCLE_PS);
                black_box(ddr.access(a.addr, at));
                black_box(hbm.access(a.addr, at));
            }
        }
        self.bank.0 += secs(t);
        self.bank.1 += 2 * messages;
    }

    /// Drive the page-migration scheduler with a captured trace in
    /// trace order, as the migrated candidate `spec` would.
    pub fn migrate(&mut self, c: &Captured, spec: MigrationSpec) {
        let cfg = MachineConfig::knl7210(MemSetup::DramOnly, 64);
        let cost = MigrationCost::from_devices(&cfg.ddr, &cfg.mcdram);
        let Some(mut sched) = PageScheduler::new(spec, cost) else {
            return;
        };
        let t = Instant::now();
        let mut now = SimTime::ZERO;
        for (a, &mem) in c.trace.iter().zip(&c.memory) {
            now += Duration::from_ps(CYCLE_PS);
            sched.tick(a.addr, mem, now);
        }
        self.migrate.0 += secs(t);
        self.migrate.1 += c.trace.len() as u64;
        let stats = sched.stats();
        self.moves += stats.promoted_pages + stats.demoted_pages;
    }
}

fn per(total: (f64, u64), scale: f64) -> f64 {
    total.0 * scale / total.1.max(1) as f64
}

/// Canonicalizations per timed pass in [`canonicalize_us`].
const CANON_REPS: usize = 1_000;

/// Mean wall time of one `canonicalize` call, in microseconds, over
/// `CANON_REPS` passes through `queries` inside one span (a single
/// call is too short to time on its own).
pub fn canonicalize_us(queries: &[AdvisorQuery], tracer: &mut Tracer, parent: u64) -> f64 {
    let span = tracer.begin();
    for _ in 0..CANON_REPS {
        for q in queries {
            black_box(canonicalize(black_box(q)));
        }
    }
    let s = tracer.end(span, "hybridmem.service.canonicalize", parent, 0);
    s * 1e6 / (CANON_REPS * queries.len()).max(1) as f64
}

/// Wall time of writing one response (the advice document rendered
/// and written as a JSON line), in microseconds; also checks the
/// document with `check_advice`.
pub fn respond_us(
    key: &QueryKey,
    advice: &ReplayedAdvice,
    tracer: &mut Tracer,
    parent: u64,
    request: u64,
) -> (f64, Result<(), String>) {
    let span = tracer.begin();
    let doc = advice_to_json(key, advice);
    let mut sink = Vec::new();
    let written = writeln!(sink, "{}", doc.to_compact());
    let s = tracer.end(span, "hybridmem.service.respond", parent, request);
    let verdict = written
        .map_err(|e| e.to_string())
        .and_then(|()| check_advice(&doc).map(drop));
    (s * 1e6, verdict)
}

/// The advisor-service layer, measured by each workload its own way.
pub struct ServiceLayer {
    pub canonicalize_us: f64,
    pub hit_ratio: f64,
    pub answer_ms: f64,
    pub respond_us: f64,
}

/// Every per-layer metric, from the drives, the traced points, the
/// simulator's telemetry registry and the service layer. Also prints
/// the attribution of each setup's replay time to its components.
pub fn metrics(
    drives: &LayerDrives,
    traced: &Traced,
    service: &ServiceLayer,
    classify_hit_ratio: f64,
    trace_overhead_ratio: f64,
) -> Vec<Metric> {
    let (runs, telemetry) = (&traced.runs, &traced.telemetry);
    let merge_ns = per(drives.merge, 1e9);
    let mshr_ns = per(drives.mshr, 1e9);
    let mesh_ns = per(drives.mesh, 1e9);
    let bank_ns = per(drives.bank, 1e9);

    // Per setup: replay seconds and accesses, and the explained part.
    let mut replay = [(0.0, 0u64); 3];
    let mut explained = [[0.0; 4]; 3];
    let (mut classify_secs, mut classify_acc) = (0.0, 0u64);
    let (mut attempts, mut stalls, mut messages) = (0u64, 0u64, 0u64);
    let mut device = [(0u64, 0u64); 2]; // (row hits, total) for ddr, hbm
    for run in runs {
        let reg = &run.registry;
        let r_stalls = counter(reg, "mshr.stalls");
        let r_attempts = counter(reg, "mshr.allocations") + counter(reg, "mshr.merges") + r_stalls;
        let r_messages = counter(reg, "mesh.messages");
        let mut r_device = 0;
        for (i, dev) in ["ddr", "hbm"].into_iter().enumerate() {
            let hits = counter(reg, &format!("dram.{dev}.row_hits"));
            let total = hits
                + counter(reg, &format!("dram.{dev}.row_misses"))
                + counter(reg, &format!("dram.{dev}.row_closed"));
            device[i].0 += hits;
            device[i].1 += total;
            r_device += total;
        }
        let slot = Setup::ALL
            .iter()
            .position(|&s| s == run.def.setup)
            .expect("known setup");
        replay[slot].0 += run.replay_secs;
        replay[slot].1 += run.report.accesses;
        for (part, ops) in explained[slot].iter_mut().zip([
            (merge_ns, run.report.accesses),
            (mshr_ns, r_attempts),
            (mesh_ns, r_messages),
            (bank_ns, r_device),
        ]) {
            *part += ops.0 * ops.1 as f64 / 1e9;
        }
        if let Some((s, n)) = run.cold_classify {
            classify_secs += s;
            classify_acc += n;
        }
        attempts += r_attempts;
        stalls += r_stalls;
        messages += r_messages;
    }
    println!(
        "attribution of run_classified host time (component ns/op x the program's op counts):"
    );
    for (i, setup) in Setup::ALL.iter().enumerate() {
        let [merge, mshr, mesh, bank] = explained[i];
        println!(
            "  {:<6} {:>9} acc {:>8.3} s = merge {:.3} + mshr {:.3} + mesh {:.3} + bank {:.3} + unexplained {:.3} s",
            setup.label(),
            replay[i].1,
            replay[i].0,
            merge,
            mshr,
            mesh,
            bank,
            replay[i].0 - explained[i].iter().sum::<f64>(),
        );
    }
    let accesses: u64 = replay.iter().map(|r| r.1).sum();
    let measured: f64 = replay.iter().map(|r| r.0).sum();
    let predicted: f64 = explained.iter().flatten().sum();
    let ratio = |a: u64, b: u64| a as f64 / b.max(1) as f64;
    let wait_p99_ns = |dev: &str| match telemetry.get(&format!("dram.{dev}.queue_wait_ps")) {
        Some(MetricValue::Histogram(h)) => h.quantile_bound(0.99) as f64 / 1e3,
        _ => 0.0,
    };
    let hier_acc = drives.hierarchy.1;
    let classify_reg = classify_metrics();
    vec![
        (
            "workloads.tracegen.ns_per_access",
            per(drives.tracegen, 1e9),
            "ns",
        ),
        (
            "knl.classified.ns_per_access",
            classify_secs * 1e9 / classify_acc.max(1) as f64,
            "ns",
        ),
        ("knl.classified.hit_ratio", classify_hit_ratio, "ratio"),
        (
            "knl.classified.peak_bytes",
            counter(&classify_reg, "replay.classify.peak_bytes") as f64,
            "bytes",
        ),
        (
            "cachesim.hierarchy.ns_per_access",
            per(drives.hierarchy, 1e9),
            "ns",
        ),
        (
            "cachesim.l1_hit_ratio",
            ratio(drives.level_hits[0], hier_acc),
            "ratio",
        ),
        (
            "cachesim.l2_hit_ratio",
            ratio(drives.level_hits[1], hier_acc),
            "ratio",
        ),
        (
            "cachesim.memory_ratio",
            ratio(drives.level_hits[3], hier_acc),
            "ratio",
        ),
        (
            "cachesim.tlb_miss_ratio",
            ratio(drives.tlb.0, drives.tlb.1),
            "ratio",
        ),
        ("knl.tracesim.ns_per_access.ddr", per(replay[0], 1e9), "ns"),
        ("knl.tracesim.ns_per_access.hbm", per(replay[1], 1e9), "ns"),
        (
            "knl.tracesim.ns_per_access.cache",
            per(replay[2], 1e9),
            "ns",
        ),
        ("simfabric.merge.ns_per_pop", merge_ns, "ns"),
        ("cachesim.mshr.ns_per_register", mshr_ns, "ns"),
        (
            "cachesim.mshr.stall_ratio",
            ratio(stalls, attempts),
            "ratio",
        ),
        ("mesh.ns_per_message", mesh_ns, "ns"),
        ("mesh.messages", messages as f64, "count"),
        ("memdev.bank.ns_per_access", bank_ns, "ns"),
        (
            "memdev.device_ops_per_access",
            ratio(device[0].1 + device[1].1, accesses),
            "ratio",
        ),
        (
            "memdev.ddr.row_hit_ratio",
            ratio(device[0].0, device[0].1),
            "ratio",
        ),
        (
            "memdev.hbm.row_hit_ratio",
            ratio(device[1].0, device[1].1),
            "ratio",
        ),
        ("memdev.ddr.queue_wait_p99_ns", wait_p99_ns("ddr"), "sim_ns"),
        ("memdev.hbm.queue_wait_p99_ns", wait_p99_ns("hbm"), "sim_ns"),
        (
            "memkind.migrate.ns_per_tick",
            per(drives.migrate, 1e9),
            "ns",
        ),
        ("memkind.migrate.moves", drives.moves as f64, "count"),
        (
            "hybridmem.service.canonicalize_us",
            service.canonicalize_us,
            "us",
        ),
        ("hybridmem.service.hit_ratio", service.hit_ratio, "ratio"),
        ("hybridmem.service.answer_ms", service.answer_ms, "ms"),
        ("hybridmem.service.respond_us", service.respond_us, "us"),
        (
            "knl.tracesim.unexplained_frac",
            1.0 - predicted / measured.max(f64::MIN_POSITIVE),
            "ratio",
        ),
        ("trace_overhead_ratio", trace_overhead_ratio, "ratio"),
    ]
}
