//! The replay-sweep workloads: each trace of the workload replayed
//! through `hybridmem::sweep::replay_point` under the paper's three
//! setups, from a cold classify cache.

use crate::layers::{self, LayerDrives, Metric, PointDef, ServiceLayer, Setup};
use crate::util::{
    digest_report, median, median_time, peak_rss_mb, quantile, report_problems, secs, Checks,
    Tracer, FNV_BASIS,
};
use crate::Outcome;
use hybridmem::service::RESULT_CACHE_DEFAULT_BYTES;
use hybridmem::sweep::{replay_point, TraceSpec};
use hybridmem::{answer, canonicalize, AdvisorQuery, ResultCache};
use knl::TraceSimReport;
use memkind_sim::migrate::MigrationSpec;
use simfabric::ByteSize;
use std::sync::Arc;
use std::time::Instant;
use workloads::tracegen::{TraceKind, DEFAULT_CHUNK};

/// A sweep workload: which generators, at what size.
pub struct SweepWorkload {
    pub kinds: &'static [TraceKind],
    pub cores: u32,
    /// Per-core trace length before the seed's jitter.
    pub accesses_per_core: u64,
}

/// STREAM at 64 simulated cores: the regular, bandwidth-bound pattern.
pub const STREAM_SWEEP: SweepWorkload = SweepWorkload {
    kinds: &[TraceKind::Stream],
    cores: 64,
    accesses_per_core: 50_000,
};

/// GUPS and XSBench at 64 simulated cores: the latency-bound side.
pub const RANDOM_SWEEP: SweepWorkload = SweepWorkload {
    kinds: &[TraceKind::Gups, TraceKind::XsBench],
    cores: 64,
    accesses_per_core: 12_500,
};

/// Memory-side-cache capacity of the cache-mode points (the figures'
/// `TraceSweep` value).
const MSC: ByteSize = ByteSize::mib(8);
/// Budget of the advisor query a sweep asks in the traced run: the
/// service's default.
const QUERY_BUDGET_KIB: u64 = 256;
/// Set-up repetitions; `setup_s` is their median.
const SETUP_REPS: usize = 9;

/// The generated inputs of one run.
struct Inputs {
    specs: Vec<TraceSpec>,
    /// `TraceSource::remaining()` of each spec's fresh source.
    expected: Vec<u64>,
    problems: Vec<String>,
}

impl SweepWorkload {
    /// Per-core length for `seed`: up to 2% shorter than the base, so
    /// the STREAM generator, which takes no seed, also varies with it.
    fn accesses_per_core(&self, seed: u64) -> u64 {
        let mut state = seed;
        let jitter = simfabric::prng::splitmix64_next(&mut state) % (self.accesses_per_core / 50);
        self.accesses_per_core - jitter
    }

    fn points(&self) -> Vec<PointDef> {
        (0..self.kinds.len())
            .flat_map(|spec| {
                Setup::ALL.map(|setup| PointDef {
                    spec,
                    setup,
                    msc: MSC,
                })
            })
            .collect()
    }

    /// Build the trace specs and drain each source once, checking that
    /// it yields exactly the `remaining()` count the replay checks
    /// rely on.
    fn setup(&self, seed: u64) -> Inputs {
        let per_core = self.accesses_per_core(seed);
        let specs: Vec<TraceSpec> = self
            .kinds
            .iter()
            .map(|&kind| TraceSpec::from_kind(kind, self.cores, per_core, seed))
            .collect();
        let mut expected = Vec::new();
        let mut problems = Vec::new();
        let mut buf = Vec::with_capacity(DEFAULT_CHUNK);
        for spec in &specs {
            let mut source = spec.source();
            let remaining = source.remaining().unwrap_or(0);
            let mut drained = 0u64;
            loop {
                buf.clear();
                let n = source.fill(&mut buf, DEFAULT_CHUNK);
                if n == 0 {
                    break;
                }
                drained += n as u64;
                std::hint::black_box(&buf);
            }
            if drained != remaining {
                problems.push(format!(
                    "{}: source yields {drained} accesses, remaining() said {remaining}",
                    spec.label()
                ));
            }
            expected.push(remaining);
        }
        Inputs {
            specs,
            expected,
            problems,
        }
    }

    /// One sweep from a cold classify cache; returns its wall time and
    /// reports.
    fn sweep_once(&self, inputs: &Inputs, checks: &mut Checks) -> (f64, Vec<TraceSimReport>) {
        knl::with_global_classify_cache(|c| c.clear());
        let started = Instant::now();
        let mut reports = Vec::new();
        for def in self.points() {
            let spec = &inputs.specs[def.spec];
            let (_, report) = replay_point(spec, &def.config(), def.setup.placement(), def.msc);
            checks.op(
                &format!("point {} {}", spec.label(), def.setup.label()),
                &report_problems(&report, inputs.expected[def.spec]),
            );
            reports.push(report);
        }
        (secs(started), reports)
    }

    pub fn run(&self, seed: u64, seconds: f64, trace: bool) -> Result<Outcome, String> {
        let (setup_s, inputs) = median_time(SETUP_REPS, || self.setup(seed));
        let mut checks = Checks::default();
        checks.op("generate inputs", &inputs.problems);
        if trace {
            return Ok(self.run_traced(seed, inputs, checks));
        }
        let started = Instant::now();
        let mut sweeps: Vec<(f64, u64)> = Vec::new();
        let mut first: Option<(u64, Vec<TraceSimReport>)> = None;
        loop {
            let (wall, reports) = self.sweep_once(&inputs, &mut checks);
            let digest = reports.iter().fold(FNV_BASIS, digest_report);
            match &first {
                None => first = Some((digest, reports.clone())),
                Some((d, _)) => checks.check("sweep digest", digest == *d, || {
                    format!("sweep digest {digest:#x} differs from the first sweep's {d:#x}")
                }),
            }
            sweeps.push((wall, reports.iter().map(|r| r.accesses).sum()));
            if secs(started) + wall > seconds {
                break;
            }
        }
        let (digest, reports) = first.expect("at least one sweep");
        self.print_paper_comparison(&inputs, &reports);
        let macc: Vec<f64> = sweeps.iter().map(|&(w, a)| a as f64 / w / 1e6).collect();
        let sweep_ms: Vec<f64> = sweeps.iter().map(|&(w, _)| w * 1e3).collect();
        println!(
            "{} sweeps (each sweep one query), {:.1} s measured; sweep seconds {:?}",
            sweeps.len(),
            secs(started),
            sweeps
                .iter()
                .map(|s| (s.0 * 100.0).round() / 100.0)
                .collect::<Vec<_>>()
        );
        let metrics: Vec<Metric> = vec![
            ("replay_macc_per_s", median(&macc), "Macc/s"),
            ("query_p50_ms", quantile(&sweep_ms, 0.5), "ms"),
            ("query_p99_ms", quantile(&sweep_ms, 0.99), "ms"),
            ("queries_per_s", 1e3 / median(&sweep_ms), "1/s"),
            ("peak_rss_mb", peak_rss_mb()?, "MB"),
            ("setup_s", setup_s, "s"),
        ];
        Ok(Outcome {
            checks,
            metrics,
            digest,
            spans: None,
        })
    }

    fn run_traced(&self, seed: u64, inputs: Inputs, mut checks: Checks) -> Outcome {
        let (untraced_secs, reports) = self.sweep_once(&inputs, &mut checks);
        let digest = reports.iter().fold(FNV_BASIS, digest_report);
        let mut tracer = Tracer::new();
        let defs = self.points();
        let traced = layers::traced_points(
            &inputs.specs,
            &inputs.expected,
            &defs,
            &mut tracer,
            &mut checks,
        );
        let same = traced
            .runs
            .iter()
            .map(|r| r.report)
            .eq(reports.iter().copied());
        checks.check("traced sweep equals untraced sweep", same, || {
            "spanned layer calls give other reports than replay_point".into()
        });

        let mut drives = LayerDrives::default();
        let mut service = ServiceSample::default();
        for (i, spec) in inputs.specs.iter().enumerate() {
            let captured = drives.capture(spec);
            drives.drive(&captured);
            let query = AdvisorQuery {
                kind: self.kinds[i],
                cores: self.cores,
                accesses_per_core: self.accesses_per_core(seed),
                seed,
                budget: ByteSize::kib(QUERY_BUDGET_KIB),
                threads: 64,
                migrate_period: 0,
            };
            let key = canonicalize(&query);
            drives.migrate(
                &captured,
                MigrationSpec::new(key.period, key.budget_pages as u32),
            );
            let ddr_point = traced
                .runs
                .iter()
                .find(|r| r.def.spec == i && r.def.setup == Setup::Ddr)
                .map(|r| r.report);
            service.ask(&query, ddr_point, &mut tracer, i as u64 + 1, &mut checks);
        }
        let metrics = layers::metrics(
            &drives,
            &traced,
            &service.finish(),
            traced.classify_hit_ratio,
            traced.secs / untraced_secs,
        );
        Outcome {
            checks,
            metrics,
            digest,
            spans: Some(tracer),
        }
    }

    /// Print each point's simulated outputs beside the paper's stated
    /// value where one exists. Never gated.
    fn print_paper_comparison(&self, inputs: &Inputs, reports: &[TraceSimReport]) {
        println!(
            "simulated outputs (simulated time; caches start empty; the model is unvalidated \
             at this scale; never gated):"
        );
        let reference = hybridmem::paper_reference();
        let paper = |figure: &str, series: &str, x: f64| {
            reference
                .iter()
                .find(|p| p.figure == figure && p.series == series && (x.is_nan() || p.x == x))
                .map(|p| p.paper_value)
        };
        let show = |v: Option<f64>| v.map_or("-".to_string(), |v| format!("{v:.1}"));
        for (i, spec) in inputs.specs.iter().enumerate() {
            let stream = self.kinds[i] == TraceKind::Stream;
            // `points()` lays each trace's setups out in `Setup::ALL` order.
            let report_at = |s: Setup| {
                reports[i * Setup::ALL.len() + Setup::ALL.iter().position(|&x| x == s).unwrap()]
            };
            for setup in Setup::ALL {
                let r = report_at(setup);
                let series = match setup {
                    Setup::Ddr => "DRAM",
                    Setup::Hbm => "HBM",
                    Setup::Cache => "Cache Mode",
                };
                let paper_bw = if stream {
                    paper("fig2", series, 8.0)
                } else {
                    None
                };
                let paper_lat = match setup {
                    Setup::Cache => None,
                    _ => paper("latency", series, f64::NAN),
                };
                println!(
                    "  {:<28} {:<5} bandwidth {:>7.1} GB/s (paper {:>5})  avg latency {:>9.1} ns (paper idle {:>5})",
                    spec.label(),
                    setup.label(),
                    r.bandwidth_gbs,
                    show(paper_bw),
                    r.avg_latency.as_ns(),
                    show(paper_lat),
                );
            }
            let ratio = report_at(Setup::Hbm).bandwidth_gbs / report_at(Setup::Ddr).bandwidth_gbs;
            let paper_ratio = stream
                .then(|| Some(paper("fig2", "HBM", 8.0)? / paper("fig2", "DRAM", 8.0)?))
                .flatten();
            println!(
                "  {:<28} HBM/DDR bandwidth ratio {ratio:.2} (paper {})",
                spec.label(),
                paper_ratio.map_or("-".to_string(), |v| format!("{v:.2}"))
            );
        }
    }
}

/// The advisor-service layer as a sweep meets it: the sweep's own
/// question asked once, with spans around canonicalize, answer and the
/// response write.
#[derive(Default)]
struct ServiceSample {
    canonicalize_us: Vec<f64>,
    answer_ms: Vec<f64>,
    respond_us: Vec<f64>,
    hits: u64,
    misses: u64,
}

impl ServiceSample {
    fn ask(
        &mut self,
        query: &AdvisorQuery,
        ddr_point: Option<TraceSimReport>,
        tracer: &mut Tracer,
        request: u64,
        checks: &mut Checks,
    ) {
        let root = tracer.begin();
        let key = canonicalize(query);
        self.canonicalize_us.push(layers::canonicalize_us(
            std::slice::from_ref(query),
            tracer,
            root.id,
        ));
        let cache = ResultCache::new(RESULT_CACHE_DEFAULT_BYTES);
        let mut problems = Vec::new();
        if cache.get(&key).is_some() {
            problems.push("a fresh result cache hit".to_string());
        }
        let span = tracer.begin();
        let advice = Arc::new(answer(&key));
        let s = tracer.end(span, "hybridmem.service.answer", root.id, request);
        self.answer_ms.push(s * 1e3);
        cache.insert(key.clone(), Arc::clone(&advice));
        if cache.get(&key).is_none() {
            problems.push("the result cache lost an inserted answer".to_string());
        }
        let reg = cache.metrics_registry();
        self.hits += layers::counter(&reg, "advisor.cache.hits");
        self.misses += layers::counter(&reg, "advisor.cache.misses");
        let (us, verdict) = layers::respond_us(&key, &advice, tracer, root.id, request);
        self.respond_us.push(us);
        tracer.end(root, "query", 0, request);
        if let Err(e) = verdict {
            problems.push(format!("advice: {e}"));
        }
        if ddr_point != Some(advice.candidates[0].report) {
            problems.push("the advice's DDR candidate differs from the sweep's DDR point".into());
        }
        checks.op(
            &format!("advisor query over {}", key.canonical()),
            &problems,
        );
    }

    fn finish(&self) -> ServiceLayer {
        ServiceLayer {
            canonicalize_us: median(&self.canonicalize_us),
            hit_ratio: self.hits as f64 / (self.hits + self.misses).max(1) as f64,
            answer_ms: median(&self.answer_ms),
            respond_us: median(&self.respond_us),
        }
    }
}
