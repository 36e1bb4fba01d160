//! The `advisor_serve` workload: one closed-loop client writes a
//! seeded, repeat-heavy query stream through `bench::serve::serve_loop`
//! and reads each response before it sends the next query.
//!
//! The client lives inside the reader and writer handed to the loop,
//! so the whole exchange runs on one thread: the reader hands over the
//! next query line only when the loop asks for input, which it does
//! after writing the previous response. Each query is timed from the
//! hand-over of its line until its response line is flushed.

use crate::layers::{self, LayerDrives, Metric, PointDef, ServiceLayer, Setup};
use crate::util::{median, median_time, peak_rss_mb, quantile, secs, Checks, Tracer, FNV_BASIS};
use crate::Outcome;
use bench::serve::{serve_loop, ServeOptions};
use hybridmem::json::{self, Json};
use hybridmem::sweep::TraceSpec;
use hybridmem::{advice_to_json, answer, canonicalize, check_advice, AdvisorQuery, QueryKey};
use memkind_sim::migrate::{MigrationSpec, PAGE_BYTES};
use simfabric::{ByteSize, Rng};
use std::cell::RefCell;
use std::collections::HashMap;
use std::io::{self, BufRead, Read, Write};
use std::rc::Rc;
use std::time::Instant;
use workloads::tracegen::{TraceKind, DEFAULT_CHUNK};

/// Queries per session (a multiple of `FLUSH_EVERY`, so the last flush
/// event carries the session's final cache counters).
const QUERIES: usize = 800;
/// Traces per generator kind in the pool.
const TRACES_PER_KIND: usize = 2;
/// Distinct canonical keys per trace; the miss share is
/// `5 * TRACES_PER_KIND * KEYS_PER_TRACE / QUERIES` = 5%.
const KEYS_PER_TRACE: usize = 4;
const TRACE_CORES: u32 = 8;
const TRACE_ACCESSES_PER_CORE: u64 = 2_000;
/// Budget buckets (pages), folded thread levels and migration periods
/// the pool's keys draw from; period 0 resolves to the trace-scaled
/// default.
const BUDGET_PAGES: [u64; 4] = [16, 32, 64, 128];
const THREAD_LEVELS: [u32; 2] = [64, 128];
const PERIODS: [u64; 3] = [0, 1_024, 4_096];
const FLUSH_EVERY: u64 = 100;
const SETUP_REPS: usize = 9;

/// One session's input: the raw query lines, with what the client
/// expects of each response.
struct Stream {
    queries: Vec<AdvisorQuery>,
    lines: Vec<String>,
    keys: Vec<QueryKey>,
    /// Whether query `i` is its key's first occurrence (a result-cache
    /// miss on a cold service).
    first: Vec<bool>,
    /// Distinct trace specs, and the distinct keys in the order the
    /// stream first asks them.
    traces: Vec<TraceSpec>,
    distinct: Vec<QueryKey>,
    /// `TraceSource::remaining()` of each trace's fresh source, and
    /// whether draining it yielded exactly that many accesses.
    expected: Vec<u64>,
    problems: Vec<String>,
}

/// Build the seeded pool and query stream, and drain each pool trace
/// once to check its generator.
fn build_stream(seed: u64) -> Stream {
    let mut rng = Rng::seed_from_u64(seed);
    let mut traces = Vec::new();
    let mut distinct = Vec::new();
    for kind in TraceKind::ALL {
        for _ in 0..TRACES_PER_KIND {
            // Seeds travel through JSON numbers: keep them exact.
            let trace_seed = rng.next_u64() >> 32;
            traces.push(TraceSpec::from_kind(
                kind,
                TRACE_CORES,
                TRACE_ACCESSES_PER_CORE,
                trace_seed,
            ));
            let mut combos: Vec<(u64, u32, u64)> = BUDGET_PAGES
                .iter()
                .flat_map(|&b| {
                    THREAD_LEVELS
                        .iter()
                        .flat_map(move |&t| PERIODS.iter().map(move |&p| (b, t, p)))
                })
                .collect();
            rng.shuffle(&mut combos);
            for &(budget_pages, threads, period) in &combos[..KEYS_PER_TRACE] {
                distinct.push(canonicalize(&AdvisorQuery {
                    kind,
                    cores: TRACE_CORES,
                    accesses_per_core: TRACE_ACCESSES_PER_CORE,
                    seed: trace_seed,
                    budget: ByteSize::bytes(budget_pages * PAGE_BYTES),
                    threads,
                    migrate_period: period,
                }));
            }
        }
    }
    rng.shuffle(&mut distinct);
    // First occurrences at seeded positions (query 0 is always one);
    // every other query repeats a key already seen.
    let mut slots: Vec<usize> = (1..QUERIES).collect();
    rng.shuffle(&mut slots);
    let mut is_first = vec![false; QUERIES];
    is_first[0] = true;
    for &s in &slots[..distinct.len() - 1] {
        is_first[s] = true;
    }
    let mut introduced = 0;
    let mut stream = Stream {
        queries: Vec::new(),
        lines: Vec::new(),
        keys: Vec::new(),
        first: is_first.clone(),
        traces: Vec::new(),
        distinct: Vec::new(),
        expected: Vec::new(),
        problems: Vec::new(),
    };
    for first in is_first {
        let key = if first {
            introduced += 1;
            distinct[introduced - 1].clone()
        } else {
            distinct[rng.next_below(introduced as u64) as usize].clone()
        };
        let query = respell(&key, &mut rng);
        stream.lines.push(query.to_json().to_compact());
        stream.queries.push(query);
        stream.keys.push(key);
    }
    stream.distinct = distinct;
    stream.traces = traces;
    let mut buf = Vec::with_capacity(DEFAULT_CHUNK);
    for spec in &stream.traces {
        let mut source = spec.source();
        let remaining = source.remaining().unwrap_or(0);
        let mut drained = 0u64;
        loop {
            buf.clear();
            match source.fill(&mut buf, DEFAULT_CHUNK) {
                0 => break,
                n => drained += n as u64,
            }
        }
        if drained != remaining {
            stream.problems.push(format!(
                "{}: source yields {drained} accesses, remaining() said {remaining}",
                spec.label()
            ));
        }
        stream.expected.push(remaining);
    }
    stream
}

/// A raw query that canonicalizes to `key`: any budget inside the
/// key's page bucket, any thread count that folds to its level.
fn respell(key: &QueryKey, rng: &mut Rng) -> AdvisorQuery {
    let kib = key.budget_pages * (PAGE_BYTES >> 10) - rng.next_below(PAGE_BYTES >> 10);
    let threads = key.threads - rng.next_below(64) as u32;
    let auto = hybridmem::service::auto_period(key.cores, key.accesses_per_core);
    AdvisorQuery {
        kind: key.kind,
        cores: key.cores,
        accesses_per_core: key.accesses_per_core,
        seed: key.seed,
        budget: ByteSize::kib(kib),
        threads,
        migrate_period: if key.period == auto && rng.gen_bool(0.5) {
            0
        } else {
            key.period
        },
    }
}

/// The client's side of the exchange, shared by its reader and writer.
#[derive(Default)]
struct Client {
    handed: Vec<Instant>,
    responses: Vec<(Instant, String)>,
    events: Vec<String>,
    /// Queries the loop asked past before the previous one's response
    /// was written.
    unanswered: u64,
}

struct ClientReader<'a> {
    client: Rc<RefCell<Client>>,
    lines: &'a [String],
    next: usize,
    current: Vec<u8>,
    pos: usize,
}

impl Read for ClientReader<'_> {
    fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
        let n = {
            let buf = self.fill_buf()?;
            let n = buf.len().min(out.len());
            out[..n].copy_from_slice(&buf[..n]);
            n
        };
        self.consume(n);
        Ok(n)
    }
}

impl BufRead for ClientReader<'_> {
    fn fill_buf(&mut self) -> io::Result<&[u8]> {
        if self.pos == self.current.len() && self.next < self.lines.len() {
            let mut client = self.client.borrow_mut();
            if client.responses.len() < self.next {
                client.unanswered += 1;
            }
            self.current.clear();
            self.current
                .extend_from_slice(self.lines[self.next].as_bytes());
            self.current.push(b'\n');
            self.pos = 0;
            self.next += 1;
            client.handed.push(Instant::now());
        }
        Ok(&self.current[self.pos..])
    }

    fn consume(&mut self, n: usize) {
        self.pos = (self.pos + n).min(self.current.len());
    }
}

struct ClientWriter {
    client: Rc<RefCell<Client>>,
    pending: Vec<u8>,
}

impl Write for ClientWriter {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.pending.extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        let now = Instant::now();
        let mut client = self.client.borrow_mut();
        while let Some(end) = self.pending.iter().position(|&b| b == b'\n') {
            let line: Vec<u8> = self.pending.drain(..=end).collect();
            let line = String::from_utf8_lossy(&line[..end]).into_owned();
            if line.contains("\"event\":") {
                client.events.push(line);
            } else {
                client.responses.push((now, line));
            }
        }
        Ok(())
    }
}

/// One session's measurements.
struct Session {
    wall: f64,
    latencies_ms: Vec<f64>,
    client: Client,
}

/// Serve `stream` once to a cold service and cold classify cache.
fn session(stream: &Stream, workers: usize) -> Result<Session, String> {
    knl::with_global_classify_cache(|c| c.clear());
    let client = Rc::new(RefCell::new(Client::default()));
    let reader = ClientReader {
        client: Rc::clone(&client),
        lines: &stream.lines,
        next: 0,
        current: Vec::new(),
        pos: 0,
    };
    let writer = ClientWriter {
        client: Rc::clone(&client),
        pending: Vec::new(),
    };
    let opts = ServeOptions {
        workers,
        flush_every: FLUSH_EVERY,
        full_advice: true,
        ..ServeOptions::default()
    };
    let started = Instant::now();
    serve_loop(reader, writer, &opts)?;
    let wall = secs(started);
    let client = Rc::try_unwrap(client)
        .map_err(|_| "the serve loop kept its reader or writer")?
        .into_inner();
    let latencies_ms = client
        .responses
        .iter()
        .zip(&client.handed)
        .map(|((written, _), handed)| written.duration_since(*handed).as_secs_f64() * 1e3)
        .collect();
    Ok(Session {
        wall,
        latencies_ms,
        client,
    })
}

/// What validating one session's transcript found.
struct Validated {
    /// Simulated accesses the session's misses replayed.
    replayed_accesses: u64,
    /// Each distinct key's served advice, as compact JSON.
    advice: HashMap<String, String>,
    digest: u64,
    hits: u64,
    misses: u64,
}

/// Check every response of a session: one per query, with its id, the
/// expected canonical key and cache outcome, advice that passes
/// `check_advice` and is identical for every query of one key; and the
/// drain event's totals.
fn validate(stream: &Stream, s: &Session, checks: &mut Checks) -> Validated {
    let mut v = Validated {
        replayed_accesses: 0,
        advice: HashMap::new(),
        digest: FNV_BASIS,
        hits: 0,
        misses: 0,
    };
    for (i, query) in stream.queries.iter().enumerate() {
        let Some((_, line)) = s.client.responses.get(i) else {
            checks.op(&format!("query {}", i + 1), &["no response".to_string()]);
            continue;
        };
        let mut problems = Vec::new();
        let key = &stream.keys[i];
        match json::parse(line) {
            Err(e) => problems.push(format!("unparsable response: {e}")),
            Ok(doc) => {
                if doc.num_field("id").ok() != Some((i + 1) as f64) {
                    problems.push("response id is not the query's line number".into());
                }
                if doc.str_field("canonical").ok() != Some(canonicalize(query).canonical()) {
                    problems.push("canonical key differs from canonicalize(query)".into());
                }
                let want = if stream.first[i] { "miss" } else { "hit" };
                if doc.str_field("cache").ok().as_deref() != Some(want) {
                    problems.push(format!("expected a cache {want}"));
                }
                match doc.get("advice") {
                    None => problems.push("response carries no advice".into()),
                    Some(advice) => {
                        if let Err(e) = check_advice(advice) {
                            problems.push(format!("check_advice: {e}"));
                        }
                        let text = advice.to_compact();
                        if stream.first[i] {
                            v.replayed_accesses += candidate_accesses(advice);
                        }
                        let seen = v.advice.entry(key.canonical()).or_insert(text.clone());
                        if *seen != text {
                            problems
                                .push("advice differs from an earlier answer for its key".into());
                        }
                        v.digest = text
                            .bytes()
                            .fold(v.digest, |h, b| crate::util::fnv(h, b as u64));
                    }
                }
            }
        }
        checks.op(&format!("query {} ({})", i + 1, key.canonical()), &problems);
    }
    let extra = s
        .client
        .responses
        .len()
        .saturating_sub(stream.queries.len());
    let mut problems = Vec::new();
    if extra > 0 || s.client.unanswered > 0 {
        problems.push(format!(
            "{extra} responses without a query, {} queries read before the previous answer",
            s.client.unanswered
        ));
    }
    let event = |name: &str| {
        s.client
            .events
            .iter()
            .rev()
            .filter_map(|l| json::parse(l).ok())
            .find(|d| d.str_field("event").ok().as_deref() == Some(name))
    };
    match (event("drain"), event("flush")) {
        (Some(drain), Some(flush)) => {
            let misses = stream.first.iter().filter(|&&f| f).count() as f64;
            let queries = stream.queries.len() as f64;
            if drain.num_field("queries").ok() != Some(queries)
                || drain.num_field("errors").ok() != Some(0.0)
                || drain.num_field("computed").ok() != Some(misses)
            {
                problems.push("drain totals disagree with the query stream".into());
            }
            let cache = flush.get("cache");
            let count = |k: &str| cache.and_then(|c| c.num_field(k).ok()).unwrap_or(0.0) as u64;
            v.hits = count("hits");
            v.misses = count("misses");
        }
        _ => problems.push("missing flush or drain event".into()),
    }
    checks.op("session transcript", &problems);
    v
}

fn candidate_accesses(advice: &Json) -> u64 {
    advice
        .arr_field("candidates")
        .map(|cs| {
            cs.iter()
                .filter_map(|c| c.num_field("accesses").ok())
                .sum::<f64>() as u64
        })
        .unwrap_or(0)
}

pub fn run(seed: u64, seconds: f64, trace: bool, workers: usize) -> Result<Outcome, String> {
    let (setup_s, stream) = median_time(SETUP_REPS, || build_stream(seed));
    let mut checks = Checks::default();
    checks.op("generate inputs", &stream.problems);
    if trace {
        return run_traced(&stream, workers, checks);
    }
    let started = Instant::now();
    let mut latencies = Vec::new();
    let (mut qps, mut macc) = (Vec::new(), Vec::new());
    let mut first_digest = None;
    loop {
        let s = session(&stream, workers)?;
        let v = validate(&stream, &s, &mut checks);
        match first_digest {
            None => first_digest = Some(v.digest),
            Some(d) => checks.check("session digest", v.digest == d, || {
                format!(
                    "session advice digest {:#x} differs from the first's {d:#x}",
                    v.digest
                )
            }),
        }
        qps.push(stream.queries.len() as f64 / s.wall);
        macc.push(v.replayed_accesses as f64 / s.wall / 1e6);
        latencies.extend(s.latencies_ms);
        if secs(started) + s.wall > seconds {
            break;
        }
    }
    let misses = stream.first.iter().filter(|&&f| f).count();
    println!(
        "{} sessions x {} queries ({} misses each, {:.1}%), {} latency samples, {:.1} s measured",
        qps.len(),
        stream.queries.len(),
        misses,
        100.0 * misses as f64 / stream.queries.len() as f64,
        latencies.len(),
        secs(started)
    );
    let metrics: Vec<Metric> = vec![
        ("replay_macc_per_s", median(&macc), "Macc/s"),
        ("query_p50_ms", quantile(&latencies, 0.5), "ms"),
        ("query_p99_ms", quantile(&latencies, 0.99), "ms"),
        ("queries_per_s", median(&qps), "1/s"),
        ("peak_rss_mb", peak_rss_mb()?, "MB"),
        ("setup_s", setup_s, "s"),
    ];
    Ok(Outcome {
        checks,
        metrics,
        digest: first_digest.expect("at least one session"),
        spans: None,
    })
}

fn run_traced(stream: &Stream, workers: usize, mut checks: Checks) -> Result<Outcome, String> {
    let untraced = session(stream, workers)?;
    let served = validate(stream, &untraced, &mut checks);
    let mut tracer = Tracer::new();

    // The traced session: the same exchange inside a span, then the
    // service's own phases re-run by the benchmark with spans around
    // each public call.
    let classify_before = hybridmem::sweep::classify_metrics();
    let root = tracer.begin();
    let traced = session(stream, workers)?;
    tracer.end(root, "session", 0, 0);
    let classify_after = hybridmem::sweep::classify_metrics();
    let delta = |name: &str| {
        layers::counter(&classify_after, name) - layers::counter(&classify_before, name)
    };
    let (classify_hits, classify_misses) = (
        delta("replay.classify.hits"),
        delta("replay.classify.misses"),
    );
    let traced_check = validate(stream, &traced, &mut checks);
    checks.check(
        "traced session digest",
        traced_check.digest == served.digest,
        || "the traced session served other advice".into(),
    );
    let canonicalize_us = layers::canonicalize_us(&stream.queries, &mut tracer, 0);
    // Every distinct key recomputed with uncached `answer`, in
    // first-occurrence order from a cold classify cache (the session's
    // own artifact-reuse pattern), and compared with what was served;
    // then every query's response written again from it.
    knl::with_global_classify_cache(|c| c.clear());
    let mut answer_ms = Vec::new();
    let mut fresh = HashMap::new();
    for (i, key) in stream.distinct.iter().enumerate() {
        let span = tracer.begin();
        let advice = answer(key);
        answer_ms.push(tracer.end(span, "hybridmem.service.answer", 0, i as u64 + 1) * 1e3);
        let text = advice_to_json(key, &advice).to_compact();
        checks.check(
            &format!("uncached answer for {}", key.canonical()),
            served.advice.get(&key.canonical()) == Some(&text),
            || "served advice differs from an uncached answer(key)".into(),
        );
        fresh.insert(key.canonical(), advice);
    }
    let mut respond_us = Vec::new();
    for (i, key) in stream.keys.iter().enumerate() {
        let advice = &fresh[&key.canonical()];
        let (us, verdict) = layers::respond_us(key, advice, &mut tracer, 0, i as u64 + 1);
        respond_us.push(us);
        checks.op(
            &format!("re-rendered response {}", i + 1),
            &verdict.err().into_iter().collect::<Vec<_>>(),
        );
    }
    let service = ServiceLayer {
        canonicalize_us,
        hit_ratio: traced_check.hits as f64
            / (traced_check.hits + traced_check.misses).max(1) as f64,
        answer_ms: median(&answer_ms),
        respond_us: median(&respond_us),
    };

    // The replay layers, over the pool's traces: the three paper
    // setups per trace (cache mode at the trace's first key's cache
    // capacity), and the migration drive per distinct key.
    let defs: Vec<PointDef> = (0..stream.traces.len())
        .flat_map(|spec| {
            let msc = stream.cache_capacity(spec);
            Setup::ALL.map(|setup| PointDef { spec, setup, msc })
        })
        .collect();
    let traced_points = layers::traced_points(
        &stream.traces,
        &stream.expected,
        &defs,
        &mut tracer,
        &mut checks,
    );
    let mut drives = LayerDrives::default();
    for spec in &stream.traces {
        let captured = drives.capture(spec);
        drives.drive(&captured);
        for key in stream
            .distinct
            .iter()
            .filter(|k| k.spec().label() == spec.label())
        {
            drives.migrate(
                &captured,
                MigrationSpec::new(key.period, key.budget_pages as u32),
            );
        }
    }
    let metrics = layers::metrics(
        &drives,
        &traced_points,
        &service,
        classify_hits as f64 / (classify_hits + classify_misses).max(1) as f64,
        traced.wall / untraced.wall,
    );
    Ok(Outcome {
        checks,
        metrics,
        digest: served.digest,
        spans: Some(tracer),
    })
}

impl Stream {
    /// The cache-mode candidate capacity of trace `spec`'s first key:
    /// the largest power of two within its budget.
    fn cache_capacity(&self, spec: usize) -> ByteSize {
        let label = self.traces[spec].label();
        let budget = self
            .distinct
            .iter()
            .find(|k| k.spec().label() == label)
            .map_or(64 * PAGE_BYTES, |k| k.budget().as_u64());
        ByteSize::bytes(1 << (63 - budget.leading_zeros()))
    }
}
