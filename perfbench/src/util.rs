//! Shared pieces: the check ledger, order statistics, the span tracer,
//! the report digest and the host probes every workload uses.

use knl::TraceSimReport;
use simfabric::SpanLog;
use std::time::Instant;

/// Operations attempted and failed. An operation is one sweep point,
/// one advisor query, or one run-level consistency check; it fails when
/// any check on it fails or its response is missing.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
}

impl Checks {
    /// Count one operation; `problems` lists every check it failed.
    pub fn op(&mut self, what: &str, problems: &[String]) {
        self.attempted += 1;
        if !problems.is_empty() {
            self.failed += 1;
            eprintln!("perfbench: FAILED {what}: {}", problems.join("; "));
        }
    }

    /// Count one operation with a single pass/fail verdict.
    pub fn check(&mut self, what: &str, ok: bool, detail: impl FnOnce() -> String) {
        let problems = if ok { Vec::new() } else { vec![detail()] };
        self.op(what, &problems);
    }
}

/// The checks every replay report must pass: it accounts for every
/// generated access, and no more accesses reached memory than were
/// replayed.
pub fn report_problems(report: &TraceSimReport, expected_accesses: u64) -> Vec<String> {
    let mut problems = Vec::new();
    if report.accesses != expected_accesses {
        problems.push(format!(
            "report accounts for {} accesses, the source generated {expected_accesses}",
            report.accesses
        ));
    }
    if report.memory_accesses > report.accesses {
        problems.push(format!(
            "memory_accesses {} exceed accesses {}",
            report.memory_accesses, report.accesses
        ));
    }
    problems
}

/// Median of `xs` (mean of the middle two for an even count).
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of an empty sample");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank quantile of `xs` (`q` in `[0, 1]`).
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    assert!(!v.is_empty(), "quantile of an empty sample");
    let rank = (q * v.len() as f64).ceil().max(1.0) as usize;
    v[rank.min(v.len()) - 1]
}

/// FNV-1a over 64-bit words.
pub fn fnv(mut h: u64, x: u64) -> u64 {
    for b in x.to_le_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// FNV-1a offset basis.
pub const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// Fold every field of a simulated report into a digest.
pub fn digest_report(h: u64, r: &TraceSimReport) -> u64 {
    [
        r.makespan.as_ps(),
        r.accesses,
        r.memory_accesses,
        r.mcdram_cache_hits,
        r.avg_latency.as_ps(),
        r.bandwidth_gbs.to_bits(),
    ]
    .into_iter()
    .fold(h, fnv)
}

/// Peak resident set (`VmHWM`) of this process, in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("read /proc/self/status: {e}"))?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kib / 1024.0)
}

/// Seconds since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Spans recorded by the benchmark around its calls into each layer,
/// kept in memory and written out when the run ends. Every span names
/// its parent (0 for a root) and the request it belongs to (a sweep
/// point or an advisor query), carried as Chrome trace arguments.
pub struct Tracer {
    log: SpanLog,
    next_id: u64,
}

/// An open span: its id and start instant.
#[derive(Clone, Copy)]
pub struct Open {
    pub id: u64,
    start: Instant,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            log: SpanLog::new(),
            next_id: 1,
        }
    }

    pub fn begin(&mut self) -> Open {
        let id = self.next_id;
        self.next_id += 1;
        Open {
            id,
            start: Instant::now(),
        }
    }

    /// Close `open` as `name`; returns its duration in seconds.
    pub fn end(&mut self, open: Open, name: &str, parent: u64, request: u64) -> f64 {
        let end = Instant::now();
        self.log.span_between(
            open.start,
            end,
            name,
            "perfbench",
            0,
            [
                ("span", open.id as f64),
                ("parent", parent as f64),
                ("request", request as f64),
            ],
        );
        end.duration_since(open.start).as_secs_f64()
    }

    /// Write the spans as Chrome `trace_event` JSON lines and print a
    /// per-name summary (count, total and self time) to stderr.
    pub fn finish(self, path: &std::path::Path) -> Result<(), String> {
        let records = self.log.records();
        let mut child_us = std::collections::HashMap::<u64, f64>::new();
        for r in records {
            let parent = arg(r, "parent") as u64;
            *child_us.entry(parent).or_default() += r.dur_us;
        }
        let mut by_name = std::collections::BTreeMap::<&str, (u64, f64, f64)>::new();
        for r in records {
            let id = arg(r, "span") as u64;
            let own = r.dur_us - child_us.get(&id).copied().unwrap_or(0.0);
            let e = by_name.entry(r.name.as_str()).or_default();
            e.0 += 1;
            e.1 += r.dur_us;
            e.2 += own;
        }
        eprintln!("perfbench: spans (count, total ms, self ms):");
        for (name, (n, total, own)) in by_name {
            eprintln!(
                "  {name:<40} {n:>7} {:>12.3} {:>12.3}",
                total / 1e3,
                own / 1e3
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).map_err(|e| format!("create {dir:?}: {e}"))?;
        }
        let text =
            simfabric::telemetry::chrome_trace_jsonl(&self.log, &simfabric::MetricsRegistry::new());
        std::fs::write(path, text).map_err(|e| format!("write {path:?}: {e}"))
    }
}

fn arg(r: &simfabric::SpanRecord, key: &str) -> f64 {
    r.args
        .iter()
        .find(|(k, _)| *k == key)
        .map_or(0.0, |&(_, v)| v)
}

/// Run `f` `reps` times and return the median wall time in seconds and
/// the last result.
pub fn median_time<R>(reps: usize, mut f: impl FnMut() -> R) -> (f64, R) {
    let mut times = Vec::with_capacity(reps);
    let mut out = None;
    for _ in 0..reps.max(1) {
        let t = Instant::now();
        out = Some(f());
        times.push(secs(t));
    }
    (median(&times), out.expect("at least one repetition"))
}
