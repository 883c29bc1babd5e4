//! The in-process load-test harness: drive a seeded synthetic workload
//! through a real [`Server`] from `jobs` client lanes (the shared
//! [`rtise_obs::lanes`] runner, one `worker-<i>` trace scope per lane)
//! and emit a deterministic obs-JSON report.
//!
//! The report is **byte-identical at any lane count**. Everything in it
//! derives from the request stream and the responses, never from
//! timing: per-family latency histograms are in *work units* (the
//! deterministic solver-counter sum each response carries), and hit
//! classification replays the dedup keys in stream order against the
//! starting store state. Wall-clock time is printed to stderr, outside
//! the report.
//!
//! Every response is re-certified through
//! [`rtise::check::serve::check_response`] before the report is built;
//! the harness fails (and says which request) if any response is not
//! independently provable.

use crate::engine::ResponseArtifact;
use crate::proto::dedup_key;
use crate::server::{Server, ServerConfig, STORE_TAG};
use crate::traffic;
use rtise_bench::store;
use rtise_obs::json::Value;
use rtise_obs::lanes::{lanes, LaneScope};
use rtise_obs::{Hist, Scope};
use std::collections::{BTreeMap, HashSet};
use std::path::PathBuf;

/// Number of buckets in the cache-hit-over-time curve.
const HIT_CURVE_BUCKETS: usize = 20;

/// Load-test configuration.
#[derive(Debug, Clone)]
pub struct LoadtestConfig {
    /// Traffic seed.
    pub seed: u64,
    /// Number of requests.
    pub requests: usize,
    /// Client lanes calling the server at once; also the server's
    /// computation limit.
    pub jobs: usize,
    /// Artifact-store directory shared with real serving; `None` runs
    /// memory-only.
    pub cache_dir: Option<PathBuf>,
    /// Chrome-trace export path.
    pub trace_out: Option<PathBuf>,
    /// Trace clock. Each lane writes its own `worker-{i}` track with the
    /// requests it happened to compute, so the trace follows `jobs` and
    /// scheduling even under [`Clock::Virtual`](rtise_trace::Clock); only
    /// the report is lane-count-independent.
    pub trace_clock: rtise_trace::Clock,
}

/// What a load test produced.
pub struct LoadtestOutcome {
    /// The deterministic obs-JSON report.
    pub report: Value,
    /// Responses that failed independent re-certification.
    pub certification_failures: Vec<String>,
    /// Whether the trace export (if requested) was written and
    /// schema-clean.
    pub trace_ok: bool,
    /// Requests answered from prior knowledge (earlier identical request
    /// or warm store), as a percentage.
    pub hit_rate_pct: f64,
}

struct FamilyStats {
    count: u64,
    errors: u64,
    work: Hist,
}

/// Runs one load test: generate, serve from `jobs` lanes, certify,
/// report.
#[must_use]
pub fn run(cfg: &LoadtestConfig) -> LoadtestOutcome {
    let requests = traffic::generate(cfg.seed, cfg.requests);

    // Deterministic hit classification *before* the server runs: a
    // request is a hit if its key appeared earlier in the stream or is
    // already on disk.
    let mut seen: HashSet<String> = HashSet::new();
    let hit: Vec<bool> = requests
        .iter()
        .map(|req| {
            let key = dedup_key(&req.kind);
            let warm = cfg
                .cache_dir
                .as_deref()
                .is_some_and(|dir| store::contains::<ResponseArtifact>(dir, STORE_TAG, &key));
            !seen.insert(key) || warm
        })
        .collect();
    let distinct = seen.len();

    let timer = rtise_obs::Timer::start();
    let server = Server::new(ServerConfig {
        jobs: cfg.jobs,
        cache_dir: cfg.cache_dir.clone(),
    });
    // `--jobs` client lanes claim requests in stream order; responses come
    // back in stream order, with each lane's `worker-<i>` trace scope.
    let worker = |i: usize| (format!("worker-{i}"), Scope::with_clock(cfg.trace_clock));
    let serve = |k: usize| server.serve(&requests[k]);
    let trace = cfg.trace_out.as_ref().map(|_| &worker as LaneScope);
    let (lines, traces) = lanes(cfg.jobs, requests.len(), trace, serve, |_, _| {});
    let counters = server.counters();
    let wall_ms = timer.elapsed_ms();

    // Independent re-certification of every response line, parsed back.
    let mut failures = Vec::new();
    let mut responses = Vec::with_capacity(lines.len());
    for (req, line) in requests.iter().zip(&lines) {
        let (resp, failure) = match rtise_obs::json::parse(line) {
            Ok(resp) => {
                let d = rtise::check::serve::check_response(&resp);
                let failure = (!d.is_clean()).then(|| {
                    d.render()
                        .lines()
                        .next()
                        .unwrap_or("(no detail)")
                        .to_string()
                });
                (resp, failure)
            }
            Err(e) => (Value::Null, Some(format!("response is not JSON: {e}"))),
        };
        if let Some(detail) = failure {
            failures.push(format!(
                "request {} ({}): {detail}",
                req.id,
                dedup_key(&req.kind)
            ));
        }
        responses.push(resp);
    }

    // Per-family stats in submission order (Hist's exact tier is
    // order-sensitive; submission order is deterministic).
    let mut families: BTreeMap<&'static str, FamilyStats> = BTreeMap::new();
    for (req, resp) in requests.iter().zip(&responses) {
        let stats = families
            .entry(req.kind.name())
            .or_insert_with(|| FamilyStats {
                count: 0,
                errors: 0,
                work: Hist::new(),
            });
        stats.count += 1;
        match resp.get("work").and_then(Value::as_f64) {
            Some(w) => stats.work.observe(w as u64),
            None => stats.errors += 1,
        }
    }

    let hits = hit.iter().filter(|&&h| h).count();
    let hit_rate_pct = if requests.is_empty() {
        0.0
    } else {
        (hits as f64 * 1.0e4 / requests.len() as f64).round() / 100.0
    };
    let hit_curve: Vec<Value> = (0..HIT_CURVE_BUCKETS)
        .filter_map(|b| {
            let lo = b * requests.len() / HIT_CURVE_BUCKETS;
            let hi = ((b + 1) * requests.len() / HIT_CURVE_BUCKETS).min(requests.len());
            if lo >= hi {
                return None;
            }
            let bucket_hits = hit[lo..hi].iter().filter(|&&h| h).count();
            Some(Value::obj(vec![
                ("upto", (hi as u64).into()),
                (
                    "rate_pct",
                    Value::Num((bucket_hits as f64 * 1.0e4 / (hi - lo) as f64).round() / 100.0),
                ),
            ]))
        })
        .collect();

    let counter = |name: &str| counters.get(name).copied().unwrap_or(0);
    let report = Value::obj(vec![
        ("seed", cfg.seed.into()),
        ("requests", (requests.len() as u64).into()),
        ("distinct", (distinct as u64).into()),
        (
            "shared",
            (counter("serve.dedup.hit") + counter("serve.memo.hit")).into(),
        ),
        ("hits", (hits as u64).into()),
        ("hit_rate_pct", Value::Num(hit_rate_pct)),
        ("hit_curve", Value::Arr(hit_curve)),
        (
            "store",
            Value::obj(vec![
                ("hits", counter("cache.response.hit").into()),
                ("misses", counter("cache.response.miss").into()),
                ("stores", counter("cache.response.store").into()),
            ]),
        ),
        (
            "families",
            Value::Obj(
                families
                    .iter()
                    .map(|(name, s)| {
                        ((*name).to_string(), {
                            Value::obj(vec![
                                ("count", s.count.into()),
                                ("errors", s.errors.into()),
                                ("work", s.work.summary_json()),
                            ])
                        })
                    })
                    .collect(),
            ),
        ),
        (
            "certified_clean",
            ((requests.len() - failures.len()) as u64).into(),
        ),
        ("certification_failures", (failures.len() as u64).into()),
    ]);

    let mut trace_ok = true;
    if let Some(path) = &cfg.trace_out {
        let doc = rtise_trace::chrome::chrome_trace(&traces);
        match rtise::check::trace::write_checked_trace(path, &doc) {
            Ok(_) => eprintln!("loadtest: wrote trace to {}", path.display()),
            Err(e) => {
                eprintln!("loadtest: {e}");
                trace_ok = false;
            }
        }
    }

    eprintln!(
        "loadtest: {} requests ({distinct} distinct) on {} lane(s) in {wall_ms:.1} ms",
        requests.len(),
        cfg.jobs,
    );

    LoadtestOutcome {
        report,
        certification_failures: failures,
        trace_ok,
        hit_rate_pct,
    }
}
