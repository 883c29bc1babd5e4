//! End-to-end service tests: report determinism across worker counts,
//! in-flight dedup, corrupt-store recovery, graceful shutdown, and the
//! `serve --listen` TCP path.

use rtise_obs::json::Value;
use rtise_serve::engine::ResponseArtifact;
use rtise_serve::loadtest::{self, LoadtestConfig};
use rtise_serve::proto::{self, dedup_key};
use rtise_serve::server::{Server, ServerConfig, STORE_TAG};
use std::io::{BufRead, BufReader, Write};
use std::path::PathBuf;
use std::time::{Duration, Instant};

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rtise-serve-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn req(line: &str) -> proto::Request {
    proto::parse(line).expect("request parses")
}

fn loadtest_cfg(jobs: usize, cache_dir: Option<PathBuf>) -> LoadtestConfig {
    LoadtestConfig {
        seed: 0x10ad,
        requests: 150,
        jobs,
        cache_dir,
        trace_out: None,
        trace_clock: rtise_trace::Clock::Virtual,
    }
}

#[test]
fn loadtest_report_is_byte_identical_across_worker_counts() {
    let serial = loadtest::run(&loadtest_cfg(1, Some(tmp_dir("det-1"))));
    let parallel = loadtest::run(&loadtest_cfg(4, Some(tmp_dir("det-4"))));
    assert!(serial.certification_failures.is_empty());
    assert!(parallel.certification_failures.is_empty());
    assert_eq!(
        serial.report.render_pretty(),
        parallel.report.render_pretty(),
        "report must not depend on the worker count"
    );
}

#[test]
fn identical_inflight_requests_share_one_computation() {
    // Paused server: both submissions land before any worker runs, so
    // the second is deterministically an in-flight dedup hit.
    let server = Server::new(ServerConfig::new(2));
    let a = server.submit(&req(r#"{"id": 1, "kind": "ilp", "seed": 3}"#));
    let b = server.submit(&req(r#"{"id": 2, "kind": "ilp", "seed": 3}"#));
    let counters = server.counters();
    assert_eq!(counters.get("serve.dedup.hit"), Some(&1));
    assert_eq!(counters.get("serve.queue.enqueued"), Some(&1));

    server.start();
    let ra = a.wait();
    let rb = b.wait();
    let (counters, _) = server.shutdown();
    assert_eq!(
        counters.get("serve.exec"),
        Some(&1),
        "one solve, two responses"
    );

    assert_eq!(ra.get("id").and_then(Value::as_f64), Some(1.0));
    assert_eq!(rb.get("id").and_then(Value::as_f64), Some(2.0));
    assert_eq!(
        ra.get("checksum").and_then(Value::as_str),
        rb.get("checksum").and_then(Value::as_str),
        "both callers got the same certified result"
    );
    assert!(rtise::check::serve::check_response(&ra).is_clean());
}

#[test]
fn finished_results_are_served_from_the_memo() {
    let server = Server::start_new(ServerConfig::new(1));
    let line = r#"{"id": 1, "kind": "reconfig", "problem": "synthetic", "n": 6, "seed": 1}"#;
    let first = server.submit(&req(line)).wait();
    let second = server.submit(&req(line)).wait();
    let (counters, _) = server.shutdown();
    assert_eq!(counters.get("serve.exec"), Some(&1));
    assert_eq!(counters.get("serve.memo.hit"), Some(&1));
    assert_eq!(
        first.get("checksum").and_then(Value::as_str),
        second.get("checksum").and_then(Value::as_str)
    );
}

#[test]
fn corrupt_store_entries_are_evicted_and_recomputed() {
    let dir = tmp_dir("corrupt");
    let line = r#"{"id": 7, "kind": "ilp", "seed": 4}"#;
    let request = req(line);
    let key = dedup_key(&request.kind);

    // Warm the store.
    let server = Server::start_new(ServerConfig {
        jobs: 1,
        cache_dir: Some(dir.clone()),
        trace_clock: None,
    });
    let clean = server.submit(&request).wait();
    server.shutdown();
    let path = rtise_bench::store::entry_path::<ResponseArtifact>(&dir, STORE_TAG, &key);
    assert!(path.exists(), "response persisted");

    // Doctor the entry on disk: checksum mismatch (STORE003 on load).
    let text = std::fs::read_to_string(&path).expect("entry readable");
    let doctored = text.replace("\"work\": ", "\"work\": 1");
    assert_ne!(text, doctored, "mutation applied");
    std::fs::write(&path, doctored).expect("write doctored entry");

    // A fresh server must reject the entry, evict it, and recompute.
    let server = Server::start_new(ServerConfig {
        jobs: 1,
        cache_dir: Some(dir.clone()),
        trace_clock: None,
    });
    let recomputed = server.submit(&request).wait();
    let (counters, _) = server.shutdown();
    assert_eq!(
        counters.get("cache.response.hit"),
        None,
        "no hit on corrupt entry"
    );
    assert_eq!(counters.get("cache.response.evict"), Some(&1));
    assert_eq!(counters.get("serve.exec"), Some(&1));
    assert_eq!(
        clean.get("checksum").and_then(Value::as_str),
        recomputed.get("checksum").and_then(Value::as_str),
        "recomputation reproduces the certified result"
    );

    // The recomputed entry is stored again and now serves warm.
    let server = Server::start_new(ServerConfig {
        jobs: 1,
        cache_dir: Some(dir),
        trace_clock: None,
    });
    let warm = server.submit(&request).wait();
    let (counters, _) = server.shutdown();
    assert_eq!(counters.get("cache.response.hit"), Some(&1));
    assert_eq!(counters.get("serve.exec"), None, "no solve on a warm hit");
    assert!(rtise::check::serve::check_response(&warm).is_clean());
}

#[test]
fn shutdown_drains_every_queued_job() {
    // Queue a batch while paused, start, and immediately shut down: the
    // graceful drain must answer everything before the workers exit.
    let server = Server::new(ServerConfig::new(3));
    let handles: Vec<_> = (0..12)
        .map(|i| {
            server.submit(&req(&format!(
                r#"{{"id": {}, "kind": "ilp", "seed": {}}}"#,
                i + 1,
                i % 6
            )))
        })
        .collect();
    server.start();
    let (counters, _) = server.shutdown();
    assert_eq!(
        counters.get("serve.exec"),
        Some(&6),
        "six distinct seeds solved"
    );
    for (i, h) in handles.iter().enumerate() {
        let resp = h.wait();
        assert_eq!(resp.get("id").and_then(Value::as_f64), Some(i as f64 + 1.0));
        assert!(
            rtise::check::serve::check_response(&resp).is_clean(),
            "response {i} certified after drain"
        );
    }
}

/// A worker that dies mid-job must not crash `shutdown` or strand its
/// waiter: the panic is counted, the orphaned slot is completed with an
/// error response, and `Handle::wait` returns instead of hanging.
#[test]
fn panicked_worker_does_not_crash_shutdown_or_hang_waiters() {
    let server = Server::new(ServerConfig::new(1));
    let handle = server.submit(&req(r#"{"id": 9, "kind": "ilp", "seed": 2}"#));
    // Claim the queued job and die without filling its slot; real
    // workers are never started, so only the faulty one ran.
    server.inject_worker_panic_for_tests();
    let (counters, _) = server.shutdown();
    assert_eq!(counters.get("serve.worker.panics"), Some(&1));
    assert_eq!(counters.get("serve.exec"), None, "job never executed");

    let resp = handle.wait();
    assert_eq!(resp.get("ok"), Some(&Value::Bool(false)));
    assert_eq!(resp.get("id").and_then(Value::as_f64), Some(9.0));
    let error = resp.get("error").and_then(Value::as_str).unwrap_or("");
    assert!(
        error.contains("worker panicked"),
        "unexpected error: {error}"
    );
}

/// Surviving workers keep draining the queue past a panicked one: only
/// the job the dead worker claimed gets an error response.
#[test]
fn queue_drains_past_a_panicked_worker() {
    let server = Server::new(ServerConfig::new(1));
    let handles: Vec<_> = (0..3)
        .map(|i| {
            server.submit(&req(&format!(
                r#"{{"id": {}, "kind": "ilp", "seed": {i}}}"#,
                i + 1
            )))
        })
        .collect();
    // The faulty worker deterministically claims the first job; the real
    // worker started afterwards drains the remaining two.
    server.inject_worker_panic_for_tests();
    server.start();
    let (counters, _) = server.shutdown();
    assert_eq!(counters.get("serve.worker.panics"), Some(&1));
    assert_eq!(counters.get("serve.exec"), Some(&2), "survivors drained");

    let lost = handles[0].wait();
    assert_eq!(lost.get("ok"), Some(&Value::Bool(false)));
    for (i, h) in handles.iter().enumerate().skip(1) {
        let resp = h.wait();
        assert_eq!(resp.get("ok"), Some(&Value::Bool(true)), "job {i} served");
        assert!(rtise::check::serve::check_response(&resp).is_clean());
    }
}

#[test]
fn warm_rerun_has_strictly_higher_hit_rate() {
    let dir = tmp_dir("warm");
    let cold = loadtest::run(&loadtest_cfg(2, Some(dir.clone())));
    let warm = loadtest::run(&loadtest_cfg(2, Some(dir)));
    assert!(cold.certification_failures.is_empty());
    assert!(warm.certification_failures.is_empty());
    assert!(
        warm.hit_rate_pct > cold.hit_rate_pct,
        "warm {} <= cold {}",
        warm.hit_rate_pct,
        cold.hit_rate_pct
    );
    assert_eq!(warm.hit_rate_pct, 100.0, "every request warm-served");
}

/// The README's example requests, one per request kind.
const README_REQUESTS: [&str; 6] = [
    r#""kind": "curve", "kernel": "crc32", "level": "fast""#,
    r#""kind": "select_edf", "kernels": ["fir", "crc32"], "u0_pct": 105, "budget": 256"#,
    r#""kind": "select_rms", "kernels": ["sha", "md5"], "u0_pct": 65, "budget": 512"#,
    r#""kind": "ilp", "seed": 7"#,
    r#""kind": "reconfig", "problem": "jpeg", "fabric_pct": 30, "reconfig_cost": 1500"#,
    r#""kind": "reconfig", "problem": "synthetic", "n": 8, "seed": 3"#,
];

/// A spawned `serve` process, killed and reaped however the test ends.
struct ServeProcess(std::process::Child);

impl Drop for ServeProcess {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// Runs `repeats` closed-loop passes of the README requests on one fresh
/// connection, checking every response, and returns the latency of each
/// request after the first pass (those are answered from memory).
fn drive_connection(addr: &str, conn: u64, repeats: u64) -> Vec<Duration> {
    let stream = std::net::TcpStream::connect(addr).expect("connect to serve");
    stream
        .set_read_timeout(Some(Duration::from_secs(300)))
        .expect("read timeout");
    let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));
    let mut writer = stream;
    let mut latencies = Vec::new();
    for repeat in 0..repeats {
        for (i, body) in README_REQUESTS.iter().enumerate() {
            let id = conn * 1000 + repeat * 10 + i as u64;
            let sent = Instant::now();
            writer
                .write_all(format!("{{\"id\": {id}, {body}}}\n").as_bytes())
                .expect("send request");
            let mut line = String::new();
            reader.read_line(&mut line).expect("read response");
            let elapsed = sent.elapsed();
            let resp = rtise_obs::json::parse(&line).expect("response is JSON");
            assert_eq!(
                resp.get("ok"),
                Some(&Value::Bool(true)),
                "request {id} failed: {line}"
            );
            assert_eq!(
                resp.get("id").and_then(Value::as_f64),
                Some(id as f64),
                "responses arrive in request order"
            );
            if repeat > 0 {
                latencies.push(elapsed);
            }
        }
    }
    latencies
}

#[test]
fn tcp_connections_get_every_response_in_order_without_delayed_ack_stalls() {
    let mut child = std::process::Command::new(env!("CARGO_BIN_EXE_serve"))
        .args(["--listen", "127.0.0.1:0", "--jobs", "2"])
        .stdin(std::process::Stdio::null())
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("spawn serve");
    let mut stderr = BufReader::new(child.stderr.take().expect("piped stderr"));
    let serve = ServeProcess(child);
    let mut line = String::new();
    stderr.read_line(&mut line).expect("read serve stderr");
    let addr = line
        .trim()
        .strip_prefix("serve: listening on ")
        .unwrap_or_else(|| panic!("unexpected first stderr line {line:?}"))
        .to_string();
    // Keep draining stderr so the server never blocks on a full pipe.
    std::thread::spawn(move || std::io::copy(&mut stderr, &mut std::io::sink()));

    let addr = addr.as_str();
    let mut latencies: Vec<Duration> = std::thread::scope(|s| {
        let workers: Vec<_> = (1..=2)
            .map(|conn| s.spawn(move || drive_connection(addr, conn, 30)))
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("client thread"))
            .collect()
    });
    drop(serve);
    latencies.sort_unstable();
    let median = latencies[latencies.len() / 2];
    // A response held back for the client's delayed ACK takes ~40 ms.
    assert!(
        median < Duration::from_millis(10),
        "median repeat latency {median:?} over {} requests",
        latencies.len()
    );
}

/// A traced server keeps its two kinds of observation apart: each
/// request's span and the solver events under it land on the worker
/// tracks, while the server's own counters hold only queue and store
/// bookkeeping, never solver work.
#[test]
fn traced_server_records_request_events_and_keeps_solver_work_out_of_its_counters() {
    let config = ServerConfig {
        cache_dir: Some(tmp_dir("traced")),
        trace_clock: Some(rtise_trace::Clock::Virtual),
        ..ServerConfig::new(2)
    };
    let server = Server::new(config);
    let handles: Vec<_> = [
        r#"{"id": 1, "kind": "select_edf", "kernels": ["fir", "crc32"], "u0_pct": 100, "budget": 256, "level": "fast"}"#,
        r#"{"id": 2, "kind": "select_rms", "kernels": ["fir", "crc32"], "u0_pct": 60, "budget": 256, "level": "fast"}"#,
        r#"{"id": 3, "kind": "ilp", "seed": 3}"#,
        r#"{"id": 4, "kind": "ilp", "seed": 4}"#,
    ]
    .iter()
    .map(|line| server.submit(&req(line)))
    .collect();
    server.start();
    for h in &handles {
        let resp = h.wait();
        assert_eq!(resp.get("ok"), Some(&Value::Bool(true)), "{resp:?}");
    }
    let (counters, traces) = server.shutdown();

    let labels: Vec<_> = traces.iter().map(|(label, _)| label.as_str()).collect();
    assert_eq!(labels, ["worker-0", "worker-1"]);
    let events: Vec<_> = traces
        .iter()
        .flat_map(|(_, scope)| scope.events())
        .collect();
    let has = |kind: rtise_trace::EventKind, name: &str| {
        events.iter().any(|e| e.kind == kind && e.name == name)
    };
    for span in ["select_edf", "select_rms", "ilp"] {
        assert!(has(rtise_trace::EventKind::Begin, span), "no {span} span");
    }
    for summary in [
        rtise_trace::codes::SELECT_EDF_SUMMARY,
        rtise_trace::codes::SELECT_RMS_SUMMARY,
        rtise_trace::codes::ILP_SUMMARY,
    ] {
        assert!(
            has(rtise_trace::EventKind::Instant, summary),
            "no {summary} event"
        );
    }

    assert_eq!(counters.get("serve.exec"), Some(&4));
    assert_eq!(counters.get("cache.response.store"), Some(&4));
    let foreign: Vec<_> = counters
        .keys()
        .filter(|k| !k.starts_with("serve.") && !k.starts_with("cache.response."))
        .collect();
    assert!(
        foreign.is_empty(),
        "solver work in server counters: {foreign:?}"
    );
}
