//! End-to-end service tests: report determinism across lane counts, the
//! memo, corrupt-store recovery, tracing, and the `serve --listen` TCP
//! path. Dedup, panic and concurrency-limit tests live next to the
//! private `resolve` in `server.rs`.

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
        "report must not depend on the lane count"
    );
}

#[test]
fn finished_results_are_served_from_the_memo() {
    let server = Server::new(ServerConfig::new(1));
    let line = r#"{"id": 1, "kind": "reconfig", "problem": "synthetic", "n": 6, "seed": 1}"#;
    let first = server.serve(&req(line));
    let second = server.serve(&req(line));
    let counters = server.counters();
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
    let server = Server::new(ServerConfig {
        jobs: 1,
        cache_dir: Some(dir.clone()),
    });
    let clean = server.serve(&request);
    let path = rtise_bench::store::entry_path::<ResponseArtifact>(&dir, STORE_TAG, &key);
    assert!(path.exists(), "response persisted");

    // Doctor the entry on disk: checksum mismatch (STORE003 on load).
    let text = std::fs::read_to_string(&path).expect("entry readable");
    let doctored = text.replace("\"work\": ", "\"work\": 1");
    assert_ne!(text, doctored, "mutation applied");
    std::fs::write(&path, doctored).expect("write doctored entry");

    // A fresh server must reject the entry, evict it, and recompute.
    let server = Server::new(ServerConfig {
        jobs: 1,
        cache_dir: Some(dir.clone()),
    });
    let recomputed = server.serve(&request);
    let counters = server.counters();
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
    let server = Server::new(ServerConfig {
        jobs: 1,
        cache_dir: Some(dir),
    });
    let warm = server.serve(&request);
    let counters = server.counters();
    assert_eq!(counters.get("cache.response.hit"), Some(&1));
    assert_eq!(counters.get("serve.exec"), None, "no solve on a warm hit");
    assert!(rtise::check::serve::check_response(&warm).is_clean());
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

/// A traced caller keeps the two kinds of observation apart: each
/// request's span and the solver events under it land in the caller's
/// clocked scope, while the server's own counters hold only dedup and
/// store bookkeeping, never solver work.
#[test]
fn traced_server_records_request_events_and_keeps_solver_work_out_of_its_counters() {
    let server = Server::new(ServerConfig {
        cache_dir: Some(tmp_dir("traced")),
        ..ServerConfig::new(2)
    });
    let trace = rtise_obs::Scope::with_clock(rtise_trace::Clock::Virtual);
    {
        let _trace = trace.enter();
        for line in [
            r#"{"id": 1, "kind": "select_edf", "kernels": ["fir", "crc32"], "u0_pct": 100, "budget": 256, "level": "fast"}"#,
            r#"{"id": 2, "kind": "select_rms", "kernels": ["fir", "crc32"], "u0_pct": 60, "budget": 256, "level": "fast"}"#,
            r#"{"id": 3, "kind": "ilp", "seed": 3}"#,
            r#"{"id": 4, "kind": "ilp", "seed": 4}"#,
        ] {
            let resp = server.serve(&req(line));
            assert_eq!(resp.get("ok"), Some(&Value::Bool(true)), "{resp:?}");
        }
    }
    let counters = server.counters();

    let events = trace.events();
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
