//! End-to-end service tests: report determinism across lane counts, the
//! memo, corrupt-store recovery, tracing, and the `serve --listen` TCP
//! path. Dedup, panic and concurrency-limit tests live next to the
//! private `resolve` in `server.rs`.

use rtise_obs::json::Value;
use rtise_serve::engine::{self, ResponseArtifact};
use rtise_serve::loadtest::{self, LoadtestConfig};
use rtise_serve::proto::{self, dedup_key, ReconfigReq, ReqKind};
use rtise_serve::server::{serve_lines, Server, ServerConfig, STORE_TAG};
use rtise_serve::traffic;
use std::collections::HashMap;
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
    assert_eq!(first, second, "the memo answers with the same bytes");
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
    let doctored = text.replace("\"work\":", "\"work\":1");
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
        clean, recomputed,
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
    assert_eq!(warm, clean, "the store answers with the computed bytes");
    let warm = rtise_obs::json::parse(&warm).expect("response is JSON");
    assert!(rtise::check::serve::check_response(&warm).is_clean());
}

/// Renders a request as the wire line `proto::parse` reads back.
fn request_line(request: &proto::Request) -> String {
    let mut fields: Vec<(&str, Value)> = vec![
        ("id", request.id.into()),
        ("kind", request.kind.name().into()),
    ];
    let names =
        |kernels: &[String]| Value::Arr(kernels.iter().map(|k| k.as_str().into()).collect());
    match &request.kind {
        ReqKind::Curve { kernel, level } => {
            fields.push(("kernel", kernel.as_str().into()));
            fields.push(("level", level.as_str().into()));
        }
        ReqKind::SelectEdf {
            kernels,
            u0_pct,
            budget,
            level,
        }
        | ReqKind::SelectRms {
            kernels,
            u0_pct,
            budget,
            level,
        } => {
            fields.push(("kernels", names(kernels)));
            fields.push(("u0_pct", (*u0_pct).into()));
            fields.push(("budget", (*budget).into()));
            fields.push(("level", level.as_str().into()));
        }
        ReqKind::Ilp { seed } => fields.push(("seed", (*seed).into())),
        ReqKind::Reconfig(ReconfigReq::Jpeg {
            fabric_pct,
            reconfig_cost,
            level,
        }) => {
            fields.push(("problem", "jpeg".into()));
            fields.push(("fabric_pct", (*fabric_pct).into()));
            fields.push(("reconfig_cost", (*reconfig_cost).into()));
            fields.push(("level", level.as_str().into()));
        }
        ReqKind::Reconfig(ReconfigReq::Synthetic { n, seed }) => {
            fields.push(("problem", "synthetic".into()));
            fields.push(("n", (*n).into()));
            fields.push(("seed", (*seed).into()));
        }
    }
    let line = Value::obj(fields).render();
    assert_eq!(&req(&line), request, "request line round-trips");
    line
}

/// The response lines `serve_lines` writes for `input`.
fn serve_text(server: &Server, input: &str) -> Vec<String> {
    let mut out = Vec::new();
    serve_lines(server, input.as_bytes(), &mut out).expect("in-memory I/O");
    let text = String::from_utf8(out).expect("UTF-8 responses");
    text.lines().map(String::from).collect()
}

/// `doc` with its id set by `engine::set_field`, rendered.
fn stamped(doc: &Value, id: u64) -> String {
    let mut doc = doc.clone();
    engine::set_field(&mut doc, "id", id.into());
    doc.render()
}

/// Byte-identity oracle for the rendered memo: every line `serve_lines`
/// writes for the seed-42 stream is `engine::execute` of its request with
/// the request's id stamped and rendered — from a cold memo, from the warm
/// memo of the same server, and from a fresh server over the warm store.
/// A valid store entry whose `id` member is not first is stamped in
/// place.
#[test]
fn served_lines_are_the_stamped_execution_of_every_request() {
    let requests = traffic::generate(42, 1000);
    let input: String = requests.iter().map(|r| request_line(r) + "\n").collect();
    let mut executed: HashMap<String, Value> = HashMap::new();
    let want: Vec<String> = requests
        .iter()
        .map(|r| {
            let doc = executed
                .entry(dedup_key(&r.kind))
                .or_insert_with(|| engine::execute(r));
            stamped(doc, r.id)
        })
        .collect();

    let dir = tmp_dir("oracle");
    let config = ServerConfig {
        cache_dir: Some(dir.clone()),
        ..ServerConfig::new(2)
    };
    let server = Server::new(config.clone());
    for pass in ["cold memo", "warm memo"] {
        let got = serve_text(&server, &input);
        assert_eq!(got.len(), want.len(), "{pass}");
        for (i, (got, want)) in got.iter().zip(&want).enumerate() {
            assert_eq!(got, want, "{pass}: request {i}");
        }
    }
    let warm = Server::new(config.clone());
    let got = serve_text(&warm, &input);
    assert_eq!(got, want, "warm store");
    assert_eq!(
        warm.counters().get("serve.exec"),
        None,
        "every line from the store"
    );

    // A store entry with `id` third, under a key the stream never asks.
    let request = req(r#"{"id": 0, "kind": "ilp", "seed": 100000}"#);
    let Value::Obj(mut pairs) = engine::execute(&request) else {
        panic!("a response is an object");
    };
    let id = pairs.remove(0);
    pairs.insert(2, id);
    let reordered = Value::Obj(pairs);
    rtise_bench::store::store(
        &dir,
        STORE_TAG,
        &dedup_key(&request.kind),
        &ResponseArtifact(reordered.clone()),
        &Default::default(),
        &Default::default(),
    )
    .expect("store entry written");
    let server = Server::new(config);
    let got = serve_text(
        &server,
        "{\"id\": 31, \"kind\": \"ilp\", \"seed\": 100000}\n\
         {\"id\": 32, \"kind\": \"ilp\", \"seed\": 100000}\n",
    );
    assert_eq!(got, [stamped(&reordered, 31), stamped(&reordered, 32)]);
    assert!(
        got[0].starts_with("{\"ok\":true,\"kind\":\"ilp\",\"id\":31,"),
        "{}",
        got[0]
    );
    let counters = server.counters();
    assert_eq!(counters.get("cache.response.hit"), Some(&1));
    assert_eq!(counters.get("serve.memo.hit"), Some(&1));
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
    let drive = |conn: usize| drive_connection(addr, conn as u64 + 1, 30);
    let mut latencies = rtise_obs::lanes::lanes(2, 2, None, drive, |_, _| {})
        .0
        .concat();
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
            let line = server.serve(&req(line));
            let resp = rtise_obs::json::parse(&line).expect("response is JSON");
            assert_eq!(resp.get("ok"), Some(&Value::Bool(true)), "{line}");
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
