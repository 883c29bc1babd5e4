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
use std::collections::{BTreeMap, HashMap};
use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
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
    // The two lines arrive in one batch, so the second may find the
    // first in flight (a dedup hit) or finished (a memo hit); either way
    // the store is read once.
    let counters = server.counters();
    let hit = |name: &str| counters.get(name).copied().unwrap_or(0);
    assert_eq!(hit("serve.memo.hit") + hit("serve.dedup.hit"), 1);
    assert_eq!(counters.get("cache.response.hit"), Some(&1));
}

/// A reader whose every `fill_buf` holds at most one line, as the stream
/// of a client that sends each request after the previous answer.
struct LineAtATime<'a>(&'a [u8]);

impl std::io::Read for LineAtATime<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let chunk = self.fill_buf()?;
        let n = chunk.len().min(buf.len());
        buf[..n].copy_from_slice(&chunk[..n]);
        self.consume(n);
        Ok(n)
    }
}

impl BufRead for LineAtATime<'_> {
    fn fill_buf(&mut self) -> std::io::Result<&[u8]> {
        let end = self
            .0
            .iter()
            .position(|&b| b == b'\n')
            .map_or(self.0.len(), |i| i + 1);
        Ok(&self.0[..end])
    }

    fn consume(&mut self, n: usize) {
        self.0 = &self.0[n..];
    }
}

/// The seed-42 stream with a blank, a malformed, an over-long and an
/// invalid UTF-8 line after every 97th request.
fn stream_with_bad_lines() -> Vec<u8> {
    let over_long = format!(
        "{{\"id\": 6, \"kind\": \"ilp\", \"seed\": 3}}{}\n",
        " ".repeat(rtise_serve::server::MAX_LINE_BYTES)
    );
    let mut input = Vec::new();
    for (i, request) in traffic::generate(42, 1000).iter().enumerate() {
        input.extend_from_slice((request_line(request) + "\n").as_bytes());
        if i % 97 == 0 {
            input.extend_from_slice(b"\n  \n{\"id\": 9, \"kind\": \"no_such_kind\"}\n");
            input.extend_from_slice(over_long.as_bytes());
            input.extend_from_slice(b"{\"id\": 1, \"kind\": \"\xff\"}\r\n");
        }
    }
    input
}

/// Pipelined lines give the same bytes whether they compute on 1, 2 or 4
/// lanes, and whether they arrive all at once or one per read.
#[test]
fn pipelined_lines_give_the_same_bytes_at_every_lane_count_and_read_size() {
    let input = stream_with_bad_lines();
    let serve = |jobs: usize, reader: &mut dyn BufRead| {
        let mut out = Vec::new();
        serve_lines(&Server::new(ServerConfig::new(jobs)), reader, &mut out)
            .expect("in-memory I/O");
        out
    };
    let want = serve(1, &mut input.as_slice());
    let lines = want.iter().filter(|&&b| b == b'\n').count();
    assert_eq!(lines, 1000 + 3 * 11, "one answer per non-blank line");
    for jobs in [2, 4] {
        assert!(serve(jobs, &mut input.as_slice()) == want, "jobs {jobs}");
    }
    assert!(
        serve(2, &mut LineAtATime(&input)) == want,
        "one line per read"
    );
}

/// A slow request ahead of fast ones in one batch is still answered
/// first: answers leave in request order.
#[test]
fn a_slow_line_ahead_of_fast_ones_is_answered_first() {
    let mut input = String::from(
        "{\"id\": 0, \"kind\": \"reconfig\", \"problem\": \"synthetic\", \"n\": 10, \"seed\": 5}\n",
    );
    for id in 1..=8 {
        input += &format!("{{\"id\": {id}, \"kind\": \"ilp\", \"seed\": {id}}}\n");
    }
    let got = serve_text(&Server::new(ServerConfig::new(2)), &input);
    let ids: Vec<_> = got
        .iter()
        .map(|line| {
            let resp = rtise_obs::json::parse(line).expect("response is JSON");
            assert_eq!(resp.get("ok"), Some(&Value::Bool(true)), "{line}");
            resp.get("id").and_then(Value::as_u64)
        })
        .collect();
    assert_eq!(ids, (0..=8).map(Some).collect::<Vec<_>>());
}

/// Records the thread of every `write` call.
#[derive(Default)]
struct ThreadRecorder(Vec<std::thread::ThreadId>);

impl Write for ThreadRecorder {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.push(std::thread::current().id());
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Lines that arrive one per read are each answered on the reading
/// thread, as is a batch at `jobs` 1; a batch at `jobs` 2 is answered
/// from its lanes.
#[test]
fn lone_lines_are_answered_on_the_reading_thread() {
    let input: String = (0..6)
        .map(|id| {
            format!(
                "{{\"id\": {id}, \"kind\": \"ilp\", \"seed\": {}}}\n",
                id % 3
            )
        })
        .collect();
    let me = std::thread::current().id();
    let writers = |jobs: usize, reader: &mut dyn BufRead| {
        let mut recorder = ThreadRecorder::default();
        serve_lines(&Server::new(ServerConfig::new(jobs)), reader, &mut recorder)
            .expect("in-memory I/O");
        assert_eq!(recorder.0.len(), 6, "one write per response");
        recorder.0
    };
    let closed_loop = writers(2, &mut LineAtATime(input.as_bytes()));
    assert!(closed_loop.iter().all(|&t| t == me), "closed loop");
    let serial = writers(1, &mut input.as_bytes());
    assert!(serial.iter().all(|&t| t == me), "jobs 1");
    let lanes = writers(2, &mut input.as_bytes());
    assert!(lanes.iter().all(|&t| t != me), "a batch on lanes");
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

/// Every file under `dir` with its bytes and modification time, by path
/// relative to `dir`.
fn store_files(dir: &Path) -> BTreeMap<PathBuf, (Vec<u8>, std::time::SystemTime)> {
    let mut files = BTreeMap::new();
    for shard in std::fs::read_dir(dir).expect("read store") {
        for entry in std::fs::read_dir(shard.expect("shard").path()).expect("read shard") {
            let path = entry.expect("entry").path();
            let modified = std::fs::metadata(&path).and_then(|m| m.modified());
            files.insert(
                path.strip_prefix(dir)
                    .expect("under the store")
                    .to_path_buf(),
                (
                    std::fs::read(&path).expect("read entry"),
                    modified.expect("mtime"),
                ),
            );
        }
    }
    files
}

/// Starts `serve --stdin --jobs 2 --cache-dir dir`, feeding it `input`
/// from a thread of its own.
fn spawn_stdin_serve(
    dir: &Path,
    input: &str,
) -> (std::process::Child, std::thread::JoinHandle<()>) {
    let mut child = std::process::Command::new(env!("CARGO_BIN_EXE_serve"))
        .args(["--stdin", "--jobs", "2", "--cache-dir"])
        .arg(dir)
        .stdin(std::process::Stdio::piped())
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("spawn serve");
    let mut stdin = child.stdin.take().expect("piped stdin");
    let input = input.to_string();
    let feeder = std::thread::spawn(move || stdin.write_all(input.as_bytes()).expect("feed serve"));
    (child, feeder)
}

/// The stdout and stderr of a `spawn_stdin_serve` process that exited 0.
fn finish(child: std::process::Child, feeder: std::thread::JoinHandle<()>) -> (String, String) {
    let out = child.wait_with_output().expect("serve exits");
    feeder.join().expect("feeder thread");
    assert!(out.status.success(), "serve failed: {out:?}");
    let text = |bytes: Vec<u8>| String::from_utf8(bytes).expect("UTF-8 output");
    (text(out.stdout), text(out.stderr))
}

/// Two `serve --stdin` processes filling one fresh store at once. Shard
/// locks are per process, so the two write the same entries side by side
/// while reading them back, and only the write protocol — a temp file
/// renamed over the entry — keeps every entry either absent or whole,
/// which a load that serves the bytes it read relies on. Both must
/// answer what one process answers cold, leave the store that one
/// writes, and a third, warm process must answer from that store alone:
/// no entry discarded, none rewritten.
#[test]
fn two_processes_filling_one_store_answer_as_one_process_does() {
    let input: String = traffic::generate(42, 200)
        .iter()
        .map(|request| request_line(request) + "\n")
        .collect();
    let single = tmp_dir("one-process");
    let (child, feeder) = spawn_stdin_serve(&single, &input);
    let (cold, _) = finish(child, feeder);
    assert_eq!(cold.lines().count(), 200);

    let shared = tmp_dir("two-processes");
    let first = spawn_stdin_serve(&shared, &input);
    let second = spawn_stdin_serve(&shared, &input);
    for (out, err) in [finish(first.0, first.1), finish(second.0, second.1)] {
        assert!(
            out == cold,
            "a racing process answered differently; stderr: {err}"
        );
        assert!(!err.contains("discarding"), "{err}");
    }
    let written = store_files(&shared);
    assert!(written.len() > 50, "{} entries", written.len());
    let bytes = |files: &BTreeMap<PathBuf, (Vec<u8>, _)>| {
        files
            .iter()
            .map(|(path, (text, _))| (path.clone(), text.clone()))
            .collect::<Vec<_>>()
    };
    assert_eq!(
        bytes(&written),
        bytes(&store_files(&single)),
        "the shared store"
    );

    let (child, feeder) = spawn_stdin_serve(&shared, &input);
    let (warm, err) = finish(child, feeder);
    assert!(
        warm == cold,
        "the warm pass answered differently; stderr: {err}"
    );
    assert!(!err.contains("discarding"), "{err}");
    assert!(
        written == store_files(&shared),
        "the warm pass rewrote entries"
    );
    for dir in [single, shared] {
        let _ = std::fs::remove_dir_all(dir);
    }
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
