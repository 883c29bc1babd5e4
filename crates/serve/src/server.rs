//! The concurrent exploration server: a bounded worker pool over one
//! request queue, with in-flight dedup and an optional disk-backed
//! response store.
//!
//! Identical concurrent requests (same [dedup key](crate::proto::dedup_key))
//! share one slot: the first submission enqueues a job, later ones attach
//! to the in-flight slot (`serve.dedup.hit`) or to its finished result
//! (`serve.memo.hit`) without enqueuing anything. Workers consult the
//! sharded artifact store before computing (`cache.response.*` counters)
//! and persist fresh successful responses back, so a warm store answers
//! most of a repeated workload without touching a solver.
//!
//! A server starts paused — [`Server::start`] spawns the workers — so
//! tests (and the load-test harness) can submit a whole workload first
//! and get deterministic dedup/queue accounting, independent of worker
//! timing. [`Server::shutdown`] is graceful: workers drain every queued
//! job before exiting.

use crate::engine::{self, ResponseArtifact};
use crate::proto::{dedup_key, Request};
use rtise_bench::store;
use rtise_obs::json::Value;
use rtise_obs::Scope;
use std::collections::{HashMap, VecDeque};
use std::io::{BufRead, Write};
use std::path::PathBuf;
use std::sync::{Arc, Condvar, Mutex};

/// Store tag (filename prefix) for response entries.
pub const STORE_TAG: &str = "resp";

/// Server tuning.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker count (>= 1).
    pub jobs: usize,
    /// Artifact-store directory; `None` disables disk persistence.
    pub cache_dir: Option<PathBuf>,
    /// When set, each worker records its spans into a `worker-<i>` scope
    /// on this clock, exported by [`Server::shutdown`].
    pub trace_clock: Option<rtise_trace::Clock>,
}

impl ServerConfig {
    /// `jobs` workers, no disk store, no tracing.
    #[must_use]
    pub fn new(jobs: usize) -> Self {
        ServerConfig {
            jobs: jobs.max(1),
            cache_dir: None,
            trace_clock: None,
        }
    }
}

/// One shared result slot: the response template (id normalized to 0)
/// once ready.
struct Slot {
    ready: Mutex<Option<Value>>,
    cond: Condvar,
}

struct Queue {
    jobs: VecDeque<(String, Request, Arc<Slot>)>,
    closed: bool,
}

struct Inner {
    queue: Mutex<Queue>,
    cond: Condvar,
    results: Mutex<HashMap<String, Arc<Slot>>>,
    cache_dir: Option<PathBuf>,
    /// The server's own counters; entered only around queue, store and
    /// bookkeeping work, never around a request's computation.
    scope: Scope,
    traces: Mutex<Vec<(String, Scope)>>,
}

/// A submitted request's future response.
pub struct Handle {
    slot: Arc<Slot>,
    id: u64,
}

impl Handle {
    /// Blocks until the response is ready and returns it with this
    /// request's id.
    #[must_use]
    pub fn wait(&self) -> Value {
        // Recover from poisoning: a worker that panicked while filling
        // the slot must not take the waiter down too — shutdown fills the
        // orphaned slot with an error response instead.
        let mut ready = self
            .slot
            .ready
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        while ready.is_none() {
            ready = self
                .slot
                .cond
                .wait(ready)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
        let mut resp = ready.clone().expect("checked above");
        engine::set_field(&mut resp, "id", self.id.into());
        resp
    }
}

/// The exploration server. Created paused; call [`Server::start`].
pub struct Server {
    inner: Arc<Inner>,
    config: ServerConfig,
    workers: Mutex<Vec<std::thread::JoinHandle<()>>>,
    started: std::sync::atomic::AtomicBool,
}

impl Server {
    /// Creates a paused server: requests can be submitted and queue up,
    /// but nothing executes until [`Server::start`].
    #[must_use]
    pub fn new(config: ServerConfig) -> Self {
        Server {
            inner: Arc::new(Inner {
                queue: Mutex::new(Queue {
                    jobs: VecDeque::new(),
                    closed: false,
                }),
                cond: Condvar::new(),
                results: Mutex::new(HashMap::new()),
                cache_dir: config.cache_dir.clone(),
                scope: Scope::new(),
                traces: Mutex::new(Vec::new()),
            }),
            config,
            workers: Mutex::new(Vec::new()),
            started: std::sync::atomic::AtomicBool::new(false),
        }
    }

    /// Creates and immediately starts a server.
    #[must_use]
    pub fn start_new(config: ServerConfig) -> Self {
        let server = Server::new(config);
        server.start();
        server
    }

    /// Spawns the worker pool. Idempotent per server (second call is a
    /// no-op).
    pub fn start(&self) {
        if self.started.swap(true, std::sync::atomic::Ordering::SeqCst) {
            return;
        }
        let mut workers = self.workers.lock().expect("worker list poisoned");
        for i in 0..self.config.jobs {
            let inner = Arc::clone(&self.inner);
            let clock = self.config.trace_clock;
            workers.push(
                std::thread::Builder::new()
                    .name(format!("serve-worker-{i}"))
                    .spawn(move || worker_loop(&inner, i, clock))
                    .expect("spawn worker"),
            );
        }
    }

    /// Submits one request. Identical in-flight or finished requests
    /// share their slot; only the first submission of a key enqueues
    /// work.
    pub fn submit(&self, req: &Request) -> Handle {
        let key = dedup_key(&req.kind);
        let _obs = self.inner.scope.enter();
        let mut results = self.inner.results.lock().expect("results poisoned");
        if let Some(slot) = results.get(&key) {
            let done = slot.ready.lock().expect("slot poisoned").is_some();
            rtise_obs::record(
                if done {
                    "serve.memo.hit"
                } else {
                    "serve.dedup.hit"
                },
                1,
            );
            return Handle {
                slot: Arc::clone(slot),
                id: req.id,
            };
        }
        let slot = Arc::new(Slot {
            ready: Mutex::new(None),
            cond: Condvar::new(),
        });
        results.insert(key.clone(), Arc::clone(&slot));
        drop(results);
        rtise_obs::record("serve.queue.enqueued", 1);
        {
            let mut queue = self.inner.queue.lock().expect("queue poisoned");
            queue.jobs.push_back((key, req.clone(), Arc::clone(&slot)));
            rtise_obs::observe("serve.queue.depth", queue.jobs.len() as u64);
        }
        self.inner.cond.notify_one();
        Handle { slot, id: req.id }
    }

    /// The server's own counters: `serve.*` plus the response store's
    /// `cache.response.*` traffic.
    #[must_use]
    pub fn counters(&self) -> std::collections::BTreeMap<String, u64> {
        self.inner.scope.counters()
    }

    /// Graceful shutdown: workers drain every queued job, then exit.
    /// Returns the final counters and the per-worker scopes (empty unless
    /// [`ServerConfig::trace_clock`] was set).
    ///
    /// A panicked worker does not crash the shutdown: its death is
    /// counted (`serve.worker.panics`), the remaining workers still drain
    /// the queue, and any slot the dead worker left unfilled is completed
    /// with an error response so no [`Handle::wait`] hangs forever.
    pub fn shutdown(
        self,
    ) -> (
        std::collections::BTreeMap<String, u64>,
        Vec<(String, Scope)>,
    ) {
        {
            let mut queue = self.inner.queue.lock().expect("queue poisoned");
            queue.closed = true;
        }
        self.inner.cond.notify_all();
        let mut panicked = 0u64;
        for handle in self.workers.lock().expect("worker list poisoned").drain(..) {
            let name = handle.thread().name().unwrap_or("serve-worker").to_string();
            if handle.join().is_err() {
                panicked += 1;
                eprintln!("serve: {name} panicked; continuing shutdown");
            }
        }
        if panicked > 0 {
            let _obs = self.inner.scope.enter();
            rtise_obs::record("serve.worker.panics", panicked);
            let results = self.inner.results.lock().expect("results poisoned");
            for slot in results.values() {
                let mut ready = slot
                    .ready
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
                if ready.is_none() {
                    *ready = Some(engine::error_response(
                        0,
                        "worker panicked before completing this request",
                    ));
                    drop(ready);
                    slot.cond.notify_all();
                }
            }
        }
        let mut traces = self.inner.traces.lock().expect("traces poisoned");
        let mut traces = std::mem::take(&mut *traces);
        traces.sort_by(|a, b| a.0.cmp(&b.0));
        (self.inner.scope.counters(), traces)
    }

    /// Test-only: synchronously claims the front queued job (so the
    /// claim cannot race a real worker), then spawns a worker thread
    /// that panics without ever filling the job's slot — the exact
    /// failure mode [`Server::shutdown`] must recover from. Not part of
    /// the public API.
    #[doc(hidden)]
    pub fn inject_worker_panic_for_tests(&self) {
        let job = self
            .inner
            .queue
            .lock()
            .expect("queue poisoned")
            .jobs
            .pop_front();
        self.workers.lock().expect("worker list poisoned").push(
            std::thread::Builder::new()
                .name("serve-worker-faulty".to_string())
                .spawn(move || {
                    let _claimed = job;
                    panic!("worker panic injected by a test");
                })
                .expect("spawn worker"),
        );
    }
}

fn worker_loop(inner: &Inner, index: usize, trace_clock: Option<rtise_trace::Clock>) {
    let trace_scope = trace_clock.map(Scope::with_clock);
    {
        let _trace_guard = trace_scope.as_ref().map(Scope::enter);
        loop {
            let job = {
                let mut queue = inner.queue.lock().expect("queue poisoned");
                loop {
                    if let Some(job) = queue.jobs.pop_front() {
                        break Some(job);
                    }
                    if queue.closed {
                        break None;
                    }
                    queue = inner.cond.wait(queue).expect("queue poisoned");
                }
            };
            let Some((key, req, slot)) = job else {
                break;
            };
            let response = serve_one(inner, &key, &req);
            let mut ready = slot.ready.lock().expect("slot poisoned");
            *ready = Some(response);
            drop(ready);
            slot.cond.notify_all();
        }
    }
    if let Some(scope) = trace_scope {
        inner
            .traces
            .lock()
            .expect("traces poisoned")
            .push((format!("worker-{index}"), scope));
    }
}

/// Resolves one distinct request: disk store first, then execution, then
/// persist. The stored/served template always carries id 0; waiters
/// stamp their own id.
///
/// The server's scope is entered around the store traffic and the
/// `serve.exec` count only. The computation runs outside it, in the
/// request's own scope, so [`Server::counters`] never sees solver work
/// while the worker's trace scope still receives the request's events.
fn serve_one(inner: &Inner, key: &str, req: &Request) -> Value {
    {
        let _obs = inner.scope.enter();
        if let Some(dir) = &inner.cache_dir {
            // A loaded entry already passed the full response
            // re-certification (see `ResponseArtifact::decode`); corrupt
            // entries were evicted and fall through to recomputation.
            if let Some((artifact, _, _)) = store::load::<ResponseArtifact>(dir, STORE_TAG, key) {
                return artifact.0;
            }
        }
        rtise_obs::record("serve.exec", 1);
    }
    let mut response = engine::execute(&Request {
        id: 0,
        kind: req.kind.clone(),
    });
    engine::set_field(&mut response, "id", 0u64.into());
    let ok = matches!(response.get("ok"), Some(Value::Bool(true)));
    if ok {
        if let Some(dir) = &inner.cache_dir {
            let _obs = inner.scope.enter();
            let artifact = ResponseArtifact(response.clone());
            let empty_counters = std::collections::BTreeMap::new();
            let empty_hists = std::collections::BTreeMap::new();
            if let Err(e) = store::store(
                dir,
                STORE_TAG,
                key,
                &artifact,
                &empty_counters,
                &empty_hists,
            ) {
                eprintln!("serve: failed to persist response for {key:?}: {e}");
            }
        }
    }
    response
}

/// Longest request line [`serve_lines`] accepts, in bytes (newline
/// excluded). The longest legitimate request — a task set naming every
/// kernel — is well under 1 KiB; the cap only bounds what one client can
/// make the server hold.
pub const MAX_LINE_BYTES: usize = 64 * 1024;

/// Serves line-delimited JSON requests from `reader`, writing one
/// response line per request to `writer` in request order. Used by both
/// `serve --stdin` and each TCP connection.
///
/// A line longer than [`MAX_LINE_BYTES`] or not valid UTF-8 gets one
/// `ok: false` response and the stream goes on; the excess of an
/// over-long line is skipped without being buffered.
///
/// Each response goes out, newline included, in a single `write_all`: a
/// separate write for the newline would leave it as a 1-byte segment that
/// Nagle's algorithm holds until the client's delayed ACK.
///
/// # Errors
///
/// Propagates I/O errors from the reader or writer.
pub fn serve_lines(
    server: &Server,
    mut reader: impl BufRead,
    mut writer: impl Write,
) -> std::io::Result<()> {
    let mut buf = Vec::new();
    while let Some(fits) = read_capped_line(&mut reader, &mut buf)? {
        let response = match std::str::from_utf8(&buf) {
            _ if !fits => engine::error_response(
                0,
                &format!("request line longer than {MAX_LINE_BYTES} bytes"),
            ),
            Err(_) => engine::error_response(0, "request line is not valid UTF-8"),
            Ok(line) if line.trim().is_empty() => continue,
            Ok(line) => match crate::proto::parse(line) {
                Ok(req) => server.submit(&req).wait(),
                Err(msg) => engine::error_response(line_request_id(line), &msg),
            },
        };
        let mut out = response.render();
        out.push('\n');
        writer.write_all(out.as_bytes())?;
        writer.flush()?;
    }
    Ok(())
}

/// Reads the next line into `buf` without its `\n` (or `\r\n`), keeping
/// at most [`MAX_LINE_BYTES`]: the rest of a longer line is consumed and
/// dropped chunk by chunk. Returns `None` at end of input, otherwise
/// whether the line fit.
fn read_capped_line(reader: &mut impl BufRead, buf: &mut Vec<u8>) -> std::io::Result<Option<bool>> {
    // One byte of slack holds the `\r` of a CRLF line end at the cap.
    const KEEP: usize = MAX_LINE_BYTES + 1;
    buf.clear();
    let (mut any, mut fits) = (false, true);
    loop {
        let chunk = match reader.fill_buf() {
            Ok(chunk) => chunk,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        if chunk.is_empty() {
            break;
        }
        any = true;
        let newline = chunk.iter().position(|&b| b == b'\n');
        let part = &chunk[..newline.unwrap_or(chunk.len())];
        fits = fits && buf.len() + part.len() <= KEEP;
        if fits {
            buf.extend_from_slice(part);
        } else {
            buf.clear();
        }
        let used = newline.map_or(chunk.len(), |i| i + 1);
        reader.consume(used);
        if newline.is_some() {
            if buf.last() == Some(&b'\r') {
                buf.pop();
            }
            break;
        }
    }
    Ok(any.then_some(fits && buf.len() <= MAX_LINE_BYTES))
}

/// Best-effort id extraction from a malformed request line, so the error
/// response still correlates when possible.
fn line_request_id(line: &str) -> u64 {
    rtise_obs::json::parse(line)
        .ok()
        .and_then(|doc| doc.get("id").and_then(Value::as_f64))
        .filter(|n| n.is_finite() && *n >= 0.0 && n.fract() == 0.0)
        .map_or(0, |n| n as u64)
}

/// Binds `addr` and serves each connection on its own thread. Blocks
/// forever (terminate the process to stop). Every connection runs with
/// `TCP_NODELAY`, so a response is sent as soon as it is written.
///
/// # Errors
///
/// Propagates the bind failure; per-connection errors are logged and
/// drop only that connection.
pub fn run_tcp(addr: &str, server: &Arc<Server>) -> std::io::Result<()> {
    let listener = std::net::TcpListener::bind(addr)?;
    eprintln!("serve: listening on {}", listener.local_addr()?);
    for stream in listener.incoming() {
        match stream {
            Ok(stream) => {
                if let Err(e) = stream.set_nodelay(true) {
                    eprintln!("serve: could not set TCP_NODELAY: {e}");
                }
                let server = Arc::clone(server);
                std::thread::spawn(move || {
                    let reader = match stream.try_clone() {
                        Ok(s) => std::io::BufReader::new(s),
                        Err(e) => {
                            eprintln!("serve: connection clone failed: {e}");
                            return;
                        }
                    };
                    if let Err(e) = serve_lines(&server, reader, &stream) {
                        eprintln!("serve: connection dropped: {e}");
                    }
                });
            }
            Err(e) => eprintln!("serve: accept failed: {e}"),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Records every `write` call, so a test sees how a response was split.
    #[derive(Default)]
    struct CountingWriter {
        bytes: Vec<u8>,
        writes: usize,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    fn serve_input(input: impl AsRef<[u8]>) -> (Vec<Value>, usize) {
        let server = Server::start_new(ServerConfig::new(2));
        let mut out = CountingWriter::default();
        serve_lines(&server, input.as_ref(), &mut out).expect("in-memory I/O");
        let _ = server.shutdown();
        let text = String::from_utf8(out.bytes).expect("utf-8 responses");
        assert!(text.ends_with('\n'), "every response ends its line");
        let responses = text
            .lines()
            .map(|line| rtise_obs::json::parse(line).expect("response is JSON"))
            .collect();
        (responses, out.writes)
    }

    #[test]
    fn each_response_line_is_one_write() {
        let (responses, writes) = serve_input(
            "{\"id\": 1, \"kind\": \"ilp\", \"seed\": 3}\n\
             {\"id\": 2, \"kind\": \"ilp\", \"seed\": 3}\n\
             {\"id\": 3, \"kind\": \"ilp\", \"seed\": 4}\n",
        );
        assert_eq!(responses.len(), 3);
        assert_eq!(writes, responses.len(), "one write per response line");
    }

    #[test]
    fn responses_follow_request_order_and_skip_blank_lines() {
        let (responses, _) = serve_input(
            "{\"id\": 5, \"kind\": \"ilp\", \"seed\": 4}\n\
             \n   \n\
             {\"id\": 9, \"kind\": \"no_such_kind\"}\n\
             {\"id\": 2, \"kind\": \"ilp\", \"seed\": 3}\n",
        );
        let ids: Vec<_> = responses
            .iter()
            .map(|r| r.get("id").and_then(Value::as_f64))
            .collect();
        assert_eq!(ids, [Some(5.0), Some(9.0), Some(2.0)]);
        let ok: Vec<_> = responses.iter().map(|r| r.get("ok").cloned()).collect();
        assert_eq!(
            ok,
            [
                Some(Value::Bool(true)),
                Some(Value::Bool(false)),
                Some(Value::Bool(true))
            ],
            "the malformed line gets an error response carrying its id"
        );
    }

    /// A nesting bomb gets one error response; the next request on the
    /// same stream is still answered.
    #[test]
    fn nesting_bomb_line_is_answered_and_the_stream_survives() {
        let input = format!(
            "{}\n{{\"id\": 7, \"kind\": \"ilp\", \"seed\": 3}}\n",
            "[".repeat(100_000)
        );
        let (responses, _) = serve_input(&input);
        assert_eq!(responses.len(), 2);
        assert_eq!(responses[0].get("ok"), Some(&Value::Bool(false)));
        assert_eq!(responses[1].get("ok"), Some(&Value::Bool(true)));
        assert_eq!(responses[1].get("id").and_then(Value::as_f64), Some(7.0));
    }

    /// A valid request padded with spaces past the cap is rejected
    /// without being parsed, and the request after it is answered.
    #[test]
    fn over_long_line_is_rejected_and_the_stream_survives() {
        let padded = format!(
            "{{\"id\": 6, \"kind\": \"ilp\", \"seed\": 3}}{}",
            " ".repeat(MAX_LINE_BYTES)
        );
        let (responses, _) = serve_input(format!(
            "{padded}\n{{\"id\": 7, \"kind\": \"ilp\", \"seed\": 3}}\n"
        ));
        assert_eq!(responses.len(), 2);
        assert_eq!(responses[0].get("ok"), Some(&Value::Bool(false)));
        let error = responses[0].get("error").and_then(Value::as_str);
        assert!(
            error.is_some_and(|e| e.contains("longer than")),
            "{error:?}"
        );
        assert_eq!(responses[1].get("ok"), Some(&Value::Bool(true)));
        assert_eq!(responses[1].get("id").and_then(Value::as_f64), Some(7.0));
    }

    /// Invalid UTF-8 gets an error response instead of ending the stream;
    /// a line exactly at the cap, and CRLF line ends, still parse.
    #[test]
    fn invalid_utf8_is_answered_and_lines_at_the_cap_still_parse() {
        let request = "{\"id\": 8, \"kind\": \"ilp\", \"seed\": 3}";
        let at_cap = format!("{request}{}", " ".repeat(MAX_LINE_BYTES - request.len()));
        let mut input = b"{\"id\": 1, \"kind\": \"\xff\"}\r\n".to_vec();
        input.extend_from_slice(format!("{at_cap}\r\n{request}").as_bytes());
        let (responses, _) = serve_input(input);
        let ok: Vec<_> = responses.iter().map(|r| r.get("ok").cloned()).collect();
        assert_eq!(
            ok,
            [
                Some(Value::Bool(false)),
                Some(Value::Bool(true)),
                Some(Value::Bool(true))
            ]
        );
    }
}
