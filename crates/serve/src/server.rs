//! The exploration server: in-flight dedup, an in-memory memo and an
//! optional disk-backed response store, answered on the caller's thread.
//!
//! [`Server::serve`] runs on whichever thread read the request — the
//! stdin loop, a TCP connection, or a load-test lane. Identical
//! concurrent requests (same [dedup key](crate::proto::dedup_key)) share
//! one slot: the first caller for a key computes and fills it, later
//! callers wait on the in-flight slot (`serve.dedup.hit`) or read its
//! finished result (`serve.memo.hit`). The computing caller consults the
//! sharded artifact store first (`cache.response.*` counters) and
//! persists fresh successful responses back, so a warm store answers
//! most of a repeated workload without touching a solver.
//!
//! At most [`ServerConfig::jobs`] computations run at once; memo and
//! dedup hits never wait for one. A computation that panics fills its
//! slot with an `ok: false` response (`serve.panics`), so every waiter
//! gets an answer and the caller's thread goes on serving.

use crate::engine::{self, ResponseArtifact};
use crate::proto::{dedup_key, Request};
use rtise_bench::store;
use rtise_obs::json::Value;
use rtise_obs::Scope;
use std::collections::HashMap;
use std::io::{BufRead, Write};
use std::path::PathBuf;
use std::sync::{Arc, Condvar, Mutex};

/// Store tag (filename prefix) for response entries.
pub const STORE_TAG: &str = "resp";

/// Server tuning.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Most computations running at once (>= 1).
    pub jobs: usize,
    /// Artifact-store directory; `None` disables disk persistence.
    pub cache_dir: Option<PathBuf>,
}

impl ServerConfig {
    /// At most `jobs` concurrent computations, no disk store.
    #[must_use]
    pub fn new(jobs: usize) -> Self {
        ServerConfig {
            jobs,
            cache_dir: None,
        }
    }
}

/// One shared result slot: the response template (id normalized to 0)
/// once ready.
#[derive(Default)]
struct Slot {
    ready: Mutex<Option<Value>>,
    cond: Condvar,
}

impl Slot {
    fn wait(&self) -> Value {
        let mut ready = self.ready.lock().expect("slot poisoned");
        while ready.is_none() {
            ready = self.cond.wait(ready).expect("slot poisoned");
        }
        ready.clone().expect("checked above")
    }

    fn fill(&self, response: Value) {
        *self.ready.lock().expect("slot poisoned") = Some(response);
        self.cond.notify_all();
    }
}

/// The exploration server; share it by reference (or `Arc`) between the
/// threads that read requests.
pub struct Server {
    slots: Mutex<HashMap<String, Arc<Slot>>>,
    cache_dir: Option<PathBuf>,
    /// The server's own counters; entered only around dedup, store and
    /// bookkeeping work, never around a request's computation.
    scope: Scope,
    /// Computation permits not currently taken.
    permits: Mutex<usize>,
    permit_returned: Condvar,
}

impl Server {
    /// Creates a server. It starts no threads.
    #[must_use]
    pub fn new(config: ServerConfig) -> Self {
        Server {
            slots: Mutex::new(HashMap::new()),
            cache_dir: config.cache_dir,
            scope: Scope::new(),
            permits: Mutex::new(config.jobs.max(1)),
            permit_returned: Condvar::new(),
        }
    }

    /// Answers one request on the calling thread, stamped with its id.
    /// Blocks while an identical request is in flight, or while `jobs`
    /// other computations run.
    #[must_use]
    pub fn serve(&self, req: &Request) -> Value {
        let key = dedup_key(&req.kind);
        let mut response = self.resolve(&key, || self.compute(&key, req));
        engine::set_field(&mut response, "id", req.id.into());
        response
    }

    /// The server's own counters: `serve.*` plus the response store's
    /// `cache.response.*` traffic.
    #[must_use]
    pub fn counters(&self) -> std::collections::BTreeMap<String, u64> {
        self.scope.counters()
    }

    /// The response for `key`: the first caller runs `compute` (under a
    /// permit, panics caught) and fills the shared slot; later callers
    /// wait on or read that slot.
    fn resolve(&self, key: &str, compute: impl FnOnce() -> Value) -> Value {
        let slot = {
            let _obs = self.scope.enter();
            let mut slots = self.slots.lock().expect("slots poisoned");
            if let Some(slot) = slots.get(key) {
                let slot = Arc::clone(slot);
                let done = slot.ready.lock().expect("slot poisoned").is_some();
                drop(slots);
                rtise_obs::record(
                    if done {
                        "serve.memo.hit"
                    } else {
                        "serve.dedup.hit"
                    },
                    1,
                );
                return slot.wait();
            }
            let slot = Arc::new(Slot::default());
            slots.insert(key.to_string(), Arc::clone(&slot));
            slot
        };
        self.take_permit();
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(compute));
        self.return_permit();
        let response = outcome.unwrap_or_else(|_| {
            let _obs = self.scope.enter();
            rtise_obs::record("serve.panics", 1);
            engine::error_response(0, "internal error: request computation panicked")
        });
        slot.fill(response.clone());
        response
    }

    fn take_permit(&self) {
        let mut free = self.permits.lock().expect("permits poisoned");
        while *free == 0 {
            free = self.permit_returned.wait(free).expect("permits poisoned");
        }
        *free -= 1;
    }

    fn return_permit(&self) {
        *self.permits.lock().expect("permits poisoned") += 1;
        self.permit_returned.notify_one();
    }

    /// Computes one distinct request: disk store first, then execution,
    /// then persist. The stored/served template always carries id 0;
    /// [`Server::serve`] stamps the caller's id.
    ///
    /// The server's scope is entered around the store traffic and the
    /// `serve.exec` count only. The computation runs outside it, in the
    /// request's own scope nested under the caller's, so
    /// [`Server::counters`] never sees solver work while a caller's trace
    /// scope still receives the request's events.
    fn compute(&self, key: &str, req: &Request) -> Value {
        {
            let _obs = self.scope.enter();
            if let Some(dir) = &self.cache_dir {
                // A loaded entry already passed the full response
                // re-certification (see `ResponseArtifact::decode`);
                // corrupt entries were evicted and fall through to
                // recomputation.
                if let Some((artifact, _, _)) = store::load::<ResponseArtifact>(dir, STORE_TAG, key)
                {
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
            if let Some(dir) = &self.cache_dir {
                let _obs = self.scope.enter();
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
}

/// Longest request line [`serve_lines`] accepts, in bytes (newline
/// excluded). The longest legitimate request — a task set naming every
/// kernel — is well under 1 KiB; the cap only bounds what one client can
/// make the server hold.
pub const MAX_LINE_BYTES: usize = 64 * 1024;

/// Serves line-delimited JSON requests from `reader`, writing one
/// response line per request to `writer` in request order. Used by both
/// `serve --stdin` and each TCP connection; each request is answered on
/// the calling thread.
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
                Ok(req) => server.serve(&req),
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

/// Binds `addr` and serves each connection on its own thread, which also
/// computes that connection's requests. Blocks forever (terminate the
/// process to stop). Every connection runs with `TCP_NODELAY`, so a
/// response is sent as soon as it is written.
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
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::mpsc;
    use std::time::{Duration, Instant};

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
        let server = Server::new(ServerConfig::new(2));
        let mut out = CountingWriter::default();
        serve_lines(&server, input.as_ref(), &mut out).expect("in-memory I/O");
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

    fn ok_response(tag: u64) -> Value {
        Value::obj(vec![
            ("id", 0u64.into()),
            ("ok", Value::Bool(true)),
            ("tag", tag.into()),
        ])
    }

    /// Polls the server's counters until `name` reaches `want`: the only
    /// way to know a second caller has attached to an in-flight slot.
    fn await_counter(server: &Server, name: &str, want: u64) {
        let deadline = Instant::now() + Duration::from_secs(30);
        while server.counters().get(name).copied().unwrap_or(0) < want {
            assert!(Instant::now() < deadline, "{name} never reached {want}");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// Runs `resolve(key, compute)` on its own thread; the answer arrives
    /// on the returned channel. A caller stuck forever shows up as a
    /// `recv_timeout` failure instead of a hung test.
    fn resolve_on_thread(
        server: &Arc<Server>,
        key: &'static str,
        compute: impl FnOnce() -> Value + Send + 'static,
    ) -> mpsc::Receiver<Value> {
        let (tx, rx) = mpsc::channel();
        let server = Arc::clone(server);
        std::thread::spawn(move || {
            let _ = tx.send(server.resolve(key, compute));
        });
        rx
    }

    const ANSWER_TIMEOUT: Duration = Duration::from_secs(30);

    /// The owner's computation blocks until a second caller has attached
    /// to its slot; both get the one result, and a later call reads it
    /// from the memo without computing.
    #[test]
    fn identical_inflight_requests_share_one_computation() {
        let server = Arc::new(Server::new(ServerConfig::new(2)));
        let computed = Arc::new(AtomicUsize::new(0));
        let (started_tx, started_rx) = mpsc::channel();
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let owner = resolve_on_thread(&server, "k", {
            let computed = Arc::clone(&computed);
            move || {
                computed.fetch_add(1, Ordering::SeqCst);
                started_tx.send(()).expect("test alive");
                release_rx.recv().expect("released");
                ok_response(7)
            }
        });
        started_rx
            .recv_timeout(ANSWER_TIMEOUT)
            .expect("owner computes");
        let waiter = resolve_on_thread(&server, "k", {
            let computed = Arc::clone(&computed);
            move || {
                computed.fetch_add(1, Ordering::SeqCst);
                ok_response(8)
            }
        });
        await_counter(&server, "serve.dedup.hit", 1);
        release_tx.send(()).expect("owner waiting");
        let a = owner.recv_timeout(ANSWER_TIMEOUT).expect("owner answered");
        let b = waiter
            .recv_timeout(ANSWER_TIMEOUT)
            .expect("waiter answered");
        assert_eq!(a, ok_response(7));
        assert_eq!(b, a, "the waiter got the owner's result");

        let c = server.resolve("k", || ok_response(9));
        assert_eq!(c, a, "a finished result answers from the memo");
        assert_eq!(computed.load(Ordering::SeqCst), 1, "one computation");
        let counters = server.counters();
        assert_eq!(counters.get("serve.dedup.hit"), Some(&1));
        assert_eq!(counters.get("serve.memo.hit"), Some(&1));
    }

    /// A panic in the owner's computation answers the owner and its
    /// waiter with an error, returns the permit, and leaves the server
    /// able to compute the next key.
    #[test]
    fn a_panicking_computation_answers_every_waiter_and_the_server_keeps_serving() {
        let server = Arc::new(Server::new(ServerConfig::new(1)));
        let (started_tx, started_rx) = mpsc::channel();
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let owner = resolve_on_thread(&server, "bad", move || {
            started_tx.send(()).expect("test alive");
            release_rx.recv().expect("released");
            panic!("computation panic injected by a test");
        });
        started_rx
            .recv_timeout(ANSWER_TIMEOUT)
            .expect("owner computes");
        let waiter = resolve_on_thread(&server, "bad", || ok_response(1));
        await_counter(&server, "serve.dedup.hit", 1);
        release_tx.send(()).expect("owner waiting");
        for (who, rx) in [("owner", owner), ("waiter", waiter)] {
            let resp = rx.recv_timeout(ANSWER_TIMEOUT).expect(who);
            assert_eq!(resp.get("ok"), Some(&Value::Bool(false)), "{who}");
            let error = resp.get("error").and_then(Value::as_str).unwrap_or("");
            assert!(error.contains("panicked"), "{who}: {error}");
        }
        assert_eq!(server.counters().get("serve.panics"), Some(&1));

        let next = resolve_on_thread(&server, "good", || ok_response(2));
        let resp = next
            .recv_timeout(ANSWER_TIMEOUT)
            .expect("the permit came back");
        assert_eq!(resp, ok_response(2));
    }

    /// A panicking computation holding the only permit returns it, so
    /// every caller queued behind it for a permit still computes its key.
    #[test]
    fn callers_waiting_for_a_permit_compute_after_a_panic() {
        let server = Arc::new(Server::new(ServerConfig::new(1)));
        let (started_tx, started_rx) = mpsc::channel();
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let owner = resolve_on_thread(&server, "bad", move || {
            started_tx.send(()).expect("test alive");
            release_rx.recv().expect("released");
            panic!("computation panic injected by a test");
        });
        started_rx
            .recv_timeout(ANSWER_TIMEOUT)
            .expect("owner computes");
        let queued: Vec<_> = ["q0", "q1", "q2"]
            .into_iter()
            .enumerate()
            .map(|(i, key)| resolve_on_thread(&server, key, move || ok_response(i as u64)))
            .collect();
        std::thread::sleep(Duration::from_millis(50));
        release_tx.send(()).expect("owner waiting");
        let resp = owner.recv_timeout(ANSWER_TIMEOUT).expect("owner answered");
        assert_eq!(resp.get("ok"), Some(&Value::Bool(false)));
        for (i, rx) in queued.into_iter().enumerate() {
            let resp = rx
                .recv_timeout(ANSWER_TIMEOUT)
                .expect("a queued caller got the permit");
            assert_eq!(resp, ok_response(i as u64));
        }
        assert_eq!(server.counters().get("serve.panics"), Some(&1));
    }

    #[test]
    fn at_most_jobs_computations_run_at_once() {
        let server = Server::new(ServerConfig::new(1));
        let running = AtomicUsize::new(0);
        let peak = AtomicUsize::new(0);
        let start = std::sync::Barrier::new(4);
        std::thread::scope(|s| {
            for (i, key) in ["a", "b", "c", "d"].into_iter().enumerate() {
                let (server, running, peak, start) = (&server, &running, &peak, &start);
                s.spawn(move || {
                    start.wait();
                    server.resolve(key, || {
                        let now = running.fetch_add(1, Ordering::SeqCst) + 1;
                        peak.fetch_max(now, Ordering::SeqCst);
                        std::thread::sleep(Duration::from_millis(20));
                        running.fetch_sub(1, Ordering::SeqCst);
                        ok_response(i as u64)
                    })
                });
            }
        });
        assert_eq!(peak.load(Ordering::SeqCst), 1);
    }
}
