//! The exploration server: in-flight dedup, an in-memory memo and an
//! optional disk-backed response store, answered on the caller's thread.
//!
//! [`Server::serve`] runs on whichever thread calls it and returns the
//! response line; a [`Server`] starts no threads. [`serve_lines`] — the
//! stdin loop and each TCP connection — calls it on the reading thread
//! for a lone line, and for the lines a client has already sent on up to
//! `jobs` lanes of [`rtise_obs::lanes`], answering in request order. One
//! batch at a time runs on lanes, whichever reader it came from; a batch
//! that finds the lanes taken is answered on its reading thread. A
//! load-test lane calls [`Server::serve`] directly.
//!
//! Identical concurrent requests (same
//! [dedup key](crate::proto::dedup_key)) share one slot, a std `OnceLock`:
//! the caller that initializes it computes and fills it, every other
//! caller blocks on the in-flight slot (`serve.dedup.hit`) or reads its
//! finished result (`serve.memo.hit`), as the slot was when the caller
//! looked the key up. The computing caller consults the sharded artifact
//! store first (`cache.response.*` counters) and persists fresh
//! successful responses back, so a warm store answers most of a repeated
//! workload without touching a solver.
//!
//! A slot holds its response rendered once, with the byte range of its
//! `id` value (`Rendered`); every caller gets those bytes with its own id
//! written over that range, with no document clone and no second render.
//! A store hit is cut from the payload bytes the entry checksum was
//! computed over. For a compact entry, as every entry this build writes
//! is, those are a slice of the file the store read, which its parser
//! proved to be the payload's render, so a warm-store response is not
//! rendered at all: the store hashes that slice, the certifier hashes
//! its `result` bytes, and the slot serves it. An entry in another layout
//! has its payload rendered once. A fresh response is rendered once: its
//! checksum covers the `result` bytes of that render, the store entry is
//! written around it, and the slot is cut from it.
//!
//! The memo holds at most [`MAX_SLOTS`] slots: an insert that would pass
//! the cap first drops every finished slot (`serve.memo.evicted`), never
//! an in-flight one. A repeat of a dropped key reads the disk store or
//! recomputes, and gets the same bytes.
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
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::ops::Range;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock, PoisonError};
use std::time::Duration;

/// Store tag (filename prefix) for response entries.
pub const STORE_TAG: &str = "resp";

/// Most slots the in-memory memo holds. Well above the distinct request
/// counts of the benchmark and load-test streams (under 1000), so those
/// never evict; it bounds what a client sending fresh keys makes the
/// server hold.
pub const MAX_SLOTS: usize = 4096;

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

/// A response rendered once, with the byte range of its top-level `id`
/// value: `text` with an id written over `id` is byte for byte the
/// [`Value::render`] of the response after [`engine::set_field`] stamped
/// that id into it — in place where the response has an `id` member (the
/// first, which `set_field` replaces), inserted last where it has none.
/// `id` is `None` only for a non-object, which `set_field` leaves as it
/// is.
#[derive(Debug)]
struct Rendered {
    text: String,
    id: Option<Range<usize>>,
}

impl Rendered {
    fn new(response: &Value) -> Self {
        Rendered::cut(response, response.render())
    }

    /// The slot for `response` from `rendered`, its compact render: only
    /// the members up to `id` are rendered again to find where it is.
    fn cut(response: &Value, mut rendered: String) -> Self {
        let Value::Obj(pairs) = response else {
            return Rendered {
                text: rendered,
                id: None,
            };
        };
        let id = response.member_range("id").unwrap_or_else(|| {
            rendered.pop(); // the closing brace
            if !pairs.is_empty() {
                rendered.push(',');
            }
            rendered.push_str("\"id\":");
            let at = rendered.len();
            rendered.push('}');
            at..at
        });
        Rendered {
            text: rendered,
            id: Some(id),
        }
    }

    /// The response line for a caller's `id`, without the newline (its
    /// capacity has room for one).
    fn stamp(&self, id: u64) -> String {
        let Some(range) = &self.id else {
            return self.text.clone();
        };
        let mut line = String::with_capacity(self.text.len() + 20 + 1);
        line.push_str(&self.text[..range.start]);
        Value::from(id).render_into(&mut line);
        line.push_str(&self.text[range.end..]);
        line
    }
}

/// One shared result slot: the rendered response once ready.
type Slot = Arc<OnceLock<Arc<Rendered>>>;

/// The exploration server; share it by reference (or `Arc`) between the
/// threads that read requests.
pub struct Server {
    slots: Mutex<HashMap<String, Slot>>,
    cache_dir: Option<PathBuf>,
    /// The server's own counters; entered only around dedup, store and
    /// bookkeeping work, never around a request's computation.
    scope: Scope,
    /// Most computations at once, and most lanes a batch of
    /// [`serve_lines`] runs on.
    jobs: usize,
    /// Held by the one batch of [`serve_lines`] running on lanes, so the
    /// lane threads of all readers together number at most `jobs`.
    lanes: Mutex<()>,
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
            jobs: config.jobs.max(1),
            lanes: Mutex::new(()),
            permits: Mutex::new(config.jobs.max(1)),
            permit_returned: Condvar::new(),
        }
    }

    /// Answers one request on the calling thread: the rendered response
    /// line, stamped with the request's id, without the newline. Blocks
    /// while an identical request is in flight, or while `jobs` other
    /// computations run.
    #[must_use]
    pub fn serve(&self, req: &Request) -> String {
        let key = dedup_key(&req.kind);
        self.resolve(&key, || self.compute(&key, req)).stamp(req.id)
    }

    /// The server's own counters: `serve.*` plus the response store's
    /// `cache.response.*` traffic.
    #[must_use]
    pub fn counters(&self) -> std::collections::BTreeMap<String, u64> {
        self.scope.counters()
    }

    /// The rendered response for `key`: the caller that initializes the
    /// shared slot runs its `compute` (under a permit, panics caught) and
    /// fills it with the result; every other caller waits on or reads
    /// that slot.
    fn resolve(&self, key: &str, compute: impl FnOnce() -> Rendered) -> Arc<Rendered> {
        let slot = {
            let _obs = self.scope.enter();
            let mut slots = self.slots.lock().expect("slots poisoned");
            if let Some(slot) = slots.get(key).map(Arc::clone) {
                drop(slots);
                rtise_obs::record(
                    if slot.get().is_some() {
                        "serve.memo.hit"
                    } else {
                        "serve.dedup.hit"
                    },
                    1,
                );
                slot
            } else {
                if slots.len() >= MAX_SLOTS {
                    let before = slots.len();
                    slots.retain(|_, slot| slot.get().is_none());
                    rtise_obs::record("serve.memo.evicted", (before - slots.len()) as u64);
                }
                let slot = Slot::default();
                slots.insert(key.to_string(), Arc::clone(&slot));
                slot
            }
        };
        // The initializer never unwinds: a panicking computation fills
        // the slot with an error response, which every waiter gets.
        Arc::clone(slot.get_or_init(|| {
            self.take_permit();
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(compute));
            self.return_permit();
            Arc::new(outcome.unwrap_or_else(|_| {
                let _obs = self.scope.enter();
                rtise_obs::record("serve.panics", 1);
                Rendered::new(&engine::error_response(
                    0,
                    "internal error: request computation panicked",
                ))
            }))
        }))
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
    /// then persist. A stored entry always carries id 0; [`Server::serve`]
    /// stamps the caller's id into the rendered slot, which a store hit
    /// cuts from the payload render the store validated.
    ///
    /// The server's scope is entered around the store traffic and the
    /// `serve.exec` count only. The computation runs outside it, in the
    /// request's own scope nested under whatever scope the computing
    /// thread has entered, so [`Server::counters`] never sees solver work.
    /// A caller's trace scope receives the events of the requests it
    /// computes on its own thread; a line [`serve_lines`] computes on a
    /// lane records only into its own scope.
    fn compute(&self, key: &str, req: &Request) -> Rendered {
        {
            let _obs = self.scope.enter();
            if let Some(dir) = &self.cache_dir {
                // A loaded entry already passed the full response
                // re-certification (see `ResponseArtifact::decode`);
                // corrupt entries were evicted and fall through to
                // recomputation.
                let hit =
                    store::load_with(dir, STORE_TAG, key, |artifact: ResponseArtifact, text| {
                        Rendered::cut(&artifact.0, text.into_owned())
                    });
                if let Some((rendered, _, _)) = hit {
                    return rendered;
                }
            }
            rtise_obs::record("serve.exec", 1);
        }
        // The response is rendered once: the store entry is written
        // around that render and the slot is cut from it.
        let (response, text) = engine::execute_rendered(&Request {
            id: 0,
            kind: req.kind.clone(),
        });
        if let Some(dir) = &self.cache_dir {
            if matches!(response.get("ok"), Some(Value::Bool(true))) {
                let _obs = self.scope.enter();
                if let Err(e) = store::store_rendered::<ResponseArtifact>(
                    dir,
                    STORE_TAG,
                    key,
                    &text,
                    &Default::default(),
                    &Default::default(),
                ) {
                    eprintln!("serve: failed to persist response for {key:?}: {e}");
                }
            }
        }
        Rendered::cut(&response, text)
    }
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
/// Lines are served in batches: one blocking read of a line, plus every
/// further complete line already in the reader's buffer, so a batch never
/// waits for input a client has not sent. A lone line — every request of
/// a client that waits for each answer — is answered on the calling
/// thread. The lines of a larger batch compute up to
/// [`ServerConfig::jobs`] at once on [`rtise_obs::lanes`], and each
/// answer is written as soon as it and every earlier one exist; the lanes
/// are done before the next read. Lane threads enter no scope the caller
/// entered, so a batched line's events reach only its own scope. With
/// `jobs` 1, or while another reader's batch holds the server's lanes, a
/// batch is answered on the calling thread too.
///
/// A line longer than [`MAX_LINE_BYTES`] or not valid UTF-8 gets one
/// `ok: false` response and the stream goes on; the excess of an
/// over-long line is skipped without being buffered.
///
/// Each response goes out, newline included, in a single `write_all`: a
/// separate write for the newline would leave it as a 1-byte segment that
/// Nagle's algorithm holds until the client's delayed ACK. After a failed
/// write the rest of the batch is neither computed nor written.
///
/// # Errors
///
/// Propagates I/O errors from the reader or writer.
pub fn serve_lines(
    server: &Server,
    mut reader: impl BufRead,
    mut writer: impl Write + Send,
) -> std::io::Result<()> {
    // The batch's lines, back to back, and where each one is.
    let mut bytes = Vec::new();
    let mut lines: Vec<(Range<usize>, bool)> = Vec::new();
    loop {
        bytes.clear();
        lines.clear();
        loop {
            let start = bytes.len();
            let Some(read) = read_capped_line(&mut reader, &mut bytes)? else {
                break;
            };
            lines.push((start..bytes.len(), read.fits));
            if !read.more {
                break;
            }
        }
        if lines.is_empty() {
            return Ok(());
        }
        let answer = |i: usize| {
            let (range, fits) = &lines[i];
            answer_line(server, &bytes[range.clone()], *fits)
        };
        let on_lanes = (lines.len() > 1 && server.jobs > 1)
            .then(|| server.lanes.try_lock().ok())
            .flatten();
        if on_lanes.is_none() {
            for i in 0..lines.len() {
                if let Some(out) = answer(i) {
                    write_line(&mut writer, &out)?;
                }
            }
            continue;
        }
        let sink = Mutex::new((&mut writer, Ok(())));
        let broken = AtomicBool::new(false);
        rtise_obs::lanes::lanes(
            server.jobs,
            lines.len(),
            None,
            |i| {
                (!broken.load(Ordering::Relaxed))
                    .then(|| answer(i))
                    .flatten()
            },
            |_, out: &Option<String>| {
                let mut sink = sink.lock().unwrap_or_else(PoisonError::into_inner);
                let (writer, written) = &mut *sink;
                if let (Ok(()), Some(out)) = (&*written, out) {
                    *written = write_line(writer, out);
                    broken.store(written.is_err(), Ordering::Relaxed);
                }
            },
        );
        sink.into_inner()
            .unwrap_or_else(PoisonError::into_inner)
            .1?;
    }
}

/// The response line, newline included, for one request line that
/// `fits` under the cap; `None` for a blank line, which gets none.
fn answer_line(server: &Server, line: &[u8], fits: bool) -> Option<String> {
    let mut out = match std::str::from_utf8(line) {
        _ if !fits => engine::error_response(
            0,
            &format!("request line longer than {MAX_LINE_BYTES} bytes"),
        )
        .render(),
        Err(_) => engine::error_response(0, "request line is not valid UTF-8").render(),
        Ok(line) if line.trim().is_empty() => return None,
        Ok(line) => match crate::proto::parse(line) {
            Ok(req) => server.serve(&req),
            Err(msg) => engine::error_response(line_request_id(line), &msg).render(),
        },
    };
    out.push('\n');
    Some(out)
}

fn write_line(writer: &mut impl Write, line: &str) -> std::io::Result<()> {
    writer.write_all(line.as_bytes())?;
    writer.flush()
}

/// What [`read_capped_line`] read.
struct LineRead {
    /// The line is at most [`MAX_LINE_BYTES`] long.
    fits: bool,
    /// The reader's buffer already holds the whole next line.
    more: bool,
}

/// Appends the next line to `buf` without its `\n` (or `\r\n`), keeping
/// at most [`MAX_LINE_BYTES`] of it: the rest of a longer line is
/// consumed and dropped chunk by chunk. Returns `None` at end of input.
fn read_capped_line(
    reader: &mut impl BufRead,
    buf: &mut Vec<u8>,
) -> std::io::Result<Option<LineRead>> {
    // One byte of slack holds the `\r` of a CRLF line end at the cap.
    const KEEP: usize = MAX_LINE_BYTES + 1;
    let start = buf.len();
    let (mut any, mut fits, mut more) = (false, true, false);
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
        fits = fits && buf.len() - start + part.len() <= KEEP;
        if fits {
            buf.extend_from_slice(part);
        } else {
            buf.truncate(start);
        }
        let used = newline.map_or(chunk.len(), |i| i + 1);
        more = chunk[used..].contains(&b'\n');
        reader.consume(used);
        if newline.is_some() {
            if buf.len() > start && buf.last() == Some(&b'\r') {
                buf.pop();
            }
            break;
        }
    }
    let fits = fits && buf.len() - start <= MAX_LINE_BYTES;
    Ok(any.then_some(LineRead { fits, more }))
}

/// Best-effort id extraction from a malformed request line, so the error
/// response still correlates when possible.
fn line_request_id(line: &str) -> u64 {
    rtise_obs::json::parse(line)
        .ok()
        .and_then(|doc| doc.get("id").and_then(Value::as_u64))
        .unwrap_or(0)
}

/// Most TCP connections [`run_tcp`] serves at once. A connection past the
/// cap is closed as soon as it is accepted. Each open one holds a thread,
/// and one batch at a time across all of them runs on up to `jobs` lane
/// threads, so the server holds at most `MAX_CONNECTIONS + jobs` threads
/// for its clients.
pub const MAX_CONNECTIONS: usize = 64;

/// How long a TCP connection may wait for its client's next bytes before
/// it is dropped.
pub const READ_TIMEOUT: Duration = Duration::from_secs(60);

/// How long a TCP connection may wait for its client to take a response
/// before it is dropped.
pub const WRITE_TIMEOUT: Duration = Duration::from_secs(60);

/// What one TCP listener lets its clients make the server hold.
#[derive(Debug, Clone, Copy)]
struct TcpLimits {
    connections: usize,
    read_timeout: Duration,
    write_timeout: Duration,
}

/// Binds `addr` and serves each connection on its own thread, which also
/// computes that connection's requests, within [`MAX_CONNECTIONS`],
/// [`READ_TIMEOUT`] and [`WRITE_TIMEOUT`]. Blocks forever (terminate the
/// process to stop). Every connection runs with `TCP_NODELAY`, so a
/// response is sent as soon as it is written.
///
/// # Errors
///
/// Propagates the bind failure; per-connection errors are logged and
/// drop only that connection.
pub fn run_tcp(addr: &str, server: &Arc<Server>) -> std::io::Result<()> {
    let listener = TcpListener::bind(addr)?;
    eprintln!("serve: listening on {}", listener.local_addr()?);
    let limits = TcpLimits {
        connections: MAX_CONNECTIONS,
        read_timeout: READ_TIMEOUT,
        write_timeout: WRITE_TIMEOUT,
    };
    accept_connections(&listener, server, limits);
    Ok(())
}

/// Serves every connection `listener` accepts, within `limits`; never
/// returns.
fn accept_connections(listener: &TcpListener, server: &Arc<Server>, limits: TcpLimits) {
    // Each open connection's thread holds a clone.
    let open = Arc::new(());
    for stream in listener.incoming() {
        let stream = match stream {
            Ok(stream) => stream,
            Err(e) => {
                eprintln!("serve: accept failed: {e}");
                continue;
            }
        };
        if Arc::strong_count(&open) > limits.connections {
            eprintln!(
                "serve: closed a new connection: {} are open, the most served at once",
                limits.connections
            );
            continue;
        }
        let (open, server) = (Arc::clone(&open), Arc::clone(server));
        std::thread::spawn(move || {
            if let Err(e) = serve_connection(&server, &stream, limits) {
                eprintln!("serve: connection dropped: {e}");
            }
            drop(open);
        });
    }
}

fn serve_connection(server: &Server, stream: &TcpStream, limits: TcpLimits) -> std::io::Result<()> {
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(limits.read_timeout))?;
    stream.set_write_timeout(Some(limits.write_timeout))?;
    serve_lines(server, BufReader::new(stream), stream)
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

    /// The line `resolve` answers with for `ok_response(tag)`, id 0.
    fn ok_line(tag: u64) -> String {
        ok_response(tag).render()
    }

    /// A rendered slot stamped with any id is the render of the document
    /// `set_field` stamps: `id` first, in the middle, last, repeated,
    /// absent, past 2⁵³, and a non-object.
    #[test]
    fn a_stamped_slot_renders_like_the_stamped_document() {
        let member = |k: &str, v: Value| (k.to_string(), v);
        let docs = [
            ok_response(3),
            Value::Obj(vec![
                member("ok", Value::Bool(true)),
                member("id", 5u64.into()),
                member("s", "a\"b".into()),
            ]),
            Value::Obj(vec![
                member("ok", Value::Bool(false)),
                member("id", 0u64.into()),
            ]),
            Value::Obj(vec![
                member("id", 1u64.into()),
                member("x", Value::Null),
                member("id", 2u64.into()),
            ]),
            Value::Obj(vec![member("ok", Value::Bool(true))]),
            Value::Obj(vec![]),
            Value::Arr(vec![1u64.into()]),
        ];
        for doc in &docs {
            let rendered = Rendered::new(doc);
            for id in [0, 7, 1 << 53, (1 << 53) + 1, u64::MAX] {
                let mut stamped = doc.clone();
                engine::set_field(&mut stamped, "id", id.into());
                assert_eq!(rendered.stamp(id), stamped.render(), "{doc:?} id {id}");
            }
        }
    }

    /// A store hit certifies and serves from the payload render instead of
    /// rendering again. For every distinct seed-42 response, stored with
    /// id 0, and for forged documents — `id` not first, `result` last,
    /// `id` or `result` repeated, an extra member, error responses — the
    /// certifier fed the `result` slice of the render gives the
    /// diagnostics of `check_response`, decoding accepts exactly the clean
    /// ones, and the slot cut from the render stamps the bytes of the
    /// stamped document.
    #[test]
    fn store_hits_certify_and_serve_the_checksummed_render() {
        use crate::proto::dedup_key;
        use rtise::check::serve::{check_rendered_response, check_response};
        use rtise_bench::store::Artifact;

        let mut seen = std::collections::HashSet::new();
        let mut docs: Vec<Value> = crate::traffic::generate(42, 1000)
            .into_iter()
            .filter(|r| seen.insert(dedup_key(&r.kind)))
            .map(|r| {
                let mut doc = engine::execute(&r);
                engine::set_field(&mut doc, "id", 0u64.into());
                doc
            })
            .collect();
        assert!(docs.len() > 200, "{} distinct responses", docs.len());

        let Value::Obj(base) = docs[0].clone() else {
            panic!("a response is an object");
        };
        type Members = Vec<(String, Value)>;
        let member = |k: &str, v: Value| (k.to_string(), v);
        let with = |edit: &dyn Fn(&mut Members)| {
            let mut pairs = base.clone();
            edit(&mut pairs);
            Value::Obj(pairs)
        };
        docs.extend([
            with(&|p| {
                let id = p.remove(0);
                p.insert(2, id);
            }),
            with(&|p| {
                let at = p.iter().position(|(k, _)| k == "result").expect("result");
                let result = p.remove(at);
                p.push(result);
            }),
            with(&|p| p.push(member("id", 5u64.into()))),
            with(&|p| p.insert(0, member("id", "first".into()))),
            with(&|p| p.push(member("result", Value::Null))),
            with(&|p| p.insert(1, member("result", Value::Arr(vec![])))),
            with(&|p| p.insert(3, member("note", "a\"b,c}".into()))),
            engine::error_response(3, "unknown kernel \"nope\""),
            engine::error_response(0, ""),
            Value::obj(vec![
                ("id", 0u64.into()),
                ("ok", Value::Bool(false)),
                ("error", "failed".into()),
                ("result", Value::Null),
            ]),
        ]);

        for doc in &docs {
            let text = doc.render();
            let result = doc
                .member_range_around("result", text.len())
                .map_or("", |range| &text[range]);
            let want = check_response(doc);
            assert_eq!(
                check_rendered_response(doc, result).render(),
                want.render(),
                "{text}"
            );
            let decoded = ResponseArtifact::decode(doc.clone(), &text);
            assert_eq!(decoded.is_ok(), want.is_clean(), "{text}");

            let slot = Rendered::cut(doc, text.clone());
            for id in [0, 31, u64::MAX] {
                let mut stamped = doc.clone();
                engine::set_field(&mut stamped, "id", id.into());
                assert_eq!(slot.stamp(id), stamped.render(), "{text} id {id}");
            }
        }
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

    /// Runs `resolve(key, compute)` on its own thread; the answer, stamped
    /// with id 0, arrives on the returned channel. A caller stuck forever
    /// shows up as a `recv_timeout` failure instead of a hung test.
    fn resolve_on_thread(
        server: &Arc<Server>,
        key: &'static str,
        compute: impl FnOnce() -> Value + Send + 'static,
    ) -> mpsc::Receiver<String> {
        let (tx, rx) = mpsc::channel();
        let server = Arc::clone(server);
        std::thread::spawn(move || {
            let rendered = server.resolve(key, || Rendered::new(&compute()));
            let _ = tx.send(rendered.stamp(0));
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
        assert_eq!(a, ok_line(7));
        assert_eq!(b, a, "the waiter got the owner's result");

        let c = server
            .resolve("k", || Rendered::new(&ok_response(9)))
            .stamp(0);
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
            let line = rx.recv_timeout(ANSWER_TIMEOUT).expect(who);
            let resp = rtise_obs::json::parse(&line).expect("response is JSON");
            assert_eq!(resp.get("ok"), Some(&Value::Bool(false)), "{who}");
            let error = resp.get("error").and_then(Value::as_str).unwrap_or("");
            assert!(error.contains("panicked"), "{who}: {error}");
        }
        assert_eq!(server.counters().get("serve.panics"), Some(&1));

        let next = resolve_on_thread(&server, "good", || ok_response(2));
        let resp = next
            .recv_timeout(ANSWER_TIMEOUT)
            .expect("the permit came back");
        assert_eq!(resp, ok_line(2));
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
        assert!(resp.contains("\"ok\":false"), "{resp}");
        for (i, rx) in queued.into_iter().enumerate() {
            let resp = rx
                .recv_timeout(ANSWER_TIMEOUT)
                .expect("a queued caller got the permit");
            assert_eq!(resp, ok_line(i as u64));
        }
        assert_eq!(server.counters().get("serve.panics"), Some(&1));
    }

    /// Past the cap the memo drops finished slots only: the in-flight
    /// slot still dedups a later caller, and a dropped key computes once
    /// more and is memoized again.
    #[test]
    fn the_memo_drops_finished_slots_at_the_cap_and_keeps_in_flight_ones() {
        let server = Arc::new(Server::new(ServerConfig::new(2)));
        let (started_tx, started_rx) = mpsc::channel();
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let owner = resolve_on_thread(&server, "in-flight", move || {
            started_tx.send(()).expect("test alive");
            release_rx.recv().expect("released");
            ok_response(0)
        });
        started_rx
            .recv_timeout(ANSWER_TIMEOUT)
            .expect("owner computes");
        let computed = AtomicUsize::new(0);
        let fill = |i: usize| {
            server
                .resolve(&format!("k{i}"), || {
                    computed.fetch_add(1, Ordering::SeqCst);
                    Rendered::new(&ok_response(i as u64 + 1))
                })
                .stamp(0)
        };
        for i in 0..=MAX_SLOTS {
            assert_eq!(fill(i), ok_line(i as u64 + 1));
            assert!(server.slots.lock().expect("slots").len() <= MAX_SLOTS);
        }
        assert!(server
            .slots
            .lock()
            .expect("slots")
            .contains_key("in-flight"));
        let evicted = server.counters().get("serve.memo.evicted").copied();
        assert_eq!(evicted, Some(MAX_SLOTS as u64 - 1), "every finished slot");

        let waiter = resolve_on_thread(&server, "in-flight", || ok_response(99));
        await_counter(&server, "serve.dedup.hit", 1);
        release_tx.send(()).expect("owner waiting");
        for rx in [owner, waiter] {
            let resp = rx.recv_timeout(ANSWER_TIMEOUT).expect("answered");
            assert_eq!(resp, ok_line(0), "one computation for the in-flight key");
        }

        let computed_before = computed.load(Ordering::SeqCst);
        assert_eq!(fill(0), ok_line(1), "a dropped key recomputes");
        assert_eq!(fill(0), ok_line(1), "and is memoized again");
        assert_eq!(computed.load(Ordering::SeqCst), computed_before + 1);
    }

    /// Serves `limits` on a loopback port from a thread of its own, which
    /// runs until the test process ends.
    fn listen(limits: TcpLimits) -> std::net::SocketAddr {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let addr = listener.local_addr().expect("bound address");
        let server = Arc::new(Server::new(ServerConfig::new(2)));
        std::thread::spawn(move || accept_connections(&listener, &server, limits));
        addr
    }

    fn connect(addr: std::net::SocketAddr) -> TcpStream {
        let stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(ANSWER_TIMEOUT))
            .expect("client read timeout");
        stream
    }

    /// Sends one request and returns its answer line.
    fn ask(stream: &TcpStream, id: u64) -> String {
        let mut writer = stream;
        writeln!(writer, "{{\"id\": {id}, \"kind\": \"ilp\", \"seed\": 3}}").expect("send");
        let mut line = String::new();
        BufReader::new(stream).read_line(&mut line).expect("answer");
        line
    }

    /// Waits for the server to close `stream` and returns what it sent.
    fn until_closed(stream: &TcpStream) -> Vec<u8> {
        let mut rest = Vec::new();
        std::io::Read::read_to_end(&mut { stream }, &mut rest).expect("a clean close");
        rest
    }

    /// A connection past the cap is closed as soon as it is accepted, and
    /// the open ones go on being answered.
    #[test]
    fn a_connection_past_the_cap_is_closed_and_the_open_ones_are_served() {
        let addr = listen(TcpLimits {
            connections: 2,
            read_timeout: ANSWER_TIMEOUT,
            write_timeout: ANSWER_TIMEOUT,
        });
        let open = [connect(addr), connect(addr)];
        for (id, stream) in (1..).zip(&open) {
            assert!(ask(stream, id).contains(&format!("\"id\":{id},")));
        }
        let refused = connect(addr);
        assert!(
            until_closed(&refused).is_empty(),
            "closed without an answer"
        );
        for (id, stream) in (3..).zip(&open) {
            assert!(ask(stream, id).contains(&format!("\"id\":{id},")));
        }
    }

    /// A client that sends nothing is dropped once the read timeout runs
    /// out.
    #[test]
    fn an_idle_client_is_dropped_after_the_read_timeout() {
        let timeout = Duration::from_millis(100);
        let addr = listen(TcpLimits {
            connections: 2,
            read_timeout: timeout,
            write_timeout: ANSWER_TIMEOUT,
        });
        let idle = connect(addr);
        let start = Instant::now();
        assert!(until_closed(&idle).is_empty());
        assert!(start.elapsed() >= timeout, "{:?}", start.elapsed());
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

    /// A batch that finds another reader's batch on the server's lanes is
    /// answered on its own reading thread, in request order; once the
    /// lanes are free, the same batch runs on them.
    #[test]
    fn a_batch_finds_the_lanes_taken_and_is_answered_inline() {
        let server = Server::new(ServerConfig::new(2));
        let input = "{\"id\": 1, \"kind\": \"ilp\", \"seed\": 3}\n\
                     {\"id\": 2, \"kind\": \"ilp\", \"seed\": 4}\n\
                     {\"id\": 3, \"kind\": \"ilp\", \"seed\": 5}\n";
        let me = std::thread::current().id();
        let taken = server.lanes.lock().expect("lanes lock");
        let mut inline = ThreadRecorder::default();
        serve_lines(&server, input.as_bytes(), &mut inline).expect("in-memory I/O");
        assert_eq!(inline.0, vec![me; 3], "every answer on the reading thread");
        drop(taken);
        let mut on_lanes = ThreadRecorder::default();
        serve_lines(&server, input.as_bytes(), &mut on_lanes).expect("in-memory I/O");
        assert_eq!(on_lanes.0.len(), 3);
        assert!(on_lanes.0.iter().all(|&t| t != me), "a batch on lanes");
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
                        Rendered::new(&ok_response(i as u64))
                    })
                });
            }
        });
        assert_eq!(peak.load(Ordering::SeqCst), 1);
    }
}
