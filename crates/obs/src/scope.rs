//! The one observability scope: a thread-inherited sink for counters,
//! histograms, and — when it has a clock — timed events.
//!
//! A [`Scope`] is a cheap `Arc` handle. [`Scope::enter`] pushes it onto
//! this thread's stack until the guard drops; clones entered on worker
//! threads extend it across a pool; [`isolate`] detaches the current
//! thread so memoizing caches do not leak a one-off computation into
//! whichever consumer happened to trigger it. Instrumented code never
//! holds a scope: it calls free functions that fan out to every scope
//! entered on the calling thread.
//!
//! * [`record`](crate::record), [`observe`](crate::observe) and the
//!   other [`registry`](crate::registry) functions reach **every**
//!   entered scope.
//! * [`span`], [`instant`]/[`instant_with`] and [`summary`] reach only
//!   the scopes made with [`Scope::with_clock`]. [`enabled`] is true
//!   only while such a scope is entered somewhere in the process — one
//!   relaxed atomic load, so solver hot loops skip building event
//!   payloads when nobody traces, even though every `reproduce`
//!   experiment runs inside a clockless [`Scope::new`].
//!
//! Clocks: [`Clock::Real`] stamps nanoseconds since a process epoch;
//! [`Clock::Virtual`] stamps a per-scope sequence number, which makes
//! the trace *structure* (span tree, event order, prune codes)
//! bit-deterministic and therefore comparable across worker counts.
//!
//! Event storage is bounded: *bulk* instants — the per-node search-tree
//! events that can number in the millions for a hard branch-and-bound
//! instance — are capped at [`RING_CAP`] per scope with a keep-first
//! policy, and the number of dropped events is surfaced through
//! [`Scope::dropped`] rather than lost silently. Structural begin/end
//! pairs and pinned [`summary`] events are always stored, so the span
//! tree and the per-solve totals survive overflow.

use crate::hist::Hist;
use std::borrow::Cow;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Maximum number of bulk [`instant`] events stored per scope; further
/// bulk instants increment the scope's drop counter instead.
pub const RING_CAP: usize = 4096;

/// What a clocked scope stamps its events with.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Clock {
    /// Nanoseconds since a process-wide epoch. Real timings, not
    /// reproducible across runs.
    #[default]
    Real,
    /// A per-scope sequence number. Timings are meaningless but the
    /// trace structure is bit-deterministic, which is what the
    /// jobs-1-vs-jobs-4 equivalence tests compare.
    Virtual,
}

/// Event kinds, mirroring the Chrome Trace Event phases they export to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// Span open (`ph: "B"`).
    Begin,
    /// Span close (`ph: "E"`).
    End,
    /// Point event (`ph: "i"`), bulk or pinned.
    Instant,
}

/// One recorded event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event {
    /// Clock stamp: nanoseconds ([`Clock::Real`]) or sequence number
    /// ([`Clock::Virtual`]).
    pub ts: u64,
    /// Begin / End / Instant.
    pub kind: EventKind,
    /// Stable event name (prune reasons use `rtise_trace::codes`).
    pub name: Cow<'static, str>,
    /// Numeric payload (depth, node counts, …).
    pub args: Vec<(&'static str, u64)>,
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Number of currently-entered guards of clocked scopes, across all
/// threads.
static CLOCKED: AtomicUsize = AtomicUsize::new(0);

/// Whether a scope with a clock is entered anywhere in the process. One
/// relaxed atomic load — the cheap gate solver hot loops check before
/// assembling event payloads. Clockless scopes never turn it on.
pub fn enabled() -> bool {
    CLOCKED.load(Ordering::Relaxed) > 0
}

#[derive(Debug, Default)]
struct EventBuf {
    events: Vec<Event>,
    /// How many of `events` are bulk instants (ring-cap accounting).
    bulk: usize,
}

/// The event half of a clocked scope.
#[derive(Debug)]
struct Trace {
    clock: Clock,
    buf: Mutex<EventBuf>,
    seq: AtomicU64,
    dropped: AtomicU64,
}

impl Trace {
    /// Stamps and stores one event; `bulk` events respect [`RING_CAP`].
    /// The stamp is taken under the buffer lock so timestamps are
    /// monotone within a scope even when clones feed it from several
    /// threads.
    fn push(
        &self,
        kind: EventKind,
        name: Cow<'static, str>,
        args: &[(&'static str, u64)],
        bulk: bool,
    ) {
        let mut buf = self.buf.lock().expect("scope poisoned");
        if bulk && buf.bulk >= RING_CAP {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        if bulk {
            buf.bulk += 1;
        }
        let ts = match self.clock {
            Clock::Real => epoch().elapsed().as_nanos() as u64,
            Clock::Virtual => self.seq.fetch_add(1, Ordering::Relaxed),
        };
        buf.events.push(Event {
            ts,
            kind,
            name,
            args: args.to_vec(),
        });
    }
}

#[derive(Debug, Default)]
pub(crate) struct ScopeInner {
    pub(crate) counters: Mutex<BTreeMap<String, u64>>,
    pub(crate) hists: Mutex<BTreeMap<String, Hist>>,
    trace: Option<Trace>,
}

thread_local! {
    /// Scopes entered on this thread, outermost first.
    static ACTIVE: RefCell<Vec<Arc<ScopeInner>>> = const { RefCell::new(Vec::new()) };
}

/// Runs `f` on every scope entered on the current thread.
pub(crate) fn for_each_active(mut f: impl FnMut(&ScopeInner)) {
    ACTIVE.with(|stack| stack.borrow().iter().for_each(|s| f(s)));
}

/// Runs `f` on the event half of every clocked scope entered on the
/// current thread.
fn for_each_clocked(mut f: impl FnMut(&Trace)) {
    for_each_active(|s| {
        if let Some(t) = &s.trace {
            f(t);
        }
    });
}

/// A cloneable, thread-inherited sink for counters, histograms and (with
/// a clock) events; see the [module docs](self) and the crate-level
/// example.
#[derive(Debug, Clone, Default)]
pub struct Scope {
    inner: Arc<ScopeInner>,
}

impl Scope {
    /// A new, empty scope collecting counters and histograms (not yet
    /// entered on any thread). It stores no events.
    pub fn new() -> Self {
        Scope::default()
    }

    /// A new, empty scope that also stores events stamped with `clock`.
    pub fn with_clock(clock: Clock) -> Self {
        Scope {
            inner: Arc::new(ScopeInner {
                trace: Some(Trace {
                    clock,
                    buf: Mutex::new(EventBuf::default()),
                    seq: AtomicU64::new(0),
                    dropped: AtomicU64::new(0),
                }),
                ..ScopeInner::default()
            }),
        }
    }

    /// The scope's clock; `None` for a [`Scope::new`] scope.
    pub fn clock(&self) -> Option<Clock> {
        self.inner.trace.as_ref().map(|t| t.clock)
    }

    /// Activates the scope on the current thread until the returned guard
    /// drops. Scopes nest: an inner scope does not hide an outer one, both
    /// receive everything recorded while active. Enter the same scope
    /// from several threads (via clones) to merge their recordings.
    pub fn enter(&self) -> ScopeGuard {
        ACTIVE.with(|stack| stack.borrow_mut().push(Arc::clone(&self.inner)));
        if self.inner.trace.is_some() {
            CLOCKED.fetch_add(1, Ordering::Relaxed);
        }
        ScopeGuard {
            inner: Arc::clone(&self.inner),
            _not_send: PhantomData,
        }
    }

    /// A copy of every counter recorded into the scope so far.
    pub fn counters(&self) -> BTreeMap<String, u64> {
        self.inner.counters.lock().expect("scope poisoned").clone()
    }

    /// A copy of every histogram observed into the scope so far.
    pub fn hists(&self) -> BTreeMap<String, Hist> {
        self.inner.hists.lock().expect("scope poisoned").clone()
    }

    /// A copy of every stored event, in record order (empty without a
    /// clock).
    pub fn events(&self) -> Vec<Event> {
        self.inner.trace.as_ref().map_or_else(Vec::new, |t| {
            t.buf.lock().expect("scope poisoned").events.clone()
        })
    }

    /// Number of bulk instants dropped by the ring cap.
    pub fn dropped(&self) -> u64 {
        self.inner
            .trace
            .as_ref()
            .map_or(0, |t| t.dropped.load(Ordering::Relaxed))
    }
}

/// Keeps a [`Scope`] active on the thread that created it; see
/// [`Scope::enter`]. Not `Send`: the guard must drop on the thread that
/// entered the scope.
#[derive(Debug)]
pub struct ScopeGuard {
    inner: Arc<ScopeInner>,
    _not_send: PhantomData<*const ()>,
}

impl Drop for ScopeGuard {
    fn drop(&mut self) {
        if self.inner.trace.is_some() {
            CLOCKED.fetch_sub(1, Ordering::Relaxed);
        }
        ACTIVE.with(|stack| {
            let top = stack.borrow_mut().pop();
            debug_assert!(
                top.is_some_and(|t| Arc::ptr_eq(&t, &self.inner)),
                "scope guards must drop in reverse entry order"
            );
        });
    }
}

/// Detaches the current thread from every entered [`Scope`] until the
/// returned guard drops. Used by memoizing caches: the cache captures a
/// computation in a scope of its own and
/// [`attribute`](crate::registry::attribute)s its counters to every
/// consumer instead of charging whichever consumer triggered it, which
/// keeps attribution — and per-consumer traces — deterministic.
pub fn isolate() -> IsolationGuard {
    IsolationGuard {
        saved: ACTIVE.with(|stack| std::mem::take(&mut *stack.borrow_mut())),
        _not_send: PhantomData,
    }
}

/// Restores the scopes suspended by [`isolate`] on drop.
#[derive(Debug)]
pub struct IsolationGuard {
    saved: Vec<Arc<ScopeInner>>,
    _not_send: PhantomData<*const ()>,
}

impl Drop for IsolationGuard {
    fn drop(&mut self) {
        ACTIVE.with(|stack| {
            let mut stack = stack.borrow_mut();
            debug_assert!(
                stack.is_empty(),
                "scopes entered under isolation must exit before it ends"
            );
            *stack = std::mem::take(&mut self.saved);
        });
    }
}

/// Opens a span named `name` in every clocked scope entered on the
/// current thread; the span closes when the returned guard drops. With
/// no clocked scope entered this is a cheap no-op. Spans are never
/// ring-capped.
pub fn span(name: impl Into<Cow<'static, str>>) -> SpanGuard {
    let targets: Vec<Arc<ScopeInner>> = ACTIVE.with(|stack| {
        stack
            .borrow()
            .iter()
            .filter(|s| s.trace.is_some())
            .cloned()
            .collect()
    });
    let name = if targets.is_empty() {
        Cow::Borrowed("")
    } else {
        name.into()
    };
    for t in targets.iter().filter_map(|s| s.trace.as_ref()) {
        t.push(EventKind::Begin, name.clone(), &[], false);
    }
    SpanGuard {
        targets,
        name,
        _not_send: PhantomData,
    }
}

/// Closes its span on drop; see [`span`]. Not `Send`.
#[derive(Debug)]
pub struct SpanGuard {
    targets: Vec<Arc<ScopeInner>>,
    name: Cow<'static, str>,
    _not_send: PhantomData<*const ()>,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        for t in self.targets.iter().filter_map(|s| s.trace.as_ref()) {
            t.push(EventKind::End, self.name.clone(), &[], false);
        }
    }
}

/// Records a bulk instant (ring-capped per scope) with no payload.
pub fn instant(name: &'static str) {
    instant_with(name, &[]);
}

/// Records a bulk instant (ring-capped per scope) with a numeric
/// payload. The per-node search-tree events use this; callers in hot
/// loops should gate on [`enabled`] before assembling `args`.
pub fn instant_with(name: &'static str, args: &[(&'static str, u64)]) {
    for_each_clocked(|t| t.push(EventKind::Instant, Cow::Borrowed(name), args, true));
}

/// Records a pinned instant that is **never** ring-capped: per-solve
/// roll-ups (total nodes, prune counts, incumbent count) that must
/// survive even when the per-node stream overflowed.
pub fn summary(name: impl Into<Cow<'static, str>>, args: &[(&'static str, u64)]) {
    let name = name.into();
    for_each_clocked(|t| t.push(EventKind::Instant, name.clone(), args, false));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lanes::lanes;
    use crate::registry::{observe, record};

    /// [`enabled`] reads a process-wide count, so every test here that
    /// enters a clocked scope holds this lock (no other test in this
    /// crate enters one).
    fn serial() -> std::sync::MutexGuard<'static, ()> {
        static SERIAL: Mutex<()> = Mutex::new(());
        SERIAL
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn names(events: &[Event]) -> Vec<(EventKind, String)> {
        events
            .iter()
            .map(|e| (e.kind, e.name.to_string()))
            .collect()
    }

    #[test]
    fn spans_nest_and_balance() {
        let _serial = serial();
        let scope = Scope::with_clock(Clock::Virtual);
        {
            let _g = scope.enter();
            let _outer = span("outer");
            {
                let _inner = span("inner");
                instant("tick");
            }
        }
        let got = names(&scope.events());
        assert_eq!(
            got,
            vec![
                (EventKind::Begin, "outer".to_string()),
                (EventKind::Begin, "inner".to_string()),
                (EventKind::Instant, "tick".to_string()),
                (EventKind::End, "inner".to_string()),
                (EventKind::End, "outer".to_string()),
            ]
        );
    }

    #[test]
    fn virtual_clock_is_a_dense_sequence() {
        let _serial = serial();
        let scope = Scope::with_clock(Clock::Virtual);
        {
            let _g = scope.enter();
            let _s = span("s");
            instant("a");
            instant("b");
        }
        let ts: Vec<u64> = scope.events().iter().map(|e| e.ts).collect();
        assert_eq!(ts, vec![0, 1, 2, 3]);
    }

    #[test]
    fn no_scope_means_no_events_and_disabled() {
        let _serial = serial();
        let probe = Scope::with_clock(Clock::Virtual);
        instant("free.floating");
        let _s = span("free.span");
        drop(_s);
        assert!(probe.events().is_empty());
        assert!(!enabled());
    }

    #[test]
    fn enabled_tracks_entered_guards() {
        let _serial = serial();
        let scope = Scope::with_clock(Clock::Virtual);
        let g = scope.enter();
        assert!(enabled());
        drop(g);
        assert!(!enabled());
    }

    /// A clocked scope receives all three kinds; a clockless one the
    /// counters and histograms only, even while nested in a clocked one.
    #[test]
    fn clocked_scopes_store_events_and_clockless_ones_do_not() {
        let _serial = serial();
        let clocked = Scope::with_clock(Clock::Virtual);
        let plain = Scope::new();
        {
            let _c = clocked.enter();
            let _p = plain.enter();
            let _s = span("both.span");
            record("test.merged.kinds", 2);
            observe("test.merged.kinds.hist", 8);
            instant_with("both.tick", &[("n", 1)]);
            summary("both.summary", &[("n", 1)]);
        }
        for scope in [&clocked, &plain] {
            assert_eq!(scope.counters()["test.merged.kinds"], 2);
            assert_eq!(scope.hists()["test.merged.kinds.hist"].count(), 1);
        }
        assert_eq!(clocked.clock(), Some(Clock::Virtual));
        assert_eq!(
            names(&clocked.events()),
            vec![
                (EventKind::Begin, "both.span".to_string()),
                (EventKind::Instant, "both.tick".to_string()),
                (EventKind::Instant, "both.summary".to_string()),
                (EventKind::End, "both.span".to_string()),
            ]
        );
        assert_eq!(plain.clock(), None);
        assert!(plain.events().is_empty());
        assert_eq!(plain.dropped(), 0);
    }

    /// Entering clockless scopes — nested, and as clones on another
    /// thread — never turns [`enabled`] on; one clocked scope does.
    #[test]
    fn clockless_scopes_leave_enabled_off() {
        let _serial = serial();
        let (outer, inner) = (Scope::new(), Scope::new());
        let _o = outer.enter();
        let _i = inner.enter();
        let remote = inner.clone();
        std::thread::spawn(move || {
            let _r = remote.enter();
            assert!(!enabled());
        })
        .join()
        .expect("worker");
        assert!(!enabled());
        let clocked = Scope::with_clock(Clock::Virtual);
        let g = clocked.enter();
        assert!(enabled());
        drop(g);
        assert!(!enabled());
    }

    #[test]
    fn nested_scopes_both_record() {
        let _serial = serial();
        let outer = Scope::with_clock(Clock::Virtual);
        let inner = Scope::with_clock(Clock::Virtual);
        let _og = outer.enter();
        {
            let _ig = inner.enter();
            instant("both");
            record("test.merged.nested", 4);
        }
        instant("outer.only");
        record("test.merged.nested", 2);
        assert_eq!(inner.events().len(), 1);
        assert_eq!(outer.events().len(), 2);
        assert_eq!(inner.counters()["test.merged.nested"], 4);
        assert_eq!(outer.counters()["test.merged.nested"], 6);
    }

    #[test]
    fn scope_extends_across_threads_via_clone() {
        let _serial = serial();
        let scope = Scope::with_clock(Clock::Real);
        let clone = |_| (String::new(), scope.clone());
        let work = |_| {
            let _s = span("worker");
            instant("work");
            (0..500).for_each(|_| record("test.merged.fanout", 1));
        };
        lanes(4, 4, Some(&clone), work, |_, _| {});
        let events = scope.events();
        assert_eq!(events.len(), 12); // 4 × (B + i + E)
        let ts: Vec<u64> = events.iter().map(|e| e.ts).collect();
        assert!(ts.windows(2).all(|w| w[0] <= w[1]), "per-scope monotone");
        assert_eq!(scope.counters()["test.merged.fanout"], 2000);
    }

    /// Nested scopes entered as clones on spawned threads: every scope
    /// holds exactly what was recorded while it was entered, whatever the
    /// interleaving.
    #[test]
    fn nested_clones_on_spawned_threads_keep_exact_totals() {
        let _serial = serial();
        const WORKERS: usize = 4;
        const INCREMENTS: u64 = 1_000;
        let key = "test.merged.nested_clones";
        let outer = Scope::new();
        let inners: Vec<Scope> = (0..WORKERS)
            .map(|w| {
                if w % 2 == 0 {
                    Scope::with_clock(Clock::Virtual)
                } else {
                    Scope::new()
                }
            })
            .collect();
        let clone = |_| (String::new(), outer.clone());
        let work = |w: usize| {
            (0..INCREMENTS).for_each(|_| record(key, 1));
            let _i = inners[w].enter();
            for _ in 0..INCREMENTS {
                record(key, 2);
                observe(key, 1);
            }
        };
        lanes(WORKERS, WORKERS, Some(&clone), work, |_, _| {});
        for inner in &inners {
            assert_eq!(inner.counters()[key], 2 * INCREMENTS);
            assert_eq!(inner.hists()[key].count(), INCREMENTS);
        }
        assert_eq!(outer.counters()[key], WORKERS as u64 * 3 * INCREMENTS);
        assert_eq!(outer.hists()[key].count(), WORKERS as u64 * INCREMENTS);
    }

    #[test]
    fn ring_cap_drops_bulk_instants_but_surfaces_the_count() {
        let _serial = serial();
        let scope = Scope::with_clock(Clock::Virtual);
        {
            let _g = scope.enter();
            let _s = span("flood");
            for _ in 0..(RING_CAP + 100) {
                instant_with("node", &[("depth", 1)]);
            }
            summary("flood.summary", &[("nodes", (RING_CAP + 100) as u64)]);
        }
        assert_eq!(scope.dropped(), 100);
        let events = scope.events();
        // B + RING_CAP bulk + pinned summary + E.
        assert_eq!(events.len(), RING_CAP + 3);
        assert!(events.iter().any(
            |e| e.name == "flood.summary" && e.args == vec![("nodes", (RING_CAP + 100) as u64)]
        ));
        let (first, last) = (&events[1], &events[RING_CAP]);
        assert_eq!(first.name, "node");
        assert_eq!(last.name, "node"); // keep-first: earliest survive
    }

    /// One `isolate` detaches clocked and clockless scopes alike, and
    /// restores both when it ends.
    #[test]
    fn isolation_detaches_then_restores() {
        let _serial = serial();
        let clocked = Scope::with_clock(Clock::Virtual);
        let plain = Scope::new();
        let _c = clocked.enter();
        let _p = plain.enter();
        instant("before");
        record("test.merged.iso", 1);
        {
            let _iso = isolate();
            instant("hidden");
            record("test.merged.iso", 100);
            observe("test.merged.iso", 100);
        }
        instant("after");
        record("test.merged.iso", 2);
        let got: Vec<String> = clocked
            .events()
            .iter()
            .map(|e| e.name.to_string())
            .collect();
        assert_eq!(got, vec!["before", "after"]);
        for scope in [&clocked, &plain] {
            assert_eq!(scope.counters()["test.merged.iso"], 3);
            assert!(!scope.hists().contains_key("test.merged.iso"));
        }
    }
}
