//! Allocation pin of the warm store-hit path, in a test binary of its own
//! so its counting global allocator sees only this test.
//!
//! A store hit reads the entry into a flat token tape, certifies the
//! response from the tape and copies the payload bytes into the slot. A
//! `Value` tree on that path costs one allocation per key, string and
//! container, so a bound well below that count keeps the tree from
//! quietly coming back.

use rtise_bench::store;
use rtise_serve::server::STORE_TAG;
use rtise_serve::{dedup_key, ResponseArtifact, Server, ServerConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::HashSet;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Most allocations one warm hit of the largest seed-42 `reconfig` entry
/// may make. It made 82 when the bound was set — path and file buffers,
/// the tape, the certifier's decoded problem and solution, the slot and
/// its memo entry, the stamped line — and 459 when the hit parsed the
/// entry into a `Value` tree.
const MAX_HIT_ALLOCS: usize = 100;

/// Counts allocations made on threads that turned counting on.
struct Counting;

static ALLOCS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

fn count() {
    if COUNTING.try_with(Cell::get).unwrap_or(false) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every call is forwarded unchanged to the system allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations `f` makes on this thread.
fn allocations<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = ALLOCS.load(Ordering::Relaxed);
    COUNTING.with(|c| c.set(true));
    let out = f();
    COUNTING.with(|c| c.set(false));
    (out, ALLOCS.load(Ordering::Relaxed) - before)
}

#[test]
fn a_warm_reconfig_hit_stays_under_its_allocation_bound() {
    let dir = std::env::temp_dir().join(format!("rtise-alloc-pin-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config = || ServerConfig {
        jobs: 1,
        cache_dir: Some(dir.clone()),
    };

    // Fill the store with every distinct seed-42 `reconfig` response.
    let mut seen = HashSet::new();
    let requests: Vec<_> = rtise_serve::traffic::generate(42, 1000)
        .into_iter()
        .filter(|r| r.kind.name() == "reconfig" && seen.insert(dedup_key(&r.kind)))
        .collect();
    assert!(requests.len() > 5, "{} reconfig requests", requests.len());
    let cold = Server::new(config());
    let size = |r: &rtise_serve::Request| {
        let path = store::entry_path::<ResponseArtifact>(&dir, STORE_TAG, &dedup_key(&r.kind));
        std::fs::metadata(path).map_or(0, |m| m.len())
    };
    for r in &requests {
        let _ = cold.serve(r);
    }
    let largest = requests.iter().max_by_key(|r| size(r)).expect("a request");
    let want = cold.serve(largest);
    assert!(size(largest) > 1500, "{} bytes", size(largest));

    // A first hit on a fresh server pays the process's one-time setup;
    // the second fresh server's hit is the one counted.
    let warm_up = Server::new(config());
    assert_eq!(warm_up.serve(largest), want);
    let server = Server::new(config());
    let (line, made) = allocations(|| server.serve(largest));
    assert_eq!(line, want);
    for hit in [&warm_up, &server] {
        assert_eq!(hit.counters().get("cache.response.hit"), Some(&1));
    }
    let _ = std::fs::remove_dir_all(&dir);
    assert!(
        made <= MAX_HIT_ALLOCS,
        "a warm reconfig hit made {made} allocations, bound {MAX_HIT_ALLOCS}"
    );
    eprintln!("a warm reconfig hit made {made} allocations");
}
