//! Allocation guard for the post-run trace pipeline: reading the recorded
//! log must not copy it. `profile()`, `chrome_trace()` and `jsonl()` borrow
//! the recorder's sorted buffer ([`Recorder::with_events`]) and the
//! exporters write each event straight into the output, so the exports'
//! peak heap growth above the recorder's own footprint is bounded by a
//! small multiple of what they return, and the profile's by its working
//! index alone. A deep clone of the log, or a `Json` tree of every event,
//! costs several times the output and fails here.
//!
//! A counting global allocator tracks live and peak heap bytes for this
//! test binary, which holds a single test so nothing else allocates
//! concurrently.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::SeqCst};

use dynmpi_obs::{instant, span_begin, span_end_args, Json, Recorder};

struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, SeqCst) + bytes;
    PEAK.fetch_max(live, SeqCst);
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees hold; the counters only observe
// sizes and never touch the memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded unchanged; the caller upholds `alloc`'s contract.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded unchanged; the caller upholds the contract.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator (hence `System`) with
        // `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), SeqCst);
    }

    // Growth is counted as the size delta, as for an in-place resize: the
    // guard bounds what the pipeline keeps live, not the allocator's
    // transient copy while it moves a block.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: forwarded unchanged; the caller upholds `realloc`'s
        // contract for `ptr`, `layout` and `new_size`.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            if new_size >= layout.size() {
                grew(new_size - layout.size());
            } else {
                LIVE.fetch_sub(layout.size() - new_size, SeqCst);
            }
        }
        p
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Run `f`, returning its result and the peak live heap above the level
/// at entry (the result's own bytes included).
fn peak_added<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let base = LIVE.load(SeqCst);
    PEAK.store(base, SeqCst);
    let out = f();
    (out, PEAK.load(SeqCst) - base)
}

const RANKS: usize = 8;
const CYCLES: u64 = 1_250;

/// A ring-exchange trace shaped like an instrumented run: per rank and
/// cycle a `sched` run span, a send, a blocked wait resolved by the
/// matching receive, and a cycle marker — 5 events, so 50 000 in all.
fn record(rec: &Recorder) {
    for rank in 0..RANKS {
        let _guard = rec.install(rank);
        let (next, prev) = ((rank + 1) % RANKS, (rank + RANKS - 1) % RANKS);
        for c in 0..CYCLES {
            let t = c * 10_000 + rank as u64 * 7;
            instant(
                "runtime",
                "begin_cycle",
                t,
                vec![("cycle".into(), Json::UInt(c))],
            );
            span_begin("sched", "run", t);
            span_end_args(t + 6_100, vec![("cpu".into(), Json::UInt(5_900))]);
            instant(
                "comm",
                "send",
                t + 6_100,
                vec![
                    ("peer".into(), Json::UInt(next as u64)),
                    ("seq".into(), Json::UInt(c)),
                    ("bytes".into(), Json::UInt(8_192)),
                    ("tag".into(), Json::UInt(3)),
                    ("queued_ns".into(), Json::UInt(0)),
                ],
            );
            span_begin("sched", "blocked", t + 6_100);
            span_end_args(t + 9_500, Vec::new());
            instant(
                "comm",
                "recv",
                t + 9_500,
                vec![
                    ("peer".into(), Json::UInt(prev as u64)),
                    ("seq".into(), Json::UInt(c)),
                    ("late_ns".into(), Json::UInt(1_200)),
                    ("net_ns".into(), Json::Num(2_200.5)),
                ],
            );
        }
    }
}

/// Peak growth allowed for a call returning `output_len` bytes: a `String`
/// grown by doubling holds at most twice its length, and the constant
/// covers small fixed-size working state.
fn budget(output_len: usize) -> usize {
    output_len * 5 / 2 + (256 << 10)
}

#[test]
fn reports_borrow_the_log_instead_of_copying_it() {
    let rec = Recorder::new();
    let ((), footprint) = peak_added(|| record(&rec));
    // First read sorts the log in place; its scratch buffer is the sort's,
    // not the reports'.
    drop(rec.events());
    assert_eq!(rec.events().len(), RANKS * CYCLES as usize * 5);

    let (chrome, added) = peak_added(|| rec.chrome_trace());
    assert!(
        added <= budget(chrome.len()),
        "chrome_trace() peaked {added} B above the recorder ({footprint} B) \
         for a {} B document",
        chrome.len()
    );
    drop(chrome);

    let (lines, added) = peak_added(|| rec.jsonl());
    assert!(
        added <= budget(lines.len()),
        "jsonl() peaked {added} B above the recorder ({footprint} B) for {} B of JSONL",
        lines.len()
    );
    drop(lines);

    // The analyzer's per-rank lanes and send index grow with the event
    // count, not with the report, so `profile()` is held against the log
    // itself: a copy of the log alone would cost the whole footprint.
    let (_profile, added) = peak_added(|| rec.profile());
    assert!(
        added <= footprint / 2,
        "profile() peaked {added} B above the recorder ({footprint} B)"
    );
}
