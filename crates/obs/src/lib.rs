//! # dynmpi-obs — virtual-time observability for the Dyn-MPI reproduction
//!
//! Three pieces, usable independently:
//!
//! * **Tracing** ([`trace`]): spans and instants stamped with *virtual*
//!   nanoseconds (the simulator's clock, not wallclock). A thread-local
//!   scope installed per rank thread buffers events without cross-thread
//!   contention; everything is a no-op when no scope is installed.
//! * **Metrics** ([`metrics`]): counters, gauges, and fixed-bucket
//!   histograms with atomic recording and plain-data snapshots whose merge
//!   is commutative and associative.
//! * **Exporters** ([`export`]): Chrome `trace_event` JSON (open in
//!   `chrome://tracing` or <https://ui.perfetto.dev>) and a JSONL stream,
//!   plus a parser for round-trip verification. The tiny [`json`] module
//!   backs both and is reused by the bench binaries for row output.
//!
//! The [`Recorder`] ties it together: one per traced run, cloned into each
//! rank thread, collecting per-rank events and metric snapshots for export.
//!
//! This crate deliberately has **no dependencies** (it sits below the
//! simulator in the crate graph) and never reads the wallclock: callers pass
//! explicit timestamps, which is what keeps traces deterministic.

pub mod analysis;
pub mod explain;
pub mod export;
pub mod health;
pub mod json;
pub mod metrics;
pub mod trace;

use std::fs::File;
use std::io::{self, BufWriter, Write as _};
use std::path::Path;
use std::sync::{Arc, Mutex, MutexGuard};

pub use trace::TraceEvent;

pub use analysis::{
    analyze, BlameEntry, Buckets, CritSegment, CycleAudit, ProfileReport, RankAttribution, SegKind,
};
pub use explain::{ChainLink, DecisionCard, ExplainEngine, ExplainReport, FlightRecord, Outcome};
pub use export::{parse_chrome_trace, parse_jsonl, ParsedEvent};
pub use health::{
    default_rules, Alert, AlertRule, HealthMonitor, HealthReport, HealthState, NodeHealth,
    RuleMetric, RuleOp, DEFAULT_WINDOW_NS,
};
pub use json::Json;
pub use metrics::{
    prometheus_text, Counter, Gauge, HistSnapshot, Histogram, Registry, Snapshot, BYTE_BUCKETS,
};
pub use trace::{
    count, counter_handle, enabled, gauge_handle, gauge_set, histogram_handle, instant, observe,
    span_begin, span_end, span_end_args, EventSink, ScopeGuard,
};

#[derive(Default)]
struct RecorderInner {
    /// Flushed rank buffers, appended in absorb order and sorted in place
    /// on the next read (see [`Recorder::with_events`]).
    events: Vec<TraceEvent>,
    /// `events` is in canonical order: set by a read, cleared by an absorb.
    sorted: bool,
    /// One metrics snapshot per rank (last flush wins per rank).
    snapshots: Vec<(usize, Snapshot)>,
    /// Streaming subscribers; cloned into each rank scope at install.
    sinks: Vec<Arc<dyn EventSink>>,
}

/// Collects trace events and metric snapshots from every rank of one run.
///
/// Cheap to clone (shared interior). Typical use:
///
/// ```
/// use dynmpi_obs::Recorder;
///
/// let rec = Recorder::new();
/// let handles: Vec<_> = (0..2)
///     .map(|rank| {
///         let rec = rec.clone();
///         std::thread::spawn(move || {
///             let _guard = rec.install(rank);
///             dynmpi_obs::span_begin("sched", "run", 0);
///             dynmpi_obs::count("quanta", 1);
///             dynmpi_obs::span_end(10_000);
///         })
///     })
///     .collect();
/// for h in handles {
///     h.join().unwrap();
/// }
/// assert_eq!(rec.events().len(), 2);
/// assert_eq!(rec.merged_metrics().counter("quanta"), 2);
/// ```
#[derive(Clone, Default)]
pub struct Recorder {
    inner: Arc<Mutex<RecorderInner>>,
}

impl Recorder {
    pub fn new() -> Self {
        Recorder::default()
    }

    fn locked(&self) -> MutexGuard<'_, RecorderInner> {
        self.inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Install a tracing scope for `rank` on the calling thread. The
    /// returned guard flushes buffered events and this rank's metrics
    /// snapshot back into the recorder when dropped (even on panic).
    ///
    /// Panics if the thread already has a scope installed.
    pub fn install(&self, rank: usize) -> ScopeGuard {
        trace::install_scope(self.clone(), rank)
    }

    /// Register a streaming [`EventSink`]: it is called at emission time,
    /// on the emitting rank's thread, for every span close and instant.
    /// Subscribe **before** installing rank scopes — scopes capture the
    /// sink list when installed, so later subscriptions only affect ranks
    /// installed afterwards.
    pub fn subscribe(&self, sink: Arc<dyn EventSink>) {
        self.locked().sinks.push(sink);
    }

    /// Snapshot of the current sink list (captured per rank at install).
    pub(crate) fn sinks(&self) -> Arc<[Arc<dyn EventSink>]> {
        self.locked().sinks.clone().into()
    }

    pub(crate) fn absorb(&self, rank: usize, events: Vec<TraceEvent>, snapshot: Snapshot) {
        let mut inner = self.locked();
        inner.events.extend(events);
        inner.sorted = false;
        inner.snapshots.retain(|(r, _)| *r != rank);
        inner.snapshots.push((rank, snapshot));
    }

    /// Run `f` over all flushed events, borrowed in the canonical trace
    /// order — no copy of the log is made.
    ///
    /// **Ordering contract:** events are sorted by
    /// `(ts_ns, rank, emission seq)` — virtual timestamp first, rank as the
    /// cross-rank tie-break, and each rank's own emission order as the final
    /// stable tie-break (a span is "emitted" when it *closes*, so at equal
    /// timestamps an instant fired before a zero-length span's close
    /// precedes it). The order is total and deterministic: rank buffers
    /// preserve emission order and the sort never reorders equal keys, so
    /// two runs of the same program produce the same sequence regardless of
    /// thread flush interleaving. Exporters ([`chrome_trace`](export::chrome_trace),
    /// [`jsonl`](export::jsonl)) and the [`analysis`] module consume this
    /// order as-is and never re-sort.
    ///
    /// The log is kept as one buffer in absorb order and sorted in place,
    /// lazily, by a *stable* sort on `(ts_ns, rank)`. Stability is what
    /// supplies the final tie-break: equal keys keep absorb order, and
    /// within one rank absorb order is emission order (a rank's flushes
    /// append in sequence). A read after further absorbs re-sorts the
    /// sorted prefix plus the new tail, which keeps the same property.
    ///
    /// The recorder stays locked while `f` runs: `f` must not call back
    /// into this recorder, and ranks flushing meanwhile wait for it.
    pub fn with_events<R>(&self, f: impl FnOnce(&[TraceEvent]) -> R) -> R {
        let mut inner = self.locked();
        if !inner.sorted {
            inner.events.sort_by_key(|e| (e.ts_ns(), e.rank()));
            inner.sorted = true;
        }
        f(&inner.events)
    }

    /// A copy of all flushed events, in the canonical trace order (see
    /// [`with_events`](Recorder::with_events), which borrows instead).
    pub fn events(&self) -> Vec<TraceEvent> {
        self.with_events(<[TraceEvent]>::to_vec)
    }

    /// Per-rank metric snapshots, sorted by rank.
    pub fn snapshots(&self) -> Vec<(usize, Snapshot)> {
        let mut snaps = self.locked().snapshots.clone();
        snaps.sort_by_key(|(r, _)| *r);
        snaps
    }

    /// All ranks' metrics merged into one aggregate.
    pub fn merged_metrics(&self) -> Snapshot {
        let mut total = Snapshot::default();
        for (_, s) in self.snapshots() {
            total.merge(&s);
        }
        total
    }

    /// Chrome `trace_event` JSON document of everything recorded so far.
    pub fn chrome_trace(&self) -> String {
        self.with_events(export::chrome_trace)
    }

    /// JSONL stream of everything recorded so far.
    pub fn jsonl(&self) -> String {
        self.with_events(export::jsonl)
    }

    /// Run the [`analysis`] pass over everything recorded so far.
    pub fn profile(&self) -> analysis::ProfileReport {
        self.with_events(analysis::analyze)
    }

    /// Write the Chrome trace to `path`, streamed event by event.
    pub fn write_chrome_trace(&self, path: impl AsRef<Path>) -> io::Result<()> {
        let mut file = BufWriter::new(File::create(path)?);
        self.with_events(|evs| export::write_chrome_trace(&mut file, evs))?;
        file.flush()
    }

    /// Write the JSONL stream to `path`, streamed event by event.
    pub fn write_jsonl(&self, path: impl AsRef<Path>) -> io::Result<()> {
        let mut file = BufWriter::new(File::create(path)?);
        self.with_events(|evs| export::write_jsonl(&mut file, evs))?;
        file.flush()
    }

    /// Write the merged metrics report (JSON) to `path`, including the
    /// per-rank snapshots under `"ranks"`.
    pub fn write_metrics(&self, path: impl AsRef<Path>) -> io::Result<()> {
        let ranks = Json::Obj(
            self.snapshots()
                .into_iter()
                .map(|(r, s)| (r.to_string(), s.to_json()))
                .collect(),
        );
        let doc = Json::obj([
            ("merged", self.merged_metrics().to_json()),
            ("ranks", ranks),
        ]);
        std::fs::write(path, doc.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recorder_collects_across_threads() {
        let rec = Recorder::new();
        let handles: Vec<_> = (0..4)
            .map(|rank| {
                let rec = rec.clone();
                std::thread::spawn(move || {
                    let _guard = rec.install(rank);
                    span_begin("sched", "run", rank as u64 * 100);
                    count("sim.msgs_sent", rank as u64);
                    span_end(rank as u64 * 100 + 50);
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let events = rec.events();
        assert_eq!(events.len(), 4);
        // Sorted by virtual time.
        assert!(events.windows(2).all(|w| w[0].ts_ns() <= w[1].ts_ns()));
        assert_eq!(rec.merged_metrics().counter("sim.msgs_sent"), 6); // 0+1+2+3
        assert_eq!(rec.snapshots().len(), 4);
    }

    #[test]
    fn events_order_is_ts_rank_then_emission_seq() {
        let rec = Recorder::new();
        {
            let _g = rec.install(1);
            // Two events at the same timestamp: emission order must hold.
            instant("comm", "first", 100, vec![]);
            instant("comm", "second", 100, vec![]);
        }
        {
            let _g = rec.install(0);
            instant("comm", "third", 100, vec![]);
        }
        let names: Vec<String> = rec.events().iter().map(|e| e.name().to_string()).collect();
        // Rank 0 sorts before rank 1 at equal ts, even though it flushed
        // later; within rank 1 the emission order is preserved.
        assert_eq!(names, vec!["third", "first", "second"]);
    }

    /// The lazy in-place sort, interleaved with absorbs, must yield exactly
    /// the `(ts_ns, rank, absorb seq)` order at every read.
    #[test]
    fn lazy_sort_matches_absorb_seq_oracle_across_interleaved_reads() {
        use dynmpi_testkit::{check_n, Rng};

        fn flush(rng: &mut Rng, rank: usize, tag: &str) -> Vec<TraceEvent> {
            // A narrow timestamp range forces colliding `(ts_ns, rank)` keys.
            rng.vec_in(0, 12, |r| TraceEvent::Instant {
                cat: "comm",
                name: format!("{tag}-{}", r.next_u64()),
                rank,
                ts_ns: r.range_u64(0, 6),
                args: vec![],
            })
        }

        check_n("recorder_lazy_sort_oracle", 128, |rng| {
            let rec = Recorder::new();
            let mut absorbed: Vec<TraceEvent> = Vec::new();
            let mut absorb = |rank: usize, events: Vec<TraceEvent>| {
                absorbed.extend(events.iter().cloned());
                rec.absorb(rank, events, Snapshot::default());
                // Oracle: sort by (ts_ns, rank, absorb seq) with explicit seqs.
                let mut keyed: Vec<(usize, &TraceEvent)> = absorbed.iter().enumerate().collect();
                keyed.sort_by_key(|(seq, e)| (e.ts_ns(), e.rank(), *seq));
                keyed
                    .into_iter()
                    .map(|(_, e)| e.clone())
                    .collect::<Vec<_>>()
            };

            absorb(1, flush(rng, 1, "r1"));
            let oracle = absorb(0, flush(rng, 0, "r0a"));
            assert_eq!(rec.events(), oracle, "first read");

            absorb(2, flush(rng, 2, "r2"));
            let oracle = absorb(0, flush(rng, 0, "r0b"));
            assert_eq!(rec.events(), oracle, "read after more absorbs");

            // Reads borrow the one buffer: no hidden copy per call. The
            // block a per-call copy would free is taken in between, so a
            // copy could not land at the same address twice.
            let a = rec.with_events(|evs| evs.as_ptr());
            let _taken: Vec<TraceEvent> = Vec::with_capacity(absorbed.len());
            let b = rec.with_events(|evs| evs.as_ptr());
            assert_eq!(a, b);
        });
    }

    #[test]
    fn reinstall_same_rank_replaces_snapshot() {
        let rec = Recorder::new();
        {
            let _g = rec.install(0);
            count("c", 1);
        }
        {
            let _g = rec.install(0);
            count("c", 5);
        }
        // Events accumulate, snapshots replace per rank.
        assert_eq!(rec.merged_metrics().counter("c"), 5);
        assert_eq!(rec.snapshots().len(), 1);
    }
}
