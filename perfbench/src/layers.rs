//! Host-time tracing at the transport boundary.
//!
//! [`TimedTransport`] wraps the simulator transport, delegates every call
//! and times it, so one job's host time splits into two layers without
//! touching the program:
//!
//! * inside transport calls — the simulator (`sim`): engine dispatch,
//!   turn handoff, mailbox matching, the network and CPU models, and the
//!   wait for the turn;
//! * outside them — the stack above the transport (`apps` + `core` +
//!   `comm::ops`): kernels, the runtime, the balancer, redistribution
//!   pack/unpack and collective framing.
//!
//! At one shard only the rank holding the turn runs, so the per-rank
//! self times add up without overlap. Spans stay in memory until the job
//! ends: job → rank → transport call.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::sync::{Mutex, PoisonError};
use std::time::Instant;

use dynmpi_comm::{HostMeters, PeerTimeout, SimTransport, Transport, RESERVED_TAG_BASE};

/// The transport calls a span can record.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Call {
    Send,
    /// Every blocking receive, timed-out ones included.
    Recv,
    Compute,
    /// Load monitors: `dmpi_ps` and `node_online`.
    Monitor,
    /// Clock, CPU-time readings and cycle marks.
    Other,
}

impl Call {
    pub fn name(self) -> &'static str {
        match self {
            Call::Send => "send",
            Call::Recv => "recv",
            Call::Compute => "compute",
            Call::Monitor => "monitor",
            Call::Other => "other",
        }
    }
}

/// One transport call, in nanoseconds since the job started.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub call: Call,
    pub start_ns: u64,
    pub dur_ns: u64,
}

/// Everything one rank recorded.
#[derive(Clone, Debug, Default)]
pub struct RankTrace {
    pub rank: usize,
    /// The rank's closure, in nanoseconds since the job started.
    pub start_ns: u64,
    pub end_ns: u64,
    pub spans: Vec<Span>,
    /// Messages and bytes under application tags (below
    /// [`RESERVED_TAG_BASE`]) and internal ones (collectives, control
    /// plane, redistribution, checkpoints).
    pub app_msgs: u64,
    pub app_bytes: u64,
    pub internal_msgs: u64,
    pub internal_bytes: u64,
    pub recv_timeouts: u64,
}

impl RankTrace {
    /// Closure time not spent inside transport calls.
    pub fn self_ns(&self) -> u64 {
        let inside: u64 = self.spans.iter().map(|s| s.dur_ns).sum();
        (self.end_ns - self.start_ns).saturating_sub(inside)
    }
}

/// Collects every rank's trace for one job.
pub struct Tracer {
    t0: Instant,
    ranks: Mutex<Vec<RankTrace>>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            t0: Instant::now(),
            ranks: Mutex::new(Vec::new()),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.duration_since(self.t0).as_nanos() as u64
    }

    /// The recorded ranks, sorted by rank.
    pub fn into_ranks(self) -> Vec<RankTrace> {
        let mut ranks = self
            .ranks
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner);
        ranks.sort_by_key(|r| r.rank);
        ranks
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

/// A [`SimTransport`] whose every call is timed.
pub struct TimedTransport<'a> {
    inner: SimTransport<'a>,
    tracer: &'a Tracer,
    trace: RefCell<RankTrace>,
}

impl<'a> TimedTransport<'a> {
    pub fn new(inner: SimTransport<'a>, tracer: &'a Tracer) -> Self {
        let trace = RankTrace {
            rank: inner.rank(),
            start_ns: tracer.ns(Instant::now()),
            ..RankTrace::default()
        };
        TimedTransport {
            inner,
            tracer,
            trace: RefCell::new(trace),
        }
    }

    fn timed<R>(&self, call: Call, f: impl FnOnce(&SimTransport<'a>) -> R) -> R {
        let start = Instant::now();
        let out = f(&self.inner);
        let dur_ns = start.elapsed().as_nanos() as u64;
        self.trace.borrow_mut().spans.push(Span {
            call,
            start_ns: self.tracer.ns(start),
            dur_ns,
        });
        out
    }
}

/// Hands the trace over when the rank's closure ends — also when a
/// scripted crash unwinds it, so a dead rank's time is not lost.
impl Drop for TimedTransport<'_> {
    fn drop(&mut self) {
        let mut trace = std::mem::take(self.trace.get_mut());
        trace.end_ns = self.tracer.ns(Instant::now());
        self.tracer
            .ranks
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(trace);
    }
}

impl Transport for TimedTransport<'_> {
    fn rank(&self) -> usize {
        self.inner.rank()
    }

    fn size(&self) -> usize {
        self.inner.size()
    }

    fn send_bytes(&self, dst: usize, tag: u64, payload: Vec<u8>) {
        let bytes = payload.len() as u64;
        {
            let mut t = self.trace.borrow_mut();
            if tag < RESERVED_TAG_BASE {
                t.app_msgs += 1;
                t.app_bytes += bytes;
            } else {
                t.internal_msgs += 1;
                t.internal_bytes += bytes;
            }
        }
        self.timed(Call::Send, |t| t.send_bytes(dst, tag, payload))
    }

    fn recv_bytes(&self, src: usize, tag: u64) -> Vec<u8> {
        self.timed(Call::Recv, |t| t.recv_bytes(src, tag))
    }

    fn recv_bytes_any(&self, tag: u64) -> (usize, Vec<u8>) {
        self.timed(Call::Recv, |t| t.recv_bytes_any(tag))
    }

    fn recv_bytes_timeout(
        &self,
        src: usize,
        tag: u64,
        timeout_seconds: f64,
    ) -> Result<Vec<u8>, PeerTimeout> {
        let out = self.timed(Call::Recv, |t| {
            t.recv_bytes_timeout(src, tag, timeout_seconds)
        });
        if out.is_err() {
            self.trace.borrow_mut().recv_timeouts += 1;
        }
        out
    }

    fn wtime(&self) -> f64 {
        self.timed(Call::Other, |t| t.wtime())
    }

    fn now_ns(&self) -> u64 {
        self.timed(Call::Other, |t| t.now_ns())
    }

    fn compute(&self, work: f64) {
        self.timed(Call::Compute, |t| t.compute(work))
    }

    fn phase_cycle_completed(&self) {
        self.timed(Call::Other, |t| t.phase_cycle_completed())
    }
}

impl HostMeters for TimedTransport<'_> {
    fn dmpi_ps(&self, r: usize) -> u32 {
        self.timed(Call::Monitor, |t| t.dmpi_ps(r))
    }

    fn node_online(&self, r: usize) -> bool {
        self.timed(Call::Monitor, |t| t.node_online(r))
    }

    fn proc_cpu_seconds(&self) -> f64 {
        self.timed(Call::Other, |t| t.proc_cpu_seconds())
    }

    fn proc_tick_seconds(&self) -> f64 {
        self.inner.proc_tick_seconds()
    }

    fn proc_cpu_ns(&self) -> u64 {
        self.timed(Call::Other, |t| t.proc_cpu_ns())
    }
}

/// A Chrome trace (`chrome://tracing`, Perfetto) of one job's host spans:
/// the job on track 0, and each rank's closure on its own track with its
/// transport calls nested inside.
pub fn chrome_trace(job_s: f64, ranks: &[RankTrace]) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    let mut span = |name: &str, tid: usize, start_ns: u64, dur_ns: u64| {
        let _ = write!(
            out,
            "{{\"name\":\"{name}\",\"ph\":\"X\",\"pid\":0,\"tid\":{tid},\"ts\":{:.3},\"dur\":{:.3}}},",
            start_ns as f64 / 1e3,
            dur_ns as f64 / 1e3
        );
    };
    span("job", 0, 0, (job_s * 1e9) as u64);
    for r in ranks {
        span("rank", r.rank + 1, r.start_ns, r.end_ns - r.start_ns);
        for s in &r.spans {
            span(s.call.name(), r.rank + 1, s.start_ns, s.dur_ns);
        }
    }
    out.pop(); // the last event's comma
    out.push_str("]}");
    out
}
