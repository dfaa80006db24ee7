//! Simulator fast-path micro-bench: before/after numbers for the
//! closed-form CPU fast-forward, the turn-handoff bypass, and the
//! indexed mailbox.
//!
//! Three comparisons, each against the seed's behavior:
//!
//! * **engine events** — heap pushes to simulate a 100-virtual-second
//!   compute under ncp = 3: `DYNMPI_SIM_STEPPED`-style stepped mode
//!   (the seed's one-event-per-quantum strategy, selected here with
//!   `with_stepped(true)`) vs the default fast-forward + bypass path.
//!   Both must produce bit-identical virtual outputs.
//! * **recv matching** — envelopes examined (and wall time) to drain a
//!   deep out-of-order mailbox: the seed's linear min-(arrival, seq)
//!   scan vs the per-(tag, src) indexed queues, reproduced here as
//!   standalone micro-models of the two matchers.
//! * **sweep wall-clock** — a fig4-shaped block of independent Jacobi
//!   runs through `dynmpi_testkit::sweep` at `--threads 1` vs the
//!   machine's parallelism, asserting identical makespans.
//! * **monitor overhead** — an adaptive Jacobi run with the recorder and
//!   the streaming health monitor subscribed vs the same run bare: the
//!   virtual outputs must be bit-identical and the wall-clock overhead
//!   of online monitoring stays pinned below its acceptance bar.
//! * **checkpoint overhead** — the same adaptive Jacobi run with the
//!   fault path armed (failure detection + periodic buddy-checkpoint
//!   refreshes) vs. unguarded: the refresh traffic's virtual-makespan
//!   overhead is deterministic and must stay pinned below its
//!   acceptance bar, and the refresh counters must show the mirrors
//!   actually cycling.
//! * **sharded scaling** — one 1024-rank ring-exchange simulation at
//!   `--shards` 1/2/8: virtual outputs must be bit-identical at every
//!   shard count, and on multi-core machines the 8-shard run must beat
//!   the 1-shard run by a core-count-tiered wall-clock factor.
//!
//! Prints the before/after table and writes `results/BENCH_sim.json`.
//! `--check` runs a scaled-down configuration and only asserts the
//! invariants (used by CI's bench-smoke job).

use std::collections::BTreeMap;
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Instant;

use dynmpi::DynMpiConfig;
use dynmpi_apps::harness::{run_sim, run_sim_with, AppSpec, Experiment};
use dynmpi_apps::jacobi::JacobiParams;
use dynmpi_bench::{log_info, print_table};
use dynmpi_obs::{HealthMonitor, Json, Recorder, DEFAULT_WINDOW_NS};
use dynmpi_sim::{Cluster, LoadScript, NodeSpec, SimReport, SimTime};

/// One rank computing `work` units on a speed-1e6 node that hosts three
/// competing processes from t = 0, so the guest holds a quarter share and
/// stepped mode pays one heap event per 10 ms quantum.
fn loaded_compute(stepped: bool, work: f64) -> SimReport {
    let script = LoadScript::dedicated().at_time(0, SimTime::ZERO, 3);
    Cluster::homogeneous(1, NodeSpec::with_speed(1e6))
        .with_script(script)
        .with_stepped(stepped)
        .run_spmd(move |ctx| ctx.advance(work))
        .report
}

/// A pending message in the matcher micro-models.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
struct Env {
    src: usize,
    tag: u64,
    arrival: u64,
    seq: u64,
}

trait Matcher {
    fn push(&mut self, e: Env);
    fn pop(&mut self, src: usize, tag: u64) -> Env;
}

/// The seed's matcher: one flat `Vec`, every `recv` scans all pending
/// envelopes for the min-(arrival, seq) match.
#[derive(Default)]
struct LinearBox {
    msgs: Vec<Env>,
    examined: u64,
}

impl Matcher for LinearBox {
    fn push(&mut self, e: Env) {
        self.msgs.push(e);
    }

    fn pop(&mut self, src: usize, tag: u64) -> Env {
        self.examined += self.msgs.len() as u64;
        let best = self
            .msgs
            .iter()
            .enumerate()
            .filter(|(_, m)| m.src == src && m.tag == tag)
            .min_by_key(|(_, m)| (m.arrival, m.seq))
            .map(|(i, _)| i)
            .expect("message present");
        self.msgs.remove(best)
    }
}

/// The engine's current matcher shape: per-(tag, src) FIFO queues, one
/// probe per `recv`.
#[derive(Default)]
struct IndexedBox {
    queues: BTreeMap<(u64, usize), VecDeque<Env>>,
    probed: u64,
}

impl Matcher for IndexedBox {
    fn push(&mut self, e: Env) {
        self.queues.entry((e.tag, e.src)).or_default().push_back(e);
    }

    fn pop(&mut self, src: usize, tag: u64) -> Env {
        self.probed += 1;
        let q = self.queues.get_mut(&(tag, src)).expect("queue present");
        let e = q.pop_front().expect("message present");
        if q.is_empty() {
            self.queues.remove(&(tag, src));
        }
        e
    }
}

/// Fills a matcher with `senders * per_sender` envelopes, then drains it
/// in an order that keeps the backlog deep (round-robin over senders).
/// Returns the drained envelopes for cross-checking.
fn drive_matcher<M: Matcher>(senders: usize, per_sender: usize, b: &mut M) -> Vec<Env> {
    let mut arrival = 0u64;
    for m in 0..per_sender {
        for src in 0..senders {
            arrival += 7;
            b.push(Env {
                src,
                tag: src as u64,
                arrival,
                seq: (m * senders + src) as u64,
            });
        }
    }
    let mut out = Vec::with_capacity(senders * per_sender);
    for _ in 0..per_sender {
        for src in 0..senders {
            out.push(b.pop(src, src as u64));
        }
    }
    out
}

/// Wall-clock of a fig4-shaped block of independent Jacobi runs under
/// `sweep` with `threads` workers. Returns (makespans, seconds).
fn mini_sweep(threads: usize, iters: usize) -> (Vec<f64>, f64) {
    let items: Vec<(usize, usize)> = [2usize, 4]
        .into_iter()
        .flat_map(|nodes| [iters, 2 * iters, 3 * iters].map(|it| (nodes, it)))
        .collect();
    let start = Instant::now();
    let makespans = dynmpi_testkit::sweep(&items, threads, |_i, item| {
        let (nodes, it) = *item;
        let p = JacobiParams {
            n: 256,
            iters: it,
            exercise_kernel: false,
            rebalance_at: None,
        };
        run_sim(
            &Experiment::new(AppSpec::Jacobi(p), nodes)
                .with_node_spec(NodeSpec::with_speed(5e6))
                .with_cfg(DynMpiConfig::no_adapt())
                .with_script(LoadScript::dedicated().at_cycle(nodes - 1, 10, 1)),
        )
        .makespan
    });
    (makespans, start.elapsed().as_secs_f64())
}

/// One ring-exchange run: `ranks` ranks, nearest-neighbor traffic with a
/// little any-source control traffic and monitor reads mixed in (the
/// cross-shard-sensitive operations), on `shards` engine shards. Returns
/// the run's virtual outputs plus the wall-clock seconds it took.
#[allow(clippy::type_complexity)]
fn sharded_ring(ranks: usize, shards: usize, iters: usize) -> ((Vec<SimTime>, SimReport), f64) {
    let script = LoadScript::dedicated()
        .at_time(ranks - 1, SimTime::from_millis(40), 2)
        .at_cycle(0, 5, 1);
    let cluster = Cluster::homogeneous(ranks, NodeSpec::with_speed(1e7))
        .with_script(script)
        .with_shards(shards);
    let start = Instant::now();
    let out = cluster.run_spmd(move |ctx| {
        let r = ctx.rank();
        let n = ctx.nprocs();
        for i in 0..iters {
            ctx.advance(2e4);
            ctx.send((r + 1) % n, 1, vec![0u8; 512]);
            let _ = ctx.recv((r + n - 1) % n, 1);
            ctx.phase_cycle_completed();
            // Long-haul any-source traffic: senders ≡ 0 (mod 16) target the
            // ≡ 8 (mod 16) ranks half a ring away (n is a multiple of 16,
            // so the target set is exactly the receiver set) — guaranteed
            // cross-shard at any shard count ≥ 2.
            if r % 16 == 0 && i % 8 == 1 {
                ctx.send((r + n / 2 + 8) % n, 9, vec![i as u8]);
            }
            if r % 16 == 8 && i % 8 == 1 {
                let _ = ctx.recv_any(9);
            }
            if i % 16 == 2 {
                std::hint::black_box(ctx.dmpi_ps((r + 7) % n));
            }
        }
        ctx.now()
    });
    let secs = start.elapsed().as_secs_f64();
    ((out.results, out.report.virtual_outputs()), secs)
}

/// The wall-clock speedup `--shards 8` must show over `--shards 1`,
/// tiered by the machine's core count so CI on small runners still
/// enforces a bound. Below two cores there is nothing to assert.
fn speedup_bound(cores: usize) -> f64 {
    if cores >= 8 {
        3.0
    } else if cores >= 4 {
        1.6
    } else if cores >= 2 {
        1.2
    } else {
        0.0
    }
}

/// The adaptive competing-process Jacobi run used to price the online
/// health monitor: same shape as the `health_monitor` integration tests.
fn health_experiment(iters: usize) -> Experiment {
    Experiment::new(
        AppSpec::Jacobi(JacobiParams {
            n: 256,
            iters,
            exercise_kernel: false,
            rebalance_at: None,
        }),
        4,
    )
    .with_node_spec(NodeSpec::with_speed(5e6))
    .with_cfg(DynMpiConfig::default())
    .with_script(LoadScript::dedicated().at_cycle(3, 10, 1))
}

fn main() {
    let mut check = false;
    let mut out_dir = "results".to_string();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--check" => check = true,
            "--out" => {
                out_dir = args.next().unwrap_or_else(|| {
                    eprintln!("--out needs a value");
                    std::process::exit(2);
                })
            }
            "--help" | "-h" => {
                eprintln!("usage: bench_sim [--check] [--out DIR]");
                std::process::exit(0);
            }
            other => {
                eprintln!("unknown argument {other}");
                std::process::exit(2);
            }
        }
    }

    // 100 virtual seconds normally (25e6 work at a quarter of 1e6/s);
    // --check shrinks it but keeps thousands of stepped quanta.
    let work = if check { 2.5e6 } else { 25e6 };
    let (senders, per_sender) = if check { (16, 16) } else { (64, 64) };
    let sweep_iters = if check { 10 } else { 40 };
    let monitor_iters = if check { 30 } else { 120 };
    let (ring_ranks, ring_iters) = if check { (128, 24) } else { (1024, 120) };

    log_info!("engine events: {work} work units under ncp=3, stepped vs fast");
    let stepped = loaded_compute(true, work);
    let fast = loaded_compute(false, work);
    assert_eq!(
        stepped.virtual_outputs(),
        fast.virtual_outputs(),
        "stepped and fast modes diverged on virtual outputs"
    );
    let event_ratio = stepped.engine_events as f64 / fast.engine_events.max(1) as f64;

    log_info!("recv matching: {senders} senders x {per_sender} msgs, linear vs indexed");
    let mut lin = LinearBox::default();
    let lin_out = drive_matcher(senders, per_sender, &mut lin);
    let mut idx = IndexedBox::default();
    let idx_out = drive_matcher(senders, per_sender, &mut idx);
    assert_eq!(lin_out, idx_out, "matchers disagree on delivery order");
    let lin_ns = dynmpi_testkit::bench("matcher: seed linear scan", || {
        drive_matcher(senders, per_sender, &mut LinearBox::default())
    })
    .mean_ns;
    let idx_ns = dynmpi_testkit::bench("matcher: indexed queues", || {
        drive_matcher(senders, per_sender, &mut IndexedBox::default())
    })
    .mean_ns;

    let threads = dynmpi_testkit::available_threads();
    log_info!("sweep wall-clock: 6 Jacobi runs at --threads 1 vs {threads}");
    let (serial_ms, serial_s) = mini_sweep(1, sweep_iters);
    let (par_ms, par_s) = mini_sweep(threads, sweep_iters);
    assert_eq!(serial_ms, par_ms, "sweep results changed with thread count");

    log_info!("monitor overhead: adaptive Jacobi x{monitor_iters} iters, bare vs recorder+health");
    let exp = health_experiment(monitor_iters);
    let with_monitor = || {
        let rec = Recorder::new();
        let monitor = Arc::new(HealthMonitor::new(DEFAULT_WINDOW_NS));
        rec.subscribe(monitor.clone());
        let run = run_sim_with(&exp, Some(rec));
        (run, monitor)
    };
    let bare = run_sim_with(&exp, None);
    let (monitored, monitor) = with_monitor();
    assert_eq!(
        bare.makespan.to_bits(),
        monitored.makespan.to_bits(),
        "health monitor perturbed the simulated makespan"
    );
    let report = monitor.report();
    assert!(
        !report.windows.is_empty() && report.nodes == 4,
        "health monitor produced no windows on the monitored run"
    );
    let bare_ns =
        dynmpi_testkit::bench("health monitor: off", || run_sim_with(&exp, None).makespan).mean_ns;
    let mon_ns = dynmpi_testkit::bench("health monitor: on", || with_monitor().0.makespan).mean_ns;
    let monitor_overhead = mon_ns / bare_ns;

    log_info!("checkpoint overhead: same Jacobi run, fault path off vs armed (interval 5)");
    let ckpt_interval = 5u32;
    let ckpt_exp = health_experiment(monitor_iters).with_cfg(DynMpiConfig {
        failure_detection: true,
        peer_timeout_seconds: 0.05,
        failure_confirm_cycles: 3,
        checkpoint_interval_cycles: ckpt_interval,
        ..Default::default()
    });
    let ckpt_rec = Recorder::new();
    let guarded = run_sim_with(&ckpt_exp, Some(ckpt_rec.clone()));
    let ckpt_metrics = ckpt_rec.merged_metrics();
    let ckpt_refreshes = ckpt_metrics.counter(dynmpi::CKPT_REFRESHES);
    let ckpt_bytes = ckpt_metrics.counter(dynmpi::CKPT_BYTES_SENT);
    let ckpt_given_up = ckpt_metrics.counter(dynmpi::CKPT_REFRESH_TIMEOUTS);
    // Virtual, not wall: the refresh traffic is simulated communication,
    // so the ratio is exactly reproducible on any machine.
    let ckpt_overhead = guarded.makespan / bare.makespan;
    let guarded_ns = dynmpi_testkit::bench("fault path: armed", || {
        run_sim_with(&ckpt_exp, None).makespan
    })
    .mean_ns;

    let cores = dynmpi_testkit::available_threads();
    log_info!("sharded scaling: {ring_ranks}-rank ring at --shards 1/2/8 on {cores} cores");
    let shard_counts = [1usize, 2, 8];
    let mut shard_secs = Vec::new();
    let mut shard_out = None;
    for &s in &shard_counts {
        let (out, secs) = sharded_ring(ring_ranks, s, ring_iters);
        log_info!("  --shards {s}: {secs:.2}s wall");
        match &shard_out {
            None => shard_out = Some(out),
            Some(first) => assert_eq!(
                *first, out,
                "--shards {s} diverged from --shards 1 on virtual outputs"
            ),
        }
        shard_secs.push(secs);
    }
    let shard_speedup = shard_secs[0] / shard_secs[2].max(f64::MIN_POSITIVE);

    print_table(
        "sim fast path: before/after",
        &["metric", "seed", "now", "ratio"],
        &[
            vec![
                format!(
                    "engine events, {:.0}s virtual ncp=3",
                    fast.finish_time.as_secs_f64()
                ),
                stepped.engine_events.to_string(),
                fast.engine_events.to_string(),
                format!("{event_ratio:.0}x"),
            ],
            vec![
                "turn bypasses (fast mode)".to_string(),
                "0".to_string(),
                fast.turn_bypasses.to_string(),
                "-".to_string(),
            ],
            vec![
                format!("envelopes examined, {} msgs", senders * per_sender),
                lin.examined.to_string(),
                idx.probed.to_string(),
                format!("{:.0}x", lin.examined as f64 / idx.probed.max(1) as f64),
            ],
            vec![
                "matcher drain time (µs)".to_string(),
                format!("{:.1}", lin_ns / 1e3),
                format!("{:.1}", idx_ns / 1e3),
                format!("{:.1}x", lin_ns / idx_ns),
            ],
            vec![
                format!("sweep wall-clock, 6 runs x{threads} threads (s)"),
                format!("{serial_s:.2}"),
                format!("{par_s:.2}"),
                format!("{:.2}x", serial_s / par_s),
            ],
            vec![
                format!("monitored run (ms), jacobi x{monitor_iters} iters"),
                format!("{:.2}", bare_ns / 1e6),
                format!("{:.2}", mon_ns / 1e6),
                format!("{monitor_overhead:.2}x"),
            ],
            vec![
                format!("fault path armed, virtual makespan (x{ckpt_refreshes} refreshes)"),
                format!("{:.3}s", bare.makespan),
                format!("{:.3}s", guarded.makespan),
                format!("{ckpt_overhead:.3}x"),
            ],
            vec![
                format!("{ring_ranks}-rank ring wall-clock (s), 1 vs 8 shards"),
                format!("{:.2}", shard_secs[0]),
                format!("{:.2}", shard_secs[2]),
                format!("{shard_speedup:.2}x"),
            ],
        ],
    );

    // The acceptance bars this binary exists to hold.
    assert!(
        stepped.engine_events >= 5 * fast.engine_events,
        "fast path must push >=5x fewer engine events than stepped mode \
         (stepped {}, fast {})",
        stepped.engine_events,
        fast.engine_events
    );
    assert!(
        fast.turn_bypasses > 0,
        "turn-handoff bypass never fired on a single-rank compute"
    );
    assert!(
        lin.examined >= 10 * idx.probed,
        "indexed mailbox regressed: {} examined vs {} probes",
        lin.examined,
        idx.probed
    );
    // The online health monitor must stay cheap enough to leave on: the
    // bar is generous against CI wall-clock noise, but catches the
    // monitor accidentally becoming superlinear in the event stream.
    assert!(
        monitor_overhead < 5.0,
        "health monitor overhead {monitor_overhead:.2}x exceeds the 5x acceptance bar"
    );
    // The fault path must be cheap enough to arm by default on long
    // runs: the mirror refreshes and the timeout-guarded control gather
    // together may not stretch the virtual makespan past the bar. The
    // ratio is pure simulation, so it is deterministic — this is a tight
    // bound, not a wall-clock-noise allowance.
    assert!(
        ckpt_refreshes > 0 && ckpt_bytes > 0,
        "fault-path run recorded no checkpoint refreshes ({ckpt_refreshes}) or \
         bytes ({ckpt_bytes}) — the mirrors never cycled"
    );
    // Bytes sent do not prove a mirror was kept: on this crash-free run
    // every predecessor is alive, so no refresh may give its mirror up.
    assert!(
        ckpt_given_up == 0,
        "crash-free fault-path run gave up {ckpt_given_up} of {ckpt_refreshes} \
         mirrors — a live predecessor's checkpoint was abandoned"
    );
    assert!(
        ckpt_overhead < 1.25,
        "checkpoint refresh overhead {ckpt_overhead:.3}x exceeds the 1.25x bar \
         ({:.3}s guarded vs {:.3}s bare)",
        guarded.makespan,
        bare.makespan
    );
    // Bit-identity across shard counts was asserted run-by-run above; the
    // wall-clock bound only binds where the machine has cores to use.
    let bound = speedup_bound(cores);
    if bound > 0.0 {
        assert!(
            shard_speedup >= bound,
            "{ring_ranks}-rank ring: --shards 8 speedup {shard_speedup:.2}x is under the \
             {bound:.1}x bound for {cores} cores ({:.2}s vs {:.2}s)",
            shard_secs[0],
            shard_secs[2]
        );
    } else {
        log_info!("single core: skipping the shard speedup bound (identity still enforced)");
    }

    if check {
        println!("bench_sim --check OK");
        return;
    }

    let doc = Json::obj([
        ("bench", Json::str("bench_sim")),
        (
            "engine_events",
            Json::obj([
                ("virtual_seconds", Json::Num(fast.finish_time.as_secs_f64())),
                ("ncp", Json::UInt(3)),
                ("stepped", Json::UInt(stepped.engine_events)),
                ("fast", Json::UInt(fast.engine_events)),
                ("turn_bypasses", Json::UInt(fast.turn_bypasses)),
                ("stepped_over_fast", Json::Num(event_ratio)),
            ]),
        ),
        (
            "recv_matching",
            Json::obj([
                ("messages", Json::UInt((senders * per_sender) as u64)),
                ("linear_examined", Json::UInt(lin.examined)),
                ("indexed_probes", Json::UInt(idx.probed)),
                ("linear_drain_ns", Json::Num(lin_ns)),
                ("indexed_drain_ns", Json::Num(idx_ns)),
                ("speedup", Json::Num(lin_ns / idx_ns)),
            ]),
        ),
        (
            "sweep_wall_clock",
            Json::obj([
                ("runs", Json::UInt(serial_ms.len() as u64)),
                ("threads", Json::UInt(threads as u64)),
                ("serial_s", Json::Num(serial_s)),
                ("parallel_s", Json::Num(par_s)),
                ("speedup", Json::Num(serial_s / par_s)),
            ]),
        ),
        (
            "monitor_overhead",
            Json::obj([
                ("iters", Json::UInt(monitor_iters as u64)),
                ("bare_ns", Json::Num(bare_ns)),
                ("monitored_ns", Json::Num(mon_ns)),
                ("overhead", Json::Num(monitor_overhead)),
                ("health_windows", Json::UInt(report.windows.len() as u64)),
            ]),
        ),
        (
            "checkpoint_overhead",
            Json::obj([
                ("iters", Json::UInt(monitor_iters as u64)),
                ("interval_cycles", Json::UInt(ckpt_interval as u64)),
                ("refreshes", Json::UInt(ckpt_refreshes)),
                ("bytes_sent", Json::UInt(ckpt_bytes)),
                ("bare_makespan_s", Json::Num(bare.makespan)),
                ("guarded_makespan_s", Json::Num(guarded.makespan)),
                ("overhead", Json::Num(ckpt_overhead)),
                ("bare_wall_ns", Json::Num(bare_ns)),
                ("guarded_wall_ns", Json::Num(guarded_ns)),
            ]),
        ),
        (
            "sharded_scaling",
            Json::obj([
                ("ranks", Json::UInt(ring_ranks as u64)),
                ("iters", Json::UInt(ring_iters as u64)),
                ("cores", Json::UInt(cores as u64)),
                ("shards_1_s", Json::Num(shard_secs[0])),
                ("shards_2_s", Json::Num(shard_secs[1])),
                ("shards_8_s", Json::Num(shard_secs[2])),
                ("speedup_8_over_1", Json::Num(shard_speedup)),
                ("bound", Json::Num(speedup_bound(cores))),
            ]),
        ),
    ]);
    let path = format!("{out_dir}/BENCH_sim.json");
    std::fs::create_dir_all(&out_dir).ok();
    std::fs::write(&path, format!("{doc}\n")).expect("write BENCH_sim.json");
    log_info!("wrote {path}");
}
