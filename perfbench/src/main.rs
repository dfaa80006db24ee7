//! The benchmark command. Runs one workload for a fixed host time and
//! prints its metrics: a table, a JSON record with the seed and host
//! environment, and as the last line the result object
//! `{"correct", "attempted", "failed", "metrics"}`.
//!
//! ```text
//! dynmpi-perfbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! `--trace 0` reports the end-to-end metrics from untraced jobs;
//! `--trace 1` alternates untraced and traced jobs and reports the
//! per-layer split (see `README.md`).

use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

use dynmpi::RuntimeEvent;
use dynmpi_obs::Json;
use dynmpi_perfbench::host::{Env, Usage};
use dynmpi_perfbench::job::{self, Attach, Job, ObsCost, Outputs};
use dynmpi_perfbench::layers::{chrome_trace, Call, RankTrace};
use dynmpi_perfbench::workload::{Kind, Workload};
use dynmpi_perfbench::{check, median, quantile, virtual_outputs};
use dynmpi_sim::Cluster;

/// Set-up takes well under a microsecond, so it is timed in batches of
/// `SETUP_BATCH` and the median per-set-up time of `SETUP_REPS` batches kept.
const SETUP_REPS: usize = 25;
const SETUP_BATCH: usize = 200;
/// Fewest end-to-end jobs an untraced run measures, however long they take.
const MIN_JOBS: usize = 3;

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str =
    "usage: dynmpi-perfbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]";

fn parse_args() -> Result<Args, String> {
    let mut kind = None;
    let (mut seed, mut seconds, mut trace) = (1u64, 10.0f64, false);
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => {
                kind = Some(Kind::parse(&value).ok_or_else(|| {
                    let names: Vec<_> = Kind::ALL.iter().map(|k| k.name()).collect();
                    format!("unknown workload {value:?}; one of {}", names.join(", "))
                })?)
            }
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(bad)?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// One reported metric.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
    samples: usize,
    /// Whether it goes into the result line (see `BENCHMARK.json`), or is
    /// only printed in the table and the record.
    in_result: bool,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str, samples: usize) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
        samples,
        in_result: true,
    }
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("{e}\n{USAGE}");
        std::process::exit(2);
    });
    let env = Env::detect();
    if env.nproc < 2 {
        eprintln!(
            "warning: {} core visible; rank threads and the host share it, \
             so wall and CPU figures are not comparable with multi-core runs",
            env.nproc
        );
    }

    // Set-up: the seed → workload generation and cluster construction.
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut generated = None;
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        for _ in 0..SETUP_BATCH {
            let w = Workload::generate(black_box(args.kind), black_box(args.seed));
            let cluster = Cluster::homogeneous(w.exp.nodes, w.exp.node_spec)
                .with_os(w.exp.os)
                .with_net(w.exp.net)
                .with_script(w.exp.script.clone());
            black_box(&cluster);
            generated = Some(w);
        }
        setup_s.push(t.elapsed().as_secs_f64() / SETUP_BATCH as f64);
    }
    let w = generated.expect("SETUP_REPS > 0");

    let e2e = Attach {
        observe: w.observed,
        counters: false,
        trace: false,
    };
    let start = Instant::now();
    let mut jobs: Vec<Job> = Vec::new();
    // Peak memory of one job in a fresh process, as a figure run sees it:
    // later jobs add allocator fragmentation that varies from run to run.
    let mut peak_rss_mb = 0.0;
    loop {
        let round = Instant::now();
        if args.trace {
            if w.observed {
                jobs.push(job::run(
                    &w.exp,
                    Attach {
                        observe: false,
                        ..e2e
                    },
                ));
            }
            jobs.push(job::run(&w.exp, e2e));
            jobs.push(job::run(
                &w.exp,
                Attach {
                    counters: w.kind == Kind::CrashRecoveryJacobi,
                    trace: true,
                    ..e2e
                },
            ));
        } else {
            jobs.push(job::run(&w.exp, e2e));
        }
        if peak_rss_mb == 0.0 {
            peak_rss_mb = Usage::now().peak_rss_mb;
        }
        // Stop when another round would overrun the measured time.
        let enough = args.trace || jobs.len() >= MIN_JOBS;
        if enough && (start.elapsed() + round.elapsed()).as_secs_f64() > args.seconds {
            break;
        }
    }

    // The correctness gate, outside the measured time.
    let reference = job::run(&w.reference(), Attach::default());
    let ref_sum = reference.outcome.as_ref().ok().and_then(Outputs::checksum);
    let first = jobs
        .iter()
        .find_map(|j| j.outcome.as_ref().ok().map(virtual_outputs));
    let mut failed = 0;
    for (i, j) in jobs.iter().enumerate() {
        let verdict = match (&j.outcome, ref_sum) {
            (Err(panic), _) => Err(format!("panicked: {panic}")),
            (Ok(_), None) => Err("the reference run produced no checksum".into()),
            (Ok(out), Some(r)) => check(&w, out, r).and_then(|()| {
                // Every job runs the same inputs, traced or not: the
                // virtual outputs must repeat bit for bit.
                if Some(virtual_outputs(out)) == first {
                    Ok(())
                } else {
                    Err("virtual outputs differ from the run's first job".into())
                }
            }),
        };
        if let Err(why) = verdict {
            failed += 1;
            eprintln!("job {i} ({:?}) failed: {why}", j.attach);
        }
    }

    let metrics = if args.trace {
        write_spans(&w, &jobs);
        per_layer(&w, &jobs)
    } else {
        end_to_end(&jobs, &setup_s, peak_rss_mb)
    };
    let attempted = jobs.len();
    print_report(&args, &w, &env, &metrics, attempted, failed);

    let result = Json::obj([
        ("correct", Json::Bool(failed == 0)),
        ("attempted", Json::UInt(attempted as u64)),
        ("failed", Json::UInt(failed as u64)),
        (
            "metrics",
            Json::obj(metrics.iter().filter(|m| m.in_result).map(|m| {
                (
                    m.name.as_str(),
                    Json::obj([("value", Json::Num(m.value)), ("unit", Json::str(m.unit))]),
                )
            })),
        ),
    ]);
    println!("{result}");
}

/// Writes the last traced job's host spans as a Chrome trace under
/// `.bench_out/` in the working directory.
fn write_spans(w: &Workload, jobs: &[Job]) {
    let Some(out) = jobs
        .iter()
        .rev()
        .filter(|j| j.attach.trace)
        .find_map(|j| j.outcome.as_ref().ok())
    else {
        return;
    };
    let dir = std::path::Path::new(".bench_out");
    let path = dir.join(format!("{}-seed{}.host_spans.json", w.kind.name(), w.seed));
    let written = std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(&path, chrome_trace(out.spmd_s, &out.ranks)));
    match written {
        Ok(()) => eprintln!("wrote {}", path.display()),
        Err(e) => eprintln!("warning: cannot write {}: {e}", path.display()),
    }
}

fn ok_outputs<'a>(jobs: impl Iterator<Item = &'a Job>) -> Vec<&'a Outputs> {
    jobs.filter_map(|j| j.outcome.as_ref().ok()).collect()
}

fn end_to_end(jobs: &[Job], setup_s: &[f64], peak_rss_mb: f64) -> Vec<Metric> {
    let n = jobs.len();
    let wall: Vec<f64> = jobs.iter().map(|j| j.wall_s).collect();
    let cpu: Vec<f64> = jobs.iter().map(|j| j.usage.cpu_s()).collect();
    let outs = ok_outputs(jobs.iter());
    let makespan: Vec<f64> = outs.iter().map(|o| o.makespan).collect();
    vec![
        metric("setup_s", median(setup_s), "s", setup_s.len()),
        // Printed, not gated: on a shared host, other tenants move the
        // wall and CPU time of identical jobs by tens of percent between
        // runs, more than any allowed bound (README.md).
        Metric {
            in_result: false,
            ..metric("wall_s", median(&wall), "s", n)
        },
        Metric {
            in_result: false,
            ..metric("host_cpu_s", median(&cpu), "s", n)
        },
        metric("peak_rss_mb", peak_rss_mb, "MiB", 1),
        metric("virtual_makespan_s", median(&makespan), "s", makespan.len()),
    ]
}

/// Per-call host latencies of one kind, pooled over every rank of a job.
fn call_ns(out: &Outputs, call: Call) -> Vec<f64> {
    out.ranks
        .iter()
        .flat_map(|r| r.spans.iter())
        .filter(|s| s.call == call)
        .map(|s| s.dur_ns as f64)
        .collect()
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn per_layer(w: &Workload, jobs: &[Job]) -> Vec<Metric> {
    let untraced: Vec<&Job> = jobs
        .iter()
        .filter(|j| !j.attach.trace && j.attach.observe == w.observed)
        .collect();
    let traced: Vec<&Job> = jobs.iter().filter(|j| j.attach.trace).collect();
    let bare: Vec<&Job> = jobs
        .iter()
        .filter(|j| w.observed && !j.attach.observe)
        .collect();
    let med =
        |js: &[&Job], f: &dyn Fn(&Job) -> f64| median(&js.iter().map(|j| f(j)).collect::<Vec<_>>());
    let untraced_wall = med(&untraced, &|j| j.wall_s);

    let mut m = Vec::new();
    let tr = ok_outputs(traced.iter().copied());
    let Some(out) = tr.first() else {
        return m;
    };
    let mut put = |name: &str, value, unit, samples| m.push(metric(name, value, unit, samples));
    // Host times: median over the traced jobs; counts repeat exactly.
    let n = tr.len();
    let med_out =
        |f: &dyn Fn(&Outputs) -> f64| median(&tr.iter().map(|o| f(o)).collect::<Vec<_>>());
    let rep = &out.report;
    put("sim.engine_events", rep.engine_events as f64, "count", 1);
    put("sim.turn_bypasses", rep.turn_bypasses as f64, "count", 1);
    put("sim.net_messages", rep.net_messages as f64, "count", 1);
    put("sim.net_bytes", rep.net_bytes as f64, "bytes", 1);
    for call in [Call::Send, Call::Recv, Call::Compute, Call::Monitor] {
        let key = |stat: &str| format!("sim.{}.{stat}", call.name());
        let count = call_ns(out, call).len();
        put(&key("calls"), count as f64, "count", 1);
        put(
            &key("p50_ns"),
            med_out(&|o| median(&call_ns(o, call))),
            "ns",
            count * n,
        );
        if call != Call::Monitor {
            let p99 = med_out(&|o| quantile(&call_ns(o, call), 0.99));
            put(&key("p99_ns"), p99, "ns", count * n);
        }
    }
    let sum = |f: &dyn Fn(&RankTrace) -> u64| out.ranks.iter().map(f).sum::<u64>() as f64;
    put("sim.recv.timeouts", sum(&|r| r.recv_timeouts), "count", 1);

    let stack_s = |o: &Outputs| o.ranks.iter().map(RankTrace::self_ns).sum::<u64>() as f64 * 1e-9;
    let sim_s = |o: &Outputs| (o.spmd_s - stack_s(o)).max(0.0);
    put("stack.self_s", med_out(&stack_s), "s", n);
    put("sim.self_s", med_out(&sim_s), "s", n);
    let ns_per_event = med_out(&|o| ratio(sim_s(o) * 1e9, o.report.engine_events as f64));
    put("sim.ns_per_event", ns_per_event, "ns", n);
    let nu = untraced.len();
    put("host.wall_s", untraced_wall, "s", nu);
    put("host.cpu_s", med(&untraced, &|j| j.usage.cpu_s()), "s", nu);
    put("host.sys_s", med(&untraced, &|j| j.usage.sys_s), "s", nu);
    let switches = med(&untraced, &|j| j.usage.ctx_switches as f64);
    put("host.ctx_switches", switches, "count", nu);

    let rank0 = &out.per_rank[0];
    let cycles = rank0.cycle_times.len() as f64;
    put("comm.app_msgs", sum(&|r| r.app_msgs), "count", 1);
    put("comm.app_bytes", sum(&|r| r.app_bytes), "bytes", 1);
    put("comm.internal_msgs", sum(&|r| r.internal_msgs), "count", 1);
    put(
        "comm.internal_bytes",
        sum(&|r| r.internal_bytes),
        "bytes",
        1,
    );
    let per_cycle = ratio(sum(&|r| r.internal_msgs), cycles);
    put("comm.internal_msgs_per_cycle", per_cycle, "count", 1);

    let events = |kind: &str| rank0.events.iter().filter(|e| e.kind() == kind).count() as f64;
    let dropped: usize = rank0
        .events
        .iter()
        .map(|e| match e {
            RuntimeEvent::NodesDropped { nodes, .. } => nodes.len(),
            _ => 0,
        })
        .sum();
    let redist_s = out
        .per_rank
        .iter()
        .map(|r| r.redist_seconds)
        .fold(0.0, f64::max);
    put("core.redistributions", events("redistributed"), "count", 1);
    put("core.nodes_dropped", dropped as f64, "count", 1);
    put("core.recoveries", events("node-recovered"), "count", 1);
    put("core.redist_virtual_s", redist_s, "s", 1);
    put("core.cycles", cycles, "count", 1);
    put(
        "core.useful_cycle_ratio",
        ratio(w.iters as f64, cycles),
        "ratio",
        1,
    );
    put("core.ckpt_refreshes", out.ckpt_refreshes as f64, "count", 1);
    put("core.ckpt_bytes", out.ckpt_bytes as f64, "bytes", 1);

    // Post-run observability cost, timed on the untraced observed jobs.
    let costs: Vec<&ObsCost> = ok_outputs(untraced.iter().copied())
        .into_iter()
        .filter_map(|o| o.obs.as_ref())
        .collect();
    let cost =
        |f: &dyn Fn(&ObsCost) -> f64| median(&costs.iter().map(|c| f(c)).collect::<Vec<_>>());
    let nc = costs.len();
    put("obs.trace_events", out.trace_events as f64, "count", 1);
    put(
        "obs.output_bytes",
        cost(&|c| c.output_bytes as f64),
        "bytes",
        nc,
    );
    put("obs.profile_s", cost(&|c| c.profile_s), "s", nc);
    put("obs.health_report_s", cost(&|c| c.health_report_s), "s", nc);
    put(
        "obs.explain_report_s",
        cost(&|c| c.explain_report_s),
        "s",
        nc,
    );
    put("obs.export_s", cost(&|c| c.export_s), "s", nc);
    let sink_overhead = if bare.is_empty() {
        0.0
    } else {
        ratio(untraced_wall, med(&bare, &|j| j.wall_s))
    };
    put("obs.sink_overhead", sink_overhead, "x", bare.len());
    let overhead = ratio(med(&traced, &|j| j.wall_s), untraced_wall);
    put("trace.overhead", overhead, "x", traced.len());
    m
}

fn print_report(
    args: &Args,
    w: &Workload,
    env: &Env,
    metrics: &[Metric],
    attempted: usize,
    failed: usize,
) {
    let mut table = String::new();
    let _ = writeln!(
        table,
        "== {} seed {} ({}): {} ranks; {}",
        w.kind.name(),
        w.seed,
        if args.trace {
            "traced, per-layer"
        } else {
            "end-to-end"
        },
        w.exp.nodes,
        w.scenario.describe()
    );
    let _ = writeln!(
        table,
        "   host: {} cores, commit {}, {}, {} build, shards 1, driver threads 1",
        env.nproc, env.commit, env.rustc, env.profile
    );
    let _ = writeln!(
        table,
        "{:<30} {:>18} {:<6} {:>8}",
        "metric", "value", "unit", "samples"
    );
    let failed_share = ratio(failed as f64, attempted as f64);
    let rows = metrics
        .iter()
        .map(|m| (m.name.as_str(), m.value, m.unit, m.samples))
        .chain([("jobs_failed", failed_share, "share", attempted)]);
    for (name, value, unit, samples) in rows {
        let value = if value != 0.0 && value.abs() < 1e-3 {
            format!("{value:.4e}")
        } else {
            format!("{value:.6}")
        };
        let _ = writeln!(table, "{name:<30} {value:>18} {unit:<6} {samples:>8}");
    }
    print!("{table}");

    let record = Json::obj([
        ("workload", Json::str(w.kind.name())),
        ("seed", Json::UInt(w.seed)),
        ("scenario", Json::str(w.scenario.describe())),
        ("trace", Json::Bool(args.trace)),
        ("seconds", Json::Num(args.seconds)),
        (
            "host",
            Json::obj([
                ("nproc", Json::UInt(env.nproc as u64)),
                ("commit", Json::str(env.commit.clone())),
                ("rustc", Json::str(env.rustc.clone())),
                ("profile", Json::str(env.profile)),
                ("shards", Json::UInt(1)),
                ("threads", Json::UInt(1)),
            ]),
        ),
        ("attempted", Json::UInt(attempted as u64)),
        ("jobs_failed", Json::UInt(failed as u64)),
        (
            "metrics",
            Json::obj(metrics.iter().map(|m| {
                (
                    m.name.as_str(),
                    Json::obj([
                        ("value", Json::Num(m.value)),
                        ("unit", Json::str(m.unit)),
                        ("samples", Json::UInt(m.samples as u64)),
                    ]),
                )
            })),
        ),
    ]);
    println!("{}", Json::obj([("record", record)]));
}
