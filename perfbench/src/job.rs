//! One simulated job: the cluster wiring of `harness::run_sim_with`, kept
//! here so the benchmark sees the whole `SimReport`, can swap in the
//! timed transport, and can time the observability calls after the run.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

use dynmpi::{DynMpiConfig, CKPT_BYTES_SENT, CKPT_REFRESHES};
use dynmpi_apps::{cg, jacobi, sor, AppResult, AppSpec, Experiment};
use dynmpi_comm::{HostMeters, SimTransport};
use dynmpi_obs::{ExplainEngine, HealthMonitor, HealthState, Recorder, DEFAULT_WINDOW_NS};
use dynmpi_sim::{Cluster, SimReport};

use crate::host::Usage;
use crate::layers::{RankTrace, TimedTransport, Tracer};

/// What to attach to a job besides the program.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Attach {
    /// Recorder + health monitor + explain engine, and their post-run
    /// reports (profile, health JSONL, explain JSONL, Chrome trace).
    pub observe: bool,
    /// A bare recorder, read only for its merged metric counters.
    pub counters: bool,
    /// Time every transport call.
    pub trace: bool,
}

/// Host seconds of each post-run observability call, and what it produced.
#[derive(Clone, Debug, Default)]
pub struct ObsCost {
    pub output_bytes: u64,
    pub profile_s: f64,
    pub health_report_s: f64,
    pub explain_report_s: f64,
    pub export_s: f64,
    pub straggler_alerts: usize,
    pub decision_cards: usize,
}

/// What a job that ran to completion produced.
#[derive(Clone, Debug)]
pub struct Outputs {
    /// Host seconds inside `Cluster::run_spmd`.
    pub spmd_s: f64,
    pub makespan: f64,
    pub per_rank: Vec<AppResult>,
    pub report: SimReport,
    /// Present when the job was observed.
    pub obs: Option<ObsCost>,
    /// Trace events recorded; counted on traced jobs only, because the
    /// count costs a copy of the whole event log.
    pub trace_events: u64,
    pub ckpt_refreshes: u64,
    pub ckpt_bytes: u64,
    /// Present when the job was traced.
    pub ranks: Vec<RankTrace>,
}

impl Outputs {
    pub fn checksum(&self) -> Option<f64> {
        self.per_rank[0].checksum
    }
}

/// A finished job: host cost plus outputs, or the panic that ended it.
#[derive(Clone, Debug)]
pub struct Job {
    pub attach: Attach,
    pub wall_s: f64,
    pub usage: Usage,
    pub outcome: Result<Outputs, String>,
}

/// Runs `exp` once, on one shard, catching any panic (a rank's panic or
/// an engine deadlock) as the job's failure.
pub fn run(exp: &Experiment, attach: Attach) -> Job {
    let before = Usage::now();
    let start = Instant::now();
    let outcome = catch_unwind(AssertUnwindSafe(|| simulate(exp, attach))).map_err(|e| {
        e.downcast_ref::<String>()
            .cloned()
            .or_else(|| e.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "non-string panic".into())
    });
    let wall_s = start.elapsed().as_secs_f64();
    Job {
        attach,
        wall_s,
        usage: Usage::now().since(before),
        outcome,
    }
}

fn app_run<T: HostMeters>(t: &T, app: &AppSpec, cfg: DynMpiConfig) -> AppResult {
    match app {
        AppSpec::Jacobi(p) => jacobi::run(t, p, cfg),
        AppSpec::Sor(p) => sor::run(t, p, cfg),
        AppSpec::Cg(p) => cg::run(t, p, cfg),
        AppSpec::Particle(_) => unreachable!("no benchmark workload runs the particle code"),
    }
}

fn simulate(exp: &Experiment, attach: Attach) -> Outputs {
    // No workload scripts node arrivals, so the seed-world set-up that
    // `run_sim_with` does for them is not needed.
    assert!(exp.script.arrivals().is_empty());
    let mut cluster = Cluster::homogeneous(exp.nodes, exp.node_spec)
        .with_os(exp.os)
        .with_net(exp.net)
        .with_script(exp.script.clone())
        .with_shards(1);
    if let Some(stepped) = exp.stepped {
        cluster = cluster.with_stepped(stepped);
    }
    let recorder = (attach.observe || attach.counters).then(Recorder::new);
    let mut sinks = None;
    if let Some(rec) = &recorder {
        if attach.observe {
            // Subscribe before the ranks install their scopes.
            let monitor = Arc::new(HealthMonitor::new(DEFAULT_WINDOW_NS));
            let explain = Arc::new(ExplainEngine::new(DEFAULT_WINDOW_NS));
            rec.subscribe(monitor.clone());
            rec.subscribe(explain.clone());
            sinks = Some((monitor, explain));
        }
        cluster = cluster.with_recorder(rec.clone());
    }

    let tracer = Tracer::new();
    let (app, cfg) = (&exp.app, &exp.cfg);
    let spmd = Instant::now();
    let out = cluster.run_spmd(|ctx| {
        let sim = SimTransport::new(ctx);
        if attach.trace {
            app_run(&TimedTransport::new(sim, &tracer), app, cfg.clone())
        } else {
            app_run(&sim, app, cfg.clone())
        }
    });
    let spmd_s = spmd.elapsed().as_secs_f64();

    let mut outputs = Outputs {
        spmd_s,
        makespan: out.report.finish_time.as_secs_f64(),
        per_rank: out.results,
        report: out.report,
        obs: None,
        trace_events: 0,
        ckpt_refreshes: 0,
        ckpt_bytes: 0,
        ranks: tracer.into_ranks(),
    };
    if let Some(rec) = &recorder {
        let merged = rec.merged_metrics();
        outputs.ckpt_refreshes = merged.counter(CKPT_REFRESHES);
        outputs.ckpt_bytes = merged.counter(CKPT_BYTES_SENT);
        if attach.trace {
            outputs.trace_events = rec.events().len() as u64;
        }
    }
    if let (Some(rec), Some((monitor, explain))) = (&recorder, sinks) {
        outputs.obs = Some(post_run_reports(rec, &monitor, &explain));
    }
    outputs
}

/// The post-run work of an observed figure run (`Instrumentation::finish`
/// with the trace, health and explain outputs requested), each call
/// timed, the outputs built in memory instead of written.
fn post_run_reports(rec: &Recorder, monitor: &HealthMonitor, explain: &ExplainEngine) -> ObsCost {
    let t = Instant::now();
    let profile = rec.profile();
    let profile_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let health = monitor.report();
    let health_jsonl = health.to_jsonl();
    let health_report_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let audit = explain.report();
    let explain_jsonl = audit.to_jsonl(&profile.blame);
    let explain_report_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let chrome = rec.chrome_trace();
    let export_s = t.elapsed().as_secs_f64();

    ObsCost {
        output_bytes: (health_jsonl.len() + explain_jsonl.len() + chrome.len()) as u64,
        profile_s,
        health_report_s,
        explain_report_s,
        export_s,
        straggler_alerts: health
            .alerts()
            .iter()
            .filter(|a| a.state == HealthState::Straggler)
            .count(),
        decision_cards: audit.cards.len(),
    }
}
