//! # dynmpi-perfbench — the repository benchmark
//!
//! Runs seeded workloads on the simulated cluster and reports what a
//! user of the reproduction pays for one simulated job: host wall time,
//! host CPU (every rank thread included), peak memory, set-up time, and
//! the job's own virtual makespan. A traced run splits the host time by
//! layer from outside the program, at the transport boundary
//! ([`layers`]). See `README.md` beside this crate for the workloads and
//! what each metric is expected to move.

pub mod host;
pub mod job;
pub mod layers;
pub mod workload;

use job::Outputs;
use workload::{Kind, Scenario, Workload};

/// The correctness gate for one finished job: its checksum reproduces the
/// static reference, and the mechanisms the workload exists to exercise
/// fired. `reference` is the reference run's checksum.
pub fn check(w: &Workload, out: &Outputs, reference: f64) -> Result<(), String> {
    let Some(sum) = out.checksum() else {
        return Err("no checksum".into());
    };
    // fig9's tolerance: the final reduction regroups across partitions.
    if (sum - reference).abs() > 1e-12 * reference.abs().max(1.0) {
        return Err(format!(
            "checksum {sum:e} differs from reference {reference:e}"
        ));
    }
    let fired = workload::mechanisms(&out.per_rank[0].events);
    for m in w.kind.required() {
        if !fired.contains(m) {
            return Err(format!("mechanism {m} did not fire (saw {fired:?})"));
        }
    }
    if let Scenario::Crash { node, .. } = w.scenario {
        if !out.report.procs[node].crashed || out.per_rank[node].participating {
            return Err(format!("node {node} was scripted to crash but did not"));
        }
    }
    if w.kind == Kind::ObservedCg {
        if let Some(obs) = &out.obs {
            if obs.straggler_alerts == 0 || obs.decision_cards == 0 {
                return Err(format!(
                    "observed run lacks a straggler alert ({}) or a decision card ({})",
                    obs.straggler_alerts, obs.decision_cards
                ));
            }
        }
    }
    Ok(())
}

/// The virtual outputs a host-only change (or the tracing wrapper) must
/// leave bit-identical: makespan, network totals and checksum.
pub fn virtual_outputs(out: &Outputs) -> (u64, u64, u64, Option<u64>) {
    (
        out.makespan.to_bits(),
        out.report.net_messages,
        out.report.net_bytes,
        out.checksum().map(f64::to_bits),
    )
}

/// Median of `xs` (mean of the middle two for an even count).
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Linear-interpolated quantile `q` in `0..=1` of `xs`; 0 when empty.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}
