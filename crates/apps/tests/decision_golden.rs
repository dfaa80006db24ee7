//! Decision goldens: four small simulated scenarios — a forced drop, a
//! drop → clear → rejoin arc, an arrival admission and a mid-ring crash
//! recovery — each pinned to its exact virtual finish time (integer ns),
//! its message total and the ordered `(cycle, kind)` list of rank 0's
//! adaptation events.
//!
//! The equivalence suites compare engine modes and shard counts within
//! one build; these values pin the replicated decisions *across* changes
//! to the runtime. A refactor of the control plane or of any membership
//! transition must leave every scenario exactly as recorded here: one
//! reordered send, collective or decision shifts the virtual timeline.

use dynmpi::{DropPolicy, DynMpiConfig};
use dynmpi_apps::harness::run_sim;
use dynmpi_apps::jacobi::JacobiParams;
use dynmpi_apps::{AppSpec, Experiment};
use dynmpi_sim::{LoadScript, NodeSpec, SimDur, SimTime};

/// What a scenario is pinned to.
struct Golden {
    finish_ns: u64,
    net_messages: u64,
    events: &'static [(u64, &'static str)],
}

fn jacobi(p: JacobiParams, nodes: usize, script: LoadScript, cfg: DynMpiConfig) -> Experiment {
    Experiment::new(AppSpec::Jacobi(p), nodes)
        .with_node_spec(NodeSpec::with_speed(1e6))
        .with_script(script)
        .with_cfg(cfg)
}

fn assert_golden(name: &str, exp: &Experiment, want: &Golden) {
    let out = run_sim(exp);
    let finish_ns = (out.makespan * 1e9).round() as u64;
    let events: Vec<(u64, &str)> = out.events().iter().map(|e| (e.cycle(), e.kind())).collect();
    assert_eq!(
        (finish_ns, out.net_messages, events.as_slice()),
        (want.finish_ns, want.net_messages, want.events),
        "{name}: decisions or virtual timeline changed"
    );
}

#[test]
fn always_drop_is_pinned() {
    let cfg = DynMpiConfig {
        drop_policy: DropPolicy::Always,
        ..Default::default()
    };
    let script = LoadScript::dedicated().at_cycle(3, 8, 2);
    let exp = jacobi(JacobiParams::small(48, 60), 4, script, cfg);
    assert_golden(
        "always-drop",
        &exp,
        &Golden {
            finish_ns: 1_855_534_013,
            net_messages: 748,
            events: &[
                (33, "load-change"),
                (38, "grace-complete"),
                (38, "redistributed"),
                (51, "drop-evaluated"),
                (51, "nodes-dropped"),
            ],
        },
    );
}

#[test]
fn drop_then_rejoin_is_pinned() {
    let cfg = DynMpiConfig {
        drop_policy: DropPolicy::Always,
        allow_rejoin: true,
        rejoin_after_cycles: 3,
        grace_period: 2,
        post_redist_period: 2,
        ..Default::default()
    };
    let script = LoadScript::dedicated().at_cycle(2, 8, 2).at_cycle(2, 30, 0);
    let exp = jacobi(JacobiParams::small(48, 100), 3, script, cfg);
    assert_golden(
        "rejoin",
        &exp,
        &Golden {
            finish_ns: 2_480_518_739,
            net_messages: 724,
            events: &[
                (30, "load-change"),
                (32, "grace-complete"),
                (32, "redistributed"),
                (37, "drop-evaluated"),
                (37, "nodes-dropped"),
                (79, "node-rejoined"),
            ],
        },
    );
}

#[test]
fn arrival_admit_is_pinned() {
    let cfg = DynMpiConfig {
        arrival_retry_cycles: 4,
        ..Default::default()
    };
    let script = LoadScript::dedicated().node_arrival(
        SimTime::from_millis(60),
        NodeSpec::with_speed(1e6),
        SimDur::from_millis(20),
    );
    let exp = jacobi(JacobiParams::small(48, 60), 2, script, cfg);
    assert_golden(
        "arrival-admit",
        &exp,
        &Golden {
            finish_ns: 1_148_890_911,
            net_messages: 459,
            events: &[
                (8, "node-arrived"),
                (13, "grace-complete"),
                (13, "expand-evaluated"),
                (13, "node-admitted"),
            ],
        },
    );
}

#[test]
fn mid_ring_crash_recovery_is_pinned() {
    let cfg = DynMpiConfig {
        failure_detection: true,
        peer_timeout_seconds: 0.05,
        failure_confirm_cycles: 2,
        checkpoint_interval_cycles: 5,
        drop_policy: DropPolicy::Never,
        ..Default::default()
    };
    let script = LoadScript::dedicated().node_crash(SimTime::from_millis(CRASH_MS), 2);
    let exp = jacobi(JacobiParams::small(48, 60), 4, script, cfg);
    assert_golden(
        "crash-recovery",
        &exp,
        &Golden {
            finish_ns: 2_071_343_373,
            net_messages: 771,
            events: &[
                (27, "node-suspected"),
                (28, "node-suspected"),
                (28, "node-confirmed-dead"),
                (28, "node-recovered"),
            ],
        },
    );
}

/// Crash instant of the mid-ring scenario: about 40 % through the
/// crash-free makespan, past the baseline checkpoint.
const CRASH_MS: u64 = 550;
