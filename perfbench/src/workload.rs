//! The four benchmark workloads, generated from a seed.
//!
//! A seed picks only the scenario details a real cluster would vary —
//! which node gets loaded and when, how many competing processes, the
//! CG matrix, the crash instant and victim — inside ranges narrow enough
//! that every seed exercises the same mechanisms. The program receives
//! only the generated [`Experiment`].

use dynmpi::{DropPolicy, DynMpiConfig, RuntimeEvent};
use dynmpi_apps::cg::CgParams;
use dynmpi_apps::jacobi::JacobiParams;
use dynmpi_apps::sor::SorParams;
use dynmpi_apps::{AppSpec, Experiment};
use dynmpi_sim::{LoadScript, NodeSpec, SimTime};

/// Which workload to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Red-Black SOR 512², 32 ranks: engine-bound (turn handoffs).
    ManyRanksSor,
    /// Jacobi 2048², 4 ranks, real kernel: kernel- and redistribution-bound.
    BigRowsJacobi,
    /// Sparse CG, 8 ranks, with every observability sink subscribed.
    ObservedCg,
    /// Jacobi with failure detection, buddy checkpoints and a fail-stop crash.
    CrashRecoveryJacobi,
}

impl Kind {
    pub const ALL: [Kind; 4] = [
        Kind::ManyRanksSor,
        Kind::BigRowsJacobi,
        Kind::ObservedCg,
        Kind::CrashRecoveryJacobi,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::ManyRanksSor => "many_ranks_sor",
            Kind::BigRowsJacobi => "big_rows_jacobi",
            Kind::ObservedCg => "observed_cg",
            Kind::CrashRecoveryJacobi => "crash_recovery_jacobi",
        }
    }

    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// The mechanisms (see [`mechanisms`]) every job of this workload must
    /// show; the scenario ranges are chosen so that every seed fires them.
    pub fn required(self) -> &'static [&'static str] {
        match self {
            Kind::ManyRanksSor | Kind::BigRowsJacobi => &["redistributed"],
            Kind::ObservedCg => &["nodes-dropped", "redistributed"],
            Kind::CrashRecoveryJacobi => &["node-confirmed-dead", "node-recovered"],
        }
    }
}

/// The seed-dependent choices, recorded with every result.
#[derive(Clone, Debug, PartialEq)]
pub enum Scenario {
    /// `ncp` competing processes start on `node` at phase cycle `cycle`.
    Load { node: usize, cycle: u64, ncp: u32 },
    /// `node` fail-stops at virtual second `at_s`.
    Crash { node: usize, at_s: f64 },
}

/// One generated workload: the experiment the program runs plus what the
/// correctness gate needs to know about it.
#[derive(Clone, Debug)]
pub struct Workload {
    pub kind: Kind,
    pub seed: u64,
    pub scenario: Scenario,
    pub exp: Experiment,
    /// Phase cycles the application asks for (rollback replays extra).
    pub iters: usize,
    /// Subscribe the recorder, health monitor and explain engine, and
    /// build their reports after the run.
    pub observed: bool,
}

/// SplitMix64: the seed → scenario mapping is bit-identical everywhere.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    fn pick(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next() % (hi - lo + 1)
    }
}

impl Workload {
    pub fn generate(kind: Kind, seed: u64) -> Workload {
        // Mix the workload into the stream so seed 1 of two workloads
        // does not draw the same numbers.
        let mut rng = Rng(seed ^ (kind as u64).wrapping_mul(0xA24B_AED4_963E_E407));
        match kind {
            Kind::ManyRanksSor => {
                let nodes = 32;
                // With 70 cycles or fewer, too few remain after the load
                // change to repay a redistribution, and none happens.
                let iters = 90;
                // Not the root: a loaded root gets dropped, a different
                // mechanism with a 60% longer makespan.
                let scenario = Scenario::Load {
                    node: rng.pick(1, nodes as u64 - 1) as usize,
                    cycle: rng.pick(8, 12),
                    ncp: 2,
                };
                let app = AppSpec::Sor(SorParams {
                    n: 512,
                    iters,
                    omega: 1.5,
                    exercise_kernel: true,
                });
                let exp = Experiment::new(app, nodes)
                    .with_node_spec(NodeSpec::with_speed(20e6))
                    .with_script(scenario.script());
                Workload::new(kind, seed, scenario, exp, iters, false)
            }
            Kind::BigRowsJacobi => {
                let nodes = 4;
                let iters = 60;
                // An interior node with two competing processes: three
                // get it dropped, and a loaded root or edge rank moves the
                // makespan by up to 15%.
                let scenario = Scenario::Load {
                    node: rng.pick(1, 2) as usize,
                    cycle: rng.pick(8, 12),
                    ncp: 2,
                };
                let app = AppSpec::Jacobi(JacobiParams {
                    n: 2048,
                    iters,
                    exercise_kernel: true,
                    rebalance_at: None,
                });
                let exp = Experiment::new(app, nodes)
                    .with_node_spec(NodeSpec::with_speed(2e8))
                    .with_script(scenario.script());
                Workload::new(kind, seed, scenario, exp, iters, false)
            }
            Kind::ObservedCg => {
                let nodes = 8;
                let iters = 100;
                // Upper ranks with two competing processes: a third
                // process or a lower rank moves the makespan by up to 17%.
                let scenario = Scenario::Load {
                    node: rng.pick(5, 7) as usize,
                    cycle: rng.pick(8, 12),
                    ncp: 2,
                };
                let app = AppSpec::Cg(CgParams {
                    n: 1400,
                    offdiag_per_row: 24,
                    iters,
                    seed: rng.next(),
                });
                // Slow enough nodes that the loaded one's compute rate
                // visibly collapses: at 2e7 no straggler alert is raised.
                let exp = Experiment::new(app, nodes)
                    .with_node_spec(NodeSpec::with_speed(5e6))
                    .with_cfg(DynMpiConfig {
                        drop_policy: DropPolicy::Always,
                        ..Default::default()
                    })
                    .with_script(scenario.script());
                Workload::new(kind, seed, scenario, exp, iters, true)
            }
            Kind::CrashRecoveryJacobi => {
                let nodes = 4;
                let iters = 200;
                // A mid-ring victim: never the root and never the last
                // rank (both out of the fault model, DESIGN.md §14).
                // The crash instant stays inside one checkpoint interval
                // (2.240–2.310 s), where the replay depth and so the
                // makespan do not depend on it; across intervals the
                // makespan swings by 20%.
                let scenario = Scenario::Crash {
                    node: rng.pick(1, nodes as u64 - 2) as usize,
                    at_s: rng.pick(2240, 2310) as f64 / 1000.0,
                };
                let app = AppSpec::Jacobi(JacobiParams {
                    n: 512,
                    iters,
                    exercise_kernel: true,
                    rebalance_at: None,
                });
                let exp = Experiment::new(app, nodes)
                    .with_node_spec(NodeSpec::ultra5_360())
                    .with_cfg(DynMpiConfig {
                        failure_detection: true,
                        peer_timeout_seconds: 0.05,
                        failure_confirm_cycles: 3,
                        checkpoint_interval_cycles: 10,
                        drop_policy: DropPolicy::Always,
                        ..Default::default()
                    })
                    .with_script(scenario.script());
                Workload::new(kind, seed, scenario, exp, iters, false)
            }
        }
    }

    fn new(
        kind: Kind,
        seed: u64,
        scenario: Scenario,
        exp: Experiment,
        iters: usize,
        observed: bool,
    ) -> Workload {
        Workload {
            kind,
            seed,
            scenario,
            exp,
            iters,
            observed,
        }
    }

    /// The same problem on a small dedicated cluster with adaptation off:
    /// the reference answer every job's checksum must reproduce. Red-Black
    /// SOR, Jacobi and CG compute the same values under any row partition,
    /// so only the final reduction's grouping differs.
    pub fn reference(&self) -> Experiment {
        Experiment::new(self.exp.app.clone(), self.exp.nodes.min(4))
            .with_node_spec(self.exp.node_spec)
            .with_cfg(DynMpiConfig::no_adapt())
    }
}

impl Scenario {
    fn script(&self) -> LoadScript {
        match *self {
            Scenario::Load { node, cycle, ncp } => {
                LoadScript::dedicated().at_cycle(node, cycle, ncp)
            }
            Scenario::Crash { node, at_s } => {
                LoadScript::dedicated().node_crash(SimTime::from_secs_f64(at_s), node)
            }
        }
    }

    pub fn describe(&self) -> String {
        match self {
            Scenario::Load { node, cycle, ncp } => {
                format!("{ncp} competing processes on node {node} from cycle {cycle}")
            }
            Scenario::Crash { node, at_s } => format!("node {node} fail-stops at {at_s:.3} s"),
        }
    }
}

/// The adaptation mechanisms (event kinds) a job's events show, sorted.
pub fn mechanisms(events: &[RuntimeEvent]) -> Vec<&'static str> {
    const MECHANISMS: [&str; 4] = [
        "redistributed",
        "nodes-dropped",
        "node-confirmed-dead",
        "node-recovered",
    ];
    let mut seen: Vec<&'static str> = events
        .iter()
        .map(RuntimeEvent::kind)
        .filter(|k| MECHANISMS.contains(k))
        .collect();
    seen.sort_unstable();
    seen.dedup();
    seen
}
