//! The benchmark measures the program it claims to measure: its own
//! cluster wiring reproduces `harness::run_sim_with`, the timing wrapper
//! perturbs no virtual output, and every seed fires the mechanisms its
//! workload was chosen for.
//!
//! Full-size workloads: run with `cargo test --release`.

use dynmpi_apps::harness::run_sim_with;
use dynmpi_obs::Recorder;
use dynmpi_perfbench::job::{self, Attach, Outputs};
use dynmpi_perfbench::workload::{mechanisms, Kind, Workload};
use dynmpi_perfbench::{check, virtual_outputs};

fn outputs(w: &Workload, attach: Attach) -> Outputs {
    job::run(&w.exp, attach)
        .outcome
        .unwrap_or_else(|e| panic!("{} panicked: {e}", w.kind.name()))
}

fn reference(w: &Workload) -> f64 {
    job::run(&w.reference(), Attach::default())
        .outcome
        .expect("reference run")
        .checksum()
        .expect("reference checksum")
}

fn e2e(w: &Workload) -> Attach {
    Attach {
        observe: w.observed,
        ..Attach::default()
    }
}

#[test]
fn wiring_matches_harness() {
    for kind in Kind::ALL {
        let w = Workload::generate(kind, 1);
        let ours = outputs(&w, e2e(&w));
        let theirs = run_sim_with(&w.exp, w.observed.then(Recorder::new));
        assert_eq!(
            ours.makespan.to_bits(),
            theirs.makespan.to_bits(),
            "{}: makespan",
            kind.name()
        );
        assert_eq!(
            ours.checksum().map(f64::to_bits),
            theirs.checksum().map(f64::to_bits),
            "{}: checksum",
            kind.name()
        );
        assert_eq!(ours.report.net_messages, theirs.net_messages);
        assert_eq!(ours.report.net_bytes, theirs.net_bytes);
    }
}

#[test]
fn tracing_perturbs_no_virtual_output() {
    for kind in Kind::ALL {
        let w = Workload::generate(kind, 1);
        let plain = outputs(&w, e2e(&w));
        let traced = outputs(
            &w,
            Attach {
                counters: kind == Kind::CrashRecoveryJacobi,
                trace: true,
                ..e2e(&w)
            },
        );
        assert_eq!(
            virtual_outputs(&plain),
            virtual_outputs(&traced),
            "{}: traced run diverged",
            kind.name()
        );
        // Every rank handed its trace over, the crashed one included.
        assert_eq!(traced.ranks.len(), w.exp.nodes, "{}", kind.name());
        assert!(traced.ranks.iter().all(|r| !r.spans.is_empty()));
    }
}

#[test]
fn every_seed_fires_the_same_mechanisms() {
    for kind in Kind::ALL {
        let (a, b) = (Workload::generate(kind, 1), Workload::generate(kind, 2));
        assert_ne!(a.scenario, b.scenario, "{}: seeds must differ", kind.name());
        let (oa, ob) = (outputs(&a, e2e(&a)), outputs(&b, e2e(&b)));
        check(&a, &oa, reference(&a)).unwrap_or_else(|e| panic!("{} seed 1: {e}", kind.name()));
        check(&b, &ob, reference(&b)).unwrap_or_else(|e| panic!("{} seed 2: {e}", kind.name()));
        assert_eq!(
            mechanisms(&oa.per_rank[0].events),
            mechanisms(&ob.per_rank[0].events),
            "{}: workload shape differs between seeds",
            kind.name()
        );
    }
}

#[test]
fn same_seed_same_workload() {
    for kind in Kind::ALL {
        let (a, b) = (Workload::generate(kind, 7), Workload::generate(kind, 7));
        assert_eq!(a.scenario, b.scenario);
        assert_eq!(format!("{:?}", a.exp), format!("{:?}", b.exp));
    }
}
