//! Sweep-level guarantees: reproducibility, zero loss at scale, and
//! schedule minimization.
//!
//! * `same_seed_replays_bit_for_bit` — the golden-trace property: one
//!   seed, two fresh clusters, identical `XREC` bytes.
//! * `hundred_seed_sweep_loses_nothing` — the headline invariant: 100
//!   seeded kill/partition/delay/corrupt schedules over the 5-node
//!   mesh, every event built, every seed, in seconds of wall time.
//! * `shrink_reduces_to_the_single_guilty_fault` — delta-debugging a
//!   deliberately failing configuration down to a one-fault repro.

use std::time::{Duration, Instant};
use xdaq_sim::sweep::{self, Fault, FaultKind, Schedule};
use xdaq_sim::{trace, EvbOptions};

#[test]
fn same_seed_replays_bit_for_bit() {
    let opts = EvbOptions::default();
    let first = sweep::golden_trace(0xC1A0, &opts, 40).expect("seed must pass");
    let second = sweep::golden_trace(0xC1A0, &opts, 40).expect("seed must pass");
    assert_eq!(
        first, second,
        "identical seeds must replay to identical traces"
    );
    let (seed, lines) = trace::decode(&first).expect("trace must decode");
    assert_eq!(seed, 0xC1A0);
    // The trace carries the whole story: every event completion, every
    // fault injection, the final accounting line.
    assert!(lines.len() > 40, "trace too thin: {} lines", lines.len());
    assert!(lines.iter().any(|l| l.contains("fault ")));
    assert!(lines
        .last()
        .unwrap()
        .contains("run done completed=40 lost=0"));
}

#[test]
fn different_seeds_scatter_differently() {
    let opts = EvbOptions::default();
    let a = sweep::run_seed(3, &opts, 30).expect("seed 3");
    let b = sweep::run_seed(4, &opts, 30).expect("seed 4");
    assert_ne!(a.trace, b.trace, "seeds 3 and 4 produced identical runs");
}

#[test]
fn hundred_seed_sweep_loses_nothing() {
    let opts = EvbOptions::default();
    let wall = Instant::now();
    let reports = match sweep::sweep(0..100, &opts, 30) {
        Ok(r) => r,
        Err(f) => panic!("{f}"),
    };
    let wall = wall.elapsed();
    assert_eq!(reports.len(), 100);
    for r in &reports {
        assert_eq!(r.lost, 0, "seed {} lost events", r.seed);
        assert_eq!(r.completed, 30, "seed {} incomplete", r.seed);
        assert_eq!(r.distinct, 30, "seed {} missed the filter", r.seed);
    }
    // The schedules really exercised the fault paths.
    let corrupted: u64 = reports.iter().map(|r| r.corrupted).sum();
    assert!(corrupted > 0, "no schedule ever corrupted a fragment");
    let virt: Duration = reports.iter().map(|r| r.virtual_elapsed).sum();
    println!(
        "sweep: 100 seeds, {:.1}s virtual in {:.2}s wall ({:.0} schedules/s)",
        virt.as_secs_f64(),
        wall.as_secs_f64(),
        100.0 / wall.as_secs_f64().max(1e-9),
    );
    // The acceptance bar is <10 s; leave headroom for slow CI but
    // catch a collapse into wall-clock sleeping outright.
    assert!(
        wall < Duration::from_secs(60),
        "sweep took {wall:?} — virtual time is leaking into wall time"
    );
}

/// A mesh tuned so one corrupted fragment is fatal: no re-pull
/// retries, no reassignment budget. The shrinker must strip the two
/// decoy faults and keep the corruption.
#[test]
fn shrink_reduces_to_the_single_guilty_fault() {
    let opts = EvbOptions {
        bu_max_retries: 0,
        max_reassign: 0,
    };
    let schedule = Schedule {
        seed: 99,
        faults: vec![
            Fault {
                at: Duration::from_millis(2),
                kind: FaultKind::Delay {
                    from: "host".into(),
                    to: "bu1".into(),
                    micros: 1_000,
                },
            },
            Fault {
                at: Duration::from_millis(4),
                kind: FaultKind::Corrupt {
                    from: "ru0".into(),
                    to: "bu0".into(),
                    n: 1,
                },
            },
            Fault {
                at: Duration::from_millis(40),
                kind: FaultKind::ClearDelay {
                    from: "host".into(),
                    to: "bu1".into(),
                },
            },
        ],
    };
    let (minimal, failure) =
        sweep::shrink(&schedule, &opts, 20).expect("schedule must fail under zero budgets");
    assert_eq!(
        minimal.faults.len(),
        1,
        "decoys survived shrinking: {:?}",
        minimal.faults
    );
    assert!(
        matches!(minimal.faults[0].kind, FaultKind::Corrupt { .. }),
        "wrong culprit: {:?}",
        minimal.faults[0].kind
    );
    assert!(failure.cause.contains("lost"), "cause: {}", failure.cause);
    // The failure message is the repro recipe: seed plus schedule.
    let shown = failure.to_string();
    assert!(shown.contains("seed 99"), "{shown}");
    assert!(shown.contains("corrupt ru0->bu0"), "{shown}");
}
