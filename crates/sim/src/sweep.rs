//! Seeded fault-schedule sweeps: reproducible chaos over the
//! simulated event builder.
//!
//! A sweep seed deterministically expands into a [`Schedule`] of
//! kill/revive, partition/heal, delay and corruption events over the
//! mesh, the schedule replays on a [`SimEvb`], and the invariant is
//! absolute: **zero event loss and full completion, every seed**.
//! Failures carry the seed (and the exact schedule) so a red CI line
//! is a one-command local repro — rerun the seed, get the identical
//! virtual-time interleaving, byte for byte.
//!
//! The schedule generator is built around the recovery machinery's
//! actual detection horizons rather than uniform noise:
//!
//! * kill and partition windows always *outlast* the supervisor's
//!   down-detection time (`interval × down_after`), because a fault
//!   window shorter than detection can eat a `DONE`/`CREDIT` frame
//!   without ever being declared — a loss the protocol has no timer
//!   against. That is a real protocol property, not a test dodge:
//!   production deployments get the same guarantee from TCP
//!   connection resets, which the in-memory fabric does not model.
//! * after every revive/heal the driver raises `evb.rescan=1`, as the
//!   `xdaq-ctl` convergence loop does after a respawn.
//! * corruption only targets `FRAGMENT` frames (see `net.rs`), whose
//!   checksum-verify-and-re-pull path is the recovery under test.
//!
//! [`shrink`] minimizes a failing schedule by greedy delta-debugging:
//! repeatedly drop one fault pair and keep the reduction whenever the
//! failure survives, converging on a locally-minimal repro.

use crate::evb::{EvbOptions, SimEvb, N_BU, N_RU, SUPERVISION};
use crate::trace;
use std::fmt;
use std::time::Duration;

/// xorshift64* — tiny, seedable, and good enough to scatter fault
/// schedules. The stdlib has no seedable RNG and external crates are
/// off the table, so the generator is pinned here; changing it
/// re-keys every seed in CI.
pub struct Rng(u64);

impl Rng {
    /// Seeds the generator (a zero seed is remapped; xorshift is a
    /// fixed point at zero).
    pub fn new(seed: u64) -> Rng {
        Rng(if seed == 0 {
            0x9E37_79B9_7F4A_7C15
        } else {
            seed
        })
    }

    /// Next raw value.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform value in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// One scheduled fault action.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// Blackout of a node.
    Kill(String),
    /// End of a blackout.
    Revive(String),
    /// Sever a node pair.
    Partition(String, String),
    /// Restore a node pair.
    Heal(String, String),
    /// Impose latency on a directed link.
    Delay {
        /// Sending node.
        from: String,
        /// Receiving node.
        to: String,
        /// Imposed latency in microseconds.
        micros: u64,
    },
    /// Clear a directed link's latency.
    ClearDelay {
        /// Sending node.
        from: String,
        /// Receiving node.
        to: String,
    },
    /// Corrupt the next `n` fragments on a directed link.
    Corrupt {
        /// Sending node.
        from: String,
        /// Receiving node.
        to: String,
        /// Fragments to corrupt.
        n: u32,
    },
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultKind::Kill(n) => write!(f, "kill {n}"),
            FaultKind::Revive(n) => write!(f, "revive {n}"),
            FaultKind::Partition(a, b) => write!(f, "partition {a}|{b}"),
            FaultKind::Heal(a, b) => write!(f, "heal {a}|{b}"),
            FaultKind::Delay { from, to, micros } => {
                write!(f, "delay {from}->{to} {micros}us")
            }
            FaultKind::ClearDelay { from, to } => write!(f, "clear-delay {from}->{to}"),
            FaultKind::Corrupt { from, to, n } => write!(f, "corrupt {from}->{to} x{n}"),
        }
    }
}

/// A fault at a virtual-time offset from run start.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Fault {
    /// Offset from the start of the run.
    pub at: Duration,
    /// What happens.
    pub kind: FaultKind,
}

/// A seed plus its expanded fault list (sorted by time).
#[derive(Clone, Debug)]
pub struct Schedule {
    /// The generating seed.
    pub seed: u64,
    /// Time-ordered faults.
    pub faults: Vec<Fault>,
}

/// Outcome of one schedule replay.
#[derive(Debug, Clone)]
pub struct Report {
    /// The seed that was replayed.
    pub seed: u64,
    /// Events built.
    pub completed: u64,
    /// Events lost (must be zero).
    pub lost: u64,
    /// Distinct events seen by the filter.
    pub distinct: u64,
    /// Fragments the fabric corrupted.
    pub corrupted: u64,
    /// Virtual time the run took.
    pub virtual_elapsed: Duration,
    /// The golden trace of the run.
    pub trace: Vec<String>,
}

/// A failed replay: which seed, why, and the schedule to replay.
#[derive(Debug, Clone)]
pub struct SweepFailure {
    /// The failing seed.
    pub seed: u64,
    /// Human-readable cause.
    pub cause: String,
    /// The schedule that produced the failure.
    pub schedule: Vec<Fault>,
}

impl fmt::Display for SweepFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "sweep seed {} failed: {} — replay with run_seed({}, ..); schedule:",
            self.seed, self.cause, self.seed
        )?;
        for fault in &self.schedule {
            writeln!(f, "  t+{:>7}us {}", fault.at.as_micros(), fault.kind)?;
        }
        Ok(())
    }
}

impl std::error::Error for SweepFailure {}

/// Expands a seed into a fault schedule over the simulated mesh.
/// Windowed faults (kill, partition, delay) always emit their
/// closing action; windows affecting builders outlast the
/// supervisor's detection horizon (see module docs).
pub fn generate(seed: u64) -> Schedule {
    let mut rng = Rng::new(seed);
    let detect = SUPERVISION.interval * SUPERVISION.down_after + SUPERVISION.interval * 2;
    let detect_ms = detect.as_millis() as u64;
    let ru = |rng: &mut Rng| format!("ru{}", rng.below(N_RU as u64));
    let bu = |rng: &mut Rng| format!("bu{}", rng.below(N_BU as u64));
    let mut faults = Vec::new();
    let episodes = 2 + rng.below(4);
    for _ in 0..episodes {
        let at = Duration::from_millis(5 + rng.below(350));
        match rng.below(4) {
            0 => {
                // Kill a readout or builder; never the host (the EVM
                // has no failover — killing it ends the experiment
                // rather than exercising recovery).
                let node = if rng.below(2) == 0 {
                    ru(&mut rng)
                } else {
                    bu(&mut rng)
                };
                let window = Duration::from_millis(detect_ms + 20 + rng.below(150));
                faults.push(Fault {
                    at,
                    kind: FaultKind::Kill(node.clone()),
                });
                faults.push(Fault {
                    at: at + window,
                    kind: FaultKind::Revive(node),
                });
            }
            1 => {
                let (a, b) = match rng.below(3) {
                    0 => ("host".to_string(), bu(&mut rng)),
                    1 => ("host".to_string(), ru(&mut rng)),
                    _ => (ru(&mut rng), bu(&mut rng)),
                };
                let window = Duration::from_millis(detect_ms + 40 + rng.below(150));
                faults.push(Fault {
                    at,
                    kind: FaultKind::Partition(a.clone(), b.clone()),
                });
                faults.push(Fault {
                    at: at + window,
                    kind: FaultKind::Heal(a, b),
                });
            }
            2 => {
                let (from, to) = match rng.below(3) {
                    0 => ("host".to_string(), bu(&mut rng)),
                    1 => (bu(&mut rng), "host".to_string()),
                    _ => (ru(&mut rng), bu(&mut rng)),
                };
                let micros = 500 + rng.below(10_000);
                let window = Duration::from_millis(20 + rng.below(150));
                faults.push(Fault {
                    at,
                    kind: FaultKind::Delay {
                        from: from.clone(),
                        to: to.clone(),
                        micros,
                    },
                });
                faults.push(Fault {
                    at: at + window,
                    kind: FaultKind::ClearDelay { from, to },
                });
            }
            _ => {
                faults.push(Fault {
                    at,
                    kind: FaultKind::Corrupt {
                        from: ru(&mut rng),
                        to: bu(&mut rng),
                        n: 1 + rng.below(3) as u32,
                    },
                });
            }
        }
    }
    faults.sort_by_key(|f| f.at);
    Schedule { seed, faults }
}

fn apply(evb: &SimEvb, fault: &FaultKind) {
    let net = evb.cluster.net();
    match fault {
        FaultKind::Kill(n) => net.kill(n),
        FaultKind::Revive(n) => net.revive(n),
        FaultKind::Partition(a, b) => net.partition(a, b),
        FaultKind::Heal(a, b) => net.heal(a, b),
        FaultKind::Delay { from, to, micros } => {
            net.set_delay(from, to, Duration::from_micros(*micros))
        }
        FaultKind::ClearDelay { from, to } => net.set_delay(from, to, Duration::ZERO),
        FaultKind::Corrupt { from, to, n } => net.corrupt_next(from, to, *n),
    }
}

/// Replays `schedule` against a fresh mesh for a `target`-event run
/// and checks the zero-loss invariant.
pub fn run_schedule(
    schedule: &Schedule,
    opts: &EvbOptions,
    target: u64,
) -> Result<Report, SweepFailure> {
    let fail = |cause: String| SweepFailure {
        seed: schedule.seed,
        cause,
        schedule: schedule.faults.clone(),
    };
    let evb = SimEvb::new(opts.clone());
    let t0 = evb.cluster.vclock().now();
    evb.start_run(target);
    for fault in &schedule.faults {
        evb.cluster.run_to(t0 + fault.at);
        evb.log
            .push(evb.cluster.elapsed(), &format!("fault {}", fault.kind));
        apply(&evb, &fault.kind);
        if matches!(fault.kind, FaultKind::Revive(_) | FaultKind::Heal(..)) {
            evb.rescan();
        }
    }
    // Every generator window has closed; shrunk schedules may have
    // lost a closing action, so lift anything still standing (no-op —
    // and no trace line — on a well-formed schedule).
    if evb.cluster.net().restore_all() {
        evb.log.push(evb.cluster.elapsed(), "restore-all");
        evb.rescan();
    }
    if let Err(e) = evb
        .cluster
        .run_until(|| evb.run_done(), Duration::from_secs(120))
    {
        return Err(fail(format!(
            "{e} (completed {} of {target}, lost {})",
            evb.completed(),
            evb.lost()
        )));
    }
    let report = Report {
        seed: schedule.seed,
        completed: evb.completed(),
        lost: evb.lost(),
        distinct: evb.distinct_events(),
        corrupted: evb.cluster.net().corrupted(),
        virtual_elapsed: evb.cluster.elapsed(),
        trace: Vec::new(),
    };
    if report.lost != 0 {
        return Err(fail(format!("{} events lost", report.lost)));
    }
    if report.completed != target {
        return Err(fail(format!("completed {} of {target}", report.completed)));
    }
    // The filter may still be digesting the final EVENT frames.
    let _ = evb
        .cluster
        .run_until(|| evb.distinct_events() == target, Duration::from_secs(1));
    if evb.distinct_events() != target {
        return Err(fail(format!(
            "filter saw {} distinct events of {target}",
            evb.distinct_events()
        )));
    }
    evb.log.push(
        evb.cluster.elapsed(),
        &format!(
            "run done completed={} lost=0 corrupted={}",
            report.completed, report.corrupted
        ),
    );
    Ok(Report {
        distinct: evb.distinct_events(),
        trace: evb.log.lines(),
        ..report
    })
}

/// Generates and replays one seed.
pub fn run_seed(seed: u64, opts: &EvbOptions, target: u64) -> Result<Report, SweepFailure> {
    run_schedule(&generate(seed), opts, target)
}

/// Replays `seeds` in order, failing on the first violated seed (the
/// failure prints the seed and its schedule for replay).
pub fn sweep(
    seeds: impl IntoIterator<Item = u64>,
    opts: &EvbOptions,
    target: u64,
) -> Result<Vec<Report>, SweepFailure> {
    seeds
        .into_iter()
        .map(|seed| run_seed(seed, opts, target))
        .collect()
}

/// The golden trace of one seed: the run's decision log in `XREC`
/// framing. Deterministic — two calls return identical bytes.
pub fn golden_trace(seed: u64, opts: &EvbOptions, target: u64) -> Result<Vec<u8>, SweepFailure> {
    let report = run_seed(seed, opts, target)?;
    Ok(trace::encode(seed, &report.trace))
}

/// Greedy delta-debugging: drops one fault at a time (windowed faults
/// drop together with their closing action) and keeps any reduction
/// that still fails, until no single removal preserves the failure.
/// Returns the minimized schedule and the failure it produces.
pub fn shrink(
    schedule: &Schedule,
    opts: &EvbOptions,
    target: u64,
) -> Option<(Schedule, SweepFailure)> {
    let mut current = schedule.clone();
    let mut failure = match run_schedule(&current, opts, target) {
        Ok(_) => return None,
        Err(f) => f,
    };
    'outer: loop {
        for i in 0..current.faults.len() {
            let mut candidate = current.clone();
            let removed = candidate.faults.remove(i);
            // A window's opener and closer travel together: dropping a
            // Kill but keeping its Revive (or vice versa) explores
            // schedules the generator can never emit.
            candidate.faults.retain(|f| !paired(&removed.kind, &f.kind));
            if let Err(f) = run_schedule(&candidate, opts, target) {
                current = candidate;
                failure = f;
                continue 'outer;
            }
        }
        return Some((current, failure));
    }
}

#[cfg(test)]
fn closing_of(kind: &FaultKind) -> Option<FaultKind> {
    match kind {
        FaultKind::Kill(n) => Some(FaultKind::Revive(n.clone())),
        FaultKind::Partition(a, b) => Some(FaultKind::Heal(a.clone(), b.clone())),
        FaultKind::Delay { from, to, .. } => Some(FaultKind::ClearDelay {
            from: from.clone(),
            to: to.clone(),
        }),
        _ => None,
    }
}

/// True when `a` and `b` open/close the same fault window.
fn paired(a: &FaultKind, b: &FaultKind) -> bool {
    use FaultKind::*;
    match (a, b) {
        (Kill(x), Revive(y)) | (Revive(x), Kill(y)) => x == y,
        (Partition(a1, a2), Heal(b1, b2)) | (Heal(a1, a2), Partition(b1, b2)) => {
            a1 == b1 && a2 == b2
        }
        (
            Delay {
                from: f1, to: t1, ..
            },
            ClearDelay { from: f2, to: t2 },
        )
        | (
            ClearDelay { from: f1, to: t1 },
            Delay {
                from: f2, to: t2, ..
            },
        ) => f1 == f2 && t1 == t2,
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedules_are_pure_functions_of_the_seed() {
        for seed in [0, 1, 7, 0xDEAD_BEEF] {
            assert_eq!(generate(seed).faults, generate(seed).faults);
        }
        assert_ne!(
            generate(1).faults,
            generate(2).faults,
            "different seeds should scatter differently"
        );
    }

    #[test]
    fn every_window_closes() {
        for seed in 0..50 {
            let s = generate(seed);
            for f in &s.faults {
                if let Some(closer) = closing_of(&f.kind) {
                    assert!(
                        s.faults.iter().any(|g| g.kind == closer && g.at > f.at),
                        "seed {seed}: {} never closes",
                        f.kind
                    );
                }
            }
        }
    }
}
