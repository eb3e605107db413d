//! # xdaq-sim — deterministic cluster simulation
//!
//! Runs whole multi-node xdaq clusters inside one thread on one
//! virtual clock, FoundationDB-style: every executive, timer wheel,
//! heartbeat schedule and re-pull timeout reads time from a shared
//! [`xdaq_core::VirtualClock`], frames cross an in-memory `sim://`
//! fabric with deterministic delivery order, and the drive loop
//! advances time *only when the cluster is quiescent* — jumping
//! straight to the next armed deadline instead of sleeping through
//! it. A second of simulated heartbeats costs microseconds of wall
//! time, and the same seed replays the same run bit for bit.
//!
//! The pieces (DESIGN.md §16):
//!
//! * [`SimNet`] / [`SimPt`] — the fabric: per-node mailboxes plus
//!   schedulable kill/partition/delay/corruption faults.
//! * [`SimCluster`] — N executives, one clock, the
//!   pump-to-quiescence / jump-to-deadline loop.
//! * [`SimEvb`] — the standard workload: a full N×M event-builder
//!   mesh (EVM + readouts + builders + filter) on the fabric.
//! * [`sweep`] — seeded fault schedules over the mesh asserting zero
//!   event loss; failures print the seed and shrink to a minimal
//!   repro.
//! * [`trace`] — golden traces: the run's decision log in `xdaq-rec`
//!   `XREC` framing, compared byte-for-byte across replays.
//!
//! ```
//! use xdaq_sim::sweep::{self};
//! use xdaq_sim::EvbOptions;
//!
//! // One seed, 30 events, kill/partition/delay/corrupt faults:
//! // finishes in milliseconds of wall time, loses nothing.
//! let report = sweep::run_seed(7, &EvbOptions::default(), 30).unwrap();
//! assert_eq!(report.lost, 0);
//! assert_eq!(report.completed, 30);
//! ```

#![warn(missing_docs)]

pub mod cluster;
pub mod evb;
pub mod net;
pub mod sweep;
pub mod trace;

pub use cluster::{SimCluster, SimError};
pub use evb::{EvbOptions, SimEvb};
pub use net::{SimNet, SimPt};
pub use sweep::{Fault, FaultKind, Report, Rng, Schedule, SweepFailure};
pub use trace::TraceLog;
