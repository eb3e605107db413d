//! # xdaq — architectural software support for processing clusters
//!
//! A from-scratch Rust reproduction of the XDAQ/I2O cluster middleware
//! described in J. Gutleber et al., *"Architectural Software Support
//! for Processing Clusters"* (IEEE CLUSTER 2000): an event-driven,
//! message-passing application framework for high-performance data
//! acquisition clusters, built on the Intelligent I/O (I2O) split
//! driver architecture.
//!
//! This crate is the facade: it re-exports the workspace crates under
//! stable module names, and holds the paper's §5 flood/echo device pair
//! in [`app`].
//!
//! ```
//! use xdaq::core::{Executive, ExecutiveConfig};
//! use xdaq::app::{PingState, Pinger, Ponger};
//!
//! let exec = Executive::new(ExecutiveConfig::named("node0"));
//! let state = PingState::new();
//! let pong = exec.register("pong", Box::new(Ponger::new()), &[]).unwrap();
//! let _ping = exec.register(
//!     "ping",
//!     Box::new(Pinger::new(state)),
//!     &[("peer", &pong.raw().to_string()), ("payload", "64"), ("count", "3")],
//! ).unwrap();
//! exec.enable_all();
//! ```
//!
//! See `README.md` for the architecture overview, `DESIGN.md` for the
//! paper-to-module map and `EXPERIMENTS.md` for the reproduced
//! evaluation.

/// I2O message layer: frames, function codes, TiDs, SGL.
pub use xdaq_i2o as i2o;

/// Zero-copy frame buffer pools (simple + table allocators).
pub use xdaq_mempool as mempool;

/// The GM peer transport and the Myrinet/GM-like user-level messaging
/// substrate it wraps (`Fabric`, `Port`, `LatencyModel`).
pub use xdaq_pt::gm;

/// The executive: dispatching, routing, scheduling, PTA.
pub use xdaq_core as core;

/// Peer transports: loopback, TCP, GM, simulated PCI.
pub use xdaq_pt as pt;

/// Zero-copy shared-memory peer transport (`shm://` scheme).
pub use xdaq_shm as shm;

/// Durable event recording (`Recorder` device) and deterministic
/// replay (`replay://` peer transport).
pub use xdaq_rec as rec;

/// The control plane: control hosts, the xcl configuration language,
/// topology declarations, the live service registry, and convergence
/// loops.
pub use xdaq_ctl as ctl;

pub mod app;

/// The N×M event builder: readout/builder/event-manager device
/// classes with credit-based flow control.
pub use xdaq_evb as evb;

/// Deterministic cluster simulation: virtual clock, in-memory fabric,
/// seeded fault-schedule sweeps and golden-trace regression.
pub use xdaq_sim as sim;

/// The one raw-syscall layer under `shm`, `rec` and `pt::xpt`;
/// `sys::supported()` says whether this target has one.
pub use xdaq_sys as sys;
