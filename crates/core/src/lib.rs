//! # xdaq-core — the XDAQ I2O executive
//!
//! The heart of the reproduction: the per-node *executive* described in
//! §4 of the paper.
//!
//! > *"The executive accepts incoming messages and forwards them to the
//! > device classes. To avoid efficiency loss that might be induced
//! > with unpredictable growth of threads if each and every single
//! > active object was modeled as a task, the loop of control remains
//! > in the executive framework. There exist multiple dispatch tables
//! > for all the device class instances, but the executive performs the
//! > dispatching. Furthermore the executive has control over all the
//! > memory that can be accessed by the registered modules. ... After
//! > all, the executive is very lean as it acts only as a delegate."*
//!
//! What lives here:
//!
//! * [`Executive`] — the per-node kernel: owns the memory pool, the
//!   [`SchedQueue`] (seven priority FIFOs with round-robin device
//!   dispatch), the [`RouteTable`] (TiD addressing + proxy TiDs), the
//!   [`Pta`] (Peer Transport Agent), the [`TimerWheel`], and the device
//!   registry. `executive` is the frame path (routing, ingest,
//!   dispatch); the verbs the executive answers itself are in `verbs`,
//!   its monitoring surface ([`ExecMonitors`], `mon_snapshot`) in
//!   [`monitor`], and the heartbeat protocol's wire frames next to its
//!   state machine in [`supervisor`].
//! * [`I2oListener`] — the device-class trait applications implement
//!   (the paper's `i2oListener` C++ class): react to private frames,
//!   utility frames and timer events; default utility handling is
//!   provided ("the system can provide default procedures if for a
//!   given event no code is supplied").
//! * [`PeerTransport`] — the transport DDM interface; concrete
//!   transports (xpt sockets, GM, PCI, loopback) live in `xdaq-pt` and
//!   register here like any other device.

pub mod clock;
pub mod config;
pub mod error;
pub mod executive;
pub mod fastmap;
pub mod listener;
pub mod monitor;
pub mod pta;
pub mod queue;
pub mod registry;
pub mod route;
pub mod supervisor;
pub mod timer;
mod verbs;
pub mod xfn;

pub use clock::{Clock, VirtualClock};
pub use config::{AllocatorKind, ExecutiveConfig};
pub use error::{ExecError, PtError};
pub use executive::{Executive, ExecutiveHandle};
pub use fastmap::{FastMap, FastSet};
pub use listener::{Delivery, Dispatcher, I2oListener, TimerId};
pub use monitor::ExecMonitors;
pub use pta::{IngestSink, PeerAddr, PeerTransport, PtMode, Pta, SendFailure};
pub use queue::SchedQueue;
pub use registry::{DeviceMeta, Registry};
pub use route::{Route, RouteTable};
pub use supervisor::{LinkState, LinkSupervisor, SupervisionConfig, TickOutcome};
pub use timer::TimerWheel;
