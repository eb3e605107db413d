//! # xdaq-pt — Peer Transports
//!
//! Concrete [`xdaq_core::PeerTransport`] implementations. Paper §4:
//! *"The Peer Transports (PT) perform the actual communication. They
//! encapsulate all details about a specific transport layer. As it is
//! possible to configure each device instance with a route, we can use
//! multiple transports to send and receive in parallel."*
//!
//! | transport | scheme | address format | mode |
//! |-----------|--------|----------------------|------|
//! | [`LoopbackPt`] | `loop` | `loop://<node>` | polling |
//! | [`GmPt`] | `gm` | `gm://<node>:<port>` | polling or task (paper: thread) |
//! | [`XptPt`] | `xpt` | `xpt://<ip>:<port>` | task (batched submission/completion rings over epoll) |
//! | `ShmPt` (crate `xdaq-shm`) | `shm` | `shm://<region-path>@a\|b` | polling |
//! | [`ChaosPt`] | (inner's) | (inner's) | (inner's) |
//!
//! [`ChaosPt`] is not a transport of its own but a deterministic
//! fault-injecting wrapper around any of the above — the test harness
//! for the send-failure accounting and the link supervisor.
//!
//! Every PT reports received frames together with the sender's
//! **canonical** address so the executive can create reply proxies
//! (see `xdaq_core::pta::IngestSink`).

pub mod chaos;
pub mod gm;
pub mod loopback;
pub mod xpt;

pub use chaos::{ChaosPt, ChaosStats, FaultPlan};
pub use gm::GmPt;
pub use loopback::{LoopbackHub, LoopbackPt};
pub use xpt::XptPt;
