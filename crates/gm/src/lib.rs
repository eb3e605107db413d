//! # xdaq-gm — a Myrinet/GM-like user-level messaging substrate
//!
//! The paper's evaluation (§5) runs XDAQ over **Myrinet/GM 1.1.3** on a
//! Myricom M2M-PCI64 NIC with a LANai 7 processor. We have no such
//! hardware, so this crate implements the closest synthetic equivalent
//! that exercises the same code paths (see DESIGN.md, substitutions):
//!
//! * **user-level, OS-bypass messaging** — ports are plain objects in
//!   process memory; send/poll never enter the kernel. A send copies
//!   the payload into a packet and pushes it onto the destination
//!   port's inbound queue, a locked deque bounded by
//!   [`PortConfig::inbound_capacity`]; the receiver busy-polls it;
//! * **GM's token discipline** — a port holds a finite number of *send
//!   tokens*; a send consumes one and the matching
//!   [`GmEvent::SendCompleted`] returns it. Receivers must *provide
//!   receive buffers* per size class; a packet is only delivered once
//!   a buffer of its class is available (flow control, no drops);
//! * **polling reception** — [`Port::poll`] is a non-blocking poll just
//!   like `gm_receive`; [`Port::blocking_poll`] spins then yields;
//! * **a calibrated wire-latency model** ([`LatencyModel`]) — the
//!   linear base + per-byte delay of the real interconnect, so that the
//!   reproduction of Figure 6 exhibits the paper's linear payload
//!   slopes. With [`LatencyModel::ZERO`] the fabric degenerates to pure
//!   queue hand-off, which is what the framework-overhead measurement
//!   uses.
//!
//! The crate is deliberately independent of the I2O layer: it plays the
//! role of the *vendor library* the paper's GM Peer Transport wraps.

pub mod error;
pub mod latency;
pub mod net;
pub mod port;
pub mod token;

pub use error::GmError;
pub use latency::LatencyModel;
pub use net::{Fabric, FabricStats, NodeId};
pub use port::{GmAddr, GmEvent, Port, PortConfig, PortId};
pub use token::TokenCounter;

/// Largest message one GM packet can carry (GM 1.x allowed up to 2^31,
/// practically bounded by receive buffers; we bound at the I2O block
/// maximum so one frame always fits one packet).
pub const GM_MAX_MESSAGE: usize = 256 * 1024;
