//! # xdaq-evb — the N×M event builder
//!
//! The workload that named XDAQ (paper footnote 1: *"n nodes talk to m
//! other nodes in both directions, thus resulting in communication
//! channels that cross over"*), built as a first-class subsystem: many
//! [`ReadoutUnit`]s feed many [`BuilderUnit`]s through an
//! [`EventManager`] that allocates event ids and throttles the fabric
//! with credit-based flow control, and built events end at a
//! [`FilterUnit`] — the CMS dataflow of *"Using XDAQ in Application
//! Scenarios of the CMS Experiment"*.
//!
//! ## Protocol
//!
//! All messages are I2O private frames under [`ORG_DAQ`]. The flow is
//! **pull-based**: builder units request fragments within the buffer
//! credits they granted to the event manager, so backpressure
//! propagates source-ward instead of shedding at queues.
//!
//! ```text
//!  host ──RUN──▶ EVM                      start a run of N events
//!  EVM ──INVITE──▶ BU                     solicit credits (run epoch)
//!  BU ──CREDIT──▶ EVM                     grant buffer credits
//!  EVM ──TRIGGER──▶ RU (each)             event id: digitize fragment,
//!                                         [+ finished id: drop it]
//!  EVM ──ASSIGN──▶ BU                     event allocation (1 credit)
//!  BU ──PULL──▶ RU (each)                 request fragment of event
//!  RU ──FRAGMENT──▶ BU                    fragment data (zero-copy)
//!  BU ──EVENT──▶ filter                   built-event summary
//!  BU ──DONE──▶ EVM                       built (or discarded): credit
//!  EVM ──CLEAR──▶ RU (each)               drop stored fragment, only if
//!                                         no TRIGGER carried the id
//! ```
//!
//! Per built event that is 3R + 3 frames for R readout units: the
//! finished id rides the `TRIGGER` that the returned credit launches,
//! as a second `u64` after the event id, so `CLEAR` goes out only at
//! run end, while draining, or when no credit is left.
//!
//! Readout units keep each fragment until the EVM clears the event,
//! so an event assigned to a builder that dies can be reassigned and
//! rebuilt from the sources. Builder units tolerate out-of-order and
//! duplicated fragments ([`Assembler`]), re-pull missing fragments on a
//! timer-wheel timeout, and discard (recycling every pool block) after
//! a bounded number of retries — the discard returns the event to the
//! EVM as failed, which reassigns or counts it lost.
//!
//! Everything is observable: `evb.*` counters and the
//! `evb.build_latency_ns` histogram in each node's monitoring registry,
//! and the EVM mirrors its live credit/event-id state into its
//! parameters on every `ParamsGet` (the `xcl` `evb` command scrapes
//! both).

pub mod assembler;
pub mod bu;
pub mod evm;
pub mod filter;
pub mod fragment;
pub mod ru;

pub use assembler::{Assembler, Completed, Offer};
pub use bu::{BuilderStats, BuilderUnit};
pub use evm::{EventManager, EvmStats};
pub use filter::{FilterStats, FilterUnit};
pub use fragment::{FragmentHeader, FRAGMENT_HEADER_LEN};
pub use ru::ReadoutUnit;

/// Organization id of the DAQ application classes.
pub const ORG_DAQ: u16 = 0x0da0;

/// Private x-function codes of the event-builder protocol.
pub mod xfn {
    /// Trigger: "digitize your fragment of event N" (EVM → RU); an
    /// optional second `u64` names a finished event to drop.
    pub const TRIGGER: u16 = 0x0020;
    /// A detector fragment (RU → BU).
    pub const FRAGMENT: u16 = 0x0021;
    /// A fully built event summary (BU → filter).
    pub const EVENT: u16 = 0x0022;
    /// Start a run of N events (host → EVM).
    pub const RUN: u16 = 0x0024;
    /// Credit solicitation at run start (EVM → BU).
    pub const INVITE: u16 = 0x0030;
    /// Buffer-credit grant (BU → EVM).
    pub const CREDIT: u16 = 0x0031;
    /// Event-id allocation, consuming one credit (EVM → BU).
    pub const ASSIGN: u16 = 0x0032;
    /// Fragment request (BU → RU).
    pub const PULL: u16 = 0x0033;
    /// Event terminated at the builder: built or discarded (BU → EVM).
    pub const DONE: u16 = 0x0034;
    /// Drop the stored fragment of a finished event no `TRIGGER`
    /// carried (EVM → RU).
    pub const CLEAR: u16 = 0x0035;
}

/// `DONE` status: the event was fully assembled and shipped.
pub const DONE_BUILT: u8 = 0;
/// `DONE` status: the builder gave up after its retry budget and
/// recycled the partial event's blocks.
pub const DONE_DISCARDED: u8 = 1;

pub(crate) fn u64_at(p: &[u8], off: usize) -> Option<u64> {
    p.get(off..off + 8)
        .map(|b| u64::from_le_bytes(b.try_into().unwrap()))
}

pub(crate) fn u32_at(p: &[u8], off: usize) -> Option<u32> {
    p.get(off..off + 4)
        .map(|b| u32::from_le_bytes(b.try_into().unwrap()))
}
