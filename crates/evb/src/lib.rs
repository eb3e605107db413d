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
//!                                         [+ one finished id: drop it]
//!  EVM ──ASSIGN──▶ BU                     run + event ids (1 credit each)
//!  BU ──PULL──▶ RU (each)                 event ids: send their fragments
//!  RU ──FRAGMENT──▶ BU                    one fragment (zero-copy)
//!  BU ──EVENT──▶ filter                   built-event summary
//!  BU ──DONE──▶ EVM                       built (or discarded): credit
//!  EVM ──CLEAR──▶ RU (each)               finished ids no TRIGGER carried
//! ```
//!
//! `ASSIGN`, `PULL` and `CLEAR` carry vectors of event ids; `TRIGGER`,
//! `FRAGMENT`, `EVENT` and `DONE` stay one per event. The batching is
//! *natural*: while a `DONE`'s delivery reports
//! [`more_queued`](xdaq_core::Delivery::more_queued), the event manager
//! only returns the credit and queues the clear; the delivery with no
//! private frame behind it launches every event the returned credits
//! buy — a `TRIGGER` per event and readout, each carrying one finished
//! id — and ends with one `ASSIGN` per builder, which the builder
//! answers with one `PULL` per readout. With k events per builder and
//! burst, a built event costs 2R + 2 + (1 + R)/k frames for R readout
//! units: 3R + 3 on an idle system (k = 1, today's frames and
//! latency), about 10.6 at R = 4 in a loaded 4×2 mesh (k ≈ 8, one
//! builder's full credit).
//! `CLEAR` goes out only for ids no `TRIGGER` carried — at run end,
//! while draining, when credit runs out, and for the unfinished events
//! of a run a new `RUN` supersedes. A vector that would exceed
//! [`MAX_PAYLOAD_LEN`] is split over several frames.
//!
//! Readout units keep each fragment until the EVM clears the event,
//! so an event assigned to a builder that dies can be reassigned and
//! rebuilt from the sources. Builder units tolerate out-of-order and
//! duplicated fragments ([`Assembler`]), re-pull missing fragments on a
//! timer-wheel timeout, and discard (recycling every pool block) after
//! a bounded number of retries — the discard returns the event to the
//! EVM as failed, which reassigns or counts it lost.
//!
//! Everything is observable, each fact in one place: `evb.*` counters
//! and gauges and the `evb.build_latency_ns` histogram in each node's
//! monitoring registry, and the run's outcome in [`EvmStats`], which
//! the EVM mirrors into its parameters on every `ParamsGet` with its
//! event-id state (the `xcl` `evb` command reads both).

pub mod assembler;
pub mod bu;
pub mod evm;
pub mod filter;
pub mod fragment;
pub mod mesh;
pub mod ru;

pub use assembler::{Assembler, Completed, Offer};
pub use bu::BuilderUnit;
pub use evm::{EventManager, EvmStats};
pub use filter::{FilterStats, FilterUnit};
pub use fragment::{FragmentHeader, FRAGMENT_HEADER_LEN};
pub use mesh::{BuilderNode, Mesh, Roles};
pub use ru::ReadoutUnit;

use xdaq_core::{Dispatcher, ExecError};
use xdaq_i2o::frame::MAX_PAYLOAD_LEN;
use xdaq_i2o::{Tid, HEADER_LEN, PRIVATE_HEADER_LEN};

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
    /// Event-id allocation (EVM → BU): the run, then one `u64` per
    /// event, each consuming one credit.
    pub const ASSIGN: u16 = 0x0032;
    /// Fragment request (BU → RU): one `u64` per event.
    pub const PULL: u16 = 0x0033;
    /// Event terminated at the builder: built or discarded (BU → EVM).
    pub const DONE: u16 = 0x0034;
    /// Drop the stored fragments of finished events no `TRIGGER`
    /// carried (EVM → RU): one `u64` per event.
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

/// The event ids of a vector payload (a trailing partial id is
/// ignored).
pub(crate) fn ids(p: &[u8]) -> impl Iterator<Item = u64> + '_ {
    p.chunks_exact(8)
        .map(|b| u64::from_le_bytes(b.try_into().unwrap()))
}

/// Splits `ids` into the vectors of consecutive frames, each filled as
/// far as [`MAX_PAYLOAD_LEN`] allows after the private extension, a
/// `head`-byte prefix and 8 bytes per id.
pub(crate) fn id_frames(ids: &[u64], head: usize) -> std::slice::Chunks<'_, u64> {
    ids.chunks((MAX_PAYLOAD_LEN - (PRIVATE_HEADER_LEN - HEADER_LEN) - head) / 8)
}

/// Sends `ids` to `to` as `f` frames of `[head][id…]` (`head` is the
/// run for `ASSIGN`, absent otherwise), split by [`id_frames`].
pub(crate) fn send_ids(
    ctx: &mut Dispatcher<'_>,
    to: Tid,
    f: u16,
    head: Option<u64>,
    ids: &[u64],
) -> Result<(), ExecError> {
    let prefix = if head.is_some() { 8 } else { 0 };
    for chunk in id_frames(ids, prefix) {
        ctx.send_private_with(to, ORG_DAQ, f, prefix + 8 * chunk.len(), |p| {
            let (h, body) = p.split_at_mut(prefix);
            if let Some(v) = head {
                h.copy_from_slice(&v.to_le_bytes());
            }
            for (slot, id) in body.chunks_exact_mut(8).zip(chunk) {
                slot.copy_from_slice(&id.to_le_bytes());
            }
        })?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A builder may grant more credits than one `ASSIGN` can name:
    /// the vector splits into full frames plus a remainder, each within
    /// the frame limit, instead of one oversized send that would get
    /// the builder declared dead.
    #[test]
    fn id_vectors_split_at_the_frame_limit() {
        let ext = PRIVATE_HEADER_LEN - HEADER_LEN;
        let ids: Vec<u64> = (0..70_000).collect();
        for (head, per_frame) in [(0, 32_765), (8, 32_764)] {
            let fits = |n: usize| ext + head + 8 * n <= MAX_PAYLOAD_LEN;
            let frames: Vec<&[u64]> = id_frames(&ids, head).collect();
            let lens: Vec<usize> = frames.iter().map(|f| f.len()).collect();
            assert_eq!(lens, [per_frame, per_frame, 70_000 - 2 * per_frame]);
            assert!(fits(per_frame) && !fits(per_frame + 1), "frames are full");
            assert_eq!(frames.concat(), ids, "in order, none lost");
        }
        assert_eq!(id_frames(&[], 8).count(), 0);
    }

    #[test]
    fn ids_decode_whole_words_only() {
        let mut p: Vec<u8> = [7u64, 9].iter().flat_map(|v| v.to_le_bytes()).collect();
        p.push(0xff);
        assert_eq!(ids(&p).collect::<Vec<_>>(), [7, 9]);
    }
}
