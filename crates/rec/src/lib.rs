//! xdaq-rec: durable zero-copy event recording and deterministic
//! replay.
//!
//! The paper's DAQ pipeline ends at a storage stage — readout units
//! feed builder units, builders feed a filter and, eventually, mass
//! storage. This crate is that stage made concrete, in the same style
//! as the rest of the repo:
//!
//! * **The store** ([`RecWriter`] / [`RecReader`]) is an append-only
//!   directory of segments ([`segment`]) with per-record length+CRC
//!   framing, written through raw syscalls (`xdaq-sys`, no libc) with one
//!   gathered `pwritev` per record whose iovecs point into pool blocks,
//!   zero payload copies. Durability is batched
//!   (`fdatasync` every N bytes / T ms) and crash recovery
//!   ([`recover`]) truncates the torn tail deterministically.
//! * **The recorder** ([`Recorder`]) is an ordinary device class:
//!   plugged into a node, it persists every private frame it receives
//!   as one record and (optionally) forwards the frame onward.
//! * **The replayer** ([`ReplayPt`]) is a peer transport
//!   (`replay://<dir>`): it re-injects a recording through the
//!   executive's normal peer-ingest path, in original order, paced or
//!   as fast as possible — so a recorded run can be reproduced against
//!   a fresh topology, chaos transport and all.

pub mod crc;
pub mod reader;
pub mod recorder;
pub mod replay;
pub mod segment;
pub mod writer;

pub use crc::{crc32, Crc32};
pub use reader::{recover, scan, RecReader, ScanReport, TornTail};
pub use recorder::Recorder;
pub use replay::ReplayPt;
pub use writer::{RecConfig, RecWriter};
