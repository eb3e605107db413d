//! # xdaq-shm — zero-copy shared-memory peer transport
//!
//! The paper's buffer-pool design promises that a frame is never
//! copied on its way between co-located applications; this crate
//! extends that promise across *process* boundaries, the local
//! communication path DAQ nodes rely on when several executives share
//! one host.
//!
//! Three pieces (DESIGN.md §9):
//!
//! * a **pool region** ([`Region`]/[`ShmPool`]) — an mmap-backed file
//!   of fixed-size blocks (≤ 256 KB, per the paper) with a magic/
//!   version/epoch header and a tagged atomic free list, so both
//!   processes allocate and recycle blocks in place;
//! * a pair of lock-free **SPSC descriptor rings** ([`RingView`]) per
//!   link — cache-line-padded cursors, one 8-byte `{offset, len}`
//!   descriptor per frame, since a frame is one block (a frame longer
//!   than the link's block size is refused at the sender);
//! * [`ShmPt`], which wires both into the executive under the `shm://`
//!   scheme as a polling PT: the dispatch loop scans the receive rings,
//!   so there is no receive thread and no wake-up path.
//!
//! A refused frame comes back on [`xdaq_core::SendFailure`],
//! and peer-process death is detected from the region header and
//! surfaced to the link supervisor.
//!
//! ```no_run
//! use xdaq_shm::{ShmConfig, ShmPt};
//! use xdaq_core::PtMode;
//! use xdaq_mempool::FrameAllocator;
//!
//! let pt = ShmPt::new(PtMode::Polling);
//! let link = pt.create_link("/dev/shm/xdaq-demo".as_ref(), ShmConfig::default()).unwrap();
//! // Frames from the link's pool cross with zero payload copies:
//! let frame = link.pool().alloc(4096).unwrap();
//! pt.send(link.peer_addr(), frame).unwrap();
//! # use xdaq_core::PeerTransport;
//! ```

pub mod pool;
pub mod region;
pub mod ring;

mod pt;

pub use pool::ShmPool;
pub use region::{Region, ShmConfig};
pub use ring::{Descriptor, RingView};

pub use pt::{ShmLink, ShmPt};
