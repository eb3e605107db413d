//! # xdaq-i2o — the I2O message layer
//!
//! This crate implements the message-format half of the Intelligent I/O
//! (I2O) architecture as used by the XDAQ cluster middleware
//! (Gutleber et al., *Architectural Software Support for Processing
//! Clusters*, CLUSTER 2000): a uniform, hardware- and OS-independent
//! message frame that is the **sole** means of information exchange
//! between modules in a processing cluster.
//!
//! The key ideas reproduced here (paper §3):
//!
//! * **Standard frame format** ([`MsgHeader`], [`frame`]) — every
//!   occurrence in the system (application messages, interrupts, timer
//!   expirations, configuration commands) is mapped to an I2O message.
//! * **Private frame extension** ([`PrivateHeader`]) — applications are
//!   merely new, private "device" classes; they extend the standard
//!   format with an organization id and an x-function code
//!   (`Function = 0xFF`, paper Fig. 5).
//! * **TiD addressing** ([`Tid`]) — each device instance gets a numeric
//!   target identifier, unique within one I/O processor; location
//!   transparency comes from proxy TiDs created by the executive.
//! * **Seven priority levels** ([`Priority`]) — frames are scheduled to
//!   one FIFO per priority (paper §4).
//! * **Device classes** ([`class`]) — executive, utility and private
//!   message sets every device must implement to be configurable and
//!   controllable.
//!
//! The layout is modeled after the I2O v2.0 specification but is not a
//! bit-exact clone: field widths were chosen so that the whole header
//! fits in 32 bytes and round-trips losslessly through
//! [`MsgHeader::encode`] / [`MsgHeader::decode`]. All multi-byte fields are little-endian on the wire, as
//! on the PCI systems I2O targeted.

pub mod class;
pub mod flags;
pub mod frame;
pub mod function;
pub mod message;
pub mod tid;

pub use class::{DeviceClass, DeviceState};
pub use flags::{MsgFlags, Priority};
pub use frame::{FrameError, MsgHeader, PrivateHeader, HEADER_LEN, PRIVATE_HEADER_LEN};
pub use function::{ExecFn, FunctionCode, ReplyStatus, UtilFn, PRIVATE_FUNCTION};
pub use message::{Message, MessageBuilder};
pub use tid::{Tid, TidAllocator, TidError};

/// Organization identifier carried in private frames.
///
/// The I2O SIG assigned numeric organization ids; private messages are
/// namespaced by them so that two vendors' private function codes never
/// collide. XDAQ applications get [`ORG_XDAQ`] by default.
pub type OrgId = u16;

/// Organization id used by the XDAQ framework itself.
pub const ORG_XDAQ: OrgId = 0x0cec; // "CERN/CMS executive core"

/// Organization id reserved for user applications that do not register
/// their own.
pub const ORG_USER: OrgId = 0x0fff;

/// Maximum size of a single pooled message block: 256 KB (paper §4:
/// "Memory is allocated in fixed sized blocks with a maximum length of
/// 256 KB"). A frame must fit in one block; nothing chains frames.
pub const MAX_BLOCK_LEN: usize = 256 * 1024;

/// Number of I2O scheduling priorities (paper §4: "There exist seven
/// priority levels and for each one the messages are scheduled to a
/// FIFO").
pub const NUM_PRIORITIES: usize = 7;
