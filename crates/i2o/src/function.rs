//! I2O function codes.
//!
//! Every frame names a *function* — what the addressed device shall do.
//! The standard reserves ranges for executive-class and utility-class
//! functions; `0xFF` marks a **private** frame whose real function is
//! the (organization id, x-function code) pair in the private extension
//! header (paper Fig. 5: *"Function=FFh if it is private. Then
//! XFunctionCode is interpreted"*).
//!
//! The numeric values follow the I2O v2.0 specification where we
//! implement the corresponding behaviour, so that traces read like I2O
//! traces.

use core::fmt;

/// Marker value in the `function` header field for private frames.
pub const PRIVATE_FUNCTION: u8 = 0xFF;

/// Utility-class functions — implemented by **every** device so it can
/// be configured and controlled (paper §3.3).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
#[repr(u8)]
pub enum UtilFn {
    /// No operation; used as a liveness probe.
    Nop = 0x00,
    /// Abort outstanding transactions addressed to this device.
    Abort = 0x01,
    /// Set configuration parameters.
    ParamsSet = 0x05,
    /// Read configuration parameters.
    ParamsGet = 0x06,
    /// Claim a device for exclusive use (hosts claim executives).
    Claim = 0x09,
    /// Release a previous claim.
    ClaimRelease = 0x0B,
    /// Register interest in an event category (timers, faults, ...).
    EventRegister = 0x13,
    /// Acknowledge an event notification.
    EventAck = 0x14,
    /// Asynchronous fault notification from the executive.
    ReplyFaultNotify = 0x15,
    /// Read the device's monitoring snapshot (metric registry state).
    /// The reply payload is a JSON document; see `xdaq-mon`.
    MonSnapshot = 0x30,
    /// Zero the device's monitoring state (counters, gauges,
    /// histogram buckets).
    MonReset = 0x31,
    /// Dump the frame lifecycle trace ring; the payload selects
    /// enable/disable via a one-byte argument, empty means dump only.
    MonTraceDump = 0x32,
    /// Link-supervision heartbeat probe. The payload carries a
    /// little-endian `u64` sequence number; the receiver answers with
    /// an `HbPong` echoing the same sequence. See `xdaq-core`'s
    /// `LinkSupervisor`.
    HbPing = 0x40,
    /// Heartbeat answer; payload echoes the `HbPing` sequence number.
    HbPong = 0x41,
}

impl UtilFn {
    /// Decodes a utility function code.
    pub fn from_u8(v: u8) -> Option<UtilFn> {
        Some(match v {
            0x00 => UtilFn::Nop,
            0x01 => UtilFn::Abort,
            0x05 => UtilFn::ParamsSet,
            0x06 => UtilFn::ParamsGet,
            0x09 => UtilFn::Claim,
            0x0B => UtilFn::ClaimRelease,
            0x13 => UtilFn::EventRegister,
            0x14 => UtilFn::EventAck,
            0x15 => UtilFn::ReplyFaultNotify,
            0x30 => UtilFn::MonSnapshot,
            0x31 => UtilFn::MonReset,
            0x32 => UtilFn::MonTraceDump,
            0x40 => UtilFn::HbPing,
            0x41 => UtilFn::HbPong,
            _ => return None,
        })
    }
}

/// Executive-class functions — implemented by the executive device
/// (TiD 1) on every node; this is the system-management surface the
/// primary host drives (paper §2 dimension three, §4 configuration).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
#[repr(u8)]
pub enum ExecFn {
    /// Query executive status (state, uptime, module count).
    StatusGet = 0xA0,
    /// Initialize the outbound queue (handshake when a host attaches).
    OutboundInit = 0xA1,
    /// Logical Configuration Table changed — pushed to registered
    /// listeners when modules come and go.
    LctNotify = 0xA2,
    /// Read the Hardware Resource Table.
    HrtGet = 0xA8,
    /// Download a software module (DDM) into the running executive.
    SwDownload = 0xA9,
    /// Destroy a device instance.
    DdmDestroy = 0xB1,
    /// Reset the whole IOP to its initial state.
    IopReset = 0xBD,
    /// Clear outstanding state but keep configuration.
    IopClear = 0xBE,
    /// Connect a peer IOP (exchange system tables; basis of Peer
    /// Operation).
    IopConnect = 0xC9,
    /// Quiesce a path/device: stop accepting new work.
    PathQuiesce = 0xC5,
    /// Re-enable a quiesced path/device.
    PathEnable = 0xD3,
    /// Quiesce the entire system (run-control "halt").
    SysQuiesce = 0xC3,
    /// Enable the entire system (run-control "enable").
    SysEnable = 0xD1,
    /// Replace the system table (node/route inventory).
    SysTabSet = 0xA3,
}

impl ExecFn {
    /// Decodes an executive function code.
    pub fn from_u8(v: u8) -> Option<ExecFn> {
        Some(match v {
            0xA0 => ExecFn::StatusGet,
            0xA1 => ExecFn::OutboundInit,
            0xA2 => ExecFn::LctNotify,
            0xA8 => ExecFn::HrtGet,
            0xA9 => ExecFn::SwDownload,
            0xB1 => ExecFn::DdmDestroy,
            0xBD => ExecFn::IopReset,
            0xBE => ExecFn::IopClear,
            0xC9 => ExecFn::IopConnect,
            0xC5 => ExecFn::PathQuiesce,
            0xD3 => ExecFn::PathEnable,
            0xC3 => ExecFn::SysQuiesce,
            0xD1 => ExecFn::SysEnable,
            0xA3 => ExecFn::SysTabSet,
            _ => return None,
        })
    }
}

/// A decoded function field.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum FunctionCode {
    /// Utility class (every device).
    Util(UtilFn),
    /// Executive class (the executive device).
    Exec(ExecFn),
    /// Private frame; the concrete operation is in the private header.
    Private,
    /// A code we do not recognise — kept verbatim so that unknown
    /// standard messages can still be routed and replied to with
    /// [`ReplyStatus::UnsupportedFunction`] (fault-tolerant default
    /// behaviour, paper §3.2).
    Unknown(u8),
}

impl FunctionCode {
    /// Decodes the one-byte function field.
    pub fn from_u8(v: u8) -> FunctionCode {
        if v == PRIVATE_FUNCTION {
            return FunctionCode::Private;
        }
        if let Some(u) = UtilFn::from_u8(v) {
            return FunctionCode::Util(u);
        }
        if let Some(e) = ExecFn::from_u8(v) {
            return FunctionCode::Exec(e);
        }
        FunctionCode::Unknown(v)
    }

    /// Encodes back to the wire byte.
    pub fn to_u8(self) -> u8 {
        match self {
            FunctionCode::Util(u) => u as u8,
            FunctionCode::Exec(e) => e as u8,
            FunctionCode::Private => PRIVATE_FUNCTION,
            FunctionCode::Unknown(v) => v,
        }
    }

    /// True for executive/utility control traffic.
    pub fn is_control(self) -> bool {
        matches!(self, FunctionCode::Util(_) | FunctionCode::Exec(_))
    }
}

impl fmt::Display for FunctionCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FunctionCode::Util(u) => write!(f, "Util{u:?}"),
            FunctionCode::Exec(e) => write!(f, "Exec{e:?}"),
            FunctionCode::Private => write!(f, "Private"),
            FunctionCode::Unknown(v) => write!(f, "Unknown({v:#04x})"),
        }
    }
}

/// Status byte carried in the first payload word of reply frames.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
#[repr(u8)]
pub enum ReplyStatus {
    /// Operation completed.
    Success = 0x00,
    /// Operation was aborted by a `UtilAbort`.
    Aborted = 0x01,
    /// Operation is queued behind a quiesce; retry after enable.
    Busy = 0x02,
    /// The addressed TiD exists but does not implement the function.
    UnsupportedFunction = 0x03,
    /// The addressed TiD is unknown on this IOP.
    UnknownTarget = 0x04,
    /// Frame failed validation (size, version).
    BadFrame = 0x05,
    /// Transport-level delivery failure (peer unreachable).
    TransportError = 0x06,
    /// Device-specific failure; details in the reply payload.
    DeviceError = 0x07,
    /// Handler exceeded its watchdog budget and was reported.
    WatchdogTimeout = 0x08,
    /// No pool memory for the reply.
    NoResources = 0x09,
}

impl ReplyStatus {
    /// Decodes a status byte; unknown values map to `DeviceError`.
    pub fn from_u8(v: u8) -> ReplyStatus {
        match v {
            0x00 => ReplyStatus::Success,
            0x01 => ReplyStatus::Aborted,
            0x02 => ReplyStatus::Busy,
            0x03 => ReplyStatus::UnsupportedFunction,
            0x04 => ReplyStatus::UnknownTarget,
            0x05 => ReplyStatus::BadFrame,
            0x06 => ReplyStatus::TransportError,
            0x07 => ReplyStatus::DeviceError,
            0x08 => ReplyStatus::WatchdogTimeout,
            0x09 => ReplyStatus::NoResources,
            _ => ReplyStatus::DeviceError,
        }
    }

    /// True only for `Success`.
    pub fn is_ok(self) -> bool {
        self == ReplyStatus::Success
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn private_marker_roundtrip() {
        assert_eq!(FunctionCode::from_u8(0xFF), FunctionCode::Private);
        assert_eq!(FunctionCode::Private.to_u8(), 0xFF);
    }

    #[test]
    fn util_codes_roundtrip() {
        for v in [
            0x00u8, 0x01, 0x05, 0x06, 0x09, 0x0B, 0x13, 0x14, 0x15, 0x30, 0x31, 0x32, 0x40, 0x41,
        ] {
            let f = FunctionCode::from_u8(v);
            assert!(matches!(f, FunctionCode::Util(_)), "{v:#x}");
            assert_eq!(f.to_u8(), v);
        }
    }

    #[test]
    fn exec_codes_roundtrip() {
        for v in [
            0xA0u8, 0xA1, 0xA2, 0xA3, 0xA8, 0xA9, 0xB1, 0xBD, 0xBE, 0xC3, 0xC5, 0xC9, 0xD1, 0xD3,
        ] {
            let f = FunctionCode::from_u8(v);
            assert!(matches!(f, FunctionCode::Exec(_)), "{v:#x}");
            assert_eq!(f.to_u8(), v);
        }
    }

    #[test]
    fn unknown_codes_survive_roundtrip() {
        let f = FunctionCode::from_u8(0x77);
        assert_eq!(f, FunctionCode::Unknown(0x77));
        assert_eq!(f.to_u8(), 0x77);
        assert!(!f.is_control());
    }

    #[test]
    fn control_classification() {
        assert!(FunctionCode::Util(UtilFn::Nop).is_control());
        assert!(FunctionCode::Exec(ExecFn::StatusGet).is_control());
        assert!(!FunctionCode::Private.is_control());
    }

    #[test]
    fn reply_status_roundtrip_and_fallback() {
        for v in 0u8..=9 {
            assert_eq!(ReplyStatus::from_u8(v) as u8, v);
        }
        assert_eq!(ReplyStatus::from_u8(0xEE), ReplyStatus::DeviceError);
        assert!(ReplyStatus::Success.is_ok());
        assert!(!ReplyStatus::Busy.is_ok());
    }
}
