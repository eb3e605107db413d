//! Framework-private x-function codes (organization [`xdaq_i2o::ORG_XDAQ`]).
//!
//! The I2O model maps *every* occurrence in the system to a message
//! (paper §3.2: *"Even interrupts or timer expirations trigger messages
//! that are sent to device modules"*). The executive synthesizes
//! private frames with these codes for such internal events; user
//! applications define their own codes under their own organization id
//! and never collide with these.

/// Timer expiration event. Payload: 8-byte little-endian timer id.
pub const XFN_TIMER: u16 = 0xFF01;

/// Watchdog report: a handler exceeded its budget. Payload:
/// 2-byte TiD + 8-byte nanoseconds.
pub const XFN_WATCHDOG: u16 = 0xFF02;

/// Fault notification forwarded to the registered fault listener.
pub const XFN_FAULT: u16 = 0xFF03;

/// Logical-configuration-table change notification.
pub const XFN_LCT_CHANGED: u16 = 0xFF04;

/// Peer-link declared Down by the link supervisor. Payload: kv with
/// `peer` (address) and `evicted` (count of proxy TiDs removed). Sent
/// to the registered fault listener.
pub const XFN_PEER_DOWN: u16 = 0xFF05;

/// First code available to applications that reuse `ORG_XDAQ`
/// (discouraged; register your own organization id instead).
pub const XFN_USER_BASE: u16 = 0x0001;

/// True for codes the framework reserves.
pub fn is_reserved(xfn: u16) -> bool {
    xfn >= 0xFF00
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reserved_range() {
        assert!(is_reserved(XFN_TIMER));
        assert!(is_reserved(XFN_WATCHDOG));
        assert!(is_reserved(XFN_FAULT));
        assert!(is_reserved(XFN_LCT_CHANGED));
        assert!(is_reserved(XFN_PEER_DOWN));
        assert!(!is_reserved(XFN_USER_BASE));
        assert!(!is_reserved(0x1234));
    }
}
