//! Executive and transport error types.

use core::fmt;
use xdaq_i2o::{FrameError, Tid, TidError};
use xdaq_mempool::AllocError;

/// Failures surfaced by the executive API.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecError {
    /// The target TiD is neither a registered device nor a proxy.
    UnknownTid(Tid),
    /// The addressed device exists but is not accepting this traffic
    /// (quiesced/faulted for private frames, destroyed for all).
    NotAccepting(Tid),
    /// Frame encode/decode failure.
    Frame(FrameError),
    /// Memory pool failure.
    Alloc(AllocError),
    /// TiD allocation failure.
    Tid(TidError),
    /// Transport-level failure.
    Transport(PtError),
    /// No peer transport registered for the route's scheme.
    NoTransport(String),
    /// A module factory name was not found (ExecSwDownload).
    UnknownModule(String),
    /// A device with this instance name already exists.
    DuplicateName(String),
    /// The executive has been shut down.
    Stopped,
    /// Malformed control-message payload.
    BadControl(String),
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::UnknownTid(t) => write!(f, "unknown target {t}"),
            ExecError::NotAccepting(t) => write!(f, "device {t} is not accepting this traffic"),
            ExecError::Frame(e) => write!(f, "frame error: {e}"),
            ExecError::Alloc(e) => write!(f, "allocation error: {e}"),
            ExecError::Tid(e) => write!(f, "tid error: {e}"),
            ExecError::Transport(e) => write!(f, "transport error: {e}"),
            ExecError::NoTransport(s) => write!(f, "no peer transport for scheme '{s}'"),
            ExecError::UnknownModule(s) => write!(f, "no module factory named '{s}'"),
            ExecError::DuplicateName(s) => write!(f, "device instance '{s}' already exists"),
            ExecError::Stopped => write!(f, "executive stopped"),
            ExecError::BadControl(s) => write!(f, "malformed control payload: {s}"),
        }
    }
}

impl std::error::Error for ExecError {}

impl From<FrameError> for ExecError {
    fn from(e: FrameError) -> ExecError {
        ExecError::Frame(e)
    }
}

impl From<AllocError> for ExecError {
    fn from(e: AllocError) -> ExecError {
        ExecError::Alloc(e)
    }
}

impl From<TidError> for ExecError {
    fn from(e: TidError) -> ExecError {
        ExecError::Tid(e)
    }
}

impl From<PtError> for ExecError {
    fn from(e: PtError) -> ExecError {
        ExecError::Transport(e)
    }
}

/// Failures inside a peer transport.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PtError {
    /// The peer address string does not parse for this transport.
    BadAddress(String),
    /// The peer is not reachable (connect/lookup failure).
    Unreachable(String),
    /// Backpressure: the transport cannot accept the frame now.
    WouldBlock,
    /// I/O failure, stringified (std::io::Error is not Clone/PartialEq).
    Io(String),
    /// The transport has been stopped.
    Closed,
    /// A runtime key ([`crate::PeerTransport::configure`]) the transport
    /// does not take, or a value it refuses.
    BadParam(String),
}

impl fmt::Display for PtError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PtError::BadAddress(a) => write!(f, "bad peer address '{a}'"),
            PtError::Unreachable(a) => write!(f, "peer '{a}' unreachable"),
            PtError::WouldBlock => write!(f, "transport backpressure"),
            PtError::Io(e) => write!(f, "transport I/O error: {e}"),
            PtError::Closed => write!(f, "transport closed"),
            PtError::BadParam(e) => f.write_str(e),
        }
    }
}

impl std::error::Error for PtError {}

impl From<std::io::Error> for PtError {
    fn from(e: std::io::Error) -> PtError {
        PtError::Io(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions() {
        let e: ExecError = FrameError::BadVersion(9).into();
        assert!(matches!(e, ExecError::Frame(_)));
        let e: ExecError = AllocError::TooLarge(1).into();
        assert!(matches!(e, ExecError::Alloc(_)));
        let e: ExecError = PtError::WouldBlock.into();
        assert!(matches!(e, ExecError::Transport(_)));
        let e: PtError = std::io::Error::other("boom").into();
        assert!(matches!(e, PtError::Io(_)));
    }

    #[test]
    fn display_strings() {
        assert!(ExecError::UnknownTid(Tid::HOST)
            .to_string()
            .contains("tid:host"));
        assert!(ExecError::NoTransport("gm".into())
            .to_string()
            .contains("gm"));
        assert!(PtError::Unreachable("tcp://x".into())
            .to_string()
            .contains("tcp://x"));
    }
}
