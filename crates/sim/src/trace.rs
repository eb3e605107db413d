//! Golden traces: the simulation's observable decision log, framed in
//! the event store's `XREC` format.
//!
//! A [`TraceLog`] accumulates one line per observable decision —
//! fault injections, event completions at the filter, final run
//! accounting — each stamped with the *virtual* time. Because the
//! whole simulation is deterministic, the log for a given seed is a
//! function of the code: [`encode`] turns it into a single `XREC`
//! segment (`xdaq-rec`'s torn-tail-safe framing, one record per
//! line), and a regression test replays the seed and asserts the
//! bytes match the previous encoding bit for bit. A diff means the
//! protocol's decisions changed — deliberately or not.

use parking_lot::Mutex;
use std::sync::Arc;
use std::time::Duration;
use xdaq_rec::segment::{
    decode_header, decode_record, encode_framing, encode_header, REC_FRAMING_LEN, SEG_HEADER_LEN,
};

/// A shared, append-only, virtually-timestamped line log.
#[derive(Clone, Default)]
pub struct TraceLog {
    lines: Arc<Mutex<Vec<String>>>,
}

impl TraceLog {
    /// An empty log.
    pub fn new() -> TraceLog {
        TraceLog::default()
    }

    /// Appends one line stamped with virtual time `t`.
    pub fn push(&self, t: Duration, line: &str) {
        self.lines
            .lock()
            .push(format!("t={:012} {line}", t.as_nanos()));
    }

    /// Snapshot of every line in append order.
    pub fn lines(&self) -> Vec<String> {
        self.lines.lock().clone()
    }

    /// Number of lines logged so far.
    pub fn len(&self) -> usize {
        self.lines.lock().len()
    }

    /// True when nothing was logged.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Encodes trace lines as one `XREC` segment: the standard 16-byte
/// header (sequence = the sweep seed) followed by one CRC-framed
/// record per line.
pub fn encode(seed: u64, lines: &[String]) -> Vec<u8> {
    let mut out =
        Vec::with_capacity(SEG_HEADER_LEN + lines.iter().map(|l| l.len() + 8).sum::<usize>());
    out.extend_from_slice(&encode_header(seed));
    for line in lines {
        out.extend_from_slice(&encode_framing(&[line.as_bytes()]));
        out.extend_from_slice(line.as_bytes());
    }
    out
}

/// Decodes an [`encode`]d trace, validating the header and every
/// record's framing the way the event store's reader does. Returns
/// `(seed, lines)`.
pub fn decode(bytes: &[u8]) -> Result<(u64, Vec<String>), String> {
    let seed = decode_header(bytes)?;
    let mut lines = Vec::new();
    let mut at = SEG_HEADER_LEN;
    while at < bytes.len() {
        let rest = &bytes[at..];
        let payload = decode_record(rest, |len| {
            rest.get(REC_FRAMING_LEN..REC_FRAMING_LEN + len)
                .ok_or_else(|| format!("record length {len} overruns the trace"))
        })
        .map_err(|e| format!("{e} at byte {at}"))?;
        lines.push(String::from_utf8_lossy(payload).into_owned());
        at += REC_FRAMING_LEN + payload.len();
    }
    Ok((seed, lines))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrips_and_detects_corruption() {
        let log = TraceLog::new();
        log.push(Duration::from_micros(5), "fault kill bu0");
        log.push(Duration::from_micros(9), "built event=1");
        let bytes = encode(42, &log.lines());
        let (seed, lines) = decode(&bytes).unwrap();
        assert_eq!(seed, 42);
        assert_eq!(lines, log.lines());
        assert_eq!(lines[0], "t=000000005000 fault kill bu0");

        let mut torn = bytes.clone();
        let last = torn.len() - 1;
        torn[last] ^= 1;
        assert!(decode(&torn).unwrap_err().contains("CRC"));
        assert!(decode(&bytes[..SEG_HEADER_LEN + 3])
            .unwrap_err()
            .contains("torn"));
    }
}
