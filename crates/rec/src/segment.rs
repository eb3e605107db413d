//! On-disk segment format of the event store.
//!
//! A recording is a directory of fixed-name segment files written
//! strictly append-only:
//!
//! ```text
//! seg-00000000.xrec
//! seg-00000001.xrec
//! ...
//! ```
//!
//! Each segment starts with a 16-byte header:
//!
//! ```text
//! magic   "XREC"          4 bytes
//! version u32 LE          4 bytes   (currently 1)
//! seq     u64 LE          8 bytes   (segment index within the run)
//! ```
//!
//! followed by records framed as:
//!
//! ```text
//! len     u32 LE          payload length in bytes
//! crc     u32 LE          CRC-32 (IEEE) of the payload
//! payload len bytes       the record: fully-encoded I2O frames
//!                         concatenated in order (the Recorder writes
//!                         one frame per record)
//! ```
//!
//! The framing is what makes recovery deterministic: a torn tail —
//! short header, length pointing past EOF, or CRC mismatch — marks the
//! exact byte offset where durable history ends, and everything before
//! it is intact.

use crate::crc::{crc32, Crc32};
use std::ops::Deref;
use std::path::{Path, PathBuf};

/// Segment file magic.
pub const MAGIC: [u8; 4] = *b"XREC";
/// Current format version.
pub const VERSION: u32 = 1;
/// Bytes of the segment header.
pub const SEG_HEADER_LEN: usize = 16;
/// Bytes of one record's framing (length + CRC).
pub const REC_FRAMING_LEN: usize = 8;
/// Largest accepted record payload; a length prefix beyond this is
/// treated as corruption rather than an allocation request.
pub const MAX_RECORD_LEN: usize = 256 * 1024 * 1024;

/// Encodes a segment header for segment number `seq`.
pub fn encode_header(seq: u64) -> [u8; SEG_HEADER_LEN] {
    let mut h = [0u8; SEG_HEADER_LEN];
    h[..4].copy_from_slice(&MAGIC);
    h[4..8].copy_from_slice(&VERSION.to_le_bytes());
    h[8..16].copy_from_slice(&seq.to_le_bytes());
    h
}

/// Validates a segment header, returning its sequence number.
pub fn decode_header(bytes: &[u8]) -> Result<u64, String> {
    if bytes.len() < SEG_HEADER_LEN {
        return Err(format!("segment header truncated ({} bytes)", bytes.len()));
    }
    if bytes[..4] != MAGIC {
        return Err("bad segment magic".to_string());
    }
    let version = u32::from_le_bytes(bytes[4..8].try_into().unwrap());
    if version != VERSION {
        return Err(format!("unsupported segment version {version}"));
    }
    Ok(u64::from_le_bytes(bytes[8..16].try_into().unwrap()))
}

/// Encodes the framing of one record whose payload is the
/// concatenation of `parts`: the payload length, then its CRC-32.
pub fn encode_framing<P: Deref<Target = [u8]>>(parts: &[P]) -> [u8; REC_FRAMING_LEN] {
    let mut crc = Crc32::new();
    let mut len = 0;
    for p in parts {
        crc.update(p);
        len += p.len();
    }
    let mut framing = [0u8; REC_FRAMING_LEN];
    framing[..4].copy_from_slice(&(len as u32).to_le_bytes());
    framing[4..].copy_from_slice(&crc.finish().to_le_bytes());
    framing
}

/// Reads back one framed record from `framing`, the bytes where it
/// starts (a torn tail may leave fewer than 8), and `body`, which
/// fetches the payload length they declare. Refuses a length over
/// [`MAX_RECORD_LEN`] and a payload that fails its CRC.
pub fn decode_record<B: AsRef<[u8]>>(
    framing: &[u8],
    body: impl FnOnce(usize) -> Result<B, String>,
) -> Result<B, String> {
    let Some(framing) = framing.get(..REC_FRAMING_LEN) else {
        return Err(format!(
            "torn record framing ({} of {REC_FRAMING_LEN} bytes)",
            framing.len()
        ));
    };
    let len = u32::from_le_bytes(framing[..4].try_into().unwrap()) as usize;
    if len > MAX_RECORD_LEN {
        return Err(format!("record length {len} over sanity cap"));
    }
    let payload = body(len)?;
    if crc32(payload.as_ref()) != u32::from_le_bytes(framing[4..].try_into().unwrap()) {
        return Err("record CRC mismatch".to_string());
    }
    Ok(payload)
}

/// File name of segment `seq`.
pub fn segment_name(seq: u64) -> String {
    format!("seg-{seq:08}.xrec")
}

/// Path of segment `seq` under `dir`.
pub fn segment_path(dir: &Path, seq: u64) -> PathBuf {
    dir.join(segment_name(seq))
}

/// Lists the segment files under `dir` in sequence order (parsed from
/// the file name; non-segment files are ignored).
pub fn list_segments(dir: &Path) -> std::io::Result<Vec<(u64, PathBuf)>> {
    let mut found = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let Some(seq) = name
            .strip_prefix("seg-")
            .and_then(|s| s.strip_suffix(".xrec"))
            .and_then(|s| s.parse::<u64>().ok())
        else {
            continue;
        };
        found.push((seq, entry.path()));
    }
    found.sort_by_key(|(seq, _)| *seq);
    Ok(found)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_roundtrip() {
        let h = encode_header(42);
        assert_eq!(decode_header(&h).unwrap(), 42);
    }

    #[test]
    fn header_rejects_garbage() {
        assert!(decode_header(b"short").is_err());
        let mut h = encode_header(0);
        h[0] = b'Y';
        assert!(decode_header(&h).is_err());
        let mut h = encode_header(0);
        h[4] = 0xFF; // version 255
        assert!(decode_header(&h).is_err());
    }

    #[test]
    fn framed_record_reads_back_and_an_oversized_length_is_refused() {
        let framing = encode_framing(&[&b"abc"[..], &b"defg"[..]]);
        let body = |len: usize| -> Result<&[u8], String> { Ok(&b"abcdefg"[..len]) };
        assert_eq!(decode_record(&framing, body).unwrap(), b"abcdefg");
        let mut huge = framing;
        huge[..4].copy_from_slice(&(MAX_RECORD_LEN as u32 + 1).to_le_bytes());
        let err = decode_record(&huge, body).unwrap_err();
        assert!(err.contains("sanity cap"), "{err}");
    }

    #[test]
    fn names_sort_in_sequence_order() {
        assert_eq!(segment_name(0), "seg-00000000.xrec");
        assert_eq!(segment_name(7), "seg-00000007.xrec");
        assert!(segment_name(9) < segment_name(10));
    }

    #[test]
    fn list_segments_ignores_foreign_files() {
        let dir = std::env::temp_dir().join(format!("xdaq-rec-seg-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(segment_path(&dir, 1), b"").unwrap();
        std::fs::write(segment_path(&dir, 0), b"").unwrap();
        std::fs::write(dir.join("notes.txt"), b"").unwrap();
        let segs = list_segments(&dir).unwrap();
        assert_eq!(segs.iter().map(|(s, _)| *s).collect::<Vec<_>>(), [0, 1]);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
