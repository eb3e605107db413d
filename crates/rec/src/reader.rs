//! The scan/recovery path: sequential, CRC-verified, torn-tail aware.
//!
//! [`RecReader`] walks a recording directory segment by segment,
//! yielding each record's payload after verifying its CRC. The first
//! inconsistency — a truncated framing header, a length running past
//! EOF or over the sanity cap, a CRC mismatch, or a bad segment header
//! — is reported as a [`TornTail`] with the exact byte offset where
//! durable history ends; everything before it is intact by
//! construction of the framing. [`recover`] turns that report into
//! action: it truncates the torn segment at the boundary (raw
//! `ftruncate`, no libc) and removes any later segments, leaving a
//! directory that replays cleanly.

use crate::segment::{
    decode_header, decode_record, list_segments, REC_FRAMING_LEN, SEG_HEADER_LEN,
};
use std::io::Read;
use std::path::{Path, PathBuf};

/// Where and why a scan stopped early.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TornTail {
    /// Sequence number of the segment holding the tear.
    pub seq: u64,
    /// Path of that segment.
    pub path: PathBuf,
    /// Byte offset of the first invalid byte (valid data ends here).
    pub valid_len: u64,
    /// Human-readable cause.
    pub reason: String,
}

/// Outcome of a full scan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScanReport {
    /// Complete, CRC-verified records found.
    pub records: u64,
    /// Their total payload bytes.
    pub payload_bytes: u64,
    /// Segments visited.
    pub segments: u64,
    /// The tear, if the recording does not end cleanly.
    pub torn: Option<TornTail>,
}

/// Sequential record reader over a recording directory.
pub struct RecReader {
    segments: Vec<(u64, PathBuf)>,
    /// Index into `segments` of the file currently being read.
    current: usize,
    file: Option<std::fs::File>,
    /// Byte offset within the current segment.
    offset: u64,
    torn: Option<TornTail>,
    records: u64,
    payload_bytes: u64,
}

impl RecReader {
    /// Opens a reader over every segment under `dir`.
    pub fn open(dir: &Path) -> std::io::Result<RecReader> {
        Ok(RecReader {
            segments: list_segments(dir)?,
            current: 0,
            file: None,
            offset: 0,
            torn: None,
            records: 0,
            payload_bytes: 0,
        })
    }

    /// The tear encountered so far, if any (populated once iteration
    /// reaches it).
    pub fn torn(&self) -> Option<&TornTail> {
        self.torn.as_ref()
    }

    /// Complete records yielded so far.
    pub fn records(&self) -> u64 {
        self.records
    }

    fn tear(&mut self, valid_len: u64, reason: String) {
        let (seq, path) = self.segments[self.current].clone();
        self.torn = Some(TornTail {
            seq,
            path,
            valid_len,
            reason,
        });
        self.file = None;
        self.current = self.segments.len();
    }

    /// Next record payload, or `None` at the end of the recording
    /// (clean or torn — check [`RecReader::torn`] to distinguish).
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Option<Vec<u8>> {
        loop {
            if self.torn.is_some() || self.current >= self.segments.len() {
                return None;
            }
            if self.file.is_none() {
                let (seq, path) = self.segments[self.current].clone();
                let mut f = match std::fs::File::open(&path) {
                    Ok(f) => f,
                    Err(e) => {
                        self.tear(0, format!("open failed: {e}"));
                        return None;
                    }
                };
                let mut header = [0u8; SEG_HEADER_LEN];
                match read_full(&mut f, &mut header) {
                    Ok(SEG_HEADER_LEN) => {}
                    Ok(n) => {
                        self.tear(0, format!("segment header truncated ({n} bytes)"));
                        return None;
                    }
                    Err(e) => {
                        self.tear(0, format!("segment header unreadable: {e}"));
                        return None;
                    }
                }
                match decode_header(&header) {
                    Ok(s) if s == seq => {}
                    Ok(s) => {
                        self.tear(0, format!("segment claims seq {s}, file name says {seq}"));
                        return None;
                    }
                    Err(e) => {
                        self.tear(0, e);
                        return None;
                    }
                }
                self.file = Some(f);
                self.offset = SEG_HEADER_LEN as u64;
            }
            let f = self.file.as_mut().expect("opened above");
            let mut framing = [0u8; REC_FRAMING_LEN];
            let got = match read_full(f, &mut framing) {
                Ok(0) => {
                    // Clean end of this segment.
                    self.file = None;
                    self.current += 1;
                    continue;
                }
                got => got.map_err(|e| format!("read failed: {e}")),
            };
            let record = got.and_then(|got| {
                decode_record(&framing[..got], |len| {
                    let mut payload = vec![0u8; len];
                    match read_full(f, &mut payload) {
                        Ok(n) if n == len => Ok(payload),
                        Ok(n) => Err(format!("record body truncated ({n} of {len} bytes)")),
                        Err(e) => Err(format!("read failed: {e}")),
                    }
                })
            });
            let payload = match record {
                Ok(payload) => payload,
                Err(why) => {
                    self.tear(self.offset, why);
                    return None;
                }
            };
            let len = payload.len();
            self.offset += (REC_FRAMING_LEN + len) as u64;
            self.records += 1;
            self.payload_bytes += len as u64;
            return Some(payload);
        }
    }

    /// Drains the reader, returning the summary.
    pub fn scan_to_end(mut self) -> ScanReport {
        while self.next().is_some() {}
        ScanReport {
            records: self.records,
            payload_bytes: self.payload_bytes,
            segments: self.segments.len() as u64,
            torn: self.torn,
        }
    }
}

/// Reads as many bytes as available into `buf`, short only at EOF.
fn read_full(f: &mut std::fs::File, buf: &mut [u8]) -> std::io::Result<usize> {
    let mut done = 0;
    while done < buf.len() {
        match f.read(&mut buf[done..]) {
            Ok(0) => break,
            Ok(n) => done += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    Ok(done)
}

/// Scans `dir` without mutating anything.
pub fn scan(dir: &Path) -> std::io::Result<ScanReport> {
    Ok(RecReader::open(dir)?.scan_to_end())
}

/// Makes `dir` clean: if the scan finds a tear, the torn segment is
/// truncated at the last valid byte and every later segment is deleted.
/// Returns the post-recovery report (never torn).
pub fn recover(dir: &Path) -> std::io::Result<ScanReport> {
    let report = scan(dir)?;
    let Some(torn) = &report.torn else {
        return Ok(report);
    };
    if torn.valid_len == 0 {
        // Nothing valid in this segment at all: drop the whole file.
        std::fs::remove_file(&torn.path)?;
    } else {
        let fd = xdaq_sys::openat(&torn.path, xdaq_sys::OPEN_RDWR, xdaq_sys::MODE_0644)
            .map_err(std::io::Error::from_raw_os_error)?;
        // SAFETY: fd freshly opened, owned only here.
        let file = unsafe { <std::fs::File as std::os::fd::FromRawFd>::from_raw_fd(fd) };
        xdaq_sys::ftruncate(fd, torn.valid_len).map_err(std::io::Error::from_raw_os_error)?;
        xdaq_sys::fdatasync(fd).map_err(std::io::Error::from_raw_os_error)?;
        drop(file);
    }
    for (seq, path) in list_segments(dir)? {
        if seq > torn.seq {
            std::fs::remove_file(path)?;
        }
    }
    let clean = scan(dir)?;
    debug_assert!(clean.torn.is_none(), "recovery left a tear behind");
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::writer::{RecConfig, RecWriter};
    use std::io::IoSlice;
    use std::path::PathBuf;

    fn tmp_dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("xdaq-rec-rd-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    fn write_records(dir: &Path, n: usize) {
        let mut cfg = RecConfig::new(dir);
        cfg.segment_bytes = 256; // force several segments
        let mut w = RecWriter::create(cfg).unwrap();
        for i in 0..n {
            let body = vec![i as u8; 16 + i % 32];
            w.append(&[IoSlice::new(&body)]).unwrap();
        }
        w.sync().unwrap();
    }

    #[test]
    fn clean_roundtrip_across_segments() {
        let dir = tmp_dir("clean");
        write_records(&dir, 40);
        let mut r = RecReader::open(&dir).unwrap();
        let mut i = 0usize;
        while let Some(rec) = r.next() {
            assert_eq!(rec, vec![i as u8; 16 + i % 32]);
            i += 1;
        }
        assert_eq!(i, 40);
        assert!(r.torn().is_none());
        let report = scan(&dir).unwrap();
        assert_eq!(report.records, 40);
        assert!(report.segments > 1, "rotation produced several segments");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_detected_and_recovered() {
        let dir = tmp_dir("torn");
        {
            // Single large segment so the tear lands inside a record.
            let mut w = RecWriter::create(RecConfig::new(&dir)).unwrap();
            for i in 0..10usize {
                let body = vec![i as u8; 16 + i % 32];
                w.append(&[IoSlice::new(&body)]).unwrap();
            }
            w.sync().unwrap();
        }
        // Tear the last segment mid-record: chop 5 bytes off.
        let (_, last) = list_segments(&dir).unwrap().pop().unwrap();
        let bytes = std::fs::read(&last).unwrap();
        std::fs::write(&last, &bytes[..bytes.len() - 5]).unwrap();
        let report = scan(&dir).unwrap();
        let torn = report.torn.clone().expect("tear detected");
        assert!(report.records < 10);
        assert!(torn.reason.contains("truncated"), "reason: {}", torn.reason);
        let clean = recover(&dir).unwrap();
        assert!(clean.torn.is_none());
        assert_eq!(clean.records, report.records, "complete prefix kept");
        assert_eq!(
            std::fs::metadata(&torn.path).unwrap().len(),
            torn.valid_len,
            "file cut exactly at the boundary"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn crc_corruption_detected() {
        let dir = tmp_dir("crc");
        write_records(&dir, 3);
        let (_, seg) = list_segments(&dir).unwrap().remove(0);
        let mut bytes = std::fs::read(&seg).unwrap();
        let n = bytes.len();
        bytes[n - 1] ^= 0xFF; // flip a payload bit of the last record
        std::fs::write(&seg, &bytes).unwrap();
        let report = scan(&dir).unwrap();
        assert_eq!(report.records, 2);
        assert!(report.torn.unwrap().reason.contains("CRC"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn empty_dir_scans_clean() {
        let dir = tmp_dir("empty");
        std::fs::create_dir_all(&dir).unwrap();
        let report = scan(&dir).unwrap();
        assert_eq!(report.records, 0);
        assert!(report.torn.is_none());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
