//! The append path: segmented, crash-consistent, zero-copy.
//!
//! [`RecWriter`] owns the current segment file and appends records with
//! a single gathered `pwritev` per record: one iovec for the 8-byte
//! length+CRC framing, then the caller's iovecs *as given* — when those
//! point into pool blocks (the Recorder's one frame), the payload travels
//! from pool memory to the page cache without ever being copied into an
//! intermediate buffer.
//!
//! Durability is batched: appends dirty the page cache only, and
//! [`RecWriter::maybe_sync`] issues `fdatasync` once the configured
//! byte budget or time interval is exceeded.

use crate::segment::{encode_framing, encode_header, list_segments, segment_path, SEG_HEADER_LEN};
use std::io::IoSlice;
use std::os::fd::FromRawFd;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// The durability interval: `maybe_sync` issues `fdatasync` once the
/// oldest un-synced byte is this old, so an acknowledged record is on
/// stable storage at most this long after it was appended.
pub const FSYNC_INTERVAL: Duration = Duration::from_millis(50);

/// Tuning knobs of the append path.
#[derive(Debug, Clone)]
pub struct RecConfig {
    /// Directory holding the segment files (created if missing).
    pub dir: PathBuf,
    /// Rotate to a new segment once the current one reaches this size.
    pub segment_bytes: u64,
    /// `maybe_sync` issues `fdatasync` after this many un-synced bytes
    /// (or once [`FSYNC_INTERVAL`] has passed).
    pub fsync_bytes: u64,
}

impl RecConfig {
    /// Defaults: 64 MiB segments, sync every 4 MiB or 50 ms.
    pub fn new(dir: impl Into<PathBuf>) -> RecConfig {
        RecConfig {
            dir: dir.into(),
            segment_bytes: 64 * 1024 * 1024,
            fsync_bytes: 4 * 1024 * 1024,
        }
    }
}

fn errno_io(op: &'static str, errno: i32) -> std::io::Error {
    let e = std::io::Error::from_raw_os_error(errno);
    std::io::Error::new(e.kind(), format!("{op}: {e}"))
}

/// Append-only writer over a directory of segments.
pub struct RecWriter {
    cfg: RecConfig,
    /// Owns the fd so it closes on drop; raw syscalls use `fd`.
    _file: std::fs::File,
    fd: i32,
    seq: u64,
    offset: u64,
    records: u64,
    segments_started: u64,
    dirty_bytes: u64,
    dirty_since: Option<Instant>,
}

impl RecWriter {
    /// Opens a writer on `cfg.dir`, starting a fresh segment after any
    /// existing ones (an existing recording is never overwritten).
    pub fn create(cfg: RecConfig) -> std::io::Result<RecWriter> {
        std::fs::create_dir_all(&cfg.dir)?;
        let next_seq = list_segments(&cfg.dir)?
            .last()
            .map(|(seq, _)| seq + 1)
            .unwrap_or(0);
        let (file, fd) = open_segment(&cfg.dir, next_seq)?;
        let mut w = RecWriter {
            cfg,
            _file: file,
            fd,
            seq: next_seq,
            offset: 0,
            records: 0,
            segments_started: 1,
            dirty_bytes: 0,
            dirty_since: None,
        };
        w.write_segment_header()?;
        Ok(w)
    }

    fn write_segment_header(&mut self) -> std::io::Result<()> {
        let header = encode_header(self.seq);
        self.write_all(&[IoSlice::new(&header)], SEG_HEADER_LEN as u64)?;
        Ok(())
    }

    /// Appends one record whose payload is the concatenation of
    /// `parts`. One gathered `pwritev` per attempt; the payload iovecs
    /// are the caller's own slices, so a record built from pool blocks
    /// is written with zero payload copies. Returns the record's byte
    /// offset within the current segment.
    pub fn append(&mut self, parts: &[IoSlice<'_>]) -> std::io::Result<u64> {
        let payload_len: usize = parts.iter().map(|p| p.len()).sum();
        let framing = encode_framing(parts);
        let mut iov = Vec::with_capacity(parts.len() + 1);
        iov.push(IoSlice::new(&framing));
        iov.extend(parts.iter().map(|p| IoSlice::new(p)));
        let total = framing.len() + payload_len;
        let at = self.offset;
        self.write_all(&iov, total as u64)?;
        self.records += 1;
        if self.offset >= self.cfg.segment_bytes {
            self.rotate()?;
        }
        Ok(at)
    }

    /// Gathered write at the current offset, looping on short writes
    /// (the kernel may commit only a prefix of a large iovec list).
    fn write_all(&mut self, iov: &[IoSlice<'_>], total: u64) -> std::io::Result<()> {
        // IoSlice is ABI-compatible with struct iovec; view it as the
        // raw form so short-write continuation can adjust base/len
        // without touching lifetimes.
        let mut raw: Vec<xdaq_sys::IoVec> = iov
            .iter()
            .map(|s| xdaq_sys::IoVec {
                base: s.as_ptr(),
                len: s.len(),
            })
            .collect();
        let mut written = 0u64;
        let mut first = 0usize;
        while written < total {
            // SAFETY: every iovec derives from a live `IoSlice` borrow
            // held by `iov` for the duration of this call.
            let n = unsafe { xdaq_sys::pwritev(self.fd, &raw[first..], self.offset + written) }
                .map_err(|e| errno_io("pwritev", e))?;
            if n == 0 {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::WriteZero,
                    "pwritev wrote nothing",
                ));
            }
            written += n as u64;
            let mut advanced = n;
            while first < raw.len() && advanced >= raw[first].len {
                advanced -= raw[first].len;
                first += 1;
            }
            if advanced > 0 {
                // SAFETY: offsetting within the same live buffer.
                raw[first].base = unsafe { raw[first].base.add(advanced) };
                raw[first].len -= advanced;
            }
        }
        self.offset += total;
        self.dirty_bytes += total;
        if self.dirty_since.is_none() {
            self.dirty_since = Some(Instant::now());
        }
        Ok(())
    }

    /// Closes the current segment (after an `fdatasync`) and starts the
    /// next one.
    pub fn rotate(&mut self) -> std::io::Result<()> {
        self.sync()?;
        let next = self.seq + 1;
        let (file, fd) = open_segment(&self.cfg.dir, next)?;
        self._file = file;
        self.fd = fd;
        self.seq = next;
        self.offset = 0;
        self.segments_started += 1;
        self.write_segment_header()
    }

    /// Forces everything appended so far onto stable storage; returns
    /// the `fdatasync` latency, or `None` when nothing was dirty.
    pub fn sync(&mut self) -> std::io::Result<Option<Duration>> {
        if self.dirty_bytes == 0 {
            return Ok(None);
        }
        let started = Instant::now();
        xdaq_sys::fdatasync(self.fd).map_err(|e| errno_io("fdatasync", e))?;
        self.dirty_bytes = 0;
        self.dirty_since = None;
        Ok(Some(started.elapsed()))
    }

    /// Applies the batching policy: syncs iff the dirty-byte budget or
    /// the durability interval is exceeded.
    pub fn maybe_sync(&mut self) -> std::io::Result<Option<Duration>> {
        let over_bytes = self.dirty_bytes >= self.cfg.fsync_bytes;
        let over_age = self
            .dirty_since
            .is_some_and(|t| t.elapsed() >= FSYNC_INTERVAL);
        if over_bytes || over_age {
            self.sync()
        } else {
            Ok(None)
        }
    }

    /// Bytes appended but not yet known durable.
    pub fn dirty_bytes(&self) -> u64 {
        self.dirty_bytes
    }

    /// Records appended through this writer.
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Segments this writer has started (1 after `create`).
    pub fn segments_started(&self) -> u64 {
        self.segments_started
    }

    /// Sequence number of the segment currently being appended to.
    pub fn segment_seq(&self) -> u64 {
        self.seq
    }

    /// The recording directory.
    pub fn dir(&self) -> &Path {
        &self.cfg.dir
    }
}

impl Drop for RecWriter {
    fn drop(&mut self) {
        let _ = self.sync();
    }
}

fn open_segment(dir: &Path, seq: u64) -> std::io::Result<(std::fs::File, i32)> {
    let path = segment_path(dir, seq);
    let fd = xdaq_sys::openat(&path, xdaq_sys::OPEN_APPENDABLE, xdaq_sys::MODE_0644)
        .map_err(|e| errno_io("openat", e))?;
    // SAFETY: fd was just returned by openat and is owned here alone.
    let file = unsafe { std::fs::File::from_raw_fd(fd) };
    Ok((file, fd))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("xdaq-rec-wr-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn append_writes_framed_records() {
        let dir = tmp_dir("framed");
        let mut w = RecWriter::create(RecConfig::new(&dir)).unwrap();
        let at = w
            .append(&[IoSlice::new(b"abc"), IoSlice::new(b"defg")])
            .unwrap();
        assert_eq!(at, SEG_HEADER_LEN as u64);
        w.sync().unwrap();
        let bytes = std::fs::read(segment_path(&dir, 0)).unwrap();
        let body = &bytes[SEG_HEADER_LEN..];
        assert_eq!(&body[..4], &7u32.to_le_bytes());
        assert_eq!(
            &body[4..8],
            &crate::crc::crc32(b"abcdefg").to_le_bytes(),
            "CRC covers the gathered payload"
        );
        assert_eq!(&body[8..], b"abcdefg");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rotation_by_size() {
        let dir = tmp_dir("rotate");
        let mut cfg = RecConfig::new(&dir);
        cfg.segment_bytes = 64; // tiny: every append rotates
        let mut w = RecWriter::create(cfg).unwrap();
        for _ in 0..3 {
            w.append(&[IoSlice::new(&[0u8; 100])]).unwrap();
        }
        assert_eq!(w.segments_started(), 4, "three rotations happened");
        assert_eq!(list_segments(&dir).unwrap().len(), 4);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn create_appends_after_existing_segments() {
        let dir = tmp_dir("resume");
        {
            let mut w = RecWriter::create(RecConfig::new(&dir)).unwrap();
            w.append(&[IoSlice::new(b"first run")]).unwrap();
        }
        let w = RecWriter::create(RecConfig::new(&dir)).unwrap();
        assert_eq!(w.segment_seq(), 1, "new run starts a new segment");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn sync_batching_tracks_dirty_bytes() {
        let dir = tmp_dir("dirty");
        let mut cfg = RecConfig::new(&dir);
        cfg.fsync_bytes = 1024;
        let mut w = RecWriter::create(cfg).unwrap();
        let appended = Instant::now();
        w.append(&[IoSlice::new(&[1u8; 100])]).unwrap();
        assert!(w.dirty_bytes() > 0);
        let synced = w.maybe_sync().unwrap();
        // Only a stall past the durability interval may sync here.
        if appended.elapsed() < FSYNC_INTERVAL {
            assert!(synced.is_none(), "under both thresholds");
        }
        w.append(&[IoSlice::new(&[2u8; 2000])]).unwrap();
        assert!(w.maybe_sync().unwrap().is_some(), "byte budget exceeded");
        assert_eq!(w.dirty_bytes(), 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
