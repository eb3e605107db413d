//! A fixed-size random-access backing file for `BlockStorage`-style
//! devices.
//!
//! Where the segment store is append-only, a [`BlockFile`] is a plain
//! preallocated byte array on disk: the block-storage device class maps
//! its BSA address space straight onto it, so writes survive process
//! restarts. Writes go through the same raw `pwritev` as the recorder
//! (gathered, positional, no libc); reads use `std`'s positional read.

use std::io::IoSlice;
use std::os::fd::FromRawFd;
use std::os::unix::fs::FileExt;
use std::path::Path;

fn errno_io(op: &'static str, errno: i32) -> std::io::Error {
    let e = std::io::Error::from_raw_os_error(errno);
    std::io::Error::new(e.kind(), format!("{op}: {e}"))
}

/// A preallocated random-access file of exactly `len` bytes.
pub struct BlockFile {
    file: std::fs::File,
    fd: i32,
    len: u64,
}

impl BlockFile {
    /// Opens (creating if needed) `path` and sizes it to exactly `len`
    /// bytes. An existing file keeps its contents up to `len`; a fresh
    /// one reads as zeros.
    pub fn open(path: &Path, len: u64) -> std::io::Result<BlockFile> {
        if !xdaq_sys::supported() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::Unsupported,
                "xdaq-rec raw-syscall backend unavailable on this target",
            ));
        }
        let fd = xdaq_sys::openat(path, xdaq_sys::OPEN_RDWR, xdaq_sys::MODE_0644)
            .map_err(|e| errno_io("openat", e))?;
        // SAFETY: fd was just returned by openat and is owned here alone.
        let file = unsafe { std::fs::File::from_raw_fd(fd) };
        xdaq_sys::ftruncate(fd, len).map_err(|e| errno_io("ftruncate", e))?;
        Ok(BlockFile { file, fd, len })
    }

    /// Total capacity in bytes.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// True for a zero-byte file.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Gathered positional write of `parts` at `offset`. Rejects
    /// writes that would run past the fixed size rather than growing
    /// the file.
    pub fn write_at(&self, offset: u64, parts: &[IoSlice<'_>]) -> std::io::Result<()> {
        let total: u64 = parts.iter().map(|p| p.len() as u64).sum();
        if offset.checked_add(total).is_none_or(|end| end > self.len) {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                format!(
                    "write of {total} bytes at {offset} exceeds file size {}",
                    self.len
                ),
            ));
        }
        let mut raw: Vec<xdaq_sys::IoVec> = parts
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
            // held by `parts` for the duration of this call.
            let n = unsafe { xdaq_sys::pwritev(self.fd, &raw[first..], offset + written) }
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
        Ok(())
    }

    /// Positional read filling `buf` from `offset`.
    pub fn read_at(&self, offset: u64, buf: &mut [u8]) -> std::io::Result<()> {
        if offset
            .checked_add(buf.len() as u64)
            .is_none_or(|end| end > self.len)
        {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                format!(
                    "read of {} bytes at {offset} exceeds file size {}",
                    buf.len(),
                    self.len
                ),
            ));
        }
        self.file.read_exact_at(buf, offset)
    }

    /// Flushes file data to stable storage.
    pub fn sync(&self) -> std::io::Result<()> {
        xdaq_sys::fdatasync(self.fd).map_err(|e| errno_io("fdatasync", e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn tmp_file(tag: &str) -> PathBuf {
        let p = std::env::temp_dir().join(format!("xdaq-rec-bf-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_file(&p);
        p
    }

    #[test]
    fn write_read_roundtrip_survives_reopen() {
        if !xdaq_sys::supported() {
            return;
        }
        let path = tmp_file("rt");
        {
            let bf = BlockFile::open(&path, 4096).unwrap();
            bf.write_at(512, &[IoSlice::new(b"dur"), IoSlice::new(b"able")])
                .unwrap();
            bf.sync().unwrap();
        }
        let bf = BlockFile::open(&path, 4096).unwrap();
        let mut buf = [0u8; 7];
        bf.read_at(512, &mut buf).unwrap();
        assert_eq!(&buf, b"durable");
        let mut zeros = [0xAAu8; 4];
        bf.read_at(0, &mut zeros).unwrap();
        assert_eq!(zeros, [0u8; 4], "fresh space reads as zeros");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn out_of_range_io_rejected() {
        if !xdaq_sys::supported() {
            return;
        }
        let path = tmp_file("oob");
        let bf = BlockFile::open(&path, 128).unwrap();
        assert!(bf.write_at(120, &[IoSlice::new(&[0u8; 16])]).is_err());
        assert!(bf.write_at(u64::MAX, &[IoSlice::new(b"x")]).is_err());
        let mut buf = [0u8; 16];
        assert!(bf.read_at(120, &mut buf).is_err());
        bf.write_at(112, &[IoSlice::new(&[7u8; 16])]).unwrap();
        std::fs::remove_file(&path).unwrap();
    }
}
