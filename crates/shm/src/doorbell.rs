//! Eventfd doorbells with a FIFO fallback.
//!
//! Each attached process owns one nonblocking eventfd. Its `(pid, fd)`
//! pair is published in the region header; the peer process reopens
//! the fd through `/proc/<pid>/fd/<fd>` (same-user access) and writes
//! to it to wake the sleeper. Some kernels refuse to reopen anonymous
//! inodes through procfs (`ENXIO`), so each side additionally creates
//! a small named FIFO next to the region file (`<region>.bell<side>`)
//! that the peer can always open by path; the sleeper ppolls the
//! eventfd and the FIFO together. Senders ring only when the receiver
//! has advertised `waiting = 1`, so the doorbell costs nothing on the
//! busy path; a sleeping receiver additionally bounds its `ppoll` with
//! a short timeout, which doubles as the liveness-check cadence should
//! both wake paths ever fail.

use std::fs::File;
use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use std::time::Duration;

/// `O_NONBLOCK` for `OpenOptionsExt::custom_flags`.
const O_NONBLOCK: i32 = 0o4000;

/// Path of the FIFO doorbell for `side` of the region at `region_path`.
pub fn bell_path(region_path: &Path, side: usize) -> PathBuf {
    let mut os = region_path.as_os_str().to_os_string();
    os.push(format!(".bell{side}"));
    PathBuf::from(os)
}

/// This process's wakeable doorbell.
pub struct Doorbell {
    file: File,
    fd: i32,
    /// FIFO fallback: receive end held `O_RDWR|O_NONBLOCK` (an RDWR
    /// open of a FIFO never blocks and keeps the read side alive).
    fifo: Option<File>,
    fifo_path: Option<PathBuf>,
}

impl Doorbell {
    /// Creates a fresh eventfd doorbell (no FIFO fallback).
    pub fn new() -> Result<Doorbell, String> {
        let fd = xdaq_sys::eventfd().map_err(|e| format!("eventfd: errno {e}"))?;
        // SAFETY: fd is a fresh eventfd owned exclusively by this File.
        let file = unsafe {
            use std::os::fd::FromRawFd;
            File::from_raw_fd(fd)
        };
        Ok(Doorbell {
            file,
            fd,
            fifo: None,
            fifo_path: None,
        })
    }

    /// Creates a doorbell with its FIFO fallback at
    /// [`bell_path`]`(region_path, side)`.
    pub fn for_region(region_path: &Path, side: usize) -> Result<Doorbell, String> {
        let mut bell = Doorbell::new()?;
        let path = bell_path(region_path, side);
        xdaq_sys::mkfifo(&path).map_err(|e| format!("mkfifo {}: errno {e}", path.display()))?;
        use std::os::unix::fs::OpenOptionsExt;
        let fifo = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .custom_flags(O_NONBLOCK)
            .open(&path)
            .map_err(|e| format!("open {}: {e}", path.display()))?;
        bell.fifo = Some(fifo);
        bell.fifo_path = Some(path);
        Ok(bell)
    }

    /// Raw eventfd to publish in the region header.
    pub fn fd(&self) -> i32 {
        self.fd
    }

    /// Every fd a sleeper should ppoll (eventfd, plus the FIFO when
    /// present).
    pub fn poll_fds(&self, out: &mut Vec<i32>) {
        out.push(self.fd);
        if let Some(fifo) = &self.fifo {
            use std::os::fd::AsRawFd;
            out.push(fifo.as_raw_fd());
        }
    }

    /// Consumes any pending signal on both wake paths (nonblocking).
    pub fn drain(&self) {
        let mut buf = [0u8; 8];
        let _ = (&self.file).read(&mut buf);
        if let Some(fifo) = &self.fifo {
            let mut sink = [0u8; 64];
            while matches!((fifo as &File).read(&mut sink), Ok(n) if n > 0) {}
        }
    }

    /// Wakes this doorbell from the owning process (used by `stop` to
    /// unblock the task thread).
    pub fn ring_self(&self) {
        let _ = (&self.file).write_all(&1u64.to_ne_bytes());
    }

    /// Sleeps until rung or `timeout` elapses; returns true when rung.
    /// Drains the counter before returning.
    pub fn wait(&self, timeout: Duration) -> bool {
        let mut fds = Vec::with_capacity(2);
        self.poll_fds(&mut fds);
        match xdaq_sys::ppoll_readable_many(&fds, timeout) {
            Ok(true) => {
                self.drain();
                true
            }
            _ => false,
        }
    }
}

impl Drop for Doorbell {
    fn drop(&mut self) {
        if let Some(path) = &self.fifo_path {
            let _ = std::fs::remove_file(path);
        }
    }
}

/// A peer process's doorbell: its eventfd reopened via `/proc` when
/// the kernel allows, else its FIFO opened by path.
pub struct PeerBell {
    file: Option<File>,
    pid: u32,
    fd: i32,
    fifo_path: Option<PathBuf>,
}

impl PeerBell {
    /// Binds to the peer's `(pid, fd)` pair. The `/proc` open is
    /// attempted lazily on first ring so attach order does not matter.
    pub fn new(pid: u32, fd: i32) -> PeerBell {
        PeerBell {
            file: None,
            pid,
            fd,
            fifo_path: None,
        }
    }

    /// Binds with the peer's FIFO fallback path as well.
    pub fn with_fifo(pid: u32, fd: i32, fifo_path: PathBuf) -> PeerBell {
        PeerBell {
            file: None,
            pid,
            fd,
            fifo_path: Some(fifo_path),
        }
    }

    /// Identity this bell was bound to.
    pub fn target(&self) -> (u32, i32) {
        (self.pid, self.fd)
    }

    fn open(&self) -> Option<File> {
        let path = format!("/proc/{}/fd/{}", self.pid, self.fd);
        if let Ok(f) = std::fs::OpenOptions::new().write(true).open(path) {
            return Some(f);
        }
        // Kernels without anon-inode reopen: use the named FIFO. The
        // nonblocking open only succeeds while the peer holds its read
        // end, which is exactly the liveness we want.
        let fifo = self.fifo_path.as_ref()?;
        use std::os::unix::fs::OpenOptionsExt;
        std::fs::OpenOptions::new()
            .write(true)
            .custom_flags(O_NONBLOCK)
            .open(fifo)
            .ok()
    }

    /// Rings the peer. Returns false when the peer cannot be reached
    /// on either wake path (e.g. it died); the caller falls back to
    /// the receiver's ppoll timeout.
    pub fn ring(&mut self) -> bool {
        if self.file.is_none() {
            self.file = self.open();
        }
        match &mut self.file {
            Some(f) => match f.write_all(&1u64.to_ne_bytes()) {
                Ok(()) => true,
                Err(_) => {
                    self.file = None;
                    false
                }
            },
            None => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_ring_wakes_wait() {
        let bell = Doorbell::new().unwrap();
        assert!(!bell.wait(Duration::from_millis(1)), "no signal yet");
        bell.ring_self();
        assert!(bell.wait(Duration::from_millis(50)));
        assert!(!bell.wait(Duration::from_millis(1)), "drained");
    }

    #[test]
    fn peer_bell_reaches_a_live_receiver() {
        let region = std::env::temp_dir().join(format!("xdaq-shm-bell-{}", std::process::id()));
        let bell = Doorbell::for_region(&region, 0).unwrap();
        // Our own pid stands in for a peer process: the /proc reopen
        // and FIFO open paths are identical cross-process.
        let mut peer = PeerBell::with_fifo(std::process::id(), bell.fd(), bell_path(&region, 0));
        assert!(peer.ring());
        assert!(bell.wait(Duration::from_millis(50)));
        assert!(!bell.wait(Duration::from_millis(1)), "drained");
    }

    #[test]
    fn dead_peer_ring_fails_gracefully() {
        let mut peer = PeerBell::new(u32::MAX - 7, 3);
        assert!(!peer.ring());
        let mut with_fifo = PeerBell::with_fifo(
            u32::MAX - 7,
            3,
            std::env::temp_dir().join("xdaq-shm-bell-nonexistent"),
        );
        assert!(!with_fifo.ring());
    }
}
