//! The workspace's one raw-syscall layer.
//!
//! The build environment vendors no `libc`, so the kernel services the
//! product needs and `std` does not offer are issued directly via
//! inline assembly on the supported Linux targets (x86_64, aarch64):
//!
//! * `xdaq-shm`: `mmap`/`munmap` for the region;
//! * `xdaq-pt` (`xpt://`): the `eventfd2` doorbell and the `epoll`
//!   family its driver sleeps in;
//! * `xdaq-rec`: `openat` to create segment files, `pwritev` for
//!   gathered zero-copy appends (a frame's pool block becomes an iovec
//!   directly), `fdatasync` for the durability interval
//!   and `ftruncate` to cut a torn tail during crash recovery.
//!
//! Everything else (sockets, file reads, `/proc`, eventfd reads and
//! writes) goes through `std`. This is the only file under `crates/`
//! allowed to contain `asm!` (`scripts/ci.sh` checks).
//!
//! Linux on x86_64 and aarch64 is the one supported platform; any
//! other target fails to compile here.
//!
//! Errors are raw positive errno values.

#[cfg(not(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
)))]
compile_error!("xdaq-sys supports Linux on x86_64 and aarch64 only");

/// Errno for an interrupted syscall: waits report it as a timeout,
/// writes and syncs retry.
pub const EINTR: i32 = 4;

/// `O_WRONLY | O_CREAT | O_CLOEXEC` (generic Linux flag values shared
/// by x86_64 and aarch64).
pub const OPEN_APPENDABLE: usize = 0o1 | 0o100 | 0o2000000;
/// `O_RDWR | O_CREAT | O_CLOEXEC`.
pub const OPEN_RDWR: usize = 0o2 | 0o100 | 0o2000000;
/// Segment file creation mode (0644).
pub const MODE_0644: usize = 0o644;

/// `epoll_ctl` op: add an fd to the interest set.
pub const EPOLL_CTL_ADD: usize = 1;
/// `epoll_ctl` op: remove an fd from the interest set.
pub const EPOLL_CTL_DEL: usize = 2;
/// `epoll_ctl` op: change an fd's interest mask.
pub const EPOLL_CTL_MOD: usize = 3;
/// Readable.
pub const EPOLLIN: u32 = 0x001;
/// Writable.
pub const EPOLLOUT: u32 = 0x004;
/// Error condition (always reported; listed for clarity).
pub const EPOLLERR: u32 = 0x008;
/// Peer hung up.
pub const EPOLLHUP: u32 = 0x010;

/// `struct epoll_event`. The kernel packs this on x86_64 only.
#[cfg_attr(target_arch = "x86_64", repr(C, packed))]
#[cfg_attr(not(target_arch = "x86_64"), repr(C))]
#[derive(Clone, Copy, Default)]
pub struct EpollEvent {
    pub events: u32,
    pub data: u64,
}

/// `struct iovec` — identical layout to `std::io::IoSlice`, which the
/// standard library guarantees to be ABI-compatible with `iovec` on
/// Unix. The recorder passes `IoSlice` arrays straight to the kernel.
#[repr(C)]
#[derive(Clone, Copy)]
pub struct IoVec {
    /// Starting address.
    pub base: *const u8,
    /// Length in bytes.
    pub len: usize,
}

mod imp {
    use super::{EpollEvent, IoVec, EINTR};
    use std::path::Path;

    /// # Safety
    /// Caller must pass arguments valid for the given syscall number.
    #[cfg(target_arch = "x86_64")]
    unsafe fn syscall6(
        nr: usize,
        a1: usize,
        a2: usize,
        a3: usize,
        a4: usize,
        a5: usize,
        a6: usize,
    ) -> isize {
        let ret: isize;
        core::arch::asm!(
            "syscall",
            inlateout("rax") nr => ret,
            in("rdi") a1,
            in("rsi") a2,
            in("rdx") a3,
            in("r10") a4,
            in("r8") a5,
            in("r9") a6,
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack),
        );
        ret
    }

    /// # Safety
    /// Caller must pass arguments valid for the given syscall number.
    #[cfg(target_arch = "aarch64")]
    unsafe fn syscall6(
        nr: usize,
        a1: usize,
        a2: usize,
        a3: usize,
        a4: usize,
        a5: usize,
        a6: usize,
    ) -> isize {
        let ret: isize;
        core::arch::asm!(
            "svc 0",
            inlateout("x0") a1 => ret,
            in("x1") a2,
            in("x2") a3,
            in("x3") a4,
            in("x4") a5,
            in("x5") a6,
            in("x8") nr,
            options(nostack),
        );
        ret
    }

    /// Picks this target's column of the syscall-number table below.
    const fn nr(x86_64: usize, aarch64: usize) -> usize {
        if cfg!(target_arch = "x86_64") {
            x86_64
        } else {
            aarch64
        }
    }

    // Syscall numbers: (x86_64, aarch64).
    const SYS_MMAP: usize = nr(9, 222);
    const SYS_MUNMAP: usize = nr(11, 215);
    const SYS_EVENTFD2: usize = nr(290, 19);
    const SYS_EPOLL_CREATE1: usize = nr(291, 20);
    const SYS_EPOLL_CTL: usize = nr(233, 21);
    const SYS_EPOLL_PWAIT: usize = nr(281, 22);
    const SYS_OPENAT: usize = nr(257, 56);
    const SYS_PWRITEV: usize = nr(296, 70);
    const SYS_FDATASYNC: usize = nr(75, 83);
    const SYS_FTRUNCATE: usize = nr(77, 46);

    /// `PROT_READ | PROT_WRITE`.
    const PROT_RW: usize = 0x3;
    /// `MAP_SHARED`.
    const MAP_SHARED: usize = 0x1;
    /// `EFD_CLOEXEC | EFD_NONBLOCK`.
    const EFD_FLAGS: usize = 0o2000000 | 0o4000;
    /// `EPOLL_CLOEXEC`.
    const EPOLL_CLOEXEC: usize = 0o2000000;
    /// `AT_FDCWD`: resolve paths relative to the working directory.
    const AT_FDCWD: isize = -100;
    /// `sizeof(sigset_t)` the kernel expects next to a null sigmask.
    const SIGSET_SIZE: usize = 8;

    fn check(ret: isize) -> Result<usize, i32> {
        if (-4095..0).contains(&ret) {
            Err(-ret as i32)
        } else {
            Ok(ret as usize)
        }
    }

    /// `path` as the NUL-terminated buffer the kernel wants.
    fn c_path(path: &Path) -> Vec<u8> {
        use std::os::unix::ffi::OsStrExt;
        let mut bytes = path.as_os_str().as_bytes().to_vec();
        bytes.push(0);
        bytes
    }

    /// Maps `len` bytes of `fd` shared read/write.
    pub fn mmap_shared(fd: i32, len: usize) -> Result<*mut u8, i32> {
        // SAFETY: all-arguments-by-value syscall; the kernel validates.
        let ret = unsafe { syscall6(SYS_MMAP, 0, len, PROT_RW, MAP_SHARED, fd as usize, 0) };
        check(ret).map(|p| p as *mut u8)
    }

    /// Unmaps a region previously returned by [`mmap_shared`].
    ///
    /// # Safety
    /// `(ptr, len)` must be an exact live mapping with no outstanding
    /// references into it.
    pub unsafe fn munmap(ptr: *mut u8, len: usize) -> Result<(), i32> {
        check(syscall6(SYS_MUNMAP, ptr as usize, len, 0, 0, 0, 0)).map(|_| ())
    }

    /// New nonblocking close-on-exec eventfd.
    pub fn eventfd() -> Result<i32, i32> {
        // SAFETY: plain value arguments.
        let ret = unsafe { syscall6(SYS_EVENTFD2, 0, EFD_FLAGS, 0, 0, 0, 0) };
        check(ret).map(|fd| fd as i32)
    }

    /// New close-on-exec epoll instance.
    pub fn epoll_create() -> Result<i32, i32> {
        // SAFETY: plain value argument.
        let ret = unsafe { syscall6(SYS_EPOLL_CREATE1, EPOLL_CLOEXEC, 0, 0, 0, 0, 0) };
        check(ret).map(|fd| fd as i32)
    }

    /// Add/modify/delete `fd` in `epfd`'s interest set.
    pub fn epoll_ctl(epfd: i32, op: usize, fd: i32, events: u32, data: u64) -> Result<(), i32> {
        let ev = EpollEvent { events, data };
        // SAFETY: ev outlives the call; DEL ignores the event pointer.
        let ret = unsafe {
            syscall6(
                SYS_EPOLL_CTL,
                epfd as usize,
                op,
                fd as usize,
                &ev as *const EpollEvent as usize,
                0,
                0,
            )
        };
        check(ret).map(|_| ())
    }

    /// Waits up to `timeout_ms` for events; returns the ready count.
    pub fn epoll_wait(epfd: i32, events: &mut [EpollEvent], timeout_ms: i32) -> Result<usize, i32> {
        // SAFETY: events is a live mutable buffer; null sigmask allowed.
        let ret = unsafe {
            syscall6(
                SYS_EPOLL_PWAIT,
                epfd as usize,
                events.as_mut_ptr() as usize,
                events.len(),
                timeout_ms as usize,
                0,
                SIGSET_SIZE,
            )
        };
        match check(ret) {
            Ok(n) => Ok(n),
            // Treat as a timeout; callers loop anyway.
            Err(EINTR) => Ok(0),
            Err(e) => Err(e),
        }
    }

    /// Opens (creating if needed) `path` with raw `flags`/`mode`,
    /// returning the file descriptor. The caller owns the fd.
    pub fn openat(path: &Path, flags: usize, mode: usize) -> Result<i32, i32> {
        let bytes = c_path(path);
        // SAFETY: bytes is a live NUL-terminated path buffer.
        let ret = unsafe {
            syscall6(
                SYS_OPENAT,
                AT_FDCWD as usize,
                bytes.as_ptr() as usize,
                flags,
                mode,
                0,
                0,
            )
        };
        check(ret).map(|fd| fd as i32)
    }

    /// Gathered positional write: writes the iovec list at `offset`
    /// without moving the file cursor. Returns bytes written (the
    /// kernel may write a prefix; callers loop). Retries `EINTR`.
    ///
    /// # Safety
    /// Every iovec must reference live, readable memory for the whole
    /// call.
    pub unsafe fn pwritev(fd: i32, iov: &[IoVec], offset: u64) -> Result<usize, i32> {
        loop {
            let ret = syscall6(
                SYS_PWRITEV,
                fd as usize,
                iov.as_ptr() as usize,
                iov.len(),
                // Both supported targets are 64-bit: the kernel takes
                // the whole offset from pos_l and ignores pos_h.
                offset as usize,
                0,
                0,
            );
            match check(ret) {
                Err(EINTR) => continue,
                other => return other,
            }
        }
    }

    /// Flushes file *data* (not metadata timestamps) to stable storage
    /// — the durability point of the fsync-batching interval.
    pub fn fdatasync(fd: i32) -> Result<(), i32> {
        loop {
            // SAFETY: plain value arguments.
            let ret = unsafe { syscall6(SYS_FDATASYNC, fd as usize, 0, 0, 0, 0, 0) };
            match check(ret) {
                Err(EINTR) => continue,
                other => return other.map(|_| ()),
            }
        }
    }

    /// Truncates the file to `len` bytes — how recovery removes a torn
    /// tail record.
    pub fn ftruncate(fd: i32, len: u64) -> Result<(), i32> {
        // SAFETY: plain value arguments.
        let ret = unsafe { syscall6(SYS_FTRUNCATE, fd as usize, len as usize, 0, 0, 0, 0) };
        check(ret).map(|_| ())
    }
}

pub use imp::{
    epoll_create, epoll_ctl, epoll_wait, eventfd, fdatasync, ftruncate, mmap_shared, munmap,
    openat, pwritev,
};

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs::File;
    use std::io::{Read, Write};
    use std::mem::size_of;
    use std::os::fd::{AsRawFd, FromRawFd};

    fn temp_path(what: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("xdaq-sys-{what}-{}", std::process::id()))
    }

    #[test]
    fn abi_struct_sizes_match_kernel() {
        let epoll_event = if cfg!(target_arch = "x86_64") { 12 } else { 16 };
        assert_eq!(size_of::<EpollEvent>(), epoll_event);
        assert_eq!(size_of::<IoVec>(), size_of::<std::io::IoSlice<'_>>());
        assert_eq!(size_of::<IoVec>(), 16);
    }

    #[test]
    fn eventfd_ring_is_seen_by_epoll() {
        let ep = epoll_create().expect("epoll_create");
        let ev = eventfd().expect("eventfd");
        // SAFETY: both are fresh fds owned solely by this test.
        let (_ep_owner, mut bell) = unsafe { (File::from_raw_fd(ep), File::from_raw_fd(ev)) };
        epoll_ctl(ep, EPOLL_CTL_ADD, ev, EPOLLIN, 7).expect("ctl add");

        let mut events = [EpollEvent::default(); 4];
        assert_eq!(epoll_wait(ep, &mut events, 0), Ok(0), "idle eventfd");

        bell.write_all(&1u64.to_ne_bytes()).unwrap();
        assert_eq!(epoll_wait(ep, &mut events, 100), Ok(1));
        // Copy out of the (packed on x86_64) struct before borrowing.
        let (events0, data0) = (events[0].events, events[0].data);
        assert_ne!(events0 & EPOLLIN, 0);
        assert_eq!(data0, 7);

        let mut buf = [0u8; 8];
        bell.read_exact(&mut buf).unwrap();
        assert_eq!(u64::from_ne_bytes(buf), 1);
        epoll_ctl(ep, EPOLL_CTL_DEL, ev, 0, 0).expect("ctl del");
    }

    #[test]
    fn mmap_shared_round_trip() {
        let path = temp_path("mmap");
        let file = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(&path)
            .unwrap();
        file.set_len(4096).unwrap();
        let ptr = mmap_shared(file.as_raw_fd(), 4096).expect("mmap");
        // SAFETY: fresh exclusive mapping of 4096 bytes.
        unsafe {
            ptr.write(0xAB);
            assert_eq!(ptr.read(), 0xAB);
            munmap(ptr, 4096).unwrap();
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn openat_pwritev_fdatasync_ftruncate_round_trip() {
        let path = temp_path("file");
        let fd = openat(&path, OPEN_RDWR, MODE_0644).expect("openat");
        assert!(fd >= 0);
        // SAFETY: fresh fd; owned through std so it closes on drop.
        let file = unsafe { File::from_raw_fd(fd) };
        let a = b"hello ";
        let b = b"gathered world";
        let iov = [
            IoVec {
                base: a.as_ptr(),
                len: a.len(),
            },
            IoVec {
                base: b.as_ptr(),
                len: b.len(),
            },
        ];
        // SAFETY: both slices outlive the call.
        let n = unsafe { pwritev(fd, &iov, 0) }.expect("pwritev");
        assert_eq!(n, a.len() + b.len());
        fdatasync(fd).expect("fdatasync");
        ftruncate(fd, 5).expect("ftruncate");
        drop(file);
        assert_eq!(std::fs::read(&path).unwrap(), b"hello");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn pwritev_honours_offsets_past_4_gib() {
        let path = temp_path("sparse");
        let fd = openat(&path, OPEN_RDWR, MODE_0644).expect("openat");
        // SAFETY: fresh fd; owned through std so it closes on drop.
        let file = unsafe { File::from_raw_fd(fd) };
        let offset = (1u64 << 32) + 3;
        let iov = [IoVec {
            base: b"tail".as_ptr(),
            len: 4,
        }];
        // SAFETY: the static slice outlives the call.
        assert_eq!(unsafe { pwritev(fd, &iov, offset) }, Ok(4));
        assert_eq!(file.metadata().unwrap().len(), offset + 4);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn openat_reports_missing_directory() {
        let path = std::path::Path::new("/nonexistent-xdaq-sys/seg");
        assert!(openat(path, OPEN_APPENDABLE, MODE_0644).is_err());
    }
}
