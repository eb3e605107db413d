//! A classic I2O Block Storage DDM.
//!
//! Paper §3.3: *"each concrete I2O device has to implement executive
//! and utility events ... Finally it must implement the interface of
//! one of the I2O devices, e.g. the Block Storage or Tape device
//! class."* This module provides that classic side of I2O — a block
//! device driven entirely by messages — to show that the same
//! executive hosts device-driver modules and DAQ applications alike.
//! It doubles as the storage stage of DAQ examples (built events
//! persisted to a "disk" node).
//!
//! The backing store is RAM by default; with the `file` parameter set
//! the BSA address space maps onto a preallocated on-disk
//! [`xdaq_rec::BlockFile`] (raw `pwritev`/`fdatasync`, same no-libc
//! syscall layer as the event recorder), so written blocks survive a
//! process restart.
//!
//! Operations are private frames using the RMI adapters
//! ([`xdaq_core::rmi`]):
//!
//! * `BSA_READ`  (block: u32, count: u32) → bytes
//! * `BSA_WRITE` (block: u32, bytes)      → blocks_written: u32
//! * `BSA_INFO`  ()                       → block_size: u32, blocks: u32
//!
//! Out-of-range addresses are answered with a `DeviceError` reply
//! (never silently truncated); malformed arguments stay `BadFrame`.

use crate::ORG_DAQ;
use std::io::IoSlice;
use xdaq_core::{ArgReader, ArgWriter, Delivery, Dispatcher, I2oListener, Skeleton};
use xdaq_i2o::{DeviceClass, ReplyStatus};
use xdaq_rec::BlockFile;

/// x-function codes of the block-storage class.
pub mod bsa {
    /// Read `count` blocks starting at `block`.
    pub const READ: u16 = 0x0030;
    /// Write bytes starting at `block`.
    pub const WRITE: u16 = 0x0031;
    /// Device geometry query.
    pub const INFO: u16 = 0x0032;
}

/// Where the blocks live.
enum Backing {
    Ram(Vec<u8>),
    Disk(BlockFile),
}

impl Backing {
    fn capacity(&self) -> usize {
        match self {
            Backing::Ram(v) => v.len(),
            Backing::Disk(f) => f.len() as usize,
        }
    }

    fn read(&self, start: usize, len: usize) -> Result<Vec<u8>, String> {
        match self {
            Backing::Ram(v) => Ok(v[start..start + len].to_vec()),
            Backing::Disk(f) => {
                let mut buf = vec![0u8; len];
                f.read_at(start as u64, &mut buf)
                    .map_err(|e| e.to_string())?;
                Ok(buf)
            }
        }
    }

    fn write(&mut self, start: usize, bytes: &[u8]) -> Result<(), String> {
        match self {
            Backing::Ram(v) => {
                v[start..start + bytes.len()].copy_from_slice(bytes);
                Ok(())
            }
            Backing::Disk(f) => f
                .write_at(start as u64, &[IoSlice::new(bytes)])
                .map_err(|e| e.to_string()),
        }
    }
}

/// Block storage device (RAM or file backed).
///
/// Parameters: `block_size` (default 512), `blocks` (default 1024),
/// `file` (optional path: durable backing).
pub struct BlockStorage {
    block_size: usize,
    backing: Backing,
    read_skel: Skeleton,
    write_skel: Skeleton,
    info_skel: Skeleton,
    /// Reads served (observable).
    pub reads: u64,
    /// Writes served (observable).
    pub writes: u64,
    configured: bool,
}

impl BlockStorage {
    /// Creates an unconfigured device (geometry read from params at
    /// plug time).
    pub fn new() -> BlockStorage {
        BlockStorage {
            block_size: 512,
            backing: Backing::Ram(Vec::new()),
            read_skel: Skeleton::new(ORG_DAQ, bsa::READ),
            write_skel: Skeleton::new(ORG_DAQ, bsa::WRITE),
            info_skel: Skeleton::new(ORG_DAQ, bsa::INFO),
            reads: 0,
            writes: 0,
            configured: false,
        }
    }

    fn configure(&mut self, ctx: &mut Dispatcher<'_>) {
        if self.configured {
            return;
        }
        let block_size = ctx
            .param("block_size")
            .and_then(|s| s.parse().ok())
            .unwrap_or(512usize);
        let blocks = ctx
            .param("blocks")
            .and_then(|s| s.parse().ok())
            .unwrap_or(1024usize);
        self.block_size = block_size;
        let bytes = block_size.saturating_mul(blocks);
        self.backing = match ctx.param("file").map(str::to_string) {
            Some(path) => match BlockFile::open(std::path::Path::new(&path), bytes as u64) {
                Ok(f) => Backing::Disk(f),
                Err(e) => {
                    // Stay serviceable in RAM, but make the degradation
                    // observable to the control host.
                    ctx.set_param("bsa.error", &format!("open {path}: {e}"));
                    Backing::Ram(vec![0u8; bytes])
                }
            },
            None => Backing::Ram(vec![0u8; bytes]),
        };
        self.configured = true;
    }

    fn blocks(&self) -> usize {
        self.backing
            .capacity()
            .checked_div(self.block_size)
            .unwrap_or(0)
    }
}

impl Default for BlockStorage {
    fn default() -> Self {
        Self::new()
    }
}

/// Overflow-safe `block * block_size .. + len` byte range against the
/// device capacity. `Err` is the `DeviceError` reply body.
fn byte_range(
    block: usize,
    len: usize,
    block_size: usize,
    capacity: usize,
) -> Result<usize, String> {
    let start = block
        .checked_mul(block_size)
        .filter(|s| s.checked_add(len).is_some_and(|end| end <= capacity))
        .ok_or_else(|| {
            format!("range [block {block}, +{len} bytes] exceeds device capacity {capacity}")
        })?;
    Ok(start)
}

impl I2oListener for BlockStorage {
    fn class(&self) -> DeviceClass {
        DeviceClass::BlockStorage
    }

    fn plugged(&mut self, ctx: &mut Dispatcher<'_>) {
        self.configure(ctx);
    }

    fn on_private(&mut self, ctx: &mut Dispatcher<'_>, msg: Delivery) {
        self.configure(ctx);
        let block_size = self.block_size;
        let total_blocks = self.blocks();
        let capacity = self.backing.capacity();
        let dev_err = |detail: String| (ReplyStatus::DeviceError, detail);
        let bad_frame = |e: xdaq_core::MarshalError| (ReplyStatus::BadFrame, e.to_string());

        // READ
        let backing = &self.backing;
        let mut reads = self.reads;
        if self
            .read_skel
            .serve_with(ctx, &msg, |args: &mut ArgReader<'_>| {
                let block = args.u32().map_err(bad_frame)? as usize;
                let count = args.u32().map_err(bad_frame)? as usize;
                let len = count
                    .checked_mul(block_size)
                    .ok_or_else(|| dev_err(format!("count {count} overflows byte length")))?;
                let start = byte_range(block, len, block_size, capacity).map_err(dev_err)?;
                let data = backing.read(start, len).map_err(dev_err)?;
                reads += 1;
                Ok(ArgWriter::new().bytes(&data))
            })
        {
            self.reads = reads;
            return;
        }

        // WRITE
        let backing = &mut self.backing;
        let mut writes = self.writes;
        if self
            .write_skel
            .serve_with(ctx, &msg, |args: &mut ArgReader<'_>| {
                let block = args.u32().map_err(bad_frame)? as usize;
                let bytes = args.bytes().map_err(bad_frame)?;
                let start =
                    byte_range(block, bytes.len(), block_size, capacity).map_err(dev_err)?;
                backing.write(start, bytes).map_err(dev_err)?;
                writes += 1;
                let blocks_written = bytes.len().div_ceil(block_size.max(1)) as u32;
                Ok(ArgWriter::new().u32(blocks_written))
            })
        {
            self.writes = writes;
            return;
        }

        // INFO
        self.info_skel.serve(ctx, &msg, |_args| {
            Ok(ArgWriter::new()
                .u32(block_size as u32)
                .u32(total_blocks as u32))
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parking_lot::Mutex;
    use std::sync::Arc;
    use xdaq_core::{Executive, ExecutiveConfig, Stub};
    use xdaq_i2o::{ReplyStatus, Tid};

    type ReplyLog = Arc<Mutex<Vec<(u32, ReplyStatus, Vec<u8>)>>>;

    /// Client device driving the block store via stubs.
    struct Client {
        store: Tid,
        log: ReplyLog,
        read: Stub,
        write: Stub,
        info: Stub,
        script: Vec<Op>,
    }

    enum Op {
        Write(u32, Vec<u8>),
        Read(u32, u32),
        Info,
    }

    impl I2oListener for Client {
        fn class(&self) -> DeviceClass {
            DeviceClass::Application(ORG_DAQ)
        }
        fn plugged(&mut self, _ctx: &mut Dispatcher<'_>) {}
        fn on_private(&mut self, ctx: &mut Dispatcher<'_>, msg: Delivery) {
            // Kick: run the scripted calls.
            if msg.private.map(|p| p.x_function) == Some(0x0001) {
                for op in self.script.drain(..) {
                    let _ = match op {
                        Op::Write(block, bytes) => self
                            .write
                            .call(ctx, ArgWriter::new().u32(block).bytes(&bytes)),
                        Op::Read(block, count) => {
                            self.read.call(ctx, ArgWriter::new().u32(block).u32(count))
                        }
                        Op::Info => self.info.call(ctx, ArgWriter::new()),
                    };
                }
                let _ = self.store;
                return;
            }
            // Replies from the store: record the raw marshalled result.
            for stub in [&self.read, &self.write, &self.info] {
                if let Some((ctx_id, status, _args)) = stub.match_reply(&msg) {
                    let raw = msg
                        .reply_status()
                        .map(|(_, b)| b.to_vec())
                        .unwrap_or_default();
                    self.log.lock().push((ctx_id, status, raw));
                    return;
                }
            }
        }
    }

    fn drive(exec: &Executive, store: Tid, script: Vec<Op>) -> ReplyLog {
        let log = Arc::new(Mutex::new(Vec::new()));
        let client = Client {
            store,
            log: log.clone(),
            read: Stub::new(store, ORG_DAQ, bsa::READ),
            write: Stub::new(store, ORG_DAQ, bsa::WRITE),
            info: Stub::new(store, ORG_DAQ, bsa::INFO),
            script,
        };
        let client_tid = exec.register("client", Box::new(client), &[]).unwrap();
        exec.enable_all();
        exec.post(
            xdaq_i2o::Message::build_private(client_tid, Tid::HOST, ORG_DAQ, 0x0001).finish(),
        )
        .unwrap();
        while exec.run_once() > 0 {}
        log
    }

    #[test]
    fn write_read_info_via_rmi() {
        let exec = Executive::new(ExecutiveConfig::named("disk"));
        let store = exec
            .register(
                "bsa0",
                Box::new(BlockStorage::new()),
                &[("block_size", "64"), ("blocks", "16")],
            )
            .unwrap();
        let log = drive(
            &exec,
            store,
            vec![
                Op::Write(2, vec![0xAB; 128]),
                Op::Read(2, 2),
                Op::Info,
                Op::Read(15, 5), // out of range
            ],
        );

        let log = log.lock();
        assert_eq!(log.len(), 4);
        // Write succeeded (2 blocks written).
        assert!(log[0].1.is_ok());
        assert_eq!(ArgReader::new(&log[0].2).u32().unwrap(), 2);
        // Read returned the written pattern.
        assert!(log[1].1.is_ok());
        assert_eq!(
            ArgReader::new(&log[1].2).bytes().unwrap(),
            &[0xABu8; 128][..]
        );
        // Info reports the configured geometry.
        assert!(log[2].1.is_ok());
        let mut info = ArgReader::new(&log[2].2);
        assert_eq!(info.u32().unwrap(), 64);
        assert_eq!(info.u32().unwrap(), 16);
        // Out-of-range read: a device-level error, not a marshalling one.
        assert_eq!(log[3].1, ReplyStatus::DeviceError);
    }

    #[test]
    fn geometry_violations_get_device_error_not_truncation() {
        let exec = Executive::new(ExecutiveConfig::named("disk"));
        let store = exec
            .register(
                "bsa0",
                Box::new(BlockStorage::new()),
                &[("block_size", "64"), ("blocks", "16")],
            )
            .unwrap();
        let log = drive(
            &exec,
            store,
            vec![
                // Write straddling the end: starts in range, runs past.
                Op::Write(15, vec![0x55; 128]),
                // Write with an offset that overflows usize arithmetic.
                Op::Write(u32::MAX, vec![1]),
                // Read whose count overflows the byte-length product.
                Op::Read(0, u32::MAX),
                // The device is still healthy afterwards.
                Op::Write(15, vec![0x77; 64]),
                Op::Read(15, 1),
            ],
        );
        let log = log.lock();
        assert_eq!(log.len(), 5);
        assert_eq!(log[0].1, ReplyStatus::DeviceError);
        assert!(
            String::from_utf8_lossy(&log[0].2).contains("exceeds device capacity"),
            "reply body names the violation: {:?}",
            String::from_utf8_lossy(&log[0].2)
        );
        assert_eq!(log[1].1, ReplyStatus::DeviceError);
        assert_eq!(log[2].1, ReplyStatus::DeviceError);
        assert!(log[3].1.is_ok(), "in-range write still served");
        assert!(log[4].1.is_ok());
        assert_eq!(
            ArgReader::new(&log[4].2).bytes().unwrap(),
            &[0x77u8; 64][..]
        );
    }

    #[test]
    fn file_backing_survives_restart() {
        let path = std::env::temp_dir().join(format!("xdaq-bsa-{}.dat", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let params: &[(&str, &str)] = &[
            ("block_size", "64"),
            ("blocks", "16"),
            ("file", path.to_str().unwrap()),
        ];
        {
            let exec = Executive::new(ExecutiveConfig::named("disk"));
            let store = exec
                .register("bsa0", Box::new(BlockStorage::new()), params)
                .unwrap();
            let log = drive(&exec, store, vec![Op::Write(3, vec![0xC4; 64])]);
            if !xdaq_sys::supported() {
                return; // no raw-syscall backend: nothing durable to check
            }
            assert!(log.lock()[0].1.is_ok());
        }
        // A brand-new executive over the same file sees the data.
        let exec = Executive::new(ExecutiveConfig::named("disk2"));
        let store = exec
            .register("bsa0", Box::new(BlockStorage::new()), params)
            .unwrap();
        let log = drive(&exec, store, vec![Op::Read(3, 1)]);
        let log = log.lock();
        assert!(log[0].1.is_ok());
        assert_eq!(
            ArgReader::new(&log[0].2).bytes().unwrap(),
            &[0xC4u8; 64][..]
        );
        std::fs::remove_file(&path).unwrap();
    }
}
