//! `replay://<dir>` — a peer transport that re-injects a recording.
//!
//! Replay is deliberately modelled as a *peer transport*, not a special
//! code path: a recorded run enters a fresh node through exactly the
//! machinery live traffic would use (`ingest_from_peer`, proxy TiDs,
//! the scheduling queue), so everything downstream — chaos injection,
//! link supervision, the event builder — composes with it unchanged.
//! Frames of one record are injected back-to-back and records in their
//! original order, which combined with per-peer ordered ingest makes a
//! replayed run deterministic.
//!
//! Configuration keys (via [`PeerTransport::configure`], i.e. the PT's
//! DDM `ParamsSet` — `xcl replay <node> ...`):
//!
//! * `replay.dir` — recording directory (also set by the constructor)
//! * `replay.pace_us` — microseconds to sleep between records
//!   (0 = as fast as possible)
//! * `replay.retarget` — raw TiD to rewrite every frame's target to
//!   (0 = keep the recorded target; required when the consuming
//!   device's TiD differs from the recorded topology)
//! * `replay.limit` — stop after this many records (0 = all)

use crate::reader::RecReader;
use parking_lot::Mutex;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use xdaq_core::{IngestSink, PeerAddr, PeerTransport, PtError, PtMode, SendFailure};
use xdaq_i2o::{MsgHeader, Tid};
use xdaq_mempool::FrameBuf;
use xdaq_mon::PtCounters;

/// State shared with the injection thread; knobs are live (the thread
/// re-reads them between records).
struct Shared {
    pace_us: AtomicU64,
    retarget: AtomicU32,
    limit: AtomicU64,
    stop: AtomicBool,
    /// Records injected so far (monotonic; observable).
    injected: AtomicU64,
    /// True once the recording has been fully injected.
    done: AtomicBool,
}

/// Replay peer transport (see module docs).
pub struct ReplayPt {
    dir: Mutex<PathBuf>,
    shared: Arc<Shared>,
    counters: Arc<PtCounters>,
    thread: Mutex<Option<std::thread::JoinHandle<()>>>,
    panics: AtomicU64,
}

impl ReplayPt {
    /// A replayer over the recording in `dir` (tune via `configure`).
    pub fn new(dir: impl Into<PathBuf>) -> ReplayPt {
        ReplayPt {
            dir: Mutex::new(dir.into()),
            shared: Arc::new(Shared {
                pace_us: AtomicU64::new(0),
                retarget: AtomicU32::new(0),
                limit: AtomicU64::new(0),
                stop: AtomicBool::new(false),
                injected: AtomicU64::new(0),
                done: AtomicBool::new(false),
            }),
            counters: Arc::new(PtCounters::new()),
            thread: Mutex::new(None),
            panics: AtomicU64::new(0),
        }
    }

    /// Rewrites every injected frame's target TiD (builder form of
    /// `replay.retarget`).
    pub fn retarget(self, tid: Tid) -> ReplayPt {
        self.shared
            .retarget
            .store(tid.raw() as u32, Ordering::Relaxed);
        self
    }

    /// Sleeps `us` microseconds between records (builder form of
    /// `replay.pace_us`).
    pub fn pace_us(self, us: u64) -> ReplayPt {
        self.shared.pace_us.store(us, Ordering::Relaxed);
        self
    }

    /// Records injected so far.
    pub fn injected(&self) -> u64 {
        self.shared.injected.load(Ordering::Acquire)
    }

    /// True once every record (or `replay.limit` of them) has been
    /// injected.
    pub fn is_done(&self) -> bool {
        self.shared.done.load(Ordering::Acquire)
    }
}

impl PeerTransport for ReplayPt {
    fn scheme(&self) -> &'static str {
        "replay"
    }

    fn mode(&self) -> PtMode {
        PtMode::Task
    }

    fn send(&self, _dest: &PeerAddr, frame: FrameBuf) -> Result<(), SendFailure> {
        // A recording is a source, not a peer: sending through it is a
        // topology error. Hand the frame back so its block recycles at
        // the caller.
        Err(SendFailure::with_frame(
            PtError::Unreachable("replay transport is read-only".into()),
            frame,
        ))
    }

    fn poll(&self) -> Option<(FrameBuf, PeerAddr)> {
        None
    }

    fn start(&self, sink: IngestSink) -> Result<(), PtError> {
        let dir = self.dir.lock().clone();
        let reader = RecReader::open(&dir)
            .map_err(|e| PtError::Io(format!("replay open {}: {e}", dir.display())))?;
        let shared = self.shared.clone();
        let counters = self.counters.clone();
        let src = PeerAddr::new("replay", &dir.to_string_lossy());
        let handle = std::thread::Builder::new()
            .name("xdaq-replay".into())
            .spawn(move || inject(reader, shared, counters, src, sink))
            .map_err(|e| PtError::Io(format!("spawn replay thread: {e}")))?;
        *self.thread.lock() = Some(handle);
        Ok(())
    }

    fn stop(&self) {
        self.shared.stop.store(true, Ordering::Release);
        if let Some(h) = self.thread.lock().take() {
            if h.join().is_err() {
                self.panics.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    fn configure(&self, key: &str, value: &str) -> Result<(), PtError> {
        let bad = |what: &str| PtError::BadAddress(format!("replay: bad {what}: {value}"));
        match key {
            "replay.dir" => *self.dir.lock() = PathBuf::from(value),
            "replay.pace_us" => self.shared.pace_us.store(
                value.parse().map_err(|_| bad("pace_us"))?,
                Ordering::Relaxed,
            ),
            "replay.retarget" => {
                let raw: u16 = value.parse().map_err(|_| bad("retarget"))?;
                if raw != 0 {
                    Tid::new(raw).map_err(|_| bad("retarget"))?;
                }
                self.shared.retarget.store(raw as u32, Ordering::Relaxed);
            }
            "replay.limit" => self
                .shared
                .limit
                .store(value.parse().map_err(|_| bad("limit"))?, Ordering::Relaxed),
            _ => {}
        }
        Ok(())
    }

    fn take_panics(&self) -> u64 {
        self.panics.swap(0, Ordering::Relaxed)
    }

    fn counters(&self) -> Option<&PtCounters> {
        Some(&self.counters)
    }
}

/// The injection loop: records in recorded order, frames of a record
/// back-to-back.
fn inject(
    mut reader: RecReader,
    shared: Arc<Shared>,
    counters: Arc<PtCounters>,
    src: PeerAddr,
    sink: IngestSink,
) {
    while let Some(record) = reader.next() {
        if shared.stop.load(Ordering::Acquire) {
            return;
        }
        let limit = shared.limit.load(Ordering::Relaxed);
        if limit != 0 && shared.injected.load(Ordering::Relaxed) >= limit {
            break;
        }
        let mut off = 0usize;
        while off < record.len() {
            let Ok(header) = MsgHeader::decode(&record[off..]) else {
                // A record that scanned clean but does not parse as
                // frames is a format error; stop rather than inject
                // garbage.
                return;
            };
            let flen = header.frame_len();
            if flen == 0 || off + flen > record.len() {
                return;
            }
            let mut buf = FrameBuf::from_bytes(&record[off..off + flen]);
            let raw = shared.retarget.load(Ordering::Relaxed);
            if raw != 0 {
                if let Ok(tid) = Tid::new(raw as u16) {
                    MsgHeader::patch_target(&mut buf, tid);
                }
            }
            counters.on_recv(flen);
            sink(buf, src.clone());
            off += flen;
        }
        shared.injected.fetch_add(1, Ordering::Release);
        let pace = shared.pace_us.load(Ordering::Relaxed);
        if pace > 0 {
            std::thread::sleep(std::time::Duration::from_micros(pace));
        }
    }
    shared.done.store(true, Ordering::Release);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::writer::{RecConfig, RecWriter};
    use std::io::IoSlice;
    use xdaq_i2o::Message;

    fn tmp_dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("xdaq-rec-rp-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    fn frame_bytes(target: u16, tag: u8) -> Vec<u8> {
        let m = Message::build_private(
            Tid::new(target).unwrap(),
            Tid::new(0x300).unwrap(),
            0x0da0,
            0x0022,
        )
        .payload(vec![tag; 24])
        .finish();
        let mut buf = vec![0u8; m.wire_len()];
        m.encode(&mut buf).unwrap();
        buf
    }

    #[test]
    fn injects_records_in_order_with_retarget() {
        let dir = tmp_dir("order");
        {
            let mut w = RecWriter::create(RecConfig::new(&dir)).unwrap();
            for tag in 0..5u8 {
                // Two frames per record: a record may hold several.
                let a = frame_bytes(0x100, tag);
                let b = frame_bytes(0x100, tag);
                w.append(&[IoSlice::new(&a), IoSlice::new(&b)]).unwrap();
            }
            w.sync().unwrap();
        }
        let pt = ReplayPt::new(&dir).retarget(Tid::new(0x42).unwrap());
        let got: Arc<Mutex<Vec<(u16, u8)>>> = Arc::new(Mutex::new(Vec::new()));
        let got2 = got.clone();
        let sink: IngestSink = Arc::new(move |buf: FrameBuf, _src: PeerAddr| {
            let h = MsgHeader::decode(&buf).unwrap();
            let tag = buf[h.frame_len() - 1];
            got2.lock().push((h.target.raw(), tag));
        });
        pt.start(sink).unwrap();
        while !pt.is_done() {
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        pt.stop();
        let got = got.lock();
        assert_eq!(got.len(), 10, "two frames per record, five records");
        let tags: Vec<u8> = got.iter().map(|(_, t)| *t).collect();
        assert_eq!(tags, vec![0, 0, 1, 1, 2, 2, 3, 3, 4, 4], "original order");
        assert!(
            got.iter().all(|(t, _)| *t == 0x42),
            "every frame retargeted"
        );
        assert_eq!(pt.injected(), 5);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn limit_stops_early() {
        let dir = tmp_dir("limit");
        {
            let mut w = RecWriter::create(RecConfig::new(&dir)).unwrap();
            for tag in 0..8u8 {
                let a = frame_bytes(0x100, tag);
                w.append(&[IoSlice::new(&a)]).unwrap();
            }
        }
        let pt = ReplayPt::new(&dir);
        pt.configure("replay.limit", "3").unwrap();
        let n = Arc::new(AtomicU64::new(0));
        let n2 = n.clone();
        let sink: IngestSink = Arc::new(move |_buf, _src| {
            n2.fetch_add(1, Ordering::Relaxed);
        });
        pt.start(sink).unwrap();
        while !pt.is_done() {
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        pt.stop();
        assert_eq!(n.load(Ordering::Relaxed), 3);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn bad_configuration_rejected() {
        let pt = ReplayPt::new("/tmp/none");
        assert!(pt.configure("replay.pace_us", "fast").is_err());
        assert!(pt.configure("replay.retarget", "70000").is_err());
        assert!(pt.configure("replay.limit", "-1").is_err());
        assert!(pt.configure("replay.pace_us", "250").is_ok());
        assert!(
            pt.configure("unknown.key", "x").is_ok(),
            "unknown keys ignored"
        );
    }

    #[test]
    fn send_is_refused_with_frame_returned() {
        let pt = ReplayPt::new("/tmp/none");
        let f = FrameBuf::from_bytes(b"x");
        let err = pt
            .send(&PeerAddr::new("replay", "none"), f)
            .expect_err("read-only");
        assert!(err.frame.is_some(), "frame handed back to the sender");
    }
}
