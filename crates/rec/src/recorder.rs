//! The `Recorder` device class: a tap that persists built events.
//!
//! Plugged into a node like any other DDM, the recorder consumes
//! private frames (typically the event builder's completed events),
//! buffers each chain until its final frame (no `MORE`), and appends
//! the chain as **one record** — the concatenation of its fully-encoded
//! I2O frames — with one gathered `pwritev` whose iovecs point straight
//! into the frames' pool blocks. Optionally it forwards every frame
//! onward (`forward` parameter), making it a transparent wiretap in an
//! existing topology.
//!
//! Parameters (read at plug time):
//!
//! * `dir` — recording directory (required; the device faults without it)
//! * `segment_bytes`, `fsync_bytes` — see [`RecConfig`]; the
//!   durability interval is fixed at [`FSYNC_INTERVAL`], and a stale
//!   `fsync_interval_ms` is refused (`rec.error`) rather than ignored
//! * `forward` — device name to relay recorded frames to
//!
//! Runtime control rides on `ParamsSet`: `rec.sync=1` forces an
//! `fdatasync`, `rec.rotate=1` cuts a new segment (a run boundary).
//! Any other `rec.*` key is refused with `BadFrame`: batching is fixed
//! at plug time, so a runtime retune would be stored and never read.

use crate::writer::{RecConfig, RecWriter, FSYNC_INTERVAL};
use std::collections::HashMap;
use std::io::IoSlice;
use std::time::Duration;
use xdaq_core::config::parse_kv;
use xdaq_core::listener::UtilOutcome;
use xdaq_core::{Delivery, Dispatcher, I2oListener, TimerId};
use xdaq_i2o::{DeviceClass, MsgFlags, MsgHeader, ReplyStatus, Tid, UtilFn};
use xdaq_mon::RecCounters;

/// Reassembly key: one in-flight chain per (initiator, transaction).
type ChainKey = (Tid, u32);

/// Durable event-recording device (see module docs).
pub struct Recorder {
    writer: Option<RecWriter>,
    /// Frames of chains still awaiting their final (`!MORE`) frame.
    pending: HashMap<ChainKey, Vec<Delivery>>,
    counters: RecCounters,
    forward: Option<String>,
    segments_seen: u64,
    timer: Option<TimerId>,
}

impl Recorder {
    /// An unconfigured recorder (directory read from params at plug
    /// time).
    pub fn new() -> Recorder {
        Recorder {
            writer: None,
            pending: HashMap::new(),
            counters: RecCounters::new(),
            forward: None,
            segments_seen: 0,
            timer: None,
        }
    }

    /// Records appended so far (observable in tests).
    pub fn records(&self) -> u64 {
        self.writer.as_ref().map(|w| w.records()).unwrap_or(0)
    }

    fn account_sync(&mut self, latency: Option<Duration>) {
        if let Some(lat) = latency {
            self.counters.fsyncs.inc();
            self.counters
                .fsync_latency_ns
                .record(lat.as_nanos().min(u64::MAX as u128) as u64);
        }
    }

    fn account_segments(&mut self) {
        if let Some(w) = &self.writer {
            let started = w.segments_started();
            if started > self.segments_seen {
                self.counters.segments.add(started - self.segments_seen);
                self.segments_seen = started;
            }
        }
    }

    /// Persists one completed chain as a single gathered record.
    fn persist(&mut self, ctx: &mut Dispatcher<'_>, chain: &[Delivery]) {
        let Some(writer) = self.writer.as_mut() else {
            // Misconfigured at plug time (see `rec.error` param); a
            // device receiving event traffic it cannot persist faults
            // rather than silently dropping data.
            ctx.fault();
            return;
        };
        // Zero-copy gather: one iovec per frame, each pointing into the
        // frame's pool block.
        let parts: Vec<IoSlice<'_>> = chain
            .iter()
            .map(|d| IoSlice::new(d.frame_bytes()))
            .collect();
        let payload: u64 = parts.iter().map(|p| p.len() as u64).sum();
        match writer.append(&parts) {
            Ok(_) => {
                self.counters.records.inc();
                self.counters.bytes.add(payload);
            }
            Err(_) => {
                ctx.fault();
                return;
            }
        }
        let after = writer.maybe_sync();
        match after {
            Ok(lat) => self.account_sync(lat),
            Err(_) => ctx.fault(),
        }
        self.account_segments();
    }

    fn forward_tid(&self, ctx: &Dispatcher<'_>) -> Option<Tid> {
        let name = self.forward.as_deref()?;
        // Accept a raw TiD or a device name.
        name.parse::<u16>()
            .ok()
            .and_then(|v| Tid::new(v).ok())
            .or_else(|| ctx.lookup(name))
    }
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

impl I2oListener for Recorder {
    fn class(&self) -> DeviceClass {
        // The recorder is the repo's "classic" sequential-storage DDM
        // (the paper's Tape/Block Storage family).
        DeviceClass::BlockStorage
    }

    fn plugged(&mut self, ctx: &mut Dispatcher<'_>) {
        let Some(dir) = ctx.param("dir").map(str::to_string) else {
            // `Initialized -> Faulted` is not a legal transition; note
            // the error and fault on first event traffic instead.
            ctx.set_param("rec.error", "missing required parameter: dir");
            return;
        };
        if ctx.param("fsync_interval_ms").is_some() {
            ctx.set_param(
                "rec.error",
                "param 'fsync_interval_ms' was removed: the durability interval is fixed at 50 ms; delete the key",
            );
            return;
        }
        let mut cfg = RecConfig::new(dir);
        if let Some(v) = ctx.param("segment_bytes").and_then(|s| s.parse().ok()) {
            cfg.segment_bytes = v;
        }
        if let Some(v) = ctx.param("fsync_bytes").and_then(|s| s.parse().ok()) {
            cfg.fsync_bytes = v;
        }
        self.forward = ctx.param("forward").map(str::to_string);
        self.counters = RecCounters::bound_to(ctx.metrics());
        match RecWriter::create(cfg) {
            Ok(w) => {
                self.segments_seen = 0;
                self.writer = Some(w);
                self.account_segments();
                // The durability interval needs a clock even when no
                // frames arrive: a periodic timer drives maybe_sync.
                self.timer = Some(ctx.start_periodic(FSYNC_INTERVAL));
            }
            Err(e) => ctx.set_param("rec.error", &format!("create store: {e}")),
        }
    }

    fn unplugged(&mut self) {
        if let Some(w) = self.writer.as_mut() {
            let _ = w.sync();
        }
        self.writer = None;
        self.pending.clear();
    }

    fn on_private(&mut self, ctx: &mut Dispatcher<'_>, msg: Delivery) {
        if msg.header.flags.contains(MsgFlags::IS_REPLY) {
            return; // acks from the forward target
        }
        let key = (msg.header.initiator, msg.header.transaction_context);
        let more = msg.header.flags.contains(MsgFlags::MORE);
        self.pending.entry(key).or_default().push(msg);
        if more {
            return;
        }
        let chain = self.pending.remove(&key).expect("just inserted");
        self.persist(ctx, &chain);
        if let Some(fwd) = self.forward_tid(ctx) {
            for d in chain {
                let mut buf = d.into_buf();
                MsgHeader::patch_target(&mut buf, fwd);
                if let Ok(d) = Delivery::from_buf(buf) {
                    let _ = ctx.send_delivery(d);
                }
            }
        }
    }

    fn on_util(&mut self, ctx: &mut Dispatcher<'_>, f: UtilFn, msg: &Delivery) -> UtilOutcome {
        if f != UtilFn::ParamsSet {
            return UtilOutcome::Default;
        }
        let map = match parse_kv(msg.payload()) {
            Ok(map) => map,
            Err(e) => {
                let _ = ctx.reply(msg, ReplyStatus::BadFrame, e.as_bytes());
                return UtilOutcome::Handled;
            }
        };
        let inert =
            |k: &&String| k.starts_with("rec.") && !matches!(k.as_str(), "rec.sync" | "rec.rotate");
        if let Some(k) = map.keys().find(inert) {
            let body = format!("{k}: only rec.sync and rec.rotate act at runtime");
            let _ = ctx.reply(msg, ReplyStatus::BadFrame, body.as_bytes());
            return UtilOutcome::Handled;
        }
        for (k, v) in map {
            match (k.as_str(), self.writer.as_mut()) {
                ("rec.sync", Some(w)) => {
                    let lat = w.sync().unwrap_or(None);
                    self.account_sync(lat);
                }
                ("rec.rotate", Some(w)) => {
                    if w.rotate().is_ok() {
                        self.account_segments();
                    }
                }
                _ => ctx.set_param(&k, &v),
            }
        }
        let _ = ctx.reply(msg, ReplyStatus::Success, &[]);
        UtilOutcome::Handled
    }

    fn on_timer(&mut self, _ctx: &mut Dispatcher<'_>, _id: TimerId) {
        if let Some(w) = self.writer.as_mut() {
            let lat = w.maybe_sync().unwrap_or(None);
            self.account_sync(lat);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reader::scan;
    use std::path::PathBuf;
    use xdaq_core::{Executive, ExecutiveConfig};
    use xdaq_i2o::Message;

    fn tmp_dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("xdaq-rec-dev-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn records_chains_and_counts() {
        if !xdaq_sys::supported() {
            return;
        }
        let dir = tmp_dir("chains");
        let exec = Executive::new(ExecutiveConfig::named("store"));
        let rec = exec
            .register(
                "rec0",
                Box::new(Recorder::new()),
                &[("dir", dir.to_str().unwrap())],
            )
            .unwrap();
        exec.enable_all();
        // Two chained events (MORE then final) and one single-frame one.
        for chain in 0..2u32 {
            let mut m = Message::build_private(rec, Tid::HOST, 0x0da0, 0x0022)
                .transaction(chain)
                .payload(vec![chain as u8; 64])
                .finish();
            m.header.flags = m.header.flags.with(MsgFlags::MORE);
            exec.post(m).unwrap();
            exec.post(
                Message::build_private(rec, Tid::HOST, 0x0da0, 0x0022)
                    .transaction(chain)
                    .payload(vec![0xEE; 32])
                    .finish(),
            )
            .unwrap();
        }
        exec.post(
            Message::build_private(rec, Tid::HOST, 0x0da0, 0x0022)
                .transaction(9)
                .payload(b"solo".to_vec())
                .finish(),
        )
        .unwrap();
        while exec.run_once() > 0 {}
        let reg = exec.core().monitors().registry();
        assert_eq!(reg.counter("rec.records").get(), 3);
        assert!(reg.counter("rec.bytes").get() > 0);
        // Force durability, then verify on disk.
        exec.post(
            Message::util(rec, Tid::HOST, UtilFn::ParamsSet)
                .payload(xdaq_core::config::kv(&[("rec.sync", "1")]))
                .finish(),
        )
        .unwrap();
        while exec.run_once() > 0 {}
        let report = scan(&dir).unwrap();
        assert_eq!(report.records, 3);
        assert!(report.torn.is_none());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Collects the reply statuses a device receives.
    struct Replies(std::sync::Arc<parking_lot::Mutex<Vec<ReplyStatus>>>);

    impl I2oListener for Replies {
        fn class(&self) -> DeviceClass {
            DeviceClass::Application(1)
        }
        fn on_private(&mut self, _ctx: &mut Dispatcher<'_>, _msg: Delivery) {}
        fn on_reply(&mut self, _ctx: &mut Dispatcher<'_>, msg: Delivery) {
            if let Some((status, _)) = msg.reply_status() {
                self.0.lock().push(status);
            }
        }
    }

    #[test]
    fn runtime_keys_other_than_sync_and_rotate_are_refused() {
        let exec = Executive::new(ExecutiveConfig::named("store"));
        let rec = exec
            .register("rec0", Box::new(Recorder::new()), &[])
            .unwrap();
        let statuses = std::sync::Arc::default();
        let host = exec
            .register(
                "host",
                Box::new(Replies(std::sync::Arc::clone(&statuses))),
                &[],
            )
            .unwrap();
        exec.enable_all();
        for pair in [("rec.fsync_bytes", "1048576"), ("rec.sync", "1")] {
            exec.post(
                Message::util(rec, host, UtilFn::ParamsSet)
                    .payload(xdaq_core::config::kv(&[pair]))
                    .expect_reply()
                    .finish(),
            )
            .unwrap();
        }
        while exec.run_once() > 0 {}
        assert_eq!(
            *statuses.lock(),
            [ReplyStatus::BadFrame, ReplyStatus::Success]
        );
    }

    /// A recorder without `dir`, or with the removed
    /// `fsync_interval_ms` key, creates no store and faults on its
    /// first event instead of dropping it.
    #[test]
    fn misconfigured_recorder_faults_on_first_event() {
        let dir = tmp_dir("stale-key");
        let stale = [("dir", dir.to_str().unwrap()), ("fsync_interval_ms", "50")];
        for params in [&[][..], &stale[..]] {
            let exec = Executive::new(ExecutiveConfig::named("store"));
            let rec = exec
                .register("rec0", Box::new(Recorder::new()), params)
                .unwrap();
            exec.enable_all();
            exec.post(
                Message::build_private(rec, Tid::HOST, 0x0da0, 0x0022)
                    .payload(b"evt".to_vec())
                    .finish(),
            )
            .unwrap();
            while exec.run_once() > 0 {}
            let state = exec.lct().iter().find(|e| e.tid == rec).map(|e| e.state);
            assert_eq!(state, Some(xdaq_i2o::DeviceState::Faulted), "{params:?}");
            assert_eq!(
                exec.core()
                    .monitors()
                    .registry()
                    .counter("rec.records")
                    .get(),
                0
            );
        }
        assert!(!dir.exists(), "a refused config creates no store");
    }
}
