//! Filter units: the consumers of built events.
//!
//! In the CMS DAQ that motivated XDAQ, builder units feed filter farms
//! that run physics selection. Here a filter unit applies a
//! deterministic accept/reject decision (a hash of the event id against
//! an accept fraction), modelling the selection stage with a
//! reproducible workload.

use crate::{xfn, ORG_DAQ};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use xdaq_core::{Delivery, Dispatcher, I2oListener};
use xdaq_i2o::DeviceClass;

/// Shared counters of one filter unit.
#[derive(Debug, Default)]
pub struct FilterStats {
    /// Events received.
    pub received: AtomicU64,
    /// Events accepted.
    pub accepted: AtomicU64,
    /// Events rejected.
    pub rejected: AtomicU64,
    /// Sum of event sizes seen (bytes).
    pub bytes: AtomicU64,
}

impl FilterStats {
    /// Fresh stats handle.
    pub fn new() -> Arc<FilterStats> {
        Arc::new(FilterStats::default())
    }

    /// Accept fraction observed so far.
    pub fn accept_rate(&self) -> f64 {
        let r = self.received.load(Ordering::Relaxed);
        if r == 0 {
            return 0.0;
        }
        self.accepted.load(Ordering::Relaxed) as f64 / r as f64
    }
}

/// One filter unit.
///
/// Parameters:
/// * `accept_percent` — events to accept, 0..=100 (default 100).
pub struct FilterUnit {
    stats: Arc<FilterStats>,
    accept_percent: u64,
    configured: bool,
}

impl FilterUnit {
    /// Creates a filter reporting into `stats`.
    pub fn new(stats: Arc<FilterStats>) -> FilterUnit {
        FilterUnit {
            stats,
            accept_percent: 100,
            configured: false,
        }
    }

    fn configure(&mut self, ctx: &Dispatcher<'_>) {
        if self.configured {
            return;
        }
        if let Some(v) = ctx.param("accept_percent").and_then(|s| s.parse().ok()) {
            self.accept_percent = v;
        }
        self.configured = true;
    }
}

/// SplitMix64 — deterministic "physics" decision per event.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

impl I2oListener for FilterUnit {
    fn class(&self) -> DeviceClass {
        DeviceClass::Application(ORG_DAQ)
    }

    fn on_private(&mut self, ctx: &mut Dispatcher<'_>, msg: Delivery) {
        if msg.private.map(|p| p.x_function) != Some(xfn::EVENT) {
            return;
        }
        self.configure(ctx);
        let payload = msg.payload();
        if payload.len() < 16 {
            return;
        }
        let event_id = u64::from_le_bytes(payload[..8].try_into().unwrap());
        let size = u64::from_le_bytes(payload[8..16].try_into().unwrap());
        self.stats.received.fetch_add(1, Ordering::Relaxed);
        self.stats.bytes.fetch_add(size, Ordering::Relaxed);
        if mix(event_id) % 100 < self.accept_percent {
            self.stats.accepted.fetch_add(1, Ordering::Relaxed);
        } else {
            self.stats.rejected.fetch_add(1, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xdaq_core::{Executive, ExecutiveConfig};
    use xdaq_i2o::{Message, Tid};

    fn event_msg(dest: Tid, event: u64, size: u64) -> Message {
        let mut body = Vec::new();
        body.extend_from_slice(&event.to_le_bytes());
        body.extend_from_slice(&size.to_le_bytes());
        Message::build_private(dest, Tid::HOST, ORG_DAQ, xfn::EVENT)
            .payload(body)
            .finish()
    }

    #[test]
    fn accept_all_by_default() {
        let exec = Executive::new(ExecutiveConfig::named("n"));
        let stats = FilterStats::new();
        let f = exec
            .register("f", Box::new(FilterUnit::new(stats.clone())), &[])
            .unwrap();
        exec.enable_all();
        for e in 0..50 {
            exec.post(event_msg(f, e, 1000)).unwrap();
        }
        while exec.run_once() > 0 {}
        assert_eq!(stats.received.load(Ordering::SeqCst), 50);
        assert_eq!(stats.accepted.load(Ordering::SeqCst), 50);
        assert_eq!(stats.bytes.load(Ordering::SeqCst), 50_000);
        assert_eq!(stats.accept_rate(), 1.0);
    }

    #[test]
    fn partial_accept_rate_is_plausible_and_deterministic() {
        let run = || {
            let exec = Executive::new(ExecutiveConfig::named("n"));
            let stats = FilterStats::new();
            let f = exec
                .register(
                    "f",
                    Box::new(FilterUnit::new(stats.clone())),
                    &[("accept_percent", "30")],
                )
                .unwrap();
            exec.enable_all();
            for e in 0..1000 {
                exec.post(event_msg(f, e, 10)).unwrap();
            }
            while exec.run_once() > 0 {}
            stats.accepted.load(Ordering::SeqCst)
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "decisions are deterministic");
        assert!((200..400).contains(&a), "~30% of 1000, got {a}");
    }

    #[test]
    fn short_event_frames_ignored() {
        let exec = Executive::new(ExecutiveConfig::named("n"));
        let stats = FilterStats::new();
        let f = exec
            .register("f", Box::new(FilterUnit::new(stats.clone())), &[])
            .unwrap();
        exec.enable_all();
        exec.post(
            Message::build_private(f, Tid::HOST, ORG_DAQ, xfn::EVENT)
                .payload(&b"tiny"[..])
                .finish(),
        )
        .unwrap();
        while exec.run_once() > 0 {}
        assert_eq!(stats.received.load(Ordering::SeqCst), 0);
    }
}
