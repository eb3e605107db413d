//! The blackbox-benchmark device classes.
//!
//! Paper §5: *"we built a simple private device class that is
//! instantiated on one node and continuously floods a remote instance
//! of this class with messages. The second instance responds by
//! replying to each received message with exactly the same content. We
//! carried out this round-trip test with increasing payload sizes."*

use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;
use xdaq_core::{Delivery, Dispatcher, I2oListener};
use xdaq_evb::ORG_DAQ;
use xdaq_i2o::{DeviceClass, Message, Priority, Tid};

/// Private x-function codes of the flood/echo pair, under
/// [`xdaq_evb::ORG_DAQ`].
pub mod xfn {
    /// Ping payload (pinger → ponger and echoed back).
    pub const PING: u16 = 0x0010;
    /// Kick a pinger into its flood loop.
    pub const PING_START: u16 = 0x0011;
}

/// Shared observation window into a running [`Pinger`].
#[derive(Debug, Default)]
pub struct PingState {
    /// Set when the configured number of round trips completed.
    pub done: AtomicBool,
    /// Round trips completed so far.
    pub completed: AtomicU64,
    /// Round-trip times in nanoseconds, one per completed ping.
    pub rtts_ns: Mutex<Vec<u64>>,
}

impl PingState {
    /// Fresh state.
    pub fn new() -> Arc<PingState> {
        Arc::new(PingState::default())
    }

    /// Clears the state for a new run.
    pub fn reset(&self) {
        self.done.store(false, Ordering::SeqCst);
        self.completed.store(0, Ordering::SeqCst);
        self.rtts_ns.lock().clear();
    }

    /// One-way latencies in nanoseconds (RTT/2, the paper's metric:
    /// *"To obtain the combined transfer and upcall latency we divided
    /// the measurement values by two"*).
    pub fn one_way_ns(&self) -> Vec<u64> {
        self.rtts_ns.lock().iter().map(|r| r / 2).collect()
    }
}

/// The flooding side of the round-trip test.
///
/// Parameters (read lazily from the device's parameter set):
/// * `peer` — TiD (decimal) of the remote [`Ponger`] (usually a proxy),
/// * `payload` — payload bytes per ping,
/// * `count` — round trips to run.
///
/// The flood starts when an [`xfn::PING_START`] frame arrives.
pub struct Pinger {
    state: Arc<PingState>,
    peer: Option<Tid>,
    payload: usize,
    count: u64,
    sent_at: Option<Instant>,
    priority: Priority,
}

impl Pinger {
    /// Creates a pinger reporting into `state`.
    pub fn new(state: Arc<PingState>) -> Pinger {
        Pinger {
            state,
            peer: None,
            payload: 1,
            count: 1,
            sent_at: None,
            priority: Priority::NORMAL,
        }
    }

    fn configure(&mut self, ctx: &Dispatcher<'_>) {
        if let Some(p) = ctx.param("peer").and_then(|s| s.parse::<u16>().ok()) {
            self.peer = Tid::new(p).ok();
        }
        if let Some(n) = ctx.param("payload").and_then(|s| s.parse().ok()) {
            self.payload = n;
        }
        if let Some(c) = ctx.param("count").and_then(|s| s.parse().ok()) {
            self.count = c;
        }
    }

    fn send_ping(&mut self, ctx: &mut Dispatcher<'_>) {
        let Some(peer) = self.peer else { return };
        let seq = self.state.completed.load(Ordering::Relaxed) as u32;
        let msg = Message::build_private(peer, ctx.own_tid(), ORG_DAQ, xfn::PING)
            .priority(self.priority)
            .transaction(seq)
            .payload(vec![0xA5u8; self.payload])
            .finish();
        self.sent_at = Some(Instant::now());
        let _ = ctx.send(msg);
    }
}

impl I2oListener for Pinger {
    fn class(&self) -> DeviceClass {
        DeviceClass::Application(ORG_DAQ)
    }

    fn on_private(&mut self, ctx: &mut Dispatcher<'_>, msg: Delivery) {
        let Some(p) = msg.private else { return };
        match p.x_function {
            xfn::PING_START => {
                self.configure(ctx);
                self.state.reset();
                self.state.rtts_ns.lock().reserve(self.count as usize);
                self.send_ping(ctx);
            }
            xfn::PING => {
                // The echo came back: complete the round trip.
                if let Some(t0) = self.sent_at.take() {
                    let rtt = t0.elapsed().as_nanos() as u64;
                    self.state.rtts_ns.lock().push(rtt);
                }
                let done = self.state.completed.fetch_add(1, Ordering::Relaxed) + 1;
                if done >= self.count {
                    self.state.done.store(true, Ordering::SeqCst);
                } else {
                    self.send_ping(ctx);
                }
            }
            _ => {}
        }
    }
}

/// The echoing side: replies to each received message with exactly the
/// same content (a fresh frameSend back to the initiator, which is the
/// application pattern Table 1's "Application (incl. frameSend)" row
/// measures).
pub struct Ponger {
    /// Messages echoed (observable by tests).
    pub echoed: Arc<AtomicU64>,
}

impl Ponger {
    /// Creates a ponger.
    pub fn new() -> Ponger {
        Ponger {
            echoed: Arc::new(AtomicU64::new(0)),
        }
    }
}

impl Default for Ponger {
    fn default() -> Self {
        Self::new()
    }
}

impl I2oListener for Ponger {
    fn class(&self) -> DeviceClass {
        DeviceClass::Application(ORG_DAQ)
    }

    fn on_private(&mut self, ctx: &mut Dispatcher<'_>, msg: Delivery) {
        if msg.private.map(|p| p.x_function) != Some(xfn::PING) {
            return;
        }
        let echo = Message::build_private(msg.header.initiator, ctx.own_tid(), ORG_DAQ, xfn::PING)
            .priority(msg.priority())
            .transaction(msg.header.transaction_context)
            .payload(msg.payload().to_vec())
            .finish();
        let _ = ctx.send(echo);
        self.echoed.fetch_add(1, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xdaq_core::{Executive, ExecutiveConfig};

    /// In-process ping-pong across two devices on one executive.
    #[test]
    fn local_ping_pong_completes() {
        let exec = Executive::new(ExecutiveConfig::named("n"));
        let state = PingState::new();
        let ponger = Ponger::new();
        let echoed = ponger.echoed.clone();
        let pong_tid = exec.register("pong", Box::new(ponger), &[]).unwrap();
        let ping_tid = exec
            .register(
                "ping",
                Box::new(Pinger::new(state.clone())),
                &[
                    ("peer", &pong_tid.raw().to_string()),
                    ("payload", "64"),
                    ("count", "10"),
                ],
            )
            .unwrap();
        exec.enable_all();
        exec.post(Message::build_private(ping_tid, Tid::HOST, ORG_DAQ, xfn::PING_START).finish())
            .unwrap();
        while exec.run_once() > 0 {}
        assert!(state.done.load(Ordering::SeqCst));
        assert_eq!(state.completed.load(Ordering::SeqCst), 10);
        assert_eq!(echoed.load(Ordering::SeqCst), 10);
        assert_eq!(state.rtts_ns.lock().len(), 10);
        assert!(state.one_way_ns().iter().all(|&v| v > 0));
    }

    #[test]
    fn pinger_without_peer_stays_idle() {
        let exec = Executive::new(ExecutiveConfig::named("n"));
        let state = PingState::new();
        let ping_tid = exec
            .register("ping", Box::new(Pinger::new(state.clone())), &[])
            .unwrap();
        exec.enable_all();
        exec.post(Message::build_private(ping_tid, Tid::HOST, ORG_DAQ, xfn::PING_START).finish())
            .unwrap();
        while exec.run_once() > 0 {}
        assert!(!state.done.load(Ordering::SeqCst));
        assert_eq!(state.completed.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn ponger_ignores_foreign_functions() {
        let exec = Executive::new(ExecutiveConfig::named("n"));
        let ponger = Ponger::new();
        let echoed = ponger.echoed.clone();
        let tid = exec.register("pong", Box::new(ponger), &[]).unwrap();
        exec.enable_all();
        exec.post(Message::build_private(tid, Tid::HOST, ORG_DAQ, 0x7777).finish())
            .unwrap();
        while exec.run_once() > 0 {}
        assert_eq!(echoed.load(Ordering::SeqCst), 0);
    }
}
