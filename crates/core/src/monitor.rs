//! The monitor agent: a utility device class answering monitoring
//! requests over ordinary I2O frames.
//!
//! The paper (§3.5) folds node observation into the executive's
//! "application programming interfaces to interface to the ... error
//! and monitor handler" — here that handler is an [`I2oListener`] like
//! any other device: it gets a TiD, shows up in the registry, and is
//! addressed with plain utility frames, so a host can scrape a node
//! through whatever peer transport already connects them.
//!
//! Three utility functions (see `xdaq_i2o::UtilFn`):
//!
//! * `MonSnapshot` (0x30) — replies with the node's full monitoring
//!   document as JSON: registry metrics (counters, per-priority queue
//!   gauges, dispatch-latency histogram), pool accounting, per-PT
//!   frame/byte counters and tracer state.
//! * `MonReset` (0x31) — zeroes all registry metrics, PT counters and
//!   the trace ring.
//! * `MonTraceDump` (0x32) — replies with the frame-lifecycle trace
//!   ring as JSON. A one-byte payload enables (non-zero) or disables
//!   (zero) the tracer; an empty payload dumps without toggling.
//!
//! The executive's own default utility procedure answers the same
//! three functions on TiD 1, so a `MonitorAgent` instance is optional;
//! registering one gives monitoring traffic its own TiD (and thus its
//! own scheduling FIFO and fault domain), keeping scrapes out of the
//! executive's control-message queue.

use crate::listener::{Delivery, Dispatcher, I2oListener, UtilOutcome};
use xdaq_i2o::{DeviceClass, ReplyStatus, UtilFn};

/// Utility device class serving `MonSnapshot` / `MonReset` /
/// `MonTraceDump` requests.
#[derive(Debug, Default)]
pub struct MonitorAgent {
    /// Snapshot requests answered since registration.
    served: u64,
}

impl MonitorAgent {
    /// New agent; register it with
    /// `Executive::register("mon0", Box::new(MonitorAgent::new()), ..)`.
    pub fn new() -> MonitorAgent {
        MonitorAgent::default()
    }

    /// Snapshot requests answered since registration.
    pub fn served(&self) -> u64 {
        self.served
    }
}

impl I2oListener for MonitorAgent {
    fn class(&self) -> DeviceClass {
        DeviceClass::Monitor
    }

    fn on_private(&mut self, ctx: &mut Dispatcher<'_>, msg: Delivery) {
        // The agent speaks only the utility monitoring vocabulary.
        let _ = ctx.reply(&msg, ReplyStatus::UnsupportedFunction, &[]);
    }

    fn on_util(&mut self, ctx: &mut Dispatcher<'_>, f: UtilFn, msg: &Delivery) -> UtilOutcome {
        match f {
            UtilFn::MonSnapshot => {
                self.served += 1;
                let body = serde_json::to_string(&ctx.core.mon_snapshot());
                let _ = ctx.reply(msg, ReplyStatus::Success, body.as_bytes());
                UtilOutcome::Handled
            }
            UtilFn::MonReset => {
                ctx.core.mon_reset();
                let _ = ctx.reply(msg, ReplyStatus::Success, &[]);
                UtilOutcome::Handled
            }
            UtilFn::MonTraceDump => {
                if let Some(&arg) = msg.payload().first() {
                    ctx.core.monitors().tracer().set_enabled(arg != 0);
                }
                let body = serde_json::to_string(&ctx.core.monitors().tracer().dump_value());
                let _ = ctx.reply(msg, ReplyStatus::Success, body.as_bytes());
                UtilOutcome::Handled
            }
            _ => UtilOutcome::Default,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn monitor_agent_class() {
        let a = MonitorAgent::new();
        assert_eq!(a.class(), DeviceClass::Monitor);
        assert_eq!(a.served(), 0);
    }
}
