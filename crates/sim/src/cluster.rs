//! The discrete-event cluster harness.
//!
//! [`SimCluster`] runs N executives in one thread on one shared
//! [`VirtualClock`], connected by a [`SimNet`] fabric. The drive loop
//! alternates two phases:
//!
//! 1. **Pump to quiescence** — every live (non-killed) node's
//!    [`Executive::run_once`] is called round-robin until one full
//!    pass performs zero work. At that point nothing in the cluster
//!    can make progress without time passing: every queue is empty
//!    and every pending action is parked behind a timer deadline or a
//!    delayed frame.
//! 2. **Jump** — the clock advances *directly* to the earliest armed
//!    deadline: the minimum over every live node's timer wheel and
//!    the fabric's next delayed-frame release. No interval is ever
//!    stepped through; a heartbeat schedule that would take minutes
//!    of wall time replays in microseconds.
//!
//! Killed nodes are excluded from both phases — they are frozen in
//! time, and their stale timer deadlines must not drag the clock (a
//! past deadline that can never fire would otherwise pin `now`
//! forever). The sweep driver wakes the cluster for revive/heal
//! points by bounding the run with [`SimCluster::run_to`].
//!
//! If the cluster quiesces with *no* deadline anywhere and the
//! predicate is still false, the run is genuinely deadlocked —
//! [`SimError::Stalled`] reports it rather than spinning.

use crate::net::{SimNet, SimPt};
use std::fmt;
use std::sync::Arc;
use std::time::{Duration, Instant};
use xdaq_core::{Clock, Executive, ExecutiveConfig, VirtualClock};

/// Why a simulation run stopped early.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// Quiescent, no armed timer or delayed frame, predicate false:
    /// the cluster can never make progress again.
    Stalled {
        /// Virtual time since the cluster started.
        at: Duration,
    },
    /// The virtual-time budget ran out before the predicate held.
    Budget {
        /// The exhausted budget.
        max: Duration,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Stalled { at } => {
                write!(f, "simulation deadlocked at t+{}us", at.as_micros())
            }
            SimError::Budget { max } => {
                write!(f, "virtual budget of {}ms exhausted", max.as_millis())
            }
        }
    }
}

impl std::error::Error for SimError {}

struct Node {
    name: String,
    exec: Executive,
}

/// N in-process executives on a shared virtual clock and a simulated
/// fabric. See the module docs for the drive loop.
pub struct SimCluster {
    clock: Clock,
    vclock: Arc<VirtualClock>,
    net: Arc<SimNet>,
    nodes: Vec<Node>,
}

impl SimCluster {
    /// An empty cluster with a fresh virtual clock and fabric.
    pub fn new() -> SimCluster {
        let (clock, vclock) = Clock::simulated();
        let net = SimNet::new(clock.clone());
        SimCluster {
            clock,
            vclock,
            net,
            nodes: Vec::new(),
        }
    }

    /// The shared clock handle (pass to anything needing sim time).
    pub fn clock(&self) -> &Clock {
        &self.clock
    }

    /// The underlying virtual clock.
    pub fn vclock(&self) -> &Arc<VirtualClock> {
        &self.vclock
    }

    /// The fabric (fault-injection controls live here).
    pub fn net(&self) -> &Arc<SimNet> {
        &self.net
    }

    /// Virtual time elapsed since the cluster was created.
    pub fn elapsed(&self) -> Duration {
        self.vclock.elapsed()
    }

    /// The `sim://` URL of a node.
    pub fn url(name: &str) -> String {
        format!("sim://{name}")
    }

    /// Adds a node: builds its executive on the shared clock, attaches
    /// it to the fabric under `name` (transport `"pt"`), and hands the
    /// configuration to `f` for extra settings (supervision…).
    pub fn add_node_with(&mut self, name: &str, f: impl FnOnce(&mut ExecutiveConfig)) -> Executive {
        let mut config = ExecutiveConfig::named(name);
        config.clock = self.clock.clone();
        f(&mut config);
        let exec = Executive::new(config);
        let pt: Arc<SimPt> = self.net.attach(name);
        exec.register_pt("pt", pt).expect("attach sim transport");
        self.nodes.push(Node {
            name: name.to_string(),
            exec: exec.clone(),
        });
        exec
    }

    /// Adds a node with default executive configuration.
    pub fn add_node(&mut self, name: &str) -> Executive {
        self.add_node_with(name, |_| {})
    }

    /// The executive of a node added earlier.
    pub fn exec(&self, name: &str) -> &Executive {
        &self
            .nodes
            .iter()
            .find(|n| n.name == name)
            .unwrap_or_else(|| panic!("unknown sim node {name:?}"))
            .exec
    }

    /// One pass of `run_once` over every live node.
    fn pump_pass(&self) -> usize {
        let mut work = 0;
        for n in &self.nodes {
            if !self.net.is_killed(&n.name) {
                work += n.exec.run_once();
            }
        }
        work
    }

    /// Earliest armed deadline across live timer wheels and the fabric.
    fn next_deadline(&self) -> Option<Instant> {
        let mut next: Option<Instant> = None;
        let mut fold = |t: Instant| match next {
            Some(n) if n <= t => {}
            _ => next = Some(t),
        };
        for n in &self.nodes {
            if self.net.is_killed(&n.name) {
                continue;
            }
            if let Some(t) = n.exec.core().timers().next_deadline() {
                fold(t);
            }
        }
        if let Some(t) = self.net.next_release() {
            fold(t);
        }
        next
    }

    fn drive(
        &self,
        mut pred: impl FnMut() -> bool,
        bound: Option<Instant>,
        max: Duration,
    ) -> Result<(), SimError> {
        // `run_to` passes Duration::MAX; saturate instead of panicking.
        let limit = self.vclock.now().checked_add(max);
        loop {
            while self.pump_pass() > 0 {}
            if pred() {
                return Ok(());
            }
            let now = self.vclock.now();
            if bound.is_some_and(|b| now >= b) {
                return Ok(());
            }
            let mut target = match (self.next_deadline(), bound) {
                (Some(t), Some(b)) => t.min(b),
                (Some(t), None) => t,
                (None, Some(b)) => b,
                (None, None) => {
                    return Err(SimError::Stalled {
                        at: self.vclock.elapsed(),
                    })
                }
            };
            if target <= now {
                // A deadline in the (virtual) past — fire it on the
                // very next instant rather than freezing time.
                target = now + Duration::from_nanos(1);
            }
            if limit.is_some_and(|l| target > l) {
                return Err(SimError::Budget { max });
            }
            self.vclock.advance_to(target);
        }
    }

    /// Pumps and jumps until `pred` holds, spending at most `max`
    /// virtual time from now.
    pub fn run_until(&self, pred: impl FnMut() -> bool, max: Duration) -> Result<(), SimError> {
        self.drive(pred, None, max)
    }

    /// Pumps and jumps until the virtual clock reaches `deadline`
    /// (used by the sweep driver to wake up at fault times). A
    /// deadlock before the deadline is *not* an error here — time
    /// simply jumps to the deadline.
    pub fn run_to(&self, deadline: Instant) {
        let r = self.drive(|| false, Some(deadline), Duration::MAX);
        debug_assert!(r.is_ok(), "bounded drive cannot fail: {r:?}");
    }
}

impl Default for SimCluster {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_cluster_stalls_cleanly() {
        let c = SimCluster::new();
        let err = c.run_until(|| false, Duration::from_secs(1)).unwrap_err();
        assert!(matches!(err, SimError::Stalled { .. }));
    }

    #[test]
    fn run_to_jumps_without_deadlines() {
        let c = SimCluster::new();
        let t = c.vclock().now() + Duration::from_millis(250);
        c.run_to(t);
        assert!(c.vclock().now() >= t);
    }

    #[test]
    fn heartbeats_replay_in_virtual_time() {
        use std::time::Instant as WallInstant;
        use xdaq_core::SupervisionConfig;

        let mut c = SimCluster::new();
        let a = c.add_node_with("a", |cfg| {
            cfg.supervision = Some(SupervisionConfig {
                interval: Duration::from_millis(100),
                suspect_after: 2,
                down_after: 5,
            })
        });
        let _b = c.add_node("b");
        a.supervise(&SimCluster::url("b")).unwrap();
        a.enable_all();
        c.exec("b").enable_all();

        // Ten supervision intervals = a second of virtual time; the
        // wall clock should see almost none of it.
        let wall = WallInstant::now();
        let t = c.vclock().now() + Duration::from_secs(1);
        c.run_to(t);
        assert!(
            wall.elapsed() < Duration::from_secs(1),
            "virtual heartbeats must not sleep on the wall clock"
        );
        // The link stayed Up the whole time: pongs flowed every tick.
        let states = a.link_states();
        assert_eq!(states.len(), 1);
        assert_eq!(format!("{:?}", states[0].1), "Up");
    }
}
