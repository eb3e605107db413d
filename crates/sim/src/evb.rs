//! A simulated N×M event-builder topology: the sweep harness's
//! standard workload.
//!
//! [`SimEvb`] assembles `1 + N_RU + N_BU` nodes on one [`SimCluster`]
//! and wires them with [`xdaq_evb::Mesh`], as every in-process rig
//! does: a host node running the event manager plus the filter
//! collector, two readout nodes and two builder nodes — the same mesh the
//! 7-process `tests/evb.rs` integration test builds out of real OS
//! processes and `shm://` regions, shrunk onto the simulated fabric
//! where a whole run takes microseconds of wall time and every
//! delivery is deterministic.
//!
//! The host supervises each builder's `sim://` URL, so a blackout
//! turns into `XFN_PEER_DOWN` at the EVM (credit reclamation +
//! reassignment) exactly as in production; after the sweep driver
//! revives or heals something it raises `evb.rescan=1` the way the
//! `xdaq-ctl` convergence loop does after a respawn.

use crate::cluster::SimCluster;
use crate::trace::TraceLog;
use parking_lot::Mutex;
use std::collections::BTreeSet;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;
use xdaq_core::config::kv;
use xdaq_core::{Delivery, Dispatcher, Executive, I2oListener, SupervisionConfig, VirtualClock};
use xdaq_evb::{xfn, Mesh, Roles, ORG_DAQ};
use xdaq_i2o::{DeviceClass, Message, Tid, UtilFn};

/// Readout-unit count.
pub(crate) const N_RU: usize = 2;
/// Builder-unit count.
pub(crate) const N_BU: usize = 2;
/// Fragment payload bytes per source.
const FRAGMENT_SIZE: u32 = 256;
/// Credits each builder grants the EVM.
const CREDITS: u32 = 4;
/// Trigger pacing (virtual microseconds per fresh event). Pacing is
/// what makes a run *occupy* virtual time: free-running, the pump
/// drains a whole run without the clock ever advancing, so scheduled
/// faults would all land after the last event. At this 10 ms beat a
/// 30-event run spans 300 ms of virtual time — the window the fault
/// generator aims at.
const TRIGGER_INTERVAL_US: u64 = 10_000;
/// Builder reassembly timeout (virtual milliseconds).
const BU_TIMEOUT_MS: u64 = 20;
/// Host-side supervision of the builder links: a blackout is detected
/// in `interval × down_after` = 80 ms of virtual time — faster than
/// the shortest scheduled fault window, so a killed builder is always
/// reclaimed.
pub(crate) const SUPERVISION: SupervisionConfig = SupervisionConfig {
    interval: Duration::from_millis(20),
    suspect_after: 2,
    down_after: 4,
};

/// The recovery budgets of the simulated mesh; its shape and pacing
/// are the constants above.
#[derive(Clone, Debug)]
pub struct EvbOptions {
    /// Re-pull rounds before a builder discards an event.
    pub bu_max_retries: u32,
    /// Reassignments before the EVM counts an event lost. Generous:
    /// the sweeps assert *zero* loss, so recovery must be allowed to
    /// grind through long fault windows rather than give up.
    pub max_reassign: u32,
}

impl Default for EvbOptions {
    fn default() -> EvbOptions {
        EvbOptions {
            bu_max_retries: 25,
            max_reassign: 100,
        }
    }
}

/// Counts distinct event ids reaching the filter (delivery after a
/// reassignment is at-least-once; the id set is the exactly-once
/// view) and logs each first arrival into the golden trace.
struct Collector {
    ids: Arc<Mutex<BTreeSet<u64>>>,
    log: TraceLog,
    vclock: Arc<VirtualClock>,
}

impl I2oListener for Collector {
    fn class(&self) -> DeviceClass {
        DeviceClass::Application(ORG_DAQ)
    }

    fn on_private(&mut self, _ctx: &mut Dispatcher<'_>, msg: Delivery) {
        if msg.private.map(|p| p.x_function) != Some(xfn::EVENT) {
            return;
        }
        let Some(bytes) = msg.payload().get(0..8) else {
            return;
        };
        let id = u64::from_le_bytes(bytes.try_into().unwrap());
        if self.ids.lock().insert(id) {
            self.log
                .push(self.vclock.elapsed(), &format!("built event={id}"));
        }
    }
}

/// The assembled mesh. Fault-injection goes through
/// `evb.cluster.net()`; node names are `host`, `ru0..`, `bu0..`.
pub struct SimEvb {
    /// The underlying cluster (drive loop, fabric, clock).
    pub cluster: SimCluster,
    /// The golden-trace log (faults, completions, accounting).
    pub log: TraceLog,
    host: Executive,
    /// The host executive *evicts* a Down builder's proxy (routes,
    /// name, tid), so after a revive the control plane re-proxies each
    /// builder from here before the EVM's rescan can resolve the name
    /// again.
    mesh: Mesh,
    ids: Arc<Mutex<BTreeSet<u64>>>,
}

impl SimEvb {
    /// Builds the mesh through [`Mesh`], whose fixed registration
    /// order makes TiD assignment — and therefore every downstream
    /// route — deterministic.
    pub fn new(opts: EvbOptions) -> SimEvb {
        let mut cluster = SimCluster::new();
        let log = TraceLog::new();
        let host = cluster.add_node_with("host", |c| c.supervision = Some(SUPERVISION));
        let names: Vec<String> = (0..N_RU)
            .map(|i| format!("ru{i}"))
            .chain((0..N_BU).map(|j| format!("bu{j}")))
            .collect();
        let execs: Vec<Executive> = names.iter().map(|n| cluster.add_node(n)).collect();
        let urls: Vec<String> = names.iter().map(|n| SimCluster::url(n)).collect();
        let nodes: Vec<(&str, &Executive)> = urls.iter().map(String::as_str).zip(&execs).collect();

        let ids = Arc::new(Mutex::new(BTreeSet::new()));
        host.register(
            "flt",
            Box::new(Collector {
                ids: ids.clone(),
                log: log.clone(),
                vclock: cluster.vclock().clone(),
            }),
            &[],
        )
        .expect("register collector");
        let mesh = Mesh::new(
            &host,
            &nodes[..N_RU],
            &nodes[N_RU..],
            ((&SimCluster::url("host"), &host), "flt"),
            Roles {
                readout: &[("size", &FRAGMENT_SIZE.to_string())],
                builder: &[
                    ("credits", &CREDITS.to_string()),
                    ("timeout_ms", &BU_TIMEOUT_MS.to_string()),
                    ("max_retries", &opts.bu_max_retries.to_string()),
                ],
                manager: &[
                    ("max_reassign", &opts.max_reassign.to_string()),
                    ("trigger_interval_us", &TRIGGER_INTERVAL_US.to_string()),
                ],
            },
        )
        .expect("wire the mesh");
        SimEvb {
            cluster,
            log,
            host,
            mesh,
            ids,
        }
    }

    /// Opens a run of `target` events.
    pub fn start_run(&self, target: u64) {
        self.mesh.start_run(target).expect("post RUN");
    }

    /// Repairs proxies and raises `evb.rescan=1` on the event manager
    /// — what the control plane does after reviving a node. When
    /// supervision declared a builder Down, the host *evicted* its
    /// proxy entirely (name, tid, routes), so the first step is
    /// re-proxying any builder whose name no longer resolves; only
    /// then can the EVM's rescan clear its dead set and re-invite
    /// builders without a credit entry.
    pub fn rescan(&self) {
        for (j, bu) in self.mesh.builders.iter().enumerate() {
            let name = format!("bu{j}");
            if self.host.core().lookup_name(&name).is_none() {
                self.log
                    .push(self.cluster.elapsed(), &format!("reproxy {name}"));
                self.host
                    .proxy(&bu.url, bu.tid, Some(&name))
                    .expect("re-proxy builder");
            }
        }
        self.log.push(self.cluster.elapsed(), "rescan");
        self.host
            .post(
                Message::util(self.mesh.evm, Tid::HOST, UtilFn::ParamsSet)
                    .payload(kv(&[("evb.rescan", "1")]))
                    .finish(),
            )
            .expect("post rescan");
    }

    /// True once `completed + lost` reached the run target.
    pub fn run_done(&self) -> bool {
        self.mesh.evm_stats.run_done.load(Ordering::SeqCst)
    }

    /// Events built and cleared.
    pub fn completed(&self) -> u64 {
        self.mesh.evm_stats.completed.load(Ordering::SeqCst)
    }

    /// Events abandoned after `max_reassign` attempts.
    pub fn lost(&self) -> u64 {
        self.mesh.evm_stats.lost.load(Ordering::SeqCst)
    }

    /// Distinct event ids that reached the filter.
    pub fn distinct_events(&self) -> u64 {
        self.ids.lock().len() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_free_run_builds_every_event() {
        let evb = SimEvb::new(EvbOptions::default());
        evb.start_run(50);
        evb.cluster
            .run_until(|| evb.run_done(), Duration::from_secs(30))
            .expect("run to completion");
        assert_eq!(evb.completed(), 50);
        assert_eq!(evb.lost(), 0);
        assert_eq!(evb.distinct_events(), 50);
    }

    #[test]
    fn killed_builder_is_reclaimed_in_virtual_time() {
        let evb = SimEvb::new(EvbOptions::default());
        evb.start_run(200);
        // Let the run get going, then black out builder 0 for 150 ms.
        evb.cluster
            .run_until(|| evb.completed() >= 20, Duration::from_secs(10))
            .expect("run never got going");
        evb.cluster.net().kill("bu0");
        let t = evb.cluster.vclock().now() + Duration::from_millis(150);
        evb.cluster.run_to(t);
        evb.cluster.net().revive("bu0");
        evb.rescan();
        evb.cluster
            .run_until(|| evb.run_done(), Duration::from_secs(60))
            .expect("survivors stalled");
        assert_eq!(evb.lost(), 0, "events lost across the blackout");
        assert_eq!(evb.completed(), 200);
        assert_eq!(evb.distinct_events(), 200);
    }
}
