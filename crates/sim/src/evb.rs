//! A simulated N×M event-builder topology: the sweep harness's
//! standard workload.
//!
//! [`SimEvb`] assembles `1 + n_ru + n_bu` nodes on one [`SimCluster`]:
//! a host node running the [`EventManager`] plus the filter collector,
//! `n_ru` readout nodes and `n_bu` builder nodes — the same mesh the
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
use xdaq_evb::{xfn, BuilderUnit, EventManager, EvmStats, ReadoutUnit, ORG_DAQ};
use xdaq_i2o::{DeviceClass, Message, Tid, UtilFn};

/// Shape and tuning of the simulated mesh.
#[derive(Clone, Debug)]
pub struct EvbOptions {
    /// Readout-unit count.
    pub n_ru: usize,
    /// Builder-unit count.
    pub n_bu: usize,
    /// Fragment payload bytes per source.
    pub fragment_size: u32,
    /// Credits each builder grants the EVM.
    pub credits: u32,
    /// Trigger pacing (virtual microseconds per fresh event; 0 =
    /// free-running). Pacing is what makes a run *occupy* virtual
    /// time: free-running, the pump drains a whole run without the
    /// clock ever advancing, so scheduled faults would all land after
    /// the last event. At the default 10 ms beat a 30-event run spans
    /// 300 ms of virtual time — the window the fault generator aims at.
    pub trigger_interval_us: u64,
    /// Builder reassembly timeout (virtual milliseconds).
    pub bu_timeout_ms: u64,
    /// Re-pull rounds before a builder discards an event.
    pub bu_max_retries: u32,
    /// Reassignments before the EVM counts an event lost. Generous:
    /// the sweeps assert *zero* loss, so recovery must be allowed to
    /// grind through long fault windows rather than give up.
    pub max_reassign: u32,
    /// Host-side supervision of the builder links. The defaults
    /// detect a blackout in `interval × down_after` = 80 ms of
    /// virtual time — faster than the shortest scheduled fault
    /// window, so a killed builder is always reclaimed.
    pub supervision: SupervisionConfig,
}

impl Default for EvbOptions {
    fn default() -> EvbOptions {
        EvbOptions {
            n_ru: 2,
            n_bu: 2,
            fragment_size: 256,
            credits: 4,
            trigger_interval_us: 10_000,
            bu_timeout_ms: 20,
            bu_max_retries: 25,
            max_reassign: 100,
            supervision: SupervisionConfig {
                interval: Duration::from_millis(20),
                suspect_after: 2,
                down_after: 4,
            },
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
    evm_tid: Tid,
    /// Builder (name, url, remote tid) triples for proxy repair: the
    /// host executive *evicts* a Down builder's proxy (routes, name,
    /// tid), so after a revive the control plane must re-proxy before
    /// the EVM's rescan can resolve the name again.
    bu_proxies: Vec<(String, String, Tid)>,
    stats: Arc<EvmStats>,
    ids: Arc<Mutex<BTreeSet<u64>>>,
    opts: EvbOptions,
}

impl SimEvb {
    /// Builds the mesh. Node registration order is fixed, so TiD
    /// assignment — and therefore every downstream route — is
    /// deterministic.
    pub fn new(opts: EvbOptions) -> SimEvb {
        let mut cluster = SimCluster::new();
        let log = TraceLog::new();
        let sup = opts.supervision.clone();
        let host = cluster.add_node_with("host", |c| c.supervision = Some(sup));
        let ru_execs: Vec<Executive> = (0..opts.n_ru)
            .map(|i| cluster.add_node(&format!("ru{i}")))
            .collect();
        let bu_execs: Vec<Executive> = (0..opts.n_bu)
            .map(|j| cluster.add_node(&format!("bu{j}")))
            .collect();

        let ids = Arc::new(Mutex::new(BTreeSet::new()));
        let flt_tid = host
            .register(
                "flt",
                Box::new(Collector {
                    ids: ids.clone(),
                    log: log.clone(),
                    vclock: cluster.vclock().clone(),
                }),
                &[],
            )
            .expect("register collector");

        let mut ru_tids = Vec::new();
        for (i, exec) in ru_execs.iter().enumerate() {
            let tid = exec
                .register(
                    "readout",
                    Box::new(ReadoutUnit::new()),
                    &[
                        ("source_id", &i.to_string()),
                        ("sources", &opts.n_ru.to_string()),
                        ("size", &opts.fragment_size.to_string()),
                    ],
                )
                .expect("register readout");
            ru_tids.push(tid);
        }

        let ru_names: Vec<String> = (0..opts.n_ru).map(|i| format!("ru{i}")).collect();
        let mut bu_tids = Vec::new();
        for exec in bu_execs.iter() {
            exec.proxy(&SimCluster::url("host"), flt_tid, Some("flt"))
                .expect("proxy filter");
            for (i, &ru_tid) in ru_tids.iter().enumerate() {
                exec.proxy(
                    &SimCluster::url(&format!("ru{i}")),
                    ru_tid,
                    Some(&ru_names[i]),
                )
                .expect("proxy readout");
            }
            let tid = exec
                .register(
                    "builder",
                    Box::new(BuilderUnit::new()),
                    &[
                        ("rus", &ru_names.join(",")),
                        ("filter", "flt"),
                        ("credits", &opts.credits.to_string()),
                        ("timeout_ms", &opts.bu_timeout_ms.to_string()),
                        ("max_retries", &opts.bu_max_retries.to_string()),
                    ],
                )
                .expect("register builder");
            bu_tids.push(tid);
        }

        let mut bu_urls = Vec::new();
        let mut bu_proxies = Vec::new();
        for (i, &ru_tid) in ru_tids.iter().enumerate() {
            host.proxy(
                &SimCluster::url(&format!("ru{i}")),
                ru_tid,
                Some(&ru_names[i]),
            )
            .expect("host proxy readout");
        }
        let bu_names: Vec<String> = (0..opts.n_bu).map(|j| format!("bu{j}")).collect();
        for (j, &bu_tid) in bu_tids.iter().enumerate() {
            let url = SimCluster::url(&format!("bu{j}"));
            host.proxy(&url, bu_tid, Some(&bu_names[j]))
                .expect("host proxy builder");
            host.supervise(&url).expect("supervise builder");
            bu_proxies.push((bu_names[j].clone(), url.clone(), bu_tid));
            bu_urls.push(url);
        }

        let evm = EventManager::new();
        let stats = evm.stats();
        let evm_tid = host
            .register(
                "evm",
                Box::new(evm),
                &[
                    ("readouts", &ru_names.join(",")),
                    ("bus", &bu_names.join(",")),
                    ("bu_urls", &bu_urls.join(",")),
                    ("max_reassign", &opts.max_reassign.to_string()),
                    ("trigger_interval_us", &opts.trigger_interval_us.to_string()),
                ],
            )
            .expect("register evm");

        host.enable_all();
        for e in ru_execs.iter().chain(bu_execs.iter()) {
            e.enable_all();
        }

        SimEvb {
            cluster,
            log,
            host,
            evm_tid,
            bu_proxies,
            stats,
            ids,
            opts,
        }
    }

    /// The mesh options this instance was built with.
    pub fn opts(&self) -> &EvbOptions {
        &self.opts
    }

    /// The event manager's live counters.
    pub fn stats(&self) -> &Arc<EvmStats> {
        &self.stats
    }

    /// Opens a run of `target` events.
    pub fn start_run(&self, target: u64) {
        self.stats.run_done.store(target == 0, Ordering::SeqCst);
        self.host
            .post(
                Message::build_private(self.evm_tid, Tid::HOST, ORG_DAQ, xfn::RUN)
                    .payload(target.to_le_bytes().to_vec())
                    .finish(),
            )
            .expect("post RUN");
    }

    /// Repairs proxies and raises `evb.rescan=1` on the event manager
    /// — what the control plane does after reviving a node. When
    /// supervision declared a builder Down, the host *evicted* its
    /// proxy entirely (name, tid, routes), so the first step is
    /// re-proxying any builder whose name no longer resolves; only
    /// then can the EVM's rescan clear its dead set and re-invite
    /// builders without a credit entry.
    pub fn rescan(&self) {
        for (name, url, remote) in &self.bu_proxies {
            if self.host.core().lookup_name(name).is_none() {
                self.log
                    .push(self.cluster.elapsed(), &format!("reproxy {name}"));
                self.host
                    .proxy(url, *remote, Some(name))
                    .expect("re-proxy builder");
            }
        }
        self.log.push(self.cluster.elapsed(), "rescan");
        self.host
            .post(
                Message::util(self.evm_tid, Tid::HOST, UtilFn::ParamsSet)
                    .payload(kv(&[("evb.rescan", "1")]))
                    .finish(),
            )
            .expect("post rescan");
    }

    /// True once `completed + lost` reached the run target.
    pub fn run_done(&self) -> bool {
        self.stats.run_done.load(Ordering::SeqCst)
    }

    /// Events built and cleared.
    pub fn completed(&self) -> u64 {
        self.stats.completed.load(Ordering::SeqCst)
    }

    /// Events abandoned after `max_reassign` attempts.
    pub fn lost(&self) -> u64 {
        self.stats.lost.load(Ordering::SeqCst)
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
