//! The event builder run entirely from a declaration file.
//!
//! One binary, two roles. Launched plainly, it is the control plane:
//! it loads `examples/evb_cluster.xtop`, `apply`s it through xcl —
//! spawning six managed executives (3 RU, 2 BU, manager) as child
//! processes of this same binary — starts a run, SIGKILLs a builder
//! mid-run to show the convergence loop respawn and reroute it, then
//! rolling-restarts the other builder with `drain`. Launched by the
//! controller (the `XDAQ_CTL_*` environment is set), it is a managed
//! node: it registers the module factories and hands control to
//! [`xdaq::ctl::run_managed_node`].
//!
//! ```text
//! cargo run --release --example ctl_cluster
//! ```

use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};
use xdaq::core::listener::UtilOutcome;
use xdaq::core::{Delivery, Dispatcher, I2oListener};
use xdaq::ctl::{control_host, Controller, ManagedEnv, SelfExec, XclInterpreter};
use xdaq::evb::{xfn, BuilderUnit, EventManager, ReadoutUnit, ORG_DAQ};
use xdaq::i2o::{DeviceClass, Message, Tid, UtilFn};

/// Filter-side sink: counts EVENT frames, dedups ids, and mirrors
/// both into its parameter map so the control plane reads them with
/// ParamsGet.
struct Collector {
    ids: HashSet<u64>,
    received: AtomicU64,
}

impl I2oListener for Collector {
    fn class(&self) -> DeviceClass {
        DeviceClass::Application(ORG_DAQ)
    }
    fn on_private(&mut self, _ctx: &mut Dispatcher<'_>, msg: Delivery) {
        if msg.private.map(|p| p.x_function) == Some(xfn::EVENT) {
            let id = u64::from_le_bytes(msg.payload()[0..8].try_into().unwrap());
            self.ids.insert(id);
            self.received.fetch_add(1, Ordering::Relaxed);
        }
    }
    fn on_util(&mut self, ctx: &mut Dispatcher<'_>, f: UtilFn, _msg: &Delivery) -> UtilOutcome {
        if f == UtilFn::ParamsGet {
            ctx.set_param("col.unique", &self.ids.len().to_string());
            ctx.set_param(
                "col.received",
                &self.received.load(Ordering::Relaxed).to_string(),
            );
        }
        UtilOutcome::Default
    }
}

/// Managed-node role: register the declared factories, let the runner
/// drive the executive.
fn managed() {
    xdaq::ctl::run_managed_node(|exec| {
        exec.register_factory(
            "readout",
            Box::new(|_| Box::new(ReadoutUnit::new()) as Box<dyn I2oListener>),
        );
        exec.register_factory(
            "builder",
            Box::new(|_| Box::new(BuilderUnit::new()) as Box<dyn I2oListener>),
        );
        exec.register_factory(
            "evm",
            Box::new(|_| Box::new(EventManager::new()) as Box<dyn I2oListener>),
        );
        exec.register_factory(
            "collector",
            Box::new(|_| {
                Box::new(Collector {
                    ids: HashSet::new(),
                    received: AtomicU64::new(0),
                }) as Box<dyn I2oListener>
            }),
        );
    })
    .expect("managed node runs");
}

fn evm_param(host: &xdaq::ctl::ControlHost, evm: Tid, key: &str) -> String {
    host.params_get(evm)
        .ok()
        .and_then(|m| m.get(key).cloned())
        .unwrap_or_default()
}

fn wait_until(mut cond: impl FnMut() -> bool, timeout: Duration) -> bool {
    let deadline = Instant::now() + timeout;
    while Instant::now() < deadline {
        if cond() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    cond()
}

fn main() {
    if ManagedEnv::from_env().is_some() {
        managed();
        return;
    }

    const TARGET: u64 = 2000;
    let topo = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "examples/evb_cluster.xtop".to_string());
    let host = control_host("ctl").expect("control host");
    let ctl =
        Controller::new(&topo, host.clone(), Box::new(SelfExec::new(&[]))).expect("topology loads");
    ctl.start();
    let events = ctl.subscribe();

    // Drive bring-up exactly as an operator would: through xcl.
    let mut xcl = XclInterpreter::new(&host).with_controller(&ctl);
    let out = xcl.run("plan\napply\nregistry").expect("apply converges");
    for line in &out.log {
        println!("{line}");
    }

    let evm = ctl.module_proxy("mgr", "evm").expect("evm proxy");
    let flt = ctl.module_proxy("mgr", "flt").expect("collector proxy");
    host.executive()
        .post(
            Message::build_private(evm, Tid::HOST, ORG_DAQ, xfn::RUN)
                .payload(TARGET.to_le_bytes().to_vec())
                .finish(),
        )
        .expect("run starts");
    println!("run of {TARGET} events started");

    // Mid-run, murder builder 0: the poll loop notices the exit,
    // respawns it (generation 2), rewires every route touching it and
    // raises the event manager's rescan.
    assert!(
        wait_until(
            || evm_param(&host, evm, "evb.completed")
                .parse::<u64>()
                .unwrap_or(0)
                >= TARGET / 10,
            Duration::from_secs(60),
        ),
        "run never got going"
    );
    println!(
        "completed {}; killing bu0",
        evm_param(&host, evm, "evb.completed")
    );
    ctl.kill_node("bu0").expect("bu0 killed");

    assert!(
        wait_until(
            || evm_param(&host, evm, "evb.run_done") == "1",
            Duration::from_secs(120),
        ),
        "run stalled after the kill"
    );
    println!(
        "run done: completed={} lost={} reassigned={} (bu0 now gen {})",
        evm_param(&host, evm, "evb.completed"),
        evm_param(&host, evm, "evb.lost"),
        evm_param(&host, evm, "evb.reassigned"),
        ctl.generation("bu0"),
    );
    println!(
        "collector: unique={} received={}",
        evm_param(&host, flt, "col.unique"),
        evm_param(&host, flt, "col.received"),
    );

    // Rolling restart of the surviving builder, through xcl.
    let out = xcl.run("drain bu1\nregistry").expect("drain succeeds");
    for line in &out.log {
        println!("{line}");
    }

    println!("-- registry events --");
    for ev in events.drain() {
        println!(
            "  #{:<3} {:10} {:9} {}",
            ev.seq,
            ev.node,
            ev.kind.as_str(),
            ev.detail
        );
    }
}
