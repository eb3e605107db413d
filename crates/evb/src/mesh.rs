//! The event builder's one wiring rule.
//!
//! [`Mesh::new`] takes the executives of an N×M event builder — the
//! manager's, each readout's and each builder's, the last two with the
//! url their peers reach them at (`loop://<name>`, `sim://<name>`, …) —
//! and the filter the builders ship built events to, and returns the
//! mesh wired and enabled. Any placement wires: devices may share
//! executives in any combination, up to all of them on one. Every
//! device has one name on every node — readout `i` is `ru<i>`, builder
//! `j` is `bu<j>`, the filter keeps the name its caller registered it
//! under — and every wiring fact is derived here, in one order, so TiD
//! assignment is the same on every run:
//!
//! 1. readout `i` registers as `ru<i>` with `source_id = i` and
//!    `sources = N`;
//! 2. builder `j` reaches the filter and readout `i`, then registers as
//!    `bu<j>` with `rus = ru0,…` and `filter` the filter's name;
//! 3. the manager reaches readout `i` and builder `j`, supervising the
//!    link to each builder on another node when its executive has
//!    [`xdaq_core::ExecutiveConfig::supervision`], then registers `evm`
//!    with `readouts` and `bus`;
//! 4. the manager, the readouts and the builders enable, in that order.
//!
//! An executive reaches a device through a proxy under the device's
//! name, made at most once per executive and only when the name does
//! not resolve there already: a device on the same node is dispatched
//! locally, with no frame through a transport. The manager needs no
//! url: builders learn it from the `INVITE` it sends. Callers pass only
//! the module params they choose ([`Roles`]); a wiring key among them
//! is overridden. They register the filter (or a collector, or a
//! recorder tap in front of one) themselves — and enable it, when it is
//! on a node of its own — and they pump the executives themselves.

use crate::{xfn, BuilderUnit, EventManager, EvmStats, ReadoutUnit, ORG_DAQ};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use xdaq_core::{ExecError, Executive, I2oListener};
use xdaq_i2o::{Message, Tid};
use xdaq_mon::Counter;

/// The node a device lives on: the url its peers reach it at, and its
/// executive.
pub type Node<'a> = (&'a str, &'a Executive);

/// Module params, as [`Executive::register`] takes them.
pub type Params<'a> = &'a [(&'a str, &'a str)];

/// The module params callers choose, per role; each unset one keeps
/// its module's default.
#[derive(Clone, Copy, Debug, Default)]
pub struct Roles<'a> {
    /// Every readout unit's: `size`.
    pub readout: Params<'a>,
    /// Every builder unit's: `credits`, `timeout_ms`, `max_retries`.
    pub builder: Params<'a>,
    /// The event manager's: `max_reassign`, `trigger_interval_us`.
    pub manager: Params<'a>,
}

/// Builder unit `j` of a wired mesh, named `bu<j>` on every node.
#[derive(Clone, Debug)]
pub struct BuilderNode {
    /// The unit's TiD on its own node.
    pub tid: Tid,
    /// Its node's url.
    pub url: String,
    /// Its node's `evb.bu.built`: the events this unit built, when it
    /// is its node's only builder.
    pub built: Counter,
}

/// A wired, enabled N×M event builder.
pub struct Mesh {
    manager: Executive,
    /// The event manager's TiD on the manager node.
    pub evm: Tid,
    /// The event manager's counters.
    pub evm_stats: Arc<EvmStats>,
    /// The builder units, in the order their nodes were given.
    pub builders: Vec<BuilderNode>,
}

impl Mesh {
    /// Wires and enables the mesh; `filter` is the filter's node and
    /// the name it is registered under there.
    pub fn new(
        manager: &Executive,
        readouts: &[Node<'_>],
        builders: &[Node<'_>],
        filter: (Node<'_>, &str),
        roles: Roles<'_>,
    ) -> Result<Mesh, ExecError> {
        Mesh::wrapping(manager, readouts, builders, filter, roles, |_, unit| {
            Box::new(unit)
        })
    }

    /// As [`Mesh::new`], with `wrap(j, unit)` choosing the listener
    /// builder `j` registers around the unit the mesh made.
    pub fn wrapping(
        manager: &Executive,
        readouts: &[Node<'_>],
        builders: &[Node<'_>],
        ((filter_url, filter_exec), filter): (Node<'_>, &str),
        roles: Roles<'_>,
        mut wrap: impl FnMut(usize, BuilderUnit) -> Box<dyn I2oListener>,
    ) -> Result<Mesh, ExecError> {
        let filter_tid = filter_exec.core().lookup_name(filter).ok_or_else(|| {
            ExecError::BadControl(format!("no filter '{filter}' on {filter_url}"))
        })?;
        let sources = readouts.len().to_string();
        let ru_names: Vec<String> = (0..readouts.len()).map(|i| format!("ru{i}")).collect();
        let mut ru_tids = Vec::with_capacity(readouts.len());
        for (i, ((_, exec), name)) in readouts.iter().zip(&ru_names).enumerate() {
            let source_id = i.to_string();
            let wiring = [("source_id", &*source_id), ("sources", &sources)];
            let unit = Box::new(ReadoutUnit::new());
            ru_tids.push(exec.register(name, unit, &with(roles.readout, &wiring))?);
        }
        let reach_readouts = |exec: &Executive| -> Result<(), ExecError> {
            for (((url, _), tid), name) in readouts.iter().zip(&ru_tids).zip(&ru_names) {
                reach(exec, url, *tid, name)?;
            }
            Ok(())
        };
        let rus = ru_names.join(",");

        let bu_names: Vec<String> = (0..builders.len()).map(|j| format!("bu{j}")).collect();
        let mut units = Vec::with_capacity(builders.len());
        for (j, ((url, exec), name)) in builders.iter().zip(&bu_names).enumerate() {
            reach(exec, filter_url, filter_tid, filter)?;
            reach_readouts(exec)?;
            let wiring = [("rus", &*rus), ("filter", filter)];
            let unit = wrap(j, BuilderUnit::new());
            let tid = exec.register(name, unit, &with(roles.builder, &wiring))?;
            units.push(BuilderNode {
                tid,
                url: url.to_string(),
                built: exec.core().monitors().registry().counter("evb.bu.built"),
            });
        }

        reach_readouts(manager)?;
        for (((url, exec), bu), name) in builders.iter().zip(&units).zip(&bu_names) {
            reach(manager, url, bu.tid, name)?;
            if manager.has_supervision() && !Arc::ptr_eq(manager.core(), exec.core()) {
                manager.supervise(url)?;
            }
        }
        let wiring = [("readouts", &*rus), ("bus", &bu_names.join(","))];
        let unit = EventManager::new();
        let evm_stats = unit.stats();
        let evm = manager.register("evm", Box::new(unit), &with(roles.manager, &wiring))?;

        manager.enable_all();
        for (_, exec) in readouts.iter().chain(builders) {
            exec.enable_all();
        }
        Ok(Mesh {
            manager: manager.clone(),
            evm,
            evm_stats,
            builders: units,
        })
    }

    /// Opens a run of `target` events (`u64::MAX`: longer than any
    /// test); `evm_stats.run_done` then reports this run.
    pub fn start_run(&self, target: u64) -> Result<(), ExecError> {
        self.evm_stats.run_done.store(target == 0, Ordering::SeqCst);
        self.manager.post(
            Message::build_private(self.evm, Tid::HOST, ORG_DAQ, xfn::RUN)
                .payload(target.to_le_bytes().to_vec())
                .finish(),
        )
    }
}

/// Makes `name` resolve on `exec`: a proxy to the device `tid` at
/// `url`, unless the name resolves there already — the device lives on
/// `exec`, or another device there reached it first.
fn reach(exec: &Executive, url: &str, tid: Tid, name: &str) -> Result<(), ExecError> {
    if exec.core().lookup_name(name).is_none() {
        exec.proxy(url, tid, Some(name))?;
    }
    Ok(())
}

/// The caller's params followed by the mesh's wiring, which wins a
/// key both name.
fn with<'a>(chosen: Params<'a>, wiring: &[(&'a str, &'a str)]) -> Vec<(&'a str, &'a str)> {
    chosen.iter().chain(wiring).copied().collect()
}
