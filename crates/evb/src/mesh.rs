//! The event builder's one wiring rule.
//!
//! [`Mesh::new`] takes the executives of an N×M event builder — the
//! manager node, N readout nodes and M builder nodes, each readout and
//! builder with the url its peers reach it at (`loop://<name>`,
//! `sim://<name>`, …) — and the filter the builders ship built events
//! to, and returns the mesh wired and enabled. Every wiring fact is
//! derived here, in one order, so TiD assignment is the same on every
//! run:
//!
//! 1. readout `i` registers `readout` with `source_id = i` and
//!    `sources = N`;
//! 2. builder `j` proxies the filter as `flt` and readout `i` as
//!    `ru<i>`, then registers `builder` with `rus = ru0,…` and
//!    `filter = flt`;
//! 3. the manager proxies readout `i` as `ru<i>` and builder `j` as
//!    `bu<j>`, supervising the builder's link when its executive has
//!    [`xdaq_core::ExecutiveConfig::supervision`], then registers `evm`
//!    with `readouts` and `bus`;
//! 4. the manager, the readouts and the builders enable, in that order.
//!
//! The manager needs no url: builders learn it from the `INVITE` it
//! sends. Callers pass only the module params they choose ([`Roles`]);
//! a wiring key among them is overridden. They register the filter
//! (or a collector, or a recorder tap in front of one) themselves —
//! and enable it, when it is on a node of its own — and they pump the
//! executives themselves.

use crate::{xfn, BuilderUnit, EventManager, EvmStats, ReadoutUnit, ORG_DAQ};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use xdaq_core::{ExecError, Executive, I2oListener};
use xdaq_i2o::{Message, Tid};
use xdaq_mon::Counter;

/// A readout or builder node: the url its peers reach it at, and its
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

/// One builder unit of a wired mesh.
#[derive(Clone, Debug)]
pub struct BuilderNode {
    /// The unit's TiD on its own node.
    pub tid: Tid,
    /// Its node's url.
    pub url: String,
    /// The name the manager's proxy for it carries (`bu<j>`).
    pub alias: String,
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
    /// Wires and enables the mesh; `filter` is the url of the filter's
    /// node and the filter's TiD there.
    pub fn new(
        manager: &Executive,
        readouts: &[Node<'_>],
        builders: &[Node<'_>],
        filter: (&str, Tid),
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
        filter: (&str, Tid),
        roles: Roles<'_>,
        mut wrap: impl FnMut(usize, BuilderUnit) -> Box<dyn I2oListener>,
    ) -> Result<Mesh, ExecError> {
        let sources = readouts.len().to_string();
        let mut ru_tids = Vec::with_capacity(readouts.len());
        for (i, (_, exec)) in readouts.iter().enumerate() {
            let source_id = i.to_string();
            let wiring = [("source_id", &*source_id), ("sources", &sources)];
            let unit = Box::new(ReadoutUnit::new());
            ru_tids.push(exec.register("readout", unit, &with(roles.readout, &wiring))?);
        }
        let ru_aliases: Vec<String> = (0..readouts.len()).map(|i| format!("ru{i}")).collect();
        let proxy_readouts = |exec: &Executive| -> Result<(), ExecError> {
            for (((url, _), tid), alias) in readouts.iter().zip(&ru_tids).zip(&ru_aliases) {
                exec.proxy(url, *tid, Some(alias))?;
            }
            Ok(())
        };
        let rus = ru_aliases.join(",");

        let mut units = Vec::with_capacity(builders.len());
        for (j, (url, exec)) in builders.iter().enumerate() {
            exec.proxy(filter.0, filter.1, Some("flt"))?;
            proxy_readouts(exec)?;
            let wiring = [("rus", &*rus), ("filter", "flt")];
            let unit = wrap(j, BuilderUnit::new());
            let tid = exec.register("builder", unit, &with(roles.builder, &wiring))?;
            units.push(BuilderNode {
                tid,
                url: url.to_string(),
                alias: format!("bu{j}"),
                built: exec.core().monitors().registry().counter("evb.bu.built"),
            });
        }

        proxy_readouts(manager)?;
        for bu in &units {
            manager.proxy(&bu.url, bu.tid, Some(&bu.alias))?;
            if manager.has_supervision() {
                manager.supervise(&bu.url)?;
            }
        }
        let bus: Vec<&str> = units.iter().map(|bu| bu.alias.as_str()).collect();
        let wiring = [("readouts", &*rus), ("bus", &bus.join(","))];
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

/// The caller's params followed by the mesh's wiring, which wins a
/// key both name.
fn with<'a>(chosen: Params<'a>, wiring: &[(&'a str, &'a str)]) -> Vec<(&'a str, &'a str)> {
    chosen.iter().chain(wiring).copied().collect()
}
