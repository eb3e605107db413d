//! xcl — the configuration and control script language.
//!
//! The paper drives its clusters from Tcl scripts on the primary host;
//! §4 notes *"in principle, however, we can choose any configuration
//! language, as long as we follow I2O message format."* xcl is that
//! principle made concrete: a deliberately small line-oriented language
//! whose every command is one I2O executive/utility message.
//!
//! ```text
//! # comments and blank lines are skipped
//! node   ru0 loop://ru0          # proxy the executive of a node
//! claim  ru0                     # take control rights
//! load   ru0 readout r0 size=4096
//! proxy  r0far loop://ru0 16     # proxy an arbitrary remote device
//! connect ru0 loop://bu0 16 peer # ru0-side proxy for bu0's device 16
//! set    r0far rate=100
//! get    r0far
//! status ru0
//! lct    ru0
//! enable ru0
//! quiesce ru0
//! reset  ru0
//! destroy ru0 16
//! release ru0
//! faults pt0 drop=300 kill=0    # reprogram a ChaosPt (chaos.* knobs)
//! rec    r0 sync=1               # drive a Recorder (rec.* knobs)
//! evb    evm 200                 # event-builder status: EVM credit and
//!                                # event-id state + per-BU build rates
//! mon    results/mon.json        # scrape every node into one JSON doc
//! monreset ru0                   # zero a node's monitoring state
//! trace  ru0 on                  # frame-lifecycle tracer on|off
//! plan                           # control plane: pending actions
//! apply                          # control plane: converge the fleet
//! registry                       # control plane: live node registry
//! drain  bu0                     # control plane: rolling restart
//! sleep  10                      # milliseconds
//! echo   text...
//! ```
//!
//! The four control-plane verbs need a [`Controller`] attached via
//! [`XclInterpreter::with_controller`]; without one they fail with a
//! pointed message.

use crate::control::{ControlError, ControlHost};
use crate::controller::Controller;
use std::collections::HashMap;
use xdaq_i2o::Tid;

/// Every verb the interpreter knows, for the unknown-command error.
const VERBS: &[&str] = &[
    "node", "proxy", "claim", "release", "status", "lct", "enable", "quiesce", "reset", "clear",
    "load", "destroy", "connect", "set", "get", "faults", "rec", "evb", "mon", "monreset", "trace",
    "plan", "apply", "registry", "drain", "sleep", "echo",
];

/// A script failure, located by line.
#[derive(Debug)]
pub struct XclError {
    /// 1-based line number.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for XclError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "xcl line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for XclError {}

/// Result of a script run: one log line per executed command.
#[derive(Debug, Default)]
pub struct XclOutcome {
    /// Human-readable results, in execution order.
    pub log: Vec<String>,
    /// Handles defined by `node`/`proxy`/`load`/`connect` commands.
    pub handles: HashMap<String, Tid>,
}

/// The interpreter. Holds name → TiD handles across commands.
pub struct XclInterpreter<'a> {
    host: &'a ControlHost,
    handles: HashMap<String, Tid>,
    /// Handle names created by the `node` command, in definition order —
    /// the executives the `mon` command scrapes.
    nodes: Vec<String>,
    /// Declarative controller behind `plan`/`apply`/`registry`/`drain`.
    plane: Option<&'a Controller>,
}

impl<'a> XclInterpreter<'a> {
    /// New interpreter bound to a host.
    pub fn new(host: &'a ControlHost) -> XclInterpreter<'a> {
        XclInterpreter {
            host,
            handles: HashMap::new(),
            nodes: Vec::new(),
            plane: None,
        }
    }

    /// Attaches a control plane, enabling the `plan` / `apply` /
    /// `registry` / `drain` verbs and the `ctl_status` mon section.
    pub fn with_controller(mut self, plane: &'a Controller) -> XclInterpreter<'a> {
        self.plane = Some(plane);
        self
    }

    /// Pre-defines a handle (e.g. a TiD obtained programmatically).
    pub fn define(&mut self, name: &str, tid: Tid) {
        self.handles.insert(name.to_string(), tid);
    }

    /// Pre-defines a **node** handle: like [`XclInterpreter::define`],
    /// and also included in `mon` aggregation.
    pub fn define_node(&mut self, name: &str, tid: Tid) {
        self.define(name, tid);
        self.nodes.push(name.to_string());
    }

    fn resolve(&self, name: &str, line: usize) -> Result<Tid, XclError> {
        self.handles.get(name).copied().ok_or_else(|| XclError {
            line,
            message: format!("unknown handle '{name}'"),
        })
    }

    fn plane(&self, line: usize) -> Result<&'a Controller, XclError> {
        self.plane.ok_or_else(|| XclError {
            line,
            message: "no control plane attached (XclInterpreter::with_controller)".to_string(),
        })
    }

    fn fail(line: usize, e: ControlError) -> XclError {
        XclError {
            line,
            message: e.to_string(),
        }
    }

    /// Runs a whole script, stopping at the first error.
    pub fn run(&mut self, script: &str) -> Result<XclOutcome, XclError> {
        let mut out = XclOutcome::default();
        for (i, raw) in script.lines().enumerate() {
            let line_no = i + 1;
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let words: Vec<&str> = line.split_whitespace().collect();
            let log = self.exec_command(&words, line_no)?;
            out.log.push(log);
        }
        out.handles = self.handles.clone();
        Ok(out)
    }

    fn parse_params<'w>(words: &[&'w str]) -> Result<Vec<(&'w str, &'w str)>, String> {
        words
            .iter()
            .map(|w| {
                w.split_once('=')
                    .ok_or_else(|| format!("expected k=v, got '{w}'"))
            })
            .collect()
    }

    /// Shared body of the `faults`/`rec` commands: sets k=v
    /// parameters on a device, prefixing plain keys with `{prefix}.`
    /// while dotted keys pass unchanged.
    fn prefixed_set(
        &mut self,
        cmd: &str,
        prefix: &str,
        handle: &str,
        rest: &[&str],
        line: usize,
    ) -> Result<String, XclError> {
        let t = self.resolve(handle, line)?;
        let params = Self::parse_params(rest).map_err(|m| XclError { line, message: m })?;
        let prefixed: Vec<(String, &str)> = params
            .iter()
            .map(|(k, v)| {
                let key = if k.contains('.') {
                    k.to_string()
                } else {
                    format!("{prefix}.{k}")
                };
                (key, *v)
            })
            .collect();
        let borrowed: Vec<(&str, &str)> = prefixed.iter().map(|(k, v)| (k.as_str(), *v)).collect();
        self.host
            .params_set(t, &borrowed)
            .map_err(|e| Self::fail(line, e))?;
        Ok(format!("{cmd} {handle}: {} knobs", borrowed.len()))
    }

    fn exec_command(&mut self, words: &[&str], line: usize) -> Result<String, XclError> {
        let err = |m: String| XclError { line, message: m };
        match words {
            ["node", name, url] => {
                let tid = self
                    .host
                    .connect_node(url, None)
                    .map_err(|e| Self::fail(line, e))?;
                self.handles.insert(name.to_string(), tid);
                self.nodes.push(name.to_string());
                Ok(format!("node {name} -> {tid}"))
            }
            ["proxy", name, url, raw] => {
                let remote: u16 = raw.parse().map_err(|_| err(format!("bad tid '{raw}'")))?;
                let remote = Tid::new(remote).map_err(|e| err(e.to_string()))?;
                let tid = self
                    .host
                    .device_proxy(url, remote)
                    .map_err(|e| Self::fail(line, e))?;
                self.handles.insert(name.to_string(), tid);
                Ok(format!("proxy {name} -> {tid}"))
            }
            ["claim", node] => {
                let t = self.resolve(node, line)?;
                self.host.claim(t).map_err(|e| Self::fail(line, e))?;
                Ok(format!("claimed {node}"))
            }
            ["release", node] => {
                let t = self.resolve(node, line)?;
                self.host.release(t).map_err(|e| Self::fail(line, e))?;
                Ok(format!("released {node}"))
            }
            ["status", node] => {
                let t = self.resolve(node, line)?;
                let map = self.host.status(t).map_err(|e| Self::fail(line, e))?;
                let mut kv: Vec<String> = map.iter().map(|(k, v)| format!("{k}={v}")).collect();
                kv.sort();
                Ok(format!("status {node}: {}", kv.join(" ")))
            }
            ["lct", node] => {
                let t = self.resolve(node, line)?;
                let text = self.host.lct(t).map_err(|e| Self::fail(line, e))?;
                Ok(format!("lct {node}:\n{text}"))
            }
            ["enable", node] => {
                let t = self.resolve(node, line)?;
                self.host.enable(t).map_err(|e| Self::fail(line, e))?;
                Ok(format!("enabled {node}"))
            }
            ["quiesce", node] => {
                let t = self.resolve(node, line)?;
                self.host.quiesce(t).map_err(|e| Self::fail(line, e))?;
                Ok(format!("quiesced {node}"))
            }
            ["reset", node] => {
                let t = self.resolve(node, line)?;
                self.host.reset(t).map_err(|e| Self::fail(line, e))?;
                Ok(format!("reset {node}"))
            }
            ["clear", node] => {
                let t = self.resolve(node, line)?;
                self.host.clear(t).map_err(|e| Self::fail(line, e))?;
                Ok(format!("cleared {node}"))
            }
            ["load", node, factory, instance, rest @ ..] => {
                let t = self.resolve(node, line)?;
                let params = Self::parse_params(rest).map_err(err)?;
                let tid = self
                    .host
                    .load(t, factory, instance, &params)
                    .map_err(|e| Self::fail(line, e))?;
                self.handles.insert(instance.to_string(), tid);
                Ok(format!("loaded {instance} on {node} -> remote {tid}"))
            }
            ["destroy", node, raw] => {
                let t = self.resolve(node, line)?;
                let dev: u16 = raw.parse().map_err(|_| err(format!("bad tid '{raw}'")))?;
                let dev = Tid::new(dev).map_err(|e| err(e.to_string()))?;
                self.host.destroy(t, dev).map_err(|e| Self::fail(line, e))?;
                Ok(format!("destroyed {dev} on {node}"))
            }
            ["connect", node, url, raw, rest @ ..] => {
                let t = self.resolve(node, line)?;
                let remote: u16 = raw.parse().map_err(|_| err(format!("bad tid '{raw}'")))?;
                let remote = Tid::new(remote).map_err(|e| err(e.to_string()))?;
                let alias = rest.first().copied();
                let tid = self
                    .host
                    .connect(t, url, remote, alias)
                    .map_err(|e| Self::fail(line, e))?;
                Ok(format!("connected {node} -> {url} tid {tid}"))
            }
            ["set", handle, rest @ ..] => {
                let t = self.resolve(handle, line)?;
                let params = Self::parse_params(rest).map_err(err)?;
                self.host
                    .params_set(t, &params)
                    .map_err(|e| Self::fail(line, e))?;
                Ok(format!("set {handle}: {} params", params.len()))
            }
            ["get", handle] => {
                let t = self.resolve(handle, line)?;
                let map = self.host.params_get(t).map_err(|e| Self::fail(line, e))?;
                let mut kv: Vec<String> = map.iter().map(|(k, v)| format!("{k}={v}")).collect();
                kv.sort();
                Ok(format!("get {handle}: {}", kv.join(" ")))
            }
            ["faults", handle, rest @ ..] => {
                // Reprogram a fault-injecting transport through its PT
                // device: plain keys get the `chaos.` prefix (`drop=300`
                // -> `chaos.drop=300`); dotted keys pass unchanged.
                self.prefixed_set("faults", "chaos", handle, rest, line)
            }
            ["rec", handle, rest @ ..] => {
                // Drive a Recorder device at runtime: plain keys get the
                // `rec.` prefix, so `rec r0 sync=1` forces a durability
                // point and `rec r0 rotate=1` cuts a new segment. The
                // recorder refuses every other `rec.*` key: batching is
                // fixed when the device is loaded.
                self.prefixed_set("rec", "rec", handle, rest, line)
            }
            ["evb", handle, rest @ ..] => {
                // Event-builder status. The EVM mirrors its run and
                // event-id state into its parameters on every
                // ParamsGet; credits, in-flight and queued events are
                // its node's `evb.evm.*` gauges, read from a scrape of
                // the same handle. Per-BU build rates and latency
                // percentiles come from two mon scrapes `window_ms`
                // apart across the defined nodes.
                let t = self.resolve(handle, line)?;
                let window_ms: u64 = match rest.first() {
                    Some(w) => w.parse().map_err(|_| err(format!("bad window '{w}'")))?,
                    None => 200,
                };
                let params = self.host.params_get(t).map_err(|e| Self::fail(line, e))?;
                let g = |k: &str| params.get(k).map(String::as_str).unwrap_or("?");
                let snap = self.host.scrape(t).map_err(|e| Self::fail(line, e))?;
                let gauge = |k: &str| {
                    let level = snap["metrics"]["gauges"][k][0].as_i64();
                    level.map_or("?".to_string(), |v| v.to_string())
                };
                let mut log = format!(
                    "evb {handle}: run={} done={} target={} completed={} lost={} \
                     reassigned={} next_event={} credits={} inflight={} queued={} \
                     bus={} dead={}",
                    g("evb.run"),
                    g("evb.run_done"),
                    g("evb.target"),
                    g("evb.completed"),
                    g("evb.lost"),
                    g("evb.reassigned"),
                    g("evb.next_event"),
                    gauge("evb.evm.credits"),
                    gauge("evb.evm.inflight"),
                    gauge("evb.evm.queued"),
                    g("evb.bus"),
                    g("evb.bus_dead"),
                );
                let mut latency: Option<xdaq_mon::HistogramSnapshot> = None;
                for name in self.nodes.clone() {
                    let nt = self.resolve(&name, line)?;
                    let before = self.host.scrape(nt).map_err(|e| Self::fail(line, e))?;
                    let Some(built0) = before["metrics"]["counters"]["evb.bu.built"].as_u64()
                    else {
                        continue; // not a builder node
                    };
                    std::thread::sleep(std::time::Duration::from_millis(window_ms));
                    let after = self.host.scrape(nt).map_err(|e| Self::fail(line, e))?;
                    let built1 = after["metrics"]["counters"]["evb.bu.built"]
                        .as_u64()
                        .unwrap_or(built0);
                    let rate = (built1 - built0) as f64 * 1000.0 / window_ms.max(1) as f64;
                    log.push_str(&format!("\n  {name}: built={built1} rate={rate:.1} ev/s"));
                    if let Some(h) = xdaq_mon::HistogramSnapshot::from_value(
                        &after["metrics"]["histograms"]["evb.build_latency_ns"],
                    ) {
                        match &mut latency {
                            Some(total) => total.merge(&h),
                            None => latency = Some(h),
                        }
                    }
                }
                if let Some(h) = latency {
                    let ms = |q: f64| h.quantile(q).map_or(-1.0, |ns| ns as f64 / 1e6);
                    log.push_str(&format!(
                        "\n  build latency: p50={:.3}ms p90={:.3}ms p99={:.3}ms ({} events)",
                        ms(0.5),
                        ms(0.9),
                        ms(0.99),
                        h.count
                    ));
                }
                Ok(log)
            }
            ["mon", rest @ ..] => {
                if self.nodes.is_empty() && self.plane.is_none() {
                    return Err(err("no nodes defined before 'mon'".to_string()));
                }
                let mut cluster = serde_json::Map::new();
                for name in self.nodes.clone() {
                    let t = self.resolve(&name, line)?;
                    let snap = self.host.scrape(t).map_err(|e| Self::fail(line, e))?;
                    cluster.insert(name, snap);
                }
                if let Some(plane) = self.plane {
                    cluster.insert(
                        "ctl_status".to_string(),
                        plane.service_registry().status_json(),
                    );
                }
                let doc = serde_json::Value::Object(cluster);
                let path = rest.first().copied().unwrap_or("results/mon.json");
                if let Some(dir) = std::path::Path::new(path).parent() {
                    if !dir.as_os_str().is_empty() {
                        std::fs::create_dir_all(dir)
                            .map_err(|e| err(format!("mkdir {}: {e}", dir.display())))?;
                    }
                }
                let text = serde_json::to_string_pretty(&doc)
                    .map_err(|e| err(format!("encode snapshot: {}", e.message)))?;
                std::fs::write(path, text).map_err(|e| err(format!("write {path}: {e}")))?;
                Ok(format!("mon: {} nodes -> {path}", self.nodes.len()))
            }
            ["monreset", node] => {
                let t = self.resolve(node, line)?;
                self.host.mon_reset(t).map_err(|e| Self::fail(line, e))?;
                Ok(format!("monitoring reset on {node}"))
            }
            ["trace", node, state] => {
                let t = self.resolve(node, line)?;
                let enable = match *state {
                    "on" => true,
                    "off" => false,
                    other => return Err(err(format!("expected on|off, got '{other}'"))),
                };
                self.host
                    .trace_set(t, enable)
                    .map_err(|e| Self::fail(line, e))?;
                Ok(format!("trace {state} on {node}"))
            }
            ["plan"] => {
                let plane = self.plane(line)?;
                let actions = plane.plan();
                if actions.is_empty() {
                    Ok("plan: converged, nothing to do".to_string())
                } else {
                    Ok(format!(
                        "plan: {} pending\n  {}",
                        actions.len(),
                        actions.join("\n  ")
                    ))
                }
            }
            ["apply"] => {
                let plane = self.plane(line)?;
                plane
                    .apply()
                    .map(|s| format!("apply: {s}"))
                    .map_err(|m| err(format!("apply failed: {m}")))
            }
            ["registry"] => {
                let plane = self.plane(line)?;
                let rows = plane.service_registry().rows();
                let mut log = format!("registry: {} nodes", rows.len());
                for r in rows {
                    log.push_str(&format!(
                        "\n  {} actual={} gen={} url={}",
                        r.node,
                        r.health,
                        r.generation,
                        if r.url.is_empty() { "-" } else { &r.url },
                    ));
                }
                Ok(log)
            }
            ["drain", node] => {
                let plane = self.plane(line)?;
                plane
                    .drain(node)
                    .map(|s| format!("drain {node}: {s}"))
                    .map_err(|m| err(format!("drain {node} failed: {m}")))
            }
            ["sleep", ms] => {
                let ms: u64 = ms
                    .parse()
                    .map_err(|_| err(format!("bad duration '{ms}'")))?;
                std::thread::sleep(std::time::Duration::from_millis(ms));
                Ok(format!("slept {ms}ms"))
            }
            ["echo", rest @ ..] => Ok(rest.join(" ")),
            [cmd, ..] => Err(err(format!(
                "unknown command '{cmd}' (available: {})",
                VERBS.join(" ")
            ))),
            [] => unreachable!("blank lines filtered"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Interpreter-level parse tests that need no cluster. End-to-end
    // script runs live in the crate's integration tests.

    #[test]
    fn parse_params_accepts_kv() {
        let p = XclInterpreter::parse_params(&["a=1", "b=two"]).unwrap();
        assert_eq!(p, vec![("a", "1"), ("b", "two")]);
        assert!(XclInterpreter::parse_params(&["oops"]).is_err());
    }

    #[test]
    fn unknown_handle_reported_with_line() {
        let host = ControlHost::new("h");
        let mut x = XclInterpreter::new(&host);
        let err = x.run("\n\nstatus nowhere\n").unwrap_err();
        assert_eq!(err.line, 3);
        assert!(err.message.contains("nowhere"));
    }

    #[test]
    fn unknown_command_reported() {
        let host = ControlHost::new("h");
        let mut x = XclInterpreter::new(&host);
        let err = x.run("frobnicate all").unwrap_err();
        assert!(err.message.contains("frobnicate"));
    }

    #[test]
    fn unknown_command_lists_available_verbs() {
        let host = ControlHost::new("h");
        let mut x = XclInterpreter::new(&host);
        let err = x.run("frobnicate all").unwrap_err();
        for verb in ["node", "apply", "drain", "evb", "echo"] {
            assert!(
                err.message.contains(verb),
                "error should list '{verb}': {}",
                err.message
            );
        }
    }

    #[test]
    fn plane_verbs_need_a_plane() {
        let host = ControlHost::new("h");
        let mut x = XclInterpreter::new(&host);
        for script in ["plan", "apply", "registry", "drain bu0"] {
            let err = x.run(script).unwrap_err();
            assert!(
                err.message.contains("control plane"),
                "{script}: {}",
                err.message
            );
        }
    }

    #[test]
    fn comments_and_echo() {
        let host = ControlHost::new("h");
        let mut x = XclInterpreter::new(&host);
        let out = x.run("# comment\necho hello world\n\nsleep 1\n").unwrap();
        assert_eq!(
            out.log,
            vec!["hello world".to_string(), "slept 1ms".to_string()]
        );
    }

    #[test]
    fn define_pre_seeds_handles() {
        let host = ControlHost::new("h");
        let mut x = XclInterpreter::new(&host);
        x.define("pre", Tid::new(0x42).unwrap());
        let out = x.run("echo ok").unwrap();
        assert_eq!(out.handles.get("pre"), Some(&Tid::new(0x42).unwrap()));
    }
}
