//! Topology declarations: the desired state of a cluster as data.
//!
//! A declaration names the cluster, its nodes (one executive each),
//! the device-class instances to load on them, and the routes between
//! them. The controller ([`crate::Controller`]) diffs this against
//! reality and converges; the per-node runner ([`crate::runner`])
//! reads the same file to configure its own executive.
//!
//! ```text
//! [cluster]
//! name   = "evb"
//! rundir = "/tmp/xdaq-evb"          # url files + scratch
//!
//! [defaults]                        # node params unless overridden
//! supervision.interval_ms = 50
//!
//! [node.bu0]                        # a managed executive
//! supervision.down_after = 8        # overrides [defaults] for bu0
//!
//! [node.bu0.modules.builder]        # a device-class instance
//! factory = "builder"               # ExecSwDownload factory name
//! rus     = "ru0,ru1"               # plain params pass through
//! watch   = "ru0"                   # refresh when ru0 respawns
//!
//! [node.ctl]                        # the (external) control host
//! external = true
//!
//! [route.evm-bu0]
//! on        = "mgr"                 # node that gets the proxy
//! to        = "bu0/builder"         # node/instance it points at
//! alias     = "bu0"                 # local name on `on`
//! supervise = true                  # heartbeat the link
//! ```
//!
//! No address is ever written down: every managed executive binds
//! port 0, routes carry the live URL the controller read from the
//! node's url file, and a module that needs a peer's address (the
//! event manager's builders) reads it from the route behind its alias.

use crate::toml::{self, Table};
use std::collections::{HashMap, HashSet};

/// Module keys with meaning to the control plane, not the module.
const MODULE_RESERVED: &[&str] = &["factory", "watch", "refresh", "drain", "drain_gate"];

/// Node keys with meaning to the control plane, not the executive.
const NODE_RESERVED: &[&str] = &["external"];

/// A device-class instance to load on a node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModuleDecl {
    /// Instance name, unique on its node.
    pub instance: String,
    /// `ExecSwDownload` factory name.
    pub factory: String,
    /// Construction parameters, file order.
    pub params: Vec<(String, String)>,
    /// Nodes whose respawn raises this module's `refresh` key.
    pub watch: Vec<String>,
    /// ParamsSet key sent (as `<key>=1`) to refresh the module after a
    /// watched node respawns (e.g. `evb.rescan`).
    pub refresh: Option<String>,
    /// ParamsSet key that starts draining one peer (value = the
    /// peer's route alias on this module's node, e.g. `evb.drain`).
    pub drain: Option<String>,
    /// ParamsGet key polled to `"0"` before a drained peer may be
    /// stopped (e.g. `evb.drain_inflight`).
    pub drain_gate: Option<String>,
}

/// One node (executive) of the cluster.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeDecl {
    /// Cluster-unique name.
    pub name: String,
    /// External nodes are declared but not managed: the control plane
    /// neither spawns nor converges them (the control host itself, a
    /// fixture process).
    pub external: bool,
    /// Node-level parameters (merged over `[defaults]`), consumed by
    /// the runner (`supervision.*`, `transport`).
    pub params: HashMap<String, String>,
    /// Instances to load, file order.
    pub modules: Vec<ModuleDecl>,
}

/// A route: `on` gets a named, optionally supervised proxy for
/// `to_node/to_instance`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RouteDecl {
    /// Declaration id (`[route.<id>]`).
    pub id: String,
    /// Node that receives the proxy.
    pub on: String,
    /// Node hosting the target instance.
    pub to_node: String,
    /// Target instance name on `to_node`.
    pub to_instance: String,
    /// Registry alias on `on`.
    pub alias: String,
    /// Put the link under heartbeat supervision on `on`.
    pub supervise: bool,
}

/// The whole declaration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Topology {
    /// Cluster name.
    pub cluster: String,
    /// Directory for url files and scratch state.
    pub rundir: String,
    /// Default node params.
    pub defaults: HashMap<String, String>,
    /// Nodes, file order.
    pub nodes: Vec<NodeDecl>,
    /// Routes, file order.
    pub routes: Vec<RouteDecl>,
}

/// Declaration failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeclError {
    /// 1-based line when known (0 = structural).
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for DeclError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.line > 0 {
            write!(f, "line {}: {}", self.line, self.message)
        } else {
            write!(f, "{}", self.message)
        }
    }
}

impl std::error::Error for DeclError {}

fn derr(line: usize, message: impl Into<String>) -> DeclError {
    DeclError {
        line,
        message: message.into(),
    }
}

fn truthy(v: &str) -> bool {
    matches!(v, "1" | "true" | "yes" | "on")
}

fn parse_module(inst: &str, t: &Table) -> Result<ModuleDecl, DeclError> {
    let factory = t
        .get("factory")
        .ok_or_else(|| derr(t.line, format!("module '{inst}' has no factory")))?
        .to_string();
    let list = |key: &str| -> Vec<String> {
        t.get(key)
            .map(|v| {
                v.split(',')
                    .map(str::trim)
                    .filter(|s| !s.is_empty())
                    .map(str::to_string)
                    .collect()
            })
            .unwrap_or_default()
    };
    Ok(ModuleDecl {
        instance: inst.to_string(),
        factory,
        params: t
            .entries
            .iter()
            .filter(|(k, _)| !MODULE_RESERVED.contains(&k.as_str()))
            .cloned()
            .collect(),
        watch: list("watch"),
        refresh: t.get("refresh").map(str::to_string),
        drain: t.get("drain").map(str::to_string),
        drain_gate: t.get("drain_gate").map(str::to_string),
    })
}

impl Topology {
    /// Parses and validates a declaration.
    pub fn parse(text: &str) -> Result<Topology, DeclError> {
        let doc = toml::parse(text).map_err(|e| derr(e.line, e.message))?;
        let cluster_t = doc
            .table("cluster")
            .ok_or_else(|| derr(0, "missing [cluster] table"))?;
        let cluster = cluster_t
            .get("name")
            .ok_or_else(|| derr(cluster_t.line, "[cluster] needs name"))?
            .to_string();
        let rundir = cluster_t
            .get("rundir")
            .ok_or_else(|| derr(cluster_t.line, "[cluster] needs rundir"))?
            .to_string();
        let defaults: HashMap<String, String> = doc
            .table("defaults")
            .map(|t| t.entries.iter().cloned().collect())
            .unwrap_or_default();

        let mut nodes: Vec<NodeDecl> = Vec::new();
        for t in doc.children("node") {
            let rest = &t.path["node.".len()..];
            match rest.split_once('.') {
                // [node.<name>]
                None => {
                    let mut params = defaults.clone();
                    for (k, v) in &t.entries {
                        if !NODE_RESERVED.contains(&k.as_str()) {
                            params.insert(k.clone(), v.clone());
                        }
                    }
                    nodes.push(NodeDecl {
                        name: rest.to_string(),
                        external: t.get("external").map(truthy).unwrap_or(false),
                        params,
                        modules: Vec::new(),
                    });
                }
                // [node.<name>.modules.<instance>]
                Some((name, sub)) => {
                    let Some(inst) = sub.strip_prefix("modules.") else {
                        return Err(derr(t.line, format!("bad node table [{}]", t.path)));
                    };
                    if inst.is_empty() || inst.contains('.') {
                        return Err(derr(t.line, format!("bad module table [{}]", t.path)));
                    }
                    let node = nodes.iter_mut().find(|n| n.name == name).ok_or_else(|| {
                        derr(t.line, format!("module for undeclared node '{name}'"))
                    })?;
                    node.modules.push(parse_module(inst, t)?);
                }
            }
        }

        let mut routes = Vec::new();
        for t in doc.children("route") {
            let id = t.path["route.".len()..].to_string();
            if id.contains('.') {
                return Err(derr(t.line, format!("bad route table [{}]", t.path)));
            }
            let need = |key: &str| {
                t.get(key)
                    .map(str::to_string)
                    .ok_or_else(|| derr(t.line, format!("route '{id}' needs {key}")))
            };
            let to = need("to")?;
            let (to_node, to_instance) = to
                .split_once('/')
                .ok_or_else(|| derr(t.line, format!("route '{id}': to must be node/instance")))?;
            routes.push(RouteDecl {
                on: need("on")?,
                alias: need("alias")?,
                to_node: to_node.to_string(),
                to_instance: to_instance.to_string(),
                supervise: t.get("supervise").map(truthy).unwrap_or(false),
                id,
            });
        }

        let topo = Topology {
            cluster,
            rundir,
            defaults,
            nodes,
            routes,
        };
        topo.validate()?;
        Ok(topo)
    }

    fn validate(&self) -> Result<(), DeclError> {
        let mut names = HashSet::new();
        for n in &self.nodes {
            if !names.insert(n.name.as_str()) {
                return Err(derr(0, format!("duplicate node '{}'", n.name)));
            }
            let mut insts = HashSet::new();
            for m in &n.modules {
                if !insts.insert(m.instance.as_str()) {
                    return Err(derr(
                        0,
                        format!("duplicate module '{}/{}'", n.name, m.instance),
                    ));
                }
                for w in &m.watch {
                    if self.node(w).is_none() {
                        return Err(derr(
                            0,
                            format!(
                                "module '{}/{}' watches unknown node '{w}'",
                                n.name, m.instance
                            ),
                        ));
                    }
                }
            }
            if n.external && !n.modules.is_empty() {
                return Err(derr(
                    0,
                    format!("external node '{}' cannot declare modules", n.name),
                ));
            }
        }
        for r in &self.routes {
            let on = self
                .node(&r.on)
                .ok_or_else(|| derr(0, format!("route '{}' on unknown node '{}'", r.id, r.on)))?;
            if on.external {
                return Err(derr(
                    0,
                    format!("route '{}' on external node '{}'", r.id, r.on),
                ));
            }
            let to = self.node(&r.to_node).ok_or_else(|| {
                derr(
                    0,
                    format!("route '{}' to unknown node '{}'", r.id, r.to_node),
                )
            })?;
            if !to.external && !to.modules.iter().any(|m| m.instance == r.to_instance) {
                return Err(derr(
                    0,
                    format!(
                        "route '{}' to unknown instance '{}/{}'",
                        r.id, r.to_node, r.to_instance
                    ),
                ));
            }
        }
        Ok(())
    }

    /// Node lookup.
    pub fn node(&self, name: &str) -> Option<&NodeDecl> {
        self.nodes.iter().find(|n| n.name == name)
    }

    /// The nodes the control plane spawns and converges.
    pub fn managed(&self) -> impl Iterator<Item = &NodeDecl> {
        self.nodes.iter().filter(|n| !n.external)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"
        [cluster]
        name   = "mini"
        rundir = "/tmp/xdaq-mini"

        [defaults]
        supervision.interval_ms = 50

        [node.ru0]
        [node.ru0.modules.readout]
        factory   = "readout"
        source_id = 0
        size      = 1024

        [node.mgr]
        supervision.down_after = 8
        [node.mgr.modules.evm]
        factory    = "evm"
        readouts   = "ru0"
        bus        = "bu0"
        watch      = "bu0"
        refresh    = "evb.rescan"
        drain      = "evb.drain"
        drain_gate = "evb.drain_inflight"

        [node.bu0]
        [node.bu0.modules.builder]
        factory = "builder"
        rus     = "ru0"

        [node.ctl]
        external = true

        [route.mgr-bu0]
        on        = "mgr"
        to        = "bu0/builder"
        alias     = "bu0"
        supervise = true

        [route.mgr-ru0]
        on    = "mgr"
        to    = "ru0/readout"
        alias = "ru0"
    "#;

    #[test]
    fn parses_the_sample() {
        let t = Topology::parse(SAMPLE).unwrap();
        assert_eq!(t.cluster, "mini");
        assert_eq!(t.nodes.len(), 4);
        assert_eq!(t.managed().count(), 3);
        let mgr = t.node("mgr").unwrap();
        assert_eq!(
            mgr.params.get("supervision.down_after").map(String::as_str),
            Some("8")
        );
        assert_eq!(
            mgr.params
                .get("supervision.interval_ms")
                .map(String::as_str),
            Some("50"),
            "defaults merge in"
        );
        let evm = &mgr.modules[0];
        assert_eq!(evm.factory, "evm");
        assert_eq!(evm.watch, vec!["bu0"]);
        assert_eq!(evm.refresh.as_deref(), Some("evb.rescan"));
        assert!(evm
            .params
            .iter()
            .all(|(k, _)| k != "factory" && k != "watch"));
        let r = &t.routes[0];
        assert_eq!((r.on.as_str(), r.to_node.as_str()), ("mgr", "bu0"));
        assert!(r.supervise);
        assert!(!t.routes[1].supervise);
    }

    #[test]
    fn validation_catches_dangling_references() {
        let bad = SAMPLE.replace("to        = \"bu0/builder\"", "to        = \"bu9/builder\"");
        assert!(Topology::parse(&bad).unwrap_err().message.contains("bu9"));
        let bad = SAMPLE.replace("watch      = \"bu0\"", "watch      = \"ghost\"");
        assert!(Topology::parse(&bad).unwrap_err().message.contains("ghost"));
        let bad = SAMPLE.replace("factory = \"builder\"", "notfactory = \"builder\"");
        assert!(Topology::parse(&bad)
            .unwrap_err()
            .message
            .contains("no factory"));
    }

    #[test]
    fn routes_on_external_nodes_rejected() {
        let bad =
            format!("{SAMPLE}\n[route.x]\non = \"ctl\"\nto = \"ru0/readout\"\nalias = \"r\"\n");
        assert!(Topology::parse(&bad)
            .unwrap_err()
            .message
            .contains("external"));
    }
}
