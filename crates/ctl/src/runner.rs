//! Per-node runner: turns a managed child process into the executive
//! its declaration asks for.
//!
//! The convergence loop spawns children through a [`Launcher`]; each
//! child calls [`run_managed_node`] with a closure that registers the
//! application's module factories, and the runner does the rest:
//! locate its own [`NodeDecl`] via the `XDAQ_CTL_*` environment,
//! build the executive (supervision from node params),
//! bind the socket peer transport on an ephemeral port, publish
//! the generation-stamped url file, and run until told to stop.
//!
//! The runner deliberately loads **no modules**: module load, routes
//! and enable are the controller's job over I2O executive frames
//! (`ExecSwDownload`, `ExecIopConnect`, `SysEnable`), exactly as the
//! paper configures remote executives from the primary host.
//!
//! [`Launcher`]: crate::launch::Launcher
//! [`NodeDecl`]: crate::decl::NodeDecl

use crate::decl::Topology;
use crate::launch::{self, ENV_GEN, ENV_NODE, ENV_RUNDIR, ENV_TOPO};
use std::sync::Arc;
use std::time::Duration;
use xdaq_core::{Executive, ExecutiveConfig, PeerTransport, SupervisionConfig};
use xdaq_mempool::TablePool;
use xdaq_pt::XptPt;

/// Environment handed to a managed child, decoded.
#[derive(Debug, Clone)]
pub struct ManagedEnv {
    /// Node name to assume.
    pub node: String,
    /// Topology file path.
    pub topo_path: String,
    /// Rundir for the url file.
    pub rundir: String,
    /// Incarnation generation.
    pub generation: u64,
}

impl ManagedEnv {
    /// Reads the `XDAQ_CTL_*` contract; `None` when not launched by a
    /// controller (lets one binary serve both roles).
    pub fn from_env() -> Option<ManagedEnv> {
        let node = std::env::var(ENV_NODE).ok()?;
        Some(ManagedEnv {
            node,
            topo_path: std::env::var(ENV_TOPO).ok()?,
            rundir: std::env::var(ENV_RUNDIR).ok()?,
            generation: std::env::var(ENV_GEN).ok()?.parse().ok()?,
        })
    }
}

/// A `supervision.*` count or millisecond value: `default` when the
/// key is absent, otherwise a positive integer or a refusal naming it.
fn param_u32(decl: &crate::decl::NodeDecl, key: &str, default: u32) -> Result<u32, String> {
    let Some(v) = decl.params.get(key) else {
        return Ok(default);
    };
    v.parse().ok().filter(|n| *n > 0).ok_or_else(|| {
        format!(
            "node '{}': param '{key}' = '{v}' is not a positive integer",
            decl.name
        )
    })
}

/// Builds the [`ExecutiveConfig`] a declaration implies for `node`.
///
/// * `supervision.interval_ms` / `.suspect_after` / `.down_after` —
///   link supervision cadence. Supervision is **always** on for
///   managed nodes (default 50 ms / 3 / 6): convergence depends on
///   peers noticing a dead node, evicting its routes, and freeing its
///   alias for the respawned incarnation.
///
/// The `workers` key that once sharded dispatch across threads, and
/// the `flow.*` / `qos.*` keys of the link flow control and tenant
/// admission that were removed (DESIGN.md §13), are refused rather than
/// ignored, so a stale topology fails loudly; so is a `supervision.*`
/// value that is not a positive integer.
pub fn node_config(topo: &Topology, node: &str) -> Result<ExecutiveConfig, String> {
    let decl = topo
        .node(node)
        .ok_or_else(|| format!("node '{node}' not in topology '{}'", topo.cluster))?;
    if decl.external {
        return Err(format!("node '{node}' is external, not runnable"));
    }
    if decl.params.contains_key("workers") {
        return Err(
            "node param 'workers' was removed: the executive has one dispatch loop; delete the key"
                .into(),
        );
    }
    if let Some(k) = decl
        .params
        .keys()
        .find(|k| k.starts_with("flow.") || k.starts_with("qos."))
    {
        return Err(format!(
            "node param '{k}' was removed: link flow control and tenant admission are gone \
             (the event builder's credits bound its queues); delete the key"
        ));
    }
    let mut config = ExecutiveConfig::named(node);
    config.supervision = Some(SupervisionConfig {
        interval: Duration::from_millis(param_u32(decl, "supervision.interval_ms", 50)?.into()),
        suspect_after: param_u32(decl, "supervision.suspect_after", 3)?,
        down_after: param_u32(decl, "supervision.down_after", 6)?,
    });
    Ok(config)
}

/// Binds the peer transport a declaration asks for, on an ephemeral
/// port. There is one socket transport, xpt (DESIGN.md §15); `tcp`
/// (the default) and `xpt` both name it, so either spelling registers
/// under `xpt` and publishes an `xpt://` url. Any other `transport`,
/// and the key that once chose between two xpt drivers, is refused
/// rather than ignored, so a stale topology fails loudly instead of
/// running something it did not name.
///
/// Returns the registration key and the canonical url to publish.
pub fn bind_transport(
    decl: &crate::decl::NodeDecl,
) -> Result<(&'static str, Arc<dyn PeerTransport>, String), String> {
    if decl.params.contains_key("xpt.backend") {
        return Err(
            "node param 'xpt.backend' was removed: xpt has one driver (epoll); delete the key"
                .into(),
        );
    }
    match decl.params.get("transport").map_or("tcp", String::as_str) {
        "tcp" | "xpt" => {
            let pt = XptPt::bind("127.0.0.1:0", TablePool::with_defaults())
                .map_err(|e| format!("bind xpt: {e:?}"))?;
            let url = pt.addr().to_string();
            Ok(("xpt", pt, url))
        }
        other => Err(format!("unknown transport '{other}'")),
    }
}

/// Runs this process as the managed node named in its environment.
///
/// `setup` registers the application's module factories (and anything
/// else node-local) on the fresh executive before transports start.
/// Blocks until the controller stops the node (`exec.stop=1` via
/// `ParamsSet`) or the process is killed.
pub fn run_managed_node(setup: impl FnOnce(&Executive)) -> Result<(), String> {
    let env = ManagedEnv::from_env().ok_or("XDAQ_CTL_* environment missing or incomplete")?;
    let text = std::fs::read_to_string(&env.topo_path)
        .map_err(|e| format!("read {}: {e}", env.topo_path))?;
    let topo = Topology::parse(&text).map_err(|e| format!("{}: {e}", env.topo_path))?;
    let config = node_config(&topo, &env.node)?;
    let exec = Executive::new(config);

    let decl = topo
        .node(&env.node)
        .expect("node_config validated the declaration");
    let (key, pt, url) = bind_transport(decl)?;
    exec.register_pt(key, pt)
        .map_err(|e| format!("register {key} pt: {e:?}"))?;

    setup(&exec);
    exec.enable_all();
    exec.start_transports()
        .map_err(|e| format!("start transports: {e:?}"))?;
    launch::publish_url(&env.rundir, &env.node, env.generation, &url)
        .map_err(|e| format!("publish url: {e}"))?;

    exec.run();
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    const TOPO: &str = r#"
        [cluster]
        name   = "t"
        rundir = "/tmp/xdaq-ctl-runner-test"
        [defaults]
        supervision.interval_ms = 30
        [node.a]
        supervision.interval_ms = 20
        [node.b]
        [node.c]
        transport = "xpt"
        [node.d]
        transport = "tcp"
        [node.stale]
        transport = "xpt"
        xpt.backend = "epoll"
        [node.bad]
        transport = "udp"
        [node.zero]
        supervision.interval_ms = 0
        [node.typo]
        supervision.interval_ms = "5O"
        [node.huge]
        supervision.down_after = 4294967296
        [node.x]
        external = true
    "#;

    #[test]
    fn node_config_reflects_declaration() {
        let topo = Topology::parse(TOPO).unwrap();
        let a = node_config(&topo, "a").unwrap();
        assert_eq!(a.node, "a");
        let sup = a.supervision.unwrap();
        assert_eq!(
            sup.interval,
            Duration::from_millis(20),
            "node overrides defaults"
        );
        assert_eq!((sup.suspect_after, sup.down_after), (3, 6));

        let b = node_config(&topo, "b").unwrap();
        let sup = b.supervision.expect("supervision always on");
        assert_eq!(sup.interval, Duration::from_millis(30), "defaults apply");

        for (node, key, v) in [
            ("zero", "supervision.interval_ms", "0"),
            ("typo", "supervision.interval_ms", "5O"),
            ("huge", "supervision.down_after", "4294967296"),
        ] {
            assert_eq!(
                node_config(&topo, node).unwrap_err(),
                format!("node '{node}': param '{key}' = '{v}' is not a positive integer")
            );
        }
        assert!(node_config(&topo, "x").unwrap_err().contains("external"));
        assert!(node_config(&topo, "nope")
            .unwrap_err()
            .contains("not in topology"));
    }

    #[test]
    fn removed_workers_key_is_refused() {
        for stale in ["[defaults]\nworkers = 1\n[node.a]", "[node.a]\nworkers = 4"] {
            let text = format!("[cluster]\nname = \"t\"\nrundir = \"/tmp/x\"\n{stale}\n");
            let topo = Topology::parse(&text).unwrap();
            let err = node_config(&topo, "a").unwrap_err();
            assert!(err.contains("'workers' was removed"), "got {err}");
        }
    }

    #[test]
    fn removed_flow_and_qos_keys_are_refused() {
        for (stale, key) in [
            ("[node.a]\nflow.window = 8", "flow.window"),
            (
                "[defaults]\nflow.policy = \"fail\"\n[node.a]",
                "flow.policy",
            ),
            ("[node.a]\nqos.class.bulk = \"0:50\"", "qos.class.bulk"),
        ] {
            let text = format!("[cluster]\nname = \"t\"\nrundir = \"/tmp/x\"\n{stale}\n");
            let topo = Topology::parse(&text).unwrap();
            let err = node_config(&topo, "a").unwrap_err();
            assert!(
                err.contains(&format!("'{key}' was removed")),
                "error must name the stale key, got {err}"
            );
        }
    }

    #[test]
    fn transport_selection_honors_declaration() {
        let topo = Topology::parse(TOPO).unwrap();
        // No key (the default), `tcp` and `xpt` all name the one socket
        // transport.
        for node in ["a", "d", "c"] {
            let (key, pt, url) = bind_transport(topo.node(node).unwrap()).unwrap();
            assert_eq!((key, pt.scheme()), ("xpt", "xpt"), "node {node}");
            assert!(url.starts_with("xpt://127.0.0.1:"), "got {url}");
            pt.stop();
        }

        let Err(err) = bind_transport(topo.node("stale").unwrap()) else {
            panic!("the removed xpt.backend key must be rejected");
        };
        assert!(
            err.contains("'xpt.backend' was removed"),
            "error must name the removed key, got {err}"
        );

        let Err(err) = bind_transport(topo.node("bad").unwrap()) else {
            panic!("udp transport must be rejected");
        };
        assert_eq!(err, "unknown transport 'udp'");
    }
}
