//! Live service registry: the observed state of every node, with a
//! streamed event feed.
//!
//! The registry is the control plane's book of record. Every node of
//! the declaration gets a row holding its observed health, the
//! incarnation generation, and the live transport URL; it is the only
//! home of the last two. Mutations come from the controller, which
//! watches a node one way per fact:
//!
//! * the convergence loop itself (spawned / published / up),
//! * the control host's own link supervisor (a Down link fences the
//!   node: [`ServiceRegistry::link_down`], then its exit),
//! * process exit noticed by `try_wait` on the managed child.
//!
//! Subscribers get a bounded queue of [`Event`]s so tooling and tests
//! can follow membership changes without polling.

use parking_lot::Mutex;
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

/// Observed health of a managed node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Health {
    /// Declared, not (re)spawned yet.
    Pending,
    /// Serving: URL published, executive answering.
    Up,
    /// Being drained ahead of a rolling restart.
    Draining,
    /// Process gone or fenced; respawn owed.
    Down,
}

impl Health {
    /// Lower-case wire/text form.
    pub fn as_str(self) -> &'static str {
        match self {
            Health::Pending => "pending",
            Health::Up => "up",
            Health::Draining => "draining",
            Health::Down => "down",
        }
    }
}

impl std::fmt::Display for Health {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One registry row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeStatus {
    /// Node name.
    pub node: String,
    /// Observed state.
    pub health: Health,
    /// Incarnation counter: 1 on first spawn, +1 per respawn.
    pub generation: u64,
    /// Live transport URL ("" until published).
    pub url: String,
    /// OS pid of the managed child (0 when none/external).
    pub pid: u32,
}

/// What happened to a node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// Child process launched.
    Spawned,
    /// URL file published; executive reachable.
    Published,
    /// Convergence finished; node serving.
    Up,
    /// A supervised link to the node was reported down.
    LinkDown,
    /// Child process exited.
    Exited,
    /// Drain started.
    Draining,
    /// Drain gate reached zero.
    Drained,
    /// A tick's respawn pass failed; the detail is its error. Recorded
    /// once per distinct error while the tick retries.
    Failed,
}

impl EventKind {
    /// Lower-case wire/text form.
    pub fn as_str(self) -> &'static str {
        match self {
            EventKind::Spawned => "spawned",
            EventKind::Published => "published",
            EventKind::Up => "up",
            EventKind::LinkDown => "link-down",
            EventKind::Exited => "exited",
            EventKind::Draining => "draining",
            EventKind::Drained => "drained",
            EventKind::Failed => "failed",
        }
    }
}

/// A membership/health change, as streamed to subscribers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event {
    /// Monotonic sequence number, 1-based.
    pub seq: u64,
    /// Node the event concerns.
    pub node: String,
    /// What happened.
    pub kind: EventKind,
    /// Free-form context (url, exit status, fault detail).
    pub detail: String,
}

/// A subscriber's bounded event queue.
#[derive(Clone)]
pub struct Subscription {
    queue: Arc<Mutex<VecDeque<Event>>>,
}

impl Subscription {
    /// Takes everything queued since the last drain.
    pub fn drain(&self) -> Vec<Event> {
        self.queue.lock().drain(..).collect()
    }
}

const SUBSCRIBER_DEPTH: usize = 1024;

#[derive(Default)]
struct Inner {
    rows: BTreeMap<String, NodeStatus>,
    subscribers: Vec<Arc<Mutex<VecDeque<Event>>>>,
    seq: u64,
}

/// The registry proper. Cheap to clone behind an [`Arc`]; all methods
/// take `&self`.
#[derive(Default)]
pub struct ServiceRegistry {
    inner: Mutex<Inner>,
}

impl ServiceRegistry {
    /// Empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Declares a row (`Pending`, generation 0). Idempotent.
    pub fn declare(&self, node: &str) {
        let mut g = self.inner.lock();
        g.rows
            .entry(node.to_string())
            .or_insert_with(|| NodeStatus {
                node: node.to_string(),
                health: Health::Pending,
                generation: 0,
                url: String::new(),
                pid: 0,
            });
    }

    /// New subscriber; receives events from now on.
    pub fn subscribe(&self) -> Subscription {
        let queue = Arc::new(Mutex::new(VecDeque::new()));
        self.inner.lock().subscribers.push(queue.clone());
        Subscription { queue }
    }

    fn emit(g: &mut Inner, node: &str, kind: EventKind, detail: String) {
        g.seq += 1;
        let ev = Event {
            seq: g.seq,
            node: node.to_string(),
            kind,
            detail,
        };
        for sub in &g.subscribers {
            let mut q = sub.lock();
            if q.len() == SUBSCRIBER_DEPTH {
                q.pop_front();
            }
            q.push_back(ev.clone());
        }
    }

    fn update(&self, node: &str, kind: EventKind, detail: String, f: impl FnOnce(&mut NodeStatus)) {
        let mut g = self.inner.lock();
        let Some(row) = g.rows.get_mut(node) else {
            return;
        };
        f(row);
        Self::emit(&mut g, node, kind, detail);
    }

    /// Child launched for generation `generation`.
    pub fn spawned(&self, node: &str, generation: u64, pid: u32) {
        self.update(
            node,
            EventKind::Spawned,
            format!("gen={generation} pid={pid}"),
            |r| {
                r.generation = generation;
                r.pid = pid;
                r.health = Health::Pending;
                r.url.clear();
            },
        );
    }

    /// Node published its URL file.
    pub fn published(&self, node: &str, url: &str) {
        self.update(node, EventKind::Published, url.to_string(), |r| {
            r.url = url.to_string();
        });
    }

    /// Node converged and serving.
    pub fn up(&self, node: &str) {
        self.update(node, EventKind::Up, String::new(), |r| {
            r.health = Health::Up
        });
    }

    /// The control host's link to the node went Down and the node is
    /// being fenced; its exit follows.
    pub fn link_down(&self, node: &str, detail: &str) {
        self.update(node, EventKind::LinkDown, detail.to_string(), |r| {
            r.health = Health::Down;
        });
    }

    /// Child process exited.
    pub fn exited(&self, node: &str, detail: &str) {
        self.update(node, EventKind::Exited, detail.to_string(), |r| {
            r.health = Health::Down;
            r.pid = 0;
        });
    }

    /// Drain started.
    pub fn draining(&self, node: &str) {
        self.update(node, EventKind::Draining, String::new(), |r| {
            r.health = Health::Draining;
        });
    }

    /// Drain gate reached zero; node may be stopped.
    pub fn drained(&self, node: &str) {
        self.update(node, EventKind::Drained, String::new(), |_| {});
    }

    /// A respawn pass owed to the node failed with `error`; the row
    /// keeps its health (the tick retries).
    pub fn failed(&self, node: &str, error: &str) {
        self.update(node, EventKind::Failed, error.to_string(), |_| {});
    }

    /// Snapshot of all rows, name order.
    pub fn rows(&self) -> Vec<NodeStatus> {
        self.inner.lock().rows.values().cloned().collect()
    }

    /// One row.
    pub fn row(&self, node: &str) -> Option<NodeStatus> {
        self.inner.lock().rows.get(node).cloned()
    }

    /// JSON for the `ctl_status` monitoring section.
    pub fn status_json(&self) -> serde_json::Value {
        let g = self.inner.lock();
        let nodes: Vec<serde_json::Value> = g
            .rows
            .values()
            .map(|r| {
                serde_json::json!({
                    "node": r.node.clone(),
                    "actual": r.health.as_str(),
                    "generation": r.generation,
                    "url": r.url.clone(),
                    "pid": r.pid,
                })
            })
            .collect();
        let converged = g.rows.values().all(|r| r.health == Health::Up);
        serde_json::json!({
            "nodes": nodes,
            "converged": converged,
            "events": g.seq,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lifecycle_streams_events_and_tracks_rows() {
        let reg = ServiceRegistry::new();
        reg.declare("bu0");
        let sub = reg.subscribe();
        reg.spawned("bu0", 1, 42);
        reg.published("bu0", "tcp://127.0.0.1:1234");
        reg.up("bu0");
        let row = reg.row("bu0").unwrap();
        assert_eq!(row.health, Health::Up);
        assert_eq!(row.generation, 1);
        assert_eq!(row.url, "tcp://127.0.0.1:1234");
        let kinds: Vec<EventKind> = sub.drain().into_iter().map(|e| e.kind).collect();
        assert_eq!(
            kinds,
            vec![EventKind::Spawned, EventKind::Published, EventKind::Up]
        );
        assert!(sub.drain().is_empty(), "drain consumes");
    }

    #[test]
    fn fenced_node_goes_down_then_back_up_as_the_next_generation() {
        let reg = ServiceRegistry::new();
        reg.declare("n");
        reg.spawned("n", 1, 1);
        reg.up("n");
        let sub = reg.subscribe();
        reg.link_down("n", "peer=xpt://x");
        assert_eq!(reg.row("n").unwrap().health, Health::Down);
        assert_eq!(
            sub.drain().iter().map(|e| e.kind).collect::<Vec<_>>(),
            [EventKind::LinkDown]
        );
        reg.spawned("n", 2, 2);
        let row = reg.row("n").unwrap();
        assert_eq!((row.health, row.generation), (Health::Pending, 2));
        reg.up("n");
        assert_eq!(reg.row("n").unwrap().health, Health::Up);
        let json = reg.status_json();
        assert!(json["nodes"][0].get("desired").is_none(), "{json}");
        assert_eq!(json["nodes"][0]["actual"], serde_json::json!("up"));
    }

    #[test]
    fn respawn_bumps_generation_and_clears_url() {
        let reg = ServiceRegistry::new();
        reg.declare("n");
        reg.spawned("n", 1, 10);
        reg.published("n", "tcp://a");
        reg.exited("n", "killed");
        reg.spawned("n", 2, 11);
        let row = reg.row("n").unwrap();
        assert_eq!(row.generation, 2);
        assert_eq!(row.url, "", "stale url cleared until republished");
        assert_eq!(row.health, Health::Pending);
    }

    #[test]
    fn status_json_reports_convergence() {
        let reg = ServiceRegistry::new();
        reg.declare("a");
        reg.declare("b");
        reg.spawned("a", 1, 1);
        reg.up("a");
        let v = reg.status_json();
        assert_eq!(v["converged"], serde_json::json!(false));
        reg.spawned("b", 1, 2);
        reg.up("b");
        assert_eq!(reg.status_json()["converged"], serde_json::json!(true));
        assert_eq!(reg.status_json()["nodes"].as_array().unwrap().len(), 2);
    }

    #[test]
    fn unknown_nodes_are_ignored() {
        let reg = ServiceRegistry::new();
        let sub = reg.subscribe();
        reg.up("ghost");
        assert!(reg.rows().is_empty());
        assert!(sub.drain().is_empty());
    }
}
