//! The fabric: node/port registry and global accounting.

use crate::error::GmError;
use crate::latency::LatencyModel;
use crate::port::{GmAddr, Port, PortConfig, PortId, PortInner};
use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Identifier of one node (machine) on the fabric.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct NodeId(pub u16);

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "gm{}", self.0)
    }
}

/// Fabric-wide counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FabricStats {
    /// Packets injected.
    pub packets: u64,
    /// Payload bytes injected.
    pub bytes: u64,
    /// Sends rejected because the destination queue was full.
    pub rejects: u64,
}

/// The simulated Myrinet switch fabric.
///
/// One `Fabric` stands in for the physical network: ports open on it,
/// packets travel through it, and the [`LatencyModel`] decides when
/// they become visible at the far side.
pub struct Fabric {
    latency: LatencyModel,
    ports: RwLock<HashMap<(u16, u8), Arc<PortInner>>>,
    packets: AtomicU64,
    bytes: AtomicU64,
    rejects: AtomicU64,
}

impl Fabric {
    /// A fabric with no injected wire latency.
    pub fn new() -> Arc<Fabric> {
        Fabric::with_latency(LatencyModel::ZERO)
    }

    /// A fabric with the given latency model.
    pub fn with_latency(latency: LatencyModel) -> Arc<Fabric> {
        Arc::new(Fabric {
            latency,
            ports: RwLock::new(HashMap::new()),
            packets: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
            rejects: AtomicU64::new(0),
        })
    }

    /// The configured latency model.
    pub fn latency(&self) -> LatencyModel {
        self.latency
    }

    /// Opens a port with default configuration.
    pub fn open_port(self: &Arc<Fabric>, node: NodeId, port: PortId) -> Result<Port, GmError> {
        self.open_port_with(node, port, PortConfig::default())
    }

    /// Opens a port with explicit configuration.
    pub fn open_port_with(
        self: &Arc<Fabric>,
        node: NodeId,
        port: PortId,
        config: PortConfig,
    ) -> Result<Port, GmError> {
        let key = (node.0, port.0);
        let inner = Arc::new(PortInner::new(GmAddr { node, port }, config));
        let mut ports = self.ports.write();
        if ports.contains_key(&key) {
            return Err(GmError::PortInUse {
                node: node.0,
                port: port.0,
            });
        }
        ports.insert(key, inner.clone());
        drop(ports);
        Ok(Port::new(inner, self.clone()))
    }

    /// Looks up a destination port.
    pub(crate) fn lookup(&self, addr: GmAddr) -> Result<Arc<PortInner>, GmError> {
        let ports = self.ports.read();
        ports
            .get(&(addr.node.0, addr.port.0))
            .cloned()
            .ok_or(GmError::UnknownPort {
                node: addr.node.0,
                port: addr.port.0,
            })
    }

    /// Removes `port` on close, if it still owns its address (a newer
    /// port may have opened there since).
    pub(crate) fn unregister(&self, port: &Arc<PortInner>) {
        let key = (port.addr.node.0, port.addr.port.0);
        let mut ports = self.ports.write();
        if ports.get(&key).is_some_and(|p| Arc::ptr_eq(p, port)) {
            ports.remove(&key);
        }
    }

    pub(crate) fn account_send(&self, bytes: usize) {
        self.packets.fetch_add(1, Ordering::Relaxed);
        self.bytes.fetch_add(bytes as u64, Ordering::Relaxed);
    }

    pub(crate) fn account_reject(&self) {
        self.rejects.fetch_add(1, Ordering::Relaxed);
    }

    /// Snapshot of the counters.
    pub fn stats(&self) -> FabricStats {
        FabricStats {
            packets: self.packets.load(Ordering::Relaxed),
            bytes: self.bytes.load(Ordering::Relaxed),
            rejects: self.rejects.load(Ordering::Relaxed),
        }
    }

    /// Number of open ports.
    pub fn open_ports(&self) -> usize {
        self.ports.read().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn open_and_close_ports() {
        let fabric = Fabric::new();
        let p = fabric.open_port(NodeId(1), PortId(2)).unwrap();
        assert_eq!(fabric.open_ports(), 1);
        assert!(matches!(
            fabric.open_port(NodeId(1), PortId(2)),
            Err(GmError::PortInUse { .. })
        ));
        drop(p);
        assert_eq!(fabric.open_ports(), 0, "drop unregisters");
        // Reopen works after close.
        let _p = fabric.open_port(NodeId(1), PortId(2)).unwrap();
    }

    #[test]
    fn stats_accumulate() {
        let fabric = Fabric::new();
        fabric.account_send(100);
        fabric.account_send(50);
        fabric.account_reject();
        let s = fabric.stats();
        assert_eq!(s.packets, 2);
        assert_eq!(s.bytes, 150);
        assert_eq!(s.rejects, 1);
    }
}
