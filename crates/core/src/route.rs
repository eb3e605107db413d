//! TiD routing: local devices and proxy TiDs for remote ones.
//!
//! Paper §3.4: *"To communicate with a remote device, the executive
//! creates a local TiD for the target device along with information how
//! to reach this device. The principle is not new. It can be compared
//! to the Proxy pattern. That is how we can obtain total transparency
//! of location. The caller never needs to know, if a device is really
//! local or if the call is redirected."*
//!
//! A peer route is one address: when the link supervisor declares the
//! peer down, [`RouteTable::evict_peer`] removes its routes, and the
//! control plane re-routes a respawned node.
//!
//! A peer route also holds the transport that serves its scheme, so a
//! routed frame goes straight to it, with no lookup in the PTA. The
//! executive rebinds every peer route (`RouteTable::bind_transports`)
//! whenever a transport is registered or destroyed: a route always
//! sends through the transport registered for its scheme now.
//!
//! The frame path clones a [`Route`] out of the table under its read
//! lock (one reference-count bump on the [`PeerRoute`]), and ingest
//! answers "which proxy TiD stands for this sender, and where does the
//! target lead" under one read lock ([`RouteTable::resolve_inbound`])
//! — the table keeps the reverse index of proxies for that.

use crate::fastmap::FastMap;
use crate::pta::{PeerAddr, PeerTransport};
use core::fmt;
use parking_lot::RwLock;
use std::sync::Arc;
use xdaq_i2o::Tid;

/// Where a TiD leads.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Route {
    /// A device registered on this executive.
    Local,
    /// A proxy TiD: the remote device and how to reach it.
    Peer(Arc<PeerRoute>),
}

/// A proxy's destination: forward to `peer`, readdressed to
/// `remote_tid` on the remote IOP, through the bound transport.
pub struct PeerRoute {
    /// Peer transport address (its scheme selects the transport).
    pub peer: PeerAddr,
    /// The device's TiD on the remote node.
    pub remote_tid: Tid,
    transport: Option<Arc<dyn PeerTransport>>,
}

impl PeerRoute {
    /// A peer route bound to the first of `transports` serving the
    /// peer's scheme.
    fn bound(peer: PeerAddr, remote_tid: Tid, transports: &[Arc<dyn PeerTransport>]) -> Route {
        let transport = transports
            .iter()
            .find(|pt| pt.scheme() == peer.scheme())
            .cloned();
        Route::Peer(Arc::new(PeerRoute {
            peer,
            remote_tid,
            transport,
        }))
    }

    /// The transport registered for the peer's scheme when the route
    /// was last bound; `None` while no transport serves it.
    pub fn transport(&self) -> Option<&dyn PeerTransport> {
        self.transport.as_deref()
    }
}

impl PartialEq for PeerRoute {
    fn eq(&self, other: &PeerRoute) -> bool {
        let bound = |r: &PeerRoute| r.transport.as_ref().map(|pt| Arc::as_ptr(pt) as *const ());
        self.peer == other.peer
            && self.remote_tid == other.remote_tid
            && bound(self) == bound(other)
    }
}

impl Eq for PeerRoute {}

impl fmt::Debug for PeerRoute {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PeerRoute")
            .field("peer", &self.peer)
            .field("remote_tid", &self.remote_tid)
            .field("transport", &self.transport.as_ref().map(|pt| pt.scheme()))
            .finish()
    }
}

#[derive(Default)]
struct Tables {
    routes: FastMap<Tid, Route>,
    /// Reverse index of the proxies made by [`RouteTable::proxy_for`]:
    /// sender address → TiD on that sender → local proxy TiD.
    proxies: FastMap<PeerAddr, FastMap<Tid, Tid>>,
    /// The registered transports, in registration order.
    transports: Vec<Arc<dyn PeerTransport>>,
}

/// The per-executive routing table.
#[derive(Default)]
pub struct RouteTable {
    tables: RwLock<Tables>,
}

impl RouteTable {
    /// Empty table.
    pub fn new() -> RouteTable {
        RouteTable::default()
    }

    /// Registers a local device TiD.
    pub fn add_local(&self, tid: Tid) {
        self.tables.write().routes.insert(tid, Route::Local);
    }

    /// Registers a proxy TiD.
    pub fn add_peer(&self, local_proxy: Tid, peer: PeerAddr, remote_tid: Tid) {
        let mut tables = self.tables.write();
        let route = PeerRoute::bound(peer, remote_tid, &tables.transports);
        tables.routes.insert(local_proxy, route);
    }

    /// Finds the proxy TiD standing for device `remote_tid` of `peer`,
    /// or makes one: `allocate` supplies the fresh TiD, which gets a
    /// peer route (paper §3.4: the executive "creates a
    /// local TiD for the target device along with information how to
    /// reach this device").
    pub fn proxy_for<E>(
        &self,
        peer: PeerAddr,
        remote_tid: Tid,
        allocate: impl FnOnce() -> Result<Tid, E>,
    ) -> Result<Tid, E> {
        let mut tables = self.tables.write();
        if let Some(tid) = tables.proxies.get(&peer).and_then(|m| m.get(&remote_tid)) {
            return Ok(*tid);
        }
        let tid = allocate()?;
        let route = PeerRoute::bound(peer.clone(), remote_tid, &tables.transports);
        tables.routes.insert(tid, route);
        tables
            .proxies
            .entry(peer)
            .or_default()
            .insert(remote_tid, tid);
        Ok(tid)
    }

    /// Binds every peer route, and every route made from now on, to
    /// the first of `transports` serving its scheme (none when no
    /// transport does). The executive passes [`crate::Pta::transports`]
    /// after each change to its transports.
    pub(crate) fn bind_transports(&self, transports: Vec<Arc<dyn PeerTransport>>) {
        let mut tables = self.tables.write();
        for route in tables.routes.values_mut() {
            if let Route::Peer(via) = route {
                *route = PeerRoute::bound(via.peer.clone(), via.remote_tid, &transports);
            }
        }
        tables.transports = transports;
    }

    /// Where a TiD leads.
    pub fn resolve(&self, tid: Tid) -> Option<Route> {
        self.tables.read().routes.get(&tid).cloned()
    }

    /// Ingest's one lookup: the local proxy standing for `initiator`
    /// at sender `src` (`None` until [`RouteTable::proxy_for`] made
    /// one), and where `target` leads.
    pub fn resolve_inbound(
        &self,
        src: &PeerAddr,
        initiator: Tid,
        target: Tid,
    ) -> (Option<Tid>, Option<Route>) {
        let tables = self.tables.read();
        let proxy = tables
            .proxies
            .get(src)
            .and_then(|m| m.get(&initiator))
            .copied();
        (proxy, tables.routes.get(&target).cloned())
    }

    /// True when the TiD routes locally.
    pub fn is_local(&self, tid: Tid) -> bool {
        matches!(self.tables.read().routes.get(&tid), Some(Route::Local))
    }

    /// Removes a TiD (device destroyed / peer disconnected).
    pub fn remove(&self, tid: Tid) -> Option<Route> {
        self.tables.write().routes.remove(&tid)
    }

    /// Declares `peer` dead: every route to it is removed, and so are
    /// the proxies indexed under it, so the next frame from a returning
    /// peer gets a fresh proxy. Returns the removed TiDs.
    pub fn evict_peer(&self, peer: &PeerAddr) -> Vec<Tid> {
        let mut tables = self.tables.write();
        tables.proxies.remove(peer);
        let mut evicted = Vec::new();
        tables.routes.retain(|tid, r| match r {
            Route::Peer(via) if via.peer == *peer => {
                evicted.push(*tid);
                false
            }
            _ => true,
        });
        evicted
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.tables.read().routes.len()
    }

    /// True when no routes exist.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(v: u16) -> Tid {
        Tid::new(v).unwrap()
    }

    fn addr(s: &str) -> PeerAddr {
        s.parse().unwrap()
    }

    /// The peer and remote TiD a proxy TiD leads to.
    fn via(rt: &RouteTable, tid: u16) -> Option<(PeerAddr, Tid)> {
        match rt.resolve(t(tid))? {
            Route::Peer(via) => Some((via.peer.clone(), via.remote_tid)),
            Route::Local => None,
        }
    }

    #[test]
    fn local_and_peer_routes() {
        let rt = RouteTable::new();
        rt.add_local(t(0x10));
        rt.add_peer(t(0x11), addr("gm://2:0"), t(0x20));
        assert!(rt.is_local(t(0x10)));
        assert!(!rt.is_local(t(0x11)));
        assert_eq!(via(&rt, 0x11), Some((addr("gm://2:0"), t(0x20))));
        assert_eq!(rt.resolve(t(0x99)), None);
    }

    #[test]
    fn proxy_for_is_find_or_create_and_feeds_the_inbound_lookup() {
        let rt = RouteTable::new();
        rt.add_local(t(0x10));
        let peer = addr("loop://b");
        let fresh = |v: u16| move || Ok::<Tid, ()>(t(v));
        assert_eq!(rt.resolve_inbound(&peer, t(0x20), t(0x10)).0, None);
        assert_eq!(
            rt.proxy_for(peer.clone(), t(0x20), fresh(0x30)),
            Ok(t(0x30))
        );
        let reuse = rt.proxy_for(peer.clone(), t(0x20), || -> Result<Tid, ()> {
            panic!("an indexed proxy allocates nothing")
        });
        assert_eq!(reuse, Ok(t(0x30)));
        assert_eq!(rt.proxy_for(peer.clone(), t(0x21), || Err(())), Err(()));
        // One read answers both of ingest's questions.
        assert_eq!(
            rt.resolve_inbound(&peer, t(0x20), t(0x10)),
            (Some(t(0x30)), Some(Route::Local))
        );
        assert_eq!(via(&rt, 0x30), Some((peer.clone(), t(0x20))));
        // Eviction forgets the peer's proxies with its routes.
        assert_eq!(rt.evict_peer(&peer), vec![t(0x30)]);
        assert_eq!(rt.resolve_inbound(&peer, t(0x20), t(0x30)), (None, None));
    }

    #[test]
    fn remove_routes() {
        let rt = RouteTable::new();
        rt.add_local(t(0x10));
        assert!(rt.remove(t(0x10)).is_some());
        assert!(rt.resolve(t(0x10)).is_none());
        assert!(rt.remove(t(0x10)).is_none());
    }

    #[test]
    fn evict_removes_only_the_dead_peers_routes() {
        let rt = RouteTable::new();
        rt.add_peer(t(0x11), addr("gm://a:0"), t(0x20));
        rt.add_peer(t(0x12), addr("gm://a:0"), t(0x21));
        rt.add_peer(t(0x13), addr("gm://b:0"), t(0x22));
        let mut evicted = rt.evict_peer(&addr("gm://a:0"));
        evicted.sort();
        assert_eq!(evicted, vec![t(0x11), t(0x12)]);
        assert!(rt.resolve(t(0x11)).is_none());
        assert!(rt.resolve(t(0x12)).is_none());
        assert!(rt.resolve(t(0x13)).is_some(), "other peers untouched");
    }
}
