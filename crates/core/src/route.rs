//! TiD routing: local devices and proxy TiDs for remote ones.
//!
//! Paper §3.4: *"To communicate with a remote device, the executive
//! creates a local TiD for the target device along with information how
//! to reach this device. The principle is not new. It can be compared
//! to the Proxy pattern. That is how we can obtain total transparency
//! of location. The caller never needs to know, if a device is really
//! local or if the call is redirected."*
//!
//! A peer route may additionally carry **alternate** addresses for the
//! same remote device (e.g. a `gm://` primary with an `xpt://` backup).
//! The PTA's failover chain walks them in order on a hard send
//! failure, and [`RouteTable::evict_peer`] promotes an alternate to
//! primary when the link supervisor declares a peer down.
//!
//! The frame path never clones a [`Route`]: sends copy out a [`Hop`]
//! ([`RouteTable::resolve`]), and ingest answers "which proxy TiD
//! stands for this sender, and where does the target lead" under one
//! read lock ([`RouteTable::resolve_inbound`]) — the table keeps the
//! reverse index of proxies for that.

use crate::pta::PeerAddr;
use parking_lot::RwLock;
use std::collections::HashMap;
use xdaq_i2o::Tid;

/// Where a TiD leads.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Route {
    /// A device registered on this executive.
    Local,
    /// A proxy: forward over `via` to `peer`, readdressed to
    /// `remote_tid` on the remote IOP.
    Peer {
        /// Peer transport address (scheme selects the PT).
        peer: PeerAddr,
        /// The device's TiD on the remote node.
        remote_tid: Tid,
        /// Backup addresses for the same remote device, tried in
        /// order when sending via `peer` fails hard.
        alternates: Vec<PeerAddr>,
    },
}

impl Route {
    /// The send-failover chain for a peer route — primary first, then
    /// alternates in registration order. Empty for a local route. The
    /// executive hands this to [`Pta::reorder_for_locality`] so a
    /// co-located `shm://` address is tried before any network one,
    /// then to `send_failover`.
    ///
    /// [`Pta::reorder_for_locality`]: crate::pta::Pta::reorder_for_locality
    pub fn failover_chain(&self) -> Vec<PeerAddr> {
        match self {
            Route::Local => Vec::new(),
            Route::Peer {
                peer, alternates, ..
            } => {
                let mut chain = Vec::with_capacity(1 + alternates.len());
                chain.push(peer.clone());
                chain.extend(alternates.iter().cloned());
                chain
            }
        }
    }
}

/// What the frame path needs to know about a TiD — copied out of the
/// table under its read lock, so no [`Route`] is cloned per frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Hop {
    /// A device registered on this executive.
    Local,
    /// A proxy: send to `peer`, readdressed to `remote_tid`.
    Peer {
        /// Primary peer address.
        peer: PeerAddr,
        /// The device's TiD on the remote node.
        remote_tid: Tid,
        /// The route has alternates: the sender walks the full
        /// [`Route::failover_chain`] instead of the primary alone.
        has_alternates: bool,
    },
}

impl Hop {
    fn of(route: &Route) -> Hop {
        match route {
            Route::Local => Hop::Local,
            Route::Peer {
                peer,
                remote_tid,
                alternates,
            } => Hop::Peer {
                peer: peer.clone(),
                remote_tid: *remote_tid,
                has_alternates: !alternates.is_empty(),
            },
        }
    }
}

/// Outcome of evicting a peer address from the table.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct Eviction {
    /// Proxy TiDs removed outright (no alternate to fall back to).
    pub evicted: Vec<Tid>,
    /// Proxy TiDs kept alive by promoting their first alternate; the
    /// dead address is demoted to last-resort alternate.
    pub promoted: Vec<Tid>,
}

#[derive(Default)]
struct Tables {
    routes: HashMap<Tid, Route>,
    /// Reverse index of the proxies made by [`RouteTable::proxy_for`]:
    /// sender address → TiD on that sender → local proxy TiD.
    proxies: HashMap<PeerAddr, HashMap<Tid, Tid>>,
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

    /// Registers a proxy TiD with a single address.
    pub fn add_peer(&self, local_proxy: Tid, peer: PeerAddr, remote_tid: Tid) {
        self.add_peer_with_alternates(local_proxy, peer, remote_tid, Vec::new());
    }

    /// Registers a proxy TiD with a primary address plus failover
    /// alternates.
    pub fn add_peer_with_alternates(
        &self,
        local_proxy: Tid,
        peer: PeerAddr,
        remote_tid: Tid,
        alternates: Vec<PeerAddr>,
    ) {
        self.tables.write().routes.insert(
            local_proxy,
            Route::Peer {
                peer,
                remote_tid,
                alternates,
            },
        );
    }

    /// Appends an alternate address to an existing peer route; returns
    /// false when the TiD is absent or local.
    pub fn add_alternate(&self, local_proxy: Tid, alt: PeerAddr) -> bool {
        match self.tables.write().routes.get_mut(&local_proxy) {
            Some(Route::Peer {
                peer, alternates, ..
            }) => {
                if *peer != alt && !alternates.contains(&alt) {
                    alternates.push(alt);
                }
                true
            }
            _ => false,
        }
    }

    /// Finds the proxy TiD standing for device `remote_tid` of `peer`,
    /// or makes one: `allocate` supplies the fresh TiD, which gets a
    /// single-address peer route (paper §3.4: the executive "creates a
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
        tables.routes.insert(
            tid,
            Route::Peer {
                peer: peer.clone(),
                remote_tid,
                alternates: Vec::new(),
            },
        );
        tables
            .proxies
            .entry(peer)
            .or_default()
            .insert(remote_tid, tid);
        Ok(tid)
    }

    /// Looks up a TiD, cloning its route (configuration and test
    /// surface; the frame path uses [`RouteTable::resolve`]).
    pub fn lookup(&self, tid: Tid) -> Option<Route> {
        self.tables.read().routes.get(&tid).cloned()
    }

    /// Where a TiD leads, for sending.
    pub fn resolve(&self, tid: Tid) -> Option<Hop> {
        self.tables.read().routes.get(&tid).map(Hop::of)
    }

    /// Ingest's one lookup: the local proxy standing for `initiator`
    /// at sender `src` (`None` until [`RouteTable::proxy_for`] made
    /// one), and where `target` leads.
    pub fn resolve_inbound(
        &self,
        src: &PeerAddr,
        initiator: Tid,
        target: Tid,
    ) -> (Option<Tid>, Option<Hop>) {
        let tables = self.tables.read();
        let proxy = tables
            .proxies
            .get(src)
            .and_then(|m| m.get(&initiator))
            .copied();
        (proxy, tables.routes.get(&target).map(Hop::of))
    }

    /// True when the TiD routes locally.
    pub fn is_local(&self, tid: Tid) -> bool {
        matches!(self.tables.read().routes.get(&tid), Some(Route::Local))
    }

    /// Removes a TiD (device destroyed / peer disconnected).
    pub fn remove(&self, tid: Tid) -> Option<Route> {
        self.tables.write().routes.remove(&tid)
    }

    /// All proxy TiDs whose **primary** address is the given peer
    /// (used when a peer goes away).
    pub fn proxies_via(&self, peer: &PeerAddr) -> Vec<Tid> {
        self.tables
            .read()
            .routes
            .iter()
            .filter_map(|(tid, r)| match r {
                Route::Peer { peer: p, .. } if p == peer => Some(*tid),
                _ => None,
            })
            .collect()
    }

    /// Declares `peer` dead: every route whose primary is `peer`
    /// either promotes its first alternate (the dead address becomes
    /// the last-resort alternate, so the route can fail back if the
    /// peer returns) or, with no alternates, is removed from the
    /// table. Proxies indexed under `peer` are forgotten either way:
    /// the next frame from a returning peer gets a fresh proxy.
    pub fn evict_peer(&self, peer: &PeerAddr) -> Eviction {
        let mut tables = self.tables.write();
        tables.proxies.remove(peer);
        let routes = &mut tables.routes;
        let mut out = Eviction::default();
        let affected: Vec<Tid> = routes
            .iter()
            .filter_map(|(tid, r)| match r {
                Route::Peer { peer: p, .. } if p == peer => Some(*tid),
                _ => None,
            })
            .collect();
        for tid in affected {
            let Some(Route::Peer {
                peer: p,
                alternates,
                ..
            }) = routes.get_mut(&tid)
            else {
                continue;
            };
            if alternates.is_empty() {
                routes.remove(&tid);
                out.evicted.push(tid);
            } else {
                let promoted = alternates.remove(0);
                let demoted = std::mem::replace(p, promoted);
                alternates.push(demoted);
                out.promoted.push(tid);
            }
        }
        out
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

    #[test]
    fn local_and_peer_routes() {
        let rt = RouteTable::new();
        rt.add_local(t(0x10));
        rt.add_peer(t(0x11), addr("gm://2:0"), t(0x20));
        assert!(rt.is_local(t(0x10)));
        assert!(!rt.is_local(t(0x11)));
        match rt.lookup(t(0x11)).unwrap() {
            Route::Peer {
                peer,
                remote_tid,
                alternates,
            } => {
                assert_eq!(peer.scheme(), "gm");
                assert_eq!(remote_tid, t(0x20));
                assert!(alternates.is_empty());
            }
            _ => panic!("expected peer route"),
        }
        assert_eq!(rt.lookup(t(0x99)), None);
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
            (Some(t(0x30)), Some(Hop::Local))
        );
        assert_eq!(
            rt.resolve(t(0x30)),
            Some(Hop::Peer {
                peer: peer.clone(),
                remote_tid: t(0x20),
                has_alternates: false,
            })
        );
        assert!(rt.add_alternate(t(0x30), addr("tcp://b:1")));
        assert!(matches!(
            rt.resolve(t(0x30)),
            Some(Hop::Peer {
                has_alternates: true,
                ..
            })
        ));
        // Eviction forgets the peer's proxies even where an alternate
        // keeps the route alive.
        assert_eq!(rt.evict_peer(&peer).promoted, vec![t(0x30)]);
        assert_eq!(rt.resolve_inbound(&peer, t(0x20), t(0x99)), (None, None));
    }

    #[test]
    fn remove_routes() {
        let rt = RouteTable::new();
        rt.add_local(t(0x10));
        assert!(rt.remove(t(0x10)).is_some());
        assert!(rt.lookup(t(0x10)).is_none());
        assert!(rt.remove(t(0x10)).is_none());
    }

    #[test]
    fn proxies_via_filters_by_peer() {
        let rt = RouteTable::new();
        rt.add_peer(t(0x11), addr("tcp://a:1"), t(0x20));
        rt.add_peer(t(0x12), addr("tcp://a:1"), t(0x21));
        rt.add_peer(t(0x13), addr("tcp://b:1"), t(0x22));
        rt.add_local(t(0x14));
        let mut via_a = rt.proxies_via(&addr("tcp://a:1"));
        via_a.sort();
        assert_eq!(via_a, vec![t(0x11), t(0x12)]);
    }

    #[test]
    fn alternates_dedupe_and_require_peer_route() {
        let rt = RouteTable::new();
        rt.add_local(t(0x10));
        assert!(!rt.add_alternate(t(0x10), addr("tcp://b:1")));
        assert!(!rt.add_alternate(t(0x99), addr("tcp://b:1")));
        rt.add_peer(t(0x11), addr("gm://2:0"), t(0x20));
        assert!(rt.add_alternate(t(0x11), addr("tcp://b:1")));
        assert!(rt.add_alternate(t(0x11), addr("tcp://b:1")));
        assert!(
            rt.add_alternate(t(0x11), addr("gm://2:0")),
            "primary dup ignored"
        );
        match rt.lookup(t(0x11)).unwrap() {
            Route::Peer { alternates, .. } => {
                assert_eq!(alternates, vec![addr("tcp://b:1")]);
            }
            _ => panic!("expected peer route"),
        }
    }

    #[test]
    fn failover_chain_is_primary_then_alternates() {
        assert!(Route::Local.failover_chain().is_empty());
        let r = Route::Peer {
            peer: addr("tcp://a:1"),
            remote_tid: t(0x20),
            alternates: vec![addr("shm:///dev/shm/x@b"), addr("gm://a:0")],
        };
        assert_eq!(
            r.failover_chain(),
            vec![
                addr("tcp://a:1"),
                addr("shm:///dev/shm/x@b"),
                addr("gm://a:0"),
            ]
        );
    }

    #[test]
    fn evict_promotes_alternate_or_removes() {
        let rt = RouteTable::new();
        rt.add_peer_with_alternates(t(0x11), addr("gm://a:0"), t(0x20), vec![addr("tcp://a:1")]);
        rt.add_peer(t(0x12), addr("gm://a:0"), t(0x21));
        rt.add_peer(t(0x13), addr("gm://b:0"), t(0x22));
        let ev = rt.evict_peer(&addr("gm://a:0"));
        assert_eq!(ev.promoted, vec![t(0x11)]);
        assert_eq!(ev.evicted, vec![t(0x12)]);
        match rt.lookup(t(0x11)).unwrap() {
            Route::Peer {
                peer, alternates, ..
            } => {
                assert_eq!(peer, addr("tcp://a:1"), "alternate promoted");
                assert_eq!(alternates, vec![addr("gm://a:0")], "dead addr demoted");
            }
            _ => panic!("expected peer route"),
        }
        assert!(rt.lookup(t(0x12)).is_none());
        assert!(rt.lookup(t(0x13)).is_some(), "other peers untouched");
    }
}
