//! Peer-link supervision: the Up/Suspect/Down health state machine.
//!
//! Paper §3.2 promises a *"homogeneous view of software components
//! with fault tolerant behaviour"*; this module supplies the failure
//! detector behind it. Each supervised peer is probed with an I2O
//! `HbPing` utility frame (0x40) on a fixed interval; the remote
//! executive answers with `HbPong` (0x41). Consecutive unanswered
//! probes accumulate as *misses* — a phi-style threshold pair turns
//! misses into state transitions:
//!
//! ```text
//!            misses >= suspect_after        misses >= down_after
//!     Up ─────────────────────────▶ Suspect ────────────────────▶ Down
//!      ▲                              │ ▲                           │
//!      │        pong / traffic        │ │   (misses keep counting)  │
//!      ◀──────────────────────────────┘ └───────────────────────────┘
//!      ▲                                             │
//!      └─────────────── HbPong ONLY ─────────────────┘
//! ```
//!
//! Ordinary ingress traffic ([`LinkSupervisor::touch`]) clears misses
//! and recovers a *Suspect* link, but a *Down* peer can only come back
//! through an explicit [`LinkSupervisor::on_pong`]: once declared dead
//! (routes evicted, proxies invalidated) we demand proof that the
//! control path works end-to-end, not just that a stray frame arrived.
//! The property test in `crates/core/tests/proptests.rs` pins this.
//!
//! The struct is deliberately free of clocks and I/O — [`tick`]
//! decides *what* to do (who to ping, who changed state) and the
//! executive does it, which keeps the state machine unit-testable and
//! the chaos tests deterministic. The wire form of the probes lives
//! here too: [`ping_frame`], [`pong_frame`] and [`frame_seq`].
//!
//! [`tick`]: LinkSupervisor::tick

use crate::listener::Delivery;
use crate::pta::PeerAddr;
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::time::Duration;
use xdaq_i2o::{Message, Priority, Tid, UtilFn};

/// Health of one supervised peer link.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LinkState {
    /// Probes are being answered.
    Up,
    /// Missed probes passed the suspicion threshold; routes stay.
    Suspect,
    /// Missed probes passed the down threshold; routes are evicted
    /// and only an explicit `HbPong` revives the link.
    Down,
}

impl LinkState {
    /// Lower-case wire/scrape name.
    pub fn as_str(self) -> &'static str {
        match self {
            LinkState::Up => "up",
            LinkState::Suspect => "suspect",
            LinkState::Down => "down",
        }
    }
}

/// Knobs for the failure detector.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SupervisionConfig {
    /// Heartbeat period (one `HbPing` per supervised peer per tick).
    pub interval: Duration,
    /// Consecutive misses before Up → Suspect.
    pub suspect_after: u32,
    /// Consecutive misses before → Down (route eviction).
    pub down_after: u32,
}

impl Default for SupervisionConfig {
    fn default() -> SupervisionConfig {
        SupervisionConfig {
            interval: Duration::from_millis(100),
            suspect_after: 2,
            down_after: 5,
        }
    }
}

struct PeerHealth {
    state: LinkState,
    /// Consecutive probes without an answer (or any traffic).
    misses: u32,
    /// Sequence number of the most recent ping.
    seq: u64,
    /// True while the latest ping is unanswered.
    pending: bool,
}

/// What one supervision tick asks the executive to do.
#[derive(Debug, Default)]
pub struct TickOutcome {
    /// Peers to probe now, with the ping sequence number to send.
    pub pings: Vec<(PeerAddr, u64)>,
    /// State transitions this tick produced (new state).
    pub transitions: Vec<(PeerAddr, LinkState)>,
}

/// Tracks per-peer link health; owned by the executive, driven from
/// the timer wheel.
pub struct LinkSupervisor {
    config: SupervisionConfig,
    /// Keyed by address in sorted order so `tick` emits pings and
    /// transitions deterministically — the discrete-event simulator
    /// (DESIGN.md §16) replays runs bit-for-bit and a hash-seeded map
    /// here would reorder simultaneous Down transitions between runs.
    peers: Mutex<BTreeMap<PeerAddr, PeerHealth>>,
}

impl LinkSupervisor {
    /// A supervisor with the given thresholds.
    pub fn new(config: SupervisionConfig) -> LinkSupervisor {
        LinkSupervisor {
            config,
            peers: Mutex::new(BTreeMap::new()),
        }
    }

    /// The configured heartbeat interval.
    pub fn interval(&self) -> Duration {
        self.config.interval
    }

    /// Starts watching a peer (idempotent); new links start Up.
    pub fn supervise(&self, peer: PeerAddr) {
        self.peers.lock().entry(peer).or_insert(PeerHealth {
            state: LinkState::Up,
            misses: 0,
            seq: 0,
            pending: false,
        });
    }

    /// Stops watching a peer.
    pub fn unsupervise(&self, peer: &PeerAddr) {
        self.peers.lock().remove(peer);
    }

    /// Current state of a peer, if supervised.
    pub fn state(&self, peer: &PeerAddr) -> Option<LinkState> {
        self.peers.lock().get(peer).map(|h| h.state)
    }

    /// All supervised peers with their states (for scrapes).
    pub fn states(&self) -> Vec<(PeerAddr, LinkState)> {
        self.peers
            .lock()
            .iter()
            .map(|(p, h)| (p.clone(), h.state))
            .collect()
    }

    /// One heartbeat period elapsed: account a miss for every
    /// unanswered probe, apply the thresholds, and schedule the next
    /// round of pings. Down peers keep being probed so a recovered
    /// peer's pong can revive the link.
    pub fn tick(&self) -> TickOutcome {
        let mut peers = self.peers.lock();
        let mut out = TickOutcome::default();
        for (peer, h) in peers.iter_mut() {
            if h.pending {
                h.misses = h.misses.saturating_add(1);
                let next = if h.misses >= self.config.down_after {
                    LinkState::Down
                } else if h.misses >= self.config.suspect_after {
                    LinkState::Suspect
                } else {
                    h.state
                };
                // Down is sticky: only on_pong leaves it.
                if next != h.state && h.state != LinkState::Down {
                    h.state = next;
                    out.transitions.push((peer.clone(), next));
                }
            }
            h.seq = h.seq.wrapping_add(1);
            h.pending = true;
            out.pings.push((peer.clone(), h.seq));
        }
        out
    }

    /// An `HbPong` arrived from `peer`. This is the **only** path out
    /// of Down. Returns the recovery transition, if any.
    pub fn on_pong(&self, peer: &PeerAddr, seq: u64) -> Option<(PeerAddr, LinkState)> {
        let mut peers = self.peers.lock();
        let h = peers.get_mut(peer)?;
        if seq == h.seq {
            h.pending = false;
        }
        h.misses = 0;
        if h.state != LinkState::Up {
            h.state = LinkState::Up;
            return Some((peer.clone(), LinkState::Up));
        }
        None
    }

    /// A transport declared `peer` dead out-of-band (e.g. a
    /// shared-memory region epoch bumped when the process vanished).
    /// Skips the miss-accounting ramp and goes straight to Down;
    /// returns the transition unless the peer was already Down or is
    /// not supervised. The Down-sticky rule still applies afterwards:
    /// only [`on_pong`](LinkSupervisor::on_pong) revives the link.
    pub fn force_down(&self, peer: &PeerAddr) -> Option<(PeerAddr, LinkState)> {
        let mut peers = self.peers.lock();
        let h = peers.get_mut(peer)?;
        if h.state == LinkState::Down {
            return None;
        }
        h.state = LinkState::Down;
        h.misses = h.misses.max(self.config.down_after);
        Some((peer.clone(), LinkState::Down))
    }

    /// Any ordinary frame arrived from `peer`: proof of life that
    /// clears misses and recovers a Suspect link, but deliberately
    /// does **not** revive a Down one.
    pub fn touch(&self, peer: &PeerAddr) -> Option<(PeerAddr, LinkState)> {
        let mut peers = self.peers.lock();
        let h = peers.get_mut(peer)?;
        if h.state == LinkState::Down {
            return None;
        }
        h.misses = 0;
        h.pending = false;
        if h.state == LinkState::Suspect {
            h.state = LinkState::Up;
            return Some((peer.clone(), LinkState::Up));
        }
        None
    }
}

/// The `HbPing` probe carrying sequence number `seq`, executive to
/// executive. It bypasses the route table, so a Down peer keeps being
/// probed and its eventual pong can revive the link.
pub(crate) fn ping_frame(seq: u64) -> Message {
    Message::util(Tid::EXECUTIVE, Tid::EXECUTIVE, UtilFn::HbPing)
        .priority(Priority::MAX)
        .payload(seq.to_le_bytes().to_vec())
        .finish()
}

/// The answer `from` sends to `ping`: a *fresh* `HbPong` frame (not an
/// IS_REPLY: the remote executive swallows replies) echoing the
/// sequence payload back to the proxied initiator.
pub(crate) fn pong_frame(ping: &Delivery, from: Tid) -> Message {
    Message::util(ping.header.initiator, from, UtilFn::HbPong)
        .priority(Priority::MAX)
        .payload(ping.payload().to_vec())
        .finish()
}

/// The sequence number a ping or pong carries (0 when truncated).
pub(crate) fn frame_seq(d: &Delivery) -> u64 {
    d.payload()
        .get(..8)
        .map(|b| u64::from_le_bytes(b.try_into().expect("8 bytes")))
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addr(s: &str) -> PeerAddr {
        s.parse().unwrap()
    }

    fn sup() -> LinkSupervisor {
        LinkSupervisor::new(SupervisionConfig {
            interval: Duration::from_millis(10),
            suspect_after: 2,
            down_after: 4,
        })
    }

    #[test]
    fn healthy_link_stays_up() {
        let s = sup();
        let p = addr("loop://b");
        s.supervise(p.clone());
        for _ in 0..10 {
            let t = s.tick();
            assert_eq!(t.pings.len(), 1);
            assert!(t.transitions.is_empty());
            let (_, seq) = t.pings[0].clone();
            assert!(s.on_pong(&p, seq).is_none());
        }
        assert_eq!(s.state(&p), Some(LinkState::Up));
    }

    #[test]
    fn misses_walk_up_suspect_down() {
        let s = sup();
        let p = addr("loop://b");
        s.supervise(p.clone());
        s.tick(); // ping 1 out, no miss yet
        s.tick(); // miss 1
        assert_eq!(s.state(&p), Some(LinkState::Up));
        let t = s.tick(); // miss 2 -> Suspect
        assert_eq!(t.transitions, vec![(p.clone(), LinkState::Suspect)]);
        s.tick(); // miss 3
        let t = s.tick(); // miss 4 -> Down
        assert_eq!(t.transitions, vec![(p.clone(), LinkState::Down)]);
        // Sticky: further ticks produce no new transition.
        assert!(s.tick().transitions.is_empty());
        assert_eq!(s.state(&p), Some(LinkState::Down));
    }

    #[test]
    fn touch_recovers_suspect_but_not_down() {
        let s = sup();
        let p = addr("loop://b");
        s.supervise(p.clone());
        s.tick();
        s.tick();
        s.tick(); // Suspect
        assert_eq!(s.state(&p), Some(LinkState::Suspect));
        assert_eq!(s.touch(&p), Some((p.clone(), LinkState::Up)));
        for _ in 0..6 {
            s.tick();
        }
        assert_eq!(s.state(&p), Some(LinkState::Down));
        assert_eq!(s.touch(&p), None, "touch must not revive a Down link");
        assert_eq!(s.state(&p), Some(LinkState::Down));
    }

    #[test]
    fn only_pong_revives_down() {
        let s = sup();
        let p = addr("loop://b");
        s.supervise(p.clone());
        for _ in 0..6 {
            s.tick();
        }
        assert_eq!(s.state(&p), Some(LinkState::Down));
        let seq = s.tick().pings[0].1;
        assert_eq!(s.on_pong(&p, seq), Some((p.clone(), LinkState::Up)));
        assert_eq!(s.state(&p), Some(LinkState::Up));
    }

    #[test]
    fn stale_pong_still_proves_life() {
        let s = sup();
        let p = addr("loop://b");
        s.supervise(p.clone());
        let old_seq = s.tick().pings[0].1;
        s.tick();
        s.tick(); // Suspect by now
        assert_eq!(s.state(&p), Some(LinkState::Suspect));
        // A late pong for an old probe clears misses and recovers.
        assert_eq!(s.on_pong(&p, old_seq), Some((p.clone(), LinkState::Up)));
    }

    #[test]
    fn force_down_skips_the_miss_ramp() {
        let s = sup();
        let p = addr("shm:///dev/shm/x@b");
        assert!(s.force_down(&p).is_none(), "unsupervised peer ignored");
        s.supervise(p.clone());
        assert_eq!(s.state(&p), Some(LinkState::Up));
        assert_eq!(s.force_down(&p), Some((p.clone(), LinkState::Down)));
        assert_eq!(s.force_down(&p), None, "already Down: no transition");
        // Still Down-sticky: traffic does not revive, a pong does.
        assert_eq!(s.touch(&p), None);
        let seq = s.tick().pings[0].1;
        assert_eq!(s.on_pong(&p, seq), Some((p.clone(), LinkState::Up)));
    }

    #[test]
    fn unsupervised_peer_is_ignored() {
        let s = sup();
        let p = addr("loop://stranger");
        assert!(s.on_pong(&p, 1).is_none());
        assert!(s.touch(&p).is_none());
        assert_eq!(s.state(&p), None);
        s.supervise(addr("loop://b"));
        s.unsupervise(&addr("loop://b"));
        assert!(s.tick().pings.is_empty());
    }
}
