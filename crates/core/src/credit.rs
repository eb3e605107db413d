//! Link-level credit-based flow control.
//!
//! Shedding load at the receiver's scheduling queue would come too
//! late: the frame has already crossed the fabric and taken a pool
//! block on the receiving node. So the queue is unbounded, and a node
//! bounds its inbound work source-ward, the way Steinbeck's
//! data-transport framework and the evb credit loop (DESIGN.md §12) do,
//! but one layer down — on the peer link itself, uniformly for
//! `tcp://`, `shm://`, `loop://` and anything wrapped in `ChaosPt`,
//! because the gate sits in [`Pta::send_failover`](crate::Pta) above
//! every transport.
//!
//! ## Protocol
//!
//! Per peer link and direction, all counters are **cumulative** so the
//! exchange is idempotent under loss, duplication and reordering:
//!
//! * The **receiver** counts data frames ingested (`seen`) and
//!   advertises `granted_total = seen + window` in `CreditGrant`
//!   utility frames — on link bring-up (first data frame from a new
//!   peer), whenever consumption advances by at least the replenish
//!   threshold (half the window), and on every flow tick. Duplicated or reordered grants
//!   collapse under `max`; a dropped grant is re-sent next tick.
//! * The **sender** counts data frames put on the wire (`sent`) and
//!   may send while `sent < granted_total`. A lane is *unmetered* —
//!   credits are not enforced — until the first grant arrives, which
//!   resolves the bring-up chicken-and-egg without a handshake.
//! * A stalled sender emits `CreditSync` carrying its cumulative
//!   `sent`; the receiver adopts `seen = max(seen, sent)` — data
//!   frames the wire ate can never wedge the window shut — and
//!   re-grants immediately if it has headroom.
//! * Each receiver lane carries an **epoch**, bumped on link
//!   Down→Up re-establishment. Grants from a new epoch reset the
//!   sender's lane, so stale credits never leak across link
//!   incarnations. Grants and syncs from a stale epoch are answered
//!   with the current epoch's state rather than applied.
//!
//! Only **private data frames without the CONTROL flag** consume
//! credits. Utility and executive frames — heartbeats (0x40/0x41),
//! the credit frames themselves, supervision and `ParamsSet` traffic —
//! ride a reserved control lane and are never metered, so a saturated
//! link keeps answering pings and never false-Suspects a healthy peer.
//!
//! The manager itself is clock-free like
//! [`LinkSupervisor`](crate::LinkSupervisor): [`CreditManager::tick`]
//! returns [`FlowCmd`]s for the executive to put on the wire, and the
//! whole state machine is driven by explicit calls — which is what
//! makes it proptest-able.

use crate::executive::ExecCore;
use crate::listener::Delivery;
use crate::pta::PeerAddr;
use parking_lot::{Mutex, RwLock};
use std::collections::HashMap;
use std::time::Duration;
use xdaq_i2o::{
    FunctionCode, Message, MsgFlags, MsgHeader, Priority, Tid, UtilFn, HEADER_LEN, PRIVATE_FUNCTION,
};
use xdaq_mon::{FlowCounters, Registry};

/// What a sender does when the credit lane to a peer is dry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlowPolicy {
    /// Refuse immediately: the send fails with
    /// [`PtError::CreditExhausted`](crate::PtError) and the frame
    /// comes back through the [`SendFailure`](crate::SendFailure)
    /// path, zero-copy, for the caller to retry or drop.
    FailFast,
    /// Spin-wait for a grant up to `deadline`, then fail as above.
    /// Grants arrive on ingest threads, so blocking an application
    /// thread is safe; blocking the dispatch thread of a single-worker
    /// executive whose only transport is polling-mode will simply
    /// burn the deadline.
    Block {
        /// How long to wait for credit before giving up.
        deadline: Duration,
    },
}

/// Priority level (0..=6) at which a frame may dip into the reserved
/// slice of the window ([`FlowConfig::reserve`]).
pub const RESERVE_PRIORITY: u8 = 5;

/// Tunables for link-level flow control. All runtime-retunable via
/// `ParamsSet` `flow.*` keys on the executive device (`xcl qos`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlowConfig {
    /// Data frames a peer may have in flight toward us (granted
    /// beyond our cumulative consumed count).
    pub window: u32,
    /// Withhold grants while the local scheduler queue is at or above
    /// this depth — the receiver-side brake that actually asserts
    /// backpressure.
    pub high_watermark: usize,
    /// Sender behaviour when a lane is dry.
    pub policy: FlowPolicy,
    /// Credits of each window reserved for frames with priority at or
    /// above [`RESERVE_PRIORITY`]: bulk traffic is refused once a
    /// lane's headroom drops to this reserve, so high-priority tenants
    /// keep moving while the link saturates.
    pub reserve: u32,
    /// Cadence of the flow tick (re-advertise grants, emit syncs)
    /// when link supervision is not running; with supervision on, the
    /// flow tick rides the heartbeat timer instead.
    pub tick: Duration,
}

impl Default for FlowConfig {
    fn default() -> FlowConfig {
        FlowConfig {
            window: 64,
            high_watermark: 1024,
            policy: FlowPolicy::FailFast,
            reserve: 4,
            tick: Duration::from_millis(100),
        }
    }
}

impl FlowConfig {
    /// Re-grant once consumption advanced this far past the last
    /// advertisement (grant coalescing): half the window, so a
    /// retuned window never outruns its own re-grants.
    pub fn replenish(&self) -> u32 {
        (self.window / 2).max(1)
    }

    /// Applies one `flow.*` runtime parameter to this copy. A
    /// `ParamsSet` stages every key into a copy and commits it only
    /// once [`FlowConfig::validate`] accepts the result.
    pub fn apply_param(&mut self, key: &str, value: &str) -> Result<(), String> {
        let bad = || format!("bad value {key}={value}");
        match key {
            "flow.window" => self.window = value.parse().map_err(|_| bad())?,
            "flow.watermark" => self.high_watermark = value.parse().map_err(|_| bad())?,
            "flow.reserve" => self.reserve = value.parse().map_err(|_| bad())?,
            "flow.policy" => match value {
                "fail" => self.policy = FlowPolicy::FailFast,
                "block" => {
                    if !matches!(self.policy, FlowPolicy::Block { .. }) {
                        self.policy = FlowPolicy::Block {
                            deadline: Duration::from_millis(100),
                        };
                    }
                }
                _ => return Err(bad()),
            },
            "flow.deadline_ms" => {
                let ms: u64 = value.parse().map_err(|_| bad())?;
                self.policy = FlowPolicy::Block {
                    deadline: Duration::from_millis(ms),
                };
            }
            "flow.tick_ms" => {
                let ms: u64 = value.parse().map_err(|_| bad())?;
                self.tick = Duration::from_millis(ms.max(1));
            }
            _ => return Err(format!("unknown flow parameter '{key}'")),
        }
        Ok(())
    }

    /// Refuses a configuration that would wedge a link: a zero window
    /// grants nothing beyond `seen`, and a reserve that fills the
    /// window leaves no credit for frames below [`RESERVE_PRIORITY`].
    pub fn validate(&self) -> Result<(), String> {
        if self.window == 0 {
            return Err("flow.window must be at least 1".to_string());
        }
        if self.reserve >= self.window {
            return Err(format!(
                "flow.reserve={} must be below flow.window={}",
                self.reserve, self.window
            ));
        }
        Ok(())
    }
}

/// A flow-protocol frame the executive must put on the wire on behalf
/// of the [`CreditManager`] (which is clock-free and does no I/O).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FlowCmd {
    /// Send `UtilFn::CreditGrant` to `peer`.
    Grant {
        /// Destination link.
        peer: PeerAddr,
        /// Receiver-lane epoch.
        epoch: u64,
        /// Cumulative granted total (`seen + window`).
        total: u64,
    },
    /// Send `UtilFn::CreditSync` to `peer`.
    Sync {
        /// Destination link.
        peer: PeerAddr,
        /// Sender-lane epoch (last adopted from a grant).
        epoch: u64,
        /// Cumulative data frames sent on this lane.
        total: u64,
    },
}

/// Outbound credit state toward one peer.
#[derive(Debug, Default, Clone)]
struct SenderLane {
    /// False until the first grant arrives; unmetered lanes send
    /// freely (bring-up, or the peer has flow control disabled).
    metered: bool,
    /// Epoch adopted from the most recent grant.
    epoch: u64,
    /// Cumulative granted total (max over grants within the epoch).
    granted: u64,
    /// Cumulative data frames sent (counted even while unmetered, so
    /// the first grant — which is derived from the receiver's view of
    /// those sends — lines up without a reset).
    sent: u64,
}

impl SenderLane {
    fn available(&self) -> u64 {
        self.granted.saturating_sub(self.sent)
    }
}

/// Inbound credit state from one peer.
#[derive(Debug, Clone)]
struct ReceiverLane {
    /// Bumped on link Down→Up so stale grants cannot leak credits
    /// across re-establishment.
    epoch: u64,
    /// Cumulative data frames ingested from this peer (healed upward
    /// by `CreditSync` when the wire ate some).
    seen: u64,
    /// Cumulative total last advertised; 0 means not yet advertised
    /// this epoch.
    granted_total: u64,
}

impl Default for ReceiverLane {
    fn default() -> ReceiverLane {
        ReceiverLane {
            epoch: 1,
            seen: 0,
            granted_total: 0,
        }
    }
}

/// Per-node credit ledger for every peer link, in both roles.
pub struct CreditManager {
    config: RwLock<FlowConfig>,
    senders: Mutex<HashMap<PeerAddr, SenderLane>>,
    receivers: Mutex<HashMap<PeerAddr, ReceiverLane>>,
    counters: FlowCounters,
}

impl CreditManager {
    /// A manager with standalone counters (tests).
    pub fn new(config: FlowConfig) -> CreditManager {
        CreditManager {
            config: RwLock::new(config),
            senders: Mutex::new(HashMap::new()),
            receivers: Mutex::new(HashMap::new()),
            counters: FlowCounters::new(),
        }
    }

    /// A manager whose counters surface in `registry` under `flow.*`.
    pub fn bound_to(config: FlowConfig, registry: &Registry) -> CreditManager {
        CreditManager {
            config: RwLock::new(config),
            senders: Mutex::new(HashMap::new()),
            receivers: Mutex::new(HashMap::new()),
            counters: FlowCounters::bound_to(registry),
        }
    }

    /// Current tunables.
    pub fn config(&self) -> FlowConfig {
        self.config.read().clone()
    }

    /// Flow counters (grants, syncs, waits, failures).
    pub fn counters(&self) -> &FlowCounters {
        &self.counters
    }

    /// Replaces the tunables (a `ParamsSet` commits its validated,
    /// staged copy here).
    pub fn set_config(&self, config: FlowConfig) {
        *self.config.write() = config;
    }

    // ---- sender role -----------------------------------------------------

    /// Tries to take one credit toward `peer` for a frame of
    /// `priority` (0..=6). Returns `false` when the lane is metered
    /// and dry — or, for sub-reserve priorities, when only the
    /// reserved slice is left.
    pub fn try_acquire(&self, peer: &PeerAddr, priority: u8) -> bool {
        let cfg = self.config.read().clone();
        let mut lanes = self.senders.lock();
        let lane = lanes.entry(peer.clone()).or_default();
        if lane.metered {
            let needed = if priority >= RESERVE_PRIORITY {
                1
            } else {
                u64::from(cfg.reserve) + 1
            };
            if lane.available() < needed {
                return false;
            }
        }
        lane.sent += 1;
        true
    }

    /// Returns one credit after a transport send failed with the
    /// frame handed back: nothing reached the wire, so the receiver
    /// will never count it.
    pub fn refund(&self, peer: &PeerAddr) {
        if let Some(lane) = self.senders.lock().get_mut(peer) {
            lane.sent = lane.sent.saturating_sub(1);
        }
    }

    /// Applies an inbound `CreditGrant` from `peer`.
    pub fn on_grant(&self, peer: &PeerAddr, epoch: u64, total: u64) {
        self.counters.grants_recv.inc();
        let mut lanes = self.senders.lock();
        let lane = lanes.entry(peer.clone()).or_default();
        if !lane.metered {
            // First grant: the receiver's total already accounts for
            // every unmetered frame it saw from us, and `sent` counted
            // them too — adopt without resetting.
            lane.metered = true;
            lane.epoch = epoch;
            lane.granted = total;
        } else if epoch == lane.epoch {
            lane.granted = lane.granted.max(total);
        } else if epoch > lane.epoch {
            // New link incarnation: the receiver's consumed count
            // restarted from zero, so ours must too. Stale credits
            // from the old epoch die here.
            lane.epoch = epoch;
            lane.granted = total;
            lane.sent = 0;
        }
        // epoch < lane.epoch: a straggler from a dead incarnation —
        // ignored, so stale grants can never resurrect credit.
    }

    /// Credits currently available toward `peer`; `None` while the
    /// lane is unmetered (infinite for sending purposes).
    pub fn available(&self, peer: &PeerAddr) -> Option<u64> {
        self.senders
            .lock()
            .get(peer)
            .filter(|l| l.metered)
            .map(|l| l.available())
    }

    // ---- receiver role ---------------------------------------------------

    /// Accounts one ingested data frame from `peer`. `queued` is the
    /// local scheduler depth, used as the headroom gate. Returns a
    /// grant to send back when the lane is new or consumption crossed
    /// the replenish threshold.
    pub fn on_data(&self, peer: &PeerAddr, queued: usize) -> Option<FlowCmd> {
        let cfg = self.config.read().clone();
        let mut lanes = self.receivers.lock();
        let lane = lanes.entry(peer.clone()).or_default();
        lane.seen += 1;
        Self::maybe_grant(&self.counters, &cfg, peer, lane, queued, false)
    }

    /// Applies an inbound `CreditSync` from `peer` and re-grants
    /// immediately when possible — the peer only syncs when stalled.
    pub fn on_sync(
        &self,
        peer: &PeerAddr,
        epoch: u64,
        total: u64,
        queued: usize,
    ) -> Option<FlowCmd> {
        self.counters.syncs_recv.inc();
        let cfg = self.config.read().clone();
        let mut lanes = self.receivers.lock();
        let lane = lanes.entry(peer.clone()).or_default();
        if epoch == lane.epoch {
            // Frames the wire ate still spent sender credits; adopt
            // the sender's count so the window cannot wedge shut.
            lane.seen = lane.seen.max(total);
        } else if epoch > lane.epoch {
            // The sender is ahead — we lost our lane state (restart
            // without a detected Down). Epochs are monotone across
            // both sides: adopt theirs so our next grant is applied.
            lane.epoch = epoch;
            lane.seen = total;
            lane.granted_total = 0;
        }
        // epoch < lane.epoch: no accounting, but the forced grant
        // below re-advertises the current epoch, which upgrades the
        // sender's lane.
        Self::maybe_grant(&self.counters, &cfg, peer, lane, queued, true)
    }

    /// Shared grant decision. `force` re-advertises even below the
    /// replenish threshold (sync handling, periodic tick).
    fn maybe_grant(
        counters: &FlowCounters,
        cfg: &FlowConfig,
        peer: &PeerAddr,
        lane: &mut ReceiverLane,
        queued: usize,
        force: bool,
    ) -> Option<FlowCmd> {
        if queued >= cfg.high_watermark {
            counters.grants_withheld.inc();
            return None;
        }
        let target = lane.seen + u64::from(cfg.window);
        let fresh = lane.granted_total == 0; // bring-up advertisement
        let due = target.saturating_sub(lane.granted_total) >= u64::from(cfg.replenish());
        if fresh || due || force {
            lane.granted_total = target.max(lane.granted_total);
            counters.grants_sent.inc();
            return Some(FlowCmd::Grant {
                peer: peer.clone(),
                epoch: lane.epoch,
                total: lane.granted_total,
            });
        }
        None
    }

    // ---- shared ----------------------------------------------------------

    /// Periodic flow maintenance: re-advertises grants for every
    /// receiver lane with headroom (healing dropped grants) and emits
    /// syncs for stalled sender lanes (healing dropped data frames).
    pub fn tick(&self, queued: usize) -> Vec<FlowCmd> {
        let cfg = self.config.read().clone();
        let mut cmds = Vec::new();
        {
            let mut lanes = self.receivers.lock();
            for (peer, lane) in lanes.iter_mut() {
                if let Some(cmd) = Self::maybe_grant(&self.counters, &cfg, peer, lane, queued, true)
                {
                    cmds.push(cmd);
                }
            }
        }
        {
            let lanes = self.senders.lock();
            for (peer, lane) in lanes.iter() {
                if lane.metered && lane.available() <= u64::from(cfg.reserve) {
                    self.counters.syncs_sent.inc();
                    cmds.push(FlowCmd::Sync {
                        peer: peer.clone(),
                        epoch: lane.epoch,
                        total: lane.sent,
                    });
                }
            }
        }
        cmds
    }

    /// Link Down: forget sender credits (the lane restarts unmetered)
    /// and bump the receiver epoch so grants from the old incarnation
    /// cannot resurrect stale credit.
    pub fn on_link_down(&self, peer: &PeerAddr) {
        self.senders.lock().remove(peer);
        if let Some(lane) = self.receivers.lock().get_mut(peer) {
            lane.epoch += 1;
            lane.seen = 0;
            lane.granted_total = 0;
        }
    }

    /// Per-link state for `MonSnapshot` scrapes.
    pub fn snapshot(&self) -> serde_json::Value {
        let cfg = self.config.read().clone();
        let mut per_link: std::collections::BTreeMap<String, serde_json::Map> =
            std::collections::BTreeMap::new();
        for (peer, lane) in self.senders.lock().iter() {
            per_link.entry(peer.to_string()).or_default().insert(
                "tx".to_string(),
                serde_json::json!({
                    "metered": lane.metered,
                    "epoch": lane.epoch,
                    "granted": lane.granted,
                    "sent": lane.sent,
                    "available": lane.available(),
                }),
            );
        }
        for (peer, lane) in self.receivers.lock().iter() {
            per_link.entry(peer.to_string()).or_default().insert(
                "rx".to_string(),
                serde_json::json!({
                    "epoch": lane.epoch,
                    "seen": lane.seen,
                    "granted_total": lane.granted_total,
                }),
            );
        }
        let mut links = serde_json::Map::new();
        for (peer, obj) in per_link {
            links.insert(peer, serde_json::Value::Object(obj));
        }
        serde_json::json!({
            "window": cfg.window,
            "replenish": cfg.replenish(),
            "watermark": cfg.high_watermark,
            "reserve": cfg.reserve,
            "reserve_priority": RESERVE_PRIORITY,
            "policy": match cfg.policy {
                FlowPolicy::FailFast => serde_json::json!("fail"),
                FlowPolicy::Block { deadline } =>
                    serde_json::json!(format!("block:{}ms", deadline.as_millis())),
            },
            "links": serde_json::Value::Object(links),
        })
    }
}

/// True when an encoded frame consumes link credits: a private frame
/// without the CONTROL flag. Utility/executive frames — heartbeats,
/// grants, supervision — ride the reserved control lane.
pub fn is_data_frame(buf: &[u8]) -> bool {
    buf.len() > 7
        && buf[7] == PRIVATE_FUNCTION
        && !MsgFlags::from_bits(buf[1]).contains(MsgFlags::CONTROL)
}

/// Scheduling priority (0..=6) of an encoded frame.
pub fn frame_priority(buf: &[u8]) -> u8 {
    if buf.len() > 1 {
        MsgFlags::from_bits(buf[1]).priority().level()
    } else {
        0
    }
}

/// Encodes a credit frame payload: epoch then cumulative total,
/// little-endian.
fn encode_credit_payload(epoch: u64, total: u64) -> [u8; 16] {
    let mut p = [0u8; 16];
    p[..8].copy_from_slice(&epoch.to_le_bytes());
    p[8..].copy_from_slice(&total.to_le_bytes());
    p
}

/// Decodes a credit frame payload; `None` if truncated.
fn decode_credit_payload(p: &[u8]) -> Option<(u64, u64)> {
    if p.len() < 16 {
        return None;
    }
    let epoch = u64::from_le_bytes(p[..8].try_into().ok()?);
    let total = u64::from_le_bytes(p[8..16].try_into().ok()?);
    Some((epoch, total))
}

/// The credit protocol's wire side: the executive hands every frame
/// arriving from a peer to [`ExecCore::flow_ingest`] and calls
/// [`ExecCore::flow_tick`] from the PTA timer slot.
impl ExecCore {
    /// Grants and syncs are consumed right here at ingest, never queued
    /// — the reserved control lane. A blocked dispatch loop or a
    /// saturated scheduler queue can therefore never delay, shed or
    /// deadlock credit replenishment. Inbound private data frames
    /// account against the receiver lane and may trigger a
    /// replenishing grant back to the sender. Returns true when the
    /// frame was a credit frame and has been consumed.
    pub(crate) fn flow_ingest(&self, header: &MsgHeader, frame: &[u8], src: &PeerAddr) -> bool {
        let Some(mgr) = &self.flow else { return false };
        match header.function_code() {
            FunctionCode::Util(f @ (UtilFn::CreditGrant | UtilFn::CreditSync)) => {
                let Some((epoch, total)) = decode_credit_payload(&frame[HEADER_LEN..]) else {
                    return true;
                };
                if f == UtilFn::CreditGrant {
                    mgr.on_grant(src, epoch, total);
                } else if let Some(cmd) = mgr.on_sync(src, epoch, total, self.queued()) {
                    self.send_flow_cmd(cmd);
                }
                true
            }
            FunctionCode::Private if !header.flags.contains(MsgFlags::CONTROL) => {
                if let Some(cmd) = mgr.on_data(src, self.queued()) {
                    self.send_flow_cmd(cmd);
                }
                false
            }
            _ => false,
        }
    }

    /// Periodic flow maintenance, driven from the supervision/PTA
    /// timer slot: re-advertise receiver windows (heals lost grants)
    /// and nudge stalled metered senders with a sync.
    pub(crate) fn flow_tick(&self) {
        let Some(mgr) = &self.flow else { return };
        for cmd in mgr.tick(self.queued()) {
            self.send_flow_cmd(cmd);
        }
    }

    /// Emits one credit-protocol frame (grant or sync) straight to the
    /// peer transport. Utility function codes are never metered by the
    /// credit gate, so grants flow even when the data lane is
    /// exhausted.
    fn send_flow_cmd(&self, cmd: FlowCmd) {
        let (peer, func, epoch, total) = match cmd {
            FlowCmd::Grant { peer, epoch, total } => (peer, UtilFn::CreditGrant, epoch, total),
            FlowCmd::Sync { peer, epoch, total } => (peer, UtilFn::CreditSync, epoch, total),
        };
        let msg = Message::util(Tid::EXECUTIVE, Tid::EXECUTIVE, func)
            .priority(Priority::MAX)
            .payload(encode_credit_payload(epoch, total).to_vec())
            .finish();
        if let Ok(d) = Delivery::from_message(&msg, self.allocator()) {
            let _ = self.pta.send(&peer, d.into_buf());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn peer() -> PeerAddr {
        "loop://b".parse().unwrap()
    }

    fn cfg(window: u32) -> FlowConfig {
        FlowConfig {
            window,
            ..FlowConfig::default()
        }
    }

    #[test]
    fn unmetered_until_first_grant() {
        let m = CreditManager::new(cfg(4));
        for _ in 0..100 {
            assert!(m.try_acquire(&peer(), 0), "bring-up must not block");
        }
        assert_eq!(m.available(&peer()), None);
        m.on_grant(&peer(), 1, 104);
        assert_eq!(m.available(&peer()), Some(4));
    }

    #[test]
    fn metered_lane_exhausts_and_replenishes() {
        let m = CreditManager::new(cfg(4));
        m.on_grant(&peer(), 1, 4);
        for _ in 0..4 {
            assert!(m.try_acquire(&peer(), 6));
        }
        assert!(!m.try_acquire(&peer(), 6), "window spent");
        m.on_grant(&peer(), 1, 8);
        assert!(m.try_acquire(&peer(), 6));
    }

    #[test]
    fn reserve_protects_high_priority() {
        let m = CreditManager::new(FlowConfig {
            window: 4,
            reserve: 2,
            ..FlowConfig::default()
        });
        m.on_grant(&peer(), 1, 4);
        // Bulk (priority 0) may only take down to the reserve: two of
        // the four credits, leaving the reserved pair untouched.
        assert!(m.try_acquire(&peer(), 0));
        assert!(m.try_acquire(&peer(), 0));
        assert!(!m.try_acquire(&peer(), 0), "reserve slice refused to bulk");
        // High priority dips into the reserve.
        assert!(m.try_acquire(&peer(), 6));
        assert!(m.try_acquire(&peer(), 6));
        assert!(!m.try_acquire(&peer(), 6), "window truly spent");
    }

    #[test]
    fn duplicate_and_reordered_grants_are_idempotent() {
        let m = CreditManager::new(cfg(8));
        m.on_grant(&peer(), 1, 8);
        m.on_grant(&peer(), 1, 16);
        m.on_grant(&peer(), 1, 8); // stale duplicate
        assert_eq!(m.available(&peer()), Some(16));
    }

    #[test]
    fn refund_returns_credit() {
        let m = CreditManager::new(cfg(2));
        m.on_grant(&peer(), 1, 2);
        assert!(m.try_acquire(&peer(), 6));
        assert!(m.try_acquire(&peer(), 6));
        assert!(!m.try_acquire(&peer(), 6));
        m.refund(&peer());
        assert!(m.try_acquire(&peer(), 6));
    }

    #[test]
    fn receiver_grants_on_bringup_and_replenish() {
        let m = CreditManager::new(cfg(8));
        let first = m.on_data(&peer(), 0).expect("bring-up grant");
        assert_eq!(
            first,
            FlowCmd::Grant {
                peer: peer(),
                epoch: 1,
                total: 9
            }
        );
        // Below the replenish threshold (window/2 = 4): coalesced.
        assert!(m.on_data(&peer(), 0).is_none());
        assert!(m.on_data(&peer(), 0).is_none());
        assert!(m.on_data(&peer(), 0).is_none());
        assert!(m.on_data(&peer(), 0).is_some(), "threshold crossed");
    }

    #[test]
    fn watermark_withholds_grants() {
        let m = CreditManager::new(FlowConfig {
            window: 4,
            high_watermark: 1,
            ..FlowConfig::default()
        });
        assert!(m.on_data(&peer(), 5).is_none(), "no headroom, no grant");
        assert_eq!(m.counters().grants_withheld.get(), 1);
        assert!(!m.tick(5).iter().any(|c| matches!(c, FlowCmd::Grant { .. })));
        // Headroom back: tick re-advertises.
        assert!(m.tick(0).iter().any(|c| matches!(c, FlowCmd::Grant { .. })));
    }

    #[test]
    fn sync_heals_lost_data_frames() {
        let m = CreditManager::new(cfg(8));
        m.on_data(&peer(), 0); // seen = 1
                               // Sender claims it sent 5; the 4 missing were eaten by the wire.
        let cmd = m.on_sync(&peer(), 1, 5, 0).expect("re-grant after sync");
        match cmd {
            FlowCmd::Grant { total, .. } => assert_eq!(total, 13, "5 seen + window 8"),
            other => panic!("expected grant, got {other:?}"),
        }
    }

    #[test]
    fn link_down_bumps_epoch_and_drops_credits() {
        let m = CreditManager::new(cfg(4));
        // Receiver side had granted into epoch 1.
        m.on_data(&peer(), 0);
        // Sender side was metered.
        m.on_grant(&peer(), 1, 4);
        m.on_link_down(&peer());
        assert_eq!(m.available(&peer()), None, "sender lane forgotten");
        let cmd = m.on_data(&peer(), 0).expect("new-epoch advertisement");
        match cmd {
            FlowCmd::Grant { epoch, total, .. } => {
                assert_eq!(epoch, 2);
                assert_eq!(total, 5, "fresh count: 1 seen + window");
            }
            other => panic!("expected grant, got {other:?}"),
        }
        // A stale epoch-1 grant must not resurrect credit semantics.
        m.on_grant(&peer(), 2, 4);
        m.on_grant(&peer(), 1, 1000);
        assert_eq!(m.available(&peer()), Some(4));
    }

    #[test]
    fn tick_syncs_stalled_sender() {
        let m = CreditManager::new(FlowConfig {
            window: 2,
            reserve: 0,
            ..FlowConfig::default()
        });
        m.on_grant(&peer(), 1, 2);
        assert!(m.try_acquire(&peer(), 6));
        assert!(m.try_acquire(&peer(), 6));
        let cmds = m.tick(0);
        assert!(
            cmds.iter()
                .any(|c| matches!(c, FlowCmd::Sync { total: 2, .. })),
            "dry lane must sync: {cmds:?}"
        );
    }

    #[test]
    fn frame_classification() {
        // Private, no CONTROL → data.
        let mut buf = [0u8; 20];
        buf[7] = PRIVATE_FUNCTION;
        assert!(is_data_frame(&buf));
        // Private with CONTROL → control lane.
        buf[1] = MsgFlags::CONTROL.bits();
        assert!(!is_data_frame(&buf));
        // Utility (heartbeat) → control lane.
        buf[1] = 0;
        buf[7] = 0x40;
        assert!(!is_data_frame(&buf));
        buf[1] = 0b1100_0000; // priority 6
        assert_eq!(frame_priority(&buf), 6);
    }

    #[test]
    fn credit_payload_roundtrip() {
        let p = encode_credit_payload(7, 123_456);
        assert_eq!(decode_credit_payload(&p), Some((7, 123_456)));
        assert_eq!(decode_credit_payload(&p[..15]), None);
    }

    #[test]
    fn params_retune() {
        let mut cfg = FlowConfig::default();
        cfg.apply_param("flow.window", "16").unwrap();
        cfg.apply_param("flow.policy", "block").unwrap();
        cfg.apply_param("flow.deadline_ms", "5").unwrap();
        assert_eq!(cfg.window, 16);
        assert_eq!(cfg.replenish(), 8, "replenish follows the window");
        assert_eq!(
            cfg.policy,
            FlowPolicy::Block {
                deadline: Duration::from_millis(5)
            }
        );
        assert!(cfg.apply_param("flow.window", "x").is_err());
        assert!(cfg.apply_param("flow.bogus", "1").is_err());
        assert!(cfg.apply_param("flow.replenish", "4").is_err());
        assert!(cfg.apply_param("flow.reserve_priority", "5").is_err());
        cfg.validate().unwrap();
        cfg.apply_param("flow.reserve", "16").unwrap();
        assert!(cfg.validate().is_err(), "reserve must stay below window");
        cfg.apply_param("flow.reserve", "0").unwrap();
        cfg.apply_param("flow.window", "0").unwrap();
        assert!(cfg.validate().is_err(), "zero window wedges the link");
    }
}
