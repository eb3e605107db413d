//! The event manager: event-id allocation and credit-based flow
//! control.
//!
//! One EVM runs per event-builder mesh. A `RUN` frame opens a run
//! epoch: the EVM `INVITE`s every builder unit, collects their
//! `CREDIT` grants, and then drives the fabric — each credit buys one
//! assignment, and an event is preceded by a `TRIGGER` to every readout
//! unit so the sources digitize it before the builder pulls. Builders
//! return credits with `DONE`; a finished event is cleared at the
//! sources so they drop their stored fragments, a discarded one is
//! re-queued (bounded by `max_reassign`) or counted lost.
//!
//! **Natural batching.** `on_private` and `on_util` only do their
//! accounting while their delivery reports [`Delivery::more_queued`] —
//! another private frame for the EVM waits right behind it. The
//! delivery with no private frame behind it, and every `on_timer`, then
//! runs one `pump`: it launches every event the available credits buy,
//! sending a `TRIGGER` per event and readout, collects the events per
//! builder, and ends with one `ASSIGN` per builder naming all of them. A burst of k
//! `DONE`s therefore costs one `ASSIGN`, not k; an idle system, where
//! every `DONE` arrives alone, sends exactly one frame per verb and
//! loses no latency. The deferral is bounded by the credits granted: no
//! `DONE` can arrive for an event that was never assigned. A utility
//! frame, an executive-class function or a standard reply queued next
//! never defers the pump, since the executive may answer it without an
//! upcall (the claim gate refuses another host's `ParamsSet`). One gap
//! stays: a private frame refused because the EVM is suspended settles
//! nothing, so a `DONE` that deferred to it waits for the next frame or
//! timer.
//!
//! A finished id waits in the pending-clear queue and rides the next
//! `TRIGGER` as its second `u64`; the ids no `TRIGGER` carried by the
//! end of the pump (run end, drain, no credit) go out as one `CLEAR`
//! vector per readout, so no clear is held between pumps. A `RUN` that
//! supersedes an unfinished one clears that run's triggered, unfinished
//! events the same way before it resets.
//!
//! Backpressure is structural: the EVM never has more events in flight
//! than the builders granted credits for, so a slow or stalled builder
//! throttles the trigger rate instead of overflowing queues — flow
//! control propagates source-ward.
//!
//! The EVM registers as the executive's fault listener
//! ([`xdaq_core::Dispatcher::watch_faults`]). When a builder's node
//! dies (`XFN_PEER_DOWN`), its credits are reclaimed and its in-flight
//! events re-queued for the survivors; the readout units still hold
//! those fragments (only a finished event is cleared), so nothing is
//! lost. Which builders a dead peer took with it comes from the routes
//! of their proxy TiDs ([`xdaq_core::Dispatcher::peer_of`]), read when
//! the mesh is resolved: the executive evicts those routes before it
//! reports the death.

use crate::{send_ids, u32_at, u64_at, xfn, DONE_BUILT, ORG_DAQ};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;
use xdaq_core::config::parse_kv;
use xdaq_core::listener::UtilOutcome;
use xdaq_core::xfn::XFN_PEER_DOWN;
use xdaq_core::{
    Delivery, Dispatcher, ExecError, FastMap, FastSet, I2oListener, PeerAddr, TimerId,
};
use xdaq_i2o::{DeviceClass, ReplyStatus, Tid, UtilFn, ORG_XDAQ};
use xdaq_mon::{Counter, Gauge, Registry};

/// Shared observable counters of one event manager: the one home of
/// the run's outcome (`xcl evb` reads it through the `ParamsGet`
/// mirror).
#[derive(Debug, Default)]
pub struct EvmStats {
    /// Trigger broadcasts issued (== events launched).
    pub triggered: AtomicU64,
    /// Events built and cleared.
    pub completed: AtomicU64,
    /// Events re-queued after a discard or a builder death.
    pub reassigned: AtomicU64,
    /// Events abandoned after `max_reassign` attempts.
    pub lost: AtomicU64,
    /// Set once `completed + lost` reaches the run target.
    pub run_done: AtomicBool,
}

/// One event manager.
///
/// Parameters:
/// * `readouts` — comma-separated device names of the readout units,
/// * `bus` — comma-separated device names of the builder units
///   (a remote builder's death is then reclaimed through the peer its
///   proxy routes to),
/// * `max_reassign` — reassignment attempts per event before it is
///   counted lost (default 3),
/// * `trigger_interval_us` — paced trigger source: fresh events are
///   launched at most one per interval, emulating a fixed-rate
///   physics trigger instead of free-running as fast as credits
///   return (default 0 = free-running). Re-assignments of already
///   triggered events are not paced.
pub struct EventManager {
    rus: Vec<Tid>,
    bus: Vec<Tid>,
    /// The peer each remote builder's proxy routes to, in `bus` order.
    bu_peers: Vec<(PeerAddr, Tid)>,
    max_reassign: u32,
    run: u64,
    /// Next event id — globally monotonic, never reset across runs:
    /// readout-unit stale-pull detection relies on ids only growing.
    next_event: u64,
    target: u64,
    launched: u64,
    finished: u64,
    credits: FastMap<Tid, u32>,
    dead: FastSet<Tid>,
    /// Builders being drained for a rolling restart: they keep their
    /// credits and finish their in-flight events, but `pick_bu` stops
    /// assigning them new ones. `evb.drain_inflight` (ParamsGet)
    /// reaches zero once a drained builder is idle.
    draining: FastSet<Tid>,
    rr: usize,
    /// Events awaiting (re)assignment. Re-queued events are already
    /// digitized at the sources; fresh ones get a TRIGGER first.
    queue: VecDeque<u64>,
    /// Finished events not yet cleared at the sources: each rides one
    /// `TRIGGER`, and the pump sends what is left as `CLEAR` vectors.
    clears: VecDeque<u64>,
    /// Per builder (aligned with `bus`), the events the running pump
    /// assigned to it: one `ASSIGN` each. Empty between pumps; the
    /// vectors are reused.
    batches: Vec<Vec<u64>>,
    assigned: FastMap<u64, Tid>,
    attempts: FastMap<u64, u32>,
    /// Trigger pacing (zero = free-running): fresh launches are capped
    /// at `trigger_budget`, which a periodic timer grows one event per
    /// `trigger_interval`.
    trigger_interval: Duration,
    trigger_budget: u64,
    trigger_timer: Option<TimerId>,
    stats: Arc<EvmStats>,
    configured: bool,
    metrics: EvmMetrics,
}

/// The manager's `evb.evm.*` counts and gauges: standalone from
/// [`EventManager::new`], bound to the node's registry when plugged.
/// `triggers` also counts re-triggers, so it is not
/// [`EvmStats::triggered`].
#[derive(Default)]
struct EvmMetrics {
    triggers: Counter,
    assigns: Counter,
    bu_down: Counter,
    credits: Gauge,
    inflight: Gauge,
    queued: Gauge,
}

impl EvmMetrics {
    fn bound_to(reg: &Registry) -> EvmMetrics {
        EvmMetrics {
            triggers: reg.counter("evb.evm.triggers"),
            assigns: reg.counter("evb.evm.assigns"),
            bu_down: reg.counter("evb.evm.bu_down"),
            credits: reg.gauge("evb.evm.credits"),
            inflight: reg.gauge("evb.evm.inflight"),
            queued: reg.gauge("evb.evm.queued"),
        }
    }
}

impl EventManager {
    /// Creates an unconfigured event manager.
    pub fn new() -> EventManager {
        EventManager {
            rus: Vec::new(),
            bus: Vec::new(),
            bu_peers: Vec::new(),
            max_reassign: 3,
            run: 0,
            next_event: 1,
            target: 0,
            launched: 0,
            finished: 0,
            credits: FastMap::default(),
            dead: FastSet::default(),
            draining: FastSet::default(),
            rr: 0,
            queue: VecDeque::new(),
            clears: VecDeque::new(),
            batches: Vec::new(),
            assigned: FastMap::default(),
            attempts: FastMap::default(),
            trigger_interval: Duration::ZERO,
            trigger_budget: 0,
            trigger_timer: None,
            stats: Arc::new(EvmStats::default()),
            configured: false,
            metrics: EvmMetrics::default(),
        }
    }

    /// Shared handle to the manager's counters.
    pub fn stats(&self) -> Arc<EvmStats> {
        self.stats.clone()
    }

    /// Resolves `readouts` and `bus`, and records the peer each
    /// builder's proxy routes to.
    fn resolve_mesh(&mut self, ctx: &Dispatcher<'_>) {
        fn split(list: &str) -> impl Iterator<Item = &str> {
            list.split(',').map(str::trim).filter(|n| !n.is_empty())
        }
        if let Some(names) = ctx.param("readouts") {
            self.rus = split(names).filter_map(|n| ctx.lookup(n)).collect();
        }
        if let Some(names) = ctx.param("bus") {
            self.bus.clear();
            self.bu_peers.clear();
            for bu in split(names).filter_map(|n| ctx.lookup(n)) {
                self.bus.push(bu);
                if let Some(peer) = ctx.peer_of(bu) {
                    self.bu_peers.push((peer, bu));
                }
            }
        }
        self.configured = true;
    }

    fn configure(&mut self, ctx: &Dispatcher<'_>) {
        if self.configured {
            return;
        }
        self.resolve_mesh(ctx);
        if let Some(v) = ctx.param("max_reassign").and_then(|s| s.parse().ok()) {
            self.max_reassign = v;
        }
        if let Some(v) = ctx
            .param("trigger_interval_us")
            .and_then(|s| s.parse().ok())
        {
            self.trigger_interval = Duration::from_micros(v);
        }
    }

    fn gauge_sync(&self) {
        let m = &self.metrics;
        m.credits
            .set(self.credits.values().map(|&c| c as i64).sum());
        m.inflight.set(self.assigned.len() as i64);
        m.queued.set(self.queue.len() as i64);
    }

    /// Sends `TRIGGER(event)` to every readout unit, with `clear` as a
    /// second `u64` when given.
    fn trigger(&self, ctx: &mut Dispatcher<'_>, event: u64, clear: Option<u64>) {
        let len = if clear.is_some() { 16 } else { 8 };
        for &ru in &self.rus {
            let _ = ctx.send_private_with(ru, ORG_DAQ, xfn::TRIGGER, len, |p| {
                p[..8].copy_from_slice(&event.to_le_bytes());
                if let Some(c) = clear {
                    p[8..].copy_from_slice(&c.to_le_bytes());
                }
            });
        }
    }

    fn on_run(&mut self, ctx: &mut Dispatcher<'_>, target: u64) {
        self.configure(ctx);
        // The superseded run's triggered, unfinished events would stay
        // stored at every source for good: nothing else names them
        // once the tables below are reset.
        let mut unfinished: Vec<u64> = self
            .assigned
            .keys()
            .chain(&self.queue)
            .chain(&self.clears)
            .copied()
            .collect();
        unfinished.sort_unstable();
        clear_at_sources(ctx, &self.rus, &unfinished);
        self.clears.clear();
        self.run += 1;
        self.target = target;
        self.launched = 0;
        self.finished = 0;
        self.queue.clear();
        self.assigned.clear();
        self.attempts.clear();
        self.credits.clear();
        self.dead.clear();
        self.draining.clear();
        self.rr = 0;
        self.stats.run_done.store(target == 0, Ordering::SeqCst);
        if let Some(t) = self.trigger_timer.take() {
            ctx.cancel_timer(t);
        }
        if !self.trigger_interval.is_zero() && target > 1 {
            // One event is launchable now; the rest arrive on the beat.
            self.trigger_budget = 1;
            self.trigger_timer = Some(ctx.start_periodic(self.trigger_interval));
        } else {
            self.trigger_budget = target;
        }
        for i in 0..self.bus.len() {
            let bu = self.bus[i];
            if self.invite(ctx, bu).is_err() {
                self.mark_dead(bu);
            }
        }
    }

    fn invite(&self, ctx: &mut Dispatcher<'_>, bu: Tid) -> Result<(), ExecError> {
        let run = self.run;
        ctx.send_private_with(bu, ORG_DAQ, xfn::INVITE, 8, |p| {
            p.copy_from_slice(&run.to_le_bytes())
        })
    }

    /// Settles what the handled deliveries left pending: assigns queued
    /// and fresh events while any builder has credits — a `TRIGGER` per
    /// event and readout as it is picked, then one `ASSIGN` per builder
    /// naming all of its events — and clears at the sources the
    /// finished ids no `TRIGGER` carried.
    fn pump(&mut self, ctx: &mut Dispatcher<'_>) {
        self.batches.resize_with(self.bus.len(), Vec::new);
        loop {
            while let Some((i, event)) = self.launch(ctx) {
                self.batches[i].push(event);
            }
            // A builder whose link refused its ASSIGN was declared dead
            // and its events re-queued: offer them to the survivors.
            if !self.send_assigns(ctx) {
                break;
            }
        }
        clear_at_sources(ctx, &self.rus, self.clears.make_contiguous());
        self.clears.clear();
        self.gauge_sync();
    }

    /// Picks the next queued or fresh event and a builder with credit
    /// for it, triggers it at every readout and books the assignment;
    /// returns the builder's index in `bus` and the event.
    fn launch(&mut self, ctx: &mut Dispatcher<'_>) -> Option<(usize, u64)> {
        if self.queue.is_empty()
            && (self.launched >= self.target || self.launched >= self.trigger_budget)
        {
            return None;
        }
        let i = self.pick_bu()?;
        let bu = self.bus[i];
        let (event, fresh) = match self.queue.pop_front() {
            Some(e) => (e, false),
            None => {
                let e = self.next_event;
                self.next_event += 1;
                self.launched += 1;
                (e, true)
            }
        };
        // Triggers are broadcast fire-and-forget, so a source that was
        // dead or partitioned when a fresh event launched never
        // digitized it — and no amount of re-pulling can conjure the
        // fragment. Re-broadcasting on every reassignment closes that
        // hole: `TRIGGER` is idempotent at the readout (the store is a
        // set, parked pulls are served on arrival), and an event is
        // only ever re-queued while unfinished, so no source can have
        // cleared it yet.
        let clear = self.clears.pop_front();
        self.trigger(ctx, event, clear);
        if fresh {
            self.stats.triggered.fetch_add(1, Ordering::Relaxed);
        }
        self.metrics.triggers.inc();
        *self.credits.get_mut(&bu).expect("picked with credit") -= 1;
        self.assigned.insert(event, bu);
        Some((i, event))
    }

    /// Sends each builder's batch as one `ASSIGN` (split only past the
    /// frame limit). Returns whether a builder was declared dead on the
    /// way, its events re-queued.
    fn send_assigns(&mut self, ctx: &mut Dispatcher<'_>) -> bool {
        let mut died = false;
        for i in 0..self.batches.len() {
            if self.batches[i].is_empty() {
                continue;
            }
            let bu = self.bus[i];
            let sent = send_ids(ctx, bu, xfn::ASSIGN, Some(self.run), &self.batches[i]).is_ok();
            let events = self.batches[i].len() as u64;
            self.batches[i].clear();
            if !sent {
                // The builder's link is gone: reclaim and re-queue.
                self.mark_dead(bu);
                died = true;
            } else {
                self.metrics.assigns.add(events);
            }
        }
        died
    }

    /// Round-robin over builders holding at least one credit; returns
    /// the builder's index in `bus`.
    fn pick_bu(&mut self) -> Option<usize> {
        if self.bus.is_empty() {
            return None;
        }
        for step in 0..self.bus.len() {
            let i = (self.rr + step) % self.bus.len();
            let bu = self.bus[i];
            if self.dead.contains(&bu) || self.draining.contains(&bu) {
                continue;
            }
            if self.credits.get(&bu).copied().unwrap_or(0) > 0 {
                self.rr = (i + 1) % self.bus.len();
                return Some(i);
            }
        }
        None
    }

    fn on_credit(&mut self, run: u64, count: u32, bu: Tid) {
        if run != self.run || self.dead.contains(&bu) {
            return;
        }
        *self.credits.entry(bu).or_insert(0) += count;
    }

    fn on_done(&mut self, run: u64, event: u64, status: u8, bu: Tid) {
        if run != self.run {
            return;
        }
        // Exactly-once completion accounting: only the current owner's
        // DONE counts; anything else is a duplicate from a reassigned
        // (or wrongly-declared-dead) builder.
        if self.assigned.get(&event) != Some(&bu) {
            return;
        }
        self.assigned.remove(&event);
        if !self.dead.contains(&bu) {
            *self.credits.entry(bu).or_insert(0) += 1;
        }
        if status == DONE_BUILT {
            self.finish(event, true);
        } else {
            let tries = self.attempts.entry(event).or_insert(0);
            *tries += 1;
            if *tries <= self.max_reassign {
                self.queue.push_back(event);
                self.stats.reassigned.fetch_add(1, Ordering::Relaxed);
            } else {
                self.finish(event, false);
            }
        }
    }

    /// Terminal accounting for one event: queue it for clearing at the
    /// sources, count it, and flip `run_done` when the run drains.
    fn finish(&mut self, event: u64, built: bool) {
        self.clears.push_back(event);
        self.attempts.remove(&event);
        self.finished += 1;
        let outcome = if built {
            &self.stats.completed
        } else {
            &self.stats.lost
        };
        outcome.fetch_add(1, Ordering::Relaxed);
        if self.finished >= self.target {
            self.stats.run_done.store(true, Ordering::SeqCst);
        }
    }

    /// Declares a builder dead: reclaims its credits and re-queues its
    /// in-flight events for the survivors (the next pump assigns them).
    fn mark_dead(&mut self, bu: Tid) {
        if !self.dead.insert(bu) {
            return;
        }
        self.credits.remove(&bu);
        self.draining.remove(&bu);
        self.metrics.bu_down.inc();
        let mut orphaned: Vec<u64> = self
            .assigned
            .iter()
            .filter(|(_, &owner)| owner == bu)
            .map(|(&e, _)| e)
            .collect();
        // Requeue in event order, not hash order: the simulator's
        // golden-trace replay (DESIGN.md §16) needs reclamation to be
        // deterministic run over run.
        orphaned.sort_unstable();
        for event in orphaned {
            self.assigned.remove(&event);
            self.queue.push_back(event);
            self.stats.reassigned.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Re-resolves the mesh from the (freshly updated) parameters —
    /// the control plane re-routes a respawned node's aliases and
    /// raises `evb.rescan=1`. Builders already
    /// holding a credits entry (live through the whole incident, even
    /// at zero credits) are *not* re-invited: a second INVITE to a
    /// live builder would double its credit grant. Everyone else —
    /// the respawned builder's fresh proxy in particular — gets an
    /// INVITE for the current run.
    fn rescan(&mut self, ctx: &mut Dispatcher<'_>) {
        self.resolve_mesh(ctx);
        self.dead.clear();
        self.draining.clear();
        let bus = &self.bus;
        self.credits.retain(|t, _| bus.contains(t));
        if self.target > 0 && !self.stats.run_done.load(Ordering::SeqCst) {
            for i in 0..self.bus.len() {
                let bu = self.bus[i];
                if self.credits.contains_key(&bu) {
                    continue;
                }
                if self.invite(ctx, bu).is_err() {
                    self.mark_dead(bu);
                }
            }
        }
    }

    fn on_peer_down(&mut self, payload: &[u8]) {
        let Ok(kv) = parse_kv(payload) else { return };
        let Some(peer) = kv.get("peer").and_then(|p| p.parse::<PeerAddr>().ok()) else {
            return;
        };
        for i in 0..self.bu_peers.len() {
            if self.bu_peers[i].0 == peer {
                let bu = self.bu_peers[i].1;
                self.mark_dead(bu);
            }
        }
    }

    /// The accounting half of a private frame; [`I2oListener::on_private`]
    /// settles afterwards.
    fn handle_private(&mut self, ctx: &mut Dispatcher<'_>, msg: &Delivery) {
        let Some(p) = msg.private else { return };
        let payload = msg.payload();
        if p.org_id == ORG_XDAQ {
            if p.x_function == XFN_PEER_DOWN {
                self.on_peer_down(payload);
            }
            return;
        }
        if p.org_id != ORG_DAQ {
            return;
        }
        let from = msg.header.initiator;
        match p.x_function {
            xfn::RUN => {
                if let Some(target) = u64_at(payload, 0) {
                    self.on_run(ctx, target);
                }
            }
            xfn::CREDIT => {
                if let (Some(run), Some(count)) = (u64_at(payload, 0), u32_at(payload, 8)) {
                    self.on_credit(run, count, from);
                }
            }
            xfn::DONE => {
                if let (Some(run), Some(event), Some(&status)) =
                    (u64_at(payload, 0), u64_at(payload, 8), payload.get(16))
                {
                    self.on_done(run, event, status, from);
                }
            }
            _ => {}
        }
    }

    /// Control verbs riding on `ParamsSet`:
    ///   `evb.drain=<name>`  stop assigning to that builder,
    ///   `evb.rescan=1`      re-resolve the mesh and invite builders
    ///                       that have no credit entry.
    /// Frames without control keys fall through to the default handler
    /// (plain parameter stores).
    fn control(&mut self, ctx: &mut Dispatcher<'_>, msg: &Delivery) -> UtilOutcome {
        let Ok(map) = parse_kv(msg.payload()) else {
            return UtilOutcome::Default;
        };
        if !map.contains_key("evb.drain") && !map.contains_key("evb.rescan") {
            return UtilOutcome::Default;
        }
        // Store every key first: a rescan in the same frame must
        // resolve against the freshly pushed `bus`.
        for (k, v) in &map {
            ctx.set_param(k, v);
        }
        if let Some(name) = map.get("evb.drain") {
            let Some(tid) = ctx.lookup(name) else {
                let _ = ctx.reply(msg, ReplyStatus::DeviceError, b"unknown builder");
                return UtilOutcome::Handled;
            };
            self.draining.insert(tid);
        }
        if map.get("evb.rescan").map(String::as_str) == Some("1") {
            self.rescan(ctx);
        }
        let _ = ctx.reply(msg, ReplyStatus::Success, &[]);
        UtilOutcome::Handled
    }

    /// Mirrors live state into the parameter map so the default
    /// `ParamsGet` reply carries it (the `xcl` `evb` command). Credits,
    /// in-flight and queued events are not mirrored: the
    /// `evb.evm.{credits,inflight,queued}` gauges are their home.
    fn mirror(&self, ctx: &mut Dispatcher<'_>) {
        ctx.set_param("evb.run", &self.run.to_string());
        ctx.set_param("evb.next_event", &self.next_event.to_string());
        ctx.set_param("evb.target", &self.target.to_string());
        ctx.set_param("evb.launched", &self.launched.to_string());
        ctx.set_param("evb.finished", &self.finished.to_string());
        ctx.set_param(
            "evb.completed",
            &self.stats.completed.load(Ordering::Relaxed).to_string(),
        );
        ctx.set_param(
            "evb.lost",
            &self.stats.lost.load(Ordering::Relaxed).to_string(),
        );
        ctx.set_param(
            "evb.reassigned",
            &self.stats.reassigned.load(Ordering::Relaxed).to_string(),
        );
        ctx.set_param("evb.bus", &self.bus.len().to_string());
        ctx.set_param("evb.bus_dead", &self.dead.len().to_string());
        ctx.set_param("evb.draining", &self.draining.len().to_string());
        let drain_inflight = self
            .assigned
            .values()
            .filter(|bu| self.draining.contains(bu))
            .count();
        ctx.set_param("evb.drain_inflight", &drain_inflight.to_string());
        ctx.set_param(
            "evb.run_done",
            if self.stats.run_done.load(Ordering::SeqCst) {
                "1"
            } else {
                "0"
            },
        );
    }
}

/// Sends `events` to every readout unit as one `CLEAR` vector (no frame
/// when there are none).
fn clear_at_sources(ctx: &mut Dispatcher<'_>, rus: &[Tid], events: &[u64]) {
    for &ru in rus {
        let _ = send_ids(ctx, ru, xfn::CLEAR, None, events);
    }
}

impl Default for EventManager {
    fn default() -> Self {
        Self::new()
    }
}

impl I2oListener for EventManager {
    fn class(&self) -> DeviceClass {
        DeviceClass::Application(ORG_DAQ)
    }

    fn plugged(&mut self, ctx: &mut Dispatcher<'_>) {
        ctx.watch_faults();
        self.metrics = EvmMetrics::bound_to(ctx.metrics());
    }

    /// Timer upcalls cannot see their delivery's queue state, so every
    /// one of them settles (at worst a batch leaves a turn early).
    fn on_timer(&mut self, ctx: &mut Dispatcher<'_>, id: TimerId) {
        if Some(id) == self.trigger_timer {
            self.trigger_budget += 1;
            if self.trigger_budget >= self.target {
                // Every event of the run has been paced out; stop
                // ticking so an idle manager arms no deadlines.
                ctx.cancel_timer(id);
                self.trigger_timer = None;
            }
        }
        self.pump(ctx);
    }

    fn on_private(&mut self, ctx: &mut Dispatcher<'_>, msg: Delivery) {
        self.handle_private(ctx, &msg);
        if !msg.more_queued() {
            self.pump(ctx);
        }
    }

    fn on_util(&mut self, ctx: &mut Dispatcher<'_>, f: UtilFn, msg: &Delivery) -> UtilOutcome {
        let outcome = if f == UtilFn::ParamsSet {
            self.control(ctx, msg)
        } else {
            UtilOutcome::Default
        };
        if !msg.more_queued() {
            self.pump(ctx);
        }
        if f == UtilFn::ParamsGet {
            self.mirror(ctx);
        }
        outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bu::BuilderUnit;
    use crate::ru::ReadoutUnit;
    use std::time::{Duration, Instant};
    use xdaq_core::{Executive, ExecutiveConfig};
    use xdaq_i2o::Message;

    /// Full single-executive mesh: 3 RU × 2 BU × 1 EVM + filter sink.
    struct Mesh {
        exec: Executive,
        evm_tid: Tid,
        evm: Arc<EvmStats>,
        bus: Vec<Tid>,
        received: Arc<parking_lot::Mutex<Vec<(Tid, u64)>>>,
    }

    impl Mesh {
        fn ids(&self) -> Vec<u64> {
            self.received.lock().iter().map(|&(_, id)| id).collect()
        }
    }

    /// Keeps each `EVENT` summary's builder and event id.
    struct FilterSink(Arc<parking_lot::Mutex<Vec<(Tid, u64)>>>);
    impl I2oListener for FilterSink {
        fn class(&self) -> DeviceClass {
            DeviceClass::Application(ORG_DAQ)
        }
        fn on_private(&mut self, _ctx: &mut Dispatcher<'_>, msg: Delivery) {
            if msg.private.map(|p| p.x_function) == Some(xfn::EVENT) {
                let id = u64_at(msg.payload(), 0).unwrap();
                self.0.lock().push((msg.header.initiator, id));
            }
        }
    }

    fn mesh(n_ru: usize, n_bu: usize) -> Mesh {
        let exec = Executive::new(ExecutiveConfig::named("mesh"));
        let received = Arc::new(parking_lot::Mutex::new(Vec::new()));
        exec.register("filter", Box::new(FilterSink(received.clone())), &[])
            .unwrap();
        let ru_names: Vec<String> = (0..n_ru).map(|i| format!("ru{i}")).collect();
        for (i, name) in ru_names.iter().enumerate() {
            exec.register(
                name,
                Box::new(ReadoutUnit::new()),
                &[
                    ("source_id", &i.to_string()),
                    ("sources", &n_ru.to_string()),
                    ("size", "128"),
                ],
            )
            .unwrap();
        }
        let bu_names: Vec<String> = (0..n_bu).map(|i| format!("bu{i}")).collect();
        let mut bus = Vec::new();
        for name in &bu_names {
            let bu = exec.register(
                name,
                Box::new(BuilderUnit::new()),
                &[
                    ("rus", &ru_names.join(",")),
                    ("filter", "filter"),
                    ("credits", "4"),
                    ("timeout_ms", "20"),
                    ("max_retries", "10"),
                ],
            );
            bus.push(bu.unwrap());
        }
        let evm = EventManager::new();
        let stats = evm.stats();
        let evm_tid = exec
            .register(
                "evm",
                Box::new(evm),
                &[
                    ("readouts", &ru_names.join(",")),
                    ("bus", &bu_names.join(",")),
                ],
            )
            .unwrap();
        exec.enable_all();
        Mesh {
            exec,
            evm_tid,
            evm: stats,
            bus,
            received,
        }
    }

    fn run_to_completion(m: &Mesh, target: u64) {
        // The flag may still be set from a previous run; clear it
        // before the RUN frame is posted so the wait loop below
        // can't exit on stale state.
        m.evm.run_done.store(false, Ordering::SeqCst);
        m.exec
            .post(
                Message::build_private(m.evm_tid, Tid::HOST, ORG_DAQ, xfn::RUN)
                    .payload(target.to_le_bytes().to_vec())
                    .finish(),
            )
            .unwrap();
        let deadline = Instant::now() + Duration::from_secs(30);
        while !m.evm.run_done.load(Ordering::SeqCst) && Instant::now() < deadline {
            m.exec.run_once();
        }
        assert!(m.evm.run_done.load(Ordering::SeqCst), "run stalled");
    }

    #[test]
    fn builds_a_full_run_without_loss() {
        let m = mesh(3, 2);
        run_to_completion(&m, 100);
        assert_eq!(m.evm.completed.load(Ordering::SeqCst), 100);
        assert_eq!(m.evm.lost.load(Ordering::SeqCst), 0);
        let mut ids = m.ids();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 100, "every event reached the filter once");
        // Both builders participated (credits spread the load): the
        // node-wide `evb.bu.built` cannot split them, the filter can.
        for bu in &m.bus {
            let built = m.received.lock().iter().filter(|(b, _)| b == bu).count();
            assert!(built > 0, "builder {bu} built nothing");
        }
        // Every event was cleared at the sources: the early ones on the
        // next TRIGGER, the run's last ones by plain CLEAR frames.
        while m.exec.run_once() > 0 {}
        let reg = m.exec.core().monitors().registry();
        assert_eq!(reg.gauge("evb.ru.store").get(), 0);
        assert!(reg.gauge("evb.ru.store").high_water() > 0);
    }

    #[test]
    fn event_ids_stay_monotonic_across_runs() {
        let m = mesh(2, 1);
        run_to_completion(&m, 10);
        let first = m.ids();
        run_to_completion(&m, 10);
        let all = m.ids();
        let second = &all[first.len()..];
        let max1 = first.iter().max().unwrap();
        assert!(
            second.iter().all(|e| e > max1),
            "second run reuses event ids"
        );
        assert_eq!(m.evm.completed.load(Ordering::SeqCst), 20);
    }

    /// The fragments one readout still stores: a `CLEAR` of an id no
    /// run uses makes that readout publish its store size, so the
    /// shared `evb.ru.store` gauge reads that readout alone.
    fn store_of(m: &Mesh, readout: &str) -> i64 {
        let ru = m.exec.core().lookup_name(readout).unwrap();
        m.exec
            .post(
                Message::build_private(ru, Tid::HOST, ORG_DAQ, xfn::CLEAR)
                    .payload(0u64.to_le_bytes().to_vec())
                    .finish(),
            )
            .unwrap();
        while m.exec.run_once() > 0 {}
        m.exec
            .core()
            .monitors()
            .registry()
            .gauge("evb.ru.store")
            .get()
    }

    /// A `RUN` that supersedes an unfinished one resets the manager's
    /// tables; the events the old run triggered and did not finish must
    /// be cleared at every source first, or their fragments stay stored
    /// for good.
    #[test]
    fn superseding_run_clears_the_old_runs_fragments() {
        let m = mesh(2, 1);
        m.exec
            .post(
                Message::build_private(m.evm_tid, Tid::HOST, ORG_DAQ, xfn::RUN)
                    .payload(1000u64.to_le_bytes().to_vec())
                    .finish(),
            )
            .unwrap();
        for _ in 0..3 {
            m.exec.run_once();
        }
        run_to_completion(&m, 10);
        while m.exec.run_once() > 0 {}
        for readout in ["ru0", "ru1"] {
            assert_eq!(store_of(&m, readout), 0, "{readout} leaks fragments");
        }
    }

    /// Records the event ids of every `ASSIGN` it receives.
    struct AssignSink(Arc<parking_lot::Mutex<Vec<u64>>>);
    impl I2oListener for AssignSink {
        fn class(&self) -> DeviceClass {
            DeviceClass::Application(ORG_DAQ)
        }
        fn on_private(&mut self, _ctx: &mut Dispatcher<'_>, msg: Delivery) {
            if msg.private.map(|p| p.x_function) == Some(xfn::ASSIGN) {
                self.0.lock().extend(crate::ids(&msg.payload()[8..]));
            }
        }
    }

    /// A `DONE` with a utility frame queued behind it for the manager
    /// must assign the next event, whether or not the utility frame
    /// reaches `on_util` — or the run stalls with the credit back and
    /// nothing in flight. The last input is a `ParamsSet` from the
    /// builder while the host holds the claim: the executive refuses it
    /// before any upcall.
    #[test]
    fn utility_frame_behind_a_done_settles_the_pending_pump() {
        let exec = Executive::new(ExecutiveConfig::named("mesh"));
        let assigned = Arc::new(parking_lot::Mutex::new(Vec::new()));
        let bu = exec
            .register("bu", Box::new(AssignSink(assigned.clone())), &[])
            .unwrap();
        let evm = EventManager::new();
        let stats = evm.stats();
        let evm = exec
            .register("evm", Box::new(evm), &[("bus", "bu")])
            .unwrap();
        exec.enable_all();
        let private = |f, payload: Vec<u8>| {
            Message::build_private(evm, bu, ORG_DAQ, f)
                .payload(payload)
                .finish()
        };
        let done = |event: u64| {
            let mut p = [1u64.to_le_bytes(), event.to_le_bytes()].concat();
            p.push(DONE_BUILT);
            private(xfn::DONE, p)
        };
        exec.post(private(xfn::RUN, 4u64.to_le_bytes().to_vec()))
            .unwrap();
        let credit = [1u64.to_le_bytes().as_slice(), &1u32.to_le_bytes()].concat();
        exec.post(private(xfn::CREDIT, credit)).unwrap();
        while exec.run_once() > 0 {}
        assert_eq!(*assigned.lock(), [1]);
        let set = |from| {
            Message::util(evm, from, UtilFn::ParamsSet)
                .payload(b"note=1\n".to_vec())
                .finish()
        };
        let utils = [
            Message::util(evm, Tid::HOST, UtilFn::ParamsGet).finish(),
            set(Tid::HOST),
            set(bu),
        ];
        for (event, util) in (1..).zip(utils) {
            if event == 3 {
                let claim = Message::util(evm, Tid::HOST, UtilFn::Claim).finish();
                exec.post(claim).unwrap();
                while exec.run_once() > 0 {}
            }
            let f = util.header.function_code();
            exec.post(done(event)).unwrap();
            exec.post(util).unwrap();
            while exec.run_once() > 0 {}
            let n = assigned.lock().len() as u64;
            assert_eq!(n, event + 1, "event {event}: {f:?} settled");
        }
        exec.post(done(4)).unwrap();
        while exec.run_once() > 0 {}
        assert_eq!(*assigned.lock(), [1, 2, 3, 4]);
        assert!(stats.run_done.load(Ordering::SeqCst));
        assert_eq!(stats.completed.load(Ordering::SeqCst), 4);
    }
}
