//! Builder units: the event assemblers.
//!
//! A builder grants buffer credits to the event manager (`CREDIT` in
//! answer to `INVITE`), receives `ASSIGN`s naming one event per credit
//! spent, and *pulls* the events' fragments from every readout unit:
//! one `PULL` per readout names every event of the `ASSIGN`. Fragments
//! land in the [`Assembler`] zero-copy and in any order; when the last
//! source of an event arrives the unit ships an `EVENT` summary to its
//! filter and returns the credit with `DONE`. Each event has its own
//! timeout riding the executive's timer wheel: when it expires, that
//! event's missing fragments are re-pulled (a one-id `PULL` per missing
//! source); after `max_retries` fruitless rounds the partial event is
//! discarded — every pool block recycles — and reported
//! `DONE_DISCARDED` so the event manager can reassign it.

use crate::assembler::{Assembler, Offer};
use crate::fragment::FragmentHeader;
use crate::{ids, send_ids, u64_at, xfn, DONE_BUILT, DONE_DISCARDED, ORG_DAQ};
use std::time::Duration;
use xdaq_core::{Delivery, Dispatcher, FastMap, I2oListener, TimerId};
use xdaq_i2o::{DeviceClass, Tid};
use xdaq_mon::{Counter, Gauge, Histogram, Registry};

/// One builder unit.
///
/// Parameters:
/// * `rus` — comma-separated device names of the readout units (proxy
///   aliases work); position in the list is the source index,
/// * `filter` — device name to ship `EVENT` summaries to (optional),
/// * `credits` — buffer credits granted per `INVITE` (default 8),
/// * `timeout_ms` — per-event reassembly timeout (default 50),
/// * `max_retries` — re-pull rounds before discarding (default 10).
pub struct BuilderUnit {
    /// Readout units by source index, each resolved when first pulled:
    /// a name not registered yet (a proxy added after this unit) is
    /// looked up again at the next pull rather than dropped, which
    /// would shift every later source onto the wrong unit.
    rus: Vec<(String, Option<Tid>)>,
    filter: Option<Tid>,
    credits: u32,
    timeout: Duration,
    max_retries: u32,
    evm: Option<Tid>,
    run: u64,
    assembler: Assembler,
    timers: FastMap<TimerId, u64>,
    /// The events one `ASSIGN` opened, reused from frame to frame.
    opened: Vec<u64>,
    configured: bool,
    metrics: BuMetrics,
}

/// The unit's `evb.bu.*` counts, each its one home: standalone from
/// [`BuilderUnit::new`], bound to the node's registry when plugged.
#[derive(Default)]
struct BuMetrics {
    assigned: Counter,
    built: Counter,
    discarded: Counter,
    repulls: Counter,
    duplicates: Counter,
    corrupt: Counter,
    stale: Counter,
    open: Gauge,
    latency: Histogram,
}

impl BuMetrics {
    fn bound_to(reg: &Registry) -> BuMetrics {
        BuMetrics {
            assigned: reg.counter("evb.bu.assigned"),
            built: reg.counter("evb.bu.built"),
            discarded: reg.counter("evb.bu.discarded"),
            repulls: reg.counter("evb.bu.repulls"),
            duplicates: reg.counter("evb.bu.duplicates"),
            corrupt: reg.counter("evb.bu.corrupt"),
            stale: reg.counter("evb.bu.stale"),
            open: reg.gauge("evb.bu.open"),
            latency: reg.histogram("evb.build_latency_ns"),
        }
    }
}

impl BuilderUnit {
    /// Creates an unconfigured builder unit.
    pub fn new() -> BuilderUnit {
        BuilderUnit {
            rus: Vec::new(),
            filter: None,
            credits: 8,
            timeout: Duration::from_millis(50),
            max_retries: 10,
            evm: None,
            run: 0,
            assembler: Assembler::new(),
            timers: FastMap::default(),
            opened: Vec::new(),
            configured: false,
            metrics: BuMetrics::default(),
        }
    }

    fn configure(&mut self, ctx: &Dispatcher<'_>) {
        if self.configured {
            return;
        }
        if let Some(names) = ctx.param("rus") {
            self.rus = names
                .split(',')
                .map(str::trim)
                .filter(|n| !n.is_empty())
                .map(|n| (n.to_string(), ctx.lookup(n)))
                .collect();
        }
        self.filter = ctx.param("filter").and_then(|n| ctx.lookup(n));
        if let Some(v) = ctx.param("credits").and_then(|s| s.parse().ok()) {
            self.credits = v;
        }
        if let Some(v) = ctx.param("timeout_ms").and_then(|s| s.parse().ok()) {
            self.timeout = Duration::from_millis(v);
        }
        if let Some(v) = ctx.param("max_retries").and_then(|s| s.parse().ok()) {
            self.max_retries = v;
        }
        self.configured = true;
    }

    fn arm_timer(&mut self, ctx: &mut Dispatcher<'_>, event: u64) {
        let id = ctx.start_timer(self.timeout);
        self.assembler.set_timer(event, id);
        self.timers.insert(id, event);
    }

    /// Sends one `PULL` naming `events` to each readout of `sources`.
    fn pull(
        &mut self,
        ctx: &mut Dispatcher<'_>,
        events: &[u64],
        sources: impl IntoIterator<Item = usize>,
    ) {
        for s in sources {
            let Some((name, tid)) = self.rus.get_mut(s) else {
                continue;
            };
            if tid.is_none() {
                *tid = ctx.lookup(name);
            }
            let Some(ru) = *tid else { continue };
            let _ = send_ids(ctx, ru, xfn::PULL, None, events);
        }
    }

    fn send_done(&mut self, ctx: &mut Dispatcher<'_>, event: u64, status: u8) {
        let Some(evm) = self.evm else { return };
        let run = self.run;
        let _ = ctx.send_private_with(evm, ORG_DAQ, xfn::DONE, 17, |p| {
            p[..8].copy_from_slice(&run.to_le_bytes());
            p[8..16].copy_from_slice(&event.to_le_bytes());
            p[16] = status;
        });
    }

    fn on_invite(&mut self, ctx: &mut Dispatcher<'_>, run: u64, evm: Tid) {
        self.run = run;
        self.evm = Some(evm);
        // A new run supersedes anything still in flight.
        for t in self.assembler.discard_all() {
            ctx.cancel_timer(t);
        }
        self.timers.clear();
        self.metrics.open.set(0);
        let credits = self.credits;
        let _ = ctx.send_private_with(evm, ORG_DAQ, xfn::CREDIT, 12, |p| {
            p[..8].copy_from_slice(&run.to_le_bytes());
            p[8..].copy_from_slice(&credits.to_le_bytes());
        });
    }

    fn on_assign(&mut self, ctx: &mut Dispatcher<'_>, run: u64, events: impl Iterator<Item = u64>) {
        if run != self.run {
            self.metrics.stale.inc();
            return;
        }
        let sources = self.rus.len().max(1);
        let mut opened = std::mem::take(&mut self.opened);
        for event in events {
            if self.assembler.begin(event, sources, ctx.now()) {
                opened.push(event);
            }
        }
        self.metrics.assigned.add(opened.len() as u64);
        self.metrics.open.set(self.assembler.len() as i64);
        self.pull(ctx, &opened, 0..sources);
        for &event in &opened {
            self.arm_timer(ctx, event);
        }
        opened.clear();
        self.opened = opened;
    }

    fn on_fragment(&mut self, ctx: &mut Dispatcher<'_>, msg: Delivery) {
        let Some(h) =
            FragmentHeader::decode(msg.payload()).filter(|h| h.verify_payload(msg.payload()))
        else {
            self.metrics.corrupt.inc();
            return;
        };
        let plen = msg.payload().len();
        let offer = self
            .assembler
            .offer(h.event_id, h.source_id as usize, (msg.into_buf(), plen));
        match offer {
            Offer::Stored => {}
            Offer::Duplicate => self.metrics.duplicates.inc(),
            Offer::Invalid => self.metrics.corrupt.inc(),
            // Never assigned here, or already complete/discarded — a
            // late answer to a pull that stopped mattering.
            Offer::Unknown => self.metrics.stale.inc(),
            Offer::Complete(done) => {
                if let Some(t) = done.timer {
                    ctx.cancel_timer(t);
                    self.timers.remove(&t);
                }
                let bytes = done.bytes() as u64;
                let event = done.event_id;
                self.metrics.built.inc();
                self.metrics.open.set(self.assembler.len() as i64);
                let took = ctx.now().saturating_duration_since(done.started);
                self.metrics.latency.record(took.as_nanos() as u64);
                // Every fragment block goes back to its pool here.
                self.assembler.recycle(done);
                if let Some(filter) = self.filter {
                    let _ = ctx.send_private_with(filter, ORG_DAQ, xfn::EVENT, 16, |p| {
                        p[..8].copy_from_slice(&event.to_le_bytes());
                        p[8..].copy_from_slice(&bytes.to_le_bytes());
                    });
                }
                self.send_done(ctx, event, DONE_BUILT);
            }
        }
    }
}

impl Default for BuilderUnit {
    fn default() -> Self {
        Self::new()
    }
}

impl I2oListener for BuilderUnit {
    fn class(&self) -> DeviceClass {
        DeviceClass::Application(ORG_DAQ)
    }

    fn plugged(&mut self, ctx: &mut Dispatcher<'_>) {
        self.metrics = BuMetrics::bound_to(ctx.metrics());
    }

    fn on_private(&mut self, ctx: &mut Dispatcher<'_>, msg: Delivery) {
        let Some(p) = msg.private else { return };
        if p.org_id != ORG_DAQ {
            return;
        }
        self.configure(ctx);
        match p.x_function {
            xfn::INVITE => {
                if let Some(run) = u64_at(msg.payload(), 0) {
                    let evm = msg.header.initiator;
                    self.on_invite(ctx, run, evm);
                }
            }
            xfn::ASSIGN => {
                let payload = msg.payload();
                if let Some(run) = u64_at(payload, 0) {
                    self.on_assign(ctx, run, ids(&payload[8..]));
                }
            }
            xfn::FRAGMENT => self.on_fragment(ctx, msg),
            _ => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut Dispatcher<'_>, id: TimerId) {
        let Some(event) = self.timers.remove(&id) else {
            return;
        };
        if !self.assembler.contains(event) {
            return;
        }
        if self.assembler.retries(event) >= self.max_retries {
            if let Some(t) = self.assembler.discard(event).flatten() {
                ctx.cancel_timer(t);
                self.timers.remove(&t);
            }
            self.metrics.discarded.inc();
            self.metrics.open.set(self.assembler.len() as i64);
            self.send_done(ctx, event, DONE_DISCARDED);
            return;
        }
        self.assembler.bump_retries(event);
        let missing = self.assembler.missing(event);
        self.metrics.repulls.add(missing.len() as u64);
        self.pull(ctx, &[event], missing);
        self.arm_timer(ctx, event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ru::ReadoutUnit;
    use parking_lot::Mutex;
    use std::sync::Arc;
    use std::time::Instant;
    use xdaq_core::{Executive, ExecutiveConfig};
    use xdaq_i2o::Message;

    /// Records EVENT (at a filter tid) and DONE (at an evm tid) frames.
    #[derive(Default)]
    struct Sink {
        events: Arc<Mutex<Vec<(u64, u64)>>>,
        dones: Arc<Mutex<Vec<(u64, u64, u8)>>>,
    }
    impl I2oListener for Sink {
        fn class(&self) -> DeviceClass {
            DeviceClass::Application(ORG_DAQ)
        }
        fn on_private(&mut self, _ctx: &mut Dispatcher<'_>, msg: Delivery) {
            match msg.private.map(|p| p.x_function) {
                Some(xfn::EVENT) => {
                    let id = u64_at(msg.payload(), 0).unwrap();
                    let bytes = u64_at(msg.payload(), 8).unwrap();
                    self.events.lock().push((id, bytes));
                }
                Some(xfn::DONE) => {
                    let run = u64_at(msg.payload(), 0).unwrap();
                    let ev = u64_at(msg.payload(), 8).unwrap();
                    let st = msg.payload()[16];
                    self.dones.lock().push((run, ev, st));
                }
                _ => {}
            }
        }
    }

    struct Rig {
        exec: Executive,
        bu: Tid,
        evm: Tid,
        events: Arc<Mutex<Vec<(u64, u64)>>>,
        dones: Arc<Mutex<Vec<(u64, u64, u8)>>>,
    }

    fn rig(timeout_ms: &str, max_retries: &str) -> Rig {
        let exec = Executive::new(ExecutiveConfig::named("n"));
        let sink = Sink::default();
        let (events, dones) = (sink.events.clone(), sink.dones.clone());
        let evm = exec.register("evm", Box::new(sink), &[]).unwrap();
        let filter = {
            let s = Sink {
                events: events.clone(),
                dones: dones.clone(),
            };
            exec.register("filter", Box::new(s), &[]).unwrap()
        };
        let _ = filter;
        for i in 0..2u16 {
            exec.register(
                &format!("ru{i}"),
                Box::new(ReadoutUnit::new()),
                &[
                    ("source_id", &i.to_string()),
                    ("sources", "2"),
                    ("size", "64"),
                ],
            )
            .unwrap();
        }
        let bu = exec
            .register(
                "bu",
                Box::new(BuilderUnit::new()),
                &[
                    ("rus", "ru0,ru1"),
                    ("filter", "filter"),
                    ("credits", "4"),
                    ("timeout_ms", timeout_ms),
                    ("max_retries", max_retries),
                ],
            )
            .unwrap();
        exec.enable_all();
        Rig {
            exec,
            bu,
            evm,
            events,
            dones,
        }
    }

    fn post(r: &Rig, to: Tid, from: Tid, f: u16, payload: Vec<u8>) {
        r.exec
            .post(
                Message::build_private(to, from, ORG_DAQ, f)
                    .payload(payload)
                    .finish(),
            )
            .unwrap();
    }

    fn assign(run: u64, event: u64) -> Vec<u8> {
        let mut p = run.to_le_bytes().to_vec();
        p.extend_from_slice(&event.to_le_bytes());
        p
    }

    #[test]
    fn builds_one_event_end_to_end() {
        let r = rig("1000", "10");
        post(&r, r.bu, r.evm, xfn::INVITE, 1u64.to_le_bytes().to_vec());
        // Digitize event 1 at both readout units, then assign it.
        for name in ["ru0", "ru1"] {
            let tid = r.exec.core().lookup_name(name).unwrap();
            post(&r, tid, r.evm, xfn::TRIGGER, 1u64.to_le_bytes().to_vec());
        }
        post(&r, r.bu, r.evm, xfn::ASSIGN, assign(1, 1));
        while r.exec.run_once() > 0 {}
        assert_eq!(r.events.lock().as_slice(), &[(1, 2 * (16 + 64))]);
        assert_eq!(r.dones.lock().as_slice(), &[(1, 1, DONE_BUILT)]);
    }

    #[test]
    fn repulls_until_trigger_arrives() {
        let r = rig("5", "50");
        post(&r, r.bu, r.evm, xfn::INVITE, 3u64.to_le_bytes().to_vec());
        // Assign before the readout units have digitized: the pulls
        // park, the timer re-pulls, and once TRIGGER lands it builds.
        post(&r, r.bu, r.evm, xfn::ASSIGN, assign(3, 9));
        while r.exec.run_once() > 0 {}
        assert!(r.events.lock().is_empty());
        for name in ["ru0", "ru1"] {
            let tid = r.exec.core().lookup_name(name).unwrap();
            post(&r, tid, r.evm, xfn::TRIGGER, 9u64.to_le_bytes().to_vec());
        }
        let deadline = Instant::now() + Duration::from_secs(5);
        while r.events.lock().is_empty() && Instant::now() < deadline {
            r.exec.run_once();
        }
        assert_eq!(r.events.lock().len(), 1);
        assert_eq!(r.dones.lock().as_slice(), &[(3, 9, DONE_BUILT)]);
    }

    #[test]
    fn discards_after_retry_budget_and_reports_it() {
        let r = rig("2", "1");
        post(&r, r.bu, r.evm, xfn::INVITE, 7u64.to_le_bytes().to_vec());
        post(&r, r.bu, r.evm, xfn::ASSIGN, assign(7, 4));
        let deadline = Instant::now() + Duration::from_secs(5);
        while r.dones.lock().is_empty() && Instant::now() < deadline {
            r.exec.run_once();
        }
        assert_eq!(r.dones.lock().as_slice(), &[(7, 4, DONE_DISCARDED)]);
        assert!(r.events.lock().is_empty());
    }

    /// A readout name that does not resolve when the builder configures
    /// keeps its source index: the builder waits for that source instead
    /// of shipping a one-fragment "event" for a two-source one.
    #[test]
    fn late_readout_keeps_its_source_index() {
        let exec = Executive::new(ExecutiveConfig::named("n"));
        let sink = Sink::default();
        let (events, dones) = (sink.events.clone(), sink.dones.clone());
        let evm = exec.register("evm", Box::new(sink), &[]).unwrap();
        let readout = |exec: &Executive, i: u16| {
            exec.register(
                &format!("ru{i}"),
                Box::new(ReadoutUnit::new()),
                &[
                    ("source_id", &i.to_string()),
                    ("sources", "2"),
                    ("size", "64"),
                ],
            )
            .unwrap()
        };
        let ru0 = readout(&exec, 0);
        let bu = exec
            .register(
                "bu",
                Box::new(BuilderUnit::new()),
                &[
                    ("rus", "ru0,ru1"),
                    ("filter", "evm"),
                    ("timeout_ms", "1000"),
                ],
            )
            .unwrap();
        exec.enable_all();
        let r = Rig {
            exec,
            bu,
            evm,
            events,
            dones,
        };
        // The builder configures on INVITE, before ru1 exists.
        post(&r, r.bu, r.evm, xfn::INVITE, 1u64.to_le_bytes().to_vec());
        while r.exec.run_once() > 0 {}
        let ru1 = readout(&r.exec, 1);
        r.exec.enable_all();
        for ru in [ru0, ru1] {
            post(&r, ru, r.evm, xfn::TRIGGER, 1u64.to_le_bytes().to_vec());
        }
        post(&r, r.bu, r.evm, xfn::ASSIGN, assign(1, 1));
        while r.exec.run_once() > 0 {}
        assert_eq!(r.events.lock().as_slice(), &[(1, 2 * (16 + 64))]);
        assert_eq!(r.dones.lock().as_slice(), &[(1, 1, DONE_BUILT)]);
    }

    /// One `ASSIGN` of three events while a readout name does not
    /// resolve yet: that readout gets no `PULL` vector at all, and each
    /// event still builds through its own timer's re-pull once the
    /// readout exists.
    #[test]
    fn every_event_of_an_assign_repulls_on_its_own_timer() {
        let exec = Executive::new(ExecutiveConfig::named("n"));
        let sink = Sink::default();
        let (events, dones) = (sink.events.clone(), sink.dones.clone());
        let evm = exec.register("evm", Box::new(sink), &[]).unwrap();
        let readout = |exec: &Executive, i: u16| {
            exec.register(
                &format!("ru{i}"),
                Box::new(ReadoutUnit::new()),
                &[
                    ("source_id", &i.to_string()),
                    ("sources", "2"),
                    ("size", "64"),
                ],
            )
            .unwrap()
        };
        let ru0 = readout(&exec, 0);
        let bu = exec
            .register(
                "bu",
                Box::new(BuilderUnit::new()),
                &[
                    ("rus", "ru0,ru1"),
                    ("filter", "evm"),
                    ("timeout_ms", "5"),
                    ("max_retries", "100"),
                ],
            )
            .unwrap();
        exec.enable_all();
        let r = Rig {
            exec,
            bu,
            evm,
            events,
            dones,
        };
        post(&r, r.bu, r.evm, xfn::INVITE, 1u64.to_le_bytes().to_vec());
        for event in 1..=3u64 {
            post(&r, ru0, r.evm, xfn::TRIGGER, event.to_le_bytes().to_vec());
        }
        let assign: Vec<u8> = [1u64, 1, 2, 3]
            .iter()
            .flat_map(|v| v.to_le_bytes())
            .collect();
        post(&r, r.bu, r.evm, xfn::ASSIGN, assign);
        while r.exec.run_once() > 0 {}
        assert!(r.dones.lock().is_empty(), "ru1's fragments are missing");
        let ru1 = readout(&r.exec, 1);
        r.exec.enable_all();
        for event in 1..=3u64 {
            post(&r, ru1, r.evm, xfn::TRIGGER, event.to_le_bytes().to_vec());
        }
        let deadline = Instant::now() + Duration::from_secs(5);
        while r.dones.lock().len() < 3 && Instant::now() < deadline {
            r.exec.run_once();
        }
        let mut dones = r.dones.lock().clone();
        dones.sort_unstable();
        assert_eq!(
            dones,
            [(1, 1, DONE_BUILT), (1, 2, DONE_BUILT), (1, 3, DONE_BUILT)]
        );
        assert_eq!(r.events.lock().len(), 3);
    }

    #[test]
    fn stale_run_assign_is_ignored() {
        let r = rig("1000", "10");
        post(&r, r.bu, r.evm, xfn::INVITE, 2u64.to_le_bytes().to_vec());
        post(&r, r.bu, r.evm, xfn::ASSIGN, assign(1, 5));
        while r.exec.run_once() > 0 {}
        assert!(r.events.lock().is_empty());
        assert!(r.dones.lock().iter().all(|d| d.0 != 1));
    }
}
