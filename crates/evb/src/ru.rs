//! Readout units: the data sources of the event builder.
//!
//! A `TRIGGER` from the event manager "digitizes" one fragment of the
//! event into the unit's local store. Builders *pull*: a `PULL` names
//! one or more events and each stored one is answered with its own
//! `FRAGMENT`; the store entry survives until the EVM clears the event —
//! as the second `u64` of a later `TRIGGER`, or in a `CLEAR` vector when
//! no trigger carried it — so a builder that dies mid-event can be
//! replaced and the survivor re-pulls the same fragments. A pulled
//! event whose `TRIGGER` has not landed yet (the two ride different
//! links) is parked and served the moment the trigger lands; one that
//! was already cleared is a stale re-pull and dropped.

use crate::fragment::{FragmentHeader, FRAGMENT_HEADER_LEN};
use crate::{ids, u64_at, xfn, ORG_DAQ};
use xdaq_core::{Delivery, Dispatcher, FastMap, FastSet, I2oListener};
use xdaq_i2o::{DeviceClass, Tid};
use xdaq_mon::{Counter, Gauge, Registry};

/// One readout unit.
///
/// Parameters:
/// * `source_id` — this unit's index among the sources,
/// * `sources` — total number of readout units,
/// * `size` — fragment payload bytes.
pub struct ReadoutUnit {
    source_id: u16,
    total_sources: u16,
    size: u32,
    /// Events digitized and not yet cleared. The payload itself is a
    /// deterministic pattern of (event, source), so the store holds
    /// only the id — regeneration on pull costs nothing and the store
    /// stays bounded by the EVM's trigger window.
    store: FastSet<u64>,
    /// Highest event id ever triggered (stale-pull detection).
    highest: Option<u64>,
    /// Pulls that arrived before their trigger: event → requesters.
    parked: FastMap<u64, Vec<Tid>>,
    configured: bool,
    metrics: RuMetrics,
}

/// The unit's `evb.ru.*` counts: standalone from [`ReadoutUnit::new`],
/// bound to the node's registry when plugged.
#[derive(Default)]
struct RuMetrics {
    triggers: Counter,
    fragments: Counter,
    stale_pulls: Counter,
    parked: Counter,
    store: Gauge,
}

impl RuMetrics {
    fn bound_to(reg: &Registry) -> RuMetrics {
        RuMetrics {
            triggers: reg.counter("evb.ru.triggers"),
            fragments: reg.counter("evb.ru.fragments"),
            stale_pulls: reg.counter("evb.ru.stale_pulls"),
            parked: reg.counter("evb.ru.parked_pulls"),
            store: reg.gauge("evb.ru.store"),
        }
    }
}

impl ReadoutUnit {
    /// Creates an unconfigured readout unit (parameters are read on
    /// first frame).
    pub fn new() -> ReadoutUnit {
        ReadoutUnit {
            source_id: 0,
            total_sources: 1,
            size: 1024,
            store: FastSet::default(),
            highest: None,
            parked: FastMap::default(),
            configured: false,
            metrics: RuMetrics::default(),
        }
    }

    fn configure(&mut self, ctx: &Dispatcher<'_>) {
        if self.configured {
            return;
        }
        if let Some(v) = ctx.param("source_id").and_then(|s| s.parse().ok()) {
            self.source_id = v;
        }
        if let Some(v) = ctx.param("sources").and_then(|s| s.parse().ok()) {
            self.total_sources = v;
        }
        if let Some(v) = ctx.param("size").and_then(|s| s.parse().ok()) {
            self.size = v;
        }
        self.configured = true;
    }

    fn send_fragment(&mut self, ctx: &mut Dispatcher<'_>, event: u64, dest: Tid) {
        let header = FragmentHeader {
            event_id: event,
            source_id: self.source_id,
            total_sources: self.total_sources,
            len: self.size,
        };
        // The fragment is produced once, in the block that travels.
        let len = FRAGMENT_HEADER_LEN + self.size as usize;
        let _ = ctx.send_private_with(dest, ORG_DAQ, xfn::FRAGMENT, len, |payload| {
            header.fill_payload(payload)
        });
        self.metrics.fragments.inc();
    }

    /// Answers one pulled event: serve it, drop a stale re-pull, or
    /// park a pull that overtook its trigger.
    fn serve(&mut self, ctx: &mut Dispatcher<'_>, event: u64, requester: Tid) {
        if self.store.contains(&event) {
            self.send_fragment(ctx, event, requester);
        } else if self.highest.is_some_and(|h| event <= h) {
            // Already cleared: the event finished elsewhere and this is
            // a stale re-pull crossing its completion.
            self.metrics.stale_pulls.inc();
        } else {
            self.parked.entry(event).or_default().push(requester);
            self.metrics.parked.inc();
        }
    }

    /// Drops a finished event's stored fragment and any parked pulls.
    fn clear(&mut self, event: u64) {
        self.store.remove(&event);
        self.parked.remove(&event);
    }

    fn store_changed(&self) {
        self.metrics.store.set(self.store.len() as i64);
    }
}

impl Default for ReadoutUnit {
    fn default() -> Self {
        Self::new()
    }
}

impl I2oListener for ReadoutUnit {
    fn class(&self) -> DeviceClass {
        DeviceClass::Application(ORG_DAQ)
    }

    fn plugged(&mut self, ctx: &mut Dispatcher<'_>) {
        self.metrics = RuMetrics::bound_to(ctx.metrics());
    }

    fn on_private(&mut self, ctx: &mut Dispatcher<'_>, msg: Delivery) {
        let Some(p) = msg.private else { return };
        if p.org_id != ORG_DAQ {
            return;
        }
        self.configure(ctx);
        let payload = msg.payload();
        match p.x_function {
            xfn::TRIGGER => {
                let Some(event) = u64_at(payload, 0) else {
                    return;
                };
                self.store.insert(event);
                self.highest = Some(self.highest.map_or(event, |h| h.max(event)));
                self.metrics.triggers.inc();
                if let Some(waiters) = self.parked.remove(&event) {
                    for dest in waiters {
                        self.send_fragment(ctx, event, dest);
                    }
                }
                if let Some(finished) = u64_at(payload, 8) {
                    self.clear(finished);
                }
                self.store_changed();
            }
            xfn::PULL => {
                let requester = msg.header.initiator;
                for event in ids(payload) {
                    self.serve(ctx, event, requester);
                }
            }
            xfn::CLEAR => {
                for event in ids(payload) {
                    self.clear(event);
                }
                self.store_changed();
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;
    use xdaq_core::{Executive, ExecutiveConfig};
    use xdaq_i2o::Message;

    struct Collector(Arc<AtomicU64>, Arc<parking_lot::Mutex<Vec<u64>>>);
    impl I2oListener for Collector {
        fn class(&self) -> DeviceClass {
            DeviceClass::Application(ORG_DAQ)
        }
        fn on_private(&mut self, _ctx: &mut Dispatcher<'_>, msg: Delivery) {
            if msg.private.map(|p| p.x_function) == Some(xfn::FRAGMENT) {
                let h = FragmentHeader::decode(msg.payload()).unwrap();
                assert!(h.verify_payload(msg.payload()));
                self.0.fetch_add(1, Ordering::SeqCst);
                self.1.lock().push(h.event_id);
            }
        }
    }

    fn send(exec: &Executive, ru: Tid, from: Tid, f: u16, event: u64) {
        exec.post(
            Message::build_private(ru, from, ORG_DAQ, f)
                .payload(event.to_le_bytes().to_vec())
                .finish(),
        )
        .unwrap();
    }

    #[allow(clippy::type_complexity)]
    fn harness() -> (
        Executive,
        Tid,
        Tid,
        Arc<AtomicU64>,
        Arc<parking_lot::Mutex<Vec<u64>>>,
    ) {
        let exec = Executive::new(ExecutiveConfig::named("n"));
        let count = Arc::new(AtomicU64::new(0));
        let ids = Arc::new(parking_lot::Mutex::new(Vec::new()));
        let bu = exec
            .register("bu", Box::new(Collector(count.clone(), ids.clone())), &[])
            .unwrap();
        let ru = exec
            .register(
                "ru",
                Box::new(ReadoutUnit::new()),
                &[("source_id", "0"), ("sources", "2"), ("size", "256")],
            )
            .unwrap();
        exec.enable_all();
        (exec, ru, bu, count, ids)
    }

    #[test]
    fn pull_after_trigger_serves_fragment_until_clear() {
        let (exec, ru, bu, count, _) = harness();
        send(&exec, ru, bu, xfn::TRIGGER, 5);
        send(&exec, ru, bu, xfn::PULL, 5);
        // Re-pull before clear: served again (builder retry).
        send(&exec, ru, bu, xfn::PULL, 5);
        send(&exec, ru, bu, xfn::CLEAR, 5);
        send(&exec, ru, bu, xfn::PULL, 5);
        while exec.run_once() > 0 {}
        assert_eq!(count.load(Ordering::SeqCst), 2, "stale pull unanswered");
    }

    #[test]
    fn trigger_carries_the_clear_of_a_finished_event() {
        let (exec, ru, bu, count, ids) = harness();
        send(&exec, ru, bu, xfn::TRIGGER, 5);
        // TRIGGER(6) with 5 in its second word: 6 stored, 5 dropped.
        let payload = [6u64.to_le_bytes(), 5u64.to_le_bytes()].concat();
        exec.post(
            Message::build_private(ru, bu, ORG_DAQ, xfn::TRIGGER)
                .payload(payload)
                .finish(),
        )
        .unwrap();
        send(&exec, ru, bu, xfn::PULL, 5);
        send(&exec, ru, bu, xfn::PULL, 6);
        while exec.run_once() > 0 {}
        assert_eq!(
            count.load(Ordering::SeqCst),
            1,
            "stale pull of 5 unanswered"
        );
        assert_eq!(*ids.lock(), vec![6]);
    }

    /// One `PULL` vector is answered id by id: stored ids are served,
    /// a cleared one is a stale re-pull, a not-yet-triggered one parks.
    #[test]
    fn pull_vector_serves_drops_or_parks_each_id() {
        let (exec, ru, bu, count, ids) = harness();
        send(&exec, ru, bu, xfn::TRIGGER, 5);
        send(&exec, ru, bu, xfn::TRIGGER, 6);
        let vector = |f, events: &[u64]| {
            let payload: Vec<u8> = events.iter().flat_map(|e| e.to_le_bytes()).collect();
            exec.post(
                Message::build_private(ru, bu, ORG_DAQ, f)
                    .payload(payload)
                    .finish(),
            )
            .unwrap();
        };
        vector(xfn::CLEAR, &[5]);
        vector(xfn::PULL, &[5, 6, 9]);
        while exec.run_once() > 0 {}
        assert_eq!(*ids.lock(), vec![6]);
        send(&exec, ru, bu, xfn::TRIGGER, 9);
        vector(xfn::CLEAR, &[6, 9]);
        vector(xfn::PULL, &[6, 9]);
        while exec.run_once() > 0 {}
        assert_eq!(count.load(Ordering::SeqCst), 2, "cleared ids unanswered");
        assert_eq!(*ids.lock(), vec![6, 9]);
    }

    #[test]
    fn early_pull_is_parked_until_the_trigger_lands() {
        let (exec, ru, bu, count, ids) = harness();
        send(&exec, ru, bu, xfn::PULL, 9);
        while exec.run_once() > 0 {}
        assert_eq!(count.load(Ordering::SeqCst), 0, "not yet digitized");
        send(&exec, ru, bu, xfn::TRIGGER, 9);
        while exec.run_once() > 0 {}
        assert_eq!(count.load(Ordering::SeqCst), 1);
        assert_eq!(*ids.lock(), vec![9]);
    }
}
