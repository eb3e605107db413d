//! The named-metric registry.
//!
//! Creation and lookup take a lock; the returned handles are `Arc`'d
//! atomics, so steady-state recording never touches the registry
//! again. Devices hoist their handles at plug time and record with
//! relaxed atomic ops from then on.

use crate::histogram::Histogram;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A monotonically increasing event count.
#[derive(Clone, Debug, Default)]
pub struct Counter {
    value: Arc<AtomicU64>,
}

impl Counter {
    /// A fresh zeroed counter (registry-less use is fine for tests).
    pub fn new() -> Counter {
        Counter::default()
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.value.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    /// Back to zero.
    pub fn reset(&self) {
        self.value.store(0, Ordering::Relaxed);
    }
}

/// An instantaneous level (queue depth, live blocks). Tracks its
/// high-water mark alongside the level.
#[derive(Clone, Debug, Default)]
pub struct Gauge {
    value: Arc<GaugeInner>,
}

#[derive(Debug, Default)]
struct GaugeInner {
    level: AtomicI64,
    high_water: AtomicI64,
}

impl Gauge {
    /// A fresh zeroed gauge.
    pub fn new() -> Gauge {
        Gauge::default()
    }

    /// Sets the level, updating the high-water mark. A gauge is set
    /// from the count it reports: a running delta would drift from that
    /// count after a [`Gauge::reset`]. The mark never falls between
    /// resets, so its locked read-modify-write runs only when `v`
    /// raises it.
    #[inline]
    pub fn set(&self, v: i64) {
        self.value.level.store(v, Ordering::Relaxed);
        if v > self.value.high_water.load(Ordering::Relaxed) {
            self.value.high_water.fetch_max(v, Ordering::Relaxed);
        }
    }

    /// Current level.
    pub fn get(&self) -> i64 {
        self.value.level.load(Ordering::Relaxed)
    }

    /// Highest level seen since the last reset.
    pub fn high_water(&self) -> i64 {
        self.value.high_water.load(Ordering::Relaxed)
    }

    /// Zeroes level and high-water mark.
    pub fn reset(&self) {
        self.value.level.store(0, Ordering::Relaxed);
        self.value.high_water.store(0, Ordering::Relaxed);
    }
}

#[derive(Debug, Default)]
struct RegistryInner {
    counters: BTreeMap<String, Counter>,
    gauges: BTreeMap<String, Gauge>,
    histograms: BTreeMap<String, Histogram>,
}

/// A node's metric namespace. Cheap to clone (shared).
#[derive(Clone, Debug, Default)]
pub struct Registry {
    inner: Arc<Mutex<RegistryInner>>,
}

fn locked<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Returns the counter named `name`, creating it if needed.
    pub fn counter(&self, name: &str) -> Counter {
        locked(&self.inner)
            .counters
            .entry(name.to_string())
            .or_default()
            .clone()
    }

    /// Returns the gauge named `name`, creating it if needed.
    pub fn gauge(&self, name: &str) -> Gauge {
        locked(&self.inner)
            .gauges
            .entry(name.to_string())
            .or_default()
            .clone()
    }

    /// Returns the histogram named `name`, creating it if needed.
    pub fn histogram(&self, name: &str) -> Histogram {
        locked(&self.inner)
            .histograms
            .entry(name.to_string())
            .or_default()
            .clone()
    }

    /// Zeroes every registered metric (counts, levels, buckets).
    pub fn reset(&self) {
        let inner = locked(&self.inner);
        for c in inner.counters.values() {
            c.reset();
        }
        for g in inner.gauges.values() {
            g.reset();
        }
        for h in inner.histograms.values() {
            h.reset();
        }
    }

    /// One JSON object with every metric's current state:
    /// `{"counters": {..}, "gauges": {..}, "histograms": {..}}`.
    /// Gauges serialize as `[level, high_water]`.
    pub fn snapshot(&self) -> serde_json::Value {
        let inner = locked(&self.inner);
        let mut counters = serde_json::Map::new();
        for (name, c) in &inner.counters {
            counters.insert(name.clone(), serde_json::Value::from(c.get()));
        }
        let mut gauges = serde_json::Map::new();
        for (name, g) in &inner.gauges {
            gauges.insert(name.clone(), serde_json::json!([g.get(), g.high_water()]));
        }
        let mut histograms = serde_json::Map::new();
        for (name, h) in &inner.histograms {
            histograms.insert(name.clone(), h.snapshot().to_value());
        }
        serde_json::json!({
            "counters": counters,
            "gauges": gauges,
            "histograms": histograms,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handles_share_state() {
        let r = Registry::new();
        let a = r.counter("dispatched");
        let b = r.counter("dispatched");
        a.inc();
        b.add(2);
        assert_eq!(r.counter("dispatched").get(), 3);
    }

    #[test]
    fn gauge_tracks_high_water() {
        let g = Gauge::new();
        g.set(5);
        g.set(2);
        g.set(3);
        assert_eq!(g.get(), 3);
        assert_eq!(g.high_water(), 5);
        g.set(10);
        assert_eq!(g.high_water(), 10);
        g.reset();
        assert_eq!((g.get(), g.high_water()), (0, 0));
    }

    #[test]
    fn snapshot_and_reset() {
        let r = Registry::new();
        r.counter("x").add(7);
        r.gauge("q").set(4);
        r.histogram("lat").record(100);
        let v = r.snapshot();
        assert_eq!(v["counters"]["x"].as_u64(), Some(7));
        assert_eq!(v["gauges"]["q"][1].as_i64(), Some(4));
        assert_eq!(v["histograms"]["lat"]["count"].as_u64(), Some(1));
        r.reset();
        let v = r.snapshot();
        assert_eq!(v["counters"]["x"].as_u64(), Some(0));
        assert_eq!(v["histograms"]["lat"]["count"].as_u64(), Some(0));
    }

    #[test]
    fn concurrent_recording() {
        let r = Registry::new();
        let mut joins = Vec::new();
        for _ in 0..4 {
            let c = r.counter("n");
            let h = r.histogram("h");
            joins.push(std::thread::spawn(move || {
                for i in 0..1000u64 {
                    c.inc();
                    h.record(i);
                }
            }));
        }
        for j in joins {
            j.join().unwrap();
        }
        assert_eq!(r.counter("n").get(), 4000);
        assert_eq!(r.histogram("h").snapshot().count, 4000);
    }
}
