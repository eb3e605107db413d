//! Per-initiator admission control: multi-tenant token buckets.
//!
//! Link credits (DESIGN.md §13, [`crate::credit`]) stop a link from
//! drowning a receiver, but every sender on the link shares that one
//! window — a flooding tenant starves its neighbours long before the
//! link itself saturates. This module adds the executive-side tenant
//! layer: initiator TiDs are assigned to named **classes**, each class
//! has a token bucket (sustained rate + burst), and private data
//! frames from an over-rate class are shed at
//! [`route`](crate::executive::ExecCore::route) time — before
//! they consume a scheduler slot or a peer-link credit — with
//! per-class `qos.<class>.admitted` / `qos.<class>.shed` counters
//! surfacing in `MonSnapshot` scrapes (`xcl qos`).
//!
//! Unassigned initiators are admitted unconditionally (opt-in
//! policing), as are control frames and replies: shedding a reply
//! would break request/reply for a tenant that was already admitted
//! on the way in.
//!
//! Bucket state is wall-clock refilled. The data path takes one small
//! mutex per admitted frame; with per-class buckets (not per-tid) the
//! contention domain is the tenant, which matches what the bucket is
//! protecting anyway.

use parking_lot::{Mutex, RwLock};
use std::collections::HashMap;
use std::time::Instant;
use xdaq_i2o::Tid;
use xdaq_mon::{Counter, Registry};

/// One tenant class: a token bucket plus its scrape counters.
struct ClassState {
    /// Tokens added per second.
    rate: f64,
    /// Bucket capacity (burst allowance).
    burst: f64,
    /// Current tokens and the instant they were last refilled.
    bucket: Mutex<(f64, Instant)>,
    admitted: Counter,
    shed: Counter,
}

impl ClassState {
    fn admit(&self) -> bool {
        let mut b = self.bucket.lock();
        let now = Instant::now();
        let dt = now.duration_since(b.1).as_secs_f64();
        b.0 = (b.0 + dt * self.rate).min(self.burst);
        b.1 = now;
        if b.0 >= 1.0 {
            b.0 -= 1.0;
            self.admitted.inc();
            true
        } else {
            self.shed.inc();
            false
        }
    }
}

/// One validated `qos.*` runtime parameter, ready to apply.
#[derive(Debug, Clone, PartialEq)]
pub enum QosParam {
    /// `qos.class.<name> = <rate>:<burst>` — create/retune a class.
    Class {
        /// Class name.
        name: String,
        /// Tokens added per second.
        rate: f64,
        /// Bucket capacity.
        burst: f64,
    },
    /// `qos.assign.<raw-tid> = <name>` — bind a tenant to a class.
    Assign {
        /// The tenant's initiator TiD.
        tid: Tid,
        /// Class name.
        class: String,
    },
    /// `qos.clear = 1` — drop all classes and assignments.
    Clear,
}

impl QosParam {
    /// Parses and checks one `qos.*` key without touching any table,
    /// so a `ParamsSet` can refuse a bad key before applying any.
    pub fn parse(key: &str, value: &str) -> Result<QosParam, String> {
        let bad = || format!("bad value {key}={value}");
        if let Some(name) = key.strip_prefix("qos.class.") {
            if name.is_empty() || name.contains('.') {
                return Err(format!("bad class name in '{key}'"));
            }
            let (rate, burst) = value.split_once(':').ok_or_else(bad)?;
            let rate: f64 = rate.parse().map_err(|_| bad())?;
            let burst: f64 = burst.parse().map_err(|_| bad())?;
            if !rate.is_finite() || !burst.is_finite() || rate < 0.0 || burst < 1.0 {
                return Err(bad());
            }
            return Ok(QosParam::Class {
                name: name.to_string(),
                rate,
                burst,
            });
        }
        if let Some(raw) = key.strip_prefix("qos.assign.") {
            let raw: u16 = raw.parse().map_err(|_| format!("bad tid in '{key}'"))?;
            let tid = Tid::new(raw).map_err(|e| format!("bad tid in '{key}': {e}"))?;
            return Ok(QosParam::Assign {
                tid,
                class: value.to_string(),
            });
        }
        if key == "qos.clear" {
            return Ok(QosParam::Clear);
        }
        Err(format!("unknown qos parameter '{key}'"))
    }
}

/// Tenant admission table for one executive.
#[derive(Default)]
pub struct AdmissionControl {
    classes: RwLock<HashMap<String, ClassState>>,
    assign: RwLock<HashMap<Tid, String>>,
}

impl AdmissionControl {
    /// Empty table: everything is admitted.
    pub fn new() -> AdmissionControl {
        AdmissionControl::default()
    }

    /// True when no class is configured (the common fast path).
    pub fn is_empty(&self) -> bool {
        self.classes.read().is_empty()
    }

    /// Creates or retunes class `name` with `rate` frames/s sustained
    /// and `burst` frames of headroom. Counters bind into `registry`
    /// as `qos.<name>.admitted` / `qos.<name>.shed`.
    pub fn set_class(&self, name: &str, rate: f64, burst: f64, registry: &Registry) {
        let mut classes = self.classes.write();
        let state = ClassState {
            rate: rate.max(0.0),
            burst: burst.max(1.0),
            bucket: Mutex::new((burst.max(1.0), Instant::now())),
            admitted: registry.counter(&format!("qos.{name}.admitted")),
            shed: registry.counter(&format!("qos.{name}.shed")),
        };
        classes.insert(name.to_string(), state);
    }

    /// Assigns initiator `tid` to class `name`. Frames from an
    /// initiator assigned to an unknown class are admitted (fail
    /// open: a half-applied config must not black-hole a tenant).
    pub fn assign(&self, tid: Tid, name: &str) {
        self.assign.write().insert(tid, name.to_string());
    }

    /// Removes every class and assignment.
    pub fn clear(&self) {
        self.classes.write().clear();
        self.assign.write().clear();
    }

    /// Admission decision for a data frame from `initiator`.
    pub fn admit(&self, initiator: Tid) -> bool {
        if self.is_empty() {
            return true;
        }
        let assign = self.assign.read();
        let Some(name) = assign.get(&initiator) else {
            return true;
        };
        let classes = self.classes.read();
        match classes.get(name) {
            Some(class) => class.admit(),
            None => true,
        }
    }

    /// Applies one parsed `qos.*` runtime parameter.
    pub fn apply(&self, param: QosParam, registry: &Registry) {
        match param {
            QosParam::Class { name, rate, burst } => self.set_class(&name, rate, burst, registry),
            QosParam::Assign { tid, class } => self.assign(tid, &class),
            QosParam::Clear => self.clear(),
        }
    }

    /// Class and assignment table for `MonSnapshot` scrapes. Live
    /// admitted/shed counts ride the metric registry itself.
    pub fn snapshot(&self) -> serde_json::Value {
        let classes = self.classes.read();
        let mut cls = serde_json::Map::new();
        for (name, c) in classes.iter() {
            cls.insert(
                name.clone(),
                serde_json::json!({
                    "rate": c.rate,
                    "burst": c.burst,
                    "admitted": c.admitted.get(),
                    "shed": c.shed.get(),
                }),
            );
        }
        let assign = self.assign.read();
        let mut asg = serde_json::Map::new();
        for (tid, name) in assign.iter() {
            asg.insert(tid.raw().to_string(), serde_json::json!(name));
        }
        serde_json::json!({
            "classes": serde_json::Value::Object(cls),
            "assign": serde_json::Value::Object(asg),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tid(raw: u16) -> Tid {
        Tid::new(raw).unwrap()
    }

    #[test]
    fn empty_table_admits_everything() {
        let a = AdmissionControl::new();
        assert!(a.is_empty());
        for i in 0x10..0x20 {
            assert!(a.admit(tid(i)));
        }
    }

    #[test]
    fn burst_then_shed() {
        let r = Registry::new();
        let a = AdmissionControl::new();
        // Zero refill rate isolates the burst accounting from timing.
        a.set_class("bulk", 0.0, 3.0, &r);
        a.assign(tid(0x10), "bulk");
        assert!(a.admit(tid(0x10)));
        assert!(a.admit(tid(0x10)));
        assert!(a.admit(tid(0x10)));
        assert!(!a.admit(tid(0x10)), "burst spent, bucket dry");
        assert_eq!(r.counter("qos.bulk.admitted").get(), 3);
        assert_eq!(r.counter("qos.bulk.shed").get(), 1);
        // Unassigned neighbours are untouched.
        assert!(a.admit(tid(0x11)));
    }

    #[test]
    fn refill_restores_admission() {
        let r = Registry::new();
        let a = AdmissionControl::new();
        a.set_class("t", 1000.0, 1.0, &r);
        a.assign(tid(0x10), "t");
        assert!(a.admit(tid(0x10)));
        assert!(!a.admit(tid(0x10)));
        std::thread::sleep(std::time::Duration::from_millis(5));
        assert!(a.admit(tid(0x10)), "bucket refilled at 1000/s");
    }

    #[test]
    fn unknown_class_fails_open() {
        let r = Registry::new();
        let a = AdmissionControl::new();
        a.set_class("other", 0.0, 1.0, &r);
        a.assign(tid(0x10), "ghost");
        assert!(a.admit(tid(0x10)));
    }

    #[test]
    fn params_surface() {
        let r = Registry::new();
        let a = AdmissionControl::new();
        let apply = |key, value| a.apply(QosParam::parse(key, value).unwrap(), &r);
        apply("qos.class.gold", "500:50");
        apply("qos.assign.16", "gold");
        assert!(!a.is_empty());
        let snap = a.snapshot();
        assert_eq!(snap["classes"]["gold"]["rate"].as_f64(), Some(500.0));
        assert_eq!(snap["assign"]["16"].as_str(), Some("gold"));
        assert!(QosParam::parse("qos.class.bad", "x").is_err());
        assert!(QosParam::parse("qos.class.", "1:1").is_err());
        assert!(QosParam::parse("qos.assign.zz", "gold").is_err());
        assert!(QosParam::parse("qos.nope", "1").is_err());
        apply("qos.clear", "1");
        assert!(a.is_empty());
    }
}
