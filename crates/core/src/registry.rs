//! The device registry: dispatch tables for all device-class instances.
//!
//! Paper §4: *"There exist multiple dispatch tables for all the device
//! class instances, but the executive performs the dispatching."*
//! The registry owns every listener; during a dispatch the unit is
//! *checked out* (moved off the table), the upcall runs without any
//! registry lock held, and the unit is checked back in — the single
//! dispatch thread makes this race-free while keeping handlers free to
//! call back into the executive.

use crate::fastmap::FastMap;
use crate::listener::I2oListener;
use parking_lot::Mutex;
use std::collections::HashMap;
use xdaq_i2o::{DeviceClass, DeviceState, Tid};

/// Metadata of a registered device instance.
#[derive(Debug, Clone)]
pub struct DeviceMeta {
    /// Assigned TiD.
    pub tid: Tid,
    /// Unique instance name (configuration handle).
    pub name: String,
    /// Device class.
    pub class: DeviceClass,
    /// Operational state.
    pub state: DeviceState,
    /// Configuration parameters (UtilParamsGet/Set surface).
    pub params: HashMap<String, String>,
}

/// A listener together with its metadata, moved in and out of the
/// table as a unit.
pub struct DeviceUnit {
    /// The listener implementation.
    pub listener: Box<dyn I2oListener>,
    /// Its metadata.
    pub meta: DeviceMeta,
}

/// The registry. All methods are cheap map operations under the slot
/// mutex (or the name mutex); no registry lock is ever held across an
/// upcall, and no method holds two locks at once.
#[derive(Default)]
pub struct Registry {
    /// TiD → checked-in unit (`None` while checked out).
    slots: Mutex<FastMap<Tid, Option<DeviceUnit>>>,
    /// Instance name → TiD.
    names: Mutex<HashMap<String, Tid>>,
}

/// Row of the Logical Configuration Table (`ExecLctNotify` payload).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LctEntry {
    /// Device TiD.
    pub tid: Tid,
    /// Instance name.
    pub name: String,
    /// Device class.
    pub class: DeviceClass,
    /// Current state.
    pub state: DeviceState,
}

impl Registry {
    /// Empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Inserts a new unit. The name must be unique.
    pub fn insert(&self, unit: DeviceUnit) -> Result<(), crate::error::ExecError> {
        {
            let mut names = self.names.lock();
            if names.contains_key(&unit.meta.name) {
                return Err(crate::error::ExecError::DuplicateName(
                    unit.meta.name.clone(),
                ));
            }
            names.insert(unit.meta.name.clone(), unit.meta.tid);
        }
        let tid = unit.meta.tid;
        self.slots.lock().insert(tid, Some(unit));
        Ok(())
    }

    /// Checks a unit out for dispatch. Returns `None` for unknown TiDs
    /// or units already checked out.
    pub fn checkout(&self, tid: Tid) -> Option<DeviceUnit> {
        self.slots.lock().get_mut(&tid)?.take()
    }

    /// Returns a unit after dispatch.
    pub fn checkin(&self, unit: DeviceUnit) {
        let tid = unit.meta.tid;
        let mut slots = self.slots.lock();
        // If the device was destroyed while checked out, the slot is
        // gone or occupied and the unit is simply dropped.
        if let Some(slot @ None) = slots.get_mut(&tid) {
            *slot = Some(unit);
        }
    }

    /// Removes a device **or alias**. Returns the unit if one existed
    /// and was checked in. Alias names registered for the TiD (proxy
    /// TiDs have a name but no unit) are dropped too — a route
    /// eviction must leave the alias free for the peer's next
    /// incarnation.
    pub fn remove(&self, tid: Tid) -> Option<DeviceUnit> {
        let unit = self.slots.lock().remove(&tid);
        let mut names = self.names.lock();
        match &unit {
            Some(Some(u)) => {
                names.remove(&u.meta.name);
            }
            // Checked out, or an alias without a unit: drop any name
            // mapped to the TiD by scanning (rare path).
            _ => names.retain(|_, t| *t != tid),
        }
        unit.flatten()
    }

    /// Name → TiD lookup.
    pub fn lookup_name(&self, name: &str) -> Option<Tid> {
        self.names.lock().get(name).copied()
    }

    /// Registers a name for a TiD without a listener (proxy TiDs for
    /// remote devices keep their instance name visible locally).
    pub fn alias(&self, name: &str, tid: Tid) -> Result<(), crate::error::ExecError> {
        let mut names = self.names.lock();
        if names.contains_key(name) {
            return Err(crate::error::ExecError::DuplicateName(name.to_string()));
        }
        names.insert(name.to_string(), tid);
        Ok(())
    }

    /// Current state of a device, if present and checked in.
    pub fn state(&self, tid: Tid) -> Option<DeviceState> {
        self.slots
            .lock()
            .get(&tid)
            .and_then(|s| s.as_ref())
            .map(|u| u.meta.state)
    }

    /// Applies `f` to every checked-in unit's metadata (run-control
    /// sweeps). The unit under dispatch is checked out and skipped.
    pub fn for_each_meta(&self, mut f: impl FnMut(&mut DeviceMeta)) {
        for slot in self.slots.lock().values_mut() {
            if let Some(u) = slot.as_mut() {
                f(&mut u.meta);
            }
        }
    }

    /// The Logical Configuration Table.
    pub fn lct(&self) -> Vec<LctEntry> {
        let mut rows: Vec<LctEntry> = self
            .slots
            .lock()
            .values()
            .filter_map(|s| s.as_ref())
            .map(|u| LctEntry {
                tid: u.meta.tid,
                name: u.meta.name.clone(),
                class: u.meta.class,
                state: u.meta.state,
            })
            .collect();
        rows.sort_by_key(|r| r.tid);
        rows
    }

    /// Number of registered devices (including checked-out ones).
    pub fn len(&self) -> usize {
        self.slots.lock().len()
    }

    /// True when no devices are registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// All registered TiDs.
    pub fn tids(&self) -> Vec<Tid> {
        self.slots.lock().keys().copied().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::listener::{Delivery, Dispatcher};

    struct Dummy;
    impl I2oListener for Dummy {
        fn class(&self) -> DeviceClass {
            DeviceClass::Application(1)
        }
        fn on_private(&mut self, _ctx: &mut Dispatcher<'_>, _msg: Delivery) {}
    }

    fn t(v: u16) -> Tid {
        Tid::new(v).unwrap()
    }

    fn unit(tid: u16, name: &str) -> DeviceUnit {
        DeviceUnit {
            listener: Box::new(Dummy),
            meta: DeviceMeta {
                tid: t(tid),
                name: name.to_string(),
                class: DeviceClass::Application(1),
                state: DeviceState::Initialized,
                params: HashMap::new(),
            },
        }
    }

    #[test]
    fn insert_checkout_checkin() {
        let r = Registry::new();
        r.insert(unit(0x10, "a")).unwrap();
        assert_eq!(r.len(), 1);
        let u = r.checkout(t(0x10)).unwrap();
        assert!(r.checkout(t(0x10)).is_none(), "double checkout blocked");
        r.checkin(u);
        assert!(r.checkout(t(0x10)).is_some());
    }

    #[test]
    fn duplicate_names_rejected() {
        let r = Registry::new();
        r.insert(unit(0x10, "a")).unwrap();
        assert!(r.insert(unit(0x11, "a")).is_err());
    }

    #[test]
    fn remove_while_checked_out_drops_on_checkin() {
        let r = Registry::new();
        r.insert(unit(0x10, "a")).unwrap();
        let u = r.checkout(t(0x10)).unwrap();
        assert!(
            r.remove(t(0x10)).is_none(),
            "checked out: unit not returned"
        );
        assert_eq!(r.lookup_name("a"), None, "name gone immediately");
        r.checkin(u); // silently dropped
        assert!(r.checkout(t(0x10)).is_none());
        assert_eq!(r.len(), 0);
    }

    #[test]
    fn lct_lists_sorted() {
        let r = Registry::new();
        r.insert(unit(0x20, "b")).unwrap();
        r.insert(unit(0x10, "a")).unwrap();
        let lct = r.lct();
        assert_eq!(lct.len(), 2);
        assert_eq!(lct[0].tid, t(0x10));
        assert_eq!(lct[1].name, "b");
    }

    #[test]
    fn alias_for_proxies() {
        let r = Registry::new();
        r.alias("remote.dev", t(0x55)).unwrap();
        assert_eq!(r.lookup_name("remote.dev"), Some(t(0x55)));
        assert!(r.alias("remote.dev", t(0x56)).is_err());
        assert!(r.checkout(t(0x55)).is_none(), "alias has no unit");
    }

    #[test]
    fn remove_frees_alias_names() {
        // Eviction of a proxy TiD must release its alias so the
        // peer's next incarnation can claim the same name.
        let r = Registry::new();
        r.alias("bu0", t(0x55)).unwrap();
        assert!(r.remove(t(0x55)).is_none(), "aliases carry no unit");
        assert_eq!(r.lookup_name("bu0"), None, "alias name released");
        r.alias("bu0", t(0x60)).unwrap();
        assert_eq!(r.lookup_name("bu0"), Some(t(0x60)));
    }

    #[test]
    fn for_each_meta_sweeps_states() {
        let r = Registry::new();
        r.insert(unit(0x10, "a")).unwrap();
        r.insert(unit(0x11, "b")).unwrap();
        r.for_each_meta(|m| {
            if m.state.can_transition(DeviceState::Enabled) {
                m.state = DeviceState::Enabled;
            }
        });
        assert_eq!(r.state(t(0x10)), Some(DeviceState::Enabled));
        assert_eq!(r.state(t(0x11)), Some(DeviceState::Enabled));
    }
}
