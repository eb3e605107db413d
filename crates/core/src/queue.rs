//! The scheduling queue: seven priority FIFOs with round-robin device
//! dispatch.
//!
//! Paper §4: *"For scheduling the dispatching of messages we follow the
//! algorithm given in the I2O specification. There exist seven priority
//! levels and for each one the messages are scheduled to a FIFO. All
//! devices are then dispatched in round-robin manner."*
//!
//! Within one priority level, each destination device has its own FIFO
//! and a rotation cursor walks the devices that have pending messages —
//! so one chatty device cannot starve its neighbours at equal priority,
//! while higher priorities always preempt lower ones at dispatch
//! granularity. One mutex guards all seven levels, the occupancy mask
//! and the per-level depths; one thread pops (DESIGN.md §10).

use crate::fastmap::FastMap;
use crate::listener::Delivery;
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use xdaq_i2o::{Tid, NUM_PRIORITIES};
use xdaq_mon::Gauge;

#[derive(Default)]
struct Level {
    /// Per-device FIFO. A FIFO that drains stays in the map, empty, so
    /// a device in steady traffic reuses one ring instead of freeing
    /// and reallocating it per burst; [`SchedQueue::purge`] (device
    /// destroyed) is what removes it.
    queues: FastMap<Tid, VecDeque<Delivery>>,
    /// Round-robin rotation of devices with pending messages.
    rotation: VecDeque<Tid>,
    /// Deliveries queued at this level.
    depth: usize,
}

#[derive(Default)]
struct Levels {
    levels: [Level; NUM_PRIORITIES],
    /// Bit `l` is set exactly while level `l` has queued deliveries.
    occupied: u8,
    pending: usize,
}

/// The executive's inbound scheduling queue.
#[derive(Default)]
pub struct SchedQueue {
    inner: Mutex<Levels>,
    /// `Levels::pending`, stored under the lock after every change.
    pending: AtomicUsize,
    /// Per-priority depth gauges (level + high-water), when the owner
    /// wired the queue into a metric registry.
    depth: Option<[Gauge; NUM_PRIORITIES]>,
}

impl SchedQueue {
    /// An empty queue without depth gauges.
    pub fn new() -> SchedQueue {
        SchedQueue::default()
    }

    /// An empty queue that reports per-priority depths (and their
    /// high-water marks) through the given gauges, index = priority
    /// level.
    pub fn with_gauges(depth: [Gauge; NUM_PRIORITIES]) -> SchedQueue {
        SchedQueue {
            depth: Some(depth),
            ..SchedQueue::new()
        }
    }

    /// Publishes level `l`'s depth, its occupancy bit and the total;
    /// the caller holds the lock and has just changed level `l`.
    fn publish(&self, inner: &mut Levels, l: usize) {
        let depth = inner.levels[l].depth;
        if depth == 0 {
            inner.occupied &= !(1 << l);
        } else {
            inner.occupied |= 1 << l;
        }
        self.pending.store(inner.pending, Ordering::Release);
        if let Some(g) = &self.depth {
            g[l].set(depth as i64);
        }
    }

    /// Enqueues a delivery according to its frame priority and target.
    /// The queue is unbounded: no link meters data frames, and each
    /// sender bounds what it has in flight itself — the event
    /// builder with its credits (DESIGN.md §12, §13).
    pub fn push(&self, d: Delivery) {
        let l = d.priority().level() as usize;
        let tid = d.header.target;
        let mut inner = self.inner.lock();
        let lv = &mut inner.levels[l];
        let q = lv.queues.entry(tid).or_default();
        if q.is_empty() {
            lv.rotation.push_back(tid);
        }
        q.push_back(d);
        lv.depth += 1;
        inner.pending += 1;
        self.publish(&mut inner, l);
    }

    /// Pops the next delivery: highest priority first, round-robin over
    /// devices within a priority. The highest bit of the occupancy mask
    /// names the level to serve; an empty queue is answered from
    /// [`SchedQueue::len`] without the lock. The delivery records
    /// whether the next delivery in its device's FIFO at that level is
    /// a private frame ([`Delivery::more_queued`]); the device stays in
    /// the rotation while its FIFO holds anything.
    pub fn pop(&self) -> Option<Delivery> {
        if self.is_empty() {
            return None;
        }
        let mut inner = self.inner.lock();
        let occupied = inner.occupied;
        if occupied == 0 {
            return None;
        }
        let l = (u8::BITS - 1 - occupied.leading_zeros()) as usize;
        let lv = &mut inner.levels[l];
        let tid = lv.rotation.pop_front().expect("occupied level rotates");
        let q = lv.queues.get_mut(&tid).expect("rotation implies queue");
        let mut d = q.pop_front().expect("rotation implies non-empty");
        d.more_queued = q.front().is_some_and(|next| next.private.is_some());
        if !q.is_empty() {
            lv.rotation.push_back(tid);
        }
        lv.depth -= 1;
        inner.pending -= 1;
        self.publish(&mut inner, l);
        Some(d)
    }

    /// The occupancy mask: bit `l` set iff priority level `l` has
    /// queued deliveries.
    pub fn occupancy(&self) -> u8 {
        self.inner.lock().occupied
    }

    /// Number of queued deliveries across all levels.
    pub fn len(&self) -> usize {
        self.pending.load(Ordering::Acquire)
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops all messages queued for `tid` (device destroyed); returns
    /// how many were discarded.
    pub fn purge(&self, tid: Tid) -> usize {
        let mut inner = self.inner.lock();
        let mut dropped = 0;
        for l in 0..NUM_PRIORITIES {
            let lv = &mut inner.levels[l];
            if let Some(q) = lv.queues.remove(&tid) {
                lv.rotation.retain(|t| *t != tid);
                lv.depth -= q.len();
                inner.pending -= q.len();
                dropped += q.len();
                self.publish(&mut inner, l);
            }
        }
        dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xdaq_i2o::{Message, Priority};
    use xdaq_mempool::TablePool;

    fn t(v: u16) -> Tid {
        Tid::new(v).unwrap()
    }

    fn mk(target: u16, pri: u8, tag: u8) -> Delivery {
        let pool = TablePool::with_defaults();
        let m = Message::build_private(t(target), t(0x800), 1, tag as u16)
            .priority(Priority::new(pri).unwrap())
            .payload(vec![tag])
            .finish();
        Delivery::from_message(&m, &*pool).unwrap()
    }

    #[test]
    fn fifo_within_device() {
        let q = SchedQueue::new();
        q.push(mk(0x10, 3, 1));
        q.push(mk(0x10, 3, 2));
        q.push(mk(0x10, 3, 3));
        let tags: Vec<u8> = (0..3).map(|_| q.pop().unwrap().payload()[0]).collect();
        assert_eq!(tags, vec![1, 2, 3]);
        assert!(q.pop().is_none());
    }

    #[test]
    fn higher_priority_preempts() {
        let q = SchedQueue::new();
        q.push(mk(0x10, 1, 1));
        q.push(mk(0x10, 6, 2));
        q.push(mk(0x10, 3, 3));
        let tags: Vec<u8> = (0..3).map(|_| q.pop().unwrap().payload()[0]).collect();
        assert_eq!(tags, vec![2, 3, 1]);
    }

    #[test]
    fn round_robin_across_devices() {
        let q = SchedQueue::new();
        // Device A floods; device B sends one message at equal priority.
        for i in 0..3 {
            q.push(mk(0xA0, 3, 10 + i));
        }
        q.push(mk(0xB0, 3, 99));
        let order: Vec<(u16, u8)> = (0..4)
            .map(|_| {
                let d = q.pop().unwrap();
                (d.header.target.raw(), d.payload()[0])
            })
            .collect();
        // B's message is served after A's *first* message, not after
        // the whole flood.
        assert_eq!(order[0].0, 0xA0);
        assert_eq!(order[1].0, 0xB0);
        assert_eq!(order[2].0, 0xA0);
        assert_eq!(order[3].0, 0xA0);
        assert_eq!(order[1].1, 99);
    }

    #[test]
    fn len_tracks() {
        let q = SchedQueue::new();
        assert!(q.is_empty());
        q.push(mk(1, 0, 0));
        q.push(mk(2, 6, 0));
        assert_eq!(q.len(), 2);
        q.pop();
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn purge_removes_device_messages() {
        let q = SchedQueue::new();
        q.push(mk(0x10, 3, 1));
        q.push(mk(0x10, 5, 2));
        q.push(mk(0x20, 3, 3));
        assert_eq!(q.purge(t(0x10)), 2);
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop().unwrap().header.target, t(0x20));
        assert!(q.pop().is_none());
    }

    #[test]
    fn empty_priority_levels_skipped() {
        let q = SchedQueue::new();
        q.push(mk(0x10, 0, 7));
        assert_eq!(q.pop().unwrap().payload()[0], 7);
    }

    #[test]
    fn depth_gauges_track_per_priority() {
        let reg = xdaq_mon::Registry::new();
        let gauges: [Gauge; NUM_PRIORITIES] =
            std::array::from_fn(|i| reg.gauge(&format!("queue.depth.p{i}")));
        let q = SchedQueue::with_gauges(gauges);
        q.push(mk(0x10, 3, 1));
        q.push(mk(0x10, 3, 2));
        q.push(mk(0x20, 5, 3));
        assert_eq!(reg.gauge("queue.depth.p3").get(), 2);
        assert_eq!(reg.gauge("queue.depth.p5").get(), 1);
        q.pop(); // priority 5 first
        assert_eq!(reg.gauge("queue.depth.p5").get(), 0);
        assert_eq!(reg.gauge("queue.depth.p5").high_water(), 1);
        assert_eq!(q.purge(t(0x10)), 2);
        assert_eq!(reg.gauge("queue.depth.p3").get(), 0);
        assert_eq!(reg.gauge("queue.depth.p3").high_water(), 2);
    }

    #[test]
    fn concurrent_producers_single_consumer() {
        let q = std::sync::Arc::new(SchedQueue::new());
        std::thread::scope(|s| {
            for th in 0..4u16 {
                let q = q.clone();
                s.spawn(move || {
                    for i in 0..250u8 {
                        q.push(mk(0x100 + th, i % 7, i));
                    }
                });
            }
        });
        let mut n = 0;
        while q.pop().is_some() {
            n += 1;
        }
        assert_eq!(n, 1000);
    }
}
