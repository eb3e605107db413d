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
//! granularity. An occupancy mask names the non-empty levels, so a pop
//! locks the one level it serves instead of scanning from the top.

use crate::listener::Delivery;
use parking_lot::Mutex;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU8, AtomicUsize, Ordering};
use xdaq_i2o::{Tid, NUM_PRIORITIES};
use xdaq_mon::Gauge;

#[derive(Default)]
struct Level {
    /// Per-device FIFO. A FIFO that drains stays in the map, empty, so
    /// a device in steady traffic reuses one ring instead of freeing
    /// and reallocating it per burst; [`SchedQueue::purge`] (device
    /// destroyed) is what removes it.
    queues: HashMap<Tid, VecDeque<Delivery>>,
    /// Round-robin rotation of devices with pending messages.
    rotation: VecDeque<Tid>,
}

/// The executive's inbound scheduling queue.
pub struct SchedQueue {
    levels: [Mutex<Level>; NUM_PRIORITIES],
    /// Bit `l` is set exactly while level `l` has queued deliveries.
    /// Only written under level `l`'s lock, when its rotation turns
    /// empty or non-empty; the deliveries themselves are published by
    /// that lock, so the mask only says which level to lock.
    occupied: AtomicU8,
    pending: AtomicUsize,
    /// Per-priority depth gauges (level + high-water), when the owner
    /// wired the queue into a metric registry.
    depth: Option<[Gauge; NUM_PRIORITIES]>,
}

impl Default for SchedQueue {
    fn default() -> Self {
        Self::new()
    }
}

impl SchedQueue {
    /// An empty queue without depth gauges.
    pub fn new() -> SchedQueue {
        SchedQueue {
            levels: std::array::from_fn(|_| Mutex::new(Level::default())),
            occupied: AtomicU8::new(0),
            pending: AtomicUsize::new(0),
            depth: None,
        }
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

    /// Enqueues a delivery according to its frame priority and target.
    /// The queue is unbounded: no link meters data frames, and each
    /// sender bounds what it has in flight itself — the event
    /// builder with its credits (DESIGN.md §12, §13).
    pub fn push(&self, d: Delivery) {
        let level = d.priority().level() as usize;
        let tid = d.header.target;
        let mut lv = self.levels[level].lock();
        let was_empty = {
            let q = lv.queues.entry(tid).or_default();
            let was = q.is_empty();
            q.push_back(d);
            was
        };
        if was_empty {
            if lv.rotation.is_empty() {
                self.occupied.fetch_or(1 << level, Ordering::Release);
            }
            lv.rotation.push_back(tid);
        }
        self.pending.fetch_add(1, Ordering::Release);
        if let Some(g) = &self.depth {
            g[level].add(1);
        }
    }

    /// Clears level `l`'s occupancy bit once its rotation is empty;
    /// the caller holds that level's lock.
    fn note_if_drained(&self, lv: &Level, l: usize) {
        if lv.rotation.is_empty() {
            self.occupied.fetch_and(!(1 << l), Ordering::Release);
        }
    }

    /// Pops the next delivery: highest priority first, round-robin over
    /// devices within a priority. Takes one level lock: the highest bit
    /// of the occupancy mask names the level to serve. The delivery
    /// records whether its device's FIFO at that level is still
    /// non-empty ([`Delivery::more_queued`]).
    pub fn pop(&self) -> Option<Delivery> {
        loop {
            let occupied = self.occupied.load(Ordering::Acquire);
            if occupied == 0 {
                return None;
            }
            let l = (u8::BITS - 1 - occupied.leading_zeros()) as usize;
            let mut lv = self.levels[l].lock();
            // Empty only if another consumer drained the level between
            // the mask load and the lock; it cleared the bit, so retry.
            let Some(tid) = lv.rotation.pop_front() else {
                continue;
            };
            let (mut d, more) = {
                let q = lv.queues.get_mut(&tid).expect("rotation implies queue");
                let d = q.pop_front().expect("rotation implies non-empty");
                (d, !q.is_empty())
            };
            d.more_queued = more;
            if more {
                lv.rotation.push_back(tid);
            } else {
                self.note_if_drained(&lv, l);
            }
            self.pending.fetch_sub(1, Ordering::Release);
            if let Some(g) = &self.depth {
                g[l].add(-1);
            }
            return Some(d);
        }
    }

    /// The occupancy mask: bit `l` set iff priority level `l` has
    /// queued deliveries (as of the last push or pop on that level).
    pub fn occupancy(&self) -> u8 {
        self.occupied.load(Ordering::Acquire)
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
        let mut dropped = 0;
        for (i, level) in self.levels.iter().enumerate() {
            let mut lv = level.lock();
            if let Some(q) = lv.queues.remove(&tid) {
                let n = q.len();
                dropped += n;
                lv.rotation.retain(|t| *t != tid);
                self.note_if_drained(&lv, i);
                if let Some(g) = &self.depth {
                    g[i].add(-(n as i64));
                }
            }
        }
        self.pending.fetch_sub(dropped, Ordering::Release);
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
