//! Property-based tests of the scheduler queue and routing invariants.

use proptest::prelude::*;
use xdaq_core::{Delivery, RouteTable, SchedQueue};
use xdaq_i2o::{Message, Priority, Tid};
use xdaq_mempool::TablePool;

fn mk(target: u16, pri: u8, tag: u32) -> Delivery {
    let pool = TablePool::with_defaults();
    let m = Message::build_private(Tid::new(target).unwrap(), Tid::HOST, 1, 1)
        .priority(Priority::new(pri).unwrap())
        .transaction(tag)
        .finish();
    Delivery::from_message(&m, &*pool).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Whatever goes in comes out: no loss, no duplication, and within
    /// one (priority, device) pair strictly FIFO.
    #[test]
    fn queue_conserves_and_orders_messages(
        msgs in proptest::collection::vec((0x10u16..0x18, 0u8..7), 1..200)
    ) {
        let q = SchedQueue::new();
        for (i, (tid, pri)) in msgs.iter().enumerate() {
            q.push(mk(*tid, *pri, i as u32));
        }
        prop_assert_eq!(q.len(), msgs.len());
        let mut out = Vec::new();
        while let Some(d) = q.pop() {
            out.push((
                d.header.target.raw(),
                d.priority().level(),
                d.header.transaction_context,
            ));
        }
        prop_assert_eq!(out.len(), msgs.len());
        // Conservation: multiset equality via sorted tags.
        let mut tags: Vec<u32> = out.iter().map(|(_, _, t)| *t).collect();
        tags.sort_unstable();
        let expect: Vec<u32> = (0..msgs.len() as u32).collect();
        prop_assert_eq!(tags, expect);
        // Global priority monotonicity: a higher priority never appears
        // after a lower one *when both were pushed before any pop*
        // (we popped only after all pushes, so this must hold exactly).
        for w in out.windows(2) {
            prop_assert!(w[0].1 >= w[1].1, "priority order violated: {:?}", out);
        }
        // Per-(device, priority) FIFO.
        use std::collections::HashMap;
        let mut last: HashMap<(u16, u8), u32> = HashMap::new();
        for (tid, pri, tag) in &out {
            if let Some(prev) = last.insert((*tid, *pri), *tag) {
                prop_assert!(prev < *tag, "FIFO violated for device {tid:#x} pri {pri}");
            }
        }
    }

    /// Purge, the one path that drops queued deliveries, leaks
    /// nothing: pushing deliveries from one pool, purging a device and
    /// draining the rest returns the pool to its baseline live-block
    /// count, with every per-priority depth gauge back to zero and
    /// always in step with the queue length.
    #[test]
    fn purge_recycles_frames_and_balances_gauges(
        msgs in proptest::collection::vec((0x10u16..0x18, 0u8..7), 1..200),
        victim in 0x10u16..0x18,
    ) {
        use xdaq_i2o::NUM_PRIORITIES;
        use xdaq_mempool::FrameAllocator;

        let pool = TablePool::with_defaults();
        let reg = xdaq_mon::Registry::new();
        let gauges: [xdaq_mon::Gauge; NUM_PRIORITIES] =
            std::array::from_fn(|i| reg.gauge(&format!("queue.depth.p{i}")));
        let q = SchedQueue::with_gauges(gauges);
        let baseline = pool.stats().live_blocks;
        let depth = || -> i64 {
            (0..NUM_PRIORITIES)
                .map(|p| reg.gauge(&format!("queue.depth.p{p}")).get())
                .sum()
        };

        for (i, (tid, pri)) in msgs.iter().enumerate() {
            let m = Message::build_private(Tid::new(*tid).unwrap(), Tid::HOST, 1, 1)
                .priority(Priority::new(*pri).unwrap())
                .transaction(i as u32)
                .finish();
            q.push(Delivery::from_message(&m, &*pool).unwrap());
            prop_assert_eq!(depth() as usize, q.len(), "gauges track pushes");
        }
        q.purge(Tid::new(victim).unwrap());
        prop_assert_eq!(depth() as usize, q.len(), "gauges track the purge");
        while q.pop().is_some() {
            prop_assert_eq!(depth() as usize, q.len(), "gauges track pops");
        }
        prop_assert_eq!(
            pool.stats().live_blocks, baseline,
            "every frame — dispatched or purged — recycled to the pool"
        );
        for p in 0..NUM_PRIORITIES {
            prop_assert_eq!(reg.gauge(&format!("queue.depth.p{p}")).get(), 0);
        }
    }

    /// Purging one device never affects others' messages.
    #[test]
    fn queue_purge_is_isolated(
        msgs in proptest::collection::vec((0x10u16..0x14, 0u8..7), 1..100),
        victim in 0x10u16..0x14,
    ) {
        let q = SchedQueue::new();
        for (i, (tid, pri)) in msgs.iter().enumerate() {
            q.push(mk(*tid, *pri, i as u32));
        }
        let victim_count = msgs.iter().filter(|(t, _)| *t == victim).count();
        let purged = q.purge(Tid::new(victim).unwrap());
        prop_assert_eq!(purged, victim_count);
        prop_assert_eq!(q.len(), msgs.len() - victim_count);
        while let Some(d) = q.pop() {
            prop_assert_ne!(d.header.target.raw(), victim);
        }
    }

    /// Route tables behave like maps: last write wins, removal is
    /// complete, and proxy queries see exactly the matching peers.
    #[test]
    fn route_table_map_semantics(
        entries in proptest::collection::vec(
            (0x10u16..0x40, 0u8..4, 0x10u16..0x40), 1..64
        )
    ) {
        let rt = RouteTable::new();
        let mut model = std::collections::HashMap::new();
        for (tid, peer_idx, remote) in &entries {
            let tid = Tid::new(*tid).unwrap();
            let peer: xdaq_core::PeerAddr =
                format!("loop://n{peer_idx}").parse().unwrap();
            rt.add_peer(tid, peer.clone(), Tid::new(*remote).unwrap());
            model.insert(tid, (peer, Tid::new(*remote).unwrap()));
        }
        prop_assert_eq!(rt.len(), model.len());
        for (tid, (peer, remote)) in &model {
            match rt.lookup(*tid) {
                Some(xdaq_core::Route::Peer { peer: p, remote_tid, alternates }) => {
                    prop_assert_eq!(&p, peer);
                    prop_assert_eq!(&remote_tid, remote);
                    prop_assert!(alternates.is_empty());
                }
                other => prop_assert!(false, "expected peer route, got {other:?}"),
            }
        }
        // proxies_via returns exactly the model's subset.
        for idx in 0u8..4 {
            let peer: xdaq_core::PeerAddr = format!("loop://n{idx}").parse().unwrap();
            let mut got = rt.proxies_via(&peer);
            got.sort();
            let mut want: Vec<Tid> = model
                .iter()
                .filter(|(_, (p, _))| *p == peer)
                .map(|(t, _)| *t)
                .collect();
            want.sort();
            prop_assert_eq!(got, want);
        }
    }

    /// A Down link never leaves Down except through an explicit
    /// `on_pong`: random interleavings of ticks, touches, and pongs
    /// over a small peer set. `tick` may only degrade links, `touch`
    /// may recover Suspect but never Down, and `on_pong` is the one
    /// legal Down -> Up edge.
    #[test]
    fn down_links_recover_only_via_pong(
        ops in proptest::collection::vec((0u8..3, 0u8..3), 1..200)
    ) {
        use xdaq_core::{LinkState, LinkSupervisor, SupervisionConfig};
        let sup = LinkSupervisor::new(SupervisionConfig {
            interval: std::time::Duration::from_millis(10),
            suspect_after: 1,
            down_after: 2,
        });
        let peers: Vec<xdaq_core::PeerAddr> = (0..3)
            .map(|i| format!("loop://p{i}").parse().unwrap())
            .collect();
        for p in &peers {
            sup.supervise(p.clone());
        }
        let mut last_seq = vec![0u64; peers.len()];
        for (op, idx) in ops {
            let idx = idx as usize;
            let before: Vec<LinkState> =
                peers.iter().map(|p| sup.state(p).unwrap()).collect();
            match op {
                0 => {
                    let out = sup.tick();
                    for (p, seq) in &out.pings {
                        let i = peers.iter().position(|q| q == p).unwrap();
                        last_seq[i] = *seq;
                    }
                    for (_, s) in &out.transitions {
                        prop_assert_ne!(*s, LinkState::Up, "tick produced an Up edge");
                    }
                    for (i, p) in peers.iter().enumerate() {
                        if before[i] == LinkState::Down {
                            prop_assert_eq!(sup.state(p).unwrap(), LinkState::Down);
                        }
                    }
                }
                1 => {
                    sup.touch(&peers[idx]);
                    if before[idx] == LinkState::Down {
                        prop_assert_eq!(sup.state(&peers[idx]).unwrap(), LinkState::Down);
                    }
                }
                _ => {
                    let t = sup.on_pong(&peers[idx], last_seq[idx]);
                    if before[idx] != LinkState::Up {
                        prop_assert_eq!(
                            t,
                            Some((peers[idx].clone(), LinkState::Up))
                        );
                    }
                    prop_assert_eq!(sup.state(&peers[idx]).unwrap(), LinkState::Up);
                }
            }
        }
    }
}

// ---- credit-flow invariants (DESIGN.md §13) ---------------------------

use std::time::Duration;
use xdaq_core::{CreditManager, FlowCmd, FlowConfig, FlowPolicy, PeerAddr};

fn flow_cfg(window: u32) -> FlowConfig {
    FlowConfig {
        window,
        high_watermark: 1024,
        policy: FlowPolicy::FailFast,
        reserve: 0,
        tick: Duration::from_millis(100),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Closed-loop sender/receiver simulation under arbitrary op
    /// interleavings with in-order grant delivery: the sender's
    /// available credit never exceeds the advertised window (grants
    /// minus consumes can never go negative — `available()` is the
    /// saturating difference, so the invariant is the upper bound),
    /// and a Down→Up cycle restores exactly one full window: credit
    /// neither leaks nor accumulates across link incarnations.
    #[test]
    fn credit_window_is_conserved(
        ops in proptest::collection::vec(0u8..5, 1..400),
        window in 1u32..32,
    ) {
        let peer: PeerAddr = "loop://peer".parse().unwrap();
        let tx = CreditManager::new(flow_cfg(window));
        let rx = CreditManager::new(flow_cfg(window));
        // Frames accepted by the sender but not yet seen by the
        // receiver, and grants emitted but not yet delivered.
        let mut data_wire = 0u64;
        let mut grant_wire: std::collections::VecDeque<(u64, u64)> =
            std::collections::VecDeque::new();
        let push_grant = |w: &mut std::collections::VecDeque<(u64, u64)>,
                              cmd: Option<FlowCmd>| {
            if let Some(FlowCmd::Grant { epoch, total, .. }) = cmd {
                w.push_back((epoch, total));
            }
        };
        for op in ops {
            match op {
                // Sender pushes a frame if credit allows.
                0 => {
                    if tx.try_acquire(&peer, 3) {
                        data_wire += 1;
                    }
                }
                // A frame crosses the wire; receiver accounts it.
                1 => {
                    if data_wire > 0 {
                        data_wire -= 1;
                        let g = rx.on_data(&peer, 0);
                        push_grant(&mut grant_wire, g);
                    }
                }
                // A grant crosses the wire (in order, never lost).
                2 => {
                    if let Some((e, t)) = grant_wire.pop_front() {
                        tx.on_grant(&peer, e, t);
                    }
                }
                // Transport refused the frame: credit refunded.
                3 => {
                    if tx.try_acquire(&peer, 3) {
                        tx.refund(&peer);
                    }
                }
                // Receiver maintenance tick re-advertises.
                _ => {
                    for cmd in rx.tick(0) {
                        push_grant(&mut grant_wire, Some(cmd));
                    }
                }
            }
            if let Some(avail) = tx.available(&peer) {
                prop_assert!(
                    avail <= u64::from(window),
                    "credit leak: available {avail} > window {window}"
                );
            }
        }

        // Down→Up: both sides forget the lane, the receiver bumps its
        // epoch, and the next advertisement restores exactly one full
        // window — nothing carried over from the old incarnation.
        tx.on_link_down(&peer);
        rx.on_link_down(&peer);
        // The probe frame that elicits the bring-up grant spends one
        // (unmetered) send, which the grant's total already accounts.
        prop_assert!(tx.try_acquire(&peer, 3), "unmetered lane refused a send");
        let g = rx.on_data(&peer, 0).expect("bring-up grant after Up");
        if let FlowCmd::Grant { epoch, total, .. } = g {
            tx.on_grant(&peer, epoch, total);
        }
        // The bring-up grant accounts the one probe frame it rode on.
        prop_assert_eq!(tx.available(&peer), Some(u64::from(window)));
    }

    /// Stale grants from a previous epoch can never resurrect credit:
    /// after a link bounce, replaying every pre-bounce grant leaves
    /// available() unchanged.
    #[test]
    fn stale_epoch_grants_are_inert(
        grants in proptest::collection::vec(1u64..100, 1..20),
        window in 1u32..32,
    ) {
        let peer: PeerAddr = "loop://peer".parse().unwrap();
        let tx = CreditManager::new(flow_cfg(window));
        let rx = CreditManager::new(flow_cfg(window));
        // Establish epoch-1 lane state, then bounce the link twice so
        // the receiver's live epoch is well past everything replayed.
        let g = rx.on_data(&peer, 0).expect("bring-up grant");
        if let FlowCmd::Grant { epoch, total, .. } = g {
            tx.on_grant(&peer, epoch, total);
        }
        tx.on_link_down(&peer);
        rx.on_link_down(&peer);
        let g = rx.on_data(&peer, 0).expect("second bring-up grant");
        let (live_epoch, live_total) = match g {
            FlowCmd::Grant { epoch, total, .. } => (epoch, total),
            _ => unreachable!(),
        };
        tx.on_grant(&peer, live_epoch, live_total);
        let baseline = tx.available(&peer);
        for total in grants {
            // Every epoch strictly below the live one must be ignored.
            tx.on_grant(&peer, live_epoch - 1, total.max(live_total) + 50);
        }
        prop_assert_eq!(tx.available(&peer), baseline);
    }
}

// ---- scheduler occupancy mask against a reference model ---------------

use std::collections::{HashMap, VecDeque};
use xdaq_i2o::NUM_PRIORITIES;

/// One priority level of the model: per-target FIFOs of tags and the
/// round-robin rotation of targets with queued tags.
#[derive(Default)]
struct ModelLevel {
    queues: HashMap<u16, VecDeque<u32>>,
    rotation: VecDeque<u16>,
}

/// Reference scheduler: the same FIFO / round-robin rules,
/// but `pop` scans every level from the top, the way the queue did
/// before it kept an occupancy mask.
#[derive(Default)]
struct ModelQueue {
    levels: [ModelLevel; NUM_PRIORITIES],
    len: usize,
}

impl ModelQueue {
    fn push(&mut self, target: u16, pri: u8, tag: u32) {
        let lv = &mut self.levels[pri as usize];
        let q = lv.queues.entry(target).or_default();
        if q.is_empty() {
            lv.rotation.push_back(target);
        }
        q.push_back(tag);
        self.len += 1;
    }

    /// The popped delivery as (target, priority, tag, more queued for
    /// that target at that priority).
    fn pop(&mut self) -> Option<(u16, u8, u32, bool)> {
        for pri in (0..NUM_PRIORITIES).rev() {
            let lv = &mut self.levels[pri];
            let Some(target) = lv.rotation.pop_front() else {
                continue;
            };
            let q = lv.queues.get_mut(&target).unwrap();
            let tag = q.pop_front().unwrap();
            let more = !q.is_empty();
            if more {
                lv.rotation.push_back(target);
            }
            self.len -= 1;
            return Some((target, pri as u8, tag, more));
        }
        None
    }

    fn purge(&mut self, target: u16) -> usize {
        let mut dropped = 0;
        for lv in &mut self.levels {
            if let Some(q) = lv.queues.remove(&target) {
                dropped += q.len();
                lv.rotation.retain(|t| *t != target);
            }
        }
        self.len -= dropped;
        dropped
    }

    fn occupancy(&self) -> u8 {
        (0..NUM_PRIORITIES)
            .filter(|&l| !self.levels[l].rotation.is_empty())
            .fold(0, |mask, l| mask | 1 << l)
    }
}

/// What the model's `pop` reports of a popped delivery.
fn popped(d: Delivery) -> (u16, u8, u32, bool) {
    (
        d.header.target.raw(),
        d.priority().level(),
        d.header.transaction_context,
        d.more_queued(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random push / pop / purge sequences: every purge count, every
    /// popped delivery (including whether its device's FIFO at that level
    /// still holds deliveries) and `len()` match the reference model,
    /// and after every operation the occupancy mask is exactly the set
    /// of non-empty priority levels.
    #[test]
    fn occupancy_mask_matches_the_reference_scheduler(
        ops in proptest::collection::vec((0u8..4, 0x10u16..0x14, 0u8..7), 1..300),
    ) {
        let q = SchedQueue::new();
        let mut model = ModelQueue::default();
        for (i, (op, target, pri)) in ops.into_iter().enumerate() {
            let tag = i as u32;
            match op {
                // Pushes outnumber pops so the queue builds depth.
                0 | 1 => {
                    q.push(mk(target, pri, tag));
                    model.push(target, pri, tag);
                }
                2 => prop_assert_eq!(q.pop().map(popped), model.pop()),
                _ => {
                    let got = q.purge(Tid::new(target).unwrap());
                    prop_assert_eq!(got, model.purge(target));
                }
            }
            prop_assert_eq!(q.len(), model.len);
            prop_assert_eq!(q.occupancy(), model.occupancy());
        }
        // Draining pops the model's sequence to the end.
        loop {
            let got = q.pop().map(popped);
            prop_assert_eq!(got, model.pop());
            prop_assert_eq!(q.occupancy(), model.occupancy());
            if got.is_none() {
                break;
            }
        }
    }
}
