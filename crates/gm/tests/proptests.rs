//! Property tests of the GM substrate: token accounting and fabric
//! delivery.

use proptest::prelude::*;
use xdaq_gm::{Fabric, GmEvent, NodeId, PortConfig, PortId, TokenCounter};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Tokens never go negative or exceed max under any usage pattern.
    #[test]
    fn tokens_stay_bounded(
        max in 1usize..32,
        ops in proptest::collection::vec(any::<bool>(), 1..200)
    ) {
        let t = TokenCounter::new(max);
        let mut held = 0usize;
        for acquire in ops {
            if acquire {
                if t.try_acquire() {
                    held += 1;
                }
            } else if held > 0 {
                t.release();
                held -= 1;
            }
            prop_assert_eq!(t.outstanding(), held);
            prop_assert!(t.available() <= max);
        }
    }

    /// Every message sent over the fabric arrives exactly once with
    /// intact bytes, per destination FIFO.
    #[test]
    fn fabric_delivers_exactly_once(
        msgs in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..512), 1..64)
    ) {
        let fabric = Fabric::new();
        let a = fabric
            .open_port_with(NodeId(1), PortId(0), PortConfig::unlimited())
            .unwrap();
        let b = fabric
            .open_port_with(NodeId(2), PortId(0), PortConfig::unlimited())
            .unwrap();
        for m in &msgs {
            a.send(b.addr(), m, 0).unwrap();
        }
        let mut got = Vec::new();
        loop {
            match b.poll() {
                Some(GmEvent::Received { data, .. }) => got.push(data.to_vec()),
                Some(GmEvent::SendCompleted { .. }) => continue,
                None => break,
            }
        }
        let n = got.len() as u64;
        prop_assert_eq!(got, msgs);
        prop_assert_eq!(fabric.stats().packets, n);
    }
}
