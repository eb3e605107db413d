//! Property test of the GM fabric: delivery is exactly once, in order,
//! with intact bytes.

use proptest::prelude::*;
use xdaq_pt::gm::{Fabric, NodeId, PortId};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every message sent over the fabric arrives exactly once with
    /// intact bytes, per destination FIFO.
    #[test]
    fn fabric_delivers_exactly_once(
        msgs in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..512), 1..64)
    ) {
        let fabric = Fabric::new();
        let a = fabric.open_port(NodeId(1), PortId(0)).unwrap();
        let b = fabric.open_port(NodeId(2), PortId(0)).unwrap();
        for m in &msgs {
            a.send(b.addr(), m).unwrap();
        }
        let mut got = Vec::new();
        while let Some((_, data)) = b.poll() {
            got.push(data.to_vec());
        }
        prop_assert_eq!(got, msgs);
    }
}
