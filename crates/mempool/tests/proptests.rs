//! Property-based tests of the buffer pools and frame chaining: no
//! sequence of alloc/free/share operations may corrupt accounting, and
//! chaining must reassemble any payload exactly.

use proptest::prelude::*;
use xdaq_i2o::{FunctionCode, MsgHeader, PrivateHeader, Tid};
use xdaq_mempool::{
    reassemble, segment_lengths, split_into_frames, FrameAllocator, SimplePool, TablePool,
};

fn header() -> MsgHeader {
    let mut h = MsgHeader::new(
        Tid::new(0x111).unwrap(),
        Tid::new(0x222).unwrap(),
        FunctionCode::Private,
    );
    h.initiator_context = 0x1234;
    h
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn segment_lengths_partition_exactly(total in 0usize..1_000_000, seg in 1usize..65536) {
        let lens = segment_lengths(total, seg);
        prop_assert!(!lens.is_empty());
        prop_assert_eq!(lens.iter().sum::<usize>(), total);
        prop_assert!(lens.iter().all(|&l| l <= seg));
        // All but the last segment are full.
        for &l in &lens[..lens.len() - 1] {
            prop_assert_eq!(l, seg);
        }
    }

    #[test]
    fn chain_roundtrips_any_payload(
        payload in proptest::collection::vec(any::<u8>(), 0..20_000),
        max_payload in 32usize..2048,
        private in any::<bool>(),
    ) {
        let pool = TablePool::with_defaults();
        let ph = private.then(|| PrivateHeader::new(0x0cec, 5));
        let mut h = header();
        if !private {
            h.function = 0x06;
        }
        let frames = split_into_frames(&*pool, h, ph, &payload, max_payload).unwrap();
        let (rh, rp, data) = reassemble(frames.iter().map(|f| &f[..])).unwrap();
        prop_assert_eq!(data, payload);
        prop_assert_eq!(rp, ph);
        prop_assert_eq!(rh.initiator_context, h.initiator_context);
    }

    #[test]
    fn pool_accounting_is_consistent_table(
        ops in proptest::collection::vec((any::<bool>(), 1usize..100_000), 1..200)
    ) {
        let pool = TablePool::with_defaults();
        let mut live = Vec::new();
        for (alloc, size) in ops {
            if alloc || live.is_empty() {
                live.push(pool.alloc(size).unwrap());
            } else {
                live.pop();
            }
            let s = pool.stats();
            prop_assert_eq!(s.live_blocks as usize, live.len());
            prop_assert_eq!(s.allocs, s.hits + s.misses);
        }
        drop(live);
        let s = pool.stats();
        prop_assert_eq!(s.live_blocks, 0);
        prop_assert_eq!(s.frees, s.allocs);
    }

    #[test]
    fn pool_accounting_is_consistent_simple(
        ops in proptest::collection::vec((any::<bool>(), 1usize..100_000), 1..100)
    ) {
        let pool = SimplePool::with_defaults();
        let mut live = Vec::new();
        for (alloc, size) in ops {
            if alloc || live.is_empty() {
                live.push(pool.alloc(size).unwrap());
            } else {
                live.pop();
            }
            let s = pool.stats();
            prop_assert_eq!(s.live_blocks as usize, live.len());
        }
        drop(live);
        prop_assert_eq!(pool.stats().live_blocks, 0);
    }

    #[test]
    fn buffers_hold_written_data(
        writes in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 1..4096), 1..32)
    ) {
        let pool = TablePool::with_defaults();
        let bufs: Vec<_> = writes.iter().map(|w| {
            let mut b = pool.alloc(w.len()).unwrap();
            b.copy_from_slice(w);
            b
        }).collect();
        for (b, w) in bufs.iter().zip(&writes) {
            prop_assert_eq!(&b[..], &w[..]);
        }
    }

    #[test]
    fn size_class_invariants(len in 0usize..=xdaq_mempool::MAX_BLOCK_LEN) {
        use xdaq_mempool::table::{class_capacity, size_class};
        let c = size_class(len).unwrap();
        prop_assert!(class_capacity(c) >= len.max(1));
        if c > 0 {
            prop_assert!(class_capacity(c - 1) < len.max(64).next_power_of_two()
                         || class_capacity(c) == len.max(64).next_power_of_two());
            // Tight: one class down would not fit (for len > MIN).
            if len > 64 {
                prop_assert!(class_capacity(c) / 2 < len);
            }
        }
    }
}
