//! Property-based tests of the buffer pools: no sequence of alloc/free
//! operations may corrupt accounting, and a buffer holds what was
//! written to it.

use proptest::prelude::*;
use xdaq_mempool::{FrameAllocator, SimplePool, TablePool};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

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
