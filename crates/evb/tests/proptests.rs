//! Property tests for fragment reassembly: whatever order, duplication
//! or loss the fabric inflicts on fragments, the assembler never
//! corrupts an event, never completes one twice, and never leaks a
//! pool block.

use proptest::prelude::*;
use std::collections::{HashMap, HashSet};
use std::time::Instant;
use xdaq_evb::{Assembler, FragmentHeader, Offer};
use xdaq_mempool::{FrameAllocator, TablePool};

const EVENTS: u64 = 6;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Fragments arrive shuffled, duplicated and with arbitrary gaps:
    /// an event completes exactly once, exactly when its last distinct
    /// in-range source lands, and every offer outcome is consistent
    /// with what was fed in before.
    #[test]
    fn reassembly_is_exactly_once(
        sources in 1usize..5,
        ops in proptest::collection::vec((0u64..EVENTS, 0usize..8), 0..160),
    ) {
        let pool = TablePool::with_defaults();
        let mut a = Assembler::new();
        for e in 0..EVENTS {
            prop_assert!(a.begin(e, sources, Instant::now()));
        }
        let mut offered: HashMap<u64, HashSet<usize>> = HashMap::new();
        let mut completed: HashSet<u64> = HashSet::new();
        let mut built = Vec::new();
        for &(e, s) in &ops {
            let slot = (pool.alloc(64).unwrap(), 64);
            let prior = offered.get(&e).cloned().unwrap_or_default();
            match a.offer(e, s, slot) {
                Offer::Complete(c) => {
                    prop_assert!(!completed.contains(&e), "double completion of {e}");
                    prop_assert!(s < sources);
                    prop_assert_eq!(c.fragments().count(), sources);
                    prop_assert_eq!(prior.len(), sources - 1, "completed early");
                    completed.insert(e);
                    built.push(c);
                }
                Offer::Stored => {
                    prop_assert!(s < sources);
                    prop_assert!(!prior.contains(&s));
                    prop_assert!(!completed.contains(&e));
                    offered.entry(e).or_default().insert(s);
                }
                Offer::Duplicate => {
                    prop_assert!(prior.contains(&s), "false duplicate");
                }
                Offer::Invalid => {
                    prop_assert!(s >= sources);
                }
                Offer::Unknown => {
                    prop_assert!(completed.contains(&e), "open event reported unknown");
                }
            }
        }
        // An event is complete iff all its distinct in-range sources
        // were offered; everything else is still open in the table.
        for e in 0..EVENTS {
            let distinct: HashSet<usize> = ops
                .iter()
                .filter(|&&(oe, os)| oe == e && os < sources)
                .map(|&(_, os)| os)
                .collect();
            prop_assert_eq!(completed.contains(&e), distinct.len() == sources);
            prop_assert_eq!(a.contains(e), distinct.len() < sources);
        }
        // Incomplete events recycle their blocks on discard; built
        // events recycle on drop. Nothing leaks.
        drop(built);
        a.discard_all();
        prop_assert_eq!(pool.stats().live_blocks, 0, "pool blocks leaked");
    }

    /// A single flipped payload byte (or a truncation) never verifies —
    /// the builder's corruption check catches what chaos injects.
    #[test]
    fn corrupted_payloads_never_verify(
        event_id in any::<u64>(),
        source_id in any::<u16>(),
        len in 1u32..512,
        flip_pos in any::<u16>(),
        flip_delta in any::<u8>(),
    ) {
        let h = FragmentHeader { event_id, source_id, total_sources: 8, len };
        let good = h.build_payload();
        prop_assert!(h.verify_payload(&good));
        let mut bad = good.clone();
        let pos = xdaq_evb::FRAGMENT_HEADER_LEN + (flip_pos as usize % len as usize);
        let delta = (flip_delta % 255) + 1; // never zero: a real flip
        bad[pos] = bad[pos].wrapping_add(delta);
        prop_assert!(!h.verify_payload(&bad), "flipped byte verified");
        prop_assert!(!h.verify_payload(&good[..good.len() - 1]));
    }
}
