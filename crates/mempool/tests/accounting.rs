//! Pool accounting across threads: blocks allocated on some threads and
//! dropped on others, as a socket driver recycles what a dispatch
//! thread allocated. `allocs` and `live_blocks` are derived from the
//! `hits`, `misses` and `frees` counters; these tests check that the
//! derivation holds once every thread is done, and that the high-water
//! mark saw the moment every allocator held its whole batch.

use std::sync::mpsc;
use std::sync::{Arc, Barrier, Mutex};
use xdaq_mempool::{DynAllocator, FrameBuf, SimplePool, TablePool};

const ALLOCATORS: usize = 4;
const DROPPERS: usize = 2;
const BATCH: usize = 16;
const ROUNDS: usize = 200;

/// Each allocator thread takes `BATCH` blocks per round and hands the
/// batch to the dropper threads. In the first round every allocator
/// holds its batch until all of them hold theirs, so `ALLOCATORS ·
/// BATCH` blocks are out at once at least there.
fn churn(pool: DynAllocator) {
    let (tx, rx) = mpsc::channel::<Vec<FrameBuf>>();
    let rx = Arc::new(Mutex::new(rx));
    let all_held = Barrier::new(ALLOCATORS);
    std::thread::scope(|s| {
        for _ in 0..DROPPERS {
            let rx = rx.clone();
            s.spawn(move || loop {
                let batch = rx.lock().unwrap().recv();
                match batch {
                    Ok(batch) => drop(batch),
                    Err(_) => return,
                }
            });
        }
        for t in 0..ALLOCATORS {
            let (pool, tx, all_held) = (&pool, tx.clone(), &all_held);
            s.spawn(move || {
                for round in 0..ROUNDS {
                    let batch: Vec<FrameBuf> = (0..BATCH)
                        .map(|i| pool.alloc(64 + (t * 7 + i) % 128).unwrap())
                        .collect();
                    if round == 0 {
                        all_held.wait();
                    }
                    tx.send(batch).unwrap();
                }
            });
        }
        drop(tx);
    });
    let s = pool.stats();
    let total = (ALLOCATORS * ROUNDS * BATCH) as u64;
    assert_eq!(s.allocs, s.hits + s.misses);
    assert_eq!(s.allocs, total);
    assert_eq!(s.frees, total);
    assert_eq!(s.live_blocks, 0);
    assert_eq!(s.failures, 0);
    assert!(
        s.high_water_blocks >= (ALLOCATORS * BATCH) as u64,
        "high water {} below the {} blocks held at once",
        s.high_water_blocks,
        ALLOCATORS * BATCH
    );
    assert!(s.high_water_blocks <= total);
}

#[test]
fn table_pool_accounting_holds_across_threads() {
    churn(TablePool::with_defaults());
}

#[test]
fn simple_pool_accounting_holds_across_threads() {
    // The prefill covers the first round, so every allocation of it is
    // a hit: the high-water mark is raised from one counter there.
    churn(SimplePool::new(&[256], ALLOCATORS * BATCH * 2, usize::MAX));
}
