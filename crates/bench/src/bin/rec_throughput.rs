//! REC — append and replay-scan throughput of the `xdaq-rec` event
//! store across record sizes, batched fsync vs fsync-per-record.
//!
//! Every append gathers its payload straight out of a pool block via
//! one iovec (`pwritev`), so the store's write path moves no payload
//! bytes in user space; the bench verifies the iovec aliases the block
//! on every row. The `sync_each` row prices full per-record durability
//! against the default batched `fdatasync` policy.
//!
//! Usage:
//! ```text
//! cargo run -p xdaq-bench --release --bin rec_throughput
//!     [--bytes 67108864] [--json results/BENCH_pr5.json]
//! ```

use std::time::Instant;
use xdaq_bench::Args;
use xdaq_mempool::{FrameAllocator, TablePool};
use xdaq_rec::{scan, RecConfig, RecReader, RecWriter};

const SIZES: &[usize] = &[1024, 4096, 65536, 262144];

struct Run {
    write_mib_s: f64,
    records_s: f64,
    scan_mib_s: f64,
    records: usize,
    segments: u64,
}

fn bench_dir(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("xdaq-rec-bench-{tag}-{}", std::process::id()))
}

fn run(size: usize, bytes_target: usize, sync_each: bool) -> Run {
    let n = (bytes_target / size).clamp(200, 500_000);
    let dir = bench_dir(&format!("{size}-{sync_each}"));
    let _ = std::fs::remove_dir_all(&dir);
    let mut cfg = RecConfig::new(&dir);
    cfg.fsync_bytes = 4 << 20;
    let mut w = RecWriter::create(cfg).unwrap();

    let pool = TablePool::with_defaults();
    let mut frame = pool.alloc(size).unwrap();
    for (i, b) in frame.iter_mut().enumerate() {
        *b = i as u8;
    }
    let slice = frame.io_slice();
    assert_eq!(
        slice.as_ptr(),
        frame.as_ptr(),
        "append iovec must alias the pool block"
    );

    let t0 = Instant::now();
    for _ in 0..n {
        w.append(&[frame.io_slice()]).unwrap();
        if sync_each {
            w.sync().unwrap();
        } else {
            w.maybe_sync().unwrap();
        }
    }
    w.sync().unwrap();
    let write_elapsed = t0.elapsed();
    assert_eq!(w.records() as usize, n);
    let segments = w.segments_started();
    drop(w);

    let t1 = Instant::now();
    let report = RecReader::open(&dir).unwrap().scan_to_end();
    let scan_elapsed = t1.elapsed();
    assert_eq!(report.records as usize, n, "scan must see every record");
    assert!(report.torn.is_none(), "store must scan clean");

    let mib = (n * size) as f64 / (1 << 20) as f64;
    let _ = std::fs::remove_dir_all(&dir);
    Run {
        write_mib_s: mib / write_elapsed.as_secs_f64(),
        records_s: n as f64 / write_elapsed.as_secs_f64(),
        scan_mib_s: mib / scan_elapsed.as_secs_f64(),
        records: n,
        segments,
    }
}

fn main() {
    let args = Args::parse();
    let bytes_target: usize = args.get("bytes", 64 * 1024 * 1024);
    let json_path = args.get_str("json", "results/BENCH_pr5.json");

    if !xdaq_sys::supported() {
        println!("rec_throughput: raw syscall layer unsupported on this target; skipping");
        return;
    }

    println!(
        "{:>8} {:>12} {:>12} {:>12} {:>8} {:>5}",
        "size", "write MiB/s", "records/s", "scan MiB/s", "records", "segs"
    );
    let mut rows = Vec::new();
    for &size in SIZES {
        let r = run(size, bytes_target, false);
        println!(
            "{size:>8} {:>12.0} {:>12.0} {:>12.0} {:>8} {:>5}",
            r.write_mib_s, r.records_s, r.scan_mib_s, r.records, r.segments
        );
        rows.push(serde_json::json!({
            "size": size,
            "write_mib_s": r.write_mib_s,
            "records_s": r.records_s,
            "scan_mib_s": r.scan_mib_s,
            "records": r.records,
            "segments": r.segments,
            "durability": "batched",
        }));
    }
    // Price full per-record durability at 4 KiB.
    let durable = run(4096, bytes_target / 8, true);
    println!(
        "{:>8} {:>12.0} {:>12.0} {:>12.0} {:>8} {:>5}  (fsync per record)",
        4096,
        durable.write_mib_s,
        durable.records_s,
        durable.scan_mib_s,
        durable.records,
        durable.segments
    );
    rows.push(serde_json::json!({
        "size": 4096,
        "write_mib_s": durable.write_mib_s,
        "records_s": durable.records_s,
        "scan_mib_s": durable.scan_mib_s,
        "records": durable.records,
        "segments": durable.segments,
        "durability": "per_record",
    }));

    // Sanity: the recording written by the batched 4 KiB row above was
    // deleted, so prove scan() on a fresh tiny store agrees end-to-end.
    let dir = bench_dir("smoke");
    let _ = std::fs::remove_dir_all(&dir);
    let mut w = RecWriter::create(RecConfig::new(&dir)).unwrap();
    w.append(&[std::io::IoSlice::new(b"smoke")]).unwrap();
    w.sync().unwrap();
    drop(w);
    assert_eq!(scan(&dir).unwrap().records, 1);
    let _ = std::fs::remove_dir_all(&dir);

    let doc = serde_json::json!({
        "bench": "rec_throughput",
        "bytes_target": bytes_target,
        "rows": rows,
    });
    if let Some(dir) = std::path::Path::new(&json_path).parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    std::fs::write(&json_path, format!("{doc:#}")).unwrap();
    println!("wrote {json_path}");
}
