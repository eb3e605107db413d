//! Shared-memory ping-pong: two processes, one region, zero copies.
//!
//! The parent creates an shm region and spawns a copy of itself as the
//! "pong" process. Every ping frame is allocated straight out of the
//! cross-process pool, so sending moves an 8-byte descriptor, never
//! payload bytes — the copy count each side prints at the end proves
//! it stayed at zero, for the pings and for their echoes.
//!
//! Run with: `cargo run --release --example shm_pingpong`

use std::time::{Duration, Instant};
use xdaq::core::pta::{PeerTransport, PtMode};
use xdaq::mempool::FrameAllocator;
use xdaq::shm::{ShmConfig, ShmPt};

const ROUNDS: usize = 50_000;
const PAYLOAD: usize = 4096;

fn main() {
    if let Ok(path) = std::env::var("XDAQ_SHM_PINGPONG_REGION") {
        return pong(&path);
    }

    let path = std::env::temp_dir().join(format!("xdaq-shm-pingpong-{}", std::process::id()));
    let pt = ShmPt::new(PtMode::Polling);
    let link = pt
        .create_link(&path, ShmConfig::default())
        .expect("create shm region");
    let peer = link.peer_addr().clone();
    println!("region  {}", path.display());
    println!("local   {}", link.local_addr());
    println!("peer    {peer}");

    let mut child = std::process::Command::new(std::env::current_exe().unwrap())
        .env("XDAQ_SHM_PINGPONG_REGION", &path)
        .spawn()
        .expect("spawn pong process");
    while !link.peer_attached() {
        std::thread::sleep(Duration::from_millis(1));
    }

    let pool = link.pool().clone();
    let start = Instant::now();
    let mut echoed = 0usize;
    let mut sent = 0usize;
    while echoed < ROUNDS {
        while sent < ROUNDS && sent - echoed < 64 {
            let mut frame = match pool.alloc(PAYLOAD) {
                Ok(f) => f,
                Err(_) => break,
            };
            frame[0..8].copy_from_slice(&(sent as u64).to_le_bytes());
            match pt.send(&peer, frame) {
                Ok(()) => sent += 1,
                Err(_) => break, // ring full: drain echoes first
            }
        }
        let mut progress = false;
        while let Some((_frame, _src)) = pt.poll() {
            echoed += 1;
            progress = true;
        }
        if !progress {
            // Single-core friendliness: hand the CPU to the pong
            // process instead of spinning out our timeslice.
            std::thread::yield_now();
        }
    }
    let elapsed = start.elapsed();

    // Stop marker: a minimal frame with an all-ones sequence.
    loop {
        let mut stop = pool.alloc(8).unwrap();
        stop[0..8].copy_from_slice(&u64::MAX.to_le_bytes());
        if pt.send(&peer, stop).is_ok() {
            break;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    child.wait().expect("pong process");

    let per_round = elapsed / ROUNDS as u32;
    let mb = (ROUNDS * PAYLOAD * 2) as f64 / (1 << 20) as f64;
    println!(
        "{ROUNDS} round trips of {PAYLOAD} B in {elapsed:?} \
         ({per_round:?}/round-trip, {:.0} MiB/s both ways)",
        mb / elapsed.as_secs_f64()
    );
    println!(
        "ping send-path payload copies: {} (zero-copy descriptor passing)",
        pt.shm_counters().copies.get()
    );
    let _ = std::fs::remove_file(&path);
}

/// The child: echo every ping until the stop marker arrives.
fn pong(path: &str) {
    let pt = ShmPt::new(PtMode::Polling);
    let link = pt
        .attach_link(std::path::Path::new(path))
        .expect("attach shm region");
    let peer = link.peer_addr().clone();
    loop {
        while let Some((frame, _src)) = pt.poll() {
            if u64::from_le_bytes(frame[0..8].try_into().unwrap()) == u64::MAX {
                println!(
                    "pong send-path payload copies: {}",
                    pt.shm_counters().copies.get()
                );
                return;
            }
            // Echo the region frame itself: descriptor goes back, the
            // payload never moves.
            let mut f = Some(frame);
            while let Some(frame) = f.take() {
                if let Err(failure) = pt.send(&peer, frame) {
                    f = failure.frame;
                    std::thread::yield_now();
                }
            }
        }
        // Yield, don't spin: on a single-core box a spinning pong
        // starves the pinger for a whole scheduler timeslice.
        std::thread::yield_now();
    }
}
