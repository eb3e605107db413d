//! FIG6 — regenerates Figure 6 of the paper: blackbox ping-pong
//! one-way latency versus payload size, three series:
//!
//! 1. XDAQ over Myrinet/GM,
//! 2. Myrinet/GM directly (the baseline),
//! 3. their difference — the constant framework overhead (paper:
//!    8.9 µs average on a 400 MHz Pentium II, fit y = −7·10⁻⁵x + 9.105).
//!
//! Usage:
//! ```text
//! cargo run -p xdaq-bench --release --bin fig6 [--calls 20000]
//!     [--wire 1]           # 1 = calibrated LANai-7 wire model (paper shape)
//!     [--alloc table|simple]
//!     [--json fig6.json]
//! ```

use xdaq_bench::{
    linear_fit, median_us, raw_gm_pingpong, steady_state, xdaq_gm_pingpong, Args, BlackboxConfig,
};
use xdaq_core::AllocatorKind;
use xdaq_gm::LatencyModel;

const PAYLOADS: &[usize] = &[1, 64, 128, 256, 512, 1024, 2048, 3072, 4096];

fn main() {
    let args = Args::parse();
    let calls: u64 = args.get("calls", 20_000);
    let wire_on: u32 = args.get("wire", 1);
    let wire = if wire_on != 0 {
        LatencyModel::myrinet_lanai7()
    } else {
        LatencyModel::ZERO
    };
    let allocator = match args.get_str("alloc", "table").as_str() {
        "simple" => AllocatorKind::Simple,
        _ => AllocatorKind::Table,
    };

    println!(
        "# FIG6: blackbox ping-pong latency (one-way, averaged over {calls} calls each direction)"
    );
    println!(
        "# wire model: {} | allocator: {allocator:?}",
        if wire_on != 0 {
            "Myrinet LANai-7 (18us + 21.5ns/B)"
        } else {
            "none (pure software path)"
        }
    );
    println!("#");
    println!(
        "{:>8} {:>14} {:>14} {:>14}",
        "bytes", "xdaq_gm_us", "gm_us", "overhead_us"
    );

    let mut xs = Vec::new();
    let mut xdaq_ys = Vec::new();
    let mut gm_ys = Vec::new();
    let mut overhead_ys = Vec::new();
    let mut rows = Vec::new();

    for &payload in PAYLOADS {
        // XDAQ series (medians over the steady state: the paper's
        // 100 000-call averages play the same outlier-rejection role).
        let run = xdaq_gm_pingpong(BlackboxConfig {
            payload,
            calls,
            wire,
            allocator,
        });
        let xdaq_us = median_us(steady_state(&run.one_way_ns));
        // Baseline series on an identical fabric.
        let gm_us = median_us(steady_state(&raw_gm_pingpong(payload, calls, wire)));
        let overhead = xdaq_us - gm_us;
        println!("{payload:>8} {xdaq_us:>14.2} {gm_us:>14.2} {overhead:>14.2}");
        xs.push(payload as f64);
        xdaq_ys.push(xdaq_us);
        gm_ys.push(gm_us);
        overhead_ys.push(overhead);
        rows.push((payload, xdaq_us, gm_us, overhead));
    }

    println!("#");
    if let Some(f) = linear_fit(&xs, &xdaq_ys) {
        println!(
            "# linear fit, XDAQ/GM     : {} (r2={:.4})",
            f.equation(),
            f.r2
        );
    }
    if let Some(f) = linear_fit(&xs, &gm_ys) {
        println!(
            "# linear fit, GM direct   : {} (r2={:.4})",
            f.equation(),
            f.r2
        );
    }
    if let Some(f) = linear_fit(&xs, &overhead_ys) {
        println!(
            "# linear fit, overhead    : {}  <- paper: y = -7E-05x + 9.105",
            f.equation()
        );
        let mean_overhead = overhead_ys.iter().sum::<f64>() / overhead_ys.len() as f64;
        let var = overhead_ys
            .iter()
            .map(|v| (v - mean_overhead) * (v - mean_overhead))
            .sum::<f64>()
            / (overhead_ys.len() - 1).max(1) as f64;
        println!(
            "# framework overhead      : {mean_overhead:.2} us per call (s = {:.2})  <- paper: 8.9 us (s = 0.6)",
            var.sqrt()
        );
        println!(
            "# overhead is payload-independent: slope {:+.3e} us/byte (paper: -7e-5)",
            f.slope
        );
    }

    if args.has("json") {
        let path = args.get_str("json", "fig6.json");
        let json = serde_json::json!({
            "experiment": "fig6",
            "calls": calls,
            "wire": wire_on != 0,
            "allocator": format!("{allocator:?}"),
            "rows": rows.iter().map(|(p, x, g, o)| serde_json::json!({
                "payload": p, "xdaq_us": x, "gm_us": g, "overhead_us": o
            })).collect::<Vec<_>>(),
        });
        std::fs::write(&path, serde_json::to_string_pretty(&json).unwrap()).unwrap();
        println!("# wrote {path}");
    }
}
