//! Shared experiment harness for the paper's evaluation (§5).
//!
//! All experiments run the *blackbox* setup of the paper: one pinger
//! device flooding one ponger device on another node, over the
//! Myrinet/GM substrate. On this machine the two executives are driven
//! **cooperatively on one thread** (`a.run_once(); b.run_once();` in a
//! loop): with a single-core host, measuring across preemptive threads
//! would measure the OS scheduler, not the framework. The paper's
//! quantity of interest — CPU time added per message by the XDAQ layer
//! — is exactly what the cooperative drive isolates.

use std::sync::atomic::Ordering;

use xdaq::app::{xfn, PingState, Pinger, Ponger};
use xdaq_core::{AllocatorKind, Executive, ExecutiveConfig, PtMode};
use xdaq_evb::ORG_DAQ;
use xdaq_gm::{Fabric, GmAddr, GmEvent, LatencyModel, NodeId, PortConfig, PortId};
use xdaq_i2o::{Message, Tid};
use xdaq_mempool::{SimplePool, TablePool};
use xdaq_pt::GmPt;

/// Result of one ping-pong run.
pub struct PingRun {
    /// One-way latencies (RTT/2) in nanoseconds, one per call.
    pub one_way_ns: Vec<u64>,
    /// The pinger-side executive (for stat readout).
    pub exec_a: Executive,
    /// The ponger-side executive.
    pub exec_b: Executive,
}

/// Configuration of a blackbox run.
#[derive(Clone, Copy)]
pub struct BlackboxConfig {
    /// Payload bytes per ping.
    pub payload: usize,
    /// Round trips to measure.
    pub calls: u64,
    /// Wire latency model for the GM fabric.
    pub wire: LatencyModel,
    /// Buffer-pool scheme on both executives.
    pub allocator: AllocatorKind,
}

impl Default for BlackboxConfig {
    fn default() -> Self {
        BlackboxConfig {
            payload: 1,
            calls: 10_000,
            wire: LatencyModel::ZERO,
            allocator: AllocatorKind::Table,
        }
    }
}

/// Runs the paper's blackbox flood/echo test: XDAQ over the GM PT,
/// two executives driven cooperatively. Returns per-call one-way
/// latencies.
pub fn xdaq_gm_pingpong(cfg: BlackboxConfig) -> PingRun {
    let fabric = Fabric::with_latency(cfg.wire);
    let mut exec_cfg_a = ExecutiveConfig::named("bench-a");
    exec_cfg_a.allocator = cfg.allocator;
    let mut exec_cfg_b = ExecutiveConfig::named("bench-b");
    exec_cfg_b.allocator = cfg.allocator;
    let a = Executive::new(exec_cfg_a);
    let b = Executive::new(exec_cfg_b);

    let pool_a: xdaq_mempool::DynAllocator = match cfg.allocator {
        AllocatorKind::Simple => SimplePool::with_defaults(),
        AllocatorKind::Table => TablePool::with_defaults(),
    };
    let pool_b: xdaq_mempool::DynAllocator = match cfg.allocator {
        AllocatorKind::Simple => SimplePool::with_defaults(),
        AllocatorKind::Table => TablePool::with_defaults(),
    };
    // Polling-mode GM PTs: the executive loop itself scans the port
    // (paper §4 polling mode, one PT ⇒ the efficient configuration).
    let pt_a = GmPt::open(&fabric, 1, 0, PtMode::Polling, pool_a, None).expect("open GM port a");
    let pt_b = GmPt::open(&fabric, 2, 0, PtMode::Polling, pool_b, None).expect("open GM port b");
    a.register_pt("a.gm", pt_a).unwrap();
    b.register_pt("b.gm", pt_b).unwrap();

    let state = PingState::new();
    let pong_tid = b.register("pong", Box::new(Ponger::new()), &[]).unwrap();
    let proxy = a.proxy("gm://2:0", pong_tid, None).unwrap();
    let ping_tid = a
        .register(
            "ping",
            Box::new(Pinger::new(state.clone())),
            &[
                ("peer", &proxy.raw().to_string()),
                ("payload", &cfg.payload.to_string()),
                ("count", &cfg.calls.to_string()),
            ],
        )
        .unwrap();
    a.enable_all();
    b.enable_all();
    a.post(Message::build_private(ping_tid, Tid::HOST, ORG_DAQ, xfn::PING_START).finish())
        .unwrap();

    // Cooperative drive.
    while !state.done.load(Ordering::SeqCst) {
        a.run_once();
        b.run_once();
    }
    let one_way_ns = state.one_way_ns();
    PingRun {
        one_way_ns,
        exec_a: a,
        exec_b: b,
    }
}

/// The baseline of Figure 6: the same flood/echo test **directly on
/// GM**, no framework. Cooperative single-thread drive, mirroring the
/// XDAQ run.
pub fn raw_gm_pingpong(payload: usize, calls: u64, wire: LatencyModel) -> Vec<u64> {
    let fabric = Fabric::with_latency(wire);
    let a = fabric
        .open_port_with(NodeId(1), PortId(0), PortConfig::unlimited())
        .expect("port a");
    let b = fabric
        .open_port_with(NodeId(2), PortId(0), PortConfig::unlimited())
        .expect("port b");
    let b_addr = GmAddr {
        node: NodeId(2),
        port: PortId(0),
    };
    let msg = vec![0xA5u8; payload];
    let mut rtts = Vec::with_capacity(calls as usize);
    for _ in 0..calls {
        let t0 = std::time::Instant::now();
        a.send(b_addr, &msg, 0).expect("send");
        // Echo side.
        loop {
            match b.poll() {
                Some(GmEvent::Received { src, data }) => {
                    b.send(src, &data, 0).expect("echo");
                    break;
                }
                Some(GmEvent::SendCompleted { .. }) | None => std::hint::spin_loop(),
            }
        }
        // Pinger side.
        loop {
            match a.poll() {
                Some(GmEvent::Received { .. }) => break,
                Some(GmEvent::SendCompleted { .. }) | None => std::hint::spin_loop(),
            }
        }
        rtts.push(t0.elapsed().as_nanos() as u64 / 2);
    }
    rtts
}

/// Simple command-line parsing: `--key value` pairs.
pub struct Args {
    pairs: std::collections::HashMap<String, String>,
}

impl Args {
    /// Parses `std::env::args()`.
    pub fn parse() -> Args {
        let mut pairs = std::collections::HashMap::new();
        let mut iter = std::env::args().skip(1);
        while let Some(k) = iter.next() {
            if let Some(key) = k.strip_prefix("--") {
                let v = iter.next().unwrap_or_else(|| "1".to_string());
                pairs.insert(key.to_string(), v);
            }
        }
        Args { pairs }
    }

    /// Typed lookup with default.
    pub fn get<T: std::str::FromStr>(&self, key: &str, default: T) -> T {
        self.pairs
            .get(key)
            .and_then(|s| s.parse().ok())
            .unwrap_or(default)
    }

    /// String lookup with default.
    pub fn get_str(&self, key: &str, default: &str) -> String {
        self.pairs
            .get(key)
            .cloned()
            .unwrap_or_else(|| default.to_string())
    }

    /// Presence check.
    pub fn has(&self, key: &str) -> bool {
        self.pairs.contains_key(key)
    }
}

/// Mean of a sample slice, in microseconds.
pub fn mean_us(ns: &[u64]) -> f64 {
    if ns.is_empty() {
        return 0.0;
    }
    ns.iter().map(|&v| v as u128).sum::<u128>() as f64 / ns.len() as f64 / 1000.0
}

/// Median of a sample slice, in microseconds.
pub fn median_us(ns: &[u64]) -> f64 {
    let mut sorted = ns.to_vec();
    sorted.sort_unstable();
    quantile(&sorted, 0.5) / 1000.0
}

/// Linear-interpolated `q`-quantile (`q` in 0..=1) of a **sorted**
/// sample slice; 0 for an empty one.
pub fn quantile(sorted: &[u64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = q * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    let frac = rank - lo as f64;
    sorted[lo] as f64 * (1.0 - frac) + sorted[hi] as f64 * frac
}

/// Drops the warm-up prefix (first 10 %, at least 50 samples when the
/// run is long enough): the first calls pay pool-population and cache
/// misses that the steady state does not.
pub fn steady_state(ns: &[u64]) -> &[u64] {
    if ns.len() < 100 {
        return ns;
    }
    let skip = (ns.len() / 10).max(50).min(ns.len() / 2);
    &ns[skip..]
}

/// Result of fitting `y = slope * x + intercept` — Figure 6 of the
/// paper annotates its latency series with such fits ("Linear fit to
/// XDAQ overhead ... y = -7E-05x + 9.105").
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinearFit {
    /// Slope (units of y per unit of x).
    pub slope: f64,
    /// Intercept (units of y).
    pub intercept: f64,
    /// Coefficient of determination in [0, 1].
    pub r2: f64,
}

impl LinearFit {
    /// Formats like the paper's chart annotation, e.g.
    /// `y = -7.0E-5x + 9.105`.
    pub fn equation(&self) -> String {
        format!("y = {:.3e}x + {:.3}", self.slope, self.intercept)
    }
}

/// Least-squares line through `(x, y)` pairs; `None` for fewer than two
/// points or a degenerate (all-equal-x) input.
pub fn linear_fit(xs: &[f64], ys: &[f64]) -> Option<LinearFit> {
    assert_eq!(xs.len(), ys.len(), "x/y length mismatch");
    let n = xs.len();
    if n < 2 {
        return None;
    }
    let nf = n as f64;
    let mean_x = xs.iter().sum::<f64>() / nf;
    let mean_y = ys.iter().sum::<f64>() / nf;
    let mut sxx = 0.0;
    let mut sxy = 0.0;
    let mut syy = 0.0;
    for i in 0..n {
        let dx = xs[i] - mean_x;
        let dy = ys[i] - mean_y;
        sxx += dx * dx;
        sxy += dx * dy;
        syy += dy * dy;
    }
    if sxx == 0.0 {
        return None;
    }
    let slope = sxy / sxx;
    let intercept = mean_y - slope * mean_x;
    let r2 = if syy == 0.0 {
        1.0
    } else {
        (sxy * sxy) / (sxx * syy)
    };
    Some(LinearFit {
        slope,
        intercept,
        r2,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn xdaq_run_completes_and_measures() {
        let run = xdaq_gm_pingpong(BlackboxConfig {
            payload: 64,
            calls: 50,
            ..Default::default()
        });
        assert_eq!(run.one_way_ns.len(), 50);
        assert!(run.one_way_ns.iter().all(|&v| v > 0));
        assert!(run.exec_a.stats().sent_peer >= 50);
    }

    #[test]
    fn raw_gm_run_measures() {
        let rtts = raw_gm_pingpong(64, 50, LatencyModel::ZERO);
        assert_eq!(rtts.len(), 50);
        assert!(rtts.iter().all(|&v| v > 0));
    }

    #[test]
    fn xdaq_is_slower_than_raw_gm() {
        let raw = mean_us(&raw_gm_pingpong(64, 500, LatencyModel::ZERO));
        let xdaq = mean_us(
            &xdaq_gm_pingpong(BlackboxConfig {
                payload: 64,
                calls: 500,
                ..Default::default()
            })
            .one_way_ns,
        );
        assert!(
            xdaq > raw,
            "framework must add overhead: xdaq {xdaq:.2}us vs raw {raw:.2}us"
        );
    }

    #[test]
    fn exact_line_recovered() {
        let xs: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let ys: Vec<f64> = xs.iter().map(|x| 2.5 * x - 7.0).collect();
        let f = linear_fit(&xs, &ys).unwrap();
        assert!((f.slope - 2.5).abs() < 1e-12);
        assert!((f.intercept + 7.0).abs() < 1e-9);
        assert!((f.r2 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn constant_series_has_zero_slope() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        let ys = [9.105; 4];
        let f = linear_fit(&xs, &ys).unwrap();
        assert_eq!(f.slope, 0.0);
        assert!((f.intercept - 9.105).abs() < 1e-12);
        assert_eq!(f.r2, 1.0);
    }

    #[test]
    fn noisy_line_r2_reasonable() {
        let xs: Vec<f64> = (0..50).map(|i| i as f64).collect();
        // Deterministic "noise".
        let ys: Vec<f64> = xs
            .iter()
            .enumerate()
            .map(|(i, x)| 3.0 * x + 1.0 + if i % 2 == 0 { 0.5 } else { -0.5 })
            .collect();
        let f = linear_fit(&xs, &ys).unwrap();
        assert!((f.slope - 3.0).abs() < 0.01);
        assert!(f.r2 > 0.99);
    }

    #[test]
    fn degenerate_inputs() {
        assert!(linear_fit(&[], &[]).is_none());
        assert!(linear_fit(&[1.0], &[2.0]).is_none());
        assert!(linear_fit(&[5.0, 5.0], &[1.0, 2.0]).is_none());
    }

    #[test]
    fn equation_format() {
        let f = LinearFit {
            slope: -7e-5,
            intercept: 9.105,
            r2: 1.0,
        };
        assert_eq!(f.equation(), "y = -7.000e-5x + 9.105");
    }

    #[test]
    fn quantiles_interpolate_over_sorted_samples() {
        assert_eq!(quantile(&[], 0.5), 0.0);
        assert_eq!(quantile(&[1000], 0.9), 1000.0);
        assert_eq!(quantile(&[1, 2, 3, 4], 0.5), 2.5);
        let v: Vec<u64> = (0..1000).collect();
        assert!((quantile(&v, 0.1) - 99.9).abs() < 0.2);
        assert!((quantile(&v, 0.9) - 899.1).abs() < 0.2);
    }

    #[test]
    fn median_sorts_and_ignores_outliers() {
        assert!((median_us(&[9000, 1000, 5000, 3000, 7000]) - 5.0).abs() < 1e-9);
        let mut v = vec![100u64; 99];
        v.push(1_000_000);
        assert!((median_us(&v) - 0.1).abs() < 1e-12);
    }
}
