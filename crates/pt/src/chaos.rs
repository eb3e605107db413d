//! Deterministic fault injection for peer transports.
//!
//! [`ChaosPt`] wraps any [`PeerTransport`] and perturbs its send path
//! according to a [`FaultPlan`]: refuse frames (visible failure, the
//! frame comes back to the sender), drop them silently (the network ate
//! it), duplicate them, corrupt a payload byte, or stall every N-th
//! operation. All randomness comes from a seeded xorshift64* stream —
//! **no wall clock, no OS entropy** — so a failing run replays
//! bit-for-bit from its seed. The `kill`/`revive` switch turns the
//! wrapped transport off entirely, which is how `tests/faults.rs`
//! takes a supervised link down mid-run.
//!
//! The plan can be reprogrammed at runtime through
//! [`PeerTransport::configure`], which the executive's PT device
//! forwards `ParamsSet` pairs to — `xcl faults <pt> k=v...` reaches
//! here over plain I2O frames.

use parking_lot::RwLock;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;
use xdaq_core::{IngestSink, PeerAddr, PeerTransport, PtError, PtMode, SendFailure};
use xdaq_mempool::FrameBuf;

/// What fraction of sends to perturb, in per-mille (0..=1000).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlan {
    /// Refuse the send with an error, handing the frame back
    /// (exercises the send-failure path).
    pub fail_per_mille: u16,
    /// Accept the send but discard the frame (silent network loss).
    pub drop_per_mille: u16,
    /// Deliver the frame twice.
    pub dup_per_mille: u16,
    /// Flip one payload byte before delivery.
    pub corrupt_per_mille: u16,
    /// Stall every N-th send (`0` = never). Counted in operations, not
    /// wall time, so the schedule is deterministic.
    pub delay_every: u64,
    /// How long a stalled send sleeps.
    pub delay: Duration,
}

impl Default for FaultPlan {
    fn default() -> FaultPlan {
        FaultPlan {
            fail_per_mille: 0,
            drop_per_mille: 0,
            dup_per_mille: 0,
            corrupt_per_mille: 0,
            delay_every: 0,
            delay: Duration::from_millis(1),
        }
    }
}

impl FaultPlan {
    /// A plan that visibly refuses `per_mille`‰ of sends.
    pub fn failing(per_mille: u16) -> FaultPlan {
        FaultPlan {
            fail_per_mille: per_mille,
            ..FaultPlan::default()
        }
    }
}

/// Counts of injected faults (test assertions, scrapes).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChaosStats {
    /// Sends refused with the frame handed back.
    pub failed: u64,
    /// Sends silently discarded.
    pub dropped: u64,
    /// Sends delivered twice.
    pub duplicated: u64,
    /// Sends with one payload byte flipped.
    pub corrupted: u64,
    /// Sends stalled by the delay schedule.
    pub delayed: u64,
}

/// A fault-injecting wrapper around another peer transport.
pub struct ChaosPt {
    inner: Arc<dyn PeerTransport>,
    plan: RwLock<FaultPlan>,
    rng: AtomicU64,
    killed: AtomicBool,
    ops: AtomicU64,
    failed: AtomicU64,
    dropped: AtomicU64,
    duplicated: AtomicU64,
    corrupted: AtomicU64,
    delayed: AtomicU64,
}

impl ChaosPt {
    /// Wraps `inner`, perturbing sends per `plan`, deterministically
    /// driven by `seed`.
    pub fn wrap(inner: Arc<dyn PeerTransport>, seed: u64, plan: FaultPlan) -> Arc<ChaosPt> {
        Arc::new(ChaosPt {
            inner,
            plan: RwLock::new(plan),
            rng: AtomicU64::new(Self::seed_state(seed)),
            killed: AtomicBool::new(false),
            ops: AtomicU64::new(0),
            failed: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            duplicated: AtomicU64::new(0),
            corrupted: AtomicU64::new(0),
            delayed: AtomicU64::new(0),
        })
    }

    /// Kills the link: every send fails as [`PtError::Closed`] until
    /// [`ChaosPt::revive`]. Inbound frames the inner transport already
    /// accepted still drain through [`PeerTransport::poll`] — a killed
    /// link refuses new traffic but does not strand in-flight replies.
    /// Model a full blackout by killing the remote side too.
    pub fn kill(&self) {
        self.killed.store(true, Ordering::Release);
    }

    /// Reopens a killed link.
    pub fn revive(&self) {
        self.killed.store(false, Ordering::Release);
    }

    /// True while the link is killed.
    pub fn is_killed(&self) -> bool {
        self.killed.load(Ordering::Acquire)
    }

    /// Replaces the fault plan.
    pub fn set_plan(&self, plan: FaultPlan) {
        *self.plan.write() = plan;
    }

    /// Current fault plan.
    pub fn plan(&self) -> FaultPlan {
        self.plan.read().clone()
    }

    /// Reseeds the deterministic stream.
    pub fn reseed(&self, seed: u64) {
        self.rng.store(Self::seed_state(seed), Ordering::Relaxed);
    }

    /// Zero is the one invalid xorshift state; every other seed maps
    /// to itself so distinct seeds give distinct fault schedules.
    fn seed_state(seed: u64) -> u64 {
        if seed == 0 {
            0x9E37_79B9_7F4A_7C15
        } else {
            seed
        }
    }

    /// Injected-fault counts so far.
    pub fn stats(&self) -> ChaosStats {
        ChaosStats {
            failed: self.failed.load(Ordering::Relaxed),
            dropped: self.dropped.load(Ordering::Relaxed),
            duplicated: self.duplicated.load(Ordering::Relaxed),
            corrupted: self.corrupted.load(Ordering::Relaxed),
            delayed: self.delayed.load(Ordering::Relaxed),
        }
    }

    /// The wrapped transport.
    pub fn inner(&self) -> &Arc<dyn PeerTransport> {
        &self.inner
    }

    /// Next value of the xorshift64* stream.
    fn roll(&self) -> u64 {
        let mut x = self.rng.load(Ordering::Relaxed);
        loop {
            let mut y = x;
            y ^= y << 13;
            y ^= y >> 7;
            y ^= y << 17;
            match self
                .rng
                .compare_exchange_weak(x, y, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => return y.wrapping_mul(0x2545_F491_4F6C_DD1D),
                Err(actual) => x = actual,
            }
        }
    }

    fn hit(&self, per_mille: u16) -> bool {
        per_mille > 0 && self.roll() % 1000 < per_mille as u64
    }
}

impl PeerTransport for ChaosPt {
    fn scheme(&self) -> &'static str {
        self.inner.scheme()
    }

    fn mode(&self) -> PtMode {
        self.inner.mode()
    }

    fn send(&self, dest: &PeerAddr, mut frame: FrameBuf) -> Result<(), SendFailure> {
        if self.killed.load(Ordering::Acquire) {
            return Err(SendFailure::with_frame(PtError::Closed, frame));
        }
        let plan = self.plan.read().clone();
        let op = self.ops.fetch_add(1, Ordering::Relaxed) + 1;
        if plan.delay_every > 0 && op.is_multiple_of(plan.delay_every) {
            self.delayed.fetch_add(1, Ordering::Relaxed);
            std::thread::sleep(plan.delay);
        }
        if self.hit(plan.fail_per_mille) {
            self.failed.fetch_add(1, Ordering::Relaxed);
            return Err(SendFailure::with_frame(
                PtError::Io("chaos: injected send failure".into()),
                frame,
            ));
        }
        if self.hit(plan.drop_per_mille) {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return Ok(()); // the frame recycles; the "network" ate it
        }
        if self.hit(plan.corrupt_per_mille) {
            if let Some(last) = frame.len().checked_sub(1) {
                frame[last] ^= 0xFF;
                self.corrupted.fetch_add(1, Ordering::Relaxed);
            }
        }
        if self.hit(plan.dup_per_mille) {
            self.duplicated.fetch_add(1, Ordering::Relaxed);
            let copy = FrameBuf::from_bytes(&frame);
            let _ = self.inner.send(dest, copy);
        }
        self.inner.send(dest, frame)
    }

    fn poll(&self) -> Option<(FrameBuf, PeerAddr)> {
        // Deliberately not gated by `killed`: see [`ChaosPt::kill`].
        self.inner.poll()
    }

    fn start(&self, sink: IngestSink) -> Result<(), PtError> {
        self.inner.start(sink)
    }

    fn stop(&self) {
        self.inner.stop();
    }

    fn configure(&self, key: &str, value: &str) -> Result<(), PtError> {
        let bad = |k: &str, v: &str| PtError::BadAddress(format!("chaos: bad value {k}={v}"));
        let per_mille = |v: &str| v.parse::<u16>().ok().filter(|p| *p <= 1000);
        match key {
            "chaos.fail" => {
                self.plan.write().fail_per_mille =
                    per_mille(value).ok_or_else(|| bad(key, value))?;
            }
            "chaos.drop" => {
                self.plan.write().drop_per_mille =
                    per_mille(value).ok_or_else(|| bad(key, value))?;
            }
            "chaos.dup" => {
                self.plan.write().dup_per_mille =
                    per_mille(value).ok_or_else(|| bad(key, value))?;
            }
            "chaos.corrupt" => {
                self.plan.write().corrupt_per_mille =
                    per_mille(value).ok_or_else(|| bad(key, value))?;
            }
            "chaos.delay_every" => {
                self.plan.write().delay_every = value.parse().map_err(|_| bad(key, value))?;
            }
            "chaos.delay_ms" => {
                let ms: u64 = value.parse().map_err(|_| bad(key, value))?;
                self.plan.write().delay = Duration::from_millis(ms);
            }
            "chaos.seed" => {
                self.reseed(value.parse().map_err(|_| bad(key, value))?);
            }
            "chaos.kill" => match value {
                "1" | "true" => self.kill(),
                "0" | "false" => self.revive(),
                _ => return Err(bad(key, value)),
            },
            _ => return self.inner.configure(key, value),
        }
        Ok(())
    }

    fn take_panics(&self) -> u64 {
        self.inner.take_panics()
    }

    fn counters(&self) -> Option<&xdaq_mon::PtCounters> {
        self.inner.counters()
    }

    fn take_down_peers(&self) -> Vec<PeerAddr> {
        // Out-of-band death detection belongs to the real transport;
        // injected faults must not masquerade as peer death.
        self.inner.take_down_peers()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loopback::{LoopbackHub, LoopbackPt};

    fn pair() -> (Arc<LoopbackPt>, Arc<LoopbackPt>) {
        let hub = LoopbackHub::new();
        (LoopbackPt::new(&hub, "a"), LoopbackPt::new(&hub, "b"))
    }

    fn frame(n: usize) -> FrameBuf {
        FrameBuf::from_bytes(&vec![0x5Au8; n])
    }

    fn dest() -> PeerAddr {
        "loop://b".parse().unwrap()
    }

    /// Run `n` sends and record which succeeded (true) / failed.
    fn outcome_pattern(seed: u64, per_mille: u16, n: usize) -> Vec<bool> {
        let (a, _b) = pair();
        let chaos = ChaosPt::wrap(a, seed, FaultPlan::failing(per_mille));
        (0..n)
            .map(|_| chaos.send(&dest(), frame(16)).is_ok())
            .collect()
    }

    #[test]
    fn same_seed_replays_identically() {
        let x = outcome_pattern(42, 300, 200);
        let y = outcome_pattern(42, 300, 200);
        assert_eq!(x, y, "fixed seed must replay bit-for-bit");
        let z = outcome_pattern(43, 300, 200);
        assert_ne!(x, z, "different seed should perturb the schedule");
        let failures = x.iter().filter(|ok| !**ok).count();
        assert!(
            (30..=90).contains(&failures),
            "300‰ of 200 sends ≈ 60 failures, got {failures}"
        );
    }

    #[test]
    fn injected_failure_returns_the_frame() {
        let (a, _b) = pair();
        let chaos = ChaosPt::wrap(a, 7, FaultPlan::failing(1000));
        let err = chaos.send(&dest(), frame(8)).unwrap_err();
        assert!(matches!(err.error, PtError::Io(_)));
        assert!(err.frame.is_some());
        assert_eq!(chaos.stats().failed, 1);
    }

    #[test]
    fn kill_switch_closes_and_revive_reopens() {
        let (a, b) = pair();
        let chaos = ChaosPt::wrap(a, 1, FaultPlan::default());
        chaos.kill();
        let err = chaos.send(&dest(), frame(4)).unwrap_err();
        assert!(matches!(err.error, PtError::Closed));
        assert!(b.poll().is_none());
        // Inbound traffic still drains while killed: replies already in
        // flight must not be stranded.
        b.send(&"loop://a".parse().unwrap(), frame(4)).unwrap();
        assert!(chaos.poll().is_some(), "killed link still drains inbound");
        chaos.revive();
        chaos.send(&dest(), frame(4)).unwrap();
        assert!(b.poll().is_some());
    }

    #[test]
    fn duplicate_and_corrupt_paths() {
        let (a, b) = pair();
        let chaos = ChaosPt::wrap(
            a,
            99,
            FaultPlan {
                dup_per_mille: 1000,
                ..FaultPlan::default()
            },
        );
        chaos.send(&dest(), frame(4)).unwrap();
        assert!(b.poll().is_some());
        assert!(b.poll().is_some(), "duplicated frame also arrives");
        assert_eq!(chaos.stats().duplicated, 1);

        chaos.set_plan(FaultPlan {
            corrupt_per_mille: 1000,
            ..FaultPlan::default()
        });
        chaos.send(&dest(), frame(4)).unwrap();
        let (f, _) = b.poll().unwrap();
        assert_eq!(f[3], 0x5A ^ 0xFF, "last byte flipped");
        assert_eq!(chaos.stats().corrupted, 1);
    }

    #[test]
    fn configure_reprograms_the_plan() {
        let (a, _b) = pair();
        let chaos = ChaosPt::wrap(a, 5, FaultPlan::default());
        chaos.configure("chaos.fail", "250").unwrap();
        chaos.configure("chaos.delay_every", "10").unwrap();
        chaos.configure("chaos.delay_ms", "2").unwrap();
        let p = chaos.plan();
        assert_eq!(p.fail_per_mille, 250);
        assert_eq!(p.delay_every, 10);
        assert_eq!(p.delay, Duration::from_millis(2));
        assert!(chaos.configure("chaos.fail", "1500").is_err());
        assert!(chaos.configure("chaos.kill", "maybe").is_err());
        chaos.configure("chaos.kill", "1").unwrap();
        assert!(chaos.is_killed());
        chaos.configure("chaos.kill", "0").unwrap();
        assert!(!chaos.is_killed());
        // Unknown keys fall through to the wrapped transport (which
        // ignores them by default).
        chaos.configure("tcp.nodelay", "1").unwrap();
    }
}
