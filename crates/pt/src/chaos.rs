//! Deterministic fault injection for peer transports.
//!
//! [`ChaosPt`] wraps any [`PeerTransport`] and silently drops a
//! [`FaultPlan`]'s share of its sends (the network ate them). The
//! randomness comes from a seeded xorshift64* stream — **no wall
//! clock, no OS entropy** — so a failing run replays bit-for-bit from
//! its seed. The `kill`/`revive` switch turns the wrapped transport
//! off entirely, which is how `tests/faults.rs` takes a supervised
//! link down mid-run. Drop is the one injected fault: nothing retries
//! a refused send (DESIGN.md §8), so refusing a share of frames would
//! test no path of its own; `kill` refuses every send.
//!
//! Three keys reprogram it at runtime through
//! [`PeerTransport::configure`], which the executive's PT device
//! forwards `ParamsSet` pairs to — `xcl faults <pt> k=v...` reaches
//! here over plain I2O frames: `chaos.drop` (per mille), `chaos.seed`
//! and `chaos.kill`. Any other `chaos.*` key is refused; keys outside
//! `chaos.*` go to the wrapped transport.

use std::sync::atomic::{AtomicBool, AtomicU16, AtomicU64, Ordering};
use std::sync::Arc;
use xdaq_core::{IngestSink, PeerAddr, PeerTransport, PtError, PtMode, SendFailure};
use xdaq_mempool::FrameBuf;

/// What fraction of sends to drop, in per-mille (0..=1000).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// Accept the send but discard the frame (silent network loss).
    pub drop_per_mille: u16,
}

/// Counts of injected faults (test assertions, scrapes).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChaosStats {
    /// Sends silently discarded.
    pub dropped: u64,
}

/// A fault-injecting wrapper around another peer transport.
pub struct ChaosPt {
    inner: Arc<dyn PeerTransport>,
    drop_per_mille: AtomicU16,
    rng: AtomicU64,
    killed: AtomicBool,
    dropped: AtomicU64,
}

impl ChaosPt {
    /// Wraps `inner`, perturbing sends per `plan`, deterministically
    /// driven by `seed`.
    pub fn wrap(inner: Arc<dyn PeerTransport>, seed: u64, plan: FaultPlan) -> Arc<ChaosPt> {
        Arc::new(ChaosPt {
            inner,
            drop_per_mille: AtomicU16::new(plan.drop_per_mille),
            rng: AtomicU64::new(Self::seed_state(seed)),
            killed: AtomicBool::new(false),
            dropped: AtomicU64::new(0),
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

    /// Current fault plan.
    pub fn plan(&self) -> FaultPlan {
        FaultPlan {
            drop_per_mille: self.drop_per_mille.load(Ordering::Relaxed),
        }
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
            dropped: self.dropped.load(Ordering::Relaxed),
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
}

impl PeerTransport for ChaosPt {
    fn scheme(&self) -> &'static str {
        self.inner.scheme()
    }

    fn mode(&self) -> PtMode {
        self.inner.mode()
    }

    fn send(&self, dest: &PeerAddr, frame: FrameBuf) -> Result<(), SendFailure> {
        if self.killed.load(Ordering::Acquire) {
            return Err(SendFailure::with_frame(PtError::Closed, frame));
        }
        let per_mille = self.drop_per_mille.load(Ordering::Relaxed);
        if per_mille > 0 && self.roll() % 1000 < per_mille as u64 {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return Ok(()); // the frame recycles; the "network" ate it
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
        let Some(knob) = key.strip_prefix("chaos.") else {
            return self.inner.configure(key, value);
        };
        let bad = || PtError::BadAddress(format!("chaos: bad value {key}={value}"));
        match knob {
            "drop" => {
                let per_mille = value.parse::<u16>().ok().filter(|p| *p <= 1000);
                self.drop_per_mille
                    .store(per_mille.ok_or_else(bad)?, Ordering::Relaxed);
            }
            "seed" => {
                let seed = value.parse().map_err(|_| bad())?;
                self.rng.store(Self::seed_state(seed), Ordering::Relaxed);
            }
            "kill" => match value {
                "1" | "true" => self.kill(),
                "0" | "false" => self.revive(),
                _ => return Err(bad()),
            },
            _ => {
                return Err(PtError::BadAddress(format!(
                    "chaos: unknown key {key} (chaos.drop, chaos.seed and chaos.kill are known)"
                )))
            }
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

    fn dropping(per_mille: u16) -> FaultPlan {
        FaultPlan {
            drop_per_mille: per_mille,
        }
    }

    /// Runs `n` sends and returns the indices of the dropped ones.
    fn drop_pattern(seed: u64, per_mille: u16, n: usize) -> Vec<usize> {
        let (a, b) = pair();
        let chaos = ChaosPt::wrap(a, seed, dropping(per_mille));
        (0..n)
            .filter(|_| {
                chaos.send(&dest(), frame(16)).unwrap();
                b.poll().is_none()
            })
            .collect()
    }

    #[test]
    fn same_seed_replays_identically() {
        let x = drop_pattern(42, 300, 200);
        assert_eq!(x, drop_pattern(42, 300, 200), "fixed seed must replay");
        assert_ne!(x, drop_pattern(43, 300, 200), "a different seed perturbs");
        // Seed 42's schedule must not move: a seeded run (the
        // benchmark's `evb_shm_drop10`) drops the same frames on every
        // commit, so its numbers compare across commits.
        let pinned = [
            1, 2, 6, 8, 11, 13, 20, 22, 23, 24, 27, 28, 31, 33, 34, 35, 37, 39, 42, 43, 46, 53, 55,
            58, 60, 64, 66, 73, 75, 87, 94, 98, 103, 106, 108, 110, 114, 116, 121, 125, 133, 136,
            139, 140, 141, 146, 149, 151, 154, 155, 156, 158, 160, 161, 164, 167, 168, 171, 172,
            173, 179, 180, 183, 184, 191, 193, 195,
        ];
        assert_eq!(x, pinned);
    }

    #[test]
    fn dropped_frame_is_accepted_and_counted() {
        let (a, b) = pair();
        let chaos = ChaosPt::wrap(a, 7, dropping(1000));
        chaos.send(&dest(), frame(8)).unwrap();
        assert!(b.poll().is_none(), "the network ate it");
        assert_eq!(chaos.stats().dropped, 1);
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
    fn configure_reprograms_the_plan() {
        let (a, _b) = pair();
        let chaos = ChaosPt::wrap(a, 5, FaultPlan::default());
        chaos.configure("chaos.drop", "250").unwrap();
        assert_eq!(chaos.plan(), dropping(250));
        assert!(chaos.configure("chaos.drop", "1500").is_err());
        assert!(chaos.configure("chaos.seed", "x").is_err());
        assert!(chaos.configure("chaos.kill", "maybe").is_err());
        chaos.configure("chaos.kill", "1").unwrap();
        assert!(chaos.is_killed());
        chaos.configure("chaos.kill", "0").unwrap();
        assert!(!chaos.is_killed());
        // An unknown chaos key is named, not stored and never read.
        let err = chaos.configure("chaos.fail", "300").unwrap_err();
        assert!(err.to_string().contains("chaos.fail"), "{err}");
        // Other keys fall through to the wrapped transport (which
        // ignores them by default).
        chaos.configure("tcp.nodelay", "1").unwrap();
    }

    /// `chaos.seed` restarts the stream: the same schedule again.
    #[test]
    fn reseeding_restarts_the_schedule() {
        let (a, b) = pair();
        let chaos = ChaosPt::wrap(a, 42, dropping(300));
        let run = || -> Vec<bool> {
            (0..50)
                .map(|_| {
                    chaos.send(&dest(), frame(4)).unwrap();
                    b.poll().is_none()
                })
                .collect()
        };
        let first = run();
        chaos.configure("chaos.seed", "42").unwrap();
        assert_eq!(run(), first);
    }
}
