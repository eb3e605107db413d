//! The executive's time source.
//!
//! Every timer-driven behaviour in the stack — the timer wheel, so
//! heartbeat ticks and event-builder re-pulls — reads time through a
//! [`Clock`] instead of calling `Instant::now()` directly. Production executives run on [`Clock::Wall`], which is
//! the real monotonic clock with zero indirection cost beyond one
//! enum branch. Simulation harnesses (`xdaq-sim`) hand every
//! executive the *same* [`VirtualClock`] and advance it explicitly —
//! discrete-event style, jumping straight to the next armed deadline —
//! so a scenario that spans minutes of protocol time runs in
//! milliseconds of wall time and is bit-for-bit reproducible.
//!
//! What deliberately stays on wall time (and why) is inventoried in
//! DESIGN.md §16: transport I/O (shm/xpt talk to real kernels),
//! child-process management in `xdaq-ctl`, and observability
//! timestamps (tracer, uptime) that never feed back into control flow.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A time source: the real monotonic clock, or a shared virtual one.
///
/// `Clone` is cheap (an `Arc` bump at most); executives, timer wheels
/// and transports each hold their own handle onto the same underlying
/// time.
#[derive(Clone, Debug, Default)]
pub enum Clock {
    /// The OS monotonic clock.
    #[default]
    Wall,
    /// A manually-advanced clock shared by every component of a
    /// simulation.
    Virtual(Arc<VirtualClock>),
}

impl Clock {
    /// A fresh virtual clock and the handle used to advance it.
    pub fn simulated() -> (Clock, Arc<VirtualClock>) {
        let v = Arc::new(VirtualClock::new());
        (Clock::Virtual(v.clone()), v)
    }

    /// The current instant on this clock.
    #[inline]
    pub fn now(&self) -> Instant {
        match self {
            Clock::Wall => Instant::now(),
            Clock::Virtual(v) => v.now(),
        }
    }

    /// Duration since `earlier` on this clock (the clock-aware
    /// replacement for `Instant::elapsed`, which always consults the
    /// wall clock internally).
    #[inline]
    pub fn since(&self, earlier: Instant) -> Duration {
        self.now().saturating_duration_since(earlier)
    }

    /// True for a virtual (simulated) clock.
    pub fn is_virtual(&self) -> bool {
        matches!(self, Clock::Virtual(_))
    }
}

/// A monotonic clock that only moves when told to.
///
/// Internally an anchor `Instant` captured at construction plus an
/// atomic nanosecond offset, so virtual instants are ordinary
/// `std::time::Instant` values: all existing `Instant` arithmetic
/// (heap ordering in the timer wheel, `duration_since`, deadline
/// comparisons) works unchanged on both clock kinds.
#[derive(Debug)]
pub struct VirtualClock {
    base: Instant,
    nanos: AtomicU64,
}

impl VirtualClock {
    /// A clock frozen at its creation instant.
    pub fn new() -> VirtualClock {
        VirtualClock {
            base: Instant::now(),
            nanos: AtomicU64::new(0),
        }
    }

    /// The current virtual instant.
    #[inline]
    pub fn now(&self) -> Instant {
        self.base + Duration::from_nanos(self.nanos.load(Ordering::Acquire))
    }

    /// Virtual time elapsed since the clock was created.
    pub fn elapsed(&self) -> Duration {
        Duration::from_nanos(self.nanos.load(Ordering::Acquire))
    }

    /// Moves time forward by `d`, returning the new now.
    pub fn advance(&self, d: Duration) -> Instant {
        let add = u64::try_from(d.as_nanos()).unwrap_or(u64::MAX);
        let prev = self.nanos.fetch_add(add, Ordering::AcqRel);
        self.base + Duration::from_nanos(prev.saturating_add(add))
    }

    /// Moves time forward *to* `t` (no-op if `t` is not in the
    /// future — the clock never runs backwards). Returns `true` when
    /// the clock actually moved.
    pub fn advance_to(&self, t: Instant) -> bool {
        let target = match t.checked_duration_since(self.base) {
            Some(d) => u64::try_from(d.as_nanos()).unwrap_or(u64::MAX),
            None => return false,
        };
        self.nanos.fetch_max(target, Ordering::AcqRel) < target
    }
}

impl Default for VirtualClock {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wall_clock_tracks_real_time() {
        let c = Clock::Wall;
        let a = c.now();
        let b = c.now();
        assert!(b >= a);
        assert!(!c.is_virtual());
    }

    #[test]
    fn virtual_clock_only_moves_on_advance() {
        let (c, v) = Clock::simulated();
        assert!(c.is_virtual());
        let t0 = c.now();
        assert_eq!(c.now(), t0, "frozen until advanced");
        v.advance(Duration::from_secs(5));
        assert_eq!(c.now(), t0 + Duration::from_secs(5));
        assert_eq!(v.elapsed(), Duration::from_secs(5));
    }

    #[test]
    fn advance_to_is_monotonic() {
        let (c, v) = Clock::simulated();
        let t0 = c.now();
        assert!(v.advance_to(t0 + Duration::from_millis(10)));
        assert!(
            !v.advance_to(t0 + Duration::from_millis(5)),
            "never backwards"
        );
        assert_eq!(c.now(), t0 + Duration::from_millis(10));
    }

    #[test]
    fn handles_share_time() {
        let (c, v) = Clock::simulated();
        let c2 = c.clone();
        v.advance(Duration::from_millis(250));
        assert_eq!(c.now(), c2.now());
    }
}
