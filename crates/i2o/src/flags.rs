//! Message flags and scheduling priorities.

use core::fmt;

/// Frame-level flags carried in the standard header.
///
/// Layout (one byte on the wire):
///
/// ```text
/// bit 0   REPLY_EXPECTED  initiator wants a reply frame
/// bit 1   IS_REPLY        this frame is a reply
/// bit 2   FAIL            reply carries a failure status
/// bit 3   MORE            more chained frames follow (frame format
///                         only: no shipped code sets it)
/// bit 4   CONTROL         executive/utility control traffic (bypasses
///                         application accounting)
/// bits 5-7 priority       0 (lowest) .. 6 (highest)
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Default)]
pub struct MsgFlags(u8);

impl MsgFlags {
    pub const REPLY_EXPECTED: MsgFlags = MsgFlags(0b0000_0001);
    pub const IS_REPLY: MsgFlags = MsgFlags(0b0000_0010);
    pub const FAIL: MsgFlags = MsgFlags(0b0000_0100);
    pub const MORE: MsgFlags = MsgFlags(0b0000_1000);
    pub const CONTROL: MsgFlags = MsgFlags(0b0001_0000);

    const PRIORITY_SHIFT: u8 = 5;
    const PRIORITY_MASK: u8 = 0b1110_0000;

    /// Empty flag set, priority 0.
    pub const fn empty() -> MsgFlags {
        MsgFlags(0)
    }

    /// Reconstructs flags from the wire byte. Priority 7 (which the
    /// 3-bit field can encode but I2O does not define) saturates to 6.
    pub fn from_bits(b: u8) -> MsgFlags {
        let mut f = MsgFlags(b);
        if (b >> Self::PRIORITY_SHIFT) > Priority::MAX.level() {
            f = f.with_priority(Priority::MAX);
        }
        f
    }

    /// Raw wire byte.
    pub const fn bits(self) -> u8 {
        self.0
    }

    /// True if every flag in `other` is set in `self`.
    pub const fn contains(self, other: MsgFlags) -> bool {
        self.0 & other.0 == other.0
    }

    /// Union of two flag sets; priorities combine as max.
    #[must_use]
    pub fn union(self, other: MsgFlags) -> MsgFlags {
        let pri = self.priority().max(other.priority());
        MsgFlags((self.0 | other.0) & !Self::PRIORITY_MASK).with_priority(pri)
    }

    /// Sets the given flag bits (priority field untouched).
    #[must_use]
    pub const fn with(self, other: MsgFlags) -> MsgFlags {
        MsgFlags(self.0 | (other.0 & !Self::PRIORITY_MASK))
    }

    /// Clears the given flag bits (priority field untouched).
    #[must_use]
    pub const fn without(self, other: MsgFlags) -> MsgFlags {
        MsgFlags(self.0 & !(other.0 & !Self::PRIORITY_MASK))
    }

    /// Scheduling priority carried by this frame.
    pub fn priority(self) -> Priority {
        Priority::new(self.0 >> Self::PRIORITY_SHIFT).unwrap_or(Priority::MAX)
    }

    /// Returns the flags with the priority field replaced.
    #[must_use]
    pub const fn with_priority(self, p: Priority) -> MsgFlags {
        MsgFlags((self.0 & !Self::PRIORITY_MASK) | (p.level() << Self::PRIORITY_SHIFT))
    }
}

impl fmt::Debug for MsgFlags {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut parts: Vec<&str> = Vec::new();
        if self.contains(MsgFlags::REPLY_EXPECTED) {
            parts.push("REPLY_EXPECTED");
        }
        if self.contains(MsgFlags::IS_REPLY) {
            parts.push("IS_REPLY");
        }
        if self.contains(MsgFlags::FAIL) {
            parts.push("FAIL");
        }
        if self.contains(MsgFlags::MORE) {
            parts.push("MORE");
        }
        if self.contains(MsgFlags::CONTROL) {
            parts.push("CONTROL");
        }
        write!(
            f,
            "MsgFlags({} pri={})",
            parts.join("|"),
            self.priority().level()
        )
    }
}

/// One of the seven I2O scheduling priorities.
///
/// Paper §4: *"There exist seven priority levels and for each one the
/// messages are scheduled to a FIFO."* Level 6 is serviced first.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct Priority(u8);

impl Priority {
    /// Lowest priority (bulk data).
    pub const MIN: Priority = Priority(0);
    /// Default priority for application traffic.
    pub const NORMAL: Priority = Priority(3);
    /// Highest priority (control/urgent).
    pub const MAX: Priority = Priority(6);

    /// Creates a priority; `None` if the level exceeds 6.
    pub const fn new(level: u8) -> Option<Priority> {
        if level <= 6 {
            Some(Priority(level))
        } else {
            None
        }
    }

    /// Numeric level, 0..=6.
    pub const fn level(self) -> u8 {
        self.0
    }

    /// Iterates priorities from highest to lowest — the scheduler's
    /// service order.
    pub fn descending() -> impl Iterator<Item = Priority> {
        (0..=6u8).rev().map(Priority)
    }
}

impl fmt::Display for Priority {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn priority_range() {
        assert!(Priority::new(6).is_some());
        assert!(Priority::new(7).is_none());
        assert_eq!(Priority::MAX.level(), 6);
    }

    #[test]
    fn descending_covers_all_seven() {
        let v: Vec<u8> = Priority::descending().map(|p| p.level()).collect();
        assert_eq!(v, vec![6, 5, 4, 3, 2, 1, 0]);
    }

    #[test]
    fn flags_roundtrip_priority() {
        let f = MsgFlags::empty()
            .with(MsgFlags::REPLY_EXPECTED)
            .with_priority(Priority::new(5).unwrap());
        assert_eq!(f.priority().level(), 5);
        assert!(f.contains(MsgFlags::REPLY_EXPECTED));
        let g = MsgFlags::from_bits(f.bits());
        assert_eq!(f, g);
    }

    #[test]
    fn from_bits_saturates_undefined_priority_seven() {
        let raw = 0b1110_0000u8 | 0b0010_0000; // would be priority 7
        let f = MsgFlags::from_bits(raw | 1);
        assert_eq!(f.priority(), Priority::MAX);
        assert!(f.contains(MsgFlags::REPLY_EXPECTED));
    }

    #[test]
    fn with_and_without_do_not_touch_priority() {
        let f = MsgFlags::empty().with_priority(Priority::MAX);
        let g = f.with(MsgFlags::FAIL).without(MsgFlags::FAIL);
        assert_eq!(g.priority(), Priority::MAX);
        assert!(!g.contains(MsgFlags::FAIL));
    }

    #[test]
    fn union_takes_max_priority() {
        let a = MsgFlags::empty()
            .with_priority(Priority::new(2).unwrap())
            .with(MsgFlags::MORE);
        let b = MsgFlags::empty().with_priority(Priority::new(5).unwrap());
        let u = a.union(b);
        assert_eq!(u.priority().level(), 5);
        assert!(u.contains(MsgFlags::MORE));
    }
}
