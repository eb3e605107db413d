//! Event-fragment headers.
//!
//! Detector data travels as *fragments*: each readout unit contributes
//! one fragment per event; a builder unit owns the event and assembles
//! the fragments from all sources. The header rides at the front of
//! the private-frame payload.

/// Fixed 16-byte fragment header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FragmentHeader {
    /// Globally increasing event number.
    pub event_id: u64,
    /// Which readout unit produced this fragment.
    pub source_id: u16,
    /// How many sources contribute to each event.
    pub total_sources: u16,
    /// Payload bytes following the header.
    pub len: u32,
}

/// Encoded header size.
pub const FRAGMENT_HEADER_LEN: usize = 16;

impl FragmentHeader {
    /// Writes the header into the first 16 bytes of `buf`.
    pub fn encode(&self, buf: &mut [u8]) {
        assert!(buf.len() >= FRAGMENT_HEADER_LEN);
        buf[0..8].copy_from_slice(&self.event_id.to_le_bytes());
        buf[8..10].copy_from_slice(&self.source_id.to_le_bytes());
        buf[10..12].copy_from_slice(&self.total_sources.to_le_bytes());
        buf[12..16].copy_from_slice(&self.len.to_le_bytes());
    }

    /// Reads a header from `buf`.
    pub fn decode(buf: &[u8]) -> Option<FragmentHeader> {
        if buf.len() < FRAGMENT_HEADER_LEN {
            return None;
        }
        Some(FragmentHeader {
            event_id: u64::from_le_bytes(buf[0..8].try_into().unwrap()),
            source_id: u16::from_le_bytes(buf[8..10].try_into().unwrap()),
            total_sources: u16::from_le_bytes(buf[10..12].try_into().unwrap()),
            len: u32::from_le_bytes(buf[12..16].try_into().unwrap()),
        })
    }

    /// Seed of the pattern bytes: byte `i` of the data is
    /// `seed.wrapping_add(i) % 251`, so builders can verify integrity
    /// from the header alone.
    fn pattern_seed(&self) -> u32 {
        (self.event_id as u32)
            .wrapping_mul(31)
            .wrapping_add(self.source_id as u32)
    }

    /// Writes a complete fragment payload — header plus `len` pattern
    /// bytes — into `out`, which must be exactly
    /// `FRAGMENT_HEADER_LEN + len` long. This is what a readout unit
    /// hands [`xdaq_core::Dispatcher::send_private_with`], so the
    /// fragment is produced once, in the pool block that travels.
    pub fn fill_payload(&self, out: &mut [u8]) {
        assert_eq!(out.len(), FRAGMENT_HEADER_LEN + self.len as usize);
        self.encode(out);
        let data = &mut out[FRAGMENT_HEADER_LEN..];
        for (range, ramp) in PatternRuns::new(self.pattern_seed(), data.len()) {
            data[range].copy_from_slice(ramp);
        }
    }

    /// Builds a complete fragment payload: header + `len` bytes of
    /// deterministic pattern data (seeded by event and source so
    /// builders can verify integrity).
    pub fn build_payload(&self) -> Vec<u8> {
        let mut out = vec![0u8; FRAGMENT_HEADER_LEN + self.len as usize];
        self.fill_payload(&mut out);
        out
    }

    /// Verifies pattern data produced by [`FragmentHeader::build_payload`].
    pub fn verify_payload(&self, payload: &[u8]) -> bool {
        if payload.len() != FRAGMENT_HEADER_LEN + self.len as usize {
            return false;
        }
        let data = &payload[FRAGMENT_HEADER_LEN..];
        PatternRuns::new(self.pattern_seed(), data.len()).all(|(range, ramp)| data[range] == *ramp)
    }
}

/// Period of the pattern: a ramp 0, 1, …, 250, 0, 1, …
const PERIOD: usize = 251;
/// The ramp repeated a whole number of periods, so a run that ends at
/// the table's end continues at its start.
const RAMP_LEN: usize = PERIOD * 16;
static RAMP: [u8; RAMP_LEN] = {
    let mut t = [0u8; RAMP_LEN];
    let mut i = 0;
    while i < RAMP_LEN {
        t[i] = (i % PERIOD) as u8;
        i += 1;
    }
    t
};

/// Cuts `len` pattern bytes into runs that each equal one contiguous
/// slice of [`RAMP`], so fill is `memcpy` and verify is `memcmp`. A run
/// ends at the end of the table or where `seed + i` wraps past 2³² —
/// there the ramp restarts at 0 out of phase, because 2³² is not a
/// multiple of 251.
struct PatternRuns {
    seed: u32,
    pos: usize,
    len: usize,
}

impl PatternRuns {
    fn new(seed: u32, len: usize) -> PatternRuns {
        PatternRuns { seed, pos: 0, len }
    }
}

impl Iterator for PatternRuns {
    type Item = (std::ops::Range<usize>, &'static [u8]);

    fn next(&mut self) -> Option<Self::Item> {
        if self.pos == self.len {
            return None;
        }
        let x = self.seed.wrapping_add(self.pos as u32);
        let phase = x as usize % PERIOD;
        let until_wrap = (u32::MAX - x) as usize + 1;
        let n = (self.len - self.pos).min(RAMP_LEN - phase).min(until_wrap);
        let start = self.pos;
        self.pos += n;
        Some((start..self.pos, &RAMP[phase..phase + n]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_roundtrip() {
        let h = FragmentHeader {
            event_id: 0xDEAD_BEEF_1234,
            source_id: 7,
            total_sources: 16,
            len: 4096,
        };
        let mut buf = [0u8; FRAGMENT_HEADER_LEN];
        h.encode(&mut buf);
        assert_eq!(FragmentHeader::decode(&buf), Some(h));
    }

    #[test]
    fn decode_rejects_short_buffer() {
        assert_eq!(FragmentHeader::decode(&[0u8; 15]), None);
    }

    #[test]
    fn payload_builds_and_verifies() {
        let h = FragmentHeader {
            event_id: 42,
            source_id: 3,
            total_sources: 4,
            len: 100,
        };
        let p = h.build_payload();
        assert_eq!(p.len(), 116);
        assert!(h.verify_payload(&p));
        let mut corrupted = p.clone();
        corrupted[50] ^= 0xFF;
        assert!(!h.verify_payload(&corrupted));
        assert!(!h.verify_payload(&p[..100]));
    }

    #[test]
    fn runs_reproduce_the_scalar_definition_across_the_u32_wrap() {
        // 2^32 % 251 == 123: the ramp jumps from 122 to 0 at the wrap.
        for seed in [0, 250, 251, u32::MAX - 5000, u32::MAX - 100, u32::MAX] {
            for len in [0usize, 1, 100, 101, 251, RAMP_LEN - 1, RAMP_LEN + 7, 10_000] {
                let mut got = vec![0xEEu8; len];
                for (range, ramp) in PatternRuns::new(seed, len) {
                    got[range].copy_from_slice(ramp);
                }
                let want: Vec<u8> = (0..len)
                    .map(|i| (seed.wrapping_add(i as u32) % 251) as u8)
                    .collect();
                assert_eq!(got, want, "seed {seed} len {len}");
            }
        }
    }

    #[test]
    fn different_sources_differ() {
        let a = FragmentHeader {
            event_id: 1,
            source_id: 0,
            total_sources: 2,
            len: 32,
        };
        let b = FragmentHeader {
            event_id: 1,
            source_id: 1,
            total_sources: 2,
            len: 32,
        };
        assert_ne!(a.build_payload()[16..], b.build_payload()[16..]);
    }
}
