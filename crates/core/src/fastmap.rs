//! Hash maps and sets for node-local keys: TiDs, timer ids, the
//! addresses of links this node opened or accepted, and the event ids
//! the cluster's own event manager mints. Their hasher (one rotate, xor
//! and multiply per word, the FxHash scheme) resists no chosen-key
//! attack, so keys remote peers choose stay on SipHash (DESIGN.md §10).

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// A `HashMap` on [`FastHasher`]; build with `FastMap::default()`.
pub type FastMap<K, V> = HashMap<K, V, BuildHasherDefault<FastHasher>>;

/// A `HashSet` on [`FastHasher`]; build with `FastSet::default()`.
pub type FastSet<K> = HashSet<K, BuildHasherDefault<FastHasher>>;

/// The multiplicative hasher behind [`FastMap`].
#[derive(Default, Clone, Copy)]
pub struct FastHasher(u64);

impl Hasher for FastHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.0 = (self.0.rotate_left(5) ^ v).wrapping_mul(0x517c_c1b7_2722_0a95);
    }

    #[inline]
    fn write_u16(&mut self, v: u16) {
        self.write_u64(v.into());
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}
