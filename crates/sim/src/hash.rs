//! A keyed fast hasher for the simulator's hot maps.
//!
//! The coherence directories, the row-hammer monitor and the fault
//! tables key their maps by line addresses, page numbers and small
//! integer tuples, and look them up on every simulated access. std's
//! SipHash spends most of that time on byte-stream rounds the keys do
//! not need. [`FastHasher`] mixes each integer with one folded multiply
//! (the 128-bit product with its two halves XORed together) and
//! finishes with a second one.
//!
//! The hasher is keyed once per process from std's [`RandomState`], so
//! map iteration order stays as unspecified as with std's maps (anything
//! that reaches timed state must sort first; DESIGN.md §6), and a client
//! whose addresses reach these maps cannot precompute colliding keys.
//!
//! # Example
//!
//! ```
//! use dve_sim::hash::FastMap;
//!
//! let mut m: FastMap<u64, &str> = FastMap::default();
//! m.insert(0x40, "line");
//! assert_eq!(m.get(&0x40), Some(&"line"));
//! ```

use std::collections::hash_map::RandomState;
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasher, Hasher};
use std::sync::OnceLock;

/// A [`HashMap`] hashed with [`FastState`].
pub type FastMap<K, V> = HashMap<K, V, FastState>;

/// A [`HashSet`] hashed with [`FastState`].
pub type FastSet<T> = HashSet<T, FastState>;

/// An odd 64-bit multiplier (the PCG/Knuth LCG constant).
const MUL: u64 = 0x5851_f42d_4c95_7f2d;

/// The 64×64→128-bit product folded to 64 bits by XORing its halves.
#[inline]
fn fold_mul(x: u64, y: u64) -> u64 {
    let p = u128::from(x) * u128::from(y);
    (p as u64) ^ ((p >> 64) as u64)
}

/// Builds [`FastHasher`]s carrying the process-wide key. Every
/// `FastState` in a process holds the same key, drawn on first use.
#[derive(Debug, Clone, Copy)]
pub struct FastState {
    seed: u64,
    pad: u64,
}

impl Default for FastState {
    fn default() -> FastState {
        static KEY: OnceLock<(u64, u64)> = OnceLock::new();
        let &(seed, pad) = KEY.get_or_init(|| {
            let rs = RandomState::new();
            (rs.hash_one(0u64), rs.hash_one(1u64))
        });
        FastState { seed, pad }
    }
}

impl BuildHasher for FastState {
    type Hasher = FastHasher;

    #[inline]
    fn build_hasher(&self) -> FastHasher {
        FastHasher {
            state: self.seed,
            pad: self.pad,
        }
    }
}

/// The folded-multiply hasher (see the module docs).
#[derive(Debug, Clone)]
pub struct FastHasher {
    state: u64,
    pad: u64,
}

impl Hasher for FastHasher {
    #[inline]
    fn write_u64(&mut self, x: u64) {
        self.state = fold_mul(self.state ^ x, MUL);
    }

    #[inline]
    fn write_u8(&mut self, x: u8) {
        self.write_u64(u64::from(x));
    }

    #[inline]
    fn write_u16(&mut self, x: u16) {
        self.write_u64(u64::from(x));
    }

    #[inline]
    fn write_u32(&mut self, x: u32) {
        self.write_u64(u64::from(x));
    }

    #[inline]
    fn write_u128(&mut self, x: u128) {
        self.write_u64(x as u64);
        self.write_u64((x >> 64) as u64);
    }

    #[inline]
    fn write_usize(&mut self, x: usize) {
        self.write_u64(x as u64);
    }

    /// Byte strings go in as little-endian 8-byte words, the zero-padded
    /// tail last, then the length (so trailing zero bytes still count).
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self.write_u64(u64::from_le_bytes(w.try_into().expect("8-byte chunk")));
        }
        let tail = words.remainder();
        let mut buf = [0u8; 8];
        buf[..tail.len()].copy_from_slice(tail);
        self.write_u64(u64::from_le_bytes(buf));
        self.write_usize(bytes.len());
    }

    #[inline]
    fn finish(&self) -> u64 {
        fold_mul(self.state, self.pad)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hash_of(f: impl FnOnce(&mut FastHasher)) -> u64 {
        let mut h = FastState::default().build_hasher();
        f(&mut h);
        h.finish()
    }

    #[test]
    fn every_integer_write_matches_its_widened_u64() {
        let x = 0xA5u8;
        let want = hash_of(|h| h.write_u64(u64::from(x)));
        assert_eq!(hash_of(|h| h.write_u8(x)), want);
        assert_eq!(hash_of(|h| h.write_u16(u16::from(x))), want);
        assert_eq!(hash_of(|h| h.write_u32(u32::from(x))), want);
        assert_eq!(hash_of(|h| h.write_usize(usize::from(x))), want);
        // Signed writes delegate to the unsigned ones of equal width.
        assert_eq!(hash_of(|h| h.write_i64(0xA5)), want);
        assert_eq!(hash_of(|h| h.write_isize(0xA5)), want);
        // u128 hashes its low then high word.
        let wide = (7u128 << 64) | 9;
        let words = hash_of(|h| {
            h.write_u64(9);
            h.write_u64(7);
        });
        assert_eq!(hash_of(|h| h.write_u128(wide)), words);
        assert_eq!(hash_of(|h| h.write_i128(wide as i128)), words);
    }

    #[test]
    fn byte_writes_separate_lengths_and_contents() {
        let digests: Vec<u64> = [
            &b""[..],
            b"\0",
            b"\0\0\0\0\0\0\0\0",
            b"\0\0\0\0\0\0\0\0\0",
            b"a",
            b"b",
            b"abcdefgh",
            b"abcdefghi",
            b"abcdefgi",
        ]
        .iter()
        .map(|b| hash_of(|h| h.write(b)))
        .collect();
        let mut uniq = digests.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), digests.len(), "{digests:x?}");
        // Within a process the same bytes always hash the same.
        assert_eq!(hash_of(|h| h.write(b"abcdefghi")), digests[7]);
        assert_eq!(
            FastState::default().hash_one("dve"),
            FastState::default().hash_one("dve")
        );
    }

    #[test]
    fn hashing_is_stable_within_a_process() {
        // The key is drawn once: every state carries the same two words.
        let s = FastState::default();
        let again = FastState::default();
        assert_eq!((s.seed, s.pad), (again.seed, again.pad));
        assert_ne!(s.seed, s.pad, "two independent key words");
        for k in [0u64, 1, 0x40, u64::MAX] {
            assert_eq!(s.hash_one(k), FastState::default().hash_one(k));
        }
        let tuple = (3usize, 5usize, 7usize, 0xdead_beefu64);
        assert_eq!(s.hash_one(tuple), s.hash_one(tuple));
        assert_ne!(s.hash_one((1usize, 2u64)), s.hash_one((2usize, 1u64)));
    }

    #[test]
    fn line_address_streams_hash_distinctly() {
        const N: u64 = 1 << 20;
        let s = FastState::default();
        // Sequential lines, and lines one 4 KiB page (64 lines) apart.
        for stride in [1u64, 64] {
            let mut hashes: Vec<u64> = (0..N).map(|i| s.hash_one(i * stride)).collect();
            hashes.sort_unstable();
            hashes.dedup();
            assert_eq!(hashes.len() as u64, N, "stride {stride} collides");
        }
    }

    #[test]
    fn maps_behave_like_std_maps() {
        let mut fast: FastMap<(usize, u64), u64> = FastMap::default();
        let mut std_map: HashMap<(usize, u64), u64> = HashMap::new();
        let mut set: FastSet<u64> = (0..100).collect();
        for i in 0..10_000u64 {
            let k = ((i % 7) as usize, (i * 2_654_435_761) % 513);
            *fast.entry(k).or_insert(0) += i;
            *std_map.entry(k).or_insert(0) += i;
            set.remove(&(i % 150));
        }
        let mut a: Vec<_> = fast.into_iter().collect();
        let mut b: Vec<_> = std_map.into_iter().collect();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
        assert!(set.is_empty());
    }
}
