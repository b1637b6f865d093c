//! The workspace's one hasher: every map in the simulation is a [`Map`]
//! or a [`Set`] over [`Mix`].

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// A multiply and a rotate per word (the hasher rustc uses). Every key a
/// map here holds — handles, ids, block numbers, names — is one the
/// simulation made, so SipHash's flood resistance buys nothing here and
/// its rounds cost time on every lookup. Unseeded, so a map iterates in
/// the same order in every process.
#[derive(Default)]
pub struct Mix(u64);

impl Hasher for Mix {
    /// Eight bytes per multiply, the last word zero-padded.
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self.write_u64(u64::from_le_bytes(w.try_into().unwrap()));
        }
        let rest = words.remainder();
        if !rest.is_empty() {
            let mut last = [0u8; 8];
            last[..rest.len()].copy_from_slice(rest);
            self.write_u64(u64::from_le_bytes(last));
        }
    }

    fn write_u8(&mut self, n: u8) {
        self.write_u64(n.into());
    }

    fn write_u32(&mut self, n: u32) {
        self.write_u64(n.into());
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(0x517c_c1b7_2722_0a95);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// A `HashMap` over [`Mix`].
pub type Map<K, V> = HashMap<K, V, BuildHasherDefault<Mix>>;

/// A `HashSet` over [`Mix`].
pub type Set<K> = HashSet<K, BuildHasherDefault<Mix>>;
