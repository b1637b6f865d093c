//! Namespace layout map for the sharded multi-server configuration
//! (DESIGN.md §18).
//!
//! The exported namespace is partitioned at the export root: every
//! top-level name is owned by exactly one shard, chosen by a
//! deterministic hash of the name (FNV-1a) modulo the shard count, plus
//! an override table that records names whose ownership moved via a
//! cross-shard rename/link. Clients cache a copy of the map and route
//! each root-level operation to the owning shard; a shard that receives
//! an operation for a name it does not own replies `WrongShard` with the
//! authoritative epoch and the full override delta, Fletch-style, and
//! the client refreshes its cache and re-routes.
//!
//! Entries below the root never move between shards: a shard owns the
//! whole subtree under each root name it owns, and file handles carry
//! the shard identity in their `fsid` (shard `s` exports `fsid = s + 1`),
//! so handle-addressed operations route without consulting the map.

use std::collections::BTreeMap;

/// 64-bit FNV-1a: the workspace's one stable, dependency-free hash. It
/// places names on shards here and digests server contents and traces
/// in the harness, so its values are committed in baselines and tests.
pub struct Fnv(pub u64);

impl Fnv {
    /// The hash of nothing (the FNV offset basis).
    pub const EMPTY: Fnv = Fnv(0xcbf2_9ce4_8422_2325);

    /// Folds `bytes` in.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Default (hash-placed) owner of a root-level `name` among `n` shards.
///
/// FNV-1a over the name bytes, reduced modulo `n`. Deterministic across
/// runs and processes — the trace checker recomputes it independently.
pub fn default_shard(name: &str, n: u32) -> u32 {
    if n <= 1 {
        return 0;
    }
    let mut h = Fnv::EMPTY;
    h.write(name.as_bytes());
    (h.0 % n as u64) as u32
}

/// The namespace layout map: shard count, epoch, and ownership overrides.
///
/// The epoch starts at 1 and increments on every ownership change; a
/// client holding an older epoch may route to the wrong shard, which is
/// detected server-side and corrected via [`NfsReply::WrongShard`].
///
/// [`NfsReply::WrongShard`]: crate::NfsReply::WrongShard
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Layout {
    n: u32,
    epoch: u64,
    overrides: BTreeMap<String, u32>,
}

impl Layout {
    /// A fresh layout over `n` shards at epoch 1 with no overrides.
    pub fn new(n: u32) -> Self {
        assert!(n >= 1, "layout needs at least one shard");
        Layout {
            n,
            epoch: 1,
            overrides: BTreeMap::new(),
        }
    }

    /// Number of shards.
    pub fn n(&self) -> u32 {
        self.n
    }

    /// Current epoch (starts at 1, bumps on every ownership change).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The shard that owns root-level `name` at this epoch.
    pub fn owner(&self, name: &str) -> u32 {
        self.overrides
            .get(name)
            .copied()
            .unwrap_or_else(|| default_shard(name, self.n))
    }

    /// The full override delta, for `WrongShard` replies. Small in
    /// practice: only names moved by cross-shard renames/links appear.
    pub fn moves(&self) -> Vec<(String, u32)> {
        self.overrides
            .iter()
            .map(|(k, v)| (k.clone(), *v))
            .collect()
    }

    /// Authority side: record that `to_name` is now owned by `shard`
    /// (and that `from_name`, if given, ceased to exist there — its
    /// override is dropped so a re-created entry hash-places normally).
    /// Bumps and returns the new epoch.
    pub fn record_move(&mut self, from_name: Option<&str>, to_name: &str, shard: u32) -> u64 {
        if let Some(f) = from_name {
            self.overrides.remove(f);
        }
        if default_shard(to_name, self.n) == shard {
            self.overrides.remove(to_name);
        } else {
            self.overrides.insert(to_name.to_string(), shard);
        }
        self.epoch += 1;
        self.epoch
    }

    /// Client side: adopt a fresh epoch + override delta from a
    /// `WrongShard` reply. Older epochs are ignored.
    pub fn apply(&mut self, epoch: u64, moves: &[(String, u32)]) {
        if epoch <= self.epoch {
            return;
        }
        self.epoch = epoch;
        self.overrides = moves.iter().cloned().collect();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_shard_owns_everything() {
        let l = Layout::new(1);
        assert_eq!(l.owner("anything"), 0);
        assert_eq!(default_shard("anything", 1), 0);
    }

    #[test]
    fn hash_placement_is_deterministic_and_in_range() {
        for n in [2u32, 4, 8] {
            for name in ["src", "target", "tmp", "u17", "a-long-name"] {
                let s = default_shard(name, n);
                assert!(s < n);
                assert_eq!(s, default_shard(name, n), "stable for {name}/{n}");
            }
        }
    }

    #[test]
    fn record_move_overrides_and_bumps_epoch() {
        let mut l = Layout::new(4);
        let home = l.owner("doc");
        let other = (home + 1) % 4;
        let e = l.record_move(Some("old"), "doc", other);
        assert_eq!(e, 2);
        assert_eq!(l.owner("doc"), other);
        // Moving it back to its hash home drops the override entirely.
        let e = l.record_move(None, "doc", home);
        assert_eq!(e, 3);
        assert_eq!(l.owner("doc"), home);
        assert!(l.moves().is_empty());
    }

    #[test]
    fn apply_ignores_stale_epochs() {
        let mut l = Layout::new(4);
        l.apply(5, &[("doc".into(), 3)]);
        assert_eq!(l.epoch(), 5);
        assert_eq!(l.owner("doc"), 3);
        l.apply(4, &[]);
        assert_eq!(l.owner("doc"), 3, "stale delta must not regress the map");
    }
}
