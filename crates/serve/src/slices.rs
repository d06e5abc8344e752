//! Fixed-slice routing, kept only for the frozen `benchmark/` crate's
//! in-process replica, which times the routing step the session once ran
//! (ROADMAP item 11 deletes both). The session itself routes nothing: it
//! has one admission ledger, and `SetSlice` is a no-op.
//!
//! `hash(id) % slices` picks a slice, and a slice→shard table, assigned
//! round-robin, names a shard. The hash is seedless FNV-1a over the node
//! id's little-endian bytes, so a node id always lands in the same slice.

use crate::protocol::{fnv1a, FNV_OFFSET};

/// The slice-routing table.
#[derive(Debug, Clone)]
pub struct SliceTable {
    shard_of_slice: Vec<u32>,
}

impl SliceTable {
    /// A table of `slices` entries over `shards` shards, assigned
    /// round-robin (`slice % shards`). Both counts must be ≥ 1.
    pub fn new(slices: usize, shards: usize) -> Self {
        assert!(slices >= 1, "need at least one slice");
        assert!(shards >= 1, "need at least one shard");
        SliceTable {
            shard_of_slice: (0..slices).map(|s| (s % shards) as u32).collect(),
        }
    }

    /// The slice a node id hashes into.
    pub fn slice_of(&self, id: u32) -> usize {
        (fnv1a(FNV_OFFSET, &id.to_le_bytes()) % self.shard_of_slice.len() as u64) as usize
    }

    /// Per-slice shard assignments.
    pub fn assignments(&self) -> &[u32] {
        &self.shard_of_slice
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn routing_is_deterministic_and_total() {
        let t = SliceTable::new(64, 4);
        for id in 0..10_000u32 {
            let s = t.slice_of(id);
            assert!(s < 64);
            assert_eq!(s, t.slice_of(id), "stable per id");
            assert_eq!(t.assignments()[s], (s % 4) as u32, "round-robin map");
        }
    }

    #[test]
    fn slices_spread_ids_roughly_evenly() {
        let t = SliceTable::new(64, 4);
        let mut counts = vec![0u32; 64];
        for id in 0..64_000u32 {
            counts[t.slice_of(id)] += 1;
        }
        let (min, max) = (*counts.iter().min().unwrap(), *counts.iter().max().unwrap());
        // 1000/slice expected; FNV-1a over sequential ids should stay
        // within a loose band.
        assert!(min > 700 && max < 1300, "min {min} max {max}");
    }
}
