//! The evaluation digest: FNV-1a 64 over the little-endian bytes of every
//! round — the time bits, the result count, then per result its query
//! id, its member count and its member ids. Equal digest chains ⇔
//! bit-identical evaluation histories, which is what every served pin
//! holds the engine to.
//!
//! The engine folds its own rounds through this module
//! ([`CqServer::evaluate_digest`](crate::cq_engine::CqServer::evaluate_digest)),
//! and `lira_serve::protocol` re-exports it for clients that fold
//! materialised results.
//!
//! # The narrow fold
//!
//! A member id is four bytes, and an FNV-1a step over a zero byte only
//! multiplies by the prime (the xor is a no-op). So an id below 2²⁴,
//! whose top byte is zero, folds its last two steps into one multiply by
//! `FNV_PRIME²`: three links in the multiply chain instead of four, with
//! the same value. The width is chosen once per list, from its largest id
//! (or any upper bound of it): a choice per id compiles into a select
//! that computes both chains.

use crate::query::QueryResult;

/// FNV-1a 64-bit offset basis.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
pub const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
/// Two FNV-1a steps over a zero byte.
const FNV_PRIME_SQ: u64 = FNV_PRIME.wrapping_mul(FNV_PRIME);
/// Ids below this have a zero top byte, and fold narrow.
pub(crate) const NARROW: u32 = 1 << 24;

/// Folds `bytes` into an FNV-1a 64-bit hash state.
pub fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// `fnv1a(h, &n.to_le_bytes())`, unrolled.
#[inline(always)]
pub(crate) fn fold_wide(h: u64, n: u32) -> u64 {
    let h = (h ^ (n & 0xff) as u64).wrapping_mul(FNV_PRIME);
    let h = (h ^ (n >> 8 & 0xff) as u64).wrapping_mul(FNV_PRIME);
    let h = (h ^ (n >> 16 & 0xff) as u64).wrapping_mul(FNV_PRIME);
    (h ^ (n >> 24) as u64).wrapping_mul(FNV_PRIME)
}

/// [`fold_wide`] for an id below [`NARROW`], in three multiplies (module
/// docs, *The narrow fold*).
#[inline(always)]
pub(crate) fn fold_narrow(h: u64, n: u32) -> u64 {
    debug_assert!(n < NARROW, "id {n} folded narrow");
    let h = (h ^ (n & 0xff) as u64).wrapping_mul(FNV_PRIME);
    let h = (h ^ (n >> 8 & 0xff) as u64).wrapping_mul(FNV_PRIME);
    (h ^ (n >> 16) as u64).wrapping_mul(FNV_PRIME_SQ)
}

/// Folds `ids` in order, none of them above `max`.
#[inline]
pub(crate) fn fold_ids(h: u64, ids: &[u32], max: u32) -> u64 {
    if max < NARROW {
        ids.iter().fold(h, |h, &n| fold_narrow(h, n))
    } else {
        ids.iter().fold(h, |h, &n| fold_wide(h, n))
    }
}

/// Opens a round on the chain `prev` (0 starts a new chain): its time
/// bits and its result count.
#[inline]
pub(crate) fn open_round(prev: u64, t: f64, results: usize) -> u64 {
    let h = if prev == 0 { FNV_OFFSET } else { prev };
    let h = fnv1a(h, &t.to_bits().to_le_bytes());
    fnv1a(h, &(results as u64).to_le_bytes())
}

/// Opens one result: its query id and its member count.
#[inline]
pub(crate) fn open_list(h: u64, query: u32, len: usize) -> u64 {
    let h = fnv1a(h, &query.to_le_bytes());
    fnv1a(h, &(len as u64).to_le_bytes())
}

/// Folds one evaluation round into a rolling digest: the timestamp bits,
/// then every result's query id, node count, and node ids, in order.
/// Equal digest chains ⇔ bit-identical evaluation histories.
pub fn digest_round(prev: u64, t: f64, results: &[QueryResult]) -> u64 {
    results
        .iter()
        .fold(open_round(prev, t, results.len()), |h, r| {
            let max = r.nodes.iter().copied().max().unwrap_or(0);
            fold_ids(open_list(h, r.query, r.nodes.len()), &r.nodes, max)
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Ids on both sides of every byte boundary the narrow fold cares
    /// about.
    const EDGES: [u32; 7] = [0, 255, (1 << 16) - 1, 1 << 16, NARROW - 1, NARROW, u32::MAX];

    #[test]
    fn each_id_folds_its_four_bytes() {
        for h in [FNV_OFFSET, 1, u64::MAX] {
            for n in EDGES {
                let bytes = fnv1a(h, &n.to_le_bytes());
                assert_eq!(fold_wide(h, n), bytes, "wide fold of {n}");
                if n < NARROW {
                    assert_eq!(fold_narrow(h, n), bytes, "narrow fold of {n}");
                }
            }
        }
    }

    #[test]
    fn a_list_folds_narrow_only_below_two_to_the_24() {
        let bytes = |ids: &[u32]| {
            ids.iter()
                .fold(FNV_OFFSET, |h, n| fnv1a(h, &n.to_le_bytes()))
        };
        for ids in [
            &[][..],
            &[0, 255, 65_535, 65_536, NARROW - 1],
            &[3, NARROW],
            &[0, NARROW - 1, NARROW, u32::MAX],
        ] {
            let max = ids.iter().copied().max().unwrap_or(0);
            assert_eq!(fold_ids(FNV_OFFSET, ids, max), bytes(ids), "{ids:?}");
        }
        // `digest_round` takes its members in any order: the width comes
        // from the largest, not the last.
        let r = QueryResult {
            query: 7,
            nodes: vec![NARROW + 5, 3],
        };
        let h = open_round(0, 1.5, 1);
        let h = fnv1a(open_list(h, 7, 2), &(NARROW + 5).to_le_bytes());
        assert_eq!(digest_round(0, 1.5, &[r]), fnv1a(h, &3u32.to_le_bytes()));
    }
}
