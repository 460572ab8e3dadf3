//! Rendezvous (highest-random-weight) hashing: the affinity map from
//! template fingerprints to shards.
//!
//! For each `(fingerprint, shard)` pair a stable 64-bit score is
//! computed; a fingerprint's candidate order is the shards sorted by
//! descending score. The properties the dispatcher leans on:
//!
//! * **Affinity** — the same fingerprint always ranks the same shard
//!   first, so jobs sharing a template land where that template is
//!   already compiled (the paper's compile-once economy survives
//!   horizontal scaling).
//! * **Minimal disruption** — removing a shard only moves the
//!   fingerprints it owned; every other fingerprint keeps its owner
//!   (unlike modulo hashing, where one departure reshuffles nearly
//!   everything). The failover order is the same ranking, so a dead
//!   shard's keys spread over the survivors instead of piling onto one.
//!
//! The hash is [`Fnv64`], the FNV-1a that also names templates and
//! devices — deterministic across runs and platforms, which keeps
//! routing reproducible in tests and across a fleet of dispatchers.

use frozenqubits::Fnv64;

/// The rendezvous score of `(fingerprint, shard)`. A `0xff` separator
/// (never part of an address or a hex fingerprint) keeps the pair
/// encoding unambiguous.
#[must_use]
pub fn score(fingerprint: &str, shard: &str) -> u64 {
    let mut hash = Fnv64::new();
    hash.write(fingerprint.as_bytes());
    hash.write(&[0xff]);
    hash.write(shard.as_bytes());
    hash.finish()
}

/// Indices into `shards`, best candidate first, for `fingerprint`.
/// Deterministic: ties (practically unreachable with 64-bit scores)
/// break toward the lexicographically smaller address.
#[must_use]
pub fn rank(fingerprint: &str, shards: &[String]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..shards.len()).collect();
    order.sort_by(|&a, &b| {
        score(fingerprint, &shards[a])
            .cmp(&score(fingerprint, &shards[b]))
            .reverse()
            .then_with(|| shards[a].cmp(&shards[b]))
    });
    order
}

/// The best candidate alone — the fingerprint's *owner*, where the
/// sentinel converges its template.
#[must_use]
pub fn owner<'a>(fingerprint: &str, shards: &'a [String]) -> Option<&'a String> {
    rank(fingerprint, shards).first().map(|&i| &shards[i])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shards(n: usize) -> Vec<String> {
        (0..n).map(|i| format!("10.0.0.{i}:8077")).collect()
    }

    #[test]
    fn ranking_is_stable_and_total() {
        let pool = shards(5);
        let first = rank("00c0ffee00c0ffee", &pool);
        assert_eq!(first.len(), 5);
        let mut sorted = first.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2, 3, 4], "a permutation of all shards");
        for _ in 0..10 {
            assert_eq!(rank("00c0ffee00c0ffee", &pool), first);
        }
    }

    #[test]
    fn distinct_fingerprints_spread_over_shards() {
        let pool = shards(4);
        let mut owners = std::collections::BTreeSet::new();
        for i in 0..64 {
            let fp = format!("{i:016x}");
            owners.insert(owner(&fp, &pool).unwrap().clone());
        }
        // 64 fingerprints over 4 shards: every shard owns some.
        assert_eq!(owners.len(), 4);
    }

    #[test]
    fn removing_a_shard_only_moves_its_own_keys() {
        let full = shards(5);
        let removed = full[2].clone();
        let survivors: Vec<String> = full.iter().filter(|s| **s != removed).cloned().collect();
        for i in 0..128 {
            let fp = format!("{i:016x}");
            let before = owner(&fp, &full).unwrap().clone();
            let after = owner(&fp, &survivors).unwrap().clone();
            if before == removed {
                // Orphaned keys land on their *second* choice — the
                // same failover order the forwarder walks.
                let ranked = rank(&fp, &full);
                assert_eq!(after, full[ranked[1]]);
            } else {
                assert_eq!(before, after, "unaffected keys must not move");
            }
        }
    }

    #[test]
    fn scores_differ_by_both_inputs() {
        assert_ne!(score("a", "x"), score("b", "x"));
        assert_ne!(score("a", "x"), score("a", "y"));
        // The separator keeps ("ab","c") distinct from ("a","bc").
        assert_ne!(score("ab", "c"), score("a", "bc"));
    }

    /// Fixed scores and rankings: routing, and so which shard holds
    /// each template, must be the same in every build of every
    /// dispatcher of a fleet.
    #[test]
    fn scores_and_ranks_are_pinned() {
        for (fingerprint, shard, pinned) in [
            ("00c0ffee00c0ffee", "10.0.0.0:8077", 0x453f_ad03_2ebe_6eb7),
            ("00c0ffee00c0ffee", "127.0.0.1:8701", 0x17aa_43ab_6ed7_68b5),
            ("0123456789abcdef", "127.0.0.1:8702", 0x2d6b_b0a1_8c04_22ac),
            ("", "", 0xaf64_724c_8602_eb6e),
            ("", "127.0.0.1:8701", 0xaff2_7c82_3114_7b5d),
        ] {
            assert_eq!(
                score(fingerprint, shard),
                pinned,
                "{fingerprint:?} {shard:?}"
            );
        }
        let pool = shards(5);
        assert_eq!(rank("00c0ffee00c0ffee", &pool), [3, 1, 0, 2, 4]);
        assert_eq!(rank("0123456789abcdef", &pool), [4, 1, 3, 0, 2]);
        assert_eq!(rank("", &pool), [4, 3, 1, 0, 2]);
    }
}
