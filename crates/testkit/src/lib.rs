//! Hermetic test substrate for the SyMPVL workspace.
//!
//! The build environment has no network and no registry cache, so the
//! workspace cannot pull `rand`, `proptest`, or `criterion`. This crate
//! replaces the small slices of those three crates the repo actually
//! uses, with zero dependencies:
//!
//! * [`rng`] — a seedable SplitMix64/xoshiro256** PRNG exposing the
//!   `rand`-shaped surface the workload generators need
//!   ([`rng::SmallRng::seed_from_u64`], `gen_range`, `gen`, `gen_bool`).
//! * [`prop`] — a property-test runner with closure-driven strategies,
//!   fixed-seed case iteration and greedy input shrinking.
//! * [`bench`](mod@bench) — a criterion-free micro-bench harness (warmup +
//!   median/p90-of-N wall clock) that writes machine-readable JSON to
//!   `target/bench/BENCH_<suite>.json`.
//!
//! Everything here is deterministic per seed and per platform: the PRNG
//! is a fixed bit-exact algorithm, and each property test derives its
//! seed from a stable hash of the test name.

pub mod bench;
pub mod prop;
pub mod rng;

pub use rng::SmallRng;

/// FNV-1a hash of a byte string; the stable name→seed map used by the
/// property runner and handy for golden-output tests.
#[must_use]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_reference_vectors() {
        // Published FNV-1a test vectors.
        assert_eq!(fnv1a(b""), 0xcbf29ce484222325);
        assert_eq!(fnv1a(b"a"), 0xaf63dc4c8601ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
    }
}
