//! Fleet execution (§2.2, §5.2): sharding cases across worker threads.
//!
//! Dr.Fix ran as a fleet service over Uber's 97-MLoC monorepo; this
//! module is the reproduction's equivalent — [`run_indexed`], a
//! deterministic work-queue executor that spreads independent jobs over
//! `std::thread::scope` workers while keeping results **bit-identical to
//! the serial path**, whatever the thread count — plus the seed
//! derivations that make that possible.
//!
//! Determinism comes from two rules:
//!
//! 1. every case `i` runs with its own seed, derived as
//!    `splitmix64(base ⊕ splitmix64(i))` — no case ever observes another
//!    case's position in the schedule, so sharding cannot change
//!    outcomes;
//! 2. results are written back into an index-addressed slot table, so
//!    output order is corpus order regardless of which worker finished
//!    first.
//!
//! The caller chooses the worker count and times the run; the library
//! reads no environment.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// SplitMix64: the standard 64-bit finalizing mixer (Steele et al.),
/// used to derive statistically independent per-case seeds from one
/// base seed. Re-exported from [`govm::sched`], which uses the same
/// mixer for per-run campaign seeds ([`govm::sched::derive_seed`])
/// — one derivation shared by fleet sharding and schedule exploration.
pub use govm::sched::splitmix64;

/// Derives the seed for case `index` from the arm's base seed.
///
/// The derivation depends only on `(base, index)` — never on thread
/// count or completion order — which is what makes parallel runs
/// bit-identical to serial ones. It is intentionally the same
/// `splitmix64(base ⊕ splitmix64(index))` stream that
/// [`govm::sched::derive_seed`] uses per run, so case-level and
/// run-level seed spaces stay uncorrelated by construction.
pub fn derive_case_seed(base: u64, index: u64) -> u64 {
    govm::sched::derive_seed(base, index)
}

/// Derives the seed for one validation campaign from the pipeline seed,
/// the reproduced race's bug hash, and the attempt ordinal.
///
/// Folding in the attempt ordinal is the fix for a real bug: validating
/// every retry with one constant seed re-samples the identical schedule
/// set, so feedback retries could never escape schedule-sampling luck.
pub fn derive_validation_seed(base: u64, bug_hash: &str, attempt: u32) -> u64 {
    // FNV-1a over the bug hash keeps the derivation stable across runs
    // (no dependence on the process's hasher state).
    let h = fnv1a64_fold(FNV1A_OFFSET, bug_hash.as_bytes());
    splitmix64(base ^ splitmix64(h) ^ u64::from(attempt).rotate_left(32))
}

/// FNV-1a 64-bit offset basis — the starting value for [`fnv1a64_fold`].
pub const FNV1A_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

/// Folds `bytes` into an FNV-1a running hash. Chain calls (feeding the
/// previous result back as `h`) to hash multi-part keys.
pub fn fnv1a64_fold(mut h: u64, bytes: &[u8]) -> u64 {
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Runs `job(0..n)` on up to `threads` worker threads and returns the
/// results in index order. This is the crate's one thread-spawning
/// executor: the paper-table arms, the example database build and the
/// campaign worker pool all run on it.
///
/// Workers claim indices off one atomic cursor and write each result
/// into its index's slot, so output order is index order whatever order
/// jobs finish in. Because `job` receives only the index — and the
/// drfix jobs derive all randomness from [`derive_case_seed`] — the
/// result vector is bit-identical for every thread count. One thread
/// (or one job) runs the jobs inline on the calling thread.
pub fn run_indexed<T, F>(threads: usize, n: usize, job: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let threads = threads.clamp(1, n.max(1));
    if threads == 1 {
        return (0..n).map(job).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                *slots[i].lock().expect("fleet slot poisoned") = Some(job(i));
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            let out = slot.into_inner().expect("fleet slot poisoned");
            out.expect("a worker ran every index")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_matches_reference_vectors() {
        // Published SplitMix64 test vectors (seed 1234567 stream).
        assert_eq!(splitmix64(1234567), 6457827717110365317);
        assert_eq!(
            splitmix64(1234567 + 0x9E37_79B9_7F4A_7C15),
            3203168211198807973
        );
    }

    #[test]
    fn derived_seeds_are_distinct_per_case_and_attempt() {
        let mut seen = std::collections::HashSet::new();
        for i in 0..256 {
            assert!(seen.insert(derive_case_seed(0xFEED, i)));
        }
        let a = derive_validation_seed(1, "deadbeef", 1);
        let b = derive_validation_seed(1, "deadbeef", 2);
        let c = derive_validation_seed(1, "beefdead", 1);
        assert_ne!(a, b, "attempts must re-sample schedules");
        assert_ne!(a, c, "different bugs must get different schedules");
        assert_eq!(
            a,
            derive_validation_seed(1, "deadbeef", 1),
            "derivation is pure"
        );
    }

    #[test]
    fn run_indexed_preserves_submission_order() {
        for threads in [0, 1, 2, 8] {
            let results = run_indexed(threads, 100, |i| i * 3);
            assert_eq!(results, (0..100).map(|i| i * 3).collect::<Vec<_>>());
        }
    }

    #[test]
    fn empty_fleet_run_is_fine() {
        assert!(run_indexed(4, 0, |i| i).is_empty());
    }
}
