//! Fleet execution (§2.2, §5.2): sharding cases across worker threads.
//!
//! Dr.Fix ran as a fleet service over Uber's 97-MLoC monorepo; this
//! module is the reproduction's equivalent — a deterministic work-queue
//! executor that spreads independent pipeline cases over
//! `std::thread::scope` workers while keeping results **bit-identical to
//! the serial path**, whatever the thread count.
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
//! The worker count comes from [`FleetConfig`] (the `DRFIX_THREADS`
//! environment knob, defaulting to the machine's available parallelism).
//! Each run also measures throughput ([`FleetStats`]): cases per second
//! and per-worker busy time, printed by the bench harness next to the
//! paper's numbers.

use crate::database::ExampleDb;
use crate::pipeline::{DrFix, FixOutcome, PipelineConfig};
use corpus::RaceCase;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

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

/// Worker-count configuration for a fleet run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FleetConfig {
    /// Number of worker threads (at least 1).
    pub threads: usize,
}

impl FleetConfig {
    /// A fleet of exactly `threads` workers (clamped to at least 1).
    pub fn new(threads: usize) -> Self {
        FleetConfig {
            threads: threads.max(1),
        }
    }

    /// The strictly serial configuration (one worker, no spawning).
    pub fn serial() -> Self {
        FleetConfig { threads: 1 }
    }

    /// Reads `DRFIX_THREADS` from the environment, defaulting to the
    /// machine's available parallelism.
    pub fn from_env() -> Self {
        let threads = std::env::var("DRFIX_THREADS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|&t| t >= 1)
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1)
            });
        FleetConfig::new(threads)
    }
}

/// Throughput measurements for one fleet run.
#[derive(Debug, Clone)]
pub struct FleetStats {
    /// Worker threads used.
    pub threads: usize,
    /// Cases executed.
    pub cases: usize,
    /// Wall-clock duration of the whole run, in seconds.
    pub wall_seconds: f64,
    /// Per-worker busy time (from first claim to last completion).
    pub busy_seconds: Vec<f64>,
}

impl FleetStats {
    /// Cases per wall-clock second.
    pub fn cases_per_sec(&self) -> f64 {
        if self.wall_seconds > 0.0 {
            self.cases as f64 / self.wall_seconds
        } else {
            0.0
        }
    }

    /// Mean worker utilization: busy time over `threads × wall`.
    pub fn utilization(&self) -> f64 {
        let capacity = self.threads as f64 * self.wall_seconds;
        if capacity > 0.0 {
            (self.busy_seconds.iter().sum::<f64>() / capacity).min(1.0)
        } else {
            0.0
        }
    }

    /// Compact form for table columns, e.g. `37.5 c/s ×4 93%`.
    pub fn brief(&self) -> String {
        format!(
            "{:.1} c/s ×{} {:.0}%",
            self.cases_per_sec(),
            self.threads,
            self.utilization() * 100.0
        )
    }

    /// One-line human summary, printed by the bench harness.
    pub fn summary(&self) -> String {
        format!(
            "{} cases in {:.2}s — {:.1} cases/s on {} thread{} ({:.0}% worker utilization)",
            self.cases,
            self.wall_seconds,
            self.cases_per_sec(),
            self.threads,
            if self.threads == 1 { "" } else { "s" },
            self.utilization() * 100.0
        )
    }
}

/// The results of a fleet run: outputs in submission (index) order plus
/// throughput stats.
#[derive(Debug, Clone)]
pub struct FleetRun<T> {
    /// One result per job, in index order (never completion order).
    pub results: Vec<T>,
    /// Throughput measurements.
    pub stats: FleetStats,
}

/// Runs `job(0..n)` across the fleet's workers and returns the results
/// in index order.
///
/// Workers claim indices off one atomic cursor and write each result
/// into its index's slot, so output order is corpus order whatever
/// order jobs finish in. Because `job` receives only the index — and the
/// drfix jobs derive all randomness from [`derive_case_seed`] — the
/// result vector is bit-identical for every thread count.
pub fn run_indexed<T, F>(cfg: &FleetConfig, n: usize, job: F) -> FleetRun<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let start = Instant::now();
    let threads = cfg.threads.max(1).min(n.max(1));
    if threads == 1 {
        let results = (0..n).map(&job).collect();
        let wall = start.elapsed().as_secs_f64();
        return FleetRun {
            results,
            stats: FleetStats {
                threads: 1,
                cases: n,
                wall_seconds: wall,
                busy_seconds: vec![wall],
            },
        };
    }

    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let busy_seconds: Vec<f64> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                s.spawn(|| {
                    let t0 = Instant::now();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            return t0.elapsed().as_secs_f64();
                        }
                        *slots[i].lock().expect("fleet slot poisoned") = Some(job(i));
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("fleet worker panicked"))
            .collect()
    });
    FleetRun {
        results: slots
            .into_iter()
            .map(|slot| {
                let out = slot.into_inner().expect("fleet slot poisoned");
                out.expect("a worker ran every index")
            })
            .collect(),
        stats: FleetStats {
            threads,
            cases: n,
            wall_seconds: start.elapsed().as_secs_f64(),
            busy_seconds,
        },
    }
}

/// Runs the pipeline over a case slice with per-case derived seeds,
/// sharded across the fleet.
///
/// This is the entry point the whole experiment layer goes through; the
/// serial path is just `FleetConfig::serial()`.
pub fn run_cases(
    pipeline_cfg: &PipelineConfig,
    fleet: &FleetConfig,
    cases: &[RaceCase],
    db: Option<&ExampleDb>,
) -> FleetRun<FixOutcome> {
    run_indexed(fleet, cases.len(), |i| {
        let mut cfg = pipeline_cfg.clone();
        cfg.seed = derive_case_seed(pipeline_cfg.seed, i as u64);
        DrFix::new(cfg, db).fix_case(&cases[i].files, &cases[i].test)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::database::RagMode;
    use corpus::CorpusConfig;

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
        for threads in [1, 2, 8] {
            let run = run_indexed(&FleetConfig::new(threads), 100, |i| i * 3);
            assert_eq!(run.results, (0..100).map(|i| i * 3).collect::<Vec<_>>());
            assert_eq!(run.stats.cases, 100);
            assert!(run.stats.wall_seconds >= 0.0);
        }
    }

    #[test]
    fn empty_fleet_run_is_fine() {
        let run = run_indexed(&FleetConfig::new(4), 0, |i| i);
        assert!(run.results.is_empty());
        assert_eq!(run.stats.cases_per_sec(), 0.0);
    }

    #[test]
    fn parallel_outcomes_are_bit_identical_to_serial() {
        let ccfg = CorpusConfig {
            eval_cases: 10,
            db_pairs: 24,
            seed: 0xF1EE7,
        };
        let cases = corpus::generate_eval_corpus(&ccfg);
        let db = ExampleDb::build(&corpus::generate_example_db(&ccfg));
        let pcfg = PipelineConfig {
            rag: RagMode::Skeleton,
            validation_runs: 6,
            detect_runs: 24,
            seed: 0xFEED,
            ..PipelineConfig::default()
        };
        let serial = run_cases(&pcfg, &FleetConfig::serial(), &cases, Some(&db));
        for threads in [2, 8] {
            let par = run_cases(&pcfg, &FleetConfig::new(threads), &cases, Some(&db));
            assert_eq!(
                par.results, serial.results,
                "{threads}-thread outcomes diverged from serial"
            );
        }
    }

    #[test]
    fn stats_summary_mentions_throughput() {
        let stats = FleetStats {
            threads: 4,
            cases: 120,
            wall_seconds: 2.0,
            busy_seconds: vec![1.9, 1.8, 1.9, 1.7],
        };
        assert_eq!(stats.cases_per_sec(), 60.0);
        assert!(stats.utilization() > 0.9);
        let s = stats.summary();
        assert!(s.contains("cases/s"), "{s}");
        assert!(s.contains("4 threads"), "{s}");
    }
}
