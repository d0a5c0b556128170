//! Shared experiment harness for the table/figure benches.
//!
//! Every bench target regenerates one table or figure of the paper by
//! running the real pipeline over the seeded corpus. Environment knobs
//! keep `cargo bench` runtimes reasonable:
//!
//! - `DRFIX_CASES` — evaluation corpus size (default 120; the paper's
//!   403 reproduces the same shapes, just slower);
//! - `DRFIX_DB_PAIRS` — example-database size (default 272);
//! - `DRFIX_VALIDATION_RUNS` — schedules per validation (default 12;
//!   the paper runs 1000);
//! - `DRFIX_THREADS` — fleet worker threads (default: available
//!   parallelism). Outcomes are bit-identical at any thread count; only
//!   wall-clock changes.
//! - `DRFIX_POLICY` — schedule-exploration policy for both the
//!   reproduce and validate steps: `random` (default), `pct`,
//!   `pct:<depth>`, `pct:<depth>:<budget>`, or `sweep` (see
//!   [`govm::sched`]).
//! - `DRFIX_DEDUP_STREAK` — validation early-exit after this many
//!   consecutive replayed schedule signatures (default 8, the value the
//!   `schedules_to_expose` savings were measured at; `0` disables).
//!   Wired into every default arm so the tracked numbers reflect the
//!   recommended campaign configuration.
//!
//! Every arm runs through [`drfix::fleet`]: cases are sharded across a
//! work-queue of threads, each with a seed derived from
//! `(cfg.seed, case index)`, and per-arm throughput (cases/s, worker
//! utilization) is reported next to the paper numbers.

use corpus::{CorpusConfig, RaceCase};
use drfix::fleet::{self, FleetConfig, FleetStats};
use drfix::{ExampleDb, FixOutcome, PipelineConfig, RagMode, SchedulePolicy};
use std::sync::OnceLock;
use synthllm::ModelTier;

/// Experiment-scale configuration, read from the environment once.
#[derive(Debug, Clone)]
pub struct Scale {
    /// Evaluation corpus size.
    pub cases: usize,
    /// Example-database size.
    pub db_pairs: usize,
    /// Schedules per validation campaign.
    pub validation_runs: u32,
    /// Schedule-exploration policy for reproduce and validate
    /// (`DRFIX_POLICY`).
    pub policy: SchedulePolicy,
    /// Validation early-exit on schedule saturation
    /// (`DRFIX_DEDUP_STREAK`; `None` = off).
    pub dedup_streak: Option<u32>,
}

impl Scale {
    /// Reads the scale from `DRFIX_*` env vars.
    pub fn from_env() -> Self {
        let get = |k: &str, d: usize| {
            std::env::var(k)
                .ok()
                .and_then(|v| v.parse().ok())
                .unwrap_or(d)
        };
        Scale {
            cases: get("DRFIX_CASES", 120),
            db_pairs: get("DRFIX_DB_PAIRS", 272),
            validation_runs: get("DRFIX_VALIDATION_RUNS", 12) as u32,
            policy: SchedulePolicy::from_env(),
            dedup_streak: match get("DRFIX_DEDUP_STREAK", 8) as u32 {
                0 => None,
                k => Some(k),
            },
        }
    }
}

static CORPUS: OnceLock<Vec<RaceCase>> = OnceLock::new();
static DB: OnceLock<ExampleDb> = OnceLock::new();

/// The shared evaluation corpus (built once per process).
pub fn eval_corpus(scale: &Scale) -> &'static [RaceCase] {
    CORPUS.get_or_init(|| {
        corpus::generate_eval_corpus(&CorpusConfig {
            eval_cases: scale.cases,
            db_pairs: 0,
            seed: 0xD0F1,
        })
    })
}

/// The shared example database. Skeletonization and embedding of the
/// pairs is sharded across the fleet; the resulting stores are
/// bit-identical to a serial build.
pub fn example_db(scale: &Scale) -> &'static ExampleDb {
    DB.get_or_init(|| {
        let pairs = corpus::generate_example_db(&CorpusConfig {
            eval_cases: 0,
            db_pairs: scale.db_pairs,
            seed: 0xD0F1,
        });
        ExampleDb::build_with(&pairs, &FleetConfig::from_env())
    })
}

/// A standard pipeline config for one ablation arm. The `DRFIX_POLICY`
/// schedule-exploration policy applies to both reproduce and validate,
/// and validation campaigns early-exit on schedule saturation after
/// `DRFIX_DEDUP_STREAK` replayed signatures (the recommended
/// configuration the tracked numbers are produced under).
pub fn base_config(scale: &Scale, tier: ModelTier, rag: RagMode) -> PipelineConfig {
    PipelineConfig {
        tier,
        rag,
        validation_runs: scale.validation_runs,
        detect_runs: 32,
        seed: 0xFEED,
        detect_policy: scale.policy.clone(),
        validate_policy: scale.policy.clone(),
        validation_dedup_streak: scale.dedup_streak,
        ..PipelineConfig::default()
    }
}

/// One arm's aggregate results.
#[derive(Debug, Clone)]
pub struct ArmResult {
    /// Arm label.
    pub label: String,
    /// Per-case outcomes, aligned with the corpus order.
    pub outcomes: Vec<FixOutcome>,
    /// Fleet throughput measurements for the arm.
    pub stats: FleetStats,
}

impl ArmResult {
    /// Number of validated fixes.
    pub fn fixed(&self) -> usize {
        self.outcomes.iter().filter(|o| o.fixed).count()
    }

    /// Fix rate over the corpus.
    pub fn rate(&self) -> f64 {
        if self.outcomes.is_empty() {
            0.0
        } else {
            self.fixed() as f64 / self.outcomes.len() as f64
        }
    }

    /// Compact throughput column (`cases/s × threads util%`).
    pub fn throughput(&self) -> String {
        self.stats.brief()
    }
}

/// Runs one configuration over the corpus, sharded across the fleet
/// configured by `DRFIX_THREADS` (per-case derived seeds keep the
/// outcomes bit-identical to a serial run).
pub fn run_arm(
    label: &str,
    cfg: PipelineConfig,
    cases: &[RaceCase],
    db: Option<&ExampleDb>,
) -> ArmResult {
    run_arm_with(label, cfg, &FleetConfig::from_env(), cases, db)
}

/// [`run_arm`] with an explicit fleet configuration.
pub fn run_arm_with(
    label: &str,
    cfg: PipelineConfig,
    fleet_cfg: &FleetConfig,
    cases: &[RaceCase],
    db: Option<&ExampleDb>,
) -> ArmResult {
    let run = fleet::run_cases(&cfg, fleet_cfg, cases, db);
    ArmResult {
        label: label.to_owned(),
        outcomes: run.results,
        stats: run.stats,
    }
}

/// Formats a percentage.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

/// Prints a standard experiment header.
pub fn header(title: &str, paper: &str) {
    println!("\n================================================================");
    println!("{title}");
    println!("paper reference: {paper}");
    println!("================================================================");
}

/// Percentile over a sorted-copy of the data (nearest-rank).
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let rank = ((p / 100.0) * v.len() as f64).ceil().max(1.0) as usize - 1;
    v[rank.min(v.len() - 1)]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_nearest_rank() {
        let xs = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(percentile(&xs, 50.0), 3.0);
        assert_eq!(percentile(&xs, 100.0), 5.0);
        assert_eq!(percentile(&xs, 1.0), 1.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn run_arm_is_thread_count_invariant() {
        let ccfg = CorpusConfig {
            eval_cases: 8,
            db_pairs: 20,
            seed: 0xBEEF,
        };
        let cases = corpus::generate_eval_corpus(&ccfg);
        let db = ExampleDb::build(&corpus::generate_example_db(&ccfg));
        let cfg = PipelineConfig {
            rag: RagMode::Skeleton,
            validation_runs: 4,
            detect_runs: 16,
            seed: 0xFEED,
            ..PipelineConfig::default()
        };
        let serial = run_arm_with("s", cfg.clone(), &FleetConfig::serial(), &cases, Some(&db));
        for threads in [2, 8] {
            let par = run_arm_with(
                "p",
                cfg.clone(),
                &FleetConfig::new(threads),
                &cases,
                Some(&db),
            );
            assert_eq!(par.outcomes, serial.outcomes, "threads={threads}");
            assert_eq!(par.fixed(), serial.fixed());
        }
    }

    #[test]
    fn scale_defaults() {
        let s = Scale {
            cases: 10,
            db_pairs: 20,
            validation_runs: 4,
            policy: SchedulePolicy::Random,
            dedup_streak: Some(8),
        };
        assert_eq!(s.cases, 10);
        assert_eq!(s.policy.label(), "random");
        assert_eq!(s.dedup_streak, Some(8));
    }
}
