//! Shared experiment harness for the table/figure benches.
//!
//! Every bench target regenerates one table or figure of the paper by
//! running the real pipeline over the seeded corpus. Each ablation arm
//! is defined once, in the bench that reproduces its figure:
//! `fig3_rag_ablation` (retrieval), `fig4_scope_ablation` (scope and
//! feedback), `lca_ablation` (the LCA location) and `rq3_models` (model
//! tiers); `make paper-smoke` runs the four at small scale. Environment knobs
//! keep `cargo bench` runtimes reasonable; this crate is the only place
//! they are parsed ([`Scale::from_env`] for the shared scale below,
//! [`knob`] for a single bench's or test's own size), and a set knob
//! that does not parse stops the run instead of falling back to its
//! default:
//!
//! - `DRFIX_CASES` — evaluation corpus size (default 120; the paper's
//!   403 reproduces the same shapes, just slower);
//! - `DRFIX_DB_PAIRS` — example-database size (default 272);
//! - `DRFIX_VALIDATION_RUNS` — schedules per validation (default 12;
//!   the paper runs 1000);
//! - `DRFIX_THREADS` — worker threads per arm (default: available
//!   parallelism; at least 1). Outcomes are bit-identical at any thread
//!   count; only wall-clock changes.
//! - `DRFIX_POLICY` — schedule-exploration policy for both the
//!   reproduce and validate steps: `random` (default), `pct`,
//!   `pct:<depth>` or `pct:<depth>:<budget>` (see [`govm::sched`]).
//! - `DRFIX_DEDUP_STREAK` — validation early-exit after this many
//!   consecutive replayed schedule signatures (default 8, the value the
//!   `schedules_to_expose` savings were measured at; `0` disables).
//!   Wired into every default arm so the tracked numbers reflect the
//!   recommended campaign configuration.
//!
//! Every arm runs on [`drfix::fleet::run_indexed`]: cases are sharded
//! across a work-queue of threads, each with a seed derived from
//! `(cfg.seed, case index)`, and per-arm throughput (cases/s) is
//! reported next to the paper numbers.

use corpus::{CorpusConfig, RaceCase};
use drfix::fleet::{derive_case_seed, run_indexed};
use drfix::{DrFix, ExampleDb, FixOutcome, PipelineConfig, RagMode, SchedulePolicy};
use std::num::NonZeroUsize;
use std::str::FromStr;
use std::sync::OnceLock;
use std::time::Instant;
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
    /// Worker threads each arm runs on (`DRFIX_THREADS`).
    pub threads: usize,
    /// Schedule-exploration policy for reproduce and validate
    /// (`DRFIX_POLICY`).
    pub policy: SchedulePolicy,
    /// Validation early-exit on schedule saturation
    /// (`DRFIX_DEDUP_STREAK`; `None` = off).
    pub dedup_streak: Option<u32>,
}

impl Scale {
    /// Reads the scale from the `DRFIX_*` environment variables.
    pub fn from_env() -> Self {
        Self::from_vars(&|key| std::env::var(key).ok())
    }

    /// The scale the knob values `var(key)` describe (`None` = unset).
    /// An unset knob takes its default; a set one that does not parse
    /// panics, naming it.
    fn from_vars(var: &dyn Fn(&str) -> Option<String>) -> Self {
        let num = |key| parse_knob(var, key, |v| v.parse().ok());
        Scale {
            cases: num("DRFIX_CASES").unwrap_or(120),
            db_pairs: num("DRFIX_DB_PAIRS").unwrap_or(272),
            validation_runs: parse_knob(var, "DRFIX_VALIDATION_RUNS", |v| v.parse().ok())
                .unwrap_or(12),
            threads: parse_knob(var, "DRFIX_THREADS", |v| v.parse::<NonZeroUsize>().ok())
                .or_else(|| std::thread::available_parallelism().ok())
                .map_or(1, NonZeroUsize::get),
            policy: parse_knob(var, "DRFIX_POLICY", SchedulePolicy::parse).unwrap_or_default(),
            dedup_streak: match parse_knob(var, "DRFIX_DEDUP_STREAK", |v| v.parse().ok())
                .unwrap_or(8)
            {
                0 => None,
                k => Some(k),
            },
        }
    }
}

/// Knob `key` read from the environment: `None` when unset, a panic
/// naming the knob when it is set to something `T` does not parse.
pub fn knob<T: FromStr>(key: &str) -> Option<T> {
    parse_knob(&|k| std::env::var(k).ok(), key, |v| v.parse().ok())
}

/// Knob `key`'s value under `parse`: `None` when unset, a panic naming
/// the knob when it is set to something `parse` rejects.
fn parse_knob<T>(
    var: &dyn Fn(&str) -> Option<String>,
    key: &str,
    parse: impl Fn(&str) -> Option<T>,
) -> Option<T> {
    let v = var(key)?;
    Some(parse(&v).unwrap_or_else(|| panic!("{key}={v:?} does not parse")))
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

/// The shared example database (built once per process; see
/// [`ExampleDb::build`]).
pub fn example_db(scale: &Scale) -> &'static ExampleDb {
    DB.get_or_init(|| {
        let pairs = corpus::generate_example_db(&CorpusConfig {
            eval_cases: 0,
            db_pairs: scale.db_pairs,
            seed: 0xD0F1,
        });
        ExampleDb::build(&pairs)
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
    /// Per-case outcomes, aligned with the corpus order.
    pub outcomes: Vec<FixOutcome>,
    /// Wall-clock duration of the arm, in seconds.
    pub wall_seconds: f64,
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

    /// Compact throughput column, e.g. `37.5 c/s`.
    pub fn throughput(&self) -> String {
        let rate = if self.wall_seconds > 0.0 {
            self.outcomes.len() as f64 / self.wall_seconds
        } else {
            0.0
        };
        format!("{rate:.1} c/s")
    }
}

/// Runs one configuration over the corpus on `threads` workers. Case
/// `i` runs under [`derive_case_seed`]`(cfg.seed, i)`, so the outcomes
/// are bit-identical at any thread count.
pub fn run_arm(
    cfg: PipelineConfig,
    threads: usize,
    cases: &[RaceCase],
    db: Option<&ExampleDb>,
) -> ArmResult {
    let start = Instant::now();
    let outcomes = run_indexed(threads, cases.len(), |i| {
        let mut case_cfg = cfg.clone();
        case_cfg.seed = derive_case_seed(cfg.seed, i as u64);
        DrFix::new(case_cfg, db).fix_case(&cases[i].files, &cases[i].test)
    });
    ArmResult {
        outcomes,
        wall_seconds: start.elapsed().as_secs_f64(),
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

/// Prints a paper ordering and whether the measured arms satisfy it.
pub fn shape_check(claim: &str, holds: bool) {
    let verdict = if holds { "holds" } else { "does NOT hold" };
    println!("shape check: {claim} — {verdict}");
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

    /// The arms' executor keeps outcomes bit-identical to the serial
    /// run at any thread count.
    #[test]
    fn run_arm_is_thread_count_invariant() {
        let ccfg = CorpusConfig {
            eval_cases: 10,
            db_pairs: 24,
            seed: 0xF1EE7,
        };
        let cases = corpus::generate_eval_corpus(&ccfg);
        let db = ExampleDb::build(&corpus::generate_example_db(&ccfg));
        let cfg = PipelineConfig {
            rag: RagMode::Skeleton,
            validation_runs: 6,
            detect_runs: 24,
            seed: 0xFEED,
            ..PipelineConfig::default()
        };
        let serial = run_arm(cfg.clone(), 1, &cases, Some(&db));
        assert!(serial.fixed() > 0, "the corpus slice fixed nothing");
        for threads in [2, 8] {
            let par = run_arm(cfg.clone(), threads, &cases, Some(&db));
            assert_eq!(par.outcomes, serial.outcomes, "threads={threads}");
        }
    }

    /// A knob that does not parse stops the run instead of silently
    /// taking its default.
    #[test]
    fn unparseable_knobs_fail_loudly() {
        let read = |key: &'static str, value: &'static str| {
            std::panic::catch_unwind(|| Scale::from_vars(&|k| (k == key).then(|| value.to_owned())))
        };
        for (key, value) in [
            ("DRFIX_POLICY", "pct:seven"),
            ("DRFIX_POLICY", "sweep"),
            ("DRFIX_THREADS", "abc"),
            ("DRFIX_THREADS", "0"),
            ("DRFIX_CASES", "many"),
        ] {
            assert!(read(key, value).is_err(), "{key}={value} was accepted");
        }
        let scale = read("DRFIX_POLICY", "pct:7").unwrap();
        assert_eq!(
            scale.policy,
            SchedulePolicy::Pct {
                depth: 7,
                budget: govm::sched::PCT_DEFAULT_BUDGET
            }
        );
        assert_eq!(read("DRFIX_THREADS", "3").unwrap().threads, 3);
    }

    #[test]
    fn scale_defaults() {
        let s = Scale {
            cases: 10,
            db_pairs: 20,
            validation_runs: 4,
            threads: 1,
            policy: SchedulePolicy::Random,
            dedup_streak: Some(8),
        };
        assert_eq!(s.cases, 10);
        assert_eq!(s.policy.label(), "random");
        assert_eq!(s.dedup_streak, Some(8));
    }
}
