//! `drfix` — the paper's primary contribution: an automated data-race
//! fixing pipeline combining program analysis with an LLM (PLDI 2025).
//!
//! The flow mirrors Fig. 1 of the paper:
//!
//! 1. **Race Info Extractor** ([`raceinfo`]): parses the ThreadSanitizer-
//!    style report into candidate fix locations (test / leaf / LCA) and
//!    scopes (function / file);
//! 2. **Example database** ([`database`]): curated `(racy, fixed)` pairs
//!    keyed by embeddings of their concurrency skeletons (or raw text,
//!    for the ablation arm);
//! 3. **Fix Generator** ([`pipeline`]): Listing 13's loop — locations ×
//!    scopes × examples × retries with failure feedback, each attempt one
//!    LLM call;
//! 4. **Fix Validator** ([`validate`]): rebuild and re-run the tests
//!    under many schedules, checking the stable bug hash;
//! 5. **Developer validation** ([`review`]): the seeded code-review
//!    model behind RQ1's acceptance rate;
//! 6. **Fleet execution** ([`fleet`]): the one work-queue executor
//!    (§2.2) that shards jobs across worker threads, and the per-case
//!    seed derivations that keep it bit-identical to the serial path.
//!
//! # Example
//!
//! ```
//! use drfix::{DrFix, PipelineConfig};
//!
//! let files = vec![(
//!     "counter.go".to_string(),
//!     r#"package app
//!
//! import (
//!     "sync"
//!     "testing"
//! )
//!
//! func Bump() int {
//!     n := 0
//!     var wg sync.WaitGroup
//!     wg.Add(2)
//!     go func() {
//!         defer wg.Done()
//!         n = n + 1
//!     }()
//!     go func() {
//!         defer wg.Done()
//!         n = n + 2
//!     }()
//!     wg.Wait()
//!     return n
//! }
//!
//! func TestBump(t *testing.T) {
//!     Bump()
//! }
//! "#
//!     .to_string(),
//! )];
//! let drfix = DrFix::new(PipelineConfig::default(), None);
//! let outcome = drfix.fix_case(&files, "TestBump");
//! assert!(outcome.fixed);
//! ```

#![warn(missing_docs)]

pub mod campaign;
pub mod database;
pub mod fleet;
pub mod pipeline;
pub mod raceinfo;
pub mod review;
pub mod tournament;
pub mod validate;

pub use campaign::{
    run_campaign, CampaignConfig, CampaignMetrics, CampaignMode, CampaignRun, CaseOutcome,
    ShardProgress, Snapshot, Tallies, CAMPAIGN_SCHEMA,
};
pub use database::{ExampleDb, RagMode};
pub use govm::SchedulePolicy;
pub use pipeline::{DrFix, FailureKind, FixOutcome, PipelineConfig};
pub use raceinfo::{extract, FixLocation, LocationKind, RaceInfo};
pub use review::{review_fix, ReviewOutcome};
pub use tournament::{
    candidate_rank, CandidateOutcome, CandidateReport, TournamentConfig, TournamentReport,
};
pub use validate::{
    static_probe, validate_patch_report, StaticProbe, ValidationOptions, ValidationOutcome, Verdict,
};
